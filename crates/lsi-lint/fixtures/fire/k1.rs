// Fixture: K1-thread-dependent-blocking must flag blocking geometry and
// chunk boundaries chosen from runtime parallelism.

pub fn panel_heights(m: usize, num_threads: usize) -> usize {
    let mc = (m + num_threads).max(8);
    mc
}

pub fn panel_depth(k: usize) -> usize {
    let kc = k.min(std::thread::available_parallelism().map_or(1, |n| n.get()) * 64);
    kc
}

pub fn plan(len: usize, num_threads: usize) -> usize {
    let chunk_size = len.div_ceil(num_threads);
    chunk_size
}

pub fn grain(total: usize, n_threads: usize) -> usize {
    let per_thread = total / n_threads;
    per_thread
}

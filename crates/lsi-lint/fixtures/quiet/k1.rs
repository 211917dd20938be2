// Fixture: K1-thread-dependent-blocking must stay quiet on size-only
// blocking geometry and chunk math, even next to thread-pool plumbing.

pub fn block_plan(m: usize, n: usize, k: usize) -> (usize, usize, usize) {
    // Geometry is a pure function of the problem dimensions.
    let mc = m.max(4).min(64);
    let kc = k.max(1).min(256);
    let nc = n.max(8).min(4096);
    (mc, kc, nc)
}

pub fn plan(len: usize) -> usize {
    // Boundary depends only on problem size: identical for every thread
    // count.
    let chunk_size = len.div_ceil(8).max(64);
    chunk_size
}

pub fn pool_size(num_threads: usize) -> usize {
    // The thread count sizes the pool, never the panels or chunks.
    num_threads.max(1)
}

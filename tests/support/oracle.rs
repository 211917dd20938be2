//! The reference scorer every query surface must agree with bitwise, and
//! an index built to trip tie and zero handling.
//!
//! The scorer shares no code with the production loops. It folds the query
//! from `factors().u`, scores every live row, sorts by (score descending,
//! id ascending) and truncates. It copies each production expression's
//! evaluation order and starting value, because those fix the bits: the
//! fold-in accumulates from +0.0, while `vector::dot` is `Iterator::sum`,
//! which starts from −0.0 — a dot product folded from +0.0 would flip the
//! sign bit of an exactly-zero score.

use lsi_repro::core::LsiIndex;

/// `U_kᵀ q` for a sparse term-space query; out-of-range terms and zero
/// weights are skipped.
pub fn fold(index: &LsiIndex, terms: &[(usize, f64)]) -> Vec<f64> {
    let mut q = vec![0.0; index.rank()];
    for &(t, w) in terms {
        if t < index.n_terms() && w != 0.0 {
            for (i, qi) in q.iter_mut().enumerate() {
                *qi += index.factors().u[(t, i)] * w;
            }
        }
    }
    q
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(-0.0, |acc, (x, y)| acc + x * y)
}

/// The `k` live rows (nonzero norm) with the best cosine to `q`, as
/// (doc, score bits), best first, equal scores by ascending id.
pub fn top_k(index: &LsiIndex, q: &[f64], k: usize) -> Vec<(usize, u64)> {
    let qn = dot(q, q).sqrt();
    if qn <= 0.0 {
        return Vec::new();
    }
    let mut hits: Vec<(usize, f64)> = (0..index.n_docs())
        .filter_map(|d| {
            let row = index.doc_vector(d);
            let dn = dot(row, row).sqrt();
            (dn > 0.0).then(|| (d, (dot(q, row) / (qn * dn)).clamp(-1.0, 1.0)))
        })
        .collect();
    hits.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    hits.truncate(k);
    hits.into_iter().map(|(d, s)| (d, s.to_bits())).collect()
}

/// [`top_k`] for a sparse term-space query.
pub fn query(index: &LsiIndex, terms: &[(usize, f64)], k: usize) -> Vec<(usize, u64)> {
    top_k(index, &fold(index, terms), k)
}

/// `base` (rank ≥ 2) plus rows aimed at tie and zero handling, relative to
/// the folded `probe` q:
/// - two exact twins of each of the probe's three best rows, appended
///   side by side so `id % shards` puts them on different shards: ties
///   across a shard boundary and at every k-th place they span;
/// - q itself and −q, whose cosines round past ±1 and are clamped;
/// - two copies of a row orthogonal to q (exactly-zero, tied scores);
/// - a row whose cosine with the basis vector e₀ is exactly −0.0;
/// - an all-zero row, and two retired rows (an original and a twin).
///
/// # Panics
/// Panics if `base` has rank < 2 or the probe folds to a non-finite vector.
pub fn adversarial(base: &LsiIndex, probe: &[(usize, f64)]) -> LsiIndex {
    let mut index = base.clone();
    let q = fold(&index, probe);
    let best: Vec<usize> = query(&index, probe, 3).iter().map(|h| h.0).collect();
    for &d in &best {
        let row = index.doc_vector(d).to_vec();
        index.add_document_vector(&row).unwrap();
        index.add_document_vector(&row).unwrap();
    }
    let neg: Vec<f64> = q.iter().map(|x| -x).collect();
    let mut orthogonal = vec![0.0; q.len()];
    (orthogonal[0], orthogonal[1]) = (q[1], -q[0]);
    let mut signed_zero = vec![-1.0; q.len()];
    signed_zero[0] = -0.0;
    let zero = vec![0.0; q.len()];
    for row in [&q, &neg, &orthogonal, &orthogonal, &signed_zero, &zero] {
        index.add_document_vector(row).unwrap();
    }
    let first_twin = base.n_docs();
    let retired = (0..base.n_docs()).find(|d| !best.contains(d)).unwrap();
    index.retire_document(retired).unwrap();
    index.retire_document(first_twin + 2).unwrap();
    index
}

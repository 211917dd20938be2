//! Section 5's speedup, live: direct Lanczos LSI on the full
//! term–document matrix vs the two-step random-projection pipeline, with
//! the Theorem 5 recovery accounting.
//!
//! ```sh
//! cargo run --release --example rp_speedup
//! ```

use std::time::Instant;

use lsi_repro::corpus::{SeparableConfig, SeparableModel};
use lsi_repro::ir::TermDocumentMatrix;
use lsi_repro::linalg::lanczos::{lanczos_svd, LanczosOptions};
use lsi_repro::linalg::rng::seeded;
use lsi_repro::rp::{two_step_lsi, ProjectionKind};

fn main() {
    let k = 10;
    let n = 4000;
    let m = 500;
    let config = SeparableConfig {
        universe_size: n,
        num_topics: k,
        primary_terms_per_topic: n / k,
        epsilon: 0.05,
        min_doc_len: 50,
        max_doc_len: 100,
    };
    let model = SeparableModel::build(config).expect("valid configuration");
    let mut rng = seeded(512);
    let corpus = model.model().sample_corpus(m, &mut rng);
    let td = TermDocumentMatrix::from_generated(&corpus).expect("fits universe");
    let a = td.counts();
    println!(
        "term-document matrix: {} x {}, {} nonzeros (avg {:.1} terms/doc)",
        td.n_terms(),
        td.n_docs(),
        td.nnz(),
        td.avg_terms_per_doc()
    );

    // Direct rank-k LSI.
    let t0 = Instant::now();
    let direct = lanczos_svd(a, k, &LanczosOptions::default()).expect("valid rank");
    let direct_secs = t0.elapsed().as_secs_f64();
    let total_sq = a.frobenius_sq();
    let head: f64 = direct.singular_values.iter().map(|s| s * s).sum();
    let direct_err = (total_sq - head).max(0.0);
    println!("\ndirect rank-{k} Lanczos LSI:    {direct_secs:.3}s");
    println!("  captured Frobenius mass: {:.2}%", 100.0 * head / total_sq);

    // Two-step pipeline at a few projection dimensions.
    println!("\ntwo-step RP + rank-2k LSI (Theorem 5):");
    println!("    l    secs   captured   excess err vs direct (frac of ‖A‖²)");
    for &l in &[40usize, 80, 160, 320] {
        let t0 = Instant::now();
        let r = two_step_lsi(a, k, l, ProjectionKind::OrthonormalSubspace, 77)
            .expect("valid dimensions");
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "{:>5} {:>7.3} {:>9.2}% {:>12.4}",
            l,
            secs,
            100.0 * (r.total_sq - r.error_sq) / r.total_sq,
            r.excess_error_fraction(direct_err)
        );
    }
    println!(
        "\nthe excess column is what Theorem 5 bounds by 2ε for l = Ω(log n / ε²);\n\
         the speedup grows with the vocabulary size n (see reproduce --exp e6)."
    );
}

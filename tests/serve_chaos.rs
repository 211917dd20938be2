//! Integration: the concurrent query engine under a seeded fault storm.
//!
//! The serving contract under test: for thousands of concurrently
//! submitted queries — some malformed, some slow, some that panic the
//! scorer outright, all while another thread folds new documents in —
//! every submission resolves to `Ok` or a typed `QueryError`, no panic
//! ever escapes to a caller, and the engine's statistics balance exactly.
//!
//! The storm is seed-deterministic (`SERVE_CHAOS_SEED` overrides the
//! default); `SERVE_SOAK=1` raises the volume for the CI soak run.

use std::sync::Arc;
use std::time::Duration;

use rand::Rng;

use lsi_repro::core::{BuildStatus, LsiConfig, LsiIndex};
use lsi_repro::corpus::{SeparableConfig, SeparableModel};
use lsi_repro::ir::TermDocumentMatrix;
use lsi_repro::serve::{
    DegradeReason, EngineConfig, Query, QueryEngine, QueryError, QueryResponse,
};

const DEFAULT_SEED: u64 = 20260706;

/// Tag prefixes the fault hook keys on: `tag / TAG_BASE` is the kind.
const TAG_BASE: u64 = 1_000_000;
const TAG_SLOW: u64 = 2;
const TAG_POISON: u64 = 3;

fn chaos_seed() -> u64 {
    std::env::var("SERVE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

fn storm_volume() -> usize {
    if std::env::var("SERVE_SOAK").as_deref() == Ok("1") {
        8_000
    } else {
        2_400
    }
}

/// An E1-shaped corpus: well-separated topics, seed-deterministic.
fn corpus(seed: u64) -> TermDocumentMatrix {
    let model = SeparableModel::build(SeparableConfig {
        universe_size: 60,
        num_topics: 3,
        primary_terms_per_topic: 20,
        epsilon: 0.0,
        min_doc_len: 8,
        max_doc_len: 16,
    })
    .unwrap();
    let mut rng = lsi_repro::linalg::rng::seeded(seed);
    let generated = model.model().sample_corpus(40, &mut rng);
    TermDocumentMatrix::from_generated(&generated).unwrap()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Normal,
    NanWeight,
    OutOfRange,
    Slow,
    Poison,
}

/// One pre-generated storm query with its expected outcome class.
struct StormQuery {
    kind: Kind,
    query: Query,
}

/// Generates the whole storm up front (deterministic per-kind counts),
/// then lets the submitter threads race over it.
fn generate_storm(seed: u64, total: usize, n_terms: usize) -> Vec<StormQuery> {
    let mut rng = lsi_repro::linalg::rng::seeded(seed);
    (0..total)
        .map(|i| {
            let roll = rng.gen_range(0usize..100);
            let kind = match roll {
                0..=84 => Kind::Normal,
                85..=89 => Kind::NanWeight,
                90..=94 => Kind::OutOfRange,
                95..=96 => Kind::Slow,
                _ => Kind::Poison,
            };
            let n_query_terms = rng.gen_range(1usize..=4);
            let mut terms: Vec<(usize, f64)> = (0..n_query_terms)
                .map(|_| (rng.gen_range(0..n_terms), rng.gen_range(0.5..2.0)))
                .collect();
            match kind {
                Kind::NanWeight => terms[0].1 = f64::NAN,
                Kind::OutOfRange => terms[0].0 = n_terms + rng.gen_range(1usize..50),
                _ => {}
            }
            let tag_kind = match kind {
                Kind::Slow => TAG_SLOW,
                Kind::Poison => TAG_POISON,
                _ => 0,
            };
            StormQuery {
                kind,
                query: Query {
                    terms,
                    top_k: rng.gen_range(1usize..=10),
                    tag: tag_kind * TAG_BASE + i as u64,
                },
            }
        })
        .collect()
}

/// The main storm: ≥2000 queries with ~15% injected faults across 4
/// workers and 4 submitter threads, with a concurrent fold-in mutator.
#[test]
fn fault_storm_every_submission_resolves_typed() {
    let seed = chaos_seed();
    let total = storm_volume();
    let td = corpus(seed);
    let index = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
    let n_terms = index.n_terms();
    assert!(matches!(index.build_status(), BuildStatus::Full));

    let config = EngineConfig {
        workers: 4,
        // Large enough that admission never sheds: outcome counts per
        // kind must be exact for the bookkeeping assertions below.
        queue_capacity: 4096,
        deadline: Some(Duration::from_secs(10)),
        soft_deadline: None,
        fault_hook: Some(Arc::new(|tag| match tag / TAG_BASE {
            TAG_SLOW => std::thread::sleep(Duration::from_millis(2)),
            TAG_POISON => panic!("chaos: poisoned scorer (tag {tag})"),
            _ => {}
        })),
        ..EngineConfig::default()
    };
    let engine = Arc::new(QueryEngine::with_fallback(index, &td, config));

    let storm = generate_storm(seed, total, n_terms);
    let expected = |k: Kind| storm.iter().filter(|q| q.kind == k).count() as u64;
    let (n_normal, n_nan, n_oor, n_slow, n_poison) = (
        expected(Kind::Normal),
        expected(Kind::NanWeight),
        expected(Kind::OutOfRange),
        expected(Kind::Slow),
        expected(Kind::Poison),
    );
    assert!(n_poison > 0 && n_nan > 0 && n_oor > 0 && n_slow > 0);

    // Concurrent mutator: folds fresh documents in while the storm runs.
    const MUTATOR_DOCS: usize = 32;
    let mutator = {
        let engine = Arc::clone(&engine);
        let mut rng = lsi_repro::linalg::rng::seeded(seed.wrapping_add(1));
        let docs: Vec<Vec<(usize, f64)>> = (0..MUTATOR_DOCS)
            .map(|_| {
                (0..rng.gen_range(3usize..8))
                    .map(|_| (rng.gen_range(0..n_terms), rng.gen_range(0.5..2.0)))
                    .collect()
            })
            .collect();
        std::thread::spawn(move || {
            for doc in docs {
                engine.add_document(&doc).expect("valid fold-in");
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };

    // 4 submitter threads race over disjoint chunks of the storm; each
    // records the (kind, outcome) of every ticket it waited on.
    let storm = Arc::new(storm);
    let chunk = storm.len().div_ceil(4);
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let storm = Arc::clone(&storm);
            std::thread::spawn(move || {
                let lo = t * chunk;
                let hi = (lo + chunk).min(storm.len());
                let mut tally = [0u64; 5]; // full, degraded, bad, internal, other
                for sq in &storm[lo..hi] {
                    match engine.query(sq.query.clone()) {
                        Ok(QueryResponse::Ranked(_)) => {
                            assert!(
                                matches!(sq.kind, Kind::Normal | Kind::Slow),
                                "{:?} query answered full-fidelity",
                                sq.kind
                            );
                            tally[0] += 1;
                        }
                        Ok(QueryResponse::Degraded { .. }) => tally[1] += 1,
                        Err(QueryError::BadQuery(_)) => {
                            assert!(
                                matches!(sq.kind, Kind::NanWeight | Kind::OutOfRange),
                                "{:?} query rejected as BadQuery",
                                sq.kind
                            );
                            tally[2] += 1;
                        }
                        Err(QueryError::Internal { detail }) => {
                            assert_eq!(sq.kind, Kind::Poison, "unexpected internal: {detail}");
                            assert!(detail.contains("poisoned scorer"), "{detail}");
                            tally[3] += 1;
                        }
                        Err(other) => {
                            panic!("{:?} query hit unexpected error {other:?}", sq.kind)
                        }
                    }
                }
                tally
            })
        })
        .collect();

    let mut tally = [0u64; 5];
    for handle in submitters {
        let t = handle.join().expect("submitter thread must not panic");
        for (acc, x) in tally.iter_mut().zip(t) {
            *acc += x;
        }
    }
    mutator.join().expect("mutator thread must not panic");

    // Exact per-kind accounting: the storm is deterministic and nothing
    // was shed or timed out, so every class lands where it must.
    assert_eq!(tally[0], n_normal + n_slow, "full-fidelity completions");
    assert_eq!(tally[1], 0, "healthy index, no soft deadline: no degrades");
    assert_eq!(tally[2], n_nan + n_oor, "typed BadQuery rejections");
    assert_eq!(tally[3], n_poison, "isolated panics");

    let s = engine.stats();
    assert!(s.consistent(), "books must balance at quiescence:\n{s:?}");
    assert_eq!(s.submitted, total as u64);
    assert_eq!(s.shed, 0);
    assert_eq!(s.timed_out, 0);
    assert_eq!(s.completed_full, n_normal + n_slow);
    assert_eq!(s.bad_query, n_nan + n_oor);
    assert_eq!(s.internal, n_poison);
    assert_eq!(
        s.worker_respawns, n_poison,
        "each poisoned query retires exactly one worker incarnation"
    );
    assert_eq!(s.docs_added, MUTATOR_DOCS as u64);
    assert!(s.completed_full > 0);
    assert_eq!(s.latency.iter().sum::<u64>(), s.resolved());
}

/// A deliberately slow query must time out while concurrent fast queries
/// still complete at full fidelity (LSI space).
#[test]
fn slow_query_times_out_while_fast_queries_complete() {
    let td = corpus(7);
    let index = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
    let config = EngineConfig {
        workers: 2,
        queue_capacity: 64,
        deadline: Some(Duration::from_millis(100)),
        soft_deadline: None,
        fault_hook: Some(Arc::new(|tag| {
            if tag / TAG_BASE == TAG_SLOW {
                std::thread::sleep(Duration::from_millis(400));
            }
        })),
        ..EngineConfig::default()
    };
    let engine = QueryEngine::with_fallback(index, &td, config);

    let slow = engine
        .submit(Query {
            terms: vec![(0, 1.0)],
            top_k: 5,
            tag: TAG_SLOW * TAG_BASE,
        })
        .unwrap();
    // While the slow query burns its worker, the other worker keeps
    // serving fast queries at full fidelity.
    for _ in 0..10 {
        let resp = engine
            .query(Query::new(vec![(1, 1.0), (2, 0.5)], 5))
            .unwrap();
        assert!(
            matches!(resp, QueryResponse::Ranked(_)),
            "fast queries must stay in LSI space"
        );
    }
    assert_eq!(slow.wait(), Err(QueryError::DeadlineExceeded));
    let s = engine.stats();
    assert_eq!(s.timed_out, 1);
    assert_eq!(s.completed_full, 10);
    assert!(s.consistent());
}

/// Overload storm: a tiny queue with a deliberately slow single worker
/// must shed with `Overloaded` and the books must still balance.
#[test]
fn overload_storm_sheds_typed_and_books_balance() {
    let td = corpus(8);
    let index = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
    let config = EngineConfig {
        workers: 1,
        queue_capacity: 2,
        deadline: None,
        soft_deadline: None,
        fault_hook: Some(Arc::new(|_| {
            std::thread::sleep(Duration::from_millis(5));
        })),
        ..EngineConfig::default()
    };
    let engine = QueryEngine::with_fallback(index, &td, config);
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for _ in 0..64 {
        match engine.submit(Query::new(vec![(0, 1.0)], 3)) {
            Ok(t) => tickets.push(t),
            Err(QueryError::Overloaded { capacity }) => {
                assert_eq!(capacity, 2);
                shed += 1;
            }
            Err(other) => panic!("unexpected admission error {other:?}"),
        }
    }
    assert!(shed > 0, "the queue never filled");
    for t in tickets {
        t.wait().expect("admitted queries resolve Ok");
    }
    let s = engine.stats();
    assert_eq!(s.shed, shed);
    assert!(s.consistent(), "{s:?}");
}

/// A degraded-rank index answers every query through the term-space
/// fallback, explicitly marked.
#[test]
fn degraded_index_serves_marked_fallback_answers() {
    // Six copies of one document: true rank 1, requested rank 3.
    let trips: Vec<(usize, usize, f64)> = (0..6)
        .flat_map(|j| vec![(0, j, 2.0), (1, j, 1.0)])
        .collect();
    let td = TermDocumentMatrix::from_triplets(4, 6, &trips).unwrap();
    let index = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
    assert!(matches!(index.build_status(), BuildStatus::Degraded { .. }));
    let engine = QueryEngine::with_fallback(index, &td, EngineConfig::default());
    for _ in 0..16 {
        match engine.query(Query::new(vec![(0, 1.0)], 6)).unwrap() {
            QueryResponse::Degraded { hits, reason } => {
                assert_eq!(reason, DegradeReason::DegradedIndex);
                assert_eq!(hits.len(), 6, "all six duplicates share the term");
            }
            other => panic!("expected marked degraded answer, got {other:?}"),
        }
    }
    let s = engine.stats();
    assert_eq!(s.completed_degraded, 16);
    assert!(s.consistent());
}

/// An immediate soft deadline forces the term-space fallback on a healthy
/// index; the hard deadline stays comfortable so the answer still lands.
#[test]
fn soft_deadline_overrun_degrades_not_fails() {
    let td = corpus(9);
    let index = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
    let config = EngineConfig {
        workers: 2,
        queue_capacity: 64,
        deadline: Some(Duration::from_secs(30)),
        soft_deadline: Some(Duration::ZERO),
        fault_hook: None,
        ..EngineConfig::default()
    };
    let engine = QueryEngine::with_fallback(index, &td, config);
    for _ in 0..8 {
        match engine.query(Query::new(vec![(0, 1.0)], 5)).unwrap() {
            QueryResponse::Degraded { hits, reason } => {
                assert_eq!(reason, DegradeReason::SoftDeadline);
                assert!(!hits.is_empty());
            }
            other => panic!("expected soft-deadline degrade, got {other:?}"),
        }
    }
    let s = engine.stats();
    assert_eq!(s.completed_degraded, 8);
    assert_eq!(s.timed_out, 0);
    assert!(s.consistent());
}

//! Inputs every workload shares — the paper's corpus model, the index
//! configuration, the seeded operation mix — and the closed-loop runner.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lsi_core::{BuildStatus, LsiConfig, LsiIndex};
use lsi_corpus::{CorpusModel, GeneratedCorpus, SeparableConfig, SeparableModel};
use lsi_ir::{RankedList, TermDocumentMatrix};
use lsi_linalg::rng::seeded;
use rand::Rng;

/// Corpus size of every workload.
pub const DOCS: usize = 100_000;
/// Truncation rank of the index.
pub const RANK: usize = 20;
/// Shards of both serving workloads.
pub const SHARDS: usize = 2;
/// Closed-loop clients: no more than the two cores of the reference host.
pub const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Untimed queries run before the timed phase; the serving workloads also
/// use them as the probe set whose answers are checked bit for bit.
pub const WARMUP: usize = 20;
/// Op `i` is a write when `i % WRITE_EVERY == WRITE_EVERY - 1`: one write
/// per four queries.
pub const WRITE_EVERY: usize = 5;
/// `top_k` of every cold open → first answer.
pub const COLD_TOP_K: usize = 10;

/// Mixes the seed for the operation stream, so it never replays the
/// corpus stream.
const OPS_SALT: u64 = 0x0b5e_55ed_0000_0001;
/// Mixes the seed for the warm-up queries.
const WARMUP_SALT: u64 = 0x0b5e_55ed_0000_0002;
/// A traced run alternates traced and untraced blocks of this many
/// operations, so the cost of tracing is measured inside one run.
const TRACE_BLOCK: usize = 50;

/// Operation counts. They follow `--seconds` only, never the clock, so
/// counts and bytes repeat exactly for one setting.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus size.
    pub docs: usize,
    /// Timed builds of `index-100k`.
    pub builds: usize,
    /// Timed cold opens of `index-100k`.
    pub cold_opens: usize,
    /// Cold opens inside each serving set-up.
    pub setup_cold_opens: usize,
    /// Closed-loop operations.
    pub loop_ops: usize,
    /// Queries replayed per layer in a traced run.
    pub probes: usize,
}

impl Scale {
    /// The counts for `--seconds seconds`. The loop never drops below
    /// 1250 operations, so even the mixed workload answers the 1000
    /// queries a p99 needs.
    pub fn new(seconds: u64, docs: usize) -> Self {
        let s = usize::try_from(seconds).unwrap_or(3600).clamp(1, 3600);
        Scale {
            docs,
            builds: (s * 2 / 5).max(2),
            cold_opens: (s * 4).max(20),
            setup_cold_opens: 5,
            loop_ops: (s * 125).max(1250),
            probes: 20,
        }
    }
}

/// The paper's §4 model: 2000 terms, 20 topics, ε = 0.05, 50–100 terms
/// per document.
///
/// # Panics
/// Never in practice: the paper's configuration is feasible.
pub fn corpus_model() -> SeparableModel {
    SeparableModel::build(SeparableConfig::paper_experiment())
        .expect("the paper's configuration is feasible")
}

/// `docs` documents sampled from `model` under `seed`.
pub fn sample_corpus(model: &SeparableModel, seed: u64, docs: usize) -> GeneratedCorpus {
    model.model().sample_corpus(docs, &mut seeded(seed))
}

/// Corpus → index → fsynced v3 snapshot at `path`. Returns the index and
/// the seconds the three steps took.
pub fn build_on_disk(corpus: &GeneratedCorpus, path: &Path) -> Result<(LsiIndex, f64), String> {
    let start = Instant::now();
    let td = TermDocumentMatrix::from_generated(corpus)
        .map_err(|e| format!("term-document matrix: {e}"))?;
    let index =
        LsiIndex::build(&td, LsiConfig::with_rank(RANK)).map_err(|e| format!("build: {e}"))?;
    lsi_core::write_index_atomic(path, &index).map_err(|e| format!("snapshot write: {e}"))?;
    let took = start.elapsed().as_secs_f64();
    if index.build_status() != BuildStatus::Full {
        return Err(format!("the build degraded: {:?}", index.build_status()));
    }
    Ok((index, took))
}

/// One operation of the seeded mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A query: 1–4 terms with weights in 0.5–2.0; `top_k` is 10 for 90 %
    /// of queries and 100 for the rest.
    Query {
        /// `(term, weight)` pairs.
        terms: Vec<(usize, f64)>,
        /// Hits asked for.
        top_k: usize,
    },
    /// A new document drawn from the corpus model, as term counts.
    Write {
        /// `(term, count)` pairs.
        terms: Vec<(usize, f64)>,
    },
}

/// `n` operations under `seed`; with `with_writes`, one write follows
/// every four queries.
pub fn op_mix(model: &CorpusModel, seed: u64, n: usize, with_writes: bool) -> Vec<Op> {
    let mut rng = seeded(seed ^ OPS_SALT);
    let n_terms = model.universe_size();
    (0..n)
        .map(|i| {
            if with_writes && i % WRITE_EVERY == WRITE_EVERY - 1 {
                let doc = model.sample_document(&mut rng);
                Op::Write {
                    terms: doc
                        .counts()
                        .iter()
                        .map(|&(t, c)| (t, f64::from(c)))
                        .collect(),
                }
            } else {
                let len = rng.gen_range(1usize..=4);
                let terms = (0..len)
                    .map(|_| (rng.gen_range(0..n_terms), rng.gen_range(0.5..2.0)))
                    .collect();
                let top_k = if rng.gen_bool(0.9) { 10 } else { 100 };
                Op::Query { terms, top_k }
            }
        })
        .collect()
}

/// The [`WARMUP`] untimed queries of a run.
pub fn warmup_queries(model: &CorpusModel, seed: u64) -> Vec<Op> {
    op_mix(model, seed ^ WARMUP_SALT, WARMUP, false)
}

/// A ranked list as `(doc, score bits)` pairs: the form answers are
/// compared in.
pub fn bits(list: &RankedList) -> Vec<(usize, u64)> {
    list.hits()
        .iter()
        .map(|h| (h.doc, h.score.to_bits()))
        .collect()
}

/// How one operation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A complete answer, as [`bits`].
    Answer(Vec<(usize, u64)>),
    /// An acknowledged write and the global id it got.
    Written(u64),
    /// An error, a degraded answer, or a lost quorum.
    Failed(String),
}

/// One finished operation of a closed loop.
#[derive(Debug)]
pub struct Done {
    /// Index of the operation in the mix.
    pub op: usize,
    /// Latency in milliseconds.
    pub ms: f64,
    /// Whether the operation ran in a traced block.
    pub traced: bool,
    /// How it ended.
    pub outcome: Outcome,
}

/// A closed-loop run.
#[derive(Debug)]
pub struct LoopRun {
    /// Every operation, in mix order.
    pub done: Vec<Done>,
    /// `(op, start, end)` of the operations in traced blocks.
    pub spans: Vec<(usize, Instant, Instant)>,
    /// Wall time of the whole loop in seconds.
    pub wall_s: f64,
}

/// Runs `ops` from [`CLIENTS`] closed-loop clients: each client takes the
/// next operation only once its previous one has completed.
///
/// # Panics
/// Panics if `exec` panics on a client thread.
pub fn closed_loop<F>(ops: &[Op], trace: bool, exec: F) -> LoopRun
where
    F: Fn(&Op) -> Outcome + Sync,
{
    type ClientLog = (Vec<Done>, Vec<(usize, Instant, Instant)>);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let (mut done, mut spans) = (Vec::new(), Vec::new());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(i) else { break };
                        let traced = trace && (i / TRACE_BLOCK).is_multiple_of(2);
                        let t0 = Instant::now();
                        let outcome = exec(op);
                        if traced {
                            spans.push((i, t0, Instant::now()));
                        }
                        done.push(Done {
                            op: i,
                            ms: t0.elapsed().as_secs_f64() * 1e3,
                            traced,
                            outcome,
                        });
                    }
                    (done, spans)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("closed-loop client panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (mut done, mut spans) = (Vec::new(), Vec::new());
    for (d, s) in logs {
        done.extend(d);
        spans.extend(s);
    }
    done.sort_by_key(|d| d.op);
    LoopRun {
        done,
        spans,
        wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mix_repeats_for_one_seed_and_changes_with_the_seed() {
        let model = corpus_model();
        let a = op_mix(model.model(), 11, 500, true);
        assert_eq!(a, op_mix(model.model(), 11, 500, true));
        assert_ne!(a, op_mix(model.model(), 12, 500, true));
        assert_ne!(a, op_mix(model.model(), 11, 500, false));
        let writes = a.iter().filter(|op| matches!(op, Op::Write { .. })).count();
        assert_eq!(writes, 100);
        for op in &a {
            match op {
                Op::Query { terms, top_k } => {
                    assert!((1..=4).contains(&terms.len()));
                    assert!(terms
                        .iter()
                        .all(|&(t, w)| t < 2000 && (0.5..2.0).contains(&w)));
                    assert!(*top_k == 10 || *top_k == 100);
                }
                Op::Write { terms } => assert!(!terms.is_empty()),
            }
        }
        assert!(a
            .iter()
            .any(|op| matches!(op, Op::Query { top_k: 100, .. })));
        assert_ne!(warmup_queries(model.model(), 11), a[..WARMUP].to_vec());
    }

    #[test]
    fn scale_follows_seconds_and_leaves_room_for_p99() {
        let s = Scale::new(10, DOCS);
        assert_eq!((s.builds, s.cold_opens, s.loop_ops), (4, 40, 1250));
        assert!(s.loop_ops / WRITE_EVERY * (WRITE_EVERY - 1) >= 1000);
        let tiny = Scale::new(1, 500);
        assert_eq!((tiny.builds, tiny.cold_opens, tiny.loop_ops), (2, 20, 1250));
    }

    #[test]
    fn closed_loop_runs_every_op_once() {
        let ops: Vec<Op> = (0..200)
            .map(|i| Op::Query {
                terms: vec![(i, 1.0)],
                top_k: 10,
            })
            .collect();
        let run = closed_loop(&ops, true, |op| match op {
            Op::Query { terms, .. } => Outcome::Answer(vec![(terms[0].0, 0)]),
            Op::Write { .. } => Outcome::Written(0),
        });
        assert_eq!(run.done.len(), 200);
        for (i, d) in run.done.iter().enumerate() {
            assert_eq!(d.op, i);
            assert_eq!(d.outcome, Outcome::Answer(vec![(i, 0)]));
            assert_eq!(d.traced, (i / TRACE_BLOCK).is_multiple_of(2));
        }
        assert_eq!(run.spans.len(), 100);
    }
}

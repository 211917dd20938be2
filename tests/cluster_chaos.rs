//! Integration: the sharded scatter-gather cluster under a seeded storm.
//!
//! The cluster serving contract under test: for thousands of concurrent
//! queries — some malformed, some slow enough to trip the hedging path,
//! some that panic a shard's scorer — racing against mid-storm rebalances
//! and injected shard crashes (torn journal tails, stale rotation tmp
//! files), **every response is either complete-and-correct or honestly
//! marked degraded, never silently wrong**:
//!
//! - a `Complete` response is bitwise the unsharded reference answer;
//! - a `Degraded` response names its missing-shard count, contains no
//!   duplicate documents, and every hit it does return carries the exact
//!   score bits the reference assigns that document;
//! - everything else is a typed error (`BadQuery`, `QuorumLost`).
//!
//! After the storm every shard is reopened from disk and must reproduce
//! the cluster's document fingerprint exactly. A separate byte-exhaustive
//! matrix proves the rebalance move protocol (destination journal append
//! *before* source tombstone) recovers exactly-once visibility from every
//! crash point.
//!
//! Seed-deterministic (`SERVE_CHAOS_SEED` overrides the default);
//! `SERVE_SOAK=1` raises the volume for the CI soak run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::Rng;

use lsi_core::journal::{encode_frame, journal_tmp_path};
use lsi_core::{journal_path, BuildStatus, LsiConfig, LsiIndex, MutationRecord};
use lsi_linalg::faults::CrashPoint;
use lsi_repro::corpus::{SeparableConfig, SeparableModel};
use lsi_repro::ir::TermDocumentMatrix;
use lsi_repro::serve::cluster::{
    Cluster, ClusterConfig, ClusterDegradeReason, ClusterError, ClusterResponse,
};
use lsi_repro::serve::{EngineConfig, FaultHook, Query};

const DEFAULT_SEED: u64 = 20260706;

/// Tag prefixes the fault hooks key on: `tag / TAG_BASE` is the kind.
const TAG_BASE: u64 = 1_000_000;
const TAG_SLOW: u64 = 2;
const TAG_POISON: u64 = 3;

const SHARDS: usize = 4;

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsi_cluster_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
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

fn bits(hits: &lsi_repro::ir::retrieval::RankedList) -> Vec<(usize, u64)> {
    hits.hits()
        .iter()
        .map(|h| (h.doc, h.score.to_bits()))
        .collect()
}

/// The expected cluster fingerprint: every reference document's row bits.
fn expected_fingerprint(reference: &LsiIndex) -> BTreeMap<u64, Vec<u64>> {
    (0..reference.n_docs())
        .map(|j| {
            (
                j as u64,
                reference
                    .doc_vector(j)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect(),
            )
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Normal,
    NanWeight,
    OutOfRange,
    Slow,
    Poison,
}

struct StormQuery {
    kind: Kind,
    query: Query,
}

/// Generates the whole storm up front, mirroring `serve_chaos`'s mix.
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

/// Per-shard failure personalities: slow queries sleep past the soft
/// deadline on every shard (exercising the hedge), poison queries panic
/// the scorer on exactly one shard (`tag % SHARDS`).
fn storm_hooks() -> Arc<dyn Fn(usize) -> Option<FaultHook> + Send + Sync> {
    Arc::new(|shard| {
        Some(Arc::new(move |tag: u64| match tag / TAG_BASE {
            TAG_SLOW => std::thread::sleep(Duration::from_millis(25)),
            TAG_POISON if tag as usize % SHARDS == shard => {
                panic!("chaos: poisoned shard scorer (tag {tag})");
            }
            _ => {}
        }) as FaultHook)
    })
}

fn storm_config() -> ClusterConfig {
    ClusterConfig {
        shards: SHARDS,
        engine: EngineConfig {
            workers: 2,
            // Large enough that shard admission never sheds: a shed would
            // surface as an (honest) missing shard, but the storm wants
            // its degradations to come from the injected faults.
            queue_capacity: 4096,
            deadline: None, // overridden by hard_deadline anyway
            soft_deadline: None,
            fault_hook: None,
            ..EngineConfig::default()
        },
        soft_deadline: Some(Duration::from_millis(10)),
        hard_deadline: Duration::from_secs(5),
        breaker_threshold: 6,
        quorum: 0.5,
        assignment: None,
        fault_hooks: Some(storm_hooks()),
    }
}

/// Appends a torn garbage tail to the shard's journal and plants a stale
/// rotation `.tmp` sibling — the two kinds of on-disk residue a crash can
/// leave. Recovery must truncate the tail and sweep the tmp.
fn tear_journal_tail(snapshot: &Path, garbage: &[u8]) {
    let journal = journal_path(snapshot);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .expect("open journal for tearing");
    file.write_all(garbage).expect("append torn tail");
    std::fs::write(journal_tmp_path(&journal), b"stale rotation residue").expect("plant stale tmp");
}

/// The cluster storm: ≥2400 queries with injected shard panics, slow
/// shards (hedged retries), malformed queries, mid-storm rebalances, and
/// mid-storm shard crashes with torn journals — asserting every single
/// response is complete-and-correct or honestly degraded.
#[test]
fn cluster_storm_no_response_is_silently_wrong() {
    let seed = chaos_seed();
    let total = storm_volume();
    let dir = temp_dir("storm");
    let td = corpus(seed);
    let reference = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
    assert!(matches!(reference.build_status(), BuildStatus::Full));
    let n_terms = reference.n_terms();
    let expected_fp = expected_fingerprint(&reference);

    let cluster = Arc::new(Cluster::create(&reference, &dir, storm_config()).expect("create"));
    assert_eq!(cluster.fingerprint(), expected_fp);

    let storm = Arc::new(generate_storm(seed, total, n_terms));
    let n_poison = storm.iter().filter(|q| q.kind == Kind::Poison).count();
    let n_slow = storm.iter().filter(|q| q.kind == Kind::Slow).count();
    let n_bad = storm
        .iter()
        .filter(|q| matches!(q.kind, Kind::NanWeight | Kind::OutOfRange))
        .count();
    assert!(n_poison > 0 && n_slow > 0 && n_bad > 0);

    let stop = Arc::new(AtomicBool::new(false));

    // Mid-storm rebalances: a mover thread shuffles documents between
    // random shard pairs through the journaled move protocol.
    let mover = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        let mut rng = lsi_repro::linalg::rng::seeded(seed.wrapping_add(1));
        std::thread::spawn(move || {
            let mut moves = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let from = rng.gen_range(0..SHARDS);
                let mut to = rng.gen_range(0..SHARDS);
                if to == from {
                    to = (to + 1) % SHARDS;
                }
                let docs = cluster.shard_docs(from).expect("shard_docs");
                if !docs.is_empty() {
                    let pick = docs[rng.gen_range(0..docs.len())];
                    moves += cluster.rebalance(from, to, &[pick]).expect("rebalance");
                }
                std::thread::sleep(Duration::from_millis(3));
            }
            moves
        })
    };

    // Mid-storm crashes: kill a random shard, tear its journal tail,
    // plant a stale rotation tmp, recover by replay — while queries and
    // moves keep flowing.
    let crasher = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        let mut rng = lsi_repro::linalg::rng::seeded(seed.wrapping_add(2));
        std::thread::spawn(move || {
            let mut crashes = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let shard = rng.gen_range(0..SHARDS);
                let garbage: Vec<u8> = (0..rng.gen_range(1usize..40))
                    .map(|_| rng.gen_range(0u32..256) as u8)
                    .collect();
                let report = cluster
                    .crash_shard_with(shard, |snapshot| tear_journal_tail(snapshot, &garbage))
                    .expect("shard recovery must never fail");
                assert!(
                    report.truncated_bytes > 0,
                    "the torn tail must be detected and truncated"
                );
                crashes += 1;
                std::thread::sleep(Duration::from_millis(40));
            }
            crashes
        })
    };

    // 4 submitter threads race over disjoint chunks of the storm; every
    // response is checked against the unsharded reference.
    let chunk = storm.len().div_ceil(4);
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let storm = Arc::clone(&storm);
            let reference = reference.clone();
            std::thread::spawn(move || {
                let lo = t * chunk;
                let hi = (lo + chunk).min(storm.len());
                let mut tally = [0u64; 4]; // complete, degraded, quorum_lost, bad
                for sq in &storm[lo..hi] {
                    match cluster.query(sq.query.clone()) {
                        Ok(ClusterResponse::Complete(hits)) => {
                            assert_ne!(sq.kind, Kind::Poison, "poisoned query answered Complete");
                            let want = reference
                                .try_query(&sq.query.terms, sq.query.top_k, None)
                                .expect("reference query");
                            assert_eq!(
                                bits(&hits),
                                bits(&want),
                                "{:?}: Complete response diverged from the reference",
                                sq.kind
                            );
                            tally[0] += 1;
                        }
                        Ok(ClusterResponse::Degraded { hits, reason }) => {
                            let ClusterDegradeReason::MissingShards(missing) = reason else {
                                panic!("full-rank shards can only degrade by absence: {reason:?}")
                            };
                            assert!(
                                (1..=2).contains(&missing),
                                "quorum 2/4 bounds missing shards, got {missing}"
                            );
                            // Honest partiality: no duplicates, and every
                            // hit carries the reference's exact score bits.
                            let full = reference
                                .try_query(&sq.query.terms, usize::MAX, None)
                                .expect("reference query");
                            let truth: BTreeMap<usize, u64> = full
                                .hits()
                                .iter()
                                .map(|h| (h.doc, h.score.to_bits()))
                                .collect();
                            assert!(hits.len() <= sq.query.top_k);
                            let mut seen = std::collections::BTreeSet::new();
                            for h in hits.hits() {
                                assert!(
                                    seen.insert(h.doc),
                                    "document {} appears twice in one response",
                                    h.doc
                                );
                                assert_eq!(
                                    truth.get(&h.doc).copied(),
                                    Some(h.score.to_bits()),
                                    "degraded response returned a wrong score for doc {}",
                                    h.doc
                                );
                            }
                            tally[1] += 1;
                        }
                        Err(ClusterError::QuorumLost {
                            answered, needed, ..
                        }) => {
                            assert!(answered < needed);
                            tally[2] += 1;
                        }
                        Err(ClusterError::BadQuery(_)) => {
                            assert!(
                                matches!(sq.kind, Kind::NanWeight | Kind::OutOfRange),
                                "{:?} query rejected as BadQuery",
                                sq.kind
                            );
                            tally[3] += 1;
                        }
                        Err(other) => panic!("{:?} query hit unexpected error {other}", sq.kind),
                    }
                }
                tally
            })
        })
        .collect();

    let mut tally = [0u64; 4];
    for handle in submitters {
        let t = handle.join().expect("submitter thread must not panic");
        for (acc, x) in tally.iter_mut().zip(t) {
            *acc += x;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let moves = mover.join().expect("mover thread must not panic");
    let crashes = crasher.join().expect("crasher thread must not panic");
    assert!(moves > 0, "the storm must include rebalances");
    assert!(crashes > 0, "the storm must include shard crashes");

    // Coordinator books balance and match the submitters' own tallies.
    let stats = cluster.stats();
    assert!(stats.consistent(), "{}", stats.table());
    assert_eq!(stats.queries, total as u64);
    assert_eq!(
        [
            stats.complete,
            stats.degraded,
            stats.quorum_lost,
            stats.bad_query
        ],
        tally,
        "coordinator counters must match observed outcomes:\n{}",
        stats.table()
    );
    assert_eq!(
        stats.bad_query as usize, n_bad,
        "typed rejections are exact"
    );
    let hedges: u64 = stats.shards.iter().map(|s| s.hedges).sum();
    let deadline_hits: u64 = stats.shards.iter().map(|s| s.deadline_hits).sum();
    assert!(hedges > 0, "slow shards must have triggered hedged retries");
    assert!(deadline_hits >= hedges);

    // Quiesced cluster: every breaker closed, the storm's moves and
    // crashes must not have changed a single visible bit.
    for shard in 0..SHARDS {
        cluster.revive(shard).expect("revive");
    }
    assert_eq!(
        cluster.fingerprint(),
        expected_fp,
        "storm altered visible state"
    );
    let probe = Query::new(vec![(0, 1.0), (7, 0.5), (23, 1.5)], reference.n_docs());
    match cluster.query(probe.clone()).expect("quiesced query") {
        ClusterResponse::Complete(hits) => {
            let want = reference
                .try_query(&probe.terms, probe.top_k, None)
                .unwrap();
            assert_eq!(bits(&hits), bits(&want));
        }
        other => panic!("quiesced cluster must answer Complete, got {other:?}"),
    }

    // Post-storm reopen: every shard recovers by replay and the cluster
    // fingerprint survives the restart bit-for-bit; the stale rotation
    // tmp files the crasher planted must all have been swept.
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("all cluster handles must have been dropped"),
    }
    let (reopened, reports) = Cluster::open(&dir, storm_config()).expect("reopen");
    assert_eq!(reports.len(), SHARDS);
    assert_eq!(
        reopened.fingerprint(),
        expected_fp,
        "reopen fingerprint check"
    );
    match reopened.query(probe.clone()).expect("post-reopen query") {
        ClusterResponse::Complete(hits) => {
            let want = reference
                .try_query(&probe.terms, probe.top_k, None)
                .unwrap();
            assert_eq!(bits(&hits), bits(&want));
        }
        other => panic!("reopened cluster must answer Complete, got {other:?}"),
    }
    reopened.shutdown();
    let leftover_tmp: Vec<_> = std::fs::read_dir(&dir)
        .expect("read shard dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .collect();
    assert!(
        leftover_tmp.is_empty(),
        "stale tmp files survived recovery: {leftover_tmp:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-exhaustive crash matrix for the rebalance move protocol. A move
/// is two journal appends — `AddVector` on the destination, then `Retire`
/// on the source. For every surviving prefix of each append, reopening
/// the cluster must yield exactly-once visibility with unchanged bits:
/// the document is on the source (move not acknowledged), on both shards
/// (interrupted between the appends — deduplicated at merge), or on the
/// destination (move complete). Never absent, never double-counted in a
/// response, never rescored.
#[test]
fn rebalance_crash_matrix_recovers_exactly_once_at_every_byte() {
    let dir = temp_dir("rebalance_matrix");
    let td = corpus(11);
    let reference = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
    let expected_fp = expected_fingerprint(&reference);
    let probe_terms = vec![(0usize, 1.0f64), (5, 0.5), (31, 2.0)];
    let want = reference
        .try_query(&probe_terms, reference.n_docs(), None)
        .unwrap();

    let mut config = storm_config();
    config.shards = 2;
    config.fault_hooks = None;
    let cluster = Cluster::create(&reference, &dir, config.clone()).expect("create");
    let source_docs = cluster.shard_docs(0).expect("docs");
    let dest_docs = cluster.shard_docs(1).expect("docs");
    let gid = source_docs[source_docs.len() / 2];
    let local = source_docs
        .iter()
        .position(|&g| g == gid)
        .expect("gid is on the source");
    let coords = reference.doc_vector(gid as usize).to_vec();
    cluster.shutdown();

    // The two frames the move appends, encoded exactly as the journals
    // would: destination first, then the source tombstone.
    let dest_frame = encode_frame(&MutationRecord::AddVector {
        seq: dest_docs.len() as u64,
        doc_id: gid.to_string(),
        coords,
    });
    let src_frame = encode_frame(&MutationRecord::Retire {
        seq: source_docs.len() as u64,
        doc: local as u64,
    });

    let src_journal = journal_path(&dir.join("shard-000.lsix"));
    let dest_journal = journal_path(&dir.join("shard-001.lsix"));
    let src_base = std::fs::read(&src_journal).expect("read source journal");
    let dest_base = std::fs::read(&dest_journal).expect("read destination journal");

    let check = |label: String| {
        let (cluster, _reports) = Cluster::open(&dir, config.clone()).expect("reopen");
        assert_eq!(
            cluster.fingerprint(),
            expected_fp,
            "{label}: visible bits changed"
        );
        match cluster
            .query(Query::new(probe_terms.clone(), want.len().max(1)))
            .expect("probe query")
        {
            ClusterResponse::Complete(hits) => {
                assert_eq!(bits(&hits), bits(&want), "{label}: merged answer diverged")
            }
            other => panic!("{label}: expected Complete, got {other:?}"),
        }
        cluster.shutdown();
    };

    // Phase 1: crash at every byte of the destination append (source
    // journal untouched). Incomplete prefix → doc still on source only;
    // complete frame → doc on both shards, deduplicated at merge.
    for crash in CrashPoint::enumerate(dest_frame.len()) {
        let kept = &dest_frame[..crash.offset() as usize];
        std::fs::write(&dest_journal, [dest_base.as_slice(), kept].concat())
            .expect("install crash state");
        check(format!("dest append crash at byte {}", crash.offset()));
    }

    // Phase 2: destination append complete, crash at every byte of the
    // source tombstone. Incomplete prefix → doc on both (dedup);
    // complete → moved.
    std::fs::write(
        &dest_journal,
        [dest_base.as_slice(), dest_frame.as_slice()].concat(),
    )
    .expect("install completed destination append");
    for crash in CrashPoint::enumerate(src_frame.len()) {
        let kept = &src_frame[..crash.offset() as usize];
        std::fs::write(&src_journal, [src_base.as_slice(), kept].concat())
            .expect("install crash state");
        check(format!("source tombstone crash at byte {}", crash.offset()));
    }

    // Corruption (not just truncation) of the tombstone frame also
    // recovers the dedup state: the CRC rejects the frame.
    for i in [0usize, src_frame.len() / 2, src_frame.len() - 1] {
        let mut dirty = src_frame.clone();
        dirty[i] ^= 0xA5;
        std::fs::write(
            &src_journal,
            [src_base.as_slice(), dirty.as_slice()].concat(),
        )
        .expect("install corrupt state");
        check(format!("source tombstone corrupt byte {i}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Integration: the cross-process cluster under a kill -9 storm.
//!
//! This harness is `harness = false`: its `main` doubles as the shard
//! daemon entry point. The supervisor spawns *this very test binary* with
//! `shard-daemon --snapshot … --socket …` leading arguments (re-exec via
//! `current_exe()`), so every shard is a real child **process** serving
//! the Unix-socket RPC protocol — and a kill here is a real `SIGKILL`
//! delivered mid-query, mid-fold-in, or mid-rebalance, not a simulated
//! crash inside one address space.
//!
//! The serving contract under test is the same one `cluster_chaos.rs`
//! proves in-process, now across process boundaries:
//!
//! - a `Complete` response is bitwise the unsharded reference answer, for
//!   every kill schedule;
//! - a `Degraded` response stays within the quorum bound, contains no
//!   duplicates, and every hit carries the reference's exact score bits;
//! - a killed shard is reaped and respawned by the supervisor's heartbeat
//!   with a **bumped incarnation** (stale hedged replies rejected), and
//!   its hello reports the journal's id map, which the coordinator adopts
//!   — so fold-ins whose ack a kill swallowed reappear, exactly once;
//! - after the storm: no zombie children, no stale socket files, and an
//!   **in-process** reopen of the very same shard directory reproduces
//!   the cross-process cluster's fingerprint and probe answer bit for
//!   bit.
//!
//! A second test proves the stale-socket sweep: a daemon killed with the
//! socket path still on disk must be replaceable by a fresh daemon on the
//! same path (startup unlinks the leftover, the analogue of the journal's
//! stale `.tmp` sweep).
//!
//! Seed-deterministic query mix (`SERVE_CHAOS_SEED` overrides);
//! `SERVE_SOAK=1` raises the volume. Kill timing is inherently
//! wall-clock, so *outcome counts* vary run to run — the assertions are
//! invariants over every outcome, never counts.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::Rng;

use lsi_core::{BuildStatus, LsiConfig, LsiIndex};
use lsi_repro::corpus::{SeparableConfig, SeparableModel};
use lsi_repro::ir::TermDocumentMatrix;
use lsi_repro::serve::cluster::{
    Cluster, ClusterConfig, ClusterDegradeReason, ClusterError, ClusterResponse,
};
use lsi_repro::serve::{
    run_shard_daemon, DaemonCommand, EngineConfig, Query, RemoteShard, ShardDaemonConfig,
    ShardSupervisor, ShardTransport, SupervisorConfig,
};

const DEFAULT_SEED: u64 = 20260706;
const SHARDS: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("shard-daemon") {
        run_daemon_child(&args[2..]);
        return;
    }
    // harness = false: run the tests ourselves (filter args are ignored —
    // the two tests share the expensive daemon machinery anyway).
    storm_survives_sigkill_at_every_point();
    respawn_after_kill_sweeps_stale_socket();
    respawn_never_reuses_a_socket_path();
    println!("process_chaos: all tests passed");
}

/// The re-exec'd daemon entry point: parses exactly the flags
/// [`ShardSupervisor`] appends and serves one shard until shut down.
fn run_daemon_child(args: &[String]) {
    let mut snapshot: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut workers = 2usize;
    let mut deadline_ms = 1_000u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--snapshot" => snapshot = it.next().map(PathBuf::from),
            "--socket" => socket = it.next().map(PathBuf::from),
            "--workers" => workers = it.next().and_then(|v| v.parse().ok()).unwrap_or(workers),
            "--deadline-ms" => {
                deadline_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(deadline_ms);
            }
            other => panic!("shard-daemon: unknown flag {other:?}"),
        }
    }
    let mut config = ShardDaemonConfig::new(
        snapshot.expect("shard-daemon needs --snapshot"),
        socket.expect("shard-daemon needs --socket"),
    );
    config.workers = workers;
    config.hard_deadline = Duration::from_millis(deadline_ms);
    if let Err(e) = run_shard_daemon(config) {
        eprintln!("shard-daemon failed: {e}");
        std::process::exit(4);
    }
}

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
    let dir = std::env::temp_dir().join(format!("lsi_process_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The same E1-shaped corpus `cluster_chaos.rs` storms over.
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

fn storm_config() -> ClusterConfig {
    ClusterConfig {
        shards: SHARDS,
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 4096,
            deadline: None, // the daemons apply their own hard deadline
            soft_deadline: None,
            fault_hook: None,
            ..EngineConfig::default()
        },
        // Short soft deadline: a freshly killed daemon that stops
        // answering makes in-flight scatters hedge — into the *same*
        // generation only (the respawn bumps it), which is the staleness
        // contract under test.
        soft_deadline: Some(Duration::from_millis(25)),
        hard_deadline: Duration::from_secs(5),
        breaker_threshold: 6,
        quorum: 0.5,
        assignment: None,
        fault_hooks: None,
    }
}

fn supervisor_command() -> DaemonCommand {
    DaemonCommand::new(
        std::env::current_exe().expect("current_exe"),
        vec!["shard-daemon".to_owned()],
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Normal,
    NanWeight,
    OutOfRange,
}

struct StormQuery {
    kind: Kind,
    query: Query,
}

/// Seed-deterministic storm mix: mostly well-formed, plus the malformed
/// slices (the process kills are the chaos here — no in-process fault
/// hooks can reach a separate address space).
fn generate_storm(seed: u64, total: usize, n_terms: usize) -> Vec<StormQuery> {
    let mut rng = lsi_repro::linalg::rng::seeded(seed);
    (0..total)
        .map(|i| {
            let roll = rng.gen_range(0usize..100);
            let kind = match roll {
                0..=89 => Kind::Normal,
                90..=94 => Kind::NanWeight,
                _ => Kind::OutOfRange,
            };
            let n_query_terms = rng.gen_range(1usize..=4);
            let mut terms: Vec<(usize, f64)> = (0..n_query_terms)
                .map(|_| (rng.gen_range(0..n_terms), rng.gen_range(0.5..2.0)))
                .collect();
            match kind {
                Kind::NanWeight => terms[0].1 = f64::NAN,
                Kind::OutOfRange => terms[0].0 = n_terms + rng.gen_range(1usize..50),
                Kind::Normal => {}
            }
            StormQuery {
                kind,
                query: Query {
                    terms,
                    top_k: rng.gen_range(1usize..=10),
                    tag: i as u64,
                },
            }
        })
        .collect()
}

/// Fails if `pid` is a zombie child of this process (exited but never
/// reaped). A recycled pid belongs to someone else and is ignored.
fn assert_not_our_zombie(pid: u32) {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return; // gone entirely: reaped
    };
    // Layout: pid (comm) state ppid … — comm may contain spaces, so parse
    // from the last ')'.
    let after = stat.rsplit(')').next().unwrap_or("");
    let mut fields = after.split_whitespace();
    let state = fields.next().unwrap_or("");
    let ppid: u32 = fields.next().and_then(|p| p.parse().ok()).unwrap_or(0);
    assert!(
        !(state == "Z" && ppid == std::process::id()),
        "daemon pid {pid} is an unreaped zombie"
    );
}

/// Files under `dir` with extension `ext`.
fn files_with_ext(dir: &std::path::Path, ext: &str) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("read shard dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect()
}

/// SIGKILLs every daemon, then waits until the heartbeat has respawned
/// all of them and the cluster answers `Complete` again. Killing *all*
/// shards forces every coordinator id map through the hello-adoption
/// path, so any journaled-but-unacknowledged mutation becomes visible —
/// the lost-ack reconciliation the module docs promise.
fn settle_by_killing_everything(
    supervisor: &ShardSupervisor,
    cluster: &Cluster,
    probe: &Query,
) -> ClusterResponse {
    for shard in 0..SHARDS {
        supervisor.kill_shard(shard).expect("kill_shard");
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for shard in 0..SHARDS {
            let _ = cluster.revive(shard);
        }
        match cluster.query(probe.clone()) {
            Ok(ClusterResponse::Complete(hits)) => return ClusterResponse::Complete(hits),
            other => {
                assert!(
                    Instant::now() < deadline,
                    "cluster never settled back to Complete after kill-all: {other:?}"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Phase A: the 2400-query storm with a killer SIGKILLing daemons
/// mid-query and a mover rebalancing documents mid-kill. Phase B:
/// fold-ins racing kills, with exactly-once accounting. Then teardown
/// hygiene and the bit-identical in-process reopen.
fn storm_survives_sigkill_at_every_point() {
    let seed = chaos_seed();
    let total = storm_volume();
    let dir = temp_dir("storm");
    let td = corpus(seed);
    let reference = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
    assert!(matches!(reference.build_status(), BuildStatus::Full));
    let n_terms = reference.n_terms();
    let expected_fp = expected_fingerprint(&reference);

    // Lay the shards out on disk, release them, then bring them back as
    // child processes.
    Cluster::create(&reference, &dir, storm_config())
        .expect("create shard layout")
        .shutdown();
    let (cluster, supervisor) = ShardSupervisor::launch(
        &dir,
        storm_config(),
        supervisor_command(),
        SupervisorConfig::default(),
    )
    .expect("launch daemons");
    let supervisor = Arc::new(supervisor);
    let initial_pids = supervisor.pids();
    assert_eq!(initial_pids.len(), SHARDS);
    let all_pids: Arc<Mutex<BTreeSet<u32>>> =
        Arc::new(Mutex::new(initial_pids.iter().copied().collect()));

    assert_eq!(cluster.fingerprint(), expected_fp, "pre-storm fingerprint");

    let storm = Arc::new(generate_storm(seed, total, n_terms));
    let n_bad = storm.iter().filter(|q| q.kind != Kind::Normal).count();
    assert!(n_bad > 0);

    let stop = Arc::new(AtomicBool::new(false));

    // The killer: one SIGKILL at a time, paced so the heartbeat can
    // respawn between shots — quorum 2/4 keeps most answers flowing.
    let killer = {
        let supervisor = Arc::clone(&supervisor);
        let stop = Arc::clone(&stop);
        let all_pids = Arc::clone(&all_pids);
        let mut rng = lsi_repro::linalg::rng::seeded(seed.wrapping_add(7));
        std::thread::spawn(move || {
            let mut kills = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let shard = rng.gen_range(0..SHARDS);
                supervisor.kill_shard(shard).expect("kill_shard");
                kills += 1;
                std::thread::sleep(Duration::from_millis(200));
                all_pids.lock().unwrap().extend(supervisor.pids());
            }
            kills
        })
    };

    // The mover: rebalances race both the queries and the kills, so
    // SIGKILL lands mid-move too; a move that dies with its shard is
    // allowed to fail — the crash-consistency of the half-done state is
    // exactly what the final fingerprint checks prove.
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
                    if let Ok(n) = cluster.rebalance(from, to, &[pick]) {
                        moves += n;
                    }
                }
                std::thread::sleep(Duration::from_millis(15));
            }
            moves
        })
    };

    // 4 submitters race disjoint chunks; every single response is checked
    // against the unsharded reference.
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
                            let full = reference
                                .try_query(&sq.query.terms, usize::MAX, None)
                                .expect("reference query");
                            let truth: BTreeMap<usize, u64> = full
                                .hits()
                                .iter()
                                .map(|h| (h.doc, h.score.to_bits()))
                                .collect();
                            assert!(hits.len() <= sq.query.top_k);
                            let mut seen = BTreeSet::new();
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
    let kills = killer.join().expect("killer thread must not panic");
    assert!(kills > 0, "the storm must include SIGKILLs");
    assert!(tally[0] > 0, "the storm must include Complete answers");

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
        "typed rejections are exact even under kills"
    );

    // Phase A settle: kill everything once more so every id map goes
    // through hello adoption, then the visible state must be bitwise the
    // reference — no kill or half-move changed a single bit.
    let probe = Query::new(vec![(0, 1.0), (7, 0.5), (23, 1.5)], reference.n_docs());
    let settled = settle_by_killing_everything(&supervisor, &cluster, &probe);
    let want = reference
        .try_query(&probe.terms, probe.top_k, None)
        .unwrap();
    let ClusterResponse::Complete(hits) = settled else {
        unreachable!()
    };
    assert_eq!(bits(&hits), bits(&want), "post-storm probe diverged");
    assert_eq!(
        cluster.fingerprint(),
        expected_fp,
        "storm altered visible state"
    );
    all_pids.lock().unwrap().extend(supervisor.pids());
    assert_ne!(
        supervisor.pids(),
        initial_pids,
        "kills must have forced respawns"
    );
    if moves == 0 {
        eprintln!("process_chaos: warning: no rebalance completed this run");
    }

    // Phase B: fold-ins racing kills. An acked fold-in must survive any
    // later kill (journal before ack); an errored one may or may not have
    // been journaled — but never anything else.
    let killer_b = {
        let supervisor = Arc::clone(&supervisor);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_c = Arc::clone(&stop);
        let all_pids = Arc::clone(&all_pids);
        let mut rng = lsi_repro::linalg::rng::seeded(seed.wrapping_add(9));
        let handle = std::thread::spawn(move || {
            while !stop_c.load(Ordering::Relaxed) {
                let shard = rng.gen_range(0..SHARDS);
                supervisor.kill_shard(shard).expect("kill_shard");
                std::thread::sleep(Duration::from_millis(120));
                all_pids.lock().unwrap().extend(supervisor.pids());
            }
        });
        (handle, stop)
    };
    let mut rng = lsi_repro::linalg::rng::seeded(seed.wrapping_add(3));
    let mut acked: Vec<u64> = Vec::new();
    let mut errored = 0usize;
    for _ in 0..30 {
        let terms: Vec<(usize, f64)> = (0..3)
            .map(|_| (rng.gen_range(0..n_terms), rng.gen_range(0.5..2.0)))
            .collect();
        match cluster.add_document(&terms) {
            Ok(gid) => acked.push(gid),
            Err(_) => errored += 1,
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let (killer_handle, killer_stop) = killer_b;
    killer_stop.store(true, Ordering::Relaxed);
    killer_handle.join().expect("phase B killer must not panic");

    // Settle again: adoption makes journaled-but-unacked fold-ins
    // visible. Exactly-once accounting over the final fingerprint.
    let _ = settle_by_killing_everything(&supervisor, &cluster, &probe);
    let fp_final = cluster.fingerprint();
    let present: BTreeSet<u64> = fp_final.keys().copied().collect();
    let base: BTreeSet<u64> = expected_fp.keys().copied().collect();
    for gid in &acked {
        assert!(
            present.contains(gid),
            "acked fold-in {gid} vanished (journal-before-ack violated)"
        );
    }
    for gid in &base {
        assert!(present.contains(gid), "base document {gid} vanished");
    }
    let explained: BTreeSet<u64> = base
        .union(&acked.iter().copied().collect())
        .copied()
        .collect();
    let surplus: Vec<u64> = present.difference(&explained).copied().collect();
    assert!(
        surplus.len() <= errored,
        "{} unexplained documents {surplus:?} but only {errored} uncertain fold-in(s)",
        surplus.len()
    );
    let live_answer = match cluster.query(probe.clone()).expect("final probe") {
        ClusterResponse::Complete(hits) => bits(&hits),
        other => panic!("settled cluster must answer Complete, got {other:?}"),
    };

    // Teardown hygiene: clean shutdown reaps every child and removes
    // every socket file; no pid we ever observed may linger as a zombie.
    let supervisor =
        Arc::try_unwrap(supervisor).unwrap_or_else(|_| panic!("supervisor handles leaked"));
    supervisor.shutdown();
    for pid in all_pids.lock().unwrap().iter() {
        assert_not_our_zombie(*pid);
    }
    let socks = files_with_ext(&dir, "sock");
    assert!(socks.is_empty(), "stale socket files survived: {socks:?}");

    // The in-process reopen of the same directory must agree bit for bit
    // with what the cross-process cluster last served.
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("all cluster handles must have been dropped"),
    }
    let (reopened, reports) = Cluster::open(&dir, storm_config()).expect("in-process reopen");
    assert_eq!(reports.len(), SHARDS);
    assert_eq!(
        reopened.fingerprint(),
        fp_final,
        "in-process reopen fingerprint diverged from the cross-process cluster"
    );
    match reopened.query(probe.clone()).expect("post-reopen probe") {
        ClusterResponse::Complete(hits) => assert_eq!(bits(&hits), live_answer),
        other => panic!("reopened cluster must answer Complete, got {other:?}"),
    }
    reopened.shutdown();
    let tmps = files_with_ext(&dir, "tmp");
    assert!(tmps.is_empty(), "stale tmp files survived: {tmps:?}");
    let _ = std::fs::remove_dir_all(&dir);
    println!("process_chaos: storm ok ({total} queries, {kills} kills, {moves} moves, {} acked fold-ins, {errored} uncertain)", acked.len());
}

/// The stale-socket sweep: SIGKILL leaves the socket path on disk; a
/// respawned daemon on the same path must unlink it and bind fresh, and a
/// relaunched supervisor must adopt-or-respawn the whole directory.
fn respawn_after_kill_sweeps_stale_socket() {
    let seed = chaos_seed().wrapping_add(100);
    let dir = temp_dir("stale_socket");
    let td = corpus(seed);
    let reference = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
    let mut config = storm_config();
    config.shards = 2;
    Cluster::create(&reference, &dir, config.clone())
        .expect("create shard layout")
        .shutdown();

    let (cluster, supervisor) = ShardSupervisor::launch(
        &dir,
        config.clone(),
        supervisor_command(),
        SupervisorConfig::default(),
    )
    .expect("launch daemons");
    assert_eq!(files_with_ext(&dir, "sock").len(), 2);

    // Kill shard 0 and immediately drop the supervisor without a clean
    // shutdown: the socket file is left behind, exactly the residue a
    // crashed host leaves. (Drop still reaps, so no zombies.)
    supervisor.kill_shard(0).expect("kill_shard");
    let pids = supervisor.pids();
    drop(supervisor);
    // Daemon 1 was SIGKILLed by Drop, daemon 0 by the kill above: both
    // socket paths are now stale files with no listener.
    assert_eq!(
        files_with_ext(&dir, "sock").len(),
        2,
        "kill -9 must leave the socket paths behind"
    );
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("all cluster handles must have been dropped"),
    }

    // Relaunch over the stale paths: hello fails (no listener), fresh
    // daemons spawn, and their startup sweep unlinks the leftovers so
    // bind succeeds — the reopen-after-kill proof.
    let (cluster, supervisor) = ShardSupervisor::launch(
        &dir,
        config.clone(),
        supervisor_command(),
        SupervisorConfig::default(),
    )
    .expect("relaunch over stale sockets");
    let probe = Query::new(vec![(0, 1.0), (5, 0.5)], reference.n_docs());
    match cluster.query(probe.clone()).expect("post-relaunch probe") {
        ClusterResponse::Complete(hits) => {
            let want = reference
                .try_query(&probe.terms, probe.top_k, None)
                .unwrap();
            assert_eq!(bits(&hits), bits(&want), "relaunched answer diverged");
        }
        other => panic!("relaunched cluster must answer Complete, got {other:?}"),
    }
    supervisor.shutdown();
    for pid in pids {
        assert_not_our_zombie(pid);
    }
    assert!(
        files_with_ext(&dir, "sock").is_empty(),
        "clean shutdown must remove socket files"
    );
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("all cluster handles must have been dropped"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("process_chaos: stale-socket sweep ok");
}

/// The incarnation-isolation proof: a respawn binds a *fresh* socket
/// path, so a transport created for the dead incarnation — which connects
/// by path, per RPC — can never reach the replacement daemon. Without
/// this, a scatter racing the respawn window (new daemon bound, swap not
/// yet installed) could map the replayed daemon's answers through the
/// coordinator's stale id map — wrong bits in a `Complete` answer when a
/// kill had swallowed a retire ack.
fn respawn_never_reuses_a_socket_path() {
    let seed = chaos_seed().wrapping_add(200);
    let dir = temp_dir("incarnation_socket");
    let td = corpus(seed);
    let reference = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
    let mut config = storm_config();
    config.shards = 2;
    Cluster::create(&reference, &dir, config.clone())
        .expect("create shard layout")
        .shutdown();

    let (cluster, supervisor) = ShardSupervisor::launch(
        &dir,
        config.clone(),
        supervisor_command(),
        SupervisorConfig::default(),
    )
    .expect("launch daemons");

    // Incarnation 0 answers on the base path.
    let old_socket = dir.join("shard-000.sock");
    let stale = RemoteShard::new(old_socket.clone(), Duration::from_secs(1));
    stale
        .ping()
        .expect("incarnation 0 must answer on the base path");

    // Explicit respawn: the replacement must come up on a fresh path and
    // the base path must be gone — connects through the stale transport
    // must fail rather than reach the new incarnation.
    supervisor.respawn_shard(0).expect("respawn shard 0");
    assert!(
        !old_socket.exists(),
        "respawn must remove the dead incarnation's socket file"
    );
    stale
        .ping()
        .expect_err("a stale transport must not reach the respawned incarnation");
    let gen1 = dir.join("shard-000.g1.sock");
    assert!(gen1.exists(), "respawn must bind shard-000.g1.sock");

    // The heartbeat-driven respawn burns paths the same way: SIGKILL the
    // gen-1 daemon and wait for gen-2 to appear.
    supervisor.kill_shard(0).expect("kill_shard");
    let gen2 = dir.join("shard-000.g2.sock");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !gen2.exists() {
        assert!(
            Instant::now() < deadline,
            "heartbeat never respawned onto shard-000.g2.sock"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        !gen1.exists(),
        "heartbeat respawn must remove the gen-1 socket file"
    );

    // Through the coordinator, the answer is still bitwise the reference.
    let probe = Query::new(vec![(0, 1.0), (5, 0.5)], reference.n_docs());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match cluster.query(probe.clone()).expect("post-respawn probe") {
            ClusterResponse::Complete(hits) => {
                let want = reference
                    .try_query(&probe.terms, probe.top_k, None)
                    .unwrap();
                assert_eq!(bits(&hits), bits(&want), "post-respawn answer diverged");
                break;
            }
            // The swap may still be settling; Complete must return.
            ClusterResponse::Degraded { .. } => {
                assert!(
                    Instant::now() < deadline,
                    "cluster never answered Complete after the respawns"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    supervisor.shutdown();
    assert!(
        files_with_ext(&dir, "sock").is_empty(),
        "clean shutdown must remove every incarnation's socket file"
    );
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("all cluster handles must have been dropped"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("process_chaos: incarnation socket isolation ok");
}

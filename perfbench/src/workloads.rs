//! The three workloads. Each one times only its own work, checks every
//! answer it can without adding timed work, and records its metrics under
//! the names `BENCHMARK.json` lists. A traced run then replays the
//! per-layer probes of [`crate::probes`].

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsi_core::{LazySnapshot, LsiIndex};
use lsi_corpus::{GeneratedCorpus, SeparableModel};
use lsi_serve::cluster::{Cluster, ClusterConfig, ClusterResponse};
use lsi_serve::{DaemonCommand, EngineConfig, Query, ShardSupervisor, SupervisorConfig};

use crate::measure::{median, percentile, sorted, tail_percentile};
use crate::workload::{
    bits, build_on_disk, closed_loop, corpus_model, op_mix, sample_corpus, warmup_queries, LoopRun,
    Op, Outcome, CLIENTS, COLD_TOP_K, SETUPS, SHARDS,
};
use crate::{probes, procfs, Run};

/// One worker per shard engine (and per daemon) and no coalescing: with
/// two clients, the two cores of the reference host are never
/// oversubscribed.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        queue_capacity: 64,
        deadline: None,
        soft_deadline: None,
        fault_hook: None,
        max_batch: 1,
    }
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        shards: SHARDS,
        engine: engine_config(),
        soft_deadline: None,
        hard_deadline: Duration::from_secs(10),
        ..ClusterConfig::default()
    }
}

fn supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        workers: 1,
        rpc_timeout: Duration::from_secs(10),
        connect_timeout: Duration::from_secs(60),
        ..SupervisorConfig::default()
    }
}

/// A run's set-up, build and cold-open timings.
#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    cold_ms: Vec<f64>,
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The eager index's own answer: the reference every surface must match.
fn eager_answer(index: &LsiIndex, op: &Op) -> Outcome {
    match op {
        Op::Query { terms, top_k } => match index.try_query(terms, *top_k, None) {
            Ok(list) => Outcome::Answer(bits(&list)),
            Err(e) => Outcome::Failed(e.to_string()),
        },
        Op::Write { .. } => Outcome::Failed("writes need a cluster".to_owned()),
    }
}

/// A cluster's answer. Anything but a complete answer or an acknowledged
/// write is a failure.
fn cluster_answer(cluster: &Cluster, op: &Op) -> Outcome {
    match op {
        Op::Query { terms, top_k } => match cluster.query(Query::new(terms.clone(), *top_k)) {
            Ok(ClusterResponse::Complete(list)) => Outcome::Answer(bits(&list)),
            Ok(ClusterResponse::Degraded { reason, .. }) => {
                Outcome::Failed(format!("degraded answer: {reason}"))
            }
            Err(e) => Outcome::Failed(e.to_string()),
        },
        Op::Write { terms } => match cluster.add_document(terms) {
            Ok(gid) => Outcome::Written(gid),
            Err(e) => Outcome::Failed(e.to_string()),
        },
    }
}

/// Whether `outcome` is, bit for bit, `index`'s answer to query `op`.
fn matches_eager(index: &LsiIndex, op: &Op, outcome: &Outcome) -> bool {
    match (op, outcome) {
        (Op::Query { terms, top_k }, Outcome::Answer(got)) => index
            .try_query(terms, *top_k, None)
            .is_ok_and(|list| &bits(&list) == got),
        _ => false,
    }
}

/// Checks the answers to the probe queries `ops` against `reference`.
fn check_probes(run: &mut Run, reference: &LsiIndex, ops: &[Op], answers: &[Outcome], when: &str) {
    let wrong = ops
        .iter()
        .zip(answers)
        .filter(|&(op, answer)| !matches_eager(reference, op, answer))
        .count();
    run.check(wrong == 0, || {
        format!("{wrong} probe answers {when} differ from the reference index")
    });
}

/// Cold open → first answer per query: `LazySnapshot::open_path` plus
/// `query_streaming` (top 10), timed. Each streamed answer is checked
/// against the eager index after its timing ends.
fn cold_answers(run: &mut Run, snapshot: &Path, index: &LsiIndex, ops: &[Op]) -> Vec<f64> {
    let mut ms = Vec::with_capacity(ops.len());
    for op in ops {
        let Op::Query { terms, .. } = op else {
            continue;
        };
        run.attempted += 1;
        let start = Instant::now();
        let streamed = LazySnapshot::open_path(snapshot)
            .and_then(|mut snap| snap.query_streaming(terms, COLD_TOP_K));
        let took = seconds_since(start) * 1e3;
        match streamed {
            Ok(list) => {
                ms.push(took);
                let cold = Op::Query {
                    terms: terms.clone(),
                    top_k: COLD_TOP_K,
                };
                let same = matches_eager(index, &cold, &Outcome::Answer(bits(&list)));
                run.check(same, || {
                    "a streamed answer differs from the eager one".to_owned()
                });
            }
            Err(e) => run.fail(&format!("cold open: {e}")),
        }
    }
    ms
}

/// The start of every serving set-up: sample the corpus, build and write
/// the snapshot (one `build_s` sample) and cold-open it (`cold_ms`
/// samples).
fn build_stage(
    run: &mut Run,
    model: &SeparableModel,
    snapshot: &Path,
    warm: &[Op],
    samples: &mut Samples,
) -> Result<(LsiIndex, GeneratedCorpus), String> {
    let corpus = sample_corpus(model, run.seed, run.scale.docs);
    let (index, took) = build_on_disk(&corpus, snapshot)?;
    run.attempted += 1;
    samples.build_s.push(took);
    let opens = run.scale.setup_cold_opens.min(warm.len());
    let cold = cold_answers(run, snapshot, &index, &warm[..opens]);
    samples.cold_ms.extend(cold);
    Ok((index, corpus))
}

/// Counts the loop's operations and records `qps`, `query_p50_ms` and
/// `query_p99_ms`; a traced run also records the loop's spans and
/// `trace.qps_delta`. Returns the number of answered queries.
fn record_loop(run: &mut Run, ops: &[Op], lp: &LoopRun) -> Result<usize, String> {
    let mut latencies = Vec::with_capacity(lp.done.len());
    for done in &lp.done {
        run.attempted += 1;
        match &done.outcome {
            Outcome::Answer(_) => latencies.push(done.ms),
            Outcome::Written(_) => {}
            Outcome::Failed(why) => run.fail(why),
        }
    }
    let latencies = sorted(latencies);
    let n = latencies.len();
    let p99 = percentile(&latencies, 99.0)
        .ok_or_else(|| format!("a p99 needs 1000 answered queries; the loop answered {n}"))?;
    let p50 = median(&latencies);
    run.metrics.put("qps", n as f64 / lp.wall_s, "1/s");
    run.metrics.put("query_p50_ms", p50, "ms");
    run.metrics.put("query_p99_ms", p99, "ms");
    println!(
        "# loop: {} operations, {n} answered queries in {:.3} s; p50 {p50:.3} ms, p99 {p99:.3} ms; \
         {n} samples support up to p{}",
        lp.done.len(),
        lp.wall_s,
        tail_percentile(n).unwrap_or(50.0)
    );
    if run.trace {
        // Traced and untraced blocks of the loop alternate; each kind's
        // rate is its answered queries over its busy client time.
        let rate = |traced: bool| {
            let (count, ms) = lp
                .done
                .iter()
                .filter(|d| d.traced == traced && matches!(d.outcome, Outcome::Answer(_)))
                .fold((0usize, 0.0f64), |(c, t), d| (c + 1, t + d.ms));
            if ms > 0.0 {
                CLIENTS as f64 * count as f64 * 1e3 / ms
            } else {
                0.0
            }
        };
        run.metrics
            .put("trace.qps_delta", rate(true) - rate(false), "1/s");
        for &(op, start, end) in &lp.spans {
            let name = match ops[op] {
                Op::Query { .. } => "loop.query",
                Op::Write { .. } => "loop.write",
            };
            let req = run.tracer.request();
            run.tracer.record(req, None, name, start, end);
        }
    }
    Ok(n)
}

/// Records the end-to-end metrics every workload shares.
fn put_common(
    run: &mut Run,
    samples: &Samples,
    peak_rss_bytes: u64,
    store_bytes: u64,
) -> Result<(), String> {
    if samples.setup_s.is_empty() || samples.build_s.is_empty() || samples.cold_ms.is_empty() {
        return Err("a set-up, build or cold open produced no sample".to_owned());
    }
    println!(
        "# samples: {} set-ups, {} builds, {} cold opens",
        samples.setup_s.len(),
        samples.build_s.len(),
        samples.cold_ms.len()
    );
    let succeeded = run.attempted.saturating_sub(run.failed) as f64;
    let values = [
        ("setup_s", median(&samples.setup_s), "s"),
        ("build_s", median(&samples.build_s), "s"),
        ("cold_first_answer_ms", median(&samples.cold_ms), "ms"),
        ("peak_rss_mb", peak_rss_bytes as f64 / 1e6, "MB"),
        ("store_mb", store_bytes as f64 / 1e6, "MB"),
        ("success_frac", succeeded / run.attempted.max(1) as f64, "1"),
    ];
    for (name, value, unit) in values {
        run.metrics.put(name, value, unit);
    }
    Ok(())
}

fn cpu_per_query(
    run: &mut Run,
    before: procfs::ProcSample,
    after: procfs::ProcSample,
    queries: usize,
) {
    let per_query = (after.cpu_ms - before.cpu_ms) / queries.max(1) as f64;
    run.metrics.put("proc.cpu_ms_per_query", per_query, "ms");
}

/// Failure, hedge and shed counts from `Cluster::stats`.
fn cluster_stats(run: &mut Run, cluster: &Cluster) {
    let stats = cluster.stats();
    let failures: u64 = stats.shards.iter().map(|row| row.failures).sum();
    let hedges: u64 = stats.shards.iter().map(|row| row.hedges).sum();
    let shed: u64 = stats.shards.iter().map(|row| row.engine.shed).sum();
    run.metrics
        .put("serve.cluster.shard_failures", failures as f64, "count");
    run.metrics
        .put("serve.cluster.hedges", hedges as f64, "count");
    run.metrics.put("serve.engine.shed", shed as f64, "count");
}

/// Checks every answer of the loop against `LsiIndex::try_query` after
/// the timed phase, on one thread per client.
fn verify_loop(run: &mut Run, index: &LsiIndex, ops: &[Op], lp: &LoopRun) {
    let chunk = lp.done.len().div_ceil(CLIENTS).max(1);
    let wrong: usize = std::thread::scope(|scope| {
        let checkers: Vec<_> = lp
            .done
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter(|d| {
                            matches!(d.outcome, Outcome::Answer(_))
                                && !matches_eager(index, &ops[d.op], &d.outcome)
                        })
                        .count()
                })
            })
            .collect();
        checkers
            .into_iter()
            .map(|c| c.join().expect("answer checker panicked"))
            .sum()
    });
    run.check(wrong == 0, || {
        format!("{wrong} loop answers differ from LsiIndex::try_query")
    });
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Bytes of the regular files directly under `dir`: snapshots and
/// journals, not sockets.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .filter(|meta| meta.is_file())
        .map(|meta| meta.len())
        .sum()
}

/// Whether two builds produced the same factors and rows, bit for bit.
fn same_index(a: &LsiIndex, b: &LsiIndex) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.iter()
            .map(|v| v.to_bits())
            .eq(y.iter().map(|v| v.to_bits()))
    };
    a.n_docs() == b.n_docs()
        && same(a.singular_values(), b.singular_values())
        && (0..a.n_docs()).all(|j| same(a.doc_vector(j), b.doc_vector(j)))
}

/// `index-100k`: the set-up samples the corpus; the timed work is corpus →
/// fsynced index, cold open → first answer, and a closed loop over the
/// eager index. Nothing here runs in lsi-serve.
pub fn index_100k(run: &mut Run) -> Result<(), String> {
    let scale = run.scale;
    let model = corpus_model();
    let mut samples = Samples::default();
    let mut corpus = None;
    for _ in 0..SETUPS {
        drop(corpus.take());
        let start = Instant::now();
        corpus = Some(sample_corpus(&model, run.seed, scale.docs));
        samples.setup_s.push(seconds_since(start));
    }
    let corpus = corpus.ok_or("no set-up ran")?;

    let snapshot = run.dir.join("index.lsix");
    let mut index: Option<LsiIndex> = None;
    for _ in 0..scale.builds {
        let (built, took) = build_on_disk(&corpus, &snapshot)?;
        run.attempted += 1;
        samples.build_s.push(took);
        if let Some(previous) = &index {
            let same = same_index(previous, &built);
            run.check(same, || "two builds of one corpus differ".to_owned());
        }
        index = Some(built);
    }
    let index = index.ok_or("no build ran")?;

    let ops = op_mix(model.model(), run.seed, scale.loop_ops, false);
    samples.cold_ms = cold_answers(
        run,
        &snapshot,
        &index,
        &ops[..scale.cold_opens.min(ops.len())],
    );

    for op in &warmup_queries(model.model(), run.seed) {
        let _ = eager_answer(&index, op);
    }
    let before = procfs::sample(None);
    let lp = closed_loop(&ops, run.trace, |op| eager_answer(&index, op));
    let after = procfs::sample(None);
    let short = lp
        .done
        .iter()
        .filter(|d| match (&ops[d.op], &d.outcome) {
            (Op::Query { top_k, .. }, Outcome::Answer(hits)) => {
                hits.len() != (*top_k).min(index.n_docs())
            }
            _ => false,
        })
        .count();
    run.check(short == 0, || {
        format!("{short} eager answers hold the wrong number of hits")
    });
    let queries = record_loop(run, &ops, &lp)?;
    cpu_per_query(run, before, after, queries);
    put_common(
        run,
        &samples,
        procfs::sample(None).peak_rss_bytes,
        file_len(&snapshot),
    )?;

    if run.trace {
        probes::build_layers(run, &corpus)?;
        probes::lazy_layers(run, &snapshot, &index, &ops)?;
        probes::scoring_layers(run, &index, &ops)?;
        probes::unloaded(run, &ops, |op| eager_answer(&index, op))?;
    }
    Ok(())
}

/// `serve-100k`: the set-up builds the index and an in-process 2-shard
/// cluster; the timed work is a read-only closed loop of `Cluster::query`.
pub fn serve_100k(run: &mut Run) -> Result<(), String> {
    let model = corpus_model();
    let warm = warmup_queries(model.model(), run.seed);
    let snapshot = run.dir.join("index.lsix");
    let mut samples = Samples::default();
    let mut live: Option<(LsiIndex, Cluster, Option<GeneratedCorpus>)> = None;
    for _ in 0..SETUPS {
        if let Some((_, cluster, _)) = live.take() {
            cluster.shutdown();
        }
        let start = Instant::now();
        let (index, corpus) = build_stage(run, &model, &snapshot, &warm, &mut samples)?;
        let cluster =
            Cluster::build(&index, cluster_config()).map_err(|e| format!("cluster build: {e}"))?;
        let answers: Vec<Outcome> = warm.iter().map(|op| cluster_answer(&cluster, op)).collect();
        samples.setup_s.push(seconds_since(start));
        check_probes(run, &index, &warm, &answers, "before the loop");
        live = Some((index, cluster, run.trace.then_some(corpus)));
    }
    let (index, cluster, corpus) = live.ok_or("no set-up ran")?;

    let ops = op_mix(model.model(), run.seed, run.scale.loop_ops, false);
    let before = procfs::sample(None);
    let lp = closed_loop(&ops, run.trace, |op| cluster_answer(&cluster, op));
    let after = procfs::sample(None);
    let queries = record_loop(run, &ops, &lp)?;
    cpu_per_query(run, before, after, queries);
    verify_loop(run, &index, &ops, &lp);
    cluster_stats(run, &cluster);
    put_common(
        run,
        &samples,
        procfs::sample(None).peak_rss_bytes,
        file_len(&snapshot),
    )?;

    if run.trace {
        if let Some(corpus) = &corpus {
            probes::build_layers(run, corpus)?;
        }
        probes::lazy_layers(run, &snapshot, &index, &ops)?;
        probes::scoring_layers(run, &index, &ops)?;
        probes::unloaded(run, &ops, |op| cluster_answer(&cluster, op))?;
    }
    cluster.shutdown();
    Ok(())
}

/// A cross-process cluster and everything torn down with it.
struct Served {
    index: LsiIndex,
    corpus: Option<GeneratedCorpus>,
    dir: PathBuf,
    cluster: Arc<Cluster>,
    supervisor: ShardSupervisor,
}

impl Served {
    /// Stops the daemons (a clean shutdown RPC, then kill and reap), the
    /// coordinator, and removes the shard directory.
    fn shutdown(self) {
        self.supervisor.shutdown();
        if let Ok(cluster) = Arc::try_unwrap(self.cluster) {
            cluster.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `serve-100k-rpc-mixed`: the set-up builds the index, writes a durable
/// 2-shard cluster and launches one daemon per shard (this binary,
/// re-exec'd); the timed work is a closed loop with one journaled
/// `Cluster::add_document` per four `Cluster::query` calls.
pub fn serve_rpc(run: &mut Run) -> Result<(), String> {
    let model = corpus_model();
    let warm = warmup_queries(model.model(), run.seed);
    let snapshot = run.dir.join("index.lsix");
    let program = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut samples = Samples::default();
    let (mut create_ms, mut launch_ms) = (Vec::new(), Vec::new());
    let mut live: Option<Served> = None;
    for i in 0..SETUPS {
        if let Some(previous) = live.take() {
            previous.shutdown();
        }
        let start = Instant::now();
        let (index, corpus) = build_stage(run, &model, &snapshot, &warm, &mut samples)?;
        let dir = run.dir.join(format!("cluster-{i}"));
        let created = Instant::now();
        Cluster::create(&index, &dir, cluster_config())
            .map_err(|e| format!("cluster create: {e}"))?
            .shutdown();
        create_ms.push(seconds_since(created) * 1e3);
        let launched = Instant::now();
        let command = DaemonCommand::new(program.clone(), vec!["shard-daemon".to_owned()]);
        let (cluster, supervisor) =
            ShardSupervisor::launch(&dir, cluster_config(), command, supervisor_config())
                .map_err(|e| format!("daemon launch: {e}"))?;
        launch_ms.push(seconds_since(launched) * 1e3);
        let answers: Vec<Outcome> = warm.iter().map(|op| cluster_answer(&cluster, op)).collect();
        samples.setup_s.push(seconds_since(start));
        check_probes(run, &index, &warm, &answers, "before the loop");
        live = Some(Served {
            index,
            corpus: run.trace.then_some(corpus),
            dir,
            cluster,
            supervisor,
        });
    }
    let served = live.ok_or("no set-up ran")?;
    run.metrics
        .put("serve.cluster.create_ms", median(&create_ms), "ms");
    run.metrics
        .put("serve.supervisor.launch_ms", median(&launch_ms), "ms");
    let timed = serve_rpc_timed(run, &model, &warm, &snapshot, &served, &samples);
    served.shutdown();
    timed
}

/// The timed part of `serve-100k-rpc-mixed` and its checks, run against a
/// launched cluster that the caller tears down whatever happens here.
fn serve_rpc_timed(
    run: &mut Run,
    model: &SeparableModel,
    warm: &[Op],
    snapshot: &Path,
    served: &Served,
    samples: &Samples,
) -> Result<(), String> {
    let ops = op_mix(model.model(), run.seed, run.scale.loop_ops, true);
    let cluster = served.cluster.as_ref();
    let pids = served.supervisor.pids();
    let (own_before, daemons_before) = (procfs::sample(None), procfs::sample_all(&pids));
    let lp = closed_loop(&ops, run.trace, |op| cluster_answer(cluster, op));
    let (own_after, daemons_after) = (procfs::sample(None), procfs::sample_all(&pids));
    let queries = record_loop(run, &ops, &lp)?;
    cpu_per_query(run, own_before, own_after, queries);
    let per_query = queries.max(1) as f64;
    let wchar = daemons_after.wchar.saturating_sub(daemons_before.wchar) as f64;
    run.metrics
        .put("serve.daemon.wchar_per_query", wchar / per_query, "B");
    let daemon_cpu = daemons_after.cpu_ms - daemons_before.cpu_ms;
    run.metrics.put(
        "serve.daemon.cpu_ms_per_query",
        daemon_cpu / per_query,
        "ms",
    );

    let mut acked: Vec<(u64, usize, f64)> = lp
        .done
        .iter()
        .filter_map(|d| match d.outcome {
            Outcome::Written(gid) => Some((gid, d.op, d.ms)),
            _ => None,
        })
        .collect();
    if acked.is_empty() {
        return Err("no write was acknowledged".to_owned());
    }
    let write_ms: Vec<f64> = acked.iter().map(|&(_, _, ms)| ms).collect();
    run.metrics
        .put("serve.cluster.write_p50_ms", median(&write_ms), "ms");

    // The acknowledged writes, folded into a reference in global-id order.
    acked.sort_by_key(|&(gid, _, _)| gid);
    let mut reference = served.index.clone();
    let mut consecutive = true;
    for &(gid, op, _) in &acked {
        consecutive &= usize::try_from(gid).is_ok_and(|g| g == reference.n_docs());
        if let Op::Write { terms } = &ops[op] {
            reference
                .try_add_document(terms)
                .map_err(|e| format!("reference fold-in: {e}"))?;
        }
    }
    run.check(consecutive, || {
        "acknowledged writes do not hold consecutive global ids".to_owned()
    });
    let expected = served.index.n_docs() + acked.len();
    let held = cluster.n_docs();
    run.check(held == expected, || {
        format!("the cluster holds {held} documents, expected {expected}")
    });
    let answers: Vec<Outcome> = warm.iter().map(|op| cluster_answer(cluster, op)).collect();
    check_probes(run, &reference, warm, &answers, "after the loop");
    cluster_stats(run, cluster);

    let daemons = procfs::sample_all(&pids);
    run.metrics.put(
        "serve.daemon.rss_mb",
        daemons.peak_rss_bytes as f64 / 1e6,
        "MB",
    );
    let own = procfs::sample(None);
    put_common(
        run,
        samples,
        own.peak_rss_bytes + daemons.peak_rss_bytes,
        dir_bytes(&served.dir),
    )?;

    if run.trace {
        if let Some(corpus) = &served.corpus {
            probes::build_layers(run, corpus)?;
        }
        probes::lazy_layers(run, snapshot, &served.index, &ops)?;
        probes::scoring_layers(run, &served.index, &ops)?;
        probes::unloaded(run, &ops, |op| cluster_answer(cluster, op))?;
        probes::transport_layers(run, &served.dir, &served.index, &ops)?;
        probes::journal_layers(run, &served.dir, &served.index)?;
    }
    Ok(())
}

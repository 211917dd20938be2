#![forbid(unsafe_code)]
//! Sharded serving baseline: query latency percentiles and throughput for
//! the scatter-gather cluster at 1, 2, and 4 shards, written as JSON.
//!
//! ```text
//! serve-json [--out PATH] [--smoke] [--process] [--seed S]
//! ```
//!
//! Emits `BENCH_serve.json` (at the repo root by default) with one record
//! per shard count: p50/p99 per-query latency in microseconds and queries
//! per second under a fixed number of submitter threads, over a
//! seed-deterministic query load. Before timing, every shard count's
//! answers are checked bitwise against the 1-shard cluster on a probe set
//! — the JSON records that the partitioning is answer-invariant, so a
//! throughput win can never be a silent correctness loss.
//!
//! `--process` adds cross-process rows: the same shard counts served by
//! real `shard-serve` daemon children (this binary re-execs itself as the
//! daemon entry point) behind the Unix-socket RPC transport, with the
//! same bitwise gate against the in-process 1-shard reference before any
//! timing — so the socket hop's cost is measured, never a divergence.
//!
//! `--smoke` shrinks the corpus and query count so CI can verify the path
//! end-to-end in well under a second.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsi_core::{LsiConfig, LsiIndex};
use lsi_corpus::{SeparableConfig, SeparableModel};
use lsi_ir::TermDocumentMatrix;
use lsi_linalg::rng::seeded;
use lsi_serve::cluster::{Cluster, ClusterConfig, ClusterResponse};
use lsi_serve::{
    run_shard_daemon, DaemonCommand, EngineConfig, Query, ShardDaemonConfig, ShardSupervisor,
    SupervisorConfig,
};
use rand::Rng;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const SUBMITTERS: usize = 4;

struct Args {
    out: String,
    smoke: bool,
    process: bool,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut out = "BENCH_serve.json".to_owned();
    let mut smoke = false;
    let mut process = false;
    let mut seed = 20260706u64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().ok_or("--out needs a value")?,
            "--smoke" => smoke = true,
            "--process" => process = true,
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--help" | "-h" => {
                println!("usage: serve-json [--out PATH] [--smoke] [--process] [--seed S]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        out,
        smoke,
        process,
        seed,
    })
}

/// The re-exec'd daemon entry point: `serve-json shard-daemon --snapshot …
/// --socket …` serves one shard over the Unix-socket RPC protocol, exactly
/// as `lsi shard-serve` does (the supervisor spawns this very binary so
/// the bench needs no other executable built).
///
/// # Panics
/// Panics on unknown or missing flags — the only caller is the supervisor,
/// whose argument list is fixed, so a mismatch is a programmer error.
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

/// Builds the benchmark index from a seed-deterministic separable corpus.
///
/// # Panics
/// Panics if the hard-coded corpus parameters become infeasible (a
/// programmer error caught immediately at startup, never a data-dependent
/// failure).
fn build_index(seed: u64, docs: usize) -> LsiIndex {
    let model = SeparableModel::build(SeparableConfig {
        universe_size: 120,
        num_topics: 4,
        primary_terms_per_topic: 30,
        epsilon: 0.05,
        min_doc_len: 20,
        max_doc_len: 40,
    })
    .expect("feasible corpus config");
    let mut rng = seeded(seed);
    let corpus = model.model().sample_corpus(docs, &mut rng);
    let td = TermDocumentMatrix::from_generated(&corpus).expect("corpus fits universe");
    LsiIndex::build(&td, LsiConfig::with_rank(4)).expect("feasible rank")
}

fn generate_queries(seed: u64, total: usize, n_terms: usize) -> Vec<Query> {
    let mut rng = seeded(seed.wrapping_add(0x5e12e));
    (0..total)
        .map(|_| {
            let terms: Vec<(usize, f64)> = (0..rng.gen_range(1usize..=4))
                .map(|_| (rng.gen_range(0..n_terms), rng.gen_range(0.5..2.0)))
                .collect();
            Query::new(terms, rng.gen_range(1usize..=10))
        })
        .collect()
}

fn cluster_config(shards: usize) -> ClusterConfig {
    ClusterConfig {
        shards,
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 4096,
            deadline: None,
            soft_deadline: None,
            ..EngineConfig::default()
        },
        soft_deadline: None,
        hard_deadline: Duration::from_secs(5),
        ..ClusterConfig::default()
    }
}

fn response_bits(response: &ClusterResponse) -> Vec<(usize, u64)> {
    response
        .hits()
        .hits()
        .iter()
        .map(|h| (h.doc, h.score.to_bits()))
        .collect()
}

struct Record {
    shards: usize,
    p50_us: f64,
    p99_us: f64,
    qps: f64,
    bitwise_equal_to_1_shard: bool,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

/// Drives the load through one cluster and measures per-query latency.
///
/// # Panics
/// Panics if a query against the healthy benchmark cluster fails or a
/// submitter thread dies — programmer errors in the bench itself, never
/// data-dependent failures.
fn run_load(cluster: &Arc<Cluster>, queries: &Arc<Vec<Query>>) -> (Vec<f64>, f64) {
    let chunk = queries.len().div_ceil(SUBMITTERS);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let cluster = Arc::clone(cluster);
            let queries = Arc::clone(queries);
            // lsi-lint: allow(P1-raw-threads, "bench load generators: submitters race wall-clock queries, not deterministic kernel work")
            std::thread::spawn(move || {
                let lo = (t * chunk).min(queries.len());
                let hi = (lo + chunk).min(queries.len());
                let mut latencies = Vec::with_capacity(hi - lo);
                for q in &queries[lo..hi] {
                    let q0 = Instant::now();
                    cluster.query(q.clone()).expect("healthy cluster query");
                    latencies.push(q0.elapsed().as_secs_f64() * 1e6);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("submitter thread"))
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (latencies, queries.len() as f64 / wall)
}

/// Measures one shard count served by real daemon child processes: a
/// durable cluster layout is written to a scratch directory, a
/// [`ShardSupervisor`] spawns one `shard-daemon` child per shard (this
/// binary, re-exec'd), probe answers are verified bitwise against the
/// in-process reference, and only then is the load timed.
///
/// # Panics
/// Panics if a probe query against the healthy, supervised cluster fails —
/// a programmer error in the bench itself, never a data-dependent failure.
fn run_process_load(
    index: &LsiIndex,
    queries: &Arc<Vec<Query>>,
    probes: usize,
    probe_bits: &[Vec<(usize, u64)>],
    shards: usize,
    seed: u64,
) -> Result<Record, String> {
    let dir = std::env::temp_dir().join(format!("lsi-serve-json-process-{seed}-{shards}"));
    let _ = std::fs::remove_dir_all(&dir);
    Cluster::create(index, &dir, cluster_config(shards))
        .map_err(|e| e.to_string())?
        .shutdown();
    let program = std::env::current_exe().map_err(|e| format!("cannot locate serve-json: {e}"))?;
    let command = DaemonCommand::new(program, vec!["shard-daemon".to_owned()]);
    let (cluster, supervisor) = ShardSupervisor::launch(
        &dir,
        cluster_config(shards),
        command,
        SupervisorConfig::default(),
    )
    .map_err(|e| format!("cannot launch shard daemons: {e}"))?;
    let bitwise_equal = queries
        .iter()
        .take(probes)
        .zip(probe_bits)
        .all(|(q, want)| {
            let response = cluster.query(q.clone()).expect("probe query");
            &response_bits(&response) == want
        });
    let (latencies, qps) = run_load(&cluster, queries);
    supervisor.shutdown();
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => return Err("cluster handles leaked past join".to_owned()),
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Record {
        shards,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        qps,
        bitwise_equal_to_1_shard: bitwise_equal,
    })
}

///
/// # Panics
/// Panics if the hard-coded benchmark parameters become infeasible (a
/// programmer error caught immediately at startup, never a data-dependent
/// failure).
fn main() -> Result<(), String> {
    // Re-exec dispatch: the supervisor spawns this very binary as the
    // shard daemon (see `run_daemon_child`).
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("shard-daemon") {
        run_daemon_child(&argv[2..]);
        return Ok(());
    }
    let args = parse_args()?;
    let (docs, total, probes) = if args.smoke {
        (40usize, 120usize, 20usize)
    } else {
        (240, 2_000, 200)
    };
    let index = build_index(args.seed, docs);
    let queries = Arc::new(generate_queries(args.seed, total, index.n_terms()));
    eprintln!(
        "serve-json: {} docs, {} terms, {} queries, shard counts {SHARD_COUNTS:?}",
        index.n_docs(),
        index.n_terms(),
        queries.len()
    );

    // Reference answers from the 1-shard cluster for the probe prefix.
    let reference = Cluster::build(&index, cluster_config(1)).map_err(|e| e.to_string())?;
    let probe_bits: Vec<Vec<(usize, u64)>> = queries
        .iter()
        .take(probes)
        .map(|q| {
            let response = reference.query(q.clone()).expect("reference query");
            response_bits(&response)
        })
        .collect();
    reference.shutdown();

    let mut records = Vec::new();
    for &shards in &SHARD_COUNTS {
        let cluster =
            Arc::new(Cluster::build(&index, cluster_config(shards)).map_err(|e| e.to_string())?);
        // Correctness first: the sharded answers must be bitwise the
        // 1-shard answers before any throughput number is recorded.
        let bitwise_equal = queries
            .iter()
            .take(probes)
            .zip(&probe_bits)
            .all(|(q, want)| {
                let response = cluster.query(q.clone()).expect("probe query");
                &response_bits(&response) == want
            });
        let (latencies, qps) = run_load(&cluster, &queries);
        let record = Record {
            shards,
            p50_us: percentile(&latencies, 0.50),
            p99_us: percentile(&latencies, 0.99),
            qps,
            bitwise_equal_to_1_shard: bitwise_equal,
        };
        eprintln!(
            "  shards={shards}  p50={:>8.1} us  p99={:>8.1} us  {:>8.0} q/s  bitwise_equal={}",
            record.p50_us, record.p99_us, record.qps, record.bitwise_equal_to_1_shard
        );
        match Arc::try_unwrap(cluster) {
            Ok(cluster) => cluster.shutdown(),
            Err(_) => return Err("cluster handles leaked past join".to_owned()),
        }
        records.push(record);
    }
    if records.iter().any(|r| !r.bitwise_equal_to_1_shard) {
        return Err("sharded answers diverged from the 1-shard reference".to_owned());
    }

    // Cross-process rows: the same shard counts behind real daemon
    // children and the socket RPC transport. Correctness first, as above —
    // a cross-process answer must be bitwise the in-process 1-shard answer
    // before the socket hop's cost is recorded.
    let mut process_records = Vec::new();
    if args.process {
        for &shards in &SHARD_COUNTS {
            let record =
                run_process_load(&index, &queries, probes, &probe_bits, shards, args.seed)?;
            eprintln!(
                "  process shards={shards}  p50={:>8.1} us  p99={:>8.1} us  {:>8.0} q/s  bitwise_equal={}",
                record.p50_us, record.p99_us, record.qps, record.bitwise_equal_to_1_shard
            );
            process_records.push(record);
        }
        if process_records.iter().any(|r| !r.bitwise_equal_to_1_shard) {
            return Err("cross-process answers diverged from the in-process reference".to_owned());
        }
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Hand-rolled JSON: the workspace is dependency-free by policy, and the
    // schema is flat enough that formatting it directly stays readable.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_logical_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"submitter_threads\": {SUBMITTERS},");
    let _ = writeln!(json, "  \"queries\": {},", queries.len());
    let _ = writeln!(json, "  \"corpus_docs\": {docs},");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(
        json,
        "  \"note\": \"answers verified bitwise-identical across shard counts before timing\","
    );
    json.push_str("  \"shard_counts\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shards\": {}, \"p50_latency_us\": {:.1}, \"p99_latency_us\": {:.1}, \"queries_per_sec\": {:.0}, \"bitwise_equal_to_1_shard\": {}}}",
            r.shards, r.p50_us, r.p99_us, r.qps, r.bitwise_equal_to_1_shard
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]");
    if !process_records.is_empty() {
        json.push_str(
            ",\n  \"cross_process_note\": \"same shard counts served by shard-serve daemon children over the Unix-socket RPC transport; answers verified bitwise-identical to the in-process reference before timing\",\n",
        );
        json.push_str("  \"cross_process_shard_counts\": [\n");
        for (i, r) in process_records.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"shards\": {}, \"p50_latency_us\": {:.1}, \"p99_latency_us\": {:.1}, \"queries_per_sec\": {:.0}, \"bitwise_equal_to_in_process\": {}}}",
                r.shards, r.p50_us, r.p99_us, r.qps, r.bitwise_equal_to_1_shard
            );
            json.push_str(if i + 1 < process_records.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        json.push_str("  ]");
    }
    json.push_str("\n}\n");

    std::fs::write(&args.out, &json).map_err(|e| format!("writing {}: {e}", args.out))?;
    println!("wrote {} ({} shard counts)", args.out, records.len());
    Ok(())
}

#![forbid(unsafe_code)]
//! `lsi-perfbench`: the repository benchmark. Three seeded workloads over
//! a 10⁵-document corpus sampled from the paper's §4 model drive the
//! public API of `lsi-ir`, `lsi-linalg`, `lsi-core` and `lsi-serve` from
//! outside; `README.md` says what each workload and metric is for.
//!
//! ```text
//! lsi-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--docs <n>]
//! lsi-perfbench shard-daemon --snapshot <path> --socket <path> [--workers <n>] [--deadline-ms <ms>]
//! ```
//!
//! Run it from the repository root. Lines starting with `#` report the
//! settings, the host and the closed loop; the last line of standard
//! output is the result, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics for `--trace 0`, the per-layer metrics for
//! `--trace 1`. `--docs` shrinks the corpus for the smoke test. The
//! `shard-daemon` form is the entry point the shard supervisor re-execs
//! for the cross-process workload.

mod measure;
mod probes;
mod procfs;
mod trace;
mod workload;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Duration;

use lsi_serve::{run_shard_daemon, ShardDaemonConfig};

use crate::measure::Metrics;
use crate::trace::Tracer;
use crate::workload::{Scale, CLIENTS, DOCS, RANK, SETUPS, SHARDS, WARMUP};

const USAGE: &str = "usage: lsi-perfbench --workload <index-100k|serve-100k|serve-100k-rpc-mixed> \
                     --seed <n> --seconds <1-3600> --trace <0|1> [--docs <n>]";

/// End-to-end metrics: every workload reports all of them, untraced.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("cold_first_answer_ms", "ms"),
    ("qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("store_mb", "MB"),
    ("success_frac", "1"),
];

/// Per-layer metrics, reported by traced runs. A layer the workload never
/// calls reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("build_s", "s"),
    ("ir.td_build_ms", "ms"),
    ("linalg.svd_ms", "ms"),
    ("linalg.matvec_ms", "ms"),
    ("linalg.matvecs", "count"),
    ("linalg.solver_self_ms", "ms"),
    ("linalg.lanczos_steps", "count"),
    ("core.index_assemble_ms", "ms"),
    ("core.snapshot_write_ms", "ms"),
    ("core.snapshot_bytes", "B"),
    ("core.lazy_open_ms", "ms"),
    ("core.lazy_open_bytes", "B"),
    ("core.stream_query_ms", "ms"),
    ("core.fold_in_us", "us"),
    ("core.shard_scan_ms", "ms"),
    ("ir.rank_sort_ms", "ms"),
    ("serve.engine.query_ms", "ms"),
    ("serve.cluster.merge_ms", "ms"),
    ("serve.cluster.unloaded_ms", "ms"),
    ("serve.cluster.wait_ms", "ms"),
    ("proc.cpu_ms_per_query", "ms"),
    ("serve.cluster.shard_failures", "count"),
    ("serve.cluster.hedges", "count"),
    ("serve.engine.shed", "count"),
    ("serve.cluster.write_p50_ms", "ms"),
    ("serve.cluster.create_ms", "ms"),
    ("serve.supervisor.launch_ms", "ms"),
    ("serve.transport.ping_ms", "ms"),
    ("serve.transport.shard_query_ms", "ms"),
    ("serve.transport.reply_bytes", "B"),
    ("serve.transport.reply_decode_ms", "ms"),
    ("serve.daemon.wchar_per_query", "B"),
    ("serve.daemon.cpu_ms_per_query", "ms"),
    ("serve.daemon.rss_mb", "MB"),
    ("core.journal.append_ms", "ms"),
    ("core.journal.replay_ms", "ms"),
    ("trace.qps_delta", "1/s"),
];

/// The workloads, under the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Index,
    Serve,
    ServeRpcMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Index, Workload::Serve, Workload::ServeRpcMixed];

    fn name(self) -> &'static str {
        match self {
            Workload::Index => "index-100k",
            Workload::Serve => "serve-100k",
            Workload::ServeRpcMixed => "serve-100k-rpc-mixed",
        }
    }
}

/// The command line of one run.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    docs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut docs = DOCS;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value.as_str());
                workload = Some(found.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                let parsed = value.parse::<u64>();
                seed = Some(parsed.map_err(|e| format!("bad --seed {value:?}: {e}"))?);
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds must be 1 to 3600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            "--docs" => {
                docs = value
                    .parse::<usize>()
                    .map_err(|e| format!("bad --docs {value:?}: {e}"))?;
                if docs < 500 {
                    return Err(format!("--docs must be at least 500, got {docs}"));
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        docs,
    })
}

/// One run: its settings, scratch directory, metrics, spans and outcome
/// counts.
pub struct Run {
    /// Seed of the corpus and the operation mix.
    pub seed: u64,
    /// Whether this is a traced run.
    pub trace: bool,
    /// Operation counts.
    pub scale: Scale,
    /// Fresh scratch directory, removed when the run ends.
    pub dir: PathBuf,
    /// Everything measured so far.
    pub metrics: Metrics,
    /// Spans of the run.
    pub tracer: Tracer,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    problems: Vec<String>,
}

impl Run {
    /// Records a failed answer or count check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Counts a failed operation.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("# failed operation: {why}");
        }
    }
}

/// The run's scratch directory, removed however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    // A noise cause measured on a 2-core host: at the default two linalg
    // threads one `LsiIndex::build` of this corpus took 2.4 / 5.6 / 2.6 s,
    // at one thread 0.97 / 0.96 / 0.89 s. Every process of the benchmark,
    // the re-exec'd daemons included, pins one thread.
    lsi_linalg::parallel::set_threads(1);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("shard-daemon") {
        std::process::exit(run_daemon_child(&argv[1..]));
    }
    match parse_args(&argv) {
        Ok(args) => std::process::exit(run(args)),
        Err(e) => {
            eprintln!("lsi-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Runs one workload and prints its result line; returns the exit code.
fn run(args: Args) -> i32 {
    let scratch = Scratch(Path::new(".bench_tmp").join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("lsi-perfbench: cannot create {}: {e}", scratch.0.display());
        return 1;
    }
    let scale = Scale::new(args.seconds, args.docs);
    print_settings(&args, &scale, &scratch.0);
    let mut run = Run {
        seed: args.seed,
        trace: args.trace,
        scale,
        dir: scratch.0.clone(),
        metrics: Metrics::default(),
        tracer: Tracer::default(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let outcome = match args.workload {
        Workload::Index => workloads::index_100k(&mut run),
        Workload::Serve => workloads::serve_100k(&mut run),
        Workload::ServeRpcMixed => workloads::serve_rpc(&mut run),
    };
    if let Err(e) = outcome {
        eprintln!("lsi-perfbench: {}: {e}", args.workload.name());
        return 1;
    }
    let metrics = if args.trace {
        let idle: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(name, _)| run.metrics.get(name).is_none())
            .map(|&(name, _)| name)
            .collect();
        for &(name, unit) in &PER_LAYER {
            if run.metrics.get(name).is_none() {
                run.metrics.put(name, 0.0, unit);
            }
        }
        if !idle.is_empty() {
            println!(
                "# not exercised by {} (reported as 0): {}",
                args.workload.name(),
                idle.join(" ")
            );
        }
        write_spans(&args, &run.tracer);
        run.metrics.select(&PER_LAYER)
    } else {
        run.metrics.select(&END_TO_END)
    };
    for problem in &run.problems {
        eprintln!("# check failed: {problem}");
    }
    println!(
        "{}",
        metrics.result_line(run.problems.is_empty(), run.attempted.max(1), run.failed)
    );
    0
}

fn print_settings(args: &Args, scale: &Scale, dir: &Path) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# lsi-perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# corpus: the paper's section 4 model (2000 terms, 20 topics, eps 0.05, \
         50-100 terms per doc); docs={} rank={RANK} shards={SHARDS}",
        scale.docs
    );
    println!(
        "# steadiness: linalg threads=1 (on a 2-core host one build took 2.4/5.6/2.6 s at \
         the default 2 threads, 0.97/0.96/0.89 s at 1); clients={CLIENTS} (nproc={nproc}); \
         1 worker per shard engine and per daemon; max_batch=1; {WARMUP} warm-up queries \
         untimed; setup_s is the median of {SETUPS} set-ups"
    );
    println!(
        "# operations: builds={} cold_opens={} setup_cold_opens={} loop_ops={} probes={}",
        scale.builds, scale.cold_opens, scale.setup_cold_opens, scale.loop_ops, scale.probes
    );
    println!(
        "# scratch: {} (fresh, removed afterwards) on {}",
        dir.display(),
        procfs::filesystem_of(dir)
    );
}

fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = Path::new(".bench_out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path)) {
        Ok(()) => println!("# spans: {} written to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("# spans not written to {}: {e}", path.display()),
    }
}

/// The re-exec'd daemon: serves one shard over its Unix socket until the
/// supervisor shuts it down. Returns the exit code.
fn run_daemon_child(argv: &[String]) -> i32 {
    let (mut snapshot, mut socket) = (None, None);
    let (mut workers, mut deadline_ms) = (1usize, 10_000u64);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("shard-daemon: {flag} needs a value");
            return 2;
        };
        match flag.as_str() {
            "--snapshot" => snapshot = Some(PathBuf::from(value)),
            "--socket" => socket = Some(PathBuf::from(value)),
            "--workers" => workers = value.parse().unwrap_or(workers),
            "--deadline-ms" => deadline_ms = value.parse().unwrap_or(deadline_ms),
            other => {
                eprintln!("shard-daemon: unknown flag {other:?}");
                return 2;
            }
        }
    }
    let (Some(snapshot), Some(socket)) = (snapshot, socket) else {
        eprintln!("shard-daemon: --snapshot and --socket are required");
        return 2;
    };
    let mut config = ShardDaemonConfig::new(snapshot, socket);
    config.workers = workers;
    config.hard_deadline = Duration::from_millis(deadline_ms);
    match run_shard_daemon(config) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("shard-daemon: {e}");
            4
        }
    }
}

#![forbid(unsafe_code)]
//! Kernel benchmark baseline: wall-times and GFLOP/s for the parallel
//! linalg kernels at 1, 2, and 4 linalg threads, written as JSON.
//!
//! ```text
//! bench-json [--out PATH] [--smoke]
//! ```
//!
//! Emits `BENCH_kernels.json` (at the repo root by default) with one record
//! per (kernel, thread count): median wall milliseconds over several runs,
//! derived GFLOP/s (exact counts for the dense/CSR kernels, a
//! matvec-count estimate for whole Lanczos runs), and speedup versus
//! the 1-thread row. The host's logical CPU count is recorded alongside —
//! on a single-core host the >1-thread rows measure scheduling overhead,
//! not speedup, and the JSON says so rather than hiding it.
//!
//! A 1-thread `dense_matmul_reference` row times the serial reference
//! GEMM beside the packed kernel, calls alternating, and records the
//! reference's fastest call and the packed kernel's speedup over it
//! (fastest call against fastest call).
//!
//! `--smoke` shrinks problem sizes and repetitions so CI can verify the
//! path end-to-end in well under a second. `--gate BASELINE.json`
//! re-measures that speedup and exits non-zero when it falls more than
//! 20% below the committed one. Both kernels run on the same host in the
//! same minute, so the ratio holds across hosts where absolute GFLOP/s
//! does not.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lsi_linalg::gemm::gemm_reference;
use lsi_linalg::lanczos::{lanczos_svd, LanczosOptions};
use lsi_linalg::parallel::set_threads;
use lsi_linalg::rng::{gaussian_matrix, seeded};
use lsi_linalg::{CsrMatrix, LinearOperator, Matrix, Result as LinalgResult};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Largest drop of the packed/reference GEMM speedup `--gate` tolerates
/// before failing, as a fraction of the committed speedup.
const GATE_TOLERANCE: f64 = 0.20;

/// Calls per side in the paired packed/reference GEMM timing; each side
/// keeps its fastest call.
const PAIRED_CALLS: usize = 7;

struct Args {
    out: String,
    smoke: bool,
    gate: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = "BENCH_kernels.json".to_owned();
    let mut smoke = false;
    let mut gate = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().ok_or("--out needs a value")?,
            "--smoke" => smoke = true,
            "--gate" => gate = Some(it.next().ok_or("--gate needs a baseline path")?),
            "--help" | "-h" => {
                println!("usage: bench-json [--out PATH] [--smoke] [--gate BASELINE.json]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args { out, smoke, gate })
}

/// Wall time of one call of `f`, in milliseconds.
fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median wall time in milliseconds over `reps` runs of `f`.
///
/// # Panics
/// Panics if a timing is NaN, which `Instant` never yields.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps).map(|_| time_ms(&mut f)).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// Fastest wall milliseconds of the packed `Matrix::matmul` and of the
/// serial `gemm_reference` on one linalg thread, over [`PAIRED_CALLS`]
/// calls each. The two kernels alternate, so drift in the host's speed
/// lands on both sides of the ratio alike. Each side keeps its fastest
/// call because a shared host only ever adds time: on one busy 2-vCPU
/// host, ten runs' ratio of fastest calls spread 1.56–1.75 where the ratio
/// of medians spread 1.33–1.79.
///
/// # Panics
/// Panics if either product of two square benchmark matrices fails — a
/// programmer error in the bench itself.
fn paired_matmul_ms(a: &Matrix, b: &Matrix) -> (f64, f64) {
    let n = a.nrows();
    let mut c = vec![0.0; n * n];
    set_threads(1);
    let (mut packed, mut reference) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PAIRED_CALLS {
        packed = packed.min(time_ms(|| {
            std::hint::black_box(a.matmul(b).unwrap());
        }));
        reference = reference.min(time_ms(|| {
            gemm_reference(n, n, n, a.as_slice(), b.as_slice(), &mut c).unwrap();
            std::hint::black_box(&c);
        }));
    }
    set_threads(0);
    (packed, reference)
}

struct Record {
    kernel: &'static str,
    shape: String,
    threads: usize,
    wall_ms: f64,
    /// `None` when no flop count (exact or estimated) is attached. Lanczos
    /// rows carry a matvec-count estimate rather than an exact count.
    gflops: Option<f64>,
    speedup_vs_1t: f64,
    /// Reference time over packed time, both measured by
    /// [`paired_matmul_ms`]; set on the `dense_matmul_reference` row only.
    packed_speedup: Option<f64>,
}

/// Runs one kernel at every thread count and returns its records.
fn sweep(
    kernel: &'static str,
    shape: String,
    flops: Option<f64>,
    reps: usize,
    mut f: impl FnMut(),
) -> Vec<Record> {
    let mut records: Vec<Record> = Vec::new();
    for &t in &THREAD_COUNTS {
        set_threads(t);
        let wall_ms = median_ms(reps, &mut f);
        let base = records.first().map_or(wall_ms, |r: &Record| r.wall_ms);
        records.push(Record {
            kernel,
            shape: shape.clone(),
            threads: t,
            wall_ms,
            gflops: flops.map(|fl| fl / (wall_ms * 1e6)),
            speedup_vs_1t: base / wall_ms,
            packed_speedup: None,
        });
        eprintln!("  {kernel:<24} threads={t}  {wall_ms:>10.3} ms");
    }
    set_threads(0);
    records
}

/// A [`LinearOperator`] shim that counts matvec applications, so a flop
/// estimate can be attached to a whole Lanczos run: every apply (forward
/// or transposed) touches each stored entry once (2·nnz flops), and the
/// tridiagonal/re-orthogonalization work is a lower-order term the
/// estimate deliberately ignores. The count is deterministic — Lanczos is
/// seed-deterministic and thread-invariant — so one counted run prices
/// every timed run.
struct CountingOp<'a> {
    inner: &'a CsrMatrix,
    applies: AtomicU64,
}

impl LinearOperator for CountingOp<'_> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn apply(&self, x: &[f64]) -> LinalgResult<Vec<f64>> {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply(x)
    }

    fn apply_transpose(&self, x: &[f64]) -> LinalgResult<Vec<f64>> {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_transpose(x)
    }

    fn apply_into(&self, x: &[f64], out: &mut [f64]) -> LinalgResult<()> {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_into(x, out)
    }

    fn apply_transpose_into(&self, x: &[f64], out: &mut [f64]) -> LinalgResult<()> {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_transpose_into(x, out)
    }

    fn to_dense(&self) -> LinalgResult<Matrix> {
        self.inner.to_dense()
    }
}

/// Extracts the committed numeric `field` of one (kernel, threads) row
/// from a previously emitted baseline file. The parser leans on the
/// emitter's one-row-per-line format below — it is not a general JSON
/// reader.
fn committed_field(path: &str, kernel: &str, threads: usize, field: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let kernel_key = format!("\"kernel\": \"{kernel}\"");
    let threads_key = format!("\"threads\": {threads},");
    for line in text.lines() {
        if !line.contains(&kernel_key) || !line.contains(&threads_key) {
            continue;
        }
        let key = format!("\"{field}\": ");
        let pos = line
            .find(&key)
            .ok_or_else(|| format!("{path}: {kernel} row without a {field} field"))?
            + key.len();
        let rest = &line[pos..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        return rest[..end]
            .trim()
            .parse()
            .map_err(|e| format!("{path}: bad {field} value: {e}"));
    }
    Err(format!("{path} has no {kernel} threads={threads} row"))
}

/// Perf-regression gate: times the single-thread packed matmul against the
/// serial reference GEMM at the full benchmark size and fails when the
/// packed kernel's speedup has lost more than [`GATE_TOLERANCE`] of the
/// committed speedup. A host that runs everything 2× slower slows both
/// sides of the ratio; a packed kernel that regresses slows one.
fn run_gate(baseline_path: &str) -> Result<(), String> {
    let dim = 1000usize;
    let committed = committed_field(baseline_path, "dense_matmul_reference", 1, "packed_speedup")?;
    let mut rng = seeded(0xbe7c);
    let a = gaussian_matrix(&mut rng, dim, dim);
    let b = gaussian_matrix(&mut rng, dim, dim);
    let (packed_ms, reference_ms) = paired_matmul_ms(&a, &b);
    let gflops = |ms: f64| 2.0 * (dim as f64).powi(3) / (ms * 1e6);
    let speedup = reference_ms / packed_ms;
    let floor = committed * (1.0 - GATE_TOLERANCE);
    println!(
        "gate: dense_matmul {dim}³ 1-thread  packed {:.2} GFLOP/s  reference {:.2} GFLOP/s  \
         speedup {speedup:.3}  committed {committed:.3}  floor {floor:.3}",
        gflops(packed_ms),
        gflops(reference_ms)
    );
    if speedup < floor {
        return Err(format!(
            "perf gate failed: packed GEMM speedup over the reference is {speedup:.3}, \
             below {floor:.3} ({:.0}% of the committed {committed:.3}) — \
             if the regression is intended, regenerate {baseline_path} with bench-json",
            100.0 * (1.0 - GATE_TOLERANCE)
        ));
    }
    Ok(())
}

fn sparse_matrix(m: usize, n: usize, seed: u64) -> CsrMatrix {
    let mut rng = seeded(seed);
    let mut d = gaussian_matrix(&mut rng, m, n);
    d.map_inplace(|x| if x.abs() > 1.5 { x } else { 0.0 });
    CsrMatrix::from_dense(&d, 0.0)
}

///
/// # Panics
/// Panics if the experiment's hard-coded parameters become infeasible
/// (a programmer error caught immediately at startup, never a
/// data-dependent failure).
fn main() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(baseline) = &args.gate {
        return run_gate(baseline);
    }
    let (dim, reps, svd_mn, svd_k) = if args.smoke {
        (96usize, 3usize, (200usize, 100usize), 5usize)
    } else {
        (1000, 5, (5000, 2000), 50)
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "bench-json: host has {host_cpus} logical CPU(s); sweeping threads {THREAD_COUNTS:?}"
    );

    let mut records: Vec<Record> = Vec::new();

    // Dense matmul, dim³ problem: 2·n³ flops.
    let mut rng = seeded(0xbe7c);
    let a = gaussian_matrix(&mut rng, dim, dim);
    let b = gaussian_matrix(&mut rng, dim, dim);
    records.extend(sweep(
        "dense_matmul",
        format!("{dim}x{dim}x{dim}"),
        Some(2.0 * (dim as f64).powi(3)),
        reps,
        || {
            std::hint::black_box(a.matmul(&b).unwrap());
        },
    ));
    let (packed_ms, reference_ms) = paired_matmul_ms(&a, &b);
    records.push(Record {
        kernel: "dense_matmul_reference",
        shape: format!("{dim}x{dim}x{dim}"),
        threads: 1,
        wall_ms: reference_ms,
        gflops: Some(2.0 * (dim as f64).powi(3) / (reference_ms * 1e6)),
        speedup_vs_1t: 1.0,
        packed_speedup: Some(reference_ms / packed_ms),
    });
    eprintln!(
        "  dense_matmul_reference   threads=1  {reference_ms:>10.3} ms  packed speedup {:.3}",
        reference_ms / packed_ms
    );

    // Dense matvec on the same matrix: 2·n² flops.
    let x = vec![1.0; dim];
    let mut out = vec![0.0; dim];
    records.extend(sweep(
        "dense_matvec",
        format!("{dim}x{dim}"),
        Some(2.0 * (dim as f64).powi(2)),
        reps * 20,
        || {
            a.matvec_into(std::hint::black_box(&x), &mut out).unwrap();
        },
    ));

    // CSR matvec on a thresholded-Gaussian sparse matrix: 2·nnz flops.
    let (sm, sn) = svd_mn;
    let sp = sparse_matrix(sm, sn, 0x5eed);
    let sx = vec![1.0; sn];
    let mut sout = vec![0.0; sm];
    records.extend(sweep(
        "csr_matvec",
        format!("{sm}x{sn} nnz={}", sp.nnz()),
        Some(2.0 * sp.nnz() as f64),
        reps * 20,
        || {
            sp.matvec_into(std::hint::black_box(&sx), &mut sout)
                .unwrap();
        },
    ));

    // Rank-k Lanczos SVD of the sparse matrix. The exact flop count has no
    // closed form, so one counted run prices the matvecs (the dominant
    // cost) and that estimate is attached to every timed run.
    let counting = CountingOp {
        inner: &sp,
        applies: AtomicU64::new(0),
    };
    std::hint::black_box(lanczos_svd(&counting, svd_k, &LanczosOptions::default()).unwrap());
    let matvecs = counting.applies.load(Ordering::Relaxed);
    let lanczos_flops = matvecs as f64 * 2.0 * sp.nnz() as f64;
    records.extend(sweep(
        "lanczos_svd",
        format!("{sm}x{sn} k={svd_k} matvecs={matvecs}"),
        Some(lanczos_flops),
        reps.min(3),
        || {
            std::hint::black_box(lanczos_svd(&sp, svd_k, &LanczosOptions::default()).unwrap());
        },
    ));

    // Hand-rolled JSON: the workspace is dependency-free by policy, and the
    // schema is flat enough that formatting it directly stays readable.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_logical_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"thread_counts\": [1, 2, 4],");
    let _ = writeln!(
        json,
        "  \"note\": \"bitwise-identical outputs at every thread count; speedup requires >1 host CPU\","
    );
    json.push_str("  \"kernels\": [\n");
    for (i, r) in records.iter().enumerate() {
        let gflops = r.gflops.map_or("null".to_owned(), |g| format!("{g:.4}"));
        let packed = r
            .packed_speedup
            .map_or(String::new(), |s| format!(", \"packed_speedup\": {s:.3}"));
        let _ = write!(
            json,
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"threads\": {}, \"wall_ms\": {:.4}, \"gflops\": {}, \"speedup_vs_1t\": {:.3}{packed}}}",
            r.kernel, r.shape, r.threads, r.wall_ms, gflops, r.speedup_vs_1t
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&args.out, &json).map_err(|e| format!("writing {}: {e}", args.out))?;
    println!("wrote {} ({} records)", args.out, records.len());
    Ok(())
}

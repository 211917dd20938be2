//! K1-thread-dependent-blocking: work partitioning — kernel blocking
//! geometry (GEMM panel sizes, pack layouts) and chunk boundaries alike —
//! must be a pure function of problem size. Deriving `kc`/`mc`/`nc`, a pack
//! decision or a chunk length from the thread count or the host's CPU
//! count silently changes accumulation order with the environment and
//! breaks bitwise reproducibility. Heuristic (warn-level): flag lines where
//! a runtime-parallelism identifier meets either a blocking-geometry
//! identifier, or division/modulo/`div_ceil` together with a size-ish
//! identifier.

use super::{contains_token, emit, Rule};
use crate::context::{FileContext, Role};
use crate::report::{Finding, Severity};

/// Identifiers that denote kernel blocking geometry.
const GEOMETRY_TOKENS: &[&str] = &[
    "kc",
    "mc",
    "nc",
    "kc_eff",
    "block_plan",
    "BlockPlan",
    "pack_a",
    "pack_b",
    "micro_kernel",
];

/// Identifiers that suggest division arithmetic feeds a partition size.
const SIZE_TOKENS: &[&str] = &[
    "chunk",
    "chunks",
    "chunk_size",
    "grain",
    "block",
    "stride",
    "len",
    "size",
    "per_thread",
];

/// Identifiers whose value varies with the execution environment.
const RUNTIME_TOKENS: &[&str] = &[
    "num_threads",
    "n_threads",
    "nthreads",
    "thread_count",
    "threads",
    "LSI_THREADS",
    "available_parallelism",
    "num_cpus",
];

/// The K1 rule.
pub struct K1ThreadDependentBlocking;

impl Rule for K1ThreadDependentBlocking {
    fn id(&self) -> &'static str {
        "K1-thread-dependent-blocking"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "blocking geometry and chunk boundaries must depend only on problem size"
    }
    fn check(&self, ctx: &FileContext, out: &mut Vec<Finding>) {
        if ctx.role == Role::TestOrBench {
            return;
        }
        for (idx, line) in ctx.lines.iter().enumerate() {
            let lineno = idx + 1;
            if ctx.is_test_line(lineno) {
                continue;
            }
            if !RUNTIME_TOKENS.iter().any(|t| contains_token(line, t)) {
                continue;
            }
            let has_geometry = GEOMETRY_TOKENS.iter().any(|t| contains_token(line, t));
            let has_div =
                line.contains('/') || line.contains('%') || contains_token(line, "div_ceil");
            let has_size = SIZE_TOKENS.iter().any(|t| contains_token(line, t));
            let partitions = has_geometry || (has_div && has_size);
            if !partitions {
                continue;
            }
            emit(
                ctx,
                out,
                self.id(),
                self.severity(),
                lineno,
                "a runtime-parallelism value shapes blocking geometry or chunk boundaries; partitioning must be size-only".to_string(),
                "choose kc/mc/nc, pack layouts and chunk lengths from problem dimensions alone (see lsi_linalg::gemm::block_plan and lsi_linalg::parallel)",
            );
        }
    }
}

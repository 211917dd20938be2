#!/usr/bin/env bash
# Full local gate: formatting, lints, conformance, and the test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast with a clear message when the toolchain is missing: every gate
# below needs cargo, and a bare `command not found` mid-run is easy to
# misread as a code failure.
if ! command -v cargo >/dev/null 2>&1; then
  echo "check.sh: error: 'cargo' not found on PATH; install a Rust toolchain first" >&2
  exit 2
fi

# Name the gate that failed: with `set -e` the script dies at the first
# nonzero exit, and without this trap the culprit is whichever command
# happened to print last.
# Every scratch file lives in one private directory, removed on any exit:
# concurrent runs never clobber each other, and a failing gate leaves
# nothing behind.
CURRENT_GATE="startup"
SCRATCH="$(mktemp -d)"
trap 'status=$?; rm -rf "$SCRATCH"; if [ "$status" -ne 0 ]; then echo "check.sh: FAILED in gate: $CURRENT_GATE (exit $status)" >&2; fi' EXIT

gate() {
  CURRENT_GATE="$1"
  echo "== $1"
}

gate "cargo fmt --check"
cargo fmt --all -- --check

gate "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

gate "lsi-lint conformance (deny gate + JSON/SARIF reports + allow budget)"
mkdir -p target
# Write the machine-readable reports first (never fail the gate on their
# own), then enforce with the human-readable run so failures print
# diagnostics. The enforcing run also caps the inline-allow count: burning
# down escape hatches must not quietly reverse.
cargo run --release -p lsi-lint -- --format json > target/lint-report.json || true
cargo run --release -p lsi-lint -- --format sarif > target/lint-report.sarif || true
cargo run --release -p lsi-lint -- --allow-budget 30

gate "lsi-lint smoke: seeded violations must fail"
# Inject one W1 (deny) and one L1 (warn) violation into a scratch tree and
# assert the gate actually trips — a lint that silently stopped firing
# would otherwise pass every clean-tree check above.
cp crates/lsi-lint/fixtures/fire/w1.rs "$SCRATCH/w1_seeded.rs"
if cargo run --release -p lsi-lint -- "$SCRATCH/w1_seeded.rs" > /dev/null; then
  echo "check.sh: seeded W1 violation did not fail the lint gate" >&2
  exit 1
fi
cp crates/lsi-lint/fixtures/fire/l1.rs "$SCRATCH/l1_seeded.rs"
if cargo run --release -p lsi-lint -- --deny-warnings "$SCRATCH/l1_seeded.rs" > /dev/null; then
  echo "check.sh: seeded L1 violation did not fail --deny-warnings" >&2
  exit 1
fi
echo "seeded W1/L1 violations correctly rejected"

gate "cargo test"
cargo test --workspace

gate "determinism: tier-1 tests at LSI_THREADS=1 and 4"
LSI_THREADS=1 cargo test -p lsi-linalg --test determinism
LSI_THREADS=4 cargo test -p lsi-linalg --test determinism

gate "determinism: reproduce --exp e6 identical across thread counts"
# E6's numerical columns are seed-deterministic; wall-clock columns vary per
# run, so compare everything except lines containing timings (the table body
# timing columns are filtered by dropping runtime numbers via the summary
# status lines). Simplest robust check: the corpora and experiment statuses
# must match, and the build must succeed at both settings.
LSI_THREADS=1 cargo run --release -p lsi-bench --bin reproduce -- --exp e6 \
  > "$SCRATCH/e6_t1.txt"
LSI_THREADS=4 cargo run --release -p lsi-bench --bin reproduce -- --exp e6 \
  > "$SCRATCH/e6_t4.txt"
# Strip the four wall-clock columns (cols 3-6 of the table body) before
# diffing; the structural columns (n, m) and every status line must agree.
strip_times() { awk '/^ *[0-9]+ +[0-9]+ /{print $1, $2; next} {print}' "$1"; }
diff <(strip_times "$SCRATCH/e6_t1.txt") <(strip_times "$SCRATCH/e6_t4.txt")
echo "e6 tables structurally identical across LSI_THREADS=1/4"

gate "bench-json smoke"
cargo run --release -p lsi-bench --bin bench-json -- --smoke --out "$SCRATCH/bench_smoke.json"

gate "perf gate: packed GEMM speedup over the serial reference vs BENCH_kernels.json"
# Times the single-thread 1000^3 packed matmul against the serial
# reference GEMM on this host, calls alternating, and fails when the
# packed/reference speedup falls >20% below the committed one. A ratio of
# two kernels timed side by side travels between hosts; absolute GFLOP/s
# does not. Intentional changes regenerate the baseline:
# cargo run --release -p lsi-bench --bin bench-json
cargo run --release -p lsi-bench --bin bench-json -- --gate BENCH_kernels.json

gate "open-json smoke (cold-start baseline)"
# The emitter refuses to write when a v3 lazy open stops being sublinear
# (byte-counted, not timed) or a streamed answer diverges bitwise from the
# eager open, so this smoke doubles as a cold-start invariant check.
cargo run --release -p lsi-bench --bin open-json -- --smoke --out "$SCRATCH/open_smoke.json"

gate "serve chaos suite (fixed seed)"
SERVE_CHAOS_SEED=20260706 cargo test --test serve_chaos

gate "serve chaos soak (high volume)"
SERVE_SOAK=1 cargo test --test serve_chaos fault_storm

gate "cluster chaos: shard storm + rebalance crash matrix (release)"
# Release profile: the storm fans thousands of queries across panicking,
# slow, and crashing shards while documents migrate, and the matrix
# enumerates every crash byte of the two-journal rebalance move.
SERVE_CHAOS_SEED=20260706 cargo test --release --test cluster_chaos
SERVE_SOAK=1 cargo test --release --test cluster_chaos cluster_storm

gate "process chaos: kill -9 storm against real shard daemons (release)"
# Release profile: quiet 1/2/4-daemon fleets must first answer a seeded
# adversarial probe set bitwise like the reference scorer; then the storm
# SIGKILLs live shard-serve child processes mid-query, mid-fold-in, and
# mid-rebalance; every Complete answer must be bitwise the unsharded
# reference, the supervisor must respawn from the journal, and no zombies
# or stale sockets may remain.
SERVE_CHAOS_SEED=20260706 cargo test --release --test process_chaos

gate "durability: crash matrix, corruption fuzz, recovery consistency"
# Release profile: the crash matrix enumerates every byte of every durable
# write and the fuzz sweep flips every byte of every format twice.
cargo test --release --test crash_matrix
cargo test --release --test corruption_fuzz
cargo test --release --test recovery_consistency
cargo test --release -p lsi-cli --test container_fuzz

gate "I/O fault injection: ENOSPC / short-write / transient suite (release)"
# Release profile: every persistence path (journal append, checkpoint,
# atomic rewrite, cluster rebalance) must surface a typed error and leave
# byte-exact pre-state under injected write faults.
cargo test --release --test io_faults

CURRENT_GATE="done"
echo "== all checks passed"

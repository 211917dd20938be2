#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `lsi-lint` — the workspace conformance analyzer.
//!
//! The reproduction's credibility rests on invariants that used to be
//! enforced only by convention: every stochastic function is seed-threaded,
//! experiment outputs are bitwise deterministic at any `LSI_THREADS` value,
//! hot kernels route through `lsi_linalg::parallel`, and panics are
//! documented preconditions rather than control flow. One unseeded RNG or
//! wall-clock read silently invalidates every recorded table in
//! EXPERIMENTS.md. This crate turns those rules into a machine-checked
//! gate: a line/token-level static-analysis pass over all workspace `.rs`
//! files with named, numbered lints, file:line diagnostics, deny/warn
//! severities, and an inline justification-carrying escape hatch.
//!
//! # Rules
//!
//! | id | severity | enforces |
//! |----|----------|----------|
//! | `C1-unpolled-hot-loop` | warn | fns taking a `CancelToken` that loop must poll it |
//! | `D1-nondeterminism` | deny | no wall-clock/process-id reads outside lsi-serve, benches, tests, examples |
//! | `D2-unseeded-rng` | deny | RNG-constructing fns take `seed: u64` or `&mut impl Rng` |
//! | `D3-hasher-order` | deny | no unordered `HashMap`/`HashSet` iteration feeding ordered output |
//! | `E1-panic-policy` | deny | `unwrap`/`expect`/`panic!` only under a documented `# Panics` contract |
//! | `K1-thread-dependent-blocking` | warn | blocking geometry and chunk boundaries derive from sizes only |
//! | `L1-lock-order-cycle` | warn | Mutex/RwLock acquisition order forms a DAG |
//! | `M1-arrival-order-merge` | warn | cross-worker merges reduce in slot order, never arrival order |
//! | `P1-raw-threads` | deny | threads only in `lsi_linalg::parallel` + serve worker pool |
//! | `R1-reflector` | warn | Householder reflectors come from `vector::householder_reflector` |
//! | `S1-unsynced-write` | deny | created/renamed files reach `sync_all`/`sync_parent_dir`, here or via callers |
//! | `S2-unchecked-length-alloc` | warn | readers bound decoded lengths before allocating |
//! | `T1-unbounded-socket-read` | warn | socket/child-pipe reads carry a read timeout |
//! | `U1-unsafe` | deny | `unsafe` only on the explicit allowlist |
//! | `W1-apply-before-journal` | deny | durable mutations journal-append (fsync) before the in-memory apply |
//!
//! `S1`, `W1`, `L1`, and `C1` are workspace rules since PR 9: they run over
//! the resolved call graph ([`callgraph`]) with summary-based dataflow, so
//! helper-delegated syncs/polls/appends are recognized and lock-order edges
//! cross fn boundaries. The rest are per-file token rules.
//!
//! Malformed `lsi-lint:` directives surface as deny-level `A0-allow-syntax`
//! findings so a typo can't silently disable a rule.
//!
//! # Escape hatch
//!
//! ```text
//! let t = Instant::now(); // lsi-lint: allow(D1-nondeterminism, "deadline clock, not experiment state")
//! ```
//!
//! A standalone directive comment applies to the next code line; a trailing
//! one to its own line. The justification string is mandatory.
//!
//! # Example
//!
//! ```
//! use lsi_lint::{lint_source, Severity};
//! let findings = lint_source("crates/x/src/lib.rs", "fn f() { let t = Instant::now(); }\n");
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "D1-nondeterminism");
//! assert_eq!(findings[0].severity, Severity::Deny);
//! ```

pub mod callgraph;
pub mod context;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod symbols;

pub use callgraph::Workspace;
pub use report::{render_json, render_text, Finding, Severity};
pub use sarif::render_sarif;

use context::FileContext;
use std::path::{Path, PathBuf};

/// Lints a set of in-memory source files as one workspace: per-file rules
/// run on each file, then the call graph is built over all of them and the
/// workspace rules (interprocedural S1/W1/L1/C1) run once. Findings come
/// back sorted by (path, line, rule) and deduped.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    let ctxs: Vec<FileContext> = files
        .iter()
        .map(|(rel, src)| FileContext::build(rel, src))
        .collect();
    let mut findings = Vec::new();
    let per_file = rules::registry();
    for ctx in &ctxs {
        findings.extend(ctx.meta_findings.clone());
        for rule in &per_file {
            rule.check(ctx, &mut findings);
        }
    }
    let ws = Workspace::build(ctxs);
    for rule in rules::workspace_registry() {
        rule.check(&ws, &mut findings);
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.path == b.path);
    findings
}

/// Lints one in-memory source file at workspace-relative path `rel` — a
/// single-file workspace, so interprocedural rules see only same-file
/// helpers (which is exactly what fixtures exercise).
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(rel.to_string(), src.to_string())])
}

/// Lints the file at `path`, reporting it relative to `root`.
///
/// # Errors
/// Returns the I/O error when the file cannot be read.
pub fn lint_file(root: &Path, path: &Path) -> std::io::Result<Vec<Finding>> {
    let src = std::fs::read_to_string(path)?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    Ok(lint_source(&rel, &src))
}

/// Reads every file in `files` and lints them as one workspace (see
/// [`lint_sources`]), reporting paths relative to `root`.
///
/// # Errors
/// Returns the first I/O error encountered while reading.
pub fn lint_files(root: &Path, files: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, src));
    }
    Ok(lint_sources(&sources))
}

/// Total `lsi-lint: allow` directives across a set of files, for the
/// `--allow-budget` gate.
///
/// # Errors
/// Returns the first I/O error encountered while reading.
pub fn count_allows(root: &Path, files: &[PathBuf]) -> std::io::Result<usize> {
    let mut count = 0usize;
    for path in files {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        count += FileContext::build(&rel, &src).allows.len();
    }
    Ok(count)
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".claude"];

/// Collects every workspace `.rs` file under `root`, skipping `target/`,
/// `vendor/`, and this crate's own `fixtures/` tree (fixtures deliberately
/// violate the rules; lint them by passing the path explicitly).
pub fn discover_workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    walk(root, &mut files, /* skip_fixtures = */ true);
    files.sort();
    files
}

/// Collects `.rs` files under an explicitly named directory — fixtures are
/// not skipped, so a seeded-violation tree can be linted for CI checks.
pub fn collect_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    walk(dir, &mut files, /* skip_fixtures = */ false);
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>, skip_fixtures: bool) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || (skip_fixtures && name == "fixtures") {
                continue;
            }
            walk(&path, out, skip_fixtures);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Finds the workspace root by ascending from `start` until a directory
/// holding a `Cargo.toml` with a `[workspace]` table appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_has_no_findings() {
        let src = "//! Docs.\npub fn add(a: u64, b: u64) -> u64 {\n    a + b\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_panic_policy() {
        let src = "pub fn id(x: u64) -> u64 { x }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \"7\".parse::<u64>().unwrap();\n    }\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn string_contents_never_fire() {
        let src =
            "pub fn msg() -> &'static str {\n    \"Instant::now() unsafe thread::spawn\"\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }
}

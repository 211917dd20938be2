//! The rule registry and shared matching helpers.
//!
//! Each rule is a `Rule` implementation with a stable id, a severity, and a
//! `check` pass over one [`FileContext`]. Rules are token-level heuristics by
//! design: they see sanitized code (no comments, no string contents) plus
//! test-region and fn-span metadata, and they favor firing on everything
//! suspicious — the inline `lsi-lint: allow(<rule>, "<reason>")` escape hatch
//! (reason mandatory) is the sanctioned way to keep a justified exception.

use crate::callgraph::Workspace;
use crate::context::FileContext;
use crate::report::{Finding, Severity};

mod c1;
mod d1;
mod d2;
mod d3;
mod e1;
mod k1;
mod l1;
mod m1;
mod p1;
mod r1;
mod s1;
mod s2;
mod t1;
mod u1;
mod w1;

/// A per-file conformance rule.
pub trait Rule {
    /// Stable rule id, e.g. `D1-nondeterminism`.
    fn id(&self) -> &'static str;
    /// Severity of this rule's findings.
    fn severity(&self) -> Severity;
    /// One-line description for `--help` and docs.
    fn description(&self) -> &'static str;
    /// Multi-paragraph rationale for `--explain <rule>`. Defaults to the
    /// one-line description.
    fn explain(&self) -> &'static str {
        self.description()
    }
    /// Runs the rule over one file, appending findings.
    fn check(&self, ctx: &FileContext, out: &mut Vec<Finding>);
}

/// A workspace-level conformance rule: sees every file plus the resolved
/// call graph and its fixpoint summaries, so invariants can follow calls
/// through helpers instead of stopping at fn boundaries.
pub trait WorkspaceRule {
    /// Stable rule id, e.g. `W1-apply-before-journal`.
    fn id(&self) -> &'static str;
    /// Severity of this rule's findings.
    fn severity(&self) -> Severity;
    /// One-line description for `--help` and docs.
    fn description(&self) -> &'static str;
    /// Multi-paragraph rationale for `--explain <rule>`.
    fn explain(&self) -> &'static str {
        self.description()
    }
    /// Runs the rule over the whole workspace, appending findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// All shipped per-file rules, in id order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(d1::D1Nondeterminism),
        Box::new(d2::D2UnseededRng),
        Box::new(d3::D3HasherOrder),
        Box::new(e1::E1PanicPolicy),
        Box::new(k1::K1ThreadDependentBlocking),
        Box::new(m1::M1ArrivalOrderMerge),
        Box::new(p1::P1RawThreads),
        Box::new(r1::R1Reflector),
        Box::new(s2::S2UncheckedLengthAlloc),
        Box::new(t1::T1UnboundedSocketRead),
        Box::new(u1::U1Unsafe),
    ]
}

/// All shipped workspace rules, in id order. S1 lives here since PR 9: its
/// durability proof follows helper calls in both directions.
pub fn workspace_registry() -> Vec<Box<dyn WorkspaceRule>> {
    vec![
        Box::new(c1::C1UnpolledHotLoop),
        Box::new(l1::L1LockOrderCycle),
        Box::new(s1::S1UnsyncedWrite),
        Box::new(w1::W1ApplyBeforeJournal),
    ]
}

/// Emits one finding unless an allow directive covers it.
pub(crate) fn emit(
    ctx: &FileContext,
    out: &mut Vec<Finding>,
    rule: &'static str,
    severity: Severity,
    line: usize,
    message: String,
    hint: &str,
) {
    if ctx.allowed(rule, line).is_some() {
        return;
    }
    out.push(Finding {
        rule,
        severity,
        path: ctx.rel.clone(),
        line,
        message,
        snippet: ctx.snippet(line),
        hint: hint.to_string(),
    });
}

/// Finds `needle` in `hay` at identifier boundaries: the byte before the
/// match (if any) and the byte after (if any) must not extend an identifier.
/// `needle` may itself end in `(` or `::…` — boundaries apply to its
/// alphanumeric edges only.
pub(crate) fn contains_token(hay: &str, needle: &str) -> bool {
    token_pos(hay, needle).is_some()
}

/// Like [`contains_token`], returning the byte offset of the first match.
pub(crate) fn token_pos(hay: &str, needle: &str) -> Option<usize> {
    let hb = hay.as_bytes();
    let nb = needle.as_bytes();
    let first_is_ident = nb.first().is_some_and(|b| crate::lexer::is_ident_byte(*b));
    let last_is_ident = nb.last().is_some_and(|b| crate::lexer::is_ident_byte(*b));
    let mut from = 0usize;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let before_ok = !first_is_ident || at == 0 || !crate::lexer::is_ident_byte(hb[at - 1]);
        let end = at + nb.len();
        let after_ok = !last_is_ident || end >= hb.len() || !crate::lexer::is_ident_byte(hb[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// The statement text starting at 1-based `line`: that line plus following
/// lines until a `;`, an opening `{`, or `max_lines`, joined with spaces.
/// Used for "is the hash iteration sorted later in the chain" lookahead.
pub(crate) fn statement_from(ctx: &FileContext, line: usize, max_lines: usize) -> String {
    let mut out = String::new();
    for l in line..(line + max_lines).min(ctx.lines.len() + 1) {
        let t = &ctx.lines[l - 1];
        out.push_str(t);
        out.push(' ');
        if t.contains(';') || t.trim_end().ends_with('{') {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries() {
        assert!(contains_token("let x = num_threads / 2;", "num_threads"));
        assert!(!contains_token("let x = effective_threads(n);", "threads"));
        assert!(contains_token("parallel::threads().min(2)", "threads"));
        assert!(!contains_token("#![forbid(unsafe_code)]", "unsafe"));
        assert!(contains_token("unsafe { *p }", "unsafe"));
        assert!(contains_token("x.unwrap()", ".unwrap()"));
        assert!(!contains_token("x.unwrap_or(0)", ".unwrap()"));
    }
}

//! Per-file analysis context: sanitized lines, `#[cfg(test)]` regions,
//! function spans with their doc-comment metadata, and parsed
//! `lsi-lint: allow(...)` directives.

use crate::lexer::{self, is_ident_byte, Comment};
use crate::report::Finding;

/// Broad classification of a source file, derived from its workspace path.
/// Rules consult the role to decide whether they apply at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A library source file (`crates/*/src/**`, root `src/`).
    LibSrc,
    /// A binary source file (`src/main.rs`, `src/bin/*`).
    Bin,
    /// An example (`examples/*`).
    Example,
    /// An integration test or bench (`tests/*`, `benches/*`, and the
    /// `perfbench/` benchmark harness): every line is treated as test code.
    TestOrBench,
}

/// A function item located in the sanitized source.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based line of the body's closing `}` (equals `start_line` for
    /// bodyless trait-method declarations).
    pub end_line: usize,
    /// Signature text from `fn` to the body `{` (generics, params, return
    /// type, where clause), whitespace-normalized.
    pub signature: String,
    /// True when the doc comment block above the item has a `# Panics`
    /// section.
    pub has_panics_doc: bool,
}

/// One parsed `// lsi-lint: allow(<rule>, "<reason>")` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule id as written (full id like `D1-nondeterminism`, or the bare
    /// prefix like `D1`).
    pub rule: String,
    /// The mandatory justification string.
    pub reason: String,
    /// 1-based line the directive suppresses findings on.
    pub applies_to: usize,
}

/// Everything a rule needs to analyze one file.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes (e.g.
    /// `crates/lsi-core/src/index.rs`).
    pub rel: String,
    /// File classification.
    pub role: Role,
    /// Sanitized source lines, index 0 = line 1.
    pub lines: Vec<String>,
    /// Original source lines (for finding snippets).
    pub raw_lines: Vec<String>,
    /// `test_lines[i]` is true when line `i + 1` sits in a `#[cfg(test)]`
    /// item, a `mod tests`, a `#[test]` fn, or a tests/benches file.
    pub test_lines: Vec<bool>,
    /// All function spans, in source order.
    pub fns: Vec<FnSpan>,
    /// Parsed allow directives.
    pub allows: Vec<Allow>,
    /// Findings produced while building the context itself (malformed allow
    /// directives).
    pub meta_findings: Vec<Finding>,
}

impl FileContext {
    /// Builds the context for `src` at workspace-relative path `rel`.
    pub fn build(rel: &str, src: &str) -> FileContext {
        let lexed = lexer::lex(src);
        let role = classify(rel);
        let raw_lines: Vec<String> = src.lines().map(str::to_string).collect();
        let lines: Vec<String> = lexed.sanitized.lines().map(str::to_string).collect();
        let n = raw_lines.len().max(lines.len());
        let mut test_lines = vec![role == Role::TestOrBench; n + 1];
        if role != Role::TestOrBench {
            mark_test_regions(&lines, &mut test_lines);
        }
        let fns = find_fns(&lines, &raw_lines);
        let mut meta_findings = Vec::new();
        let allows = parse_allows(rel, &lexed.comments, &raw_lines, &mut meta_findings);
        FileContext {
            rel: rel.to_string(),
            role,
            lines,
            raw_lines,
            test_lines,
            fns,
            allows,
            meta_findings,
        }
    }

    /// True when 1-based `line` is inside test code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }

    /// Returns the allow directive covering `rule_id` on 1-based `line`, if
    /// any. Directives match on the full id or its short prefix (`D1`).
    pub fn allowed(&self, rule_id: &str, line: usize) -> Option<&Allow> {
        let short = rule_id.split('-').next().unwrap_or(rule_id);
        self.allows
            .iter()
            .find(|a| a.applies_to == line && (a.rule == rule_id || a.rule == short))
    }

    /// The innermost function span containing 1-based `line`, if any.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.start_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
    }

    /// The original source line (trimmed) for snippets; empty when out of
    /// range.
    pub fn snippet(&self, line: usize) -> String {
        self.raw_lines
            .get(line.wrapping_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Classifies a workspace-relative path.
fn classify(rel: &str) -> Role {
    let p = rel.replace('\\', "/");
    if p.contains("/tests/")
        || p.starts_with("tests/")
        || p.contains("/benches/")
        || p.starts_with("benches/")
        || p.starts_with("perfbench/")
    {
        Role::TestOrBench
    } else if p.contains("/examples/") || p.starts_with("examples/") {
        Role::Example
    } else if p.ends_with("/main.rs") || p.contains("/src/bin/") {
        Role::Bin
    } else {
        Role::LibSrc
    }
}

/// Marks lines covered by `#[cfg(test)]` items, `#[test]` fns, and
/// `mod tests` bodies. Works on sanitized lines: attributes and braces are
/// code, so brace-matching is reliable.
fn mark_test_regions(lines: &[String], test_lines: &mut [bool]) {
    // Flatten with line breaks so byte offsets map back to lines.
    let mut offsets = Vec::with_capacity(lines.len());
    let mut text = String::new();
    for l in lines {
        offsets.push(text.len());
        text.push_str(l);
        text.push('\n');
    }
    let line_of = |pos: usize| -> usize {
        match offsets.binary_search(&pos) {
            Ok(i) => i + 1,
            Err(i) => i, // i is the insertion point; the line is i (1-based)
        }
    };
    let bytes = text.as_bytes();
    let mut i = 0usize;
    // Stack of open braces; `true` entries open a test region.
    let mut stack: Vec<(bool, usize)> = Vec::new();
    // Set when a test-ish attribute or `mod tests` header was seen and its
    // opening `{` (or terminating `;`) is still ahead.
    let mut pending: Option<usize> = None;

    while i < bytes.len() {
        match bytes[i] {
            b'#' if bytes.get(i + 1) == Some(&b'[')
                || (bytes.get(i + 1) == Some(&b'!') && bytes.get(i + 2) == Some(&b'[')) =>
            {
                let open = if bytes[i + 1] == b'[' { i + 1 } else { i + 2 };
                let mut depth = 0usize;
                let mut j = open;
                while j < bytes.len() {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let attr = &text[open..j.min(text.len())];
                if attr_is_testish(attr) && bytes.get(i + 1) == Some(&b'[') {
                    pending = Some(line_of(i));
                }
                i = j + 1;
            }
            b'm' if word_at(bytes, i, b"mod") => {
                // `mod tests`/`mod test` headers open a test region even
                // without a cfg attribute.
                let mut j = i + 3;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                let start = j;
                while j < bytes.len() && is_ident_byte(bytes[j]) {
                    j += 1;
                }
                let name = &text[start..j];
                if name == "tests" || name == "test" {
                    pending = Some(line_of(i));
                }
                i = j;
            }
            b'{' => {
                let is_test_open = pending.take().is_some();
                stack.push((is_test_open, line_of(i)));
                if is_test_open || stack.iter().any(|&(t, _)| t) {
                    // Marking happens on close; nothing to do here.
                }
                i += 1;
            }
            b'}' => {
                if let Some((was_test, open_line)) = stack.pop() {
                    if was_test {
                        let close_line = line_of(i);
                        for l in open_line..=close_line {
                            if l < test_lines.len() {
                                test_lines[l] = true;
                            }
                        }
                    }
                }
                i += 1;
            }
            b';' => {
                // An attribute on a bodyless item (`#[cfg(test)] use …;`).
                if let Some(attr_line) = pending.take() {
                    let l = line_of(i);
                    for k in attr_line..=l {
                        if k < test_lines.len() {
                            test_lines[k] = true;
                        }
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    // Also mark the attribute line itself for open-brace regions: walk again
    // is unnecessary — the `{` handler marks from the open line, and the
    // attribute sits at most a few lines above; rules match code tokens, and
    // attributes carry none of the flagged patterns.
}

/// True when an attribute body (text between `#[` and `]`) marks test-only
/// code: `test`, `cfg(test)`, `cfg(all(test, …))`, `bench`.
fn attr_is_testish(attr: &str) -> bool {
    let mut prev_ident = false;
    let bytes = attr.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            let word = &attr[start..i];
            if !prev_ident && (word == "test" || word == "tests" || word == "bench") {
                return true;
            }
            prev_ident = true;
        } else {
            prev_ident = false;
            i += 1;
        }
    }
    false
}

/// True when `bytes[i..]` is the whole word `word` (ident-boundary on both
/// sides).
fn word_at(bytes: &[u8], i: usize, word: &[u8]) -> bool {
    if i + word.len() > bytes.len() || &bytes[i..i + word.len()] != word {
        return false;
    }
    let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
    let after_ok = i + word.len() >= bytes.len() || !is_ident_byte(bytes[i + word.len()]);
    before_ok && after_ok
}

/// Locates every `fn` item: name, signature, body span, and whether the doc
/// block above it has a `# Panics` section.
fn find_fns(lines: &[String], raw_lines: &[String]) -> Vec<FnSpan> {
    let mut offsets = Vec::with_capacity(lines.len());
    let mut text = String::new();
    for l in lines {
        offsets.push(text.len());
        text.push_str(l);
        text.push('\n');
    }
    let line_of = |pos: usize| -> usize {
        match offsets.binary_search(&pos) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    };
    let bytes = text.as_bytes();
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'f' && word_at(bytes, i, b"fn") {
            let kw = i;
            let mut j = i + 2;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            // `fn(` with no name is a fn-pointer type, not an item.
            let name_start = j;
            while j < bytes.len() && is_ident_byte(bytes[j]) {
                j += 1;
            }
            if j == name_start {
                i += 2;
                continue;
            }
            let name = text[name_start..j].to_string();
            // Scan to the body `{` or a terminating `;`. Parens and brackets
            // in the signature are skipped wholesale; `{` can't occur inside
            // a signature in this codebase's (non-exotic) Rust.
            let mut k = j;
            let mut paren = 0i32;
            let sig_end;
            loop {
                if k >= bytes.len() {
                    sig_end = None;
                    break;
                }
                match bytes[k] {
                    b'(' | b'[' => paren += 1,
                    b')' | b']' => paren -= 1,
                    b'{' if paren == 0 => {
                        sig_end = Some((k, true));
                        break;
                    }
                    b';' if paren == 0 => {
                        sig_end = Some((k, false));
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let Some((body_open, has_body)) = sig_end else {
                break;
            };
            let signature = text[kw..body_open]
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ");
            let start_line = line_of(kw);
            let end_line = if has_body {
                // Match braces to the body close.
                let mut depth = 0i32;
                let mut m = body_open;
                let mut close = body_open;
                while m < bytes.len() {
                    match bytes[m] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                close = m;
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
                line_of(close)
            } else {
                start_line
            };
            let has_panics_doc = doc_has_panics(raw_lines, start_line);
            fns.push(FnSpan {
                name,
                start_line,
                end_line,
                signature,
                has_panics_doc,
            });
            i = body_open + 1;
        } else {
            i += 1;
        }
    }
    fns
}

/// Walks upward from the line above the `fn` keyword through the item's doc
/// comments and attributes, returning true when a `/// # Panics` (or block
/// doc `# Panics`) line is present.
fn doc_has_panics(raw_lines: &[String], fn_line: usize) -> bool {
    let mut l = fn_line.saturating_sub(1); // index of the line above, 0-based+1
                                           // raw_lines is 0-based: line `fn_line` is raw_lines[fn_line - 1].
    while l >= 1 {
        let t = raw_lines[l - 1].trim();
        let is_doc = t.starts_with("///")
            || t.starts_with("//!")
            || t.starts_with('*')
            || t.starts_with("/**");
        let is_attr =
            t.starts_with("#[") || t.starts_with(")]") || t.ends_with(")]") || t.ends_with(']');
        let is_vis = t == "pub" || t.starts_with("pub(");
        if is_doc {
            if t.contains("# Panics") {
                return true;
            }
        } else if !(is_attr || is_vis || t.is_empty()) {
            // Not part of this item's header.
            return false;
        }
        if l == 1 {
            break;
        }
        l -= 1;
    }
    false
}

/// Parses allow directives out of the comment stream. Malformed directives
/// (missing rule or missing/empty reason) become deny-level meta findings.
fn parse_allows(
    rel: &str,
    comments: &[Comment],
    raw_lines: &[String],
    meta: &mut Vec<Finding>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        // Directives are plain `//` comments whose text begins with
        // `lsi-lint:`. Doc comments (`///`, `//!`, `/**`) mentioning the
        // syntax are prose, not directives.
        if c.text.starts_with("///") || c.text.starts_with("//!") || c.text.starts_with("/*") {
            continue;
        }
        let body = c.text.trim_start_matches('/').trim_start();
        let Some(rest) = body.strip_prefix("lsi-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow") else {
            meta.push(Finding::meta(
                rel,
                c.line,
                format!("malformed lsi-lint directive: expected `allow(<rule>, \"<reason>\")`, got `{}`", rest.trim()),
            ));
            continue;
        };
        let args = args.trim_start();
        let parsed = parse_allow_args(args);
        match parsed {
            Some((rule, reason)) if !reason.trim().is_empty() => {
                let applies_to = if c.has_code_before {
                    c.line
                } else {
                    next_code_line(raw_lines, c.line)
                };
                allows.push(Allow {
                    rule,
                    reason,
                    applies_to,
                });
            }
            Some((rule, _)) => {
                meta.push(Finding::meta(
                    rel,
                    c.line,
                    format!("lsi-lint: allow({rule}) needs a non-empty justification string"),
                ));
            }
            None => {
                meta.push(Finding::meta(
                    rel,
                    c.line,
                    "malformed lsi-lint allow: expected `allow(<rule>, \"<reason>\")`".to_string(),
                ));
            }
        }
    }
    allows
}

/// Parses `(<rule>, "<reason>")`, returning the rule id and reason.
fn parse_allow_args(args: &str) -> Option<(String, String)> {
    let inner = args.strip_prefix('(')?;
    let comma = inner.find(',')?;
    let rule = inner[..comma].trim().to_string();
    if rule.is_empty() || !rule.bytes().all(|b| is_ident_byte(b) || b == b'-') {
        return None;
    }
    let after = inner[comma + 1..].trim_start();
    let q1 = after.find('"')?;
    let q2 = after[q1 + 1..].find('"')?;
    let reason = after[q1 + 1..q1 + 1 + q2].to_string();
    Some((rule, reason))
}

/// First line at or after `after` (exclusive) holding real code — the line a
/// standalone allow directive suppresses.
fn next_code_line(raw_lines: &[String], after: usize) -> usize {
    let mut l = after + 1;
    while l <= raw_lines.len() {
        let t = raw_lines[l - 1].trim();
        if !t.is_empty() && !t.starts_with("//") {
            return l;
        }
        l += 1;
    }
    after
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\n";
        let ctx = FileContext::build("crates/x/src/lib.rs", src);
        assert!(!ctx.is_test_line(1));
        assert!(ctx.is_test_line(4));
    }

    #[test]
    fn fn_span_and_panics_doc() {
        let src = "/// Does a thing.\n///\n/// # Panics\n/// Panics when empty.\npub fn a(x: &[f64]) -> f64 {\n    x.first().unwrap() + 1.0\n}\nfn b() {\n    c();\n}\n";
        let ctx = FileContext::build("crates/x/src/lib.rs", src);
        let a = ctx.enclosing_fn(6).expect("fn a covers line 6");
        assert_eq!(a.name, "a");
        assert!(a.has_panics_doc);
        let b = ctx.enclosing_fn(9).expect("fn b covers line 9");
        assert_eq!(b.name, "b");
        assert!(!b.has_panics_doc);
    }

    #[test]
    fn allow_directive_attaches_to_next_line() {
        let src = "// lsi-lint: allow(D1, \"bench timing\")\nlet t = now();\nlet u = now(); // lsi-lint: allow(D1-nondeterminism, \"same line\")\n";
        let ctx = FileContext::build("crates/x/src/lib.rs", src);
        assert!(ctx.allowed("D1-nondeterminism", 2).is_some());
        assert!(ctx.allowed("D1-nondeterminism", 3).is_some());
        assert!(ctx.allowed("D2-unseeded-rng", 2).is_none());
        assert!(ctx.meta_findings.is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_meta_finding() {
        let src = "// lsi-lint: allow(D1, \"\")\nlet t = now();\n";
        let ctx = FileContext::build("crates/x/src/lib.rs", src);
        assert_eq!(ctx.meta_findings.len(), 1);
        assert_eq!(ctx.meta_findings[0].severity, Severity::Deny);
    }

    #[test]
    fn roles_classify_paths() {
        assert_eq!(classify("crates/lsi-core/src/index.rs"), Role::LibSrc);
        assert_eq!(
            classify("crates/lsi-linalg/tests/alloc_guard.rs"),
            Role::TestOrBench
        );
        assert_eq!(classify("examples/quickstart.rs"), Role::Example);
        assert_eq!(classify("crates/lsi-cli/src/main.rs"), Role::Bin);
        assert_eq!(classify("crates/lsi-bench/src/bin/reproduce.rs"), Role::Bin);
        assert_eq!(classify("perfbench/src/main.rs"), Role::TestOrBench);
        assert_eq!(classify("perfbench/src/workloads.rs"), Role::TestOrBench);
    }
}

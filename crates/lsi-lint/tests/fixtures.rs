//! Per-rule fixture tests: every rule must fire on its seeded-violation
//! fixture (`fixtures/fire/<rule>.rs`) and stay quiet on its near-miss
//! fixture (`fixtures/quiet/<rule>.rs`).

use lsi_lint::{lint_source, Severity};
use std::path::PathBuf;

/// (short name, full rule id) for every shipped rule.
const RULES: &[(&str, &str)] = &[
    ("c1", "C1-unpolled-hot-loop"),
    ("d1", "D1-nondeterminism"),
    ("d2", "D2-unseeded-rng"),
    ("d3", "D3-hasher-order"),
    ("e1", "E1-panic-policy"),
    ("k1", "K1-thread-dependent-blocking"),
    ("l1", "L1-lock-order-cycle"),
    ("m1", "M1-arrival-order-merge"),
    ("p1", "P1-raw-threads"),
    ("r1", "R1-reflector"),
    ("s1", "S1-unsynced-write"),
    ("s2", "S2-unchecked-length-alloc"),
    ("t1", "T1-unbounded-socket-read"),
    ("u1", "U1-unsafe"),
    ("w1", "W1-apply-before-journal"),
];

/// Lints `fixtures/<kind>/<name>.rs` under its real workspace-relative path
/// (which classifies as library source, so every rule applies).
fn lint_fixture(kind: &str, name: &str) -> Vec<lsi_lint::Finding> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
        .join(format!("{name}.rs"));
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let rel = format!("crates/lsi-lint/fixtures/{kind}/{name}.rs");
    lint_source(&rel, &src)
}

#[test]
fn every_rule_fires_on_its_fire_fixture() {
    for (name, rule) in RULES {
        let findings = lint_fixture("fire", name);
        let hits = findings.iter().filter(|f| f.rule == *rule).count();
        assert!(
            hits >= 1,
            "rule {rule} produced no findings on fixtures/fire/{name}.rs; got: {findings:#?}"
        );
    }
}

#[test]
fn every_rule_is_quiet_on_its_quiet_fixture() {
    for (name, rule) in RULES {
        let findings = lint_fixture("quiet", name);
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == *rule).collect();
        assert!(
            hits.is_empty(),
            "rule {rule} fired on fixtures/quiet/{name}.rs: {hits:#?}"
        );
    }
}

#[test]
fn quiet_tree_is_fully_clean() {
    // The quiet fixtures are also cross-checked against every *other* rule:
    // a near-miss for one rule must not trip a different one.
    for (name, _) in RULES {
        let findings = lint_fixture("quiet", name);
        assert!(
            findings.is_empty(),
            "fixtures/quiet/{name}.rs is not clean: {findings:#?}"
        );
    }
    assert!(lint_fixture("quiet", "a0").is_empty());
}

#[test]
fn fire_fixtures_carry_deny_findings() {
    // The seeded-violation tree must make the binary exit nonzero, which
    // requires at least one deny-severity finding among the fire fixtures.
    let mut deny = 0usize;
    for (name, _) in RULES {
        deny += lint_fixture("fire", name)
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count();
    }
    assert!(deny > 0, "fire fixtures produced no deny findings");
}

#[test]
fn warn_rules_have_warn_severity() {
    for (name, rule) in [
        ("c1", "C1-unpolled-hot-loop"),
        ("k1", "K1-thread-dependent-blocking"),
        ("l1", "L1-lock-order-cycle"),
        ("m1", "M1-arrival-order-merge"),
        ("r1", "R1-reflector"),
        ("s2", "S2-unchecked-length-alloc"),
        ("t1", "T1-unbounded-socket-read"),
    ] {
        let findings = lint_fixture("fire", name);
        let hit = findings
            .iter()
            .find(|f| f.rule == rule)
            .unwrap_or_else(|| panic!("{rule} missing from fire fixture"));
        assert_eq!(hit.severity, Severity::Warn, "{rule} must be warn-level");
    }
}

#[test]
fn malformed_allow_directives_fire_a0() {
    let findings = lint_fixture("fire", "a0");
    let a0: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "A0-allow-syntax")
        .collect();
    assert_eq!(
        a0.len(),
        3,
        "expected one A0 per malformed directive (missing reason, empty reason, wrong verb): {findings:#?}"
    );
    assert!(a0.iter().all(|f| f.severity == Severity::Deny));
    // Malformed directives must not suppress the underlying findings.
    assert!(
        findings.iter().any(|f| f.rule == "D1-nondeterminism"),
        "a malformed allow suppressed a D1 finding: {findings:#?}"
    );
}

#[test]
fn wellformed_allow_directives_suppress() {
    // quiet/a0.rs reads `process::id()` twice, suppressed by a standalone
    // directive (full rule id) and a trailing directive (short id).
    let findings = lint_fixture("quiet", "a0");
    assert!(
        findings.is_empty(),
        "well-formed allows failed to suppress: {findings:#?}"
    );
}

#[test]
fn every_registered_rule_has_fixture_coverage() {
    // Meta-test derived from the registries themselves, so adding a rule
    // without fixtures fails here rather than silently shipping untested.
    let mut ids: Vec<String> = lsi_lint::rules::registry()
        .iter()
        .map(|r| r.id().to_string())
        .collect();
    ids.extend(
        lsi_lint::rules::workspace_registry()
            .iter()
            .map(|r| r.id().to_string()),
    );
    assert!(!ids.is_empty());
    for id in &ids {
        let short = id
            .split('-')
            .next()
            .expect("rule ids start with a short code")
            .to_ascii_lowercase();
        for kind in ["fire", "quiet"] {
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("fixtures")
                .join(kind)
                .join(format!("{short}.rs"));
            assert!(
                path.is_file(),
                "rule {id} has no {kind} fixture at {}",
                path.display()
            );
        }
        let findings = lint_fixture("fire", &short);
        assert!(
            findings.iter().any(|f| f.rule == *id),
            "rule {id} does not fire on its fire fixture: {findings:#?}"
        );
        // Exactness: a fire fixture seeds one violation class; collateral
        // findings from other rules would make the fixture ambiguous.
        let others: Vec<_> = findings.iter().filter(|f| f.rule != *id).collect();
        assert!(
            others.is_empty(),
            "fixtures/fire/{short}.rs trips rules other than {id}: {others:#?}"
        );
        let quiet_hits: Vec<_> = lint_fixture("quiet", &short)
            .into_iter()
            .filter(|f| f.rule == *id)
            .collect();
        assert!(
            quiet_hits.is_empty(),
            "rule {id} fired on its quiet fixture: {quiet_hits:#?}"
        );
    }
}

#[test]
fn k1_flags_blocking_geometry_and_chunk_arithmetic() {
    // One rule polices size-only partitioning: both the GEMM panel lines
    // and the chunk-boundary division lines of the fire fixture trip it.
    let lines: Vec<usize> = lint_fixture("fire", "k1")
        .iter()
        .filter(|f| f.rule == "K1-thread-dependent-blocking")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![5, 10, 15, 20], "K1 findings by line");
}

#[test]
fn findings_report_real_lines() {
    // Spot-check diagnostics point at the violating line, not the fn header.
    let findings = lint_fixture("fire", "d1");
    let f = findings
        .iter()
        .find(|f| f.rule == "D1-nondeterminism")
        .expect("d1 fires");
    assert!(
        f.snippet.contains("::now()") || f.snippet.contains("process::id()"),
        "snippet should show the ambient read: {f:#?}"
    );
    assert!(f.line > 1);
}

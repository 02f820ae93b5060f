//! Fixture tests: one passing and one failing fixture per rule, plus
//! suppression behavior and false-positive guards.
//!
//! Fixture sources live under `tests/fixtures/` (cargo does not compile
//! files in test subdirectories) and are linted via [`lint_source`]
//! under a synthetic sim-driven context, exactly the code path the
//! workspace walk uses. The clauses clippy enforces have their fixtures
//! in `tests/fixtures/clippy/`, a crate of their own that CI lints.

use hetflow_lint::{lint_set, lint_source, FileContext, FileKind, RuleId};

/// Lints a fixture as if it were sim-driven library code.
fn lint_sim(source: &str) -> hetflow_lint::FileReport {
    let ctx = FileContext::new("sim", FileKind::LibSrc, "crates/sim/src/fixture.rs");
    lint_source(&ctx, source)
}

/// Lints a synthetic multi-file workspace (exercises R7–R12).
fn lint_workspace(inputs: Vec<(FileContext, &str)>) -> hetflow_lint::Report {
    let owned: Vec<(FileContext, String)> =
        inputs.into_iter().map(|(c, s)| (c, s.to_string())).collect();
    lint_set(&owned)
}

fn rules_of(report: &hetflow_lint::FileReport) -> Vec<RuleId> {
    report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn r6_bad_flags_ad_hoc_partial_cmp_calls() {
    let report = lint_sim(include_str!("fixtures/r6_bad.rs"));
    assert_eq!(rules_of(&report), vec![RuleId::R6], "{:?}", report.violations);
}

#[test]
fn r6_good_blesses_delegating_definitions_and_total_cmp() {
    let report = lint_sim(include_str!("fixtures/r6_good.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn reasoned_allow_suppresses_and_is_reported_as_such() {
    let report = lint_sim(include_str!("fixtures/allow_reasoned.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert!(report.bad_allows.is_empty());
    assert_eq!(report.suppressed[0].rule, RuleId::R6);
}

#[test]
fn reasonless_allow_is_a_violation_in_its_own_right() {
    let report = lint_sim(include_str!("fixtures/allow_reasonless.rs"));
    assert!(report.violations.is_empty(), "the hit itself is suppressed");
    assert_eq!(report.bad_allows.len(), 1, "{:?}", report.bad_allows);
    assert_eq!(report.bad_allows[0].rule, RuleId::BadAllow);
}

#[test]
fn lexer_torture_fixture_is_silent() {
    let report = lint_workspace(vec![(
        FileContext::new("sim", FileKind::LibSrc, "crates/sim/src/fixture.rs"),
        include_str!("fixtures/lexer_torture.rs"),
    )]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.suppressed.is_empty(), "{:?}", report.suppressed);
    assert!(report.bad_allows.is_empty(), "{:?}", report.bad_allows);
}

// ---- workspace-wide rules (R7–R9) --------------------------------------

#[test]
fn r7_duplicate_stream_names_across_files_flagged() {
    let report = lint_workspace(vec![
        (
            FileContext::new("steer", FileKind::LibSrc, "crates/steer/src/a.rs"),
            include_str!("fixtures/r7_collide_a.rs"),
        ),
        (
            FileContext::new("apps", FileKind::LibSrc, "crates/apps/src/b.rs"),
            include_str!("fixtures/r7_collide_b.rs"),
        ),
    ]);
    let r7: Vec<_> = report.violations.iter().filter(|v| v.rule == RuleId::R7).collect();
    assert_eq!(r7.len(), 2, "both colliding sites flagged: {:?}", report.violations);
    assert!(r7.iter().all(|v| v.message.contains("policy-noise")));
    assert!(
        !report.violations.iter().any(|v| v.message.contains("warmup-unique")),
        "unique stream names stay clean"
    );
}

#[test]
fn r8_registry_drift_flagged_in_both_directions() {
    let report = lint_workspace(vec![
        (
            FileContext::new("sim", FileKind::LibSrc, "crates/sim/src/trace.rs"),
            include_str!("fixtures/r8_registry.rs"),
        ),
        (
            FileContext::new("fabric", FileKind::LibSrc, "crates/fabric/src/htex.rs"),
            include_str!("fixtures/r8_emitters.rs"),
        ),
    ]);
    let r8: Vec<_> = report.violations.iter().filter(|v| v.rule == RuleId::R8).collect();
    assert_eq!(r8.len(), 3, "{:?}", report.violations);
    assert!(r8.iter().any(|v| v.message.contains("UNKNOWN_KIND")));
    assert!(r8.iter().any(|v| v.message.contains("ad_hoc_kind")));
    assert!(
        r8.iter().any(|v| v.message.contains("DEAD_KIND") && v.path.ends_with("trace.rs")),
        "never-emitted kind flagged at its declaration"
    );
}

#[test]
fn r8_skipped_when_no_registry_in_scope() {
    // Without a trace module in the set (fixture runs, partial trees),
    // emit sites cannot be judged and R8 must stay quiet.
    let report = lint_workspace(vec![(
        FileContext::new("fabric", FileKind::LibSrc, "crates/fabric/src/htex.rs"),
        include_str!("fixtures/r8_emitters.rs"),
    )]);
    assert!(
        !report.violations.iter().any(|v| v.rule == RuleId::R8),
        "{:?}",
        report.violations
    );
}

#[test]
fn r9_stale_suppression_flagged_live_one_kept() {
    let report = lint_workspace(vec![
        (
            FileContext::new("steer", FileKind::LibSrc, "crates/steer/src/stale.rs"),
            include_str!("fixtures/r9_stale.rs"),
        ),
        (
            // A live suppression (covers a real R6 hit) must NOT be
            // reported as stale.
            FileContext::new("sim", FileKind::LibSrc, "crates/sim/src/live.rs"),
            include_str!("fixtures/allow_reasoned.rs"),
        ),
        (
            FileContext::new("ml", FileKind::LibSrc, "crates/ml/src/rank.rs"),
            "fn rank(v: &mut [f64]) {\n    // hetlint: allow(r6) — NaN-free (obsolete)\n    \
             v.sort_by(f64::total_cmp);\n}\n",
        ),
    ]);
    let r9: Vec<_> = report.violations.iter().filter(|v| v.rule == RuleId::R9).collect();
    assert_eq!(r9.len(), 2, "{:?}", report.violations);
    // The fixture's allow(r3) names a retired rule: clippy's now.
    assert!(r9[0].path.ends_with("stale.rs"));
    assert!(r9[0].message.contains("allow(r3)") && r9[0].message.contains("clippy"));
    assert!(r9[1].path.ends_with("rank.rs"));
    assert!(r9[1].message.contains("allow(r6) no longer matches"));
    assert_eq!(report.suppressed.len(), 1, "the live allow still suppresses");
}

// ---- the clippy half of the contract ------------------------------------

/// The `name = "level"` lines of one TOML table.
fn toml_table(text: &str, header: &str) -> Vec<String> {
    let body = text.split(header).nth(1).unwrap_or("");
    let body = body.split("\n[").next().unwrap_or("");
    body.lines()
        .map(str::trim)
        .filter(|l| l.contains('=') && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn clippy_fixture_crate_denies_what_the_workspace_denies() {
    // An `#[expect]` is fulfilled whatever level Cargo.toml sets, so the
    // fixture crate proves clippy.toml but not the deny table: this pins
    // the table itself, in both manifests.
    let dir = env!("CARGO_MANIFEST_DIR");
    let read = |p: &str| std::fs::read_to_string(format!("{dir}/{p}")).expect("manifest reads");
    let workspace = toml_table(&read("../../Cargo.toml"), "[workspace.lints.clippy]");
    let fixture = toml_table(&read("tests/fixtures/clippy/Cargo.toml"), "[lints.clippy]");
    for lint in ["unwrap_used", "expect_used", "panic", "let_underscore_must_use"] {
        let line = format!("{lint} = \"deny\"");
        assert!(workspace.contains(&line), "workspace lints lack `{line}`: {workspace:?}");
        assert!(fixture.contains(&line), "fixture lints lack `{line}`: {fixture:?}");
    }
}

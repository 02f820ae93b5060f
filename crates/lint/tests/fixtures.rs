//! Fixture tests: one passing and one failing fixture per rule, plus
//! suppression behavior and false-positive guards.
//!
//! Fixture sources live under `tests/fixtures/` (cargo does not compile
//! files in test subdirectories) and are linted via [`lint_source`]
//! under a synthetic sim-driven context, exactly the code path the
//! workspace walk uses.

use hetflow_lint::{lint_set, lint_source, ratchet, FileContext, FileKind, RuleId};

/// Lints a fixture as if it were sim-driven library code.
fn lint_sim(source: &str) -> hetflow_lint::FileReport {
    let ctx = FileContext::new("sim", FileKind::LibSrc, "crates/sim/src/fixture.rs");
    lint_source(&ctx, source)
}

/// Lints a synthetic multi-file workspace (exercises R7–R9).
fn lint_workspace(inputs: Vec<(FileContext, &str)>) -> hetflow_lint::Report {
    let owned: Vec<(FileContext, String)> =
        inputs.into_iter().map(|(c, s)| (c, s.to_string())).collect();
    // Generous budgets: these tests are about the cross-file rules.
    let budgets = ratchet::parse("sim = 99\nsteer = 99\napps = 99\nfabric = 99\n").unwrap();
    lint_set(&owned, &budgets)
}

fn rules_of(report: &hetflow_lint::FileReport) -> Vec<RuleId> {
    report.violations.iter().map(|v| v.rule).collect()
}

/// The `(rule, line)` verdicts of a report, in report order.
fn hits_of(report: &hetflow_lint::FileReport) -> Vec<(RuleId, usize)> {
    report.violations.iter().map(|v| (v.rule, v.line)).collect()
}

/// Lints a fixture as fabric library code (R15's home turf).
fn lint_fabric(source: &str) -> hetflow_lint::FileReport {
    let ctx = FileContext::new("fabric", FileKind::LibSrc, "crates/fabric/src/relay.rs");
    lint_source(&ctx, source)
}

#[test]
fn r1_bad_flags_every_wall_clock_read() {
    let report = lint_sim(include_str!("fixtures/r1_bad.rs"));
    let rules = rules_of(&report);
    assert!(rules.iter().all(|r| *r == RuleId::R1), "{rules:?}");
    // Instant (use + call), SystemTime (use + call), thread::sleep.
    assert!(rules.len() >= 5, "expected ≥5 R1 hits, got {rules:?}");
}

#[test]
fn r1_good_is_clean_despite_comments_and_strings() {
    let report = lint_sim(include_str!("fixtures/r1_good.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn r1_covers_the_crates_sim_driven_code_calls_into() {
    // A wall-clock read in `ml` or `chem` reaches the trace through a
    // return value; drivers (`bench`) time themselves by design.
    let src = "fn f() -> f64 {\n    Instant::now().elapsed().as_secs_f64()\n}\n";
    for krate in ["ml", "chem"] {
        let rel = format!("crates/{krate}/src/fixture.rs");
        let report = lint_source(&FileContext::new(krate, FileKind::LibSrc, &rel), src);
        assert_eq!(hits_of(&report), [(RuleId::R1, 2)], "{krate}: {:?}", report.violations);
    }
    let ctx = FileContext::new("bench", FileKind::LibSrc, "crates/bench/src/fixture.rs");
    assert!(lint_source(&ctx, src).violations.is_empty());
}

#[test]
fn wall_clock_and_hash_order_flows_are_stopped_on_their_source_lines() {
    // R1 and R3 fire where the nondeterministic values are born, so
    // the flows into the sinks on lines 7 and 13 never get to exist.
    let report = lint_sim(include_str!("fixtures/r14_bad.rs"));
    assert_eq!(hits_of(&report), [(RuleId::R1, 5), (RuleId::R3, 12)], "{:?}", report.violations);
}

#[test]
fn r2_bad_flags_all_three_entropy_sources() {
    let report = lint_sim(include_str!("fixtures/r2_bad.rs"));
    let rules = rules_of(&report);
    assert_eq!(rules, vec![RuleId::R2, RuleId::R2, RuleId::R2], "{:?}", report.violations);
}

#[test]
fn r2_good_named_streams_are_clean() {
    let report = lint_sim(include_str!("fixtures/r2_good.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn r2_exempts_the_rng_module_itself() {
    let ctx = FileContext::new("sim", FileKind::LibSrc, "crates/sim/src/rng.rs");
    let report = lint_source(&ctx, include_str!("fixtures/r2_bad.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn r3_bad_flags_iteration_over_hash_containers() {
    let report = lint_sim(include_str!("fixtures/r3_bad.rs"));
    let rules = rules_of(&report);
    assert!(rules.iter().all(|r| *r == RuleId::R3), "{:?}", report.violations);
    // route.iter(), route.keys(), for s in &seen.
    assert!(rules.len() >= 3, "expected ≥3 R3 hits, got {:?}", report.violations);
}

#[test]
fn r3_good_keyed_lookup_and_btreemap_are_clean() {
    let report = lint_sim(include_str!("fixtures/r3_good.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn r3_does_not_apply_outside_sim_driven_crates() {
    let ctx = FileContext::new("ml", FileKind::LibSrc, "crates/ml/src/fixture.rs");
    let report = lint_source(&ctx, include_str!("fixtures/r3_bad.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn r4_bad_flags_os_thread_spawn() {
    let report = lint_sim(include_str!("fixtures/r4_bad.rs"));
    assert_eq!(rules_of(&report), vec![RuleId::R4], "{:?}", report.violations);
}

#[test]
fn r4_good_sim_spawn_is_clean() {
    let report = lint_sim(include_str!("fixtures/r4_good.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn r4_applies_to_ml() {
    let ctx = FileContext::new("ml", FileKind::LibSrc, "crates/ml/src/fixture.rs");
    let report = lint_source(&ctx, include_str!("fixtures/r4_bad.rs"));
    assert_eq!(rules_of(&report), vec![RuleId::R4], "{:?}", report.violations);
}

#[test]
fn r5_counts_library_sites_minus_annotations_and_tests() {
    let report = lint_sim(include_str!("fixtures/r5_budget.rs"));
    // Three countable sites (two unwrap/expect, one panic!): the
    // annotated one and the two inside #[cfg(test)] are excluded.
    assert_eq!(report.unwrap_sites.len(), 3, "{:?}", report.unwrap_sites);
}

#[test]
fn r5_ignores_non_library_files() {
    let ctx = FileContext::new("sim", FileKind::Test, "crates/sim/tests/fixture.rs");
    let report = lint_source(&ctx, include_str!("fixtures/r5_budget.rs"));
    assert!(report.unwrap_sites.is_empty());
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
fn r15_bad_discard_is_reported_at_the_let() {
    let report = lint_fabric(include_str!("fixtures/r15_bad.rs"));
    assert_eq!(hits_of(&report), [(RuleId::R15, 6)], "{:?}", report.violations);
    assert!(
        report.violations[0].message.starts_with(
            "`fabric::relay::relay` discards the Result of `inner.tasks.send_now()` at line 6; "
        ),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn r15_good_propagated_and_non_effect_discard_are_clean() {
    let report = lint_fabric(include_str!("fixtures/r15_good.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn r15_sees_inside_async_blocks_and_closures() {
    // `async move` blocks and closure bodies are where this tree's
    // actors live; a rule that stopped at fn level would see line 5 only.
    let report = lint_fabric(include_str!("fixtures/r15_nested_bad.rs"));
    assert_eq!(
        hits_of(&report),
        [(RuleId::R15, 5), (RuleId::R15, 10), (RuleId::R15, 16)],
        "{:?}",
        report.violations
    );
    assert!(report.violations[1].message.contains("`fabric::relay::in_async_block`"));
}

#[test]
fn r15_honours_same_line_and_line_above_allows() {
    let src = "fn teardown(a: Tx, b: Tx) {\n    \
               let _ = a.send_now(1); // hetlint: allow(r15) — peer may be gone at teardown\n    \
               // hetlint: allow(r15) — peer may be gone at teardown\n    \
               let _ = b.send_now(2);\n    \
               let _ = a.send_now(3);\n}\n";
    let report = lint_fabric(src);
    assert_eq!(hits_of(&report), [(RuleId::R15, 5)], "{:?}", report.violations);
    let suppressed: Vec<usize> = report.suppressed.iter().map(|v| v.line).collect();
    assert_eq!(suppressed, [2, 4]);
    assert!(report.bad_allows.is_empty());
}

#[test]
fn r15_polices_pre_test_library_code_of_sim_driven_crates_only() {
    let src = "fn f(tx: Tx) {}\n#[cfg(test)]\nmod tests {\n    fn g(tx: Tx) {\n        \
               let _ = tx.send_now(1);\n    }\n}\n";
    assert!(lint_fabric(src).violations.is_empty(), "test modules may discard freely");
    let bad = include_str!("fixtures/r15_bad.rs");
    for krate in ["bench", "ml"] {
        let rel = format!("crates/{krate}/src/fixture.rs");
        let report = lint_source(&FileContext::new(krate, FileKind::LibSrc, &rel), bad);
        assert!(report.violations.is_empty(), "{krate}: {:?}", report.violations);
    }
    let ctx = FileContext::new("fabric", FileKind::Test, "crates/fabric/tests/relay.rs");
    assert!(lint_source(&ctx, bad).violations.is_empty(), "integration tests too");
}

#[test]
fn reasoned_allow_suppresses_and_is_reported_as_such() {
    let report = lint_sim(include_str!("fixtures/allow_reasoned.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert!(report.bad_allows.is_empty());
    assert_eq!(report.suppressed[0].rule, RuleId::R1);
}

#[test]
fn reasonless_allow_is_a_violation_in_its_own_right() {
    let report = lint_sim(include_str!("fixtures/allow_reasonless.rs"));
    assert!(report.violations.is_empty(), "the hit itself is suppressed");
    assert_eq!(report.bad_allows.len(), 1, "{:?}", report.bad_allows);
    assert_eq!(report.bad_allows[0].rule, RuleId::BadAllow);
}

// ---- regressions the substring scanner got wrong -----------------------

#[test]
fn r1_aliased_import_call_site_caught() {
    // Old scanner: only the `use std::time::Instant` line matched; the
    // call through the `Wall` alias was invisible.
    let report = lint_sim(include_str!("fixtures/r1_alias_bad.rs"));
    let rules = rules_of(&report);
    assert!(rules.iter().all(|r| *r == RuleId::R1), "{:?}", report.violations);
    assert!(
        report.violations.iter().any(|v| v.line == 9 && v.message.contains("Wall")),
        "Wall::now() call site must be flagged: {:?}",
        report.violations
    );
}

#[test]
fn r3_three_line_chain_caught() {
    // Old scanner: the 2-line join window missed `route\n.borrow()\n.iter()`.
    let report = lint_sim(include_str!("fixtures/r3_multiline_bad.rs"));
    assert_eq!(rules_of(&report), vec![RuleId::R3], "{:?}", report.violations);
    assert_eq!(report.violations[0].line, 9, "anchored on the container name");
}

#[test]
fn r3_for_over_keys_reported_exactly_once() {
    // Old scanner: `for k in route.keys()` fired both the method check
    // and the for-in check — two reports for one loop.
    let report = lint_sim(include_str!("fixtures/r3_single_report.rs"));
    assert_eq!(rules_of(&report), vec![RuleId::R3], "{:?}", report.violations);
}

#[test]
fn r3_name_tracking_handles_ascription_and_tuples() {
    let report = lint_sim(include_str!("fixtures/r3_names.rs"));
    let rules = rules_of(&report);
    assert_eq!(rules, vec![RuleId::R3, RuleId::R3], "{:?}", report.violations);
    // The two real containers are flagged; `scores` (a Vec of maps, the
    // old false positive) and `order` (a BTreeMap) are not.
    for v in &report.violations {
        assert!(
            v.message.contains("`m`") || v.message.contains("`lookup`"),
            "unexpected: {v}"
        );
    }
}

#[test]
fn lexer_torture_fixture_is_silent() {
    let report = lint_sim(include_str!("fixtures/lexer_torture.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.suppressed.is_empty(), "{:?}", report.suppressed);
    assert!(report.bad_allows.is_empty(), "{:?}", report.bad_allows);
    assert!(report.unwrap_sites.is_empty(), "{:?}", report.unwrap_sites);
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
            // A live suppression (covers a real R1 hit) must NOT be
            // reported as stale.
            FileContext::new("sim", FileKind::LibSrc, "crates/sim/src/live.rs"),
            include_str!("fixtures/allow_reasoned.rs"),
        ),
    ]);
    let r9: Vec<_> = report.violations.iter().filter(|v| v.rule == RuleId::R9).collect();
    assert_eq!(r9.len(), 1, "{:?}", report.violations);
    assert!(r9[0].path.ends_with("stale.rs"));
    assert!(r9[0].message.contains("allow(r3)"));
    assert_eq!(report.suppressed.len(), 1, "the live allow still suppresses");
}

#[test]
fn json_report_round_trips() {
    use hetflow_lint::json;
    let report = lint_workspace(vec![
        (
            FileContext::new("sim", FileKind::LibSrc, "crates/sim/src/trace.rs"),
            include_str!("fixtures/r8_registry.rs"),
        ),
        (
            FileContext::new("fabric", FileKind::LibSrc, "crates/fabric/src/htex.rs"),
            include_str!("fixtures/r8_emitters.rs"),
        ),
        (
            FileContext::new("steer", FileKind::LibSrc, "crates/steer/src/stale.rs"),
            include_str!("fixtures/r9_stale.rs"),
        ),
    ]);
    let doc = json::report_to_json(&report);
    let v = json::parse(&doc).expect("serializer output must parse");
    assert_eq!(v.get("tool").and_then(json::Value::as_str), Some("hetlint"));
    assert_eq!(v.get("clean").and_then(json::Value::as_bool), Some(false));
    let parsed_violations = v
        .get("violations")
        .and_then(json::Value::as_arr)
        .expect("violations array");
    assert_eq!(parsed_violations.len(), report.violations.len());
    for (parsed, orig) in parsed_violations.iter().zip(&report.violations) {
        assert_eq!(parsed.get("rule").and_then(json::Value::as_str), Some(orig.rule.key()));
        assert_eq!(
            parsed.get("line").and_then(json::Value::as_u64),
            Some(orig.line as u64)
        );
        assert_eq!(
            parsed.get("message").and_then(json::Value::as_str),
            Some(orig.message.as_str())
        );
    }
    assert_eq!(
        v.get("files_scanned").and_then(json::Value::as_u64),
        Some(report.files_scanned as u64)
    );
}

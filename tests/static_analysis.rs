//! Tier-1 gate: the hetlint determinism contract must hold for every
//! source file in the workspace.
//!
//! This is the same pass `cargo run -p hetflow-lint` performs, embedded
//! as an integration test so a wall-clock read, ambient entropy source,
//! hash-order iteration, stray thread spawn, unwrap-budget overrun,
//! ad-hoc float ordering, seed-stream name collision (R7), trace-kind
//! registry drift (R8), stale suppression (R9), any interprocedural
//! finding — ambient I/O reachable from the simulation (R10), inverted
//! lock orders (R11), a SimRng crossing a thread boundary (R12), a
//! panic site reachable from fabric dispatch over budget (R13) — or a
//! discarded fabric-effect Result (R15) fails `cargo test` directly.
//! See DESIGN.md "Determinism rules" for the rule catalogue and the
//! `// hetlint: allow(<rule>) — <reason>` suppression syntax.

use std::path::Path;

#[test]
fn workspace_obeys_determinism_contract() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = hetflow_lint::run(root).expect("workspace walk failed");
    assert!(report.files_scanned > 50, "walk found too few files: {}", report.files_scanned);
    let mut failures = String::new();
    for v in report.violations.iter().chain(&report.bad_allows) {
        failures.push_str(&format!("  {v}\n"));
    }
    for (name, count, budget) in &report.unwrap_rows {
        if count > budget {
            failures.push_str(&format!(
                "  crate `{name}`: {count} unwrap()/expect()/panic!() sites exceed budget {budget}\n"
            ));
        }
    }
    assert!(
        report.clean(),
        "hetlint violations (see DESIGN.md \"Determinism rules\"):\n{failures}"
    );
}

#[test]
fn suppressions_all_carry_reasons() {
    // `clean()` already folds bad allows in; this test documents the
    // invariant separately so a reason-less allow names itself.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = hetflow_lint::run(root).expect("workspace walk failed");
    let bad: Vec<String> = report.bad_allows.iter().map(|v| v.to_string()).collect();
    assert!(bad.is_empty(), "reason-less hetlint allows:\n{}", bad.join("\n"));
}

#[test]
fn trace_kind_registry_is_parsed_from_the_real_module() {
    // R8 silently skips when no registry is in scope, so this pins the
    // extraction against the real crates/sim/src/trace.rs: if the
    // declaration shape ever drifts from `const NAME: &str = "kind";`,
    // this fails rather than R8 going quiet.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("crates/sim/src/trace.rs");
    let source = std::fs::read_to_string(&path).expect("read trace.rs");
    let ctx = hetflow_lint::classify("crates/sim/src/trace.rs").expect("classify trace.rs");
    assert!(ctx.is_trace_module());
    let linted = hetflow_lint::lint_file(&ctx, &source);
    assert!(
        linted.registry.len() >= 7,
        "trace-kind registry extraction broke: found {:?}",
        linted.registry
    );
}

#[test]
fn ratchet_file_present_and_well_formed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let budgets = hetflow_lint::ratchet::load(root).expect("hetlint.ratchet must load");
    assert!(budgets.budget_for("sim").is_some(), "sim missing from hetlint.ratchet");
    assert_eq!(
        budgets.budget_for("lint"),
        Some(0),
        "the lint crate polices itself at budget 0"
    );
}

#[test]
fn reachable_panics_ratchet_is_enforced_on_the_real_tree() {
    // R13 accounting: the reserved `reachable-panics` key must be
    // present in hetlint.ratchet, and the real workspace must sit at or
    // under it. A new unwrap on the dispatch path fails here with its
    // witness chain, not in some later CI stage.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let budgets = hetflow_lint::ratchet::load(root).expect("hetlint.ratchet must load");
    let report = hetflow_lint::run(root).expect("workspace walk failed");
    let (count, budget) = report
        .reachable_panics
        .expect("fabric dispatch exists, so R13 must have run");
    assert_eq!(budget, budgets.reachable_panics, "report uses the ratchet's budget");
    assert!(
        count <= budget,
        "{count} panic sites reachable from fabric dispatch exceed the \
         reachable-panics budget of {budget} (see the R13 witness chains \
         in `cargo run -p hetflow-lint`)"
    );
}

#[test]
fn r15_census_of_the_real_tree_is_four_reasoned_discards() {
    // R15 has no budget: every `let _ =` on a fabric effect is either
    // handled or carries a reasoned allow(r15). This pins the census so
    // a fifth discard — or the rule going blind to the three that sit
    // inside `spawn_detached(async move { … })` actor bodies — fails
    // here by name.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = hetflow_lint::run(root).expect("workspace walk failed");
    let r15 = |hits: &[hetflow_lint::Violation]| -> Vec<String> {
        let hits = hits.iter().filter(|v| v.rule == hetflow_lint::RuleId::R15);
        hits.map(|v| v.to_string()).collect()
    };
    let open = r15(&report.violations);
    assert!(open.is_empty(), "unsuppressed fabric-effect discards:\n{}", open.join("\n"));
    let allowed = r15(&report.suppressed);
    let in_file = |path: &str| allowed.iter().filter(|v| v.starts_with(path)).count();
    assert_eq!(allowed.len(), 4, "{allowed:#?}");
    assert_eq!(in_file("crates/fabric/src/dispatch.rs:"), 1, "Inner::finish: {allowed:#?}");
    assert_eq!(in_file("crates/steer/src/queues.rs:"), 3, "the queue actors: {allowed:#?}");
}

#[test]
fn callgraph_json_of_real_workspace_round_trips() {
    // The CI artifact is `hetlint --callgraph --format json`; this is
    // the same serialize→parse round trip over the real tree, plus a
    // pin that the graph actually spans the workspace.
    use hetflow_lint::json;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let graph = hetflow_lint::run_all(root).expect("workspace walk failed").graph;
    assert!(graph.nodes.len() > 300, "graph too small: {} nodes", graph.nodes.len());
    let doc = json::graph_to_json(&graph);
    let v = json::parse(&doc).expect("call-graph JSON must parse");
    assert_eq!(
        v.get("tool").and_then(json::Value::as_str),
        Some("hetlint-callgraph")
    );
    let nodes = v.get("nodes").and_then(json::Value::as_arr).expect("nodes array");
    assert_eq!(nodes.len(), graph.nodes.len());
    let edges = v.get("edges").and_then(json::Value::as_arr).expect("edges array");
    let n_edges: usize = graph.edges.iter().map(Vec::len).sum();
    assert_eq!(edges.len(), n_edges, "one [from, to] pair per edge");
    // Every edge endpoint must be a valid node id.
    for pair in edges {
        let pair = pair.as_arr().expect("edge is a [from, to] pair");
        assert_eq!(pair.len(), 2);
        for end in pair {
            let id = end.as_u64().expect("edge endpoint is an id") as usize;
            assert!(id < nodes.len(), "dangling edge endpoint {id}");
        }
    }
    // The dispatch entries R10/R13 anchor on must be present by qname.
    assert!(
        nodes.iter().any(|n| {
            n.get("qname").and_then(json::Value::as_str)
                .is_some_and(|q| q.ends_with("fabric::dispatch::Dispatcher::submit"))
        }),
        "fabric dispatch nodes missing from the call graph"
    );
}

#[test]
fn json_report_of_real_workspace_round_trips() {
    // The CI gate consumes `hetlint --format json`; this is the same
    // serialize→parse round trip over the real tree.
    use hetflow_lint::json;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = hetflow_lint::run(root).expect("workspace walk failed");
    let doc = json::report_to_json(&report);
    let v = json::parse(&doc).expect("report JSON must parse");
    assert_eq!(v.get("tool").and_then(json::Value::as_str), Some("hetlint"));
    assert_eq!(
        v.get("clean").and_then(json::Value::as_bool),
        Some(report.clean())
    );
    assert_eq!(
        v.get("files_scanned").and_then(json::Value::as_u64),
        Some(report.files_scanned as u64)
    );
    let rows = v
        .get("unwrap_budget")
        .and_then(json::Value::as_arr)
        .expect("unwrap_budget array");
    assert_eq!(rows.len(), report.unwrap_rows.len());
    for (row, (name, count, budget)) in rows.iter().zip(&report.unwrap_rows) {
        assert_eq!(row.get("crate").and_then(json::Value::as_str), Some(name.as_str()));
        assert_eq!(row.get("count").and_then(json::Value::as_u64), Some(*count as u64));
        assert_eq!(row.get("budget").and_then(json::Value::as_u64), Some(*budget as u64));
        assert_eq!(
            row.get("over").and_then(json::Value::as_bool),
            Some(count > budget)
        );
    }
}

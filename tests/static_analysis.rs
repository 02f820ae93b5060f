//! Tier-1 gate: the hetlint half of the determinism contract must hold
//! for every source file in the workspace.
//!
//! This is the same pass `cargo run -p hetflow-lint` performs, embedded
//! as an integration test so ad-hoc float ordering (R6), a seed-stream
//! name collision (R7), trace-kind registry drift (R8), a stale
//! suppression (R9), or any interprocedural finding — ambient I/O
//! reachable from the simulation (R10), inverted lock orders (R11), a
//! SimRng crossing a thread boundary (R12) — fails `cargo test`
//! directly. The per-token clauses (wall clock, entropy, hash order,
//! threads, unwraps, discarded effects) are clippy's: `cargo clippy
//! --workspace --all-targets -- -D warnings`. See DESIGN.md §7 for the
//! clause → enforcer table and the
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
    assert!(report.clean(), "hetlint violations (see DESIGN.md §7):\n{failures}");
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
fn callgraph_of_real_workspace_spans_the_dispatch_path() {
    // The graph R10–R12 run over (`hetlint --callgraph`) must span the
    // workspace, hold only valid edges, and contain the dispatch entry
    // R10 anchors on.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let graph = hetflow_lint::run_all(root).expect("workspace walk failed").graph;
    assert!(graph.nodes.len() > 300, "graph too small: {} nodes", graph.nodes.len());
    assert_eq!(graph.edges.len(), graph.nodes.len(), "one adjacency row per node");
    for (from, row) in graph.edges.iter().enumerate() {
        assert!(row.iter().all(|&to| to < graph.nodes.len()), "dangling edge from {from}");
    }
    assert!(
        graph
            .nodes
            .iter()
            .any(|n| n.qname.ends_with("fabric::dispatch::Dispatcher::submit")),
        "fabric dispatch nodes missing from the call graph"
    );
}

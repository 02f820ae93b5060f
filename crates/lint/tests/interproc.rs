//! Interprocedural fixture tests (R10–R13): a good/bad pair per rule,
//! exact witness-path assertions, and a multi-file cross-crate set.
//!
//! Everything here goes through [`lint_set`] — the per-file pass plus
//! the workspace cross-check — because the interprocedural rules only
//! exist at the set level: a lone `println!` is legal until the call
//! graph proves a simulation entry point reaches it.

use hetflow_lint::graph::CallGraph;
use hetflow_lint::{
    lint_set, lint_set_all, ratchet, FileContext, FileKind, Report, RuleId, Violation,
};

fn inputs(files: Vec<(&str, &str, &str)>) -> Vec<(FileContext, String)> {
    files
        .into_iter()
        .map(|(krate, rel, src)| {
            (FileContext::new(krate, FileKind::LibSrc, rel), src.to_string())
        })
        .collect()
}

fn lint(files: Vec<(&str, &str, &str)>, budgets: &str) -> Report {
    let budgets = ratchet::parse(budgets).expect("fixture ratchet parses");
    lint_set(&inputs(files), &budgets)
}

fn rule_hits(report: &Report, rule: RuleId) -> Vec<&Violation> {
    report.violations.iter().filter(|v| v.rule == rule).collect()
}

// ---- R10 sim-purity -----------------------------------------------------

#[test]
fn r10_bad_witness_chain_names_every_hop() {
    let report = lint(
        vec![("sim", "crates/sim/src/purity.rs", include_str!("fixtures/r10_bad.rs"))],
        "",
    );
    let r10 = rule_hits(&report, RuleId::R10);
    assert_eq!(r10.len(), 1, "{:?}", report.violations);
    assert_eq!(r10[0].line, 13, "anchored on the println! sink");
    assert!(
        r10[0].message.contains(
            "via sim::purity::actor -> sim::purity::run_step -> sim::purity::record_outcome"
        ),
        "witness path wrong: {}",
        r10[0].message
    );
}

#[test]
fn r10_good_tracer_and_unreachable_console_are_clean() {
    let report = lint(
        vec![("sim", "crates/sim/src/purity.rs", include_str!("fixtures/r10_good.rs"))],
        "",
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.clean(), "sink exists but no entry reaches it");
}

// ---- R11 lock discipline ------------------------------------------------

#[test]
fn r11_bad_inverted_orders_flagged_on_both_sides() {
    let report = lint(
        vec![("sim", "crates/sim/src/locks.rs", include_str!("fixtures/r11_bad.rs"))],
        "",
    );
    // R11 owns only the lock-order inversion; the guards the same
    // fixture holds across blocking calls are not its business.
    assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
    let r11 = rule_hits(&report, RuleId::R11);
    assert!(
        r11.iter().any(|v| v.line == 25
            && v.message.contains("`reg` then `shard` here")
            && v.message.contains("crates/sim/src/locks.rs:32")),
        "forward side of the inversion: {r11:?}"
    );
    assert!(
        r11.iter().any(|v| v.line == 32
            && v.message.contains("`shard` then `reg` here")
            && v.message.contains("crates/sim/src/locks.rs:25")),
        "backward side of the inversion: {r11:?}"
    );
}

#[test]
fn r11_good_drop_before_wait_and_one_order_are_clean() {
    let report = lint(
        vec![("sim", "crates/sim/src/locks.rs", include_str!("fixtures/r11_good.rs"))],
        "",
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

// ---- R12 RNG-stream provenance ------------------------------------------

#[test]
fn r12_bad_container_escape_and_channel_send() {
    let report = lint(
        vec![("steer", "crates/steer/src/rngleak.rs", include_str!("fixtures/r12_bad.rs"))],
        "",
    );
    let r12 = rule_hits(&report, RuleId::R12);
    assert_eq!(r12.len(), 2, "{r12:?}");
    assert!(
        r12.iter().any(|v| v.line == 5 && v.message.contains("`Arc<..>`")),
        "Arc<SimRng> field: {r12:?}"
    );
    assert!(
        r12.iter().any(|v| v.line == 10
            && v.message.contains("`worker_rng`")
            && v.message.contains("steer::rngleak::leak_stream")),
        "substream sent through a channel: {r12:?}"
    );
}

#[test]
fn r12_good_seed_crosses_stream_derived_on_receiving_side() {
    let report = lint(
        vec![("steer", "crates/steer/src/rngplumb.rs", include_str!("fixtures/r12_good.rs"))],
        "",
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

// ---- R13 panic reachability ---------------------------------------------

#[test]
fn r13_bad_over_budget_reports_site_with_witness() {
    let report = lint(
        vec![(
            "fabric",
            "crates/fabric/src/dispatchpath.rs",
            include_str!("fixtures/r13_bad.rs"),
        )],
        "fabric = 9\n",
    );
    assert_eq!(report.reachable_panics, Some((1, 0)));
    let r13 = rule_hits(&report, RuleId::R13);
    assert_eq!(r13.len(), 1, "{:?}", report.violations);
    assert_eq!(r13[0].line, 12, "anchored on the unwrap");
    assert!(
        r13[0]
            .message
            .contains("via fabric::dispatchpath::Htex::submit -> fabric::dispatchpath::enqueue"),
        "witness path wrong: {}",
        r13[0].message
    );
    assert!(!report.clean());
}

#[test]
fn r13_good_typed_path_plus_reasoned_allow_is_clean() {
    let report = lint(
        vec![(
            "fabric",
            "crates/fabric/src/dispatchpath.rs",
            include_str!("fixtures/r13_good.rs"),
        )],
        "",
    );
    assert_eq!(report.reachable_panics, Some((0, 0)));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.bad_allows.is_empty(), "the allow carries a reason");
    assert!(report.clean());
}

// ---- multi-file cross-crate set -----------------------------------------

fn cross_crate_set() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("fabric", "crates/fabric/src/htex.rs", include_str!("fixtures/set_fabric.rs")),
        ("store", "crates/store/src/blob.rs", include_str!("fixtures/set_store.rs")),
        ("steer", "crates/steer/src/select.rs", include_str!("fixtures/set_steer.rs")),
    ]
}

#[test]
fn set_r10_witness_crosses_three_files() {
    let report = lint(cross_crate_set(), "store = 9\nreachable-panics = 1\n");
    let r10 = rule_hits(&report, RuleId::R10);
    assert_eq!(r10.len(), 1, "{:?}", report.violations);
    assert!(r10[0].path.ends_with("blob.rs"), "flagged at the sink, not the entry");
    assert_eq!(r10[0].line, 11);
    assert!(
        r10[0].message.contains(
            "via fabric::htex::Htex::submit -> fabric::htex::stage -> \
             store::blob::fetch -> store::blob::audit"
        ),
        "witness path wrong: {}",
        r10[0].message
    );
}

#[test]
fn set_r13_within_budget_notes_over_budget_fires() {
    let within = lint(cross_crate_set(), "store = 9\nreachable-panics = 1\n");
    assert_eq!(within.reachable_panics, Some((1, 1)));
    assert!(rule_hits(&within, RuleId::R13).is_empty(), "{:?}", within.violations);
    assert!(
        within
            .notes
            .iter()
            .any(|n| n.contains("within budget") && n.contains("store::blob::fetch")),
        "within-budget sites surface as notes: {:?}",
        within.notes
    );

    let over = lint(cross_crate_set(), "store = 9\n");
    assert_eq!(over.reachable_panics, Some((1, 0)));
    let r13 = rule_hits(&over, RuleId::R13);
    assert_eq!(r13.len(), 1, "{:?}", over.violations);
    assert!(r13[0].path.ends_with("blob.rs"));
    assert_eq!(r13[0].line, 5, "anchored on the unwrap in fetch");
}

#[test]
fn set_callgraph_json_round_trips() {
    use hetflow_lint::json;
    let budgets = ratchet::parse("store = 9\nreachable-panics = 1\n").unwrap();
    let graph = lint_set_all(&inputs(cross_crate_set()), &budgets).graph;
    let doc = json::graph_to_json(&graph);
    let v = json::parse(&doc).expect("graph serializer output must parse");
    assert_eq!(v.get("tool").and_then(json::Value::as_str), Some("hetlint-callgraph"));
    let nodes = v.get("nodes").and_then(json::Value::as_arr).expect("nodes array");
    assert_eq!(nodes.len(), graph.nodes.len());
    assert!(
        nodes.iter().any(|n| {
            n.get("qname").and_then(json::Value::as_str) == Some("store::blob::fetch")
        }),
        "cross-crate node present in the JSON"
    );
    let edges = v.get("edges").and_then(json::Value::as_arr).expect("edges array");
    let n_edges: usize = graph.edges.iter().map(Vec::len).sum();
    assert_eq!(edges.len(), n_edges, "one [from, to] pair per edge");
}

// ---- call-graph shape: `impl Trait` signatures, typed receivers ----------

fn impl_sig_set() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("fabric", "crates/fabric/src/relay.rs", include_str!("fixtures/impl_sig_param.rs")),
        ("store", "crates/store/src/table.rs", include_str!("fixtures/impl_sig_return.rs")),
        ("sim", "crates/sim/src/symbols.rs", include_str!("fixtures/typed_recv_sim.rs")),
        ("steer", "crates/steer/src/done.rs", include_str!("fixtures/typed_recv_steer.rs")),
    ]
}

fn graph_of(files: Vec<(&str, &str, &str)>) -> CallGraph {
    lint_set_all(&inputs(files), &ratchet::parse("").expect("empty ratchet")).graph
}

/// Callee qnames of `qname`, which must be a node.
fn callees<'a>(g: &'a CallGraph, qname: &str) -> Vec<&'a str> {
    let n = g
        .nodes
        .iter()
        .position(|n| n.qname == qname)
        .unwrap_or_else(|| panic!("`{qname}` is not a call-graph node"));
    g.edges[n].iter().map(|&m| g.nodes[m].qname.as_str()).collect()
}

#[test]
fn impl_trait_parameter_fn_is_a_node_with_its_callees() {
    let g = graph_of(impl_sig_set());
    assert_eq!(callees(&g, "fabric::relay::Relay::submit"), ["fabric::relay::Relay::on_result"]);
    assert_eq!(callees(&g, "fabric::relay::Relay::on_result"), ["sim::symbols::slot_of"]);
}

#[test]
fn impl_trait_return_fn_is_a_node_with_its_callees() {
    let g = graph_of(impl_sig_set());
    // `keep` is passed by name, not called: the only call in the body
    // is the `rows` method, which no fixture type implements.
    assert!(callees(&g, "store::table::pending").is_empty());
    // The header did not swallow the items after it.
    assert_eq!(callees(&g, "store::table::keep"), ["store::table::audit"]);
}

#[test]
fn typed_parameter_receiver_resolves_to_its_declared_type_only() {
    let g = graph_of(impl_sig_set());
    assert_eq!(callees(&g, "sim::symbols::slot_of"), ["sim::symbols::Symbol::id"]);
    let both = ["sim::symbols::Symbol::id", "steer::done::Done::id"];
    assert_eq!(callees(&g, "sim::symbols::slot_of_any"), both, "no declared type: every `id`");
    assert_eq!(callees(&g, "sim::symbols::slot_of_rebound"), both, "shadowed parameter");
    // End to end: dispatch reaches `slot_of` through the `impl`-signature
    // method, and the unwrap in another crate's `Done::id` is not on
    // that path.
    let report = lint(impl_sig_set(), "steer = 1\n");
    assert_eq!(report.reachable_panics, Some((0, 0)), "{:?}", report.violations);
    assert!(report.clean(), "{:?}", report.violations);
}

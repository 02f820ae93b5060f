//! The interprocedural rules R10–R13, built on the workspace call
//! graph.
//!
//! Per-file rules can see a `println!`; only a whole-workspace pass can
//! see that the function containing it is *reachable from the
//! simulation*. These four rules each combine the parser's per-function
//! raw material with [`crate::graph`] reachability:
//!
//! - **R10 sim-purity** — functions reachable from DES entry points
//!   (async fns and spawning fns in sim-driven crates, plus the fabric
//!   dispatch path) must not reach ambient I/O: `std::fs`, `std::env`,
//!   `std::net`, the std streams, or the print macros. The `Tracer` is
//!   the one sanctioned side channel, so `crates/sim/src/trace.rs` is
//!   sink-exempt. Every violation prints the concrete witness call
//!   chain.
//! - **R11 lock-discipline** — two locks must never be acquired in
//!   inverted orders in different functions. (A guard held across an
//!   `.await` is `clippy::await_holding_lock`'s, denied workspace-wide.)
//! - **R12 rng-provenance** — a `SimRng` handle must not be stored in a
//!   thread-crossing container type (`Arc`, `Mutex`, channel endpoints)
//!   or passed through a channel send. Streams are derived by name and
//!   move by ownership; smuggling one across a thread boundary breaks
//!   substream provenance.
//! - **R13 panic-reach** — every `unwrap()`/`expect()`/`panic!()` site
//!   transitively reachable from fabric dispatch is accounted against
//!   the `reachable-panics` budget in `hetlint.ratchet`. Sites under a
//!   reasoned `allow(r5)` are exempt — the same annotation serves both
//!   rules, because both police the same contract: runtime faults take
//!   the typed failure path, only invariant violations may abort.

use crate::graph::{self, CallGraph};
use crate::ratchet::Ratchet;
use crate::scan;
use crate::{LintedFile, RuleId, Violation};

/// Fabric functions that sit on the dispatch path: every task delivery
/// funnels through these, so they anchor both R10 and R13 entry sets.
const FABRIC_DISPATCH: &[&str] = &["submit", "deliver", "deliver_inner"];

/// What the interprocedural phase hands back to the report assembly.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(reachable un-allowed panic sites, budget)` for the R13 row.
    pub reachable_panics: (usize, usize),
    /// Informational lines (within-budget R13 sites with witnesses).
    pub notes: Vec<String>,
    /// The call graph the rules ran over, for `--callgraph` output.
    pub graph: CallGraph,
}

/// Runs R10–R13 over the parsed set, appending hits to each file's
/// report through its suppression table. Returns the R13 accounting
/// and the graph itself.
pub fn check(files: &mut [LintedFile], budgets: &Ratchet) -> Outcome {
    let g = graph::build(files);
    let mut out = Outcome::default();
    r10_sim_purity(files, &g);
    r11_lock_discipline(files, &g);
    r12_rng_provenance(files);
    r13_panic_reach(files, &g, budgets, &mut out);
    out.graph = g;
    out
}

/// Routes an interprocedural hit through the owning file's suppression
/// table (mirrors `workspace::push_hit`, kept separate so the two
/// phases stay independently testable).
fn push_hit(file: &mut LintedFile, rule: RuleId, line: usize, message: String) {
    let found = scan::find_suppression(&file.suppr, rule.key(), line).cloned();
    match found {
        Some(s) => {
            file.matched_allows.push((rule.key().to_string(), s.line));
            file.report.suppressed.push(Violation {
                rule,
                path: file.ctx.rel_path.clone(),
                line,
                message,
                suppression: Some(s),
            });
        }
        None => file.report.violations.push(Violation {
            rule,
            path: file.ctx.rel_path.clone(),
            line,
            message,
            suppression: None,
        }),
    }
}

/// The R10 entry set: where simulation control flow begins.
fn sim_entries(files: &[LintedFile], g: &CallGraph) -> Vec<usize> {
    g.select(|node| {
        let item = &files[node.file].items.fns[node.item];
        // Fabric dispatch is always an entry.
        if node.crate_name == "fabric" && FABRIC_DISPATCH.contains(&item.name.as_str()) {
            return true;
        }
        let ctx = &files[node.file].ctx;
        // Binaries are drivers, not simulation actors: the CLI prints
        // reports by design.
        if !ctx.sim_driven() || node.path.contains("/bin/") {
            return false;
        }
        // Async fns are (potential) DES actors; fns that spawn tasks
        // feed the executor directly.
        item.is_async
            || item.calls.iter().any(|c| match &c.callee {
                crate::parser::Callee::Method(m) => m == "spawn",
                crate::parser::Callee::Path(p) => p.last().is_some_and(|s| s == "spawn"),
                crate::parser::Callee::Macro(_) => false,
            })
    })
}

/// R10 — ambient I/O reachable from simulation entry points.
fn r10_sim_purity(files: &mut [LintedFile], g: &CallGraph) {
    let entries = sim_entries(files, g);
    if entries.is_empty() {
        return;
    }
    let reach = g.reach(&entries);
    let mut hits: Vec<(usize, usize, String)> = Vec::new();
    for n in 0..g.nodes.len() {
        if !reach.reachable(n) {
            continue;
        }
        let node = &g.nodes[n];
        let item = &files[node.file].items.fns[node.item];
        if item.sinks.is_empty() {
            continue;
        }
        let witness = graph::witness_string(g, &reach.witness(n));
        for sink in &item.sinks {
            hits.push((
                node.file,
                sink.line,
                format!(
                    "`{}` reaches banned sink {} from a simulation entry point \
                     (via {witness}); route output through the Tracer or move it \
                     behind the dispatch boundary",
                    item.qname, sink.what
                ),
            ));
        }
    }
    for (file, line, message) in hits {
        push_hit(&mut files[file], RuleId::R10, line, message);
    }
}

/// R11 — inverted lock orders across functions.
fn r11_lock_discipline(files: &mut [LintedFile], g: &CallGraph) {
    let mut hits: Vec<(usize, usize, String)> = Vec::new();
    // (first target, second target, file, line) for order comparison.
    let mut order_pairs: Vec<(String, String, usize, usize)> = Vec::new();
    for n in 0..g.nodes.len() {
        let node = &g.nodes[n];
        let item = &files[node.file].items.fns[node.item];
        for lock in &item.locks {
            let Some(guard) = &lock.guard else { continue };
            // The guard lives from the acquisition to its `drop(..)` or
            // the end of the body.
            let span_end = item
                .drops
                .iter()
                .find(|d| d.tok > lock.tok && d.name == *guard)
                .map(|d| d.tok)
                .unwrap_or(usize::MAX);
            // Second acquisitions while the guard is live → order pairs.
            for l2 in &item.locks {
                if l2.tok > lock.tok && l2.tok < span_end && l2.target != lock.target {
                    order_pairs.push((lock.target.clone(), l2.target.clone(), node.file, l2.line));
                }
            }
        }
    }
    // Inverted acquisition orders across the workspace.
    for (a, b, file, line) in &order_pairs {
        let inverted = order_pairs
            .iter()
            .find(|(x, y, _, _)| x == b && y == a);
        if let Some((_, _, ofile, oline)) = inverted {
            hits.push((
                *file,
                *line,
                format!(
                    "lock order inversion: `{a}` then `{b}` here, but `{b}` then `{a}` \
                     at {}:{oline}; pick one global order",
                    files[*ofile].ctx.rel_path
                ),
            ));
        }
    }
    for (file, line, message) in hits {
        push_hit(&mut files[file], RuleId::R11, line, message);
    }
}

/// R12 — `SimRng` handles crossing thread or channel boundaries.
fn r12_rng_provenance(files: &mut [LintedFile]) {
    let mut hits: Vec<(usize, usize, String)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for esc in &f.items.rng_type_escapes {
            hits.push((
                fi,
                esc.line,
                format!(
                    "SimRng stored inside `{}<..>`, which crosses a thread boundary; \
                     derive a named stream or substream on the receiving side instead",
                    esc.container
                ),
            ));
        }
        for item in &f.items.fns {
            for send in &item.rng_sends {
                hits.push((
                    fi,
                    send.line,
                    format!(
                        "`{}` passes SimRng binding `{}` through a channel send; \
                         send a seed or stream name and derive the stream on the \
                         receiving side",
                        item.qname, send.binding
                    ),
                ));
            }
        }
    }
    for (file, line, message) in hits {
        push_hit(&mut files[file], RuleId::R12, line, message);
    }
}

/// R13 — panic sites reachable from fabric dispatch, ratcheted.
fn r13_panic_reach(
    files: &mut [LintedFile],
    g: &CallGraph,
    budgets: &Ratchet,
    out: &mut Outcome,
) {
    let entries = g.select(|node| {
        let item = &files[node.file].items.fns[node.item];
        node.crate_name == "fabric" && FABRIC_DISPATCH.contains(&item.name.as_str())
    });
    let budget = budgets.reachable_panics;
    if entries.is_empty() {
        out.reachable_panics = (0, budget);
        return;
    }
    let reach = g.reach(&entries);
    let mut sites: Vec<(usize, usize, String)> = Vec::new();
    for n in 0..g.nodes.len() {
        if !reach.reachable(n) {
            continue;
        }
        let node = &g.nodes[n];
        let item = &files[node.file].items.fns[node.item];
        if item.panics.iter().all(|p| p.allowed) {
            continue;
        }
        let witness = graph::witness_string(g, &reach.witness(n));
        for p in item.panics.iter().filter(|p| !p.allowed) {
            sites.push((
                node.file,
                p.line,
                format!(
                    "`{}` contains `{}` reachable from fabric dispatch (via {witness}); \
                     convert to the typed task-failure path or annotate the invariant \
                     with `hetlint: allow(r5) — <why>`",
                    item.qname, p.what
                ),
            ));
        }
    }
    out.reachable_panics = (sites.len(), budget);
    if sites.len() > budget {
        for (file, line, message) in sites {
            push_hit(&mut files[file], RuleId::R13, line, message);
        }
    } else {
        for (file, line, message) in sites {
            out.notes.push(format!(
                "R13 within budget: {}:{line}: {message}",
                files[file].ctx.rel_path
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_file, FileContext, FileKind};

    fn set(files: &[(&str, &str, &str)]) -> Vec<LintedFile> {
        files
            .iter()
            .map(|(krate, rel, src)| {
                lint_file(&FileContext::new(krate, FileKind::LibSrc, rel), src)
            })
            .collect()
    }

    fn run(files: &mut [LintedFile], ratchet: &str) -> Outcome {
        let budgets = crate::ratchet::parse(ratchet).expect("ratchet parses");
        check(files, &budgets)
    }

    #[test]
    fn r10_flags_reachable_sink_with_witness() {
        let mut files = set(&[
            (
                "sim",
                "crates/sim/src/actor.rs",
                "pub async fn actor() { helper(); }\nfn helper() { log_it(); }\nfn log_it() { println!(\"x\"); }\n",
            ),
        ]);
        run(&mut files, "");
        let v: Vec<&Violation> = files[0]
            .report
            .violations
            .iter()
            .filter(|v| v.rule == RuleId::R10)
            .collect();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("sim::actor::actor -> sim::actor::helper -> sim::actor::log_it"),
            "witness path missing: {}", v[0].message);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn r10_ignores_unreachable_sink_and_bin_drivers() {
        let mut files = set(&[
            ("sim", "crates/sim/src/actor.rs", "pub async fn actor() {}\nfn cli_only() { println!(\"x\"); }\n"),
            ("core", "crates/core/src/bin/tool.rs", "fn main() { helper(); }\nfn helper() { println!(\"y\"); }\n"),
        ]);
        run(&mut files, "");
        for f in &files {
            assert!(f.report.violations.iter().all(|v| v.rule != RuleId::R10));
        }
    }

    #[test]
    fn r10_suppressible_at_sink() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/actor.rs",
            "pub async fn actor() { log_it(); }\n// hetlint: allow(r10) — operator console, gated off in campaigns\nfn log_it() { println!(\"x\"); }\n",
        )]);
        run(&mut files, "");
        assert!(files[0].report.violations.iter().all(|v| v.rule != RuleId::R10));
        assert!(files[0].report.suppressed.iter().any(|v| v.rule == RuleId::R10));
    }

    #[test]
    fn r11_is_silent_on_a_guard_across_a_blocking_call() {
        // R11 is lock-order only; a guard across an `.await` is
        // clippy::await_holding_lock's.
        let mut files = set(&[(
            "sim",
            "crates/sim/src/ex.rs",
            "struct Q;\nimpl Q {\nfn direct(&self) {\nlet g = self.state.lock();\nself.cv.wait(g);\n}\n}\n",
        )]);
        run(&mut files, "");
        assert!(files[0].report.violations.iter().all(|v| v.rule != RuleId::R11));
    }

    #[test]
    fn r11_lock_order_inversion_across_functions() {
        let mut files = set(&[(
            "sim",
            "crates/sim/src/ex.rs",
            "fn ab() {\nlet g = a.lock();\nlet h = b.lock();\n}\nfn ba() {\nlet g = b.lock();\nlet h = a.lock();\n}\n",
        )]);
        run(&mut files, "");
        let r11: Vec<&Violation> = files[0]
            .report
            .violations
            .iter()
            .filter(|v| v.rule == RuleId::R11 && v.message.contains("inversion"))
            .collect();
        assert_eq!(r11.len(), 2, "both sides flagged: {r11:?}");
    }

    #[test]
    fn r12_flags_container_and_channel_escapes() {
        let mut files = set(&[(
            "steer",
            "crates/steer/src/pol.rs",
            "struct Bad { rng: Arc<SimRng> }\nfn leak(tx: Tx) { let r = master.substream(3); tx.send(r); }\n",
        )]);
        run(&mut files, "");
        let r12: Vec<&Violation> = files[0]
            .report
            .violations
            .iter()
            .filter(|v| v.rule == RuleId::R12)
            .collect();
        assert_eq!(r12.len(), 2, "{r12:?}");
    }

    #[test]
    fn r13_counts_against_budget_and_reports_over() {
        let srcs = [
            (
                "fabric",
                "crates/fabric/src/f.rs",
                "struct Ex;\nimpl Ex { fn submit(&self) { store::fetch(k); } }\n",
            ),
            (
                "store",
                "crates/store/src/lib.rs",
                "pub fn fetch(k: u64) { x.unwrap(); }\n",
            ),
        ];
        // Budget 1: within budget → note, no violation.
        let mut files = set(&srcs);
        let out = run(&mut files, "reachable-panics = 1\n");
        assert_eq!(out.reachable_panics, (1, 1));
        assert_eq!(out.notes.len(), 1);
        assert!(out.notes[0].contains("fabric::f::Ex::submit -> store::fetch"));
        for f in &files {
            assert!(f.report.violations.iter().all(|v| v.rule != RuleId::R13));
        }
        // Budget 0: over → violation with witness.
        let mut files = set(&srcs);
        let out = run(&mut files, "");
        assert_eq!(out.reachable_panics, (1, 0));
        let v: Vec<&Violation> = files[1]
            .report
            .violations
            .iter()
            .filter(|v| v.rule == RuleId::R13)
            .collect();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("via fabric::f::Ex::submit -> store::fetch"));
    }

    #[test]
    fn r13_allow_r5_exempts_the_site() {
        let mut files = set(&[
            (
                "fabric",
                "crates/fabric/src/f.rs",
                "struct Ex;\nimpl Ex { fn deliver(&self) { store::fetch(k); } }\n",
            ),
            (
                "store",
                "crates/store/src/lib.rs",
                "pub fn fetch(k: u64) {\n// hetlint: allow(r5) — index verified two lines up\nx.unwrap();\n}\n",
            ),
        ]);
        let out = run(&mut files, "");
        assert_eq!(out.reachable_panics, (0, 0));
        for f in &files {
            assert!(f.report.violations.iter().all(|v| v.rule != RuleId::R13));
        }
    }
}

//! hetlint CLI: `cargo run -p hetflow-lint [-- [options] <workspace-root>]`.
//!
//! Walks the workspace sources and reports violations of the hetlint
//! half of the determinism contract (clippy enforces the rest). See
//! DESIGN.md §7 for the rule catalogue and the
//! `hetlint: allow(<rule>) — <reason>` suppression syntax.
//!
//! Options:
//! - `--callgraph` — print the workspace call graph instead of the
//!   report
//! - `--explain <rule>` — print the long-form description of one rule
//!   (any live or retired rule key, `bad-allow`, or an `allow(..)`
//!   alias) and exit
//!
//! Exit codes are stable for CI:
//! - `0` — contract holds (no violations)
//! - `1` — violations found (including bad allows)
//! - `2` — the tool itself failed (bad usage, unreadable tree, unknown
//!   `--explain` rule)

use std::path::PathBuf;
use std::process::ExitCode;

use hetflow_lint::{graph, Report, RuleId, RULE_KEYS};

fn usage() {
    eprintln!("usage: hetlint [--callgraph] [--explain <rule>] [workspace-root]");
}

fn main() -> ExitCode {
    let mut callgraph = false;
    let mut explain: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--callgraph" => callgraph = true,
            "--explain" => match args.next() {
                Some(rule) => explain = Some(rule),
                None => {
                    usage();
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with("--explain=") => {
                explain = Some(arg["--explain=".len()..].to_string());
            }
            _ if arg.starts_with('-') => {
                usage();
                return ExitCode::from(2);
            }
            _ => {
                if root.is_some() {
                    usage();
                    return ExitCode::from(2);
                }
                root = Some(PathBuf::from(arg));
            }
        }
    }
    if let Some(rule) = explain {
        return match hetflow_lint::explain(&rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "hetlint: unknown rule `{rule}` (valid: {}, bad-allow)",
                    RULE_KEYS.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let out = match hetflow_lint::run_all(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hetlint: {e}");
            return ExitCode::from(2);
        }
    };
    if callgraph {
        print_graph(&out.graph);
        return ExitCode::SUCCESS;
    }
    print_report(&out.report);
    if out.report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_graph(graph: &graph::CallGraph) {
    let n_edges: usize = graph.edges.iter().map(Vec::len).sum();
    println!("hetlint call graph: {} nodes, {n_edges} edges", graph.nodes.len());
    for (id, node) in graph.nodes.iter().enumerate() {
        let out: Vec<&str> = graph.edges[id]
            .iter()
            .map(|&m| graph.nodes[m].qname.as_str())
            .collect();
        if out.is_empty() {
            println!("  {}", node.qname);
        } else {
            println!("  {} -> {}", node.qname, out.join(", "));
        }
    }
}

fn print_report(report: &Report) {
    let rules = [
        RuleId::R6,
        RuleId::R7,
        RuleId::R8,
        RuleId::R9,
        RuleId::R10,
        RuleId::R11,
        RuleId::R12,
        RuleId::BadAllow,
    ];
    for rule in rules {
        let hits: Vec<_> = report
            .violations
            .iter()
            .chain(&report.bad_allows)
            .filter(|v| v.rule == rule)
            .collect();
        if hits.is_empty() {
            continue;
        }
        println!("{}", rule.title());
        for v in hits {
            println!("  {v}");
        }
    }
    println!(
        "hetlint: {} files, {} violations, {} suppressed (reasoned), {} bad allows",
        report.files_scanned,
        report.violations.len(),
        report.suppressed.len(),
        report.bad_allows.len()
    );
    if report.clean() {
        println!("hetlint: determinism contract holds");
    }
}

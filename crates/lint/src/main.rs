//! hetlint CLI: `cargo run -p hetflow-lint [-- [options] <workspace-root>]`.
//!
//! Walks the workspace sources, verifies the `hetlint.ratchet` budget
//! file, and reports violations of the determinism contract. See
//! DESIGN.md "Determinism rules" for the rule catalogue and the
//! `hetlint: allow(<rule>) — <reason>` suppression syntax.
//!
//! Options:
//! - `--format text|json` — report format (default text)
//! - `--callgraph` — emit the workspace call graph instead of the
//!   report (JSON under `--format json`, a summary under text)
//! - `--explain <rule>` — print the long-form description of one rule
//!   (any live rule key, `bad-allow`, or an `allow(..)` alias) and exit
//!
//! Exit codes are stable for CI:
//! - `0` — contract holds (no violations, budgets respected)
//! - `1` — violations found (including budget overruns and bad allows)
//! - `2` — the tool itself failed (bad usage, unreadable tree, missing
//!   or malformed ratchet file, unknown `--explain` rule)

use std::path::PathBuf;
use std::process::ExitCode;

use hetflow_lint::{graph, json, Report, RuleId, RULE_KEYS};

enum Format {
    Text,
    Json,
}

fn usage() {
    eprintln!(
        "usage: hetlint [--format text|json] [--callgraph] [--explain <rule>] [workspace-root]"
    );
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut callgraph = false;
    let mut explain: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                _ => {
                    usage();
                    return ExitCode::from(2);
                }
            },
            "--format=json" => format = Format::Json,
            "--format=text" => format = Format::Text,
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
        match format {
            Format::Json => println!("{}", json::graph_to_json(&out.graph)),
            Format::Text => print_graph(&out.graph),
        }
        return ExitCode::SUCCESS;
    }
    match format {
        Format::Json => println!("{}", json::report_to_json(&out.report)),
        Format::Text => print_report(&out.report),
    }
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
        RuleId::R1,
        RuleId::R2,
        RuleId::R3,
        RuleId::R4,
        RuleId::R6,
        RuleId::R7,
        RuleId::R8,
        RuleId::R9,
        RuleId::R10,
        RuleId::R11,
        RuleId::R12,
        RuleId::R13,
        RuleId::R15,
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
    if !report.unwrap_rows.is_empty() {
        println!("{}", RuleId::R5.title());
        for (name, count, budget) in &report.unwrap_rows {
            if count > budget {
                println!(
                    "  crate `{name}`: {count}/{budget} OVER BUDGET; convert to Result \
                     plumbing / the typed task-failure path, annotate an invariant \
                     abort with `hetlint: allow(r5) — <why>`, or raise the budget in \
                     hetlint.ratchet with a design-reviewed diff"
                );
            } else {
                println!("  crate `{name}`: {count}/{budget}");
            }
        }
    }
    if let Some((count, budget)) = report.reachable_panics {
        println!("{}", RuleId::R13.title());
        if count > budget {
            println!(
                "  {count}/{budget} OVER BUDGET; see the r13 violations above for the \
                 witness chains"
            );
        } else {
            println!("  reachable panic sites: {count}/{budget}");
        }
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    println!(
        "hetlint: {} files, {} violations, {} suppressed (reasoned), {} bad allows",
        report.files_scanned,
        report.violations.len()
            + report
                .unwrap_rows
                .iter()
                .filter(|(_, c, b)| c > b)
                .count(),
        report.suppressed.len(),
        report.bad_allows.len()
    );
    if report.clean() {
        println!("hetlint: determinism contract holds");
    }
}

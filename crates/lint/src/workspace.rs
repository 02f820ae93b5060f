//! The workspace-wide analysis phase: rules that no single file can
//! decide.
//!
//! After every file is lexed and per-file rules have run, this phase
//! sees the whole workspace at once:
//!
//! - **R7** — two call sites deriving a `SimRng` stream from the same
//!   name literal get *identical* random sequences. That is correlated
//!   randomness: two logically independent processes move in lockstep,
//!   which silently biases campaign comparisons while every per-run
//!   digest still matches.
//! - **R8** — the trace digest folds event-kind strings; a kind emitted
//!   anywhere but absent from the central registry
//!   (`crates/sim/src/trace.rs`), or registered but never emitted, is
//!   silent digest drift waiting to happen.
//! - **R9** — a `hetlint: allow(..)` that no longer covers any hit is a
//!   stale exemption; left in place it would silently re-arm if the
//!   code around it regresses, so it must be removed. An allow naming a
//!   retired rule (one clippy enforces now) covers nothing by
//!   construction.

use crate::graph::CallGraph;
use crate::interproc;
use crate::rules::EmitKindRef;
use crate::scan;
use crate::{LintedFile, RuleId, Violation, RETIRED_KEYS, RULE_KEYS};

/// Runs the cross-file rules, appending hits to each file's report,
/// and hands back the call graph. Order matters: R9 must run last so
/// it sees which suppressions R7, R8 and the interprocedural rules
/// (R10–R12) consumed.
pub fn cross_check(files: &mut [LintedFile]) -> CallGraph {
    r7_stream_collisions(files);
    r8_trace_registry(files);
    let graph = interproc::check(files);
    r9_stale_allows(files);
    graph
}

/// Routes one cross-file or interprocedural hit through the owning
/// file's suppressions.
pub(crate) fn push_hit(file: &mut LintedFile, rule: RuleId, line: usize, message: String) {
    let found = scan::find_suppression(&file.suppr, rule.key(), line).cloned();
    match found {
        Some(s) => {
            file.matched_allows.push((rule.key().to_string(), s.line));
            // An empty reason is already flagged as a bad allow by the
            // per-file pass; here it still counts as covering the hit.
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

/// R7 — duplicate seed-stream names across distinct derivation sites.
fn r7_stream_collisions(files: &mut [LintedFile]) {
    // (name, file index, line) for every literal-named derivation site.
    let mut sites: Vec<(String, usize, usize)> = Vec::new();
    for (idx, f) in files.iter().enumerate() {
        for u in &f.stream_uses {
            sites.push((u.name.clone(), idx, u.line));
        }
    }
    sites.sort();
    let mut i = 0;
    while i < sites.len() {
        let mut j = i + 1;
        while j < sites.len() && sites[j].0 == sites[i].0 {
            j += 1;
        }
        if j - i >= 2 {
            let name = sites[i].0.clone();
            let locations: Vec<String> = sites[i..j]
                .iter()
                .map(|(_, fi, line)| format!("{}:{}", files[*fi].ctx.rel_path, line))
                .collect();
            let all = locations.join(", ");
            let colliding: Vec<(usize, usize)> =
                sites[i..j].iter().map(|(_, fi, line)| (*fi, *line)).collect();
            for (fi, line) in colliding {
                let message = format!(
                    "seed stream \"{name}\" is derived at {} distinct sites ({all}); \
                     identical names yield identical sequences (correlated randomness) — \
                     give each site a unique stream name",
                    j - i
                );
                push_hit(&mut files[fi], RuleId::R7, line, message);
            }
        }
        i = j;
    }
}

/// R8 — drift between emitted trace-event kinds and the central
/// registry. Skipped entirely when the scanned set contains no registry
/// module (fixture runs, partial trees).
fn r8_trace_registry(files: &mut [LintedFile]) {
    let mut registry: Vec<(String, String, usize, usize)> = Vec::new(); // const, value, file, line
    for (idx, f) in files.iter().enumerate() {
        for e in &f.registry {
            registry.push((e.const_name.clone(), e.value.clone(), idx, e.line));
        }
    }
    if registry.is_empty() {
        return;
    }
    // Emitted-but-unregistered: every emit site must resolve to a
    // registered constant or a registered value.
    let mut used_consts: Vec<String> = Vec::new();
    let mut used_values: Vec<String> = Vec::new();
    let mut hits: Vec<(usize, usize, String)> = Vec::new();
    for (idx, f) in files.iter().enumerate() {
        for site in &f.emit_sites {
            match &site.kind {
                EmitKindRef::Const(name) => {
                    if registry.iter().any(|(c, _, _, _)| c == name) {
                        if !used_consts.contains(name) {
                            used_consts.push(name.clone());
                        }
                    } else {
                        hits.push((
                            idx,
                            site.line,
                            format!(
                                "emit() references kinds::{name}, which is not declared in \
                                 the trace-kind registry (crates/sim/src/trace.rs)"
                            ),
                        ));
                    }
                }
                EmitKindRef::Literal(value) => {
                    if registry.iter().any(|(_, v, _, _)| v == value) {
                        if !used_values.contains(value) {
                            used_values.push(value.clone());
                        }
                    } else {
                        hits.push((
                            idx,
                            site.line,
                            format!(
                                "emit() uses ad-hoc kind \"{value}\" absent from the \
                                 trace-kind registry (crates/sim/src/trace.rs); register a \
                                 kinds:: constant and emit through it"
                            ),
                        ));
                    }
                }
            }
        }
    }
    // Registered-but-never-emitted: a dead registry entry means the
    // digest fold no longer covers a kind anyone thought it did.
    for (const_name, value, idx, line) in &registry {
        if !used_consts.contains(const_name) && !used_values.contains(value) {
            hits.push((
                *idx,
                *line,
                format!(
                    "registered trace kind {const_name} (\"{value}\") is never emitted by \
                     library code; remove the registry entry or restore the emit site"
                ),
            ));
        }
    }
    for (idx, line, message) in hits {
        push_hit(&mut files[idx], RuleId::R8, line, message);
    }
}

/// R9 — reasoned suppressions of a live or retired rule that covered
/// nothing this run; `allow(<anything else>)` is a doc placeholder or
/// typo and R9 leaves it to the bad-allow check. Not itself
/// suppressible: the fix is deleting a line, never annotating it.
fn r9_stale_allows(files: &mut [LintedFile]) {
    for f in files.iter_mut() {
        for s in &f.suppr.suppressions {
            if s.reason.is_empty() {
                continue; // already reported as a bad allow
            }
            let retired = RETIRED_KEYS.contains(&s.rule.as_str());
            if !retired && (s.rule == "r9" || !RULE_KEYS.contains(&s.rule.as_str())) {
                continue;
            }
            let matched = f
                .matched_allows
                .iter()
                .any(|(rule, line)| *rule == s.rule && *line == s.line);
            if !matched {
                f.report.violations.push(Violation {
                    rule: RuleId::R9,
                    path: f.ctx.rel_path.clone(),
                    line: s.line,
                    message: if retired {
                        format!(
                            "stale suppression: allow({}) names a retired rule, now a clippy \
                             lint; write `#[expect(clippy::<lint>, reason = \"…\")]` instead",
                            s.rule
                        )
                    } else {
                        format!(
                            "stale suppression: allow({}) no longer matches any violation; \
                             remove the annotation",
                            s.rule
                        )
                    },
                    suppression: None,
                });
            }
        }
    }
}

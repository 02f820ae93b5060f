//! hetlint: the hetflow determinism & invariant static-analysis pass.
//!
//! The repo's central validity claim is bit-reproducibility: the same
//! seed must yield the same trace on any machine. The clauses a compiler
//! can see on one token — no wall clock, no ambient entropy, no hash
//! containers, no OS threads, no unreasoned unwrap or panic, no
//! discarded fabric effect — are clippy's (the root `clippy.toml` and
//! `[workspace.lints.clippy]`; DESIGN.md §7 maps them). hetlint keeps the
//! clauses that need a workspace view. It is three layers, each consuming
//! only the one below: a lexer ([`lexer`]: a real token stream, so
//! comments and string literals can never trigger rules), an item parser
//! ([`parser`]: fn items with their calls, sinks and locks), and a
//! workspace call graph ([`graph`]). The rules, by the layer they need:
//!
//! Per file, on tokens ([`rules`]):
//!
//! - **R6** float ordering must be total — `f64::total_cmp` or an
//!   `Ord`-delegating wrapper, never ad-hoc `.partial_cmp().unwrap()`.
//!   (clippy's `disallowed-methods` cannot take this one: it also fires
//!   inside `#[derive(PartialOrd)]` expansions.)
//!
//! Across files, on the per-file extracts ([`workspace`]):
//!
//! - **R7** duplicate `SimRng` stream-name literals across distinct
//!   derivation sites — identical names mean identical sequences
//!   (correlated randomness).
//! - **R8** drift between emitted trace-event kinds and the central
//!   registry in `crates/sim/src/trace.rs` — emitted-but-unregistered
//!   or registered-but-never-emitted kinds are silent digest drift.
//! - **R9** stale `hetlint: allow(..)` annotations that no longer cover
//!   any hit — they must be removed, not left to silently re-arm.
//!
//! Over the call graph ([`interproc`]):
//!
//! - **R10** no ambient I/O reachable from a simulation entry point.
//! - **R11** no two locks acquired in inverted orders.
//! - **R12** no `SimRng` crossing a thread or channel boundary.
//!
//! Rule ids are stable and retired ids are not reused: R1–R5, R13 and
//! R15 became clippy configuration; R14 and R16 are stopped by those
//! lints, R10 and `clippy::await_holding_lock`.
//!
//! Violations are suppressed in place with
//! `// hetlint: allow(<rule>) — <reason>`; the reason is mandatory and
//! every suppression is counted in the report. R9 itself cannot be
//! suppressed.

pub mod graph;
pub mod interproc;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod scan;
pub mod workspace;

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose behavior feeds the simulation trace. The root package
/// (`hetflow`) re-exports and drives them, so it is held to the same
/// contract.
pub const SIM_DRIVEN: &[&str] = &["sim", "store", "fabric", "steer", "core", "apps", "hetflow"];

/// The rule that produced a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Non-total float ordering.
    R6,
    /// Duplicate seed-stream name across distinct sites.
    R7,
    /// Trace-kind registry drift.
    R8,
    /// Stale suppression.
    R9,
    /// Ambient I/O reachable from a simulation entry point.
    R10,
    /// Lock guard held across a blocking call, or inverted lock order.
    R11,
    /// `SimRng` crossing a thread or channel boundary.
    R12,
    /// Malformed suppression (missing reason).
    BadAllow,
}

/// Canonical keys of every live numbered rule, in order — the single
/// source for "valid rules" error text.
pub const RULE_KEYS: &[&str] = &["r6", "r7", "r8", "r9", "r10", "r11", "r12"];

/// Keys of retired rules. Their ids are not reused, and an `allow(..)`
/// naming one covers nothing, so R9 reports it.
pub const RETIRED_KEYS: &[&str] = &["r1", "r2", "r3", "r4", "r5", "r13", "r14", "r15", "r16"];

impl RuleId {
    /// The canonical lowercase key used in `allow(..)` annotations.
    pub fn key(self) -> &'static str {
        match self {
            RuleId::R6 => "r6",
            RuleId::R7 => "r7",
            RuleId::R8 => "r8",
            RuleId::R9 => "r9",
            RuleId::R10 => "r10",
            RuleId::R11 => "r11",
            RuleId::R12 => "r12",
            RuleId::BadAllow => "bad-allow",
        }
    }

    /// A one-line description for report headers.
    pub fn title(self) -> &'static str {
        match self {
            RuleId::R6 => "R6 total-order: float ordering must be total",
            RuleId::R7 => "R7 seed-streams: stream-name literals must be workspace-unique",
            RuleId::R8 => "R8 trace-kinds: emitted kinds and the registry must agree",
            RuleId::R9 => "R9 stale-allow: suppressions must cover a live violation",
            RuleId::R10 => "R10 sim-purity: no ambient I/O reachable from simulation entry points",
            RuleId::R11 => "R11 lock-discipline: locks must be acquired in one global order",
            RuleId::R12 => "R12 rng-provenance: SimRng must not cross thread/channel boundaries",
            RuleId::BadAllow => "suppressions must carry a reason",
        }
    }
}

/// A long-form explanation of one rule, for `hetlint --explain <rule>`.
/// Accepts canonical keys, the same aliases as `allow(..)`, and the
/// retired keys that moved to clippy; `None` for unknown rules.
pub fn explain(rule: &str) -> Option<&'static str> {
    let key = scan::normalize_rule(rule);
    Some(match key.as_str() {
        "r6" => {
            "R6 total-order — float comparisons feeding sorts or heaps must be total: \
             f64::total_cmp or an Ord-delegating wrapper, never .partial_cmp().unwrap(). \
             NaN-poisoned partial orders panic or, worse, silently reorder."
        }
        "r7" => {
            "R7 seed-streams — SimRng stream-name literals must be workspace-unique. Two \
             sites deriving streams from the same name get identical sequences: correlated \
             randomness that biases campaign comparisons while every digest still matches."
        }
        "r8" => {
            "R8 trace-kinds — every emitted trace-event kind must be declared in the \
             central registry (crates/sim/src/trace.rs kinds::), and every registered kind \
             must be emitted somewhere. Drift in either direction is silent digest drift."
        }
        "r9" => {
            "R9 stale-allow — a reasoned allow(..) that no longer covers any hit must be \
             removed. Left in place it would silently re-arm if the code regresses. Not \
             itself suppressible: the fix is deleting a line."
        }
        "r10" => {
            "R10 sim-purity — functions reachable (over the workspace call graph) from \
             simulation entry points (async fns and task-spawning fns in sim-driven \
             crates, fabric dispatch) must not reach ambient I/O: std::fs, std::env, \
             std::net, std::io streams, or print macros. The Tracer is the one sanctioned \
             side channel. Violations print the concrete witness call chain; suppress at \
             the sink with allow(r10)."
        }
        "r11" => {
            "R11 lock-discipline — two locks must never be acquired in inverted orders in \
             different functions; pick one global order. (A guard held across an \
             `.await` is clippy::await_holding_lock's job, denied workspace-wide.)"
        }
        "r12" => {
            "R12 rng-provenance — a SimRng handle must not be stored in a thread-crossing \
             container (Arc, Mutex, RwLock, channel endpoints) or passed through a channel \
             send. Streams move by ownership along the derivation tree; smuggling one \
             across a thread boundary destroys substream provenance. Send a seed or \
             stream name and derive on the receiving side."
        }
        retired if RETIRED_KEYS.contains(&retired) => {
            "retired — this clause is clippy's now: the root clippy.toml \
             (disallowed-methods, disallowed-types) and [workspace.lints.clippy] \
             (unwrap_used, expect_used, panic, let_underscore_must_use, \
             await_holding_lock). A justified \
             exception is `#[expect(clippy::<lint>, reason = \"…\")]`; DESIGN.md §7 maps \
             each retired id to its lint."
        }
        "bad-allow" => {
            "bad-allow — every suppression needs a reason: \
             `hetlint: allow(<rule>) — <why>`. A bare allow() is itself a violation."
        }
        _ => return None,
    })
}

/// What part of a crate a file belongs to; drives which rules apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` library (and `src/bin/`) code — the only kind the call
    /// graph and the R7/R8 extractors read.
    LibSrc,
    /// Integration tests under `tests/`.
    Test,
    /// Benches under `benches/`.
    Bench,
    /// Examples under `examples/`.
    Example,
}

/// Where a file sits in the workspace, for rule applicability.
#[derive(Clone, Debug)]
pub struct FileContext {
    /// Short crate name (`sim`, `store`, …; the root package is
    /// `hetflow`).
    pub crate_name: String,
    /// Section of the crate the file lives in.
    pub kind: FileKind,
    /// Workspace-relative path, for reporting.
    pub rel_path: String,
}

impl FileContext {
    /// Builds a context directly (used by fixture tests).
    pub fn new(crate_name: &str, kind: FileKind, rel_path: &str) -> FileContext {
        FileContext {
            crate_name: crate_name.to_string(),
            kind,
            rel_path: rel_path.to_string(),
        }
    }

    /// True when the file's crate feeds the trace, so its async and
    /// spawning fns are R10 simulation entry points.
    pub fn sim_driven(&self) -> bool {
        SIM_DRIVEN.contains(&self.crate_name.as_str())
    }

    /// True for the one module allowed to touch raw seed material.
    pub fn is_rng_module(&self) -> bool {
        self.rel_path.ends_with("crates/sim/src/rng.rs") || self.rel_path == "src/rng.rs"
    }

    /// True for the module holding the central trace-event-kind
    /// registry (R8).
    pub fn is_trace_module(&self) -> bool {
        self.rel_path.ends_with("crates/sim/src/trace.rs") || self.rel_path == "src/trace.rs"
    }
}

/// A single rule hit, before suppression filtering.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
    /// The annotation covering this hit, when one exists.
    pub suppression: Option<scan::Suppression>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule.key(), self.message)
    }
}

/// The outcome of linting one source text (unit of fixture testing).
#[derive(Debug, Default)]
pub struct FileReport {
    /// Rule hits that no annotation covers.
    pub violations: Vec<Violation>,
    /// Rule hits covered by an `allow(..)`.
    pub suppressed: Vec<Violation>,
    /// Suppressions with an empty reason (each is itself a violation).
    pub bad_allows: Vec<Violation>,
}

/// One file after the per-file pass, carrying everything the
/// workspace-wide phase needs.
#[derive(Debug)]
pub struct LintedFile {
    /// Where the file sits.
    pub ctx: FileContext,
    /// Per-file results; the cross-file phase appends to it.
    pub report: FileReport,
    /// The suppression table (annotations plus per-line code/comment
    /// maps) — everything the cross-file phase needs to resolve
    /// `allow(..)` coverage, without retaining the token stream.
    pub suppr: scan::SupprIndex,
    /// Seed-stream derivation sites (R7 raw material).
    pub stream_uses: Vec<rules::StreamUse>,
    /// Trace emit sites (R8 raw material).
    pub emit_sites: Vec<rules::EmitSite>,
    /// Registry entries, non-empty only for the trace module (R8).
    pub registry: Vec<rules::RegistryEntry>,
    /// `(rule key, annotation line)` pairs for every suppression that
    /// covered a hit — R9 flags the reasoned ones left over.
    pub matched_allows: Vec<(String, usize)>,
    /// Item-level parse: fn items with calls/sinks/locks, plus
    /// file-level R12 escapes (raw material for R10–R12).
    pub items: parser::ParsedFile,
}

/// Runs the per-file pass over one source text.
pub fn lint_file(ctx: &FileContext, source: &str) -> LintedFile {
    let prepared = scan::prepare(source);
    let items = parser::parse_items(ctx, &prepared);
    let mut report = FileReport::default();
    let mut matched_allows: Vec<(String, usize)> = Vec::new();
    for v in rules::check_file(ctx, &prepared) {
        match &v.suppression {
            Some(s) => {
                matched_allows.push((v.rule.key().to_string(), s.line));
                report.suppressed.push(v);
            }
            None => report.violations.push(v),
        }
    }
    // A reason-less suppression is flagged whether or not anything fired
    // under it — a stale or typo'd allow must not linger silently.
    for s in &prepared.suppr.suppressions {
        if s.reason.is_empty() {
            report.bad_allows.push(Violation {
                rule: RuleId::BadAllow,
                path: ctx.rel_path.clone(),
                line: s.line,
                message: format!(
                    "allow({}) without a reason; write `hetlint: allow({}) — <why>`",
                    s.rule, s.rule
                ),
                suppression: None,
            });
        }
    }
    let stream_uses = rules::stream_uses(ctx, &prepared);
    let emit_sites = rules::emit_sites(ctx, &prepared);
    let registry = rules::registry_entries(ctx, &prepared);
    LintedFile {
        ctx: ctx.clone(),
        report,
        suppr: prepared.suppr,
        stream_uses,
        emit_sites,
        registry,
        matched_allows,
        items,
    }
}

/// Lints one source text under the given context, per-file rules only.
/// This is the pure core used by fixture tests; the workspace-wide
/// rules (R7–R9) need [`lint_set`].
pub fn lint_source(ctx: &FileContext, source: &str) -> FileReport {
    lint_file(ctx, source).report
}

/// Aggregate result of a workspace walk.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed violations, in path order.
    pub violations: Vec<Violation>,
    /// Suppressed hits (reasoned allows), for the summary line.
    pub suppressed: Vec<Violation>,
    /// Reason-less allows.
    pub bad_allows: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace passes the determinism contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.bad_allows.is_empty()
    }
}

/// Lints a set of sources as one workspace: the per-file pass over each
/// file, then the cross-file and interprocedural phases (R7–R12). This
/// is [`run`] without the filesystem walk, so fixture tests can
/// exercise the workspace-wide rules on synthetic trees.
pub fn lint_set(inputs: &[(FileContext, String)]) -> Report {
    lint_set_all(inputs).report
}

/// Everything one workspace pass produces: the report and the call
/// graph (`--callgraph`).
#[derive(Debug, Default)]
pub struct WorkspaceOutput {
    /// The aggregate report.
    pub report: Report,
    /// The workspace call graph.
    pub graph: graph::CallGraph,
}

/// As [`lint_set`], also returning the call graph.
pub fn lint_set_all(inputs: &[(FileContext, String)]) -> WorkspaceOutput {
    let mut files: Vec<LintedFile> = inputs
        .iter()
        .map(|(ctx, source)| lint_file(ctx, source))
        .collect();
    let graph = workspace::cross_check(&mut files);
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    for f in files {
        report.violations.extend(f.report.violations);
        report.suppressed.extend(f.report.suppressed);
        report.bad_allows.extend(f.report.bad_allows);
    }
    WorkspaceOutput { report, graph }
}

/// Classifies a workspace-relative path into a [`FileContext`]; `None`
/// for files hetlint does not police (vendored stand-ins, the lint
/// fixtures themselves, build scripts of foreign origin).
pub fn classify(rel: &str) -> Option<FileContext> {
    let rel = rel.replace('\\', "/");
    if rel.starts_with("vendor/") || rel.starts_with("target/") || rel.starts_with(".git/") {
        return None;
    }
    if rel.starts_with("crates/lint/tests/fixtures/") {
        return None;
    }
    let (crate_name, rest) = if let Some(tail) = rel.strip_prefix("crates/") {
        let (name, rest) = tail.split_once('/')?;
        let name = name.strip_prefix("hetflow-").unwrap_or(name);
        (name.to_string(), rest)
    } else {
        ("hetflow".to_string(), rel.as_str())
    };
    let kind = if rest.starts_with("src/") {
        FileKind::LibSrc
    } else if rest.starts_with("tests/") {
        FileKind::Test
    } else if rest.starts_with("benches/") {
        FileKind::Bench
    } else if rest.starts_with("examples/") {
        FileKind::Example
    } else {
        return None;
    };
    Some(FileContext { crate_name, kind, rel_path: rel })
}

/// Recursively collects `.rs` files under `root`, skipping build output,
/// vendored crates, and the lint fixtures.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if matches!(name, "target" | "vendor" | ".git" | "fixtures" | "node_modules") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                found.push(path);
            }
        }
    }
    found.sort();
    Ok(found)
}

/// Walks the workspace at `root` and lints every classified source file
/// (per-file and workspace-wide phases).
pub fn run(root: &Path) -> std::io::Result<Report> {
    run_all(root).map(|out| out.report)
}

/// As [`run`], also returning the call graph.
pub fn run_all(root: &Path) -> std::io::Result<WorkspaceOutput> {
    let mut inputs: Vec<(FileContext, String)> = Vec::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(ctx) = classify(&rel) else { continue };
        inputs.push((ctx, std::fs::read_to_string(&path)?));
    }
    Ok(lint_set_all(&inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_crate_src() {
        let ctx = classify("crates/sim/src/executor.rs").unwrap();
        assert_eq!(ctx.crate_name, "sim");
        assert_eq!(ctx.kind, FileKind::LibSrc);
        assert!(ctx.sim_driven());
    }

    #[test]
    fn classify_root_tests_as_hetflow() {
        let ctx = classify("tests/determinism.rs").unwrap();
        assert_eq!(ctx.crate_name, "hetflow");
        assert_eq!(ctx.kind, FileKind::Test);
        assert!(ctx.sim_driven());
    }

    #[test]
    fn classify_skips_vendor_and_fixtures() {
        assert!(classify("vendor/proptest/src/lib.rs").is_none());
        assert!(classify("crates/lint/tests/fixtures/bad_r1.rs").is_none());
    }

    #[test]
    fn trace_module_detected() {
        let ctx = classify("crates/sim/src/trace.rs").unwrap();
        assert!(ctx.is_trace_module());
        let other = classify("crates/sim/src/executor.rs").unwrap();
        assert!(!other.is_trace_module());
    }

    #[test]
    fn rng_module_is_exempt_from_r12_escapes() {
        let src = "struct S { r: Arc<SimRng> }\n";
        let rng = classify("crates/sim/src/rng.rs").unwrap();
        assert!(rng.is_rng_module());
        assert!(lint_file(&rng, src).items.rng_type_escapes.is_empty());
        let other = classify("crates/sim/src/executor.rs").unwrap();
        assert_eq!(lint_file(&other, src).items.rng_type_escapes.len(), 1);
    }

    #[test]
    fn ml_crate_not_sim_driven_but_r6_applies() {
        let ctx = classify("crates/ml/src/ensemble.rs").unwrap();
        assert!(!ctx.sim_driven());
        let report = lint_source(&ctx, "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n");
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, RuleId::R6);
    }

    #[test]
    fn reasoned_allow_suppresses_and_is_counted() {
        let ctx = classify("crates/steer/src/policy.rs").unwrap();
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap()); \
                   // hetlint: allow(r6) — NaN-free by construction\n";
        let report = lint_source(&ctx, src);
        assert!(report.violations.is_empty());
        assert_eq!(report.suppressed.len(), 1);
        assert!(report.bad_allows.is_empty());
    }

    #[test]
    fn reasonless_allow_is_flagged() {
        let ctx = classify("crates/steer/src/policy.rs").unwrap();
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // hetlint: allow(r6)\n";
        let report = lint_source(&ctx, src);
        assert!(report.violations.is_empty());
        assert_eq!(report.bad_allows.len(), 1);
        assert_eq!(report.bad_allows[0].rule, RuleId::BadAllow);
    }
}

//! hetlint: the hetflow determinism & invariant static-analysis pass.
//!
//! The repo's central validity claim is bit-reproducibility: the same
//! seed must yield the same trace on any machine. That property is easy
//! to break with one stray wall-clock read or hash-order iteration, and
//! such regressions are invisible until an expensive campaign diverges.
//! hetlint is three layers, each consuming only the one below: a lexer
//! ([`lexer`]: a real token stream, so comments and string literals can
//! never trigger rules), an item parser ([`parser`]: fn items with
//! their calls, sinks, locks and panic sites), and a workspace call
//! graph ([`graph`]). The rules, by the layer they need:
//!
//! Per file, on tokens ([`rules`]):
//!
//! - **R1** no `std::time::{Instant, SystemTime}` / `thread::sleep` in
//!   sim-driven crates or the crates they call into (`ml`, `chem`) —
//!   virtual time only. Aliased imports
//!   (`use std::time::Instant as T`) are tracked.
//! - **R2** no ambient entropy (`thread_rng`, `from_entropy`, `OsRng`)
//!   outside `sim::rng` — named seeded streams only.
//! - **R3** no order-leaking iteration over `HashMap`/`HashSet` in
//!   sim-driven crates — keyed lookup is fine, iteration is not.
//!   Chains are followed across any number of lines.
//! - **R4** no OS-thread spawns — concurrency is `Sim::spawn` over
//!   virtual time, in every crate.
//! - **R5** an `unwrap()`/`expect()`/`panic!()` budget per library
//!   crate, read from the checked-in `hetlint.ratchet` file — a ratchet
//!   that may go down but not up. Runtime faults must travel the typed
//!   failure path (`TaskOutcome::Failed`); only invariant violations
//!   may abort, and each needs a reasoned allow.
//! - **R6** float ordering must be total — `f64::total_cmp` or an
//!   `Ord`-delegating wrapper, never ad-hoc `.partial_cmp().unwrap()`.
//! - **R15** no `let _ = …` on a fabric effect (`submit`, `deliver`,
//!   the `send` family) in sim-driven library code — a discarded
//!   delivery failure is a silently lost task.
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
//! - **R13** a ratcheted count of panic sites reachable from fabric
//!   dispatch.
//!
//! Rule ids are stable: R14 and R16 were retired (their bugs are
//! stopped by R1/R3/R10 at the source and by
//! `clippy::await_holding_lock`) and their numbers are not reused.
//!
//! Violations are suppressed in place with
//! `// hetlint: allow(<rule>) — <reason>`; the reason is mandatory and
//! every suppression is counted in the report. R9 itself cannot be
//! suppressed.

pub mod graph;
pub mod interproc;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod ratchet;
pub mod rules;
pub mod scan;
pub mod workspace;

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose behavior feeds the simulation trace. The root package
/// (`hetflow`) re-exports and drives them, so it is held to the same
/// contract.
pub const SIM_DRIVEN: &[&str] = &["sim", "store", "fabric", "steer", "core", "apps", "hetflow"];

/// The non-driver crates sim-driven code calls into: a wall-clock read
/// there reaches the trace through a return value, so R1 covers them
/// too.
pub const SIM_CALLEES: &[&str] = &["ml", "chem"];

/// The rule that produced a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Wall-clock time in a sim-driven crate.
    R1,
    /// Ambient entropy outside `sim::rng`.
    R2,
    /// Order-leaking hash-container iteration.
    R3,
    /// OS-thread spawn.
    R4,
    /// Unwrap budget exceeded.
    R5,
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
    /// Panic site reachable from fabric dispatch, over the ratchet.
    R13,
    /// Discarded `Result` of a fabric effect.
    R15,
    /// Malformed suppression (missing reason).
    BadAllow,
}

/// Canonical keys of every live numbered rule, in order — the single
/// source for "valid rules" error text. Retired ids (r14, r16) leave
/// gaps; they are not reused.
pub const RULE_KEYS: &[&str] = &[
    "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12", "r13", "r15",
];

impl RuleId {
    /// The canonical lowercase key used in `allow(..)` annotations.
    pub fn key(self) -> &'static str {
        match self {
            RuleId::R1 => "r1",
            RuleId::R2 => "r2",
            RuleId::R3 => "r3",
            RuleId::R4 => "r4",
            RuleId::R5 => "r5",
            RuleId::R6 => "r6",
            RuleId::R7 => "r7",
            RuleId::R8 => "r8",
            RuleId::R9 => "r9",
            RuleId::R10 => "r10",
            RuleId::R11 => "r11",
            RuleId::R12 => "r12",
            RuleId::R13 => "r13",
            RuleId::R15 => "r15",
            RuleId::BadAllow => "bad-allow",
        }
    }

    /// A one-line description for report headers.
    pub fn title(self) -> &'static str {
        match self {
            RuleId::R1 => "R1 virtual-time: no wall clock in sim-driven crates",
            RuleId::R2 => "R2 seeded-rng: no ambient entropy outside sim::rng",
            RuleId::R3 => "R3 hash-order: no HashMap/HashSet iteration in sim-driven crates",
            RuleId::R4 => "R4 threads: no OS-thread spawn; use Sim::spawn",
            RuleId::R5 => "R5 unwrap-budget: unwrap()/expect()/panic!() ratchet per library crate",
            RuleId::R6 => "R6 total-order: float ordering must be total",
            RuleId::R7 => "R7 seed-streams: stream-name literals must be workspace-unique",
            RuleId::R8 => "R8 trace-kinds: emitted kinds and the registry must agree",
            RuleId::R9 => "R9 stale-allow: suppressions must cover a live violation",
            RuleId::R10 => "R10 sim-purity: no ambient I/O reachable from simulation entry points",
            RuleId::R11 => "R11 lock-discipline: locks must be acquired in one global order",
            RuleId::R12 => "R12 rng-provenance: SimRng must not cross thread/channel boundaries",
            RuleId::R13 => "R13 panic-reach: panics reachable from fabric dispatch are ratcheted",
            RuleId::R15 => "R15 discarded-effects: fabric-effect Results must not be discarded",
            RuleId::BadAllow => "suppressions must carry a reason",
        }
    }
}

/// A long-form explanation of one rule, for `hetlint --explain <rule>`.
/// Accepts canonical keys and the same aliases as `allow(..)`; `None`
/// for unknown rules.
pub fn explain(rule: &str) -> Option<&'static str> {
    let key = scan::normalize_rule(rule);
    Some(match key.as_str() {
        "r1" => {
            "R1 virtual-time — sim-driven crates, and the ml and chem crates they call \
             into, must not read the wall clock (std::time::Instant, SystemTime, \
             thread::sleep). The simulation owns time; a wall-clock read makes runs \
             machine-dependent and breaks bit-reproducibility. Aliased imports are \
             tracked. Fix: take time from the Sim handle."
        }
        "r2" => {
            "R2 seeded-rng — no ambient entropy (thread_rng, from_entropy, OsRng) outside \
             crates/sim/src/rng.rs. All randomness derives from the campaign master seed \
             through named streams (SimRng::stream) and substreams, so every draw is \
             attributable and replayable."
        }
        "r3" => {
            "R3 hash-order — no iteration over HashMap/HashSet in sim-driven crates. \
             Iteration order varies across runs and platforms, leaking nondeterminism into \
             anything order-sensitive (schedulers, traces). Keyed lookup is fine. Fix: \
             BTreeMap, or collect-and-sort before iterating."
        }
        "r4" => {
            "R4 threads — no OS-thread spawns (`thread::spawn`, `thread::Builder`, \
             `thread::scope`) in any crate. The simulation is single-threaded over virtual \
             time by design: a thread observes the host's scheduling order. Fix: \
             `Sim::spawn` (virtual concurrency)."
        }
        "r5" => {
            "R5 unwrap-budget — unwrap()/expect()/panic!() sites in pre-test library code \
             are counted per crate against the checked-in hetlint.ratchet. Budgets only go \
             down. Runtime faults must take the typed task-failure path; only invariant \
             violations may abort, each under a reasoned `hetlint: allow(r5) — <why>`."
        }
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
        "r13" => {
            "R13 panic-reach — every unwrap()/expect()/panic!() site transitively \
             reachable from fabric dispatch (submit/deliver) is counted against the \
             `reachable-panics` budget in hetlint.ratchet. A panic on the dispatch path \
             kills the whole campaign, not one task. Sites under a reasoned allow(r5) are \
             exempt; the same annotation serves both rules."
        }
        "r15" => {
            "R15 discarded-effects — `let _ = …` on a fabric effect (submit, deliver, \
             deliver_inner, send, send_now, try_send) in sim-driven library code silently \
             drops a delivery failure: the campaign continues with a lost message and no \
             trace of why. A token rule, so it sees inside async blocks and closures. \
             Handle or propagate the error; a discard whose receiver may legitimately be \
             gone takes a reasoned `hetlint: allow(r15) — <why>`."
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
    /// `src/` library (and `src/bin/`) code — all rules, R5 included.
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

    /// True when the file's crate must obey the virtual-time,
    /// hash-order and discarded-effects rules.
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
    /// Lines of pre-test `unwrap()`/`expect(`/`panic!(` sites that no
    /// allow covers (R5 raw material).
    pub unwrap_sites: Vec<usize>,
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
    /// Item-level parse: fn items with calls/sinks/locks/panics, plus
    /// file-level R12 escapes (raw material for R10–R13).
    pub items: parser::ParsedFile,
}

/// Runs the per-file pass over one source text.
pub fn lint_file(ctx: &FileContext, source: &str) -> LintedFile {
    let prepared = scan::prepare(source);
    let items = parser::parse_items(ctx, &prepared);
    let mut report = FileReport::default();
    let mut matched_allows: Vec<(String, usize)> = Vec::new();
    for v in rules::check_file(ctx, &prepared, &items.fns) {
        match &v.suppression {
            Some(s) if !s.reason.is_empty() => {
                matched_allows.push((v.rule.key().to_string(), s.line));
                report.suppressed.push(v);
            }
            Some(s) => {
                matched_allows.push((v.rule.key().to_string(), s.line));
                let line = s.line;
                report.bad_allows.push(Violation {
                    rule: RuleId::BadAllow,
                    path: ctx.rel_path.clone(),
                    line,
                    message: format!(
                        "allow({}) without a reason; write `hetlint: allow({}) — <why>`",
                        v.rule.key(),
                        v.rule.key()
                    ),
                    suppression: None,
                });
                report.suppressed.push(v);
            }
            None => report.violations.push(v),
        }
    }
    // Reason-less suppressions are flagged even when nothing fired under
    // them — a stale or typo'd allow must not linger silently.
    for s in &prepared.suppr.suppressions {
        if s.reason.is_empty() && !report.bad_allows.iter().any(|b| b.line == s.line) {
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
    let r5 = rules::count_unwraps(ctx, &prepared);
    report.unwrap_sites = r5.sites;
    for line in r5.used_allow_lines {
        matched_allows.push(("r5".to_string(), line));
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
    /// Per-crate `(crate, count, budget)` rows for R5.
    pub unwrap_rows: Vec<(String, usize, usize)>,
    /// `(count, budget)` of un-allowed panic sites reachable from
    /// fabric dispatch (R13); `None` when the interprocedural phase
    /// did not run.
    pub reachable_panics: Option<(usize, usize)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Informational findings that do not fail the run (e.g. ratchet
    /// slack — a budget that could be lowered).
    pub notes: Vec<String>,
}

impl Report {
    /// True when the workspace passes the determinism contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
            && self.bad_allows.is_empty()
            && self.unwrap_rows.iter().all(|(_, count, budget)| count <= budget)
            && self.reachable_panics.is_none_or(|(count, budget)| count <= budget)
    }
}

/// Lints a set of sources as one workspace: the per-file pass over each
/// file, then the cross-file phase (R7–R9), then R5 accounting against
/// the given ratchet. This is [`run`] without the filesystem walk, so
/// fixture tests can exercise the workspace-wide rules on synthetic
/// trees.
pub fn lint_set(inputs: &[(FileContext, String)], budgets: &ratchet::Ratchet) -> Report {
    lint_set_all(inputs, budgets).report
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

/// The full workspace pass: per-file rules over each file, the
/// cross-file phase (R7–R9), the interprocedural rules (R10–R13), and
/// ratchet accounting.
pub fn lint_set_all(
    inputs: &[(FileContext, String)],
    budgets: &ratchet::Ratchet,
) -> WorkspaceOutput {
    let mut files: Vec<LintedFile> = inputs
        .iter()
        .map(|(ctx, source)| lint_file(ctx, source))
        .collect();
    let outcome = workspace::cross_check(&mut files, budgets);

    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    report.reachable_panics = Some(outcome.reachable_panics);
    report.notes.extend(outcome.notes);
    let mut counts: Vec<(String, usize)> = Vec::new();
    for f in files {
        report.violations.extend(f.report.violations);
        report.suppressed.extend(f.report.suppressed);
        report.bad_allows.extend(f.report.bad_allows);
        if !f.report.unwrap_sites.is_empty() {
            match counts.iter_mut().find(|(name, _)| *name == f.ctx.crate_name) {
                Some((_, n)) => *n += f.report.unwrap_sites.len(),
                None => counts.push((f.ctx.crate_name.clone(), f.report.unwrap_sites.len())),
            }
        }
    }
    // Rows cover the union of ratcheted crates and crates with sites, so
    // both "over budget" and "slack" are visible.
    let mut row_names: Vec<String> =
        budgets.budgets.iter().map(|(name, _)| name.clone()).collect();
    for (name, _) in &counts {
        if !row_names.iter().any(|n| n == name) {
            row_names.push(name.clone());
        }
    }
    row_names.sort();
    for name in row_names {
        let count = counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        let budget = budgets.budget_for(&name).unwrap_or(0);
        if count < budget {
            report.notes.push(format!(
                "R5 slack: crate `{name}` uses {count}/{budget} — the ratchet can be \
                 lowered to {count}"
            ));
        }
        report.unwrap_rows.push((name, count, budget));
    }
    WorkspaceOutput { report, graph: outcome.graph }
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

/// Walks the workspace at `root`, loads and verifies the ratchet file,
/// and lints every classified source file (per-file and workspace-wide
/// phases).
pub fn run(root: &Path) -> std::io::Result<Report> {
    run_all(root).map(|out| out.report)
}

/// As [`run`], also returning the call graph.
pub fn run_all(root: &Path) -> std::io::Result<WorkspaceOutput> {
    let budgets = ratchet::load(root)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
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
    Ok(lint_set_all(&inputs, &budgets))
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
    fn rng_module_is_exempt_from_r2() {
        let ctx = classify("crates/sim/src/rng.rs").unwrap();
        assert!(ctx.is_rng_module());
        let report = lint_source(&ctx, "let x = OsRng;\n");
        assert!(report.violations.is_empty());
    }

    #[test]
    fn ml_crate_not_sim_driven_but_r2_applies() {
        let ctx = classify("crates/ml/src/ensemble.rs").unwrap();
        assert!(!ctx.sim_driven());
        let report = lint_source(&ctx, "let r = thread_rng();\n");
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, RuleId::R2);
    }

    #[test]
    fn reasoned_allow_suppresses_and_is_counted() {
        let ctx = classify("crates/steer/src/policy.rs").unwrap();
        let src = "use std::time::Instant; // hetlint: allow(r1) — doc example only\n";
        let report = lint_source(&ctx, src);
        assert!(report.violations.is_empty());
        assert_eq!(report.suppressed.len(), 1);
        assert!(report.bad_allows.is_empty());
    }

    #[test]
    fn reasonless_allow_is_flagged() {
        let ctx = classify("crates/steer/src/policy.rs").unwrap();
        let src = "use std::time::Instant; // hetlint: allow(r1)\n";
        let report = lint_source(&ctx, src);
        assert!(report.violations.is_empty());
        assert_eq!(report.bad_allows.len(), 1);
        assert_eq!(report.bad_allows[0].rule, RuleId::BadAllow);
    }

    #[test]
    fn unwrap_sites_stop_at_test_module() {
        let ctx = classify("crates/store/src/store.rs").unwrap();
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); }\n#[cfg(test)]\nmod tests { fn g() { z.unwrap(); } }\n";
        let report = lint_source(&ctx, src);
        assert_eq!(report.unwrap_sites.len(), 2);
    }

    #[test]
    fn lint_set_accounts_budgets_and_slack() {
        let ctx = classify("crates/store/src/store.rs").unwrap();
        let inputs = vec![(ctx, "fn f() { x.unwrap(); }\n".to_string())];
        let budgets = ratchet::parse("store = 2\n").unwrap();
        let report = lint_set(&inputs, &budgets);
        assert!(report.clean());
        assert_eq!(report.unwrap_rows, vec![("store".to_string(), 1, 2)]);
        assert_eq!(report.notes.len(), 1);
        let tight = ratchet::parse("store = 0\n").unwrap();
        let report2 = lint_set(&inputs, &tight);
        assert!(!report2.clean());
    }
}

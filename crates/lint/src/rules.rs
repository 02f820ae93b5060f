//! The hetlint per-file rule set (R1–R6, R15) plus the raw-material
//! extractors feeding the workspace-wide rules (R7, R8).
//!
//! Every rule enforces one clause of the determinism contract
//! (DESIGN.md "Determinism rules"). Rules operate on the token stream
//! produced by [`crate::lexer`], so comments and string literals can
//! never trigger them, chains wrapped across any number of lines are
//! followed exactly, and `use … as alias` renames of banned items are
//! tracked. Each detection is line-anchored — for a wrapped chain the
//! anchor is the line holding the flagged name — which is what lets
//! `hetlint: allow(<rule>) — <reason>` annotations suppress a specific
//! occurrence.

use crate::lexer::{Tok, TokKind};
use crate::parser::{receiver_chain, FnItem};
use crate::scan::Prepared;
use crate::{FileContext, FileKind, RuleId, Violation, SIM_CALLEES};

/// Token-stream query helpers shared by every rule and the item
/// parser.
#[derive(Clone, Copy)]
pub(crate) struct Toks<'a>(pub(crate) &'a [Tok]);

impl<'a> Toks<'a> {
    pub(crate) fn len(self) -> usize {
        self.0.len()
    }

    pub(crate) fn kind(self, i: usize) -> Option<TokKind> {
        self.0.get(i).map(|t| t.kind)
    }

    pub(crate) fn text(self, i: usize) -> &'a str {
        match self.0.get(i) {
            Some(t) => t.text.as_str(),
            None => "",
        }
    }

    pub(crate) fn line(self, i: usize) -> usize {
        self.0.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// Token `i` is the identifier `s`.
    pub(crate) fn id(self, i: usize, s: &str) -> bool {
        self.0.get(i).is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    /// Token `i` is any identifier.
    pub(crate) fn is_id(self, i: usize) -> bool {
        self.kind(i) == Some(TokKind::Ident)
    }

    /// Token `i` is the punctuation `s`.
    pub(crate) fn p(self, i: usize, s: &str) -> bool {
        self.0.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }
}

/// Runs every applicable per-file rule over one prepared file. `fns`
/// are the file's parsed fn items, used only to name the enclosing
/// function in R15 messages.
pub fn check_file(ctx: &FileContext, prepared: &Prepared, fns: &[FnItem]) -> Vec<Violation> {
    let mut out = Vec::new();
    if ctx.sim_driven() || SIM_CALLEES.contains(&ctx.crate_name.as_str()) {
        r1_virtual_time(ctx, prepared, &mut out);
    }
    if ctx.sim_driven() {
        r3_hash_iteration(ctx, prepared, &mut out);
        if ctx.kind == FileKind::LibSrc {
            r15_discarded_effects(ctx, prepared, fns, &mut out);
        }
    }
    if !ctx.is_rng_module() {
        r2_entropy(ctx, prepared, &mut out);
    }
    r4_thread_spawn(ctx, prepared, &mut out);
    r6_float_order(ctx, prepared, &mut out);
    out
}

fn push(
    out: &mut Vec<Violation>,
    ctx: &FileContext,
    prepared: &Prepared,
    rule: RuleId,
    line_no: usize,
    message: String,
) {
    let suppressed = crate::scan::find_suppression(&prepared.suppr, rule.key(), line_no).cloned();
    out.push(Violation {
        rule,
        path: ctx.rel_path.clone(),
        line: line_no,
        message,
        suppression: suppressed,
    });
}

/// Collects `use … <banned> as <alias>;` renames of banned identifiers,
/// so call sites through the alias are caught (the substring scanner
/// missed these entirely).
fn collect_aliases(t: Toks<'_>, banned: &[&str]) -> Vec<(String, String)> {
    let mut aliases = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if t.id(i, "use") {
            let mut j = i + 1;
            while j < t.len() && !t.p(j, ";") {
                if t.is_id(j)
                    && banned.contains(&t.text(j))
                    && t.id(j + 1, "as")
                    && t.is_id(j + 2)
                {
                    aliases.push((t.text(j + 2).to_string(), t.text(j).to_string()));
                    j += 2;
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    aliases
}

/// R1 — wall-clock and real sleeps are banned in sim-driven crates and
/// the crates they call into: virtual time (`Sim::now`, `Sim::sleep`)
/// is the only clock.
fn r1_virtual_time(ctx: &FileContext, prepared: &Prepared, out: &mut Vec<Violation>) {
    const BANNED: &[&str] = &["Instant", "SystemTime"];
    let t = Toks(&prepared.lex.tokens);
    let aliases = collect_aliases(t, BANNED);
    let mut i = 0;
    while i < t.len() {
        if t.is_id(i) {
            let name = t.text(i);
            if BANNED.contains(&name) {
                let what = if name == "Instant" {
                    "std::time::Instant"
                } else {
                    "std::time::SystemTime"
                };
                push(
                    out,
                    ctx,
                    prepared,
                    RuleId::R1,
                    t.line(i),
                    format!("{what} in a sim-driven crate; use Sim::now() virtual time"),
                );
            } else if let Some((_, base)) = aliases.iter().find(|(a, _)| a == name) {
                push(
                    out,
                    ctx,
                    prepared,
                    RuleId::R1,
                    t.line(i),
                    format!(
                        "`{name}` aliases std::time::{base} in a sim-driven crate; use \
                         Sim::now() virtual time"
                    ),
                );
            } else if name == "thread" && t.p(i + 1, "::") && t.id(i + 2, "sleep") {
                push(
                    out,
                    ctx,
                    prepared,
                    RuleId::R1,
                    t.line(i),
                    "std::thread::sleep in a sim-driven crate; use Sim::sleep virtual time"
                        .into(),
                );
            }
        }
        i += 1;
    }
}

/// R2 — ambient entropy is banned everywhere outside `sim::rng`: all
/// randomness flows through named seeded streams.
fn r2_entropy(ctx: &FileContext, prepared: &Prepared, out: &mut Vec<Violation>) {
    const BANNED: &[&str] = &["thread_rng", "from_entropy", "OsRng"];
    let t = Toks(&prepared.lex.tokens);
    let aliases = collect_aliases(t, BANNED);
    let mut i = 0;
    while i < t.len() {
        if t.is_id(i) {
            let name = t.text(i);
            if BANNED.contains(&name) {
                push(
                    out,
                    ctx,
                    prepared,
                    RuleId::R2,
                    t.line(i),
                    format!("{name} outside sim::rng; derive a named stream via SimRng::stream"),
                );
            } else if let Some((_, base)) = aliases.iter().find(|(a, _)| a == name) {
                push(
                    out,
                    ctx,
                    prepared,
                    RuleId::R2,
                    t.line(i),
                    format!(
                        "`{name}` aliases {base} outside sim::rng; derive a named stream via \
                         SimRng::stream"
                    ),
                );
            }
        }
        i += 1;
    }
}

/// Iteration methods whose order reflects hash state.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Accessor/borrow hops a chain may pass through between a container
/// name and an order-leaking method.
const CHAIN_HOPS: &[&str] = &[
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "clone",
    "lock",
    "read",
    "write",
];

/// Smart-pointer wrappers that are transparent for R3 purposes:
/// iterating through them still iterates the hash container. Outer
/// *collections* (`Vec<HashMap<…>>`) are not listed — iterating a Vec
/// of maps is deterministic — which kills a false-positive class of the
/// old scanner.
const TRANSPARENT_WRAPPERS: &[&str] =
    &["RefCell", "Cell", "Rc", "Arc", "Mutex", "RwLock", "Box"];

/// R3 — iterating a `HashMap`/`HashSet` leaks memory-layout order into
/// event order in sim-driven crates. Keyed lookup (`get`, `insert`,
/// `contains_key`, …) is fine; iteration must go through `BTreeMap`/
/// `BTreeSet` or explicit sorting.
fn r3_hash_iteration(ctx: &FileContext, prepared: &Prepared, out: &mut Vec<Violation>) {
    let t = Toks(&prepared.lex.tokens);
    let names = collect_hash_names(t);
    if names.is_empty() {
        return;
    }
    let mut i = 0;
    while i < t.len() {
        if t.is_id(i) && names.iter().any(|n| n == t.text(i)) {
            let name = t.text(i).to_string();
            // Method-chain iteration, following hops across any number
            // of lines (the old 2-line join window missed ≥3-line
            // chains and could double-report window boundaries).
            if let Some(method) = chain_reaches_iteration(t, i + 1) {
                push(
                    out,
                    ctx,
                    prepared,
                    RuleId::R3,
                    t.line(i),
                    format!(
                        "`{name}` is a HashMap/HashSet and `.{method}()` leaks hash order; \
                         use BTreeMap/BTreeSet or sort explicitly"
                    ),
                );
            } else if is_direct_for_iteration(t, i) {
                push(
                    out,
                    ctx,
                    prepared,
                    RuleId::R3,
                    t.line(i),
                    format!(
                        "`for … in {name}` iterates a HashMap/HashSet in hash order; \
                         use BTreeMap/BTreeSet or sort explicitly"
                    ),
                );
            }
        }
        i += 1;
    }
}

/// Follows a method chain starting right after a container name and
/// returns the order-leaking method it reaches, if any. Allowed hops:
/// `?`, closing parens, and the accessor calls in [`CHAIN_HOPS`].
fn chain_reaches_iteration(t: Toks<'_>, mut j: usize) -> Option<&'static str> {
    loop {
        if t.p(j, "?") || t.p(j, ")") {
            j += 1;
            continue;
        }
        if t.p(j, ".") && t.is_id(j + 1) {
            let m = t.text(j + 1);
            if let Some(hit) = ITER_METHODS.iter().find(|im| **im == m) {
                if t.p(j + 2, "(") {
                    return Some(hit);
                }
                return None;
            }
            if CHAIN_HOPS.contains(&m) && t.p(j + 2, "(") && t.p(j + 3, ")") {
                j += 4;
                continue;
            }
            return None;
        }
        return None;
    }
}

/// True when the name at `i` is the direct target of a `for … in`
/// loop: `for x in [&[mut]] name {`. Method-call targets
/// (`for k in name.keys()`) are handled by the chain check, so this
/// requires `{` right after the name — exactly one report per loop
/// (the old scanner reported `for k in map.keys()` twice).
fn is_direct_for_iteration(t: Toks<'_>, i: usize) -> bool {
    if !t.p(i + 1, "{") {
        return false;
    }
    let mut b = i;
    while b > 0 && (t.p(b - 1, "&") || t.id(b - 1, "mut")) {
        b -= 1;
    }
    if b == 0 || !t.id(b - 1, "in") {
        return false;
    }
    // A `for` keyword must open the same statement.
    let mut k = b - 1;
    let mut guard = 0;
    while k > 0 && guard < 64 {
        k -= 1;
        guard += 1;
        if t.id(k, "for") {
            return true;
        }
        if t.p(k, ";") || t.p(k, "{") || t.p(k, "}") {
            return false;
        }
    }
    false
}

/// Collects every name declared with a hash-container type: `let`
/// bindings (simple, type-ascribed, and tuple patterns, matched
/// positionally), struct fields, and function parameters, seen through
/// transparent smart-pointer wrappers and path qualification.
fn collect_hash_names(t: Toks<'_>) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut add = |n: &str| {
        if !n.is_empty() && !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };
    let mut i = 0;
    while i < t.len() {
        let is_hash = t.id(i, "HashMap") || t.id(i, "HashSet");
        // Require a type/constructor position: `HashMap<` or `HashMap::`.
        if is_hash && (t.p(i + 1, "<") || t.p(i + 1, "::")) {
            // Walk outward over path segments (`std::collections::`),
            // transparent wrapper generics (`RefCell<`), and reference
            // sigils, to the position the declaring name would precede.
            let mut o = i;
            loop {
                if o >= 2 && t.p(o - 1, "::") && t.is_id(o - 2) {
                    o -= 2;
                    continue;
                }
                if o >= 2
                    && t.p(o - 1, "<")
                    && t.is_id(o - 2)
                    && TRANSPARENT_WRAPPERS.contains(&t.text(o - 2))
                {
                    o -= 2;
                    continue;
                }
                if o >= 1
                    && (t.p(o - 1, "&")
                        || t.id(o - 1, "mut")
                        || t.kind(o - 1) == Some(TokKind::Lifetime))
                {
                    o -= 1;
                    continue;
                }
                break;
            }
            // Field / parameter / ascription position: `name: <type>`.
            if o >= 2 && t.p(o - 1, ":") && t.is_id(o - 2) {
                add(t.text(o - 2));
            } else if let Some(name) = let_bound_name(t, i) {
                add(&name);
            }
        }
        i += 1;
    }
    names
}

/// Resolves which `let`-bound name a hash-container token at `i`
/// belongs to, handling `let m = HashMap::new()`, tuple patterns
/// matched positionally against tuple initializers or tuple type
/// ascriptions, and `mut` markers. Returns `None` when the container
/// cannot be attributed to a single binding.
fn let_bound_name(t: Toks<'_>, i: usize) -> Option<String> {
    // Find the statement's `let`, bounded by statement delimiters.
    let mut k = i;
    let mut guard = 0;
    let let_idx = loop {
        if k == 0 || guard > 128 {
            return None;
        }
        k -= 1;
        guard += 1;
        if t.id(k, "let") {
            break k;
        }
        if t.p(k, ";") || t.p(k, "}") {
            return None;
        }
    };
    let mut p0 = let_idx + 1;
    if t.id(p0, "mut") {
        p0 += 1;
    }
    // The binding `=` is the first top-level `=` after the pattern.
    let eq = find_binding_eq(t, let_idx)?;
    if t.is_id(p0) {
        // Simple binding: `let name [: T] = …` — count the container
        // only when it appears in the initializer (ascription positions
        // were already handled by the `name: <type>` case, which
        // deliberately skips non-transparent outer collections).
        if i > eq {
            return Some(t.text(p0).to_string());
        }
        return None;
    }
    if t.p(p0, "(") {
        // Tuple pattern: collect element names, then match the
        // container's position against the tuple initializer or the
        // tuple type ascription.
        let (elems, close) = tuple_pattern_elems(t, p0)?;
        if i > eq {
            if t.p(eq + 1, "(") {
                let idx = comma_index_before(t, eq + 1, i)?;
                return elems.get(idx).cloned();
            }
            return None;
        }
        if t.p(close + 1, ":") && t.p(close + 2, "(") {
            let idx = comma_index_before(t, close + 2, i)?;
            return elems.get(idx).cloned();
        }
    }
    None
}

/// Index of the first top-level `=` after a `let`, skipping over
/// bracketed groups (pattern tuples, generic arguments use `<` which
/// never nests an `=` in this grammar subset).
fn find_binding_eq(t: Toks<'_>, let_idx: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = let_idx + 1;
    let mut guard = 0;
    while j < t.len() && guard < 256 {
        if t.p(j, "(") || t.p(j, "[") || t.p(j, "{") {
            depth += 1;
        } else if t.p(j, ")") || t.p(j, "]") || t.p(j, "}") {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        } else if depth == 0 && t.p(j, "=") && !t.p(j + 1, "=") {
            return Some(j);
        } else if depth == 0 && t.p(j, ";") {
            return None;
        }
        j += 1;
        guard += 1;
    }
    None
}

/// Element names of a tuple pattern opening at `open` (`(` token),
/// positionally: `(a, mut b, _)` → `["a", "b", ""]`. Returns the
/// names and the index of the closing `)`.
fn tuple_pattern_elems(t: Toks<'_>, open: usize) -> Option<(Vec<String>, usize)> {
    let mut elems: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut depth = 1i32;
    let mut j = open + 1;
    while j < t.len() {
        if t.p(j, "(") {
            depth += 1;
        } else if t.p(j, ")") {
            depth -= 1;
            if depth == 0 {
                elems.push(current);
                return Some((elems, j));
            }
        } else if depth == 1 && t.p(j, ",") {
            elems.push(std::mem::take(&mut current));
        } else if depth == 1 && t.is_id(j) && !t.id(j, "mut") && !t.id(j, "ref") {
            current = t.text(j).to_string();
        }
        j += 1;
    }
    None
}

/// Which depth-1 comma-separated slot of the group opening at `open`
/// the token index `target` falls in.
fn comma_index_before(t: Toks<'_>, open: usize, target: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut idx = 0usize;
    let mut j = open;
    while j < target && j < t.len() {
        if t.p(j, "(") || t.p(j, "[") {
            depth += 1;
        } else if t.p(j, ")") || t.p(j, "]") {
            depth -= 1;
            if depth == 0 {
                return None;
            }
        } else if depth == 1 && t.p(j, ",") {
            idx += 1;
        }
        j += 1;
    }
    Some(idx)
}

/// R4 — OS threads are banned: a thread observes real scheduling
/// order, which virtual time must never see.
fn r4_thread_spawn(ctx: &FileContext, prepared: &Prepared, out: &mut Vec<Violation>) {
    let t = Toks(&prepared.lex.tokens);
    let mut i = 0;
    while i + 2 < t.len() {
        if t.id(i, "thread")
            && t.p(i + 1, "::")
            && (t.id(i + 2, "spawn") || t.id(i + 2, "Builder") || t.id(i + 2, "scope"))
        {
            push(
                out,
                ctx,
                prepared,
                RuleId::R4,
                t.line(i),
                "OS thread spawn in a sim-driven crate; use Sim::spawn (virtual concurrency)"
                    .into(),
            );
        }
        i += 1;
    }
}

/// R6 — ad-hoc float comparisons in ordering positions are banned:
/// `.partial_cmp(..)` calls (typically `.partial_cmp(b).unwrap()`) must
/// become `f64::total_cmp` or a total-order wrapper type that delegates
/// `partial_cmp` to `Ord::cmp` (the `sim::executor::TimerKey` pattern).
/// Definitions (`fn partial_cmp`) have no leading `.` and are the
/// blessed delegation pattern, so only calls match.
fn r6_float_order(ctx: &FileContext, prepared: &Prepared, out: &mut Vec<Violation>) {
    let t = Toks(&prepared.lex.tokens);
    let mut i = 0;
    while i + 2 < t.len() {
        if t.p(i, ".") && t.id(i + 1, "partial_cmp") && t.p(i + 2, "(") {
            push(
                out,
                ctx,
                prepared,
                RuleId::R6,
                t.line(i + 1),
                "ad-hoc .partial_cmp() in an ordering position; use f64::total_cmp or a \
                 total-order wrapper delegating to Ord"
                    .into(),
            );
        }
        i += 1;
    }
}

/// Fabric-effect calls whose `Result` must not be discarded (R15).
const EFFECT_CALLS: &[&str] =
    &["submit", "deliver", "deliver_inner", "send", "send_now", "try_send"];

/// R15 — a `let _ = …;` statement whose initializer calls a fabric
/// effect drops a delivery failure on the floor: the campaign runs on
/// one message short with no trace of why. Pre-test library code of
/// sim-driven crates only. Being a token rule it finds the statement
/// wherever it sits — `async move { … }` blocks and closures, the shape
/// of every actor in this tree, included.
fn r15_discarded_effects(
    ctx: &FileContext,
    prepared: &Prepared,
    fns: &[FnItem],
    out: &mut Vec<Violation>,
) {
    let t = Toks(&prepared.lex.tokens);
    for i in 0..t.len() {
        let line = t.line(i);
        if line >= prepared.test_boundary {
            break;
        }
        let discard = t.id(i, "let") && t.id(i + 1, "_") && (t.p(i + 2, "=") || t.p(i + 2, ":"));
        if !discard {
            continue;
        }
        let Some(what) = first_effect_call(t, i + 3) else { continue };
        let owner = fns
            .iter()
            .rev()
            .find(|f| f.line <= line)
            .map_or("<unparsed fn>", |f| f.qname.as_str());
        push(
            out,
            ctx,
            prepared,
            RuleId::R15,
            line,
            format!(
                "`{owner}` discards the Result of `{what}` at line {line}; a dropped \
                 fabric effect is a silent message loss — handle or propagate the \
                 error, or annotate with `hetlint: allow(r15) — <why>`"
            ),
        );
    }
}

/// The first [`EFFECT_CALLS`] call in the statement starting at `j`
/// (through its depth-0 `;`), rendered `recv.chain.name()` for a method
/// call and `name()` for a path call.
fn first_effect_call(t: Toks<'_>, mut j: usize) -> Option<String> {
    let mut depth = 0i32;
    while j < t.len() {
        if t.p(j, "(") || t.p(j, "[") || t.p(j, "{") {
            depth += 1;
        } else if t.p(j, ")") || t.p(j, "]") || t.p(j, "}") {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        } else if depth == 0 && t.p(j, ";") {
            return None;
        } else if t.is_id(j) && EFFECT_CALLS.contains(&t.text(j)) && t.p(j + 1, "(") {
            let name = t.text(j);
            let is_method = j > 0 && t.p(j - 1, ".");
            let recv = if is_method { receiver_chain(t, j - 1) } else { String::new() };
            return Some(if recv.is_empty() {
                format!("{name}()")
            } else {
                format!("{recv}.{name}()")
            });
        }
        j += 1;
    }
    None
}

/// R5 raw material: `.unwrap()` / `.expect(` / `panic!(` sites in
/// library code before the test boundary.
#[derive(Debug, Default)]
pub struct R5Sites {
    /// Lines of countable sites (one entry per site).
    pub sites: Vec<usize>,
    /// Lines of `allow(r5)` annotations that excluded a site — R9 uses
    /// this to tell live suppressions from stale ones.
    pub used_allow_lines: Vec<usize>,
}

/// Counts `.unwrap()` / `.expect(` / `panic!(` sites in library code
/// (R5 inputs). Explicit panics count the same as unwraps: both abort a
/// campaign instead of traveling the typed failure path
/// (`TaskOutcome::Failed`), so both are rationed by the same ratchet.
///
/// Only tokens before the file's `#[cfg(test)]` boundary count, and
/// sites covered by an `allow(r5)` suppression are excluded (but the
/// covering annotation is recorded as used).
pub fn count_unwraps(ctx: &FileContext, prepared: &Prepared) -> R5Sites {
    let mut out = R5Sites::default();
    if ctx.kind != FileKind::LibSrc {
        return out;
    }
    let t = Toks(&prepared.lex.tokens);
    let mut i = 0;
    while i < t.len() {
        let line = t.line(i);
        if line >= prepared.test_boundary {
            break;
        }
        let hit = (t.p(i, ".") && t.id(i + 1, "unwrap") && t.p(i + 2, "(") && t.p(i + 3, ")"))
            || (t.p(i, ".") && t.id(i + 1, "expect") && t.p(i + 2, "("))
            || (t.id(i, "panic") && t.p(i + 1, "!") && t.p(i + 2, "("));
        if hit {
            // Anchor on the method/macro name so wrapped calls attach
            // to the right line.
            let site_line = if t.p(i, ".") { t.line(i + 1) } else { line };
            match crate::scan::find_suppression(&prepared.suppr, "r5", site_line) {
                Some(s) => {
                    if !out.used_allow_lines.contains(&s.line) {
                        out.used_allow_lines.push(s.line);
                    }
                }
                None => out.sites.push(site_line),
            }
        }
        i += 1;
    }
    out
}

/// One `SimRng::stream`/`.stream("…")` call site (R7 raw material).
#[derive(Clone, Debug)]
pub struct StreamUse {
    /// The stream-name string literal.
    pub name: String,
    /// 1-based line of the call.
    pub line: usize,
}

/// Collects seed-stream derivation sites: `SimRng::stream(seed, "name")`
/// and method-style `master.stream("name")`. Only pre-test library code
/// counts — tests legitimately reuse names to probe stream equality —
/// and `sim::rng` itself (definitions, doc examples) is exempt.
pub fn stream_uses(ctx: &FileContext, prepared: &Prepared) -> Vec<StreamUse> {
    let mut out = Vec::new();
    if ctx.kind != FileKind::LibSrc || ctx.is_rng_module() {
        return out;
    }
    let t = Toks(&prepared.lex.tokens);
    let mut i = 1;
    while i < t.len() {
        if t.id(i, "stream") && t.p(i + 1, "(") && t.line(i) < prepared.test_boundary {
            let qualified = t.p(i - 1, ".")
                || (t.p(i - 1, "::") && i >= 2 && t.id(i - 2, "SimRng"));
            if qualified {
                if let Some(name) = first_str_arg(&prepared.lex.tokens, i + 2) {
                    out.push(StreamUse { name, line: t.line(i) });
                }
            }
        }
        i += 1;
    }
    out
}

/// First string literal at argument depth 1 starting from the token
/// just inside a call's opening paren.
fn first_str_arg(toks: &[Tok], mut j: usize) -> Option<String> {
    let t = Toks(toks);
    let mut depth = 1i32;
    while j < toks.len() && depth > 0 {
        if t.p(j, "(") || t.p(j, "[") || t.p(j, "{") {
            depth += 1;
        } else if t.p(j, ")") || t.p(j, "]") || t.p(j, "}") {
            depth -= 1;
        } else if depth == 1 && t.kind(j) == Some(TokKind::Str) {
            return Some(t.text(j).to_string());
        }
        j += 1;
    }
    None
}

/// How an emit site names its event kind (R8 raw material).
#[derive(Clone, Debug)]
pub enum EmitKindRef {
    /// `kinds::SOME_CONST` — the blessed form.
    Const(String),
    /// An ad-hoc string literal.
    Literal(String),
}

/// One `.emit(…)` call site with a resolvable kind argument.
#[derive(Clone, Debug)]
pub struct EmitSite {
    /// How the kind argument was written.
    pub kind: EmitKindRef,
    /// 1-based line of the call.
    pub line: usize,
}

/// Collects `.emit(t, actor, <kind>, …)` call sites in pre-test library
/// code and resolves the kind argument (the third) when it is either a
/// `kinds::CONST` path or a string literal.
pub fn emit_sites(ctx: &FileContext, prepared: &Prepared) -> Vec<EmitSite> {
    let mut out = Vec::new();
    if ctx.kind != FileKind::LibSrc {
        return out;
    }
    let t = Toks(&prepared.lex.tokens);
    let mut i = 0;
    while i + 2 < t.len() {
        if t.p(i, ".")
            && t.id(i + 1, "emit")
            && t.p(i + 2, "(")
            && t.line(i + 1) < prepared.test_boundary
        {
            if let Some(kind) = third_arg_kind(&prepared.lex.tokens, i + 3) {
                out.push(EmitSite { kind, line: t.line(i + 1) });
            }
        }
        i += 1;
    }
    out
}

/// Resolves the third argument of a call whose body starts at `j`
/// (just inside the `(`), when it is `kinds::CONST` or a string
/// literal.
fn third_arg_kind(toks: &[Tok], mut j: usize) -> Option<EmitKindRef> {
    let t = Toks(toks);
    let mut depth = 1i32;
    let mut arg = 0usize;
    let mut arg_tokens: Vec<usize> = Vec::new();
    while j < toks.len() && depth > 0 {
        if t.p(j, "(") || t.p(j, "[") || t.p(j, "{") {
            depth += 1;
        } else if t.p(j, ")") || t.p(j, "]") || t.p(j, "}") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 && t.p(j, ",") {
            arg += 1;
            if arg > 2 {
                break;
            }
            j += 1;
            continue;
        }
        if depth >= 1 && arg == 2 {
            arg_tokens.push(j);
        }
        j += 1;
    }
    if arg_tokens.is_empty() {
        return None;
    }
    // `kinds::CONST` anywhere in the argument (covers `trace::kinds::X`).
    let mut k = 0;
    while k + 2 < arg_tokens.len() + 2 && k < arg_tokens.len() {
        let a = arg_tokens[k];
        if t.id(a, "kinds") && t.p(a + 1, "::") && t.is_id(a + 2) {
            return Some(EmitKindRef::Const(t.text(a + 2).to_string()));
        }
        k += 1;
    }
    if arg_tokens.len() == 1 && t.kind(arg_tokens[0]) == Some(TokKind::Str) {
        return Some(EmitKindRef::Literal(t.text(arg_tokens[0]).to_string()));
    }
    None
}

/// One entry of the trace-event-kind registry (R8 raw material).
#[derive(Clone, Debug)]
pub struct RegistryEntry {
    /// The constant's name, e.g. `TASK_CREATED`.
    pub const_name: String,
    /// The kind string the constant holds.
    pub value: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// Parses the central trace-event-kind registry out of the trace
/// module: every `const NAME: &str = "value";` before the test
/// boundary. Returns an empty list for any other file.
pub fn registry_entries(ctx: &FileContext, prepared: &Prepared) -> Vec<RegistryEntry> {
    let mut out = Vec::new();
    if !ctx.is_trace_module() {
        return out;
    }
    let t = Toks(&prepared.lex.tokens);
    let mut i = 0;
    while i + 6 < t.len() {
        if t.id(i, "const")
            && t.is_id(i + 1)
            && t.p(i + 2, ":")
            && t.p(i + 3, "&")
            && t.id(i + 4, "str")
            && t.p(i + 5, "=")
            && t.kind(i + 6) == Some(TokKind::Str)
            && t.line(i) < prepared.test_boundary
        {
            out.push(RegistryEntry {
                const_name: t.text(i + 1).to_string(),
                value: t.text(i + 6).to_string(),
                line: t.line(i),
            });
        }
        i += 1;
    }
    out
}

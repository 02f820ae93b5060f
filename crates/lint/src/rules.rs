//! The hetlint per-file rule (R6) plus the raw-material extractors
//! feeding the workspace-wide rules (R7, R8).
//!
//! Every rule enforces one clause of the determinism contract
//! (DESIGN.md §7). Rules operate on the token stream produced by
//! [`crate::lexer`], so comments and string literals can never trigger
//! them. Each detection is line-anchored, which is what lets
//! `hetlint: allow(<rule>) — <reason>` annotations suppress a specific
//! occurrence.

use crate::lexer::{Tok, TokKind};
use crate::scan::Prepared;
use crate::{FileContext, FileKind, RuleId, Violation};

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

/// R6, the one per-file rule — ad-hoc float comparisons in ordering
/// positions are banned: `.partial_cmp(..)` calls (typically
/// `.partial_cmp(b).unwrap()`) must become `f64::total_cmp` or a
/// total-order wrapper type that delegates `partial_cmp` to `Ord::cmp`
/// (the `sim::executor::TimerKey` pattern). Definitions
/// (`fn partial_cmp`) have no leading `.` and are the blessed
/// delegation pattern, so only calls match.
pub fn check_file(ctx: &FileContext, prepared: &Prepared) -> Vec<Violation> {
    let t = Toks(&prepared.lex.tokens);
    (0..t.len().saturating_sub(2))
        .filter(|&i| t.p(i, ".") && t.id(i + 1, "partial_cmp") && t.p(i + 2, "("))
        .map(|i| {
            let line = t.line(i + 1);
            Violation {
                rule: RuleId::R6,
                path: ctx.rel_path.clone(),
                line,
                message: "ad-hoc .partial_cmp() in an ordering position; use f64::total_cmp \
                          or a total-order wrapper delegating to Ord"
                    .into(),
                suppression: crate::scan::find_suppression(&prepared.suppr, "r6", line).cloned(),
            }
        })
        .collect()
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

//! The item-level parser: from token stream to function items.
//!
//! The lexer gives hetlint honest tokens; this layer gives it *shape*.
//! It recovers the item structure a whole-workspace analysis needs —
//! `mod` nesting, `impl` blocks, `fn` items with their bodies — and,
//! inside each body, the raw material the interprocedural rules consume:
//! call expressions (path calls, method calls, macro invocations),
//! banned-sink uses, lock acquisitions and guard drops, `.await`
//! points, and `SimRng` bindings.
//!
//! It is deliberately not a full Rust parser. It tracks exactly the
//! grammar needed to attribute a token to the innermost enclosing
//! function and to qualify that function with a per-crate module path
//! (`apps::moldesign::run`, `sim::channel::Sender::send`). Everything it
//! cannot attribute it drops, erring toward *more* edges in the graph —
//! the reachability rules are over-approximate by design, and reasoned
//! `allow(..)` annotations are the escape hatch, never parser cleverness.
//!
//! Only tokens before the file's `#[cfg(test)]` boundary are parsed:
//! test modules may print, panic, and juggle RNGs freely.

use crate::lexer::TokKind;
use crate::rules::Toks;
use crate::scan::Prepared;
use crate::FileContext;

/// How a call site names its target.
#[derive(Clone, Debug, PartialEq)]
pub enum Callee {
    /// A path call: `foo(..)`, `module::foo(..)`, `Type::new(..)`.
    /// Segments are in source order (`["Type", "new"]`).
    Path(Vec<String>),
    /// A method call: `recv.foo(..)`.
    Method(String),
    /// A macro invocation: `name!(..)`.
    Macro(String),
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The syntactic target.
    pub callee: Callee,
    /// For a method call whose receiver is a typed parameter of the
    /// enclosing fn (`key.id()` under `key: Symbol`): the declared
    /// type's name; for a bare `self` receiver: the enclosing impl's
    /// type. `None` for every other receiver.
    pub recv_type: Option<String>,
    /// 1-based line of the call.
    pub line: usize,
}

/// A use of a banned ambient-I/O facility (R10 raw material).
#[derive(Clone, Debug)]
pub struct SinkSite {
    /// What was reached, e.g. `println!` or `std::fs::read`.
    pub what: String,
    /// 1-based line.
    pub line: usize,
}

/// One `.lock()` acquisition (R11 raw material).
#[derive(Clone, Debug)]
pub struct LockSite {
    /// Best-effort name of the locked object: the identifier chain
    /// receiving the call (`self.queue`, `state`). Lock-order
    /// comparisons key on this.
    pub target: String,
    /// The guard's binding name when the statement is
    /// `let <name> = <target>.lock()…;` — `None` for a temporary
    /// guard that dies at the end of the statement.
    pub guard: Option<String>,
    /// Token index of the acquisition (for ordering within the body).
    pub tok: usize,
    /// 1-based line.
    pub line: usize,
}

/// A `drop(<guard>)` call, releasing a named lock guard early (R11 raw
/// material: it ends the span in which a second lock forms an order
/// pair).
#[derive(Clone, Debug)]
pub struct DropSite {
    /// The dropped binding.
    pub name: String,
    /// Token index (for ordering against lock acquisitions).
    pub tok: usize,
}

/// A `SimRng` value handed to a channel send (R12 raw material).
#[derive(Clone, Debug)]
pub struct RngSendSite {
    /// The binding that was sent.
    pub binding: String,
    /// 1-based line.
    pub line: usize,
}

/// A `SimRng` stored inside a thread-crossing container type
/// (R12 raw material): `Arc<SimRng>`, `Mutex<…SimRng…>`,
/// `Sender<SimRng>`, ….
#[derive(Clone, Debug)]
pub struct RngTypeEscape {
    /// The offending container (`Arc`, `Sender`, …).
    pub container: String,
    /// 1-based line of the type.
    pub line: usize,
}

/// One parsed function item with everything the graph rules need.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Fully qualified name: crate, file modules, inline modules, the
    /// impl type when present, then the name —
    /// `sim::channel::Sender::send`.
    pub qname: String,
    /// The enclosing `impl` block's type name, when any.
    pub impl_type: Option<String>,
    /// True for `async fn`.
    pub is_async: bool,
    /// True when the body contains an `.await` point.
    pub has_await: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameter names in declaration order (`self` included when the
    /// item is a method).
    pub params: Vec<String>,
    /// Declared type name of each parameter, parallel to `params`:
    /// the last path segment before any generics, through references
    /// (`key: &mut sim::Symbol` → `Symbol`). `None` for `self`,
    /// `impl`/`dyn` types, non-path types, and parameters the body
    /// rebinds (`let key = …` shadows the declaration).
    pub param_types: Vec<Option<String>>,
    /// Every call expression in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Banned-sink uses in the body.
    pub sinks: Vec<SinkSite>,
    /// Lock acquisitions in the body.
    pub locks: Vec<LockSite>,
    /// Early guard releases (`drop(guard)`).
    pub drops: Vec<DropSite>,
    /// `SimRng` values passed into channel sends.
    pub rng_sends: Vec<RngSendSite>,
}

/// A parsed file: its functions plus file-level R12 type escapes.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Function items in source order.
    pub fns: Vec<FnItem>,
    /// `SimRng` stored in thread-crossing container types, anywhere in
    /// the file (struct fields, signatures, aliases).
    pub rng_type_escapes: Vec<RngTypeEscape>,
}

/// Keywords that look like a call head when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "let", "move", "fn",
    "impl", "dyn", "where", "mut", "ref", "pub", "crate", "super", "use", "mod", "box", "break",
    "continue", "await", "async", "unsafe", "const", "static", "trait", "struct", "enum", "type",
];

/// Container types whose generic payload crosses a thread boundary.
const THREAD_CROSSING: &[&str] = &["Arc", "Mutex", "RwLock", "Sender", "Receiver", "SyncSender"];

/// Output/ambient-I/O macros banned on sim-tainted paths (R10).
const SINK_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// The module path a file contributes: crate name, then the source
/// path's components with `lib.rs` / `main.rs` / `mod.rs` / `bin/`
/// elided (`crates/apps/src/moldesign.rs` → `["apps", "moldesign"]`).
pub fn module_path_of(ctx: &FileContext) -> Vec<String> {
    let mut path = vec![ctx.crate_name.clone()];
    let rel = &ctx.rel_path;
    let tail = match rel.find("src/") {
        Some(at) => &rel[at + 4..],
        None => return path,
    };
    for comp in tail.split('/') {
        let comp = comp.strip_suffix(".rs").unwrap_or(comp);
        if matches!(comp, "lib" | "main" | "mod" | "bin") {
            continue;
        }
        path.push(comp.to_string());
    }
    path
}

/// What a brace on the scope stack opened.
#[derive(Debug)]
enum Scope {
    /// An inline `mod name {`.
    Mod(String),
    /// An `impl … {` block for the named type.
    Impl(String),
    /// A `fn` body; the index points into `ParsedFile::fns`.
    Fn(usize),
    /// Any other `{ … }` group.
    Block,
}

/// What the most recent item header promised the next `{` will open.
#[derive(Debug)]
enum Pending {
    Mod(String),
    Impl(String),
    Fn { name: String, is_async: bool, line: usize, params: Vec<(String, Option<String>)> },
}

/// Parses one prepared file into items. Tokens at or past the
/// `#[cfg(test)]` boundary are ignored.
pub fn parse_items(ctx: &FileContext, prepared: &Prepared) -> ParsedFile {
    let toks = &prepared.lex.tokens;
    let end = toks
        .iter()
        .position(|t| t.line >= prepared.test_boundary)
        .unwrap_or(toks.len());
    let t = Toks(&toks[..end]);
    let mut out = ParsedFile::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;

    let mut i = 0usize;
    while i < t.len() {
        // Item headers. A header only arms `pending`; the next `{`
        // attaches it to the scope stack. A `;` first (trait method
        // declaration, `mod name;` file module) cancels it.
        if t.id(i, "mod") && t.is_id(i + 1) && !t.p(i + 2, ";") {
            pending = Some(Pending::Mod(t.text(i + 1).to_string()));
            i += 2;
            continue;
        }
        // `impl` opens a block only at item position: inside a pending fn
        // header it is an `impl Trait` parameter or return type, and the
        // next `{` is still that fn's body.
        if t.id(i, "impl") && !matches!(pending, Some(Pending::Fn { .. })) {
            let (ty, next) = impl_type_name(t, i);
            pending = Some(Pending::Impl(ty));
            i = next;
            continue;
        }
        if t.id(i, "fn") && t.is_id(i + 1) {
            let is_async = looks_async(t, i);
            pending = Some(Pending::Fn {
                name: t.text(i + 1).to_string(),
                is_async,
                line: t.line(i),
                params: params_of(t, i + 2),
            });
            // Signature parameters contribute R12 bindings; collect them
            // into the not-yet-created item via a side record below.
            i += 2;
            continue;
        }
        if t.p(i, ";") {
            // A `;` at item level cancels a pending header (trait fn
            // declaration); inside a body it is just a statement end.
            if !matches!(scopes.last(), Some(Scope::Fn(_))) {
                pending = None;
            }
            i += 1;
            continue;
        }
        if t.p(i, "{") {
            let scope = match pending.take() {
                Some(Pending::Mod(name)) => Scope::Mod(name),
                Some(Pending::Impl(ty)) => Scope::Impl(ty),
                Some(Pending::Fn { name, is_async, line, params }) => {
                    let item = new_fn_item(ctx, &scopes, &name, is_async, line, params);
                    out.fns.push(item);
                    Scope::Fn(out.fns.len() - 1)
                }
                None => Scope::Block,
            };
            scopes.push(scope);
            i += 1;
            continue;
        }
        if t.p(i, "}") {
            scopes.pop();
            i += 1;
            continue;
        }

        // Body-level detections, attributed to the innermost fn.
        let fn_idx = scopes.iter().rev().find_map(|s| match s {
            Scope::Fn(idx) => Some(*idx),
            _ => None,
        });
        if let Some(idx) = fn_idx {
            let adv = scan_site(ctx, t, i, &mut out.fns[idx]);
            i += adv;
            continue;
        }
        i += 1;
    }

    // File-level R12: SimRng inside thread-crossing containers. The rng
    // module itself defines/doc-exercises the type freely.
    if !ctx.is_rng_module() {
        collect_type_escapes(t, &mut out.rng_type_escapes);
    }
    // R12 binding tracking needs the fn bodies rescanned with their
    // bindings known; cheap second pass per fn.
    collect_rng_sends(t, &mut out.fns);
    out
}

/// True when the `fn` at `i` is an `async fn`: an `async` qualifier
/// within the preceding qualifier run (`pub const async unsafe …`).
fn looks_async(t: Toks<'_>, i: usize) -> bool {
    let mut k = i;
    let mut steps = 0;
    while k > 0 && steps < 8 {
        k -= 1;
        steps += 1;
        if t.id(k, "async") {
            return true;
        }
        let qualifier = t.id(k, "pub")
            || t.id(k, "const")
            || t.id(k, "unsafe")
            || t.id(k, "extern")
            || t.id(k, "crate")
            || t.id(k, "super")
            || t.p(k, "(")
            || t.p(k, ")")
            || t.kind(k) == Some(TokKind::Str);
        if !qualifier {
            return false;
        }
    }
    false
}

/// Extracts the implemented type's name from an `impl` header starting
/// at `i`; returns the name and the index to resume scanning at (just
/// before the body `{`). For `impl Trait for Type` the type wins.
fn impl_type_name(t: Toks<'_>, i: usize) -> (String, usize) {
    let mut j = i + 1;
    // Skip the generic parameter list.
    if t.p(j, "<") {
        let mut depth = 1i32;
        j += 1;
        while j < t.len() && depth > 0 {
            if t.p(j, "<") {
                depth += 1;
            } else if t.p(j, ">") {
                depth -= 1;
            }
            j += 1;
        }
    }
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < t.len() && !t.p(j, "{") && !t.p(j, ";") {
        if t.id(j, "for") {
            saw_for = true;
        } else if t.id(j, "where") {
            break;
        } else if t.is_id(j) && !t.id(j, "dyn") && !t.id(j, "mut") {
            // Keep the *last* segment of a path before generics:
            // `fmt::Display` → Display; `SendFuture<'_, T>` → SendFuture.
            let name = t.text(j).to_string();
            if saw_for {
                if after_for.is_none() || t.p(j - 1, "::") {
                    after_for = Some(name);
                }
            } else if first.is_none() || t.p(j - 1, "::") {
                first = Some(name);
            }
            // Stop consuming path segments once generics open.
            if t.p(j + 1, "<") {
                let mut depth = 1i32;
                j += 2;
                while j < t.len() && depth > 0 {
                    if t.p(j, "<") {
                        depth += 1;
                    } else if t.p(j, ">") {
                        depth -= 1;
                    }
                    j += 1;
                }
                continue;
            }
        }
        j += 1;
    }
    let ty = match (after_for, first) {
        (Some(ty), _) => ty,
        (None, Some(ty)) => ty,
        (None, None) => String::new(),
    };
    (ty, j)
}

/// Parameters of a fn signature, scanning from just after the fn's name
/// token: `self` (however qualified) plus every `name: Type` pair at
/// parenthesis depth 1, each with its declared type name when the type
/// is a plain path (see [`FnItem::param_types`]).
fn params_of(t: Toks<'_>, mut i: usize) -> Vec<(String, Option<String>)> {
    // Skip a generic parameter list between the name and the `(`.
    if t.p(i, "<") {
        let mut depth = 1i32;
        i += 1;
        while i < t.len() && depth > 0 {
            if t.p(i, "<") {
                depth += 1;
            } else if t.p(i, ">") {
                depth -= 1;
            }
            i += 1;
        }
    }
    let mut params: Vec<(String, Option<String>)> = Vec::new();
    if !t.p(i, "(") {
        return params;
    }
    let mut depth = 0i32;
    while i < t.len() {
        if t.p(i, "(") {
            depth += 1;
        } else if t.p(i, ")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 && t.is_id(i) {
            let text = t.text(i);
            if text == "self" && !t.p(i + 1, ":") && !params.iter().any(|(p, _)| p == "self") {
                params.push(("self".to_string(), None));
            } else if t.p(i + 1, ":") && text != "mut" && text != "ref" && text != "_" {
                params.push((text.to_string(), type_name_at(t, i + 2)));
            }
        }
        i += 1;
    }
    params
}

/// The name of the path type starting at `i`: through `&`, lifetimes and
/// `mut`, the last `::` segment before generics. `None` when the type
/// is not a plain path (`impl Trait`, `dyn Trait`, tuples, slices, fn
/// pointers).
fn type_name_at(t: Toks<'_>, mut i: usize) -> Option<String> {
    while t.p(i, "&") || t.kind(i) == Some(TokKind::Lifetime) || t.id(i, "mut") {
        i += 1;
    }
    if !t.is_id(i) || t.id(i, "impl") || t.id(i, "dyn") || t.id(i, "fn") {
        return None;
    }
    while t.p(i + 1, "::") && t.is_id(i + 2) {
        i += 2;
    }
    Some(t.text(i).to_string())
}

/// Builds an empty `FnItem` with its qualified name from the current
/// scope stack.
fn new_fn_item(
    ctx: &FileContext,
    scopes: &[Scope],
    name: &str,
    is_async: bool,
    line: usize,
    params: Vec<(String, Option<String>)>,
) -> FnItem {
    let mut parts = module_path_of(ctx);
    let mut impl_type = None;
    for s in scopes {
        match s {
            Scope::Mod(m) => parts.push(m.clone()),
            Scope::Impl(ty) => impl_type = Some(ty.clone()),
            _ => {}
        }
    }
    if let Some(ty) = &impl_type {
        parts.push(ty.clone());
    }
    parts.push(name.to_string());
    let (params, param_types) = params.into_iter().unzip();
    FnItem {
        name: name.to_string(),
        qname: parts.join("::"),
        impl_type,
        is_async,
        has_await: false,
        line,
        params,
        param_types,
        calls: Vec::new(),
        sinks: Vec::new(),
        locks: Vec::new(),
        drops: Vec::new(),
        rng_sends: Vec::new(),
    }
}

/// Examines one token position inside a fn body, appending any site it
/// anchors to `item`. Returns how many tokens to advance (≥ 1).
fn scan_site(ctx: &FileContext, t: Toks<'_>, i: usize, item: &mut FnItem) -> usize {
    let line = t.line(i);

    // `let [mut] name` over a parameter's name shadows its declared type.
    if t.id(i, "let") {
        let name_at = if t.id(i + 1, "mut") { i + 2 } else { i + 1 };
        if let Some(k) = item.params.iter().position(|p| t.id(name_at, p)) {
            item.param_types[k] = None;
        }
        return 1;
    }

    // `.await` / method calls.
    if t.p(i, ".") && t.is_id(i + 1) {
        let name = t.text(i + 1);
        if name == "await" {
            item.has_await = true;
            return 2;
        }
        if t.p(i + 2, "(") {
            let m_line = t.line(i + 1);
            // A receiver that is a bare parameter name (not a field or
            // path tail) carries the parameter's declared type; a bare
            // `self` is the enclosing impl's type.
            let before = i.wrapping_sub(2);
            let bare_recv = i >= 1 && !t.p(before, ".") && !t.p(before, "::");
            let recv_type = if bare_recv && t.id(i - 1, "self") {
                item.impl_type.clone()
            } else {
                item.params
                    .iter()
                    .position(|p| bare_recv && t.id(i - 1, p))
                    .and_then(|k| item.param_types[k].clone())
            };
            item.calls.push(CallSite {
                callee: Callee::Method(name.to_string()),
                recv_type,
                line: m_line,
            });
            if name == "lock" {
                item.locks.push(LockSite {
                    target: receiver_chain(t, i),
                    guard: guard_binding(t, i),
                    tok: i,
                    line: m_line,
                });
            }
            return 2;
        }
        return 2;
    }

    // Macro invocation: `name!(` / `name![` / `name!{`.
    if t.is_id(i)
        && t.p(i + 1, "!")
        && (t.p(i + 2, "(") || t.p(i + 2, "[") || t.p(i + 2, "{"))
    {
        let name = t.text(i);
        let callee = Callee::Macro(name.to_string());
        item.calls.push(CallSite { callee, recv_type: None, line });
        if SINK_MACROS.contains(&name) && !ctx.is_trace_module() {
            item.sinks.push(SinkSite { what: format!("{name}!"), line });
        }
        // A `{` opener must stay visible to the main loop's brace
        // tracking, or its closing `}` would pop a real scope.
        return if t.p(i + 2, "{") { 2 } else { 3 };
    }

    // Path call: `a::b::c(` — detected at the final segment.
    if t.is_id(i) && t.p(i + 1, "(") && !t.p(i.wrapping_sub(1), ".") {
        let name = t.text(i);
        if NON_CALL_KEYWORDS.contains(&name) {
            return 1;
        }
        // Walk back over `seg::` pairs to the path head.
        let mut segs = vec![name.to_string()];
        let mut k = i;
        while k >= 2 && t.p(k - 1, "::") && t.is_id(k - 2) {
            segs.insert(0, t.text(k - 2).to_string());
            k -= 2;
        }
        // `drop(guard)` releases a named guard early.
        if segs.len() == 1 && name == "drop" && t.is_id(i + 2) && t.p(i + 3, ")") {
            item.drops.push(DropSite { name: t.text(i + 2).to_string(), tok: i });
        }
        if let Some(what) = sink_path(&segs) {
            if !ctx.is_trace_module() {
                item.sinks.push(SinkSite { what, line });
            }
        }
        item.calls.push(CallSite { callee: Callee::Path(segs), recv_type: None, line });
        return 2;
    }

    1
}

/// Best-effort name of a method call's receiver: the `a.b.c` identifier
/// chain ending just before the dot at `dot`.
fn receiver_chain(t: Toks<'_>, dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut k = dot;
    while k >= 1 {
        if t.is_id(k - 1) {
            parts.insert(0, t.text(k - 1).to_string());
            if k >= 3 && (t.p(k - 2, ".") || t.p(k - 2, "::")) {
                k -= 2;
                continue;
            }
        }
        break;
    }
    parts.join(".")
}

/// The binding name when the statement around a `.lock()` at `dot` is
/// `let <name> = …`; `None` for temporaries.
fn guard_binding(t: Toks<'_>, dot: usize) -> Option<String> {
    let mut k = dot;
    let mut guard = 0;
    while k > 0 && guard < 48 {
        k -= 1;
        guard += 1;
        if t.p(k, ";") || t.p(k, "{") || t.p(k, "}") {
            return None;
        }
        if t.id(k, "let") {
            let name_at = if t.id(k + 1, "mut") { k + 2 } else { k + 1 };
            if t.is_id(name_at) && t.p(name_at + 1, "=") {
                return Some(t.text(name_at).to_string());
            }
            return None;
        }
    }
    None
}

/// Maps a call path to a banned-sink description, when it is one:
/// `std::fs::*`, `std::env::*`, `std::net::*`, and the `std::io`
/// standard streams (R10).
fn sink_path(segs: &[String]) -> Option<String> {
    let stripped: Vec<&str> = segs
        .iter()
        .map(String::as_str)
        .skip_while(|s| *s == "std")
        .collect();
    let joined = || format!("std::{}", stripped.join("::"));
    match stripped.first().copied() {
        Some("fs") | Some("env") | Some("net") if stripped.len() >= 2 => Some(joined()),
        Some("io")
            if matches!(stripped.get(1).copied(), Some("stdin" | "stdout" | "stderr")) =>
        {
            Some(joined())
        }
        Some("stdin" | "stdout" | "stderr") if stripped.len() == 1 => None,
        _ => None,
    }
}

/// File-level R12 scan: a `SimRng` mentioned inside the generic
/// arguments of a thread-crossing container.
fn collect_type_escapes(t: Toks<'_>, out: &mut Vec<RngTypeEscape>) {
    let mut i = 0;
    while i + 1 < t.len() {
        if t.is_id(i) && THREAD_CROSSING.contains(&t.text(i)) && t.p(i + 1, "<") {
            let container = t.text(i).to_string();
            let mut depth = 1i32;
            let mut j = i + 2;
            while j < t.len() && depth > 0 {
                if t.p(j, "<") {
                    depth += 1;
                } else if t.p(j, ">") {
                    depth -= 1;
                } else if depth >= 1 && t.id(j, "SimRng") {
                    out.push(RngTypeEscape { container: container.clone(), line: t.line(i) });
                    break;
                } else if t.p(j, ";") || t.p(j, "{") {
                    break; // malformed / not a generic context after all
                }
                j += 1;
            }
        }
        i += 1;
    }
}

/// Per-fn R12 scan: track `SimRng`-producing bindings, then flag any
/// channel `send`/`send_now` whose argument is such a binding. Owned
/// substreams moved into scoped-thread closures (`ml::ensemble`'s
/// sanctioned pattern) involve no channel and stay legal.
fn collect_rng_sends(t: Toks<'_>, fns: &mut [FnItem]) {
    // Re-derive each fn's token span from its recorded sites; simpler:
    // one linear pass tracking bindings globally is wrong across fns,
    // so walk per fn using call lines as the span. Instead, track
    // bindings in file order and reset at each fn start line.
    let starts: Vec<(usize, usize)> = fns.iter().enumerate().map(|(k, f)| (f.line, k)).collect();
    let mut bindings: Vec<String> = Vec::new();
    let mut current: Option<usize> = None;
    let mut i = 0;
    while i < t.len() {
        let line = t.line(i);
        if let Some(&(_, k)) = starts.iter().rev().find(|(l, _)| *l <= line) {
            if current != Some(k) {
                current = Some(k);
                bindings.clear();
            }
        }
        // `let name = SimRng::…` / `let name = …​.substream(…)` /
        // `let name = …​.stream(…)` / `name: SimRng` (param/field).
        if t.id(i, "let") {
            let name_at = if t.id(i + 1, "mut") { i + 2 } else { i + 1 };
            if t.is_id(name_at) && t.p(name_at + 1, "=") {
                let mut j = name_at + 2;
                let mut rngish = false;
                let mut guard = 0;
                while j < t.len() && !t.p(j, ";") && guard < 64 {
                    if t.id(j, "SimRng")
                        || (t.p(j, ".") && (t.id(j + 1, "substream") || t.id(j + 1, "stream")))
                    {
                        rngish = true;
                        break;
                    }
                    j += 1;
                    guard += 1;
                }
                if rngish {
                    let name = t.text(name_at).to_string();
                    if !bindings.contains(&name) {
                        bindings.push(name);
                    }
                }
            }
        }
        if t.is_id(i) && t.p(i + 1, ":") && t.id(i + 2, "SimRng") {
            let name = t.text(i).to_string();
            if !bindings.contains(&name) {
                bindings.push(name);
            }
        }
        // `.send(name)` / `.send_now(name)` with a tracked binding.
        if t.p(i, ".")
            && (t.id(i + 1, "send") || t.id(i + 1, "send_now"))
            && t.p(i + 2, "(")
            && t.is_id(i + 3)
            && t.p(i + 4, ")")
        {
            let arg = t.text(i + 3).to_string();
            if bindings.contains(&arg) {
                if let Some(k) = current {
                    fns[k].rng_sends.push(RngSendSite { binding: arg, line: t.line(i + 1) });
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::prepare;
    use crate::{FileContext, FileKind};

    fn parse(src: &str) -> ParsedFile {
        let ctx = FileContext::new("sim", FileKind::LibSrc, "crates/sim/src/x.rs");
        parse_items(&ctx, &prepare(src))
    }

    #[test]
    fn fn_items_get_qualified_names() {
        let p = parse("pub fn alpha() {}\nmod inner { pub fn beta() {} }\n");
        let names: Vec<&str> = p.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(names, vec!["sim::x::alpha", "sim::x::inner::beta"]);
    }

    #[test]
    fn impl_methods_carry_type_name() {
        let src = "struct S;\nimpl S { fn m(&self) {} }\nimpl Clone for S { fn clone(&self) -> S { S } }\n";
        let p = parse(src);
        let m = p.fns.iter().find(|f| f.name == "m").expect("m parsed");
        assert_eq!(m.qname, "sim::x::S::m");
        assert_eq!(m.impl_type.as_deref(), Some("S"));
        let c = p.fns.iter().find(|f| f.name == "clone").expect("clone parsed");
        assert_eq!(c.impl_type.as_deref(), Some("S"));
    }

    #[test]
    fn generic_trait_impl_resolves_self_type() {
        let src = "impl<'a, T: Clone> Future for SendFuture<'a, T> { fn poll(&mut self) {} }\n";
        let p = parse(src);
        assert_eq!(p.fns[0].qname, "sim::x::SendFuture::poll");
    }

    #[test]
    fn impl_trait_in_a_signature_keeps_the_fn_and_its_impl_block() {
        let src = "impl S {\n  fn a(&self, f: impl Fn()) { one(); }\n  \
                   fn b(&self) -> impl Iterator<Item = u8> + '_ { two() }\n}\n\
                   impl T { fn c(key: &'a mut sim::Symbol, n: Vec<u8>, g: &dyn Tr) { key.id(); } }\n";
        let p = parse(src);
        let qnames: Vec<&str> = p.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(qnames, ["sim::x::S::a", "sim::x::S::b", "sim::x::T::c"]);
        assert_eq!(p.fns[0].calls[0].callee, Callee::Path(vec!["one".into()]));
        assert_eq!(p.fns[0].param_types, [None, None], "`self` and `impl Fn()` have no type name");
        assert_eq!(p.fns[1].calls[0].callee, Callee::Path(vec!["two".into()]));
        let c = &p.fns[2];
        assert_eq!(c.param_types, [Some("Symbol".to_string()), Some("Vec".to_string()), None]);
        assert_eq!(c.calls[0].recv_type.as_deref(), Some("Symbol"));
    }

    #[test]
    fn calls_methods_and_macros_collected() {
        let src = "fn f() { helper(); store::put(x); obj.method(1); println!(\"hi\"); }\n";
        let p = parse(src);
        let f = &p.fns[0];
        assert!(f.calls.iter().any(|c| c.callee == Callee::Path(vec!["helper".into()])));
        assert!(f
            .calls
            .iter()
            .any(|c| c.callee == Callee::Path(vec!["store".into(), "put".into()])));
        assert!(f.calls.iter().any(|c| c.callee == Callee::Method("method".into())));
        assert!(f.calls.iter().any(|c| c.callee == Callee::Macro("println".into())));
        assert_eq!(f.sinks.len(), 1, "println! is a sink");
    }

    #[test]
    fn async_and_await_detected() {
        let src = "pub async fn go() { fut.await; }\nfn plain() {}\n";
        let p = parse(src);
        assert!(p.fns[0].is_async && p.fns[0].has_await);
        assert!(!p.fns[1].is_async && !p.fns[1].has_await);
    }

    #[test]
    fn sink_paths_detected_with_and_without_std() {
        let src = "fn f() { std::fs::read(p); env::var(\"X\"); net::lookup(h); }\n";
        let p = parse(src);
        let sinks: Vec<&str> = p.fns[0].sinks.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(sinks, vec!["std::fs::read", "std::env::var", "std::net::lookup"]);
    }

    #[test]
    fn trace_module_is_sink_exempt() {
        let ctx = FileContext::new("sim", FileKind::LibSrc, "crates/sim/src/trace.rs");
        let p = parse_items(&ctx, &prepare("fn f() { println!(\"t\"); }\n"));
        assert!(p.fns[0].sinks.is_empty());
    }

    #[test]
    fn locks_guards_and_drops_collected() {
        let src = "fn f() { let g = self.state.lock(); cv.wait(g); drop(g); q.lock().push(1); }\n";
        let p = parse(src);
        let f = &p.fns[0];
        assert_eq!(f.locks.len(), 2);
        assert_eq!(f.locks[0].guard.as_deref(), Some("g"));
        assert_eq!(f.locks[0].target, "self.state");
        assert_eq!(f.locks[1].guard, None);
        assert_eq!(f.drops.len(), 1);
    }

    #[test]
    fn rng_type_escapes_detected() {
        let src = "struct Bad { rng: Arc<Mutex<SimRng>> }\nstruct Ok2 { rng: RefCell<SimRng> }\n";
        let p = parse(src);
        assert_eq!(p.rng_type_escapes.len(), 2, "Arc and Mutex each flag");
        assert!(p.rng_type_escapes.iter().all(|e| e.line == 1));
    }

    #[test]
    fn rng_send_through_channel_detected() {
        let src = "fn f(tx: Chan) { let r = master.substream(1); tx.send(r); }\n";
        let p = parse(src);
        assert_eq!(p.fns[0].rng_sends.len(), 1);
        assert_eq!(p.fns[0].rng_sends[0].binding, "r");
    }

    #[test]
    fn owned_substream_into_scope_closure_is_legal() {
        let src = "fn f() { let r = master.substream(1); scope.spawn(move || train(r)); }\n";
        let p = parse(src);
        assert!(p.fns[0].rng_sends.is_empty());
    }

    #[test]
    fn test_module_tokens_ignored() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { println!(\"x\"); } }\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
    }

    #[test]
    fn trait_method_declarations_do_not_create_items() {
        let src = "trait Tr { fn decl(&self); fn with_body(&self) { helper(); } }\n";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_body"]);
    }
}

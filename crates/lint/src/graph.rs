//! The workspace call graph: nodes, name resolution, reachability.
//!
//! Every function item the parser recovered becomes a node; every call
//! expression becomes zero or more edges, resolved by *suffix matching*
//! against per-crate module paths. The resolution is deliberately
//! over-approximate:
//!
//! - a path call `store::put(..)` links to every function whose
//!   qualified name ends in `store::put`;
//! - a bare call `helper()` prefers same-file candidates, then
//!   same-crate, then falls back to every `helper` in the workspace
//!   (the file may have `use`-imported any of them);
//! - a method call `.submit(..)` links to every impl method named
//!   `submit` anywhere — except a stoplist of names so ubiquitous on
//!   std types (`clone`, `len`, `push`, …) that linking them would
//!   drown the graph in noise, and except when the receiver's type is
//!   known — a typed parameter (`key.id()` under `key: Symbol`) or a
//!   bare `self` inside `impl Symbol` — and the workspace has an
//!   `impl Symbol` with that method: the type then picks the
//!   candidates, as rustc's own lookup would;
//! - an `.await` point links to every `poll` method in the workspace:
//!   suspending hands control to the executor, which may resume any
//!   future, so taint must survive the hop.
//!
//! Over-approximation errs toward *reporting* — a reachability rule
//! built on this graph can produce false paths but not miss real ones
//! through resolvable names. The escape hatch is a reasoned
//! `allow(..)`, never resolution cleverness.
//!
//! Reachability is a plain BFS with parent pointers, so it tolerates
//! call cycles and can reconstruct a *witness path* — the concrete
//! entry-to-sink chain printed in every interprocedural violation.

use crate::parser::{Callee, FnItem};
use crate::{FileKind, LintedFile};

/// Method names too common on std types to resolve workspace-wide.
/// A call through one of these still taints the *caller* via its other
/// calls; it just does not fan out to every same-named impl method.
const METHOD_STOPLIST: &[&str] = &[
    "new", "default", "clone", "fmt", "len", "is_empty", "push", "pop", "insert", "remove",
    "get", "get_mut", "contains", "contains_key", "iter", "iter_mut", "into_iter", "next",
    "take", "clear", "extend", "drain", "sort", "sort_by", "sort_unstable", "sort_by_key",
    "cmp", "partial_cmp", "eq", "ne", "hash", "from", "into", "drop", "as_ref", "as_mut",
    "as_str", "as_slice", "borrow", "borrow_mut", "to_string", "to_owned", "to_vec", "min",
    "max", "clamp", "abs", "sqrt", "map", "and_then", "unwrap_or", "unwrap_or_else",
    "unwrap_or_default", "ok_or", "ok_or_else", "filter", "collect", "clone_from", "write",
    "read", "find", "position", "any", "all", "count", "sum", "rev", "zip", "enumerate",
    "chain", "flat_map", "fold", "retain", "split_off", "starts_with", "ends_with", "trim",
    "parse", "join", "wait", "notify_one", "notify_all",
];

/// One function node in the workspace call graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Index of the owning file in the linted set.
    pub file: usize,
    /// Index of the item within that file's parse.
    pub item: usize,
    /// Fully qualified name (`sim::channel::Sender::send`).
    pub qname: String,
    /// Owning crate.
    pub crate_name: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Function nodes, in file-then-source order.
    pub nodes: Vec<Node>,
    /// Forward adjacency: `edges[n]` is sorted and deduplicated.
    /// Includes the await → poll over-approximation edges.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// The node's parsed item, looked back up from the linted set.
    pub fn item<'a>(&self, files: &'a [LintedFile], n: usize) -> &'a FnItem {
        &files[self.nodes[n].file].items.fns[self.nodes[n].item]
    }

    /// Indices of all nodes satisfying a predicate.
    pub fn select(&self, mut pred: impl FnMut(&Node) -> bool) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&n| pred(&self.nodes[n])).collect()
    }

    /// BFS from `entries`; cycle-tolerant (each node is visited once).
    pub fn reach(&self, entries: &[usize]) -> Reach {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for &e in entries {
            if !visited[e] {
                visited[e] = true;
                queue.push_back(e);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if !visited[m] {
                    visited[m] = true;
                    parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        Reach { parent, visited }
    }
}

/// The result of a reachability sweep: which nodes are reachable and
/// through whom (BFS tree parent pointers).
#[derive(Debug)]
pub struct Reach {
    parent: Vec<Option<usize>>,
    visited: Vec<bool>,
}

impl Reach {
    /// True when node `n` is reachable from the entry set.
    pub fn reachable(&self, n: usize) -> bool {
        self.visited[n]
    }

    /// The witness path entry → … → `n`, as node indices. Empty when
    /// `n` is unreachable.
    pub fn witness(&self, n: usize) -> Vec<usize> {
        if !self.visited[n] {
            return Vec::new();
        }
        let mut path = vec![n];
        let mut cur = n;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

/// Renders a witness path as `a::b -> c::d -> e::f`.
pub fn witness_string(graph: &CallGraph, path: &[usize]) -> String {
    let names: Vec<&str> = path.iter().map(|&n| graph.nodes[n].qname.as_str()).collect();
    names.join(" -> ")
}

/// Builds the workspace call graph from the parsed files.
pub fn build(files: &[LintedFile]) -> CallGraph {
    let mut graph = CallGraph::default();
    for (fi, f) in files.iter().enumerate() {
        // Only library sources shape the graph: test and bench files may
        // print, panic, and spawn freely, and must neither become
        // entry points nor soak up method-call resolution.
        if f.ctx.kind != FileKind::LibSrc {
            continue;
        }
        for (ii, item) in f.items.fns.iter().enumerate() {
            graph.nodes.push(Node {
                file: fi,
                item: ii,
                qname: item.qname.clone(),
                crate_name: f.ctx.crate_name.clone(),
                path: f.ctx.rel_path.clone(),
                line: item.line,
            });
        }
    }
    // Name index: bare fn name → node indices.
    let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (n, node) in graph.nodes.iter().enumerate() {
        let item = &files[node.file].items.fns[node.item];
        by_name.entry(item.name.as_str()).or_default().push(n);
    }
    // Poll methods, for the await → executor → poll over-approximation.
    let polls: Vec<usize> = graph.select(|node| {
        let item = &files[node.file].items.fns[node.item];
        item.name == "poll" && item.impl_type.is_some()
    });

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
    for (n, node) in graph.nodes.iter().enumerate() {
        let item = &files[node.file].items.fns[node.item];
        for call in &item.calls {
            let mut targets: Vec<usize> = Vec::new();
            match &call.callee {
                Callee::Path(segs) => {
                    resolve_path(&graph, &by_name, node, item, segs, &mut targets);
                }
                Callee::Method(name) => {
                    if METHOD_STOPLIST.contains(&name.as_str()) {
                        continue;
                    }
                    let impl_type_of = |m: usize| graph.item(files, m).impl_type.as_deref();
                    let named = by_name.get(name.as_str()).map_or(&[][..], Vec::as_slice);
                    targets.extend(named.iter().copied().filter(|&m| impl_type_of(m).is_some()));
                    // The receiver's declared type decides, when the
                    // workspace implements the method on that type; a
                    // foreign type, alias, trait object or deref'd
                    // wrapper finds nothing and keeps every candidate.
                    if let Some(ty) = call.recv_type.as_deref() {
                        if targets.iter().any(|&m| impl_type_of(m) == Some(ty)) {
                            targets.retain(|&m| impl_type_of(m) == Some(ty));
                        }
                    }
                }
                Callee::Macro(_) => {}
            }
            edges[n].extend_from_slice(&targets);
        }
        if item.has_await {
            edges[n].extend_from_slice(&polls);
        }
    }
    for row in &mut edges {
        row.sort_unstable();
        row.dedup();
    }
    graph.edges = edges;
    graph
}

/// Resolves one path call by suffix matching, pushing every candidate.
fn resolve_path(
    graph: &CallGraph,
    by_name: &std::collections::BTreeMap<&str, Vec<usize>>,
    caller: &Node,
    caller_item: &FnItem,
    segs: &[String],
    out: &mut Vec<usize>,
) {
    // Normalize: drop leading `crate`/`self`/`super`, substitute `Self`.
    let mut parts: Vec<&str> = segs
        .iter()
        .map(String::as_str)
        .skip_while(|s| matches!(*s, "crate" | "self" | "super" | "std"))
        .collect();
    if parts.first() == Some(&"Self") {
        match &caller_item.impl_type {
            Some(ty) => parts[0] = ty.as_str(),
            None => return,
        }
    }
    let Some(&name) = parts.last() else { return };
    let Some(candidates) = by_name.get(name) else { return };
    if parts.len() >= 2 {
        // Qualified: every function whose qualified path ends with the
        // written suffix (`store::put` matches `store::redis::Store::put`
        // only if the trailing segments line up — here they do not, and
        // `RedisStore::put` written as `RedisStore::put(..)` does).
        for &m in candidates {
            let q: Vec<&str> = graph.nodes[m].qname.split("::").collect();
            if q.len() >= parts.len() && q[q.len() - parts.len()..] == parts[..] {
                out.push(m);
            }
        }
        return;
    }
    // Bare call: nearest scope wins — same file, then same crate, then
    // anywhere (the call may name a `use`-imported item).
    let same_file: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&m| graph.nodes[m].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        out.extend_from_slice(&same_file);
        return;
    }
    let same_crate: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&m| graph.nodes[m].crate_name == caller.crate_name)
        .collect();
    if !same_crate.is_empty() {
        out.extend_from_slice(&same_crate);
        return;
    }
    out.extend_from_slice(candidates);
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

    fn node(graph: &CallGraph, qname: &str) -> usize {
        graph
            .nodes
            .iter()
            .position(|n| n.qname == qname)
            .unwrap_or_else(|| panic!("no node {qname}"))
    }

    #[test]
    fn bare_call_prefers_same_file_then_crate() {
        let files = set(&[
            ("a", "crates/a/src/x.rs", "fn top() { helper(); }\nfn helper() {}\n"),
            ("a", "crates/a/src/y.rs", "fn helper() {}\n"),
            ("b", "crates/b/src/z.rs", "fn helper() {}\n"),
        ]);
        let g = build(&files);
        let top = node(&g, "a::x::top");
        assert_eq!(g.edges[top], vec![node(&g, "a::x::helper")]);
    }

    #[test]
    fn qualified_call_suffix_matches_across_crates() {
        let files = set(&[
            ("a", "crates/a/src/x.rs", "fn top() { store::put(1); }\n"),
            ("store", "crates/store/src/lib.rs", "pub fn put(v: u32) {}\n"),
        ]);
        let g = build(&files);
        let top = node(&g, "a::x::top");
        assert_eq!(g.edges[top], vec![node(&g, "store::put")]);
    }

    #[test]
    fn method_call_resolves_to_impl_methods_not_stoplist() {
        let files = set(&[
            ("a", "crates/a/src/x.rs", "fn top() { h.submit(t); v.push(1); }\n"),
            (
                "fabric",
                "crates/fabric/src/f.rs",
                "struct Ex;\nimpl Ex { fn submit(&self) {} fn push(&self) {} }\n",
            ),
        ]);
        let g = build(&files);
        let top = node(&g, "a::x::top");
        assert_eq!(g.edges[top], vec![node(&g, "fabric::f::Ex::submit")]);
    }

    #[test]
    fn await_links_to_poll_methods() {
        let files = set(&[
            ("a", "crates/a/src/x.rs", "async fn top() { fut.await; }\n"),
            (
                "sim",
                "crates/sim/src/ch.rs",
                "struct F;\nimpl Future for F { fn poll(&mut self) {} }\n",
            ),
        ]);
        let g = build(&files);
        let top = node(&g, "a::x::top");
        assert_eq!(g.edges[top], vec![node(&g, "sim::ch::F::poll")]);
    }

    #[test]
    fn reach_is_cycle_tolerant_with_witness() {
        let files = set(&[(
            "a",
            "crates/a/src/x.rs",
            "fn a() { b(); }\nfn b() { c(); a(); }\nfn c() { b(); }\n",
        )]);
        let g = build(&files);
        let (a, b, c) = (node(&g, "a::x::a"), node(&g, "a::x::b"), node(&g, "a::x::c"));
        let r = g.reach(&[a]);
        assert!(r.reachable(c));
        assert_eq!(r.witness(c), vec![a, b, c]);
        assert_eq!(witness_string(&g, &r.witness(c)), "a::x::a -> a::x::b -> a::x::c");
    }

    #[test]
    fn self_calls_resolve_via_impl_type() {
        let files = set(&[(
            "a",
            "crates/a/src/x.rs",
            "struct S;\nimpl S { fn top(&self) { Self::helper(); } fn helper() {} }\n",
        )]);
        let g = build(&files);
        let top = node(&g, "a::x::S::top");
        assert_eq!(g.edges[top], vec![node(&g, "a::x::S::helper")]);
    }
}

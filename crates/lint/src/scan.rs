//! Source preparation: lexing, suppression parsing, and the test-module
//! boundary.
//!
//! Rules must never fire on text inside comments or string literals —
//! "no false positives on comments or strings" is part of hetlint's
//! contract — so every rule operates on the token stream produced by
//! [`crate::lexer`]. Comment text is kept per line because that is
//! where `hetlint: allow(..)` suppressions live.

use crate::lexer::{self, Lexed, Tok, TokKind};

/// A parsed `hetlint: allow(<rule>) — <reason>` annotation.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Normalized rule key, e.g. `"r3"`.
    pub rule: String,
    /// The free-text justification after the rule (may be empty, which
    /// is itself a violation).
    pub reason: String,
    /// 1-based line the annotation appears on.
    pub line: usize,
}

/// The suppression table of one file, decoupled from the token stream
/// so the cross-file phases can resolve `allow(..)` coverage without
/// retaining (or re-lexing) the source. Holds the annotations plus the
/// two per-line facts the coverage walk needs: whether a line carries
/// code, and whether it carries comment text.
#[derive(Clone, Debug, Default)]
pub struct SupprIndex {
    /// All suppressions found in comments, in line order.
    pub suppressions: Vec<Suppression>,
    /// True for 1-based line `i + 1` when it holds any code token.
    pub code: Vec<bool>,
    /// True for 1-based line `i + 1` when it holds comment text.
    pub commented: Vec<bool>,
}

impl SupprIndex {
    /// Builds the index from a lexed file.
    pub fn from_lex(lex: &Lexed) -> SupprIndex {
        let mut suppressions = Vec::new();
        for (idx, comment) in lex.comments.iter().enumerate() {
            if !comment.is_empty() {
                collect_suppressions(comment, idx + 1, &mut suppressions);
            }
        }
        SupprIndex {
            suppressions,
            code: lex.has_code.clone(),
            commented: lex.comments.iter().map(|c| !c.is_empty()).collect(),
        }
    }

    fn code_on(&self, line: usize) -> bool {
        line.checked_sub(1).and_then(|i| self.code.get(i)).copied().unwrap_or(false)
    }

    fn comment_on(&self, line: usize) -> bool {
        line.checked_sub(1).and_then(|i| self.commented.get(i)).copied().unwrap_or(false)
    }
}

/// A whole file after preparation.
#[derive(Debug, Default)]
pub struct Prepared {
    /// The lexed token stream plus per-line comment/code maps.
    pub lex: Lexed,
    /// The suppression table (annotations plus line maps).
    pub suppr: SupprIndex,
    /// 1-based line of the file's first `#[cfg(test)]` attribute;
    /// `usize::MAX` when the file has no test module. Lines at or past
    /// the boundary are exempt from R5/R7/R8 accounting (the workspace
    /// convention is a single trailing test module per file).
    pub test_boundary: usize,
}

/// Lexes `source` and extracts suppression annotations and the test
/// boundary.
pub fn prepare(source: &str) -> Prepared {
    let lex = lexer::lex(source);
    let suppr = SupprIndex::from_lex(&lex);
    let test_boundary = find_test_boundary(&lex.tokens);
    Prepared { lex, suppr, test_boundary }
}

/// Finds the line of the first `#[cfg(test)]` attribute in the stream.
fn find_test_boundary(toks: &[Tok]) -> usize {
    let id = |i: usize, s: &str| {
        toks.get(i).is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    };
    let p = |i: usize, s: &str| {
        toks.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    };
    let mut i = 0;
    while i + 6 < toks.len() {
        if p(i, "#")
            && p(i + 1, "[")
            && id(i + 2, "cfg")
            && p(i + 3, "(")
            && id(i + 4, "test")
            && p(i + 5, ")")
            && p(i + 6, "]")
        {
            return toks[i].line;
        }
        i += 1;
    }
    usize::MAX
}

/// Parses every `hetlint: allow(<rule>)[ — reason]` in a comment.
///
/// Mentions inside inline code spans — an odd number of backticks
/// before the marker, as in a doc comment quoting the syntax — are
/// documentation, not annotations, and are skipped.
fn collect_suppressions(comment: &str, line: usize, out: &mut Vec<Suppression>) {
    let mut search = 0usize;
    while let Some(pos) = comment[search..].find("hetlint:") {
        let at = search + pos;
        search = at + "hetlint:".len();
        if comment[..at].matches('`').count() % 2 == 1 {
            continue;
        }
        let rest = &comment[at + "hetlint:".len()..];
        let trimmed = rest.trim_start();
        let Some(after_allow) = trimmed.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = after_allow.find(')') else {
            continue;
        };
        let rule = normalize_rule(&after_allow[..close]);
        let tail = after_allow[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', '–', ':'])
            .trim();
        out.push(Suppression { rule, reason: tail.to_string(), line });
    }
}

/// Maps rule aliases to canonical keys (`r1`, `r2`, …).
pub fn normalize_rule(raw: &str) -> String {
    let key = raw.trim().to_ascii_lowercase();
    match key.as_str() {
        "wall-clock" | "virtual-time" => "r1".into(),
        "entropy" | "seeded-rng" => "r2".into(),
        "hash-iteration" | "hash-order" => "r3".into(),
        "thread-spawn" | "threads" => "r4".into(),
        "unwrap" | "unwrap-budget" => "r5".into(),
        "float-ord" | "total-order" => "r6".into(),
        "stream-collision" | "seed-streams" => "r7".into(),
        "trace-registry" | "trace-kinds" => "r8".into(),
        "stale-allow" => "r9".into(),
        "sim-purity" | "purity-taint" => "r10".into(),
        "lock-discipline" | "locks" => "r11".into(),
        "rng-provenance" | "rng-escape" => "r12".into(),
        "panic-reach" | "reachable-panics" => "r13".into(),
        "discarded-effects" | "dropped-result" => "r15".into(),
        _ => key,
    }
}

/// True when `line_no` (1-based) is covered by a suppression for `rule`:
/// either an annotation on the line itself or one on an immediately
/// preceding comment-only line.
pub fn is_suppressed(suppr: &SupprIndex, rule: &str, line_no: usize) -> bool {
    find_suppression(suppr, rule, line_no).is_some()
}

/// As [`is_suppressed`], returning the matching annotation.
pub fn find_suppression<'p>(
    suppr: &'p SupprIndex,
    rule: &str,
    line_no: usize,
) -> Option<&'p Suppression> {
    let hit = |l: usize| {
        suppr
            .suppressions
            .iter()
            .find(|s| s.line == l && s.rule == rule)
    };
    if let Some(s) = hit(line_no) {
        return Some(s);
    }
    // Walk up through contiguous comment-only lines; a blank line or a
    // code line ends the attached block.
    let mut l = line_no;
    while l > 1 {
        l -= 1;
        if suppr.code_on(l) {
            break;
        }
        if let Some(s) = hit(l) {
            return Some(s);
        }
        if !suppr.comment_on(l) {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_suppression_with_reason() {
        let p = prepare("map.iter(); // hetlint: allow(r3) — sorted below\n");
        assert_eq!(p.suppr.suppressions.len(), 1);
        assert_eq!(p.suppr.suppressions[0].rule, "r3");
        assert_eq!(p.suppr.suppressions[0].reason, "sorted below");
        assert!(is_suppressed(&p.suppr, "r3", 1));
        assert!(!is_suppressed(&p.suppr, "r1", 1));
    }

    #[test]
    fn suppression_on_preceding_comment_line() {
        let src = "// hetlint: allow(r4) — bounded by scope\nthread::spawn(f);\n";
        let p = prepare(src);
        assert!(is_suppressed(&p.suppr, "r4", 2));
    }

    #[test]
    fn suppression_does_not_leak_past_code() {
        let src = "// hetlint: allow(r4) — first only\nthread::spawn(f);\nthread::spawn(g);\n";
        let p = prepare(src);
        assert!(is_suppressed(&p.suppr, "r4", 2));
        assert!(!is_suppressed(&p.suppr, "r4", 3));
    }

    #[test]
    fn blank_line_ends_the_attached_comment_block() {
        let src = "// hetlint: allow(r4) — detached\n\nthread::spawn(f);\n";
        let p = prepare(src);
        assert!(!is_suppressed(&p.suppr, "r4", 3));
    }

    #[test]
    fn suppression_inside_string_does_not_suppress() {
        let src = "let s = \"// hetlint: allow(r1) — nope\";\n";
        let p = prepare(src);
        assert!(p.suppr.suppressions.is_empty());
    }

    #[test]
    fn backticked_mention_is_documentation_not_annotation() {
        let src = "// see `hetlint: allow(r5)` for the syntax\nx.unwrap();\n";
        let p = prepare(src);
        assert!(p.suppr.suppressions.is_empty());
        // But a genuine annotation after an even number of ticks parses.
        let src2 = "// `ratchet` note — hetlint: allow(r5) — invariant abort\nx.unwrap();\n";
        let p2 = prepare(src2);
        assert_eq!(p2.suppr.suppressions.len(), 1);
    }

    #[test]
    fn rule_aliases_normalize() {
        assert_eq!(normalize_rule("Hash-Iteration"), "r3");
        assert_eq!(normalize_rule("R5"), "r5");
        assert_eq!(normalize_rule("entropy"), "r2");
        assert_eq!(normalize_rule("stream-collision"), "r7");
        assert_eq!(normalize_rule("trace-registry"), "r8");
        assert_eq!(normalize_rule("stale-allow"), "r9");
    }

    #[test]
    fn test_boundary_found_and_respected() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {}\n";
        let p = prepare(src);
        assert_eq!(p.test_boundary, 2);
        let p2 = prepare("fn f() {}\n");
        assert_eq!(p2.test_boundary, usize::MAX);
    }

    #[test]
    fn cfg_test_inside_string_is_not_a_boundary() {
        let src = "let s = \"#[cfg(test)]\";\nfn f() {}\n";
        let p = prepare(src);
        assert_eq!(p.test_boundary, usize::MAX);
    }
}

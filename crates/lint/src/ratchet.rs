//! The checked-in R5 budget ratchet.
//!
//! Budgets used to be hardcoded in the tool, which meant changing one
//! was invisible in review: the diff sat inside `crates/lint` rather
//! than next to the crate whose discipline it relaxed. They now live in
//! `hetlint.ratchet` at the workspace root — a plain `crate = N` file —
//! so every budget move is a one-line, reviewable diff. The tool reads
//! and verifies the file on every run; a missing or malformed ratchet
//! is a hard error (exit code 2), not a silent pass.

use std::path::Path;

/// Name of the ratchet file at the workspace root.
pub const RATCHET_FILE: &str = "hetlint.ratchet";

/// Reserved ratchet key: the R13 budget for panic sites reachable from
/// fabric dispatch. Not a crate name — it lives in the same file so the
/// two ratchets travel and review together.
pub const REACHABLE_PANICS_KEY: &str = "reachable-panics";

/// Parsed budgets, in file order.
#[derive(Clone, Debug, Default)]
pub struct Ratchet {
    /// `(crate, budget)` pairs; crates absent from the file have
    /// budget 0.
    pub budgets: Vec<(String, usize)>,
    /// The R13 `reachable-panics` budget; 0 when the file has no entry.
    pub reachable_panics: usize,
}

impl Ratchet {
    /// The budget for a crate; `None` when the file has no entry
    /// (treated as 0 by the report).
    pub fn budget_for(&self, crate_name: &str) -> Option<usize> {
        self.budgets
            .iter()
            .find(|(name, _)| name == crate_name)
            .map(|(_, n)| *n)
    }
}

/// Parses ratchet-file text: `crate = N` lines, `#` comments, blank
/// lines. Duplicate crates and malformed lines are errors.
pub fn parse(text: &str) -> Result<Ratchet, String> {
    let mut budgets: Vec<(String, usize)> = Vec::new();
    let mut reachable_panics: Option<usize> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            return Err(format!(
                "{RATCHET_FILE}:{line_no}: expected `crate = budget`, got `{line}`"
            ));
        };
        let name = name.trim();
        let value = value.trim();
        let well_formed = !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_');
        if !well_formed {
            return Err(format!(
                "{RATCHET_FILE}:{line_no}: `{name}` is not a crate name"
            ));
        }
        let Ok(budget) = value.parse::<usize>() else {
            return Err(format!(
                "{RATCHET_FILE}:{line_no}: budget `{value}` is not a non-negative integer"
            ));
        };
        if name == REACHABLE_PANICS_KEY {
            if reachable_panics.is_some() {
                return Err(format!("{RATCHET_FILE}:{line_no}: duplicate `{name}` entry"));
            }
            reachable_panics = Some(budget);
            continue;
        }
        if budgets.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "{RATCHET_FILE}:{line_no}: duplicate entry for crate `{name}`"
            ));
        }
        budgets.push((name.to_string(), budget));
    }
    Ok(Ratchet { budgets, reachable_panics: reachable_panics.unwrap_or(0) })
}

/// Loads and parses the ratchet file at the workspace root.
pub fn load(root: &Path) -> Result<Ratchet, String> {
    let path = root.join(RATCHET_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {} (the R5 ratchet is required): {e}",
            path.display()
        )
    })?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_comments_and_blanks() {
        let r = parse("# budgets\n\nsim = 5\nstore=1\n").unwrap();
        assert_eq!(r.budget_for("sim"), Some(5));
        assert_eq!(r.budget_for("store"), Some(1));
        assert_eq!(r.budget_for("fabric"), None);
    }

    #[test]
    fn rejects_malformed_line() {
        assert!(parse("sim 5\n").is_err());
        assert!(parse("sim = five\n").is_err());
        assert!(parse("Sim = 5\n").is_err());
    }

    #[test]
    fn rejects_duplicate_crate() {
        assert!(parse("sim = 5\nsim = 4\n").is_err());
    }

    #[test]
    fn reachable_panics_is_a_reserved_key_not_a_crate() {
        let r = parse("sim = 1\nreachable-panics = 7\n").unwrap();
        assert_eq!(r.reachable_panics, 7);
        assert_eq!(r.budget_for("reachable-panics"), None);
        assert_eq!(r.budget_for("sim"), Some(1));
        let bare = parse("sim = 1\n").unwrap();
        assert_eq!(bare.reachable_panics, 0);
        assert!(parse("reachable-panics = 1\nreachable-panics = 2\n").is_err());
    }
}

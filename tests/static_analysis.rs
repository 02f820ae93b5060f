//! The two clauses of the determinism contract (DESIGN.md §7) that no
//! compiler check carries: seed-stream names are unique (R7), and the
//! clippy contract crate denies what the workspace denies.

#![allow(clippy::disallowed_methods, reason = "these tests read the workspace's own sources")]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// R7: two `SimRng::stream(_, "name")` sites with one name draw the same
/// sequence. Scans the non-comment lines of `crates/*/src` up to each
/// file's `#[cfg(test)]`.
#[test]
fn seed_stream_names_are_unique() {
    let mut files = Vec::new();
    for krate in fs::read_dir(root().join("crates")).expect("crates/ reads") {
        let src = krate.expect("crate entry reads").path().join("src");
        rust_files(&src, &mut files).expect("crate sources read");
    }
    files.sort();
    let mut sites: BTreeMap<String, String> = BTreeMap::new();
    let mut clashes = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("source file reads");
        let code = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
        for (n, line) in code.enumerate().filter(|(_, l)| !l.trim_start().starts_with("//")) {
            for call in line.split("SimRng::stream(").skip(1) {
                let literal =
                    call.split_once(',').and_then(|(_, arg)| arg.trim_start().strip_prefix('"'));
                let Some((name, _)) = literal.and_then(|s| s.split_once('"')) else {
                    continue;
                };
                let site =
                    format!("{}:{}", file.strip_prefix(root()).unwrap_or(file).display(), n + 1);
                if let Some(first) = sites.insert(name.to_string(), site.clone()) {
                    clashes.push(format!("{name:?} at {first} and {site}"));
                }
            }
        }
    }
    assert!(clashes.is_empty(), "seed-stream names reused:\n{}", clashes.join("\n"));
    // The text match found every site it found when it was written; a
    // reformatted call it no longer sees fails here, not silently.
    assert!(sites.len() >= 11, "only {} stream-name sites found: {sites:?}", sites.len());
}

/// The `name = "level"` lines of one TOML table.
fn toml_table(text: &str, header: &str) -> Vec<String> {
    let body = text.split(header).nth(1).unwrap_or("");
    let body = body.split("\n[").next().unwrap_or("");
    body.lines()
        .map(str::trim)
        .filter(|l| l.contains('=') && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn clippy_fixture_crate_denies_what_the_workspace_denies() {
    // An `#[expect]` is fulfilled whatever level Cargo.toml sets, so the
    // contract crate proves clippy.toml but not the deny table: this pins
    // its seven denies in both manifests.
    let read = |p: &str| fs::read_to_string(root().join(p)).expect("manifest reads");
    let workspace = toml_table(&read("Cargo.toml"), "[workspace.lints.clippy]");
    let fixture = toml_table(&read("tests/clippy_contract/Cargo.toml"), "[lints.clippy]");
    for line in &fixture {
        assert!(workspace.contains(line), "workspace lints lack `{line}`: {workspace:?}");
    }
    assert!(fixture.len() >= 7, "the contract crate's deny table shrank: {fixture:?}");
}

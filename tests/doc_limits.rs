//! Size and drift limits on the two documents that grow with every change.
//!
//! - DESIGN.md describes the tree as it is: at most 40 000 bytes, no line
//!   citing a `PR <n>` (history lives in CHANGES.md and git), and one
//!   "Workspace inventory" row per `crates/*` package.
//! - Each CHANGES.md entry (a line starting with `- `) is at most 1 200
//!   characters.
//!
//! Each failure names the file and the offender: the byte count and the
//! first citing line, each over-long entry with its length, each crate
//! without a row.

use std::fs;
use std::path::{Path, PathBuf};

const DESIGN_MAX_BYTES: usize = 40_000;
const ENTRY_MAX_CHARS: usize = 1_200;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Whether `line` contains `PR ` followed by a digit.
fn cites_a_pr(line: &str) -> bool {
    line.match_indices("PR ")
        .any(|(i, _)| line[i + 3..].starts_with(|c: char| c.is_ascii_digit()))
}

#[test]
fn design_md_is_short_and_cites_no_pr() {
    let text = read("DESIGN.md");
    let mut problems = Vec::new();
    if text.len() > DESIGN_MAX_BYTES {
        problems.push(format!(
            "DESIGN.md is {} bytes, over the {DESIGN_MAX_BYTES}-byte limit",
            text.len()
        ));
    }
    let citing: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| cites_a_pr(l))
        .map(|(i, l)| (i + 1, l))
        .collect();
    if let Some((n, line)) = citing.first() {
        problems.push(format!(
            "DESIGN.md has {} line(s) citing `PR <n>`; the first is line {n}: {}",
            citing.len(),
            line.trim()
        ));
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn changes_md_entries_fit_the_limit() {
    let text = read("CHANGES.md");
    let long: Vec<String> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.starts_with("- "))
        .filter_map(|(i, l)| {
            let chars = l.chars().count();
            let head: String = l[2..].chars().take_while(|&c| c != ':').take(40).collect();
            (chars > ENTRY_MAX_CHARS).then(|| format!("  line {}, {head}: {chars} chars", i + 1))
        })
        .collect();
    assert!(
        long.is_empty(),
        "CHANGES.md has {} entries over {ENTRY_MAX_CHARS} characters:\n{}",
        long.len(),
        long.join("\n")
    );
}

/// The `name` of a Cargo.toml's `[package]` table.
fn package_name(manifest: &Path) -> String {
    let text = fs::read_to_string(manifest).expect("read Cargo.toml");
    let package = text.split("[package]").nth(1).expect("a [package] table");
    package
        .lines()
        .find_map(|l| l.trim().strip_prefix("name = "))
        .map(|v| v.trim_matches('"').to_string())
        .unwrap_or_else(|| panic!("{}: no package name", manifest.display()))
}

#[test]
fn design_md_inventory_lists_every_crate() {
    let text = read("DESIGN.md");
    let inventory = text
        .split("\n## Workspace inventory")
        .nth(1)
        .expect("DESIGN.md has a \"Workspace inventory\" section");
    let inventory = inventory.split("\n## ").next().unwrap_or_default();
    let mut manifests: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
        .filter(|p| p.exists())
        .collect();
    manifests.sort();
    let missing: Vec<String> = manifests
        .iter()
        .map(|m| package_name(m))
        .filter(|name| !inventory.contains(&format!("| `{name}` |")))
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md \"Workspace inventory\" has no row for: {}",
        missing.join(", ")
    );
}

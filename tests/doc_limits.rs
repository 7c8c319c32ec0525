//! Size and drift limits on the two documents that grow with every change.
//!
//! - DESIGN.md describes the tree as it is: at most 40 000 bytes, no line
//!   citing a `PR <n>` (history lives in CHANGES.md and git), one
//!   "Workspace inventory" row per `crates/*` package, and a "Capability
//!   census" row naming each `pub` field of the config and spec structs in
//!   [`OPTION_STRUCTS`], and no census row naming a field they lack.
//! - Each CHANGES.md entry (a line starting with `- `) is at most 1 200
//!   characters.
//!
//! Each failure names the file and the offender: the byte count and the
//! first citing line, each over-long entry with its length, each crate
//! without a row, each `Struct::field` no census row names, each
//! `Struct::field` a census row names that does not exist.

use std::fs;
use std::path::{Path, PathBuf};

const DESIGN_MAX_BYTES: usize = 40_000;
const ENTRY_MAX_CHARS: usize = 1_200;

/// Every struct whose `pub` fields are settable options, with the file
/// that declares it.
const OPTION_STRUCTS: [(&str, &str); 9] = [
    ("DtmConfig", "crates/core/src/cluster.rs"),
    ("OverloadConfig", "crates/core/src/cluster.rs"),
    ("DurabilityConfig", "crates/core/src/engine/wal.rs"),
    ("QStoreConfig", "crates/qstore/src/lib.rs"),
    ("TfaConfig", "crates/baselines/src/tfa.rs"),
    ("DecentConfig", "crates/baselines/src/decent.rs"),
    ("ChaosSpec", "crates/chaos/src/nemesis.rs"),
    ("OpenLoopSpec", "crates/workloads/src/open_loop.rs"),
    ("BankSpec", "crates/workloads/src/protocol_bank.rs"),
];

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

/// The body of DESIGN.md's `## {heading}` section, up to the next `## `.
fn section<'a>(text: &'a str, heading: &str) -> &'a str {
    let body = text
        .split(&format!("\n## {heading}\n"))
        .nth(1)
        .unwrap_or_else(|| panic!("DESIGN.md has no \"{heading}\" section"));
    body.split("\n## ").next().unwrap_or_default()
}

#[test]
fn design_md_inventory_lists_every_crate() {
    let text = read("DESIGN.md");
    let inventory = section(&text, "Workspace inventory");
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

/// The `pub` fields of `pub struct {name}` in `source`, in declaration
/// order.
fn pub_fields(source: &str, name: &str) -> Vec<String> {
    let body = source
        .split(&format!("pub struct {name} {{\n"))
        .nth(1)
        .unwrap_or_else(|| panic!("no `pub struct {name}`"));
    body.lines()
        .take_while(|l| *l != "}")
        .filter_map(|l| l.strip_prefix("    pub ")?.split_once(':'))
        .map(|(field, _)| field.to_string())
        .collect()
}

/// Whether `word` occurs in `text` with no identifier character on
/// either side.
fn has_word(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(word)
        .any(|(i, _)| !text[..i].ends_with(ident) && !text[i + word.len()..].starts_with(ident))
}

#[test]
fn design_md_census_names_every_option() {
    let text = read("DESIGN.md");
    let rows: Vec<&str> = section(&text, "Capability census")
        .lines()
        .filter(|l| l.starts_with('|'))
        .collect();
    let mut missing = Vec::new();
    for (name, file) in OPTION_STRUCTS {
        let fields = pub_fields(&read(file), name);
        assert!(!fields.is_empty(), "{file}: `{name}` has no pub fields");
        missing.extend(
            fields
                .iter()
                .filter(|f| !rows.iter().any(|r| has_word(r, name) && has_word(r, f)))
                .map(|f| format!("{name}::{f}")),
        );
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md \"Capability census\" has no row naming: {}",
        missing.join(", ")
    );
}

/// The fields `cell` spells after `name::`, as `name::field` or
/// `name::{a, b}`.
fn spelled_fields(cell: &str, name: &str) -> Vec<String> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let path = format!("{name}::");
    cell.match_indices(&path)
        .filter(|(i, _)| !cell[..*i].ends_with(ident))
        .flat_map(|(i, _)| {
            let rest = &cell[i + path.len()..];
            match rest.strip_prefix('{') {
                Some(list) => list
                    .split('}')
                    .next()
                    .unwrap_or_default()
                    .split(',')
                    .collect(),
                None => vec![rest.split(|c: char| !ident(c)).next().unwrap_or_default()],
            }
        })
        .map(|f| f.trim().to_string())
        .collect()
}

#[test]
fn design_md_census_names_only_real_options() {
    let text = read("DESIGN.md");
    let mut stale = Vec::new();
    for row in section(&text, "Capability census").lines() {
        let Some(cell) = row.strip_prefix('|').and_then(|r| r.split('|').next()) else {
            continue;
        };
        // A row naming two structs (`TfaConfig` / `DecentConfig::{..}`)
        // is checked against the union of their fields.
        let named: Vec<&str> = OPTION_STRUCTS
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| has_word(cell, name))
            .collect();
        let fields: Vec<String> = OPTION_STRUCTS
            .iter()
            .filter(|(name, _)| named.contains(name))
            .flat_map(|(name, file)| pub_fields(&read(file), name))
            .collect();
        stale.extend(
            named
                .iter()
                .flat_map(|name| {
                    spelled_fields(cell, name)
                        .into_iter()
                        .map(move |f| (name, f))
                })
                .filter(|(_, f)| !fields.contains(f))
                .map(|(name, f)| format!("{name}::{f}")),
        );
    }
    assert!(
        stale.is_empty(),
        "DESIGN.md \"Capability census\" names fields that do not exist: {}",
        stale.join(", ")
    );
}

//! Doc-path drift check: every backticked `a::b…` path in DESIGN.md and
//! README.md, bar those into `std` and `core`, ends in an item the
//! workspace source defines — a function, type, trait, constant, static,
//! module, enum variant or field. A path to a deleted or renamed item
//! fails here; a note about a deleted item names it without its module
//! path. The system inventories of DESIGN.md and PAPER.md are checked
//! name by name: every backticked name in their "This repo" column, bare
//! or not, is an item the workspace defines, or a workspace crate.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_file(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

fn is_ident(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The names a line of Rust defines: the word after an item keyword, and
/// a line-leading word followed by `,`, `(`, `{`, `=`, a single `:` or
/// nothing — an enum variant or a field (a parameter on its own line
/// counts too, which only makes the check more lenient).
fn defined_on(line: &str, names: &mut BTreeSet<String>) {
    const KEYWORDS: [&str; 10] = [
        "fn",
        "struct",
        "enum",
        "trait",
        "type",
        "const",
        "static",
        "mod",
        "union",
        "macro_rules!",
    ];
    let words: Vec<&str> = line
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_' && c != '!')
        .collect();
    for pair in words.windows(2) {
        if KEYWORDS.contains(&pair[0]) && is_ident(pair[1]) {
            names.insert(pair[1].to_string());
        }
    }
    let line = line.trim_start();
    let line = match line.strip_prefix("pub") {
        Some(rest) if rest.starts_with([' ', '(']) => rest.split_once(' ').map_or("", |(_, r)| r),
        _ => line,
    };
    let end = line
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(line.len());
    let (name, rest) = line.split_at(end);
    let rest = rest.trim_start();
    let follows = rest.is_empty()
        || rest.starts_with([',', '(', '{', '='])
        || (rest.starts_with(':') && !rest.starts_with("::"));
    if is_ident(name) && follows {
        names.insert(name.to_string());
    }
}

/// Every name the `.rs` files under `dir` define, module file names
/// included; build output is skipped.
fn collect_defined(dir: &Path, names: &mut BTreeSet<String>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_defined(&path, names);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let stem = path.file_stem().expect("a file name").to_string_lossy();
            names.insert(stem.into_owned());
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for line in text.lines() {
                defined_on(line, names);
            }
        }
    }
}

/// The `a::b…` paths in the backticked spans of `text`, as written.
fn doc_paths(text: &str) -> Vec<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .flat_map(|span| {
            span.split(|c: char| !c.is_ascii_alphanumeric() && !matches!(c, '_' | ':' | '.'))
        })
        .filter(|token| token.split("::").filter(|s| !s.is_empty()).count() >= 2)
        .map(str::to_string)
        .collect()
}

/// The item a path ends in: its last segment, up to any `.` (a method
/// call or a field read after the path).
fn last_item(path: &str) -> &str {
    let last = path
        .rsplit("::")
        .find(|s| !s.is_empty())
        .unwrap_or_default();
    last.split('.').next().unwrap_or_default()
}

/// Every name the workspace defines: its items, module files and the
/// library names of its crates.
fn workspace_names() -> BTreeSet<String> {
    let mut defined = BTreeSet::new();
    for dir in ["crates", "src", "tests", "examples", "vendor"] {
        collect_defined(&repo_file(dir), &mut defined);
    }
    let crates = std::fs::read_dir(repo_file("crates")).expect("the crates directory");
    let manifests = crates
        .map(|entry| entry.expect("a directory entry").path().join("Cargo.toml"))
        .chain([repo_file("Cargo.toml")]);
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
        let name = text
            .lines()
            .find_map(|line| line.strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .unwrap_or_else(|| panic!("{} names no package", manifest.display()));
        defined.insert(name.replace('-', "_"));
    }
    defined
}

/// The identifiers in the backticked spans of the "This repo" column of
/// every Markdown table in `text` whose header row names that column.
fn inventory_names(text: &str) -> Vec<String> {
    let mut column = None;
    let mut names = Vec::new();
    for line in text.lines() {
        let Some(row) = line.trim().strip_prefix('|') else {
            column = None;
            continue;
        };
        let cells: Vec<&str> = row.split('|').collect();
        let Some(c) = column else {
            column = cells.iter().position(|cell| cell.trim() == "This repo");
            continue;
        };
        let spans = cells
            .get(c)
            .into_iter()
            .flat_map(|cell| cell.split('`').skip(1).step_by(2));
        names.extend(
            spans
                .flat_map(|span| span.split(|ch: char| !ch.is_ascii_alphanumeric() && ch != '_'))
                .filter(|word| is_ident(word))
                .map(str::to_string),
        );
    }
    names
}

#[test]
fn every_inventory_name_is_a_workspace_item() {
    let defined = workspace_names();
    let mut stale = Vec::new();
    for doc in ["DESIGN.md", "PAPER.md"] {
        let path = repo_file(doc);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let names = inventory_names(&text);
        assert!(
            names.len() > 20,
            "test premise: {doc}'s inventory names {names:?}"
        );
        stale.extend(
            names
                .iter()
                .filter(|name| !defined.contains(*name))
                .map(|name| format!("{doc}: `{name}`")),
        );
    }
    assert!(
        stale.is_empty(),
        "inventory names the workspace does not define:\n{}",
        stale.join("\n")
    );
}

#[test]
fn every_doc_path_names_a_workspace_item() {
    let defined = workspace_names();
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let path = repo_file(doc);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for p in doc_paths(&text) {
            if p.starts_with("std::") || p.starts_with("core::") {
                continue;
            }
            checked += 1;
            if !defined.contains(last_item(&p)) {
                stale.push(format!("{doc}: `{p}`"));
            }
        }
    }
    assert!(checked > 100, "test premise: the docs name {checked} paths");
    assert!(
        stale.is_empty(),
        "doc paths to items the workspace does not define:\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_scanners_read_paths_and_definitions() {
    assert_eq!(
        doc_paths("a `PredictorConfig::hybrid(6, 2).build()` and `x` and `repro.rs::t`"),
        ["PredictorConfig::hybrid", "repro.rs::t"]
    );
    assert_eq!(last_item("a::b.c"), "b");
    let mut names = BTreeSet::new();
    for line in [
        "pub fn f(x: u8) {",
        "    Confidence,",
        "    Bpst {",
        "    pub selectors: WordMap<u8>,",
        "    let x = y::z;",
        "pub(crate) struct S;",
    ] {
        defined_on(line, &mut names);
    }
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(names, ["Bpst", "Confidence", "S", "f", "selectors"]);
    let table = "| System | This repo | Crate |\n|---|---|---|\n\
                 | A | `Btb`, `MetaSpec::{Confidence, Bpst}` (`simulate()`) | `crates/core` |\n\n\
                 | `Gone` |";
    assert_eq!(
        inventory_names(table),
        ["Btb", "MetaSpec", "Confidence", "Bpst", "simulate"]
    );
}

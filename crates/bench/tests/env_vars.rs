//! Environment-variable drift guard: every `DPR_*` string literal in the
//! workspace's Rust sources (`crates/`, `tests/`, `examples/`) must have
//! a row in README's "Environment variables" table, and every row there
//! must still be read somewhere. A new knob that skips the docs, or a
//! deleted one whose row lingers, fails here with the offending names.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The size of the environment surface. Adding a knob means raising
/// this on purpose, next to its README row.
const MAX_KNOBS: usize = 11;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `"DPR_[A-Z_]+"` literal in `text`.
fn literals(text: &str, out: &mut BTreeSet<String>) {
    let mut rest = text;
    while let Some(at) = rest.find("\"DPR_") {
        let tail = &rest[at + 1..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(tail.len());
        if len > "DPR_".len() && tail[len..].starts_with('"') {
            out.insert(tail[..len].to_string());
        }
        rest = &tail[len..];
    }
}

/// The variable names of README's environment table rows.
fn readme_rows(readme: &str) -> BTreeSet<String> {
    readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `DPR_"))
        .filter_map(|rest| rest.split_once('`'))
        .map(|(name, _)| format!("DPR_{name}"))
        .collect()
}

#[test]
fn every_env_var_in_code_has_a_readme_row_and_back() {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut code = BTreeSet::new();
    for file in &files {
        let text =
            std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        literals(&text, &mut code);
    }
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let documented = readme_rows(&readme);

    let undocumented: Vec<&String> = code.difference(&documented).collect();
    let stale: Vec<&String> = documented.difference(&code).collect();
    assert!(
        undocumented.is_empty(),
        "read in code but missing from README's environment table: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "README's environment table lists variables no code reads: {stale:?}"
    );
    assert!(
        code.len() <= MAX_KNOBS,
        "{} environment variables exceed the budget of {MAX_KNOBS}: {code:?}",
        code.len()
    );
}

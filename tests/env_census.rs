//! Census of the environment knobs.
//!
//! Configuration is read at scattered sites, so the one place that lists
//! every knob is the "Environment variables" table in `README.md`. This
//! test scans the workspace sources for every `Q*` name that reaches
//! `std::env::var` — the `*_ENV` / `ENV_*` string constants plus the
//! literal reads — and asserts the set equals that table, so a knob
//! cannot be added or removed without the documented list changing.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every `.rs` file under a `src/` directory of the workspace crates
/// (the root facade's `src/` and everything under `crates/`).
fn source_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, in_src: bool, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap().flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().to_string();
            if path.is_dir() {
                if name != "target" {
                    walk(&path, in_src || name == "src", out);
                }
            } else if in_src && name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(&root.join("src"), true, &mut out);
    walk(&root.join("crates"), false, &mut out);
    assert!(out.len() > 50, "source scan found only {} files", out.len());
    out
}

fn is_env_const_name(ident: &str) -> bool {
    ident.ends_with("_ENV") || ident.starts_with("ENV_")
}

fn is_knob_name(name: &str) -> bool {
    name.starts_with('Q')
        && name.len() > 1
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// The leading identifier-or-string-literal token of `text`.
fn leading_token(text: &str) -> &str {
    let text = text.trim_start();
    let end = text
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '"'))
        .unwrap_or(text.len());
    &text[..end]
}

/// Knob names a source file defines (`const FOO_ENV: &str = "Q…"`) or
/// reads by literal (`env::var("Q…")`). Panics on an `env::var` whose
/// argument is neither — a read the census could not see.
fn knobs_in(path: &Path, text: &str, out: &mut BTreeSet<String>) {
    for line in text.lines() {
        let decl = line.trim_start();
        if let Some(rest) = decl
            .strip_prefix("pub ")
            .unwrap_or(decl)
            .strip_prefix("const ")
        {
            if let Some((ident, value)) = rest.split_once(": &str = \"") {
                let value = value.trim_end_matches("\";");
                if is_env_const_name(ident) {
                    assert!(
                        is_knob_name(value),
                        "{}: {ident} names {value:?}, not a Q* knob",
                        path.display()
                    );
                    out.insert(value.to_string());
                }
            }
        }
    }
    for (at, _) in text.match_indices("env::var") {
        let call = &text[at..];
        let Some(open) = call.find('(') else { continue };
        let arg = leading_token(&call[open + 1..]);
        if let Some(literal) = arg.strip_prefix('"') {
            let literal = literal.trim_end_matches('"');
            assert!(
                is_knob_name(literal),
                "{}: env read of {literal:?}, not a Q* knob",
                path.display()
            );
            out.insert(literal.to_string());
        } else {
            assert!(
                is_env_const_name(arg),
                "{}: env::var({arg}…) reads through something the census cannot name; \
                 use a literal or a *_ENV / ENV_* constant",
                path.display()
            );
        }
    }
}

/// Knob names in the first column of the README's environment table.
fn documented_knobs(readme: &str) -> BTreeSet<String> {
    let section = readme
        .split("\n## Environment variables\n")
        .nth(1)
        .expect("README.md has an \"Environment variables\" section");
    let section = section.split("\n## ").next().unwrap();
    let mut out = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cell = row.trim_start_matches('|').split(" | ").next().unwrap();
        for span in cell.split('`').skip(1).step_by(2) {
            let name: String = span
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            assert!(is_knob_name(&name), "README env table: bad cell {cell:?}");
            out.insert(name);
        }
    }
    out
}

#[test]
fn readme_env_table_lists_exactly_the_knobs_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_code = BTreeSet::new();
    for path in source_files(root) {
        let text = std::fs::read_to_string(&path).unwrap();
        knobs_in(&path, &text, &mut in_code);
    }
    let documented = documented_knobs(&std::fs::read_to_string(root.join("README.md")).unwrap());
    let undocumented: Vec<_> = in_code.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&in_code).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README.md \"Environment variables\" is out of step with the sources:\n  \
         read by the code but not in the table: {undocumented:?}\n  \
         in the table but read nowhere: {stale:?}"
    );
}

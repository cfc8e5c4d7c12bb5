//! Census of the public module surface.
//!
//! A `pub mod` is a promise that someone outside the module calls into
//! it. This test scans the workspace for every `pub mod <m>` declared in
//! the `lib.rs` of the four library crates that have modules (`qpar` is
//! one file) and asserts that some `.rs` file other than the module's own
//! (`<m>.rs`, `<m>/**`) and that crate's `lib.rs` names `<m>::` — so a
//! module nothing imports cannot sit in the tree unnoticed.

use std::path::{Path, PathBuf};

const CRATES: [&str; 4] = ["qsim", "qnn", "qcheck", "qhw"];

/// Every `.rs` file of the repository outside build output.
fn rust_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap().flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().to_string();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    assert!(out.len() > 50, "source scan found only {} files", out.len());
    out
}

/// Module names declared `pub mod <m>;` in a `lib.rs`.
fn public_modules(lib_rs: &str) -> Vec<String> {
    lib_rs
        .lines()
        .filter_map(|line| line.trim().strip_prefix("pub mod ")?.strip_suffix(';'))
        .map(str::to_string)
        .collect()
}

/// Whether `text` holds the path segment `<module>::` (not the tail of a
/// longer identifier such as `context::` for `text`).
fn names_module(text: &str, module: &str) -> bool {
    let needle = format!("{module}::");
    text.match_indices(&needle).any(|(at, _)| {
        !text[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn every_public_module_is_named_outside_itself() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files: Vec<(PathBuf, String)> = rust_files(root)
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            (path, text)
        })
        .collect();
    let mut unused = Vec::new();
    for krate in CRATES {
        let src = root.join("crates").join(krate).join("src");
        let lib_rs = src.join("lib.rs");
        let modules = public_modules(&std::fs::read_to_string(&lib_rs).unwrap());
        assert!(!modules.is_empty(), "{krate}: no `pub mod` found in lib.rs");
        for module in modules {
            let own_file = src.join(format!("{module}.rs"));
            let own_dir = src.join(&module);
            let named = files.iter().any(|(path, text)| {
                *path != lib_rs
                    && *path != own_file
                    && !path.starts_with(&own_dir)
                    && names_module(text, &module)
            });
            if !named {
                unused.push(format!("{krate}::{module}"));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "public modules no file outside themselves names (delete them, or make them private): \
         {unused:?}"
    );
}

//! Census of deleted names.
//!
//! Each simplification that deleted a mechanism left a rule behind: the
//! names that reached it must not come back. This test holds those rules
//! as data — which files, which names, and why they are gone — and scans
//! the sources for them, so re-adding a deleted name fails `cargo test`.
//! A second rule keeps every mutating file operation in `qcheck` behind
//! `durable.rs`, the seam the fault plan and the fsync policy sit on,
//! apart from the lines its allow-list names.
//!
//! Matching is by plain substring. This file names every rule, so the
//! scan skips it.

use std::path::{Path, PathBuf};

/// One deletion: names that must appear in none of `paths`.
struct Rule {
    /// Files or directories scanned, relative to the repository root.
    paths: &'static [&'static str],
    /// Scan only the lines above a file's first `#[cfg(test)]` line.
    above_tests: bool,
    /// Substrings that must not appear.
    names: &'static [&'static str],
    /// Why they are gone.
    reason: &'static str,
}

const SOURCES: &[&str] = &["crates", "src", "tests", "examples"];

const RULES: &[Rule] = &[
    Rule {
        paths: SOURCES,
        above_tests: false,
        names: &["with_pool", "for_each_owned", "qpar::pool", "POOLED_TILE"],
        reason: "one fan-out executor: the worker pool stays deleted",
    },
    Rule {
        paths: &["crates/qcheck/src/repo.rs"],
        above_tests: true,
        names: &[
            "RootSlot {",
            "write_root_slot",
            "append_to_log",
            "committed_len",
            "generation + 1",
            "RECORD_OVERHEAD",
        ],
        reason: "one owner for the commit protocol: root slots, generations, committed \
                 lengths and record framing stay behind manifest_log::ManifestLog",
    },
    Rule {
        paths: SOURCES,
        above_tests: false,
        names: &[
            "export_bundle",
            "import_bundle",
            "json_snapshot",
            "QOBS_DUMP_SECS",
        ],
        reason: "the bundle format and the JSON metrics dump stay deleted",
    },
    Rule {
        paths: SOURCES,
        above_tests: false,
        names: &[
            "CrashPoint",
            "apply_retention_with",
            "ReplStop",
            "meta_dir",
            "meta_seq",
        ],
        reason: "one fault mechanism (failure::arm at the durable seam) and one metadata \
                 record (a daemon namespace's OPLOG)",
    },
    Rule {
        paths: SOURCES,
        above_tests: false,
        names: &[
            "gc_dead_fraction",
            "DEAD_FRACTION",
            "deferred_bytes",
            "store_mut",
            "poll_interval",
            "Request::Ping",
            "Response::Pong",
        ],
        reason: "one GC rule (a pack holding any dead object is rewritten) and no knob \
                 left over: the dead-fraction threshold, PING and the tail-poll setting",
    },
    Rule {
        paths: SOURCES,
        above_tests: false,
        names: &[
            "fn read_object",
            "fn open_object",
            "Kernel4::Monomial",
            "lease-ttl-secs",
        ],
        reason: "ObjectStore is a chunk store with one read path; the monomial 4x4 kernel \
                 and the daemon's lease-TTL flag are gone",
    },
    Rule {
        paths: &["crates/qcheck/src/store/mod.rs"],
        above_tests: false,
        names: &[
            "fn acquire_writer_lease",
            "fn release_writer_lease",
            "fn meta_get",
            "fn meta_list",
            "fn meta_delete",
        ],
        reason: "the writer lease and the metadata reads are RemoteStore methods, not \
                 ObjectStore ones",
    },
    Rule {
        paths: &["crates/qcheck/src/repo.rs"],
        above_tests: true,
        names: &["ChainInventory", "next_seq_on_disk", "lock_seq"],
        reason: "a save reads its id and its base's chunk list from the manifest log",
    },
    Rule {
        paths: &["crates/qsim/src/pauli.rs"],
        above_tests: true,
        names: &["map_threads", "with_threads(1"],
        reason: "a Pauli-sum expectation is one grouped pass; the fixed stripes are its only \
                 fan-out",
    },
    Rule {
        paths: SOURCES,
        above_tests: false,
        names: &[
            "rand::",
            "StdRng",
            "SeedableRng",
            "FifoQueueSim",
            "EventQueue",
            "DeviceModel",
        ],
        reason: "one RNG, and the cloud replay models only what the figures replay",
    },
    Rule {
        paths: SOURCES,
        above_tests: false,
        // `rebind_shifted` stays, so `bind_shifted` is matched with what
        // can precede it.
        names: &[
            "FiniteDiff",
            "finite_diff_gradient",
            "prediction_at",
            "run_shifted",
            "run_with_op_shift",
            "run_on_with_op_shift",
            "fn bind_shifted",
            ".bind_shifted(",
            "::bind_shifted",
            "`bind_shifted",
        ],
        reason: "two gradient estimators (parameter shift and SPSA) and one way to evaluate a \
                 shifted binding: BoundPlan::rebind_shifted, resumed through a PrefixCursor",
    },
];

/// Calls that write, rename, remove, create or truncate a file.
const MUTATING: &[&str] = &[
    "fs::write",
    "fs::rename",
    "fs::remove_file",
    "File::create",
    "set_len(",
];

/// The lines outside `durable.rs` allowed a mutating call: (file, a
/// substring of the line, why).
const MUTATING_ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/qcheck/src/failure.rs",
        "fs::write(path",
        "failure::inject_fault damages a file on purpose",
    ),
    (
        "crates/qcheck/src/failure.rs",
        "fs::remove_file(path",
        "failure::inject_fault damages a file on purpose",
    ),
    (
        "crates/qcheck/src/manifest_log.rs",
        "\"writing manifest log\"",
        "ManifestLog::damage_record damages a log record on purpose",
    ),
    (
        "crates/qcheck/src/store/pack.rs",
        "\"writing corrupted pack\"",
        "corrupt_object damages a chunk on purpose",
    ),
    (
        "crates/qcheck/src/store/loose.rs",
        "\"writing corrupted object\"",
        "corrupt_object damages a chunk on purpose",
    ),
    (
        "crates/qcheck/src/repo.rs",
        "let _ = file.set_len(0);",
        "try_lock writes the holder's pid into LOCK, for humans",
    ),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `path` (or `path` itself), outside build output and
/// hidden directories, except this file.
fn files_under(path: &Path) -> Vec<PathBuf> {
    fn walk(path: &Path, out: &mut Vec<PathBuf>) {
        if path.is_file() {
            out.push(path.to_path_buf());
            return;
        }
        for entry in std::fs::read_dir(path).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if name != "target" && !name.starts_with('.') {
                walk(&entry.path(), out);
            }
        }
    }
    let mut out = Vec::new();
    walk(path, &mut out);
    let own = root().join(file!());
    out.retain(|p| *p != own);
    out.sort();
    out
}

/// `(line number, line)` of `text`, stopping at its first `#[cfg(test)]`
/// line when `above_tests`.
fn numbered_lines(text: &str, above_tests: bool) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .take_while(move |line| !(above_tests && line.starts_with("#[cfg(test)]")))
        .enumerate()
        .map(|(i, line)| (i + 1, line))
}

fn relative(path: &Path) -> String {
    path.strip_prefix(root())
        .unwrap_or(path)
        .to_string_lossy()
        .to_string()
}

#[test]
fn deleted_names_stay_deleted() {
    let mut found = Vec::new();
    let mut scanned = 0;
    for rule in RULES {
        for dir in rule.paths {
            for path in files_under(&root().join(dir)) {
                scanned += 1;
                let text = String::from_utf8_lossy(&std::fs::read(&path).unwrap()).to_string();
                for (n, line) in numbered_lines(&text, rule.above_tests) {
                    for name in rule.names.iter().filter(|name| line.contains(*name)) {
                        found.push(format!(
                            "{}:{n}: `{name}` — {}",
                            relative(&path),
                            rule.reason
                        ));
                    }
                }
            }
        }
    }
    assert!(scanned > 100, "the scan read only {scanned} files");
    assert!(
        found.is_empty(),
        "deleted names are back:\n{}",
        found.join("\n")
    );
}

#[test]
fn every_mutating_file_op_in_qcheck_goes_through_durable() {
    let src = root().join("crates/qcheck/src");
    let files: Vec<PathBuf> = files_under(&src)
        .into_iter()
        .filter(|p| {
            p.extension().is_some_and(|e| e == "rs")
                && !p.starts_with(src.join("bin"))
                && *p != src.join("durable.rs")
        })
        .collect();
    assert!(
        files.len() > 20,
        "the scan found only {} files",
        files.len()
    );
    let mut found = Vec::new();
    for path in files {
        let file = relative(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        for (n, line) in numbered_lines(&text, true) {
            let mutates = MUTATING.iter().any(|call| line.contains(call));
            let allowed = MUTATING_ALLOWED
                .iter()
                .any(|(f, needle, _)| *f == file && line.contains(needle));
            if mutates && !allowed {
                found.push(format!("{file}:{n}: {}", line.trim()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "mutating file ops outside durable.rs (route them through durable.rs, or add a \
         MUTATING_ALLOWED row with its reason):\n{}",
        found.join("\n")
    );
}

//! What a save checks before it writes a delta against its cached base:
//! the chunks a resolve of that base reads — per section, the links back
//! to the section's newest full payload — and nothing older. A chunk only
//! an older link references may go; a save still takes its cached base
//! (resolving nothing) and the result resolves bit-identically. A chunk
//! the base's resolve reads may not; the save then falls back to a full
//! checkpoint.
//!
//! One test, alone in its binary, like `resolve_counters.rs`: the qobs
//! registry is process-wide, and `==` on a delta needs a process nothing
//! else counts in.

use std::collections::BTreeSet;

use qcheck::hash::ContentHash;
use qcheck::manifest::{Manifest, PayloadKind, SectionEntry};
use qcheck::repo::{CheckpointRepo, SaveOptions, SaveReport};
use qcheck::snapshot::TrainingSnapshot;
use qcheck::store::{ObjectStore, StoreKind};

/// Random mantissas, redrawn from `seed`.
fn random_params(seed: u64) -> Vec<f64> {
    let mut x = 0x2545_F491_4F6C_DD1Du64 ^ seed;
    (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

fn snapshot(step: u64, params: Vec<f64>) -> TrainingSnapshot {
    let mut s = TrainingSnapshot::new("save-inventory");
    s.step = step;
    s.params = params;
    s
}

fn params_entry(m: &Manifest) -> &SectionEntry {
    m.sections.iter().find(|s| s.name == "params").unwrap()
}

fn params_chunks(m: &Manifest) -> Vec<ContentHash> {
    params_entry(m).chunks.iter().map(|r| r.hash).collect()
}

/// Deletes `gone` from the store, the way a GC racing the writer would.
fn sweep_out(repo: &CheckpointRepo, gone: &[ContentHash]) {
    let store = repo.store();
    let reachable: BTreeSet<ContentHash> = store
        .list()
        .unwrap()
        .into_iter()
        .filter(|h| !gone.contains(h))
        .collect();
    store.sweep(&reachable, false).unwrap();
    assert!(gone.iter().all(|h| !store.contains(h)));
}

#[test]
fn a_save_probes_only_the_links_a_resolve_of_its_base_reads() {
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let links = || qobs::counter("qcheck_resolve_links_total").get();
    let dir = std::env::temp_dir().join(format!("qcheck-save-inventory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = CheckpointRepo::open_with(&dir, StoreKind::Pack).unwrap();
    let opts = SaveOptions::incremental(8);
    let save = |snap: &TrainingSnapshot| -> (SaveReport, Manifest) {
        let report = repo.save(snap, &opts).unwrap();
        let manifest = repo.load_manifest(&report.id).unwrap();
        (report, manifest)
    };

    // Every parameter redrawn: the second save stores `params` whole, so
    // the first save's `params` chunks are behind that section's newest
    // full payload.
    let (_, first) = save(&snapshot(0, random_params(0)));
    let mut params = random_params(1);
    let (second, base) = save(&snapshot(1, params.clone()));
    assert!(second.is_delta);
    assert_eq!(params_entry(&base).payload_kind, PayloadKind::Full);
    sweep_out(&repo, &params_chunks(&first));

    // A few parameters move: a delta against the cached base, taken
    // without resolving anything.
    params[7] += 0.5;
    params[4000] -= 0.25;
    let third = snapshot(2, params.clone());
    let before = links();
    let (report, tip) = save(&third);
    assert_eq!(links(), before, "the cached base was used, not resolved");
    assert!(report.is_delta);
    assert_ne!(params_entry(&tip).payload_kind, PayloadKind::Full);
    let fresh = CheckpointRepo::open_with(&dir, StoreKind::Pack).unwrap();
    let loaded = fresh.load(&report.id).unwrap();
    assert_eq!(loaded.to_sections(), third.to_sections(), "bit-identical");
    drop(fresh);

    // A chunk the base's resolve reads goes: the save falls back to a
    // self-contained full checkpoint.
    sweep_out(&repo, &params_chunks(&base)[..1]);
    params[8] += 0.5;
    let fourth = snapshot(3, params);
    let (report, _) = save(&fourth);
    assert!(!report.is_delta, "no delta against a hole");
    let (recovered, _) = repo.recover().unwrap();
    assert_eq!(recovered.to_sections(), fourth.to_sections());

    drop(repo);
    let _ = std::fs::remove_dir_all(&dir);
}

//! The short-chain half of the resume claim, as an exact counter delta:
//! when every f64 word changes at every step, a word codec would expand
//! the sections and the XOR against the base is as large as the section,
//! so each save stores both heavy sections whole (raw). The small
//! sections' deltas save a few bytes, less than a link costs (the
//! snapshot's bytes over 100), so they are stored whole too, and a
//! depth-8 recover folds exactly one link per section — not one per link
//! of the chain.
//!
//! And of "a local resume reads the log once": the open replays nothing,
//! and recovery's from-disk replay is the only one.
//!
//! One test, alone in its binary, like `resolve_counters.rs`: the qobs
//! registry is process-wide, and `==` on a delta needs a process nothing
//! else counts in.

use qcheck::manifest::{Manifest, PayloadKind};
use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::{StateBlob, TrainingSnapshot};
use qcheck::store::StoreKind;

/// Random mantissas in the parameters and moments, all redrawn every step.
fn dense_snapshot(step: u64) -> TrainingSnapshot {
    let mut x = 0x2545_F491_4F6C_DD1Du64 ^ step;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut s = TrainingSnapshot::new("dense-resolve-counters");
    s.step = step;
    s.params = (0..8192).map(|_| next()).collect();
    s.optimizer = StateBlob::new(
        "adam-v1",
        (0..16384).flat_map(|_| next().to_le_bytes()).collect(),
    );
    s
}

#[test]
fn a_depth_8_dense_recover_folds_one_link_per_heavy_section() {
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let dir = std::env::temp_dir().join(format!(
        "qcheck-dense-resolve-counters-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let chain: Vec<Manifest> = {
        let repo = CheckpointRepo::open_with(&dir, StoreKind::Pack).unwrap();
        (0..9)
            .map(|step| {
                let report = repo
                    .save(&dense_snapshot(step), &SaveOptions::incremental(8))
                    .unwrap();
                assert_eq!(report.is_delta, step > 0);
                repo.load_manifest(&report.id).unwrap()
            })
            .collect()
    };
    let tip = chain.last().unwrap();
    assert_eq!(tip.chain_len, 8, "the manifest chain keeps its depth");

    // Every section of the tip is stored whole, so it is one link deep.
    // `meta` moves by its step counter alone: its XOR saves ~50 B, short
    // of the ~2 KB floor.
    for entry in &tip.sections {
        assert_eq!(entry.payload_kind, PayloadKind::Full, "{}", entry.name);
    }
    for name in ["params", "optimizer"] {
        let entry = tip.sections.iter().find(|s| s.name == name).unwrap();
        let stored: u64 = entry.chunks.iter().map(|c| u64::from(c.len)).sum();
        assert_eq!(stored, entry.section_len, "{name} is stored raw");
    }
    let sections = tip.sections.len() as u64;
    assert_eq!(sections, 6);

    let counters = || {
        [
            qobs::counter("qcheck_resolve_section_digests_total").get(),
            qobs::counter("qcheck_resolve_links_total").get(),
            qobs::counter("qcheck_manifest_log_replays_total").get(),
        ]
    };
    // A fresh handle, as after a kill.
    let before = counters();
    let repo = CheckpointRepo::open_with(&dir, StoreKind::Pack).unwrap();
    let (snapshot, report) = repo.recover().unwrap();
    let after = counters();
    assert_eq!(snapshot, dense_snapshot(8));
    assert_eq!(report.manifests_tried, 1);

    let [digests, folded, replays] = [0, 1, 2].map(|i| after[i] - before[i]);
    assert_eq!(digests, sections);
    assert_eq!(folded, sections, "one link per section, not 9");
    // A local open reads no log; recovery replays it once, from disk.
    assert_eq!(replays, 1, "a local resume replays the manifest log once");

    drop(repo);
    let _ = std::fs::remove_dir_all(&dir);
}

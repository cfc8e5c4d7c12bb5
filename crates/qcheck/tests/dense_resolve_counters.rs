//! The short-chain half of the resume claim, as an exact counter delta:
//! when every f64 word changes at every step, a word codec would expand
//! the sections and the XOR against the base is as large as the section,
//! so each save stores both heavy sections whole (raw) and a depth-8
//! recover folds one link for each — not one per link of the chain. Only
//! the small `meta` section, which moves by its step counter, still chains.
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

    // Per section of the tip, the links back to its newest full payload.
    let links_of = |name: &str| {
        let newest_first = chain.iter().rev().map(|m| {
            let e = m.sections.iter().find(|s| s.name == name);
            e.expect("every link has every section").payload_kind
        });
        1 + newest_first
            .take_while(|kind| *kind != PayloadKind::Full)
            .count() as u64
    };
    for name in ["params", "optimizer"] {
        assert_eq!(links_of(name), 1, "{name} is stored whole at every save");
        let entry = tip.sections.iter().find(|s| s.name == name).unwrap();
        let stored: u64 = entry.chunks.iter().map(|c| u64::from(c.len)).sum();
        assert_eq!(stored, entry.section_len, "{name} is stored raw");
    }
    // `meta` moves by its step counter alone, and its XOR keeps winning.
    let links: u64 = tip.sections.iter().map(|e| links_of(&e.name)).sum();
    let sections = tip.sections.len() as u64;
    assert_eq!(links, sections + links_of("meta") - 1);

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
    assert_eq!(folded, links, "one link per heavy section, not 9");
    // A local open reads no log; recovery replays it once, from disk.
    assert_eq!(replays, 1, "a local resume replays the manifest log once");

    drop(repo);
    let _ = std::fs::remove_dir_all(&dir);
}

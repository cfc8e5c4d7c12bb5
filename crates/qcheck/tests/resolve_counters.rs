//! The deterministic form of the deep-chain resume claim, as exact
//! counter deltas: recovering a depth-8 chain whose heavy sections are
//! deltas at every link takes one SHA-256 per *section* (not per section
//! per link) and one positioned pack read per contiguous run of chunks
//! (not per chunk).
//!
//! One test, alone in its binary: the qobs registry is process-wide, and
//! `==` on a delta needs a process nothing else counts in.
//! `dense_resolve_counters.rs` is its sibling for traffic that rewrites
//! every word, where each section ends its chain at every save.

use qcheck::manifest::{Manifest, PayloadKind};
use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::{StateBlob, TrainingSnapshot};
use qcheck::store::StoreKind;

/// High-entropy parameters and moments; each step redraws one f64 word in
/// eight of both, at random. The XOR against the base is mostly zero
/// words, so it beats the raw section and every section chains through
/// every link; and no two chunks of a save are equal, so each section of
/// each link sits in its save's pack as one contiguous run.
fn dense_snapshot(step: u64) -> TrainingSnapshot {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut words: Vec<u64> = (0..8192 + 16384).map(|_| next()).collect();
    for _ in 0..step {
        for w in &mut words {
            if next() % 8 == 0 {
                *w = next();
            }
        }
    }
    let value = |w: &u64| (w >> 11) as f64 / (1u64 << 53) as f64;
    let mut s = TrainingSnapshot::new("resolve-counters");
    s.step = step;
    s.params = words[..8192].iter().map(value).collect();
    s.optimizer = StateBlob::new(
        "adam-v1",
        words[8192..]
            .iter()
            .flat_map(|w| value(w).to_le_bytes())
            .collect(),
    );
    s
}

#[test]
fn a_depth_8_recover_digests_once_per_section_and_reads_once_per_run() {
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let dir = std::env::temp_dir().join(format!("qcheck-resolve-counters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let chain: Vec<Manifest> = {
        let repo = CheckpointRepo::open_with(&dir, StoreKind::Pack).unwrap();
        (0..9)
            .map(|step| {
                let report = repo
                    .save(&dense_snapshot(step), &SaveOptions::incremental(8))
                    .unwrap();
                repo.load_manifest(&report.id).unwrap()
            })
            .collect()
    };
    let tip = chain.last().unwrap();
    assert_eq!(tip.chain_len, 8);

    // What the resolver has to fold: per section of the tip, the links
    // from the tip back to that section's newest full payload.
    let links: u64 = tip
        .sections
        .iter()
        .map(|entry| {
            let newest_first = chain.iter().rev().map(|m| {
                let e = m.sections.iter().find(|s| s.name == entry.name);
                e.expect("every link has every section").payload_kind
            });
            1 + newest_first
                .take_while(|kind| *kind != PayloadKind::Full)
                .count() as u64
        })
        .sum();
    let sections = tip.sections.len() as u64;
    assert!(
        links >= 2 * 9 && links > sections,
        "params and optimizer must chain through all 9 links, got {links}"
    );

    let counters = || {
        [
            qobs::counter("qcheck_resolve_section_digests_total").get(),
            qobs::counter("qcheck_resolve_links_total").get(),
            qobs::counter("qcheck_pack_preads_total").get(),
        ]
    };
    // A fresh handle, as after a kill.
    let repo = CheckpointRepo::open_with(&dir, StoreKind::Pack).unwrap();
    let before = counters();
    let (snapshot, report) = repo.recover().unwrap();
    let after = counters();
    assert_eq!(snapshot, dense_snapshot(8));
    assert_eq!(report.manifests_tried, 1);

    let [digests, folded, preads] = [0, 1, 2].map(|i| after[i] - before[i]);
    assert_eq!(digests, sections, "one digest per section, not per link");
    assert_eq!(folded, links);
    assert_eq!(
        preads, links,
        "one read per link of a section, not per chunk"
    );
    let chunks: u64 = chain.iter().map(|m| m.chunk_refs().count() as u64).sum();
    assert!(chunks > 4 * preads, "{chunks} chunks in {preads} reads");

    drop(repo);
    let _ = std::fs::remove_dir_all(&dir);
}

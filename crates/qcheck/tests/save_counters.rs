//! The deterministic form of "one materialised encoding per section", as
//! exact counter deltas: a save enters `Compression::compress` once per
//! section, and sizes its other candidates without compressing them.
//! And of "a save does not replay": a local open reads no log, the first
//! save replays it once — for its id and its delta base — and after that
//! the handle keeps its log state current by applying the records it
//! commits, so the manifest log is never read back — the reason the
//! cached state exists.
//!
//! One test, alone in its binary, like `resolve_counters.rs`: the qobs
//! registry is process-wide, and `==` on a delta needs a process nothing
//! else saves in.

use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::{StateBlob, TrainingSnapshot};
use qcheck::store::StoreKind;

fn snapshot(step: u64) -> TrainingSnapshot {
    let mut s = TrainingSnapshot::new("save-counters");
    s.step = step;
    s.params = (0..4096).map(|i| (i as f64 + step as f64).sin()).collect();
    s.optimizer = StateBlob::new("adam-v1", vec![step as u8; 8192]);
    // The ledger grows, so its XOR-against-base candidate does not exist.
    s.shot_ledger = vec![7; 100 * (step as usize + 1)];
    s
}

#[test]
fn a_save_compresses_once_per_section_whatever_it_probes() {
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let dir = std::env::temp_dir().join(format!("qcheck-save-counters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let replays = || qobs::counter("qcheck_manifest_log_replays_total").get();
    let replays_before_open = replays();
    let repo = CheckpointRepo::open_with(&dir, StoreKind::Pack).unwrap();
    assert_eq!(
        replays(),
        replays_before_open,
        "a local open replays nothing"
    );
    let counters = || {
        [
            qobs::counter("qcheck_section_encodes_total").get(),
            qobs::counter("qcheck_section_size_probes_total").get(),
        ]
    };
    let opts = SaveOptions::incremental(8);
    let sections = snapshot(0).to_sections().len() as u64;

    // A full save has one candidate per section.
    let before = counters();
    let report = repo.save(&snapshot(0), &opts).unwrap();
    let after = counters();
    let replays_after_first_save = replays();
    assert_eq!(
        replays_after_first_save - replays_before_open,
        1,
        "the first save replays once"
    );
    assert!(!report.is_delta);
    assert_eq!(after[0] - before[0], sections);
    assert_eq!(after[1] - before[1], sections);

    // A delta save probes only what can pay for a link, and still
    // compresses one payload per section. The snapshot is ~41 KB, so a
    // delta must save more than 412–414 B (its bytes over 100): `meta`,
    // `rng`, `metrics` and the run-length-coded ledger are no larger than
    // that whole and stop at their full candidate. `params` sizes all
    // three candidates. `optimizer` (one byte value repeated, ~1 KB under
    // its word codec) sizes its patch but never builds its XOR: that
    // payload needs at least one control byte per 8-byte word, 1 025 B,
    // which cannot save the floor against a ~1 KB full payload.
    const DELTA_SAVE_PROBES: u64 = 1 + 3 + 2 + 1 + 1 + 1;
    for step in 1..4 {
        let before = counters();
        let report = repo.save(&snapshot(step), &opts).unwrap();
        let after = counters();
        assert!(report.is_delta);
        assert_eq!(
            after[0] - before[0],
            sections,
            "encodes per save == sections per save"
        );
        assert_eq!(after[1] - before[1], DELTA_SAVE_PROBES);
    }

    assert_eq!(repo.load_latest().unwrap().1, snapshot(3));
    assert_eq!(
        replays(),
        replays_after_first_save,
        "three more saves and a load on one handle read the log back 0 times"
    );
    drop(repo);
    let _ = std::fs::remove_dir_all(&dir);
}

//! R-F7 — Content-addressed dedup across a hyperparameter sweep.
//!
//! Eight runs share the same initialization and the same (large) dataset
//! blob but train with different learning rates. With a content-addressed
//! store, the shared chunks are written once; without, every run pays full
//! price. The saving is measured on the real store.

use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::Checkpointable;
use qcheck::store::ObjectStore;
use qsim::measure::EvalMode;

use crate::report::{human_bytes, quick_mode, scratch_dir, Table};
use crate::workloads::vqe_tfim_trainer;

/// Runs the experiment and returns the rendered table.
pub fn run() -> Table {
    let n_runs = if quick_mode() { 3 } else { 8 };
    let steps_per_run = if quick_mode() { 3 } else { 8 };
    // A shared dataset blob every run carries in a custom section (e.g. the
    // encoded training set); identical across runs → dedups to one copy.
    let dataset_blob: Vec<u8> = (0..256 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();

    let dir = scratch_dir("fig7");
    let repo = CheckpointRepo::open(&dir).expect("repo");
    let mut table = Table::new(
        "R-F7  dedup across an LR sweep (shared init + shared 256 KiB dataset blob)",
        &[
            "runs",
            "logical-bytes",
            "store-bytes",
            "saved",
            "dedup-chunk-hits",
        ],
    );
    let mut logical_total = 0u64;
    let mut dedup_hits = 0usize;
    let mut saved = Vec::with_capacity(n_runs);
    for run in 0..n_runs {
        let lr = 0.01 * (run + 1) as f64;
        // Same seed ⇒ identical initial parameters across the sweep.
        let mut trainer = vqe_tfim_trainer(6, 3, 1234, EvalMode::Exact, lr);
        for step in 0..steps_per_run {
            if step > 0 {
                trainer.train_step().expect("step");
            }
            let mut snap = trainer.capture();
            snap.label = format!("sweep-lr-{lr}");
            snap.custom.insert("dataset".into(), dataset_blob.clone());
            let report = repo.save(&snap, &SaveOptions::default()).expect("save");
            logical_total += report.logical_bytes;
            dedup_hits += report.chunks_deduped;
        }
        let store_bytes = repo.store().stats().expect("store").total_bytes;
        saved.push(100.0 * (1.0 - store_bytes as f64 / logical_total.max(1) as f64));
        table.row(vec![
            (run + 1).to_string(),
            human_bytes(logical_total as u128),
            human_bytes(store_bytes as u128),
            format!("{:.1}%", saved[run]),
            dedup_hits.to_string(),
        ]);
    }
    let _ = std::fs::remove_dir_all(dir);
    table.note(format!(
        "saved {:.1}% of the logical bytes at 1 run → {:.1}% at {n_runs} runs, \
         {dedup_hits} dedup chunk hits: chunks shared across saves and runs are stored once",
        saved[0],
        saved[n_runs - 1]
    ));
    table.note(if saved.windows(2).all(|w| w[0] <= w[1]) {
        "saving grows with run count: every additional run re-references the shared chunks"
            .to_string()
    } else {
        format!("saving does not grow with run count at every step: {saved:.1?} %")
    });
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_saves_most_of_the_sweep() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let t = run();
        let saved: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[3].trim_end_matches('%').parse().unwrap())
            .collect();
        assert!(
            saved.windows(2).all(|w| w[0] <= w[1]),
            "saving shrank with run count: {saved:?}"
        );
        let last = saved[saved.len() - 1];
        assert!(last > 50.0, "dedup saved only {last}%");
        let hits: usize = t.rows.last().unwrap()[4].parse().unwrap();
        assert!(hits > 0);
        assert!(t.notes[1].starts_with("saving grows with run count"));
    }
}

//! R-F6 — Recovery latency vs delta-chain length.
//!
//! Resolving a delta checkpoint folds, per section, the links back to that
//! section's newest full payload — not the whole chain: a section saved
//! whole at a later step stops the walk there. So recovery cost follows
//! the links folded (`links-folded`, from `qcheck_resolve_links_total`),
//! which grows with chain length only for the sections that keep chaining.
//! `compact_latest` rewrites the chain into a full checkpoint and caps it.

use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::Checkpointable;
use qcheck::store::ObjectStore;
use qsim::measure::EvalMode;

use crate::report::{quick_mode, scratch_dir, Table};
use crate::workloads::{median_ms, time_ms, vqe_tfim_trainer};

/// Median milliseconds of `reps` recoveries, and the delta-chain links
/// one recovery folds — the fewest over the reps, since the counter is
/// process-wide and a concurrent recover elsewhere can only add to it.
fn measure_recover(repo: &CheckpointRepo, reps: usize) -> (f64, u64) {
    let links = qobs::counter("qcheck_resolve_links_total");
    let mut folded = u64::MAX;
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let before = links.get();
            let (r, ms) = time_ms(|| repo.recover());
            r.expect("recover");
            folded = folded.min(links.get() - before);
            ms
        })
        .collect();
    (median_ms(&mut samples), folded)
}

/// Runs the experiment and returns the rendered table.
pub fn run() -> Table {
    let chain_lengths: Vec<u32> = if quick_mode() {
        vec![0, 4, 8]
    } else {
        vec![0, 1, 2, 4, 8, 16, 32, 64]
    };
    let reps = if quick_mode() { 3 } else { 9 };
    let mut table = Table::new(
        "R-F6  recovery latency vs delta-chain length (6q/3l snapshot stream)",
        &[
            "chain-len",
            "recover-ms",
            "links-folded",
            "post-compaction-ms",
            "stored-bytes-chain",
        ],
    );
    let mut measured = Vec::new();
    for &target_len in &chain_lengths {
        let dir = scratch_dir("fig6");
        let repo = CheckpointRepo::open(&dir).expect("repo");
        let mut trainer = vqe_tfim_trainer(6, 3, 13, EvalMode::Exact, 0.05);
        // Unbounded chain growth up to the target.
        let opts = SaveOptions::incremental(u32::MAX);
        for _ in 0..=target_len {
            trainer.train_step().expect("step");
            repo.save(&trainer.capture(), &opts).expect("save");
        }
        let latest = repo.read_latest().expect("latest").expect("pointer");
        let manifest = repo.load_manifest(&latest).expect("manifest");
        assert_eq!(manifest.chain_len, target_len, "chain construction");

        let (recover_ms, links) = measure_recover(&repo, reps);
        let chain_bytes = repo.store().stats().expect("store size").total_bytes;

        // Compact, then re-measure.
        repo.compact_latest(&opts).expect("compact");
        let (compacted_ms, _) = measure_recover(&repo, reps);

        table.row(vec![
            target_len.to_string(),
            format!("{recover_ms:.2}"),
            links.to_string(),
            format!("{compacted_ms:.2}"),
            chain_bytes.to_string(),
        ]);
        measured.push((target_len, recover_ms, links, compacted_ms));
        let _ = std::fs::remove_dir_all(dir);
    }
    let (_, base_ms, base_links, _) = measured[0];
    let (longest, longest_ms, longest_links, compacted_ms) = measured[measured.len() - 1];
    table.note(format!(
        "chain {longest} recovers in {:.1}× the chain-0 time, folding {longest_links} links \
         against {base_links}: a resolve folds each section back to its newest full payload, \
         not the whole chain",
        longest_ms / base_ms
    ));
    table.note(format!(
        "compaction rewrites the tip as a full checkpoint: chain {longest} then recovers in \
         {:.1}× the chain-0 time",
        compacted_ms / base_ms
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_chains_fold_more_links_and_compaction_caps_latency() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        if qobs::mode() == qobs::Mode::Off {
            qobs::set_mode(qobs::Mode::Counters);
        }
        let t = run();
        assert!(t.rows.len() >= 3);
        let column =
            |i: usize| -> Vec<f64> { t.rows.iter().map(|r| r[i].parse().unwrap()).collect() };
        let (recover, links, compacted) = (column(1), column(2), column(3));
        // The sections that chain fold one more link per step of depth.
        assert!(
            links.windows(2).all(|w| w[0] < w[1]),
            "links folded per chain length: {links:?}"
        );
        // Compaction brings the longest chain back near the chain-0 cost.
        let longest = *recover.last().unwrap();
        assert!(
            compacted.last().unwrap() <= &(longest.max(0.5) * 2.0),
            "compaction did not cap latency"
        );
    }
}

//! R-T3 — Compression ratios on parameter streams across training phases.
//!
//! Codecs behave differently as training progresses. A raw parameter
//! vector is near-incompressible at any phase (random angles). The win is
//! in *deltas*: XOR of the current parameters against the previous step's,
//! compressed with zero-byte elision, shrinks as SGD updates vanish toward
//! convergence. Adam is measured alongside to show the optimizer effect.

use qcheck::compress::{f64s_to_bytes, Compression, CompressionStats};
use qnn::trainer::Trainer;
use qsim::measure::EvalMode;

use crate::report::{quick_mode, Table};
use crate::workloads::{vqe_tfim_trainer, vqe_tfim_trainer_sgd};

/// Ratio of the XOR-vs-previous-step payload under zero-elision.
fn delta_ratio(prev: &[f64], cur: &[f64]) -> f64 {
    let a = f64s_to_bytes(prev);
    let b = f64s_to_bytes(cur);
    let xored: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
    let compressed = Compression::ZeroElideF64.compress(&xored);
    b.len() as f64 / compressed.len().max(1) as f64
}

fn phase_rows(label: &str, mut trainer: Trainer, phases: &[(&str, usize)], table: &mut Table) {
    let mut done = 0usize;
    let mut prev: Vec<f64> = trainer.params().to_vec();
    for &(phase, step) in phases {
        while done < step {
            prev = trainer.params().to_vec();
            trainer.train_step().expect("step");
            done += 1;
        }
        let bytes = f64s_to_bytes(trainer.params());
        let rle = CompressionStats::measure(Compression::Rle, &bytes);
        let xor = CompressionStats::measure(Compression::XorF64, &bytes);
        let update_norm: f64 = trainer
            .params()
            .iter()
            .zip(&prev)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        table.row(vec![
            label.to_string(),
            phase.to_string(),
            step.to_string(),
            format!("{:.2}", rle.ratio()),
            format!("{:.2}", xor.ratio()),
            format!("{:.2}", delta_ratio(&prev, trainer.params())),
            format!("{update_norm:.2e}"),
        ]);
    }
}

/// Runs the experiment and returns the rendered table.
pub fn run() -> Table {
    // Meaningful-byte counts in the XOR payload drop one byte per 256×
    // decay of the update magnitude, so the phases must span the full
    // convergence of the run (update l2 falls ~8e-2 → ~9e-4 by step 400).
    let phases: Vec<(&str, usize)> = if quick_mode() {
        vec![("early", 1), ("late", 400)]
    } else {
        vec![("early", 1), ("mid", 200), ("late", 600)]
    };
    let mut table = Table::new(
        "R-T3  compression ratio (raw/compressed) on parameter sections by phase and optimizer",
        &[
            "optimizer",
            "phase",
            "step",
            "rle",
            "xor-f64",
            "delta+zero-elide",
            "step-update-l2",
        ],
    );
    phase_rows(
        "sgd",
        vqe_tfim_trainer_sgd(6, 4, 17, EvalMode::Exact, 0.05),
        &phases,
        &mut table,
    );
    phase_rows(
        "adam",
        vqe_tfim_trainer(6, 4, 17, EvalMode::Exact, 0.05),
        &phases,
        &mut table,
    );
    table.note(full_vector_note(&table.rows));
    table.note(delta_note(&table.rows));
    table.note("these rows measure the parameter section only; the optimizer moments a checkpoint also carries are R-F5's subject");
    table
}

/// Widest ratio a full-vector codec may reach and still count as "no
/// saving": it would save under a fifth of the bytes.
const INCOMPRESSIBLE: f64 = 1.25;

fn cell(row: &[String], column: usize) -> f64 {
    row[column].parse().expect("numeric cell")
}

/// What the full-vector codecs (rle, xor-f64) did on every row.
fn full_vector_note(rows: &[Vec<String>]) -> String {
    let ratios: Vec<f64> = rows.iter().flat_map(|r| [cell(r, 3), cell(r, 4)]).collect();
    let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi <= INCOMPRESSIBLE {
        format!(
            "full-vector codecs (rle, xor-f64) read {lo:.2}–{hi:.2} on every row: the raw \
             angles are incompressible at any phase"
        )
    } else {
        format!(
            "full-vector codecs (rle, xor-f64) reach {hi:.2} on some row: the raw angles compress"
        )
    }
}

/// Whether delta+zero-elide rose as the step update decayed, from each
/// optimizer's first phase to its last.
fn delta_note(rows: &[Vec<String>]) -> String {
    let mut tracks = true;
    let mut per_optimizer = Vec::new();
    for phases in rows.chunk_by(|a, b| a[0] == b[0]) {
        let (first, last) = (&phases[0], &phases[phases.len() - 1]);
        tracks &= cell(last, 5) > cell(first, 5) && cell(last, 6) < cell(first, 6);
        per_optimizer.push(format!(
            "{} {} → {} as the update goes {} → {}",
            first[0], first[5], last[5], first[6], last[6]
        ));
    }
    let verdict = if tracks {
        "delta+zero-elide rises as the step update (last column) decays: more XOR bytes are zero"
    } else {
        "delta+zero-elide does not rise as the step update decays for every optimizer"
    };
    format!("{verdict} ({})", per_optimizer.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_late_phase_delta_compresses_better_than_early() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let t = run();
        // Rows: sgd-early, sgd-late, adam-early, adam-late.
        assert!(t.rows.len() >= 4);
        let ratio = |row: &Vec<String>| -> f64 { row[5].parse().unwrap() };
        let sgd_early = ratio(&t.rows[0]);
        let sgd_late = ratio(&t.rows[1]);
        assert!(
            sgd_late > sgd_early,
            "sgd delta ratio should improve: {sgd_early} → {sgd_late}"
        );
    }

    #[test]
    fn notes_agree_with_rows() {
        let row = |opt: &str, rle: &str, delta: &str, update: &str| -> Vec<String> {
            [opt, "phase", "1", rle, "0.91", delta, update]
                .iter()
                .map(|c| c.to_string())
                .collect()
        };
        let tracking = vec![
            row("sgd", "0.99", "1.12", "8.59e-2"),
            row("sgd", "0.99", "1.29", "8.73e-4"),
            row("adam", "0.99", "1.04", "3.67e-1"),
            row("adam", "0.99", "1.26", "2.64e-3"),
        ];
        assert!(full_vector_note(&tracking).contains("read 0.91–0.99 on every row"));
        let note = delta_note(&tracking);
        assert!(note.starts_with("delta+zero-elide rises"), "{note}");
        assert!(note.contains("adam 1.04 → 1.26 as the update goes 3.67e-1 → 2.64e-3"));
        // A late phase whose ratio fell, or whose update grew, flips it.
        let mut fell = tracking.clone();
        fell[3][5] = "1.01".into();
        assert!(delta_note(&fell).contains("does not rise"));
        let mut grew = tracking.clone();
        grew[1][6] = "9.00e-2".into();
        assert!(delta_note(&grew).contains("does not rise"));
        let mut packed = tracking;
        packed[2][3] = "2.10".into();
        assert!(full_vector_note(&packed).contains("reach 2.10 on some row"));
    }

    #[test]
    fn ratios_are_positive() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let t = run();
        for row in &t.rows {
            for cell in row.iter().take(6).skip(3) {
                let r: f64 = cell.parse().unwrap();
                assert!(r > 0.0);
            }
        }
    }
}

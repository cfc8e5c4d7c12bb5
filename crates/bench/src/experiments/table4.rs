//! R-T4 — Ablation of the checkpoint-path design choices.
//!
//! Each row adds one mechanism and measures what it buys on a real snapshot
//! stream: bytes per checkpoint, commit latency, and — the number the
//! training loop actually feels — the stall on the training thread
//! (a commit on the training thread vs the save driver's hand-off).
//!
//! Every row saves under the default compression policy, and none adds
//! the section codecs as a mechanism of its own: no policy codec shrinks
//! a section of a trainer's snapshot. A parameter vector of rotation
//! angles is near-incompressible (R-T3), and the ledger is already
//! varint-packed. A full save under the default policy stores exactly the
//! raw bytes on this stream, and likewise for fig5's 6q/3l SGD stream
//! after 400 steps and for an Adam stream. The codec that shrinks
//! anything, zero elision of an XOR-against-base payload, is part of the
//! delta chains.

use qcheck::repo::{CheckpointRepo, CommitMode, SaveOptions};
use qcheck::snapshot::{Checkpointable, TrainingSnapshot};
use qcheck::{Checkpointer, EveryKSteps};
use qnn::trainer::Trainer;
use qsim::measure::EvalMode;

use crate::report::{quick_mode, scratch_dir, Table};
use crate::workloads::{median_ms, time_ms, vqe_tfim_trainer_sgd};

/// A capture with its wall clock pinned to the step count. `wall_time_ms`
/// is the one field of a capture that depends on how fast the host ran,
/// and a delta save encodes it against its base, so a live value moved the
/// `bytes/ckpt` of the chained rows from run to run.
fn pinned_capture(trainer: &Trainer) -> TrainingSnapshot {
    let mut snapshot = trainer.capture();
    snapshot.wall_time_ms = snapshot.step;
    snapshot
}

/// The trainer as the save driver sees it, captured by [`pinned_capture`].
struct PinnedClock<'a>(&'a Trainer);

impl Checkpointable for PinnedClock<'_> {
    fn capture(&self) -> TrainingSnapshot {
        pinned_capture(self.0)
    }

    fn restore(&mut self, _: &TrainingSnapshot) -> Result<(), String> {
        Err("table4 only captures".into())
    }
}

/// Pre-captures a stream of consecutive training snapshots.
fn snapshot_stream(steps: usize) -> Vec<TrainingSnapshot> {
    let mut trainer = vqe_tfim_trainer_sgd(8, 4, 29, EvalMode::Exact, 0.05);
    (0..steps)
        .map(|_| {
            trainer.train_step().expect("step");
            pinned_capture(&trainer)
        })
        .collect()
}

struct Ablation {
    name: &'static str,
    options: SaveOptions,
}

/// Runs the experiment and returns the rendered table.
pub fn run() -> Table {
    let steps = if quick_mode() { 8 } else { 24 };
    let stream = snapshot_stream(steps);

    let ablations = vec![
        Ablation {
            name: "naive: in-place",
            options: SaveOptions {
                commit: CommitMode::InPlaceUnsafe,
                ..SaveOptions::default()
            },
        },
        Ablation {
            name: "+atomic commit",
            options: SaveOptions::default(),
        },
        Ablation {
            name: "+delta chains",
            options: SaveOptions::incremental(16),
        },
        Ablation {
            name: "+fsync",
            options: SaveOptions {
                fsync: true,
                ..SaveOptions::incremental(16)
            },
        },
    ];

    let mut table = Table::new(
        "R-T4  checkpoint-path ablation (8q/4l SGD stream, medians over the run)",
        &[
            "configuration",
            "bytes/ckpt",
            "commit-ms",
            "train-stall-ms",
            "crash-safe",
        ],
    );

    for ab in &ablations {
        let dir = scratch_dir("table4");
        let repo = CheckpointRepo::open(&dir).expect("repo");
        let mut bytes = Vec::new();
        let mut commit_ms = Vec::new();
        for snap in &stream {
            let (report, ms) = time_ms(|| repo.save(snap, &ab.options));
            let report = report.expect("save");
            bytes.push(report.bytes_written());
            commit_ms.push(ms);
        }
        bytes.sort_unstable();
        let med_bytes = bytes[bytes.len() / 2];
        let med_ms = median_ms(&mut commit_ms);
        table.row(vec![
            ab.name.to_string(),
            med_bytes.to_string(),
            format!("{med_ms:.2}"),
            format!("{med_ms:.2}"), // synchronous: the stall is the commit
            (!matches!(ab.options.commit, CommitMode::InPlaceUnsafe)).to_string(),
        ]);
        let _ = std::fs::remove_dir_all(dir);
    }

    // The save driver: same storage work on its writer thread; the
    // training thread pays capture + hand-off. Checkpoints are
    // interleaved with real training compute (as in a live loop) so the
    // writer has the step time to finish — a tight loop would measure the
    // driver's one-in-flight backpressure instead.
    {
        let dir = scratch_dir("table4-bg");
        let mut driver = Checkpointer::new(
            CheckpointRepo::open(&dir).expect("repo"),
            Box::new(EveryKSteps::new(1)),
            SaveOptions::incremental(16),
        )
        .expect("driver");
        let mut trainer = vqe_tfim_trainer_sgd(8, 4, 31, EvalMode::Exact, 0.05);
        let mut stall_ms = Vec::new();
        for _ in 0..stream.len() {
            let step = trainer.train_step().expect("step").step;
            let (handed_off, ms) = time_ms(|| driver.on_step(step, &PinnedClock(&trainer)));
            assert!(handed_off.expect("on_step"), "every-1 is always due");
            stall_ms.push(ms);
        }
        driver.drain().expect("drain");
        let mut bytes: Vec<u64> = driver.history().iter().map(|r| r.bytes_written()).collect();
        bytes.sort_unstable();
        table.row(vec![
            "+background writer".to_string(),
            bytes[bytes.len() / 2].to_string(),
            "(off critical path)".to_string(),
            format!("{:.2}", median_ms(&mut stall_ms)),
            "true".to_string(),
        ]);
        drop(driver);
        let _ = std::fs::remove_dir_all(dir);
    }

    table.note(per_row_note(&table.rows));
    table.note(writer_note(&table.rows));
    table
}

/// What each row's one added mechanism moved against the row above it:
/// bytes per checkpoint and, for the synchronous rows, commit time.
fn per_row_note(rows: &[Vec<String>]) -> String {
    let moved: Vec<String> = rows
        .windows(2)
        .map(|pair| {
            let (above, row) = (&pair[0], &pair[1]);
            let bytes: i64 =
                row[1].parse::<i64>().expect("bytes") - above[1].parse::<i64>().expect("bytes");
            let commit = match (row[2].parse::<f64>(), above[2].parse::<f64>()) {
                (Ok(ms), Ok(above_ms)) => format!(", commit {:.1}×", ms / above_ms),
                _ => String::new(),
            };
            format!("{} {bytes:+} B{commit}", row[0])
        })
        .collect();
    format!(
        "each row adds one mechanism to the row above; against it: {} ('train-stall' is what \
         the optimizer loop waits for)",
        moved.join(", ")
    )
}

/// The background writer's stall against the same save (`+delta chains`)
/// made on the training thread.
fn writer_note(rows: &[Vec<String>]) -> String {
    let stall = |name: &str| -> f64 {
        let row = rows.iter().find(|r| r[0] == name).expect("ablation row");
        row[3].parse().expect("stall ms")
    };
    let (background, synchronous) = (stall("+background writer"), stall("+delta chains"));
    if background < synchronous {
        format!(
            "the writer thread takes the commit off the critical path: the loop waits \
             {background:.2} ms per save, against {synchronous:.2} ms for the same save made on \
             it — a snapshot capture plus a channel send"
        )
    } else {
        format!(
            "the writer thread does not shorten the stall here: the loop waits {background:.2} ms \
             per save, against {synchronous:.2} ms for the same save made on it"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_covers_all_configurations() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let t = run();
        assert_eq!(t.rows.len(), 5);
        // Delta rows must not exceed full-save rows.
        let full: u64 = t.rows[0][1].parse().unwrap();
        let delta: u64 = t.rows[2][1].parse().unwrap();
        assert!(delta <= full, "delta {delta} vs full {full}");
        // The driver's stall must not exceed the same save made on the
        // training thread by more than noise.
        let sync_stall: f64 = t.rows[2][3].parse().unwrap();
        let bg_stall: f64 = t.rows[4][3].parse().unwrap();
        assert!(
            bg_stall <= sync_stall * 3.0 + 1.0,
            "driver stall {bg_stall} vs synchronous {sync_stall}"
        );
    }

    #[test]
    fn notes_agree_with_rows() {
        let row = |cells: [&str; 4]| -> Vec<String> {
            cells
                .iter()
                .map(|c| c.to_string())
                .chain(["true".to_string()])
                .collect()
        };
        let mut rows = vec![
            row(["naive: in-place", "1437", "0.26", "0.26"]),
            row(["+atomic commit", "1437", "0.20", "0.20"]),
            row(["+delta chains", "1330", "0.46", "0.46"]),
            row(["+fsync", "1330", "0.92", "0.92"]),
            row(["+background writer", "1332", "(off critical path)", "0.04"]),
        ];
        let note = per_row_note(&rows);
        assert!(note.contains("+atomic commit +0 B, commit 0.8×"), "{note}");
        assert!(note.contains("+delta chains -107 B, commit 2.3×"), "{note}");
        assert!(note.contains("+fsync +0 B, commit 2.0×"), "{note}");
        assert!(
            note.ends_with(
                "+background writer +2 B ('train-stall' is what the optimizer loop waits for)"
            ),
            "{note}"
        );
        assert!(writer_note(&rows).contains("takes the commit off the critical path"));
        assert!(writer_note(&rows).contains("0.04 ms per save, against 0.46 ms"));
        rows[4][3] = "0.50".into();
        assert!(writer_note(&rows).contains("does not shorten the stall"));
    }

    #[test]
    fn bytes_column_is_the_same_from_run_to_run() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let bytes = |t: Table| -> Vec<String> { t.rows.iter().map(|r| r[1].clone()).collect() };
        assert_eq!(bytes(run()), bytes(run()));
    }
}

//! R-F1 — Motivation: expected work lost per failure vs MTBF.
//!
//! Without checkpointing a failure costs half the elapsed run plus a full
//! queue re-entry; with Young–Daly checkpointing it costs half a checkpoint
//! interval plus restore + re-entry. The analytic model (Young/Daly) is
//! plotted against the `qhw` replay, whose trials are paired: trial `t`
//! replays both strategies at every MTBF on the stream
//! `trial_streams(SEED)` gives it.

use qcheck::policy::math;
use qhw::client::{simulate_run, trial_streams, CheckpointStrategy, Environment, JobSpec};
use qhw::event::{HOUR, MINUTE, SECOND};
use qhw::queue::WaitModel;

use crate::report::{cell_seconds, human_seconds, quick_mode, Table};

/// Seed of the replay's trial streams.
const SEED: u64 = 42;

/// Runs the experiment and returns the rendered table.
pub fn run() -> Table {
    let mtbf_hours: Vec<f64> = if quick_mode() {
        vec![0.5, 2.0]
    } else {
        vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    };
    // Reference job: 1000 steps × 30 s ≈ 8.3 h of useful work; 10-minute
    // median queue wait (heavy-tailed waits are swept in R-F4).
    let spec = JobSpec {
        total_steps: 1000,
        step_cost: 30 * SECOND,
    };
    let queue_wait = 10 * MINUTE;
    let write_cost = SECOND; // measured scale for a full classical snapshot
    let restore_cost = 5 * SECOND;
    let trials = if quick_mode() { 10 } else { 60 };

    let mut table = Table::new(
        "R-F1  expected lost work per failure vs MTBF (1000×30 s job, 10 min queue)",
        &[
            "mtbf",
            "model-lost/none",
            "sim-lost/none",
            "model-lost/yd",
            "sim-lost/yd",
            "yd-interval",
        ],
    );
    for &h in &mtbf_hours {
        let mtbf = (h * HOUR as f64) as u64;
        // Analytic: no checkpoint loses elapsed/2 (elapsed ≈ min(run, mtbf))
        // + re-entry; checkpointing loses τ*/2 + restore + re-entry.
        let run_len = (spec.total_steps * spec.step_cost) as f64;
        let expected_elapsed_at_failure = run_len.min(mtbf as f64);
        let model_none = math::expected_lost_work_no_checkpoint(
            expected_elapsed_at_failure,
            (queue_wait + restore_cost) as f64,
        );
        let tau = math::young_daly_interval(write_cost as f64, mtbf as f64);
        let model_yd =
            math::expected_lost_work_with_checkpoint(tau, (queue_wait + restore_cost) as f64);
        let interval_steps = ((tau / spec.step_cost as f64).round() as u64).max(1);

        // Simulated counterparts: mean lost work + queue per interruption.
        let env = Environment {
            queue: WaitModel::Constant { wait: queue_wait },
            mtbf: Some(mtbf),
            session_ttl: None,
        };
        let sim_per_failure = |strategy: &CheckpointStrategy| -> f64 {
            let mut lost = 0.0;
            let mut interruptions = 0u64;
            for mut rng in trial_streams(SEED).take(trials) {
                // Aborted runs (no-checkpoint at tiny MTBF never finishes)
                // still contribute per-interruption losses.
                let o = simulate_run(&spec, strategy, &env, &mut rng);
                lost += (o.lost_work + o.queue_time + o.restore_overhead) as f64;
                interruptions += o.interruptions + 1; // +1 initial submission
            }
            if interruptions == 0 {
                0.0
            } else {
                lost / interruptions as f64
            }
        };
        let sim_none = sim_per_failure(&CheckpointStrategy::None);
        let yd = CheckpointStrategy::periodic(interval_steps, write_cost, restore_cost);
        let sim_yd = sim_per_failure(&yd);

        table.row(vec![
            format!("{h:.2} h"),
            human_seconds(model_none / 1e6),
            human_seconds(sim_none / 1e6),
            human_seconds(model_yd / 1e6),
            human_seconds(sim_yd / 1e6),
            format!("{interval_steps} steps"),
        ]);
    }
    table.note(no_checkpoint_note(&table.rows));
    table.note(young_daly_note(&table.rows));
    table
}

/// Column `column` of `rows`, read back as seconds.
fn seconds(rows: &[Vec<String>], column: usize) -> Vec<f64> {
    rows.iter().map(|r| cell_seconds(&r[column])).collect()
}

/// Whether the simulated no-checkpoint loss (column 2) rises with MTBF,
/// read from the rows.
fn no_checkpoint_note(rows: &[Vec<String>]) -> String {
    let rises = seconds(rows, 2).windows(2).all(|w| w[0] <= w[1]);
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    format!(
        "simulated lost work per interruption without checkpointing {} with MTBF \
         at every step: {} at {}, {} at {}",
        if rises { "rises" } else { "does not rise" },
        first[2],
        first[0],
        last[2],
        last[0]
    )
}

/// The spread of the simulated Young–Daly loss (column 4), and how often
/// it undercuts the no-checkpoint loss (column 2), read from the rows.
fn young_daly_note(rows: &[Vec<String>]) -> String {
    let (none, yd) = (seconds(rows, 2), seconds(rows, 4));
    let cell = |pick: fn(f64, f64) -> f64| {
        let at = yd
            .iter()
            .position(|&v| v == yd.iter().copied().fold(yd[0], pick));
        &rows[at.expect("a row")][4]
    };
    let below = none.iter().zip(&yd).filter(|(n, y)| y < n).count();
    format!(
        "with Young–Daly checkpointing it stays between {} and {}, below the \
         no-checkpoint loss on the same failure traces at {below} of {} MTBFs",
        cell(f64::min),
        cell(f64::max),
        rows.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpointing_cuts_lost_work() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let t = run();
        assert!(!t.rows.is_empty());
        assert!(t.render().contains("R-F1"));
        // The model loses more without checkpoints at every MTBF.
        let (model_none, model_yd) = (seconds(&t.rows, 1), seconds(&t.rows, 3));
        assert!(model_none.iter().zip(&model_yd).all(|(n, y)| n > y));
    }

    #[test]
    fn notes_agree_with_rows() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let t = run();
        let none = seconds(&t.rows, 2);
        let rises = none.windows(2).all(|w| w[0] <= w[1]);
        assert_eq!(
            t.notes[0].contains(" rises with MTBF"),
            rises,
            "{}",
            t.notes[0]
        );
        let last = &t.rows[t.rows.len() - 1];
        assert!(t.notes[0].ends_with(&format!("{} at {}", last[2], last[0])));
        // The Young–Daly note names the column's extremes and counts the
        // rows where it undercuts the no-checkpoint loss.
        let yd = seconds(&t.rows, 4);
        let cell_of = |v: f64| &t.rows[yd.iter().position(|&y| y == v).unwrap()][4];
        let lo = cell_of(yd.iter().copied().fold(f64::INFINITY, f64::min));
        let hi = cell_of(yd.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        assert!(
            t.notes[1].contains(&format!("between {lo} and {hi},")),
            "{}",
            t.notes[1]
        );
        let below = none.iter().zip(&yd).filter(|(n, y)| y < n).count();
        assert!(
            t.notes[1].ends_with(&format!("at {below} of {} MTBFs", t.rows.len())),
            "{}",
            t.notes[1]
        );
    }
}

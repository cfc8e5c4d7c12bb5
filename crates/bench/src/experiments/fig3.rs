//! R-F3 — Checkpoint overhead vs interval, with the Young–Daly optimum.
//!
//! The checkpoint cost `C` is *measured* on the real `qcheck` stack, as the
//! product's own Young–Daly policy measures it: a [`Checkpointer`] saves a
//! real training run after every step, and `C` is the time a checkpoint
//! *blocked* the training thread ([`Checkpointer::observed_cost_ms`]); the
//! commit itself runs on the `Checkpointer`'s writer thread. The simulated
//! checkpoint also ships state off-node, so the rows use
//! `max(measured, 0.5 s)`: the title states that cost, and a note says
//! whether the measurement fell under the floor (the blocked time varies
//! hundreds-fold between runs, so it is not printed). The overhead curve
//! is then produced both from the first-order analytic model and from the
//! `qhw` simulation, sweeping the interval through the Young–Daly optimum
//! `τ* = √(2·C·MTBF)`. The simulated rows are paired: trial `t` replays
//! every interval on the stream `qhw::trial_streams(SEED)` gives
//! it, so two rows differ by their intervals alone.

use qcheck::policy::math;
use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::{Checkpointer, EveryKSteps};
use qhw::client::{mean_outcome, CheckpointStrategy, Environment, JobSpec};
use qhw::event::{SimTime, HOUR, MINUTE, SECOND};
use qhw::queue::WaitModel;

use crate::report::{quick_mode, scratch_dir, Table};
use crate::workloads::vqe_tfim_trainer_spsa;

/// Seed of the replay's trial streams.
const SEED: u64 = 7;

/// The least checkpoint cost the rows use, so the sweep has a visible left
/// wall.
const COST_FLOOR: SimTime = SECOND / 2;

/// Measures the real cost (ms) of a checkpoint to the training thread: the
/// `Checkpointer`'s observed blocked time over a run checkpointed every step.
pub fn measured_checkpoint_cost_ms() -> f64 {
    let dir = scratch_dir("fig3-cost");
    let repo = CheckpointRepo::open(&dir).expect("repo");
    let mut checkpointer =
        Checkpointer::new(repo, Box::new(EveryKSteps::new(1)), SaveOptions::default())
            .expect("checkpointer");
    let mut trainer = vqe_tfim_trainer_spsa(10, 4, 3, qsim::measure::EvalMode::Shots(128));
    let steps = if quick_mode() { 5 } else { 15 };
    for _ in 0..steps {
        let step = trainer.train_step().expect("step").step;
        assert!(checkpointer.on_step(step, &trainer).expect("on_step"));
    }
    let cost = checkpointer.observed_cost_ms();
    checkpointer.finish().expect("finish");
    let _ = std::fs::remove_dir_all(dir);
    cost
}

/// Runs the experiment and returns the rendered table.
pub fn run() -> Table {
    let measured = (measured_checkpoint_cost_ms() * 1000.0) as SimTime;
    let write_cost = measured.max(COST_FLOOR);
    let mtbf = 2 * HOUR;
    let spec = JobSpec {
        total_steps: 2000,
        step_cost: 15 * SECOND,
    };
    let env = Environment {
        queue: WaitModel::Constant { wait: 5 * MINUTE },
        mtbf: Some(mtbf),
        session_ttl: None,
    };
    let restore = 5 * SECOND;
    let tau_star = math::young_daly_interval(write_cost as f64, mtbf as f64);
    let opt_steps = (tau_star / spec.step_cost as f64).round().max(1.0) as u64;

    let multipliers: Vec<f64> = if quick_mode() {
        vec![0.25, 1.0, 4.0]
    } else {
        vec![0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    };
    let trials = if quick_mode() { 8 } else { 40 };

    let ideal = (spec.total_steps * spec.step_cost + 5 * MINUTE) as f64;
    let mut table = Table::new(
        format!(
            "R-F3  overhead vs checkpoint interval (C={:.3} s per checkpoint; MTBF=2 h; τ*={} steps)",
            write_cost as f64 / SECOND as f64,
            opt_steps
        ),
        &["interval-steps", "tau/tau*", "model-overhead-%", "sim-overhead-%"],
    );
    for m in multipliers {
        let interval = ((opt_steps as f64 * m).round() as u64).max(1);
        let tau = (interval * spec.step_cost) as f64;
        let model = math::expected_overhead_fraction(
            tau,
            write_cost as f64,
            (5 * MINUTE + restore) as f64,
            mtbf as f64,
        );
        let strategy = CheckpointStrategy::periodic(interval, write_cost, restore);
        let (makespan, _, aborts) = mean_outcome(&spec, &strategy, &env, trials, SEED);
        assert_eq!(aborts, 0, "aborted runs in sweep");
        let sim = makespan / ideal - 1.0;
        table.row(vec![
            interval.to_string(),
            format!("{m:.3}"),
            format!("{:.2}", model * 100.0),
            format!("{:.2}", sim * 100.0),
        ]);
    }
    for (column, curve) in [(2, "model"), (3, "sim")] {
        table.note(minimum_note(&table.rows, column, curve));
    }
    table.note(format!(
        "the sim margin is paired: every interval replays the same {trials} trials' failure \
         traces"
    ));
    table.note(floor_note(measured));
    table
}

/// Whether the measured blocked cost (`measured`, sim time) fell under
/// [`COST_FLOOR`], and so which of the two the rows use.
fn floor_note(measured: SimTime) -> String {
    let floor = COST_FLOOR as f64 / SECOND as f64;
    if measured < COST_FLOOR {
        format!(
            "C is the {floor} s floor: the checkpoint blocked the training thread for less \
             than that"
        )
    } else {
        format!(
            "C is the measured blocked time, {:.3} s: at or above the {floor} s floor",
            measured as f64 / SECOND as f64
        )
    }
}

/// Where `curve`'s overhead (row column `column`) is lowest, read from the
/// rows, its margin over the next-lowest row, and whether both ends of the
/// sweep lie above that minimum.
fn minimum_note(rows: &[Vec<String>], column: usize, curve: &str) -> String {
    let overhead = |r: &Vec<String>| -> f64 { r[column].parse().expect("overhead cell") };
    let mut by_overhead: Vec<&Vec<String>> = rows.iter().collect();
    by_overhead.sort_by(|a, b| overhead(a).total_cmp(&overhead(b)));
    let (lowest, runner_up) = (by_overhead[0], by_overhead[1]);
    let min = overhead(lowest);
    let shape = if overhead(&rows[0]) > min && overhead(&rows[rows.len() - 1]) > min {
        "U-shaped: tiny intervals pay write overhead, huge intervals pay rework"
    } else {
        "not U-shaped over this sweep"
    };
    format!(
        "{curve} overhead is {shape}; the next-lowest row, tau/tau* = {}, is {:.2} pp above \
         its minimum, {min:.2} %, which sits at tau/tau* = {}",
        runner_up[1],
        overhead(runner_up) - min,
        lowest[1]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_cost_is_positive_and_finite() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let c = measured_checkpoint_cost_ms();
        assert!(c > 0.0 && c < 60_000.0, "cost {c} ms");
    }

    #[test]
    fn title_states_the_cost_the_rows_use() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let (a, b) = (run(), run());
        assert_eq!(a.title, b.title);
        assert!(a.title.contains("C=0.500 s per checkpoint"), "{}", a.title);
        assert_eq!(a.notes.last(), b.notes.last());
        assert_eq!(floor_note(COST_FLOOR - 1), *a.notes.last().unwrap());
        assert!(floor_note(COST_FLOOR).contains("at or above"));
        assert!(floor_note(3 * SECOND).starts_with("C is the measured blocked time, 3.000 s"));
    }

    #[test]
    fn sweep_produces_u_shape_data() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let t = run();
        assert!(t.rows.len() >= 3);
        // Model overhead at the extremes must exceed the middle row.
        let parse = |r: &Vec<String>| -> f64 { r[2].parse().unwrap() };
        let first = parse(&t.rows[0]);
        let mid = parse(&t.rows[1]);
        let last = parse(&t.rows[t.rows.len() - 1]);
        assert!(first > mid && last > mid, "{first} {mid} {last}");
        // Each curve's note names its lowest row and calls the curve
        // U-shaped exactly when both ends lie above that row.
        for (note, column) in t.notes.iter().zip([2, 3]) {
            let cells: Vec<f64> = t.rows.iter().map(|r| r[column].parse().unwrap()).collect();
            let min = cells.iter().copied().fold(f64::INFINITY, f64::min);
            let at = &t.rows[cells.iter().position(|&c| c == min).unwrap()][1];
            assert!(
                note.ends_with(&format!("sits at tau/tau* = {at}")),
                "{note}"
            );
            let next = cells
                .iter()
                .copied()
                .filter(|&c| c != min)
                .fold(f64::INFINITY, f64::min);
            let tied = cells.iter().filter(|&&c| c == min).count() > 1;
            let margin = if tied { 0.0 } else { next - min };
            assert!(note.contains(&format!("is {margin:.2} pp above")), "{note}");
            let u_shaped = cells[0] > min && cells[cells.len() - 1] > min;
            assert_eq!(note.contains(" is U-shaped"), u_shaped, "{note} {cells:?}");
        }
        assert!(t.notes[0].starts_with("model overhead is U-shaped"));
    }
}

//! R-F4 — Time-to-solution under failures: no checkpointing vs full vs
//! incremental.
//!
//! Write costs for the full and incremental strategies are measured on the
//! real `qcheck` writer (full snapshot vs delta against the previous step),
//! then a 2000-step job is replayed through `qhw` across an MTBF sweep.
//! The replay is paired: trial `t` replays all three strategies at every
//! MTBF on the stream `qhw::trial_streams(SEED)` gives it.

use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::Checkpointable;
use qhw::client::{mean_outcome, CheckpointStrategy, Environment, JobSpec};
use qhw::event::{HOUR, SECOND};
use qhw::queue::WaitModel;

use crate::report::{cell_seconds, human_seconds, quick_mode, scratch_dir, Table};
use crate::workloads::{median_ms, time_ms, vqe_tfim_trainer_spsa};

/// Seed of the replay's trial streams.
const SEED: u64 = 99;

/// Measures (full, delta) commit costs in ms on a real training snapshot
/// stream.
pub fn measured_costs_ms() -> (f64, f64) {
    let dir = scratch_dir("fig4-cost");
    let repo = CheckpointRepo::open(&dir).expect("repo");
    let mut trainer = vqe_tfim_trainer_spsa(10, 4, 5, qsim::measure::EvalMode::Shots(64));
    let reps = if quick_mode() { 4 } else { 10 };
    let mut full_samples = Vec::new();
    let mut delta_samples = Vec::new();
    let full_opts = SaveOptions::default();
    let delta_opts = SaveOptions::incremental(16);
    for _ in 0..reps {
        trainer.train_step().expect("step");
        let snap = trainer.capture();
        let (r, ms) = time_ms(|| repo.save(&snap, &full_opts));
        r.expect("full save");
        full_samples.push(ms);
        let (r, ms) = time_ms(|| repo.save(&snap, &delta_opts));
        r.expect("delta save");
        delta_samples.push(ms);
    }
    let out = (median_ms(&mut full_samples), median_ms(&mut delta_samples));
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Runs the experiment and returns the rendered table.
pub fn run() -> Table {
    let (full_ms, delta_ms) = measured_costs_ms();
    // Project into the simulated regime (state shipped off-node): floor the
    // costs so the strategies stay distinguishable in simulated time.
    let full_cost = ((full_ms * 1000.0) as u64).max(2 * SECOND);
    let delta_cost = ((delta_ms * 1000.0) as u64).max(full_cost / 4);
    let spec = JobSpec {
        total_steps: 2000,
        step_cost: 15 * SECOND,
    };
    let ideal_h = (spec.total_steps * spec.step_cost) as f64 / HOUR as f64;
    let mtbf_hours: Vec<f64> = if quick_mode() {
        vec![0.5, 2.0]
    } else {
        vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let trials = if quick_mode() { 6 } else { 30 };
    let mut table = Table::new(
        format!(
            "R-F4  time-to-solution vs MTBF (job ideal {:.1} h; full-ckpt {} µs, delta-ckpt {} µs)",
            ideal_h, full_cost, delta_cost
        ),
        &["mtbf", "none", "full-ckpt", "incremental", "none/incr"],
    );
    for &h in &mtbf_hours {
        let mtbf = (h * HOUR as f64) as u64;
        let env = Environment {
            queue: WaitModel::LogNormal {
                median_s: 300.0,
                sigma: 1.0,
            },
            mtbf: Some(mtbf),
            session_ttl: None,
        };
        // Young–Daly intervals per strategy cost.
        let interval = |cost: u64| -> u64 {
            let tau = qcheck::policy::math::young_daly_interval(cost as f64, mtbf as f64);
            ((tau / spec.step_cost as f64).round() as u64).max(1)
        };
        let (none_ms, _, none_aborts) =
            mean_outcome(&spec, &CheckpointStrategy::None, &env, trials, SEED);
        let full = CheckpointStrategy::periodic(interval(full_cost), full_cost, 5 * SECOND);
        let (full_mk, _, _) = mean_outcome(&spec, &full, &env, trials, SEED);
        let incr = CheckpointStrategy::periodic(interval(delta_cost), delta_cost, 8 * SECOND);
        let (incr_mk, _, _) = mean_outcome(&spec, &incr, &env, trials, SEED);
        let none_cell = if none_aborts > 0 {
            format!(
                ">{} (aborts {}/{})",
                human_seconds(none_ms / 1e6),
                none_aborts,
                trials
            )
        } else {
            human_seconds(none_ms / 1e6)
        };
        table.row(vec![
            format!("{h:.2} h"),
            none_cell,
            human_seconds(full_mk / 1e6),
            human_seconds(incr_mk / 1e6),
            format!("{:.1}x", none_ms / incr_mk),
        ]);
    }
    table.note(no_checkpoint_note(&table.rows));
    table.note(incremental_note(&table.rows));
    table
}

/// MTBF labels (column 0) of `rows`, or "none".
fn mtbfs(rows: &[&Vec<String>]) -> String {
    let at: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    if at.is_empty() {
        "none".to_string()
    } else {
        at.join(", ")
    }
}

/// Whether the no-checkpoint makespan (column 1) grows as MTBF shrinks
/// over the rows where no trial hit the interruption cap, and which rows
/// did; read from the rows.
fn no_checkpoint_note(rows: &[Vec<String>]) -> String {
    let (capped, finished): (Vec<_>, Vec<_>) = rows.iter().partition(|r| r[1].contains("aborts"));
    let makespan: Vec<f64> = finished.iter().map(|r| cell_seconds(&r[1])).collect();
    let grows = makespan.windows(2).all(|w| w[0] >= w[1]);
    format!(
        "where every trial finishes ({}), the no-checkpoint makespan {} as MTBF shrinks; \
         trials hit the interruption cap at {}",
        mtbfs(&finished),
        if grows {
            "grows at every step"
        } else {
            "does not grow at every step"
        },
        mtbfs(&capped)
    )
}

/// Where incremental checkpointing (column 3) finishes before full
/// checkpointing (column 2), read from the rows.
fn incremental_note(rows: &[Vec<String>]) -> String {
    let (ahead, behind): (Vec<_>, Vec<_>) = rows
        .iter()
        .partition(|r| cell_seconds(&r[3]) < cell_seconds(&r[2]));
    format!(
        "on the same failure traces, incremental (cheaper writes, shorter Young–Daly \
         interval, costlier restore) finishes before full at {} of {} MTBFs ({}); full is \
         level or ahead at {}",
        ahead.len(),
        rows.len(),
        mtbfs(&ahead),
        mtbfs(&behind)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_measured_and_ordered() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let (full, delta) = measured_costs_ms();
        assert!(full > 0.0 && delta > 0.0);
    }

    #[test]
    fn checkpointing_strategies_beat_none_at_low_mtbf() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let t = run();
        assert!(!t.rows.is_empty());
        // Speedup column parses as ≥ 1 at the lowest MTBF.
        let speedup: f64 = t.rows[0]
            .last()
            .unwrap()
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(speedup >= 1.0, "speedup {speedup}");
    }

    #[test]
    fn notes_agree_with_rows() {
        std::env::set_var("QCHECK_BENCH_QUICK", "1");
        let t = run();
        let finished: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| !r[1].contains("aborts"))
            .map(|r| cell_seconds(&r[1]))
            .collect();
        let grows = finished.windows(2).all(|w| w[0] >= w[1]);
        assert_eq!(
            t.notes[0].contains(" grows at every step"),
            grows,
            "{}",
            t.notes[0]
        );
        let capped = t.rows.iter().any(|r| r[1].contains("aborts"));
        assert_eq!(
            t.notes[0].ends_with("cap at none"),
            !capped,
            "{}",
            t.notes[0]
        );
        let ahead: Vec<&str> = t
            .rows
            .iter()
            .filter(|r| cell_seconds(&r[3]) < cell_seconds(&r[2]))
            .map(|r| r[0].as_str())
            .collect();
        assert!(
            t.notes[1].contains(&format!("at {} of {} MTBFs", ahead.len(), t.rows.len())),
            "{}",
            t.notes[1]
        );
        if !ahead.is_empty() {
            assert!(
                t.notes[1].contains(&format!("({})", ahead.join(", "))),
                "{}",
                t.notes[1]
            );
        }
    }
}

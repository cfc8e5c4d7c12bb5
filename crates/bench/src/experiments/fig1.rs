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
    // Enough trials that every MTBF step of the no-checkpoint loss
    // resolves (see `no_checkpoint_note`) whatever the base seed.
    let trials = if quick_mode() { 10 } else { 600 };

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
    let mut no_checkpoint_trials = Vec::new();
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
        let (sim_none, none_trials) = replay(&spec, &CheckpointStrategy::None, &env, trials);
        let yd = CheckpointStrategy::periodic(interval_steps, write_cost, restore_cost);
        let (sim_yd, _) = replay(&spec, &yd, &env, trials);
        no_checkpoint_trials.push(none_trials);

        table.row(vec![
            format!("{h:.2} h"),
            human_seconds(model_none / 1e6),
            human_seconds(sim_none / 1e6),
            human_seconds(model_yd / 1e6),
            human_seconds(sim_yd / 1e6),
            format!("{interval_steps} steps"),
        ]);
    }
    let mtbfs: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
    let note = no_checkpoint_note(&mtbfs, &no_checkpoint_trials);
    table.note(note);
    table.note(young_daly_note(&table.rows));
    table
}

/// Replays `strategy` on the first `trials` streams of
/// `trial_streams(SEED)`. Returns the lost work + queue + restore per
/// interruption pooled over every trial (the table's cell), and the same
/// ratio trial by trial (what a paired comparison across MTBFs reads).
/// An aborted run (no checkpoint at a tiny MTBF never finishes) still
/// contributes its losses; each trial counts its initial submission as one
/// more interruption.
fn replay(
    spec: &JobSpec,
    strategy: &CheckpointStrategy,
    env: &Environment,
    trials: usize,
) -> (f64, Vec<f64>) {
    let (mut lost, mut interruptions) = (0.0, 0u64);
    let per_trial = trial_streams(SEED)
        .take(trials)
        .map(|mut rng| {
            let o = simulate_run(spec, strategy, env, &mut rng);
            let trial_lost = (o.lost_work + o.queue_time + o.restore_overhead) as f64;
            lost += trial_lost;
            interruptions += o.interruptions + 1;
            trial_lost / (o.interruptions + 1) as f64
        })
        .collect();
    (lost / interruptions as f64, per_trial)
}

/// Column `column` of `rows`, read back as seconds.
fn seconds(rows: &[Vec<String>], column: usize) -> Vec<f64> {
    rows.iter().map(|r| cell_seconds(&r[column])).collect()
}

/// Standard errors a step's mean paired difference must clear to resolve.
const RESOLVE_SE: f64 = 2.0;

/// How the per-interruption loss moves from one MTBF to the next, judged
/// on paired trials.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Rises,
    Falls,
    Unresolved,
}

/// The verdict of one MTBF step from the trials' paired differences
/// `after[t] − before[t]`: it resolves only when their mean is more than
/// [`RESOLVE_SE`] standard errors away from 0.
fn step_verdict(before: &[f64], after: &[f64]) -> Step {
    let diffs: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let n = diffs.len() as f64;
    let mean = diffs.iter().sum::<f64>() / n;
    let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let se = (var / n).sqrt();
    if mean - RESOLVE_SE * se > 0.0 {
        Step::Rises
    } else if mean + RESOLVE_SE * se < 0.0 {
        Step::Falls
    } else {
        Step::Unresolved
    }
}

/// How the simulated no-checkpoint loss per interruption moves with MTBF,
/// step by step: `trials[k]` holds MTBF `mtbfs[k]`'s per-trial losses,
/// paired across MTBFs. A step says "rises" (or "falls") only where it
/// resolves; the steps that do not are named.
fn no_checkpoint_note(mtbfs: &[&str], trials: &[Vec<f64>]) -> String {
    let verdicts: Vec<Step> = trials
        .windows(2)
        .map(|pair| step_verdict(&pair[0], &pair[1]))
        .collect();
    let named = |verdict: Step| -> Vec<String> {
        (0..verdicts.len())
            .filter(|&k| verdicts[k] == verdict)
            .map(|k| format!("{} → {}", mtbfs[k], mtbfs[k + 1]))
            .collect()
    };
    let verdict = if verdicts.iter().all(|&v| v == Step::Rises) {
        "rises at every step".to_string()
    } else {
        [
            ("rises", Step::Rises),
            ("falls", Step::Falls),
            ("does not resolve", Step::Unresolved),
        ]
        .into_iter()
        .map(|(word, v)| (word, named(v)))
        .filter(|(_, steps)| !steps.is_empty())
        .map(|(word, steps)| format!("{word} at {}", steps.join(", ")))
        .collect::<Vec<_>>()
        .join("; ")
    };
    format!(
        "simulated lost work per interruption without checkpointing, MTBF step by \
         step on {} paired trials (a step resolves when its mean paired difference is \
         more than {RESOLVE_SE} standard errors from 0): {verdict}",
        trials[0].len(),
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
        // The first note judges every MTBF step: all at once, or each by
        // name under its verdict.
        let every = t.notes[0].ends_with("rises at every step");
        for pair in t.rows.windows(2) {
            let step = format!("{} → {}", pair[0][0], pair[1][0]);
            assert_eq!(t.notes[0].contains(&step), !every, "{}", t.notes[0]);
        }
        let none = seconds(&t.rows, 2);
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

    #[test]
    fn a_step_resolves_only_on_its_paired_differences() {
        let base: Vec<f64> = (0..20).map(|t| 100.0 * t as f64).collect();
        let shifted = |d: f64| base.iter().map(|b| b + d).collect::<Vec<_>>();
        // Trial-to-trial spread is 100× the shift, but the shift is the
        // same in every pair: the step resolves either way.
        let up = shifted(1.0);
        assert_eq!(step_verdict(&base, &up), Step::Rises);
        assert_eq!(step_verdict(&up, &base), Step::Falls);
        // Differences of ±1 that cancel, and a mean within 2 standard
        // errors: unresolved, though the means differ.
        let jitter = |v: &[f64]| -> Vec<f64> {
            v.iter()
                .enumerate()
                .map(|(t, x)| x + if t % 2 == 0 { 1.0 } else { -0.9 })
                .collect()
        };
        assert_eq!(step_verdict(&base, &jitter(&base)), Step::Unresolved);

        let mtbfs = ["1.00 h", "2.00 h", "4.00 h"];
        let note = no_checkpoint_note(&mtbfs, &[base.clone(), up.clone(), shifted(2.0)]);
        assert!(note.ends_with(": rises at every step"), "{note}");
        assert!(note.contains("on 20 paired trials"), "{note}");
        let note = no_checkpoint_note(&mtbfs, &[base, up.clone(), jitter(&up)]);
        assert!(
            note.ends_with(": rises at 1.00 h → 2.00 h; does not resolve at 2.00 h → 4.00 h"),
            "{note}"
        );
    }
}

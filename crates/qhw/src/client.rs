//! Training-job replay: time-to-solution under failures, with and without
//! checkpointing.
//!
//! The simulator advances a single hybrid training job through sessions on
//! a cloud QPU. A session begins after a sampled queue wait, runs optimizer
//! steps back to back, and ends on a Poisson failure or a TTL preemption.
//! Without checkpointing, every interruption restarts the job from step 0;
//! with checkpointing, progress resumes from the last persisted step at the
//! cost of periodic writes and a restore on re-entry. Checkpoint write and
//! restore costs are *inputs* here — the evaluation harness measures them on
//! the real `qcheck` implementation and feeds them in, so only the waiting
//! is simulated (see the root README, "Evaluation", substitutions).

use qsim::rng::Xoshiro256;
use serde::{Deserialize, Serialize};

use crate::event::SimTime;
use crate::queue::WaitModel;

/// Static description of the training job.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Optimizer steps to complete.
    pub total_steps: u64,
    /// Wall-clock cost of one step (circuit evals + classical update).
    pub step_cost: SimTime,
}

/// Checkpointing behaviour of the job.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CheckpointStrategy {
    /// No checkpointing: interruptions restart from step 0.
    None,
    /// Checkpoint every `interval_steps`, paying `write_cost` per
    /// checkpoint and `restore_cost` on every resume.
    Periodic {
        /// Steps between checkpoints.
        interval_steps: u64,
        /// Cost of writing one checkpoint.
        write_cost: SimTime,
        /// Cost of restoring after an interruption.
        restore_cost: SimTime,
    },
}

impl CheckpointStrategy {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `interval_steps == 0`.
    pub fn periodic(interval_steps: u64, write_cost: SimTime, restore_cost: SimTime) -> Self {
        assert!(interval_steps > 0, "interval must be positive");
        CheckpointStrategy::Periodic {
            interval_steps,
            write_cost,
            restore_cost,
        }
    }
}

/// The execution environment the job runs against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Environment {
    /// Queue-wait model applied at every (re)submission.
    pub queue: WaitModel,
    /// Mean time between in-session failures (exponential); `None` = no
    /// failures.
    pub mtbf: Option<SimTime>,
    /// Session time-to-live (preemption); `None` = unlimited sessions.
    pub session_ttl: Option<SimTime>,
}

/// Outcome of one simulated run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Total wall clock from submission to completion.
    pub makespan: SimTime,
    /// Time spent on steps whose progress *persisted* (rolled-back step
    /// time is accounted under `lost_work` instead).
    pub useful_work: SimTime,
    /// Step time lost to interruptions (recomputed work).
    pub lost_work: SimTime,
    /// Time spent writing checkpoints.
    pub checkpoint_overhead: SimTime,
    /// Time spent restoring from checkpoints.
    pub restore_overhead: SimTime,
    /// Time spent waiting in queues.
    pub queue_time: SimTime,
    /// Interruptions (failures + preemptions).
    pub interruptions: u64,
    /// Checkpoints written.
    pub checkpoints_written: u64,
    /// Whether the run hit the interruption cap and was abandoned.
    pub aborted: bool,
}

impl RunOutcome {
    /// Fraction of makespan that was useful work.
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        self.useful_work as f64 / self.makespan as f64
    }
}

/// Hard cap on interruptions before declaring the run unfinishable.
const MAX_INTERRUPTIONS: u64 = 200_000;

fn sample_exp(mean: SimTime, rng: &mut Xoshiro256) -> SimTime {
    let u = rng.uniform(f64::MIN_POSITIVE, 1.0);
    (-(mean as f64) * u.ln()).clamp(1.0, 1e16) as SimTime
}

/// Simulates one run of `spec` under `strategy` in `env`.
///
/// Deterministic given the RNG state.
pub fn simulate_run(
    spec: &JobSpec,
    strategy: &CheckpointStrategy,
    env: &Environment,
    rng: &mut Xoshiro256,
) -> RunOutcome {
    let mut out = RunOutcome::default();
    let mut now: SimTime = 0;
    // Steps durably completed (persisted via checkpoint, or 0 without one).
    let mut persisted_steps: u64 = 0;
    let mut first_session = true;

    'sessions: loop {
        // (Re)enter the queue.
        let wait = env.queue.sample(rng);
        now += wait;
        out.queue_time += wait;

        // Pay restore cost when resuming from a checkpoint.
        if !first_session {
            if let CheckpointStrategy::Periodic { restore_cost, .. } = strategy {
                if persisted_steps > 0 {
                    now += restore_cost;
                    out.restore_overhead += restore_cost;
                }
            }
        }
        first_session = false;

        // How long does this session last? A failure and TTL preemption
        // both cap it; the earlier wins.
        let failure_in = env.mtbf.map(|m| sample_exp(m, rng));
        let session_end = failure_in
            .into_iter()
            .chain(env.session_ttl)
            .min()
            .map(|len| now + len);

        // Run steps within the session.
        let mut in_session_steps = persisted_steps;
        let mut since_ckpt: SimTime = 0; // unpersisted step time this session
        loop {
            if in_session_steps >= spec.total_steps {
                out.makespan = now;
                return out;
            }
            // Cost of the next unit of progress: one step, plus a
            // checkpoint write if one falls due after it.
            let mut cost = spec.step_cost;
            let mut writes_ckpt = false;
            if let CheckpointStrategy::Periodic {
                interval_steps,
                write_cost,
                ..
            } = strategy
            {
                if (in_session_steps + 1).is_multiple_of(*interval_steps) {
                    cost += write_cost;
                    writes_ckpt = true;
                }
            }
            if let Some(end) = session_end {
                if now + cost > end {
                    // Interrupted before this unit completes. Step time
                    // executed since the last persisted point moves from
                    // `useful_work` to `lost_work`.
                    now = end;
                    out.interruptions += 1;
                    if matches!(strategy, CheckpointStrategy::None) {
                        // Everything since step 0 is lost (persisted_steps
                        // tracks all completed steps, this session's
                        // included).
                        out.lost_work += persisted_steps * spec.step_cost;
                        out.useful_work -= persisted_steps * spec.step_cost;
                        persisted_steps = 0;
                    } else {
                        out.lost_work += since_ckpt;
                        out.useful_work -= since_ckpt;
                    }
                    if out.interruptions >= MAX_INTERRUPTIONS {
                        out.aborted = true;
                        out.makespan = now;
                        return out;
                    }
                    continue 'sessions;
                }
            }
            now += cost;
            in_session_steps += 1;
            out.useful_work += spec.step_cost;
            since_ckpt += spec.step_cost;
            if writes_ckpt {
                out.checkpoints_written += 1;
                out.checkpoint_overhead += cost - spec.step_cost;
                persisted_steps = in_session_steps;
                since_ckpt = 0;
            } else if matches!(strategy, CheckpointStrategy::None) {
                // Without checkpointing nothing persists; `persisted_steps`
                // tracks in-session progress so completion can still happen.
                persisted_steps = in_session_steps;
            }
        }
    }
}

/// The random streams of a replay seeded with `seed`, one per trial:
/// trial `t` draws from the `t`-th split of `Xoshiro256::seed_from(seed)`.
///
/// Replays that share a seed are paired (common random numbers): trial
/// `t` sees the same draws under every strategy, interval and failure
/// rate, and [`simulate_run`] draws each session's queue wait and failure
/// time in a fixed order, so a difference between two rows is the
/// strategies' difference, not a different failure trace.
pub fn trial_streams(seed: u64) -> impl Iterator<Item = Xoshiro256> {
    let mut root = Xoshiro256::seed_from(seed);
    std::iter::repeat_with(move || root.split())
}

/// Averages `trials` runs on the streams of [`trial_streams`]`(seed)`
/// (mean makespan, mean efficiency, abort count).
pub fn mean_outcome(
    spec: &JobSpec,
    strategy: &CheckpointStrategy,
    env: &Environment,
    trials: u32,
    seed: u64,
) -> (f64, f64, u32) {
    assert!(trials > 0, "need at least one trial");
    let mut makespan = 0.0;
    let mut eff = 0.0;
    let mut aborts = 0;
    for mut rng in trial_streams(seed).take(trials as usize) {
        let o = simulate_run(spec, strategy, env, &mut rng);
        makespan += o.makespan as f64;
        eff += o.efficiency();
        if o.aborted {
            aborts += 1;
        }
    }
    (makespan / trials as f64, eff / trials as f64, aborts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MINUTE, SECOND};

    fn spec() -> JobSpec {
        JobSpec {
            total_steps: 100,
            step_cost: SECOND,
        }
    }

    #[test]
    fn failure_free_run_is_exact() {
        let env = Environment {
            queue: WaitModel::Constant { wait: 10 * SECOND },
            mtbf: None,
            session_ttl: None,
        };
        let mut rng = Xoshiro256::seed_from(1);
        let o = simulate_run(&spec(), &CheckpointStrategy::None, &env, &mut rng);
        assert_eq!(o.makespan, 10 * SECOND + 100 * SECOND);
        assert_eq!(o.useful_work, 100 * SECOND);
        assert_eq!(o.lost_work, 0);
        assert_eq!(o.interruptions, 0);
        assert!(!o.aborted);
    }

    #[test]
    fn checkpoint_writes_are_counted() {
        let env = Environment {
            queue: WaitModel::Constant { wait: 0 },
            mtbf: None,
            session_ttl: None,
        };
        let strategy = CheckpointStrategy::periodic(10, SECOND / 2, 2 * SECOND);
        let mut rng = Xoshiro256::seed_from(2);
        let o = simulate_run(&spec(), &strategy, &env, &mut rng);
        assert_eq!(o.checkpoints_written, 10);
        assert_eq!(o.checkpoint_overhead, 10 * (SECOND / 2));
        assert_eq!(o.makespan, 100 * SECOND + 5 * SECOND);
    }

    #[test]
    fn checkpointing_beats_no_checkpoint_under_failures() {
        let env = Environment {
            queue: WaitModel::Constant { wait: 30 * SECOND },
            mtbf: Some(40 * SECOND),
            session_ttl: None,
        };
        let strategy = CheckpointStrategy::periodic(5, SECOND / 10, SECOND);
        let (with_ckpt, _, a1) = mean_outcome(&spec(), &strategy, &env, 40, 3);
        let (without, _, a2) = mean_outcome(&spec(), &CheckpointStrategy::None, &env, 40, 3);
        assert_eq!(a1 + a2, 0, "runs aborted");
        assert!(
            with_ckpt * 1.5 < without,
            "ckpt {with_ckpt} vs none {without}"
        );
    }

    #[test]
    fn no_checkpoint_restarts_lose_all_progress() {
        // Session TTL shorter than the job: without checkpointing the job
        // can never finish within the interruption cap unless each session
        // completes it whole; with TTL = 50 steps and job = 100 steps it
        // aborts.
        let env = Environment {
            queue: WaitModel::Constant { wait: 0 },
            mtbf: None,
            session_ttl: Some(50 * SECOND),
        };
        let mut rng = Xoshiro256::seed_from(4);
        let o = simulate_run(&spec(), &CheckpointStrategy::None, &env, &mut rng);
        assert!(o.aborted, "must abort: sessions too short to ever finish");

        // With checkpointing every 10 steps it finishes fine.
        let strategy = CheckpointStrategy::periodic(10, 0, 0);
        let o = simulate_run(&spec(), &strategy, &env, &mut rng);
        assert!(!o.aborted);
        assert!(o.interruptions >= 1);
    }

    #[test]
    fn lost_work_is_bounded_by_interval_with_checkpointing() {
        let env = Environment {
            queue: WaitModel::Constant { wait: SECOND },
            mtbf: Some(20 * SECOND),
            session_ttl: None,
        };
        let strategy = CheckpointStrategy::periodic(5, 0, 0);
        let mut rng = Xoshiro256::seed_from(5);
        let o = simulate_run(&spec(), &strategy, &env, &mut rng);
        assert!(!o.aborted);
        // Every interruption loses < interval of work.
        assert!(
            o.lost_work <= o.interruptions * 5 * SECOND,
            "lost {} over {} interruptions",
            o.lost_work,
            o.interruptions
        );
    }

    #[test]
    fn queue_time_dominates_when_waits_are_long() {
        let env = Environment {
            queue: WaitModel::Constant { wait: 10 * MINUTE },
            mtbf: Some(30 * SECOND),
            session_ttl: None,
        };
        let strategy = CheckpointStrategy::periodic(1, 0, 0);
        let mut rng = Xoshiro256::seed_from(6);
        let o = simulate_run(&spec(), &strategy, &env, &mut rng);
        assert!(!o.aborted);
        assert!(o.queue_time > o.useful_work);
        assert!(o.efficiency() < 0.5);
    }

    #[test]
    fn determinism_given_seed() {
        let env = Environment {
            queue: WaitModel::LogNormal {
                median_s: 60.0,
                sigma: 1.0,
            },
            mtbf: Some(90 * SECOND),
            session_ttl: Some(5 * MINUTE),
        };
        let strategy = CheckpointStrategy::periodic(7, SECOND / 4, SECOND);
        let o1 = simulate_run(&spec(), &strategy, &env, &mut Xoshiro256::seed_from(7));
        let o2 = simulate_run(&spec(), &strategy, &env, &mut Xoshiro256::seed_from(7));
        assert_eq!(o1, o2);
    }

    #[test]
    fn efficiency_is_one_for_instant_queue_no_failures() {
        let env = Environment {
            queue: WaitModel::Constant { wait: 0 },
            mtbf: None,
            session_ttl: None,
        };
        let mut rng = Xoshiro256::seed_from(8);
        let o = simulate_run(&spec(), &CheckpointStrategy::None, &env, &mut rng);
        assert!((o.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        CheckpointStrategy::periodic(0, 1, 1);
    }
}

//! Checkpoint-interval policies.
//!
//! When to checkpoint is a cost trade-off: checkpoint too often and the
//! overhead dominates; too rarely and every failure loses a long stretch of
//! work. The classical first-order optimum is the Young/Daly interval
//! `τ* = √(2·C·M)` for checkpoint cost `C` and mean time between failures
//! `M` (Young 1974, Daly 2006). The [`math`] module carries the model
//! functions the evaluation plots against measurements (experiments R-F1 and
//! R-F3); the [`CheckpointPolicy`] implementations drive the live training
//! loop.

use serde::{Deserialize, Serialize};

/// Observation window handed to a policy on every step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyContext {
    /// Current optimizer step (0-based; `should_checkpoint` is asked after
    /// the step completes).
    pub step: u64,
    /// Wall-clock milliseconds since training (re)started.
    pub now_ms: u64,
    /// Step at which the last checkpoint was taken (`None` before the
    /// first).
    pub last_checkpoint_step: Option<u64>,
    /// Wall-clock of the last checkpoint.
    pub last_checkpoint_ms: Option<u64>,
    /// Exponentially weighted time recent checkpoints blocked the
    /// training thread (capture + hand-off + any wait for the previous
    /// save), ms — the cost `C` a policy should weigh, since the save
    /// itself overlaps training.
    pub observed_checkpoint_cost_ms: f64,
}

/// A strategy deciding when a checkpoint should be written.
pub trait CheckpointPolicy: std::fmt::Debug {
    /// Returns `true` when a checkpoint should be taken now.
    fn should_checkpoint(&mut self, ctx: &PolicyContext) -> bool;

    /// Human-readable policy name for logs and reports.
    fn name(&self) -> &'static str;
}

/// Checkpoint every `k` optimizer steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EveryKSteps {
    /// Interval in steps; must be ≥ 1.
    pub k: u64,
}

impl EveryKSteps {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u64) -> Self {
        assert!(k > 0, "interval must be at least one step");
        EveryKSteps { k }
    }
}

impl CheckpointPolicy for EveryKSteps {
    fn should_checkpoint(&mut self, ctx: &PolicyContext) -> bool {
        // `ctx.step` counts *completed* steps (1-based after the first),
        // so the policy fires at steps k, 2k, 3k, …
        ctx.step
            .saturating_sub(ctx.last_checkpoint_step.unwrap_or(0))
            >= self.k
    }

    fn name(&self) -> &'static str {
        "every-k-steps"
    }
}

/// Young–Daly policy: wall-clock interval `√(2·C·M)` with a fixed assumed
/// MTBF and the *measured* checkpoint cost from the context.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct YoungDaly {
    /// Assumed mean time between failures, milliseconds.
    pub mtbf_ms: f64,
    /// Fallback checkpoint cost before any has been observed, ms.
    pub initial_cost_ms: f64,
    /// Lower clamp on the interval (avoid re-checkpointing every step when
    /// C is tiny), ms.
    pub min_interval_ms: f64,
}

impl YoungDaly {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics on non-positive MTBF.
    pub fn new(mtbf_ms: f64, initial_cost_ms: f64) -> Self {
        assert!(mtbf_ms > 0.0, "MTBF must be positive");
        YoungDaly {
            mtbf_ms,
            initial_cost_ms: initial_cost_ms.max(0.1),
            min_interval_ms: 1.0,
        }
    }

    /// The interval currently in force given an observed cost.
    pub fn interval_ms(&self, observed_cost_ms: f64) -> f64 {
        let c = if observed_cost_ms > 0.0 {
            observed_cost_ms
        } else {
            self.initial_cost_ms
        };
        math::young_daly_interval(c, self.mtbf_ms).max(self.min_interval_ms)
    }
}

impl CheckpointPolicy for YoungDaly {
    fn should_checkpoint(&mut self, ctx: &PolicyContext) -> bool {
        let interval = self.interval_ms(ctx.observed_checkpoint_cost_ms);
        let last = ctx.last_checkpoint_ms.unwrap_or(0);
        (ctx.now_ms.saturating_sub(last) as f64) >= interval
    }

    fn name(&self) -> &'static str {
        "young-daly"
    }
}

/// Analytic checkpoint/restart models (Young 1974; Daly 2006).
pub mod math {
    /// First-order optimal checkpoint interval `τ* = √(2·C·M)`.
    ///
    /// Units are caller-chosen but must be consistent.
    pub fn young_daly_interval(checkpoint_cost: f64, mtbf: f64) -> f64 {
        (2.0 * checkpoint_cost.max(0.0) * mtbf.max(0.0)).sqrt()
    }

    /// Expected fraction of runtime spent on checkpoint overhead + rework
    /// when checkpointing every `tau` with cost `c`, restart cost `r`, MTBF
    /// `m` (first-order model):
    ///
    /// `overhead(τ) = c/τ + (τ/2 + r)/m`
    ///
    /// The first term is the write overhead, the second the expected rework
    /// plus restart per unit time.
    pub fn expected_overhead_fraction(tau: f64, c: f64, r: f64, m: f64) -> f64 {
        assert!(tau > 0.0 && m > 0.0, "tau and MTBF must be positive");
        c / tau + (tau / 2.0 + r) / m
    }

    /// Expected *useful-work* lost per failure without checkpointing: the
    /// job restarts from scratch, so on average `elapsed/2` is lost plus the
    /// full restart cost (queue re-entry).
    pub fn expected_lost_work_no_checkpoint(run_length: f64, restart_cost: f64) -> f64 {
        run_length / 2.0 + restart_cost
    }

    /// Expected useful-work lost per failure with interval-τ checkpointing:
    /// half an interval of rework plus restore + queue re-entry.
    pub fn expected_lost_work_with_checkpoint(tau: f64, restore_cost: f64) -> f64 {
        tau / 2.0 + restore_cost
    }

    /// Expected wall-clock to finish `work` units given MTBF `m`, restart
    /// cost `r`, checkpoint interval `tau` and cost `c` (0 ⇒ no
    /// checkpointing; the job must complete a full failure-free run).
    ///
    /// With checkpointing, uses the first-order overhead model. Without, it
    /// uses the classical memoryless-restart expectation
    /// `E[T] = (e^{work/m} − 1)·(m + r)` — exponential in job length, which
    /// is the motivation figure's no-checkpoint curve.
    pub fn expected_makespan(work: f64, m: f64, r: f64, tau: f64, c: f64) -> f64 {
        assert!(work >= 0.0 && m > 0.0, "work and MTBF must be valid");
        if tau <= 0.0 {
            return ((work / m).exp() - 1.0) * (m + r);
        }
        let overhead = expected_overhead_fraction(tau, c, r, m);
        work * (1.0 + overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(step: u64, now_ms: u64, last_step: Option<u64>, last_ms: Option<u64>) -> PolicyContext {
        PolicyContext {
            step,
            now_ms,
            last_checkpoint_step: last_step,
            last_checkpoint_ms: last_ms,
            observed_checkpoint_cost_ms: 50.0,
        }
    }

    #[test]
    fn every_k_fires_on_schedule() {
        let mut p = EveryKSteps::new(10);
        assert!(!p.should_checkpoint(&ctx(5, 0, None, None)));
        assert!(!p.should_checkpoint(&ctx(9, 0, None, None)));
        assert!(p.should_checkpoint(&ctx(10, 0, None, None)));
        assert!(!p.should_checkpoint(&ctx(15, 0, Some(10), None)));
        assert!(!p.should_checkpoint(&ctx(19, 0, Some(10), None)));
        assert!(p.should_checkpoint(&ctx(20, 0, Some(10), None)));
    }

    #[test]
    #[should_panic(expected = "interval must be at least one step")]
    fn every_k_zero_rejected() {
        EveryKSteps::new(0);
    }

    #[test]
    fn young_daly_interval_math() {
        // τ* = sqrt(2 * 50 * 10_000) = 1000.
        assert!((math::young_daly_interval(50.0, 10_000.0) - 1000.0).abs() < 1e-9);
        assert_eq!(math::young_daly_interval(0.0, 100.0), 0.0);
    }

    #[test]
    fn young_daly_policy_uses_observed_cost() {
        let mut p = YoungDaly::new(10_000.0, 50.0);
        // With observed cost 50 ms → interval 1000 ms.
        assert!(!p.should_checkpoint(&ctx(0, 999, None, Some(0))));
        assert!(p.should_checkpoint(&ctx(0, 1000, None, Some(0))));
        // Interval scales with cost.
        assert!(p.interval_ms(200.0) > p.interval_ms(50.0));
    }

    #[test]
    fn overhead_is_u_shaped_with_minimum_near_optimum() {
        let c = 50.0;
        let r = 500.0;
        let m = 100_000.0;
        let opt = math::young_daly_interval(c, m);
        let at_opt = math::expected_overhead_fraction(opt, c, r, m);
        for tau in [opt / 8.0, opt / 2.0, opt * 2.0, opt * 8.0] {
            assert!(
                math::expected_overhead_fraction(tau, c, r, m) > at_opt,
                "tau {tau} beat the optimum"
            );
        }
    }

    #[test]
    fn lost_work_models() {
        assert_eq!(math::expected_lost_work_no_checkpoint(1000.0, 50.0), 550.0);
        assert_eq!(math::expected_lost_work_with_checkpoint(100.0, 50.0), 100.0);
        // Checkpointing wins whenever τ << run length.
        assert!(
            math::expected_lost_work_with_checkpoint(100.0, 50.0)
                < math::expected_lost_work_no_checkpoint(1000.0, 50.0)
        );
    }

    #[test]
    fn makespan_no_checkpoint_explodes_for_long_jobs() {
        let m = 1000.0;
        let short = math::expected_makespan(100.0, m, 10.0, 0.0, 0.0);
        let long = math::expected_makespan(5000.0, m, 10.0, 0.0, 0.0);
        assert!(long / short > 50.0, "no-ckpt makespan must blow up");
        // With checkpointing the growth is ~linear.
        let short_c = math::expected_makespan(100.0, m, 10.0, 44.7, 1.0);
        let long_c = math::expected_makespan(5000.0, m, 10.0, 44.7, 1.0);
        assert!((long_c / short_c - 50.0).abs() < 1.0);
    }

    #[test]
    fn policy_names() {
        assert_eq!(EveryKSteps::new(1).name(), "every-k-steps");
        assert_eq!(YoungDaly::new(1.0, 1.0).name(), "young-daly");
    }
}

//! Property-based tests for the cloud-execution simulator.

use proptest::prelude::*;

use qhw::client::{simulate_run, CheckpointStrategy, Environment, JobSpec};
use qhw::event::SECOND;
use qhw::queue::WaitModel;
use qsim::rng::Xoshiro256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The run-outcome time accounting balances: the makespan covers queue
    /// time, persisted work, lost work, checkpoint and restore overheads
    /// (plus unattributed partial-step remainders, which are bounded by one
    /// step+write unit per interruption).
    #[test]
    fn outcome_accounting_balances(
        seed in any::<u64>(),
        total_steps in 1u64..200,
        mtbf_s in 5u64..500,
        interval in 1u64..20,
        wait_s in 0u64..60,
    ) {
        let spec = JobSpec {
            total_steps,
            step_cost: SECOND,
        };
        let env = Environment {
            queue: WaitModel::Constant { wait: wait_s * SECOND },
            mtbf: Some(mtbf_s * SECOND),
            session_ttl: None,
        };
        let strategy = CheckpointStrategy::periodic(interval, SECOND / 10, SECOND / 2);
        let mut rng = Xoshiro256::seed_from(seed);
        let o = simulate_run(&spec, &strategy, &env, &mut rng);
        if o.aborted {
            return Ok(());
        }
        // Completed: persisted work equals the job exactly.
        prop_assert_eq!(o.useful_work, total_steps * SECOND);
        let attributed = o.queue_time
            + o.useful_work
            + o.lost_work
            + o.checkpoint_overhead
            + o.restore_overhead;
        prop_assert!(o.makespan >= attributed.saturating_sub(1));
        // Unattributed time (partial in-flight steps at interruptions) is
        // bounded by one step+write per interruption.
        let slack = o.interruptions * (SECOND + SECOND / 10);
        prop_assert!(
            o.makespan <= attributed + slack,
            "makespan {} attributed {} slack {}",
            o.makespan, attributed, slack
        );
        // Lost work is bounded by interruptions × interval.
        prop_assert!(o.lost_work <= o.interruptions * interval * SECOND);
        prop_assert!(o.efficiency() <= 1.0 + 1e-12);
    }

    /// With checkpointing and any failure rate, makespan never beats the
    /// ideal failure-free time.
    #[test]
    fn makespan_is_bounded_below_by_ideal(
        seed in any::<u64>(),
        total_steps in 1u64..100,
        mtbf_s in 10u64..1000,
    ) {
        let spec = JobSpec {
            total_steps,
            step_cost: SECOND,
        };
        let env = Environment {
            queue: WaitModel::Constant { wait: SECOND },
            mtbf: Some(mtbf_s * SECOND),
            session_ttl: None,
        };
        let strategy = CheckpointStrategy::periodic(5, 0, 0);
        let mut rng = Xoshiro256::seed_from(seed);
        let o = simulate_run(&spec, &strategy, &env, &mut rng);
        prop_assert!(o.aborted || o.makespan >= total_steps * SECOND + SECOND);
    }

    /// Queue waits sampled from the log-normal model are finite and
    /// positive.
    #[test]
    fn lognormal_waits_are_sane(seed in any::<u64>(), median in 1.0f64..10_000.0, sigma in 0.0f64..3.0) {
        let m = WaitModel::LogNormal { median_s: median, sigma };
        let mut rng = Xoshiro256::seed_from(seed);
        for _ in 0..50 {
            let w = m.sample(&mut rng);
            prop_assert!(w >= 1);
            prop_assert!(w <= 30 * 24 * 3600 * 1_000_000);
        }
    }

    /// Identical seeds produce identical outcomes (full determinism).
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>()) {
        let spec = JobSpec {
            total_steps: 50,
            step_cost: SECOND,
        };
        let env = Environment {
            queue: WaitModel::LogNormal { median_s: 30.0, sigma: 1.0 },
            mtbf: Some(40 * SECOND),
            session_ttl: Some(120 * SECOND),
        };
        let strategy = CheckpointStrategy::periodic(7, SECOND / 4, SECOND);
        let a = simulate_run(&spec, &strategy, &env, &mut Xoshiro256::seed_from(seed));
        let b = simulate_run(&spec, &strategy, &env, &mut Xoshiro256::seed_from(seed));
        prop_assert_eq!(a, b);
    }
}

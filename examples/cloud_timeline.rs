//! Cloud-execution timeline: replay the same training job through the
//! simulated NISQ cloud with and without checkpointing and compare
//! time-to-solution across failure regimes.
//!
//! ```bash
//! cargo run --example cloud_timeline
//! ```

use qnn_checkpoint::qcheck::policy::math;
use qnn_checkpoint::qhw::client::{mean_outcome, CheckpointStrategy, Environment, JobSpec};
use qnn_checkpoint::qhw::event::{HOUR, MINUTE, SECOND};
use qnn_checkpoint::qhw::queue::WaitModel;

fn main() {
    // A week-scale job: 5000 steps × 20 s ≈ 28 h of pure compute, run on a
    // shared device with 5-minute median queue waits.
    let spec = JobSpec {
        total_steps: 5000,
        step_cost: 20 * SECOND,
    };
    let queue = WaitModel::LogNormal {
        median_s: 300.0,
        sigma: 1.2,
    };
    let write_cost = 2 * SECOND;
    let restore_cost = 10 * SECOND;
    let trials = 25;

    println!(
        "job: {} steps × {} s (ideal {:.1} h), lognormal queue median 5 min",
        spec.total_steps,
        spec.step_cost / SECOND,
        (spec.total_steps * spec.step_cost) as f64 / HOUR as f64
    );
    println!("\nmtbf     no-ckpt           young-daly          yd-interval");
    // Every row replays the same 25 trials' failure traces (seed 11), so
    // the two strategies, and the MTBFs, compare paired.
    for mtbf_h in [1.0f64, 2.0, 4.0, 8.0, 24.0] {
        let mtbf = (mtbf_h * HOUR as f64) as u64;
        let env = Environment {
            queue,
            mtbf: Some(mtbf),
            session_ttl: Some(4 * HOUR), // sessions also expire
        };
        let tau = math::young_daly_interval(write_cost as f64, mtbf as f64);
        let interval = ((tau / spec.step_cost as f64).round() as u64).max(1);
        let strategy = CheckpointStrategy::periodic(interval, write_cost, restore_cost);

        let (none_mk, _none_eff, none_aborts) =
            mean_outcome(&spec, &CheckpointStrategy::None, &env, trials, 11);
        let (yd_mk, yd_eff, _) = mean_outcome(&spec, &strategy, &env, trials, 11);

        let fmt_h = |us: f64| format!("{:>7.1} h", us / HOUR as f64);
        // A 4 h session TTL makes a 28 h job impossible without
        // checkpointing: every trial hits the interruption cap.
        let none_cell = if none_aborts == trials {
            "never finishes ".to_string()
        } else {
            format!("{} ", fmt_h(none_mk))
        };
        println!(
            "{:>4.0} h   {:<16}  {} ({:>4.1}%)   {} steps ({:.0} min)",
            mtbf_h,
            none_cell,
            fmt_h(yd_mk),
            yd_eff * 100.0,
            interval,
            interval as f64 * spec.step_cost as f64 / MINUTE as f64,
        );
    }
    println!("\nSession TTL of 4 h means even a failure-free device interrupts the job:");
    println!("without checkpointing the job only finishes if a single session covers it.");
}

//! # qhw — simulated NISQ cloud execution
//!
//! The hardware substrate the reproduction does not have: a replay of a
//! hybrid training job on a shared cloud quantum device. It captures the
//! two phenomena the paper's motivation rests on — heavy-tailed **queue
//! waits** and Poisson **failures** / session **preemptions** — and
//! replays an N-step training job against them with or without
//! checkpointing. Every draw comes from [`qsim::rng::Xoshiro256`], so a
//! replay is deterministic given its seed.
//!
//! Checkpoint write/restore costs are inputs (measured on the real
//! [`qcheck`](https://docs.rs) implementation by the benchmark harness);
//! only the *waiting* and the *interruption semantics* are simulated.
//!
//! ```
//! use qhw::client::{simulate_run, CheckpointStrategy, Environment, JobSpec};
//! use qhw::event::SECOND;
//! use qhw::queue::WaitModel;
//! use qsim::rng::Xoshiro256;
//!
//! let spec = JobSpec { total_steps: 50, step_cost: SECOND };
//! let env = Environment {
//!     queue: WaitModel::Constant { wait: 10 * SECOND },
//!     mtbf: Some(60 * SECOND),
//!     session_ttl: None,
//! };
//! let mut rng = Xoshiro256::seed_from(1);
//! let outcome = simulate_run(
//!     &spec,
//!     &CheckpointStrategy::periodic(5, SECOND / 10, SECOND),
//!     &env,
//!     &mut rng,
//! );
//! assert!(!outcome.aborted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod event;
pub mod queue;

pub use client::{
    mean_outcome, simulate_run, trial_streams, CheckpointStrategy, Environment, JobSpec, RunOutcome,
};
pub use event::{SimTime, HOUR, MICRO, MILLIS, MINUTE, SECOND};
pub use queue::WaitModel;

//! # qcheck-bench — the evaluation harness
//!
//! Regenerates every table and figure of the reconstructed evaluation
//! (indexed in the root README, "Evaluation"). Each experiment is a
//! library function returning a [`report::Table`] plus a thin binary in
//! `src/bin/`; `run_all` executes the whole suite:
//!
//! ```bash
//! cargo run --release -p qcheck-bench --bin run_all
//! # or one experiment:
//! cargo run --release -p qcheck-bench --bin fig4_time_to_solution
//! ```
//!
//! Set `QCHECK_BENCH_QUICK=1` to shrink sweeps for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workloads;

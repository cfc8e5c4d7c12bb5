//! # qcheck-bench — the evaluation harness
//!
//! Regenerates every table and figure of the reconstructed evaluation
//! (indexed in the root README, "Evaluation"). Each experiment is a
//! library function returning a [`report::Table`]; the `run_all` binary
//! prints the ones it is given, or the whole suite:
//!
//! ```bash
//! cargo run --release -p qcheck-bench --bin run_all
//! # or some experiments:
//! cargo run --release -p qcheck-bench --bin run_all -- fig4 table2
//! ```
//!
//! Set `QCHECK_BENCH_QUICK=1` to shrink sweeps for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workloads;

//! # qnn-checkpoint — facade crate
//!
//! Re-exports the four workspace libraries so downstream users (and the
//! `examples/` and `tests/` in this repository) need a single dependency:
//!
//! * [`qcheck`] — the checkpointing storage engine (the paper's contribution)
//! * [`qsim`] — the deterministic quantum circuit simulator
//! * [`qnn`] — the hybrid quantum-classical training framework
//! * [`qhw`] — the simulated NISQ cloud execution environment
//!
//! See the repository README for the quickstart, the workspace layout
//! and the evaluation index ("Evaluation").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qcheck;
pub use qhw;
pub use qnn;
pub use qsim;

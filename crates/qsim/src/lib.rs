//! # qsim — deterministic state-vector quantum simulator
//!
//! The quantum substrate for the `qnn-checkpoint` project: a small,
//! dependency-light simulator whose every stochastic draw flows through a
//! serializable RNG ([`rng::Xoshiro256`]). That design choice is what makes
//! *exact resume* of hybrid quantum-classical training — the contribution of
//! the reproduced paper — a testable property instead of a hope.
//!
//! ## What's here
//!
//! * [`complex`] — minimal complex arithmetic ([`complex::Complex64`]).
//! * [`rng`] — xoshiro256\*\* with byte-exact state capture.
//! * [`state`] — the `2^n`-amplitude [`state::StateVector`] and gate kernels.
//! * [`gate`] — the serializable gate set and its matrices.
//! * [`circuit`] — parametrized circuits ([`circuit::Circuit`]) as data.
//! * [`plan`] — compiled execution plans ([`plan::ExecPlan`]): compile a
//!   circuit once, bind parameter vectors many times, execute through a
//!   cache-blocked tile schedule with pass-fusion (pure-permutation
//!   gates like CX rings execute as one deferred gather pass;
//!   `QSIM_FUSE=off` forces the per-gate schedule). The one executor
//!   behind [`circuit::Circuit::run_on`] (see `crates/qsim/README.md`).
//! * [`pauli`] — Pauli-string observables ([`pauli::PauliSum`]).
//! * [`measure`] — shot-based estimation ([`measure::EvalMode`]).
//!
//! ## Threading model
//!
//! Gate kernels, expectation values and state reductions run multi-threaded
//! through the shared [`qpar`] layer. The thread count resolves, in order:
//! a [`qpar::with_threads`] scope override, the [`qpar::set_global_threads`]
//! builder value, the `QCHECK_THREADS` environment variable, and finally the
//! hardware parallelism. Three guarantees hold at every thread count:
//!
//! 1. **Bit-exactness** — parallel results are bit-identical to the serial
//!    path. Gate kernels partition the amplitude array into disjoint
//!    pair/quad regions (each update independent); reductions sum over a
//!    *fixed* stripe partition combined in index order, never in thread
//!    completion order (see [`state::SUM_STRIPES`]).
//! 2. **Serial thresholds** — registers below [`state::PARALLEL_MIN_AMPS`]
//!    amplitudes (gates) / [`state::STRIPED_SUM_MIN_AMPS`] (reductions)
//!    always take the serial path, so small circuits never pay scoped-thread
//!    overhead.
//! 3. **Shot streams stay serial** — [`measure`] in [`measure::EvalMode::Shots`]
//!    mode draws from a single sequential RNG stream and is never fanned
//!    out; only exact (RNG-free) evaluation parallelizes.
//!
//! ## Quickstart
//!
//! ```
//! use qsim::circuit::Circuit;
//! use qsim::gate::Gate;
//! use qsim::measure::{evaluate_observable, EvalMode};
//! use qsim::pauli::PauliSum;
//! use qsim::rng::Xoshiro256;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A parametrized two-qubit circuit …
//! let mut circuit = Circuit::new(2);
//! circuit.push_fixed(Gate::H, &[0]);
//! circuit.push_sym(Gate::Ry(0.0), &[1], 0);
//! circuit.push_fixed(Gate::Cx, &[0, 1]);
//!
//! // … evaluated against a transverse-field Ising Hamiltonian with shots.
//! let h = PauliSum::transverse_ising(2, 1.0, 0.5);
//! let state = circuit.run(&[0.3])?;
//! let mut rng = Xoshiro256::seed_from(7);
//! let (energy, shots_used) =
//!     evaluate_observable(&state, &h, EvalMode::Shots(1024), &mut rng)?;
//! assert!(shots_used > 0);
//! assert!(energy.is_finite());
//! # Ok(())
//! # }
//! ```

// Deny rather than forbid: `complex::Complex64::{flatten, flatten_mut}`
// carry the crate's single `#[allow(unsafe_code)]` — a layout-asserted
// reinterpret of `&[Complex64]` as `&[f64]` for the `qsimd` kernels. All
// actual intrinsics live in the `qsimd` shim crate.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod complex;
pub mod gate;
pub mod measure;
pub mod pauli;
pub mod plan;
pub mod rng;
pub mod state;
#[cfg(feature = "testing")]
pub mod testing;

pub use circuit::{Circuit, CircuitError, Op, ParamRef};
pub use complex::Complex64;
pub use gate::Gate;
pub use measure::{evaluate_observable, EvalMode};
pub use pauli::{Pauli, PauliString, PauliSum};
pub use plan::{BoundPlan, ExecPlan};
pub use rng::{RngState, Xoshiro256};
pub use state::{StateError, StateVector};

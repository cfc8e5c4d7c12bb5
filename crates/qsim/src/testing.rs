//! Shared property-test strategies (the `testing` feature).
//!
//! The gate-level strategies here were originally duplicated across the
//! `qsim` and `qnn` property suites; they now live in the library (behind
//! the non-default `testing` feature) so every suite — including `qpar`'s
//! thread-equivalence properties — draws circuits from one definition.

use proptest::prelude::*;

use crate::gate::Gate;
use crate::pauli::PauliSum;
use crate::state::{StateError, StateVector};

/// Strategy: an arbitrary gate applied to valid qubits of an `n`-qubit
/// register. Covers the full single-qubit set (fixed and rotation gates)
/// and the two-qubit set with distinct qubit pairs.
pub fn arb_op(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let angle = -6.0..6.0f64;
    prop_oneof![
        Just(Gate::H).prop_map(|g| (g, ())),
        Just(Gate::X).prop_map(|g| (g, ())),
        Just(Gate::Y).prop_map(|g| (g, ())),
        Just(Gate::Z).prop_map(|g| (g, ())),
        Just(Gate::S).prop_map(|g| (g, ())),
        Just(Gate::T).prop_map(|g| (g, ())),
        angle.clone().prop_map(|t| (Gate::Rx(t), ())),
        angle.clone().prop_map(|t| (Gate::Ry(t), ())),
        angle.clone().prop_map(|t| (Gate::Rz(t), ())),
        angle.clone().prop_map(|t| (Gate::Phase(t), ())),
    ]
    .prop_flat_map(move |(g, ())| (Just(g), 0..n))
    .prop_map(|(g, q)| (g, vec![q]))
    .boxed()
    .prop_union(
        prop_oneof![
            Just(Gate::Cx),
            Just(Gate::Cz),
            Just(Gate::Swap),
            (-6.0..6.0f64).prop_map(Gate::Rzz),
            (-6.0..6.0f64).prop_map(Gate::Rxx),
        ]
        .prop_flat_map(move |g| (Just(g), 0..n, 0..n))
        .prop_filter("distinct qubits", |(_, a, b)| a != b)
        .prop_map(|(g, a, b)| (g, vec![a, b]))
        .boxed(),
    )
}

/// Strategy: a random gate sequence of length `0..max_len` on an
/// `n`-qubit register — the raw material for random-circuit properties.
pub fn arb_ops(n: usize, max_len: usize) -> impl Strategy<Value = Vec<(Gate, Vec<usize>)>> {
    prop::collection::vec(arb_op(n), 0..max_len)
}

/// The apply-and-inner oracle for [`PauliSum::expectation`]:
/// `Σ c·`[`crate::pauli::PauliString::expectation`] in term order, each
/// term a copy of the state with the string applied and an inner product.
///
/// # Errors
///
/// Returns [`StateError::SizeMismatch`] when register widths differ.
pub fn expectation_oracle(h: &PauliSum, state: &StateVector) -> Result<f64, StateError> {
    let mut acc = 0.0;
    for (c, p) in h.terms() {
        acc += c * p.expectation(state)?;
    }
    Ok(acc)
}

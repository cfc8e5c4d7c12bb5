//! Property-based tests for the simulator core.

use proptest::prelude::*;

use qsim::circuit::Circuit;
use qsim::gate::Gate;
use qsim::pauli::{Pauli, PauliString, PauliSum};
use qsim::rng::{RngState, Xoshiro256};
use qsim::state::StateVector;
use qsim::testing::{arb_op, expectation_oracle};

const PAULIS: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

/// A random observable on `n` qubits: 1–30 terms of I/X/Y/Z with random
/// coefficients.
fn arb_observable(n: usize) -> impl Strategy<Value = PauliSum> {
    prop::collection::vec(
        (-2.0..2.0f64, prop::collection::vec(0usize..4, n..n + 1)),
        1..31,
    )
    .prop_map(|terms| {
        PauliSum::from_terms(
            terms
                .into_iter()
                .map(|(c, ps)| {
                    (
                        c,
                        PauliString::new(ps.into_iter().map(|k| PAULIS[k]).collect()),
                    )
                })
                .collect(),
        )
    })
}

/// A state on `n` qubits: `|0…0⟩`, a basis state, a random circuit on a
/// basis state (sparse, with exact zeros), or a random circuit after a layer
/// of random `Ry` rotations (dense, with amplitudes whose sums round).
fn arb_state(n: usize) -> impl Strategy<Value = StateVector> {
    (
        0usize..4,
        0usize..1 << n,
        prop::collection::vec(-3.0..3.0f64, n..n + 1),
        prop::collection::vec(arb_op(n), 0..12),
    )
        .prop_map(move |(kind, index, angles, ops)| {
            let mut state = match kind {
                0 => return StateVector::zero_state(n),
                1 => return StateVector::basis_state(n, index),
                2 => StateVector::basis_state(n, index),
                _ => {
                    let mut s = StateVector::zero_state(n);
                    for (q, theta) in angles.into_iter().enumerate() {
                        s.apply_gate(Gate::Ry(theta), &[q]).unwrap();
                    }
                    s
                }
            };
            for (g, qs) in ops {
                state.apply_gate(g, &qs).unwrap();
            }
            state
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of gates preserves the norm of the state.
    #[test]
    fn random_circuits_preserve_norm(
        ops in prop::collection::vec(arb_op(4), 0..40),
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut state = StateVector::random(4, &mut rng);
        for (g, qs) in ops {
            state.apply_gate(g, &qs).unwrap();
            prop_assert!((state.norm() - 1.0).abs() < 1e-9);
        }
    }

    /// Running a circuit forward then its inverse restores the input state.
    #[test]
    fn circuit_inverse_is_identity(
        ops in prop::collection::vec(arb_op(3), 1..25),
        seed in any::<u64>(),
    ) {
        let mut c = Circuit::new(3);
        for (g, qs) in &ops {
            c.push_fixed(*g, qs);
        }
        let mut rng = Xoshiro256::seed_from(seed);
        let original = StateVector::random(3, &mut rng);
        let mut state = original.clone();
        c.run_on(&mut state, &[]).unwrap();
        c.inverse().run_on(&mut state, &[]).unwrap();
        prop_assert!((state.fidelity(&original).unwrap() - 1.0).abs() < 1e-8);
    }

    /// Fidelity is symmetric and bounded in [0, 1].
    #[test]
    fn fidelity_is_symmetric_and_bounded(sa in any::<u64>(), sb in any::<u64>()) {
        let mut ra = Xoshiro256::seed_from(sa);
        let mut rb = Xoshiro256::seed_from(sb);
        let a = StateVector::random(3, &mut ra);
        let b = StateVector::random(3, &mut rb);
        let fab = a.fidelity(&b).unwrap();
        let fba = b.fidelity(&a).unwrap();
        prop_assert!((fab - fba).abs() < 1e-12);
        prop_assert!((-1e-12..=1.0 + 1e-9).contains(&fab));
    }

    /// The probability distribution of any state sums to one.
    #[test]
    fn probabilities_sum_to_one(
        ops in prop::collection::vec(arb_op(4), 0..30),
    ) {
        let mut state = StateVector::zero_state(4);
        for (g, qs) in ops {
            state.apply_gate(g, &qs).unwrap();
        }
        let total: f64 = state.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// RNG state round-trips through bytes and resumes the identical stream.
    #[test]
    fn rng_state_round_trip(seed in any::<u64>(), skip in 0usize..500) {
        let mut rng = Xoshiro256::seed_from(seed);
        for _ in 0..skip {
            rng.next_u64();
        }
        let st = rng.state();
        let bytes = st.to_bytes();
        let restored = RngState::from_bytes(&bytes).unwrap();
        let mut rng2 = Xoshiro256::from_state(restored);
        for _ in 0..64 {
            prop_assert_eq!(rng.next_u64(), rng2.next_u64());
        }
    }

    /// Pauli expectation values always lie in [-1, 1].
    #[test]
    fn pauli_expectations_bounded(
        ops in prop::collection::vec(arb_op(3), 0..20),
        px in 0usize..4, py in 0usize..4, pz in 0usize..4,
    ) {
        let mut state = StateVector::zero_state(3);
        for (g, qs) in ops {
            state.apply_gate(g, &qs).unwrap();
        }
        let to_pauli = |k: usize| match k {
            0 => Pauli::I,
            1 => Pauli::X,
            2 => Pauli::Y,
            _ => Pauli::Z,
        };
        let ps = PauliString::new(vec![to_pauli(px), to_pauli(py), to_pauli(pz)]);
        let e = ps.expectation(&state).unwrap();
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&e));
    }

    /// The one-pass Pauli-sum expectation equals the apply-and-inner oracle
    /// bit for bit, at every width (the striped sum from 15 qubits up) and
    /// thread count.
    #[test]
    fn pauli_sum_expectation_equals_apply_and_inner(
        (h, state) in (2usize..17).prop_flat_map(|n| (arb_observable(n), arb_state(n))),
    ) {
        let oracle = expectation_oracle(&h, &state).unwrap().to_bits();
        let detected = qsimd::detected();
        for level in [qsimd::Level::Scalar, qsimd::Level::Sse2.min(detected), detected] {
            for threads in [1, 2, 4] {
                let got = qsimd::with_level(level, || {
                    qpar::with_threads(threads, || h.expectation(&state).unwrap())
                });
                prop_assert_eq!(got.to_bits(), oracle, "{:?} threads={} {}", level, threads, h);
            }
        }
    }

    /// Measurement sampling frequencies track Born probabilities.
    #[test]
    fn sampling_tracks_probabilities(seed in any::<u64>()) {
        let mut rng = Xoshiro256::seed_from(seed);
        let state = StateVector::random(2, &mut rng);
        let shots = 20_000usize;
        let counts = state.sample_counts(shots, &mut rng);
        for (idx, c) in counts {
            let f = c as f64 / shots as f64;
            let p = state.probability(idx);
            prop_assert!((f - p).abs() < 0.05, "idx {}: {} vs {}", idx, f, p);
        }
    }

    /// `basis_rotation` + eigenvalue parity reproduces the exact expectation
    /// for arbitrary Pauli strings.
    #[test]
    fn basis_rotation_is_consistent(
        paulis in prop::collection::vec(0usize..4, 3..4),
        seed in any::<u64>(),
    ) {
        let to_pauli = |k: usize| match k {
            0 => Pauli::I,
            1 => Pauli::X,
            2 => Pauli::Y,
            _ => Pauli::Z,
        };
        let ps = PauliString::new(paulis.into_iter().map(to_pauli).collect());
        let mut rng = Xoshiro256::seed_from(seed);
        let state = StateVector::random(ps.num_qubits(), &mut rng);
        let exact = ps.expectation(&state).unwrap();
        let mut rotated = state.clone();
        ps.basis_rotation().run_on(&mut rotated, &[]).unwrap();
        let mut est = 0.0;
        for (idx, amp) in rotated.amplitudes().iter().enumerate() {
            est += amp.norm_sqr() * ps.eigenvalue(idx);
        }
        prop_assert!((exact - est).abs() < 1e-8);
    }
}

//! Property suite: a resumed evaluation is bit-identical to a full run.
//!
//! A [`PrefixCursor`] on the unshifted binding resumes every ±π/2
//! op-shifted binding and every ±δ parameter-perturbed binding of a random
//! circuit; the state it leaves must equal a fresh binding's full `run_on`
//! from the same input, bit for bit. The circuits mix
//! symbolic gates reading a few shared parameters (some scaled, some
//! two-qubit) with fixed-angle gates, and always hold a rotation whose
//! parameter is exactly −π/2, so its +π/2 shift binds the identity and
//! changes fusion. Widths run 2–15: from 14 qubits a state holds more than
//! one 2^13-amplitude tile, so a resume can split a tile block. Every case
//! runs at 1/2/4 threads with pass fusion on and off.

use std::f64::consts::FRAC_PI_2;

use proptest::prelude::*;

use qsim::circuit::{Circuit, CircuitError};
use qsim::gate::Gate;
use qsim::plan::{with_fuse_mode, FuseMode, PrefixCursor};
use qsim::rng::Xoshiro256;
use qsim::testing::arb_op;
use qsim::StateVector;

/// Shared parameters the symbolic gates read; parameter 0 is −π/2.
const PARAMS: usize = 3;

/// A random circuit on 2–15 qubits, its parameter vector and a seed for
/// the input state.
fn arb_resume_case() -> impl Strategy<Value = (Circuit, Vec<f64>, u64)> {
    (2usize..16)
        .prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec((arb_op(n), 0usize..4), 1..24),
                (0..n, 0..n, 0..n),
                prop::collection::vec(-3.0..3.0f64, PARAMS - 1),
                any::<u64>(),
            )
        })
        .prop_map(|(n, ops, (q, a, b), rest, seed)| {
            let mut c = Circuit::new(n);
            // The rotation whose +π/2 shift binds Ry(0) = I.
            c.push_sym(Gate::Ry(0.0), &[q], 0);
            for ((gate, qubits), choice) in ops {
                match choice {
                    0 => c.push_fixed(gate, &qubits),
                    _ if !gate.is_parametrized() => c.push_fixed(gate, &qubits),
                    3 => c.push_sym_scaled(gate, &qubits, choice % PARAMS, -0.5),
                    _ => c.push_sym(gate, &qubits, choice % PARAMS),
                };
            }
            // A parametrised two-qubit gate sharing a parameter.
            if a != b {
                c.push_sym(Gate::Rzz(0.0), &[a, b], 1);
            }
            let mut params = vec![-FRAC_PI_2];
            params.extend(rest);
            (c, params, seed)
        })
}

fn bits(s: &StateVector) -> Vec<(u64, u64)> {
    s.amplitudes()
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Resuming from the shared prefix equals the full run of the shifted
    /// binding, for op shifts and parameter perturbations alike.
    #[test]
    fn resumed_evaluation_equals_full_run((c, params, seed) in arb_resume_case()) {
        let n = c.num_qubits();
        let input = StateVector::random(n, &mut Xoshiro256::seed_from(seed));
        let plan = c.compile().unwrap();
        // Every ±π/2 op shift in op order, then every ±δ parameter
        // perturbation (which sends the cursor back to the input).
        let mut shifts: Vec<(Option<usize>, Vec<f64>, f64)> = Vec::new();
        for (op, _) in c.sym_ops() {
            for delta in [FRAC_PI_2, -FRAC_PI_2] {
                shifts.push((Some(op), params.clone(), delta));
            }
        }
        for k in 0..PARAMS {
            for delta in [1e-3, -1e-3] {
                let mut p = params.clone();
                p[k] += delta;
                shifts.push((None, p, 0.0));
            }
        }
        for fuse in [FuseMode::On, FuseMode::Off] {
            for threads in [1, 2, 4] {
                with_fuse_mode(fuse, || qpar::with_threads(threads, || {
                    let base = plan.bind(&params).unwrap();
                    let mut eval = plan.bind_scratch();
                    let mut cursor = PrefixCursor::new();
                    let mut work = StateVector::zero_state(n);
                    for (op, p, delta) in &shifts {
                        // `eval` is rebound in place; `full` is a fresh binding.
                        let mut full = plan.bind_scratch();
                        for bound in [&mut eval, &mut full] {
                            match op {
                                Some(op) => bound.rebind_shifted(p, *op, *delta).unwrap(),
                                None => bound.rebind(p).unwrap(),
                            }
                        }
                        let skipped = cursor
                            .resume(&base, &eval, &mut work, || {
                                Ok::<_, CircuitError>(input.clone())
                            })
                            .unwrap();
                        prop_assert_eq!(skipped, base.shared_prefix(&eval));
                        let mut expected = input.clone();
                        full.run_on(&mut expected).unwrap();
                        prop_assert!(
                            bits(&work) == bits(&expected),
                            "n={} fuse={:?} threads={} op={:?} delta={} skipped={}",
                            n, fuse, threads, op, delta, skipped
                        );
                    }
                    Ok(())
                }))?;
            }
        }
    }
}

//! Property suite: compiled-plan execution is bit-identical to the
//! op-by-op interpreter.
//!
//! Random circuits (fixed and symbolic gates) × random parameter
//! vectors × 1/2/4/8 threads: `Circuit::compile()` + plan execution must
//! reproduce the interpreter's amplitudes bit for bit, including
//! op-shifted runs. The reference bits always come from the serial
//! interpreter (`Circuit::interpret_on`, one thread).

use proptest::prelude::*;

use qsim::circuit::Circuit;
use qsim::plan::{with_exec_mode, ExecMode};
use qsim::testing::arb_op;
use qsim::StateVector;

const N: usize = 6;

/// Random op sequence where parametrized gates may read a symbolic
/// parameter: `(ops, sym_choices)` zip into a circuit builder.
fn arb_plan_circuit() -> impl Strategy<Value = (Circuit, Vec<f64>)> {
    let ops = prop::collection::vec((arb_op(N), any::<bool>()), 1..24);
    let params = prop::collection::vec(-3.0..3.0f64, 4);
    (ops, params).prop_map(|(ops, params)| {
        let mut c = Circuit::new(N);
        let mut sym = 0usize;
        for ((gate, qubits), make_sym) in ops {
            if make_sym && gate.is_parametrized() {
                c.push_sym(gate, &qubits, sym % params.len());
                sym += 1;
            } else {
                c.push_fixed(gate, &qubits);
            }
        }
        (c, params)
    })
}

fn bits(s: &StateVector) -> Vec<(u64, u64)> {
    s.amplitudes()
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

/// Serial-interpreter reference bits for a (possibly op-shifted) run.
fn reference(c: &Circuit, params: &[f64], shift: Option<(usize, f64)>) -> Vec<(u64, u64)> {
    qpar::with_threads(1, || {
        let mut s = StateVector::zero_state(c.num_qubits());
        c.interpret_on(&mut s, params, shift).unwrap();
        bits(&s)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plan execution reproduces the interpreter bit for bit at every
    /// thread count.
    #[test]
    fn plan_matches_interpreter_across_threads_and_executors(
        (c, params) in arb_plan_circuit(),
    ) {
        let want = reference(&c, &params, None);
        let plan = c.compile().unwrap();
        for threads in [1usize, 2, 4, 8] {
            let got = qpar::with_threads(threads, || bits(&plan.run(&params).unwrap()));
            prop_assert_eq!(&got, &want, "threads={}", threads);
        }
        // The `Circuit::run_on` wrapper (plan-mode dispatch) agrees too.
        let via_wrapper = with_exec_mode(ExecMode::Plan, || {
            qpar::with_threads(2, || bits(&c.run(&params).unwrap()))
        });
        prop_assert_eq!(&via_wrapper, &want);
    }

    /// Op-shifted runs (the parameter-shift primitive) agree bit for
    /// bit: `rebind_shifted` patches the resolved angle at bind time.
    #[test]
    fn shifted_plan_matches_interpreter(
        (c, params) in arb_plan_circuit(),
        delta in -2.0..2.0f64,
        site_pick in any::<prop::sample::Index>(),
    ) {
        let sites = c.sym_ops();
        if sites.is_empty() {
            // Nothing to shift in this sample; trivially true.
            return Ok(());
        }
        let (op_index, _) = sites[site_pick.index(sites.len())];
        let want = reference(&c, &params, Some((op_index, delta)));
        let plan = c.compile().unwrap();
        let mut bound = plan.bind_scratch();
        for threads in [1usize, 4] {
            let got = qpar::with_threads(threads, || {
                bound.rebind_shifted(&params, op_index, delta).unwrap();
                let mut s = StateVector::zero_state(c.num_qubits());
                bound.run_on(&mut s).unwrap();
                bits(&s)
            });
            prop_assert_eq!(&got, &want, "threads={} op={}", threads, op_index);
        }
    }

    /// Binding one plan repeatedly with different parameter vectors is
    /// equivalent to interpreting each vector from scratch (plan reuse —
    /// the training-loop usage pattern).
    #[test]
    fn plan_reuse_across_bindings(
        (c, params_a) in arb_plan_circuit(),
        params_b in prop::collection::vec(-3.0..3.0f64, 4),
    ) {
        let plan = c.compile().unwrap();
        for p in [&params_a, &params_b] {
            let want = reference(&c, p, None);
            prop_assert_eq!(bits(&plan.run(p).unwrap()), want);
        }
    }

    /// Every `QSIM_SIMD` level produces bit-identical amplitudes *and*
    /// bit-identical reductions: the vector kernels in `qsimd` are
    /// drop-in replacements for the scalar arms, not approximations.
    /// Forcing `Level::Scalar` via `with_level` must match the detected
    /// level on both executors and at 1, 2 and 4 threads (the level is
    /// resolved on the calling thread before workers spawn).
    #[test]
    fn plan_matches_across_simd_levels((c, params) in arb_plan_circuit()) {
        let detected = qsimd::detected();
        let run_at = |level: qsimd::Level| {
            qsimd::with_level(level, || {
                for mode in [ExecMode::Interp, ExecMode::Plan] {
                    let got = with_exec_mode(mode, || {
                        qpar::with_threads(1, || {
                            let mut s = StateVector::zero_state(c.num_qubits());
                            c.run_on(&mut s, &params).unwrap();
                            (bits(&s), s.norm().to_bits(), s.prob_one(0).unwrap().to_bits())
                        })
                    });
                    let fanned = with_exec_mode(mode, || {
                        qpar::with_threads(4, || {
                            let mut s = StateVector::zero_state(c.num_qubits());
                            c.run_on(&mut s, &params).unwrap();
                            (bits(&s), s.norm().to_bits(), s.prob_one(0).unwrap().to_bits())
                        })
                    });
                    assert_eq!(got, fanned, "level={} mode={:?}", level.name(), mode);
                }
                with_exec_mode(ExecMode::Plan, || {
                    qpar::with_threads(2, || {
                        let mut s = StateVector::zero_state(c.num_qubits());
                        c.run_on(&mut s, &params).unwrap();
                        (bits(&s), s.norm().to_bits(), s.prob_one(0).unwrap().to_bits())
                    })
                })
            })
        };
        let scalar = run_at(qsimd::Level::Scalar);
        let native = run_at(detected);
        prop_assert_eq!(&scalar, &native, "scalar vs {}", detected.name());
    }

    /// A 16-qubit-wide case crosses the parallel kernel thresholds, so
    /// `run_tiled`'s scoped stripes and the threaded sweeps really fan out.
    #[test]
    fn wide_plan_matches_interpreter(seed_ops in prop::collection::vec(arb_op(16), 1..10)) {
        let mut c = Circuit::new(16);
        for (g, qs) in seed_ops {
            c.push_fixed(g, &qs);
        }
        let want = reference(&c, &[], None);
        let plan = c.compile().unwrap();
        for threads in [2usize, 4, 8] {
            let got = qpar::with_threads(threads, || bits(&plan.run(&[]).unwrap()));
            prop_assert_eq!(&got, &want, "threads={}", threads);
        }
    }
}

//! Property-based tests for the parallelism layer: the determinism
//! contract (`tests/parallel_equivalence.rs` at the workspace root proves
//! it for fixed circuits) generalized to *random* circuits × random
//! thread counts.

use proptest::prelude::*;

use qsim::gate::Gate;
use qsim::pauli::PauliSum;
use qsim::rng::Xoshiro256;
use qsim::state::StateVector;
use qsim::testing::arb_op;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn amp_bits(state: &StateVector) -> Vec<(u64, u64)> {
    state
        .amplitudes()
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

fn run_ops(qubits: usize, ops: &[(Gate, Vec<usize>)], seed: u64, threads: usize) -> StateVector {
    qpar::with_threads(threads, || {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut state = StateVector::random(qubits, &mut rng);
        for (g, qs) in ops {
            state.apply_gate(*g, qs).unwrap();
        }
        state
    })
}

proptest! {
    // 14-qubit registers cross the gate-kernel fan-out threshold
    // (`PARALLEL_MIN_AMPS = 1 << 14`), so every case below genuinely
    // exercises the scoped-thread path; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random circuits produce bit-identical amplitudes, norms and draw
    /// counts at every thread count.
    #[test]
    fn random_circuits_bit_identical_across_threads(
        ops in prop::collection::vec(arb_op(14), 1..16),
        seed in any::<u64>(),
    ) {
        let reference = run_ops(14, &ops, seed, 1);
        let ref_bits = amp_bits(&reference);
        let ref_norm = reference.norm().to_bits();
        for &threads in &THREAD_SWEEP[1..] {
            let state = run_ops(14, &ops, seed, threads);
            prop_assert!(amp_bits(&state) == ref_bits, "threads={}", threads);
            prop_assert_eq!(state.norm().to_bits(), ref_norm, "threads={}", threads);
        }
    }

    /// Observable estimation (striped-sum reduction path, crossed at 15
    /// qubits) is bit-identical across thread counts for random circuits,
    /// on an Ising chain and on an XXZ chain (whose YY terms carry phases).
    #[test]
    fn expectation_reduction_bit_identical_across_threads(
        ops in prop::collection::vec(arb_op(15), 1..6),
        seed in any::<u64>(),
        coupling in 0.1f64..2.0,
    ) {
        for h in [
            PauliSum::transverse_ising(15, 1.0, coupling),
            PauliSum::heisenberg_xxz(15, coupling),
        ] {
            let expectation_at = |threads: usize| {
                let state = run_ops(15, &ops, seed, threads);
                qpar::with_threads(threads, || h.expectation(&state).unwrap().to_bits())
            };
            let reference = expectation_at(1);
            for &threads in &THREAD_SWEEP[1..] {
                prop_assert_eq!(expectation_at(threads), reference, "threads={}", threads);
            }
        }
    }

    /// `map_threads` is a drop-in for the serial map at any thread count:
    /// same values, same order.
    #[test]
    fn map_threads_matches_serial_map(
        items in prop::collection::vec(any::<u64>(), 0..500),
        threads in 1usize..9,
    ) {
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let serial: Vec<u64> = items.iter().copied().map(f).collect();
        prop_assert_eq!(qpar::map_threads(threads, items, f), serial);
    }

    /// `ranges` tiles `[0, len)` exactly: contiguous, in order, no gaps or
    /// overlap, and never more than `parts` pieces.
    #[test]
    fn ranges_partition_exactly(len in 0usize..10_000, parts in 1usize..16) {
        let rs = qpar::ranges(len, parts);
        prop_assert!(rs.len() <= parts);
        let mut next = 0usize;
        for r in &rs {
            prop_assert_eq!(r.start, next, "contiguous at {}", next);
            prop_assert!(r.end > r.start, "non-empty piece");
            next = r.end;
        }
        prop_assert_eq!(next, len);
    }
}

//! The deterministic form of "a shifted evaluation resumes from the state
//! it shares with the unshifted circuit", as an exact counter delta: one
//! parameter-shift gradient of `hardware_efficient(13, 4)` runs 234
//! shifted evaluations of 69 atoms each (16 146 atoms in full runs) and
//! skips the 7 228 that each shares with the unshifted binding — at every
//! thread count, since the prefixes depend only on the two schedules.
//!
//! One test, alone in its binary, like `qcheck`'s `save_counters.rs`: the
//! qobs registry is process-wide, and `==` on a delta needs a process
//! nothing else trains in.

use std::f64::consts::FRAC_PI_2;

use qnn::ansatz::{hardware_efficient, init_params};
use qnn::optimizer::Adam;
use qnn::trainer::{Task, Trainer, TrainerConfig};
use qsim::pauli::PauliSum;
use qsim::plan::FuseMode;
use qsim::rng::Xoshiro256;

#[test]
fn a_gradient_skips_the_atoms_its_shifts_share() {
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let skipped = || qobs::counter("qnn_gradient_atoms_skipped_total").get();
    let (circuit, info) = hardware_efficient(13, 4);
    let plan = circuit.compile().unwrap();
    let params = init_params(info.num_params, &mut Xoshiro256::seed_from(1));
    // The model: each evaluation skips the prefix its binding shares with
    // the unshifted one.
    let base = plan.bind(&params).unwrap();
    let mut shifted = plan.bind_scratch();
    let (mut full_run_atoms, mut shared) = (0, 0);
    for (op, _) in circuit.sym_ops() {
        for delta in [FRAC_PI_2, -FRAC_PI_2] {
            shifted.rebind_shifted(&params, op, delta).unwrap();
            full_run_atoms += shifted.passes();
            shared += base.shared_prefix(&shifted);
        }
    }
    // The pinned figures are the fused schedule's; a `QSIM_FUSE=off` run
    // checks the counter against the model alone.
    if FuseMode::current() == FuseMode::On {
        assert_eq!(full_run_atoms, 16_146, "234 shifted evaluations x 69 atoms");
        assert_eq!(shared, 16_146 - 8_918, "the evaluations run 8 918 atoms");
    }
    for threads in [1, 2, 4] {
        let mut trainer = Trainer::new(
            circuit.clone(),
            Task::Vqe {
                hamiltonian: PauliSum::transverse_ising(13, 1.0, 0.7),
            },
            Box::new(Adam::new(0.05)),
            params.clone(),
            TrainerConfig::default(),
        )
        .unwrap();
        let before = skipped();
        // One step is one unshifted loss (a full run) plus one gradient.
        qpar::with_threads(threads, || trainer.train_step().unwrap());
        assert_eq!(skipped() - before, shared as u64, "threads={threads}");
    }
}

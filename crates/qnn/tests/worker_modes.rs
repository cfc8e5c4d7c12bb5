//! A gradient's workers run under their caller's executor overrides.
//! `with_fuse_mode` and the test-only `with_exec_mode` are thread-local,
//! so the parameter-shift fan-out re-enters its caller's
//! `qsim::plan::ThreadModes` on every worker. Without that, an unfused or
//! interpreter oracle run of a multi-threaded gradient silently tested the
//! default schedule on the workers.
//!
//! One test, alone in its binary, like `resume_counters.rs`: the qobs
//! registry is process-wide, and `==` on a delta needs a process nothing
//! else trains in.

use qnn::ansatz::{hardware_efficient, init_params};
use qnn::dataset;
use qnn::encode::FeatureMap;
use qnn::optimizer::Adam;
use qnn::trainer::{Task, Trainer, TrainerConfig};
use qsim::pauli::PauliSum;
use qsim::plan::{with_exec_mode, with_fuse_mode, ExecMode, FuseMode};
use qsim::rng::Xoshiro256;

const QUBITS: usize = 6;

fn trainer(task: &str) -> Trainer {
    let mut rng = Xoshiro256::seed_from(3);
    let (circuit, info) = hardware_efficient(QUBITS, 2);
    let task = match task {
        "vqe" => Task::Vqe {
            hamiltonian: PauliSum::transverse_ising(QUBITS, 1.0, 0.7),
        },
        _ => Task::Classification {
            data: dataset::blobs(QUBITS, 6, 2.0, &mut rng),
            feature_map: FeatureMap::Angle,
            observable: PauliSum::mean_z(QUBITS),
            batch_size: 3,
        },
    };
    let params = init_params(info.num_params, &mut rng);
    Trainer::new(
        circuit,
        task,
        Box::new(Adam::new(0.05)),
        params,
        TrainerConfig::default(),
    )
    .unwrap()
}

/// One exact step at two threads: the loss, gradient-norm and parameter
/// bits it leaves.
fn step(task: &str) -> Vec<u64> {
    let mut t = trainer(task);
    let report = qpar::with_threads(2, || t.train_step().unwrap());
    let mut bits = vec![report.loss.to_bits(), report.grad_norm.to_bits()];
    bits.extend(t.params().iter().map(|p| p.to_bits()));
    bits
}

#[test]
fn gradient_workers_run_under_the_callers_fuse_and_exec_modes() {
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let permutes = || qobs::counter("qsim_passes_total{kind=\"permute\"}").get();
    let skipped = || qobs::counter("qnn_gradient_atoms_skipped_total").get();
    for task in ["vqe", "classification"] {
        // The fused schedule runs permutation passes on every thread...
        let before = permutes();
        let fused = with_fuse_mode(FuseMode::On, || step(task));
        assert!(
            permutes() > before,
            "{task}: the fused step ran no permutation"
        );
        // ...and the unfused one on none, the workers' binds included.
        let before = permutes();
        let unfused = with_fuse_mode(FuseMode::Off, || step(task));
        assert_eq!(
            permutes() - before,
            0,
            "{task}: a worker bound the fused schedule"
        );
        assert_eq!(unfused, fused, "{task}: fusion moved a bit");

        // The compiled plan resumes every shifted evaluation...
        let before = skipped();
        let planned = with_exec_mode(ExecMode::Plan, || step(task));
        assert!(skipped() > before, "{task}: the plan step resumed nothing");
        // ...and under the interpreter every evaluation is a full oracle
        // run, the workers' included.
        let before = skipped();
        let interpreted = with_exec_mode(ExecMode::Interp, || step(task));
        assert_eq!(
            skipped() - before,
            0,
            "{task}: a worker resumed on the plan"
        );
        assert_eq!(interpreted, planned, "{task}: the interpreter moved a bit");
    }
}

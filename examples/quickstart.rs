//! Quickstart: checkpoint a VQE training run and recover it.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use qnn_checkpoint::qcheck::repo::{CheckpointRepo, SaveOptions};
use qnn_checkpoint::qcheck::snapshot::Checkpointable;
use qnn_checkpoint::qcheck::{Checkpointer, EveryKSteps};
use qnn_checkpoint::qnn::ansatz::{hardware_efficient, init_params};
use qnn_checkpoint::qnn::optimizer::Adam;
use qnn_checkpoint::qnn::trainer::{Task, Trainer, TrainerConfig};
use qnn_checkpoint::qsim::pauli::PauliSum;
use qnn_checkpoint::qsim::rng::Xoshiro256;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A variational model: hardware-efficient ansatz on 4 qubits,
    //    minimizing the energy of a transverse-field Ising chain.
    let (circuit, info) = hardware_efficient(4, 2);
    let mut rng = Xoshiro256::seed_from(42);
    let params = init_params(info.num_params, &mut rng);
    let mut trainer = Trainer::new(
        circuit,
        Task::Vqe {
            hamiltonian: PauliSum::transverse_ising(4, 1.0, 0.8),
        },
        Box::new(Adam::new(0.05)),
        params,
        TrainerConfig {
            label: "quickstart-vqe".into(),
            ..TrainerConfig::default()
        },
    )?;

    // 2. A checkpoint repository plus a policy-driven checkpointer:
    //    checkpoint every 5 optimizer steps.
    let dir = std::env::temp_dir().join(format!("qnn-ckpt-quickstart-{}", std::process::id()));
    let repo = CheckpointRepo::open(&dir)?;
    let mut checkpointer =
        Checkpointer::new(repo, Box::new(EveryKSteps::new(5)), SaveOptions::default())?;

    // 3. Train; when due, the checkpointer captures the complete hybrid
    //    state (parameters, Adam moments, RNG streams, shot ledger) and
    //    hands it to its writer thread — the loop does not wait for the
    //    save.
    println!("step   loss       checkpoint");
    for _ in 0..20 {
        let report = trainer.train_step()?;
        let handed_off = checkpointer.on_step(report.step, &trainer)?;
        println!(
            "{:>4}   {:>8.4}   {}",
            report.step,
            report.loss,
            if handed_off { "handed off" } else { "-" }
        );
    }

    // Always persist the final state before shutting down; a forced
    // checkpoint returns once it is acknowledged.
    checkpointer.force_checkpoint(trainer.step_count(), &trainer)?;
    for save in checkpointer.history() {
        println!("acknowledged {} ({} B)", save.id, save.bytes_written());
    }

    // 4. Simulate a crash: build a fresh process-equivalent trainer and
    //    restore the newest valid checkpoint from disk.
    let (circuit, info) = hardware_efficient(4, 2);
    let mut fresh = Trainer::new(
        circuit,
        Task::Vqe {
            hamiltonian: PauliSum::transverse_ising(4, 1.0, 0.8),
        },
        Box::new(Adam::new(0.05)),
        vec![0.0; info.num_params],
        TrainerConfig {
            label: "quickstart-vqe".into(),
            ..TrainerConfig::default()
        },
    )?;
    let (recovered_from, _) = checkpointer.restore_latest(&mut fresh)?;
    println!(
        "\nrecovered {} at step {} — loss {:.4}",
        recovered_from,
        fresh.step_count(),
        fresh.exact_loss()?
    );
    assert_eq!(fresh.step_count(), 20);
    assert_eq!(fresh.params(), trainer.params());
    // Full state equality modulo the wall clock.
    let mut a = fresh.capture();
    let mut b = trainer.capture();
    a.wall_time_ms = 0;
    b.wall_time_ms = 0;
    assert_eq!(a, b, "resumed state differs from the live trainer");

    std::fs::remove_dir_all(&dir)?;
    println!("ok: resumed state is identical to the live trainer");
    Ok(())
}

//! What the save driver buys the training thread.
//!
//! The same 20 checkpoints are taken twice: once by calling
//! `CheckpointRepo::save` on the training thread, which then waits out
//! every commit, and once through `Checkpointer`, whose writer thread runs
//! the save while the next step computes — the training thread pays for a
//! snapshot capture and a hand-off. (`ResumableRun`, the driver wrapped
//! around a trainer with recovery on start, is `crash_and_resume`.)
//!
//! ```bash
//! cargo run --example save_driver
//! ```

use std::time::Instant;

use qnn_checkpoint::qcheck::repo::{CheckpointRepo, SaveOptions};
use qnn_checkpoint::qcheck::snapshot::Checkpointable;
use qnn_checkpoint::qcheck::{Checkpointer, EveryKSteps};
use qnn_checkpoint::qnn::ansatz::{hardware_efficient, init_params};
use qnn_checkpoint::qnn::optimizer::Adam;
use qnn_checkpoint::qnn::trainer::{Task, Trainer, TrainerConfig};
use qnn_checkpoint::qsim::pauli::PauliSum;
use qnn_checkpoint::qsim::rng::Xoshiro256;

fn build_trainer() -> Trainer {
    let (circuit, info) = hardware_efficient(5, 3);
    let mut rng = Xoshiro256::seed_from(77);
    let params = init_params(info.num_params, &mut rng);
    Trainer::new(
        circuit,
        Task::Vqe {
            hamiltonian: PauliSum::transverse_ising(5, 1.0, 0.8),
        },
        Box::new(Adam::new(0.05)),
        params,
        TrainerConfig {
            label: "driver-demo".into(),
            seed: 77,
            ..TrainerConfig::default()
        },
    )
    .expect("trainer")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("qnn-ckpt-driver-{}", std::process::id()));
    let steps = 20;

    // On the training thread: the loop waits for every commit.
    let mut trainer = build_trainer();
    let repo = CheckpointRepo::open(dir.join("inline"))?;
    let mut inline_stall = 0.0;
    for _ in 0..steps {
        trainer.train_step()?;
        let t0 = Instant::now();
        repo.save(&trainer.capture(), &SaveOptions::default())?;
        inline_stall += t0.elapsed().as_secs_f64() * 1000.0;
    }

    // Through the driver: the loop pays capture + hand-off.
    let mut trainer = build_trainer();
    let mut driver = Checkpointer::new(
        CheckpointRepo::open(dir.join("driver"))?,
        Box::new(EveryKSteps::new(1)),
        SaveOptions::default(),
    )?;
    let mut driver_stall = 0.0;
    for _ in 0..steps {
        let step = trainer.train_step()?.step;
        let t0 = Instant::now();
        driver.on_step(step, &trainer)?;
        driver_stall += t0.elapsed().as_secs_f64() * 1000.0;
    }
    driver.drain()?;
    assert_eq!(driver.history().len(), steps, "nothing dropped");
    println!(
        "training-thread stall over {steps} checkpoints:\n  save on the training thread: {inline_stall:.2} ms\n  save driver:                 {driver_stall:.2} ms ({} acknowledged, blocked-cost EWMA {:.3} ms)",
        driver.history().len(),
        driver.observed_cost_ms()
    );
    driver.finish()?;

    std::fs::remove_dir_all(&dir)?;
    println!("\nok");
    Ok(())
}

//! The headline scenario: a shot-based training run crashes mid-flight and
//! resumes **bitwise exactly** from its on-disk checkpoint — the loss
//! trajectory after resume is identical, shot noise included, to a run that
//! never crashed.
//!
//! ```bash
//! cargo run --example crash_and_resume
//! ```

use qnn_checkpoint::qcheck::repo::{CheckpointRepo, SaveOptions};
use qnn_checkpoint::qcheck::EveryKSteps;
use qnn_checkpoint::qnn::ansatz::{hardware_efficient, init_params};
use qnn_checkpoint::qnn::optimizer::Adam;
use qnn_checkpoint::qnn::resume::{ResumableRun, RunStart};
use qnn_checkpoint::qnn::trainer::{Task, Trainer, TrainerConfig};
use qnn_checkpoint::qsim::measure::EvalMode;
use qnn_checkpoint::qsim::pauli::PauliSum;
use qnn_checkpoint::qsim::rng::Xoshiro256;

fn build_trainer() -> Trainer {
    let (circuit, info) = hardware_efficient(4, 2);
    let mut rng = Xoshiro256::seed_from(2024);
    let params = init_params(info.num_params, &mut rng);
    Trainer::new(
        circuit,
        Task::Vqe {
            hamiltonian: PauliSum::transverse_ising(4, 1.0, 0.7),
        },
        Box::new(Adam::new(0.05)),
        params,
        TrainerConfig {
            label: "crash-demo".into(),
            // Shot-based evaluation: every loss and gradient is noisy, and
            // the noise stream is part of the checkpointed state.
            eval_mode: EvalMode::Shots(128),
            seed: 2024,
            ..TrainerConfig::default()
        },
    )
    .expect("trainer")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("qnn-ckpt-crash-{}", std::process::id()));
    // Every process starts its run the same way: writer lock, recover,
    // then train with the save driver checkpointing every 8 steps.
    let start_run = || {
        ResumableRun::start(
            build_trainer(),
            CheckpointRepo::open(&dir)?,
            Box::new(EveryKSteps::new(8)),
            SaveOptions::default(),
        )
    };

    // Reference: an uninterrupted 16-step run.
    let mut reference = build_trainer();
    let mut reference_losses = Vec::new();
    for _ in 0..16 {
        reference_losses.push(reference.train_step()?.loss);
    }

    // Victim: same run, checkpointed at step 8, then "killed".
    let mut victim = start_run()?;
    assert_eq!(*victim.start_info(), RunStart::Fresh);
    victim.run_to_step(8)?;
    println!("checkpoint handed off at step 8; simulating a crash (dropping the run)");
    drop(victim);

    // Resume in a "new process": the same call recovers from disk.
    let mut resumed = start_run()?;
    match resumed.start_info() {
        RunStart::Resumed { id, step } => println!("recovered {id} at step {step}"),
        RunStart::Fresh => unreachable!("a checkpoint exists"),
    }
    let resumed_losses = resumed.run_to_step(16)?;

    println!("\nstep   reference-loss       resumed-loss        bit-identical");
    let mut all_equal = true;
    for (report, &reference_loss) in resumed_losses.iter().zip(&reference_losses[8..]) {
        let same = reference_loss.to_bits() == report.loss.to_bits();
        all_equal &= same;
        println!(
            "{:>4}   {:>18.12}   {:>18.12}   {}",
            report.step,
            reference_loss,
            report.loss,
            if same { "yes" } else { "NO" }
        );
    }
    assert_eq!(resumed_losses.len(), 8);
    assert!(all_equal, "resume was not exact");
    assert_eq!(
        reference.ledger().total_shots(),
        resumed.trainer().ledger().total_shots(),
        "shot accounting diverged"
    );
    println!(
        "\nok: 8 post-crash steps bitwise-identical; total shots accounted: {}",
        resumed.trainer().ledger().total_shots()
    );
    resumed.finish()?;
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

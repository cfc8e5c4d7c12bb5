//! Failure drill: corrupt a checkpoint repository in every way the
//! evaluation models and watch recovery detect the damage and fall back.
//!
//! ```bash
//! cargo run --example failure_drill
//! ```

use qnn_checkpoint::qcheck::failure::{arm, Fault, StorageFault};
use qnn_checkpoint::qcheck::repo::{CheckpointRepo, CommitMode, SaveOptions};
use qnn_checkpoint::qcheck::snapshot::Checkpointable;
use qnn_checkpoint::qcheck::store::ObjectStore;
use qnn_checkpoint::qnn::ansatz::{hardware_efficient, init_params};
use qnn_checkpoint::qnn::optimizer::Sgd;
use qnn_checkpoint::qnn::trainer::{Task, Trainer, TrainerConfig};
use qnn_checkpoint::qsim::pauli::PauliSum;
use qnn_checkpoint::qsim::rng::Xoshiro256;

fn trainer() -> Trainer {
    let (circuit, info) = hardware_efficient(3, 1);
    let mut rng = Xoshiro256::seed_from(5);
    let params = init_params(info.num_params, &mut rng);
    Trainer::new(
        circuit,
        Task::Vqe {
            hamiltonian: PauliSum::transverse_ising(3, 1.0, 0.9),
        },
        Box::new(Sgd::new(0.05)),
        params,
        TrainerConfig::default(),
    )
    .expect("trainer")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("qnn-ckpt-drill-{}", std::process::id()));
    let repo = CheckpointRepo::open(&dir)?;
    let mut t = trainer();

    // Two good checkpoints.
    t.train_step()?;
    let first = repo.save(&t.capture(), &SaveOptions::default())?;
    t.train_step()?;
    let second = repo.save(&t.capture(), &SaveOptions::default())?;
    println!("baseline: two good checkpoints (steps 1 and 2)\n");

    // Drills 1 and 2: a crash at every durable op of a third save
    // (keeping 0, 50 and 100 % of the op), each on a fresh repository
    // holding the two good checkpoints, under both commit protocols.
    t.train_step()?;
    let snaps = [repo.load(&first.id)?, repo.load(&second.id)?, t.capture()];
    let crash_dir = dir.with_extension("crash");
    for commit in [CommitMode::Atomic, CommitMode::InPlaceUnsafe] {
        println!("-- crash at every durable op ({commit:?}) --");
        for (at, keep_pct) in (1..).flat_map(|at| [0, 50, 100].map(|keep| (at, keep))) {
            let crash = {
                let repo = CheckpointRepo::open(&crash_dir)?;
                repo.save(&snaps[0], &SaveOptions::default())?;
                repo.save(&snaps[1], &SaveOptions::default())?;
                let _armed = arm(&crash_dir, at, Fault::Crash { keep_pct });
                let opts = SaveOptions {
                    commit,
                    ..SaveOptions::default()
                };
                repo.save(&snaps[2], &opts).err()
            };
            let (snap, report) = CheckpointRepo::open(&crash_dir)?.recover()?;
            std::fs::remove_dir_all(&crash_dir)?;
            // Past the save's last op, nothing crashes.
            let Some(crash) = crash else { break };
            let skipped = report.skipped.len();
            println!(
                "{crash}, keep {keep_pct:>3} % → recovered step {} (skipped {skipped})",
                snap.step
            );
            assert!(snap.step >= 2, "an acknowledged checkpoint was lost");
            assert!(commit == CommitMode::InPlaceUnsafe || skipped == 0);
        }
        println!();
    }

    // Drill 3: post-commit bit rot on the newest good manifest.
    println!("-- storage-fault drill --");
    for fault in [
        StorageFault::BitFlip { offset: 17 },
        StorageFault::Truncate { keep_pct: 60 },
        StorageFault::Delete,
    ] {
        // Re-write checkpoint 2 cleanly, then damage it.
        let fresh = repo.save(&snaps[2], &SaveOptions::default())?;
        repo.corrupt_manifest(&fresh.id, fault)?;
        let (recovered, report) = repo.recover()?;
        println!(
            "fault {:<18} on {} → fell back to step {} ({} rejected)",
            fault.to_string(),
            fresh.id,
            recovered.step,
            report.skipped.len()
        );
        assert!(recovered.step >= 2, "must recover at least checkpoint 2");
    }

    // Chunk-level bit rot is detected too.
    let manifest = repo.load_manifest(&second.id)?;
    let victim = manifest.chunk_refs().next().expect("chunk").hash;
    repo.store().corrupt_object(&victim, 3)?;
    let (recovered, report) = repo.recover()?;
    println!(
        "\nchunk bit-rot in {} → recovered step {} ({} rejected); corruption was detected, never returned",
        second.id,
        recovered.step,
        report.skipped.len()
    );

    std::fs::remove_dir_all(&dir)?;
    println!("\nok: every fault was either survived or cleanly detected");
    Ok(())
}

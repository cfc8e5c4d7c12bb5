//! Cross-crate integration: the full training → checkpoint → crash →
//! recover → continue pipeline, through the real on-disk repository.

use std::time::{Duration, Instant};

use qnn_checkpoint::qcheck::repo::{CheckpointRepo, Retention, SaveOptions};
use qnn_checkpoint::qcheck::snapshot::Checkpointable;
use qnn_checkpoint::qcheck::{Checkpointer, YoungDaly};
use qnn_checkpoint::qnn::ansatz::{hardware_efficient, init_params};
use qnn_checkpoint::qnn::optimizer::{Adam, Momentum};
use qnn_checkpoint::qnn::trainer::{Task, Trainer, TrainerConfig};
use qnn_checkpoint::qnn::{FeatureMap, GradientMethod};
use qnn_checkpoint::qsim::measure::EvalMode;
use qnn_checkpoint::qsim::pauli::PauliSum;
use qnn_checkpoint::qsim::rng::Xoshiro256;

fn scratch(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let p = std::env::temp_dir().join(format!(
        "qnn-e2e-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn shot_trainer(seed: u64) -> Trainer {
    let (circuit, info) = hardware_efficient(4, 2);
    let mut rng = Xoshiro256::seed_from(seed);
    let params = init_params(info.num_params, &mut rng);
    Trainer::new(
        circuit,
        Task::Vqe {
            hamiltonian: PauliSum::transverse_ising(4, 1.0, 0.6),
        },
        Box::new(Adam::new(0.04)),
        params,
        TrainerConfig {
            label: "e2e".into(),
            eval_mode: EvalMode::Shots(48),
            gradient: GradientMethod::ParameterShift,
            seed,
            metrics_capacity: 64,
        },
    )
    .unwrap()
}

#[test]
fn disk_round_trip_resume_is_bitwise_exact() {
    let dir = scratch("exact");
    let repo = CheckpointRepo::open(&dir).unwrap();

    // Uninterrupted reference.
    let mut reference = shot_trainer(101);
    let mut ref_losses = Vec::new();
    for _ in 0..12 {
        ref_losses.push(reference.train_step().unwrap().loss);
    }

    // Crash at step 6, resume from disk in a "new process".
    let mut victim = shot_trainer(101);
    for _ in 0..6 {
        victim.train_step().unwrap();
    }
    repo.save(&victim.capture(), &SaveOptions::default())
        .unwrap();
    drop(victim);

    let mut resumed = shot_trainer(101);
    let (snapshot, _) = repo.recover().unwrap();
    resumed.restore(&snapshot).unwrap();
    for (i, expected) in ref_losses.iter().enumerate().skip(6) {
        let loss = resumed.train_step().unwrap().loss;
        assert_eq!(
            loss.to_bits(),
            expected.to_bits(),
            "divergence at step {}",
            i + 1
        );
    }
    for (a, b) in reference.params().iter().zip(resumed.params()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn delta_chain_through_disk_is_exact() {
    let dir = scratch("delta");
    let repo = CheckpointRepo::open(&dir).unwrap();
    let opts = SaveOptions::incremental(32);

    let mut reference = shot_trainer(202);
    for step in 1..=10u64 {
        reference.train_step().unwrap();
        let report = repo.save(&reference.capture(), &opts).unwrap();
        if step > 1 {
            assert!(report.is_delta, "step {step} should be a delta");
        }
    }
    let tail: Vec<u64> = reference
        .train_steps(4)
        .unwrap()
        .iter()
        .map(|r| r.loss.to_bits())
        .collect();

    let mut resumed = shot_trainer(202);
    let (snapshot, _) = repo.recover().unwrap();
    assert_eq!(snapshot.step, 10);
    resumed.restore(&snapshot).unwrap();
    let replay: Vec<u64> = resumed
        .train_steps(4)
        .unwrap()
        .iter()
        .map(|r| r.loss.to_bits())
        .collect();
    assert_eq!(tail, replay);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn checkpointer_with_young_daly_policy_drives_training() {
    let dir = scratch("yd");
    let repo = CheckpointRepo::open(&dir).unwrap();
    // MTBF of 200 ms with ~instant writes → very frequent checkpoints.
    let mut ckptr = Checkpointer::new(
        repo,
        Box::new(YoungDaly::new(200.0, 1.0)),
        SaveOptions::incremental(8),
    )
    .unwrap();
    // The interval is wall time (√(2·1·200) = 20 ms), so step until the
    // policy fires however fast a build steps, bounded by a deadline.
    let mut trainer = shot_trainer(303);
    let deadline = Instant::now() + Duration::from_secs(30);
    let fired_at = loop {
        let report = trainer.train_step().unwrap();
        if ckptr.on_step(report.step, &trainer).unwrap() {
            break report.step;
        }
        assert!(Instant::now() < deadline, "Young–Daly policy never fired");
    };
    let mut fresh = shot_trainer(303);
    let (_, restored) = ckptr.restore_latest(&mut fresh).unwrap();
    assert_eq!(restored, fired_at);
    assert_eq!(fresh.step_count(), fired_at);
    let _ = std::fs::remove_dir_all(ckptr.repo().root());
}

#[test]
fn retention_preserves_recoverability_mid_training() {
    let dir = scratch("retention");
    let repo = CheckpointRepo::open(&dir).unwrap();
    let opts = SaveOptions::incremental(4);
    let mut trainer = shot_trainer(404);
    for _ in 0..12 {
        trainer.train_step().unwrap();
        repo.save(&trainer.capture(), &opts).unwrap();
        repo.apply_retention(Retention::KeepLast(3)).unwrap();
        // Recovery must always succeed after retention.
        let (snap, _) = repo.recover().unwrap();
        assert_eq!(snap.step, trainer.step_count());
    }
    // The store stays bounded: no more than a dozen manifests ever survive.
    assert!(repo.list_ids().unwrap().len() <= 8);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn classification_task_round_trips_dataset_cursor() {
    let dir = scratch("cursor");
    let repo = CheckpointRepo::open(&dir).unwrap();
    let mut rng = Xoshiro256::seed_from(77);
    let data = qnn_checkpoint::qnn::dataset::blobs(2, 12, 2.0, &mut rng);
    let build = || {
        let (circuit, info) = hardware_efficient(2, 1);
        let mut prng = Xoshiro256::seed_from(9);
        Trainer::new(
            circuit,
            Task::Classification {
                data: data.clone(),
                feature_map: FeatureMap::Angle,
                observable: PauliSum::mean_z(2),
                batch_size: 5,
            },
            Box::new(Momentum::new(0.05, 0.9)),
            init_params(info.num_params, &mut prng),
            TrainerConfig {
                eval_mode: EvalMode::Shots(32),
                gradient: GradientMethod::Spsa { c: 0.1 },
                seed: 9,
                ..TrainerConfig::default()
            },
        )
        .unwrap()
    };

    let mut reference = build();
    for _ in 0..7 {
        reference.train_step().unwrap();
    }
    repo.save(&reference.capture(), &SaveOptions::default())
        .unwrap();
    let ref_tail: Vec<u64> = reference
        .train_steps(6)
        .unwrap()
        .iter()
        .map(|r| r.loss.to_bits())
        .collect();

    let mut resumed = build();
    let (snap, _) = repo.recover().unwrap();
    resumed.restore(&snap).unwrap();
    // Mini-batch order and SPSA directions must replay identically.
    let replay: Vec<u64> = resumed
        .train_steps(6)
        .unwrap()
        .iter()
        .map(|r| r.loss.to_bits())
        .collect();
    assert_eq!(ref_tail, replay, "batch order / SPSA stream diverged");
    assert_eq!(reference.epoch_count(), resumed.epoch_count());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn ledger_accounting_survives_resume() {
    let dir = scratch("ledger");
    let repo = CheckpointRepo::open(&dir).unwrap();
    let mut trainer = shot_trainer(505);
    for _ in 0..4 {
        trainer.train_step().unwrap();
    }
    let shots_before = trainer.ledger().total_shots();
    assert!(shots_before > 0);
    repo.save(&trainer.capture(), &SaveOptions::default())
        .unwrap();

    let mut resumed = shot_trainer(505);
    let (snap, _) = repo.recover().unwrap();
    resumed.restore(&snap).unwrap();
    assert_eq!(resumed.ledger().total_shots(), shots_before);
    assert_eq!(resumed.ledger().len(), 4);
    resumed.train_step().unwrap();
    assert!(resumed.ledger().total_shots() > shots_before);
    assert_eq!(resumed.ledger().len(), 5);
    let _ = std::fs::remove_dir_all(dir);
}

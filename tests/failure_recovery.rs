//! Cross-crate failure injection: no combination of crash point, commit
//! protocol or post-commit fault may ever make recovery return wrong data.

use qnn_checkpoint::qcheck::failure::{CrashPoint, StorageFault};
use qnn_checkpoint::qcheck::repo::{CheckpointRepo, CommitMode, SaveOptions};
use qnn_checkpoint::qcheck::snapshot::{Checkpointable, TrainingSnapshot};
use qnn_checkpoint::qcheck::store::ObjectStore;
use qnn_checkpoint::qnn::ansatz::{hardware_efficient, init_params};
use qnn_checkpoint::qnn::optimizer::Adam;
use qnn_checkpoint::qnn::trainer::{Task, Trainer, TrainerConfig};
use qnn_checkpoint::qsim::pauli::PauliSum;
use qnn_checkpoint::qsim::rng::Xoshiro256;

fn scratch(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let p = std::env::temp_dir().join(format!(
        "qnn-fail-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A tiny real trainer that yields a stream of distinguishable snapshots.
fn snapshots(n: usize) -> Vec<TrainingSnapshot> {
    let (circuit, info) = hardware_efficient(3, 1);
    let mut rng = Xoshiro256::seed_from(7);
    let params = init_params(info.num_params, &mut rng);
    let mut trainer = Trainer::new(
        circuit,
        Task::Vqe {
            hamiltonian: PauliSum::transverse_ising(3, 1.0, 0.7),
        },
        Box::new(Adam::new(0.05)),
        params,
        TrainerConfig::default(),
    )
    .unwrap();
    (0..n)
        .map(|_| {
            trainer.train_step().unwrap();
            trainer.capture()
        })
        .collect()
}

/// Recovery must return a snapshot identical to one we actually committed
/// ("no silent corruption"), or fail *cleanly* with an integrity error.
/// A clean failure is legitimate even with checkpoints on disk: corrupting
/// a delta-chain base invalidates every dependent checkpoint.
fn assert_recovers_known_state(repo: &CheckpointRepo, committed: &[TrainingSnapshot]) {
    match repo.recover() {
        Ok((snapshot, _)) => {
            let matches = committed.iter().any(|s| {
                let mut a = s.clone();
                let mut b = snapshot.clone();
                a.wall_time_ms = 0;
                b.wall_time_ms = 0;
                a == b
            });
            assert!(matches, "recovered a snapshot that was never committed");
        }
        Err(e) => {
            assert!(
                matches!(e, qnn_checkpoint::qcheck::Error::NoValidCheckpoint { .. }),
                "recovery failed uncleanly: {e}"
            );
        }
    }
}

#[test]
fn atomic_commit_survives_every_crash_point() {
    let snaps = snapshots(2);
    for crash in CrashPoint::all() {
        let dir = scratch("crash-atomic");
        let repo = CheckpointRepo::open(&dir).unwrap();
        repo.save(&snaps[0], &SaveOptions::default()).unwrap();
        let opts = SaveOptions {
            crash: Some(crash),
            ..SaveOptions::default()
        };
        let err = repo.save(&snaps[1], &opts).unwrap_err();
        assert!(
            matches!(err, qnn_checkpoint::qcheck::Error::SimulatedCrash { .. }),
            "{crash}: unexpected error {err}"
        );
        // Under the atomic protocol recovery must *succeed* (checkpoint 1
        // is intact), not merely fail cleanly.
        let (recovered, _) = repo.recover().expect("atomic protocol must recover");
        assert!(recovered.step >= snaps[0].step);
        assert_recovers_known_state(&repo, &snaps);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn inplace_commit_crashes_are_detected_not_silent() {
    let snaps = snapshots(2);
    for crash in CrashPoint::all() {
        let dir = scratch("crash-inplace");
        let repo = CheckpointRepo::open(&dir).unwrap();
        repo.save(&snaps[0], &SaveOptions::default()).unwrap();
        let opts = SaveOptions {
            commit: CommitMode::InPlaceUnsafe,
            crash: Some(crash),
            ..SaveOptions::default()
        };
        let _ = repo.save(&snaps[1], &opts);
        // Recovery may fall back to snapshot 0 or reach snapshot 1, but it
        // must never hand back a franken-snapshot.
        assert_recovers_known_state(&repo, &snaps);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn every_manifest_fault_falls_back() {
    let snaps = snapshots(3);
    for fault in [
        StorageFault::BitFlip { offset: 11 },
        StorageFault::BitFlip { offset: 311 },
        StorageFault::Truncate { keep_pct: 10 },
        StorageFault::Truncate { keep_pct: 90 },
        StorageFault::Delete,
    ] {
        let dir = scratch("fault");
        let repo = CheckpointRepo::open(&dir).unwrap();
        for s in &snaps {
            repo.save(s, &SaveOptions::default()).unwrap();
        }
        let newest = repo.list_ids().unwrap().pop().unwrap();
        repo.corrupt_manifest(&newest, fault).unwrap();
        let (snapshot, report) = repo.recover().unwrap();
        assert!(snapshot.step >= snaps[0].step);
        assert_recovers_known_state(&repo, &snaps);
        // Deleting the newest manifest silently hides it; other faults are
        // detected and reported.
        if !matches!(fault, StorageFault::Delete) {
            assert!(!report.skipped.is_empty(), "{fault}: no skip recorded");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn chunk_corruption_in_delta_chain_is_caught() {
    let snaps = snapshots(5);
    let dir = scratch("chain-rot");
    let repo = CheckpointRepo::open(&dir).unwrap();
    let opts = SaveOptions::incremental(16);
    for s in &snaps {
        repo.save(s, &opts).unwrap();
    }
    // Corrupt a chunk of the *base* (first) checkpoint's parameters. Every
    // later link that folds that section from the base reads the chunk,
    // and the store refuses it against its content address — so each of
    // them is rejected, and recovery fails (or falls back to a checkpoint
    // whose parameters were rewritten in full since) rather than
    // returning garbage.
    let base_id = repo.list_ids().unwrap()[0].clone();
    let manifest = repo.load_manifest(&base_id).unwrap();
    let params_entry = manifest
        .sections
        .iter()
        .find(|s| s.name == "params")
        .unwrap();
    repo.store()
        .corrupt_object(&params_entry.chunks[0].hash, 5)
        .unwrap();
    match repo.recover() {
        Ok((snapshot, _)) => {
            // Only acceptable if some checkpoint did not depend on the
            // corrupted chunk (dedup could make chains share chunks).
            let mut a = snapshot;
            a.wall_time_ms = 0;
            let ok = snaps.iter().any(|s| {
                let mut b = s.clone();
                b.wall_time_ms = 0;
                a == b
            });
            assert!(ok, "recovered unknown state from corrupt chain");
        }
        Err(e) => assert!(
            e.is_integrity_failure()
                || matches!(e, qnn_checkpoint::qcheck::Error::NoValidCheckpoint { .. })
        ),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn random_byte_fuzzing_never_yields_unknown_state() {
    let snaps = snapshots(3);
    let dir = scratch("fuzz");
    let repo = CheckpointRepo::open(&dir).unwrap();
    for s in &snaps {
        repo.save(s, &SaveOptions::incremental(8)).unwrap();
    }
    // Flip one byte in every file in the repository, one file at a time,
    // restoring the original afterwards.
    let mut files = Vec::new();
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap().flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    walk(&dir, &mut files);
    assert!(files.len() > 5, "repo unexpectedly small");
    for (i, file) in files.iter().enumerate() {
        let original = std::fs::read(file).unwrap();
        if original.is_empty() {
            continue;
        }
        let mut damaged = original.clone();
        let pos = (i * 7919) % damaged.len();
        damaged[pos] ^= 0xA5;
        std::fs::write(file, &damaged).unwrap();
        assert_recovers_known_state(&repo, &snaps);
        std::fs::write(file, &original).unwrap();
    }
    let _ = std::fs::remove_dir_all(dir);
}

//! Cross-crate failure injection: no combination of crashed op, commit
//! protocol or post-commit fault may ever make recovery return wrong data.

use qnn_checkpoint::qcheck::failure::{arm, Fault, StorageFault};
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

/// Saves `snaps[1]` into a fresh repository holding `snaps[0]` under
/// `commit`, with `fault` armed at the save's `at`-th durable op (`at` 0
/// only counts); returns the directory and how many ops the save issued.
/// Every handle is dropped before returning, as a dead process's are.
fn second_save(
    commit: CommitMode,
    at: u64,
    fault: Fault,
    snaps: &[TrainingSnapshot],
) -> (std::path::PathBuf, u64) {
    let dir = scratch("crash");
    let repo = CheckpointRepo::open(&dir).unwrap();
    repo.save(&snaps[0], &SaveOptions::default()).unwrap();
    let opts = SaveOptions {
        commit,
        ..SaveOptions::default()
    };
    let armed = arm(&dir, at, fault);
    let saved = repo.save(&snaps[1], &opts);
    assert_eq!(saved.is_err(), at > 0, "op {at} {fault:?}");
    (dir, armed.ops())
}

/// Crashes the second save at every durable op, keeping 0, 50 and 100 %
/// of it, reopens, and recovers; returns how many cases recovered with
/// nothing to skip (a clean commit's state) out of how many ran.
fn sweep(commit: CommitMode, snaps: &[TrainingSnapshot]) -> (usize, usize) {
    let (dir, ops) = second_save(commit, 0, Fault::Fail, snaps);
    let _ = std::fs::remove_dir_all(dir);
    assert!(
        ops >= 2,
        "a save issues at least the log append and the root write"
    );
    let mut clean = 0;
    for at in 1..=ops {
        for keep_pct in [0, 50, 100] {
            let (dir, _) = second_save(commit, at, Fault::Crash { keep_pct }, snaps);
            let repo = CheckpointRepo::open(&dir).unwrap();
            assert_recovers_known_state(&repo, snaps);
            if repo
                .recover()
                .is_ok_and(|(_, report)| report.skipped.is_empty())
            {
                clean += 1;
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    (clean, 3 * ops as usize)
}

#[test]
fn atomic_commit_survives_every_crash_point() {
    let snaps = snapshots(2);
    // Under the atomic protocol recovery must *succeed* at every op —
    // checkpoint 1 or the complete checkpoint 2 — with nothing to skip.
    let (clean, cases) = sweep(CommitMode::Atomic, &snaps);
    assert_eq!(
        clean, cases,
        "atomic: {clean} of {cases} crashes recovered clean"
    );
}

#[test]
fn inplace_commit_crashes_are_detected_not_silent() {
    let snaps = snapshots(2);
    // Recovery may fall back to snapshot 0 or reach snapshot 1, but it
    // must never hand back a franken-snapshot (checked per case); and the
    // torn record the unsafe order leaves inside the committed region is
    // reported, not silently skipped.
    let (clean, cases) = sweep(CommitMode::InPlaceUnsafe, &snaps);
    assert!(clean < cases, "in-place: every crash recovered clean");
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

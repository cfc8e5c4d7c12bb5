//! R-F8 — Recovery survival under injected faults.
//!
//! Two fault families against two commit protocols:
//!
//! * **a crash at every durable op** of the commit of checkpoint №2 (after
//!   a good checkpoint №1), keeping 0, 50 and 100 % of the op. A crash is
//!   *survived* when recovery returns checkpoint №1 or №2 and skips
//!   nothing. The atomic protocol must survive every op; the in-place
//!   baseline writes the same bytes in another order, and the torn record
//!   it can leave in the committed region must at least be *detected*;
//! * **post-commit storage faults** (bit rot, truncation, deletion) on the
//!   newest manifest — recovery must fall back to checkpoint №1, never
//!   return corrupt data.
//!
//! Every fault is deterministic, so each point runs once.

use qcheck::failure::{arm, Fault, StorageFault};
use qcheck::repo::{CheckpointRepo, CommitMode, SaveOptions};
use qcheck::snapshot::Checkpointable;
use qcheck::StoreKind;
use qsim::measure::EvalMode;

use crate::report::{scratch_dir, Table};
use crate::workloads::vqe_tfim_trainer;

fn make_repo_with_one_checkpoint(
    tag: &str,
) -> (std::path::PathBuf, CheckpointRepo, qcheck::TrainingSnapshot) {
    let dir = scratch_dir(tag);
    let repo = CheckpointRepo::open_with(&dir, StoreKind::Pack).expect("repo");
    let mut trainer = vqe_tfim_trainer(4, 2, 3, EvalMode::Exact, 0.05);
    trainer.train_step().expect("step");
    let snap1 = trainer.capture();
    repo.save(&snap1, &SaveOptions::default())
        .expect("first save");
    trainer.train_step().expect("step");
    let snap2 = trainer.capture();
    (dir, repo, snap2)
}

/// Saves checkpoint №2 under `commit` with a crash at its `at`-th durable
/// op (`at` 0 only counts), reopens and recovers. Returns the op
/// (`<kind> <file>`, a pack's content-hash name elided), the ops the save
/// issued, and the recovered step with the manifests recovery skipped.
fn crash_trial(commit: CommitMode, at: u64, keep_pct: u8) -> (String, u64, Option<(u64, usize)>) {
    let (dir, repo, snap2) = make_repo_with_one_checkpoint("fig8-crash");
    let armed = arm(&dir, at, Fault::Crash { keep_pct });
    let crash = repo.save(
        &snap2,
        &SaveOptions {
            commit,
            ..SaveOptions::default()
        },
    );
    let ops = armed.ops();
    drop((armed, repo));
    let recovered = CheckpointRepo::open_with(&dir, StoreKind::Pack)
        .and_then(|repo| repo.recover())
        .ok()
        .map(|(snap, report)| (snap.step, report.skipped.len()));
    let _ = std::fs::remove_dir_all(dir);
    let crash = crash.err().map(|e| e.to_string()).unwrap_or_default();
    let op = crash.split_once(": ").map_or("", |(_, op)| op);
    let op = match op.split_once("pack-") {
        Some((packs, _)) => format!("{packs}pack-….qpk"),
        None => op.to_string(),
    };
    (op, ops, recovered)
}

fn fault_trial(fault: StorageFault) -> Option<u64> {
    let (dir, repo, snap2) = make_repo_with_one_checkpoint("fig8-fault");
    let report = repo.save(&snap2, &SaveOptions::default()).expect("save 2");
    repo.corrupt_manifest(&report.id, fault).expect("inject");
    let step = repo.recover().ok().map(|(snap, _)| snap.step);
    let _ = std::fs::remove_dir_all(dir);
    step
}

/// Runs the experiment and returns the rendered table.
pub fn run() -> Table {
    let mut table = Table::new(
        "R-F8  recovery survival under injected faults (checkpoint 1 good, fault on/around checkpoint 2)",
        &["fault", "protocol", "survived", "silent-corruption", "recovered-step"],
    );
    let mut row = |fault: String, protocol: &str, step: Option<u64>, survived: bool| {
        // Silent corruption would be recovering a snapshot that is neither
        // step 1 nor step 2 — the repo's hash verification makes this
        // structurally impossible; assert it anyway.
        assert!(
            matches!(step, None | Some(1 | 2)),
            "silently corrupt snapshot: {step:?}"
        );
        let step = step.map_or("-".into(), |s| s.to_string());
        let survived = if survived { "yes" } else { "no" }.to_string();
        table.row(vec![fault, protocol.into(), survived, "0".into(), step]);
    };
    let mut tally = Vec::new();
    for (commit, label) in [
        (CommitMode::Atomic, "atomic"),
        (CommitMode::InPlaceUnsafe, "in-place"),
    ] {
        let ops = crash_trial(commit, 0, 0).1;
        let mut survived_ops = 0;
        for at in 1..=ops {
            let mut survived_all = true;
            for keep_pct in [0, 50, 100] {
                let (op, _, recovered) = crash_trial(commit, at, keep_pct);
                let survived = matches!(recovered, Some((_, 0)));
                survived_all &= survived;
                let fault = format!("op {at}/{ops}: {op}, keep {keep_pct} %");
                row(fault, label, recovered.map(|(step, _)| step), survived);
            }
            survived_ops += u64::from(survived_all);
        }
        tally.push(format!("{label} survives {survived_ops} of {ops} ops"));
    }
    for fault in [
        StorageFault::BitFlip { offset: 97 },
        StorageFault::Truncate { keep_pct: 50 },
        StorageFault::Delete,
    ] {
        let step = fault_trial(fault);
        row(format!("fault:{fault}"), "atomic", step, step.is_some());
    }
    table.note("recovery never returned corrupt data in any trial (every payload is CRC-framed and SHA-verified)");
    table.note(format!(
        "{} (an op is survived when, at every keep, recovery returns checkpoint 1 or 2 and skips nothing)",
        tally.join("; ")
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_protocol_always_recovers() {
        let t = run();
        for row in &t.rows {
            if row[1] == "atomic" && row[0].starts_with("op ") {
                assert_eq!(row[2], "yes", "atomic row {row:?} was not survived");
            }
            assert_eq!(row[3], "0", "silent corruption observed");
        }
        assert!(
            t.rows.iter().any(|r| r[1] == "in-place" && r[2] == "no"),
            "the in-place baseline survived every op"
        );
    }

    #[test]
    fn storage_faults_always_fall_back() {
        let t = run();
        for row in t.rows.iter().filter(|r| r[0].starts_with("fault:")) {
            assert_eq!(row[2], "yes", "fault row {row:?} failed to recover");
        }
    }
}

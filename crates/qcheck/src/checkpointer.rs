//! The [`Checkpointer`]: policy-driven checkpointing of a live training
//! loop.
//!
//! Call [`Checkpointer::on_step`] after every optimizer step with anything
//! implementing [`Checkpointable`]; the configured
//! [`crate::policy::CheckpointPolicy`] implementation decides when a
//! snapshot is captured and committed, and an EWMA of measured write cost
//! feeds back into the cost-aware policy (Young–Daly).

use std::time::Instant;

use crate::error::Result;
use crate::manifest::CheckpointId;
use crate::policy::{CheckpointPolicy, PolicyContext};
use crate::repo::{CheckpointRepo, SaveOptions, SaveReport};
use crate::snapshot::Checkpointable;

/// EWMA factor for the observed checkpoint cost.
const COST_ALPHA: f64 = 0.3;

/// Policy-driven checkpoint writer for a training loop.
#[derive(Debug)]
pub struct Checkpointer {
    repo: CheckpointRepo,
    policy: Box<dyn CheckpointPolicy + Send>,
    options: SaveOptions,
    started: Instant,
    last_checkpoint_step: Option<u64>,
    last_checkpoint_ms: Option<u64>,
    observed_cost_ms: f64,
    history: Vec<SaveReport>,
}

impl Checkpointer {
    /// Creates a checkpointer writing to `repo` under `policy`.
    pub fn new(
        repo: CheckpointRepo,
        policy: Box<dyn CheckpointPolicy + Send>,
        options: SaveOptions,
    ) -> Self {
        Checkpointer {
            repo,
            policy,
            options,
            started: Instant::now(),
            last_checkpoint_step: None,
            last_checkpoint_ms: None,
            observed_cost_ms: 0.0,
            history: Vec::new(),
        }
    }

    /// The underlying repository.
    pub fn repo(&self) -> &CheckpointRepo {
        &self.repo
    }

    /// All save reports so far.
    pub fn history(&self) -> &[SaveReport] {
        &self.history
    }

    /// Total bytes written across all checkpoints.
    pub fn total_bytes_written(&self) -> u64 {
        self.history.iter().map(|r| r.bytes_written()).sum()
    }

    /// EWMA of observed checkpoint write cost, milliseconds.
    pub fn observed_cost_ms(&self) -> f64 {
        self.observed_cost_ms
    }

    /// Asks the policy and, if due, captures and commits a checkpoint.
    ///
    /// Returns the save report when a checkpoint was written.
    ///
    /// # Errors
    ///
    /// Propagates repository failures. The policy state is *not* advanced on
    /// failure, so the next step retries.
    pub fn on_step<T: Checkpointable>(
        &mut self,
        step: u64,
        subject: &T,
    ) -> Result<Option<SaveReport>> {
        let now_ms = self.started.elapsed().as_millis() as u64;
        let ctx = PolicyContext {
            step,
            now_ms,
            last_checkpoint_step: self.last_checkpoint_step,
            last_checkpoint_ms: self.last_checkpoint_ms,
            observed_checkpoint_cost_ms: self.observed_cost_ms,
        };
        if !self.policy.should_checkpoint(&ctx) {
            return Ok(None);
        }
        let report = self.force_checkpoint(step, subject)?;
        Ok(Some(report))
    }

    /// Captures and commits unconditionally.
    ///
    /// # Errors
    ///
    /// Propagates repository failures.
    pub fn force_checkpoint<T: Checkpointable>(
        &mut self,
        step: u64,
        subject: &T,
    ) -> Result<SaveReport> {
        let t0 = Instant::now();
        let snapshot = subject.capture();
        let report = self.repo.save(&snapshot, &self.options)?;
        let cost_ms = t0.elapsed().as_secs_f64() * 1000.0;
        self.observed_cost_ms = if self.observed_cost_ms == 0.0 {
            cost_ms
        } else {
            (1.0 - COST_ALPHA) * self.observed_cost_ms + COST_ALPHA * cost_ms
        };
        self.last_checkpoint_step = Some(step);
        self.last_checkpoint_ms = Some(self.started.elapsed().as_millis() as u64);
        self.history.push(report.clone());
        Ok(report)
    }

    /// Restores `subject` from the newest valid checkpoint (recovery scan).
    ///
    /// Returns the id restored from.
    ///
    /// # Errors
    ///
    /// Fails when no valid checkpoint exists or the snapshot is structurally
    /// incompatible with `subject`.
    pub fn restore_latest<T: Checkpointable>(&self, subject: &mut T) -> Result<CheckpointId> {
        let (snapshot, report) = self.repo.recover()?;
        subject
            .restore(&snapshot)
            .map_err(crate::error::Error::InvalidConfig)?;
        Ok(report.recovered.expect("recover() always names its source"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::EveryKSteps;
    use crate::repo::SaveMode;
    use crate::snapshot::TrainingSnapshot;

    /// A toy training loop: params drift deterministically per step.
    #[derive(Clone, Debug, PartialEq)]
    struct ToyLoop {
        step: u64,
        params: Vec<f64>,
    }

    impl ToyLoop {
        fn new(n: usize) -> Self {
            ToyLoop {
                step: 0,
                params: vec![0.0; n],
            }
        }
        fn advance(&mut self) {
            self.step += 1;
            for (i, p) in self.params.iter_mut().enumerate() {
                *p += 1e-3 * ((self.step + i as u64) as f64).sin();
            }
        }
    }

    impl Checkpointable for ToyLoop {
        fn capture(&self) -> TrainingSnapshot {
            let mut s = TrainingSnapshot::new("toy");
            s.step = self.step;
            s.params = self.params.clone();
            s
        }
        fn restore(&mut self, snapshot: &TrainingSnapshot) -> std::result::Result<(), String> {
            if snapshot.params.len() != self.params.len() {
                return Err(format!(
                    "parameter count mismatch: {} vs {}",
                    snapshot.params.len(),
                    self.params.len()
                ));
            }
            self.step = snapshot.step;
            self.params = snapshot.params.clone();
            Ok(())
        }
    }

    fn temp_repo() -> (std::path::PathBuf, CheckpointRepo) {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "qcheck-ckptr-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let repo = CheckpointRepo::open(&path).unwrap();
        (path, repo)
    }

    #[test]
    fn policy_drives_checkpoint_cadence() {
        let (path, repo) = temp_repo();
        let mut ckptr =
            Checkpointer::new(repo, Box::new(EveryKSteps::new(5)), SaveOptions::default());
        let mut looped = ToyLoop::new(32);
        let mut taken = 0;
        for _ in 0..20 {
            looped.advance();
            if ckptr.on_step(looped.step, &looped).unwrap().is_some() {
                taken += 1;
            }
        }
        assert_eq!(taken, 4, "every-5 over 20 steps");
        assert_eq!(ckptr.history().len(), 4);
        assert!(ckptr.total_bytes_written() > 0);
        assert!(ckptr.observed_cost_ms() > 0.0);
        let _ = std::fs::remove_dir_all(path);
    }

    #[test]
    fn restore_round_trip_resumes_state() {
        let (path, repo) = temp_repo();
        let mut ckptr =
            Checkpointer::new(repo, Box::new(EveryKSteps::new(1)), SaveOptions::default());
        let mut looped = ToyLoop::new(16);
        for _ in 0..7 {
            looped.advance();
            ckptr.on_step(looped.step, &looped).unwrap();
        }
        let expected = looped.clone();

        // "Crash": fresh loop, restore.
        let mut fresh = ToyLoop::new(16);
        let id = ckptr.restore_latest(&mut fresh).unwrap();
        assert_eq!(fresh, expected);
        assert!(id.as_str().contains("0000000007"));
        let _ = std::fs::remove_dir_all(path);
    }

    #[test]
    fn restore_rejects_incompatible_subject() {
        let (path, repo) = temp_repo();
        let mut ckptr =
            Checkpointer::new(repo, Box::new(EveryKSteps::new(1)), SaveOptions::default());
        let mut looped = ToyLoop::new(16);
        looped.advance();
        ckptr.on_step(looped.step, &looped).unwrap();

        let mut wrong = ToyLoop::new(99);
        assert!(ckptr.restore_latest(&mut wrong).is_err());
        let _ = std::fs::remove_dir_all(path);
    }

    #[test]
    fn incremental_mode_produces_deltas() {
        let (path, repo) = temp_repo();
        let mut ckptr = Checkpointer::new(
            repo,
            Box::new(EveryKSteps::new(1)),
            SaveOptions {
                mode: SaveMode::DeltaAuto { max_chain_len: 8 },
                ..SaveOptions::default()
            },
        );
        let mut looped = ToyLoop::new(512);
        for _ in 0..4 {
            looped.advance();
            ckptr.on_step(looped.step, &looped).unwrap();
        }
        let kinds: Vec<bool> = ckptr.history().iter().map(|r| r.is_delta).collect();
        assert_eq!(kinds, vec![false, true, true, true]);
        // Resume still exact through the chain.
        let mut fresh = ToyLoop::new(512);
        ckptr.restore_latest(&mut fresh).unwrap();
        assert_eq!(fresh, looped);
        let _ = std::fs::remove_dir_all(path);
    }

    #[test]
    fn force_checkpoint_ignores_policy() {
        let (path, repo) = temp_repo();
        let mut ckptr = Checkpointer::new(
            repo,
            Box::new(EveryKSteps::new(1_000_000)),
            SaveOptions::default(),
        );
        let looped = ToyLoop::new(4);
        assert!(ckptr.on_step(0, &looped).unwrap().is_none());
        let report = ckptr.force_checkpoint(0, &looped).unwrap();
        assert_eq!(report.chain_len, 0);
        let _ = std::fs::remove_dir_all(path);
    }
}

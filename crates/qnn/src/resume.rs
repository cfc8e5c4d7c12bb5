//! High-level resumable training runs.
//!
//! [`ResumableRun`] is the API a training script actually wants: point it
//! at a repository, give it a way to build the trainer, and call
//! [`ResumableRun::start`]. If the repository already holds a valid
//! checkpoint — because a previous process crashed, was preempted, or just
//! exited — the run resumes from it (exactly); otherwise it starts fresh.
//! During training the embedded [`Checkpointer`] applies its policy after
//! every step — the step waits for the snapshot capture, the save runs on
//! the driver's writer thread — and [`ResumableRun::finish`] writes a
//! final checkpoint and waits for its acknowledgement.

use qcheck::checkpointer::Checkpointer;
use qcheck::error::Error as QcheckError;
use qcheck::manifest::CheckpointId;
use qcheck::policy::CheckpointPolicy;
use qcheck::repo::{CheckpointRepo, SaveOptions, SaveReport};

use crate::trainer::{StepReport, TrainError, Trainer};

/// Errors from the resumable-run driver.
#[derive(Debug)]
pub enum RunError {
    /// Training-step failure.
    Train(TrainError),
    /// Storage failure.
    Storage(QcheckError),
    /// The recovered snapshot does not fit the trainer this run builds.
    Incompatible(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Train(e) => write!(f, "training failure: {e}"),
            RunError::Storage(e) => write!(f, "storage failure: {e}"),
            RunError::Incompatible(msg) => write!(f, "incompatible checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<TrainError> for RunError {
    fn from(e: TrainError) -> Self {
        RunError::Train(e)
    }
}

impl From<QcheckError> for RunError {
    fn from(e: QcheckError) -> Self {
        RunError::Storage(e)
    }
}

/// How a run began.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunStart {
    /// No usable checkpoint existed; training starts at step 0.
    Fresh,
    /// Resumed from the named checkpoint at the given step.
    Resumed {
        /// Checkpoint recovered from.
        id: CheckpointId,
        /// Step at which training continues.
        step: u64,
    },
}

/// A training run bound to a checkpoint repository (pack on this disk,
/// or remote when `QCHECK_REMOTE_ADDR` names a daemon; an existing
/// repository's sticky `STORE` marker wins).
///
/// The run is the repository's one writer: its [`Checkpointer`] holds the
/// writer lock (`LOCK` file lock locally, the namespace's writer lease on
/// a daemon) from [`ResumableRun::start`] until [`ResumableRun::finish`]
/// or drop, so a second trainer pointed at the same directory or
/// namespace fails loudly with `Locked` / `LeaseHeld` instead of
/// interleaving checkpoints. A killed run gives the lock up with its
/// process (or, on a daemon, by lease TTL).
#[derive(Debug)]
pub struct ResumableRun {
    trainer: Trainer,
    checkpointer: Checkpointer,
    start: RunStart,
}

impl ResumableRun {
    /// Builds the run: constructs the trainer, then resumes from the newest
    /// valid checkpoint when one exists.
    ///
    /// # Errors
    ///
    /// Fails on storage errors other than "repository is empty", and on
    /// structurally incompatible checkpoints (the caller changed the model
    /// between runs — refusing loudly beats silently restarting).
    pub fn start(
        trainer: Trainer,
        repo: CheckpointRepo,
        policy: Box<dyn CheckpointPolicy + Send>,
        options: SaveOptions,
    ) -> Result<Self, RunError> {
        let mut trainer = trainer;
        // The writer lock comes first: recovery must not read a
        // repository another run is still writing.
        let mut checkpointer = Checkpointer::new(repo, policy, options)?;
        let start = match checkpointer.restore_latest(&mut trainer) {
            Ok((id, step)) => RunStart::Resumed { id, step },
            Err(QcheckError::NoValidCheckpoint { rejected: 0 }) => RunStart::Fresh,
            Err(QcheckError::InvalidConfig(msg)) => return Err(RunError::Incompatible(msg)),
            // `rejected > 0`: checkpoints exist but none verify — surfacing
            // that matters more than limping on from scratch.
            Err(e) => return Err(RunError::Storage(e)),
        };
        Ok(ResumableRun {
            trainer,
            checkpointer,
            start,
        })
    }

    /// How this run began.
    pub fn start_info(&self) -> &RunStart {
        &self.start
    }

    /// The underlying trainer.
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// The checkpointer (history, observed cost).
    pub fn checkpointer(&self) -> &Checkpointer {
        &self.checkpointer
    }

    /// Runs one step; the policy may hand a checkpoint to the writer
    /// thread afterwards.
    ///
    /// Returns the step report and whether a checkpoint was handed off.
    ///
    /// # Errors
    ///
    /// Propagates training failures and the failure of an earlier save.
    pub fn step(&mut self) -> Result<(StepReport, bool), RunError> {
        let report = self.trainer.train_step()?;
        let handed_off = self.checkpointer.on_step(report.step, &self.trainer)?;
        Ok((report, handed_off))
    }

    /// Trains until `target_step` (inclusive), checkpointing per policy.
    ///
    /// # Errors
    ///
    /// Propagates the first failure.
    pub fn run_to_step(&mut self, target_step: u64) -> Result<Vec<StepReport>, RunError> {
        let mut reports = Vec::new();
        while self.trainer.step_count() < target_step {
            let (report, _) = self.step()?;
            reports.push(report);
        }
        Ok(reports)
    }

    /// Writes a final checkpoint, waits for its acknowledgement, hands
    /// the writer lock to the next run and returns the trainer.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn finish(mut self) -> Result<(Trainer, SaveReport), RunError> {
        let report = self
            .checkpointer
            .force_checkpoint(self.trainer.step_count(), &self.trainer)?;
        self.checkpointer.finish()?;
        Ok((self.trainer, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{hardware_efficient, init_params};
    use crate::optimizer::Adam;
    use crate::trainer::{Task, TrainerConfig};
    use qcheck::policy::EveryKSteps;
    use qsim::measure::EvalMode;
    use qsim::pauli::PauliSum;
    use qsim::rng::Xoshiro256;

    fn scratch() -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qnn-resume-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn build_trainer(qubits: usize) -> Trainer {
        let (circuit, info) = hardware_efficient(qubits, 1);
        let mut rng = Xoshiro256::seed_from(50);
        let params = init_params(info.num_params, &mut rng);
        Trainer::new(
            circuit,
            Task::Vqe {
                hamiltonian: PauliSum::transverse_ising(qubits, 1.0, 0.7),
            },
            Box::new(Adam::new(0.05)),
            params,
            TrainerConfig {
                eval_mode: EvalMode::Shots(32),
                seed: 50,
                ..TrainerConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn fresh_start_when_repo_is_empty() {
        let dir = scratch();
        let repo = CheckpointRepo::open(&dir).unwrap();
        let run = ResumableRun::start(
            build_trainer(3),
            repo,
            Box::new(EveryKSteps::new(2)),
            SaveOptions::default(),
        )
        .unwrap();
        assert_eq!(*run.start_info(), RunStart::Fresh);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn second_process_resumes_and_matches_uninterrupted_run() {
        let dir = scratch();

        // Uninterrupted reference to step 10.
        let mut reference = build_trainer(3);
        let ref_reports: Vec<StepReport> = reference.train_steps(10).unwrap();

        // Process 1: run to step 6, checkpointing every 2 steps, then "die".
        {
            let repo = CheckpointRepo::open(&dir).unwrap();
            let mut run = ResumableRun::start(
                build_trainer(3),
                repo,
                Box::new(EveryKSteps::new(2)),
                SaveOptions::default(),
            )
            .unwrap();
            run.run_to_step(6).unwrap();
            // dropped without finish(): last checkpoint is at step 6.
        }

        // Process 2: resumes at step 6 and continues to 10.
        let repo = CheckpointRepo::open(&dir).unwrap();
        let mut run = ResumableRun::start(
            build_trainer(3),
            repo,
            Box::new(EveryKSteps::new(2)),
            SaveOptions::default(),
        )
        .unwrap();
        match run.start_info() {
            RunStart::Resumed { step, .. } => assert_eq!(*step, 6),
            other => panic!("expected resume, got {other:?}"),
        }
        let tail = run.run_to_step(10).unwrap();
        for (resumed, reference) in tail.iter().zip(&ref_reports[6..]) {
            assert_eq!(resumed.loss.to_bits(), reference.loss.to_bits());
        }
        let (trainer, final_save) = run.finish().unwrap();
        assert_eq!(trainer.step_count(), 10);
        assert_eq!(
            final_save.id.as_str().split('-').nth(1).unwrap(),
            "0000000010"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_resumed_run_checkpoints_one_interval_after_the_one_it_came_from() {
        let dir = scratch();
        let start = || {
            ResumableRun::start(
                build_trainer(3),
                CheckpointRepo::open(&dir).unwrap(),
                Box::new(EveryKSteps::new(5)),
                SaveOptions::default(),
            )
            .unwrap()
        };
        // Killed after the step-5 save: dropped without `finish`.
        start().run_to_step(5).unwrap();

        let mut run = start();
        assert!(matches!(
            run.start_info(),
            RunStart::Resumed { step: 5, .. }
        ));
        let mut saved_at = Vec::new();
        while run.trainer().step_count() < 12 {
            let (report, handed_off) = run.step().unwrap();
            if handed_off {
                saved_at.push(report.step);
            }
        }
        assert_eq!(saved_at, vec![10], "not one step after the resume");
        drop(run);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn incompatible_model_is_refused() {
        let dir = scratch();
        {
            let repo = CheckpointRepo::open(&dir).unwrap();
            let mut run = ResumableRun::start(
                build_trainer(3),
                repo,
                Box::new(EveryKSteps::new(1)),
                SaveOptions::default(),
            )
            .unwrap();
            run.run_to_step(2).unwrap();
        }
        // A different model shape must not silently restart.
        let repo = CheckpointRepo::open(&dir).unwrap();
        let err = ResumableRun::start(
            build_trainer(4),
            repo,
            Box::new(EveryKSteps::new(1)),
            SaveOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Incompatible(_)), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fully_corrupt_repo_is_surfaced_not_restarted() {
        let dir = scratch();
        {
            let repo = CheckpointRepo::open(&dir).unwrap();
            let mut run = ResumableRun::start(
                build_trainer(3),
                repo,
                Box::new(EveryKSteps::new(1)),
                SaveOptions::default(),
            )
            .unwrap();
            run.run_to_step(2).unwrap();
        }
        // Corrupt every manifest record in the log.
        let repo = CheckpointRepo::open(&dir).unwrap();
        for id in repo.list_ids().unwrap() {
            repo.corrupt_manifest(&id, qcheck::failure::StorageFault::BitFlip { offset: 30 })
                .unwrap();
        }
        let err = ResumableRun::start(
            build_trainer(3),
            repo,
            Box::new(EveryKSteps::new(1)),
            SaveOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, RunError::Storage(QcheckError::NoValidCheckpoint { rejected }) if rejected > 0),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

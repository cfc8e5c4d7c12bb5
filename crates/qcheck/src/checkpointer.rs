//! The [`Checkpointer`]: the one save driver, and the repository's one
//! writer.
//!
//! Call [`Checkpointer::on_step`] after every optimizer step with anything
//! implementing [`Checkpointable`]. The configured
//! [`crate::policy::CheckpointPolicy`] decides *when* on the training
//! thread, which then pays only for [`Checkpointable::capture`] and a
//! hand-off: a writer thread owned by the driver runs
//! [`CheckpointRepo::save`], so the optimizer continues while the commit
//! runs. A captured snapshot is immutable, so what is persisted is a
//! consistent point-in-time image however far training has advanced.
//!
//! * **Acknowledged** means the writer thread reported the root flip.
//!   [`Checkpointer::drain`] waits for it,
//!   [`Checkpointer::force_checkpoint`] is hand-off + drain, and dropping
//!   the driver drains too.
//! * **Backpressure is one rule:** at most one save is in flight. A due
//!   checkpoint waits for the previous one; nothing is dropped or
//!   reordered, so ids, delta bases and stored bytes are what a
//!   synchronous loop over [`CheckpointRepo::save`] would write.
//! * **A failed save** surfaces as its typed [`Error`] on the next
//!   [`Checkpointer::on_step`] / [`Checkpointer::drain`] /
//!   [`Checkpointer::finish`], with the policy state rolled back so the
//!   next step retries.
//! * **The cost the policy sees** (Young–Daly's `C`) is an EWMA of the
//!   time the training thread was *blocked* per checkpoint, also recorded
//!   in the `qcheck_step_blocked_ns` histogram.
//! * **Writer exclusion:** the writer thread holds
//!   [`CheckpointRepo::try_lock`] from construction until
//!   [`Checkpointer::finish`] or drop, so a second driver on the same
//!   directory (or daemon namespace) is refused.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::error::{Error, Result};
use crate::manifest::CheckpointId;
use crate::policy::{CheckpointPolicy, PolicyContext};
use crate::repo::{CheckpointRepo, SaveOptions, SaveReport};
use crate::snapshot::{Checkpointable, TrainingSnapshot};

/// EWMA factor for the observed blocked time.
const COST_ALPHA: f64 = 0.3;

/// The writer thread ended without being told to: it panicked (its
/// message is on stderr).
fn writer_gone() -> Error {
    Error::io(
        "handing work to the checkpoint writer thread",
        std::io::Error::new(std::io::ErrorKind::BrokenPipe, "the thread terminated"),
    )
}

/// Policy-driven checkpoint writer for a training loop.
#[derive(Debug)]
pub struct Checkpointer {
    repo: Arc<CheckpointRepo>,
    policy: Box<dyn CheckpointPolicy + Send>,
    started: Instant,
    last_checkpoint_step: Option<u64>,
    last_checkpoint_ms: Option<u64>,
    blocked_cost_ms: f64,
    history: Vec<SaveReport>,
    /// Set to `None` (dropping the sender) to stop the writer thread.
    jobs: Option<SyncSender<Box<TrainingSnapshot>>>,
    acks: Receiver<Result<SaveReport>>,
    writer: Option<JoinHandle<()>>,
    /// While a save is in flight: the `last_checkpoint_*` pair from before
    /// its hand-off, put back if it fails.
    in_flight: Option<(Option<u64>, Option<u64>)>,
}

impl Checkpointer {
    /// Creates the driver: spawns the writer thread, which takes the
    /// repository's writer lock and from then on saves under `options`.
    ///
    /// # Errors
    ///
    /// [`Error::Locked`] (local repository) or [`Error::LeaseHeld`]
    /// (daemon namespace) while another driver holds the writer lock.
    pub fn new(
        repo: CheckpointRepo,
        policy: Box<dyn CheckpointPolicy + Send>,
        options: SaveOptions,
    ) -> Result<Self> {
        Self::with_save(repo, policy, move |repo, snapshot| {
            repo.save(snapshot, &options)
        })
    }

    /// [`Checkpointer::new`] over any save function, so a test can park
    /// or panic the writer thread, which `SaveOptions` cannot.
    fn with_save(
        repo: CheckpointRepo,
        policy: Box<dyn CheckpointPolicy + Send>,
        save: impl Fn(&CheckpointRepo, &TrainingSnapshot) -> Result<SaveReport> + Send + 'static,
    ) -> Result<Self> {
        let repo = Arc::new(repo);
        // Capacity 1 each way: with at most one save in flight, neither
        // the hand-off nor the acknowledgement ever waits for its reader.
        let (jobs, job_rx) = sync_channel::<Box<TrainingSnapshot>>(1);
        let (ack_tx, acks) = sync_channel(1);
        let (locked_tx, locked) = sync_channel(1);
        let writer_repo = Arc::clone(&repo);
        let writer = std::thread::Builder::new()
            .name("qcheck-writer".into())
            .spawn(move || {
                let _lock = match writer_repo.try_lock() {
                    Ok(lock) => {
                        let _ = locked_tx.send(Ok(()));
                        lock
                    }
                    Err(refusal) => {
                        let _ = locked_tx.send(Err(refusal));
                        return;
                    }
                };
                for snapshot in job_rx {
                    if ack_tx.send(save(&writer_repo, &snapshot)).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| Error::io("spawning the checkpoint writer thread", e))?;
        if let Err(refusal) = locked.recv().unwrap_or_else(|_| Err(writer_gone())) {
            let _ = writer.join();
            return Err(refusal);
        }
        Ok(Checkpointer {
            repo,
            policy,
            started: Instant::now(),
            last_checkpoint_step: None,
            last_checkpoint_ms: None,
            blocked_cost_ms: 0.0,
            history: Vec::new(),
            jobs: Some(jobs),
            acks,
            writer: Some(writer),
            in_flight: None,
        })
    }

    /// The underlying repository.
    pub fn repo(&self) -> &CheckpointRepo {
        &self.repo
    }

    /// Reports of the acknowledged saves, oldest first. A save still in
    /// flight joins them at the next [`Checkpointer::on_step`] that finds
    /// it finished, or at [`Checkpointer::drain`].
    pub fn history(&self) -> &[SaveReport] {
        &self.history
    }

    /// EWMA of the time a checkpoint blocked the training thread,
    /// milliseconds — what the policy is handed as the checkpoint cost.
    pub fn observed_cost_ms(&self) -> f64 {
        self.blocked_cost_ms
    }

    /// Asks the policy and, if a checkpoint is due, captures `subject` and
    /// hands the snapshot to the writer thread, waiting first for a save
    /// still in flight. Returns whether a snapshot was handed off.
    ///
    /// # Errors
    ///
    /// The failure of the previous save, if it had one: the policy state
    /// is rolled back to before that save, nothing is handed off by this
    /// call, and the next step retries.
    pub fn on_step<T: Checkpointable>(&mut self, step: u64, subject: &T) -> Result<bool> {
        self.collect(false)?;
        let ctx = PolicyContext {
            step,
            now_ms: self.started.elapsed().as_millis() as u64,
            last_checkpoint_step: self.last_checkpoint_step,
            last_checkpoint_ms: self.last_checkpoint_ms,
            observed_checkpoint_cost_ms: self.blocked_cost_ms,
        };
        if !self.policy.should_checkpoint(&ctx) {
            return Ok(false);
        }
        let t0 = Instant::now();
        self.hand_off(step, subject)?;
        self.record_blocked(t0);
        Ok(true)
    }

    /// Captures and commits unconditionally, returning once the save is
    /// acknowledged.
    ///
    /// # Errors
    ///
    /// The failure of this save or of the one in flight before it.
    pub fn force_checkpoint<T: Checkpointable>(
        &mut self,
        step: u64,
        subject: &T,
    ) -> Result<SaveReport> {
        let t0 = Instant::now();
        self.hand_off(step, subject)?;
        self.drain()?;
        self.record_blocked(t0);
        let report = self.history.last().expect("drain acknowledged the save");
        Ok(report.clone())
    }

    /// Blocks until the save in flight (if any) is acknowledged.
    ///
    /// # Errors
    ///
    /// That save's failure; the policy state is rolled back.
    pub fn drain(&mut self) -> Result<()> {
        self.collect(true)
    }

    /// Drains, stops the writer thread and releases the writer lock.
    /// Dropping the driver does the same and discards the outcome.
    ///
    /// # Errors
    ///
    /// The failure of the last save, or of the writer thread itself.
    pub fn finish(mut self) -> Result<()> {
        self.close()
    }

    /// Restores `subject` from the newest valid checkpoint (recovery
    /// scan), after draining. Returns the id restored from and the step it
    /// holds; the policy counts from that step, so a resumed run's next
    /// checkpoint is due one interval after the one it came from.
    ///
    /// # Errors
    ///
    /// Fails when the save in flight failed, when no valid checkpoint
    /// exists, or ([`Error::InvalidConfig`]) when the snapshot is
    /// structurally incompatible with `subject`.
    pub fn restore_latest<T: Checkpointable>(
        &mut self,
        subject: &mut T,
    ) -> Result<(CheckpointId, u64)> {
        self.drain()?;
        let (snapshot, report) = self.repo.recover()?;
        subject.restore(&snapshot).map_err(Error::InvalidConfig)?;
        self.last_checkpoint_step = Some(snapshot.step);
        let id = report.recovered.expect("recover() always names its source");
        Ok((id, snapshot.step))
    }

    /// Takes the outcome of the save in flight, waiting for it when
    /// `wait`; without `wait`, a save still running is left in flight.
    fn collect(&mut self, wait: bool) -> Result<()> {
        let Some(before) = self.in_flight else {
            return Ok(());
        };
        let outcome = if wait {
            self.acks.recv().unwrap_or_else(|_| Err(writer_gone()))
        } else {
            match self.acks.try_recv() {
                Ok(outcome) => outcome,
                Err(TryRecvError::Empty) => return Ok(()),
                Err(TryRecvError::Disconnected) => Err(writer_gone()),
            }
        };
        self.in_flight = None;
        match outcome {
            Ok(report) => {
                self.history.push(report);
                Ok(())
            }
            Err(e) => {
                (self.last_checkpoint_step, self.last_checkpoint_ms) = before;
                Err(e)
            }
        }
    }

    /// Waits out the save in flight, captures, and hands the snapshot to
    /// the writer thread.
    fn hand_off<T: Checkpointable>(&mut self, step: u64, subject: &T) -> Result<()> {
        self.collect(true)?;
        let snapshot = Box::new(subject.capture());
        let handed = self.jobs.as_ref().map(|jobs| jobs.send(snapshot));
        if !matches!(handed, Some(Ok(()))) {
            return Err(writer_gone());
        }
        self.in_flight = Some((self.last_checkpoint_step, self.last_checkpoint_ms));
        self.last_checkpoint_step = Some(step);
        self.last_checkpoint_ms = Some(self.started.elapsed().as_millis() as u64);
        Ok(())
    }

    fn record_blocked(&mut self, since: Instant) {
        let blocked = since.elapsed();
        crate::obs::STEP_BLOCKED_NS.record_duration(blocked);
        let ms = blocked.as_secs_f64() * 1000.0;
        self.blocked_cost_ms = if self.blocked_cost_ms == 0.0 {
            ms
        } else {
            (1.0 - COST_ALPHA) * self.blocked_cost_ms + COST_ALPHA * ms
        };
    }

    fn close(&mut self) -> Result<()> {
        let drained = self.drain();
        self.jobs = None;
        match self.writer.take().map(JoinHandle::join) {
            Some(Err(_panic)) => drained.and(Err(writer_gone())),
            _ => drained,
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        let _ = self.close();
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

    fn every(k: u64) -> Box<EveryKSteps> {
        Box::new(EveryKSteps::new(k))
    }

    #[test]
    fn policy_drives_checkpoint_cadence() {
        let (path, repo) = temp_repo();
        let mut ckptr = Checkpointer::new(repo, every(5), SaveOptions::default()).unwrap();
        let mut looped = ToyLoop::new(32);
        let mut taken = 0;
        for _ in 0..20 {
            looped.advance();
            if ckptr.on_step(looped.step, &looped).unwrap() {
                taken += 1;
            }
        }
        assert_eq!(taken, 4, "every-5 over 20 steps");
        ckptr.drain().unwrap();
        // Nothing dropped, nothing reordered: one id per due step, in order.
        let ids: Vec<CheckpointId> = ckptr.history().iter().map(|r| r.id.clone()).collect();
        assert_eq!(ids, ckptr.repo().list_ids().unwrap());
        let steps: Vec<u64> = ids
            .iter()
            .map(|id| ckptr.repo().load(id).unwrap().step)
            .collect();
        assert_eq!(steps, vec![5, 10, 15, 20]);
        assert!(ckptr.history().iter().all(|r| r.bytes_written() > 0));
        assert!(ckptr.observed_cost_ms() > 0.0);
        let _ = std::fs::remove_dir_all(path);
    }

    #[test]
    fn restore_round_trip_resumes_state() {
        let (path, repo) = temp_repo();
        let mut ckptr = Checkpointer::new(repo, every(1), SaveOptions::default()).unwrap();
        let mut looped = ToyLoop::new(16);
        for _ in 0..7 {
            looped.advance();
            ckptr.on_step(looped.step, &looped).unwrap();
        }
        let expected = looped.clone();

        // "Crash": fresh loop, restore.
        let mut fresh = ToyLoop::new(16);
        let (id, step) = ckptr.restore_latest(&mut fresh).unwrap();
        assert_eq!(fresh, expected);
        assert!(id.as_str().contains("0000000007"));
        assert_eq!(step, 7);
        let _ = std::fs::remove_dir_all(path);
    }

    #[test]
    fn restore_rejects_incompatible_subject() {
        let (path, repo) = temp_repo();
        let mut ckptr = Checkpointer::new(repo, every(1), SaveOptions::default()).unwrap();
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
        let options = SaveOptions {
            mode: SaveMode::DeltaAuto { max_chain_len: 8 },
            ..SaveOptions::default()
        };
        let mut ckptr = Checkpointer::new(repo, every(1), options).unwrap();
        let mut looped = ToyLoop::new(512);
        for _ in 0..4 {
            looped.advance();
            ckptr.on_step(looped.step, &looped).unwrap();
        }
        // Resume still exact through the chain.
        let mut fresh = ToyLoop::new(512);
        ckptr.restore_latest(&mut fresh).unwrap();
        assert_eq!(fresh, looped);
        let kinds: Vec<bool> = ckptr.history().iter().map(|r| r.is_delta).collect();
        assert_eq!(kinds, vec![false, true, true, true]);
        let _ = std::fs::remove_dir_all(path);
    }

    #[test]
    fn force_checkpoint_ignores_policy() {
        let (path, repo) = temp_repo();
        let mut ckptr = Checkpointer::new(repo, every(1_000_000), SaveOptions::default()).unwrap();
        let looped = ToyLoop::new(4);
        assert!(!ckptr.on_step(0, &looped).unwrap());
        let report = ckptr.force_checkpoint(0, &looped).unwrap();
        assert_eq!(report.chain_len, 0);
        assert_eq!(ckptr.repo().read_latest().unwrap(), Some(report.id));
        let _ = std::fs::remove_dir_all(path);
    }

    /// The step waits for capture and hand-off, not for the save: with
    /// the writer thread parked inside its save, `on_step` returns, later
    /// steps that are not due do not block either, and only `drain`
    /// acknowledges.
    #[test]
    fn on_step_returns_while_the_writer_is_still_saving() {
        let (path, repo) = temp_repo();
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let mut ckptr = Checkpointer::with_save(repo, every(2), move |repo, snapshot| {
            let _ = parked.recv();
            repo.save(snapshot, &SaveOptions::default())
        })
        .unwrap();
        let mut looped = ToyLoop::new(64);
        looped.advance();
        looped.advance();
        assert!(ckptr.on_step(2, &looped).unwrap());
        looped.advance();
        assert!(!ckptr.on_step(3, &looped).unwrap());
        assert!(ckptr.history().is_empty(), "nothing is acknowledged yet");
        assert_eq!(ckptr.repo().read_latest().unwrap(), None);

        release.send(()).unwrap();
        ckptr.drain().unwrap();
        assert_eq!(ckptr.history().len(), 1);
        let (snapshot, _) = ckptr.repo().recover().unwrap();
        assert_eq!(snapshot.step, 2, "the image is the one captured at step 2");
        let _ = std::fs::remove_dir_all(path);
    }

    #[test]
    fn drop_drains_the_save_in_flight() {
        let (path, repo) = temp_repo();
        {
            let mut ckptr = Checkpointer::new(repo, every(1), SaveOptions::default()).unwrap();
            let mut looped = ToyLoop::new(2000);
            for _ in 0..9 {
                looped.advance();
            }
            assert!(ckptr.on_step(9, &looped).unwrap());
            // No drain: Drop must wait for the acknowledgement.
        }
        let (snapshot, _) = CheckpointRepo::open(&path).unwrap().recover().unwrap();
        assert_eq!(snapshot.step, 9);
        let _ = std::fs::remove_dir_all(path);
    }

    /// Each durable op of the first save in turn fails with an I/O error
    /// (the fault plan reaches the writer thread: it is scoped by path).
    #[test]
    fn a_failed_save_surfaces_on_the_next_call_and_the_next_step_retries() {
        use crate::failure::{arm, Fault};
        let mut at = 1;
        loop {
            let (path, repo) = temp_repo();
            let root = path.clone();
            let failed_once = std::sync::atomic::AtomicBool::new(false);
            let mut ckptr = Checkpointer::with_save(repo, every(2), move |repo, snapshot| {
                let first = !failed_once.swap(true, std::sync::atomic::Ordering::SeqCst);
                let _armed = first.then(|| arm(&root, at, Fault::Fail));
                repo.save(snapshot, &SaveOptions::default())
            })
            .unwrap();
            let mut looped = ToyLoop::new(16);
            looped.advance();
            looped.advance();
            assert!(ckptr.on_step(2, &looped).unwrap(), "the hand-off succeeds");
            match ckptr.drain() {
                Err(Error::Io { .. }) => {}
                // Past the save's last op: every op has been failed once.
                Ok(()) if at > 1 => {
                    drop(ckptr);
                    let _ = std::fs::remove_dir_all(path);
                    break;
                }
                other => panic!("op {at}: {other:?}"),
            }
            assert!(ckptr.drain().is_ok(), "an error is reported once");
            // Every-2 would next fire at step 4 had step 2 counted.
            looped.advance();
            assert!(
                ckptr.on_step(3, &looped).unwrap(),
                "policy state rolled back"
            );
            ckptr.drain().unwrap();
            assert_eq!(ckptr.history().len(), 1);
            let mut fresh = ToyLoop::new(16);
            ckptr.restore_latest(&mut fresh).unwrap();
            assert_eq!(fresh, looped);
            drop(ckptr);
            let _ = std::fs::remove_dir_all(path);
            at += 1;
        }
    }

    /// A panic on the writer thread is a typed error on this side — at
    /// drain, at the next hand-off, at finish — and the repository handle
    /// and the writer lock both survive it.
    #[test]
    fn a_dead_writer_thread_is_a_typed_error_not_a_second_panic() {
        let (path, repo) = temp_repo();
        let mut ckptr =
            Checkpointer::with_save(repo, every(1), |_, _| panic!("injected writer panic"))
                .unwrap();
        let broken_pipe = |outcome: Result<()>| match outcome {
            Err(Error::Io { source, .. }) => source.kind() == std::io::ErrorKind::BrokenPipe,
            _ => false,
        };
        let looped = ToyLoop::new(4);
        assert!(ckptr.on_step(1, &looped).unwrap());
        assert!(broken_pipe(ckptr.drain()));
        assert!(broken_pipe(ckptr.on_step(2, &looped).map(|_| ())));
        assert!(ckptr.repo().read_latest().unwrap().is_none());
        // The unwinding thread dropped the writer lock with its stack.
        let next = Checkpointer::new(
            CheckpointRepo::open(&path).unwrap(),
            every(1),
            SaveOptions::default(),
        );
        assert!(next.is_ok(), "{:?}", next.err());
        assert!(broken_pipe(ckptr.finish()));
        let _ = std::fs::remove_dir_all(path);
    }
}

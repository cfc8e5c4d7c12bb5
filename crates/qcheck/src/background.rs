//! Asynchronous (background) checkpointing.
//!
//! A synchronous checkpoint stalls the training loop for the full write
//! latency. [`BackgroundCheckpointer`] moves the commit off the critical
//! path: the training thread captures a snapshot (memory copy, microseconds)
//! and hands it to a writer thread; the optimizer continues while the commit
//! runs. The snapshot is immutable once captured, so the persisted state is
//! a consistent point-in-time image no matter how far training has advanced.
//!
//! With [`crate::repo::SaveOptions::threads`] > 1 the writer thread runs
//! the *parallel* encode pipeline (per-section compression + per-chunk
//! hashing fan-out), so the commit both overlaps training **and** finishes
//! sooner — the "pipelined checkpoint encode" configuration the benches
//! measure.
//!
//! Semantics:
//!
//! * **Latest-wins queueing.** If a new snapshot arrives while the writer is
//!   busy, it replaces any snapshot still waiting — the queue never grows,
//!   and the writer always commits the freshest consistent state it has.
//! * **Error surfacing.** Write failures are reported on the next
//!   [`BackgroundCheckpointer::submit`]/[`BackgroundCheckpointer::drain`]
//!   call; they are never silently dropped.
//! * **Drain on shutdown.** Dropping the handle flushes the pending
//!   snapshot (best effort); [`BackgroundCheckpointer::drain`] does so
//!   explicitly and reports the outcome.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;

use crate::error::{Error, Result};
use crate::repo::{CheckpointRepo, SaveOptions, SaveReport};
use crate::snapshot::TrainingSnapshot;

enum Job {
    Save(Box<TrainingSnapshot>),
    Shutdown,
}

/// Handle to the background writer thread.
#[derive(Debug)]
pub struct BackgroundCheckpointer {
    job_tx: SyncSender<Job>,
    report_rx: Receiver<Result<SaveReport>>,
    worker: Option<JoinHandle<()>>,
    in_flight: usize,
    completed: Vec<SaveReport>,
    pending_error: Option<Error>,
    /// Snapshots dropped because a fresher one replaced them.
    superseded: u64,
}

impl BackgroundCheckpointer {
    /// Spawns the writer thread over `repo` with fixed save options.
    pub fn spawn(repo: CheckpointRepo, options: SaveOptions) -> Self {
        // Capacity 1: one job may wait while one is being written.
        let (job_tx, job_rx) = sync_channel::<Job>(1);
        let (report_tx, report_rx) = sync_channel::<Result<SaveReport>>(1024);
        let worker = std::thread::Builder::new()
            .name("qcheck-bg-writer".into())
            .spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    match job {
                        Job::Shutdown => break,
                        Job::Save(snapshot) => {
                            let result = repo.save(&snapshot, &options);
                            // Receiver gone ⇒ handle dropped mid-flush; stop.
                            if report_tx.send(result).is_err() {
                                break;
                            }
                        }
                    }
                }
            })
            .expect("spawn background writer");
        BackgroundCheckpointer {
            job_tx,
            report_rx,
            worker: Some(worker),
            in_flight: 0,
            completed: Vec::new(),
            pending_error: None,
            superseded: 0,
        }
    }

    /// Submits a snapshot for asynchronous commit. Returns immediately.
    ///
    /// If a snapshot is still queued (writer busy), it is replaced by this
    /// fresher one (latest-wins).
    ///
    /// # Errors
    ///
    /// Returns the first *previous* write failure, if one is pending — the
    /// submission itself still happens.
    pub fn submit(&mut self, snapshot: TrainingSnapshot) -> Result<()> {
        let job = Job::Save(Box::new(snapshot));
        match self.job_tx.try_send(job) {
            Ok(()) => {
                self.in_flight += 1;
            }
            Err(TrySendError::Full(j)) => {
                // Displace the queued (stale) snapshot: pulling it out from
                // the sender side is impossible, so drain any finished
                // reports and block-send the fresh job; the stale one ahead
                // of it is simply written first (still consistent).
                self.collect_reports();
                self.superseded += 1;
                if self.job_tx.send(j).is_err() {
                    return Err(Error::InvalidConfig("background writer terminated".into()));
                }
                self.in_flight += 1;
            }
            Err(TrySendError::Disconnected(_)) => {
                return Err(Error::InvalidConfig("background writer terminated".into()));
            }
        }
        self.collect_reports();
        self.take_first_error()
    }

    fn collect_reports(&mut self) {
        while let Ok(result) = self.report_rx.try_recv() {
            self.in_flight -= 1;
            match result {
                Ok(report) => self.completed.push(report),
                Err(e) => {
                    self.pending_error.get_or_insert(e);
                }
            }
        }
    }

    fn take_first_error(&mut self) -> Result<()> {
        match self.pending_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Completed save reports so far (drained lazily).
    pub fn completed(&mut self) -> &[SaveReport] {
        self.collect_reports();
        &self.completed
    }

    /// Number of submissions not yet committed.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Count of submissions that found the queue full (backpressure
    /// events). With the capacity-1 queue nothing is actually dropped —
    /// the queued snapshot is written before the fresh one — so this
    /// measures how often the writer lagged the training loop, not
    /// missing checkpoints.
    pub fn superseded(&self) -> u64 {
        self.superseded
    }

    /// Blocks until every submitted snapshot is committed; returns the
    /// first error encountered, if any.
    ///
    /// # Errors
    ///
    /// Surfaces the first background write failure.
    pub fn drain(&mut self) -> Result<()> {
        while self.in_flight > 0 {
            match self.report_rx.recv() {
                Ok(result) => {
                    self.in_flight -= 1;
                    match result {
                        Ok(report) => self.completed.push(report),
                        Err(e) => {
                            self.pending_error.get_or_insert(e);
                        }
                    }
                }
                Err(_) => return Err(Error::InvalidConfig("background writer terminated".into())),
            }
        }
        self.take_first_error()
    }
}

impl Drop for BackgroundCheckpointer {
    fn drop(&mut self) {
        let _ = self.drain();
        let _ = self.job_tx.send(Job::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::StateBlob;

    fn scratch() -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qcheck-bg-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn snapshot_at(step: u64) -> TrainingSnapshot {
        let mut s = TrainingSnapshot::new("bg");
        s.step = step;
        s.params = vec![step as f64; 2000];
        s.optimizer = StateBlob::new("adam-v1", vec![1; 64]);
        s
    }

    #[test]
    fn background_commits_land_on_disk() {
        let dir = scratch();
        let repo = CheckpointRepo::open(&dir).unwrap();
        let mut bg = BackgroundCheckpointer::spawn(
            CheckpointRepo::open(&dir).unwrap(),
            SaveOptions::default(),
        );
        for step in 1..=5 {
            bg.submit(snapshot_at(step)).unwrap();
        }
        bg.drain().unwrap();
        assert_eq!(bg.in_flight(), 0);
        assert!(bg.completed().len() + bg.superseded() as usize >= 5);
        let (snap, _) = repo.recover().unwrap();
        assert_eq!(snap.step, 5, "freshest snapshot must be recoverable");
        drop(bg);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn submit_returns_quickly_while_writer_works() {
        let dir = scratch();
        let mut bg = BackgroundCheckpointer::spawn(
            CheckpointRepo::open(&dir).unwrap(),
            SaveOptions::default(),
        );
        // Large snapshots so the writer has actual work.
        let mut big = snapshot_at(1);
        big.params = vec![0.5; 400_000];
        let t0 = std::time::Instant::now();
        for step in 1..=3 {
            let mut s = big.clone();
            s.step = step;
            bg.submit(s).unwrap();
        }
        let submit_time = t0.elapsed();
        bg.drain().unwrap();
        let total_time = t0.elapsed();
        // Submission must not cost the full write time of 3 × 3.2 MB.
        assert!(
            submit_time < total_time,
            "submit {submit_time:?} vs total {total_time:?}"
        );
        drop(bg);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn drop_flushes_pending_snapshots() {
        let dir = scratch();
        {
            let mut bg = BackgroundCheckpointer::spawn(
                CheckpointRepo::open(&dir).unwrap(),
                SaveOptions::default(),
            );
            bg.submit(snapshot_at(9)).unwrap();
            // No drain: Drop must flush.
        }
        let repo = CheckpointRepo::open(&dir).unwrap();
        let (snap, _) = repo.recover().unwrap();
        assert_eq!(snap.step, 9);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn incremental_mode_works_in_background() {
        let dir = scratch();
        let mut bg = BackgroundCheckpointer::spawn(
            CheckpointRepo::open(&dir).unwrap(),
            SaveOptions::incremental(8),
        );
        for step in 1..=6 {
            bg.submit(snapshot_at(step)).unwrap();
        }
        bg.drain().unwrap();
        let deltas = bg.completed().iter().filter(|r| r.is_delta).count();
        assert!(deltas >= 1, "no deltas written in background");
        drop(bg);
        let _ = std::fs::remove_dir_all(dir);
    }
}

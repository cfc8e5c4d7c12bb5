//! One episode: set up → train with a checkpoint after every step → kill →
//! resume N times → continue, with every correctness oracle on.
//!
//! The same code runs untraced and traced. Every public call into the system
//! under test is timed here (and, when the recorder is on, wrapped in a span
//! of the same name); the traced run additionally pauses after every 4th
//! save and after every resume for a staged replay (see [`crate::stages`]).

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use qcheck::manifest::CheckpointId;
use qcheck::repo::{CheckpointRepo, Retention, SaveOptions, SaveReport};
use qcheck::snapshot::TrainingSnapshot;
use qcheck::store::StoreKind;
use qsim::rng::Xoshiro256;

use crate::site::{list_files, Site};
use crate::spec::{Shape, Spec, StoreSpec, SubjectSpec, LOAD_WINDOW};
use crate::stages::{self, Scratch, SimStages, StageCounts};
use crate::stats::p50;
use crate::subject::{DenseSubject, SimSubject, Subject};
use crate::trace::Tracer;

/// Every 4th save of a traced episode is replayed stage by stage.
const REPLAY_EVERY: u64 = 4;
/// `qpar` fan-out samples per traced episode.
const FANOUT_SAMPLES: usize = 64;

/// Operations attempted and failed: steps, saves, loads, resumes, retention
/// passes and oracle checks.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Ops {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Counts one operation; an `Err` is a failure and ends the episode.
    fn run<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            let message = format!("{what}: {e}");
            self.fail(message.clone());
            message
        })
    }

    /// Counts one oracle check; a miss is a failure but the episode goes on.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("oracle: {what}"));
        }
    }
}

/// Everything the episodes of one run measured. Timings are kept as samples;
/// the report reduces them.
#[derive(Debug, Default)]
pub struct Samples {
    pub ops: Ops,
    pub episodes: u64,
    pub setup_s: Vec<f64>,
    /// Pre-kill loop wall time and steps, summed over episodes.
    pub loop_s: f64,
    pub loop_steps: u64,
    /// Steps ÷ pre-kill loop wall time of each episode.
    pub steps_per_s: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub capture_us: Vec<f64>,
    /// `capture()` + `repo.save()` per checkpoint: the stall a save imposes.
    pub save_ms: Vec<f64>,
    /// `repo.save()` alone, split by what was written.
    pub save_full_ms: Vec<f64>,
    pub save_delta_ms: Vec<f64>,
    /// `repo.save()` of the saves that were then replayed stage by stage.
    pub replayed_save_us: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub retention_ms: Vec<f64>,
    pub gc_ms: Vec<f64>,
    pub gc_bytes_rewritten: u64,
    /// Drop every handle → open → recover → restore, per resume.
    pub resume_ms: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub restore_us: Vec<f64>,
    pub reports: Vec<SaveReport>,
    /// Reports of the post-resume saves, the only ones made with `fsync` on:
    /// the source of the flush counts.
    pub durable_reports: Vec<SaveReport>,
    pub evals: Vec<f64>,
    /// Bytes on disk and logical bytes of retained checkpoints at each kill.
    pub disk_bytes: u64,
    pub retained_logical_bytes: u64,
    pub recover_chain_len: Vec<f64>,
    pub manifests_tried: Vec<f64>,
    pub pack_index_rescans: u64,
    pub round_trips_per_save: Vec<f64>,
    pub round_trips_per_resume: Vec<f64>,
    pub wire_out_per_save: Vec<f64>,
    pub wire_in_per_resume: Vec<f64>,
    pub requests_per_save: Vec<f64>,
    pub oplog_entries_per_save: Vec<f64>,
    pub retries: u64,
    pub stage_counts: StageCounts,
    pub passes_per_run: u64,
    pub amp_bytes_per_run: u64,
    /// Store kind the library actually opened.
    pub store_kind: Option<StoreKind>,
    /// One value per episode, which the end-to-end report reduces with
    /// [`crate::stats::best_decile`]: the median of the set-ups made since
    /// the episode before, of this episode's save stalls and of its resumes
    /// (`steps_per_s` above is per episode already).
    pub episode_setup_s: Vec<f64>,
    pub episode_save_ms: Vec<f64>,
    pub episode_resume_ms: Vec<f64>,
    /// `VmHWM` at the end of each episode, the mark having been reset when
    /// the episode began. Where the kernel refuses the reset only the first
    /// episode reads: without it the mark creeps up with every episode
    /// (allocator fragmentation) and the value depends on how many fitted.
    pub episode_peak_rss_mib: Vec<f64>,
    /// `setup_s.len()` when the last episode began.
    pub setups_seen: usize,
}

/// The fixed inputs of a run.
pub struct Run<'a> {
    pub spec: Spec,
    pub seed: u64,
    pub threads: usize,
    /// Directory episodes create their sites under.
    pub work: &'a Path,
    pub tracer: &'a Tracer,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f` (and records a span of the same name when the recorder is on).
fn timed<R>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let _g = tracer.span(name);
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Value of a process-wide `qobs` counter. The daemon runs in this process,
/// so its registry — what its `METRICS` op renders — is this one.
fn counter(name: &str) -> u64 {
    qobs::counter(name).get()
}

/// Σ of the daemon's per-op request counters for the run's own namespace
/// (the staged replays talk to a scratch namespace, which must not count).
fn daemon_requests() -> u64 {
    let own = format!("ns=\"{}\"", crate::site::NAMESPACE);
    qobs::text_exposition()
        .lines()
        .filter(|l| l.starts_with("qckptd_requests_total{"))
        .filter(|l| {
            l.split_once(own.as_str())
                .is_some_and(|(_, rest)| rest.starts_with([',', '}']))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

fn round_trips(repo: &CheckpointRepo) -> u64 {
    repo.store().remote().map_or(0, |r| r.round_trips())
}

impl Run<'_> {
    fn build_subject(&self, seed: u64) -> Result<Box<dyn Subject>, String> {
        Ok(match self.spec.subject {
            SubjectSpec::Sim { qubits, layers } => Box::new(SimSubject::new(qubits, layers, seed)?),
            SubjectSpec::Dense { blocks, active } => {
                Box::new(DenseSubject::new(blocks, active, seed))
            }
        })
    }

    /// Timed saves do not flush (`durable == false`): on this sandbox's
    /// virtual disk a flush takes 0.3–3 ms depending on what the host is
    /// doing, which put a 13–40 % run-to-run spread on every metric a save
    /// touches. What the program controls is how often it flushes, and that
    /// is counted exactly from the post-resume saves, which do flush.
    fn save_options(&self, step: u64, durable: bool) -> SaveOptions {
        SaveOptions {
            fsync: durable,
            created_unix_ms: Some(step),
            ..SaveOptions::incremental(self.spec.max_chain)
        }
    }

    /// Everything before step 1: directories, daemon, subject (with its
    /// compiled plan), open repository.
    fn setup(&self, tag: &str) -> Result<(Site, Box<dyn Subject>, CheckpointRepo), String> {
        let mut site = Site::create(&self.work.join(tag), self.spec.store)?;
        let subject = self.build_subject(self.seed)?;
        let repo = site.open()?;
        Ok((site, subject, repo))
    }

    /// One set-up that is torn down again at once: an extra `setup_s` sample.
    pub fn setup_only(&self, s: &mut Samples) -> Result<(), String> {
        let t = Instant::now();
        let built = self.setup("setup");
        let elapsed = t.elapsed();
        let (site, subject, repo) = s.ops.run("setup", built)?;
        s.setup_s.push(elapsed.as_secs_f64());
        drop((subject, repo));
        site.destroy();
        Ok(())
    }

    /// Runs one episode. `replay` turns the staged replays on (traced run).
    pub fn episode(&self, s: &mut Samples, replay: bool) -> Result<(), String> {
        let peak_is_this_episodes = crate::report::reset_peak_rss() || s.episodes == 0;
        let (saves_seen, resumes_seen) = (s.save_ms.len(), s.resume_ms.len());
        let t = Instant::now();
        let built = self.setup("episode");
        let elapsed = t.elapsed();
        let (mut site, subject, repo) = s.ops.run("setup", built)?;
        s.setup_s.push(elapsed.as_secs_f64());
        s.episode_setup_s.push(p50(&s.setup_s[s.setups_seen..]));
        s.setups_seen = s.setup_s.len();
        s.store_kind = Some(repo.store_kind());
        let outcome = self.episode_on(s, &mut site, subject, repo, replay);
        site.destroy();
        s.episodes += 1;
        if outcome.is_ok() {
            s.episode_save_ms.push(p50(&s.save_ms[saves_seen..]));
            s.episode_resume_ms.push(p50(&s.resume_ms[resumes_seen..]));
            if peak_is_this_episodes {
                s.episode_peak_rss_mib.push(crate::report::peak_rss_mib());
            }
        }
        outcome
    }

    fn episode_on(
        &self,
        s: &mut Samples,
        site: &mut Site,
        mut subject: Box<dyn Subject>,
        repo: CheckpointRepo,
        replay: bool,
    ) -> Result<(), String> {
        let spec = &self.spec;
        let tracer = self.tracer;
        let remote = spec.store == StoreSpec::RemotePack;

        let mut scratch = None;
        let mut sim_stages = None;
        if replay {
            stages::replay_fanout(tracer, self.threads, FANOUT_SAMPLES);
            let store = site.scratch_store(&repo)?;
            scratch = Some(Scratch::new(site.scratch_dir(), store)?);
            if let SubjectSpec::Sim { qubits, layers } = spec.subject {
                sim_stages = Some(SimStages::new(tracer, qubits, layers)?);
            }
        }

        // ---- train, checkpointing after every step -------------------------
        let mut load_rng = Xoshiro256::seed_from(self.seed ^ 0x10ad_10ad);
        let mut window: VecDeque<(CheckpointId, TrainingSnapshot)> = VecDeque::new();
        let mut last_ack: Option<TrainingSnapshot> = None;
        let mut shape = Shape {
            chain_len: 0,
            saves: 0,
            fulls: 0,
            deltas: 0,
            logical_bytes: 0,
        };
        let requests0 = if remote { daemon_requests() } else { 0 };
        let oplog0 = match repo.store().remote() {
            Some(r) => r.status().map_err(|e| e.to_string())?.oplog_entries,
            None => 0,
        };
        let loop_start = Instant::now();
        let mut paused = Duration::ZERO;
        for step in 1..=spec.steps {
            tracer.next_op("step");
            let (out, d) = timed(tracer, "train_step", || subject.step(tracer));
            let out = s.ops.run("train_step", out)?;
            s.step_ms.push(ms(d));
            s.evals.push(f64::from(out.evals));

            let options = self.save_options(step, false);
            let wire = remote.then(|| (round_trips(&repo), counter("qckptd_bytes_in_total")));
            let (snapshot, capture) = timed(tracer, "capture", || subject.capture());
            let (report, save) = timed(tracer, "repo.save", || repo.save(&snapshot, &options));
            let report = s.ops.run("save", report)?;
            s.capture_us.push(us(capture));
            s.save_ms.push(ms(capture + save));
            if report.is_delta {
                s.save_delta_ms.push(ms(save));
                shape.deltas += 1;
            } else {
                s.save_full_ms.push(ms(save));
                shape.fulls += 1;
            }
            shape.saves += 1;
            shape.chain_len = report.chain_len;
            shape.logical_bytes += report.logical_bytes;
            if let Some((trips0, wire0)) = wire {
                s.round_trips_per_save
                    .push((round_trips(&repo) - trips0) as f64);
                s.wire_out_per_save
                    .push((counter("qckptd_bytes_in_total") - wire0) as f64);
            }

            if replay && step % REPLAY_EVERY == 0 {
                let pause = Instant::now();
                s.replayed_save_us.push(us(save));
                let base = match (&last_ack, report.is_delta) {
                    (Some(prev), true) => Some(prev.to_sections()),
                    _ => None,
                };
                stages::replay_save(
                    tracer,
                    scratch.as_mut().expect("scratch exists when replaying"),
                    &mut s.stage_counts,
                    &snapshot,
                    base.as_deref(),
                    &options,
                )?;
                if let Some(sim) = sim_stages.as_mut() {
                    sim.replay_step(tracer, &snapshot.params)?;
                }
                tracer.next_op("step");
                paused += pause.elapsed();
            }

            if spec.load_every.is_some() {
                if window.len() == LOAD_WINDOW {
                    window.pop_front();
                }
                window.push_back((report.id.clone(), snapshot.clone()));
            }
            s.reports.push(report);
            last_ack = Some(snapshot);

            if spec.load_every.is_some_and(|n| step % n == 0) {
                let pick = load_rng.next_below(window.len() as u64) as usize;
                let (id, saved) = &window[pick];
                let (loaded, d) = timed(tracer, "repo.load", || repo.load(id));
                let loaded = s.ops.run("load", loaded)?;
                s.load_ms.push(ms(d));
                s.ops
                    .check("load(id) equals what was saved under id", &loaded == saved);
            }
            if let Some(r) = spec.retention.filter(|r| step % r.every == 0) {
                let packs_before = replay.then(|| list_files(&site.packs_dir()));
                let gc_ns0 = qobs::histogram("qcheck_gc_ns").sum();
                let (pass, d) = timed(tracer, "repo.apply_retention", || {
                    repo.apply_retention(Retention::KeepLast(r.keep_last))
                });
                s.ops.run("apply_retention", pass)?;
                s.retention_ms.push(ms(d));
                s.gc_ms
                    .push((qobs::histogram("qcheck_gc_ns").sum() - gc_ns0) as f64 / 1e6);
                if let Some(before) = packs_before {
                    let pause = Instant::now();
                    // Packs that exist now but did not before are rewrites.
                    s.gc_bytes_rewritten += list_files(&site.packs_dir())
                        .iter()
                        .filter(|f| !before.contains(f))
                        .map(|f| f.1)
                        .sum::<u64>();
                    paused += pause.elapsed();
                }
            }
        }
        let loop_s = (loop_start.elapsed() - paused).as_secs_f64();
        s.loop_s += loop_s;
        s.loop_steps += spec.steps;
        s.steps_per_s.push(spec.steps as f64 / loop_s);

        // ---- the state at the kill ----------------------------------------
        let last_ack = last_ack.ok_or("episode made no save")?;
        if remote {
            let saves = spec.steps as f64;
            s.requests_per_save
                .push((daemon_requests() - requests0) as f64 / saves);
            if let Some(r) = repo.store().remote() {
                // Counts every namespace: only an episode without staged
                // replays (which write to the scratch namespace) reads true.
                let status = r.status().map_err(|e| e.to_string())?;
                s.oplog_entries_per_save
                    .push((status.oplog_entries - oplog0) as f64 / saves);
            }
        }
        s.ops.check(
            &format!(
                "episode shape {shape:?} equals the recorded {:?}",
                spec.shape
            ),
            shape == spec.shape,
        );
        s.disk_bytes += site.disk_bytes();
        for id in s.ops.run("list_ids", repo.list_ids())? {
            let manifest = s.ops.run("load_manifest", repo.load_manifest(&id))?;
            s.retained_logical_bytes += manifest.logical_bytes();
        }
        s.pack_index_rescans += repo.store().pack().map_or(0, |p| p.index_rescans());

        // The never-killed twin is the subject itself; the resumed run gets a
        // fresh subject built from a different seed, so every bit it ends up
        // with has to come out of the checkpoint.
        let mut twin = subject;
        let mut resumed = self.build_subject(self.seed ^ 0x5eed_5eed)?;

        // ---- kill, then resume --------------------------------------------
        let expected_sections = last_ack.to_sections();
        let mut handle = Some(repo);
        for _ in 0..spec.resumes {
            tracer.next_op("resume");
            let wire_out0 = counter("qckptd_bytes_out_total");
            let start = Instant::now();
            drop(handle.take());
            let (opened, open) = timed(tracer, "open", || site.open());
            let repo = s.ops.run("open", opened)?;
            let (recovered, recover) = timed(tracer, "repo.recover", || repo.recover());
            let (snapshot, recovery) = s.ops.run("recover", recovered)?;
            let (restored, restore) = timed(tracer, "restore", || resumed.restore(&snapshot));
            s.ops.run("restore", restored)?;
            s.resume_ms.push(ms(start.elapsed()));
            s.open_ms.push(ms(open));
            s.recover_ms.push(ms(recover));
            s.restore_us.push(us(restore));

            s.manifests_tried.push(recovery.manifests_tried as f64);
            s.ops
                .check("manifests_tried == 1", recovery.manifests_tried == 1);
            s.ops.check(
                "recovered section bytes equal the last acknowledged capture",
                snapshot.to_sections() == expected_sections,
            );
            let tip = recovery.recovered.as_ref().map(|id| repo.load_manifest(id));
            if let Some(Ok(manifest)) = tip {
                s.recover_chain_len.push(f64::from(manifest.chain_len));
            }
            if remote {
                s.round_trips_per_resume.push(round_trips(&repo) as f64);
                s.wire_in_per_resume
                    .push((counter("qckptd_bytes_out_total") - wire_out0) as f64);
            }
            s.pack_index_rescans += repo.store().pack().map_or(0, |p| p.index_rescans());
            if replay {
                let rebuilt = stages::replay_recover(tracer, &repo)?;
                s.ops.check(
                    "staged recover rebuilds the snapshot recover() returned",
                    rebuilt == snapshot,
                );
            }
            handle = Some(repo);
        }

        // ---- continue: the resumed run against the never-killed twin --------
        let repo = handle.ok_or("workload has no resume")?;
        let mut last_saved = last_ack;
        for k in 1..=spec.post_steps {
            tracer.next_op("post_step");
            let a = s.ops.run("train_step", twin.step(tracer))?;
            let b = s.ops.run("train_step", resumed.step(tracer))?;
            s.ops
                .check("post-resume step is bit-identical to the twin's", a == b);
            last_saved = resumed.capture();
            let saved = repo.save(&last_saved, &self.save_options(spec.steps + k, true));
            s.durable_reports.push(s.ops.run("save", saved)?);
        }
        s.ops.check(
            "post-resume parameters are bit-identical to the twin's",
            twin.param_bits() == resumed.param_bits(),
        );
        let (tip, loaded) = s.ops.run("load_latest", repo.load_latest())?;
        s.ops.check(
            &format!("the tip {tip} loads back as the last snapshot saved"),
            loaded == last_saved,
        );
        if spec.fsck {
            let fsck = s.ops.run("fsck", qcheck::fsck(&repo))?;
            // Orphans are legal only where retention ran: the pack store
            // defers rewriting barely fragmented packs, so their dead
            // objects linger.
            let clean = fsck.latest_ok
                && fsck.checkpoints.iter().all(|(_, h)| h.is_intact())
                && (spec.retention.is_some() || fsck.orphan_chunks == 0);
            s.ops.check("fsck is clean", clean);
        }

        s.retries += site.reconnects();
        if let Some(sim) = sim_stages {
            s.passes_per_run = sim.passes_per_run;
            s.amp_bytes_per_run = sim.amp_bytes_per_run;
        }
        Ok(())
    }
}

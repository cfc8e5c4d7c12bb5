//! Resume-over-remote: the acceptance test for the `qckptd` daemon.
//!
//! A training run checkpointing against a remote store must survive the
//! *machine*, not just the process: kill the run, throw its working
//! directory away, open a **fresh** directory against the same daemon
//! and namespace, and the resumed trajectory must be bit-identical to an
//! uninterrupted run — losses compared by bit pattern, shot noise
//! included.

use qcheck::error::Error as QcheckError;
use qcheck::failure::CrashPoint;
use qcheck::policy::EveryKSteps;
use qcheck::remote::{spawn_daemon, spawn_secondary, RemoteStore};
use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::store::{StoreBackend, StoreKind};
use qnn::ansatz::{hardware_efficient, init_params};
use qnn::optimizer::Adam;
use qnn::resume::{ResumableRun, RunError, RunStart};
use qnn::trainer::{StepReport, Task, Trainer, TrainerConfig};
use qsim::measure::EvalMode;
use qsim::pauli::PauliSum;
use qsim::rng::Xoshiro256;

/// The env-driven test mutates process-global variables with
/// `std::env::set_var`, and concurrent setenv/getenv (even the implicit
/// `temp_dir()` TMPDIR read) is a data race on glibc. Both tests take
/// this lock so they never overlap.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn scratch(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let p = std::env::temp_dir().join(format!(
        "qnn-remote-resume-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn build_trainer(qubits: usize) -> Trainer {
    let (circuit, info) = hardware_efficient(qubits, 1);
    let mut rng = Xoshiro256::seed_from(77);
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
            seed: 77,
            ..TrainerConfig::default()
        },
    )
    .unwrap()
}

fn open_remote_repo(dir: &std::path::Path, addr: &str, ns: &str) -> CheckpointRepo {
    let store = RemoteStore::connect(addr, ns).unwrap();
    CheckpointRepo::with_store(dir, StoreBackend::Remote(store)).unwrap()
}

/// Kill a run training against the daemon, resume it from a *fresh*
/// working directory, and require a bit-identical trajectory.
#[test]
fn killed_run_resumes_bit_identically_from_a_fresh_directory() {
    let _env = ENV_LOCK.lock().unwrap();
    let daemon = spawn_daemon(scratch("daemon"), StoreKind::Pack).unwrap();
    let ns = "train-axz";

    // Uninterrupted reference trajectory to step 10.
    let mut reference = build_trainer(3);
    let ref_reports: Vec<StepReport> = reference.train_steps(10).unwrap();

    // Process 1 (working directory A): run to step 6, checkpointing
    // every 2 steps, then "die" without a final checkpoint.
    let dir_a = scratch("dir-a");
    {
        let repo = open_remote_repo(&dir_a, &daemon.addr(), ns);
        let mut run = ResumableRun::start(
            build_trainer(3),
            repo,
            Box::new(EveryKSteps::new(2)),
            SaveOptions::default(),
        )
        .unwrap();
        assert_eq!(*run.start_info(), RunStart::Fresh);
        run.run_to_step(6).unwrap();
    }
    // The machine is gone: delete the whole working directory.
    std::fs::remove_dir_all(&dir_a).unwrap();

    // Process 2 (fresh working directory B, same daemon + namespace):
    // must resume at step 6 purely from remote state.
    let dir_b = scratch("dir-b");
    let repo = open_remote_repo(&dir_b, &daemon.addr(), ns);
    let mut run = ResumableRun::start(
        build_trainer(3),
        repo,
        Box::new(EveryKSteps::new(2)),
        SaveOptions::default(),
    )
    .unwrap();
    match run.start_info() {
        RunStart::Resumed { step, .. } => assert_eq!(*step, 6),
        other => panic!("expected resume from remote state, got {other:?}"),
    }
    let tail = run.run_to_step(10).unwrap();
    for (resumed, reference) in tail.iter().zip(&ref_reports[6..]) {
        assert_eq!(
            resumed.loss.to_bits(),
            reference.loss.to_bits(),
            "trajectory diverged at step {}",
            resumed.step
        );
    }
    let (trainer, _) = run.finish().unwrap();
    assert_eq!(trainer.step_count(), 10);
    let _ = std::fs::remove_dir_all(dir_b);
}

/// The kill lands while a save is in flight. At every crash point of the
/// commit protocol, on pack and against the daemon: the writer thread's
/// save dies after the training thread handed it a snapshot and went on
/// stepping; the failure surfaces on a later step as its typed error; the
/// process is then killed. What `recover` finds is a complete checkpoint
/// no older than the last acknowledged one (step 4) — the log's
/// newest-valid-wins rule may surface the finished-but-unflipped save of
/// step 6, a torn one never — and a run restarted from it reproduces the
/// uninterrupted trajectory bit for bit.
#[test]
fn a_kill_with_a_save_in_flight_resumes_from_an_acknowledged_checkpoint() {
    let _env = ENV_LOCK.lock().unwrap();
    let daemon = spawn_daemon(scratch("inflight-daemon"), StoreKind::Pack).unwrap();
    let reference: Vec<StepReport> = build_trainer(3).train_steps(12).unwrap();

    for remote in [false, true] {
        for (case, point) in CrashPoint::all().into_iter().enumerate() {
            let dir = scratch("inflight");
            let ns = format!("inflight-{case}");
            let start = |crash| {
                let repo = if remote {
                    open_remote_repo(&dir, &daemon.addr(), &ns)
                } else {
                    CheckpointRepo::open_with(&dir, StoreKind::Pack).unwrap()
                };
                let options = SaveOptions {
                    crash,
                    ..SaveOptions::default()
                };
                ResumableRun::start(
                    build_trainer(3),
                    repo,
                    Box::new(EveryKSteps::new(2)),
                    options,
                )
                .unwrap()
            };

            // Process 1 dies with its checkpoint of step 4 acknowledged
            // (dropping the run drains it).
            start(None).run_to_step(4).unwrap();

            // Process 2: the resumed driver counts from step 4, so step 5
            // is not due and the save of step 6 is handed off — and dies
            // at `point` on the writer thread while training goes on.
            let mut run = start(Some(point));
            assert!(matches!(
                run.start_info(),
                RunStart::Resumed { step: 4, .. }
            ));
            assert!(!run.step().unwrap().1, "{point}: step 5 is not due");
            assert!(run.step().unwrap().1, "{point}: step 6 is handed off");
            let surfaced = loop {
                match run.step() {
                    // Step 8 is due again and waits for the verdict.
                    Ok((report, _)) => assert!(report.step < 8, "{point}: never surfaced"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(
                    surfaced,
                    RunError::Storage(QcheckError::SimulatedCrash { .. })
                ),
                "{point}: {surfaced}"
            );
            assert!(run.trainer().step_count() > 6, "training had moved on");
            drop(run);

            // Process 3 resumes from whatever survived.
            let mut run = start(None);
            let resumed_at = match run.start_info() {
                RunStart::Resumed { step, .. } => *step,
                RunStart::Fresh => panic!("{point}: the acknowledged checkpoint is gone"),
            };
            let unflipped_but_whole = matches!(
                point,
                CrashPoint::BeforeLatestSwing | CrashPoint::MidLatestWrite
            );
            assert!(
                resumed_at == 4 || (unflipped_but_whole && resumed_at == 6),
                "{point} (remote: {remote}): resumed at step {resumed_at}"
            );
            let tail = run.run_to_step(12).unwrap();
            assert_eq!(tail.len() as u64, 12 - resumed_at);
            for (resumed, reference) in tail.iter().zip(&reference[resumed_at as usize..]) {
                assert_eq!(
                    resumed.loss.to_bits(),
                    reference.loss.to_bits(),
                    "{point} (remote: {remote}): diverged at step {}",
                    resumed.step
                );
            }
            run.finish().unwrap();
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The replicated form of the acceptance drill: the *daemon* is what
/// dies. A run checkpoints against a primary while a secondary tails
/// its oplog; the primary is killed mid-`PUT_BATCH`, the secondary is
/// promoted, and a fresh working directory pointed at the failover
/// address list resumes against the promoted secondary — bit-identical
/// losses, fenced old generation, no half-frame debris.
#[test]
fn killed_primary_resumes_bit_identically_against_promoted_secondary() {
    let _env = ENV_LOCK.lock().unwrap();
    let primary = spawn_daemon(scratch("repl-primary"), StoreKind::Pack).unwrap();
    let secondary =
        spawn_secondary(scratch("repl-secondary"), StoreKind::Pack, &primary.addr()).unwrap();
    let failover_spec = format!("{},{}", primary.addr(), secondary.addr());
    let ns = "train-repl";

    // Uninterrupted reference trajectory to step 10.
    let mut reference = build_trainer(3);
    let ref_reports: Vec<StepReport> = reference.train_steps(10).unwrap();

    // Process 1: checkpoints every 2 steps to step 6 against the
    // primary (the failover list dials the primary first while it is
    // alive); the background tailer replicates each commit.
    let dir_a = scratch("repl-dir-a");
    {
        let repo = open_remote_repo(&dir_a, &failover_spec, ns);
        let mut run = ResumableRun::start(
            build_trainer(3),
            repo,
            Box::new(EveryKSteps::new(2)),
            SaveOptions::default(),
        )
        .unwrap();
        run.run_to_step(6).unwrap();
    }
    std::fs::remove_dir_all(&dir_a).unwrap();

    // Wait for the tailer to drain the oplog (secondary's length
    // reaches the primary's), then kill the primary with a half-written
    // PUT_BATCH in flight — the worst moment.
    let primary_probe = RemoteStore::connect(primary.addr(), ns).unwrap();
    let committed = primary_probe.status().unwrap().oplog_entries;
    assert!(committed > 0, "the run must have committed oplog entries");
    drop(primary_probe);
    let lag_probe = RemoteStore::connect(secondary.addr(), ns).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while lag_probe.status().unwrap().oplog_entries < committed {
        assert!(
            std::time::Instant::now() < deadline,
            "tailer never caught up"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    drop(lag_probe);
    qcheck::remote::fault::die_mid_put_batch(&primary.addr(), ns, vec![0x5A; 4096]).unwrap();
    primary.shutdown();

    // Operator promotes the secondary.
    let generation = secondary.promote().unwrap();
    assert!(generation > 1, "promotion must advance the generation");

    // Process 2: fresh working directory, same failover list. The dead
    // primary is skipped, the run resumes at step 6 from the promoted
    // secondary, and the tail matches the reference bit for bit.
    let dir_b = scratch("repl-dir-b");
    let repo = open_remote_repo(&dir_b, &failover_spec, ns);
    assert_eq!(
        repo.store().remote().unwrap().observed_generation(),
        generation,
        "the resumed client must be running at the promoted generation"
    );
    let mut run = ResumableRun::start(
        build_trainer(3),
        repo,
        Box::new(EveryKSteps::new(2)),
        SaveOptions::default(),
    )
    .unwrap();
    match run.start_info() {
        RunStart::Resumed { step, .. } => assert_eq!(*step, 6),
        other => panic!("expected resume from the promoted secondary, got {other:?}"),
    }
    let tail = run.run_to_step(10).unwrap();
    for (resumed, reference) in tail.iter().zip(&ref_reports[6..]) {
        assert_eq!(
            resumed.loss.to_bits(),
            reference.loss.to_bits(),
            "trajectory diverged at step {} after failover",
            resumed.step
        );
    }
    let (trainer, _) = run.finish().unwrap();
    assert_eq!(trainer.step_count(), 10);
    let _ = std::fs::remove_dir_all(dir_b);
}

/// The same resume, but steered entirely through the environment-driven
/// selection path — the configuration a training script actually uses:
/// `QCHECK_REMOTE_ADDR` alone makes a fresh repository remote
/// (`QCHECK_REMOTE_NS` pins the namespace so a second directory finds
/// it), and without an address a fresh repository is pack. Env vars are
/// process-global, so restore them before returning.
#[test]
fn env_selected_remote_backend_round_trips() {
    let _env = ENV_LOCK.lock().unwrap();
    let daemon = spawn_daemon(scratch("env-daemon"), StoreKind::Pack).unwrap();
    let addr = daemon.addr();
    let prev: Vec<(&str, Option<String>)> = ["QCHECK_REMOTE_ADDR", "QCHECK_REMOTE_NS"]
        .into_iter()
        .map(|k| (k, std::env::var(k).ok()))
        .collect();
    std::env::remove_var("QCHECK_REMOTE_ADDR");
    std::env::set_var("QCHECK_REMOTE_NS", "env-run");

    let result = std::panic::catch_unwind(|| {
        // No address: a namespace alone selects nothing.
        let local = scratch("env-local");
        assert_eq!(
            CheckpointRepo::open(&local).unwrap().store_kind(),
            StoreKind::Pack
        );
        let _ = std::fs::remove_dir_all(local);

        std::env::set_var("QCHECK_REMOTE_ADDR", &addr);
        let dir = scratch("env-dir");
        {
            let repo = CheckpointRepo::open(&dir).unwrap();
            assert_eq!(repo.store_kind(), StoreKind::Remote);
            let mut run = ResumableRun::start(
                build_trainer(3),
                repo,
                Box::new(EveryKSteps::new(1)),
                SaveOptions::default(),
            )
            .unwrap();
            run.run_to_step(3).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();

        // Fresh directory, same env: resumes from the daemon.
        let dir2 = scratch("env-dir2");
        let repo = CheckpointRepo::open(&dir2).unwrap();
        let run = ResumableRun::start(
            build_trainer(3),
            repo,
            Box::new(EveryKSteps::new(1)),
            SaveOptions::default(),
        )
        .unwrap();
        match run.start_info() {
            RunStart::Resumed { step, .. } => assert_eq!(*step, 3),
            other => panic!("expected env-driven resume, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir2);
    });

    for (k, v) in prev {
        match v {
            Some(v) => std::env::set_var(k, v),
            None => std::env::remove_var(k),
        }
    }
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

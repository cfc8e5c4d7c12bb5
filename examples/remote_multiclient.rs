//! Multi-client remote checkpointing: several training runs share one
//! `qckptd` daemon, one run is "killed" and resumed from a **fresh
//! working directory** — the scenario the daemon exists for (cloud jobs
//! are preempted; their local disks do not come back).
//!
//! ```bash
//! cargo run --example remote_multiclient
//! ```
//!
//! The example spawns the daemon in-process for convenience; a real
//! deployment runs `qckptd serve <root>` as its own process and clients
//! select it by exporting `QCHECK_REMOTE_ADDR=host:port`.

use qnn_checkpoint::qcheck::policy::EveryKSteps;
use qnn_checkpoint::qcheck::remote::{spawn_daemon, RemoteStore};
use qnn_checkpoint::qcheck::repo::{CheckpointRepo, SaveOptions};
use qnn_checkpoint::qcheck::store::{ObjectStore, StoreBackend, StoreKind};
use qnn_checkpoint::qnn::ansatz::{hardware_efficient, init_params};
use qnn_checkpoint::qnn::optimizer::Adam;
use qnn_checkpoint::qnn::resume::{ResumableRun, RunStart};
use qnn_checkpoint::qnn::trainer::{Task, Trainer, TrainerConfig};
use qnn_checkpoint::qsim::measure::EvalMode;
use qnn_checkpoint::qsim::pauli::PauliSum;
use qnn_checkpoint::qsim::rng::Xoshiro256;

fn build_trainer(seed: u64) -> Trainer {
    let (circuit, info) = hardware_efficient(3, 2);
    let mut rng = Xoshiro256::seed_from(seed);
    let params = init_params(info.num_params, &mut rng);
    Trainer::new(
        circuit,
        Task::Vqe {
            hamiltonian: PauliSum::transverse_ising(3, 1.0, 0.7),
        },
        Box::new(Adam::new(0.05)),
        params,
        TrainerConfig {
            label: format!("remote-demo-{seed}"),
            eval_mode: EvalMode::Shots(64),
            seed,
            ..TrainerConfig::default()
        },
    )
    .expect("trainer")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("qnn-remote-demo-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&p).expect("scratch dir");
    p
}

fn open_repo(addr: &str, ns: &str, dir: &std::path::Path) -> CheckpointRepo {
    let store = RemoteStore::connect(addr, ns).expect("connect to daemon");
    CheckpointRepo::with_store(dir, StoreBackend::Remote(store)).expect("open repo")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One daemon, pack layout: every save commits server-side with a
    // single rename.
    let daemon_root = scratch("daemon");
    let daemon = spawn_daemon(&daemon_root, StoreKind::Pack)?;
    let addr = daemon.addr();
    println!("qckptd serving at {addr}");

    // --- two tenants train concurrently against the same daemon ---
    let handles: Vec<_> = [("tenant-a", 11u64), ("tenant-b", 22u64)]
        .into_iter()
        .map(|(ns, seed)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let dir = scratch(ns);
                let repo = open_repo(&addr, ns, &dir);
                let mut run = ResumableRun::start(
                    build_trainer(seed),
                    repo,
                    Box::new(EveryKSteps::new(2)),
                    SaveOptions::default(),
                )
                .expect("start run");
                run.run_to_step(6).expect("train");
                // tenant-a "dies" here (no finish()); tenant-b completes.
                if ns == "tenant-b" {
                    run.finish().expect("final checkpoint");
                }
                dir
            })
        })
        .collect();
    let dirs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    println!("tenant-a trained to step 6 and died; tenant-b finished at step 6");

    // --- the preempted tenant's machine is gone ---
    for dir in &dirs {
        std::fs::remove_dir_all(dir)?;
    }

    // --- resume tenant-a from a brand-new directory ---
    let fresh = scratch("tenant-a-resumed");
    let repo = open_repo(&addr, "tenant-a", &fresh);
    let mut run = ResumableRun::start(
        build_trainer(11),
        repo,
        Box::new(EveryKSteps::new(2)),
        SaveOptions::default(),
    )?;
    match run.start_info() {
        RunStart::Resumed { id, step } => {
            println!("tenant-a resumed from {id} at step {step} in a fresh directory")
        }
        RunStart::Fresh => panic!("expected to resume from the daemon"),
    }
    run.run_to_step(10)?;
    let (trainer, _) = run.finish()?;
    println!("tenant-a completed at step {}", trainer.step_count());

    // --- inspect the shared store ---
    let inspect = RemoteStore::connect(&addr, "tenant-a")?;
    let stats = inspect.stats()?;
    println!(
        "tenant-a namespace: {} objects, {} payload bytes, {} protocol round trips this session",
        stats.object_count,
        stats.total_bytes,
        inspect.round_trips()
    );

    daemon.shutdown();
    std::fs::remove_dir_all(fresh)?;
    std::fs::remove_dir_all(daemon_root)?;
    println!("daemon shut down cleanly");
    Ok(())
}

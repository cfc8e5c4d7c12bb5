//! The exhaustive crash matrix: every durable op of every scenario,
//! crashed at (keeping 0, 50 and 100 % of the op) and failed at, on pack
//! and against an in-process daemon — its client working directory and
//! its namespace directory each armed in turn.
//!
//! Every mutating op of `qcheck` goes through one seam, so the fault plan
//! ([`qcheck::failure::arm`]) can stop a process at any of them. A case
//! copies the scenario's starting repository, arms one directory, runs the
//! scenario, drops every handle (the daemon restarts too), reopens and
//! checks what the paper promises: `recover` returns the last acknowledged
//! snapshot or the one in flight, bit-identical to its capture, with
//! nothing to skip; and after a `gc` `fsck` is clean —
//! no orphan chunk, no damaged record — and `tmp/` is empty. The same
//! sweep over `CommitMode::InPlaceUnsafe` never returns a wrong snapshot,
//! and finds the op it does not survive: experiment R-F8's contrast.
//!
//! Replication is swept the same way, from both ends: a crash at any op of
//! a save on the primary leaves it and a secondary agreeing on every name
//! once synced, and a secondary that dies at any op of applying records
//! resyncs to a repository that recovers bit-identically.

use std::path::{Path, PathBuf};

use qcheck::failure::{arm, Fault};
use qcheck::remote::{
    spawn_daemon, DaemonHandle, RemoteStore, ReplicateConfig, Server, ServerConfig,
};
use qcheck::repo::{CheckpointRepo, CommitMode, Retention, SaveMode, SaveOptions};
use qcheck::snapshot::{StateBlob, TrainingSnapshot};
use qcheck::store::{StoreBackend, StoreKind};
use qcheck::verify::fsck;
use qcheck::Error;

/// The daemon namespace every daemon-backed case uses.
const NS: &str = "sweep";

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "qcheck-crash-sweep-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Which directory a case arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Armed {
    /// A pack repository's directory.
    Pack,
    /// A daemon-backed repository's working directory.
    Client,
    /// The daemon's namespace directory.
    Namespace,
}

impl Armed {
    const ALL: [Armed; 3] = [Armed::Pack, Armed::Client, Armed::Namespace];

    fn remote(self) -> bool {
        self != Armed::Pack
    }

    fn dir(self, root: &Path) -> PathBuf {
        match self {
            Armed::Pack => root.join("repo"),
            Armed::Client => root.join("client"),
            Armed::Namespace => root.join("daemon/ns").join(NS),
        }
    }
}

/// A process start: the daemon (for a remote root) and the repository.
fn start(root: &Path, remote: bool) -> (Option<DaemonHandle>, CheckpointRepo) {
    if !remote {
        let repo = CheckpointRepo::open_with(root.join("repo"), StoreKind::Pack).unwrap();
        return (None, repo);
    }
    let daemon = spawn_daemon(root.join("daemon"), StoreKind::Pack).unwrap();
    let store = RemoteStore::connect(daemon.addr(), NS).unwrap();
    let repo =
        CheckpointRepo::with_store(root.join("client"), StoreBackend::Remote(store)).unwrap();
    (Some(daemon), repo)
}

/// The snapshot saved at `step`: parameters that move every step beside
/// an optimizer blob that never does, so packs come to mix live and dead
/// chunks.
fn snapshot(step: u64) -> TrainingSnapshot {
    let mut s = TrainingSnapshot::new("crash-sweep");
    s.step = step;
    s.params = (0..64)
        .map(|i| (0.1 * i as f64 + step as f64).sin())
        .collect();
    s.optimizer = StateBlob::new("adam-v1", vec![7; 256]);
    s.total_shots = 100 * step;
    s
}

fn save(
    repo: &CheckpointRepo,
    step: u64,
    mode: SaveMode,
    commit: CommitMode,
) -> qcheck::Result<()> {
    let options = SaveOptions {
        mode,
        commit,
        created_unix_ms: Some(1_750_000_000_000),
        ..SaveOptions::default()
    };
    repo.save(&snapshot(step), &options).map(drop)
}

const DELTA: SaveMode = SaveMode::DeltaAuto { max_chain_len: 8 };

/// One operation under a fault, with the repository it starts from.
struct Scenario {
    name: &'static str,
    /// Builds the starting repository.
    setup: fn(&CheckpointRepo),
    /// The operation the fault lands in.
    run: fn(&CheckpointRepo, CommitMode) -> qcheck::Result<()>,
    /// The steps recovery may return: the last acknowledged snapshot and,
    /// for a save, the one in flight.
    steps: &'static [u64],
}

const SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "full save",
        setup: |repo| save(repo, 1, SaveMode::Full, CommitMode::Atomic).unwrap(),
        run: |repo, commit| save(repo, 2, SaveMode::Full, commit),
        steps: &[1, 2],
    },
    Scenario {
        name: "delta save",
        setup: |repo| {
            save(repo, 1, DELTA, CommitMode::Atomic).unwrap();
            save(repo, 2, DELTA, CommitMode::Atomic).unwrap();
        },
        run: |repo, commit| save(repo, 3, DELTA, commit),
        steps: &[2, 3],
    },
    Scenario {
        // Retires checkpoints 1 and 2: the GC deletes checkpoint 2's pack
        // and rewrites checkpoint 1's, whose optimizer chunk lives on.
        name: "KeepLast(1) retention with GC",
        setup: |repo| {
            for step in 1..=3 {
                save(repo, step, SaveMode::Full, CommitMode::Atomic).unwrap();
            }
        },
        run: |repo, _| repo.apply_retention(Retention::KeepLast(1)).map(drop),
        steps: &[3],
    },
    Scenario {
        // 17 saves each retained down to one leave the log one save short
        // of its compaction threshold; the 18th save's retention compacts.
        name: "retention that compacts the log",
        setup: |repo| {
            for step in 1..=17 {
                save(repo, step, SaveMode::Full, CommitMode::Atomic).unwrap();
                repo.apply_retention(Retention::KeepLast(1)).unwrap();
            }
            save(repo, 18, SaveMode::Full, CommitMode::Atomic).unwrap();
        },
        run: |repo, _| repo.apply_retention(Retention::KeepLast(1)).map(drop),
        steps: &[18],
    },
];

/// A scenario's starting repository on one backend, built once and copied
/// for every case (with the daemon down, so its files are at rest).
fn template(scenario: &Scenario, remote: bool) -> TempDir {
    let dir = TempDir::new("template");
    let (_daemon, repo) = start(&dir.0, remote);
    (scenario.setup)(&repo);
    dir
}

/// What one case left.
struct Outcome {
    /// Durable ops the scenario issued under the armed directory.
    ops: u64,
    /// The scenario returned an error.
    failed: bool,
    /// The step `recover` returned, when the snapshot is bit-identical to
    /// that step's capture; `None` when recovery failed.
    recovered: Option<u64>,
    /// `recover` returned a snapshot that is none of the scenario's.
    wrong: bool,
    /// Nothing skipped, `fsck` clean after the GC, every `tmp/` empty.
    clean: bool,
}

/// Runs `scenario` from a copy of `start_from` with `fault` armed at the
/// `at`-th durable op under `armed`'s directory (`at` 0 only counts), then
/// restarts and checks.
fn case(
    start_from: &TempDir,
    armed: Armed,
    scenario: &Scenario,
    commit: CommitMode,
    at: u64,
    fault: Fault,
) -> Outcome {
    let world = TempDir::new("case");
    let root = &world.0;
    copy_tree(&start_from.0, root);
    let (ops, failed) = {
        let (_daemon, repo) = start(root, armed.remote());
        let plan = arm(armed.dir(root), at, fault);
        let failed = (scenario.run)(&repo, commit).is_err();
        (plan.ops(), failed)
    };
    let (_daemon, repo) = start(root, armed.remote());
    let (recovered, wrong, skipped) = match repo.recover() {
        Ok((snap, report)) => {
            let step = scenario
                .steps
                .iter()
                .copied()
                .find(|s| snap == snapshot(*s));
            (step, step.is_none(), report.skipped.len())
        }
        Err(Error::NoValidCheckpoint { rejected }) => (None, false, rejected),
        Err(e) => panic!("{}: recover failed uncleanly: {e}", scenario.name),
    };
    repo.gc().unwrap();
    let health = fsck(&repo).unwrap();
    let tmp_empty = [armed.dir(root), Armed::Namespace.dir(root)]
        .iter()
        .all(|dir| std::fs::read_dir(dir.join("tmp")).map_or(true, |mut e| e.next().is_none()));
    Outcome {
        ops,
        failed,
        recovered,
        wrong,
        clean: skipped == 0 && health.is_clean() && tmp_empty,
    }
}

const FAULTS: [Fault; 4] = [
    Fault::Crash { keep_pct: 0 },
    Fault::Crash { keep_pct: 50 },
    Fault::Crash { keep_pct: 100 },
    Fault::Fail,
];

/// Sizes `scenario` under `armed`, then runs every op × fault; returns the
/// ops and each case's label and outcome.
fn sweep(
    scenario: &Scenario,
    armed: Armed,
    commit: CommitMode,
    faults: &[Fault],
) -> (u64, Vec<(String, Outcome)>) {
    let start_from = template(scenario, armed.remote());
    let counted = case(&start_from, armed, scenario, commit, 0, Fault::Fail);
    assert!(
        !counted.failed && counted.clean,
        "{}: the unfaulted run",
        scenario.name
    );
    let mut cases = Vec::new();
    for at in 1..=counted.ops {
        for fault in faults {
            let label = format!(
                "{} ({armed:?}), op {at} of {}, {fault:?}",
                scenario.name, counted.ops
            );
            let outcome = case(&start_from, armed, scenario, commit, at, *fault);
            assert!(
                outcome.failed,
                "{label}: the fault did not fail the operation"
            );
            cases.push((label, outcome));
        }
    }
    (counted.ops, cases)
}

#[test]
fn every_op_of_every_scenario_is_survived_on_pack_and_on_the_daemon() {
    let mut size = 0;
    for scenario in &SCENARIOS {
        for armed in Armed::ALL {
            let (ops, cases) = sweep(scenario, armed, CommitMode::Atomic, &FAULTS);
            assert!(
                ops > 0,
                "{} ({armed:?}) issued no durable op",
                scenario.name
            );
            for (label, outcome) in &cases {
                assert!(
                    outcome.recovered.is_some() && outcome.clean,
                    "{label}: recovered {:?}, clean {}",
                    outcome.recovered,
                    outcome.clean
                );
            }
            println!(
                "{} ({armed:?}): {ops} ops, {} cases",
                scenario.name,
                cases.len()
            );
            size += cases.len();
        }
    }
    println!("crash matrix: {size} cases, every one survived");
}

#[test]
fn the_in_place_baseline_is_never_silently_wrong_and_fails_an_op() {
    let faults = &FAULTS[..3];
    let (ops, cases) = sweep(
        &SCENARIOS[0],
        Armed::Pack,
        CommitMode::InPlaceUnsafe,
        faults,
    );
    for (label, outcome) in &cases {
        assert!(!outcome.wrong, "{label}: a silently wrong snapshot");
    }
    let lost: Vec<&String> = cases
        .iter()
        .filter(|(_, o)| !(o.recovered.is_some() && o.clean))
        .map(|(label, _)| label)
        .collect();
    assert!(!lost.is_empty(), "the in-place order survived every op");
    println!(
        "in-place: {} of {} cases over {ops} ops not survived: {lost:?}",
        lost.len(),
        cases.len()
    );
}

/// A write that fails (`Fault::Fail`) does not kill the process: at each
/// op of a delta save in turn, the *same* handle returns a typed
/// `Error::Io`, still loads its latest checkpoint — the previous one, or
/// the failed save's own once its records landed whole (newest-valid-wins)
/// — and then saves again, and that checkpoint loads back bit-identically.
#[test]
fn a_failed_write_leaves_the_handle_working() {
    let scenario = &SCENARIOS[1];
    for armed in Armed::ALL {
        let start_from = template(scenario, armed.remote());
        for at in 1.. {
            let world = TempDir::new("fail");
            copy_tree(&start_from.0, &world.0);
            let (_daemon, repo) = start(&world.0, armed.remote());
            let failed = {
                let _plan = arm(armed.dir(&world.0), at, Fault::Fail);
                save(&repo, 3, DELTA, CommitMode::Atomic)
            };
            let Err(err) = failed else {
                assert!(at > 1, "{armed:?}: the save issued no durable op");
                break;
            };
            assert!(matches!(err, Error::Io { .. }), "{armed:?} op {at}: {err}");
            let (_, latest) = repo.load_latest().unwrap();
            assert!(
                latest == snapshot(2) || latest == snapshot(3),
                "{armed:?} op {at}: latest is step {}",
                latest.step
            );
            save(&repo, 4, DELTA, CommitMode::Atomic).unwrap();
            let (id, loaded) = repo.load_latest().unwrap();
            assert_eq!(loaded, snapshot(4), "{armed:?} op {at}: {id}");
        }
    }
}

/// The scenarios do what their names claim: the retention GC publishes a
/// rewritten pack, and the last retention moves the log to a new epoch.
#[test]
fn the_retention_scenarios_rewrite_a_pack_and_compact_the_log() {
    let run = |scenario: &Scenario| {
        let dir = TempDir::new("claims");
        let (_, repo) = start(&dir.0, false);
        (scenario.setup)(&repo);
        let packs = || -> Vec<_> {
            let entries = std::fs::read_dir(repo.root().join("packs")).unwrap();
            entries.flatten().map(|e| e.file_name()).collect()
        };
        let before = packs();
        (scenario.run)(&repo, CommitMode::Atomic).unwrap();
        let published = packs().iter().any(|p| !before.contains(p));
        (
            published,
            qcheck::manifest_log::list_log_epochs(repo.root()),
            dir,
        )
    };
    let (published, epochs, _dir) = run(&SCENARIOS[2]);
    assert!(published, "the GC published no rewritten pack");
    assert_eq!(epochs, [0]);
    let (_, epochs, _dir) = run(&SCENARIOS[3]);
    assert_eq!(epochs, [1], "the retention did not compact the log");
}

/// A replication secondary of a daemon under `root`, driven one pass at a
/// time (no background tailer).
fn spawn_manual_secondary(root: &Path, primary_addr: &str) -> DaemonHandle {
    let mut config = ServerConfig::new(root);
    let mut repl = ReplicateConfig::new(primary_addr);
    repl.manual = true;
    config.replicate = Some(repl);
    Server::bind("127.0.0.1:0", config).unwrap().spawn()
}

fn sync_to_convergence(secondary: &DaemonHandle) {
    for _ in 0..64 {
        if secondary.repl_sync().unwrap().remaining == 0 {
            return;
        }
    }
    panic!("the secondary did not converge");
}

/// What a daemon answers for the names a client recovers from.
fn listed(daemon: &DaemonHandle) -> (Vec<String>, Option<Vec<u8>>) {
    let store = RemoteStore::connect(daemon.addr(), NS).unwrap();
    (
        store.meta_list("manifests/").unwrap(),
        store.meta_get("LATEST").unwrap(),
    )
}

/// A crash at any op of a remote save leaves the primary and a secondary
/// agreeing on every name once synced: a name the primary lists exists
/// only as the `OPLOG` record the secondary replicates, so no op can leave
/// the primary listing a manifest that no secondary will ever receive.
#[test]
fn primary_and_secondary_agree_after_a_crash_at_any_op_of_a_save() {
    let start_from = template(&SCENARIOS[0], true);
    let case = |at: u64, fault: Fault| -> u64 {
        let world = TempDir::new("agree");
        let root = &world.0;
        copy_tree(&start_from.0, root);
        let ops = {
            let (_daemon, repo) = start(root, true);
            let plan = arm(Armed::Namespace.dir(root), at, fault);
            let saved = save(&repo, 2, SaveMode::Full, CommitMode::Atomic);
            assert_eq!(saved.is_err(), at > 0, "op {at} {fault:?}");
            plan.ops()
        };
        let primary = spawn_daemon(root.join("daemon"), StoreKind::Pack).unwrap();
        let secondary = spawn_manual_secondary(&root.join("secondary"), &primary.addr());
        sync_to_convergence(&secondary);
        let (names, latest) = listed(&primary);
        assert!(!names.is_empty() && latest.is_some(), "op {at} {fault:?}");
        assert_eq!(
            (names, latest),
            listed(&secondary),
            "op {at} {fault:?}: primary and secondary disagree"
        );
        for daemon in ["daemon", "secondary"] {
            let ns = root.join(daemon).join("ns").join(NS);
            assert!(ns.join("OPLOG").exists() && !ns.join("meta").exists());
        }
        ops
    };
    let ops = case(0, Fault::Fail);
    assert_eq!(
        ops, 3,
        "a remote save is one pack publish and two appends in the namespace directory"
    );
    for at in 1..=ops {
        for fault in FAULTS {
            case(at, fault);
        }
    }
    println!(
        "primary crash, then sync: {ops} ops, {} cases",
        ops as usize * FAULTS.len()
    );
}

/// A secondary applying records is a swept scenario. The primary holds
/// two full saves, a delta save on the second and a `KeepLast(1)`
/// retention that retires the first (a `MetaDelete` and a `Sweep`); one
/// manual pass applies all of it with the fault plan armed on the
/// secondary's namespace directory. The secondary restarts from its root,
/// resyncs and is promoted, and a fresh directory recovers from it what a
/// fresh directory recovers from the primary, bit for bit, with the same
/// ids and manifests and no orphan chunk.
#[test]
fn a_secondary_survives_a_crash_at_every_op_of_applying_records() {
    let world = TempDir::new("apply");
    let root = &world.0;
    let (primary, repo) = start(root, true);
    let primary = primary.unwrap();
    save(&repo, 1, SaveMode::Full, CommitMode::Atomic).unwrap();
    save(&repo, 2, SaveMode::Full, CommitMode::Atomic).unwrap();
    save(&repo, 3, DELTA, CommitMode::Atomic).unwrap();
    let retired = repo.apply_retention(Retention::KeepLast(1)).unwrap();
    assert_eq!(retired.manifests_deleted, 1);
    let ids = repo.list_ids().unwrap();
    let fresh = |daemon: &DaemonHandle, dir: PathBuf| {
        let store = RemoteStore::connect(daemon.addr(), NS).unwrap();
        CheckpointRepo::with_store(dir, StoreBackend::Remote(store)).unwrap()
    };
    let (want, _) = fresh(&primary, root.join("fresh-primary"))
        .recover()
        .unwrap();
    assert_eq!(want, snapshot(3));

    let mut cases = 0;
    let mut case = |at: u64, fault: Fault| -> u64 {
        cases += 1;
        let dir = root.join(format!("secondary-{cases}"));
        let ops = {
            let secondary = spawn_manual_secondary(&dir, &primary.addr());
            let plan = arm(dir.join("ns").join(NS), at, fault);
            let _ = secondary.repl_sync();
            plan.ops()
        };
        let secondary = spawn_manual_secondary(&dir, &primary.addr());
        sync_to_convergence(&secondary);
        secondary.promote().unwrap();
        let failover = fresh(&secondary, dir.join("fresh"));
        let label = format!("op {at} {fault:?}");
        let (snap, _) = failover.recover().unwrap();
        assert!(snap == want, "{label}: recovered step {}", snap.step);
        assert_eq!(failover.list_ids().unwrap(), ids, "{label}");
        for id in &ids {
            assert_eq!(
                failover.load_manifest(id).unwrap().encode(),
                repo.load_manifest(id).unwrap().encode(),
                "{label}: manifest {id}"
            );
        }
        let health = fsck(&failover).unwrap();
        assert!(health.orphan_chunks == 0 && health.is_clean(), "{label}");
        assert!(!dir.join("ns").join(NS).join("meta").exists(), "{label}");
        ops
    };
    let ops = case(0, Fault::Fail);
    assert!(ops > 0, "the pass issued no durable op");
    for at in 1..=ops {
        for fault in FAULTS {
            case(at, fault);
        }
    }
    println!(
        "secondary applying records: {ops} ops, {} cases",
        ops as usize * FAULTS.len()
    );
}

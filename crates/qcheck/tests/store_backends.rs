//! Backend-equivalence and shared crash-safety property suites.
//!
//! The `ObjectStore` abstraction promises that the *logical* behavior of a
//! checkpoint repository is independent of the storage layout: the same
//! sequence of saves, deltas, garbage collections, retentions and
//! recoveries against a loose-backend repo, a pack-backend repo and a
//! remote-backend repo (an in-process `qckptd` daemon) must produce
//! byte-identical manifests, identical snapshots, identical GC
//! reachability and identical fsck health — only the syscall profile
//! (renames/fsyncs per save) may differ. These properties drive random
//! operation sequences against all backends side by side and assert
//! exactly that, plus the crash-safety contract (a crash at every durable
//! op of a save leaves every repository recoverable — to the last
//! acknowledged checkpoint up to some op, to the one in flight from there
//! on — and `recover` clears the staging debris the crash left behind —
//! local *and*, for the remote backend, server-side via `CLEAR_STAGING`).

use proptest::prelude::*;

use qcheck::failure::{arm, Fault};
use qcheck::remote::{
    spawn_daemon, DaemonHandle, RemoteStore, ReplicateConfig, Server, ServerConfig,
};
use qcheck::repo::{CheckpointRepo, Retention, SaveMode, SaveOptions, SaveReport};
use qcheck::snapshot::{Checkpointable, StateBlob, TrainingSnapshot};
use qcheck::store::{ObjectStore, StoreBackend, StoreKind};
use qcheck::verify::fsck;
use qcheck::{Checkpointer, EveryKSteps};

/// One step of the randomized repository workload.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Full save after perturbing `bump` parameters.
    SaveFull { bump: u8 },
    /// Delta-auto save after a sparse single-parameter update.
    SaveDelta { sparse_idx: u16, max_chain: u8 },
    /// Mark-and-sweep garbage collection.
    Gc,
    /// Recovery scan (newest verifiable checkpoint).
    Recover,
    /// Rewrite the latest delta chain as a full checkpoint.
    Compact,
    /// Retention: keep the newest `keep` checkpoints, then GC.
    Retain { keep: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16).prop_map(|bump| Op::SaveFull { bump }),
        (any::<u16>(), 1u8..6).prop_map(|(sparse_idx, max_chain)| Op::SaveDelta {
            sparse_idx,
            max_chain
        }),
        Just(Op::Gc),
        Just(Op::Recover),
        Just(Op::Compact),
        (1u8..4).prop_map(|keep| Op::Retain { keep }),
    ]
}

const N_PARAMS: usize = 1200; // ≈ 9.4 KiB of parameters → several chunks

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "qcheck-backend-equiv-{tag}-{}-{}",
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

/// Spawns an in-process daemon (loose layout — the logical-equivalence
/// reference configuration) and opens a remote-backed
/// repository under `dir` against a unique namespace.
fn remote_repo(dir: &std::path::Path, tag: &str) -> (DaemonHandle, CheckpointRepo) {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let daemon = spawn_daemon(dir.join("daemon"), StoreKind::Loose).unwrap();
    let ns = format!(
        "equiv-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    );
    let store = RemoteStore::connect(daemon.addr(), ns).unwrap();
    let repo = CheckpointRepo::with_store(dir.join("client"), StoreBackend::Remote(store)).unwrap();
    (daemon, repo)
}

fn snapshot_at(step: u64, params: &[f64]) -> TrainingSnapshot {
    let mut s = TrainingSnapshot::new("backend-equivalence");
    s.step = step;
    s.params = params.to_vec();
    s.optimizer = StateBlob::new("adam-v1", vec![(step % 251) as u8; 256]);
    s.total_shots = step * 1000;
    s.shot_ledger = vec![(step % 7) as u8; 32];
    s
}

fn options(mode: SaveMode) -> SaveOptions {
    SaveOptions {
        mode,
        // Pinned timestamp: manifests must come out byte-identical.
        created_unix_ms: Some(1_750_000_000_000),
        ..SaveOptions::default()
    }
}

/// The per-save fields that must not depend on the storage backend
/// (everything except the syscall profile).
fn logical_view(r: &SaveReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.id.clone(),
        r.is_delta,
        r.chain_len,
        r.logical_bytes,
        r.stored_bytes,
        r.new_chunk_bytes,
        r.chunks_new,
        r.chunks_deduped,
        r.manifest_bytes,
    )
}

/// Asserts the backend-specific syscall contract of one save.
fn assert_rename_contract(kind: StoreKind, r: &SaveReport) {
    match kind {
        StoreKind::Loose => assert_eq!(
            r.store_renames, r.chunks_new as u64,
            "loose backend pays one rename per fresh chunk"
        ),
        StoreKind::Pack => assert!(
            r.store_renames <= 1,
            "pack backend must commit each save with at most one rename (got {})",
            r.store_renames
        ),
        // The equivalence daemon serves a loose layout, so the
        // server-reported counters must match the loose contract.
        StoreKind::Remote => assert_eq!(
            r.store_renames, r.chunks_new as u64,
            "remote(loose) backend must report the server's renames"
        ),
    }
}

/// Drives one op against one repo; returns a comparable outcome string.
fn apply_op(repo: &CheckpointRepo, kind: StoreKind, op: Op, step: u64, params: &[f64]) -> String {
    match op {
        Op::SaveFull { .. } => {
            let r = repo
                .save(&snapshot_at(step, params), &options(SaveMode::Full))
                .unwrap();
            assert_rename_contract(kind, &r);
            format!("{:?}", logical_view(&r))
        }
        Op::SaveDelta { max_chain, .. } => {
            let r = repo
                .save(
                    &snapshot_at(step, params),
                    &options(SaveMode::DeltaAuto {
                        max_chain_len: max_chain as u32,
                    }),
                )
                .unwrap();
            assert_rename_contract(kind, &r);
            format!("{:?}", logical_view(&r))
        }
        Op::Gc => format!("{:?}", repo.gc().unwrap()),
        Op::Recover => match repo.recover() {
            Ok((snap, report)) => format!("recovered {:?} step {}", report.recovered, snap.step),
            Err(e) => format!("recover error: {e}"),
        },
        Op::Compact => match repo.compact_latest(&options(SaveMode::Full)) {
            Ok(r) => format!("{:?}", r.map(|r| format!("{:?}", logical_view(&r)))),
            Err(e) => format!("compact error: {e}"),
        },
        Op::Retain { keep } => {
            let r = repo
                .apply_retention(Retention::KeepLast(keep as usize))
                .unwrap();
            format!("{r:?}")
        }
    }
}

/// Evolves the model parameters deterministically for one op.
fn evolve(params: &mut [f64], op: Op, step: u64) {
    match op {
        Op::SaveFull { bump } => {
            for i in 0..bump as usize {
                let idx = (i * 97 + step as usize * 13) % params.len();
                params[idx] += 1e-3 * (step as f64 + 1.0);
            }
        }
        Op::SaveDelta { sparse_idx, .. } => {
            let idx = sparse_idx as usize % params.len();
            params[idx] += 1e-6;
        }
        _ => {}
    }
}

/// What the live handle answers from its cached log state — kept current
/// by applying each commit's records in memory, not by replaying — is what
/// a fresh replay of the same directory reaches.
fn assert_cached_state_is_replayed_state(repo: &CheckpointRepo, when: &str) {
    let replayed = qcheck::manifest_log::replay(repo.root()).unwrap();
    let ids: Vec<_> = replayed.manifests.keys().cloned().collect();
    assert_eq!(repo.list_ids().unwrap(), ids, "ids, {when}");
    assert_eq!(
        repo.read_latest().unwrap(),
        replayed.latest,
        "latest, {when}"
    );
    for (id, manifest) in &replayed.manifests {
        assert_eq!(&repo.load_manifest(id).unwrap(), manifest, "{id}, {when}");
    }
    assert_eq!(
        repo.damaged_manifests().unwrap(),
        replayed.damaged,
        "damaged, {when}"
    );
}

proptest! {
    // Each case replays a whole repository history twice (fs-heavy);
    // keep the default case count modest. QPROP_CASES still overrides.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random save/delta/gc/recover/compact/retain sequences produce
    /// byte-identical manifests, identical snapshots and identical GC
    /// reachability on the loose, pack and remote backends.
    #[test]
    fn backends_are_logically_equivalent(ops in prop::collection::vec(arb_op(), 1..10)) {
        // The remote daemon serves a loose layout.
        let loose_dir = TempDir::new("loose");
        let pack_dir = TempDir::new("pack");
        let remote_dir = TempDir::new("remote");
        let loose = CheckpointRepo::open_with(&loose_dir.0, StoreKind::Loose).unwrap();
        let pack = CheckpointRepo::open_with(&pack_dir.0, StoreKind::Pack).unwrap();
        let (_daemon, remote) = remote_repo(&remote_dir.0, "logic");
        prop_assert_eq!(loose.store_kind(), StoreKind::Loose);
        prop_assert_eq!(pack.store_kind(), StoreKind::Pack);
        prop_assert_eq!(remote.store_kind(), StoreKind::Remote);
        let repos = [
            (StoreKind::Loose, &loose),
            (StoreKind::Pack, &pack),
            (StoreKind::Remote, &remote),
        ];

        let mut params = vec![0.5f64; N_PARAMS];
        let mut step = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, Op::SaveFull { .. } | Op::SaveDelta { .. }) {
                step += 1;
                evolve(&mut params, *op, step);
            }
            let outcomes: Vec<String> = repos
                .iter()
                .map(|(kind, repo)| apply_op(repo, *kind, *op, step, &params))
                .collect();
            prop_assert_eq!(&outcomes[0], &outcomes[1], "pack diverged at op {} ({:?})", i, op);
            prop_assert_eq!(&outcomes[0], &outcomes[2], "remote diverged at op {} ({:?})", i, op);
            for (kind, repo) in &repos {
                assert_cached_state_is_replayed_state(repo, &format!("{kind} after op {i} ({op:?})"));
            }
        }

        // Histories must agree checkpoint by checkpoint…
        let ids = loose.list_ids().unwrap();
        for (kind, repo) in &repos[1..] {
            prop_assert_eq!(&ids, &repo.list_ids().unwrap(), "{} ids", kind);
            for id in &ids {
                let ml = loose.load_manifest(id).unwrap();
                let mr = repo.load_manifest(id).unwrap();
                prop_assert_eq!(
                    ml.encode(), mr.encode(),
                    "manifest {} must be byte-identical on {}", id, kind
                );
                prop_assert_eq!(loose.load(id).unwrap(), repo.load(id).unwrap());
            }
        }

        // …as must overall health and reachability after a final GC.
        let fl = fsck(&loose).unwrap();
        let gl = loose.gc().unwrap();
        for (kind, repo) in &repos[1..] {
            let fr = fsck(repo).unwrap();
            prop_assert_eq!(fl.intact_count(), fr.intact_count(), "{} intact", kind);
            prop_assert_eq!(fl.orphan_chunks, fr.orphan_chunks, "{} orphans", kind);
            let gr = repo.gc().unwrap();
            prop_assert_eq!(&gl, &gr, "{} GC reachability must match", kind);
            prop_assert_eq!(
                loose.store().stats().unwrap(),
                repo.store().stats().unwrap(),
                "{} post-GC logical store contents must match", kind
            );
            for id in &ids {
                prop_assert_eq!(loose.load(id).unwrap(), repo.load(id).unwrap());
            }
        }
    }

    /// A crash at every durable op of a save, on every backend, leaves a
    /// reopened handle recovering the last acknowledged snapshot up to
    /// some op and the one in flight from there on — never a third state,
    /// never back again — with an empty staging area. A crash before the
    /// first op's bytes all land keeps checkpoint `committed_saves`; one
    /// after the last op's bytes all landed keeps the new one.
    #[test]
    fn crash_points_recover_identically_on_all_backends(
        committed_saves in 1u8..4,
        keep_pct in prop_oneof![Just(0u8), Just(50), Just(100)],
    ) {
        for kind in [StoreKind::Loose, StoreKind::Pack, StoreKind::Remote] {
            // One fresh repository per case: the client directory is armed
            // (for the remote backend the daemon lives on, as it would).
            let case = |at: u64, fault: Fault| {
                let dir = TempDir::new("crash");
                let (daemon, repo) = match kind {
                    StoreKind::Remote => {
                        let (daemon, repo) = remote_repo(&dir.0, "crash");
                        (Some(daemon), repo)
                    }
                    _ => (None, CheckpointRepo::open_with(&dir.0, kind).unwrap()),
                };
                let mut params = vec![0.25f64; N_PARAMS];
                for step in 1..=committed_saves as u64 {
                    params[step as usize] += 0.5;
                    repo.save(&snapshot_at(step, &params), &options(SaveMode::Full)).unwrap();
                }
                params[0] = -1.0;
                let armed = arm(repo.root(), at, fault);
                let saved = repo.save(
                    &snapshot_at(committed_saves as u64 + 1, &params),
                    &options(SaveMode::Full),
                );
                let ops = armed.ops();
                drop(armed);
                let root = repo.root().to_path_buf();
                let namespace = repo.store().remote().map(|r| r.namespace().to_string());
                drop(repo);
                let reopened = match (&daemon, namespace) {
                    (Some(daemon), Some(ns)) => {
                        let store = RemoteStore::connect(daemon.addr(), ns).unwrap();
                        CheckpointRepo::with_store(&root, StoreBackend::Remote(store)).unwrap()
                    }
                    _ => CheckpointRepo::open_with(&root, kind).unwrap(),
                };
                let (snap, _) = reopened.recover().unwrap();
                let leftovers = std::fs::read_dir(root.join("tmp")).unwrap().count();
                (saved.is_ok(), ops, snap.step, leftovers, dir)
            };
            let (saved, ops, step, _, _) = case(0, Fault::Fail);
            prop_assert!(saved && step == committed_saves as u64 + 1, "{} counting run", kind);
            let mut steps = Vec::new();
            for at in 1..=ops {
                let (saved, _, step, leftovers, _dir) = case(at, Fault::Crash { keep_pct });
                prop_assert!(!saved, "{} op {}: the crash must fail the save", kind, at);
                prop_assert_eq!(leftovers, 0, "{} op {}: recover must clear staging debris", kind, at);
                steps.push(step);
            }
            let (acked, in_flight) = (committed_saves as u64, committed_saves as u64 + 1);
            if keep_pct == 100 {
                prop_assert_eq!(steps[steps.len() - 1], in_flight, "{} last op", kind);
            } else {
                prop_assert_eq!(steps[0], acked, "{} first op", kind);
            }
            let switch = steps.iter().position(|s| *s == in_flight).unwrap_or(steps.len());
            prop_assert!(
                steps[..switch].iter().all(|s| *s == acked)
                    && steps[switch..].iter().all(|s| *s == in_flight),
                "{} at keep {}: {:?}", kind, keep_pct, steps
            );
        }
    }
}

proptest! {
    // Replication drags a whole second daemon through every case; keep
    // the count low (QPROP_CASES still overrides).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The replicated remote backend joins the equivalence family: after
    /// an arbitrary workload on the primary, a secondary whose first pass
    /// met a fault at a randomly chosen durable op — a crash keeping 0, 50
    /// or 100 % of it (chunks stored but the entry not appended, entry
    /// appended but unacked, a torn append) or a failed write; op 0, or
    /// one past the pass's last, is the clean cut between passes — and
    /// which then restarted and resynced, once promoted, serves a
    /// repository with byte-identical manifests, identical recovery and
    /// identical fsck health — convergence is idempotent wherever the
    /// pass stopped.
    #[test]
    fn replicated_secondary_converges_after_staged_crashes(
        ops in prop::collection::vec(arb_op(), 1..8),
        stage in (0u64..24, 0usize..4),
    ) {
        let dir = TempDir::new("repl-equiv");
        let primary = spawn_daemon(dir.0.join("primary"), StoreKind::Loose).unwrap();
        let mut sec_config = ServerConfig::new(dir.0.join("secondary"));
        sec_config.store_kind = StoreKind::Loose;
        let mut repl = ReplicateConfig::new(primary.addr());
        repl.manual = true; // passes are driven (and cut) explicitly
        sec_config.replicate = Some(repl);
        let spawn_secondary = || Server::bind("127.0.0.1:0", sec_config.clone()).unwrap().spawn();

        let store = RemoteStore::connect(primary.addr(), "repl-equiv").unwrap();
        let repo =
            CheckpointRepo::with_store(dir.0.join("client"), StoreBackend::Remote(store)).unwrap();
        let mut params = vec![0.5f64; N_PARAMS];
        let mut step = 0u64;
        for op in &ops {
            if matches!(op, Op::SaveFull { .. } | Op::SaveDelta { .. }) {
                step += 1;
                evolve(&mut params, *op, step);
            }
            apply_op(&repo, StoreKind::Remote, *op, step, &params);
        }

        // The first replication pass meets the staged fault; the secondary
        // restarts from its root and resyncs to convergence.
        let (at, fault) = stage;
        let fault = [
            Fault::Crash { keep_pct: 0 },
            Fault::Crash { keep_pct: 50 },
            Fault::Crash { keep_pct: 100 },
            Fault::Fail,
        ][fault];
        {
            let secondary = spawn_secondary();
            let _plan = arm(dir.0.join("secondary/ns/repl-equiv"), at, fault);
            let _ = secondary.repl_sync();
        }
        let secondary = spawn_secondary();
        for _ in 0..64 {
            if secondary.repl_sync().unwrap().remaining == 0 {
                break;
            }
        }
        secondary.promote().unwrap();

        // The promoted secondary must be logically indistinguishable
        // from the primary — same checks the three-way suite applies.
        let failover_store = RemoteStore::connect(secondary.addr(), "repl-equiv").unwrap();
        let failover = CheckpointRepo::with_store(
            dir.0.join("fresh"),
            StoreBackend::Remote(failover_store),
        )
        .unwrap();
        let ids = repo.list_ids().unwrap();
        prop_assert_eq!(&ids, &failover.list_ids().unwrap(), "ids diverged at {:?}", stage);
        for id in &ids {
            prop_assert_eq!(
                repo.load_manifest(id).unwrap().encode(),
                failover.load_manifest(id).unwrap().encode(),
                "manifest {} diverged at {:?}", id, stage
            );
            prop_assert_eq!(repo.load(id).unwrap(), failover.load(id).unwrap());
        }
        match (repo.recover(), failover.recover()) {
            (Ok((s1, _)), Ok((s2, _))) => {
                prop_assert_eq!(s1.step, s2.step);
                prop_assert_eq!(s1.params, s2.params);
            }
            (Err(qcheck::Error::NoValidCheckpoint { .. }),
             Err(qcheck::Error::NoValidCheckpoint { .. })) => {}
            (a, b) => prop_assert!(false, "recover diverged: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
        let fp = fsck(&repo).unwrap();
        let fs = fsck(&failover).unwrap();
        prop_assert_eq!(fp.intact_count(), fs.intact_count(), "intact diverged");
        prop_assert_eq!(fp.orphan_chunks, fs.orphan_chunks, "orphans diverged");
    }
}

/// Recovery into a fresh working directory pulls the namespace's
/// manifests down from the daemon and reports how many
/// (`RecoveryReport::meta_synced` sums the open-time and recovery-time
/// syncs for the handle).
#[test]
fn fresh_directory_recover_reports_meta_synced() {
    let dir = TempDir::new("fresh-meta");
    let (daemon, repo) = remote_repo(&dir.0, "freshmeta");
    let ns = repo.store().remote().unwrap().namespace().to_string();
    let params = vec![0.5f64; N_PARAMS];
    repo.save(&snapshot_at(1, &params), &options(SaveMode::Full))
        .unwrap();
    drop(repo);

    let store = RemoteStore::connect(daemon.addr(), ns).unwrap();
    let fresh =
        CheckpointRepo::with_store(dir.0.join("fresh"), StoreBackend::Remote(store)).unwrap();
    let (snap, report) = fresh.recover().unwrap();
    assert_eq!(snap.step, 1);
    assert_eq!(
        report.meta_synced, 1,
        "the fresh directory pulled one manifest from the daemon"
    );
}

/// The pack files currently published under `dir/packs/`.
fn pack_files(dir: &std::path::Path) -> std::collections::BTreeSet<String> {
    std::fs::read_dir(dir.join("packs"))
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().to_string())
                .filter(|n| n.starts_with("pack-"))
                .collect()
        })
        .unwrap_or_default()
}

/// The pack index must rescan `packs/` at most once per recovery chunk
/// walk. A missing chunk used to trigger one directory rescan *per index
/// miss* — O(chunks) rescans when a whole pack had vanished.
#[test]
fn pack_recovery_rescans_index_at_most_once() {
    let dir = TempDir::new("pack-rescan");
    let mut params = vec![0.5f64; N_PARAMS];
    let new_packs = {
        let repo = CheckpointRepo::open_with(&dir.0, StoreKind::Pack).unwrap();
        repo.save(&snapshot_at(1, &params), &options(SaveMode::Full))
            .unwrap();
        let before = pack_files(&dir.0);

        // A healthy recovery never touches the miss path: zero rescans.
        let rescans = repo.store().pack().unwrap().index_rescans();
        let (snap, _) = repo.recover().unwrap();
        assert_eq!(snap.step, 1);
        assert_eq!(
            repo.store().pack().unwrap().index_rescans(),
            rescans,
            "healthy recovery must not rescan packs/"
        );

        params[7] += 1.0;
        repo.save(&snapshot_at(2, &params), &options(SaveMode::Full))
            .unwrap();
        let after = pack_files(&dir.0);
        after.difference(&before).cloned().collect::<Vec<_>>()
    };
    assert!(!new_packs.is_empty(), "second save must publish a new pack");
    for name in &new_packs {
        std::fs::remove_file(dir.0.join("packs").join(name)).unwrap();
    }

    // Fresh handle: its index never saw the deleted pack, so every chunk
    // of checkpoint 2 is a clean index miss during the recovery walk.
    let repo = CheckpointRepo::open_with(&dir.0, StoreKind::Pack).unwrap();
    let rescans = repo.store().pack().unwrap().index_rescans();
    let (snap, report) = repo.recover().unwrap();
    assert_eq!(snap.step, 1, "must fall back to the intact checkpoint");
    assert_eq!(report.manifests_tried, 2);
    assert!(!report.skipped.is_empty());
    let walked = repo.store().pack().unwrap().index_rescans() - rescans;
    assert!(
        walked <= 1,
        "recovery chunk walk must rescan packs/ at most once, got {walked}"
    );
}

/// The pack store a backend writes to: the repository itself, or the
/// daemon's namespace directory behind a remote one.
fn pack_root(dir: &std::path::Path, repo: &CheckpointRepo) -> std::path::PathBuf {
    match repo.store().remote() {
        Some(remote) => dir.join("daemon/ns").join(remote.namespace()),
        None => dir.to_path_buf(),
    }
}

/// `pack-<SHA-256 of bytes>.qpk`.
fn pack_name_of(bytes: &[u8]) -> String {
    format!("pack-{}.qpk", qcheck::hash::Sha256::digest(bytes).to_hex())
}

/// The bytes of a pack's index region, located through its footer.
fn pack_index(pack: &[u8]) -> &[u8] {
    let footer = pack.len() - 24;
    let at = u64::from_le_bytes(pack[footer..footer + 8].try_into().unwrap()) as usize;
    &pack[at..footer]
}

/// A pack named by the SHA-256 of the whole file — what earlier versions
/// wrote — sits beside packs named by their index and stays valid on the
/// pack backend and behind a daemon: a save dedups against its objects,
/// `load` / `recover` resolve through it bit-identically, `gc` rewrites
/// it under the index rule without leaving an orphan, and `fsck` is clean.
#[test]
fn packs_named_by_the_whole_file_digest_stay_valid() {
    for backend in ["pack", "remote"] {
        let dir = TempDir::new("whole-file-name");
        let (daemon, repo) = if backend == "remote" {
            let daemon = spawn_daemon(dir.0.join("daemon"), StoreKind::Pack).unwrap();
            let store = RemoteStore::connect(daemon.addr(), "whole-file-name").unwrap();
            let repo =
                CheckpointRepo::with_store(dir.0.join("client"), StoreBackend::Remote(store))
                    .unwrap();
            (Some(daemon), repo)
        } else {
            (
                None,
                CheckpointRepo::open_with(&dir.0, StoreKind::Pack).unwrap(),
            )
        };
        let root = pack_root(&dir.0, &repo);
        // Incompressible parameters over many chunks: save 2 changes only
        // the tail, so it shares most of save 1's chunks.
        let mut params: Vec<f64> = (0..8 * N_PARAMS).map(|i| (i as f64 * 1.7).sin()).collect();
        let first = snapshot_at(1, &params);
        let r1 = repo.save(&first, &options(SaveMode::Full)).unwrap();
        let written: Vec<String> = pack_files(&root).into_iter().collect();
        assert_eq!(written.len(), 1, "{backend}");
        let packs = root.join("packs");
        let bytes = std::fs::read(packs.join(&written[0])).unwrap();
        assert_eq!(written[0], pack_name_of(pack_index(&bytes)), "{backend}");
        let legacy = pack_name_of(&bytes);
        std::fs::rename(packs.join(&written[0]), packs.join(&legacy)).unwrap();
        // A fresh local handle finds the pack by listing `packs/`; the
        // daemon's handle resyncs when the name it knows has gone.
        let repo = match daemon {
            Some(_) => repo,
            None => CheckpointRepo::open_with(&dir.0, StoreKind::Pack).unwrap(),
        };

        *params.last_mut().unwrap() += 1.0;
        let second = snapshot_at(2, &params);
        let r2 = repo.save(&second, &options(SaveMode::Full)).unwrap();
        assert!(
            r2.chunks_deduped > r2.chunks_new,
            "{backend}: save 2 must dedup against the legacy-named pack: {r2:?}"
        );
        let now = pack_files(&root);
        assert_eq!(now.len(), 2, "{backend}: {now:?}");
        assert!(now.contains(&legacy), "{backend}");
        assert_eq!(repo.load(&r1.id).unwrap(), first, "{backend}");
        assert_eq!(repo.load(&r2.id).unwrap(), second, "{backend}");
        assert_eq!(repo.recover().unwrap().0, second, "{backend}");
        assert!(fsck(&repo).unwrap().is_clean(), "{backend}");

        // Retiring save 1 leaves the legacy pack mixed: GC rewrites it.
        let report = repo.apply_retention(Retention::KeepLast(1)).unwrap();
        assert!(report.gc.deleted > 0, "{backend}: {report:?}");
        let after = pack_files(&root);
        assert!(!after.contains(&legacy), "{backend}: {after:?}");
        for name in &after {
            let bytes = std::fs::read(packs.join(name)).unwrap();
            assert_eq!(*name, pack_name_of(pack_index(&bytes)), "{backend}");
        }
        let health = fsck(&repo).unwrap();
        assert!(health.is_clean(), "{backend}: {health:?}");
        assert_eq!(health.orphan_chunks, 0, "{backend}: {health:?}");
        assert_eq!(repo.recover().unwrap().0, second, "{backend}");
    }
}

/// Publishing a blob set that is already on disk, through a second
/// handle that has not rescanned `packs/` (or a second client of the same
/// daemon namespace), leaves exactly one pack, byte-identical to the
/// first: the name depends on the content alone.
#[test]
fn a_second_handle_publishing_the_same_blobs_leaves_one_identical_pack() {
    let blobs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 700 + i as usize]).collect();
    let staged: Vec<qcheck::store::StagedChunk<'_>> = blobs
        .iter()
        .map(|b| qcheck::store::StagedChunk {
            reference: qcheck::chunk::ChunkRef {
                hash: qcheck::hash::Sha256::digest(b),
                len: b.len() as u32,
            },
            data: b,
        })
        .collect();
    let refs: Vec<_> = staged.iter().map(|s| s.reference).collect();
    for backend in ["pack", "remote"] {
        let dir = TempDir::new("same-blobs");
        let daemon = (backend == "remote")
            .then(|| spawn_daemon(dir.0.join("daemon"), StoreKind::Pack).unwrap());
        let open = || match &daemon {
            Some(d) => StoreBackend::Remote(RemoteStore::connect(d.addr(), "same").unwrap()),
            None => StoreBackend::open_sticky(&dir.0, StoreKind::Pack).unwrap(),
        };
        // Both handles exist before the first publish.
        let (a, b) = (open(), open());
        let root = match daemon {
            Some(_) => dir.0.join("daemon/ns/same"),
            None => dir.0.clone(),
        };
        a.put_batch(&staged, false).unwrap();
        let first = pack_files(&root);
        assert_eq!(first.len(), 1, "{backend}");
        let path = root.join("packs").join(first.first().unwrap());
        let bytes = std::fs::read(&path).unwrap();

        b.put_batch(&staged, false).unwrap();
        assert_eq!(pack_files(&root), first, "{backend}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{backend}");
        assert_eq!(b.get_many(&refs).unwrap(), blobs, "{backend}");
        assert_eq!(a.get_many(&refs).unwrap(), blobs, "{backend}");
    }
}

/// A crash *between* the local tombstone append and the mirror deletes
/// used to resurrect retired checkpoints on the next fresh-directory
/// sync. The durable tombstones plus recovery's reconciliation pin the
/// fix: `recover` re-issues the (idempotent) mirror deletes.
#[test]
fn retention_crash_before_mirror_deletes_does_not_resurrect() {
    let dir = TempDir::new("retire-crash");
    let (daemon, repo) = remote_repo(&dir.0, "retire");
    let ns = repo.store().remote().unwrap().namespace().to_string();
    let mut params = vec![0.5f64; N_PARAMS];
    for step in 1..=3u64 {
        params[step as usize] += 0.5;
        repo.save(&snapshot_at(step, &params), &options(SaveMode::Full))
            .unwrap();
    }
    let ids = repo.list_ids().unwrap();
    assert_eq!(ids.len(), 3);
    let kept = ids.last().unwrap().clone();

    // The daemon dies at its first op of the retention — the first mirror
    // delete — after the tombstones landed in the client's log.
    let err = {
        let _armed = arm(
            dir.0.join("daemon/ns").join(&ns),
            1,
            Fault::Crash { keep_pct: 0 },
        );
        repo.apply_retention(Retention::KeepLast(1)).unwrap_err()
    };
    assert!(err.to_string().contains("op 1: append OPLOG"), "{err}");

    // The crash left the exact divergence of the bug: tombstones are
    // durable locally, but the mirror still lists every manifest.
    assert_eq!(repo.list_ids().unwrap(), vec![kept.clone()]);
    assert_eq!(
        repo.store()
            .remote()
            .unwrap()
            .meta_list("manifests/")
            .unwrap()
            .len(),
        3,
        "crash fired before any mirror delete went out"
    );

    // Recovery reconciles the divergence.
    let (snap, _) = repo.recover().unwrap();
    assert_eq!(snap.step, 3);
    assert_eq!(
        repo.store()
            .remote()
            .unwrap()
            .meta_list("manifests/")
            .unwrap()
            .len(),
        1,
        "recover must re-issue the mirror deletes for tombstoned ids"
    );

    // The resurrection scenario proper: a fresh working directory on the
    // same namespace must see only the kept checkpoint.
    let store = RemoteStore::connect(daemon.addr(), ns).unwrap();
    let fresh =
        CheckpointRepo::with_store(dir.0.join("fresh"), StoreBackend::Remote(store)).unwrap();
    assert_eq!(fresh.list_ids().unwrap(), vec![kept]);
    let (fresh_snap, _) = fresh.recover().unwrap();
    assert_eq!(fresh_snap.step, 3);
}

fn read_slots(paths: &[std::path::PathBuf; 2]) -> [Option<Vec<u8>>; 2] {
    [std::fs::read(&paths[0]).ok(), std::fs::read(&paths[1]).ok()]
}

fn restore_slots(paths: &[std::path::PathBuf; 2], slots: &[Option<Vec<u8>>; 2]) {
    for (path, bytes) in paths.iter().zip(slots) {
        match bytes {
            Some(b) => std::fs::write(path, b).unwrap(),
            None => {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// Tears the committed checkpoint-2 tail of the manifest log at `stride`d
/// byte offsets (truncation and bit flip, against the pre-flip roots a
/// real crash would leave) and asserts recovery opens the longest valid
/// prefix; then tears each root slot byte-by-byte and asserts fallback
/// across slots. `mirror_heals` is true for the remote backend, whose
/// meta mirror re-supplies the torn manifest.
fn torn_tail_sweep(repo: &CheckpointRepo, mirror_heals: bool, stride: usize) {
    use qcheck::manifest_log::RECORD_OVERHEAD;

    let params1: Vec<f64> = (0..64).map(|i| 0.1 * i as f64).collect();
    let mut params2 = params1.clone();
    params2[3] += 1.0;
    repo.save(&snapshot_at(1, &params1), &options(SaveMode::Full))
        .unwrap();
    let log = repo.manifest_log_path().unwrap();
    let committed = std::fs::read(&log).unwrap().len();
    let paths = [0, 1].map(|slot| qcheck::manifest_log::root_slot_path(repo.root(), slot));
    let slots1 = read_slots(&paths);
    repo.save(&snapshot_at(2, &params2), &options(SaveMode::Full))
        .unwrap();
    let full = std::fs::read(&log).unwrap();
    let slots2 = read_slots(&paths);

    // Frame geometry of the tail: ManifestPut(ckpt2) then LatestAdvance.
    let tail = &full[committed..];
    assert_eq!(tail[4], 1, "tail must start with a ManifestPut record");
    let id_len = u16::from_le_bytes([tail[5], tail[6]]) as usize;
    let pay_len = u32::from_le_bytes(tail[7 + id_len..11 + id_len].try_into().unwrap()) as usize;
    let put_end = committed + RECORD_OVERHEAD + id_len + pay_len;
    assert!(put_end < full.len(), "a LatestAdvance record follows");

    for cut in (committed..=full.len()).step_by(stride.max(1)) {
        // A checkpoint recovers iff its ManifestPut survives whole (or
        // the mirror re-supplies it); the torn remainder is benign.
        let expect = if mirror_heals || cut >= put_end { 2 } else { 1 };

        // Truncation: the tail of a crashed append.
        restore_slots(&paths, &slots1);
        std::fs::write(&log, &full[..cut]).unwrap();
        let (snap, report) = repo.recover().unwrap();
        assert_eq!(snap.step, expect, "truncate at {cut}");
        if !mirror_heals {
            assert!(
                report.skipped.is_empty(),
                "a torn tail is benign, truncate at {cut}: {:?}",
                report.skipped
            );
        }

        // Bit flip: every CRC frame must reject its own damage.
        if cut < full.len() {
            restore_slots(&paths, &slots1);
            let mut damaged = full.clone();
            damaged[cut] ^= 0xA5;
            std::fs::write(&log, &damaged).unwrap();
            let (snap, _) = repo.recover().unwrap();
            assert_eq!(snap.step, expect, "bit flip at {cut}");
        }
    }

    // Root-slot leg: any single torn slot (either of them) falls back to
    // the survivor, and checkpoint 2 — durable in the log — still wins.
    for slot in 0..2 {
        let Some(good) = &slots2[slot] else { continue };
        for off in (0..good.len()).step_by(stride.max(1)) {
            restore_slots(&paths, &slots2);
            std::fs::write(&log, &full).unwrap();
            let mut torn = good.clone();
            torn[off] ^= 0xA5;
            std::fs::write(&paths[slot], &torn).unwrap();
            let (snap, _) = repo.recover().unwrap();
            assert_eq!(snap.step, 2, "flip in slot {slot} byte {off}");

            restore_slots(&paths, &slots2);
            std::fs::write(&log, &full).unwrap();
            std::fs::write(&paths[slot], &good[..off]).unwrap();
            let (snap, _) = repo.recover().unwrap();
            assert_eq!(snap.step, 2, "truncated slot {slot} at {off}");
        }
    }

    // Leave the repository healthy.
    restore_slots(&paths, &slots2);
    std::fs::write(&log, &full).unwrap();
    let (snap, _) = repo.recover().unwrap();
    assert_eq!(snap.step, 2);
}

/// Torn-tail sweep on all three backends. The loose leg tears *every*
/// byte offset; pack and remote share the identical log code path and
/// sweep strided offsets to bound runtime.
#[test]
fn torn_log_tail_opens_longest_valid_prefix_on_every_backend() {
    {
        let dir = TempDir::new("torn-loose");
        let repo = CheckpointRepo::open_with(&dir.0, StoreKind::Loose).unwrap();
        torn_tail_sweep(&repo, false, 1);
    }
    {
        let dir = TempDir::new("torn-pack");
        let repo = CheckpointRepo::open_with(&dir.0, StoreKind::Pack).unwrap();
        torn_tail_sweep(&repo, false, 2);
    }
    {
        let dir = TempDir::new("torn-remote");
        let (_daemon, repo) = remote_repo(&dir.0, "torn");
        torn_tail_sweep(&repo, true, 3);
    }
}

/// Every entry under `dir` by relative path: a file maps to its bytes,
/// a directory to `None`.
fn file_map(
    dir: &std::path::Path,
) -> std::collections::BTreeMap<std::path::PathBuf, Option<Vec<u8>>> {
    let mut out = std::collections::BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in std::fs::read_dir(&next).unwrap().flatten() {
            let path = entry.path();
            let rel = path.strip_prefix(dir).unwrap().to_path_buf();
            if path.is_dir() {
                out.insert(rel, None);
                pending.push(path);
            } else {
                out.insert(rel, Some(std::fs::read(&path).unwrap()));
            }
        }
    }
    out
}

/// A directory in the pre-log `manifests/*.qmf` + `LATEST` layout (no
/// manifest log, no root slot) is refused on every backend with an error
/// naming the layout — never opened as a silently empty repository — and
/// the refusal leaves every file in it byte-identical.
#[test]
fn legacy_layout_is_refused_untouched() {
    for backend in ["loose", "pack", "remote"] {
        let dir = TempDir::new("legacy");
        let kind = StoreKind::parse(backend).unwrap();
        let (daemon, repo, work) = if kind == StoreKind::Remote {
            let (daemon, repo) = remote_repo(&dir.0, "legacy");
            (Some(daemon), repo, dir.0.join("client"))
        } else {
            let repo = CheckpointRepo::open_with(&dir.0, kind).unwrap();
            (None, repo, dir.0.clone())
        };
        let namespace = repo.store().remote().map(|r| r.namespace().to_string());
        let mut params = vec![0.5f64; N_PARAMS];
        for step in 1..=2u64 {
            params[step as usize] += 0.25;
            repo.save(&snapshot_at(step, &params), &options(SaveMode::Full))
                .unwrap();
        }
        let ids = repo.list_ids().unwrap();
        let manifests: Vec<Vec<u8>> = ids
            .iter()
            .map(|id| repo.load_manifest(id).unwrap().encode())
            .collect();
        drop(repo);

        // Rewrite the metadata the way the old layout held it.
        let legacy = work.join("manifests");
        std::fs::create_dir_all(&legacy).unwrap();
        for (id, bytes) in ids.iter().zip(&manifests) {
            std::fs::write(legacy.join(id.file_name()), bytes).unwrap();
        }
        std::fs::write(work.join("LATEST"), ids.last().unwrap().as_str()).unwrap();
        for entry in std::fs::read_dir(&work).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with("ROOT.") || name.ends_with(".qlg") {
                std::fs::remove_file(entry.path()).unwrap();
            }
        }

        let before = file_map(&work);
        let refusal = match (&daemon, namespace) {
            (Some(daemon), Some(ns)) => {
                let store = RemoteStore::connect(daemon.addr(), ns).unwrap();
                CheckpointRepo::with_store(&work, StoreBackend::Remote(store)).err()
            }
            _ => CheckpointRepo::open_with(&work, kind).err(),
        };
        match refusal {
            Some(qcheck::error::Error::InvalidConfig(msg)) => assert!(
                msg.contains("manifests/") && msg.contains("LATEST"),
                "{backend}: the refusal must name the layout: {msg}"
            ),
            other => panic!("{backend}: expected InvalidConfig, got {other:?}"),
        }
        assert_eq!(
            file_map(&work),
            before,
            "{backend}: a refused open must not add, remove or change a file"
        );
    }

    // A directory this build has never opened — no `STORE` marker and no
    // `tmp/` for the refusal to find already in place.
    for kind in [StoreKind::Loose, StoreKind::Pack] {
        let dir = TempDir::new("legacy-unopened");
        std::fs::create_dir_all(dir.0.join("manifests")).unwrap();
        std::fs::write(dir.0.join("manifests/ckpt-00000000.qmf"), b"old manifest").unwrap();
        std::fs::write(dir.0.join("LATEST"), "ckpt-00000000").unwrap();
        std::fs::create_dir_all(dir.0.join("objects/ab")).unwrap();
        std::fs::write(dir.0.join("objects/ab/cdef"), b"old chunk").unwrap();
        let before = file_map(&dir.0);
        let refusal = CheckpointRepo::open_with(&dir.0, kind).err();
        assert!(
            matches!(refusal, Some(qcheck::error::Error::InvalidConfig(_))),
            "{kind}: expected InvalidConfig, got {refusal:?}"
        );
        assert_eq!(
            file_map(&dir.0),
            before,
            "{kind}: a refused open must not add a marker or a directory"
        );
    }
}

/// A dry-run sweep changes no file — client side or daemon side — and
/// its report is the report of the real sweep that follows, on every
/// backend; that sweep leaves no orphan behind, a mostly live pack
/// included.
#[test]
fn dry_run_sweep_changes_no_file_and_predicts_the_sweep() {
    for backend in ["loose", "pack", "remote"] {
        let dir = TempDir::new("dry-run");
        let kind = StoreKind::parse(backend).unwrap();
        let (_daemon, repo) = if kind == StoreKind::Remote {
            let (daemon, repo) = remote_repo(&dir.0, "dry-run");
            (Some(daemon), repo)
        } else {
            (None, CheckpointRepo::open_with(&dir.0, kind).unwrap())
        };
        // Incompressible parameters spanning many chunks, changed only
        // at the tail: save 1 writes every chunk, saves 2 and 3 the few
        // that differ, so retiring 1 and 2 leaves the first pack mostly
        // live with a few dead objects; the crashed save leaves chunks
        // nothing references.
        let mut params: Vec<f64> = (0..8 * N_PARAMS).map(|i| (i as f64 * 1.7).sin()).collect();
        for step in 1..=3u64 {
            *params.last_mut().unwrap() += step as f64;
            repo.save(&snapshot_at(step, &params), &options(SaveMode::Full))
                .unwrap();
        }
        params.iter_mut().for_each(|p| *p = -*p);
        // `dir` holds the daemon too: its first op is the save's first
        // chunk write, which lands whole before the process dies.
        {
            let _armed = arm(&dir.0, 1, Fault::Crash { keep_pct: 100 });
            repo.save(&snapshot_at(4, &params), &options(SaveMode::Full))
                .unwrap_err();
        }
        // Retire without collecting: the process dies once the tombstones
        // are committed (the log append, the root write), before the GC.
        {
            let _armed = arm(&dir.0, 2, Fault::Crash { keep_pct: 100 });
            repo.apply_retention(Retention::KeepLast(1)).unwrap_err();
        }

        let before = file_map(&dir.0);
        let plan = repo.gc_plan().unwrap();
        assert_eq!(
            file_map(&dir.0),
            before,
            "{backend}: a dry run must not add, remove or change a file"
        );
        assert!(plan.deleted > 0, "{backend}: nothing to sweep: {plan:?}");
        assert_eq!(
            repo.gc().unwrap(),
            plan,
            "{backend}: the real sweep must report what the dry run predicted"
        );
        let health = fsck(&repo).unwrap();
        assert_eq!(
            health.orphan_chunks, 0,
            "{backend}: gc must delete every unreachable object: {health:?}"
        );
    }
}

/// `fsck` reads a remote repository's chunks in batches, so its round
/// trips do not grow with chunks per checkpoint: a pair of checkpoints
/// holding one chunk per section costs what a pair holding dozens does.
#[test]
fn remote_fsck_round_trips_do_not_grow_with_chunks_per_checkpoint() {
    let dir = TempDir::new("fsck-trips");
    let daemon = spawn_daemon(dir.0.join("daemon"), StoreKind::Pack).unwrap();
    // (chunks in the larger checkpoint, round trips of one fsck)
    let fsck_cost = |tag: &str, n_params: usize| {
        let store = RemoteStore::connect(daemon.addr(), format!("fsck-{tag}")).unwrap();
        let repo =
            CheckpointRepo::with_store(dir.0.join(tag), StoreBackend::Remote(store)).unwrap();
        let mut params: Vec<f64> = (0..n_params).map(|i| (i as f64 * 1.7).sin()).collect();
        for step in 1..=2u64 {
            params[0] += step as f64;
            repo.save(&snapshot_at(step, &params), &options(SaveMode::Full))
                .unwrap();
        }
        let chunks = repo
            .list_ids()
            .unwrap()
            .iter()
            .map(|id| repo.load_manifest(id).unwrap().chunk_refs().count())
            .max()
            .unwrap();
        let remote = repo.store().remote().unwrap();
        let before = remote.round_trips();
        let report = fsck(&repo).unwrap();
        assert!(report.is_clean(), "{tag}: {report:?}");
        (chunks, remote.round_trips() - before)
    };
    let (few, few_trips) = fsck_cost("few", 16);
    let (many, many_trips) = fsck_cost("many", 8 * N_PARAMS);
    assert!(
        many >= few + 10,
        "{many} chunks vs {few}: not a many-chunk pair"
    );
    assert_eq!(
        few_trips, many_trips,
        "fsck round trips grew from {few} to {many} chunks per checkpoint"
    );
}

/// A client dying mid-`put_batch` (its frame never completes) must leave
/// the daemon's store clean: the next client sees no partial objects, no
/// staging debris, and a working repository.
#[test]
fn client_death_mid_put_batch_recovers_cleanly() {
    let dir = TempDir::new("mid-batch");
    let (daemon, repo) = remote_repo(&dir.0, "midbatch");
    let ns = repo.store().remote().unwrap().namespace().to_string();
    let mut params = vec![0.75f64; N_PARAMS];
    repo.save(&snapshot_at(1, &params), &options(SaveMode::Full))
        .unwrap();

    // A raw client handshakes into the same namespace, then dies halfway
    // through a PUT_BATCH frame.
    qcheck::remote::fault::die_mid_put_batch(&daemon.addr(), &ns, vec![0xEEu8; 8192]).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));

    // The surviving client keeps working and recovery is clean.
    let (snap, report) = repo.recover().unwrap();
    assert_eq!(snap.step, 1);
    assert!(report.skipped.is_empty());
    params[3] += 1.0;
    repo.save(&snapshot_at(2, &params), &options(SaveMode::Full))
        .unwrap();
    let health = fsck(&repo).unwrap();
    assert_eq!(health.intact_count(), 2);
    assert_eq!(
        health.orphan_chunks, 0,
        "the dead client's half-frame must not materialize objects"
    );
}

/// One writer at a time, with one meaning on every backend: while a
/// handle holds the lock a second handle on the same repository is
/// refused with a typed error, and dropping the guard — nothing else —
/// lets the second handle in. Local backends exclude through the `LOCK`
/// file lock, the daemon through the namespace's writer lease.
#[test]
fn writer_lock_excludes_a_second_writer_on_every_backend() {
    for backend in ["loose", "pack", "remote"] {
        let dir = TempDir::new("lock");
        let kind = StoreKind::parse(backend).unwrap();
        let (_daemon, first, second) = if kind == StoreKind::Remote {
            let (daemon, first) = remote_repo(&dir.0, "lock");
            let ns = first.store().remote().unwrap().namespace().to_string();
            let store = RemoteStore::connect(daemon.addr(), ns).unwrap();
            let second =
                CheckpointRepo::with_store(dir.0.join("client-2"), StoreBackend::Remote(store))
                    .unwrap();
            (Some(daemon), first, second)
        } else {
            let first = CheckpointRepo::open_with(&dir.0, kind).unwrap();
            let second = CheckpointRepo::open_with(&dir.0, kind).unwrap();
            (None, first, second)
        };
        let guard = first.try_lock().unwrap();
        let refusal = second.try_lock().err();
        assert!(
            matches!(
                refusal,
                Some(qcheck::error::Error::Locked(_) | qcheck::error::Error::LeaseHeld(_))
            ),
            "{backend}: a second writer must be refused, got {refusal:?}"
        );
        drop(guard);
        let guard = second
            .try_lock()
            .unwrap_or_else(|e| panic!("{backend}: dropping the guard must unlock: {e}"));
        assert!(
            first.try_lock().is_err(),
            "{backend}: exclusion must hold the other way round too"
        );
        drop(guard);
    }
}

/// A subject whose state is one fixed snapshot.
struct Frozen(TrainingSnapshot);

impl Checkpointable for Frozen {
    fn capture(&self) -> TrainingSnapshot {
        self.0.clone()
    }
    fn restore(&mut self, snapshot: &TrainingSnapshot) -> Result<(), String> {
        self.0 = snapshot.clone();
        Ok(())
    }
}

/// The save driver is the guard's one product caller: while a
/// `Checkpointer` lives on a repository, a second one on the same
/// directory / namespace is refused with the backend's typed error, and
/// it is admitted once the first has finished — or was merely dropped,
/// with a save still in flight, which the drop drains first.
#[test]
fn a_second_save_driver_is_refused_on_every_backend() {
    for backend in ["loose", "pack", "remote"] {
        let dir = TempDir::new("driver-lock");
        let kind = StoreKind::parse(backend).unwrap();
        let daemon = (kind == StoreKind::Remote)
            .then(|| spawn_daemon(dir.0.join("daemon"), StoreKind::Pack).unwrap());
        let mut handles = 0;
        let mut open = || match &daemon {
            Some(daemon) => {
                handles += 1;
                let store = RemoteStore::connect(daemon.addr(), "driver-lock").unwrap();
                let client = dir.0.join(format!("client-{handles}"));
                CheckpointRepo::with_store(client, StoreBackend::Remote(store)).unwrap()
            }
            None => CheckpointRepo::open_with(&dir.0, kind).unwrap(),
        };
        let driver = |repo| {
            let policy = Box::new(EveryKSteps::new(1));
            Checkpointer::new(repo, policy, options(SaveMode::Full))
        };
        let subject = Frozen(snapshot_at(1, &vec![0.5; N_PARAMS]));

        let mut first = driver(open()).unwrap();
        assert!(first.on_step(1, &subject).unwrap());
        let refusal = driver(open()).err();
        assert!(
            matches!(
                refusal,
                Some(qcheck::error::Error::Locked(_) | qcheck::error::Error::LeaseHeld(_))
            ),
            "{backend}: a second driver must be refused, got {refusal:?}"
        );
        first.finish().unwrap();

        let mut second = driver(open())
            .unwrap_or_else(|e| panic!("{backend}: finish must release the lock: {e}"));
        assert!(
            driver(open()).is_err(),
            "{backend}: the second excludes too"
        );
        assert!(second.on_step(2, &subject).unwrap());
        drop(second);

        let third =
            driver(open()).unwrap_or_else(|e| panic!("{backend}: drop must release the lock: {e}"));
        assert_eq!(
            third.repo().list_ids().unwrap().len(),
            2,
            "{backend}: the dropped driver's save in flight was drained"
        );
    }
}

/// Save/recover drills move the qobs counters by at least the drill's
/// own contribution. Deltas are `>=`, never `==`: every test in this
/// binary shares one process-wide registry. Only deterministic
/// counters are asserted — never timings. Pinned to the pack store:
/// the fsync and rename histograms asserted here belong to *this*
/// process, and a remote save renames in the daemon (whose registry is
/// `metrics_wire.rs`'s subject).
#[test]
fn observability_counters_track_a_save_recover_drill() {
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let dir = TempDir::new("obs-deltas");
    let repo = CheckpointRepo::open_with(dir.0.join("repo"), StoreKind::Pack).unwrap();

    let saves0 = qobs::counter("qcheck_saves_total").get();
    let recovers0 = qobs::counter("qcheck_recovers_total").get();
    let tried0 = qobs::counter("qcheck_manifests_tried_total").get();
    let replays0 = qobs::counter("qcheck_manifest_log_replays_total").get();
    let fsyncs0 = qobs::histogram("qcheck_fsync_ns").count();
    let renames0 = qobs::histogram("qcheck_rename_ns").count();

    // fsync on: the default stays off for speed, but this drill pins
    // the durability histograms, which only fill when fsync runs.
    let durable = |mode| SaveOptions {
        fsync: true,
        ..options(mode)
    };
    let params = vec![0.25f64; N_PARAMS];
    repo.save(&snapshot_at(1, &params), &durable(SaveMode::Full))
        .unwrap();
    repo.save(
        &snapshot_at(2, &params),
        &durable(SaveMode::DeltaAuto { max_chain_len: 4 }),
    )
    .unwrap();
    let (snap, report) = repo.recover().unwrap();
    assert_eq!(snap.step, 2);
    assert_eq!(report.manifests_tried, 1);

    assert!(qobs::counter("qcheck_saves_total").get() >= saves0 + 2);
    assert!(qobs::counter("qcheck_recovers_total").get() > recovers0);
    assert!(qobs::counter("qcheck_manifests_tried_total").get() > tried0);
    assert!(qobs::counter("qcheck_manifest_log_replays_total").get() > replays0);
    // Every durable save fsyncs and renames at least once (chunk
    // payloads plus the manifest-log append).
    assert!(qobs::histogram("qcheck_fsync_ns").count() >= fsyncs0 + 2);
    assert!(qobs::histogram("qcheck_rename_ns").count() >= renames0 + 2);
}

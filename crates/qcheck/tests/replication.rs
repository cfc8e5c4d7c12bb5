//! Replication, failover, fencing, lease and auth integration suite.
//!
//! The scenario under test is the paper's deployment story taken to its
//! operational conclusion: checkpoints must survive not just the
//! training *process* but the checkpoint *daemon*. A secondary `qckptd`
//! tails the primary's per-namespace oplog; when the primary dies an
//! operator promotes the secondary, the promotion bumps the fencing
//! generation, clients fail over, and the demoted primary can never
//! accept another write from a client that has seen the new generation.

use std::collections::BTreeSet;
use std::time::Duration;

use qcheck::failure::{arm, Fault};
use qcheck::remote::proto::{ROLE_PRIMARY, ROLE_SECONDARY};
use qcheck::remote::{
    spawn_daemon, spawn_secondary, DaemonHandle, RemoteStore, ReplicateConfig, Server, ServerConfig,
};
use qcheck::repo::{CheckpointRepo, Retention, SaveMode, SaveOptions};
use qcheck::snapshot::{StateBlob, TrainingSnapshot};
use qcheck::store::{ObjectStore, StoreBackend, StoreKind};
use qcheck::verify::fsck;
use qcheck::Error;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "qcheck-repl-{tag}-{}-{}",
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

/// Spawns a *manual* secondary: role SECONDARY, no background tailer —
/// the tests drive replication passes explicitly via
/// [`DaemonHandle::repl_sync`], and crash one with the fault plan.
fn spawn_manual_secondary(root: &std::path::Path, primary_addr: &str) -> DaemonHandle {
    let mut config = ServerConfig::new(root);
    config.store_kind = StoreKind::Loose;
    let mut repl = ReplicateConfig::new(primary_addr);
    repl.manual = true;
    config.replicate = Some(repl);
    Server::bind("127.0.0.1:0", config).unwrap().spawn()
}

fn snapshot_at(step: u64, params: &[f64]) -> TrainingSnapshot {
    let mut s = TrainingSnapshot::new("replication");
    s.step = step;
    s.params = params.to_vec();
    s.optimizer = StateBlob::new("adam-v1", vec![(step % 251) as u8; 128]);
    s.total_shots = step * 500;
    s
}

fn options(mode: SaveMode) -> SaveOptions {
    SaveOptions {
        mode,
        created_unix_ms: Some(1_750_000_000_000),
        ..SaveOptions::default()
    }
}

fn open_repo(addr: &str, ns: &str, dir: &std::path::Path) -> CheckpointRepo {
    let store = RemoteStore::connect(addr, ns).unwrap();
    CheckpointRepo::with_store(dir, StoreBackend::Remote(store)).unwrap()
}

/// Drives replication passes until the secondary reports zero remaining
/// entries.
fn sync_to_convergence(secondary: &DaemonHandle) {
    for _ in 0..64 {
        let report = secondary.repl_sync().unwrap();
        if report.remaining == 0 {
            return;
        }
    }
    panic!("secondary failed to converge");
}

/// A workload that exercises every oplog op kind: full saves and deltas
/// (MetaPut + chunk content), retention (MetaDelete) and GC (Sweep).
fn apply_workload(repo: &CheckpointRepo) -> Vec<f64> {
    let mut params = vec![0.5f64; 900];
    for step in 1..=3u64 {
        params[step as usize] += 0.25 * step as f64;
        repo.save(&snapshot_at(step, &params), &options(SaveMode::Full))
            .unwrap();
    }
    params[7] += 1e-6;
    repo.save(
        &snapshot_at(4, &params),
        &options(SaveMode::DeltaAuto { max_chain_len: 4 }),
    )
    .unwrap();
    repo.apply_retention(Retention::KeepLast(2)).unwrap();
    params
}

#[test]
fn secondary_converges_and_promotion_yields_identical_repository() {
    let dir = TempDir::new("converge");
    let primary = spawn_daemon(dir.0.join("primary"), StoreKind::Loose).unwrap();
    let secondary = spawn_manual_secondary(&dir.0.join("secondary"), &primary.addr());
    assert_eq!(primary.role(), ROLE_PRIMARY);
    assert_eq!(secondary.role(), ROLE_SECONDARY);

    let repo = open_repo(&primary.addr(), "conv", &dir.0.join("client"));
    let params = apply_workload(&repo);

    sync_to_convergence(&secondary);

    // A secondary refuses writes until promoted (reads are fine).
    let probe = RemoteStore::connect(secondary.addr(), "conv").unwrap();
    let err = probe.meta_put("probe", b"x").unwrap_err();
    assert!(matches!(err, Error::NotPrimary(_)), "{err}");
    drop(probe);

    // Promote: generation advances past the primary's.
    let old_gen = primary.generation();
    let new_gen = secondary.promote().unwrap();
    assert!(new_gen > old_gen, "promotion must bump the generation");
    assert_eq!(secondary.role(), ROLE_PRIMARY);

    // A fresh working directory against the promoted secondary
    // reconstructs the repository: same checkpoint ids, byte-identical
    // manifests, same recovered snapshot, fsck-clean.
    let failover = open_repo(&secondary.addr(), "conv", &dir.0.join("fresh"));
    let (snap, _) = failover.recover().unwrap();
    assert_eq!(snap.step, 4);
    assert_eq!(snap.params, params);
    let ids = repo.list_ids().unwrap();
    assert_eq!(failover.list_ids().unwrap(), ids);
    for id in &ids {
        assert_eq!(
            repo.load_manifest(id).unwrap().encode(),
            failover.load_manifest(id).unwrap().encode(),
            "manifest {id} must replicate byte-identically"
        );
    }
    let health = fsck(&failover).unwrap();
    assert_eq!(health.intact_count(), ids.len());
    assert_eq!(health.orphan_chunks, 0, "retention deletes must replicate");
}

#[test]
fn background_tailer_follows_a_live_primary() {
    let dir = TempDir::new("tailer");
    let primary = spawn_daemon(dir.0.join("primary"), StoreKind::Pack).unwrap();
    let secondary =
        spawn_secondary(dir.0.join("secondary"), StoreKind::Pack, &primary.addr()).unwrap();

    let repo = open_repo(&primary.addr(), "tail", &dir.0.join("client"));
    apply_workload(&repo);

    // The background tailer must converge without any manual driving:
    // the workload is over, so the primary's length is the target. (Lag
    // alone is measured against the tailer's *last poll* and reads 0
    // whenever it has applied everything it has seen so far.)
    let target = RemoteStore::connect(primary.addr(), "tail")
        .unwrap()
        .status()
        .unwrap()
        .oplog_entries;
    assert!(target > 0);
    let status_probe = RemoteStore::connect(secondary.addr(), "tail").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let status = status_probe.status().unwrap();
        if status.repl_lag == 0 && status.oplog_entries == target {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "tailer failed to reach the primary's {target} entries: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn tailer_survives_connection_drops_on_the_replication_stream() {
    let dir = TempDir::new("repl-drops");
    // Every connection to the primary — including the secondary's
    // replication streams — dies after 3 requests.
    let mut config = ServerConfig::new(dir.0.join("primary"));
    config.store_kind = StoreKind::Loose;
    config.drop_after_requests = Some(3);
    let primary = Server::bind("127.0.0.1:0", config).unwrap().spawn();
    let secondary = spawn_manual_secondary(&dir.0.join("secondary"), &primary.addr());

    let repo = open_repo(&primary.addr(), "drops", &dir.0.join("client"));
    apply_workload(&repo);

    // Each manual pass gets a fresh stream and is cut short by the drop
    // budget — exactly what the background tailer's reconnect loop
    // handles by starting a new pass. Progress made before each cut
    // (applied entries land in the secondary's own oplog) must persist,
    // so repeated passes converge by resuming from the local offset.
    let mut converged = false;
    for _ in 0..200 {
        match secondary.repl_sync() {
            Ok(report) if report.remaining == 0 => {
                converged = true;
                break;
            }
            Ok(_) => {}
            // The injected drop kills the stream mid-pass; the next
            // pass reconnects.
            Err(Error::Io { .. } | Error::Protocol { .. }) => {}
            Err(e) => panic!("unexpected replication failure: {e}"),
        }
    }
    assert!(converged, "tailer passes failed to converge through drops");
    secondary.promote().unwrap();
    let failover = open_repo(&secondary.addr(), "drops", &dir.0.join("fresh"));
    let (snap, _) = failover.recover().unwrap();
    assert_eq!(snap.step, 4);
    assert_eq!(fsck(&failover).unwrap().orphan_chunks, 0);
}

#[test]
fn oplog_stage_crash_drills_resync_idempotently() {
    // A secondary that died mid-pass — after pulling an entry's chunks
    // but before appending it, or after appending but before acking —
    // must converge to the identical store on the next full pass. The
    // first pass dies right after each of its durable ops in turn.
    let dir = TempDir::new("drill");
    let primary = spawn_daemon(dir.0.join("primary"), StoreKind::Loose).unwrap();
    let repo = open_repo(&primary.addr(), "drill", &dir.0.join("client"));
    apply_workload(&repo);
    let first_pass = |root: &std::path::Path, at: u64| {
        let secondary = spawn_manual_secondary(root, &primary.addr());
        let plan = arm(root.join("ns/drill"), at, Fault::Crash { keep_pct: 100 });
        let partial = secondary.repl_sync();
        (
            partial.map_or(true, |report| report.remaining > 0),
            plan.ops(),
        )
    };
    let (_, ops) = first_pass(&dir.0.join("count"), 0);
    assert!(ops > 0, "the pass issued no durable op");
    for at in 1..=ops {
        let tag = format!("op {at} of {ops}");
        let root = dir.0.join(format!("secondary-{at}"));
        // Partial pass, "crashing" at the drill point…
        let (stopped, _) = first_pass(&root, at);
        assert!(stopped, "{tag}: the drill must stop before convergence");
        // …then a restarted secondary resyncs: already-shipped chunks and
        // already-appended entries must not duplicate or corrupt.
        let secondary = spawn_manual_secondary(&root, &primary.addr());
        sync_to_convergence(&secondary);
        secondary.promote().unwrap();
        let failover = open_repo(&secondary.addr(), "drill", &root.join("fresh"));
        let (snap, _) = failover.recover().unwrap();
        assert_eq!(snap.step, 4, "{tag}");
        let health = fsck(&failover).unwrap();
        assert_eq!(health.orphan_chunks, 0, "{tag}: orphans after resync");
        assert_eq!(
            repo.list_ids().unwrap(),
            failover.list_ids().unwrap(),
            "{tag}: histories diverged"
        );
    }
}

#[test]
fn stale_generation_fences_a_demoted_primary() {
    let dir = TempDir::new("fence");
    let stale = spawn_daemon(dir.0.join("stale"), StoreKind::Pack).unwrap();
    let promoted = spawn_daemon(dir.0.join("promoted"), StoreKind::Pack).unwrap();
    let new_gen = promoted.promote().unwrap();
    assert!(new_gen > stale.generation());

    // The client dials the promoted daemon first and adopts its
    // generation as the fencing floor.
    let spec = format!("{},{}", promoted.addr(), stale.addr());
    let store = RemoteStore::connect(spec, "fence").unwrap();
    assert_eq!(store.observed_generation(), new_gen);
    store.put(b"written at the new generation").unwrap();

    // The promoted daemon dies; the only remaining address has an older
    // generation than the client has observed. Failing over to it would
    // silently fork history — the client must refuse with the typed
    // stale-generation error rather than retry its way into the past.
    promoted.shutdown();
    let err = store.status().unwrap_err();
    assert!(matches!(err, Error::StaleGeneration(_)), "{err}");
    // The demoted daemon itself is alive and healthy for *un*-fenced
    // clients (ones that never saw the newer generation).
    let fresh = RemoteStore::connect(stale.addr(), "fence").unwrap();
    fresh.status().unwrap();
}

#[test]
fn writer_lease_excludes_second_writer_and_expires_by_ttl() {
    let dir = TempDir::new("lease");
    let mut config = ServerConfig::new(dir.0.join("daemon"));
    config.lease_ttl = Duration::from_millis(200);
    let daemon = Server::bind("127.0.0.1:0", config).unwrap().spawn();

    // Lease traffic feeds the qobs registry, shared by every in-process
    // daemon in this test binary — hence `>=` deltas.
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let grants0 = qobs::counter("qckptd_lease_grants_total").get();
    let expiries0 = qobs::counter("qckptd_lease_expiries_total").get();

    let writer = RemoteStore::connect(daemon.addr(), "leased").unwrap();
    writer.acquire_writer_lease().unwrap();
    assert!(qobs::counter("qckptd_lease_grants_total").get() > grants0);
    // Re-acquiring from the same handle renews (token re-presented on
    // the forced re-handshake), it does not conflict.
    writer.acquire_writer_lease().unwrap();

    // A second handle is refused with the typed error while the holder
    // keeps renewing via traffic.
    let intruder = RemoteStore::connect(daemon.addr(), "leased").unwrap();
    writer.status().unwrap();
    let err = intruder.acquire_writer_lease().unwrap_err();
    assert!(matches!(err, Error::LeaseHeld(_)), "{err}");

    // An explicit release hands the lease over immediately.
    writer.release_writer_lease();
    intruder.acquire_writer_lease().unwrap();

    // A writer that is killed (no release, no traffic) leaks nothing
    // forever: the lease expires by TTL.
    std::mem::forget(intruder);
    std::thread::sleep(Duration::from_millis(400));
    let heir = RemoteStore::connect(daemon.addr(), "leased").unwrap();
    heir.acquire_writer_lease().unwrap();
    // Three fresh grants (writer, intruder, heir) and one TTL expiry
    // crossed the registry during this drill.
    assert!(qobs::counter("qckptd_lease_grants_total").get() >= grants0 + 3);
    assert!(qobs::counter("qckptd_lease_expiries_total").get() > expiries0);
}

#[test]
fn dropping_the_store_releases_its_lease() {
    let dir = TempDir::new("lease-drop");
    let daemon = spawn_daemon(dir.0.join("daemon"), StoreKind::Pack).unwrap();
    let writer = RemoteStore::connect(daemon.addr(), "dropped").unwrap();
    writer.acquire_writer_lease().unwrap();
    drop(writer); // best-effort LeaseRelease on the open connection
    let next = RemoteStore::connect(daemon.addr(), "dropped").unwrap();
    next.acquire_writer_lease()
        .expect("a dropped handle must not hold the lease for the whole TTL");
}

#[test]
fn auth_token_gates_shutdown_sweep_and_replication() {
    let dir = TempDir::new("auth");
    let mut config = ServerConfig::new(dir.0.join("daemon"));
    config.auth_token = Some("sekrit".into());
    let daemon = Server::bind("127.0.0.1:0", config).unwrap().spawn();

    // A wrong (non-empty) token is refused at the handshake.
    let err = RemoteStore::connect_opts(daemon.addr(), "authed", Some("wrong".into())).unwrap_err();
    assert!(matches!(err, Error::Unauthorized(_)), "{err}");

    // No token: the data plane stays open, privileged operations do not
    // — even from loopback, because a token is configured.
    let anon = RemoteStore::connect_opts(daemon.addr(), "authed", None).unwrap();
    let (r, _) = anon.put(b"data plane is open").unwrap();
    assert_eq!(anon.get(&r).unwrap(), b"data plane is open");
    anon.sweep(&BTreeSet::new(), true).unwrap(); // dry-run: harmless
    let err = anon.sweep(&BTreeSet::new(), false).unwrap_err();
    assert!(
        matches!(err, Error::Unauthorized(_)),
        "destructive sweep: {err}"
    );
    let err = anon.shutdown_daemon().unwrap_err();
    assert!(matches!(err, Error::Unauthorized(_)), "shutdown: {err}");
    let err = anon.promote_daemon().unwrap_err();
    assert!(matches!(err, Error::Unauthorized(_)), "promote: {err}");

    // An unauthenticated secondary cannot open a replication stream
    // (the oplog carries every namespace's data).
    let unauth_secondary = spawn_manual_secondary(&dir.0.join("unauth-sec"), &daemon.addr());
    let err = unauth_secondary.repl_sync().unwrap_err();
    assert!(matches!(err, Error::Unauthorized(_)), "repl: {err}");

    // The right token unlocks all of it.
    let mut sec_config = ServerConfig::new(dir.0.join("auth-sec"));
    let mut repl = ReplicateConfig::new(daemon.addr());
    repl.manual = true;
    repl.auth_token = Some("sekrit".into());
    sec_config.replicate = Some(repl);
    let auth_secondary = Server::bind("127.0.0.1:0", sec_config).unwrap().spawn();
    auth_secondary.repl_sync().unwrap();

    let authed = RemoteStore::connect_opts(daemon.addr(), "authed", Some("sekrit".into())).unwrap();
    authed.sweep(&BTreeSet::new(), false).unwrap();
    authed.shutdown_daemon().unwrap();
}

/// End-to-end acceptance drill: a writer is killed mid-save by its
/// primary dying; the secondary is promoted; a client with a failover
/// address list resumes against it, bit-identically, from a fresh
/// working directory.
#[test]
fn kill_primary_mid_save_promote_and_resume_via_failover_list() {
    let dir = TempDir::new("kill-drill");
    let primary = spawn_daemon(dir.0.join("primary"), StoreKind::Loose).unwrap();
    let secondary = spawn_manual_secondary(&dir.0.join("secondary"), &primary.addr());
    let failover_spec = format!("{},{}", primary.addr(), secondary.addr());

    // Phase 1: a client (with the failover list) commits steps 1..=3,
    // the secondary tails them, and then the primary is killed while a
    // half-written PUT_BATCH for step 4 is in flight.
    let repo = open_repo(&failover_spec, "drill", &dir.0.join("client"));
    let mut params = vec![0.25f64; 900];
    for step in 1..=3u64 {
        params[step as usize] += 0.5;
        repo.save(&snapshot_at(step, &params), &options(SaveMode::Full))
            .unwrap();
    }
    sync_to_convergence(&secondary);
    qcheck::remote::fault::die_mid_put_batch(&primary.addr(), "drill", vec![0xAB; 4096]).unwrap();
    primary.shutdown(); // the kill

    // Phase 2: operator promotes the secondary…
    let gen = secondary.promote().unwrap();
    assert!(gen > 1);

    // …and the surviving client handle fails over transparently: its
    // next save lands on the promoted secondary.
    params[4] += 0.5;
    repo.save(&snapshot_at(4, &params), &options(SaveMode::Full))
        .unwrap();
    assert_eq!(
        repo.store().remote().unwrap().observed_generation(),
        gen,
        "the client must adopt the promoted generation on failover"
    );

    // Phase 3: a fresh working directory pointed at the failover list
    // resumes from the promoted secondary (the dead primary is skipped)
    // with the exact committed state — including the post-failover save
    // — and a clean bill of health.
    let fresh = open_repo(&failover_spec, "drill", &dir.0.join("fresh"));
    let (snap, _) = fresh.recover().unwrap();
    assert_eq!(snap.step, 4);
    assert_eq!(snap.params, params);
    let health = fsck(&fresh).unwrap();
    assert_eq!(health.intact_count(), 4);
    assert_eq!(health.orphan_chunks, 0, "the half-frame must not survive");
}

/// A tenant whose primary-side data is damaged must not starve the
/// rest of the fleet: the tailer pulls each chunk through a content-
/// address check, and a namespace that fails it is quarantined for the
/// pass (reported, lag retained) while every other namespace keeps
/// replicating and stays fully usable after promotion.
#[test]
fn a_poisoned_namespace_is_quarantined_without_starving_others() {
    let dir = TempDir::new("quarantine");
    let primary = spawn_daemon(dir.0.join("primary"), StoreKind::Loose).unwrap();

    // "aaa-poison" sorts before "zzz-clean", so before quarantine
    // existed the poisoned tenant aborted the pass ahead of the clean
    // one on every poll.
    let bad = open_repo(&primary.addr(), "aaa-poison", &dir.0.join("bad"));
    let r = bad
        .save(&snapshot_at(1, &vec![1.0; 900]), &options(SaveMode::Full))
        .unwrap();
    let victim = bad
        .load_manifest(&r.id)
        .unwrap()
        .chunk_refs()
        .next()
        .unwrap()
        .hash;
    bad.store().corrupt_object(&victim, 0).unwrap();

    let clean = open_repo(&primary.addr(), "zzz-clean", &dir.0.join("clean"));
    let params = apply_workload(&clean);

    let secondary = spawn_manual_secondary(&dir.0.join("secondary"), &primary.addr());
    let report = secondary.repl_sync().unwrap();
    assert_eq!(report.quarantined, 1, "the poisoned tenant is set aside");
    assert!(report.remaining > 0, "its entries stay outstanding");
    assert!(
        report.entries_applied > 0,
        "the clean tenant must replicate in the same pass"
    );
    // The quarantine is stable: another pass neither clears nor grows it.
    let again = secondary.repl_sync().unwrap();
    assert_eq!(again.quarantined, 1);
    assert_eq!(
        again.entries_applied, 0,
        "the clean tenant already converged"
    );

    // After promotion the clean tenant is fully usable from a fresh
    // working directory.
    secondary.promote().unwrap();
    let fresh = open_repo(&secondary.addr(), "zzz-clean", &dir.0.join("fresh"));
    let (snap, _) = fresh.recover().unwrap();
    assert_eq!(snap.step, 4);
    assert_eq!(snap.params, params);
    assert!(fsck(&fresh).unwrap().is_clean());
}

/// Value of the primary's `qckptd_requests_total{ns="control",op="fetch"}`
/// counter: tailers Hello into the nominal `control` namespace, so this
/// is their share of the one fetch op.
fn repl_chunks_requests(primary: &DaemonHandle) -> u64 {
    let probe = RemoteStore::connect(primary.addr(), "probe").unwrap();
    probe
        .metrics()
        .unwrap()
        .lines()
        .find(|l| {
            l.starts_with("qckptd_requests_total{")
                && l.contains("ns=\"control\"")
                && l.contains("op=\"fetch\"")
        })
        .and_then(|l| l.rsplit_once(' '))
        .map_or(0, |(_, value)| value.parse().unwrap())
}

/// A checkpoint with more new payload than one frame's budget replicates
/// in several bounded `Fetch` round trips — not one reply holding
/// the whole checkpoint, which above the frame cap could never be sent
/// at all — and the secondary's copy is bit-identical.
#[test]
fn a_large_checkpoint_replicates_in_bounded_chunk_batches() {
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let dir = TempDir::new("big");
    let primary = spawn_daemon(dir.0.join("primary"), StoreKind::Pack).unwrap();
    let secondary = spawn_manual_secondary(&dir.0.join("secondary"), &primary.addr());

    // ≈12 MiB of parameters with random mantissas: incompressible, and
    // every 4 KiB chunk distinct, so all of it is new payload.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let params: Vec<f64> = (0..1_600_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f64::from_bits(0x3FF0_0000_0000_0000 | (x >> 12))
        })
        .collect();
    let repo = open_repo(&primary.addr(), "big", &dir.0.join("client"));
    let saved = repo
        .save(&snapshot_at(1, &params), &options(SaveMode::Full))
        .unwrap();
    assert!(
        saved.new_chunk_bytes > 9 << 20,
        "the drill needs several frames' worth of new payload, got {}",
        saved.new_chunk_bytes
    );

    let before = repl_chunks_requests(&primary);
    sync_to_convergence(&secondary);
    let requests = repl_chunks_requests(&primary) - before;
    assert!(
        requests >= 3,
        "{} new bytes must not ride {requests} Fetch reply/replies",
        saved.new_chunk_bytes
    );

    secondary.promote().unwrap();
    let fresh = open_repo(&secondary.addr(), "big", &dir.0.join("fresh"));
    let (snap, _) = fresh.recover().unwrap();
    assert_eq!(snap.step, 1);
    assert!(
        snap.params
            .iter()
            .map(|p| p.to_bits())
            .eq(params.iter().map(|p| p.to_bits())),
        "the replicated checkpoint must resolve bit-identically"
    );
    assert!(fsck(&fresh).unwrap().is_clean());
}

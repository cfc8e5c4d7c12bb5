//! A crash — or a failed write — at every durable op of "open a fresh
//! directory, then save once", through `CheckpointRepo::open` exactly as a
//! training script calls it: on pack, and with `QCHECK_REMOTE_ADDR` naming
//! an in-process daemon and no `QCHECK_REMOTE_NS`, so the namespace is
//! generated and kept in the directory's `REMOTE_NS` marker.
//!
//! The reopened directory holds no checkpoint, or holds it in the
//! namespace the crashed run used; a torn `STORE` or `REMOTE_NS` staging
//! file never stops the reopen. This binary holds one test: it sets
//! process environment variables, which no other thread may be reading.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use qcheck::failure::{arm, Fault};
use qcheck::remote::{spawn_daemon, DaemonHandle, RemoteStore};
use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::TrainingSnapshot;
use qcheck::store::StoreKind;
use qcheck::Error;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "qcheck-fresh-open-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Namespaces on `daemon` (rooted at `daemon_root`) that list a manifest.
fn namespaces_with_manifests(daemon: &DaemonHandle, daemon_root: &Path) -> BTreeSet<String> {
    let names = std::fs::read_dir(daemon_root.join("ns")).unwrap().flatten();
    names
        .map(|ns| ns.file_name().to_string_lossy().to_string())
        .filter(|ns| {
            let store = RemoteStore::connect(daemon.addr(), ns.as_str()).unwrap();
            !store.meta_list("manifests/").unwrap().is_empty()
        })
        .collect()
}

#[test]
fn a_crash_opening_a_fresh_directory_keeps_its_backend_and_namespace() {
    let daemon_dir = TempDir::new("daemon");
    let daemon = spawn_daemon(&daemon_dir.0, StoreKind::Pack).unwrap();
    std::env::set_var("QCHECK_REMOTE_ADDR", daemon.addr());
    std::env::remove_var("QCHECK_REMOTE_NS");
    let mut snapshot = TrainingSnapshot::new("fresh-open");
    snapshot.params = vec![0.5; 64];
    let open = |dir: &Path, kind| match kind {
        StoreKind::Remote => CheckpointRepo::open(dir),
        _ => CheckpointRepo::open_with(dir, kind),
    };
    let run = |dir: &Path, kind| open(dir, kind)?.save(&snapshot, &SaveOptions::default());
    let faults = [0, 50, 100].map(|keep_pct| Fault::Crash { keep_pct });
    let mut cases = 0;
    for kind in [StoreKind::Pack, StoreKind::Remote] {
        let ops = {
            let dir = TempDir::new("count");
            let counting = arm(&dir.0, 0, Fault::Fail);
            run(&dir.0, kind).unwrap();
            counting.ops()
        };
        // The `STORE` marker, then `REMOTE_NS` or the pack, then the log
        // append and the root slot.
        assert_eq!(ops, 4, "{kind}");
        for at in 1..=ops {
            for fault in faults.into_iter().chain([Fault::Fail]) {
                let dir = TempDir::new("case");
                let before = namespaces_with_manifests(&daemon, &daemon_dir.0);
                {
                    let _armed = arm(&dir.0, at, fault);
                    assert!(run(&dir.0, kind).is_err(), "op {at} {fault:?}");
                }
                let repo = open(&dir.0, kind).unwrap();
                assert_eq!(repo.store_kind(), kind, "op {at} {fault:?}");
                match repo.recover() {
                    Ok((recovered, _)) => assert_eq!(recovered, snapshot),
                    Err(e) => assert!(matches!(e, Error::NoValidCheckpoint { .. }), "{e}"),
                }
                let after = namespaces_with_manifests(&daemon, &daemon_dir.0);
                let theirs: Vec<&String> = after.difference(&before).collect();
                if let Some(remote) = repo.store().remote() {
                    assert!(
                        theirs.iter().all(|ns| *ns == remote.namespace()),
                        "op {at} {fault:?}: checkpoints in {theirs:?}, reopened in {}",
                        remote.namespace()
                    );
                }
                cases += 1;
            }
        }
    }
    println!("fresh-open crash matrix: {cases} cases");
}

//! Remote checkpoint storage: the `qckptd` daemon and its client.
//!
//! The paper's argument is that QNN training on queued, preemptible
//! cloud hardware must checkpoint aggressively — which means checkpoints
//! must survive the *machine*, not just the process. This module makes
//! the object store a network service:
//!
//! * [`proto`] — the length-prefixed, CRC-framed binary wire protocol
//!   (versioned handshake, idempotent operations);
//! * [`Server`] / the `qckptd` binary — a multi-tenant daemon serving
//!   per-namespace object stores (reusing the local pack layout and its
//!   crash-safety machinery) plus a named-metadata space for manifests
//!   and the `LATEST` pointer, kept in one record: the namespace's oplog;
//! * [`RemoteStore`] — an [`crate::store::ObjectStore`] client with
//!   connection reuse, pipelined `put_batch`, multi-address failover
//!   with jittered backoff, generation fencing, and server-side writer
//!   leases;
//! * [`repl`] — the per-namespace oplog and the secondary's tailer, which
//!   applies each entry by appending it to its own oplog, replicating a
//!   primary onto a warm standby that can be promoted (`qckptd promote`)
//!   when the primary dies.
//!
//! Selected by the deployment setting alone: a fresh repository opened
//! with `QCHECK_REMOTE_ADDR=host:port` exported is remote (optionally
//! `QCHECK_REMOTE_NS` pins the namespace and `QCHECK_REMOTE_TOKEN`
//! carries the auth token — [`RemoteEnv::read`] is the one place the
//! three are read), or explicitly via
//! [`crate::store::StoreKind::Remote`]. Because the daemon also holds
//! the repository metadata, a training job can be killed and resumed
//! from a *fresh working directory* against the same daemon — the repo
//! pulls manifests and `LATEST` down on open and recovery.

pub mod proto;
pub mod repl;

mod client;
mod server;

pub use client::{RemoteStatus, RemoteStore};
pub use repl::{ReplicateConfig, SyncReport};
pub use server::{
    spawn_daemon, spawn_secondary, DaemonHandle, Server, ServerConfig, DEFAULT_LEASE_TTL,
};

/// Environment variable naming the daemon address — a `host:port`, or a
/// comma-separated failover list (`primary:port,secondary:port`). Setting
/// it is what makes a fresh repository remote.
pub const REMOTE_ADDR_ENV: &str = "QCHECK_REMOTE_ADDR";

/// Environment variable pinning the remote namespace. When unset, a
/// repository generates a random namespace on first open and persists
/// it in its `REMOTE_NS` marker file — resuming from a *different*
/// directory therefore requires either this variable or an explicit
/// [`RemoteStore::connect`].
pub const REMOTE_NS_ENV: &str = "QCHECK_REMOTE_NS";

/// Environment variable carrying the daemon auth token presented in the
/// handshake (required for privileged operations when the daemon is
/// configured with one).
pub const TOKEN_ENV: &str = "QCHECK_REMOTE_TOKEN";

/// What the environment says about the remote deployment. A variable
/// that is unset, empty or all whitespace reads as `None`; values are
/// trimmed and otherwise unjudged (the namespace grammar and the address
/// list are checked where they are used).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RemoteEnv {
    /// [`REMOTE_ADDR_ENV`]: the daemon address or failover list.
    pub addr: Option<String>,
    /// [`REMOTE_NS_ENV`]: the pinned namespace.
    pub namespace: Option<String>,
    /// [`TOKEN_ENV`]: the auth token.
    pub token: Option<String>,
}

impl RemoteEnv {
    /// Reads the three remote variables — the only place they are read.
    pub fn read() -> RemoteEnv {
        let set = |value: std::result::Result<String, std::env::VarError>| {
            value
                .ok()
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
        };
        RemoteEnv {
            addr: set(std::env::var(REMOTE_ADDR_ENV)),
            namespace: set(std::env::var(REMOTE_NS_ENV)),
            token: set(std::env::var(TOKEN_ENV)),
        }
    }
}

/// Protocol-level fault injection for the crash-safety suites.
/// Test-only, like `ObjectStore::corrupt_object`.
#[cfg(any(test, feature = "testing"))]
pub mod fault {
    use std::io::Write as _;

    use crate::chunk::ChunkRef;
    use crate::error::{Error, Result};
    use crate::hash::Sha256;

    use super::proto;

    /// Simulates a client dying mid-`PUT_BATCH`: handshakes into
    /// `namespace`, writes the first half of a framed `PutBatch`
    /// carrying `payload`, and drops the connection. The server must
    /// treat the unfinished frame as if it never arrived.
    pub fn die_mid_put_batch(addr: &str, namespace: &str, payload: Vec<u8>) -> Result<()> {
        let (mut conn, answer) =
            super::client::Conn::open(addr, &proto::Request::hello(namespace))?;
        match answer.into_result("handshake")? {
            proto::Response::HelloOk { .. } => {}
            other => {
                return Err(Error::protocol(
                    "handshake",
                    format!("unexpected response {other:?}"),
                ))
            }
        }
        let put = proto::Request::PutBatch {
            fsync: false,
            chunks: vec![proto::WireChunk {
                reference: ChunkRef {
                    hash: Sha256::digest(&payload),
                    len: payload.len() as u32,
                },
                data: payload,
            }],
        };
        let mut framed = Vec::new();
        proto::write_frame(&mut framed, &put.encode())?;
        conn.writer
            .write_all(&framed[..framed.len() / 2])
            .and_then(|()| conn.writer.flush())
            .map_err(|e| Error::io("writing half frame", e))?;
        // Dropping the connection here is the "death": the frame never
        // completes.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::store::{ObjectStore, StoreKind};

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qcheck-remote-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn put_get_round_trip_over_the_wire() {
        let root = scratch("round-trip");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let store = RemoteStore::connect(daemon.addr(), "t1").unwrap();
        let (r, fresh) = store.put(b"remote payload").unwrap();
        assert!(fresh);
        assert_eq!(store.get(&r).unwrap(), b"remote payload");
        assert!(store.contains(&r.hash));
        assert!(store.contains_all(&[r.hash]));
        let (_, fresh2) = store.put(b"remote payload").unwrap();
        assert!(!fresh2, "second put must dedup server-side");
        assert_eq!(store.stats().unwrap().object_count, 1);
        assert_eq!(store.list().unwrap(), vec![r.hash]);
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn namespaces_are_isolated() {
        let root = scratch("ns-isolation");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let a = RemoteStore::connect(daemon.addr(), "tenant-a").unwrap();
        let b = RemoteStore::connect(daemon.addr(), "tenant-b").unwrap();
        let (ra, _) = a.put(b"shared bytes").unwrap();
        assert!(!b.contains(&ra.hash), "namespaces must not leak objects");
        // A full sweep of B must not touch A's object.
        b.sweep(&std::collections::BTreeSet::new(), false).unwrap();
        assert_eq!(a.get(&ra).unwrap(), b"shared bytes");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn meta_round_trip_and_listing() {
        let root = scratch("meta");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let store = RemoteStore::connect(daemon.addr(), "meta-t").unwrap();
        assert!(store.is_shared());
        assert_eq!(store.meta_get("LATEST").unwrap(), None);
        store.meta_put("LATEST", b"ck-1\n").unwrap();
        store.meta_put("manifests/ck-1.qmf", b"m1").unwrap();
        store.meta_put("manifests/ck-2.qmf", b"m2").unwrap();
        assert_eq!(store.meta_get("LATEST").unwrap().unwrap(), b"ck-1\n");
        assert_eq!(
            store.meta_list("manifests/").unwrap(),
            vec!["manifests/ck-1.qmf", "manifests/ck-2.qmf"]
        );
        // Overwrite is atomic-last-wins; delete converges.
        store.meta_put("LATEST", b"ck-2\n").unwrap();
        assert_eq!(store.meta_get("LATEST").unwrap().unwrap(), b"ck-2\n");
        store.meta_delete("manifests/ck-1.qmf").unwrap();
        store.meta_delete("manifests/ck-1.qmf").unwrap();
        assert_eq!(
            store.meta_list("manifests/").unwrap(),
            vec!["manifests/ck-2.qmf"]
        );
        let _ = std::fs::remove_dir_all(root);
    }

    /// A `meta/` directory an older build kept beside `OPLOG` is neither
    /// read nor touched: the daemon answers from the oplog even where the
    /// stale copy disagrees with it, and writes on without it.
    #[test]
    fn an_older_builds_meta_copy_is_ignored_and_left_in_place() {
        let root = scratch("stale-meta");
        {
            let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
            let store = RemoteStore::connect(daemon.addr(), "upgrade").unwrap();
            store.meta_put("manifests/ck-1.qmf", b"m1").unwrap();
            store.meta_put("manifests/ck-2.qmf", b"m2").unwrap();
            store.meta_put("LATEST", b"ck-2\n").unwrap();
            store.meta_delete("manifests/ck-1.qmf").unwrap();
        }
        let meta = root.join("ns/upgrade/meta");
        let stale: [(&str, &[u8]); 4] = [
            ("LATEST", b"ck-1\n"),
            ("manifests/ck-1.qmf", b"m1"),
            ("manifests/ck-2.qmf", b"stale"),
            ("manifests/ck-9.qmf", b"m9"),
        ];
        std::fs::create_dir_all(meta.join("manifests")).unwrap();
        for (name, bytes) in stale {
            std::fs::write(meta.join(name), bytes).unwrap();
        }

        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let store = RemoteStore::connect(daemon.addr(), "upgrade").unwrap();
        assert_eq!(
            store.meta_list("manifests/").unwrap(),
            vec!["manifests/ck-2.qmf"]
        );
        assert_eq!(store.meta_get("LATEST").unwrap().unwrap(), b"ck-2\n");
        assert_eq!(
            store.meta_get("manifests/ck-2.qmf").unwrap().unwrap(),
            b"m2"
        );
        assert_eq!(store.meta_get("manifests/ck-9.qmf").unwrap(), None);
        store.meta_put("manifests/ck-3.qmf", b"m3").unwrap();
        store.meta_delete("manifests/ck-2.qmf").unwrap();
        assert_eq!(
            store.meta_list("").unwrap(),
            vec!["LATEST", "manifests/ck-3.qmf"]
        );
        for (name, bytes) in stale {
            assert_eq!(std::fs::read(meta.join(name)).unwrap(), bytes, "{name}");
        }
        let files = std::fs::read_dir(meta.join("manifests")).unwrap().count();
        assert_eq!(files, 3, "nothing written into meta/");
        let _ = std::fs::remove_dir_all(root);
    }

    /// A namespace from before the oplog has its metadata only under
    /// `meta/`. Serving it from an empty log would make its checkpoints
    /// vanish, so it is refused typed, and no file in it changes.
    #[test]
    fn a_namespace_from_before_the_oplog_is_refused_and_left_in_place() {
        let root = scratch("pre-oplog");
        let ns = root.join("ns/legacy");
        std::fs::create_dir_all(ns.join("meta/manifests")).unwrap();
        std::fs::write(ns.join("meta/LATEST"), b"ck-1\n").unwrap();
        std::fs::write(ns.join("meta/manifests/ck-1.qmf"), b"m1").unwrap();
        let files = |dir: &std::path::Path| {
            let mut out = Vec::new();
            let mut stack = vec![dir.to_path_buf()];
            while let Some(dir) = stack.pop() {
                for entry in std::fs::read_dir(dir).unwrap().flatten() {
                    let path = entry.path();
                    if path.is_dir() {
                        stack.push(path.clone());
                    }
                    let bytes = std::fs::read(&path).ok();
                    out.push((path, bytes));
                }
            }
            out.sort();
            out
        };
        let before = files(&ns);

        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let err = RemoteStore::connect(daemon.addr(), "legacy")
            .and_then(|store| store.meta_list(""))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("no `OPLOG` records"), "{err}");
        assert_eq!(files(&ns), before);
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn traversal_names_are_refused() {
        let root = scratch("traversal");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let store = RemoteStore::connect(daemon.addr(), "sec").unwrap();
        for name in ["../escape", "/abs", "a/../b", ""] {
            assert!(
                store.meta_put(name, b"x").is_err(),
                "name {name:?} must be refused"
            );
        }
        assert!(RemoteStore::connect(daemon.addr(), "../up").is_err());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn version_mismatch_is_refused() {
        use std::io::Write as _;
        let root = scratch("version");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
        let hello = proto::Request::Hello {
            version: proto::PROTO_VERSION + 1,
            namespace: "v".into(),
            auth: String::new(),
            flags: 0,
            lease_token: 0,
            min_generation: 0,
        };
        proto::write_frame(&mut stream, &hello.encode()).unwrap();
        stream.flush().unwrap();
        let resp = proto::Response::decode(&proto::read_frame(&mut stream).unwrap()).unwrap();
        assert!(matches!(resp, proto::Response::Err { .. }), "{resp:?}");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn client_replays_after_injected_connection_drops() {
        let root = scratch("drops");
        let mut config = ServerConfig::new(&root);
        config.store_kind = StoreKind::Pack;
        // Every connection dies after 2 requests: a multi-op workload
        // only succeeds if the client transparently reconnects and
        // replays.
        config.drop_after_requests = Some(2);
        let daemon = Server::bind("127.0.0.1:0", config).unwrap().spawn();
        let store = RemoteStore::connect(daemon.addr(), "flaky").unwrap();
        let mut refs = Vec::new();
        for i in 0..8u8 {
            let (r, fresh) = store.put(&[i; 100]).unwrap();
            assert!(fresh);
            refs.push(r);
        }
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(store.get(r).unwrap(), vec![i as u8; 100]);
        }
        assert_eq!(store.stats().unwrap().object_count, 8);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn daemon_shutdown_is_graceful_and_observable() {
        let root = scratch("shutdown");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let addr = daemon.addr();
        let store = RemoteStore::connect(&addr, "ctl").unwrap();
        let status = store.status().unwrap();
        assert_eq!(status.version, proto::PROTO_VERSION);
        assert!(status.connections >= 1);
        assert_eq!(status.role, proto::ROLE_PRIMARY);
        assert!(status.generation >= 1);
        store.shutdown_daemon().unwrap();
        daemon.shutdown(); // joins the accept loop
                           // New connections must now fail (give the OS a moment to tear
                           // the listener down).
        let refused = (0..50).any(|_| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            RemoteStore::connect(&addr, "late").is_err()
        });
        assert!(refused, "listener must stop accepting after shutdown");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn mid_put_batch_death_leaves_store_clean() {
        let root = scratch("half-frame");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let store = RemoteStore::connect(daemon.addr(), "crashy").unwrap();
        let (r0, _) = store.put(b"pre-existing").unwrap();

        // A raw client handshakes, then dies halfway through a PutBatch
        // frame.
        fault::die_mid_put_batch(&daemon.addr(), "crashy", vec![7u8; 4096]).unwrap();

        // The dead client's bytes never became a request: no new object,
        // nothing staged, and the surviving client sees a clean store.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(store.stats().unwrap().object_count, 1);
        assert_eq!(store.list().unwrap(), vec![r0.hash]);
        assert_eq!(store.clear_staging().unwrap(), 0);
        assert_eq!(store.get(&r0).unwrap(), b"pre-existing");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn lying_content_address_is_refused_server_side() {
        let root = scratch("liar");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let store = RemoteStore::connect(daemon.addr(), "liar").unwrap();
        let bogus = crate::store::StagedChunk {
            reference: crate::chunk::ChunkRef {
                hash: crate::hash::Sha256::digest(b"what I claim"),
                len: 12,
            },
            data: b"what I send!",
        };
        let err = store.put_batch(&[bogus], false).unwrap_err();
        assert!(matches!(err, crate::error::Error::Corrupt { .. }), "{err}");
        assert_eq!(store.stats().unwrap().object_count, 0);
        let _ = std::fs::remove_dir_all(root);
    }
}

//! Wire-refusal suite.
//!
//! There is one wire dialect and one object path on it: a request frame
//! in, a response frame out, and one op — `Fetch` — that reads chunks.
//! These tests pin what the daemon and the client *refuse* — every other
//! dialect's Hello, the opcodes earlier protocols spent on ops that are
//! gone (retired, never reused), a chunk too large for a frame, a fetch
//! across tenants or beyond a frame's budget — that each refusal is a
//! typed error which leaves the daemon serving, and how an absent or a
//! damaged chunk surfaces through the batched fetch.

use std::io::Write as _;

use qcheck::chunk::ChunkRef;
use qcheck::error::Error;
use qcheck::hash::Sha256;
use qcheck::remote::{proto, spawn_daemon, RemoteStore};
use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::TrainingSnapshot;
use qcheck::store::{ObjectStore, StagedChunk, StoreBackend, StoreKind};

fn scratch(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let p = std::env::temp_dir().join(format!(
        "qcheck-wire-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn hello(version: u32) -> proto::Request {
    proto::Request::Hello {
        version,
        namespace: "compat".into(),
        auth: String::new(),
        flags: 0,
        lease_token: 0,
        min_generation: 0,
    }
}

/// Saves one checkpoint through a fresh client of `addr` and recovers it
/// from a second working directory — the daemon is unharmed.
fn save_and_recover(addr: &str, root: &std::path::Path) {
    let open = |dir: &str| {
        let store = RemoteStore::connect(addr, "survivor").unwrap();
        CheckpointRepo::with_store(root.join(dir), StoreBackend::Remote(store)).unwrap()
    };
    let mut snap = TrainingSnapshot::new("after-refusal");
    snap.step = 11;
    snap.params = (0..2000).map(|i| f64::from(i) * 0.25).collect();
    let writer = open("writer");
    writer.save(&snap, &SaveOptions::default()).unwrap();
    drop(writer);
    let (back, _) = open("reader").recover().unwrap();
    assert_eq!(back.step, 11);
    assert_eq!(back.params, snap.params);
}

#[test]
fn oversized_put_batch_chunk_is_refused_before_the_wire() {
    let root = scratch("oversize");
    let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
    let store = RemoteStore::connect(daemon.addr(), "big").unwrap();
    // One byte past what a lone frame can carry — still under the frame
    // cap itself, which is what the guard used to compare against. The
    // refusal fires before the hash is looked at, so it need not match.
    let data = vec![0u8; proto::MAX_CHUNK_PAYLOAD + 1];
    assert!(data.len() < proto::MAX_FRAME_LEN);
    let before = store.round_trips();
    let err = store
        .put_batch(
            &[StagedChunk {
                reference: ChunkRef {
                    hash: Sha256::digest(b""),
                    len: data.len() as u32,
                },
                data: &data,
            }],
            false,
        )
        .unwrap_err();
    assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    assert!(
        err.to_string().contains("SaveOptions::chunk_size"),
        "the refusal must name the knob that caused it: {err}"
    );
    assert_eq!(store.round_trips(), before, "must fail before the wire");
    assert_eq!(store.stats().unwrap().object_count, 0);
    let _ = std::fs::remove_dir_all(root);
}

/// Sends `body` as a connection's first frame and returns the typed
/// refusal — asserting it *is* a refusal, and that the daemon then closes
/// the connection instead of serving it.
fn refused_first_frame(addr: &str, body: &[u8]) -> Error {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    proto::write_frame(&mut stream, body).unwrap();
    stream.flush().unwrap();
    let resp = proto::Response::decode(&proto::read_frame(&mut stream).unwrap()).unwrap();
    let err = match resp {
        proto::Response::Err { .. } => resp.into_result("handshake").unwrap_err(),
        other => panic!("a foreign Hello must be refused, got {other:?}"),
    };
    // A daemon that kept the connection would answer this with its
    // status; the write itself may already fail on the closed socket.
    let _ = proto::write_frame(&mut stream, &proto::Request::Status.encode());
    assert!(
        proto::read_frame(&mut stream).is_err(),
        "the refused connection must be closed, not served"
    );
    err
}

/// There is one wire dialect. The v1 body (version + namespace only), a
/// v2, v3, v4 and v5 Hello and every truncation of a current Hello each get
/// a typed version or decode error — never a panic — and the daemon keeps
/// serving the next connection.
#[test]
fn old_dialects_are_refused_cleanly() {
    let root = scratch("old-dialects");
    let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
    // Fields the v2 dialect appended: empty auth (1 B length), flags,
    // lease token, generation floor.
    const V2_TAIL: usize = 1 + 1 + 8 + 8;

    let v1 = hello(1).encode();
    let err = refused_first_frame(&daemon.addr(), &v1[..v1.len() - V2_TAIL]);
    assert!(matches!(err, Error::Corrupt { .. }), "v1 body: {err}");

    // v3 is the build before the streaming dialect was deleted, v4 the
    // one before GET / REPL_CHUNKS became FETCH and v5 the one before
    // PING went and the GC reply lost its deferral counters: their Hello
    // has today's shape, so only the version word refuses it.
    for old in [2, 3, 4, 5] {
        assert!(old < proto::PROTO_VERSION);
        let err = refused_first_frame(&daemon.addr(), &hello(old).encode());
        assert!(
            matches!(err, Error::InvalidConfig(_)),
            "v{old} Hello: {err}"
        );
        let text = err.to_string();
        assert!(
            text.contains(&format!("version {old}"))
                && text.contains(&format!("speaks {}", proto::PROTO_VERSION)),
            "the refusal must name both versions: {text}"
        );
    }

    let current = hello(proto::PROTO_VERSION).encode();
    for cut in 0..current.len() {
        let err = refused_first_frame(&daemon.addr(), &current[..cut]);
        assert!(matches!(err, Error::Corrupt { .. }), "cut at {cut}: {err}");
    }

    save_and_recover(&daemon.addr(), &root);
    let _ = std::fs::remove_dir_all(root);
}

/// A live connection to `addr` in `namespace` (flags as given) that
/// exchanges raw frame bodies.
fn raw_connection(addr: &str, namespace: &str, flags: u8) -> impl FnMut(&[u8]) -> proto::Response {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut exchange = move |body: &[u8]| {
        proto::write_frame(&mut stream, body).unwrap();
        stream.flush().unwrap();
        proto::Response::decode(&proto::read_frame(&mut stream).unwrap()).unwrap()
    };
    let hello = proto::Request::Hello {
        version: proto::PROTO_VERSION,
        namespace: namespace.into(),
        auth: String::new(),
        flags,
        lease_token: 0,
        min_generation: 0,
    };
    let resp = exchange(&hello.encode());
    assert!(matches!(resp, proto::Response::HelloOk { .. }), "{resp:?}");
    exchange
}

/// Opcode 2 was v5's PING, 4 and 19 were v4's GET and REPL_CHUNKS (now
/// one FETCH), 23–27 carried the v3 streaming transfer. On a live connection each is an
/// unknown opcode: one typed protocol error per frame, and the
/// connection stays aligned — request in, response out — so the next
/// frame on it is served.
#[test]
fn retired_opcodes_are_judged_and_the_connection_survives() {
    let root = scratch("retired-ops");
    let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
    let mut exchange = raw_connection(&daemon.addr(), "compat", 0);

    for op in [2u8, 4, 19].into_iter().chain(23..=27) {
        // The opcode, then what an old peer would have put behind it (a
        // chunk reference is the longest fixed part).
        let mut body = vec![op];
        body.extend_from_slice(&[0xA5; 37]);
        let err = exchange(&body).into_result("retired op").unwrap_err();
        assert!(matches!(err, Error::Protocol { .. }), "op {op}: {err}");
        assert!(err.to_string().contains("unknown opcode"), "op {op}: {err}");
        let status = exchange(&proto::Request::Status.encode());
        assert!(
            matches!(status, proto::Response::Status { .. }),
            "after op {op}: {status:?}"
        );
    }

    save_and_recover(&daemon.addr(), &root);
    let _ = std::fs::remove_dir_all(root);
}

/// The daemon the two data-path drills below talk to, and a namespace
/// nothing else uses: the `qckptd` process `QCHECK_REMOTE_ADDR` names
/// when it is set (CI's remote leg — a process of its own, which may run
/// another SIMD level, hence another CRC backend, than this client),
/// else an in-process one that the returned handle keeps alive.
fn data_path_daemon(
    root: &std::path::Path,
) -> (Option<qcheck::remote::DaemonHandle>, String, String) {
    let namespace = root.file_name().unwrap().to_string_lossy().to_string();
    match qcheck::remote::RemoteEnv::read().addr {
        Some(addr) => (None, addr, namespace),
        None => {
            let daemon = spawn_daemon(root, StoreKind::Pack).unwrap();
            let addr = daemon.addr();
            (Some(daemon), addr, namespace)
        }
    }
}

/// Stores `blobs` through `store` and returns their references.
fn put_all(store: &RemoteStore, blobs: &[Vec<u8>]) -> Vec<ChunkRef> {
    let refs: Vec<ChunkRef> = blobs
        .iter()
        .map(|b| ChunkRef {
            hash: Sha256::digest(b),
            len: b.len() as u32,
        })
        .collect();
    let staged: Vec<StagedChunk<'_>> = refs
        .iter()
        .zip(blobs)
        .map(|(r, b)| StagedChunk {
            reference: *r,
            data: b,
        })
        .collect();
    store.put_batch(&staged, false).unwrap();
    refs
}

/// Tenant isolation is the server's check: a `Fetch` naming another
/// namespace is refused on an ordinary connection — with nothing of the
/// payload in the refusal — and honored on a replication stream, which
/// is the one peer that reads across namespaces.
#[test]
fn fetch_across_namespaces_needs_a_replication_stream() {
    let root = scratch("cross-tenant");
    let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
    let secret = b"tenant-a's parameters, nobody else's".repeat(9);
    let owner = RemoteStore::connect(daemon.addr(), "tenant-a").unwrap();
    let refs = put_all(&owner, std::slice::from_ref(&secret));
    let steal = proto::Request::Fetch {
        namespace: "tenant-a".into(),
        refs: refs.clone(),
    };

    let mut intruder = raw_connection(&daemon.addr(), "tenant-b", 0);
    let resp = intruder(&steal.encode());
    let leaked = resp
        .encode()
        .windows(16)
        .any(|w| secret.windows(16).any(|s| s == w));
    assert!(!leaked, "the refusal carries payload: {resp:?}");
    let err = resp.into_result("cross-tenant fetch").unwrap_err();
    assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    assert!(err.to_string().contains("replication stream"), "{err}");
    // A malformed namespace is refused too, even on a replication stream.
    let mut tailer = raw_connection(&daemon.addr(), "control", proto::HELLO_FLAG_REPL);
    let traversal = proto::Request::Fetch {
        namespace: "../tenant-a".into(),
        refs: refs.clone(),
    };
    let err = tailer(&traversal.encode())
        .into_result("traversal")
        .unwrap_err();
    assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    // Same connections, still served: the intruder reads its own (empty)
    // namespace, the tailer reads tenant-a's chunk.
    assert_eq!(
        intruder(
            &proto::Request::Fetch {
                namespace: "tenant-b".into(),
                refs: refs.clone(),
            }
            .encode()
        ),
        proto::Response::Chunks(vec![None])
    );
    assert_eq!(
        tailer(&steal.encode()),
        proto::Response::Chunks(vec![Some(secret.clone())])
    );
    let _ = std::fs::remove_dir_all(root);
}

/// What the batched fetch does with a hole and with damage: an absent
/// chunk is `NotFound` naming its hash, a present-but-corrupt one is
/// `Corrupt` naming the chunk — in the middle of a batch as for a lone
/// `get` — and neither costs the connection.
#[test]
fn absent_and_corrupt_chunks_surface_typed_through_the_batch() {
    let root = scratch("holes");
    let (_daemon, addr, namespace) = data_path_daemon(&root);
    let store = RemoteStore::connect(addr, namespace).unwrap();
    let blobs: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; 3000 + i as usize]).collect();
    let refs = put_all(&store, &blobs);
    assert_eq!(store.get_many(&refs).unwrap(), blobs);

    let ghost = ChunkRef {
        hash: Sha256::digest(b"never stored"),
        len: 12,
    };
    let mut with_hole = refs.clone();
    with_hole.insert(3, ghost);
    for err in [
        store.get_many(&with_hole).unwrap_err(),
        store.get(&ghost).unwrap_err(),
    ] {
        assert!(matches!(err, Error::NotFound { .. }), "{err}");
        assert!(err.to_string().contains(&ghost.hash.to_hex()), "{err}");
    }

    store.corrupt_object(&refs[4].hash, 17).unwrap();
    for err in [
        store.get_many(&refs).unwrap_err(),
        store.get_many(&with_hole).unwrap_err(),
        store.get(&refs[4]).unwrap_err(),
    ] {
        assert!(matches!(err, Error::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains(&refs[4].hash.to_hex()), "{err}");
    }
    // The undamaged rest is still served, on the same connection.
    let before = store.round_trips();
    assert_eq!(store.get_many(&refs[..4]).unwrap(), blobs[..4]);
    assert_eq!(store.round_trips() - before, 1);
    let _ = std::fs::remove_dir_all(root);
}

/// A `get_many` naming more than a frame's budget of payload travels as
/// several pipelined `Fetch` frames and comes back whole and in order;
/// a peer that names more than the budget in *one* request is refused
/// before the daemon reads a byte for it.
#[test]
fn a_fetch_beyond_the_frame_budget_is_cut_by_the_client_and_refused_by_the_daemon() {
    const BUDGET: usize = 4 << 20;
    let root = scratch("budget");
    let (_daemon, addr, namespace) = data_path_daemon(&root);
    let store = RemoteStore::connect(addr.as_str(), namespace.as_str()).unwrap();
    // 9 MiB in 96 KiB chunks, every chunk distinct; asked for with a
    // repeat and out of storage order.
    let blobs: Vec<Vec<u8>> = (0..96u32)
        .map(|i| {
            (0..96 * 1024u32)
                .map(|j| (i.wrapping_mul(31).wrapping_add(j / 7)) as u8)
                .collect()
        })
        .collect();
    let refs = put_all(&store, &blobs);
    let order: Vec<usize> = (0..refs.len()).rev().chain([5, 5, 0]).collect();
    let asked: Vec<ChunkRef> = order.iter().map(|&i| refs[i]).collect();
    let named: usize = asked.iter().map(|r| r.len as usize).sum();

    let before = store.round_trips();
    let got = store.get_many(&asked).unwrap();
    let frames = store.round_trips() - before;
    assert!(
        frames >= 2 && frames as usize <= named / BUDGET + 1,
        "{named} bytes came back in {frames} frame(s)"
    );
    assert_eq!(got.len(), asked.len());
    for (data, &i) in got.iter().zip(&order) {
        assert!(data == &blobs[i], "chunk {i} out of order or damaged");
    }

    let mut rogue = raw_connection(&addr, &namespace, 0);
    let over_budget = proto::Request::Fetch {
        namespace,
        refs: asked,
    };
    let err = rogue(&over_budget.encode())
        .into_result("over-budget fetch")
        .unwrap_err();
    assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    assert!(err.to_string().contains(&named.to_string()), "{err}");
    assert!(matches!(
        rogue(&proto::Request::Status.encode()),
        proto::Response::Status { .. }
    ));
    let _ = std::fs::remove_dir_all(root);
}

/// A handler that panics holding every table the daemon's handlers share
/// (the `testing` build's drill: a corrupt-object offset of `u64::MAX`)
/// takes its own connection down and nothing else: the client sees a
/// transport error on each retry, the next clients are served through the
/// recovered locks, and shutdown does not wait for the dead handlers.
#[test]
fn a_panicking_handler_does_not_wedge_the_daemon() {
    let root = scratch("handler-panic");
    let daemon = spawn_daemon(root.join("daemon"), StoreKind::Pack).unwrap();
    let addr = daemon.addr();
    let victim = RemoteStore::connect(addr.as_str(), "panic-drill").unwrap();
    let blob = vec![7u8; 4096];
    let hash = put_all(&victim, std::slice::from_ref(&blob))[0].hash;
    let err = victim.corrupt_object(&hash, usize::MAX).unwrap_err();
    assert!(matches!(err, Error::Io { .. }), "{err}");

    // The same handle redials and is served; so is a new tenant.
    assert!(victim.contains(&hash));
    assert_eq!(victim.status().unwrap().namespaces, 1);
    save_and_recover(&addr, &root);

    let t0 = std::time::Instant::now();
    daemon.shutdown();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(4),
        "shutdown waited for handlers that had panicked"
    );
    let _ = std::fs::remove_dir_all(root);
}

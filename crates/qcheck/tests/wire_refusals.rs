//! Wire-refusal suite.
//!
//! There is one wire dialect and one object path on it: a request frame
//! in, a response frame out. These tests pin what the daemon and the
//! client *refuse* — every other dialect's Hello, the opcodes protocol
//! v3 spent on its streaming transfer (retired, never reused), and a
//! chunk too large for a frame — and that each refusal is a typed error
//! that leaves the daemon serving.

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
    // A daemon that kept the connection would answer this with a Pong;
    // the write itself may already fail on the closed socket.
    let _ = proto::write_frame(&mut stream, &proto::Request::Ping.encode());
    assert!(
        proto::read_frame(&mut stream).is_err(),
        "the refused connection must be closed, not served"
    );
    err
}

/// There is one wire dialect. The v1 body (version + namespace only), a
/// v2 and a v3 Hello and every truncation of a current Hello each get a
/// typed version or decode error — never a panic — and the daemon keeps
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

    // v3 is the build before the streaming dialect was deleted: its
    // Hello has today's shape, so only the version word refuses it.
    for old in [2, 3] {
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

/// Opcodes 23–27 carried the v3 streaming transfer. On a live connection
/// each is now an unknown opcode: one typed protocol error per frame, and
/// the connection stays aligned — request in, response out — so the next
/// frame on it is served.
#[test]
fn retired_stream_opcodes_are_judged_and_the_connection_survives() {
    let root = scratch("retired-ops");
    let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut exchange = |body: &[u8]| {
        proto::write_frame(&mut stream, body).unwrap();
        stream.flush().unwrap();
        proto::Response::decode(&proto::read_frame(&mut stream).unwrap()).unwrap()
    };
    let resp = exchange(&hello(proto::PROTO_VERSION).encode());
    assert!(matches!(resp, proto::Response::HelloOk { .. }), "{resp:?}");

    for op in 23u8..=27 {
        // The opcode, then what a v3 peer would have put behind it (a
        // chunk reference is the longest fixed part).
        let mut body = vec![op];
        body.extend_from_slice(&[0xA5; 37]);
        let err = exchange(&body).into_result("retired op").unwrap_err();
        assert!(matches!(err, Error::Protocol { .. }), "op {op}: {err}");
        assert!(err.to_string().contains("unknown opcode"), "op {op}: {err}");
        let pong = exchange(&proto::Request::Ping.encode());
        assert_eq!(pong, proto::Response::Pong, "after op {op}");
    }

    save_and_recover(&daemon.addr(), &root);
    let _ = std::fs::remove_dir_all(root);
}

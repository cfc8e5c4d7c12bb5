//! Streaming-wire suite.
//!
//! The streaming path exists so a multi-GiB state never has to fit in
//! one wire frame (or one buffer): `PUT_STREAM`/`GET_STREAM` move an
//! object as a sequence of bounded segments with the SHA-256 running
//! incrementally on both ends. These tests pin the contract at both
//! layers — the local backends' `put_stream`/`get_stream` (which the
//! daemon reuses per namespace) and the remote client — plus the
//! refusal of every other dialect and the oversize `PUT_BATCH` redirect.

use qcheck::chunk::ChunkRef;
use qcheck::error::Error;
use qcheck::hash::Sha256;
use qcheck::remote::{
    proto, reset_stream_peak_buffer, spawn_daemon, stream_peak_buffer, RemoteStore,
};
use qcheck::store::{ObjectStore, StagedChunk, StoreBackend, StoreKind};

fn scratch(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let p = std::env::temp_dir().join(format!(
        "qcheck-stream-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Deterministic pseudo-random payload (xorshift over the index, so
/// reruns and both wire ends agree byte for byte).
fn payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let mut x = i as u32 ^ 0x9E37_79B9;
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect()
}

fn reference(data: &[u8]) -> ChunkRef {
    ChunkRef {
        hash: Sha256::digest(data),
        len: data.len() as u32,
    }
}

/// A `put_stream` source yielding `data` in `step`-byte segments,
/// counting how many times it was polled (drain accounting).
#[allow(clippy::type_complexity)]
fn source_of(
    data: &[u8],
    step: usize,
) -> (
    impl FnMut() -> qcheck::error::Result<Option<Vec<u8>>> + '_,
    std::sync::Arc<std::sync::atomic::AtomicU64>,
) {
    let polls = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let counter = std::sync::Arc::clone(&polls);
    let mut offset = 0usize;
    let f = move || {
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if offset >= data.len() {
            return Ok(None);
        }
        let end = (offset + step).min(data.len());
        let seg = data[offset..end].to_vec();
        offset = end;
        Ok(Some(seg))
    };
    (f, polls)
}

/// Collects a `get_stream` into one buffer.
fn collect_stream(
    store: &dyn ObjectStore,
    r: &ChunkRef,
    segment: usize,
) -> qcheck::error::Result<Vec<u8>> {
    let mut out = Vec::new();
    store.get_stream(r, segment, &mut |seg| {
        out.extend_from_slice(seg);
        Ok(())
    })?;
    Ok(out)
}

#[test]
fn local_backends_stream_round_trip_and_dedup_drain() {
    for kind in [StoreKind::Loose, StoreKind::Pack] {
        let dir = scratch("local");
        let store = StoreBackend::open(&dir, kind).unwrap();
        // Not a multiple of the source step or the read segment: both
        // seams (partial last segment, partial last read) are exercised.
        let data = payload(300_000 + 17);
        let r = reference(&data);

        let (mut src, _) = source_of(&data, 64 << 10);
        assert!(store.put_stream(&r, &mut src, false).unwrap(), "{kind:?}");
        assert!(store.contains(&r.hash));
        // Streamed object is a first-class object: plain get sees it.
        assert_eq!(store.get(&r).unwrap(), data);
        // Streamed read round-trips at an unrelated granularity.
        assert_eq!(collect_stream(&store, &r, 10_000).unwrap(), data);

        // Dedup: the second stream is stale AND fully drains its source
        // (wire-backed callers rely on that to keep framing aligned).
        let (mut src2, polls) = source_of(&data, 100_000);
        assert!(!store.put_stream(&r, &mut src2, false).unwrap());
        // 300_017 bytes at 100_000 per segment = 4 polls incl. the None.
        assert_eq!(polls.load(std::sync::atomic::Ordering::Relaxed), 5);

        // Empty payload streams too (zero Data segments).
        let empty = reference(b"");
        let (mut src3, _) = source_of(b"", 1024);
        assert!(store.put_stream(&empty, &mut src3, false).unwrap());
        assert_eq!(collect_stream(&store, &empty, 1024).unwrap(), b"");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn local_put_stream_refuses_lying_reference_and_stays_clean() {
    for kind in [StoreKind::Loose, StoreKind::Pack] {
        let dir = scratch("liar");
        let store = StoreBackend::open(&dir, kind).unwrap();
        let data = payload(50_000);
        let mut lying = reference(&data);
        lying.hash = Sha256::digest(b"something else");
        let (mut src, _) = source_of(&data, 16 << 10);
        let err = store.put_stream(&lying, &mut src, false).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{kind:?}: {err}");
        assert!(!store.contains(&lying.hash));
        // The aborted stream left no staging debris behind.
        assert_eq!(store.clear_staging().unwrap(), 0, "{kind:?}");

        // A length lie is caught too (source ends early).
        let mut short = reference(&data);
        short.len += 1;
        let (mut src2, _) = source_of(&data, 16 << 10);
        let err = store.put_stream(&short, &mut src2, false).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{kind:?}: {err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn local_get_stream_detects_corruption_incrementally() {
    for kind in [StoreKind::Loose, StoreKind::Pack] {
        let dir = scratch("corrupt");
        let store = StoreBackend::open(&dir, kind).unwrap();
        let data = payload(120_000);
        let r = reference(&data);
        store
            .put_batch(
                &[StagedChunk {
                    reference: r,
                    data: &data,
                }],
                false,
            )
            .unwrap();
        store.corrupt_object(&r.hash, 60_000).unwrap();
        let err = collect_stream(&store, &r, 8 << 10).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{kind:?}: {err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn remote_stream_round_trip_with_bounded_buffering() {
    let root = scratch("remote-rt");
    let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
    let store = RemoteStore::connect(daemon.addr(), "stream").unwrap();
    // Five wire segments' worth, not a multiple of anything; the 3 MiB
    // source blocks force the client to re-chunk to the wire cap.
    let data = payload((9 << 20) + 4099);
    let r = reference(&data);

    reset_stream_peak_buffer();
    let (mut src, _) = source_of(&data, 3 << 20);
    assert!(store.put_stream(&r, &mut src, false).unwrap());
    assert!(store.contains(&r.hash));
    assert_eq!(collect_stream(&store, &r, 1 << 20).unwrap(), data);
    let peak = stream_peak_buffer();
    assert!(
        peak > 0 && peak <= proto::MAX_STREAM_SEGMENT as u64,
        "peak stream buffer {peak} outside (0, {}]",
        proto::MAX_STREAM_SEGMENT
    );

    // The streamed object is indistinguishable from a batched one.
    assert_eq!(store.get(&r).unwrap(), data);
    assert_eq!(store.stats().unwrap().object_count, 1);

    // Dedup short-circuits at Begin — no body crosses the wire — but
    // the source contract (fully drained) still holds.
    let before = store.round_trips();
    let (mut src2, polls) = source_of(&data, 3 << 20);
    assert!(!store.put_stream(&r, &mut src2, false).unwrap());
    assert_eq!(
        store.round_trips() - before,
        1,
        "a dedup'd stream must cost exactly the Begin round trip"
    );
    assert_eq!(polls.load(std::sync::atomic::Ordering::Relaxed), 5);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn remote_get_stream_judges_missing_and_corrupt_objects() {
    let root = scratch("remote-judged");
    let daemon = spawn_daemon(&root, StoreKind::Loose).unwrap();
    let store = RemoteStore::connect(daemon.addr(), "judged").unwrap();

    // Missing: judged NotFound before any frame streams.
    let ghost = reference(b"never stored");
    let err = collect_stream(&store, &ghost, 4 << 10).unwrap_err();
    assert!(matches!(err, Error::NotFound { .. }), "{err}");
    store
        .ping()
        .expect("connection must survive a judged error");

    // Corrupt server-side: the stream ends in a judged error instead of
    // StreamEnd (the server hashes as it reads), and the connection
    // stays aligned for the next request.
    let data = payload(5 << 20);
    let r = reference(&data);
    let (mut src, _) = source_of(&data, 1 << 20);
    assert!(store.put_stream(&r, &mut src, false).unwrap());
    store.corrupt_object(&r.hash, 1 << 20).unwrap();
    let err = collect_stream(&store, &r, 1 << 20).unwrap_err();
    assert!(matches!(err, Error::Corrupt { .. }), "{err}");
    store
        .ping()
        .expect("connection must survive a corrupt stream");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn remote_put_stream_refuses_lying_reference() {
    let root = scratch("remote-liar");
    let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
    let store = RemoteStore::connect(daemon.addr(), "liar").unwrap();
    let data = payload(3 << 20);
    let mut lying = reference(&data);
    lying.hash = Sha256::digest(b"what I claim");
    let (mut src, _) = source_of(&data, 1 << 20);
    let err = store.put_stream(&lying, &mut src, false).unwrap_err();
    assert!(matches!(err, Error::Corrupt { .. }), "{err}");
    assert!(!store.contains(&lying.hash));
    assert_eq!(store.stats().unwrap().object_count, 0);
    assert_eq!(store.clear_staging().unwrap(), 0);
    store
        .ping()
        .expect("connection must survive a refused stream");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn oversized_put_batch_chunk_is_redirected_at_streaming() {
    let root = scratch("oversize");
    let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
    let store = RemoteStore::connect(daemon.addr(), "big").unwrap();
    // One byte over the frame cap: the refusal must fire client-side,
    // before a doomed quarter-gigabyte frame is encoded, and point the
    // caller at the streaming op.
    let data = vec![0u8; proto::MAX_FRAME_LEN + 1];
    let r = reference(&data);
    let before = store.round_trips();
    let err = store
        .put_batch(
            &[StagedChunk {
                reference: r,
                data: &data,
            }],
            false,
        )
        .unwrap_err();
    assert!(matches!(err, Error::Protocol { .. }), "{err}");
    assert!(
        err.to_string().contains("PUT_STREAM"),
        "error must point at the streaming op: {err}"
    );
    assert_eq!(store.round_trips(), before, "must fail before the wire");
    // And the streaming op handles that exact payload.
    let (mut src, _) = source_of(&data, 8 << 20);
    assert!(store.put_stream(&r, &mut src, false).unwrap());
    assert_eq!(store.stats().unwrap().object_count, 1);
    let _ = std::fs::remove_dir_all(root);
}

/// Sends `body` as a connection's first frame and returns the typed
/// refusal — asserting it *is* a refusal, and that the daemon then closes
/// the connection instead of serving (or streaming on) it.
fn refused_first_frame(addr: &str, body: &[u8]) -> Error {
    use std::io::Write as _;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    proto::write_frame(&mut stream, body).unwrap();
    stream.flush().unwrap();
    let resp = proto::Response::decode(&proto::read_frame(&mut stream).unwrap()).unwrap();
    let err = match resp {
        proto::Response::Err { .. } => resp.into_result("handshake").unwrap_err(),
        other => panic!("a foreign Hello must be refused, got {other:?}"),
    };
    // A daemon that kept the connection would answer this with stream
    // frames; the write itself may already fail on the closed socket.
    let probe = proto::Request::GetStream {
        reference: reference(b"x"),
    };
    let _ = proto::write_frame(&mut stream, &probe.encode());
    assert!(
        proto::read_frame(&mut stream).is_err(),
        "the refused connection must be closed, not served"
    );
    err
}

/// There is one wire dialect. The v1 body (version + namespace only), a
/// v2 Hello and every truncation of a v3 Hello each get a typed version
/// or decode error — never a panic, never stream frames — and the daemon
/// keeps serving the next connection.
#[test]
fn old_dialects_are_refused_cleanly() {
    let root = scratch("old-dialects");
    let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
    let hello = |version: u32| proto::Request::Hello {
        version,
        namespace: "compat".into(),
        auth: String::new(),
        flags: 0,
        lease_token: 0,
        min_generation: 0,
    };
    // Fields the v2 dialect appended: empty auth (1 B length), flags,
    // lease token, generation floor.
    const V2_TAIL: usize = 1 + 1 + 8 + 8;

    let v1 = hello(1).encode();
    let err = refused_first_frame(&daemon.addr(), &v1[..v1.len() - V2_TAIL]);
    assert!(matches!(err, Error::Corrupt { .. }), "v1 body: {err}");

    let err = refused_first_frame(&daemon.addr(), &hello(2).encode());
    assert!(matches!(err, Error::InvalidConfig(_)), "v2 Hello: {err}");
    let text = err.to_string();
    assert!(
        text.contains("version 2") && text.contains(&format!("speaks {}", proto::PROTO_VERSION)),
        "the refusal must name both versions: {text}"
    );

    let v3 = hello(proto::PROTO_VERSION).encode();
    for cut in 0..v3.len() {
        let err = refused_first_frame(&daemon.addr(), &v3[..cut]);
        assert!(matches!(err, Error::Corrupt { .. }), "cut at {cut}: {err}");
    }

    // The daemon is unharmed: a real client still streams through it.
    let store = RemoteStore::connect(daemon.addr(), "compat").unwrap();
    let data = payload(100_000);
    let r = reference(&data);
    let (mut src, _) = source_of(&data, 4096);
    assert!(store.put_stream(&r, &mut src, false).unwrap());
    assert_eq!(collect_stream(&store, &r, 4096).unwrap(), data);
    let _ = std::fs::remove_dir_all(root);
}

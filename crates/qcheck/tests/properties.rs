//! Property-based tests for the checkpointing core.

use proptest::prelude::*;

use qcheck::chunk::{chunk_bytes, reassemble, ChunkRef};
use qcheck::codec::{Decoder, Encoder};
use qcheck::compress::{
    bytes_to_f64s, f64s_to_bytes, word_compress_reference, word_decompress_reference,
    zero_elide_xor_len, Compression,
};
use qcheck::delta::BlockPatch;
use qcheck::error::Error;
use qcheck::hash::{crc32, ContentHash, Sha256};
use qcheck::manifest::{Manifest, PayloadKind};
use qcheck::remote::proto::{self, LeaseGrant, OplogOp, OplogRecord, Request, Response, WireChunk};
use qcheck::repo::{CheckpointRepo, CompressionPolicy, SaveOptions};
use qcheck::snapshot::{DatasetCursor, MetricPoint, RngCapture, StateBlob, TrainingSnapshot};
use qcheck::store::{BatchPutReport, GcReport, StoreKind, StoreStats};

/// A scratch directory, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        ScratchDir(std::env::temp_dir().join(format!(
            "qcheck-prop-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        )))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn arb_f64_bits() -> impl Strategy<Value = f64> {
    // Arbitrary bit patterns: exercises NaN payloads, infinities, denormals.
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_snapshot() -> impl Strategy<Value = TrainingSnapshot> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(arb_f64_bits(), 0..300),
        prop::collection::vec(any::<u8>(), 0..200),
        prop::collection::vec(any::<u8>(), 0..100),
        prop::collection::vec((any::<u64>(), arb_f64_bits()), 0..20),
        ".{0,24}",
    )
        .prop_map(|(step, shots, params, opt, ledger, metrics, label)| {
            let mut s = TrainingSnapshot::new(label);
            s.step = step;
            s.epoch = step / 97;
            s.wall_time_ms = step.wrapping_mul(31);
            s.params = params;
            s.optimizer = StateBlob::new("prop-opt", opt);
            s.rng_streams
                .insert("shots".into(), RngCapture([(step % 251) as u8; 40]));
            s.cursor = DatasetCursor {
                epoch: step % 11,
                position: step % 13,
                order_seed: step.wrapping_mul(7),
            };
            s.total_shots = shots;
            s.shot_ledger = ledger;
            s.metrics = metrics
                .into_iter()
                .map(|(step, value)| MetricPoint { step, value })
                .collect();
            s
        })
}

/// Codec inputs of three shapes, 0..4096 bytes each and mostly off the
/// 8-byte grid: arbitrary bytes; words with a random subset of their
/// bytes zeroed, so every `(first, count)` control value of the word
/// codecs occurs (and zero words with it); and runs of 1..300 equal
/// bytes, which straddle the RLE run threshold and its 255 cap.
fn arb_codec_inputs() -> impl Strategy<Value = [Vec<u8>; 3]> {
    (
        prop::collection::vec(any::<u8>(), 0..4096),
        prop::collection::vec((any::<u64>(), any::<u8>()), 0..512),
        prop::collection::vec(any::<u8>(), 0..8),
        prop::collection::vec((any::<u8>(), 1..300usize), 0..24),
    )
        .prop_map(|(raw, words, tail, runs)| {
            let mut holed: Vec<u8> = Vec::with_capacity(words.len() * 8 + tail.len());
            for (word, keep) in words {
                let bytes = word.to_le_bytes();
                holed.extend((0..8).map(|i| if keep >> i & 1 == 1 { bytes[i] } else { 0 }));
            }
            holed.extend_from_slice(&tail);
            let runs = runs
                .into_iter()
                .flat_map(|(byte, len)| std::iter::repeat_n(byte, len))
                .take(4095)
                .collect();
            [raw, holed, runs]
        })
}

/// Two equal-length inputs for an XOR payload: `a` is words with a random
/// subset of their bytes zeroed, `b` is `a` XOR a second such pattern per
/// word — a pattern of no bytes leaves a zero word, and every other
/// `(first, count)` span shape occurs — and each gets its own ragged tail.
fn arb_xor_pairs() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        prop::collection::vec(
            (any::<u64>(), any::<u8>(), any::<u64>(), any::<u8>()),
            0..512,
        ),
        prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
    )
        .prop_map(|(words, tail)| {
            let holed = |word: u64, keep: u8| {
                let bytes = word.to_le_bytes();
                u64::from_le_bytes(std::array::from_fn(|i| {
                    if keep >> i & 1 == 1 {
                        bytes[i]
                    } else {
                        0
                    }
                }))
            };
            let mut a = Vec::with_capacity(words.len() * 8 + tail.len());
            let mut b = Vec::with_capacity(a.capacity());
            for (word, keep, flip, flip_keep) in words {
                let w = holed(word, keep);
                a.extend_from_slice(&w.to_le_bytes());
                b.extend_from_slice(&(w ^ holed(flip, flip_keep)).to_le_bytes());
            }
            a.extend(tail.iter().map(|t| t.0));
            b.extend(tail.iter().map(|t| t.1));
            (a, b)
        })
}

/// What an f64-vector read returned, comparable across the two readers:
/// the values' bits, or a decode error's offset and detail.
fn f64_read(r: qcheck::error::Result<Vec<f64>>) -> Result<Vec<u64>, (usize, String)> {
    match r {
        Ok(xs) => Ok(xs.iter().map(|x| x.to_bits()).collect()),
        Err(Error::Decode { offset, detail, .. }) => Err((offset, detail)),
        Err(other) => panic!("untyped f64 read failure {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bulk f64 codec is the value-at-a-time loop it replaced: the
    /// same bytes out, the same bits back, and on a buffer cut at any
    /// offset or a count one value too large, the same decode error at
    /// the same offset.
    #[test]
    fn bulk_f64_codec_matches_the_value_loop(
        lead in prop::collection::vec(any::<u8>(), 0..3),
        xs in prop::collection::vec(arb_f64_bits(), 0..2000),
    ) {
        let mut bulk = Encoder::new();
        bulk.put_raw(&lead).put_f64_slice(&xs);
        let mut oracle = Encoder::new();
        oracle.put_raw(&lead).put_f64_slice_reference(&xs);
        prop_assert_eq!(bulk.as_bytes(), oracle.as_bytes());
        let bytes = bulk.into_bytes();
        let read_both = |bytes: &[u8]| {
            let mut d = Decoder::new(bytes, "f64 prop");
            let mut r = d.clone();
            d.get_raw(lead.len()).unwrap();
            r.get_raw(lead.len()).unwrap();
            (f64_read(d.get_f64_vec()), f64_read(r.get_f64_vec_reference()))
        };
        let (got, want) = read_both(&bytes);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.unwrap(), xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        for cut in lead.len()..bytes.len() {
            let (got, want) = read_both(&bytes[..cut]);
            prop_assert!(want.is_err(), "the oracle read a buffer cut at {}", cut);
            prop_assert_eq!(got, want, "cut at {}", cut);
        }
        let mut count = Encoder::new();
        count.put_varint(xs.len() as u64);
        let values = &bytes[lead.len() + count.len()..];
        let mut over = Encoder::new();
        over.put_raw(&lead).put_varint(xs.len() as u64 + 1).put_raw(values);
        let (got, want) = read_both(over.as_bytes());
        prop_assert!(want.is_err(), "the oracle read a count one too large");
        prop_assert_eq!(got, want);
    }

    /// The XOR candidate's size, taken from the two inputs, is the
    /// compressed length of the XOR a save would materialise.
    #[test]
    fn xor_len_is_the_compressed_length_of_the_xor((a, b) in arb_xor_pairs()) {
        let xored: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        prop_assert_eq!(
            zero_elide_xor_len(&a, &b),
            Compression::ZeroElideF64.compressed_len(&xored),
            "{} bytes", a.len()
        );
    }

    /// The word-at-a-time kernels are the byte loops they replaced:
    /// byte-identical payloads, and each decoder reads the other's.
    #[test]
    fn word_kernels_match_the_reference_loops(inputs in arb_codec_inputs()) {
        for data in &inputs {
            for (codec, predecessor_xor) in [
                (Compression::XorF64, true),
                (Compression::ZeroElideF64, false),
            ] {
                let payload = codec.compress(data);
                prop_assert_eq!(
                    &payload,
                    &word_compress_reference(data, predecessor_xor),
                    "codec {}", codec
                );
                prop_assert_eq!(&codec.decompress(&payload).unwrap(), data, "codec {}", codec);
                prop_assert_eq!(
                    &word_decompress_reference(&payload, predecessor_xor).unwrap(),
                    data,
                    "codec {}", codec
                );
            }
        }
    }

    /// `compressed_len` is the length `compress` returns — exactly: the
    /// save path chooses what to store by it.
    #[test]
    fn compressed_len_is_the_compressed_length(inputs in arb_codec_inputs()) {
        for data in &inputs {
            for codec in Compression::all() {
                prop_assert_eq!(
                    codec.compressed_len(data),
                    codec.compress(data).len(),
                    "codec {} on {} bytes", codec, data.len()
                );
            }
        }
    }

    /// A full payload never stores more bytes than its section holds,
    /// under any compression policy: where the section's codec would
    /// expand it, the save stores it raw.
    #[test]
    fn a_full_payload_never_outgrows_its_section(snap in arb_snapshot()) {
        let dir = ScratchDir::new("full-payload");
        let repo = CheckpointRepo::open_with(&dir.0, StoreKind::Pack).unwrap();
        let policies = Compression::all().map(CompressionPolicy::Uniform);
        for compression in [CompressionPolicy::Default].into_iter().chain(policies) {
            let options = SaveOptions { compression, ..SaveOptions::default() };
            let report = repo.save(&snap, &options).unwrap();
            for entry in &repo.load_manifest(&report.id).unwrap().sections {
                prop_assert_eq!(entry.payload_kind, PayloadKind::Full);
                let stored: u64 = entry.chunks.iter().map(|c| u64::from(c.len)).sum();
                prop_assert!(
                    stored <= entry.section_len,
                    "{:?}: section {} stores {} of {} bytes",
                    compression, entry.name, stored, entry.section_len
                );
            }
        }
    }

    /// Folding a payload into an accumulator is decompressing it and
    /// XORing the bytes.
    #[test]
    fn xor_sink_is_decompress_then_xor(
        inputs in arb_codec_inputs(),
        salt in any::<u64>(),
    ) {
        for data in &inputs {
            let base: Vec<u8> = (0..data.len() as u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt).to_le_bytes()[7])
                .collect();
            for codec in Compression::all() {
                let payload = codec.compress(data);
                let stored = codec.decompress(&payload).unwrap();
                let want: Vec<u8> = base.iter().zip(&stored).map(|(a, b)| a ^ b).collect();
                let mut acc = base.clone();
                codec.decompress_xor_into(&payload, &mut acc).unwrap();
                prop_assert_eq!(&acc, &want, "codec {}", codec);
            }
        }
    }

    /// Snapshot → sections → snapshot is the identity (bitwise, including
    /// NaN payloads in parameters).
    #[test]
    fn snapshot_sections_round_trip(snap in arb_snapshot()) {
        let sections = snap.to_sections();
        let back = TrainingSnapshot::from_sections(&sections).unwrap();
        prop_assert_eq!(back.step, snap.step);
        prop_assert_eq!(back.params.len(), snap.params.len());
        for (a, b) in snap.params.iter().zip(&back.params) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(back.optimizer, snap.optimizer);
        prop_assert_eq!(back.shot_ledger, snap.shot_ledger);
        prop_assert_eq!(back.metrics.len(), snap.metrics.len());
    }

    /// Snapshot serialization is deterministic.
    #[test]
    fn snapshot_encoding_is_deterministic(snap in arb_snapshot()) {
        let a = snap.to_sections();
        let b = snap.clone().to_sections();
        prop_assert_eq!(a, b);
    }

    /// All compressors are lossless on arbitrary byte strings.
    #[test]
    fn compressors_round_trip(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        for codec in Compression::all() {
            let c = codec.compress(&data);
            let d = codec.decompress(&c).unwrap();
            prop_assert_eq!(&d, &data, "codec {}", codec);
        }
    }

    /// XOR-f64 is lossless on arbitrary f64 bit patterns.
    #[test]
    fn xor_f64_round_trips_bit_patterns(xs in prop::collection::vec(arb_f64_bits(), 0..512)) {
        let bytes = f64s_to_bytes(&xs);
        let c = Compression::XorF64.compress(&bytes);
        let d = Compression::XorF64.decompress(&c).unwrap();
        prop_assert_eq!(d, bytes);
    }

    /// f64 byte packing round-trips.
    #[test]
    fn f64_packing_round_trips(xs in prop::collection::vec(arb_f64_bits(), 0..256)) {
        let bytes = f64s_to_bytes(&xs);
        let back = bytes_to_f64s(&bytes).unwrap();
        prop_assert_eq!(back.len(), xs.len());
        for (a, b) in xs.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// diff ∘ apply is the identity for arbitrary byte strings and block
    /// sizes — into a fresh vector and in place over the base alike.
    #[test]
    fn delta_diff_apply_identity(
        base in prop::collection::vec(any::<u8>(), 0..3000),
        new in prop::collection::vec(any::<u8>(), 0..3000),
        block_size in 1usize..700,
    ) {
        let patch = BlockPatch::diff(&base, &new, block_size);
        let out = patch.apply(&base).unwrap();
        prop_assert_eq!(&out, &new);
        let mut in_place = base;
        patch.apply_in_place(&mut in_place).unwrap();
        prop_assert_eq!(in_place, new);
    }

    /// Delta patches survive their own serialization.
    #[test]
    fn delta_encode_decode(
        base in prop::collection::vec(any::<u8>(), 0..2000),
        new in prop::collection::vec(any::<u8>(), 0..2000),
    ) {
        let patch = BlockPatch::diff(&base, &new, 128);
        prop_assert_eq!(BlockPatch::diff_encoded(&base, &new, 128), patch.encode());
        let decoded = BlockPatch::decode(&patch.encode()).unwrap();
        prop_assert_eq!(&decoded, &patch);
        prop_assert_eq!(decoded.apply(&base).unwrap(), new);
    }

    /// Chunking partitions the input exactly and reassembles losslessly.
    #[test]
    fn chunking_partitions(
        data in prop::collection::vec(any::<u8>(), 0..10_000),
        chunk_size in 1usize..5000,
    ) {
        let (refs, slices) = chunk_bytes(&data, chunk_size);
        let total: u64 = refs.iter().map(|r| r.len as u64).sum();
        prop_assert_eq!(total, data.len() as u64);
        let owned: Vec<Vec<u8>> = slices.iter().map(|s| s.to_vec()).collect();
        prop_assert_eq!(reassemble(&refs, &owned).unwrap(), data);
    }

    /// SHA-256 streaming equals one-shot for any chunk split.
    #[test]
    fn sha_streaming_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..2000),
        split in 0usize..2000,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Hex encoding of content hashes round-trips.
    #[test]
    fn content_hash_hex_round_trip(data in prop::collection::vec(any::<u8>(), 0..64)) {
        let h = Sha256::digest(&data);
        prop_assert_eq!(ContentHash::from_hex(&h.to_hex()), Some(h));
    }

    /// CRC32 differs for data differing in one byte (collision over small
    /// perturbations would defeat torn-write detection).
    #[test]
    fn crc_detects_single_byte_change(
        mut data in prop::collection::vec(any::<u8>(), 1..512),
        idx in any::<prop::sample::Index>(),
        delta in 1u8..=255,
    ) {
        let before = crc32(&data);
        let i = idx.index(data.len());
        data[i] = data[i].wrapping_add(delta);
        prop_assert_ne!(before, crc32(&data));
    }

    /// Codec primitives round-trip arbitrary values.
    #[test]
    fn codec_round_trips(
        a in any::<u64>(),
        b in any::<i64>(),
        c in arb_f64_bits(),
        s in ".{0,64}",
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut e = Encoder::new();
        e.put_varint(a).put_i64(b).put_f64(c).put_str(&s).put_bytes(&bytes);
        let buf = e.into_bytes();
        let mut d = Decoder::new(&buf, "prop");
        prop_assert_eq!(d.get_varint().unwrap(), a);
        prop_assert_eq!(d.get_i64().unwrap(), b);
        prop_assert_eq!(d.get_f64().unwrap().to_bits(), c.to_bits());
        prop_assert_eq!(d.get_str().unwrap(), s);
        prop_assert_eq!(d.get_bytes().unwrap(), bytes);
        d.finish().unwrap();
    }

    /// Manifest decoding never accepts a corrupted encoding (CRC frame).
    #[test]
    fn manifest_rejects_random_corruption(
        snap in arb_snapshot(),
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        // Build a real manifest through the repo save path is expensive;
        // construct a minimal one directly instead.
        let manifest = Manifest {
            id: qcheck::CheckpointId::new(snap.step, 0),
            step: snap.step,
            kind: qcheck::manifest::CheckpointKind::Full,
            chain_len: 0,
            created_unix_ms: 0,
            snapshot_sha: Sha256::digest(&snap.params.len().to_le_bytes()),
            sections: vec![],
        };
        let mut bytes = manifest.encode();
        let i = flip_at.index(bytes.len());
        bytes[i] ^= 1 << flip_bit;
        prop_assert!(Manifest::decode(&bytes).is_err());
    }
}

// ---------------------------------------------------------------------
// Wire decoders under hostile input
// ---------------------------------------------------------------------
//
// No byte string a peer can send may panic a decoder: every outcome is
// `Ok` or a typed `Err`. The samples below hold one value (or more) of
// every `Request`, `Response` and `OplogOp` variant; the `*_variant`
// functions match exhaustively, so a new variant does not compile until
// it is indexed — and `every_wire_variant_is_sampled_and_round_trips`
// fails until it is sampled too.

fn sample_oplog_ops() -> Vec<OplogOp> {
    vec![
        OplogOp::MetaPut {
            name: "manifests/ck-1.qmf".into(),
            bytes: vec![1, 2, 3],
        },
        OplogOp::MetaDelete {
            name: "manifests/ck-0.qmf".into(),
        },
        OplogOp::Sweep {
            reachable: vec![Sha256::digest(b"kept"), Sha256::digest(b"too")],
        },
    ]
}

fn sample_requests() -> Vec<Request> {
    let h = Sha256::digest(b"x");
    let reference = ChunkRef { hash: h, len: 9 };
    vec![
        Request::Hello {
            version: proto::PROTO_VERSION,
            namespace: "run-1".into(),
            auth: "sekrit".into(),
            flags: proto::HELLO_FLAG_WANT_LEASE | proto::HELLO_FLAG_REPL,
            lease_token: 0xDEAD_BEEF,
            min_generation: 7,
        },
        Request::PutBatch {
            fsync: true,
            chunks: vec![
                WireChunk {
                    reference: ChunkRef { hash: h, len: 1 },
                    data: vec![7],
                },
                WireChunk {
                    reference: ChunkRef {
                        hash: Sha256::digest(b""),
                        len: 0,
                    },
                    data: vec![],
                },
            ],
        },
        Request::Fetch {
            namespace: "run-1".into(),
            refs: vec![reference, reference],
        },
        Request::Fetch {
            namespace: "run-1".into(),
            refs: vec![],
        },
        Request::Contains { hashes: vec![h, h] },
        Request::List,
        Request::Sweep {
            dry_run: true,
            reachable: vec![h],
        },
        Request::Stats,
        Request::ClearStaging,
        Request::MetaPut {
            name: "manifests/a.qmf".into(),
            bytes: vec![1, 2, 3],
        },
        Request::MetaGet {
            name: "LATEST".into(),
        },
        Request::MetaList {
            prefix: "manifests/".into(),
        },
        Request::MetaDelete { name: "x".into() },
        Request::Status,
        Request::Shutdown,
        Request::Corrupt {
            hash: h,
            offset: 1234,
        },
        Request::ReplStatus,
        Request::ReplFetch {
            namespace: "run-1".into(),
            from: 42,
            max: 64,
        },
        Request::ReplAck {
            namespace: "run-1".into(),
            offset: 43,
        },
        Request::Promote,
        Request::LeaseRelease,
        Request::Metrics,
    ]
}

fn request_variant(r: &Request) -> usize {
    match r {
        Request::Hello { .. } => 0,
        Request::PutBatch { .. } => 1,
        Request::Fetch { .. } => 2,
        Request::Contains { .. } => 3,
        Request::List => 4,
        Request::Sweep { .. } => 5,
        Request::Stats => 6,
        Request::ClearStaging => 7,
        Request::MetaPut { .. } => 8,
        Request::MetaGet { .. } => 9,
        Request::MetaList { .. } => 10,
        Request::MetaDelete { .. } => 11,
        Request::Status => 12,
        Request::Shutdown => 13,
        Request::Corrupt { .. } => 14,
        Request::ReplStatus => 15,
        Request::ReplFetch { .. } => 16,
        Request::ReplAck { .. } => 17,
        Request::Promote => 18,
        Request::LeaseRelease => 19,
        Request::Metrics => 20,
    }
}

fn sample_responses() -> Vec<Response> {
    let h = Sha256::digest(b"y");
    vec![
        Response::HelloOk {
            version: proto::PROTO_VERSION,
            role: proto::ROLE_PRIMARY,
            generation: 3,
            lease: None,
        },
        Response::HelloOk {
            version: proto::PROTO_VERSION,
            role: proto::ROLE_SECONDARY,
            generation: 9,
            lease: Some(LeaseGrant {
                token: 0xFEED,
                ttl_ms: 30_000,
            }),
        },
        Response::PutBatch(BatchPutReport {
            fresh: vec![true, false],
            renames: 1,
            fsyncs: 0,
        }),
        Response::Contains(vec![true, false, true]),
        Response::Hashes(vec![h]),
        Response::Gc(GcReport {
            live: 1,
            deleted: 2,
            reclaimed_bytes: 3,
        }),
        Response::Stats(StoreStats {
            object_count: 7,
            total_bytes: 99,
        }),
        Response::Cleared(3),
        Response::Ok,
        Response::Meta(None),
        Response::Meta(Some(vec![9])),
        Response::Names(vec!["a".into(), "b".into()]),
        Response::Status {
            version: proto::PROTO_VERSION,
            namespaces: 2,
            connections: 3,
            role: proto::ROLE_SECONDARY,
            generation: 4,
            oplog_entries: 5,
            repl_lag: 6,
        },
        Response::ReplStatus {
            generation: 2,
            role: proto::ROLE_PRIMARY,
            namespaces: vec![("a".into(), 10), ("b".into(), 0)],
        },
        Response::ReplEntries(
            sample_oplog_ops()
                .into_iter()
                .enumerate()
                .map(|(i, op)| OplogRecord {
                    offset: i as u64,
                    op,
                })
                .collect(),
        ),
        Response::Chunks(vec![Some(vec![7, 8, 9]), None, Some(vec![])]),
        Response::Chunks(vec![]),
        Response::Promoted { generation: 11 },
        Response::Metrics("# TYPE a counter\na 1\n".into()),
        Response::Err {
            code: proto::ErrCode::NotFound as u8,
            message: "nope".into(),
        },
    ]
}

fn response_variant(r: &Response) -> usize {
    match r {
        Response::HelloOk { .. } => 0,
        Response::PutBatch(_) => 1,
        Response::Contains(_) => 2,
        Response::Hashes(_) => 3,
        Response::Gc(_) => 4,
        Response::Stats(_) => 5,
        Response::Cleared(_) => 6,
        Response::Ok => 7,
        Response::Meta(_) => 8,
        Response::Names(_) => 9,
        Response::Status { .. } => 10,
        Response::ReplStatus { .. } => 11,
        Response::ReplEntries(_) => 12,
        Response::Chunks(_) => 13,
        Response::Promoted { .. } => 14,
        Response::Metrics(_) => 15,
        Response::Err { .. } => 16,
    }
}

fn oplog_variant(op: &OplogOp) -> usize {
    match op {
        OplogOp::MetaPut { .. } => 0,
        OplogOp::MetaDelete { .. } => 1,
        OplogOp::Sweep { .. } => 2,
    }
}

fn encode_op(op: &OplogOp) -> Vec<u8> {
    let mut enc = Encoder::new();
    op.encode_into(&mut enc);
    enc.into_bytes()
}

/// Every valid body the protocol can carry, each also wrapped in its
/// wire frame (length prefix + CRC) for `read_frame`.
fn wire_corpus() -> Vec<Vec<u8>> {
    let bodies: Vec<Vec<u8>> = sample_requests()
        .iter()
        .map(Request::encode)
        .chain(sample_responses().iter().map(Response::encode))
        .chain(sample_oplog_ops().iter().map(encode_op))
        .collect();
    let framed: Vec<Vec<u8>> = bodies
        .iter()
        .map(|body| {
            let mut out = Vec::new();
            proto::write_frame(&mut out, body).unwrap();
            out
        })
        .collect();
    bodies.into_iter().chain(framed).collect()
}

/// Runs `bytes` through every decoder a peer's bytes can reach. Returning
/// at all is the property: each result is `Ok` or a typed `Err`.
fn decode_everything(bytes: &[u8]) {
    let _ = Request::decode(bytes);
    let _ = Response::decode(bytes);
    let _ = OplogOp::decode_from(&mut Decoder::new(bytes, "hostile oplog op"));
    let mut reader = bytes;
    while proto::read_frame(&mut reader).is_ok() {}
}

/// Sorted, de-duplicated variant indices of a sample list.
fn covered<T>(samples: &[T], variant: impl Fn(&T) -> usize) -> Vec<usize> {
    let set: std::collections::BTreeSet<usize> = samples.iter().map(variant).collect();
    set.into_iter().collect()
}

#[test]
fn every_wire_variant_is_sampled_and_round_trips() {
    let requests = sample_requests();
    assert_eq!(
        covered(&requests, request_variant),
        (0..21).collect::<Vec<_>>()
    );
    for req in &requests {
        assert_eq!(&Request::decode(&req.encode()).unwrap(), req);
    }
    let responses = sample_responses();
    assert_eq!(
        covered(&responses, response_variant),
        (0..17).collect::<Vec<_>>()
    );
    for resp in &responses {
        assert_eq!(&Response::decode(&resp.encode()).unwrap(), resp);
    }
    let ops = sample_oplog_ops();
    assert_eq!(covered(&ops, oplog_variant), vec![0, 1, 2]);
    for op in &ops {
        let bytes = encode_op(op);
        let mut dec = Decoder::new(&bytes, "oplog op");
        assert_eq!(&OplogOp::decode_from(&mut dec).unwrap(), op);
        dec.finish().unwrap();
    }
    // Every truncation of every valid encoding, exhaustively.
    for bytes in wire_corpus() {
        for cut in 0..bytes.len() {
            decode_everything(&bytes[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic a wire decoder.
    #[test]
    fn wire_decoders_survive_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        decode_everything(&bytes);
    }

    /// Neither does a valid encoding with one byte changed — the input
    /// that gets past the opcode and deep into a variant's fields.
    #[test]
    fn wire_decoders_survive_single_byte_mutations(
        which in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let corpus = wire_corpus();
        let mut bytes = corpus[which.index(corpus.len())].clone();
        let i = at.index(bytes.len());
        bytes[i] = byte;
        decode_everything(&bytes);
    }
}

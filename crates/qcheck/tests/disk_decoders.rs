//! What the decoders of on-disk bytes do with bytes nobody encoded.
//!
//! A section payload reaches [`Compression::decompress`] from chunks a
//! store handed back — a disk that failed, a daemon that lied — under a
//! manifest that may be no better; a manifest comes out of a log record,
//! the log is found through a root slot, and the chunks through a pack's
//! embedded index; a daemon's namespace metadata comes out of its oplog.
//! The contract checked here for all nine decoders, the
//! one `properties.rs` holds the wire decoders to: any input — arbitrary
//! bytes, every truncation and every single-byte mutation of a valid
//! encoding, checksums re-sealed where a checksum would otherwise stop
//! the input at the door — decodes to `Ok` or to a typed error, never a
//! panic, and never with an allocation sized from a length the input
//! merely declares.
//!
//! The four section codecs bound their *output* by what the payload could
//! encode. The five metadata decoders (manifest, manifest-log record, root
//! slot, pack index, oplog record) are held to the same rule through the
//! allocator: the
//! largest single allocation made while decoding is bounded by the input's
//! length ([`largest_allocation_during`]).

use proptest::prelude::*;

use qcheck::chunk::ChunkRef;
use qcheck::codec::Encoder;
use qcheck::compress::{word_decompress_reference, Compression};
use qcheck::error::Error;
use qcheck::hash::{crc32, ContentHash, Sha256};
use qcheck::manifest::{CheckpointId, CheckpointKind, Manifest, PayloadKind, SectionEntry};
use qcheck::manifest_log::{self as mlog, RecordKind, RootSlot};
use qcheck::remote::proto::{write_frame, OplogOp, OplogRecord};
use qcheck::remote::repl::{Oplog, OPLOG_FILE};
use qcheck::store::{ObjectStore, PackStore, StagedChunk};

/// The most output `len` payload bytes can decode to under `codec`.
fn output_bound(codec: Compression, len: usize) -> usize {
    match codec {
        Compression::None => len,
        // A run token: 3 bytes in, up to 255 out.
        Compression::Rle => 85 * len,
        // A zero word: 1 control byte in, 8 bytes out; up to 7 raw tail.
        Compression::XorF64 | Compression::ZeroElideF64 => 8 * len + 7,
    }
}

/// Decodes `payload` both ways — into a fresh vector and folded into an
/// accumulator of `fold_len` bytes — and checks everything that must hold
/// whatever the bytes are. Returns the decoded output, if any.
fn decode_checked(codec: Compression, payload: &[u8], fold_len: usize) -> Option<Vec<u8>> {
    let decoded = match codec.decompress(payload) {
        Ok(out) => {
            assert!(
                out.len() <= output_bound(codec, payload.len()),
                "{codec}: {} bytes out of a {}-byte payload",
                out.len(),
                payload.len()
            );
            Some(out)
        }
        Err(Error::Decode { .. }) => None,
        Err(other) => panic!("{codec}: untyped failure {other:?}"),
    };
    // The XOR sink accepts exactly the payloads `decompress` accepts, when
    // the accumulator has the decoded length, and folds the same bytes.
    let mut acc = vec![0xA5u8; fold_len];
    match (codec.decompress_xor_into(payload, &mut acc), &decoded) {
        (Ok(()), Some(out)) => {
            assert_eq!(
                out.len(),
                fold_len,
                "{codec}: folded a wrong-length payload"
            );
            let want: Vec<u8> = out.iter().map(|b| b ^ 0xA5).collect();
            assert_eq!(acc, want, "{codec}");
        }
        (Err(Error::Decode { .. }), Some(out)) => assert_ne!(out.len(), fold_len, "{codec}"),
        (Err(Error::Decode { .. }), None) => {}
        (folded, _) => panic!("{codec}: fold {folded:?}, decompress {decoded:?}"),
    }
    // The word kernels and the byte loops they replaced agree on what is
    // a valid payload, not only on what a valid payload holds.
    if matches!(codec, Compression::XorF64 | Compression::ZeroElideF64) {
        let reference = word_decompress_reference(payload, codec == Compression::XorF64);
        assert_eq!(
            decoded,
            reference.ok(),
            "{codec}: kernel and reference disagree"
        );
    }
    decoded
}

/// Section-like inputs small enough to mutate at every byte: words with
/// some bytes zeroed (every control-byte shape), then short runs, then a
/// ragged tail.
fn arb_small_input() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec((any::<u64>(), any::<u8>()), 0..10),
        prop::collection::vec((any::<u8>(), 1..9usize), 0..6),
        prop::collection::vec(any::<u8>(), 0..8),
    )
        .prop_map(|(words, runs, tail)| {
            let mut data = Vec::new();
            for (word, keep) in words {
                let bytes = word.to_le_bytes();
                data.extend((0..8).map(|i| if keep >> i & 1 == 1 { bytes[i] } else { 0 }));
            }
            for (byte, len) in runs {
                data.extend(std::iter::repeat_n(byte, len));
            }
            data.extend_from_slice(&tail);
            data
        })
}

#[test]
fn a_declared_length_no_payload_could_encode_is_refused_before_allocating() {
    // 1 << 62 is the reproduction: the process used to abort inside
    // `Vec::with_capacity` on these nine bytes. The others are lengths an
    // allocator would happily promise.
    for declared in [1u64 << 62, u64::MAX, 1 << 40, 1 << 30, 1 << 20] {
        for body in [0usize, 1, 9, 64] {
            let mut e = Encoder::new();
            e.put_varint(declared);
            let mut payload = e.into_bytes();
            payload.resize(payload.len() + body, 0);
            for codec in [
                Compression::Rle,
                Compression::XorF64,
                Compression::ZeroElideF64,
            ] {
                assert!(
                    decode_checked(codec, &payload, 8 * body).is_none(),
                    "{codec} accepted a declared length of {declared} over {body} bytes"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes are a payload or a typed error.
    #[test]
    fn codecs_survive_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        fold_len in 0..64usize,
    ) {
        for codec in Compression::all() {
            decode_checked(codec, &bytes, fold_len);
        }
    }

    /// So is every prefix of a valid payload — and for the self-framing
    /// codecs a proper prefix is always the error: the declared length
    /// is what tells a short read from a short section.
    #[test]
    fn codecs_refuse_every_truncation(data in arb_small_input()) {
        for codec in Compression::all() {
            let payload = codec.compress(&data);
            prop_assert_eq!(decode_checked(codec, &payload, data.len()), Some(data.clone()));
            for cut in 0..payload.len() {
                let decoded = decode_checked(codec, &payload[..cut], data.len());
                if codec != Compression::None {
                    prop_assert_eq!(decoded, None, "codec {} cut at {}", codec, cut);
                }
            }
        }
    }

    /// And so is a valid payload with any one byte changed: the input
    /// that gets past the length prefix and deep into the tokens.
    #[test]
    fn codecs_survive_every_single_byte_mutation(
        data in arb_small_input(),
        flip in 1..=255u8,
    ) {
        for codec in Compression::all() {
            let mut payload = codec.compress(&data);
            for at in 0..payload.len() {
                payload[at] ^= flip;
                decode_checked(codec, &payload, data.len());
                payload[at] ^= flip;
            }
        }
    }
}

// ----------------------------------------------------------------------
// The metadata decoders: manifest, manifest-log record, root slot, pack
// index, oplog record.
// ----------------------------------------------------------------------

/// The system allocator, remembering per thread the largest single
/// request — the only vantage point from which "this decoder reserved
/// memory for a length it had not checked" is visible when the decode
/// then fails and frees it.
struct PeakAlloc;

thread_local! {
    static PEAK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a store to a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl std::alloc::GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        PEAK.with(|peak| peak.set(peak.get().max(layout.size())));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        PEAK.with(|peak| peak.set(peak.get().max(new_size)));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation
/// this thread requested meanwhile.
fn largest_allocation_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(|peak| peak.get()))
}

/// The most one allocation may ask for while decoding `len` input bytes:
/// every in-memory form here is within a small factor of its encoding (a
/// 36-byte chunk ref decodes to 36 bytes, a one-byte section name to a
/// `SectionEntry` of ~150), plus slack for error strings and paths.
fn allocation_bound(len: usize) -> usize {
    256 * len + 4096
}

/// Every input derived from `valid`: itself, each proper prefix, and each
/// single-byte mutation by `flip`.
fn damaged_variants(valid: &[u8], flip: u8) -> Vec<Vec<u8>> {
    let mut out = vec![valid.to_vec()];
    out.extend((0..valid.len()).map(|cut| valid[..cut].to_vec()));
    out.extend((0..valid.len()).map(|at| {
        let mut bytes = valid.to_vec();
        bytes[at] ^= flip;
        bytes
    }));
    out
}

/// `bytes` with its trailing CRC32 recomputed over everything before it
/// from offset `from` — what gets damage past the checksum and into the
/// field parser.
fn resealed(mut bytes: Vec<u8>, from: usize) -> Vec<u8> {
    if bytes.len() >= from + 4 {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[from..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }
    bytes
}

fn arb_hash() -> impl Strategy<Value = ContentHash> {
    any::<u64>().prop_map(|seed| Sha256::digest(&seed.to_le_bytes()))
}

/// A manifest of fewer than `max` sections, each of fewer than `max`
/// chunks.
fn arb_manifest(max: usize) -> impl Strategy<Value = Manifest> {
    let section = (
        ".{1,6}",
        0..4usize,
        0..3u8,
        any::<u32>(),
        arb_hash(),
        prop::collection::vec((arb_hash(), any::<u32>()), 0..max),
    )
        .prop_map(
            |(name, codec, kind, len, section_sha, chunks)| SectionEntry {
                name,
                codec: Compression::all()[codec],
                payload_kind: [
                    PayloadKind::Full,
                    PayloadKind::DeltaPatch,
                    PayloadKind::XorBase,
                ][kind as usize],
                stored_len: u64::from(len),
                section_len: u64::from(len) + 3,
                section_sha,
                chunks: chunks
                    .into_iter()
                    .map(|(hash, len)| ChunkRef { hash, len })
                    .collect(),
            },
        );
    (
        0..1000u64,
        any::<bool>(),
        arb_hash(),
        prop::collection::vec(section, 0..max),
    )
        .prop_map(|(step, delta, snapshot_sha, sections)| Manifest {
            id: CheckpointId::new(step, step % 7),
            step,
            kind: if delta {
                CheckpointKind::Delta {
                    base: CheckpointId::new(step.saturating_sub(1), 0),
                }
            } else {
                CheckpointKind::Full
            },
            chain_len: u32::from(delta),
            created_unix_ms: 1_750_000_000_000 + step,
            snapshot_sha,
            sections,
        })
}

/// `Manifest::decode` on `bytes`: `Ok` or a typed error, within the
/// allocation bound.
fn decode_manifest_checked(bytes: &[u8]) -> Option<Manifest> {
    let (decoded, peak) = largest_allocation_during(|| Manifest::decode(bytes));
    assert!(
        peak <= allocation_bound(bytes.len()),
        "a {}-byte manifest made the decoder allocate {peak} bytes at once",
        bytes.len()
    );
    match decoded {
        Ok(manifest) => Some(manifest),
        Err(Error::Corrupt { .. } | Error::Decode { .. } | Error::UnsupportedVersion { .. }) => {
            None
        }
        Err(other) => panic!("manifest: untyped failure {other:?}"),
    }
}

/// A scratch directory for the decoders that read files.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "qcheck-disk-decoders-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Replays `dir` with `log` as epoch 0's manifest log (the caller wrote
/// the root slot that names it). Replay never fails on content: damage
/// is skipped and recorded. Returns how many manifests survived.
fn replay_checked(dir: &Scratch, log: &[u8]) -> usize {
    std::fs::write(mlog::log_path(&dir.0, 0), log).unwrap();
    let (replayed, peak) = largest_allocation_during(|| mlog::replay(&dir.0));
    // Replay reads the whole log into memory, then decodes out of it.
    assert!(
        peak <= allocation_bound(log.len()),
        "a {}-byte log made replay allocate {peak} bytes at once",
        log.len()
    );
    let replayed = replayed.unwrap_or_else(|e| panic!("replay failed on content: {e:?}"));
    for (id, manifest) in &replayed.manifests {
        assert_eq!(*id, manifest.id);
    }
    assert!(replayed.valid_len <= log.len() as u64);
    replayed.manifests.len()
}

/// Opens a pack store over one file `bytes` in `packs/` and reads back
/// whatever its index lists. A damaged pack is skipped wholesale or its
/// objects fail typed; nothing panics and nothing is allocated for a
/// count or a length the footer merely claims.
fn open_pack_checked(dir: &Scratch, bytes: &[u8]) {
    let packs = dir.0.join("packs");
    std::fs::create_dir_all(&packs).unwrap();
    std::fs::write(packs.join(format!("pack-{}.qpk", "0".repeat(64))), bytes).unwrap();
    let (listed, peak) = largest_allocation_during(|| {
        let store = PackStore::open(&dir.0).expect("a damaged pack is skipped, not fatal");
        let listed = store.list().unwrap();
        for hash in &listed {
            // The length is the index's business; ask for what it holds.
            for len in [0u32, 64, bytes.len() as u32] {
                match store.get(&ChunkRef { hash: *hash, len }) {
                    Ok(_) | Err(Error::Corrupt { .. } | Error::NotFound { .. }) => {}
                    Err(other) => panic!("pack: untyped failure {other:?}"),
                }
            }
        }
        listed
    });
    assert!(
        peak <= allocation_bound(bytes.len()),
        "a {}-byte pack made the store allocate {peak} bytes at once ({} listed)",
        bytes.len(),
        listed.len()
    );
}

/// A small valid pack file, as `put_batch` writes it.
fn valid_pack(blobs: &[Vec<u8>]) -> Vec<u8> {
    let dir = Scratch::new("pack-src");
    let store = PackStore::open(&dir.0).unwrap();
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
        .map(|(reference, data)| StagedChunk {
            reference: *reference,
            data,
        })
        .collect();
    store.put_batch(&staged, false).unwrap();
    let pack = std::fs::read_dir(dir.0.join("packs"))
        .unwrap()
        .flatten()
        .next()
        .expect("one pack written");
    std::fs::read(pack.path()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Root slots: arbitrary bytes, then every truncation and single-byte
    /// mutation of a valid slot, as found and with the CRC re-sealed.
    #[test]
    fn root_slots_survive_hostile_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        (generation, epoch, committed_len) in (any::<u64>(), any::<u64>(), any::<u64>()),
        latest in 0..20_000u64,
        flip in 1..=255u8,
    ) {
        let check = |bytes: &[u8]| {
            let (slot, peak) = largest_allocation_during(|| RootSlot::decode(bytes));
            assert!(peak <= allocation_bound(bytes.len()), "{peak} bytes for a root slot");
            if let Some(slot) = slot {
                assert_eq!(slot.encode(), bytes, "a slot that decodes re-encodes to itself");
            }
        };
        check(&noise);
        let slot = RootSlot {
            generation,
            epoch,
            committed_len,
            latest: (latest < 10_000).then(|| CheckpointId::new(latest, 0)),
        };
        let valid = slot.encode();
        prop_assert_eq!(RootSlot::decode(&valid), Some(slot));
        for damaged in damaged_variants(&valid, flip) {
            check(&damaged);
            check(&resealed(damaged, 0));
        }
    }

    /// Manifests, likewise; a proper prefix never decodes.
    #[test]
    fn manifests_survive_hostile_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..256),
        manifest in arb_manifest(4),
        flip in 1..=255u8,
    ) {
        decode_manifest_checked(&noise);
        decode_manifest_checked(&resealed(noise, 0));
        let valid = manifest.encode();
        prop_assert_eq!(decode_manifest_checked(&valid), Some(manifest));
        for (i, damaged) in damaged_variants(&valid, flip).into_iter().enumerate().skip(1) {
            prop_assert_eq!(decode_manifest_checked(&damaged), None, "variant {}", i);
            decode_manifest_checked(&resealed(damaged, 0));
        }
    }

    /// Pack indexes, through `PackStore::open`: the footer carries no
    /// checksum of its own, so its count and offset arrive unchecked.
    #[test]
    fn pack_indexes_survive_hostile_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..256),
        blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..4),
        flip in 1..=255u8,
    ) {
        let dir = Scratch::new("pack");
        open_pack_checked(&dir, &noise);
        let valid = valid_pack(&blobs);
        for damaged in damaged_variants(&valid, flip) {
            open_pack_checked(&dir, &damaged);
        }
    }
}

proptest! {
    // Every variant is a file write and a replay: fewer cases by default.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Manifest-log records, through `replay`: a log of put / advance /
    /// delete records under a root that commits all of it, so a cut or a
    /// flip anywhere is damage inside the committed region.
    #[test]
    fn manifest_log_records_survive_hostile_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..256),
        manifests in prop::collection::vec(arb_manifest(3), 1..3),
        flip in 1..=255u8,
    ) {
        let mut log = mlog::log_header(0);
        for manifest in &manifests {
            let id = manifest.id.as_str();
            log.extend(mlog::encode_record(RecordKind::ManifestPut, id, &manifest.encode()));
            log.extend(mlog::encode_record(RecordKind::LatestAdvance, id, &[]));
        }
        log.extend(mlog::encode_record(RecordKind::ManifestDelete, manifests[0].id.as_str(), &[]));

        let dir = Scratch::new("mlog");
        let root = RootSlot {
            generation: 1,
            epoch: 0,
            committed_len: log.len() as u64,
            latest: Some(manifests[0].id.clone()),
        };
        std::fs::write(mlog::root_slot_path(&dir.0, 0), root.encode()).unwrap();

        let mut with_header = mlog::log_header(0);
        with_header.extend_from_slice(&noise);
        replay_checked(&dir, &noise);
        replay_checked(&dir, &with_header);
        for damaged in damaged_variants(&log, flip) {
            prop_assert!(replay_checked(&dir, &damaged) <= manifests.len());
        }
    }
}

/// The fixed read buffer an oplog scan or read streams the file through
/// (`std::io::BufReader`'s default): sized by nothing the file declares.
const OPLOG_READ_BUFFER: usize = 8 << 10;

/// Opens an oplog over `bytes` as a daemon opens a namespace, then reads
/// back every record and every name its index lists. Returns the records
/// on `Ok`, and `None` on the typed error damage earns.
fn open_oplog_checked(dir: &Scratch, bytes: &[u8]) -> Option<Vec<OplogRecord>> {
    std::fs::write(dir.0.join(OPLOG_FILE), bytes).unwrap();
    let (opened, peak) = largest_allocation_during(|| {
        let log = Oplog::open(&dir.0)?;
        let records = log.read_from(0, usize::MAX)?;
        for name in log.names("") {
            assert!(log.get(&name)?.is_some(), "{name} is listed but absent");
        }
        Ok::<_, Error>(records)
    });
    assert!(
        peak <= allocation_bound(bytes.len()) + OPLOG_READ_BUFFER,
        "a {}-byte oplog made the open allocate {peak} bytes at once",
        bytes.len()
    );
    match opened {
        Ok(records) => {
            assert!(8 * records.len() <= bytes.len());
            Some(records)
        }
        Err(Error::Corrupt { .. }) => None,
        Err(other) => panic!("oplog: untyped failure {other:?}"),
    }
}

fn arb_oplog_op() -> impl Strategy<Value = OplogOp> {
    prop_oneof![
        (".{1,12}", prop::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(name, bytes)| OplogOp::MetaPut { name, bytes }),
        ".{1,12}".prop_map(|name| OplogOp::MetaDelete { name }),
        prop::collection::vec(arb_hash(), 0..3).prop_map(|reachable| OplogOp::Sweep { reachable }),
    ]
}

proptest! {
    // Every variant is a file write and an open: fewer cases by default.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Oplog records, through `Oplog::open`: arbitrary bytes, arbitrary
    /// bytes framed under a valid CRC, then every truncation and
    /// single-byte mutation of a valid log, as found and with the last
    /// record's CRC re-sealed. An open that succeeds over damage still
    /// lists every record before the damaged one, and every record after
    /// it too unless the damage can pass for a torn tail: a cut, or a
    /// length word pointing past the end. Any other damage drops at most
    /// the last record.
    #[test]
    fn oplog_records_survive_hostile_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..256),
        ops in prop::collection::vec(arb_oplog_op(), 1..4),
        flip in 1..=255u8,
    ) {
        let dir = Scratch::new("oplog");
        open_oplog_checked(&dir, &noise);
        let mut framed = Vec::new();
        write_frame(&mut framed, &noise).unwrap();
        open_oplog_checked(&dir, &framed);

        let src = Scratch::new("oplog-src");
        let path = src.0.join(OPLOG_FILE);
        let log = Oplog::open(&src.0).unwrap();
        let mut last_start = 0;
        let mut ends = Vec::new();
        for op in &ops {
            last_start = std::fs::metadata(&path).map_or(0, |m| m.len() as usize);
            log.append(op).unwrap();
            ends.push(std::fs::metadata(&path).unwrap().len() as usize);
        }
        let originals = log.read_from(0, usize::MAX).unwrap();
        let valid = std::fs::read(&path).unwrap();
        let n = ends.len();
        let starts: Vec<usize> = std::iter::once(0).chain(ends.iter().copied()).take(n).collect();
        let before = |at: usize| ends.iter().take_while(|&&end| end <= at).count();
        // Each variant with how many leading records an `Ok` must list.
        let mut cases = vec![(valid.clone(), n)];
        cases.extend((0..valid.len()).map(|cut| (valid[..cut].to_vec(), before(cut))));
        cases.extend((0..valid.len()).map(|at| {
            let mut bytes = valid.clone();
            bytes[at] ^= flip;
            let length_word = starts.iter().any(|&s| (s..s + 4).contains(&at));
            let kept = if length_word { before(at) } else { before(at).max(n - 1) };
            (bytes, kept)
        }));
        for (damaged, kept) in cases {
            for bytes in [damaged.clone(), resealed(damaged, last_start + 4)] {
                if let Some(records) = open_oplog_checked(&dir, &bytes) {
                    prop_assert!(
                        records.len() >= kept && records[..kept] == originals[..kept],
                        "an open over damage listed {} records, not the first {kept}",
                        records.len()
                    );
                }
            }
        }
    }
}

/// The reproduction: 180 bytes whose last section declares 2^20 chunk
/// refs over the 36 bytes of one used to reserve 36 MiB before the first
/// short read; so did a section count, at 9 MiB.
#[test]
fn a_manifest_declaring_more_entries_than_its_bytes_is_refused_before_allocating() {
    let section = SectionEntry {
        name: "5".into(),
        codec: Compression::None,
        payload_kind: PayloadKind::Full,
        stored_len: 0,
        section_len: 3,
        section_sha: Sha256::digest(b"s"),
        chunks: vec![ChunkRef {
            hash: Sha256::digest(b"c"),
            len: 0,
        }],
    };
    let manifest = Manifest {
        id: CheckpointId::new(0, 0),
        step: 0,
        kind: CheckpointKind::Full,
        chain_len: 0,
        created_unix_ms: 1_750_000_000_000,
        snapshot_sha: Sha256::digest(b"r"),
        sections: vec![section],
    };
    let valid = manifest.encode();
    // One-byte varints, found from the back: the chunk count sits before
    // the one 36-byte ref and the CRC; the section count before the whole
    // 89-byte entry.
    let chunk_count = valid.len() - 4 - 36 - 1;
    let section_count = chunk_count - (1 + 1 + 1 + 1 + 8 + 8 + 32) - 1;
    assert_eq!((valid[chunk_count], valid[section_count]), (1, 1));
    for at in [chunk_count, section_count] {
        let mut bytes = valid[..at].to_vec();
        bytes.extend_from_slice(&[0x80, 0x80, 0x40]); // varint 1 << 20
        bytes.extend_from_slice(&valid[at + 1..]);
        assert_eq!(decode_manifest_checked(&resealed(bytes, 0)), None);
    }
}

/// The footer fields nothing checksums, set to the values arithmetic on
/// them likes least.
#[test]
fn a_pack_footer_claiming_the_impossible_is_skipped() {
    let dir = Scratch::new("pack-footer");
    let valid = valid_pack(&[vec![1u8; 32], vec![2u8; 48]]);
    let footer = valid.len() - 24;
    for index_offset in [u64::MAX, u64::MAX - 43, u64::MAX - 88, 1 << 63, 0, 9] {
        for count in [u32::MAX, 1 << 31, 2, 0] {
            let mut bytes = valid.clone();
            bytes[footer..footer + 8].copy_from_slice(&index_offset.to_le_bytes());
            bytes[footer + 8..footer + 12].copy_from_slice(&count.to_le_bytes());
            open_pack_checked(&dir, &bytes);
        }
    }
}

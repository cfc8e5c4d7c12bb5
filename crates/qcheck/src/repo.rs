//! The checkpoint repository: layout, commit protocol, load & recovery.
//!
//! ```text
//! <root>/
//!   STORE               sticky backend marker: "pack" | "remote"
//!   packs/pack-….qpk    batched pack files (pack backend)
//!   ROOT.0, ROOT.1      dual root slots (see `manifest_log`)
//!   manifest-<e>.qlg    append-only CRC-framed manifest log
//!   tmp/                staging area; contents are disposable
//!   LOCK                writer lock: held as an OS file lock, never unlinked
//! ```
//!
//! A remote repository keeps the same directory minus `packs/` (the
//! chunks live in the daemon) plus a `REMOTE_NS` marker. Test builds can
//! also create the reference layout (`STORE` = `loose`, chunks under
//! `objects/ab/cdef…`).
//!
//! ## A save
//!
//! 1. write every new chunk (one [`crate::store::ObjectStore::put_batch`]
//!    call: a single staged pack published by one fsync+rename);
//! 2. [`ManifestLog::append`] one `ManifestPut` + `LatestAdvance` record
//!    pair — **one** write, one optional fsync, zero renames — and mirror
//!    the manifest to a shared backend;
//! 3. [`ManifestLog::publish`] — one small root-slot write, one optional
//!    fsync — and mirror `LATEST`.
//!
//! The commit protocol itself (framing, root slots, what a crash at any
//! byte leaves, the in-place baseline of experiment R-F8) is
//! [`crate::manifest_log`]'s. This module decides *which* records to
//! write and places the mirror calls between the two phases; crashes are
//! injected under it, at the `durable` seam ([`crate::failure::arm`]).
//! Recovery replays the log; a directory in the older `manifests/` +
//! `LATEST` layout is refused on open, untouched.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use std::sync::{Mutex, MutexGuard};

use crate::chunk::{chunk_bytes_threads, DEFAULT_CHUNK_SIZE};
use crate::compress::{zero_elide_xor_len, Compression};
use crate::delta::{BlockPatch, DEFAULT_BLOCK_SIZE};
use crate::error::{Error, Result};
use crate::failure::StorageFault;
use crate::hash::{ContentHash, Sha256};
use crate::manifest::{CheckpointId, CheckpointKind, Manifest, PayloadKind, SectionEntry};
pub use crate::manifest_log::CommitMode;
use crate::manifest_log::{self as mlog, CommitWrite, LogReplay, ManifestLog, RecordKind};
use crate::remote::RemoteStore;
use crate::snapshot::{
    Section, TrainingSnapshot, SECTION_LEDGER, SECTION_OPTIMIZER, SECTION_PARAMS,
};
use crate::store::{GcReport, ObjectStore, StagedChunk, StoreBackend, StoreKind};
use crate::sync::lock_recover;

/// Hard upper bound on delta-chain walks (cycle guard).
const CHAIN_HARD_LIMIT: usize = 4096;

/// Largest snapshot (summed section bytes) the delta-base encode cache
/// will pin in memory. Larger snapshots fall back to disk resolution —
/// trading the cached-base speedup for bounded memory.
const ENCODE_CACHE_MAX_BYTES: usize = 64 << 20;

/// Section payload (summed bytes) below which the per-section fan-outs of
/// `save` and `resolve_sections` stay on the calling thread: a scoped
/// worker costs ~0.1 ms to spawn and join, about what folding this many
/// bytes of chain does, so a KB-sized snapshot must never pay it.
const PARALLEL_MIN_BYTES: usize = 128 << 10;

/// Order-preserving map over `(weight, item)` pairs on at most `threads`
/// scoped threads, balanced by weight: items go largest-first onto the
/// lightest of `t` bins and `qpar::map_threads` is handed exactly those
/// bins, one per thread — a snapshot is two heavy sections and a handful
/// of tiny ones, which contiguous stripes put on the same thread. Runs
/// serially below [`PARALLEL_MIN_BYTES`] of total weight.
fn map_balanced<T, R, F>(threads: usize, items: Vec<(usize, T)>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let t = threads.min(items.len());
    let total: usize = items.iter().map(|(weight, _)| *weight).sum();
    if t <= 1 || total < PARALLEL_MIN_BYTES {
        return items.into_iter().map(|(_, item)| f(item)).collect();
    }
    let mut order: Vec<(usize, usize, T)> = items
        .into_iter()
        .enumerate()
        .map(|(i, (weight, item))| (i, weight, item))
        .collect();
    order.sort_by_key(|(_, weight, _)| std::cmp::Reverse(*weight));
    let mut bins: Vec<(usize, Vec<(usize, T)>)> = (0..t).map(|_| (0, Vec::new())).collect();
    for (i, weight, item) in order {
        let (load, bin) = bins
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("at least two bins");
        *load += weight;
        bin.push((i, item));
    }
    let bins: Vec<Vec<(usize, T)>> = bins
        .into_iter()
        .map(|(_, bin)| bin)
        .filter(|bin| !bin.is_empty())
        .collect();
    let run_bin = |bin: Vec<(usize, T)>| -> Vec<(usize, R)> {
        bin.into_iter().map(|(i, item)| (i, f(item))).collect()
    };
    let mut results: Vec<(usize, R)> = qpar::map_threads(bins.len(), bins, run_bin)
        .into_iter()
        .flatten()
        .collect();
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Full vs incremental save.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaveMode {
    /// Always write a self-contained checkpoint.
    Full,
    /// Write a delta against the latest checkpoint when one exists and the
    /// resulting chain stays within `max_chain_len`; otherwise write full.
    DeltaAuto {
        /// Maximum allowed chain length (a full checkpoint has length 0).
        max_chain_len: u32,
    },
}

/// Per-section compression selection. Under either policy a full payload
/// is stored raw where the section's codec would expand it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompressionPolicy {
    /// XOR-f64 for parameter-like sections, RLE for the ledger, raw
    /// otherwise.
    Default,
    /// One codec per section, or raw where it would expand.
    Uniform(Compression),
}

impl CompressionPolicy {
    fn codec_for(&self, section_name: &str) -> Compression {
        match self {
            CompressionPolicy::Uniform(c) => *c,
            CompressionPolicy::Default => match section_name {
                SECTION_PARAMS | SECTION_OPTIMIZER => Compression::XorF64,
                SECTION_LEDGER => Compression::Rle,
                _ => Compression::None,
            },
        }
    }
}

/// Options controlling one `save` call.
#[derive(Clone, Debug)]
pub struct SaveOptions {
    /// Full or incremental.
    pub mode: SaveMode,
    /// Codec selection.
    pub compression: CompressionPolicy,
    /// Chunk size for the object store.
    pub chunk_size: usize,
    /// Block size for delta diffs.
    pub delta_block_size: usize,
    /// Commit protocol.
    pub commit: CommitMode,
    /// fsync staged files before rename.
    pub fsync: bool,
    /// Override the manifest timestamp (tests / determinism).
    pub created_unix_ms: Option<u64>,
}

impl Default for SaveOptions {
    fn default() -> Self {
        SaveOptions {
            mode: SaveMode::Full,
            compression: CompressionPolicy::Default,
            chunk_size: DEFAULT_CHUNK_SIZE,
            delta_block_size: DEFAULT_BLOCK_SIZE,
            commit: CommitMode::Atomic,
            fsync: false,
            created_unix_ms: None,
        }
    }
}

impl SaveOptions {
    /// Incremental saving with the given chain bound.
    pub fn incremental(max_chain_len: u32) -> Self {
        SaveOptions {
            mode: SaveMode::DeltaAuto { max_chain_len },
            ..SaveOptions::default()
        }
    }
}

/// Statistics from one committed checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SaveReport {
    /// Id of the new checkpoint.
    pub id: CheckpointId,
    /// Whether a delta was written.
    pub is_delta: bool,
    /// Delta-chain length of the new checkpoint.
    pub chain_len: u32,
    /// Logical (uncompressed, resolved) snapshot bytes.
    pub logical_bytes: u64,
    /// Stored payload bytes referenced by the manifest (compressed).
    pub stored_bytes: u64,
    /// Bytes of *new* chunk objects physically written (dedup discount).
    pub new_chunk_bytes: u64,
    /// Count of new chunk objects.
    pub chunks_new: usize,
    /// Count of dedup hits.
    pub chunks_deduped: usize,
    /// Rename syscalls the object store used to commit this save's new
    /// chunks: ≤ 1 for the pack backend (O(chunks) for the reference
    /// loose layout).
    /// (Commit-path renames are counted separately in `commit_renames`.)
    pub store_renames: u64,
    /// `fsync` calls the object store issued while committing new chunks.
    pub store_fsyncs: u64,
    /// Rename syscalls the *commit* path (manifest + pointer publication)
    /// used beyond the chunk writes. Always 0 under the manifest-log
    /// protocol — the whole-save O(1) acceptance counter.
    pub commit_renames: u64,
    /// `fsync` calls the commit path issued: 0 with `fsync` off, exactly
    /// 2 with it on (log append + root slot), independent of snapshot
    /// size.
    pub commit_fsyncs: u64,
    /// Manifest record size (the encoded manifest bytes).
    pub manifest_bytes: u64,
}

impl SaveReport {
    /// Total bytes that hit the disk for this checkpoint.
    pub fn bytes_written(&self) -> u64 {
        self.new_chunk_bytes + self.manifest_bytes
    }
}

/// Outcome of a recovery scan.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Manifests that were rejected, with the reason.
    pub skipped: Vec<(String, String)>,
    /// Id of the checkpoint that was recovered, if any.
    pub recovered: Option<CheckpointId>,
    /// Orphaned staging files (debris from crashed writers) deleted
    /// before the scan — local `tmp/` debris plus, for a shared
    /// (remote) backend, server-side staging cleared over the wire.
    pub staging_cleared: usize,
    /// Manifests this repository *handle* has pulled down from a shared
    /// (remote) backend because they were missing locally, summed over
    /// the open-time sync and every recovery sync — nonzero exactly
    /// when this working directory was missing history, e.g. a
    /// fresh-directory resume. Always 0 for local backends.
    pub meta_synced: usize,
    /// Checkpoints the scan attempted to load before succeeding (or
    /// exhausting the log). 1 on a healthy repository — recovery
    /// short-circuits on the newest checkpoint instead of validating
    /// the whole history.
    pub manifests_tried: usize,
}

/// Retention policies for [`CheckpointRepo::apply_retention`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Retention {
    /// Never delete.
    KeepAll,
    /// Keep the newest `n` checkpoints (plus any delta bases they need).
    KeepLast(usize),
}

/// Report from a retention pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// Manifests deleted.
    pub manifests_deleted: usize,
    /// Garbage-collection results for the chunk store.
    pub gc: GcReport,
}

/// Output of the parallel per-section encode phase of
/// [`CheckpointRepo::save`].
struct SectionEncode<'a> {
    payload_kind: PayloadKind,
    codec: Compression,
    stored_len: usize,
    section_sha: crate::hash::ContentHash,
    /// The bytes to chunk: for [`Compression::None`] the stored payload
    /// itself, so a raw `Full` payload borrows the section.
    compressed: Cow<'a, [u8]>,
}

/// One section's encode: its digest, the payload [`select_payload`]
/// picks against its namesake in `base_sections` under `link_floor`, and
/// that payload compressed by the chosen codec.
fn encode_section<'a>(
    section: &'a Section,
    base_sections: Option<&[Section]>,
    options: &SaveOptions,
    link_floor: usize,
) -> SectionEncode<'a> {
    let section_sha = Sha256::digest(&section.bytes);
    let base_section = base_sections.and_then(|bs| bs.iter().find(|b| b.name == section.name));
    let (payload_kind, codec, stored) = select_payload(
        options.compression.codec_for(&section.name),
        section,
        base_section,
        options.delta_block_size,
        link_floor,
    );
    crate::obs::SECTION_ENCODES.inc();
    let stored_len = stored.len();
    let compressed = match codec {
        Compression::None => stored,
        codec => Cow::Owned(codec.compress(&stored)),
    };
    SectionEncode {
        payload_kind,
        codec,
        stored_len,
        section_sha,
        compressed,
    }
}

/// An on-disk checkpoint repository over a runtime-selected
/// [`StoreBackend`] — pack on this disk, or remote behind `qckptd` —
/// sticky per repository via the `STORE` marker.
#[derive(Debug)]
pub struct CheckpointRepo {
    root: PathBuf,
    tmp_dir: PathBuf,
    store: StoreBackend,
    /// The manifest log and its cached replay, reached only through
    /// [`Self::with_log`] — which re-checks the cache against the disk, so
    /// concurrent handles observe each other's commits. A save reads its
    /// id and its delta base from it.
    log: Mutex<ManifestLog>,
    /// Total manifests pulled from a shared backend by this handle
    /// (see [`RecoveryReport::meta_synced`]).
    meta_synced: std::sync::atomic::AtomicUsize,
    /// Sections of the last checkpoint this handle committed. Delta saves
    /// diff against the latest checkpoint; when its content is what we
    /// just wrote, the cache saves a full read-decompress-verify pass over
    /// the base (`resolve_sections`) per save. Keyed by content, so a
    /// checkpoint with other bytes — whoever wrote it — simply misses and
    /// resolves from disk; the *existence* of every chunk a resolve of it
    /// would read is still checked on every hit (GC races demote to the
    /// resolve path).
    /// Deliberate tradeoff: byte-level bit rot striking the
    /// base *between two consecutive saves* is no longer caught at save
    /// time — it surfaces at recover/fsck time, where recovery falls back
    /// past the damaged chain, and `max_chain_len` bounds the exposure.
    encode_cache: Mutex<Option<EncodeCache>>,
}

/// Encode-cache entry: the last checkpoint this handle committed.
#[derive(Debug)]
struct EncodeCache {
    /// Its `snapshot_sha` (must match the latest manifest's to be used).
    snapshot_sha: ContentHash,
    /// Its resolved sections (the delta base for the next save).
    sections: Vec<Section>,
}

impl CheckpointRepo {
    /// Opens a repository, creating the layout when absent. The storage
    /// backend is the repository's sticky `STORE` marker when present;
    /// a fresh directory is remote when `QCHECK_REMOTE_ADDR` names a
    /// daemon, else pack.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors, an unrecognized `STORE` marker, or an
    /// unreachable daemon.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        let kind = match crate::remote::RemoteEnv::read().addr {
            Some(_) => StoreKind::Remote,
            None => StoreKind::Pack,
        };
        Self::open_with(root, kind)
    }

    /// Opens a repository with an explicit backend preference. An
    /// existing repository's sticky marker still wins — a repository
    /// never changes backend.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn open_with(root: impl AsRef<Path>, kind: StoreKind) -> Result<Self> {
        let _span = qobs::span("qcheck.open");
        let root = root.as_ref().to_path_buf();
        // Before the backend opens: `open_sticky` writes the `STORE`
        // marker, and a refused directory must be left as it was found.
        Self::refuse_legacy_layout(&root)?;
        fs::create_dir_all(&root)
            .map_err(|e| Error::io(format!("creating {}", root.display()), e))?;
        let store = StoreBackend::open_sticky(&root, kind)?;
        Self::build(root, store)
    }

    /// Which storage layout this repository uses.
    pub fn store_kind(&self) -> StoreKind {
        self.store.kind()
    }

    /// Builds a repository around an already-opened backend; most
    /// callers want [`CheckpointRepo::open`].
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors, or with [`Error::InvalidConfig`] on a
    /// directory in the pre-log layout.
    pub fn with_store(root: impl AsRef<Path>, store: StoreBackend) -> Result<Self> {
        let _span = qobs::span("qcheck.open");
        let root = root.as_ref().to_path_buf();
        Self::refuse_legacy_layout(&root)?;
        Self::build(root, store)
    }

    /// What both constructors share once the layout check has passed:
    /// the staging directory and the metadata pull.
    fn build(root: PathBuf, store: StoreBackend) -> Result<Self> {
        let tmp_dir = root.join("tmp");
        fs::create_dir_all(&tmp_dir)
            .map_err(|e| Error::io(format!("creating {}", tmp_dir.display()), e))?;
        let repo = CheckpointRepo {
            log: Mutex::new(ManifestLog::new(&root)),
            root,
            tmp_dir,
            store,
            encode_cache: Mutex::new(None),
            meta_synced: std::sync::atomic::AtomicUsize::new(0),
        };
        // A shared backend mirrors the repository metadata: pull down
        // whatever this directory is missing, so a fresh working directory
        // continues the namespace's id sequence instead of restarting it.
        repo.sync_shared_meta()?;
        Ok(repo)
    }

    // The handle's two locks are shared with the save driver's writer
    // thread. A holder that panicked must not wedge the handle: both
    // caches are dropped, so the next access replays what reached the
    // disk.

    fn lock_log(&self) -> MutexGuard<'_, ManifestLog> {
        lock_recover(&self.log, ManifestLog::invalidate)
    }

    fn lock_encode_cache(&self) -> MutexGuard<'_, Option<EncodeCache>> {
        lock_recover(&self.encode_cache, |cache| *cache = None)
    }

    /// Repository root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The underlying object store.
    pub fn store(&self) -> &StoreBackend {
        &self.store
    }

    /// Path of the current manifest log file (`manifest-<epoch>.qlg`).
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors while refreshing the log state.
    pub fn manifest_log_path(&self) -> Result<PathBuf> {
        self.with_log(|log| Ok(log.log_path()))
    }

    // ------------------------------------------------------------------
    // manifest-log state
    // ------------------------------------------------------------------

    /// Runs `f` against the manifest log under its lock, the cached state
    /// first brought up to date with the disk. An `Err` from `f` may have
    /// left a commit half-written, so it invalidates the cache: the next
    /// access replays exactly what reached the disk.
    fn with_log<R>(&self, f: impl FnOnce(&mut ManifestLog) -> Result<R>) -> Result<R> {
        let mut log = self.lock_log();
        log.refresh()?;
        let result = f(&mut log);
        if result.is_err() {
            log.invalidate();
        }
        result
    }

    /// [`Self::with_log`] for readers of the replayed state. What a reader
    /// answers — "no such manifest" included — is never a reason to
    /// distrust the cache, so `f`'s value is passed through as it is.
    fn with_state<R>(&self, f: impl FnOnce(&LogReplay) -> R) -> Result<R> {
        self.with_log(|log| Ok(f(log.state())))
    }

    /// Refuses a directory in the pre-log layout (`manifests/*.qmf` +
    /// `LATEST`, no manifest log and no root slot). This build cannot read
    /// it, and opening it as an empty repository would let the next save
    /// and GC bury checkpoints somebody acknowledged — so it is an error,
    /// and no file in the directory is changed.
    fn refuse_legacy_layout(root: &Path) -> Result<()> {
        let has_manifests = fs::read_dir(root.join("manifests")).is_ok_and(|entries| {
            entries
                .flatten()
                .any(|e| e.file_name().to_string_lossy().ends_with(".qmf"))
        });
        if !has_manifests && !root.join("LATEST").exists() {
            return Ok(());
        }
        // Old files beside a log are what an interrupted migration by an
        // earlier build left; the log is authoritative.
        let has_log = mlog::read_root_slots(root).iter().any(Option::is_some)
            || !mlog::list_log_epochs(root).is_empty();
        if has_log {
            return Ok(());
        }
        Err(Error::InvalidConfig(format!(
            "{} holds the pre-log `manifests/*.qmf` + `LATEST` layout and no \
             manifest log or root slot; this build reads only the log layout \
             (open it with a build that still migrates, or move it aside)",
            root.display()
        )))
    }

    /// Acquires the writer lock; the returned guard releases it on drop,
    /// on every backend.
    ///
    /// A local repository holds an OS file lock on `LOCK`
    /// ([`std::fs::File::try_lock`]): the kernel drops it with the
    /// process, so a killed writer leaves nothing to clean up, and the
    /// file itself is never unlinked (its content — the holder's pid —
    /// is for humans). For a shared backend (the remote daemon) a local
    /// file would wrongly serialize *directories*, not writers, so the
    /// lock is the daemon's **server-side writer lease** instead: granted
    /// per namespace to this store handle, renewed by its traffic,
    /// expired by TTL if the process dies. Re-locking through the same
    /// remote handle renews the lease rather than conflicting (and the
    /// first of those guards to drop releases it).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Locked`] when another local writer holds the
    /// `LOCK` file, or [`Error::LeaseHeld`] when another live handle holds
    /// the namespace's lease.
    pub fn try_lock(&self) -> Result<RepoLock<'_>> {
        if let Some(remote) = self.store.remote() {
            remote.acquire_writer_lease()?;
            return Ok(RepoLock {
                repo: self,
                _file: None,
            });
        }
        let path = self.root.join("LOCK");
        let file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| Error::io(format!("opening {}", path.display()), e))?;
        match file.try_lock() {
            Ok(()) => {
                let _ = file.set_len(0);
                let _ = writeln!(&file, "{}", std::process::id());
                Ok(RepoLock {
                    repo: self,
                    _file: Some(file),
                })
            }
            Err(fs::TryLockError::WouldBlock) => Err(Error::Locked(path)),
            Err(fs::TryLockError::Error(e)) => Err(Error::io("acquiring lock", e)),
        }
    }

    // ------------------------------------------------------------------
    // save
    // ------------------------------------------------------------------

    /// The base a delta save with `max_chain_len` would use — the latest
    /// checkpoint, while its chain is shorter — and the chunks a resolve of
    /// it reads: one look at the log state. `None` when there is no latest
    /// checkpoint, its chain is full, or the chain does not walk.
    fn delta_base(&self, max_chain_len: u32) -> Result<Option<(Manifest, Vec<ContentHash>)>> {
        self.with_state(|st| {
            let tip = st.latest.as_ref().and_then(|id| st.manifests.get(id))?;
            if tip.chain_len >= max_chain_len {
                return None;
            }
            let bases = chain_bases(st, tip).ok()?;
            let links = section_links(tip, &bases).ok()?;
            let chunks = links.iter().flatten().flat_map(|(_, e)| &e.chunks);
            Some((tip.clone(), chunks.map(|r| r.hash).collect()))
        })
    }

    /// Commits a snapshot as a new checkpoint.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, or on integrity failures while reading the
    /// delta base.
    pub fn save(&self, snapshot: &TrainingSnapshot, options: &SaveOptions) -> Result<SaveReport> {
        if options.chunk_size == 0 || options.delta_block_size == 0 {
            return Err(Error::InvalidConfig(
                "chunk_size and delta_block_size must be positive".into(),
            ));
        }
        let _span = qobs::span("qcheck.save");
        crate::obs::SAVES.inc();
        let sections = snapshot.to_sections();
        let snapshot_bytes: usize = sections.iter().map(|s| s.bytes.len()).sum();

        // Decide full vs delta. The base sections come from the in-memory
        // cache when the latest checkpoint holds what this handle just
        // wrote (the common case in a training loop); otherwise they are
        // resolved — and verified — from disk.
        let mut base: Option<(Manifest, Vec<Section>)> = None;
        if let SaveMode::DeltaAuto { max_chain_len } = options.mode {
            if let Some((m, chunks)) = self.delta_base(max_chain_len)? {
                let cached = self.lock_encode_cache().take();
                // Even on a cache hit, confirm every chunk a resolve of the
                // base would read still exists (stats only) — a GC race or
                // deleted object must demote us to the resolve path, whose
                // failure falls back to a self-contained full checkpoint
                // instead of a delta against a hole.
                let cached = cached.filter(|c| {
                    c.snapshot_sha == m.snapshot_sha && self.store.contains_all(&chunks)
                });
                base = match cached {
                    Some(c) => Some(c.sections),
                    None => self.resolve_sections(&m).ok(),
                }
                .map(|sections| (m, sections));
            }
        }

        // ------------------------------------------------------------------
        // Encode phase: per-section payload selection, one compression and
        // the section hash, fanned out across worker threads by section
        // size (sections are independent). The chosen encodings are
        // identical at every thread count, and a raw `Full` payload is
        // chunked straight from the section, not from a copy.
        // ------------------------------------------------------------------
        let threads = qpar::current_threads();
        let base_sections = base.as_ref().map(|(_, s)| s.as_slice());
        let link_floor = snapshot_bytes / LINK_FLOOR_DIVISOR;
        let encoded: Vec<SectionEncode<'_>> = map_balanced(
            threads,
            sections.iter().map(|s| (s.bytes.len(), s)).collect(),
            |section| encode_section(section, base_sections, options, link_floor),
        );

        // Snapshot root hash: digest of the per-section digests. Every
        // section is verified against its own digest on resolve, so the
        // root binds the full snapshot without a second pass over the data
        // (and the per-section digests parallelize; a flat whole-snapshot
        // hash would serialize on one thread).
        let snapshot_sha = {
            let mut h = Sha256::new();
            for enc in &encoded {
                h.update(&enc.section_sha.0);
            }
            h.finalize()
        };

        // ------------------------------------------------------------------
        // Commit phase: chunk (hashing in parallel), then hand the whole
        // save's chunk set to the store as ONE batch — the pack backend
        // commits it with a single fsync+rename and names the pack by its
        // index, so the chunk hashes are the last pass over the payload
        // (the reference loose layout falls back to per-object writes).
        // Input order is section order, so dedup accounting stays
        // deterministic across backends.
        // ------------------------------------------------------------------
        let mut section_refs = Vec::with_capacity(sections.len());
        let mut staged: Vec<StagedChunk<'_>> = Vec::new();
        for enc in &encoded {
            let (refs, slices) = chunk_bytes_threads(&enc.compressed, options.chunk_size, threads);
            for (r, slice) in refs.iter().zip(&slices) {
                staged.push(StagedChunk {
                    reference: *r,
                    data: slice,
                });
            }
            section_refs.push(refs);
        }
        let batch = self.store.put_batch(&staged, options.fsync)?;
        let mut chunks_new = 0usize;
        let mut chunks_deduped = 0usize;
        let mut new_chunk_bytes = 0u64;
        for (chunk, fresh) in staged.iter().zip(&batch.fresh) {
            if *fresh {
                chunks_new += 1;
                new_chunk_bytes += chunk.data.len() as u64;
            } else {
                chunks_deduped += 1;
            }
        }
        let entries: Vec<SectionEntry> = sections
            .iter()
            .zip(&encoded)
            .zip(section_refs)
            .map(|((section, enc), refs)| SectionEntry {
                name: section.name.clone(),
                codec: enc.codec,
                payload_kind: enc.payload_kind,
                stored_len: enc.stored_len as u64,
                section_len: section.bytes.len() as u64,
                section_sha: enc.section_sha,
                chunks: refs,
            })
            .collect();

        let (kind, chain_len) = match &base {
            Some((m, _)) => (
                CheckpointKind::Delta { base: m.id.clone() },
                m.chain_len + 1,
            ),
            None => (CheckpointKind::Full, 0),
        };

        // Commit: name the checkpoint from the log it lands in, append the
        // record pair, mirror the manifest, publish, mirror `LATEST`.
        let how = CommitWrite {
            mode: options.commit,
            fsync: options.fsync,
        };
        let (manifest, manifest_len, commit_fsyncs) = self.with_log(|log| {
            let manifest = Manifest {
                id: CheckpointId::new(snapshot.step, log.state().next_seq),
                step: snapshot.step,
                kind,
                chain_len,
                created_unix_ms: options.created_unix_ms.unwrap_or_else(now_unix_ms),
                snapshot_sha,
                sections: entries,
            };
            let id = manifest.id.as_str();
            let manifest_bytes = manifest.encode();
            let mut records = mlog::encode_record(RecordKind::ManifestPut, id, &manifest_bytes);
            records.extend(mlog::encode_record(RecordKind::LatestAdvance, id, &[]));
            let appended = log.append(records, &how)?;
            // Mirror the manifest to a shared backend once it is locally
            // durable. Ordering matters for fresh-directory recovery: the
            // chunks went to the (shared) store before the manifest, so a
            // mirrored manifest is always resolvable remotely; a crash in
            // between leaves the remote one checkpoint behind the local
            // directory, never ahead of its data.
            self.mirror_meta(
                &format!("manifests/{}", manifest.id.file_name()),
                &manifest_bytes,
            )?;
            let fsyncs = log.publish(appended)?;
            self.mirror_meta("LATEST", format!("{id}\n").as_bytes())?;
            Ok((manifest, manifest_bytes.len(), fsyncs))
        })?;

        // Seed the encode cache for the next delta save: the checkpoint we
        // just committed is the latest, and these are exactly the sections
        // `resolve_sections` would reconstruct for it. Oversized snapshots
        // are not cached — pinning them would roughly double steady-state
        // checkpointing memory for the handle's lifetime.
        *self.lock_encode_cache() =
            (snapshot_bytes <= ENCODE_CACHE_MAX_BYTES).then_some(EncodeCache {
                snapshot_sha,
                sections,
            });

        Ok(SaveReport {
            is_delta: manifest.is_delta(),
            chain_len: manifest.chain_len,
            logical_bytes: manifest.logical_bytes(),
            stored_bytes: manifest.stored_bytes(),
            new_chunk_bytes,
            chunks_new,
            chunks_deduped,
            store_renames: batch.renames,
            store_fsyncs: batch.fsyncs,
            commit_renames: 0,
            commit_fsyncs,
            manifest_bytes: manifest_len as u64,
            id: manifest.id,
        })
    }

    /// Pulls repository metadata (manifests, `LATEST`) down from a
    /// shared backend into this working directory's manifest log. No-op
    /// (`Ok(0)`) for local backends. Local state wins: a manifest the
    /// log already carries is never overwritten, the mirror's `LATEST`
    /// is only adopted when the log has no latest pointer, and a
    /// **tombstoned** id (retired by retention here) is never re-pulled
    /// — instead its mirror delete is re-issued, reconciling the
    /// divergence a crash between local retire and remote delete leaves
    /// behind (the delete is idempotent).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or local filesystem errors.
    pub fn sync_shared_meta(&self) -> Result<usize> {
        let Some(remote) = self.store.remote() else {
            return Ok(0);
        };
        let listed = remote.meta_list("manifests/")?;
        self.with_log(|log| self.pull_shared_meta(remote, log, listed))
    }

    fn pull_shared_meta(
        &self,
        remote: &RemoteStore,
        log: &mut ManifestLog,
        listed: Vec<String>,
    ) -> Result<usize> {
        let st = log.state();
        // Partition the mirror's inventory. Defensive name filter: the
        // server validated these, but only plain `<id>.qmf` names are
        // meaningful here.
        let mut missing: Vec<(String, CheckpointId)> = Vec::new();
        let mut retired: Vec<String> = Vec::new();
        for name in listed {
            let Some(file) = name.strip_prefix("manifests/") else {
                continue;
            };
            let Some(stem) = file.strip_suffix(".qmf") else {
                continue;
            };
            if stem.is_empty() || stem.contains('/') || stem.contains("..") {
                continue;
            }
            let id = CheckpointId(stem.to_string());
            if st.tombstones.contains(&id) {
                retired.push(name);
            } else if !st.manifests.contains_key(&id) {
                missing.push((name, id));
            }
        }
        // One burst for every missing manifest, not a round trip each.
        let names: Vec<String> = missing.iter().map(|(n, _)| n.clone()).collect();
        let mut buf = Vec::new();
        let mut pulled: Vec<&CheckpointId> = Vec::new();
        for ((_, id), bytes) in missing.iter().zip(remote.meta_get_many(&names)?) {
            let Some(bytes) = bytes else { continue };
            // Verify before adoption — a mirror can rot like any store.
            if !Manifest::decode(&bytes).is_ok_and(|m| &m.id == id) {
                continue;
            }
            buf.extend(mlog::encode_record(
                RecordKind::ManifestPut,
                id.as_str(),
                &bytes,
            ));
            pulled.push(id);
        }
        if st.latest.is_none() {
            if let Some(bytes) = remote.meta_get("LATEST")? {
                let id = CheckpointId(String::from_utf8_lossy(&bytes).trim().to_string());
                if st.manifests.contains_key(&id) || pulled.contains(&&id) {
                    buf.extend(mlog::encode_record(
                        RecordKind::LatestAdvance,
                        id.as_str(),
                        &[],
                    ));
                }
            }
        }
        let count = pulled.len();
        if !buf.is_empty() {
            // One batched append + root flip for the whole pull.
            log.commit(buf)?;
        }
        // Reconcile retention divergence: re-issue the (idempotent)
        // mirror delete for every id we retired durably but the mirror
        // still lists.
        for name in retired {
            remote.meta_delete(&name)?;
        }
        self.meta_synced
            .fetch_add(count, std::sync::atomic::Ordering::Relaxed);
        Ok(count)
    }

    /// Mirrors one just-committed metadata file to a shared backend
    /// (no-op locally).
    fn mirror_meta(&self, name: &str, bytes: &[u8]) -> Result<()> {
        match self.store.remote() {
            Some(remote) => remote.meta_put(name, bytes),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // load
    // ------------------------------------------------------------------

    /// Reads the committed latest pointer from the manifest log's root
    /// slot; `None` when the repository is empty or the pointer dangles
    /// (its manifest record is damaged or deleted).
    ///
    /// # Errors
    ///
    /// Fails on log-replay I/O errors.
    pub fn read_latest(&self) -> Result<Option<CheckpointId>> {
        self.with_state(|st| st.latest.clone())
    }

    /// Lists all intact checkpoint ids, ascending.
    ///
    /// # Errors
    ///
    /// Fails on log-replay I/O errors.
    pub fn list_ids(&self) -> Result<Vec<CheckpointId>> {
        self.with_state(|st| st.manifests.keys().cloned().collect())
    }

    /// Loads one manifest from the replayed log state.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] when the log carries no intact record for
    /// `id` (absent, deleted, or damaged — damage details are surfaced
    /// via [`Self::damaged_manifests`]).
    pub fn load_manifest(&self, id: &CheckpointId) -> Result<Manifest> {
        self.with_state(|st| st.manifests.get(id).cloned())?
            .ok_or_else(|| Error::NotFound {
                what: format!("manifest {id}"),
            })
    }

    /// Manifest-log records that failed CRC/frame validation on the
    /// last replay, as `(record label, reason)` pairs. Empty on a
    /// healthy log; a benign torn tail (crash mid-append past the
    /// committed length) does *not* appear here.
    ///
    /// # Errors
    ///
    /// Fails on log-replay I/O errors.
    pub fn damaged_manifests(&self) -> Result<Vec<(String, String)>> {
        self.with_state(|st| st.damaged.clone())
    }

    /// Resolves a manifest to its full section payloads by folding its
    /// delta chain.
    ///
    /// Each section's chain is resolved on its own — from its newest
    /// `Full` payload forward, every link folded into one buffer in place
    /// — and the per-section chains fan out across [`qpar`] by size. What
    /// is verified: every chunk of every link against its content address
    /// as it is read, every link's stored and resolved lengths, the
    /// resolved bytes of each section against `manifest`'s own
    /// `section_sha`, and those digests against `snapshot_sha`. The
    /// `section_sha` fields of the *intermediate* links are not re-derived
    /// here; resolving (or `fsck`-ing) that checkpoint's own id checks
    /// them.
    ///
    /// # Errors
    ///
    /// Fails on missing/corrupt chunks at any chain layer, on a length or
    /// hash mismatch of the resolved sections, or on chains exceeding the
    /// hard cycle guard.
    pub fn resolve_sections(&self, manifest: &Manifest) -> Result<Vec<Section>> {
        let bases = self.with_state(|st| owned_chain_bases(st, manifest))??;
        self.resolve_chain(manifest, &bases)
    }

    /// [`Self::resolve_sections`] over an already collected chain: `tip`
    /// and its `bases`, newest first.
    fn resolve_chain(&self, tip: &Manifest, bases: &[Manifest]) -> Result<Vec<Section>> {
        let bases: Vec<&Manifest> = bases.iter().collect();
        let jobs = section_links(tip, &bases)?
            .into_iter()
            .map(|links| {
                let weight = links.iter().map(|(_, e)| e.stored_len as usize).sum();
                (weight, links)
            })
            .collect();
        let sections = map_balanced(qpar::current_threads(), jobs, |links| {
            self.fold_section(&links)
        })
        .into_iter()
        .collect::<Result<Vec<Section>>>()?;

        // Snapshot root hash: digest of the per-section digests, which were
        // each verified against the resolved bytes above.
        let mut h = Sha256::new();
        for entry in &tip.sections {
            h.update(&entry.section_sha.0);
        }
        if h.finalize() != tip.snapshot_sha {
            return Err(Error::corrupt(
                format!("checkpoint {}", tip.id),
                "snapshot hash mismatch".to_string(),
            ));
        }
        Ok(sections)
    }

    /// Folds one section's `links` (newest first, the last one `Full`)
    /// oldest-first into a single buffer and checks the result against
    /// the newest link's `section_sha`.
    fn fold_section(&self, links: &[(&Manifest, &SectionEntry)]) -> Result<Section> {
        let mut bytes: Vec<u8> = Vec::new();
        for (m, entry) in links.iter().rev() {
            let at = || format!("section {} of {}", entry.name, m.id);
            // One batched fetch per link: the remote backend asks in one
            // `Fetch` frame per 4 MiB, and the pack backend reads it with
            // one positioned read per contiguous run.
            let compressed = self.store.get_many(&entry.chunks)?.concat();
            if entry.payload_kind == PayloadKind::XorBase {
                // Folded straight from the payload into the accumulator;
                // the codec refuses a payload of any other length before
                // it touches a byte.
                if bytes.len() as u64 != entry.stored_len {
                    return Err(Error::corrupt(
                        at(),
                        format!(
                            "xor payload length {} != base length {}",
                            entry.stored_len,
                            bytes.len()
                        ),
                    ));
                }
                entry.codec.decompress_xor_into(&compressed, &mut bytes)?;
            } else {
                // A raw link's fetched buffer is its stored payload.
                let stored = match entry.codec {
                    Compression::None => compressed,
                    codec => {
                        let stored = codec.decompress(&compressed)?;
                        drop(compressed);
                        stored
                    }
                };
                if stored.len() as u64 != entry.stored_len {
                    return Err(Error::corrupt(
                        at(),
                        format!("stored length {} != {}", stored.len(), entry.stored_len),
                    ));
                }
                if entry.payload_kind == PayloadKind::Full {
                    bytes = stored;
                } else {
                    BlockPatch::decode(&stored)?.apply_in_place(&mut bytes)?;
                }
            }
            if bytes.len() as u64 != entry.section_len {
                return Err(Error::corrupt(
                    at(),
                    format!("resolved length {} != {}", bytes.len(), entry.section_len),
                ));
            }
            crate::obs::RESOLVE_LINKS.inc();
        }
        let (m, entry) = links[0];
        crate::obs::RESOLVE_SECTION_DIGESTS.inc();
        if Sha256::digest(&bytes) != entry.section_sha {
            return Err(Error::corrupt(
                format!("section {} of {}", entry.name, m.id),
                "resolved section hash mismatch".to_string(),
            ));
        }
        Ok(Section {
            name: entry.name.clone(),
            bytes,
        })
    }

    /// The resolver [`Self::resolve_sections`] replaced, kept as its test
    /// reference: the whole chain oldest-first, a fresh vector and a
    /// section digest per link.
    ///
    /// # Errors
    ///
    /// As [`Self::resolve_sections`], plus hash mismatches of intermediate
    /// links.
    #[cfg(any(test, feature = "testing"))]
    pub fn resolve_sections_reference(&self, manifest: &Manifest) -> Result<Vec<Section>> {
        let mut chain = vec![manifest.clone()];
        while let CheckpointKind::Delta { base } = &chain[chain.len() - 1].kind {
            if chain.len() > CHAIN_HARD_LIMIT {
                return Err(Error::ChainTooLong {
                    length: chain.len(),
                    limit: CHAIN_HARD_LIMIT,
                });
            }
            let base_manifest = self.load_manifest(base)?;
            chain.push(base_manifest);
        }
        let mut sections: Vec<Section> = Vec::new();
        for m in chain.iter().rev() {
            let mut next: Vec<Section> = Vec::with_capacity(m.sections.len());
            for entry in &m.sections {
                let at = || format!("section {} of {}", entry.name, m.id);
                let compressed: Vec<u8> = self.store.get_many(&entry.chunks)?.concat();
                let stored = entry.codec.decompress(&compressed)?;
                if stored.len() as u64 != entry.stored_len {
                    return Err(Error::corrupt(at(), "stored length mismatch".to_string()));
                }
                let base_section = sections.iter().find(|s| s.name == entry.name);
                let bytes = match (entry.payload_kind, base_section) {
                    (PayloadKind::Full, _) => stored,
                    (PayloadKind::DeltaPatch, Some(base)) => {
                        BlockPatch::decode(&stored)?.apply(&base.bytes)?
                    }
                    (PayloadKind::XorBase, Some(base)) if base.bytes.len() == stored.len() => {
                        base.bytes.iter().zip(&stored).map(|(a, b)| a ^ b).collect()
                    }
                    (PayloadKind::XorBase, Some(_)) => {
                        return Err(Error::corrupt(
                            at(),
                            "xor payload length mismatch".to_string(),
                        ))
                    }
                    (_, None) => {
                        return Err(Error::NotFound {
                            what: format!("base section {} for delta {}", entry.name, m.id),
                        })
                    }
                };
                if bytes.len() as u64 != entry.section_len
                    || Sha256::digest(&bytes) != entry.section_sha
                {
                    return Err(Error::corrupt(
                        at(),
                        "resolved section mismatch".to_string(),
                    ));
                }
                next.push(Section {
                    name: entry.name.clone(),
                    bytes,
                });
            }
            sections = next;
        }
        let mut h = Sha256::new();
        for entry in &manifest.sections {
            h.update(&entry.section_sha.0);
        }
        if h.finalize() != manifest.snapshot_sha {
            return Err(Error::corrupt(
                format!("checkpoint {}", manifest.id),
                "snapshot hash mismatch".to_string(),
            ));
        }
        Ok(sections)
    }

    /// Loads a checkpoint by id into a snapshot.
    ///
    /// # Errors
    ///
    /// Propagates manifest / chunk / decode failures.
    pub fn load(&self, id: &CheckpointId) -> Result<TrainingSnapshot> {
        // One look at the log state for the manifest and its whole chain.
        let (manifest, bases) = self.with_state(|st| {
            let manifest = st
                .manifests
                .get(id)
                .cloned()
                .ok_or_else(|| Error::NotFound {
                    what: format!("manifest {id}"),
                })?;
            let bases = owned_chain_bases(st, &manifest)?;
            Ok::<_, Error>((manifest, bases))
        })??;
        let sections = self.resolve_chain(&manifest, &bases)?;
        TrainingSnapshot::from_sections(&sections)
    }

    /// Loads the checkpoint named by `LATEST`.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] when the repo has no pointer; otherwise as
    /// [`CheckpointRepo::load`].
    pub fn load_latest(&self) -> Result<(CheckpointId, TrainingSnapshot)> {
        let id = self.read_latest()?.ok_or_else(|| Error::NotFound {
            what: "LATEST pointer".into(),
        })?;
        let snap = self.load(&id)?;
        Ok((id, snap))
    }

    /// Recovery: replays the manifest log (newest valid root slot,
    /// falling back across slots on a torn write), then validates
    /// checkpoints newest-first until one loads intact — O(log replay),
    /// not a directory walk, and normally `manifests_tried == 1`.
    /// Orphaned staging files (debris of the crash being recovered
    /// from) are garbage collected first — `tmp/` contents are
    /// disposable at every point of the commit protocol, so this is
    /// always safe — and a benign torn log tail is truncated away. For
    /// a shared (remote) backend this clears *both* staging areas — the
    /// store's own (the server-side `tmp/`, via `CLEAR_STAGING` on the
    /// live connection) and the local repository `tmp/` — pulls down
    /// any manifests this directory is missing, and reconciles
    /// retention divergence (re-issuing mirror deletes for tombstoned
    /// ids), so recovery works from a fresh directory against the same
    /// daemon.
    ///
    /// # Errors
    ///
    /// [`Error::NoValidCheckpoint`] when nothing can be recovered.
    pub fn recover(&self) -> Result<(TrainingSnapshot, RecoveryReport)> {
        let _span = qobs::span("qcheck.recover");
        crate::obs::RECOVERS.inc();
        // Store staging first (for local backends this *is* the repo
        // `tmp/`), then whatever the store didn't own — for a remote
        // backend the local manifest staging dir is a separate
        // directory the server never sees.
        let mut staging_cleared = self.store.clear_staging().unwrap_or(0);
        staging_cleared += crate::durable::clear_dir_files(&self.tmp_dir).unwrap_or(0);
        // Force a from-disk replay — recovery must not trust cached
        // state — and chop any benign torn tail the crash left.
        self.lock_log().invalidate();
        staging_cleared += usize::from(self.with_log(ManifestLog::truncate_torn_tail)?);
        let mut report = RecoveryReport {
            staging_cleared,
            meta_synced: {
                let _ = self.sync_shared_meta();
                self.meta_synced.load(std::sync::atomic::Ordering::Relaxed)
            },
            ..RecoveryReport::default()
        };
        let (ids, damaged) = self.with_state(|st| {
            (
                st.manifests.keys().rev().cloned().collect::<Vec<_>>(),
                st.damaged.clone(),
            )
        })?;
        // Log records that failed validation are reported alongside the
        // checkpoints whose chunks fail below.
        report.skipped.extend(damaged);
        // Bracket the chunk walk as one read pass: the pack backend
        // rescans packs/ at most once for the whole walk instead of
        // once per index miss.
        self.store.begin_read_pass();
        let mut recovered = None;
        for id in ids {
            report.manifests_tried += 1;
            match self.load(&id) {
                Ok(snapshot) => {
                    report.recovered = Some(id);
                    recovered = Some(snapshot);
                    break;
                }
                Err(e) => {
                    report
                        .skipped
                        .push((id.as_str().to_string(), e.to_string()));
                }
            }
        }
        self.store.end_read_pass();
        crate::obs::MANIFESTS_TRIED.add(report.manifests_tried as u64);
        match recovered {
            Some(snapshot) => Ok((snapshot, report)),
            None => Err(Error::NoValidCheckpoint {
                rejected: report.skipped.len(),
            }),
        }
    }

    // ------------------------------------------------------------------
    // maintenance
    // ------------------------------------------------------------------

    /// Mark-and-sweep garbage collection over the chunk store: everything
    /// referenced by a *decodable* manifest survives.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn gc(&self) -> Result<GcReport> {
        let _span = qobs::span("qcheck.gc");
        crate::obs::GCS.inc();
        self.store.sweep(&self.reachable_chunks()?, false)
    }

    /// Read-only preview of what [`CheckpointRepo::gc`] would do right
    /// now: the same report, from the same rule, with no file touched.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn gc_plan(&self) -> Result<GcReport> {
        self.store.sweep(&self.reachable_chunks()?, true)
    }

    /// The chunk hashes referenced by every intact manifest.
    fn reachable_chunks(&self) -> Result<BTreeSet<crate::hash::ContentHash>> {
        self.with_state(|st| {
            st.manifests
                .values()
                .flat_map(|m| m.chunk_refs().map(|c| c.hash))
                .collect()
        })
    }

    /// Applies a retention policy, retiring old checkpoints (keeping
    /// delta bases alive) and then garbage-collecting chunks.
    ///
    /// Retire order is crash-safe against resurrection: tombstone
    /// records land durably in the manifest log *first*, then the
    /// mirror deletes go out; a crash in between leaves tombstones that
    /// block re-pulling the retired ids, and the next
    /// [`Self::sync_shared_meta`] / [`Self::recover`] re-issues the
    /// (idempotent) mirror deletes.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn apply_retention(&self, retention: Retention) -> Result<RetentionReport> {
        let mut report = RetentionReport::default();
        let keep_n = match retention {
            Retention::KeepAll => {
                report.gc = self.gc()?;
                self.maybe_compact()?;
                return Ok(report);
            }
            Retention::KeepLast(n) => n,
        };
        // Phase 1 (durable, local): compute the retire set against the
        // replayed state and append its tombstone records in one flip.
        let retired = self.with_log(|log| Self::retire(log, keep_n))?;
        // Phase 2: mirror the deletes (idempotent — missing names are
        // fine, so crash-replay of this loop converges).
        if let Some(remote) = self.store.remote() {
            for id in &retired {
                remote.meta_delete(&format!("manifests/{}", id.file_name()))?;
            }
        }
        report.manifests_deleted = retired.len();
        report.gc = self.gc()?;
        self.maybe_compact()?;
        Ok(report)
    }

    /// Computes the retire set against the replayed state and commits its
    /// tombstone records in one flip. Returns the retired ids.
    fn retire(log: &mut ManifestLog, keep_n: usize) -> Result<Vec<CheckpointId>> {
        let st = log.state();
        let newest: Vec<CheckpointId> = st.manifests.keys().rev().take(keep_n).cloned().collect();
        // Transitively keep delta bases.
        let mut keep: BTreeSet<CheckpointId> = BTreeSet::new();
        for id in &newest {
            let mut cursor = id.clone();
            let mut guard = 0usize;
            loop {
                if !keep.insert(cursor.clone()) {
                    break;
                }
                guard += 1;
                if guard > CHAIN_HARD_LIMIT {
                    break;
                }
                match st.manifests.get(&cursor) {
                    Some(m) => match &m.kind {
                        CheckpointKind::Delta { base } => cursor = base.clone(),
                        CheckpointKind::Full => break,
                    },
                    None => break,
                }
            }
        }
        let retired: Vec<CheckpointId> = st
            .manifests
            .keys()
            .filter(|id| !keep.contains(*id))
            .cloned()
            .collect();
        if retired.is_empty() {
            return Ok(retired);
        }
        let mut buf = Vec::new();
        for id in &retired {
            buf.extend(mlog::encode_record(
                RecordKind::ManifestDelete,
                id.as_str(),
                &[],
            ));
        }
        log.commit(buf)?;
        Ok(retired)
    }

    /// Compacts the manifest log ([`ManifestLog::compact`]) when replay
    /// cost has outgrown the live state (record count > 2× live +
    /// tombstones + slack). Tombstones survive on a shared backend, whose
    /// mirror reconciliation needs them; a local one keeps only the one
    /// that holds the seq high-water mark.
    fn maybe_compact(&self) -> Result<()> {
        self.with_log(|log| {
            let st = log.state();
            let live = (st.manifests.len() + st.tombstones.len()) as u64;
            if st.records > 2 * live + 16 {
                log.compact(&self.tmp_dir, self.store.remote().is_some())?;
            }
            Ok(())
        })
    }

    /// Test/fault-injection hook: damages the *log record* carrying
    /// `id`'s manifest in place ([`ManifestLog::damage_record`]).
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] when the log carries no record for `id`.
    pub fn corrupt_manifest(&self, id: &CheckpointId, fault: StorageFault) -> Result<()> {
        self.with_log(|log| log.damage_record(id, fault))
    }

    /// Compacts the latest checkpoint's delta chain by rewriting it as a
    /// full checkpoint (bounding future recovery latency — experiment R-F6).
    ///
    /// Returns `None` when the latest checkpoint is already full.
    ///
    /// # Errors
    ///
    /// Propagates load/save failures.
    pub fn compact_latest(&self, options: &SaveOptions) -> Result<Option<SaveReport>> {
        let (id, snapshot) = self.load_latest()?;
        let manifest = self.load_manifest(&id)?;
        if !manifest.is_delta() {
            return Ok(None);
        }
        let mut opts = options.clone();
        opts.mode = SaveMode::Full;
        let report = self.save(&snapshot, &opts)?;
        Ok(Some(report))
    }
}

/// A delta link's cost, as a share of the snapshot: a `DeltaPatch` or
/// `XorBase` payload must be smaller than its section's `Full` payload by
/// more than the snapshot's summed section bytes over this divisor. Every
/// link is one more fetch on resume — one sequential round trip on a
/// remote store — so a section that a delta shrinks by a few dozen bytes
/// of a megabyte snapshot is stored whole and stops its chain there. A
/// share, not a byte count: a 3 KiB snapshot's small sections still
/// chain when they save a few dozen bytes.
const LINK_FLOOR_DIVISOR: usize = 100;

/// Picks a section's payload — kind, codec and the bytes that codec will
/// store — by compressed size, without compressing anything: each
/// candidate is measured with [`Compression::compressed_len`] (the XOR
/// candidate with [`zero_elide_xor_len`], before it is built), which is
/// exact, and only the winner is ever handed to `compress`. Candidates
/// are tried in the order full, block patch, XOR against the base. A
/// later one wins only if it is strictly smaller than the best so far
/// **and** smaller than the full candidate by more than `link_floor`
/// bytes (the snapshot's bytes over [`LINK_FLOOR_DIVISOR`]).
///
/// The full candidate is the section under `codec` or raw
/// ([`Compression::None`], whose size is the section's length), whichever
/// is smaller, the codec on a tie. A codec that would expand the section
/// (a word codec on dense f64 bytes) therefore never lets a delta win
/// against an inflated full payload, and a resume stops at that
/// section's newest full payload instead of folding the chain behind it.
///
/// Two skips change no choice. A section whose full candidate is at
/// most `link_floor` bytes returns at once: no delta can save more than
/// that. And the XOR candidate is neither built nor sized when its lower
/// bound cannot win: `ZeroElideF64` spends at least one control byte per
/// 8-byte word, so the payload is at least `len / 8` bytes.
fn select_payload<'a>(
    codec: Compression,
    section: &'a Section,
    base: Option<&Section>,
    delta_block_size: usize,
    link_floor: usize,
) -> (PayloadKind, Compression, Cow<'a, [u8]>) {
    let probe = |codec: Compression, stored: &[u8]| {
        crate::obs::SECTION_SIZE_PROBES.inc();
        codec.compressed_len(stored)
    };
    // Full payload is always a candidate.
    let mut best_len = probe(codec, &section.bytes);
    let mut best = (PayloadKind::Full, codec, Cow::Borrowed(&section.bytes[..]));
    if section.bytes.len() < best_len {
        best_len = section.bytes.len();
        best.1 = Compression::None;
    }
    let Some(base) = base else {
        return best;
    };
    if best_len <= link_floor {
        return best;
    }
    // What a delta must come in under: the full candidate less the floor
    // until a delta wins, then that delta.
    let mut to_beat = best_len - link_floor;
    // Block-level patch: wins on sparse updates and length-changing
    // sections (append-only ledger). A losing candidate is freed as soon
    // as it has lost: two heavy sections encode side by side, and a
    // candidate is as large as its section.
    {
        let patch = BlockPatch::diff_encoded(&base.bytes, &section.bytes, delta_block_size);
        let len = probe(codec, &patch);
        if len < to_beat {
            to_beat = len;
            best = (PayloadKind::DeltaPatch, codec, Cow::Owned(patch));
        }
    }
    // Byte-wise XOR against the base: wins on dense but small-magnitude
    // updates (optimizer steps late in training) — only differing bytes
    // survive. It is sized from the two sections and built only if it wins.
    if base.bytes.len() == section.bytes.len() && section.bytes.len() / 8 < to_beat {
        crate::obs::SECTION_SIZE_PROBES.inc();
        if zero_elide_xor_len(&base.bytes, &section.bytes) < to_beat {
            let xored: Vec<u8> = base
                .bytes
                .iter()
                .zip(&section.bytes)
                .map(|(a, b)| a ^ b)
                .collect();
            best = (
                PayloadKind::XorBase,
                Compression::ZeroElideF64,
                Cow::Owned(xored),
            );
        }
    }
    best
}

/// One section's links, newest first: the checkpoint's own entry, then
/// its namesake in each older base, down to its newest `Full` payload.
type SectionLinks<'m> = Vec<(&'m Manifest, &'m SectionEntry)>;

/// The links of every section of `tip` over its `bases` (newest first),
/// in `tip`'s section order — exactly what a resolve reads: links older
/// than a section's newest `Full` payload cannot change its bytes.
fn section_links<'m>(tip: &'m Manifest, bases: &[&'m Manifest]) -> Result<Vec<SectionLinks<'m>>> {
    let mut sections = Vec::with_capacity(tip.sections.len());
    for entry in &tip.sections {
        let mut links: SectionLinks<'m> = vec![(tip, entry)];
        let mut older = bases.iter();
        loop {
            let (m, link) = links[links.len() - 1];
            if link.payload_kind == PayloadKind::Full {
                break;
            }
            let base = older.next().and_then(|&base| {
                let e = base.sections.iter().find(|s| s.name == link.name)?;
                Some((base, e))
            });
            let Some(base) = base else {
                return Err(Error::NotFound {
                    what: format!("base section {} for delta {}", link.name, m.id),
                });
            };
            links.push(base);
        }
        sections.push(links);
    }
    Ok(sections)
}

/// The delta bases of `tip`, newest first down to the full checkpoint,
/// borrowed from one snapshot of the log state.
fn chain_bases<'s>(st: &'s LogReplay, tip: &'s Manifest) -> Result<Vec<&'s Manifest>> {
    let mut bases = Vec::new();
    let mut cursor = tip;
    while let CheckpointKind::Delta { base } = &cursor.kind {
        if bases.len() >= CHAIN_HARD_LIMIT {
            return Err(Error::ChainTooLong {
                length: bases.len() + 1,
                limit: CHAIN_HARD_LIMIT,
            });
        }
        cursor = st.manifests.get(base).ok_or_else(|| Error::NotFound {
            what: format!("manifest {base}"),
        })?;
        bases.push(cursor);
    }
    Ok(bases)
}

/// [`chain_bases`], cloned out of the log state for a resolve.
fn owned_chain_bases(st: &LogReplay, tip: &Manifest) -> Result<Vec<Manifest>> {
    Ok(chain_bases(st, tip)?.into_iter().cloned().collect())
}

/// Guard for the writer lock ([`CheckpointRepo::try_lock`]). Dropping it
/// unlocks: a local repository's `LOCK` file lock goes with the file
/// handle held here, a remote repository's writer lease is released to
/// the daemon.
#[derive(Debug)]
pub struct RepoLock<'a> {
    repo: &'a CheckpointRepo,
    _file: Option<fs::File>,
}

impl Drop for RepoLock<'_> {
    fn drop(&mut self) {
        if let Some(remote) = self.repo.store.remote() {
            remote.release_writer_lease();
        }
    }
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Reference cost of a naive simulator-state checkpoint for an `n`-qubit
/// register: `2^n` amplitudes × 16 bytes. The paper's contrast line.
pub fn naive_statevector_bytes(num_qubits: u32) -> u128 {
    (1u128 << num_qubits) * 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{arm, Fault};
    use crate::snapshot::{StateBlob, CUSTOM_PREFIX};

    struct TempRepo {
        path: PathBuf,
    }

    impl TempRepo {
        fn new() -> (Self, CheckpointRepo) {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "qcheck-repo-test-{}-{}",
                std::process::id(),
                N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            let repo = CheckpointRepo::open(&path).unwrap();
            (TempRepo { path }, repo)
        }
    }

    impl Drop for TempRepo {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.path);
        }
    }

    fn snapshot_at(step: u64, params: Vec<f64>) -> TrainingSnapshot {
        let mut s = TrainingSnapshot::new("test-run");
        s.step = step;
        s.params = params;
        s.optimizer = StateBlob::new("adam-v1", vec![0u8; 64]);
        s.rng_streams.insert(
            "shots".into(),
            crate::snapshot::RngCapture([step as u8; 40]),
        );
        s.total_shots = step * 1000;
        s
    }

    #[test]
    fn save_and_load_full_round_trip() {
        let (_t, repo) = TempRepo::new();
        let snap = snapshot_at(10, vec![0.5; 100]);
        let report = repo.save(&snap, &SaveOptions::default()).unwrap();
        assert!(!report.is_delta);
        assert_eq!(report.chain_len, 0);
        let (id, loaded) = repo.load_latest().unwrap();
        assert_eq!(id, report.id);
        assert_eq!(loaded, snap);
    }

    #[test]
    fn incremental_saves_form_chain_and_resolve() {
        let (_t, repo) = TempRepo::new();
        let opts = SaveOptions::incremental(10);
        let mut params = vec![0.1f64; 2000];
        let r0 = repo.save(&snapshot_at(0, params.clone()), &opts).unwrap();
        assert!(!r0.is_delta);
        for step in 1..5u64 {
            params[step as usize * 7] += 0.001;
            let r = repo
                .save(&snapshot_at(step, params.clone()), &opts)
                .unwrap();
            assert!(r.is_delta, "step {step}");
            assert_eq!(r.chain_len as u64, step);
        }
        let (_, loaded) = repo.load_latest().unwrap();
        assert_eq!(loaded.params, params);
        assert_eq!(loaded.step, 4);
    }

    #[test]
    fn delta_saves_write_fewer_bytes_than_full() {
        let (_t, repo) = TempRepo::new();
        let opts = SaveOptions::incremental(100);
        let mut params = vec![0.123f64; 20_000];
        let full = repo.save(&snapshot_at(0, params.clone()), &opts).unwrap();
        params[5] += 1e-9;
        let delta = repo.save(&snapshot_at(1, params.clone()), &opts).unwrap();
        assert!(delta.is_delta);
        assert!(
            delta.bytes_written() < full.bytes_written() / 4,
            "delta {} vs full {}",
            delta.bytes_written(),
            full.bytes_written()
        );
    }

    #[test]
    fn chain_limit_forces_full() {
        let (_t, repo) = TempRepo::new();
        let opts = SaveOptions::incremental(2);
        let mut reports = Vec::new();
        for step in 0..6u64 {
            reports.push(
                repo.save(&snapshot_at(step, vec![step as f64; 50]), &opts)
                    .unwrap(),
            );
        }
        let chain: Vec<u32> = reports.iter().map(|r| r.chain_len).collect();
        assert_eq!(chain, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn dedup_across_identical_saves() {
        let (_t, repo) = TempRepo::new();
        let snap = snapshot_at(1, vec![0.7; 5000]);
        let r1 = repo.save(&snap, &SaveOptions::default()).unwrap();
        // Same logical content ⇒ all chunks dedup.
        let r2 = repo.save(&snap, &SaveOptions::default()).unwrap();
        assert!(r1.chunks_new > 0);
        assert_eq!(r2.chunks_new, 0, "identical snapshot rewrote chunks");
        assert_eq!(r2.chunks_deduped, r1.chunks_new + r1.chunks_deduped);
    }

    #[test]
    fn recover_prefers_newest_valid() {
        let (_t, repo) = TempRepo::new();
        repo.save(&snapshot_at(1, vec![1.0; 10]), &SaveOptions::default())
            .unwrap();
        let r2 = repo
            .save(&snapshot_at(2, vec![2.0; 10]), &SaveOptions::default())
            .unwrap();
        let (snap, report) = repo.recover().unwrap();
        assert_eq!(snap.step, 2);
        assert_eq!(report.recovered, Some(r2.id));
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn recover_falls_back_over_corrupt_manifest() {
        let (_t, repo) = TempRepo::new();
        repo.save(&snapshot_at(1, vec![1.0; 10]), &SaveOptions::default())
            .unwrap();
        let r2 = repo
            .save(&snapshot_at(2, vec![2.0; 10]), &SaveOptions::default())
            .unwrap();
        // Corrupt the newest manifest's log record.
        repo.corrupt_manifest(&r2.id, crate::failure::StorageFault::BitFlip { offset: 33 })
            .unwrap();
        let (snap, report) = repo.recover().unwrap();
        assert_eq!(snap.step, 1);
        assert_eq!(report.skipped.len(), 1);
    }

    #[test]
    fn recover_detects_corrupt_chunk() {
        let (_t, repo) = TempRepo::new();
        repo.save(&snapshot_at(1, vec![1.0; 4000]), &SaveOptions::default())
            .unwrap();
        let r2 = repo
            .save(&snapshot_at(2, vec![2.0; 4000]), &SaveOptions::default())
            .unwrap();
        // Corrupt one chunk of the newest checkpoint.
        let m = repo.load_manifest(&r2.id).unwrap();
        let victim = m.chunk_refs().next().unwrap().hash;
        repo.store().corrupt_object(&victim, 0).unwrap();
        let (snap, _) = repo.recover().unwrap();
        // Fell back (step 1) unless the corrupted chunk was shared; in that
        // case both fail — but these params differ so chunks are distinct.
        assert_eq!(snap.step, 1);
    }

    #[test]
    fn recover_on_empty_repo_fails_cleanly() {
        let (_t, repo) = TempRepo::new();
        match repo.recover() {
            Err(Error::NoValidCheckpoint { rejected: 0 }) => {}
            other => panic!("{other:?}"),
        }
    }

    /// A repository holding checkpoint 1, and how many durable ops saving
    /// checkpoint 2 into it under `opts` issues in its directory (counted
    /// on a twin: the pack publish, if the chunks are local, then the two
    /// commit writes — so the tests below index from the end and hold on
    /// every backend).
    fn one_checkpoint_and_ops_of_the_next(opts: &SaveOptions) -> (TempRepo, CheckpointRepo, u64) {
        let setup = || {
            let (t, repo) = TempRepo::new();
            repo.save(&snapshot_at(1, vec![1.0; 100]), &SaveOptions::default())
                .unwrap();
            (t, repo)
        };
        let ops = {
            let (_t, twin) = setup();
            let counting = arm(twin.root(), 0, Fault::Fail);
            twin.save(&snapshot_at(2, vec![2.0; 100]), opts).unwrap();
            counting.ops()
        };
        let (t, repo) = setup();
        (t, repo, ops)
    }

    /// Saves checkpoint 2 under `opts` with `fault` armed at its `at`-th
    /// durable op, and returns the save's error.
    fn save_2_with(repo: &CheckpointRepo, opts: &SaveOptions, at: u64, fault: Fault) -> Error {
        let _armed = arm(repo.root(), at, fault);
        repo.save(&snapshot_at(2, vec![2.0; 100]), opts)
            .unwrap_err()
    }

    #[test]
    fn crash_before_manifest_leaves_previous_state() {
        let opts = SaveOptions::default();
        let (_t, repo, ops) = one_checkpoint_and_ops_of_the_next(&opts);
        // The append (second-to-last op) dies before a byte of it lands:
        // the chunks are stored, the manifest is not.
        let err = save_2_with(&repo, &opts, ops - 1, Fault::Crash { keep_pct: 0 });
        assert!(matches!(err, Error::SimulatedCrash { .. }), "{err}");
        let (snap, _) = repo.recover().unwrap();
        assert_eq!(snap.step, 1);
    }

    #[test]
    fn atomic_mid_manifest_crash_is_recoverable() {
        let opts = SaveOptions::default();
        for pct in [10u8, 50, 90] {
            let (_t, repo, ops) = one_checkpoint_and_ops_of_the_next(&opts);
            save_2_with(&repo, &opts, ops - 1, Fault::Crash { keep_pct: pct });
            let (snap, report) = repo.recover().unwrap();
            assert_eq!(snap.step, 1, "pct {pct}");
            assert!(report.skipped.is_empty(), "atomic mode left no debris");
        }
    }

    #[test]
    fn inplace_mid_manifest_crash_leaves_detectable_corruption() {
        let opts = SaveOptions {
            commit: CommitMode::InPlaceUnsafe,
            ..SaveOptions::default()
        };
        let (_t, repo, ops) = one_checkpoint_and_ops_of_the_next(&opts);
        // In place, the append is the last op: the live root already
        // claims the bytes it tears.
        save_2_with(&repo, &opts, ops, Fault::Crash { keep_pct: 60 });
        // The torn manifest exists on disk but must be rejected, not
        // silently half-read.
        let (snap, report) = repo.recover().unwrap();
        assert_eq!(snap.step, 1);
        assert_eq!(report.skipped.len(), 1);
    }

    #[test]
    fn torn_latest_pointer_does_not_break_recovery() {
        let opts = SaveOptions::default();
        let (_t, repo, ops) = one_checkpoint_and_ops_of_the_next(&opts);
        save_2_with(&repo, &opts, ops, Fault::Crash { keep_pct: 50 });
        // load_latest may fail (torn pointer), recover() must not.
        let (snap, _) = repo.recover().unwrap();
        assert_eq!(
            snap.step, 2,
            "manifest 2 was fully written before the pointer tear"
        );
    }

    #[test]
    fn gc_reclaims_unreferenced_chunks() {
        let (_t, repo) = TempRepo::new();
        let r1 = repo
            .save(&snapshot_at(1, vec![1.0; 5000]), &SaveOptions::default())
            .unwrap();
        repo.save(&snapshot_at(2, vec![2.0; 5000]), &SaveOptions::default())
            .unwrap();
        // Drop the first manifest's record, then GC.
        repo.corrupt_manifest(&r1.id, crate::failure::StorageFault::Delete)
            .unwrap();
        let report = repo.gc().unwrap();
        assert!(report.deleted > 0);
        // Remaining checkpoint still loads.
        let (snap, _) = repo.recover().unwrap();
        assert_eq!(snap.step, 2);
    }

    #[test]
    fn retention_keeps_delta_bases() {
        let (_t, repo) = TempRepo::new();
        let opts = SaveOptions::incremental(10);
        for step in 0..5u64 {
            repo.save(&snapshot_at(step, vec![step as f64; 1000]), &opts)
                .unwrap();
        }
        // Keep last 1: the newest is a delta whose chain reaches the full
        // checkpoint at step 0 — all bases must survive.
        let report = repo.apply_retention(Retention::KeepLast(1)).unwrap();
        assert_eq!(report.manifests_deleted, 0, "all were chain bases");
        let (snap, _) = repo.recover().unwrap();
        assert_eq!(snap.step, 4);
    }

    #[test]
    fn retention_deletes_unneeded_fulls() {
        let (_t, repo) = TempRepo::new();
        for step in 0..5u64 {
            repo.save(
                &snapshot_at(step, vec![step as f64; 1000]),
                &SaveOptions::default(),
            )
            .unwrap();
        }
        let report = repo.apply_retention(Retention::KeepLast(2)).unwrap();
        assert_eq!(report.manifests_deleted, 3);
        assert!(report.gc.deleted > 0);
        assert_eq!(repo.list_ids().unwrap().len(), 2);
        let (snap, _) = repo.recover().unwrap();
        assert_eq!(snap.step, 4);
    }

    /// Ids order by commit, not by step: when a run's step goes backwards
    /// the last save is still the one `recover` restores and retention
    /// keeps.
    #[test]
    fn a_step_that_goes_backwards_is_still_the_newest_save() {
        let (_t, repo) = TempRepo::new();
        for step in [10, 20, 15] {
            repo.save(
                &snapshot_at(step, vec![step as f64; 100]),
                &SaveOptions::default(),
            )
            .unwrap();
        }
        let last = CheckpointId::new(15, 2);
        assert_eq!(repo.read_latest().unwrap(), Some(last.clone()));
        let (snap, report) = repo.recover().unwrap();
        assert_eq!(snap.step, 15);
        assert_eq!(report.recovered, Some(last.clone()));
        repo.apply_retention(Retention::KeepLast(1)).unwrap();
        assert_eq!(repo.list_ids().unwrap(), std::slice::from_ref(&last));
        assert_eq!(repo.read_latest().unwrap(), Some(last.clone()));
        assert_eq!(repo.load(&last).unwrap(), snapshot_at(15, vec![15.0; 100]));
    }

    /// Compacting a log whose every id was retired keeps the seq
    /// high-water mark: the next save gets a seq no id ever had.
    #[test]
    fn compaction_never_hands_a_seq_out_twice() {
        let (_t, repo) = TempRepo::new();
        for step in 0..20u64 {
            repo.save(&snapshot_at(step, vec![0.5; 100]), &SaveOptions::default())
                .unwrap();
        }
        repo.apply_retention(Retention::KeepLast(0)).unwrap();
        assert_eq!(
            repo.with_state(|st| st.epoch).unwrap(),
            1,
            "the log compacted"
        );
        let report = repo
            .save(&snapshot_at(21, vec![0.5; 100]), &SaveOptions::default())
            .unwrap();
        assert_eq!(report.id, CheckpointId::new(21, 20));
    }

    #[test]
    fn compact_latest_rewrites_chain_as_full() {
        let (_t, repo) = TempRepo::new();
        let opts = SaveOptions::incremental(10);
        for step in 0..4u64 {
            repo.save(&snapshot_at(step, vec![step as f64; 500]), &opts)
                .unwrap();
        }
        let report = repo.compact_latest(&opts).unwrap().unwrap();
        assert!(!report.is_delta);
        assert_eq!(report.chain_len, 0);
        let (_, snap) = repo.load_latest().unwrap();
        assert_eq!(snap.step, 3);
        // Compacting a full checkpoint is a no-op.
        assert!(repo.compact_latest(&opts).unwrap().is_none());
    }

    #[test]
    fn lock_is_exclusive_and_released() {
        let (_t, repo) = TempRepo::new();
        let guard = repo.try_lock().unwrap();
        if repo.store().remote().is_some() {
            // The server-side writer lease is handle-scoped: re-locking
            // through the same handle renews it instead of conflicting.
            // Cross-handle exclusion on every backend is
            // tests/store_backends.rs::writer_lock_excludes_a_second_writer_on_every_backend.
            assert!(repo.try_lock().is_ok());
            return;
        }
        assert!(matches!(repo.try_lock(), Err(Error::Locked(_))));
        drop(guard);
        assert!(repo.try_lock().is_ok());
    }

    /// A `LOCK` file nobody holds — what a killed writer leaves behind —
    /// must not block the next writer, and unlocking never unlinks it.
    #[test]
    fn stale_lock_file_without_a_holder_does_not_block() {
        let path = scratch_root("stale-lock");
        let repo = CheckpointRepo::open_with(&path, crate::store::StoreKind::Pack).unwrap();
        fs::write(path.join("LOCK"), "4194303\n").unwrap();
        let guard = repo.try_lock().expect("a stale LOCK must not block");
        assert_eq!(
            fs::read_to_string(path.join("LOCK")).unwrap().trim(),
            std::process::id().to_string()
        );
        drop(guard);
        assert!(path.join("LOCK").is_file(), "LOCK is never unlinked");
        assert!(repo.try_lock().is_ok());
        let _ = fs::remove_dir_all(path);
    }

    /// A thread that panicked holding either of the handle's two locks —
    /// the save driver's writer thread, say — must not wedge the handle:
    /// the caches are dropped and replayed from disk, and saving goes on
    /// where the disk says it stood, under the id the log hands out.
    #[test]
    fn a_panic_under_each_lock_leaves_the_handle_usable() {
        let (_t, repo) = TempRepo::new();
        let opts = SaveOptions::incremental(8);
        let first = repo.save(&snapshot_at(1, vec![0.5; 3000]), &opts).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let mut log = repo.log.lock().unwrap();
                let mut cache = repo.encode_cache.lock().unwrap();
                // What a half-finished update could leave behind.
                log.state_mut().latest = None;
                log.state_mut().next_seq = 999;
                cache.as_mut().unwrap().sections.clear();
                panic!("injected panic under the repository locks");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(repo.log.is_poisoned() && repo.encode_cache.is_poisoned());

        assert_eq!(repo.read_latest().unwrap(), Some(first.id.clone()));
        let second = repo.save(&snapshot_at(2, vec![0.25; 3000]), &opts).unwrap();
        assert_eq!(
            second.id,
            CheckpointId::new(2, 1),
            "id read from the replayed log"
        );
        assert!(second.is_delta, "the base was resolved from disk");
        let (snapshot, report) = repo.recover().unwrap();
        assert_eq!(snapshot, snapshot_at(2, vec![0.25; 3000]));
        assert!(report.skipped.is_empty());
        assert!(!repo.log.is_poisoned() && !repo.encode_cache.is_poisoned());
    }

    /// An id is never handed out twice: not across a reopen — ids sort
    /// step-first, so the highest id need not carry the highest sequence
    /// number — and not between two handles on one directory.
    #[test]
    fn reopen_continues_sequence() {
        let (t, repo) = TempRepo::new();
        let r1 = repo
            .save(&snapshot_at(5, vec![0.0; 10]), &SaveOptions::default())
            .unwrap();
        drop(repo);
        let repo2 = CheckpointRepo::open(&t.path).unwrap();
        let r2 = repo2
            .save(&snapshot_at(5, vec![1.0; 10]), &SaveOptions::default())
            .unwrap();
        assert_ne!(r1.id, r2.id, "sequence must not collide across reopen");
        assert!(r2.id > r1.id);
        drop(repo2);

        // Steps 10, 20 and 15, a reopen, and step 15 again.
        let (t, repo) = TempRepo::new();
        let opts = SaveOptions::default();
        for step in [10, 20] {
            repo.save(&snapshot_at(step, vec![step as f64; 10]), &opts)
                .unwrap();
        }
        let first = repo.save(&snapshot_at(15, vec![1.5; 10]), &opts).unwrap();
        drop(repo);
        let repo = CheckpointRepo::open(&t.path).unwrap();
        let again = repo.save(&snapshot_at(15, vec![-1.5; 10]), &opts).unwrap();
        assert_ne!(first.id, again.id, "a reopened repository reused an id");
        assert_eq!(
            repo.load(&first.id).unwrap(),
            snapshot_at(15, vec![1.5; 10])
        );
        assert_eq!(
            repo.load(&again.id).unwrap(),
            snapshot_at(15, vec![-1.5; 10])
        );

        // Two handles on one directory, saving in turn at one step.
        let other = CheckpointRepo::open(&t.path).unwrap();
        let a = repo.save(&snapshot_at(30, vec![3.0; 10]), &opts).unwrap();
        let b = other.save(&snapshot_at(30, vec![-3.0; 10]), &opts).unwrap();
        assert_ne!(a.id, b.id, "two handles handed out one id");
        assert_eq!(repo.load(&a.id).unwrap(), snapshot_at(30, vec![3.0; 10]));
    }

    /// The encode cache holds what this handle last wrote. When another
    /// handle's save is the latest, the cache misses and the delta is
    /// taken against what is on disk.
    #[test]
    fn a_save_by_another_handle_misses_the_encode_cache() {
        let (t, repo) = TempRepo::new();
        let other = CheckpointRepo::open(&t.path).unwrap();
        let opts = SaveOptions::incremental(8);
        repo.save(&snapshot_at(1, vec![1.0; 3000]), &opts).unwrap();
        other.save(&snapshot_at(2, vec![2.0; 3000]), &opts).unwrap();
        let third = repo.save(&snapshot_at(3, vec![3.0; 3000]), &opts).unwrap();
        assert!(third.is_delta);
        assert_eq!(
            repo.load(&third.id).unwrap(),
            snapshot_at(3, vec![3.0; 3000])
        );
    }

    #[test]
    fn uniform_compression_policy_is_respected() {
        let (_t, repo) = TempRepo::new();
        let opts = SaveOptions {
            compression: CompressionPolicy::Uniform(Compression::Rle),
            ..SaveOptions::default()
        };
        let snapshot = snapshot_at(1, vec![0.0; 4096]);
        let r = repo.save(&snapshot, &opts).unwrap();
        let m = repo.load_manifest(&r.id).unwrap();
        // RLE, or raw where RLE would expand the section.
        for (entry, section) in m.sections.iter().zip(snapshot.to_sections()) {
            let rle = Compression::Rle.compressed_len(&section.bytes);
            let want = if section.bytes.len() < rle {
                Compression::None
            } else {
                Compression::Rle
            };
            assert_eq!(entry.codec, want, "section {}", entry.name);
        }
        assert!(m.sections.iter().any(|s| s.codec == Compression::Rle));
        // All-zero params compress massively under RLE (32 KiB → runs of 255
        // zeros at 3 bytes each ≈ 400 bytes).
        let params = m.sections.iter().find(|s| s.name == "params").unwrap();
        let stored: usize = params.chunks.iter().map(|c| c.len as usize).sum();
        assert!(stored < 1000, "stored {stored}");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (_t, repo) = TempRepo::new();
        let opts = SaveOptions {
            chunk_size: 0,
            ..SaveOptions::default()
        };
        assert!(matches!(
            repo.save(&snapshot_at(0, vec![]), &opts),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn naive_statevector_cost_reference() {
        assert_eq!(naive_statevector_bytes(10), 16 * 1024);
        assert_eq!(naive_statevector_bytes(20), 16 * 1024 * 1024);
        assert_eq!(naive_statevector_bytes(30), 16 * 1024 * 1024 * 1024);
    }

    fn scratch_root(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "qcheck-repo-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ))
    }

    /// A snapshot with incompressible (pattern-free) parameters so every
    /// save produces many distinct chunks.
    fn bulky_snapshot(step: u64) -> TrainingSnapshot {
        let mut s = TrainingSnapshot::new("bulky");
        s.step = step;
        s.params = (0..8000)
            .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ step) as f64 * 1e-18)
            .collect();
        s
    }

    #[test]
    fn pack_backend_commits_each_save_with_one_rename() {
        let path = scratch_root("pack-renames");
        let repo = CheckpointRepo::open_with(&path, crate::store::StoreKind::Pack).unwrap();
        let r = repo
            .save(&bulky_snapshot(1), &SaveOptions::default())
            .unwrap();
        assert!(
            r.chunks_new > 8,
            "need a multi-chunk save, got {}",
            r.chunks_new
        );
        assert_eq!(r.store_renames, 1, "pack backend: O(1) renames per save");
        // Fully deduplicated save: no pack is created at all.
        let r2 = repo
            .save(&bulky_snapshot(1), &SaveOptions::default())
            .unwrap();
        assert_eq!(r2.chunks_new, 0);
        assert_eq!(r2.store_renames, 0);
        // Everything still loads.
        let (snap, _) = repo.recover().unwrap();
        assert_eq!(snap.step, 1);
        let _ = fs::remove_dir_all(path);
    }

    #[test]
    fn loose_backend_pays_one_rename_per_chunk() {
        let path = scratch_root("loose-renames");
        let repo = CheckpointRepo::open_with(&path, crate::store::StoreKind::Loose).unwrap();
        let r = repo
            .save(&bulky_snapshot(1), &SaveOptions::default())
            .unwrap();
        assert_eq!(r.store_renames, r.chunks_new as u64);
        let _ = fs::remove_dir_all(path);
    }

    #[test]
    fn backend_marker_is_sticky_across_reopen() {
        let path = scratch_root("sticky");
        let repo = CheckpointRepo::open_with(&path, crate::store::StoreKind::Pack).unwrap();
        repo.save(&snapshot_at(1, vec![1.0; 500]), &SaveOptions::default())
            .unwrap();
        drop(repo);
        // Reopen requesting the other layout: the marker must win and the
        // data must remain readable.
        let repo2 = CheckpointRepo::open_with(&path, crate::store::StoreKind::Loose).unwrap();
        assert_eq!(repo2.store_kind(), crate::store::StoreKind::Pack);
        let (snap, _) = repo2.recover().unwrap();
        assert_eq!(snap.step, 1);
        let _ = fs::remove_dir_all(path);
    }

    #[test]
    fn recover_clears_staging_debris() {
        let opts = SaveOptions::default();
        let (_t, repo, _) = one_checkpoint_and_ops_of_the_next(&opts);
        // Half of the save's first write lands: a staged pack, or (chunks
        // on a daemon) a torn log tail.
        save_2_with(&repo, &opts, 1, Fault::Crash { keep_pct: 50 });
        let (snap, report) = repo.recover().unwrap();
        assert_eq!(snap.step, 1);
        assert!(
            report.staging_cleared >= 1,
            "the crash's debris must be garbage collected"
        );
        let leftovers = fs::read_dir(repo.root().join("tmp")).unwrap().count();
        assert_eq!(leftovers, 0);
        let _ = fs::remove_dir_all(repo.root());
    }

    #[test]
    fn recovery_short_circuits_on_a_healthy_repository() {
        let (_t, repo) = TempRepo::new();
        let mut params = vec![0.4f64; 600];
        for step in 1..=5u64 {
            params[step as usize] += 0.01;
            repo.save(&snapshot_at(step, params.clone()), &SaveOptions::default())
                .unwrap();
        }
        let (snap, report) = repo.recover().unwrap();
        assert_eq!(snap.step, 5);
        assert!(report.skipped.is_empty());
        assert_eq!(
            report.manifests_tried, 1,
            "healthy recovery must validate only the newest checkpoint, not walk history"
        );
    }

    /// The selection [`select_payload`] replaced, kept as its reference:
    /// every candidate compressed in full, the shortest output kept — the
    /// full one under the policy codec unless the raw bytes are shorter —
    /// where a delta must also save more than `link_floor` bytes over the
    /// full one. It skips nothing.
    fn select_payload_reference(
        codec: Compression,
        section: &Section,
        base: Option<&Section>,
        delta_block_size: usize,
        link_floor: usize,
    ) -> (PayloadKind, Compression, usize, Vec<u8>) {
        let mut best = (
            PayloadKind::Full,
            codec,
            section.bytes.len(),
            codec.compress(&section.bytes),
        );
        if section.bytes.len() < best.3.len() {
            best.1 = Compression::None;
            best.3 = section.bytes.clone();
        }
        let full_len = best.3.len();
        let pays = |len: usize, best: usize| len < best && len + link_floor < full_len;
        if let Some(base) = base {
            let encoded = BlockPatch::diff_encoded(&base.bytes, &section.bytes, delta_block_size);
            let compressed = codec.compress(&encoded);
            if pays(compressed.len(), best.3.len()) {
                best = (PayloadKind::DeltaPatch, codec, encoded.len(), compressed);
            }
            if base.bytes.len() == section.bytes.len() {
                let xored: Vec<u8> = base
                    .bytes
                    .iter()
                    .zip(&section.bytes)
                    .map(|(a, b)| a ^ b)
                    .collect();
                let compressed = Compression::ZeroElideF64.compress(&xored);
                if pays(compressed.len(), best.3.len()) {
                    best = (
                        PayloadKind::XorBase,
                        Compression::ZeroElideF64,
                        xored.len(),
                        compressed,
                    );
                }
            }
        }
        best
    }

    #[test]
    fn size_first_selection_stores_what_materialising_every_candidate_did() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut snap = snapshot_at(0, (0..6000).map(|_| next()).collect());
        snap.optimizer = StateBlob::new(
            "adam-v1",
            (0..6000).flat_map(|_| next().to_le_bytes()).collect(),
        );
        let opts = SaveOptions::incremental(64);
        let snapshot_bytes =
            |s: &TrainingSnapshot| s.to_sections().iter().map(|s| s.bytes.len()).sum::<usize>();
        // Four saves each of: every parameter moving (a little, then a
        // lot), one 64-parameter block in sixteen moving, and the ledger
        // growing under otherwise still state.
        let mut steps: Vec<TrainingSnapshot> = vec![snap.clone()];
        for step in 1..=12u64 {
            snap.step = step;
            match (step - 1) / 4 {
                0 => {
                    let scale = if step % 2 == 0 { 1.0 } else { 1e-9 };
                    snap.params.iter_mut().for_each(|p| *p += scale * next());
                }
                1 => {
                    for block in snap
                        .params
                        .chunks_mut(64)
                        .skip(step as usize % 16)
                        .step_by(16)
                    {
                        block.iter_mut().for_each(|p| *p = next());
                    }
                }
                _ => snap.shot_ledger.extend((0..300).map(|i| (i + step) as u8)),
            }
            steps.push(snap.clone());
        }
        // Then three saves that move one word of a 2 KiB custom section,
        // each padding the snapshot until its XOR saves one byte less
        // than the link floor, exactly the floor, and one byte more.
        let probe = format!("{CUSTOM_PREFIX}probe");
        snap.custom.insert(
            "probe".into(),
            (0..2048).map(|_| next().to_bits() as u8).collect(),
        );
        let mut floor_cases = Vec::new();
        for (step, margin) in (13u64..).zip([-1isize, 0, 1]) {
            let base = snap.to_sections().into_iter().find(|s| s.name == probe);
            snap.step = step;
            let bytes = snap.custom.get_mut("probe").unwrap();
            bytes[700..708].copy_from_slice(&next().to_le_bytes());
            let section = Section {
                name: probe.clone(),
                bytes: bytes.clone(),
            };
            let (kind, _, _, delta) = select_payload_reference(
                Compression::None,
                &section,
                base.as_ref(),
                opts.delta_block_size,
                0,
            );
            assert_eq!(kind, PayloadKind::XorBase);
            let floor = (section.bytes.len() - delta.len())
                .checked_add_signed(-margin)
                .unwrap();
            snap.custom.insert("pad".into(), Vec::new());
            let unpadded = snapshot_bytes(&snap);
            snap.custom
                .insert("pad".into(), vec![0; floor * LINK_FLOOR_DIVISOR - unpadded]);
            assert_eq!(snapshot_bytes(&snap) / LINK_FLOOR_DIVISOR, floor);
            floor_cases.push(steps.len());
            steps.push(snap.clone());
        }

        let (_t, repo) = TempRepo::new();
        let mut kinds: Vec<PayloadKind> = Vec::new();
        let mut probe_kinds: Vec<PayloadKind> = Vec::new();
        let mut xor_skips = 0;
        let mut base: Option<Vec<Section>> = None;
        for (i, snap) in steps.iter().enumerate() {
            let report = repo.save(snap, &opts).unwrap();
            let manifest = repo.load_manifest(&report.id).unwrap();
            assert_eq!(manifest.is_delta(), base.is_some());
            let sections = snap.to_sections();
            assert_eq!(manifest.sections.len(), sections.len());
            let link_floor = snapshot_bytes(snap) / LINK_FLOOR_DIVISOR;
            for (entry, section) in manifest.sections.iter().zip(&sections) {
                let base_section = base
                    .as_ref()
                    .and_then(|b| b.iter().find(|s| s.name == section.name));
                let (kind, codec, stored_len, compressed) = select_payload_reference(
                    opts.compression.codec_for(&section.name),
                    section,
                    base_section,
                    opts.delta_block_size,
                    link_floor,
                );
                let at = format!("section {} of step {}", section.name, snap.step);
                assert_eq!(entry.payload_kind, kind, "{at}");
                assert_eq!(entry.codec, codec, "{at}");
                assert_eq!(entry.stored_len, stored_len as u64, "{at}");
                let (refs, _) = crate::chunk::chunk_bytes(&compressed, opts.chunk_size);
                assert_eq!(entry.chunks, refs, "{at}");
                if !kinds.contains(&kind) {
                    kinds.push(kind);
                }
                // A patch no larger than one control byte per word: the
                // XOR candidate was never built.
                let same_len = base_section.is_some_and(|b| b.bytes.len() == section.bytes.len());
                if same_len
                    && kind == PayloadKind::DeltaPatch
                    && compressed.len() <= section.bytes.len() / 8
                {
                    xor_skips += 1;
                }
                if floor_cases.contains(&i) && section.name == probe {
                    probe_kinds.push(kind);
                }
            }
            base = Some(sections);
        }
        assert_eq!(
            kinds.len(),
            3,
            "the sequences must reach every payload kind"
        );
        assert_eq!(
            probe_kinds,
            [PayloadKind::Full, PayloadKind::Full, PayloadKind::XorBase],
            "a delta must save more than the floor"
        );
        assert!(xor_skips > 0, "no sparse section skipped its XOR candidate");
        assert_eq!(&repo.load_latest().unwrap().1, steps.last().unwrap());
    }

    #[test]
    fn commit_counters_are_o1_per_save() {
        let (_t, repo) = TempRepo::new();
        let mut opts = SaveOptions::default();
        let r = repo.save(&snapshot_at(1, vec![0.3; 2000]), &opts).unwrap();
        assert_eq!(r.commit_renames, 0, "the log commit path never renames");
        assert_eq!(r.commit_fsyncs, 0, "fsync off: no commit fsyncs");
        opts.fsync = true;
        let r = repo.save(&snapshot_at(2, vec![0.31; 2000]), &opts).unwrap();
        assert_eq!(r.commit_renames, 0);
        assert_eq!(
            r.commit_fsyncs, 2,
            "fsync on: exactly log append + root flip"
        );
        // Ten times the parameters: the commit profile must not grow.
        let r = repo
            .save(&snapshot_at(3, vec![0.32; 20_000]), &opts)
            .unwrap();
        assert_eq!((r.commit_renames, r.commit_fsyncs), (0, 2));
    }
}

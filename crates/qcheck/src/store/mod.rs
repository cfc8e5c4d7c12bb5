//! Pluggable content-addressed object storage.
//!
//! The checkpoint repository stores chunk payloads through the
//! [`ObjectStore`] trait, which abstracts *how* content-addressed objects
//! reach the disk. It is a chunk store: a save puts a batch
//! ([`ObjectStore::put_batch`]), a resume reads through one primitive
//! ([`ObjectStore::get_many`]; `get` is that of one ref), a delta save
//! probes its base through one ([`ObjectStore::contains_all`]; `contains`
//! likewise), and GC sweeps ([`ObjectStore::sweep`]). What only a daemon
//! has — the writer lease and the metadata mirror a fresh directory
//! resumes from — are [`RemoteStore`] methods, which the repository
//! reaches through [`StoreBackend::remote`]. A release build has two
//! backends:
//!
//! * [`PackStore`] — the local layout: one append-only *pack file* per
//!   batch under `packs/`, with an embedded index and a trailing footer. A
//!   whole save's worth of new chunks commits with a single fsync+rename,
//!   so the commit syscall count per checkpoint is O(1) instead of
//!   O(chunks).
//! * [`RemoteStore`] — hands the same calls to a `qckptd` daemon, which
//!   runs one [`PackStore`] per namespace.
//!
//! A third, `LooseStore` (one file per chunk under
//! `objects/<2-hex>/<62-hex>`), is the *reference layout*: compiled only
//! under `cfg(test)` / the `testing` feature, where the
//! backend-equivalence suites hold pack and remote equal to it byte for
//! byte. A release build cannot create or open it — a `STORE` marker
//! reading `loose` is an unrecognised marker there.
//!
//! The local layouts share the crash-safety contract: objects are staged
//! in `tmp/` and published by an atomic rename (`crate::durable`). A crash
//! can leave disposable garbage in `tmp/`, never a half-written object in
//! the published namespace. Garbage collection is mark-and-sweep over
//! manifest-reachable hashes ([`ObjectStore::sweep`]); there is no
//! refcount index to corrupt.
//!
//! Backend selection is per repository and *sticky*: the first open writes
//! a one-line `STORE` marker file naming the backend, and later opens obey
//! the marker regardless of the requested kind — re-pointing a deployment
//! can therefore never strand objects written through the other backend.
//! A fresh repository opened with [`crate::repo::CheckpointRepo::open`] is
//! remote when `QCHECK_REMOTE_ADDR` names a daemon and pack otherwise;
//! [`crate::repo::CheckpointRepo::open_with`] states the kind explicitly.

#[cfg(any(test, feature = "testing"))]
mod loose;
mod pack;

#[cfg(any(test, feature = "testing"))]
pub use loose::LooseStore;
pub use pack::PackStore;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use crate::chunk::ChunkRef;
use crate::error::{Error, Result};
use crate::hash::{ContentHash, Sha256};
use crate::remote::{RemoteEnv, RemoteStore, REMOTE_ADDR_ENV, REMOTE_NS_ENV};

/// Name of the marker file persisting a repository's remote namespace
/// (written on first open of a remote-backed repository when
/// `QCHECK_REMOTE_NS` does not pin one).
pub const REMOTE_NS_MARKER_FILE: &str = "REMOTE_NS";

/// Name of the backend marker file at the repository root.
pub const STORE_MARKER_FILE: &str = "STORE";

/// Result of a garbage-collection sweep. Every backend deletes every
/// unreachable object it holds (the pack backend by deleting or
/// rewriting each pack that holds one), so after a real sweep
/// `deleted` is the store's whole unreachable count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Objects retained because they were reachable.
    pub live: usize,
    /// Objects deleted.
    pub deleted: usize,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
}

/// Aggregate store statistics.
///
/// `total_bytes` counts *logical object payload* bytes — the sum of stored
/// chunk lengths — for every backend, so the number is comparable across
/// layouts (the pack backend additionally spends a per-object index entry
/// and a fixed header/footer on disk).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of stored objects.
    pub object_count: usize,
    /// Total logical payload bytes across stored objects.
    pub total_bytes: u64,
}

/// One chunk handed to [`ObjectStore::put_batch`]: its precomputed content
/// reference plus the payload bytes. The reference is trusted at write
/// time (the save path hashes chunks on the parallel encode pipeline);
/// every read re-verifies length and SHA-256.
#[derive(Clone, Copy, Debug)]
pub struct StagedChunk<'a> {
    /// Content address + exact length of `data`.
    pub reference: ChunkRef,
    /// The chunk payload.
    pub data: &'a [u8],
}

/// Outcome of one [`ObjectStore::put_batch`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchPutReport {
    /// Per input chunk, in order: `true` when the object was physically
    /// written by this call (`false` = dedup hit, including duplicates
    /// *within* the batch).
    pub fresh: Vec<bool>,
    /// Rename syscalls used to commit the batch (the syscall-count proxy
    /// the pack backend optimizes: 1 per batch instead of 1 per chunk).
    pub renames: u64,
    /// `fsync` calls issued while committing the batch.
    pub fsyncs: u64,
}

impl BatchPutReport {
    /// Number of objects physically written.
    pub fn fresh_count(&self) -> usize {
        self.fresh.iter().filter(|f| **f).count()
    }
}

/// A content-addressed object store.
///
/// Writes are idempotent (an object that exists is never rewritten — that
/// is the dedup) and crash-safe (stage then atomic rename). Reads verify
/// length and SHA-256, so corruption is always *detected*, never silently
/// returned.
pub trait ObjectStore: std::fmt::Debug + Send + Sync {
    /// Stores a batch of chunks, committing them together when the layout
    /// allows it. Objects that already exist are not rewritten.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors. No torn object is ever published, but
    /// a failed batch may have published a *prefix* of its objects
    /// (reference loose layout; the pack backend is all-or-nothing):
    /// those are content-addressed orphans, invisible until a manifest
    /// references them and reclaimed by the next sweep.
    fn put_batch(&self, chunks: &[StagedChunk<'_>], fsync: bool) -> Result<BatchPutReport>;

    /// Fetches and verifies many chunks, in input order — the one read
    /// primitive. The remote backend sends one `Fetch` frame per ≤ 4 MiB
    /// of named payload (each answered by the daemon's own `get_many`);
    /// the pack backend reads each contiguous same-pack run with one
    /// positioned read and resolves the batch against at most one index
    /// rescan (see [`ObjectStore::begin_read_pass`]).
    ///
    /// # Errors
    ///
    /// Fails on the first bad chunk: [`Error::NotFound`] when absent;
    /// [`Error::Corrupt`] when the stored bytes do not match the
    /// reference (bit rot, truncation).
    fn get_many(&self, refs: &[ChunkRef]) -> Result<Vec<Vec<u8>>>;

    /// Fetches and verifies one chunk: [`ObjectStore::get_many`] of one.
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::get_many`].
    fn get(&self, reference: &ChunkRef) -> Result<Vec<u8>> {
        let mut chunks = self.get_many(std::slice::from_ref(reference))?;
        Ok(chunks.remove(0))
    }

    /// Marks the start of a bounded read pass (e.g. one recovery walk).
    /// Within a pass the backend may cap cache-refill work — the pack
    /// backend rescans `packs/` at most once per pass instead of once
    /// per index miss. Passes nest; no-op by default.
    fn begin_read_pass(&self) {}

    /// Ends a read pass started by [`ObjectStore::begin_read_pass`].
    fn end_read_pass(&self) {}

    /// Whether *every* hash exists — the one existence probe. The pack
    /// backend stats each distinct pack once instead of once per chunk
    /// (this sits on the per-save delta path); the remote backend asks
    /// in one `Contains` frame.
    fn contains_all(&self, hashes: &[ContentHash]) -> bool;

    /// Whether an object with this address exists:
    /// [`ObjectStore::contains_all`] of one.
    fn contains(&self, hash: &ContentHash) -> bool {
        self.contains_all(std::slice::from_ref(hash))
    }

    /// Enumerates all stored object hashes, ascending.
    ///
    /// # Errors
    ///
    /// Fails on directory-walk errors.
    fn list(&self) -> Result<Vec<ContentHash>>;

    /// Mark-and-sweep garbage collection: deletes every object whose hash
    /// is not in `reachable`, and clears stale staging files. With
    /// `dry_run` nothing is deleted or rewritten and the report is the
    /// one a sweep against `reachable` would produce *right now*
    /// (`qckpt stats` previews a `gc` this way, read-only).
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors; a partially completed sweep is safe
    /// (reachable objects are never deleted).
    fn sweep(&self, reachable: &BTreeSet<ContentHash>, dry_run: bool) -> Result<GcReport>;

    /// Object count and total logical bytes. Maintained incrementally by
    /// this handle's writes and sweeps — no full directory re-walk per
    /// call once warmed up.
    ///
    /// # Errors
    ///
    /// Fails on directory-walk errors (first, cache-seeding call only for
    /// the reference loose layout).
    fn stats(&self) -> Result<StoreStats>;

    /// Removes orphaned staging files left behind by crashed writers.
    /// Returns the number of files removed. Safe by construction: `tmp/`
    /// contents are disposable at every point of the commit protocol.
    ///
    /// # Errors
    ///
    /// Fails on directory errors other than absence.
    fn clear_staging(&self) -> Result<usize>;

    // The daemon's writer lease and the rest of its metadata mirror are
    // `RemoteStore` methods, reached through `StoreBackend::remote`.

    /// Whether this store is shared across working directories (the
    /// remote daemon, which mirrors repository metadata). Local
    /// backends: `false`. On the trait only because the benchmark's
    /// staged save replay (`benchmark/src/stages.rs`) calls it through
    /// `StoreBackend`; ROADMAP item 1 retires that caller.
    fn is_shared(&self) -> bool {
        false
    }

    /// Publishes a named metadata blob on a shared store; no-op for
    /// local backends. On the trait only for the same caller as
    /// [`ObjectStore::is_shared`].
    ///
    /// # Errors
    ///
    /// Shared backends fail on transport or server errors.
    fn meta_put(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let _ = (name, bytes);
        Ok(())
    }

    /// Stores one chunk. Convenience wrapper over [`ObjectStore::put_batch`]
    /// returning the reference and whether a new object was physically
    /// written (`false` = dedup hit).
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::put_batch`].
    fn put(&self, data: &[u8]) -> Result<(ChunkRef, bool)> {
        let reference = ChunkRef {
            hash: Sha256::digest(data),
            len: data.len() as u32,
        };
        let report = self.put_batch(&[StagedChunk { reference, data }], false)?;
        Ok((reference, report.fresh[0]))
    }

    /// Deliberately corrupts a stored object (failure-injection support):
    /// flips one byte at `offset % len`. Test-only API, compiled in only
    /// for `cfg(test)` builds or with the `testing` feature.
    ///
    /// # Errors
    ///
    /// Fails when the object is missing or empty.
    #[cfg(any(test, feature = "testing"))]
    fn corrupt_object(&self, hash: &ContentHash, offset: usize) -> Result<()>;
}

/// Which [`ObjectStore`] backend a repository uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreKind {
    /// One file per chunk (`objects/`): `LooseStore`, the reference
    /// layout of the equivalence suites. Test builds only.
    #[cfg(any(test, feature = "testing"))]
    Loose,
    /// Batched pack files (`packs/`): [`PackStore`] — the local layout,
    /// here and in the daemon.
    #[default]
    Pack,
    /// A `qckptd` daemon over TCP: [`RemoteStore`]
    /// (`QCHECK_REMOTE_ADDR` names the daemon).
    Remote,
}

impl StoreKind {
    /// Stable name, as written to the `STORE` marker.
    pub fn as_str(&self) -> &'static str {
        match self {
            #[cfg(any(test, feature = "testing"))]
            StoreKind::Loose => "loose",
            StoreKind::Pack => "pack",
            StoreKind::Remote => "remote",
        }
    }

    /// Parses a backend name.
    pub fn parse(s: &str) -> Option<StoreKind> {
        match s.trim() {
            #[cfg(any(test, feature = "testing"))]
            "loose" => Some(StoreKind::Loose),
            "pack" => Some(StoreKind::Pack),
            "remote" => Some(StoreKind::Remote),
            _ => None,
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Runtime-selected backend: the default store type of
/// [`crate::repo::CheckpointRepo`]. Enum dispatch keeps the hot paths
/// monomorphic (no vtable) while still letting the backend be chosen per
/// repository at open time.
#[derive(Debug)]
pub enum StoreBackend {
    /// One file per chunk (reference layout, test builds only).
    #[cfg(any(test, feature = "testing"))]
    Loose(LooseStore),
    /// Batched pack files.
    Pack(PackStore),
    /// A `qckptd` daemon over TCP.
    Remote(RemoteStore),
}

impl StoreBackend {
    /// The remote client, when this backend is
    /// [`StoreBackend::Remote`] — the hook for protocol-level
    /// inspection (round-trip counters, daemon status).
    pub fn remote(&self) -> Option<&RemoteStore> {
        match self {
            StoreBackend::Remote(r) => Some(r),
            _ => None,
        }
    }

    /// The pack store, when this backend is [`StoreBackend::Pack`] —
    /// the hook for layout-level inspection (index rescan counter).
    pub fn pack(&self) -> Option<&PackStore> {
        match self {
            StoreBackend::Pack(p) => Some(p),
            _ => None,
        }
    }

    /// Opens the given backend under `root` (no marker handling). The
    /// remote backend takes its daemon address and namespace from
    /// [`RemoteEnv::read`]: `QCHECK_REMOTE_ADDR`, and `QCHECK_REMOTE_NS`,
    /// else a `REMOTE_NS` marker under `root`, else (first open) a freshly
    /// generated name persisted to that marker.
    ///
    /// # Errors
    ///
    /// Fails if directories cannot be created, `QCHECK_REMOTE_ADDR` is
    /// missing for the remote backend, or the daemon is unreachable.
    pub fn open(root: &Path, kind: StoreKind) -> Result<Self> {
        Ok(match kind {
            #[cfg(any(test, feature = "testing"))]
            StoreKind::Loose => StoreBackend::Loose(LooseStore::open(root)?),
            StoreKind::Pack => StoreBackend::Pack(PackStore::open(root)?),
            StoreKind::Remote => {
                let env = RemoteEnv::read();
                let addr = env.addr.ok_or_else(|| {
                    Error::InvalidConfig(format!(
                        "a remote repository requires {REMOTE_ADDR_ENV}=host:port"
                    ))
                })?;
                let namespace = resolve_remote_namespace(root, env.namespace)?;
                StoreBackend::Remote(RemoteStore::connect_opts(addr, namespace, env.token)?)
            }
        })
    }

    /// Opens a backend under `root`, honoring the sticky `STORE` marker:
    /// an existing marker wins over `requested` (a repository never
    /// changes backend mid-life); otherwise `requested` is used and
    /// recorded in the marker.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors, or with [`Error::Corrupt`] — before
    /// anything is written — on a marker this build does not recognize.
    pub fn open_sticky(root: &Path, requested: StoreKind) -> Result<Self> {
        let marker = root.join(STORE_MARKER_FILE);
        let kind = match fs::read_to_string(&marker) {
            Ok(s) => StoreKind::parse(&s).ok_or_else(|| {
                Error::corrupt(
                    format!("store marker {}", marker.display()),
                    format!("unrecognized backend {:?}", s.trim()),
                )
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                publish_marker(root, STORE_MARKER_FILE, requested.as_str(), false)?;
                requested
            }
            Err(e) => return Err(Error::io(format!("reading {}", marker.display()), e)),
        };
        StoreBackend::open(root, kind)
    }

    /// Which layout this backend uses.
    pub fn kind(&self) -> StoreKind {
        match self {
            #[cfg(any(test, feature = "testing"))]
            StoreBackend::Loose(_) => StoreKind::Loose,
            StoreBackend::Pack(_) => StoreKind::Pack,
            StoreBackend::Remote(_) => StoreKind::Remote,
        }
    }
}

/// Shared chunk verification: exact length, then SHA-256. Used by every
/// backend — including the remote client, which re-verifies after the
/// wire so corruption anywhere between disk and socket is detected.
pub(crate) fn verify_chunk(reference: &ChunkRef, data: &[u8]) -> Result<()> {
    if data.len() != reference.len as usize {
        return Err(Error::corrupt(
            format!("chunk {}", reference.hash),
            format!("length {} != expected {}", data.len(), reference.len),
        ));
    }
    let actual = Sha256::digest(data);
    if actual != reference.hash {
        return Err(Error::corrupt(
            format!("chunk {}", reference.hash),
            format!("content hash mismatch (got {actual})"),
        ));
    }
    Ok(())
}

/// Resolves the remote namespace for a repository at `root`: `pinned`
/// (`QCHECK_REMOTE_NS`) wins, then the repository's `REMOTE_NS` marker,
/// else a fresh random name is generated and persisted to the marker so
/// every later open of this directory lands in the same namespace.
fn resolve_remote_namespace(root: &Path, pinned: Option<String>) -> Result<String> {
    if let Some(ns) = pinned {
        if !crate::remote::proto::valid_namespace(&ns) {
            return Err(Error::InvalidConfig(format!(
                "{REMOTE_NS_ENV}={ns:?} is not a valid namespace"
            )));
        }
        return Ok(ns);
    }
    let marker = root.join(REMOTE_NS_MARKER_FILE);
    match fs::read_to_string(&marker) {
        Ok(s) => {
            let ns = s.trim().to_string();
            if crate::remote::proto::valid_namespace(&ns) {
                Ok(ns)
            } else {
                Err(Error::corrupt(
                    format!("namespace marker {}", marker.display()),
                    format!("invalid namespace {ns:?}"),
                ))
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // No shared randomness source in the dependency budget:
            // hash process identity + wall clock + a counter. Collision
            // would require two generators with identical pid, nanos
            // and counter — and even then namespaces only share, never
            // corrupt (content addressing keeps objects consistent).
            static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0);
            let mut h = Sha256::new();
            h.update(&(std::process::id() as u64).to_le_bytes());
            h.update(&nanos.to_le_bytes());
            h.update(
                &SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                    .to_le_bytes(),
            );
            let ns = format!("auto-{}", &h.finalize().to_hex()[..16]);
            // Flushed: lost, it would restart the run in a new namespace.
            publish_marker(root, REMOTE_NS_MARKER_FILE, &ns, true)?;
            Ok(ns)
        }
        Err(e) => Err(Error::io(format!("reading {}", marker.display()), e)),
    }
}

/// Publishes the one-line marker `name` under `root`, staged in `root/tmp/`
/// (which recovery clears), so a torn marker is never read.
fn publish_marker(root: &Path, name: &str, value: &str, fsync: bool) -> Result<()> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp_dir = root.join("tmp");
    fs::create_dir_all(&tmp_dir)
        .map_err(|e| Error::io(format!("creating {}", tmp_dir.display()), e))?;
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = tmp_dir.join(format!("{name}-{}-{seq}", std::process::id()));
    let line = format!("{value}\n");
    crate::durable::publish(&tmp, &root.join(name), line.as_bytes(), fsync)
}

macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            #[cfg(any(test, feature = "testing"))]
            StoreBackend::Loose($inner) => $body,
            StoreBackend::Pack($inner) => $body,
            StoreBackend::Remote($inner) => $body,
        }
    };
}

impl ObjectStore for StoreBackend {
    fn put_batch(&self, chunks: &[StagedChunk<'_>], fsync: bool) -> Result<BatchPutReport> {
        delegate!(self, s => s.put_batch(chunks, fsync))
    }

    fn get_many(&self, refs: &[ChunkRef]) -> Result<Vec<Vec<u8>>> {
        delegate!(self, s => s.get_many(refs))
    }

    fn begin_read_pass(&self) {
        delegate!(self, s => s.begin_read_pass())
    }

    fn end_read_pass(&self) {
        delegate!(self, s => s.end_read_pass())
    }

    fn contains_all(&self, hashes: &[ContentHash]) -> bool {
        delegate!(self, s => s.contains_all(hashes))
    }

    fn list(&self) -> Result<Vec<ContentHash>> {
        delegate!(self, s => s.list())
    }

    fn sweep(&self, reachable: &BTreeSet<ContentHash>, dry_run: bool) -> Result<GcReport> {
        delegate!(self, s => s.sweep(reachable, dry_run))
    }

    fn stats(&self) -> Result<StoreStats> {
        delegate!(self, s => s.stats())
    }

    fn clear_staging(&self) -> Result<usize> {
        delegate!(self, s => s.clear_staging())
    }

    fn is_shared(&self) -> bool {
        delegate!(self, s => s.is_shared())
    }

    fn meta_put(&self, name: &str, bytes: &[u8]) -> Result<()> {
        delegate!(self, s => s.meta_put(name, bytes))
    }

    #[cfg(any(test, feature = "testing"))]
    fn corrupt_object(&self, hash: &ContentHash, offset: usize) -> Result<()> {
        delegate!(self, s => s.corrupt_object(hash, offset))
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Minimal temp-dir helper shared by the backend test modules
    //! (std-only; removed on drop).

    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct TempDir(PathBuf);

    impl TempDir {
        pub fn new() -> Self {
            let path = std::env::temp_dir().join(format!(
                "qcheck-store-test-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_kind_parse_round_trip() {
        for kind in [StoreKind::Loose, StoreKind::Pack, StoreKind::Remote] {
            assert_eq!(StoreKind::parse(kind.as_str()), Some(kind));
            assert_eq!(
                StoreKind::parse(&format!(" {}\n", kind.as_str())),
                Some(kind)
            );
        }
        assert_eq!(StoreKind::parse("packed"), None);
        assert_eq!(StoreKind::default(), StoreKind::Pack);
    }

    #[test]
    fn sticky_marker_wins_over_request() {
        let dir = testutil::TempDir::new();
        let first = StoreBackend::open_sticky(dir.path(), StoreKind::Pack).unwrap();
        assert_eq!(first.kind(), StoreKind::Pack);
        // Second open requests loose; the marker must win.
        let second = StoreBackend::open_sticky(dir.path(), StoreKind::Loose).unwrap();
        assert_eq!(second.kind(), StoreKind::Pack);
    }

    #[test]
    fn garbage_marker_is_rejected() {
        let dir = testutil::TempDir::new();
        std::fs::write(dir.path().join(STORE_MARKER_FILE), "sharded\n").unwrap();
        let listing = |dir: &Path| -> Vec<std::ffi::OsString> {
            let mut names: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = listing(dir.path());
        assert!(matches!(
            StoreBackend::open_sticky(dir.path(), StoreKind::Pack),
            Err(Error::Corrupt { .. })
        ));
        assert_eq!(
            listing(dir.path()),
            before,
            "a refused marker must leave the directory as it was found"
        );
        assert_eq!(
            std::fs::read_to_string(dir.path().join(STORE_MARKER_FILE)).unwrap(),
            "sharded\n"
        );
    }

    #[test]
    fn backends_are_read_compatible_on_their_own_layout() {
        for kind in [StoreKind::Loose, StoreKind::Pack] {
            let dir = testutil::TempDir::new();
            let store = StoreBackend::open_sticky(dir.path(), kind).unwrap();
            let (r, fresh) = store.put(b"cross-backend payload").unwrap();
            assert!(fresh);
            let reopened = StoreBackend::open_sticky(dir.path(), kind).unwrap();
            assert_eq!(reopened.get(&r).unwrap(), b"cross-backend payload");
        }
    }
}

//! Packed object layout: one append-only pack file per batch.
//!
//! A training loop saving a checkpoint writes tens to hundreds of new
//! chunks. The loose layout pays one stage-file create plus one rename per
//! chunk; on fsync-heavy configurations it also pays one fsync per chunk.
//! The pack layout writes the whole batch into a single *pack file* —
//! payload blobs followed by an embedded index — staged in `tmp/` and
//! published with one optional fsync and exactly one rename. The commit
//! syscall count per save is O(1) in the number of chunks.
//!
//! ## On-disk format (pack v3)
//!
//! ```text
//! packs/pack-<64-hex>.qpk        (hex = SHA-256 of the index region)
//!
//! offset 0   magic   "QPACK\0"          6 bytes
//!        6   version u32 le (= 3)       4 bytes
//!       10   blob payloads, concatenated
//!  index at  entries: count × (hash 32 | offset u64 le | len u32 le)
//!  footer    index_offset u64 le | count u32 le | crc32(index) u32 le
//!            | tail magic "QPAKEND\0"   = 24 bytes
//! ```
//!
//! The index lists every blob's content address, offset and length, and
//! the header and footer follow from it, so its digest names the whole
//! file — from 44 bytes per chunk instead of a pass over the payload.
//! Names written by earlier versions digest the whole file; no reader
//! checks a name (every chunk read is verified against its content
//! address instead), so both kinds sit side by side.
//!
//! Readers locate the index from the fixed-size footer, so opening a pack
//! costs two small reads regardless of payload size. A torn or truncated
//! pack fails the footer/CRC checks and is ignored wholesale — exactly the
//! crash semantics of a loose store whose staged objects never got
//! renamed. Packs are immutable once published; garbage collection has
//! one rule: a pack with no live object is deleted, a fully live pack is
//! left untouched, and every other pack — one dead object is enough — is
//! rewritten with only its live objects (stage + rename again).
//!
//! ## Pack-index cache and the read path
//!
//! A handle keeps every pack's index in memory (`hash → pack/offset/len`,
//! 44 bytes per object on disk, comparable in memory) in a hash map, so
//! opening a store costs one hash insert per stored object and a lookup is
//! O(1). The map is unordered: `list` sorts its output, and a GC rewrite
//! sorts a pack's live objects by hash, so equal live sets give equal pack
//! bytes and names. Its hasher is std's keyed default, never an unkeyed
//! hash of the address bytes: the daemon indexes addresses its clients
//! pick by picking content, and an unkeyed table would let a client grind
//! colliding buckets.
//!
//! Lookups never touch the directory; a miss triggers a cheap rescan of
//! `packs/` so that packs published by other handles (e.g. a background
//! writer on the same repository) become visible without reopening.
//! Within a *read pass* ([`ObjectStore::begin_read_pass`], e.g. one
//! recovery walk; every `get_many` is one) that miss-triggered rescan
//! fires at most once — a recovery walking a partially-damaged history
//! would otherwise rescan `packs/` on every missing chunk, which made pack
//! recovery slower than loose. The [`PackStore::index_rescans`] counter
//! makes the bound testable.
//!
//! There is one read path, `get_many`'s: the refs resolve under one index
//! lock into runs of objects that sit back to back in one pack, and each
//! run is one positioned read, every chunk verified against its content
//! address. A pack deleted between lookup and open (another handle's sweep
//! rewrote it) resyncs the index and re-plans the refs not yet read.

use std::collections::{hash_map, BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::chunk::ChunkRef;
use crate::durable;
use crate::error::{Error, Result};
use crate::hash::{crc32, ContentHash, Sha256};
use crate::sync::lock_recover;

use super::{verify_chunk, BatchPutReport, GcReport, ObjectStore, StagedChunk, StoreStats};

/// Magic bytes opening every pack file.
const PACK_MAGIC: &[u8; 6] = b"QPACK\0";
/// Pack format version (the repository's third on-disk object format,
/// after loose v1 flat and loose v2 fan-out).
const PACK_VERSION: u32 = 3;
/// Tail magic closing every pack file.
const PACK_TAIL: &[u8; 8] = b"QPAKEND\0";
/// Header length: magic + version.
const HEADER_LEN: u64 = 10;
/// Index entry length: hash + offset + len.
const ENTRY_LEN: usize = 44;
/// Footer length: index offset + count + index CRC + tail magic.
const FOOTER_LEN: u64 = 24;

/// Where one object lives: pack slot + absolute file offset + length.
#[derive(Clone, Copy, Debug)]
struct ObjLoc {
    pack: u32,
    offset: u64,
    len: u32,
}

/// In-memory pack-index cache (shared across clones of the handle).
#[derive(Debug, Default)]
struct PackIndex {
    /// Slot → pack file name; `None` marks a deleted pack.
    packs: Vec<Option<String>>,
    /// Pack file name → slot.
    by_name: BTreeMap<String, u32>,
    /// Object hash → location; unordered, keyed hasher (module doc).
    objects: HashMap<ContentHash, ObjLoc>,
    /// Incrementally maintained aggregate statistics.
    stats: StoreStats,
}

impl PackIndex {
    fn insert_pack(&mut self, name: String, entries: Vec<(ContentHash, u64, u32)>) {
        let slot = match self.by_name.get(&name) {
            Some(slot) => *slot,
            None => {
                let slot = self.packs.len() as u32;
                self.packs.push(Some(name.clone()));
                self.by_name.insert(name, slot);
                slot
            }
        };
        for (hash, offset, len) in entries {
            // Content addressing makes duplicates across packs identical;
            // first location wins so stats count each object once.
            if let hash_map::Entry::Vacant(e) = self.objects.entry(hash) {
                e.insert(ObjLoc {
                    pack: slot,
                    offset,
                    len,
                });
                self.stats.object_count += 1;
                self.stats.total_bytes += len as u64;
            }
        }
    }

    /// Drops a pack whose object hashes are unknown (externally deleted
    /// pack discovered by `refresh`): scans the whole index once.
    fn remove_pack(&mut self, slot: u32) {
        let doomed: Vec<ContentHash> = self
            .objects
            .iter()
            .filter(|(_, loc)| loc.pack == slot)
            .map(|(h, _)| *h)
            .collect();
        self.remove_pack_entries(slot, &doomed);
    }

    /// Drops a pack given its object hashes (the sweep path, which has
    /// them grouped already) — proportional to the pack's own entry
    /// count, not the whole index.
    fn remove_pack_entries(&mut self, slot: u32, hashes: &[ContentHash]) {
        if let Some(name) = self.packs[slot as usize].take() {
            self.by_name.remove(&name);
        }
        for hash in hashes {
            // Only remove entries that still point at this pack: a hash
            // can have been re-homed by a later insert.
            if let Some(loc) = self.objects.get(hash) {
                if loc.pack != slot {
                    continue;
                }
                let len = loc.len;
                self.objects.remove(hash);
                self.stats.object_count -= 1;
                self.stats.total_bytes -= len as u64;
            }
        }
    }
}

/// Read-pass bookkeeping shared across clones of a handle: pass nesting
/// depth and whether the one allowed miss-rescan of this pass has fired.
#[derive(Debug, Default)]
struct PassState {
    depth: std::sync::atomic::AtomicUsize,
    refreshed: std::sync::atomic::AtomicBool,
}

/// MRU pack-descriptor cache slot: `(pack file name, open descriptor)`.
type MruPack = Option<(String, Arc<fs::File>)>;

/// Objects that sit back to back in one pack: read with one `pread`.
struct Run {
    pack: u32,
    name: String,
    offset: u64,
    /// Total bytes, and the length of each object in order.
    len: usize,
    lens: Vec<usize>,
}

fn not_found(reference: &ChunkRef) -> Error {
    Error::NotFound {
        what: format!("chunk {}", reference.hash),
    }
}

/// Handle to an on-disk packed object store rooted at `packs/` + `tmp/`.
#[derive(Debug, Clone)]
pub struct PackStore {
    packs_dir: PathBuf,
    tmp_dir: PathBuf,
    index: Arc<Mutex<PackIndex>>,
    /// Read-pass gate for miss-triggered index rescans.
    pass: Arc<PassState>,
    /// Lifetime count of `packs/` directory rescans (the recovery-path
    /// cost the read-pass gate bounds; asserted by regression tests).
    rescans: Arc<std::sync::atomic::AtomicU64>,
    /// Most-recently-read pack's open file, so a recovery walk reading
    /// hundreds of chunks out of one pack pays one `open`, not one per
    /// chunk. Packs are immutable and content-named, so a cached
    /// descriptor can never serve stale bytes.
    mru_pack: Arc<Mutex<MruPack>>,
}

impl PackStore {
    /// Opens (creating if necessary) a pack store under `root`, loading
    /// the index of every existing pack.
    ///
    /// # Errors
    ///
    /// Fails if directories cannot be created or listed. Individually
    /// damaged pack files are skipped (their objects read as missing),
    /// matching the "detect and fall back" recovery contract.
    pub fn open(root: &Path) -> Result<Self> {
        let packs_dir = root.join("packs");
        let tmp_dir = root.join("tmp");
        fs::create_dir_all(&packs_dir)
            .map_err(|e| Error::io(format!("creating {}", packs_dir.display()), e))?;
        fs::create_dir_all(&tmp_dir)
            .map_err(|e| Error::io(format!("creating {}", tmp_dir.display()), e))?;
        let store = PackStore {
            packs_dir,
            tmp_dir,
            index: Arc::new(Mutex::new(PackIndex::default())),
            pass: Arc::new(PassState::default()),
            rescans: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            mru_pack: Arc::new(Mutex::new(None)),
        };
        store.refresh(&mut store.lock())?;
        Ok(store)
    }

    /// The index lock. A holder that panicked may have left the index
    /// half-updated (a pack registered, its objects not), so it is emptied
    /// and rebuilt from `packs/`, which is what it caches. If the listing
    /// fails it stays empty and the next miss surfaces the error.
    fn lock(&self) -> MutexGuard<'_, PackIndex> {
        lock_recover(&self.index, |index| {
            *index = PackIndex::default();
            let _ = self.refresh(index);
        })
    }

    /// The MRU-descriptor lock; after a holder's panic the handle is
    /// dropped and the next read reopens its pack.
    fn lock_mru(&self) -> MutexGuard<'_, MruPack> {
        lock_recover(&self.mru_pack, |mru| *mru = None)
    }

    fn pack_path(&self, name: &str) -> PathBuf {
        self.packs_dir.join(name)
    }

    /// Lifetime count of `packs/` directory rescans performed by this
    /// handle (and its clones). During a bracketed read pass the
    /// miss-triggered rescan fires at most once, so e.g. one `recover()`
    /// walk increments this by at most 1 regardless of how many chunks
    /// miss — the regression guard for the slow-pack-recovery bug.
    pub fn index_rescans(&self) -> u64 {
        self.rescans.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Miss-path rescan, bounded inside a read pass: the first miss of a
    /// pass refreshes, later misses are genuine absences (a writer
    /// cannot be publishing packs while recovery holds the repo lock).
    fn refresh_on_miss(&self, index: &mut PackIndex) -> Result<()> {
        use std::sync::atomic::Ordering;
        if self.pass.depth.load(Ordering::Relaxed) > 0
            && self.pass.refreshed.swap(true, Ordering::Relaxed)
        {
            return Ok(());
        }
        self.refresh(index)
    }

    /// Re-syncs the index with the `packs/` directory: loads packs that
    /// appeared (another handle committed) and drops packs that vanished
    /// (another handle swept).
    fn refresh(&self, index: &mut PackIndex) -> Result<()> {
        self.rescans
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let entries = fs::read_dir(&self.packs_dir)
            .map_err(|e| Error::io(format!("listing {}", self.packs_dir.display()), e))?;
        let mut on_disk: BTreeSet<String> = BTreeSet::new();
        for entry in entries {
            let entry = entry.map_err(|e| Error::io("walking packs", e))?;
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with("pack-") && name.ends_with(".qpk") {
                on_disk.insert(name);
            }
        }
        let known: BTreeSet<String> = index.by_name.keys().cloned().collect();
        for gone in known.difference(&on_disk) {
            let slot = index.by_name[gone];
            index.remove_pack(slot);
        }
        // A pack that fails its frame checks is skipped, not fatal: its
        // objects simply read as missing and recovery falls back.
        let loaded: Vec<_> = on_disk
            .difference(&known)
            .filter_map(|fresh| {
                let entries = read_pack_index(&self.pack_path(fresh)).ok()?;
                Some((fresh.clone(), entries))
            })
            .collect();
        // Grow the table once, not once per pack; packs still load in
        // name order, so the first location of a duplicate still wins.
        index
            .objects
            .reserve(loaded.iter().map(|(_, entries)| entries.len()).sum());
        for (name, entries) in loaded {
            index.insert_pack(name, entries);
        }
        Ok(())
    }

    /// Opens pack `name`, serving consecutive reads of the same pack
    /// through one descriptor (packs are immutable, so the cache cannot go
    /// stale — at worst the file was unlinked, which a held fd survives
    /// anyway).
    fn open_pack(&self, name: &str) -> std::io::Result<Arc<fs::File>> {
        let cached = {
            let mru = self.lock_mru();
            mru.as_ref()
                .filter(|(n, _)| n == name)
                .map(|(_, f)| Arc::clone(f))
        };
        if let Some(f) = cached {
            return Ok(f);
        }
        let f = Arc::new(fs::File::open(self.pack_path(name))?);
        *self.lock_mru() = Some((name.to_string(), Arc::clone(&f)));
        Ok(f)
    }

    /// Resolves `refs` under one index lock into contiguous same-pack
    /// runs. A miss rescans `packs/` through [`Self::refresh_on_miss`]
    /// (at most once per read pass); a ref still missing after it is
    /// [`Error::NotFound`].
    fn plan_runs(&self, refs: &[ChunkRef]) -> Result<Vec<Run>> {
        let mut index = self.lock();
        let mut runs: Vec<Run> = Vec::new();
        for reference in refs {
            let loc = match index.objects.get(&reference.hash) {
                Some(loc) => *loc,
                None => {
                    self.refresh_on_miss(&mut index)?;
                    *index
                        .objects
                        .get(&reference.hash)
                        .ok_or_else(|| not_found(reference))?
                }
            };
            match runs.last_mut() {
                Some(run) if run.pack == loc.pack && run.offset + run.len as u64 == loc.offset => {
                    run.len += loc.len as usize;
                    run.lens.push(loc.len as usize);
                }
                _ => runs.push(Run {
                    pack: loc.pack,
                    name: index.packs[loc.pack as usize]
                        .clone()
                        .expect("live object points at live pack"),
                    offset: loc.offset,
                    len: loc.len as usize,
                    lens: vec![loc.len as usize],
                }),
            }
        }
        Ok(runs)
    }

    /// The read path of [`ObjectStore::get_many`]: one positioned read per
    /// contiguous same-pack run (a save's chunks sit back to back in its
    /// pack, so a section of a delta link is one read, not one per chunk),
    /// every chunk verified against its content address. A pack that
    /// vanished between lookup and open (another handle's sweep rewrote
    /// it) resyncs the index and re-plans the refs not yet read; vanishing
    /// again before any of them was read makes the next one
    /// [`Error::NotFound`].
    fn read_runs(&self, refs: &[ChunkRef]) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(refs.len());
        let mut buf = Vec::new();
        let mut resynced_at = None;
        'plan: while out.len() < refs.len() {
            for run in self.plan_runs(&refs[out.len()..])? {
                let path = self.pack_path(&run.name);
                let f = match self.open_pack(&run.name) {
                    Ok(f) => f,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        if resynced_at == Some(out.len()) {
                            return Err(not_found(&refs[out.len()]));
                        }
                        resynced_at = Some(out.len());
                        self.refresh(&mut self.lock())?;
                        continue 'plan;
                    }
                    Err(e) => return Err(Error::io(format!("opening {}", path.display()), e)),
                };
                buf.resize(run.len, 0);
                read_exact_at(&f, &mut buf, run.offset)
                    .map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
                crate::obs::PACK_PREADS.inc();
                let mut rest = buf.as_slice();
                for len in run.lens {
                    let (chunk, tail) = rest.split_at(len);
                    rest = tail;
                    verify_chunk(&refs[out.len()], chunk)?;
                    out.push(chunk.to_vec());
                }
            }
        }
        Ok(out)
    }

    /// Serializes, stages and atomically publishes one pack holding
    /// `blobs` (hash + payload per object). Returns the pack name.
    fn write_pack(&self, blobs: &[(ContentHash, &[u8])], fsync: bool) -> Result<String> {
        let payload_len: usize = blobs.iter().map(|(_, b)| b.len()).sum();
        let mut bytes =
            Vec::with_capacity(HEADER_LEN as usize + payload_len + blobs.len() * ENTRY_LEN + 32);
        bytes.extend_from_slice(PACK_MAGIC);
        bytes.extend_from_slice(&PACK_VERSION.to_le_bytes());
        let mut offsets = Vec::with_capacity(blobs.len());
        for (_, blob) in blobs {
            offsets.push(bytes.len() as u64);
            bytes.extend_from_slice(blob);
        }
        let index_offset = bytes.len() as u64;
        let mut index_bytes = Vec::with_capacity(blobs.len() * ENTRY_LEN);
        for ((hash, blob), offset) in blobs.iter().zip(&offsets) {
            index_bytes.extend_from_slice(&hash.0);
            index_bytes.extend_from_slice(&offset.to_le_bytes());
            index_bytes.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        }
        let index_crc = crc32(&index_bytes);
        bytes.extend_from_slice(&index_bytes);
        bytes.extend_from_slice(&index_offset.to_le_bytes());
        bytes.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&index_crc.to_le_bytes());
        bytes.extend_from_slice(PACK_TAIL);

        // The index determines the whole file (see the module doc), so it
        // names it without a pass over the payload.
        let name = format!("pack-{}.qpk", Sha256::digest(&index_bytes).to_hex());
        let target = self.pack_path(&name);
        if target.is_file() {
            // Identical pack already published (same content committed by
            // another handle): publishing again would be a no-op.
            return Ok(name);
        }
        let tmp = self.tmp_dir.join(format!(
            "pack-{}-{}",
            std::process::id(),
            crc32(name.as_bytes())
        ));
        durable::publish(&tmp, &target, &bytes, fsync)?;
        Ok(name)
    }
}

impl ObjectStore for PackStore {
    fn put_batch(&self, chunks: &[StagedChunk<'_>], fsync: bool) -> Result<BatchPutReport> {
        let mut report = BatchPutReport {
            fresh: Vec::with_capacity(chunks.len()),
            ..BatchPutReport::default()
        };
        let mut index = self.lock();
        // Distrust stale dedup hits: another handle's sweep may have
        // deleted a pack this index still references. Stat each distinct
        // pack a hit points at (once per batch); any missing pack forces
        // a resync, after which its objects correctly read as absent and
        // get rewritten — silently "deduping" against a deleted pack
        // would commit a manifest referencing a hole.
        {
            let mut checked: BTreeSet<u32> = BTreeSet::new();
            let mut stale = false;
            for chunk in chunks {
                if let Some(loc) = index.objects.get(&chunk.reference.hash) {
                    if checked.insert(loc.pack) {
                        let name = index.packs[loc.pack as usize]
                            .as_ref()
                            .expect("live object points at live pack");
                        if !self.pack_path(name).is_file() {
                            stale = true;
                            break;
                        }
                    }
                }
            }
            if stale {
                self.refresh(&mut index)?;
            }
        }
        let mut batch_new: HashSet<ContentHash> = HashSet::with_capacity(chunks.len());
        let mut blobs: Vec<(ContentHash, &[u8])> = Vec::new();
        for chunk in chunks {
            let hash = chunk.reference.hash;
            let fresh = !index.objects.contains_key(&hash) && batch_new.insert(hash);
            if fresh {
                blobs.push((hash, chunk.data));
            }
            report.fresh.push(fresh);
        }
        if blobs.is_empty() {
            return Ok(report);
        }
        let name = self.write_pack(&blobs, fsync)?;
        report.renames = 1;
        report.fsyncs = u64::from(fsync);
        // Offsets restate the serialization layout: blobs start right
        // after the header, in input order.
        let mut offset = HEADER_LEN;
        let entries: Vec<(ContentHash, u64, u32)> = blobs
            .iter()
            .map(|(hash, blob)| {
                let entry = (*hash, offset, blob.len() as u32);
                offset += blob.len() as u64;
                entry
            })
            .collect();
        index.insert_pack(name, entries);
        Ok(report)
    }

    fn get_many(&self, refs: &[ChunkRef]) -> Result<Vec<Vec<u8>>> {
        // One batch = one read pass: at most one miss-triggered index
        // rescan for the whole burst.
        self.begin_read_pass();
        let out = self.read_runs(refs);
        self.end_read_pass();
        out
    }

    fn begin_read_pass(&self) {
        use std::sync::atomic::Ordering;
        if self.pass.depth.fetch_add(1, Ordering::Relaxed) == 0 {
            self.pass.refreshed.store(false, Ordering::Relaxed);
        }
    }

    fn end_read_pass(&self) {
        self.pass
            .depth
            .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn contains_all(&self, hashes: &[ContentHash]) -> bool {
        fn check(store: &PackStore, index: &PackIndex, hashes: &[ContentHash]) -> bool {
            // Stat each distinct pack once per call, not once per chunk:
            // a delta-chain existence check spans hundreds of chunks but
            // only ~chain-length packs. The stat confirms the pack file
            // still exists: a concurrent sweep may have deleted it, and a
            // stale `true` would let the save path write a delta against a
            // hole.
            let mut pack_ok: BTreeMap<u32, bool> = BTreeMap::new();
            hashes.iter().all(|h| match index.objects.get(h) {
                Some(loc) => *pack_ok.entry(loc.pack).or_insert_with(|| {
                    let name = index.packs[loc.pack as usize]
                        .as_ref()
                        .expect("live object points at live pack");
                    store.pack_path(name).is_file()
                }),
                None => false,
            })
        }
        let mut index = self.lock();
        if check(self, &index, hashes) {
            return true;
        }
        // Miss or vanished pack: resync once and re-answer.
        if self.refresh_on_miss(&mut index).is_err() {
            return false;
        }
        check(self, &index, hashes)
    }

    fn list(&self) -> Result<Vec<ContentHash>> {
        let mut index = self.lock();
        self.refresh(&mut index)?;
        let mut hashes: Vec<ContentHash> = index.objects.keys().copied().collect();
        hashes.sort_unstable();
        Ok(hashes)
    }

    fn sweep(&self, reachable: &BTreeSet<ContentHash>, dry_run: bool) -> Result<GcReport> {
        let mut index = self.lock();
        self.refresh(&mut index)?;
        let mut report = GcReport::default();

        // Group objects by pack slot.
        let mut per_pack: BTreeMap<u32, Vec<(ContentHash, ObjLoc)>> = BTreeMap::new();
        for (hash, loc) in &index.objects {
            per_pack.entry(loc.pack).or_default().push((*hash, *loc));
        }

        for (slot, entries) in per_pack {
            let mut live: Vec<&(ContentHash, ObjLoc)> = entries
                .iter()
                .filter(|(h, _)| reachable.contains(h))
                .collect();
            let dead_count = entries.len() - live.len();
            report.live += live.len();
            if dead_count == 0 {
                continue;
            }
            report.deleted += dead_count;
            report.reclaimed_bytes += entries
                .iter()
                .filter(|(h, _)| !reachable.contains(h))
                .map(|(_, loc)| loc.len as u64)
                .sum::<u64>();
            if dry_run {
                continue;
            }
            let name = index.packs[slot as usize]
                .clone()
                .expect("swept slot is live");
            let old_path = self.pack_path(&name);
            let pack_hashes: Vec<ContentHash> = entries.iter().map(|(h, _)| *h).collect();
            if live.is_empty() {
                durable::remove(&old_path)?;
                index.remove_pack_entries(slot, &pack_hashes);
                continue;
            }
            // Mixed pack: rewrite the live objects into a new pack, publish
            // it, then drop the old one. A crash in between leaves both
            // packs on disk with duplicate (identical) objects — safe.
            // Ascending hash order makes the rewrite independent of the
            // index's iteration order: equal live sets, equal pack bytes.
            live.sort_unstable_by_key(|(hash, _)| *hash);
            let old_bytes = fs::read(&old_path)
                .map_err(|e| Error::io(format!("reading {}", old_path.display()), e))?;
            let blobs: Vec<(ContentHash, &[u8])> = live
                .iter()
                .map(|(hash, loc)| {
                    let start = loc.offset as usize;
                    (*hash, &old_bytes[start..start + loc.len as usize])
                })
                .collect();
            let new_name = self.write_pack(&blobs, false)?;
            let mut offset = HEADER_LEN;
            let new_entries: Vec<(ContentHash, u64, u32)> = blobs
                .iter()
                .map(|(hash, blob)| {
                    let entry = (*hash, offset, blob.len() as u32);
                    offset += blob.len() as u64;
                    entry
                })
                .collect();
            index.remove_pack_entries(slot, &pack_hashes);
            index.insert_pack(new_name, new_entries);
            durable::remove(&old_path)?;
        }
        drop(index);
        if !dry_run {
            self.clear_staging()?;
        }
        Ok(report)
    }

    fn stats(&self) -> Result<StoreStats> {
        let mut index = self.lock();
        // A directory listing (not an object walk) keeps multi-handle
        // numbers honest; the per-object work stays incremental.
        self.refresh(&mut index)?;
        Ok(index.stats)
    }

    fn clear_staging(&self) -> Result<usize> {
        durable::clear_dir_files(&self.tmp_dir)
    }

    #[cfg(any(test, feature = "testing"))]
    fn corrupt_object(&self, hash: &ContentHash, offset: usize) -> Result<()> {
        let (name, loc) = {
            let mut index = self.lock();
            self.refresh(&mut index)?;
            let loc = *index.objects.get(hash).ok_or_else(|| Error::NotFound {
                what: format!("chunk {hash}"),
            })?;
            let name = index.packs[loc.pack as usize]
                .clone()
                .expect("live object points at live pack");
            (name, loc)
        };
        if loc.len == 0 {
            return Err(Error::corrupt("object", "cannot corrupt empty object"));
        }
        let path = self.pack_path(&name);
        let mut data = fs::read(&path).map_err(|e| Error::io("reading pack", e))?;
        let i = loc.offset as usize + (offset % loc.len as usize);
        data[i] ^= 0x01;
        fs::write(&path, data).map_err(|e| Error::io("writing corrupted pack", e))?;
        Ok(())
    }
}

/// Positioned read that leaves the file cursor untouched on Unix.
#[cfg(unix)]
fn read_exact_at(f: &fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, offset)
}

/// Portable fallback: seek then read through the shared handle.
#[cfg(not(unix))]
fn read_exact_at(mut f: &fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// Opens one pack file and returns its `(hash, offset, len)` entries after
/// full frame verification (magics, version, bounds, index CRC).
fn read_pack_index(path: &Path) -> Result<Vec<(ContentHash, u64, u32)>> {
    let corrupt = |detail: String| Error::corrupt(format!("pack {}", path.display()), detail);
    let f =
        fs::File::open(path).map_err(|e| Error::io(format!("opening {}", path.display()), e))?;
    let file_len = f.metadata().map_err(|e| Error::io("stat pack", e))?.len();
    if file_len < HEADER_LEN + FOOTER_LEN {
        return Err(corrupt(format!("short file ({file_len} B)")));
    }
    let mut header = [0u8; HEADER_LEN as usize];
    read_exact_at(&f, &mut header, 0).map_err(|e| Error::io("reading pack header", e))?;
    if &header[..6] != PACK_MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let version = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if version != PACK_VERSION {
        return Err(Error::UnsupportedVersion {
            found: version,
            supported: PACK_VERSION,
        });
    }
    let mut footer = [0u8; FOOTER_LEN as usize];
    read_exact_at(&f, &mut footer, file_len - FOOTER_LEN)
        .map_err(|e| Error::io("reading pack footer", e))?;
    if &footer[16..24] != PACK_TAIL {
        return Err(corrupt("bad tail magic (torn write?)".into()));
    }
    let index_offset = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(footer[8..12].try_into().expect("4 bytes")) as usize;
    let stored_crc = u32::from_le_bytes(footer[12..16].try_into().expect("4 bytes"));
    let index_len = count
        .checked_mul(ENTRY_LEN)
        .ok_or_else(|| corrupt("index count overflow".into()))? as u64;
    // The footer carries no checksum of its own: both fields are whatever
    // the file says until this comparison has passed.
    if index_offset < HEADER_LEN
        || index_offset.checked_add(index_len) != Some(file_len - FOOTER_LEN)
    {
        return Err(corrupt("index bounds mismatch".into()));
    }
    let mut index_bytes = vec![0u8; index_len as usize];
    read_exact_at(&f, &mut index_bytes, index_offset)
        .map_err(|e| Error::io("reading pack index", e))?;
    if crc32(&index_bytes) != stored_crc {
        return Err(corrupt("index crc mismatch".into()));
    }
    let mut entries = Vec::with_capacity(count);
    for chunk in index_bytes.chunks_exact(ENTRY_LEN) {
        let mut hash = [0u8; 32];
        hash.copy_from_slice(&chunk[..32]);
        let offset = u64::from_le_bytes(chunk[32..40].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(chunk[40..44].try_into().expect("4 bytes"));
        if offset < HEADER_LEN || offset.saturating_add(u64::from(len)) > index_offset {
            return Err(corrupt("entry bounds mismatch".into()));
        }
        entries.push((ContentHash(hash), offset, len));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::TempDir;
    use super::*;

    fn temp_store() -> (TempDir, PackStore) {
        let dir = TempDir::new();
        let store = PackStore::open(dir.path()).unwrap();
        (dir, store)
    }

    fn stage(blobs: &[Vec<u8>]) -> Vec<StagedChunk<'_>> {
        blobs
            .iter()
            .map(|b| StagedChunk {
                reference: ChunkRef {
                    hash: Sha256::digest(b),
                    len: b.len() as u32,
                },
                data: b,
            })
            .collect()
    }

    fn pack_files(dir: &TempDir) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = fs::read_dir(dir.path().join("packs"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn batch_commits_with_single_rename() {
        let (dir, store) = temp_store();
        let blobs: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 512]).collect();
        let report = store.put_batch(&stage(&blobs), true).unwrap();
        assert!(report.fresh.iter().all(|f| *f));
        assert_eq!(report.renames, 1, "whole batch must commit in one rename");
        assert_eq!(report.fsyncs, 1, "whole batch must commit in one fsync");
        assert_eq!(pack_files(&dir).len(), 1);
        for staged in stage(&blobs) {
            assert_eq!(store.get(&staged.reference).unwrap(), staged.data);
            assert!(store.contains(&staged.reference.hash));
        }
    }

    /// Asserts `path` is named `pack-` + hex(SHA-256 of the bytes between
    /// its last blob, `payload_len` bytes after the header, and its
    /// footer) + `.qpk`.
    fn assert_named_by_index(path: &Path, payload_len: usize) {
        let bytes = fs::read(path).unwrap();
        let index = &bytes[HEADER_LEN as usize + payload_len..bytes.len() - FOOTER_LEN as usize];
        let name = path.file_name().unwrap().to_string_lossy();
        assert_eq!(name, format!("pack-{}.qpk", Sha256::digest(index).to_hex()));
        assert_ne!(
            name,
            format!("pack-{}.qpk", Sha256::digest(&bytes).to_hex())
        );
    }

    #[test]
    fn a_pack_is_named_by_the_digest_of_its_index() {
        let (dir, store) = temp_store();
        let blobs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 300]).collect();
        let staged = stage(&blobs);
        store.put_batch(&staged, false).unwrap();
        let before = pack_files(&dir);
        assert_eq!(before.len(), 1);
        assert_named_by_index(&before[0], 5 * 300);

        // The GC rewrite of a mixed pack follows the same rule.
        let reachable: BTreeSet<ContentHash> =
            staged[..2].iter().map(|s| s.reference.hash).collect();
        store.sweep(&reachable, false).unwrap();
        let after = pack_files(&dir);
        assert_eq!(after.len(), 1);
        assert_ne!(after, before, "the mixed pack is rewritten");
        assert_named_by_index(&after[0], 2 * 300);
    }

    #[test]
    fn dedup_across_batches_writes_nothing() {
        let (dir, store) = temp_store();
        let blobs: Vec<Vec<u8>> = vec![vec![7; 4096], vec![9; 100]];
        let r1 = store.put_batch(&stage(&blobs), false).unwrap();
        let r2 = store.put_batch(&stage(&blobs), false).unwrap();
        assert_eq!(r1.fresh, vec![true, true]);
        assert_eq!(r2.fresh, vec![false, false]);
        assert_eq!(r2.renames, 0, "full dedup batch must not create a pack");
        assert_eq!(pack_files(&dir).len(), 1);
        assert_eq!(store.stats().unwrap().object_count, 2);
    }

    #[test]
    fn within_batch_duplicates_stored_once() {
        let (_d, store) = temp_store();
        let blobs: Vec<Vec<u8>> = vec![vec![1; 64], vec![1; 64], vec![2; 64]];
        let report = store.put_batch(&stage(&blobs), false).unwrap();
        assert_eq!(report.fresh, vec![true, false, true]);
        let stats = store.stats().unwrap();
        assert_eq!(stats.object_count, 2);
        assert_eq!(stats.total_bytes, 128);
    }

    #[test]
    fn get_missing_is_not_found() {
        let (_d, store) = temp_store();
        let r = ChunkRef {
            hash: Sha256::digest(b"never stored"),
            len: 12,
        };
        assert!(matches!(store.get(&r), Err(Error::NotFound { .. })));
    }

    #[test]
    fn empty_chunk_is_storable() {
        let (_d, store) = temp_store();
        let (r, fresh) = store.put(b"").unwrap();
        assert!(fresh);
        assert_eq!(store.get(&r).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn corruption_is_detected_on_get() {
        let (_d, store) = temp_store();
        let (r, _) = store.put(&[7u8; 100]).unwrap();
        store.corrupt_object(&r.hash, 13).unwrap();
        match store.get(&r) {
            Err(Error::Corrupt { detail, .. }) => assert!(detail.contains("hash mismatch")),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn torn_pack_is_ignored_on_open() {
        let (dir, store) = temp_store();
        let (r, _) = store.put(&[5u8; 2000]).unwrap();
        let pack = pack_files(&dir).pop().unwrap();
        let bytes = fs::read(&pack).unwrap();
        fs::write(&pack, &bytes[..bytes.len() / 2]).unwrap();
        // A fresh handle must reject the torn pack wholesale.
        let reopened = PackStore::open(dir.path()).unwrap();
        assert!(matches!(reopened.get(&r), Err(Error::NotFound { .. })));
        assert_eq!(reopened.stats().unwrap().object_count, 0);
    }

    #[test]
    fn put_after_cross_handle_sweep_rewrites_the_object() {
        let (dir, a) = temp_store();
        let (r, _) = a.put(b"reappearing content").unwrap();
        // A second handle sweeps the (currently unreachable) object away…
        let b = PackStore::open(dir.path()).unwrap();
        b.sweep(&BTreeSet::new(), false).unwrap();
        // …so A's next put of the same content must NOT dedup against its
        // stale index: that would commit a reference to a hole.
        let (r2, fresh) = a.put(b"reappearing content").unwrap();
        assert_eq!(r, r2);
        assert!(fresh, "stale dedup hit after external sweep");
        assert_eq!(a.get(&r).unwrap(), b"reappearing content");
        assert!(a.contains_all(&[r.hash]));
    }

    #[test]
    fn contains_all_matches_per_hash_contains() {
        let (_d, store) = temp_store();
        let blobs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 100]).collect();
        let staged = stage(&blobs);
        store.put_batch(&staged, false).unwrap();
        let present: Vec<ContentHash> = staged.iter().map(|s| s.reference.hash).collect();
        assert!(store.contains_all(&present));
        let mut with_missing = present.clone();
        with_missing.push(Sha256::digest(b"never stored"));
        assert!(!store.contains_all(&with_missing));
        assert!(store.contains_all(&[]));
    }

    fn refs_of(blobs: &[Vec<u8>]) -> Vec<ChunkRef> {
        stage(blobs).iter().map(|s| s.reference).collect()
    }

    #[test]
    fn get_many_matches_get_across_packs_gaps_and_repeats() {
        let (_d, store) = temp_store();
        let first: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 300 + i as usize]).collect();
        let second: Vec<Vec<u8>> = (6..9u8).map(|i| vec![i; 64]).collect();
        store.put_batch(&stage(&first), false).unwrap();
        store.put_batch(&stage(&second), false).unwrap();
        let blobs: Vec<Vec<u8>> = first.into_iter().chain(second).collect();
        let refs = refs_of(&blobs);
        // A whole pack in order, a hop to the other pack and back, a gap,
        // a repeat, and backwards.
        let order = [0, 1, 2, 3, 4, 5, 6, 7, 1, 3, 3, 8, 0];
        let asked: Vec<ChunkRef> = order.iter().map(|&i| refs[i]).collect();
        let want: Vec<Vec<u8>> = order.iter().map(|&i| blobs[i].clone()).collect();
        assert_eq!(store.get_many(&asked).unwrap(), want);
        assert_eq!(store.get_many(&[]).unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn get_many_verifies_every_chunk_of_a_run() {
        let (_d, store) = temp_store();
        let blobs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 200]).collect();
        store.put_batch(&stage(&blobs), false).unwrap();
        let refs = refs_of(&blobs);
        store.corrupt_object(&refs[3].hash, 17).unwrap();
        match store.get_many(&refs) {
            Err(Error::Corrupt { detail, .. }) => assert!(detail.contains("hash mismatch")),
            other => panic!("expected corruption, got {other:?}"),
        }
        assert!(store.get_many(&refs[..3]).is_ok());
    }

    #[test]
    fn get_many_rescans_on_an_index_miss_and_resyncs_on_a_vanished_pack() {
        let (dir, writer) = temp_store();
        let reader = PackStore::open(dir.path()).unwrap();
        let blobs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 128]).collect();
        writer.put_batch(&stage(&blobs), false).unwrap();
        let refs = refs_of(&blobs);
        // Published after the reader opened: every ref misses its index,
        // and one rescan answers them all.
        let rescans = reader.index_rescans();
        assert_eq!(reader.get_many(&refs).unwrap(), blobs);
        assert_eq!(reader.index_rescans(), rescans + 1);
        // The writer's sweep rewrites the pack under the reader, whose
        // index still names the deleted file.
        let live: BTreeSet<ContentHash> = refs[..2].iter().map(|r| r.hash).collect();
        writer.sweep(&live, false).unwrap();
        *reader.mru_pack.lock().unwrap() = None;
        assert_eq!(reader.get_many(&refs[..2]).unwrap(), blobs[..2]);
        assert!(matches!(
            reader.get_many(&refs),
            Err(Error::NotFound { .. })
        ));
    }

    #[test]
    fn a_panic_under_the_index_or_mru_lock_does_not_wedge_the_handle() {
        let (_dir, store) = temp_store();
        let blobs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 128]).collect();
        store.put_batch(&stage(&blobs), false).unwrap();
        let refs = refs_of(&blobs);
        assert_eq!(store.get_many(&refs).unwrap(), blobs);

        let rescans = store.index_rescans();
        let holder = store.clone();
        let panicked = std::thread::spawn(move || {
            let _index = holder.lock();
            let _mru = holder.lock_mru();
            panic!("drill: a holder of both pack locks dies");
        })
        .join();
        assert!(panicked.is_err());
        assert!(store.index.is_poisoned() && store.mru_pack.is_poisoned());

        // Served from an index rebuilt by exactly one rescan of `packs/`.
        assert_eq!(store.get_many(&refs).unwrap(), blobs);
        assert_eq!(store.index_rescans(), rescans + 1);
        assert!(!store.index.is_poisoned() && !store.mru_pack.is_poisoned());
        assert_eq!(store.stats().unwrap().object_count, 4);
    }

    #[test]
    fn cross_handle_reads_see_new_packs() {
        let (dir, writer) = temp_store();
        let reader = PackStore::open(dir.path()).unwrap();
        let (r, _) = writer.put(b"published after reader opened").unwrap();
        assert_eq!(
            reader.get(&r).unwrap(),
            b"published after reader opened",
            "index cache must refresh on miss"
        );
        assert!(reader.contains(&r.hash));
    }

    #[test]
    fn one_dead_object_is_enough_to_rewrite_a_pack() {
        let (dir, store) = temp_store();
        let blobs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 200]).collect();
        let staged = stage(&blobs);
        store.put_batch(&staged, false).unwrap();
        store.put_batch(&stage(&[vec![9u8; 400]]), false).unwrap();
        let before = pack_files(&dir);
        // 1 of 4 objects dead in the first pack, the second pack all dead:
        // the first is rewritten down to its 3 live objects, the second
        // deleted, and no dead byte survives the sweep.
        let reachable: BTreeSet<ContentHash> =
            staged[..3].iter().map(|s| s.reference.hash).collect();
        let report = store.sweep(&reachable, false).unwrap();
        assert_eq!(
            report,
            GcReport {
                live: 3,
                deleted: 2,
                reclaimed_bytes: 600,
            }
        );
        let after = pack_files(&dir);
        assert_eq!(after.len(), 1);
        assert!(!before.contains(&after[0]), "the mixed pack is rewritten");
        for (s, blob) in staged[..3].iter().zip(&blobs) {
            assert_eq!(store.get(&s.reference).unwrap(), *blob);
        }
        assert!(!store.contains(&staged[3].reference.hash));
        let stats = store.stats().unwrap();
        assert_eq!((stats.object_count, stats.total_bytes), (3, 600));
    }

    #[test]
    fn sweep_deletes_dead_packs_and_rewrites_mixed_ones() {
        let (dir, store) = temp_store();
        // Pack 1: fully dead. Pack 2: mixed.
        let doomed: Vec<Vec<u8>> = vec![vec![1; 300], vec![2; 300]];
        store.put_batch(&stage(&doomed), false).unwrap();
        let mixed: Vec<Vec<u8>> = vec![vec![3; 300], vec![4; 300]];
        let staged = stage(&mixed);
        store.put_batch(&staged, false).unwrap();

        let mut reachable = BTreeSet::new();
        reachable.insert(staged[0].reference.hash);
        let report = store.sweep(&reachable, false).unwrap();
        assert_eq!(report.live, 1);
        assert_eq!(report.deleted, 3);
        assert_eq!(report.reclaimed_bytes, 900);
        assert_eq!(
            pack_files(&dir).len(),
            1,
            "dead pack gone, mixed pack rewritten"
        );
        assert_eq!(store.get(&staged[0].reference).unwrap(), mixed[0]);
        assert!(!store.contains(&staged[1].reference.hash));
        let stats = store.stats().unwrap();
        assert_eq!(stats.object_count, 1);
        assert_eq!(stats.total_bytes, 300);
        // Survivor readable from a cold handle too (index rebuilt from disk).
        let reopened = PackStore::open(dir.path()).unwrap();
        assert_eq!(reopened.get(&staged[0].reference).unwrap(), mixed[0]);
    }

    #[test]
    fn sweep_keeps_fully_live_packs_untouched() {
        let (dir, store) = temp_store();
        let blobs: Vec<Vec<u8>> = vec![vec![8; 100], vec![9; 100]];
        let staged = stage(&blobs);
        store.put_batch(&staged, false).unwrap();
        let before = pack_files(&dir);
        let reachable: BTreeSet<ContentHash> = staged.iter().map(|s| s.reference.hash).collect();
        let report = store.sweep(&reachable, false).unwrap();
        assert_eq!(report.deleted, 0);
        assert_eq!(report.live, 2);
        assert_eq!(
            pack_files(&dir),
            before,
            "fully live pack must not be rewritten"
        );
    }

    /// `n` distinct small blobs, numbered from `from`.
    fn numbered(from: u32, n: u32) -> Vec<Vec<u8>> {
        (from..from + n).map(|i| i.to_le_bytes().to_vec()).collect()
    }

    #[test]
    fn list_returns_sorted_hashes() {
        let (dir, store) = temp_store();
        for pack in 0..4 {
            store
                .put_batch(&stage(&numbered(pack * 150, 150)), false)
                .unwrap();
        }
        assert_eq!(pack_files(&dir).len(), 4);
        // Too many objects for an unordered index to list sorted by chance,
        // from a warm handle and from one that loaded every pack at open.
        for handle in [store, PackStore::open(dir.path()).unwrap()] {
            let listed = handle.list().unwrap();
            assert_eq!(listed.len(), 600);
            assert!(listed.windows(2).all(|w| w[0] < w[1]), "not ascending");
        }
    }

    #[test]
    fn a_gc_rewrite_is_the_same_pack_whatever_the_index_order() {
        // The same mixed packs in two directories: each handle's index has
        // its own hash keys, so the two iterate their objects differently.
        let build = || {
            let (dir, store) = temp_store();
            for pack in 0..3 {
                store
                    .put_batch(&stage(&numbered(pack * 200, 200)), false)
                    .unwrap();
            }
            (dir, store)
        };
        let ((dir_a, a), (dir_b, b)) = (build(), build());
        let blobs = numbered(0, 600);
        let reachable: BTreeSet<ContentHash> = stage(&blobs)
            .iter()
            .step_by(3)
            .map(|s| s.reference.hash)
            .collect();
        assert_eq!(
            a.sweep(&reachable, false).unwrap(),
            b.sweep(&reachable, false).unwrap()
        );

        let (packs_a, packs_b) = (pack_files(&dir_a), pack_files(&dir_b));
        assert_eq!(packs_a.len(), 3, "every mixed pack is rewritten");
        for (pa, pb) in packs_a.iter().zip(&packs_b) {
            assert_eq!(pa.file_name(), pb.file_name());
            assert_eq!(fs::read(pa).unwrap(), fs::read(pb).unwrap());
            let entries = read_pack_index(pa).unwrap();
            assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "rewritten blobs are not in ascending hash order"
            );
        }
        assert_eq!(a.list().unwrap(), reachable.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn a_blob_in_two_packs_keeps_the_first_packs_location() {
        let (dir, a) = temp_store();
        // Two handles opened on an empty store: neither dedups against the
        // other, so the shared blob lands in both of their packs.
        let b = PackStore::open(dir.path()).unwrap();
        let shared = vec![7u8; 100];
        a.put_batch(&stage(&[shared.clone(), vec![1; 30]]), false)
            .unwrap();
        b.put_batch(&stage(&[vec![2; 50], shared.clone()]), false)
            .unwrap();
        let packs = pack_files(&dir);
        assert_eq!(packs.len(), 2);

        let hash = Sha256::digest(&shared);
        let first = packs[0].file_name().unwrap().to_string_lossy().to_string();
        let offset_in_first = read_pack_index(&packs[0])
            .unwrap()
            .into_iter()
            .find(|(h, _, _)| *h == hash)
            .map(|(_, offset, _)| offset)
            .unwrap();
        let reopened = PackStore::open(dir.path()).unwrap();
        {
            let index = reopened.lock();
            let loc = index.objects[&hash];
            assert_eq!(index.packs[loc.pack as usize].as_deref(), Some(&*first));
            assert_eq!(loc.offset, offset_in_first);
        }
        let stats = reopened.stats().unwrap();
        assert_eq!((stats.object_count, stats.total_bytes), (3, 180));
        let reference = ChunkRef { hash, len: 100 };
        assert_eq!(reopened.get(&reference).unwrap(), shared);
    }

    #[test]
    fn clear_staging_removes_orphans() {
        let (dir, store) = temp_store();
        fs::write(dir.path().join("tmp").join("pack-123-9"), b"orphan").unwrap();
        assert_eq!(store.clear_staging().unwrap(), 1);
        assert_eq!(store.clear_staging().unwrap(), 0);
    }
}

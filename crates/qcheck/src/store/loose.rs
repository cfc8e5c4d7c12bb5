//! Loose object layout: one file per chunk — the reference layout.
//!
//! Compiled only under `cfg(test)` / the `testing` feature: no release
//! build can create or open it. It stays as the simple, independent
//! layout the backend-equivalence suites hold the pack store (and the
//! daemon serving it) equal to, byte for byte.
//!
//! Chunks live under `objects/<2-hex>/<62-hex>`, named by the SHA-256 of
//! their contents. Writes are idempotent (a chunk that exists is never
//! rewritten — that is the dedup) and crash-safe (stage into `tmp/`, then
//! atomic rename; a crash can leave garbage in `tmp/`, never a half-written
//! object under `objects/`). Every fresh chunk costs one stage-file create
//! plus one rename — the per-object overhead the pack backend batches away.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::chunk::ChunkRef;
use crate::durable;
use crate::error::{Error, Result};
use crate::hash::ContentHash;

use super::{verify_chunk, BatchPutReport, GcReport, ObjectStore, StagedChunk, StoreStats};

/// Handle to an on-disk loose object store rooted at `objects/` + `tmp/`.
#[derive(Debug, Clone)]
pub struct LooseStore {
    objects_dir: PathBuf,
    tmp_dir: PathBuf,
    seq: Arc<std::sync::atomic::AtomicU64>,
    /// Incrementally maintained statistics: seeded by the first
    /// [`ObjectStore::stats`] walk (or an exact sweep), then updated by
    /// this handle's writes. `None` until seeded. Another process writing
    /// the same directory invalidates the numbers until the next sweep.
    stats_cache: Arc<Mutex<Option<StoreStats>>>,
}

impl LooseStore {
    /// Opens (creating if necessary) a loose store under `root`.
    ///
    /// # Errors
    ///
    /// Fails if directories cannot be created.
    pub fn open(root: &Path) -> Result<Self> {
        let objects_dir = root.join("objects");
        let tmp_dir = root.join("tmp");
        fs::create_dir_all(&objects_dir)
            .map_err(|e| Error::io(format!("creating {}", objects_dir.display()), e))?;
        fs::create_dir_all(&tmp_dir)
            .map_err(|e| Error::io(format!("creating {}", tmp_dir.display()), e))?;
        Ok(LooseStore {
            objects_dir,
            tmp_dir,
            seq: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            stats_cache: Arc::new(Mutex::new(None)),
        })
    }

    fn object_path(&self, hash: &ContentHash) -> PathBuf {
        self.objects_dir
            .join(hash.dir_prefix())
            .join(hash.file_suffix())
    }

    /// Writes one object file: stage into `tmp/`, rename into `objects/`.
    fn write_object(&self, hash: &ContentHash, data: &[u8], fsync: bool) -> Result<()> {
        let path = self.object_path(hash);
        let dir = path.parent().expect("object path has parent");
        fs::create_dir_all(dir).map_err(|e| Error::io(format!("creating {}", dir.display()), e))?;
        let tmp = self.tmp_dir.join(format!(
            "obj-{}-{}",
            std::process::id(),
            self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        durable::publish(&tmp, &path, data, fsync)
    }

    /// Walks the object directory once, returning exact statistics.
    fn walk_stats(&self) -> Result<StoreStats> {
        let mut stats = StoreStats::default();
        for hash in self.list()? {
            let meta =
                fs::metadata(self.object_path(&hash)).map_err(|e| Error::io("stat object", e))?;
            stats.object_count += 1;
            stats.total_bytes += meta.len();
        }
        Ok(stats)
    }
}

impl ObjectStore for LooseStore {
    fn put_batch(&self, chunks: &[StagedChunk<'_>], fsync: bool) -> Result<BatchPutReport> {
        let mut report = BatchPutReport {
            fresh: Vec::with_capacity(chunks.len()),
            ..BatchPutReport::default()
        };
        let mut new_count = 0usize;
        let mut new_bytes = 0u64;
        for chunk in chunks {
            let fresh = if self.object_path(&chunk.reference.hash).is_file() {
                false
            } else {
                self.write_object(&chunk.reference.hash, chunk.data, fsync)?;
                report.renames += 1;
                report.fsyncs += u64::from(fsync);
                new_count += 1;
                new_bytes += chunk.data.len() as u64;
                true
            };
            report.fresh.push(fresh);
        }
        if new_count > 0 {
            if let Some(stats) = self.stats_cache.lock().expect("stats lock").as_mut() {
                stats.object_count += new_count;
                stats.total_bytes += new_bytes;
            }
        }
        Ok(report)
    }

    fn get(&self, reference: &ChunkRef) -> Result<Vec<u8>> {
        let path = self.object_path(&reference.hash);
        let data = fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                Error::NotFound {
                    what: format!("chunk {}", reference.hash),
                }
            } else {
                Error::io(format!("reading {}", path.display()), e)
            }
        })?;
        verify_chunk(reference, &data)?;
        Ok(data)
    }

    fn contains(&self, hash: &ContentHash) -> bool {
        self.object_path(hash).is_file()
    }

    fn list(&self) -> Result<Vec<ContentHash>> {
        let mut out = Vec::new();
        let entries = fs::read_dir(&self.objects_dir)
            .map_err(|e| Error::io(format!("listing {}", self.objects_dir.display()), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Error::io("walking objects", e))?;
            if !entry.path().is_dir() {
                continue;
            }
            let prefix = entry.file_name().to_string_lossy().to_string();
            let inner = fs::read_dir(entry.path())
                .map_err(|e| Error::io(format!("listing {}", entry.path().display()), e))?;
            for file in inner {
                let file = file.map_err(|e| Error::io("walking objects", e))?;
                let name = file.file_name().to_string_lossy().to_string();
                if let Some(h) = ContentHash::from_hex(&format!("{prefix}{name}")) {
                    out.push(h);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn sweep(&self, reachable: &BTreeSet<ContentHash>, dry_run: bool) -> Result<GcReport> {
        let mut report = GcReport::default();
        let mut live_stats = StoreStats::default();
        for hash in self.list()? {
            let path = self.object_path(&hash);
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if reachable.contains(&hash) {
                report.live += 1;
                live_stats.object_count += 1;
                live_stats.total_bytes += len;
            } else {
                if !dry_run {
                    fs::remove_file(&path)
                        .map_err(|e| Error::io(format!("deleting {}", path.display()), e))?;
                }
                report.deleted += 1;
                report.reclaimed_bytes += len;
            }
        }
        if !dry_run {
            // The sweep walked everything, so the cache becomes exact.
            *self.stats_cache.lock().expect("stats lock") = Some(live_stats);
            self.clear_staging()?;
        }
        Ok(report)
    }

    fn stats(&self) -> Result<StoreStats> {
        let mut guard = self.stats_cache.lock().expect("stats lock");
        if let Some(stats) = *guard {
            return Ok(stats);
        }
        let stats = self.walk_stats()?;
        *guard = Some(stats);
        Ok(stats)
    }

    fn clear_staging(&self) -> Result<usize> {
        durable::clear_dir_files(&self.tmp_dir)
    }

    #[cfg(any(test, feature = "testing"))]
    fn corrupt_object(&self, hash: &ContentHash, offset: usize) -> Result<()> {
        let path = self.object_path(hash);
        let mut data = fs::read(&path).map_err(|e| Error::io("reading object", e))?;
        if data.is_empty() {
            return Err(Error::corrupt("object", "cannot corrupt empty object"));
        }
        let i = offset % data.len();
        data[i] ^= 0x01;
        fs::write(&path, data).map_err(|e| Error::io("writing corrupted object", e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::TempDir;
    use super::*;
    use crate::hash::Sha256;

    fn temp_store() -> (TempDir, LooseStore) {
        let dir = TempDir::new();
        let store = LooseStore::open(dir.path()).unwrap();
        (dir, store)
    }

    #[test]
    fn put_get_round_trip() {
        let (_d, store) = temp_store();
        let data = b"hello chunk store".to_vec();
        let (r, fresh) = store.put(&data).unwrap();
        assert!(fresh);
        assert_eq!(store.get(&r).unwrap(), data);
        assert!(store.contains(&r.hash));
    }

    #[test]
    fn put_is_idempotent_dedup() {
        let (_d, store) = temp_store();
        let data = vec![42u8; 4096];
        let (r1, fresh1) = store.put(&data).unwrap();
        let (r2, fresh2) = store.put(&data).unwrap();
        assert_eq!(r1, r2);
        assert!(fresh1);
        assert!(!fresh2, "second put must be a dedup hit");
        assert_eq!(store.stats().unwrap().object_count, 1);
    }

    #[test]
    fn batch_reports_renames_and_in_batch_dedup() {
        let (_d, store) = temp_store();
        let blobs: Vec<Vec<u8>> = vec![vec![1; 64], vec![2; 64], vec![1; 64]];
        let staged: Vec<StagedChunk<'_>> = blobs
            .iter()
            .map(|b| StagedChunk {
                reference: ChunkRef {
                    hash: Sha256::digest(b),
                    len: b.len() as u32,
                },
                data: b,
            })
            .collect();
        let report = store.put_batch(&staged, false).unwrap();
        assert_eq!(report.fresh, vec![true, true, false]);
        assert_eq!(
            report.renames, 2,
            "loose layout pays one rename per fresh object"
        );
        assert_eq!(report.fsyncs, 0);
    }

    #[test]
    fn distinct_content_distinct_objects() {
        let (_d, store) = temp_store();
        store.put(b"aaa").unwrap();
        store.put(b"bbb").unwrap();
        let stats = store.stats().unwrap();
        assert_eq!(stats.object_count, 2);
        assert_eq!(stats.total_bytes, 6);
    }

    #[test]
    fn stats_cache_tracks_writes_and_sweeps() {
        let (_d, store) = temp_store();
        store.put(b"one").unwrap();
        let s1 = store.stats().unwrap(); // seeds the cache
        store.put(b"second object").unwrap();
        let s2 = store.stats().unwrap(); // incrementally updated, no walk
        assert_eq!(s2.object_count, s1.object_count + 1);
        assert_eq!(s2.total_bytes, s1.total_bytes + 13);
        assert_eq!(
            s2,
            store.walk_stats().unwrap(),
            "cache must match the directory"
        );
        let report = store.sweep(&BTreeSet::new(), false).unwrap();
        assert_eq!(report.deleted, 2);
        assert_eq!(store.stats().unwrap(), StoreStats::default());
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
    fn truncation_is_detected_on_get() {
        let (_d, store) = temp_store();
        let (r, _) = store.put(&[9u8; 100]).unwrap();
        // Truncate the object file directly.
        let path = store.object_path(&r.hash);
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..50]).unwrap();
        match store.get(&r) {
            Err(Error::Corrupt { detail, .. }) => assert!(detail.contains("length")),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn sweep_removes_unreachable_only() {
        let (_d, store) = temp_store();
        let (keep, _) = store.put(b"keep me").unwrap();
        let (drop1, _) = store.put(b"drop me 1").unwrap();
        let (drop2, _) = store.put(b"drop me 2").unwrap();
        let mut reachable = BTreeSet::new();
        reachable.insert(keep.hash);
        let report = store.sweep(&reachable, false).unwrap();
        assert_eq!(report.live, 1);
        assert_eq!(report.deleted, 2);
        assert!(report.reclaimed_bytes >= 18);
        assert!(store.contains(&keep.hash));
        assert!(!store.contains(&drop1.hash));
        assert!(!store.contains(&drop2.hash));
    }

    #[test]
    fn list_returns_sorted_hashes() {
        let (_d, store) = temp_store();
        for i in 0..10u8 {
            store.put(&[i]).unwrap();
        }
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 10);
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted);
    }

    #[test]
    fn empty_chunk_is_storable() {
        let (_d, store) = temp_store();
        let (r, _) = store.put(b"").unwrap();
        assert_eq!(store.get(&r).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn clear_staging_removes_orphans() {
        let (d, store) = temp_store();
        fs::write(d.path().join("tmp").join("obj-999-0"), b"orphan").unwrap();
        assert_eq!(store.clear_staging().unwrap(), 1);
        assert_eq!(store.clear_staging().unwrap(), 0);
    }
}

//! Repository verification (`fsck`).
//!
//! [`fsck`] walks the entire repository — every manifest, every chunk,
//! every delta chain — and reports what is intact, what is damaged and
//! what is orphaned, without modifying anything. Its reads are the
//! recovery path's batched reads, so on a remote repository its round
//! trips do not grow with chunks per checkpoint. Operators run it after
//! suspected storage trouble; the failure-injection tests run it to prove
//! damage is always *visible*.

use crate::error::Result;
use crate::manifest::CheckpointId;
use crate::repo::CheckpointRepo;
use crate::store::ObjectStore;

/// Per-checkpoint verification outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointHealth {
    /// Manifest, chunks and chain all verify.
    Intact,
    /// The manifest file failed its frame checks.
    ManifestCorrupt(String),
    /// One or more referenced chunks are missing or corrupt.
    ChunksDamaged(String),
    /// The checkpoint verifies only up to a broken delta base.
    ChainBroken(String),
}

impl CheckpointHealth {
    /// Whether this checkpoint would be recoverable.
    pub fn is_intact(&self) -> bool {
        matches!(self, CheckpointHealth::Intact)
    }
}

/// Full repository verification report.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Per-checkpoint health, ascending id order.
    pub checkpoints: Vec<(CheckpointId, CheckpointHealth)>,
    /// Chunk objects referenced by no decodable manifest.
    pub orphan_chunks: usize,
    /// Bytes held by orphan chunks.
    pub orphan_bytes: u64,
    /// Whether the `LATEST` pointer names an intact checkpoint.
    pub latest_ok: bool,
}

impl FsckReport {
    /// Count of intact checkpoints.
    pub fn intact_count(&self) -> usize {
        self.checkpoints
            .iter()
            .filter(|(_, h)| h.is_intact())
            .count()
    }

    /// Whether everything verifies and nothing is orphaned.
    pub fn is_clean(&self) -> bool {
        self.latest_ok
            && self.orphan_chunks == 0
            && self.checkpoints.iter().all(|(_, h)| h.is_intact())
    }
}

/// Verifies the whole repository without modifying it.
///
/// # Errors
///
/// Fails only on filesystem-level errors (permission, I/O); damage is
/// reported, not raised.
pub fn fsck(repo: &CheckpointRepo) -> Result<FsckReport> {
    let mut report = FsckReport::default();
    let ids = repo.list_ids()?;
    let mut referenced: std::collections::BTreeSet<crate::hash::ContentHash> =
        std::collections::BTreeSet::new();

    for id in &ids {
        let health = match repo.load_manifest(id) {
            Err(e) => CheckpointHealth::ManifestCorrupt(e.to_string()),
            Ok(manifest) => {
                referenced.extend(manifest.chunk_refs().map(|c| c.hash));
                // Resolving reads every chunk of the chain in one batched
                // fetch per section link. Only a checkpoint that fails is
                // read again, with one batch of its own chunks, to tell
                // its own damage from a broken base.
                match repo.resolve_sections(&manifest) {
                    Ok(_) => CheckpointHealth::Intact,
                    Err(chain) => {
                        let own: Vec<_> = manifest.chunk_refs().copied().collect();
                        match repo.store().get_many(&own) {
                            Err(e) => CheckpointHealth::ChunksDamaged(e.to_string()),
                            Ok(_) => CheckpointHealth::ChainBroken(chain.to_string()),
                        }
                    }
                }
            }
        };
        report.checkpoints.push((id.clone(), health));
    }

    // Manifest-log records that failed CRC/frame validation never make it
    // into `list_ids` — surface them as corrupt checkpoints so damage is
    // reported, not silently dropped.
    for (label, reason) in repo.damaged_manifests()? {
        report.checkpoints.push((
            CheckpointId(label),
            CheckpointHealth::ManifestCorrupt(reason),
        ));
    }
    report.checkpoints.sort_by(|(a, _), (b, _)| a.cmp(b));

    for hash in repo.store().list()? {
        if !referenced.contains(&hash) {
            report.orphan_chunks += 1;
        }
    }
    if report.orphan_chunks > 0 {
        // Orphan bytes = store total − referenced total (referenced chunks
        // that are damaged still occupy their on-disk length).
        let total = repo.store().stats()?.total_bytes;
        let mut referenced_bytes = 0u64;
        for id in &ids {
            if let Ok(m) = repo.load_manifest(id) {
                for c in m.chunk_refs() {
                    if referenced.remove(&c.hash) {
                        referenced_bytes += c.len as u64;
                    }
                }
            }
        }
        report.orphan_bytes = total.saturating_sub(referenced_bytes);
    }

    report.latest_ok = match repo.read_latest()? {
        None => report.checkpoints.is_empty(),
        Some(latest) => report
            .checkpoints
            .iter()
            .any(|(id, h)| *id == latest && h.is_intact()),
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::StorageFault;
    use crate::repo::SaveOptions;
    use crate::snapshot::{StateBlob, TrainingSnapshot};

    fn scratch() -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qcheck-verify-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn snapshot_at(step: u64) -> TrainingSnapshot {
        let mut s = TrainingSnapshot::new("verify-test");
        s.step = step;
        s.params = (0..500).map(|i| step as f64 + i as f64 * 1e-3).collect();
        s.optimizer = StateBlob::new("adam-v1", vec![1; 32]);
        s
    }

    #[test]
    fn clean_repo_fscks_clean() {
        let dir = scratch();
        let repo = CheckpointRepo::open(&dir).unwrap();
        for step in 1..=3 {
            repo.save(&snapshot_at(step), &SaveOptions::incremental(8))
                .unwrap();
        }
        let report = fsck(&repo).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.intact_count(), 3);
        assert!(report.latest_ok);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_repo_is_clean() {
        let dir = scratch();
        let repo = CheckpointRepo::open(&dir).unwrap();
        let report = fsck(&repo).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.intact_count(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsck_pinpoints_manifest_damage() {
        let dir = scratch();
        let repo = CheckpointRepo::open(&dir).unwrap();
        let r1 = repo.save(&snapshot_at(1), &SaveOptions::default()).unwrap();
        repo.save(&snapshot_at(2), &SaveOptions::default()).unwrap();
        repo.corrupt_manifest(&r1.id, StorageFault::BitFlip { offset: 40 })
            .unwrap();
        let report = fsck(&repo).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.intact_count(), 1);
        let (_, health) = &report.checkpoints[0];
        assert!(
            matches!(health, CheckpointHealth::ManifestCorrupt(_)),
            "{health:?}"
        );
        // Damaged manifest's chunks become orphans from fsck's viewpoint.
        assert!(report.orphan_chunks > 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsck_pinpoints_chunk_damage() {
        let dir = scratch();
        let repo = CheckpointRepo::open(&dir).unwrap();
        let r = repo.save(&snapshot_at(1), &SaveOptions::default()).unwrap();
        let m = repo.load_manifest(&r.id).unwrap();
        let victim = m.chunk_refs().next().unwrap().hash;
        repo.store().corrupt_object(&victim, 9).unwrap();
        let report = fsck(&repo).unwrap();
        assert!(matches!(
            report.checkpoints[0].1,
            CheckpointHealth::ChunksDamaged(_)
        ));
        assert!(!report.latest_ok);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsck_flags_broken_chain() {
        let dir = scratch();
        let repo = CheckpointRepo::open(&dir).unwrap();
        let opts = SaveOptions::incremental(16);
        let base = repo.save(&snapshot_at(1), &opts).unwrap();
        repo.save(&snapshot_at(2), &opts).unwrap();
        // Drop the base manifest's record: the delta's chain is broken.
        repo.corrupt_manifest(&base.id, StorageFault::Delete)
            .unwrap();
        let report = fsck(&repo).unwrap();
        let delta_health = &report.checkpoints[0].1;
        assert!(
            matches!(delta_health, CheckpointHealth::ChainBroken(_)),
            "{delta_health:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

//! Append-only manifest log + dual root slots: the O(1) commit protocol.
//!
//! The repository's only metadata layout (a directory in the older
//! one-file-per-checkpoint `manifests/` + `LATEST` layout is refused by
//! `repo`, not read):
//!
//! ```text
//! <root>/
//!   ROOT.0, ROOT.1          dual root slots (generation + epoch + CRC)
//!   manifest-<epoch>.qlg    append-only CRC-framed manifest log
//! ```
//!
//! A save appends a `ManifestPut` + `LatestAdvance` record pair to the log
//! (one write, one optional fsync) and then writes the *older* root slot in
//! place with a bumped generation (one small write, one optional fsync) —
//! zero renames end-to-end. Readers pick the valid root slot with the
//! highest generation and replay the log; a torn root write only ever
//! damages the stale slot, so the previous root always survives, and a torn
//! log append is detected by the per-record CRC and truncated away like a
//! WAL tail. Mid-log damage (in-place corruption, bit rot) is skipped by
//! resynchronizing on the next record magic, so one bad record never takes
//! out the checkpoints behind it.
//!
//! Record framing:
//!
//! ```text
//! magic   "QLR\0"                       4 bytes
//! kind    u8 (0 padding, 1 manifest-put, 2 latest-advance, 3 manifest-delete)
//! id_len  u16 le | id bytes            checkpoint id (empty for padding)
//! pay_len u32 le | payload bytes       manifest bytes for manifest-put
//! crc     u32 le                       CRC32 over kind..payload
//! ```
//!
//! The log grows until a retention pass compacts it: live manifests are
//! rewritten into `manifest-<epoch+1>.qlg` (staged + renamed), the root
//! flips to the new epoch, and the old log is deleted. Saves never compact,
//! so the save path stays O(1).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::durable;
use crate::error::Result;
use crate::hash::crc32;
use crate::manifest::{CheckpointId, Manifest};

/// Magic bytes opening each root slot file.
pub const ROOT_MAGIC: &[u8; 6] = b"QROOT\0";
/// Root slot format version.
pub const ROOT_VERSION: u32 = 1;
/// Magic bytes opening the manifest log.
pub const LOG_MAGIC: &[u8; 6] = b"QMLOG\0";
/// Manifest log format version.
pub const LOG_VERSION: u32 = 1;
/// Magic bytes opening every log record.
pub const RECORD_MAGIC: [u8; 4] = *b"QLR\0";
/// Fixed log header: magic + version + epoch.
pub const LOG_HEADER_LEN: u64 = 6 + 4 + 8;
/// Fixed per-record overhead: magic + kind + id_len + pay_len + crc.
pub const RECORD_OVERHEAD: usize = 4 + 1 + 2 + 4 + 4;

/// Sanity bound on a single record's payload (a manifest is KBs).
const MAX_RECORD_PAYLOAD: usize = 64 << 20;
/// Sanity bound on an id inside a record.
const MAX_RECORD_ID: usize = 256;

/// Log record types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// Filler produced by scrubbing a record in place; replay skips it.
    Padding,
    /// A checkpoint manifest (payload = `Manifest::encode()` bytes).
    ManifestPut,
    /// The latest pointer advanced to `id` (no payload).
    LatestAdvance,
    /// Checkpoint `id` was retired by retention (durable delete intent —
    /// for shared backends this record is the proof the mirror delete
    /// must be reconciled, so compaction retains it).
    ManifestDelete,
}

impl RecordKind {
    fn from_u8(v: u8) -> Option<RecordKind> {
        match v {
            0 => Some(RecordKind::Padding),
            1 => Some(RecordKind::ManifestPut),
            2 => Some(RecordKind::LatestAdvance),
            3 => Some(RecordKind::ManifestDelete),
            _ => None,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            RecordKind::Padding => 0,
            RecordKind::ManifestPut => 1,
            RecordKind::LatestAdvance => 2,
            RecordKind::ManifestDelete => 3,
        }
    }
}

/// One root slot: the committed view of the manifest log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootSlot {
    /// Monotonic commit counter; the valid slot with the highest
    /// generation wins.
    pub generation: u64,
    /// Which `manifest-<epoch>.qlg` file this root describes.
    pub epoch: u64,
    /// Log length this commit covered. Valid records beyond it are a
    /// crashed-but-complete commit and still count for recovery
    /// (newest-valid-wins); invalid bytes beyond it are a benign torn
    /// tail.
    pub committed_len: u64,
    /// The committed latest checkpoint.
    pub latest: Option<CheckpointId>,
}

impl RootSlot {
    /// Serializes the slot (magic + version + fields + CRC32).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        b.extend_from_slice(ROOT_MAGIC);
        b.extend_from_slice(&ROOT_VERSION.to_le_bytes());
        b.extend_from_slice(&self.generation.to_le_bytes());
        b.extend_from_slice(&self.epoch.to_le_bytes());
        b.extend_from_slice(&self.committed_len.to_le_bytes());
        let latest = self.latest.as_ref().map(|i| i.as_str()).unwrap_or("");
        b.extend_from_slice(&(latest.len() as u16).to_le_bytes());
        b.extend_from_slice(latest.as_bytes());
        let crc = crc32(&b);
        b.extend_from_slice(&crc.to_le_bytes());
        b
    }

    /// Parses a slot; `None` on any framing/CRC failure (torn write).
    pub fn decode(bytes: &[u8]) -> Option<RootSlot> {
        let fixed = 6 + 4 + 8 + 8 + 8 + 2;
        if bytes.len() < fixed + 4 || &bytes[..6] != ROOT_MAGIC {
            return None;
        }
        if u32::from_le_bytes(bytes[6..10].try_into().ok()?) != ROOT_VERSION {
            return None;
        }
        let generation = u64::from_le_bytes(bytes[10..18].try_into().ok()?);
        let epoch = u64::from_le_bytes(bytes[18..26].try_into().ok()?);
        let committed_len = u64::from_le_bytes(bytes[26..34].try_into().ok()?);
        let latest_len = u16::from_le_bytes(bytes[34..36].try_into().ok()?) as usize;
        if bytes.len() != fixed + latest_len + 4 {
            return None;
        }
        let latest_bytes = &bytes[36..36 + latest_len];
        let stored_crc = u32::from_le_bytes(bytes[36 + latest_len..].try_into().ok()?);
        if crc32(&bytes[..36 + latest_len]) != stored_crc {
            return None;
        }
        let latest = if latest_len == 0 {
            None
        } else {
            Some(CheckpointId(String::from_utf8(latest_bytes.to_vec()).ok()?))
        };
        Some(RootSlot {
            generation,
            epoch,
            committed_len,
            latest,
        })
    }
}

/// Path of root slot `slot` (0 or 1) under `dir`.
pub fn root_slot_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("ROOT.{slot}"))
}

/// Path of the epoch's manifest log under `dir`.
pub fn log_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("manifest-{epoch:06}.qlg"))
}

/// The fixed log file header for `epoch`.
pub fn log_header(epoch: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(LOG_HEADER_LEN as usize);
    b.extend_from_slice(LOG_MAGIC);
    b.extend_from_slice(&LOG_VERSION.to_le_bytes());
    b.extend_from_slice(&epoch.to_le_bytes());
    b
}

/// Encodes one framed record.
pub fn encode_record(kind: RecordKind, id: &str, payload: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(RECORD_OVERHEAD + id.len() + payload.len());
    b.extend_from_slice(&RECORD_MAGIC);
    b.push(kind.as_u8());
    b.extend_from_slice(&(id.len() as u16).to_le_bytes());
    b.extend_from_slice(id.as_bytes());
    b.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    b.extend_from_slice(payload);
    let crc = crc32(&b[4..]);
    b.extend_from_slice(&crc.to_le_bytes());
    b
}

/// A successfully parsed record.
struct ParsedRecord<'a> {
    consumed: usize,
    kind: RecordKind,
    id: String,
    payload: &'a [u8],
}

/// Parses one record at the head of `bytes`. `Err((id_guess, reason))` on
/// any framing failure; the guess is the header's id when the header was
/// readable (a payload CRC failure still names its checkpoint).
fn parse_record(bytes: &[u8]) -> std::result::Result<ParsedRecord<'_>, (Option<String>, String)> {
    if bytes.len() < RECORD_OVERHEAD {
        return Err((None, "record truncated before header".into()));
    }
    if bytes[..4] != RECORD_MAGIC {
        return Err((None, "bad record magic".into()));
    }
    let kind = RecordKind::from_u8(bytes[4]).ok_or((None, "unknown record kind".to_string()))?;
    let id_len = u16::from_le_bytes([bytes[5], bytes[6]]) as usize;
    if id_len > MAX_RECORD_ID || bytes.len() < 4 + 1 + 2 + id_len + 4 {
        return Err((None, "record truncated in id".into()));
    }
    let id = match std::str::from_utf8(&bytes[7..7 + id_len]) {
        Ok(s) => s.to_string(),
        Err(_) => return Err((None, "record id is not utf-8".into())),
    };
    let guess = (!id.is_empty()).then(|| id.clone());
    let pay_off = 7 + id_len;
    let pay_len =
        u32::from_le_bytes(bytes[pay_off..pay_off + 4].try_into().expect("4 bytes")) as usize;
    if pay_len > MAX_RECORD_PAYLOAD {
        return Err((guess, "record payload length implausible".into()));
    }
    let total = RECORD_OVERHEAD + id_len + pay_len;
    if bytes.len() < total {
        return Err((guess, "record truncated in payload".into()));
    }
    let stored_crc = u32::from_le_bytes(bytes[total - 4..total].try_into().expect("4 bytes"));
    if crc32(&bytes[4..total - 4]) != stored_crc {
        return Err((guess, "record CRC mismatch".into()));
    }
    Ok(ParsedRecord {
        consumed: total,
        kind,
        id,
        payload: &bytes[pay_off + 4..total - 4],
    })
}

/// Finds the next record-magic offset at or after `from`.
fn find_magic(bytes: &[u8], from: usize) -> Option<usize> {
    if from >= bytes.len() {
        return None;
    }
    bytes[from..]
        .windows(RECORD_MAGIC.len())
        .position(|w| w == RECORD_MAGIC)
        .map(|p| from + p)
}

/// The replayed state of a repository's manifest log.
#[derive(Clone, Debug, Default)]
pub struct LogReplay {
    /// Generation of the chosen root (0 when no valid root exists).
    pub generation: u64,
    /// Epoch (log file) the state was replayed from.
    pub epoch: u64,
    /// Slot index the chosen root was read from.
    pub root_slot: usize,
    /// `committed_len` claimed by the chosen root.
    pub committed_len: u64,
    /// End offset of the last valid record (torn tail bytes beyond this
    /// are safe to truncate once `valid_len >= committed_len`).
    pub valid_len: u64,
    /// On-disk log length at replay time.
    pub file_len: u64,
    /// Live manifests, keyed by id.
    pub manifests: BTreeMap<CheckpointId, Manifest>,
    /// Byte span `(offset, len)` of each live manifest's put record.
    pub spans: BTreeMap<CheckpointId, (u64, u64)>,
    /// Ids retired by a `ManifestDelete` record (durable delete intent;
    /// shared-backend reconciliation re-issues the mirror delete for
    /// these and never re-pulls them).
    pub tombstones: BTreeSet<CheckpointId>,
    /// Latest pointer after replay (root's, advanced by replayed
    /// `LatestAdvance` records; `None` when it dangles).
    pub latest: Option<CheckpointId>,
    /// Records that failed framing/decoding inside the replayed region:
    /// `(best-effort id or "offset-<n>", reason)`.
    pub damaged: Vec<(String, String)>,
    /// Applied (non-padding) records — compaction policy input.
    pub records: u64,
    /// True when the highest-generation slot was unusable and an older
    /// root (or a rootless log scan) served instead.
    pub root_fallback: bool,
}

impl LogReplay {
    /// True when neither a root slot nor a log file exists yet.
    pub fn is_empty_layout(&self) -> bool {
        self.generation == 0 && self.file_len == 0 && self.manifests.is_empty()
    }
}

/// Reads (without validating beyond framing) both root slots.
pub fn read_root_slots(dir: &Path) -> [Option<RootSlot>; 2] {
    let read = |slot: usize| {
        fs::read(root_slot_path(dir, slot))
            .ok()
            .and_then(|b| RootSlot::decode(&b))
    };
    [read(0), read(1)]
}

/// Reads a log file and validates its header; `None` when missing or when
/// the header does not frame-check for `epoch`.
fn read_log(dir: &Path, epoch: u64) -> Option<Vec<u8>> {
    let bytes = fs::read(log_path(dir, epoch)).ok()?;
    if bytes.len() < LOG_HEADER_LEN as usize
        || &bytes[..6] != LOG_MAGIC
        || u32::from_le_bytes(bytes[6..10].try_into().ok()?) != LOG_VERSION
        || u64::from_le_bytes(bytes[10..18].try_into().ok()?) != epoch
    {
        return None;
    }
    Some(bytes)
}

/// Epochs of every `manifest-*.qlg` under `dir`, ascending.
pub fn list_log_epochs(dir: &Path) -> Vec<u64> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<u64> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().to_string();
            let stem = name.strip_prefix("manifest-")?.strip_suffix(".qlg")?;
            stem.parse::<u64>().ok()
        })
        .collect();
    out.sort_unstable();
    out
}

/// Opens the newest valid root (falling back across slots and, with no
/// valid root at all, to a bare log scan) and replays the log.
///
/// # Errors
///
/// I/O errors other than absence. Corruption never errors — it is
/// recorded in [`LogReplay::damaged`] and skipped.
pub fn replay(dir: &Path) -> Result<LogReplay> {
    crate::obs::MLOG_REPLAYS.inc();
    let slots = read_root_slots(dir);
    let mut candidates: Vec<(usize, RootSlot)> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.clone().map(|s| (i, s)))
        .collect();
    candidates.sort_by_key(|(_, s)| std::cmp::Reverse(s.generation));

    let mut out = LogReplay::default();
    let mut log_bytes: Option<Vec<u8>> = None;
    for (rank, (slot, root)) in candidates.iter().enumerate() {
        match read_log(dir, root.epoch) {
            Some(bytes) => {
                out.generation = root.generation;
                out.epoch = root.epoch;
                out.root_slot = *slot;
                out.committed_len = root.committed_len;
                out.latest = root.latest.clone();
                out.root_fallback = rank > 0;
                log_bytes = Some(bytes);
                break;
            }
            None => out.damaged.push((
                format!("root-slot-{slot}"),
                format!(
                    "root generation {} names an unreadable log epoch {}",
                    root.generation, root.epoch
                ),
            )),
        }
    }
    // A torn root *file* (decode failure while the file exists) also means
    // the surviving root served as the fallback.
    if !out.root_fallback {
        out.root_fallback = (0..2).any(|slot| {
            slots[slot].is_none() && root_slot_path(dir, slot).exists() && log_bytes.is_some()
        });
    }
    if log_bytes.is_none() {
        // No usable root: scan for the newest log whose header validates
        // and replay it without a committed region.
        for epoch in list_log_epochs(dir).into_iter().rev() {
            if let Some(bytes) = read_log(dir, epoch) {
                out.epoch = epoch;
                out.committed_len = 0;
                if !candidates.is_empty() {
                    out.root_fallback = true;
                }
                log_bytes = Some(bytes);
                break;
            }
        }
    }
    let Some(bytes) = log_bytes else {
        return Ok(out); // empty layout (or only unreadable debris)
    };

    out.file_len = bytes.len() as u64;
    out.valid_len = LOG_HEADER_LEN.min(out.file_len);
    let mut pos = LOG_HEADER_LEN as usize;
    while pos < bytes.len() {
        match parse_record(&bytes[pos..]) {
            Ok(rec) => {
                let span = (pos as u64, rec.consumed as u64);
                match rec.kind {
                    RecordKind::Padding => {}
                    RecordKind::ManifestPut => {
                        out.records += 1;
                        match Manifest::decode(rec.payload) {
                            Ok(m) if m.id.as_str() == rec.id => {
                                out.tombstones.remove(&m.id);
                                out.spans.insert(m.id.clone(), span);
                                out.manifests.insert(m.id.clone(), m);
                            }
                            Ok(m) => out.damaged.push((
                                rec.id.clone(),
                                format!("record id does not match manifest id {}", m.id),
                            )),
                            Err(e) => out.damaged.push((rec.id.clone(), e.to_string())),
                        }
                    }
                    RecordKind::LatestAdvance => {
                        out.records += 1;
                        out.latest = Some(CheckpointId(rec.id.clone()));
                    }
                    RecordKind::ManifestDelete => {
                        out.records += 1;
                        let id = CheckpointId(rec.id.clone());
                        out.manifests.remove(&id);
                        out.spans.remove(&id);
                        if out.latest.as_ref() == Some(&id) {
                            out.latest = None;
                        }
                        out.tombstones.insert(id);
                    }
                }
                pos += rec.consumed;
                out.valid_len = pos as u64;
            }
            Err((guess, reason)) => {
                let label = guess.unwrap_or_else(|| format!("offset-{pos}"));
                match find_magic(&bytes, pos + 1) {
                    Some(next) => {
                        // Mid-log damage: later records exist, so this is
                        // a detectable hole, not a torn tail. Skip to the
                        // next record magic.
                        out.damaged.push((label, reason));
                        pos = next;
                    }
                    None => {
                        // Tail damage. Inside the committed region it is
                        // real corruption (an in-place writer claimed these
                        // bytes); beyond it, the benign torn tail of a
                        // crashed append, silently truncated on replay.
                        if (pos as u64) < out.committed_len {
                            out.damaged.push((label, reason));
                        }
                        break;
                    }
                }
            }
        }
    }
    // A latest pointer that names no live manifest (deleted, damaged or
    // never landed) is treated as absent; recovery never trusted the
    // pointer anyway.
    if let Some(l) = &out.latest {
        if !out.manifests.contains_key(l) {
            out.latest = None;
        }
    }
    Ok(out)
}

/// Appends raw bytes to the epoch's log, creating it (with its header)
/// when absent. Returns the file length before the append.
///
/// # Errors
///
/// Filesystem errors.
pub fn append_to_log(dir: &Path, epoch: u64, bytes: &[u8], fsync: bool) -> Result<u64> {
    durable::append(&log_path(dir, epoch), &log_header(epoch), bytes, fsync)
}

/// Writes root slot `slot` in place (single small write + optional fsync).
///
/// # Errors
///
/// Filesystem errors.
pub fn write_root_slot(dir: &Path, slot: usize, root: &RootSlot, fsync: bool) -> Result<()> {
    durable::overwrite(&root_slot_path(dir, slot), &root.encode(), fsync)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::CheckpointKind;

    fn scratch(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qcheck-mlog-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn manifest(id: &str) -> Manifest {
        Manifest {
            id: CheckpointId(id.to_string()),
            step: 1,
            kind: CheckpointKind::Full,
            chain_len: 0,
            created_unix_ms: 0,
            snapshot_sha: crate::hash::Sha256::digest(id.as_bytes()),
            sections: Vec::new(),
        }
    }

    fn commit(dir: &Path, gen: u64, slot: usize, m: &Manifest) {
        let mut rec = encode_record(RecordKind::ManifestPut, m.id.as_str(), &m.encode());
        rec.extend(encode_record(RecordKind::LatestAdvance, m.id.as_str(), &[]));
        let before = append_to_log(dir, 0, &rec, false).unwrap();
        let root = RootSlot {
            generation: gen,
            epoch: 0,
            committed_len: before + rec.len() as u64,
            latest: Some(m.id.clone()),
        };
        write_root_slot(dir, slot, &root, false).unwrap();
    }

    #[test]
    fn root_slot_round_trips_and_rejects_any_bitflip() {
        let root = RootSlot {
            generation: 7,
            epoch: 2,
            committed_len: 12345,
            latest: Some(CheckpointId("ckpt-0000000001-000003".into())),
        };
        let bytes = root.encode();
        assert_eq!(RootSlot::decode(&bytes).unwrap(), root);
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            assert!(RootSlot::decode(&b).is_none(), "bitflip at {i} accepted");
        }
        for keep in 0..bytes.len() {
            assert!(RootSlot::decode(&bytes[..keep]).is_none());
        }
    }

    #[test]
    fn replay_applies_put_advance_delete() {
        let dir = scratch("apply");
        commit(&dir, 1, 0, &manifest("ckpt-0000000001-000000"));
        commit(&dir, 2, 1, &manifest("ckpt-0000000002-000001"));
        let st = replay(&dir).unwrap();
        assert_eq!(st.generation, 2);
        assert_eq!(st.manifests.len(), 2);
        assert_eq!(
            st.latest.as_ref().unwrap().as_str(),
            "ckpt-0000000002-000001"
        );
        assert!(st.damaged.is_empty());
        // Retire the older one.
        let rec = encode_record(RecordKind::ManifestDelete, "ckpt-0000000001-000000", &[]);
        let before = append_to_log(&dir, 0, &rec, false).unwrap();
        let root = RootSlot {
            generation: 3,
            epoch: 0,
            committed_len: before + rec.len() as u64,
            latest: st.latest.clone(),
        };
        write_root_slot(&dir, 1, &root, false).unwrap();
        let st = replay(&dir).unwrap();
        assert_eq!(st.manifests.len(), 1);
        assert!(st
            .tombstones
            .contains(&CheckpointId("ckpt-0000000001-000000".into())));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_beyond_committed_is_silently_truncated() {
        let dir = scratch("tail");
        commit(&dir, 1, 0, &manifest("ckpt-0000000001-000000"));
        let full = replay(&dir).unwrap();
        // Append a torn (partial) record without flipping the root.
        let rec = encode_record(RecordKind::ManifestPut, "ckpt-0000000002-000001", b"junk");
        append_to_log(&dir, 0, &rec[..rec.len() / 2], false).unwrap();
        let st = replay(&dir).unwrap();
        assert_eq!(st.manifests.len(), 1);
        assert!(st.damaged.is_empty(), "{:?}", st.damaged);
        assert_eq!(st.valid_len, full.valid_len);
        assert!(st.file_len > st.valid_len);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn complete_records_beyond_committed_still_count() {
        let dir = scratch("beyond");
        commit(&dir, 1, 0, &manifest("ckpt-0000000001-000000"));
        // Full append of checkpoint 2, but the root never flipped
        // (crash before the root write).
        let m2 = manifest("ckpt-0000000002-000001");
        let mut rec = encode_record(RecordKind::ManifestPut, m2.id.as_str(), &m2.encode());
        rec.extend(encode_record(
            RecordKind::LatestAdvance,
            m2.id.as_str(),
            &[],
        ));
        append_to_log(&dir, 0, &rec, false).unwrap();
        let st = replay(&dir).unwrap();
        assert_eq!(st.manifests.len(), 2, "newest valid wins");
        assert_eq!(st.latest.as_ref().unwrap().as_str(), m2.id.as_str());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn mid_log_damage_is_skipped_with_resync() {
        let dir = scratch("midlog");
        commit(&dir, 1, 0, &manifest("ckpt-0000000001-000000"));
        commit(&dir, 2, 1, &manifest("ckpt-0000000002-000001"));
        let st = replay(&dir).unwrap();
        let (off, len) = st.spans[&CheckpointId("ckpt-0000000001-000000".into())];
        // Flip a payload byte of the *older* record.
        let path = log_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[(off + len / 2) as usize] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        let st = replay(&dir).unwrap();
        assert_eq!(st.manifests.len(), 1, "later record must survive");
        assert!(st
            .manifests
            .contains_key(&CheckpointId("ckpt-0000000002-000001".into())));
        assert_eq!(st.damaged.len(), 1);
        assert_eq!(st.damaged[0].0, "ckpt-0000000001-000000");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_newest_root_falls_back_to_previous_slot() {
        let dir = scratch("rootfall");
        commit(&dir, 1, 0, &manifest("ckpt-0000000001-000000"));
        commit(&dir, 2, 1, &manifest("ckpt-0000000002-000001"));
        // Tear the newest root (slot 1, generation 2) at every prefix.
        let good = fs::read(root_slot_path(&dir, 1)).unwrap();
        for keep in 0..good.len() {
            fs::write(root_slot_path(&dir, 1), &good[..keep]).unwrap();
            let st = replay(&dir).unwrap();
            assert_eq!(st.generation, 1, "keep={keep}");
            assert!(st.root_fallback, "keep={keep}");
            // The log records are intact, so both manifests still replay.
            assert_eq!(st.manifests.len(), 2, "keep={keep}");
        }
        fs::write(root_slot_path(&dir, 1), &good).unwrap();
        assert!(!replay(&dir).unwrap().root_fallback);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_dir_replays_to_empty_state() {
        let dir = scratch("empty");
        let st = replay(&dir).unwrap();
        assert!(st.is_empty_layout());
        assert!(st.latest.is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn padding_records_are_invisible() {
        let dir = scratch("pad");
        commit(&dir, 1, 0, &manifest("ckpt-0000000001-000000"));
        let st = replay(&dir).unwrap();
        let (off, len) = st.spans[&CheckpointId("ckpt-0000000001-000000".into())];
        // Scrub the record in place with a same-length padding record.
        let pad_payload = vec![0u8; len as usize - RECORD_OVERHEAD];
        let pad = encode_record(RecordKind::Padding, "", &pad_payload);
        assert_eq!(pad.len() as u64, len);
        let path = log_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[off as usize..(off + len) as usize].copy_from_slice(&pad);
        fs::write(&path, bytes).unwrap();
        let st = replay(&dir).unwrap();
        assert!(st.manifests.is_empty());
        assert!(st.damaged.is_empty(), "{:?}", st.damaged);
        let _ = fs::remove_dir_all(dir);
    }
}

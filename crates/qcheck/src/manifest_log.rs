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
//!
//! ## One owner: [`ManifestLog`]
//!
//! [`ManifestLog`] owns a directory and the [`LogReplay`] it replays to,
//! and is the only code that appends, flips and compacts; the free
//! functions are its primitives. What a record *does* to the state is
//! written once (`LogReplay::apply`): [`replay`] runs it over the file,
//! [`ManifestLog::publish`] over the bytes just appended, so the cached
//! state and a fresh replay of the directory cannot drift apart.
//!
//! A commit has two phases, so that a caller with a shared backend can
//! mirror between them: [`ManifestLog::append`] drops a torn tail and
//! lands the records past the committed length (nothing is visible yet);
//! [`ManifestLog::publish`] applies them to the cached state and writes
//! the stale root slot. The holder may `append` and then return an error
//! instead of publishing (a failed mirror write): that leaves what a crash
//! between the phases leaves — complete records beyond the committed
//! length, which still count on replay (newest-valid-wins) and resolve,
//! because their chunks were stored before `append`. The one rule: after
//! any error the holder must [`ManifestLog::invalidate`], so the next
//! [`ManifestLog::refresh`] replays what reached the disk.
//!
//! [`CommitMode::InPlaceUnsafe`] (the paper's R-F8 baseline) is one
//! ordering decision, in `append`: the *live* slot takes the new committed
//! length before the records land, so a crash inside the append leaves a
//! torn record in the committed region. No write here knows about crashes:
//! [`crate::failure::arm`] tears them at the `durable` seam.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::durable;
use crate::error::{Error, Result};
use crate::failure::StorageFault;
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
    Padding = 0,
    /// A checkpoint manifest (payload = `Manifest::encode()` bytes).
    ManifestPut = 1,
    /// The latest pointer advanced to `id` (no payload).
    LatestAdvance = 2,
    /// Checkpoint `id` was retired by retention (durable delete intent —
    /// for shared backends this record is the proof the mirror delete
    /// must be reconciled, so compaction retains it).
    ManifestDelete = 3,
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
    b.push(kind as u8);
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
#[derive(Clone, Debug, Default, PartialEq)]
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
    /// One past the highest sequence number any applied record names —
    /// damaged puts and deletes included — so a save never reuses an id.
    pub next_seq: u64,
    /// True when the highest-generation slot was unusable and an older
    /// root (or a rootless log scan) served instead.
    pub root_fallback: bool,
}

impl LogReplay {
    /// What one record, framed at log offset `offset`, does to the state —
    /// the only place in the crate a [`RecordKind`] changes a `LogReplay`.
    fn apply(&mut self, rec: &ParsedRecord<'_>, offset: u64) {
        if rec.kind != RecordKind::Padding {
            self.records += 1;
        }
        if let Some(seq) = CheckpointId::seq_of(&rec.id) {
            self.next_seq = self.next_seq.max(seq.saturating_add(1));
        }
        match rec.kind {
            RecordKind::Padding => {}
            RecordKind::ManifestPut => match Manifest::decode(rec.payload) {
                Ok(m) if m.id.as_str() == rec.id => {
                    self.tombstones.remove(&m.id);
                    self.spans
                        .insert(m.id.clone(), (offset, rec.consumed as u64));
                    self.manifests.insert(m.id.clone(), m);
                }
                Ok(m) => self.damaged.push((
                    rec.id.clone(),
                    format!("record id does not match manifest id {}", m.id),
                )),
                Err(e) => self.damaged.push((rec.id.clone(), e.to_string())),
            },
            RecordKind::LatestAdvance => self.latest = Some(CheckpointId(rec.id.clone())),
            RecordKind::ManifestDelete => {
                let id = CheckpointId(rec.id.clone());
                self.manifests.remove(&id);
                self.spans.remove(&id);
                if self.latest.as_ref() == Some(&id) {
                    self.latest = None;
                }
                self.tombstones.insert(id);
            }
        }
    }

    /// Applies every record framed in `bytes`, which sit at log offset
    /// `base`: the whole record region of a file for [`replay`], the bytes
    /// just appended for [`ManifestLog::publish`]. Advances `valid_len`
    /// past each valid record and files what fails to frame under
    /// `damaged`.
    fn scan(&mut self, bytes: &[u8], base: u64) {
        let mut pos = 0usize;
        while pos < bytes.len() {
            let at = base + pos as u64;
            match parse_record(&bytes[pos..]) {
                Ok(rec) => {
                    self.apply(&rec, at);
                    pos += rec.consumed;
                    self.valid_len = base + pos as u64;
                }
                Err((guess, reason)) => {
                    let label = guess.unwrap_or_else(|| format!("offset-{at}"));
                    match find_magic(bytes, pos + 1) {
                        Some(next) => {
                            // Mid-log damage: later records exist, so this is
                            // a detectable hole, not a torn tail. Skip to the
                            // next record magic.
                            self.damaged.push((label, reason));
                            pos = next;
                        }
                        None => {
                            // Tail damage. Inside the committed region it is
                            // real corruption (an in-place writer claimed these
                            // bytes); beyond it, the benign torn tail of a
                            // crashed append, silently truncated on replay.
                            if at < self.committed_len {
                                self.damaged.push((label, reason));
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
        if let Some(l) = &self.latest {
            if !self.manifests.contains_key(l) {
                self.latest = None;
            }
        }
    }

    /// Adopts the root in `slot`. The lengths say the log ends where the
    /// root does: true of a root just written, and what [`replay`] then
    /// corrects from the file it reads.
    fn rooted(&mut self, root: &RootSlot, slot: usize) {
        self.generation = root.generation;
        self.epoch = root.epoch;
        self.root_slot = slot;
        self.committed_len = root.committed_len;
        self.valid_len = root.committed_len;
        self.file_len = root.committed_len;
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
                out.rooted(root, *slot);
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
    out.valid_len = LOG_HEADER_LEN;
    out.scan(&bytes[LOG_HEADER_LEN as usize..], LOG_HEADER_LEN);
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

/// Commit durability protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommitMode {
    /// Append, then write the stale root slot; crash-safe at every point.
    #[default]
    Atomic,
    /// Overwrite the live root slot, then append — the unsafe baseline.
    InPlaceUnsafe,
}

/// How one commit is written: the part of a save's options the log acts on.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommitWrite {
    /// Which root slot is written, and when.
    pub mode: CommitMode,
    /// fsync the log append and the root-slot write.
    pub fsync: bool,
}

/// Records [`ManifestLog::append`] has landed and
/// [`ManifestLog::publish`] has yet to make visible.
#[derive(Debug)]
pub struct Appended {
    offset: u64,
    records: Vec<u8>,
    how: CommitWrite,
}

/// One directory's manifest log and root slots, with the state they replay
/// to: the owner of the commit protocol (see the module docs).
#[derive(Debug)]
pub struct ManifestLog {
    dir: PathBuf,
    state: LogReplay,
    /// Set at construction and by [`Self::invalidate`]: the next
    /// [`Self::refresh`] replays without asking the disk whether it has to.
    stale: bool,
}

impl ManifestLog {
    /// The log under `dir`. No I/O: the handle starts out stale, and the
    /// first [`Self::refresh`] replays (an empty directory replays to the
    /// empty state; nothing is created until the first commit).
    pub fn new(dir: impl Into<PathBuf>) -> ManifestLog {
        ManifestLog {
            dir: dir.into(),
            state: LogReplay::default(),
            stale: true,
        }
    }

    /// The replayed state as of the last [`Self::refresh`] or commit
    /// (empty before the first).
    pub fn state(&self) -> &LogReplay {
        &self.state
    }

    /// Test hook: the cached state, for planting what a half-finished
    /// update could leave behind.
    #[cfg(test)]
    pub(crate) fn state_mut(&mut self) -> &mut LogReplay {
        &mut self.state
    }

    /// Path of the current epoch's log file.
    pub fn log_path(&self) -> PathBuf {
        log_path(&self.dir, self.state.epoch)
    }

    /// Whether the cached state still describes the directory: the newest
    /// root generation and the log length (two tiny reads) are what this
    /// handle last saw, so a commit by any other handle shows.
    pub fn is_current(&self) -> bool {
        if self.stale {
            return false;
        }
        let generation = read_root_slots(&self.dir)
            .iter()
            .flatten()
            .map(|r| r.generation)
            .max()
            .unwrap_or(0);
        let len = fs::metadata(self.log_path()).map_or(0, |m| m.len());
        generation == self.state.generation && len == self.state.file_len
    }

    /// Replays from disk unless the cached state [`Self::is_current`].
    ///
    /// # Errors
    ///
    /// As [`replay`].
    pub fn refresh(&mut self) -> Result<()> {
        if !self.is_current() {
            self.state = replay(&self.dir)?;
            self.stale = false;
        }
        Ok(())
    }

    /// Distrusts the cached state: after a failed or simulated-crash
    /// commit, or a panic under the owner's lock, only the disk knows
    /// what landed.
    pub fn invalidate(&mut self) {
        self.stale = true;
    }

    /// Drops a benign torn tail (bytes past the last valid record, at or
    /// beyond the committed length) from the log file. Tail damage
    /// *inside* the committed region is evidence of in-place corruption
    /// and is preserved for detection. Returns whether bytes were cut.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn truncate_torn_tail(&mut self) -> Result<bool> {
        let st = &mut self.state;
        let torn = st.file_len > st.valid_len && st.valid_len >= st.committed_len;
        if torn {
            durable::truncate(&log_path(&self.dir, st.epoch), st.valid_len)?;
            st.file_len = st.valid_len;
        }
        Ok(torn)
    }

    /// The root that publishes `committed_len` bytes of log `epoch`:
    /// generation + 1, carrying the state's latest pointer.
    fn next_root(&self, epoch: u64, committed_len: u64) -> RootSlot {
        RootSlot {
            generation: self.state.generation + 1,
            epoch,
            committed_len,
            latest: self.state.latest.clone(),
        }
    }

    /// Phase one of a commit: lands `records` (whole framed records) past
    /// the committed length, after dropping a torn tail. Nothing is
    /// visible until [`Self::publish`] — unless `how` is
    /// [`CommitMode::InPlaceUnsafe`], which publishes first.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn append(&mut self, records: Vec<u8>, how: &CommitWrite) -> Result<Appended> {
        self.truncate_torn_tail()?;
        if how.mode == CommitMode::InPlaceUnsafe {
            let offset = self.state.file_len.max(LOG_HEADER_LEN);
            self.flip(&records, offset, self.state.root_slot, how.fsync)?;
        }
        let offset = append_to_log(&self.dir, self.state.epoch, &records, how.fsync)?;
        Ok(Appended {
            offset,
            records,
            how: *how,
        })
    }

    /// Phase two: applies the appended records to the cached state — with
    /// the function [`replay`] applies them with — and makes them the
    /// committed view by writing the stale root slot (a torn write only
    /// damages a root already stale) with generation + 1. Returns the
    /// fsyncs the whole commit issued (0, or 2 with `fsync` on).
    ///
    /// # Errors
    ///
    /// Filesystem errors; the cached state is then ahead of the disk and
    /// must be [`Self::invalidate`]d.
    pub fn publish(&mut self, appended: Appended) -> Result<u64> {
        let how = appended.how;
        if how.mode == CommitMode::Atomic {
            let stale = 1 - self.state.root_slot;
            self.flip(&appended.records, appended.offset, stale, how.fsync)?;
        }
        Ok(2 * u64::from(how.fsync))
    }

    /// Applies `records`, framed at log offset `offset`, to the cached
    /// state and writes the root that commits them into `slot`.
    fn flip(&mut self, records: &[u8], offset: u64, slot: usize, fsync: bool) -> Result<()> {
        self.state.scan(records, offset);
        let root = self.next_root(self.state.epoch, offset + records.len() as u64);
        write_root_slot(&self.dir, slot, &root, fsync)?;
        self.state.rooted(&root, slot);
        Ok(())
    }

    /// Both phases back to back (atomic, no fsync), for commits with
    /// nothing to mirror in between: retention's tombstones, the
    /// shared-metadata pull.
    ///
    /// # Errors
    ///
    /// As the two phases.
    pub fn commit(&mut self, records: Vec<u8>) -> Result<()> {
        let appended = self.append(records, &CommitWrite::default())?;
        self.publish(appended).map(drop)
    }

    /// Rewrites the live state into the next epoch's log — live manifests,
    /// tombstones when `keep_tombstones` (the durable delete intent a
    /// shared backend reconciles its mirror from; otherwise only the newest,
    /// when it holds the seq high-water mark), the latest pointer —
    /// staged under `staging` and renamed in (the one rename retention
    /// pays); the root flips to the new epoch and older logs are deleted.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn compact(&mut self, staging: &Path, keep_tombstones: bool) -> Result<()> {
        static STAGE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let _span = qobs::span("qcheck.compact_log");
        crate::obs::COMPACTIONS.inc();
        let st = &self.state;
        let epoch = st.epoch + 1;
        let puts = st.manifests.iter();
        // A dropped tombstone set keeps its newest member when that is above
        // every live id: it carries the seq high-water mark, so `next_seq`
        // never falls back and no id is handed out twice.
        let high_water = st
            .tombstones
            .last()
            .filter(|t| st.manifests.keys().next_back().is_none_or(|live| *t > live));
        let deletes = st
            .tombstones
            .iter()
            .filter(|t| keep_tombstones || Some(*t) == high_water);
        let records = puts
            .map(|(id, m)| (RecordKind::ManifestPut, id, m.encode()))
            .chain(deletes.map(|id| (RecordKind::ManifestDelete, id, Vec::new())))
            .chain(
                st.latest
                    .iter()
                    .map(|id| (RecordKind::LatestAdvance, id, Vec::new())),
            );
        let mut buf = log_header(epoch);
        for (kind, id, payload) in records {
            buf.extend(encode_record(kind, id.as_str(), &payload));
        }
        let tmp = staging.join(format!(
            "stage-{}-{}",
            std::process::id(),
            STAGE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        durable::publish(&tmp, &log_path(&self.dir, epoch), &buf, true)?;
        let root = self.next_root(epoch, buf.len() as u64);
        let slot = 1 - st.root_slot;
        write_root_slot(&self.dir, slot, &root, true)?;
        for old in list_log_epochs(&self.dir) {
            if old != epoch {
                durable::remove(&log_path(&self.dir, old))?;
            }
        }
        // The new epoch's state is what its log replays to.
        let mut next = LogReplay {
            latest: root.latest.clone(),
            root_fallback: st.root_fallback,
            ..LogReplay::default()
        };
        next.scan(&buf[LOG_HEADER_LEN as usize..], LOG_HEADER_LEN);
        next.rooted(&root, slot);
        self.state = next;
        Ok(())
    }

    /// Fault-injection hook: damages the *log record* carrying `id`'s
    /// manifest in place. `BitFlip` flips one payload byte, `Truncate`
    /// chops the record (and everything after it), `Delete` scrubs the
    /// record to same-length padding so the id vanishes without a frame
    /// error. The cached state is invalidated.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] when the log carries no record for `id`.
    pub fn damage_record(&mut self, id: &CheckpointId, fault: StorageFault) -> Result<()> {
        let &(off, len) = self.state.spans.get(id).ok_or_else(|| Error::NotFound {
            what: format!("manifest record {id}"),
        })?;
        let (off, len) = (off as usize, len as usize);
        let path = self.log_path();
        let mut bytes = fs::read(&path).map_err(|e| Error::io("reading manifest log", e))?;
        match fault {
            StorageFault::BitFlip { offset } => {
                // Land inside the record payload (past the frame header,
                // short of the trailing CRC) so the flip damages manifest
                // bytes, not the record id.
                let header = RECORD_OVERHEAD - 4 + id.as_str().len();
                let payload_len = len.saturating_sub(header + 4).max(1);
                bytes[off + header + offset as usize % payload_len] ^= 0x01;
            }
            StorageFault::Truncate { keep_pct } => {
                bytes.truncate(off + len * usize::from(keep_pct.min(100)) / 100);
            }
            StorageFault::Delete => {
                let pad = encode_record(RecordKind::Padding, "", &vec![0; len - RECORD_OVERHEAD]);
                bytes[off..off + len].copy_from_slice(&pad);
            }
        }
        fs::write(&path, &bytes).map_err(|e| Error::io("writing manifest log", e))?;
        self.invalidate();
        Ok(())
    }
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

    fn id(s: &str) -> CheckpointId {
        CheckpointId(s.to_string())
    }

    /// The record pair a save writes.
    fn put_and_advance(m: &Manifest) -> Vec<u8> {
        let mut rec = encode_record(RecordKind::ManifestPut, m.id.as_str(), &m.encode());
        rec.extend(encode_record(RecordKind::LatestAdvance, m.id.as_str(), &[]));
        rec
    }

    fn delete(id: &str) -> Vec<u8> {
        encode_record(RecordKind::ManifestDelete, id, &[])
    }

    fn open(dir: &Path) -> ManifestLog {
        let mut log = ManifestLog::new(dir);
        log.refresh().unwrap();
        log
    }

    /// A log on `dir` with one save committed per id.
    fn log_with(dir: &Path, ids: &[&str]) -> ManifestLog {
        let mut log = open(dir);
        for id in ids {
            commit(&mut log, put_and_advance(&manifest(id)));
        }
        log
    }

    /// Commits `records` and checks the cached state against a replay.
    fn commit(log: &mut ManifestLog, records: Vec<u8>) {
        log.commit(records).unwrap();
        assert_eq!(log.state(), &replay(&log.dir).unwrap());
    }

    const A: &str = "ckpt-0000000001-000000";
    const B: &str = "ckpt-0000000002-000001";
    const C: &str = "ckpt-0000000003-000002";

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
        let mut log = log_with(&dir, &[A, B]);
        let st = replay(&dir).unwrap();
        assert_eq!(st.generation, 2);
        assert_eq!(st.manifests.len(), 2);
        assert_eq!(st.latest, Some(id(B)));
        assert!(st.damaged.is_empty());
        // Retire the older one.
        commit(&mut log, delete(A));
        let st = replay(&dir).unwrap();
        assert_eq!(st.generation, 3);
        assert_eq!(st.manifests.len(), 1);
        assert!(st.tombstones.contains(&id(A)));
        assert_eq!(st.latest, Some(id(B)));
        assert_eq!(st.next_seq, 2);
        // A put whose manifest does not decode still uses up its id.
        let junk = encode_record(RecordKind::ManifestPut, "ckpt-0000000001-000007", b"junk");
        commit(&mut log, junk);
        let st = replay(&dir).unwrap();
        assert_eq!(st.damaged.len(), 1);
        assert_eq!(st.next_seq, 8, "a damaged put's id is handed out again");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_beyond_committed_is_silently_truncated() {
        let dir = scratch("tail");
        let mut log = log_with(&dir, &[A]);
        let full = replay(&dir).unwrap();
        // Append a torn (partial) record without flipping the root.
        let rec = encode_record(RecordKind::ManifestPut, "ckpt-0000000002-000001", b"junk");
        append_to_log(&dir, 0, &rec[..rec.len() / 2], false).unwrap();
        let st = replay(&dir).unwrap();
        assert_eq!(st.manifests.len(), 1);
        assert!(st.damaged.is_empty(), "{:?}", st.damaged);
        assert_eq!(st.valid_len, full.valid_len);
        assert!(st.file_len > st.valid_len);
        // The owner sees the longer file, and cuts the tail before it
        // appends: the log is then what two clean commits leave.
        assert!(!log.is_current());
        log.refresh().unwrap();
        commit(&mut log, put_and_advance(&manifest(B)));
        assert_eq!(log.state().file_len, log.state().valid_len);
        assert_eq!(log.state().manifests.len(), 2);
        assert!(!log.truncate_torn_tail().unwrap());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn complete_records_beyond_committed_still_count() {
        let dir = scratch("beyond");
        let mut log = log_with(&dir, &[A]);
        // Full append of checkpoint 2, but the root never flipped
        // (crash before the root write).
        log.append(put_and_advance(&manifest(B)), &CommitWrite::default())
            .unwrap();
        let st = replay(&dir).unwrap();
        assert_eq!(st.generation, 1);
        assert_eq!(st.manifests.len(), 2, "newest valid wins");
        assert_eq!(st.latest, Some(id(B)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn mid_log_damage_is_skipped_with_resync() {
        let dir = scratch("midlog");
        let mut log = log_with(&dir, &[A, B]);
        // Flip a payload byte of the *older* record.
        log.damage_record(&id(A), StorageFault::BitFlip { offset: 40 })
            .unwrap();
        let st = replay(&dir).unwrap();
        assert_eq!(st.manifests.len(), 1, "later record must survive");
        assert!(st.manifests.contains_key(&id(B)));
        assert_eq!(st.damaged.len(), 1);
        assert_eq!(st.damaged[0].0, A);
        // The hook left the owner stale; refreshed, it reports the same.
        log.refresh().unwrap();
        assert_eq!(log.state(), &st);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_newest_root_falls_back_to_previous_slot() {
        let dir = scratch("rootfall");
        let log = log_with(&dir, &[A, B]);
        // Tear the newest root (generation 2) at every prefix.
        let newest = root_slot_path(&dir, log.state().root_slot);
        let good = fs::read(&newest).unwrap();
        for keep in 0..good.len() {
            fs::write(&newest, &good[..keep]).unwrap();
            let st = replay(&dir).unwrap();
            assert_eq!(st.generation, 1, "keep={keep}");
            assert!(st.root_fallback, "keep={keep}");
            // The log records are intact, so both manifests still replay.
            assert_eq!(st.manifests.len(), 2, "keep={keep}");
        }
        fs::write(&newest, &good).unwrap();
        assert!(!replay(&dir).unwrap().root_fallback);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_dir_replays_to_empty_state() {
        let dir = scratch("empty");
        assert_eq!(replay(&dir).unwrap(), LogReplay::default());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn padding_records_are_invisible() {
        let dir = scratch("pad");
        let mut log = log_with(&dir, &[A]);
        let len_before = fs::metadata(log.log_path()).unwrap().len();
        // Scrub the record in place with a same-length padding record.
        log.damage_record(&id(A), StorageFault::Delete).unwrap();
        assert_eq!(fs::metadata(log.log_path()).unwrap().len(), len_before);
        let st = replay(&dir).unwrap();
        assert!(st.manifests.is_empty());
        assert!(st.latest.is_none(), "the pointer dangles");
        assert!(st.damaged.is_empty(), "{:?}", st.damaged);
        let _ = fs::remove_dir_all(dir);
    }

    /// (i) Whatever a commit writes, the state `publish` leaves in memory
    /// is the state a fresh replay of the directory reaches: each record
    /// kind on its own (`commit` asserts it), then one batch mixing all
    /// three.
    #[test]
    fn publish_leaves_the_state_replay_reaches() {
        let dir = scratch("publish");
        let mut log = open(&dir);
        let put = |m: &Manifest| encode_record(RecordKind::ManifestPut, m.id.as_str(), &m.encode());
        commit(&mut log, put(&manifest(A)));
        assert_eq!(log.state().latest, None);
        commit(&mut log, encode_record(RecordKind::LatestAdvance, A, &[]));
        assert_eq!(log.state().latest, Some(id(A)));
        commit(&mut log, delete(A));
        assert_eq!(log.state().latest, None, "the pointer itself was retired");
        assert!(log.state().manifests.is_empty());

        let mut batch = put_and_advance(&manifest(B));
        batch.extend(put(&manifest(C)));
        batch.extend(delete(B));
        batch.extend(put(&manifest(A)));
        commit(&mut log, batch);
        let st = log.state();
        assert_eq!(st.manifests.keys().collect::<Vec<_>>(), [&id(A), &id(C)]);
        assert_eq!(st.tombstones.iter().collect::<Vec<_>>(), [&id(B)]);
        assert_eq!(
            (st.generation, st.records, st.latest.as_ref()),
            (4, 8, None)
        );
        assert_eq!(st.spans.len(), 2);
        let _ = fs::remove_dir_all(dir);
    }

    /// (ii) Two owners of one directory: a commit through the first makes
    /// the second "not current" until it refreshes.
    #[test]
    fn a_second_owner_sees_the_first_ones_commit() {
        let dir = scratch("two");
        let mut first = log_with(&dir, &[A]);
        let mut second = ManifestLog::new(&dir);
        assert!(first.is_current() && !second.is_current());
        second.refresh().unwrap();
        assert!(second.is_current());
        commit(&mut first, put_and_advance(&manifest(B)));
        assert!(first.is_current());
        assert!(!second.is_current());
        second.refresh().unwrap();
        assert!(second.is_current());
        assert_eq!(second.state(), first.state());
        // An append alone (no publish yet) shows as well: the log grew.
        second.append(delete(A), &CommitWrite::default()).unwrap();
        assert!(!first.is_current());
        // And `invalidate` needs no disk change to force the replay.
        second.invalidate();
        assert!(!second.is_current());
        second.refresh().unwrap();
        assert!(second.state().tombstones.contains(&id(A)));
        let _ = fs::remove_dir_all(dir);
    }

    /// (iii) Compaction leaves in memory the state its new log replays
    /// to, with tombstones retained (shared backend) and dropped (local).
    #[test]
    fn compaction_replays_to_the_state_it_left() {
        for keep_tombstones in [true, false] {
            let dir = scratch("compact");
            let staging = dir.join("tmp");
            fs::create_dir_all(&staging).unwrap();
            let mut log = log_with(&dir, &[A, B, C]);
            commit(&mut log, delete(A));
            let before = log.state().clone();
            log.compact(&staging, keep_tombstones).unwrap();
            let st = log.state();
            assert_eq!(st, &replay(&dir).unwrap());
            assert_eq!((st.epoch, st.generation), (1, before.generation + 1));
            assert_eq!(list_log_epochs(&dir), [1], "the old log is deleted");
            assert_eq!(fs::read_dir(&staging).unwrap().count(), 0);
            assert_eq!(st.manifests, before.manifests);
            assert_eq!(st.latest, before.latest);
            assert_eq!(st.tombstones.contains(&id(A)), keep_tombstones);
            assert_eq!(st.records, 3 + u64::from(keep_tombstones));
            // The compacted log takes commits like any other.
            commit(&mut log, delete(B));
            let _ = fs::remove_dir_all(dir);
        }
    }

    /// A crash at each write of a commit, torn by the fault plan at the
    /// `durable` seam (the protocol holds no drill of its own), atomic and
    /// in place; and the in-place order, completed, writes the same bytes.
    #[test]
    fn drills_tear_the_write_they_name() {
        use crate::failure::{arm, Fault};
        let torn = Fault::Crash { keep_pct: 50 };
        let in_place = CommitWrite {
            mode: CommitMode::InPlaceUnsafe,
            fsync: false,
        };
        // Atomic: a torn append (op 1) is debris past the committed length.
        let dir = scratch("drill-atomic");
        let mut log = log_with(&dir, &[A]);
        let err = {
            let _armed = arm(&dir, 1, torn);
            log.append(put_and_advance(&manifest(B)), &CommitWrite::default())
                .unwrap_err()
        };
        assert!(matches!(err, Error::SimulatedCrash { .. }), "{err}");
        let st = replay(&dir).unwrap();
        assert_eq!((st.generation, st.manifests.len()), (1, 1));
        assert!(st.damaged.is_empty() && st.file_len > st.valid_len);
        // A torn root write (op 3, after cutting that tail and appending)
        // only ever hits the stale slot.
        log.invalidate();
        log.refresh().unwrap();
        let live = log.state().root_slot;
        {
            let _armed = arm(&dir, 3, torn);
            let appended = log
                .append(put_and_advance(&manifest(B)), &CommitWrite::default())
                .unwrap();
            assert!(log.publish(appended).is_err());
        }
        let st = replay(&dir).unwrap();
        assert_eq!((st.generation, st.root_slot), (1, live));
        assert!(st.root_fallback);
        assert_eq!(st.manifests.len(), 2, "the complete append still counts");
        let _ = fs::remove_dir_all(dir);

        // In place: the live root advances (op 1) before the record lands
        // (op 2), so the torn record sits inside the committed region —
        // real damage.
        let dir = scratch("drill-inplace");
        let mut log = log_with(&dir, &[A]);
        let live = log.state().root_slot;
        {
            let _armed = arm(&dir, 2, torn);
            assert!(log
                .append(put_and_advance(&manifest(B)), &in_place)
                .is_err());
        }
        let st = replay(&dir).unwrap();
        assert_eq!((st.generation, st.root_slot), (2, live));
        assert_eq!(st.damaged.len(), 1, "{:?}", st.damaged);
        let _ = fs::remove_dir_all(dir);

        // Completed, the in-place order leaves the log and root bytes an
        // atomic commit leaves, the root in the other slot.
        let (atomic_dir, in_place_dir) = (scratch("order-atomic"), scratch("order-inplace"));
        let mut atomic = log_with(&atomic_dir, &[A]);
        let mut unsafe_log = log_with(&in_place_dir, &[A]);
        commit(&mut atomic, put_and_advance(&manifest(B)));
        let appended = unsafe_log
            .append(put_and_advance(&manifest(B)), &in_place)
            .unwrap();
        assert_eq!(unsafe_log.publish(appended).unwrap(), 0);
        assert_eq!(unsafe_log.state(), &replay(&in_place_dir).unwrap());
        let (a, b) = (atomic.state(), unsafe_log.state());
        assert_eq!((a.generation, a.root_slot), (2, 1 - b.root_slot));
        assert_eq!(
            fs::read(atomic.log_path()).unwrap(),
            fs::read(unsafe_log.log_path()).unwrap()
        );
        assert_eq!(
            fs::read(root_slot_path(&atomic_dir, a.root_slot)).unwrap(),
            fs::read(root_slot_path(&in_place_dir, b.root_slot)).unwrap()
        );
        let _ = fs::remove_dir_all(atomic_dir);
        let _ = fs::remove_dir_all(in_place_dir);
    }
}

//! Replication: the per-namespace oplog and the secondary's tailer.
//!
//! ## The oplog
//!
//! The oplog is a namespace's only metadata record. A primary appends one
//! [`OplogOp`] per metadata mutation — manifest publishes and `LATEST`
//! advances (`MetaPut`), retention deletes (`MetaDelete`), mark-and-sweep
//! runs (`Sweep`) — and the append *is* the commit: `MetaGet` and
//! `MetaList` answer from an in-memory index of the log ([`Oplog::get`],
//! [`Oplog::names`]), which holds each live name's entry offset, never its
//! bytes. Chunk content is deliberately **not** logged — it is
//! content-addressed, so a secondary derives what it is missing from each
//! replicated manifest and pulls exactly that over [`Request::Fetch`] —
//! the op every client reads chunks with, here naming the replicated
//! namespace; re-pulling after a crash is idempotent by construction.
//!
//! On disk the log is one append-only file per namespace
//! (`ns/<name>/OPLOG`) of CRC-framed records, the same framing as the
//! wire (`len | body | crc32`) with the body being `offset u64` followed
//! by the op's wire encoding. A torn tail — the daemon died mid-append —
//! is detected by the CRC and truncated away on open: an oplog entry
//! either fully committed or never happened, matching the store's
//! staged-rename discipline. Only the last frame can be torn, since every
//! append first cuts the file back to its scanned end. A record that
//! fails its CRC with bytes after it, or whose CRC holds but whose body
//! does not decode, is damage, not a tear: the open fails with
//! [`Error::Corrupt`] and the file is left as found.
//!
//! ## The tailer
//!
//! A secondary polls its primary: [`Request::ReplStatus`] discovers
//! namespaces and their log lengths, [`Request::ReplFetch`] streams
//! entries from the local offset, and each entry is applied by appending
//! it — after its chunks are pulled, **re-verified** against their content
//! addresses (the replication link is not trusted over the hash, same as
//! every other path) and stored, and after its sweep ran, for a `Sweep`.
//! The local oplog keeps the primary's offsets, so a promoted secondary
//! can itself be tailed, and the applied offset is acked for primary-side
//! lag accounting.
//!
//! Nothing becomes reachable before its chunks are durable: a crash
//! between the chunk put and the append leaves orphan chunks at worst —
//! exactly the debris recovery and GC already tolerate — and the entry is
//! re-applied idempotently on the next pass. Crash drills arm the fault
//! plan ([`crate::failure::arm`]) on the secondary's namespace directory.
//! A chunk the primary no longer holds (swept while the secondary was
//! behind) arrives as `None` and is skipped: the sweep that removed it is
//! a later entry in the same log, so convergence at full catch-up is
//! unaffected.

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::codec::{Decoder, Encoder};
use crate::durable;
use crate::error::{Error, Result};
use crate::manifest::Manifest;
use crate::store::{ObjectStore, StagedChunk};
use crate::sync::lock_recover;

use super::client::Conn;
use super::proto::{
    self, read_frame, valid_namespace, write_frame, OplogOp, OplogRecord, Request, Response,
    HELLO_FLAG_REPL, PROTO_VERSION, ROLE_SECONDARY,
};
use super::server::Shared;

/// File name of a namespace's oplog, directly under the namespace root.
pub const OPLOG_FILE: &str = "OPLOG";

/// Entries per `ReplFetch` round trip.
const FETCH_BATCH: u32 = 256;

/// Delay between tail polls when caught up.
const POLL_INTERVAL: Duration = Duration::from_millis(150);

/// How a secondary follows its primary (part of
/// [`super::ServerConfig`]).
#[derive(Clone, Debug)]
pub struct ReplicateConfig {
    /// Primary address (`host:port`).
    pub primary_addr: String,
    /// Auth token to present to the primary, when it requires one.
    pub auth_token: Option<String>,
    /// Disable the background tailer thread; tests drive replication
    /// one pass at a time through `DaemonHandle::repl_sync`, crashing a
    /// pass with the fault plan armed on the namespace directory.
    pub manual: bool,
}

impl ReplicateConfig {
    /// Follows `primary_addr`, tailing in the background.
    pub fn new(primary_addr: impl Into<String>) -> Self {
        ReplicateConfig {
            primary_addr: primary_addr.into(),
            auth_token: None,
            manual: false,
        }
    }
}

/// Outcome of one replication pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Oplog entries applied (and appended locally).
    pub entries_applied: u64,
    /// Chunks pulled over the wire.
    pub chunks_pulled: u64,
    /// Entries still outstanding after this pass (lag).
    pub remaining: u64,
    /// The primary's generation as of this pass.
    pub primary_generation: u64,
    /// Namespaces whose catch-up failed on bad *data* (e.g. a pulled
    /// chunk failing its content address) and were set aside for this
    /// pass so the rest of the tenant set keeps replicating. Transport
    /// failures are not quarantine — they abort the pass for a
    /// reconnect.
    pub quarantined: u64,
}

// ---------------------------------------------------------------------
// Oplog
// ---------------------------------------------------------------------

/// One namespace's append-only, CRC-framed oplog.
#[derive(Debug)]
pub struct Oplog {
    path: PathBuf,
    state: Mutex<OplogState>,
}

#[derive(Debug, Default)]
struct OplogState {
    /// Byte offset where each record starts (index = entry offset).
    starts: Vec<u64>,
    /// Byte length of the valid log (truncation point for appends).
    end: u64,
    /// Each live metadata name's newest `MetaPut`, by entry offset.
    names: BTreeMap<String, u64>,
}

impl OplogState {
    /// Records that `op` landed as the next entry, `len` bytes long.
    fn push(&mut self, op: &OplogOp, len: u64) {
        let entry = self.starts.len() as u64;
        match op {
            OplogOp::MetaPut { name, .. } => {
                self.names.insert(name.clone(), entry);
            }
            OplogOp::MetaDelete { name } => {
                self.names.remove(name);
            }
            OplogOp::Sweep { .. } => {}
        }
        self.starts.push(self.end);
        self.end += len;
    }
}

/// Decodes the body of the record at entry `entry`; a body that does not
/// decode, or names another offset, is damage under an intact CRC.
fn decode_record(body: &[u8], entry: u64) -> Result<OplogRecord> {
    let mut dec = Decoder::new(body, "oplog record");
    let decoded = dec.get_u64().and_then(|offset| {
        let op = OplogOp::decode_from(&mut dec)?;
        dec.finish().map(|()| OplogRecord { offset, op })
    });
    let damage = |what: String| Error::corrupt("oplog", format!("record at entry {entry}: {what}"));
    match decoded {
        Ok(rec) if rec.offset == entry => Ok(rec),
        Ok(rec) => Err(damage(format!("claims offset {}", rec.offset))),
        Err(e) => Err(damage(e.to_string())),
    }
}

impl Oplog {
    /// Opens (or creates) the oplog under `ns_root`, scanning existing
    /// records and truncating a torn tail.
    ///
    /// # Errors
    ///
    /// I/O errors other than a missing file, and [`Error::Corrupt`] for a
    /// record that fails its CRC with bytes after it, or whose CRC holds
    /// but whose body does not decode.
    pub fn open(ns_root: &Path) -> Result<Oplog> {
        let path = ns_root.join(OPLOG_FILE);
        let state = Mutex::new(Self::scan(&path)?);
        Ok(Oplog { path, state })
    }

    /// Indexes the records of the file at `path`, truncating a torn tail:
    /// what `open` starts from, and what a poisoned lock falls back to.
    fn scan(path: &Path) -> Result<OplogState> {
        let mut state = OplogState::default();
        let file = match fs::File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(state),
            Err(e) => return Err(Error::io(format!("opening {}", path.display()), e)),
        };
        let file_len = file
            .metadata()
            .map_err(|e| Error::io("reading oplog metadata", e))?
            .len();
        let mut reader = std::io::BufReader::new(file);
        // A tear can only be the last frame — every append first cuts the
        // file back to `end` — so a frame that runs past the end of the
        // file, or fails its CRC as the file's last frame, is a torn tail:
        // everything before `end` is intact; drop the rest. A frame that
        // fails its CRC with bytes after it is damage, left as found.
        let mut prefix = [0u8; 4];
        while reader.read_exact(&mut prefix).is_ok() {
            let len = 8 + u64::from(u32::from_le_bytes(prefix));
            if state.end + len > file_len {
                break;
            }
            let body = match read_frame(&mut prefix.as_slice().chain(&mut reader)) {
                Ok(body) => body,
                Err(Error::Protocol { .. }) if state.end + len == file_len => break,
                Err(e @ Error::Protocol { .. }) => {
                    return Err(Error::corrupt(
                        "oplog",
                        format!(
                            "record at entry {}: {e}, with {} bytes after it",
                            state.starts.len(),
                            file_len - state.end - len
                        ),
                    ))
                }
                Err(e) => return Err(e),
            };
            let rec = decode_record(&body, state.starts.len() as u64)?;
            state.push(&rec.op, len);
        }
        if state.end < file_len {
            durable::truncate(path, state.end)?;
        }
        Ok(state)
    }

    /// The index lock. A holder that panicked may have left the index and
    /// the file disagreeing by one record; the file is the truth, so the
    /// index is rebuilt from it exactly as `open` builds it.
    fn lock_state(&self) -> MutexGuard<'_, OplogState> {
        lock_recover(&self.state, |state| {
            if let Ok(scanned) = Self::scan(&self.path) {
                *state = scanned;
            }
        })
    }

    /// Number of committed entries.
    pub fn len(&self) -> u64 {
        self.lock_state().starts.len() as u64
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `op` at the next offset and returns that offset.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; the log is untouched then.
    pub fn append(&self, op: &OplogOp) -> Result<u64> {
        let mut state = self.lock_state();
        let offset = state.starts.len() as u64;
        self.append_locked(&mut state, offset, op)?;
        Ok(offset)
    }

    /// Appends a record replicated from a primary; its offset must be
    /// exactly the next local offset (the logs stay aligned, which is
    /// what lets a promoted secondary be tailed in turn).
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] on an offset gap, otherwise I/O errors.
    pub fn append_record(&self, rec: &OplogRecord) -> Result<()> {
        let mut state = self.lock_state();
        let next = state.starts.len() as u64;
        if rec.offset != next {
            return Err(Error::protocol(
                "appending replicated oplog entry",
                format!("offset {} does not follow local length {next}", rec.offset),
            ));
        }
        self.append_locked(&mut state, rec.offset, &rec.op)
    }

    fn append_locked(&self, state: &mut OplogState, offset: u64, op: &OplogOp) -> Result<()> {
        let mut enc = Encoder::new();
        enc.put_u64(offset);
        op.encode_into(&mut enc);
        let body = enc.into_bytes();
        // Defensive: if an earlier crash left bytes past the scanned
        // end, appending would interleave with garbage; truncate first.
        if fs::metadata(&self.path).map_or(0, |m| m.len()) != state.end {
            durable::truncate(&self.path, state.end)?;
        }
        // One `write` per record, as ever: a kill lands between records,
        // not between a length prefix and its body.
        let mut record = Vec::with_capacity(8 + body.len());
        write_frame(&mut record, &body)?;
        durable::append(&self.path, &[], &record, false)?;
        state.push(op, record.len() as u64);
        Ok(())
    }

    /// The bytes of `name`'s newest `MetaPut`, unless a later `MetaDelete`
    /// removed the name.
    ///
    /// # Errors
    ///
    /// As [`Oplog::read_from`], and [`Error::Corrupt`] when the indexed
    /// record is no longer that `MetaPut`.
    pub fn get(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let Some(entry) = self.lock_state().names.get(name).copied() else {
            return Ok(None);
        };
        match self.read_from(entry, 1)?.pop().map(|rec| rec.op) {
            Some(OplogOp::MetaPut { bytes, .. }) => Ok(Some(bytes)),
            _ => Err(Error::corrupt(
                "oplog",
                format!("entry {entry} is not the MetaPut of {name:?}"),
            )),
        }
    }

    /// The live metadata names starting with `prefix`, sorted.
    pub fn names(&self, prefix: &str) -> Vec<String> {
        let state = self.lock_state();
        let names = state.names.keys().filter(|n| n.starts_with(prefix));
        names.cloned().collect()
    }

    /// Reads up to `max` records starting at entry offset `from`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, and with [`Error::Corrupt`] on a record that
    /// no longer decodes (the scanned prefix is trusted; this means
    /// on-disk damage after open).
    pub fn read_from(&self, from: u64, max: usize) -> Result<Vec<OplogRecord>> {
        let (start_byte, available) = {
            let state = self.lock_state();
            let total = state.starts.len() as u64;
            if from >= total {
                return Ok(Vec::new());
            }
            (state.starts[from as usize], (total - from) as usize)
        };
        let mut file =
            fs::File::open(&self.path).map_err(|e| Error::io("opening oplog for read", e))?;
        file.seek(SeekFrom::Start(start_byte))
            .map_err(|e| Error::io("seeking oplog", e))?;
        let mut reader = std::io::BufReader::new(file);
        let mut out = Vec::new();
        for entry in from..from + available.min(max) as u64 {
            out.push(decode_record(&read_frame(&mut reader)?, entry)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Replication client (secondary -> primary)
// ---------------------------------------------------------------------

/// `REPL_STATUS` result: the primary's generation, its role byte, and
/// each namespace's oplog length.
pub(crate) type PrimaryStatus = (u64, u8, Vec<(String, u64)>);

/// A dedicated connection a secondary holds to its primary. Namespace
/// `control` is nominal — `REPL_*` ops name their namespace explicitly.
pub(crate) struct ReplClient {
    conn: Conn,
}

impl ReplClient {
    pub(crate) fn connect(addr: &str, auth: Option<&str>) -> Result<ReplClient> {
        let hello = Request::Hello {
            version: PROTO_VERSION,
            namespace: "control".into(),
            auth: auth.unwrap_or("").to_string(),
            flags: HELLO_FLAG_REPL,
            lease_token: 0,
            min_generation: 0,
        };
        let (conn, answer) = Conn::open(addr, &hello)?;
        match answer.into_result("replicating")? {
            Response::HelloOk { .. } => Ok(ReplClient { conn }),
            other => Err(Error::protocol(
                "replication handshake",
                format!("unexpected response {other:?}"),
            )),
        }
    }

    fn request(&mut self, req: &Request) -> Result<Response> {
        write_frame(&mut self.conn.writer, &req.encode())?;
        self.conn
            .writer
            .flush()
            .map_err(|e| Error::io("flushing replication request", e))?;
        Response::decode(&read_frame(&mut self.conn.reader)?)?.into_result("replicating")
    }

    pub(crate) fn status(&mut self) -> Result<PrimaryStatus> {
        match self.request(&Request::ReplStatus)? {
            Response::ReplStatus {
                generation,
                role,
                namespaces,
            } => Ok((generation, role, namespaces)),
            other => Err(unexpected(&other)),
        }
    }

    fn fetch(&mut self, namespace: &str, from: u64, max: u32) -> Result<Vec<OplogRecord>> {
        match self.request(&Request::ReplFetch {
            namespace: namespace.to_string(),
            from,
            max,
        })? {
            Response::ReplEntries(records) => Ok(records),
            other => Err(unexpected(&other)),
        }
    }

    fn chunks(
        &mut self,
        namespace: &str,
        refs: Vec<crate::chunk::ChunkRef>,
    ) -> Result<Vec<Option<Vec<u8>>>> {
        match self.request(&Request::Fetch {
            namespace: namespace.to_string(),
            refs,
        })? {
            Response::Chunks(chunks) => Ok(chunks),
            other => Err(unexpected(&other)),
        }
    }

    fn ack(&mut self, namespace: &str, offset: u64) -> Result<()> {
        match self.request(&Request::ReplAck {
            namespace: namespace.to_string(),
            offset,
        })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> Error {
    Error::protocol("replicating", format!("unexpected response {resp:?}"))
}

// ---------------------------------------------------------------------
// Apply path
// ---------------------------------------------------------------------

/// Runs one full replication pass: polls the primary, catches every
/// namespace up, acks progress, and updates the daemon's lag accounting.
pub(crate) fn sync_once(shared: &Shared, client: &mut ReplClient) -> Result<SyncReport> {
    let (generation, _role, namespaces) = client.status()?;
    let primary_total: u64 = namespaces.iter().map(|(_, len)| len).sum();
    shared.note_primary(generation, primary_total);

    let mut report = SyncReport {
        primary_generation: generation,
        ..SyncReport::default()
    };
    let mut applied_total = 0u64;
    for (ns_name, primary_len) in &namespaces {
        if !valid_namespace(ns_name) {
            continue;
        }
        let ns = shared.namespace(ns_name)?;
        match catch_up_namespace(&ns, client, ns_name, *primary_len, &mut report) {
            Ok(local) => {
                client.ack(ns_name, local)?;
                applied_total += local;
            }
            // The stream itself is suspect (dropped, or framing no
            // longer trusted): abort the pass so the caller reconnects.
            Err(e @ (Error::Io { .. } | Error::Protocol { .. })) => return Err(e),
            // Bad data confined to this namespace (a pulled chunk
            // failing its content address, a local apply refusing):
            // quarantine it for this pass — whatever it did apply is
            // durable in its oplog — and keep the other tenants moving.
            Err(_) => {
                report.quarantined += 1;
                applied_total += ns.oplog.len();
            }
        }
    }
    shared.note_applied(applied_total);
    report.remaining = primary_total.saturating_sub(applied_total);
    Ok(report)
}

/// Catches one namespace up to the primary's oplog length, returning
/// its new local length. An entry is applied by appending it, once its
/// chunks are stored and, for a `Sweep`, its sweep has run.
fn catch_up_namespace(
    ns: &super::server::Namespace,
    client: &mut ReplClient,
    ns_name: &str,
    primary_len: u64,
    report: &mut SyncReport,
) -> Result<u64> {
    let mut local = ns.oplog.len();
    while local < primary_len {
        let records = client.fetch(ns_name, local, FETCH_BATCH)?;
        if records.is_empty() {
            break;
        }
        for rec in records {
            if rec.offset != local {
                return Err(Error::protocol(
                    "replicating",
                    format!("primary sent offset {}, expected {local}", rec.offset),
                ));
            }
            report.chunks_pulled += pull_missing_chunks(ns, client, ns_name, &rec.op)?;
            if let OplogOp::Sweep { reachable } = &rec.op {
                ns.store
                    .sweep(&reachable.iter().copied().collect(), false)?;
            }
            ns.oplog.append_record(&rec)?;
            local += 1;
            report.entries_applied += 1;
        }
    }
    Ok(local)
}

/// For a replicated manifest publish, pulls whatever referenced chunks
/// the local store is missing. Every pulled chunk is re-verified against
/// its content address before it is stored.
fn pull_missing_chunks(
    ns: &super::server::Namespace,
    client: &mut ReplClient,
    ns_name: &str,
    op: &OplogOp,
) -> Result<u64> {
    let OplogOp::MetaPut { name, bytes } = op else {
        return Ok(0);
    };
    if !name.starts_with("manifests/") {
        return Ok(0);
    }
    // A blob under manifests/ that does not decode is replicated as
    // opaque metadata; there is nothing to pull for it.
    let Ok(manifest) = Manifest::decode(bytes) else {
        return Ok(0);
    };
    let mut missing = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for section in &manifest.sections {
        for reference in &section.chunks {
            if seen.insert(reference.hash) && !ns.store.contains(&reference.hash) {
                missing.push(*reference);
            }
        }
    }
    if missing.is_empty() {
        return Ok(0);
    }
    // One group per round trip, verified and stored as it arrives:
    // neither end holds more than a frame's worth of the checkpoint, and
    // no reply can outgrow the frame cap however much payload is new.
    let mut stored = 0u64;
    for group in proto::batch_groups(&missing, |r| r.len as usize) {
        let pulled = client.chunks(ns_name, group.to_vec())?;
        if pulled.len() != group.len() {
            return Err(Error::protocol(
                "replicating chunks",
                format!("asked for {} chunks, got {}", group.len(), pulled.len()),
            ));
        }
        let mut staged: Vec<StagedChunk<'_>> = Vec::new();
        for (wanted, got) in group.iter().zip(&pulled) {
            // None: the primary already swept this chunk — the sweep
            // entry follows in the log, so skipping is convergent.
            let Some(data) = got else { continue };
            crate::store::verify_chunk(wanted, data)?;
            staged.push(StagedChunk {
                reference: *wanted,
                data,
            });
        }
        if !staged.is_empty() {
            ns.store.put_batch(&staged, false)?;
        }
        stored += staged.len() as u64;
    }
    Ok(stored)
}

/// The secondary's background loop: connect, tail, reconnect with
/// backoff on failure, exit when the daemon shuts down or is promoted.
pub(crate) fn run_tailer(shared: std::sync::Arc<Shared>, cfg: ReplicateConfig) {
    let mut client: Option<ReplClient> = None;
    let mut backoff = Duration::from_millis(50);
    const BACKOFF_CAP: Duration = Duration::from_secs(2);
    while !shared.is_shutdown() && shared.role() == ROLE_SECONDARY {
        let conn = match client.as_mut() {
            Some(c) => c,
            None => match ReplClient::connect(&cfg.primary_addr, cfg.auth_token.as_deref()) {
                Ok(c) => {
                    backoff = Duration::from_millis(50);
                    client.insert(c)
                }
                Err(_) => {
                    interruptible_sleep(&shared, backoff);
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                    continue;
                }
            },
        };
        match sync_once(&shared, conn) {
            Ok(_) => interruptible_sleep(&shared, POLL_INTERVAL),
            Err(_) => {
                // Primary unreachable or mid-restart: drop the link and
                // retry from scratch; everything is resumable by offset.
                client = None;
                interruptible_sleep(&shared, backoff);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
        }
    }
}

/// Sleeps in small slices so shutdown and promotion interrupt promptly.
fn interruptible_sleep(shared: &Shared, total: Duration) {
    let slice = Duration::from_millis(20);
    let mut left = total;
    while left > Duration::ZERO && !shared.is_shutdown() && shared.role() == ROLE_SECONDARY {
        let step = left.min(slice);
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Sha256;

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qcheck-oplog-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample_ops() -> Vec<OplogOp> {
        vec![
            OplogOp::MetaPut {
                name: "manifests/ck-1.qmf".into(),
                bytes: vec![1, 2, 3, 4],
            },
            OplogOp::MetaPut {
                name: "LATEST".into(),
                bytes: b"ck-1\n".to_vec(),
            },
            OplogOp::MetaDelete {
                name: "manifests/ck-0.qmf".into(),
            },
            OplogOp::Sweep {
                reachable: vec![Sha256::digest(b"live")],
            },
        ]
    }

    #[test]
    fn oplog_appends_scans_and_reads_back() {
        let dir = scratch("round-trip");
        let log = Oplog::open(&dir).unwrap();
        assert!(log.is_empty());
        for (i, op) in sample_ops().iter().enumerate() {
            assert_eq!(log.append(op).unwrap(), i as u64);
        }
        assert_eq!(log.len(), 4);
        let back = log.read_from(0, 100).unwrap();
        assert_eq!(back.len(), 4);
        for (i, rec) in back.iter().enumerate() {
            assert_eq!(rec.offset, i as u64);
            assert_eq!(rec.op, sample_ops()[i]);
        }
        // Windowed reads.
        let tail = log.read_from(2, 1).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].offset, 2);
        assert!(log.read_from(99, 10).unwrap().is_empty());

        // Reopen re-scans the same entries.
        drop(log);
        let log = Oplog::open(&dir).unwrap();
        assert_eq!(log.len(), 4);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = scratch("torn");
        let log = Oplog::open(&dir).unwrap();
        for op in sample_ops() {
            log.append(&op).unwrap();
        }
        drop(log);
        // Tear the last record: chop a few bytes off the file.
        let path = dir.join(OPLOG_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let log = Oplog::open(&dir).unwrap();
        assert_eq!(log.len(), 3, "torn tail must be dropped");
        // And appending after truncation produces a clean record 3.
        let off = log
            .append(&OplogOp::MetaDelete { name: "x".into() })
            .unwrap();
        assert_eq!(off, 3);
        drop(log);
        let log = Oplog::open(&dir).unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(
            log.read_from(3, 1).unwrap()[0].op,
            OplogOp::MetaDelete { name: "x".into() }
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A thread that panicked holding the index lock — between the file
    /// write and the index update, say — must not take every later
    /// `append` / `read_from` of the namespace down with it: the index is
    /// rebuilt from the file, which is the truth.
    #[test]
    fn a_panic_under_the_index_lock_rescans_the_file() {
        let dir = scratch("poison");
        let log = Oplog::open(&dir).unwrap();
        for op in sample_ops() {
            log.append(&op).unwrap();
        }
        let poison = || {
            let panicked = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut state = log.state.lock().unwrap();
                    // An index that ran ahead of the file.
                    let end = state.end;
                    state.starts.push(end);
                    state.end += 64;
                    panic!("injected panic under the oplog lock");
                })
                .join()
            });
            assert!(panicked.is_err());
            assert!(log.state.is_poisoned());
        };
        poison();
        let off = log
            .append(&OplogOp::MetaDelete { name: "z".into() })
            .unwrap();
        assert_eq!(off, 4, "the phantom entry is gone");
        assert!(!log.state.is_poisoned());
        poison();
        let back = log.read_from(0, 100).unwrap();
        assert_eq!(back.len(), 5);
        assert_eq!(back[4].op, OplogOp::MetaDelete { name: "z".into() });
        drop(log);
        assert_eq!(Oplog::open(&dir).unwrap().len(), 5);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn the_index_answers_names_and_bytes_across_a_reopen() {
        let dir = scratch("index");
        let log = Oplog::open(&dir).unwrap();
        for op in sample_ops() {
            log.append(&op).unwrap();
        }
        assert_eq!(log.names(""), ["LATEST", "manifests/ck-1.qmf"]);
        assert_eq!(log.get("LATEST").unwrap().unwrap(), b"ck-1\n");
        log.append(&OplogOp::MetaPut {
            name: "LATEST".into(),
            bytes: b"ck-2\n".to_vec(),
        })
        .unwrap();
        log.append(&OplogOp::MetaDelete {
            name: "manifests/ck-1.qmf".into(),
        })
        .unwrap();
        for log in [log, Oplog::open(&dir).unwrap()] {
            assert_eq!(log.names(""), ["LATEST"]);
            assert!(log.names("manifests/").is_empty());
            assert_eq!(log.get("LATEST").unwrap().unwrap(), b"ck-2\n");
            assert_eq!(log.get("manifests/ck-1.qmf").unwrap(), None);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A record whose CRC holds but whose op does not decode is damage,
    /// not a torn tail: the open fails typed and cuts nothing.
    #[test]
    fn an_undecodable_record_fails_the_open_and_is_left_in_place() {
        let dir = scratch("undecodable");
        Oplog::open(&dir).unwrap().append(&sample_ops()[0]).unwrap();
        let path = dir.join(OPLOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mut body = Encoder::new();
        body.put_u64(1).put_u8(0xEE);
        write_frame(&mut bytes, &body.into_bytes()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let err = Oplog::open(&dir).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A tear can only be the last frame, so a CRC failure with records
    /// after it is damage: cutting there would silently drop every later
    /// acknowledged `MetaPut`. The open fails typed and cuts nothing.
    #[test]
    fn a_bad_crc_before_later_records_fails_the_open_and_is_left_in_place() {
        let dir = scratch("bad-crc");
        let log = Oplog::open(&dir).unwrap();
        for op in &sample_ops()[..3] {
            log.append(op).unwrap();
        }
        drop(log);
        let path = dir.join(OPLOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // A byte inside the first record's body.
        bytes[4 + 8 + 2] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let err = Oplog::open(&dir).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn replicated_append_rejects_offset_gaps() {
        let dir = scratch("gaps");
        let log = Oplog::open(&dir).unwrap();
        let rec = OplogRecord {
            offset: 5,
            op: OplogOp::MetaDelete { name: "y".into() },
        };
        let err = log.append_record(&rec).unwrap_err();
        assert!(matches!(err, Error::Protocol { .. }), "{err}");
        assert!(log.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }
}

//! The `qckptd` wire protocol: length-prefixed, CRC-framed binary frames.
//!
//! ## Frame layout
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! len   u32 le      body length in bytes (not counting len or crc)
//! body  len bytes   opcode u8 | opcode-specific payload
//! crc   u32 le      CRC32 (IEEE 802.3) of body
//! ```
//!
//! The CRC catches torn or bit-damaged frames cheaply; payload *content*
//! integrity is still end-to-end (every chunk read re-verifies length and
//! SHA-256 client-side, exactly as for the local backends). A frame that
//! fails its length bound or CRC is a protocol error and the connection
//! is dropped — there is no resynchronization inside a stream.
//!
//! ## One frame in, one frame out
//!
//! After the handshake every request frame is answered by exactly one
//! response frame, with no exception: no operation holds the socket for
//! a multi-frame exchange, so a connection is always aligned between
//! two requests and a judged error never costs it. Throughput comes
//! from **pipelining** whole frames (the client writes a burst of
//! `PutBatch` or `Fetch` frames before reading the first reply), not
//! from a second framing. Bulk payload is cut into frames of at most
//! `BATCH_FRAME_BYTES` (4 MiB) of chunk payload in both directions — a
//! `PutBatch` carries that much, a `Fetch` names that much, whoever
//! sends it — so neither end buffers more than a few MiB per frame
//! however large the checkpoint. A frame costs its bytes one cheap pass:
//! [`write_frame`] hands length, body and CRC to the writer without
//! assembling them, and the CRC runs on the carry-less-multiply backend
//! where the CPU has one (see [`crate::hash`]). The one size bound
//! that remains is per *chunk*: a chunk must fit a frame of its own
//! ([`MAX_CHUNK_PAYLOAD`], just under [`MAX_FRAME_LEN`]), which
//! `RemoteStore::put_batch` checks before anything is encoded. Saves cut
//! sections into `SaveOptions::chunk_size` pieces (4 KiB by default),
//! five orders of magnitude below it.
//!
//! ## Handshake
//!
//! The first client frame must be [`Request::Hello`] carrying the
//! protocol version and the client's *namespace* (the multi-tenant unit:
//! each namespace is an independent object store + metadata space on the
//! daemon). The Hello additionally carries an optional **auth
//! token**, a flags byte (request a writer lease / open a replication
//! stream), a previously granted **lease token** to re-present after a
//! reconnect, and the highest primary **generation** the client has
//! observed — the fencing handle: a daemon whose generation is lower
//! refuses the handshake with a typed stale-generation error, which is
//! how a client that has already talked to a promoted secondary detects
//! a demoted primary. The server replies [`Response::HelloOk`] with its
//! version, role, generation and any granted lease, or an error frame.
//! There is one dialect: both ends speak exactly [`PROTO_VERSION`], and
//! a Hello carrying any other version is refused with a typed error
//! naming both versions.
//!
//! ## One fetch op
//!
//! "Give me these chunks" is one operation, [`Request::Fetch`], for a
//! client resolving a checkpoint and for a secondary catching up alike.
//! It names a namespace and a list of references; the reply
//! ([`Response::Chunks`]) carries `present u8 | len u32 | bytes` per
//! reference in request order and does not echo the references — the
//! asker knows what it asked for and verifies every payload against its
//! content address anyway. A reference the daemon does not hold comes
//! back absent, not as an error: a client turns that into
//! [`Error::NotFound`], a tailer skips it (the sweep that removed the
//! chunk follows in the log). Naming a namespace other than the
//! connection's own is honored on a replication stream only — tenant
//! isolation is the server's check, not the asker's good manners.
//!
//! ## Replication (`REPL_*`)
//!
//! A secondary daemon tails its primary's per-namespace **oplog** (see
//! `qcheck::remote::repl`): `ReplStatus` discovers namespaces and their
//! oplog lengths, `ReplFetch` subscribes from an offset, `Fetch` pulls
//! chunk content the entries reference (content-addressed, so
//! re-sending is idempotent), and `ReplAck` reports the applied offset
//! back for lag accounting. `Promote` turns a secondary into a primary
//! under a bumped generation.
//!
//! ## Idempotency rules
//!
//! Every operation is safe to replay after a reconnect, which is what
//! lets the client retry transparently on transport failure:
//!
//! * `PutBatch` is content-addressed — re-sending a batch that (partly)
//!   committed re-reports the committed chunks as dedup hits and writes
//!   only what is missing;
//! * `MetaPut` overwrites atomically with the same bytes;
//! * `Fetch` / `Contains` / `List` / `Stats` are reads;
//! * `Sweep` / `ClearStaging` converge (a second run finds nothing).
//!
//! Server-reported errors ([`Response::Err`]) are **not** retried: they
//! mean the request was received and judged, not lost.

use std::io::{Read, Write};

use crate::chunk::ChunkRef;
use crate::codec::{Decoder, Encoder};
use crate::error::{Error, Result};
use crate::hash::{crc32, ContentHash};
use crate::store::{BatchPutReport, GcReport, StoreStats};

/// The one protocol version this build speaks, on both ends.
pub const PROTO_VERSION: u32 = 6;

/// [`Request::Hello`] flag: the connection wants the namespace's writer
/// lease (granted in [`Response::HelloOk`], or the handshake fails with
/// a typed lease-held error).
pub const HELLO_FLAG_WANT_LEASE: u8 = 1;
/// [`Request::Hello`] flag: the connection is a replication stream (a
/// secondary tailing this daemon); `REPL_*` ops are only honored here.
pub const HELLO_FLAG_REPL: u8 = 1 << 1;

/// Daemon role: accepts writes, appends to the oplog.
pub const ROLE_PRIMARY: u8 = 0;
/// Daemon role: tails a primary, refuses client writes.
pub const ROLE_SECONDARY: u8 = 1;

/// Human name for a wire role byte.
pub fn role_name(role: u8) -> &'static str {
    match role {
        ROLE_PRIMARY => "primary",
        ROLE_SECONDARY => "secondary",
        _ => "unknown",
    }
}

/// Upper bound on a single frame body. Bounds the allocation a garbage
/// length prefix can trigger, and therefore the largest single
/// `PutBatch` / `Sweep` payload; the client splits bigger batches into
/// pipelined sub-frames well below this.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Namespace grammar: 1–64 chars of `[A-Za-z0-9._-]`. The namespace
/// names a directory component on the server, so the grammar is the
/// security boundary — no separators, no traversal.
pub fn valid_namespace(ns: &str) -> bool {
    !ns.is_empty()
        && ns.len() <= 64
        && ns
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
        && ns != "."
        && ns != ".."
}

/// Metadata-name grammar: relative slash-separated path whose components
/// each satisfy the namespace grammar (e.g. `manifests/ck-….qmf`,
/// `LATEST`). The names are keys of the namespace's oplog, not file
/// names; the grammar stays the input check every `Meta*` op applies.
pub fn valid_meta_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 256
        && !name.starts_with('/')
        && !name.ends_with('/')
        && name.split('/').all(valid_namespace)
}

/// One chunk of a `PutBatch` request (owned mirror of
/// [`crate::store::StagedChunk`], which borrows its payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireChunk {
    /// Content address + exact length.
    pub reference: ChunkRef,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// One committed mutation in a namespace's append-only oplog — the unit
/// of replication. Chunk *content* is deliberately absent: it is
/// content-addressed, so a secondary pulls whatever a replicated
/// manifest references and is missing via [`Request::Fetch`].
#[derive(Clone, Debug, PartialEq)]
pub enum OplogOp {
    /// A metadata publish (manifest bytes, `LATEST` advance).
    MetaPut {
        /// Metadata name.
        name: String,
        /// Contents.
        bytes: Vec<u8>,
    },
    /// A retention delete.
    MetaDelete {
        /// Metadata name.
        name: String,
    },
    /// A (non-dry-run) mark-and-sweep against a reachable set.
    Sweep {
        /// Reachable hashes at sweep time.
        reachable: Vec<ContentHash>,
    },
}

/// An oplog entry as shipped over the wire (and stored on disk): the
/// op plus its zero-based offset in the log.
#[derive(Clone, Debug, PartialEq)]
pub struct OplogRecord {
    /// Position in the namespace's oplog.
    pub offset: u64,
    /// The committed mutation.
    pub op: OplogOp,
}

impl OplogOp {
    const TAG_META_PUT: u8 = 1;
    const TAG_META_DELETE: u8 = 2;
    const TAG_SWEEP: u8 = 3;

    /// Appends the op's encoding to `enc` (shared by the wire frames and
    /// the on-disk oplog records, so they stay byte-identical).
    pub fn encode_into(&self, enc: &mut Encoder) {
        match self {
            OplogOp::MetaPut { name, bytes } => {
                enc.put_u8(Self::TAG_META_PUT)
                    .put_str(name)
                    .put_bytes(bytes);
            }
            OplogOp::MetaDelete { name } => {
                enc.put_u8(Self::TAG_META_DELETE).put_str(name);
            }
            OplogOp::Sweep { reachable } => {
                enc.put_u8(Self::TAG_SWEEP);
                put_hashes(enc, reachable);
            }
        }
    }

    /// Decodes one op from `dec`.
    ///
    /// # Errors
    ///
    /// Fails on unknown tags or truncation.
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<OplogOp> {
        Ok(match dec.get_u8()? {
            Self::TAG_META_PUT => OplogOp::MetaPut {
                name: dec.get_str()?,
                bytes: dec.get_bytes()?,
            },
            Self::TAG_META_DELETE => OplogOp::MetaDelete {
                name: dec.get_str()?,
            },
            Self::TAG_SWEEP => OplogOp::Sweep {
                reachable: get_hashes(dec)?,
            },
            other => {
                return Err(Error::protocol(
                    "decoding oplog op",
                    format!("unknown tag {other}"),
                ))
            }
        })
    }
}

/// A writer lease granted in [`Response::HelloOk`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseGrant {
    /// Opaque token; re-present it in the next Hello to keep the lease
    /// across reconnects.
    pub token: u64,
    /// Time-to-live; the lease renews on every request from its holder.
    pub ttl_ms: u64,
}

/// A client request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Versioned handshake; must be the first frame on a connection
    /// ([`Request::hello`] builds the plain form).
    Hello {
        /// Client protocol version.
        version: u32,
        /// Namespace the connection operates in.
        namespace: String,
        /// Auth token; empty = none presented.
        auth: String,
        /// Flag bits ([`HELLO_FLAG_WANT_LEASE`], [`HELLO_FLAG_REPL`]).
        flags: u8,
        /// A previously granted lease token to re-present (0 = none).
        lease_token: u64,
        /// Highest primary generation this client has observed; a daemon
        /// whose generation is lower must refuse (it is demoted).
        min_generation: u64,
    },
    /// Store a batch of chunks (the whole batch commits together when
    /// the server's layout allows it, mirroring local `put_batch`).
    PutBatch {
        /// fsync staged data before publishing.
        fsync: bool,
        /// The chunks, in order.
        chunks: Vec<WireChunk>,
    },
    /// Fetch chunks by reference — the one read op, for clients and
    /// tailing secondaries alike. Answered by [`Response::Chunks`].
    Fetch {
        /// Namespace to read from. Anything but the connection's own is
        /// honored on a [`HELLO_FLAG_REPL`] connection only.
        namespace: String,
        /// The wanted chunks (the server verifies before replying; the
        /// asker verifies again on receipt).
        refs: Vec<ChunkRef>,
    },
    /// Existence check for a set of hashes (serves both `contains` and
    /// the batched `contains_all` in one round trip).
    Contains {
        /// Hashes to probe.
        hashes: Vec<ContentHash>,
    },
    /// Enumerate all object hashes, ascending.
    List,
    /// Mark-and-sweep GC against a reachable set. `dry_run` computes the
    /// report without deleting anything (the `qckpt stats` preview).
    Sweep {
        /// Plan only, delete nothing.
        dry_run: bool,
        /// Reachable hashes.
        reachable: Vec<ContentHash>,
    },
    /// Aggregate object statistics.
    Stats,
    /// Remove orphaned server-side staging files for this namespace.
    ClearStaging,
    /// Atomically publish a small named metadata blob (manifests,
    /// `LATEST`) so a client in a fresh directory can reconstruct the
    /// repository.
    MetaPut {
        /// Name (see [`valid_meta_name`]).
        name: String,
        /// Contents.
        bytes: Vec<u8>,
    },
    /// Fetch a named metadata blob; absent is not an error.
    MetaGet {
        /// Name.
        name: String,
    },
    /// List metadata names under a prefix, ascending.
    MetaList {
        /// Name prefix (e.g. `manifests/`).
        prefix: String,
    },
    /// Delete a named metadata blob (retention); absent is not an error.
    MetaDelete {
        /// Name.
        name: String,
    },
    /// Daemon-level status (version, namespaces, connections served).
    Status,
    /// Ask the daemon to stop accepting connections and exit its accept
    /// loop once in-flight connections finish.
    Shutdown,
    /// Flip one byte of a stored object (failure-injection support for
    /// the backend-equivalence suites; the server refuses it unless
    /// built with the `testing` feature).
    Corrupt {
        /// Victim object.
        hash: ContentHash,
        /// Offset (mod object length).
        offset: u64,
    },
    /// Replication: the daemon's generation, role and per-namespace
    /// oplog lengths (what a tailer polls to find new work; only
    /// honored on a [`HELLO_FLAG_REPL`] connection).
    ReplStatus,
    /// Replication: fetch oplog entries `[from, from+max)` for one
    /// namespace.
    ReplFetch {
        /// Namespace whose oplog to read.
        namespace: String,
        /// First offset wanted.
        from: u64,
        /// Upper bound on entries returned.
        max: u32,
    },
    /// Replication: the secondary has durably applied the namespace's
    /// oplog up to (exclusive) `offset` — primary-side lag accounting.
    ReplAck {
        /// Namespace acknowledged.
        namespace: String,
        /// Applied length.
        offset: u64,
    },
    /// Promote this (secondary) daemon to primary under a bumped
    /// generation. Loopback-only unless an auth token is configured.
    Promote,
    /// Release the connection's writer lease (clean writer exit; an
    /// expired lease releases itself).
    LeaseRelease,
    /// Fetch the daemon's metrics registry as one text-exposition
    /// frame ([`Response::Metrics`]). Read-only — served without a
    /// writer lease, like [`Request::Status`].
    Metrics,
}

/// A server response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// Server protocol version.
        version: u32,
        /// Server role ([`ROLE_PRIMARY`] / [`ROLE_SECONDARY`]).
        role: u8,
        /// Server generation (fencing epoch).
        generation: u64,
        /// Writer lease granted to this connection, when requested.
        lease: Option<LeaseGrant>,
    },
    /// `PutBatch` outcome.
    PutBatch(BatchPutReport),
    /// `Contains` answers, in request order.
    Contains(Vec<bool>),
    /// `List` result.
    Hashes(Vec<ContentHash>),
    /// `Sweep` report: `live u64 | deleted u64 | reclaimed_bytes u64`.
    Gc(GcReport),
    /// `Stats` result.
    Stats(StoreStats),
    /// `ClearStaging` count.
    Cleared(u64),
    /// Generic acknowledgement (`MetaPut`, `MetaDelete`, `Shutdown`,
    /// `Corrupt`).
    Ok,
    /// `MetaGet` result; `None` when the name does not exist.
    Meta(Option<Vec<u8>>),
    /// `MetaList` result.
    Names(Vec<String>),
    /// Daemon status.
    Status {
        /// Server protocol version.
        version: u32,
        /// Namespaces materialized on disk.
        namespaces: u64,
        /// Connections accepted since start.
        connections: u64,
        /// Server role ([`ROLE_PRIMARY`] / [`ROLE_SECONDARY`]).
        role: u8,
        /// Server generation (fencing epoch).
        generation: u64,
        /// Total oplog entries across namespaces (the daemon's offset).
        oplog_entries: u64,
        /// Replication lag in entries: on a secondary, how far it trails
        /// its primary; on a primary, how far its slowest acked tailer
        /// trails. 0 when fully caught up (or nothing tails).
        repl_lag: u64,
    },
    /// `ReplStatus` reply.
    ReplStatus {
        /// Daemon generation.
        generation: u64,
        /// Daemon role.
        role: u8,
        /// `(namespace, oplog length)` pairs, ascending by name.
        namespaces: Vec<(String, u64)>,
    },
    /// `ReplFetch` reply: the requested slice of the oplog.
    ReplEntries(Vec<OplogRecord>),
    /// `Fetch` reply: one payload per requested reference, in request
    /// order; `None` where the daemon does not hold the chunk (for a
    /// tailer: swept while it was behind — benign, the matching sweep
    /// follows in the log).
    Chunks(Vec<Option<Vec<u8>>>),
    /// `Promote` reply: the new (bumped, persisted) generation.
    Promoted {
        /// Generation the daemon now serves under.
        generation: u64,
    },
    /// `Metrics` payload: the daemon's qobs registry rendered as a
    /// stable-ordered Prometheus-style text exposition.
    Metrics(String),
    /// The request was received and failed; never retried by the client.
    Err {
        /// Coarse error class (see [`ErrCode`]).
        code: u8,
        /// Human-readable detail.
        message: String,
    },
}

/// Error classes carried by [`Response::Err`], mapped back onto
/// [`enum@Error`] client-side so remote failures are indistinguishable
/// from local ones where it matters (recovery treats `NotFound` /
/// `Corrupt` as "skip and fall back" in both worlds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// Object or name absent.
    NotFound = 1,
    /// Stored data failed verification server-side.
    Corrupt = 2,
    /// Server-side I/O failure.
    Io = 3,
    /// Malformed or refused request.
    Invalid = 4,
    /// Anything else.
    Other = 5,
    /// Missing or wrong auth token.
    Unauthorized = 6,
    /// Generation fencing: the refusing side proved its peer (or
    /// itself) demoted.
    Stale = 7,
    /// The daemon is a secondary and refuses client writes.
    NotPrimary = 8,
    /// Another writer holds the namespace's lease.
    LeaseHeld = 9,
}

impl ErrCode {
    fn from_u8(v: u8) -> ErrCode {
        match v {
            1 => ErrCode::NotFound,
            2 => ErrCode::Corrupt,
            3 => ErrCode::Io,
            4 => ErrCode::Invalid,
            6 => ErrCode::Unauthorized,
            7 => ErrCode::Stale,
            8 => ErrCode::NotPrimary,
            9 => ErrCode::LeaseHeld,
            _ => ErrCode::Other,
        }
    }

    /// Classifies a server-side [`enum@Error`] for the wire.
    pub fn classify(e: &Error) -> (ErrCode, String) {
        let code = match e {
            Error::NotFound { .. } => ErrCode::NotFound,
            Error::Corrupt { .. } | Error::Decode { .. } => ErrCode::Corrupt,
            Error::Io { .. } => ErrCode::Io,
            Error::InvalidConfig(_) | Error::UnsupportedVersion { .. } => ErrCode::Invalid,
            Error::Unauthorized(_) => ErrCode::Unauthorized,
            Error::StaleGeneration(_) => ErrCode::Stale,
            Error::NotPrimary(_) => ErrCode::NotPrimary,
            Error::LeaseHeld(_) => ErrCode::LeaseHeld,
            _ => ErrCode::Other,
        };
        (code, e.to_string())
    }

    /// Reconstructs an [`enum@Error`] client-side.
    pub fn to_error(self, context: &str, message: String) -> Error {
        match self {
            ErrCode::NotFound => Error::NotFound { what: message },
            ErrCode::Corrupt => Error::corrupt(context.to_string(), message),
            ErrCode::Io => Error::io(
                format!("{context} (server-side)"),
                std::io::Error::other(message),
            ),
            ErrCode::Invalid => Error::InvalidConfig(message),
            ErrCode::Other => Error::protocol(context.to_string(), message),
            ErrCode::Unauthorized => Error::Unauthorized(message),
            ErrCode::Stale => Error::StaleGeneration(message),
            ErrCode::NotPrimary => Error::NotPrimary(message),
            ErrCode::LeaseHeld => Error::LeaseHeld(message),
        }
    }
}

// Opcode bytes. Requests < 0x80, responses ≥ 0x80.
const OP_HELLO: u8 = 1;
// 2 was PING (≤ v5): retired, never reused.
const OP_PUT_BATCH: u8 = 3;
// 4 was the one-chunk GET of protocols ≤ 4: retired, never reused.
const OP_CONTAINS: u8 = 5;
const OP_LIST: u8 = 6;
const OP_SWEEP: u8 = 7;
const OP_STATS: u8 = 8;
const OP_CLEAR_STAGING: u8 = 9;
const OP_META_PUT: u8 = 10;
const OP_META_GET: u8 = 11;
const OP_META_LIST: u8 = 12;
const OP_META_DELETE: u8 = 13;
const OP_STATUS: u8 = 14;
const OP_SHUTDOWN: u8 = 15;
const OP_CORRUPT: u8 = 16;
const OP_REPL_STATUS: u8 = 17;
const OP_REPL_FETCH: u8 = 18;
// 19 was REPL_CHUNKS (≤ v4), folded into FETCH: retired, never reused.
const OP_REPL_ACK: u8 = 20;
const OP_PROMOTE: u8 = 21;
const OP_LEASE_RELEASE: u8 = 22;
// 23–27 carried the protocol-v3 streaming dialect: retired, never reused.
const OP_METRICS: u8 = 28;
const OP_FETCH: u8 = 29;

const RESP_HELLO_OK: u8 = 0x80;
// 0x81 was PING's reply (≤ v5): retired, never reused.
const RESP_PUT_BATCH: u8 = 0x82;
// 0x83 was GET's single-chunk reply (≤ v4): retired, never reused.
const RESP_CONTAINS: u8 = 0x84;
const RESP_HASHES: u8 = 0x85;
const RESP_GC: u8 = 0x86;
const RESP_STATS: u8 = 0x87;
const RESP_CLEARED: u8 = 0x88;
const RESP_OK: u8 = 0x89;
const RESP_META: u8 = 0x8A;
const RESP_NAMES: u8 = 0x8B;
const RESP_STATUS: u8 = 0x8C;
const RESP_REPL_STATUS: u8 = 0x8D;
const RESP_REPL_ENTRIES: u8 = 0x8E;
// 0x8F was REPL_CHUNKS' reference-echoing reply (≤ v4): retired, never
// reused.
const RESP_PROMOTED: u8 = 0x90;
// 0x91–0x93 were the v3 stream frames: retired, never reused.
const RESP_METRICS: u8 = 0x94;
const RESP_CHUNKS: u8 = 0x95;
const RESP_ERR: u8 = 0xFF;

fn put_hashes(enc: &mut Encoder, hashes: &[ContentHash]) {
    enc.put_varint(hashes.len() as u64);
    for h in hashes {
        enc.put_raw(&h.0);
    }
}

fn get_hashes(dec: &mut Decoder<'_>) -> Result<Vec<ContentHash>> {
    let n = dec.get_varint()? as usize;
    if n.checked_mul(32)
        .map(|b| b > dec.remaining())
        .unwrap_or(true)
    {
        return Err(Error::protocol(
            "decoding hash list",
            format!("count {n} exceeds frame"),
        ));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let raw = dec.get_raw(32)?;
        let mut h = [0u8; 32];
        h.copy_from_slice(raw);
        out.push(ContentHash(h));
    }
    Ok(out)
}

/// Payload budget of one batched chunk frame (a `PutBatch` request, a
/// `Fetch` reply) — well under [`MAX_FRAME_LEN`], so both ends hold
/// O(MiB) per frame however large the checkpoint.
pub(crate) const BATCH_FRAME_BYTES: usize = 4 << 20;

/// Cuts `items` into consecutive groups of at most [`BATCH_FRAME_BYTES`]
/// of payload, one frame each. Items never split and order is kept, so
/// a chunk larger than the budget rides alone; an empty input is one
/// empty group.
pub(crate) fn batch_groups<T>(items: &[T], payload_len: impl Fn(&T) -> usize) -> Vec<&[T]> {
    let mut groups = Vec::new();
    let mut start = 0usize;
    let mut bytes = 0usize;
    for (i, item) in items.iter().enumerate() {
        let len = payload_len(item);
        if i > start && bytes + len > BATCH_FRAME_BYTES {
            groups.push(&items[start..i]);
            start = i;
            bytes = 0;
        }
        bytes += len;
    }
    groups.push(&items[start..]);
    groups
}

/// Exact frame-body length of a `PutBatch` carrying one chunk of
/// `payload` bytes: opcode, fsync flag and a one-byte count, then the
/// chunk's 32 B hash, its `u32` length and the payload.
pub const fn lone_put_batch_len(payload: usize) -> usize {
    3 + 32 + 4 + payload
}

/// The largest chunk the protocol can move: one whose lone `PutBatch`
/// frame is exactly [`MAX_FRAME_LEN`]. (A `Fetch` reply of one spends
/// fewer header bytes, so anything that could be stored can be fetched
/// and replicated.)
pub const MAX_CHUNK_PAYLOAD: usize = MAX_FRAME_LEN - lone_put_batch_len(0);

/// Encodes a `PutBatch` frame body directly from borrowed staged chunks
/// — byte-identical to encoding [`Request::PutBatch`] over owned
/// [`WireChunk`] copies, without materializing them. The client's save
/// path uses this so a checkpoint upload peaks at one extra frame body,
/// not a second copy of the whole snapshot.
pub fn encode_put_batch(fsync: bool, chunks: &[crate::store::StagedChunk<'_>]) -> Vec<u8> {
    let payload: usize = chunks.iter().map(|c| c.data.len()).sum();
    let mut enc = Encoder::with_capacity(payload + chunks.len() * 40 + 16);
    enc.put_u8(OP_PUT_BATCH)
        .put_u8(u8::from(fsync))
        .put_varint(chunks.len() as u64);
    for c in chunks {
        enc.put_raw(&c.reference.hash.0)
            .put_u32(c.reference.len)
            .put_raw(c.data);
    }
    enc.into_bytes()
}

impl Request {
    /// The plain handshake for `namespace`: no auth, no lease, no
    /// fencing floor.
    pub fn hello(namespace: impl Into<String>) -> Request {
        Request::Hello {
            version: PROTO_VERSION,
            namespace: namespace.into(),
            auth: String::new(),
            flags: 0,
            lease_token: 0,
            min_generation: 0,
        }
    }

    /// Serializes the request into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Request::Hello {
                version,
                namespace,
                auth,
                flags,
                lease_token,
                min_generation,
            } => {
                enc.put_u8(OP_HELLO)
                    .put_u32(*version)
                    .put_str(namespace)
                    .put_str(auth)
                    .put_u8(*flags)
                    .put_u64(*lease_token)
                    .put_u64(*min_generation);
            }
            Request::PutBatch { fsync, chunks } => {
                enc.put_u8(OP_PUT_BATCH)
                    .put_u8(u8::from(*fsync))
                    .put_varint(chunks.len() as u64);
                for c in chunks {
                    enc.put_raw(&c.reference.hash.0)
                        .put_u32(c.reference.len)
                        .put_raw(&c.data);
                }
            }
            Request::Fetch { namespace, refs } => {
                enc.put_u8(OP_FETCH)
                    .put_str(namespace)
                    .put_varint(refs.len() as u64);
                for r in refs {
                    enc.put_raw(&r.hash.0).put_u32(r.len);
                }
            }
            Request::Contains { hashes } => {
                enc.put_u8(OP_CONTAINS);
                put_hashes(&mut enc, hashes);
            }
            Request::List => {
                enc.put_u8(OP_LIST);
            }
            Request::Sweep { dry_run, reachable } => {
                enc.put_u8(OP_SWEEP).put_u8(u8::from(*dry_run));
                put_hashes(&mut enc, reachable);
            }
            Request::Stats => {
                enc.put_u8(OP_STATS);
            }
            Request::ClearStaging => {
                enc.put_u8(OP_CLEAR_STAGING);
            }
            Request::MetaPut { name, bytes } => {
                enc.put_u8(OP_META_PUT).put_str(name).put_bytes(bytes);
            }
            Request::MetaGet { name } => {
                enc.put_u8(OP_META_GET).put_str(name);
            }
            Request::MetaList { prefix } => {
                enc.put_u8(OP_META_LIST).put_str(prefix);
            }
            Request::MetaDelete { name } => {
                enc.put_u8(OP_META_DELETE).put_str(name);
            }
            Request::Status => {
                enc.put_u8(OP_STATUS);
            }
            Request::Shutdown => {
                enc.put_u8(OP_SHUTDOWN);
            }
            Request::Corrupt { hash, offset } => {
                enc.put_u8(OP_CORRUPT).put_raw(&hash.0).put_varint(*offset);
            }
            Request::ReplStatus => {
                enc.put_u8(OP_REPL_STATUS);
            }
            Request::ReplFetch {
                namespace,
                from,
                max,
            } => {
                enc.put_u8(OP_REPL_FETCH)
                    .put_str(namespace)
                    .put_u64(*from)
                    .put_u32(*max);
            }
            Request::ReplAck { namespace, offset } => {
                enc.put_u8(OP_REPL_ACK).put_str(namespace).put_u64(*offset);
            }
            Request::Promote => {
                enc.put_u8(OP_PROMOTE);
            }
            Request::LeaseRelease => {
                enc.put_u8(OP_LEASE_RELEASE);
            }
            Request::Metrics => {
                enc.put_u8(OP_METRICS);
            }
        }
        enc.into_bytes()
    }

    /// Parses a frame body into a request.
    ///
    /// # Errors
    ///
    /// Fails on unknown opcodes, truncation or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Request> {
        let mut dec = Decoder::new(body, "request frame");
        let op = dec.get_u8()?;
        let req = match op {
            OP_HELLO => {
                // The version is carried, not judged, here: the server's
                // handshake answers a foreign one with a typed error.
                Request::Hello {
                    version: dec.get_u32()?,
                    namespace: dec.get_str()?,
                    auth: dec.get_str()?,
                    flags: dec.get_u8()?,
                    lease_token: dec.get_u64()?,
                    min_generation: dec.get_u64()?,
                }
            }
            OP_PUT_BATCH => {
                let fsync = dec.get_u8()? != 0;
                let n = dec.get_varint()? as usize;
                let mut chunks = Vec::new();
                for _ in 0..n {
                    let raw = dec.get_raw(32)?;
                    let mut h = [0u8; 32];
                    h.copy_from_slice(raw);
                    let len = dec.get_u32()?;
                    let data = dec.get_raw(len as usize)?.to_vec();
                    chunks.push(WireChunk {
                        reference: ChunkRef {
                            hash: ContentHash(h),
                            len,
                        },
                        data,
                    });
                }
                Request::PutBatch { fsync, chunks }
            }
            OP_CONTAINS => Request::Contains {
                hashes: get_hashes(&mut dec)?,
            },
            OP_LIST => Request::List,
            OP_SWEEP => Request::Sweep {
                dry_run: dec.get_u8()? != 0,
                reachable: get_hashes(&mut dec)?,
            },
            OP_STATS => Request::Stats,
            OP_CLEAR_STAGING => Request::ClearStaging,
            OP_META_PUT => Request::MetaPut {
                name: dec.get_str()?,
                bytes: dec.get_bytes()?,
            },
            OP_META_GET => Request::MetaGet {
                name: dec.get_str()?,
            },
            OP_META_LIST => Request::MetaList {
                prefix: dec.get_str()?,
            },
            OP_META_DELETE => Request::MetaDelete {
                name: dec.get_str()?,
            },
            OP_STATUS => Request::Status,
            OP_SHUTDOWN => Request::Shutdown,
            OP_CORRUPT => {
                let raw = dec.get_raw(32)?;
                let mut h = [0u8; 32];
                h.copy_from_slice(raw);
                Request::Corrupt {
                    hash: ContentHash(h),
                    offset: dec.get_varint()?,
                }
            }
            OP_REPL_STATUS => Request::ReplStatus,
            OP_REPL_FETCH => Request::ReplFetch {
                namespace: dec.get_str()?,
                from: dec.get_u64()?,
                max: dec.get_u32()?,
            },
            OP_FETCH => {
                let namespace = dec.get_str()?;
                let n = dec.get_varint()? as usize;
                if n.checked_mul(36)
                    .map(|b| b > dec.remaining())
                    .unwrap_or(true)
                {
                    return Err(Error::protocol(
                        "decoding chunk-ref list",
                        format!("count {n} exceeds frame"),
                    ));
                }
                let mut refs = Vec::with_capacity(n);
                for _ in 0..n {
                    let raw = dec.get_raw(32)?;
                    let mut h = [0u8; 32];
                    h.copy_from_slice(raw);
                    refs.push(ChunkRef {
                        hash: ContentHash(h),
                        len: dec.get_u32()?,
                    });
                }
                Request::Fetch { namespace, refs }
            }
            OP_REPL_ACK => Request::ReplAck {
                namespace: dec.get_str()?,
                offset: dec.get_u64()?,
            },
            OP_PROMOTE => Request::Promote,
            OP_LEASE_RELEASE => Request::LeaseRelease,
            OP_METRICS => Request::Metrics,
            other => {
                return Err(Error::protocol(
                    "decoding request",
                    format!("unknown opcode {other:#04x}"),
                ))
            }
        };
        dec.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes the response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = match self {
            // The one multi-MiB reply: sized once, not grown by doubling.
            Response::Chunks(chunks) => Encoder::with_capacity(
                16 + chunks
                    .iter()
                    .map(|c| 5 + c.as_ref().map_or(0, Vec::len))
                    .sum::<usize>(),
            ),
            _ => Encoder::new(),
        };
        match self {
            Response::HelloOk {
                version,
                role,
                generation,
                lease,
            } => {
                enc.put_u8(RESP_HELLO_OK)
                    .put_u32(*version)
                    .put_u8(*role)
                    .put_u64(*generation);
                match lease {
                    Some(grant) => {
                        enc.put_u8(1).put_u64(grant.token).put_u64(grant.ttl_ms);
                    }
                    None => {
                        enc.put_u8(0);
                    }
                }
            }
            Response::PutBatch(report) => {
                enc.put_u8(RESP_PUT_BATCH)
                    .put_varint(report.fresh.len() as u64);
                for f in &report.fresh {
                    enc.put_u8(u8::from(*f));
                }
                enc.put_u64(report.renames).put_u64(report.fsyncs);
            }
            Response::Contains(bools) => {
                enc.put_u8(RESP_CONTAINS).put_varint(bools.len() as u64);
                for b in bools {
                    enc.put_u8(u8::from(*b));
                }
            }
            Response::Hashes(hashes) => {
                enc.put_u8(RESP_HASHES);
                put_hashes(&mut enc, hashes);
            }
            Response::Gc(r) => {
                enc.put_u8(RESP_GC)
                    .put_u64(r.live as u64)
                    .put_u64(r.deleted as u64)
                    .put_u64(r.reclaimed_bytes);
            }
            Response::Stats(s) => {
                enc.put_u8(RESP_STATS)
                    .put_u64(s.object_count as u64)
                    .put_u64(s.total_bytes);
            }
            Response::Cleared(n) => {
                enc.put_u8(RESP_CLEARED).put_u64(*n);
            }
            Response::Ok => {
                enc.put_u8(RESP_OK);
            }
            Response::Meta(opt) => {
                enc.put_u8(RESP_META);
                match opt {
                    Some(bytes) => {
                        enc.put_u8(1).put_bytes(bytes);
                    }
                    None => {
                        enc.put_u8(0);
                    }
                }
            }
            Response::Names(names) => {
                enc.put_u8(RESP_NAMES).put_varint(names.len() as u64);
                for n in names {
                    enc.put_str(n);
                }
            }
            Response::Status {
                version,
                namespaces,
                connections,
                role,
                generation,
                oplog_entries,
                repl_lag,
            } => {
                enc.put_u8(RESP_STATUS)
                    .put_u32(*version)
                    .put_u64(*namespaces)
                    .put_u64(*connections)
                    .put_u8(*role)
                    .put_u64(*generation)
                    .put_u64(*oplog_entries)
                    .put_u64(*repl_lag);
            }
            Response::ReplStatus {
                generation,
                role,
                namespaces,
            } => {
                enc.put_u8(RESP_REPL_STATUS)
                    .put_u64(*generation)
                    .put_u8(*role)
                    .put_varint(namespaces.len() as u64);
                for (name, len) in namespaces {
                    enc.put_str(name).put_u64(*len);
                }
            }
            Response::ReplEntries(records) => {
                enc.put_u8(RESP_REPL_ENTRIES)
                    .put_varint(records.len() as u64);
                for rec in records {
                    enc.put_u64(rec.offset);
                    rec.op.encode_into(&mut enc);
                }
            }
            Response::Chunks(chunks) => {
                enc.put_u8(RESP_CHUNKS).put_varint(chunks.len() as u64);
                for c in chunks {
                    match c {
                        Some(data) => {
                            enc.put_u8(1).put_u32(data.len() as u32).put_raw(data);
                        }
                        None => {
                            enc.put_u8(0);
                        }
                    }
                }
            }
            Response::Promoted { generation } => {
                enc.put_u8(RESP_PROMOTED).put_u64(*generation);
            }
            Response::Metrics(text) => {
                enc.put_u8(RESP_METRICS).put_str(text);
            }
            Response::Err { code, message } => {
                enc.put_u8(RESP_ERR).put_u8(*code).put_str(message);
            }
        }
        enc.into_bytes()
    }

    /// Parses a frame body into a response.
    ///
    /// # Errors
    ///
    /// Fails on unknown opcodes, truncation or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Response> {
        let mut dec = Decoder::new(body, "response frame");
        let op = dec.get_u8()?;
        let resp = match op {
            RESP_HELLO_OK => {
                let version = dec.get_u32()?;
                let role = dec.get_u8()?;
                let generation = dec.get_u64()?;
                let lease = if dec.get_u8()? != 0 {
                    Some(LeaseGrant {
                        token: dec.get_u64()?,
                        ttl_ms: dec.get_u64()?,
                    })
                } else {
                    None
                };
                Response::HelloOk {
                    version,
                    role,
                    generation,
                    lease,
                }
            }
            RESP_PUT_BATCH => {
                let n = dec.get_varint()? as usize;
                if n > dec.remaining() {
                    return Err(Error::protocol(
                        "decoding put-batch reply",
                        format!("fresh count {n} exceeds frame"),
                    ));
                }
                let mut fresh = Vec::with_capacity(n);
                for _ in 0..n {
                    fresh.push(dec.get_u8()? != 0);
                }
                Response::PutBatch(BatchPutReport {
                    fresh,
                    renames: dec.get_u64()?,
                    fsyncs: dec.get_u64()?,
                })
            }
            RESP_CONTAINS => {
                let n = dec.get_varint()? as usize;
                if n > dec.remaining() {
                    return Err(Error::protocol(
                        "decoding contains reply",
                        format!("count {n} exceeds frame"),
                    ));
                }
                let mut bools = Vec::with_capacity(n);
                for _ in 0..n {
                    bools.push(dec.get_u8()? != 0);
                }
                Response::Contains(bools)
            }
            RESP_HASHES => Response::Hashes(get_hashes(&mut dec)?),
            RESP_GC => Response::Gc(GcReport {
                live: dec.get_u64()? as usize,
                deleted: dec.get_u64()? as usize,
                reclaimed_bytes: dec.get_u64()?,
            }),
            RESP_STATS => Response::Stats(StoreStats {
                object_count: dec.get_u64()? as usize,
                total_bytes: dec.get_u64()?,
            }),
            RESP_CLEARED => Response::Cleared(dec.get_u64()?),
            RESP_OK => Response::Ok,
            RESP_META => {
                let present = dec.get_u8()? != 0;
                Response::Meta(if present {
                    Some(dec.get_bytes()?)
                } else {
                    None
                })
            }
            RESP_NAMES => {
                let n = dec.get_varint()? as usize;
                if n > dec.remaining() {
                    return Err(Error::protocol(
                        "decoding name list",
                        format!("count {n} exceeds frame"),
                    ));
                }
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(dec.get_str()?);
                }
                Response::Names(names)
            }
            RESP_STATUS => Response::Status {
                version: dec.get_u32()?,
                namespaces: dec.get_u64()?,
                connections: dec.get_u64()?,
                role: dec.get_u8()?,
                generation: dec.get_u64()?,
                oplog_entries: dec.get_u64()?,
                repl_lag: dec.get_u64()?,
            },
            RESP_REPL_STATUS => {
                let generation = dec.get_u64()?;
                let role = dec.get_u8()?;
                let n = dec.get_varint()? as usize;
                if n > dec.remaining() {
                    return Err(Error::protocol(
                        "decoding repl status",
                        format!("count {n} exceeds frame"),
                    ));
                }
                let mut namespaces = Vec::with_capacity(n);
                for _ in 0..n {
                    namespaces.push((dec.get_str()?, dec.get_u64()?));
                }
                Response::ReplStatus {
                    generation,
                    role,
                    namespaces,
                }
            }
            RESP_REPL_ENTRIES => {
                let n = dec.get_varint()? as usize;
                if n > dec.remaining() {
                    return Err(Error::protocol(
                        "decoding oplog entries",
                        format!("count {n} exceeds frame"),
                    ));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(OplogRecord {
                        offset: dec.get_u64()?,
                        op: OplogOp::decode_from(&mut dec)?,
                    });
                }
                Response::ReplEntries(records)
            }
            RESP_CHUNKS => {
                let n = dec.get_varint()? as usize;
                if n > dec.remaining() {
                    return Err(Error::protocol(
                        "decoding chunk batch",
                        format!("count {n} exceeds frame"),
                    ));
                }
                let mut chunks = Vec::with_capacity(n);
                for _ in 0..n {
                    if dec.get_u8()? == 0 {
                        chunks.push(None);
                        continue;
                    }
                    let len = dec.get_u32()?;
                    chunks.push(Some(dec.get_raw(len as usize)?.to_vec()));
                }
                Response::Chunks(chunks)
            }
            RESP_PROMOTED => Response::Promoted {
                generation: dec.get_u64()?,
            },
            RESP_METRICS => Response::Metrics(dec.get_str()?),
            RESP_ERR => Response::Err {
                code: dec.get_u8()?,
                message: dec.get_str()?,
            },
            other => {
                return Err(Error::protocol(
                    "decoding response",
                    format!("unknown opcode {other:#04x}"),
                ))
            }
        };
        dec.finish()?;
        Ok(resp)
    }

    /// Turns an error response into an [`enum@Error`]; passes everything
    /// else through.
    ///
    /// # Errors
    ///
    /// The reconstructed server-side error for [`Response::Err`].
    pub fn into_result(self, context: &str) -> Result<Response> {
        match self {
            Response::Err { code, message } => {
                Err(ErrCode::from_u8(code).to_error(context, message))
            }
            other => Ok(other),
        }
    }
}

/// Writes one frame (length prefix, body, CRC) to `w`.
///
/// # Errors
///
/// Fails on transport errors or an oversized body.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<()> {
    if body.len() > MAX_FRAME_LEN {
        return Err(Error::protocol(
            "writing frame",
            format!("body of {} B exceeds {} B cap", body.len(), MAX_FRAME_LEN),
        ));
    }
    // Three writes, no assembly: connections write through a `BufWriter`,
    // so a small frame still leaves in one piece, and a multi-MiB body is
    // never copied a second time.
    w.write_all(&(body.len() as u32).to_le_bytes())
        .and_then(|()| w.write_all(body))
        .and_then(|()| w.write_all(&crc32(body).to_le_bytes()))
        .map_err(|e| Error::io("writing frame", e))
}

/// Reads one frame body from `r`, verifying length bound and CRC.
///
/// # Errors
///
/// [`Error::Io`] on transport failure (including EOF mid-frame),
/// [`Error::Protocol`] on an oversized length or CRC mismatch.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)
        .map_err(|e| Error::io("reading frame length", e))?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(Error::protocol(
            "reading frame",
            format!("length {len} exceeds {MAX_FRAME_LEN} B cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| Error::io("reading frame body", e))?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)
        .map_err(|e| Error::io("reading frame crc", e))?;
    if crc32(&body) != u32::from_le_bytes(crc_bytes) {
        return Err(Error::protocol("reading frame", "crc mismatch"));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Sha256;

    fn round_trip_request(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let body = resp.encode();
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        let h = Sha256::digest(b"x");
        round_trip_request(Request::hello("run-1"));
        round_trip_request(Request::Hello {
            version: PROTO_VERSION,
            namespace: "run-1".into(),
            auth: "sekrit".into(),
            flags: HELLO_FLAG_WANT_LEASE | HELLO_FLAG_REPL,
            lease_token: 0xDEAD_BEEF,
            min_generation: 7,
        });
        round_trip_request(Request::PutBatch {
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
        });
        round_trip_request(Request::Fetch {
            namespace: "run-1".into(),
            refs: vec![ChunkRef { hash: h, len: 9 }, ChunkRef { hash: h, len: 0 }],
        });
        round_trip_request(Request::Fetch {
            namespace: "run-1".into(),
            refs: vec![],
        });
        round_trip_request(Request::Contains { hashes: vec![h, h] });
        round_trip_request(Request::List);
        round_trip_request(Request::Sweep {
            dry_run: true,
            reachable: vec![h],
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::ClearStaging);
        round_trip_request(Request::MetaPut {
            name: "manifests/a.qmf".into(),
            bytes: vec![1, 2, 3],
        });
        round_trip_request(Request::MetaGet {
            name: "LATEST".into(),
        });
        round_trip_request(Request::MetaList {
            prefix: "manifests/".into(),
        });
        round_trip_request(Request::MetaDelete { name: "x".into() });
        round_trip_request(Request::Status);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Corrupt {
            hash: h,
            offset: 1234,
        });
        round_trip_request(Request::ReplStatus);
        round_trip_request(Request::ReplFetch {
            namespace: "run-1".into(),
            from: 42,
            max: 64,
        });
        round_trip_request(Request::ReplAck {
            namespace: "run-1".into(),
            offset: 43,
        });
        round_trip_request(Request::Promote);
        round_trip_request(Request::LeaseRelease);
    }

    /// The Hello codec carries the version without judging it — the
    /// server needs the number to refuse a foreign dialect with a clear
    /// error — while the old short (version + namespace) body is a typed
    /// decode error, not a Hello with invented fields.
    #[test]
    fn foreign_version_hello_decodes_and_short_body_is_refused() {
        for version in [1, 2, 3, 4, 5, PROTO_VERSION + 1] {
            round_trip_request(Request::Hello {
                version,
                namespace: "old-client".into(),
                auth: String::new(),
                flags: 0,
                lease_token: 0,
                min_generation: 0,
            });
        }
        let mut short = Encoder::new();
        short.put_u8(OP_HELLO).put_u32(1).put_str("old-client");
        assert!(matches!(
            Request::decode(&short.into_bytes()),
            Err(Error::Decode { .. })
        ));
    }

    #[test]
    fn responses_round_trip() {
        let h = Sha256::digest(b"y");
        round_trip_response(Response::HelloOk {
            version: PROTO_VERSION,
            role: ROLE_PRIMARY,
            generation: 3,
            lease: None,
        });
        round_trip_response(Response::HelloOk {
            version: PROTO_VERSION,
            role: ROLE_SECONDARY,
            generation: 9,
            lease: Some(LeaseGrant {
                token: 0xFEED,
                ttl_ms: 30_000,
            }),
        });
        round_trip_response(Response::PutBatch(BatchPutReport {
            fresh: vec![true, false],
            renames: 1,
            fsyncs: 0,
        }));
        round_trip_response(Response::Contains(vec![true, false, true]));
        round_trip_response(Response::Hashes(vec![h]));
        round_trip_response(Response::Gc(GcReport {
            live: 1,
            deleted: 2,
            reclaimed_bytes: 3,
        }));
        round_trip_response(Response::Stats(StoreStats {
            object_count: 7,
            total_bytes: 99,
        }));
        round_trip_response(Response::Cleared(3));
        round_trip_response(Response::Ok);
        round_trip_response(Response::Meta(None));
        round_trip_response(Response::Meta(Some(vec![9])));
        round_trip_response(Response::Names(vec!["a".into(), "b".into()]));
        round_trip_response(Response::Metrics("# TYPE a counter\na 1\n".into()));
        round_trip_response(Response::Status {
            version: 1,
            namespaces: 2,
            connections: 3,
            role: ROLE_SECONDARY,
            generation: 4,
            oplog_entries: 5,
            repl_lag: 6,
        });
        round_trip_response(Response::ReplStatus {
            generation: 2,
            role: ROLE_PRIMARY,
            namespaces: vec![("a".into(), 10), ("b".into(), 0)],
        });
        round_trip_response(Response::ReplEntries(vec![
            OplogRecord {
                offset: 0,
                op: OplogOp::MetaPut {
                    name: "manifests/ck-1.qmf".into(),
                    bytes: vec![1, 2, 3],
                },
            },
            OplogRecord {
                offset: 1,
                op: OplogOp::MetaDelete {
                    name: "manifests/ck-0.qmf".into(),
                },
            },
            OplogRecord {
                offset: 2,
                op: OplogOp::Sweep { reachable: vec![h] },
            },
        ]));
        round_trip_response(Response::Chunks(vec![
            Some(vec![7, 8, 9]),
            None,
            Some(vec![]),
        ]));
        round_trip_response(Response::Chunks(vec![]));
        round_trip_response(Response::Promoted { generation: 11 });
        round_trip_response(Response::Err {
            code: ErrCode::NotFound as u8,
            message: "nope".into(),
        });
    }

    #[test]
    fn borrowed_put_batch_encoding_matches_owned() {
        let blobs: Vec<Vec<u8>> = vec![vec![1; 100], vec![], vec![9; 7]];
        let staged: Vec<crate::store::StagedChunk<'_>> = blobs
            .iter()
            .map(|b| crate::store::StagedChunk {
                reference: ChunkRef {
                    hash: Sha256::digest(b),
                    len: b.len() as u32,
                },
                data: b,
            })
            .collect();
        let owned = Request::PutBatch {
            fsync: true,
            chunks: staged
                .iter()
                .map(|c| WireChunk {
                    reference: c.reference,
                    data: c.data.to_vec(),
                })
                .collect(),
        };
        assert_eq!(encode_put_batch(true, &staged), owned.encode());
    }

    /// The size bound the client enforces is the encoder's own
    /// arithmetic: `lone_put_batch_len` is what `encode_put_batch`
    /// produces, and the largest admissible chunk lands exactly on the
    /// frame cap.
    #[test]
    fn largest_chunk_fills_a_lone_put_batch_frame_exactly() {
        for len in [0usize, 1, 4096, 70_000] {
            let data = vec![3u8; len];
            let staged = crate::store::StagedChunk {
                reference: ChunkRef {
                    hash: Sha256::digest(&data),
                    len: len as u32,
                },
                data: &data,
            };
            assert_eq!(
                encode_put_batch(true, &[staged]).len(),
                lone_put_batch_len(len)
            );
        }
        assert_eq!(lone_put_batch_len(MAX_CHUNK_PAYLOAD), MAX_FRAME_LEN);
        assert!(lone_put_batch_len(MAX_CHUNK_PAYLOAD + 1) > MAX_FRAME_LEN);
    }

    /// Frames fill up to the payload budget, never split an item, keep
    /// order, and let an over-budget item ride alone.
    #[test]
    fn batch_groups_cut_by_payload_volume() {
        const MIB: usize = 1 << 20;
        let sizes = [MIB, 3 * MIB, MIB, 5 * MIB, 1, 0];
        let groups = batch_groups(&sizes, |s| *s);
        let expected: [&[usize]; 4] = [&[MIB, 3 * MIB], &[MIB], &[5 * MIB], &[1, 0]];
        assert_eq!(groups, expected);
        // An empty batch is still one (empty) frame.
        assert_eq!(batch_groups(&[] as &[usize], |s| *s), [&[] as &[usize]]);
    }

    #[test]
    fn frame_io_round_trips_and_detects_damage() {
        let body = Request::Status.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), body);

        // Flip a body bit: CRC must catch it.
        let mut damaged = buf.clone();
        damaged[4] ^= 0x40;
        let mut cursor = &damaged[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(Error::Protocol { .. })
        ));

        // Truncate: transport error, not garbage.
        let mut cursor = &buf[..buf.len() - 1];
        assert!(matches!(read_frame(&mut cursor), Err(Error::Io { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(Error::Protocol { .. })
        ));
    }

    #[test]
    fn namespace_and_meta_name_grammar() {
        assert!(valid_namespace("run-1.a_B"));
        assert!(!valid_namespace(""));
        assert!(!valid_namespace("a/b"));
        assert!(!valid_namespace(".."));
        assert!(!valid_namespace(&"x".repeat(65)));
        assert!(valid_meta_name("LATEST"));
        assert!(valid_meta_name("manifests/ck-0001.qmf"));
        assert!(!valid_meta_name("/abs"));
        assert!(!valid_meta_name("a//b"));
        assert!(!valid_meta_name("a/../b"));
        assert!(!valid_meta_name("a/"));
    }

    #[test]
    fn err_codes_map_back_to_errors() {
        let e = ErrCode::NotFound.to_error("getting chunk", "chunk abc".into());
        assert!(matches!(e, Error::NotFound { .. }));
        assert!(e.is_integrity_failure());
        let e = ErrCode::Corrupt.to_error("getting chunk", "hash mismatch".into());
        assert!(matches!(e, Error::Corrupt { .. }));
        let e = ErrCode::Invalid.to_error("hello", "bad version".into());
        assert!(matches!(e, Error::InvalidConfig(_)));
        // The typed errors survive the wire round trip.
        for (err, code) in [
            (Error::Unauthorized("token".into()), ErrCode::Unauthorized),
            (Error::StaleGeneration("gen 1 < 2".into()), ErrCode::Stale),
            (Error::NotPrimary("tailing".into()), ErrCode::NotPrimary),
            (Error::LeaseHeld("ns by peer".into()), ErrCode::LeaseHeld),
        ] {
            let (wire, msg) = ErrCode::classify(&err);
            assert_eq!(wire, code);
            let back = code.to_error("ctx", msg);
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(&err),
                "{back:?} vs {err:?}"
            );
        }
    }
}

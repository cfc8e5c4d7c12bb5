//! `RemoteStore`: the [`ObjectStore`] client for a `qckptd` daemon.
//!
//! One handle owns one (lazily established, reused) TCP connection to
//! one of a **list** of daemon addresses (`QCHECK_REMOTE_ADDR=a,b`).
//! Transport failures — a dropped daemon connection, a mid-request
//! reset, a dead primary — are retried with **jittered exponential
//! backoff** over the address list: the client re-HELLOs the next
//! address and replays the in-flight request, which is safe because
//! every protocol operation is idempotent (content-addressed puts,
//! atomic metadata overwrites, convergent sweeps; see [`super::proto`]).
//! Server-reported errors are **never** retried: they mean the request
//! was received and judged, not lost.
//!
//! ## Fencing and leases
//!
//! The handle remembers the highest primary **generation** it has seen
//! and carries it in every handshake. An address that refuses with a
//! stale-generation error has proven itself a demoted primary; it is
//! fenced out of the rotation for the life of the handle. A repository
//! writer additionally holds the namespace's server-side **writer
//! lease** ([`RemoteStore::acquire_writer_lease`]): granted in the
//! handshake, renewed by traffic, re-presented by token after a
//! reconnect, and released on drop — a second concurrent writer is
//! refused with a typed lease-held error instead of silently
//! interleaving saves.
//!
//! Large `put_batch` and `get_many` calls are cut into frames of at most
//! 4 MiB of chunk payload and **pipelined** through a bounded window: up
//! to [`FRAMES_IN_FLIGHT`] frames are unanswered at once, and what waits
//! behind the oldest of them stays within [`QUEUED_BYTES`]. Small frames
//! (a burst of `MetaGet`s, the `Fetch` frames of a 4 KiB-chunk section)
//! overlap their round trips; frames larger than that go one at a time.
//! The bound is what keeps a burst from deadlocking: the daemon writes
//! each reply before it reads the next request, so a client that wrote a
//! whole burst first (a `get_many` of a million 64 B chunks is 36 MB of
//! refs) could block on a full socket while the daemon blocks on a reply
//! nobody reads.

use std::collections::BTreeSet;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::chunk::ChunkRef;
use crate::error::{Error, Result};
use crate::hash::ContentHash;
use crate::store::{BatchPutReport, GcReport, ObjectStore, StagedChunk, StoreStats};

use super::proto::{
    batch_groups, encode_put_batch, read_frame, valid_namespace, write_frame, Request, Response,
    HELLO_FLAG_WANT_LEASE, MAX_CHUNK_PAYLOAD, PROTO_VERSION,
};

/// Transport retries after the first failure (attempts = retries + 1).
/// Two retries give a failover client one shot at the dead primary, one
/// at the next address and one spare — a deployment that fails three
/// times in a row is down, and the caller should see that, not a hang.
const RETRIES: usize = 2;

/// Backoff base delay; attempt `n` waits roughly `base << (n-1)`.
const BACKOFF_BASE_MS: u64 = 25;

/// Backoff ceiling per attempt.
const BACKOFF_CAP_MS: u64 = 1000;

/// Connect timeout.
const CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Read/write timeout per socket operation. Balances "a wedged daemon
/// must surface as an error, not a silent training stall" against
/// server-side operations that legitimately take a while (a sweep
/// rewriting large packs).
const IO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// Most request frames a burst keeps unanswered at once.
const FRAMES_IN_FLIGHT: usize = 8;

/// Most request bytes a burst writes behind the frame the daemon is
/// answering: well inside a TCP socket's default buffers, so those writes
/// finish even while the daemon is blocked writing a reply.
const QUEUED_BYTES: usize = 64 << 10;

/// Splits a `host:port[,host:port…]` list into its addresses.
fn parse_addr_list(spec: &str) -> Vec<String> {
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Jittered exponential backoff for transport retry `attempt` (1-based):
/// `base << (attempt-1)`, capped, scaled by a uniform factor in
/// [0.5, 1.5) so a fleet of clients whose primary just died does not
/// reconnect in lockstep.
fn backoff_delay(attempt: usize) -> Duration {
    let shift = (attempt.saturating_sub(1)).min(6) as u32;
    let base = BACKOFF_BASE_MS
        .saturating_mul(1 << shift)
        .min(BACKOFF_CAP_MS);
    // Cheap xorshift over wall-clock nanos + pid: not cryptographic,
    // just decorrelated between processes and attempts.
    let mut x = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) | (d.as_secs() << 32))
        .unwrap_or(0x9E37_79B9)
        ^ u64::from(std::process::id())
        ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let factor = 0.5 + (x % 1024) as f64 / 1024.0;
    Duration::from_micros((base as f64 * 1000.0 * factor) as u64)
}

/// True for handshake refusals that are deterministic judgments — the
/// daemon received the Hello and said no. Retrying or failing over past
/// them would hide a misconfiguration (or, for stale-generation, hide
/// the fence the whole design depends on).
fn is_fatal_dial_error(e: &Error) -> bool {
    matches!(
        e,
        Error::Unauthorized(_)
            | Error::LeaseHeld(_)
            | Error::NotPrimary(_)
            | Error::InvalidConfig(_)
    )
}

/// One established connection.
pub(super) struct Conn {
    pub(super) reader: BufReader<TcpStream>,
    pub(super) writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Dials `addr` (bounded connect + per-op socket timeouts — a wedged
    /// or black-holed daemon must fail the caller, not hang it), sends
    /// `hello` and returns the connection with the daemon's answer,
    /// unjudged (a refusal is still a `Response`).
    pub(super) fn open(addr: &str, hello: &Request) -> Result<(Conn, Response)> {
        use std::net::ToSocketAddrs;
        let sock_addr = addr
            .to_socket_addrs()
            .map_err(|e| Error::io(format!("resolving {addr}"), e))?
            .next()
            .ok_or_else(|| Error::InvalidConfig(format!("{addr:?} resolves to no address")))?;
        let stream = TcpStream::connect_timeout(&sock_addr, CONNECT_TIMEOUT)
            .map_err(|e| Error::io(format!("connecting to qckptd at {addr}"), e))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| Error::io("setting read timeout", e))?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| Error::io("setting write timeout", e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| Error::io("setting TCP_NODELAY", e))?;
        let mut conn = Conn {
            reader: BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| Error::io("cloning stream", e))?,
            ),
            writer: BufWriter::new(stream),
        };
        write_frame(&mut conn.writer, &hello.encode())?;
        conn.writer
            .flush()
            .map_err(|e| Error::io("flushing handshake", e))?;
        let answer = Response::decode(&read_frame(&mut conn.reader)?)?;
        Ok((conn, answer))
    }
}

/// A parsed [`Response::Status`] (also printed by `qckptd status`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteStatus {
    /// Server protocol version.
    pub version: u32,
    /// Namespaces materialized on disk.
    pub namespaces: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Server role byte (see [`super::proto::role_name`]).
    pub role: u8,
    /// Fencing generation.
    pub generation: u64,
    /// Total oplog entries across namespaces.
    pub oplog_entries: u64,
    /// Replication lag in entries (see [`Response::Status`]).
    pub repl_lag: u64,
}

/// Client handle to one namespace of a `qckptd` deployment (a primary
/// and any failover peers). Implements [`ObjectStore`], so a
/// [`crate::repo::CheckpointRepo`] built over it is a drop-in
/// replacement for a local repository — plus, as methods of its own, the
/// writer lease and the shared metadata mirror
/// ([`RemoteStore::meta_list`], [`RemoteStore::meta_get_many`]) that lets
/// a *different* working directory reconstruct the repository from the
/// daemon alone.
pub struct RemoteStore {
    addrs: Vec<String>,
    /// Index of the address the live connection used last.
    active: AtomicUsize,
    /// Addresses proven demoted (stale generation); never redialed.
    fenced: Mutex<Vec<bool>>,
    namespace: String,
    auth: Option<String>,
    /// Request the namespace's writer lease in every handshake.
    want_lease: AtomicBool,
    /// Granted lease token, re-presented on reconnect (0 = none).
    lease_token: AtomicU64,
    /// Highest primary generation observed; sent as the handshake's
    /// fencing floor.
    max_generation: AtomicU64,
    conn: Mutex<Option<Conn>>,
    round_trips: AtomicU64,
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore")
            .field("addrs", &self.addrs)
            .field("namespace", &self.namespace)
            .field("generation", &self.max_generation.load(Ordering::Relaxed))
            .field("round_trips", &self.round_trips.load(Ordering::Relaxed))
            .finish()
    }
}

impl RemoteStore {
    /// Connects to the deployment at `addr` — a `host:port`, or a
    /// comma-separated failover list (`primary:port,secondary:port`) —
    /// and performs the versioned handshake for `namespace`. An auth
    /// token is taken from [`super::RemoteEnv::read`]
    /// (`QCHECK_REMOTE_TOKEN`) when set.
    ///
    /// # Errors
    ///
    /// Fails when no address is reachable, the namespace is invalid, or
    /// the server speaks a different protocol version.
    pub fn connect(addr: impl Into<String>, namespace: impl Into<String>) -> Result<RemoteStore> {
        Self::connect_opts(addr, namespace, super::RemoteEnv::read().token)
    }

    /// [`RemoteStore::connect`] with an explicit auth token (bypassing
    /// the environment).
    ///
    /// # Errors
    ///
    /// As [`RemoteStore::connect`].
    pub fn connect_opts(
        addr: impl Into<String>,
        namespace: impl Into<String>,
        auth: Option<String>,
    ) -> Result<RemoteStore> {
        let spec = addr.into();
        let addrs = parse_addr_list(&spec);
        if addrs.is_empty() {
            return Err(Error::InvalidConfig(format!(
                "remote address list {spec:?} names no addresses"
            )));
        }
        let store = RemoteStore {
            fenced: Mutex::new(vec![false; addrs.len()]),
            addrs,
            active: AtomicUsize::new(0),
            namespace: namespace.into(),
            auth,
            want_lease: AtomicBool::new(false),
            lease_token: AtomicU64::new(0),
            max_generation: AtomicU64::new(0),
            conn: Mutex::new(None),
            round_trips: AtomicU64::new(0),
        };
        if !valid_namespace(&store.namespace) {
            return Err(Error::InvalidConfig(format!(
                "invalid remote namespace {:?} (1-64 chars of [A-Za-z0-9._-])",
                store.namespace
            )));
        }
        // Establish + handshake eagerly so misconfiguration fails at
        // open time, not at the first checkpoint.
        let conn = store.dial()?;
        *store.lock_conn() = Some(conn);
        Ok(store)
    }

    /// The address of the daemon the live connection last used.
    pub fn addr(&self) -> &str {
        &self.addrs[self
            .active
            .load(Ordering::Relaxed)
            .min(self.addrs.len() - 1)]
    }

    /// The namespace this handle operates in.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Protocol round trips performed so far (request/response pairs
    /// that crossed the wire, counting a pipelined `put_batch` burst as
    /// one per sub-frame). The benchmark's `protocol_round_trips`
    /// column.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Highest primary generation this handle has observed.
    pub fn observed_generation(&self) -> u64 {
        self.max_generation.load(Ordering::Relaxed)
    }

    /// The fence list. After a panic under it the list is cleared: a
    /// demoted daemon refuses the next handshake with `StaleGeneration`
    /// and is fenced again.
    fn lock_fenced(&self) -> MutexGuard<'_, Vec<bool>> {
        crate::sync::lock_recover(&self.fenced, |fenced| fenced.fill(false))
    }

    /// Dials across the address list (skipping fenced entries) starting
    /// at the last-good address. A stale-generation refusal fences that
    /// address permanently and moves on; other deterministic refusals
    /// (wrong token, held lease, wrong version) fail fast.
    fn dial(&self) -> Result<Conn> {
        let n = self.addrs.len();
        let start = self.active.load(Ordering::Relaxed).min(n - 1);
        let mut last_err: Option<Error> = None;
        for k in 0..n {
            let i = (start + k) % n;
            if self.lock_fenced()[i] {
                continue;
            }
            match self.dial_one(i) {
                Ok(conn) => {
                    self.active.store(i, Ordering::Relaxed);
                    return Ok(conn);
                }
                Err(e @ Error::StaleGeneration(_)) => {
                    self.lock_fenced()[i] = true;
                    last_err = Some(e);
                }
                Err(e) if is_fatal_dial_error(&e) => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            Error::StaleGeneration(format!(
                "every address in {:?} is fenced (demoted); re-point at the promoted daemon",
                self.addrs
            ))
        }))
    }

    /// Dials one address and performs the handshake for this handle's
    /// namespace, lease and fencing floor.
    fn dial_one(&self, index: usize) -> Result<Conn> {
        let flags = if self.want_lease.load(Ordering::Acquire) {
            HELLO_FLAG_WANT_LEASE
        } else {
            0
        };
        let hello = Request::Hello {
            version: PROTO_VERSION,
            namespace: self.namespace.clone(),
            auth: self.auth.clone().unwrap_or_default(),
            flags,
            lease_token: self.lease_token.load(Ordering::Acquire),
            min_generation: self.max_generation.load(Ordering::Acquire),
        };
        let (conn, answer) = Conn::open(&self.addrs[index], &hello)?;
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        crate::obs::ROUND_TRIPS.inc();
        match answer.into_result("handshake")? {
            Response::HelloOk {
                version,
                generation,
                lease,
                ..
            } if version == PROTO_VERSION => {
                self.max_generation.fetch_max(generation, Ordering::AcqRel);
                if let Some(grant) = lease {
                    self.lease_token.store(grant.token, Ordering::Release);
                }
                Ok(conn)
            }
            Response::HelloOk { version, .. } => Err(Error::protocol(
                "handshake",
                format!("server answered version {version}, expected {PROTO_VERSION}"),
            )),
            other => Err(unexpected("handshake", &other)),
        }
    }

    /// Locks the connection slot. The slot is valid at every step (an
    /// exchange *takes* the connection and puts it back only once its
    /// frames are aligned again), so a caller that panicked while holding
    /// the lock — one `qpar` fold thread, say — must not turn every later
    /// call on this handle into a panic: recover the guard, drop whatever
    /// connection is there (it may sit mid-frame) and let the caller
    /// redial. Every operation is idempotent, which is the rule the retry
    /// loop already relies on.
    fn lock_conn(&self) -> MutexGuard<'_, Option<Conn>> {
        crate::sync::lock_recover(&self.conn, |conn| *conn = None)
    }

    /// Requests the namespace's writer lease (forcing a re-handshake so
    /// the grant arrives on this connection). Every subsequent reconnect
    /// re-presents the token, and traffic renews the TTL server-side.
    ///
    /// # Errors
    ///
    /// [`Error::LeaseHeld`] when another live writer holds it; transport
    /// errors when no daemon is reachable.
    pub fn acquire_writer_lease(&self) -> Result<()> {
        self.want_lease.store(true, Ordering::Release);
        let mut guard = self.lock_conn();
        *guard = None;
        match self.dial() {
            Ok(conn) => {
                *guard = Some(conn);
                Ok(())
            }
            Err(e) => {
                self.want_lease.store(false, Ordering::Release);
                Err(e)
            }
        }
    }

    /// Releases the writer lease (best-effort: an unreachable daemon
    /// expires it by TTL anyway).
    pub fn release_writer_lease(&self) {
        self.want_lease.store(false, Ordering::Release);
        if self.lease_token.load(Ordering::Acquire) == 0 {
            return;
        }
        let _ = self.request("releasing writer lease", Request::LeaseRelease);
        self.lease_token.store(0, Ordering::Release);
    }

    /// Fetches a named metadata blob from the daemon's mirror; `Ok(None)`
    /// when absent.
    ///
    /// # Errors
    ///
    /// Fails on transport or server errors.
    pub fn meta_get(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let mut blobs = self.meta_get_many(&[name.to_string()])?;
        Ok(blobs.remove(0))
    }

    /// Fetches many named metadata blobs, in input order, in one burst of
    /// `MetaGet` frames — a fresh-directory resume pulls a whole history
    /// of manifests, and one round trip of latency each would make that
    /// O(checkpoints).
    ///
    /// # Errors
    ///
    /// Fails on transport or server errors.
    pub fn meta_get_many(&self, names: &[String]) -> Result<Vec<Option<Vec<u8>>>> {
        if names.is_empty() {
            return Ok(Vec::new());
        }
        let requests: Vec<Request> = names
            .iter()
            .map(|n| Request::MetaGet { name: n.clone() })
            .collect();
        self.exchange("fetching metadata", &requests)?
            .into_iter()
            .map(|resp| match resp {
                Response::Meta(opt) => Ok(opt),
                other => Err(unexpected("fetching metadata", &other)),
            })
            .collect()
    }

    /// Lists the daemon's metadata names under a prefix, ascending.
    ///
    /// # Errors
    ///
    /// Fails on transport or server errors.
    pub fn meta_list(&self, prefix: &str) -> Result<Vec<String>> {
        match self.request(
            "listing metadata",
            Request::MetaList {
                prefix: prefix.to_string(),
            },
        )? {
            Response::Names(names) => Ok(names),
            other => Err(unexpected("listing metadata", &other)),
        }
    }

    /// Deletes a named metadata blob from the daemon's mirror; absence is
    /// not an error.
    ///
    /// # Errors
    ///
    /// Fails on transport or server errors.
    pub fn meta_delete(&self, name: &str) -> Result<()> {
        match self.request(
            "deleting metadata",
            Request::MetaDelete {
                name: name.to_string(),
            },
        )? {
            Response::Ok => Ok(()),
            other => Err(unexpected("deleting metadata", &other)),
        }
    }

    /// Sends `requests` pipelined on one connection and returns their
    /// responses, retrying the *whole* burst on a fresh connection after
    /// a transport failure (safe: idempotent ops — see module docs).
    fn exchange(&self, context: &str, requests: &[Request]) -> Result<Vec<Response>> {
        let bodies: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
        self.exchange_bodies(context, &bodies)
    }

    /// [`RemoteStore::exchange`] over pre-encoded frame bodies — the
    /// save path encodes its `PutBatch` frames straight from borrowed
    /// chunk slices and hands them here.
    fn exchange_bodies(&self, context: &str, bodies: &[Vec<u8>]) -> Result<Vec<Response>> {
        let mut guard = self.lock_conn();
        let mut last_err: Option<Error> = None;
        for attempt in 0..=RETRIES {
            if attempt > 0 {
                std::thread::sleep(backoff_delay(attempt));
            }
            let mut conn = match guard.take() {
                Some(conn) => conn,
                None => match self.dial() {
                    Ok(conn) => conn,
                    // Deterministic refusals (fenced everywhere, bad
                    // token, held lease) will not improve with retries.
                    Err(e) if is_fatal_dial_error(&e) => return Err(e),
                    Err(e @ Error::StaleGeneration(_)) => return Err(e),
                    Err(e) => {
                        last_err = Some(e);
                        continue;
                    }
                },
            };
            match Self::exchange_on(&mut conn, bodies) {
                Ok(responses) => {
                    self.round_trips
                        .fetch_add(bodies.len() as u64, Ordering::Relaxed);
                    crate::obs::ROUND_TRIPS.add(bodies.len() as u64);
                    *guard = Some(conn);
                    // Server-reported errors surface here, after the
                    // transport succeeded — they are NOT retried.
                    return responses
                        .into_iter()
                        .map(|r| r.into_result(context))
                        .collect();
                }
                Err(e) => {
                    // Transport or framing failure: drop the connection
                    // and retry from scratch (next attempt may dial a
                    // failover address).
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| Error::protocol(context.to_string(), "no attempts")))
    }

    /// Sends `bodies` and reads their responses through a sliding window:
    /// a frame is written when none is unanswered, or when fewer than
    /// [`FRAMES_IN_FLIGHT`] are and the bytes behind the oldest stay
    /// within [`QUEUED_BYTES`]. A one-frame burst is one write, one flush
    /// and one read.
    fn exchange_on(conn: &mut Conn, bodies: &[Vec<u8>]) -> Result<Vec<Response>> {
        let mut responses = Vec::with_capacity(bodies.len());
        let mut sent = 0;
        // Request bytes written behind the oldest unanswered frame.
        let mut queued = 0;
        while responses.len() < bodies.len() {
            while let Some(body) = bodies.get(sent) {
                let waiting = sent - responses.len();
                if waiting > 0 {
                    if waiting == FRAMES_IN_FLIGHT || queued + body.len() > QUEUED_BYTES {
                        break;
                    }
                    queued += body.len();
                }
                write_frame(&mut conn.writer, body)?;
                sent += 1;
            }
            conn.writer
                .flush()
                .map_err(|e| Error::io("flushing request", e))?;
            responses.push(Response::decode(&read_frame(&mut conn.reader)?)?);
            // The next unanswered frame is now the oldest.
            if let Some(next) = bodies[..sent].get(responses.len()) {
                queued -= next.len();
            }
        }
        Ok(responses)
    }

    /// Single-request convenience wrapper.
    fn request(&self, context: &str, request: Request) -> Result<Response> {
        let mut responses = self.exchange(context, std::slice::from_ref(&request))?;
        Ok(responses.remove(0))
    }

    /// Asks the daemon for its status line.
    ///
    /// # Errors
    ///
    /// Fails on transport or protocol errors.
    pub fn status(&self) -> Result<RemoteStatus> {
        match self.request("querying status", Request::Status)? {
            Response::Status {
                version,
                namespaces,
                connections,
                role,
                generation,
                oplog_entries,
                repl_lag,
            } => Ok(RemoteStatus {
                version,
                namespaces,
                connections,
                role,
                generation,
                oplog_entries,
                repl_lag,
            }),
            other => Err(unexpected("querying status", &other)),
        }
    }

    /// Fetches the daemon's metrics registry as a Prometheus-style text
    /// exposition (readable without a writer lease).
    ///
    /// # Errors
    ///
    /// Fails on transport or protocol errors.
    pub fn metrics(&self) -> Result<String> {
        match self.request("querying metrics", Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(unexpected("querying metrics", &other)),
        }
    }

    /// Promotes the connected daemon to primary; returns the new
    /// generation (also adopted as this handle's fencing floor, so a
    /// later reconnect to the demoted primary is refused).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unauthorized refusal.
    pub fn promote_daemon(&self) -> Result<u64> {
        match self.request("promoting daemon", Request::Promote)? {
            Response::Promoted { generation } => {
                self.max_generation.fetch_max(generation, Ordering::AcqRel);
                Ok(generation)
            }
            other => Err(unexpected("promoting daemon", &other)),
        }
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Fails on transport or protocol errors.
    pub fn shutdown_daemon(&self) -> Result<()> {
        match self.request("requesting shutdown", Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("requesting shutdown", &other)),
        }
    }
}

impl Drop for RemoteStore {
    /// Best-effort lease release on an **existing** connection only — a
    /// run that ends by scope drop frees the namespace for the next
    /// writer immediately, while a killed process leaves the TTL to
    /// expire the lease. Never dials: drop must not block on a dead
    /// daemon.
    fn drop(&mut self) {
        if self.lease_token.load(Ordering::Acquire) == 0 {
            return;
        }
        if let Ok(mut guard) = self.conn.lock() {
            if let Some(conn) = guard.as_mut() {
                let release = Request::LeaseRelease.encode();
                if write_frame(&mut conn.writer, &release).is_ok() && conn.writer.flush().is_ok() {
                    let _ = read_frame(&mut conn.reader);
                }
            }
        }
    }
}

fn unexpected(context: &str, resp: &Response) -> Error {
    Error::protocol(context.to_string(), format!("unexpected response {resp:?}"))
}

impl ObjectStore for RemoteStore {
    fn put_batch(&self, chunks: &[StagedChunk<'_>], fsync: bool) -> Result<BatchPutReport> {
        // A chunk too large for a lone frame can never ride PUT_BATCH —
        // refuse it before the encoder builds a doomed quarter-gigabyte
        // frame and before a byte hits the wire.
        if let Some(oversize) = chunks.iter().find(|c| c.data.len() > MAX_CHUNK_PAYLOAD) {
            return Err(Error::InvalidConfig(format!(
                "chunk {} is {} bytes; the wire moves chunks of at most {MAX_CHUNK_PAYLOAD} \
                 bytes — lower SaveOptions::chunk_size",
                oversize.reference.hash,
                oversize.data.len(),
            )));
        }
        // Pipelined sub-frames by payload volume, each body encoded
        // straight from the borrowed chunk slices (no owned copy of the
        // whole snapshot). Frames on one connection apply in order, so
        // the server observes the same first-occurrence dedup semantics
        // as the local backends.
        let bodies: Vec<Vec<u8>> = batch_groups(chunks, |c| c.data.len())
            .into_iter()
            .map(|group| encode_put_batch(fsync, group))
            .collect();

        let responses = self.exchange_bodies("storing chunk batch", &bodies)?;
        let mut report = BatchPutReport::default();
        for resp in responses {
            match resp {
                Response::PutBatch(part) => {
                    report.fresh.extend(part.fresh);
                    report.renames += part.renames;
                    report.fsyncs += part.fsyncs;
                }
                other => return Err(unexpected("storing chunk batch", &other)),
            }
        }
        if report.fresh.len() != chunks.len() {
            return Err(Error::protocol(
                "storing chunk batch",
                format!(
                    "server acknowledged {} chunks, sent {}",
                    report.fresh.len(),
                    chunks.len()
                ),
            ));
        }
        Ok(report)
    }

    fn get_many(&self, refs: &[ChunkRef]) -> Result<Vec<Vec<u8>>> {
        const CONTEXT: &str = "fetching chunks";
        if refs.is_empty() {
            return Ok(Vec::new());
        }
        // One Fetch frame per ≤ 4 MiB of named payload: resolving a
        // section costs one round trip (and the daemon one batched store
        // read) per 4 MiB, whatever its chunk count.
        let groups = batch_groups(refs, |r| r.len as usize);
        let requests: Vec<Request> = groups
            .iter()
            .map(|group| Request::Fetch {
                namespace: self.namespace.clone(),
                refs: group.to_vec(),
            })
            .collect();
        let mut out = Vec::with_capacity(refs.len());
        for (resp, group) in self.exchange(CONTEXT, &requests)?.into_iter().zip(groups) {
            let Response::Chunks(chunks) = resp else {
                return Err(unexpected(CONTEXT, &resp));
            };
            if chunks.len() != group.len() {
                return Err(Error::protocol(
                    CONTEXT,
                    format!("asked for {} chunks, got {}", group.len(), chunks.len()),
                ));
            }
            for (reference, chunk) in group.iter().zip(chunks) {
                let data = chunk.ok_or_else(|| Error::NotFound {
                    what: format!("chunk {}", reference.hash),
                })?;
                // End-to-end verification: never trust the wire (or the
                // server) over the content address.
                crate::store::verify_chunk(reference, &data)?;
                out.push(data);
            }
        }
        Ok(out)
    }

    fn contains_all(&self, hashes: &[ContentHash]) -> bool {
        if hashes.is_empty() {
            return true;
        }
        matches!(
            self.request(
                "probing existence",
                Request::Contains {
                    hashes: hashes.to_vec(),
                },
            ),
            Ok(Response::Contains(bools)) if bools.len() == hashes.len() && bools.iter().all(|b| *b)
        )
    }

    fn list(&self) -> Result<Vec<ContentHash>> {
        match self.request("listing objects", Request::List)? {
            Response::Hashes(hashes) => Ok(hashes),
            other => Err(unexpected("listing objects", &other)),
        }
    }

    fn sweep(&self, reachable: &BTreeSet<ContentHash>, dry_run: bool) -> Result<GcReport> {
        match self.request(
            "sweeping",
            Request::Sweep {
                dry_run,
                reachable: reachable.iter().copied().collect(),
            },
        )? {
            Response::Gc(report) => Ok(report),
            other => Err(unexpected("sweeping", &other)),
        }
    }

    fn stats(&self) -> Result<StoreStats> {
        match self.request("querying stats", Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("querying stats", &other)),
        }
    }

    fn clear_staging(&self) -> Result<usize> {
        match self.request("clearing staging", Request::ClearStaging)? {
            Response::Cleared(n) => Ok(n as usize),
            other => Err(unexpected("clearing staging", &other)),
        }
    }

    fn is_shared(&self) -> bool {
        true
    }

    fn meta_put(&self, name: &str, bytes: &[u8]) -> Result<()> {
        match self.request(
            "publishing metadata",
            Request::MetaPut {
                name: name.to_string(),
                bytes: bytes.to_vec(),
            },
        )? {
            Response::Ok => Ok(()),
            other => Err(unexpected("publishing metadata", &other)),
        }
    }

    #[cfg(any(test, feature = "testing"))]
    fn corrupt_object(&self, hash: &ContentHash, offset: usize) -> Result<()> {
        match self.request(
            "corrupting object",
            Request::Corrupt {
                hash: *hash,
                offset: offset as u64,
            },
        )? {
            Response::Ok => Ok(()),
            other => Err(unexpected("corrupting object", &other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::server::spawn_daemon;
    use super::*;
    use crate::store::StoreKind;

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qcheck-client-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn addr_lists_parse_and_reject_empty() {
        assert_eq!(parse_addr_list("a:1, b:2 ,,c:3"), vec!["a:1", "b:2", "c:3"]);
        assert!(parse_addr_list(" , ").is_empty());
        assert!(matches!(
            RemoteStore::connect(",,", "ns"),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn backoff_is_exponential_capped_and_jittered() {
        for attempt in 1..=10 {
            let d = backoff_delay(attempt);
            let shift = (attempt - 1).min(6) as u32;
            let base = (BACKOFF_BASE_MS << shift).min(BACKOFF_CAP_MS);
            let lo = Duration::from_micros(base * 500);
            let hi = Duration::from_micros(base * 1500);
            assert!(
                d >= lo && d <= hi,
                "attempt {attempt}: {d:?} not in [{lo:?}, {hi:?}]"
            );
        }
        // The cap holds even for absurd attempt counts.
        assert!(backoff_delay(1000) <= Duration::from_micros(1500 * 1000));
    }

    /// Pinned contract: a server-*reported* error is a judgment, not a
    /// transport loss, and must never be retried. One logical request
    /// that the server answers with an error costs exactly one round
    /// trip, regardless of the retry budget.
    #[test]
    fn server_reported_errors_are_never_retried() {
        let root = scratch("no-retry");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let store = RemoteStore::connect(daemon.addr(), "judged").unwrap();
        let before = store.round_trips();
        let err = store.meta_put("../escape", b"x").unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        assert_eq!(
            store.round_trips() - before,
            1,
            "a judged request must cross the wire exactly once"
        );
        // The connection survives a judged error: the next request
        // reuses it (no extra handshake round trip).
        let before = store.round_trips();
        store.status().unwrap();
        assert_eq!(store.round_trips() - before, 1);
        let _ = std::fs::remove_dir_all(root);
    }

    /// A caller that panics while holding the connection lock must not
    /// wedge the handle: the next call recovers the guard, drops the
    /// possibly mid-frame connection and redials.
    #[test]
    fn a_poisoned_connection_lock_is_recovered_on_a_fresh_connection() {
        let root = scratch("poison");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let store = RemoteStore::connect(daemon.addr(), "poisoned").unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = store.conn.lock().unwrap();
                panic!("a fold thread dies holding the connection");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(store.conn.is_poisoned());

        let before = store.round_trips();
        store.status().unwrap();
        assert_eq!(
            store.round_trips() - before,
            2,
            "a fresh connection: one handshake, one status"
        );
        assert!(!store.conn.is_poisoned());
        // And the handle is back to normal: the new connection is reused.
        let before = store.round_trips();
        store.status().unwrap();
        assert_eq!(store.round_trips() - before, 1);
        let _ = std::fs::remove_dir_all(root);
    }

    /// Same for the fence list: after a panic under it the list is
    /// cleared rather than trusted, so the next dial reaches the live
    /// daemon (a demoted one would refuse the handshake and be fenced
    /// again).
    #[test]
    fn a_poisoned_fence_list_is_cleared_and_the_next_dial_succeeds() {
        let root = scratch("fence-poison");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        let store = RemoteStore::connect(daemon.addr(), "fence-poisoned").unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let mut fenced = store.fenced.lock().unwrap();
                fenced[0] = true;
                panic!("a dialling thread dies holding the fence list");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(store.fenced.is_poisoned());

        store.dial().expect("the only address is dialled again");
        assert!(!store.fenced.is_poisoned());
        assert_eq!(*store.lock_fenced(), [false]);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn connect_fails_over_to_the_next_address() {
        let root = scratch("failover");
        let daemon = spawn_daemon(&root, StoreKind::Pack).unwrap();
        // First address is a black hole (reserved port, nothing bound);
        // the client must fail over to the live daemon at connect time.
        let spec = format!("127.0.0.1:1,{}", daemon.addr());
        let store = RemoteStore::connect(spec, "fo").unwrap();
        store.status().unwrap();
        assert_eq!(store.addr(), daemon.addr());
        let _ = std::fs::remove_dir_all(root);
    }
}

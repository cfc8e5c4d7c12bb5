//! The `qckptd` daemon: a multi-tenant checkpoint object-store server.
//!
//! ## Layout
//!
//! The daemon roots every *namespace* (one training run / one logical
//! repository) in its own directory:
//!
//! ```text
//! <root>/GENERATION     fencing epoch (bumped + persisted on promote)
//! <root>/ns/<namespace>/
//!   STORE            sticky backend marker (pack)
//!   packs/           the namespace's object store (reuses the local
//!                    backend: pack v3 files)
//!   tmp/             server-side staging (disposable)
//!   OPLOG            the namespace's metadata: an append-only log of
//!                    named blobs (manifests/…, LATEST), their deletes
//!                    and sweeps — `MetaGet` / `MetaList` read its
//!                    index, and replication ships it
//! ```
//!
//! A `meta/` directory left by an older build (which kept a second copy
//! of every blob there) is ignored and left in place: everything it
//! holds that a client saw acknowledged is also in `OPLOG`. A namespace
//! with a non-empty `meta/` and no `OPLOG` records predates the oplog;
//! opening it fails with a typed error and changes no file.
//!
//! Reusing [`StoreBackend`] for per-namespace storage means the daemon
//! inherits the local backend's whole crash-safety story: staged writes,
//! atomic renames, CRC-framed packs, mark-and-sweep GC. A client dying
//! mid-`put_batch` never reaches the store at all — the request frame
//! never completes, so nothing is staged, and whatever debris an earlier
//! crash left in `tmp/` is disposable by construction.
//!
//! ## Roles, generations, leases
//!
//! A daemon is either a **primary** (accepts writes, appends each
//! committed metadata mutation to the namespace's oplog) or a
//! **secondary** ([`ServerConfig::replicate`] — tails a primary via
//! `qcheck::remote::repl` and refuses client writes with a typed
//! not-primary error). Promotion bumps and persists the **generation**;
//! a client that has seen the new generation carries it in its Hello,
//! and the demoted primary — whose generation is lower — must refuse
//! the handshake, which is the write fence.
//!
//! **Writer leases** replace the advisory per-directory LOCK file for
//! shared stores: a writer requests the namespace's lease in its Hello,
//! the lease renews on traffic and expires after
//! [`ServerConfig::lease_ttl`], and a second writer is refused with a
//! typed lease-held error instead of silently interleaving saves.
//!
//! When an **auth token** is configured, privileged operations
//! (`SHUTDOWN`, destructive `SWEEP`, `PROMOTE`, replication streams)
//! require it; data-plane operations stay open so existing tenants keep
//! working. `SHUTDOWN` additionally stays loopback-only, token or not.
//!
//! ## Threading
//!
//! One handler runs per connection, on a dedicated thread — in the
//! standalone `qckptd` daemon and in embedded (in-process) servers
//! alike — so accepting never blocks behind slow peers and a handler
//! never occupies a worker the embedding trainer's fan-outs wait for.
//!
//! Namespace state is created lazily on first use and shared between
//! connections through a mutex-guarded map; the [`StoreBackend`]s
//! themselves are internally synchronized, so two clients of one
//! namespace serialize only on the store's own locks.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::store::{BatchPutReport, ObjectStore, StagedChunk, StoreBackend, StoreKind, StoreStats};

use super::proto::{
    read_frame, valid_meta_name, valid_namespace, write_frame, ErrCode, LeaseGrant, OplogOp,
    Request, Response, BATCH_FRAME_BYTES, HELLO_FLAG_REPL, HELLO_FLAG_WANT_LEASE, PROTO_VERSION,
    ROLE_PRIMARY, ROLE_SECONDARY,
};
use super::repl::{self, Oplog, ReplicateConfig, SyncReport};

/// File (under the daemon root) persisting the generation across
/// restarts — a promoted daemon must never come back demoted.
const GENERATION_FILE: &str = "GENERATION";

/// Default writer-lease time-to-live.
pub const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(30);

/// Configuration for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Directory holding every namespace.
    pub root: PathBuf,
    /// Backend layout for *new* namespaces (existing ones keep their
    /// sticky marker). Pack — a whole `put_batch` commits with one
    /// rename — is the only local layout a release build has; the
    /// equivalence suites also serve the reference loose layout.
    pub store_kind: StoreKind,
    /// Fault injection: close each connection after this many request
    /// frames (handshake excluded). Exercises the client's
    /// reconnect-and-replay path; `None` in production.
    pub drop_after_requests: Option<u64>,
    /// Auth token required for privileged operations (shutdown,
    /// destructive sweep, promote, replication streams). `None` keeps
    /// the v1 behavior: loopback is the only control boundary.
    pub auth_token: Option<String>,
    /// Writer-lease time-to-live; leases renew on every request from
    /// their holder.
    pub lease_ttl: Duration,
    /// Run as a replication secondary tailing this primary. The daemon
    /// refuses client writes until promoted.
    pub replicate: Option<ReplicateConfig>,
}

impl ServerConfig {
    /// Default configuration rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            root: root.into(),
            store_kind: StoreKind::Pack,
            drop_after_requests: None,
            auth_token: None,
            lease_ttl: DEFAULT_LEASE_TTL,
            replicate: None,
        }
    }
}

/// One namespace's storage: the object store, and the oplog that is its
/// only metadata record.
#[derive(Debug)]
pub(crate) struct Namespace {
    pub(crate) store: StoreBackend,
    pub(crate) oplog: Oplog,
}

impl Namespace {
    fn open(ns_root: &Path, kind: StoreKind) -> Result<Namespace> {
        fs::create_dir_all(ns_root)
            .map_err(|e| Error::io(format!("creating {}", ns_root.display()), e))?;
        let oplog = Oplog::open(ns_root)?;
        // A namespace from before the oplog kept its metadata only under
        // `meta/`; serving it from an empty log would hide every
        // checkpoint it holds, so it is refused before the store opens.
        let pre_oplog = || fs::read_dir(ns_root.join("meta")).is_ok_and(|mut d| d.next().is_some());
        if oplog.is_empty() && pre_oplog() {
            return Err(Error::InvalidConfig(format!(
                "{} holds metadata under `meta/` and no `OPLOG` records; this \
                 build serves a namespace's metadata only from its oplog",
                ns_root.display()
            )));
        }
        let store = StoreBackend::open_sticky(ns_root, kind)?;
        Ok(Namespace { store, oplog })
    }
}

/// A granted writer lease.
#[derive(Debug)]
struct Lease {
    token: u64,
    expires: Instant,
    holder: String,
}

/// What a secondary has learned about (and reported to) its primary.
#[derive(Debug, Default)]
struct ReplProgress {
    /// On a secondary: the primary's generation as of the last poll.
    primary_generation: u64,
    /// On a secondary: the primary's total oplog length at last poll.
    primary_total: u64,
    /// On a secondary: entries applied locally as of the last pass.
    applied_total: u64,
    /// On a primary: per-namespace applied offsets acked by a tailer.
    acked: BTreeMap<String, u64>,
}

/// Connections accepted since process start (all in-process daemons
/// share one registry; single-daemon deployments read this as "this
/// daemon's total").
static OBS_CONNECTIONS: qobs::LazyCounter = qobs::LazyCounter::new("qckptd_connections_total");
/// Connections currently open.
static OBS_INFLIGHT: qobs::LazyGauge = qobs::LazyGauge::new("qckptd_inflight_connections");
/// Frame bytes received from clients (payload + frame header/CRC).
static OBS_BYTES_IN: qobs::LazyCounter = qobs::LazyCounter::new("qckptd_bytes_in_total");
/// Frame bytes sent to clients (payload + frame header/CRC).
static OBS_BYTES_OUT: qobs::LazyCounter = qobs::LazyCounter::new("qckptd_bytes_out_total");
/// Fresh writer-lease grants (renewals not counted).
static OBS_LEASE_GRANTS: qobs::LazyCounter = qobs::LazyCounter::new("qckptd_lease_grants_total");
/// Leases that were found expired and removed.
static OBS_LEASE_EXPIRIES: qobs::LazyCounter =
    qobs::LazyCounter::new("qckptd_lease_expiries_total");
/// Replication lag in oplog entries, refreshed on STATUS / METRICS.
static OBS_REPL_LAG: qobs::LazyGauge = qobs::LazyGauge::new("qckptd_repl_lag_entries");
/// Seconds since this daemon started, refreshed on STATUS / METRICS.
static OBS_UPTIME: qobs::LazyGauge = qobs::LazyGauge::new("qckptd_uptime_seconds");

/// Per-frame length on the wire: 4-byte length prefix + 4-byte CRC32.
const FRAME_OVERHEAD: u64 = 8;

/// Locks one of the daemon's shared tables (namespace map, lease table,
/// replication progress, socket registry). Each is valid after any
/// single insert, remove or field store, so a handler that panicked
/// holding one leaves nothing to repair — and must not take every later
/// connection down with it.
fn lock<T>(table: &Mutex<T>) -> MutexGuard<'_, T> {
    crate::sync::lock_recover(table, |_| {})
}

/// Bumps the per-namespace, per-op request counter
/// (`qckptd_requests_total{ns=...,op=...}`).
fn count_request(ns: &str, op: &'static str) {
    if qobs::enabled() {
        qobs::counter(&qobs::labeled(
            "qckptd_requests_total",
            &[("ns", ns), ("op", op)],
        ))
        .inc();
    }
}

/// Stable op label for the request counter.
fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "hello",
        Request::PutBatch { .. } => "put_batch",
        Request::Fetch { .. } => "fetch",
        Request::Contains { .. } => "contains",
        Request::List => "list",
        Request::Sweep { .. } => "sweep",
        Request::Stats => "stats",
        Request::ClearStaging => "clear_staging",
        Request::MetaPut { .. } => "meta_put",
        Request::MetaGet { .. } => "meta_get",
        Request::MetaList { .. } => "meta_list",
        Request::MetaDelete { .. } => "meta_delete",
        Request::Status => "status",
        Request::Shutdown => "shutdown",
        Request::Corrupt { .. } => "corrupt",
        Request::ReplStatus => "repl_status",
        Request::ReplFetch { .. } => "repl_fetch",
        Request::ReplAck { .. } => "repl_ack",
        Request::Promote => "promote",
        Request::LeaseRelease => "lease_release",
        Request::Metrics => "metrics",
    }
}

/// Shared daemon state.
#[derive(Debug)]
pub(crate) struct Shared {
    config: ServerConfig,
    namespaces: Mutex<BTreeMap<String, Arc<Namespace>>>,
    shutdown: AtomicBool,
    /// Connection-id source for the socks map; the operator-visible
    /// total lives in the qobs registry (`qckptd_connections_total`).
    conn_seq: AtomicU64,
    active: AtomicU64,
    /// Process start, for the uptime gauge.
    started: Instant,
    /// Duplicated handles of every live connection's socket plus a
    /// "currently serving a request" flag, keyed by connection id and
    /// removed by the handler on exit. The graceful-drain path closes
    /// idle sockets (handlers parked in `read_frame`) immediately and
    /// gives busy ones a bounded grace to finish their request.
    socks: Mutex<BTreeMap<u64, (TcpStream, Arc<AtomicBool>)>>,
    /// [`ROLE_PRIMARY`] or [`ROLE_SECONDARY`]; flips on promote.
    role: AtomicU8,
    /// Fencing epoch, persisted in `<root>/GENERATION`.
    generation: AtomicU64,
    /// Per-namespace writer leases.
    leases: Mutex<BTreeMap<String, Lease>>,
    lease_counter: AtomicU64,
    repl: Mutex<ReplProgress>,
}

impl Shared {
    pub(crate) fn namespace(&self, name: &str) -> Result<Arc<Namespace>> {
        let mut map = lock(&self.namespaces);
        if let Some(ns) = map.get(name) {
            return Ok(Arc::clone(ns));
        }
        let ns_root = self.config.root.join("ns").join(name);
        let ns = Arc::new(Namespace::open(&ns_root, self.config.store_kind)?);
        map.insert(name.to_string(), Arc::clone(&ns));
        Ok(ns)
    }

    fn namespace_count(&self) -> u64 {
        // Count what is on disk, not just what this process has touched.
        fs::read_dir(self.config.root.join("ns"))
            .map(|entries| entries.count() as u64)
            .unwrap_or(0)
    }

    /// Namespace names materialized on disk (sorted).
    fn namespace_names(&self) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(self.config.root.join("ns"))
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().to_string())
                    .filter(|n| valid_namespace(n))
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    /// `(namespace, oplog length)` for every namespace on disk.
    fn oplog_lengths(&self) -> Result<Vec<(String, u64)>> {
        self.namespace_names()
            .into_iter()
            .map(|n| {
                let len = self.namespace(&n)?.oplog.len();
                Ok((n, len))
            })
            .collect()
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    pub(crate) fn role(&self) -> u8 {
        self.role.load(Ordering::Acquire)
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Secondary bookkeeping: what the primary looked like at last poll.
    pub(crate) fn note_primary(&self, generation: u64, total: u64) {
        let mut repl = lock(&self.repl);
        repl.primary_generation = generation;
        repl.primary_total = total;
    }

    /// Secondary bookkeeping: entries applied locally after a pass.
    pub(crate) fn note_applied(&self, total: u64) {
        lock(&self.repl).applied_total = total;
    }

    /// Replication lag in entries, per the [`Response::Status`] contract.
    fn repl_lag(&self, lengths: &[(String, u64)]) -> u64 {
        let local_total: u64 = lengths.iter().map(|(_, l)| l).sum();
        let repl = lock(&self.repl);
        if self.role() == ROLE_SECONDARY {
            repl.primary_total
                .saturating_sub(repl.applied_total.max(local_total))
        } else if repl.acked.is_empty() {
            0
        } else {
            lengths
                .iter()
                .map(|(n, l)| l.saturating_sub(*repl.acked.get(n).unwrap_or(&0)))
                .sum()
        }
    }

    /// Promotes this daemon to primary under a bumped, persisted
    /// generation (strictly above anything it has seen).
    pub(crate) fn promote(&self) -> Result<u64> {
        let seen = lock(&self.repl).primary_generation;
        let new_gen = self.generation().max(seen) + 1;
        persist_generation(&self.config.root, new_gen)?;
        self.generation.store(new_gen, Ordering::Release);
        self.role.store(ROLE_PRIMARY, Ordering::Release);
        Ok(new_gen)
    }

    /// Grants (or renews) the namespace's writer lease.
    fn acquire_lease(&self, ns: &str, presented: u64, holder: &str) -> Result<LeaseGrant> {
        let ttl = self.config.lease_ttl;
        let now = Instant::now();
        let mut leases = lock(&self.leases);
        // Reclaim a TTL-expired lease first so every expiry is counted
        // exactly once, whether a write with the stale token noticed it
        // (check_lease) or a new writer claimed the namespace here.
        if leases.get(ns).is_some_and(|l| l.expires <= now) {
            leases.remove(ns);
            OBS_LEASE_EXPIRIES.inc();
        }
        match leases.get_mut(ns) {
            Some(l) if l.expires > now && l.token != presented => Err(Error::LeaseHeld(format!(
                "namespace {ns:?} writer lease is held by {}",
                l.holder
            ))),
            Some(l) if l.expires > now => {
                // Reconnecting holder re-presented its token: renew.
                l.expires = now + ttl;
                l.holder = holder.to_string();
                Ok(LeaseGrant {
                    token: l.token,
                    ttl_ms: ttl.as_millis() as u64,
                })
            }
            _ => {
                OBS_LEASE_GRANTS.inc();
                let token = self.lease_counter.fetch_add(1, Ordering::Relaxed) + 1;
                leases.insert(
                    ns.to_string(),
                    Lease {
                        token,
                        expires: now + ttl,
                        holder: holder.to_string(),
                    },
                );
                Ok(LeaseGrant {
                    token,
                    ttl_ms: ttl.as_millis() as u64,
                })
            }
        }
    }

    /// Write gate: refuses when a *different* live writer holds the
    /// namespace's lease; renews the lease when the caller holds it.
    /// No lease (or an expired one) leaves writes open — leases are the
    /// opt-in exclusivity a [`crate::repo::CheckpointRepo`] requests.
    fn check_lease(&self, ns: &str, token: u64) -> Result<()> {
        let mut leases = lock(&self.leases);
        if let Some(l) = leases.get_mut(ns) {
            if l.expires <= Instant::now() {
                leases.remove(ns);
                OBS_LEASE_EXPIRIES.inc();
            } else if l.token != token {
                return Err(Error::LeaseHeld(format!(
                    "namespace {ns:?} writer lease is held by {}",
                    l.holder
                )));
            } else {
                l.expires = Instant::now() + self.config.lease_ttl;
            }
        }
        Ok(())
    }

    /// Renews the lease on any traffic from its holder.
    fn renew_lease(&self, ns: &str, token: u64) {
        if token == 0 {
            return;
        }
        let mut leases = lock(&self.leases);
        if let Some(l) = leases.get_mut(ns) {
            if l.token == token && l.expires > Instant::now() {
                l.expires = Instant::now() + self.config.lease_ttl;
            }
        }
    }

    /// Releases the lease if `token` holds it (idempotent).
    fn release_lease(&self, ns: &str, token: u64) {
        if token == 0 {
            return;
        }
        let mut leases = lock(&self.leases);
        if leases.get(ns).is_some_and(|l| l.token == token) {
            leases.remove(ns);
        }
    }
}

fn load_generation(root: &Path) -> u64 {
    fs::read_to_string(root.join(GENERATION_FILE))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1)
}

fn persist_generation(root: &Path, generation: u64) -> Result<()> {
    let tmp = root.join(format!("{GENERATION_FILE}.tmp-{}", std::process::id()));
    let bytes = format!("{generation}\n");
    crate::durable::publish(&tmp, &root.join(GENERATION_FILE), bytes.as_bytes(), false)
}

/// A bound (but not yet serving) checkpoint daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port) and
    /// creates the storage root.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the root cannot be
    /// created.
    pub fn bind(addr: &str, config: ServerConfig) -> Result<Server> {
        fs::create_dir_all(config.root.join("ns"))
            .map_err(|e| Error::io(format!("creating {}", config.root.display()), e))?;
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::io(format!("binding {addr}"), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::io("resolving bound address", e))?;
        let role = if config.replicate.is_some() {
            ROLE_SECONDARY
        } else {
            ROLE_PRIMARY
        };
        let generation = load_generation(&config.root);
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                config,
                namespaces: Mutex::new(BTreeMap::new()),
                shutdown: AtomicBool::new(false),
                conn_seq: AtomicU64::new(0),
                active: AtomicU64::new(0),
                started: Instant::now(),
                socks: Mutex::new(BTreeMap::new()),
                role: AtomicU8::new(role),
                generation: AtomicU64::new(generation),
                leases: Mutex::new(BTreeMap::new()),
                lease_counter: AtomicU64::new(0),
                repl: Mutex::new(ReplProgress::default()),
            }),
        })
    }

    /// The bound address (the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves connections until a client sends `Shutdown`, each on a
    /// dedicated thread. A secondary additionally runs its tailer
    /// thread here (unless configured manual).
    ///
    /// # Errors
    ///
    /// Fails only on accept-loop errors; per-connection failures are
    /// contained to their connection.
    pub fn serve(self) -> Result<()> {
        let tailer = match &self.shared.config.replicate {
            Some(cfg) if !cfg.manual => {
                let shared = Arc::clone(&self.shared);
                let cfg = cfg.clone();
                Some(std::thread::spawn(move || repl::run_tailer(shared, cfg)))
            }
            _ => None,
        };
        // Tolerance for transient accept failures (fd exhaustion under
        // connection pressure, EINTR): back off briefly and keep
        // serving — existing connections closing is exactly what clears
        // the condition. Only a long unbroken error streak (a genuinely
        // dead listener) is fatal.
        const MAX_CONSECUTIVE_ACCEPT_ERRORS: u32 = 100;
        let mut accept_errors = 0u32;
        for stream in self.listener.incoming() {
            if self.shared.is_shutdown() {
                break;
            }
            let stream = match stream {
                Ok(s) => {
                    accept_errors = 0;
                    s
                }
                Err(e) => {
                    accept_errors += 1;
                    if accept_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                        return Err(Error::io("accepting connection", e));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    continue;
                }
            };
            let shared = Arc::clone(&self.shared);
            let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
            OBS_CONNECTIONS.inc();
            OBS_INFLIGHT.add(1);
            shared.active.fetch_add(1, Ordering::Relaxed);
            let serving = Arc::new(AtomicBool::new(false));
            if let Ok(dup) = stream.try_clone() {
                lock(&shared.socks).insert(conn_id, (dup, Arc::clone(&serving)));
            }
            std::thread::spawn(move || {
                // A handler that panics must still deregister, or every
                // later shutdown waits out its deadline for it.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(&shared, stream, &serving)
                }));
                lock(&shared.socks).remove(&conn_id);
                shared.active.fetch_sub(1, Ordering::Relaxed);
                OBS_INFLIGHT.sub(1);
            });
        }
        // Graceful drain: close *idle* connections (handlers parked in
        // `read_frame` between requests) immediately, let handlers that
        // are mid-request finish and send their response, and re-sweep
        // until everyone is gone. The overall deadline bounds exit even
        // against a peer whose request never completes.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            {
                let socks = lock(&self.shared.socks);
                let force = std::time::Instant::now() >= deadline;
                for (sock, serving) in socks.values() {
                    if force || !serving.load(Ordering::Acquire) {
                        let _ = sock.shutdown(std::net::Shutdown::Both);
                    }
                }
            }
            if self.shared.active.load(Ordering::Acquire) == 0
                || std::time::Instant::now() >= deadline
            {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // The tailer polls the shutdown flag every few ms; join is
        // prompt once the flag is up.
        if let Some(t) = tailer {
            let _ = t.join();
        }
        Ok(())
    }

    /// Spawns the accept loop on a background thread and returns a
    /// handle — the in-process form used by tests, benches and examples.
    pub fn spawn(self) -> DaemonHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.serve());
        DaemonHandle {
            addr,
            shared,
            thread: Some(thread),
        }
    }
}

/// Handle to an in-process daemon; shuts it down on drop.
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<Result<()>>>,
}

impl DaemonHandle {
    /// The daemon's address, as a `host:port` string for
    /// [`super::RemoteStore::connect`].
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// The daemon's current role byte.
    pub fn role(&self) -> u8 {
        self.shared.role()
    }

    /// The daemon's current generation.
    pub fn generation(&self) -> u64 {
        self.shared.generation()
    }

    /// Promotes this daemon to primary in-process (the test/embedded
    /// form of `qckptd promote`); returns the new generation.
    ///
    /// # Errors
    ///
    /// Fails when the generation cannot be persisted.
    pub fn promote(&self) -> Result<u64> {
        self.shared.promote()
    }

    /// Runs one replication pass against the configured primary. Only
    /// valid on a daemon configured with [`ServerConfig::replicate`];
    /// pairs with `manual: true`, where no background tailer competes.
    ///
    /// # Errors
    ///
    /// Fails when this daemon is not a secondary or the primary is
    /// unreachable.
    pub fn repl_sync(&self) -> Result<SyncReport> {
        let cfg = self.shared.config.replicate.clone().ok_or_else(|| {
            Error::InvalidConfig("daemon is not configured as a replication secondary".into())
        })?;
        let mut client = repl::ReplClient::connect(&cfg.primary_addr, cfg.auth_token.as_deref())?;
        repl::sync_once(&self.shared, &mut client)
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Spawns an in-process daemon on an ephemeral localhost port — the
/// one-liner for tests and examples. It runs the configuration
/// `qckptd serve` runs (GC included), on the given store layout.
///
/// # Errors
///
/// As [`Server::bind`].
pub fn spawn_daemon(root: impl Into<PathBuf>, kind: StoreKind) -> Result<DaemonHandle> {
    let mut config = ServerConfig::new(root);
    config.store_kind = kind;
    Ok(Server::bind("127.0.0.1:0", config)?.spawn())
}

/// Spawns an in-process *secondary* tailing `primary_addr`, on an
/// ephemeral localhost port.
///
/// # Errors
///
/// As [`Server::bind`].
pub fn spawn_secondary(
    root: impl Into<PathBuf>,
    kind: StoreKind,
    primary_addr: &str,
) -> Result<DaemonHandle> {
    let mut config = ServerConfig::new(root);
    config.store_kind = kind;
    config.replicate = Some(ReplicateConfig::new(primary_addr));
    Ok(Server::bind("127.0.0.1:0", config)?.spawn())
}

/// Per-connection facts established by the handshake.
struct ConnCtx {
    namespace: String,
    peer_is_loopback: bool,
    /// The connection presented the configured auth token (or, with no
    /// token configured, comes from loopback).
    privileged: bool,
    /// The connection is a replication stream (`HELLO_FLAG_REPL`).
    is_repl: bool,
    /// Writer-lease token held by this connection (0 = none).
    lease_token: u64,
}

/// Validates a Hello and produces the connection context + reply.
fn handshake(
    shared: &Shared,
    hello: Request,
    peer_is_loopback: bool,
    peer: &str,
) -> Result<(ConnCtx, Response)> {
    let Request::Hello {
        version,
        namespace,
        auth,
        flags,
        lease_token,
        min_generation,
    } = hello
    else {
        return Err(Error::protocol(
            "handshake",
            "first frame must be a versioned Hello",
        ));
    };
    if version != PROTO_VERSION {
        return Err(Error::InvalidConfig(format!(
            "unsupported protocol version {version} (server speaks {PROTO_VERSION})"
        )));
    }
    check_namespace(&namespace)?;
    // Auth: a wrong token is refused outright; an absent token leaves
    // the connection unprivileged but serviceable (data-plane ops stay
    // open — the token gates control-plane operations only).
    let privileged = match &shared.config.auth_token {
        Some(token) => {
            if !auth.is_empty() && auth != *token {
                return Err(Error::Unauthorized("auth token does not match".into()));
            }
            auth == *token
        }
        None => peer_is_loopback,
    };
    // Generation fencing: a client that has already talked to a newer
    // primary proves this daemon demoted; it must refuse writes *and*
    // reads (reads could serve a stale LATEST).
    let generation = shared.generation();
    if min_generation > generation {
        return Err(Error::StaleGeneration(format!(
            "client has observed generation {min_generation}; this daemon is at {generation} \
             (demoted primary — re-point at the promoted peer)"
        )));
    }
    let is_repl = flags & HELLO_FLAG_REPL != 0;
    if is_repl && shared.config.auth_token.is_some() && !privileged {
        return Err(Error::Unauthorized(
            "replication streams require the daemon's auth token".into(),
        ));
    }
    let lease = if flags & HELLO_FLAG_WANT_LEASE != 0 {
        if shared.role() != ROLE_PRIMARY {
            return Err(Error::NotPrimary(
                "writer leases are only granted by the primary".into(),
            ));
        }
        Some(shared.acquire_lease(&namespace, lease_token, peer)?)
    } else {
        None
    };
    let ctx = ConnCtx {
        namespace,
        peer_is_loopback,
        privileged,
        is_repl,
        lease_token: lease.map(|g| g.token).unwrap_or(0),
    };
    let reply = Response::HelloOk {
        version,
        role: shared.role(),
        generation,
        lease,
    };
    Ok((ctx, reply))
}

/// Runs one connection to completion: handshake, then a request loop.
fn handle_connection(shared: &Shared, stream: TcpStream, serving: &AtomicBool) -> Result<()> {
    // Daemon-control boundary: with no auth token configured, the peer
    // address is the only signal we have — process-control operations
    // (Shutdown, Promote) are honored from loopback peers only, so a
    // remote tenant of a LAN-exposed daemon cannot stop everyone else's
    // checkpoint store. Shutdown stays loopback-only even *with* a
    // token: stopping the daemon is a host-level act.
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown-peer".into());
    let peer_is_loopback = stream
        .peer_addr()
        .map(|a| a.ip().is_loopback())
        .unwrap_or(false);
    stream
        .set_nodelay(true)
        .map_err(|e| Error::io("setting TCP_NODELAY", e))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| Error::io("cloning stream", e))?,
    );
    let mut writer = BufWriter::new(stream);

    // --- handshake ---
    let hello = read_frame(&mut reader)?;
    OBS_BYTES_IN.add(hello.len() as u64 + FRAME_OVERHEAD);
    let mut ctx = match Request::decode(&hello)
        .and_then(|req| handshake(shared, req, peer_is_loopback, &peer))
    {
        Ok((ctx, reply)) => {
            count_request(&ctx.namespace, "hello");
            send(&mut writer, &reply)?;
            ctx
        }
        Err(e) => {
            let (code, message) = ErrCode::classify(&e);
            send(
                &mut writer,
                &Response::Err {
                    code: code as u8,
                    message,
                },
            )?;
            return Ok(());
        }
    };

    // --- request loop ---
    let mut served = 0u64;
    loop {
        let body = match read_frame(&mut reader) {
            Ok(body) => body,
            // Peer closed (or broke) the connection: normal end of life.
            Err(_) => return Ok(()),
        };
        OBS_BYTES_IN.add(body.len() as u64 + FRAME_OVERHEAD);
        // Mark the connection busy for the graceful-drain sweep: a
        // shutdown arriving now lets this request finish and its
        // response reach the client before the socket is closed.
        serving.store(true, Ordering::Release);
        served += 1;
        let req = match Request::decode(&body) {
            Ok(req) => req,
            Err(e) => {
                let (code, message) = ErrCode::classify(&e);
                let sent = send(
                    &mut writer,
                    &Response::Err {
                        code: code as u8,
                        message,
                    },
                );
                serving.store(false, Ordering::Release);
                sent?;
                drop_budget(shared, served)?;
                continue;
            }
        };
        count_request(&ctx.namespace, op_name(&req));
        let is_shutdown = matches!(req, Request::Shutdown);
        let response = apply_request(shared, &mut ctx, req);
        let ok = !matches!(response, Response::Err { .. });
        let sent = send(&mut writer, &response);
        serving.store(false, Ordering::Release);
        sent?;
        if is_shutdown && ok {
            shared.shutdown.store(true, Ordering::Release);
            // Unblock the accept loop (the accepted socket's local
            // address is the listening address) so `serve` observes
            // the flag.
            if let Ok(addr) = writer.get_ref().local_addr() {
                let _ = TcpStream::connect(addr);
            }
            return Ok(());
        }
        drop_budget(shared, served)?;
    }
}

/// Fault-injection point: errors out of the handler (dropping the
/// connection) once the configured request budget is exhausted.
fn drop_budget(shared: &Shared, served: u64) -> Result<()> {
    if let Some(cap) = shared.config.drop_after_requests {
        if served >= cap {
            return Err(Error::protocol(
                "fault injection",
                format!("dropping connection after {served} requests"),
            ));
        }
    }
    Ok(())
}

fn send(writer: &mut BufWriter<TcpStream>, resp: &Response) -> Result<()> {
    let body = resp.encode();
    OBS_BYTES_OUT.add(body.len() as u64 + FRAME_OVERHEAD);
    write_frame(writer, &body)?;
    writer
        .flush()
        .map_err(|e| Error::io("flushing response", e))?;
    Ok(())
}

/// Executes one request against its namespace, mapping errors onto
/// [`Response::Err`].
fn apply_request(shared: &Shared, ctx: &mut ConnCtx, req: Request) -> Response {
    let result = apply_request_inner(shared, ctx, req);
    match result {
        Ok(resp) => resp,
        Err(e) => {
            let (code, message) = ErrCode::classify(&e);
            Response::Err {
                code: code as u8,
                message,
            }
        }
    }
}

/// Gate for every mutation: a secondary refuses them outright, and a
/// foreign live writer lease refuses them with the typed lease error
/// (the holder's own traffic renews the lease instead).
fn guard_write(shared: &Shared, ctx: &ConnCtx, what: &str) -> Result<()> {
    if shared.role() != ROLE_PRIMARY {
        return Err(Error::NotPrimary(format!(
            "{what} refused: this daemon is a replication secondary (promote it first)"
        )));
    }
    shared.check_lease(&ctx.namespace, ctx.lease_token)
}

/// Control-plane gate for operations the auth token protects.
fn guard_privileged(shared: &Shared, ctx: &ConnCtx, what: &str) -> Result<()> {
    if shared.config.auth_token.is_some() && !ctx.privileged {
        return Err(Error::Unauthorized(format!(
            "{what} requires the daemon's auth token"
        )));
    }
    Ok(())
}

fn apply_request_inner(shared: &Shared, ctx: &mut ConnCtx, req: Request) -> Result<Response> {
    // Any traffic from a lease holder keeps its lease alive.
    shared.renew_lease(&ctx.namespace, ctx.lease_token);
    let namespace = ctx.namespace.as_str();
    match req {
        Request::Hello { .. } => Err(Error::protocol("handling request", "duplicate Hello")),
        Request::PutBatch { fsync, chunks } => {
            guard_write(shared, ctx, "put_batch")?;
            let ns = shared.namespace(namespace)?;
            // Trust boundary: verify every chunk's address before it
            // reaches the store — a lying client must not be able to
            // poison content addresses other clients dedup against.
            for c in &chunks {
                if c.data.len() != c.reference.len as usize
                    || crate::hash::Sha256::digest(&c.data) != c.reference.hash
                {
                    return Err(Error::corrupt(
                        format!("staged chunk {}", c.reference.hash),
                        "payload does not match its content address".to_string(),
                    ));
                }
            }
            let staged: Vec<StagedChunk<'_>> = chunks
                .iter()
                .map(|c| StagedChunk {
                    reference: c.reference,
                    data: &c.data,
                })
                .collect();
            let report: BatchPutReport = ns.store.put_batch(&staged, fsync)?;
            Ok(Response::PutBatch(report))
        }
        Request::Fetch {
            namespace: target,
            refs,
        } => {
            // Tenant isolation is checked here, not trusted to the asker:
            // only a replication stream may read a namespace other than
            // the one its handshake named.
            if target != namespace {
                require_repl(
                    ctx,
                    "FETCH from a namespace other than the connection's own",
                )?;
                check_namespace(&target)?;
            }
            // The reply must fit a frame and this handler's memory: an
            // honest asker cuts its list with `batch_groups`, so a list
            // over the budget is either one oversized chunk riding alone
            // or a peer that does not follow the protocol.
            let named: u64 = refs.iter().map(|r| u64::from(r.len)).sum();
            if refs.len() > 1 && named > BATCH_FRAME_BYTES as u64 {
                return Err(Error::InvalidConfig(format!(
                    "fetch names {named} bytes of chunks; one request carries at most \
                     {BATCH_FRAME_BYTES}"
                )));
            }
            let ns = shared.namespace(&target)?;
            match ns.store.get_many(&refs) {
                Ok(chunks) => Ok(Response::Chunks(chunks.into_iter().map(Some).collect())),
                // Something is absent — for a tailer the benign "swept
                // while I was behind" case. Answer ref by ref so the
                // asker learns *which*; a chunk that is present but
                // fails verification stays an error naming it.
                Err(Error::NotFound { .. }) => refs
                    .iter()
                    .map(|r| {
                        if ns.store.contains(&r.hash) {
                            ns.store.get(r).map(Some)
                        } else {
                            Ok(None)
                        }
                    })
                    .collect::<Result<_>>()
                    .map(Response::Chunks),
                Err(e) => Err(e),
            }
        }
        Request::Contains { hashes } => {
            let ns = shared.namespace(namespace)?;
            // A delta save probes its whole chain (hundreds of hashes)
            // and expects "all there": one batched check answers that;
            // only a mixed answer needs the hash-by-hash walk.
            let bools = if ns.store.contains_all(&hashes) {
                vec![true; hashes.len()]
            } else {
                hashes.iter().map(|h| ns.store.contains(h)).collect()
            };
            Ok(Response::Contains(bools))
        }
        Request::List => {
            let ns = shared.namespace(namespace)?;
            Ok(Response::Hashes(ns.store.list()?))
        }
        Request::Sweep { dry_run, reachable } => {
            let ns = shared.namespace(namespace)?;
            // Planning is a read; only the real sweep is gated and logged.
            if !dry_run {
                guard_privileged(shared, ctx, "destructive sweep")?;
                guard_write(shared, ctx, "sweep")?;
            }
            let set = reachable.iter().copied().collect();
            let report = ns.store.sweep(&set, dry_run)?;
            if !dry_run {
                ns.oplog.append(&OplogOp::Sweep { reachable })?;
            }
            Ok(Response::Gc(report))
        }
        Request::Stats => {
            let ns = shared.namespace(namespace)?;
            let stats: StoreStats = ns.store.stats()?;
            Ok(Response::Stats(stats))
        }
        Request::ClearStaging => {
            let ns = shared.namespace(namespace)?;
            Ok(Response::Cleared(ns.store.clear_staging()? as u64))
        }
        Request::MetaPut { name, bytes } => {
            guard_write(shared, ctx, "meta_put")?;
            let ns = shared.namespace(namespace)?;
            check_meta_name(&name)?;
            ns.oplog.append(&OplogOp::MetaPut { name, bytes })?;
            Ok(Response::Ok)
        }
        Request::MetaGet { name } => {
            let ns = shared.namespace(namespace)?;
            check_meta_name(&name)?;
            Ok(Response::Meta(ns.oplog.get(&name)?))
        }
        Request::MetaList { prefix } => {
            let ns = shared.namespace(namespace)?;
            Ok(Response::Names(ns.oplog.names(&prefix)))
        }
        Request::MetaDelete { name } => {
            guard_write(shared, ctx, "meta_delete")?;
            let ns = shared.namespace(namespace)?;
            check_meta_name(&name)?;
            ns.oplog.append(&OplogOp::MetaDelete { name })?;
            Ok(Response::Ok)
        }
        Request::Status => {
            let lengths = shared.oplog_lengths()?;
            let oplog_entries = lengths.iter().map(|(_, l)| l).sum();
            let repl_lag = shared.repl_lag(&lengths);
            OBS_REPL_LAG.set(repl_lag as i64);
            OBS_UPTIME.set(shared.started.elapsed().as_secs() as i64);
            Ok(Response::Status {
                version: PROTO_VERSION,
                namespaces: shared.namespace_count(),
                connections: OBS_CONNECTIONS.get().get(),
                role: shared.role(),
                generation: shared.generation(),
                oplog_entries,
                repl_lag,
            })
        }
        Request::Metrics => {
            // Point-in-time gauges are refreshed at scrape time; the
            // rest of the exposition is live counters.
            let lengths = shared.oplog_lengths()?;
            OBS_REPL_LAG.set(shared.repl_lag(&lengths) as i64);
            OBS_UPTIME.set(shared.started.elapsed().as_secs() as i64);
            Ok(Response::Metrics(qobs::text_exposition()))
        }
        Request::Shutdown => {
            guard_privileged(shared, ctx, "shutdown")?;
            if ctx.peer_is_loopback {
                Ok(Response::Ok)
            } else {
                Err(Error::InvalidConfig(
                    "shutdown is only honored from loopback connections \
                     (run `qckptd shutdown` on the daemon's host)"
                        .into(),
                ))
            }
        }
        Request::Promote => {
            // Promote rewires who may write; gate it like shutdown,
            // except a token explicitly enables remote promotion (the
            // operator promoting a surviving secondary is usually not
            // on its host).
            match &shared.config.auth_token {
                Some(_) => guard_privileged(shared, ctx, "promote")?,
                None => {
                    if !ctx.peer_is_loopback {
                        return Err(Error::Unauthorized(
                            "promote is only honored from loopback connections \
                             unless an auth token is configured"
                                .into(),
                        ));
                    }
                }
            }
            let generation = shared.promote()?;
            Ok(Response::Promoted { generation })
        }
        Request::LeaseRelease => {
            shared.release_lease(namespace, ctx.lease_token);
            ctx.lease_token = 0;
            Ok(Response::Ok)
        }
        Request::ReplStatus => {
            require_repl(ctx, "REPL_STATUS")?;
            Ok(Response::ReplStatus {
                generation: shared.generation(),
                role: shared.role(),
                namespaces: shared.oplog_lengths()?,
            })
        }
        Request::ReplFetch {
            namespace,
            from,
            max,
        } => {
            require_repl(ctx, "REPL_FETCH")?;
            check_namespace(&namespace)?;
            let ns = shared.namespace(&namespace)?;
            Ok(Response::ReplEntries(
                ns.oplog.read_from(from, max.min(4096) as usize)?,
            ))
        }
        Request::ReplAck { namespace, offset } => {
            require_repl(ctx, "REPL_ACK")?;
            lock(&shared.repl).acked.insert(namespace, offset);
            Ok(Response::Ok)
        }
        #[cfg(any(test, feature = "testing"))]
        Request::Corrupt { hash, offset } => {
            guard_write(shared, ctx, "corrupt_object")?;
            // The panic drill: an offset no object reaches asks this
            // handler to die holding every table the others share.
            if offset == u64::MAX {
                let _held = (
                    lock(&shared.namespaces),
                    lock(&shared.leases),
                    lock(&shared.repl),
                    lock(&shared.socks),
                );
                panic!("injected handler panic (testing builds only)");
            }
            let ns = shared.namespace(namespace)?;
            ns.store.corrupt_object(&hash, offset as usize)?;
            Ok(Response::Ok)
        }
        #[cfg(not(any(test, feature = "testing")))]
        Request::Corrupt { .. } => Err(Error::InvalidConfig(
            "corrupt-object is a testing-only operation; this daemon was built without it".into(),
        )),
    }
}

fn require_repl(ctx: &ConnCtx, what: &str) -> Result<()> {
    if ctx.is_repl {
        Ok(())
    } else {
        Err(Error::InvalidConfig(format!(
            "{what} is only honored on a replication stream (Hello with the REPL flag)"
        )))
    }
}

fn check_namespace(name: &str) -> Result<()> {
    if valid_namespace(name) {
        Ok(())
    } else {
        Err(Error::InvalidConfig(format!("invalid namespace {name:?}")))
    }
}

fn check_meta_name(name: &str) -> Result<()> {
    if valid_meta_name(name) {
        Ok(())
    } else {
        Err(Error::InvalidConfig(format!(
            "invalid metadata name {name:?}"
        )))
    }
}

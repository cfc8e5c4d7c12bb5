//! `qobs` — zero-dependency observability for the workspace: a metrics
//! registry (counters / gauges / log2 latency histograms) plus an RAII
//! span layer, in the house style of `qprop` and `qsimd` (no crates.io
//! deps, std only).
//!
//! ## Modes
//!
//! The whole substrate is gated by one process-wide mode, resolved once
//! from the `QOBS` environment variable (override with [`set_mode`]):
//!
//! | `QOBS=`    | effect |
//! |------------|--------|
//! | `off`      | every instrumentation site is one relaxed atomic load |
//! | `counters` | metrics record; spans time into histograms (default)  |
//! | `trace`    | `counters` + JSONL span events to `QOBS_TRACE=<path>` |
//!
//! Call sites guard with [`enabled`] (or use the `Lazy*` handles, which
//! do it for them), so `QOBS=off` costs exactly one `Relaxed` load per
//! site.
//!
//! ## Registry
//!
//! Metrics are registered by name on first use and live for the rest of
//! the process. [`text_exposition`] renders a Prometheus-style text
//! snapshot whose line order is the lexicographic name order — two
//! scrapes of the same process are stable-ordered.
//! Counters are lock-striped (8 cache-line-padded stripes, summed on
//! read) so hot concurrent increments do not bounce one cache line.
//!
//! Histograms use fixed log2 buckets: bucket 0 holds the value 0 and
//! bucket *i* holds `[2^(i-1), 2^i - 1]`, so a quantile estimate is the
//! upper bound of the bucket where the cumulative count crosses the
//! rank — values are exact to within 2× which is plenty for latency
//! triage (p50/p99/p999 summaries).
//!
//! ## Spans
//!
//! [`span("qcheck.save")`](span) returns a guard; on drop it records the
//! elapsed nanoseconds into histogram `qcheck_save_ns` and, in `trace`
//! mode, appends one JSON line (`name`, `id`, `parent`, `start_us`,
//! `dur_us`, `thread`) to the `QOBS_TRACE` file. Parent linkage is a
//! thread-local: spans opened while another is live on the same thread
//! carry its id as `parent`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Environment variable selecting the mode (`off` / `counters` /
/// `trace`; unset means `counters`).
pub const ENV_MODE: &str = "QOBS";
/// Environment variable naming the JSONL span-event sink for
/// `QOBS=trace`. Without it, trace mode still records histograms but
/// emits no events.
pub const ENV_TRACE: &str = "QOBS_TRACE";

// ---------------------------------------------------------------------------
// Mode

/// Process-wide observability mode. See the crate docs for the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Instrumentation sites are a single relaxed load, nothing records.
    Off,
    /// Counters, gauges and histograms record; no span events.
    Counters,
    /// `Counters` plus JSONL span events to the `QOBS_TRACE` file.
    Trace,
}

/// 0 = unresolved, else `Mode as u8 + 1`.
static MODE: AtomicU8 = AtomicU8::new(0);

#[cold]
fn resolve_mode() -> Mode {
    let m = match std::env::var(ENV_MODE).ok().as_deref().map(str::trim) {
        Some("off") | Some("0") | Some("false") => Mode::Off,
        Some("trace") => Mode::Trace,
        _ => Mode::Counters,
    };
    MODE.store(m as u8 + 1, Ordering::Relaxed);
    m
}

/// The current mode (cached after the first call).
#[inline]
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        1 => Mode::Off,
        2 => Mode::Counters,
        3 => Mode::Trace,
        _ => resolve_mode(),
    }
}

/// Whether anything records at all. This is the one relaxed atomic load
/// every instrumentation site pays when observability is off.
#[inline]
pub fn enabled() -> bool {
    mode() != Mode::Off
}

/// Overrides the mode for the whole process (tests and benches; regular
/// programs should let the `QOBS` env var decide).
pub fn set_mode(m: Mode) {
    MODE.store(m as u8 + 1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Counters

const STRIPES: usize = 8;

/// One cache line per stripe so concurrent increments from different
/// threads do not contend on a single hot line.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread is pinned to one stripe for its lifetime.
    static STRIPE_IDX: usize =
        NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// A monotonically increasing, lock-striped counter.
#[derive(Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    /// Adds `n` to this thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        let i = STRIPE_IDX.with(|i| *i);
        self.stripes[i].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum over all stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A settable signed gauge (queue depths, lags, in-flight counts).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histograms

/// Bucket count: index 0 is the exact value 0, index `i` in `1..=63`
/// covers `[2^(i-1), 2^i - 1]`, index 64 covers `>= 2^63`.
const BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples (latencies in
/// nanoseconds by convention; any unit works).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of a bucket (what quantile estimates report).
fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Quantile estimate: the upper bound of the bucket in which the
    /// `ceil(q·count)`-th sample (1-based) falls. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile estimate.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// `(upper_bound, cumulative_count)` for every bucket with at least
    /// one sample, in ascending bucket order — the exposition's
    /// `_bucket{le=...}` lines.
    fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                out.push((bucket_upper_bound(i), cum));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Registry

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn register<T: Default>(
    name: &str,
    wrap: fn(&'static T) -> Metric,
    unwrap: fn(&Metric) -> Option<&'static T>,
) -> &'static T {
    let mut map = registry().lock().expect("qobs registry poisoned");
    if let Some(m) = map.get(name) {
        return unwrap(m).unwrap_or_else(|| {
            panic!("qobs: metric {name:?} already registered with a different type")
        });
    }
    let leaked: &'static T = Box::leak(Box::default());
    map.insert(name.to_string(), wrap(leaked));
    leaked
}

/// The counter registered under `name` (created on first use). Metric
/// handles live for the rest of the process.
pub fn counter(name: &str) -> &'static Counter {
    register(name, Metric::Counter, |m| match m {
        Metric::Counter(c) => Some(c),
        _ => None,
    })
}

/// The gauge registered under `name` (created on first use).
pub fn gauge(name: &str) -> &'static Gauge {
    register(name, Metric::Gauge, |m| match m {
        Metric::Gauge(g) => Some(g),
        _ => None,
    })
}

/// The histogram registered under `name` (created on first use).
pub fn histogram(name: &str) -> &'static Histogram {
    register(name, Metric::Histogram, |m| match m {
        Metric::Histogram(h) => Some(h),
        _ => None,
    })
}

/// Renders `family{k="v",...}` with label values escaped, for metrics
/// keyed by dynamic labels (per-namespace / per-op counters).
pub fn labeled(family: &str, labels: &[(&str, &str)]) -> String {
    let mut s = String::with_capacity(family.len() + 16 * labels.len());
    s.push_str(family);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                '\n' => s.push_str("\\n"),
                c => s.push(c),
            }
        }
        s.push('"');
    }
    s.push('}');
    s
}

/// The metric family: the name up to any `{label}` suffix.
fn family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

// ---------------------------------------------------------------------------
// Snapshots

/// Prometheus-style text exposition of every registered metric, in
/// lexicographic name order (stable across scrapes: names only ever get
/// added, and additions sort into place without reordering the rest).
pub fn text_exposition() -> String {
    let map = registry().lock().expect("qobs registry poisoned");
    let mut out = String::new();
    let mut last_family = String::new();
    for (name, metric) in map.iter() {
        let fam = family(name);
        match metric {
            Metric::Counter(c) => {
                if fam != last_family {
                    out.push_str(&format!("# TYPE {fam} counter\n"));
                    last_family = fam.to_string();
                }
                out.push_str(&format!("{name} {}\n", c.get()));
            }
            Metric::Gauge(g) => {
                if fam != last_family {
                    out.push_str(&format!("# TYPE {fam} gauge\n"));
                    last_family = fam.to_string();
                }
                out.push_str(&format!("{name} {}\n", g.get()));
            }
            Metric::Histogram(h) => {
                if fam != last_family {
                    out.push_str(&format!("# TYPE {fam} histogram\n"));
                    last_family = fam.to_string();
                }
                for (le, cum) in h.nonzero_buckets() {
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                out.push_str(&format!("{name}_count {}\n", h.count()));
                out.push_str(&format!("{name}_sum {}\n", h.sum()));
                for (q, v) in [(0.5, h.p50()), (0.99, h.p99()), (0.999, h.p999())] {
                    out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
                }
            }
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lazy handles — one-time registry lookup, `enabled()`-gated recording

/// A counter handle usable in `static` position: resolves its registry
/// entry on first recording and gates every call on [`enabled`].
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A handle for the counter registered under `name`.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying counter (registers it if needed).
    pub fn get(&self) -> &'static Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    /// Adds `n` when observability is on; one relaxed load otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.get().add(n);
        }
    }

    /// Adds 1 when observability is on.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A gauge handle usable in `static` position; see [`LazyCounter`].
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// A handle for the gauge registered under `name`.
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying gauge (registers it if needed).
    pub fn get(&self) -> &'static Gauge {
        self.cell.get_or_init(|| gauge(self.name))
    }

    /// Sets the gauge when observability is on.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.get().set(v);
        }
    }

    /// Adds `n` when observability is on.
    #[inline]
    pub fn add(&self, n: i64) {
        if enabled() {
            self.get().add(n);
        }
    }

    /// Subtracts `n` when observability is on.
    #[inline]
    pub fn sub(&self, n: i64) {
        if enabled() {
            self.get().sub(n);
        }
    }
}

/// A histogram handle usable in `static` position; see [`LazyCounter`].
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// A handle for the histogram registered under `name`.
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying histogram (registers it if needed).
    pub fn get(&self) -> &'static Histogram {
        self.cell.get_or_init(|| histogram(self.name))
    }

    /// Records a sample when observability is on.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.get().record(v);
        }
    }

    /// Records a duration as nanoseconds when observability is on.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if enabled() {
            self.get().record_duration(d);
        }
    }
}

/// Times `f` into `h` when observability is on; otherwise calls `f`
/// directly (one relaxed load of overhead).
#[inline]
pub fn time<T>(h: &LazyHistogram, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    h.get().record_duration(start.elapsed());
    out
}

// ---------------------------------------------------------------------------
// Spans

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Id of the innermost live span on this thread (0 = none).
    static CURRENT_SPAN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// RAII guard returned by [`span`]; records on drop.
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    id: u64,
    parent: u64,
}

/// Opens a span. Dotted names (`qcheck.save`) become histogram names
/// with `.` → `_` and an `_ns` suffix (`qcheck_save_ns`). When the mode
/// is [`Mode::Off`] the guard is inert and the call is one relaxed load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start: None,
            id: 0,
            parent: 0,
        };
    }
    // Pin the epoch before the first span starts so start offsets are
    // non-negative.
    let _ = epoch();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT_SPAN.with(|c| c.replace(id));
    SpanGuard {
        name,
        start: Some(Instant::now()),
        id,
        parent,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur = start.elapsed();
        CURRENT_SPAN.with(|c| c.set(self.parent));
        let hist_name = format!("{}_ns", self.name.replace('.', "_"));
        histogram(&hist_name).record_duration(dur);
        if mode() == Mode::Trace {
            trace_event(self.name, self.id, self.parent, start, dur);
        }
    }
}

// ---------------------------------------------------------------------------
// Trace sink

enum Sink {
    /// `QOBS_TRACE` not consulted yet.
    Unopened,
    Open(std::io::BufWriter<std::fs::File>),
    /// No path configured (or open failed): swallow events.
    Disabled,
}

static SINK: Mutex<Sink> = Mutex::new(Sink::Unopened);

/// Points the JSONL span-event sink at `path` (truncating it), for
/// tests and tools; regular programs use the `QOBS_TRACE` env var.
pub fn set_trace_path(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    *SINK.lock().expect("qobs sink poisoned") = Sink::Open(std::io::BufWriter::new(file));
    Ok(())
}

fn trace_event(name: &str, id: u64, parent: u64, start: Instant, dur: Duration) {
    let start_us = start.duration_since(epoch()).as_micros() as u64;
    let dur_us = dur.as_micros() as u64;
    let thread = std::thread::current();
    let line = format!(
        "{{\"name\":\"{}\",\"id\":{id},\"parent\":{parent},\"start_us\":{start_us},\
         \"dur_us\":{dur_us},\"thread\":\"{}\"}}",
        json_escape(name),
        json_escape(thread.name().unwrap_or("?")),
    );
    let mut sink = SINK.lock().expect("qobs sink poisoned");
    if let Sink::Unopened = *sink {
        *sink = match std::env::var(ENV_TRACE).ok().and_then(|p| {
            let p = p.trim().to_string();
            (!p.is_empty()).then_some(p)
        }) {
            Some(path) => match std::fs::File::create(&path) {
                Ok(f) => Sink::Open(std::io::BufWriter::new(f)),
                Err(_) => Sink::Disabled,
            },
            None => Sink::Disabled,
        };
    }
    if let Sink::Open(w) = &mut *sink {
        // Flush per event: Rust runs no static destructors, and trace
        // mode is a debugging mode — a complete file beats buffering.
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that flip the global mode serialize through this lock so
    /// concurrently running recording tests never observe `Off`.
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn histogram_bucket_edges() {
        let h = Histogram::default();
        // Exact powers land in the bucket whose range starts at them.
        for (v, le) in [
            (0u64, 0u64),
            (1, 1),
            (2, 3),
            (3, 3),
            (4, 7),
            (1023, 1023),
            (1024, 2047),
            (u64::MAX, u64::MAX),
        ] {
            let fresh = Histogram::default();
            fresh.record(v);
            assert_eq!(fresh.quantile(0.5), le, "value {v} should report le {le}");
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        // Cumulative bucket lines are ascending in both bound and count.
        let b = h.nonzero_buckets();
        assert!(b.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert_eq!(b.last().unwrap().1, 8);
    }

    #[test]
    fn quantile_rank_math() {
        let h = Histogram::default();
        for _ in 0..999 {
            h.record(1);
        }
        h.record(1 << 20);
        // 999 of 1000 samples are 1: p50 and p99 sit in the ones bucket,
        // p999 exactly reaches rank 999 (ceil(0.999 * 1000)) — still 1.
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p99(), 1);
        assert_eq!(h.p999(), 1);
        // One more large sample pushes rank 1000 of 1001 into the big
        // bucket's range.
        h.record(1 << 20);
        assert_eq!(h.p999(), (1u64 << 21) - 1);
        assert_eq!(h.quantile(1.0), (1u64 << 21) - 1);
        let empty = Histogram::default();
        assert_eq!(empty.p999(), 0);
    }

    #[test]
    fn exposition_is_sorted_and_stable() {
        let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_mode(Mode::Counters);
        counter("ztest_b_total").inc();
        counter("ztest_a_total").inc();
        gauge("ztest_gauge").set(7);
        histogram("ztest_ns").record(100);
        let names = |text: &str| {
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split_whitespace().next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        let first = names(&text_exposition());
        // Metric families come out lexicographically sorted (lines
        // within one histogram follow bucket order, not string order).
        let mut fams: Vec<&str> = first
            .iter()
            .map(|n| family(n))
            .map(|f| f.strip_suffix("_bucket").unwrap_or(f))
            .map(|f| f.strip_suffix("_count").unwrap_or(f))
            .map(|f| f.strip_suffix("_sum").unwrap_or(f))
            .collect();
        fams.dedup();
        let mut sorted = fams.clone();
        sorted.sort();
        assert_eq!(fams, sorted);
        // A second scrape with traffic in between keeps the same order
        // for every name already present.
        counter("ztest_a_total").add(5);
        let second = names(&text_exposition());
        assert_eq!(first, second);
        let text = text_exposition();
        assert!(text.contains("ztest_a_total "));
        assert!(text.contains("# TYPE ztest_ns histogram"));
        assert!(text.contains("ztest_ns_count 1"));
    }

    #[test]
    fn labeled_escapes_values() {
        assert_eq!(
            labeled("req_total", &[("ns", "a\"b"), ("op", "get")]),
            "req_total{ns=\"a\\\"b\",op=\"get\"}"
        );
    }

    #[test]
    fn concurrent_increments_via_qpar() {
        let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_mode(Mode::Counters);
        let before = counter("zconc_total").get();
        qpar::map_threads(8, (0..32).collect(), |_: usize| {
            for _ in 0..1000 {
                counter("zconc_total").inc();
            }
        });
        assert_eq!(counter("zconc_total").get() - before, 32_000);
    }

    #[test]
    fn off_mode_records_nothing() {
        let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        static C: LazyCounter = LazyCounter::new("zoff_total");
        static H: LazyHistogram = LazyHistogram::new("zoff_ns");
        set_mode(Mode::Counters);
        C.inc();
        let count_before = C.get().get();
        let hist_before = H.get().count();
        set_mode(Mode::Off);
        assert!(!enabled());
        C.inc();
        C.add(10);
        H.record(42);
        time(&H, || ());
        drop(span("zoff.span"));
        set_mode(Mode::Counters);
        assert_eq!(C.get().get(), count_before);
        assert_eq!(H.get().count(), hist_before);
    }

    #[test]
    fn spans_link_parents_and_record_histograms() {
        let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_mode(Mode::Counters);
        let before = histogram("zspan_outer_ns").count();
        {
            let outer = span("zspan.outer");
            assert!(outer.id != 0);
            let inner = span("zspan.inner");
            assert_eq!(inner.parent, outer.id);
            drop(inner);
            let sibling = span("zspan.sibling");
            assert_eq!(sibling.parent, outer.id);
        }
        let after_root = span("zspan.root");
        assert_eq!(after_root.parent, 0);
        drop(after_root);
        assert_eq!(histogram("zspan_outer_ns").count(), before + 1);
    }

    #[test]
    fn trace_sink_writes_jsonl() {
        let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("qobs-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        set_trace_path(&path).unwrap();
        set_mode(Mode::Trace);
        drop(span("ztrace.event"));
        set_mode(Mode::Counters);
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text
            .lines()
            .find(|l| l.contains("\"ztrace.event\""))
            .expect("span event written");
        assert!(line.starts_with('{') && line.ends_with('}'));
        for key in ["\"id\":", "\"parent\":", "\"start_us\":", "\"dur_us\":"] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

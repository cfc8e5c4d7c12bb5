//! The benchmark's own in-memory span recorder (choosing-metrics §4).
//!
//! Spans are recorded from this package's files only, around the calls it
//! makes into each layer's public functions; nothing inside the program
//! under test is touched. They stay in memory for the whole run and are
//! written once, at exit, as JSON lines.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `op` is the run-ordinal id shared by every span of
/// one operation (the k-th step, the k-th resume, a staged replay, …) and
/// `kind` says which sort of operation that was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub kind: &'static str,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    /// Indices of the currently open spans, outermost first.
    open: Vec<usize>,
    op: u64,
    kind: &'static str,
}

/// The recorder. With `on == false` every call is a branch and nothing else,
/// which is how the untraced run executes the same code.
#[derive(Debug)]
pub struct Tracer {
    on: Cell<bool>,
    t0: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on: Cell::new(on),
            t0: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                op: 0,
                kind: "",
            }),
        }
    }

    /// Switches recording (the traced run keeps one episode unrecorded to
    /// measure what recording costs).
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Starts a new operation of the given kind: spans opened from now on
    /// carry a fresh id.
    pub fn next_op(&self, kind: &'static str) {
        let mut inner = self.inner.borrow_mut();
        inner.op += 1;
        inner.kind = kind;
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.on.get() {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        let (op, kind) = (inner.op, inner.kind);
        inner.open.push(index);
        let now = self.t0.elapsed().as_nanos() as u64;
        inner.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            kind,
        });
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Times `f` under a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Per-operation total duration (µs) of the spans with one of `names`
    /// inside operations of `kind`: one entry per operation in which any
    /// occurred.
    pub fn per_op_us(&self, kind: &str, names: &[&str]) -> Vec<f64> {
        let inner = self.inner.borrow();
        let mut totals: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let wanted = |s: &&Span| s.kind == kind && names.contains(&s.name);
        for s in inner.spans.iter().filter(wanted) {
            *totals.entry(s.op).or_default() += s.dur_ns();
        }
        totals.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// Duration (µs) of every individual span called `name` inside
    /// operations of `kind`.
    pub fn each_us(&self, kind: &str, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.kind == kind && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON line: name, op, start, end, parent and
    /// self time (all in ns since the recorder started).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"kind\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                s.op,
                crate::json::quote(s.kind),
                crate::json::quote(s.name),
                s.start_ns,
                s.end_ns,
            )?;
        }
        out.flush()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let now = self.tracer.t0.elapsed().as_nanos() as u64;
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[index].end_ns = now;
            inner.open.retain(|&i| i != index);
        }
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children of one parent never overlap here — one
/// thread, strictly nested guards — so covered time is the plain sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            kind: "save",
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("save", 0, 100, None),
            span("encode", 10, 40, Some(0)),
            span("sha", 15, 25, Some(1)),
            span("put", 50, 90, Some(0)),
        ];
        // save: 100 − (30 + 40); encode: 30 − 10; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn guards_nest_and_link_parents() {
        let t = Tracer::new(true);
        t.next_op("a");
        {
            let _outer = t.span("outer");
            t.time("inner", || std::hint::black_box(1 + 1));
            t.time("inner", || std::hint::black_box(2 + 2));
        }
        t.next_op("a");
        t.time("outer", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].op, spans[3].op), (1, 2));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        // Two ops ran "outer"; the two "inner" spans of op 1 sum to one entry.
        assert_eq!(t.per_op_us("a", &["outer"]).len(), 2);
        assert_eq!(t.per_op_us("a", &["inner"]).len(), 1);
        assert_eq!(t.per_op_us("a", &["inner", "outer"]).len(), 2);
        assert_eq!(t.each_us("a", "inner").len(), 2);
        assert!(t.per_op_us("b", &["outer"]).is_empty());
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        t.time("x", || ());
        assert!(t.spans().is_empty());
    }
}

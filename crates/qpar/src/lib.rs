//! # qpar — the workspace's shared threading layer
//!
//! A dependency-light fan-out helper over [`std::thread::scope`], used by
//! the three hot paths of the system: `qsim` gate kernels, `qnn`
//! parameter-shift gradients, and the `qcheck` checkpoint encode pipeline.
//!
//! ## Thread-count resolution
//!
//! [`current_threads`] resolves, in priority order:
//!
//! 1. a thread-local override installed by [`with_threads`] (tests,
//!    benchmark sweeps);
//! 2. the process-wide builder value set via [`set_global_threads`];
//! 3. the `QCHECK_THREADS` environment variable (read once);
//! 4. [`std::thread::available_parallelism`].
//!
//! A resolved value of 1 keeps every caller on its serial path, so the
//! default behavior on a single-core host is exactly the serial code.
//!
//! ## Determinism contract
//!
//! All combinators here preserve **input order** in their outputs and
//! assign work in contiguous stripes. Callers that reduce floating-point
//! results must reduce over *fixed* partitions in index order (never over
//! per-thread accumulation order) so that results are bit-identical for
//! every thread count — see `qsim::state` for the pattern.
//!
//! ## One executor: scoped threads
//!
//! Every fan-out ([`map_threads`], [`for_each_threads`] and their
//! ambient-count forms [`map`] / [`for_each`]) spawns per call via
//! [`std::thread::scope`]: stripe 0 runs on the calling thread, the rest
//! on threads the scope joins before it returns. Work items may therefore
//! *borrow* from the caller's stack — the gate kernels hand out disjoint
//! `&mut` slices of the state — at the price of one thread spawn per
//! extra stripe per fan-out.
//!
//! Why not a persistent pool: a job handed to a thread that outlives the
//! call must be `'static` — own its data — unless the crate takes on
//! `unsafe`, so a pooled tile pass has to copy each state stripe out and
//! back. Timed against the scoped fan-out that cost 1.0–1.7× at 14–17
//! qubits and no tracked workload reached it (CHANGES.md, PR 23), so
//! there is one executor and no `'static` bound on its work items.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Name of the environment variable controlling the default thread count.
pub const THREADS_ENV: &str = "QCHECK_THREADS";

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

thread_local! {
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

fn env_threads() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets the process-wide thread count (builder API). `0` clears the
/// override, restoring env/hardware resolution.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The thread count parallel kernels on this thread will use.
pub fn current_threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local > 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    env_threads().unwrap_or_else(hardware_threads)
}

/// Runs `f` with a thread-local thread-count override — the hook the
/// equivalence tests use to sweep 1/2/4/8 threads inside one process.
///
/// The override applies to the calling thread only (worker threads spawned
/// by the combinators do not consult it — partitioning decisions are made
/// on the calling thread).
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_THREADS.with(Cell::get);
    let _restore = Restore(prev);
    LOCAL_THREADS.with(|c| c.set(n));
    f()
}

/// Order-preserving parallel map over owned work items with an explicit
/// thread count. Stripe `i` of the input maps to stripe `i` of the output,
/// so the result is identical to `items.into_iter().map(f).collect()` for
/// every thread count.
///
/// # Panics
///
/// Propagates panics from `f` (the scope re-raises worker panics).
pub fn map_threads<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let t = threads.clamp(1, n.max(1));
    if t <= 1 {
        return items.into_iter().map(f).collect();
    }
    let stripes = stripe_items(items, t);
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let f = &f;
        let mut handles = Vec::with_capacity(stripes.len());
        let mut stripes = stripes.into_iter();
        // Stripe 0 runs on the calling thread; the rest are spawned first so
        // they overlap with it.
        let first = stripes.next().expect("at least one stripe");
        for st in stripes {
            handles.push(s.spawn(move || st.into_iter().map(f).collect::<Vec<R>>()));
        }
        out.extend(first.into_iter().map(f));
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    out
}

/// Splits owned items into at most `t` contiguous stripes of
/// `ceil(n / t)` items each.
fn stripe_items<T>(items: Vec<T>, t: usize) -> Vec<Vec<T>> {
    let stripe = items.len().div_ceil(t);
    let mut stripes: Vec<Vec<T>> = Vec::with_capacity(t);
    let mut rest = items;
    while rest.len() > stripe {
        let tail = rest.split_off(stripe);
        stripes.push(std::mem::replace(&mut rest, tail));
    }
    stripes.push(rest);
    stripes
}

/// [`map_threads`] under the name and bounds `benchmark/src/stages.rs`
/// compiles against. Nothing else calls it: ROADMAP item 2's `benchmark`
/// PR removes that call, then this forward and the `qobs` line in
/// `Cargo.toml` (recorded by `benchmark/Cargo.lock`) go with it.
pub fn map_owned<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    map_threads(threads, items, f)
}

/// [`map_threads`] with the ambient [`current_threads`] count.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_threads(current_threads(), items, f)
}

/// Order-independent parallel consumption of owned work items (used for
/// in-place kernels whose items hold disjoint `&mut` slices).
pub fn for_each_threads<T, F>(threads: usize, items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    map_threads(threads, items, f);
}

/// [`for_each_threads`] with the ambient [`current_threads`] count.
pub fn for_each<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    for_each_threads(current_threads(), items, f);
}

/// Splits `0..len` into at most `parts` contiguous ranges of near-equal
/// size. The partition depends only on `len` and `parts` — callers that
/// need thread-count-independent partitions pass a fixed `parts`.
///
/// `parts` is clamped to `1..=len`, so no returned range is ever empty:
/// `parts > len` yields `len` single-element ranges, `parts == 0` is
/// treated as 1, and `len == 0` yields no ranges at all.
pub fn ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for t in [1, 2, 4, 8, 17] {
            let got = map_threads(t, items.clone(), |x| x * 3 + 1);
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn map_handles_edge_sizes() {
        assert_eq!(map_threads::<u8, u8, _>(4, vec![], |x| x), Vec::<u8>::new());
        assert_eq!(map_threads(4, vec![9], |x: i32| x + 1), vec![10]);
        assert_eq!(map_threads(8, vec![1, 2], |x: i32| x * 2), vec![2, 4]);
    }

    #[test]
    fn for_each_touches_every_item_once() {
        use std::sync::atomic::AtomicU64;
        let hits = AtomicU64::new(0);
        let items: Vec<u64> = (1..=100).collect();
        for_each_threads(4, items, |x| {
            hits.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let ambient = current_threads();
        let inner = with_threads(6, current_threads);
        assert_eq!(inner, 6);
        assert_eq!(current_threads(), ambient);
        // Nested overrides unwind correctly.
        with_threads(2, || {
            assert_eq!(current_threads(), 2);
            with_threads(3, || assert_eq!(current_threads(), 3));
            assert_eq!(current_threads(), 2);
        });
    }

    #[test]
    fn ranges_cover_exactly() {
        for len in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 2000] {
                let rs = ranges(len, parts);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} parts={parts}");
                let mut cursor = 0;
                for r in &rs {
                    assert_eq!(r.start, cursor);
                    assert!(!r.is_empty());
                    cursor = r.end;
                }
            }
        }
    }

    #[test]
    fn ranges_edge_cases_never_yield_empty_ranges() {
        // len = 0: nothing to partition.
        assert!(ranges(0, 4).is_empty());
        assert!(ranges(0, 0).is_empty());
        // parts = 1: the whole span in one range.
        assert_eq!(ranges(5, 1), vec![0..5]);
        // parts = 0 clamps to 1.
        assert_eq!(ranges(5, 0), vec![0..5]);
        // parts > len clamps to len: one element per range, none empty.
        let rs = ranges(3, 8);
        assert_eq!(rs, vec![0..1, 1..2, 2..3]);
        assert!(rs.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn map_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            map_threads(2, vec![1, 2, 3, 4], |x: i32| {
                assert!(x < 3, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}

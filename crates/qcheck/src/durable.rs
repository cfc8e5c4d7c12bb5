//! The one place a byte becomes durable — every write, fsync, rename and
//! removal behind a commit — and so the one place a fault is injected.
//!
//! A pack, a compacted manifest log, a reference-layout object, the
//! daemon's `GENERATION` file and the `STORE` / `REMOTE_NS` markers are
//! made visible by [`publish`]: staged whole, optionally flushed, renamed
//! — a crash leaves the old file or the new one, plus staging debris
//! ([`clear_dir_files`]). The log [`append`]s (manifest log, `OPLOG`) and
//! the root-slot [`overwrite`] rename nothing: CRC framing, the tail cut
//! ([`truncate`]) and the second slot absorb their torn outcomes. Swept
//! packs and old log epochs go through [`remove`]. Every
//! `qcheck_fsync_ns` / `qcheck_rename_ns` sample is taken here.
//!
//! The fault plan: after [`arm`], every op on a path under the armed
//! directory counts, from 1, and op `at_op` meets the [`Fault`]. Plans are
//! scoped by path, not thread, so the save driver's writer thread and an
//! in-process daemon are reached alike; unarmed, an op costs one relaxed
//! atomic load.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::error::{Error, Result};

/// A fault [`arm`] injects at one durable op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The process dies in the op: `keep_pct` % of its bytes land (its
    /// rename, truncation or removal only at 100), it returns
    /// [`Error::SimulatedCrash`], and every later op there fails so.
    Crash {
        /// Percentage (0–100) of the op's bytes that reach the disk.
        keep_pct: u8,
    },
    /// The op fails with [`Error::Io`], untouched, once; later ops run.
    Fail,
}

/// `(directory, at_op, fault, ops seen)` per plan, and how many there are.
static PLANS: Mutex<Vec<(PathBuf, u64, Fault, u64)>> = Mutex::new(Vec::new());
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn plans() -> MutexGuard<'static, Vec<(PathBuf, u64, Fault, u64)>> {
    crate::sync::lock_recover(&PLANS, |_| {})
}

/// Arms `fault` at the `at_op`-th durable op under `dir` (`at_op` 0 only
/// counts; one plan per directory tree) until the returned guard drops.
pub fn arm(dir: impl Into<PathBuf>, at_op: u64, fault: Fault) -> Armed {
    let dir = dir.into();
    plans().push((dir.clone(), at_op, fault, 0));
    ARMED.fetch_add(1, Ordering::Relaxed);
    Armed { dir }
}

/// An armed fault plan; dropping it disarms.
#[must_use]
pub struct Armed {
    dir: PathBuf,
}

impl Armed {
    /// Mutating ops seen under the directory so far.
    pub fn ops(&self) -> u64 {
        plans().iter().find(|p| p.0 == self.dir).map_or(0, |p| p.3)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        plans().retain(|p| p.0 != self.dir);
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs one mutating op on `path`, handing `run` the percentage of it that
/// lands: 100, unless a plan strikes it here.
fn op<T>(path: &Path, kind: &str, run: impl FnOnce(u8) -> Result<T>) -> Result<T> {
    let armed = ARMED.load(Ordering::Relaxed) > 0;
    let counted = armed.then(|| {
        let mut plans = plans();
        let (dir, at_op, fault, ops) = plans.iter_mut().find(|p| path.starts_with(&p.0))?;
        *ops += 1;
        let file = path.strip_prefix(&*dir).unwrap_or(path).display();
        Some((format!("op {ops}: {kind} {file}"), *fault, *ops, *at_op))
    });
    let crash = |at| Error::SimulatedCrash { at };
    match counted.flatten() {
        Some((at, Fault::Crash { .. }, ops, at_op)) if (1..ops).contains(&at_op) => {
            Err(crash(at + ", after the crash"))
        }
        Some((at, Fault::Fail, ops, at_op)) if ops == at_op => {
            Err(Error::io(at, std::io::Error::other("injected fault")))
        }
        Some((at, Fault::Crash { keep_pct }, ops, at_op)) if ops == at_op => {
            let _ = run(keep_pct.min(100));
            Err(crash(at))
        }
        _ => run(100),
    }
}

fn kept(bytes: &[u8], keep_pct: u8) -> &[u8] {
    &bytes[..bytes.len() * usize::from(keep_pct) / 100]
}

/// Writes `bytes` to `tmp` (created or truncated), `fsync`s the file when
/// asked, and renames it onto `target`. Both parent directories must
/// exist and share a filesystem.
///
/// # Errors
///
/// Fails on the first filesystem error; `target` is then untouched and
/// `tmp` may be left behind as staging debris.
pub(crate) fn publish(tmp: &Path, target: &Path, bytes: &[u8], fsync: bool) -> Result<()> {
    op(target, "publish", |keep_pct| {
        write(tmp, kept(bytes, keep_pct), fsync)?;
        if keep_pct == 100 {
            qobs::time(&crate::obs::RENAME_NS, || fs::rename(tmp, target))
                .map_err(|e| Error::io(format!("renaming into {}", target.display()), e))?;
        }
        Ok(())
    })
}

/// The timed fsync every durable write ends with, when asked for.
fn sync(f: &fs::File, path: &Path, fsync: bool) -> Result<()> {
    if fsync {
        qobs::time(&crate::obs::FSYNC_NS, || f.sync_all())
            .map_err(|e| Error::io(format!("syncing {}", path.display()), e))?;
    }
    Ok(())
}

/// Appends `bytes` to the file at `path`, creating it and writing
/// `header` first when it is absent or empty, and `fsync`s when asked.
/// Returns the offset `bytes` landed at.
///
/// # Errors
///
/// Fails on the first filesystem error; a prefix of the append may have
/// reached the file.
pub(crate) fn append(path: &Path, header: &[u8], bytes: &[u8], fsync: bool) -> Result<u64> {
    op(path, "append", |keep_pct| {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::io(format!("opening {}", path.display()), e))?;
        let mut len = f
            .metadata()
            .map_err(|e| Error::io(format!("stat {}", path.display()), e))?
            .len();
        if len == 0 {
            f.write_all(header)
                .map_err(|e| Error::io(format!("writing the header of {}", path.display()), e))?;
            len = header.len() as u64;
        }
        f.write_all(kept(bytes, keep_pct))
            .map_err(|e| Error::io(format!("appending to {}", path.display()), e))?;
        sync(&f, path, fsync)?;
        Ok(len)
    })
}

/// Replaces the content of the file at `path` in place — create or
/// truncate, one write, `fsync` when asked, no rename.
///
/// # Errors
///
/// Fails on the first filesystem error; the file may be left empty or
/// torn.
pub(crate) fn overwrite(path: &Path, bytes: &[u8], fsync: bool) -> Result<()> {
    op(path, "overwrite", |keep_pct| {
        write(path, kept(bytes, keep_pct), fsync)
    })
}

fn write(path: &Path, bytes: &[u8], fsync: bool) -> Result<()> {
    let mut f =
        fs::File::create(path).map_err(|e| Error::io(format!("creating {}", path.display()), e))?;
    f.write_all(bytes)
        .map_err(|e| Error::io(format!("writing {}", path.display()), e))?;
    sync(&f, path, fsync)
}

/// Cuts the file at `path` back to `len` bytes: a torn tail dropped before
/// the next append.
///
/// # Errors
///
/// Fails when the file cannot be opened for writing or truncated.
pub(crate) fn truncate(path: &Path, len: u64) -> Result<()> {
    op(path, "truncate", |keep_pct| match keep_pct {
        100 => fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(len))
            .map_err(|e| Error::io(format!("truncating {} to {len} bytes", path.display()), e)),
        _ => Ok(()),
    })
}

/// Deletes the file at `path`; one already gone counts as deleted.
///
/// # Errors
///
/// Fails when the file exists and cannot be removed.
pub(crate) fn remove(path: &Path) -> Result<()> {
    op(path, "remove", |keep_pct| match keep_pct {
        100 => fs::remove_file(path).or_else(|e| match e.kind() {
            std::io::ErrorKind::NotFound => Ok(()),
            _ => Err(Error::io(format!("deleting {}", path.display()), e)),
        }),
        _ => Ok(()),
    })
}

/// Removes every plain file directly under the staging directory `dir`
/// (whatever crashed publishes left behind) and returns how many went;
/// absence of the directory is not an error.
///
/// # Errors
///
/// Fails when `dir` exists but cannot be listed.
pub(crate) fn clear_dir_files(dir: &Path) -> Result<usize> {
    op(dir, "clear", |keep_pct| {
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(Error::io(format!("listing {}", dir.display()), e)),
        };
        Ok(entries
            .flatten()
            .filter(|entry| keep_pct == 100 && fs::remove_file(entry.path()).is_ok())
            .count())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let p = std::env::temp_dir().join(format!(
            "qcheck-durable-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(p.join("tmp")).unwrap();
        p
    }

    /// One of each op kind under `dir`, in a fixed order; their results.
    fn every_kind(dir: &Path) -> Vec<Result<()>> {
        let (log, slot, pack) = (dir.join("log"), dir.join("slot"), dir.join("pack"));
        let mut results = vec![
            append(&log, b"HDR", b"0123456789", false).map(drop),
            overwrite(&slot, b"0123456789", false),
            publish(&dir.join("tmp/p"), &pack, b"0123456789", false),
            truncate(&log, 5),
            remove(&slot),
        ];
        fs::write(dir.join("tmp/debris"), b"x").unwrap();
        results.push(clear_dir_files(&dir.join("tmp")).map(drop));
        results
    }

    #[test]
    fn ops_are_counted_and_op_zero_never_fires() {
        let dir = scratch("count");
        let armed = arm(&dir, 0, Fault::Fail);
        assert!(every_kind(&dir).iter().all(Result::is_ok));
        assert_eq!(armed.ops(), 6);
        // Reads and paths outside the directory are not ops.
        let _ = fs::read(dir.join("log"));
        overwrite(
            &std::env::temp_dir().join("qcheck-durable-outside"),
            b"x",
            false,
        )
        .unwrap();
        assert_eq!(armed.ops(), 6);
        let _ = fs::remove_dir_all(dir);
    }

    /// What a crash keeping 0, 50 and 100 % leaves of each op kind.
    #[test]
    fn a_crash_keeps_its_share_of_each_op_kind() {
        for keep_pct in [0u8, 50, 100] {
            let (whole, tenths) = (keep_pct == 100, usize::from(keep_pct) / 10);
            let crash_at = |at: u64, left: &dyn Fn(&Path) -> bool| {
                let dir = scratch("keep");
                let armed = arm(&dir, at, Fault::Crash { keep_pct });
                let results = every_kind(&dir);
                assert_eq!(armed.ops(), 6);
                let err = results[at as usize - 1].as_ref().unwrap_err().to_string();
                assert!(err.contains(&format!("op {at}: ")), "{err}");
                assert!(left(&dir), "op {at} at {keep_pct} %");
                let _ = fs::remove_dir_all(dir);
            };
            let read = |path: PathBuf| fs::read(path).unwrap();
            crash_at(1, &|d| {
                read(d.join("log")) == b"HDR0123456789"[..3 + tenths]
            });
            crash_at(2, &|d| read(d.join("slot")).len() == tenths);
            crash_at(3, &|d| {
                d.join("pack").exists() == whole && d.join("tmp/p").exists() != whole
            });
            crash_at(4, &|d| (read(d.join("log")).len() == 5) == whole);
            crash_at(5, &|d| d.join("slot").exists() != whole);
            crash_at(6, &|d| d.join("tmp/debris").exists() != whole);
        }
    }

    #[test]
    fn every_op_after_a_crash_fails_untouched_and_fail_fails_once() {
        let dir = scratch("dead");
        let armed = arm(&dir, 2, Fault::Crash { keep_pct: 100 });
        let results = every_kind(&dir);
        assert!(results[0].is_ok());
        for (i, r) in results.iter().enumerate().skip(1) {
            assert!(
                matches!(r, Err(Error::SimulatedCrash { .. })),
                "op {}",
                i + 1
            );
        }
        assert!(dir.join("slot").exists(), "op 2 completed, op 5 never ran");
        assert!(!dir.join("pack").exists() && !dir.join("tmp/p").exists());
        drop(armed);

        let dir = scratch("fail");
        let armed = arm(&dir, 3, Fault::Fail);
        let results = every_kind(&dir);
        assert!(matches!(results[2], Err(Error::Io { .. })));
        assert!(!dir.join("tmp/p").exists(), "a failed op touches nothing");
        assert!(results.iter().enumerate().all(|(i, r)| i == 2 || r.is_ok()));
        assert_eq!(armed.ops(), 6);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn plans_are_scoped_by_directory_and_disarm_on_drop() {
        let (dir, other) = (scratch("scoped"), scratch("other"));
        let armed = arm(&dir, 1, Fault::Crash { keep_pct: 0 });
        assert!(every_kind(&other).iter().all(Result::is_ok));
        assert!(every_kind(&dir).iter().all(Result::is_err));
        drop(armed);
        assert!(every_kind(&dir).iter().all(Result::is_ok));

        // Two plans on two directories, driven from two threads at once.
        std::thread::scope(|s| {
            for (dir, at) in [(&dir, 2u64), (&other, 4)] {
                s.spawn(move || {
                    let armed = arm(dir, at, Fault::Fail);
                    for _ in 0..50 {
                        let failed: Vec<usize> = every_kind(dir)
                            .iter()
                            .enumerate()
                            .filter_map(|(i, r)| r.is_err().then_some(i + 1))
                            .collect();
                        let first = armed.ops() == 6;
                        assert_eq!(failed, if first { vec![at as usize] } else { vec![] });
                    }
                    assert_eq!(armed.ops(), 300);
                });
            }
        });
        let _ = fs::remove_dir_all(dir);
        let _ = fs::remove_dir_all(other);
    }
}

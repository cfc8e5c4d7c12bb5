//! The one place a byte becomes durable: every write, fsync and rename
//! behind a commit.
//!
//! A pack, a compacted manifest log, a reference-layout object, a
//! daemon metadata blob and the daemon's `GENERATION` file are all made
//! visible the same way ([`publish`]): written whole to a staging path,
//! optionally flushed, then renamed onto their final name — so a crash
//! leaves either the old file or the new one, never a torn one, plus at
//! most a disposable staging file. The writes that rename nothing live
//! here too: the [`append`] of the manifest log and of the daemon's
//! `OPLOG` (one `write` per record, no header), and the root-slot
//! [`overwrite`] — their torn outcomes are absorbed by the logs' CRC
//! framing (a torn tail is cut with [`truncate`] before the next append)
//! and by the second slot. Every `qcheck_fsync_ns` / `qcheck_rename_ns`
//! sample is taken in this file.

use std::fs;
use std::io::Write;
use std::path::Path;

use crate::error::{Error, Result};

/// Writes `bytes` to `tmp` (created or truncated), `fsync`s the file when
/// asked, and renames it onto `target`. Both parent directories must
/// exist and share a filesystem.
///
/// # Errors
///
/// Fails on the first filesystem error; `target` is then untouched and
/// `tmp` may be left behind as staging debris.
pub(crate) fn publish(tmp: &Path, target: &Path, bytes: &[u8], fsync: bool) -> Result<()> {
    overwrite(tmp, bytes, fsync)?;
    qobs::time(&crate::obs::RENAME_NS, || fs::rename(tmp, target))
        .map_err(|e| Error::io(format!("renaming into {}", target.display()), e))?;
    Ok(())
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
    f.write_all(bytes)
        .map_err(|e| Error::io(format!("appending to {}", path.display()), e))?;
    sync(&f, path, fsync)?;
    Ok(len)
}

/// Replaces the content of the file at `path` in place — create or
/// truncate, one write, `fsync` when asked, no rename.
///
/// # Errors
///
/// Fails on the first filesystem error; the file may be left empty or
/// torn.
pub(crate) fn overwrite(path: &Path, bytes: &[u8], fsync: bool) -> Result<()> {
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
    fs::OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|f| f.set_len(len))
        .map_err(|e| Error::io(format!("truncating {} to {len} bytes", path.display()), e))
}

/// Removes every plain file directly under the staging directory `dir`
/// (whatever crashed publishes left behind) and returns how many went;
/// absence of the directory is not an error.
///
/// # Errors
///
/// Fails when `dir` exists but cannot be listed.
pub(crate) fn clear_dir_files(dir: &Path) -> Result<usize> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(Error::io(format!("listing {}", dir.display()), e)),
    };
    Ok(entries
        .flatten()
        .filter(|entry| fs::remove_file(entry.path()).is_ok())
        .count())
}

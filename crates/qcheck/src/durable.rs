//! The one stage-write-(fsync)-rename every publish goes through.
//!
//! A pack, a compacted manifest log, a reference-layout object, a
//! daemon metadata blob and the daemon's `GENERATION` file are all made
//! visible the same way: written whole to a staging path, optionally
//! flushed, then renamed onto their final name — so a crash leaves either
//! the old file or the new one, never a torn one, plus at most a
//! disposable staging file. That sequence lives here once, carrying the
//! `qcheck_fsync_ns` / `qcheck_rename_ns` timers at every site.

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
    {
        let mut f = fs::File::create(tmp)
            .map_err(|e| Error::io(format!("creating {}", tmp.display()), e))?;
        f.write_all(bytes)
            .map_err(|e| Error::io(format!("writing {}", tmp.display()), e))?;
        if fsync {
            qobs::time(&crate::obs::FSYNC_NS, || f.sync_all())
                .map_err(|e| Error::io(format!("syncing {}", tmp.display()), e))?;
        }
    }
    qobs::time(&crate::obs::RENAME_NS, || fs::rename(tmp, target))
        .map_err(|e| Error::io(format!("renaming into {}", target.display()), e))?;
    Ok(())
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

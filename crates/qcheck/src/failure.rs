//! Failure injection for crash-consistency and corruption experiments.
//!
//! Two families of faults are modelled:
//!
//! * **A fault at a durable op** ([`arm`] a [`Fault`]) — the process dies
//!   in, or an I/O error fails, the `n`-th write, rename or removal under
//!   a directory; a test counts a scenario's ops ([`Armed::ops`]), then
//!   crashes at each. Under the atomic protocol every op leaves the last
//!   acknowledged checkpoint or the one in flight; the in-place baseline
//!   ([`crate::repo::CommitMode::InPlaceUnsafe`]) orders the same writes
//!   differently, and the sweep finds the op it does not survive
//!   (experiment R-F8).
//! * **Storage faults** ([`StorageFault`]) — bytes rot, files truncate, or
//!   whole files vanish after a successful commit. These must always be
//!   *detected* (integrity errors, never silently wrong data) and recovery
//!   must fall back to an older intact checkpoint.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

pub use crate::durable::{arm, Armed, Fault};
use crate::error::{Error, Result};

/// Post-commit storage faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageFault {
    /// Flip one bit in the file at (offset mod len).
    BitFlip {
        /// Byte offset seed.
        offset: u64,
    },
    /// Truncate the file to the given percentage of its length.
    Truncate {
        /// Percentage (0–100) of bytes kept.
        keep_pct: u8,
    },
    /// Delete the file entirely.
    Delete,
}

impl std::fmt::Display for StorageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageFault::BitFlip { offset } => write!(f, "bit-flip@{offset}"),
            StorageFault::Truncate { keep_pct } => write!(f, "truncate({keep_pct}%)"),
            StorageFault::Delete => write!(f, "delete"),
        }
    }
}

/// Applies a storage fault to an arbitrary file.
///
/// # Errors
///
/// Fails when the target does not exist or cannot be rewritten.
pub fn inject_fault(path: &Path, fault: StorageFault) -> Result<()> {
    match fault {
        StorageFault::BitFlip { offset } => {
            let mut data =
                fs::read(path).map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
            if data.is_empty() {
                return Err(Error::corrupt("fault target", "empty file"));
            }
            let i = (offset as usize) % data.len();
            data[i] ^= 0x01;
            fs::write(path, data)
                .map_err(|e| Error::io(format!("writing {}", path.display()), e))?;
        }
        StorageFault::Truncate { keep_pct } => {
            let data =
                fs::read(path).map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
            let keep = data.len() * (keep_pct.min(100) as usize) / 100;
            fs::write(path, &data[..keep])
                .map_err(|e| Error::io(format!("writing {}", path.display()), e))?;
        }
        StorageFault::Delete => {
            fs::remove_file(path)
                .map_err(|e| Error::io(format!("deleting {}", path.display()), e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(content: &[u8]) -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qcheck-fault-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        fs::write(&p, content).unwrap();
        p
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let p = temp_file(&[0u8; 64]);
        inject_fault(&p, StorageFault::BitFlip { offset: 130 }).unwrap();
        let data = fs::read(&p).unwrap();
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(data[130 % 64], 1);
        let _ = fs::remove_file(p);
    }

    #[test]
    fn truncate_keeps_fraction() {
        let p = temp_file(&[7u8; 100]);
        inject_fault(&p, StorageFault::Truncate { keep_pct: 40 }).unwrap();
        assert_eq!(fs::read(&p).unwrap().len(), 40);
        let _ = fs::remove_file(p);
    }

    #[test]
    fn delete_removes_file() {
        let p = temp_file(b"x");
        inject_fault(&p, StorageFault::Delete).unwrap();
        assert!(!p.exists());
    }

    #[test]
    fn fault_on_missing_file_is_error() {
        let p = std::env::temp_dir().join("qcheck-fault-definitely-missing");
        assert!(inject_fault(&p, StorageFault::Delete).is_err());
        assert!(inject_fault(&p, StorageFault::BitFlip { offset: 0 }).is_err());
    }
}

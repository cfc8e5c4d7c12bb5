//! Error types for the checkpointing library.

use std::fmt;
use std::path::PathBuf;

/// Every fallible `qcheck` operation returns this error.
#[derive(Debug)]
pub enum Error {
    /// Underlying filesystem failure.
    Io {
        /// The operation being attempted (human-readable).
        context: String,
        /// The source error.
        source: std::io::Error,
    },
    /// Stored data failed an integrity check.
    Corrupt {
        /// What was being read.
        what: String,
        /// Why it is considered corrupt.
        detail: String,
    },
    /// A decoder ran off the end of its input or met a bad tag.
    Decode {
        /// What was being decoded.
        what: String,
        /// Byte offset of the failure.
        offset: usize,
        /// Problem description.
        detail: String,
    },
    /// The on-disk format version is not supported by this build.
    UnsupportedVersion {
        /// Version found on disk.
        found: u32,
        /// Version this build writes.
        supported: u32,
    },
    /// A referenced checkpoint, chunk or section does not exist.
    NotFound {
        /// What was looked up.
        what: String,
    },
    /// No valid checkpoint could be recovered from the repository.
    NoValidCheckpoint {
        /// Number of manifests that were examined and rejected.
        rejected: usize,
    },
    /// Invalid configuration or argument.
    InvalidConfig(String),
    /// A delta chain exceeded the configured maximum length or was cyclic.
    ChainTooLong {
        /// Observed length.
        length: usize,
        /// Configured limit.
        limit: usize,
    },
    /// The repository is locked by another writer.
    Locked(PathBuf),
    /// A remote-store conversation broke down: framing, handshake or an
    /// unexpected reply. Distinct from [`Error::Io`] (the transport
    /// failed) and [`Error::Corrupt`] (stored data failed verification):
    /// this means the two endpoints disagreed about the protocol.
    Protocol {
        /// The exchange being attempted.
        context: String,
        /// What went wrong.
        detail: String,
    },
    /// An armed fault plan ([`crate::failure::arm`]) killed the process
    /// at a durable op (testing / evaluation only).
    SimulatedCrash {
        /// The op: its index, kind and file.
        at: String,
    },
    /// The daemon requires an auth token this client did not (correctly)
    /// present.
    Unauthorized(String),
    /// Generation fencing tripped: one side of the conversation has
    /// observed a newer primary generation than the other, proving the
    /// lower side is (talking to) a demoted primary.
    StaleGeneration(String),
    /// A writer lease for the namespace is held by someone else.
    LeaseHeld(String),
    /// The daemon is a replication secondary and refuses writes.
    NotPrimary(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { context, source } => write!(f, "i/o failure while {context}: {source}"),
            Error::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            Error::Decode {
                what,
                offset,
                detail,
            } => write!(f, "decode failure in {what} at byte {offset}: {detail}"),
            Error::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (supported: {supported})"
                )
            }
            Error::NotFound { what } => write!(f, "not found: {what}"),
            Error::NoValidCheckpoint { rejected } => {
                write!(
                    f,
                    "no valid checkpoint found ({rejected} manifests rejected)"
                )
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::ChainTooLong { length, limit } => {
                write!(f, "delta chain of length {length} exceeds limit {limit}")
            }
            Error::Locked(path) => write!(f, "repository locked: {}", path.display()),
            Error::Protocol { context, detail } => {
                write!(f, "remote protocol failure while {context}: {detail}")
            }
            Error::SimulatedCrash { at } => write!(f, "simulated crash at {at}"),
            Error::Unauthorized(what) => write!(f, "unauthorized: {what}"),
            Error::StaleGeneration(detail) => write!(f, "stale generation: {detail}"),
            Error::LeaseHeld(detail) => write!(f, "writer lease held: {detail}"),
            Error::NotPrimary(detail) => write!(f, "daemon is not the primary: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl Error {
    /// Wraps an I/O error with context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io {
            context: context.into(),
            source,
        }
    }

    /// Builds a corruption error.
    pub fn corrupt(what: impl Into<String>, detail: impl Into<String>) -> Self {
        Error::Corrupt {
            what: what.into(),
            detail: detail.into(),
        }
    }

    /// Builds a remote-protocol error.
    pub fn protocol(context: impl Into<String>, detail: impl Into<String>) -> Self {
        Error::Protocol {
            context: context.into(),
            detail: detail.into(),
        }
    }

    /// True when the error indicates data damage (as opposed to e.g.
    /// configuration problems) — recovery treats these as "skip and fall
    /// back".
    pub fn is_integrity_failure(&self) -> bool {
        matches!(
            self,
            Error::Corrupt { .. } | Error::Decode { .. } | Error::NotFound { .. }
        )
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::corrupt("manifest", "crc mismatch");
        assert_eq!(e.to_string(), "corrupt manifest: crc mismatch");
        let e = Error::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("9"));
        let e = Error::ChainTooLong {
            length: 12,
            limit: 8,
        };
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn io_errors_carry_source() {
        use std::error::Error as _;
        let e = Error::io("writing manifest", std::io::Error::other("disk full"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("writing manifest"));
    }

    #[test]
    fn integrity_classification() {
        assert!(Error::corrupt("x", "y").is_integrity_failure());
        assert!(Error::NotFound { what: "c".into() }.is_integrity_failure());
        assert!(!Error::InvalidConfig("z".into()).is_integrity_failure());
    }
}

//! # qcheck — checkpointing for hybrid quantum-classical training state
//!
//! This crate is the core contribution of the `qnn-checkpoint` project
//! (reproducing *"Quantum Neural Networks Need Checkpointing"*, HotStorage
//! 2025): a storage library that persists the **classical half** of a hybrid
//! quantum-classical training loop — parameters, optimizer moments, RNG
//! streams, dataset cursor, shot ledger — with properties a training system
//! actually needs:
//!
//! * **Exact resume.** A [`snapshot::TrainingSnapshot`] captures every
//!   stochastic input of the loop; restoring it reproduces the future
//!   trajectory *bit for bit* (shot noise included).
//! * **Cheap and frequent.** Snapshots are `O(parameters)`, not
//!   `O(2^qubits)`; incremental (delta-chain) checkpoints plus XOR-float
//!   compression shrink steady-state writes further.
//! * **Crash-safe.** Stage-and-rename commits mean a crash at any point
//!   leaves a recoverable repository; manifests are CRC-framed and payloads
//!   SHA-256-addressed, so corruption is always *detected* and recovery
//!   falls back to the newest intact checkpoint.
//! * **Cost-aware.** Built-in checkpoint-interval policies: every `k`
//!   steps, and the Young–Daly optimum over the measured checkpoint cost —
//!   the time a checkpoint blocks the training thread.
//!
//! ## Threading model (save and resolve paths)
//!
//! The encode half of [`repo::CheckpointRepo::save`] — per-section
//! size-first payload selection (every candidate measured with
//! [`Compression::compressed_len`], only the winner compressed; the full
//! candidate is stored raw where its codec would expand it),
//! per-section SHA-256, and per-chunk hashing — fans out across the
//! shared [`qpar`] layer, and so does the
//! read side: [`repo::CheckpointRepo::resolve_sections`] folds each
//! section's delta chain on its own. Both hand the sections to the
//! threads **by size** (largest first onto the lightest thread — a
//! snapshot is two heavy sections and a handful of tiny ones). The thread
//! count is [`qpar::current_threads`] on the thread that calls `save` —
//! the driver's writer thread — so `QCHECK_THREADS` / the builder /
//! hardware set it. Guarantees:
//!
//! 1. **Bit-exactness** — encoded bytes, chunk refs, manifests and
//!    resolved sections are byte-identical at every thread count: all
//!    fan-outs return results in input order and there are no cross-item
//!    reductions.
//! 2. **Serial commit** — chunk-store writes, dedup accounting, manifest
//!    and `LATEST` commits stay strictly serial in section order; the
//!    crash-safety protocol is untouched by threading.
//! 3. **Serial thresholds** — the per-section fan-outs run only above
//!    128 KiB of section payload and chunk hashing only above
//!    [`chunk::PARALLEL_MIN_CHUNKS`] chunks; a KB-sized snapshot never
//!    pays scoped-thread overhead, saving or resolving.
//!
//! Delta saves additionally keep the just-committed sections in memory, so
//! the steady-state training loop never re-reads its own base checkpoint
//! from disk. [`checkpointer::Checkpointer`] runs every save on its own
//! writer thread, so a parallel encode overlaps the training step
//! entirely: the step waits for the snapshot capture and a hand-off.
//!
//! ## Quickstart
//!
//! ```
//! use qcheck::repo::{CheckpointRepo, SaveOptions};
//! use qcheck::snapshot::TrainingSnapshot;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let dir = std::env::temp_dir().join(format!("qcheck-doc-{}", std::process::id()));
//! let repo = CheckpointRepo::open(&dir)?;
//!
//! let mut snapshot = TrainingSnapshot::new("vqe-demo");
//! snapshot.step = 42;
//! snapshot.params = vec![0.1, 0.2, 0.3];
//! repo.save(&snapshot, &SaveOptions::default())?;
//!
//! let (recovered, report) = repo.recover()?;
//! assert_eq!(recovered.step, 42);
//! assert!(report.skipped.is_empty());
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |---|---|
//! | [`snapshot`] | the training-state model and [`snapshot::Checkpointable`] contract |
//! | [`repo`] | repository layout, save (which records a commit writes, the mirror calls between its two phases), load, recovery, GC, retention |
//! | [`checkpointer`] | the one save driver: policy on the training thread, saves on a writer thread that holds the writer lock |
//! | [`policy`] | interval policies incl. Young–Daly and its analytic models |
//! | [`manifest`] | the framed on-disk metadata format |
//! | [`store`] | pluggable content-addressed object stores ([`store::ObjectStore`]: batched packs on this disk / the remote daemon; one-file-per-chunk reference layout in test builds) |
//! | [`remote`] | the `qckptd` object-store daemon, its wire protocol, and the [`remote::RemoteStore`] client |
//! | [`delta`] | block-level incremental patches |
//! | [`compress`] | the four section codecs (identity, RLE, XOR-f64, zero-elide-f64) and their exact size pass |
//! | [`chunk`] | fixed-size chunking |
//! | [`codec`] | deterministic binary encoding |
//! | [`manifest_log`] | the O(1) commit protocol and its one owner: [`manifest_log::ManifestLog`] appends, publishes and compacts the manifest log + dual root slots, with the state machine `replay` runs |
//! | [`verify`] | [`verify::fsck`]: read-only verification of every manifest, chunk and delta chain |
//! | [`hash`] | in-repo SHA-256 and CRC32 |
//! | [`failure`] | the fault plan ([`failure::arm`]: crash or fail the `n`-th durable op under a directory) and storage-fault injection |
//! | [`error`] | the crate-wide [`error::Error`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpointer;
pub mod chunk;
pub mod codec;
pub mod compress;
pub mod delta;
mod durable;
pub mod error;
pub mod failure;
pub mod hash;
pub mod manifest;
pub mod manifest_log;
pub mod obs;
pub mod policy;
pub mod remote;
pub mod repo;
pub mod snapshot;
pub mod store;
mod sync;
pub mod verify;

pub use checkpointer::Checkpointer;
pub use compress::Compression;
pub use error::{Error, Result};
pub use manifest::{CheckpointId, Manifest};
pub use policy::{CheckpointPolicy, EveryKSteps, YoungDaly};
pub use remote::RemoteStore;
pub use repo::{
    CheckpointRepo, CommitMode, CompressionPolicy, Retention, SaveMode, SaveOptions, SaveReport,
};
pub use snapshot::{Checkpointable, TrainingSnapshot};
#[cfg(any(test, feature = "testing"))]
pub use store::LooseStore;
pub use store::{ObjectStore, PackStore, StoreBackend, StoreKind, StoreStats};
pub use verify::{fsck, FsckReport};

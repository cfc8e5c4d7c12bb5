//! The crate's qobs metric handles — one module so the metric-name
//! contract (documented in `crates/qcheck/README.md`) lives in one
//! place. All handles gate on the process-wide `QOBS` mode.

/// Completed [`crate::repo::CheckpointRepo::save`] calls.
pub static SAVES: qobs::LazyCounter = qobs::LazyCounter::new("qcheck_saves_total");
/// [`crate::compress::Compression::compress`] calls made by `save`:
/// exactly one per section saved, whatever the payload kind chosen.
pub static SECTION_ENCODES: qobs::LazyCounter =
    qobs::LazyCounter::new("qcheck_section_encodes_total");
/// [`crate::compress::Compression::compressed_len`] probes made by
/// `save` to pick payload kinds: one per candidate per section (one for
/// a section without a base, up to three with one; the XOR candidate is
/// sized by [`crate::compress::zero_elide_xor_len`]).
pub static SECTION_SIZE_PROBES: qobs::LazyCounter =
    qobs::LazyCounter::new("qcheck_section_size_probes_total");
/// Completed [`crate::repo::CheckpointRepo::recover`] calls.
pub static RECOVERS: qobs::LazyCounter = qobs::LazyCounter::new("qcheck_recovers_total");
/// Completed GC sweeps.
pub static GCS: qobs::LazyCounter = qobs::LazyCounter::new("qcheck_gc_total");
/// Manifest-log compactions (retention-triggered epoch rewrites).
pub static COMPACTIONS: qobs::LazyCounter = qobs::LazyCounter::new("qcheck_log_compactions_total");
/// Sum of `RecoveryReport::manifests_tried` over all recoveries
/// (healthy repositories contribute exactly 1 per recover).
pub static MANIFESTS_TRIED: qobs::LazyCounter =
    qobs::LazyCounter::new("qcheck_manifests_tried_total");
/// Delta-chain links folded by `resolve_sections`, counted per section
/// (a depth-8 chain with two delta-encoded sections folds 18).
pub static RESOLVE_LINKS: qobs::LazyCounter = qobs::LazyCounter::new("qcheck_resolve_links_total");
/// Whole-section SHA-256 digests taken by `resolve_sections`: one per
/// section of the checkpoint resolved, whatever its chain depth.
pub static RESOLVE_SECTION_DIGESTS: qobs::LazyCounter =
    qobs::LazyCounter::new("qcheck_resolve_section_digests_total");
/// Positioned reads of chunk payload out of pack files: one per contiguous
/// same-pack run of a `get_many`, one per object on the single-object path.
pub static PACK_PREADS: qobs::LazyCounter = qobs::LazyCounter::new("qcheck_pack_preads_total");
/// Manifest-log replays (every repository open / recover / fsck pass).
pub static MLOG_REPLAYS: qobs::LazyCounter =
    qobs::LazyCounter::new("qcheck_manifest_log_replays_total");
/// Wall time of every durability fsync (packs, manifest log, root slots,
/// staged writes), in nanoseconds.
pub static FSYNC_NS: qobs::LazyHistogram = qobs::LazyHistogram::new("qcheck_fsync_ns");
/// Wall time of every commit rename (`durable::publish`), in nanoseconds.
pub static RENAME_NS: qobs::LazyHistogram = qobs::LazyHistogram::new("qcheck_rename_ns");
/// Process-wide remote round trips (the per-handle
/// [`crate::remote::RemoteStore::round_trips`] counter stays exact per
/// connection; this is the aggregate a scrape sees).
pub static ROUND_TRIPS: qobs::LazyCounter =
    qobs::LazyCounter::new("qcheck_remote_round_trips_total");
/// Time the training thread spent inside a
/// [`crate::checkpointer::Checkpointer`] call that took a checkpoint —
/// waiting out the previous save, capture, hand-off (and, for a forced
/// checkpoint, the save itself) — in nanoseconds.
pub static STEP_BLOCKED_NS: qobs::LazyHistogram =
    qobs::LazyHistogram::new("qcheck_step_blocked_ns");

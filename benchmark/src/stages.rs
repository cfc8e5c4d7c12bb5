//! Staged replays: the traced run's per-layer budget.
//!
//! `repo.save` and `repo.recover` are single public calls, so timing them
//! from outside gives one number each. To split that number by layer, the
//! traced run takes the very `(snapshot, base)` pair a save just committed —
//! or the repository a resume just recovered — and walks the same pipeline
//! one public call at a time, one span per call, against a scratch store of
//! the same kind. The order and the work mirror `repo.rs::save` and
//! `repo.rs::resolve_sections`; what the real call spends beyond the sum of
//! these stages is reported as `*_unattributed_pct`.
//!
//! Replays run outside every timed region of the run proper.

use std::path::PathBuf;

use qcheck::chunk::chunk_bytes;
use qcheck::compress::Compression;
use qcheck::delta::BlockPatch;
use qcheck::hash::Sha256;
use qcheck::manifest::{CheckpointId, CheckpointKind, Manifest, PayloadKind, SectionEntry};
use qcheck::manifest_log::{self as mlog, RecordKind, RootSlot};
use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::{
    Section, TrainingSnapshot, SECTION_LEDGER, SECTION_OPTIMIZER, SECTION_PARAMS,
};
use qcheck::store::{ObjectStore, StagedChunk, StoreBackend};
use qnn::optimizer::{Adam, Optimizer};
use qsim::measure::{evaluate_observable, EvalMode};
use qsim::pauli::PauliSum;
use qsim::plan::ExecPlan;
use qsim::rng::Xoshiro256;
use qsim::state::StateVector;

use crate::trace::Tracer;

/// Names of the save-path stage spans, in pipeline order. `repo.save`'s
/// unattributed share is measured against the sum of these.
pub const SAVE_STAGES: [&str; 11] = [
    "TrainingSnapshot::to_sections",
    "Sha256::digest",
    "BlockPatch::diff",
    "BlockPatch::encode",
    "xor_base",
    "Compression::compress",
    "chunk_bytes",
    "ObjectStore::put_batch",
    "manifest_log::append_to_log",
    "ObjectStore::meta_put",
    "manifest_log::write_root_slot",
];

/// Names of the recover-path stage spans, in pipeline order.
pub const RECOVER_STAGES: [&str; 7] = [
    "manifest_log::replay",
    "ObjectStore::get_many",
    "Compression::decompress",
    "BlockPatch::apply",
    "xor_base",
    "Sha256::digest",
    "TrainingSnapshot::from_sections",
];

/// Byte and block counts the stage spans cannot carry.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCounts {
    /// Bytes fed to `Sha256::digest` in save replays.
    pub sha_bytes: u64,
    /// Delta blocks that differed / that were compared, over save replays.
    pub changed_blocks: u64,
    pub total_blocks: u64,
}

/// The scratch commit target of the save replays: a store of the run's own
/// kind plus a manifest log and root slots in a directory of its own.
pub struct Scratch {
    dir: PathBuf,
    store: StoreBackend,
    generation: u64,
    slot: usize,
    seq: u64,
}

impl Scratch {
    pub fn new(dir: PathBuf, store: StoreBackend) -> Result<Scratch, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch {
            dir,
            store,
            generation: 0,
            slot: 0,
            seq: 0,
        })
    }
}

/// The codec `CompressionPolicy::Default` picks for a section.
fn default_codec(section: &str) -> Compression {
    match section {
        SECTION_PARAMS | SECTION_OPTIMIZER => Compression::XorF64,
        SECTION_LEDGER => Compression::Rle,
        _ => Compression::None,
    }
}

/// Walks the save pipeline for `snapshot` against `base` (the sections of
/// the checkpoint a delta save diffs against; `None` for a full save).
pub fn replay_save(
    tracer: &Tracer,
    scratch: &mut Scratch,
    counts: &mut StageCounts,
    snapshot: &TrainingSnapshot,
    base: Option<&[Section]>,
    options: &SaveOptions,
) -> Result<(), String> {
    tracer.next_op("replay.save");
    let _replay = tracer.span("replay.save");
    let err = |e: qcheck::Error| format!("save replay: {e}");
    let sections = tracer.time("TrainingSnapshot::to_sections", || snapshot.to_sections());

    let mut entries = Vec::with_capacity(sections.len());
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(sections.len());
    for section in &sections {
        let codec = default_codec(&section.name);
        let section_sha = tracer.time("Sha256::digest", || Sha256::digest(&section.bytes));
        counts.sha_bytes += section.bytes.len() as u64;
        let full = tracer.time("Compression::compress", || codec.compress(&section.bytes));
        let mut best = (PayloadKind::Full, codec, section.bytes.len(), full);
        if let Some(base_section) = base.and_then(|b| b.iter().find(|s| s.name == section.name)) {
            let patch = tracer.time("BlockPatch::diff", || {
                BlockPatch::diff(
                    &base_section.bytes,
                    &section.bytes,
                    options.delta_block_size,
                )
            });
            counts.changed_blocks += patch.changed_blocks() as u64;
            counts.total_blocks += section.bytes.len().div_ceil(options.delta_block_size) as u64;
            let encoded = tracer.time("BlockPatch::encode", || patch.encode());
            let compressed = tracer.time("Compression::compress", || codec.compress(&encoded));
            if compressed.len() < best.3.len() {
                best = (PayloadKind::DeltaPatch, codec, encoded.len(), compressed);
            }
            if base_section.bytes.len() == section.bytes.len() {
                // The byte-wise XOR against the base has no public name in
                // qcheck; this is the same loop `repo.rs::save` runs.
                let xored: Vec<u8> = tracer.time("xor_base", || {
                    base_section
                        .bytes
                        .iter()
                        .zip(&section.bytes)
                        .map(|(a, b)| a ^ b)
                        .collect()
                });
                let compressed = tracer.time("Compression::compress", || {
                    Compression::ZeroElideF64.compress(&xored)
                });
                if compressed.len() < best.3.len() {
                    best = (
                        PayloadKind::XorBase,
                        Compression::ZeroElideF64,
                        xored.len(),
                        compressed,
                    );
                }
            }
        }
        let (payload_kind, codec, stored_len, compressed) = best;
        entries.push(SectionEntry {
            name: section.name.clone(),
            codec,
            payload_kind,
            stored_len: stored_len as u64,
            section_len: section.bytes.len() as u64,
            section_sha,
            chunks: Vec::new(),
        });
        payloads.push(compressed);
    }

    let mut staged: Vec<StagedChunk<'_>> = Vec::new();
    for (entry, payload) in entries.iter_mut().zip(&payloads) {
        let (refs, slices) =
            tracer.time("chunk_bytes", || chunk_bytes(payload, options.chunk_size));
        staged.extend(refs.iter().zip(slices).map(|(r, data)| StagedChunk {
            reference: *r,
            data,
        }));
        entry.chunks = refs;
    }
    tracer
        .time("ObjectStore::put_batch", || {
            scratch.store.put_batch(&staged, options.fsync)
        })
        .map_err(err)?;

    scratch.seq += 1;
    let id = CheckpointId::new(snapshot.step, scratch.seq);
    let mut root_hash = Sha256::new();
    for entry in &entries {
        root_hash.update(&entry.section_sha.0);
    }
    let manifest = Manifest {
        id: id.clone(),
        step: snapshot.step,
        kind: CheckpointKind::Full,
        chain_len: 0,
        created_unix_ms: options.created_unix_ms.unwrap_or(0),
        snapshot_sha: root_hash.finalize(),
        sections: entries,
    };
    let manifest_bytes = manifest.encode();
    let mut records = mlog::encode_record(RecordKind::ManifestPut, id.as_str(), &manifest_bytes);
    records.extend(mlog::encode_record(
        RecordKind::LatestAdvance,
        id.as_str(),
        &[],
    ));
    let before = tracer
        .time("manifest_log::append_to_log", || {
            mlog::append_to_log(&scratch.dir, 0, &records, options.fsync)
        })
        .map_err(err)?;
    if scratch.store.is_shared() {
        tracer
            .time("ObjectStore::meta_put", || {
                scratch
                    .store
                    .meta_put(&format!("manifests/{}", id.file_name()), &manifest_bytes)
            })
            .map_err(err)?;
    }
    scratch.generation += 1;
    scratch.slot = 1 - scratch.slot;
    let root = RootSlot {
        generation: scratch.generation,
        epoch: 0,
        committed_len: before + records.len() as u64,
        latest: Some(id.clone()),
    };
    tracer
        .time("manifest_log::write_root_slot", || {
            mlog::write_root_slot(&scratch.dir, scratch.slot, &root, options.fsync)
        })
        .map_err(err)?;
    if scratch.store.is_shared() {
        tracer
            .time("ObjectStore::meta_put", || {
                scratch
                    .store
                    .meta_put("LATEST", format!("{}\n", id.as_str()).as_bytes())
            })
            .map_err(err)?;
    }
    Ok(())
}

/// Walks the recover pipeline over `repo`'s newest checkpoint: log replay,
/// then the delta chain oldest-first — fetch, decompress, patch, verify —
/// and finally `from_sections`. Reads only. Returns the rebuilt snapshot so
/// the caller can hold it against what `recover()` returned.
pub fn replay_recover(tracer: &Tracer, repo: &CheckpointRepo) -> Result<TrainingSnapshot, String> {
    tracer.next_op("replay.recover");
    let _replay = tracer.span("replay.recover");
    let err = |e: qcheck::Error| format!("recover replay: {e}");
    let state = tracer
        .time("manifest_log::replay", || mlog::replay(repo.root()))
        .map_err(err)?;
    let tip = state
        .latest
        .as_ref()
        .and_then(|id| state.manifests.get(id))
        .ok_or("recover replay: the log has no latest checkpoint")?;
    let mut chain = vec![tip];
    while let CheckpointKind::Delta { base } = &chain[chain.len() - 1].kind {
        chain.push(
            state
                .manifests
                .get(base)
                .ok_or_else(|| format!("recover replay: base {base} missing"))?,
        );
    }
    let mut sections: Vec<Section> = Vec::new();
    for manifest in chain.iter().rev() {
        let mut next = Vec::with_capacity(manifest.sections.len());
        for entry in &manifest.sections {
            let chunks = tracer
                .time("ObjectStore::get_many", || {
                    repo.store().get_many(&entry.chunks)
                })
                .map_err(err)?;
            let compressed = chunks.concat();
            let stored = tracer
                .time("Compression::decompress", || {
                    entry.codec.decompress(&compressed)
                })
                .map_err(err)?;
            let base = sections.iter().find(|s| s.name == entry.name);
            let bytes = match (entry.payload_kind, base) {
                (PayloadKind::Full, _) => stored,
                (PayloadKind::DeltaPatch, Some(base)) => {
                    let patch = BlockPatch::decode(&stored).map_err(err)?;
                    tracer
                        .time("BlockPatch::apply", || patch.apply(&base.bytes))
                        .map_err(err)?
                }
                (PayloadKind::XorBase, Some(base)) => tracer.time("xor_base", || {
                    base.bytes.iter().zip(&stored).map(|(a, b)| a ^ b).collect()
                }),
                (_, None) => return Err(format!("recover replay: no base for {}", entry.name)),
            };
            let sha = tracer.time("Sha256::digest", || Sha256::digest(&bytes));
            if sha != entry.section_sha {
                return Err(format!("recover replay: hash mismatch in {}", entry.name));
            }
            next.push(Section {
                name: entry.name.clone(),
                bytes,
            });
        }
        sections = next;
    }
    tracer
        .time("TrainingSnapshot::from_sections", || {
            TrainingSnapshot::from_sections(&sections)
        })
        .map_err(err)
}

/// The sim workload's step, one public call per span: the replay binds the
/// plan the trainer runs to the trainer's current parameters, runs it,
/// takes the expectation value, and applies one optimizer update.
pub struct SimStages {
    plan: ExecPlan,
    hamiltonian: PauliSum,
    qubits: usize,
    adam: Adam,
    rng: Xoshiro256,
    /// `BoundPlan::passes` / `amp_bytes_swept` of the last binding.
    pub passes_per_run: u64,
    pub amp_bytes_per_run: u64,
}

/// Evaluations each sim replay times (a step makes `2 · params + 1`).
const SIM_REPLAY_EVALS: usize = 8;

impl SimStages {
    pub fn new(tracer: &Tracer, qubits: usize, layers: usize) -> Result<SimStages, String> {
        let (circuit, _, hamiltonian) = crate::subject::sim_problem(qubits, layers);
        tracer.next_op("replay.compile");
        let plan = tracer
            .time("Circuit::compile", || circuit.compile())
            .map_err(|e| e.to_string())?;
        Ok(SimStages {
            plan,
            hamiltonian,
            qubits,
            adam: Adam::new(0.05),
            rng: Xoshiro256::seed_from(0),
            passes_per_run: 0,
            amp_bytes_per_run: 0,
        })
    }

    pub fn replay_step(&mut self, tracer: &Tracer, params: &[f64]) -> Result<(), String> {
        tracer.next_op("replay.step");
        let _replay = tracer.span("replay.step");
        let mut bound = self.plan.bind_scratch();
        let mut grad = vec![0.0; params.len()];
        for g in grad.iter_mut().take(SIM_REPLAY_EVALS) {
            tracer
                .time("BoundPlan::rebind", || bound.rebind(params))
                .map_err(|e| e.to_string())?;
            let mut state = StateVector::zero_state(self.qubits);
            tracer
                .time("BoundPlan::run_on", || bound.run_on(&mut state))
                .map_err(|e| e.to_string())?;
            let (value, _) = tracer
                .time("evaluate_observable", || {
                    evaluate_observable(&state, &self.hamiltonian, EvalMode::Exact, &mut self.rng)
                })
                .map_err(|e| e.to_string())?;
            *g = value;
        }
        self.passes_per_run = bound.passes() as u64;
        self.amp_bytes_per_run = bound.amp_bytes_swept();
        let mut scratch_params = params.to_vec();
        tracer.time("Optimizer::step", || {
            self.adam.step(&mut scratch_params, &grad)
        });
        Ok(())
    }
}

/// Times `qpar::map_owned` over `threads` no-op jobs: the fixed cost of one
/// fan-out and join on the worker pool.
pub fn replay_fanout(tracer: &Tracer, threads: usize, samples: usize) {
    tracer.next_op("replay.fanout");
    for _ in 0..samples {
        tracer.time("qpar::map_owned", || {
            std::hint::black_box(qpar::map_owned(threads, vec![0u8; threads], |x| x))
        });
    }
}

//! The training-state snapshot model.
//!
//! A [`TrainingSnapshot`] is the complete classical half of a hybrid
//! quantum-classical training loop — the inventory the paper argues must be
//! checkpointed (and contrasts against a naive `2^n`-amplitude simulator
//! dump):
//!
//! | component | size | why it matters for exact resume |
//! |---|---|---|
//! | parameters | `O(P)` | the model itself |
//! | optimizer state | `O(P)` | Adam moments etc.; dropping them changes the trajectory |
//! | RNG streams | `O(1)` | shot noise, batch order, noise unravelling |
//! | dataset cursor | `O(1)` | mini-batch position & epoch ordering |
//! | shot ledger | `O(steps)` | audit trail of consumed QPU shots |
//! | metrics tail | bounded | convergence checks & policies after resume |
//!
//! Snapshots encode deterministically into named *sections* (byte strings),
//! the unit of compression and chunking in the on-disk format.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::codec::{Decoder, Encoder};
use crate::error::{Error, Result};

/// A captured RNG state: the 40-byte serialized form of a xoshiro256**
/// generator (4×8 state words + 8-byte draw counter).
///
/// Persistence goes through the byte-stable [`crate::codec`] (serde's
/// derive does not cover `[u8; 40]`, and the on-disk format never uses
/// serde anyway).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RngCapture(pub [u8; 40]);

impl std::fmt::Debug for RngCapture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RngCapture({:02x}{:02x}{:02x}{:02x}…)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// Tagged opaque state blob (optimizer state, user extensions).
///
/// The tag identifies the producer (e.g. `"adam-v1"`); restore fails loudly
/// on tag mismatch instead of silently reinterpreting bytes.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateBlob {
    /// Producer identifier, e.g. `"adam-v1"`.
    pub tag: String,
    /// Opaque serialized state.
    pub data: Vec<u8>,
}

impl StateBlob {
    /// Creates a tagged blob.
    pub fn new(tag: impl Into<String>, data: Vec<u8>) -> Self {
        StateBlob {
            tag: tag.into(),
            data,
        }
    }
}

/// Position of the training loop within its dataset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetCursor {
    /// Completed passes over the data.
    pub epoch: u64,
    /// Index of the next example within the current epoch's order.
    pub position: u64,
    /// Seed that generated the current epoch's shuffle order.
    pub order_seed: u64,
}

/// One recorded metric point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricPoint {
    /// Optimizer step at which the metric was recorded.
    pub step: u64,
    /// Loss (or other scalar) value.
    pub value: f64,
}

/// The complete classical training state of a hybrid loop.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingSnapshot {
    /// Optimizer step count at capture time.
    pub step: u64,
    /// Epoch count at capture time.
    pub epoch: u64,
    /// Wall-clock training time consumed so far, milliseconds.
    ///
    /// The one field two identical runs need not share: a trainer stamps
    /// it from a clock at capture, and it lives in the `meta` section, so
    /// the length of `meta`'s XOR-against-base payload (and a repository's
    /// stored bytes) can differ by a byte between runs. A capture that
    /// leaves it 0, or pins it to the step, stores the same bytes every
    /// run.
    pub wall_time_ms: u64,
    /// Free-form run label.
    pub label: String,
    /// The parameter vector.
    pub params: Vec<f64>,
    /// Serialized optimizer state.
    pub optimizer: StateBlob,
    /// Named RNG streams, each a 40-byte xoshiro256** capture
    /// (name → state bytes). Sorted by name for determinism.
    pub rng_streams: BTreeMap<String, RngCapture>,
    /// Dataset position.
    pub cursor: DatasetCursor,
    /// Total QPU shots consumed so far.
    pub total_shots: u64,
    /// Opaque serialized shot ledger (producer-defined).
    pub shot_ledger: Vec<u8>,
    /// Recent metric history (bounded tail).
    pub metrics: Vec<MetricPoint>,
    /// Extension sections (name → bytes). Names must not collide with the
    /// built-in section names.
    pub custom: BTreeMap<String, Vec<u8>>,
}

/// Built-in section names, in serialization order.
pub const SECTION_META: &str = "meta";
/// Parameter-vector section name.
pub const SECTION_PARAMS: &str = "params";
/// Optimizer-state section name.
pub const SECTION_OPTIMIZER: &str = "optimizer";
/// RNG-streams section name.
pub const SECTION_RNG: &str = "rng";
/// Shot-ledger section name.
pub const SECTION_LEDGER: &str = "ledger";
/// Metrics-tail section name.
pub const SECTION_METRICS: &str = "metrics";
/// Prefix for extension sections.
pub const CUSTOM_PREFIX: &str = "custom:";

/// A named byte section — the unit of compression, chunking and delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// Section name.
    pub name: String,
    /// Deterministic payload bytes.
    pub bytes: Vec<u8>,
}

impl TrainingSnapshot {
    /// Creates an empty snapshot with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        TrainingSnapshot {
            label: label.into(),
            ..TrainingSnapshot::default()
        }
    }

    /// Serializes into the deterministic ordered section list.
    pub fn to_sections(&self) -> Vec<Section> {
        let mut sections = Vec::with_capacity(6 + self.custom.len());

        let mut meta = Encoder::new();
        meta.put_u64(self.step)
            .put_u64(self.epoch)
            .put_u64(self.wall_time_ms)
            .put_str(&self.label)
            .put_u64(self.cursor.epoch)
            .put_u64(self.cursor.position)
            .put_u64(self.cursor.order_seed)
            .put_u64(self.total_shots);
        sections.push(Section {
            name: SECTION_META.into(),
            bytes: meta.into_bytes(),
        });

        let mut params = Encoder::with_capacity(self.params.len() * 8 + 8);
        params.put_f64_slice(&self.params);
        sections.push(Section {
            name: SECTION_PARAMS.into(),
            bytes: params.into_bytes(),
        });

        let mut opt = Encoder::new();
        opt.put_str(&self.optimizer.tag)
            .put_bytes(&self.optimizer.data);
        sections.push(Section {
            name: SECTION_OPTIMIZER.into(),
            bytes: opt.into_bytes(),
        });

        let mut rng = Encoder::new();
        rng.put_varint(self.rng_streams.len() as u64);
        for (name, state) in &self.rng_streams {
            rng.put_str(name).put_raw(&state.0);
        }
        sections.push(Section {
            name: SECTION_RNG.into(),
            bytes: rng.into_bytes(),
        });

        let mut ledger = Encoder::new();
        ledger.put_bytes(&self.shot_ledger);
        sections.push(Section {
            name: SECTION_LEDGER.into(),
            bytes: ledger.into_bytes(),
        });

        let mut metrics = Encoder::new();
        metrics.put_varint(self.metrics.len() as u64);
        for m in &self.metrics {
            metrics.put_u64(m.step).put_f64(m.value);
        }
        sections.push(Section {
            name: SECTION_METRICS.into(),
            bytes: metrics.into_bytes(),
        });

        for (name, bytes) in &self.custom {
            sections.push(Section {
                name: format!("{CUSTOM_PREFIX}{name}"),
                bytes: bytes.clone(),
            });
        }

        sections
    }

    /// Reconstructs a snapshot from sections.
    ///
    /// # Errors
    ///
    /// Fails when a required section is missing or malformed.
    pub fn from_sections(sections: &[Section]) -> Result<Self> {
        let find = |name: &str| -> Result<&Section> {
            sections
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| Error::NotFound {
                    what: format!("snapshot section '{name}'"),
                })
        };

        let meta_sec = find(SECTION_META)?;
        let mut d = Decoder::new(&meta_sec.bytes, "section meta");
        let step = d.get_u64()?;
        let epoch = d.get_u64()?;
        let wall_time_ms = d.get_u64()?;
        let label = d.get_str()?;
        let cursor = DatasetCursor {
            epoch: d.get_u64()?,
            position: d.get_u64()?,
            order_seed: d.get_u64()?,
        };
        let total_shots = d.get_u64()?;
        d.finish()?;

        let params_sec = find(SECTION_PARAMS)?;
        let mut d = Decoder::new(&params_sec.bytes, "section params");
        let params = d.get_f64_vec()?;
        d.finish()?;

        let opt_sec = find(SECTION_OPTIMIZER)?;
        let mut d = Decoder::new(&opt_sec.bytes, "section optimizer");
        let optimizer = StateBlob {
            tag: d.get_str()?,
            data: d.get_bytes()?,
        };
        d.finish()?;

        let rng_sec = find(SECTION_RNG)?;
        let mut d = Decoder::new(&rng_sec.bytes, "section rng");
        let n = d.get_varint()? as usize;
        let mut rng_streams = BTreeMap::new();
        for _ in 0..n {
            let name = d.get_str()?;
            let raw = d.get_raw(40)?;
            let mut state = [0u8; 40];
            state.copy_from_slice(raw);
            rng_streams.insert(name, RngCapture(state));
        }
        d.finish()?;

        let ledger_sec = find(SECTION_LEDGER)?;
        let mut d = Decoder::new(&ledger_sec.bytes, "section ledger");
        let shot_ledger = d.get_bytes()?;
        d.finish()?;

        let metrics_sec = find(SECTION_METRICS)?;
        let mut d = Decoder::new(&metrics_sec.bytes, "section metrics");
        let n = d.get_varint()? as usize;
        let mut metrics = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            metrics.push(MetricPoint {
                step: d.get_u64()?,
                value: d.get_f64()?,
            });
        }
        d.finish()?;

        let mut custom = BTreeMap::new();
        for s in sections {
            if let Some(name) = s.name.strip_prefix(CUSTOM_PREFIX) {
                custom.insert(name.to_string(), s.bytes.clone());
            }
        }

        Ok(TrainingSnapshot {
            step,
            epoch,
            wall_time_ms,
            label,
            params,
            optimizer,
            rng_streams,
            cursor,
            total_shots,
            shot_ledger,
            metrics,
            custom,
        })
    }

    /// Total serialized payload bytes across sections (pre-compression) —
    /// the "hybrid classical state" column of the inventory table.
    pub fn payload_bytes(&self) -> usize {
        self.to_sections().iter().map(|s| s.bytes.len()).sum()
    }

    /// Per-section byte breakdown (name, bytes), for experiment R-T1.
    pub fn section_sizes(&self) -> Vec<(String, usize)> {
        self.to_sections()
            .into_iter()
            .map(|s| (s.name, s.bytes.len()))
            .collect()
    }
}

/// Contract between a training loop and the checkpointer.
///
/// Implementors capture *all* state needed for a bitwise-exact resume:
/// a `restore(capture())` round trip must make the future trajectory of the
/// loop identical to one that never stopped.
pub trait Checkpointable {
    /// Captures the complete training state.
    fn capture(&self) -> TrainingSnapshot;

    /// Restores from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot is structurally incompatible
    /// (wrong parameter count, unknown optimizer tag, …).
    fn restore(&mut self, snapshot: &TrainingSnapshot) -> std::result::Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TrainingSnapshot {
        let mut s = TrainingSnapshot::new("vqe-tfim-8q");
        s.step = 412;
        s.epoch = 3;
        s.wall_time_ms = 98_765;
        s.params = vec![0.1, -0.2, 1.0e-9, f64::MIN_POSITIVE, 3.5];
        s.optimizer = StateBlob::new("adam-v1", vec![9, 9, 9, 1, 2, 3]);
        s.rng_streams.insert("shots".into(), RngCapture([7u8; 40]));
        s.rng_streams.insert("data".into(), RngCapture([1u8; 40]));
        s.cursor = DatasetCursor {
            epoch: 3,
            position: 17,
            order_seed: 0xDEAD,
        };
        s.total_shots = 1_234_567;
        s.shot_ledger = vec![5; 100];
        s.metrics = vec![
            MetricPoint {
                step: 410,
                value: -3.2,
            },
            MetricPoint {
                step: 411,
                value: -3.25,
            },
        ];
        s.custom.insert("schedule".into(), vec![1, 2]);
        s
    }

    #[test]
    fn section_round_trip_is_lossless() {
        let snap = sample_snapshot();
        let sections = snap.to_sections();
        let back = TrainingSnapshot::from_sections(&sections).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = sample_snapshot().to_sections();
        let b = sample_snapshot().to_sections();
        assert_eq!(a, b);
    }

    #[test]
    fn section_names_are_ordered_and_complete() {
        let names: Vec<String> = sample_snapshot()
            .to_sections()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(
            names,
            vec![
                "meta",
                "params",
                "optimizer",
                "rng",
                "ledger",
                "metrics",
                "custom:schedule"
            ]
        );
    }

    #[test]
    fn missing_required_section_is_detected() {
        let snap = sample_snapshot();
        let mut sections = snap.to_sections();
        sections.retain(|s| s.name != SECTION_PARAMS);
        let err = TrainingSnapshot::from_sections(&sections).unwrap_err();
        assert!(err.to_string().contains("params"));
    }

    #[test]
    fn corrupted_section_is_detected() {
        let snap = sample_snapshot();
        let mut sections = snap.to_sections();
        let meta = sections
            .iter_mut()
            .find(|s| s.name == SECTION_META)
            .unwrap();
        meta.bytes.truncate(4);
        assert!(TrainingSnapshot::from_sections(&sections).is_err());
    }

    #[test]
    fn params_preserve_exact_bits() {
        let mut snap = TrainingSnapshot::new("bits");
        snap.params = vec![f64::NAN, -0.0, f64::from_bits(0x0000_0000_0000_0001)];
        let back = TrainingSnapshot::from_sections(&snap.to_sections()).unwrap();
        for (a, b) in snap.params.iter().zip(&back.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = TrainingSnapshot::new("");
        let back = TrainingSnapshot::from_sections(&snap.to_sections()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn payload_bytes_scales_with_params() {
        let mut small = TrainingSnapshot::new("s");
        small.params = vec![0.0; 10];
        let mut big = TrainingSnapshot::new("s");
        big.params = vec![0.0; 10_000];
        assert!(big.payload_bytes() > small.payload_bytes() + 9_000 * 8);
    }

    #[test]
    fn section_sizes_cover_all_components() {
        let sizes = sample_snapshot().section_sizes();
        assert_eq!(sizes.len(), 7);
        let params_size = sizes.iter().find(|(n, _)| n == "params").unwrap().1;
        assert!(params_size >= 5 * 8);
    }

    #[test]
    fn rng_streams_sorted_by_name() {
        // BTreeMap guarantees order; verify encoding reflects it.
        let snap = sample_snapshot();
        let sections = snap.to_sections();
        let rng = sections.iter().find(|s| s.name == SECTION_RNG).unwrap();
        let mut d = Decoder::new(&rng.bytes, "rng");
        let n = d.get_varint().unwrap();
        assert_eq!(n, 2);
        assert_eq!(d.get_str().unwrap(), "data");
    }
}

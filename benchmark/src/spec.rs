//! What the benchmark runs and what it reports: the four workloads with
//! their fixed shapes, and the metric tables `BENCHMARK.json` mirrors.
//!
//! A run repeats one fixed-shape *episode* — train → checkpoint → kill →
//! resume → continue — until `--seconds` have passed (the deadline is looked
//! at between episodes only). Every count inside an episode is an input
//! written here; none depends on wall time, so the delta-chain depth at the
//! kill, the number of saves, loads and retention passes, and every byte
//! count are the same on every machine and every commit. The expected values
//! are recorded as a [`Shape`] and checked after every episode.

/// Which training subject a workload checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubjectSpec {
    /// `qnn::Trainer`, VQE on TFIM, `hardware_efficient(qubits, layers)`.
    Sim { qubits: usize, layers: usize },
    /// [`crate::subject::DenseSubject`]: `blocks` 4 KiB parameter blocks of
    /// which `active` change per step.
    Dense { blocks: usize, active: usize },
}

/// Which store the repository is opened on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreSpec {
    /// `CheckpointRepo::open_with(StoreKind::Pack)`.
    Pack,
    /// `RemoteStore` to one in-process `spawn_daemon(root, StoreKind::Pack)`;
    /// every resume opens a fresh working directory.
    RemotePack,
}

/// Retention inside the timed loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetentionSpec {
    /// Run `apply_retention(KeepLast(keep_last))` after every `every`-th save.
    pub every: u64,
    pub keep_last: usize,
}

/// The fingerprint one episode must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Delta-chain length of the tip at the kill.
    pub chain_len: u32,
    pub saves: u64,
    pub fulls: u64,
    pub deltas: u64,
    /// Σ `SaveReport::logical_bytes` over the episode's pre-kill saves.
    pub logical_bytes: u64,
}

/// One workload: a subject, a store, and the counts of one episode.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists; `BENCHMARK.json` carries the same line.
    pub why: &'static str,
    pub subject: SubjectSpec,
    pub store: StoreSpec,
    /// `SaveOptions::incremental(max_chain)`.
    pub max_chain: u32,
    /// Steps before the kill; a checkpoint follows every step.
    pub steps: u64,
    /// Times the killed run is resumed (drop → open → recover → restore).
    pub resumes: usize,
    /// Steps (with checkpoints) taken after the last resume.
    pub post_steps: u64,
    pub retention: Option<RetentionSpec>,
    /// `repo.load` of a seeded retained id after every `n`-th save.
    pub load_every: Option<u64>,
    /// Whether the episode ends with a full `qcheck::fsck` (every checkpoint
    /// resolved through its whole chain: seconds at full size) or only loads
    /// the tip back. Measured episodes do the latter; see [`Spec::warm_up`].
    pub fsck: bool,
    pub shape: Shape,
}

/// Loads pick among this many newest checkpoints, which every retention
/// policy used here keeps.
pub const LOAD_WINDOW: usize = 8;

const DENSE_BLOCKS: usize = 128; // 65 536 parameters, ~1.5 MiB snapshot

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "sim_bound",
        why: "real qnn::Trainer VQE step (13 qubits, 234 shifted evaluations) with a 3 KB snapshot: qsim/qnn/qpar do the work, a save is its fixed cost",
        subject: SubjectSpec::Sim {
            qubits: 13,
            layers: 4,
        },
        store: StoreSpec::Pack,
        max_chain: 8,
        steps: 9,
        resumes: 25,
        post_steps: 3,
        retention: None,
        load_every: None,
        fsck: false,
        shape: Shape {
            chain_len: 8,
            saves: 9,
            fulls: 1,
            deltas: 8,
            logical_bytes: 28_179,
        },
    },
    Spec {
        name: "ckpt_dense_local",
        why: "1.5 MiB snapshot, every parameter changes each step, pack store, tip killed at delta depth 32: qcheck encode, pack write and deep-chain recover do the work",
        subject: SubjectSpec::Dense {
            blocks: DENSE_BLOCKS,
            active: DENSE_BLOCKS,
        },
        store: StoreSpec::Pack,
        max_chain: 32,
        steps: 33,
        resumes: 5,
        post_steps: 3,
        retention: None,
        load_every: None,
        fsck: false,
        shape: Shape {
            chain_len: 32,
            saves: 33,
            fulls: 1,
            deltas: 32,
            logical_bytes: 52_103_601,
        },
    },
    Spec {
        name: "ckpt_sparse_churn",
        why: "same subject and store but 1/16 of the blocks change per step, depth-4 chains, retention+GC every 16 saves and a load after every 2nd: dedup, patches, GC and reads beside writes",
        subject: SubjectSpec::Dense {
            blocks: DENSE_BLOCKS,
            active: DENSE_BLOCKS / 16,
        },
        store: StoreSpec::Pack,
        max_chain: 4,
        steps: 80,
        resumes: 10,
        post_steps: 3,
        retention: Some(RetentionSpec {
            every: 16,
            keep_last: 8,
        }),
        load_every: Some(2),
        fsck: false,
        shape: Shape {
            chain_len: 4,
            saves: 80,
            fulls: 16,
            deltas: 64,
            logical_bytes: 126_311_760,
        },
    },
    Spec {
        name: "ckpt_dense_remote",
        why: "the ckpt_dense_local input byte for byte through RemoteStore to an in-process qckptd on loopback, fresh directory per resume: the difference is the wire and daemon cost",
        subject: SubjectSpec::Dense {
            blocks: DENSE_BLOCKS,
            active: DENSE_BLOCKS,
        },
        store: StoreSpec::RemotePack,
        max_chain: 32,
        steps: 33,
        resumes: 2,
        post_steps: 3,
        retention: None,
        load_every: None,
        fsck: false,
        shape: Shape {
            chain_len: 32,
            saves: 33,
            fulls: 1,
            deltas: 32,
            logical_bytes: 52_103_601,
        },
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The same workload at a toy size, for `--smoke`: same store, same
    /// chain policy, same oracles, a fraction of a second.
    pub fn smoke(self) -> Spec {
        let (subject, steps, logical_bytes) = match self.subject {
            SubjectSpec::Sim { .. } => (
                SubjectSpec::Sim {
                    qubits: 4,
                    layers: 1,
                },
                self.steps,
                5_454,
            ),
            SubjectSpec::Dense { blocks, active } => {
                // A remote save costs ~60 ms whatever its size.
                let steps = match self.store {
                    StoreSpec::RemotePack => 12,
                    _ => self.steps.min(40),
                };
                (
                    SubjectSpec::Dense {
                        blocks: 16,
                        active: (active * 16 / blocks).max(1),
                    },
                    steps,
                    197_488 * steps,
                )
            }
        };
        let saves = steps;
        let cycle = u64::from(self.max_chain) + 1;
        let fulls = saves.div_ceil(cycle);
        Spec {
            subject,
            steps,
            resumes: 2,
            fsck: true,
            shape: Shape {
                chain_len: ((saves - 1) % cycle) as u32,
                saves,
                fulls,
                deltas: saves - fulls,
                logical_bytes,
            },
            ..self
        }
    }

    /// The episode that warms the process up before anything is measured:
    /// the same pre-kill loop (so the same shape), one resume, one step on.
    /// Every episode of a run replays the same input, so this is also the one
    /// that pays for the full `fsck` — except on the remote store, where fsck
    /// fetches every chunk of every checkpoint in a round trip of its own
    /// (~12 s per episode); there only `--smoke` runs it.
    pub fn warm_up(self) -> Spec {
        Spec {
            resumes: 1,
            post_steps: 1,
            fsck: self.store != StoreSpec::RemotePack,
            ..self
        }
    }
}

/// `(name, unit, better)` of one metric.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics: what a user of the system sees. Reported by the
/// untraced run only. (`failed_ops_pct` of the issue is the `failed` /
/// `attempted` pair of the result line: a metric may never read 0.)
pub const END_TO_END: [MetricDef; 7] = [
    ("setup_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("save_ms_p50", "ms", "lower"),
    ("resume_ms_p50", "ms", "lower"),
    ("write_amp", "ratio", "lower"),
    ("space_amp", "ratio", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics, reported by the traced run only. A layer that does no
/// work on a workload reports 0 (with n = 0 in the printed table).
pub const PER_LAYER: [MetricDef; 64] = [
    ("qsim.plan.compile_us", "us", "lower"),
    ("qsim.plan.rebind_us_p50", "us", "lower"),
    ("qsim.plan.run_us_p50", "us", "lower"),
    ("qsim.plan.passes_per_run", "count", "lower"),
    ("qsim.plan.amp_bytes_per_run", "B", "lower"),
    ("qsim.measure.expectation_us_p50", "us", "lower"),
    ("qnn.trainer.step_ms_p50", "ms", "lower"),
    ("qnn.trainer.step_ms_p95", "ms", "lower"),
    ("qnn.trainer.capture_us_p50", "us", "lower"),
    ("qnn.trainer.restore_us_p50", "us", "lower"),
    ("qnn.gradient.evals_per_step", "count", "lower"),
    ("qnn.optimizer.step_us_p50", "us", "lower"),
    ("qpar.threads", "count", "higher"),
    ("qpar.fanout_us_p50", "us", "lower"),
    ("qcheck.snapshot.to_sections_us_p50", "us", "lower"),
    ("qcheck.snapshot.from_sections_us_p50", "us", "lower"),
    ("qcheck.snapshot.logical_bytes", "B", "lower"),
    ("qcheck.delta.diff_us_p50", "us", "lower"),
    ("qcheck.delta.apply_us_p50", "us", "lower"),
    ("qcheck.delta.changed_block_ratio", "ratio", "lower"),
    ("qcheck.compress.compress_us_p50", "us", "lower"),
    ("qcheck.compress.decompress_us_p50", "us", "lower"),
    ("qcheck.compress.ratio", "ratio", "lower"),
    ("qcheck.chunk.split_us_p50", "us", "lower"),
    ("qcheck.chunk.chunks_per_save", "count", "lower"),
    ("qcheck.hash.sha256_us_p50", "us", "lower"),
    ("qcheck.hash.mb_per_s", "MB/s", "higher"),
    ("qcheck.store.put_batch_us_p50", "us", "lower"),
    ("qcheck.store.get_us_p50", "us", "lower"),
    ("qcheck.store.renames_per_save", "count", "lower"),
    ("qcheck.store.fsyncs_per_save", "count", "lower"),
    ("qcheck.store.new_chunk_bytes_per_save", "B", "lower"),
    ("qcheck.store.dedup_hit_ratio", "ratio", "higher"),
    ("qcheck.store.gc_ms_p50", "ms", "lower"),
    ("qcheck.store.gc_bytes_rewritten", "B", "lower"),
    ("qcheck.store.pack_index_rescans", "count", "lower"),
    ("qcheck.manifest_log.append_us_p50", "us", "lower"),
    ("qcheck.manifest_log.root_flip_us_p50", "us", "lower"),
    ("qcheck.manifest_log.replay_us_p50", "us", "lower"),
    (
        "qcheck.manifest_log.commit_fsyncs_per_save",
        "count",
        "lower",
    ),
    (
        "qcheck.manifest_log.commit_renames_per_save",
        "count",
        "lower",
    ),
    ("qcheck.manifest_log.manifest_bytes_per_save", "B", "lower"),
    ("qcheck.repo.save_full_ms_p50", "ms", "lower"),
    ("qcheck.repo.save_delta_ms_p50", "ms", "lower"),
    ("qcheck.repo.save_ms_p95", "ms", "lower"),
    ("qcheck.repo.save_unattributed_pct", "%", "lower"),
    ("qcheck.repo.open_ms_p50", "ms", "lower"),
    ("qcheck.repo.recover_ms_p50", "ms", "lower"),
    ("qcheck.repo.recover_unattributed_pct", "%", "lower"),
    ("qcheck.repo.recover_chain_len", "count", "lower"),
    ("qcheck.repo.manifests_tried", "count", "lower"),
    ("qcheck.repo.load_ms_p50", "ms", "lower"),
    ("qcheck.repo.retention_ms_p50", "ms", "lower"),
    (
        "qcheck.remote.client.round_trips_per_save",
        "count",
        "lower",
    ),
    (
        "qcheck.remote.client.round_trips_per_resume",
        "count",
        "lower",
    ),
    ("qcheck.remote.client.put_batch_us_p50", "us", "lower"),
    ("qcheck.remote.client.meta_put_us_p50", "us", "lower"),
    ("qcheck.remote.client.retries", "count", "lower"),
    ("qcheck.remote.proto.wire_bytes_out_per_save", "B", "lower"),
    ("qcheck.remote.proto.wire_bytes_in_per_resume", "B", "lower"),
    ("qcheck.remote.server.requests_per_save", "count", "lower"),
    (
        "qcheck.remote.server.oplog_entries_per_save",
        "count",
        "lower",
    ),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("run.ckpt_share_pct", "%", "lower"),
];

/// The charset `BENCHMARK.json` allows a metric or workload name.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The charset `BENCHMARK.json` allows a unit.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(matches!(*better, "lower" | "higher"), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".dot-first"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn shapes_follow_from_the_counts() {
        for w in WORKLOADS.iter().copied().chain(WORKLOADS.map(Spec::smoke)) {
            let cycle = u64::from(w.max_chain) + 1;
            assert_eq!(w.shape.saves, w.steps, "{}", w.name);
            assert_eq!(w.shape.fulls, w.steps.div_ceil(cycle), "{}", w.name);
            assert_eq!(w.shape.fulls + w.shape.deltas, w.shape.saves);
            assert_eq!(
                u64::from(w.shape.chain_len),
                (w.steps - 1) % cycle,
                "{}",
                w.name
            );
        }
        // The full-size workloads are all killed at exactly their depth bound.
        for w in WORKLOADS {
            assert_eq!(w.shape.chain_len, w.max_chain, "{}", w.name);
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the tables
    /// the program reports from.
    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let expected: Vec<(String, String, String)> = table
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        for m in list("end_to_end") {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}

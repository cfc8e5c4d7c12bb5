//! Determinism contract of the parallel hot paths: every kernel, gradient
//! and checkpoint-encode result must be **bit-identical** for 1/2/4/8
//! worker threads, and resume through the save driver with a parallel
//! encoder on its writer thread must stay exact.

use qnn_checkpoint::qcheck::chunk::chunk_bytes_threads;
use qnn_checkpoint::qcheck::compress::Compression;
use qnn_checkpoint::qcheck::hash::Sha256;
use qnn_checkpoint::qcheck::repo::{CheckpointRepo, SaveOptions};
use qnn_checkpoint::qcheck::snapshot::{Checkpointable, StateBlob, TrainingSnapshot};
use qnn_checkpoint::qcheck::{Checkpointer, EveryKSteps};
use qnn_checkpoint::qnn::ansatz::{hardware_efficient, init_params};
use qnn_checkpoint::qnn::optimizer::Adam;
use qnn_checkpoint::qnn::trainer::{Task, Trainer, TrainerConfig};
use qnn_checkpoint::qnn::GradientMethod;
use qnn_checkpoint::qsim::measure::EvalMode;
use qnn_checkpoint::qsim::pauli::PauliSum;
use qnn_checkpoint::qsim::rng::Xoshiro256;
use qnn_checkpoint::qsim::state::StateVector;
use qnn_checkpoint::qsim::Gate;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn scratch(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let p = std::env::temp_dir().join(format!(
        "qnn-par-eq-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn amp_bits(state: &StateVector) -> Vec<(u64, u64)> {
    state
        .amplitudes()
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

#[test]
fn state_vector_kernels_bit_identical_across_threads() {
    // 15 qubits crosses the gate-kernel fan-out threshold; the circuit
    // covers dense, real-dense, diagonal, transposition and dense-4x4
    // kernels on low, middle and high qubits.
    let n = 15;
    let (circuit, info) = hardware_efficient(n, 3);
    let params: Vec<f64> = (0..info.num_params)
        .map(|i| 0.21 * i as f64 - 1.0)
        .collect();
    let run_at = |threads: usize| {
        qpar::with_threads(threads, || {
            let mut state = circuit.run(&params).unwrap();
            state.apply_gate(Gate::Rxx(0.37), &[0, n - 1]).unwrap();
            state.apply_gate(Gate::Swap, &[1, n - 2]).unwrap();
            let h = PauliSum::heisenberg_xxz(n, 0.4);
            let e = h.expectation(&state).unwrap();
            (amp_bits(&state), e.to_bits(), state.norm().to_bits())
        })
    };
    let reference = run_at(1);
    for threads in &THREAD_SWEEP[1..] {
        assert_eq!(run_at(*threads), reference, "threads={threads}");
    }
}

#[test]
fn trainer_trajectory_bit_identical_across_threads() {
    let run_at = |threads: usize| {
        qpar::with_threads(threads, || {
            let (circuit, info) = hardware_efficient(5, 2);
            let mut rng = Xoshiro256::seed_from(42);
            let params = init_params(info.num_params, &mut rng);
            let mut t = Trainer::new(
                circuit,
                Task::Vqe {
                    hamiltonian: PauliSum::transverse_ising(5, 1.0, 0.7),
                },
                Box::new(Adam::new(0.05)),
                params,
                TrainerConfig {
                    label: "par-eq".into(),
                    eval_mode: EvalMode::Exact,
                    gradient: GradientMethod::ParameterShift,
                    seed: 7,
                    metrics_capacity: 64,
                },
            )
            .unwrap();
            for _ in 0..6 {
                t.train_step().unwrap();
            }
            t.params().iter().map(|p| p.to_bits()).collect::<Vec<u64>>()
        })
    };
    let reference = run_at(1);
    for threads in &THREAD_SWEEP[1..] {
        assert_eq!(run_at(*threads), reference, "threads={threads}");
    }
}

#[test]
fn chunk_refs_bit_identical_across_threads() {
    let data: Vec<u8> = (0..300_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let (reference, _) = chunk_bytes_threads(&data, 4096, 1);
    for threads in &THREAD_SWEEP[1..] {
        let (refs, slices) = chunk_bytes_threads(&data, 4096, *threads);
        assert_eq!(refs, reference, "threads={threads}");
        assert_eq!(slices.len(), refs.len());
    }
    // And the parallel digest primitive agrees with serial one-shot digests.
    let buffers: Vec<&[u8]> = data.chunks(1000).collect();
    let serial: Vec<_> = buffers.iter().map(|b| Sha256::digest(b)).collect();
    for threads in THREAD_SWEEP {
        assert_eq!(Sha256::digest_many(buffers.clone(), threads), serial);
    }
}

#[test]
fn section_compression_bit_identical_across_threads() {
    let payloads: Vec<Vec<u8>> = (0..6)
        .map(|k| {
            (0..40_000u32)
                .map(|i| ((i * (k + 3)) % 251) as u8)
                .collect()
        })
        .collect();
    let jobs = |_: usize| -> Vec<(Compression, &[u8])> {
        payloads
            .iter()
            .enumerate()
            .map(|(k, p)| (Compression::all()[k % 4], p.as_slice()))
            .collect()
    };
    let compress_at =
        |threads: usize| qpar::map_threads(threads, jobs(0), |(codec, data)| codec.compress(data));
    let reference = compress_at(1);
    for threads in &THREAD_SWEEP[1..] {
        assert_eq!(compress_at(*threads), reference, "threads={threads}");
    }
}

fn snapshot_at(step: u64) -> TrainingSnapshot {
    let mut s = TrainingSnapshot::new("par-eq");
    s.step = step;
    s.params = (0..20_000)
        .map(|i| 0.6 + 1e-9 * ((i as u64 * 7 + step) as f64))
        .collect();
    s.optimizer = StateBlob::new("adam-v1", vec![(step % 251) as u8; 4096]);
    s.total_shots = step * 100;
    s
}

#[test]
fn checkpoint_manifests_bit_identical_across_threads() {
    // Same snapshot stream saved at every thread count → byte-identical
    // manifests (fixed timestamp pins the only nondeterministic field).
    let manifest_bytes_at = |threads: usize| {
        let dir = scratch(&format!("manifest-{threads}"));
        let repo = CheckpointRepo::open(&dir).unwrap();
        let mut opts = SaveOptions::incremental(8);
        opts.created_unix_ms = Some(1_700_000_000_000);
        let mut out = Vec::new();
        for step in 0..6u64 {
            let report =
                qpar::with_threads(threads, || repo.save(&snapshot_at(step), &opts)).unwrap();
            let encoded = repo.load_manifest(&report.id).unwrap().encode();
            out.push((report.id.as_str().to_string(), encoded));
        }
        // The whole manifest log (ids, records, framing) must also be
        // bit-identical, not just each manifest payload.
        out.push((
            "log".to_string(),
            std::fs::read(repo.manifest_log_path().unwrap()).unwrap(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let reference = manifest_bytes_at(1);
    for threads in &THREAD_SWEEP[1..] {
        assert_eq!(manifest_bytes_at(*threads), reference, "threads={threads}");
    }
}

#[test]
fn delta_base_cache_matches_disk_resolution() {
    // Two repos over the same snapshot stream: one handle keeps its encode
    // cache warm, the other is reopened before every save (cold cache →
    // full disk resolution). The bytes on disk must not differ.
    let warm_dir = scratch("cache-warm");
    let cold_dir = scratch("cache-cold");
    let mut opts = SaveOptions::incremental(16);
    opts.created_unix_ms = Some(1_700_000_000_000);
    let warm = CheckpointRepo::open(&warm_dir).unwrap();
    for step in 0..5u64 {
        warm.save(&snapshot_at(step), &opts).unwrap();
        let cold = CheckpointRepo::open(&cold_dir).unwrap();
        cold.save(&snapshot_at(step), &opts).unwrap();
    }
    let warm_ids = warm.list_ids().unwrap();
    let cold = CheckpointRepo::open(&cold_dir).unwrap();
    assert_eq!(warm_ids, cold.list_ids().unwrap());
    for id in &warm_ids {
        assert_eq!(
            warm.load_manifest(id).unwrap().encode(),
            cold.load_manifest(id).unwrap().encode(),
            "manifest {id} differs between cached and disk-resolved base"
        );
    }
    let _ = std::fs::remove_dir_all(&warm_dir);
    let _ = std::fs::remove_dir_all(&cold_dir);
}

#[test]
fn checkpointer_parallel_encode_resume_is_exact() {
    // Train, checkpoint on the writer thread with a parallel encoder, crash,
    // recover, continue — the resumed trajectory must be bitwise identical
    // to one that never stopped.
    let make_trainer = || {
        let (circuit, info) = hardware_efficient(4, 2);
        let mut rng = Xoshiro256::seed_from(99);
        let params = init_params(info.num_params, &mut rng);
        Trainer::new(
            circuit,
            Task::Vqe {
                hamiltonian: PauliSum::transverse_ising(4, 1.0, 0.5),
            },
            Box::new(Adam::new(0.03)),
            params,
            TrainerConfig {
                label: "bg-resume".into(),
                eval_mode: EvalMode::Shots(32),
                gradient: GradientMethod::ParameterShift,
                seed: 5,
                metrics_capacity: 64,
            },
        )
        .unwrap()
    };

    // Uninterrupted reference run.
    let mut reference = make_trainer();
    for _ in 0..12 {
        reference.train_step().unwrap();
    }
    let reference_bits: Vec<u64> = reference.params().iter().map(|p| p.to_bits()).collect();

    // Interrupted run: 8 steps, each checkpointed with a parallel encode
    // while the next step computes.
    let dir = scratch("bg-resume");
    // The save resolves its width on the writer thread, which a
    // thread-local override cannot reach: set the process-wide count
    // (every other test here pins its own or is thread-count-invariant).
    qpar::set_global_threads(4);
    let mut driver = Checkpointer::new(
        CheckpointRepo::open(&dir).unwrap(),
        Box::new(EveryKSteps::new(1)),
        SaveOptions::incremental(8),
    )
    .unwrap();
    let mut interrupted = make_trainer();
    for _ in 0..8 {
        let step = interrupted.train_step().unwrap().step;
        assert!(driver.on_step(step, &interrupted).unwrap());
    }
    drop(driver); // crash after the last acknowledgement: only the repo survives
    qpar::set_global_threads(0);
    drop(interrupted);

    let (snapshot, _) = CheckpointRepo::open(&dir).unwrap().recover().unwrap();
    assert_eq!(snapshot.step, 8, "freshest checkpoint recovered");
    let mut resumed = make_trainer();
    resumed.restore(&snapshot).unwrap();
    for _ in 0..4 {
        resumed.train_step().unwrap();
    }
    let resumed_bits: Vec<u64> = resumed.params().iter().map(|p| p.to_bits()).collect();
    assert_eq!(
        resumed_bits, reference_bits,
        "resume drifted from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

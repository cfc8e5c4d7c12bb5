//! The two training subjects the workloads checkpoint.
//!
//! * [`SimSubject`] is the real `qnn::Trainer` (VQE on a transverse-field
//!   Ising chain): `qsim` / `qnn` / `qpar` do the work of a step.
//! * [`DenseSubject`] is benchmark-defined: a large parameter vector trained
//!   block by block with real `qnn::optimizer::Adam` instances on a seeded
//!   synthetic gradient. A step costs almost nothing, so the checkpoint
//!   layers do the work of the run.
//!
//! Both honour the `Checkpointable` contract: `restore(capture())` makes the
//! future trajectory bit-identical, which the resume oracle checks.

use qcheck::codec::{Decoder, Encoder};
use qcheck::snapshot::{Checkpointable, RngCapture, StateBlob, TrainingSnapshot};
use qnn::ansatz::{hardware_efficient, init_params};
use qnn::optimizer::{Adam, Optimizer};
use qnn::trainer::{Task, Trainer, TrainerConfig};
use qsim::measure::EvalMode;
use qsim::pauli::PauliSum;
use qsim::rng::{RngState, Xoshiro256};

use crate::trace::Tracer;

/// Parameters per block of the dense subject: 512 × 8 B = one 4 KiB block.
pub const BLOCK_PARAMS: usize = 512;

const DENSE_TAG: &str = "qbench-adam-blocks-v1";
const GRAD_STREAM: &str = "grad";

/// What one step produced, for the bit-exactness oracle and the counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepOutcome {
    /// Bit pattern of the step's loss (sim) or of a parameter checksum (dense).
    pub loss_bits: u64,
    /// Observable evaluations the step consumed (0 for the dense subject).
    pub evals: u32,
}

/// A checkpointable training loop the benchmark can step.
pub trait Subject: Checkpointable {
    /// Runs one training step.
    fn step(&mut self, tracer: &Tracer) -> Result<StepOutcome, String>;

    /// Bit patterns of the current parameters.
    fn param_bits(&self) -> Vec<u64>;
}

// ---------------------------------------------------------------------------
// sim: the real trainer

/// VQE on TFIM with the hardware-efficient ansatz, exact evaluation,
/// parameter-shift gradients, Adam.
pub struct SimSubject {
    trainer: Trainer,
}

/// The circuit and Hamiltonian of the sim workload, shared with the staged
/// replay so it times the very plan the trainer runs.
pub fn sim_problem(qubits: usize, layers: usize) -> (qsim::circuit::Circuit, usize, PauliSum) {
    let (circuit, info) = hardware_efficient(qubits, layers);
    (
        circuit,
        info.num_params,
        PauliSum::transverse_ising(qubits, 1.0, 0.5),
    )
}

impl SimSubject {
    pub fn new(qubits: usize, layers: usize, seed: u64) -> Result<Self, String> {
        let (circuit, num_params, hamiltonian) = sim_problem(qubits, layers);
        let params = init_params(num_params, &mut Xoshiro256::seed_from(seed));
        let trainer = Trainer::new(
            circuit,
            Task::Vqe { hamiltonian },
            Box::new(Adam::new(0.05)),
            params,
            TrainerConfig {
                label: "qbench-sim".into(),
                eval_mode: EvalMode::Exact,
                seed,
                ..TrainerConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        Ok(SimSubject { trainer })
    }
}

impl Checkpointable for SimSubject {
    fn capture(&self) -> TrainingSnapshot {
        self.trainer.capture()
    }

    fn restore(&mut self, snapshot: &TrainingSnapshot) -> Result<(), String> {
        self.trainer.restore(snapshot)
    }
}

impl Subject for SimSubject {
    fn step(&mut self, _tracer: &Tracer) -> Result<StepOutcome, String> {
        let report = self.trainer.train_step().map_err(|e| e.to_string())?;
        Ok(StepOutcome {
            loss_bits: report.loss.to_bits(),
            evals: report.evals,
        })
    }

    fn param_bits(&self) -> Vec<u64> {
        self.trainer.params().iter().map(|p| p.to_bits()).collect()
    }
}

// ---------------------------------------------------------------------------
// dense: blocks of parameters, one Adam per block

/// `blocks × 512` parameters. Each step draws `active` distinct blocks from
/// the seeded stream and applies one Adam update to each with a fresh
/// uniform gradient — layer-wise training when `active < blocks`, a dense
/// update when `active == blocks`. Untouched blocks keep every byte, so the
/// changed share of a snapshot is exactly `active / blocks`.
pub struct DenseSubject {
    params: Vec<f64>,
    opts: Vec<Adam>,
    rng: Xoshiro256,
    step: u64,
    active: usize,
    order: Vec<usize>,
    grad: Vec<f64>,
}

impl DenseSubject {
    pub fn new(blocks: usize, active: usize, seed: u64) -> Self {
        assert!(blocks > 0 && (1..=blocks).contains(&active));
        let mut rng = Xoshiro256::seed_from(seed);
        let mut params = init_params(blocks * BLOCK_PARAMS, &mut rng);
        // One zero-gradient update sizes every block's moment vectors (and
        // leaves the parameters untouched), so the snapshot has its final
        // size from step 1 whichever blocks the seed happens to pick first.
        let zero = vec![0.0; BLOCK_PARAMS];
        let opts = params
            .chunks_mut(BLOCK_PARAMS)
            .map(|block| {
                let mut adam = Adam::new(0.01);
                adam.step(block, &zero);
                adam
            })
            .collect();
        DenseSubject {
            params,
            opts,
            rng,
            step: 0,
            active,
            order: (0..blocks).collect(),
            grad: zero,
        }
    }
}

impl Checkpointable for DenseSubject {
    fn capture(&self) -> TrainingSnapshot {
        let mut snap = TrainingSnapshot::new("qbench-dense");
        snap.step = self.step;
        snap.params = self.params.clone();
        let mut blob = Encoder::with_capacity(self.params.len() * 16 + self.opts.len() * 80);
        for adam in &self.opts {
            blob.put_bytes(&adam.state_blob().data);
        }
        snap.optimizer = StateBlob::new(DENSE_TAG, blob.into_bytes());
        snap.rng_streams
            .insert(GRAD_STREAM.into(), RngCapture(self.rng.state().to_bytes()));
        snap
    }

    fn restore(&mut self, snapshot: &TrainingSnapshot) -> Result<(), String> {
        if snapshot.params.len() != self.params.len() {
            return Err(format!(
                "parameter count mismatch: snapshot {}, subject {}",
                snapshot.params.len(),
                self.params.len()
            ));
        }
        if snapshot.optimizer.tag != DENSE_TAG {
            return Err(format!("optimizer tag '{}'", snapshot.optimizer.tag));
        }
        let mut d = Decoder::new(&snapshot.optimizer.data, "qbench dense optimizer");
        let mut opts = Vec::with_capacity(self.opts.len());
        for _ in 0..self.opts.len() {
            let data = d.get_bytes().map_err(|e| e.to_string())?;
            let mut adam = Adam::new(0.0);
            adam.restore_blob(&StateBlob::new(adam.name(), data))?;
            opts.push(adam);
        }
        d.finish().map_err(|e| e.to_string())?;
        let rng = snapshot
            .rng_streams
            .get(GRAD_STREAM)
            .and_then(|c| RngState::from_bytes(&c.0))
            .ok_or("snapshot missing the 'grad' rng stream")?;
        self.params.clone_from(&snapshot.params);
        self.opts = opts;
        self.rng = Xoshiro256::from_state(rng);
        self.step = snapshot.step;
        Ok(())
    }
}

impl Subject for DenseSubject {
    fn step(&mut self, tracer: &Tracer) -> Result<StepOutcome, String> {
        let blocks = self.opts.len();
        if self.active < blocks {
            // Partial Fisher–Yates over the identity order: the first
            // `active` entries are a uniform draw of distinct blocks.
            for (i, slot) in self.order.iter_mut().enumerate() {
                *slot = i;
            }
            for i in 0..self.active {
                let j = i + self.rng.next_below((blocks - i) as u64) as usize;
                self.order.swap(i, j);
            }
        }
        let mut checksum = 0.0f64;
        for k in 0..self.active {
            let b = self.order[k];
            for g in &mut self.grad {
                *g = self.rng.uniform(-1.0, 1.0);
            }
            let block = &mut self.params[b * BLOCK_PARAMS..(b + 1) * BLOCK_PARAMS];
            tracer.time("Optimizer::step", || self.opts[b].step(block, &self.grad));
            checksum += block[0];
        }
        self.step += 1;
        Ok(StepOutcome {
            loss_bits: checksum.to_bits(),
            evals: 0,
        })
    }

    fn param_bits(&self) -> Vec<u64> {
        self.params.iter().map(|p| p.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sections(s: &dyn Subject) -> Vec<qcheck::snapshot::Section> {
        s.capture().to_sections()
    }

    #[test]
    fn dense_resume_is_bit_identical() {
        let off = Tracer::new(false);
        let mut a = DenseSubject::new(8, 2, 11);
        for _ in 0..5 {
            a.step(&off).unwrap();
        }
        let snap = a.capture();
        let mut b = DenseSubject::new(8, 2, 999);
        b.restore(&snap).unwrap();
        assert_eq!(sections(&a), sections(&b));
        for _ in 0..3 {
            assert_eq!(a.step(&off).unwrap(), b.step(&off).unwrap());
        }
        assert_eq!(a.param_bits(), b.param_bits());
    }

    #[test]
    fn dense_sparse_step_changes_only_the_active_blocks() {
        let off = Tracer::new(false);
        let mut s = DenseSubject::new(16, 1, 5);
        let size0 = s.capture().payload_bytes();
        let before = s.param_bits();
        s.step(&off).unwrap();
        let after = s.param_bits();
        let changed: Vec<usize> = (0..16)
            .filter(|b| {
                before[b * BLOCK_PARAMS..(b + 1) * BLOCK_PARAMS]
                    != after[b * BLOCK_PARAMS..(b + 1) * BLOCK_PARAMS]
            })
            .collect();
        assert_eq!(changed.len(), 1);
        // The snapshot has its final size before the first real step.
        assert_eq!(s.capture().payload_bytes(), size0);
    }

    #[test]
    fn sim_resume_is_bit_identical() {
        let off = Tracer::new(false);
        let mut a = SimSubject::new(3, 1, 7).unwrap();
        a.step(&off).unwrap();
        let snap = a.capture();
        let mut b = SimSubject::new(3, 1, 7).unwrap();
        b.restore(&snap).unwrap();
        let (x, y) = (a.step(&off).unwrap(), b.step(&off).unwrap());
        assert_eq!(x, y);
        assert_eq!(a.param_bits(), b.param_bits());
    }
}

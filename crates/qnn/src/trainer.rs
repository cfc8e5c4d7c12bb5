//! The hybrid training loop.
//!
//! [`Trainer`] owns everything the paper's state-inventory table lists:
//! parameters, optimizer, two named RNG streams (`shots` for measurement
//! sampling, `data` for batch order and SPSA directions), the dataset
//! cursor, the shot ledger and the metrics tail. It implements
//! [`Checkpointable`], and its contract is the strong one: restoring a
//! capture makes the *future trajectory bitwise identical* to a run that
//! never stopped — the property experiment R-T2 verifies and that
//! params-only resumes break.

use std::time::Instant;

use qcheck::snapshot::{Checkpointable, DatasetCursor, MetricPoint, RngCapture, TrainingSnapshot};
use qsim::circuit::{Circuit, CircuitError, ParamRef};
use qsim::measure::{evaluate_observable, EvalMode};
use qsim::pauli::PauliSum;
use qsim::plan::{BoundPlan, ExecPlan, PrefixCursor};
use qsim::rng::{RngState, Xoshiro256};
use qsim::state::{StateError, StateVector};

use crate::dataset::{Labeled, StatePairs};
use crate::encode::FeatureMap;
use crate::gradient::{
    finite_diff_gradient, finite_diff_gradient_parallel, parameter_shift_gradient, spsa_gradient,
    GradientMethod, ShiftSite,
};
use crate::ledger::ShotLedger;
use crate::optimizer::Optimizer;

/// Training-loop errors.
#[derive(Debug)]
pub enum TrainError {
    /// Circuit execution failure.
    Circuit(CircuitError),
    /// State-vector failure.
    State(StateError),
    /// Configuration the trainer cannot run.
    Unsupported(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Circuit(e) => write!(f, "circuit error: {e}"),
            TrainError::State(e) => write!(f, "state error: {e}"),
            TrainError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Loss of `task` on `batch` over a bound plan, returning `(loss, shots)`
/// — the full-run body behind [`Trainer::loss_at`] and
/// [`Trainer::exact_loss`]. It takes the task rather than the (non-`Sync`)
/// trainer and binds nothing: the caller binds once per *loss call* and
/// the batch loop only varies the input state.
///
/// In [`EvalMode::Exact`] nothing is drawn from `rng`.
fn task_loss(
    bound: &BoundPlan<'_>,
    task: &Task,
    batch: &[usize],
    mode: EvalMode,
    rng: &mut Xoshiro256,
) -> Result<(f64, u64), TrainError> {
    batch_loss(task, batch, |j| {
        let mut state = task.input_state(batch, j, bound.num_qubits())?;
        bound.run_on(&mut state)?;
        task.entry_loss(batch, j, &state, mode, rng)
    })
}

/// The one per-task reduction of a loss call: `entry(j)` is the loss term
/// and shots of batch entry `j` ([`Task::entry_loss`] of its output
/// state), asked for in batch order. A VQE loss is its one term; the
/// batch tasks average theirs.
fn batch_loss(
    task: &Task,
    batch: &[usize],
    mut entry: impl FnMut(usize) -> Result<(f64, u64), TrainError>,
) -> Result<(f64, u64), TrainError> {
    if let Task::Vqe { .. } = task {
        return entry(0);
    }
    let mut acc = 0.0;
    let mut shots_total = 0u64;
    for j in 0..batch.len() {
        let (term, shots) = entry(j)?;
        acc += term;
        shots_total += shots;
    }
    let mean = acc / batch.len() as f64;
    match task {
        Task::StateLearning { .. } => Ok((1.0 - mean, shots_total)),
        _ => Ok((mean, shots_total)),
    }
}

/// Atoms a resumed gradient evaluation did not run: the prefix its binding
/// shares with the unshifted one ([`PrefixCursor::resume`]'s count).
static OBS_ATOMS_SKIPPED: qobs::LazyCounter =
    qobs::LazyCounter::new("qnn_gradient_atoms_skipped_total");

/// The per-worker scratch of an exact gradient fan-out (both
/// [`parameter_shift_gradient`] and [`finite_diff_gradient_parallel`]):
/// each evaluation rebinds `eval`, and every input state resumes from the
/// atoms `eval` shares with the unshifted binding instead of running the
/// whole circuit. The gradient is bit-identical to full runs: the same
/// gates run on every amplitude in the same order.
struct ResumeScratch<'a, 'p> {
    /// The unshifted binding, shared by every worker; the cursors walk it.
    base: &'a BoundPlan<'p>,
    /// The evaluation's binding, rebound in place per evaluation.
    eval: BoundPlan<'p>,
    /// One cursor per input state of the loss body: one for VQE, one per
    /// batch entry otherwise.
    cursors: Vec<PrefixCursor>,
    /// Where an evaluation's remaining atoms run.
    work: StateVector,
}

impl<'a, 'p> ResumeScratch<'a, 'p> {
    fn new(plan: &'p ExecPlan, base: &'a BoundPlan<'p>, task: &Task, batch: &[usize]) -> Self {
        ResumeScratch {
            base,
            eval: plan.bind_scratch(),
            cursors: (0..task.evals_per_loss(batch))
                .map(|_| PrefixCursor::new())
                .collect(),
            work: StateVector::zero_state(plan.num_qubits()),
        }
    }

    /// The exact loss of `task` on `batch` under `self.eval`.
    fn loss(&mut self, task: &Task, batch: &[usize]) -> Result<f64, TrainError> {
        let ResumeScratch {
            base,
            eval,
            cursors,
            work,
        } = self;
        let mut unused = Xoshiro256::seed_from(0);
        let (loss, _) = batch_loss(task, batch, |j| {
            let skipped = cursors[j].resume(base, eval, work, || {
                task.input_state(batch, j, eval.num_qubits())
            })?;
            OBS_ATOMS_SKIPPED.add(skipped as u64);
            task.entry_loss(batch, j, work, EvalMode::Exact, &mut unused)
        })?;
        Ok(loss)
    }
}

impl From<CircuitError> for TrainError {
    fn from(e: CircuitError) -> Self {
        TrainError::Circuit(e)
    }
}

impl From<StateError> for TrainError {
    fn from(e: StateError) -> Self {
        TrainError::State(e)
    }
}

/// What the model is being trained to do.
#[derive(Clone, Debug)]
pub enum Task {
    /// Minimize `⟨ψ(θ)|H|ψ(θ)⟩` (variational eigensolver).
    Vqe {
        /// The Hamiltonian.
        hamiltonian: PauliSum,
    },
    /// Learn an unknown unitary from input/target state pairs
    /// (loss = 1 − mean fidelity). In shot mode, fidelities are estimated
    /// with the destructive SWAP test, exactly as on hardware.
    StateLearning {
        /// The training pairs.
        data: StatePairs,
    },
    /// Supervised regression/classification of classical features through a
    /// feature map (loss = mini-batch MSE against labels in `[-1, 1]`).
    Classification {
        /// The dataset.
        data: Labeled,
        /// Feature encoding.
        feature_map: FeatureMap,
        /// Readout observable.
        observable: PauliSum,
        /// Mini-batch size.
        batch_size: usize,
    },
}

impl Task {
    fn dataset_len(&self) -> usize {
        match self {
            Task::Vqe { .. } => 0,
            Task::StateLearning { data } => data.len(),
            Task::Classification { data, .. } => data.len(),
        }
    }

    /// Observable evaluations one loss call on `batch` consumes: one per
    /// input state the circuit runs on.
    fn evals_per_loss(&self, batch: &[usize]) -> u32 {
        match self {
            Task::Vqe { .. } => 1,
            _ => batch.len() as u32,
        }
    }

    /// The input state of batch entry `j` of a loss call: `|0…0⟩` for VQE
    /// (its one entry), the pair's input for state learning, the encoded
    /// features for classification.
    fn input_state(
        &self,
        batch: &[usize],
        j: usize,
        num_qubits: usize,
    ) -> Result<StateVector, TrainError> {
        match self {
            Task::Vqe { .. } => Ok(StateVector::zero_state(num_qubits)),
            Task::StateLearning { data } => Ok(data.inputs[batch[j]].clone()),
            Task::Classification {
                data, feature_map, ..
            } => {
                let mut state = StateVector::zero_state(num_qubits);
                feature_map.encode_onto(&mut state, &data.features[batch[j]])?;
                Ok(state)
            }
        }
    }

    /// The loss term and shots of batch entry `j`, whose circuit output is
    /// `state`: the energy (VQE), the fidelity to the pair's target (the
    /// SWAP test in shot mode), or the squared error against the label.
    fn entry_loss(
        &self,
        batch: &[usize],
        j: usize,
        state: &StateVector,
        mode: EvalMode,
        rng: &mut Xoshiro256,
    ) -> Result<(f64, u64), TrainError> {
        match self {
            Task::Vqe { hamiltonian } => Ok(evaluate_observable(state, hamiltonian, mode, rng)?),
            Task::StateLearning { data } => {
                let target = &data.targets[batch[j]];
                match mode {
                    EvalMode::Exact => Ok((state.fidelity(target)?, 0)),
                    EvalMode::Shots(shots) => Ok((
                        qsim::measure::swap_test_fidelity(state, target, shots, rng)?,
                        shots as u64,
                    )),
                }
            }
            Task::Classification {
                data, observable, ..
            } => {
                let (pred, shots) = evaluate_observable(state, observable, mode, rng)?;
                let err = pred - data.labels[batch[j]];
                Ok((err * err, shots))
            }
        }
    }

    /// Short task name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Task::Vqe { .. } => "vqe",
            Task::StateLearning { .. } => "state-learning",
            Task::Classification { .. } => "classification",
        }
    }
}

/// Static configuration of a training run.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Run label recorded in checkpoints.
    pub label: String,
    /// Exact or shot-based evaluation.
    pub eval_mode: EvalMode,
    /// Gradient estimator.
    pub gradient: GradientMethod,
    /// Master seed; the `shots` and `data` streams are split from it.
    pub seed: u64,
    /// Metric-tail capacity kept in memory and checkpoints.
    pub metrics_capacity: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            label: "qnn-run".into(),
            eval_mode: EvalMode::Exact,
            gradient: GradientMethod::ParameterShift,
            seed: 0,
            metrics_capacity: 256,
        }
    }
}

/// Per-step outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepReport {
    /// Step index after the update (1-based).
    pub step: u64,
    /// Loss evaluated *before* the update, on the step's batch.
    pub loss: f64,
    /// L2 norm of the gradient used.
    pub grad_norm: f64,
    /// Observable evaluations consumed by the step.
    pub evals: u32,
    /// Shots consumed by the step.
    pub shots: u64,
}

/// The hybrid quantum-classical training loop.
#[derive(Debug)]
pub struct Trainer {
    circuit: Circuit,
    /// Execution plan compiled once from `circuit` at construction and
    /// reused for every evaluation the trainer ever makes.
    plan: ExecPlan,
    task: Task,
    optimizer: Box<dyn Optimizer>,
    params: Vec<f64>,
    config: TrainerConfig,
    shots_rng: Xoshiro256,
    data_rng: Xoshiro256,
    step: u64,
    epoch: u64,
    cursor_position: u64,
    order_seed: u64,
    order: Vec<usize>,
    ledger: ShotLedger,
    metrics: Vec<MetricPoint>,
    wall_accum_ms: u64,
    started: Instant,
}

impl Trainer {
    /// Creates a trainer with freshly initialized parameters.
    ///
    /// # Errors
    ///
    /// Rejects structurally impossible configurations: parameter-count
    /// mismatch, shot-based state-learning (fidelity is evaluated exactly in
    /// this simulator), zero batch size, or observable width mismatch.
    pub fn new(
        circuit: Circuit,
        task: Task,
        optimizer: Box<dyn Optimizer>,
        params: Vec<f64>,
        config: TrainerConfig,
    ) -> Result<Self, TrainError> {
        if params.len() < circuit.num_params() {
            return Err(TrainError::Unsupported(format!(
                "circuit references {} parameters, got {}",
                circuit.num_params(),
                params.len()
            )));
        }
        match &task {
            Task::StateLearning { data } => {
                if data.is_empty() {
                    return Err(TrainError::Unsupported("empty state-pair dataset".into()));
                }
                if data.inputs[0].num_qubits() != circuit.num_qubits() {
                    return Err(TrainError::Unsupported(format!(
                        "dataset is {}-qubit, circuit is {}-qubit",
                        data.inputs[0].num_qubits(),
                        circuit.num_qubits()
                    )));
                }
            }
            Task::Classification {
                data,
                batch_size,
                observable,
                ..
            } => {
                if *batch_size == 0 {
                    return Err(TrainError::Unsupported(
                        "batch size must be positive".into(),
                    ));
                }
                if data.is_empty() {
                    return Err(TrainError::Unsupported("empty labeled dataset".into()));
                }
                if observable.num_qubits() != circuit.num_qubits() {
                    return Err(TrainError::Unsupported(
                        "observable width does not match circuit".into(),
                    ));
                }
            }
            Task::Vqe { hamiltonian } => {
                if hamiltonian.num_qubits() != circuit.num_qubits() {
                    return Err(TrainError::Unsupported(
                        "hamiltonian width does not match circuit".into(),
                    ));
                }
            }
        }
        let mut master = Xoshiro256::seed_from(config.seed);
        let shots_rng = master.split();
        let mut data_rng = master.split();
        let order_seed = data_rng.next_u64();
        let plan = circuit.compile()?;
        let mut trainer = Trainer {
            circuit,
            plan,
            task,
            optimizer,
            params,
            config,
            shots_rng,
            data_rng,
            step: 0,
            epoch: 0,
            cursor_position: 0,
            order_seed,
            order: Vec::new(),
            ledger: ShotLedger::new(),
            metrics: Vec::new(),
            wall_accum_ms: 0,
            started: Instant::now(),
        };
        trainer.rebuild_order();
        Ok(trainer)
    }

    /// Current parameters.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Completed epochs (classification only; 0 otherwise).
    pub fn epoch_count(&self) -> u64 {
        self.epoch
    }

    /// The shot ledger.
    pub fn ledger(&self) -> &ShotLedger {
        &self.ledger
    }

    /// Recent metrics (bounded tail).
    pub fn metrics(&self) -> &[MetricPoint] {
        &self.metrics
    }

    /// The task being trained.
    pub fn task(&self) -> &Task {
        &self.task
    }

    /// The variational circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The run configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    fn rebuild_order(&mut self) {
        let len = self.task.dataset_len();
        self.order = (0..len).collect();
        if len > 1 {
            let mut order_rng = Xoshiro256::seed_from(self.order_seed);
            order_rng.shuffle(&mut self.order);
        }
    }

    /// Selects the batch for the next step, advancing the cursor.
    fn next_batch(&mut self) -> Vec<usize> {
        let (len, batch_size) = match &self.task {
            Task::Vqe { .. } => return Vec::new(),
            Task::StateLearning { data } => return (0..data.len()).collect(),
            Task::Classification {
                data, batch_size, ..
            } => (data.len(), *batch_size),
        };
        if self.cursor_position as usize >= len {
            self.epoch += 1;
            self.cursor_position = 0;
            self.order_seed = self.data_rng.next_u64();
            self.rebuild_order();
        }
        let start = self.cursor_position as usize;
        let end = (start + batch_size).min(len);
        self.cursor_position = end as u64;
        self.order[start..end].to_vec()
    }

    /// Evaluates the loss on a batch at given parameters.
    ///
    /// `op_shift` offsets one op's angle (parameter-shift internals).
    /// Returns `(loss, evals, shots)`.
    fn loss_at(
        &mut self,
        params: &[f64],
        batch: &[usize],
        op_shift: Option<(usize, f64)>,
    ) -> Result<(f64, u32, u64), TrainError> {
        let mut bound = self.plan.bind_scratch();
        match op_shift {
            Some((op, delta)) => bound.rebind_shifted(params, op, delta)?,
            None => bound.rebind(params)?,
        }
        let (loss, shots) = task_loss(
            &bound,
            &self.task,
            batch,
            self.config.eval_mode,
            &mut self.shots_rng,
        )?;
        Ok((loss, self.task.evals_per_loss(batch), shots))
    }

    /// Per-example prediction with optional op shift (classification chain
    /// rule). Returns `(prediction, shots)`.
    fn prediction_at(
        &mut self,
        params: &[f64],
        example: usize,
        op_shift: Option<(usize, f64)>,
    ) -> Result<(f64, u64), TrainError> {
        let mode = self.config.eval_mode;
        match &self.task {
            Task::Classification {
                data,
                feature_map,
                observable,
                ..
            } => {
                let mut state = StateVector::zero_state(self.circuit.num_qubits());
                feature_map.encode_onto(&mut state, &data.features[example])?;
                match op_shift {
                    Some((op, delta)) => self
                        .plan
                        .run_on_with_op_shift(&mut state, params, op, delta)?,
                    None => self.plan.run_on(&mut state, params)?,
                }
                let (pred, shots) =
                    evaluate_observable(&state, observable, mode, &mut self.shots_rng)?;
                Ok((pred, shots))
            }
            _ => Err(TrainError::Unsupported(
                "prediction_at is a classification internal".into(),
            )),
        }
    }

    /// Every parametrized op occurrence, in op order.
    fn shift_sites(&self) -> Vec<ShiftSite> {
        self.circuit
            .ops()
            .iter()
            .enumerate()
            .filter_map(|(op_index, op)| match op.param {
                Some(ParamRef::Sym { index, scale }) => Some(ShiftSite {
                    op_index,
                    param_index: index,
                    scale,
                }),
                _ => None,
            })
            .collect()
    }

    /// Computes the gradient on a batch. Returns `(grad, evals, shots)`.
    ///
    /// Exact evaluations draw no RNG, so they always go through the
    /// fan-out driver of [`crate::gradient`] (inline at one thread, one
    /// [`ResumeScratch`] per worker: each evaluation resumes from the
    /// atoms it shares with the unshifted binding) and are bit-identical
    /// at every thread count; shot-mode evaluations and classification's
    /// chain-rule loop keep the serial full runs their draw order
    /// requires.
    fn gradient(&mut self, batch: &[usize]) -> Result<(Vec<f64>, u32, u64), TrainError> {
        let _span = qobs::span("qnn.gradient");
        const SHIFT: f64 = std::f64::consts::FRAC_PI_2;
        let params = self.params.clone();
        let exact = self.config.eval_mode == EvalMode::Exact;
        match self.config.gradient {
            GradientMethod::ParameterShift => {
                let sites = self.shift_sites();
                match &self.task {
                    Task::Classification { data, .. } => {
                        // Chain rule: dL/dθ = (2/B) Σ_x (p_x − y_x) · dp_x/dθ.
                        let mut grad = vec![0.0; params.len()];
                        let mut evals = 0u32;
                        let mut shots = 0u64;
                        let labels: Vec<f64> = batch.iter().map(|&i| data.labels[i]).collect();
                        for (&example, label) in batch.iter().zip(labels) {
                            let (pred, s0) = self.prediction_at(&params, example, None)?;
                            shots += s0;
                            evals += 1;
                            let residual = 2.0 * (pred - label) / batch.len() as f64;
                            for site in &sites {
                                let op = site.op_index;
                                let (plus, s1) =
                                    self.prediction_at(&params, example, Some((op, SHIFT)))?;
                                let (minus, s2) =
                                    self.prediction_at(&params, example, Some((op, -SHIFT)))?;
                                shots += s1 + s2;
                                evals += 2;
                                grad[site.param_index] +=
                                    residual * site.scale * (plus - minus) / 2.0;
                            }
                        }
                        Ok((grad, evals, shots))
                    }
                    task if exact => {
                        let plan = &self.plan;
                        let base = plan.bind(&params)?;
                        let grad = parameter_shift_gradient(
                            params.len(),
                            &sites,
                            SHIFT,
                            || ResumeScratch::new(plan, &base, task, batch),
                            |scratch, op, delta| {
                                scratch.eval.rebind_shifted(&params, op, delta)?;
                                scratch.loss(task, batch)
                            },
                        )?;
                        let evals = 2 * sites.len() as u32 * task.evals_per_loss(batch);
                        Ok((grad, evals, 0))
                    }
                    _ => {
                        // Direct rule on the (expectation-shaped) loss.
                        let mut grad = vec![0.0; params.len()];
                        let mut evals = 0u32;
                        let mut shots = 0u64;
                        for site in &sites {
                            let op = site.op_index;
                            let (plus, e1, s1) = self.loss_at(&params, batch, Some((op, SHIFT)))?;
                            let (minus, e2, s2) =
                                self.loss_at(&params, batch, Some((op, -SHIFT)))?;
                            evals += e1 + e2;
                            shots += s1 + s2;
                            grad[site.param_index] += site.scale * (plus - minus) / 2.0;
                        }
                        Ok((grad, evals, shots))
                    }
                }
            }
            GradientMethod::FiniteDiff { eps } if exact => {
                let (plan, task) = (&self.plan, &self.task);
                let base = plan.bind(&params)?;
                let grad = finite_diff_gradient_parallel(
                    &params,
                    eps,
                    || ResumeScratch::new(plan, &base, task, batch),
                    |scratch, p| {
                        scratch.eval.rebind(p)?;
                        scratch.loss(task, batch)
                    },
                )?;
                let evals = 2 * params.len() as u32 * task.evals_per_loss(batch);
                Ok((grad, evals, 0))
            }
            GradientMethod::FiniteDiff { eps } => {
                let mut evals = 0u32;
                let mut shots = 0u64;
                let grad = finite_diff_gradient(&params, eps, |p| {
                    let (l, e, s) = self.loss_at(p, batch, None)?;
                    evals += e;
                    shots += s;
                    Ok::<f64, TrainError>(l)
                })?;
                Ok((grad, evals, shots))
            }
            GradientMethod::Spsa { c } => {
                let mut evals = 0u32;
                let mut shots = 0u64;
                // Temporarily take the data stream to avoid aliasing self.
                let mut rng = std::mem::replace(&mut self.data_rng, Xoshiro256::seed_from(0));
                let result = spsa_gradient(&params, c, &mut rng, |p| {
                    let (l, e, s) = self.loss_at(p, batch, None)?;
                    evals += e;
                    shots += s;
                    Ok::<f64, TrainError>(l)
                });
                self.data_rng = rng;
                Ok((result?, evals, shots))
            }
        }
    }

    /// Runs one optimizer step. Returns the step report.
    ///
    /// # Errors
    ///
    /// Propagates circuit/state failures.
    pub fn train_step(&mut self) -> Result<StepReport, TrainError> {
        let _span = qobs::span("qnn.step");
        let batch = self.next_batch();
        let (loss, loss_evals, loss_shots) = self.loss_at(&self.params.clone(), &batch, None)?;
        let (grad, grad_evals, grad_shots) = self.gradient(&batch)?;
        self.optimizer.step(&mut self.params, &grad);
        self.step += 1;
        let evals = loss_evals + grad_evals;
        let shots = loss_shots + grad_shots;
        self.ledger.record(self.step, evals, shots);
        self.metrics.push(MetricPoint {
            step: self.step,
            value: loss,
        });
        if self.metrics.len() > self.config.metrics_capacity {
            let excess = self.metrics.len() - self.config.metrics_capacity;
            self.metrics.drain(..excess);
        }
        let grad_norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        Ok(StepReport {
            step: self.step,
            loss,
            grad_norm,
            evals,
            shots,
        })
    }

    /// Runs `n` steps, returning every report.
    ///
    /// # Errors
    ///
    /// Stops at the first failing step.
    pub fn train_steps(&mut self, n: usize) -> Result<Vec<StepReport>, TrainError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.train_step()?);
        }
        Ok(out)
    }

    /// Exact (noise-free, shot-free) loss over the full dataset at the
    /// current parameters. Does not touch the RNG streams, so it is safe to
    /// call between steps without perturbing resume exactness.
    ///
    /// # Errors
    ///
    /// Propagates circuit/state failures.
    pub fn exact_loss(&self) -> Result<f64, TrainError> {
        let all: Vec<usize> = (0..self.task.dataset_len()).collect();
        // Exact mode reads nothing from the stream it is handed.
        let (loss, _) = task_loss(
            &self.plan.bind(&self.params)?,
            &self.task,
            &all,
            EvalMode::Exact,
            &mut Xoshiro256::seed_from(0),
        )?;
        Ok(loss)
    }
}

impl Checkpointable for Trainer {
    fn capture(&self) -> TrainingSnapshot {
        let mut snap = TrainingSnapshot::new(self.config.label.clone());
        snap.step = self.step;
        snap.epoch = self.epoch;
        snap.wall_time_ms = self.wall_accum_ms + self.started.elapsed().as_millis() as u64;
        snap.params = self.params.clone();
        snap.optimizer = self.optimizer.state_blob();
        snap.rng_streams.insert(
            "shots".into(),
            RngCapture(self.shots_rng.state().to_bytes()),
        );
        snap.rng_streams
            .insert("data".into(), RngCapture(self.data_rng.state().to_bytes()));
        snap.cursor = DatasetCursor {
            epoch: self.epoch,
            position: self.cursor_position,
            order_seed: self.order_seed,
        };
        snap.total_shots = self.ledger.total_shots();
        snap.shot_ledger = self.ledger.to_bytes();
        snap.metrics = self.metrics.clone();
        snap
    }

    fn restore(&mut self, snapshot: &TrainingSnapshot) -> Result<(), String> {
        if snapshot.params.len() != self.params.len() {
            return Err(format!(
                "parameter count mismatch: snapshot {}, trainer {}",
                snapshot.params.len(),
                self.params.len()
            ));
        }
        self.optimizer.restore_blob(&snapshot.optimizer)?;
        let shots = snapshot
            .rng_streams
            .get("shots")
            .ok_or("snapshot missing 'shots' rng stream")?;
        let data = snapshot
            .rng_streams
            .get("data")
            .ok_or("snapshot missing 'data' rng stream")?;
        let shots_state = RngState::from_bytes(&shots.0).ok_or("malformed 'shots' rng state")?;
        let data_state = RngState::from_bytes(&data.0).ok_or("malformed 'data' rng state")?;
        let ledger = ShotLedger::from_bytes(&snapshot.shot_ledger)?;

        self.params = snapshot.params.clone();
        self.shots_rng = Xoshiro256::from_state(shots_state);
        self.data_rng = Xoshiro256::from_state(data_state);
        self.step = snapshot.step;
        self.epoch = snapshot.cursor.epoch;
        self.cursor_position = snapshot.cursor.position;
        self.order_seed = snapshot.cursor.order_seed;
        self.rebuild_order();
        self.ledger = ledger;
        self.metrics = snapshot.metrics.clone();
        self.wall_accum_ms = snapshot.wall_time_ms;
        self.started = Instant::now();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{hardware_efficient, init_params};
    use crate::dataset;
    use crate::optimizer::{Adam, Sgd};

    fn vqe_trainer(seed: u64, mode: EvalMode) -> Trainer {
        let (circuit, info) = hardware_efficient(3, 1);
        let mut rng = Xoshiro256::seed_from(seed);
        let params = init_params(info.num_params, &mut rng);
        Trainer::new(
            circuit,
            Task::Vqe {
                hamiltonian: PauliSum::transverse_ising(3, 1.0, 0.7),
            },
            Box::new(Adam::new(0.05)),
            params,
            TrainerConfig {
                label: "vqe-test".into(),
                eval_mode: mode,
                gradient: GradientMethod::ParameterShift,
                seed,
                metrics_capacity: 64,
            },
        )
        .unwrap()
    }

    #[test]
    fn vqe_exact_training_descends() {
        let mut t = vqe_trainer(1, EvalMode::Exact);
        let before = t.exact_loss().unwrap();
        for _ in 0..30 {
            t.train_step().unwrap();
        }
        let after = t.exact_loss().unwrap();
        assert!(after < before - 0.1, "no descent: {before} → {after}");
        assert_eq!(t.step_count(), 30);
        // Exact mode consumes no shots.
        assert_eq!(t.ledger().total_shots(), 0);
    }

    #[test]
    fn vqe_energy_approaches_ground_state() {
        // 2-qubit TFIM (J=g=1): ground energy = -√(J²+g²)·... — compute by
        // brute force over the Hamiltonian matrix instead: use the known
        // value for n=2, J=1, g=1: E0 = -2.23606797749979 (−√5).
        let (circuit, info) = hardware_efficient(2, 2);
        let mut rng = Xoshiro256::seed_from(7);
        let params = init_params(info.num_params, &mut rng);
        let mut t = Trainer::new(
            circuit,
            Task::Vqe {
                hamiltonian: PauliSum::transverse_ising(2, 1.0, 1.0),
            },
            Box::new(Adam::new(0.08)),
            params,
            TrainerConfig::default(),
        )
        .unwrap();
        for _ in 0..200 {
            t.train_step().unwrap();
        }
        let e = t.exact_loss().unwrap();
        assert!(
            (e - (-(5.0f64).sqrt())).abs() < 0.05,
            "VQE energy {e} far from ground {}",
            -(5.0f64).sqrt()
        );
    }

    #[test]
    fn shot_mode_consumes_and_records_shots() {
        let mut t = vqe_trainer(2, EvalMode::Shots(64));
        let r = t.train_step().unwrap();
        assert!(r.shots > 0);
        assert_eq!(t.ledger().total_shots(), r.shots);
        assert_eq!(t.ledger().len(), 1);
        assert!(r.evals > 1);
    }

    #[test]
    fn exact_resume_is_bitwise_identical() {
        // The headline property: capture at step 5, run to 10; restore the
        // capture into a fresh trainer and run 5 steps; trajectories match
        // bit for bit, shot noise included.
        let mut a = vqe_trainer(3, EvalMode::Shots(32));
        for _ in 0..5 {
            a.train_step().unwrap();
        }
        let snap = a.capture();
        let tail_a: Vec<StepReport> = a.train_steps(5).unwrap();

        let mut b = vqe_trainer(3, EvalMode::Shots(32));
        b.restore(&snap).unwrap();
        let tail_b: Vec<StepReport> = b.train_steps(5).unwrap();

        for (ra, rb) in tail_a.iter().zip(&tail_b) {
            assert_eq!(ra.step, rb.step);
            assert_eq!(ra.loss.to_bits(), rb.loss.to_bits(), "loss diverged");
            assert_eq!(ra.shots, rb.shots);
        }
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.to_bits(), pb.to_bits(), "params diverged");
        }
        assert_eq!(a.ledger().total_shots(), b.ledger().total_shots());
    }

    #[test]
    fn params_only_resume_diverges_under_shot_noise() {
        // The failure mode the paper warns about: restoring only parameters
        // (fresh RNG) changes the shot-noise stream and the trajectory.
        let mut a = vqe_trainer(4, EvalMode::Shots(32));
        for _ in 0..5 {
            a.train_step().unwrap();
        }
        let snap = a.capture();
        let tail_a = a.train_steps(5).unwrap();

        let mut b = vqe_trainer(4, EvalMode::Shots(32));
        // Partial restore: params only.
        let mut partial = b.capture();
        partial.params = snap.params.clone();
        partial.step = snap.step;
        b.restore(&partial).unwrap();
        let tail_b = b.train_steps(5).unwrap();

        let diverged = tail_a
            .iter()
            .zip(&tail_b)
            .any(|(ra, rb)| ra.loss.to_bits() != rb.loss.to_bits());
        assert!(
            diverged,
            "params-only resume should diverge under shot noise"
        );
    }

    #[test]
    fn state_learning_improves_fidelity() {
        let mut rng = Xoshiro256::seed_from(5);
        let (pairs, _) = dataset::unitary_learning(2, 6, 1, &mut rng);
        let (circuit, info) = hardware_efficient(2, 2);
        let params = init_params(info.num_params, &mut rng);
        let mut t = Trainer::new(
            circuit,
            Task::StateLearning { data: pairs },
            Box::new(Adam::new(0.1)),
            params,
            TrainerConfig::default(),
        )
        .unwrap();
        let before = t.exact_loss().unwrap();
        for _ in 0..60 {
            t.train_step().unwrap();
        }
        let after = t.exact_loss().unwrap();
        assert!(after < before * 0.5, "fidelity loss {before} → {after}");
    }

    #[test]
    fn state_learning_shot_mode_uses_swap_test_and_resumes_exactly() {
        let mut rng = Xoshiro256::seed_from(6);
        let (pairs, _) = dataset::unitary_learning(2, 4, 1, &mut rng);
        let build = |pairs: crate::dataset::StatePairs| {
            let (circuit, info) = hardware_efficient(2, 1);
            let mut prng = Xoshiro256::seed_from(61);
            Trainer::new(
                circuit,
                Task::StateLearning { data: pairs },
                Box::new(Sgd::new(0.05)),
                init_params(info.num_params, &mut prng),
                TrainerConfig {
                    eval_mode: EvalMode::Shots(64),
                    seed: 61,
                    ..TrainerConfig::default()
                },
            )
            .unwrap()
        };
        let mut a = build(pairs.clone());
        let r = a.train_step().unwrap();
        assert!(r.shots > 0, "swap test must consume shots");
        let snap = a.capture();
        let tail: Vec<u64> = a
            .train_steps(3)
            .unwrap()
            .iter()
            .map(|s| s.loss.to_bits())
            .collect();
        let mut b = build(pairs);
        b.restore(&snap).unwrap();
        let replay: Vec<u64> = b
            .train_steps(3)
            .unwrap()
            .iter()
            .map(|s| s.loss.to_bits())
            .collect();
        assert_eq!(tail, replay, "swap-test stream must resume exactly");
    }

    #[test]
    fn classification_batches_cycle_epochs() {
        let mut rng = Xoshiro256::seed_from(8);
        let data = dataset::blobs(2, 10, 2.0, &mut rng);
        let (circuit, info) = hardware_efficient(2, 1);
        let params = init_params(info.num_params, &mut rng);
        let mut t = Trainer::new(
            circuit,
            Task::Classification {
                data,
                feature_map: FeatureMap::Angle,
                observable: PauliSum::mean_z(2),
                batch_size: 4,
            },
            Box::new(Sgd::new(0.1)),
            params,
            TrainerConfig {
                gradient: GradientMethod::Spsa { c: 0.1 },
                ..TrainerConfig::default()
            },
        )
        .unwrap();
        // 10 examples / batch 4 → batches of 4,4,2 per epoch.
        for _ in 0..3 {
            t.train_step().unwrap();
        }
        assert_eq!(t.epoch_count(), 0);
        t.train_step().unwrap();
        assert_eq!(t.epoch_count(), 1, "fourth step rolls into epoch 1");
    }

    #[test]
    fn classification_learns_blobs() {
        let mut rng = Xoshiro256::seed_from(9);
        let data = dataset::blobs(2, 20, 2.5, &mut rng);
        let (circuit, info) = hardware_efficient(2, 2);
        let params = init_params(info.num_params, &mut rng);
        let mut t = Trainer::new(
            circuit,
            Task::Classification {
                data,
                feature_map: FeatureMap::Angle,
                observable: PauliSum::mean_z(2),
                batch_size: 20,
            },
            Box::new(Adam::new(0.1)),
            params,
            TrainerConfig::default(),
        )
        .unwrap();
        let before = t.exact_loss().unwrap();
        for _ in 0..40 {
            t.train_step().unwrap();
        }
        let after = t.exact_loss().unwrap();
        assert!(after < before * 0.6, "classification {before} → {after}");
    }

    #[test]
    fn parallel_gradients_bit_identical_across_thread_counts() {
        // Exact-mode gradients must not depend on the worker count: run the
        // same trajectory of every task × estimator under different qpar
        // overrides and compare what a step reports, what it leaves in the
        // parameters and what it books in the ledger, bit for bit. One
        // thread takes the fan-out driver inline; four really fan out.
        let build = |task_name: &str, method: GradientMethod| {
            let mut rng = Xoshiro256::seed_from(11);
            let (circuit, info) = hardware_efficient(2, 2);
            let task = match task_name {
                "vqe" => Task::Vqe {
                    hamiltonian: PauliSum::transverse_ising(2, 1.0, 0.7),
                },
                "state-learning" => Task::StateLearning {
                    data: dataset::unitary_learning(2, 5, 1, &mut rng).0,
                },
                _ => Task::Classification {
                    data: dataset::blobs(2, 10, 2.0, &mut rng),
                    feature_map: FeatureMap::Angle,
                    observable: PauliSum::mean_z(2),
                    batch_size: 4,
                },
            };
            assert_eq!(task.name(), task_name);
            let params = init_params(info.num_params, &mut rng);
            let config = TrainerConfig {
                gradient: method,
                ..TrainerConfig::default()
            };
            Trainer::new(circuit, task, Box::new(Adam::new(0.05)), params, config).unwrap()
        };
        let run_at = |threads: usize, task_name: &str, method: GradientMethod| {
            qpar::with_threads(threads, || {
                let mut t = build(task_name, method);
                let reports: Vec<(u64, u64, u32, u64)> = t
                    .train_steps(5)
                    .unwrap()
                    .iter()
                    .map(|r| (r.loss.to_bits(), r.grad_norm.to_bits(), r.evals, r.shots))
                    .collect();
                let params: Vec<u64> = t.params().iter().map(|p| p.to_bits()).collect();
                (reports, params, t.ledger().to_bytes())
            })
        };
        for task_name in ["vqe", "state-learning", "classification"] {
            for method in [
                GradientMethod::ParameterShift,
                GradientMethod::FiniteDiff { eps: 1e-5 },
            ] {
                let reference = run_at(1, task_name, method);
                assert!(reference.0.iter().all(|r| r.2 > 1 && r.3 == 0));
                assert_eq!(
                    run_at(4, task_name, method),
                    reference,
                    "{task_name} {method} x4"
                );
            }
        }
    }

    #[test]
    fn finite_diff_agrees_with_parameter_shift_exact() {
        let mut shift = vqe_trainer(10, EvalMode::Exact);
        let mut fd = vqe_trainer(10, EvalMode::Exact);
        fd.config.gradient = GradientMethod::FiniteDiff { eps: 1e-6 };
        let batch: Vec<usize> = Vec::new();
        let (g1, _, _) = shift.gradient(&batch).unwrap();
        let (g2, _, _) = fd.gradient(&batch).unwrap();
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn parameter_shift_handles_shared_parameters() {
        // QAOA ansatz shares each parameter across several ops.
        let h = PauliSum::transverse_ising(3, 1.0, 0.8);
        let (circuit, info) = crate::ansatz::qaoa_like(&h, 2);
        let mut rng = Xoshiro256::seed_from(11);
        let params = init_params(info.num_params, &mut rng);
        let mut shift = Trainer::new(
            circuit.clone(),
            Task::Vqe {
                hamiltonian: h.clone(),
            },
            Box::new(Sgd::new(0.05)),
            params.clone(),
            TrainerConfig::default(),
        )
        .unwrap();
        let mut fd = Trainer::new(
            circuit,
            Task::Vqe { hamiltonian: h },
            Box::new(Sgd::new(0.05)),
            params,
            TrainerConfig {
                gradient: GradientMethod::FiniteDiff { eps: 1e-6 },
                ..TrainerConfig::default()
            },
        )
        .unwrap();
        let (g1, _, _) = shift.gradient(&[]).unwrap();
        let (g2, _, _) = fd.gradient(&[]).unwrap();
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-4, "shared-param gradient {a} vs {b}");
        }
    }

    #[test]
    fn metrics_tail_is_bounded() {
        let mut t = vqe_trainer(12, EvalMode::Exact);
        t.config.metrics_capacity = 5;
        for _ in 0..12 {
            t.train_step().unwrap();
        }
        assert_eq!(t.metrics().len(), 5);
        assert_eq!(t.metrics().last().unwrap().step, 12);
    }

    #[test]
    fn restore_rejects_mismatched_snapshot() {
        let t = vqe_trainer(13, EvalMode::Exact);
        let mut snap = t.capture();
        snap.params.push(0.0);
        let mut t2 = vqe_trainer(13, EvalMode::Exact);
        assert!(t2.restore(&snap).unwrap_err().contains("mismatch"));
    }

    #[test]
    fn constructor_validates_widths() {
        let (circuit, info) = hardware_efficient(3, 1);
        let err = Trainer::new(
            circuit.clone(),
            Task::Vqe {
                hamiltonian: PauliSum::transverse_ising(2, 1.0, 1.0),
            },
            Box::new(Sgd::new(0.1)),
            vec![0.0; info.num_params],
            TrainerConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("width"));

        let err = Trainer::new(
            circuit,
            Task::Vqe {
                hamiltonian: PauliSum::transverse_ising(3, 1.0, 1.0),
            },
            Box::new(Sgd::new(0.1)),
            vec![0.0; 2],
            TrainerConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("parameters"));
    }

    #[test]
    fn capture_contains_full_inventory() {
        let mut t = vqe_trainer(14, EvalMode::Shots(16));
        t.train_step().unwrap();
        let snap = t.capture();
        assert_eq!(snap.step, 1);
        assert!(!snap.params.is_empty());
        assert_eq!(snap.optimizer.tag, "adam-v1");
        assert!(snap.rng_streams.contains_key("shots"));
        assert!(snap.rng_streams.contains_key("data"));
        assert!(snap.total_shots > 0);
        assert!(!snap.shot_ledger.is_empty());
        assert_eq!(snap.metrics.len(), 1);
        assert_eq!(snap.label, "vqe-test");
    }
}

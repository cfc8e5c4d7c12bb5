//! Parametrized quantum circuits.
//!
//! A [`Circuit`] is a serializable list of operations over a fixed-width
//! qubit register. Gate angles may be fixed constants or symbolic references
//! into an external parameter vector ([`ParamRef::Sym`]); binding a parameter
//! vector yields a concrete state evolution. Circuits-as-data is load-bearing
//! for the checkpointing story: the circuit itself is part of the training
//! state inventory and must round-trip byte-exactly.

use serde::{Deserialize, Serialize};

use crate::complex::Complex64;
use crate::gate::{Gate, Matrix2, Matrix4};
use crate::state::{StateError, StateVector};

/// 2×2 complex matrix product `a · b`.
pub(crate) fn mat2_mul(a: &Matrix2, b: &Matrix2) -> Matrix2 {
    let mut out = [[Complex64::ZERO; 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    out
}

/// Whether a 2×2 matrix is diagonal.
pub(crate) fn is_diag2(m: &Matrix2) -> bool {
    m[0][1] == Complex64::ZERO && m[1][0] == Complex64::ZERO
}

/// Whether a 4×4 matrix has any row with more than one non-zero entry
/// (i.e. it will take the dense kernel anyway).
pub(crate) fn is_dense4(m: &Matrix4) -> bool {
    m.iter()
        .any(|row| row.iter().filter(|c| **c != Complex64::ZERO).count() > 1)
}

/// Whether every entry of a 4×4 matrix is exactly zero or exactly one —
/// the gate is a pure amplitude permutation (`Cx`, `Swap`, `Cx·Swap`
/// products). Pending 1q factors are never folded into such gates: the
/// plan scheduler defers coefficient-free gates as composed index maps
/// (see `plan`), so both executors instead flush the pending product as
/// its own 1q sweep — identical arithmetic, and the permutation stays
/// free to fuse.
pub(crate) fn is_unit_perm4(m: &Matrix4) -> bool {
    let mut units = 0usize;
    for row in m {
        for e in row {
            if *e == Complex64::ZERO {
                continue;
            }
            if e.re != 1.0 || e.im != 0.0 {
                return false;
            }
            units += 1;
        }
    }
    // Unitary + all entries in {0, 1} forces one unit per row/column.
    units == 4
}

/// Folds a pending single-qubit matrix into a 4×4 gate matrix:
/// `m · (p on operand bit)` where `bit` is 0 for the first operand and 1
/// for the second (matching the [`crate::gate::Matrix4`] basis convention).
#[allow(clippy::needless_range_loop)] // k is a basis bit pattern, not a position
pub(crate) fn mat4_fold1q(m: &Matrix4, p: &Matrix2, bit: usize) -> Matrix4 {
    let mut out = [[Complex64::ZERO; 4]; 4];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            // kron(P on `bit`, I elsewhere)[k][j]
            let mut acc = Complex64::ZERO;
            for k in 0..4 {
                let (kb, jb) = ((k >> bit) & 1, (j >> bit) & 1);
                let other_equal = (k & !(1 << bit)) == (j & !(1 << bit));
                if other_equal {
                    acc += m[i][k] * p[kb][jb];
                }
            }
            *cell = acc;
        }
    }
    out
}

/// A gate angle: fixed, or a (possibly scaled) reference into a parameter
/// vector.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ParamRef {
    /// A constant angle baked into the circuit.
    Fixed(f64),
    /// `scale * params[index]`; the parameter-shift rule differentiates
    /// through these.
    Sym {
        /// Index into the bound parameter vector.
        index: usize,
        /// Multiplier applied to the bound value.
        scale: f64,
    },
}

impl ParamRef {
    /// A plain symbolic reference with unit scale.
    pub fn sym(index: usize) -> Self {
        ParamRef::Sym { index, scale: 1.0 }
    }

    /// Resolves the angle against a parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if a symbolic index is out of range (circuit/parameter-vector
    /// mismatch is a programming error, validated by [`Circuit::validate`]).
    pub fn resolve(&self, params: &[f64]) -> f64 {
        match *self {
            ParamRef::Fixed(v) => v,
            ParamRef::Sym { index, scale } => scale * params[index],
        }
    }
}

/// One operation in a circuit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Op {
    /// Gate kind; for parametrized gates the embedded angle is a placeholder
    /// that is overridden by `param` at execution time.
    pub gate: Gate,
    /// Operand qubits (1 or 2 entries).
    pub qubits: Vec<usize>,
    /// Angle source for parametrized gates; `None` for fixed gates.
    pub param: Option<ParamRef>,
}

/// Errors raised while validating or executing circuits.
#[derive(Clone, Debug, PartialEq)]
pub enum CircuitError {
    /// An operation refers to a qubit outside the register.
    QubitOutOfRange {
        /// Index of the offending op.
        op_index: usize,
        /// The offending qubit.
        qubit: usize,
        /// Register width.
        num_qubits: usize,
    },
    /// A symbolic parameter index is not covered by the parameter vector.
    ParamOutOfRange {
        /// Index of the offending op.
        op_index: usize,
        /// The symbolic index.
        param_index: usize,
        /// Provided parameter-vector length.
        num_params: usize,
    },
    /// Operand count does not match gate arity.
    ArityMismatch {
        /// Index of the offending op.
        op_index: usize,
        /// Expected operand count.
        expected: usize,
        /// Provided operand count.
        got: usize,
    },
    /// Underlying state error during execution.
    State(StateError),
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::QubitOutOfRange {
                op_index,
                qubit,
                num_qubits,
            } => write!(
                f,
                "op {op_index}: qubit {qubit} out of range for {num_qubits}-qubit circuit"
            ),
            CircuitError::ParamOutOfRange {
                op_index,
                param_index,
                num_params,
            } => write!(
                f,
                "op {op_index}: parameter index {param_index} out of range (have {num_params})"
            ),
            CircuitError::ArityMismatch {
                op_index,
                expected,
                got,
            } => write!(f, "op {op_index}: expected {expected} operands, got {got}"),
            CircuitError::State(e) => write!(f, "state error: {e}"),
        }
    }
}

impl std::error::Error for CircuitError {}

impl From<StateError> for CircuitError {
    fn from(e: StateError) -> Self {
        CircuitError::State(e)
    }
}

/// A serializable, parametrized quantum circuit.
///
/// # Examples
///
/// ```
/// use qsim::circuit::Circuit;
/// use qsim::gate::Gate;
///
/// let mut c = Circuit::new(2);
/// c.push_fixed(Gate::H, &[0]);
/// c.push_sym(Gate::Ry(0.0), &[1], 0); // angle = params[0]
/// c.push_fixed(Gate::Cx, &[0, 1]);
///
/// let psi = c.run(&[std::f64::consts::PI]).unwrap();
/// assert_eq!(psi.num_qubits(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Op>,
    num_params: usize,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            ops: Vec::new(),
            num_params: 0,
        }
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of distinct symbolic parameters referenced (1 + max index).
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the circuit contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation list.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Appends a fixed (non-symbolic) gate.
    pub fn push_fixed(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        self.ops.push(Op {
            gate,
            qubits: qubits.to_vec(),
            param: None,
        });
        self
    }

    /// Appends a gate whose angle is `params[param_index]`.
    pub fn push_sym(&mut self, gate: Gate, qubits: &[usize], param_index: usize) -> &mut Self {
        self.push_sym_scaled(gate, qubits, param_index, 1.0)
    }

    /// Appends a gate whose angle is `scale * params[param_index]`.
    pub fn push_sym_scaled(
        &mut self,
        gate: Gate,
        qubits: &[usize],
        param_index: usize,
        scale: f64,
    ) -> &mut Self {
        self.ops.push(Op {
            gate,
            qubits: qubits.to_vec(),
            param: Some(ParamRef::Sym {
                index: param_index,
                scale,
            }),
        });
        self.num_params = self.num_params.max(param_index + 1);
        self
    }

    /// Appends all operations of `other` (qubit indices unchanged), merging
    /// parameter spaces by offsetting `other`'s symbolic indices by
    /// `param_offset`.
    pub fn extend_offset(&mut self, other: &Circuit, param_offset: usize) {
        for op in &other.ops {
            let param = op.param.map(|p| match p {
                ParamRef::Fixed(v) => ParamRef::Fixed(v),
                ParamRef::Sym { index, scale } => ParamRef::Sym {
                    index: index + param_offset,
                    scale,
                },
            });
            self.ops.push(Op {
                gate: op.gate,
                qubits: op.qubits.clone(),
                param,
            });
        }
        self.num_params = self.num_params.max(other.num_params + param_offset);
        self.num_qubits = self.num_qubits.max(other.num_qubits);
    }

    /// Indices of ops that reference symbolic parameters, with the parameter
    /// index each one reads. Used by the parameter-shift differentiator.
    pub fn sym_ops(&self) -> Vec<(usize, usize)> {
        self.ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op.param {
                Some(ParamRef::Sym { index, .. }) => Some((i, index)),
                _ => None,
            })
            .collect()
    }

    /// Gate-count statistics: (single-qubit gates, two-qubit gates).
    pub fn gate_counts(&self) -> (usize, usize) {
        let mut one = 0;
        let mut two = 0;
        for op in &self.ops {
            match op.gate.arity() {
                1 => one += 1,
                _ => two += 1,
            }
        }
        (one, two)
    }

    /// Validates all ops against the register width and `num_params`.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found.
    pub fn validate(&self, num_params: usize) -> Result<(), CircuitError> {
        for (i, op) in self.ops.iter().enumerate() {
            let expected = op.gate.arity();
            if op.qubits.len() != expected {
                return Err(CircuitError::ArityMismatch {
                    op_index: i,
                    expected,
                    got: op.qubits.len(),
                });
            }
            for &q in &op.qubits {
                if q >= self.num_qubits {
                    return Err(CircuitError::QubitOutOfRange {
                        op_index: i,
                        qubit: q,
                        num_qubits: self.num_qubits,
                    });
                }
            }
            if let Some(ParamRef::Sym { index, .. }) = op.param {
                if index >= num_params {
                    return Err(CircuitError::ParamOutOfRange {
                        op_index: i,
                        param_index: index,
                        num_params,
                    });
                }
            }
        }
        Ok(())
    }

    /// Executes the circuit on `|0…0⟩` with the given parameter binding.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] if validation or gate application fails.
    pub fn run(&self, params: &[f64]) -> Result<StateVector, CircuitError> {
        let mut state = StateVector::zero_state(self.num_qubits);
        self.run_on(&mut state, params)?;
        Ok(state)
    }

    /// Executes the circuit on an existing state in place.
    ///
    /// Compiles and runs: compile → bind → tiled execution through
    /// [`Circuit::compile`] (see [`crate::plan`]). Loops that run the
    /// same circuit repeatedly should compile once and reuse the
    /// [`crate::plan::ExecPlan`] instead of calling this.
    ///
    /// Consecutive single-qubit gates compose into one 2×2 matrix per
    /// qubit (applied lazily), and pending diagonal factors fold into
    /// the next two-qubit gate on their wire — halving the number of
    /// full passes over the `2^n` amplitudes for rotation-layer +
    /// entangler circuits. Fusion decisions depend only on the circuit
    /// and parameters, so results are bit-identical across thread
    /// counts.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] if validation or gate application fails.
    pub fn run_on(&self, state: &mut StateVector, params: &[f64]) -> Result<(), CircuitError> {
        #[cfg(any(test, feature = "testing"))]
        if crate::plan::ExecMode::current() == crate::plan::ExecMode::Interp {
            return self.interpret_on(state, params, None);
        }
        // No separate validate: compile checks structure and bind checks
        // the parameter vector.
        self.compile()?.run_on(state, params)
    }

    /// The op-by-op reference interpreter the equivalence suites compare
    /// compiled plans against, run whatever the [`crate::plan::ExecMode`].
    /// `op_shift` offsets the angle of one op — the oracle for a binding
    /// made by [`crate::plan::BoundPlan::rebind_shifted`]. It fuses
    /// exactly as plan binding does, so the two must agree bit for bit.
    ///
    /// # Errors
    ///
    /// As [`Circuit::run_on`].
    #[cfg(any(test, feature = "testing"))]
    pub fn interpret_on(
        &self,
        state: &mut StateVector,
        params: &[f64],
        op_shift: Option<(usize, f64)>,
    ) -> Result<(), CircuitError> {
        self.validate(params.len())?;
        // The state may be narrower than the circuit declares; gate
        // application bypasses `apply_gate`'s per-op validation, so check
        // every operand against the actual register width up front (the
        // historical behavior errored on the first out-of-range op).
        let width = state.num_qubits();
        for op in &self.ops {
            for &q in &op.qubits {
                if q >= width {
                    return Err(CircuitError::State(StateError::QubitOutOfRange {
                        qubit: q,
                        num_qubits: width,
                    }));
                }
            }
        }
        // Pending 1q work per qubit, kept factored as `diag · dense`
        // (`dense` applies first). The factoring preserves the cheap
        // structure of each half: the dense factor of a rotation layer
        // (`Ry` — usually all-real) flushes through the specialized real
        // kernel, while the diagonal factor (`Rz`) folds into the next
        // *arithmetic* two-qubit gate by column scaling. Pure-permutation
        // gates (`Cx`, `Swap`) never receive folds — the pending product
        // flushes as its own sweep so the permutation stays
        // coefficient-free and the plan scheduler can defer it as a
        // composed index map (bit-identical either way; see `plan`).
        let mut dense: Vec<Option<Matrix2>> = vec![None; self.num_qubits];
        let mut diag: Vec<Option<Matrix2>> = vec![None; self.num_qubits];
        for (i, op) in self.ops.iter().enumerate() {
            let gate = match (op.param, op_shift) {
                (Some(p), Some((shifted, delta))) if i == shifted => {
                    op.gate.with_param(p.resolve(params) + delta)
                }
                (Some(p), _) => op.gate.with_param(p.resolve(params)),
                (None, _) => op.gate,
            };
            match gate.arity() {
                1 => {
                    let q = op.qubits[0];
                    let m = gate.matrix2();
                    if is_diag2(&m) {
                        diag[q] = Some(match diag[q] {
                            Some(prev) => mat2_mul(&m, &prev),
                            None => m,
                        });
                    } else {
                        // A dense gate after a diagonal factor collapses the
                        // whole pending product into one dense factor.
                        let m = match diag[q].take() {
                            Some(g) => mat2_mul(&m, &g),
                            None => m,
                        };
                        dense[q] = Some(match dense[q] {
                            Some(prev) => mat2_mul(&m, &prev),
                            None => m,
                        });
                    }
                }
                _ => {
                    let (a, b) = (op.qubits[0], op.qubits[1]);
                    if a == b {
                        return Err(CircuitError::State(StateError::DuplicateQubits(a)));
                    }
                    let mut m4 = gate.matrix4();
                    let dense4 = is_dense4(&m4);
                    let pure_perm = is_unit_perm4(&m4);
                    for (q, bit) in [(a, 0usize), (b, 1usize)] {
                        match (dense[q].take(), diag[q].take()) {
                            (Some(d), g) => {
                                if dense4 {
                                    // The 2q kernel is dense anyway: fold
                                    // the whole pending product in for free.
                                    let whole = match g {
                                        Some(g) => mat2_mul(&g, &d),
                                        None => d,
                                    };
                                    m4 = mat4_fold1q(&m4, &whole, bit);
                                } else if pure_perm {
                                    // Keep pure permutations coefficient-free
                                    // (fusable): flush the pending product as
                                    // one 1q sweep instead of folding.
                                    let whole = match g {
                                        Some(g) => mat2_mul(&g, &d),
                                        None => d,
                                    };
                                    state.apply_matrix2(&whole, q);
                                } else {
                                    state.apply_matrix2(&d, q);
                                    if let Some(g) = g {
                                        m4 = mat4_fold1q(&m4, &g, bit);
                                    }
                                }
                            }
                            (None, Some(g)) => {
                                if pure_perm {
                                    state.apply_matrix2(&g, q);
                                } else {
                                    m4 = mat4_fold1q(&m4, &g, bit);
                                }
                            }
                            (None, None) => {}
                        }
                    }
                    state.apply_matrix4(&m4, a, b);
                }
            }
        }
        for q in 0..self.num_qubits {
            match (dense[q].take(), diag[q].take()) {
                (Some(d), Some(g)) => state.apply_matrix2(&mat2_mul(&g, &d), q),
                (Some(d), None) => state.apply_matrix2(&d, q),
                (None, Some(g)) => state.apply_matrix2(&g, q),
                (None, None) => {}
            }
        }
        Ok(())
    }

    /// The adjoint circuit (all gates inverted, order reversed). Symbolic
    /// parameters keep their indices with negated scale.
    pub fn inverse(&self) -> Circuit {
        let mut ops = Vec::with_capacity(self.ops.len());
        for op in self.ops.iter().rev() {
            match op.param {
                None => ops.push(Op {
                    gate: op.gate.inverse(),
                    qubits: op.qubits.clone(),
                    param: None,
                }),
                Some(ParamRef::Fixed(v)) => ops.push(Op {
                    gate: op.gate,
                    qubits: op.qubits.clone(),
                    param: Some(ParamRef::Fixed(-v)),
                }),
                Some(ParamRef::Sym { index, scale }) => ops.push(Op {
                    gate: op.gate,
                    qubits: op.qubits.clone(),
                    param: Some(ParamRef::Sym {
                        index,
                        scale: -scale,
                    }),
                }),
            }
        }
        Circuit {
            num_qubits: self.num_qubits,
            ops,
            num_params: self.num_params,
        }
    }

    /// Rough serialized size in bytes (for the state-inventory table):
    /// each op ≈ gate tag + params + operand list.
    pub fn approx_byte_size(&self) -> usize {
        self.ops
            .iter()
            .map(|op| 8 + 24 + op.qubits.len() * 8 + 17)
            .sum::<usize>()
            + 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;

    const EPS: f64 = 1e-12;

    #[test]
    fn empty_circuit_runs_to_zero_state() {
        let c = Circuit::new(2);
        assert!(c.is_empty());
        let s = c.run(&[]).unwrap();
        assert!((s.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn fixed_gates_execute() {
        let mut c = Circuit::new(2);
        c.push_fixed(Gate::H, &[0]).push_fixed(Gate::Cx, &[0, 1]);
        let s = c.run(&[]).unwrap();
        assert!((s.probability(0b00) - 0.5).abs() < EPS);
        assert!((s.probability(0b11) - 0.5).abs() < EPS);
    }

    #[test]
    fn symbolic_binding_works() {
        let mut c = Circuit::new(1);
        c.push_sym(Gate::Ry(0.0), &[0], 0);
        // RY(π)|0⟩ = |1⟩
        let s = c.run(&[std::f64::consts::PI]).unwrap();
        assert!((s.probability(1) - 1.0).abs() < EPS);
        // RY(0)|0⟩ = |0⟩
        let s = c.run(&[0.0]).unwrap();
        assert!((s.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn scaled_symbols() {
        let mut c = Circuit::new(1);
        c.push_sym_scaled(Gate::Ry(0.0), &[0], 0, 2.0);
        let s = c.run(&[std::f64::consts::FRAC_PI_2]).unwrap();
        assert!((s.probability(1) - 1.0).abs() < EPS);
    }

    #[test]
    fn num_params_tracks_max_index() {
        let mut c = Circuit::new(2);
        c.push_sym(Gate::Rx(0.0), &[0], 3);
        assert_eq!(c.num_params(), 4);
        c.push_sym(Gate::Rz(0.0), &[1], 1);
        assert_eq!(c.num_params(), 4);
    }

    #[test]
    fn missing_params_is_error() {
        let mut c = Circuit::new(1);
        c.push_sym(Gate::Rx(0.0), &[0], 2);
        let err = c.run(&[0.1]).unwrap_err();
        assert!(matches!(
            err,
            CircuitError::ParamOutOfRange { param_index: 2, .. }
        ));
    }

    #[test]
    fn validate_catches_bad_qubits_and_arity() {
        let mut c = Circuit::new(1);
        c.push_fixed(Gate::X, &[1]);
        assert!(matches!(
            c.validate(0),
            Err(CircuitError::QubitOutOfRange { qubit: 1, .. })
        ));

        let mut c2 = Circuit::new(2);
        c2.ops.push(Op {
            gate: Gate::Cx,
            qubits: vec![0],
            param: None,
        });
        assert!(matches!(
            c2.validate(0),
            Err(CircuitError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn inverse_circuit_undoes_forward() {
        let mut c = Circuit::new(3);
        c.push_fixed(Gate::H, &[0]);
        c.push_sym(Gate::Ry(0.0), &[1], 0);
        c.push_fixed(Gate::Cx, &[0, 2]);
        c.push_sym_scaled(Gate::Rzz(0.0), &[1, 2], 1, 0.5);
        c.push_fixed(Gate::T, &[2]);

        let params = [0.63, -1.2];
        let fwd = c.run(&params).unwrap();
        let mut state = fwd.clone();
        c.inverse().run_on(&mut state, &params).unwrap();
        let zero = StateVector::zero_state(3);
        assert!((state.fidelity(&zero).unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn extend_offset_merges_parameter_spaces() {
        let mut a = Circuit::new(1);
        a.push_sym(Gate::Rx(0.0), &[0], 0);
        let mut b = Circuit::new(1);
        b.push_sym(Gate::Ry(0.0), &[0], 0);
        a.extend_offset(&b, 1);
        assert_eq!(a.num_params(), 2);
        assert_eq!(a.len(), 2);
        // Both parameters act independently.
        let s = a.run(&[0.0, std::f64::consts::PI]).unwrap();
        assert!((s.probability(1) - 1.0).abs() < EPS);
    }

    #[test]
    fn op_shift_moves_only_that_op() {
        // Two ops sharing parameter 0; shifting op 1 must not move op 0.
        let mut c = Circuit::new(1);
        c.push_sym(Gate::Ry(0.0), &[0], 0);
        c.push_sym(Gate::Ry(0.0), &[0], 0);
        let plan = c.compile().unwrap();
        let mut bound = plan.bind_scratch();
        bound.rebind_shifted(&[0.3], 1, 0.2).unwrap();
        let mut shifted = StateVector::zero_state(1);
        bound.run_on(&mut shifted).unwrap();
        let mut reference = Circuit::new(1);
        reference.push_fixed(Gate::Ry(0.3), &[0]);
        reference.push_fixed(Gate::Ry(0.5), &[0]);
        let expected = reference.run(&[]).unwrap();
        assert!((shifted.fidelity(&expected).unwrap() - 1.0).abs() < EPS);
        let mut oracle = StateVector::zero_state(1);
        c.interpret_on(&mut oracle, &[0.3], Some((1, 0.2))).unwrap();
        assert!((oracle.fidelity(&expected).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn sym_ops_lists_parametrized_positions() {
        let mut c = Circuit::new(2);
        c.push_fixed(Gate::H, &[0]);
        c.push_sym(Gate::Rx(0.0), &[0], 0);
        c.push_fixed(Gate::Cx, &[0, 1]);
        c.push_sym(Gate::Rz(0.0), &[1], 1);
        assert_eq!(c.sym_ops(), vec![(1, 0), (3, 1)]);
    }

    #[test]
    fn gate_counts() {
        let mut c = Circuit::new(2);
        c.push_fixed(Gate::H, &[0]);
        c.push_fixed(Gate::Cx, &[0, 1]);
        c.push_sym(Gate::Ry(0.0), &[1], 0);
        assert_eq!(c.gate_counts(), (2, 1));
    }

    #[test]
    fn run_on_existing_state() {
        let mut c = Circuit::new(1);
        c.push_fixed(Gate::X, &[0]);
        let mut s = StateVector::from_amplitudes(vec![Complex64::ZERO, Complex64::ONE]).unwrap();
        c.run_on(&mut s, &[]).unwrap();
        assert!((s.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn run_on_narrow_state_errors_instead_of_panicking() {
        // The fused executor bypasses apply_gate's per-op validation; a
        // state narrower than the circuit must still surface
        // QubitOutOfRange (regression: the diag index kernel used to panic
        // and other kernels silently no-opped).
        let mut c = Circuit::new(3);
        c.push_fixed(Gate::Rz(0.4), &[2]);
        let mut narrow = StateVector::zero_state(1);
        match c.run_on(&mut narrow, &[]) {
            Err(CircuitError::State(StateError::QubitOutOfRange {
                qubit: 2,
                num_qubits: 1,
            })) => {}
            other => panic!("expected QubitOutOfRange, got {other:?}"),
        }
        let mut c2 = Circuit::new(3);
        c2.push_fixed(Gate::Cx, &[0, 2]);
        assert!(c2.run_on(&mut StateVector::zero_state(2), &[]).is_err());
        // A wider state than the circuit declares keeps working.
        let mut wide = StateVector::zero_state(4);
        c.run_on(&mut wide, &[]).unwrap();
    }

    #[test]
    fn approx_byte_size_is_positive_and_monotone() {
        let mut c = Circuit::new(2);
        let s0 = c.approx_byte_size();
        c.push_fixed(Gate::H, &[0]);
        let s1 = c.approx_byte_size();
        assert!(s1 > s0);
    }
}

//! State-vector representation and gate-application kernels.
//!
//! A [`StateVector`] over `n` qubits stores all `2^n` complex amplitudes.
//! Basis states are indexed little-endian: qubit 0 is the least significant
//! bit of the index. Gate application is performed in place with bit-mask
//! kernels.
//!
//! ## SIMD dispatch
//!
//! Contiguous-slice kernels and the sum-of-squares reductions run through
//! the explicit-SIMD primitives in `qsimd` (`QSIM_SIMD` selects the level;
//! scalar is the bit-exactness oracle — see the `qsimd` crate docs). The
//! level is resolved **once per gate application on the calling thread**
//! and passed explicitly into every kernel, so the scoped worker threads of
//! a fan-out — which cannot see a caller's thread-local override — always
//! run the level the caller chose.
//!
//! ## Kernel structure & threading
//!
//! Gate application decomposes the amplitude array into disjoint
//! *pair slices* (one-qubit gates) or *quad slices* (two-qubit gates):
//! contiguous `&mut` regions holding the amplitudes a kernel couples. The
//! serial and parallel paths run the **same** kernel over the same
//! decomposition; with [`qpar::current_threads`] > 1 and at least
//! [`PARALLEL_MIN_AMPS`] amplitudes the slices are fanned out across scoped
//! threads. Every pair/quad update is independent, so results are
//! bit-identical for every thread count.
//!
//! Matrices are classified by structure before dispatch — diagonal
//! (`Rz`, `Cphase`, `Rzz`, …) and monomial (`X`, `Cx`, `Swap`, …) gates
//! take reduced kernels that touch a fraction of the data the dense path
//! does.
//!
//! Reductions (norm, inner products, marginals) switch above
//! [`STRIPED_SUM_MIN_AMPS`] amplitudes to partial sums over
//! [`SUM_STRIPES`] *fixed* index ranges, combined in index order. The
//! stripe layout depends only on the input length — never on the thread
//! count — so reduction results are also identical for every thread count.
//! Sum-of-squares reductions accumulate into `qsimd`'s canonical four-lane
//! structure within each stripe (see [`qsimd::accumulate_sq`]), which is
//! likewise independent of both the thread count and the SIMD level.

use serde::{Deserialize, Serialize};

use crate::complex::Complex64;
use crate::gate::{Gate, Matrix2, Matrix4};
use crate::rng::Xoshiro256;

/// Minimum amplitude count before gate kernels fan out across threads
/// (below this, scoped-thread overhead dwarfs the kernel).
pub const PARALLEL_MIN_AMPS: usize = 1 << 14;

/// Minimum amplitude count before reductions use the fixed striped
/// partition (kept deliberately high: striping changes summation grouping
/// relative to the single whole-array accumulation small states use).
pub const STRIPED_SUM_MIN_AMPS: usize = 1 << 15;

/// Fixed stripe count for striped reductions. Independent of the thread
/// count by design — see the module docs' determinism contract.
pub const SUM_STRIPES: usize = 64;

/// Errors produced by state-vector operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// A qubit index was out of range for this register size.
    QubitOutOfRange {
        /// The offending index.
        qubit: usize,
        /// The register size.
        num_qubits: usize,
    },
    /// A two-qubit gate was applied to identical operands.
    DuplicateQubits(usize),
    /// Amplitude vector length was not a power of two.
    InvalidLength(usize),
    /// The register sizes of two states do not match.
    SizeMismatch {
        /// Left-hand size (qubits).
        left: usize,
        /// Right-hand size (qubits).
        right: usize,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit index {qubit} out of range for {num_qubits}-qubit register"
                )
            }
            StateError::DuplicateQubits(q) => {
                write!(f, "two-qubit gate applied twice to qubit {q}")
            }
            StateError::InvalidLength(n) => {
                write!(f, "amplitude vector length {n} is not a power of two")
            }
            StateError::SizeMismatch { left, right } => {
                write!(f, "register size mismatch: {left} vs {right} qubits")
            }
        }
    }
}

impl std::error::Error for StateError {}

/// A pure quantum state over `n` qubits.
///
/// # Examples
///
/// ```
/// use qsim::state::StateVector;
/// use qsim::gate::Gate;
///
/// // Prepare the Bell state (|00⟩ + |11⟩)/√2.
/// let mut psi = StateVector::zero_state(2);
/// psi.apply_gate(Gate::H, &[0]).unwrap();
/// psi.apply_gate(Gate::Cx, &[0, 1]).unwrap();
/// assert!((psi.probability(0) - 0.5).abs() < 1e-12);
/// assert!((psi.probability(3) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: Vec<Complex64>,
}

impl Clone for StateVector {
    fn clone(&self) -> Self {
        StateVector {
            num_qubits: self.num_qubits,
            amplitudes: self.amplitudes.clone(),
        }
    }

    /// Reuses `self`'s amplitude buffer: a resumed evaluation copies its
    /// prefix cursor into one work state per call.
    fn clone_from(&mut self, source: &Self) {
        self.num_qubits = source.num_qubits;
        self.amplitudes.clone_from(&source.amplitudes);
    }
}

impl StateVector {
    /// Creates the all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 30 (the 16·2³⁰-byte state would not be
    /// allocatable in this environment anyway).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(num_qubits <= 30, "register too large: {num_qubits} qubits");
        let mut amplitudes = vec![Complex64::ZERO; 1usize << num_qubits];
        amplitudes[0] = Complex64::ONE;
        StateVector {
            num_qubits,
            amplitudes,
        }
    }

    /// Creates the basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        let mut s = StateVector::zero_state(num_qubits);
        assert!(index < s.amplitudes.len(), "basis index out of range");
        s.amplitudes[0] = Complex64::ZERO;
        s.amplitudes[index] = Complex64::ONE;
        s
    }

    /// Builds a state from raw amplitudes, normalizing them.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::InvalidLength`] when the vector length is not a
    /// power of two or is zero.
    pub fn from_amplitudes(mut amplitudes: Vec<Complex64>) -> Result<Self, StateError> {
        let n = amplitudes.len();
        if n == 0 || n & (n - 1) != 0 {
            return Err(StateError::InvalidLength(n));
        }
        let num_qubits = n.trailing_zeros() as usize;
        let norm: f64 = norm_sqr_sum(&amplitudes).sqrt();
        if norm > 0.0 {
            for a in &mut amplitudes {
                *a = *a / norm;
            }
        }
        Ok(StateVector {
            num_qubits,
            amplitudes,
        })
    }

    /// Samples a Haar-ish random state (Gaussian amplitudes, normalized).
    pub fn random(num_qubits: usize, rng: &mut Xoshiro256) -> Self {
        let n = 1usize << num_qubits;
        let amps: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.next_gaussian(), rng.next_gaussian()))
            .collect();
        StateVector::from_amplitudes(amps).expect("power-of-two length")
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw amplitude slice (little-endian basis ordering).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amplitudes
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    pub fn amplitude(&self, index: usize) -> Complex64 {
        self.amplitudes[index]
    }

    /// Born-rule probability of observing basis state `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amplitudes[index].norm_sqr()
    }

    /// Full probability distribution over basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// The L2 norm of the state (1.0 for a valid state).
    pub fn norm(&self) -> f64 {
        norm_sqr_sum(&self.amplitudes).sqrt()
    }

    /// Renormalizes in place; no-op on the zero vector.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for a in &mut self.amplitudes {
                *a = *a / n;
            }
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::SizeMismatch`] when the registers differ.
    pub fn inner(&self, other: &StateVector) -> Result<Complex64, StateError> {
        if self.num_qubits != other.num_qubits {
            return Err(StateError::SizeMismatch {
                left: self.num_qubits,
                right: other.num_qubits,
            });
        }
        let n = self.amplitudes.len();
        if n < STRIPED_SUM_MIN_AMPS {
            return Ok(self
                .amplitudes
                .iter()
                .zip(&other.amplitudes)
                .map(|(a, b)| a.conj() * *b)
                .sum());
        }
        let (left, right) = (&self.amplitudes, &other.amplitudes);
        let partials = qpar::map(qpar::ranges(n, SUM_STRIPES), |r| {
            left[r.clone()]
                .iter()
                .zip(&right[r])
                .map(|(a, b)| a.conj() * *b)
                .sum::<Complex64>()
        });
        Ok(partials.into_iter().sum())
    }

    /// Fidelity `|⟨self|other⟩|²` between two pure states.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::SizeMismatch`] when the registers differ.
    pub fn fidelity(&self, other: &StateVector) -> Result<f64, StateError> {
        Ok(self.inner(other)?.norm_sqr())
    }

    /// Tensor product `self ⊗ other` (other occupies the high-order qubits).
    pub fn tensor(&self, other: &StateVector) -> StateVector {
        let mut amps = Vec::with_capacity(self.amplitudes.len() * other.amplitudes.len());
        for b in &other.amplitudes {
            for a in &self.amplitudes {
                amps.push(*a * *b);
            }
        }
        StateVector {
            num_qubits: self.num_qubits + other.num_qubits,
            amplitudes: amps,
        }
    }

    fn check_qubit(&self, q: usize) -> Result<(), StateError> {
        if q >= self.num_qubits {
            Err(StateError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits,
            })
        } else {
            Ok(())
        }
    }

    /// Applies a gate to the given qubits.
    ///
    /// For two-qubit gates, `qubits[0]` is the first operand (the control for
    /// controlled gates) and `qubits[1]` the second (target).
    ///
    /// # Errors
    ///
    /// Returns an error when the operand count does not match the gate arity,
    /// a qubit index is out of range, or a two-qubit gate is given duplicate
    /// operands.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) -> Result<(), StateError> {
        match gate.arity() {
            1 => {
                if qubits.len() != 1 {
                    return Err(StateError::QubitOutOfRange {
                        qubit: usize::MAX,
                        num_qubits: self.num_qubits,
                    });
                }
                self.check_qubit(qubits[0])?;
                self.apply_matrix2(&gate.matrix2(), qubits[0]);
                Ok(())
            }
            2 => {
                if qubits.len() != 2 {
                    return Err(StateError::QubitOutOfRange {
                        qubit: usize::MAX,
                        num_qubits: self.num_qubits,
                    });
                }
                self.check_qubit(qubits[0])?;
                self.check_qubit(qubits[1])?;
                if qubits[0] == qubits[1] {
                    return Err(StateError::DuplicateQubits(qubits[0]));
                }
                self.apply_matrix4(&gate.matrix4(), qubits[0], qubits[1]);
                Ok(())
            }
            a => unreachable!("unsupported arity {a}"),
        }
    }

    /// Applies an arbitrary 2×2 unitary to qubit `q` in place.
    ///
    /// The caller is responsible for `q < n`; library callers go through
    /// [`StateVector::apply_gate`], which validates.
    ///
    /// Runs multi-threaded for registers of at least [`PARALLEL_MIN_AMPS`]
    /// amplitudes when [`qpar::current_threads`] > 1; parallel and serial
    /// results are bit-identical.
    pub fn apply_matrix2(&mut self, m: &Matrix2, q: usize) {
        self.apply_matrix2_with(Kernel2::classify(m), m, q);
    }

    /// [`StateVector::apply_matrix2`] with a precompiled kernel descriptor
    /// (the execution-plan layer classifies once at bind time).
    pub(crate) fn apply_matrix2_with(&mut self, kernel: Kernel2, m: &Matrix2, q: usize) {
        let bit = 1usize << q;
        // Resolved here, on the calling thread, before any fan-out: its
        // workers cannot see the caller's thread-local SIMD override.
        let lvl = qsimd::active();
        let threads = kernel_threads(self.amplitudes.len());
        if threads <= 1 {
            kernel.run_region(lvl, m, &mut self.amplitudes, bit);
            return;
        }
        let blocks = self.amplitudes.len() / (bit << 1);
        if blocks >= threads * 2 {
            // Low target qubit: plenty of whole 2·bit blocks — hand each
            // thread a contiguous run of blocks.
            let per = blocks.div_ceil(threads * 4).max(1);
            let items: Vec<&mut [Complex64]> =
                self.amplitudes.chunks_mut(per * (bit << 1)).collect();
            qpar::for_each_threads(threads, items, |chunk| {
                kernel.run_region(lvl, m, chunk, bit)
            });
            return;
        }
        // High target qubit: few blocks, each with a long pair run —
        // subdivide the runs instead.
        let per_block = (threads * 4).div_ceil(blocks).max(1);
        let sub = bit.div_ceil(per_block).max(1);
        let mut items = Vec::with_capacity(blocks * per_block);
        for block in self.amplitudes.chunks_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            items.extend(lo.chunks_mut(sub).zip(hi.chunks_mut(sub)));
        }
        qpar::for_each_threads(threads, items, |(lo, hi)| kernel.run(lvl, m, lo, hi));
    }

    /// Applies an arbitrary 4×4 unitary to qubits `(qa, qb)` in place.
    ///
    /// Matrix basis convention: index bit 0 ↔ `qa`, index bit 1 ↔ `qb`.
    ///
    /// Threading follows [`StateVector::apply_matrix2`]: bit-identical
    /// results at every thread count.
    pub fn apply_matrix4(&mut self, m: &Matrix4, qa: usize, qb: usize) {
        self.apply_matrix4_with(Kernel4::classify(m), m, qa, qb);
    }

    /// [`StateVector::apply_matrix4`] with a precompiled kernel descriptor
    /// (the execution-plan layer classifies once at bind time).
    pub(crate) fn apply_matrix4_with(
        &mut self,
        kernel: Kernel4,
        m: &Matrix4,
        qa: usize,
        qb: usize,
    ) {
        debug_assert_ne!(qa, qb);
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        let (blo, bhi) = (ba.min(bb), ba.max(bb));
        // Quad layout within a 2·bhi block split at bhi into (pa, pb), each
        // split again at blo: when qa is the lower qubit the four slices map
        // to (a00, a01, a10, a11); otherwise a01/a10 swap roles.
        let qa_is_low = ba < bb;
        // Resolved pre-fan-out on the calling thread (see apply_matrix2_with).
        let lvl = qsimd::active();
        let threads = kernel_threads(self.amplitudes.len());
        let blocks = self.amplitudes.len() / (bhi << 1);
        if threads <= 1 {
            kernel.run_region4(lvl, m, &mut self.amplitudes, qa, qb);
            return;
        }
        if blocks >= threads * 2 {
            // Both qubits low: hand each thread contiguous runs of whole
            // 2·bhi blocks.
            let per = blocks.div_ceil(threads * 4).max(1);
            let items: Vec<&mut [Complex64]> =
                self.amplitudes.chunks_mut(per * (bhi << 1)).collect();
            qpar::for_each_threads(threads, items, |chunk| {
                kernel.run_region4(lvl, m, chunk, qa, qb);
            });
            return;
        }
        // High qubit present: subdivide within blocks at 2·blo-aligned
        // boundaries so every piece holds whole quads.
        let pieces = (threads * 4).div_ceil(blocks).max(1);
        let piece = bhi.div_ceil(pieces).div_ceil(blo << 1).max(1) * (blo << 1);
        let mut items = Vec::with_capacity(blocks * pieces);
        for block in self.amplitudes.chunks_mut(bhi << 1) {
            let (pa, pb) = block.split_at_mut(bhi);
            items.extend(pa.chunks_mut(piece).zip(pb.chunks_mut(piece)));
        }
        qpar::for_each_threads(threads, items, |(pa, pb)| {
            kernel.run_aligned(lvl, m, qa_is_low, blo, pa, pb)
        });
    }

    /// Probability that qubit `q` measures as `|1⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::QubitOutOfRange`] for an invalid qubit.
    pub fn prob_one(&self, q: usize) -> Result<f64, StateError> {
        self.check_qubit(q)?;
        let bit = 1usize << q;
        let n = self.amplitudes.len();
        let lvl = qsimd::active();
        if n < STRIPED_SUM_MIN_AMPS {
            let mut lanes = [0.0f64; 4];
            accumulate_masked_sq(lvl, &mut lanes, &self.amplitudes, bit, 0..n);
            return Ok(qsimd::combine_lanes(lanes));
        }
        let amps = &self.amplitudes;
        let partials = qpar::map(qpar::ranges(n, SUM_STRIPES), |r| {
            let mut lanes = [0.0f64; 4];
            accumulate_masked_sq(lvl, &mut lanes, amps, bit, r);
            qsimd::combine_lanes(lanes)
        });
        Ok(partials.into_iter().sum())
    }

    /// Projective measurement of qubit `q` in the computational basis.
    ///
    /// Collapses the state and returns the outcome bit.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::QubitOutOfRange`] for an invalid qubit.
    pub fn measure_qubit(&mut self, q: usize, rng: &mut Xoshiro256) -> Result<u8, StateError> {
        let p1 = self.prob_one(q)?;
        let outcome = u8::from(rng.next_f64() < p1);
        let bit = 1usize << q;
        let keep_mask_set = outcome == 1;
        for (i, a) in self.amplitudes.iter_mut().enumerate() {
            if ((i & bit) != 0) != keep_mask_set {
                *a = Complex64::ZERO;
            }
        }
        self.normalize();
        Ok(outcome)
    }

    /// Samples `shots` full-register measurement outcomes without collapsing
    /// the state (the state is re-preparable, so sampling from the final
    /// distribution is equivalent to independent prepare-and-measure runs).
    pub fn sample_counts(&self, shots: usize, rng: &mut Xoshiro256) -> Vec<(usize, u32)> {
        let mut cumulative = Vec::with_capacity(self.amplitudes.len());
        let mut acc = 0.0;
        for a in &self.amplitudes {
            acc += a.norm_sqr();
            cumulative.push(acc);
        }
        let mut counts: std::collections::BTreeMap<usize, u32> = std::collections::BTreeMap::new();
        for _ in 0..shots {
            let idx = rng.sample_cumulative(&cumulative);
            *counts.entry(idx).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Expectation value `⟨ψ|Z_q|ψ⟩` of a single-qubit Pauli-Z.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::QubitOutOfRange`] for an invalid qubit.
    pub fn expect_z(&self, q: usize) -> Result<f64, StateError> {
        Ok(1.0 - 2.0 * self.prob_one(q)?)
    }

    /// Serialized size in bytes of the raw amplitude data (the cost of a
    /// naive simulator-state checkpoint): `2^n · 16`.
    pub fn raw_byte_size(&self) -> usize {
        self.amplitudes.len() * std::mem::size_of::<Complex64>()
    }

    /// Mutable access to the raw amplitude storage for the execution-plan
    /// layer's tiled executor (which applies kernels to cache-sized
    /// sub-regions directly).
    pub(crate) fn amplitudes_mut(&mut self) -> &mut Vec<Complex64> {
        &mut self.amplitudes
    }
}

/// Below this stride, pair/quad kernels use direct index arithmetic
/// instead of sub-slice chunking (tiny chunks cost more in iterator
/// bookkeeping than in arithmetic).
const INDEX_KERNEL_MAX_STRIDE: usize = 32;

/// Minimum low-operand stride before two-qubit kernels take the aligned
/// slice path: slice kernels run bounds-check-free (the compiler
/// vectorizes them), but below this stride the per-sub-block slicing
/// overhead exceeds the win and the flat indexed path is faster.
const ALIGNED_KERNEL_MIN_STRIDE: usize = 32;

/// Row-major flattening of a 2×2 complex matrix for the `qsimd` kernels.
fn flat2(m: &Matrix2) -> [f64; 8] {
    [
        m[0][0].re, m[0][0].im, m[0][1].re, m[0][1].im, m[1][0].re, m[1][0].im, m[1][1].re,
        m[1][1].im,
    ]
}

/// Real parts of a 2×2 matrix known to be all-real (`Kernel2::RealDense`).
fn flat2_real(m: &Matrix2) -> [f64; 4] {
    [m[0][0].re, m[0][1].re, m[1][0].re, m[1][1].re]
}

/// Row-major flattening of a 4×4 complex matrix for the `qsimd` kernels.
fn flat4(m: &Matrix4) -> [f64; 32] {
    let mut out = [0.0f64; 32];
    for r in 0..4 {
        for c in 0..4 {
            out[(4 * r + c) * 2] = m[r][c].re;
            out[(4 * r + c) * 2 + 1] = m[r][c].im;
        }
    }
    out
}

/// Threads a gate kernel over `len` amplitudes may use: 1 below the
/// fan-out threshold, the ambient [`qpar::current_threads`] otherwise.
pub(crate) fn kernel_threads(len: usize) -> usize {
    if len < PARALLEL_MIN_AMPS {
        1
    } else {
        qpar::current_threads()
    }
}

/// Sum of `|a|²` with the fixed striped partition above
/// [`STRIPED_SUM_MIN_AMPS`] (see the module docs' determinism contract).
/// Each stripe accumulates into `qsimd`'s canonical four-lane structure,
/// so the result is identical at every SIMD level and thread count.
fn norm_sqr_sum(amps: &[Complex64]) -> f64 {
    let lvl = qsimd::active();
    if amps.len() < STRIPED_SUM_MIN_AMPS {
        let mut lanes = [0.0f64; 4];
        qsimd::accumulate_sq(lvl, &mut lanes, Complex64::flatten(amps));
        return qsimd::combine_lanes(lanes);
    }
    let partials = qpar::map(qpar::ranges(amps.len(), SUM_STRIPES), |r| {
        let mut lanes = [0.0f64; 4];
        qsimd::accumulate_sq(lvl, &mut lanes, Complex64::flatten(&amps[r]));
        qsimd::combine_lanes(lanes)
    });
    partials.into_iter().sum()
}

/// Accumulates `|a|²` of the amplitudes in `range` whose basis index has
/// `bit` set. Accepted indices form contiguous runs `[base|bit, base+2·bit)`;
/// each run feeds [`qsimd::accumulate_sq`] with the lane phase restarting
/// at the run boundary, so the result depends only on `(range, bit)` —
/// never on the thread count or SIMD level.
fn accumulate_masked_sq(
    lvl: qsimd::Level,
    lanes: &mut [f64; 4],
    amps: &[Complex64],
    bit: usize,
    range: std::ops::Range<usize>,
) {
    let block = bit << 1;
    let mut base = range.start & !(block - 1);
    while base < range.end {
        let run_start = (base | bit).max(range.start);
        let run_end = (base + block).min(range.end);
        if run_start < run_end {
            qsimd::accumulate_sq(lvl, lanes, Complex64::flatten(&amps[run_start..run_end]));
        }
        base += block;
    }
}

/// Structural classification of a 2×2 gate matrix, picked once per gate
/// application (or once per plan bind — see `crate::plan`). Reduced
/// kernels touch less data than the dense path; the classification
/// depends only on the matrix, so serial and parallel executions always
/// agree.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kernel2 {
    /// Both off-diagonal entries zero (`Z`, `S`, `T`, `Rz`, `Phase`, …).
    Diag,
    /// Both diagonal entries zero (`X`, `Y`).
    Anti,
    /// All four entries real (`H`, `Ry`): half the multiplies of the
    /// complex dense path, and friendlier to auto-vectorization.
    RealDense,
    /// General dense 2×2.
    Dense,
}

impl Kernel2 {
    pub(crate) fn classify(m: &Matrix2) -> Self {
        let z = Complex64::ZERO;
        if m[0][1] == z && m[1][0] == z {
            Kernel2::Diag
        } else if m[0][0] == z && m[1][1] == z {
            Kernel2::Anti
        } else if m.iter().flatten().all(|c| c.im == 0.0) {
            Kernel2::RealDense
        } else {
            Kernel2::Dense
        }
    }

    /// Applies the kernel to a contiguous region made of whole `2·bit`
    /// blocks. Long pair runs use the slice kernel; short ones (low target
    /// qubit) use direct index arithmetic, which avoids per-chunk iterator
    /// overhead.
    ///
    /// Every pair update is independent, so applying the kernel region by
    /// region (the plan executor's cache-sized tiles) is bit-identical to
    /// one whole-array pass.
    pub(crate) fn run_region(
        self,
        lvl: qsimd::Level,
        m: &Matrix2,
        amps: &mut [Complex64],
        bit: usize,
    ) {
        // Short strides: strided index loops beat degenerate 1–2 element
        // sub-slices. Pair base indices come in contiguous runs of `bit`
        // stepping by `2·bit` — the contiguous inner loop is what the
        // compiler vectorizes (see the quad loop in `Kernel4::run_flat`
        // for the same structure).
        macro_rules! pair_loop {
            (|$i0:ident| $body:block) => {
                let pairs = amps.len() >> 1;
                let runs = pairs / bit;
                let mut run_base = 0usize;
                for _ in 0..runs {
                    for d in 0..bit {
                        let $i0 = run_base + d;
                        $body
                    }
                    run_base += bit << 1;
                }
            };
        }
        // Unit anti-diagonal (`X`): a pure amplitude swap. Bit-for-bit
        // this is NOT the same as multiplying by the exact-one
        // coefficients (`1·x` renormalizes signed zeros), so every
        // executor — interp sweeps, plan tiles, and the fused
        // permutation gather — must agree on the move-only form. Moves
        // carry no rounding, so dispatching short strides to the index
        // loop and long ones to the slice memswap is exactness-neutral.
        if matches!(self, Kernel2::Anti)
            && m[0][1] == Complex64::ONE
            && m[1][0] == Complex64::ONE
            && bit < INDEX_KERNEL_MAX_STRIDE
        {
            pair_loop!(|i0| {
                amps.swap(i0, i0 | bit);
            });
            return;
        }
        if bit < INDEX_KERNEL_MAX_STRIDE && (bit <= 2 || matches!(self, Kernel2::Diag)) {
            if bit == 1 && !matches!(self, Kernel2::Diag) {
                // Adjacent pairs: the whole region is back-to-back
                // (a0, a1) pairs — the `qsimd` interleaved kernels.
                match self {
                    Kernel2::RealDense => {
                        qsimd::apply2_adjacent_real(
                            lvl,
                            &flat2_real(m),
                            Complex64::flatten_mut(amps),
                        );
                    }
                    _ => {
                        qsimd::apply2_adjacent(lvl, &flat2(m), Complex64::flatten_mut(amps));
                    }
                }
                return;
            }
            match self {
                Kernel2::Diag => {
                    let (d0, d1) = (m[0][0], m[1][1]);
                    let one = Complex64::ONE;
                    if d0 != one && d1 != one {
                        // Both halves move: one fused pass (two skip
                        // passes would walk the array twice).
                        pair_loop!(|i0| {
                            amps[i0] = d0 * amps[i0];
                            let i1 = i0 | bit;
                            amps[i1] = d1 * amps[i1];
                        });
                    } else {
                        if d0 != one {
                            pair_loop!(|i0| {
                                amps[i0] = d0 * amps[i0];
                            });
                        }
                        if d1 != one {
                            pair_loop!(|i0| {
                                let i1 = i0 | bit;
                                amps[i1] = d1 * amps[i1];
                            });
                        }
                    }
                }
                Kernel2::RealDense => {
                    let (m00, m01) = (m[0][0].re, m[0][1].re);
                    let (m10, m11) = (m[1][0].re, m[1][1].re);
                    pair_loop!(|i0| {
                        let i1 = i0 | bit;
                        let (a, b) = (amps[i0], amps[i1]);
                        amps[i0] = Complex64::new(m00 * a.re + m01 * b.re, m00 * a.im + m01 * b.im);
                        amps[i1] = Complex64::new(m10 * a.re + m11 * b.re, m10 * a.im + m11 * b.im);
                    });
                }
                Kernel2::Anti => {
                    let (m01, m10) = (m[0][1], m[1][0]);
                    pair_loop!(|i0| {
                        let i1 = i0 | bit;
                        let a0 = amps[i0];
                        amps[i0] = m01 * amps[i1];
                        amps[i1] = m10 * a0;
                    });
                }
                Kernel2::Dense => {
                    pair_loop!(|i0| {
                        let i1 = i0 | bit;
                        let (a0, a1) = (amps[i0], amps[i1]);
                        amps[i0] = m[0][0] * a0 + m[0][1] * a1;
                        amps[i1] = m[1][0] * a0 + m[1][1] * a1;
                    });
                }
            }
            return;
        }
        for block in amps.chunks_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            self.run(lvl, m, lo, hi);
        }
    }

    /// Applies the kernel to one pair run: `lo[k]` holds the amplitude with
    /// the target bit clear, `hi[k]` the partner with it set. The slice
    /// arms dispatch through `qsimd` (the scalar level reproduces the
    /// historical flattened loops operation for operation).
    fn run(self, lvl: qsimd::Level, m: &Matrix2, lo: &mut [Complex64], hi: &mut [Complex64]) {
        match self {
            Kernel2::Dense => {
                qsimd::apply2_dense(
                    lvl,
                    &flat2(m),
                    Complex64::flatten_mut(lo),
                    Complex64::flatten_mut(hi),
                );
            }
            Kernel2::RealDense => {
                qsimd::apply2_real(
                    lvl,
                    &flat2_real(m),
                    Complex64::flatten_mut(lo),
                    Complex64::flatten_mut(hi),
                );
            }
            Kernel2::Diag => {
                scale_slice(lvl, lo, m[0][0]);
                scale_slice(lvl, hi, m[1][1]);
            }
            Kernel2::Anti => {
                // `(lo, hi) ← (m01·hi, m10·lo)` is exactly the scaled-swap
                // primitive; unit coefficients short-circuit to a pure
                // memswap inside (`1·x` would renormalize signed zeros).
                swap_scaled(lvl, lo, hi, m[0][1], m[1][0]);
            }
        }
    }
}

/// Picks two of four equal-length slices by basis index (`i < j`).
fn pick_two<'s>(
    i: usize,
    j: usize,
    s00: &'s mut [Complex64],
    s01: &'s mut [Complex64],
    s10: &'s mut [Complex64],
    s11: &'s mut [Complex64],
) -> (&'s mut [Complex64], &'s mut [Complex64]) {
    match (i, j) {
        (0, 1) => (s00, s01),
        (0, 2) => (s00, s10),
        (0, 3) => (s00, s11),
        (1, 2) => (s01, s10),
        (1, 3) => (s01, s11),
        (2, 3) => (s10, s11),
        _ => unreachable!("transposition indices must satisfy i < j < 4"),
    }
}

/// `(si[k], sj[k]) ← (ci·sj[k], cj·si[k])` — the transposition kernel body.
fn swap_scaled(
    lvl: qsimd::Level,
    si: &mut [Complex64],
    sj: &mut [Complex64],
    ci: Complex64,
    cj: Complex64,
) {
    let one = Complex64::ONE;
    if ci == one && cj == one {
        si.swap_with_slice(sj);
        return;
    }
    qsimd::swap_scale(
        lvl,
        Complex64::flatten_mut(si),
        Complex64::flatten_mut(sj),
        (ci.re, ci.im),
        (cj.re, cj.im),
    );
}

/// Multiplies a slice by a scalar, skipping the exact-identity scalar
/// (`S`/`T`/`Cphase`-style gates leave most amplitudes untouched).
fn scale_slice(lvl: qsimd::Level, xs: &mut [Complex64], c: Complex64) {
    if c == Complex64::ONE {
        return;
    }
    qsimd::scale(lvl, Complex64::flatten_mut(xs), c.re, c.im);
}

/// Structural classification of a 4×4 gate matrix.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kernel4 {
    /// Diagonal (`Cz`, `Cphase`, `Crz`, `Rzz`): four independent scalings.
    Diag([Complex64; 4]),
    /// Two rows swapped with phases, the other two only scaled
    /// (`Cx`, `Cy`, `Swap`, and any of those with diagonal factors folded
    /// in): one complex multiply per amplitude at most, and exact-identity
    /// scalings are skipped entirely.
    Transposition {
        /// First swapped matrix-basis index (`i < j`).
        i: u8,
        /// Second swapped matrix-basis index.
        j: u8,
        /// `new[i] = ci * old[j]`.
        ci: Complex64,
        /// `new[j] = cj * old[i]`.
        cj: Complex64,
        /// The two fixed matrix-basis indices, ascending.
        fixed_rows: [u8; 2],
        /// Scaling factors of the fixed rows, same order.
        fixed: [Complex64; 2],
    },
    /// General dense 4×4 (`Rxx`, `Ryy`, composed unitaries, and a
    /// monomial that is neither diagonal nor one transposition — no gate
    /// binds to one).
    Dense,
}

impl Kernel4 {
    #[allow(clippy::needless_range_loop)] // row/column indices are basis bit patterns
    pub(crate) fn classify(m: &Matrix4) -> Self {
        let z = Complex64::ZERO;
        let mut perm = [0u8; 4];
        let mut coef = [z; 4];
        let mut monomial = true;
        'rows: for i in 0..4 {
            let mut nonzero = None;
            for j in 0..4 {
                if m[i][j] != z {
                    if nonzero.is_some() {
                        monomial = false;
                        break 'rows;
                    }
                    nonzero = Some(j);
                }
            }
            match nonzero {
                Some(j) => {
                    perm[i] = j as u8;
                    coef[i] = m[i][j];
                }
                None => {
                    monomial = false;
                    break 'rows;
                }
            }
        }
        if monomial {
            if perm == [0, 1, 2, 3] {
                return Kernel4::Diag(coef);
            }
            let moved: Vec<usize> = (0..4).filter(|&r| perm[r] as usize != r).collect();
            if moved.len() == 2 {
                let (i, j) = (moved[0], moved[1]);
                if perm[i] as usize == j && perm[j] as usize == i {
                    let fr: Vec<usize> = (0..4).filter(|r| *r != i && *r != j).collect();
                    return Kernel4::Transposition {
                        i: i as u8,
                        j: j as u8,
                        ci: coef[i],
                        cj: coef[j],
                        fixed_rows: [fr[0] as u8, fr[1] as u8],
                        fixed: [coef[fr[0]], coef[fr[1]]],
                    };
                }
            }
        }
        Kernel4::Dense
    }

    /// Serial application to a contiguous region made of whole `2·bhi`
    /// blocks, choosing the flat or aligned path exactly as the serial
    /// interpreter does. Every quad update is independent, so region-by-
    /// region application (the plan executor's tiles) is bit-identical to
    /// one whole-array pass.
    pub(crate) fn run_region4(
        self,
        lvl: qsimd::Level,
        m: &Matrix4,
        amps: &mut [Complex64],
        qa: usize,
        qb: usize,
    ) {
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        let (blo, bhi) = (ba.min(bb), ba.max(bb));
        if blo < ALIGNED_KERNEL_MIN_STRIDE {
            self.run_flat(m, amps, ba, bb);
        } else {
            let qa_is_low = ba < bb;
            for block in amps.chunks_mut(bhi << 1) {
                let (pa, pb) = block.split_at_mut(bhi);
                self.run_aligned(lvl, m, qa_is_low, blo, pa, pb);
            }
        }
    }

    /// Applies the kernel to a contiguous region made of whole `2·bhi`
    /// blocks, addressing quads directly through the operand bit masks
    /// `ba`/`bb`. All dispatch and setup is hoisted out of the quad loop,
    /// so this is the fast path for low-qubit operands where blocks are
    /// tiny and numerous.
    fn run_flat(self, m: &Matrix4, amps: &mut [Complex64], ba: usize, bb: usize) {
        let (blo, bhi) = (ba.min(bb), ba.max(bb));
        let quads = amps.len() >> 2;
        // Quad base indices (both operand bits clear) come in contiguous
        // runs of `blo`, with runs stepping by `2·blo` and skipping the
        // `bhi` region via a branchless carry-skip. The contiguous inner
        // loop is what lets the compiler vectorize the per-quad body;
        // iteration order over quads is identical to the old per-quad
        // shift/mask expansion.
        macro_rules! quad_loop {
            (|$base:ident| $body:block) => {
                let runs = quads / blo;
                let mut run_base = 0usize;
                for _ in 0..runs {
                    for d in 0..blo {
                        let $base = run_base + d;
                        $body
                    }
                    run_base += blo << 1;
                    run_base += run_base & bhi;
                }
            };
        }
        // Adjacent low qubits: every quad is four consecutive amplitudes —
        // slice-pattern destructuring removes all bounds checks.
        if ba | bb == 3 {
            self.run_consecutive(m, amps, ba);
            return;
        }
        match self {
            Kernel4::Dense => {
                quad_loop!(|base| {
                    let (i00, i01, i10, i11) = (base, base | ba, base | bb, base | ba | bb);
                    let a = [amps[i00], amps[i01], amps[i10], amps[i11]];
                    amps[i00] = m[0][0] * a[0] + m[0][1] * a[1] + m[0][2] * a[2] + m[0][3] * a[3];
                    amps[i01] = m[1][0] * a[0] + m[1][1] * a[1] + m[1][2] * a[2] + m[1][3] * a[3];
                    amps[i10] = m[2][0] * a[0] + m[2][1] * a[1] + m[2][2] * a[2] + m[2][3] * a[3];
                    amps[i11] = m[3][0] * a[0] + m[3][1] * a[1] + m[3][2] * a[2] + m[3][3] * a[3];
                });
            }
            Kernel4::Diag(d) => {
                let one = Complex64::ONE;
                let offs = [0, ba, bb, ba | bb];
                let moving = d.iter().filter(|c| **c != one).count();
                if moving > 1 {
                    // Several rows move: one fused pass (separate strided
                    // passes would re-walk the region once per row).
                    let live: [bool; 4] = std::array::from_fn(|r| d[r] != one);
                    quad_loop!(|base| {
                        for r in 0..4 {
                            if live[r] {
                                let idx = base | offs[r];
                                amps[idx] = d[r] * amps[idx];
                            }
                        }
                    });
                } else {
                    for (r, &c) in d.iter().enumerate() {
                        if c != one {
                            let off = offs[r];
                            quad_loop!(|base| {
                                let idx = base | off;
                                amps[idx] = c * amps[idx];
                            });
                        }
                    }
                }
            }
            Kernel4::Transposition {
                i,
                j,
                ci,
                cj,
                fixed_rows,
                fixed,
            } => {
                let one = Complex64::ONE;
                let offs = [0, ba, bb, ba | bb];
                let (oi, oj) = (offs[i as usize], offs[j as usize]);
                let scaled = fixed.iter().any(|c| *c != one);
                if !scaled {
                    // Pure swap-with-phase: touches half of each quad.
                    if ci == one && cj == one {
                        quad_loop!(|base| {
                            amps.swap(base | oi, base | oj);
                        });
                    } else {
                        quad_loop!(|base| {
                            let (xi, xj) = (base | oi, base | oj);
                            let t = amps[xi];
                            amps[xi] = ci * amps[xj];
                            amps[xj] = cj * t;
                        });
                    }
                    return;
                }
                // Diagonal factors folded in: one pass over every quad
                // (separate strided passes would re-pull each cache line
                // once per row). Unit arms move without multiplying
                // (`1·x` renormalizes signed zeros — see `run_region`).
                let (of0, of1) = (offs[fixed_rows[0] as usize], offs[fixed_rows[1] as usize]);
                let (c0, c1) = (fixed[0], fixed[1]);
                let (u0, u1) = (c0 == one, c1 == one);
                let (ui, uj) = (ci == one, cj == one);
                quad_loop!(|base| {
                    let (x0, x1) = (base | of0, base | of1);
                    if !u0 {
                        amps[x0] = c0 * amps[x0];
                    }
                    if !u1 {
                        amps[x1] = c1 * amps[x1];
                    }
                    let (xi, xj) = (base | oi, base | oj);
                    let t = amps[xi];
                    amps[xi] = if ui { amps[xj] } else { ci * amps[xj] };
                    amps[xj] = if uj { t } else { cj * t };
                });
            }
        }
    }

    /// [`Kernel4::run_flat`] specialization for operands on qubits 0 and 1:
    /// quads are consecutive 4-amplitude runs. `ba` is the bit of the first
    /// operand (1 when the first operand is qubit 0, else 2).
    fn run_consecutive(self, m: &Matrix4, amps: &mut [Complex64], ba: usize) {
        // Storage order within a run is basis order iff ba == 1; otherwise
        // the middle two basis indices swap storage places.
        let qa_is_low = ba == 1;
        let map = |k: usize| {
            if qa_is_low || k == 0 || k == 3 {
                k
            } else {
                3 - k
            }
        };
        match self {
            Kernel4::Dense => {
                for block in amps.chunks_exact_mut(4) {
                    if let [x0, x1, x2, x3] = block {
                        let s = [*x0, *x1, *x2, *x3];
                        let a = [s[map(0)], s[map(1)], s[map(2)], s[map(3)]];
                        let mut out = [Complex64::ZERO; 4];
                        for (row, o) in out.iter_mut().enumerate() {
                            *o = m[row][0] * a[0]
                                + m[row][1] * a[1]
                                + m[row][2] * a[2]
                                + m[row][3] * a[3];
                        }
                        *x0 = out[map(0)];
                        *x1 = out[map(1)];
                        *x2 = out[map(2)];
                        *x3 = out[map(3)];
                    }
                }
            }
            Kernel4::Diag(d) => {
                let dd = [d[map(0)], d[map(1)], d[map(2)], d[map(3)]];
                let one = Complex64::ONE;
                for block in amps.chunks_exact_mut(4) {
                    if let [x0, x1, x2, x3] = block {
                        if dd[0] != one {
                            *x0 = dd[0] * *x0;
                        }
                        if dd[1] != one {
                            *x1 = dd[1] * *x1;
                        }
                        if dd[2] != one {
                            *x2 = dd[2] * *x2;
                        }
                        if dd[3] != one {
                            *x3 = dd[3] * *x3;
                        }
                    }
                }
            }
            Kernel4::Transposition {
                i,
                j,
                ci,
                cj,
                fixed_rows,
                fixed,
            } => {
                // Storage positions (map is an involution). Direct
                // indexing into the 4-element block; the positions are
                // distinct by construction.
                let (pi, pj) = (map(i as usize), map(j as usize));
                let (p0, p1) = (map(fixed_rows[0] as usize), map(fixed_rows[1] as usize));
                let one = Complex64::ONE;
                let scaled = fixed.iter().any(|c| *c != one);
                // Unit arms move without multiplying (see `run_region` —
                // `1·x` renormalizes signed zeros).
                let (ui, uj) = (ci == one, cj == one);
                if scaled {
                    let (c0, c1) = (fixed[0], fixed[1]);
                    let (u0, u1) = (c0 == one, c1 == one);
                    for block in amps.chunks_exact_mut(4) {
                        let t = block[pi];
                        block[pi] = if ui { block[pj] } else { ci * block[pj] };
                        block[pj] = if uj { t } else { cj * t };
                        if !u0 {
                            block[p0] = c0 * block[p0];
                        }
                        if !u1 {
                            block[p1] = c1 * block[p1];
                        }
                    }
                } else if ui && uj {
                    for block in amps.chunks_exact_mut(4) {
                        block.swap(pi, pj);
                    }
                } else {
                    for block in amps.chunks_exact_mut(4) {
                        let t = block[pi];
                        block[pi] = if ui { block[pj] } else { ci * block[pj] };
                        block[pj] = if uj { t } else { cj * t };
                    }
                }
            }
        }
    }

    /// Applies the kernel to an aligned region pair: `pa`/`pb` are equal-
    /// length slices holding the high-bit-clear and high-bit-set halves,
    /// each a whole number of `2·blo` sub-blocks. `qa_is_low` records which
    /// operand owns the low bit (it decides the `a01`/`a10` roles).
    fn run_aligned(
        self,
        lvl: qsimd::Level,
        m: &Matrix4,
        qa_is_low: bool,
        blo: usize,
        pa: &mut [Complex64],
        pb: &mut [Complex64],
    ) {
        if blo < ALIGNED_KERNEL_MIN_STRIDE {
            self.run_indexed(m, qa_is_low, blo, pa, pb);
            return;
        }
        for (sa, sb) in pa.chunks_mut(blo << 1).zip(pb.chunks_mut(blo << 1)) {
            let (sa_lo, sa_hi) = sa.split_at_mut(blo);
            let (sb_lo, sb_hi) = sb.split_at_mut(blo);
            if qa_is_low {
                self.run_quads(lvl, m, sa_lo, sa_hi, sb_lo, sb_hi);
            } else {
                self.run_quads(lvl, m, sa_lo, sb_lo, sa_hi, sb_hi);
            }
        }
    }

    /// Index-arithmetic variant of [`Kernel4::run_aligned`] for small low
    /// strides. `pa[i]`/`pa[i|blo]`/`pb[i]`/`pb[i|blo]` form one quad; the
    /// matrix-basis roles of the middle two depend on `qa_is_low`.
    fn run_indexed(
        self,
        m: &Matrix4,
        qa_is_low: bool,
        blo: usize,
        pa: &mut [Complex64],
        pb: &mut [Complex64],
    ) {
        let quads = pa.len() >> 1;
        let shift = blo.trailing_zeros();
        let mask = blo - 1;
        let expand = |j: usize| ((j >> shift) << (shift + 1)) | (j & mask);
        // Maps storage position ↔ matrix-basis index (an involution: both
        // layouts are their own inverse). Storage order of a quad is
        // (pa[i], pa[i|blo], pb[i], pb[i|blo]).
        let order: [usize; 4] = if qa_is_low {
            [0, 1, 2, 3]
        } else {
            [0, 2, 1, 3]
        };
        match self {
            Kernel4::Dense => {
                for j in 0..quads {
                    let i = expand(j);
                    let s = [pa[i], pa[i | blo], pb[i], pb[i | blo]];
                    let a = [s[order[0]], s[order[1]], s[order[2]], s[order[3]]];
                    let mut out = [Complex64::ZERO; 4];
                    for (row, o) in out.iter_mut().enumerate() {
                        *o = m[row][0] * a[0]
                            + m[row][1] * a[1]
                            + m[row][2] * a[2]
                            + m[row][3] * a[3];
                    }
                    pa[i] = out[order[0]];
                    pa[i | blo] = out[order[1]];
                    pb[i] = out[order[2]];
                    pb[i | blo] = out[order[3]];
                }
            }
            Kernel4::Diag(d) => {
                // Storage position k holds matrix-basis index order[k].
                let dd = [d[order[0]], d[order[1]], d[order[2]], d[order[3]]];
                let one = Complex64::ONE;
                for j in 0..quads {
                    let i = expand(j);
                    if dd[0] != one {
                        pa[i] = dd[0] * pa[i];
                    }
                    if dd[1] != one {
                        pa[i | blo] = dd[1] * pa[i | blo];
                    }
                    if dd[2] != one {
                        pb[i] = dd[2] * pb[i];
                    }
                    if dd[3] != one {
                        pb[i | blo] = dd[3] * pb[i | blo];
                    }
                }
            }
            Kernel4::Transposition {
                i,
                j,
                ci,
                cj,
                fixed_rows,
                fixed,
            } => {
                // Storage positions of the touched basis indices (order is
                // an involution).
                let pi = order[i as usize];
                let pj = order[j as usize];
                let one = Complex64::ONE;
                for q_ in 0..quads {
                    let idx = expand(q_);
                    for (&row, &c) in fixed_rows.iter().zip(&fixed) {
                        if c != one {
                            let p = order[row as usize];
                            let o = idx | if p & 1 != 0 { blo } else { 0 };
                            if p < 2 {
                                pa[o] = c * pa[o];
                            } else {
                                pb[o] = c * pb[o];
                            }
                        }
                    }
                    let oi = idx | if pi & 1 != 0 { blo } else { 0 };
                    let oj = idx | if pj & 1 != 0 { blo } else { 0 };
                    let ai = if pi < 2 { pa[oi] } else { pb[oi] };
                    let aj = if pj < 2 { pa[oj] } else { pb[oj] };
                    // Unit arms move without multiplying (see
                    // `run_region` — `1·x` renormalizes signed zeros).
                    let ni = if ci == one { aj } else { ci * aj };
                    let nj = if cj == one { ai } else { cj * ai };
                    if pi < 2 {
                        pa[oi] = ni;
                    } else {
                        pb[oi] = ni;
                    }
                    if pj < 2 {
                        pa[oj] = nj;
                    } else {
                        pb[oj] = nj;
                    }
                }
            }
        }
    }

    /// Applies the kernel to four aligned slices where `sxy[k]` is the
    /// amplitude with matrix-basis index `yx` (bit 0 = first operand).
    fn run_quads(
        self,
        lvl: qsimd::Level,
        m: &Matrix4,
        s00: &mut [Complex64],
        s01: &mut [Complex64],
        s10: &mut [Complex64],
        s11: &mut [Complex64],
    ) {
        match self {
            Kernel4::Dense => {
                qsimd::apply4_dense(
                    lvl,
                    &flat4(m),
                    Complex64::flatten_mut(s00),
                    Complex64::flatten_mut(s01),
                    Complex64::flatten_mut(s10),
                    Complex64::flatten_mut(s11),
                );
            }
            Kernel4::Diag(d) => {
                scale_slice(lvl, s00, d[0]);
                scale_slice(lvl, s01, d[1]);
                scale_slice(lvl, s10, d[2]);
                scale_slice(lvl, s11, d[3]);
            }
            Kernel4::Transposition {
                i,
                j,
                ci,
                cj,
                fixed_rows,
                fixed,
            } => {
                let one = Complex64::ONE;
                if fixed.iter().all(|c| *c == one) {
                    let (si, sj) = pick_two(i as usize, j as usize, s00, s01, s10, s11);
                    swap_scaled(lvl, si, sj, ci, cj);
                    return;
                }
                // Scaled rows present: one fused pass over all four slices,
                // with the complex products flattened to scalar f64 ops in
                // `Complex64::mul` order (bit-exact, vectorizer-friendly).
                let mut parts = [Some(s00), Some(s01), Some(s10), Some(s11)];
                let si = parts[i as usize].take().expect("distinct rows");
                let sj = parts[j as usize].take().expect("distinct rows");
                let sf0 = parts[fixed_rows[0] as usize].take().expect("distinct rows");
                let sf1 = parts[fixed_rows[1] as usize].take().expect("distinct rows");
                let (c0r, c0i) = (fixed[0].re, fixed[0].im);
                let (c1r, c1i) = (fixed[1].re, fixed[1].im);
                let (cir, cii) = (ci.re, ci.im);
                let (cjr, cji) = (cj.re, cj.im);
                // Unit arms move without multiplying (see `run_region` —
                // `1·x` renormalizes signed zeros).
                let (u0, u1) = (fixed[0] == one, fixed[1] == one);
                let (ui, uj) = (ci == one, cj == one);
                for k in 0..si.len() {
                    if !u0 {
                        let (f0r, f0i) = (sf0[k].re, sf0[k].im);
                        sf0[k] = Complex64::new(c0r * f0r - c0i * f0i, c0r * f0i + c0i * f0r);
                    }
                    if !u1 {
                        let (f1r, f1i) = (sf1[k].re, sf1[k].im);
                        sf1[k] = Complex64::new(c1r * f1r - c1i * f1i, c1r * f1i + c1i * f1r);
                    }
                    let t = si[k];
                    let y = sj[k];
                    si[k] = if ui {
                        y
                    } else {
                        Complex64::new(cir * y.re - cii * y.im, cir * y.im + cii * y.re)
                    };
                    sj[k] = if uj {
                        t
                    } else {
                        Complex64::new(cjr * t.re - cji * t.im, cjr * t.im + cji * t.re)
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    const EPS: f64 = 1e-12;

    #[test]
    fn zero_state_is_normalized_basis_zero() {
        let s = StateVector::zero_state(3);
        assert_eq!(s.num_qubits(), 3);
        assert_eq!(s.amplitudes().len(), 8);
        assert!((s.probability(0) - 1.0).abs() < EPS);
        assert!((s.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn basis_state_places_amplitude() {
        let s = StateVector::basis_state(2, 3);
        assert!((s.probability(3) - 1.0).abs() < EPS);
        assert!(s.probability(0) < EPS);
    }

    #[test]
    fn from_amplitudes_normalizes() {
        let s =
            StateVector::from_amplitudes(vec![Complex64::new(3.0, 0.0), Complex64::new(4.0, 0.0)])
                .unwrap();
        assert!((s.probability(0) - 9.0 / 25.0).abs() < EPS);
        assert!((s.probability(1) - 16.0 / 25.0).abs() < EPS);
    }

    #[test]
    fn from_amplitudes_rejects_bad_lengths() {
        assert_eq!(
            StateVector::from_amplitudes(vec![Complex64::ONE; 3]).unwrap_err(),
            StateError::InvalidLength(3)
        );
        assert_eq!(
            StateVector::from_amplitudes(vec![]).unwrap_err(),
            StateError::InvalidLength(0)
        );
    }

    #[test]
    fn x_flips_qubit() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(Gate::X, &[1]).unwrap();
        assert!((s.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut s = StateVector::zero_state(1);
        s.apply_gate(Gate::H, &[0]).unwrap();
        assert!((s.probability(0) - 0.5).abs() < EPS);
        assert!((s.probability(1) - 0.5).abs() < EPS);
    }

    #[test]
    fn bell_state_correlations() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(Gate::H, &[0]).unwrap();
        s.apply_gate(Gate::Cx, &[0, 1]).unwrap();
        assert!((s.probability(0b00) - 0.5).abs() < EPS);
        assert!((s.probability(0b11) - 0.5).abs() < EPS);
        assert!(s.probability(0b01) < EPS);
        assert!(s.probability(0b10) < EPS);
    }

    #[test]
    fn ghz_state_on_four_qubits() {
        let n = 4;
        let mut s = StateVector::zero_state(n);
        s.apply_gate(Gate::H, &[0]).unwrap();
        for q in 0..n - 1 {
            s.apply_gate(Gate::Cx, &[q, q + 1]).unwrap();
        }
        assert!((s.probability(0) - 0.5).abs() < EPS);
        assert!((s.probability((1 << n) - 1) - 0.5).abs() < EPS);
    }

    #[test]
    fn cx_control_must_be_set() {
        // Control (qubit 0) unset → target unchanged.
        let mut s = StateVector::zero_state(2);
        s.apply_gate(Gate::Cx, &[0, 1]).unwrap();
        assert!((s.probability(0b00) - 1.0).abs() < EPS);
        // Control set → target flips.
        let mut s = StateVector::basis_state(2, 0b01);
        s.apply_gate(Gate::Cx, &[0, 1]).unwrap();
        assert!((s.probability(0b11) - 1.0).abs() < EPS);
    }

    #[test]
    fn cx_respects_operand_order() {
        // (control=1, target=0): |10⟩ → |11⟩
        let mut s = StateVector::basis_state(2, 0b10);
        s.apply_gate(Gate::Cx, &[1, 0]).unwrap();
        assert!((s.probability(0b11) - 1.0).abs() < EPS);
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut s = StateVector::basis_state(2, 0b01);
        s.apply_gate(Gate::Swap, &[0, 1]).unwrap();
        assert!((s.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn swap_on_nonadjacent_qubits() {
        let mut s = StateVector::basis_state(3, 0b001);
        s.apply_gate(Gate::Swap, &[0, 2]).unwrap();
        assert!((s.probability(0b100) - 1.0).abs() < EPS);
    }

    #[test]
    fn gates_preserve_norm() {
        let mut rng = Xoshiro256::seed_from(42);
        let mut s = StateVector::random(4, &mut rng);
        let gates: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::H, vec![0]),
            (Gate::Rx(0.7), vec![1]),
            (Gate::Cx, vec![1, 3]),
            (Gate::Rzz(1.1), vec![0, 2]),
            (Gate::U3(0.3, 0.5, 0.7), vec![2]),
            (Gate::Cphase(0.4), vec![3, 0]),
        ];
        for (g, qs) in gates {
            s.apply_gate(g, &qs).unwrap();
            assert!((s.norm() - 1.0).abs() < 1e-10, "{g} broke normalization");
        }
    }

    #[test]
    fn inverse_gate_restores_state() {
        let mut rng = Xoshiro256::seed_from(9);
        let original = StateVector::random(3, &mut rng);
        let mut s = original.clone();
        let ops: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::Ry(0.9), vec![0]),
            (Gate::Cx, vec![0, 2]),
            (Gate::Rzz(0.4), vec![1, 2]),
            (Gate::T, vec![1]),
        ];
        for (g, qs) in &ops {
            s.apply_gate(*g, qs).unwrap();
        }
        for (g, qs) in ops.iter().rev() {
            s.apply_gate(g.inverse(), qs).unwrap();
        }
        assert!((s.fidelity(&original).unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn qubit_out_of_range_is_error() {
        let mut s = StateVector::zero_state(2);
        assert!(matches!(
            s.apply_gate(Gate::X, &[2]),
            Err(StateError::QubitOutOfRange { qubit: 2, .. })
        ));
        assert!(matches!(
            s.apply_gate(Gate::Cx, &[0, 5]),
            Err(StateError::QubitOutOfRange { qubit: 5, .. })
        ));
    }

    #[test]
    fn duplicate_qubits_is_error() {
        let mut s = StateVector::zero_state(2);
        assert_eq!(
            s.apply_gate(Gate::Cx, &[1, 1]).unwrap_err(),
            StateError::DuplicateQubits(1)
        );
    }

    #[test]
    fn inner_product_and_fidelity() {
        let a = StateVector::basis_state(2, 0);
        let b = StateVector::basis_state(2, 1);
        assert!(a.inner(&b).unwrap().approx_eq(Complex64::ZERO, EPS));
        assert!((a.fidelity(&a).unwrap() - 1.0).abs() < EPS);
        assert!(a.fidelity(&b).unwrap() < EPS);
    }

    #[test]
    fn size_mismatch_is_error() {
        let a = StateVector::zero_state(2);
        let b = StateVector::zero_state(3);
        assert_eq!(
            a.inner(&b).unwrap_err(),
            StateError::SizeMismatch { left: 2, right: 3 }
        );
    }

    #[test]
    fn tensor_product_of_basis_states() {
        let a = StateVector::basis_state(1, 1); // |1⟩ on low qubit
        let b = StateVector::basis_state(1, 0); // |0⟩ on high qubit
        let t = a.tensor(&b);
        assert_eq!(t.num_qubits(), 2);
        assert!((t.probability(0b01) - 1.0).abs() < EPS);
    }

    #[test]
    fn prob_one_and_expect_z() {
        let mut s = StateVector::zero_state(1);
        assert!((s.expect_z(0).unwrap() - 1.0).abs() < EPS);
        s.apply_gate(Gate::X, &[0]).unwrap();
        assert!((s.expect_z(0).unwrap() + 1.0).abs() < EPS);
        s.apply_gate(Gate::H, &[0]).unwrap();
        assert!(s.expect_z(0).unwrap().abs() < EPS);
    }

    #[test]
    fn measure_collapses_state() {
        let mut rng = Xoshiro256::seed_from(4);
        let mut ones = 0;
        for _ in 0..200 {
            let mut s = StateVector::zero_state(2);
            s.apply_gate(Gate::H, &[0]).unwrap();
            s.apply_gate(Gate::Cx, &[0, 1]).unwrap();
            let m0 = s.measure_qubit(0, &mut rng).unwrap();
            let m1 = s.measure_qubit(1, &mut rng).unwrap();
            assert_eq!(m0, m1, "Bell state must be perfectly correlated");
            ones += m0 as u32;
        }
        assert!(
            (50..150).contains(&ones),
            "outcome frequencies skewed: {ones}"
        );
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut rng = Xoshiro256::seed_from(77);
        let mut s = StateVector::zero_state(2);
        s.apply_gate(Gate::H, &[0]).unwrap();
        s.apply_gate(Gate::Cx, &[0, 1]).unwrap();
        let counts = s.sample_counts(10_000, &mut rng);
        let total: u32 = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 10_000);
        for (idx, c) in counts {
            assert!(idx == 0 || idx == 3, "impossible outcome {idx}");
            let f = c as f64 / 10_000.0;
            assert!((f - 0.5).abs() < 0.03);
        }
    }

    #[test]
    fn sampling_is_deterministic_given_rng_state() {
        let mut s = StateVector::zero_state(3);
        s.apply_gate(Gate::H, &[0]).unwrap();
        s.apply_gate(Gate::H, &[1]).unwrap();
        s.apply_gate(Gate::H, &[2]).unwrap();
        let mut rng1 = Xoshiro256::seed_from(123);
        let mut rng2 = Xoshiro256::seed_from(123);
        assert_eq!(
            s.sample_counts(500, &mut rng1),
            s.sample_counts(500, &mut rng2)
        );
    }

    #[test]
    fn raw_byte_size_grows_exponentially() {
        assert_eq!(StateVector::zero_state(1).raw_byte_size(), 2 * 16);
        assert_eq!(StateVector::zero_state(10).raw_byte_size(), 1024 * 16);
    }

    #[test]
    fn rxx_entangles_like_cnot_conjugation() {
        // RXX(π) on |00⟩ gives -i|11⟩ (up to global phase → prob 1 on |11⟩).
        let mut s = StateVector::zero_state(2);
        s.apply_gate(Gate::Rxx(std::f64::consts::PI), &[0, 1])
            .unwrap();
        assert!((s.probability(0b11) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn kernels_bit_identical_across_thread_counts() {
        // Large enough to cross PARALLEL_MIN_AMPS and STRIPED_SUM_MIN_AMPS.
        let n = 16;
        let mut rng = Xoshiro256::seed_from(1234);
        let base = StateVector::random(n, &mut rng);
        let ops: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::H, vec![0]),
            (Gate::H, vec![n - 1]),
            (Gate::Rz(0.3), vec![3]),
            (Gate::T, vec![9]),
            (Gate::X, vec![12]),
            (Gate::U3(0.2, 0.4, 0.6), vec![7]),
            (Gate::Cx, vec![0, 1]),
            (Gate::Cx, vec![n - 1, 0]),
            (Gate::Swap, vec![2, n - 2]),
            (Gate::Cz, vec![5, 11]),
            (Gate::Cphase(0.7), vec![4, 10]),
            (Gate::Rzz(0.9), vec![1, n - 1]),
            (Gate::Rxx(1.1), vec![6, 13]),
            (Gate::Crz(0.5), vec![8, 3]),
        ];
        let run_at = |threads: usize| {
            qpar::with_threads(threads, || {
                let mut s = base.clone();
                for (g, qs) in &ops {
                    s.apply_gate(*g, qs).unwrap();
                }
                let amps: Vec<(u64, u64)> = s
                    .amplitudes()
                    .iter()
                    .map(|a| (a.re.to_bits(), a.im.to_bits()))
                    .collect();
                let norm = s.norm().to_bits();
                let p1 = s.prob_one(n / 2).unwrap().to_bits();
                let inner = s.inner(&base).unwrap();
                (amps, norm, p1, (inner.re.to_bits(), inner.im.to_bits()))
            })
        };
        let reference = run_at(1);
        for threads in [2, 4, 8] {
            assert_eq!(run_at(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn apply_matrix2_matches_apply_gate() {
        let mut rng = Xoshiro256::seed_from(1);
        let mut a = StateVector::random(3, &mut rng);
        let mut b = a.clone();
        a.apply_gate(Gate::Ry(0.77), &[2]).unwrap();
        b.apply_matrix2(&Gate::Ry(0.77).matrix2(), 2);
        assert!((a.fidelity(&b).unwrap() - 1.0).abs() < EPS);
    }
}

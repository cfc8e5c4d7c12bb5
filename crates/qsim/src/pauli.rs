//! Pauli strings and weighted Pauli-sum observables.
//!
//! Observables are what hybrid training loops actually evaluate: a VQE loss
//! is `⟨ψ(θ)|H|ψ(θ)⟩` for a Hamiltonian `H` expressed as a weighted sum of
//! Pauli strings. Expectations can be computed exactly (noiseless analysis,
//! tests) or estimated from sampled shots (see [`crate::measure`]), which is
//! the mode the checkpointing experiments care about because it draws from
//! the serializable RNG stream.
//!
//! An exact [`PauliSum::expectation`] reads the state once and copies
//! nothing: a string with X-or-Y mask `x`, Z-or-Y mask `z` and `y` Y factors
//! maps `(P|ψ⟩)ᵢ = (−i)^y · (−1)^popcount(i & z) · ψ_{i⊕x}`, and a factor of
//! ±1 or ±i is exact. Each term therefore sums, from `+0.0` and in index
//! order over the same fixed stripes as [`StateVector::inner`], the very
//! products the apply-and-inner path forms, so the result is bit-identical
//! to `Σ c·`[`PauliString::expectation`] at every width, thread count and
//! SIMD level. The sums are [`qsimd::pauli_sums`]: its vector arms put
//! terms, not amplitudes, in SIMD lanes — two per SSE2 vector, four per
//! AVX2 vector — so every lane is one term's own chain of adds.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::circuit::Circuit;
use crate::complex::Complex64;
use crate::gate::Gate;
use crate::state::{StateError, StateVector, STRIPED_SUM_MIN_AMPS, SUM_STRIPES};

/// A single-qubit Pauli operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A tensor product of single-qubit Paulis over an `n`-qubit register.
///
/// # Examples
///
/// ```
/// use qsim::pauli::{Pauli, PauliString};
///
/// let zz = PauliString::from_str("ZZ").unwrap();
/// assert_eq!(zz.num_qubits(), 2);
/// assert_eq!(zz.weight(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PauliString {
    paulis: Vec<Pauli>,
}

impl PauliString {
    /// The all-identity string on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            paulis: vec![Pauli::I; n],
        }
    }

    /// Builds a string from explicit per-qubit Paulis; index 0 = qubit 0.
    pub fn new(paulis: Vec<Pauli>) -> Self {
        PauliString { paulis }
    }

    /// A string with a single non-identity Pauli at `qubit`.
    pub fn single(n: usize, qubit: usize, p: Pauli) -> Self {
        let mut paulis = vec![Pauli::I; n];
        paulis[qubit] = p;
        PauliString { paulis }
    }

    /// Parses a textual string such as `"XIZ"`. Character 0 acts on qubit 0.
    ///
    /// # Errors
    ///
    /// Returns the offending character on anything outside `IXYZ`.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Result<Self, char> {
        let mut paulis = Vec::with_capacity(s.len());
        for ch in s.chars() {
            paulis.push(match ch {
                'I' | 'i' => Pauli::I,
                'X' | 'x' => Pauli::X,
                'Y' | 'y' => Pauli::Y,
                'Z' | 'z' => Pauli::Z,
                other => return Err(other),
            });
        }
        Ok(PauliString { paulis })
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.paulis.len()
    }

    /// Per-qubit Pauli factors.
    pub fn paulis(&self) -> &[Pauli] {
        &self.paulis
    }

    /// Number of non-identity factors.
    pub fn weight(&self) -> usize {
        self.paulis.iter().filter(|p| **p != Pauli::I).count()
    }

    /// The qubits on which the string acts non-trivially.
    pub fn support(&self) -> Vec<usize> {
        self.paulis
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != Pauli::I)
            .map(|(i, _)| i)
            .collect()
    }

    /// Applies the string to a state (producing `P|ψ⟩`).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::SizeMismatch`] when register widths differ.
    pub fn apply(&self, state: &StateVector) -> Result<StateVector, StateError> {
        if state.num_qubits() != self.num_qubits() {
            return Err(StateError::SizeMismatch {
                left: self.num_qubits(),
                right: state.num_qubits(),
            });
        }
        let mut out = state.clone();
        for (q, p) in self.paulis.iter().enumerate() {
            match p {
                Pauli::I => {}
                Pauli::X => out.apply_matrix2(&Gate::X.matrix2(), q),
                Pauli::Y => out.apply_matrix2(&Gate::Y.matrix2(), q),
                Pauli::Z => out.apply_matrix2(&Gate::Z.matrix2(), q),
            }
        }
        Ok(out)
    }

    /// Exact expectation `⟨ψ|P|ψ⟩` (real because `P` is Hermitian).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::SizeMismatch`] when register widths differ.
    pub fn expectation(&self, state: &StateVector) -> Result<f64, StateError> {
        let applied = self.apply(state)?;
        let ip: Complex64 = state.inner(&applied)?;
        Ok(ip.re)
    }

    /// The string as index masks: X-or-Y qubits and Z-or-Y qubits.
    fn mask(&self) -> qsimd::PauliMask {
        let (mut x, mut z) = (0usize, 0usize);
        for (q, p) in self.paulis.iter().enumerate() {
            match p {
                Pauli::I => {}
                Pauli::X => x |= 1 << q,
                Pauli::Z => z |= 1 << q,
                Pauli::Y => {
                    x |= 1 << q;
                    z |= 1 << q;
                }
            }
        }
        qsimd::PauliMask::new(x, z)
    }

    /// Circuit of basis rotations mapping this string's eigenbasis to the
    /// computational basis (H for X, S†·H for Y).
    pub fn basis_rotation(&self) -> Circuit {
        let mut c = Circuit::new(self.num_qubits());
        for (q, p) in self.paulis.iter().enumerate() {
            match p {
                Pauli::X => {
                    c.push_fixed(Gate::H, &[q]);
                }
                Pauli::Y => {
                    c.push_fixed(Gate::Sdg, &[q]);
                    c.push_fixed(Gate::H, &[q]);
                }
                _ => {}
            }
        }
        c
    }

    /// Eigenvalue (±1) of this string for a computational-basis outcome,
    /// assuming the basis rotation has been applied.
    pub fn eigenvalue(&self, outcome: usize) -> f64 {
        let mut parity = 0u32;
        for (q, p) in self.paulis.iter().enumerate() {
            if *p != Pauli::I && (outcome >> q) & 1 == 1 {
                parity ^= 1;
            }
        }
        if parity == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.paulis {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// A weighted sum of Pauli strings: `H = Σ_k c_k · P_k`.
///
/// # Examples
///
/// ```
/// use qsim::pauli::{PauliSum, PauliString};
/// use qsim::state::StateVector;
///
/// // H = Z₀ on one qubit; ⟨0|Z|0⟩ = 1.
/// let h = PauliSum::from_terms(vec![(1.0, PauliString::from_str("Z").unwrap())]);
/// let psi = StateVector::zero_state(1);
/// assert!((h.expectation(&psi).unwrap() - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PauliSum {
    num_qubits: usize,
    terms: Vec<(f64, PauliString)>,
}

impl PauliSum {
    /// Builds an observable from `(coefficient, string)` terms.
    ///
    /// # Panics
    ///
    /// Panics if terms have inconsistent register widths or the list is
    /// empty.
    pub fn from_terms(terms: Vec<(f64, PauliString)>) -> Self {
        assert!(!terms.is_empty(), "observable needs at least one term");
        let num_qubits = terms[0].1.num_qubits();
        for (_, t) in &terms {
            assert_eq!(t.num_qubits(), num_qubits, "inconsistent term widths");
        }
        PauliSum { num_qubits, terms }
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The `(coefficient, string)` terms.
    pub fn terms(&self) -> &[(f64, PauliString)] {
        &self.terms
    }

    /// Exact expectation `⟨ψ|H|ψ⟩`, in one read-only pass over the state.
    ///
    /// A term with X-or-Y qubits `x`, Z-or-Y qubits `z` and `y` Y factors
    /// maps `(P|ψ⟩)ᵢ = (−i)^y · (−1)^popcount(i & z) · ψ_{i⊕x}`, so each term
    /// sums from `+0.0`, in index order (over the fixed [`SUM_STRIPES`]
    /// stripes above [`STRIPED_SUM_MIN_AMPS`], combined in order), the very
    /// products [`StateVector::inner`] forms with `P|ψ⟩`. The SIMD level is
    /// resolved once, before the stripes fan out, and [`qsimd::pauli_sums`]
    /// sums the terms of one kind in one pass with each term in its own
    /// vector lane. The result is bit-identical to
    /// `Σ c·`[`PauliString::expectation`] in term order at every width,
    /// thread count and SIMD level.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::SizeMismatch`] when register widths differ.
    pub fn expectation(&self, state: &StateVector) -> Result<f64, StateError> {
        if state.num_qubits() != self.num_qubits {
            return Err(StateError::SizeMismatch {
                left: self.num_qubits,
                right: state.num_qubits(),
            });
        }
        let masks: Vec<qsimd::PauliMask> = self.terms.iter().map(|(_, p)| p.mask()).collect();
        let lvl = qsimd::active();
        let amps = state.amplitudes();
        let flat = Complex64::flatten(amps);
        let term_sums = |range: Range<usize>| {
            let mut sums = vec![0.0; masks.len()];
            qsimd::pauli_sums(lvl, flat, &masks, range, &mut sums);
            sums
        };
        let sums = if amps.len() < STRIPED_SUM_MIN_AMPS {
            term_sums(0..amps.len())
        } else {
            let stripes = qpar::map(qpar::ranges(amps.len(), SUM_STRIPES), term_sums);
            let mut sums = vec![0.0; self.terms.len()];
            for stripe in stripes {
                for (sum, part) in sums.iter_mut().zip(stripe) {
                    *sum += part;
                }
            }
            sums
        };
        let mut acc = 0.0;
        for ((c, _), sum) in self.terms.iter().zip(sums) {
            acc += c * sum;
        }
        Ok(acc)
    }

    /// Sum of |coefficients| — an upper bound on the spectral norm, used for
    /// shot-budget heuristics.
    pub fn coeff_l1(&self) -> f64 {
        self.terms.iter().map(|(c, _)| c.abs()).sum()
    }

    /// Transverse-field Ising chain Hamiltonian on `n` qubits:
    /// `H = -J Σ Z_i Z_{i+1} - g Σ X_i` (open boundary).
    ///
    /// The workhorse Hamiltonian of the VQE workloads in the evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn transverse_ising(n: usize, j: f64, g: f64) -> Self {
        assert!(n >= 2, "chain needs at least two sites");
        let mut terms = Vec::new();
        for i in 0..n - 1 {
            let mut paulis = vec![Pauli::I; n];
            paulis[i] = Pauli::Z;
            paulis[i + 1] = Pauli::Z;
            terms.push((-j, PauliString::new(paulis)));
        }
        for i in 0..n {
            terms.push((-g, PauliString::single(n, i, Pauli::X)));
        }
        PauliSum::from_terms(terms)
    }

    /// Heisenberg XXZ chain: `H = Σ (X_i X_{i+1} + Y_i Y_{i+1} + Δ Z_i Z_{i+1})`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn heisenberg_xxz(n: usize, delta: f64) -> Self {
        assert!(n >= 2, "chain needs at least two sites");
        let mut terms = Vec::new();
        for i in 0..n - 1 {
            for (p, c) in [(Pauli::X, 1.0), (Pauli::Y, 1.0), (Pauli::Z, delta)] {
                let mut paulis = vec![Pauli::I; n];
                paulis[i] = p;
                paulis[i + 1] = p;
                terms.push((c, PauliString::new(paulis)));
            }
        }
        PauliSum::from_terms(terms)
    }

    /// Single Z on each qubit, averaged — a cheap "magnetization" observable
    /// used by classification heads.
    pub fn mean_z(n: usize) -> Self {
        let terms = (0..n)
            .map(|q| (1.0 / n as f64, PauliString::single(n, q, Pauli::Z)))
            .collect();
        PauliSum::from_terms(terms)
    }
}

impl fmt::Display for PauliSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (c, p)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}·{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::testing::expectation_oracle;

    const EPS: f64 = 1e-12;

    #[test]
    fn parse_and_display() {
        let p = PauliString::from_str("XIZy").unwrap();
        assert_eq!(p.paulis()[0], Pauli::X);
        assert_eq!(p.paulis()[1], Pauli::I);
        assert_eq!(p.paulis()[2], Pauli::Z);
        assert_eq!(p.paulis()[3], Pauli::Y);
        assert_eq!(p.to_string(), "XIZY");
        assert_eq!(PauliString::from_str("XQ").unwrap_err(), 'Q');
    }

    #[test]
    fn weight_and_support() {
        let p = PauliString::from_str("XIZI").unwrap();
        assert_eq!(p.weight(), 2);
        assert_eq!(p.support(), vec![0, 2]);
        assert_eq!(PauliString::identity(3).weight(), 0);
    }

    #[test]
    fn z_expectation_on_basis_states() {
        let z = PauliString::from_str("Z").unwrap();
        assert!((z.expectation(&StateVector::basis_state(1, 0)).unwrap() - 1.0).abs() < EPS);
        assert!((z.expectation(&StateVector::basis_state(1, 1)).unwrap() + 1.0).abs() < EPS);
    }

    #[test]
    fn x_expectation_on_plus_state() {
        let mut s = StateVector::zero_state(1);
        s.apply_gate(Gate::H, &[0]).unwrap();
        let x = PauliString::from_str("X").unwrap();
        assert!((x.expectation(&s).unwrap() - 1.0).abs() < EPS);
        let z = PauliString::from_str("Z").unwrap();
        assert!(z.expectation(&s).unwrap().abs() < EPS);
    }

    #[test]
    fn zz_on_bell_state_is_one() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(Gate::H, &[0]).unwrap();
        s.apply_gate(Gate::Cx, &[0, 1]).unwrap();
        let zz = PauliString::from_str("ZZ").unwrap();
        assert!((zz.expectation(&s).unwrap() - 1.0).abs() < EPS);
        let xx = PauliString::from_str("XX").unwrap();
        assert!((xx.expectation(&s).unwrap() - 1.0).abs() < EPS);
        // YY on |Φ+⟩ is -1.
        let yy = PauliString::from_str("YY").unwrap();
        assert!((yy.expectation(&s).unwrap() + 1.0).abs() < EPS);
    }

    #[test]
    fn expectation_size_mismatch() {
        let p = PauliString::from_str("Z").unwrap();
        let s = StateVector::zero_state(2);
        assert!(p.expectation(&s).is_err());
    }

    #[test]
    fn eigenvalue_parity() {
        let p = PauliString::from_str("ZIZ").unwrap();
        assert_eq!(p.eigenvalue(0b000), 1.0);
        assert_eq!(p.eigenvalue(0b001), -1.0);
        assert_eq!(p.eigenvalue(0b101), 1.0);
        assert_eq!(p.eigenvalue(0b010), 1.0); // identity position ignored
    }

    #[test]
    fn basis_rotation_diagonalizes_x_and_y() {
        let mut rng = Xoshiro256::seed_from(31);
        for s in ["X", "Y", "XY", "IYX"] {
            let p = PauliString::from_str(s).unwrap();
            let n = p.num_qubits();
            let state = StateVector::random(n, &mut rng);
            let exact = p.expectation(&state).unwrap();
            // Rotate, then evaluate as a Z-type parity expectation.
            let mut rotated = state.clone();
            p.basis_rotation().run_on(&mut rotated, &[]).unwrap();
            let mut est = 0.0;
            for (idx, amp) in rotated.amplitudes().iter().enumerate() {
                est += amp.norm_sqr() * p.eigenvalue(idx);
            }
            assert!((exact - est).abs() < 1e-10, "{s}: {exact} vs {est}");
        }
    }

    #[test]
    fn pauli_sum_linearity() {
        let mut s = StateVector::zero_state(1);
        s.apply_gate(Gate::H, &[0]).unwrap();
        let h = PauliSum::from_terms(vec![
            (0.5, PauliString::from_str("Z").unwrap()),
            (2.0, PauliString::from_str("X").unwrap()),
        ]);
        assert!((h.expectation(&s).unwrap() - 2.0).abs() < EPS);
        assert!((h.coeff_l1() - 2.5).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "inconsistent term widths")]
    fn pauli_sum_rejects_mixed_widths() {
        PauliSum::from_terms(vec![
            (1.0, PauliString::from_str("Z").unwrap()),
            (1.0, PauliString::from_str("ZZ").unwrap()),
        ]);
    }

    #[test]
    fn tfim_ground_state_bounds() {
        // For J=1, g=0 the TFIM ground energy on n sites is -(n-1) and the
        // all-zeros state achieves it.
        let h = PauliSum::transverse_ising(4, 1.0, 0.0);
        let s = StateVector::zero_state(4);
        assert!((h.expectation(&s).unwrap() + 3.0).abs() < EPS);
    }

    #[test]
    fn tfim_transverse_limit() {
        // For J=0, g=1 the ground state is |+⟩^n with energy -n.
        let n = 3;
        let h = PauliSum::transverse_ising(n, 0.0, 1.0);
        let mut s = StateVector::zero_state(n);
        for q in 0..n {
            s.apply_gate(Gate::H, &[q]).unwrap();
        }
        assert!((h.expectation(&s).unwrap() + n as f64).abs() < EPS);
    }

    #[test]
    fn heisenberg_term_count() {
        let h = PauliSum::heisenberg_xxz(4, 0.5);
        assert_eq!(h.terms().len(), 9);
        assert_eq!(h.num_qubits(), 4);
    }

    #[test]
    fn y_on_plus_i_is_exactly_one() {
        // Rx(−π/2)|0⟩ = cos(π/4)|0⟩ + i·sin(π/4)|1⟩, whose product is 0.5.
        let mut s = StateVector::zero_state(1);
        s.apply_gate(Gate::Rx(-std::f64::consts::FRAC_PI_2), &[0])
            .unwrap();
        let h = PauliSum::from_terms(vec![(1.0, PauliString::from_str("Y").unwrap())]);
        assert_eq!(h.expectation(&s).unwrap(), 1.0);
        assert_eq!(
            h.expectation(&s).unwrap().to_bits(),
            expectation_oracle(&h, &s).unwrap().to_bits()
        );
    }

    #[test]
    fn identity_term_is_the_norm() {
        let mut rng = Xoshiro256::seed_from(5);
        for n in [1, 4, 15] {
            let s = StateVector::random(n, &mut rng);
            let h = PauliSum::from_terms(vec![(1.0, PauliString::identity(n))]);
            assert_eq!(
                h.expectation(&s).unwrap().to_bits(),
                s.inner(&s).unwrap().re.to_bits(),
                "{n} qubits"
            );
        }
    }

    #[test]
    fn all_y_string_matches_apply_and_inner() {
        let mut rng = Xoshiro256::seed_from(9);
        let h = PauliSum::from_terms(vec![(0.75, PauliString::from_str("YYY").unwrap())]);
        for _ in 0..8 {
            let s = StateVector::random(3, &mut rng);
            assert_eq!(
                h.expectation(&s).unwrap().to_bits(),
                expectation_oracle(&h, &s).unwrap().to_bits()
            );
        }
        // YYY|000⟩ = i³|111⟩ is orthogonal to |000⟩.
        assert_eq!(h.expectation(&StateVector::zero_state(3)).unwrap(), 0.0);
    }

    #[test]
    fn zero_expectation_is_positive_zero() {
        // X|0⟩ ⊥ |0⟩, so every product is a zero; −1·(+0.0) is −0.0, and
        // the term-order sum from +0.0 makes the result +0.0, as the
        // apply-and-inner path does.
        let h = PauliSum::from_terms(vec![
            (-1.0, PauliString::from_str("XI").unwrap()),
            (-0.5, PauliString::from_str("YZ").unwrap()),
        ]);
        let s = StateVector::zero_state(2);
        assert_eq!(h.expectation(&s).unwrap().to_bits(), 0.0f64.to_bits());
        assert_eq!(
            expectation_oracle(&h, &s).unwrap().to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn pauli_sum_size_mismatch() {
        let h = PauliSum::transverse_ising(3, 1.0, 0.5);
        assert_eq!(
            h.expectation(&StateVector::zero_state(2)).unwrap_err(),
            StateError::SizeMismatch { left: 3, right: 2 }
        );
    }

    #[test]
    fn mean_z_on_basis_states() {
        let h = PauliSum::mean_z(2);
        assert!((h.expectation(&StateVector::basis_state(2, 0)).unwrap() - 1.0).abs() < EPS);
        assert!((h.expectation(&StateVector::basis_state(2, 3)).unwrap() + 1.0).abs() < EPS);
        assert!(
            h.expectation(&StateVector::basis_state(2, 1))
                .unwrap()
                .abs()
                < EPS
        );
    }
}

//! Scalar arms — the bit-exactness oracle every vector arm reproduces.
//!
//! The flattened expressions here match `qsim`'s historical kernel
//! bodies operation for operation (which in turn flatten the
//! `Complex64` operator order), so `QSIM_SIMD=scalar` runs the same
//! arithmetic the simulator has always run.

use std::ops::Range;

use crate::{PauliKind, PauliMask};

pub(crate) fn apply2_dense(m: &[f64; 8], lo: &mut [f64], hi: &mut [f64]) {
    let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = *m;
    for (a, b) in lo.chunks_exact_mut(2).zip(hi.chunks_exact_mut(2)) {
        let (a0r, a0i, a1r, a1i) = (a[0], a[1], b[0], b[1]);
        a[0] = (m00r * a0r - m00i * a0i) + (m01r * a1r - m01i * a1i);
        a[1] = (m00r * a0i + m00i * a0r) + (m01r * a1i + m01i * a1r);
        b[0] = (m10r * a0r - m10i * a0i) + (m11r * a1r - m11i * a1i);
        b[1] = (m10r * a0i + m10i * a0r) + (m11r * a1i + m11i * a1r);
    }
}

pub(crate) fn apply2_real(m: &[f64; 4], lo: &mut [f64], hi: &mut [f64]) {
    let [m00, m01, m10, m11] = *m;
    for (a, b) in lo.chunks_exact_mut(2).zip(hi.chunks_exact_mut(2)) {
        let (a0r, a0i, a1r, a1i) = (a[0], a[1], b[0], b[1]);
        a[0] = m00 * a0r + m01 * a1r;
        a[1] = m00 * a0i + m01 * a1i;
        b[0] = m10 * a0r + m11 * a1r;
        b[1] = m10 * a0i + m11 * a1i;
    }
}

pub(crate) fn apply2_adjacent(m: &[f64; 8], xs: &mut [f64]) {
    let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = *m;
    for p in xs.chunks_exact_mut(4) {
        let (a0r, a0i, a1r, a1i) = (p[0], p[1], p[2], p[3]);
        p[0] = (m00r * a0r - m00i * a0i) + (m01r * a1r - m01i * a1i);
        p[1] = (m00r * a0i + m00i * a0r) + (m01r * a1i + m01i * a1r);
        p[2] = (m10r * a0r - m10i * a0i) + (m11r * a1r - m11i * a1i);
        p[3] = (m10r * a0i + m10i * a0r) + (m11r * a1i + m11i * a1r);
    }
}

pub(crate) fn apply2_adjacent_real(m: &[f64; 4], xs: &mut [f64]) {
    let [m00, m01, m10, m11] = *m;
    for p in xs.chunks_exact_mut(4) {
        let (a0r, a0i, a1r, a1i) = (p[0], p[1], p[2], p[3]);
        p[0] = m00 * a0r + m01 * a1r;
        p[1] = m00 * a0i + m01 * a1i;
        p[2] = m10 * a0r + m11 * a1r;
        p[3] = m10 * a0i + m11 * a1i;
    }
}

pub(crate) fn scale(xs: &mut [f64], cr: f64, ci: f64) {
    for x in xs.chunks_exact_mut(2) {
        let (xr, xi) = (x[0], x[1]);
        x[0] = cr * xr - ci * xi;
        x[1] = cr * xi + ci * xr;
    }
}

pub(crate) fn swap_scale(si: &mut [f64], sj: &mut [f64], ci: (f64, f64), cj: (f64, f64)) {
    let (cir, cii) = ci;
    let (cjr, cji) = cj;
    for (x, y) in si.chunks_exact_mut(2).zip(sj.chunks_exact_mut(2)) {
        let (tr, ti) = (x[0], x[1]);
        let (yr, yi) = (y[0], y[1]);
        x[0] = cir * yr - cii * yi;
        x[1] = cir * yi + cii * yr;
        y[0] = cjr * tr - cji * ti;
        y[1] = cjr * ti + cji * tr;
    }
}

pub(crate) fn apply4_dense(
    m: &[f64; 32],
    s00: &mut [f64],
    s01: &mut [f64],
    s10: &mut [f64],
    s11: &mut [f64],
) {
    // Row-major complex 4×4: row r, column c at m[(4r + c) * 2].
    for k in (0..s00.len()).step_by(2) {
        let a = [
            (s00[k], s00[k + 1]),
            (s01[k], s01[k + 1]),
            (s10[k], s10[k + 1]),
            (s11[k], s11[k + 1]),
        ];
        let mut out = [(0.0f64, 0.0f64); 4];
        for (r, o) in out.iter_mut().enumerate() {
            // ((m_r0·a0 + m_r1·a1) + m_r2·a2) + m_r3·a3, each product in
            // `Complex64::mul` order.
            let mut acc = (0.0, 0.0);
            for c in 0..4 {
                let (mr, mi) = (m[(4 * r + c) * 2], m[(4 * r + c) * 2 + 1]);
                let (ar, ai) = a[c];
                let p = (mr * ar - mi * ai, mr * ai + mi * ar);
                acc = if c == 0 {
                    p
                } else {
                    (acc.0 + p.0, acc.1 + p.1)
                };
            }
            *o = acc;
        }
        s00[k] = out[0].0;
        s00[k + 1] = out[0].1;
        s01[k] = out[1].0;
        s01[k + 1] = out[1].1;
        s10[k] = out[2].0;
        s10[k + 1] = out[2].1;
        s11[k] = out[3].0;
        s11[k + 1] = out[3].1;
    }
}

pub(crate) fn accumulate_sq(lanes: &mut [f64; 4], xs: &[f64]) {
    for (k, x) in xs.iter().enumerate() {
        lanes[k & 3] += x * x;
    }
}

/// Each term's share of `Re⟨ψ|P|ψ⟩` over `range` into `sums`: the terms
/// of one kind four to a sweep, so that their independent addition chains
/// overlap.
pub(crate) fn pauli_sums(amps: &[f64], terms: &[PauliMask], range: Range<usize>, sums: &mut [f64]) {
    let mut order: Vec<usize> = (0..terms.len()).collect();
    order.sort_by_key(|&t| terms[t].kind());
    for kind in order.chunk_by(|&a, &b| terms[a].kind() == terms[b].kind()) {
        for sweep in kind.chunks(4) {
            let r = range.clone();
            match sweep.len() {
                1 => pauli_sweep::<1>(amps, terms, sweep, r, sums),
                2 => pauli_sweep::<2>(amps, terms, sweep, r, sums),
                3 => pauli_sweep::<3>(amps, terms, sweep, r, sums),
                _ => pauli_sweep::<4>(amps, terms, sweep, r, sums),
            }
        }
    }
}

/// One pass over `range` for the `K` terms of one kind at `sweep`, each
/// sum stored at its term's position in `sums`.
fn pauli_sweep<const K: usize>(
    amps: &[f64],
    terms: &[PauliMask],
    sweep: &[usize],
    range: Range<usize>,
    sums: &mut [f64],
) {
    let t: [PauliMask; K] = std::array::from_fn(|k| terms[sweep[k]]);
    let values = match t[0].kind() {
        PauliKind::Diagonal => diagonal_sweep(amps, &t, range),
        PauliKind::Real => flip_sweep::<K, false>(amps, &t, range),
        PauliKind::Imag => flip_sweep::<K, true>(amps, &t, range),
    };
    for (&term, v) in sweep.iter().zip(values) {
        sums[term] = v;
    }
}

/// [`PauliKind::Diagonal`] terms over `range`.
fn diagonal_sweep<const K: usize>(
    amps: &[f64],
    t: &[PauliMask; K],
    range: Range<usize>,
) -> [f64; K] {
    let mut acc = [0.0f64; K];
    let mut lo = range.start;
    while lo < range.end {
        let base = lo & !63;
        let hi = (base + 64).min(range.end);
        let signs: [u64; K] = std::array::from_fn(|k| t[k].signs(base));
        for (j, a) in (lo - base..).zip(amps[2 * lo..2 * hi].chunks_exact(2)) {
            let n = (a[0] * a[0] + a[1] * a[1]).to_bits();
            for k in 0..K {
                acc[k] += f64::from_bits(n ^ (signs[k] >> j << 63));
            }
        }
        lo = hi;
    }
    acc
}

/// [`PauliKind::Real`] terms over `range`, or [`PauliKind::Imag`] ones
/// when `IMAG`.
fn flip_sweep<const K: usize, const IMAG: bool>(
    amps: &[f64],
    t: &[PauliMask; K],
    range: Range<usize>,
) -> [f64; K] {
    let top = amps.len() / 2 - 1;
    let x: [usize; K] = std::array::from_fn(|k| t[k].x);
    let mut acc = [0.0f64; K];
    let mut lo = range.start;
    while lo < range.end {
        let base = lo & !63;
        let hi = (base + 64).min(range.end);
        let signs: [u64; K] = std::array::from_fn(|k| t[k].signs(base));
        for (i, a) in (lo..).zip(amps[2 * lo..2 * hi].chunks_exact(2)) {
            let j = i - base;
            for k in 0..K {
                let p = 2 * ((i ^ x[k]) & top);
                let (br, bi) = (amps[p], amps[p + 1]);
                let r = if IMAG {
                    a[0] * bi - a[1] * br
                } else {
                    a[0] * br + a[1] * bi
                };
                acc[k] += f64::from_bits(r.to_bits() ^ (signs[k] >> j << 63));
            }
        }
        lo = hi;
    }
    acc
}

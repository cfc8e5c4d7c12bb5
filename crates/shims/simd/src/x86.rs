//! SSE2/AVX2 arms of the gate kernels.
//!
//! Every arm reproduces the scalar arm's per-element operation order
//! bit for bit. The one transformation applied throughout: the scalar
//! complex product `(cr·xr − ci·xi, cr·xi + ci·xr)` becomes the lane
//! form `cr·[xr,xi] + [−ci,+ci]·[xi,xr]`, which is IEEE-identical
//! because `a − b ≡ a + (−b)` and `(−x)·y ≡ −(x·y)` exactly. No FMA is
//! ever emitted (contraction would change rounding). The Pauli-sum arms
//! put one term per lane and keep each term's chain of adds in index
//! order; an imaginary-kind product `a.re·b.im − a.im·b.re` is formed as
//! `(−a.im)·b.re + a.re·b.im`, the same add with its operands swapped.
//!
//! SSE2 is part of the x86_64 baseline, so the `*_sse2` arms carry no
//! `#[target_feature]`; the `*_avx2` arms do and must only be reached
//! after runtime detection (the dispatchers in `lib.rs` guarantee it).

use core::arch::x86_64::*;
use std::ops::Range;

use crate::{PauliKind, PauliMask, PAULI_PASS_VECTORS};

/// Broadcast multiplier pair for the 128-bit complex product.
#[inline(always)]
unsafe fn w128(re: f64, im: f64) -> (__m128d, __m128d) {
    (_mm_set1_pd(re), _mm_set_pd(im, -im))
}

/// Broadcast multiplier pair for the 256-bit complex product.
#[inline(always)]
unsafe fn w256(re: f64, im: f64) -> (__m256d, __m256d) {
    (_mm256_set1_pd(re), _mm256_set_pd(im, -im, im, -im))
}

/// `w · v` for one `[re, im]` amplitude.
#[inline(always)]
unsafe fn cmul128(v: __m128d, w: (__m128d, __m128d)) -> __m128d {
    let sw = _mm_shuffle_pd(v, v, 0b01);
    _mm_add_pd(_mm_mul_pd(w.0, v), _mm_mul_pd(w.1, sw))
}

/// `w · v` for two packed `[re, im]` amplitudes.
#[inline(always)]
unsafe fn cmul256(v: __m256d, w: (__m256d, __m256d)) -> __m256d {
    let sw = _mm256_permute_pd(v, 0b0101);
    _mm256_add_pd(_mm256_mul_pd(w.0, v), _mm256_mul_pd(w.1, sw))
}

pub(crate) unsafe fn apply2_dense_sse2(m: &[f64; 8], lo: &mut [f64], hi: &mut [f64]) {
    let (w00, w01) = (w128(m[0], m[1]), w128(m[2], m[3]));
    let (w10, w11) = (w128(m[4], m[5]), w128(m[6], m[7]));
    for k in (0..lo.len()).step_by(2) {
        let a = _mm_loadu_pd(lo.as_ptr().add(k));
        let b = _mm_loadu_pd(hi.as_ptr().add(k));
        let na = _mm_add_pd(cmul128(a, w00), cmul128(b, w01));
        let nb = _mm_add_pd(cmul128(a, w10), cmul128(b, w11));
        _mm_storeu_pd(lo.as_mut_ptr().add(k), na);
        _mm_storeu_pd(hi.as_mut_ptr().add(k), nb);
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn apply2_dense_avx2(m: &[f64; 8], lo: &mut [f64], hi: &mut [f64]) {
    let (w00, w01) = (w256(m[0], m[1]), w256(m[2], m[3]));
    let (w10, w11) = (w256(m[4], m[5]), w256(m[6], m[7]));
    let n4 = lo.len() & !3;
    for k in (0..n4).step_by(4) {
        let a = _mm256_loadu_pd(lo.as_ptr().add(k));
        let b = _mm256_loadu_pd(hi.as_ptr().add(k));
        let na = _mm256_add_pd(cmul256(a, w00), cmul256(b, w01));
        let nb = _mm256_add_pd(cmul256(a, w10), cmul256(b, w11));
        _mm256_storeu_pd(lo.as_mut_ptr().add(k), na);
        _mm256_storeu_pd(hi.as_mut_ptr().add(k), nb);
    }
    if n4 < lo.len() {
        apply2_dense_sse2(m, &mut lo[n4..], &mut hi[n4..]);
    }
}

pub(crate) unsafe fn apply2_real_sse2(m: &[f64; 4], lo: &mut [f64], hi: &mut [f64]) {
    let (w00, w01) = (_mm_set1_pd(m[0]), _mm_set1_pd(m[1]));
    let (w10, w11) = (_mm_set1_pd(m[2]), _mm_set1_pd(m[3]));
    for k in (0..lo.len()).step_by(2) {
        let a = _mm_loadu_pd(lo.as_ptr().add(k));
        let b = _mm_loadu_pd(hi.as_ptr().add(k));
        let na = _mm_add_pd(_mm_mul_pd(w00, a), _mm_mul_pd(w01, b));
        let nb = _mm_add_pd(_mm_mul_pd(w10, a), _mm_mul_pd(w11, b));
        _mm_storeu_pd(lo.as_mut_ptr().add(k), na);
        _mm_storeu_pd(hi.as_mut_ptr().add(k), nb);
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn apply2_real_avx2(m: &[f64; 4], lo: &mut [f64], hi: &mut [f64]) {
    let (w00, w01) = (_mm256_set1_pd(m[0]), _mm256_set1_pd(m[1]));
    let (w10, w11) = (_mm256_set1_pd(m[2]), _mm256_set1_pd(m[3]));
    let n4 = lo.len() & !3;
    for k in (0..n4).step_by(4) {
        let a = _mm256_loadu_pd(lo.as_ptr().add(k));
        let b = _mm256_loadu_pd(hi.as_ptr().add(k));
        let na = _mm256_add_pd(_mm256_mul_pd(w00, a), _mm256_mul_pd(w01, b));
        let nb = _mm256_add_pd(_mm256_mul_pd(w10, a), _mm256_mul_pd(w11, b));
        _mm256_storeu_pd(lo.as_mut_ptr().add(k), na);
        _mm256_storeu_pd(hi.as_mut_ptr().add(k), nb);
    }
    if n4 < lo.len() {
        apply2_real_sse2(m, &mut lo[n4..], &mut hi[n4..]);
    }
}

pub(crate) unsafe fn apply2_adjacent_sse2(m: &[f64; 8], xs: &mut [f64]) {
    let (w00, w01) = (w128(m[0], m[1]), w128(m[2], m[3]));
    let (w10, w11) = (w128(m[4], m[5]), w128(m[6], m[7]));
    for k in (0..xs.len()).step_by(4) {
        let a = _mm_loadu_pd(xs.as_ptr().add(k));
        let b = _mm_loadu_pd(xs.as_ptr().add(k + 2));
        let na = _mm_add_pd(cmul128(a, w00), cmul128(b, w01));
        let nb = _mm_add_pd(cmul128(a, w10), cmul128(b, w11));
        _mm_storeu_pd(xs.as_mut_ptr().add(k), na);
        _mm_storeu_pd(xs.as_mut_ptr().add(k + 2), nb);
    }
}

/// Column-constant multiplier pair: the low 128 lane carries row 0's
/// coefficient, the high lane row 1's — one 256-bit op updates a whole
/// `[a0, a1]` pair block.
#[inline(always)]
unsafe fn wcol256(re0: f64, im0: f64, re1: f64, im1: f64) -> (__m256d, __m256d) {
    (
        _mm256_set_pd(re1, re1, re0, re0),
        _mm256_set_pd(im1, -im1, im0, -im0),
    )
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn apply2_adjacent_avx2(m: &[f64; 8], xs: &mut [f64]) {
    let c0 = wcol256(m[0], m[1], m[4], m[5]);
    let c1 = wcol256(m[2], m[3], m[6], m[7]);
    for k in (0..xs.len()).step_by(4) {
        let v = _mm256_loadu_pd(xs.as_ptr().add(k));
        let a0 = _mm256_permute2f128_pd(v, v, 0x00);
        let a1 = _mm256_permute2f128_pd(v, v, 0x11);
        let out = _mm256_add_pd(cmul256(a0, c0), cmul256(a1, c1));
        _mm256_storeu_pd(xs.as_mut_ptr().add(k), out);
    }
}

pub(crate) unsafe fn apply2_adjacent_real_sse2(m: &[f64; 4], xs: &mut [f64]) {
    let (w00, w01) = (_mm_set1_pd(m[0]), _mm_set1_pd(m[1]));
    let (w10, w11) = (_mm_set1_pd(m[2]), _mm_set1_pd(m[3]));
    for k in (0..xs.len()).step_by(4) {
        let a = _mm_loadu_pd(xs.as_ptr().add(k));
        let b = _mm_loadu_pd(xs.as_ptr().add(k + 2));
        let na = _mm_add_pd(_mm_mul_pd(w00, a), _mm_mul_pd(w01, b));
        let nb = _mm_add_pd(_mm_mul_pd(w10, a), _mm_mul_pd(w11, b));
        _mm_storeu_pd(xs.as_mut_ptr().add(k), na);
        _mm_storeu_pd(xs.as_mut_ptr().add(k + 2), nb);
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn apply2_adjacent_real_avx2(m: &[f64; 4], xs: &mut [f64]) {
    let c0 = _mm256_set_pd(m[2], m[2], m[0], m[0]);
    let c1 = _mm256_set_pd(m[3], m[3], m[1], m[1]);
    for k in (0..xs.len()).step_by(4) {
        let v = _mm256_loadu_pd(xs.as_ptr().add(k));
        let a0 = _mm256_permute2f128_pd(v, v, 0x00);
        let a1 = _mm256_permute2f128_pd(v, v, 0x11);
        let out = _mm256_add_pd(_mm256_mul_pd(c0, a0), _mm256_mul_pd(c1, a1));
        _mm256_storeu_pd(xs.as_mut_ptr().add(k), out);
    }
}

pub(crate) unsafe fn scale_sse2(xs: &mut [f64], cr: f64, ci: f64) {
    let w = w128(cr, ci);
    for k in (0..xs.len()).step_by(2) {
        let v = _mm_loadu_pd(xs.as_ptr().add(k));
        _mm_storeu_pd(xs.as_mut_ptr().add(k), cmul128(v, w));
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn scale_avx2(xs: &mut [f64], cr: f64, ci: f64) {
    let w = w256(cr, ci);
    let n4 = xs.len() & !3;
    for k in (0..n4).step_by(4) {
        let v = _mm256_loadu_pd(xs.as_ptr().add(k));
        _mm256_storeu_pd(xs.as_mut_ptr().add(k), cmul256(v, w));
    }
    if n4 < xs.len() {
        scale_sse2(&mut xs[n4..], cr, ci);
    }
}

pub(crate) unsafe fn swap_scale_sse2(
    si: &mut [f64],
    sj: &mut [f64],
    ci: (f64, f64),
    cj: (f64, f64),
) {
    let wi = w128(ci.0, ci.1);
    let wj = w128(cj.0, cj.1);
    for k in (0..si.len()).step_by(2) {
        let x = _mm_loadu_pd(si.as_ptr().add(k));
        let y = _mm_loadu_pd(sj.as_ptr().add(k));
        _mm_storeu_pd(si.as_mut_ptr().add(k), cmul128(y, wi));
        _mm_storeu_pd(sj.as_mut_ptr().add(k), cmul128(x, wj));
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn swap_scale_avx2(
    si: &mut [f64],
    sj: &mut [f64],
    ci: (f64, f64),
    cj: (f64, f64),
) {
    let wi = w256(ci.0, ci.1);
    let wj = w256(cj.0, cj.1);
    let n4 = si.len() & !3;
    for k in (0..n4).step_by(4) {
        let x = _mm256_loadu_pd(si.as_ptr().add(k));
        let y = _mm256_loadu_pd(sj.as_ptr().add(k));
        _mm256_storeu_pd(si.as_mut_ptr().add(k), cmul256(y, wi));
        _mm256_storeu_pd(sj.as_mut_ptr().add(k), cmul256(x, wj));
    }
    if n4 < si.len() {
        swap_scale_sse2(&mut si[n4..], &mut sj[n4..], ci, cj);
    }
}

/// `((m_r0·a0 + m_r1·a1) + m_r2·a2) + m_r3·a3` for one matrix row.
#[inline(always)]
unsafe fn row128(a: &[__m128d; 4], w: &[(__m128d, __m128d); 4]) -> __m128d {
    let t = _mm_add_pd(cmul128(a[0], w[0]), cmul128(a[1], w[1]));
    let t = _mm_add_pd(t, cmul128(a[2], w[2]));
    _mm_add_pd(t, cmul128(a[3], w[3]))
}

#[inline(always)]
unsafe fn row256(a: &[__m256d; 4], w: &[(__m256d, __m256d); 4]) -> __m256d {
    let t = _mm256_add_pd(cmul256(a[0], w[0]), cmul256(a[1], w[1]));
    let t = _mm256_add_pd(t, cmul256(a[2], w[2]));
    _mm256_add_pd(t, cmul256(a[3], w[3]))
}

pub(crate) unsafe fn apply4_dense_sse2(
    m: &[f64; 32],
    s00: &mut [f64],
    s01: &mut [f64],
    s10: &mut [f64],
    s11: &mut [f64],
) {
    let w: [[(__m128d, __m128d); 4]; 4] = std::array::from_fn(|r| {
        std::array::from_fn(|c| unsafe { w128(m[(4 * r + c) * 2], m[(4 * r + c) * 2 + 1]) })
    });
    for k in (0..s00.len()).step_by(2) {
        let a = [
            _mm_loadu_pd(s00.as_ptr().add(k)),
            _mm_loadu_pd(s01.as_ptr().add(k)),
            _mm_loadu_pd(s10.as_ptr().add(k)),
            _mm_loadu_pd(s11.as_ptr().add(k)),
        ];
        _mm_storeu_pd(s00.as_mut_ptr().add(k), row128(&a, &w[0]));
        _mm_storeu_pd(s01.as_mut_ptr().add(k), row128(&a, &w[1]));
        _mm_storeu_pd(s10.as_mut_ptr().add(k), row128(&a, &w[2]));
        _mm_storeu_pd(s11.as_mut_ptr().add(k), row128(&a, &w[3]));
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn apply4_dense_avx2(
    m: &[f64; 32],
    s00: &mut [f64],
    s01: &mut [f64],
    s10: &mut [f64],
    s11: &mut [f64],
) {
    let w: [[(__m256d, __m256d); 4]; 4] = std::array::from_fn(|r| {
        std::array::from_fn(|c| unsafe { w256(m[(4 * r + c) * 2], m[(4 * r + c) * 2 + 1]) })
    });
    let n4 = s00.len() & !3;
    for k in (0..n4).step_by(4) {
        let a = [
            _mm256_loadu_pd(s00.as_ptr().add(k)),
            _mm256_loadu_pd(s01.as_ptr().add(k)),
            _mm256_loadu_pd(s10.as_ptr().add(k)),
            _mm256_loadu_pd(s11.as_ptr().add(k)),
        ];
        _mm256_storeu_pd(s00.as_mut_ptr().add(k), row256(&a, &w[0]));
        _mm256_storeu_pd(s01.as_mut_ptr().add(k), row256(&a, &w[1]));
        _mm256_storeu_pd(s10.as_mut_ptr().add(k), row256(&a, &w[2]));
        _mm256_storeu_pd(s11.as_mut_ptr().add(k), row256(&a, &w[3]));
    }
    if n4 < s00.len() {
        apply4_dense_sse2(
            m,
            &mut s00[n4..],
            &mut s01[n4..],
            &mut s10[n4..],
            &mut s11[n4..],
        );
    }
}

pub(crate) unsafe fn accumulate_sq_sse2(lanes: &mut [f64; 4], xs: &[f64]) {
    let mut acc_a = _mm_loadu_pd(lanes.as_ptr());
    let mut acc_b = _mm_loadu_pd(lanes.as_ptr().add(2));
    let chunks = xs.chunks_exact(4);
    let rem = chunks.remainder();
    for c in chunks {
        let v0 = _mm_loadu_pd(c.as_ptr());
        let v1 = _mm_loadu_pd(c.as_ptr().add(2));
        acc_a = _mm_add_pd(acc_a, _mm_mul_pd(v0, v0));
        acc_b = _mm_add_pd(acc_b, _mm_mul_pd(v1, v1));
    }
    _mm_storeu_pd(lanes.as_mut_ptr(), acc_a);
    _mm_storeu_pd(lanes.as_mut_ptr().add(2), acc_b);
    for (k, x) in rem.iter().enumerate() {
        lanes[k & 3] += x * x;
    }
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn accumulate_sq_avx2(lanes: &mut [f64; 4], xs: &[f64]) {
    let mut acc = _mm256_loadu_pd(lanes.as_ptr());
    let chunks = xs.chunks_exact(4);
    let rem = chunks.remainder();
    for c in chunks {
        let v = _mm256_loadu_pd(c.as_ptr());
        acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
    }
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    for (k, x) in rem.iter().enumerate() {
        lanes[k & 3] += x * x;
    }
}

/// The terms of one vector of a Pauli pass, one per lane: flip masks as
/// byte offsets, sign masks, and each block sign pattern bit-reversed, so
/// that the sign of amplitude `j` of a block reaches bit 63 after `j` left
/// shifts. A lane past the vector's last term is the identity string; its
/// sum is dropped.
#[derive(Clone, Copy)]
pub(crate) struct Lanes<const L: usize> {
    /// `16·x`: amplitude `i`'s partner is at byte `16·i ^ 16·x`, one
    /// `xor` per term and amplitude.
    x_bytes: [usize; L],
    z: [usize; L],
    rev_signs: [u64; L],
}

impl<const L: usize> Lanes<L> {
    fn pack(masks: impl Iterator<Item = PauliMask>) -> Self {
        let mut lanes = Lanes {
            x_bytes: [0; L],
            z: [0; L],
            rev_signs: [0; L],
        };
        for (l, m) in masks.enumerate() {
            lanes.x_bytes[l] = 16 * m.x;
            lanes.z[l] = m.z;
            lanes.rev_signs[l] = m.low_signs.reverse_bits();
        }
        lanes
    }

    /// Every lane's sign word for the block at `base`, entered at offset
    /// `j`: its bit 63 is the sign of amplitude `base + j`.
    #[inline(always)]
    fn block_signs(&self, base: usize, j: usize) -> [u64; L] {
        std::array::from_fn(|l| {
            let high = u64::from((base & self.z[l]).count_ones() & 1);
            (self.rev_signs[l] ^ high.wrapping_neg()) << j
        })
    }
}

/// A pass kernel: `G` vectors of `L` terms over a range of amplitudes.
type PassFn<const L: usize> = unsafe fn(&[f64], &[Lanes<L>], Range<usize>, &mut [[f64; L]]);

/// The instance of `$kernel` for `$vectors` accumulators.
macro_rules! by_vectors {
    ($kernel:ident, $vectors:expr, $flip:literal, $imag:literal, $signed:literal) => {
        match $vectors {
            1 => $kernel::<1, $flip, $imag, $signed> as PassFn<_>,
            2 => $kernel::<2, $flip, $imag, $signed>,
            3 => $kernel::<3, $flip, $imag, $signed>,
            _ => $kernel::<PAULI_PASS_VECTORS, $flip, $imag, $signed>,
        }
    };
}

/// The instance of `$kernel` for a pass of `$kind` terms in `$vectors`
/// accumulators: pure X strings (`!$signed`) skip the sign operations,
/// and an unsigned diagonal term (the identity) shares the signed
/// kernel, whose sign words are then zero.
macro_rules! pass_kernel {
    ($kernel:ident, $kind:expr, $signed:expr, $vectors:expr) => {
        match ($kind, $signed) {
            (PauliKind::Diagonal, _) => by_vectors!($kernel, $vectors, false, false, true),
            (PauliKind::Real, false) => by_vectors!($kernel, $vectors, true, false, false),
            (PauliKind::Real, true) => by_vectors!($kernel, $vectors, true, false, true),
            (PauliKind::Imag, _) => by_vectors!($kernel, $vectors, true, true, true),
        }
    };
}

/// Splits `terms` into passes of up to [`PAULI_PASS_VECTORS`] vectors of
/// `L` lanes, one kind and sign class per pass, runs `kernel` on each and
/// stores every lane's sum at its term's position in `sums`.
fn pauli_plan<const L: usize>(
    terms: &[PauliMask],
    sums: &mut [f64],
    mut kernel: impl FnMut(PauliKind, bool, &[Lanes<L>], &mut [[f64; L]]),
) {
    let class = |t: &usize| (terms[*t].kind(), terms[*t].signed());
    let mut order: Vec<usize> = (0..terms.len()).collect();
    order.sort_by_key(class);
    for same in order.chunk_by(|a, b| class(a) == class(b)) {
        let (kind, signed) = class(&same[0]);
        for pass in same.chunks(L * PAULI_PASS_VECTORS) {
            let lanes: Vec<Lanes<L>> = pass
                .chunks(L)
                .map(|v| Lanes::pack(v.iter().map(|&t| terms[t])))
                .collect();
            let mut out = vec![[0.0; L]; lanes.len()];
            kernel(kind, signed, &lanes, &mut out);
            for (&t, s) in pass.iter().zip(out.iter().flatten()) {
                sums[t] = *s;
            }
        }
    }
}

/// SSE2 arm of [`crate::pauli_sums`]: two terms per vector.
///
/// # Safety
///
/// `amps` holds a power-of-two count `n` of `[re, im]` pairs,
/// `range.end <= n`, and every term flips only qubits below `n`, so that
/// every partner `i ^ x` of an amplitude in `range` lies inside `amps`.
pub(crate) unsafe fn pauli_sums_sse2(
    amps: &[f64],
    terms: &[PauliMask],
    range: Range<usize>,
    sums: &mut [f64],
) {
    pauli_plan::<2>(terms, sums, |kind, signed, lanes, out| {
        let kernel = pass_kernel!(pauli_sse2, kind, signed, lanes.len());
        // SAFETY: the caller's contract (SSE2 is the x86_64 baseline;
        // every partner index lies inside `amps`).
        unsafe { kernel(amps, lanes, range.clone(), out) }
    });
}

/// AVX2 arm of [`crate::pauli_sums`]: four terms per vector.
///
/// # Safety
///
/// As [`pauli_sums_sse2`], and the CPU supports AVX2.
pub(crate) unsafe fn pauli_sums_avx2(
    amps: &[f64],
    terms: &[PauliMask],
    range: Range<usize>,
    sums: &mut [f64],
) {
    pauli_plan::<4>(terms, sums, |kind, signed, lanes, out| {
        let kernel = pass_kernel!(pauli_avx2, kind, signed, lanes.len());
        // SAFETY: the caller's contract (AVX2 was detected; every partner
        // index lies inside `amps`).
        unsafe { kernel(amps, lanes, range.clone(), out) }
    });
}

/// `G` vectors of two terms each over `range`. Per amplitude `a` and
/// term partner `b`, a lane forms `a.re·b.re + a.im·b.im` (`FLIP`), or
/// `(−a.im)·b.re + a.re·b.im` (`FLIP && IMAG`: the scalar
/// `a.re·b.im − a.im·b.re` with the operands of its one add swapped), or
/// `a.re² + a.im²`, XORs the amplitude's sign bit in when `SIGNED`, and
/// adds that to its accumulator.
///
/// # Safety
///
/// As [`pauli_sums_sse2`], and `lanes` holds at least `G` vectors.
unsafe fn pauli_sse2<const G: usize, const FLIP: bool, const IMAG: bool, const SIGNED: bool>(
    amps: &[f64],
    lanes: &[Lanes<2>],
    range: Range<usize>,
    out: &mut [[f64; 2]],
) {
    let p = amps.as_ptr();
    let bytes = p.cast::<u8>();
    let sign = _mm_set1_epi64x(i64::MIN);
    let neg_re = _mm_set_pd(0.0, -0.0);
    let mut x = [[0usize; 2]; G];
    for g in 0..G {
        x[g] = lanes[g].x_bytes;
    }
    let mut acc = [_mm_setzero_pd(); G];
    let mut sv = [_mm_setzero_si128(); G];
    let mut lo = range.start;
    while lo < range.end {
        let base = lo & !63;
        let hi = (base + 64).min(range.end);
        for g in 0..G {
            let s = lanes[g].block_signs(base, lo - base);
            sv[g] = _mm_loadu_si128(s.as_ptr().cast());
        }
        for i in lo..hi {
            let a = _mm_loadu_pd(p.add(2 * i));
            let v = if !FLIP {
                let sq = _mm_mul_pd(a, a);
                let n = _mm_add_sd(sq, _mm_unpackhi_pd(sq, sq));
                _mm_unpacklo_pd(n, n)
            } else if IMAG {
                _mm_xor_pd(_mm_shuffle_pd(a, a, 0b01), neg_re)
            } else {
                a
            };
            for g in 0..G {
                let mut r = v;
                if FLIP {
                    let b = |l: usize| bytes.add((16 * i) ^ x[g][l]).cast::<f64>();
                    let p0 = _mm_mul_pd(v, _mm_loadu_pd(b(0)));
                    let p1 = _mm_mul_pd(v, _mm_loadu_pd(b(1)));
                    r = _mm_add_pd(_mm_unpacklo_pd(p0, p1), _mm_unpackhi_pd(p0, p1));
                }
                if SIGNED {
                    r = _mm_xor_pd(r, _mm_castsi128_pd(_mm_and_si128(sv[g], sign)));
                    sv[g] = _mm_slli_epi64(sv[g], 1);
                }
                acc[g] = _mm_add_pd(acc[g], r);
            }
        }
        lo = hi;
    }
    for (out, acc) in out.iter_mut().zip(acc) {
        _mm_storeu_pd(out.as_mut_ptr(), acc);
    }
}

/// The AVX2 form of [`pauli_sse2`]: four terms per vector. A flip reads
/// the partners of lanes 0 and 2 into one register and those of lanes 1
/// and 3 into another, so one `hadd` of their products forms all four.
///
/// # Safety
///
/// As [`pauli_sse2`], and the CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn pauli_avx2<const G: usize, const FLIP: bool, const IMAG: bool, const SIGNED: bool>(
    amps: &[f64],
    lanes: &[Lanes<4>],
    range: Range<usize>,
    out: &mut [[f64; 4]],
) {
    let p = amps.as_ptr();
    let bytes = p.cast::<u8>();
    let sign = _mm256_set1_epi64x(i64::MIN);
    let neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
    let mut x = [[0usize; 4]; G];
    for g in 0..G {
        x[g] = lanes[g].x_bytes;
    }
    let mut acc = [_mm256_setzero_pd(); G];
    let mut sv = [_mm256_setzero_si256(); G];
    let mut lo = range.start;
    while lo < range.end {
        let base = lo & !63;
        let hi = (base + 64).min(range.end);
        for g in 0..G {
            let s = lanes[g].block_signs(base, lo - base);
            sv[g] = _mm256_loadu_si256(s.as_ptr().cast());
        }
        for i in lo..hi {
            let v = if !FLIP {
                let a = _mm_loadu_pd(p.add(2 * i));
                let sq = _mm_mul_pd(a, a);
                _mm256_broadcastsd_pd(_mm_add_sd(sq, _mm_unpackhi_pd(sq, sq)))
            } else {
                let a = _mm256_loadu2_m128d(p.add(2 * i), p.add(2 * i));
                if IMAG {
                    _mm256_xor_pd(_mm256_permute_pd(a, 0b0101), neg_re)
                } else {
                    a
                }
            };
            for g in 0..G {
                let mut r = v;
                if FLIP {
                    let b = |l: usize| bytes.add((16 * i) ^ x[g][l]).cast::<f64>();
                    let b02 = _mm256_loadu2_m128d(b(2), b(0));
                    let b13 = _mm256_loadu2_m128d(b(3), b(1));
                    r = _mm256_hadd_pd(_mm256_mul_pd(v, b02), _mm256_mul_pd(v, b13));
                }
                if SIGNED {
                    r = _mm256_xor_pd(r, _mm256_castsi256_pd(_mm256_and_si256(sv[g], sign)));
                    sv[g] = _mm256_slli_epi64(sv[g], 1);
                }
                acc[g] = _mm256_add_pd(acc[g], r);
            }
        }
        lo = hi;
    }
    for (out, acc) in out.iter_mut().zip(acc) {
        _mm256_storeu_pd(out.as_mut_ptr(), acc);
    }
}

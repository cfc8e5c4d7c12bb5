//! CRC32 (IEEE 802.3, reflected) by carry-less multiplication.
//!
//! The standard PCLMULQDQ fold (Gopal et al., "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ Instruction"): four 128-bit lanes
//! each absorb the 64 bytes that follow them by multiplying with
//! `x^(512±32) mod P`, the lanes collapse into one with `x^(128±32)`,
//! further 16-byte blocks fold into that lane, and the surviving 128
//! bits reduce to 32 by one 64-bit fold and a Barrett step. CRC is
//! linear, so the result is the exact register a byte-at-a-time loop
//! leaves — backend equivalence is equality of `u32`s, pinned by
//! `qcheck`'s `hash_accel` suite against the bitwise oracle.
//!
//! All constants are for the bit-reflected domain.

use core::arch::x86_64::*;

/// `x^(4·128+32) mod P`, `x^(4·128−32) mod P`: fold a lane over 64 bytes.
const K1: i64 = 0x1_5444_2bd4;
const K2: i64 = 0x1_c6e4_1596;
/// `x^(128+32) mod P`, `x^(128−32) mod P`: fold a lane over 16 bytes.
const K3: i64 = 0x1_7519_97d0;
const K4: i64 = 0x0_ccaa_009e;
/// `x^64 mod P`: fold 96 bits to 64.
const K5: i64 = 0x1_63cd_6124;
/// The polynomial `P` and the Barrett constant `µ = ⌊x^64 / P⌋`.
const POLY: i64 = 0x1_db71_0641;
const MU: i64 = 0x1_f701_1641;

/// Folds `data` into the CRC32 register `state` — the *internal*
/// register (no pre- or post-inversion), exactly what a table-driven
/// `crc32_update(state, data)` takes and returns.
///
/// `data.len()` must be a multiple of 16 and at least 64; every load goes
/// through a checked 16-byte slice, so a shorter input panics rather than
/// reading out of bounds.
///
/// # Safety
///
/// The caller must have runtime-verified the `pclmulqdq` and `sse4.1`
/// CPU features.
#[target_feature(enable = "pclmulqdq,sse4.1")]
pub(crate) unsafe fn fold_pclmul(state: u32, data: &[u8]) -> u32 {
    debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
    let mut blocks = data.chunks_exact(16);
    macro_rules! load {
        () => {
            _mm_loadu_si128(
                blocks
                    .next()
                    .expect("caller checked the length")
                    .as_ptr()
                    .cast(),
            )
        };
    }
    // `lane ← lane · k ⊕ next`: both halves of the lane move past the
    // bytes `next` came from.
    macro_rules! fold {
        ($lane:expr, $k:expr, $next:expr) => {{
            let lo = _mm_clmulepi64_si128($lane, $k, 0x00);
            let hi = _mm_clmulepi64_si128($lane, $k, 0x11);
            _mm_xor_si128(_mm_xor_si128(lo, hi), $next)
        }};
    }

    // Seeding with a non-initial register is the same linearity: the
    // register is what the first four bytes are xored with.
    let mut x1 = _mm_xor_si128(load!(), _mm_cvtsi32_si128(state as i32));
    let mut x2 = load!();
    let mut x3 = load!();
    let mut x4 = load!();
    let mut left = data.len() / 16 - 4;

    let k1k2 = _mm_set_epi64x(K2, K1);
    while left >= 4 {
        x1 = fold!(x1, k1k2, load!());
        x2 = fold!(x2, k1k2, load!());
        x3 = fold!(x3, k1k2, load!());
        x4 = fold!(x4, k1k2, load!());
        left -= 4;
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    x1 = fold!(x1, k3k4, x2);
    x1 = fold!(x1, k3k4, x3);
    x1 = fold!(x1, k3k4, x4);
    while left > 0 {
        x1 = fold!(x1, k3k4, load!());
        left -= 1;
    }

    // 128 → 64 bits.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    let t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
    let t = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, low32);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, _mm_set_epi64x(0, K5), 0x00), t);

    // Barrett reduction, 64 → 32 bits.
    let pmu = _mm_set_epi64x(MU, POLY);
    let t = _mm_and_si128(x1, low32);
    let t = _mm_clmulepi64_si128(t, pmu, 0x10);
    let t = _mm_and_si128(t, low32);
    let t = _mm_clmulepi64_si128(t, pmu, 0x00);
    _mm_extract_epi32(_mm_xor_si128(x1, t), 1) as u32
}

//! Explicit-SIMD primitives behind runtime dispatch.
//!
//! This crate is the workspace's single home for `core::arch` intrinsics:
//! `qsim` (gate kernels, reductions, Pauli-sum expectations via
//! [`pauli_sums`]) and `qcheck` (SHA-256, CRC32) call the safe wrappers
//! here and stay `unsafe`-free themselves. Three rules govern every
//! kernel:
//!
//! 1. **Scalar is the oracle.** Every vector arm reproduces the scalar
//!    arm's per-element operation order exactly — multiplies and adds
//!    only, never FMA (contraction changes rounding), subtraction only as
//!    `a + (-b)`, an add's two operands in either order, a sign flip only
//!    as an XOR of the sign bit (each bit-identical per IEEE 754). The
//!    property suites here and in `qsim` and `qcheck` pin vector == scalar
//!    on random inputs.
//! 2. **Dispatch is resolved by the caller, once, on the calling
//!    thread.** Kernels take an explicit [`Level`] so parallel executors
//!    resolve `QSIM_SIMD` (or a [`with_level`] test override) *before*
//!    fanning work out to scoped worker threads, which cannot see the
//!    caller's thread-local override.
//! 3. **Reductions use a fixed lane structure.** Horizontal sums are not
//!    order-preserving, so [`accumulate_sq`] defines one canonical
//!    4-lane accumulation (lane `i & 3`, combined by [`combine_lanes`])
//!    that the scalar, SSE2 and AVX2 arms all implement bit-identically.
//!    [`pauli_sums`] needs no such structure: its lanes are terms, not
//!    amplitudes, so each lane is one term's sequential chain in index
//!    order and nothing is ever summed across lanes.
//!
//! ## Selection
//!
//! `QSIM_SIMD={auto,scalar,sse2,avx2}` (default `auto`) caps the level;
//! the effective level is `min(requested, detected)`. On x86_64 SSE2 is
//! architecturally guaranteed, so `auto` is at least [`Level::Sse2`]
//! there; on other architectures every level resolves to
//! [`Level::Scalar`]. `QSIM_SIMD=scalar` also forces the scalar SHA-256
//! and CRC32 backends, keeping one switch for every accelerated path.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod crc;
mod scalar;
#[cfg(target_arch = "x86_64")]
mod sha;
#[cfg(target_arch = "x86_64")]
mod x86;

/// Name of the environment variable selecting the SIMD level.
pub const SIMD_ENV: &str = "QSIM_SIMD";

/// Instruction-set tier a kernel call runs at. Ordered: a request above
/// the detected tier clamps down to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Plain scalar loops — the bit-exactness oracle.
    Scalar,
    /// 128-bit SSE2 (one complex amplitude per vector). Baseline on
    /// x86_64.
    Sse2,
    /// 256-bit AVX2 (two complex amplitudes per vector).
    Avx2,
}

impl Level {
    /// Lower-case name as accepted by `QSIM_SIMD` (`scalar`/`sse2`/`avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Sse2 => "sse2",
            Level::Avx2 => "avx2",
        }
    }
}

/// SHA-256 compression backend in effect (see [`sha_backend`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShaBackend {
    /// The caller's portable compression loop.
    Scalar,
    /// Hardware SHA extensions (`sha256rnds2` et al.).
    ShaNi,
}

impl ShaBackend {
    /// Stable name for bench/report output.
    pub fn name(self) -> &'static str {
        match self {
            ShaBackend::Scalar => "scalar",
            ShaBackend::ShaNi => "sha-ni",
        }
    }
}

/// Highest SIMD level this CPU supports (cached after first probe).
pub fn detected() -> Level {
    static DETECTED: OnceLock<Level> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                Level::Avx2
            } else {
                // SSE2 is part of the x86_64 baseline.
                Level::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Level::Scalar
        }
    })
}

/// Whether the SHA extensions (plus the SSSE3/SSE4.1 shuffles the
/// round loop needs) are available.
fn sha_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether carry-less multiplication (plus the SSE4.1 extract the CRC
/// fold ends on) is available.
fn pclmul_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Parses a `QSIM_SIMD` value into a cap: `None` means `auto` (use
/// whatever is detected), which is also what an empty value means.
///
/// # Errors
///
/// Any other spelling, with the accepted ones listed.
pub fn parse_cap(value: &str) -> Result<Option<Level>, String> {
    match value.trim() {
        "" | "auto" => Ok(None),
        "scalar" => Ok(Some(Level::Scalar)),
        "sse2" => Ok(Some(Level::Sse2)),
        "avx2" => Ok(Some(Level::Avx2)),
        other => Err(format!(
            "{SIMD_ENV}={other:?} (expected \"auto\", \"scalar\", \"sse2\" or \"avx2\", \
             or leave it unset)"
        )),
    }
}

/// `QSIM_SIMD` cap, read once. Panics on a value [`parse_cap`] rejects:
/// `scalar` is the bit-exactness oracle, and a typo that silently ran the
/// detected level would leave an oracle run testing nothing.
fn env_cap() -> Option<Level> {
    static CAP: OnceLock<Option<Level>> = OnceLock::new();
    *CAP.get_or_init(|| {
        let value = std::env::var(SIMD_ENV).unwrap_or_default();
        parse_cap(&value).unwrap_or_else(|msg| panic!("{msg}"))
    })
}

thread_local! {
    /// 0 = inherit env, 1 = force scalar, 2 = cap at sse2, 3 = cap at avx2.
    static LOCAL_LEVEL: Cell<u8> = const { Cell::new(0) };
}

/// The SIMD level in effect on this thread: a [`with_level`] override
/// first, then the `QSIM_SIMD` cap, clamped to what the CPU supports.
///
/// Parallel callers must resolve this **before** fanning out: worker
/// threads do not inherit the caller's override.
///
/// # Panics
///
/// On the first read of an unrecognised `QSIM_SIMD` value (see
/// [`parse_cap`]).
pub fn active() -> Level {
    let cap = match LOCAL_LEVEL.with(Cell::get) {
        1 => Some(Level::Scalar),
        2 => Some(Level::Sse2),
        3 => Some(Level::Avx2),
        _ => env_cap(),
    };
    match cap {
        Some(l) => l.min(detected()),
        None => detected(),
    }
}

/// The SHA-256 backend in effect on this thread: hardware when the SHA
/// extensions exist and the SIMD switch is not forcing `scalar`.
pub fn sha_backend() -> ShaBackend {
    if sha_detected() && active() != Level::Scalar {
        ShaBackend::ShaNi
    } else {
        ShaBackend::Scalar
    }
}

/// Runs `f` with a thread-local SIMD-level override — the hook the
/// equivalence suites use to compare levels inside one process.
pub fn with_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_LEVEL.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_LEVEL.with(Cell::get);
    let _restore = Restore(prev);
    LOCAL_LEVEL.with(|c| {
        c.set(match level {
            Level::Scalar => 1,
            Level::Sse2 => 2,
            Level::Avx2 => 3,
        })
    });
    f()
}

/// Comma-separated list of the detected CPU features relevant to this
/// crate's kernels — stamped into the tracked bench JSON so cross-box
/// numbers are interpretable.
pub fn cpu_features() -> &'static str {
    static FEATURES: OnceLock<String> = OnceLock::new();
    FEATURES.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let mut out = Vec::new();
            macro_rules! probe {
                ($($name:tt),*) => {
                    $(if std::arch::is_x86_feature_detected!($name) {
                        out.push($name);
                    })*
                };
            }
            probe!("sse2", "ssse3", "sse4.1", "avx", "avx2", "sha", "pclmulqdq");
            out.join(",")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            String::from("none")
        }
    })
}

/// Compresses whole 64-byte blocks into a SHA-256 state with the
/// hardware backend. Returns `false` (without touching `state`) when the
/// active backend is scalar — the caller then runs its own portable
/// loop, which stays the oracle.
///
/// # Panics
///
/// Panics when `blocks.len()` is not a multiple of 64.
pub fn sha256_compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    assert_eq!(blocks.len() % 64, 0, "partial SHA-256 block");
    if sha_backend() != ShaBackend::ShaNi {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: sha_backend() returned ShaNi, so the sha/ssse3/sse4.1
    // features were runtime-detected on this CPU.
    unsafe {
        sha::compress_blocks_shani(state, blocks);
    }
    true
}

/// Folds `data` into a CRC32 (IEEE 802.3, reflected) *internal* register
/// with the carry-less-multiply backend. Returns `false` (without
/// touching `state`) when the CPU lacks PCLMULQDQ/SSE4.1 or the SIMD
/// switch forces `scalar` — the caller then runs its own table loop,
/// which stays the oracle.
///
/// # Panics
///
/// Panics when `data.len()` is below 64 (the four 128-bit lanes the fold
/// starts from) or not a multiple of 16.
pub fn crc32_fold(state: &mut u32, data: &[u8]) -> bool {
    assert!(
        data.len() >= 64 && data.len().is_multiple_of(16),
        "crc32_fold takes whole 16-byte blocks, at least four"
    );
    if !pclmul_detected() || active() == Level::Scalar {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: pclmul_detected() saw the pclmulqdq and sse4.1 features on
    // this CPU, which is all the kernel requires (its loads are checked).
    unsafe {
        *state = crc::fold_pclmul(*state, data);
    }
    true
}

/// 2×2 complex dense apply: `(lo[k], hi[k]) ← M · (lo[k], hi[k])` over
/// flattened `[re, im]` pairs. `m` is the row-major flattened matrix
/// `[m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i]`; `lo`/`hi` are
/// equal-length slices of even length.
pub fn apply2_dense(level: Level, m: &[f64; 8], lo: &mut [f64], hi: &mut [f64]) {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len() % 2, 0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86_64 baseline; AVX2 arms are only
        // reachable when `active()`/`detected()` clamped the level to a
        // runtime-verified feature set.
        Level::Sse2 => unsafe { x86::apply2_dense_sse2(m, lo, hi) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::apply2_dense_avx2(m, lo, hi) },
        _ => scalar::apply2_dense(m, lo, hi),
    }
}

/// 2×2 real dense apply (all matrix entries real):
/// `m = [m00, m01, m10, m11]`.
pub fn apply2_real(level: Level, m: &[f64; 4], lo: &mut [f64], hi: &mut [f64]) {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len() % 2, 0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see apply2_dense.
        Level::Sse2 => unsafe { x86::apply2_real_sse2(m, lo, hi) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::apply2_real_avx2(m, lo, hi) },
        _ => scalar::apply2_real(m, lo, hi),
    }
}

/// 2×2 complex dense apply over adjacent pairs: `xs` is a flattened run
/// of `[a0, a1]` amplitude pairs (4 doubles per pair), the qubit-0
/// layout where `lo`/`hi` interleave.
pub fn apply2_adjacent(level: Level, m: &[f64; 8], xs: &mut [f64]) {
    debug_assert_eq!(xs.len() % 4, 0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see apply2_dense.
        Level::Sse2 => unsafe { x86::apply2_adjacent_sse2(m, xs) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::apply2_adjacent_avx2(m, xs) },
        _ => scalar::apply2_adjacent(m, xs),
    }
}

/// Real-matrix variant of [`apply2_adjacent`].
pub fn apply2_adjacent_real(level: Level, m: &[f64; 4], xs: &mut [f64]) {
    debug_assert_eq!(xs.len() % 4, 0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see apply2_dense.
        Level::Sse2 => unsafe { x86::apply2_adjacent_real_sse2(m, xs) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::apply2_adjacent_real_avx2(m, xs) },
        _ => scalar::apply2_adjacent_real(m, xs),
    }
}

/// Complex scale in place: `x[k] ← c · x[k]` over flattened pairs.
pub fn scale(level: Level, xs: &mut [f64], cr: f64, ci: f64) {
    debug_assert_eq!(xs.len() % 2, 0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see apply2_dense.
        Level::Sse2 => unsafe { x86::scale_sse2(xs, cr, ci) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::scale_avx2(xs, cr, ci) },
        _ => scalar::scale(xs, cr, ci),
    }
}

/// Scaled swap: `(si[k], sj[k]) ← (ci · sj[k], cj · si[k])` over
/// flattened pairs — the transposition-kernel body.
pub fn swap_scale(level: Level, si: &mut [f64], sj: &mut [f64], ci: (f64, f64), cj: (f64, f64)) {
    debug_assert_eq!(si.len(), sj.len());
    debug_assert_eq!(si.len() % 2, 0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see apply2_dense.
        Level::Sse2 => unsafe { x86::swap_scale_sse2(si, sj, ci, cj) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::swap_scale_avx2(si, sj, ci, cj) },
        _ => scalar::swap_scale(si, sj, ci, cj),
    }
}

/// 4×4 complex dense apply over four aligned quad slices. `m` is the
/// row-major flattened matrix (32 doubles); each output row is
/// `((m_r0·a0 + m_r1·a1) + m_r2·a2) + m_r3·a3` in that association.
pub fn apply4_dense(
    level: Level,
    m: &[f64; 32],
    s00: &mut [f64],
    s01: &mut [f64],
    s10: &mut [f64],
    s11: &mut [f64],
) {
    debug_assert_eq!(s00.len(), s01.len());
    debug_assert_eq!(s00.len(), s10.len());
    debug_assert_eq!(s00.len(), s11.len());
    debug_assert_eq!(s00.len() % 2, 0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see apply2_dense.
        Level::Sse2 => unsafe { x86::apply4_dense_sse2(m, s00, s01, s10, s11) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::apply4_dense_avx2(m, s00, s01, s10, s11) },
        _ => scalar::apply4_dense(m, s00, s01, s10, s11),
    }
}

/// Accumulates `x²` into four fixed lanes: element `xs[k]` lands in
/// `lanes[k & 3]`, in index order. Every level produces identical bits —
/// this lane structure (not a sequential fold) is the determinism
/// contract for vectorized sum-of-squares reductions. Callers keep the
/// lanes across calls and fold them once with [`combine_lanes`].
pub fn accumulate_sq(level: Level, lanes: &mut [f64; 4], xs: &[f64]) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see apply2_dense.
        Level::Sse2 => unsafe { x86::accumulate_sq_sse2(lanes, xs) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::accumulate_sq_avx2(lanes, xs) },
        _ => scalar::accumulate_sq(lanes, xs),
    }
}

/// Folds the four reduction lanes in the canonical order
/// `(l0 + l2) + (l1 + l3)` — the order a 128-bit horizontal sum of two
/// paired accumulators produces, fixed here so every level agrees.
pub fn combine_lanes(lanes: [f64; 4]) -> f64 {
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// One Pauli string as index masks, the unit [`pauli_sums`] sums.
///
/// The string with X-or-Y qubits `x` and Z-or-Y qubits `z` (its
/// `y = popcount(x & z)` Y factors are the shared bits) maps
/// `(P|ψ⟩)ᵢ = (−i)^y · (−1)^popcount(i & z) · ψ_{i⊕x}`, so its share of
/// `Re⟨ψ|P|ψ⟩` at amplitude `i` is `±|ψᵢ|²` when `x = 0`, else
/// `±Re(conj(ψᵢ)·ψ_{i⊕x})` for even `y` and `±Im(conj(ψᵢ)·ψ_{i⊕x})` for
/// odd `y`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PauliMask {
    /// The qubits the string flips: its X and Y factors.
    x: usize,
    /// The qubits whose bit signs an amplitude: its Z and Y factors.
    z: usize,
    /// Sign bit `j` of a 64-amplitude block: the parity of `j & z`,
    /// inverted when `(−i)^y` is `−1` or `i` (the negated `1` and `−i`).
    low_signs: u64,
}

/// Which product a [`PauliMask`] sums per amplitude.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum PauliKind {
    /// No X or Y factor: `±|ψᵢ|²`.
    Diagonal,
    /// A flip with real phase: `±Re(conj(ψᵢ)·ψ_{i⊕x})`.
    Real,
    /// A flip with imaginary phase: `±Im(conj(ψᵢ)·ψ_{i⊕x})`.
    Imag,
}

/// Bit `j` is set when `j` has bit `b` set, for the six low index bits.
const LOW_BIT_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl PauliMask {
    /// The string with X-or-Y factors on the qubits of `x` and Z-or-Y
    /// factors on those of `z` (bit `q` is qubit `q`).
    pub fn new(x: usize, z: usize) -> Self {
        let y = (x & z).count_ones();
        let mut low_signs = if y % 4 >= 2 { u64::MAX } else { 0 };
        for (b, pattern) in LOW_BIT_PATTERNS.iter().enumerate() {
            if z >> b & 1 == 1 {
                low_signs ^= pattern;
            }
        }
        PauliMask { x, z, low_signs }
    }

    fn kind(&self) -> PauliKind {
        match (self.x, (self.x & self.z).count_ones() % 2) {
            (0, _) => PauliKind::Diagonal,
            (_, 0) => PauliKind::Real,
            _ => PauliKind::Imag,
        }
    }

    /// Whether any amplitude's product is negated: a string without Z or
    /// Y factors (a pure X string) never negates, and its pass skips the
    /// sign operations.
    fn signed(&self) -> bool {
        self.z != 0
    }

    /// Sign bits of the 64-amplitude block starting at `base`.
    #[inline]
    fn signs(&self, base: usize) -> u64 {
        let high = u64::from((base & self.z).count_ones() & 1);
        self.low_signs ^ high.wrapping_neg()
    }
}

/// Accumulators one vector pass keeps: two terms each at SSE2, four at
/// AVX2, so that independent addition chains overlap.
const PAULI_PASS_VECTORS: usize = 4;

/// Sums each term's share of `Re⟨ψ|P|ψ⟩` over the amplitudes in `range`
/// into `sums[t]`: from `+0.0`, in index order. `amps` is a flattened
/// `[re, im]` state of a power-of-two length.
///
/// Every level does exactly the scalar arm's operations per term — the
/// product as `a.re·b.re + a.im·b.im` (or `a.re·b.im − a.im·b.re`), its
/// sign flipped by XOR on the sign bit, one add per amplitude — so each
/// `sums[t]` is bit-identical across levels. The vector arms put terms,
/// not amplitudes, in lanes: terms of one kind share a pass over the
/// range, and a pass of pure X strings skips the sign operations. A
/// `level` above [`detected`] runs at the detected level.
///
/// # Panics
///
/// When `amps` is not a power-of-two count of pairs, `range` leaves it,
/// a term flips a qubit outside it, or `sums` and `terms` differ in
/// length.
pub fn pauli_sums(
    level: Level,
    amps: &[f64],
    terms: &[PauliMask],
    range: Range<usize>,
    sums: &mut [f64],
) {
    let n = amps.len() / 2;
    assert!(
        amps.len().is_multiple_of(2) && n.is_power_of_two(),
        "pauli_sums takes a power-of-two count of [re, im] pairs"
    );
    assert!(
        range.start <= range.end && range.end <= n,
        "range outside the state"
    );
    assert!(
        terms.iter().all(|t| t.x < n),
        "a term flips a qubit outside the state"
    );
    assert_eq!(terms.len(), sums.len(), "one sum per term");
    match level.min(detected()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level is clamped to what this CPU supports, and the
        // asserts above keep every partner index `i ^ x` inside `amps`.
        Level::Sse2 => unsafe { x86::pauli_sums_sse2(amps, terms, range, sums) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::pauli_sums_avx2(amps, terms, range, sums) },
        _ => scalar::pauli_sums(amps, terms, range, sums),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random doubles in ±1 (splitmix64 bits).
    fn fill(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                (z as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect()
    }

    fn levels() -> Vec<Level> {
        let mut l = vec![Level::Scalar, Level::Sse2.min(detected())];
        l.push(detected());
        l.dedup();
        l
    }

    #[test]
    fn simd_knob_rejects_typos() {
        for auto in ["", "auto", " auto "] {
            assert_eq!(parse_cap(auto), Ok(None), "{auto:?}");
        }
        for level in [Level::Scalar, Level::Sse2, Level::Avx2] {
            assert_eq!(parse_cap(level.name()), Ok(Some(level)));
        }
        for typo in ["sclar", "SCALAR", "avx512", "off"] {
            let msg = parse_cap(typo).unwrap_err();
            assert!(
                msg.contains(SIMD_ENV) && msg.contains(typo) && msg.contains("\"scalar\""),
                "{msg}"
            );
        }
    }

    #[test]
    fn level_parsing_and_clamp() {
        assert!(detected() >= Level::Scalar);
        assert_eq!(with_level(Level::Scalar, active), Level::Scalar);
        let capped = with_level(Level::Sse2, active);
        assert!(capped <= Level::Sse2);
    }

    #[test]
    fn apply2_variants_match_scalar_bits() {
        let m: [f64; 8] = fill(1, 8).try_into().unwrap();
        let mr: [f64; 4] = fill(2, 4).try_into().unwrap();
        for n in [2usize, 4, 6, 8, 30, 64, 126] {
            let lo0 = fill(3, n);
            let hi0 = fill(4, n);
            let mut want_lo = lo0.clone();
            let mut want_hi = hi0.clone();
            apply2_dense(Level::Scalar, &m, &mut want_lo, &mut want_hi);
            for lvl in levels() {
                let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                apply2_dense(lvl, &m, &mut lo, &mut hi);
                assert_eq!(bits(&lo), bits(&want_lo), "dense lo {lvl:?} n={n}");
                assert_eq!(bits(&hi), bits(&want_hi), "dense hi {lvl:?} n={n}");
            }
            let mut want_lo = lo0.clone();
            let mut want_hi = hi0.clone();
            apply2_real(Level::Scalar, &mr, &mut want_lo, &mut want_hi);
            for lvl in levels() {
                let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                apply2_real(lvl, &mr, &mut lo, &mut hi);
                assert_eq!(bits(&lo), bits(&want_lo), "real {lvl:?} n={n}");
                assert_eq!(bits(&hi), bits(&want_hi), "real {lvl:?} n={n}");
            }
        }
    }

    #[test]
    fn adjacent_scale_swap_match_scalar_bits() {
        let m: [f64; 8] = fill(5, 8).try_into().unwrap();
        let mr: [f64; 4] = fill(6, 4).try_into().unwrap();
        for n in [4usize, 8, 12, 32, 68, 124] {
            let xs0 = fill(7, n);
            for lvl in levels() {
                let mut want = xs0.clone();
                apply2_adjacent(Level::Scalar, &m, &mut want);
                let mut got = xs0.clone();
                apply2_adjacent(lvl, &m, &mut got);
                assert_eq!(bits(&got), bits(&want), "adjacent {lvl:?} n={n}");

                let mut want = xs0.clone();
                apply2_adjacent_real(Level::Scalar, &mr, &mut want);
                let mut got = xs0.clone();
                apply2_adjacent_real(lvl, &mr, &mut got);
                assert_eq!(bits(&got), bits(&want), "adjacent real {lvl:?} n={n}");

                let mut want = xs0.clone();
                scale(Level::Scalar, &mut want, 0.25, -1.5);
                let mut got = xs0.clone();
                scale(lvl, &mut got, 0.25, -1.5);
                assert_eq!(bits(&got), bits(&want), "scale {lvl:?} n={n}");

                let sj0 = fill(8, n);
                let (mut wi, mut wj) = (xs0.clone(), sj0.clone());
                swap_scale(Level::Scalar, &mut wi, &mut wj, (0.5, 0.25), (-1.0, 2.0));
                let (mut gi, mut gj) = (xs0.clone(), sj0.clone());
                swap_scale(lvl, &mut gi, &mut gj, (0.5, 0.25), (-1.0, 2.0));
                assert_eq!(bits(&gi), bits(&wi), "swap i {lvl:?} n={n}");
                assert_eq!(bits(&gj), bits(&wj), "swap j {lvl:?} n={n}");
            }
        }
    }

    #[test]
    fn apply4_matches_scalar_bits() {
        let m: [f64; 32] = fill(9, 32).try_into().unwrap();
        for n in [2usize, 4, 8, 30, 64] {
            let base: Vec<Vec<f64>> = (0..4).map(|k| fill(10 + k, n)).collect();
            let mut want: Vec<Vec<f64>> = base.clone();
            {
                let [a, b, c, d] = &mut want[..] else {
                    unreachable!()
                };
                apply4_dense(Level::Scalar, &m, a, b, c, d);
            }
            for lvl in levels() {
                let mut got: Vec<Vec<f64>> = base.clone();
                let [a, b, c, d] = &mut got[..] else {
                    unreachable!()
                };
                apply4_dense(lvl, &m, a, b, c, d);
                for k in 0..4 {
                    assert_eq!(bits(&got[k]), bits(&want[k]), "quad {lvl:?} n={n} s{k}");
                }
            }
        }
    }

    #[test]
    fn reduction_lanes_identical_across_levels() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 33, 64, 130, 1001] {
            let xs = fill(20, n);
            for lvl in levels() {
                let mut got = [0.1f64, 0.2, 0.3, 0.4];
                let mut want2 = [0.1f64, 0.2, 0.3, 0.4];
                accumulate_sq(Level::Scalar, &mut want2, &xs);
                accumulate_sq(lvl, &mut got, &xs);
                assert_eq!(
                    got.map(f64::to_bits),
                    want2.map(f64::to_bits),
                    "lanes {lvl:?} n={n}"
                );
                assert_eq!(combine_lanes(got).to_bits(), combine_lanes(want2).to_bits());
            }
        }
    }

    /// `n` amplitudes as `[re, im]` pairs in ±1, with `±0.0` and
    /// subnormals mixed in.
    fn pauli_amps(seed: u64, n: usize) -> Vec<f64> {
        let pick = fill(seed ^ 0x5eed, 2 * n);
        fill(seed, 2 * n)
            .into_iter()
            .zip(pick)
            .map(|(v, p)| match ((p + 1.0) * 8.0) as u32 {
                0 => 0.0,
                1 => -0.0,
                2 => v * f64::MIN_POSITIVE,
                _ => v,
            })
            .collect()
    }

    /// A random term on `qubits` qubits of the given kind; pure X strings
    /// (the unsigned class) are drawn a third of the time for `Real`.
    fn pauli_term(r: &mut impl FnMut() -> usize, qubits: u32, kind: PauliKind) -> PauliMask {
        let all = (1usize << qubits) - 1;
        let (mut x, mut z) = (r() & all, r() & all);
        if kind == PauliKind::Diagonal {
            x = 0;
        } else {
            if x == 0 {
                x = 1 << (r() % qubits as usize);
            }
            if kind == PauliKind::Real && r().is_multiple_of(3) {
                z = 0;
            }
            let want_odd = kind == PauliKind::Imag;
            if ((x & z).count_ones() % 2 == 1) != want_odd {
                z ^= x & x.wrapping_neg();
            }
        }
        let mask = PauliMask::new(x, z);
        assert_eq!(mask.kind(), kind);
        mask
    }

    /// Every level's sums equal the scalar arm's bit for bit: all three
    /// kinds, Y counts 0–3 mod 4, signed and unsigned classes, 1 up to a
    /// pass and a half of terms per class, and ranges of any length that
    /// start and end off the 64-amplitude blocks.
    #[test]
    fn pauli_sums_identical_across_levels() {
        let mut seed = 0x0123_4567_89ab_cdefu64;
        let mut r = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let kinds = [PauliKind::Diagonal, PauliKind::Real, PauliKind::Imag];
        let (mut phases, mut covered) = ([0usize; 4], [0usize; 3]);
        for case in 0..400 {
            let qubits = (case % 11) as u32;
            let n = 1usize << qubits;
            let amps = pauli_amps(case as u64, n);
            let count = 1 + r() % (6 * PAULI_PASS_VECTORS);
            let single = (qubits > 0 && case % 2 == 0).then(|| kinds[r() % 3]);
            let terms: Vec<PauliMask> = (0..count)
                .map(|_| {
                    let kind = match single {
                        Some(k) => k,
                        None if qubits == 0 => PauliKind::Diagonal,
                        None => kinds[r() % 3],
                    };
                    pauli_term(&mut r, qubits.max(1), kind)
                })
                .collect();
            for t in &terms {
                phases[(t.x & t.z).count_ones() as usize % 4] += 1;
                covered[t.kind() as usize] += 1;
            }
            let start = r() % (n + 1);
            let end = match case % 4 {
                0 => n,
                1 => (start + 1).min(n),
                _ => start + r() % (n - start + 1),
            };
            let mut want = vec![f64::NAN; count];
            pauli_sums(Level::Scalar, &amps, &terms, start..end, &mut want);
            for lvl in levels() {
                let mut got = vec![f64::NAN; count];
                pauli_sums(lvl, &amps, &terms, start..end, &mut got);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{lvl:?} case {case} n={n} {start}..{end}"
                );
            }
        }
        assert!(phases.iter().all(|&c| c > 0), "Y counts mod 4: {phases:?}");
        assert!(covered.iter().all(|&c| c > 0), "kinds: {covered:?}");
    }

    /// The scalar arm is today's definition: `±|ψᵢ|²` for a diagonal
    /// term, `±Re` / `±Im` of `conj(ψᵢ)·ψ_{i⊕x}` for a flip, from `+0.0`
    /// in index order.
    #[test]
    fn pauli_sums_scalar_matches_definition() {
        let amps = pauli_amps(3, 8);
        let a = |i: usize| (amps[2 * i], amps[2 * i + 1]);
        for (x, z) in [
            (0, 0),
            (0, 0b101),
            (0b011, 0),
            (0b110, 0b010),
            (0b111, 0b111),
            (0b001, 0b011),
        ] {
            let mask = PauliMask::new(x, z);
            let y = (x & z).count_ones();
            let mut want = 0.0f64;
            for i in 0..8 {
                let ((ar, ai), (br, bi)) = (a(i), a(i ^ x));
                let v = match y % 2 {
                    0 => ar * br + ai * bi,
                    _ => ar * bi - ai * br,
                };
                let negative = ((i & z).count_ones() + u32::from(y % 4 >= 2)) % 2 == 1;
                want += if negative { -v } else { v };
            }
            let mut got = [f64::NAN];
            pauli_sums(Level::Scalar, &amps, &[mask], 0..8, &mut got);
            assert_eq!(got[0].to_bits(), want.to_bits(), "x={x:b} z={z:b}");
        }
    }

    #[test]
    fn sha_compress_known_vectors() {
        // FIPS 180-2 test vectors, pre-padded to whole blocks.
        const IV: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        if sha_backend() != ShaBackend::ShaNi {
            return; // nothing to test without the hardware backend
        }
        // "abc"
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[63] = 24; // bit length
        let mut state = IV;
        assert!(sha256_compress_blocks(&mut state, &block));
        assert_eq!(
            state,
            [
                0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223, 0xb00361a3, 0x96177a9c, 0xb410ff61,
                0xf20015ad
            ]
        );
        // Two-block message: "abcdbcde...nopq" (56 bytes).
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        let mut blocks = [0u8; 128];
        blocks[..56].copy_from_slice(msg);
        blocks[56] = 0x80;
        blocks[126] = ((56 * 8) >> 8) as u8;
        blocks[127] = ((56 * 8) & 0xff) as u8;
        let mut state = IV;
        assert!(sha256_compress_blocks(&mut state, &blocks));
        assert_eq!(
            state,
            [
                0x248d6a61, 0xd20638b8, 0xe5c02693, 0x0c3e6039, 0xa33ce459, 0x64ff2167, 0xf6ecedd4,
                0x19db06c1
            ]
        );
    }

    /// The fold kernel leaves the register a bit-at-a-time loop leaves,
    /// from any incoming register, at every whole-block length, and
    /// declines under the scalar override.
    #[test]
    fn crc32_fold_matches_bitwise() {
        fn bitwise(mut state: u32, data: &[u8]) -> u32 {
            for &b in data {
                state ^= u32::from(b);
                for _ in 0..8 {
                    state = (state >> 1) ^ (0xEDB8_8320 & (state & 1).wrapping_neg());
                }
            }
            state
        }
        let bytes: Vec<u8> = fill(30, 4096 + 7)
            .iter()
            .map(|x| x.to_bits() as u8)
            .collect();
        let mut state = 0u32;
        assert!(!with_level(Level::Scalar, || crc32_fold(
            &mut state,
            &bytes[..64]
        )));
        assert_eq!(state, 0, "a declined call must not touch the register");
        if !crc32_fold(&mut state, &bytes[..64]) {
            return; // nothing to test without the hardware backend
        }
        for start in [0usize, 1, 7] {
            for blocks in (4..40).chain([255, 256]) {
                let data = &bytes[start..start + 16 * blocks];
                for seed in [0u32, 0xFFFF_FFFF, 0x1234_5678] {
                    let mut got = seed;
                    assert!(crc32_fold(&mut got, data));
                    assert_eq!(got, bitwise(seed, data), "start={start} blocks={blocks}");
                }
            }
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}

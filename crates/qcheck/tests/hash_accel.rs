//! Property suite: the accelerated hashes are bit-identical to their
//! oracles — the hardware SHA-256 backend to the portable compression
//! loop, the table-driven CRC32 to the bit-at-a-time one.
//!
//! `qcheck::hash::Sha256` routes whole blocks through
//! `qsimd::sha256_compress_blocks`; forcing `QSIM_SIMD=scalar` via
//! `qsimd::with_level` keeps every block on the portable loop instead.
//! Random byte strings × random update splits (including splits landing
//! exactly on 64-byte block boundaries, and hashers that *switch*
//! backend mid-stream at a block boundary) must all produce one digest.
//! On machines without SHA extensions both paths are the portable loop
//! and the properties hold trivially.
//!
//! `qcheck::hash::crc32_update` runs slice-by-8; random data at unaligned
//! starts, every length class around the 8-byte word and random
//! `crc32_update` split points must leave the state the bitwise loop
//! (`crc32_update_bitwise`, test builds only) leaves.

use proptest::prelude::*;

use qcheck::hash::{crc32, crc32_update, crc32_update_bitwise, ContentHash, Sha256};
use qsimd::Level;

/// Digest `data` fed as a single update at the given SIMD level.
fn digest_at(level: Level, data: &[u8]) -> ContentHash {
    qsimd::with_level(level, || Sha256::digest(data))
}

/// Digest `data` split at the given cut points (clamped + sorted).
fn digest_split(level: Level, data: &[u8], cuts: &[usize]) -> ContentHash {
    qsimd::with_level(level, || {
        let mut sorted: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
        sorted.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for cut in sorted {
            h.update(&data[prev..cut]);
            prev = cut;
        }
        h.update(&data[prev..]);
        h.finalize()
    })
}

/// The published check value of CRC-32/ISO-HDLC.
#[test]
fn crc32_check_value() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table-driven CRC32 equals the bitwise oracle for random data of
    /// length 0..4 KiB starting at any offset within a word, fed whole
    /// and across random `crc32_update` split points.
    #[test]
    fn crc32_tables_match_bitwise(
        data in prop::collection::vec(any::<u8>(), 0..4104),
        start in 0usize..8,
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        seed in any::<u32>(),
    ) {
        let data = &data[start.min(data.len())..];
        let want = crc32_update_bitwise(seed, data);
        prop_assert_eq!(crc32_update(seed, data), want, "len={}", data.len());
        let mut cuts: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
        cuts.sort_unstable();
        let (mut state, mut prev) = (seed, 0);
        for cut in cuts.iter().copied().chain([data.len()]) {
            state = crc32_update(state, &data[prev..cut]);
            prev = cut;
        }
        prop_assert_eq!(state, want, "len={} cuts={:?}", data.len(), &cuts);
    }

    /// One-shot digests agree between the forced-scalar oracle and the
    /// detected backend, at every length (empty through multi-block,
    /// crossing the 55/56/64-byte padding edges).
    #[test]
    fn oneshot_accel_matches_scalar(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        let scalar = digest_at(Level::Scalar, &data);
        let native = digest_at(qsimd::detected(), &data);
        prop_assert_eq!(scalar, native, "len={}", data.len());
    }

    /// Streaming updates at random offsets agree with the one-shot
    /// scalar digest regardless of backend — partial-block buffering and
    /// bulk-block routing compose to the same state.
    #[test]
    fn streamed_accel_matches_scalar(
        data in prop::collection::vec(any::<u8>(), 1..4096),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let want = digest_at(Level::Scalar, &data);
        let cuts: Vec<usize> = cuts.iter().map(|i| i.index(data.len())).collect();
        for level in [Level::Scalar, qsimd::detected()] {
            prop_assert_eq!(
                digest_split(level, &data, &cuts), want,
                "level={} cuts={:?}", level.name(), &cuts
            );
        }
    }

    /// Splits landing exactly on 64-byte block boundaries — the seam the
    /// bulk path hands back to the buffer — are digest-neutral.
    #[test]
    fn block_boundary_splits_are_seamless(
        blocks in 1usize..8,
        tail in 0usize..64,
        seam in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let data: Vec<u8> = (0..blocks * 64 + tail)
            .map(|i| byte.wrapping_add(i as u8))
            .collect();
        let want = digest_at(Level::Scalar, &data);
        let cut = 64 * (1 + seam.index(blocks)); // always a block boundary
        for level in [Level::Scalar, qsimd::detected()] {
            prop_assert_eq!(
                digest_split(level, &data, &[cut]), want,
                "level={} cut={}", level.name(), cut
            );
        }
    }

    /// A stream may *change* backend between updates (the resume seam: a
    /// checkpoint encoded on a SHA-NI box, re-verified scalar, or vice
    /// versa). The hasher state is backend-independent, so switching at
    /// any update boundary — block-aligned or not — is invisible.
    #[test]
    fn backend_switch_mid_stream_is_invisible(
        data in prop::collection::vec(any::<u8>(), 1..4096),
        cut in any::<prop::sample::Index>(),
        scalar_first in any::<bool>(),
        align in any::<bool>(),
    ) {
        let want = digest_at(Level::Scalar, &data);
        let mut cut = cut.index(data.len());
        if align {
            cut -= cut % 64; // exercise the exact block-boundary seam
        }
        let (a, b) = if scalar_first {
            (Level::Scalar, qsimd::detected())
        } else {
            (qsimd::detected(), Level::Scalar)
        };
        let mut h = Sha256::new();
        qsimd::with_level(a, || h.update(&data[..cut]));
        qsimd::with_level(b, || h.update(&data[cut..]));
        prop_assert_eq!(
            h.finalize(), want,
            "cut={} scalar_first={} align={}", cut, scalar_first, align
        );
    }

    /// `digest_many` (the parallel encode primitive) agrees with serial
    /// scalar digests — pool workers resolve the backend themselves from
    /// the environment, and both resolutions hash identically.
    #[test]
    fn digest_many_matches_scalar(
        bufs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..512), 1..8),
        threads in 1usize..4,
    ) {
        let want: Vec<ContentHash> =
            bufs.iter().map(|b| digest_at(Level::Scalar, b)).collect();
        let views: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(Sha256::digest_many(views, threads), want);
    }
}

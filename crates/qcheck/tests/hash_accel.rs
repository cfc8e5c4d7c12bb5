//! Property suite: the accelerated hashes are bit-identical to their
//! oracles — the hardware SHA-256 backend to the portable compression
//! loop, the table-driven and the carry-less-multiply CRC32 to the
//! bit-at-a-time one.
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
//! `qcheck::hash::crc32_update` hands the 16-byte-multiple prefix of an
//! input of 128 bytes or more to `qsimd::crc32_fold` (PCLMULQDQ) and runs
//! slice-by-8 over the rest — or over everything, when the kernel
//! declines (`QSIM_SIMD=scalar`, no such instruction). Every length
//! around the 8-, 16-, 64- and 128-byte edges, unaligned starts, arbitrary
//! incoming registers and every `crc32_update` split point must leave the
//! register the bitwise loop (`crc32_update_bitwise`, test builds only)
//! leaves, at both levels; a wire frame written at one level must read at
//! the other.

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

/// The two CRC backends: the portable tables alone, and whatever the CPU
/// adds to them.
const CRC_LEVELS: [Level; 2] = [Level::Scalar, Level::Avx2];

/// Deterministic filler (xorshift bytes).
fn noise(len: usize, mut x: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// `crc32_update` at `level` (the override clamps to what the CPU has).
fn crc_at(level: Level, state: u32, data: &[u8]) -> u32 {
    qsimd::with_level(level, || crc32_update(state, data))
}

/// Under the scalar override the kernel declines — leaving the register
/// alone — so the scalar level really is the tables; at the detected
/// level it says which backend the rest of this file compared.
#[test]
fn crc32_kernel_declines_under_the_scalar_override() {
    let data = noise(256, 1);
    let mut state = 0xDEAD_BEEF;
    let folded = qsimd::with_level(Level::Scalar, || qsimd::crc32_fold(&mut state, &data));
    assert!(!folded, "the scalar override must decline");
    assert_eq!(
        state, 0xDEAD_BEEF,
        "a declined fold must not touch the register"
    );
    let hardware =
        qsimd::cpu_features().contains("pclmulqdq") && qsimd::cpu_features().contains("sse4.1");
    assert_eq!(
        qsimd::with_level(qsimd::detected(), || qsimd::crc32_fold(&mut state, &data)),
        hardware,
        "cpu_features() must say which CRC backend runs: {}",
        qsimd::cpu_features()
    );
}

/// Every length 0…300 and a few large ones (a 4 KiB chunk, a frame-sized
/// buffer with a ragged tail), at start offsets 0/1/7 and from arbitrary
/// incoming registers: both levels equal the bitwise oracle.
#[test]
fn crc32_matches_bitwise_at_every_length_offset_and_state() {
    let buf = noise(99_000 + 8, 2);
    let lengths = (0..=300).chain([4096, 4097, 65_536 + 15, 99_000]);
    for len in lengths {
        for start in [0usize, 1, 7] {
            let data = &buf[start..start + len];
            for state in [0xFFFF_FFFFu32, 0, 0x8000_0001, 0x1234_5678] {
                let want = crc32_update_bitwise(state, data);
                for level in CRC_LEVELS {
                    assert_eq!(
                        crc_at(level, state, data),
                        want,
                        "len={len} start={start} state={state:#x} level={}",
                        level.name()
                    );
                }
            }
        }
    }
}

/// An input split in two at every boundary around the kernel's edges —
/// 16 (a block), 64 (the four lanes), 128 (where the hardware path
/// starts) and their neighbours — leaves the one-shot register, with
/// either half on either backend.
#[test]
fn crc32_incremental_splits_are_seamless_across_backends() {
    let data = noise(128 + 64 + 16 + 5, 3);
    let want = crc32_update_bitwise(0xFFFF_FFFF, &data);
    let edges = [16usize, 64, 128, 144, 192];
    let cuts: std::collections::BTreeSet<usize> = edges
        .iter()
        .flat_map(|&e| e - 2..=e + 2)
        .chain([0, data.len()])
        .collect();
    for cut in cuts {
        for first in CRC_LEVELS {
            for second in CRC_LEVELS {
                let mid = crc_at(first, 0xFFFF_FFFF, &data[..cut]);
                assert_eq!(
                    crc_at(second, mid, &data[cut..]),
                    want,
                    "cut={cut} {}→{}",
                    first.name(),
                    second.name()
                );
            }
        }
    }
}

/// A frame written with one CRC backend is read with the other — the
/// mixed-fleet case (a scalar-forced client against an auto daemon, or
/// the reverse) — and damage is caught either way.
#[test]
fn a_frame_written_at_one_level_reads_at_the_other() {
    use qcheck::remote::proto::{read_frame, write_frame};
    for len in [0usize, 9, 127, 128, 4096 + 37, 1 << 20] {
        let body = noise(len, 4 + len as u64);
        for (writer, reader) in [(Level::Scalar, Level::Avx2), (Level::Avx2, Level::Scalar)] {
            let mut framed = Vec::new();
            qsimd::with_level(writer, || write_frame(&mut framed, &body)).unwrap();
            assert_eq!(framed.len(), body.len() + 8);
            let back = qsimd::with_level(reader, || read_frame(&mut &framed[..])).unwrap();
            assert_eq!(back, body, "len={len} {}→{}", writer.name(), reader.name());
            if len > 0 {
                framed[4 + len / 2] ^= 1;
                assert!(
                    qsimd::with_level(reader, || read_frame(&mut &framed[..])).is_err(),
                    "len={len}: a flipped body bit must fail the CRC"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CRC32 equals the bitwise oracle for random data of length 0..4 KiB
    /// starting at any offset within a word, fed whole and across random
    /// `crc32_update` split points, on the tables and on the hardware
    /// fold.
    #[test]
    fn crc32_backends_match_bitwise(
        data in prop::collection::vec(any::<u8>(), 0..4104),
        start in 0usize..8,
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        seed in any::<u32>(),
    ) {
        let data = &data[start.min(data.len())..];
        let want = crc32_update_bitwise(seed, data);
        let mut cuts: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
        cuts.sort_unstable();
        for level in CRC_LEVELS {
            prop_assert_eq!(
                crc_at(level, seed, data), want,
                "len={} level={}", data.len(), level.name()
            );
            let (mut state, mut prev) = (seed, 0);
            for cut in cuts.iter().copied().chain([data.len()]) {
                state = crc_at(level, state, &data[prev..cut]);
                prev = cut;
            }
            prop_assert_eq!(
                state, want,
                "len={} cuts={:?} level={}", data.len(), &cuts, level.name()
            );
        }
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
    /// scalar digests — worker threads resolve the backend themselves from
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

//! What the decoders of on-disk bytes do with bytes nobody encoded.
//!
//! A section payload reaches [`Compression::decompress`] from chunks a
//! store handed back — a disk that failed, a daemon that lied — under a
//! manifest that may be no better. The contract checked here, the one
//! `properties.rs` holds the wire decoders to: any input decodes to `Ok`
//! or to a typed [`Error::Decode`], never a panic, and never an output
//! (so never an allocation) larger than the payload could encode.
//!
//! First instalment: the four section codecs. Manifest-log records, root
//! slots and pack indexes are to join.

use proptest::prelude::*;

use qcheck::codec::Encoder;
use qcheck::compress::{word_decompress_reference, Compression};
use qcheck::error::Error;

/// The most output `len` payload bytes can decode to under `codec`.
fn output_bound(codec: Compression, len: usize) -> usize {
    match codec {
        Compression::None => len,
        // A run token: 3 bytes in, up to 255 out.
        Compression::Rle => 85 * len,
        // A zero word: 1 control byte in, 8 bytes out; up to 7 raw tail.
        Compression::XorF64 | Compression::ZeroElideF64 => 8 * len + 7,
    }
}

/// Decodes `payload` both ways — into a fresh vector and folded into an
/// accumulator of `fold_len` bytes — and checks everything that must hold
/// whatever the bytes are. Returns the decoded output, if any.
fn decode_checked(codec: Compression, payload: &[u8], fold_len: usize) -> Option<Vec<u8>> {
    let decoded = match codec.decompress(payload) {
        Ok(out) => {
            assert!(
                out.len() <= output_bound(codec, payload.len()),
                "{codec}: {} bytes out of a {}-byte payload",
                out.len(),
                payload.len()
            );
            Some(out)
        }
        Err(Error::Decode { .. }) => None,
        Err(other) => panic!("{codec}: untyped failure {other:?}"),
    };
    // The XOR sink accepts exactly the payloads `decompress` accepts, when
    // the accumulator has the decoded length, and folds the same bytes.
    let mut acc = vec![0xA5u8; fold_len];
    match (codec.decompress_xor_into(payload, &mut acc), &decoded) {
        (Ok(()), Some(out)) => {
            assert_eq!(
                out.len(),
                fold_len,
                "{codec}: folded a wrong-length payload"
            );
            let want: Vec<u8> = out.iter().map(|b| b ^ 0xA5).collect();
            assert_eq!(acc, want, "{codec}");
        }
        (Err(Error::Decode { .. }), Some(out)) => assert_ne!(out.len(), fold_len, "{codec}"),
        (Err(Error::Decode { .. }), None) => {}
        (folded, _) => panic!("{codec}: fold {folded:?}, decompress {decoded:?}"),
    }
    // The word kernels and the byte loops they replaced agree on what is
    // a valid payload, not only on what a valid payload holds.
    if matches!(codec, Compression::XorF64 | Compression::ZeroElideF64) {
        let reference = word_decompress_reference(payload, codec == Compression::XorF64);
        assert_eq!(
            decoded,
            reference.ok(),
            "{codec}: kernel and reference disagree"
        );
    }
    decoded
}

/// Section-like inputs small enough to mutate at every byte: words with
/// some bytes zeroed (every control-byte shape), then short runs, then a
/// ragged tail.
fn arb_small_input() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec((any::<u64>(), any::<u8>()), 0..10),
        prop::collection::vec((any::<u8>(), 1..9usize), 0..6),
        prop::collection::vec(any::<u8>(), 0..8),
    )
        .prop_map(|(words, runs, tail)| {
            let mut data = Vec::new();
            for (word, keep) in words {
                let bytes = word.to_le_bytes();
                data.extend((0..8).map(|i| if keep >> i & 1 == 1 { bytes[i] } else { 0 }));
            }
            for (byte, len) in runs {
                data.extend(std::iter::repeat_n(byte, len));
            }
            data.extend_from_slice(&tail);
            data
        })
}

#[test]
fn a_declared_length_no_payload_could_encode_is_refused_before_allocating() {
    // 1 << 62 is the reproduction: the process used to abort inside
    // `Vec::with_capacity` on these nine bytes. The others are lengths an
    // allocator would happily promise.
    for declared in [1u64 << 62, u64::MAX, 1 << 40, 1 << 30, 1 << 20] {
        for body in [0usize, 1, 9, 64] {
            let mut e = Encoder::new();
            e.put_varint(declared);
            let mut payload = e.into_bytes();
            payload.resize(payload.len() + body, 0);
            for codec in [
                Compression::Rle,
                Compression::XorF64,
                Compression::ZeroElideF64,
            ] {
                assert!(
                    decode_checked(codec, &payload, 8 * body).is_none(),
                    "{codec} accepted a declared length of {declared} over {body} bytes"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes are a payload or a typed error.
    #[test]
    fn codecs_survive_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        fold_len in 0..64usize,
    ) {
        for codec in Compression::all() {
            decode_checked(codec, &bytes, fold_len);
        }
    }

    /// So is every prefix of a valid payload — and for the self-framing
    /// codecs a proper prefix is always the error: the declared length
    /// is what tells a short read from a short section.
    #[test]
    fn codecs_refuse_every_truncation(data in arb_small_input()) {
        for codec in Compression::all() {
            let payload = codec.compress(&data);
            prop_assert_eq!(decode_checked(codec, &payload, data.len()), Some(data.clone()));
            for cut in 0..payload.len() {
                let decoded = decode_checked(codec, &payload[..cut], data.len());
                if codec != Compression::None {
                    prop_assert_eq!(decoded, None, "codec {} cut at {}", codec, cut);
                }
            }
        }
    }

    /// And so is a valid payload with any one byte changed: the input
    /// that gets past the length prefix and deep into the tokens.
    #[test]
    fn codecs_survive_every_single_byte_mutation(
        data in arb_small_input(),
        flip in 1..=255u8,
    ) {
        for codec in Compression::all() {
            let mut payload = codec.compress(&data);
            for at in 0..payload.len() {
                payload[at] ^= flip;
                decode_checked(codec, &payload, data.len());
                payload[at] ^= flip;
            }
        }
    }
}

//! Section compression codecs.
//!
//! Four codecs are implemented, all in-repo:
//!
//! * [`Compression::None`] — identity.
//! * [`Compression::Rle`] — byte-level run-length encoding; wins on
//!   low-entropy sections (zeroed optimizer moments at step 0, padding).
//! * [`Compression::XorF64`] — Gorilla-style: interpret the payload as a
//!   stream of little-endian f64 words, XOR each with its predecessor and
//!   emit only the non-zero middle bytes. Adjacent parameters (and a
//!   parameter vs its value one step ago, via delta checkpoints) share sign,
//!   exponent and leading mantissa bits late in training, so the XOR stream
//!   is sparse — this is the codec behind experiment R-T3.
//! * [`Compression::ZeroElideF64`] — the same word framing without the
//!   predecessor XOR: the codec of XOR-against-base delta payloads, whose
//!   words are already sparse.
//!
//! Every codec is self-framing and validates on decompression: the
//! declared output length is bounded by what the payload can encode
//! before anything is allocated for it.
//!
//! ## Size-first selection
//!
//! A save compares its candidate payloads per section by
//! [`Compression::compressed_len`] — a size-only pass over the same words
//! and runs, exact by contract — and runs [`Compression::compress`] once,
//! on the winner. The two word codecs share one encode and one decode
//! kernel that work a 64-bit word at a time; the decode kernel can XOR
//! into an accumulator instead of storing
//! ([`Compression::decompress_xor_into`]), which is how the resolver folds
//! an XOR-against-base link without an intermediate buffer.

use serde::{Deserialize, Serialize};

use crate::codec::{Decoder, Encoder};
use crate::error::{Error, Result};

/// Compression codec identifier, recorded per-section in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Compression {
    /// Identity codec.
    None,
    /// Byte-level run-length encoding.
    Rle,
    /// XOR-of-consecutive-f64 with zero-byte elision.
    XorF64,
    /// Zero-byte elision on raw 8-byte words (no predecessor XOR). The
    /// codec for XOR-against-base delta payloads, whose words are already
    /// sparse: only the bytes that differ from the base survive the XOR.
    ZeroElideF64,
}

impl Compression {
    /// Stable numeric tag used in the on-disk format.
    pub fn tag(&self) -> u8 {
        match self {
            Compression::None => 0,
            Compression::Rle => 1,
            Compression::XorF64 => 2,
            Compression::ZeroElideF64 => 3,
        }
    }

    /// Parses a numeric tag.
    ///
    /// # Errors
    ///
    /// Returns a decode error on unknown tags.
    pub fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(Compression::None),
            1 => Ok(Compression::Rle),
            2 => Ok(Compression::XorF64),
            3 => Ok(Compression::ZeroElideF64),
            other => Err(Error::Decode {
                what: "compression tag".into(),
                offset: 0,
                detail: format!("unknown codec tag {other}"),
            }),
        }
    }

    /// Compresses `data` with this codec.
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        match self {
            Compression::None => data.to_vec(),
            Compression::Rle => rle_compress(data),
            Compression::XorF64 => word_compress(data, true),
            Compression::ZeroElideF64 => word_compress(data, false),
        }
    }

    /// The length [`Compression::compress`] would return for `data`,
    /// without producing the output.
    ///
    /// Exact, not an estimate: `codec.compressed_len(x) ==
    /// codec.compress(x).len()` for every codec and every `x` — the save
    /// path picks a section's payload kind by this number alone, so an
    /// approximation would change what is stored. Each codec's size pass
    /// walks the same words or run tokens as its encoder.
    pub fn compressed_len(&self, data: &[u8]) -> usize {
        match self {
            Compression::None => data.len(),
            Compression::Rle => {
                let mut len = varint_len(data.len());
                rle_tokens(data, |header, literal| len += header.len() + literal.len());
                len
            }
            Compression::XorF64 => word_compressed_len(data, true),
            Compression::ZeroElideF64 => word_compressed_len(data, false),
        }
    }

    /// Decompresses a payload produced by [`Compression::compress`].
    ///
    /// # Errors
    ///
    /// Returns a decode error on malformed input, including a declared
    /// length larger than the payload could encode.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>> {
        match self {
            Compression::None => Ok(data.to_vec()),
            Compression::Rle => rle_decompress(data),
            Compression::XorF64 | Compression::ZeroElideF64 => {
                let (expected, body) = word_declared_len(data)?;
                let mut out = vec![0u8; expected];
                word_decode::<false>(data, body, *self == Compression::XorF64, &mut out)?;
                Ok(out)
            }
        }
    }

    /// XORs the decompressed payload into `acc`: afterwards `acc[i]` is
    /// `acc[i] ^ self.decompress(data)?[i]`. The word codecs fold in one
    /// pass straight from the payload, with no intermediate buffer.
    ///
    /// # Errors
    ///
    /// Returns a decode error on malformed input or when the payload does
    /// not decompress to exactly `acc.len()` bytes; the word codecs check
    /// the declared length before the first byte is folded. `acc` holds
    /// unspecified bytes after any other error.
    pub fn decompress_xor_into(&self, data: &[u8], acc: &mut [u8]) -> Result<()> {
        let wrong_len = |offset: usize, len: usize| Error::Decode {
            what: "xor payload".into(),
            offset,
            detail: format!("payload holds {len} bytes, base has {}", acc.len()),
        };
        match self {
            Compression::XorF64 | Compression::ZeroElideF64 => {
                let (expected, body) = word_declared_len(data)?;
                if expected != acc.len() {
                    return Err(wrong_len(body, expected));
                }
                word_decode::<true>(data, body, *self == Compression::XorF64, acc)
            }
            Compression::None | Compression::Rle => {
                let stored = self.decompress(data)?;
                if stored.len() != acc.len() {
                    return Err(wrong_len(data.len(), stored.len()));
                }
                for (a, x) in acc.iter_mut().zip(&stored) {
                    *a ^= x;
                }
                Ok(())
            }
        }
    }

    /// All codecs, for sweep experiments.
    pub fn all() -> [Compression; 4] {
        [
            Compression::None,
            Compression::Rle,
            Compression::XorF64,
            Compression::ZeroElideF64,
        ]
    }
}

impl std::fmt::Display for Compression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Compression::None => write!(f, "none"),
            Compression::Rle => write!(f, "rle"),
            Compression::XorF64 => write!(f, "xor-f64"),
            Compression::ZeroElideF64 => write!(f, "zero-elide-f64"),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing shared by the self-framing codecs
// ---------------------------------------------------------------------------

/// Bytes of the LEB128 length prefix for an input of `len` bytes.
fn varint_len(len: usize) -> usize {
    let bits = (usize::BITS - len.leading_zeros()).max(1) as usize;
    bits.div_ceil(7)
}

/// Reads a payload's LEB128 length prefix: `(declared length, offset of
/// the body)`. The declared length sizes the decoder's output, so it is
/// first bounded by what the body could possibly encode — at most
/// `per_body_byte` output bytes for each body byte, plus `slack` — and a
/// larger claim is a decode error, never an allocation.
fn declared_len(
    data: &[u8],
    what: &'static str,
    per_body_byte: usize,
    slack: usize,
) -> Result<(usize, usize)> {
    let mut d = Decoder::new(data, what);
    let declared = d.get_varint()?;
    let body = d.position();
    let limit = (data.len() - body)
        .saturating_mul(per_body_byte)
        .saturating_add(slack);
    match usize::try_from(declared) {
        Ok(len) if len <= limit => Ok((len, body)),
        _ => Err(Error::Decode {
            what: what.into(),
            offset: body,
            detail: format!(
                "declared length {declared} exceeds the {limit} bytes that {} payload bytes can encode",
                data.len() - body
            ),
        }),
    }
}

// ---------------------------------------------------------------------------
// RLE
// ---------------------------------------------------------------------------

const RLE_PAYLOAD: &str = "rle payload";

/// Byte-level RLE with a two-mode framing:
/// `[0x00, count, byte]` encodes a run of `count` (1–255) equal bytes;
/// `[0x01, count, b0..bn]` encodes a literal span of `count` bytes.
/// Input length is prefixed as LEB128 for validation.
///
/// Calls `emit(header, literal)` once per token, in output order: a run
/// is its 3-byte header alone, a literal span its 2-byte header and the
/// bytes. Runs shorter than 4 are not worth a token of their own and
/// join the surrounding literal.
fn rle_tokens<'a>(data: &'a [u8], mut emit: impl FnMut(&[u8], &'a [u8])) {
    fn emit_literal<'a>(span: &'a [u8], emit: &mut impl FnMut(&[u8], &'a [u8])) {
        for chunk in span.chunks(255) {
            emit(&[0x01, chunk.len() as u8], chunk);
        }
    }
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        // Measure the run starting at i.
        let b = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == b && run < 255 {
            run += 1;
        }
        if run >= 4 {
            emit_literal(&data[literal_start..i], &mut emit);
            emit(&[0x00, run as u8, b], &[]);
            literal_start = i + run;
        }
        i += run;
    }
    emit_literal(&data[literal_start..], &mut emit);
}

fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(data.len() / 2 + 16);
    e.put_varint(data.len() as u64);
    let mut out = e.into_bytes();
    rle_tokens(data, |header, literal| {
        out.extend_from_slice(header);
        out.extend_from_slice(literal);
    });
    out
}

fn rle_decompress(data: &[u8]) -> Result<Vec<u8>> {
    let fail = |offset: usize, detail: &str| Error::Decode {
        what: RLE_PAYLOAD.into(),
        offset,
        detail: detail.into(),
    };
    // The densest token is a run: 3 payload bytes for up to 255 of output.
    let (expected, mut pos) = declared_len(data, RLE_PAYLOAD, 85, 0)?;
    let mut out = Vec::with_capacity(expected);
    while pos < data.len() {
        let mode = data[pos];
        pos += 1;
        match mode {
            0x00 => {
                let count = *data
                    .get(pos)
                    .ok_or_else(|| fail(pos, "truncated run count"))?
                    as usize;
                let byte = *data
                    .get(pos + 1)
                    .ok_or_else(|| fail(pos, "truncated run byte"))?;
                pos += 2;
                if count == 0 {
                    return Err(fail(pos, "zero-length run"));
                }
                out.resize(out.len() + count, byte);
            }
            0x01 => {
                let count = *data
                    .get(pos)
                    .ok_or_else(|| fail(pos, "truncated literal count"))?
                    as usize;
                pos += 1;
                if count == 0 {
                    return Err(fail(pos, "zero-length literal"));
                }
                if pos + count > data.len() {
                    return Err(fail(pos, "truncated literal bytes"));
                }
                out.extend_from_slice(&data[pos..pos + count]);
                pos += count;
            }
            other => return Err(fail(pos, &format!("unknown rle mode byte {other:#x}"))),
        }
        if out.len() > expected {
            return Err(fail(pos, "output exceeds declared length"));
        }
    }
    if out.len() != expected {
        return Err(fail(
            pos,
            &format!("declared {expected} bytes, produced {}", out.len()),
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Word codecs: XOR-f64 and zero-elide
// ---------------------------------------------------------------------------

const WORD_PAYLOAD: &str = "word-codec payload";

/// `LOW_BYTES[n]` keeps the low `n` bytes of a word.
const LOW_BYTES: [u64; 9] = [
    0,
    0xff,
    0xffff,
    0xff_ffff,
    0xffff_ffff,
    0xff_ffff_ffff,
    0xffff_ffff_ffff,
    0xff_ffff_ffff_ffff,
    u64::MAX,
];

/// [`declared_len`] of a word-codec payload: a word costs at least its
/// control byte, and up to 7 tail bytes cost one each.
fn word_declared_len(data: &[u8]) -> Result<(usize, usize)> {
    declared_len(data, WORD_PAYLOAD, 8, 7)
}

/// The coded words of `data` — `word_i XOR word_{i-1}` when
/// `predecessor_xor` is set, the raw little-endian words otherwise — and
/// the trailing bytes that do not fill a word.
fn coded_words(data: &[u8], predecessor_xor: bool) -> (impl Iterator<Item = u64> + '_, &[u8]) {
    let words = data.chunks_exact(8);
    let tail = words.remainder();
    let carry = if predecessor_xor { u64::MAX } else { 0 };
    let mut prev = 0u64;
    let coded = words.map(move |w| {
        let cur = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        let x = cur ^ (prev & carry);
        prev = cur;
        x
    });
    (coded, tail)
}

/// The meaningful span of a coded word as `(first, count)`: the index of
/// its lowest non-zero byte and the number of bytes from there to its
/// highest non-zero one; `first << 4 | count` is its control byte. A
/// zero word is `(0, 0)` — the lone control byte `0x00`.
fn byte_span(x: u64) -> (usize, usize) {
    let first = (x.trailing_zeros() as usize / 8) & 7;
    let count = 8 - first - x.leading_zeros() as usize / 8;
    (first, count)
}

/// Word-codec framing (shared by `XorF64` and `ZeroElideF64`):
/// `varint(total_len)` then, per 8-byte word: a control byte
/// `(lead_zero_bytes << 4) | meaningful_byte_count`, followed by the
/// meaningful bytes of the coded word (bytes taken little-endian from
/// the first non-zero to the last non-zero). A fully zero coded word
/// emits the single control byte `0x00`. Trailing bytes that do not fill
/// a word are stored raw.
///
/// Every non-zero word is one 9-byte store — control byte, then the word
/// shifted down to its first meaningful byte — into a buffer sized once
/// for the worst case; the cursor advances by the meaningful length
/// only, so the next store overwrites the surplus.
fn word_compress(data: &[u8], predecessor_xor: bool) -> Vec<u8> {
    let capacity = data.len() + data.len() / 8 + 16;
    let mut e = Encoder::with_capacity(capacity);
    e.put_varint(data.len() as u64);
    let mut out = e.into_bytes();
    let mut pos = out.len();
    out.resize(capacity, 0);
    let (coded, tail) = coded_words(data, predecessor_xor);
    for x in coded {
        if x == 0 {
            out[pos] = 0;
            pos += 1;
            continue;
        }
        let (first, count) = byte_span(x);
        let slot = &mut out[pos..pos + 9];
        slot[0] = (first << 4 | count) as u8;
        slot[1..].copy_from_slice(&(x >> (8 * first)).to_le_bytes());
        pos += 1 + count;
    }
    out[pos..pos + tail.len()].copy_from_slice(tail);
    out.truncate(pos + tail.len());
    out
}

fn word_compressed_len(data: &[u8], predecessor_xor: bool) -> usize {
    let (coded, tail) = coded_words(data, predecessor_xor);
    let body: usize = coded.map(|x| 1 + byte_span(x).1).sum();
    varint_len(data.len()) + body + tail.len()
}

/// Decodes the body (from `pos`) of a word-codec payload into `out`,
/// whose length is the payload's declared length: stored over `out`, or
/// XORed into it when `XOR_SINK`. A coded word is one 8-byte load masked
/// to its meaningful bytes; only a word inside the last 8 payload bytes,
/// where that load would overrun, copies its exact length.
fn word_decode<const XOR_SINK: bool>(
    data: &[u8],
    mut pos: usize,
    predecessor_xor: bool,
    out: &mut [u8],
) -> Result<()> {
    let fail = |offset: usize, detail: String| Error::Decode {
        what: WORD_PAYLOAD.into(),
        offset,
        detail,
    };
    let carry = if predecessor_xor { u64::MAX } else { 0 };
    let mut prev = 0u64;
    let mut words = out.chunks_exact_mut(8);
    for (w, dst) in words.by_ref().enumerate() {
        let ctrl = *data
            .get(pos)
            .ok_or_else(|| fail(pos, format!("truncated control byte for word {w}")))?;
        pos += 1;
        let cur = if ctrl == 0 {
            prev & carry
        } else {
            let first = (ctrl >> 4) as usize;
            let count = (ctrl & 0x0f) as usize;
            if count == 0 || first + count > 8 {
                return Err(fail(pos - 1, format!("invalid control byte {ctrl:#x}")));
            }
            let coded = match data.get(pos..pos + 8) {
                Some(window) => {
                    u64::from_le_bytes(window.try_into().expect("8-byte window")) & LOW_BYTES[count]
                }
                None => {
                    let bytes = data
                        .get(pos..pos + count)
                        .ok_or_else(|| fail(pos, "truncated coded bytes".into()))?;
                    let mut b = [0u8; 8];
                    b[..count].copy_from_slice(bytes);
                    u64::from_le_bytes(b)
                }
            };
            pos += count;
            (prev & carry) ^ (coded << (8 * first))
        };
        prev = cur;
        let word = if XOR_SINK {
            cur ^ u64::from_le_bytes((&*dst).try_into().expect("8-byte chunk"))
        } else {
            cur
        };
        dst.copy_from_slice(&word.to_le_bytes());
    }
    let tail = words.into_remainder();
    if pos + tail.len() != data.len() {
        return Err(fail(
            pos,
            format!(
                "expected {} trailing bytes, found {}",
                tail.len(),
                data.len() - pos
            ),
        ));
    }
    for (t, raw) in tail.iter_mut().zip(&data[pos..]) {
        *t = if XOR_SINK { *t ^ raw } else { *raw };
    }
    Ok(())
}

/// The byte-at-a-time word encoder `word_compress` replaced, kept as
/// its test oracle: the two must agree byte for byte on every input.
#[cfg(any(test, feature = "testing"))]
pub fn word_compress_reference(data: &[u8], predecessor_xor: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut v = data.len() as u64;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    let words = data.len() / 8;
    let mut prev = 0u64;
    for w in 0..words {
        let mut b = [0u8; 8];
        b.copy_from_slice(&data[w * 8..w * 8 + 8]);
        let cur = u64::from_le_bytes(b);
        let xor = if predecessor_xor { cur ^ prev } else { cur };
        prev = cur;
        if xor == 0 {
            out.push(0x00);
            continue;
        }
        let xb = xor.to_le_bytes();
        let first = xb.iter().position(|&x| x != 0).expect("nonzero");
        let last = xb.iter().rposition(|&x| x != 0).expect("nonzero");
        let count = last - first + 1;
        out.push(((first as u8) << 4) | count as u8);
        out.extend_from_slice(&xb[first..=last]);
    }
    // Trailing partial word, raw.
    out.extend_from_slice(&data[words * 8..]);
    out
}

/// The byte-at-a-time word decoder `word_decode` replaced, kept as its
/// test oracle (its output grows as it decodes; nothing is sized from
/// the declared length).
///
/// # Errors
///
/// Returns a decode error on malformed input.
#[cfg(any(test, feature = "testing"))]
pub fn word_decompress_reference(data: &[u8], predecessor_xor: bool) -> Result<Vec<u8>> {
    let fail = |offset: usize, detail: &str| Error::Decode {
        what: WORD_PAYLOAD.into(),
        offset,
        detail: detail.into(),
    };
    let mut pos = 0usize;
    let mut expected = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(pos).ok_or_else(|| fail(pos, "truncated length"))?;
        pos += 1;
        if shift >= 64 {
            return Err(fail(pos, "length varint overflow"));
        }
        expected |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    let expected = expected as usize;
    let words = expected / 8;
    let tail = expected % 8;
    let mut out = Vec::new();
    let mut prev = 0u64;
    for w in 0..words {
        let ctrl = *data
            .get(pos)
            .ok_or_else(|| fail(pos, &format!("truncated control byte for word {w}")))?;
        pos += 1;
        let base = if predecessor_xor { prev } else { 0 };
        let cur = if ctrl == 0 {
            base
        } else {
            let first = (ctrl >> 4) as usize;
            let count = (ctrl & 0x0f) as usize;
            if count == 0 || first + count > 8 {
                return Err(fail(pos, &format!("invalid control byte {ctrl:#x}")));
            }
            if pos + count > data.len() {
                return Err(fail(pos, "truncated coded bytes"));
            }
            let mut xb = [0u8; 8];
            xb[first..first + count].copy_from_slice(&data[pos..pos + count]);
            pos += count;
            base ^ u64::from_le_bytes(xb)
        };
        prev = cur;
        out.extend_from_slice(&cur.to_le_bytes());
    }
    if pos + tail != data.len() {
        return Err(fail(
            pos,
            &format!("expected {tail} trailing bytes, found {}", data.len() - pos),
        ));
    }
    out.extend_from_slice(&data[pos..]);
    Ok(out)
}

/// Compression outcome statistics, for the evaluation tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompressionStats {
    /// Input size in bytes.
    pub raw_bytes: usize,
    /// Output size in bytes.
    pub compressed_bytes: usize,
}

impl CompressionStats {
    /// Measures a codec on a payload (round-trip validated).
    ///
    /// # Panics
    ///
    /// Panics if the round trip fails — that is a codec bug, not an input
    /// condition.
    pub fn measure(codec: Compression, data: &[u8]) -> CompressionStats {
        let compressed = codec.compress(data);
        let back = codec.decompress(&compressed).expect("codec round trip");
        assert_eq!(back, data, "codec round trip mismatch");
        CompressionStats {
            raw_bytes: data.len(),
            compressed_bytes: compressed.len(),
        }
    }

    /// `raw / compressed`; >1 means the codec saved space.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.compressed_bytes as f64
    }
}

/// Packs a f64 slice into little-endian bytes (helper for callers measuring
/// parameter-stream compression).
pub fn f64s_to_bytes(xs: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(xs.len() * 8);
    for x in xs {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    out
}

/// Unpacks little-endian bytes into f64s.
///
/// # Errors
///
/// Fails when the byte count is not a multiple of 8.
pub fn bytes_to_f64s(bytes: &[u8]) -> Result<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(Error::Decode {
            what: "f64 byte stream".into(),
            offset: bytes.len(),
            detail: format!("length {} not a multiple of 8", bytes.len()),
        });
    }
    let mut out = Vec::with_capacity(bytes.len() / 8);
    for w in bytes.chunks_exact(8) {
        let mut b = [0u8; 8];
        b.copy_from_slice(w);
        out.push(f64::from_bits(u64::from_le_bytes(b)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(codec: Compression, data: &[u8]) {
        let c = codec.compress(data);
        let d = codec.decompress(&c).unwrap();
        assert_eq!(d, data, "{codec} failed on {} bytes", data.len());
    }

    #[test]
    fn all_codecs_round_trip_edge_cases() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![1, 2, 3],
            vec![0; 1000],
            vec![0xFF; 257],
            (0..=255u8).collect(),
            (0..2048u32).map(|i| (i * 31 % 251) as u8).collect(),
            vec![7; 3],
        ];
        for codec in Compression::all() {
            for case in &cases {
                round_trip(codec, case);
            }
        }
    }

    /// The RLE encoder before it shared [`rle_tokens`] with the size pass.
    fn rle_compress_reference(data: &[u8]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_varint(data.len() as u64);
        let mut out = e.into_bytes();
        let mut i = 0usize;
        let mut literal: Vec<u8> = Vec::new();
        let flush_literal = |out: &mut Vec<u8>, lit: &mut Vec<u8>| {
            for chunk in lit.chunks(255) {
                out.push(0x01);
                out.push(chunk.len() as u8);
                out.extend_from_slice(chunk);
            }
            lit.clear();
        };
        while i < data.len() {
            let b = data[i];
            let mut run = 1usize;
            while i + run < data.len() && data[i + run] == b && run < 255 {
                run += 1;
            }
            if run >= 4 {
                flush_literal(&mut out, &mut literal);
                out.push(0x00);
                out.push(run as u8);
                out.push(b);
            } else {
                literal.extend_from_slice(&data[i..i + run]);
            }
            i += run;
        }
        flush_literal(&mut out, &mut literal);
        out
    }

    /// Inputs that reach every token and control-byte shape: runs around
    /// the 4-byte threshold and the 255 cap, literals across the 255 cap,
    /// words with every `(first, count)` span, lengths off the word grid.
    fn shaped_cases() -> Vec<Vec<u8>> {
        let mut cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![9; 3],
            vec![9; 4],
            vec![9; 255],
            vec![9; 256],
            vec![9; 600],
            (0..700u32).map(|i| (i * 7 % 253) as u8).collect(),
        ];
        let mut mixed = Vec::new();
        for n in 0..40usize {
            mixed.extend(std::iter::repeat_n(n as u8, n % 7));
            mixed.extend((0..n).map(|i| (i * 13 + n) as u8));
        }
        cases.push(mixed);
        let mut spans = Vec::new();
        for first in 0..8usize {
            for count in 1..=8 - first {
                let mut w = [0u8; 8];
                w[first] = 0x11;
                w[first + count - 1] |= 0x80;
                spans.extend_from_slice(&w);
                spans.extend_from_slice(&[0u8; 8]);
            }
        }
        for cut in [0usize, 1, 5, 7] {
            cases.push(spans[..spans.len() - cut].to_vec());
        }
        cases
    }

    #[test]
    fn kernels_match_their_reference_loops() {
        for case in shaped_cases() {
            assert_eq!(rle_compress(&case), rle_compress_reference(&case));
            for (codec, pred) in [
                (Compression::XorF64, true),
                (Compression::ZeroElideF64, false),
            ] {
                let c = codec.compress(&case);
                assert_eq!(c, word_compress_reference(&case, pred), "{codec}");
                assert_eq!(codec.decompress(&c).unwrap(), case, "{codec}");
                assert_eq!(word_decompress_reference(&c, pred).unwrap(), case);
            }
        }
    }

    #[test]
    fn compressed_len_is_exact() {
        for codec in Compression::all() {
            for case in shaped_cases() {
                assert_eq!(
                    codec.compressed_len(&case),
                    codec.compress(&case).len(),
                    "{codec} on {} bytes",
                    case.len()
                );
            }
        }
        for len in [0usize, 1, 127, 128, 16383, 16384, usize::MAX] {
            let mut e = Encoder::new();
            e.put_varint(len as u64);
            assert_eq!(varint_len(len), e.len(), "{len}");
        }
    }

    #[test]
    fn xor_sink_equals_decompress_then_xor() {
        for codec in Compression::all() {
            for case in shaped_cases() {
                let payload = codec.compress(&case);
                let base: Vec<u8> = (0..case.len()).map(|i| (i * 29 + 3) as u8).collect();
                let mut acc = base.clone();
                codec.decompress_xor_into(&payload, &mut acc).unwrap();
                let want: Vec<u8> = base.iter().zip(&case).map(|(a, b)| a ^ b).collect();
                assert_eq!(acc, want, "{codec} on {} bytes", case.len());
                // A base of any other length is refused.
                let mut long = vec![0u8; case.len() + 1];
                assert!(codec.decompress_xor_into(&payload, &mut long).is_err());
            }
        }
    }

    #[test]
    fn a_declared_length_is_bounded_by_what_the_body_can_encode() {
        // n body bytes encode at most 8n + 7 bytes through a word codec;
        // `tests/disk_decoders.rs` sweeps the hostile lengths.
        assert_eq!(word_declared_len(&[15, 0]).unwrap(), (15, 1));
        assert!(word_declared_len(&[16, 0]).is_err());
        assert_eq!(declared_len(&[85, 0], RLE_PAYLOAD, 85, 0).unwrap(), (85, 1));
        assert!(declared_len(&[86, 0], RLE_PAYLOAD, 85, 0).is_err());
    }

    #[test]
    fn rle_compresses_runs() {
        let data = vec![0u8; 4096];
        let c = Compression::Rle.compress(&data);
        assert!(c.len() < 100, "rle on zeros: {} bytes", c.len());
    }

    #[test]
    fn rle_handles_incompressible_data() {
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        round_trip(Compression::Rle, &data);
        // Overhead stays bounded (≤ ~1 byte per 255-byte literal + header).
        let c = Compression::Rle.compress(&data);
        assert!(c.len() < data.len() + data.len() / 64 + 16);
    }

    #[test]
    fn xor_f64_wins_on_slowly_varying_parameters() {
        // A parameter vector late in training: values clustered, tiny updates
        // (neighbours agree on sign, exponent and the top mantissa bytes).
        // Centre at 0.6, not 0.5: straddling a power of two flips the
        // exponent bits and defeats XOR locality.
        let params: Vec<f64> = (0..512).map(|i| 0.6 + 1e-13 * (i as f64).sin()).collect();
        let bytes = f64s_to_bytes(&params);
        let xor = Compression::XorF64.compress(&bytes);
        assert!(
            xor.len() < bytes.len() / 2,
            "xor-f64 {} vs raw {}",
            xor.len(),
            bytes.len()
        );
        round_trip(Compression::XorF64, &bytes);
    }

    #[test]
    fn xor_f64_on_identical_values_is_tiny() {
        let params = vec![0.123456789f64; 1024];
        let bytes = f64s_to_bytes(&params);
        let xor = Compression::XorF64.compress(&bytes);
        // First word costs ≤ 9 bytes, every repeat costs 1 control byte.
        assert!(xor.len() <= 16 + 1024, "{}", xor.len());
        round_trip(Compression::XorF64, &bytes);
    }

    #[test]
    fn xor_f64_handles_non_word_tail() {
        let mut bytes = f64s_to_bytes(&[1.0, 2.0, 3.0]);
        bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        round_trip(Compression::XorF64, &bytes);
    }

    #[test]
    fn xor_f64_preserves_nan_and_inf_bits() {
        let xs = vec![
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
        ];
        let bytes = f64s_to_bytes(&xs);
        let c = Compression::XorF64.compress(&bytes);
        let d = Compression::XorF64.decompress(&c).unwrap();
        assert_eq!(d, bytes);
    }

    #[test]
    fn corrupted_payloads_are_rejected_not_garbage() {
        let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        for codec in [Compression::Rle, Compression::XorF64] {
            let mut c = codec.compress(&data);
            // Truncate.
            c.truncate(c.len() / 2);
            match codec.decompress(&c) {
                Err(e) => assert!(e.is_integrity_failure(), "{codec}"),
                Ok(d) => assert_ne!(d, data, "{codec} silently accepted truncation"),
            }
        }
    }

    #[test]
    fn rle_rejects_bad_mode_byte() {
        let mut c = Compression::Rle.compress(&[1, 2, 3, 4, 5]);
        // Find a mode byte (first byte after the varint length) and break it.
        c[1] = 0x7E;
        assert!(Compression::Rle.decompress(&c).is_err());
    }

    #[test]
    fn tags_round_trip() {
        for codec in Compression::all() {
            assert_eq!(Compression::from_tag(codec.tag()).unwrap(), codec);
        }
        assert!(Compression::from_tag(200).is_err());
    }

    #[test]
    fn stats_ratio() {
        let zeros = vec![0u8; 8192];
        let s = CompressionStats::measure(Compression::Rle, &zeros);
        assert!(s.ratio() > 50.0);
        let s = CompressionStats::measure(Compression::None, &zeros);
        assert!((s.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f64_byte_helpers() {
        let xs = vec![1.5, -2.25, 0.0];
        let bytes = f64s_to_bytes(&xs);
        assert_eq!(bytes.len(), 24);
        assert_eq!(bytes_to_f64s(&bytes).unwrap(), xs);
        assert!(bytes_to_f64s(&bytes[..23]).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(Compression::XorF64.to_string(), "xor-f64");
        assert_eq!(Compression::Rle.to_string(), "rle");
        assert_eq!(Compression::None.to_string(), "none");
    }
}

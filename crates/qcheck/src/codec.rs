//! Deterministic binary encoding.
//!
//! Checkpoint payloads must be *byte-stable*: the same logical snapshot must
//! serialize to the same bytes on every run, or content-addressed dedup and
//! bitwise resume verification fall apart. General-purpose serializers do not
//! promise that, so the on-disk format uses this small hand-rolled codec:
//! little-endian fixed-width integers, LEB128 varints, f64 as raw IEEE-754
//! bits (NaN payloads preserved), and length-prefixed byte strings.
//!
//! An f64 array — a snapshot's parameters, every moment vector of an
//! optimizer blob — is a varint count and then the values' little-endian
//! bytes back to back. [`Encoder::put_f64_slice`] grows the buffer once
//! and writes the array in one pass; [`Decoder::get_f64_vec`] checks the
//! count against the remaining input once and converts the whole array
//! from one bounds-checked slice. The element-at-a-time loops they
//! replaced, `put_f64_slice_reference` and `get_f64_vec_reference`, stay
//! as their test oracle (`cfg(test)` / the `testing` feature): the same
//! bytes, the same bits and the same errors at the same offsets.

use crate::error::{Error, Result};

/// Append-only binary encoder.
///
/// # Examples
///
/// ```
/// use qcheck::codec::{Decoder, Encoder};
///
/// let mut enc = Encoder::new();
/// enc.put_u64(7).put_str("params").put_f64_slice(&[1.0, -2.5]);
/// let bytes = enc.into_bytes();
///
/// let mut dec = Decoder::new(&bytes, "example");
/// assert_eq!(dec.get_u64().unwrap(), 7);
/// assert_eq!(dec.get_str().unwrap(), "params");
/// assert_eq!(dec.get_f64_vec().unwrap(), vec![1.0, -2.5]);
/// assert!(dec.finish().is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Creates an encoder with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(n),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow of the current buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes an i64 (two's complement little-endian).
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes an f64 as its raw bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        self
    }

    /// Writes an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) -> &mut Self {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
        self
    }

    /// Writes a varint length followed by raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Writes a UTF-8 string (varint length + bytes).
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        self.put_bytes(s.as_bytes())
    }

    /// Writes a varint count followed by raw f64 bit patterns: the buffer
    /// grows once and the array is written in one pass.
    pub fn put_f64_slice(&mut self, xs: &[f64]) -> &mut Self {
        self.put_varint(xs.len() as u64);
        let start = self.buf.len();
        self.buf.resize(start + 8 * xs.len(), 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(8).zip(xs) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        self
    }

    /// The value-at-a-time loop `put_f64_slice` replaced, kept as its test
    /// oracle: the two must write the same bytes for every input.
    #[cfg(any(test, feature = "testing"))]
    pub fn put_f64_slice_reference(&mut self, xs: &[f64]) -> &mut Self {
        self.put_varint(xs.len() as u64);
        for &x in xs {
            self.put_f64(x);
        }
        self
    }

    /// Writes raw bytes without a length prefix (caller knows the framing).
    pub fn put_raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }
}

/// Bounds-checked binary decoder over a byte slice.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    what: &'a str,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder; `what` names the input for error messages.
    pub fn new(data: &'a [u8], what: &'a str) -> Self {
        Decoder { data, pos: 0, what }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn fail(&self, detail: impl Into<String>) -> Error {
        Error::Decode {
            what: self.what.to_string(),
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.fail(format!("need {n} bytes, only {} remain", self.remaining())));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads an i64.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_i64(&mut self) -> Result<i64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    /// Reads an f64 bit pattern.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or a varint whose value does not fit in 64
    /// bits: a 10th byte carries only bit 63, so one above `0x01` is refused.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut result = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 0x01 {
                return Err(self.fail("varint overflow"));
            }
            result |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads a varint-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an absurd length prefix.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_varint()? as usize;
        if len > self.remaining() {
            return Err(self.fail(format!("length prefix {len} exceeds remaining input")));
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a varint-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|e| self.fail(format!("invalid utf-8: {e}")))
    }

    /// Reads a varint-prefixed f64 vector: one count check, then the whole
    /// array from one slice.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>> {
        let len = self.get_varint()? as usize;
        let Some(n) = len.checked_mul(8).filter(|&n| n <= self.remaining()) else {
            return Err(self.fail(format!("f64 count {len} exceeds remaining input")));
        };
        Ok(self
            .take(n)?
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// The value-at-a-time loop `get_f64_vec` replaced, kept as its test
    /// oracle: the two must read the same bits, or fail at the same offset.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    #[cfg(any(test, feature = "testing"))]
    pub fn get_f64_vec_reference(&mut self) -> Result<Vec<f64>> {
        let len = self.get_varint()? as usize;
        if len
            .checked_mul(8)
            .map(|n| n > self.remaining())
            .unwrap_or(true)
        {
            return Err(self.fail(format!("f64 count {len} exceeds remaining input")));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Asserts all input was consumed.
    ///
    /// # Errors
    ///
    /// Fails when trailing bytes remain (a framing bug or corruption).
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            let n = self.remaining();
            return Err(self.fail(format!("{n} trailing bytes")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_round_trips() {
        let mut e = Encoder::new();
        e.put_u8(0xAB)
            .put_u32(0xDEADBEEF)
            .put_u64(u64::MAX)
            .put_i64(-42)
            .put_f64(-0.0);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "t");
        assert_eq!(d.get_u8().unwrap(), 0xAB);
        assert_eq!(d.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        d.finish().unwrap();
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX, u32::MAX as u64] {
            let mut e = Encoder::new();
            e.put_varint(v);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes, "v");
            assert_eq!(d.get_varint().unwrap(), v);
            d.finish().unwrap();
        }
    }

    #[test]
    fn a_tenth_varint_byte_above_bit_63_is_refused() {
        // 2^64 and 2^70 - 1 used to wrap to 0 and u64::MAX.
        let mut two_to_64 = vec![0x80u8; 9];
        two_to_64.push(0x02);
        let mut all_ones = vec![0xffu8; 9];
        all_ones.push(0x7f);
        for bytes in [two_to_64, all_ones, vec![0x80; 11]] {
            let err = Decoder::new(&bytes, "v").get_varint().unwrap_err();
            assert!(
                matches!(&err, Error::Decode { offset: 10, detail, .. } if detail == "varint overflow"),
                "{bytes:?}: {err:?}"
            );
        }
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        assert_eq!(Decoder::new(&max, "v").get_varint().unwrap(), u64::MAX);
    }

    #[test]
    fn varint_is_compact() {
        let mut e = Encoder::new();
        e.put_varint(5);
        assert_eq!(e.len(), 1);
        let mut e = Encoder::new();
        e.put_varint(300);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn strings_and_bytes() {
        let mut e = Encoder::new();
        e.put_str("héllo").put_bytes(&[1, 2, 3]).put_str("");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "s");
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert_eq!(d.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.get_str().unwrap(), "");
        d.finish().unwrap();
    }

    #[test]
    fn f64_slice_preserves_nan_payloads() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let xs = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, weird, 1.5e-300];
        let mut e = Encoder::new();
        e.put_f64_slice(&xs);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "f");
        let ys = d.get_f64_vec().unwrap();
        assert_eq!(xs.len(), ys.len());
        for (a, b) in xs.iter().zip(&ys) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.put_u64(1).put_str("abcdef");
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut], "trunc");
            let r = d.get_u64().and_then(|_| d.get_str());
            assert!(r.is_err(), "cut at {cut} not detected");
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut e = Encoder::new();
        e.put_u8(1).put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "t");
        d.get_u8().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn absurd_length_prefix_rejected() {
        // varint claims 2^40 bytes follow.
        let mut e = Encoder::new();
        e.put_varint(1u64 << 40);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "bomb");
        assert!(d.get_bytes().is_err());
        let mut d2 = Decoder::new(&bytes, "bomb2");
        assert!(d2.get_f64_vec().is_err());
    }

    #[test]
    fn determinism_same_input_same_bytes() {
        let build = || {
            let mut e = Encoder::new();
            e.put_str("snapshot")
                .put_f64_slice(&[1.0, 2.0])
                .put_varint(99);
            e.into_bytes()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn raw_round_trip() {
        let mut e = Encoder::new();
        e.put_raw(&[9, 8, 7]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "r");
        assert_eq!(d.get_raw(3).unwrap(), &[9, 8, 7]);
        d.finish().unwrap();
    }

    #[test]
    fn decoder_error_reports_offset_and_name() {
        let bytes = [1u8, 2];
        let mut d = Decoder::new(&bytes, "manifest-header");
        d.get_u8().unwrap();
        let err = d.get_u64().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("manifest-header"));
        assert!(msg.contains("byte 1"));
    }
}

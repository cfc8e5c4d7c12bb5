//! Content hashing: SHA-256 (content addressing) and CRC32 (frame checks).
//!
//! Implemented in-repo — no hashing crates are in the dependency budget —
//! and validated against published test vectors. SHA-256 addresses chunks in
//! the object store; CRC32 (IEEE 802.3) frames manifests, log records, root
//! slots, pack indexes and every wire frame, so torn writes and truncated
//! frames are rejected before anything is decoded. Its portable form runs
//! slice-by-8 over `const`-built tables in safe Rust (≥ 1 GB/s, on a par
//! with the SHA-NI SHA-256 below); the bit-at-a-time loop they replaced was
//! 6× slower than that SHA-256 and survives only as the test oracle
//! (`crc32_update_bitwise`, test builds only).
//!
//! ## Hardware backends
//!
//! Both hashes hand their bulk to `qsimd` when the CPU has the
//! instructions and `QSIM_SIMD` is not forcing `scalar`; otherwise `qsimd`
//! declines and the portable loops below — the oracles — run. This keeps
//! `qcheck` itself `unsafe`-free: every intrinsic lives in the `qsimd`
//! shim crate. `tests/hash_accel.rs` pins both seams.
//!
//! * **SHA-256:** whole 64-byte blocks route through
//!   [`qsimd::sha256_compress_blocks`] (SHA-NI). The buffering and length
//!   bookkeeping are backend-independent, so a stream may resume across
//!   the scalar/hardware seam at any block boundary and still produce the
//!   same digest.
//! * **CRC32:** [`crc32_update`] hands the 16-byte-multiple prefix of an
//!   input of 128 bytes or more to [`qsimd::crc32_fold`]
//!   (PCLMULQDQ, ~4× the tables) and runs the tables over what is left,
//!   so a multi-MiB wire frame is checked at several GB/s on both ends
//!   and shorter inputs (root slots, small records) never leave the
//!   tables. The register is the same `u32` on either path, so a stream
//!   may change backend between any two calls.

use std::fmt;

use serde::{Deserialize, Serialize};

/// SHA-256 round constants.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use qcheck::hash::Sha256;
///
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     digest.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of a byte slice.
    pub fn digest(data: &[u8]) -> ContentHash {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Digests many independent buffers, fanning out across `threads`
    /// scoped worker threads. Output order matches input order, so the
    /// result is identical to mapping [`Sha256::digest`] serially — this is
    /// the primitive behind parallel chunk hashing in the checkpoint
    /// encode path.
    pub fn digest_many(buffers: Vec<&[u8]>, threads: usize) -> Vec<ContentHash> {
        qpar::map_threads(threads, buffers, Sha256::digest)
    }

    /// Feeds bytes into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress_blocks(&block);
                self.buffer_len = 0;
            }
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            self.compress_blocks(&data[..whole]);
            data = &data[whole..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> ContentHash {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80 then zeros until 8 bytes remain in the block.
        self.update_padding(0x80);
        while self.buffer_len != 56 {
            self.update_padding(0x00);
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&bit_len.to_be_bytes());
        for b in len_bytes {
            self.update_padding(b);
        }
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        ContentHash(out)
    }

    fn update_padding(&mut self, byte: u8) {
        self.buffer[self.buffer_len] = byte;
        self.buffer_len += 1;
        if self.buffer_len == 64 {
            let block = self.buffer;
            self.compress_blocks(&block);
            self.buffer_len = 0;
        }
    }

    /// Compresses a run of whole 64-byte blocks, preferring the hardware
    /// backend. The portable [`Sha256::compress`] loop below stays the
    /// oracle; `qsimd` declines (returns `false`) when SHA extensions are
    /// missing or `QSIM_SIMD=scalar` forces the reference path.
    fn compress_blocks(&mut self, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        if qsimd::sha256_compress_blocks(&mut self.state, blocks) {
            return;
        }
        let mut block = [0u8; 64];
        for chunk in blocks.chunks_exact(64) {
            block.copy_from_slice(chunk);
            self.compress(&block);
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, wi) in w.iter_mut().take(16).enumerate() {
            *wi = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        // One round with the working variables renamed in place of the
        // textbook rotate-all-eight shuffle: the register rotation is
        // expressed through the caller's argument order, which keeps every
        // round a straight dependency chain the optimizer can schedule.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = ($e & $f) ^ ((!$e) & $g);
                let t1 = $h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[$i])
                    .wrapping_add(w[$i]);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(s0.wrapping_add(maj));
            };
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for base in (0..64).step_by(8) {
            round!(a, b, c, d, e, f, g, h, base);
            round!(h, a, b, c, d, e, f, g, base + 1);
            round!(g, h, a, b, c, d, e, f, base + 2);
            round!(f, g, h, a, b, c, d, e, base + 3);
            round!(e, f, g, h, a, b, c, d, base + 4);
            round!(d, e, f, g, h, a, b, c, base + 5);
            round!(c, d, e, f, g, h, a, b, base + 6);
            round!(b, c, d, e, f, g, h, a, base + 7);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// A SHA-256 digest used as a content address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContentHash(pub [u8; 32]);

impl ContentHash {
    /// Lowercase hex rendering (64 characters).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
        }
        s
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns `None` on wrong length or non-hex characters.
    pub fn from_hex(s: &str) -> Option<ContentHash> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        let bytes = s.as_bytes();
        for (i, o) in out.iter_mut().enumerate() {
            let hi = (bytes[i * 2] as char).to_digit(16)?;
            let lo = (bytes[i * 2 + 1] as char).to_digit(16)?;
            *o = ((hi << 4) | lo) as u8;
        }
        Some(ContentHash(out))
    }

    /// Two-character prefix used for object-store fan-out directories.
    pub fn dir_prefix(&self) -> String {
        self.to_hex()[..2].to_string()
    }

    /// Remainder of the hex name after the directory prefix.
    pub fn file_suffix(&self) -> String {
        self.to_hex()[2..].to_string()
    }
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentHash({})", &self.to_hex()[..12])
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Reflected CRC32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC32_TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes, so eight input bytes fold into the
/// state with eight independent loads instead of 64 dependent shifts.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut state = b as u32;
        let mut bit = 0;
        while bit < 8 {
            state = (state >> 1) ^ (CRC32_POLY & (state & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = state;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Shortest input [`crc32_update`] offers to the hardware fold: below
/// this the kernel's fixed cost (dispatch, lane set-up, the final
/// reduction) is not repaid.
const CRC32_FOLD_FROM: usize = 128;

/// Incremental CRC32: feed `state` from a previous call (start with
/// `0xFFFF_FFFF` and xor the final state with `0xFFFF_FFFF`).
pub fn crc32_update(mut state: u32, mut data: &[u8]) -> u32 {
    if data.len() >= CRC32_FOLD_FROM {
        let (blocks, tail) = data.split_at(data.len() & !15);
        if qsimd::crc32_fold(&mut state, blocks) {
            data = tail;
        }
    }
    let t = &CRC32_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// The bit-at-a-time CRC32 the table-driven [`crc32_update`] must agree
/// with — test oracle only (`cfg(test)` / the `testing` feature).
#[cfg(any(test, feature = "testing"))]
pub fn crc32_update_bitwise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state ^= b as u32;
        for _ in 0..8 {
            state = (state >> 1) ^ (CRC32_POLY & (state & 1).wrapping_neg());
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_empty_vector() {
        assert_eq!(
            Sha256::digest(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc_vector() {
        assert_eq!(
            Sha256::digest(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_block_vector() {
        assert_eq!(
            Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            Sha256::digest(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_streaming_matches_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha256::digest(&data);
        for chunk_size in [1usize, 3, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let h = Sha256::digest(b"round trip");
        let hex = h.to_hex();
        assert_eq!(ContentHash::from_hex(&hex), Some(h));
        assert_eq!(ContentHash::from_hex("zz"), None);
        assert_eq!(ContentHash::from_hex(&hex[..60]), None);
        let mut bad = hex.clone();
        bad.replace_range(0..1, "g");
        assert_eq!(ContentHash::from_hex(&bad), None);
    }

    #[test]
    fn dir_layout_helpers() {
        let h = Sha256::digest(b"x");
        assert_eq!(h.dir_prefix().len(), 2);
        assert_eq!(h.file_suffix().len(), 62);
        assert_eq!(format!("{}{}", h.dir_prefix(), h.file_suffix()), h.to_hex());
    }

    #[test]
    fn crc32_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_incremental_matches() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc32(data);
        let mut st = 0xFFFF_FFFFu32;
        st = crc32_update(st, &data[..10]);
        st = crc32_update(st, &data[10..]);
        assert_eq!(st ^ 0xFFFF_FFFF, whole);
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn display_and_debug() {
        let h = Sha256::digest(b"abc");
        assert_eq!(h.to_string().len(), 64);
        assert!(format!("{h:?}").starts_with("ContentHash(ba7816bf"));
    }
}

//! Block-level delta encoding for incremental checkpoints.
//!
//! An incremental checkpoint stores, per section, only the fixed-size blocks
//! that changed relative to a *base* checkpoint, plus the resulting length.
//! Late in training most optimizer steps touch every parameter but change
//! few *bytes* meaningfully, so deltas are combined with the XOR-f64 codec
//! at the compression layer (experiment R-F5); at the block layer the win
//! comes from untouched regions (frozen layers, ledger prefixes, metrics
//! history).

use crate::codec::{Decoder, Encoder};
use crate::error::{Error, Result};

/// Default delta block size: 512 bytes (64 parameters).
pub const DEFAULT_BLOCK_SIZE: usize = 512;

/// A block-level patch transforming one byte string into another.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPatch {
    /// Block granularity used by the diff.
    pub block_size: u32,
    /// Length of the result after applying the patch.
    pub result_len: u64,
    /// `(block_index, new_bytes)` for each changed block, sorted by index.
    pub blocks: Vec<(u64, Vec<u8>)>,
}

impl BlockPatch {
    /// Diffs `new` against `base` at `block_size` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn diff(base: &[u8], new: &[u8], block_size: usize) -> BlockPatch {
        BlockPatch {
            block_size: block_size as u32,
            result_len: new.len() as u64,
            blocks: changed_blocks(base, new, block_size)
                .map(|(index, bytes)| (index, bytes.to_vec()))
                .collect(),
        }
    }

    /// `BlockPatch::diff(base, new, block_size).encode()` without building
    /// the patch in between: the changed blocks are written straight from
    /// `new`. The save path wants only the bytes, and a dense update
    /// would otherwise copy the whole section into one small vector per
    /// block first.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn diff_encoded(base: &[u8], new: &[u8], block_size: usize) -> Vec<u8> {
        let changed: Vec<(u64, &[u8])> = changed_blocks(base, new, block_size).collect();
        encode_blocks(block_size as u32, new.len() as u64, &changed)
    }

    /// Applies the patch to `base`, producing the new byte string.
    ///
    /// # Errors
    ///
    /// Fails when a block index or length is inconsistent with `result_len`.
    pub fn apply(&self, base: &[u8]) -> Result<Vec<u8>> {
        let result_len = self.result_len as usize;
        let mut out = Vec::with_capacity(result_len);
        out.extend_from_slice(&base[..base.len().min(result_len)]);
        self.apply_in_place(&mut out)?;
        Ok(out)
    }

    /// Applies the patch to `buf` in place: `buf` is truncated or
    /// zero-extended to `result_len`, then every changed block is written
    /// over it. The deep-chain resolver folds every link of a section into
    /// one accumulator this way instead of allocating a vector per link.
    ///
    /// # Errors
    ///
    /// Fails when a block index or length is inconsistent with `result_len`;
    /// every block is checked before the first byte moves, so `buf` is
    /// untouched on error.
    pub fn apply_in_place(&self, buf: &mut Vec<u8>) -> Result<()> {
        let bs = self.block_size as usize;
        if bs == 0 {
            return Err(Error::corrupt("block patch", "zero block size"));
        }
        let result_len = self.result_len as usize;
        for (index, bytes) in &self.blocks {
            let end = usize::try_from(*index)
                .ok()
                .and_then(|i| i.checked_mul(bs))
                .and_then(|start| start.checked_add(bytes.len()));
            let Some(end) = end.filter(|end| *end <= result_len) else {
                return Err(Error::corrupt(
                    "block patch",
                    format!("block {index} overruns result length {result_len}"),
                ));
            };
            // Every block except possibly the final one must be full-sized.
            if bytes.len() != bs && end != result_len {
                return Err(Error::corrupt(
                    "block patch",
                    format!("interior block {index} has length {}", bytes.len()),
                ));
            }
        }
        buf.resize(result_len, 0);
        for (index, bytes) in &self.blocks {
            let start = (*index as usize) * bs;
            buf[start..start + bytes.len()].copy_from_slice(bytes);
        }
        Ok(())
    }

    /// Serialized patch bytes (deterministic).
    pub fn encode(&self) -> Vec<u8> {
        let blocks: Vec<(u64, &[u8])> = self
            .blocks
            .iter()
            .map(|(index, bytes)| (*index, bytes.as_slice()))
            .collect();
        encode_blocks(self.block_size, self.result_len, &blocks)
    }

    /// Parses bytes produced by [`BlockPatch::encode`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or framing violations.
    pub fn decode(data: &[u8]) -> Result<BlockPatch> {
        let mut d = Decoder::new(data, "block patch");
        let block_size = d.get_varint()? as u32;
        let result_len = d.get_varint()?;
        let count = d.get_varint()? as usize;
        let mut blocks = Vec::with_capacity(count.min(1 << 20));
        let mut prev_index: Option<u64> = None;
        for _ in 0..count {
            let index = d.get_varint()?;
            if let Some(p) = prev_index {
                if index <= p {
                    return Err(Error::corrupt(
                        "block patch",
                        format!("non-monotonic block index {index}"),
                    ));
                }
            }
            prev_index = Some(index);
            blocks.push((index, d.get_bytes()?));
        }
        d.finish()?;
        Ok(BlockPatch {
            block_size,
            result_len,
            blocks,
        })
    }

    /// Number of changed blocks.
    pub fn changed_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the patch is a no-op (identical content, same length).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// The blocks of `new` that differ from the same-position block of `base`
/// (a block past the end of `base`, or cut short by it, differs), in
/// index order.
fn changed_blocks<'a>(
    base: &'a [u8],
    new: &'a [u8],
    block_size: usize,
) -> impl Iterator<Item = (u64, &'a [u8])> {
    assert!(block_size > 0, "block size must be positive");
    new.chunks(block_size)
        .enumerate()
        .filter(move |(b, new_block)| {
            let start = b * block_size;
            let base_block = base
                .get(start..(start + new_block.len()).min(base.len()))
                .unwrap_or(&[]);
            *new_block != base_block
        })
        .map(|(b, new_block)| (b as u64, new_block))
}

/// The wire form of a patch — the one place that knows it, next to
/// [`BlockPatch::decode`].
fn encode_blocks(block_size: u32, result_len: u64, blocks: &[(u64, &[u8])]) -> Vec<u8> {
    let payload: usize = blocks.iter().map(|(_, bytes)| bytes.len() + 12).sum();
    let mut e = Encoder::with_capacity(payload + 24);
    e.put_varint(block_size as u64)
        .put_varint(result_len)
        .put_varint(blocks.len() as u64);
    for (index, bytes) in blocks {
        e.put_varint(*index).put_bytes(bytes);
    }
    e.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_apply_identity() {
        let base: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        let mut new = base.clone();
        new[100] ^= 0xFF;
        new[4999] ^= 0x01;
        let patch = BlockPatch::diff(&base, &new, 512);
        assert_eq!(patch.apply(&base).unwrap(), new);
        assert_eq!(patch.changed_blocks(), 2);
    }

    #[test]
    fn identical_inputs_empty_patch() {
        let base = vec![9u8; 2048];
        let patch = BlockPatch::diff(&base, &base, 512);
        assert!(patch.is_empty());
        assert_eq!(patch.apply(&base).unwrap(), base);
    }

    #[test]
    fn growth_is_handled() {
        let base = vec![1u8; 1000];
        let mut new = base.clone();
        new.extend_from_slice(&[2u8; 600]);
        let patch = BlockPatch::diff(&base, &new, 512);
        assert_eq!(patch.apply(&base).unwrap(), new);
    }

    #[test]
    fn shrink_is_handled() {
        let base = vec![1u8; 1600];
        let new = vec![1u8; 700];
        let patch = BlockPatch::diff(&base, &new, 512);
        assert_eq!(patch.apply(&base).unwrap(), new);
        // Only the boundary block differs (shorter tail).
        assert!(patch.changed_blocks() <= 1);
    }

    #[test]
    fn empty_base_full_patch() {
        let new = vec![3u8; 1100];
        let patch = BlockPatch::diff(&[], &new, 512);
        assert_eq!(patch.changed_blocks(), 3);
        assert_eq!(patch.apply(&[]).unwrap(), new);
    }

    #[test]
    fn empty_new_empties_result() {
        let base = vec![3u8; 1100];
        let patch = BlockPatch::diff(&base, &[], 512);
        assert!(patch.is_empty());
        assert_eq!(patch.result_len, 0);
        assert_eq!(patch.apply(&base).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn encode_decode_round_trip() {
        let base: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut new = base.clone();
        for i in (0..3000).step_by(700) {
            new[i] ^= 0xAA;
        }
        let patch = BlockPatch::diff(&base, &new, 256);
        let encoded = patch.encode();
        let decoded = BlockPatch::decode(&encoded).unwrap();
        assert_eq!(patch, decoded);
        assert_eq!(decoded.apply(&base).unwrap(), new);
    }

    #[test]
    fn decode_rejects_truncation() {
        let patch = BlockPatch::diff(&[0u8; 100], &[1u8; 100], 32);
        let encoded = patch.encode();
        for cut in 1..encoded.len() {
            assert!(
                BlockPatch::decode(&encoded[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn decode_rejects_non_monotonic_blocks() {
        let mut e = Encoder::new();
        e.put_varint(16) // block size
            .put_varint(64) // result len
            .put_varint(2) // two blocks
            .put_varint(1)
            .put_bytes(&[0u8; 16])
            .put_varint(1) // duplicate index
            .put_bytes(&[0u8; 16]);
        assert!(BlockPatch::decode(&e.into_bytes()).is_err());
    }

    #[test]
    fn apply_rejects_overrun() {
        let patch = BlockPatch {
            block_size: 16,
            result_len: 20,
            blocks: vec![(1, vec![0u8; 16])], // bytes 16..32 > 20
        };
        assert!(patch.apply(&[0u8; 20]).is_err());
    }

    #[test]
    fn apply_rejects_short_interior_block() {
        let patch = BlockPatch {
            block_size: 16,
            result_len: 64,
            blocks: vec![(0, vec![0u8; 8])], // short but not final
        };
        assert!(patch.apply(&[1u8; 64]).is_err());
    }

    #[test]
    fn apply_in_place_matches_apply() {
        let base: Vec<u8> = (0..1500u32).map(|i| (i * 31 % 251) as u8).collect();
        // Same length, grown, shrunk to a partial final block, emptied.
        for new_len in [1500usize, 2100, 700, 512, 0] {
            let mut new: Vec<u8> = base.iter().copied().cycle().take(new_len).collect();
            if let Some(b) = new.get_mut(new_len / 2) {
                *b ^= 0x5A;
            }
            let patch = BlockPatch::diff(&base, &new, 512);
            let mut buf = base.clone();
            patch.apply_in_place(&mut buf).unwrap();
            assert_eq!(buf, new, "new_len {new_len}");
            assert_eq!(patch.apply(&base).unwrap(), new, "new_len {new_len}");
        }
    }

    #[test]
    fn apply_in_place_leaves_the_buffer_untouched_on_error() {
        let patch = BlockPatch {
            block_size: 16,
            result_len: 40,
            blocks: vec![(0, vec![9u8; 16]), (2, vec![9u8; 16])], // 32..48 > 40
        };
        let mut buf = vec![1u8; 64];
        assert!(patch.apply_in_place(&mut buf).is_err());
        assert_eq!(buf, vec![1u8; 64]);
        let huge = BlockPatch {
            block_size: 16,
            result_len: 40,
            blocks: vec![(u64::MAX / 2, vec![9u8; 16])],
        };
        assert!(huge.apply_in_place(&mut buf).is_err());
    }

    #[test]
    fn sparse_updates_yield_small_patches() {
        // 64 KiB section, one byte changed → one 512-byte block.
        let base = vec![0u8; 65536];
        let mut new = base.clone();
        new[30_000] = 1;
        let patch = BlockPatch::diff(&base, &new, DEFAULT_BLOCK_SIZE);
        assert_eq!(patch.changed_blocks(), 1);
        assert!(patch.encode().len() < 600);
    }

    #[test]
    fn patch_chain_composes() {
        // v0 → v1 → v2: applying both patches sequentially reproduces v2.
        let v0 = vec![0u8; 4096];
        let mut v1 = v0.clone();
        v1[10] = 1;
        let mut v2 = v1.clone();
        v2[2000] = 2;
        let p01 = BlockPatch::diff(&v0, &v1, 512);
        let p12 = BlockPatch::diff(&v1, &v2, 512);
        let r1 = p01.apply(&v0).unwrap();
        let r2 = p12.apply(&r1).unwrap();
        assert_eq!(r2, v2);
    }
}

//! Fixed-size chunking of section payloads.
//!
//! Section byte streams are split into fixed-size chunks (default 4 KiB)
//! which are stored content-addressed in an [`crate::store::ObjectStore`].
//! Identical chunks across checkpoints — the unchanged prefix of a parameter
//! vector, a shared dataset blob across a hyperparameter sweep — are stored
//! once (experiment R-F7).

use serde::{Deserialize, Serialize};

use crate::hash::{ContentHash, Sha256};

/// Default chunk size: 4 KiB.
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

/// A reference to one stored chunk: its content address and exact length.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChunkRef {
    /// SHA-256 of the chunk contents.
    pub hash: ContentHash,
    /// Length in bytes (≤ the chunk size used when writing).
    pub len: u32,
}

/// Minimum chunk count before chunk hashing fans out across threads
/// (below this, thread-scope overhead exceeds the SHA-256 work).
pub const PARALLEL_MIN_CHUNKS: usize = 16;

/// Splits `data` into `chunk_size`-byte chunks and returns `(refs, chunks)`,
/// hashing chunks on the ambient [`qpar::current_threads`] worker threads
/// when there are at least [`PARALLEL_MIN_CHUNKS`] of them.
///
/// The last chunk may be shorter. Empty input produces no chunks.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn chunk_bytes(data: &[u8], chunk_size: usize) -> (Vec<ChunkRef>, Vec<&[u8]>) {
    chunk_bytes_threads(data, chunk_size, qpar::current_threads())
}

/// [`chunk_bytes`] with an explicit thread count. Chunk refs are produced
/// in input order whatever the thread count, so results are bit-identical
/// to the serial path.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn chunk_bytes_threads(
    data: &[u8],
    chunk_size: usize,
    threads: usize,
) -> (Vec<ChunkRef>, Vec<&[u8]>) {
    assert!(chunk_size > 0, "chunk size must be positive");
    let slices: Vec<&[u8]> = data.chunks(chunk_size).collect();
    let hashes = if threads > 1 && slices.len() >= PARALLEL_MIN_CHUNKS {
        Sha256::digest_many(slices.clone(), threads)
    } else {
        slices.iter().map(|s| Sha256::digest(s)).collect()
    };
    let refs = hashes
        .into_iter()
        .zip(&slices)
        .map(|(hash, chunk)| ChunkRef {
            hash,
            len: chunk.len() as u32,
        })
        .collect();
    (refs, slices)
}

/// Total byte length referenced by a chunk list.
pub fn total_len(refs: &[ChunkRef]) -> u64 {
    refs.iter().map(|r| r.len as u64).sum()
}

/// Reassembles chunk payloads into the original byte stream.
///
/// The caller supplies chunk contents in order (as fetched from the store);
/// lengths are validated against the refs.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn reassemble(refs: &[ChunkRef], chunks: &[Vec<u8>]) -> Result<Vec<u8>, String> {
    if refs.len() != chunks.len() {
        return Err(format!(
            "chunk count mismatch: {} refs, {} payloads",
            refs.len(),
            chunks.len()
        ));
    }
    let mut out = Vec::with_capacity(total_len(refs) as usize);
    for (i, (r, c)) in refs.iter().zip(chunks).enumerate() {
        if c.len() != r.len as usize {
            return Err(format!(
                "chunk {i} length mismatch: expected {}, got {}",
                r.len,
                c.len()
            ));
        }
        let h = Sha256::digest(c);
        if h != r.hash {
            return Err(format!("chunk {i} hash mismatch"));
        }
        out.extend_from_slice(c);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_input_exactly() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let (refs, slices) = chunk_bytes(&data, 4096);
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[0].len, 4096);
        assert_eq!(refs[2].len, 10_000 - 8192);
        assert_eq!(total_len(&refs), 10_000);
        let owned: Vec<Vec<u8>> = slices.iter().map(|s| s.to_vec()).collect();
        assert_eq!(reassemble(&refs, &owned).unwrap(), data);
    }

    #[test]
    fn empty_input_no_chunks() {
        let (refs, slices) = chunk_bytes(&[], 4096);
        assert!(refs.is_empty());
        assert!(slices.is_empty());
        assert_eq!(reassemble(&refs, &[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn identical_blocks_share_hashes() {
        let mut data = vec![7u8; 8192];
        data.extend_from_slice(&[1, 2, 3]);
        let (refs, _) = chunk_bytes(&data, 4096);
        assert_eq!(refs[0].hash, refs[1].hash);
        assert_ne!(refs[0].hash, refs[2].hash);
    }

    #[test]
    fn exact_multiple_has_no_short_tail() {
        let data = vec![9u8; 8192];
        let (refs, _) = chunk_bytes(&data, 4096);
        assert_eq!(refs.len(), 2);
        assert!(refs.iter().all(|r| r.len == 4096));
    }

    #[test]
    fn reassemble_detects_tampering() {
        let data = vec![5u8; 5000];
        let (refs, slices) = chunk_bytes(&data, 4096);
        let mut owned: Vec<Vec<u8>> = slices.iter().map(|s| s.to_vec()).collect();
        owned[1][0] ^= 0xFF;
        assert!(reassemble(&refs, &owned)
            .unwrap_err()
            .contains("hash mismatch"));

        let mut short = slices.iter().map(|s| s.to_vec()).collect::<Vec<_>>();
        short[0].pop();
        assert!(reassemble(&refs, &short)
            .unwrap_err()
            .contains("length mismatch"));

        assert!(reassemble(&refs, &owned[..1])
            .unwrap_err()
            .contains("count mismatch"));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_panics() {
        chunk_bytes(&[1], 0);
    }
}

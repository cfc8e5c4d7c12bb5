//! Checkpoint manifests: the on-disk metadata record.
//!
//! A manifest names a checkpoint, records whether it is full or a delta
//! against a base checkpoint, and lists every section with its codec,
//! integrity hashes and chunk references. The binary layout is framed by a
//! magic string and a trailing CRC32 so that torn writes are rejected before
//! any deeper parsing happens; the SHA-256 hashes inside protect against
//! silent bit rot in the payload chunks.

use serde::{Deserialize, Serialize};

use crate::chunk::ChunkRef;
use crate::codec::{Decoder, Encoder};
use crate::compress::Compression;
use crate::error::{Error, Result};
use crate::hash::{crc32, ContentHash};

/// Magic bytes opening every manifest file.
pub const MANIFEST_MAGIC: &[u8; 6] = b"QCKPT\0";
/// Format version written by this build. Version 2 changed `snapshot_sha`
/// from a flat hash over all section bytes to the root hash over the
/// per-section digests; version-1 manifests are rejected as unsupported
/// rather than misdiagnosed as corrupt. No read-compat path exists for v1
/// because no buildable release ever wrote it (the v1 constant predates
/// the workspace's first successful build); if that ever changes, gate the
/// root-hash verification on the decoded version instead.
pub const FORMAT_VERSION: u32 = 2;
/// Encoded length of one chunk reference: hash + length.
const CHUNK_REF_LEN: usize = 32 + 4;
/// Least a section entry can encode to: an empty name's length prefix,
/// codec, payload kind, two lengths, the digest and an empty chunk count.
const MIN_SECTION_LEN: usize = 1 + 1 + 1 + 8 + 8 + 32 + 1;

/// Identifier of a checkpoint, also its manifest file stem.
///
/// Shape: `ckpt-{step:010}-{seq:06}`. Ids order by `seq` — the commit
/// order, since a save takes its seq from the manifest log — and then by
/// string, so "newest" means last committed even when a run's step goes
/// backwards. A string without a seq orders by string, before every id
/// that has one.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CheckpointId(pub String);

impl Ord for CheckpointId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (Self::seq_of(&self.0), &self.0).cmp(&(Self::seq_of(&other.0), &other.0))
    }
}

impl PartialOrd for CheckpointId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl CheckpointId {
    /// Builds an id from a step and a per-repo sequence number.
    pub fn new(step: u64, seq: u64) -> Self {
        CheckpointId(format!("ckpt-{step:010}-{seq:06}"))
    }

    /// The sequence number an id string ends in, parsed without
    /// allocating; `None` for a string [`Self::new`] did not build.
    pub fn seq_of(id: &str) -> Option<u64> {
        id.rsplit_once('-')?.1.parse().ok()
    }

    /// The id string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Manifest file name for this id.
    pub fn file_name(&self) -> String {
        format!("{}.qmf", self.0)
    }
}

impl std::fmt::Display for CheckpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Whether a checkpoint stores full sections or patches against a base.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointKind {
    /// Self-contained checkpoint.
    Full,
    /// Delta against `base`; resolving requires the base (recursively).
    Delta {
        /// The base checkpoint id.
        base: CheckpointId,
    },
}

/// How a section's payload is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PayloadKind {
    /// Chunks hold the (compressed) full section bytes.
    Full,
    /// Chunks hold a (compressed) [`crate::delta::BlockPatch`] against the
    /// base checkpoint's same-named section.
    DeltaPatch,
    /// Chunks hold the byte-wise XOR of the section against the base
    /// checkpoint's same-named, same-length section (dense-update deltas:
    /// only the differing bytes survive and the zero-elide codec removes
    /// the rest).
    XorBase,
}

/// Per-section manifest entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectionEntry {
    /// Section name (see [`crate::snapshot`]).
    pub name: String,
    /// Compression codec applied to the stored payload.
    pub codec: Compression,
    /// Full payload or delta patch.
    pub payload_kind: PayloadKind,
    /// Length of the stored payload before compression (section bytes for
    /// `Full`, encoded patch bytes for `DeltaPatch`).
    pub stored_len: u64,
    /// Length of the *resolved* section bytes.
    pub section_len: u64,
    /// SHA-256 of the resolved section bytes (end-to-end integrity across
    /// delta chains).
    pub section_sha: ContentHash,
    /// Ordered chunk references holding the compressed payload.
    pub chunks: Vec<ChunkRef>,
}

/// A checkpoint manifest.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Checkpoint id.
    pub id: CheckpointId,
    /// Optimizer step captured.
    pub step: u64,
    /// Full or delta.
    pub kind: CheckpointKind,
    /// Delta-chain length: 0 for full checkpoints, base + 1 for deltas.
    pub chain_len: u32,
    /// Capture wall-clock, milliseconds since the Unix epoch.
    pub created_unix_ms: u64,
    /// Snapshot root hash: SHA-256 over the per-section digests
    /// concatenated in order. Each section digest is verified against the
    /// resolved bytes, so the root binds the full snapshot while letting
    /// the expensive data hashing run once, per-section and in parallel.
    pub snapshot_sha: ContentHash,
    /// Sections in serialization order.
    pub sections: Vec<SectionEntry>,
}

impl Manifest {
    /// Serializes to the framed binary format (magic + version + payload +
    /// CRC32).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_raw(MANIFEST_MAGIC);
        e.put_u32(FORMAT_VERSION);
        e.put_str(self.id.as_str());
        e.put_u64(self.step);
        match &self.kind {
            CheckpointKind::Full => {
                e.put_u8(0);
            }
            CheckpointKind::Delta { base } => {
                e.put_u8(1);
                e.put_str(base.as_str());
            }
        }
        e.put_u32(self.chain_len);
        e.put_u64(self.created_unix_ms);
        e.put_raw(&self.snapshot_sha.0);
        e.put_varint(self.sections.len() as u64);
        for s in &self.sections {
            e.put_str(&s.name);
            e.put_u8(s.codec.tag());
            e.put_u8(match s.payload_kind {
                PayloadKind::Full => 0,
                PayloadKind::DeltaPatch => 1,
                PayloadKind::XorBase => 2,
            });
            e.put_u64(s.stored_len);
            e.put_u64(s.section_len);
            e.put_raw(&s.section_sha.0);
            e.put_varint(s.chunks.len() as u64);
            for c in &s.chunks {
                e.put_raw(&c.hash.0);
                e.put_u32(c.len);
            }
        }
        let crc = crc32(e.as_bytes());
        e.put_u32(crc);
        e.into_bytes()
    }

    /// Parses and verifies a framed manifest.
    ///
    /// # Errors
    ///
    /// Fails on bad magic, unsupported version, CRC mismatch (torn write /
    /// bit rot) or structural decode errors.
    pub fn decode(data: &[u8]) -> Result<Manifest> {
        if data.len() < MANIFEST_MAGIC.len() + 4 + 4 {
            return Err(Error::corrupt("manifest", "file too short"));
        }
        let (body, crc_bytes) = data.split_at(data.len() - 4);
        let stored_crc =
            u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        let actual_crc = crc32(body);
        if stored_crc != actual_crc {
            return Err(Error::corrupt(
                "manifest",
                format!("crc mismatch: stored {stored_crc:08x}, actual {actual_crc:08x}"),
            ));
        }
        let mut d = Decoder::new(body, "manifest");
        let magic = d.get_raw(MANIFEST_MAGIC.len())?;
        if magic != MANIFEST_MAGIC {
            return Err(Error::corrupt("manifest", "bad magic"));
        }
        let version = d.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(Error::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let id = CheckpointId(d.get_str()?);
        let step = d.get_u64()?;
        let kind = match d.get_u8()? {
            0 => CheckpointKind::Full,
            1 => CheckpointKind::Delta {
                base: CheckpointId(d.get_str()?),
            },
            other => {
                return Err(Error::corrupt(
                    "manifest",
                    format!("unknown checkpoint kind {other}"),
                ))
            }
        };
        let chain_len = d.get_u32()?;
        let created_unix_ms = d.get_u64()?;
        let mut sha = [0u8; 32];
        sha.copy_from_slice(d.get_raw(32)?);
        let snapshot_sha = ContentHash(sha);
        // Both counts are only declared: reserve for no more entries than
        // the bytes still unread could encode.
        let n_sections = d.get_varint()? as usize;
        let mut sections = Vec::with_capacity(n_sections.min(d.remaining() / MIN_SECTION_LEN));
        for _ in 0..n_sections {
            let name = d.get_str()?;
            let codec = Compression::from_tag(d.get_u8()?)?;
            let payload_kind = match d.get_u8()? {
                0 => PayloadKind::Full,
                1 => PayloadKind::DeltaPatch,
                2 => PayloadKind::XorBase,
                other => {
                    return Err(Error::corrupt(
                        "manifest",
                        format!("unknown payload kind {other}"),
                    ))
                }
            };
            let stored_len = d.get_u64()?;
            let section_len = d.get_u64()?;
            let mut ssha = [0u8; 32];
            ssha.copy_from_slice(d.get_raw(32)?);
            let n_chunks = d.get_varint()? as usize;
            let mut chunks = Vec::with_capacity(n_chunks.min(d.remaining() / CHUNK_REF_LEN));
            for _ in 0..n_chunks {
                let mut ch = [0u8; 32];
                ch.copy_from_slice(d.get_raw(32)?);
                chunks.push(ChunkRef {
                    hash: ContentHash(ch),
                    len: d.get_u32()?,
                });
            }
            sections.push(SectionEntry {
                name,
                codec,
                payload_kind,
                stored_len,
                section_len,
                section_sha: ContentHash(ssha),
                chunks,
            });
        }
        d.finish()?;
        Ok(Manifest {
            id,
            step,
            kind,
            chain_len,
            created_unix_ms,
            snapshot_sha,
            sections,
        })
    }

    /// All chunk references across all sections.
    pub fn chunk_refs(&self) -> impl Iterator<Item = &ChunkRef> {
        self.sections.iter().flat_map(|s| s.chunks.iter())
    }

    /// Total stored (compressed) payload bytes referenced by this manifest.
    pub fn stored_bytes(&self) -> u64 {
        self.chunk_refs().map(|c| c.len as u64).sum()
    }

    /// Total resolved (logical) snapshot bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.sections.iter().map(|s| s.section_len).sum()
    }

    /// Whether this is a delta checkpoint.
    pub fn is_delta(&self) -> bool {
        matches!(self.kind, CheckpointKind::Delta { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Sha256;

    fn sample_manifest() -> Manifest {
        Manifest {
            id: CheckpointId::new(412, 7),
            step: 412,
            kind: CheckpointKind::Delta {
                base: CheckpointId::new(400, 6),
            },
            chain_len: 3,
            created_unix_ms: 1_765_000_000_000,
            snapshot_sha: Sha256::digest(b"whole snapshot"),
            sections: vec![
                SectionEntry {
                    name: "params".into(),
                    codec: Compression::XorF64,
                    payload_kind: PayloadKind::DeltaPatch,
                    stored_len: 900,
                    section_len: 8192,
                    section_sha: Sha256::digest(b"params bytes"),
                    chunks: vec![
                        ChunkRef {
                            hash: Sha256::digest(b"chunk0"),
                            len: 512,
                        },
                        ChunkRef {
                            hash: Sha256::digest(b"chunk1"),
                            len: 388,
                        },
                    ],
                },
                SectionEntry {
                    name: "meta".into(),
                    codec: Compression::None,
                    payload_kind: PayloadKind::Full,
                    stored_len: 64,
                    section_len: 64,
                    section_sha: Sha256::digest(b"meta bytes"),
                    chunks: vec![ChunkRef {
                        hash: Sha256::digest(b"meta chunk"),
                        len: 64,
                    }],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = sample_manifest();
        let bytes = m.encode();
        let back = Manifest::decode(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn ids_order_like_steps() {
        let a = CheckpointId::new(5, 0);
        let b = CheckpointId::new(40, 0);
        let c = CheckpointId::new(40, 1);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a.file_name(), "ckpt-0000000005-000000.qmf");
    }

    #[test]
    fn crc_detects_any_single_bitflip() {
        let bytes = sample_manifest().encode();
        for i in (0..bytes.len()).step_by(37) {
            let mut broken = bytes.clone();
            broken[i] ^= 0x40;
            assert!(
                Manifest::decode(&broken).is_err(),
                "bit flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample_manifest().encode();
        for cut in [0, 1, 5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_manifest().encode();
        bytes[0] = b'X';
        let err = Manifest::decode(&bytes).unwrap_err();
        // CRC catches it first (magic is under the CRC), either way: corrupt.
        assert!(err.is_integrity_failure());
    }

    #[test]
    fn future_version_is_rejected_with_clear_error() {
        let mut m = sample_manifest();
        m.sections.clear();
        let mut bytes = m.encode();
        // Patch the version field (bytes 6..10) and re-frame the CRC.
        bytes.truncate(bytes.len() - 4);
        bytes[6..10].copy_from_slice(&99u32.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        match Manifest::decode(&bytes) {
            Err(Error::UnsupportedVersion {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        let m = sample_manifest();
        assert_eq!(m.stored_bytes(), 512 + 388 + 64);
        assert_eq!(m.logical_bytes(), 8192 + 64);
        assert_eq!(m.chunk_refs().count(), 3);
        assert!(m.is_delta());
    }

    #[test]
    fn full_manifest_round_trip() {
        let mut m = sample_manifest();
        m.kind = CheckpointKind::Full;
        m.chain_len = 0;
        let back = Manifest::decode(&m.encode()).unwrap();
        assert!(!back.is_delta());
        assert_eq!(back.chain_len, 0);
    }

    #[test]
    fn empty_sections_round_trip() {
        let mut m = sample_manifest();
        m.sections.clear();
        let back = Manifest::decode(&m.encode()).unwrap();
        assert!(back.sections.is_empty());
    }

    #[test]
    fn determinism() {
        assert_eq!(sample_manifest().encode(), sample_manifest().encode());
    }
}

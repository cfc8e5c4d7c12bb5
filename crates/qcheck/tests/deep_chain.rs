//! Deep delta chains on every backend: the per-section, fold-in-place
//! resolver against the oldest-first reference it replaced, and the
//! integrity argument it rests on — every stored byte is checked against
//! its content address as it is read, so damage to any chunk of any link
//! is a typed error (or a fallback), never a wrong snapshot.

use std::collections::BTreeSet;

use proptest::prelude::*;

use qcheck::hash::ContentHash;
use qcheck::manifest::{CheckpointId, PayloadKind};
use qcheck::remote::{spawn_daemon, DaemonHandle, RemoteStore};
use qcheck::repo::{CheckpointRepo, SaveMode, SaveOptions};
use qcheck::snapshot::{Section, StateBlob, TrainingSnapshot};
use qcheck::store::{ObjectStore, StoreBackend, StoreKind};
use qcheck::verify::fsck;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "qcheck-deep-chain-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The daemon the remote backend talks to, and a namespace no other
/// test uses: the `qckptd` process `QCHECK_REMOTE_ADDR` names when it is
/// set (CI's remote leg — a process of its own, which may run another
/// SIMD level, hence another CRC backend, than this client), else an
/// in-process one that the returned handle keeps alive.
fn daemon(dir: &TempDir) -> (Option<DaemonHandle>, String, String) {
    let namespace = dir.0.file_name().unwrap().to_string_lossy().to_string();
    match qcheck::remote::RemoteEnv::read().addr {
        Some(addr) => (None, addr, namespace),
        None => {
            let daemon = spawn_daemon(dir.0.join("daemon"), StoreKind::Pack).unwrap();
            let addr = daemon.addr();
            (Some(daemon), addr, namespace)
        }
    }
}

/// One repository per backend under `dir`, with whatever keeps the
/// remote one's daemon alive.
fn backends(dir: &TempDir) -> (Option<DaemonHandle>, Vec<CheckpointRepo>) {
    let (daemon, addr, namespace) = daemon(dir);
    let store = RemoteStore::connect(addr, namespace).unwrap();
    let repos = vec![
        CheckpointRepo::open_with(dir.0.join("loose"), StoreKind::Loose).unwrap(),
        CheckpointRepo::open_with(dir.0.join("pack"), StoreKind::Pack).unwrap(),
        CheckpointRepo::with_store(dir.0.join("client"), StoreBackend::Remote(store)).unwrap(),
    ];
    (daemon, repos)
}

/// How the training state moves between two saves.
#[derive(Clone, Copy, Debug)]
enum Update {
    /// A few parameters move: block patches win.
    Sparse { at: u16 },
    /// Every parameter and moment moves a little: XOR against the base wins.
    Dense,
    /// The parameter vector changes length and the ledger grows.
    Resize { grow: bool },
    /// A custom section appears (or changes) mid-chain.
    Custom { fill: u8 },
}

fn arb_update() -> impl Strategy<Value = Update> {
    prop_oneof![
        any::<u16>().prop_map(|at| Update::Sparse { at }),
        Just(Update::Dense),
        any::<bool>().prop_map(|grow| Update::Resize { grow }),
        any::<u8>().prop_map(|fill| Update::Custom { fill }),
    ]
}

const BLOCK_SIZES: [usize; 3] = [64, 512, 4096];

/// A training state of `n` parameters with two moments each.
fn subject(n: usize) -> TrainingSnapshot {
    let mut s = TrainingSnapshot::new("deep-chain");
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    s.params = (0..n).map(|_| next()).collect();
    let moments: Vec<u8> = (0..2 * n).flat_map(|_| next().to_le_bytes()).collect();
    s.optimizer = StateBlob::new("adam-v1", moments);
    s.shot_ledger = vec![7; 48];
    s
}

fn evolve(s: &mut TrainingSnapshot, update: Update) {
    s.step += 1;
    s.total_shots += 1000;
    match update {
        Update::Sparse { at } => {
            for k in 0..3 {
                let i = (at as usize + 977 * k) % s.params.len();
                s.params[i] += 0.25;
            }
        }
        Update::Dense => {
            for p in &mut s.params {
                *p += 1e-9;
            }
            for m in s.optimizer.data.chunks_exact_mut(8) {
                let v = f64::from_le_bytes((&*m).try_into().unwrap()) * (1.0 + 1e-12);
                m.copy_from_slice(&v.to_le_bytes());
            }
        }
        Update::Resize { grow } => {
            if grow {
                s.params.extend([0.5; 9]);
            } else {
                s.params.truncate(s.params.len().saturating_sub(9).max(1));
            }
            s.shot_ledger.extend([s.step as u8; 700]);
        }
        Update::Custom { fill } => {
            s.custom.insert("probe".into(), vec![fill; 3000]);
        }
    }
}

/// Saves `s` as the next link of one long chain.
fn save(repo: &CheckpointRepo, s: &TrainingSnapshot, block: usize) -> CheckpointId {
    let opts = SaveOptions {
        mode: SaveMode::DeltaAuto { max_chain_len: 64 },
        delta_block_size: BLOCK_SIZES[block % BLOCK_SIZES.len()],
        created_unix_ms: Some(s.step),
        ..SaveOptions::default()
    };
    repo.save(s, &opts).unwrap().id
}

/// The resolver at 1, 2 and 4 threads, the reference, and the sections
/// that were saved must be one and the same.
fn assert_resolves_like_reference(
    repo: &CheckpointRepo,
    id: &CheckpointId,
    saved: &[Section],
) -> Result<(), TestCaseError> {
    let manifest = repo.load_manifest(id).unwrap();
    let reference = repo.resolve_sections_reference(&manifest).unwrap();
    prop_assert_eq!(
        &reference[..],
        saved,
        "{} reference on {}",
        id,
        repo.store_kind()
    );
    for threads in [1, 2, 4] {
        let got = qpar::with_threads(threads, || repo.resolve_sections(&manifest)).unwrap();
        prop_assert_eq!(
            &got,
            &reference,
            "{} at {} threads on {}",
            id,
            threads,
            repo.store_kind()
        );
    }
    Ok(())
}

proptest! {
    // Every case writes a chain of ~200 KiB snapshots to three backends.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random chains — sparse, dense and length-changing updates, mixed
    /// delta block sizes, a section that appears mid-chain — resolve to
    /// what the reference resolver yields and to what was saved, at the
    /// tip and at a link picked from the middle. 8192 parameters put the
    /// chain above the fan-out's size floor, so 2 and 4 threads run the
    /// balanced bins.
    #[test]
    fn chains_resolve_like_the_reference(
        updates in prop::collection::vec((arb_update(), 0usize..3), 0..12),
        pick in any::<prop::sample::Index>(),
    ) {
        let dir = TempDir::new("prop");
        let (_daemon, repos) = backends(&dir);
        for repo in &repos {
            let mut s = subject(8192);
            let mut saved = vec![(save(repo, &s, 1), s.to_sections())];
            for (update, block) in &updates {
                evolve(&mut s, *update);
                saved.push((save(repo, &s, *block), s.to_sections()));
            }
            for link in [saved.len() - 1, pick.index(saved.len())] {
                let (id, sections) = &saved[link];
                assert_resolves_like_reference(repo, id, sections)?;
            }
        }
    }
}

/// The update kinds above reach every payload kind, so the property
/// exercises `Full`, `DeltaPatch` and `XorBase` links (and a chain whose
/// sections stop at different depths).
#[test]
fn update_kinds_cover_every_payload_kind() {
    let dir = TempDir::new("kinds");
    let repo = CheckpointRepo::open_with(dir.0.join("pack"), StoreKind::Pack).unwrap();
    let mut s = subject(8192);
    let mut ids = vec![save(&repo, &s, 1)];
    for update in [
        Update::Dense,
        Update::Sparse { at: 11 },
        Update::Custom { fill: 3 },
        Update::Resize { grow: true },
        Update::Dense,
    ] {
        evolve(&mut s, update);
        ids.push(save(&repo, &s, 1));
    }
    let kinds: BTreeSet<String> = ids[1..]
        .iter()
        .flat_map(|id| repo.load_manifest(id).unwrap().sections)
        .map(|e| format!("{:?}", e.payload_kind))
        .collect();
    for kind in [
        PayloadKind::Full,
        PayloadKind::DeltaPatch,
        PayloadKind::XorBase,
    ] {
        assert!(
            kinds.contains(&format!("{kind:?}")),
            "no {kind:?} link in {kinds:?}"
        );
    }
    assert_eq!(repo.load(ids.last().unwrap()).unwrap(), s);
}

/// Flipping one byte in *any* chunk of *any* link of a depth-8 chain never
/// yields an unknown state: loading the tip fails with a typed integrity
/// error exactly when the chunk lies on one of the tip's section chains
/// (the links back to that section's newest `Full` payload) and returns
/// what was saved otherwise, recovery falls back to a snapshot that was
/// saved (or reports that none is valid), and `fsck` names the oldest
/// checkpoint that references the damaged chunk. The heavy sections chain
/// the whole depth; the small ones save less than a link costs and are
/// stored whole at every save, so their older chunks feed only their own
/// checkpoint.
#[test]
fn any_damaged_chunk_of_any_link_is_caught_on_every_backend() {
    let dir = TempDir::new("damage");
    let (_daemon, repos) = backends(&dir);
    for repo in &repos {
        let kind = repo.store_kind();
        let mut s = subject(1024);
        let mut saved = vec![(save(repo, &s, 1), s.clone())];
        for step in 0..8 {
            evolve(
                &mut s,
                if step % 3 == 2 {
                    Update::Sparse { at: step }
                } else {
                    Update::Dense
                },
            );
            saved.push((save(repo, &s, 1), s.clone()));
        }
        let tip = saved.last().unwrap().0.clone();
        assert_eq!(repo.load_manifest(&tip).unwrap().chain_len, 8);
        let known = |snap: &TrainingSnapshot| saved.iter().any(|(_, s)| s == snap);

        // Every chunk a resolve of the tip reads: per section, the links
        // newest first down to its newest `Full` payload.
        let manifests: Vec<_> = saved
            .iter()
            .map(|(id, _)| repo.load_manifest(id).unwrap())
            .collect();
        let mut feeds_tip: BTreeSet<ContentHash> = BTreeSet::new();
        for name in manifests.last().unwrap().sections.iter().map(|e| &e.name) {
            for m in manifests.iter().rev() {
                let entry = m.sections.iter().find(|e| &e.name == name).unwrap();
                feeds_tip.extend(entry.chunks.iter().map(|c| c.hash));
                if entry.payload_kind == PayloadKind::Full {
                    break;
                }
            }
        }

        let mut seen: BTreeSet<ContentHash> = BTreeSet::new();
        let mut drilled_off_chain = 0;
        for m in &manifests {
            for chunk in m.chunk_refs() {
                if !seen.insert(chunk.hash) {
                    continue; // first referenced by an older link, drilled there
                }
                repo.store().corrupt_object(&chunk.hash, 5).unwrap();

                if feeds_tip.contains(&chunk.hash) {
                    let err = repo
                        .load(&tip)
                        .expect_err("tip resolved over a damaged chunk");
                    assert!(err.is_integrity_failure(), "{kind}: untyped {err}");
                } else {
                    drilled_off_chain += 1;
                    assert_eq!(repo.load(&tip).unwrap(), saved.last().unwrap().1);
                }
                match repo.recover() {
                    Ok((snap, _)) => assert!(known(&snap), "{kind}: recovered unknown state"),
                    Err(e) => assert!(
                        matches!(e, qcheck::Error::NoValidCheckpoint { .. }),
                        "{kind}: untyped {e}"
                    ),
                }
                let report = fsck(repo).unwrap();
                let oldest_damaged = report
                    .checkpoints
                    .iter()
                    .find(|(_, health)| !health.is_intact())
                    .map(|(id, _)| id);
                assert_eq!(oldest_damaged, Some(&m.id), "{kind}: chunk {}", chunk.hash);

                // The same flip again restores the byte.
                repo.store().corrupt_object(&chunk.hash, 5).unwrap();
            }
        }
        assert!(
            seen.len() - drilled_off_chain > 30,
            "{kind}: only {} chunks on the tip's chains drilled",
            seen.len() - drilled_off_chain
        );
        assert!(drilled_off_chain > 0, "{kind}: every chunk feeds the tip");
        assert!(fsck(repo)
            .unwrap()
            .checkpoints
            .iter()
            .all(|(_, h)| h.is_intact()));
        assert_eq!(repo.load(&tip).unwrap(), saved.last().unwrap().1);
    }
}

/// Remote recovery costs round trips in proportion to *link-sections*,
/// not chunks: every `get_many` the resolver issues — one per section
/// per chain link — is one `Fetch` frame while it names at most a
/// frame's budget, so a depth-32 recover from a fresh working directory
/// stays at links × sections plus the open-and-sync traffic (a manifest
/// per link, a handful of fixed frames).
/// (Protocol ≤ 4 spent a round trip per chunk: 14 080 on
/// `ckpt_dense_remote`.)
#[test]
fn remote_recover_round_trips_scale_with_link_sections_not_chunks() {
    const DEPTH: usize = 32;
    let dir = TempDir::new("round-trips");
    let (_daemon, addr, namespace) = daemon(&dir);
    let open = |work: &str| {
        let store = RemoteStore::connect(addr.as_str(), namespace.as_str()).unwrap();
        CheckpointRepo::with_store(dir.0.join(work), StoreBackend::Remote(store)).unwrap()
    };
    let writer = open("writer");
    let mut s = subject(16_384);
    let mut ids = vec![save(&writer, &s, 1)];
    for _ in 0..DEPTH {
        evolve(&mut s, Update::Dense);
        ids.push(save(&writer, &s, 1));
    }
    let manifests: Vec<_> = ids
        .iter()
        .map(|id| writer.load_manifest(id).unwrap())
        .collect();
    let tip = manifests.last().unwrap();
    assert_eq!(tip.chain_len as usize, DEPTH);
    let sections = tip.sections.len();
    let chunks: usize = manifests.iter().map(|m| m.chunk_refs().count()).sum();
    drop(writer);

    let reader = open("reader");
    let (back, report) = reader.recover().unwrap();
    assert_eq!(back, s);
    assert_eq!(report.manifests_tried, 1);
    let trips = reader.store().remote().unwrap().round_trips();
    // Per link: one Fetch per section at most (a section whose chain
    // ends early needs fewer) and, in a fresh working directory, its
    // manifest (one pipelined MetaGet). Fixed: handshake, metadata
    // listings, LATEST.
    const FIXED: u64 = 8;
    let bound = (ids.len() * (sections + 1)) as u64 + FIXED;
    assert!(
        trips <= bound,
        "{trips} round trips for {} links × {sections} sections (bound {bound})",
        ids.len()
    );
    assert!(
        chunks as u64 > 4 * bound,
        "the drill must tell chunks from link-sections: {chunks} chunks in the chain"
    );
}

//! The remote half of the short-chain resume claim, as exact counts: a
//! depth-32 chain of dense saves, recovered through a daemon from a fresh
//! working directory, folds one link per section — six fetches, not one
//! per section per link — so the resume's frames are the fixed traffic
//! of an open plus one pipelined `MetaGet` per manifest of the chain.
//! (While `meta` still chained, saving its ~50 B XOR at every link, the
//! same resume folded 38 links in 76 frames.)
//!
//! One test, alone in its binary, like `dense_resolve_counters.rs`: the
//! qobs registry is process-wide, and `==` on a delta needs a process
//! nothing else counts in.

use qcheck::remote::{spawn_daemon, RemoteStore};
use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::{StateBlob, TrainingSnapshot};
use qcheck::store::{StoreBackend, StoreKind};

const DEPTH: u64 = 32;

/// Random mantissas in the parameters and moments, all redrawn every step.
fn dense_snapshot(step: u64) -> TrainingSnapshot {
    let mut x = 0x2545_F491_4F6C_DD1Du64 ^ step;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut s = TrainingSnapshot::new("remote-resume-round-trips");
    s.step = step;
    s.params = (0..8192).map(|_| next()).collect();
    s.optimizer = StateBlob::new(
        "adam-v1",
        (0..16384).flat_map(|_| next().to_le_bytes()).collect(),
    );
    s
}

#[test]
fn a_depth_32_dense_remote_resume_folds_one_link_per_section() {
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let dir = std::env::temp_dir().join(format!(
        "qcheck-remote-resume-round-trips-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = spawn_daemon(dir.join("daemon"), StoreKind::Pack).unwrap();
    let open = |work: &str| {
        let store = RemoteStore::connect(daemon.addr(), "resume").unwrap();
        CheckpointRepo::with_store(dir.join(work), StoreBackend::Remote(store)).unwrap()
    };
    {
        let writer = open("writer");
        for step in 0..=DEPTH {
            let report = writer
                .save(&dense_snapshot(step), &SaveOptions::incremental(32))
                .unwrap();
            assert_eq!(
                report.chain_len, step as u32,
                "the manifest chain keeps its depth"
            );
        }
    }

    // A fresh working directory, as after a kill on another host.
    let links = || qobs::counter("qcheck_resolve_links_total").get();
    let links_before = links();
    let reader = open("reader");
    let (snapshot, report) = reader.recover().unwrap();
    let folded = links() - links_before;
    let trips = reader.store().remote().unwrap().round_trips();
    assert_eq!(snapshot, dense_snapshot(DEPTH));
    assert_eq!(report.manifests_tried, 1);
    let sections = snapshot.to_sections().len() as u64;
    assert_eq!(folded, sections, "one link per section, not one per link");
    assert_eq!(folded, 6);
    // Counted from the connect: the handshake, the open's staging clear,
    // two metadata listings, a `MetaGet` for each of the 33 manifests and
    // one for `LATEST`, and one `Fetch` per section: 1 + 1 + 2 + 34 + 6.
    assert_eq!(trips, 44);

    drop(reader);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

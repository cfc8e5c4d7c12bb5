//! `METRICS` acceptance suite.
//!
//! The daemon's observability contract: any client can fetch the
//! qobs text exposition in one frame, without ever holding a writer
//! lease, and the rendering is stable-ordered across scrapes. The
//! single test below drives real checkpoint traffic through an
//! in-process daemon and then checks the scrape covers the documented
//! metric names (see the "Observability" section of the qcheck
//! README). Everything lives in one test on purpose: parallel tests
//! would mint new label sets between the two scrapes and break the
//! name-sequence comparison.

use qcheck::remote::{spawn_daemon, RemoteStore};
use qcheck::repo::{CheckpointRepo, SaveOptions};
use qcheck::snapshot::TrainingSnapshot;
use qcheck::store::{StoreBackend, StoreKind};

fn scratch(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("qcheck-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Non-comment lines of an exposition, split into (name, value).
fn samples(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').expect("sample line has a value column");
            (name.to_string(), value.to_string())
        })
        .collect()
}

#[test]
fn metrics_scrape_parses_and_covers_the_contract() {
    if qobs::mode() == qobs::Mode::Off {
        qobs::set_mode(qobs::Mode::Counters);
    }
    let dir = scratch("contract");
    let daemon = spawn_daemon(dir.join("daemon"), StoreKind::Pack).unwrap();

    // Real traffic: a save/recover drill over the wire, so the scrape
    // below has request counters and server-side fsync samples to show.
    let store = RemoteStore::connect(daemon.addr(), "drill").unwrap();
    store.acquire_writer_lease().unwrap();
    let repo = CheckpointRepo::with_store(dir.join("client"), StoreBackend::Remote(store)).unwrap();
    let mut snap = TrainingSnapshot::new("metrics-drill");
    snap.step = 7;
    snap.params = vec![0.5; 256];
    let durable = SaveOptions {
        fsync: true,
        ..SaveOptions::default()
    };
    repo.save(&snap, &durable).unwrap();
    let (recovered, _) = repo.recover().unwrap();
    assert_eq!(recovered.step, 7);

    // The probe handle never acquires a lease — METRICS, like STATUS,
    // is read-only and must be served anyway (here the drill's writer
    // lease on "drill" is still live).
    let probe = RemoteStore::connect(daemon.addr(), "control").unwrap();
    let text = probe.metrics().unwrap();

    // Every sample line is `name[{labels}] value` with a numeric value.
    let first = samples(&text);
    assert!(!first.is_empty(), "exposition is empty");
    for (name, value) in &first {
        assert!(!name.is_empty(), "empty name in {text:?}");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value {value:?} for {name}"
        );
    }

    // Contract coverage: per-op request counters, fsync latency and
    // repository-open span histograms, replication lag, lease grants, in-flight connections.
    let has = |needle: &str| first.iter().any(|(name, _)| name.contains(needle));
    assert!(has("qckptd_requests_total{"), "no per-op request counters");
    assert!(
        first
            .iter()
            .any(|(n, _)| n.starts_with("qckptd_requests_total{") && n.contains("op=\"hello\"")),
        "request counters are not labeled per op"
    );
    assert!(has("qcheck_fsync_ns_bucket{"), "no fsync latency histogram");
    assert!(has("qcheck_open_ns_bucket{"), "no open span histogram");
    assert!(has("qckptd_repl_lag_entries"), "no repl lag gauge");
    assert!(has("qckptd_lease_grants_total"), "no lease-grant counter");
    assert!(has("qckptd_inflight_connections"), "no in-flight gauge");
    assert!(has("qckptd_uptime_seconds"), "no uptime gauge");
    assert!(has("qckptd_bytes_in_total"), "no ingress byte counter");
    assert!(has("qckptd_bytes_out_total"), "no egress byte counter");

    // The drill held the only lease the whole time, so the probe's
    // scrape proves lease-free reads; its own requests were counted
    // too (METRICS is counted before it renders).
    assert!(
        first
            .iter()
            .any(|(n, _)| n.contains("ns=\"control\"") && n.contains("op=\"metrics\"")),
        "the scrape itself is not counted"
    );

    // Stable order: a second scrape renders the identical name
    // sequence (values may move; names and their order may not).
    let second = samples(&probe.metrics().unwrap());
    let names = |v: &[(String, String)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&first), names(&second), "scrape order is unstable");
}

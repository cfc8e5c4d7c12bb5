//! `qckpt` — repository inspection and maintenance CLI.
//!
//! ```text
//! qckpt <repo> list                     list checkpoints
//! qckpt <repo> show <id|latest>         manifest + snapshot summary
//! qckpt <repo> stats                    storage backend + object statistics
//! qckpt <repo> metrics                  qobs text exposition (daemon's if remote)
//! qckpt <repo> fsck                     verify everything
//! qckpt <repo> gc                       sweep unreferenced chunks
//! qckpt <repo> compact                  rewrite the latest chain as full
//! qckpt <repo> retain <n>               keep the newest n checkpoints
//! ```

use std::process::ExitCode;

use qcheck::manifest::CheckpointId;
use qcheck::repo::{CheckpointRepo, Retention, SaveOptions};
use qcheck::store::ObjectStore;
use qcheck::verify::{fsck, CheckpointHealth};

fn usage() -> ExitCode {
    eprintln!(
        "usage: qckpt <repo> <list|show|stats|metrics|fsck|gc|compact|retain> [args]\n\
         see `qckpt --help` in the module docs for details"
    );
    ExitCode::from(2)
}

fn resolve_id(repo: &CheckpointRepo, spec: &str) -> Result<CheckpointId, String> {
    if spec == "latest" {
        repo.read_latest()
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "repository has no LATEST pointer".to_string())
    } else {
        Ok(CheckpointId(spec.to_string()))
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        return Err("missing arguments".into());
    }
    let repo = CheckpointRepo::open(&args[0]).map_err(|e| e.to_string())?;
    match (args[1].as_str(), args.get(2), args.get(3)) {
        ("list", None, None) => {
            let ids = repo.list_ids().map_err(|e| e.to_string())?;
            let latest = repo.read_latest().map_err(|e| e.to_string())?;
            println!(
                "{:<28} {:>6} {:>7} {:>10} {:>12}",
                "id", "kind", "chain", "step", "stored-B"
            );
            for id in ids {
                match repo.load_manifest(&id) {
                    Ok(m) => println!(
                        "{:<28} {:>6} {:>7} {:>10} {:>12}{}",
                        id.as_str(),
                        if m.is_delta() { "delta" } else { "full" },
                        m.chain_len,
                        m.step,
                        m.stored_bytes(),
                        if Some(&id) == latest.as_ref() {
                            "  <- LATEST"
                        } else {
                            ""
                        },
                    ),
                    Err(e) => println!("{:<28} CORRUPT: {e}", id.as_str()),
                }
            }
            Ok(())
        }
        ("show", Some(spec), None) => {
            let id = resolve_id(&repo, spec)?;
            let manifest = repo.load_manifest(&id).map_err(|e| e.to_string())?;
            println!("id:           {}", manifest.id);
            println!("step:         {}", manifest.step);
            println!("kind:         {:?}", manifest.kind);
            println!("chain length: {}", manifest.chain_len);
            println!("created (ms): {}", manifest.created_unix_ms);
            println!("snapshot sha: {}", manifest.snapshot_sha);
            println!("sections:");
            for s in &manifest.sections {
                println!(
                    "  {:<16} {:>9} B logical, {:>9} B stored, codec {}, {:?}, {} chunks",
                    s.name,
                    s.section_len,
                    s.chunks.iter().map(|c| c.len as u64).sum::<u64>(),
                    s.codec,
                    s.payload_kind,
                    s.chunks.len()
                );
            }
            let snapshot = repo.load(&id).map_err(|e| e.to_string())?;
            println!("label:        {}", snapshot.label);
            println!("params:       {}", snapshot.params.len());
            println!("total shots:  {}", snapshot.total_shots);
            println!(
                "rng streams:  {:?}",
                snapshot.rng_streams.keys().collect::<Vec<_>>()
            );
            Ok(())
        }
        ("stats", None, None) => {
            let stats = repo.store().stats().map_err(|e| e.to_string())?;
            let ids = repo.list_ids().map_err(|e| e.to_string())?;
            println!("backend:       {}", repo.store_kind());
            println!("checkpoints:   {}", ids.len());
            println!("objects:       {}", stats.object_count);
            println!("payload bytes: {}", stats.total_bytes);
            // Read-only sweep preview: every unreachable object a `gc`
            // would delete now.
            let plan = repo.gc_plan().map_err(|e| e.to_string())?;
            println!(
                "gc would reclaim: {} objects ({} B)",
                plan.deleted, plan.reclaimed_bytes
            );
            if let Some(remote) = repo.store().remote() {
                println!(
                    "remote:        {} ns={} round-trips={}",
                    remote.addr(),
                    remote.namespace(),
                    remote.round_trips()
                );
            }
            Ok(())
        }
        ("metrics", None, None) => {
            // Against a remote backend, show the daemon's registry (the
            // interesting one: request counters, fsync timings live
            // server-side); locally, show this process's own.
            match repo.store().remote() {
                Some(remote) => print!("{}", remote.metrics().map_err(|e| e.to_string())?),
                None => print!("{}", qobs::text_exposition()),
            }
            Ok(())
        }
        ("fsck", None, None) => {
            let report = fsck(&repo).map_err(|e| e.to_string())?;
            for (id, health) in &report.checkpoints {
                match health {
                    CheckpointHealth::Intact => println!("ok      {id}"),
                    CheckpointHealth::ManifestCorrupt(d) => println!("BAD     {id}: manifest: {d}"),
                    CheckpointHealth::ChunksDamaged(d) => println!("BAD     {id}: chunks: {d}"),
                    CheckpointHealth::ChainBroken(d) => println!("BAD     {id}: chain: {d}"),
                }
            }
            println!(
                "{} intact / {} total; {} orphan chunks ({} B); LATEST {}",
                report.intact_count(),
                report.checkpoints.len(),
                report.orphan_chunks,
                report.orphan_bytes,
                if report.latest_ok { "ok" } else { "BROKEN" }
            );
            if report.is_clean() {
                Ok(())
            } else {
                Err("repository is not clean".into())
            }
        }
        ("gc", None, None) => {
            let report = repo.gc().map_err(|e| e.to_string())?;
            println!(
                "live {} / deleted {} objects, reclaimed {} B",
                report.live, report.deleted, report.reclaimed_bytes
            );
            Ok(())
        }
        ("compact", None, None) => {
            match repo
                .compact_latest(&SaveOptions::default())
                .map_err(|e| e.to_string())?
            {
                Some(r) => println!(
                    "compacted chain into {} ({} B written)",
                    r.id,
                    r.bytes_written()
                ),
                None => println!("latest checkpoint is already full; nothing to do"),
            }
            Ok(())
        }
        ("retain", Some(n), None) => {
            let n: usize = n.parse().map_err(|_| format!("bad count '{n}'"))?;
            let report = repo
                .apply_retention(Retention::KeepLast(n))
                .map_err(|e| e.to_string())?;
            println!(
                "deleted {} manifests; gc reclaimed {} B",
                report.manifests_deleted, report.gc.reclaimed_bytes
            );
            Ok(())
        }
        _ => Err("unrecognized command".into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            if msg == "missing arguments" || msg == "unrecognized command" {
                return usage();
            }
            eprintln!("qckpt: {msg}");
            ExitCode::FAILURE
        }
    }
}

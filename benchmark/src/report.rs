//! Reduces a run's samples to the named metrics, stamps the environment,
//! and prints the result: a readable table, then — as the last line of
//! standard output — the one JSON object the driver reads.

use std::fmt::Write as _;

use crate::episode::Samples;
use crate::json::{num, quote};
use crate::spec::{MetricDef, Spec, END_TO_END, PER_LAYER};
use crate::stages::{RECOVER_STAGES, SAVE_STAGES};
use crate::stats::{best_decile, mean, p50, tail};
use crate::trace::Tracer;

/// One reported metric: its value and how many samples stand behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0: the layer did not run on this workload).
    pub n: usize,
    /// Which percentile a `*_p95` metric could actually support.
    pub note: Option<String>,
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets `VmHWM` to the current resident size, so that the next reading is
/// the peak since now. False where the kernel offers no such reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

struct Table {
    defs: &'static [MetricDef],
    out: Vec<Metric>,
}

impl Table {
    fn put(&mut self, name: &str, value: f64, n: usize) {
        self.put_noted(name, value, n, None);
    }

    fn put_noted(&mut self, name: &str, value: f64, n: usize, note: Option<String>) {
        let (name, unit, _) = self
            .defs
            .iter()
            .find(|d| d.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.out.push(Metric {
            name,
            unit,
            value,
            n,
            note,
        });
    }

    fn p50(&mut self, name: &str, samples: &[f64]) {
        self.put(name, p50(samples), samples.len());
    }

    /// [`best_decile`] of one value per episode, on the metric's better side.
    fn best(&mut self, name: &str, samples: &[f64]) {
        let lower = self.defs.iter().any(|d| d.0 == name && d.2 == "lower");
        self.put(name, best_decile(samples, lower), samples.len());
    }

    fn mean(&mut self, name: &str, samples: &[f64]) {
        self.put(name, mean(samples), samples.len());
    }

    /// p95 when the sample supports it, else the highest percentile it does.
    fn tail(&mut self, name: &str, samples: &[f64]) {
        let (q, value) = tail(samples);
        let note = (q != 95).then(|| format!("p{q}: n={} supports no p95", samples.len()));
        self.put_noted(name, value, samples.len(), note);
    }

    /// The table in declaration order, every metric present exactly once.
    fn finish(mut self) -> Vec<Metric> {
        let order = |m: &Metric| self.defs.iter().position(|d| d.0 == m.name);
        self.out.sort_by_key(order);
        assert_eq!(
            self.out.iter().map(|m| m.name).collect::<Vec<_>>(),
            self.defs.iter().map(|d| d.0).collect::<Vec<_>>(),
            "every metric of the table is reported exactly once"
        );
        self.out
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(s: &Samples) -> Vec<Metric> {
    let mut t = Table {
        defs: &END_TO_END,
        out: Vec::new(),
    };
    // One value per episode, then the quiet tenth of the episodes.
    t.best("setup_s", &s.episode_setup_s);
    t.best("steps_per_s", &s.steps_per_s);
    t.best("save_ms_p50", &s.episode_save_ms);
    t.best("resume_ms_p50", &s.episode_resume_ms);
    let written: u64 = s.reports.iter().map(|r| r.bytes_written()).sum();
    let logical: u64 = s.reports.iter().map(|r| r.logical_bytes).sum();
    t.put("write_amp", ratio(written, logical), s.reports.len());
    t.put(
        "space_amp",
        ratio(s.disk_bytes, s.retained_logical_bytes),
        s.episodes as usize,
    );
    t.best("peak_rss_mib", &s.episode_peak_rss_mib);
    t.finish()
}

/// The per-layer metrics of a traced run. `plain` holds the one episode the
/// traced run executed with the recorder off.
pub fn per_layer(threads: usize, s: &Samples, plain: &Samples, tracer: &Tracer) -> Vec<Metric> {
    let mut t = Table {
        defs: &PER_LAYER,
        out: Vec::new(),
    };
    let save_stages = |names: &[&str]| tracer.per_op_us("replay.save", names);
    let save_stage = |name: &str| save_stages(&[name]);
    let recover_stages = |names: &[&str]| tracer.per_op_us("replay.recover", names);
    let recover_stage = |name: &str| recover_stages(&[name]);
    let reports = |f: fn(&qcheck::repo::SaveReport) -> u64| -> Vec<f64> {
        s.reports.iter().map(|r| f(r) as f64).collect()
    };

    // qsim / qnn / qpar
    t.p50(
        "qsim.plan.compile_us",
        &tracer.each_us("replay.compile", "Circuit::compile"),
    );
    t.p50(
        "qsim.plan.rebind_us_p50",
        &tracer.each_us("replay.step", "BoundPlan::rebind"),
    );
    let runs = tracer.each_us("replay.step", "BoundPlan::run_on");
    t.p50("qsim.plan.run_us_p50", &runs);
    t.put(
        "qsim.plan.passes_per_run",
        s.passes_per_run as f64,
        runs.len(),
    );
    t.put(
        "qsim.plan.amp_bytes_per_run",
        s.amp_bytes_per_run as f64,
        runs.len(),
    );
    t.p50(
        "qsim.measure.expectation_us_p50",
        &tracer.each_us("replay.step", "evaluate_observable"),
    );
    t.p50("qnn.trainer.step_ms_p50", &s.step_ms);
    t.tail("qnn.trainer.step_ms_p95", &s.step_ms);
    t.p50("qnn.trainer.capture_us_p50", &s.capture_us);
    t.p50("qnn.trainer.restore_us_p50", &s.restore_us);
    t.mean("qnn.gradient.evals_per_step", &s.evals);
    // The trainer's optimizer call is inside `train_step`, so the sim
    // workload times it in the step replay; the dense subject is this
    // package's own code and wraps the call directly.
    let mut optimizer = tracer.each_us("replay.step", "Optimizer::step");
    optimizer.extend(tracer.each_us("step", "Optimizer::step"));
    t.p50("qnn.optimizer.step_us_p50", &optimizer);
    t.put("qpar.threads", threads as f64, 1);
    t.p50(
        "qpar.fanout_us_p50",
        &tracer.each_us("replay.fanout", "qpar::map_owned"),
    );

    // qcheck encode / decode stages
    t.p50(
        "qcheck.snapshot.to_sections_us_p50",
        &save_stage("TrainingSnapshot::to_sections"),
    );
    t.p50(
        "qcheck.snapshot.from_sections_us_p50",
        &recover_stage("TrainingSnapshot::from_sections"),
    );
    t.p50(
        "qcheck.snapshot.logical_bytes",
        &reports(|r| r.logical_bytes),
    );
    t.p50(
        "qcheck.delta.diff_us_p50",
        &save_stages(&["BlockPatch::diff", "BlockPatch::encode", "xor_base"]),
    );
    t.p50(
        "qcheck.delta.apply_us_p50",
        &recover_stages(&["BlockPatch::apply", "xor_base"]),
    );
    t.put(
        "qcheck.delta.changed_block_ratio",
        ratio(s.stage_counts.changed_blocks, s.stage_counts.total_blocks),
        s.stage_counts.total_blocks as usize,
    );
    t.p50(
        "qcheck.compress.compress_us_p50",
        &save_stage("Compression::compress"),
    );
    t.p50(
        "qcheck.compress.decompress_us_p50",
        &recover_stage("Compression::decompress"),
    );
    t.put(
        "qcheck.compress.ratio",
        ratio(
            s.reports.iter().map(|r| r.stored_bytes).sum(),
            s.reports.iter().map(|r| r.logical_bytes).sum(),
        ),
        s.reports.len(),
    );
    t.p50("qcheck.chunk.split_us_p50", &save_stage("chunk_bytes"));
    t.mean(
        "qcheck.chunk.chunks_per_save",
        &reports(|r| (r.chunks_new + r.chunks_deduped) as u64),
    );
    let sha = save_stage("Sha256::digest");
    t.p50("qcheck.hash.sha256_us_p50", &sha);
    let sha_us: f64 = sha.iter().sum();
    t.put(
        "qcheck.hash.mb_per_s",
        if sha_us > 0.0 {
            s.stage_counts.sha_bytes as f64 / sha_us
        } else {
            0.0
        },
        sha.len(),
    );

    // store
    let put_batch = save_stage("ObjectStore::put_batch");
    let remote = !s.round_trips_per_save.is_empty();
    t.p50("qcheck.store.put_batch_us_p50", &put_batch);
    t.p50(
        "qcheck.store.get_us_p50",
        &recover_stage("ObjectStore::get_many"),
    );
    t.mean(
        "qcheck.store.renames_per_save",
        &reports(|r| r.store_renames),
    );
    // Flush counts come from the post-resume saves: the timed ones run
    // with `fsync` off (see `Run::save_options`).
    let durable = |f: fn(&qcheck::repo::SaveReport) -> u64| -> Vec<f64> {
        s.durable_reports.iter().map(|r| f(r) as f64).collect()
    };
    t.mean("qcheck.store.fsyncs_per_save", &durable(|r| r.store_fsyncs));
    t.mean(
        "qcheck.store.new_chunk_bytes_per_save",
        &reports(|r| r.new_chunk_bytes),
    );
    t.put(
        "qcheck.store.dedup_hit_ratio",
        ratio(
            s.reports.iter().map(|r| r.chunks_deduped as u64).sum(),
            s.reports
                .iter()
                .map(|r| (r.chunks_new + r.chunks_deduped) as u64)
                .sum(),
        ),
        s.reports.len(),
    );
    t.p50("qcheck.store.gc_ms_p50", &s.gc_ms);
    t.put(
        "qcheck.store.gc_bytes_rewritten",
        ratio(s.gc_bytes_rewritten, s.episodes),
        s.gc_ms.len(),
    );
    t.put(
        "qcheck.store.pack_index_rescans",
        ratio(s.pack_index_rescans, s.episodes),
        s.episodes as usize,
    );

    // manifest log
    t.p50(
        "qcheck.manifest_log.append_us_p50",
        &save_stage("manifest_log::append_to_log"),
    );
    t.p50(
        "qcheck.manifest_log.root_flip_us_p50",
        &save_stage("manifest_log::write_root_slot"),
    );
    t.p50(
        "qcheck.manifest_log.replay_us_p50",
        &recover_stage("manifest_log::replay"),
    );
    t.mean(
        "qcheck.manifest_log.commit_fsyncs_per_save",
        &durable(|r| r.commit_fsyncs),
    );
    t.mean(
        "qcheck.manifest_log.commit_renames_per_save",
        &reports(|r| r.commit_renames),
    );
    t.mean(
        "qcheck.manifest_log.manifest_bytes_per_save",
        &reports(|r| r.manifest_bytes),
    );

    // repo
    t.p50("qcheck.repo.save_full_ms_p50", &s.save_full_ms);
    t.p50("qcheck.repo.save_delta_ms_p50", &s.save_delta_ms);
    let mut saves = s.save_full_ms.clone();
    saves.extend(&s.save_delta_ms);
    t.tail("qcheck.repo.save_ms_p95", &saves);
    let unattributed = |whole_us: f64, kind: &str, stages: &[&str]| -> f64 {
        let parts: f64 = stages
            .iter()
            .map(|n| p50(&tracer.per_op_us(kind, &[n])))
            .sum();
        if whole_us > 0.0 {
            100.0 * (whole_us - parts) / whole_us
        } else {
            0.0
        }
    };
    t.put(
        "qcheck.repo.save_unattributed_pct",
        unattributed(p50(&s.replayed_save_us), "replay.save", &SAVE_STAGES),
        s.replayed_save_us.len(),
    );
    t.p50("qcheck.repo.open_ms_p50", &s.open_ms);
    t.p50("qcheck.repo.recover_ms_p50", &s.recover_ms);
    t.put(
        "qcheck.repo.recover_unattributed_pct",
        unattributed(p50(&s.recover_ms) * 1e3, "replay.recover", &RECOVER_STAGES),
        s.recover_ms.len(),
    );
    t.p50("qcheck.repo.recover_chain_len", &s.recover_chain_len);
    t.p50("qcheck.repo.manifests_tried", &s.manifests_tried);
    t.p50("qcheck.repo.load_ms_p50", &s.load_ms);
    t.p50("qcheck.repo.retention_ms_p50", &s.retention_ms);

    // remote
    t.p50(
        "qcheck.remote.client.round_trips_per_save",
        &s.round_trips_per_save,
    );
    t.p50(
        "qcheck.remote.client.round_trips_per_resume",
        &s.round_trips_per_resume,
    );
    t.p50(
        "qcheck.remote.client.put_batch_us_p50",
        if remote { &put_batch } else { &[] },
    );
    t.p50(
        "qcheck.remote.client.meta_put_us_p50",
        &save_stage("ObjectStore::meta_put"),
    );
    t.put(
        "qcheck.remote.client.retries",
        (s.retries + plain.retries) as f64,
        if remote {
            (s.episodes + plain.episodes) as usize
        } else {
            0
        },
    );
    t.p50(
        "qcheck.remote.proto.wire_bytes_out_per_save",
        &s.wire_out_per_save,
    );
    t.p50(
        "qcheck.remote.proto.wire_bytes_in_per_resume",
        &s.wire_in_per_resume,
    );
    t.p50(
        "qcheck.remote.server.requests_per_save",
        &s.requests_per_save,
    );
    // The daemon's oplog total spans namespaces, so it reads true only in
    // the episode without staged replays (they write to a scratch namespace).
    t.p50(
        "qcheck.remote.server.oplog_entries_per_save",
        &plain.oplog_entries_per_save,
    );

    // the run itself
    let per_step = |x: &Samples| {
        if x.loop_steps > 0 {
            x.loop_s / x.loop_steps as f64
        } else {
            0.0
        }
    };
    let (traced, untraced) = (per_step(s), per_step(plain));
    t.put(
        "bench.trace_overhead_pct",
        if untraced > 0.0 {
            100.0 * (traced / untraced - 1.0)
        } else {
            0.0
        },
        (s.loop_steps + plain.loop_steps) as usize,
    );
    // fig3's overhead: the share of the pre-kill loop not spent in steps.
    t.put(
        "run.ckpt_share_pct",
        if traced > 0.0 {
            100.0 * (1.0 - p50(&s.step_ms) / 1e3 / traced)
        } else {
            0.0
        },
        s.step_ms.len(),
    );
    t.finish()
}

/// Everything that identifies the conditions of a run.
pub fn stamp(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    s: &Samples,
) -> Vec<(&'static str, String)> {
    let q_env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with('Q') && k[1..].starts_with(|c: char| c.is_ascii_uppercase()))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", spec.name.to_string()),
        ("why", spec.why.to_string()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("git_commit", git_commit()),
        ("nproc", nproc.to_string()),
        ("qpar_threads", threads.to_string()),
        ("qsimd_level", qsimd::active().name().to_string()),
        ("sha_backend", qsimd::sha_backend().name().to_string()),
        ("cpu_features", qsimd::cpu_features().to_string()),
        (
            "store_kind",
            s.store_kind.map_or("none".into(), |k| k.to_string()),
        ),
        (
            "fsync",
            "off in timed saves, on in the post-resume saves".to_string(),
        ),
        ("qobs_mode", format!("{:?}", qobs::mode())),
        ("q_env", q_env.join(" ")),
        ("episodes", s.episodes.to_string()),
    ]
}

/// The checked-out commit, read from `.git` without running git (the driver's
/// checkout is not a repository: there it is "unknown").
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(m.name),
            num(m.value),
            quote(m.unit)
        );
    }
    line.push_str("}}");
    line
}

/// The full report as one JSON line: the result line's content plus the
/// stamp and each metric's sample count. `compare` reads files of these.
pub fn report_line(
    stamp: &[(&'static str, String)],
    attempted: u64,
    failed: u64,
    messages: &[String],
    metrics: &[Metric],
) -> String {
    let mut line = String::from("{\"stamp\": {");
    for (i, (k, v)) in stamp.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}{}: {}", quote(k), quote(v));
    }
    let _ = write!(
        line,
        "}}, \"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"failures\": [{}], \"metrics\": {{",
        failed == 0,
        messages.iter().map(|m| quote(m)).collect::<Vec<_>>().join(", ")
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
            quote(m.name),
            num(m.value),
            quote(m.unit),
            m.n
        );
    }
    line.push_str("}}");
    line
}

/// The readable table printed before the result line.
pub fn print_table(stamp: &[(&'static str, String)], messages: &[String], metrics: &[Metric]) {
    for (k, v) in stamp {
        println!("# {k}: {v}");
    }
    for m in messages {
        println!("# FAILED {m}");
    }
    for m in metrics {
        let note = m
            .note
            .as_ref()
            .map_or(String::new(), |n| format!("  [{n}]"));
        println!(
            "{:<48} {:>16} {:<6} n={}{note}",
            m.name,
            num(m.value),
            m.unit,
            m.n
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            n: 3,
            note: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = [
            metric("latency_ms", "ms", 1.2034),
            metric("setup_s", "s", 0.8127),
        ];
        let v = json::parse(&result_line(1000, 0, &metrics)).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1000.0));
        let m = v.get("metrics").and_then(|m| m.get("latency_ms")).unwrap();
        let keys: Vec<&str> = m.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["unit", "value"]);
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
        // A failure flips `correct`; `attempted` is never below 1.
        let v = json::parse(&result_line(0, 2, &metrics)).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn report_line_parses_and_carries_stamp_and_counts() {
        let stamp = vec![("workload", "w".to_string()), ("seed", "7".to_string())];
        let line = report_line(
            &stamp,
            5,
            1,
            &["oracle: \"x\"".to_string()],
            &[metric("a.b", "us", 2.5)],
        );
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.get("stamp")
                .and_then(|s| s.get("workload"))
                .and_then(Value::as_str),
            Some("w")
        );
        let m = v.get("metrics").and_then(|m| m.get("a.b")).unwrap();
        assert_eq!(m.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn end_to_end_reports_every_metric_once_in_table_order() {
        let s = Samples {
            episode_setup_s: vec![0.5],
            steps_per_s: vec![4.0, 5.0, 9.0],
            episode_save_ms: vec![1.0, 3.0, 2.0],
            episode_resume_ms: vec![9.0],
            episodes: 3,
            ..Samples::default()
        };
        let metrics = end_to_end(&s);
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|d| d.0));
        // The best episode of three: the fastest rate, the shortest stall.
        assert_eq!(metrics[1].value, 9.0);
        assert_eq!(metrics[2].value, 1.0);
    }
}

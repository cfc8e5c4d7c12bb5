//! `qbench` — the repository's benchmark.
//!
//! ```text
//! qbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!        [--append <file>] [--allow-env]
//! qbench --smoke
//! qbench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! One process, one client, closed loop: a seeded, fixed-shape *train →
//! checkpoint → kill → resume → continue* episode is repeated until
//! `--seconds` have passed, every output is checked, and every metric is
//! printed by name with its unit. See `README.md` beside this package.

mod compare;
mod episode;
mod json;
mod report;
mod site;
mod spec;
mod stages;
mod stats;
mod subject;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use episode::{Run, Samples};
use spec::{Spec, WORKLOADS};
use trace::Tracer;

/// Set-ups made and torn down before every episode. A set-up takes 0.1–2 ms
/// and its time moves in bursts, so each episode contributes the median of
/// its own and these to `setup_s`.
const EXTRA_SETUPS: usize = 30;

/// Prefixes of the environment variables that change what the libraries do.
const OVERRIDE_PREFIXES: [&str; 3] = ["QSIM_", "QCHECK_", "QPAR_"];

const USAGE: &str = "usage: qbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--append <file>] [--allow-env]
       qbench --smoke
       qbench compare <a.jsonl> <b.jsonl>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    append: Option<PathBuf>,
    allow_env: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut append = None;
    let mut allow_env = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--append" => append = Some(PathBuf::from(value()?)),
            "--allow-env" => allow_env = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        append,
        allow_env,
    })
}

/// The benchmark's own directory under the current one; runs start at the
/// repository (or checkout) root.
fn out_dir() -> Result<PathBuf, String> {
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run qbench from the repository root (no ./benchmark/Cargo.toml here)".into());
    }
    let out = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    Ok(out)
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// What one run of one workload produced.
struct Outcome {
    samples: Samples,
    /// The unrecorded episodes of a traced run.
    plain: Samples,
    /// Seconds spent warming up, in the extra set-ups, and measuring.
    phases: [f64; 3],
}

impl Outcome {
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced one.
    fn metrics(&self, trace: bool, threads: usize, tracer: &Tracer) -> Vec<report::Metric> {
        if trace {
            report::per_layer(threads, &self.samples, &self.plain, tracer)
        } else {
            report::end_to_end(&self.samples)
        }
    }

    /// Operations attempted and failed over every episode, with the messages.
    fn ops(&self) -> (u64, u64, Vec<String>) {
        let (a, b) = (&self.plain.ops, &self.samples.ops);
        let messages = a.messages.iter().chain(&b.messages).cloned().collect();
        (a.attempted + b.attempted, a.failed + b.failed, messages)
    }
}

/// Repeats the episode for `seconds` seconds: between episodes (never inside
/// one) the run stops as soon as the end is nearer than half an average
/// episode, so it measures for `seconds` give or take half an episode; at
/// least one episode always runs. `warm` puts the unmeasured warm-up episode
/// and the extra set-ups in front.
fn measure(run: &Run<'_>, seconds: u64, trace: bool, warm: bool) -> Outcome {
    let mut samples = Samples::default();
    let mut plain = Samples::default();
    let mut phases = [0.0; 3];
    let result = (|| -> Result<(), String> {
        let started = Instant::now();
        if warm {
            // The first episode of a process runs slower than the rest (cold
            // caches, pool start-up, page faults): one goes unmeasured.
            let warm_up = Run {
                spec: run.spec.warm_up(),
                ..*run
            };
            let mut discarded = Samples::default();
            warm_up.episode(&mut discarded, false)?;
            samples.ops = discarded.ops;
            phases[0] = started.elapsed().as_secs_f64();
        }
        let measuring = Instant::now();
        let seconds = Duration::from_secs(seconds);
        for rounds in 1.. {
            if warm {
                let setups = Instant::now();
                for _ in 0..EXTRA_SETUPS {
                    run.setup_only(&mut samples)?;
                }
                phases[1] += setups.elapsed().as_secs_f64();
            }
            if trace {
                // Every traced episode is preceded by one exactly as the
                // untraced run executes it — recorder off, no replays — so
                // `bench.trace_overhead_pct` compares episodes of the same
                // process age (loop time drifts as the heap settles).
                run.episode(&mut plain, false)?;
            }
            run.tracer.set_on(trace);
            let measured = run.episode(&mut samples, trace);
            run.tracer.set_on(false);
            measured?;
            let elapsed = measuring.elapsed();
            phases[2] = elapsed.as_secs_f64() - phases[1];
            if elapsed + elapsed / rounds / 2 >= seconds {
                break;
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        eprintln!("qbench: run aborted: {e}");
    }
    Outcome {
        samples,
        plain,
        phases,
    }
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let spec = Spec::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?} (have: {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| OVERRIDE_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect();
    if !overrides.is_empty() && !args.allow_env {
        return Err(format!(
            "refusing to run with {} set (pass --allow-env to measure under overrides)",
            overrides.join(", ")
        ));
    }
    let out = out_dir()?;
    let work = out.join(format!("work-{}", std::process::id()));
    let threads = threads();
    qpar::set_global_threads(threads);
    let tracer = Tracer::new(false);
    let run = Run {
        spec,
        seed: args.seed,
        threads,
        work: &work,
        tracer: &tracer,
    };
    let outcome = measure(&run, args.seconds, args.trace, true);
    let _ = std::fs::remove_dir_all(&work);

    let metrics = outcome.metrics(args.trace, threads, &tracer);
    let (attempted, mut failed, mut messages) = outcome.ops();
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        failed += 1;
        messages.push(format!("metric {} is not a finite number", m.name));
    }
    if !args.trace {
        // An end-to-end metric that reads 0 was not measured.
        for m in metrics.iter().filter(|m| m.value <= 0.0) {
            failed += 1;
            messages.push(format!("end-to-end metric {} reads {}", m.name, m.value));
        }
    }
    let mut stamp = report::stamp(
        &spec,
        args.seed,
        args.seconds,
        args.trace,
        threads,
        &outcome.samples,
    );
    stamp.push((
        "phases_s",
        format!(
            "warm-up {:.2}, extra set-ups {:.2}, measured {:.2}",
            outcome.phases[0], outcome.phases[1], outcome.phases[2]
        ),
    ));
    if args.trace {
        let path = out.join(format!("{}.trace.jsonl", spec.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if let Some(path) = &args.append {
        let line = report::report_line(&stamp, attempted, failed, &messages, &metrics);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    }
    report::print_table(&stamp, &messages, &metrics);
    println!("{}", report::result_line(attempted, failed, &metrics));
    Ok(failed == 0)
}

/// All four workloads at toy sizes, untraced and traced, oracles on.
fn smoke() -> Result<bool, String> {
    let out = out_dir()?;
    let work = out.join(format!("smoke-{}", std::process::id()));
    let threads = threads();
    qpar::set_global_threads(threads);
    let mut ok = true;
    for spec in WORKLOADS.map(Spec::smoke) {
        for trace in [false, true] {
            let started = Instant::now();
            let tracer = Tracer::new(false);
            let run = Run {
                spec,
                seed: 1,
                threads,
                work: &work,
                tracer: &tracer,
            };
            let outcome = measure(&run, 0, trace, false);
            let metrics = outcome.metrics(trace, threads, &tracer);
            let (attempted, failed, messages) = outcome.ops();
            let complete =
                outcome.samples.episodes == 1 && metrics.iter().all(|m| m.value.is_finite());
            println!(
                "smoke {:<18} trace={} ops={attempted} failed={failed} metrics={} in {:.2}s",
                spec.name,
                u8::from(trace),
                metrics.len(),
                started.elapsed().as_secs_f64()
            );
            for m in &messages {
                println!("  FAILED {m}");
            }
            ok &= failed == 0 && complete;
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2], "BENCHMARK.json"),
        Some("--smoke") if args.len() == 1 => smoke(),
        None | Some("--help" | "-h" | "compare" | "--smoke") => Err(USAGE.to_string()),
        _ => parse_args(&args).and_then(|a| run_workload(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("qbench: {e}");
            ExitCode::from(2)
        }
    }
}

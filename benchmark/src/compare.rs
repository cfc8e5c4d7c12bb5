//! `qbench compare <a.jsonl> <b.jsonl>`: two sets of runs, one row per
//! workload × metric, judged by the bounds `BENCHMARK.json` fixes.
//!
//! Each input holds one report line per run (what `--append` writes). For a
//! metric with a bound the row is `worse` when set B's median is worse than
//! set A's by more than the bound, `unresolved` when either set's own spread
//! (interquartile distance over median, Python's `statistics.quantiles`) is
//! wider than the bound, else `ok`. Per-layer metrics have no bound: their
//! rows say whether the two medians are `same` or `differ`.
//!
//! `setup_s` is judged on its medians alone, as the driver that accepts the
//! benchmark judges it: a set-up is a 0.1–2 ms burst of file-system calls
//! whose time on a shared box doubles for minutes at a stretch.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::quartiles;

/// The one metric whose own spread does not make a row `unresolved`.
const SPREAD_EXEMPT: &str = "setup_s";

/// `(workload, metric) → values`, in run order.
type Sets = BTreeMap<(String, String), Vec<f64>>;

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: Option<f64>,
    pub status: &'static str,
}

fn load(path: &str) -> Result<Sets, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut sets = Sets::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = run
            .get("stamp")
            .and_then(|s| s.get("workload"))
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no stamp.workload", i + 1))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{path}:{}: no metrics", i + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}:{}: {name} has no value", i + 1))?;
            sets.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(sets)
}

/// `metric → (better, bound)` from `BENCHMARK.json`.
fn bounds(doc: &Value) -> BTreeMap<String, (bool, Option<f64>)> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        if let Some(Value::Arr(items)) = doc.get(key) {
            for m in items {
                if let Some(name) = m.get("name").and_then(Value::as_str) {
                    let lower = m.get("better").and_then(Value::as_str) != Some("higher");
                    out.insert(
                        name.to_string(),
                        (lower, m.get("bound").and_then(Value::as_f64)),
                    );
                }
            }
        }
    }
    out
}

/// `(median, spread)` of one set; a single run has no spread.
fn summarize(values: &[f64]) -> (f64, f64) {
    match quartiles(values) {
        Some((q1, median, q3)) if median != 0.0 => (median, (q3 - q1) / median.abs()),
        Some((_, median, _)) => (median, 0.0),
        None => (values.first().copied().unwrap_or(0.0), 0.0),
    }
}

pub fn rows(a: &Sets, b: &Sets, bounds: &BTreeMap<String, (bool, Option<f64>)>) -> Vec<Row> {
    let mut out = Vec::new();
    for ((workload, metric), va) in a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (median_a, spread_a) = summarize(va);
        let (median_b, spread_b) = summarize(vb);
        let (lower_better, bound) = bounds.get(metric).copied().unwrap_or((true, None));
        let status = match bound {
            None if median_a == median_b => "same",
            None => "differ",
            Some(bound) => {
                let worse_by = if median_a == 0.0 {
                    0.0
                } else if lower_better {
                    (median_b - median_a) / median_a.abs()
                } else {
                    (median_a - median_b) / median_a.abs()
                };
                let noisy = spread_a > bound || spread_b > bound;
                if noisy && metric != SPREAD_EXEMPT {
                    "unresolved"
                } else if worse_by > bound {
                    "worse"
                } else {
                    "ok"
                }
            }
        };
        out.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            median_a,
            median_b,
            spread_a,
            spread_b,
            bound,
            status,
        });
    }
    out
}

/// Prints the table; `Ok(true)` when no row is `worse` or `unresolved`.
pub fn run(path_a: &str, path_b: &str, benchmark_json: &str) -> Result<bool, String> {
    let doc = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{benchmark_json}: {e}"))
        .and_then(|t| json::parse(&t).map_err(|e| format!("{benchmark_json}: {e}")))?;
    let rows = rows(&load(path_a)?, &load(path_b)?, &bounds(&doc));
    println!(
        "{:<18} {:<46} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  status",
        "workload", "metric", "median A", "median B", "B/A", "bound", "iqr A", "iqr B"
    );
    for r in &rows {
        let ratio = if r.median_a != 0.0 {
            format!("{:.4}", r.median_b / r.median_a)
        } else {
            "-".into()
        };
        println!(
            "{:<18} {:<46} {:>14.6} {:>14.6} {:>9} {:>7} {:>8.4} {:>8.4}  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            ratio,
            r.bound.map_or("-".into(), |b| format!("{b}")),
            r.spread_a,
            r.spread_b,
            r.status
        );
    }
    let bad = rows
        .iter()
        .filter(|r| matches!(r.status, "worse" | "unresolved"))
        .count();
    println!(
        "# {} rows, {bad} worse or unresolved (ratios are B over A)",
        rows.len()
    );
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(metric: &str, values: &[f64]) -> Sets {
        let mut s = Sets::new();
        s.insert(("w".into(), metric.into()), values.to_vec());
        s
    }

    fn status(metric: &str, lower: bool, bound: Option<f64>, a: &[f64], b: &[f64]) -> &'static str {
        let mut bounds = BTreeMap::new();
        bounds.insert(metric.to_string(), (lower, bound));
        rows(&sets(metric, a), &sets(metric, b), &bounds)[0].status
    }

    #[test]
    fn judges_by_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        assert_eq!(status("t_ms", true, Some(0.1), &steady, &steady), "ok");
        assert_eq!(status("t_ms", true, Some(0.1), &steady, &slower), "worse");
        // Lower is better: a drop is never worse.
        assert_eq!(status("t_ms", true, Some(0.1), &slower, &steady), "ok");
        // Higher is better: a drop is.
        assert_eq!(status("rate", false, Some(0.1), &slower, &steady), "worse");
        assert_eq!(status("rate", false, Some(0.1), &steady, &slower), "ok");
        // A set noisier than the bound resolves nothing.
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(
            status("t_ms", true, Some(0.1), &noisy, &steady),
            "unresolved"
        );
        // Set-up time is judged on its medians alone.
        assert_eq!(status("setup_s", true, Some(0.1), &noisy, &steady), "ok");
        // No bound: counts either repeat or they do not.
        assert_eq!(status("n", true, None, &[4.0, 4.0], &[4.0, 4.0]), "same");
        assert_eq!(status("n", true, None, &[4.0, 4.0], &[5.0, 5.0]), "differ");
    }
}

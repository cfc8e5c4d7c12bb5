//! Percentile and quartile arithmetic for the report and for `compare`.

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond its rank (choosing-metrics: "the highest percentile that
/// has at least ten samples beyond it").
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `q` (0 < q ≤ 100) among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile; `None` on an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    Some(v[nearest_rank(v.len(), q) - 1])
}

/// Nearest-rank median; 0 on an empty sample (a layer that did not run).
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The value at the edge of the best tenth of `samples`: the ⌈n/10⌉-th
/// smallest when lower is better, the ⌈n/10⌉-th largest when higher is; 0 on
/// an empty sample.
///
/// The samples are one number per episode, and every episode of a run
/// replays the same input. On a shared host whatever else runs only ever
/// slows an episode down, for seconds to tens of seconds at a time (the same
/// CPU-only step measured 107–165 ms within one run), so the median over
/// episodes follows the neighbours; the quiet tenth is what the program costs.
pub fn best_decile(samples: &[f64], lower_is_better: bool) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let v = sorted(samples);
    let k = n.div_ceil(10);
    if lower_is_better {
        v[k - 1]
    } else {
        v[n - k]
    }
}

/// The highest of p95 / p90 / p75 / p50 that still has [`TAIL_MIN_BEYOND`]
/// samples beyond its rank, as `(q, value)`. Falls back to the median (and
/// `(50, 0)` on an empty sample) when the sample supports nothing higher.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let n = samples.len();
    for q in [95u32, 90, 75] {
        if n > 0 && n - nearest_rank(n, f64::from(q)) >= TAIL_MIN_BEYOND {
            return (q, percentile(samples, f64::from(q)).unwrap_or(0.0));
        }
    }
    (50, p50(samples))
}

/// Mean; 0 on an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) — the spread rule the acceptance check
/// uses. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        // Even count: nearest rank takes the lower middle, never interpolates.
        assert_eq!(p50(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(p50(&[]), 0.0);
    }

    #[test]
    fn best_decile_takes_the_rank_from_the_better_side() {
        let v: Vec<f64> = (1..=14).rev().map(f64::from).collect();
        assert_eq!(best_decile(&v, true), 2.0);
        assert_eq!(best_decile(&v, false), 13.0);
        // Up to ten samples it is the best one.
        assert_eq!(best_decile(&v[..10], true), 5.0);
        assert_eq!(best_decile(&v[..10], false), 14.0);
        assert_eq!(best_decile(&[3.0], true), 3.0);
        assert_eq!(best_decile(&[], false), 0.0);
        let n21: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(best_decile(&n21, true), 3.0);
        assert_eq!(best_decile(&n21, false), 19.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let n199: Vec<f64> = (1..=199).map(f64::from).collect();
        let n200: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: rank 190, ten beyond. 199: rank 190, nine beyond.
        assert_eq!(tail(&n200), (95, 190.0));
        assert_eq!(tail(&n199), (90, 180.0));
        let n99: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&n99).0, 75);
        let n30: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&n30), (50, 15.0));
        assert_eq!(tail(&[]), (50, 0.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Some((2.5, 4.0, 5.5)));
        assert_eq!(quartiles(&[3.0]), None);
    }
}

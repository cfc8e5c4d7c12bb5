//! Job-queue wait models.
//!
//! On shared cloud QPUs the dominant cost of losing a session is *getting
//! back in line*. A wait is either constant (unit tests, controlled
//! sweeps) or drawn from a log-normal distribution, since queue waits on
//! public devices are famously heavy-tailed.

use qsim::rng::Xoshiro256;

use crate::event::SimTime;

/// Analytic wait-time models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WaitModel {
    /// Constant wait (unit tests, controlled sweeps).
    Constant {
        /// The wait applied to every submission.
        wait: SimTime,
    },
    /// Log-normal wait with the given median and log-σ.
    LogNormal {
        /// Median wait in seconds.
        median_s: f64,
        /// Sigma of the underlying normal.
        sigma: f64,
    },
}

impl WaitModel {
    /// Samples one queue wait.
    pub fn sample(&self, rng: &mut Xoshiro256) -> SimTime {
        match *self {
            WaitModel::Constant { wait } => wait,
            WaitModel::LogNormal { median_s, sigma } => {
                // ln W ~ Normal(ln median, sigma).
                let z = rng.next_gaussian();
                let wait_s = (median_s.max(1e-9).ln() + sigma * z).exp();
                // Clamp to [1 µs, 30 days] to keep sweeps finite.
                let us = (wait_s * 1e6).clamp(1.0, 30.0 * 24.0 * 3600.0 * 1e6);
                us as SimTime
            }
        }
    }

    /// Mean wait implied by the model (exact for both forms).
    pub fn mean_us(&self) -> f64 {
        match *self {
            WaitModel::Constant { wait } => wait as f64,
            WaitModel::LogNormal { median_s, sigma } => {
                median_s * (sigma * sigma / 2.0).exp() * 1e6
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SECOND;

    #[test]
    fn constant_model_is_constant() {
        let mut rng = Xoshiro256::seed_from(1);
        let m = WaitModel::Constant { wait: 42 * SECOND };
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 42 * SECOND);
        }
        assert_eq!(m.mean_us(), 42.0 * 1e6);
    }

    #[test]
    fn lognormal_median_is_respected() {
        let mut rng = Xoshiro256::seed_from(2);
        let m = WaitModel::LogNormal {
            median_s: 300.0,
            sigma: 1.0,
        };
        let mut samples: Vec<SimTime> = (0..4001).map(|_| m.sample(&mut rng)).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64 / 1e6;
        assert!(
            (median / 300.0 - 1.0).abs() < 0.15,
            "sample median {median} vs 300"
        );
    }

    #[test]
    fn lognormal_is_heavy_tailed() {
        let mut rng = Xoshiro256::seed_from(3);
        let m = WaitModel::LogNormal {
            median_s: 60.0,
            sigma: 1.5,
        };
        let samples: Vec<f64> = (0..20_000)
            .map(|_| m.sample(&mut rng) as f64 / 1e6)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let median = {
            let mut s = samples.clone();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        assert!(mean > 1.8 * median, "mean {mean} median {median}");
        // Analytic mean: 60·e^{1.125} ≈ 184.8 s.
        assert!((m.mean_us() / 1e6 - 60.0 * (1.125f64).exp()).abs() < 1.0);
    }
}

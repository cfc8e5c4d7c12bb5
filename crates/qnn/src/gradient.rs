//! Gradient estimators for variational circuits.
//!
//! Two estimators:
//!
//! * [`GradientMethod::ParameterShift`] — the generalized two-term rule,
//!   applied per *op occurrence* so that parameters shared across several
//!   gates (QAOA-style ansätze) differentiate correctly. Exact for
//!   rotation-generator gates (`RX/RY/RZ/RXX/RYY/RZZ`).
//!   [`parameter_shift_gradient`] differentiates a loss directly or, for
//!   a prediction-shaped task, through its per-entry predictions (the
//!   chain rule), over the one fan-out of shifted evaluations.
//! * [`GradientMethod::Spsa`] — simultaneous perturbation with two loss
//!   evaluations per step regardless of parameter count; the perturbation
//!   directions come from the *data* RNG stream so they are part of the
//!   captured training state.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use qsim::plan::ThreadModes;
use qsim::rng::Xoshiro256;

/// Gradient estimation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum GradientMethod {
    /// Generalized parameter-shift rule (per-op shifts of ±π/2).
    ParameterShift,
    /// SPSA with perturbation magnitude `c`.
    Spsa {
        /// Perturbation magnitude.
        c: f64,
    },
}

impl std::fmt::Display for GradientMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GradientMethod::ParameterShift => write!(f, "parameter-shift"),
            GradientMethod::Spsa { c } => write!(f, "spsa(c={c})"),
        }
    }
}

/// One parametrized op occurrence, as differentiated by the generalized
/// parameter-shift rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShiftSite {
    /// Index of the op within its circuit.
    pub op_index: usize,
    /// Parameter the op reads.
    pub param_index: usize,
    /// Scale the op applies to the parameter (chain-rule factor).
    pub scale: f64,
}

/// Generalized parameter-shift gradient through a task's outputs:
/// `eval(scratch, k, op_index, ±shift)` returns every output `y_j` with
/// that op shifted, and `weights[j]` is the loss's derivative in `y_j`, so
/// `grad[param] += weights[j] · scale · (plus[j] − minus[j]) / 2`. A
/// loss-shaped task has one output, its loss, of weight 1 (the plain
/// rule); a prediction-shaped one has one prediction per batch entry,
/// weighted by its residual (the chain rule). `k` numbers the
/// evaluations in site order, the + before the −: `2i` and `2i + 1` for
/// `sites[i]`, so a caller can hand each evaluation a stream of its own.
///
/// This is the one fan-out a gradient takes: one worker per ambient
/// [`qpar::current_threads`], at most one per site (inline at one thread),
/// each running `init()` **once** to build a reusable scratch value `S`,
/// then taking sites one at a time, in site order, from a counter they
/// share until none is left. The trainer's scratch holds a reference to the
/// unshifted binding, a `qsim::plan::BoundPlan` it rebinds with
/// `rebind_shifted` per evaluation, one `qsim::plan::PrefixCursor` per
/// input state and one work state. Each evaluation runs only the atoms
/// after the prefix it shares with the unshifted circuit, so an early site
/// costs a near-full run and a late one almost nothing. Fixed shares go
/// wrong either way: a contiguous run of sites hands the first worker most
/// of the atoms, and even an equal deal waits for the slowest worker when
/// the cores run at unequal speeds. Taken on demand, the costly early sites
/// go first and a faster worker takes more of them. The sites a worker
/// takes still rise in op order, so its cursor walks forward through the
/// shared prefixes, at most one full run per worker. Each worker runs under
/// its caller's `qsim::plan::ThreadModes`, so a fusion or executor override
/// reaches every evaluation.
///
/// `eval` must be *pure* given `k`: what it returns may depend on the
/// evaluation's own random stream, but not on which worker runs it or
/// what that worker ran before. That is what makes the fan-out safe. The
/// outputs go back in site order, and the sum runs output by output, then
/// site by site, whoever ran each site, so the gradient is bit-identical
/// at every thread count.
///
/// # Errors
///
/// Returns the first failing evaluation in site order.
pub fn parameter_shift_gradient<E, S, I, F>(
    num_params: usize,
    sites: &[ShiftSite],
    shift: f64,
    weights: &[f64],
    init: I,
    eval: F,
) -> Result<Vec<f64>, E>
where
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, usize, f64) -> Result<Vec<f64>, E> + Sync,
{
    let modes = ThreadModes::current();
    let workers = qpar::current_threads().min(sites.len());
    let next = AtomicUsize::new(0);
    let taken = qpar::map((0..workers).collect(), |_| {
        // The site fan-out owns the parallelism budget; keep the nested
        // gate kernels serial on worker threads (they would otherwise
        // re-resolve the ambient thread count and oversubscribe).
        modes.enter(|| {
            qpar::with_threads(1, || {
                let mut scratch = init();
                std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)))
                    .take_while(|&i| i < sites.len())
                    .map(|i| {
                        let op = sites[i].op_index;
                        let pair = eval(&mut scratch, 2 * i, op, shift).and_then(|plus| {
                            Ok((plus, eval(&mut scratch, 2 * i + 1, op, -shift)?))
                        });
                        (i, pair)
                    })
                    .collect::<Vec<_>>()
            })
        })
    });
    let mut taken: Vec<_> = taken.into_iter().flatten().collect();
    taken.sort_unstable_by_key(|(i, _)| *i);
    let pairs = taken
        .into_iter()
        .map(|(_, pair)| pair)
        .collect::<Result<Vec<_>, E>>()?;
    let mut grad = vec![0.0; num_params];
    for (j, weight) in weights.iter().enumerate() {
        for (site, (plus, minus)) in sites.iter().zip(&pairs) {
            grad[site.param_index] += weight * site.scale * (plus[j] - minus[j]) / 2.0;
        }
    }
    Ok(grad)
}

/// Computes an SPSA gradient estimate of a black-box loss; the ±1
/// perturbation directions are drawn from `rng`.
///
/// # Errors
///
/// Propagates the first loss-evaluation error.
pub fn spsa_gradient<E, F>(
    params: &[f64],
    c: f64,
    rng: &mut Xoshiro256,
    mut loss: F,
) -> Result<Vec<f64>, E>
where
    F: FnMut(&[f64]) -> Result<f64, E>,
{
    let delta: Vec<f64> = (0..params.len())
        .map(|_| if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 })
        .collect();
    let plus: Vec<f64> = params.iter().zip(&delta).map(|(p, d)| p + c * d).collect();
    let minus: Vec<f64> = params.iter().zip(&delta).map(|(p, d)| p - c * d).collect();
    let lp = loss(&plus)?;
    let lm = loss(&minus)?;
    let scale = (lp - lm) / (2.0 * c);
    Ok(delta.iter().map(|d| scale / d).collect())
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    use super::*;

    #[test]
    fn spsa_is_unbiased_on_linear_functions() {
        // f(x) = a·x has exact SPSA estimates in expectation; average many.
        let a = [3.0, -1.0, 2.0];
        let params = [0.1, 0.2, 0.3];
        let mut rng = Xoshiro256::seed_from(5);
        let mut acc = [0.0; 3];
        let trials = 2000;
        for _ in 0..trials {
            let g = spsa_gradient::<(), _>(&params, 0.01, &mut rng, |x| {
                Ok(x.iter().zip(&a).map(|(xi, ai)| xi * ai).sum())
            })
            .unwrap();
            for (acc_i, gi) in acc.iter_mut().zip(&g) {
                *acc_i += gi;
            }
        }
        for (acc_i, ai) in acc.iter().zip(&a) {
            let mean = acc_i / trials as f64;
            assert!((mean - ai).abs() < 0.15, "{mean} vs {ai}");
        }
    }

    #[test]
    fn parameter_shift_sums_weighted_shift_differences() {
        // Two entries predict p_j = sin(a + j), where `a` (`theta` here) is
        // the sum of the angles of ops 0 and 2, which read parameter 0 at
        // scales 1 and 0.5; op 1 reads parameter 1 and moves nothing. So
        // dp_j/dθ0 = 1.5·cos(a + j) and dp_j/dθ1 = 0.
        let sites = [
            ShiftSite {
                op_index: 0,
                param_index: 0,
                scale: 1.0,
            },
            ShiftSite {
                op_index: 1,
                param_index: 1,
                scale: 1.0,
            },
            ShiftSite {
                op_index: 2,
                param_index: 0,
                scale: 0.5,
            },
        ];
        let theta = 0.3;
        let shift = std::f64::consts::FRAC_PI_2;
        let predict = |op: usize, delta: f64| -> Vec<f64> {
            let moved = if op == 1 { 0.0 } else { delta };
            (0..2).map(|j| (theta + moved + j as f64).sin()).collect()
        };
        let residuals = [0.25, -2.0];
        for threads in [1, 2, 3, 4] {
            let grad = qpar::with_threads(threads, || {
                parameter_shift_gradient::<(), _, _, _>(
                    2,
                    &sites,
                    shift,
                    &residuals,
                    || (),
                    |_, k, op, delta| {
                        // Evaluation `k` is site k/2's shift, + at even k.
                        assert_eq!(op, sites[k / 2].op_index);
                        assert_eq!(delta, if k % 2 == 0 { shift } else { -shift });
                        Ok(predict(op, delta))
                    },
                )
                .unwrap()
            });
            let mut want = [0.0; 2];
            for (j, r) in residuals.iter().enumerate() {
                for site in &sites {
                    let (plus, minus) = (
                        predict(site.op_index, shift),
                        predict(site.op_index, -shift),
                    );
                    want[site.param_index] += r * site.scale * (plus[j] - minus[j]) / 2.0;
                }
            }
            assert_eq!(grad, want, "threads={threads}");
            // The ±π/2 rule is exact for sin.
            let exact: f64 = (0..2)
                .map(|j| residuals[j] * 1.5 * (theta + j as f64).cos())
                .sum();
            assert!((grad[0] - exact).abs() < 1e-12, "{} vs {exact}", grad[0]);
            assert_eq!(grad[1], 0.0);
        }
    }

    /// `n` sites at ops `0..n`, all reading parameter 0.
    fn chain(n: usize) -> Vec<ShiftSite> {
        (0..n)
            .map(|op_index| ShiftSite {
                op_index,
                param_index: 0,
                scale: 1.0,
            })
            .collect()
    }

    /// Runs a gradient over `sites` at `threads` and returns, per worker,
    /// the evaluations `k` it ran in the order it ran them; `hook(worker,
    /// k)` runs before each one.
    fn worker_logs(
        sites: &[ShiftSite],
        threads: usize,
        hook: impl Fn(usize, usize) + Sync,
    ) -> Vec<Vec<usize>> {
        let logs = Mutex::new(Vec::<Vec<usize>>::new());
        qpar::with_threads(threads, || {
            parameter_shift_gradient::<(), _, _, _>(
                1,
                sites,
                0.5,
                &[1.0],
                || {
                    let mut logs = logs.lock().unwrap();
                    logs.push(Vec::new());
                    logs.len() - 1
                },
                |&mut worker, k, _, _| {
                    hook(worker, k);
                    logs.lock().unwrap()[worker].push(k);
                    Ok(vec![0.0])
                },
            )
        })
        .unwrap();
        logs.into_inner().unwrap()
    }

    #[test]
    fn workers_take_each_site_once_in_op_order() {
        for n in [0, 1, 5, 12] {
            for threads in [1, 2, 3, 4, 8] {
                let logs = worker_logs(&chain(n), threads, |_, _| {});
                let at = format!("sites={n} threads={threads}");
                assert_eq!(logs.len(), threads.min(n), "{at}: workers");
                let mut all = logs.concat();
                all.sort_unstable();
                assert_eq!(all, (0..2 * n).collect::<Vec<_>>(), "{at}: each once");
                for log in &logs {
                    // A site's + then its −, and sites in rising op order.
                    assert!(
                        log.chunks(2).all(|p| p[0] % 2 == 0 && p[1] == p[0] + 1),
                        "{at}: {log:?}"
                    );
                    assert!(log.windows(2).all(|p| p[0] < p[1]), "{at}: {log:?}");
                }
                if threads == 1 {
                    assert_eq!(logs.concat(), (0..2 * n).collect::<Vec<_>>(), "{at}");
                }
            }
        }
    }

    #[test]
    fn a_stalled_worker_leaves_the_other_sites_to_the_rest() {
        // The worker that starts first stalls on its first site until the
        // others have run every other site. A fixed share per worker would
        // leave its remaining sites undone, so the wait would time out.
        let n = 8;
        for threads in [2, 3] {
            let stalled = Mutex::new(None);
            let done = AtomicUsize::new(0);
            let logs = worker_logs(&chain(n), threads, |worker, _| {
                if *stalled.lock().unwrap().get_or_insert(worker) != worker {
                    done.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                let deadline = Instant::now() + Duration::from_secs(30);
                while done.load(Ordering::SeqCst) < 2 * (n - 1) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            });
            let stalled = stalled.into_inner().unwrap().unwrap();
            assert_eq!(logs[stalled].len(), 2, "threads={threads}: {logs:?}");
        }
    }

    #[test]
    fn first_error_in_site_order_at_every_thread_count() {
        // Sites 1 and 2 fail; whichever workers run them, and in whatever
        // order they finish, the error is site 1's.
        let sites = chain(6);
        for threads in [1, 2, 3, 4, 8] {
            let r = qpar::with_threads(threads, || {
                parameter_shift_gradient(
                    1,
                    &sites,
                    0.5,
                    &[1.0],
                    || (),
                    |_, k, op, _| {
                        if op == 1 || op == 2 {
                            Err(k)
                        } else {
                            Ok(vec![0.0])
                        }
                    },
                )
            });
            assert_eq!(
                r.unwrap_err(),
                2,
                "threads={threads}: site 1's + evaluation"
            );
        }
    }

    #[test]
    fn spsa_draws_from_the_given_stream() {
        let params = [0.0; 4];
        let mut r1 = Xoshiro256::seed_from(9);
        let mut r2 = Xoshiro256::seed_from(9);
        let g1 = spsa_gradient::<(), _>(&params, 0.1, &mut r1, |x| Ok(x[0])).unwrap();
        let g2 = spsa_gradient::<(), _>(&params, 0.1, &mut r2, |x| Ok(x[0])).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(r1.draw_count(), 4);
    }

    #[test]
    fn display_names() {
        assert_eq!(
            GradientMethod::ParameterShift.to_string(),
            "parameter-shift"
        );
        assert!(GradientMethod::Spsa { c: 0.2 }.to_string().contains("spsa"));
    }

    #[test]
    fn error_propagates() {
        let sites = [ShiftSite {
            op_index: 0,
            param_index: 0,
            scale: 1.0,
        }];
        let r = parameter_shift_gradient(
            1,
            &sites,
            0.5,
            &[1.0],
            || (),
            |_, _, _, _| Err::<Vec<f64>, _>("boom"),
        );
        assert_eq!(r.unwrap_err(), "boom");
        let mut rng = Xoshiro256::seed_from(0);
        let r = spsa_gradient::<&str, _>(&[1.0], 1e-3, &mut rng, |_| Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
    }
}

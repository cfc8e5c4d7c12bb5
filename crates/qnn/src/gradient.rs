//! Gradient estimators for variational circuits.
//!
//! Three estimators:
//!
//! * [`GradientMethod::ParameterShift`] — the generalized two-term rule,
//!   applied per *op occurrence* so that parameters shared across several
//!   gates (QAOA-style ansätze) differentiate correctly. Exact for
//!   rotation-generator gates (`RX/RY/RZ/RXX/RYY/RZZ`).
//! * [`GradientMethod::FiniteDiff`] — central differences on the whole
//!   loss; works for any gate but biased under shot noise.
//! * [`GradientMethod::Spsa`] — simultaneous perturbation with two loss
//!   evaluations per step regardless of parameter count; the perturbation
//!   directions come from the *data* RNG stream so they are part of the
//!   captured training state.

use serde::{Deserialize, Serialize};

use qsim::rng::Xoshiro256;

/// Gradient estimation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum GradientMethod {
    /// Generalized parameter-shift rule (per-op shifts of ±π/2).
    ParameterShift,
    /// Central finite differences with step `eps`.
    FiniteDiff {
        /// Perturbation magnitude.
        eps: f64,
    },
    /// SPSA with perturbation magnitude `c`.
    Spsa {
        /// Perturbation magnitude.
        c: f64,
    },
}

impl GradientMethod {
    /// Number of loss/expectation evaluations one gradient costs, given the
    /// parameter count and (for parameter-shift) the number of parametrized
    /// op occurrences.
    pub fn evals_per_gradient(&self, num_params: usize, num_sym_ops: usize) -> usize {
        match self {
            GradientMethod::ParameterShift => 2 * num_sym_ops,
            GradientMethod::FiniteDiff { .. } => 2 * num_params,
            GradientMethod::Spsa { .. } => 2,
        }
    }
}

impl std::fmt::Display for GradientMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GradientMethod::ParameterShift => write!(f, "parameter-shift"),
            GradientMethod::FiniteDiff { eps } => write!(f, "finite-diff(eps={eps})"),
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

/// The `(+delta, −delta)` results of one differentiation site.
type Pair<E> = (Result<f64, E>, Result<f64, E>);

/// The one fan-out a gradient takes: evaluates `eval(scratch, site, ±delta)`
/// for every site in `0..sites`, the sites split into one contiguous range
/// per ambient [`qpar::current_threads`] worker (inline at one thread), and
/// returns the pairs in site order.
///
/// `init()` runs **once per worker** to build a reusable scratch value `S`.
/// The trainer's scratch holds a reference to the unshifted binding, a
/// `qsim::plan::BoundPlan` it rebinds in place per evaluation, one
/// `qsim::plan::PrefixCursor` per input state and one work state. A
/// worker's sites are a contiguous run in op order, so its cursor walks
/// forward through the prefixes they share with the unshifted circuit,
/// and each evaluation runs only the atoms after its own. `eval` must
/// be *pure* (exact expectations — no RNG draws), which is what makes the
/// fan-out safe and its result independent of the thread count.
fn shifted_pairs<E, S, I, F>(sites: usize, delta: f64, init: I, eval: F) -> Vec<Pair<E>>
where
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, f64) -> Result<f64, E> + Sync,
{
    let chunks = qpar::ranges(sites, qpar::current_threads());
    let results: Vec<Vec<Pair<E>>> = qpar::map(chunks, |chunk| {
        // The site fan-out owns the parallelism budget; keep the nested
        // gate kernels serial on worker threads (they would otherwise
        // re-resolve the ambient thread count and oversubscribe).
        qpar::with_threads(1, || {
            let mut scratch = init();
            chunk
                .map(|i| (eval(&mut scratch, i, delta), eval(&mut scratch, i, -delta)))
                .collect()
        })
    });
    results.into_iter().flatten().collect()
}

/// Generalized parameter-shift gradient over explicit shift sites:
/// `eval(scratch, op_index, ±shift)` for every site, fanned out across the
/// ambient worker threads with one `init()` scratch per worker (the
/// trainer's holds a `BoundPlan` it rebinds with `rebind_shifted`, and a
/// prefix cursor on the unshifted binding that each shifted evaluation
/// resumes from; see `shifted_pairs`).
///
/// `eval` must be a *pure* loss evaluation. Per-site contributions
/// accumulate in site order regardless of the chunking, so the gradient is
/// bit-identical at every thread count.
///
/// # Errors
///
/// Returns the first failing evaluation in site order.
pub fn parameter_shift_gradient<E, S, I, F>(
    num_params: usize,
    sites: &[ShiftSite],
    shift: f64,
    init: I,
    eval: F,
) -> Result<Vec<f64>, E>
where
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, f64) -> Result<f64, E> + Sync,
{
    let pairs = shifted_pairs(sites.len(), shift, init, |scratch, i, delta| {
        eval(scratch, sites[i].op_index, delta)
    });
    let mut grad = vec![0.0; num_params];
    for (site, (plus, minus)) in sites.iter().zip(pairs) {
        grad[site.param_index] += site.scale * (plus? - minus?) / 2.0;
    }
    Ok(grad)
}

/// Parallel central-difference gradient of a *pure* black-box loss: the
/// per-parameter `±eps` evaluations run on the ambient worker threads with
/// one `init()` scratch per worker — in the trainer the same resume
/// scratch as [`parameter_shift_gradient`]'s, its prefix found by
/// comparing schedules, since one parameter can feed several ops.
/// Results are bit-identical to [`finite_diff_gradient`] (same perturbed
/// vectors, same arithmetic).
///
/// # Errors
///
/// Returns the first failing evaluation in parameter order.
pub fn finite_diff_gradient_parallel<E, S, I, F>(
    params: &[f64],
    eps: f64,
    init: I,
    loss: F,
) -> Result<Vec<f64>, E>
where
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[f64]) -> Result<f64, E> + Sync,
{
    let pairs = shifted_pairs(
        params.len(),
        eps,
        || (init(), params.to_vec()),
        |(scratch, work), i, delta| {
            work[i] = params[i] + delta;
            let value = loss(scratch, work);
            work[i] = params[i];
            value
        },
    );
    let mut grad = vec![0.0; params.len()];
    for (g, (plus, minus)) in grad.iter_mut().zip(pairs) {
        *g = (plus? - minus?) / (2.0 * eps);
    }
    Ok(grad)
}

/// Computes a finite-difference gradient of a black-box loss.
///
/// # Errors
///
/// Propagates the first loss-evaluation error.
pub fn finite_diff_gradient<E, F>(params: &[f64], eps: f64, mut loss: F) -> Result<Vec<f64>, E>
where
    F: FnMut(&[f64]) -> Result<f64, E>,
{
    let mut grad = vec![0.0; params.len()];
    let mut work = params.to_vec();
    for i in 0..params.len() {
        let orig = work[i];
        work[i] = orig + eps;
        let plus = loss(&work)?;
        work[i] = orig - eps;
        let minus = loss(&work)?;
        work[i] = orig;
        grad[i] = (plus - minus) / (2.0 * eps);
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
    use super::*;

    #[test]
    fn finite_diff_on_quadratic() {
        // f(x) = Σ x_i², ∇f = 2x.
        let params = [1.0, -2.0, 0.5];
        let g: Vec<f64> =
            finite_diff_gradient::<(), _>(&params, 1e-6, |x| Ok(x.iter().map(|v| v * v).sum()))
                .unwrap();
        for (gi, pi) in g.iter().zip(&params) {
            assert!((gi - 2.0 * pi).abs() < 1e-5, "{gi} vs {}", 2.0 * pi);
        }
    }

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
    fn evals_accounting() {
        assert_eq!(
            GradientMethod::ParameterShift.evals_per_gradient(10, 14),
            28
        );
        assert_eq!(
            GradientMethod::FiniteDiff { eps: 1e-4 }.evals_per_gradient(10, 14),
            20
        );
        assert_eq!(
            GradientMethod::Spsa { c: 0.1 }.evals_per_gradient(10, 14),
            2
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(
            GradientMethod::ParameterShift.to_string(),
            "parameter-shift"
        );
        assert!(GradientMethod::FiniteDiff { eps: 0.01 }
            .to_string()
            .contains("0.01"));
        assert!(GradientMethod::Spsa { c: 0.2 }.to_string().contains("spsa"));
    }

    #[test]
    fn error_propagates() {
        let r = finite_diff_gradient::<&str, _>(&[1.0], 1e-3, |_| Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        let mut rng = Xoshiro256::seed_from(0);
        let r = spsa_gradient::<&str, _>(&[1.0], 1e-3, &mut rng, |_| Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
    }
}

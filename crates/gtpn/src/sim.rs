//! Monte-Carlo token-game simulation of a GTPN.
//!
//! Plays the same two-phase semantics as the exact analyzer
//! ([`crate::ReachabilityGraph`]) but samples conflict resolutions with an
//! RNG instead of enumerating them. Used to cross-validate the exact solver
//! and to estimate resource usage on nets whose state space is too large to
//! enumerate.

use crate::error::GtpnError;
use crate::expr::EvalContext;
use crate::net::{Net, TransId};
use crate::state::Marking;
use rand::Rng;
use std::collections::HashMap;

/// Options for a simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Simulated time horizon (in net time units).
    pub horizon: u64,
    /// Time discarded at the start before statistics accumulate (warm-up).
    pub warmup: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            horizon: 1_000_000,
            warmup: 100_000,
        }
    }
}

/// Aggregated statistics of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Resource label -> time-averaged number of in-progress firings.
    pub resource_usage: HashMap<String, f64>,
    /// Per-transition completion counts over the measured interval.
    pub completions: Vec<u64>,
    /// Measured interval length.
    pub measured_time: u64,
    /// Per-place time-averaged token count (the DES analogue of
    /// `ReachabilityGraph::mean_tokens`; tokens held by in-progress firings
    /// are in transit and not counted, matching the exact solver).
    pub mean_tokens: Vec<f64>,
    /// Per-transition time-averaged number of in-progress firings (the DES
    /// analogue of `Solution::transition_usage`).
    pub transition_usage: Vec<f64>,
}

impl SimResult {
    /// Time-averaged usage of a resource.
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::UnknownName`] for an unknown resource.
    pub fn resource_usage(&self, resource: &str) -> Result<f64, GtpnError> {
        self.resource_usage
            .get(resource)
            .copied()
            .ok_or_else(|| GtpnError::UnknownName(resource.to_string()))
    }

    /// Completion rate (per time unit) of a transition.
    pub fn transition_rate(&self, transition: TransId) -> f64 {
        if self.measured_time == 0 {
            return 0.0;
        }
        self.completions.get(transition.0).copied().unwrap_or(0) as f64 / self.measured_time as f64
    }
}

/// A batch-means estimate: point estimate plus a half-width such that the
/// true mean lies within `estimate ± half_width` with 95% confidence
/// ([`batch_means_interval`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (mean of the batch means).
    pub estimate: f64,
    /// 95% half-width.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Whether `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (value - self.estimate).abs() <= self.half_width
    }
}

/// The batch-means 95% confidence interval of independent, identically
/// distributed replication estimates: their mean, ± the two-sided Student-t
/// quantile for `n − 1` degrees of freedom times the standard error. With
/// the few batches typical here the quantile matters — 3.18 at four
/// batches, where the normal 1.96 would cover about 86%.
///
/// # Panics
///
/// Panics on fewer than two means — an interval needs a variance estimate.
pub fn batch_means_interval(means: &[f64]) -> ConfidenceInterval {
    assert!(means.len() >= 2, "need at least two batches for a variance");
    let n = means.len() as f64;
    let mean = means.iter().sum::<f64>() / n;
    let var = means.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / (n - 1.0);
    ConfidenceInterval {
        estimate: mean,
        half_width: student_t_95(means.len() - 1) * (var / n).sqrt(),
    }
}

/// The `t` with `P(|T| ≤ t) = 0.95` for Student's t with `df ≥ 1` degrees
/// of freedom. For integer `df` that probability is a finite series in
/// `θ = atan(t / √df)` (Abramowitz & Stegun 26.7.3–4), increasing in `t`,
/// which is bisected to the last bit. It takes arithmetic and square roots
/// only: a call to the platform's `sin`/`cos`/`tan` links its math library
/// into every program, which costs each process ~0.3 MiB of resident pages.
fn student_t_95(df: usize) -> f64 {
    let nu = df as f64;
    let coverage = |t: f64| {
        let r = (nu + t * t).sqrt();
        let (sin, cos) = (t / r, nu.sqrt() / r);
        // Odd df: (2/π)(θ + sinθ Σ), even df: sinθ Σ, where Σ sums
        // c_j cos^j θ over j ≡ df (mod 2), j < df − 1, with c_0 = c_1 = 1
        // and c_(j+2) = c_j (j + 1)/(j + 2).
        let odd = df % 2;
        let (mut term, mut sum) = (if odd == 1 { cos } else { 1.0 }, 0.0);
        for j in (odd..df - 1).step_by(2) {
            sum += term;
            term *= cos * cos * (j + 1) as f64 / (j + 2) as f64;
        }
        if odd == 1 {
            std::f64::consts::FRAC_2_PI * (atan(t / nu.sqrt()) + sin * sum)
        } else {
            sin * sum
        }
    };
    let (mut lo, mut hi) = (0.0, 1.0);
    while coverage(hi) < 0.95 {
        hi *= 2.0;
    }
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if coverage(mid) < 0.95 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// `atan(x)` for `x ≥ 0`: four half-angle steps,
/// `atan x = 2 atan(x / (1 + √(1 + x²)))`, bring the argument under
/// `tan(π/32)`, where twelve terms of the Taylor series are exact to
/// rounding.
fn atan(x: f64) -> f64 {
    let mut y = x;
    for _ in 0..4 {
        y /= 1.0 + (1.0 + y * y).sqrt();
    }
    let (mut term, mut sum) = (y, 0.0);
    for k in 0..12 {
        sum += term / (2 * k + 1) as f64;
        term *= -y * y;
    }
    16.0 * sum
}

/// Runs `batches` independent replications of the simulation (seeded from
/// `rng`) and returns a batch-means confidence interval for the usage of
/// `resource`.
///
/// # Errors
///
/// Propagates simulation errors; [`GtpnError::UnknownName`] for an unknown
/// resource.
///
/// # Panics
///
/// Panics when `batches < 2` — an interval needs a variance estimate.
pub fn confidence_interval<R: Rng>(
    net: &Net,
    options: &SimOptions,
    resource: &str,
    batches: usize,
    rng: &mut R,
) -> Result<ConfidenceInterval, GtpnError> {
    assert!(batches >= 2, "need at least two batches for a variance");
    let mut means = Vec::with_capacity(batches);
    for _ in 0..batches {
        let result = simulate(net, options, rng)?;
        means.push(result.resource_usage(resource)?);
    }
    Ok(batch_means_interval(&means))
}

/// Simulates the net for `options.horizon` time units.
///
/// # Errors
///
/// * [`GtpnError::Deadlock`] if the net reaches a state with no enabled
///   transition and no in-progress firing.
/// * [`GtpnError::ZeroDelayDivergence`] on a productive zero-delay cycle.
/// * [`GtpnError::BadFrequency`] on an invalid frequency value.
pub fn simulate<R: Rng>(
    net: &Net,
    options: &SimOptions,
    rng: &mut R,
) -> Result<SimResult, GtpnError> {
    net.validate()?;
    let tcount = net.transition_count();
    let mut marking: Marking = net.initial_marking();
    // In-progress firings as (transition, absolute completion time).
    let mut firings: Vec<(TransId, u64)> = Vec::new();
    let mut firing_counts = vec![0u32; tcount];
    let mut completions = vec![0u64; tcount];
    let mut token_time = vec![0.0f64; net.place_count()];
    let mut transition_usage_time = vec![0.0f64; tcount];
    let mut usage_time: HashMap<String, f64> = HashMap::new();
    for r in net.resources() {
        usage_time.insert(r.to_string(), 0.0);
    }

    let mut now: u64 = 0;
    while now < options.horizon {
        // Instantaneous phase: sequential proportional selection.
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            if rounds > 100_000 {
                return Err(GtpnError::ZeroDelayDivergence);
            }
            let ctx = EvalContext::new(&marking, &firing_counts);
            let mut enabled: Vec<(usize, f64)> = Vec::new();
            let mut total = 0.0;
            for (ti, t) in net.transitions.iter().enumerate() {
                let ok = t.inputs.iter().all(|&(p, _)| {
                    let needed: u32 = t
                        .inputs
                        .iter()
                        .filter(|&&(q, _)| q == p)
                        .map(|&(_, mm)| mm)
                        .sum();
                    marking[p.0] >= needed
                });
                if !ok {
                    continue;
                }
                let w = t.frequency.eval(ctx);
                if !w.is_finite() || w < 0.0 {
                    return Err(GtpnError::BadFrequency {
                        transition: t.name.clone(),
                        value: w,
                    });
                }
                if w > 0.0 {
                    enabled.push((ti, w));
                    total += w;
                }
            }
            if enabled.is_empty() {
                break;
            }
            // Sample proportionally.
            let mut x = rng.gen_range(0.0..total);
            let mut chosen = enabled[enabled.len() - 1].0;
            for &(ti, w) in &enabled {
                if x < w {
                    chosen = ti;
                    break;
                }
                x -= w;
            }
            let t = &net.transitions[chosen];
            for &(p, m) in &t.inputs {
                marking[p.0] -= m;
            }
            if t.delay == 0 {
                for &(p, m) in &t.outputs {
                    marking[p.0] += m;
                }
                completions[chosen] += u64::from(now >= options.warmup);
            } else {
                firings.push((TransId(chosen), now + t.delay));
                firing_counts[chosen] += 1;
            }
        }

        if firings.is_empty() {
            return Err(GtpnError::Deadlock { state: 0 });
        }

        // Advance to the next completion.
        let next = firings.iter().map(|&(_, c)| c).min().expect("non-empty");
        let dt_start = now.max(options.warmup);
        let dt_end = next.min(options.horizon).max(dt_start);
        let weight = (dt_end - dt_start) as f64;
        if weight > 0.0 {
            for (ti, t) in net.transitions.iter().enumerate() {
                if firing_counts[ti] > 0 {
                    transition_usage_time[ti] += weight * f64::from(firing_counts[ti]);
                    if let Some(r) = &t.resource {
                        *usage_time.get_mut(r).expect("pre-seeded") +=
                            weight * f64::from(firing_counts[ti]);
                    }
                }
            }
            for (pi, &tokens) in marking.iter().enumerate() {
                if tokens > 0 {
                    token_time[pi] += weight * f64::from(tokens);
                }
            }
        }
        now = next;
        let mut i = 0;
        while i < firings.len() {
            if firings[i].1 == next {
                let (t, _) = firings.swap_remove(i);
                firing_counts[t.0] -= 1;
                for &(p, m) in &net.transitions[t.0].outputs {
                    marking[p.0] += m;
                }
                completions[t.0] += u64::from(now >= options.warmup);
            } else {
                i += 1;
            }
        }
    }

    let measured = options.horizon.saturating_sub(options.warmup);
    let resource_usage = usage_time
        .into_iter()
        .map(|(k, v)| {
            (
                k,
                if measured == 0 {
                    0.0
                } else {
                    v / measured as f64
                },
            )
        })
        .collect();
    let time_avg = |v: Vec<f64>| -> Vec<f64> {
        if measured == 0 {
            vec![0.0; v.len()]
        } else {
            v.into_iter().map(|x| x / measured as f64).collect()
        }
    };
    Ok(SimResult {
        resource_usage,
        completions,
        measured_time: measured,
        mean_tokens: time_avg(token_time),
        transition_usage: time_avg(transition_usage_time),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::net::Transition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geometric_net(n: f64) -> Net {
        let mut net = Net::new("geo");
        let p = net.add_place("P", 1);
        let q = net.add_place("Q", 0);
        net.add_transition(
            Transition::new("exit")
                .delay(1)
                .frequency(Expr::constant(1.0 / n))
                .resource("lambda")
                .input(p, 1)
                .output(q, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("loop")
                .delay(1)
                .frequency(Expr::constant(1.0 - 1.0 / n))
                .input(p, 1)
                .output(p, 1),
        )
        .unwrap();
        net.add_transition(Transition::new("recycle").delay(0).input(q, 1).output(p, 1))
            .unwrap();
        net
    }

    #[test]
    fn simulation_matches_exact_solution() {
        let net = geometric_net(10.0);
        let mut rng = StdRng::seed_from_u64(42);
        let result = simulate(
            &net,
            &SimOptions {
                horizon: 400_000,
                warmup: 10_000,
            },
            &mut rng,
        )
        .unwrap();
        let sim_usage = result.resource_usage("lambda").unwrap();
        let exact = net
            .reachability(100)
            .unwrap()
            .solve(1e-13, 100_000)
            .unwrap()
            .resource_usage("lambda")
            .unwrap();
        assert!(
            (sim_usage - exact).abs() < 0.01,
            "sim {sim_usage} vs exact {exact}"
        );
    }

    #[test]
    fn completion_rates_consistent() {
        let net = geometric_net(4.0);
        let mut rng = StdRng::seed_from_u64(7);
        let result = simulate(
            &net,
            &SimOptions {
                horizon: 200_000,
                warmup: 5_000,
            },
            &mut rng,
        )
        .unwrap();
        // Exit rate = 1 per 4 time units.
        let rate = result.transition_rate(TransId(0));
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn confidence_interval_covers_exact_value() {
        let net = geometric_net(8.0);
        let exact = net
            .reachability(100)
            .unwrap()
            .solve(1e-13, 100_000)
            .unwrap()
            .resource_usage("lambda")
            .unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let ci = confidence_interval(
            &net,
            &SimOptions {
                horizon: 80_000,
                warmup: 8_000,
            },
            "lambda",
            8,
            &mut rng,
        )
        .unwrap();
        assert!(ci.half_width > 0.0);
        assert!(ci.half_width < 0.05 * ci.estimate, "hw {}", ci.half_width);
        assert!(ci.contains(exact), "{ci:?} vs exact {exact}");
    }

    /// Two-sided 95% quantiles of Student's t, to the table's six places.
    #[test]
    fn student_t_quantile_matches_the_table() {
        for (df, want) in [(1, 12.706205), (2, 4.302653), (3, 3.182446), (30, 2.042272)] {
            let t = student_t_95(df);
            assert!((t - want).abs() < 1e-6, "df {df}: {t} vs {want}");
        }
        for x in [0.0, 0.3, 1.0, 12.706205] {
            assert!((atan(x) - x.atan()).abs() < 1e-15, "atan({x})");
        }
        let ci = batch_means_interval(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ci.estimate, 2.5);
        let se = (5.0f64 / 12.0).sqrt();
        assert!((ci.half_width - 3.182446 * se).abs() < 1e-5, "{ci:?}");
    }

    #[test]
    #[should_panic(expected = "two batches")]
    fn interval_needs_batches() {
        let net = geometric_net(4.0);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = confidence_interval(&net, &SimOptions::default(), "lambda", 1, &mut rng);
    }

    #[test]
    fn deterministic_with_seed() {
        let net = geometric_net(5.0);
        let opts = SimOptions {
            horizon: 50_000,
            warmup: 1_000,
        };
        let a = simulate(&net, &opts, &mut StdRng::seed_from_u64(1)).unwrap();
        let b = simulate(&net, &opts, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(a.completions, b.completions);
    }

    #[test]
    fn deadlock_reported() {
        let mut net = Net::new("dead");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("t").delay(1).input(a, 1).output(b, 1))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let err = simulate(&net, &SimOptions::default(), &mut rng).unwrap_err();
        assert!(matches!(err, GtpnError::Deadlock { .. }));
    }
}

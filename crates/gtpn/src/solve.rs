//! Steady-state solution of the embedded Markov chain.
//!
//! The reachability graph is a finite discrete-time Markov chain whose state
//! `i` holds for a deterministic sojourn `h_i`. Small chains (at most
//! [`DIRECT_MAX_STATES`] states) are solved exactly by dense LU on the
//! balance equations; larger ones solve `π P = π` with a Gauss–Seidel
//! sweep (self-loops are eliminated analytically, which matters because
//! the paper's geometric-delay stages produce states with large self-loop
//! probabilities). Either way the result is then time-weighted:
//!
//! ```text
//! π_time(i) = π(i) · h_i / Σ_j π(j) · h_j
//! ```
//!
//! The **resource usage** of resource `r` is the time-weighted expected
//! number of in-progress firings of transitions labelled `r` — exactly the
//! output measure of the UW–Madison GTPN analyzer that the paper reads
//! throughput (`Λ`) from. A transition with delay `d` firing at rate `λ` has
//! usage `λ·d`, so the *rate* reported by [`Solution::resource_rate`] is
//! `usage / d`.

use crate::error::GtpnError;
use crate::net::TransId;
use crate::reach::ReachabilityGraph;
use std::collections::{HashMap, VecDeque};

/// Reusable scratch buffers for [`ReachabilityGraph::solve_with`].
///
/// A sweep evaluates hundreds of points whose reachability graphs are the
/// same size (or cached and literally the same graph); reallocating the
/// incoming-edge list and self-loop vector for each solve is pure
/// allocator churn. One workspace per worker thread keeps those buffers
/// warm across points. The solution vector itself is always freshly
/// allocated — it is moved into the returned [`Solution`].
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    /// The transposed chain in compressed-sparse-row form: the `(i, p)`
    /// edges into state `j`, self-loops excluded, are
    /// `in_edges[in_offsets[j]..in_offsets[j + 1]]`, ordered by source and
    /// then by position in the source's out-list.
    in_offsets: Vec<usize>,
    in_edges: Vec<(usize, f64)>,
    /// Total self-loop probability of each state.
    self_loop: Vec<f64>,
}

impl SolveWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> SolveWorkspace {
        SolveWorkspace::default()
    }

    /// Transposes `graph` into the workspace by counting sort: in-degrees,
    /// prefix sums, then one pass over the sources in ascending order — so
    /// every in-list comes out in source-ascending, edge order, the order
    /// the Gauss–Seidel inflow sums have always added in.
    fn load(&mut self, graph: &ReachabilityGraph) {
        let n = graph.state_count();
        self.self_loop.clear();
        self.self_loop.resize(n, 0.0);
        self.in_offsets.clear();
        self.in_offsets.resize(n + 1, 0);
        for i in 0..n {
            for &(j, _) in graph.out_edges(i) {
                if i != j {
                    self.in_offsets[j + 1] += 1;
                }
            }
        }
        for j in 0..n {
            self.in_offsets[j + 1] += self.in_offsets[j];
        }
        self.in_edges.clear();
        self.in_edges.resize(self.in_offsets[n], (0, 0.0));
        // `in_offsets[j]` doubles as state `j`'s write cursor; the shift
        // back afterwards restores the offsets.
        for i in 0..n {
            for &(j, p) in graph.out_edges(i) {
                if i == j {
                    self.self_loop[i] += p;
                } else {
                    self.in_edges[self.in_offsets[j]] = (i, p);
                    self.in_offsets[j] += 1;
                }
            }
        }
        self.in_offsets.copy_within(0..n, 1);
        self.in_offsets[0] = 0;
    }

    /// The `(source, probability)` edges into state `j`.
    #[inline]
    fn incoming(&self, j: usize) -> &[(usize, f64)] {
        &self.in_edges[self.in_offsets[j]..self.in_offsets[j + 1]]
    }
}

/// Steady-state solution of a [`ReachabilityGraph`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Time-weighted steady-state probability of each tangible state.
    pi_time: Vec<f64>,
    /// Embedded-chain stationary distribution.
    pi: Vec<f64>,
    /// Mean sojourn time `Σ π h`.
    mean_sojourn: f64,
    /// Usage per transition (time-weighted mean number in progress).
    transition_usage: Vec<f64>,
    /// Resource label -> usage.
    resource_usage_map: HashMap<String, f64>,
    /// Resource label -> minimum delay among its transitions (for rates).
    resource_delay: HashMap<String, u64>,
    transition_delays: Vec<u64>,
    transition_names: Vec<String>,
    iterations: usize,
    residual: f64,
}

impl Solution {
    pub(crate) fn solve(
        graph: &ReachabilityGraph,
        tolerance: f64,
        max_sweeps: usize,
    ) -> Result<Solution, GtpnError> {
        Solution::solve_with(graph, tolerance, max_sweeps, &mut SolveWorkspace::new())
    }

    pub(crate) fn solve_with(
        graph: &ReachabilityGraph,
        tolerance: f64,
        max_sweeps: usize,
        ws: &mut SolveWorkspace,
    ) -> Result<Solution, GtpnError> {
        Solution::solve_seeded_with(graph, tolerance, max_sweeps, ws, None)
    }

    /// As [`solve_with`](Self::solve_with), starting the Gauss–Seidel
    /// iteration from `seed` (a previously converged embedded distribution
    /// of a same-shape chain — the warm-start hand-off of a sweep) instead
    /// of the uniform vector. A seed of the wrong length, or containing
    /// non-finite / negative mass, falls back to the cold uniform start.
    ///
    /// The seed moves the *trajectory*, not the destination: the iteration
    /// still runs to the same tail-bound stopping rule, so a warm solve
    /// agrees with a cold one to solver tolerance.
    pub(crate) fn solve_seeded_with(
        graph: &ReachabilityGraph,
        tolerance: f64,
        max_sweeps: usize,
        ws: &mut SolveWorkspace,
        seed: Option<&[f64]>,
    ) -> Result<Solution, GtpnError> {
        let n = graph.state_count();
        assert!(n > 0, "empty reachability graph");

        // Small graphs are solved exactly. The §6.6.3 fixed-point models
        // produce tiny (tens of states) but numerically stiff chains —
        // geometric stages with means in the thousands — on which the
        // Gauss–Seidel residual oscillates over orders of magnitude and
        // any local stopping rule can fire 10³ short of the requested
        // accuracy (observed: δ = 7e-12 with true error 1.5e-8). One
        // dense LU is exact, deterministic, and replaces tens of
        // thousands of sweeps on exactly the solver critical path.
        if n <= DIRECT_MAX_STATES {
            if let Some((pi, residual)) = solve_direct(graph) {
                return Ok(finish(graph, pi, 1, residual));
            }
        }

        // Incoming edge lists with self-loop separation, built into the
        // workspace's reusable buffers.
        ws.load(graph);
        let ws = &*ws;
        let self_loop = &ws.self_loop;

        let mut pi = seed_vector(n, seed);
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        // Residuals one and two sweeps back (0.0 = not yet seen, which
        // makes the rate estimate infinite and blocks early stopping).
        let mut prev = 0.0f64;
        let mut prev2 = 0.0f64;
        let mut aa = Anderson::new();
        let mut x_pre: Vec<f64> = Vec::new();
        let mut stall = StallDetector::new();
        let mut converged = false;
        while iterations < max_sweeps {
            iterations += 1;
            let mut max_delta = 0.0f64;
            // Symmetric Gauss–Seidel: alternate sweep direction, which
            // propagates probability mass quickly in both directions of the
            // (often chain-structured) reachability graph.
            let forward = iterations % 2 == 1;
            // The Anderson pair is (input, image) of the full symmetric
            // double sweep: snapshot the input before the forward half.
            if forward && iterations + 1 >= AA_WARMUP {
                x_pre.clone_from(&pi);
            }
            let update = |j: usize, pi: &mut Vec<f64>, max_delta: &mut f64| {
                let inflow: f64 = ws.incoming(j).iter().map(|&(i, p)| pi[i] * p).sum();
                let denom = 1.0 - self_loop[j];
                let new = if denom <= 0.0 {
                    // Absorbing self-loop state: leave mass as-is; the
                    // deadlock check upstream prevents this in practice.
                    pi[j]
                } else {
                    inflow / denom
                };
                *max_delta = (*max_delta).max((new - pi[j]).abs());
                pi[j] = new;
            };
            if forward {
                for j in 0..n {
                    update(j, &mut pi, &mut max_delta);
                }
            } else {
                for j in (0..n).rev() {
                    update(j, &mut pi, &mut max_delta);
                }
            }
            // Normalize to guard against drift.
            let total: f64 = pi.iter().sum();
            if total > 0.0 {
                for v in pi.iter_mut() {
                    *v /= total;
                }
            }
            residual = max_delta;
            if converged_by_tail_bound(residual, (residual / prev2).sqrt(), tolerance)
                || stall.stalled(iterations, residual, tolerance)
            {
                converged = true;
                break;
            }
            prev2 = prev;
            prev = residual;
            // Anderson mixing on the slow chains, once per double sweep.
            // Fast solves converge inside the warmup and never see it,
            // preserving their exact historical trajectories; once the
            // residual is deep enough for the stall detector's floor
            // tracking, mixing stops — a mixed step there could only
            // perturb the endgame with rounding noise.
            if iterations >= AA_WARMUP && !forward && residual >= tolerance * 1e-2 {
                if let Some(cand) = aa.mix(&x_pre, &pi, residual) {
                    pi = cand;
                }
            }
        }
        if !converged {
            return Err(GtpnError::NoConvergence {
                residual,
                iterations,
            });
        }
        Ok(finish(graph, pi, iterations, residual))
    }

    /// Solves `π P = π` with red-black ordering: states are split by index
    /// parity, each color updated as a batch from a frozen copy of the
    /// previous values, reds before blacks. Batches are embarrassingly
    /// parallel, so the color update fans out over `workers` threads — and
    /// because every value is computed from the frozen vector, the result
    /// is **identical for any worker count** (only wall-clock changes).
    ///
    /// Within a color the update is Jacobi (every value reads the frozen
    /// vector), and pure Jacobi oscillates on periodic chains — which the
    /// embedded chains here nearly are once self-loops are eliminated (an
    /// odd cycle flips between two vectors forever). The scatter therefore
    /// applies under-relaxation (`RED_BLACK_OMEGA`): mixing the old value
    /// back in breaks the period-2 mode while leaving the fixed point
    /// unchanged.
    ///
    /// The iteration trajectory differs from the serial symmetric sweep of
    /// [`solve_with`](Self::solve_with) (red-black reads strictly older
    /// values within a color, and relaxes), so converged results agree
    /// with the serial solver to solver tolerance, not bit-for-bit. That
    /// is why this path is opt-in (`HSIPC_PAR_SOLVE=1`) and excluded from
    /// the byte-identity contract.
    pub(crate) fn solve_red_black_with(
        graph: &ReachabilityGraph,
        tolerance: f64,
        max_sweeps: usize,
        ws: &mut SolveWorkspace,
        workers: usize,
    ) -> Result<Solution, GtpnError> {
        Solution::solve_red_black_core(
            graph,
            tolerance,
            max_sweeps,
            ws,
            RbWidth::Fixed(workers),
            None,
        )
    }

    /// As [`solve_red_black_with`](Self::solve_red_black_with), but the
    /// color batches claim their worker width from `par` **per sweep**
    /// instead of once per solve: as sweep-pool workers drain and release
    /// cores mid-solve, the remaining sparse matvecs widen on the next
    /// sweep. Values are computed from the frozen vector either way, so the
    /// result stays independent of whatever widths the ledger granted.
    pub(crate) fn solve_red_black_budgeted(
        graph: &ReachabilityGraph,
        tolerance: f64,
        max_sweeps: usize,
        ws: &mut SolveWorkspace,
        par: &crate::par::ParallelBudget,
        seed: Option<&[f64]>,
    ) -> Result<Solution, GtpnError> {
        Solution::solve_red_black_core(graph, tolerance, max_sweeps, ws, RbWidth::Budget(par), seed)
    }

    fn solve_red_black_core(
        graph: &ReachabilityGraph,
        tolerance: f64,
        max_sweeps: usize,
        ws: &mut SolveWorkspace,
        width: RbWidth<'_>,
        seed: Option<&[f64]>,
    ) -> Result<Solution, GtpnError> {
        let n = graph.state_count();
        assert!(n > 0, "empty reachability graph");

        // Same direct path as [`solve_with`](Self::solve_with): below the
        // threshold the two solvers are literally the same computation, so
        // `HSIPC_PAR_SOLVE=1` changes nothing at all on small graphs.
        if n <= DIRECT_MAX_STATES {
            if let Some((pi, residual)) = solve_direct(graph) {
                return Ok(finish(graph, pi, 1, residual));
            }
        }

        ws.load(graph);
        let ws = &*ws;

        let reds = n.div_ceil(2); // states 0, 2, 4, ...
        let blacks = n / 2; // states 1, 3, 5, ...
        let mut pi = seed_vector(n, seed);
        let mut fresh = vec![0.0f64; reds];

        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        // Residual one sweep back (0.0 = not yet seen → infinite rate,
        // which blocks early stopping). The red-black iteration is uniform
        // sweep to sweep, so successive residuals estimate the rate.
        let mut prev = 0.0f64;
        let mut aa = Anderson::new();
        let mut x_pre: Vec<f64> = Vec::new();
        let mut stall = StallDetector::new();
        let mut converged = false;
        while iterations < max_sweeps {
            iterations += 1;
            // The Anderson pair is (input, image) of one full red-black
            // sweep: snapshot the input before the color updates.
            if iterations >= AA_WARMUP {
                x_pre.clone_from(&pi);
            }
            // Fixed widths are latched for the whole solve; a budget is
            // consulted anew each sweep, so cores freed by draining pool
            // workers widen the remaining sweeps of a long solve.
            let (_lease, workers) = match width {
                RbWidth::Fixed(w) => (None, w.max(1)),
                RbWidth::Budget(par) => {
                    if n >= PAR_SOLVE_MIN_STATES {
                        let lease = par.claim_extra(usize::MAX);
                        let w = 1 + lease.extra();
                        (Some(lease), w)
                    } else {
                        (None, 1)
                    }
                }
            };
            let mut max_delta = 0.0f64;
            for color in 0..2usize {
                let m = if color == 0 { reds } else { blacks };
                if m == 0 {
                    continue;
                }
                half_sweep(color, &pi, &mut fresh[..m], ws, workers);
                // Serial scatter: the residual accumulation and the writes
                // into `pi` happen in state order regardless of workers.
                for (r, &v) in fresh[..m].iter().enumerate() {
                    let j = 2 * r + color;
                    let new = pi[j] + RED_BLACK_OMEGA * (v - pi[j]);
                    max_delta = max_delta.max((new - pi[j]).abs());
                    pi[j] = new;
                }
            }
            // Normalize to guard against drift.
            let total: f64 = pi.iter().sum();
            if total > 0.0 {
                for v in pi.iter_mut() {
                    *v /= total;
                }
            }
            residual = max_delta;
            if converged_by_tail_bound(residual, residual / prev, tolerance)
                || stall.stalled(iterations, residual, tolerance)
            {
                converged = true;
                break;
            }
            prev = residual;
            // The same Anderson mixing as the serial sweep, once per
            // red-black sweep. The candidate is a deterministic function
            // of the iterates, so worker-count invariance is untouched.
            if iterations >= AA_WARMUP && residual >= tolerance * 1e-2 {
                if let Some(cand) = aa.mix(&x_pre, &pi, residual) {
                    pi = cand;
                }
            }
        }
        if !converged {
            return Err(GtpnError::NoConvergence {
                residual,
                iterations,
            });
        }
        Ok(finish(graph, pi, iterations, residual))
    }
}

/// Graphs at or below this size are solved directly (dense LU on the
/// balance equations) instead of iteratively. 128 states is a 128 KiB
/// dense matrix and ~2·10⁶ flops — microseconds — while covering every
/// graph the §6.6.3 fixed point solves at the paper's conversation counts,
/// which is where the stiff chains live. Larger graphs stay on the sparse
/// iterative solvers.
pub(crate) const DIRECT_MAX_STATES: usize = 128;

/// Graphs below this size never claim budget cores in the budgeted
/// red-black solve: the per-sweep work cannot amortize worker dispatch.
pub(crate) const PAR_SOLVE_MIN_STATES: usize = 512;

/// Worker-width policy of the red-black solver: a width fixed for the whole
/// solve (the public API) or a [`crate::par::ParallelBudget`] consulted per
/// sweep (the engine's path, which widens mid-solve as cores free up).
enum RbWidth<'a> {
    Fixed(usize),
    Budget(&'a crate::par::ParallelBudget),
}

/// The iteration's starting vector: a validated, renormalized copy of
/// `seed`, or the cold uniform start when the seed is absent, has the wrong
/// length (the net's shape changed along the sweep axis), or carries
/// non-finite / negative mass.
fn seed_vector(n: usize, seed: Option<&[f64]>) -> Vec<f64> {
    if let Some(s) = seed {
        if s.len() == n {
            let total: f64 = s.iter().sum();
            if total > 0.0 && total.is_finite() && s.iter().all(|&v| v.is_finite() && v >= 0.0) {
                return s.iter().map(|&v| v / total).collect();
            }
        }
    }
    vec![1.0 / n as f64; n]
}

/// Depth of Anderson mixing: an accelerated step combines up to
/// `AA_DEPTH + 1` of the most recent sweep images.
const AA_DEPTH: usize = 8;

/// Sweeps before mixing starts. Fast solves converge before this and keep
/// their exact historical trajectories; the stiff geometric-stage chains
/// (contraction rate `1 − 1/mean` with means in the thousands, i.e. ~10⁵
/// sweeps to tolerance unaided) are still in their first percent of
/// progress.
const AA_WARMUP: usize = 64;

/// Mix calls without halving the best residual before the window is
/// discarded and mixing enters a cooldown ([`AA_MAX_RESTARTS`] times),
/// then gives up for the remainder of the solve. The cooldown matters: on
/// a handful of solves the mixed sequence settles into a limit cycle —
/// the residual orbits around 1e-6, even *rising* slowly, for 10⁵ sweeps
/// without tripping any per-step guard — and because the iteration is
/// deterministic, a window rebuilt from the very same iterate re-enters
/// the very same cycle. Plain sweeps first have to carry the iterate a
/// measurable distance away (residual down 4×) before a fresh window gets
/// a different starting state; restarted there, mixing converges normally,
/// exactly as warm-seeded solves do. Only when repeated restarts stop
/// paying is plain Gauss–Seidel (with the unchanged stopping rule) the
/// better finisher.
const AA_PATIENCE: usize = 1024;

/// Window restarts granted before mixing is disabled for the solve.
const AA_MAX_RESTARTS: usize = 3;

/// Residual shrink factor that ends a post-restart cooldown.
const AA_COOLDOWN_SHRINK: f64 = 0.25;

/// Largest accepted ‖α‖₁ of the mixing coefficients. An ill-conditioned
/// window yields wildly oscillating coefficients whose mixed iterate
/// amplifies rounding noise instead of cancelling error — observed as a
/// limit cycle with the residual slowly *rising* at ~1e-6 for 10⁵ sweeps.
/// When the full window's coefficients exceed this, the fit is retried on
/// suffixes of the window (newest pairs) until it is tame; a window that
/// cannot produce a tame fit produces no step at all.
const AA_ALPHA_CAP: f64 = 1e6;

/// Anderson mixing over Gauss–Seidel sweeps.
///
/// For the sweep map `g` (one symmetric double sweep, or one red-black
/// sweep) with fixed point `π`, each call records the pair `(x_k, g(x_k))`
/// and returns the affine combination `Σ α_j g(x_j)` with `Σ α_j = 1`
/// minimizing `‖Σ α_j f_j‖₂` over a sliding window, where
/// `f_j = g(x_j) − x_j` is the sweep residual. For a linear map this is
/// reduced-rank extrapolation applied continuously — the fixed-point
/// analogue of a Krylov method on `I − M`. That matters here because the
/// paper's geometric stages produce a *dense* cluster of slow modes (ρ
/// within 1e-3 of 1): a rank-8 burst jump every few hundred sweeps leaves
/// most of the cluster standing (measured: ~5× residual per 1152-sweep
/// window on a 6336-state chain), while the same rank-8 fit refreshed
/// every sweep keeps cancelling the cluster as it rotates through the
/// window.
///
/// Everything is a deterministic function of the iterates, so the solvers
/// stay bit-reproducible (and the red-black solver stays worker-count
/// invariant). A degenerate least-squares system or a candidate that
/// fails the probability-vector guards resets the window; the solve falls
/// back to plain sweeps while it refills.
struct Anderson {
    /// Sweep residuals `f_j = g(x_j) − x_j`, oldest first.
    fs: VecDeque<Vec<f64>>,
    /// Images `g(x_j)`, aligned with `fs`.
    gxs: VecDeque<Vec<f64>>,
    /// Gram rows: `gram[a][b] = f_a · f_b`, maintained incrementally (one
    /// new row of dot products per call, not a full rebuild).
    gram: VecDeque<Vec<f64>>,
    /// Best (smallest) residual seen at any mix call.
    best: f64,
    /// Mix calls since `best` last halved; see [`AA_PATIENCE`].
    since_best: usize,
    /// Patience exhaustions so far; see [`AA_MAX_RESTARTS`].
    restarts: usize,
    /// Active cooldown: mixing stays off until the residual drops below
    /// this (see [`AA_COOLDOWN_SHRINK`]); `0.0` when no cooldown.
    cooldown_below: f64,
    disabled: bool,
}

impl Anderson {
    fn new() -> Anderson {
        Anderson {
            fs: VecDeque::new(),
            gxs: VecDeque::new(),
            gram: VecDeque::new(),
            best: f64::INFINITY,
            since_best: 0,
            restarts: 0,
            cooldown_below: 0.0,
            disabled: false,
        }
    }

    fn reset(&mut self) {
        self.fs.clear();
        self.gxs.clear();
        self.gram.clear();
    }

    /// Records one `(x, g(x))` pair and returns the mixed iterate, or
    /// `None` while the window is too shallow or when the least-squares
    /// system degenerates (which resets the window).
    fn mix(&mut self, x: &[f64], gx: &[f64], residual: f64) -> Option<Vec<f64>> {
        if self.disabled {
            return None;
        }
        if self.cooldown_below > 0.0 {
            if residual >= self.cooldown_below {
                return None;
            }
            self.cooldown_below = 0.0;
            self.best = residual;
            self.since_best = 0;
        }
        if residual < 0.5 * self.best {
            self.best = residual;
            self.since_best = 0;
        } else {
            self.since_best += 1;
            if self.since_best > AA_PATIENCE {
                self.reset();
                self.restarts += 1;
                if self.restarts > AA_MAX_RESTARTS {
                    self.disabled = true;
                } else {
                    self.cooldown_below = AA_COOLDOWN_SHRINK * self.best.min(residual);
                }
                return None;
            }
        }
        let n = x.len();
        let f: Vec<f64> = gx.iter().zip(x).map(|(g, x)| g - x).collect();
        if self.fs.len() == AA_DEPTH + 1 {
            self.fs.pop_front();
            self.gxs.pop_front();
            self.gram.pop_front();
            for row in self.gram.iter_mut() {
                row.remove(0);
            }
        }
        let new_row: Vec<f64> = self
            .fs
            .iter()
            .map(|fj| fj.iter().zip(&f).map(|(a, b)| a * b).sum())
            .chain(std::iter::once(f.iter().map(|v| v * v).sum()))
            .collect();
        for (row, &dot) in self.gram.iter_mut().zip(&new_row) {
            row.push(dot);
        }
        self.gram.push_back(new_row);
        self.fs.push_back(f);
        self.gxs.push_back(gx.to_vec());
        let m = self.fs.len();
        if m < 2 {
            return None;
        }
        // Fit on the newest `k` pairs, shrinking `k` until the coefficients
        // are tame ([`AA_ALPHA_CAP`]): the residuals of a stiff chain are
        // nearly collinear, so the Gram system is ill-conditioned by
        // design, and the ridge alone cannot stop an over-deep window from
        // producing a noise-amplifying fit.
        let mut chosen: Option<(usize, Vec<f64>)> = None;
        let mut k = m;
        while k >= 2 {
            let lo = m - k;
            let mut a = vec![0.0f64; k * k];
            for r in 0..k {
                for c in 0..k {
                    a[r * k + c] = self.gram[lo + r][lo + c];
                }
            }
            let trace: f64 = (0..k).map(|i| a[i * k + i]).sum();
            if !trace.is_finite() || trace <= 0.0 {
                self.reset();
                return None;
            }
            let ridge = 1e-12 * trace / k as f64;
            for i in 0..k {
                a[i * k + i] += ridge;
            }
            // Solve (G + ridge·I) y = 1; α = y / Σy minimizes ‖Σ α_j f_j‖
            // subject to Σ α = 1.
            let mut y = vec![1.0f64; k];
            if lu_solve_in_place(&mut a, &mut y, k) {
                let total: f64 = y.iter().sum();
                if total.is_finite() && total.abs() >= 1e-30 {
                    let alpha: Vec<f64> = y.iter().map(|v| v / total).collect();
                    if alpha.iter().all(|v| v.is_finite())
                        && alpha.iter().map(|v| v.abs()).sum::<f64>() <= AA_ALPHA_CAP
                    {
                        chosen = Some((lo, alpha));
                        break;
                    }
                }
            }
            k -= 1;
        }
        let (lo, alpha) = chosen?;
        // Candidate: Σ α_j g(x_j) over the chosen suffix.
        let mut cand = vec![0.0f64; n];
        for (j, &aj) in alpha.iter().enumerate() {
            for (c, &v) in cand.iter_mut().zip(&self.gxs[lo + j]) {
                *c += aj * v;
            }
        }
        // A probability vector or nothing: clamp rounding-level negatives,
        // reject real ones, renormalize.
        let mut total = 0.0f64;
        for v in cand.iter_mut() {
            if !v.is_finite() || *v < -1e-8 {
                self.reset();
                return None;
            }
            if *v < 0.0 {
                *v = 0.0;
            }
            total += *v;
        }
        if !total.is_finite() || total <= 0.5 {
            self.reset();
            return None;
        }
        for v in cand.iter_mut() {
            *v /= total;
        }
        Some(cand)
    }
}

/// Sweeps over which the residual must halve once it is far below
/// tolerance, or the solve is accepted as parked on its rounding floor.
const STALL_WINDOW: usize = 64;

/// Detects a solve stuck on the floating-point rounding floor.
///
/// A stiff chain (contraction rate ρ → 1) can grind its residual two
/// orders of magnitude below the requested tolerance and then flatline:
/// successive iterates differ only by accumulated rounding, so the rate
/// estimate hovers at 1 (blocking the tail bound) while the residual sits
/// just above the `tolerance·1e-3` noise clause (observed: 1.3e-14
/// against a 1e-14 clause, spinning to the sweep limit). Once the
/// residual is below `tolerance·1e-2` and fails to halve across a
/// [`STALL_WINDOW`], the iterate cannot be improved in this arithmetic
/// and is accepted. The error at acceptance is ≲ residual·ρ/(1−ρ) — with
/// the residual two decades under tolerance, still comfortably inside
/// the caller's contract.
struct StallDetector {
    mark: f64,
    mark_iter: usize,
}

impl StallDetector {
    fn new() -> StallDetector {
        StallDetector {
            mark: f64::INFINITY,
            mark_iter: 0,
        }
    }

    /// Feeds one sweep's residual; true when the solve has provably
    /// stalled on the rounding floor. Purely a function of the residual
    /// trajectory, so determinism and worker-count invariance hold.
    fn stalled(&mut self, iterations: usize, residual: f64, tolerance: f64) -> bool {
        if residual >= tolerance * 1e-2 {
            self.mark = f64::INFINITY;
            return false;
        }
        if self.mark.is_infinite() || residual <= 0.5 * self.mark {
            self.mark = residual;
            self.mark_iter = iterations;
            return false;
        }
        iterations - self.mark_iter >= STALL_WINDOW
    }
}

/// Dense LU solve with partial pivoting, in place: `a` is an `n×n`
/// row-major matrix, `b` the right-hand side, overwritten with the
/// solution. Returns false on a singular or non-finite system.
fn lu_solve_in_place(a: &mut [f64], b: &mut [f64], n: usize) -> bool {
    for col in 0..n {
        let mut piv = col;
        let mut best = a[col * n + col].abs();
        for r in col + 1..n {
            let v = a[r * n + col].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if !best.is_finite() || best <= 0.0 {
            return false;
        }
        if piv != col {
            for k in col..n {
                a.swap(piv * n + k, col * n + k);
            }
            b.swap(piv, col);
        }
        let d = a[col * n + col];
        for r in col + 1..n {
            let f = a[r * n + col] / d;
            if f == 0.0 {
                continue;
            }
            a[r * n + col] = 0.0;
            for c in col + 1..n {
                a[r * n + c] -= f * a[col * n + c];
            }
            b[r] -= f * b[col];
        }
    }
    for r in (0..n).rev() {
        let mut s = b[r];
        for c in r + 1..n {
            s -= a[r * n + c] * b[c];
        }
        b[r] = s / a[r * n + r];
        if !b[r].is_finite() {
            return false;
        }
    }
    true
}

/// Solves the embedded chain's balance equations `π(P − I) = 0`,
/// `Σπ = 1` exactly: dense LU with partial pivoting, the last balance
/// equation replaced by the normalization (the standard rank completion
/// for an irreducible chain). Returns the stationary vector and its
/// balance residual `max_j |π_j − Σ_i π_i P_ij|` (machine-precision
/// small), or `None` when elimination degenerates — a singular system or
/// a meaningfully negative component — in which case the caller falls
/// back to the iterative path and its own diagnostics.
fn solve_direct(graph: &ReachabilityGraph) -> Option<(Vec<f64>, f64)> {
    let n = graph.state_count();
    // Row j of `a` is state j's balance equation π_j = Σ_i π_i P_ij,
    // i.e. a[j][i] = Pᵀ[j][i] − δ_ij.
    let mut a = vec![0.0f64; n * n];
    for j in 0..n {
        a[j * n + j] = -1.0;
    }
    for i in 0..n {
        for &(j, p) in graph.out_edges(i) {
            a[j * n + i] += p;
        }
    }
    let mut b = vec![0.0f64; n];
    for i in 0..n {
        a[(n - 1) * n + i] = 1.0;
    }
    b[n - 1] = 1.0;

    // Forward elimination with partial pivoting.
    for col in 0..n {
        let mut piv = col;
        let mut best = a[col * n + col].abs();
        for r in col + 1..n {
            let v = a[r * n + col].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if piv != col {
            for k in col..n {
                a.swap(piv * n + k, col * n + k);
            }
            b.swap(piv, col);
        }
        let d = a[col * n + col];
        for r in col + 1..n {
            let f = a[r * n + col] / d;
            if f == 0.0 {
                continue;
            }
            a[r * n + col] = 0.0;
            for c in col + 1..n {
                a[r * n + c] -= f * a[col * n + c];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    let mut pi = vec![0.0f64; n];
    for r in (0..n).rev() {
        let mut s = b[r];
        for c in r + 1..n {
            s -= a[r * n + c] * pi[c];
        }
        pi[r] = s / a[r * n + r];
    }
    // Elimination can leave rounding-level negatives; anything larger
    // means the system was not the chain we assumed.
    for v in pi.iter_mut() {
        if *v < 0.0 {
            if *v < -1e-9 {
                return None;
            }
            *v = 0.0;
        }
    }
    let total: f64 = pi.iter().sum();
    if total <= 0.0 {
        return None;
    }
    for v in pi.iter_mut() {
        *v /= total;
    }

    let mut inflow = vec![0.0f64; n];
    for (i, &mass) in pi.iter().enumerate() {
        for &(j, p) in graph.out_edges(i) {
            inflow[j] += mass * p;
        }
    }
    let residual = pi
        .iter()
        .zip(&inflow)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max);
    Some((pi, residual))
}

/// The shared stopping rule: the iteration has converged when the
/// *estimated remaining distance to the fixed point* — not merely the last
/// step — is below `tolerance`. For a linearly contracting iteration with
/// rate ρ (estimated from successive residuals `δ_k/δ_{k-1}`), the tail of
/// the series is bounded by `δ·ρ/(1−ρ)`. Stopping on the raw step size
/// instead would under-deliver accuracy by a factor of `ρ/(1−ρ)` — orders
/// of magnitude for the slowly-contracting chains this repository solves,
/// and differently so for the serial and red-black iterations, which is
/// exactly the gap that would break their documented 1e-10 agreement.
/// `rate` is the caller's per-sweep contraction estimate: successive
/// residuals for the uniform red-black iteration, but `√(δ_k/δ_{k-2})` for
/// the symmetric serial sweep — its forward and backward half-residuals
/// differ by orders of magnitude, so only same-direction sweeps compare.
fn converged_by_tail_bound(residual: f64, rate: f64, tolerance: f64) -> bool {
    if residual >= tolerance {
        return false;
    }
    if rate < 1.0 && residual * rate / (1.0 - rate) < tolerance {
        return true;
    }
    // Noise-floor plateau: deeply sub-tolerance but the rate estimate has
    // degenerated to ~1 — the iteration hit f64 precision, not a slow mode.
    residual < tolerance * 1e-3
}

/// Under-relaxation factor of the red-black scatter. 0.5 zeroes the
/// period-2 oscillation mode of the within-color Jacobi update (iteration
/// eigenvalue `1 - ω + ωλ` vanishes at `λ = -1`) at the cost of roughly
/// doubling the sweep count on the slow modes — robustness over speed for
/// the chains this repository solves.
const RED_BLACK_OMEGA: f64 = 0.5;

/// One red-black color update: `out[r]` receives the new value of state
/// `2r + color`, computed purely from the frozen `pi`. Fans out over
/// `workers` threads in contiguous chunks; values are independent of the
/// worker count and chunking by construction.
fn half_sweep(color: usize, pi: &[f64], out: &mut [f64], ws: &SolveWorkspace, workers: usize) {
    let value = |r: usize| -> f64 {
        let j = 2 * r + color;
        let inflow: f64 = ws.incoming(j).iter().map(|&(i, p)| pi[i] * p).sum();
        let denom = 1.0 - ws.self_loop[j];
        if denom <= 0.0 {
            // Absorbing self-loop state: leave mass as-is; the deadlock
            // check upstream prevents this in practice.
            pi[j]
        } else {
            inflow / denom
        }
    };
    let m = out.len();
    if workers <= 1 || m < workers * 8 {
        for (r, o) in out.iter_mut().enumerate() {
            *o = value(r);
        }
        return;
    }
    let chunk = m.div_ceil(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut chunks = out.chunks_mut(chunk).enumerate();
        let first = chunks.next();
        for (ci, oc) in chunks {
            handles.push(scope.spawn(move || {
                for (k, o) in oc.iter_mut().enumerate() {
                    *o = value(ci * chunk + k);
                }
            }));
        }
        if let Some((_, oc)) = first {
            for (k, o) in oc.iter_mut().enumerate() {
                *o = value(k);
            }
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Shared post-processing: time-weights the stationary distribution and
/// aggregates per-transition and per-resource usage. Identical for every
/// solver variant, so converged `pi` vectors produce comparable outputs.
fn finish(graph: &ReachabilityGraph, pi: Vec<f64>, iterations: usize, residual: f64) -> Solution {
    // Time weighting.
    let mean_sojourn: f64 = pi
        .iter()
        .zip(graph.sojourn.iter())
        .map(|(&p, &h)| p * h as f64)
        .sum();
    let pi_time: Vec<f64> = pi
        .iter()
        .zip(graph.sojourn.iter())
        .map(|(&p, &h)| p * h as f64 / mean_sojourn)
        .collect();

    // Per-transition usage.
    let tcount = graph.net.transition_count();
    let mut transition_usage = vec![0.0f64; tcount];
    for (si, &p) in pi_time.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        for &(t, _) in graph.firings(si) {
            transition_usage[t.0] += p;
        }
    }

    // Aggregate per resource.
    let mut resource_usage_map: HashMap<String, f64> = HashMap::new();
    let mut resource_delay: HashMap<String, u64> = HashMap::new();
    for (ti, t) in graph.net.transitions.iter().enumerate() {
        if let Some(r) = &t.resource {
            *resource_usage_map.entry(r.clone()).or_insert(0.0) += transition_usage[ti];
            let d = resource_delay.entry(r.clone()).or_insert(t.delay);
            *d = (*d).min(t.delay);
        }
    }

    Solution {
        pi_time,
        pi,
        mean_sojourn,
        transition_usage,
        resource_usage_map,
        resource_delay,
        transition_delays: graph.net.transitions.iter().map(|t| t.delay).collect(),
        transition_names: graph
            .net
            .transitions
            .iter()
            .map(|t| t.name.clone())
            .collect(),
        iterations,
        residual,
    }
}

impl Solution {
    /// Time-weighted steady-state probabilities of the tangible states.
    pub fn state_probabilities(&self) -> &[f64] {
        &self.pi_time
    }

    /// Embedded-chain (per-step) stationary distribution.
    pub fn embedded_probabilities(&self) -> &[f64] {
        &self.pi
    }

    /// Mean sojourn time per embedded step.
    pub fn mean_sojourn(&self) -> f64 {
        self.mean_sojourn
    }

    /// Usage (time-weighted mean in-progress count) of a resource label.
    pub fn resource_usage(&self, resource: &str) -> Result<f64, GtpnError> {
        self.resource_usage_map
            .get(resource)
            .copied()
            .ok_or_else(|| GtpnError::UnknownName(resource.to_string()))
    }

    /// Completion rate of a resource: `usage / delay` of its transitions.
    ///
    /// When several transitions share a resource label they must share the
    /// same delay for this to be meaningful; the paper's nets satisfy this.
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::UnknownName`] for an unknown resource.
    pub fn resource_rate(&self, resource: &str) -> Result<f64, GtpnError> {
        let usage = self.resource_usage(resource)?;
        let delay = *self
            .resource_delay
            .get(resource)
            .ok_or_else(|| GtpnError::UnknownName(resource.to_string()))?;
        Ok(if delay == 0 {
            usage
        } else {
            usage / delay as f64
        })
    }

    /// Usage of an individual transition.
    pub fn transition_usage(&self, transition: TransId) -> f64 {
        self.transition_usage
            .get(transition.0)
            .copied()
            .unwrap_or(0.0)
    }

    /// Completion rate of an individual transition (`usage / delay`).
    pub fn transition_rate(&self, transition: TransId) -> f64 {
        let u = self.transition_usage(transition);
        match self.transition_delays.get(transition.0) {
            Some(&d) if d > 0 => u / d as f64,
            _ => u,
        }
    }

    /// Usage of a transition looked up by name.
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::UnknownName`] if no transition has this name.
    pub fn transition_usage_by_name(&self, name: &str) -> Result<f64, GtpnError> {
        let idx = self
            .transition_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| GtpnError::UnknownName(name.to_string()))?;
        Ok(self.transition_usage[idx])
    }

    /// Number of Gauss–Seidel sweeps performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Final residual (max per-state change in the last sweep).
    pub fn residual(&self) -> f64 {
        self.residual
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::Expr;
    use crate::net::{Net, Transition};

    /// Geometric stage with mean n: exit utilization must be 1/n.
    #[test]
    fn geometric_stage_utilization() {
        for n in [2.0, 10.0, 1390.0] {
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
            let g = net.reachability(100).unwrap();
            let s = g.solve(1e-13, 100_000).unwrap();
            let u = s.resource_usage("lambda").unwrap();
            assert!((u - 1.0 / n).abs() < 1e-9, "n={n}: usage {u}");
        }
    }

    /// Two-stage tandem: each stage geometric mean 4 and 6; cycle time 10;
    /// throughput 0.1 per time unit.
    #[test]
    fn tandem_stage_throughput() {
        let mut net = Net::new("tandem");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        let mk = |name: &str, mean: f64| (name.to_string(), mean);
        let _ = mk;
        // Stage A: mean 4.
        net.add_transition(
            Transition::new("a_exit")
                .delay(1)
                .frequency(Expr::constant(0.25))
                .input(a, 1)
                .output(b, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("a_loop")
                .delay(1)
                .frequency(Expr::constant(0.75))
                .input(a, 1)
                .output(a, 1),
        )
        .unwrap();
        // Stage B: mean 6, measured.
        net.add_transition(
            Transition::new("b_exit")
                .delay(1)
                .frequency(Expr::constant(1.0 / 6.0))
                .resource("lambda")
                .input(b, 1)
                .output(a, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("b_loop")
                .delay(1)
                .frequency(Expr::constant(5.0 / 6.0))
                .resource("lambda")
                .input(b, 1)
                .output(b, 1),
        )
        .unwrap();
        let g = net.reachability(1000).unwrap();
        let s = g.solve(1e-13, 200_000).unwrap();
        // Token spends 4 of every 10 units in A, 6 in B: lambda (usage of
        // stage-B transitions) = 0.6.
        let u = s.resource_usage("lambda").unwrap();
        assert!((u - 0.6).abs() < 1e-9, "usage {u}");
        // Rate of b_exit alone = 1 completion per 10 units = 0.1.
        let rate = s.transition_usage_by_name("b_exit").unwrap();
        assert!((rate - 0.1).abs() < 1e-9, "b_exit usage {rate}");
    }

    /// Deterministic alternation (period-2 chain) still converges thanks to
    /// self-loop-free Gauss–Seidel.
    #[test]
    fn periodic_chain_converges() {
        let mut net = Net::new("periodic");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(
            Transition::new("ab")
                .delay(1)
                .resource("x")
                .input(a, 1)
                .output(b, 1),
        )
        .unwrap();
        net.add_transition(Transition::new("ba").delay(3).input(b, 1).output(a, 1))
            .unwrap();
        let g = net.reachability(100).unwrap();
        let s = g.solve(1e-14, 100_000).unwrap();
        // "ab" fires 1 time unit out of every 4.
        let u = s.resource_usage("x").unwrap();
        assert!((u - 0.25).abs() < 1e-9, "usage {u}");
    }

    /// Probabilities are a distribution.
    #[test]
    fn probabilities_normalized() {
        let mut net = Net::new("norm");
        let p = net.add_place("P", 2);
        net.add_transition(
            Transition::new("t1")
                .delay(1)
                .frequency(Expr::constant(0.5))
                .input(p, 1)
                .output(p, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("t2")
                .delay(2)
                .frequency(Expr::constant(0.5))
                .input(p, 1)
                .output(p, 1),
        )
        .unwrap();
        let g = net.reachability(1000).unwrap();
        let s = g.solve(1e-13, 100_000).unwrap();
        let total: f64 = s.state_probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(s.mean_sojourn() > 0.0);
        assert!(s.iterations() > 0);
        assert!(s.residual() < 1e-13);
    }

    /// The red-black solver agrees with the serial symmetric sweep to well
    /// within 1e-10 and is bit-identical across worker counts.
    #[test]
    fn red_black_agrees_and_is_worker_invariant() {
        let mut net = Net::new("rb");
        // Five independent geometric stages: the product state space must
        // exceed DIRECT_MAX_STATES so this exercises the iterative
        // red-black path (not the shared direct solve), and be large
        // enough to engage the parallel fan-out.
        for s in 0..5 {
            let p = net.add_place(format!("P{s}"), 1);
            let q = net.add_place(format!("Q{s}"), 0);
            let mean = 3.0 + s as f64;
            net.add_transition(
                Transition::new(format!("exit{s}"))
                    .delay(1)
                    .frequency(Expr::constant(1.0 / mean))
                    .resource("lambda")
                    .input(p, 1)
                    .output(q, 1),
            )
            .unwrap();
            net.add_transition(
                Transition::new(format!("loop{s}"))
                    .delay(1)
                    .frequency(Expr::constant(1.0 - 1.0 / mean))
                    .input(p, 1)
                    .output(p, 1),
            )
            .unwrap();
            net.add_transition(
                Transition::new(format!("rec{s}"))
                    .delay(2)
                    .input(q, 1)
                    .output(p, 1),
            )
            .unwrap();
        }
        let g = net.reachability(100_000).unwrap();
        assert!(
            g.state_count() > super::DIRECT_MAX_STATES,
            "net too small to exercise the iterative path: {} states",
            g.state_count()
        );
        let serial = g.solve(1e-12, 1_000_000).unwrap();
        let mut ws = super::SolveWorkspace::new();
        let rb1 = g.solve_red_black(1e-12, 1_000_000, &mut ws, 1).unwrap();
        let rb4 = g.solve_red_black(1e-12, 1_000_000, &mut ws, 4).unwrap();
        // Worker-count invariance is exact: same floats, same sweep count.
        assert_eq!(rb1.iterations(), rb4.iterations());
        for (a, b) in rb1
            .state_probabilities()
            .iter()
            .zip(rb4.state_probabilities())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Agreement with the serial solver.
        for (a, b) in serial
            .state_probabilities()
            .iter()
            .zip(rb1.state_probabilities())
        {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        let u_serial = serial.resource_usage("lambda").unwrap();
        let u_rb = rb4.resource_usage("lambda").unwrap();
        assert!((u_serial - u_rb).abs() < 1e-10, "{u_serial} vs {u_rb}");
    }

    #[test]
    fn unknown_names_error() {
        let mut net = Net::new("u");
        let p = net.add_place("P", 1);
        net.add_transition(Transition::new("t").delay(1).input(p, 1).output(p, 1))
            .unwrap();
        let s = net.reachability(10).unwrap().solve(1e-12, 1000).unwrap();
        assert!(s.resource_usage("nope").is_err());
        assert!(s.transition_usage_by_name("nope").is_err());
    }
}

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
//! usage `λ·d`, so the *rate* reported by
//! [`Analysis::resource_rate`](crate::Analysis::resource_rate) is `usage / d`.

use crate::error::GtpnError;
use crate::net::{Net, TransId};
use crate::reach::ReachabilityGraph;
use std::collections::{HashMap, VecDeque};

/// Reusable scratch buffers of a solve.
///
/// A sweep evaluates hundreds of points whose reachability graphs are the
/// same size; reallocating the incoming-edge list and self-loop vector for
/// each solve is pure allocator churn. The engine keeps one workspace per
/// worker thread, so those buffers are reused across points. The solution
/// vector itself is always freshly allocated — it is moved into the
/// returned [`Solution`].
///
/// Once [`load`](Self::load)ed, the workspace is all the sweeps read of
/// the chain's edges: the engine drops the graph's own out-edges before
/// they start.
#[derive(Debug, Default)]
pub(crate) struct SolveWorkspace {
    /// The transposed chain in compressed-sparse-row form: the edges into
    /// state `j`, self-loops excluded, are entries
    /// `in_offsets[j]..in_offsets[j + 1]` of the parallel arrays
    /// `in_sources` and `in_probs`, ordered by source and then by position
    /// in the source's out-list. Offsets and sources are `u32` — 12 bytes
    /// per edge, not the 16 of a `(usize, f64)` pair: a large chain's
    /// sweeps are bound by memory traffic, and no chain the state budget
    /// admits nears 2³² edges.
    in_offsets: Vec<u32>,
    in_sources: Vec<u32>,
    in_probs: Vec<f64>,
    /// Total self-loop probability of each state.
    self_loop: Vec<f64>,
}

impl SolveWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub(crate) fn new() -> SolveWorkspace {
        SolveWorkspace::default()
    }

    /// Transposes `graph` into the workspace by counting sort: in-degrees,
    /// prefix sums, then one pass over the sources in ascending order — so
    /// every in-list comes out in source-ascending, edge order, the order
    /// the Gauss–Seidel inflow sums have always added in.
    pub(crate) fn load(&mut self, graph: &ReachabilityGraph) {
        let n = graph.state_count();
        assert!(
            u32::try_from(graph.edge_count()).is_ok() && u32::try_from(n).is_ok(),
            "a chain of {n} states and {} edges overflows 32-bit in-edges",
            graph.edge_count()
        );
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
        let edges = self.in_offsets[n] as usize;
        self.in_sources.clear();
        self.in_sources.resize(edges, 0);
        self.in_probs.clear();
        self.in_probs.resize(edges, 0.0);
        // `in_offsets[j]` doubles as state `j`'s write cursor; copying each
        // cursor one slot up afterwards restores the offsets.
        for i in 0..n {
            for &(j, p) in graph.out_edges(i) {
                if i == j {
                    self.self_loop[i] += p;
                } else {
                    let at = self.in_offsets[j] as usize;
                    self.in_sources[at] = i as u32;
                    self.in_probs[at] = p;
                    self.in_offsets[j] += 1;
                }
            }
        }
        self.in_offsets.copy_within(0..n, 1);
        self.in_offsets[0] = 0;
    }

    /// The probability mass flowing into state `j` under `pi`: each
    /// in-edge's `pi[source] · p`, summed in in-list order.
    #[inline]
    fn inflow(&self, j: usize, pi: &[f64]) -> f64 {
        let edges = self.in_offsets[j] as usize..self.in_offsets[j + 1] as usize;
        self.in_sources[edges.clone()]
            .iter()
            .zip(&self.in_probs[edges])
            .map(|(&i, &p)| pi[i as usize] * p)
            .sum()
    }
}

/// Steady-state solution of a [`ReachabilityGraph`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Time-weighted steady-state probability of each tangible state.
    pi_time: Vec<f64>,
    /// Usage per transition (time-weighted mean number in progress).
    transition_usage: Vec<f64>,
    /// Resource label -> usage.
    resource_usage_map: HashMap<String, f64>,
    iterations: usize,
    residual: f64,
}

impl Solution {
    /// Solves `graph` directly when it is small enough
    /// ([`direct`](Self::direct)), by Gauss–Seidel sweeps
    /// ([`iterate`](Self::iterate)) otherwise.
    pub(crate) fn solve(
        graph: &ReachabilityGraph,
        tolerance: f64,
        max_sweeps: usize,
    ) -> Result<Solution, GtpnError> {
        if let Some(solution) = Solution::direct(graph) {
            return Ok(solution);
        }
        let mut ws = SolveWorkspace::new();
        ws.load(graph);
        Solution::iterate(graph, tolerance, max_sweeps, &ws)
    }

    /// The exact solution of a chain of at most [`DIRECT_MAX_STATES`]
    /// states; `None` for a larger chain, or when elimination degenerates,
    /// which leaves the chain to [`iterate`](Self::iterate).
    ///
    /// The §6.6.3 fixed-point models produce tiny (tens of states) but
    /// numerically stiff chains — geometric stages with means in the
    /// thousands — on which the Gauss–Seidel residual oscillates over
    /// orders of magnitude and any local stopping rule can fire 10³ short
    /// of the requested accuracy (observed: δ = 7e-12 with true error
    /// 1.5e-8). One dense LU is exact, deterministic, and replaces tens of
    /// thousands of sweeps on exactly the solver critical path.
    pub(crate) fn direct(graph: &ReachabilityGraph) -> Option<Solution> {
        let n = graph.state_count();
        assert!(n > 0, "empty reachability graph");
        if n > DIRECT_MAX_STATES {
            return None;
        }
        let (pi, residual) = solve_direct(graph)?;
        Some(finish(graph, pi, 1, residual))
    }

    /// The Gauss–Seidel solve of the chain `ws` holds
    /// ([`SolveWorkspace::load`]), from the uniform vector. Of `graph`, the
    /// same chain, only the sojourns, firings and net are read — for the
    /// time weighting — never its out-edges or markings.
    pub(crate) fn iterate(
        graph: &ReachabilityGraph,
        tolerance: f64,
        max_sweeps: usize,
        ws: &SolveWorkspace,
    ) -> Result<Solution, GtpnError> {
        let n = graph.state_count();
        assert_eq!(ws.self_loop.len(), n, "the workspace holds another chain");
        let self_loop = &ws.self_loop;

        let mut pi = vec![1.0 / n as f64; n];
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
                let inflow = ws.inflow(j, pi);
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
                aa.mix(&x_pre, &mut pi, residual);
            }
        }
        if !converged {
            return Err(GtpnError::NoConvergence {
                residual,
                iterations,
            });
        }
        // Free the window before `finish` allocates the result: a result
        // placed above it on the heap would keep the allocator from
        // returning the window's pages, which then stay resident until the
        // process exits.
        drop((aa, x_pre));
        Ok(finish(graph, pi, iterations, residual))
    }
}

/// Graphs at or below this size are solved directly (dense LU on the
/// balance equations) instead of iteratively. 128 states is a 128 KiB
/// dense matrix and ~2·10⁶ flops — microseconds — while covering every
/// graph the §6.6.3 fixed point solves at the paper's conversation counts,
/// which is where the stiff chains live. Larger graphs stay on the sparse
/// iterative solver.
pub(crate) const DIRECT_MAX_STATES: usize = 128;

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
/// a different starting state; restarted there, mixing converges normally.
/// Only when repeated restarts stop
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
/// For the sweep map `g` (one symmetric double sweep) with fixed point
/// `π`, each call records the pair `(x_k, g(x_k))` and returns the affine
/// combination `Σ α_j g(x_j)` with `Σ α_j = 1` minimizing `‖Σ α_j f_j‖₂`
/// over a sliding window, where `f_j = g(x_j) − x_j` is the sweep
/// residual. For a linear map this is
/// reduced-rank extrapolation applied continuously — the fixed-point
/// analogue of a Krylov method on `I − M`. That matters here because the
/// paper's geometric stages produce a *dense* cluster of slow modes (ρ
/// within 1e-3 of 1): a rank-8 burst jump every few hundred sweeps leaves
/// most of the cluster standing (measured: ~5× residual per 1152-sweep
/// window on a 6336-state chain), while the same rank-8 fit refreshed
/// every sweep keeps cancelling the cluster as it rotates through the
/// window.
///
/// Everything is a deterministic function of the iterates, so the solver
/// stays bit-reproducible. A degenerate least-squares system or a candidate
/// that fails the probability-vector guards resets the window; the solve
/// falls back to plain sweeps while it refills.
///
/// A mix allocates nothing once the window is full: the pair it drops
/// makes room for the new one, a reset keeps the window's vectors for the
/// refill, and the candidate is built in a vector that trades places with
/// the caller's iterate.
struct Anderson {
    /// Sweep residuals `f_j = g(x_j) − x_j`, oldest first.
    fs: VecDeque<Vec<f64>>,
    /// Images `g(x_j)`, aligned with `fs`.
    gxs: VecDeque<Vec<f64>>,
    /// Vectors a reset took out of the window, for the next pairs.
    free: Vec<Vec<f64>>,
    /// Where the next candidate is built.
    cand: Vec<f64>,
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
            free: Vec::new(),
            cand: Vec::new(),
            gram: VecDeque::new(),
            best: f64::INFINITY,
            since_best: 0,
            restarts: 0,
            cooldown_below: 0.0,
            disabled: false,
        }
    }

    fn reset(&mut self) {
        self.free.extend(self.fs.drain(..));
        self.free.extend(self.gxs.drain(..));
        self.gram.clear();
    }

    /// Records one `(x, g(x))` pair and replaces `gx` with the mixed
    /// iterate. Leaves `gx` as it is while the window is too shallow or
    /// when the least-squares system degenerates (which resets the
    /// window).
    fn mix(&mut self, x: &[f64], gx: &mut Vec<f64>, residual: f64) {
        if self.candidate(x, gx, residual).is_some() {
            std::mem::swap(gx, &mut self.cand);
        }
    }

    /// [`mix`](Self::mix)'s work: records the pair and builds the mixed
    /// iterate in `cand`, or returns `None`.
    fn candidate(&mut self, x: &[f64], gx: &[f64], residual: f64) -> Option<()> {
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
        let (f, g) = if self.fs.len() == AA_DEPTH + 1 {
            self.gram.pop_front();
            for row in self.gram.iter_mut() {
                row.remove(0);
            }
            (self.fs.pop_front(), self.gxs.pop_front())
        } else {
            (self.free.pop(), self.free.pop())
        };
        let (mut f, mut g) = (f.unwrap_or_default(), g.unwrap_or_default());
        f.clear();
        f.extend(gx.iter().zip(x).map(|(g, x)| g - x));
        g.clear();
        g.extend_from_slice(gx);
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
        self.gxs.push_back(g);
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
            if lu_solve_in_place(&mut a, &mut y, k, 0.0) {
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
        let cand = &mut self.cand;
        cand.clear();
        cand.resize(n, 0.0);
        for (j, &aj) in alpha.iter().enumerate() {
            for (c, &v) in cand.iter_mut().zip(&self.gxs[lo + j]) {
                *c += aj * v;
            }
        }
        // A probability vector or nothing: clamp rounding-level negatives,
        // reject real ones, renormalize.
        let mut total = 0.0f64;
        let mut rejected = false;
        for v in cand.iter_mut() {
            if !v.is_finite() || *v < -1e-8 {
                rejected = true;
                break;
            }
            if *v < 0.0 {
                *v = 0.0;
            }
            total += *v;
        }
        if rejected || !total.is_finite() || total <= 0.5 {
            self.reset();
            return None;
        }
        for v in self.cand.iter_mut() {
            *v /= total;
        }
        Some(())
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
    /// trajectory, so the solve stays deterministic.
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
/// solution. Returns false on a system the caller deems singular — a
/// pivot of magnitude at most `floor`, or a non-finite one — or on a
/// non-finite solution.
fn lu_solve_in_place(a: &mut [f64], b: &mut [f64], n: usize, floor: f64) -> bool {
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
        if !best.is_finite() || best <= floor {
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
/// small), or `None` when elimination degenerates — a pivot of at most
/// 1e-12, a non-finite solution or a meaningfully negative component — in
/// which case the caller falls back to the iterative path and its own
/// diagnostics.
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
    if !lu_solve_in_place(&mut a, &mut b, n, 1e-12) {
        return None;
    }
    let mut pi = b;
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

/// The stopping rule: the iteration has converged when the *estimated
/// remaining distance to the fixed point* — not merely the last step — is
/// below `tolerance`. For a linearly contracting iteration with rate ρ, the
/// tail of the series is bounded by `δ·ρ/(1−ρ)`. Stopping on the raw step
/// size instead would under-deliver accuracy by a factor of `ρ/(1−ρ)` —
/// orders of magnitude for the slowly-contracting chains this repository
/// solves. `rate` is the caller's per-sweep contraction estimate,
/// `√(δ_k/δ_{k-2})` for the symmetric sweep — its forward and backward
/// half-residuals differ by orders of magnitude, so only same-direction
/// sweeps compare.
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

    let (resource_usage_map, _) = by_resource(&graph.net, &transition_usage);
    Solution {
        pi_time,
        transition_usage,
        resource_usage_map,
        iterations,
        residual,
    }
}

/// The per-resource aggregates of `net`'s per-transition usages: each
/// resource label's usage (the sum over its transitions, in transition
/// order) and its minimum transition delay. Every analysis reports these —
/// a raw solve, a de-lumped one, and a DES estimate (whose usages are
/// batch means, so it takes only the delays); a [`Solution`] keeps only
/// the usages.
pub(crate) fn by_resource(
    net: &Net,
    transition_usage: &[f64],
) -> (HashMap<String, f64>, HashMap<String, u64>) {
    let mut usage: HashMap<String, f64> = HashMap::new();
    let mut delay: HashMap<String, u64> = HashMap::new();
    for (t, &u) in net.transitions.iter().zip(transition_usage) {
        if let Some(r) = &t.resource {
            *usage.entry(r.clone()).or_insert(0.0) += u;
            let d = delay.entry(r.clone()).or_insert(t.delay);
            *d = (*d).min(t.delay);
        }
    }
    (usage, delay)
}

/// A resource's completion rate from its usage and (minimum) delay:
/// `usage / delay`, or the usage itself for a zero-delay resource.
pub(crate) fn rate(usage: f64, delay: u64) -> f64 {
    if delay == 0 {
        usage
    } else {
        usage / delay as f64
    }
}

impl Solution {
    /// Time-weighted steady-state probabilities of the tangible states.
    pub fn state_probabilities(&self) -> &[f64] {
        &self.pi_time
    }

    /// Usage (time-weighted mean in-progress count) of a resource label.
    pub fn resource_usage(&self, resource: &str) -> Result<f64, GtpnError> {
        self.resource_usage_map
            .get(resource)
            .copied()
            .ok_or_else(|| GtpnError::UnknownName(resource.to_string()))
    }

    /// Usage of an individual transition.
    pub(crate) fn transition_usage(&self, transition: TransId) -> f64 {
        self.transition_usage
            .get(transition.0)
            .copied()
            .unwrap_or(0.0)
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
        let rate = s.transition_usage(net.transition_by_name("b_exit").unwrap());
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
        assert!(s.iterations() > 0);
        assert!(s.residual() < 1e-13);
    }

    #[test]
    fn unknown_names_error() {
        let mut net = Net::new("u");
        let p = net.add_place("P", 1);
        net.add_transition(Transition::new("t").delay(1).input(p, 1).output(p, 1))
            .unwrap();
        let s = net.reachability(10).unwrap().solve(1e-12, 1000).unwrap();
        assert!(s.resource_usage("nope").is_err());
    }
}

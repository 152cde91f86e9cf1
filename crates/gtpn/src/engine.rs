//! The analysis engine: the one road from a [`Net`] to steady-state numbers.
//!
//! Every model, experiment, sweep point, cross-validation run and bench in
//! this repository obtains its throughput/usage figures through
//! [`AnalysisEngine::analyze`]. The engine owns three concerns the callers
//! used to hand-roll separately:
//!
//! * **Backend selection.** A [`Backend`] turns a net into an
//!   [`AnalysisData`]; two are provided. [`ExactMarkov`] is the paper's
//!   reference pipeline — reachability expansion (memoized by
//!   [`crate::cache`]) followed by the Gauss–Seidel steady-state solve,
//!   with a per-thread [`SolveWorkspace`] kept warm across points. When
//!   the net qualifies for exact lumping ([`crate::lump`]) and the
//!   engine's [`LumpSel`] policy permits, the exact backend builds and
//!   solves the *quotient* chain instead and de-lumps the measures —
//!   identical numbers to solver tolerance, combinatorially fewer
//!   states, so `Auto` falls back to DES only past the lumped budget.
//!   [`DesEstimate`] replaces the exact solve by batched Monte-Carlo runs
//!   of [`crate::sim`] and reports batch-means estimates with 95%
//!   confidence half-widths — usable when the reachability graph is too
//!   large to enumerate. [`BackendSel::Auto`] (the `HSIPC_BACKEND=auto`
//!   default) tries the exact path and falls back to DES exactly when the
//!   state budget is exceeded, which opens the `n > 4` conversation axis
//!   the exact solver cannot reach.
//!
//! * **Canonical solution caching.** Results are cached process-globally,
//!   keyed by `(canonical net fingerprint, backend, solver parameters)`
//!   where the fingerprint comes from [`crate::canonical`] — so two call
//!   sites that build the *same model in different orders* share one
//!   solve. A hit under a permuted build order transparently remaps
//!   [`PlaceId`]/[`TransId`] queries through the composed permutation. Hits
//!   are verified by full structural equality of the canonical forms, so
//!   fingerprint collisions cannot alias distinct nets. The cache is
//!   bounded like the reachability cache — by resident bytes
//!   (`HSIPC_CACHE_MB`) and optionally entry count (`HSIPC_CACHE_CAP`,
//!   `0` disables), see [`crate::cache::CacheLimits`] — with intrusive
//!   LRU eviction that prefers victims from the inserting experiment's
//!   own partition ([`crate::cache::partition_scope`]). It reports the
//!   same counter set via [`cache_stats`].
//!
//! * **Warm starts.** Consecutive points of a sweep differ only in a few
//!   rates, so their embedded chains share a *shape*
//!   ([`ReachabilityGraph::shape_fingerprint`]). A [`WarmStart`] carries
//!   converged embedded distributions across same-shape solves — threaded
//!   explicitly through [`AnalysisEngine::analyze_warm`], or installed
//!   ambiently on a sweep worker via [`warm_point_begin`] — and the next
//!   solve starts its iteration from the neighbor's answer instead of the
//!   uniform vector. Seeding moves the solver's *trajectory*, never its
//!   destination: the stopping rule is unchanged, so a warm solve agrees
//!   with a cold one to solver tolerance (`HSIPC_WARM_START=0` turns the
//!   hand-off off for A/B comparison).
//!
//! * **Determinism.** With lumping off the exact backend is bitwise
//!   identical to calling `net.reachability(budget)?.solve(tol, sweeps)`
//!   directly — a cache miss always solves the *caller's* net, never the
//!   canonical reordering (summation order changes the last ulp). A
//!   lumped solve is itself deterministic (byte-identical across runs,
//!   thread counts and build orders) but agrees with the raw solve to
//!   solver tolerance, not bit-for-bit — which is why the cache key
//!   records whether a result is lumped. DES replication seeds derive
//!   from the canonical fingerprint, so estimates are identical run-to-run
//!   and across build orders, no matter which sweep worker executes them.

use crate::cache::CacheLimits;
use crate::canonical::{self, Canonical};
use crate::error::GtpnError;
use crate::lru::BoundedLru;
use crate::lump::LumpSel;
use crate::net::{Net, PlaceId, TransId};
use crate::par::ParallelBudget;
use crate::reach::ReachabilityGraph;
use crate::sim::{self, ConfidenceInterval, SimOptions};
use crate::solve::{Solution, SolveWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which backend produced (or should produce) an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Exact embedded-Markov-chain solution (reachability + Gauss–Seidel).
    Exact,
    /// Batched discrete-event simulation estimate with confidence intervals.
    Des,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Exact => write!(f, "exact"),
            BackendKind::Des => write!(f, "des"),
        }
    }
}

/// Backend selection policy for an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSel {
    /// Always solve exactly; a too-large state space is an error.
    Exact,
    /// Always estimate by simulation.
    Des,
    /// Solve exactly when the state space fits the budget, otherwise
    /// estimate by simulation — the default.
    Auto,
}

impl BackendSel {
    /// Policy selected by `HSIPC_BACKEND` (`exact`, `des` or `auto`,
    /// case-insensitive); unset or unrecognized values mean [`Auto`].
    ///
    /// [`Auto`]: BackendSel::Auto
    pub fn from_env() -> BackendSel {
        match std::env::var("HSIPC_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("exact") => BackendSel::Exact,
            Ok(v) if v.eq_ignore_ascii_case("des") => BackendSel::Des,
            _ => BackendSel::Auto,
        }
    }
}

/// Options for the DES backend's batched replications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesOptions {
    /// Simulated horizon per replication (net time units).
    pub horizon: u64,
    /// Warm-up discarded per replication.
    pub warmup: u64,
    /// Number of independent replications (>= 2 for a variance).
    pub batches: usize,
}

impl Default for DesOptions {
    fn default() -> Self {
        DesOptions {
            horizon: 400_000,
            warmup: 40_000,
            batches: 4,
        }
    }
}

/// Full configuration of an [`AnalysisEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Backend selection policy.
    pub backend: BackendSel,
    /// Gauss–Seidel convergence tolerance (exact backend).
    pub tolerance: f64,
    /// Gauss–Seidel sweep limit (exact backend).
    pub max_sweeps: usize,
    /// Reachability state budget; `Auto` falls back to DES beyond it.
    pub state_budget: usize,
    /// DES replication options.
    pub des: DesOptions,
    /// Use the red-black ordered solver (exact backend). Results agree
    /// with the default serial sweep to solver tolerance but are not
    /// bit-identical to it, so this is opt-in (`HSIPC_PAR_SOLVE=1` via
    /// [`crate::par::par_solve_enabled`]) and part of the cache key. The
    /// red-black results themselves are independent of thread count.
    pub par_solve: bool,
    /// Seed each solve from a same-shape neighbor's converged solution
    /// when a [`WarmStart`] store is in reach (explicit or ambient); see
    /// the module docs. On by default; `HSIPC_WARM_START=0` disables via
    /// [`warm_start_enabled`] for engines built by
    /// [`from_env`](AnalysisEngine::from_env). Not part of the cache key:
    /// warm and cold solves are interchangeable to solver tolerance.
    pub warm_start: bool,
    /// Exact-lumping policy ([`crate::lump`]): solve the quotient chain
    /// of a qualifying net instead of the raw tangible chain. Default
    /// [`LumpSel::Auto`]; part of the cache key (lumped and raw results
    /// agree to solver tolerance, not bit-for-bit). Engines built by
    /// [`from_env`](AnalysisEngine::from_env) read `HSIPC_LUMP` via
    /// [`LumpSel::from_env`].
    pub lump: LumpSel,
}

impl Default for EngineConfig {
    /// The models' production parameters: tolerance `1e-11`, 400 000-sweep
    /// limit, two-million-state budget, [`DesOptions::default`] and
    /// [`BackendSel::Auto`].
    fn default() -> Self {
        EngineConfig {
            backend: BackendSel::Auto,
            tolerance: 1e-11,
            max_sweeps: 400_000,
            state_budget: 2_000_000,
            des: DesOptions::default(),
            par_solve: false,
            warm_start: true,
            lump: LumpSel::Auto,
        }
    }
}

/// Whether warm starting is enabled by the environment: `HSIPC_WARM_START`
/// set to `0`, `off` or `false` disables it; anything else (including
/// unset) enables it. Read fresh on every call — not latched — so tests
/// and the CI identity legs can flip it within one process.
pub fn warm_start_enabled() -> bool {
    match std::env::var("HSIPC_WARM_START") {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("false")),
        Err(_) => true,
    }
}

/// Shapes retained per [`WarmStart`] store before it resets. A sweep point
/// touches a handful of distinct chain shapes (client net, server net, the
/// architecture's local model); the bound only guards against a pathological
/// caller accumulating unboundedly.
const WARM_MAX_SHAPES: usize = 64;

/// A hand-off store of converged embedded distributions, keyed by chain
/// shape ([`ReachabilityGraph::shape_fingerprint`]).
///
/// Two ways to supply one to the engine:
///
/// * **Explicitly** — create a `WarmStart` per solve *chain* and pass
///   `&mut` to [`AnalysisEngine::analyze_warm`]. The store travels with
///   the computation (e.g. the §6.6.3 fixed point keeps one per model
///   role across its iterations), so results cannot depend on which
///   thread runs it.
/// * **Ambiently** — sweep workers install a thread-local store with
///   [`warm_point_begin`] before evaluating a grid point; plain
///   [`analyze`](AnalysisEngine::analyze) calls then pick it up. Code
///   outside a sweep sees no store and solves cold, exactly as before.
///
/// Solutions of directly solved graphs (≤ the dense-LU cutoff) are not
/// recorded: the LU ignores seeds, so storing them would be dead weight.
#[derive(Debug, Default)]
pub struct WarmStart {
    slots: HashMap<u64, Vec<f64>>,
}

impl WarmStart {
    /// An empty store.
    pub fn new() -> WarmStart {
        WarmStart::default()
    }

    fn get(&self, shape: u64) -> Option<&[f64]> {
        self.slots.get(&shape).map(Vec::as_slice)
    }

    fn put(&mut self, shape: u64, pi: Vec<f64>) {
        if self.slots.len() >= WARM_MAX_SHAPES && !self.slots.contains_key(&shape) {
            self.slots.clear();
        }
        self.slots.insert(shape, pi);
    }
}

thread_local! {
    /// The ambient per-worker store: `(grid-eval token, store)`.
    static AMBIENT_WARM: RefCell<Option<(u64, WarmStart)>> = const { RefCell::new(None) };
}

/// A fresh token identifying one grid evaluation; see [`warm_point_begin`].
pub fn warm_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Installs (or keeps) the calling worker's ambient [`WarmStart`] for the
/// grid evaluation identified by `token`. Called by the sweep layer before
/// each point: the first point a worker takes creates the store, later
/// points on the same worker reuse it — that continuity *is* the warm
/// chain. A store left behind by a different grid eval (stale token) is
/// replaced, never reused across evals.
pub fn warm_point_begin(token: u64) {
    AMBIENT_WARM.with(|cell| {
        let mut cell = cell.borrow_mut();
        match cell.as_ref() {
            Some((t, _)) if *t == token => {}
            _ => *cell = Some((token, WarmStart::new())),
        }
    });
}

/// Drops the calling thread's ambient store if it belongs to `token`.
/// Called by the sweep layer after a grid evaluation returns, so solves
/// outside any sweep never see a leftover store.
pub fn warm_end(token: u64) {
    AMBIENT_WARM.with(|cell| {
        let mut cell = cell.borrow_mut();
        if matches!(cell.as_ref(), Some((t, _)) if *t == token) {
            *cell = None;
        }
    });
}

/// The seed for a solve of `shape` from the explicit store if given, else
/// the ambient one (cloned out so no borrow crosses the solve).
fn warm_seed(warm: Option<&mut WarmStart>, shape: u64) -> Option<Vec<f64>> {
    match warm {
        Some(w) => w.get(shape).map(<[f64]>::to_vec),
        None => AMBIENT_WARM.with(|cell| {
            cell.borrow()
                .as_ref()
                .and_then(|(_, w)| w.get(shape).map(<[f64]>::to_vec))
        }),
    }
}

/// Records a converged distribution into the explicit store if given, else
/// the ambient one (a no-op when neither exists).
fn warm_store(warm: Option<&mut WarmStart>, shape: u64, pi: Vec<f64>) {
    match warm {
        Some(w) => w.put(shape, pi),
        None => AMBIENT_WARM.with(|cell| {
            if let Some((_, w)) = cell.borrow_mut().as_mut() {
                w.put(shape, pi);
            }
        }),
    }
}

/// Where one exact analysis spent its time, stage by stage, and how much
/// work each stage did — the solver's own answer to "which layer moved".
///
/// Seconds are wall-clock around whole stages (a handful of clock reads per
/// analysis, none inside the expansion kernel); counts are exact and repeat
/// from run to run. [`Analysis::stages`] returns the ledger of the run that
/// produced an analysis; [`stage_totals`] sums every exact run of the
/// process (under a parallel sweep that is seconds summed over workers, not
/// elapsed time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageLedger {
    /// Compiling the net for expansion.
    pub net_compile_s: f64,
    /// Breadth-first expansion of the (lumped or raw) chain.
    pub bfs_s: f64,
    /// Steady-state solve of that chain.
    pub solve_s: f64,
    /// Recovering the raw chain's measures from a lumped solution.
    pub delump_s: f64,
    /// States of the solved chain (lumped states for a lumped run).
    pub states: u64,
    /// Edges of the solved chain.
    pub edges: u64,
    /// Gauss–Seidel sweeps (1 for a direct solve).
    pub sweeps: u64,
    /// Instantaneous phases run by the expansion.
    pub phase_calls: u64,
    /// Configurations those phases expanded.
    pub phase_configs: u64,
}

impl StageLedger {
    /// The ledger of one exact run: `graph`'s build record plus the solve
    /// and de-lump stages timed by the caller.
    fn of(graph: &ReachabilityGraph, solution: &Solution, solve_s: f64, delump_s: f64) -> Self {
        StageLedger {
            net_compile_s: graph.build.net_compile_s,
            bfs_s: graph.build.bfs_s,
            solve_s,
            delump_s,
            states: graph.state_count() as u64,
            edges: graph.edge_count() as u64,
            sweeps: solution.iterations() as u64,
            phase_calls: graph.build.phase_calls,
            phase_configs: graph.build.phase_configs,
        }
    }

    fn add(&mut self, other: &StageLedger) {
        self.net_compile_s += other.net_compile_s;
        self.bfs_s += other.bfs_s;
        self.solve_s += other.solve_s;
        self.delump_s += other.delump_s;
        self.states += other.states;
        self.edges += other.edges;
        self.sweeps += other.sweeps;
        self.phase_calls += other.phase_calls;
        self.phase_configs += other.phase_configs;
    }
}

fn stage_totals_cell() -> &'static Mutex<StageLedger> {
    static TOTALS: OnceLock<Mutex<StageLedger>> = OnceLock::new();
    TOTALS.get_or_init(Mutex::default)
}

/// The sum of every exact run's [`StageLedger`] in this process so far —
/// cache hits add nothing, they did no work. Printed by `repro --timing`
/// beside [`cache_stats`].
pub fn stage_totals() -> StageLedger {
    *stage_totals_cell().lock().expect("stage totals poisoned")
}

/// The raw product of one backend run, in the analyzed net's id space.
///
/// Construction is internal to the crate: the two built-in backends fill
/// it, [`Analysis`] reads it. Exact runs carry the reachability graph and
/// [`Solution`] and answer queries through them; DES runs carry averaged
/// per-resource/per-place/per-transition vectors plus half-widths.
#[derive(Debug)]
pub struct AnalysisData {
    backend: BackendKind,
    /// Tangible-state count (0 for DES — nothing was enumerated).
    states: usize,
    /// DES: resource -> mean of batch means.
    resource_usage: HashMap<String, f64>,
    /// DES: resource -> 95% half-width over batch means.
    resource_half_width: HashMap<String, f64>,
    /// DES: resource -> minimum delay among its transitions (for rates).
    resource_delay: HashMap<String, u64>,
    /// DES: per-place time-averaged tokens.
    mean_tokens: Vec<f64>,
    /// DES: per-transition time-averaged in-progress firings.
    transition_usage: Vec<f64>,
    /// Exact: the graph and solution all queries delegate to.
    exact: Option<(Arc<ReachabilityGraph>, Solution)>,
    /// Lumped exact runs: `(iterations, residual)` of the quotient-chain
    /// solve. The de-lumped measures live in the DES-shaped fields above
    /// (they are plain per-name/per-id aggregates; no graph is retained),
    /// but carry no sampling error — `resource_half_width` stays empty.
    lumped: Option<(usize, f64)>,
    /// Exact runs: where the time went.
    stages: Option<StageLedger>,
}

/// The result of [`AnalysisEngine::analyze`]: backend-agnostic access to
/// steady-state measures, cheap to clone and share across sweep workers.
///
/// Ids passed to [`mean_tokens`](Analysis::mean_tokens) /
/// [`transition_usage`](Analysis::transition_usage) are interpreted in the
/// id space of the net the caller passed to `analyze` — when the result
/// was served from cache under a different build order, the stored
/// permutation is applied transparently.
#[derive(Debug, Clone)]
pub struct Analysis {
    data: Arc<AnalysisData>,
    /// `orig place id -> stored id`; `None` = identity.
    place_map: Option<Arc<Vec<usize>>>,
    /// `orig transition id -> stored id`; `None` = identity.
    trans_map: Option<Arc<Vec<usize>>>,
}

impl Analysis {
    fn identity(data: Arc<AnalysisData>) -> Analysis {
        Analysis {
            data,
            place_map: None,
            trans_map: None,
        }
    }

    fn map_place(&self, p: PlaceId) -> PlaceId {
        match &self.place_map {
            Some(m) => PlaceId(m.get(p.0).copied().unwrap_or(p.0)),
            None => p,
        }
    }

    fn map_trans(&self, t: TransId) -> TransId {
        match &self.trans_map {
            Some(m) => TransId(m.get(t.0).copied().unwrap_or(t.0)),
            None => t,
        }
    }

    /// Which backend produced this analysis.
    pub fn backend(&self) -> BackendKind {
        self.data.backend
    }

    /// States enumerated: raw tangible states for an unlumped exact run,
    /// *lumped* states when the quotient chain was solved
    /// ([`lumped`](Analysis::lumped)), 0 when the DES backend ran.
    pub fn states(&self) -> usize {
        self.data.states
    }

    /// Whether this exact analysis solved the lumped quotient chain.
    pub fn lumped(&self) -> bool {
        self.data.lumped.is_some()
    }

    /// Usage (time-weighted mean in-progress count) of a resource label.
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::UnknownName`] for an unknown resource.
    pub fn resource_usage(&self, resource: &str) -> Result<f64, GtpnError> {
        match &self.data.exact {
            Some((_, sol)) => sol.resource_usage(resource),
            None => self
                .data
                .resource_usage
                .get(resource)
                .copied()
                .ok_or_else(|| GtpnError::UnknownName(resource.to_string())),
        }
    }

    /// Completion rate of a resource: `usage / delay` of its transitions
    /// (usage itself for zero-delay resources), as
    /// [`Solution::resource_rate`].
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::UnknownName`] for an unknown resource.
    pub fn resource_rate(&self, resource: &str) -> Result<f64, GtpnError> {
        match &self.data.exact {
            Some((_, sol)) => sol.resource_rate(resource),
            None => {
                let usage = self.resource_usage(resource)?;
                let delay = *self
                    .data
                    .resource_delay
                    .get(resource)
                    .ok_or_else(|| GtpnError::UnknownName(resource.to_string()))?;
                Ok(if delay == 0 {
                    usage
                } else {
                    usage / delay as f64
                })
            }
        }
    }

    /// 95% confidence interval on a resource's usage. `Some` only for DES
    /// analyses — the exact backend's numbers carry no sampling error.
    pub fn resource_interval(&self, resource: &str) -> Option<ConfidenceInterval> {
        if self.data.backend != BackendKind::Des {
            return None;
        }
        Some(ConfidenceInterval {
            estimate: self.data.resource_usage.get(resource).copied()?,
            half_width: self.data.resource_half_width.get(resource).copied()?,
        })
    }

    /// Time-averaged token count of a place (tokens in transit inside
    /// in-progress firings not counted, on either backend).
    pub fn mean_tokens(&self, place: PlaceId) -> f64 {
        let p = self.map_place(place);
        match &self.data.exact {
            Some((graph, sol)) => graph.mean_tokens(sol, p),
            None => self.data.mean_tokens.get(p.0).copied().unwrap_or(0.0),
        }
    }

    /// Usage of an individual transition.
    pub fn transition_usage(&self, transition: TransId) -> f64 {
        let t = self.map_trans(transition);
        match &self.data.exact {
            Some((_, sol)) => sol.transition_usage(t),
            None => self.data.transition_usage.get(t.0).copied().unwrap_or(0.0),
        }
    }

    /// Gauss–Seidel sweeps performed (exact backend only; for a lumped
    /// run, the quotient-chain solve's count).
    pub fn iterations(&self) -> Option<usize> {
        self.data
            .exact
            .as_ref()
            .map(|(_, s)| s.iterations())
            .or(self.data.lumped.map(|(i, _)| i))
    }

    /// Final solver residual (exact backend only; for a lumped run, the
    /// quotient-chain solve's residual).
    pub fn residual(&self) -> Option<f64> {
        self.data
            .exact
            .as_ref()
            .map(|(_, s)| s.residual())
            .or(self.data.lumped.map(|(_, r)| r))
    }

    /// The stage ledger of the exact run that produced this analysis —
    /// for a cache hit, of the run that filled the entry. `None` for DES.
    pub fn stages(&self) -> Option<&StageLedger> {
        self.data.stages.as_ref()
    }

    /// The underlying reachability graph — `Some` only for an unlumped
    /// exact analysis whose state indices are in the caller's own id
    /// space (i.e. not a cache hit served under a permuted build order).
    /// Lumped analyses keep no graph: pin [`LumpSel::Off`] to inspect
    /// raw states.
    pub fn graph(&self) -> Option<&Arc<ReachabilityGraph>> {
        match (&self.data.exact, &self.place_map, &self.trans_map) {
            (Some((g, _)), None, None) => Some(g),
            _ => None,
        }
    }
}

/// A strategy for turning a net into steady-state numbers.
///
/// The two implementations are [`ExactMarkov`] and [`DesEstimate`];
/// [`AnalysisData`] construction is crate-internal, so external backends
/// are not yet pluggable from outside `gtpn` — the trait is the seam
/// future ones (truncated state spaces, red-black solvers) slot into.
pub trait Backend: Sync {
    /// The kind tag this backend caches its results under.
    fn kind(&self) -> BackendKind;
    /// Analyzes `net` under `cfg`, in `net`'s own id space, drawing any
    /// extra worker threads from `par` (see [`ParallelBudget`]); backends
    /// must produce results independent of what the budget grants. `warm`
    /// is the explicit warm-start store, if the caller threads one.
    ///
    /// # Errors
    ///
    /// Backend-specific; see [`Net::reachability`],
    /// [`ReachabilityGraph::solve`] and [`sim::simulate`].
    fn run(
        &self,
        net: &Net,
        cfg: &EngineConfig,
        par: &ParallelBudget,
        warm: Option<&mut WarmStart>,
    ) -> Result<AnalysisData, GtpnError>;
}

thread_local! {
    /// The per-thread scratch workspace every exact solve runs through.
    static WORKSPACE: RefCell<SolveWorkspace> = RefCell::new(SolveWorkspace::new());
}

/// Solves `graph` through the per-thread workspace with the configured
/// solver, warm-seeding from (and storing back to) the caller's or the
/// ambient [`WarmStart`] store. The common trunk of the raw and lumped
/// exact paths.
fn solve_graph(
    graph: &ReachabilityGraph,
    cfg: &EngineConfig,
    par: &ParallelBudget,
    mut warm: Option<&mut WarmStart>,
) -> Result<Solution, GtpnError> {
    let shape = graph.shape_fingerprint();
    let seed = if cfg.warm_start {
        warm_seed(warm.as_deref_mut(), shape)
    } else {
        None
    };
    let solution = WORKSPACE.with(|ws| {
        let mut ws = ws.borrow_mut();
        if cfg.par_solve {
            // Red-black: always when configured (the ordering changes
            // the trajectory, so it must not depend on core
            // availability). The solver claims its worker width from
            // the budget per sweep, widening as pool workers drain.
            Solution::solve_red_black_budgeted(
                graph,
                cfg.tolerance,
                cfg.max_sweeps,
                &mut ws,
                par,
                seed.as_deref(),
            )
        } else {
            Solution::solve_seeded_with(
                graph,
                cfg.tolerance,
                cfg.max_sweeps,
                &mut ws,
                seed.as_deref(),
            )
        }
    })?;
    if cfg.warm_start && graph.state_count() > crate::solve::DIRECT_MAX_STATES {
        warm_store(warm, shape, solution.embedded_probabilities().to_vec());
    }
    Ok(solution)
}

/// The exact pipeline: reachability expansion + Gauss–Seidel, with a warm
/// per-thread [`SolveWorkspace`]. Lumps the chain first when the config's
/// [`LumpSel`] permits and the net qualifies ([`crate::lump::lumpable`]).
#[derive(Debug, Clone, Copy)]
pub struct ExactMarkov {
    /// Whether a raw expansion goes through the process-global
    /// reachability memo ([`crate::cache`]). The engine's cached path
    /// turns this off — its own solution cache already retains the graph
    /// inside the cached [`AnalysisData`], and storing the same `Arc` in
    /// both caches double-counted hundreds of MB against the byte budget
    /// for a memo that never got a lookup.
    pub memoize_graph: bool,
}

impl Default for ExactMarkov {
    /// Memoization on — right for standalone use, where nothing else
    /// retains the expanded graph.
    fn default() -> Self {
        ExactMarkov {
            memoize_graph: true,
        }
    }
}

impl Backend for ExactMarkov {
    fn kind(&self) -> BackendKind {
        BackendKind::Exact
    }

    fn run(
        &self,
        net: &Net,
        cfg: &EngineConfig,
        par: &ParallelBudget,
        warm: Option<&mut WarmStart>,
    ) -> Result<AnalysisData, GtpnError> {
        let record = |stages: StageLedger| {
            stage_totals_cell()
                .lock()
                .expect("stage totals poisoned")
                .add(&stages);
            Some(stages)
        };
        if cfg.lump.enabled() && crate::lump::lumpable(net) {
            let lumped = crate::lump::reach_lumped_budgeted(net, cfg.state_budget, par)?;
            let built = Instant::now();
            let solution = solve_graph(&lumped.graph, cfg, par, warm)?;
            let solved = Instant::now();
            let d = lumped.delump(&solution);
            let stages = StageLedger::of(
                &lumped.graph,
                &solution,
                (solved - built).as_secs_f64(),
                solved.elapsed().as_secs_f64(),
            );
            return Ok(AnalysisData {
                backend: BackendKind::Exact,
                states: lumped.graph.state_count(),
                resource_usage: d.resource_usage,
                resource_half_width: HashMap::new(),
                resource_delay: d.resource_delay,
                mean_tokens: d.mean_tokens,
                transition_usage: d.transition_usage,
                exact: None,
                lumped: Some((solution.iterations(), solution.residual())),
                stages: record(stages),
            });
        }
        let graph = if self.memoize_graph {
            crate::cache::reachability_budgeted(net, cfg.state_budget, par)?
        } else {
            Arc::new(net.reachability_budgeted(cfg.state_budget, par)?)
        };
        let built = Instant::now();
        let solution = solve_graph(&graph, cfg, par, warm)?;
        let stages = StageLedger::of(&graph, &solution, built.elapsed().as_secs_f64(), 0.0);
        Ok(AnalysisData {
            backend: BackendKind::Exact,
            states: graph.state_count(),
            resource_usage: HashMap::new(),
            resource_half_width: HashMap::new(),
            resource_delay: HashMap::new(),
            mean_tokens: Vec::new(),
            transition_usage: Vec::new(),
            exact: Some((graph, solution)),
            lumped: None,
            stages: record(stages),
        })
    }
}

/// The simulation backend: `batches` independent replications of
/// [`sim::simulate`], combined into batch-means estimates with 95%
/// half-widths. Replication seeds derive from the canonical net
/// fingerprint, so the estimate is a pure function of the model — stable
/// across runs, build orders and sweep-worker schedules.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesEstimate;

impl Backend for DesEstimate {
    fn kind(&self) -> BackendKind {
        BackendKind::Des
    }

    fn run(
        &self,
        net: &Net,
        cfg: &EngineConfig,
        _par: &ParallelBudget,
        _warm: Option<&mut WarmStart>,
    ) -> Result<AnalysisData, GtpnError> {
        net.validate()?;
        let batches = cfg.des.batches.max(2);
        let opts = SimOptions {
            horizon: cfg.des.horizon,
            warmup: cfg.des.warmup,
        };
        // Simulate the *canonical* net: the sampled trajectory depends on
        // transition iteration order, so running the caller's ordering
        // would make the estimate depend on build order even with
        // identical seeds. Per-id vectors are mapped back afterwards.
        let canon = canonical::canonicalize(net);
        let fp = canonical::fingerprint_canonical(&canon.net);
        let resources: Vec<String> = net.resources().iter().map(|r| r.to_string()).collect();
        let mut batch_usage: Vec<Vec<f64>> = vec![Vec::with_capacity(batches); resources.len()];
        let mut canon_tokens = vec![0.0f64; net.place_count()];
        let mut canon_usage = vec![0.0f64; net.transition_count()];
        for b in 0..batches {
            let seed = splitmix64(fp ^ splitmix64(b as u64 + 1));
            let mut rng = StdRng::seed_from_u64(seed);
            let result = sim::simulate(&canon.net, &opts, &mut rng)?;
            for (ri, name) in resources.iter().enumerate() {
                batch_usage[ri].push(result.resource_usage(name)?);
            }
            for (acc, v) in canon_tokens.iter_mut().zip(&result.mean_tokens) {
                *acc += v;
            }
            for (acc, v) in canon_usage.iter_mut().zip(&result.transition_usage) {
                *acc += v;
            }
        }
        let n = batches as f64;
        let mean_tokens: Vec<f64> = canon
            .place_map
            .iter()
            .map(|&c| canon_tokens[c] / n)
            .collect();
        let transition_usage: Vec<f64> = canon
            .trans_map
            .iter()
            .map(|&c| canon_usage[c] / n)
            .collect();
        let mut resource_usage = HashMap::new();
        let mut resource_half_width = HashMap::new();
        for (name, means) in resources.iter().zip(&batch_usage) {
            let mean = means.iter().sum::<f64>() / n;
            let var = means.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / (n - 1.0);
            // Same mildly conservative small-batch constant as
            // `sim::confidence_interval`.
            resource_usage.insert(name.clone(), mean);
            resource_half_width.insert(name.clone(), 2.1 * (var / n).sqrt());
        }
        let mut resource_delay = HashMap::new();
        for t in &net.transitions {
            if let Some(r) = &t.resource {
                let d = resource_delay.entry(r.clone()).or_insert(t.delay);
                *d = (*d).min(t.delay);
            }
        }
        Ok(AnalysisData {
            backend: BackendKind::Des,
            states: 0,
            resource_usage,
            resource_half_width,
            resource_delay,
            mean_tokens,
            transition_usage,
            exact: None,
            lumped: None,
            stages: None,
        })
    }
}

/// SplitMix64 scramble — the seed spacing for DES replications.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// The process-global solution cache.
// ---------------------------------------------------------------------------

/// Cache key: canonical fingerprint, backend kind, solver-parameter hash.
type CacheKey = (u64, BackendKind, u64);

#[derive(Debug)]
struct CacheEntry {
    /// Canonical form, for equality verification of candidate hits.
    canonical: Net,
    /// `canonical place id -> stored (analyzed net's) place id`.
    place_from_canon: Vec<usize>,
    /// `canonical transition id -> stored transition id`.
    trans_from_canon: Vec<usize>,
    data: Arc<AnalysisData>,
}

/// Estimated resident bytes of a cache entry: graph + solution vectors for
/// exact results, the averaged per-name/per-id vectors for DES, plus the
/// canonical net kept for hit verification. The reachability graph `Arc`
/// is usually shared with [`crate::cache`]; counting it in both caches is
/// a deliberate overestimate — the bound stays safe if either cache drops
/// its copy first.
fn entry_bytes(e: &CacheEntry) -> usize {
    let data = match &e.data.exact {
        // Solution: state + embedded probabilities and per-resource maps,
        // ~48 bytes per state dominated by the two f64 vectors.
        Some((graph, _)) => graph.resident_bytes() + 48 * graph.state_count(),
        None => {
            64 * (e.data.resource_usage.len()
                + e.data.resource_half_width.len()
                + e.data.resource_delay.len())
                + 8 * (e.data.mean_tokens.len() + e.data.transition_usage.len())
        }
    };
    data + crate::cache::net_bytes(&e.canonical)
        + 8 * (e.place_from_canon.len() + e.trans_from_canon.len())
        + 128
}

#[derive(Debug)]
struct EngineCache {
    /// key → slot indices in `lru` (a chain: distinct nets can share a
    /// fingerprint).
    map: HashMap<CacheKey, Vec<usize>>,
    lru: BoundedLru<(CacheKey, CacheEntry)>,
    limits: CacheLimits,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Results recomputed by a racing worker and dropped at insert because
    /// an equal entry had landed first.
    dedup_drops: u64,
}

impl EngineCache {
    fn new(limits: CacheLimits) -> EngineCache {
        EngineCache {
            map: HashMap::new(),
            lru: BoundedLru::new(),
            limits,
            hits: 0,
            misses: 0,
            evictions: 0,
            dedup_drops: 0,
        }
    }

    fn disabled(&self) -> bool {
        self.limits.max_entries == 0 || self.limits.max_bytes == 0
    }

    /// Evicts one entry — the least-recent of the current partition if it
    /// has any, else the global least-recent. False when already empty.
    fn evict_one(&mut self) -> bool {
        let Some(idx) = self.lru.victim(crate::cache::current_partition()) else {
            return false;
        };
        let (key, _) = self.lru.remove(idx);
        if let Some(chain) = self.map.get_mut(&key) {
            chain.retain(|&i| i != idx);
            if chain.is_empty() {
                self.map.remove(&key);
            }
        }
        self.evictions += 1;
        true
    }

    fn stats(&self) -> crate::cache::CacheStats {
        crate::cache::CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            dedup_drops: self.dedup_drops,
            entries: self.lru.len(),
            bytes: self.lru.bytes(),
        }
    }
}

fn engine_cache() -> &'static Mutex<EngineCache> {
    static CACHE: OnceLock<Mutex<EngineCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(EngineCache::new(CacheLimits::from_env())))
}

/// Current statistics of the global engine solution cache — the same
/// counter set as [`crate::cache::stats`].
pub fn cache_stats() -> crate::cache::CacheStats {
    engine_cache()
        .lock()
        .expect("engine cache poisoned")
        .stats()
}

/// Empties the global engine cache (counters included) — test isolation.
/// The cache is reconstructed, so `HSIPC_CACHE_CAP`/`HSIPC_CACHE_MB` are
/// re-read: setting them after this call takes effect.
pub fn clear_cache() {
    let mut c = engine_cache().lock().expect("engine cache poisoned");
    *c = EngineCache::new(CacheLimits::from_env());
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

/// The pluggable analysis engine; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct AnalysisEngine {
    cfg: EngineConfig,
    /// Core budget for the backends' inner parallelism; `None` means the
    /// process-global budget ([`ParallelBudget::global`]).
    budget: Option<Arc<ParallelBudget>>,
    /// Solution cache; `None` means the process-global one.
    cache: Option<Arc<Mutex<EngineCache>>>,
}

impl AnalysisEngine {
    /// An engine with an explicit configuration.
    pub fn new(cfg: EngineConfig) -> AnalysisEngine {
        AnalysisEngine {
            cfg,
            budget: None,
            cache: None,
        }
    }

    /// The default configuration with the backend policy taken from
    /// `HSIPC_BACKEND` ([`BackendSel::from_env`]), the red-black solver
    /// opt-in from `HSIPC_PAR_SOLVE` ([`crate::par::par_solve_enabled`])
    /// and the lumping policy from `HSIPC_LUMP` ([`LumpSel::from_env`]).
    pub fn from_env() -> AnalysisEngine {
        AnalysisEngine::new(EngineConfig {
            backend: BackendSel::from_env(),
            par_solve: crate::par::par_solve_enabled(),
            warm_start: warm_start_enabled(),
            lump: LumpSel::from_env(),
            ..EngineConfig::default()
        })
    }

    /// This engine with a dedicated core budget. Nested solvers (the
    /// §6.6.3 fixed point, tests pinning parallelism) share one budget
    /// across their engines instead of drawing on the global one.
    pub fn with_budget(mut self, budget: Arc<ParallelBudget>) -> AnalysisEngine {
        self.budget = Some(budget);
        self
    }

    /// This engine with a private solution cache of `cap` entries (`0`
    /// disables caching for this engine), byte-bounded by the same
    /// `HSIPC_CACHE_MB` budget as the global cache. Results no longer flow
    /// through — or count against — the process-global LRU: tests get
    /// isolation without serializing on the global counters, and nested
    /// fixed-point solves stop evicting the outer sweep's hot entries.
    pub fn with_cache(mut self, cap: usize) -> AnalysisEngine {
        self.cache = Some(Arc::new(Mutex::new(EngineCache::new(
            CacheLimits::with_entry_cap(cap),
        ))));
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The core budget the engine's backends draw extra threads from.
    pub fn budget(&self) -> &ParallelBudget {
        match &self.budget {
            Some(b) => b,
            None => ParallelBudget::global(),
        }
    }

    /// A clone of the budget handle, for passing to sibling engines.
    pub fn budget_handle(&self) -> Option<Arc<ParallelBudget>> {
        self.budget.clone()
    }

    /// The solution cache this engine reads and writes.
    fn cache_mutex(&self) -> &Mutex<EngineCache> {
        match &self.cache {
            Some(c) => c,
            None => engine_cache(),
        }
    }

    /// Statistics of the cache this engine uses (the global one unless
    /// [`with_cache`](Self::with_cache) was applied).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache_mutex()
            .lock()
            .expect("engine cache poisoned")
            .stats()
    }

    /// Hash of the parameters that determine a backend's result, beyond
    /// the net itself — part of the cache key so engines with different
    /// settings never alias. The DES hash includes the state budget so an
    /// `Auto` fallback result is only reused by engines that would have
    /// fallen back at the same point. `lumped` is whether the exact
    /// backend would solve the quotient chain for this net (a property of
    /// net and policy together, computed by [`effective_lump`]): lumped
    /// and raw solves agree to solver tolerance, not bit-for-bit, and
    /// their `states` counts mean different things, so they never alias —
    /// while any two engines that both lump share hits for every
    /// client-permutation of a net through the canonical fingerprint.
    ///
    /// [`effective_lump`]: AnalysisEngine::effective_lump
    fn params_hash(&self, kind: BackendKind, lumped: bool) -> u64 {
        let mut h = DefaultHasher::new();
        match kind {
            BackendKind::Exact => {
                self.cfg.tolerance.to_bits().hash(&mut h);
                self.cfg.max_sweeps.hash(&mut h);
                // The red-black solver converges to slightly different
                // bits, so its results must never alias the serial ones.
                self.cfg.par_solve.hash(&mut h);
                lumped.hash(&mut h);
            }
            BackendKind::Des => {
                self.cfg.des.horizon.hash(&mut h);
                self.cfg.des.warmup.hash(&mut h);
                self.cfg.des.batches.hash(&mut h);
                self.cfg.state_budget.hash(&mut h);
            }
        }
        h.finish()
    }

    /// Whether an exact run of `canon`'s net would solve the lumped
    /// chain under this engine's policy. [`crate::lump::lumpable`] is
    /// permutation-invariant, so probing on the canonical net answers
    /// for the caller's build order too.
    fn effective_lump(&self, kind: BackendKind, canon: &Canonical) -> bool {
        kind == BackendKind::Exact && self.cfg.lump.enabled() && crate::lump::lumpable(&canon.net)
    }

    /// The slot index of a verified hit for `key` under this engine's
    /// state budget, if any. Caller holds the lock.
    fn find_slot(
        c: &EngineCache,
        key: &CacheKey,
        budget: usize,
        canon: &Canonical,
    ) -> Option<usize> {
        let kind = key.1;
        c.map.get(key)?.iter().copied().find(|&i| {
            let (_, e) = c.lru.get(i);
            (kind != BackendKind::Exact || e.data.states <= budget) && e.canonical == canon.net
        })
    }

    /// Looks for a verified cache hit, composing the id permutation when
    /// the stored analysis came from a different build order.
    fn probe(&self, kind: BackendKind, canon: &Canonical, fp: u64) -> Option<Analysis> {
        let key = (
            fp,
            kind,
            self.params_hash(kind, self.effective_lump(kind, canon)),
        );
        let mut c = self.cache_mutex().lock().expect("engine cache poisoned");
        let idx = Self::find_slot(&c, &key, self.cfg.state_budget, canon)?;
        c.lru.touch(idx);
        let (_, entry) = c.lru.get(idx);
        let place_map = compose(&canon.place_map, &entry.place_from_canon);
        let trans_map = compose(&canon.trans_map, &entry.trans_from_canon);
        let analysis = Analysis {
            data: Arc::clone(&entry.data),
            place_map: place_map.map(Arc::new),
            trans_map: trans_map.map(Arc::new),
        };
        c.hits += 1;
        Some(analysis)
    }

    /// Inserts a freshly computed analysis, evicting entries (preferring
    /// the current partition's) until both the entry and the byte bounds
    /// hold. A racing insert of the same net is dropped, not duplicated —
    /// the old chain `push` could stack several copies of one solution
    /// when sweep workers missed simultaneously.
    fn insert(&self, kind: BackendKind, canon: &Canonical, fp: u64, data: &Arc<AnalysisData>) {
        let key = (
            fp,
            kind,
            self.params_hash(kind, self.effective_lump(kind, canon)),
        );
        let mut c = self.cache_mutex().lock().expect("engine cache poisoned");
        if c.disabled() {
            return;
        }
        if let Some(idx) = Self::find_slot(&c, &key, usize::MAX, canon) {
            c.dedup_drops += 1;
            c.lru.touch(idx);
            return;
        }
        let entry = CacheEntry {
            canonical: canon.net.clone(),
            place_from_canon: invert(&canon.place_map),
            trans_from_canon: invert(&canon.trans_map),
            data: Arc::clone(data),
        };
        let bytes = entry_bytes(&entry);
        if bytes > c.limits.max_bytes {
            // Larger than the whole budget: caching it would wipe the
            // cache and still not fit.
            return;
        }
        while c.lru.len() >= c.limits.max_entries || c.lru.bytes() + bytes > c.limits.max_bytes {
            if !c.evict_one() {
                break;
            }
        }
        let idx = c
            .lru
            .insert((key, entry), bytes, crate::cache::current_partition());
        c.map.entry(key).or_default().push(idx);
    }

    /// Runs `backend` on the original net (cache-bypassing core; the miss
    /// is counted by the caller).
    fn run_fresh(
        &self,
        backend: &dyn Backend,
        net: &Net,
        warm: Option<&mut WarmStart>,
    ) -> Result<Arc<AnalysisData>, GtpnError> {
        backend
            .run(net, &self.cfg, self.budget(), warm)
            .map(Arc::new)
    }

    /// Counts a miss on this engine's cache.
    fn count_miss(&self) {
        self.cache_mutex()
            .lock()
            .expect("engine cache poisoned")
            .misses += 1;
    }

    /// Analyzes `net` under the engine's policy; see the module docs.
    ///
    /// # Errors
    ///
    /// Those of the selected backend. Under [`BackendSel::Auto`],
    /// [`GtpnError::StateSpaceExceeded`] from the exact path triggers the
    /// DES fallback instead of being returned.
    pub fn analyze(&self, net: &Net) -> Result<Analysis, GtpnError> {
        self.analyze_warm(net, None)
    }

    /// As [`analyze`](Self::analyze), threading an explicit [`WarmStart`]
    /// store through to the exact backend. The store travels with the
    /// caller's computation (not with whichever thread runs it), so
    /// chained solves stay bit-identical regardless of core budgets.
    ///
    /// # Errors
    ///
    /// As [`analyze`](Self::analyze).
    pub fn analyze_warm(
        &self,
        net: &Net,
        mut warm: Option<&mut WarmStart>,
    ) -> Result<Analysis, GtpnError> {
        let cache_off = {
            let c = self.cache_mutex().lock().expect("engine cache poisoned");
            c.disabled()
        };
        if cache_off {
            self.count_miss();
            // No solution cache retains the graph here, so the raw
            // expansion is worth memoizing in the global reachability
            // cache.
            let exact = ExactMarkov::default();
            return match self.cfg.backend {
                BackendSel::Exact => self.run_fresh(&exact, net, warm).map(Analysis::identity),
                BackendSel::Des => self
                    .run_fresh(&DesEstimate, net, None)
                    .map(Analysis::identity),
                BackendSel::Auto => match self.run_fresh(&exact, net, warm.as_deref_mut()) {
                    Err(GtpnError::StateSpaceExceeded { .. }) => {
                        self.count_miss();
                        self.run_fresh(&DesEstimate, net, None)
                            .map(Analysis::identity)
                    }
                    other => other.map(Analysis::identity),
                },
            };
        }

        let canon = canonical::canonicalize(net);
        let fp = canonical::fingerprint_canonical(&canon.net);
        let solve_cached =
            |backend: &dyn Backend, warm: Option<&mut WarmStart>| -> Result<Analysis, GtpnError> {
                self.count_miss();
                let data = self.run_fresh(backend, net, warm)?;
                self.insert(backend.kind(), &canon, fp, &data);
                Ok(Analysis::identity(data))
            };
        // The solution cache about to hold the result already keeps the
        // graph alive inside its `AnalysisData`; memoizing the expansion
        // again in the global reachability cache would only double-count
        // its bytes (the dead-cache regression BENCH_solver.json caught).
        let exact = ExactMarkov {
            memoize_graph: false,
        };
        match self.cfg.backend {
            BackendSel::Exact => match self.probe(BackendKind::Exact, &canon, fp) {
                Some(hit) => Ok(hit),
                None => solve_cached(&exact, warm),
            },
            BackendSel::Des => match self.probe(BackendKind::Des, &canon, fp) {
                Some(hit) => Ok(hit),
                None => solve_cached(&DesEstimate, None),
            },
            BackendSel::Auto => {
                if let Some(hit) = self.probe(BackendKind::Exact, &canon, fp) {
                    return Ok(hit);
                }
                if let Some(hit) = self.probe(BackendKind::Des, &canon, fp) {
                    return Ok(hit);
                }
                match solve_cached(&exact, warm) {
                    Err(GtpnError::StateSpaceExceeded { .. }) => solve_cached(&DesEstimate, None),
                    other => other,
                }
            }
        }
    }
}

/// `orig -> canon` composed with `canon -> stored`; `None` when the
/// composition is the identity (the common same-build-order case).
fn compose(to_canon: &[usize], from_canon: &[usize]) -> Option<Vec<usize>> {
    let composed: Vec<usize> = to_canon.iter().map(|&c| from_canon[c]).collect();
    if composed.iter().enumerate().all(|(i, &v)| i == v) {
        None
    } else {
        Some(composed)
    }
}

/// Inverts a permutation given as `orig -> canon`.
fn invert(map: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; map.len()];
    for (orig, &canon) in map.iter().enumerate() {
        inv[canon] = orig;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::net::Transition;

    /// Geometric stage ring with mean `m`; exact usage of "lambda" = 1/m.
    fn geo(m: f64) -> Net {
        let mut net = Net::new("geo");
        let p = net.add_place("P", 1);
        let q = net.add_place("Q", 0);
        net.add_transition(
            Transition::new("exit")
                .delay(1)
                .frequency(Expr::constant(1.0 / m))
                .resource("lambda")
                .input(p, 1)
                .output(q, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("loop")
                .delay(1)
                .frequency(Expr::constant(1.0 - 1.0 / m))
                .input(p, 1)
                .output(p, 1),
        )
        .unwrap();
        net.add_transition(Transition::new("recycle").delay(0).input(q, 1).output(p, 1))
            .unwrap();
        net
    }

    /// The same net as `geo`, places and transitions added in reverse.
    fn geo_reversed(m: f64) -> Net {
        let mut net = Net::new("geo");
        let q = net.add_place("Q", 0);
        let p = net.add_place("P", 1);
        net.add_transition(Transition::new("recycle").delay(0).input(q, 1).output(p, 1))
            .unwrap();
        net.add_transition(
            Transition::new("loop")
                .delay(1)
                .frequency(Expr::constant(1.0 - 1.0 / m))
                .input(p, 1)
                .output(p, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("exit")
                .delay(1)
                .frequency(Expr::constant(1.0 / m))
                .resource("lambda")
                .input(p, 1)
                .output(q, 1),
        )
        .unwrap();
        net
    }

    fn exact_engine() -> AnalysisEngine {
        AnalysisEngine::new(EngineConfig {
            backend: BackendSel::Exact,
            tolerance: 1e-12,
            max_sweeps: 100_000,
            state_budget: 1_000,
            // These tests assert raw-chain behavior (bitwise identity to
            // a direct solve, graph access); lumping is covered by its
            // own tests below.
            lump: LumpSel::Off,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn exact_backend_is_bitwise_identical_to_direct_solve() {
        let _gate = crate::test_serial();
        clear_cache();
        let net = geo(10.0);
        let direct = net
            .reachability(1_000)
            .unwrap()
            .solve(1e-12, 100_000)
            .unwrap()
            .resource_usage("lambda")
            .unwrap();
        let a = exact_engine().analyze(&net).unwrap();
        assert_eq!(a.backend(), BackendKind::Exact);
        assert_eq!(
            a.resource_usage("lambda").unwrap().to_bits(),
            direct.to_bits()
        );
        assert!(a.iterations().unwrap() > 0);
        assert!(a.residual().unwrap() < 1e-12);
        assert!(a.graph().is_some());
        assert!(a.resource_interval("lambda").is_none());
    }

    #[test]
    fn permuted_build_order_hits_the_cache() {
        let _gate = crate::test_serial();
        clear_cache();
        let engine = exact_engine();
        let first = engine.analyze(&geo(7.0)).unwrap();
        let before = cache_stats();
        let second = engine.analyze(&geo_reversed(7.0)).unwrap();
        let after = cache_stats();
        assert_eq!(after.hits, before.hits + 1, "permuted net must cache-hit");
        assert_eq!(after.misses, before.misses);
        assert_eq!(
            first.resource_usage("lambda").unwrap().to_bits(),
            second.resource_usage("lambda").unwrap().to_bits()
        );
        // Id queries resolve through the composed permutation: place "P"
        // is id 1 in the reversed net, id 0 in the original.
        let reversed = geo_reversed(7.0);
        let p_rev = reversed.place_by_name("P").unwrap();
        let p_orig = geo(7.0).place_by_name("P").unwrap();
        assert_ne!(p_rev, p_orig, "permutation test needs differing ids");
        let direct = first.mean_tokens(p_orig);
        assert!(
            (second.mean_tokens(p_rev) - direct).abs() < 1e-12,
            "remapped mean_tokens must match"
        );
        // A remapped hit exposes no graph (its indices are foreign).
        assert!(second.graph().is_none());
        // Transition queries remap too.
        let t_rev = reversed.transition_by_name("exit").unwrap();
        assert!(second.transition_usage(t_rev) > 0.0);
    }

    #[test]
    fn auto_switches_to_des_exactly_at_the_state_budget() {
        let _gate = crate::test_serial();
        clear_cache();
        let net = geo(6.0);
        let states = net.reachability(1_000).unwrap().state_count();
        let mk = |budget: usize| {
            AnalysisEngine::new(EngineConfig {
                backend: BackendSel::Auto,
                tolerance: 1e-12,
                max_sweeps: 100_000,
                state_budget: budget,
                des: DesOptions {
                    horizon: 60_000,
                    warmup: 6_000,
                    batches: 3,
                },
                par_solve: false,
                warm_start: true,
                // The budget boundary below is stated in *raw* states.
                lump: LumpSel::Off,
            })
        };
        // Budget exactly at the state count: exact backend.
        let at = mk(states).analyze(&net).unwrap();
        assert_eq!(at.backend(), BackendKind::Exact);
        assert_eq!(at.states(), states);
        // One state less: DES fallback, with a confidence interval.
        let below = mk(states - 1).analyze(&net).unwrap();
        assert_eq!(below.backend(), BackendKind::Des);
        let ci = below.resource_interval("lambda").expect("DES has a CI");
        assert!(ci.half_width >= 0.0);
        assert!(
            (ci.estimate - 1.0 / 6.0).abs() < 0.02,
            "DES estimate {} far from exact {}",
            ci.estimate,
            1.0 / 6.0
        );
        // The fallback result is cached: a second call is a hit.
        let before = cache_stats();
        let again = mk(states - 1).analyze(&net).unwrap();
        assert_eq!(again.backend(), BackendKind::Des);
        assert_eq!(cache_stats().hits, before.hits + 1);
    }

    #[test]
    fn des_estimates_are_deterministic_across_build_orders() {
        let _gate = crate::test_serial();
        clear_cache();
        let engine = AnalysisEngine::new(EngineConfig {
            backend: BackendSel::Des,
            des: DesOptions {
                horizon: 60_000,
                warmup: 6_000,
                batches: 3,
            },
            ..EngineConfig::default()
        });
        let a = engine.analyze(&geo(9.0)).unwrap();
        clear_cache(); // force a fresh DES run for the permuted build
        let b = engine.analyze(&geo_reversed(9.0)).unwrap();
        assert_eq!(
            a.resource_usage("lambda").unwrap().to_bits(),
            b.resource_usage("lambda").unwrap().to_bits(),
            "canonical seeding must make DES order-invariant"
        );
    }

    #[test]
    fn distinct_configs_do_not_alias() {
        let _gate = crate::test_serial();
        clear_cache();
        let net = geo(5.0);
        let a = exact_engine().analyze(&net).unwrap();
        let tighter = AnalysisEngine::new(EngineConfig {
            tolerance: 1e-13,
            ..exact_engine().config().clone()
        });
        let before = cache_stats();
        let b = tighter.analyze(&net).unwrap();
        let after = cache_stats();
        assert_eq!(
            after.misses,
            before.misses + 1,
            "tolerance is part of the key"
        );
        assert!(a.resource_usage("lambda").is_ok() && b.resource_usage("lambda").is_ok());
    }

    #[test]
    fn par_solve_agrees_with_serial_and_keys_separately() {
        let _gate = crate::test_serial();
        clear_cache();
        let net = geo(10.0);
        let serial = exact_engine().analyze(&net).unwrap();
        let rb_engine = AnalysisEngine::new(EngineConfig {
            par_solve: true,
            ..exact_engine().config().clone()
        });
        let before = cache_stats();
        let rb = rb_engine.analyze(&net).unwrap();
        assert_eq!(
            cache_stats().misses,
            before.misses + 1,
            "par_solve must be part of the cache key"
        );
        let a = serial.resource_usage("lambda").unwrap();
        let b = rb.resource_usage("lambda").unwrap();
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }

    #[test]
    fn private_cache_is_isolated_from_the_global_one() {
        let _gate = crate::test_serial();
        clear_cache();
        let engine = exact_engine().with_cache(8);
        let net = geo(11.0);
        let global_before = cache_stats();
        engine.analyze(&net).unwrap();
        engine.analyze(&net).unwrap();
        let s = engine.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        let global_after = cache_stats();
        assert_eq!(global_after.hits, global_before.hits);
        assert_eq!(global_after.misses, global_before.misses);
        // Capacity 0 disables caching for this engine alone.
        let off = exact_engine().with_cache(0);
        off.analyze(&net).unwrap();
        off.analyze(&net).unwrap();
        let s = off.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
        assert_eq!(cache_stats().misses, global_after.misses);
    }

    #[test]
    fn backend_sel_env_parsing_defaults_to_auto() {
        // Never mutates the environment: only asserts the fallback.
        assert_eq!(BackendSel::from_env(), BackendSel::Auto);
    }

    /// Two clients cycling through two geometric stages (A → B → A, mean
    /// `m` each) — symmetric and delay-homogeneous, so it lumps, and
    /// distinct in-progress multisets share post-completion markings, so
    /// the quotient chain is *strictly* smaller (10 raw states vs 3).
    fn sym2(m: f64) -> Net {
        let mut net = Net::new("sym2");
        let a = net.add_place("A", 2);
        let b = net.add_place("B", 0);
        net.add_transition(
            Transition::new("exitA")
                .delay(1)
                .frequency(Expr::constant(1.0 / m))
                .resource("lambda")
                .input(a, 1)
                .output(b, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("loopA")
                .delay(1)
                .frequency(Expr::constant(1.0 - 1.0 / m))
                .input(a, 1)
                .output(a, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("exitB")
                .delay(1)
                .frequency(Expr::constant(1.0 / m))
                .input(b, 1)
                .output(a, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("loopB")
                .delay(1)
                .frequency(Expr::constant(1.0 - 1.0 / m))
                .input(b, 1)
                .output(b, 1),
        )
        .unwrap();
        net
    }

    fn lump_engine(lump: LumpSel) -> AnalysisEngine {
        AnalysisEngine::new(EngineConfig {
            backend: BackendSel::Exact,
            tolerance: 1e-12,
            max_sweeps: 100_000,
            state_budget: 10_000,
            lump,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn lumped_engine_agrees_with_raw_and_shrinks_the_chain() {
        let _gate = crate::test_serial();
        clear_cache();
        let net = sym2(6.0);
        let raw = lump_engine(LumpSel::Off).analyze(&net).unwrap();
        let lumped = lump_engine(LumpSel::Auto).analyze(&net).unwrap();
        assert!(!raw.lumped() && lumped.lumped());
        assert_eq!(lumped.backend(), BackendKind::Exact);
        assert!(
            lumped.states() < raw.states(),
            "quotient chain ({}) not smaller than raw ({})",
            lumped.states(),
            raw.states()
        );
        let a = raw.resource_usage("lambda").unwrap();
        let b = lumped.resource_usage("lambda").unwrap();
        assert!((a - b).abs() < 1e-10, "usage {a} vs lumped {b}");
        let ra = raw.resource_rate("lambda").unwrap();
        let rb = lumped.resource_rate("lambda").unwrap();
        assert!((ra - rb).abs() < 1e-10, "rate {ra} vs lumped {rb}");
        for pl in 0..net.place_count() {
            let id = PlaceId(pl);
            assert!(
                (raw.mean_tokens(id) - lumped.mean_tokens(id)).abs() < 1e-10,
                "place {pl} tokens diverged"
            );
        }
        for t in 0..net.transition_count() {
            let id = TransId(t);
            assert!(
                (raw.transition_usage(id) - lumped.transition_usage(id)).abs() < 1e-10,
                "transition {t} usage diverged"
            );
        }
        // A lumped run keeps no raw graph but still reports its solve.
        assert!(lumped.graph().is_none() && raw.graph().is_some());
        assert!(lumped.iterations().unwrap() > 0);
        assert!(lumped.residual().unwrap() < 1e-12);
        assert!(lumped.resource_interval("lambda").is_none());
        // An unknown resource errors on both paths.
        assert!(lumped.resource_usage("nope").is_err());
    }

    /// Every exact analysis carries the ledger of the run that produced
    /// it — counts equal to what the analysis itself reports — a cache hit
    /// hands back the filling run's ledger unchanged and adds nothing to
    /// the process totals, and a DES estimate has none.
    #[test]
    fn stage_ledger_travels_with_the_analysis() {
        let _gate = crate::test_serial();
        let net = sym2(8.0);
        for lump in [LumpSel::On, LumpSel::Off] {
            let engine = lump_engine(lump).with_cache(8);
            let before = stage_totals();
            let fresh = engine.analyze(&net).unwrap();
            let ledger = *fresh.stages().expect("exact runs keep a ledger");
            assert_eq!(ledger.states, fresh.states() as u64);
            assert_eq!(ledger.sweeps, fresh.iterations().unwrap() as u64);
            assert!(ledger.edges >= ledger.states);
            // One phase per lumped state; the raw build adds the initial one.
            let initial_phase = u64::from(lump == LumpSel::Off);
            assert_eq!(ledger.phase_calls, ledger.states + initial_phase);
            assert!(ledger.phase_configs > ledger.phase_calls);
            assert!(ledger.bfs_s > 0.0 && ledger.solve_s > 0.0);
            assert_eq!(ledger.delump_s > 0.0, lump == LumpSel::On);
            let after = stage_totals();
            assert!(after.phase_configs >= before.phase_configs + ledger.phase_configs);
            assert!(after.bfs_s >= before.bfs_s + ledger.bfs_s);

            let hit = engine.analyze(&net).unwrap();
            assert_eq!(engine.cache_stats().hits, 1);
            assert_eq!(hit.stages(), Some(&ledger));
        }
        let des = AnalysisEngine::new(EngineConfig {
            backend: BackendSel::Des,
            des: DesOptions {
                horizon: 20_000,
                warmup: 2_000,
                batches: 2,
            },
            ..EngineConfig::default()
        })
        .with_cache(0);
        assert!(des.analyze(&net).unwrap().stages().is_none());
    }

    #[test]
    fn lumped_and_raw_results_key_separately() {
        let _gate = crate::test_serial();
        clear_cache();
        let net = sym2(9.0);
        lump_engine(LumpSel::Off).analyze(&net).unwrap();
        let before = cache_stats();
        // A lumping engine must not be served the raw entry...
        let lumped = lump_engine(LumpSel::Auto).analyze(&net).unwrap();
        assert!(lumped.lumped());
        assert_eq!(cache_stats().misses, before.misses + 1);
        // ...while On and Auto (same effective policy) share entries.
        let before = cache_stats();
        let again = lump_engine(LumpSel::On).analyze(&net).unwrap();
        assert!(again.lumped());
        assert_eq!(cache_stats().hits, before.hits + 1);
    }

    #[test]
    fn lumping_declines_on_heterogeneous_delays() {
        let _gate = crate::test_serial();
        clear_cache();
        // A delay-2 transition disqualifies the net: the lumping engine
        // must transparently solve the raw chain instead.
        let mut net = Net::new("hetero");
        let a = net.add_place("A", 1);
        net.add_transition(
            Transition::new("T2")
                .delay(2)
                .resource("lambda")
                .input(a, 1)
                .output(a, 1),
        )
        .unwrap();
        let on = lump_engine(LumpSel::On).analyze(&net).unwrap();
        assert!(!on.lumped());
        let off = lump_engine(LumpSel::Off).analyze(&net).unwrap();
        assert_eq!(
            on.resource_usage("lambda").unwrap().to_bits(),
            off.resource_usage("lambda").unwrap().to_bits(),
            "declined lumping must leave the raw pipeline untouched"
        );
        // Same effective key (both raw): the second analyze was a hit.
        let s = cache_stats();
        assert!(s.hits >= 1);
    }

    #[test]
    fn lumped_hits_serve_permuted_build_orders() {
        let _gate = crate::test_serial();
        clear_cache();
        // sym2 built in reverse: same canonical form, so the lumped
        // solve is shared and id queries remap.
        let m = 7.0;
        let mut rev = Net::new("sym2");
        let b = rev.add_place("B", 0);
        let a = rev.add_place("A", 2);
        rev.add_transition(
            Transition::new("loopB")
                .delay(1)
                .frequency(Expr::constant(1.0 - 1.0 / m))
                .input(b, 1)
                .output(b, 1),
        )
        .unwrap();
        rev.add_transition(
            Transition::new("exitB")
                .delay(1)
                .frequency(Expr::constant(1.0 / m))
                .input(b, 1)
                .output(a, 1),
        )
        .unwrap();
        rev.add_transition(
            Transition::new("loopA")
                .delay(1)
                .frequency(Expr::constant(1.0 - 1.0 / m))
                .input(a, 1)
                .output(a, 1),
        )
        .unwrap();
        rev.add_transition(
            Transition::new("exitA")
                .delay(1)
                .frequency(Expr::constant(1.0 / m))
                .resource("lambda")
                .input(a, 1)
                .output(b, 1),
        )
        .unwrap();
        let engine = lump_engine(LumpSel::Auto);
        let first = engine.analyze(&sym2(m)).unwrap();
        let before = cache_stats();
        let second = engine.analyze(&rev).unwrap();
        assert_eq!(cache_stats().hits, before.hits + 1);
        assert!(second.lumped());
        let orig_exit = sym2(m).transition_by_name("exitB").unwrap();
        let rev_exit = rev.transition_by_name("exitB").unwrap();
        assert_ne!(orig_exit, rev_exit, "permutation test needs differing ids");
        let want = first.transition_usage(orig_exit);
        assert!(want > 0.0);
        assert!(
            (second.transition_usage(rev_exit) - want).abs() < 1e-12,
            "remapped lumped transition_usage must match"
        );
    }
}

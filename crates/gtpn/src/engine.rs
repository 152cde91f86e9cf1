//! The analysis engine: the one road from a [`Net`] to steady-state numbers.
//!
//! Every model, experiment, sweep point, cross-validation run and bench in
//! this repository obtains its throughput/usage figures through
//! [`AnalysisEngine::analyze`]. It runs the paper's analyzer pipeline —
//! net → reachability → steady-state solve → resource usage — and owns the
//! concerns around it:
//!
//! * **Backend selection.** The exact backend is the paper's reference
//!   pipeline: reachability expansion (or, for a net whose rate-free shape
//!   the engine has seen before, a re-pricing of the recorded chain
//!   skeleton, see [`crate::cache`]) followed by the Gauss–Seidel
//!   steady-state solve from the uniform vector, through a per-thread
//!   scratch workspace. When the net qualifies for exact lumping
//!   ([`crate::lump`]) and the engine's [`LumpSel`] policy permits, it
//!   builds and solves the *quotient* chain instead and de-lumps the
//!   measures — identical numbers to solver tolerance, combinatorially
//!   fewer states, so `Auto` falls back to DES only past the lumped
//!   budget. The DES backend replaces the exact solve by batched
//!   Monte-Carlo runs of [`crate::sim`] and reports batch-means estimates
//!   with 95% confidence half-widths — usable when the reachability graph
//!   is too large to enumerate. [`BackendSel::Auto`] (the default) tries
//!   the exact path and falls back to DES exactly when the state budget is
//!   exceeded, which opens the `n > 4` conversation axis the raw exact
//!   solver cannot reach.
//!
//! * **One result shape.** A raw solve, a de-lumped quotient solve and a
//!   DES estimate all produce the same measures, filled in when the result
//!   is made: per-resource usage and minimum delay, per-place mean tokens,
//!   per-transition usage, DES half-widths (none for exact runs) and an
//!   exact run's iterations and residual. No result keeps its chain, so a
//!   cached entry costs a few short vectors.
//!
//! * **Solution caching.** Results are cached process-globally, keyed by
//!   `(net fingerprint, backend, solver parameters)` where the fingerprint
//!   hashes the net *as built*: the same builder producing the same net in
//!   the same order hits, and a net built in another order is another net
//!   and misses. (Every hit of the paper's evaluation is of the first
//!   kind.) Hits are verified by full structural equality of the nets, so
//!   fingerprint collisions cannot alias distinct nets. The cache is
//!   bounded by resident bytes ([`crate::cache::DEFAULT_CACHE_MB`]) and
//!   optionally entry count (`HSIPC_CACHE_CAP`, `0` disables), evicts the
//!   least recently used entry first, and reports [`cache_stats`]. The
//!   skeleton store the exact backend re-prices from lives beside it,
//!   under the same limits ([`store_stats`]).
//!
//! * **Determinism.** With lumping off the exact backend is bitwise
//!   identical to calling `net.reachability(budget)?.solve(tol, sweeps)`
//!   directly — every result, hit or miss, is the solve of the caller's
//!   net as built, and a re-priced chain is the fresh build's chain bit for
//!   bit. A lumped solve is itself deterministic (byte-identical across
//!   runs and thread counts) but agrees with the raw solve to solver
//!   tolerance, not bit-for-bit — which is why the cache key records
//!   whether a result is lumped. DES simulates the caller's net with
//!   replication seeds derived from its fingerprint, so an estimate is
//!   identical run-to-run no matter which sweep worker executes it. Two
//!   build orders of one model sum in different orders and sample
//!   different trajectories, so they agree to solver tolerance (exact) or
//!   to sampling error (DES), not bit for bit.

use crate::cache::{CacheLimits, CacheStats, SkeletonStore, StoreStats};
use crate::error::GtpnError;
use crate::lru::BoundedLru;
use crate::lump::LumpSel;
use crate::net::{Net, PlaceId, TransId};
use crate::par::ParallelBudget;
use crate::reach::ReachabilityGraph;
use crate::sim::{self, batch_means_interval, ConfidenceInterval, SimOptions};
use crate::solve::{Solution, SolveWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
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
    /// Exact-lumping policy ([`crate::lump`]): solve the quotient chain
    /// of a qualifying net instead of the raw tangible chain. Default
    /// [`LumpSel::On`]; part of the cache key (lumped and raw results
    /// agree to solver tolerance, not bit-for-bit).
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
            lump: LumpSel::On,
        }
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
    /// Re-pricing a recorded chain skeleton instead of expanding
    /// ([`crate::cache`]); a replay that fell back counts here too.
    pub reprice_s: f64,
    /// Steady-state solve of that chain.
    pub solve_s: f64,
    /// Recovering the raw chain's measures from a lumped solution.
    pub delump_s: f64,
    /// Chains re-priced from a skeleton.
    pub replays: u64,
    /// Builds that recorded a skeleton.
    pub records: u64,
    /// Replays that fell back to a fresh build.
    pub fallbacks: u64,
    /// States of the solved chain (lumped states for a lumped run).
    pub states: u64,
    /// Edges of the solved chain.
    pub edges: u64,
    /// Gauss–Seidel sweeps (1 for a direct solve).
    pub sweeps: u64,
    /// Instantaneous phases run by the expansion — for a re-priced chain,
    /// by the build it re-prices.
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
            reprice_s: graph.build.reprice_s,
            solve_s,
            delump_s,
            replays: graph.build.replays,
            records: graph.build.records,
            fallbacks: graph.build.fallbacks,
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
        self.reprice_s += other.reprice_s;
        self.solve_s += other.solve_s;
        self.delump_s += other.delump_s;
        self.replays += other.replays;
        self.records += other.records;
        self.fallbacks += other.fallbacks;
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

/// The measures of one backend run, in the analyzed net's id space — the
/// same fields whichever backend filled them.
#[derive(Debug)]
struct AnalysisData {
    backend: BackendKind,
    /// Tangible-state count (lumped states for a lumped run, 0 for DES —
    /// nothing was enumerated).
    states: usize,
    /// Resource → usage (DES: the mean of its batch means).
    resource_usage: HashMap<String, f64>,
    /// Resource → minimum delay among its transitions (for rates).
    resource_delay: HashMap<String, u64>,
    /// DES: resource → 95% half-width over batch means; empty for exact.
    resource_half_width: HashMap<String, f64>,
    /// Per-place time-averaged tokens.
    mean_tokens: Vec<f64>,
    /// Per-transition time-averaged in-progress firings.
    transition_usage: Vec<f64>,
    /// Exact runs: `(iterations, residual)` of the chain's solve.
    solve: Option<(usize, f64)>,
    /// Whether the exact run solved the lumped quotient chain.
    lumped: bool,
    /// Exact runs: where the time went.
    stages: Option<StageLedger>,
}

/// The result of [`AnalysisEngine::analyze`]: backend-agnostic access to
/// steady-state measures, cheap to clone and share across sweep workers.
/// Ids passed to [`mean_tokens`](Analysis::mean_tokens) /
/// [`transition_usage`](Analysis::transition_usage) are those of the net
/// the caller passed to `analyze`.
#[derive(Debug, Clone)]
pub struct Analysis {
    data: Arc<AnalysisData>,
}

impl Analysis {
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
        self.data.lumped
    }

    /// Usage (time-weighted mean in-progress count) of a resource label.
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::UnknownName`] for an unknown resource.
    pub fn resource_usage(&self, resource: &str) -> Result<f64, GtpnError> {
        self.data
            .resource_usage
            .get(resource)
            .copied()
            .ok_or_else(|| GtpnError::UnknownName(resource.to_string()))
    }

    /// Completion rate of a resource: `usage / delay` of its transitions
    /// (usage itself for zero-delay resources), as
    /// [`Solution::resource_rate`].
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::UnknownName`] for an unknown resource.
    pub fn resource_rate(&self, resource: &str) -> Result<f64, GtpnError> {
        let usage = self.resource_usage(resource)?;
        let delay = self
            .data
            .resource_delay
            .get(resource)
            .copied()
            .ok_or_else(|| GtpnError::UnknownName(resource.to_string()))?;
        Ok(crate::solve::rate(usage, delay))
    }

    /// 95% confidence interval on a resource's usage. `Some` only for DES
    /// analyses — the exact backend's numbers carry no sampling error.
    pub fn resource_interval(&self, resource: &str) -> Option<ConfidenceInterval> {
        Some(ConfidenceInterval {
            estimate: self.data.resource_usage.get(resource).copied()?,
            half_width: self.data.resource_half_width.get(resource).copied()?,
        })
    }

    /// Time-averaged token count of a place (tokens in transit inside
    /// in-progress firings not counted, on either backend).
    pub fn mean_tokens(&self, place: PlaceId) -> f64 {
        self.data.mean_tokens.get(place.0).copied().unwrap_or(0.0)
    }

    /// Usage of an individual transition.
    pub fn transition_usage(&self, transition: TransId) -> f64 {
        self.data
            .transition_usage
            .get(transition.0)
            .copied()
            .unwrap_or(0.0)
    }

    /// Gauss–Seidel sweeps performed (exact backend only; for a lumped
    /// run, the quotient-chain solve's count).
    pub fn iterations(&self) -> Option<usize> {
        self.data.solve.map(|(iterations, _)| iterations)
    }

    /// Final solver residual (exact backend only; for a lumped run, the
    /// quotient-chain solve's residual).
    pub fn residual(&self) -> Option<f64> {
        self.data.solve.map(|(_, residual)| residual)
    }

    /// The stage ledger of the exact run that produced this analysis —
    /// for a cache hit, of the run that filled the entry. `None` for DES.
    pub fn stages(&self) -> Option<&StageLedger> {
        self.data.stages.as_ref()
    }
}

thread_local! {
    /// The per-thread scratch workspace every exact solve runs through.
    static WORKSPACE: RefCell<SolveWorkspace> = RefCell::new(SolveWorkspace::new());
}

/// The exact pipeline. Builds the raw or lumped chain of `net` — lumped
/// when the config's [`LumpSel`] permits and the net qualifies
/// ([`crate::lump::lumpable`]) — re-pricing a skeleton from `store` when the
/// net's shape is shelved ([`crate::cache`]); solves it through the
/// per-thread workspace; and fills the measures: de-lumped from a quotient
/// solution, read off a raw one by the very calls a direct
/// `net.reachability(..)?.solve(..)` caller makes, so the bits agree.
fn exact(
    store: &Mutex<SkeletonStore>,
    net: &Net,
    cfg: &EngineConfig,
    par: &ParallelBudget,
) -> Result<AnalysisData, GtpnError> {
    let lumped = cfg.lump.enabled() && crate::lump::lumpable(net);
    let chain = crate::cache::build_chain(store, net, lumped, cfg.state_budget, par)?;
    let graph = &chain.graph;
    let built = Instant::now();
    let solution = WORKSPACE.with(|ws| {
        Solution::solve_with(graph, cfg.tolerance, cfg.max_sweeps, &mut ws.borrow_mut())
    })?;
    let solved = Instant::now();
    let (mean_tokens, transition_usage) = if lumped {
        crate::lump::delump(graph, &chain.rows, &solution)
    } else {
        (
            (0..net.place_count())
                .map(|p| graph.mean_tokens(&solution, PlaceId(p)))
                .collect(),
            (0..net.transition_count())
                .map(|t| solution.transition_usage(TransId(t)))
                .collect(),
        )
    };
    let delump_s = if lumped {
        solved.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let stages = StageLedger::of(graph, &solution, (solved - built).as_secs_f64(), delump_s);
    stage_totals_cell()
        .lock()
        .expect("stage totals poisoned")
        .add(&stages);
    let (resource_usage, resource_delay) = crate::solve::by_resource(net, &transition_usage);
    Ok(AnalysisData {
        backend: BackendKind::Exact,
        states: graph.state_count(),
        resource_usage,
        resource_delay,
        resource_half_width: HashMap::new(),
        mean_tokens,
        transition_usage,
        solve: Some((solution.iterations(), solution.residual())),
        lumped,
        stages: Some(stages),
    })
}

/// The simulation backend: `batches` independent replications of
/// [`sim::simulate`] on `net`, combined into batch-means estimates with 95%
/// half-widths ([`batch_means_interval`]). Replication seeds derive from
/// `fp`, the net's fingerprint, so the estimate is a pure function of the
/// net as built — stable across runs and sweep-worker schedules.
fn des(net: &Net, fp: u64, cfg: &EngineConfig) -> Result<AnalysisData, GtpnError> {
    net.validate()?;
    let batches = cfg.des.batches.max(2);
    let opts = SimOptions {
        horizon: cfg.des.horizon,
        warmup: cfg.des.warmup,
    };
    let resources: Vec<String> = net.resources().iter().map(|r| r.to_string()).collect();
    let mut batch_usage: Vec<Vec<f64>> = vec![Vec::with_capacity(batches); resources.len()];
    let mut mean_tokens = vec![0.0f64; net.place_count()];
    let mut transition_usage = vec![0.0f64; net.transition_count()];
    for b in 0..batches {
        let seed = splitmix64(fp ^ splitmix64(b as u64 + 1));
        let mut rng = StdRng::seed_from_u64(seed);
        let result = sim::simulate(net, &opts, &mut rng)?;
        for (ri, name) in resources.iter().enumerate() {
            batch_usage[ri].push(result.resource_usage(name)?);
        }
        for (acc, v) in mean_tokens.iter_mut().zip(&result.mean_tokens) {
            *acc += v;
        }
        for (acc, v) in transition_usage.iter_mut().zip(&result.transition_usage) {
            *acc += v;
        }
    }
    let n = batches as f64;
    for v in mean_tokens.iter_mut().chain(&mut transition_usage) {
        *v /= n;
    }
    let mut resource_usage = HashMap::new();
    let mut resource_half_width = HashMap::new();
    for (name, means) in resources.iter().zip(&batch_usage) {
        let ci = batch_means_interval(means);
        resource_usage.insert(name.clone(), ci.estimate);
        resource_half_width.insert(name.clone(), ci.half_width);
    }
    // A resource's estimate is the mean of its batch means, not the sum of
    // its transitions' averaged usages: only the delays are taken here.
    let (_, resource_delay) = crate::solve::by_resource(net, &transition_usage);
    Ok(AnalysisData {
        backend: BackendKind::Des,
        states: 0,
        resource_usage,
        resource_delay,
        resource_half_width,
        mean_tokens,
        transition_usage,
        solve: None,
        lumped: false,
        stages: None,
    })
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

/// Cache key: net fingerprint, backend kind, solver-parameter hash.
type CacheKey = (u64, BackendKind, u64);

#[derive(Debug)]
struct CacheEntry {
    /// The analyzed net, for equality verification of candidate hits.
    net: Net,
    data: Arc<AnalysisData>,
}

/// Estimated resident bytes of a cache entry: the per-name maps and per-id
/// vectors of its measures, plus the net kept for hit verification.
fn entry_bytes(e: &CacheEntry) -> usize {
    let d = &e.data;
    64 * (d.resource_usage.len() + d.resource_half_width.len() + d.resource_delay.len())
        + 8 * (d.mean_tokens.len() + d.transition_usage.len())
        + crate::cache::net_bytes(&e.net)
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

    /// Evicts the least recently used entry. False when already empty.
    fn evict_one(&mut self) -> bool {
        let Some(idx) = self.lru.victim() else {
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

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            dedup_drops: self.dedup_drops,
            entries: self.lru.len(),
            bytes: self.lru.bytes(),
        }
    }
}

/// An engine's solution cache and the skeleton store beside it, built
/// under one set of limits.
#[derive(Debug)]
struct Caches {
    solutions: Mutex<EngineCache>,
    skeletons: Mutex<SkeletonStore>,
}

impl Caches {
    fn new(limits: CacheLimits) -> Caches {
        Caches {
            solutions: Mutex::new(EngineCache::new(limits)),
            skeletons: Mutex::new(SkeletonStore::new(limits)),
        }
    }

    fn cache_stats(&self) -> CacheStats {
        self.solutions
            .lock()
            .expect("engine cache poisoned")
            .stats()
    }

    fn store_stats(&self) -> StoreStats {
        self.skeletons
            .lock()
            .expect("skeleton store poisoned")
            .stats()
    }
}

fn global_caches() -> &'static Caches {
    static CACHES: OnceLock<Caches> = OnceLock::new();
    CACHES.get_or_init(|| Caches::new(CacheLimits::from_env()))
}

/// Current statistics of the global engine solution cache.
pub fn cache_stats() -> CacheStats {
    global_caches().cache_stats()
}

/// What the global engine's skeleton store holds ([`crate::cache`]).
pub fn store_stats() -> StoreStats {
    global_caches().store_stats()
}

/// Empties the global engine cache and skeleton store (counters included)
/// — test isolation. Both are reconstructed, so `HSIPC_CACHE_CAP` is
/// re-read: setting it after this call takes effect.
pub fn clear_cache() {
    let caches = global_caches();
    let limits = CacheLimits::from_env();
    *caches.solutions.lock().expect("engine cache poisoned") = EngineCache::new(limits);
    *caches.skeletons.lock().expect("skeleton store poisoned") = SkeletonStore::new(limits);
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

/// The analysis engine; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct AnalysisEngine {
    cfg: EngineConfig,
    /// Core budget for the backends' inner parallelism; `None` means the
    /// process-global budget ([`ParallelBudget::global`]).
    budget: Option<Arc<ParallelBudget>>,
    /// Solution cache and skeleton store; `None` means the process-global
    /// ones.
    cache: Option<Arc<Caches>>,
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

    /// This engine with a dedicated core budget. Nested solvers (the
    /// §6.6.3 fixed point, tests pinning parallelism) share one budget
    /// across their engines instead of drawing on the global one.
    pub fn with_budget(mut self, budget: Arc<ParallelBudget>) -> AnalysisEngine {
        self.budget = Some(budget);
        self
    }

    /// This engine with a private solution cache of `cap` entries (`0`
    /// disables caching for this engine), byte-bounded by the same
    /// [`DEFAULT_CACHE_MB`](crate::cache::DEFAULT_CACHE_MB) budget as the
    /// global cache, and a private skeleton store under the same limits.
    /// Results no longer flow through — or count against — the
    /// process-global LRU: tests get isolation without serializing on the
    /// global counters, and nested fixed-point solves stop evicting the
    /// outer sweep's hot entries.
    pub fn with_cache(mut self, cap: usize) -> AnalysisEngine {
        self.cache = Some(Arc::new(Caches::new(CacheLimits::with_entry_cap(cap))));
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

    /// The caches this engine reads and writes.
    fn caches(&self) -> &Caches {
        match &self.cache {
            Some(c) => c,
            None => global_caches(),
        }
    }

    /// The solution cache this engine reads and writes.
    fn cache_mutex(&self) -> &Mutex<EngineCache> {
        &self.caches().solutions
    }

    /// Statistics of the cache this engine uses (the global one unless
    /// [`with_cache`](Self::with_cache) was applied).
    pub fn cache_stats(&self) -> CacheStats {
        self.caches().cache_stats()
    }

    /// What the skeleton store beside that cache holds.
    pub fn store_stats(&self) -> StoreStats {
        self.caches().store_stats()
    }

    /// The cache key of `net` (fingerprint `fp`) under backend `kind`: the
    /// fingerprint plus a hash of the parameters that determine the
    /// backend's result beyond the net itself, so engines with different
    /// settings never alias. The DES hash includes the state budget so an
    /// `Auto` fallback result is only reused by engines that would have
    /// fallen back at the same point. The exact hash includes whether the
    /// backend would solve the quotient chain for this net (a property of
    /// net and policy together): lumped and raw solves agree to solver
    /// tolerance, not bit-for-bit, and their `states` counts mean
    /// different things, so they never alias — while any two engines that
    /// both lump share hits.
    fn key(&self, kind: BackendKind, net: &Net, fp: u64) -> CacheKey {
        let mut h = DefaultHasher::new();
        match kind {
            BackendKind::Exact => {
                self.cfg.tolerance.to_bits().hash(&mut h);
                self.cfg.max_sweeps.hash(&mut h);
                (self.cfg.lump.enabled() && crate::lump::lumpable(net)).hash(&mut h);
            }
            BackendKind::Des => {
                self.cfg.des.horizon.hash(&mut h);
                self.cfg.des.warmup.hash(&mut h);
                self.cfg.des.batches.hash(&mut h);
                self.cfg.state_budget.hash(&mut h);
            }
        }
        (fp, kind, h.finish())
    }

    /// The slot index of a verified hit for `key` under this engine's
    /// state budget, if any. Caller holds the lock.
    fn find_slot(c: &EngineCache, key: &CacheKey, budget: usize, net: &Net) -> Option<usize> {
        let kind = key.1;
        c.map.get(key)?.iter().copied().find(|&i| {
            let (_, e) = c.lru.get(i);
            (kind != BackendKind::Exact || e.data.states <= budget) && e.net == *net
        })
    }

    /// Looks for a verified cache hit. A disabled cache holds nothing, so
    /// its probes miss.
    fn probe(&self, kind: BackendKind, net: &Net, fp: u64) -> Option<Analysis> {
        let key = self.key(kind, net, fp);
        let mut c = self.cache_mutex().lock().expect("engine cache poisoned");
        let idx = Self::find_slot(&c, &key, self.cfg.state_budget, net)?;
        c.lru.touch(idx);
        let data = Arc::clone(&c.lru.get(idx).1.data);
        c.hits += 1;
        Some(Analysis { data })
    }

    /// Inserts a freshly computed analysis, evicting least recently used
    /// entries until both the entry and the byte bounds hold; a disabled
    /// cache keeps nothing. A racing insert of the same net is dropped,
    /// not duplicated — the old chain `push` could stack several copies of
    /// one solution when sweep workers missed simultaneously.
    fn insert(&self, kind: BackendKind, net: &Net, fp: u64, data: &Arc<AnalysisData>) {
        let key = self.key(kind, net, fp);
        let mut c = self.cache_mutex().lock().expect("engine cache poisoned");
        if c.limits.disabled() {
            return;
        }
        if let Some(idx) = Self::find_slot(&c, &key, usize::MAX, net) {
            c.dedup_drops += 1;
            c.lru.touch(idx);
            return;
        }
        let entry = CacheEntry {
            net: net.clone(),
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
        let idx = c.lru.insert((key, entry), bytes);
        c.map.entry(key).or_default().push(idx);
    }

    /// Analyzes `net` under the engine's policy; see the module docs.
    ///
    /// # Errors
    ///
    /// Those of the selected backend: [`Net::reachability`],
    /// [`ReachabilityGraph::solve`] or [`sim::simulate`]. Under
    /// [`BackendSel::Auto`], [`GtpnError::StateSpaceExceeded`] from the
    /// exact path triggers the DES fallback instead of being returned.
    pub fn analyze(&self, net: &Net) -> Result<Analysis, GtpnError> {
        let fp = net.fingerprint();
        let kinds: &[BackendKind] = match self.cfg.backend {
            BackendSel::Exact => &[BackendKind::Exact],
            BackendSel::Des => &[BackendKind::Des],
            BackendSel::Auto => &[BackendKind::Exact, BackendKind::Des],
        };
        if let Some(hit) = kinds.iter().find_map(|&k| self.probe(k, net, fp)) {
            return Ok(hit);
        }
        // A miss runs the backend and caches the result.
        let run = |kind: BackendKind| -> Result<Analysis, GtpnError> {
            self.cache_mutex()
                .lock()
                .expect("engine cache poisoned")
                .misses += 1;
            let data = Arc::new(match kind {
                BackendKind::Exact => {
                    exact(&self.caches().skeletons, net, &self.cfg, self.budget())?
                }
                BackendKind::Des => des(net, fp, &self.cfg)?,
            });
            self.insert(kind, net, fp, &data);
            Ok(Analysis { data })
        };
        match run(kinds[0]) {
            Err(GtpnError::StateSpaceExceeded { .. }) if kinds.len() > 1 => run(kinds[1]),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::net::Transition;

    /// Geometric stage ring with mean `m`; exact usage of "lambda" = 1/m.
    fn geo(m: f64) -> Net {
        geo_built(m, false)
    }

    /// The same net as `geo`, places and transitions added in reverse.
    fn geo_reversed(m: f64) -> Net {
        geo_built(m, true)
    }

    fn geo_built(m: f64, reversed: bool) -> Net {
        let mut net = Net::new("geo");
        let (p, q) = if reversed {
            let q = net.add_place("Q", 0);
            (net.add_place("P", 1), q)
        } else {
            let p = net.add_place("P", 1);
            (p, net.add_place("Q", 0))
        };
        let mut transitions = [
            Transition::new("exit")
                .delay(1)
                .frequency(Expr::constant(1.0 / m))
                .resource("lambda")
                .input(p, 1)
                .output(q, 1),
            Transition::new("loop")
                .delay(1)
                .frequency(Expr::constant(1.0 - 1.0 / m))
                .input(p, 1)
                .output(p, 1),
            Transition::new("recycle").delay(0).input(q, 1).output(p, 1),
        ];
        if reversed {
            transitions.reverse();
        }
        for t in transitions {
            net.add_transition(t).unwrap();
        }
        net
    }

    fn exact_engine() -> AnalysisEngine {
        AnalysisEngine::new(EngineConfig {
            backend: BackendSel::Exact,
            tolerance: 1e-12,
            max_sweeps: 100_000,
            state_budget: 1_000,
            // These tests assert raw-chain behavior (bitwise identity to
            // a direct solve); lumping is covered by its own tests below.
            lump: LumpSel::Off,
            ..EngineConfig::default()
        })
    }

    /// A raw exact result is filled when it is made, with the bits a
    /// direct `reachability(..)?.solve(..)` caller reads — every place's
    /// mean tokens and every transition's usage, rate, iterations and
    /// residual. The key is the net as built: the reversed build of a
    /// cached net is a miss, answered by its own direct solve's bits.
    #[test]
    fn exact_backend_is_bitwise_identical_to_direct_solve() {
        let _gate = crate::test_serial();
        clear_cache();
        for net in [geo(10.0), geo_reversed(10.0)] {
            let graph = net.reachability(1_000).unwrap();
            let want = graph.solve(1e-12, 100_000).unwrap();
            let before = cache_stats();
            let a = exact_engine().analyze(&net).unwrap();
            let after = cache_stats();
            assert_eq!((after.hits, after.misses), (before.hits, before.misses + 1));
            assert_eq!(a.backend(), BackendKind::Exact);
            assert_eq!(
                a.resource_usage("lambda").unwrap().to_bits(),
                want.resource_usage("lambda").unwrap().to_bits()
            );
            assert_eq!(
                a.resource_rate("lambda").unwrap().to_bits(),
                want.resource_rate("lambda").unwrap().to_bits()
            );
            for p in (0..net.place_count()).map(PlaceId) {
                assert_eq!(
                    a.mean_tokens(p).to_bits(),
                    graph.mean_tokens(&want, p).to_bits(),
                    "place {}",
                    net.place_name(p)
                );
            }
            for t in (0..net.transition_count()).map(TransId) {
                assert_eq!(
                    a.transition_usage(t).to_bits(),
                    want.transition_usage(t).to_bits(),
                    "transition {}",
                    net.transition_name(t)
                );
            }
            assert_eq!(a.iterations(), Some(want.iterations()));
            assert_eq!(
                a.residual().map(f64::to_bits),
                Some(want.residual().to_bits())
            );
            assert!(a.iterations().unwrap() > 0);
            assert!(a.residual().unwrap() < 1e-12);
            assert!(a.resource_interval("lambda").is_none());
        }
        // The same build again is a hit.
        let before = cache_stats();
        exact_engine().analyze(&geo(10.0)).unwrap();
        assert_eq!(cache_stats().hits, before.hits + 1);
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

    /// A DES estimate is a pure function of the net: a fresh run of the
    /// same net (no cache) repeats every bit.
    #[test]
    fn des_estimates_are_bit_deterministic() {
        let engine = AnalysisEngine::new(EngineConfig {
            backend: BackendSel::Des,
            des: DesOptions {
                horizon: 60_000,
                warmup: 6_000,
                batches: 3,
            },
            ..EngineConfig::default()
        })
        .with_cache(0);
        let net = geo(9.0);
        let bits = |x: Analysis| {
            let ci = x.resource_interval("lambda").unwrap();
            let tokens = (0..net.place_count()).map(|p| x.mean_tokens(PlaceId(p)));
            let usage = (0..net.transition_count()).map(|t| x.transition_usage(TransId(t)));
            let all = [ci.estimate, ci.half_width].into_iter().chain(tokens);
            all.chain(usage).map(f64::to_bits).collect::<Vec<_>>()
        };
        let run = || bits(engine.analyze(&net).unwrap());
        assert_eq!(run(), run());
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
        let lumped = lump_engine(LumpSel::On).analyze(&net).unwrap();
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
        // A lumped run still reports its quotient-chain solve.
        assert!(lumped.iterations().unwrap() > 0);
        assert!(lumped.residual().unwrap() < 1e-12);
        assert!(lumped.resource_interval("lambda").is_none());
        // An unknown resource errors on both paths.
        assert!(lumped.resource_usage("nope").is_err());
        assert!(raw.resource_rate("nope").is_err());
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

    /// A sweep over one stage's mean is one shape at many rates: the
    /// engine records it on the second point and re-prices every later
    /// one, and each result has the bits a store-less engine computes —
    /// raw and lumped alike. The store is private to the engine.
    #[test]
    fn a_rate_sweep_is_re_priced_to_the_same_bits() {
        for lump in [LumpSel::Off, LumpSel::On] {
            let engine = lump_engine(lump).with_cache(64);
            let fresh = lump_engine(lump).with_cache(0);
            for (i, m) in [3.0, 4.0, 5.5, 7.25, 9.0].into_iter().enumerate() {
                let a = engine.analyze(&sym2(m)).unwrap();
                let b = fresh.analyze(&sym2(m)).unwrap();
                let ledger = a.stages().unwrap();
                assert_eq!(
                    (ledger.replays, ledger.records),
                    (u64::from(i >= 2), u64::from(i == 1)),
                    "point {i}"
                );
                for t in 0..4 {
                    let t = TransId(t);
                    assert_eq!(
                        a.transition_usage(t).to_bits(),
                        b.transition_usage(t).to_bits()
                    );
                }
                assert_eq!(a.iterations(), b.iterations());
                assert_eq!(ledger.phase_configs, b.stages().unwrap().phase_configs);
            }
            assert_eq!(engine.store_stats().skeletons, 1);
            assert_eq!(fresh.store_stats(), StoreStats::default());
        }
    }

    #[test]
    fn lumped_and_raw_results_key_separately() {
        let _gate = crate::test_serial();
        clear_cache();
        let net = sym2(9.0);
        lump_engine(LumpSel::Off).analyze(&net).unwrap();
        let before = cache_stats();
        // A lumping engine must not be served the raw entry...
        let lumped = lump_engine(LumpSel::On).analyze(&net).unwrap();
        assert!(lumped.lumped());
        assert_eq!(cache_stats().misses, before.misses + 1);
        // ...while a second lumping engine shares its entry.
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
}

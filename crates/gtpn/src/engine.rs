//! The analysis engine: the one road from a [`Net`] to steady-state numbers.
//!
//! Every model, experiment, sweep point, cross-validation run and bench in
//! this repository obtains its throughput/usage figures through
//! [`AnalysisEngine::analyze`]. It runs the paper's analyzer pipeline —
//! net → reachability → steady-state solve → resource usage — and owns the
//! concerns around it:
//!
//! * **Backend selection.** The exact backend is the paper's reference
//!   pipeline: reachability expansion followed by the Gauss–Seidel
//!   steady-state solve from the uniform vector. When the net qualifies
//!   for exact lumping ([`crate::lump`]) and the engine's [`LumpSel`]
//!   policy permits, it builds and solves the *quotient* chain instead —
//!   or, for a net whose rate-free shape the engine has seen before,
//!   re-prices the recorded chain skeleton ([`crate::cache`]) — through a
//!   per-thread scratch workspace and de-lumps the measures: identical
//!   numbers to solver tolerance, combinatorially fewer states, so `Auto`
//!   falls back to DES only past the lumped budget. Any other net is
//!   built by `net.reachability(..)` and solved, through the same
//!   workspace, as its `solve(..)` would solve it. The DES
//!   backend replaces the exact solve by batched Monte-Carlo runs of [`crate::sim`] and reports batch-means estimates
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
//! * **Solution caching.** An analysis of the lumped road (lumping on, the
//!   net lumpable and re-priceable, so it has a `compiled::Shape`) is filed
//!   process-globally under the words that determine it: the shape's key,
//!   the resource labels, the rates' bits and the solver settings. An entry
//!   keeps those words, not the net; a hit is found by their hash and
//!   verified by full word equality. A net built in another order has
//!   other words and misses. Nothing else is filed: a raw solve or a DES
//!   estimate is computed every time, each backend run a miss. The cache
//!   is one bounded store (`cache::Bounded`), limited by resident bytes
//!   (1 GiB, `cache::DEFAULT_CACHE_MB`) and optionally entry count
//!   (`HSIPC_CACHE_CAP`, `0` disables); when a bound binds it evicts the
//!   least recently used entry, found by a scan of recency ticks. It
//!   reports [`cache_stats`]. The skeleton store the exact backend
//!   re-prices from is another such store beside it ([`store_stats`]),
//!   keyed by the shape alone.
//!
//! * **Determinism.** With lumping off the exact backend is bitwise
//!   identical to calling `net.reachability(budget)?.solve(tol, sweeps)`
//!   directly. A re-priced lumped chain is the fresh build's chain bit
//!   for bit, so a hit returns the bits a fresh analysis of the caller's
//!   net would. A lumped solve is itself deterministic (byte-identical
//!   across runs and thread counts) but agrees with the raw solve to
//!   solver tolerance, not bit-for-bit. DES simulates the caller's net
//!   with replication seeds derived from its fingerprint, so an estimate
//!   is identical run-to-run no matter which sweep worker executes it. Two
//!   build orders of one model sum in different orders and sample
//!   different trajectories, so they agree to solver tolerance (exact) or
//!   to sampling error (DES), not bit for bit.

use crate::cache::{Bounded, CacheLimits, CacheStats, SkeletonStore, StoreStats};
use crate::compiled::Shape;
use crate::error::GtpnError;
use crate::lump::{LumpSel, LumpedGraph};
use crate::net::{Net, PlaceId, TransId};
use crate::sim::{self, batch_means_interval, splitmix64, ConfidenceInterval, SimOptions};
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
    /// [`LumpSel::On`]; only lumped results are cached (lumped and raw
    /// results agree to solver tolerance, not bit-for-bit).
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
/// analysis, none inside the expansion kernel); a build's own counts are
/// exact and repeat from run to run. [`stage_totals`] sums every exact run
/// of the process (under a parallel sweep that is seconds summed over
/// workers, not elapsed time). Its counts repeat only at one sweep worker,
/// or for a run of one big build such as `fig7.scale`'s: with more workers,
/// which chains the skeleton store re-prices and which it builds fresh
/// depends on which worker sights a shape first.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageLedger {
    /// Compiling the net for expansion.
    pub net_compile_s: f64,
    /// Breadth-first expansion of the (lumped or raw) chain.
    pub bfs_s: f64,
    /// Re-pricing a recorded lumped-chain skeleton instead of expanding
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
    /// Lumped states of `phase_calls` whose phase and fold the
    /// expansion's phase memo served instead of running them (DESIGN §12);
    /// 0 for a raw or re-priced chain.
    pub phase_hits: u64,
}

impl StageLedger {
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
        self.phase_hits += other.phase_hits;
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
    /// (usage itself for zero-delay resources).
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
}

thread_local! {
    /// The per-thread scratch workspace every exact solve runs through.
    static WORKSPACE: RefCell<SolveWorkspace> = RefCell::new(SolveWorkspace::new());
}

/// The exact pipeline. A `lumped` net — one the config's [`LumpSel`] lets
/// lump, and which qualifies ([`crate::lump::lumpable`]) — has its lumped
/// chain built — re-priced from a skeleton in `store` when its `shape` is
/// shelved ([`crate::cache`]) — and its measures de-lumped. Any other net is
/// built by the public [`Net::reachability`] and never enters the store;
/// its measures are read off by the very calls a direct caller makes.
/// Either chain is solved as [`crate::ReachabilityGraph::solve`] solves
/// it, so a raw analysis has the bits of `net.reachability(..)?.solve(..)`.
///
/// A chain too large to solve directly is held once: the sweeps read the
/// per-thread workspace's transpose, so the graph's out-edges go before
/// the sweeps allocate anything, and a lumped chain's markings, which
/// nothing after its build reads, go before the transpose. The graph
/// never leaves this function; the run's [`StageLedger`] does, beside the
/// measures.
fn exact(
    store: &Mutex<SkeletonStore>,
    net: &Net,
    cfg: &EngineConfig,
    lumped: bool,
    shape: Option<&Shape>,
) -> Result<(AnalysisData, StageLedger), GtpnError> {
    let (mut graph, rows) = if lumped {
        let LumpedGraph { graph, rows } =
            crate::cache::build_chain(store, net, shape, cfg.state_budget)?;
        (graph, Some(rows))
    } else {
        (net.reachability(cfg.state_budget)?, None)
    };
    let edges = graph.edge_count();
    let built = Instant::now();
    let solution = match Solution::direct(&graph) {
        Some(solution) => solution,
        None => WORKSPACE.with(|ws| {
            let ws = &mut ws.borrow_mut();
            if lumped {
                graph.drop_markings();
            }
            ws.load(&graph);
            graph.drop_edges();
            Solution::iterate(&graph, cfg.tolerance, cfg.max_sweeps, ws)
        })?,
    };
    let solved = Instant::now();
    let (mean_tokens, transition_usage, delump_s) = match &rows {
        Some(rows) => {
            let (tokens, usage) = crate::lump::delump(rows, &solution);
            (tokens, usage, solved.elapsed().as_secs_f64())
        }
        None => {
            let tokens = (0..net.place_count()).map(|p| graph.mean_tokens(&solution, PlaceId(p)));
            let usage = (0..net.transition_count()).map(|t| solution.transition_usage(TransId(t)));
            (tokens.collect(), usage.collect(), 0.0)
        }
    };
    let solve_s = (solved - built).as_secs_f64();
    let stages = StageLedger {
        solve_s,
        delump_s,
        states: graph.state_count() as u64,
        edges: edges as u64,
        sweeps: solution.iterations() as u64,
        ..graph.build
    };
    let (resource_usage, resource_delay) = crate::solve::by_resource(net, &transition_usage);
    let data = AnalysisData {
        backend: BackendKind::Exact,
        states: stages.states as usize,
        resource_usage,
        resource_delay,
        resource_half_width: HashMap::new(),
        mean_tokens,
        transition_usage,
        solve: Some((solution.iterations(), solution.residual())),
        lumped,
    };
    Ok((data, stages))
}

/// The simulation backend: `batches` independent replications of
/// [`sim::simulate`] on `net`, combined into batch-means estimates with 95%
/// half-widths ([`batch_means_interval`]). Replication seeds derive from
/// the net's fingerprint, so the estimate is a pure function of the net as
/// built — stable across runs and sweep-worker schedules.
fn des(net: &Net, cfg: &EngineConfig) -> Result<AnalysisData, GtpnError> {
    net.validate()?;
    let fp = net.fingerprint();
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
    })
}

// ---------------------------------------------------------------------------
// The process-global solution cache.
// ---------------------------------------------------------------------------

/// An exact lumped analysis and the words it is filed under.
#[derive(Debug)]
struct CacheEntry {
    /// [`AnalysisEngine::words`], for verification of candidate hits.
    words: Vec<u64>,
    data: Arc<AnalysisData>,
}

/// Estimated resident bytes of a cache entry: the per-name maps and per-id
/// vectors of its measures, plus its words.
fn entry_bytes(e: &CacheEntry) -> usize {
    let d = &e.data;
    64 * (d.resource_usage.len() + d.resource_half_width.len() + d.resource_delay.len())
        + 8 * (d.mean_tokens.len() + d.transition_usage.len() + e.words.len())
        + 128
}

#[derive(Debug)]
struct EngineCache {
    /// Entries by the hash of their words; distinct words can share a
    /// hash, so a hash holds a chain.
    store: Bounded<u64, CacheEntry>,
    hits: u64,
    misses: u64,
}

impl EngineCache {
    fn new(limits: CacheLimits) -> EngineCache {
        EngineCache {
            store: Bounded::new(limits),
            hits: 0,
            misses: 0,
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.store.evictions,
            dedup_drops: self.store.dedup_drops,
            entries: self.store.len(),
            bytes: self.store.bytes(),
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
    /// Solution cache and skeleton store; `None` means the process-global
    /// ones.
    cache: Option<Arc<Caches>>,
}

impl AnalysisEngine {
    /// An engine with an explicit configuration.
    pub fn new(cfg: EngineConfig) -> AnalysisEngine {
        AnalysisEngine { cfg, cache: None }
    }

    /// This engine with a private solution cache of `cap` entries (`0`
    /// disables caching for this engine), byte-bounded by the same
    /// `cache::DEFAULT_CACHE_MB` budget as the global cache, and a private
    /// skeleton store under the same limits — each one bounded store
    /// (`cache::Bounded`) that evicts its least recently used entry when a
    /// bound binds. Results no longer flow through — or count against —
    /// the process-global caches: tests get isolation without serializing
    /// on the global counters, and nested fixed-point solves stop evicting
    /// the outer sweep's hot entries.
    pub fn with_cache(mut self, cap: usize) -> AnalysisEngine {
        self.cache = Some(Arc::new(Caches::new(CacheLimits::with_entry_cap(cap))));
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
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

    /// The words an exact lumped analysis of `net`, whose shape is
    /// `shape`, is filed under, and their hash: the shape's key, each
    /// transition's resource label (length, then its bytes eight to a
    /// word), the bits of the shape's rates, and this engine's tolerance,
    /// sweep limit and state budget. Every part is self-delimiting, so
    /// equal words are equal inputs to the solve and to the measures it
    /// reports — and engines whose other settings differ share hits.
    fn words(&self, net: &Net, shape: &Shape) -> (u64, Vec<u64>) {
        let cfg = &self.cfg;
        let settings = [
            cfg.tolerance.to_bits(),
            cfg.max_sweeps as u64,
            cfg.state_budget as u64,
        ];
        let labels = net.transitions.iter().map(|t| t.resource.as_deref());
        let mut words =
            Vec::with_capacity(shape.key.len() + shape.rates.len() + 2 * labels.len() + 3);
        words.extend_from_slice(&shape.key);
        for label in labels {
            let bytes = label.map_or(&[][..], str::as_bytes);
            words.push(label.map_or(0, |_| bytes.len() as u64 + 1));
            words.extend(bytes.chunks(8).map(|chunk| {
                let mut word = [0; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(word)
            }));
        }
        words.extend(shape.rates.iter().map(|rate| rate.to_bits()));
        words.extend(settings);
        let mut h = DefaultHasher::new();
        words.hash(&mut h);
        (h.finish(), words)
    }

    /// Looks for a verified cache hit: an entry filed under `words`
    /// (hashing to `hash`). A disabled cache holds nothing, so its probes
    /// miss.
    fn probe(&self, hash: u64, words: &[u64]) -> Option<Analysis> {
        let mut c = self.cache_mutex().lock().expect("engine cache poisoned");
        let entry = c.store.get(&hash, |e| e.words == words)?;
        let data = Arc::clone(&entry.data);
        c.hits += 1;
        Some(Analysis { data })
    }

    /// Files a freshly computed analysis under `words` ([`Bounded::insert`]):
    /// a racing insert of the same words is dropped, not duplicated.
    fn insert(&self, hash: u64, words: Vec<u64>, data: &Arc<AnalysisData>) {
        let entry = CacheEntry {
            words,
            data: Arc::clone(data),
        };
        let bytes = entry_bytes(&entry);
        let mut c = self.cache_mutex().lock().expect("engine cache poisoned");
        c.store
            .insert(hash, entry, bytes, |a, b| a.words == b.words);
    }

    /// Analyzes `net` under the engine's policy; see the module docs.
    ///
    /// # Errors
    ///
    /// Those of the selected backend: [`Net::reachability`],
    /// [`crate::ReachabilityGraph::solve`] or [`sim::simulate`]. Under
    /// [`BackendSel::Auto`], [`GtpnError::StateSpaceExceeded`] from the
    /// exact path triggers the DES fallback instead of being returned.
    pub fn analyze(&self, net: &Net) -> Result<Analysis, GtpnError> {
        // Only the lumped road is filed, under words drawn from the shape.
        let lumped = self.cfg.lump.enabled() && crate::lump::lumpable(net);
        let shape = match self.cfg.backend {
            BackendSel::Exact | BackendSel::Auto if lumped => Shape::of(net),
            _ => None,
        };
        let filed = shape.as_ref().map(|shape| self.words(net, shape));
        if let Some((hash, words)) = &filed {
            if let Some(hit) = self.probe(*hash, words) {
                return Ok(hit);
            }
        }
        // Every backend run is a miss.
        let miss = || {
            self.cache_mutex()
                .lock()
                .expect("engine cache poisoned")
                .misses += 1;
        };
        let run_exact = || {
            miss();
            let store = &self.caches().skeletons;
            let (data, stages) = exact(store, net, &self.cfg, lumped, shape.as_ref())?;
            stage_totals_cell()
                .lock()
                .expect("stage totals poisoned")
                .add(&stages);
            Ok(data)
        };
        let run_des = || {
            miss();
            des(net, &self.cfg)
        };
        let data = Arc::new(match self.cfg.backend {
            BackendSel::Exact => run_exact(),
            BackendSel::Des => run_des(),
            BackendSel::Auto => match run_exact() {
                Err(GtpnError::StateSpaceExceeded { .. }) => run_des(),
                other => other,
            },
        }?);
        if let (BackendKind::Exact, Some((hash, words))) = (data.backend, filed) {
            self.insert(hash, words, &data);
        }
        Ok(Analysis { data })
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
    /// residual. Raw analyses are not filed: each build is a miss,
    /// answered by its own direct solve's bits.
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
            let zeros = vec![0.0; net.transition_count()];
            let delay = crate::solve::by_resource(&net, &zeros).1["lambda"];
            assert_eq!(
                a.resource_rate("lambda").unwrap().to_bits(),
                crate::solve::rate(want.resource_usage("lambda").unwrap(), delay).to_bits()
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
                    net.transitions[t.0].name
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
        assert_eq!(cache_stats().entries, 0);
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
        // The fallback result is not filed: a second call runs both
        // backends again, a miss each.
        let before = cache_stats();
        let again = mk(states - 1).analyze(&net).unwrap();
        assert_eq!(again.backend(), BackendKind::Des);
        let after = cache_stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses + 2));
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

    /// An exact lumped analysis is filed under its shape, its resource
    /// labels, its rates' bits and the engine's solver settings: the same
    /// net again hits, and a change to any of those misses with its own
    /// fresh result. Nothing else is filed — a raw or DES analysis is a
    /// miss every time, and each is counted.
    #[test]
    fn an_analysis_is_filed_under_the_words_that_determine_it() {
        let engine = lump_engine(LumpSel::On).with_cache(64);
        let fresh = lump_engine(LumpSel::On).with_cache(0);
        let counts = |e: &AnalysisEngine| {
            let s = e.cache_stats();
            (s.hits, s.misses)
        };
        let usage = |a: &Analysis, label: &str| a.resource_usage(label).unwrap().to_bits();
        let net = sym2(6.0);
        let first = engine.analyze(&net).unwrap();
        engine.analyze(&net).unwrap();
        assert_eq!(counts(&engine), (1, 1), "the same net hits");

        let mut faster = net.clone();
        faster.transitions[0].frequency = Expr::constant(1.0 / 4.0);
        let got = engine.analyze(&faster).unwrap();
        assert_eq!(counts(&engine), (1, 2), "a rate is part of the words");
        let want = fresh.analyze(&faster).unwrap();
        assert_eq!(usage(&got, "lambda"), usage(&want, "lambda"));
        assert_ne!(usage(&got, "lambda"), usage(&first, "lambda"));

        let mut renamed = net.clone();
        renamed.transitions[0].resource = Some("mu".into());
        let got = engine.analyze(&renamed).unwrap();
        assert_eq!(counts(&engine), (1, 3), "a label is part of the words");
        assert_eq!(usage(&got, "mu"), usage(&first, "lambda"));
        assert!(got.resource_usage("lambda").is_err());

        let sharing = |cfg: EngineConfig| AnalysisEngine {
            cfg,
            cache: engine.cache.clone(),
        };
        let tighter = sharing(EngineConfig {
            tolerance: 1e-13,
            ..engine.config().clone()
        });
        let roomier = sharing(EngineConfig {
            state_budget: 20_000,
            ..engine.config().clone()
        });
        let longer = sharing(EngineConfig {
            max_sweeps: 200_000,
            ..engine.config().clone()
        });
        for (i, other) in [tighter, roomier, longer].iter().enumerate() {
            other.analyze(&net).unwrap();
            assert_eq!(counts(&engine), (1, 4 + i as u64), "setting {i}");
        }
        assert_eq!(engine.cache_stats().entries, 6);

        let raw = AnalysisEngine {
            cfg: lump_engine(LumpSel::Off).cfg,
            ..engine.clone()
        };
        let des = sharing(EngineConfig {
            backend: BackendSel::Des,
            des: DesOptions {
                horizon: 6_000,
                warmup: 600,
                batches: 2,
            },
            ..engine.config().clone()
        });
        for (i, other) in [&raw, &raw, &des, &des].into_iter().enumerate() {
            other.analyze(&net).unwrap();
            assert_eq!(counts(&engine), (1, 7 + i as u64), "analysis {i}");
        }
        assert_eq!(engine.cache_stats().entries, 6);
    }

    #[test]
    fn private_cache_is_isolated_from_the_global_one() {
        let _gate = crate::test_serial();
        clear_cache();
        let engine = lump_engine(LumpSel::On).with_cache(8);
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
        let off = lump_engine(LumpSel::On).with_cache(0);
        off.analyze(&net).unwrap();
        off.analyze(&net).unwrap();
        let s = off.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
        assert_eq!(cache_stats().misses, global_after.misses);
    }

    /// A full private cache evicts its least recently used entry, and a
    /// racing worker's insert of a resident net is dropped.
    #[test]
    fn a_full_cache_evicts_the_least_recently_used_entry() {
        let engine = lump_engine(LumpSel::On).with_cache(2);
        let (a, b, c) = (geo(3.0), geo(4.0), geo(5.0));
        let hits = |net: &Net| {
            let before = engine.cache_stats().hits;
            engine.analyze(net).unwrap();
            engine.cache_stats().hits - before
        };
        assert_eq!((hits(&a), hits(&b), hits(&a), hits(&c)), (0, 0, 1, 0));
        assert_eq!(hits(&a), 1, "a was used after b, so b went");
        let s = engine.cache_stats();
        assert_eq!((s.evictions, s.entries, s.dedup_drops), (1, 2, 0));
        assert_eq!(hits(&b), 0);
        let (hash, words) = engine.words(&a, &Shape::of(&a).unwrap());
        let data = engine.probe(hash, &words).unwrap().data;
        engine.insert(hash, words, &data);
        let s = engine.cache_stats();
        assert_eq!((s.evictions, s.entries, s.dedup_drops), (2, 2, 1));
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

    /// Twenty clients cycling through three geometric stages (means `m`,
    /// `m + 1`, `m + 2`) that share one processor: a lumped state is a
    /// split of the clients over the stages, C(22, 2) = 231 of them — too
    /// many to solve directly.
    fn served_ring(m: f64) -> Net {
        let mut net = Net::new("served ring");
        let cpu = net.add_place("Cpu", 1);
        let stages: Vec<_> = [20, 0, 0]
            .iter()
            .enumerate()
            .map(|(i, &clients)| net.add_place(format!("Stage{i}"), clients))
            .collect();
        for (i, &from) in stages.iter().enumerate() {
            crate::geometric::GeometricStage::new(format!("S{i}"), m + i as f64)
                .input(from, 1)
                .held(cpu)
                .output(stages[(i + 1) % 3], 1)
                .build(&mut net)
                .unwrap();
        }
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

    /// One exact run of `net` through `engine`'s skeleton store, bypassing
    /// its solution cache: the analysis and the run's ledger.
    fn run_exact(engine: &AnalysisEngine, net: &Net) -> (Analysis, StageLedger) {
        let store = &engine.caches().skeletons;
        let lumped = engine.config().lump.enabled();
        let shape = Shape::of(net);
        let (data, ledger) = exact(store, net, engine.config(), lumped, shape.as_ref()).unwrap();
        let data = Arc::new(data);
        (Analysis { data }, ledger)
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

    /// Every exact run hands back its ledger beside its measures — counts
    /// equal to what the analysis itself reports — and the engine adds it
    /// to the process totals.
    #[test]
    fn stage_ledger_travels_with_the_analysis() {
        let _gate = crate::test_serial();
        let net = sym2(8.0);
        for lump in [LumpSel::On, LumpSel::Off] {
            let engine = lump_engine(lump).with_cache(8);
            let (fresh, ledger) = run_exact(&engine, &net);
            assert_eq!(ledger.states, fresh.states() as u64);
            assert_eq!(ledger.sweeps, fresh.iterations().unwrap() as u64);
            assert!(ledger.edges >= ledger.states);
            // One phase per lumped state; the raw build adds the initial one.
            let initial_phase = u64::from(lump == LumpSel::Off);
            assert_eq!(ledger.phase_calls, ledger.states + initial_phase);
            assert!(ledger.phase_configs > ledger.phase_calls);
            assert!(ledger.phase_hits <= ledger.phase_calls);
            assert!(ledger.bfs_s > 0.0 && ledger.solve_s > 0.0);
            assert_eq!(ledger.delump_s > 0.0, lump == LumpSel::On);
            let before = stage_totals();
            engine.analyze(&net).unwrap();
            let after = stage_totals();
            assert!(after.phase_configs >= before.phase_configs + ledger.phase_configs);
            assert!(after.states >= before.states + ledger.states);
        }

        // A lumped chain too large to solve directly drops its markings and
        // out-edges before the sweeps. The ledger counts its edges as built,
        // and every measure is that of a solve of the whole chain.
        let net = served_ring(4.0);
        let (analysis, ledger) = run_exact(&lump_engine(LumpSel::On).with_cache(0), &net);
        let (whole, _) = crate::lump::lumped_chain(&net, 10_000, false).unwrap();
        assert!(whole.graph.state_count() > crate::solve::DIRECT_MAX_STATES);
        assert_eq!(analysis.states(), whole.graph.state_count());
        assert_eq!(ledger.edges, whole.graph.edge_count() as u64);
        let solution = whole.graph.solve(1e-12, 100_000).unwrap();
        assert_eq!(analysis.iterations(), Some(solution.iterations()));
        let (mean_tokens, transition_usage) = crate::lump::delump(&whole.rows, &solution);
        for (p, tokens) in mean_tokens.into_iter().enumerate() {
            assert_eq!(analysis.mean_tokens(PlaceId(p)).to_bits(), tokens.to_bits());
        }
        for (t, usage) in transition_usage.into_iter().enumerate() {
            assert_eq!(
                analysis.transition_usage(TransId(t)).to_bits(),
                usage.to_bits()
            );
        }
    }

    /// A sweep over one stage's mean is one shape at many rates: the
    /// engine records it on the second point and re-prices every later
    /// one, and each result has the bits a store-less engine computes.
    /// The store is private to the engine.
    #[test]
    fn a_rate_sweep_is_re_priced_to_the_same_bits() {
        let engine = lump_engine(LumpSel::On).with_cache(64);
        let fresh = lump_engine(LumpSel::On).with_cache(0);
        for (i, m) in [3.0, 4.0, 5.5, 7.25, 9.0].into_iter().enumerate() {
            let (a, ledger) = run_exact(&engine, &sym2(m));
            let (b, fresh_ledger) = run_exact(&fresh, &sym2(m));
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
            assert_eq!(ledger.phase_configs, fresh_ledger.phase_configs);
        }
        assert_eq!(engine.caches().store_stats().skeletons, 1);
        assert_eq!(fresh.caches().store_stats(), StoreStats::default());
    }

    /// `T2` alone, delay 2: a net lumping declines.
    fn hetero() -> Net {
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
        net
    }

    /// A raw analysis — lumping off, or declined — takes the public
    /// pipeline: it has the bits of `net.reachability(..)?.solve(..)`, and
    /// neither the solution cache nor the skeleton store keeps it, not even
    /// across a rate sweep of one shape.
    #[test]
    fn raw_analyses_take_the_public_pipeline() {
        let sweep = [3.0, 4.0, 5.5, 7.25].map(sym2);
        let declined = [hetero()];
        for (lump, nets) in [(LumpSel::Off, &sweep[..]), (LumpSel::On, &declined[..])] {
            let engine = lump_engine(lump).with_cache(64);
            for (i, net) in nets.iter().enumerate() {
                let a = engine.analyze(net).unwrap();
                let graph = net.reachability(10_000).unwrap();
                let want = graph.solve(1e-12, 100_000).unwrap();
                let places = (0..net.place_count()).map(PlaceId);
                let tokens = places.map(|p| (a.mean_tokens(p), graph.mean_tokens(&want, p)));
                let usage = (0..net.transition_count()).map(TransId);
                let usage = usage.map(|t| (a.transition_usage(t), want.transition_usage(t)));
                let residual = [(a.residual().unwrap(), want.residual())];
                for (got, expected) in tokens.chain(usage).chain(residual) {
                    assert_eq!(got.to_bits(), expected.to_bits());
                }
                let shape = (a.lumped(), a.states(), a.iterations());
                assert_eq!(shape, (false, graph.state_count(), Some(want.iterations())));
                assert_eq!(engine.cache_stats().misses, i as u64 + 1);
            }
            assert_eq!(engine.cache_stats().entries, 0);
            assert_eq!(engine.caches().store_stats(), StoreStats::default());
        }
    }

    #[test]
    fn lumped_and_raw_results_key_separately() {
        let _gate = crate::test_serial();
        clear_cache();
        let net = sym2(9.0);
        lump_engine(LumpSel::Off).analyze(&net).unwrap();
        let before = cache_stats();
        // A lumping engine must not be served the raw result...
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
        let net = hetero();
        let on = lump_engine(LumpSel::On).analyze(&net).unwrap();
        assert!(!on.lumped());
        let off = lump_engine(LumpSel::Off).analyze(&net).unwrap();
        assert_eq!(
            on.resource_usage("lambda").unwrap().to_bits(),
            off.resource_usage("lambda").unwrap().to_bits(),
            "declined lumping must leave the raw pipeline untouched"
        );
        // Both raw: neither is filed, so both were misses.
        let s = cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
    }
}

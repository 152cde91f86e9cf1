//! Reachability-graph construction: the embedded Markov chain of the GTPN.
//!
//! Execution alternates two phases, following Holliday & Vernon's semantics:
//!
//! 1. **Instantaneous firing phase.** While any transition is enabled, one is
//!    selected with probability proportional to its (state-dependent)
//!    frequency; its enabling tokens are removed. A zero-delay transition
//!    completes immediately (its outputs are deposited and may enable further
//!    transitions); a timed transition becomes *in progress* for its delay.
//!    The phase ends when no transition is enabled, yielding a distribution
//!    over *tangible* states. Zero-delay (vanishing) activity is thereby
//!    eliminated inline and never appears as a Markov state.
//! 2. **Time advance.** The tangible state holds for `dt = min` remaining
//!    firing time; completing transitions deposit their outputs and phase 1
//!    runs again.
//!
//! Frequency expressions are evaluated against the *current residual*
//! marking and the firing multiset including transitions already selected in
//! the same round — so the paper's gates such as "the host is not busy
//! processing an interrupt (`!T4 & !T5`)" behave as intended even within a
//! single selection round.
//!
//! # The expansion pipeline
//!
//! Everything between the net and the solver is flat. The net is compiled
//! once per build ([`CompiledNet`]); the instantaneous phase
//! ([`instantaneous_phase`]) runs on fixed-stride `u32` keys in reusable
//! buffers ([`PhaseScratch`]), and a lumped build remembers each expanded
//! state's phase and fold by start class ([`PhaseMemo`]); states live
//! once, in the graph's own marking arena and firing lists, found through
//! an [`IndexTable`]; and edges are stored in compressed-sparse-row form.
//! One breadth-first driver ([`explore`]) serves both the raw chain built
//! here and the lumped chain of [`crate::lump`].

use crate::compiled::CompiledNet;
use crate::engine::StageLedger;
use crate::error::GtpnError;
use crate::intern::{hash_words, IndexTable};
use crate::lump::{RowIndex, Rows};
use crate::net::{Net, PlaceId, TransId};
use crate::phase::{instantaneous_phase, pending_ids, PhaseMemo, PhaseScratch};
use crate::solve::Solution;
use std::time::Instant;

/// The embedded Markov chain over tangible states of a [`Net`].
///
/// States and edges are stored flat: one marking arena, one firing list
/// and one edge list, each indexed by per-state offsets.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    pub(crate) net: Net,
    /// State `i`'s tokens per place at `[i·P, (i+1)·P)`, `P` places.
    pub(crate) markings: Vec<u32>,
    /// State `i`'s in-progress firings `(transition, remaining time)`,
    /// sorted, at `firings[firing_offsets[i]..firing_offsets[i + 1]]`.
    pub(crate) firing_offsets: Vec<usize>,
    pub(crate) firings: Vec<(TransId, u64)>,
    /// State `i`'s out-edges `(successor, probability)` at
    /// `edges[edge_offsets[i]..edge_offsets[i + 1]]`.
    pub(crate) edge_offsets: Vec<usize>,
    pub(crate) edges: Vec<(usize, f64)>,
    /// Holding time of each tangible state.
    pub(crate) sojourn: Vec<u64>,
    /// Whether each transition was ever selected to fire during expansion
    /// (covers zero-delay transitions, which never appear in states).
    pub(crate) fired: Vec<bool>,
    /// What building the chain cost: the build half of its ledger, whose
    /// solve half the engine fills.
    pub(crate) build: StageLedger,
}

impl Net {
    /// Builds the reachability graph (embedded Markov chain) of this net.
    ///
    /// # Errors
    ///
    /// * [`GtpnError::StateSpaceExceeded`] if more than `max_states` tangible
    ///   states are reachable.
    /// * [`GtpnError::Deadlock`] if a reachable state has no in-progress
    ///   firing and no enabled transition.
    /// * [`GtpnError::ZeroDelayDivergence`] if zero-delay transitions cycle
    ///   forever.
    /// * [`GtpnError::BadFrequency`] if a frequency expression evaluates to
    ///   a negative or non-finite value.
    /// * [`GtpnError::UnknownPlace`] / [`GtpnError::UnknownTransition`] if a
    ///   frequency expression names a place or transition outside the net.
    pub fn reachability(&self, max_states: usize) -> Result<ReachabilityGraph, GtpnError> {
        // The initial instantaneous phase from the initial marking seeds the
        // chain. (The initial distribution itself is irrelevant for steady
        // state.)
        let seed = |compiled: &CompiledNet, w: &mut Worker, out: &mut Expansion| {
            w.marking = self.initial_marking();
            w.carried.clear();
            expand_from(compiled, w, out)
        };
        explore(self, max_states, None, seed, expand_state).map(|(graph, _, _)| graph)
    }
}

/// Expands one tangible state: advance time by its sojourn, then run the
/// instantaneous phase.
fn expand_state(
    net: &CompiledNet,
    graph: &ReachabilityGraph,
    si: usize,
    w: &mut Worker,
    out: &mut Expansion,
) -> Result<(), GtpnError> {
    let firings = graph.firings(si);
    let dt = match firings.iter().map(|&(_, r)| r).min() {
        Some(dt) => dt,
        None => return Err(GtpnError::Deadlock { state: si }),
    };
    // Advance time: completing firings deposit outputs.
    w.marking.clear();
    w.marking.extend_from_slice(graph.marking(si));
    w.carried.clear();
    for &(t, r) in firings {
        if r == dt {
            for &(p, m) in &net.transitions[t.0].outputs {
                w.marking[p] += m;
            }
        } else {
            w.carried.push((t, r - dt));
        }
    }
    expand_from(net, w, out)?;
    out.finish_state(dt, &[]);
    Ok(())
}

/// Runs the instantaneous phase from `w.marking` with `w.carried` in
/// progress and records every outcome as a successor state: its marking,
/// and the carried firings plus the newly started ones, canonically sorted.
fn expand_from(net: &CompiledNet, w: &mut Worker, out: &mut Expansion) -> Result<(), GtpnError> {
    instantaneous_phase(net, &w.marking, &w.carried, &mut w.fired, &mut w.phase)?;
    for (m, pending, p) in w.phase.outcomes(net.places) {
        w.firings.clear();
        w.firings.extend_from_slice(&w.carried);
        w.firings
            .extend(pending_ids(pending).map(|t| (TransId(t), net.transitions[t].delay)));
        w.firings.sort_unstable();
        out.push_successor(m, &w.firings, p, state_hash(m, &w.firings));
    }
    Ok(())
}

/// The hash a state is interned under.
pub(crate) fn state_hash(marking: &[u32], firings: &[(TransId, u64)]) -> u64 {
    firings.iter().fold(hash_words(0, marking), |h, &(t, r)| {
        hash_words(h, &[t.0 as u32, r as u32, (r >> 32) as u32])
    })
}

/// A build's expansion state: the kernel's buffers, the phase memo of a
/// lumped build, the `fired` record, and scratch the expanders reuse from
/// state to state.
pub(crate) struct Worker {
    pub(crate) phase: PhaseScratch,
    pub(crate) memo: PhaseMemo,
    pub(crate) fired: Vec<bool>,
    pub(crate) marking: Vec<u32>,
    pub(crate) carried: Vec<(TransId, u64)>,
    pub(crate) firings: Vec<(TransId, u64)>,
    /// The lumped fold's scratch: first-seen de-duplication of one state's
    /// successors, and its row of conditional expectations.
    pub(crate) seen: IndexTable,
    pub(crate) row: Vec<f64>,
}

impl Worker {
    pub(crate) fn new(net: &CompiledNet) -> Worker {
        Worker {
            phase: PhaseScratch::new(net),
            memo: PhaseMemo::new(net),
            fired: vec![false; net.transitions.len()],
            marking: Vec::new(),
            carried: Vec::new(),
            firings: Vec::new(),
            seen: IndexTable::new(),
            row: Vec::new(),
        }
    }
}

/// One expanded state's flat successor list — what an expander hands the
/// merge.
#[derive(Default)]
pub(crate) struct Expansion {
    places: usize,
    /// The state's sojourn.
    sojourn: u64,
    /// Per successor: marking (fixed stride), end of its firing list,
    /// probability and intern hash.
    markings: Vec<u32>,
    firing_ends: Vec<usize>,
    firings: Vec<(TransId, u64)>,
    probs: Vec<f64>,
    hashes: Vec<u64>,
    /// The state's row of conditional expectations (lumped builds; empty
    /// otherwise).
    row: Vec<f64>,
    /// The state's tape (recording builds).
    pub(crate) tape: Vec<u32>,
}

impl Expansion {
    pub(crate) fn new(places: usize) -> Expansion {
        Expansion {
            places,
            ..Expansion::default()
        }
    }

    fn clear(&mut self) {
        self.sojourn = 0;
        self.markings.clear();
        self.firing_ends.clear();
        self.firings.clear();
        self.probs.clear();
        self.hashes.clear();
        self.row.clear();
        self.tape.clear();
    }

    /// Successors recorded so far.
    pub(crate) fn successor_count(&self) -> usize {
        self.probs.len()
    }

    pub(crate) fn successor_marking(&self, k: usize) -> &[u32] {
        &self.markings[k * self.places..(k + 1) * self.places]
    }

    fn successor_firings(&self, k: usize) -> &[(TransId, u64)] {
        let start = if k == 0 { 0 } else { self.firing_ends[k - 1] };
        &self.firings[start..self.firing_ends[k]]
    }

    pub(crate) fn successor_hash(&self, k: usize) -> u64 {
        self.hashes[k]
    }

    pub(crate) fn successor_probability(&self, k: usize) -> f64 {
        self.probs[k]
    }

    pub(crate) fn add_probability(&mut self, k: usize, p: f64) {
        self.probs[k] += p;
    }

    pub(crate) fn push_successor(
        &mut self,
        marking: &[u32],
        firings: &[(TransId, u64)],
        p: f64,
        hash: u64,
    ) {
        self.markings.extend_from_slice(marking);
        self.firings.extend_from_slice(firings);
        self.firing_ends.push(self.firings.len());
        self.probs.push(p);
        self.hashes.push(hash);
    }

    /// Closes the state: its sojourn and its row.
    pub(crate) fn finish_state(&mut self, sojourn: u64, row: &[f64]) {
        self.sojourn = sojourn;
        self.row.extend_from_slice(row);
    }
}

/// A graph under construction: the graph itself, the index that finds its
/// states, and the state budget.
struct Builder {
    graph: ReachabilityGraph,
    table: IndexTable,
    max_states: usize,
    /// A lumped build's rows of conditional expectations, one per expanded
    /// state.
    rows: Option<RowIndex>,
    /// Every expanded state's tape, in state order.
    tape: Vec<u32>,
}

impl Builder {
    /// The number of the state `(marking, firings)`, appended to the graph
    /// if new. State number == discovery order.
    fn intern(
        &mut self,
        hash: u64,
        marking: &[u32],
        firings: &[(TransId, u64)],
    ) -> Result<usize, GtpnError> {
        let Builder { graph, table, .. } = self;
        if let Some(i) = table.find(hash, |i| {
            graph.marking(i) == marking && graph.firings(i) == firings
        }) {
            return Ok(i);
        }
        let n = graph.state_count();
        if n >= self.max_states {
            return Err(GtpnError::StateSpaceExceeded {
                limit: self.max_states,
            });
        }
        graph.markings.extend_from_slice(marking);
        graph.firings.extend_from_slice(firings);
        graph.firing_offsets.push(graph.firings.len());
        let graph = &*graph;
        table.insert(hash, n, |i| state_hash(graph.marking(i), graph.firings(i)));
        Ok(n)
    }

    /// Interns `out`'s successors in order. With `record_edges`, `out` is
    /// the next unexpanded state of the graph and gets its sojourn, edges
    /// and row.
    fn merge(&mut self, out: &Expansion, record_edges: bool) -> Result<(), GtpnError> {
        for k in 0..out.successor_count() {
            let j = self.intern(
                out.hashes[k],
                out.successor_marking(k),
                out.successor_firings(k),
            )?;
            if record_edges {
                self.graph.edges.push((j, out.probs[k]));
            }
        }
        if record_edges {
            self.graph.sojourn.push(out.sojourn);
            self.graph.edge_offsets.push(self.graph.edges.len());
            if let Some(rows) = &mut self.rows {
                rows.push(&out.row);
            }
        }
        self.tape.extend_from_slice(&out.tape);
        Ok(())
    }
}

/// Records state `i`'s successors into an [`Expansion`]: the per-state half
/// of a build.
pub(crate) type ExpandFn = fn(
    &CompiledNet,
    &ReachabilityGraph,
    usize,
    &mut Worker,
    &mut Expansion,
) -> Result<(), GtpnError>;

/// Breadth-first construction of a chain, shared by the raw build above and
/// the lumped build of [`crate::lump`].
///
/// `seed` fills an expansion whose successors are the chain's first states;
/// `expand(net, graph, i, worker, out)` then records state `i`'s successors
/// (and, in a lumped build, which passes `rows`, its row of conditional
/// expectations) with
/// [`Expansion::push_successor`] / [`Expansion::finish_state`]. States are
/// numbered in discovery order and expanded in that order, each streamed
/// straight into the merge; the first state that fails ends the build with
/// its error.
///
/// Returns the graph, the rows (empty unless `rows` was given) and the tape
/// (empty unless the expanders record).
pub(crate) fn explore(
    net: &Net,
    max_states: usize,
    rows: Option<RowIndex>,
    seed: impl FnOnce(&CompiledNet, &mut Worker, &mut Expansion) -> Result<(), GtpnError>,
    expand: ExpandFn,
) -> Result<(ReachabilityGraph, Rows, Vec<u32>), GtpnError> {
    net.validate()?;
    let started = Instant::now();
    let compiled = CompiledNet::new(net);
    let compiled_at = Instant::now();
    let places = compiled.places;
    let mut b = Builder {
        graph: ReachabilityGraph {
            net: net.clone(),
            markings: Vec::new(),
            firing_offsets: vec![0],
            firings: Vec::new(),
            edge_offsets: vec![0],
            edges: Vec::new(),
            sojourn: Vec::new(),
            fired: Vec::new(),
            build: StageLedger::default(),
        },
        table: IndexTable::new(),
        max_states,
        rows,
        tape: Vec::new(),
    };
    let mut w = Worker::new(&compiled);
    let mut out = Expansion::new(places);

    seed(&compiled, &mut w, &mut out)?;
    b.merge(&out, false)?;

    let mut si = 0;
    while si < b.graph.state_count() {
        out.clear();
        expand(&compiled, &b.graph, si, &mut w, &mut out)?;
        b.merge(&out, true)?;
        si += 1;
    }

    let Builder {
        mut graph,
        rows,
        tape,
        ..
    } = b;
    // A finished graph never grows again and may sit in a byte-bounded
    // cache for the rest of the run: give the growth slack back.
    graph.markings.shrink_to_fit();
    graph.firing_offsets.shrink_to_fit();
    graph.firings.shrink_to_fit();
    graph.edge_offsets.shrink_to_fit();
    graph.edges.shrink_to_fit();
    graph.sojourn.shrink_to_fit();
    let rows = rows.map_or_else(Rows::default, RowIndex::finish);
    graph.build.phase_calls = w.phase.calls;
    graph.build.phase_configs = w.phase.configs;
    graph.build.phase_hits = w.memo.hits;
    graph.fired = w.fired;
    graph.build.net_compile_s = (compiled_at - started).as_secs_f64();
    graph.build.bfs_s = compiled_at.elapsed().as_secs_f64();
    Ok((graph, rows, tape))
}

impl ReachabilityGraph {
    /// Number of tangible states.
    pub fn state_count(&self) -> usize {
        self.firing_offsets.len() - 1
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Tokens per place of state `i`, indexed by `PlaceId`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn marking(&self, i: usize) -> &[u32] {
        let places = self.net.place_count();
        &self.markings[i * places..(i + 1) * places]
    }

    /// In-progress firings `(transition, remaining time)` of state `i`,
    /// sorted.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn firings(&self, i: usize) -> &[(TransId, u64)] {
        &self.firings[self.firing_offsets[i]..self.firing_offsets[i + 1]]
    }

    /// Holding time of each tangible state.
    pub fn sojourns(&self) -> &[u64] {
        &self.sojourn
    }

    /// Out-edges `(successor, probability)` of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn out_edges(&self, i: usize) -> &[(usize, f64)] {
        &self.edges[self.edge_offsets[i]..self.edge_offsets[i + 1]]
    }

    /// Solves for the steady state; see [`Solution`].
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::NoConvergence`] when the Gauss–Seidel sweeps do
    /// not reach `tolerance` within `max_sweeps`.
    pub fn solve(&self, tolerance: f64, max_sweeps: usize) -> Result<Solution, GtpnError> {
        Solution::solve(self, tolerance, max_sweeps)
    }

    /// Frees the markings, for a solve that reads none: a lumped chain's
    /// measures come from its rows. [`marking`](Self::marking) panics
    /// afterwards.
    pub(crate) fn drop_markings(&mut self) {
        release(&mut self.markings);
    }

    /// Frees the out-edges once the solver holds its own transpose.
    /// [`out_edges`](Self::out_edges) panics and
    /// [`edge_count`](Self::edge_count) is 0 afterwards.
    pub(crate) fn drop_edges(&mut self) {
        release(&mut self.edge_offsets);
        release(&mut self.edges);
    }

    /// The maximum reachable token count of `place` — its bound. A net is
    /// k-bounded when every place's bound is ≤ k. (Tokens held in transit by
    /// in-progress firings are not in any place and are not counted.)
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to the net.
    pub fn place_bound(&self, place: PlaceId) -> u32 {
        (0..self.state_count())
            .map(|i| self.marking(i)[place.0])
            .max()
            .unwrap_or(0)
    }

    /// Transitions that never fire in any reachable behavior — dead code in
    /// the model, usually a mis-wired arc or an unsatisfiable gate.
    pub fn dead_transitions(&self) -> Vec<TransId> {
        self.fired
            .iter()
            .enumerate()
            .filter(|&(_, &f)| !f)
            .map(|(i, _)| TransId(i))
            .collect()
    }

    /// Time-weighted mean number of tokens in `place` under `solution` —
    /// the measure behind the paper's `Queue`-place instrumentation
    /// (§6.7.2): combined with transition usages it yields the mean number
    /// of customers in a subsystem for Little's-law calculations.
    ///
    /// Tokens held by in-progress firings are *not* counted (they are in
    /// transit, not in the place); add the relevant transition usages for a
    /// customers-in-system count.
    pub(crate) fn mean_tokens(&self, solution: &Solution, place: PlaceId) -> f64 {
        if place.0 >= self.net.place_count() {
            return 0.0;
        }
        solution
            .state_probabilities()
            .iter()
            .enumerate()
            .map(|(i, &p)| p * f64::from(self.marking(i)[place.0]))
            .sum()
    }
}

/// Frees `v`'s memory ahead of the allocations of a solve: shrunk to one
/// element first, then dropped. glibc's allocator takes the size of a
/// freed block it had mapped on its own as its new threshold for mapping
/// blocks, so freeing the n = 12 chain's 15 MB of out-edges whole would
/// send every later block under 15 MB — the sweeps' vectors, Anderson's
/// window — to a heap it then trims only past 30 MB free: 12 MB more stays
/// resident until the process exits, and exiting takes 0.7 ms longer
/// (measured). Shrinking a mapped block remaps it, which moves no
/// threshold.
fn release<T>(v: &mut Vec<T>) {
    v.clear();
    v.shrink_to(1);
    *v = Vec::new();
}

/// Asserts that two builds are the same chain bit for bit: states, sojourns,
/// edges (probabilities by bit pattern), the fired record and the work
/// counts.
#[cfg(test)]
pub(crate) fn assert_graphs_identical(a: &ReachabilityGraph, b: &ReachabilityGraph) {
    assert_eq!(a.markings, b.markings);
    assert_eq!(a.firing_offsets, b.firing_offsets);
    assert_eq!(a.firings, b.firings);
    assert_eq!(a.sojourn, b.sojourn);
    assert_eq!(a.fired, b.fired);
    assert_eq!(a.edge_offsets, b.edge_offsets);
    for (&(i, p), &(j, q)) in a.edges.iter().zip(&b.edges) {
        assert_eq!(i, j);
        assert_eq!(p.to_bits(), q.to_bits(), "edge probability drifted");
    }
    assert_eq!(a.build.phase_calls, b.build.phase_calls);
    assert_eq!(a.build.phase_configs, b.build.phase_configs);
}

/// The allocation-per-configuration kernel and serial build this module ran
/// before the flat pipeline, kept verbatim as the reference the differential
/// tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use crate::error::GtpnError;
    use crate::expr::EvalContext;
    use crate::net::{Net, TransId};
    use crate::phase::{MAX_PHASE_ROUNDS, PROB_FLOOR};
    use crate::state::{Marking, State};
    use std::collections::{BTreeMap, HashMap};

    pub(crate) fn instantaneous_phase(
        net: &Net,
        marking: Marking,
        carried: Vec<(TransId, u64)>,
        fired: &mut [bool],
    ) -> Result<Vec<(State, f64)>, GtpnError> {
        let tcount = net.transitions.len();
        let mut carried_counts = vec![0u32; tcount];
        for &(t, _) in &carried {
            carried_counts[t.0] += 1;
        }

        // Frontier configurations: (marking, newly started firings) -> probability.
        // Newly started firings are kept sorted for a canonical key. BTreeMaps
        // keep iteration — and therefore state discovery order, and therefore
        // the Gauss–Seidel sweep order — fully deterministic across runs.
        let mut frontier: BTreeMap<(Marking, Vec<(TransId, u64)>), f64> = BTreeMap::new();
        frontier.insert((marking, Vec::new()), 1.0);
        let mut results: BTreeMap<(Marking, Vec<(TransId, u64)>), f64> = BTreeMap::new();

        let mut firing_counts = vec![0u32; tcount];
        for round in 0.. {
            if round > MAX_PHASE_ROUNDS {
                return Err(GtpnError::ZeroDelayDivergence);
            }
            if frontier.is_empty() {
                break;
            }
            let mut next: BTreeMap<(Marking, Vec<(TransId, u64)>), f64> = BTreeMap::new();
            for ((m, pending), prob) in std::mem::take(&mut frontier) {
                // firing counts = carried + pending
                firing_counts.copy_from_slice(&carried_counts);
                for &(t, _) in &pending {
                    firing_counts[t.0] += 1;
                }
                let ctx = EvalContext::new(&m, &firing_counts);

                // Collect enabled transitions and their weights.
                let mut enabled: Vec<(usize, f64)> = Vec::new();
                let mut total = 0.0;
                for (ti, t) in net.transitions.iter().enumerate() {
                    // Multigraph: repeated arcs from the same place accumulate,
                    // so check the aggregate demand per place.
                    let has_tokens = t.inputs.iter().all(|&(p, _)| {
                        let needed: u32 = t
                            .inputs
                            .iter()
                            .filter(|&&(q, _)| q == p)
                            .map(|&(_, mm)| mm)
                            .sum();
                        m[p.0] >= needed
                    });
                    if !has_tokens {
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
                    *results.entry((m, pending)).or_insert(0.0) += prob;
                    continue;
                }

                for (ti, w) in enabled {
                    let p = prob * w / total;
                    if p < PROB_FLOOR {
                        continue;
                    }
                    fired[ti] = true;
                    let t = &net.transitions[ti];
                    let mut m2 = m.clone();
                    for &(pl, mult) in &t.inputs {
                        m2[pl.0] -= mult;
                    }
                    let mut pending2 = pending.clone();
                    if t.delay == 0 {
                        // Completes immediately.
                        for &(pl, mult) in &t.outputs {
                            m2[pl.0] += mult;
                        }
                    } else {
                        pending2.push((TransId(ti), t.delay));
                        pending2.sort_unstable();
                    }
                    *next.entry((m2, pending2)).or_insert(0.0) += p;
                }
            }
            frontier = next;
        }

        let mut out = Vec::with_capacity(results.len());
        for ((m, pending), p) in results {
            let mut firings = carried.clone();
            firings.extend(pending);
            out.push((State::new(m, firings), p));
        }
        Ok(out)
    }

    /// Outcomes as the reference kernel lists them: states and probability
    /// bits.
    pub(crate) type Outcomes = Vec<(State, u64)>;

    /// The reference kernel's outcomes from `marking` with `carried` in
    /// progress, and the transitions it fired.
    pub(crate) fn outcomes(
        net: &Net,
        marking: &[u32],
        carried: &[(TransId, u64)],
    ) -> (Result<Outcomes, GtpnError>, Vec<bool>) {
        let mut fired = vec![false; net.transition_count()];
        let dist = instantaneous_phase(net, marking.to_vec(), carried.to_vec(), &mut fired);
        let outcomes = dist.map(|dist| {
            dist.into_iter()
                .map(|(s, p)| (s, p.to_bits()))
                .collect::<Vec<_>>()
        });
        (outcomes, fired)
    }

    /// The raw chain as nested vectors: states, out-edges, sojourns, fired.
    pub(crate) type Chain = (Vec<State>, Vec<Vec<(usize, f64)>>, Vec<u64>, Vec<bool>);

    /// The serial raw build: states interned in a `HashMap` in discovery
    /// order, each expanded in turn.
    pub(crate) fn reachability(net: &Net, max_states: usize) -> Result<Chain, GtpnError> {
        net.validate()?;
        let mut states: Vec<State> = Vec::new();
        let mut index: HashMap<State, usize> = HashMap::new();
        let mut edges: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut sojourn: Vec<u64> = Vec::new();
        let intern = |s: State,
                      states: &mut Vec<State>,
                      index: &mut HashMap<State, usize>|
         -> Result<usize, GtpnError> {
            if let Some(&i) = index.get(&s) {
                return Ok(i);
            }
            if states.len() >= max_states {
                return Err(GtpnError::StateSpaceExceeded { limit: max_states });
            }
            states.push(s.clone());
            index.insert(s, states.len() - 1);
            Ok(states.len() - 1)
        };

        let mut fired = vec![false; net.transitions.len()];
        for (s, _p) in instantaneous_phase(net, net.initial_marking(), Vec::new(), &mut fired)? {
            intern(s, &mut states, &mut index)?;
        }
        let mut si = 0;
        while si < states.len() {
            let state = states[si].clone();
            let dt = match state.time_to_next_completion() {
                Some(dt) => dt,
                None => return Err(GtpnError::Deadlock { state: si }),
            };
            // Advance time: completing firings deposit outputs.
            let mut marking = state.marking.clone();
            let mut remaining: Vec<(TransId, u64)> = Vec::new();
            for &(t, r) in &state.firings {
                if r == dt {
                    for &(p, m) in &net.transitions[t.0].outputs {
                        marking[p.0] += m;
                    }
                } else {
                    remaining.push((t, r - dt));
                }
            }
            let dist = instantaneous_phase(net, marking, remaining, &mut fired)?;
            sojourn.push(dt);
            let mut out: Vec<(usize, f64)> = Vec::with_capacity(dist.len());
            for (s, p) in dist {
                out.push((intern(s, &mut states, &mut index)?, p));
            }
            edges.push(out);
            si += 1;
        }
        Ok((states, edges, sojourn, fired))
    }
}

/// Random small nets for the differential tests, here and in
/// [`crate::lump`]: zero-delay chains, multigraph arcs, gated and
/// token-dependent frequencies, mixed delays, frequencies small enough to
/// hit [`PROB_FLOOR`], and the occasional negative one.
#[cfg(test)]
pub(crate) mod arbitrary {
    use crate::expr::Expr;
    use crate::net::{Net, PlaceId, TransId, Transition};
    use proptest::prelude::*;

    /// `(delay pick, input arcs, output arcs, (frequency kind, operand, weight))`
    /// with place and transition picks reduced modulo the net's sizes. A
    /// transition with no output arcs moves its input tokens one place
    /// along instead, so most nets keep their tokens circulating.
    pub(crate) type TransitionSpec = (
        usize,
        Vec<(usize, u32)>,
        Vec<(usize, u32)>,
        (u8, usize, f64),
    );

    pub(crate) fn transitions() -> impl Strategy<Value = Vec<TransitionSpec>> {
        let arcs = |sizes| proptest::collection::vec((0usize..60, 1u32..3), sizes);
        let outputs = prop_oneof![arcs(0..=0), arcs(0..=0), arcs(1..=2)];
        proptest::collection::vec(
            (
                0usize..6,
                arcs(1..=3),
                outputs,
                (0u8..24, 0usize..60, 0.05f64..4.0),
            ),
            1..7,
        )
    }

    pub(crate) fn initial() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0u32..4, 2..6)
    }

    /// Builds the net; `delays[pick]` is each transition's delay. Zero-delay
    /// transitions only move tokens to strictly higher-numbered places, so
    /// no random net has a productive zero-delay cycle (the divergence case
    /// is a test of its own).
    pub(crate) fn net(initial: &[u32], specs: &[TransitionSpec], delays: [u64; 6]) -> Net {
        let mut net = Net::new("arbitrary");
        let places: Vec<PlaceId> = initial
            .iter()
            .enumerate()
            .map(|(i, &tokens)| net.add_place(format!("P{i}"), tokens + u32::from(i == 0)))
            .collect();
        let n = places.len();
        for (ti, (pick, inputs, outputs, (kind, operand, w))) in specs.iter().enumerate() {
            let highest = inputs.iter().map(|&(p, _)| p % n).max().unwrap_or(0);
            // A zero-delay transition needs a higher place to move to.
            let delay = if highest + 1 < n {
                delays[*pick]
            } else {
                delays[*pick].max(1)
            };
            let mut t = Transition::new(format!("T{ti}")).delay(delay);
            for &(p, mult) in inputs {
                t = t.input(places[p % n], mult);
            }
            let moved: Vec<(usize, u32)>;
            let outputs = if outputs.is_empty() {
                moved = inputs.iter().map(|&(p, mult)| (p % n + 1, mult)).collect();
                &moved
            } else {
                outputs
            };
            // As many tokens out as in: the token count is invariant, so
            // phase lengths and the state space stay bounded and few nets
            // starve. The last arc carries whatever the others left.
            let mut left: u32 = inputs.iter().map(|&(_, mult)| mult).sum();
            for (k, &(p, mult)) in outputs.iter().enumerate() {
                let to = if delay > 0 {
                    p % n
                } else {
                    highest + 1 + p % (n - highest - 1)
                };
                let mult = if k + 1 == outputs.len() {
                    left
                } else {
                    mult.min(left)
                };
                left -= mult;
                if mult > 0 {
                    t = t.output(places[to], mult);
                }
            }
            let w = *w;
            let place = places[operand % n];
            let frequency = match kind {
                0..=9 => Expr::constant(w),
                10 | 11 => Expr::constant(0.0),
                12 | 13 => Expr::constant(1e-305),
                14..=16 => Expr::gate(
                    Expr::not_firing(TransId(operand % specs.len())),
                    Expr::constant(w),
                ),
                17..=19 => Expr::Mul(Box::new(Expr::Tokens(place)), Box::new(Expr::constant(w))),
                20..=22 => Expr::If(
                    Box::new(Expr::place_empty(place)),
                    Box::new(Expr::constant(w)),
                    Box::new(Expr::constant(2.0 * w)),
                ),
                _ => Expr::constant(-w),
            };
            net.add_transition(t.frequency(frequency)).unwrap();
        }
        // A place nothing consumes from is where tokens go to die, and most
        // random nets would deadlock within a few states: drain each one
        // into its neighbour.
        for (i, &place) in places.iter().enumerate() {
            if !specs
                .iter()
                .any(|(_, inputs, ..)| inputs.iter().any(|&(p, _)| p % n == i))
            {
                net.add_transition(
                    Transition::new(format!("D{i}"))
                        .delay(1)
                        .input(place, 1)
                        .output(places[(i + 1) % n], 1),
                )
                .unwrap();
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::net::Transition;
    use crate::phase::INITIAL_PENDING_CAP;
    use proptest::prelude::*;

    /// Runs both kernels from `marking` with `carried` in progress and
    /// asserts the same outcome list (states, probability bits), the same
    /// fired record and the same error.
    fn assert_kernels_agree(
        net: &Net,
        compiled: &CompiledNet,
        scratch: &mut PhaseScratch,
        marking: &[u32],
        carried: &[(TransId, u64)],
    ) {
        let (want, want_fired) = reference::outcomes(net, marking, carried);
        let mut fired = vec![false; net.transition_count()];
        let got = instantaneous_phase(compiled, marking, carried, &mut fired, scratch)
            .map(|()| scratch.outcome_states(net, carried));
        assert_eq!(got, want, "from {marking:?} carrying {carried:?}");
        assert_eq!(fired, want_fired, "from {marking:?} carrying {carried:?}");
    }

    /// Asserts the flat build of `net` is the reference build: numbering,
    /// firings, sojourns, edge bits, fired record — or the same error. The
    /// raw build runs every phase: the phase memo serves none.
    fn assert_builds_agree(net: &Net, max_states: usize) {
        let got = net.reachability(max_states);
        let want = reference::reachability(net, max_states);
        match (got, want) {
            (Ok(g), Ok((states, edges, sojourn, fired))) => {
                assert_eq!(g.build.phase_hits, 0, "a raw build touched the memo");
                assert_eq!(g.state_count(), states.len());
                for (i, want) in states.iter().enumerate() {
                    assert_eq!(
                        g.marking(i),
                        want.marking.as_slice(),
                        "marking of state {i}"
                    );
                    assert_eq!(
                        g.firings(i),
                        want.firings.as_slice(),
                        "firings of state {i}"
                    );
                }
                assert_eq!(g.sojourn, sojourn);
                assert_eq!(g.fired, fired);
                for (i, want) in edges.iter().enumerate() {
                    let got = g.out_edges(i);
                    assert_eq!(got.len(), want.len(), "out-degree of state {i}");
                    for (&(a, p), &(b, q)) in got.iter().zip(want) {
                        assert_eq!((a, p.to_bits()), (b, q.to_bits()), "edge of state {i}");
                    }
                }
                assert_eq!(g.edge_count(), edges.iter().map(Vec::len).sum::<usize>());
            }
            (got, want) => assert_eq!(got.err(), want.err()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The flat-key kernel is the `BTreeMap` kernel: from random start
        /// markings with random firings carried, on random small nets, both
        /// return the same outcome list bit for bit, the same fired record
        /// and the same error — and so do the whole builds on top of them
        /// (`Deadlock`, `StateSpaceExceeded` and `BadFrequency` included).
        #[test]
        fn flat_kernel_matches_reference(
            initial in arbitrary::initial(),
            specs in arbitrary::transitions(),
            starts in proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..4, 5),
                    proptest::collection::vec((0usize..60, 0u64..60), 0..4),
                ),
                1..4,
            ),
        ) {
            let net = arbitrary::net(&initial, &specs, [0, 0, 1, 1, 2, 3]);
            let compiled = CompiledNet::new(&net);
            // One scratch for every start: buffers must not leak state.
            let mut scratch = PhaseScratch::new(&compiled);
            for (marking, carried) in &starts {
                let carried: Vec<(TransId, u64)> = carried
                    .iter()
                    .map(|&(t, r)| (TransId(t % specs.len()), r))
                    .filter(|&(t, _)| net.transition_delay(t) > 0)
                    .map(|(t, r)| (t, 1 + r % net.transition_delay(t)))
                    .collect();
                assert_kernels_agree(
                    &net, &compiled, &mut scratch, &marking[..initial.len()], &carried,
                );
            }
            assert_builds_agree(&net, 300);
        }
    }

    /// Six tokens start six timed firings in one phase: the configuration
    /// key outgrows its initial pending capacity mid-phase and the
    /// re-laid-out buffers still produce the reference result.
    #[test]
    fn pending_capacity_grows_on_demand() {
        let mut net = Net::new("wide");
        let shared = net.add_place("Shared", 2);
        for k in 0..6 {
            let p = net.add_place(format!("P{k}"), 1);
            net.add_transition(
                Transition::new(format!("T{k}"))
                    .delay(1 + k % 3)
                    .frequency(Expr::constant(1.0 + k as f64))
                    .input(p, 1)
                    .output(p, 1),
            )
            .unwrap();
        }
        // Two more compete for `Shared`, so outcomes merge across orders.
        for k in 0..2 {
            net.add_transition(
                Transition::new(format!("S{k}"))
                    .delay(2)
                    .frequency(Expr::constant(0.5 + k as f64))
                    .input(shared, 1)
                    .output(shared, 1),
            )
            .unwrap();
        }
        let compiled = CompiledNet::new(&net);
        let mut scratch = PhaseScratch::new(&compiled);
        assert_kernels_agree(&net, &compiled, &mut scratch, &net.initial_marking(), &[]);
        assert!(
            scratch.cap > INITIAL_PENDING_CAP,
            "eight concurrent firings must overflow {INITIAL_PENDING_CAP} pending slots"
        );
        // The grown buffers serve the next phase unchanged.
        assert_kernels_agree(&net, &compiled, &mut scratch, &net.initial_marking(), &[]);
        assert_builds_agree(&net, 10_000);
    }

    /// A zero-delay loop racing a timed exit halves its mass every round:
    /// the same terminal key is reached in a thousand rounds (summed in
    /// round order) until the loop's mass falls through `PROB_FLOOR` and the
    /// phase ends. A zero-delay loop with no exit runs into
    /// `MAX_PHASE_ROUNDS` instead. Both kernels agree on both.
    #[test]
    fn probability_floor_and_divergence_match_reference() {
        let mut net = Net::new("floor");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("spin").delay(0).input(a, 1).output(a, 1))
            .unwrap();
        net.add_transition(Transition::new("exit").delay(1).input(a, 1).output(b, 1))
            .unwrap();
        let compiled = CompiledNet::new(&net);
        let mut scratch = PhaseScratch::new(&compiled);
        assert_kernels_agree(&net, &compiled, &mut scratch, &[1, 0], &[]);
        assert!(scratch.configs > 900, "the loop must run to the floor");

        let mut zeno = Net::new("zeno");
        let a = zeno.add_place("A", 1);
        zeno.add_transition(Transition::new("T").delay(0).input(a, 1).output(a, 1))
            .unwrap();
        let compiled = CompiledNet::new(&zeno);
        let mut scratch = PhaseScratch::new(&compiled);
        let mut fired = [false];
        let err = instantaneous_phase(&compiled, &[1], &[], &mut fired, &mut scratch).unwrap_err();
        assert_eq!(err, GtpnError::ZeroDelayDivergence);
        assert_kernels_agree(&zeno, &compiled, &mut scratch, &[1], &[]);
    }

    /// A single token looping through a delay-1 transition: one state with a
    /// self loop.
    #[test]
    fn trivial_cycle() {
        let mut net = Net::new("cycle");
        let p = net.add_place("P", 1);
        net.add_transition(Transition::new("T").delay(1).input(p, 1).output(p, 1))
            .unwrap();
        let g = net.reachability(100).unwrap();
        assert_eq!(g.state_count(), 1);
        assert_eq!(g.sojourns(), &[1]);
        assert_eq!(g.out_edges(0), &[(0, 1.0)]);
    }

    /// Geometric stage: exit freq 0.25, loop freq 0.75 — both reachable.
    #[test]
    fn geometric_branching() {
        let mut net = Net::new("geo");
        let p = net.add_place("P", 1);
        let q = net.add_place("Q", 0);
        net.add_transition(
            Transition::new("exit")
                .delay(1)
                .frequency(Expr::constant(0.25))
                .input(p, 1)
                .output(q, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("loop")
                .delay(1)
                .frequency(Expr::constant(0.75))
                .input(p, 1)
                .output(p, 1),
        )
        .unwrap();
        net.add_transition(Transition::new("recycle").delay(0).input(q, 1).output(p, 1))
            .unwrap();
        let g = net.reachability(100).unwrap();
        // Two tangible states: firing `exit` or firing `loop`.
        assert_eq!(g.state_count(), 2);
        for i in 0..2 {
            let probs: f64 = g.out_edges(i).iter().map(|&(_, p)| p).sum();
            assert!((probs - 1.0).abs() < 1e-12);
        }
    }

    /// Two independent tokens fire concurrently in one round.
    #[test]
    fn concurrent_firing() {
        let mut net = Net::new("conc");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 1);
        net.add_transition(Transition::new("TA").delay(2).input(a, 1).output(a, 1))
            .unwrap();
        net.add_transition(Transition::new("TB").delay(2).input(b, 1).output(b, 1))
            .unwrap();
        let g = net.reachability(100).unwrap();
        // Both transitions fire in lock step: a single state with both in
        // progress.
        assert_eq!(g.state_count(), 1);
        assert_eq!(g.firings(0).len(), 2);
    }

    /// Deadlock detection: token consumed, never returned.
    #[test]
    fn deadlock_detected() {
        let mut net = Net::new("dead");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("T").delay(1).input(a, 1).output(b, 1))
            .unwrap();
        let err = net.reachability(100).unwrap_err();
        assert!(matches!(err, GtpnError::Deadlock { .. }));
    }

    /// Zero-delay cycle producing tokens diverges and is reported.
    #[test]
    fn zero_delay_divergence_detected() {
        let mut net = Net::new("zeno");
        let a = net.add_place("A", 1);
        net.add_transition(Transition::new("T").delay(0).input(a, 1).output(a, 1))
            .unwrap();
        let err = net.reachability(100).unwrap_err();
        assert_eq!(err, GtpnError::ZeroDelayDivergence);
    }

    /// State budget enforcement.
    #[test]
    fn state_budget_enforced() {
        let mut net = Net::new("big");
        let a = net.add_place("A", 0);
        let b = net.add_place("B", 1);
        // Counter: every step adds a token to A — unbounded.
        net.add_transition(
            Transition::new("T")
                .delay(1)
                .input(b, 1)
                .output(b, 1)
                .output(a, 1),
        )
        .unwrap();
        let err = net.reachability(5).unwrap_err();
        assert!(matches!(err, GtpnError::StateSpaceExceeded { limit: 5 }));
    }

    /// Negative frequency is rejected.
    #[test]
    fn bad_frequency_rejected() {
        let mut net = Net::new("bad");
        let a = net.add_place("A", 1);
        net.add_transition(
            Transition::new("T")
                .delay(1)
                .frequency(Expr::constant(-1.0))
                .input(a, 1)
                .output(a, 1),
        )
        .unwrap();
        let err = net.reachability(100).unwrap_err();
        assert!(matches!(err, GtpnError::BadFrequency { .. }));
    }

    /// Gated transition: frequency 0 means "not enabled".
    #[test]
    fn zero_frequency_disables() {
        let mut net = Net::new("gate");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        // T1 is gated off whenever B is empty, so only T0 can fire.
        net.add_transition(Transition::new("T0").delay(1).input(a, 1).output(a, 1))
            .unwrap();
        net.add_transition(
            Transition::new("T1")
                .delay(1)
                .frequency(Expr::gate(
                    Expr::Not(Box::new(Expr::place_empty(crate::net::PlaceId(1)))),
                    Expr::constant(1.0),
                ))
                .input(a, 1)
                .output(b, 1),
        )
        .unwrap();
        let g = net.reachability(100).unwrap();
        assert_eq!(g.state_count(), 1);
        assert_eq!(g.firings(0)[0].0, TransId(0));
    }

    /// place_bound and dead_transitions on a small net. Tangible markings
    /// only show tokens that cannot move (everything fireable is already in
    /// progress), so a contended place's bound reflects the queue that
    /// builds behind the shared resource.
    #[test]
    fn analysis_bound_and_dead() {
        let mut net = Net::new("analysis");
        let a = net.add_place("A", 2);
        let host = net.add_place("Host", 1);
        let c = net.add_place("C", 0); // never marked
                                       // Two tokens compete for one Host: one waits in A at any time.
        net.add_transition(
            Transition::new("work")
                .delay(3)
                .input(a, 1)
                .input(host, 1)
                .output(a, 1)
                .output(host, 1),
        )
        .unwrap();
        // Dead: requires a token in C, which nothing produces.
        net.add_transition(Transition::new("dead").delay(1).input(c, 1).output(c, 1))
            .unwrap();
        let g = net.reachability(1000).unwrap();
        assert_eq!(g.place_bound(a), 1, "one token always queued behind Host");
        assert_eq!(g.place_bound(host), 0, "the Host token is always in use");
        assert_eq!(g.place_bound(c), 0);
        assert_eq!(g.dead_transitions(), vec![TransId(1)]);
    }

    /// Heterogeneous delays: a 3-tick and a 2-tick transition interleave.
    #[test]
    fn heterogeneous_delays() {
        let mut net = Net::new("hetero");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 1);
        net.add_transition(Transition::new("T3").delay(3).input(a, 1).output(a, 1))
            .unwrap();
        net.add_transition(Transition::new("T2").delay(2).input(b, 1).output(b, 1))
            .unwrap();
        let g = net.reachability(1000).unwrap();
        // The joint cycle has period lcm(3,2)=6 with states at relative
        // offsets: (3,2),(1,2)->dt1,(2,1),(1,2)... exact count: offsets of
        // remaining pairs reachable: (3,2),(1,2)? let's just require >1 and
        // all edges stochastic.
        assert!(g.state_count() >= 2);
        for i in 0..g.state_count() {
            let s: f64 = g.out_edges(i).iter().map(|&(_, p)| p).sum();
            assert!((s - 1.0).abs() < 1e-12, "state {i} not stochastic");
        }
    }
}

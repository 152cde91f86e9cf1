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
//! buffers ([`PhaseScratch`]), which also remember finished phases by
//! start class ([`PhaseMemo`]); states live once, in the graph's
//! own marking arena and firing lists, found through an [`IndexTable`];
//! and edges are stored in compressed-sparse-row form. One breadth-first
//! driver ([`explore`]) serves both the raw chain built here and the lumped
//! chain of [`crate::lump`].

use crate::compiled::CompiledNet;
use crate::error::GtpnError;
use crate::intern::{hash_words, IndexTable};
use crate::lump::{LumpedGraph, RecordedRows, RowIndex, RowReplay, Rows};
use crate::net::{Net, PlaceId, TransId};
use crate::solve::Solution;
use std::ops::Range;
use std::time::Instant;

/// Maximum number of sequential selection rounds inside one instantaneous
/// phase before we declare a zero-delay divergence.
const MAX_PHASE_ROUNDS: usize = 10_000;

/// Probability mass below which a branch is dropped (guards against floating
/// point dust; exact zero frequencies never reach this point).
const PROB_FLOOR: f64 = 1e-300;

/// Pending-firing slots a configuration key starts with; see
/// [`PhaseScratch`]. Grows on demand, so this bounds nothing.
const INITIAL_PENDING_CAP: usize = 4;

/// What building a graph cost — the build half of the engine's
/// [`StageLedger`](crate::engine::StageLedger). Seconds are wall-clock
/// around the whole stage (no timer runs inside the expansion kernel). A
/// re-priced chain ([`Skeleton::replay`]) carries its skeleton's phase
/// counts: they count the work the chain stands for, not the work its
/// replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct BuildStats {
    pub(crate) net_compile_s: f64,
    pub(crate) bfs_s: f64,
    /// Replaying a skeleton, the attempt included when it fell back.
    pub(crate) reprice_s: f64,
    /// Instantaneous phases run.
    pub(crate) phase_calls: u64,
    /// Configurations those phases expanded (terminal ones included).
    pub(crate) phase_configs: u64,
    /// Phases the phase memo served; 0 for a re-priced chain.
    pub(crate) phase_hits: u64,
    /// Lumped states whose fold the phase memo served too; 0 for a raw
    /// or re-priced chain.
    pub(crate) fold_hits: u64,
    /// 1 when the chain was re-priced from a skeleton.
    pub(crate) replays: u64,
    /// 1 when the build recorded a skeleton.
    pub(crate) records: u64,
    /// 1 when a replay fell back to this fresh build.
    pub(crate) fallbacks: u64,
}

/// The embedded Markov chain over tangible states of a [`Net`].
///
/// States and edges are stored flat: one marking arena, one firing list
/// and one edge list, each indexed by per-state offsets.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    pub(crate) net: Net,
    /// State `i`'s tokens per place at `[i·P, (i+1)·P)`, `P` places.
    markings: Vec<u32>,
    /// State `i`'s in-progress firings `(transition, remaining time)`,
    /// sorted, at `firings[firing_offsets[i]..firing_offsets[i + 1]]`.
    firing_offsets: Vec<usize>,
    firings: Vec<(TransId, u64)>,
    /// State `i`'s out-edges `(successor, probability)` at
    /// `edges[edge_offsets[i]..edge_offsets[i + 1]]`.
    edge_offsets: Vec<usize>,
    edges: Vec<(usize, f64)>,
    /// Holding time of each tangible state.
    pub(crate) sojourn: Vec<u64>,
    /// Whether each transition was ever selected to fire during expansion
    /// (covers zero-delay transitions, which never appear in states).
    pub(crate) fired: Vec<bool>,
    pub(crate) build: BuildStats,
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
    let class = instantaneous_phase::<false>(
        net,
        &w.marking,
        &w.carried,
        &mut w.fired,
        &mut w.phase,
        &mut out.tape,
    )?;
    // Only a lumped build keeps folds, so the scratch holds this phase's
    // outcomes.
    debug_assert!(!matches!(class, Class::Folded(_)), "a raw phase is folded");
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

/// A build's expansion state: the kernel's buffers, the `fired` record, and
/// scratch the expanders reuse from state to state.
pub(crate) struct Worker {
    pub(crate) phase: PhaseScratch,
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
    tape: Packed,
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
        for &word in &out.tape {
            self.tape.push(word.into());
        }
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
) -> Result<(ReachabilityGraph, Rows, Packed), GtpnError> {
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
            build: BuildStats::default(),
        },
        table: IndexTable::new(),
        max_states,
        rows,
        tape: Packed::default(),
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
    graph.build.phase_hits = w.phase.hits;
    graph.build.fold_hits = w.phase.fold_hits;
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

/// Fixed-stride configuration keys with their probabilities; the stride is
/// the owning [`PhaseScratch`]'s.
#[derive(Debug, Default)]
struct Configs {
    keys: Vec<u32>,
    probs: Vec<f64>,
}

impl Configs {
    fn clear(&mut self) {
        self.keys.clear();
        self.probs.clear();
    }

    /// Re-lays the keys out from `places + old_cap` to `places + new_cap`
    /// words, zero-filling the new pending slots.
    fn restride(&mut self, places: usize, old_cap: usize, new_cap: usize) {
        let old = std::mem::take(&mut self.keys);
        self.keys.reserve(self.probs.len() * (places + new_cap));
        for key in old.chunks_exact(places + old_cap) {
            self.keys.extend_from_slice(key);
            self.keys.resize(self.keys.len() + new_cap - old_cap, 0);
        }
    }
}

/// Reusable buffers of [`instantaneous_phase`], one set per build.
///
/// A configuration — a marking plus the multiset of firings started so far
/// in this phase — is the flat key `[marking | pending ids + 1, ascending,
/// zero-padded to `cap`]`. Lexicographic order on that key is the order of
/// the `(Marking, Vec<(TransId, delay)>)` tuple the reference kernel keys
/// its `BTreeMap` by: markings compare word by word, a transition's delay
/// is a function of its id so the pair order is the id order, and a zero
/// pad sorts a proper prefix first, as `Vec` comparison does. `cap` doubles
/// whenever a configuration would overflow it, so it limits nothing.
#[derive(Debug)]
pub(crate) struct PhaseScratch {
    cap: usize,
    /// This round's configurations: sorted by key, keys distinct.
    front: Configs,
    /// Children generated this round, in generation order.
    next: Configs,
    /// Terminal configurations of every round, in generation order.
    done: Configs,
    /// The phase's outcome distribution: `done`, sorted and merged.
    out: Configs,
    order: Vec<u32>,
    carried_counts: Vec<u32>,
    firing_counts: Vec<u32>,
    enabled: Vec<(usize, f64)>,
    stack: Vec<f64>,
    /// Transitions the running phase has selected.
    selected: Vec<bool>,
    memo: PhaseMemo,
    /// Phases and configurations through these buffers, replayed ones
    /// included, the phases the memo served, and those of them whose
    /// lumped fold it served too.
    pub(crate) calls: u64,
    pub(crate) configs: u64,
    pub(crate) hits: u64,
    pub(crate) fold_hits: u64,
}

impl PhaseScratch {
    pub(crate) fn new(net: &CompiledNet) -> PhaseScratch {
        PhaseScratch {
            cap: INITIAL_PENDING_CAP,
            front: Configs::default(),
            next: Configs::default(),
            done: Configs::default(),
            out: Configs::default(),
            order: Vec::new(),
            carried_counts: vec![0; net.transitions.len()],
            firing_counts: vec![0; net.transitions.len()],
            enabled: Vec::new(),
            stack: Vec::new(),
            selected: vec![false; net.transitions.len()],
            memo: PhaseMemo::new(net),
            calls: 0,
            configs: 0,
            hits: 0,
            fold_hits: 0,
        }
    }

    /// The last phase's outcomes in key order: `(marking, pending ids + 1
    /// zero-padded, probability)`; see [`pending_ids`].
    pub(crate) fn outcomes(&self, places: usize) -> impl Iterator<Item = (&[u32], &[u32], f64)> {
        self.out
            .keys
            .chunks_exact(places + self.cap)
            .zip(&self.out.probs)
            .map(move |(key, &p)| (&key[..places], &key[places..], p))
    }
}

/// The transition indices in the pending part of a configuration key.
pub(crate) fn pending_ids(pending: &[u32]) -> impl Iterator<Item = usize> + '_ {
    pending
        .iter()
        .take_while(|&&id| id != 0)
        .map(|&id| id as usize - 1)
}

/// Sorts `src`'s configurations by key and merges equal keys into `dst`.
///
/// The sort breaks key ties by generation index and the merge adds in that
/// order, so each merged probability is the sum `p₁ + p₂ + …` in generation
/// order — exactly what `*map.entry(key).or_insert(0.0) += p` accumulates
/// (`0.0 + p₁` is `p₁`), bit for bit. That is also why a replay needs no
/// keys: adding each configuration to its recorded destination, in
/// generation order, into zeroed slots is the same sum. Recording appends
/// `dst`'s length, then each configuration's destination in generation
/// order.
fn sort_merge<const RECORD: bool>(
    src: &Configs,
    dst: &mut Configs,
    order: &mut Vec<u32>,
    stride: usize,
    tape: &mut Vec<u32>,
) {
    dst.clear();
    let key = |i: u32| &src.keys[i as usize * stride..(i as usize + 1) * stride];
    sort_order(src, order, stride);
    let dests = tape.len() + 1;
    if RECORD {
        tape.resize(dests + src.probs.len(), 0);
    }
    for &i in order.iter() {
        let p = src.probs[i as usize];
        let merged = dst.keys.len() >= stride && dst.keys[dst.keys.len() - stride..] == *key(i);
        if merged {
            *dst.probs.last_mut().expect("a key has a probability") += p;
        } else {
            dst.keys.extend_from_slice(key(i));
            dst.probs.push(p);
        }
        if RECORD {
            tape[dests + i as usize] = dst.probs.len() as u32 - 1;
        }
    }
    if RECORD {
        tape[dests - 1] = dst.probs.len() as u32;
    }
}

/// Fills `order` with `src`'s generation indices sorted by key, ties by
/// index.
fn sort_order(src: &Configs, order: &mut Vec<u32>, stride: usize) {
    let key = |i: u32| &src.keys[i as usize * stride..(i as usize + 1) * stride];
    order.clear();
    order.extend(0..src.probs.len() as u32);
    order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
}

/// Runs the instantaneous firing phase from `marking` with `carried`
/// in-progress firings, leaving the distribution over tangible outcomes in
/// `s` ([`PhaseScratch::outcomes`]) — the reference kernel's result in the
/// reference kernel's order, without an allocation per configuration.
/// Shared with the lumped expansion ([`crate::lump`]), whose states are
/// exactly the post-completion markings this phase starts from.
///
/// Each round expands the frontier's configurations in key order and their
/// enabled transitions in id order; children are sort-merged into the next
/// frontier, terminal configurations once at the end.
///
/// With `RECORD` the phase also appends its arithmetic to `tape` (the net
/// must have a [`Shape`](crate::compiled::Shape)): per configuration the
/// number of enabled transitions, then for each `slot << 1 | skip` — the
/// rate slot its frequency drew and whether its branch fell under
/// [`PROB_FLOOR`] — and after every [`sort_merge`] its destinations.
/// [`Skeleton::replay`] reads the tape back. Without `RECORD` no
/// recording code is compiled in.
///
/// A phase already run from a start of the same class ([`PhaseMemo`]) is
/// not run again: its outcomes, shifted to `marking`, its tape words, its
/// `fired` marks and its configuration count are replayed from `s` — or,
/// when the class's lumped fold is kept too, only its configuration count,
/// the rest being left to the fold ([`crate::lump`]). The result says
/// which.
pub(crate) fn instantaneous_phase<const RECORD: bool>(
    net: &CompiledNet,
    marking: &[u32],
    carried: &[(TransId, u64)],
    fired: &mut [bool],
    s: &mut PhaseScratch,
    tape: &mut Vec<u32>,
) -> Result<Class, GtpnError> {
    s.calls += 1;
    let hash = s.memo.key(marking, carried);
    let class = s.memo.find(hash);
    if let Some(e) = class.filter(|&e| s.memo.entries[e].stored()) {
        s.hits += 1;
        s.configs += s.memo.entries[e].configs;
        if s.memo.entries[e].folded() {
            s.fold_hits += 1;
            return Ok(Class::Folded(e));
        }
        s.memo.replay(e, marking, fired, &mut s.out, s.cap, tape);
        return Ok(Class::Kept(e));
    }
    // The first sighting of a class only notes it; the second proves the
    // clamp its key needs while it runs, and keeps it.
    let keep = class.is_some();
    if !keep {
        s.memo.sight(hash);
    }
    let (configs, at) = (s.configs, tape.len());
    s.memo.begin(net, marking, keep);
    s.selected.fill(false);
    run_phase::<RECORD>(net, marking, carried, fired, s, tape)?;
    if keep {
        let phase = Phase {
            configs: s.configs - configs,
            selected: &s.selected,
            out: &s.out,
            cap: s.cap,
            tape: &tape[at..],
        };
        if let Some(e) = s.memo.keep(marking, carried, &phase) {
            return Ok(Class::Kept(e));
        }
    }
    Ok(Class::Unkept)
}

/// Where the phase memo holds the phase [`instantaneous_phase`] just
/// served or ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Nowhere: the phase ran, and its class is not kept (yet).
    Unkept,
    /// Kept class `e` holds the phase, and the outcomes are in the
    /// scratch; a lumped build may add its fold
    /// ([`PhaseScratch::keep_fold`]).
    Kept(usize),
    /// Kept class `e` holds the phase and its lumped fold. Only the counts
    /// are replayed; the outcomes in the scratch are another phase's, and
    /// the fold ([`crate::lump`], through [`PhaseScratch::read_fold`])
    /// does the rest. Only a lumped build keeps folds, and a memo serves
    /// one build.
    Folded(usize),
}

/// The kernel of [`instantaneous_phase`]: the phase itself, its selections
/// marked in `fired` and in `s.selected`.
fn run_phase<const RECORD: bool>(
    net: &CompiledNet,
    marking: &[u32],
    carried: &[(TransId, u64)],
    fired: &mut [bool],
    s: &mut PhaseScratch,
    tape: &mut Vec<u32>,
) -> Result<(), GtpnError> {
    let places = net.places;
    s.carried_counts.fill(0);
    for &(t, _) in carried {
        s.carried_counts[t.0] += 1;
    }
    s.done.clear();
    s.front.clear();
    s.front.keys.extend_from_slice(marking);
    s.front.keys.resize(places + s.cap, 0);
    s.front.probs.push(1.0);

    for round in 0.. {
        if round > MAX_PHASE_ROUNDS {
            return Err(GtpnError::ZeroDelayDivergence);
        }
        if s.front.probs.is_empty() {
            break;
        }
        s.next.clear();
        for i in 0..s.front.probs.len() {
            s.configs += 1;
            let prob = s.front.probs[i];
            let mut stride = places + s.cap;
            let key = &s.front.keys[i * stride..(i + 1) * stride];
            let (m, pending) = key.split_at(places);
            // firing counts = carried + pending
            s.firing_counts.copy_from_slice(&s.carried_counts);
            let mut started = 0;
            for t in pending_ids(pending) {
                s.firing_counts[t] += 1;
                started += 1;
            }

            // Collect enabled transitions and their weights.
            s.enabled.clear();
            let mut total = 0.0;
            let head = tape.len();
            if RECORD {
                tape.push(0);
            }
            // A keeping run proves its class's clamp as it goes
            // ([`PhaseMemo::begin`]).
            for &(p, bar) in &s.memo.watch {
                if m[p] < bar {
                    net.raise_clamp(p, m, marking, &mut s.memo.clamp);
                }
            }
            for (ti, t) in net.transitions.iter().enumerate() {
                if !t.has_tokens(m) {
                    continue;
                }
                let w = t.frequency(m, &s.firing_counts, &mut s.stack);
                if !w.is_finite() || w < 0.0 {
                    return Err(GtpnError::BadFrequency {
                        transition: t.name.clone(),
                        value: w,
                    });
                }
                if w > 0.0 {
                    s.enabled.push((ti, w));
                    total += w;
                    if RECORD {
                        tape.push(t.slot(m, &s.firing_counts, &mut s.stack) << 1);
                    }
                }
            }
            if RECORD {
                tape[head] = s.enabled.len() as u32;
            }

            if s.enabled.is_empty() {
                s.done.keys.extend_from_slice(key);
                s.done.probs.push(prob);
                continue;
            }

            for (j, &(ti, w)) in s.enabled.iter().enumerate() {
                let p = prob * w / total;
                if p < PROB_FLOOR {
                    if RECORD {
                        tape[head + 1 + j] |= 1;
                    }
                    continue;
                }
                fired[ti] = true;
                s.selected[ti] = true;
                let t = &net.transitions[ti];
                if t.delay != 0 && started == s.cap {
                    let cap = 2 * s.cap;
                    for configs in [&mut s.front, &mut s.next, &mut s.done] {
                        configs.restride(places, s.cap, cap);
                    }
                    s.cap = cap;
                    stride = places + cap;
                }
                let at = s.next.keys.len();
                s.next
                    .keys
                    .extend_from_slice(&s.front.keys[i * stride..(i + 1) * stride]);
                let (m2, pending2) = s.next.keys[at..].split_at_mut(places);
                for &(pl, needed) in &t.demand {
                    m2[pl] -= needed;
                }
                if t.delay == 0 {
                    // Completes immediately.
                    for &(pl, mult) in &t.outputs {
                        m2[pl] += mult;
                    }
                } else {
                    // Keep the started firings sorted for a canonical key.
                    let id = ti as u32 + 1;
                    let mut slot = started;
                    while slot > 0 && pending2[slot - 1] > id {
                        pending2[slot] = pending2[slot - 1];
                        slot -= 1;
                    }
                    pending2[slot] = id;
                }
                s.next.probs.push(p);
            }
        }
        sort_merge::<RECORD>(&s.next, &mut s.front, &mut s.order, places + s.cap, tape);
    }
    sort_merge::<RECORD>(&s.done, &mut s.out, &mut s.order, places + s.cap, tape);
    Ok(())
}

/// Bytes past which a [`PhaseMemo`] notes and keeps no more classes or
/// folds: a net whose phases never repeat a class then costs a bounded
/// arena, not one that grows with the chain. No class or fold larger than
/// this is kept, so the arenas stay under twice it and every offset fits a
/// `u32`.
const MEMO_CAP_BYTES: usize = 4 << 20;

/// A finished phase, as [`PhaseMemo::keep`] keeps it.
struct Phase<'a> {
    configs: u64,
    selected: &'a [bool],
    out: &'a Configs,
    cap: usize,
    tape: &'a [u32],
}

/// One class of a [`PhaseMemo`]: where its key ends (keys are stored in
/// entry order), once kept where its words and probabilities are and how
/// many configurations its phase expanded, and once its lumped fold is
/// kept where the fold's words and probabilities are.
#[derive(Debug, Clone, Copy, Default)]
struct MemoEntry {
    key_end: u32,
    words: [u32; 2],
    probs: [u32; 2],
    fold: [u32; 2],
    fold_probs: [u32; 2],
    configs: u64,
}

impl MemoEntry {
    /// Whether the class's phase is kept (its words hold at least its
    /// fired count), not just sighted.
    fn stored(&self) -> bool {
        self.words[0] < self.words[1]
    }

    /// Whether the class's lumped fold is kept too (its fold words hold at
    /// least their counts).
    fn folded(&self) -> bool {
        self.fold[0] < self.fold[1]
    }
}

/// Finished phases of one build, keyed by start class — one memo per
/// [`PhaseScratch`], so per build.
///
/// A phase reads its start marking only through the places frequency and
/// slot programs read and through enabling tests
/// ([`CompiledTransition::has_tokens`](crate::compiled::CompiledTransition::has_tokens)).
/// Two starts that agree on every program-read place and on the carried
/// firings, and agree on every other place once it is clamped at the
/// highest start count a test needed there, run the same phase: the same
/// branches, the same probabilities, tape words and `fired` marks, and
/// outcomes that differ only by the start each is offset from. Sorting and
/// merging keys `start + δ` depends on `δ` alone, so the outcome order and
/// every float sum carry over too.
///
/// The clamp ([`CompiledNet::clamp`] to begin with) is shared by all
/// classes and only grows, raised by a run whose tests needed more
/// ([`CompiledNet::raise_clamp`]): a class keyed under a lower clamp stays
/// valid, its own thresholds being no higher. A class is noted on its
/// first sighting and kept on its second, as the skeleton store records a
/// shape: a build whose phases rarely repeat pays a key per phase, not a
/// copy. Classes live in flat arenas — keys, then per kept class its fired
/// transitions, tape words and, per outcome, the places it moved with
/// their zigzagged deltas and its pending ids, all width-packed
/// ([`Packed`]), then its probabilities. A lumped build appends a kept
/// class's fold to the same arenas ([`PhaseScratch::keep_fold`]).
/// Noting and keeping stop at [`MEMO_CAP_BYTES`].
#[derive(Debug)]
struct PhaseMemo {
    /// Per place, the count above which starts are not told apart.
    clamp: Vec<u32>,
    /// The places whose clamp the running phase may have to raise, each
    /// with the count below which a configuration's tests may need it.
    watch: Vec<(usize, u32)>,
    /// The key of the phase at hand: its clamped start and its carried
    /// firings' transitions. (A memo serves one build, which records its
    /// tape or does not throughout, so kept tape words always fit.)
    key: Vec<u32>,
    table: IndexTable,
    entries: Vec<MemoEntry>,
    keys: Vec<u32>,
    words: Packed,
    probs: Vec<f64>,
    /// A class's words, gathered to be packed at one width check.
    stage: Vec<u64>,
}

impl PhaseMemo {
    fn new(net: &CompiledNet) -> PhaseMemo {
        PhaseMemo {
            clamp: net.clamp.clone(),
            watch: Vec::new(),
            key: Vec::new(),
            table: IndexTable::new(),
            entries: Vec::new(),
            keys: Vec::new(),
            words: Packed::default(),
            probs: Vec::new(),
            stage: Vec::new(),
        }
    }

    /// Makes the phase from `start` with `carried` in progress the one at
    /// hand; returns its key's hash.
    fn key(&mut self, start: &[u32], carried: &[(TransId, u64)]) -> u64 {
        self.key.clear();
        self.key
            .extend(start.iter().zip(&self.clamp).map(|(&m, &c)| m.min(c)));
        self.key.extend(carried.iter().map(|&(t, _)| t.0 as u32));
        hash_words(0, &self.key)
    }

    /// The class of the phase at hand, kept or only sighted.
    fn find(&self, hash: u64) -> Option<usize> {
        self.table.find(hash, |e| {
            entry_key(&self.keys, &self.entries, e) == self.key
        })
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<MemoEntry>() * self.entries.capacity()
            + size_of::<u32>() * self.keys.capacity()
            + self.words.bytes()
            + size_of::<f64>() * self.probs.capacity()
    }

    /// Whether `words` staged words and `probs` probabilities may be kept:
    /// the memo is not full and they are no larger than its cap.
    fn room(&self, words: usize, probs: usize) -> bool {
        self.bytes() < MEMO_CAP_BYTES && 8 * (words + probs) <= MEMO_CAP_BYTES
    }

    /// Notes the phase at hand's class, unless the memo is full.
    fn sight(&mut self, hash: u64) -> Option<usize> {
        if self.bytes() >= MEMO_CAP_BYTES {
            return None;
        }
        self.keys.extend_from_slice(&self.key);
        self.entries.push(MemoEntry {
            key_end: self.keys.len() as u32,
            ..MemoEntry::default()
        });
        let PhaseMemo {
            table,
            entries,
            keys,
            ..
        } = self;
        table.insert(hash, entries.len() - 1, |e| {
            hash_words(0, entry_key(keys, entries, e))
        });
        Some(entries.len() - 1)
    }

    /// Readies the watch for a phase run from `start`; with `prove` false
    /// the run raises no clamp, and is not kept.
    ///
    /// Below its clamp a start is told apart exactly, so only a place that
    /// starts at or above it is watched. A test there needs at most the
    /// place's largest single demand plus what the phase has consumed, so
    /// only a configuration holding fewer than `start + largest − clamp`
    /// tokens can raise the clamp.
    fn begin(&mut self, net: &CompiledNet, start: &[u32], prove: bool) {
        self.watch.clear();
        if !prove {
            return;
        }
        for (p, (&m, &clamp)) in start.iter().zip(&self.clamp).enumerate() {
            if m >= clamp {
                self.watch
                    .push((p, (m - clamp).saturating_add(net.clamp[p])));
            }
        }
    }

    /// Keeps `phase`, run from `start` with `carried` in progress, under
    /// the class its run proved, unless the memo is full; returns that
    /// class if it holds the phase now (it may have held it already).
    fn keep(
        &mut self,
        start: &[u32],
        carried: &[(TransId, u64)],
        phase: &Phase<'_>,
    ) -> Option<usize> {
        // The run may have raised the clamp, and so moved the key.
        let hash = self.key(start, carried);
        let e = match self.find(hash) {
            Some(e) if self.entries[e].stored() => return Some(e),
            Some(e) => e,
            None => self.sight(hash)?,
        };
        let words = &mut self.stage;
        words.clear();
        words.push(0);
        for (t, _) in phase.selected.iter().enumerate().filter(|&(_, &f)| f) {
            words.push(t as u64);
        }
        words[0] = words.len() as u64 - 1;
        words.push(phase.tape.len() as u64);
        words.extend(phase.tape.iter().map(|&word| u64::from(word)));
        for key in phase.out.keys.chunks_exact(start.len() + phase.cap) {
            let (m, pending) = key.split_at(start.len());
            let at = words.len();
            words.push(0);
            for (p, (&m, &m0)) in m.iter().zip(start).enumerate() {
                if m != m0 {
                    words.extend([p as u64, zigzag(m0, m)]);
                }
            }
            words[at] = (words.len() - at - 1) as u64 / 2;
            let at = words.len();
            words.push(0);
            words.extend(pending_ids(pending).map(|t| t as u64 + 1));
            words[at] = (words.len() - at - 1) as u64;
        }
        if !self.room(self.stage.len(), phase.out.probs.len()) {
            return None;
        }
        let entry = &mut self.entries[e];
        entry.words = [self.words.len() as u32, 0];
        self.words.extend(&self.stage);
        entry.words[1] = self.words.len() as u32;
        entry.probs = [self.probs.len() as u32, 0];
        self.probs.extend_from_slice(&phase.out.probs);
        entry.probs[1] = self.probs.len() as u32;
        entry.configs = phase.configs;
        Some(e)
    }

    /// Replays kept class `e` for a phase from `start`: `fired` marks and
    /// tape words appended, `out` the outcomes shifted to `start` at `cap`
    /// pending slots.
    fn replay(
        &self,
        e: usize,
        start: &[u32],
        fired: &mut [bool],
        out: &mut Configs,
        cap: usize,
        tape: &mut Vec<u32>,
    ) {
        let entry = self.entries[e];
        let words = entry.words[0] as usize..entry.words[1] as usize;
        let replay = Replay {
            start,
            probs: &self.probs[entry.probs[0] as usize..entry.probs[1] as usize],
            fired,
            out,
            cap,
            tape,
        };
        match &self.words {
            Packed::U8(w) => replay.run(&w[words]),
            Packed::U16(w) => replay.run(&w[words]),
            Packed::U32(w) => replay.run(&w[words]),
            Packed::U64(w) => replay.run(&w[words]),
        }
    }
}

/// Class `e`'s key.
fn entry_key<'a>(keys: &'a [u32], entries: &[MemoEntry], e: usize) -> &'a [u32] {
    let start = if e == 0 { 0 } else { entries[e - 1].key_end };
    &keys[start as usize..entries[e].key_end as usize]
}

/// Replays a kept class's `fired` marks and tape words, leaving `at` at its
/// first outcome.
pub(crate) fn replay_head<W: Copy + Into<u64>>(
    words: &[W],
    at: &mut usize,
    fired: &mut [bool],
    tape: &mut Vec<u32>,
) {
    for _ in 0..read(words, at) {
        fired[read(words, at)] = true;
    }
    let n = read(words, at);
    tape.extend(words[*at..*at + n].iter().map(|&w| w.into() as u32));
    *at += n;
}

/// Where [`PhaseMemo::replay`] writes a class.
struct Replay<'a> {
    start: &'a [u32],
    probs: &'a [f64],
    fired: &'a mut [bool],
    out: &'a mut Configs,
    cap: usize,
    tape: &'a mut Vec<u32>,
}

impl Replay<'_> {
    /// Decodes one class's words, matched to their width once.
    fn run<W: Copy + Into<u64>>(self, words: &[W]) {
        let at = &mut 0;
        replay_head(words, at, self.fired, self.tape);
        self.out.clear();
        for &p in self.probs {
            let marking = self.out.keys.len();
            self.out.keys.extend_from_slice(self.start);
            for _ in 0..read(words, at) {
                let place = marking + read(words, at);
                self.out.keys[place] = shift(self.out.keys[place], read(words, at) as u64);
            }
            let n = read(words, at);
            let pending = self.out.keys.len();
            self.out
                .keys
                .extend(words[*at..*at + n].iter().map(|&w| w.into() as u32));
            *at += n;
            self.out.keys.resize(pending + self.cap, 0);
            self.out.probs.push(p);
        }
        debug_assert_eq!(*at, words.len(), "a replay consumes its class");
    }
}

impl PhaseScratch {
    /// Per place, the count above which the memo tells starts apart no
    /// more; it only grows.
    pub(crate) fn clamp(&self) -> &[u32] {
        &self.memo.clamp
    }

    /// Whether kept class `e` holds a lumped fold too.
    pub(crate) fn folded(&self, e: usize) -> bool {
        self.memo.entries[e].folded()
    }

    /// Keeps `words` and `probs` beside kept class `e`'s phase as its
    /// lumped fold, whose format is [`crate::lump`]'s own, unless the class
    /// holds one already or the memo is full. They count toward the cap as
    /// the phase's words do.
    pub(crate) fn keep_fold(&mut self, e: usize, words: &[u64], probs: &[f64]) {
        let memo = &mut self.memo;
        if memo.entries[e].folded() || !memo.room(words.len(), probs.len()) {
            return;
        }
        let entry = &mut memo.entries[e];
        entry.fold = [memo.words.len() as u32, 0];
        memo.words.extend(words);
        entry.fold[1] = memo.words.len() as u32;
        entry.fold_probs = [memo.probs.len() as u32, 0];
        memo.probs.extend_from_slice(probs);
        entry.fold_probs[1] = memo.probs.len() as u32;
    }

    /// Hands `reader` folded class `e`: its phase's words (read them with
    /// [`replay_head`] up to the outcomes) and outcome probabilities, and
    /// its fold's words and probabilities, at the width they are packed at.
    pub(crate) fn read_fold(&self, e: usize, reader: impl FoldReader) {
        let memo = &self.memo;
        let entry = memo.entries[e];
        let range = |[from, to]: [u32; 2]| from as usize..to as usize;
        let (words, fold) = (range(entry.words), range(entry.fold));
        let probs = &memo.probs[range(entry.probs)];
        let fold_probs = &memo.probs[range(entry.fold_probs)];
        match &memo.words {
            Packed::U8(w) => reader.read(&w[words], probs, &w[fold], fold_probs),
            Packed::U16(w) => reader.read(&w[words], probs, &w[fold], fold_probs),
            Packed::U32(w) => reader.read(&w[words], probs, &w[fold], fold_probs),
            Packed::U64(w) => reader.read(&w[words], probs, &w[fold], fold_probs),
        }
    }
}

/// What [`PhaseScratch::read_fold`] hands a folded class to, matched to
/// the width of the memo's words once.
pub(crate) trait FoldReader {
    fn read<W: Copy + Into<u64>>(self, phase: &[W], probs: &[f64], fold: &[W], fold_probs: &[f64]);
}

/// The zigzagged delta that moves `from` to `to`; [`shift`] applies it.
pub(crate) fn zigzag(from: u32, to: u32) -> u64 {
    let delta = i64::from(to) - i64::from(from);
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// `m` moved by the zigzagged delta `z`.
pub(crate) fn shift(m: u32, z: u64) -> u32 {
    let delta = (z >> 1) as i64 ^ -((z & 1) as i64);
    (i64::from(m) + delta) as u32
}

/// Unsigned integers stored at the narrowest width that holds the largest
/// of them; pushing a wider value widens them all. A recording build's
/// tape is one, filled as the builder merges each state's words.
#[derive(Debug)]
pub(crate) enum Packed {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl Default for Packed {
    fn default() -> Packed {
        Packed::U8(Vec::new())
    }
}

impl Packed {
    pub(crate) fn collect(values: impl IntoIterator<Item = u64>) -> Packed {
        let mut packed = Packed::default();
        for v in values {
            packed.push(v);
        }
        packed.shrink_to_fit();
        packed
    }

    fn push(&mut self, v: u64) {
        self.extend(&[v]);
    }

    /// Appends `values`, widening first if the largest needs it.
    fn extend(&mut self, values: &[u64]) {
        if let Some(&widest) = values.iter().max() {
            self.fit(widest);
        }
        match self {
            Packed::U8(w) => w.extend(values.iter().map(|&v| v as u8)),
            Packed::U16(w) => w.extend(values.iter().map(|&v| v as u16)),
            Packed::U32(w) => w.extend(values.iter().map(|&v| v as u32)),
            Packed::U64(w) => w.extend_from_slice(values),
        }
    }

    /// Widens every value until `v` fits.
    fn fit(&mut self, v: u64) {
        loop {
            let fits = match self {
                Packed::U8(_) => v <= u64::from(u8::MAX),
                Packed::U16(_) => v <= u64::from(u16::MAX),
                Packed::U32(_) => v <= u64::from(u32::MAX),
                Packed::U64(_) => true,
            };
            if fits {
                return;
            }
            *self = match self {
                Packed::U8(w) => Packed::U16(w.iter().map(|&x| x.into()).collect()),
                Packed::U16(w) => Packed::U32(w.iter().map(|&x| x.into()).collect()),
                _ => Packed::U64(self.unpack(|x| x)),
            };
        }
    }

    pub(crate) fn get(&self, i: usize) -> u64 {
        match self {
            Packed::U8(v) => v[i].into(),
            Packed::U16(v) => v[i].into(),
            Packed::U32(v) => v[i].into(),
            Packed::U64(v) => v[i],
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Packed::U8(v) => v.shrink_to_fit(),
            Packed::U16(v) => v.shrink_to_fit(),
            Packed::U32(v) => v.shrink_to_fit(),
            Packed::U64(v) => v.shrink_to_fit(),
        }
    }

    pub(crate) fn bytes(&self) -> usize {
        match self {
            Packed::U8(v) => v.capacity(),
            Packed::U16(v) => 2 * v.capacity(),
            Packed::U32(v) => 4 * v.capacity(),
            Packed::U64(v) => 8 * v.capacity(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Packed::U8(v) => v.len(),
            Packed::U16(v) => v.len(),
            Packed::U32(v) => v.len(),
            Packed::U64(v) => v.len(),
        }
    }

    /// Every value, through `f`.
    fn unpack<T>(&self, f: impl Fn(u64) -> T) -> Vec<T> {
        match self {
            Packed::U8(v) => v.iter().map(|&x| f(x.into())).collect(),
            Packed::U16(v) => v.iter().map(|&x| f(x.into())).collect(),
            Packed::U32(v) => v.iter().map(|&x| f(x.into())).collect(),
            Packed::U64(v) => v.iter().map(|&x| f(x)).collect(),
        }
    }
}

/// A replay's place in a skeleton's tape.
pub(crate) struct Cursor<'a> {
    tape: &'a Packed,
    at: usize,
}

impl Cursor<'_> {
    pub(crate) fn read(&mut self) -> usize {
        self.at += 1;
        self.get(self.at - 1)
    }

    /// Steps over a list of words, its length first; returns where its
    /// words are, for [`get`](Self::get).
    pub(crate) fn list(&mut self) -> Range<usize> {
        let n = self.read();
        self.at += n;
        self.at - n..self.at
    }

    pub(crate) fn get(&self, i: usize) -> usize {
        self.tape.get(i) as usize
    }
}

/// A replayed branch probability landed on the other side of
/// [`PROB_FLOOR`] than the recorded one: the new rates take another path
/// through the phase, and only a fresh build can follow it.
pub(crate) struct FloorMoved;

/// Replays recorded phases: [`instantaneous_phase`]'s arithmetic in its
/// order, without keys. Buffers are reused from phase to phase.
#[derive(Default)]
struct Repricer {
    front: Vec<f64>,
    next: Vec<f64>,
    done: Vec<f64>,
    /// The last phase's outcome probabilities, in outcome order.
    out: Vec<f64>,
}

impl Repricer {
    /// Replays one phase under `rates`; see [`instantaneous_phase`] for
    /// the tape's layout. The tape's width is matched once per phase, not
    /// once per word.
    fn phase(&mut self, tape: &mut Cursor<'_>, rates: &[f64]) -> Result<(), FloorMoved> {
        let at = &mut tape.at;
        match tape.tape {
            Packed::U8(words) => self.phase_in(words, at, rates),
            Packed::U16(words) => self.phase_in(words, at, rates),
            Packed::U32(words) => self.phase_in(words, at, rates),
            Packed::U64(words) => self.phase_in(words, at, rates),
        }
    }

    fn phase_in<W: Copy + Into<u64>>(
        &mut self,
        words: &[W],
        at: &mut usize,
        rates: &[f64],
    ) -> Result<(), FloorMoved> {
        self.front.clear();
        self.front.push(1.0);
        self.done.clear();
        while !self.front.is_empty() {
            self.next.clear();
            for &prob in &self.front {
                let enabled = read(words, at);
                let slots = &words[*at..*at + enabled];
                *at += enabled;
                if enabled == 0 {
                    self.done.push(prob);
                    continue;
                }
                let mut total = 0.0;
                for &word in slots {
                    total += rates[(word.into() >> 1) as usize];
                }
                for &word in slots {
                    let word = word.into();
                    let p = prob * rates[(word >> 1) as usize] / total;
                    let skip = p < PROB_FLOOR;
                    if skip != (word & 1 == 1) {
                        return Err(FloorMoved);
                    }
                    if !skip {
                        self.next.push(p);
                    }
                }
            }
            merge(words, at, &self.next, &mut self.front);
        }
        merge(words, at, &self.done, &mut self.out);
        Ok(())
    }
}

pub(crate) fn read<W: Copy + Into<u64>>(words: &[W], at: &mut usize) -> usize {
    *at += 1;
    words[*at - 1].into() as usize
}

/// [`sort_merge`] replayed: adds each probability to its recorded
/// destination, in generation order.
fn merge<W: Copy + Into<u64>>(words: &[W], at: &mut usize, src: &[f64], dst: &mut Vec<f64>) {
    dst.clear();
    dst.resize(read(words, at), 0.0);
    for &p in src {
        dst[read(words, at)] += p;
    }
}

/// A lumped chain with its probabilities taken out — states, edge
/// targets, the fired record, the work counts and what its rows keep
/// ([`RecordedRows`]) — plus the tape of the phase arithmetic that produced
/// them: each state's words from [`instantaneous_phase`] and from the fold
/// of `crate::lump`, in state order. A lumped state carries no firings and
/// holds for one step, so neither is kept.
///
/// Every branch of the instantaneous phase is decided by the net's
/// structure, its conditions, which rates are zero, and which branch
/// probabilities fall under [`PROB_FLOOR`]; the sort-merges are decided
/// by keys alone. So a net of the same [`Shape`](crate::compiled::Shape)
/// under other rates walks the same states and edges, and only the
/// floating-point sums change. [`replay`](Self::replay) redoes exactly those
/// operations in the recorded order — no kernel, no sort, no interning —
/// and gets the fresh build's bits, or [`FloorMoved`] when a floor decision
/// would change.
///
/// A skeleton is stored compactly: every array at the narrowest integer
/// width that holds it, edge offsets and outcome token counts not at all
/// (the replay re-derives them).
#[derive(Debug)]
pub(crate) struct Skeleton {
    rows: RecordedRows,
    states: usize,
    markings: Packed,
    targets: Packed,
    fired: Box<[bool]>,
    phase_calls: u64,
    phase_configs: u64,
    tape: Packed,
}

impl Skeleton {
    /// The skeleton of `chain`, built with `tape` recorded.
    pub(crate) fn new(chain: &LumpedGraph, mut tape: Packed) -> Skeleton {
        let graph = &chain.graph;
        tape.shrink_to_fit();
        debug_assert!(graph.firings.is_empty() && graph.sojourn.iter().all(|&h| h == 1));
        Skeleton {
            rows: chain.rows.record(),
            states: graph.state_count(),
            markings: Packed::collect(graph.markings.iter().map(|&m| u64::from(m))),
            targets: Packed::collect(graph.edges.iter().map(|&(j, _)| j as u64)),
            fired: graph.fired.clone().into_boxed_slice(),
            phase_calls: graph.build.phase_calls,
            phase_configs: graph.build.phase_configs,
            tape,
        }
    }

    /// The least a skeleton of `chain` can hold, known before it is
    /// recorded: a byte per value, and per phase configuration at least
    /// two tape words — its enabled count and, unless it is a phase's
    /// first, its merge destination.
    pub(crate) fn least_bytes(chain: &LumpedGraph) -> usize {
        let graph = &chain.graph;
        std::mem::size_of::<Skeleton>()
            + chain.rows.least_record_bytes()
            + graph.markings.len()
            + graph.edges.len()
            + 2 * graph.build.phase_configs as usize
            + graph.fired.len()
    }

    /// Tangible states of the chain.
    pub(crate) fn state_count(&self) -> usize {
        self.states
    }

    /// Resident bytes — what the store bounds.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Skeleton>()
            + self.rows.bytes()
            + self.markings.bytes()
            + self.targets.bytes()
            + self.fired.len()
            + self.tape.bytes()
    }

    /// The lumped chain of `net` — of this skeleton's shape — under
    /// `rates`: bit for bit what a fresh build returns, every state's rows
    /// included. The build record counts one replay and the skeleton's
    /// phase work.
    ///
    /// # Errors
    ///
    /// [`FloorMoved`] when a branch would cross [`PROB_FLOOR`] the other
    /// way.
    pub(crate) fn replay(&self, net: &Net, rates: &[f64]) -> Result<LumpedGraph, FloorMoved> {
        let mut tape = Cursor {
            tape: &self.tape,
            at: 0,
        };
        let mut phase = Repricer::default();
        let states = self.state_count();
        let markings = self.markings.unpack(|m| m as u32);
        let mut edges = self.targets.unpack(|j| (j as usize, 0.0));
        let mut edge_offsets = Vec::with_capacity(states + 1);
        edge_offsets.push(0);
        let mut rows = RowReplay::new(net, &self.rows, states);
        let mut scratch = Vec::new();
        for si in 0..states {
            phase.phase(&mut tape, rates)?;
            let first = *edge_offsets.last().expect("offsets start at 0");
            let successors = crate::lump::refold(
                &mut tape,
                &phase.out,
                net,
                &markings,
                &mut edges[first..],
                rows.state(si),
                &mut scratch,
            );
            rows.file(si);
            edge_offsets.push(first + successors);
        }
        debug_assert_eq!(tape.at, self.tape.len(), "replay must consume the tape");
        let graph = ReachabilityGraph {
            net: net.clone(),
            markings,
            firing_offsets: vec![0; states + 1],
            firings: Vec::new(),
            edge_offsets,
            edges,
            sojourn: vec![1; states],
            fired: self.fired.to_vec(),
            build: BuildStats {
                phase_calls: self.phase_calls,
                phase_configs: self.phase_configs,
                replays: 1,
                ..BuildStats::default()
            },
        };
        Ok(LumpedGraph {
            graph,
            rows: rows.finish(),
        })
    }
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
    use super::{MAX_PHASE_ROUNDS, PROB_FLOOR};
    use crate::error::GtpnError;
    use crate::expr::EvalContext;
    use crate::net::{Net, TransId};
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
    use crate::state::State;
    use proptest::prelude::*;

    /// Outcomes as the reference kernel lists them: states and probability
    /// bits.
    type Outcomes = Vec<(State, u64)>;

    /// The reference kernel's outcomes from `marking` with `carried` in
    /// progress, and the transitions it fired.
    fn reference_outcomes(
        net: &Net,
        marking: &[u32],
        carried: &[(TransId, u64)],
    ) -> (Result<Outcomes, GtpnError>, Vec<bool>) {
        let mut fired = vec![false; net.transition_count()];
        let dist =
            reference::instantaneous_phase(net, marking.to_vec(), carried.to_vec(), &mut fired);
        let outcomes = dist.map(|dist| {
            dist.into_iter()
                .map(|(s, p)| (s, p.to_bits()))
                .collect::<Vec<_>>()
        });
        (outcomes, fired)
    }

    /// The outcomes `scratch` holds after a phase with `carried` in
    /// progress — one the memo did not answer with a fold, which leaves
    /// another phase's outcomes ([`Class::Folded`]).
    fn scratch_outcomes(
        net: &Net,
        compiled: &CompiledNet,
        scratch: &PhaseScratch,
        carried: &[(TransId, u64)],
    ) -> Outcomes {
        scratch
            .outcomes(compiled.places)
            .map(|(m, pending, p)| {
                let mut firings = carried.to_vec();
                firings.extend(
                    pending_ids(pending).map(|t| (TransId(t), net.transition_delay(TransId(t)))),
                );
                (State::new(m.to_vec(), firings), p.to_bits())
            })
            .collect()
    }

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
        let (want, want_fired) = reference_outcomes(net, marking, carried);
        let mut fired = vec![false; net.transition_count()];
        let got = instantaneous_phase::<false>(
            compiled,
            marking,
            carried,
            &mut fired,
            scratch,
            &mut Vec::new(),
        )
        .map(|class| {
            assert!(
                !matches!(class, Class::Folded(_)),
                "a kernel phase is folded"
            );
            scratch_outcomes(net, compiled, scratch, carried)
        });
        assert_eq!(got, want, "from {marking:?} carrying {carried:?}");
        assert_eq!(fired, want_fired, "from {marking:?} carrying {carried:?}");
    }

    /// Asserts the flat build of `net` is the reference build: numbering,
    /// firings, sojourns, edge bits, fired record — or the same error.
    fn assert_builds_agree(net: &Net, max_states: usize) {
        let got = net.reachability(max_states);
        let want = reference::reachability(net, max_states);
        match (got, want) {
            (Ok(g), Ok((states, edges, sojourn, fired))) => {
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
        let err = instantaneous_phase::<false>(
            &compiled,
            &[1],
            &[],
            &mut fired,
            &mut scratch,
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err, GtpnError::ZeroDelayDivergence);
        assert_kernels_agree(&zeno, &compiled, &mut scratch, &[1], &[]);
    }

    /// The memo's kernel contract, each call with a fresh `fired` record:
    /// the first phase from a start notes its class, the second keeps it,
    /// the third is served — and marks `fired` as a run does. A phase that
    /// fails part-way marks the transitions it selected before it failed,
    /// whether or not the memo has seen its class.
    #[test]
    fn memo_served_and_failed_phases_mark_fired() {
        let mut net = Net::new("fired");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("go").delay(0).input(a, 1).output(b, 1))
            .unwrap();
        net.add_transition(Transition::new("work").delay(1).input(b, 1).output(a, 1))
            .unwrap();
        let compiled = CompiledNet::new(&net);
        let mut scratch = PhaseScratch::new(&compiled);
        for _ in 0..3 {
            assert_kernels_agree(&net, &compiled, &mut scratch, &[1, 0], &[]);
        }
        assert_eq!((scratch.calls, scratch.hits), (3, 1));
        // From A = 2 `go` fires twice: the run that kept A = 1's class
        // raised A's clamp past 1, so that class does not serve A = 2.
        assert_kernels_agree(&net, &compiled, &mut scratch, &[2, 0], &[]);
        assert_eq!(scratch.hits, 1);

        // `go` is selected, then `bad` turns negative once B holds a token.
        let b = net.place_by_name("B").unwrap();
        net.add_transition(
            Transition::new("bad")
                .delay(1)
                .frequency(Expr::If(
                    Box::new(Expr::place_empty(b)),
                    Box::new(Expr::constant(1.0)),
                    Box::new(Expr::constant(-1.0)),
                ))
                .input(b, 1)
                .output(b, 1),
        )
        .unwrap();
        let compiled = CompiledNet::new(&net);
        let mut scratch = PhaseScratch::new(&compiled);
        for _ in 0..3 {
            assert_kernels_agree(&net, &compiled, &mut scratch, &[1, 0], &[]);
            let mut fired = [false; 3];
            let err = instantaneous_phase::<false>(
                &compiled,
                &[1, 0],
                &[],
                &mut fired,
                &mut scratch,
                &mut Vec::new(),
            )
            .unwrap_err();
            assert!(matches!(err, GtpnError::BadFrequency { .. }), "{err}");
            assert_eq!(fired, [true, false, false], "`go` was selected");
        }
        assert_eq!(scratch.hits, 0, "a failed phase is never kept");
    }

    /// A frequency that reads a place makes that place part of every
    /// class: with `Big` different at every start no class repeats beyond
    /// the run that keeps it, and the memo notes and keeps classes — each
    /// kept one with its lumped fold, whose words count toward the cap as
    /// the phase's do — only up to its byte cap, then stops growing, while
    /// every phase still matches the reference kernel: the noting run's
    /// and the keeping run's, whose outcomes the fold leaves in the
    /// scratch.
    #[test]
    fn memo_stops_growing_at_its_cap() {
        let mut net = Net::new("coins");
        let big = net.add_place("Big", 0);
        let coins = net.add_place("Coins", 8);
        net.add_transition(
            Transition::new("heads")
                .delay(1)
                .frequency(Expr::Add(
                    Box::new(Expr::Tokens(big)),
                    Box::new(Expr::constant(1.0)),
                ))
                .input(coins, 1)
                .output(coins, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("tails")
                .delay(1)
                .input(coins, 1)
                .output(coins, 1),
        )
        .unwrap();
        let compiled = CompiledNet::new(&net);
        let mut w = Worker::new(&compiled);
        let mut full = None;
        let (mut classes, mut folds) = (0, 0);
        for big in 0..30_000 {
            // The kernel's run notes the class; the lumped fold's run
            // keeps it, and keeps its fold beside it.
            assert_kernels_agree(&net, &compiled, &mut w.phase, &[big, 8], &[]);
            let (want, want_fired) = reference_outcomes(&net, &[big, 8], &[]);
            let mut out = Expansion::new(compiled.places);
            w.fired.fill(false);
            let folded = crate::lump::fold::<false>(&compiled, &[big, 8], 0, &mut w, &mut out);
            assert_eq!(w.phase.fold_hits, 0, "the scratch holds the keeping run");
            let got = folded.map(|()| scratch_outcomes(&net, &compiled, &w.phase, &[]));
            assert_eq!(got, want, "the keeping run from {big}");
            assert_eq!(w.fired, want_fired, "the keeping run from {big}");
            let memo = &w.phase.memo;
            let bytes = memo.bytes();
            assert!(bytes < 2 * MEMO_CAP_BYTES, "{bytes} bytes");
            let grown = memo.entries.len();
            let kept = memo.entries.iter().filter(|e| e.stored()).count();
            let folded = memo.entries.iter().filter(|e| e.folded()).count();
            match full {
                None if bytes >= MEMO_CAP_BYTES => full = Some(big),
                None => {
                    assert!(grown > classes, "start {big} not kept");
                    assert_eq!(folded, kept, "start {big}'s fold not kept");
                }
                Some(_) => assert_eq!((grown, folded), (classes, folds), "grew past the cap"),
            }
            (classes, folds) = (grown, folded);
        }
        let big = full.expect("30,000 classes must fill the memo");
        assert!(big > 1_000 && big < 25_000, "filled at start {big}");
        assert_eq!(w.phase.hits, 0, "no class repeats past its keeping run");
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

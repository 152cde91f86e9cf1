//! Exact aggregation (lumping) of the embedded Markov chain.
//!
//! The paper's conversation nets are built from geometric stages: every
//! timed transition has delay 1 (large constant delays are replaced by
//! delay-1 exit/loop pairs, §6.6.1) and zero-delay transitions are
//! eliminated inline by the instantaneous phase. In such a net every
//! in-progress firing of a tangible state has remaining time exactly 1,
//! so the time advance completes *all* of them and the successor
//! distribution of a tangible state `(m, F)` depends only on its
//! **post-completion marking** `u = m + Σ outputs(F)`.
//!
//! That is strong lumpability in its strongest form — all states of a
//! class share one outgoing row — so the chain quotiented by `u` is an
//! exact reduction, not an approximation:
//!
//! * **Lumped states** are the reachable post-completion markings. The
//!   raw chain's `n` permutation-symmetric clients generate one tangible
//!   state per (marking × in-progress multiset) combination; the quotient
//!   keeps only the occupancy vector, shrinking the chain by the number
//!   of ways the same marking is reached with different firing multisets
//!   (11–16× at n = 4–6 for the Architecture II net, growing with n).
//! * **Lumped edges** `u → u'` carry the summed probability of every
//!   phase outcome of `u` whose own post-completion marking is `u'`.
//! * **De-lumping is exact.** One-step balance gives the raw stationary
//!   distribution as `π(x) = Σ_u π̄(u)·D(u)(x)`, where `D(u)` is the
//!   instantaneous-phase outcome distribution of `u`. Every reported
//!   measure is linear in `π`, so it is recovered from per-lumped-state
//!   conditional expectations accumulated during expansion:
//!   `E[c_t | u]` (mean in-progress firings of transition `t`) and
//!   `E[m_p | u]` (mean tokens in place `p`). All sojourn times are 1 on
//!   both sides, so embedded and time-weighted distributions coincide and
//!   no re-weighting is needed.
//!
//! A net qualifies ([`lumpable`]) exactly when every transition's delay
//! is ≤ 1. Heterogeneous delays leave firings part-way through their
//! duration at the time advance, the successor distribution then depends
//! on the residual-firing multiset, and lumping correctly declines — the
//! raw pipeline handles those nets unchanged.
//!
//! The expansion is the raw build's own breadth-first driver
//! (`reach::explore`) over post-completion markings, with this
//! module's per-state fold in place of the time advance: states are
//! expanded in discovery order and successor markings are numbered in each
//! state's phase-outcome order, so state numbering, edge lists and every
//! accumulated float are fixed by the net alone.

use crate::compiled::CompiledNet;
use crate::error::GtpnError;
use crate::intern::{hash_words, IndexTable};
use crate::net::Net;
use crate::phase::{keep, lumped_phase, pending_ids, Class};
use crate::reach::{explore, state_hash, Expansion, ReachabilityGraph, Worker};
use crate::solve::Solution;

/// Lumping policy of an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LumpSel {
    /// Lump whenever the net qualifies ([`lumpable`]) — the default.
    /// Lumping is exact, so it is never forced onto a net whose delay
    /// structure disqualifies it.
    #[default]
    On,
    /// Never lump; every exact solve runs on the raw tangible chain.
    Off,
}

impl LumpSel {
    /// Whether this policy permits lumping at all.
    pub(crate) fn enabled(self) -> bool {
        !matches!(self, LumpSel::Off)
    }
}

/// Whether `net` qualifies for exact lumping: valid and every transition
/// delay ≤ 1 (see the module docs for why that is the exact criterion).
pub fn lumpable(net: &Net) -> bool {
    net.validate().is_ok()
        && (0..net.transition_count()).all(|t| net.transition_delay(crate::net::TransId(t)) <= 1)
}

/// The quotient chain plus the per-state conditional expectations needed
/// to de-lump its solution; see the module docs.
#[derive(Debug)]
pub(crate) struct LumpedGraph {
    /// The lumped embedded chain: states are post-completion markings
    /// (with empty firing multisets), all sojourns 1. Solvers run on it
    /// unchanged.
    pub(crate) graph: ReachabilityGraph,
    /// Its de-lumping rows.
    pub(crate) rows: Rows,
}

/// A lumped chain's de-lumping rows: per state `E[c_t | u]`, the expected
/// number of in-progress firings of each transition conditioned on the
/// lumped state (its *usage row*), and `E[m_p | u]`, the expected tangible
/// token count of each place (its *token row*). Empty for a raw chain.
///
/// A usage row is a sum of phase-outcome probabilities over the pending
/// firings, so the many states whose phases fire alike share one: the
/// Architecture II chain at n = 12 has 127 distinct usage rows over 76,076
/// states. Each distinct row is held once, and a state keeps its row's id
/// beside its own token row. Ids are internal — two builds of one chain may
/// number its rows differently; a state's values are what they agree on.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    transitions: usize,
    places: usize,
    /// The distinct usage rows, `transitions` wide, in first-use order.
    usage: Vec<f64>,
    /// Per state, the id of its usage row.
    ids: Vec<u32>,
    /// Per state, its token row, `places` wide.
    tokens: Vec<f64>,
}

impl Rows {
    /// Rows of a chain of `net`'s width, with room for `states` states.
    fn new(net: &Net, states: usize) -> Rows {
        Rows {
            transitions: net.transition_count(),
            places: net.place_count(),
            usage: Vec::new(),
            ids: Vec::with_capacity(states),
            tokens: Vec::with_capacity(states * net.place_count()),
        }
    }

    /// State `i`'s usage row.
    pub(crate) fn usage(&self, i: usize) -> &[f64] {
        self.usage_row(self.ids[i] as usize)
    }

    /// State `i`'s token row.
    pub(crate) fn tokens(&self, i: usize) -> &[f64] {
        &self.tokens[i * self.places..(i + 1) * self.places]
    }

    fn usage_row(&self, id: usize) -> &[f64] {
        &self.usage[id * self.transitions..(id + 1) * self.transitions]
    }

    /// Appends `usage` as a new distinct row; returns its id.
    fn add_usage(&mut self, usage: &[f64]) -> u32 {
        let id = self.usage_rows();
        self.usage.extend_from_slice(usage);
        u32::try_from(id).expect("usage rows fit u32")
    }

    /// The number of distinct usage rows.
    pub(crate) fn usage_rows(&self) -> usize {
        self.usage.len() / self.transitions.max(1)
    }

    /// Every state's usage row and token row, by bit pattern — what two
    /// builds of one chain must agree on, whatever their ids.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> Vec<u64> {
        (0..self.ids.len())
            .flat_map(|i| self.usage(i).iter().chain(self.tokens(i)))
            .map(|x| x.to_bits())
            .collect()
    }

    /// What a skeleton records of these rows.
    pub(crate) fn record(&self) -> RecordedRows {
        RecordedRows {
            ids: self.ids.clone().into_boxed_slice(),
            distinct: self.usage_rows(),
        }
    }

    /// What [`record`](Self::record) holds: a word per state.
    pub(crate) fn record_bytes(&self) -> usize {
        4 * self.ids.len()
    }
}

/// What a skeleton keeps of a lumped chain's rows: each state's usage-row
/// id, one `u32` word each, and the number of distinct rows. The rows
/// themselves are re-priced ([`RowReplay`]).
#[derive(Debug)]
pub(crate) struct RecordedRows {
    ids: Box<[u32]>,
    distinct: usize,
}

impl RecordedRows {
    /// Resident bytes.
    pub(crate) fn bytes(&self) -> usize {
        4 * self.ids.len()
    }
}

/// Whether two rows are the same bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The rows of a fresh build as the merge appends them, each state's usage
/// row de-duplicated by content against the rows before it. The merge runs
/// in state order, so a net's rows are numbered alike in every build.
pub(crate) struct RowIndex {
    rows: Rows,
    /// Finds a distinct usage row by its content hash; `hashes[id]` is row
    /// `id`'s, kept so that growing the table rehashes nothing.
    table: IndexTable,
    hashes: Vec<u64>,
}

impl RowIndex {
    pub(crate) fn new(net: &Net) -> RowIndex {
        RowIndex {
            rows: Rows::new(net, 0),
            table: IndexTable::new(),
            hashes: Vec::new(),
        }
    }

    /// Appends the next state's rows: `row` is its usage row, then its
    /// token row.
    pub(crate) fn push(&mut self, row: &[f64]) {
        let RowIndex {
            rows,
            table,
            hashes,
        } = self;
        debug_assert_eq!(row.len(), rows.transitions + rows.places, "one state's row");
        let (usage, tokens) = row.split_at(rows.transitions);
        let hash = usage.iter().fold(0, |h, x| {
            let bits = x.to_bits();
            hash_words(h, &[bits as u32, (bits >> 32) as u32])
        });
        let id = match table.find(hash, |id| same_bits(rows.usage_row(id), usage)) {
            Some(id) => id as u32,
            None => {
                let id = rows.add_usage(usage);
                hashes.push(hash);
                table.insert(hash, id as usize, |id| hashes[id]);
                id
            }
        };
        rows.ids.push(id);
        rows.tokens.extend_from_slice(tokens);
    }

    pub(crate) fn finish(self) -> Rows {
        let mut rows = self.rows;
        rows.usage.shrink_to_fit();
        rows.ids.shrink_to_fit();
        rows.tokens.shrink_to_fit();
        rows
    }
}

/// A replay's rows, sized up front. The replay hashes nothing: it follows
/// the recording's ids. Ids are numbered in first-use order, so the
/// replayed table starts as the recorded one, its row `r` re-priced at the
/// first state the recording gave id `r`. A later state of id `r` is
/// checked against that row, bit for bit. Rows equal at the recording's
/// rates may differ at the replay's, so a row that fails the check is
/// appended with an id of its own.
pub(crate) struct RowReplay<'a> {
    recorded: &'a RecordedRows,
    rows: Rows,
    /// Recorded ids re-priced so far: `0..seen`.
    seen: usize,
    /// A later state's usage row, to check.
    usage: Vec<f64>,
}

impl<'a> RowReplay<'a> {
    /// The rows of a replay of `recorded`'s chain, a chain of `net` with
    /// `states` states.
    pub(crate) fn new(net: &Net, recorded: &'a RecordedRows, states: usize) -> RowReplay<'a> {
        let mut rows = Rows::new(net, states);
        rows.usage.resize(recorded.distinct * rows.transitions, 0.0);
        rows.tokens.resize(states * rows.places, 0.0);
        RowReplay {
            recorded,
            usage: vec![0.0; rows.transitions],
            rows,
            seen: 0,
        }
    }

    /// The zeroed usage row to re-price for state `i` — its row in the
    /// table when the state is the first of its recorded id — and the
    /// state's zeroed token row.
    pub(crate) fn state(&mut self, i: usize) -> (&mut [f64], &mut [f64]) {
        let Rows {
            transitions,
            places,
            usage,
            tokens,
            ..
        } = &mut self.rows;
        let id = self.recorded.ids[i] as usize;
        debug_assert!(id <= self.seen, "recorded ids are in first-use order");
        let row = if id == self.seen {
            &mut usage[id * *transitions..(id + 1) * *transitions]
        } else {
            self.usage.fill(0.0);
            &mut self.usage
        };
        (row, &mut tokens[i * *places..(i + 1) * *places])
    }

    /// Files state `i`'s re-priced usage row, under the id the recording
    /// gave it unless the check fails.
    pub(crate) fn file(&mut self, i: usize) {
        let RowReplay {
            recorded,
            rows,
            seen,
            usage,
        } = self;
        let id = recorded.ids[i] as usize;
        let id = if id == *seen {
            *seen += 1;
            id as u32
        } else if same_bits(rows.usage_row(id), usage) {
            id as u32
        } else {
            rows.add_usage(usage)
        };
        rows.ids.push(id);
    }

    pub(crate) fn finish(self) -> Rows {
        self.rows
    }
}

/// Recovers the raw chain's per-place mean tokens and per-transition usages
/// — in that order — from the solution of a lumped chain with these
/// de-lumping `rows`: `measure = Σ_u π̄(u)·E[measure | u]` (exact; module
/// docs).
pub(crate) fn delump(rows: &Rows, solution: &Solution) -> (Vec<f64>, Vec<f64>) {
    let pi = solution.state_probabilities();
    let mut transition_usage = vec![0.0f64; rows.transitions];
    let mut mean_tokens = vec![0.0f64; rows.places];
    for (i, &p) in pi.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        for (acc, &e) in transition_usage.iter_mut().zip(rows.usage(i)) {
            *acc += p * e;
        }
        for (acc, &e) in mean_tokens.iter_mut().zip(rows.tokens(i)) {
            *acc += p * e;
        }
    }
    (mean_tokens, transition_usage)
}

/// Expands one lumped state: run the instantaneous phase from its marking
/// (all prior firings completed, so nothing is carried) and fold each
/// outcome, in phase-outcome order, to its own post-completion marking —
/// successors de-duplicated in first-seen order, the conditional-expectation
/// row (`E[c_t | u]` then `E[m_p | u]`) accumulated over the same outcomes.
///
/// With `RECORD`, the phase's tape is followed by one entry per outcome:
/// its successor's first-seen slot, the number of its pending firings and
/// their transitions — everything [`refold`](crate::skeleton::refold)
/// needs, the outcome's tokens being its successor's marking less those
/// firings' outputs.
fn expand_lumped<const RECORD: bool>(
    net: &CompiledNet,
    graph: &ReachabilityGraph,
    si: usize,
    w: &mut Worker,
    out: &mut Expansion,
) -> Result<(), GtpnError> {
    fold::<RECORD>(net, graph.marking(si), si, w, out)
}

/// [`expand_lumped`] for state `si`, whose marking is `start`. The phase
/// memo keeps a class's first successful fold together with its phase
/// ([`keep`]) and serves the class's later starts from them
/// ([`lumped_phase`]), with the bits of the fold below.
pub(crate) fn fold<const RECORD: bool>(
    net: &CompiledNet,
    start: &[u32],
    si: usize,
    w: &mut Worker,
    out: &mut Expansion,
) -> Result<(), GtpnError> {
    let tcount = net.transitions.len();
    w.row.clear();
    w.row.resize(tcount + net.places, 0.0);
    let keeping = match lumped_phase::<RECORD>(net, start, w, out)? {
        Class::Served => {
            out.finish_state(1, &w.row);
            return Ok(());
        }
        Class::Ran(keeping) => keeping,
    };
    w.seen.clear();
    let (usage_row, tokens_row) = w.row.split_at_mut(tcount);
    for (m, pending, p) in w.phase.outcomes(net.places) {
        if pending[0] == 0 {
            // A tangible state with nothing in progress never advances:
            // the raw build reports the same deadlock when it expands it.
            return Err(GtpnError::Deadlock { state: si });
        }
        for (acc, &tokens) in tokens_row.iter_mut().zip(m) {
            *acc += p * f64::from(tokens);
        }
        w.marking.clear();
        w.marking.extend_from_slice(m);
        for t in pending_ids(pending) {
            usage_row[t] += p;
            for &(pl, mult) in &net.transitions[t].outputs {
                w.marking[pl] += mult;
            }
        }
        let hash = state_hash(&w.marking, &[]);
        let next = w.marking.as_slice();
        let slot = match w.seen.find(hash, |k| out.successor_marking(k) == next) {
            Some(k) => {
                out.add_probability(k, p);
                k
            }
            None => {
                let k = out.successor_count();
                w.seen.insert(hash, k, |k| out.successor_hash(k));
                out.push_successor(next, &[], p, hash);
                k
            }
        };
        if RECORD {
            let at = out.tape.len();
            out.tape.extend([slot as u32, 0]);
            out.tape.extend(pending_ids(pending).map(|t| t as u32));
            out.tape[at + 1] = (out.tape.len() - at - 2) as u32;
        }
    }
    if let Some(run) = keeping {
        keep(w, run, start, out);
    }
    out.finish_state(1, &w.row);
    Ok(())
}

/// Builds the lumped chain of `net` directly — post-completion markings
/// are interned without ever materializing the raw tangible state space —
/// and, with `record`, the tape of its phase arithmetic and folds a
/// [`Skeleton`](crate::skeleton::Skeleton) keeps (`net` must then have a
/// [`Shape`](crate::compiled::Shape)).
///
/// The caller is responsible for checking [`lumpable`] first; the budget
/// applies to *lumped* states, so an `Auto` engine falls back to DES only
/// past the quotient chain's size.
///
/// # Errors
///
/// Those of [`Net::reachability`], with [`GtpnError::StateSpaceExceeded`]
/// measured against the lumped state count.
pub(crate) fn lumped_chain(
    net: &Net,
    max_states: usize,
    record: bool,
) -> Result<(LumpedGraph, Vec<u32>), GtpnError> {
    // The initial marking is the chain's first post-completion marking
    // ("everything completed before time zero"); its expansion is exactly
    // the raw build's initial instantaneous phase.
    let initial = net.initial_marking();
    let seed = |_: &CompiledNet, _: &mut Worker, out: &mut Expansion| {
        out.push_successor(&initial, &[], 1.0, state_hash(&initial, &[]));
        Ok(())
    };
    let expand = if record {
        expand_lumped::<true>
    } else {
        expand_lumped::<false>
    };
    let rows = Some(RowIndex::new(net));
    let (graph, rows, tape) = explore(net, max_states, rows, seed, expand)?;
    Ok((LumpedGraph { graph, rows }, tape))
}

/// [`lumped_chain`] without a tape, as the tests build it.
#[cfg(test)]
pub(crate) fn reach_lumped(net: &Net, max_states: usize) -> Result<LumpedGraph, GtpnError> {
    lumped_chain(net, max_states, false).map(|(lumped, _)| lumped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::geometric::GeometricStage;
    use crate::net::Transition;
    use std::collections::HashMap;

    /// `n` clients cycling through a geometric stage (mean `m`) that
    /// competes for one shared server token — the shape of the paper's
    /// conversation nets, fully symmetric in the clients.
    fn symmetric(n: u32, m: f64) -> Net {
        let mut net = Net::new("sym");
        let p = net.add_place("Clients", n);
        let srv = net.add_place("Server", 1);
        let q = net.add_place("Done", 0);
        net.add_transition(
            Transition::new("serve")
                .delay(1)
                .frequency(Expr::constant(1.0 / m))
                .resource("lambda")
                .input(p, 1)
                .input(srv, 1)
                .output(q, 1)
                .output(srv, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("think")
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

    fn solve_raw(net: &Net) -> Solution {
        net.reachability(100_000)
            .unwrap()
            .solve(1e-13, 200_000)
            .unwrap()
    }

    fn solve_lumped(net: &Net) -> (LumpedGraph, Solution) {
        let lumped = reach_lumped(net, 100_000).unwrap();
        let sol = lumped.graph.solve(1e-13, 200_000).unwrap();
        (lumped, sol)
    }

    #[test]
    fn lumpable_requires_unit_delays() {
        assert!(lumpable(&symmetric(2, 4.0)));
        let mut hetero = Net::new("hetero");
        let a = hetero.add_place("A", 1);
        hetero
            .add_transition(Transition::new("T2").delay(2).input(a, 1).output(a, 1))
            .unwrap();
        assert!(!lumpable(&hetero));
        assert!(!lumpable(&Net::new("empty")));
    }

    #[test]
    fn lumped_chain_is_smaller_and_measures_agree() {
        for n in [2u32, 3, 4] {
            let net = symmetric(n, 5.0);
            let raw = solve_raw(&net);
            let (lumped, sol) = solve_lumped(&net);
            let raw_states = net.reachability(100_000).unwrap().state_count();
            assert!(
                lumped.graph.state_count() <= raw_states,
                "n={n}: lumped {} > raw {raw_states}",
                lumped.graph.state_count()
            );
            let (mean_tokens, transition_usage) = delump(&lumped.rows, &sol);
            let want = raw.resource_usage("lambda").unwrap();
            let got = crate::solve::by_resource(&net, &transition_usage).0["lambda"];
            assert!(
                (want - got).abs() <= 1e-10,
                "n={n}: usage {got} vs raw {want}"
            );
            for (t, &usage) in transition_usage.iter().enumerate() {
                let id = crate::net::TransId(t);
                assert!(
                    (raw.transition_usage(id) - usage).abs() <= 1e-10,
                    "n={n}: transition {t} usage diverged"
                );
            }
            let raw_graph = net.reachability(100_000).unwrap();
            for (p, &tokens) in mean_tokens.iter().enumerate() {
                let id = crate::net::PlaceId(p);
                assert!(
                    (raw_graph.mean_tokens(&raw, id) - tokens).abs() <= 1e-10,
                    "n={n}: place {p} tokens diverged"
                );
            }
        }
    }

    /// Three independent rings of three geometric stages and one processor
    /// each — a stage holds its ring's processor while it fires, as the
    /// paper's stages hold `Host` or `MP` — with `tokens` in each ring's
    /// three places and stage means from `mean` up. Phases stay short (one
    /// firing per ring) while the lumped states are products of the rings'
    /// occupancy vectors.
    fn rings_of(tokens: [u32; 3], mean: f64) -> Net {
        let mut net = Net::new("rings");
        for r in 0..3 {
            let cpu = net.add_place(format!("Cpu{r}"), 1);
            let places: Vec<_> = (0..3)
                .map(|i| net.add_place(format!("P{r}_{i}"), tokens[i]))
                .collect();
            for i in 0..3 {
                GeometricStage::new(format!("S{r}_{i}"), mean + (r + i) as f64)
                    .input(places[i], 1)
                    .held(cpu)
                    .output(places[(i + 1) % 3], 1)
                    .build(&mut net)
                    .unwrap();
            }
        }
        net
    }

    /// The lumped chain as nested vectors: markings, out-edges, usage rows
    /// and token rows.
    type ReferenceChain = (Vec<Vec<u32>>, Vec<Vec<(usize, f64)>>, Vec<f64>, Vec<f64>);

    /// The serial lumped build as it ran on the reference kernel's `State`
    /// outcomes: per state a `HashMap` de-duplicates successors in
    /// first-seen order, a global one interns them.
    fn reference_lumped(net: &Net, max_states: usize) -> Result<ReferenceChain, GtpnError> {
        net.validate()?;
        let mut states: Vec<Vec<u32>> = vec![net.initial_marking()];
        let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
        index.insert(net.initial_marking(), 0);
        let (mut edges, mut usage, mut tokens) = (Vec::new(), Vec::new(), Vec::new());
        let mut fired = vec![false; net.transition_count()];
        let mut si = 0;
        while si < states.len() {
            let outcomes = crate::reach::reference::instantaneous_phase(
                net,
                states[si].clone(),
                Vec::new(),
                &mut fired,
            )?;
            let mut succ: Vec<(Vec<u32>, f64)> = Vec::new();
            let mut local: HashMap<Vec<u32>, usize> = HashMap::new();
            let mut usage_row = vec![0.0f64; net.transition_count()];
            let mut tokens_row = vec![0.0f64; net.place_count()];
            for (state, p) in outcomes {
                if state.firings.is_empty() {
                    return Err(GtpnError::Deadlock { state: si });
                }
                for (acc, &m) in tokens_row.iter_mut().zip(state.marking.iter()) {
                    *acc += p * f64::from(m);
                }
                let mut next = state.marking;
                for &(t, _) in &state.firings {
                    usage_row[t.0] += p;
                    for &(pl, mult) in net.transition_outputs(t) {
                        next[pl.0] += mult;
                    }
                }
                match local.get(&next) {
                    Some(&j) => succ[j].1 += p,
                    None => {
                        local.insert(next.clone(), succ.len());
                        succ.push((next, p));
                    }
                }
            }
            let mut out = Vec::with_capacity(succ.len());
            for (u, p) in succ {
                let j = match index.get(&u) {
                    Some(&j) => j,
                    None if states.len() >= max_states => {
                        return Err(GtpnError::StateSpaceExceeded { limit: max_states })
                    }
                    None => {
                        states.push(u.clone());
                        index.insert(u, states.len() - 1);
                        states.len() - 1
                    }
                };
                out.push((j, p));
            }
            edges.push(out);
            usage.extend(usage_row);
            tokens.extend(tokens_row);
            si += 1;
        }
        Ok((states, edges, usage, tokens))
    }

    /// Asserts the flat lumped build of `net` is the reference lumped
    /// build: numbering, edge bits, both conditional-expectation rows bit
    /// for bit — or the same error. Returns the flat build.
    fn assert_matches_reference(net: &Net, max_states: usize) -> Option<LumpedGraph> {
        let got = reach_lumped(net, max_states);
        match (got, reference_lumped(net, max_states)) {
            (Ok(got), Ok((states, edges, usage, tokens))) => {
                let g = &got.graph;
                assert_eq!(g.state_count(), states.len());
                let tcount = net.transition_count();
                for (i, u) in states.iter().enumerate() {
                    assert_eq!(g.marking(i), u.as_slice(), "state {i}");
                    assert!(g.firings(i).is_empty());
                    let bits = |e: &[(usize, f64)]| -> Vec<(usize, u64)> {
                        e.iter().map(|&(j, p)| (j, p.to_bits())).collect()
                    };
                    assert_eq!(bits(g.out_edges(i)), bits(&edges[i]), "edges of state {i}");
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let pcount = net.place_count();
                for i in 0..states.len() {
                    assert_eq!(
                        bits(got.rows.usage(i)),
                        bits(&usage[i * tcount..][..tcount]),
                        "usage {i}"
                    );
                    assert_eq!(
                        bits(got.rows.tokens(i)),
                        bits(&tokens[i * pcount..][..pcount]),
                        "tokens {i}"
                    );
                }
                assert!(g.sojourns().iter().all(|&h| h == 1));
                Some(got)
            }
            (got, want) => {
                assert_eq!(got.err(), want.err());
                None
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(384))]

        /// The flat lumped build is the reference lumped build on random
        /// unit-delay nets: numbering, edge bits, both conditional-
        /// expectation rows bit for bit — or the same error.
        #[test]
        fn flat_fold_matches_reference(
            initial in crate::reach::arbitrary::initial(),
            specs in crate::reach::arbitrary::transitions(),
        ) {
            let net = crate::reach::arbitrary::net(&initial, &specs, [0, 0, 1, 1, 1, 1]);
            assert!(lumpable(&net) || net.validate().is_err());
            assert_matches_reference(&net, 300);
        }
    }

    /// The phase memo serves almost every phase of a wide lumped build,
    /// and its fold with it — 21,952 states whose rings' processors gate
    /// every stage, so a phase's class ignores how many tokens wait behind
    /// them — and the chain is still the reference build's bit for bit,
    /// token rows included, its usage rows held once each.
    #[test]
    fn memo_served_build_matches_reference() {
        let lumped =
            assert_matches_reference(&rings_of([2, 2, 2], 2.0), 100_000).expect("the rings build");
        let build = lumped.graph.build;
        assert_eq!(lumped.graph.state_count(), 21_952);
        assert_eq!(build.phase_calls, 21_952);
        assert!(
            build.phase_hits * 10 >= build.phase_calls * 9,
            "{} of {} folds served",
            build.phase_hits,
            build.phase_calls
        );
        // The states fire their stages in few ways — a ring's usage depends
        // only on which of its three places hold tokens, seven ways for six
        // tokens — and each way's usage row is held once.
        assert_eq!(lumped.rows.usage_rows(), 7 * 7 * 7);
    }

    /// A class whose fold fails — an outcome with nothing in progress — is
    /// never kept: every dead start runs its phase and its fold again, and
    /// each error names the state at hand, as the reference build does. A
    /// healthy class beside it is noted, kept with its fold, then served.
    #[test]
    fn a_served_class_with_a_dead_outcome_is_never_folded() {
        let mut net = Net::new("dead");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("T").delay(1).input(a, 1).output(b, 1))
            .unwrap();
        // State 0 is `A`, its successor `B` enables nothing.
        assert_matches_reference(&net, 100);
        let err = reach_lumped(&net, 100).unwrap_err();
        assert_eq!(err, GtpnError::Deadlock { state: 1 });
        let compiled = CompiledNet::new(&net);
        let mut w = Worker::new(&compiled);
        for si in 0..4 {
            let mut out = Expansion::new(compiled.places);
            let err = fold::<false>(&compiled, &[0, 1], si, &mut w, &mut out).unwrap_err();
            assert_eq!(err, GtpnError::Deadlock { state: si });
        }
        assert_eq!((w.phase.calls, w.memo.hits), (4, 0));
        for _ in 0..4 {
            let mut out = Expansion::new(compiled.places);
            fold::<false>(&compiled, &[1, 0], 0, &mut w, &mut out).unwrap();
            assert_eq!(out.successor_marking(0), [0, 1]);
        }
        assert_eq!((w.phase.calls, w.memo.hits), (8, 2));
    }

    /// A recording build served by the phase memo and its folds records
    /// the tape a fresh run of every phase and fold would: it is the plain
    /// build, and its skeleton, re-priced at other stage means, is the
    /// fresh build at those means.
    #[test]
    fn a_memo_served_recording_replays_to_a_fresh_build() {
        use crate::reach::assert_graphs_identical;
        use crate::skeleton::Skeleton;
        let (net, other) = (rings_of([2, 2, 2], 2.0), rings_of([2, 2, 2], 3.5));
        let (chain, tape) = lumped_chain(&net, 100_000, true).unwrap();
        let served = chain.graph.build;
        // A served phase comes with its fold, tape entries included.
        assert!(
            served.phase_hits * 10 >= served.phase_calls * 9,
            "{} of {} phases served",
            served.phase_hits,
            served.phase_calls
        );
        let plain = reach_lumped(&net, 100_000).unwrap();
        assert_graphs_identical(&chain.graph, &plain.graph);
        assert_eq!(chain.rows.bits(), plain.rows.bits());
        let rates = crate::compiled::Shape::of(&other)
            .expect("constant rates")
            .rates;
        let Ok(replayed) = Skeleton::new(&chain, tape).replay(&other, &rates) else {
            panic!("no branch of these rings is near the probability floor");
        };
        let fresh = reach_lumped(&other, 100_000).unwrap();
        assert_graphs_identical(&replayed.graph, &fresh.graph);
        assert_eq!(replayed.rows.bits(), fresh.rows.bits(), "rows drifted");
    }

    /// One token either works or toggles a flag through a zero-delay
    /// raise or lower, and `work`'s rate reads the flag: `down` while it is
    /// down, `up` while it is up. Every lumped state fires `work` or
    /// `toggle` alone, so their usage rows are one row when `down = up` and
    /// two otherwise.
    fn flag(down: f64, up: f64) -> Net {
        let mut net = Net::new("flag");
        let p = net.add_place("P", 1);
        let t = net.add_place("T", 0);
        let lowered = net.add_place("Down", 1);
        let raised = net.add_place("Up", 0);
        let is_down = Expr::Lt(
            Box::new(Expr::Tokens(raised)),
            Box::new(Expr::constant(1.0)),
        );
        let rate = Expr::If(
            Box::new(is_down),
            Box::new(Expr::constant(down)),
            Box::new(Expr::constant(up)),
        );
        for transition in [
            Transition::new("work")
                .delay(1)
                .frequency(rate)
                .input(p, 1)
                .output(p, 1),
            Transition::new("toggle").delay(1).input(p, 1).output(t, 1),
            Transition::new("raise")
                .delay(0)
                .input(t, 1)
                .input(lowered, 1)
                .output(raised, 1)
                .output(p, 1),
            Transition::new("lower")
                .delay(0)
                .input(t, 1)
                .input(raised, 1)
                .output(lowered, 1)
                .output(p, 1),
        ] {
            net.add_transition(transition).unwrap();
        }
        net
    }

    /// A recording whose states all share one usage row, re-priced at
    /// rates that tell them apart: each state's replayed rows are the fresh
    /// build's, bit for bit.
    #[test]
    fn a_replay_parts_rows_the_recording_shared() {
        use crate::reach::assert_graphs_identical;
        use crate::skeleton::Skeleton;
        let (chain, tape) = lumped_chain(&flag(0.5, 0.5), 100, true).unwrap();
        assert_eq!((chain.graph.state_count(), chain.rows.usage_rows()), (4, 1));
        let other = flag(0.5, 2.0);
        let rates = crate::compiled::Shape::of(&other)
            .expect("constant rates")
            .rates;
        let Ok(replayed) = Skeleton::new(&chain, tape).replay(&other, &rates) else {
            panic!("no branch of the flag net is near the probability floor");
        };
        let fresh = reach_lumped(&other, 100).unwrap();
        assert_eq!(fresh.rows.usage_rows(), 2);
        assert_graphs_identical(&replayed.graph, &fresh.graph);
        assert_eq!(replayed.rows.bits(), fresh.rows.bits(), "rows drifted");
    }

    #[test]
    fn lumped_budget_counts_lumped_states() {
        let net = symmetric(4, 5.0);
        let count = reach_lumped(&net, 100_000).unwrap().graph.state_count();
        let err = reach_lumped(&net, count - 1).unwrap_err();
        assert!(matches!(
            err,
            GtpnError::StateSpaceExceeded { limit } if limit == count - 1
        ));
    }

    #[test]
    fn lumped_deadlock_detected() {
        let mut net = Net::new("dead");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("T").delay(1).input(a, 1).output(b, 1))
            .unwrap();
        let err = reach_lumped(&net, 100).unwrap_err();
        assert!(matches!(err, GtpnError::Deadlock { .. }));
    }
}

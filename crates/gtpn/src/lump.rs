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
//! ([`crate::reach::explore`]) over post-completion markings, with this
//! module's per-state fold in place of the time advance: workers expand
//! disjoint chunks of a level, results are reduced in frontier order, and
//! successor markings are numbered in each state's phase-outcome order —
//! state numbering, edge lists and every accumulated float are
//! byte-identical to a serial build.

use crate::compiled::CompiledNet;
use crate::error::GtpnError;
use crate::net::Net;
use crate::par::ParallelBudget;
use crate::reach::{
    explore, instantaneous_phase, pending_ids, state_hash, Expansion, ReachabilityGraph, Worker,
};
use crate::solve::Solution;
use std::collections::HashMap;

/// Lumping policy of an engine (`HSIPC_LUMP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LumpSel {
    /// Lump whenever the net qualifies ([`lumpable`]) — the default.
    #[default]
    Auto,
    /// Same behavior as [`Auto`](LumpSel::Auto): lumping is exact, so
    /// "on" cannot force it onto a net whose delay structure disqualifies
    /// it; the variant exists so `HSIPC_LUMP=on` reads as the stated
    /// intent in scripts and CI legs.
    On,
    /// Never lump; every exact solve runs on the raw tangible chain.
    Off,
}

impl LumpSel {
    /// Policy selected by `HSIPC_LUMP` (`auto`, `on`/`1` or `off`/`0`,
    /// case-insensitive); unset or unrecognized values mean [`Auto`].
    /// Read fresh on every call — not latched — so tests and CI identity
    /// legs can flip it within one process.
    ///
    /// [`Auto`]: LumpSel::Auto
    pub fn from_env() -> LumpSel {
        match std::env::var("HSIPC_LUMP") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("on") => LumpSel::On,
            Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => LumpSel::Off,
            _ => LumpSel::Auto,
        }
    }

    /// Whether this policy permits lumping at all.
    pub fn enabled(self) -> bool {
        !matches!(self, LumpSel::Off)
    }
}

/// Whether `net` qualifies for exact lumping: valid and every transition
/// delay ≤ 1 (see the module docs for why that is the exact criterion).
/// Permutation-invariant, so it answers identically for a canonical
/// reordering of the same net.
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
    /// One row per state, `transition_count + place_count` wide: first
    /// `E[c_t | u]`, the expected number of in-progress firings of each
    /// transition conditioned on the lumped state, then `E[m_p | u]`, the
    /// expected tangible token count of each place.
    rows: Vec<f64>,
}

/// The de-lumped steady-state measures, shaped like [`Solution`]'s
/// aggregates so the engine can serve them through the same accessors.
#[derive(Debug)]
pub(crate) struct Delumped {
    /// Resource label → time-weighted mean in-progress count.
    pub(crate) resource_usage: HashMap<String, f64>,
    /// Resource label → minimum delay among its transitions.
    pub(crate) resource_delay: HashMap<String, u64>,
    /// Per-place time-averaged token counts.
    pub(crate) mean_tokens: Vec<f64>,
    /// Per-transition time-averaged in-progress firing counts.
    pub(crate) transition_usage: Vec<f64>,
}

impl LumpedGraph {
    /// Recovers the raw chain's measures from the lumped solution:
    /// `measure = Σ_u π̄(u)·E[measure | u]` (exact; module docs).
    pub(crate) fn delump(&self, solution: &Solution) -> Delumped {
        let pi = solution.state_probabilities();
        let tcount = self.graph.net.transition_count();
        let pcount = self.graph.net.place_count();
        let mut transition_usage = vec![0.0f64; tcount];
        let mut mean_tokens = vec![0.0f64; pcount];
        for (&p, row) in pi.iter().zip(self.rows.chunks_exact(tcount + pcount)) {
            if p == 0.0 {
                continue;
            }
            let (urow, trow) = row.split_at(tcount);
            for (acc, &e) in transition_usage.iter_mut().zip(urow) {
                *acc += p * e;
            }
            for (acc, &e) in mean_tokens.iter_mut().zip(trow) {
                *acc += p * e;
            }
        }
        let mut resource_usage: HashMap<String, f64> = HashMap::new();
        let mut resource_delay: HashMap<String, u64> = HashMap::new();
        for (ti, t) in self.graph.net.transitions.iter().enumerate() {
            if let Some(r) = &t.resource {
                *resource_usage.entry(r.clone()).or_insert(0.0) += transition_usage[ti];
                let d = resource_delay.entry(r.clone()).or_insert(t.delay);
                *d = (*d).min(t.delay);
            }
        }
        Delumped {
            resource_usage,
            resource_delay,
            mean_tokens,
            transition_usage,
        }
    }
}

/// Expands one lumped state: run the instantaneous phase from its marking
/// (all prior firings completed, so nothing is carried) and fold each
/// outcome, in phase-outcome order, to its own post-completion marking —
/// successors de-duplicated in first-seen order, the conditional-expectation
/// row (`E[c_t | u]` then `E[m_p | u]`) accumulated over the same outcomes.
fn expand_lumped(
    net: &CompiledNet,
    graph: &ReachabilityGraph,
    si: usize,
    w: &mut Worker,
    out: &mut Expansion,
) -> Result<(), GtpnError> {
    let tcount = net.transitions.len();
    instantaneous_phase(net, graph.marking(si), &[], &mut w.fired, &mut w.phase)?;
    let first = out.successor_count();
    w.seen.clear();
    w.row.clear();
    w.row.resize(tcount + net.places, 0.0);
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
        match w
            .seen
            .find(hash, |k| out.successor_marking(first + k) == next)
        {
            Some(k) => out.add_probability(first + k, p),
            None => {
                w.seen.insert(hash, out.successor_count() - first, |k| {
                    out.successor_hash(first + k)
                });
                out.push_successor(next, &[], p, hash);
            }
        }
    }
    out.finish_state(1, &w.row);
    Ok(())
}

/// Builds the lumped chain of `net` directly — post-completion markings
/// are interned without ever materializing the raw tangible state space.
///
/// The caller is responsible for checking [`lumpable`] first; the budget
/// applies to *lumped* states, so an `Auto` engine falls back to DES only
/// past the quotient chain's size.
///
/// # Errors
///
/// Those of [`Net::reachability`], with [`GtpnError::StateSpaceExceeded`]
/// measured against the lumped state count.
pub(crate) fn reach_lumped_budgeted(
    net: &Net,
    max_states: usize,
    par: &ParallelBudget,
) -> Result<LumpedGraph, GtpnError> {
    // The initial marking is the chain's first post-completion marking
    // ("everything completed before time zero"); its expansion is exactly
    // the raw build's initial instantaneous phase.
    let initial = net.initial_marking();
    let seed = |_: &CompiledNet, _: &mut Worker, out: &mut Expansion| {
        out.push_successor(&initial, &[], 1.0, state_hash(&initial, &[]));
        Ok(())
    };
    let row_len = net.transition_count() + net.place_count();
    let (graph, rows) = explore(net, max_states, par, row_len, seed, expand_lumped)?;
    Ok(LumpedGraph { graph, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::geometric::GeometricStage;
    use crate::net::Transition;
    use crate::reach::PAR_MIN_FRONTIER;

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
        let lumped = reach_lumped_budgeted(net, 100_000, &ParallelBudget::serial()).unwrap();
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
            let d = lumped.delump(&sol);
            let want = raw.resource_usage("lambda").unwrap();
            let got = d.resource_usage["lambda"];
            assert!(
                (want - got).abs() <= 1e-10,
                "n={n}: usage {got} vs raw {want}"
            );
            for t in 0..net.transition_count() {
                let id = crate::net::TransId(t);
                assert!(
                    (raw.transition_usage(id) - d.transition_usage[t]).abs() <= 1e-10,
                    "n={n}: transition {t} usage diverged"
                );
            }
            let raw_graph = net.reachability(100_000).unwrap();
            for p in 0..net.place_count() {
                let id = crate::net::PlaceId(p);
                assert!(
                    (raw_graph.mean_tokens(&raw, id) - d.mean_tokens[p]).abs() <= 1e-10,
                    "n={n}: place {p} tokens diverged"
                );
            }
        }
    }

    /// Three independent rings of three geometric stages, four tokens and
    /// one processor each — a stage holds its ring's processor while it
    /// fires, as the paper's stages hold `Host` or `MP`. Phases stay short
    /// (one firing per ring) while the lumped states, products of the
    /// rings' occupancy vectors, make BFS levels hundreds of states wide.
    fn rings() -> Net {
        let mut net = Net::new("rings");
        for r in 0..3 {
            let cpu = net.add_place(format!("Cpu{r}"), 1);
            let places: Vec<_> = (0..3)
                .map(|i| net.add_place(format!("P{r}_{i}"), if i == 0 { 4 } else { 0 }))
                .collect();
            for i in 0..3 {
                GeometricStage::new(format!("S{r}_{i}"), 2.0 + (r + i) as f64)
                    .input(places[i], 1)
                    .held(cpu)
                    .output(places[(i + 1) % 3], 1)
                    .build(&mut net)
                    .unwrap();
            }
        }
        net
    }

    #[test]
    fn lumped_build_is_deterministic_across_budgets() {
        let net = rings();
        let serial = reach_lumped_budgeted(&net, 100_000, &ParallelBudget::serial()).unwrap();
        assert!(
            serial.graph.state_count() >= 1_000,
            "test net too small ({} states) to exercise the parallel path",
            serial.graph.state_count()
        );
        let budget = ParallelBudget::new(8);
        let par = reach_lumped_budgeted(&net, 100_000, &budget).unwrap();
        crate::reach::assert_graphs_identical(&serial.graph, &par.graph);
        assert_eq!(serial.rows.len(), par.rows.len());
        for (a, b) in serial.rows.iter().zip(&par.rows) {
            assert_eq!(a.to_bits(), b.to_bits(), "conditional expectation drifted");
        }
        assert_eq!(budget.available(), 7, "expansion must release its leases");
        // Errors agree too: the budget, and a deadlock in a wide level —
        // a processor serving its ring's last stage can crash for good, and
        // the many states with all three gone are dead. A worker abandons
        // its chunk part-way through such a state's fold; the
        // lowest-numbered one is reported.
        let serr = reach_lumped_budgeted(&net, 500, &ParallelBudget::serial()).unwrap_err();
        let perr = reach_lumped_budgeted(&net, 500, &budget).unwrap_err();
        assert_eq!(serr, perr);
        let mut crashing = rings();
        for r in 0..3 {
            let cpu = crashing.place_by_name(&format!("Cpu{r}")).unwrap();
            let last = crashing.place_by_name(&format!("P{r}_2")).unwrap();
            crashing
                .add_transition(
                    Transition::new(format!("crash{r}"))
                        .delay(1)
                        .frequency(Expr::constant(0.05))
                        .input(cpu, 1)
                        .input(last, 1),
                )
                .unwrap();
        }
        let serr = reach_lumped_budgeted(&crashing, 100_000, &ParallelBudget::serial());
        let serr = serr.unwrap_err();
        assert!(
            matches!(serr, GtpnError::Deadlock { state } if state > PAR_MIN_FRONTIER),
            "{serr}"
        );
        let perr = reach_lumped_budgeted(&crashing, 100_000, &budget).unwrap_err();
        assert_eq!(serr, perr);
        assert_eq!(budget.available(), 7);
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
            let got = reach_lumped_budgeted(&net, 300, &ParallelBudget::serial());
            match (got, reference_lumped(&net, 300)) {
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
                    for (i, row) in got.rows.chunks_exact(tcount + net.place_count()).enumerate() {
                        let (urow, trow) = row.split_at(tcount);
                        assert_eq!(bits(urow), bits(&usage[i * tcount..][..tcount]), "usage {i}");
                        let pcount = net.place_count();
                        assert_eq!(bits(trow), bits(&tokens[i * pcount..][..pcount]), "tokens {i}");
                    }
                    assert!(g.sojourns().iter().all(|&h| h == 1));
                }
                (got, want) => assert_eq!(got.err(), want.err()),
            }
        }
    }

    #[test]
    fn lumped_budget_counts_lumped_states() {
        let net = symmetric(4, 5.0);
        let count = reach_lumped_budgeted(&net, 100_000, &ParallelBudget::serial())
            .unwrap()
            .graph
            .state_count();
        let err = reach_lumped_budgeted(&net, count - 1, &ParallelBudget::serial()).unwrap_err();
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
        let err = reach_lumped_budgeted(&net, 100, &ParallelBudget::serial()).unwrap_err();
        assert!(matches!(err, GtpnError::Deadlock { .. }));
    }
}

//! Re-pricing a recorded lumped chain: the reader ([`Cursor`],
//! [`Repricer`]) of the `u32` tape a recording build writes, and the
//! [`Skeleton`] a chain of the same shape is replayed from under other
//! rates, each state's fold redone by [`refold`].

use crate::engine::StageLedger;
use crate::lump::{LumpedGraph, RecordedRows, RowReplay};
use crate::net::{Net, TransId};
use crate::phase::PROB_FLOOR;
use crate::reach::ReachabilityGraph;
use std::ops::Range;

/// A replay's place in a skeleton's tape.
pub(crate) struct Cursor<'a> {
    tape: &'a [u32],
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
        self.tape[i] as usize
    }
}

/// A replayed branch probability landed on the other side of
/// [`PROB_FLOOR`] than the recorded one: the new rates take another path
/// through the phase, and only a fresh build can follow it.
pub(crate) struct FloorMoved;

/// Replays recorded phases: the arithmetic of `phase::run_phase` in its
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
    /// Replays one phase under `rates`; see `phase::run_phase` for the
    /// tape's layout.
    fn phase(&mut self, tape: &mut Cursor<'_>, rates: &[f64]) -> Result<(), FloorMoved> {
        let (words, at) = (tape.tape, &mut tape.at);
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
                    total += rates[(word >> 1) as usize];
                }
                for &word in slots {
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

pub(crate) fn read(words: &[u32], at: &mut usize) -> usize {
    *at += 1;
    words[*at - 1] as usize
}

/// `phase::sort_merge` replayed: adds each probability to its recorded
/// destination, in generation order.
fn merge(words: &[u32], at: &mut usize, src: &[f64], dst: &mut Vec<f64>) {
    dst.clear();
    dst.resize(read(words, at), 0.0);
    for &p in src {
        dst[read(words, at)] += p;
    }
}

/// A lumped chain with its probabilities taken out — states, edge
/// targets, the fired record, the work counts and what its rows keep
/// ([`RecordedRows`]) — plus the tape of the phase arithmetic that produced
/// them: each state's words from `phase::run_phase` and from the fold
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
/// A skeleton keeps its integers as the kernel writes them, one `u32` word
/// each — markings, edge targets (state numbers, which the interning table
/// holds to 32 bits), row ids and the tape — and edge offsets and outcome
/// token counts not at all (the replay re-derives them).
#[derive(Debug)]
pub(crate) struct Skeleton {
    rows: RecordedRows,
    states: usize,
    markings: Box<[u32]>,
    targets: Box<[u32]>,
    fired: Box<[bool]>,
    phase_calls: u64,
    phase_configs: u64,
    tape: Box<[u32]>,
}

impl Skeleton {
    /// The skeleton of `chain`, built with `tape` recorded.
    pub(crate) fn new(chain: &LumpedGraph, tape: Vec<u32>) -> Skeleton {
        let graph = &chain.graph;
        debug_assert!(graph.firings.is_empty() && graph.sojourn.iter().all(|&h| h == 1));
        Skeleton {
            rows: chain.rows.record(),
            states: graph.state_count(),
            markings: graph.markings.clone().into_boxed_slice(),
            targets: graph.edges.iter().map(|&(j, _)| j as u32).collect(),
            fired: graph.fired.clone().into_boxed_slice(),
            phase_calls: graph.build.phase_calls,
            phase_configs: graph.build.phase_configs,
            tape: tape.into_boxed_slice(),
        }
    }

    /// The least a skeleton of `chain` can hold, known before it is
    /// recorded: a word per marking entry, edge and row id, and per phase
    /// configuration at least two tape words — its enabled count and,
    /// unless it is a phase's first, its merge destination.
    pub(crate) fn least_bytes(chain: &LumpedGraph) -> usize {
        let graph = &chain.graph;
        std::mem::size_of::<Skeleton>()
            + chain.rows.record_bytes()
            + 4 * (graph.markings.len() + graph.edges.len())
            + 8 * graph.build.phase_configs as usize
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
            + 4 * (self.markings.len() + self.targets.len() + self.tape.len())
            + self.fired.len()
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
        let markings = self.markings.to_vec();
        let mut edges: Vec<_> = self.targets.iter().map(|&j| (j as usize, 0.0)).collect();
        let mut edge_offsets = Vec::with_capacity(states + 1);
        edge_offsets.push(0);
        let mut rows = RowReplay::new(net, &self.rows, states);
        let mut scratch = Vec::new();
        for si in 0..states {
            phase.phase(&mut tape, rates)?;
            let first = *edge_offsets.last().expect("offsets start at 0");
            let successors = refold(
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
            build: StageLedger {
                phase_calls: self.phase_calls,
                phase_configs: self.phase_configs,
                replays: 1,
                ..StageLedger::default()
            },
        };
        Ok(LumpedGraph {
            graph,
            rows: rows.finish(),
        })
    }
}

/// Replays one lumped state's fold from its tape (see `lump::expand_lumped`):
/// `outcomes` are its phase's replayed probabilities, `edges` start at its
/// first edge with their targets filled in, `row` is its zeroed usage row
/// and token row ([`RowReplay::state`]). Every sum is accumulated in the
/// recorded outcome order, as the fold does. Returns the number of
/// successors.
pub(crate) fn refold(
    tape: &mut Cursor<'_>,
    outcomes: &[f64],
    net: &Net,
    markings: &[u32],
    edges: &mut [(usize, f64)],
    (usage_row, tokens_row): (&mut [f64], &mut [f64]),
    tokens: &mut Vec<u32>,
) -> usize {
    let places = net.place_count();
    let mut successors = 0;
    for &p in outcomes {
        let slot = tape.read();
        let pending = tape.list();
        let (succ, prob) = &mut edges[slot];
        tokens.clear();
        tokens.extend_from_slice(&markings[*succ * places..(*succ + 1) * places]);
        for t in pending.clone().map(|i| tape.get(i)) {
            for &(pl, mult) in net.transition_outputs(TransId(t)) {
                tokens[pl.0] -= mult;
            }
        }
        for (acc, &m) in tokens_row.iter_mut().zip(tokens.iter()) {
            *acc += p * f64::from(m);
        }
        for t in pending.map(|i| tape.get(i)) {
            usage_row[t] += p;
        }
        if slot == successors {
            *prob = p;
            successors += 1;
        } else {
            *prob += p;
        }
    }
    successors
}

//! Re-pricing a recorded lumped chain: the tape a recording build writes
//! ([`Packed`]), its reader ([`Cursor`], [`Repricer`]), and the
//! [`Skeleton`] a chain of the same shape is replayed from under other
//! rates, each state's fold redone by [`refold`].

use crate::engine::StageLedger;
use crate::lump::{LumpedGraph, RecordedRows, RowReplay};
use crate::net::{Net, TransId};
use crate::phase::PROB_FLOOR;
use crate::reach::ReachabilityGraph;
use std::ops::Range;

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

    pub(crate) fn push(&mut self, v: u64) {
        self.extend(&[v]);
    }

    /// Appends `values`, widening first if the largest needs it.
    pub(crate) fn extend(&mut self, values: &[u64]) {
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

    pub(crate) fn len(&self) -> usize {
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
    /// tape's layout. The tape's width is matched once per phase, not once
    /// per word.
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

/// `phase::sort_merge` replayed: adds each probability to its recorded
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

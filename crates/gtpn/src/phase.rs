//! The instantaneous firing phase, and the phase memo of lumped builds.
//!
//! [`instantaneous_phase`] runs one phase on fixed-stride `u32` keys in
//! reusable buffers ([`PhaseScratch`]); the raw build of [`crate::reach`]
//! runs every phase so. A lumped build ([`crate::lump`]) goes through
//! [`lumped_phase`] instead, which serves a state whose start class its
//! [`PhaseMemo`] keeps — the phase and the fold together — and runs the
//! kernel otherwise; [`keep`] keeps a class's keeping run with its fold.
//! This module alone reads and writes the memo's words.

use crate::compiled::CompiledNet;
use crate::error::GtpnError;
use crate::intern::{hash_words, IndexTable};
#[cfg(test)]
use crate::net::Net;
use crate::net::TransId;
use crate::reach::{state_hash, Expansion, Worker};
use crate::skeleton::read;
use std::ops::Range;

/// Maximum number of sequential selection rounds inside one instantaneous
/// phase before we declare a zero-delay divergence.
pub(crate) const MAX_PHASE_ROUNDS: usize = 10_000;

/// Probability mass below which a branch is dropped (guards against floating
/// point dust; exact zero frequencies never reach this point).
pub(crate) const PROB_FLOOR: f64 = 1e-300;

/// Pending-firing slots a configuration key starts with; see
/// [`PhaseScratch`]. Grows on demand, so this bounds nothing.
pub(crate) const INITIAL_PENDING_CAP: usize = 4;

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
    pub(crate) cap: usize,
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
    /// Phases and configurations through these buffers, those the phase
    /// memo served included.
    pub(crate) calls: u64,
    pub(crate) configs: u64,
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
            calls: 0,
            configs: 0,
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

    /// The last phase's outcomes as
    /// [`reference::outcomes`](crate::reach::reference::outcomes) lists them,
    /// `carried` being the firings it carried — for a phase that ran, not
    /// one the memo served.
    #[cfg(test)]
    pub(crate) fn outcome_states(
        &self,
        net: &Net,
        carried: &[(TransId, u64)],
    ) -> crate::reach::reference::Outcomes {
        self.outcomes(net.place_count())
            .map(|(m, pending, p)| {
                let mut firings = carried.to_vec();
                firings.extend(
                    pending_ids(pending).map(|t| (TransId(t), net.transition_delay(TransId(t)))),
                );
                (crate::state::State::new(m.to_vec(), firings), p.to_bits())
            })
            .collect()
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
/// reference kernel's order, without an allocation per configuration. The
/// raw build runs every phase so; the lumped expansion, whose states are
/// exactly the post-completion markings this phase starts from, goes
/// through its phase memo ([`lumped_phase`]).
pub(crate) fn instantaneous_phase(
    net: &CompiledNet,
    marking: &[u32],
    carried: &[(TransId, u64)],
    fired: &mut [bool],
    s: &mut PhaseScratch,
) -> Result<(), GtpnError> {
    s.calls += 1;
    run_phase::<false>(net, marking, carried, fired, s, &mut Vec::new(), None)
}

/// The kernel of [`instantaneous_phase`] and [`lumped_phase`]: the phase
/// itself, its selections marked in `fired` and in `s.selected`.
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
/// [`Skeleton::replay`](crate::skeleton::Skeleton::replay) reads the tape
/// back. Without `RECORD` no recording code is compiled in.
///
/// A keeping run of `memo` proves its class's clamp as it goes
/// ([`PhaseMemo::begin`]).
fn run_phase<const RECORD: bool>(
    net: &CompiledNet,
    marking: &[u32],
    carried: &[(TransId, u64)],
    fired: &mut [bool],
    s: &mut PhaseScratch,
    tape: &mut Vec<u32>,
    memo: Option<&mut PhaseMemo>,
) -> Result<(), GtpnError> {
    let (watch, clamp): (&[(usize, u32)], &mut [u32]) = match memo {
        Some(memo) => (&memo.watch, &mut memo.clamp),
        None => (&[], &mut []),
    };
    let places = net.places;
    s.selected.fill(false);
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
            for &(p, bar) in watch {
                if m[p] < bar {
                    net.raise_clamp(p, m, marking, clamp);
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

/// Bytes past which a [`PhaseMemo`] notes and keeps no more classes: a
/// net whose phases never repeat a class then costs a bounded arena, not
/// one that grows with the chain. No class larger than this is kept, so
/// the arenas hold under twice it and every offset fits a `u32`.
const MEMO_CAP_BYTES: usize = 4 << 20;

/// One class of a [`PhaseMemo`]: where its key ends (keys are stored in
/// entry order) and, once kept, where its words and probabilities are and
/// how many configurations its phase expanded.
#[derive(Debug, Clone, Copy, Default)]
struct MemoEntry {
    key_end: u32,
    words: [u32; 2],
    probs: [u32; 2],
    configs: u64,
}

impl MemoEntry {
    /// Whether the class is kept (its words hold at least its fired
    /// count), not just sighted.
    fn kept(&self) -> bool {
        self.words[0] < self.words[1]
    }
}

/// The expansions of one lumped build's states, keyed by the start class
/// of their phases — one memo per [`Worker`], so per build; the raw build
/// never consults it.
///
/// A phase reads its start marking only through the places frequency and
/// slot programs read and through enabling tests
/// ([`CompiledTransition::has_tokens`](crate::compiled::CompiledTransition::has_tokens)).
/// Two starts that agree on every program-read place, and agree on every
/// other place once it is clamped at the highest start count a test
/// needed there, run the same phase: the same branches, the same
/// probabilities, tape words and `fired` marks, and outcomes that differ
/// only by the start each is offset from. Sorting and merging keys
/// `start + δ` depends on `δ` alone, so the outcome order and every float
/// sum carry over too. A lumped state carries no firings, so the clamped
/// start is the whole key.
///
/// Little of a lumped state's fold depends on its start `s` either. The
/// successors are `s + Δ_k` de-duplicated in first-seen outcome order, and
/// `s + Δ₁ = s + Δ₂` exactly when `Δ₁ = Δ₂`; their probabilities and the
/// usages are sums in outcome order; the tape entries are slots and
/// pending ids. A token `E[m_p | u] = Σ_o p_o · (s_p + δ_op)`, summed in
/// outcome order, depends on `s_p` alone — and every start a class serves
/// has its keeping start's `s_p` wherever the key tells starts apart, the
/// clamp only growing. So a class keeps its phase and its fold together,
/// and serves every later start from them, recomputing only the tokens of
/// the places at or above their clamp.
///
/// The clamp ([`CompiledNet::clamp`] to begin with) is shared by all
/// classes and only grows, raised by a run whose tests needed more
/// ([`CompiledNet::raise_clamp`]): a class keyed under a lower clamp stays
/// valid, its own thresholds being no higher. A class is noted on its
/// first sighting and kept on its second, as the skeleton store records a
/// shape, once that run's fold has succeeded: a build whose phases rarely
/// repeat pays a key per phase, not a copy, and a fold that fails is never
/// kept. Classes live in flat arenas — keys, then per kept class its `u32`
/// words and its probabilities ([`keep`] lays them out). Noting and keeping
/// stop at [`MEMO_CAP_BYTES`].
#[derive(Debug)]
pub(crate) struct PhaseMemo {
    /// Per place, the count above which starts are not told apart.
    clamp: Vec<u32>,
    /// The places whose clamp the running phase may have to raise, each
    /// with the count below which a configuration's tests may need it.
    watch: Vec<(usize, u32)>,
    /// The key of the phase at hand: its clamped start.
    key: Vec<u32>,
    table: IndexTable,
    entries: Vec<MemoEntry>,
    keys: Vec<u32>,
    words: Vec<u32>,
    probs: Vec<f64>,
    /// Phases the memo served.
    pub(crate) hits: u64,
}

impl PhaseMemo {
    pub(crate) fn new(net: &CompiledNet) -> PhaseMemo {
        PhaseMemo {
            clamp: net.clamp.clone(),
            watch: Vec::new(),
            key: Vec::new(),
            table: IndexTable::new(),
            entries: Vec::new(),
            keys: Vec::new(),
            words: Vec::new(),
            probs: Vec::new(),
            hits: 0,
        }
    }

    /// Makes the phase from `start` the one at hand; returns its key's
    /// hash.
    fn key(&mut self, start: &[u32]) -> u64 {
        self.key.clear();
        self.key
            .extend(start.iter().zip(&self.clamp).map(|(&m, &c)| m.min(c)));
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
            + size_of::<u32>() * (self.keys.capacity() + self.words.capacity())
            + size_of::<f64>() * self.probs.capacity()
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

    /// Hands `served` kept class `e`'s words and probabilities.
    fn serve(&self, e: usize, served: Served<'_>) {
        let entry = self.entries[e];
        served.run(
            &self.words[entry.words[0] as usize..entry.words[1] as usize],
            &self.probs[entry.probs[0] as usize..entry.probs[1] as usize],
        );
    }
}

/// Class `e`'s key.
fn entry_key<'a>(keys: &'a [u32], entries: &[MemoEntry], e: usize) -> &'a [u32] {
    let start = if e == 0 { 0 } else { entries[e - 1].key_end };
    &keys[start as usize..entries[e].key_end as usize]
}

/// What [`lumped_phase`] did for a lumped state.
pub(crate) enum Class {
    /// Its kept class served the state's phase and fold: the expansion is
    /// done ([`PhaseMemo::serve`]).
    Served,
    /// The phase ran, and its outcomes are in the scratch for the fold.
    /// When the run was its class's keeping run, it comes back: [`keep`]
    /// keeps it with its fold once the fold has succeeded.
    Ran(Option<Keeping>),
}

/// A class's keeping run: the configurations its phase expanded and where
/// in the expansion's tape its words begin.
pub(crate) struct Keeping {
    configs: u64,
    tape: usize,
}

/// The phase of the lumped state `start` (nothing is carried): served with
/// its fold from its kept class into `w.fired`, `w.row` (zeroed, the usage
/// row then the token row) and `out`, or run, the phase's tape words
/// appended to `out.tape`.
pub(crate) fn lumped_phase<const RECORD: bool>(
    net: &CompiledNet,
    start: &[u32],
    w: &mut Worker,
    out: &mut Expansion,
) -> Result<Class, GtpnError> {
    let Worker {
        phase: s,
        memo,
        fired,
        marking,
        row,
        ..
    } = w;
    s.calls += 1;
    let hash = memo.key(start);
    let class = memo.find(hash);
    if let Some(e) = class.filter(|&e| memo.entries[e].kept()) {
        memo.hits += 1;
        s.configs += memo.entries[e].configs;
        let served = Served {
            start,
            fired,
            marking,
            row: row.split_at_mut(net.transitions.len()),
            out,
        };
        memo.serve(e, served);
        return Ok(Class::Served);
    }
    // The first sighting of a class only notes it; the second proves the
    // clamp its key needs while it runs, and is kept with its fold.
    let prove = class.is_some();
    if !prove {
        memo.sight(hash);
    }
    let (configs, tape) = (s.configs, out.tape.len());
    memo.begin(net, start, prove);
    run_phase::<RECORD>(net, start, &[], fired, s, &mut out.tape, Some(memo))?;
    Ok(Class::Ran(prove.then(|| Keeping {
        configs: s.configs - configs,
        tape,
    })))
}

/// Keeps the lumped state `start`'s keeping `run` — its phase, whose
/// outcomes are in `w.phase`, and its fold: the successors in `out`, the
/// row in `w.row` (`E[c_t | u]`, then `E[m_p | u]`), the tape words in
/// `out.tape` from the run's on — as one class, under the key the run
/// proved, unless that class is kept already or the memo is full.
///
/// Words: the selected transitions (count, ids); the outcome count; the
/// used transitions (count, ids); the clamped places and each outcome's
/// deltas there, as [`push_moves`] writes them; the successors' count and
/// deltas, likewise over the places any of them moves; the tape words
/// (count, words). Probabilities: the outcomes', the usages of the used
/// transitions, the token row with the clamped places' entries zero, then
/// the successors'.
pub(crate) fn keep(w: &mut Worker, run: Keeping, start: &[u32], out: &Expansion) {
    let Worker {
        phase: s,
        memo,
        row,
        ..
    } = w;
    // The run may have raised the clamp, and so moved the key.
    let hash = memo.key(start);
    let e = match memo.find(hash) {
        Some(e) if memo.entries[e].kept() => return,
        Some(e) => e,
        None => match memo.sight(hash) {
            Some(e) => e,
            None => return,
        },
    };
    if memo.bytes() >= MEMO_CAP_BYTES {
        return;
    }
    let (usage, tokens) = row.split_at(row.len() - start.len());
    let PhaseMemo {
        clamp,
        entries,
        words,
        probs,
        ..
    } = memo;
    let (first_word, first_prob) = (words.len(), probs.len());
    words.push(0);
    for (t, _) in s.selected.iter().enumerate().filter(|&(_, &f)| f) {
        words.push(t as u32);
    }
    words[first_word] = (words.len() - first_word - 1) as u32;
    words.push(s.out.probs.len() as u32);
    let used: Vec<usize> = (0..usage.len()).filter(|&t| usage[t] != 0.0).collect();
    words.push(used.len() as u32);
    words.extend(used.iter().map(|&t| t as u32));
    let clamped: Vec<usize> = (0..start.len()).filter(|&p| start[p] >= clamp[p]).collect();
    let outcomes = s.outcomes(start.len()).map(|(m, _, _)| m);
    push_moves(words, &clamped, outcomes, start);
    let successors = 0..out.successor_count();
    let markings = successors.clone().map(|k| out.successor_marking(k));
    let moved: Vec<usize> = (0..start.len())
        .filter(|&p| markings.clone().any(|m| m[p] != start[p]))
        .collect();
    words.push(successors.len() as u32);
    push_moves(words, &moved, markings, start);
    let tape = &out.tape[run.tape..];
    words.push(tape.len() as u32);
    words.extend_from_slice(tape);
    probs.extend_from_slice(&s.out.probs);
    probs.extend(used.iter().map(|&t| usage[t]));
    let at = probs.len();
    probs.extend_from_slice(tokens);
    for &p in &clamped {
        probs[at + p] = 0.0;
    }
    probs.extend(successors.map(|k| out.successor_probability(k)));
    if 4 * (words.len() - first_word) + 8 * (probs.len() - first_prob) > MEMO_CAP_BYTES {
        words.truncate(first_word);
        probs.truncate(first_prob);
        return;
    }
    entries[e] = MemoEntry {
        words: [first_word as u32, words.len() as u32],
        probs: [first_prob as u32, probs.len() as u32],
        configs: run.configs,
        ..entries[e]
    };
}

/// Writes `markings` as moves from `start` at the places `moved`: their
/// count and ids, then per marking its delta at each of them, wrapped to a
/// `u32` — one shape for the whole list, so serving it runs loops of one
/// length.
fn push_moves<'a>(
    words: &mut Vec<u32>,
    moved: &[usize],
    markings: impl Iterator<Item = &'a [u32]>,
    start: &[u32],
) {
    words.push(moved.len() as u32);
    words.extend(moved.iter().map(|&p| p as u32));
    for m in markings {
        words.extend(moved.iter().map(|&p| m[p].wrapping_sub(start[p])));
    }
}

/// Reads the place list [`push_moves`] wrote; returns where it is.
fn moves(words: &[u32], at: &mut usize) -> Range<usize> {
    let n = read(words, at);
    *at += n;
    *at - n..*at
}

/// Where [`PhaseMemo::serve`] writes a kept class for the lumped state
/// `start`.
struct Served<'a> {
    start: &'a [u32],
    fired: &'a mut [bool],
    /// Scratch for `start` moved to one successor at a time.
    marking: &'a mut Vec<u32>,
    /// The usage row and the token row.
    row: (&'a mut [f64], &'a mut [f64]),
    out: &'a mut Expansion,
}

impl Served<'_> {
    /// Decodes one class ([`keep`] lays it out): marks `fired`, fills the
    /// row — the usage row and the kept tokens copied, each clamped place's
    /// token summed `acc_p += p_o · (s_p + δ_op)` over the phase's outcomes
    /// in outcome order, the fold's own arithmetic — pushes the successors
    /// `start + Δ_k` with their summed probabilities, and appends the tape
    /// words. A delta wraps back exactly: `s + (m − s)` is `m` in `u32`
    /// arithmetic whichever way `m` moved.
    fn run(self, words: &[u32], probs: &[f64]) {
        let Served {
            start,
            fired,
            marking,
            row: (usage, tokens),
            out,
        } = self;
        let at = &mut 0;
        for _ in 0..read(words, at) {
            fired[read(words, at)] = true;
        }
        let (outcomes, probs) = probs.split_at(read(words, at));
        let mut probs = probs.iter();
        for _ in 0..read(words, at) {
            usage[read(words, at)] = *probs.next().expect("a usage per used transition");
        }
        for (acc, &kept) in tokens.iter_mut().zip(probs.by_ref()) {
            *acc = kept;
        }
        let clamped = moves(words, at);
        for &p in outcomes {
            let deltas = &words[*at..*at + clamped.len()];
            *at += clamped.len();
            for (&place, &d) in words[clamped.clone()].iter().zip(deltas) {
                let place = place as usize;
                tokens[place] += p * f64::from(start[place].wrapping_add(d));
            }
        }
        marking.clear();
        marking.extend_from_slice(start);
        let successors = read(words, at);
        let moved = moves(words, at);
        for &p in probs.by_ref().take(successors) {
            let deltas = &words[*at..*at + moved.len()];
            *at += moved.len();
            for (&place, &d) in words[moved.clone()].iter().zip(deltas) {
                let place = place as usize;
                marking[place] = start[place].wrapping_add(d);
            }
            out.push_successor(marking, &[], p, state_hash(marking, &[]));
        }
        let n = read(words, at);
        out.tape.extend_from_slice(&words[*at..*at + n]);
        debug_assert_eq!(*at + n, words.len(), "a class consumes its words");
        debug_assert!(probs.next().is_none(), "and its probabilities");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::net::Transition;
    use crate::reach::reference;

    /// Expands the lumped state `start` (state `si`) through the phase
    /// memo with a fresh `fired` record; returns the expansion.
    fn fold_once(
        compiled: &CompiledNet,
        w: &mut Worker,
        start: &[u32],
        si: usize,
    ) -> (Result<(), GtpnError>, Expansion) {
        let mut out = Expansion::new(compiled.places);
        w.fired.fill(false);
        let folded = crate::lump::fold::<false>(compiled, start, si, w, &mut out);
        (folded, out)
    }

    /// A lumped state's expansion: the successors in first-seen order with
    /// their probability bits, the usage row then the token row by bits,
    /// and the fired record.
    type Fold = (Vec<(Vec<u32>, u64)>, Vec<u64>, Vec<bool>);

    /// The lumped state `start`'s expansion as the reference kernel gives
    /// it.
    fn reference_fold(net: &Net, start: &[u32]) -> Fold {
        let (outcomes, fired) = reference::outcomes(net, start, &[]);
        let mut usage = vec![0.0f64; net.transition_count()];
        let mut tokens = vec![0.0f64; net.place_count()];
        let mut successors: Vec<(Vec<u32>, f64)> = Vec::new();
        for (state, bits) in outcomes.expect("the reference phase runs") {
            let p = f64::from_bits(bits);
            for (acc, &m) in tokens.iter_mut().zip(state.marking.iter()) {
                *acc += p * f64::from(m);
            }
            let mut next = state.marking.clone();
            for &(t, _) in &state.firings {
                usage[t.0] += p;
                for &(pl, mult) in net.transition_outputs(t) {
                    next[pl.0] += mult;
                }
            }
            match successors.iter_mut().find(|(m, _)| *m == next) {
                Some((_, q)) => *q += p,
                None => successors.push((next, p)),
            }
        }
        let successors = successors
            .into_iter()
            .map(|(m, p)| (m, p.to_bits()))
            .collect();
        let row = usage.iter().chain(&tokens).map(|x| x.to_bits()).collect();
        (successors, row, fired)
    }

    /// The memo keeps the kernel's `u32` words, a move being the wrapping
    /// difference of two markings: a phase that takes 70,000 tokens — more
    /// than a 16-bit word holds — from one place and puts them in another
    /// is noted, kept, then served to another start of its class, and each
    /// run's successors, `fired` marks, usage row and token row are the
    /// reference kernel's bit for bit.
    #[test]
    fn memo_serves_moves_wider_than_sixteen_bits() {
        let mut net = Net::new("pour");
        let once = net.add_place("Once", 1);
        let from = net.add_place("From", 200_000);
        let to = net.add_place("To", 0);
        let work = net.add_place("Work", 1);
        net.add_transition(
            Transition::new("pour")
                .delay(0)
                .input(once, 1)
                .input(from, 70_000)
                .output(to, 70_000),
        )
        .unwrap();
        net.add_transition(
            Transition::new("work")
                .delay(1)
                .input(work, 1)
                .output(work, 1),
        )
        .unwrap();
        let compiled = CompiledNet::new(&net);
        let mut w = Worker::new(&compiled);
        // `Once` and `Work` tell starts apart; `From` and `To` sit at or
        // above their clamps, so the last start is of the first's class,
        // and its tokens there are its own start moved by the kept deltas.
        let runs = [
            ("noting", [1, 200_000, 0, 1], [0, 130_000, 70_000, 1]),
            ("keeping", [1, 200_000, 0, 1], [0, 130_000, 70_000, 1]),
            ("served", [1, 300_000, 50_000, 1], [0, 230_000, 120_000, 1]),
        ];
        for (run, start, successor) in runs {
            let (folded, out) = fold_once(&compiled, &mut w, &start, 0);
            folded.unwrap();
            let (successors, row, fired) = reference_fold(&net, &start);
            let got: Vec<_> = (0..out.successor_count())
                .map(|k| {
                    let p = out.successor_probability(k).to_bits();
                    (out.successor_marking(k).to_vec(), p)
                })
                .collect();
            assert_eq!(got, successors, "the {run} run's successors");
            assert_eq!(got[0].0, successor, "the {run} run's successor");
            let got: Vec<u64> = w.row.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, row, "the {run} run's usage and token rows");
            assert_eq!(w.fired, fired, "the {run} run's fired marks");
        }
        assert_eq!((w.phase.calls, w.memo.hits), (3, 1), "the last is served");
    }

    /// The memo's contract through the lumped fold, its only user: the
    /// first phase from a start notes its class, the second keeps it with
    /// its fold, the third is served — and each marks `fired` as a run
    /// does and yields the same successor. A phase that fails part-way
    /// marks the transitions it selected before it failed, whether or not
    /// the memo has seen its class, and is never kept.
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
        let mut w = Worker::new(&compiled);
        let (_, want_fired) = reference::outcomes(&net, &[1, 0], &[]);
        for _ in 0..3 {
            let (folded, out) = fold_once(&compiled, &mut w, &[1, 0], 0);
            folded.unwrap();
            assert_eq!(w.fired, want_fired);
            assert_eq!(out.successor_count(), 1);
            assert_eq!(out.successor_marking(0), [1, 0]);
        }
        assert_eq!((w.phase.calls, w.memo.hits), (3, 1));
        // From A = 2 `go` fires twice: the run that kept A = 1's class
        // raised A's clamp past 1, so that class does not serve A = 2.
        let (folded, out) = fold_once(&compiled, &mut w, &[2, 0], 0);
        folded.unwrap();
        assert_eq!(out.successor_marking(0), [2, 0]);
        assert_eq!(w.memo.hits, 1);

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
        let mut w = Worker::new(&compiled);
        for _ in 0..3 {
            let err = fold_once(&compiled, &mut w, &[1, 0], 0).0.unwrap_err();
            assert!(matches!(err, GtpnError::BadFrequency { .. }), "{err}");
            assert_eq!(w.fired, [true, false, false], "`go` was selected");
        }
        assert_eq!(
            (w.phase.calls, w.memo.hits),
            (3, 0),
            "a failed phase is never kept"
        );
    }

    /// A frequency that reads a place makes that place part of every
    /// class: with `Big` different at every start no class repeats beyond
    /// the run that keeps it, and the memo notes and keeps classes — each
    /// with its fold — only up to its byte cap, then stops growing, while
    /// every run, the noting one and the keeping one, still matches the
    /// reference kernel.
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
        let (mut classes, mut kept) = (0, 0);
        for big in 0..30_000 {
            let (want, want_fired) = reference::outcomes(&net, &[big, 8], &[]);
            // The first run notes the class; the second keeps it with its
            // fold.
            for run in ["noting", "keeping"] {
                let (folded, _) = fold_once(&compiled, &mut w, &[big, 8], 0);
                let got = folded.map(|()| w.phase.outcome_states(&net, &[]));
                assert_eq!(got, want, "the {run} run from {big}");
                assert_eq!(w.fired, want_fired, "the {run} run from {big}");
            }
            let memo = &w.memo;
            let bytes = memo.bytes();
            assert!(bytes < 2 * MEMO_CAP_BYTES, "{bytes} bytes");
            let grown = memo.entries.len();
            let now_kept = memo.entries.iter().filter(|e| e.kept()).count();
            match full {
                None if bytes >= MEMO_CAP_BYTES => full = Some(big),
                None => assert!(grown > classes && now_kept > kept, "start {big} not kept"),
                Some(_) => assert_eq!((grown, now_kept), (classes, kept), "grew past the cap"),
            }
            (classes, kept) = (grown, now_kept);
        }
        let big = full.expect("30,000 classes must fill the memo");
        assert!(big > 1_000 && big < 25_000, "filled at start {big}");
        assert_eq!(w.memo.hits, 0, "no class repeats past its keeping run");
    }
}

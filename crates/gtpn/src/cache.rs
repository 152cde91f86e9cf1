//! Cache bounds and the store of chain skeletons.
//!
//! The paper's evaluation solves the same nets over and over with one rate
//! changed: the §6.6.3 non-local fixed point re-solves the client and
//! server nets with a new surrogate delay on every iteration, and the §6.7
//! realistic-load figures sweep the server time X. In both only the
//! constant frequency of a geometric stage moves (§6.6.1: exit `1/mean`,
//! loop `1 − 1/mean`); the chain's states, edge targets and control flow
//! stay put. The engine's solution cache ([`crate::engine`]) cannot help —
//! it files a result under the net's rate-free shape (`compiled::Shape`)
//! *and* its rates' bits, so a new rate misses — so the exact backend
//! keeps a skeleton store beside it: skeletons of lumped chains
//! (`skeleton::Skeleton`) keyed by the shape alone. A net whose shape is
//! on the shelf is *re-priced*: the skeleton's tape of instantaneous-phase
//! and fold arithmetic is replayed under the new rates, with no kernel,
//! sort-merge or interning, and yields the fresh build's chain bit for
//! bit. A replay whose probabilities would fall on the other side of the
//! probability floor than the recording's falls back to a fresh build (and
//! counts it).
//!
//! Only lumped chains are re-priced. Every net the paper re-solves is built
//! from delay-1 geometric stages (§6.6.1) and lumps ([`crate::lump`]); a
//! raw chain — lumping off, or declined — is built by the public
//! `Net::reachability`, solved as `ReachabilityGraph::solve` solves it, and
//! never enters the store.
//!
//! A shape is *recorded* on its second sighting, so one-off builds (the
//! `fig7.scale` points, the benchmark's `scale`) never pay for a tape, and
//! not at all when its first build's size shows the skeleton cannot fit
//! the byte budget. Hits are verified by full key equality, never by
//! hash alone. Nets whose frequencies are not re-priceable (only
//! constants and `If` trees of them are) are never recorded.
//!
//! # Bounding and eviction
//!
//! The solution cache and the store beside it are each one `Bounded`
//! store, bounded by **resident bytes** (1 GiB, `DEFAULT_CACHE_MB`) and
//! optionally by entry count (`HSIPC_CACHE_CAP`, [`parse_entry_cap`];
//! unset means unbounded, `0` disables caching — and with it re-pricing —
//! entirely). Every insert and hit stamps its entry with a recency tick;
//! when a bound binds, the least recently used entry — the smallest tick,
//! found by one scan of the resident entries — goes first. No bound binds
//! in the paper's evaluation: CI pins `0 evictions` on both caches'
//! `repro --timing` lines, so the scan never runs there.
//!
//! # Environment latching
//!
//! `HSIPC_CACHE_CAP` is read **when a cache is constructed** — the engine's
//! global caches at first use or [`crate::engine::clear_cache`]. There is
//! deliberately no process-global latch: a cache built after the
//! environment changes sees the new value.

use crate::compiled::Shape;
use crate::error::GtpnError;
use crate::lump::{lumped_chain, LumpedGraph};
use crate::net::Net;
use crate::skeleton::Skeleton;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The resident-byte budget (mebibytes) of each bounded cache.
///
/// Sized so the full evaluation (`repro all`) runs eviction-free: its
/// resident working set is a few MiB per cache, and an eviction on the
/// critical path costs a re-solve that dwarfs the memory it saved.
pub(crate) const DEFAULT_CACHE_MB: usize = 1024;

/// Parses an `HSIPC_CACHE_CAP` value: a whole number of entries, `0` to
/// disable caching.
///
/// # Errors
///
/// Any other value, with a message naming the variable and the values it
/// accepts.
pub fn parse_entry_cap(value: &str) -> Result<usize, String> {
    value.trim().parse().map_err(|_| {
        format!(
            "HSIPC_CACHE_CAP=`{value}` is not an entry count (a whole number; 0 disables caching)"
        )
    })
}

/// Size bounds of a bounded cache, fixed at cache construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheLimits {
    /// Maximum resident entries (`usize::MAX` = unbounded, `0` = disabled).
    pub(crate) max_entries: usize,
    /// Maximum estimated resident bytes (`0` = disabled).
    pub(crate) max_bytes: usize,
}

impl CacheLimits {
    /// [`DEFAULT_CACHE_MB`] and the entry cap `HSIPC_CACHE_CAP` sets
    /// (unbounded when unset), read **now** — call this at cache
    /// construction; the result is latched per cache instance, never per
    /// process.
    pub(crate) fn from_env() -> CacheLimits {
        CacheLimits::with_entry_cap(
            crate::knob("HSIPC_CACHE_CAP", parse_entry_cap).unwrap_or(usize::MAX),
        )
    }

    /// [`DEFAULT_CACHE_MB`] and an entry cap of `cap` — the semantics of
    /// [`crate::engine::AnalysisEngine::with_cache`].
    pub(crate) fn with_entry_cap(cap: usize) -> CacheLimits {
        CacheLimits {
            max_entries: cap,
            max_bytes: DEFAULT_CACHE_MB * 1024 * 1024,
        }
    }

    /// True when either bound is zero: every lookup misses and nothing is
    /// retained.
    pub(crate) fn disabled(&self) -> bool {
        self.max_entries == 0 || self.max_bytes == 0
    }
}

// ---------------------------------------------------------------------------
// The bounded store
// ---------------------------------------------------------------------------

/// One resident entry of a [`Bounded`] store.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: usize,
    /// The store's tick at this entry's insert or latest hit.
    last_used: u64,
}

/// Values under hashable keys within [`CacheLimits`] — the bounding both
/// caches share. A key holds a chain of entries (distinct values can
/// collide on one key); the caller picks its entry by a predicate. When a
/// bound binds, the least recently used entry is evicted first.
#[derive(Debug)]
pub(crate) struct Bounded<K, V> {
    chains: HashMap<K, Vec<Slot<V>>>,
    limits: CacheLimits,
    /// Bumped by every insert and hit.
    tick: u64,
    len: usize,
    bytes: usize,
    /// Entries dropped to make room.
    pub(crate) evictions: u64,
    /// Inserts dropped because an equal entry was resident.
    pub(crate) dedup_drops: u64,
}

impl<K: Hash + Eq + Clone, V> Bounded<K, V> {
    pub(crate) fn new(limits: CacheLimits) -> Bounded<K, V> {
        Bounded {
            chains: HashMap::new(),
            limits,
            tick: 0,
            len: 0,
            bytes: 0,
            evictions: 0,
            dedup_drops: 0,
        }
    }

    /// Resident entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Estimated resident bytes of those entries.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Every resident value, in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.chains.values().flatten().map(|slot| &slot.value)
    }

    /// The entry under `key` that `is` picks, marked most recently used.
    pub(crate) fn get(&mut self, key: &K, is: impl Fn(&V) -> bool) -> Option<&V> {
        let slot = self
            .chains
            .get_mut(key)?
            .iter_mut()
            .find(|s| is(&s.value))?;
        self.tick += 1;
        slot.last_used = self.tick;
        Some(&slot.value)
    }

    /// Removes the entry under `key` that `is` picks.
    pub(crate) fn remove(&mut self, key: &K, is: impl Fn(&V) -> bool) -> Option<V> {
        let at = self.chains.get(key)?.iter().position(|s| is(&s.value))?;
        Some(self.take(key, at))
    }

    /// Inserts `value`, `bytes` resident, as the most recently used entry
    /// under `key`, evicting least recently used entries until both bounds
    /// hold. A disabled store keeps nothing, nor does one whose whole
    /// budget `bytes` exceeds (keeping it would empty the store and still
    /// not fit). When an entry `same` as `value` is resident — a racing
    /// worker's insert landed first — that entry is marked used and
    /// `value` is dropped.
    pub(crate) fn insert(&mut self, key: K, value: V, bytes: usize, same: impl Fn(&V, &V) -> bool) {
        if self.get(&key, |old| same(old, &value)).is_some() {
            self.dedup_drops += 1;
            return;
        }
        if self.limits.disabled() || bytes > self.limits.max_bytes {
            return;
        }
        while self.len > 0
            && (self.len >= self.limits.max_entries || self.bytes + bytes > self.limits.max_bytes)
        {
            self.evict();
        }
        self.tick += 1;
        let slot = Slot {
            value,
            bytes,
            last_used: self.tick,
        };
        // Most chains hold one entry: allocate no room for more.
        let chain = self
            .chains
            .entry(key)
            .or_insert_with(|| Vec::with_capacity(1));
        chain.push(slot);
        self.len += 1;
        self.bytes += bytes;
    }

    /// Evicts the least recently used entry: the smallest tick, found by
    /// one scan of the resident entries (ticks are unique, so the victim
    /// does not depend on the map's order).
    fn evict(&mut self) {
        let chains = self.chains.iter().flat_map(|(key, chain)| {
            let ticks = chain.iter().map(|s| s.last_used).enumerate();
            ticks.map(move |(at, tick)| (tick, key, at))
        });
        let (_, key, at) = chains
            .min_by_key(|&(tick, ..)| tick)
            .expect("a resident entry");
        self.take(&key.clone(), at);
        self.evictions += 1;
    }

    fn take(&mut self, key: &K, at: usize) -> V {
        let chain = self.chains.get_mut(key).expect("a resident chain");
        let slot = chain.remove(at);
        if chain.is_empty() {
            self.chains.remove(key);
        }
        self.len -= 1;
        self.bytes -= slot.bytes;
        slot.value
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Hit/miss/eviction counters of the engine solution cache
/// ([`crate::engine::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to do the work.
    pub misses: u64,
    /// Entries dropped to make room (least recently used first).
    pub evictions: u64,
    /// Duplicate inserts dropped because a racing worker got there first.
    pub dedup_drops: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated resident bytes of those entries.
    pub bytes: usize,
}

/// What a skeleton store holds ([`crate::engine::store_stats`]). How
/// often it was used — replays, records, fallbacks — is in the exact
/// solver's [`StageLedger`](crate::engine::StageLedger).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Recorded skeletons resident.
    pub skeletons: usize,
    /// Shapes seen once and not (yet) recorded.
    pub sightings: usize,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Recordings dropped because a racing worker shelved one first.
    pub dedup_drops: u64,
    /// Resident bytes of every entry.
    pub bytes: usize,
}

// ---------------------------------------------------------------------------
// The skeleton store
// ---------------------------------------------------------------------------

/// What the store knows of one shape.
#[derive(Debug)]
enum Sighting {
    /// Built once; recording it would cost at least this many bytes.
    Seen {
        least: usize,
    },
    Recorded(Arc<Skeleton>),
}

/// One shelved shape: the [`Shape`] key it is verified by and what is
/// known of it.
#[derive(Debug)]
pub(crate) struct Shelf {
    hash: u64,
    key: Vec<u64>,
    sighting: Sighting,
}

impl Shelf {
    fn bytes(&self) -> usize {
        std::mem::size_of::<Shelf>()
            + 8 * self.key.len()
            + match &self.sighting {
                Sighting::Seen { .. } => 0,
                Sighting::Recorded(skeleton) => skeleton.bytes(),
            }
    }
}

/// Chain skeletons by rate-free shape; see the module docs. Shelves are
/// stored by key hash and verified by the full key.
#[derive(Debug)]
pub(crate) struct SkeletonStore {
    lru: Bounded<u64, Shelf>,
}

/// The store's size and counters are its bounded store's.
impl Deref for SkeletonStore {
    type Target = Bounded<u64, Shelf>;

    fn deref(&self) -> &Bounded<u64, Shelf> {
        &self.lru
    }
}

/// What to do for one build, as the store sees the net's shape.
enum Plan {
    /// Re-price this skeleton.
    Replay(Arc<Skeleton>),
    /// Second sighting: build and record.
    Record,
    /// First sighting: build, then shelve the sighting.
    Sight,
    /// Build; nothing to shelve.
    Build,
}

impl SkeletonStore {
    pub(crate) fn new(limits: CacheLimits) -> SkeletonStore {
        SkeletonStore {
            lru: Bounded::new(limits),
        }
    }

    pub(crate) fn stats(&self) -> StoreStats {
        let skeletons = self
            .values()
            .filter(|shelf| matches!(shelf.sighting, Sighting::Recorded(_)))
            .count();
        StoreStats {
            skeletons,
            sightings: self.len() - skeletons,
            evictions: self.evictions,
            dedup_drops: self.dedup_drops,
            bytes: self.bytes(),
        }
    }

    fn plan(&mut self, hash: u64, key: &[u64], max_states: usize) -> Plan {
        let max_bytes = self.lru.limits.max_bytes;
        let shelf = self.lru.get(&hash, |shelf| shelf.key == key);
        match shelf.map(|shelf| &shelf.sighting) {
            None => Plan::Sight,
            Some(Sighting::Recorded(skeleton)) if skeleton.state_count() <= max_states => {
                Plan::Replay(Arc::clone(skeleton))
            }
            Some(Sighting::Seen { least }) if *least <= max_bytes => Plan::Record,
            Some(_) => Plan::Build,
        }
    }

    /// Shelves what a build learned. A recording replaces its shape's
    /// sighting; a second recording of the same shape (a racing worker's)
    /// is dropped; a skeleton over the whole budget is shelved as a
    /// sighting of its real size, so the shape is not recorded again.
    fn shelve(&mut self, mut shelf: Shelf) {
        let recorded = matches!(shelf.sighting, Sighting::Recorded(_));
        let is = |resident: &Shelf| resident.key == shelf.key;
        let resident = self.lru.get(&shelf.hash, is);
        match resident.map(|r| matches!(r.sighting, Sighting::Seen { .. })) {
            Some(true) if recorded => drop(self.lru.remove(&shelf.hash, is)),
            Some(_) if !recorded => return,
            _ => {}
        }
        if recorded && shelf.bytes() > self.lru.limits.max_bytes {
            shelf.sighting = Sighting::Seen {
                least: shelf.bytes(),
            };
        }
        let bytes = shelf.bytes();
        self.lru
            .insert(shelf.hash, shelf, bytes, |a, b| a.key == b.key);
    }
}

/// Builds the lumped chain of `net`, whose shape is `shape`, within
/// `max_states` states, re-pricing a skeleton from `store` when one of
/// the shape is shelved and fits the budget, recording one on the shape's
/// second sighting. A net without a shape, or a disabled store, builds
/// fresh. The result is the fresh build's, bit for bit, whichever road it
/// took; its build ledger ([`crate::engine::StageLedger`]) says which.
/// The caller checks [`lumpable`](crate::lump::lumpable) first.
///
/// # Errors
///
/// Those of [`lumped_chain`].
pub(crate) fn build_chain(
    store: &Mutex<SkeletonStore>,
    net: &Net,
    shape: Option<&Shape>,
    max_states: usize,
) -> Result<LumpedGraph, GtpnError> {
    fn lock(store: &Mutex<SkeletonStore>) -> MutexGuard<'_, SkeletonStore> {
        store.lock().expect("skeleton store poisoned")
    }
    let shape = shape.filter(|_| !lock(store).lru.limits.disabled());
    let Some(Shape { key, rates }) = shape else {
        return lumped_chain(net, max_states, false).map(|(chain, _)| chain);
    };
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    let hash = h.finish();
    let plan = lock(store).plan(hash, key, max_states);

    let started = Instant::now();
    if let Plan::Replay(skeleton) = &plan {
        if let Ok(mut chain) = skeleton.replay(net, rates) {
            chain.graph.build.reprice_s = started.elapsed().as_secs_f64();
            return Ok(chain);
        }
    }
    let reprice_s = started.elapsed().as_secs_f64();
    let record = matches!(plan, Plan::Record);
    let (mut chain, tape) = lumped_chain(net, max_states, record)?;
    let shelf = |sighting| Shelf {
        hash,
        key: key.clone(),
        sighting,
    };
    match plan {
        Plan::Replay(_) => {
            chain.graph.build.reprice_s = reprice_s;
            chain.graph.build.fallbacks = 1;
        }
        Plan::Record => {
            chain.graph.build.records = 1;
            let skeleton = Arc::new(Skeleton::new(&chain, tape));
            lock(store).shelve(shelf(Sighting::Recorded(skeleton)));
        }
        Plan::Sight => {
            let least = Skeleton::least_bytes(&chain);
            lock(store).shelve(shelf(Sighting::Seen { least }));
        }
        Plan::Build => {}
    }
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::lump::reach_lumped;
    use crate::net::{PlaceId, Transition};
    use crate::reach::arbitrary::TransitionSpec;
    use crate::reach::assert_graphs_identical;
    use proptest::prelude::*;

    /// A geometric stage racing a zero-delay recycle: exit `freq`, loop
    /// `1 − freq`, `tokens` tokens — each token count a shape of its own.
    fn ring(tokens: u32, freq: f64) -> Net {
        let mut net = Net::new("ring");
        let p = net.add_place("P", tokens);
        let q = net.add_place("Q", 0);
        net.add_transition(
            Transition::new("exit")
                .delay(1)
                .frequency(Expr::constant(freq))
                .input(p, 1)
                .output(q, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("loop")
                .delay(1)
                .frequency(Expr::constant(1.0 - freq))
                .input(p, 1)
                .output(p, 1),
        )
        .unwrap();
        net.add_transition(Transition::new("recycle").delay(0).input(q, 1).output(p, 1))
            .unwrap();
        net
    }

    fn bounded(max_entries: usize, max_bytes: usize) -> Mutex<SkeletonStore> {
        Mutex::new(SkeletonStore::new(CacheLimits {
            max_entries,
            max_bytes,
        }))
    }

    fn unbounded() -> Mutex<SkeletonStore> {
        bounded(usize::MAX, usize::MAX)
    }

    fn build(store: &Mutex<SkeletonStore>, net: &Net) -> LumpedGraph {
        build_chain(store, net, Shape::of(net).as_ref(), 10_000).unwrap()
    }

    /// `(replays, records, fallbacks)` of a chain's build.
    fn road(chain: &LumpedGraph) -> (u64, u64, u64) {
        let b = chain.graph.build;
        (b.replays, b.records, b.fallbacks)
    }

    /// A chain built by the store is the fresh build's, rows included.
    fn assert_fresh(chain: &LumpedGraph, net: &Net) {
        let want = reach_lumped(net, 10_000).unwrap();
        assert_graphs_identical(&chain.graph, &want.graph);
        assert_eq!(chain.rows.bits(), want.rows.bits(), "rows drifted");
    }

    /// A shape is shelved as a sighting on its first build, recorded on
    /// its second and re-priced from then on.
    #[test]
    fn a_shape_records_on_its_second_sighting() {
        let store = unbounded();
        let net = ring(2, 0.25);
        assert_eq!(road(&build(&store, &net)), (0, 0, 0));
        let s = lock_stats(&store);
        assert_eq!((s.skeletons, s.sightings), (0, 1));
        assert_eq!(road(&build(&store, &net)), (0, 1, 0));
        assert_eq!(lock_stats(&store).skeletons, 1);
        let replayed = build(&store, &net);
        assert_eq!(road(&replayed), (1, 0, 0));
        assert_fresh(&replayed, &net);
        let s = lock_stats(&store);
        assert_eq!((s.skeletons, s.sightings, s.evictions), (1, 0, 0));
        assert!(s.bytes > 0, "resident bytes should be accounted");
    }

    fn lock_stats(store: &Mutex<SkeletonStore>) -> StoreStats {
        store.lock().unwrap().stats()
    }

    /// New timings of one shape share its skeleton: the re-priced chain
    /// has the new rates' probabilities — the fresh build's bits — on the
    /// old chain's states and edges.
    #[test]
    fn different_timings_share_one_skeleton() {
        let store = unbounded();
        build(&store, &ring(3, 0.25));
        build(&store, &ring(3, 0.125));
        let a = build(&store, &ring(3, 0.5));
        let b = build(&store, &ring(3, 0.0625));
        assert_eq!((road(&a), road(&b)), ((1, 0, 0), (1, 0, 0)));
        assert_fresh(&a, &ring(3, 0.5));
        assert_fresh(&b, &ring(3, 0.0625));
        let probs = |c: &LumpedGraph| -> Vec<u64> {
            (0..c.graph.state_count())
                .flat_map(|i| c.graph.out_edges(i).iter().map(|&(_, p)| p.to_bits()))
                .collect()
        };
        assert_ne!(probs(&a), probs(&b));
        assert_eq!(lock_stats(&store).skeletons, 1);
    }

    /// A skeleton larger than the caller's state budget is not replayed:
    /// the fresh build reports the budget exactly as without a store.
    #[test]
    fn budget_still_enforced_on_hit_path() {
        let store = unbounded();
        let net = ring(2, 0.5);
        build(&store, &net);
        let recorded = build(&store, &net);
        assert_eq!(road(&recorded), (0, 1, 0));
        assert!(recorded.graph.state_count() > 1);
        let err = build_chain(&store, &net, Shape::of(&net).as_ref(), 1);
        assert!(matches!(
            err.err(),
            Some(GtpnError::StateSpaceExceeded { limit: 1 })
        ));
    }

    /// A re-priced chain solves to the fresh chain's solution, bit for bit.
    #[test]
    fn cached_solution_matches_fresh_solution() {
        let store = unbounded();
        build(&store, &ring(2, 0.3));
        build(&store, &ring(2, 0.2));
        let net = ring(2, 0.1);
        let replayed = build(&store, &net);
        assert_eq!(road(&replayed), (1, 0, 0));
        let fresh = reach_lumped(&net, 100)
            .unwrap()
            .graph
            .solve(1e-13, 100_000)
            .unwrap();
        let cached = replayed.graph.solve(1e-13, 100_000).unwrap();
        assert_eq!(
            fresh.state_probabilities(),
            cached.state_probabilities(),
            "re-pricing must not change results"
        );
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        let cap = 4;
        let store = bounded(cap, usize::MAX);
        // Fill to capacity with first sightings of distinct shapes.
        for tokens in 1..=cap as u32 {
            build(&store, &ring(tokens, 0.5));
        }
        assert_eq!(lock_stats(&store).sightings, cap);
        // Shape 1 again — a second sighting, so it records and becomes the
        // most recent; shape 2 is now the least recently used…
        assert_eq!(road(&build(&store, &ring(1, 0.5))), (0, 1, 0));
        // …so a new shape evicts it.
        build(&store, &ring(cap as u32 + 1, 0.5));
        let s = lock_stats(&store);
        assert_eq!((s.skeletons + s.sightings, s.evictions), (cap, 1));
        assert_eq!(road(&build(&store, &ring(1, 0.5))), (1, 0, 0));
        assert_eq!(
            road(&build(&store, &ring(2, 0.5))),
            (0, 0, 0),
            "the evicted shape starts over as a first sighting"
        );
    }

    #[test]
    fn byte_budget_bounds_residency() {
        // The size of one recorded shape, measured on a scratch store.
        let scratch = unbounded();
        build(&scratch, &ring(3, 0.5));
        build(&scratch, &ring(3, 0.5));
        let one = lock_stats(&scratch).bytes;
        // Room for one skeleton and a sighting, not for two skeletons. The
        // second shape differs by a place no transition touches: another
        // key, a skeleton of about the same size.
        let store = bounded(usize::MAX, one + one / 2);
        let twin = || {
            let mut net = ring(3, 0.5);
            net.add_place("Spare", 0);
            net
        };
        build(&store, &ring(3, 0.5));
        build(&store, &ring(3, 0.5));
        build(&store, &twin());
        build(&store, &twin());
        let s = lock_stats(&store);
        assert_eq!(s.skeletons, 1, "byte budget should hold one skeleton");
        assert!(s.evictions >= 1);
        assert!(s.bytes <= one + one / 2);
        // The newest recording is the resident one.
        assert_eq!(road(&build(&store, &twin())), (1, 0, 0));
        assert_eq!(road(&build(&store, &ring(3, 0.5))), (0, 0, 0));
        // A skeleton larger than the whole budget is never shelved, and
        // after one try its size is known: later builds do not record.
        let tiny = bounded(usize::MAX, one / 2);
        for _ in 0..2 {
            build(&tiny, &ring(3, 0.5));
        }
        assert_eq!(road(&build(&tiny, &ring(3, 0.5))), (0, 0, 0));
        assert_eq!(lock_stats(&tiny).skeletons, 0);
    }

    /// Two workers that both recorded one shape: the second skeleton is
    /// dropped and the first stays shelved.
    #[test]
    fn racing_inserts_share_the_first_graph() {
        let net = ring(2, 0.44);
        let key = Shape::of(&net).unwrap().key;
        let skeleton = || {
            let (chain, tape) = lumped_chain(&net, 100, true).unwrap();
            Arc::new(Skeleton::new(&chain, tape))
        };
        let (first, second) = (skeleton(), skeleton());
        let mut s = SkeletonStore::new(CacheLimits {
            max_entries: usize::MAX,
            max_bytes: usize::MAX,
        });
        for skeleton in [&first, &second] {
            s.shelve(Shelf {
                hash: 7,
                key: key.clone(),
                sighting: Sighting::Recorded(Arc::clone(skeleton)),
            });
        }
        assert_eq!(s.dedup_drops, 1);
        assert_eq!(s.lru.len(), 1, "the duplicate must not be shelved");
        let Plan::Replay(shelved) = s.plan(7, &key, 100) else {
            panic!("a recorded shape replays");
        };
        assert!(Arc::ptr_eq(&shelved, &first), "the first recording stays");
    }

    /// Hits reorder eviction, keys hold collision chains, and removal
    /// gives back an entry's bytes.
    #[test]
    fn global_order_is_least_recent_first() {
        let mut lru = Bounded::new(CacheLimits::with_entry_cap(3));
        let same = |a: &&str, b: &&str| a == b;
        for (key, value) in [(1, "a"), (2, "b"), (1, "c")] {
            lru.insert(key, value, 10, same);
        }
        assert_eq!((lru.len(), lru.bytes()), (3, 30));
        // a is oldest … unless hit back to the front, which leaves b.
        assert_eq!(lru.get(&1, |v| *v == "a"), Some(&"a"));
        lru.insert(3, "d", 10, same);
        assert!(lru.get(&2, |_| true).is_none());
        lru.insert(4, "e", 10, same);
        assert_eq!(lru.get(&1, |_| true), Some(&"a"), "c went, a stayed");
        assert_eq!((lru.evictions, lru.dedup_drops), (2, 0));
        lru.insert(4, "e", 10, same);
        assert_eq!((lru.len(), lru.dedup_drops), (3, 1));
        assert_eq!(lru.remove(&3, |_| true), Some("d"));
        assert_eq!(lru.bytes(), 20);
        lru.remove(&1, |_| true);
        lru.remove(&4, |_| true);
        assert_eq!((lru.len(), lru.bytes(), lru.values().count()), (0, 0, 0));
    }

    /// `A` gated on `B` holding fewer than `limit` tokens: the limit is a
    /// condition constant, part of the shape, never a rate.
    fn gated(limit: f64, rate: f64) -> Net {
        let mut net = Net::new("gated");
        let a = net.add_place("A", 3);
        let b = net.add_place("B", 0);
        let room = Expr::Lt(
            Box::new(Expr::Tokens(PlaceId(1))),
            Box::new(Expr::constant(limit)),
        );
        net.add_transition(
            Transition::new("fill")
                .delay(1)
                .frequency(Expr::gate(room, Expr::constant(rate)))
                .input(a, 1)
                .output(b, 1),
        )
        .unwrap();
        net.add_transition(
            Transition::new("drain")
                .delay(1)
                .frequency(Expr::constant(0.5))
                .input(b, 1)
                .output(a, 1),
        )
        .unwrap();
        net.add_transition(Transition::new("idle").delay(1).input(a, 1).output(a, 1))
            .unwrap();
        net
    }

    /// Nets that differ only in a condition constant are different shapes:
    /// the store never serves one the other's skeleton.
    #[test]
    fn a_condition_constant_is_part_of_the_shape() {
        let store = unbounded();
        build(&store, &gated(2.0, 0.3));
        build(&store, &gated(2.0, 0.3));
        assert_eq!(road(&build(&store, &gated(2.0, 0.7))), (1, 0, 0));
        let other = gated(3.0, 0.3);
        let chain = build(&store, &other);
        assert_eq!(road(&chain), (0, 0, 0), "a first sighting, not a replay");
        assert_fresh(&chain, &other);
        assert_eq!(lock_stats(&store).sightings, 1);
    }

    /// `hop` (rate 1e-200) starts a zero-delay race in which `jump` (rate
    /// `tiny`) competes with `stay`: at `tiny` = 1e-200 the jump branch
    /// has probability ~1e-400, under the floor, and is dropped; re-priced
    /// to 1e-50 it is ~1e-250 and kept — a new path through the phase, so
    /// the replay falls back to a fresh build, in which `jump` fires.
    #[test]
    fn floor_crossing_reprice_falls_back() {
        let net = |tiny: f64| {
            let mut net = Net::new("floor");
            let a = net.add_place("A", 1);
            let b = net.add_place("B", 0);
            let c = net.add_place("C", 0);
            let edge = |name: &str, delay: u64, rate: f64, from: PlaceId, to: PlaceId| {
                Transition::new(name)
                    .delay(delay)
                    .frequency(Expr::constant(rate))
                    .input(from, 1)
                    .output(to, 1)
            };
            for t in [
                edge("wait", 1, 1.0, a, a),
                edge("hop", 0, 1e-200, a, b),
                edge("stay", 1, 1.0, b, a),
                edge("jump", 0, tiny, b, c),
                edge("land", 1, 1.0, c, a),
            ] {
                net.add_transition(t).unwrap();
            }
            net
        };
        let store = unbounded();
        build(&store, &net(1e-200));
        build(&store, &net(1e-200));
        assert_eq!(road(&build(&store, &net(2e-200))), (1, 0, 0));
        let crossed = build(&store, &net(1e-50));
        assert_eq!(road(&crossed), (0, 0, 1));
        assert!(crossed.graph.build.reprice_s > 0.0);
        assert_fresh(&crossed, &net(1e-50));
        let jump = net(1.0).transition_by_name("jump").unwrap();
        let recorded = build(&store, &net(1e-200));
        assert!(recorded.graph.dead_transitions().contains(&jump));
        assert!(!crossed.graph.dead_transitions().contains(&jump));
    }

    /// Re-prices `specs` within their rate classes: each transition's
    /// weight — a constant, a gated or a two-valued `If` rate — is scaled
    /// by one of `scales`; zero rates stay zero, floor-sized constants and
    /// negative rates keep their kind.
    fn reprice(specs: &[TransitionSpec], scales: &[f64]) -> Vec<TransitionSpec> {
        specs
            .iter()
            .zip(scales.iter().cycle())
            .map(|((pick, inputs, outputs, (kind, operand, w)), &scale)| {
                (
                    *pick,
                    inputs.clone(),
                    outputs.clone(),
                    (*kind, *operand, w * scale),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential: on random lumpable nets, a shape is recorded at
        /// one set of rates and re-priced at others within the same
        /// classes — constants, two-valued `If` rates, zero-class loops,
        /// rates at the probability floor. Every result is the fresh
        /// build's lumped chain bit for bit, rows included; a re-pricing
        /// that moves a floor decision falls back, and its fresh build is
        /// the result.
        #[test]
        fn replay_matches_a_fresh_build(
            initial in crate::reach::arbitrary::initial(),
            specs in crate::reach::arbitrary::transitions(),
            scales in proptest::collection::vec(0.25f64..4.0, 1..4),
        ) {
            let delays = [0, 0, 1, 1, 1, 1];
            let net = crate::reach::arbitrary::net(&initial, &specs, delays);
            let store = unbounded();
            let run = |net: &Net| build_chain(&store, net, Shape::of(net).as_ref(), 300);
            if run(&net).is_ok() && run(&net).is_ok() {
                let repriced = crate::reach::arbitrary::net(&initial, &reprice(&specs, &scales), delays);
                let want = reach_lumped(&repriced, 300);
                match (run(&repriced), want) {
                    (Ok(chain), Ok(_)) => {
                        let (replays, _, fallbacks) = road(&chain);
                        assert!(Shape::of(&net).is_none() || replays + fallbacks == 1);
                        assert_fresh(&chain, &repriced);
                    }
                    (got, want) => assert_eq!(got.err(), want.err()),
                }
            }
        }
    }
}

//! # sweep — parallel experiment/sweep engine
//!
//! The paper's evaluation is a grid of independent analyses: GTPN solves and
//! discrete-event runs over `(architecture, locality, conversations,
//! offered_load, …)`. Every point is independent of every other, so the grid
//! can be evaluated by a pool of worker threads — but the rendered tables
//! and figures must come out in *paper order*, byte-identical to a
//! sequential evaluation. This crate provides exactly that contract:
//!
//! * [`Grid`] — an ordered collection of sweep points with an
//!   order-preserving [`Grid::eval_with`]. A grid of model solves captures its
//!   [`gtpn::AnalysisEngine`] in the closure: the engine holds no per-thread
//!   state, so every worker shares its one solution cache and a point's
//!   result does not depend on which worker solved it. Underneath is an
//!   order-preserving parallel map (self-scheduling workers over a shared
//!   index, results reassembled by position);
//! * [`point_seed`] — deterministic RNG seeds derived from grid
//!   coordinates, so DES replications are reproducible run-to-run no matter
//!   which worker executes them or in what order;
//! * [`threads`] — the pool's worker count, read from the environment:
//!   `HSIPC_SWEEP=<n>` sets it (`1`, `seq` or `sequential` force the
//!   sequential path; any other value is an error), falling back to the
//!   machine's available parallelism when unset. The pool is the
//!   program's only layer of threads: every solve a point runs is serial.
//!
//! Worker panics propagate to the caller — a failing sweep point fails the
//! whole sweep, as it would sequentially.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Stack size of each pool worker. Sweep closures run solver iterations
/// and live-runtime drivers, not deep recursion; 2 MiB is ample while
/// keeping a wide pool from reserving the platform-default 8 MiB per
/// thread.
const WORKER_STACK: usize = 2 * 1024 * 1024;

/// The pool's worker count, parsed once: `HSIPC_SWEEP` ([`parse_threads`])
/// when set, else the machine's available parallelism. One worker is the
/// sequential path.
///
/// # Panics
///
/// When `HSIPC_SWEEP` is set to a value [`parse_threads`] rejects: a knob
/// is validated, never silently replaced by its default.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| match std::env::var_os("HSIPC_SWEEP") {
        Some(v) => parse_threads(&v.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// Parses an `HSIPC_SWEEP` value: a positive worker count, or `seq` /
/// `sequential` (case-insensitive) for one.
///
/// # Errors
///
/// Any other value, with a message naming the variable and the values it
/// accepts.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    let v = value.trim();
    if v.eq_ignore_ascii_case("seq") || v.eq_ignore_ascii_case("sequential") {
        return Ok(1);
    }
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "HSIPC_SWEEP=`{value}` is not a thread count (a positive number, `seq` or `sequential`)"
        )),
    }
}

/// Order-preserving map over `items` with up to `threads` workers, in order
/// on the calling thread when that is one: `out[i]` is always
/// `f(&items[i])`.
pub(crate) fn map_with<I, O, F>(threads: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    // Self-scheduling pool: workers claim the next unstarted index, so a
    // slow point (a big GTPN solve) does not hold up the others; results
    // carry their index and are reassembled in grid order afterwards.
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, O)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                // Named, stack-capped workers: pool threads run sweep
                // points, not deep recursion — 2 MiB apiece keeps a wide
                // pool cheap and makes workers identifiable in thread
                // listings and panic messages.
                std::thread::Builder::new()
                    .name(format!("hsipc-sweep{w}"))
                    .stack_size(WORKER_STACK)
                    .spawn_scoped(scope, move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let out = f(&items[i]);
                        if tx.send((i, out)).is_err() {
                            break;
                        }
                    })
                    .expect("spawn sweep worker")
            })
            .collect();
        // Re-raise a worker's panic with its original payload so a failing
        // sweep point reports the same message it would sequentially.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    drop(tx);

    let mut slots: Vec<Option<O>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, out) in rx {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every sweep point produced a result"))
        .collect()
}

/// An ordered grid of independent sweep points.
///
/// The order of `points` is the *paper order* — the order rows appear in
/// the rendered table or figure — and [`Grid::eval_with`] returns results in
/// exactly that order whatever the worker count.
#[derive(Debug, Clone)]
pub struct Grid<P> {
    points: Vec<P>,
}

impl<P> Grid<P> {
    /// A grid from points already in paper order.
    pub fn new(points: Vec<P>) -> Grid<P> {
        Grid { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, in paper order.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Evaluates every point with up to `threads` workers (1 is the
    /// sequential path); `out[i]` corresponds to `points()[i]`.
    pub fn eval_with<O, F>(&self, threads: usize, f: F) -> Vec<O>
    where
        P: Sync,
        O: Send,
        F: Fn(&P) -> O + Sync,
    {
        map_with(threads, &self.points, f)
    }
}

/// The cartesian product `outer × inner`, outer-major — the nested-loop
/// order `for o in outer { for i in inner { … } }` used by the paper's
/// tables.
pub fn cartesian<A: Clone, B: Clone>(outer: &[A], inner: &[B]) -> Grid<(A, B)> {
    let mut points = Vec::with_capacity(outer.len() * inner.len());
    for o in outer {
        for i in inner {
            points.push((o.clone(), i.clone()));
        }
    }
    Grid::new(points)
}

/// Deterministic RNG seed for one grid point, derived from the experiment
/// id and the point's coordinates — never from a shared RNG, so the seed a
/// point gets does not depend on which worker ran first.
///
/// FNV-1a over the label and coordinate words, finished with
/// [`gtpn::sim::splitmix64`] for avalanche.
pub fn point_seed(experiment: &str, coords: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in experiment.bytes() {
        eat(b);
    }
    for &c in coords {
        for b in c.to_le_bytes() {
            eat(b);
        }
    }
    gtpn::sim::splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let seq = map_with(1, &items, |&x| x * x);
        for threads in [2, 3, 8] {
            let par = map_with(threads, &items, |&x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn all_points_evaluated_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..50).collect();
        let out = map_with(4, &items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(calls.load(Ordering::Relaxed), 50);
        assert_eq!(out, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_grids() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_with(4, &empty, |&x| x).is_empty());
        assert_eq!(map_with(4, &[7u32], |&x| x * 2), vec![14]);
        let g: Grid<u32> = Grid::new(vec![]);
        assert!(g.is_empty());
    }

    #[test]
    #[should_panic(expected = "sweep point 13")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..40).collect();
        let _ = map_with(4, &items, |&x| {
            assert!(x != 13, "sweep point 13 failed");
            x
        });
    }

    #[test]
    fn cartesian_is_outer_major() {
        let g = cartesian(&['a', 'b'], &[1, 2, 3]);
        let want = [('a', 1), ('a', 2), ('a', 3), ('b', 1), ('b', 2), ('b', 3)];
        assert_eq!(g.points(), &want[..]);
        assert_eq!(g.len(), 6);
    }

    #[test]
    fn point_seeds_are_stable_and_distinct() {
        let a = point_seed("fig6.15", &[1, 0]);
        assert_eq!(a, point_seed("fig6.15", &[1, 0]), "same point, same seed");
        assert_ne!(a, point_seed("fig6.15", &[1, 1]), "coords matter");
        assert_ne!(a, point_seed("fig6.16", &[1, 0]), "experiment id matters");
        // Coordinate boundaries are not ambiguous: [1,0] vs [1] differ.
        assert_ne!(a, point_seed("fig6.15", &[1]));
    }

    #[test]
    fn threads_policy_precedence() {
        // A numeric HSIPC_SWEEP is the thread count.
        assert_eq!(parse_threads("8"), Ok(8));
        assert_eq!(parse_threads(" 1 "), Ok(1));
        // seq/sequential are aliases for 1.
        assert_eq!(parse_threads("seq"), Ok(1));
        assert_eq!(parse_threads("Sequential"), Ok(1));
        // Anything else is an error naming the variable, never a silent
        // fall-through to the machine's parallelism; zero is never returned.
        for bad in ["fast", "0", "", "-2"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(err.contains("HSIPC_SWEEP"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(threads() >= 1);
    }
}

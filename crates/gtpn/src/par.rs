//! Core-budget accounting for nested parallelism.
//!
//! Two layers of this repository want threads: the sweep engine's outer
//! worker pool (one grid point per worker) and the solver's inner hot
//! loops (frontier-parallel reachability expansion, the §6.6.3 fixed
//! point's concurrent sub-solves). Letting each layer size itself from the
//! environment independently oversubscribes the machine exactly when it
//! hurts most — a big grid whose tail is one huge solve. This module provides the shared ledger both layers draw
//! from:
//!
//! * [`threads`] — the one place the thread-count knob is read
//!   (`HSIPC_SWEEP` as a number, else the machine's available
//!   parallelism). `sweep::threads()` re-exports it; [`parse_threads`] is
//!   the variable's one parser, which `repro` also runs up front.
//! * [`ParallelBudget`] — a counter of *extra* cores (beyond the calling
//!   thread) that may be running at once. Outer pool workers
//!   [`register`](ParallelBudget::register) the core they occupy; inner
//!   loops claim whatever is left and degrade to serial when the pool has
//!   the machine saturated. As pool workers drain and exit, their cores
//!   free up and the remaining big solves widen — the critical-path
//!   handoff the sweep needs.
//! * [`join2`] — run two closures concurrently when the budget grants a
//!   core, sequentially otherwise; results are identical either way.
//!
//! Budgeted code paths are *logically* parallel: a budget of 8 grants 7
//! extra workers even on a single-core machine, so determinism tests can
//! force the parallel code paths anywhere. Wall-clock speedup, of course,
//! still comes only from real cores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The process-wide thread-count policy, parsed once: `HSIPC_SWEEP`
/// ([`parse_threads`]) when set, else the machine's available parallelism.
///
/// # Panics
///
/// When `HSIPC_SWEEP` is set to a value [`parse_threads`] rejects.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        crate::knob("HSIPC_SWEEP", parse_threads).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Parses an `HSIPC_SWEEP` value: a positive thread count, or `seq` /
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

/// A ledger of extra cores shared by the outer sweep pool and the solver's
/// inner parallel loops; see the module docs.
#[derive(Debug)]
pub struct ParallelBudget {
    /// Extra cores beyond the root caller that may run concurrently.
    extra: usize,
    /// Extra cores currently spoken for (may exceed `extra` through
    /// [`register`](Self::register), never through
    /// [`claim_extra`](Self::claim_extra)).
    in_use: AtomicUsize,
}

impl ParallelBudget {
    /// A budget for `cores` total cores (the calling thread plus
    /// `cores - 1` extras). `cores` is clamped to at least 1.
    pub fn new(cores: usize) -> ParallelBudget {
        ParallelBudget {
            extra: cores.max(1) - 1,
            in_use: AtomicUsize::new(0),
        }
    }

    /// A strictly serial budget: every claim returns zero extra cores.
    pub(crate) fn serial() -> ParallelBudget {
        ParallelBudget::new(1)
    }

    /// The process-global budget, sized by [`threads`] — what the default
    /// engines and the sweep pool share.
    pub fn global() -> &'static ParallelBudget {
        static GLOBAL: OnceLock<ParallelBudget> = OnceLock::new();
        GLOBAL.get_or_init(|| ParallelBudget::new(threads()))
    }

    /// Extra cores currently unclaimed.
    pub fn available(&self) -> usize {
        self.extra
            .saturating_sub(self.in_use.load(Ordering::Relaxed))
    }

    /// Cores currently leased (registered pool workers plus inner claims);
    /// may exceed the budget's extra cores when the pool overcommits.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Unconditionally marks one core as occupied — the outer pool calls
    /// this from each worker thread so inner claims see the machine as
    /// busy. Released when the lease drops (the worker exits).
    pub fn register(&self) -> CoreLease<'_> {
        self.in_use.fetch_add(1, Ordering::Relaxed);
        CoreLease { budget: self, n: 1 }
    }

    /// Claims up to `want` extra cores, never exceeding the budget; the
    /// returned lease may hold zero. Inner parallel loops size themselves
    /// by `1 + lease.extra()` workers and release by dropping the lease.
    pub(crate) fn claim_extra(&self, want: usize) -> CoreLease<'_> {
        if want == 0 || self.extra == 0 {
            return CoreLease { budget: self, n: 0 };
        }
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            let free = self.extra.saturating_sub(cur);
            let n = want.min(free);
            if n == 0 {
                return CoreLease { budget: self, n: 0 };
            }
            match self.in_use.compare_exchange_weak(
                cur,
                cur + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return CoreLease { budget: self, n },
                Err(now) => cur = now,
            }
        }
    }
}

/// Cores held against a [`ParallelBudget`]; returned on drop.
#[derive(Debug)]
pub struct CoreLease<'a> {
    budget: &'a ParallelBudget,
    n: usize,
}

impl CoreLease<'_> {
    /// Number of extra cores this lease holds (0 = run serial).
    pub(crate) fn extra(&self) -> usize {
        self.n
    }
}

impl Drop for CoreLease<'_> {
    fn drop(&mut self) {
        if self.n > 0 {
            self.budget.in_use.fetch_sub(self.n, Ordering::Relaxed);
        }
    }
}

/// Runs `a` and `b` concurrently when `budget` grants an extra core,
/// sequentially otherwise. Both closures always run to completion and the
/// results are identical either way — callers rely on this for the
/// byte-identity contract across thread counts.
pub fn join2<A, B, RA, RB>(budget: &ParallelBudget, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let lease = budget.claim_extra(1);
    if lease.extra() == 0 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        let rb = match hb.join() {
            Ok(rb) => rb,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(threads() >= 1);
    }

    #[test]
    fn budget_claims_are_bounded_and_released() {
        let b = ParallelBudget::new(4);
        assert_eq!(b.available(), 3);
        let first = b.claim_extra(2);
        assert_eq!(first.extra(), 2);
        let second = b.claim_extra(5);
        assert_eq!(second.extra(), 1, "only one core left");
        assert_eq!(b.claim_extra(1).extra(), 0);
        drop(first);
        assert_eq!(b.available(), 2);
        drop(second);
        assert_eq!(b.available(), 3);
    }

    #[test]
    fn register_counts_against_inner_claims() {
        let b = ParallelBudget::new(2);
        let worker = b.register();
        assert_eq!(b.claim_extra(1).extra(), 0, "pool worker owns the core");
        drop(worker);
        assert_eq!(b.claim_extra(1).extra(), 1);
    }

    #[test]
    fn serial_budget_never_grants() {
        let b = ParallelBudget::serial();
        assert_eq!(b.available(), 0);
        assert_eq!(b.claim_extra(usize::MAX).extra(), 0);
    }

    #[test]
    fn join2_matches_sequential() {
        let b = ParallelBudget::new(8);
        let (x, y) = join2(&b, || 6 * 7, || "ok");
        assert_eq!((x, y), (42, "ok"));
        let s = ParallelBudget::serial();
        let (x, y) = join2(&s, || 6 * 7, || "ok");
        assert_eq!((x, y), (42, "ok"));
    }
}

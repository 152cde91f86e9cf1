//! # gtpn — Generalized Timed Petri Nets
//!
//! An implementation of the Generalized Timed Petri Net (GTPN) formalism of
//! Holliday & Vernon, as used in Ramachandran's *Hardware Support for
//! Interprocess Communication* (UW–Madison TR #667, 1986 / ISCA 1987) to
//! model and compare node architectures for message-based operating systems.
//!
//! A GTPN is a Petri net whose transitions carry three attributes:
//!
//! * a **deterministic firing duration** (*delay*, in integer time units),
//! * a **frequency** — a possibly state-dependent expression governing the
//!   probabilistic resolution of conflicts between transitions that compete
//!   for tokens, and
//! * an optional **resource** label; the analyzer reports the steady-state
//!   mean number of in-progress firings of each resource ("resource usage"),
//!   which is the paper's throughput metric.
//!
//! The crate provides:
//!
//! * [`Net`] / [`Transition`] — net description with a small expression
//!   language ([`Expr`]) for state-dependent frequencies such as the paper's
//!   `(NetIntr = 0) & !T8 & !T9 -> 1/982, 0` gates, which models build as
//!   `Expr` values (the crate reads no text notation),
//! * [`ReachabilityGraph`] — exact construction of the embedded Markov chain
//!   (tangible states only; zero-delay firings are eliminated inline),
//! * [`solve`](ReachabilityGraph::solve) — steady-state solution and
//!   time-weighted resource-usage estimates,
//! * [`engine`] — the analysis engine, the one road from a net to
//!   steady-state numbers, with its solution cache,
//! * [`lump`] — exact symmetry lumping of the embedded chain,
//! * [`cache`] — cache bounds and the store of chain skeletons,
//! * [`sim`] — a Monte-Carlo token-game simulator with identical semantics,
//!   used for cross-validation and for nets too large to solve exactly,
//! * [`invariant`] — place-invariant (conservation) analysis,
//! * [`geometric`] — the paper's §6.6.1 trick of replacing a large constant
//!   delay by a geometrically distributed delay with the same mean,
//! * [`dot`] — Graphviz export of a net.
//!
//! ## Example
//!
//! The two-transition example of the paper's Figure 6.6/6.7: a token cycles
//! through a geometric stage of mean 10 time units and we measure the
//! completion rate.
//!
//! ```
//! use gtpn::{Net, Transition, Expr};
//!
//! let mut net = Net::new("figure-6.7");
//! let p = net.add_place("P1", 1);
//! let done = net.add_place("P2", 0);
//! // Exit with probability 1/10 per unit step, else loop: geometric mean 10.
//! net.add_transition(
//!     Transition::new("T0").delay(1).frequency(Expr::constant(0.1))
//!         .resource("lambda").input(p, 1).output(done, 1),
//! )?;
//! net.add_transition(
//!     Transition::new("T1").delay(1).frequency(Expr::constant(0.9))
//!         .input(p, 1).output(p, 1),
//! )?;
//! // Immediately recycle the token.
//! net.add_transition(
//!     Transition::new("T2").delay(0).frequency(Expr::constant(1.0))
//!         .input(done, 1).output(p, 1),
//! )?;
//!
//! let graph = net.reachability(100_000)?;
//! let solution = graph.solve(1e-12, 1_000_000)?;
//! let usage = solution.resource_usage("lambda").unwrap();
//! assert!((usage - 0.1).abs() < 1e-9); // T0 busy 10% of the time
//! # Ok::<(), gtpn::GtpnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod compiled;
mod error;
mod expr;
mod intern;
mod lru;
mod net;
mod reach;
mod solve;
#[cfg(test)]
mod state;

pub mod cache;
pub mod dot;
pub mod engine;
pub mod geometric;
pub mod invariant;
pub mod lump;
pub mod sim;

pub use engine::{Analysis, AnalysisEngine, BackendKind, BackendSel, DesOptions, EngineConfig};
pub use error::GtpnError;
pub use expr::Expr;
pub use lump::LumpSel;
pub use net::{Net, PlaceId, TransId, Transition};
pub use reach::ReachabilityGraph;
pub use solve::Solution;

/// The value of the environment knob `name` as `parse` reads it; `None`
/// when unset. A set value `parse` rejects panics with `parse`'s message:
/// a knob is validated, never silently replaced by its default. (`repro`
/// runs every knob through the same parser up front and exits 2 instead.)
pub(crate) fn knob<T>(name: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
    let value = std::env::var_os(name)?;
    Some(parse(&value.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")))
}

/// Serializes tests that observe or clear the process-global caches — the
/// harness runs test functions on multiple threads, and counter assertions
/// in one test must not interleave with lookups from another.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

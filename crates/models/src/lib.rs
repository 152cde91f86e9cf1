//! # models — the thesis's GTPN performance models (Chapter 6)
//!
//! Encodes the Generalized Timed Petri Net models the paper uses to compare
//! the four node architectures, built table-by-table from Tables 6.2–6.23:
//!
//! * [`local`] — the single-node conversation models (Figures 6.9 and 6.12):
//!   clients, servers and processor tokens cycle through geometric service
//!   stages approximating the measured activity costs.
//! * `client` / `server` — the split non-local models (Figures
//!   6.10/6.11/6.13/6.14), with surrogate delays standing in for the remote
//!   half, interrupt-priority gating (`(NetIntr = 0) & !T & !T'`), and the
//!   paper's `IoOut`/`IoIn` network-interface places.
//! * [`nonlocal`] — the §6.6.3 iterative fixed point: the client model's
//!   cycle time yields the server model's inter-arrival delay, whose
//!   Little's-law server delay feeds back, iterating to convergence.
//! * [`contention`] — the §6.6.2 low-level shared-memory contention model
//!   (Figure 6.8, Tables 6.2/6.3) computing "contention" completion times
//!   for overlapping activities.
//! * [`offered`] — Tables 6.24/6.25, offered load vs server time.
//! * [`validation`] — the Figure 6.15 exercise: GTPN model predictions vs
//!   the discrete-event "experimental" measurements from `archsim`.
//!
//! Throughputs are reported in conversations per millisecond, matching the
//! paper's message-throughput figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod client;
mod server;
mod stages;

pub mod contention;
pub mod local;
pub mod nonlocal;
pub mod offered;
pub mod validation;

pub use archsim::timings::{Architecture, Locality};
pub use gtpn::{Analysis, AnalysisEngine, BackendKind, BackendSel, DesOptions, EngineConfig};

/// Default state budget for reachability analysis of the chapter-6 nets.
pub const STATE_BUDGET: usize = 2_000_000;

/// Default Gauss–Seidel tolerance.
pub const TOLERANCE: f64 = 1e-11;

/// Default Gauss–Seidel sweep cap.
pub const MAX_SWEEPS: usize = 400_000;

/// Errors from model construction or solution.
#[derive(Debug)]
pub enum ModelError {
    /// The underlying GTPN analysis failed.
    Gtpn(gtpn::GtpnError),
    /// The §6.6.3 iteration did not converge.
    NoFixedPoint {
        /// Iterations performed.
        iterations: usize,
        /// Last relative change in the server delay.
        delta: f64,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Gtpn(e) => write!(f, "GTPN analysis failed: {e}"),
            ModelError::NoFixedPoint { iterations, delta } => {
                write!(
                    f,
                    "client/server iteration stalled after {iterations} rounds (Δ={delta:.3e})"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

impl From<gtpn::GtpnError> for ModelError {
    fn from(e: gtpn::GtpnError) -> ModelError {
        ModelError::Gtpn(e)
    }
}

/// The process-wide default analysis engine: the chapter-6 budgets
/// ([`TOLERANCE`], [`MAX_SWEEPS`], [`STATE_BUDGET`]), exact lumping on,
/// and the [`BackendSel::Auto`] policy.
///
/// Every model-level `solve` function without an explicit engine argument
/// analyzes through this engine, so sweeps, experiments and tests share
/// one solution cache and one set of hit/miss counters.
pub fn default_engine() -> &'static AnalysisEngine {
    static ENGINE: std::sync::OnceLock<AnalysisEngine> = std::sync::OnceLock::new();
    ENGINE.get_or_init(|| {
        AnalysisEngine::new(EngineConfig {
            backend: BackendSel::Auto,
            tolerance: TOLERANCE,
            max_sweeps: MAX_SWEEPS,
            state_budget: STATE_BUDGET,
            des: DesOptions::default(),
            lump: gtpn::LumpSel::On,
        })
    })
}

/// Model throughput (conversations/ms) for one live-sweep grid point:
/// dispatches on locality to the local model ([`local::solve_in`]) or the
/// §6.6.3 non-local fixed point ([`nonlocal::solve_in`]), analyzing
/// through `engine` so concurrent sweep workers share one solution cache.
///
/// # Errors
///
/// [`ModelError`] when the underlying solve fails or the non-local
/// iteration stalls.
pub fn live_throughput_in(
    engine: &AnalysisEngine,
    arch: Architecture,
    locality: Locality,
    n: u32,
    x_us: f64,
) -> Result<f64, ModelError> {
    Ok(match locality {
        Locality::Local => local::solve_in(engine, arch, n, x_us)?.throughput_per_ms,
        Locality::NonLocal => nonlocal::solve_in(engine, arch, n, x_us)?.throughput_per_ms,
    })
}

/// Analyzes a chapter-6 net through `engine`; the single choke point every
/// model solve in this crate funnels through.
pub(crate) fn analyze_in(engine: &AnalysisEngine, net: &gtpn::Net) -> Result<Analysis, ModelError> {
    Ok(engine.analyze(net)?)
}

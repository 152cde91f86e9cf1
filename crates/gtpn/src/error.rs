use std::fmt;

/// Errors produced while building or analyzing a GTPN.
#[derive(Debug, Clone, PartialEq)]
pub enum GtpnError {
    /// A transition's arc or frequency expression referenced a place id
    /// that does not belong to the net.
    UnknownPlace {
        /// Name of the offending transition.
        transition: String,
        /// The out-of-range place index.
        place: usize,
    },
    /// A transition's frequency expression referenced a transition id that
    /// does not belong to the net.
    UnknownTransition {
        /// Name of the transition whose frequency holds the reference.
        transition: String,
        /// The out-of-range transition index.
        referenced: usize,
    },
    /// A frequency expression evaluated to a negative or non-finite value.
    BadFrequency {
        /// Name of the offending transition.
        transition: String,
        /// The offending value.
        value: f64,
    },
    /// The instantaneous-firing phase did not terminate (a cycle of
    /// zero-delay transitions keeps producing tokens).
    ZeroDelayDivergence,
    /// The reachability graph exceeded the caller-supplied state budget.
    StateSpaceExceeded {
        /// The budget that was exceeded.
        limit: usize,
    },
    /// The net dead-locked: a reachable state has no in-progress firing and
    /// no enabled transition. Steady-state analysis is undefined.
    Deadlock {
        /// Index of the dead state in the reachability graph.
        state: usize,
    },
    /// The steady-state solver did not reach the requested tolerance.
    NoConvergence {
        /// Residual after the final sweep.
        residual: f64,
        /// Number of sweeps performed.
        iterations: usize,
    },
    /// A requested resource or transition name does not exist in the net.
    UnknownName(String),
    /// The net has no places or no transitions.
    EmptyNet,
}

impl fmt::Display for GtpnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GtpnError::UnknownPlace { transition, place } => {
                write!(
                    f,
                    "transition `{transition}` references unknown place index {place}"
                )
            }
            GtpnError::UnknownTransition {
                transition,
                referenced,
            } => {
                write!(
                    f,
                    "transition `{transition}` references unknown transition index {referenced}"
                )
            }
            GtpnError::BadFrequency { transition, value } => {
                write!(
                    f,
                    "transition `{transition}` frequency evaluated to invalid value {value}"
                )
            }
            GtpnError::ZeroDelayDivergence => {
                write!(
                    f,
                    "instantaneous firing phase diverged (zero-delay transition cycle)"
                )
            }
            GtpnError::StateSpaceExceeded { limit } => {
                write!(f, "reachability graph exceeded the state budget of {limit}")
            }
            GtpnError::Deadlock { state } => {
                write!(f, "net deadlocks in reachable state {state}")
            }
            GtpnError::NoConvergence {
                residual,
                iterations,
            } => {
                write!(
                    f,
                    "steady-state solver stalled at residual {residual:.3e} after {iterations} sweeps"
                )
            }
            GtpnError::UnknownName(name) => write!(f, "unknown resource or transition `{name}`"),
            GtpnError::EmptyNet => write!(f, "net has no places or no transitions"),
        }
    }
}

impl std::error::Error for GtpnError {}

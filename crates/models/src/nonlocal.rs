//! The §6.6.3 iterative solution of the split non-local models.
//!
//! The combined two-node system is solved by fixed point: the client model
//! is solved with an assumed server delay `S_d`; Little's result turns its
//! throughput into the mean time a client spends on its own node, whose
//! overlap-corrected value `C_d = (T − S_d) − S_c` parameterizes the server
//! model; the server model's Little's-law delay (plus the network
//! read/write times added outside the model, §6.6.4) becomes the next
//! `S_d`. Iteration stops when successive server delays agree within a
//! tolerance.

use crate::client;
use crate::server;
use crate::stages::stage_mean;
use crate::ModelError;
use archsim::timings::{ActivityKind as K, Architecture, Locality};
use gtpn::AnalysisEngine;

/// Converged solution of the non-local model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonLocalSolution {
    /// Conversations per millisecond (Λ).
    pub throughput_per_ms: f64,
    /// Converged server delay `S_d`, µs.
    pub s_d_us: f64,
    /// Converged client-side delay `C_d`, µs.
    pub c_d_us: f64,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

/// Relative convergence tolerance on `S_d`.
pub(crate) const FIXED_POINT_TOL: f64 = 1e-3;

/// Maximum fixed-point iterations.
pub(crate) const MAX_ITERATIONS: usize = 60;

/// Wire transit of one 40-byte packet on the 4 Mb/s ring, µs — a constant
/// added to `S_d` outside the model together with the DMA times (§6.6.4).
pub(crate) const WIRE_US: f64 = 112.0;

/// Solves the non-local model for `n` conversations and server compute
/// `x_us`.
///
/// # Errors
///
/// [`ModelError::NoFixedPoint`] if the §6.6.3 iteration stalls;
/// [`ModelError::Gtpn`] if a sub-model fails to solve.
pub fn solve(arch: Architecture, n: u32, x_us: f64) -> Result<NonLocalSolution, ModelError> {
    solve_with_hosts(arch, n, x_us, 1)
}

/// As [`solve`], analyzing through an explicit engine.
pub fn solve_in(
    engine: &AnalysisEngine,
    arch: Architecture,
    n: u32,
    x_us: f64,
) -> Result<NonLocalSolution, ModelError> {
    solve_with_hosts_in(engine, arch, n, x_us, 1)
}

/// As [`solve`] with `hosts` host processors per node — the paper's 925
/// validation configuration ran two hosts per node (§6.8).
pub(crate) fn solve_with_hosts(
    arch: Architecture,
    n: u32,
    x_us: f64,
    hosts: u32,
) -> Result<NonLocalSolution, ModelError> {
    solve_with_hosts_in(crate::default_engine(), arch, n, x_us, hosts)
}

/// As [`solve_with_hosts`], analyzing every sub-model through an explicit
/// engine — the §6.6.3 iteration re-solves nearly identical nets each
/// round, so the engine's solution cache pays off across iterations.
pub(crate) fn solve_with_hosts_in(
    engine: &AnalysisEngine,
    arch: Architecture,
    n: u32,
    x_us: f64,
    hosts: u32,
) -> Result<NonLocalSolution, ModelError> {
    let loc = Locality::NonLocal;
    // Network read/write constants added outside the model.
    let dma = stage_mean(arch, loc, &[K::DmaIn, K::DmaOut]);
    let outside = dma + 2.0 * WIRE_US;

    // Initial guess: the full communication chain plus the compute time.
    let mut s_d = archsim::timings::round_trip_us(arch, loc, true) + x_us;
    let mut c_d = s_d; // refined on the first pass
    let mut delta = f64::INFINITY;

    for it in 1..=MAX_ITERATIONS {
        // The client solve is parameterized by s_d, the server probe by
        // the *previous* c_d.
        let cl = client::solve_with_hosts_in(engine, arch, n, s_d, hosts)?;
        let sv_probe = server::solve_with_hosts_in(engine, arch, n, x_us, c_d.max(1.0), hosts)?;
        let c_d_prime = cl.cycle_us - s_d;

        c_d = (c_d_prime - sv_probe.s_c_us).max(1.0);
        let sv = server::solve_with_hosts_in(engine, arch, n, x_us, c_d, hosts)?;
        let s_d_new = sv.s_d_us + outside;

        delta = (s_d_new - s_d).abs() / s_d.max(1.0);
        // Damping stabilizes the alternation at high loads.
        s_d = 0.5 * s_d + 0.5 * s_d_new;
        if delta < FIXED_POINT_TOL {
            let cl = client::solve_with_hosts_in(engine, arch, n, s_d, hosts)?;
            return Ok(NonLocalSolution {
                throughput_per_ms: cl.lambda_per_us * 1_000.0,
                s_d_us: s_d,
                c_d_us: c_d,
                iterations: it,
            });
        }
    }
    Err(ModelError::NoFixedPoint {
        iterations: MAX_ITERATIONS,
        delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_for_single_conversation() {
        let s = solve(Architecture::MessageCoprocessor, 1, 0.0).unwrap();
        assert!(s.throughput_per_ms > 0.0);
        assert!(s.iterations < MAX_ITERATIONS);
        // One conversation: throughput ≈ 1 / (client chain + S_d).
        assert!(s.s_d_us > 1_000.0, "S_d {}", s.s_d_us);
    }

    #[test]
    fn throughput_grows_with_conversations() {
        let one = solve(Architecture::MessageCoprocessor, 1, 0.0).unwrap();
        let three = solve(Architecture::MessageCoprocessor, 3, 0.0).unwrap();
        assert!(
            three.throughput_per_ms > one.throughput_per_ms * 1.3,
            "1: {} 3: {}",
            one.throughput_per_ms,
            three.throughput_per_ms
        );
    }

    #[test]
    fn arch3_beats_arch1_nonlocal() {
        // Figure 6.17(b): architecture III performs significantly better.
        let a1 = solve(Architecture::Uniprocessor, 2, 0.0).unwrap();
        let a3 = solve(Architecture::SmartBus, 2, 0.0).unwrap();
        assert!(
            a3.throughput_per_ms > a1.throughput_per_ms * 1.2,
            "I: {} III: {}",
            a1.throughput_per_ms,
            a3.throughput_per_ms
        );
    }
}

//! The non-local *client-node* model (Figures 6.10 / 6.13).
//!
//! All `n` clients run on one node; the remote server system is a surrogate
//! geometric delay of mean `S_d` (§6.6.3). Network interfaces are the
//! single-token places `IoOut` / `IoIn`; a completed inbound DMA deposits a
//! token in `NetIntr`, and interrupt-priority gating — the tables'
//! `(NetIntr = 0) & !T & !T'` expressions — freezes ordinary kernel
//! processing while an interrupt is pending or being cleaned up. On
//! Architecture I the host fields interrupts; on II–IV the MP does.

use crate::stages::{clamp_mean, stage_mean};
use crate::ModelError;
use archsim::timings::{ActivityKind as K, Architecture, Locality};
use gtpn::geometric::GeometricStage;
use gtpn::{AnalysisEngine, Expr, Net, TransId};

/// Solution of the client model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ClientSolution {
    /// Round-trip completion rate per microsecond (Λ).
    pub lambda_per_us: f64,
    /// Mean client cycle time `T = n / Λ`, µs.
    pub cycle_us: f64,
    /// Tangible states in the chain.
    pub states: usize,
}

fn gate(intr: gtpn::PlaceId, cleanup: (TransId, TransId)) -> Expr {
    Expr::all([
        Expr::place_empty(intr),
        Expr::not_firing(cleanup.0),
        Expr::not_firing(cleanup.1),
    ])
}

/// Builds the client-node net for `n` conversations with surrogate server
/// delay `s_d` µs and `hosts` host processors on the node (the 925 test-bed
/// ran two; see also the Chapter 7 extension).
pub(crate) fn build_with_hosts(
    arch: Architecture,
    n: u32,
    s_d: f64,
    hosts: u32,
) -> Result<Net, ModelError> {
    assert!(hosts >= 1, "a node needs at least one host");
    let loc = Locality::NonLocal;
    let mut net = Net::new(format!("{arch}-nonlocal-client-{n}conv-{hosts}hosts"));
    let clients = net.add_place("Clients", n);
    let host = net.add_place("Host", hosts);
    let io_out = net.add_place("IoOut", 1);
    let io_in = net.add_place("IoIn", 1);
    let net_intr = net.add_place("NetIntr", 0);
    let ready_dma = net.add_place("ReadyToDma", 0);
    let waiting = net.add_place("Waiting", 0);
    let resp = net.add_place("RespArrived", 0);

    // The interrupt processor: host on I, MP on II-IV.
    let intr_proc = if arch.has_mp() {
        net.add_place("MP", 1)
    } else {
        host
    };

    // Cleanup (reply-packet interrupt processing) built first so the gating
    // expressions can name its transitions. On Architecture I the table's
    // action 7 bundles cleanup and client restart.
    let cleanup_mean = if arch.has_mp() {
        stage_mean(arch, loc, &[K::CleanupClient])
    } else {
        stage_mean(arch, loc, &[K::CleanupClient, K::RestartClient])
    };
    let cleanup = GeometricStage::new("cleanup", clamp_mean(cleanup_mean))
        .input(net_intr, 1)
        .held(intr_proc)
        .output(clients, 1)
        .resource("lambda")
        .build(&mut net)?;
    let g = gate(net_intr, cleanup);

    // Client send: syscall (+ restart on II-IV, bundled as in Table 6.12's
    // T0 grouping of actions 1 and 10).
    let send_mean = if arch.has_mp() {
        stage_mean(arch, loc, &[K::SyscallSend, K::RestartClient])
    } else {
        stage_mean(arch, loc, &[K::SyscallSend])
    };
    let after_send = if arch.has_mp() {
        net.add_place("SendSubmitted", 0)
    } else {
        ready_dma
    };
    {
        let mut stage = GeometricStage::new("send", clamp_mean(send_mean))
            .input(clients, 1)
            .held(host)
            .output(after_send, 1);
        if !arch.has_mp() {
            // The host is the interrupt processor: sends stall during
            // interrupt handling (Table 6.7's gated T1/T2).
            stage = stage.gate(g.clone());
        }
        stage.build(&mut net)?;
    }

    // MP processing of the send (II-IV), gated per Table 6.12's T3/T4.
    if arch.has_mp() {
        GeometricStage::new(
            "process_send",
            clamp_mean(stage_mean(arch, loc, &[K::ProcessSend])),
        )
        .input(after_send, 1)
        .held(intr_proc)
        .gate(g.clone())
        .output(ready_dma, 1)
        .build(&mut net)?;
    }

    // Outgoing DMA (ungated in both table sets).
    GeometricStage::new("dma_out", clamp_mean(stage_mean(arch, loc, &[K::DmaOut])))
        .input(ready_dma, 1)
        .held(io_out)
        .output(waiting, 1)
        .build(&mut net)?;

    // Surrogate server delay (infinite-server: every waiting client ages
    // independently).
    GeometricStage::new("server_delay", clamp_mean(s_d))
        .input(waiting, 1)
        .output(resp, 1)
        .build(&mut net)?;

    // Incoming DMA, gated: the interface does not raise a new interrupt
    // while one is outstanding (Table 6.7 T11/T12, Table 6.12 T13/T14).
    GeometricStage::new("dma_in", clamp_mean(stage_mean(arch, loc, &[K::DmaIn])))
        .input(resp, 1)
        .held(io_in)
        .gate(g)
        .output(net_intr, 1)
        .build(&mut net)?;

    Ok(net)
}

/// Builds and solves the client model with `hosts` host processors,
/// analyzing through `engine`.
pub(crate) fn solve_with_hosts_in(
    engine: &AnalysisEngine,
    arch: Architecture,
    n: u32,
    s_d: f64,
    hosts: u32,
) -> Result<ClientSolution, ModelError> {
    let net = build_with_hosts(arch, n, s_d, hosts)?;
    let analysis = crate::analyze_in(engine, &net)?;
    let lambda = analysis.resource_usage("lambda")?;
    Ok(ClientSolution {
        lambda_per_us: lambda,
        cycle_us: f64::from(n) / lambda,
        states: analysis.states(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(arch: Architecture, n: u32, s_d: f64) -> Result<ClientSolution, ModelError> {
        solve_with_hosts_in(crate::default_engine(), arch, n, s_d, 1)
    }

    #[test]
    fn single_client_cycle_time_is_chain_sum() {
        // One client: T = send + process send + dma out + S_d + dma in +
        // cleanup (no contention with anyone).
        let s_d = 3_000.0;
        let c = solve(Architecture::MessageCoprocessor, 1, s_d).unwrap();
        let loc = Locality::NonLocal;
        let expect = stage_mean(
            Architecture::MessageCoprocessor,
            loc,
            &[
                K::SyscallSend,
                K::RestartClient,
                K::ProcessSend,
                K::DmaOut,
                K::DmaIn,
                K::CleanupClient,
            ],
        ) + s_d;
        assert!(
            (c.cycle_us - expect).abs() / expect < 0.02,
            "cycle {} vs {}",
            c.cycle_us,
            expect
        );
    }

    #[test]
    fn more_clients_more_throughput() {
        let s_d = 5_000.0;
        let one = solve(Architecture::MessageCoprocessor, 1, s_d).unwrap();
        let three = solve(Architecture::MessageCoprocessor, 3, s_d).unwrap();
        assert!(three.lambda_per_us > one.lambda_per_us * 1.5);
    }

    #[test]
    fn arch1_client_builds_and_solves() {
        let c = solve(Architecture::Uniprocessor, 2, 4_000.0).unwrap();
        assert!(c.lambda_per_us > 0.0);
        assert!(c.states > 1);
    }
}

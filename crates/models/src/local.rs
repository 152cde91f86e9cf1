//! Local-conversation models (Figures 6.9 and 6.12).
//!
//! * **Architecture I** (Figure 6.9): clients and servers compete for the
//!   single `Host` token through three geometric stages — client send
//!   (actions 1, 7), server receive (actions 2, 6), and the rendezvous
//!   (actions 3, 4 = compute `X`, 5). The resource `lambda` on the
//!   rendezvous exit measures throughput.
//! * **Architectures II–IV** (Figure 6.12): the host stages (syscalls,
//!   restarts, compute) hold the `Host` token while the kernel-processing
//!   stages (process send/receive, match, process reply) hold the `MP`
//!   token, letting computation and communication overlap — the whole point
//!   of the software partition.
//!
//! Stage means use the paper's contention completion times (§6.6.2);
//! processor sharing arises from the unit-step geometric stages re-acquiring
//! the processor token each microsecond (§6.7.1 notes FCFS and processor
//! sharing gave similar results, and processor sharing keeps the model
//! small).

use crate::stages::{clamp_mean, stage_mean};
use crate::ModelError;
use archsim::timings::{ActivityKind as K, Architecture, Locality};
use gtpn::geometric::GeometricStage;
use gtpn::{AnalysisEngine, BackendKind, Net};

/// Result of solving a local model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalSolution {
    /// Conversations completed per millisecond (the paper's Λ).
    pub throughput_per_ms: f64,
    /// Number of tangible states in the embedded chain (0 when the DES
    /// backend estimated the point).
    pub states: usize,
    /// Which engine backend produced the number.
    pub backend: BackendKind,
    /// 95% half-width on the throughput, conversations/ms — `Some` only
    /// for DES estimates.
    pub half_width_per_ms: Option<f64>,
}

/// Builds the local-conversation net for `arch` with `n` simultaneous
/// conversations and server compute time `x_us`.
pub fn build(arch: Architecture, n: u32, x_us: f64) -> Result<Net, ModelError> {
    build_with_hosts(arch, n, x_us, 1)
}

/// Chapter 7 extension: a *shared-memory multiprocessor node* — `hosts`
/// identical host processors served by one message coprocessor. The thesis
/// closes by proposing exactly this organization (Figure 7.1: one MP
/// serving a collection of hosts that share memory); modeling it is a
/// one-token change because processor sharing is expressed by the `Host`
/// place's marking.
pub(crate) fn build_with_hosts(
    arch: Architecture,
    n: u32,
    x_us: f64,
    hosts: u32,
) -> Result<Net, ModelError> {
    assert!(hosts >= 1, "a node needs at least one host");
    let loc = Locality::Local;
    let mut net = Net::new(format!("{arch}-local-{n}conv-{hosts}hosts"));
    let clients = net.add_place("Clients", n);
    let servers = net.add_place("Servers", n);
    let host = net.add_place("Host", hosts);

    if !arch.has_mp() {
        // Figure 6.9.
        let send_done = net.add_place("SendDone", 0);
        let recv_done = net.add_place("RecvDone", 0);
        let client_mean = stage_mean(arch, loc, &[K::SyscallSend, K::RestartClient]);
        let server_mean = stage_mean(arch, loc, &[K::SyscallReceive, K::RestartServer]);
        let rendezvous_mean = stage_mean(arch, loc, &[K::Match, K::SyscallReply]) + x_us;
        GeometricStage::new("client", clamp_mean(client_mean))
            .input(clients, 1)
            .held(host)
            .output(send_done, 1)
            .build(&mut net)?;
        GeometricStage::new("server", clamp_mean(server_mean))
            .input(servers, 1)
            .held(host)
            .output(recv_done, 1)
            .build(&mut net)?;
        GeometricStage::new("rendezvous", clamp_mean(rendezvous_mean))
            .input(send_done, 1)
            .input(recv_done, 1)
            .held(host)
            .output(clients, 1)
            .output(servers, 1)
            .resource("lambda")
            .build(&mut net)?;
        return Ok(net);
    }

    // Figure 6.12.
    let mp = net.add_place("MP", 1);
    let sent = net.add_place("SendSubmitted", 0);
    let recvd = net.add_place("RecvSubmitted", 0);
    let send_p = net.add_place("SendProcessed", 0);
    let recv_p = net.add_place("RecvProcessed", 0);
    let matched = net.add_place("Matched", 0);
    let replied = net.add_place("ReplySubmitted", 0);

    let client_mean = stage_mean(arch, loc, &[K::SyscallSend, K::RestartClient]);
    let server_mean = stage_mean(arch, loc, &[K::SyscallReceive, K::RestartServerAfterReply]);
    let run_mean = stage_mean(arch, loc, &[K::RestartServer, K::SyscallReply]) + x_us;

    GeometricStage::new("client_syscall", clamp_mean(client_mean))
        .input(clients, 1)
        .held(host)
        .output(sent, 1)
        .build(&mut net)?;
    GeometricStage::new(
        "process_send",
        clamp_mean(stage_mean(arch, loc, &[K::ProcessSend])),
    )
    .input(sent, 1)
    .held(mp)
    .output(send_p, 1)
    .build(&mut net)?;
    GeometricStage::new("server_syscall", clamp_mean(server_mean))
        .input(servers, 1)
        .held(host)
        .output(recvd, 1)
        .build(&mut net)?;
    GeometricStage::new(
        "process_receive",
        clamp_mean(stage_mean(arch, loc, &[K::ProcessReceive])),
    )
    .input(recvd, 1)
    .held(mp)
    .output(recv_p, 1)
    .build(&mut net)?;
    GeometricStage::new("match", clamp_mean(stage_mean(arch, loc, &[K::Match])))
        .input(send_p, 1)
        .input(recv_p, 1)
        .held(mp)
        .output(matched, 1)
        .build(&mut net)?;
    GeometricStage::new("server_run", clamp_mean(run_mean))
        .input(matched, 1)
        .held(host)
        .output(replied, 1)
        .build(&mut net)?;
    GeometricStage::new(
        "process_reply",
        clamp_mean(stage_mean(arch, loc, &[K::ProcessReply])),
    )
    .input(replied, 1)
    .held(mp)
    .output(clients, 1)
    .output(servers, 1)
    .resource("lambda")
    .build(&mut net)?;
    Ok(net)
}

/// Builds and solves the local model; `x_us` is the server compute time.
pub fn solve(arch: Architecture, n: u32, x_us: f64) -> Result<LocalSolution, ModelError> {
    solve_with_hosts(arch, n, x_us, 1)
}

/// As [`solve`], analyzing through an explicit engine.
pub fn solve_in(
    engine: &AnalysisEngine,
    arch: Architecture,
    n: u32,
    x_us: f64,
) -> Result<LocalSolution, ModelError> {
    solve_with_hosts_in(engine, arch, n, x_us, 1)
}

/// Solves the Chapter 7 multi-host extension: [`solve`] with `hosts` host
/// processors on the node.
pub fn solve_with_hosts(
    arch: Architecture,
    n: u32,
    x_us: f64,
    hosts: u32,
) -> Result<LocalSolution, ModelError> {
    solve_with_hosts_in(crate::default_engine(), arch, n, x_us, hosts)
}

/// As [`solve_with_hosts`], analyzing through an explicit engine.
pub fn solve_with_hosts_in(
    engine: &AnalysisEngine,
    arch: Architecture,
    n: u32,
    x_us: f64,
    hosts: u32,
) -> Result<LocalSolution, ModelError> {
    let net = build_with_hosts(arch, n, x_us, hosts)?;
    let analysis = crate::analyze_in(engine, &net)?;
    // `lambda` sits on delay-1 exit transitions: usage == rate per µs.
    let per_us = analysis.resource_usage("lambda")?;
    Ok(LocalSolution {
        throughput_per_ms: per_us * 1_000.0,
        states: analysis.states(),
        backend: analysis.backend(),
        half_width_per_ms: analysis
            .resource_interval("lambda")
            .map(|ci| ci.half_width * 1_000.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch1_throughput_independent_of_conversations() {
        // §6.9.1: "for architecture I, the throughput for local
        // conversations is the same irrespective of the number of
        // conversations" — one host serializes everything.
        let t1 = solve(Architecture::Uniprocessor, 1, 0.0).unwrap();
        let t3 = solve(Architecture::Uniprocessor, 3, 0.0).unwrap();
        let rel = (t3.throughput_per_ms - t1.throughput_per_ms) / t1.throughput_per_ms;
        assert!(
            rel.abs() < 0.02,
            "t1 {} t3 {}",
            t1.throughput_per_ms,
            t3.throughput_per_ms
        );
        // And it matches 1/C with C = 4.97 ms.
        assert!(
            (t1.throughput_per_ms - 1_000.0 / 4_970.0).abs() / (1_000.0 / 4_970.0) < 0.02,
            "{}",
            t1.throughput_per_ms
        );
    }

    #[test]
    fn arch2_one_conversation_loses_little() {
        // §6.9.1: the single-conversation loss from the host–MP handoff is
        // small (≈10%).
        let a1 = solve(Architecture::Uniprocessor, 1, 0.0).unwrap();
        let a2 = solve(Architecture::MessageCoprocessor, 1, 0.0).unwrap();
        assert!(a2.throughput_per_ms < a1.throughput_per_ms);
        let loss = 1.0 - a2.throughput_per_ms / a1.throughput_per_ms;
        assert!(loss < 0.20, "loss {loss}");
    }

    #[test]
    fn arch3_beats_1_and_2_at_max_load() {
        let a1 = solve(Architecture::Uniprocessor, 2, 0.0).unwrap();
        let a2 = solve(Architecture::MessageCoprocessor, 2, 0.0).unwrap();
        let a3 = solve(Architecture::SmartBus, 2, 0.0).unwrap();
        assert!(a3.throughput_per_ms > a1.throughput_per_ms);
        assert!(a3.throughput_per_ms > a2.throughput_per_ms);
    }

    #[test]
    fn arch4_close_to_arch3() {
        // §6.9.3: partitioning the smart bus buys little.
        let a3 = solve(Architecture::SmartBus, 2, 0.0).unwrap();
        let a4 = solve(Architecture::PartitionedSmartBus, 2, 0.0).unwrap();
        let gain = a4.throughput_per_ms / a3.throughput_per_ms - 1.0;
        assert!(gain.abs() < 0.05, "gain {gain}");
    }

    #[test]
    fn chapter7_extra_hosts_help_computation_bound_loads() {
        // Figure 7.1's organization: one MP, several hosts. With heavy
        // server computation the host is the bottleneck, so a second host
        // buys real throughput; the MP eventually caps scaling.
        let x = 5_700.0;
        let one = solve_with_hosts(Architecture::MessageCoprocessor, 4, x, 1).unwrap();
        let two = solve_with_hosts(Architecture::MessageCoprocessor, 4, x, 2).unwrap();
        assert!(
            two.throughput_per_ms > one.throughput_per_ms * 1.3,
            "1 host {} vs 2 hosts {}",
            one.throughput_per_ms,
            two.throughput_per_ms
        );
        // At maximum communication load the MP is the bottleneck and more
        // hosts barely matter.
        let one = solve_with_hosts(Architecture::MessageCoprocessor, 4, 0.0, 1).unwrap();
        let two = solve_with_hosts(Architecture::MessageCoprocessor, 4, 0.0, 2).unwrap();
        let gain = two.throughput_per_ms / one.throughput_per_ms - 1.0;
        assert!(gain < 0.35, "gain {gain}");
    }

    #[test]
    fn partition_pays_off_with_computation() {
        // Figure 6.18's headline: with server computation in the mix and
        // several conversations, architecture II approaches 2x over I.
        let x = 2_850.0;
        let a1 = solve(Architecture::Uniprocessor, 3, x).unwrap();
        let a2 = solve(Architecture::MessageCoprocessor, 3, x).unwrap();
        let speedup = a2.throughput_per_ms / a1.throughput_per_ms;
        assert!(speedup > 1.3, "speedup {speedup}");
        assert!(speedup < 2.05, "speedup {speedup} exceeds the 2x bound");
    }
}

//! The non-local *server-node* model (Figures 6.11 / 6.14).
//!
//! All `n` servers run on one node; each conversation token cycles through
//! receive posting → a surrogate *client delay* of mean `C_d` (the time
//! "its" client spends away, §6.6.3) → request arrival → match (the
//! network-interrupt processing, which has priority) → server restart +
//! compute + reply → reply processing → back to receive.
//!
//! The mean number of customers between arrival and reply completion,
//! together with the arrival rate, gives the server delay `S_d` by Little's
//! law — the quantity the paper instruments with its `Queue` place.

use crate::stages::{clamp_mean, stage_mean};
use crate::ModelError;
use archsim::timings::{ActivityKind as K, Architecture, Locality};
use gtpn::geometric::GeometricStage;
use gtpn::{AnalysisEngine, Expr, Net, PlaceId, TransId};

/// Solution of the server model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ServerSolution {
    /// Client-request arrival rate per µs (λ).
    pub arrival_per_us: f64,
    /// Mean customers in the served system (N).
    pub in_system: f64,
    /// Little's-law server delay `N / λ`, µs.
    pub s_d_us: f64,
    /// Receive-execution time overlapped with the client's absence (the
    /// paper's `S_c`), µs.
    pub s_c_us: f64,
    /// Tangible states in the chain.
    pub states: usize,
}

struct Built {
    net: Net,
    req_pending: PlaceId,
    matched: PlaceId,
    run_done: Option<PlaceId>,
    system_stages: Vec<(TransId, TransId)>,
    s_c_us: f64,
}

fn build(arch: Architecture, n: u32, x_us: f64, c_d: f64, hosts: u32) -> Result<Built, ModelError> {
    assert!(hosts >= 1, "a node needs at least one host");
    let loc = Locality::NonLocal;
    let mut net = Net::new(format!("{arch}-nonlocal-server-{n}conv-{hosts}hosts"));
    let servers = net.add_place("Servers", n);
    let host = net.add_place("Host", hosts);
    let waiting = net.add_place("ClientWait", 0);
    let req_pending = net.add_place("ReqPending", 0);
    let matched = net.add_place("Matched", 0);
    let intr_proc = if arch.has_mp() {
        net.add_place("MP", 1)
    } else {
        host
    };

    // Match (interrupt-priority work) first, for the gate expressions.
    let match_stage = GeometricStage::new("match", clamp_mean(stage_mean(arch, loc, &[K::Match])))
        .input(req_pending, 1)
        .held(intr_proc)
        .output(matched, 1)
        .build(&mut net)?;
    let g = Expr::all([
        Expr::place_empty(req_pending),
        Expr::not_firing(match_stage.0),
        Expr::not_firing(match_stage.1),
    ]);

    // Receive posting: host syscall (+ restart-after-reply on II-IV, the
    // Table 6.13 T13/T14 grouping), then MP processing on II-IV.
    let recv_host_mean = if arch.has_mp() {
        stage_mean(arch, loc, &[K::SyscallReceive, K::RestartServerAfterReply])
    } else {
        stage_mean(arch, loc, &[K::SyscallReceive])
    };
    let after_recv = if arch.has_mp() {
        net.add_place("RecvSubmitted", 0)
    } else {
        waiting
    };
    {
        let mut stage = GeometricStage::new("recv_host", clamp_mean(recv_host_mean))
            .input(servers, 1)
            .held(host)
            .output(after_recv, 1);
        if !arch.has_mp() {
            stage = stage.gate(g.clone()); // Table 6.8's gated T0/T1
        }
        stage.build(&mut net)?;
    }
    let mut s_c_us = recv_host_mean;
    if arch.has_mp() {
        let m = stage_mean(arch, loc, &[K::ProcessReceive]);
        s_c_us += m;
        GeometricStage::new("process_receive", clamp_mean(m))
            .input(after_recv, 1)
            .held(intr_proc)
            .gate(g.clone())
            .output(waiting, 1)
            .build(&mut net)?;
    }

    // Surrogate client delay; its exits are the request arrivals (λ).
    GeometricStage::new("client_delay", clamp_mean(c_d))
        .input(waiting, 1)
        .output(req_pending, 1)
        .resource("arrival")
        .build(&mut net)?;

    // Server restart + compute + reply syscall on the host.
    let run_mean = if arch.has_mp() {
        stage_mean(arch, loc, &[K::RestartServer, K::SyscallReply]) + x_us
    } else {
        stage_mean(arch, loc, &[K::SyscallReply]) + x_us
    };
    let mut system_stages = vec![match_stage];
    if arch.has_mp() {
        let run_done = net.add_place("RunDone", 0);
        let run = GeometricStage::new("server_run", clamp_mean(run_mean))
            .input(matched, 1)
            .held(host)
            .output(run_done, 1)
            .build(&mut net)?;
        let reply = GeometricStage::new(
            "process_reply",
            clamp_mean(stage_mean(arch, loc, &[K::ProcessReply])),
        )
        .input(run_done, 1)
        .held(intr_proc)
        .gate(g)
        .output(servers, 1)
        .resource("served")
        .build(&mut net)?;
        system_stages.push(run);
        system_stages.push(reply);
        Ok(Built {
            net,
            req_pending,
            matched,
            run_done: Some(run_done),
            system_stages,
            s_c_us,
        })
    } else {
        // Architecture I: the reply syscall completes the service.
        let run = GeometricStage::new("server_run", clamp_mean(run_mean))
            .input(matched, 1)
            .held(host)
            .gate(g)
            .output(servers, 1)
            .resource("served")
            .build(&mut net)?;
        system_stages.push(run);
        Ok(Built {
            net,
            req_pending,
            matched,
            run_done: None,
            system_stages,
            s_c_us,
        })
    }
}

/// Builds and solves the server model for compute time `x_us`, surrogate
/// client delay `c_d` µs and `hosts` host processors on the server node,
/// analyzing through `engine`.
pub(crate) fn solve_with_hosts_in(
    engine: &AnalysisEngine,
    arch: Architecture,
    n: u32,
    x_us: f64,
    c_d: f64,
    hosts: u32,
) -> Result<ServerSolution, ModelError> {
    let built = build(arch, n, x_us, c_d, hosts)?;
    let analysis = crate::analyze_in(engine, &built.net)?;
    let lambda = analysis.resource_usage("arrival")?;
    // Customers in system: queued requests + tokens between stages + all
    // in-progress service firings.
    let mut n_sys = analysis.mean_tokens(built.req_pending) + analysis.mean_tokens(built.matched);
    if let Some(p) = built.run_done {
        n_sys += analysis.mean_tokens(p);
    }
    for (exit, looped) in &built.system_stages {
        n_sys += analysis.transition_usage(*exit) + analysis.transition_usage(*looped);
    }
    Ok(ServerSolution {
        arrival_per_us: lambda,
        in_system: n_sys,
        s_d_us: n_sys / lambda,
        s_c_us: built.s_c_us,
        states: analysis.states(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(
        arch: Architecture,
        n: u32,
        x_us: f64,
        c_d: f64,
    ) -> Result<ServerSolution, ModelError> {
        solve_with_hosts_in(crate::default_engine(), arch, n, x_us, c_d, 1)
    }

    #[test]
    fn single_server_delay_is_service_chain() {
        // One conversation, enormous client delay: no queueing, so S_d is
        // just match + run + reply.
        let s = solve(Architecture::MessageCoprocessor, 1, 0.0, 50_000.0).unwrap();
        let loc = Locality::NonLocal;
        let expect = stage_mean(
            Architecture::MessageCoprocessor,
            loc,
            &[K::Match, K::RestartServer, K::SyscallReply, K::ProcessReply],
        );
        assert!(
            (s.s_d_us - expect).abs() / expect < 0.05,
            "S_d {} vs {}",
            s.s_d_us,
            expect
        );
    }

    #[test]
    fn queueing_grows_delay() {
        // Four conversations hammering the node: S_d inflates well past the
        // raw service chain.
        let light = solve(Architecture::MessageCoprocessor, 1, 0.0, 20_000.0).unwrap();
        let heavy = solve(Architecture::MessageCoprocessor, 4, 0.0, 1_000.0).unwrap();
        assert!(
            heavy.s_d_us > light.s_d_us * 1.2,
            "{} vs {}",
            heavy.s_d_us,
            light.s_d_us
        );
    }

    #[test]
    fn compute_time_extends_delay() {
        let no_x = solve(Architecture::SmartBus, 2, 0.0, 10_000.0).unwrap();
        let with_x = solve(Architecture::SmartBus, 2, 2_000.0, 10_000.0).unwrap();
        assert!(with_x.s_d_us > no_x.s_d_us + 1_000.0);
    }

    #[test]
    fn arch1_server_builds_and_solves() {
        let s = solve(Architecture::Uniprocessor, 2, 500.0, 8_000.0).unwrap();
        assert!(s.arrival_per_us > 0.0);
        assert!(s.in_system > 0.0);
        assert!(s.s_c_us > 0.0);
    }
}

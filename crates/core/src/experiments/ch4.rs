//! Chapter 4 — the software-partition implementation: Figure 4.6's
//! blocking-remote-invocation-send timeline, reconstructed from a traced
//! discrete-event run.

use archsim::{Architecture, Locality, Simulation, WorkloadSpec};

/// Figure 4.6 — the timeline of one blocking remote-invocation send across
/// two nodes: which processor does what, when.
pub(crate) fn fig_4_6() -> String {
    let spec = WorkloadSpec {
        conversations: 1,
        server_compute_us: 1_000.0,
        locality: Locality::NonLocal,
        horizon_us: 12_000.0,
        warmup_us: 0.0,
        seed: 1,
    };
    let (_, mut trace) = Simulation::new(Architecture::MessageCoprocessor, &spec).run_traced();
    trace.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    let mut out = String::from(
        "Figure 4.6 — Blocking Remote Invocation Send (Architecture II, one conversation)\n\
         node 0 = client node, node 1 = server node; times in µs\n\n",
    );
    out.push_str(&format!(
        "{:>9}  {:>9}  {:<6} {:<6} {}\n",
        "start", "end", "node", "proc", "activity"
    ));
    out.push_str(&"-".repeat(64));
    out.push('\n');
    for seg in trace.iter().take(20) {
        out.push_str(&format!(
            "{:>9.1}  {:>9.1}  {:<6} {:<6} {}\n",
            seg.start_us,
            seg.end_us,
            format!("node{}", seg.node),
            seg.processor,
            seg.label
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn figure_4_6_renders_the_scenario() {
        let t = super::fig_4_6();
        assert!(t.contains("SyscallSend"), "{t}");
        assert!(t.contains("ProcessSend"));
        assert!(t.contains("DMA out"));
        assert!(t.contains("Interrupt: Match"));
        assert!(t.contains("SyscallReply"));
    }
}

//! The GTPN engine as a standalone tool: build the paper's Architecture II
//! local model, inspect its structure (invariants, bounds, DOT export),
//! build and solve its reachability graph exactly, and cross-check with a
//! Monte-Carlo run carrying a confidence interval.
//!
//! Run with: `cargo run --release --example petri_tools`

use hsipc::gtpn::sim::{confidence_interval, SimOptions};
use hsipc::gtpn::{dot, invariant};
use hsipc::models::{self, local, Architecture};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = local::build(Architecture::MessageCoprocessor, 2, 1_140.0)?;
    println!(
        "net: {} ({} places, {} transitions)",
        net.name(),
        net.place_count(),
        net.transition_count()
    );

    // Structure: conservation laws.
    let basis = invariant::p_invariants(&net);
    println!("\nP-invariants ({}):", basis.len());
    for y in &basis {
        let terms: Vec<String> = y
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .map(|(i, &w)| {
                let name = net.place_name(hsipc::gtpn::PlaceId(i));
                if w == 1 {
                    name.to_string()
                } else {
                    format!("{w}·{name}")
                }
            })
            .collect();
        let conserved = invariant::weighted_tokens(&net.initial_marking(), y);
        println!("  {} = {conserved}", terms.join(" + "));
    }
    let t_basis = invariant::t_invariants(&net);
    println!("T-invariants: {} (the conversation cycles)", t_basis.len());

    // Structure of the raw reachability graph (bounds, liveness), built
    // and solved directly — the engine keeps measures, not chains.
    let graph = net.reachability(models::STATE_BUDGET)?;
    println!(
        "\nreachability: {} tangible states, {} edges",
        graph.state_count(),
        graph.edge_count()
    );
    let host = net.place_by_name("Host").expect("model has a Host place");
    println!(
        "Host place bound: {} (the processor token is almost always in use)",
        graph.place_bound(host)
    );
    let dead = graph.dead_transitions();
    println!(
        "dead transitions: {}",
        if dead.is_empty() {
            "none".into()
        } else {
            format!("{dead:?}")
        }
    );

    // Exact steady state of that graph.
    let solution = graph.solve(models::TOLERANCE, models::MAX_SWEEPS)?;
    let exact = solution.resource_usage("lambda")?;
    println!(
        "\nexact throughput: {:.6} conversations/µs ({:.4}/ms)",
        exact,
        exact * 1_000.0
    );
    println!(
        "solver: {} sweeps, residual {:.2e}",
        solution.iterations(),
        solution.residual()
    );

    // Monte-Carlo cross-check with a confidence interval.
    let mut rng = StdRng::seed_from_u64(2026);
    let ci = confidence_interval(
        &net,
        &SimOptions {
            horizon: 400_000,
            warmup: 40_000,
        },
        "lambda",
        6,
        &mut rng,
    )?;
    println!(
        "monte-carlo: {:.6} ± {:.6} ({})",
        ci.estimate,
        ci.half_width,
        if ci.contains(exact) {
            "covers the exact value"
        } else {
            "MISSES the exact value!"
        }
    );
    assert!(ci.contains(exact));

    // DOT export for visual inspection.
    let dot_text = dot::to_dot(&net);
    println!(
        "\nDOT export: {} lines; render with `dot -Tsvg`",
        dot_text.lines().count()
    );
    println!(
        "first lines:\n{}",
        dot_text.lines().take(5).collect::<Vec<_>>().join("\n")
    );
    Ok(())
}

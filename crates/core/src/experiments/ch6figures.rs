//! Chapter 6 figures: throughput series from the GTPN models and the
//! discrete-event "experiment".
//!
//! Every figure is a grid of independent model solves (or DES runs), so
//! each is expressed as a [`sweep`] grid: points are laid out in *paper
//! order* — the order rows appear in the rendered table — evaluated by
//! the sweep pool, and reassembled positionally. The rendered text is
//! byte-identical whether the grid runs sequentially or on a worker pool;
//! the `*_with` variants take an explicit worker count so the identity is
//! testable.

use super::render_table;
use archsim::timings::{Architecture, Locality};
use models::{
    local, nonlocal, offered, validation, AnalysisEngine, BackendSel, DesOptions, EngineConfig,
};
use sweep::Grid;

/// Conversation counts the paper plots (1–4; its tools could not go
/// further, §6.9.2).
const CONVERSATIONS: [u32; 4] = [1, 2, 3, 4];

/// Offered-load sweep (architecture-I axis) used by the realistic-workload
/// figures.
const LOAD_SWEEP: [f64; 7] = [0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4];

/// Figure 6.7 — the geometric approximation of a large constant delay
/// preserves mean throughput.
pub(crate) fn fig_6_7() -> String {
    use gtpn::{Net, Transition};
    let delay = 500u64;
    // Constant-delay net: a token cycles through one delay-500 transition.
    let mut constant = Net::new("constant");
    let p = constant.add_place("P", 1);
    constant
        .add_transition(
            Transition::new("T")
                .delay(delay)
                .resource("lambda")
                .input(p, 1)
                .output(p, 1),
        )
        .expect("place exists");
    // Tight-tolerance exact engine: both nets are tiny (≤ `delay` states).
    // Lumping stays off: the figure prints the constant-vs-geometric
    // relative difference, a quantity at solver-tolerance scale that the
    // (equally exact, differently rounded) quotient solve would perturb.
    let engine = AnalysisEngine::new(EngineConfig {
        backend: BackendSel::Exact,
        tolerance: 1e-12,
        max_sweeps: 100_000,
        state_budget: 1_000,
        des: DesOptions::default(),
        lump: gtpn::LumpSel::Off,
    });
    let exact = engine
        .analyze(&constant)
        .expect("constant net solves")
        .resource_rate("lambda")
        .expect("resource defined");

    // Geometric net with the same mean.
    let mut geo = Net::new("geometric");
    let p = geo.add_place("P", 1);
    gtpn::geometric::GeometricStage::new("T", delay as f64)
        .input(p, 1)
        .output(p, 1)
        .resource("lambda")
        .build(&mut geo)
        .expect("place exists");
    let approx = engine
        .analyze(&geo)
        .expect("geometric net solves")
        .resource_rate("lambda")
        .expect("resource defined");

    format!(
        "Figure 6.7 — Modeling Large Constant Delays\n\
         constant delay {delay}: throughput {exact:.6}/us\n\
         geometric mean {delay}: throughput {approx:.6}/us\n\
         relative difference {:.2e}\n",
        (exact - approx).abs() / exact
    )
}

/// Figure 6.15 — validation: GTPN model vs the discrete-event experiment,
/// architecture II non-local, 1–4 conversations at three compute levels.
pub(crate) fn fig_6_15() -> String {
    fig_6_15_with(sweep::threads())
}

/// [`fig_6_15`] with an explicit worker count.
pub(crate) fn fig_6_15_with(threads: usize) -> String {
    let mut points = Vec::new();
    for &n in &CONVERSATIONS {
        for (i, server_us) in [570.0, 2_850.0, 11_400.0].into_iter().enumerate() {
            points.push((n, i, server_us));
        }
    }
    let grid = Grid::new(points);
    let engine = models::default_engine();
    let rows = grid.eval_with(threads, |&(n, i, server_us)| {
        // Each DES replication seeds from its grid coordinates — never from
        // a shared RNG — so results are identical no matter which worker
        // runs the point or in what order.
        let seed = sweep::point_seed("fig6.15", &[u64::from(n), i as u64]);
        let p =
            validation::compare_in(engine, n, server_us, seed).expect("validation point solves");
        vec![
            n.to_string(),
            format!("{:.2}", server_us / 1_000.0),
            format!("{:.4}", p.model_per_ms),
            format!("{:.4}", p.measured_per_ms),
            format!(
                "{:+.1}%",
                100.0 * (p.model_per_ms - p.measured_per_ms) / p.measured_per_ms
            ),
        ]
    });
    render_table(
        "Figure 6.15 — Model Validation (Architecture II, non-local)",
        &["Conv", "Server (ms)", "Model (/ms)", "Measured (/ms)", "Δ"],
        &rows,
    )
}

/// One max-load or realistic-workload model solve: the slow kernel every
/// figure grid point runs.
fn solve_throughput(
    engine: &AnalysisEngine,
    arch: Architecture,
    locality: Locality,
    n: u32,
    server_us: f64,
) -> f64 {
    match locality {
        Locality::Local => {
            local::solve_in(engine, arch, n, server_us)
                .expect("local model solves")
                .throughput_per_ms
        }
        Locality::NonLocal => {
            nonlocal::solve_in(engine, arch, n, server_us)
                .expect("non-local model solves")
                .throughput_per_ms
        }
    }
}

fn max_load(threads: usize, archs: &[Architecture], locality: Locality, title: &str) -> String {
    let grid = sweep::cartesian(&CONVERSATIONS, archs);
    let engine = models::default_engine();
    let cells = grid.eval_with(threads, |&(n, arch)| {
        format!("{:.4}", solve_throughput(engine, arch, locality, n, 0.0))
    });
    let rows: Vec<Vec<String>> = CONVERSATIONS
        .iter()
        .zip(cells.chunks(archs.len()))
        .map(|(n, chunk)| {
            let mut row = vec![n.to_string()];
            row.extend_from_slice(chunk);
            row
        })
        .collect();
    let mut header: Vec<&str> = vec!["Conversations"];
    let labels: Vec<String> = archs
        .iter()
        .map(|a| format!("Arch {} (/ms)", a.label()))
        .collect();
    header.extend(labels.iter().map(String::as_str));
    render_table(title, &header, &rows)
}

fn realistic(threads: usize, archs: &[Architecture], locality: Locality, title: &str) -> String {
    let mut points = Vec::new();
    for &load in &LOAD_SWEEP {
        let server_us = offered::server_time_for_load_arch1(locality, load);
        for &n in &[1u32, 4] {
            for &arch in archs {
                points.push((load, server_us, n, arch));
            }
        }
    }
    let grid = Grid::new(points);
    let engine = models::default_engine();
    let cells = grid.eval_with(threads, |&(_, server_us, n, arch)| {
        format!(
            "{:.4}",
            solve_throughput(engine, arch, locality, n, server_us)
        )
    });
    let rows: Vec<Vec<String>> = grid
        .points()
        .chunks(archs.len())
        .zip(cells.chunks(archs.len()))
        .map(|(pts, chunk)| {
            let (load, _, n, _) = pts[0];
            let mut row = vec![format!("{load:.2}"), n.to_string()];
            row.extend_from_slice(chunk);
            row
        })
        .collect();
    let mut header: Vec<&str> = vec!["Load(I)", "Conv"];
    let labels: Vec<String> = archs
        .iter()
        .map(|a| format!("Arch {} (/ms)", a.label()))
        .collect();
    header.extend(labels.iter().map(String::as_str));
    render_table(title, &header, &rows)
}

const MAIN_THREE: [Architecture; 3] = [
    Architecture::Uniprocessor,
    Architecture::MessageCoprocessor,
    Architecture::SmartBus,
];
const THREE_FOUR: [Architecture; 2] = [Architecture::SmartBus, Architecture::PartitionedSmartBus];

/// Figure 6.17(a, b) — maximum communication load.
pub(crate) fn fig_6_17() -> String {
    fig_6_17_with(sweep::threads())
}

/// [`fig_6_17`] with an explicit worker count.
pub(crate) fn fig_6_17_with(threads: usize) -> String {
    let mut out = max_load(
        threads,
        &MAIN_THREE,
        Locality::Local,
        "Figure 6.17(a) — Maximum Communication Load (Local)",
    );
    out.push('\n');
    out.push_str(&max_load(
        threads,
        &MAIN_THREE,
        Locality::NonLocal,
        "Figure 6.17(b) — Maximum Communication Load (Non-local)",
    ));
    out
}

/// Figure 6.18 — realistic workload, local.
pub(crate) fn fig_6_18() -> String {
    fig_6_18_with(sweep::threads())
}

/// [`fig_6_18`] with an explicit worker count.
pub(crate) fn fig_6_18_with(threads: usize) -> String {
    realistic(
        threads,
        &MAIN_THREE,
        Locality::Local,
        "Figure 6.18 — Realistic Workload (Local)",
    )
}

/// Figure 6.19 — realistic workload, non-local.
pub(crate) fn fig_6_19() -> String {
    fig_6_19_with(sweep::threads())
}

/// [`fig_6_19`] with an explicit worker count.
pub(crate) fn fig_6_19_with(threads: usize) -> String {
    realistic(
        threads,
        &MAIN_THREE,
        Locality::NonLocal,
        "Figure 6.19 — Realistic Workload (Non-local)",
    )
}

/// Figure 6.20 — maximum load, III vs IV, local.
pub(crate) fn fig_6_20() -> String {
    fig_6_20_with(sweep::threads())
}

/// [`fig_6_20`] with an explicit worker count.
pub(crate) fn fig_6_20_with(threads: usize) -> String {
    max_load(
        threads,
        &THREE_FOUR,
        Locality::Local,
        "Figure 6.20 — Max Load (III & IV, Local)",
    )
}

/// Figure 6.21 — maximum load, III vs IV, non-local.
pub(crate) fn fig_6_21() -> String {
    fig_6_21_with(sweep::threads())
}

/// [`fig_6_21`] with an explicit worker count.
pub(crate) fn fig_6_21_with(threads: usize) -> String {
    max_load(
        threads,
        &THREE_FOUR,
        Locality::NonLocal,
        "Figure 6.21 — Max Load (III & IV, Non-local)",
    )
}

/// Figure 6.22 — realistic load, III vs IV, local.
pub(crate) fn fig_6_22() -> String {
    fig_6_22_with(sweep::threads())
}

/// [`fig_6_22`] with an explicit worker count.
pub(crate) fn fig_6_22_with(threads: usize) -> String {
    realistic(
        threads,
        &THREE_FOUR,
        Locality::Local,
        "Figure 6.22 — Realistic Load (III & IV, Local)",
    )
}

/// Figure 6.23 — realistic load, III vs IV, non-local.
pub(crate) fn fig_6_23() -> String {
    fig_6_23_with(sweep::threads())
}

/// [`fig_6_23`] with an explicit worker count.
pub(crate) fn fig_6_23_with(threads: usize) -> String {
    realistic(
        threads,
        &THREE_FOUR,
        Locality::NonLocal,
        "Figure 6.23 — Realistic Load (III & IV, Non-local)",
    )
}

/// Chapter 7 extension — a shared-memory multiprocessor node: one message
/// coprocessor serving 1–3 hosts (Figure 7.1's proposal), at a
/// computation-heavy load where extra hosts matter.
pub(crate) fn fig_7_1() -> String {
    fig_7_1_with(sweep::threads())
}

/// [`fig_7_1`] with an explicit worker count.
pub(crate) fn fig_7_1_with(threads: usize) -> String {
    let x = 5_700.0;
    let hosts_axis: [u32; 3] = [1, 2, 3];
    let conv_axis: [u32; 2] = [2, 4];
    let grid = sweep::cartesian(&hosts_axis, &conv_axis);
    let engine = models::default_engine();
    let cells = grid.eval_with(threads, |&(hosts, n)| {
        let t = local::solve_with_hosts_in(engine, Architecture::MessageCoprocessor, n, x, hosts)
            .expect("multi-host model solves");
        format!("{:.4}", t.throughput_per_ms)
    });
    let rows: Vec<Vec<String>> = hosts_axis
        .iter()
        .zip(cells.chunks(conv_axis.len()))
        .map(|(hosts, chunk)| {
            let mut row = vec![hosts.to_string()];
            row.extend_from_slice(chunk);
            row
        })
        .collect();
    render_table(
        "Chapter 7 extension — One MP serving multiple hosts (Arch II, local, S=5.7ms)",
        &["Hosts", "2 conv (/ms)", "4 conv (/ms)"],
        &rows,
    )
}

/// Chapter 7 scale-out — past the paper's n ≤ 4 ceiling (§6.9.2 notes the
/// GTPN tools could not go further). Exact lumping collapses the
/// permutation-symmetric client population to occupancy counts
/// ([`gtpn::lump`]), so the `auto` engine solves n = 8 and 16 exactly
/// within the chapter-6 two-million-state budget — the raw chains there
/// are billions of states. The curve saturates by n = 8; n = 32 is left
/// out, because its lumped chain (~10M states) is past the budget and a
/// DES estimate's interval is wider than the whole n = 8 → 16 step.
pub(crate) fn fig_7_scale() -> String {
    fig_7_scale_with(sweep::threads())
}

/// [`fig_7_scale`] with an explicit worker count.
pub(crate) fn fig_7_scale_with(threads: usize) -> String {
    let x = 5_700.0;
    // Lumping on: only the quotient chain brings n = 16 within budget.
    let engine = AnalysisEngine::new(EngineConfig {
        backend: BackendSel::Auto,
        tolerance: models::TOLERANCE,
        max_sweeps: models::MAX_SWEEPS,
        state_budget: models::STATE_BUDGET,
        des: DesOptions::default(),
        lump: gtpn::LumpSel::On,
    });
    let grid = Grid::new(vec![2u32, 4, 8, 16]);
    let rows = grid.eval_with(threads, |&n| {
        let t = local::solve_in(&engine, Architecture::MessageCoprocessor, n, x)
            .expect("scale point solves");
        vec![
            n.to_string(),
            format!("{:.4}", t.throughput_per_ms),
            t.backend.to_string(),
            t.half_width_per_ms
                .map_or_else(|| "-".to_string(), |hw| format!("{hw:.4}")),
        ]
    });
    render_table(
        "Chapter 7 scale-out — Arch II local beyond n=4 (auto backend, lumped exact, S=5.7ms)",
        &["Conv", "Throughput (/ms)", "Backend", "±95% (/ms)"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn geometric_approximation_exact_in_mean() {
        let t = super::fig_6_7();
        assert!(t.contains("relative difference"), "{t}");
    }

    #[test]
    fn max_load_local_orders_architectures() {
        let t = super::fig_6_17();
        assert!(t.contains("Maximum Communication Load (Local)"));
        assert!(t.contains("Non-local"));
    }
}

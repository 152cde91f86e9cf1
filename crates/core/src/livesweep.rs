//! # livesweep — saturation curves from a fleet of virtual-time live runs
//!
//! The paper's key figures (6.17–6.23) are *curves*: throughput swept over
//! offered load, conversations, and buffers, one line per architecture.
//! `repro live` executes exactly one configuration per invocation; this
//! module executes a whole grid — arch I–IV × server-compute X ×
//! conversations × buffers — as independent virtual-clock runs on the
//! [`sweep`] order-preserving worker pool, and renders the live curve next
//! to the matching GTPN model point with a relative error per point.
//!
//! Three properties carry over from the rest of the repository:
//!
//! * **Paper order.** The grid is rendered conversations-major, then
//!   buffers, then architecture, then offered load — the nested-loop order
//!   of the figures — no matter which worker finished first.
//! * **Byte determinism.** Every run is virtual-clock, so each point's
//!   measurements are a pure function of its configuration; model points
//!   come from the shared [`models::default_engine`]. The rendered text
//!   contains no wall-clock quantity, so repeated runs and
//!   `HSIPC_SWEEP=1` vs `8` produce identical bytes
//!   (`tests/live_sweep.rs` holds it to that).
//! * **One engine.** Model points evaluate through the shared
//!   [`gtpn::AnalysisEngine`], so workers share one solution cache exactly
//!   like `repro all`'s figure sweeps.
//!
//! The interesting regimes the solver cannot reach come out in the extra
//! columns: `stalls` (kernel-buffer shortage blocking, §3.2.3) explodes at
//! `buffers ≪ conversations`, `peak_q` (deepest inbound ring backlog)
//! shows a remote receiver falling behind, and the per-architecture knee
//! line locates the saturation point of each live curve.

use runtime::{Architecture, ClockMode, Config, Locality, RunReport};
use std::fmt::Write as _;
use std::time::Duration;

/// The grid one `repro live-sweep` invocation executes.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Architectures, in render order.
    pub archs: Vec<Architecture>,
    /// Offered-load points: server compute X per request, microseconds,
    /// in render order (the curve's x-axis).
    pub x_us: Vec<f64>,
    /// Conversations-per-node axis (outermost render loop).
    pub conversations: Vec<u32>,
    /// Kernel-buffers-per-node axis.
    pub buffers: Vec<u16>,
    /// Nodes per run.
    pub nodes: u32,
    /// Traffic locality of every run.
    pub locality: Locality,
    /// Virtual load-phase length of every run.
    pub duration: Duration,
    /// Activity-time scale factor.
    pub scale: f64,
}

impl SweepSpec {
    /// The default grid: one full fig6.17-style curve — all four
    /// architectures over eleven offered-load points spanning the §6.3
    /// workload (X = 1140 µs) from maximum communication load (X = 0) to
    /// deep into the compute-bound tail, at the model-validated n = 4
    /// local configuration.
    pub fn default_curve() -> SweepSpec {
        SweepSpec {
            archs: Architecture::ALL.to_vec(),
            x_us: vec![
                0.0, 285.0, 570.0, 855.0, 1_140.0, 1_425.0, 1_710.0, 2_280.0, 2_850.0, 4_275.0,
                5_700.0,
            ],
            conversations: vec![4],
            buffers: vec![32],
            nodes: 1,
            locality: Locality::Local,
            duration: Duration::from_millis(1_000),
            scale: 1.0,
        }
    }

    /// The grid points in paper order: conversations-major, then buffers,
    /// then architecture, then offered load.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(
            self.conversations.len() * self.buffers.len() * self.archs.len() * self.x_us.len(),
        );
        for &conversations in &self.conversations {
            for &buffers in &self.buffers {
                for &architecture in &self.archs {
                    for &x_us in &self.x_us {
                        points.push(SweepPoint {
                            architecture,
                            conversations,
                            buffers,
                            x_us,
                        });
                    }
                }
            }
        }
        points
    }

    /// Checks every point's run configuration ([`Config::validate`]), so a
    /// bad axis value is an error before any point runs.
    ///
    /// # Errors
    ///
    /// The first rejected point's message.
    pub fn validate(&self) -> Result<(), String> {
        self.points()
            .iter()
            .try_for_each(|point| self.config(point).validate())
    }

    /// The [`Config`] one point executes as. Always virtual-clock: the
    /// sweep's determinism contract (and its wall-clock budget) depends
    /// on it.
    fn config(&self, point: &SweepPoint) -> Config {
        let mut config = Config::new(point.architecture);
        config.nodes = self.nodes;
        config.conversations = point.conversations;
        config.server_compute_us = point.x_us;
        config.duration = self.duration;
        config.locality = self.locality;
        config.scale = self.scale;
        config.buffers = point.buffers;
        config.clock = ClockMode::Virtual;
        config
    }
}

/// One grid point: the coordinates that vary across the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Architecture executed.
    pub architecture: Architecture,
    /// Conversations per node.
    pub conversations: u32,
    /// Kernel buffers per node.
    pub buffers: u16,
    /// Server compute X, microseconds.
    pub x_us: f64,
}

/// One evaluated grid point: the live run next to its model point.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The grid coordinates.
    pub point: SweepPoint,
    /// The virtual live run's measurements.
    pub report: RunReport,
    /// The matching GTPN model throughput, conversations/ms per node
    /// (`None` when the model failed to solve at this point).
    pub model_per_ms: Option<f64>,
}

impl PointOutcome {
    /// Live throughput per node, conversations/ms — the unit the per-node
    /// model predicts.
    pub fn live_per_node_ms(&self, nodes: u32) -> f64 {
        self.report.throughput_per_ms / f64::from(nodes.max(1))
    }

    /// Signed relative error of the live measurement against the model,
    /// percent (`None` without a model point).
    pub fn rel_err_pct(&self, nodes: u32) -> Option<f64> {
        let model = self.model_per_ms?;
        if model <= 0.0 {
            return None;
        }
        Some((self.live_per_node_ms(nodes) - model) / model * 100.0)
    }
}

/// Everything one sweep produced.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The spec that ran.
    pub spec: SweepSpec,
    /// Per-point results, in paper order.
    pub outcomes: Vec<PointOutcome>,
    /// The deterministic text rendering (no wall-clock content).
    pub rendered: String,
    /// Total *virtual* seconds simulated across all runs.
    pub virtual_seconds: f64,
    /// Total wall seconds spent inside runs (≥ the sweep's wall time when
    /// workers overlap — the ratio is the fan-out win).
    pub run_wall_seconds: f64,
    /// Whether every run drained within its grace period.
    pub all_clean: bool,
    /// Whether every run completed at least one round trip.
    pub all_progressed: bool,
}

/// Runs the sweep with the environment's worker count (`HSIPC_SWEEP`).
pub fn run(spec: &SweepSpec) -> SweepOutcome {
    run_with(spec, sweep::threads())
}

/// Runs the sweep with an explicit worker count (1 is the sequential
/// path) — the testable core `tests/live_sweep.rs` drives for its byte-identity
/// checks.
pub fn run_with(spec: &SweepSpec, threads: usize) -> SweepOutcome {
    let grid = sweep::Grid::new(spec.points());
    let engine = models::default_engine();
    // Grid points fan out on the order-preserving pool; every worker
    // analyzes its model point through the shared engine (one solution
    // cache). The closure is deterministic, so `threads` only controls
    // fan-out, never the bytes.
    let outcomes = grid.eval_with(threads, |point| {
        let report = runtime::run(&spec.config(point));
        let model_per_ms = models::live_throughput_in(
            engine,
            point.architecture,
            spec.locality,
            point.conversations,
            point.x_us,
        )
        .ok();
        PointOutcome {
            point: *point,
            report,
            model_per_ms,
        }
    });

    let rendered = render(spec, &outcomes);
    let virtual_seconds = outcomes
        .iter()
        .map(|o| o.report.elapsed.as_secs_f64())
        .sum();
    let run_wall_seconds = outcomes.iter().map(|o| o.report.wall.as_secs_f64()).sum();
    let all_clean = outcomes.iter().all(|o| o.report.clean_shutdown);
    let all_progressed = outcomes.iter().all(|o| o.report.round_trips > 0);
    SweepOutcome {
        spec: spec.clone(),
        outcomes,
        rendered,
        virtual_seconds,
        run_wall_seconds,
        all_clean,
        all_progressed,
    }
}

/// The saturation knee of one `(X, throughput)` curve: the largest X whose
/// throughput stays within 2% of the curve's maximum — past it, added
/// compute time costs throughput one-for-one; before it, the architecture
/// is communication-bound and extra X is absorbed.
fn knee(curve: &[(f64, f64)]) -> Option<(f64, f64)> {
    let max = curve.iter().map(|&(_, t)| t).fold(0.0_f64, f64::max);
    if max <= 0.0 {
        return None;
    }
    curve.iter().rfind(|&&(_, t)| t >= 0.98 * max).copied()
}

/// Renders the sweep in paper order. Deterministic: live numbers are
/// virtual-clock, model numbers come from the solver, and no wall-clock
/// quantity appears.
fn render(spec: &SweepSpec, outcomes: &[PointOutcome]) -> String {
    let mut out = String::new();
    let arch_list = spec
        .archs
        .iter()
        .map(|a| a.label())
        .collect::<Vec<_>>()
        .join(",");
    let _ = writeln!(
        out,
        "live-sweep: arch {} x {} X-point(s), {} node(s), {} traffic, {} ms virtual load, scale {}",
        arch_list,
        spec.x_us.len(),
        spec.nodes,
        match spec.locality {
            Locality::Local => "local",
            Locality::NonLocal => "non-local",
        },
        spec.duration.as_millis(),
        spec.scale,
    );
    let mut index = 0;
    for &conversations in &spec.conversations {
        for &buffers in &spec.buffers {
            let _ = writeln!(
                out,
                "\nconversations {conversations}/node, buffers {buffers}:"
            );
            let _ = writeln!(
                out,
                "{:<5} {:>7} {:>11} {:>8} {:>9} {:>7} {:>10} {:>10} {:>7} {:>7}  shutdown",
                "arch",
                "X_us",
                "roundtrips",
                "live/ms",
                "model/ms",
                "err%",
                "p50_us",
                "p99_us",
                "stalls",
                "peak_q",
            );
            let mut knees: Vec<(Architecture, Option<(f64, f64)>)> = Vec::new();
            for &arch in &spec.archs {
                let mut curve: Vec<(f64, f64)> = Vec::with_capacity(spec.x_us.len());
                for &x_us in &spec.x_us {
                    let o = &outcomes[index];
                    index += 1;
                    debug_assert_eq!(o.point.architecture, arch);
                    debug_assert_eq!(o.point.x_us, x_us);
                    let live = o.live_per_node_ms(spec.nodes);
                    curve.push((x_us, live));
                    let model = o
                        .model_per_ms
                        .map_or_else(|| format!("{:>9}", "-"), |m| format!("{m:>9.4}"));
                    let err = o
                        .rel_err_pct(spec.nodes)
                        .map_or_else(|| format!("{:>7}", "-"), |e| format!("{e:>+7.1}"));
                    let _ = writeln!(
                        out,
                        "{:<5} {:>7.0} {:>11} {:>8.4} {} {} {:>10.1} {:>10.1} {:>7} {:>7}  {}",
                        arch.label(),
                        x_us,
                        o.report.round_trips,
                        live,
                        model,
                        err,
                        o.report.latency.p50_us,
                        o.report.latency.p99_us,
                        o.report.buffer_stalls,
                        o.report.peak_ring_queue,
                        if o.report.clean_shutdown {
                            "clean"
                        } else {
                            "UNCLEAN"
                        },
                    );
                }
                knees.push((arch, knee(&curve)));
            }
            for (arch, k) in knees {
                match k {
                    Some((x, t)) => {
                        let _ = writeln!(
                            out,
                            "knee {}: X = {:.0} us at {:.4}/ms (within 2% of curve max)",
                            arch.label(),
                            x,
                            t
                        );
                    }
                    None => {
                        let _ = writeln!(out, "knee {}: no throughput measured", arch.label());
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_in_paper_order() {
        let mut spec = SweepSpec::default_curve();
        spec.archs = vec![Architecture::Uniprocessor, Architecture::SmartBus];
        spec.x_us = vec![0.0, 1_140.0];
        spec.conversations = vec![4, 8];
        spec.buffers = vec![1, 32];
        let points = spec.points();
        assert_eq!(points.len(), 2 * 2 * 2 * 2);
        // Innermost axis: X. Then arch, then buffers, then conversations.
        assert_eq!(points[0].x_us, 0.0);
        assert_eq!(points[1].x_us, 1_140.0);
        assert_eq!(points[0].architecture, Architecture::Uniprocessor);
        assert_eq!(points[2].architecture, Architecture::SmartBus);
        assert_eq!(points[0].buffers, 1);
        assert_eq!(points[4].buffers, 32);
        assert_eq!(points[0].conversations, 4);
        assert_eq!(points[8].conversations, 8);
    }

    #[test]
    fn default_curve_meets_the_figure_shape() {
        let spec = SweepSpec::default_curve();
        assert!(spec.x_us.len() >= 10, "a full curve needs ≥ 10 load points");
        assert_eq!(spec.archs, Architecture::ALL.to_vec());
        assert!(spec.x_us.windows(2).all(|w| w[0] < w[1]), "X must ascend");
        assert!(spec.x_us.contains(&1_140.0), "the §6.3 workload point");
    }

    #[test]
    fn knee_finds_the_last_near_max_point() {
        // Flat then falling: the knee is the last flat point.
        let curve = [(0.0, 1.0), (100.0, 0.997), (200.0, 0.9), (300.0, 0.5)];
        assert_eq!(knee(&curve), Some((100.0, 0.997)));
        // Monotone falling from the start: the knee is the first point.
        let falling = [(0.0, 1.0), (100.0, 0.8), (200.0, 0.6)];
        assert_eq!(knee(&falling), Some((0.0, 1.0)));
        assert_eq!(knee(&[(0.0, 0.0)]), None);
        assert_eq!(knee(&[]), None);
    }
}

//! The live-sweep grid engine: byte determinism across runs and fan-out
//! settings, degenerate grids, and overload points.
//!
//! Everything here drives `hsipc::livesweep::run_with` with explicit
//! execution modes, so the assertions hold regardless of the `HSIPC_SWEEP`
//! the test process inherited. All runs are virtual-clock by construction
//! (the sweep accepts nothing else), so none of this measures wall time.

use hsipc::livesweep::{run_with, SweepSpec};
use hsipc::runtime::{Architecture, Locality};
use hsipc::sweep::ExecMode;
use std::time::Duration;

/// A grid small enough for CI but wide enough to exercise every render
/// axis: two architectures, two load points, two buffer depths.
fn small_spec() -> SweepSpec {
    let mut spec = SweepSpec::default_curve();
    spec.archs = vec![Architecture::Uniprocessor, Architecture::SmartBus];
    spec.x_us = vec![0.0, 1_140.0];
    spec.conversations = vec![4];
    spec.buffers = vec![2, 32];
    spec.duration = Duration::from_millis(100);
    spec
}

/// The tentpole determinism contract: the rendered sweep is a pure
/// function of the spec. Repeated sequential runs and a parallel run on
/// several workers must all produce the same bytes — fan-out changes
/// wall-clock only, and must not leak into the text.
#[test]
fn rendered_sweep_is_byte_identical_across_runs_and_fanout() {
    let spec = small_spec();
    let a = run_with(&spec, ExecMode::Sequential, 1);
    let b = run_with(&spec, ExecMode::Sequential, 1);
    assert!(a.all_clean && a.all_progressed, "sweep did not complete");
    assert_eq!(a.rendered, b.rendered, "repeated runs diverged");

    let par = run_with(&spec, ExecMode::Parallel, 8);
    assert_eq!(a.rendered, par.rendered, "worker fan-out leaked into text");

    // And the virtual measurements themselves are bit-equal point by point.
    for (s, p) in a.outcomes.iter().zip(par.outcomes.iter()) {
        assert_eq!(s.report.round_trips, p.report.round_trips);
        assert_eq!(
            s.report.latency.max_us.to_bits(),
            p.report.latency.max_us.to_bits()
        );
        assert_eq!(s.report.handoffs, p.report.handoffs);
    }
}

/// Every grid point carries a model point, and on the validated n = 4
/// local configuration live and model agree within the §6.7
/// cross-validation band.
#[test]
fn every_point_has_a_model_and_live_tracks_it() {
    let spec = small_spec();
    let outcome = run_with(&spec, ExecMode::Sequential, 1);
    assert_eq!(outcome.outcomes.len(), 2 * 2 * 2);
    for o in &outcome.outcomes {
        let model = o.model_per_ms.expect("model point failed to solve");
        assert!(model > 0.0);
        let err = o.rel_err_pct(spec.nodes).expect("no relative error");
        assert!(
            err.abs() < 25.0,
            "{} X={} buffers={}: live {:.4}/ms vs model {:.4}/ms ({err:+.1}%)",
            o.point.architecture.label(),
            o.point.x_us,
            o.point.buffers,
            o.live_per_node_ms(spec.nodes),
            model,
        );
    }
}

/// A degenerate one-point grid is still a sweep: one outcome, a header,
/// one row, one knee line.
#[test]
fn one_point_grid_renders_and_progresses() {
    let mut spec = SweepSpec::default_curve();
    spec.archs = vec![Architecture::MessageCoprocessor];
    spec.x_us = vec![1_140.0];
    spec.conversations = vec![4];
    spec.buffers = vec![32];
    spec.duration = Duration::from_millis(100);
    let outcome = run_with(&spec, ExecMode::Sequential, 1);
    assert_eq!(outcome.outcomes.len(), 1);
    assert!(outcome.all_clean && outcome.all_progressed);
    assert!(outcome.rendered.contains("knee II"), "missing knee line");
    assert_eq!(
        outcome
            .rendered
            .lines()
            .filter(|l| l.starts_with("II "))
            .count(),
        1,
        "expected exactly one measurement row"
    );
}

/// The buffer-shortage cascade the solver cannot model: one kernel buffer
/// under 32 conversations stalls nearly every send, and every overloaded
/// point must still drain cleanly and make progress.
#[test]
fn single_buffer_overload_points_drain_cleanly() {
    let mut spec = SweepSpec::default_curve();
    spec.archs = vec![Architecture::Uniprocessor, Architecture::SmartBus];
    spec.x_us = vec![0.0];
    spec.conversations = vec![32];
    spec.buffers = vec![1];
    spec.duration = Duration::from_millis(100);
    let outcome = run_with(&spec, ExecMode::Sequential, 1);
    assert!(outcome.all_clean, "overloaded sweep did not drain");
    assert!(outcome.all_progressed, "overloaded sweep made no progress");
    for o in &outcome.outcomes {
        assert!(
            o.report.buffer_stalls > 0,
            "{}: one buffer under 32 conversations never stalled",
            o.point.architecture.label(),
        );
    }
}

/// Remote grids exercise the ring: the peak inbound queue depth is
/// observable and the per-node normalization holds live near the model.
#[test]
fn remote_grid_reports_ring_backlog() {
    let mut spec = SweepSpec::default_curve();
    spec.archs = vec![Architecture::SmartBus];
    spec.x_us = vec![0.0];
    spec.conversations = vec![8];
    spec.buffers = vec![16];
    spec.nodes = 2;
    spec.locality = Locality::NonLocal;
    spec.duration = Duration::from_millis(100);
    let outcome = run_with(&spec, ExecMode::Sequential, 1);
    assert!(outcome.all_clean && outcome.all_progressed);
    let o = &outcome.outcomes[0];
    assert!(o.report.ring_frames > 0, "remote run moved no frames");
    assert!(
        o.report.peak_ring_queue > 0,
        "frames moved but the peak queue depth never rose"
    );
}

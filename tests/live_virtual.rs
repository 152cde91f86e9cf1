//! Virtual-clock live runtime: determinism, drain/halt edge cases, and
//! deadlock detection through the public API.
//!
//! These tests run under [`ClockMode::Virtual`], so none of them measure
//! wall-clock time — they are immune to machine load and safe to run in
//! parallel. The wall-clock-sensitive real-mode assertions stay alone in
//! `tests/live_runtime.rs` (a separate test binary) for exactly that
//! reason.

use hsipc::runtime::clock::{Actor, Bell, ClockMode, ClockSystem};
use hsipc::runtime::{Architecture, Config, Locality};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// The message a caught panic carried.
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

fn virtual_config(arch: Architecture) -> Config {
    let mut config = Config::new(arch);
    config.clock = ClockMode::Virtual;
    config
}

/// Same configuration twice ⇒ the same numbers, to the last bit. The
/// virtual scheduler's total order is a pure function of the config, so
/// every measured quantity must reproduce exactly — no tolerance.
#[test]
fn virtual_runs_are_deterministic() {
    let run = || {
        let mut config = virtual_config(Architecture::MessageCoprocessor);
        config.nodes = 2;
        config.conversations = 16;
        config.locality = Locality::NonLocal;
        config.duration = Duration::from_millis(200);
        hsipc::runtime::run(&config)
    };
    let (a, b) = (run(), run());
    assert!(
        a.clean_shutdown && b.clean_shutdown,
        "drain did not complete"
    );
    assert!(a.round_trips > 0, "no round trips completed");
    assert_eq!(a.round_trips, b.round_trips);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.ring_frames, b.ring_frames);
    assert_eq!(a.buffer_stalls, b.buffer_stalls);
    assert_eq!(a.throughput_per_ms.to_bits(), b.throughput_per_ms.to_bits());
    assert_eq!(a.latency.mean_us.to_bits(), b.latency.mean_us.to_bits());
    assert_eq!(a.latency.p50_us.to_bits(), b.latency.p50_us.to_bits());
    assert_eq!(a.latency.p95_us.to_bits(), b.latency.p95_us.to_bits());
    assert_eq!(a.latency.p99_us.to_bits(), b.latency.p99_us.to_bits());
    assert_eq!(a.latency.max_us.to_bits(), b.latency.max_us.to_bits());
    // Virtual occupancy is exact by construction: no overshoot ledger.
    assert!(a.overshoot.is_empty(), "virtual run recorded overshoot");
}

/// Arch III and IV produce bitwise-identical *virtual* measurements on
/// local traffic — and that identity is genuine, not a stats or seed
/// plumbing bug. The live runtime's cost model charges each activity its
/// no-contention `best_us()` (the virtual clock cannot express physical
/// memory-bank contention, which is the only thing Table 6.20's split
/// shared-access rows change), and archsim's
/// `arch_iv_shared_access_splits_match_arch_iii_totals` proves the III
/// and IV local tables agree activity-by-activity on exactly that
/// column. The architectures therefore *must* coincide here; they
/// separate in real-clock runs and in the GTPN models, where contention
/// exists. The arch II guard below proves the pipeline still
/// distinguishes architectures — the III = IV rows of `repro live
/// --clock virtual` are a property of virtual time, not a conflation.
#[test]
fn arch_iii_and_iv_virtual_local_runs_are_bitwise_identical() {
    let run = |arch| {
        let mut config = virtual_config(arch);
        config.conversations = 16;
        config.duration = Duration::from_millis(200);
        hsipc::runtime::run(&config)
    };
    let iii = run(Architecture::SmartBus);
    let iv = run(Architecture::PartitionedSmartBus);
    assert!(iii.clean_shutdown && iv.clean_shutdown);
    assert!(iii.round_trips > 0);
    assert_eq!(iii.round_trips, iv.round_trips);
    assert_eq!(iii.elapsed, iv.elapsed);
    assert_eq!(iii.buffer_stalls, iv.buffer_stalls);
    assert_eq!(
        iii.throughput_per_ms.to_bits(),
        iv.throughput_per_ms.to_bits()
    );
    assert_eq!(iii.latency.mean_us.to_bits(), iv.latency.mean_us.to_bits());
    assert_eq!(iii.latency.p50_us.to_bits(), iv.latency.p50_us.to_bits());
    assert_eq!(iii.latency.p99_us.to_bits(), iv.latency.p99_us.to_bits());
    assert_eq!(iii.latency.max_us.to_bits(), iv.latency.max_us.to_bits());
    // Guard: a genuinely different architecture must NOT coincide, or the
    // assertion above would also pass on a conflating stats pipeline.
    let ii = run(Architecture::MessageCoprocessor);
    assert_ne!(
        ii.latency.max_us.to_bits(),
        iii.latency.max_us.to_bits(),
        "arch II coincided with III — stats plumbing no longer distinguishes architectures"
    );
}

/// The schedule itself, pinned by constants: the virtual clock's grant
/// order is part of the contract (the benchmark checks these counts
/// exactly), so a change to the clock, the kernel or the node loops that
/// reorders even one handoff fails here, not in an argument about
/// equivalence. The latency quantiles are pinned to the bit as well: a
/// changed delivery order can keep every count and still move them. The
/// first two are the benchmark's `--quick` `deep` and `remote`.
#[test]
fn virtual_schedule_is_pinned_by_constants() {
    let run = |arch, nodes, conversations, buffers, locality, ms| {
        let mut config = virtual_config(arch);
        config.nodes = nodes;
        config.conversations = conversations;
        config.buffers = buffers;
        config.locality = locality;
        config.duration = Duration::from_millis(ms);
        let report = hsipc::runtime::run(&config);
        assert!(report.clean_shutdown, "{arch}: drain did not complete");
        (
            report.round_trips,
            report.handoffs,
            report.buffer_stalls,
            report.ring_frames,
            report.peak_ring_queue,
            report.elapsed.as_millis(),
            [
                report.latency.p50_us.to_bits(),
                report.latency.p99_us.to_bits(),
                report.latency.max_us.to_bits(),
            ],
        )
    };
    // Overloaded: 16 conversations on 8 buffers per node.
    assert_eq!(
        run(Architecture::SmartBus, 8, 16, 8, Locality::Local, 150),
        (
            512,
            6_914,
            64,
            0,
            0,
            199,
            [
                4_676_921_738_017_260_262,
                4_677_038_660_450_261_839,
                4_677_040_989_582_393_344
            ]
        )
    );
    assert_eq!(
        run(
            Architecture::MessageCoprocessor,
            4,
            8,
            64,
            Locality::NonLocal,
            1_000
        ),
        (
            544,
            10_448,
            0,
            1_088,
            8,
            1_023,
            [
                4_678_445_162_146_788_508,
                4_678_660_484_997_956_239,
                4_678_775_469_175_209_984
            ]
        )
    );
    // Zero-length load on Architecture I: one round trip per client.
    let (round_trips, handoffs, stalls, frames, peak, _, latency) =
        run(Architecture::Uniprocessor, 3, 5, 2, Locality::NonLocal, 0);
    assert_eq!(
        (round_trips, handoffs, stalls, frames, peak, latency),
        (
            15,
            214,
            0,
            30,
            5,
            [
                4_676_604_851_252_805_763,
                4_676_821_637_012_652_032,
                4_676_821_637_012_652_032
            ]
        )
    );
    // Many services per node on fewer buffers than conversations: 200
    // services per kernel, so every delivery runs against a long service
    // table, and the §3.2.3 shortage path parks sends throughout.
    assert_eq!(
        run(
            Architecture::PartitionedSmartBus,
            2,
            200,
            32,
            Locality::Local,
            1_000
        ),
        (
            800,
            11_438,
            336,
            0,
            0,
            1_239,
            [
                4_693_147_128_487_265_436,
                4_693_563_484_777_480_024,
                4_693_566_099_592_052_736
            ]
        )
    );
    // Non-local traffic on fewer buffers than conversations, where send
    // packets find every buffer held: the kernel parks them and replays
    // them from the buffer-release path. Architecture I, because it is the
    // one whose single loop polls the ring while servers still wait in the
    // host's queue; on II–IV the MP drains the communication list before
    // the port, so every server has posted its receive before a packet is
    // handled and no message ever queues.
    assert_eq!(
        run(
            Architecture::Uniprocessor,
            3,
            24,
            4,
            Locality::NonLocal,
            1_000
        ),
        (
            354,
            3_618,
            0,
            708,
            24,
            1_114,
            [
                4_686_880_091_986_624_279,
                4_688_986_478_081_470_366,
                4_689_041_196_926_894_080
            ]
        )
    );
    // Non-local traffic on the smart-memory architectures, so every
    // architecture's remote wake path is pinned: an MP blocked on its
    // bell resumes at the virtual time a packet reached its node.
    assert_eq!(
        run(Architecture::SmartBus, 4, 16, 8, Locality::NonLocal, 500),
        (
            384,
            7_504,
            0,
            768,
            16,
            579,
            [
                4_681_218_245_157_986_598,
                4_681_527_130_064_626_385,
                4_681_564_380_419_063_808
            ]
        )
    );
    assert_eq!(
        run(
            Architecture::PartitionedSmartBus,
            3,
            8,
            64,
            Locality::NonLocal,
            1_000
        ),
        (
            522,
            9_957,
            0,
            1_044,
            8,
            1_038,
            [
                4_676_712_659_447_059_501,
                4_676_967_024_213_513_266,
                4_677_098_164_187_037_696
            ]
        )
    );
}

/// A nonsensical fleet is a panic, not a hang: the run must refuse up
/// front rather than spawn a load generator with nothing to generate.
#[test]
fn zero_conversations_panics_instead_of_hanging() {
    let mut config = virtual_config(Architecture::Uniprocessor);
    config.conversations = 0;
    let err = catch_unwind(AssertUnwindSafe(|| hsipc::runtime::run(&config)))
        .expect_err("zero conversations must panic");
    let msg = panic_message(err);
    assert!(
        msg.contains("conversations must be at least 1"),
        "panic: {msg}"
    );
}

/// One kernel buffer shared by a whole fleet: every send but one parks on
/// the §3.2.3 shortage path, and the drain must still retire every client
/// — the starved sends unwind in conversation order as buffers free up.
#[test]
fn single_buffer_starvation_still_drains() {
    for arch in [Architecture::Uniprocessor, Architecture::SmartBus] {
        let mut config = virtual_config(arch);
        config.conversations = 32;
        config.buffers = 1;
        config.duration = Duration::from_millis(100);
        let report = hsipc::runtime::run(&config);
        assert!(
            report.clean_shutdown,
            "{arch}: starved drain did not complete"
        );
        assert!(report.round_trips > 0, "{arch}: no round trips completed");
        assert!(
            report.buffer_stalls > 0,
            "{arch}: one buffer under 32 conversations never stalled"
        );
    }
}

/// §3.2.3 packet parking, pinned: two nodes of eight non-local
/// conversations on four buffers each (`repro live --remote --nodes 2
/// --conversations 8 --buffers 4`). On Architecture I a receiving kernel
/// finds no free buffer eight times and parks the send packet until one
/// frees, while no send stalls.
#[test]
fn parked_packets_are_counted() {
    let mut config = virtual_config(Architecture::Uniprocessor);
    config.nodes = 2;
    config.conversations = 8;
    config.buffers = 4;
    config.locality = Locality::NonLocal;
    let report = hsipc::runtime::run(&config);
    assert!(report.clean_shutdown, "drain did not complete");
    assert_eq!((report.packets_parked, report.buffer_stalls), (8, 0));
}

/// A zero-length load phase goes straight to drain: clients stop after at
/// most one round trip and shutdown still completes.
#[test]
fn zero_duration_run_drains_immediately() {
    let mut config = virtual_config(Architecture::MessageCoprocessor);
    config.conversations = 8;
    config.duration = Duration::ZERO;
    let report = hsipc::runtime::run(&config);
    assert!(
        report.clean_shutdown,
        "zero-duration drain did not complete"
    );
}

/// A virtual clock that can never advance — every live actor blocked on a
/// bell nobody can ring — must error out, not hang. This exercises the
/// clock's poisoning path through the public API, the same detector that
/// turns a buggy drain into a diagnostic instead of a stuck process.
#[test]
fn never_advancing_clock_errors_instead_of_hanging() {
    let sys = ClockSystem::new(ClockMode::Virtual);
    let driver = sys.register();
    let bell = Bell::new(&sys);
    let waiters: Vec<_> = (0..3).map(|_| sys.register()).collect();
    // The driver retires without ringing: no executing actor remains, so
    // no ring can ever arrive and the frontier is permanently stuck.
    let mut actors: Vec<Actor<'_>> = vec![Box::pin(async { driver.retire() })];
    for h in &waiters {
        let bell = &bell;
        actors.push(Box::pin(async move {
            h.attach().await;
            let epoch = bell.epoch();
            h.wait_past(bell, epoch, Duration::from_secs(600)).await;
        }));
    }
    let err = catch_unwind(AssertUnwindSafe(|| sys.run_actors(actors)))
        .expect_err("a deadlocked clock must panic");
    let msg = panic_message(err);
    assert!(msg.contains("virtual clock deadlock"), "panic: {msg}");
}

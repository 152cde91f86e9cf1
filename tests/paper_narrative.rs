//! Cross-crate scenarios following the paper's own narrative, exercising
//! integration paths the per-crate suites do not: waveforms against engine
//! timing, non-blocking sends across nodes, and Architecture IV under the
//! discrete-event simulator.

use hsipc::archsim::{Architecture, Locality, Simulation, WorkloadSpec};
use hsipc::msgkernel::{
    Kernel, KernelEvent, Message, NodeId, SendMode, ServiceAddr, Syscall, TaskState,
};
use hsipc::smartbus::waveform::TimingDiagram;
use hsipc::smartbus::Command;

/// Waveform edge counts agree with the protocol engine's timing for every
/// non-streaming command: the figures and the simulator share one truth.
#[test]
fn waveforms_match_engine_edge_costs() {
    for c in Command::ALL {
        if c.is_streaming() {
            continue;
        }
        let art = TimingDiagram::for_command(c, 0).render();
        let label = match c.handshake_edges() {
            4 => "four-edge",
            8 => "eight-edge",
            other => panic!("unexpected handshake {other} for {c}"),
        };
        assert!(art.contains(label), "{c}: {art}");
    }
}

/// A non-blocking remote invocation across two nodes: the client keeps
/// computing while the request crosses the ring, and a later Wait picks up
/// the reply.
#[test]
fn non_blocking_send_across_nodes() {
    let mut a = Kernel::new(NodeId(0), 8);
    let mut b = Kernel::new(NodeId(1), 8);
    let client = a.create_task("client", 1, 64);
    let server = b.create_task("server", 1, 64);
    let svc = b.create_service("svc");
    b.submit(server, Syscall::Offer { service: svc }).unwrap();
    drain(&mut b);
    b.submit(server, Syscall::Receive).unwrap();
    drain(&mut b);

    a.submit(
        client,
        Syscall::Send {
            to: ServiceAddr {
                node: NodeId(1),
                service: svc,
            },
            message: Message::from_bytes(b"async"),
            mode: SendMode::RemoteInvocation { blocking: false },
        },
    )
    .unwrap();
    let packet = first_packet(drain(&mut a));
    // The client is still computing, not stopped.
    assert_eq!(a.task(client).unwrap().state, TaskState::Computing);

    b.handle_packet(packet).unwrap();
    b.submit(
        server,
        Syscall::Reply {
            message: Message::from_bytes(b"done"),
        },
    )
    .unwrap();
    let reply = first_packet(drain(&mut b));
    a.handle_packet(reply).unwrap();

    // Wait returns immediately with the response.
    a.submit(client, Syscall::Wait).unwrap();
    let events = drain(&mut a);
    assert!(events
        .iter()
        .any(|e| matches!(e, KernelEvent::WaitComplete { client: c } if *c == client)));
    assert_eq!(
        &a.task(client).unwrap().delivered.unwrap().data[..4],
        b"done"
    );
}

/// Architecture IV under the DES for non-local conversations — the one
/// (architecture, locality) cell no other test drives end to end.
#[test]
fn arch_iv_nonlocal_des_matches_arch_iii_shape() {
    let spec = WorkloadSpec {
        conversations: 2,
        server_compute_us: 1_140.0,
        locality: Locality::NonLocal,
        horizon_us: 3_000_000.0,
        warmup_us: 300_000.0,
        seed: 77,
    };
    let m3 = Simulation::new(Architecture::SmartBus, &spec).run();
    let m4 = Simulation::new(Architecture::PartitionedSmartBus, &spec).run();
    assert!(m4.throughput_per_ms > 0.0);
    let gain = m4.throughput_per_ms / m3.throughput_per_ms - 1.0;
    assert!(gain.abs() < 0.08, "IV vs III non-local gain {gain}");
    assert!(m4.mean_round_trip_us > 0.0);
}

/// Offered-load inversion and the DES agree: running the DES at the server
/// time computed for a target offered load yields utilization consistent
/// with that load for Architecture I (whose host does all the work).
#[test]
fn offered_load_matches_host_utilization() {
    let load = 0.6;
    let s = hsipc::models::offered::server_time_for_load_arch1(Locality::Local, load);
    let spec = WorkloadSpec {
        conversations: 1,
        server_compute_us: s,
        locality: Locality::Local,
        horizon_us: 4_000_000.0,
        warmup_us: 400_000.0,
        seed: 5,
    };
    let m = Simulation::new(Architecture::Uniprocessor, &spec).run();
    // One conversation on one host: the host is busy all the time (there is
    // always either communication or computation to do), and the fraction
    // of round-trip time that is communication is the offered load.
    assert!(m.host_utilization > 0.97, "host {}", m.host_utilization);
    let c =
        hsipc::archsim::timings::round_trip_us(Architecture::Uniprocessor, Locality::Local, false);
    let measured_load = c / m.mean_round_trip_us;
    assert!(
        (measured_load - load).abs() < 0.05,
        "measured load {measured_load} vs target {load}"
    );
}

fn drain(k: &mut Kernel) -> Vec<KernelEvent> {
    let mut events = Vec::new();
    while let Some(t) = k.next_communication() {
        events.extend(k.process(t).unwrap());
    }
    events
}

fn first_packet(events: Vec<KernelEvent>) -> hsipc::msgkernel::Packet {
    events
        .into_iter()
        .find_map(|e| match e {
            KernelEvent::PacketOut(p) => Some(p),
            _ => None,
        })
        .expect("a packet was emitted")
}

//! Cross-crate integration: the smart bus driving the smart memory, the
//! kernel over the token ring, and the experiment registry.

use hsipc::msgkernel::{Kernel, KernelEvent, Message, NodeId, SendMode, ServiceAddr, Syscall};
use hsipc::netsim::{RingNodeId, TokenRing};
use hsipc::smartbus::{BlockDirection, BusEngine, RequestNumber, Response, Transaction};
use hsipc::smartmem::{queue, SmartMemory};

/// The full hardware unit: host, MP and NIC sharing the smart memory over
/// the bus, cooperating on the paper's central data structures — a free
/// list of kernel buffers and the communication list.
#[test]
fn hardware_unit_runs_kernel_data_structures() {
    let mut bus = BusEngine::new(SmartMemory::new(32 * 1024), RequestNumber::new(0));
    let host = bus.add_unit("host", RequestNumber::new(3)).unwrap();
    let mp = bus.add_unit("mp", RequestNumber::new(5)).unwrap();
    let nic = bus.add_unit("nic", RequestNumber::new(6)).unwrap();

    const FREE_LIST: u16 = 0x10;
    const COMM_LIST: u16 = 0x12;

    // Startup: the host links four kernel buffers into the free list.
    for i in 0..4u16 {
        bus.submit(
            host,
            Transaction::Enqueue {
                list: FREE_LIST,
                element: 0x1000 + i * 64,
            },
        )
        .unwrap();
        bus.run_until_idle().unwrap();
    }

    // The MP takes a buffer, the NIC fills it with a packet, the MP links
    // the "TCB" (here: the buffer) onto the communication list.
    bus.submit(mp, Transaction::First { list: FREE_LIST })
        .unwrap();
    let done = bus.run_until_idle().unwrap();
    let buffer = match done[0].response {
        Response::Element(Some(b)) => b,
        ref other => panic!("expected a buffer, got {other:?}"),
    };
    assert_eq!(buffer, 0x1000);

    let payload: Vec<u16> = (0..20).map(|i| 0xA000 + i).collect();
    bus.submit(
        nic,
        Transaction::BlockTransfer {
            addr: buffer + 2, // past the link word
            count: 40,
            direction: BlockDirection::Write,
            data: payload.clone(),
        },
    )
    .unwrap();
    bus.submit(
        mp,
        Transaction::Enqueue {
            list: COMM_LIST,
            element: buffer,
        },
    )
    .unwrap();
    bus.run_until_idle().unwrap();

    // The host reads the message back out of the buffer it finds on the
    // communication list.
    bus.submit(host, Transaction::First { list: COMM_LIST })
        .unwrap();
    let done = bus.run_until_idle().unwrap();
    assert_eq!(done[0].response, Response::Element(Some(buffer)));
    bus.submit(
        host,
        Transaction::BlockTransfer {
            addr: buffer + 2,
            count: 40,
            direction: BlockDirection::Read,
            data: Vec::new(),
        },
    )
    .unwrap();
    let done = bus.run_until_idle().unwrap();
    assert_eq!(done[0].response, Response::Block(payload));

    // Free lists and the memory image stay consistent.
    let mem = bus.slave_mut().memory_mut();
    let free = queue::elements(mem, FREE_LIST).unwrap();
    assert_eq!(free, vec![0x1040, 0x1080, 0x10C0]);
    let comm = queue::elements(mem, COMM_LIST).unwrap();
    assert!(comm.is_empty());
}

/// Two kernels exchanging packets over the token ring: one send and one
/// reply packet per round trip, with wire latency accounted.
#[test]
fn kernels_over_token_ring() {
    let mut ring = TokenRing::default();
    ring.attach(RingNodeId(0));
    ring.attach(RingNodeId(1));
    let mut a = Kernel::new(NodeId(0), 8);
    let mut b = Kernel::new(NodeId(1), 8);

    let client = a.create_task("client", 1, 64);
    let server = b.create_task("server", 1, 64);
    let svc = b.create_service("svc");
    b.submit(server, Syscall::Offer { service: svc }).unwrap();
    drain(&mut b);
    b.submit(server, Syscall::Receive).unwrap();
    drain(&mut b);

    let mut now = 0u64;
    a.submit(
        client,
        Syscall::Send {
            to: ServiceAddr {
                node: NodeId(1),
                service: svc,
            },
            message: Message::from_bytes(b"over the ring"),
            mode: SendMode::invocation(),
        },
    )
    .unwrap();
    // The ring times each packet; the packet itself goes straight to the
    // destination kernel at its arrival time.
    let mut arrived = Vec::new();
    for e in drain(&mut a) {
        if let KernelEvent::PacketOut(p) = e {
            now = ring
                .transmit(now, RingNodeId(0), RingNodeId(1), 40)
                .unwrap();
            arrived.push(p);
        }
    }
    // 40-byte payload + 16-byte header at 4 Mb/s = 112 µs on the wire.
    assert_eq!(now, 112_000);
    for p in arrived.drain(..) {
        b.handle_packet(p).unwrap();
    }
    assert_eq!(
        &b.task(server).unwrap().delivered.unwrap().data[..13],
        b"over the ring"
    );

    b.submit(
        server,
        Syscall::Reply {
            message: Message::from_bytes(b"done"),
        },
    )
    .unwrap();
    for e in drain(&mut b) {
        if let KernelEvent::PacketOut(p) = e {
            now = ring
                .transmit(now, RingNodeId(1), RingNodeId(0), 40)
                .unwrap();
            arrived.push(p);
        }
    }
    for p in arrived.drain(..) {
        a.handle_packet(p).unwrap();
    }
    assert_eq!(
        &a.task(client).unwrap().delivered.unwrap().data[..4],
        b"done"
    );
    assert_eq!(ring.stats().frames, 2, "exactly two packets per round trip");
}

/// Every registered experiment id resolves; the quick ones produce output.
#[test]
fn experiment_registry_consistent() {
    let all = hsipc::experiments::all();
    assert!(all.len() >= 30);
    for e in &all {
        assert!(
            e.id.starts_with("table") || e.id.starts_with("fig"),
            "{}",
            e.id
        );
        assert!(!e.title.is_empty());
    }
    let out = hsipc::experiments::run("table6.1").unwrap();
    assert!(out.contains("Block Read (40 Bytes)"), "{out}");
}

fn drain(k: &mut Kernel) -> Vec<KernelEvent> {
    let mut events = Vec::new();
    while let Some(t) = k.next_communication() {
        events.extend(k.process(t).unwrap());
    }
    events
}

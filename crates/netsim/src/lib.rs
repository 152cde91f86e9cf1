//! # netsim — the inter-node network substrate
//!
//! The thesis's experimental 925 nodes are interconnected by a 4 Mb/s token
//! ring (similar to the IBM token ring), controlled by the message
//! coprocessor (§4.3). Its modeling assumptions (§4.6, §6.6.4) are:
//!
//! * the network is **reliable** — no checksums, acknowledgements,
//!   retransmissions or time-outs;
//! * packets **mirror IPC calls** — one `send` packet and one `reply`
//!   packet per round trip;
//! * the network is **not a bottleneck** — but interfaces still take real
//!   time, and packet arrival is an asynchronous event that raises an
//!   interrupt at the destination.
//!
//! [`TokenRing`] implements exactly this: a shared medium serializing
//! transmissions at a configured bit rate, delivering in order, reliably,
//! with per-packet wire latency derived from the frame size. The
//! architecture simulator layers DMA and interrupt-processing costs on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod live;

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a node on the ring (mirrors `msgkernel::NodeId`'s `u32`,
/// kept independent so this crate stands alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RingNodeId(pub u32);

impl fmt::Display for RingNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ring{}", self.0)
    }
}

/// A frame in flight: an opaque payload of `P` plus routing metadata.
#[derive(Debug, Clone)]
pub struct Frame<P> {
    /// Sender.
    pub from: RingNodeId,
    /// Destination.
    pub to: RingNodeId,
    /// Payload bytes on the wire (headers included).
    pub wire_bytes: u32,
    /// The payload object carried.
    pub payload: P,
}

/// A frame that has arrived and awaits pickup by the destination's network
/// interface.
#[derive(Debug, Clone)]
pub struct Delivery<P> {
    /// Arrival time, nanoseconds.
    pub at_ns: u64,
    /// The frame.
    pub frame: Frame<P>,
}

/// Errors from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The destination node was never attached.
    UnknownNode(RingNodeId),
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::UnknownNode(n) => write!(f, "unknown ring node {n}"),
        }
    }
}

impl std::error::Error for RingError {}

/// Ring statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Frames transmitted.
    pub frames: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Total time the medium was busy, nanoseconds.
    pub busy_ns: u64,
}

/// A reliable, serializing token ring.
#[derive(Debug)]
pub struct TokenRing<P> {
    bit_rate_bps: u64,
    header_bytes: u32,
    nodes: Vec<RingNodeId>,
    /// Time at which the medium becomes free.
    medium_free_ns: u64,
    in_flight: VecDeque<Delivery<P>>, // ordered by arrival time
    stats: RingStats,
}

/// The paper's ring: four megabits per second (§3.1, §4.3).
pub(crate) const DEFAULT_BIT_RATE: u64 = 4_000_000;

/// Frame header overhead (addresses, framing) in bytes.
pub(crate) const HEADER_BYTES: u32 = 16;

impl<P> TokenRing<P> {
    /// Creates a ring with the given bit rate.
    pub fn new(bit_rate_bps: u64) -> TokenRing<P> {
        assert!(bit_rate_bps > 0, "bit rate must be positive");
        TokenRing {
            bit_rate_bps,
            header_bytes: HEADER_BYTES,
            nodes: Vec::new(),
            medium_free_ns: 0,
            in_flight: VecDeque::new(),
            stats: RingStats::default(),
        }
    }

    /// Attaches a node to the ring.
    pub fn attach(&mut self, node: RingNodeId) {
        if !self.nodes.contains(&node) {
            self.nodes.push(node);
        }
    }

    /// Wire time for `payload_bytes` of payload (plus header), nanoseconds.
    pub fn transmission_ns(&self, payload_bytes: u32) -> u64 {
        let bits = u64::from(payload_bytes + self.header_bytes) * 8;
        bits * 1_000_000_000 / self.bit_rate_bps
    }

    /// Queues a frame for transmission at time `now_ns`; returns its
    /// arrival time. The medium is serialized: a busy ring delays the
    /// frame until the current transmission completes.
    ///
    /// # Errors
    ///
    /// [`RingError::UnknownNode`] if either endpoint is not attached.
    pub fn transmit(
        &mut self,
        now_ns: u64,
        from: RingNodeId,
        to: RingNodeId,
        payload_bytes: u32,
        payload: P,
    ) -> Result<u64, RingError> {
        for n in [from, to] {
            if !self.nodes.contains(&n) {
                return Err(RingError::UnknownNode(n));
            }
        }
        let start = now_ns.max(self.medium_free_ns);
        let tx = self.transmission_ns(payload_bytes);
        let arrive = start + tx;
        self.medium_free_ns = arrive;
        self.stats.frames += 1;
        self.stats.bytes += u64::from(payload_bytes);
        self.stats.busy_ns += tx;
        self.in_flight.push_back(Delivery {
            at_ns: arrive,
            frame: Frame {
                from,
                to,
                wire_bytes: payload_bytes + self.header_bytes,
                payload,
            },
        });
        Ok(arrive)
    }

    /// Removes and returns every frame that has arrived by `now_ns`.
    pub fn poll(&mut self, now_ns: u64) -> Vec<Delivery<P>> {
        let mut out = Vec::new();
        while matches!(self.in_flight.front(), Some(d) if d.at_ns <= now_ns) {
            out.push(self.in_flight.pop_front().expect("checked non-empty"));
        }
        out
    }

    /// Arrival time of the next frame, if any is in flight.
    pub fn next_arrival(&self) -> Option<u64> {
        self.in_flight.front().map(|d| d.at_ns)
    }

    /// Whether any frame is in flight.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Ring statistics.
    pub fn stats(&self) -> RingStats {
        self.stats
    }
}

impl<P> Default for TokenRing<P> {
    fn default() -> TokenRing<P> {
        TokenRing::new(DEFAULT_BIT_RATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> TokenRing<&'static str> {
        let mut r = TokenRing::default();
        r.attach(RingNodeId(0));
        r.attach(RingNodeId(1));
        r
    }

    #[test]
    fn wire_latency_at_4mbps() {
        let r = ring();
        // 40-byte message + 16-byte header = 56 bytes = 448 bits at 4 Mb/s
        // = 112 microseconds.
        assert_eq!(r.transmission_ns(40), 112_000);
    }

    #[test]
    fn transmit_and_poll() {
        let mut r = ring();
        let arrive = r
            .transmit(1_000, RingNodeId(0), RingNodeId(1), 40, "send")
            .unwrap();
        assert_eq!(arrive, 1_000 + 112_000);
        assert!(r.poll(arrive - 1).is_empty());
        let got = r.poll(arrive);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].frame.payload, "send");
        assert_eq!(got[0].frame.to, RingNodeId(1));
        assert!(r.idle());
    }

    #[test]
    fn medium_serializes_back_to_back_frames() {
        let mut r = ring();
        let a = r
            .transmit(0, RingNodeId(0), RingNodeId(1), 40, "a")
            .unwrap();
        let b = r
            .transmit(0, RingNodeId(1), RingNodeId(0), 40, "b")
            .unwrap();
        assert_eq!(b, a + 112_000, "second frame waits for the medium");
        assert_eq!(r.stats().frames, 2);
        assert_eq!(r.stats().busy_ns, 224_000);
    }

    #[test]
    fn in_order_delivery() {
        let mut r = ring();
        r.transmit(0, RingNodeId(0), RingNodeId(1), 40, "first")
            .unwrap();
        r.transmit(0, RingNodeId(0), RingNodeId(1), 40, "second")
            .unwrap();
        let got = r.poll(u64::MAX);
        assert_eq!(
            got.iter().map(|d| d.frame.payload).collect::<Vec<_>>(),
            ["first", "second"]
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let mut r = ring();
        let err = r
            .transmit(0, RingNodeId(0), RingNodeId(9), 40, "x")
            .unwrap_err();
        assert_eq!(err, RingError::UnknownNode(RingNodeId(9)));
    }

    #[test]
    fn next_arrival_tracks_head() {
        let mut r = ring();
        assert_eq!(r.next_arrival(), None);
        let a = r
            .transmit(0, RingNodeId(0), RingNodeId(1), 10, "x")
            .unwrap();
        assert_eq!(r.next_arrival(), Some(a));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bit_rate_rejected() {
        TokenRing::<()>::new(0);
    }
}

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
//! [`TokenRing`] is that medium alone: it serializes transmissions at a
//! configured bit rate and returns each frame's arrival time, its wire
//! latency derived from the frame size. It carries no payload — the
//! caller delivers the packet at that time, reliably and, since arrivals
//! follow transmit order, in order. [`live`] carries the live runtime's
//! frames over channels. Neither charges DMA or interrupt processing;
//! `archsim` and the live runtime do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod live;

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

/// A reliable, serializing token ring: the medium alone. It times each
/// frame and carries none; the caller delivers the payload at the arrival
/// time [`TokenRing::transmit`] returns, and arrivals follow transmit order.
#[derive(Debug)]
pub struct TokenRing {
    bit_rate_bps: u64,
    header_bytes: u32,
    nodes: Vec<RingNodeId>,
    /// Time at which the medium becomes free.
    medium_free_ns: u64,
    stats: RingStats,
}

/// The paper's ring: four megabits per second (§3.1, §4.3).
pub(crate) const DEFAULT_BIT_RATE: u64 = 4_000_000;

/// Frame header overhead (addresses, framing) in bytes.
pub(crate) const HEADER_BYTES: u32 = 16;

impl TokenRing {
    /// Creates a ring with the given bit rate.
    pub fn new(bit_rate_bps: u64) -> TokenRing {
        assert!(bit_rate_bps > 0, "bit rate must be positive");
        TokenRing {
            bit_rate_bps,
            header_bytes: HEADER_BYTES,
            nodes: Vec::new(),
            medium_free_ns: 0,
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

    /// Transmits a frame of `payload_bytes` at time `now_ns`; returns its
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
        Ok(arrive)
    }

    /// Ring statistics.
    pub fn stats(&self) -> RingStats {
        self.stats
    }
}

impl Default for TokenRing {
    fn default() -> TokenRing {
        TokenRing::new(DEFAULT_BIT_RATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> TokenRing {
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
    fn transmit_returns_the_arrival_time() {
        let mut r = ring();
        let arrive = r.transmit(1_000, RingNodeId(0), RingNodeId(1), 40).unwrap();
        assert_eq!(arrive, 1_000 + 112_000);
        assert_eq!(r.stats().bytes, 40);
    }

    #[test]
    fn medium_serializes_back_to_back_frames() {
        let mut r = ring();
        let a = r.transmit(0, RingNodeId(0), RingNodeId(1), 40).unwrap();
        let b = r.transmit(0, RingNodeId(1), RingNodeId(0), 40).unwrap();
        assert_eq!(b, a + 112_000, "second frame waits for the medium");
        assert_eq!(r.stats().frames, 2);
        assert_eq!(r.stats().busy_ns, 224_000);
    }

    #[test]
    fn unknown_node_rejected() {
        let mut r = ring();
        let err = r.transmit(0, RingNodeId(0), RingNodeId(9), 40).unwrap_err();
        assert_eq!(err, RingError::UnknownNode(RingNodeId(9)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bit_rate_rejected() {
        TokenRing::new(0);
    }
}

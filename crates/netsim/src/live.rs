//! A live, thread-backed stand-in for the token ring.
//!
//! [`TokenRing`](crate::TokenRing) models wire time inside the discrete-event
//! simulator; the live runtime instead needs a medium that real OS threads
//! can transmit on and poll concurrently. [`LiveRing`] keeps the same §4.6
//! assumptions — reliable, in-order per sender–receiver pair, one frame per
//! IPC call — but moves frames over `std::sync::mpsc` channels, one inbound
//! channel per attached node. The 4 Mb/s medium serialization is optional:
//! when a bit rate is configured, each transmit holds a medium lock for the
//! frame's wire time, so concurrent senders contend for the ring exactly as
//! they would for the token.

use crate::{Frame, RingNodeId, RingStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A per-node arrival callback: invoked on the *sender's* thread after a
/// frame is enqueued for that node.
type ArrivalNotifier = Box<dyn Fn() + Send + Sync>;

/// Shared transmit side of a [`LiveRing`]: clone one per thread.
pub struct LiveRing<P> {
    senders: Vec<Sender<Frame<P>>>,
    /// One optional arrival notifier per node, settable once before
    /// traffic starts (the receive-side interrupt line: a runtime hangs
    /// its doorbell ring here so a node blocked waiting for work wakes on
    /// a remote arrival instead of polling).
    notifiers: Arc<Vec<OnceLock<ArrivalNotifier>>>,
    /// `Some` when the medium serializes at a bit rate; the lock *is* the
    /// token — holding it for the frame's wire time makes concurrent
    /// senders queue behind each other.
    medium: Option<Arc<Mutex<()>>>,
    header_bytes: u32,
    bit_rate_bps: u64,
    frames: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    busy_ns: Arc<AtomicU64>,
    /// Frames currently enqueued per inbound channel (incremented before a
    /// transmit sends, decremented when the port receives).
    depths: Arc<Vec<AtomicU64>>,
    /// High-water mark of any single node's inbound queue — the overload
    /// signature of a buffer-shortage cascade (work arriving faster than
    /// the node drains it).
    peak_queued: Arc<AtomicU64>,
}

impl<P> std::fmt::Debug for LiveRing<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRing")
            .field("nodes", &self.senders.len())
            .field("bit_rate_bps", &self.bit_rate_bps)
            .finish_non_exhaustive()
    }
}

impl<P> Clone for LiveRing<P> {
    fn clone(&self) -> LiveRing<P> {
        LiveRing {
            senders: self.senders.clone(),
            notifiers: Arc::clone(&self.notifiers),
            medium: self.medium.clone(),
            header_bytes: self.header_bytes,
            bit_rate_bps: self.bit_rate_bps,
            frames: Arc::clone(&self.frames),
            bytes: Arc::clone(&self.bytes),
            busy_ns: Arc::clone(&self.busy_ns),
            depths: Arc::clone(&self.depths),
            peak_queued: Arc::clone(&self.peak_queued),
        }
    }
}

/// One node's receive side: the port owns the node's inbound channel.
#[derive(Debug)]
pub struct Port<P> {
    node: RingNodeId,
    rx: Receiver<Frame<P>>,
    depths: Arc<Vec<AtomicU64>>,
}

/// Builds a live ring for nodes `0..nodes`, returning the shared transmit
/// handle and one [`Port`] per node (index = node id).
///
/// `bit_rate_bps = 0` disables medium serialization (infinite-speed wire);
/// [`crate::DEFAULT_BIT_RATE`] reproduces the paper's 4 Mb/s ring.
pub fn live_ring<P>(nodes: u32, bit_rate_bps: u64) -> (LiveRing<P>, Vec<Port<P>>) {
    let depths: Arc<Vec<AtomicU64>> = Arc::new((0..nodes).map(|_| AtomicU64::new(0)).collect());
    let mut senders = Vec::with_capacity(nodes as usize);
    let mut ports = Vec::with_capacity(nodes as usize);
    for n in 0..nodes {
        let (tx, rx) = std::sync::mpsc::channel();
        senders.push(tx);
        ports.push(Port {
            node: RingNodeId(n),
            rx,
            depths: Arc::clone(&depths),
        });
    }
    let ring = LiveRing {
        notifiers: Arc::new((0..nodes).map(|_| OnceLock::new()).collect()),
        senders,
        medium: (bit_rate_bps > 0).then(|| Arc::new(Mutex::new(()))),
        header_bytes: crate::HEADER_BYTES,
        bit_rate_bps,
        frames: Arc::new(AtomicU64::new(0)),
        bytes: Arc::new(AtomicU64::new(0)),
        busy_ns: Arc::new(AtomicU64::new(0)),
        depths,
        peak_queued: Arc::new(AtomicU64::new(0)),
    };
    (ring, ports)
}

impl<P> LiveRing<P> {
    /// Installs `node`'s arrival notifier: called on the sender's thread
    /// after each frame destined for `node` is enqueued. Set once, before
    /// traffic starts; a second call for the same node is ignored.
    ///
    /// # Panics
    ///
    /// If `node` is not attached to the ring.
    pub fn set_arrival_notifier(
        &self,
        node: RingNodeId,
        notify: impl Fn() + Send + Sync + 'static,
    ) {
        let slot = self
            .notifiers
            .get(node.0 as usize)
            .expect("notifier target attached to the ring");
        let _ = slot.set(Box::new(notify));
    }

    /// Transmits a frame, blocking the calling thread for the frame's wire
    /// time while holding the medium (when serialization is enabled).
    ///
    /// # Errors
    ///
    /// [`crate::RingError::UnknownNode`] if `to` is not attached.
    pub fn transmit(
        &self,
        from: RingNodeId,
        to: RingNodeId,
        payload_bytes: u32,
        payload: P,
    ) -> Result<(), crate::RingError> {
        let tx = self
            .senders
            .get(to.0 as usize)
            .ok_or(crate::RingError::UnknownNode(to))?;
        if let Some(medium) = &self.medium {
            let bits = u64::from(payload_bytes + self.header_bytes) * 8;
            let wire_ns = bits * 1_000_000_000 / self.bit_rate_bps;
            let guard = medium.lock().expect("ring medium poisoned");
            let deadline = Instant::now() + Duration::from_nanos(wire_ns);
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
            drop(guard);
            self.busy_ns.fetch_add(wire_ns, Ordering::Relaxed);
        }
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(u64::from(payload_bytes), Ordering::Relaxed);
        // Count the frame before it becomes visible: a receiver on another
        // thread may take it the moment it is sent, and its decrement must
        // find the increment already there.
        let queued = &self.depths[to.0 as usize];
        let depth = queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_queued.fetch_max(depth, Ordering::Relaxed);
        let frame = Frame {
            from,
            to,
            wire_bytes: payload_bytes + self.header_bytes,
            payload,
        };
        // A receiver gone at shutdown is not an error: the ring is reliable
        // while both ends live (§4.6), and teardown drops ports first. The
        // frame never queued, so neither does its count.
        if tx.send(frame).is_err() {
            queued.fetch_sub(1, Ordering::Relaxed);
        }
        if let Some(notify) = self.notifiers[to.0 as usize].get() {
            notify();
        }
        Ok(())
    }

    /// Cumulative traffic statistics across all senders.
    pub fn stats(&self) -> RingStats {
        RingStats {
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// High-water mark of any single node's inbound frame queue since the
    /// ring was built — how far the slowest receiver fell behind its
    /// senders at the worst moment (0 on an idle or perfectly drained
    /// ring). Saturation shows up here before it shows up in latency.
    pub fn peak_queued(&self) -> u64 {
        self.peak_queued.load(Ordering::Relaxed)
    }
}

impl<P> Port<P> {
    /// The node this port belongs to.
    pub fn node(&self) -> RingNodeId {
        self.node
    }

    /// Non-blocking receive: the network-interface poll the MP performs on
    /// each scheduling pass.
    pub fn try_recv(&self) -> Option<Frame<P>> {
        let frame = self.rx.try_recv().ok()?;
        self.depths[self.node.0 as usize].fetch_sub(1, Ordering::Relaxed);
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_arrive_in_order_per_sender() {
        let (ring, mut ports) = live_ring::<u32>(2, 0);
        let p1 = ports.remove(1);
        for i in 0..10 {
            ring.transmit(RingNodeId(0), RingNodeId(1), 40, i).unwrap();
        }
        let got: Vec<u32> = std::iter::from_fn(|| p1.try_recv().map(|f| f.payload)).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(ring.stats().frames, 10);
        assert_eq!(ring.stats().bytes, 400);
    }

    #[test]
    fn arrival_notifier_fires_per_frame_to_its_node() {
        let (ring, _ports) = live_ring::<u8>(2, 0);
        let hits = Arc::new(AtomicU64::new(0));
        {
            let hits = Arc::clone(&hits);
            ring.set_arrival_notifier(RingNodeId(1), move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        ring.transmit(RingNodeId(0), RingNodeId(1), 4, 1).unwrap();
        ring.transmit(RingNodeId(0), RingNodeId(1), 4, 2).unwrap();
        ring.transmit(RingNodeId(1), RingNodeId(0), 4, 3).unwrap(); // node 0: no notifier
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        // A second install for the same node is ignored, not a panic.
        ring.set_arrival_notifier(RingNodeId(1), || {});
    }

    #[test]
    fn peak_queue_depth_tracks_the_deepest_backlog() {
        let (ring, mut ports) = live_ring::<u32>(2, 0);
        let p1 = ports.remove(1);
        assert_eq!(ring.peak_queued(), 0);
        for i in 0..5 {
            ring.transmit(RingNodeId(0), RingNodeId(1), 4, i).unwrap();
        }
        assert_eq!(ring.peak_queued(), 5);
        // Draining does not lower the high-water mark…
        while p1.try_recv().is_some() {}
        assert_eq!(ring.peak_queued(), 5);
        // …and a shallower second burst does not raise it.
        for i in 0..3 {
            ring.transmit(RingNodeId(0), RingNodeId(1), 4, i).unwrap();
        }
        assert_eq!(ring.peak_queued(), 5);
    }

    #[test]
    fn unknown_destination_rejected() {
        let (ring, _ports) = live_ring::<()>(2, 0);
        assert_eq!(
            ring.transmit(RingNodeId(0), RingNodeId(7), 1, ()),
            Err(crate::RingError::UnknownNode(RingNodeId(7)))
        );
    }

    #[test]
    fn serialized_medium_accounts_wire_time() {
        // 40 + 16 bytes at 4 Mb/s = 112 us per frame, matching TokenRing.
        let (ring, mut ports) = live_ring::<u8>(2, crate::DEFAULT_BIT_RATE);
        let p1 = ports.remove(1);
        let t0 = Instant::now();
        ring.transmit(RingNodeId(0), RingNodeId(1), 40, 7).unwrap();
        assert!(t0.elapsed() >= Duration::from_micros(112));
        assert_eq!(p1.try_recv().map(|f| f.payload), Some(7));
        assert_eq!(ring.stats().busy_ns, 112_000);
    }

    /// A receiver draining on its own thread races every transmit: it may
    /// take a frame the instant it is sent. The queue depth must never
    /// wrap below zero, so the high-water mark stays within the frames
    /// actually sent and the depth returns to zero once all are taken.
    #[test]
    fn concurrent_drain_never_underflows_the_depth() {
        const ROUNDS: u32 = 200;
        const BURST: u32 = 100;
        let (ring, mut ports) = live_ring::<u32>(2, 0);
        let p1 = ports.remove(1);
        let receiver = std::thread::spawn(move || {
            let mut got = 0;
            while got < ROUNDS * BURST {
                if p1.try_recv().is_some() {
                    got += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        for round in 0..ROUNDS {
            for i in 0..BURST {
                ring.transmit(RingNodeId(0), RingNodeId(1), 4, round * BURST + i)
                    .unwrap();
            }
            assert!(
                ring.peak_queued() <= u64::from((round + 1) * BURST),
                "peak {} after {} frames",
                ring.peak_queued(),
                (round + 1) * BURST
            );
        }
        receiver.join().unwrap();
        assert!(ring.peak_queued() <= u64::from(ROUNDS * BURST));
        assert_eq!(ring.depths[1].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        let (ring, mut ports) = live_ring::<u32>(3, 0);
        let p2 = ports.remove(2);
        let handles: Vec<_> = (0..2u32)
            .map(|s| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        ring.transmit(RingNodeId(s), RingNodeId(2), 40, s * 1000 + i)
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got: Vec<u32> = std::iter::from_fn(|| p2.try_recv().map(|f| f.payload)).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = (0..100).chain(1000..1100).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

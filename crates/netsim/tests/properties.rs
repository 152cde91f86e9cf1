//! Property-based tests of the token ring.

use netsim::{RingNodeId, TokenRing};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The medium serializes: frames never overlap, so arrivals strictly
    /// increase in transmit order, and total busy time equals the sum of
    /// wire times.
    #[test]
    fn medium_serialization_laws(
        frames in proptest::collection::vec((0u64..10_000, 1u32..2_000), 1..40),
    ) {
        let mut ring = TokenRing::default();
        ring.attach(RingNodeId(0));
        ring.attach(RingNodeId(1));
        let mut expected_busy = 0u64;
        let mut last_arrival = 0u64;
        for &(at, bytes) in &frames {
            let tx = ring.transmission_ns(bytes);
            expected_busy += tx;
            let arrive = ring.transmit(at, RingNodeId(0), RingNodeId(1), bytes).unwrap();
            // No overlap: each arrival is at least one wire time after the
            // later of (submission, previous arrival).
            prop_assert!(arrive >= at + tx);
            prop_assert!(arrive >= last_arrival + tx);
            last_arrival = arrive;
        }
        prop_assert_eq!(ring.stats().busy_ns, expected_busy);
    }

    /// Wire time is linear in frame size and inversely proportional to the
    /// bit rate.
    #[test]
    fn wire_time_scaling(bytes in 1u32..10_000, rate_mhz in 1u64..100) {
        let ring = TokenRing::new(rate_mhz * 1_000_000);
        let t1 = ring.transmission_ns(bytes);
        let t2 = ring.transmission_ns(bytes * 2);
        // Doubling payload less than doubles total time (header amortizes)
        // but strictly increases it.
        prop_assert!(t2 > t1);
        prop_assert!(t2 <= 2 * t1);
        // Rate scaling: 2x the bit rate, at most half (+1 rounding) the time.
        let fast = TokenRing::new(rate_mhz * 2_000_000);
        prop_assert!(fast.transmission_ns(bytes) <= t1 / 2 + 1);
    }
}

//! Bus timing calibration (§6.4).
//!
//! The paper's experimental numbers come from an 8 MHz Motorola 68000 on a
//! 16-bit Versabus whose memory cycle averages one microsecond. The models
//! conservatively equate a four-edge smart bus handshake with one Versabus
//! memory cycle and a two-edge streaming transfer with half of one.

/// Duration of a single handshake edge, in nanoseconds (250 ns, so that a
/// four-edge handshake equals the 1 µs Versabus memory cycle).
pub(crate) const EDGE_NS: u64 = 250;

/// Converts a number of handshake edges to nanoseconds.
pub(crate) fn edges_to_ns(edges: u32) -> u64 {
    u64::from(edges) * EDGE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_edges_equal_versabus_cycle() {
        // The mean Versabus memory cycle is 1 µs; a two-edge streaming
        // transfer is half of one.
        assert_eq!(edges_to_ns(4), 1_000);
        assert_eq!(edges_to_ns(2) * 2, edges_to_ns(4));
    }

    #[test]
    fn forty_byte_block_matches_table_6_1() {
        // Table 6.1, architecture III: one four-edge request followed by
        // twenty two-edge transfers = 11 µs spent in memory cycles.
        let words = 40 / 2;
        let total = edges_to_ns(4) + words * edges_to_ns(2);
        assert_eq!(total, 11_000);
    }
}

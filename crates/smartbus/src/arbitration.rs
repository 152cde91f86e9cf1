//! Distributed bus arbitration (§5.4, after Taub).
//!
//! Each unit owns a unique three-bit *bus request number* `br0–br2` (`br0`
//! most significant). To contend, a unit drives the wired-or lines `BR0–BR2`
//! according to the recurrence
//!
//! ```text
//! OK_0 = 1
//! OK_i = (!BR_{i-1} | br_{i-1}) & OK_{i-1}     (i ≠ 0)
//! BR_i = OK_i & br_i
//! ```
//!
//! (Figure 5.17). A unit drops its lower-order bits as soon as it sees a
//! higher-order line asserted that it cannot match; after the lines settle,
//! the unit whose number equals the value on the bus has won. This module
//! simulates the asynchronous settling of the circuit gate-by-gate and also
//! implements the §5.4 protocol rules (arbitration overlapped with the
//! information cycle, master-retains-bus, master re-arbitrates when idle).

use std::fmt;

/// A three-bit bus request number; higher values have higher priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestNumber(u8);

impl RequestNumber {
    /// Creates a request number.
    ///
    /// # Panics
    ///
    /// Panics if `value > 7` — the bus has three request lines.
    pub fn new(value: u8) -> RequestNumber {
        assert!(value <= 7, "bus request numbers are three bits (0-7)");
        RequestNumber(value)
    }

    /// The raw 3-bit value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Bit `i` with `br0` the most significant (paper convention).
    pub(crate) fn bit(self, i: usize) -> bool {
        debug_assert!(i < 3);
        (self.0 >> (2 - i)) & 1 == 1
    }
}

impl fmt::Display for RequestNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "br{:03b}", self.0)
    }
}

/// The distributed arbitration circuit.
#[derive(Debug, Clone, Default)]
pub struct Arbiter;

impl Arbiter {
    /// Creates an arbiter.
    pub fn new() -> Arbiter {
        Arbiter
    }

    /// Resolves one arbitration cycle among `contenders`, simulating the
    /// wired-or settling of Taub's circuit. Returns the index (into
    /// `contenders`) of the winner, or `None` when nobody contends.
    ///
    /// The circuit is evaluated to a fixed point: each pass recomputes every
    /// contender's `OK`/`BR` outputs from the current wired-or line state,
    /// exactly as the asynchronous hardware settles. Three passes suffice
    /// for three bit positions; we iterate until stable for clarity.
    pub fn resolve(&self, contenders: &[RequestNumber]) -> Option<usize> {
        if contenders.is_empty() {
            return None;
        }
        // Wired-or lines BR0-BR2: true = asserted.
        let mut lines = [false; 3];
        loop {
            let mut next = [false; 3];
            for &c in contenders {
                let mut ok = true; // OK_0 = 1
                for i in 0..3 {
                    if i > 0 {
                        // OK_i = (!BR_{i-1} | br_{i-1}) & OK_{i-1}
                        ok = (!lines[i - 1] || c.bit(i - 1)) && ok;
                    }
                    // BR_i = OK_i & br_i, wired-or across contenders.
                    if ok && c.bit(i) {
                        next[i] = true;
                    }
                }
            }
            if next == lines {
                break;
            }
            lines = next;
        }
        let settled = (u8::from(lines[0]) << 2) | (u8::from(lines[1]) << 1) | u8::from(lines[2]);
        contenders.iter().position(|c| c.value() == settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_number_wins() {
        let arb = Arbiter::new();
        let cs = [
            RequestNumber::new(3),
            RequestNumber::new(6),
            RequestNumber::new(5),
        ];
        assert_eq!(arb.resolve(&cs), Some(1));
    }

    #[test]
    fn single_contender_wins() {
        let arb = Arbiter::new();
        assert_eq!(arb.resolve(&[RequestNumber::new(0)]), Some(0));
    }

    #[test]
    fn empty_contention_is_none() {
        assert_eq!(Arbiter::new().resolve(&[]), None);
    }

    #[test]
    fn all_pairs_resolve_to_max() {
        let arb = Arbiter::new();
        for a in 0..8u8 {
            for b in 0..8u8 {
                if a == b {
                    continue;
                }
                let cs = [RequestNumber::new(a), RequestNumber::new(b)];
                let winner = arb.resolve(&cs).unwrap();
                assert_eq!(cs[winner].value(), a.max(b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn retained_when_current_master_highest() {
        // §5.4 rule 3: the current master (last) out-numbers the others and
        // keeps the bus.
        let cs = [2, 5, 7].map(RequestNumber::new);
        assert_eq!(Arbiter::new().resolve(&cs), Some(2));
    }

    #[test]
    fn preempted_by_higher_priority() {
        // Rule 2: a higher-numbered contender takes the bus from the master.
        let cs = [6, 2].map(RequestNumber::new);
        assert_eq!(Arbiter::new().resolve(&cs), Some(0));
    }

    #[test]
    fn idle_when_no_requests() {
        // Rule 4: with no requests nobody wins; the master stays responsible
        // for the next cycle.
        assert_eq!(Arbiter::new().resolve(&[]), None);
    }

    #[test]
    fn bit_order_msb_first() {
        let n = RequestNumber::new(0b100);
        assert!(n.bit(0));
        assert!(!n.bit(1));
        assert!(!n.bit(2));
    }

    #[test]
    #[should_panic(expected = "three bits")]
    fn rejects_wide_numbers() {
        RequestNumber::new(8);
    }
}

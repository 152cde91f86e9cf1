//! Tangible states as the reference kernels in [`crate::reach::reference`]
//! and [`crate::lump`]'s tests key them: one allocation per state, the
//! layout the flat pipeline replaced.

use crate::net::TransId;

/// A marking: number of tokens in each place, indexed by `PlaceId`.
pub(crate) type Marking = Vec<u32>;

/// A tangible state of the timed net: a marking together with the multiset
/// of in-progress firings and their remaining durations.
///
/// Tokens consumed by an in-progress firing are *not* in the marking — GTPN
/// firing removes enabling tokens at start-of-firing and deposits output
/// tokens at end-of-firing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct State {
    /// Tokens per place.
    pub(crate) marking: Marking,
    /// In-progress firings `(transition, remaining time)`, kept sorted so the
    /// representation is canonical and hashable.
    pub(crate) firings: Vec<(TransId, u64)>,
}

impl State {
    /// Creates a state, canonicalizing the firing list.
    pub(crate) fn new(marking: Marking, mut firings: Vec<(TransId, u64)>) -> State {
        firings.sort_unstable();
        State { marking, firings }
    }

    /// The remaining time until the next firing completes, or `None` when no
    /// firing is in progress (a potential deadlock).
    pub(crate) fn time_to_next_completion(&self) -> Option<u64> {
        self.firings.iter().map(|&(_, r)| r).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firings_canonicalized() {
        let a = State::new(vec![1], vec![(TransId(2), 5), (TransId(0), 3)]);
        let b = State::new(vec![1], vec![(TransId(0), 3), (TransId(2), 5)]);
        assert_eq!(a, b);
    }

    #[test]
    fn next_completion_is_min() {
        let s = State::new(vec![], vec![(TransId(0), 3), (TransId(1), 7)]);
        assert_eq!(s.time_to_next_completion(), Some(3));
        let empty = State::new(vec![], vec![]);
        assert_eq!(empty.time_to_next_completion(), None);
    }
}

//! The kernel's task-scheduling lists.
//!
//! The kernel keeps two lists of task control blocks — the computation list
//! and the communication list (Figures 4.4/4.5). Inside the kernel both are
//! in-process [`PriorityList`]s; the live runtime keeps its shared-memory
//! lists in `smartmem` and moves tasks between those and the kernel's.

use crate::task::TaskId;
use std::collections::VecDeque;

/// A task-control-block list ordered by §4.4 priority ("the lists are
/// ordered by task scheduling priority", FCFS among equals): a deque of
/// `(task, priority)` pairs.
#[derive(Debug, Default)]
pub(crate) struct PriorityList {
    entries: VecDeque<(TaskId, u8)>,
    /// Set once a head insert breaks the non-increasing priority order;
    /// cleared when the list empties.
    disordered: bool,
}

impl PriorityList {
    /// Priority-ordered insert: before the first strictly-lower-priority
    /// entry, after all equals. While the list is in priority order that
    /// entry is found by binary search (a tail append when every priority
    /// is equal); otherwise by a front-to-back scan.
    pub(crate) fn insert_by_priority(&mut self, task: TaskId, priority: u8) {
        let pos = if self.disordered {
            self.entries
                .iter()
                .position(|&(_, p)| p < priority)
                .unwrap_or(self.entries.len())
        } else {
            self.entries.partition_point(|&(_, p)| p >= priority)
        };
        self.entries.insert(pos, (task, priority));
    }

    /// Head insert — the buffer-shortage retry path, which must run before
    /// new work (§3.2.3).
    pub(crate) fn push_front(&mut self, task: TaskId, priority: u8) {
        if self.entries.front().is_some_and(|&(_, p)| p > priority) {
            self.disordered = true;
        }
        self.entries.push_front((task, priority));
    }

    /// Removes and returns the head, if any.
    pub(crate) fn pop_front(&mut self) -> Option<TaskId> {
        let head = self.entries.pop_front().map(|(t, _)| t);
        self.disordered &= !self.entries.is_empty();
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_insert_is_fcfs_among_equals() {
        let mut l = PriorityList::default();
        l.insert_by_priority(TaskId(0), 1);
        l.insert_by_priority(TaskId(1), 1);
        l.insert_by_priority(TaskId(2), 5);
        l.insert_by_priority(TaskId(3), 5);
        l.insert_by_priority(TaskId(4), 3);
        let got: Vec<TaskId> = std::iter::from_fn(|| l.pop_front()).collect();
        assert_eq!(
            got,
            vec![TaskId(2), TaskId(3), TaskId(4), TaskId(0), TaskId(1)]
        );
    }

    #[test]
    fn push_front_jumps_the_queue() {
        let mut l = PriorityList::default();
        l.insert_by_priority(TaskId(0), 9);
        l.push_front(TaskId(1), 1);
        assert_eq!(l.pop_front(), Some(TaskId(1)));
    }

    /// The binary-search insert lands exactly where the front-to-back scan
    /// does, through histories that break and restore the priority order.
    #[test]
    fn insert_matches_the_front_to_back_scan() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut list = PriorityList::default();
        let mut reference: VecDeque<(TaskId, u8)> = VecDeque::new();
        for step in 0..20_000u32 {
            let (task, priority) = (TaskId(step), next(4) as u8);
            match next(10) {
                0..=3 => {
                    list.insert_by_priority(task, priority);
                    let pos = reference
                        .iter()
                        .position(|&(_, p)| p < priority)
                        .unwrap_or(reference.len());
                    reference.insert(pos, (task, priority));
                }
                4 => {
                    list.push_front(task, priority);
                    reference.push_front((task, priority));
                }
                _ => assert_eq!(list.pop_front(), reference.pop_front().map(|(t, _)| t)),
            }
            assert!(list.entries.iter().eq(reference.iter()), "step {step}");
        }
    }
}

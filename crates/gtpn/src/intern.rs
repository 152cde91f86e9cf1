//! A hash index over keys stored elsewhere.
//!
//! Reachability builds intern millions of markings. The markings themselves
//! live once, in the graph's own arena; this table holds only `u32` entry
//! numbers and finds one by a caller-supplied hash and equality test against
//! that storage. The hash is multiplicative ([`hash_words`]) — the keys are
//! the program's own state vectors, not outside input, so there is no
//! collision attack to defend against. The table is looked up, never
//! iterated: its internal order cannot leak into state numbering.

/// Odd 64-bit multiplier (2⁶⁴ / φ), the usual Fibonacci-hashing constant.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds `words` into `seed`.
pub(crate) fn hash_words(seed: u64, words: &[u32]) -> u64 {
    words.iter().fold(seed, |h, &w| {
        (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(K)
    })
}

/// Open-addressing (linear probing) index; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct IndexTable {
    /// `(hash as u32) << 32 | entry + 1` per occupied slot, 0 when empty.
    /// The length is a power of two, at most half full.
    slots: Vec<u64>,
    len: usize,
}

impl IndexTable {
    pub(crate) fn new() -> IndexTable {
        IndexTable {
            slots: vec![0; 16],
            len: 0,
        }
    }

    /// Empties the table, keeping its allocation.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(0);
        self.len = 0;
    }

    /// The slot a probe for `hash` starts at: the top bits, where a
    /// multiplicative hash mixes best.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The entry with this `hash` that `eq` accepts, if any.
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let tag = hash << 32;
        let mut at = self.home(hash);
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return None;
            }
            if slot & !0xFFFF_FFFF == tag {
                let entry = (slot & 0xFFFF_FFFF) as usize - 1;
                if eq(entry) {
                    return Some(entry);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Adds `entry` (not yet present, below `u32::MAX`) under `hash`;
    /// `rehash` recomputes the hash of an existing entry when the table
    /// doubles.
    pub(crate) fn insert(&mut self, hash: u64, entry: usize, rehash: impl Fn(usize) -> u64) {
        if 2 * (self.len + 1) > self.slots.len() {
            let doubled = vec![0; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, doubled);
            for slot in old.into_iter().filter(|&s| s != 0) {
                let e = (slot & 0xFFFF_FFFF) as usize - 1;
                self.place(rehash(e), e);
            }
        }
        self.place(hash, entry);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, entry: usize) {
        let packed = u32::try_from(entry + 1).expect("entry number fits 32 bits");
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = hash << 32 | u64::from(packed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interning through the table agrees with a `HashMap` on which keys
    /// are new, across several doublings and with colliding hashes.
    #[test]
    fn finds_what_was_inserted_across_growth() {
        let mut keys: Vec<[u32; 3]> = Vec::new();
        let mut table = IndexTable::new();
        let mut reference = std::collections::HashMap::new();
        // Every hash shares its low and top bits with many others.
        let weak = |k: &[u32; 3]| hash_words(0, &k[..1]);
        for i in 0..5_000u32 {
            let key = [i % 7, i % 1_013, i / 3];
            let found = table.find(weak(&key), |e| keys[e] == key);
            assert_eq!(found, reference.get(&key).copied(), "key {key:?}");
            if found.is_none() {
                reference.insert(key, keys.len());
                keys.push(key);
                table.insert(weak(&key), keys.len() - 1, |e| weak(&keys[e]));
            }
        }
        assert_eq!(table.len, keys.len());
        table.clear();
        assert_eq!(table.find(weak(&keys[0]), |_| true), None);
    }

    #[test]
    fn hash_depends_on_every_word_and_on_order() {
        let a = hash_words(0, &[1, 2, 3]);
        assert_ne!(a, hash_words(0, &[1, 2, 4]));
        assert_ne!(a, hash_words(0, &[2, 1, 3]));
        assert_ne!(a, hash_words(0, &[1, 2, 3, 0]));
        assert_eq!(a, hash_words(hash_words(0, &[1]), &[2, 3]));
    }
}

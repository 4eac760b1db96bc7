//! The open-addressed digest index behind the packed visited set.
//!
//! PR 6's packed arena cut the per-state payload to ~10–20 bytes, which
//! left the *index* as the resident bottleneck: a `HashMap<u64, u32>` of
//! digest heads plus an intrusive `next` chain costs ~12–16 B/state.
//! [`OpenIndex`] replaces both with a single open-addressed table of
//! `u32` arena ids — linear probing, power-of-two capacity, no
//! tombstones (the visited set is insert-only) — at ~4–6 B/state.
//!
//! The table stores **only** record ids, not digests: a probe starts at
//! `digest & mask` and byte-compares each occupied slot's record (via a
//! caller-supplied matcher) until it hits the record or an empty slot.
//! Collisions therefore cost extra compares, never correctness — the
//! exactness guarantees of the packed store (`Fresh` vs `RevisitSame`
//! vs `RevisitMerged`, and the `orbits_merged` count) are decided by
//! byte equality alone.
//!
//! Growth doubles the capacity once the load factor reaches 7/8 and
//! rehashes by re-deriving every stored id's digest through a second
//! caller-supplied callback (`digest_of`), so the table never has to
//! store digests even transiently. Doubling re-reads each arena record
//! O(1) amortized times over the life of the store (n + n/2 + n/4 + …).
//!
//! The digest is a parameter of every call rather than a field of the
//! table, which is what makes the structure testable: suites can force
//! total collisions (`digest = 0` for everything) or adversarial
//! clustering and check that lookups still distinguish records by
//! content alone (`tests/prop_index.rs`).

/// An insert-only open-addressed hash table mapping 64-bit digests to
/// `u32` record ids, resolving collisions by caller-side byte
/// comparison (see the [module docs](self)).
#[derive(Clone)]
pub struct OpenIndex {
    /// Power-of-two slot array; [`OpenIndex::EMPTY`] marks free slots.
    slots: Box<[u32]>,
    len: u32,
}

impl std::fmt::Debug for OpenIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenIndex")
            .field("len", &self.len)
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl Default for OpenIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl OpenIndex {
    /// The free-slot sentinel; record ids must stay below it (the arena
    /// enforces the same bound on its side).
    pub const EMPTY: u32 = u32::MAX;

    /// Initial slot count (a power of two).
    const INITIAL_CAPACITY: usize = 64;

    /// Creates an empty index with a small pre-allocated slot array.
    pub fn new() -> Self {
        OpenIndex {
            slots: vec![Self::EMPTY; Self::INITIAL_CAPACITY].into(),
            len: 0,
        }
    }

    /// The number of stored ids.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current slot count (always a power of two, always strictly
    /// greater than [`len`](Self::len) — the growth policy keeps the
    /// load factor at or below 7/8, so probes terminate).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes held by the slot array.
    pub fn heap_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<u32>()) as u64
    }

    fn mask(&self) -> u64 {
        (self.slots.len() - 1) as u64
    }

    /// Looks up the id whose record matches, starting the linear probe
    /// at `digest & mask`. `matches` is called for every occupied slot
    /// on the probe path (ids with *different* digests included — the
    /// table stores no digests, so content comparison is the only
    /// discriminator); the walk stops at the first empty slot.
    pub fn find(&self, digest: u64, mut matches: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.mask();
        let mut i = digest & mask;
        loop {
            let slot = self.slots[i as usize];
            if slot == Self::EMPTY {
                return None;
            }
            if matches(slot) {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `id` under `digest`. The caller must have established the
    /// id is absent (the visited set always probes first); the table is
    /// insert-only, so there is no update or delete path. When the load
    /// factor would exceed 7/8 the table doubles first, re-deriving the
    /// digest of every stored id through `digest_of`.
    pub fn insert(&mut self, digest: u64, id: u32, digest_of: impl FnMut(u32) -> u64) {
        assert!(
            id != Self::EMPTY,
            "id space exhausted (u32::MAX is the free-slot sentinel)"
        );
        if (u64::from(self.len) + 1) * 8 > (self.slots.len() as u64) * 7 {
            self.grow(digest_of);
        }
        Self::place(&mut self.slots, digest, id);
        self.len += 1;
    }

    /// Probes `slots` from `digest & mask` to the first empty slot and
    /// stores `id` there.
    fn place(slots: &mut [u32], digest: u64, id: u32) {
        let mask = (slots.len() - 1) as u64;
        let mut i = digest & mask;
        while slots[i as usize] != Self::EMPTY {
            i = (i + 1) & mask;
        }
        slots[i as usize] = id;
    }

    fn grow(&mut self, mut digest_of: impl FnMut(u32) -> u64) {
        let mut bigger = vec![Self::EMPTY; self.slots.len() * 2].into_boxed_slice();
        for &slot in self.slots.iter() {
            if slot != Self::EMPTY {
                Self::place(&mut bigger, digest_of(slot), slot);
            }
        }
        self.slots = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the index with u64 "records" held in a plain Vec, the way
    /// the store drives it with arena records.
    struct Harness {
        records: Vec<u64>,
        index: OpenIndex,
        digest: fn(u64) -> u64,
    }

    impl Harness {
        fn new(digest: fn(u64) -> u64) -> Self {
            Harness {
                records: Vec::new(),
                index: OpenIndex::new(),
                digest,
            }
        }

        fn find(&self, value: u64) -> Option<u32> {
            self.index.find((self.digest)(value), |id| {
                self.records[id as usize] == value
            })
        }

        /// Interns `value`, returning (id, fresh) like the store does.
        fn intern(&mut self, value: u64) -> (u32, bool) {
            if let Some(id) = self.find(value) {
                return (id, false);
            }
            let id = self.records.len() as u32;
            self.records.push(value);
            let records = &self.records;
            self.index.insert((self.digest)(value), id, |i| {
                (self.digest)(records[i as usize])
            });
            (id, true)
        }
    }

    #[test]
    fn interns_each_value_once_across_growth() {
        // Well-spread digests; enough values for several doublings.
        let mut h = Harness::new(|v| v.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for v in 0..10_000u64 {
            let (id, fresh) = h.intern(v);
            assert!(fresh);
            assert_eq!(id, v as u32);
        }
        assert!(h.index.capacity() >= 10_000 * 8 / 7);
        for v in 0..10_000u64 {
            let (id, fresh) = h.intern(v);
            assert!(!fresh, "duplicate insert for {v}");
            assert_eq!(id, v as u32);
        }
        assert_eq!(h.find(10_000), None);
    }

    #[test]
    fn total_digest_collision_still_distinguishes_by_content() {
        // Every value hashes to 0: one maximal probe run. Lookups must
        // still tell records apart purely by content.
        let mut h = Harness::new(|_| 0);
        for v in 0..200u64 {
            assert!(h.intern(v).1, "fresh insert for {v}");
        }
        for v in 0..200u64 {
            assert_eq!(h.find(v), Some(v as u32));
            assert!(!h.intern(v).1);
        }
        assert_eq!(h.find(200), None);
        assert_eq!(h.index.len(), 200);
    }

    #[test]
    fn probe_wraps_around_the_table_end() {
        // Digests at the last slot force every probe to wrap.
        let mut h = Harness::new(|_| u64::MAX);
        for v in 0..50u64 {
            h.intern(v);
        }
        for v in 0..50u64 {
            assert_eq!(h.find(v), Some(v as u32));
        }
        assert_eq!(h.find(50), None);
    }

    #[test]
    fn load_factor_stays_at_or_below_seven_eighths() {
        let mut h = Harness::new(|v| v.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for v in 0..5_000u64 {
            h.intern(v);
            assert!(
                h.index.len() * 8 <= h.index.capacity() * 7,
                "load factor exceeded 7/8 at {} / {}",
                h.index.len(),
                h.index.capacity()
            );
        }
    }

    #[test]
    fn heap_bytes_tracks_the_slot_array() {
        let h = Harness::new(|v| v);
        assert_eq!(h.index.heap_bytes(), 64 * 4);
        assert!(h.index.is_empty());
    }
}

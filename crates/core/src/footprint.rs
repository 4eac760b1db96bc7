//! Read/write footprints of atomic steps over shared locations.
//!
//! Partial-order reduction (in `cfc-verify`) needs an *independence
//! relation* between the atomic steps of different processes: two steps
//! commute — executing them in either order reaches the same state —
//! exactly when their footprints do not conflict, i.e. no location is
//! written by one and accessed by the other. The locations of the paper's
//! model are shared registers; a [`RegisterSet`] is a compact bitset of
//! them, and a [`Footprint`] splits one step's accessed locations into a
//! read set and a write set according to the step's [`AccessClass`].
//!
//! [`AccessClass`]: crate::AccessClass

use std::hash::{Hash, Hasher};

use crate::ids::RegisterId;
use crate::layout::Layout;
use crate::op::{Op, Step};

/// A set of shared locations (registers), stored as a bitset.
///
/// Used both for step footprints and for the
/// [`Process::may_access`](crate::Process::may_access) over-approximation
/// of a process's future accesses.
///
/// Equality and hashing go by the members alone: the trailing zero words
/// that [`RegisterSet::clear`] keeps, or that a union with a longer set
/// adds, do not count.
#[derive(Clone, Debug, Default)]
pub struct RegisterSet {
    words: Vec<u64>,
}

impl PartialEq for RegisterSet {
    fn eq(&self, other: &Self) -> bool {
        self.significant() == other.significant()
    }
}

impl Eq for RegisterSet {}

impl Hash for RegisterSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.significant().hash(state);
    }
}

impl RegisterSet {
    /// The empty set.
    pub fn new() -> Self {
        RegisterSet::default()
    }

    /// The backing words up to the last nonzero one.
    fn significant(&self) -> &[u64] {
        let len = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..len]
    }

    /// Adds a register to the set.
    pub fn insert(&mut self, r: RegisterId) {
        let i = r.index();
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    /// Adds every register of an iterator.
    pub fn extend(&mut self, regs: impl IntoIterator<Item = RegisterId>) {
        for r in regs {
            self.insert(r);
        }
    }

    /// Removes every member, keeping the allocation.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Is the register a member?
    pub fn contains(&self, r: RegisterId) -> bool {
        let i = r.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Do the two sets share a member?
    pub fn intersects(&self, other: &RegisterSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Adds every member of `other`.
    pub fn union_with(&mut self, other: &RegisterSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Is every member of `self` also a member of `other`?
    ///
    /// Handles differing backing lengths: a set bit of `self` beyond
    /// `other`'s last word is not a subset.
    pub fn is_subset(&self, other: &RegisterSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates the members in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = RegisterId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            (0..64)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| RegisterId::new((wi * 64 + b) as u32))
        })
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set of registers in both `self` and `other`.
    #[must_use]
    pub fn intersection(&self, other: &RegisterSet) -> RegisterSet {
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        RegisterSet { words }
    }
}

/// The read and write location sets of one atomic step.
///
/// Steps that never touch shared memory ([`Step::Internal`],
/// [`Step::Halt`]) have the empty footprint and are independent of
/// everything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Locations the step observes.
    pub reads: RegisterSet,
    /// Locations the step mutates.
    pub writes: RegisterSet,
}

impl Footprint {
    /// The footprint of one operation under a layout.
    ///
    /// Read–modify–write bit operations put their register in both sets;
    /// packed-word operations cover every accessed field.
    pub fn of_op(op: &Op, layout: &Layout) -> Footprint {
        let mut fp = Footprint::default();
        fp.refill_op(op, layout);
        fp
    }

    /// Overwrites `self` with [`Footprint::of_step`]`(step, layout)`,
    /// reusing its storage: the result is equal member for member and
    /// word for word, and it allocates only when a set grows past its
    /// capacity.
    pub fn refill_step(&mut self, step: &Step, layout: &Layout) {
        match step.op() {
            Some(op) => self.refill_op(op, layout),
            None => self.empty(),
        }
    }

    /// Overwrites `self` with [`Footprint::of_op`]`(op, layout)`.
    fn refill_op(&mut self, op: &Op, layout: &Layout) {
        self.empty();
        let class = op.class();
        op.registers(layout).for_each(|r| {
            if class.reads() {
                self.reads.insert(r);
            }
            if class.writes() {
                self.writes.insert(r);
            }
        });
    }

    /// Makes both sets empty with no backing words, as in a fresh
    /// footprint, keeping their capacity.
    fn empty(&mut self) {
        self.reads.words.clear();
        self.writes.words.clear();
    }

    /// The footprint of one step: its operation's footprint, or the empty
    /// footprint for internal/halt steps.
    pub fn of_step(step: &Step, layout: &Layout) -> Footprint {
        match step.op() {
            Some(op) => Footprint::of_op(op, layout),
            None => Footprint::default(),
        }
    }

    /// Do two steps with these footprints commute?
    ///
    /// Independence in the classical partial-order-reduction sense: no
    /// location is written by one and read or written by the other, so
    /// executing the steps in either order yields the same memory, the
    /// same results, and hence the same successor state.
    pub fn independent(&self, other: &Footprint) -> bool {
        !self.writes.intersects(&other.writes)
            && !self.writes.intersects(&other.reads)
            && !self.reads.intersects(&other.writes)
    }

    /// Does the step access any location of `set` (reading or writing)?
    ///
    /// Conservative conflict test against a location set with unknown
    /// read/write split, such as a [`Process::may_access`]
    /// over-approximation.
    ///
    /// [`Process::may_access`]: crate::Process::may_access
    pub fn touches(&self, set: &RegisterSet) -> bool {
        self.reads.intersects(set) || self.writes.intersects(set)
    }

    /// Do two steps with these footprints conflict — the negation of
    /// [`Footprint::independent`]? Conflicting steps do not commute, so
    /// their order on a trace is observable: dynamic partial-order
    /// reduction records exactly these pairs as happens-before edges.
    pub fn conflicts_with(&self, other: &Footprint) -> bool {
        !self.independent(other)
    }

    /// The locations two conflicting steps actually conflict *on*: every
    /// register written by one and accessed by the other. Empty exactly
    /// when the footprints are independent.
    #[must_use]
    pub fn conflict_registers(&self, other: &Footprint) -> RegisterSet {
        let mut out = self.writes.intersection(&other.writes);
        out.union_with(&self.writes.intersection(&other.reads));
        out.union_with(&self.reads.intersection(&other.writes));
        out
    }

    /// Does the step touch no shared location at all?
    pub fn is_local(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitop::BitOp;
    use crate::value::Value;

    fn regs() -> (Layout, RegisterId, RegisterId, RegisterId) {
        let mut layout = Layout::new();
        let a = layout.bit("a", false);
        let b = layout.bit("b", false);
        let c = layout.bit("c", false);
        (layout, a, b, c)
    }

    #[test]
    fn register_set_basics() {
        let (_, a, b, _) = regs();
        let mut s = RegisterSet::new();
        assert!(s.is_empty());
        s.insert(a);
        assert!(s.contains(a));
        assert!(!s.contains(b));
        assert_eq!(s.len(), 1);
        let mut t = RegisterSet::new();
        t.insert(b);
        assert!(!s.intersects(&t));
        t.insert(a);
        assert!(s.intersects(&t));
        s.union_with(&t);
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn subset_handles_unequal_backing_lengths() {
        let mut small = RegisterSet::new();
        small.insert(RegisterId::new(3));
        let mut large = RegisterSet::new();
        large.insert(RegisterId::new(3));
        large.insert(RegisterId::new(130));
        assert!(small.is_subset(&large));
        assert!(!large.is_subset(&small));
        assert!(RegisterSet::new().is_subset(&small));
        assert_eq!(
            large.iter().map(|r| r.index()).collect::<Vec<_>>(),
            [3, 130]
        );
    }

    /// Sets with the same members are equal and hash equal, whatever
    /// zero words a `clear` or a union with a longer set left behind.
    #[test]
    fn equality_and_hash_ignore_trailing_zero_words() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |s: &RegisterSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let mut r3 = RegisterSet::new();
        r3.insert(RegisterId::new(3));

        let mut reused = RegisterSet::new();
        reused.insert(RegisterId::new(130));
        reused.clear();
        reused.insert(RegisterId::new(3));
        assert_eq!(reused, r3);
        assert_eq!(hash(&reused), hash(&r3));

        let mut emptied = RegisterSet::new();
        emptied.insert(RegisterId::new(200));
        emptied.clear();
        let mut union = r3.clone();
        union.union_with(&emptied);
        assert_eq!(union, r3);
        assert_eq!(hash(&union), hash(&r3));

        assert_eq!(emptied, RegisterSet::new());
        assert_eq!(hash(&emptied), hash(&RegisterSet::new()));
        assert_ne!(reused, RegisterSet::new());
    }

    #[test]
    fn register_set_spans_many_words() {
        let mut s = RegisterSet::new();
        s.insert(RegisterId::new(130));
        assert!(s.contains(RegisterId::new(130)));
        assert!(!s.contains(RegisterId::new(2)));
        let mut t = RegisterSet::new();
        t.insert(RegisterId::new(2));
        assert!(!s.intersects(&t));
        assert!(!t.intersects(&s));
    }

    #[test]
    fn read_write_classification() {
        let (layout, a, _, _) = regs();
        let read = Footprint::of_op(&Op::Read(a), &layout);
        assert!(read.reads.contains(a) && read.writes.is_empty());
        let write = Footprint::of_op(&Op::Write(a, Value::ONE), &layout);
        assert!(write.writes.contains(a) && write.reads.is_empty());
        let rmw = Footprint::of_op(&Op::Bit(a, BitOp::TestAndSet), &layout);
        assert!(rmw.reads.contains(a) && rmw.writes.contains(a));
    }

    #[test]
    fn refill_matches_a_fresh_footprint_word_for_word() {
        let mut layout = Layout::new();
        let regs = layout.bits("r", 130, false);
        let (lo, hi) = (regs[3], regs[129]);
        let w = layout.pack(&[lo, hi]).unwrap();
        let steps = [
            Step::Op(Op::Bit(hi, BitOp::TestAndSet)),
            Step::Op(Op::Read(lo)),
            Step::Op(Op::ReadWord(w)),
            Step::Op(Op::WriteWord(w, vec![(hi, Value::ONE)])),
            Step::Op(Op::Write(lo, Value::ONE)),
            Step::Internal,
            Step::Halt,
        ];
        // A scratch footprint that last held a wider step must not keep
        // trailing zero words a fresh footprint would not have.
        let mut scratch = Footprint::of_step(&steps[0], &layout);
        for step in steps.iter().cycle().take(2 * steps.len()) {
            scratch.refill_step(step, &layout);
            assert_eq!(scratch, Footprint::of_step(step, &layout), "{step:?}");
        }
    }

    #[test]
    fn packed_word_footprints_cover_the_accessed_fields() {
        let mut layout = Layout::new();
        let regs = layout.bits("r", 130, false);
        let (lo, hi) = (regs[3], regs[129]);
        let w = layout.pack(&[lo, hi]).unwrap();
        let read = Footprint::of_op(&Op::ReadWord(w), &layout);
        assert_eq!(read.reads.iter().collect::<Vec<_>>(), [lo, hi]);
        assert!(read.writes.is_empty());
        // A partial write touches only the fields it writes.
        let write = Footprint::of_op(&Op::WriteWord(w, vec![(hi, Value::ONE)]), &layout);
        assert_eq!(write.writes.iter().collect::<Vec<_>>(), [hi]);
        assert!(write.reads.is_empty());
    }

    #[test]
    fn independence_is_conflict_freedom() {
        let (layout, a, b, _) = regs();
        let read_a = Footprint::of_op(&Op::Read(a), &layout);
        let read_a2 = read_a.clone();
        let write_a = Footprint::of_op(&Op::Write(a, Value::ONE), &layout);
        let write_b = Footprint::of_op(&Op::Write(b, Value::ONE), &layout);
        // Two reads of the same register commute.
        assert!(read_a.independent(&read_a2));
        // Read/write and write/write on the same register conflict.
        assert!(!read_a.independent(&write_a));
        assert!(!write_a.independent(&write_a.clone()));
        // Accesses to distinct registers commute.
        assert!(write_a.independent(&write_b));
        assert!(read_a.independent(&write_b));
    }

    #[test]
    fn local_steps_have_empty_footprints() {
        let (layout, a, _, _) = regs();
        assert!(Footprint::of_step(&Step::Internal, &layout).is_local());
        assert!(Footprint::of_step(&Step::Halt, &layout).is_local());
        let op = Footprint::of_step(&Step::Op(Op::Read(a)), &layout);
        assert!(!op.is_local());
        // Empty footprints are independent of everything.
        assert!(Footprint::default().independent(&op));
    }

    #[test]
    fn conflict_registers_name_the_raced_locations() {
        let (layout, a, b, _) = regs();
        let read_a = Footprint::of_op(&Op::Read(a), &layout);
        let write_a = Footprint::of_op(&Op::Write(a, Value::ONE), &layout);
        let write_b = Footprint::of_op(&Op::Write(b, Value::ONE), &layout);

        assert!(read_a.conflicts_with(&write_a));
        assert!(!read_a.conflicts_with(&write_b));
        // conflict_registers is empty iff independent, and symmetric.
        let regs_rw = read_a.conflict_registers(&write_a);
        assert_eq!(regs_rw.iter().collect::<Vec<_>>(), [a]);
        assert_eq!(regs_rw, write_a.conflict_registers(&read_a));
        assert!(read_a.conflict_registers(&write_b).is_empty());
        // Write/write conflicts are reported too.
        assert!(write_a.conflict_registers(&write_a.clone()).contains(a));
    }

    #[test]
    fn intersection_handles_unequal_backing_lengths() {
        let mut small = RegisterSet::new();
        small.insert(RegisterId::new(3));
        let mut large = RegisterSet::new();
        large.insert(RegisterId::new(3));
        large.insert(RegisterId::new(130));
        let both = small.intersection(&large);
        assert_eq!(both.iter().collect::<Vec<_>>(), [RegisterId::new(3)]);
        assert_eq!(both, large.intersection(&small));
        assert!(small.intersection(&RegisterSet::new()).is_empty());
    }

    #[test]
    fn touches_is_conservative() {
        let (layout, a, b, _) = regs();
        let read_a = Footprint::of_op(&Op::Read(a), &layout);
        let mut may = RegisterSet::new();
        may.insert(b);
        assert!(!read_a.touches(&may));
        may.insert(a);
        // Even a pure read "touches" a set that might be written.
        assert!(read_a.touches(&may));
    }
}

//! Vector clocks: per-process logical time and the join-semilattice it
//! forms, used to compute the **per-trace happens-before relation**.
//!
//! A [`VectorClock`] maps each process to the number of its events that
//! causally precede a point of a trace. The componentwise maximum
//! ([`VectorClock::join`]) is the semilattice join, and the
//! componentwise order ([`VectorClock::leq`]) is exactly the
//! happens-before partial order when clocks are maintained the standard
//! way: tick your own component on every event, join with the clock of
//! every conflicting earlier event. Two events with incomparable clocks
//! are concurrent — neither can observe the other.
//!
//! The verifier's `trace_causality` (`cfc-verify::dynamic`) assigns
//! these clocks to a replayed schedule, joining along the same
//! observed-conflict relation that dynamic partial-order reduction's
//! sleep sets test on step footprints; `tests/prop_dynamic.rs` pins the
//! clock laws. The search itself never reads a clock.
//!
//! Trailing zero components are insignificant: `[1, 0]` and `[1]`
//! denote the same clock, and equality, ordering, and hashing all agree
//! on that (the representation is normalized on construction).

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use crate::ids::ProcessId;

/// A vector of per-process logical times, partially ordered
/// componentwise, with join = componentwise maximum.
#[derive(Clone, Debug, Default)]
pub struct VectorClock {
    /// Component `i` counts events of process `i` in the causal past.
    /// Invariant: no trailing zeros (enforced by every mutator), so
    /// derived-looking equality and hashing stay representation-free.
    components: Vec<u64>,
}

impl VectorClock {
    /// The zero clock (bottom of the semilattice).
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// The logical time of `pid` (0 when the process has no events in
    /// the causal past).
    pub fn get(&self, pid: ProcessId) -> u64 {
        self.components.get(pid.index()).copied().unwrap_or(0)
    }

    /// The number of processes with a nonzero component.
    pub fn len(&self) -> usize {
        self.components.iter().filter(|c| **c != 0).count()
    }

    /// Is this the zero clock?
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Advances `pid`'s own component by one — the stepping process
    /// observing its own event.
    pub fn tick(&mut self, pid: ProcessId) {
        let i = pid.index();
        if i >= self.components.len() {
            self.components.resize(i + 1, 0);
        }
        self.components[i] += 1;
    }

    /// Joins `other` into `self`: componentwise maximum, the semilattice
    /// join. After `a.join(&b)`, both `b.leq(&a)` and the old `a`'s
    /// order into the new one hold.
    pub fn join(&mut self, other: &VectorClock) {
        if other.components.len() > self.components.len() {
            self.components.resize(other.components.len(), 0);
        }
        for (a, b) in self.components.iter_mut().zip(&other.components) {
            *a = (*a).max(*b);
        }
        self.normalize();
    }

    /// The join of two clocks as a new value.
    #[must_use]
    pub fn joined(&self, other: &VectorClock) -> VectorClock {
        let mut out = self.clone();
        out.join(other);
        out
    }

    /// The componentwise order: does every component of `self` bound the
    /// matching component of `other` from below? This is happens-before
    /// (or equality) when the clocks are maintained the standard way.
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.components
            .iter()
            .enumerate()
            .all(|(i, c)| *c <= other.components.get(i).copied().unwrap_or(0))
    }

    /// Are the clocks incomparable — neither `leq` the other? Events
    /// with concurrent clocks are causally unordered.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    fn normalize(&mut self) {
        while self.components.last() == Some(&0) {
            self.components.pop();
        }
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        // Both representations are normalized, so Vec equality is
        // clock equality.
        self.components == other.components
    }
}

impl Eq for VectorClock {}

impl Hash for VectorClock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.components.hash(state);
    }
}

impl PartialOrd for VectorClock {
    /// The happens-before partial order; `None` for concurrent clocks.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self.leq(other), other.leq(self)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn clock(ticks: &[(u32, u64)]) -> VectorClock {
        let mut c = VectorClock::new();
        for &(p, n) in ticks {
            for _ in 0..n {
                c.tick(pid(p));
            }
        }
        c
    }

    #[test]
    fn tick_is_monotone_and_local() {
        let mut c = VectorClock::new();
        assert!(c.is_empty());
        c.tick(pid(2));
        assert_eq!(c.get(pid(2)), 1);
        assert_eq!(c.get(pid(0)), 0);
        let before = c.clone();
        c.tick(pid(2));
        assert!(before.leq(&c) && before != c);
    }

    #[test]
    fn join_is_componentwise_max() {
        let a = clock(&[(0, 2), (1, 1)]);
        let b = clock(&[(1, 3), (4, 1)]);
        let j = a.joined(&b);
        assert_eq!(j.get(pid(0)), 2);
        assert_eq!(j.get(pid(1)), 3);
        assert_eq!(j.get(pid(4)), 1);
        assert!(a.leq(&j) && b.leq(&j));
    }

    #[test]
    fn join_laws() {
        let a = clock(&[(0, 1)]);
        let b = clock(&[(1, 2)]);
        let c = clock(&[(0, 3), (2, 1)]);
        assert_eq!(a.joined(&b), b.joined(&a), "commutative");
        assert_eq!(
            a.joined(&b).joined(&c),
            a.joined(&b.joined(&c)),
            "associative"
        );
        assert_eq!(a.joined(&a), a, "idempotent");
        assert_eq!(a.joined(&VectorClock::new()), a, "zero is the unit");
    }

    #[test]
    fn trailing_zeros_are_insignificant() {
        // `tick` beyond the current length then observing a shorter
        // clock must not distinguish [1] from a padded representation.
        let a = clock(&[(0, 1)]);
        let mut b = clock(&[(0, 1), (3, 1)]);
        assert_ne!(a, b);
        // Join with a clock that dominates component 3 only, then
        // compare against the same join built the other way round.
        let dom = clock(&[(3, 1)]);
        b.join(&dom);
        assert_eq!(b, a.joined(&dom));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn partial_order_classifies_concurrency() {
        let a = clock(&[(0, 2)]);
        let b = clock(&[(1, 1)]);
        assert!(a.concurrent_with(&b));
        assert_eq!(a.partial_cmp(&b), None);
        let ab = a.joined(&b);
        assert_eq!(a.partial_cmp(&ab), Some(Ordering::Less));
        assert_eq!(ab.partial_cmp(&b), Some(Ordering::Greater));
        assert_eq!(a.partial_cmp(&a.clone()), Some(Ordering::Equal));
        assert!(!a.concurrent_with(&a));
    }
}

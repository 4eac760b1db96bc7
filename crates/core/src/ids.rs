//! Identifier newtypes for registers, processes, and packed words.

use std::fmt;

/// Identifies a shared register within a [`Layout`](crate::Layout).
///
/// Register ids are dense indices handed out by
/// [`Layout::register`](crate::Layout::register) in declaration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegisterId(u32);

impl RegisterId {
    /// Creates a register id from a raw index.
    pub const fn new(index: u32) -> Self {
        RegisterId(index)
    }

    /// Returns the dense index of this register.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a process participating in a run.
///
/// The paper assumes processes are numbered `1..=n`; here they are numbered
/// `0..n` as dense indices into the executor's process vector. Algorithms
/// that need the paper's `1..=n` convention use [`ProcessId::one_based`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process id from a raw zero-based index.
    pub const fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// Returns the dense zero-based index of this process.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the paper's one-based identifier (`index + 1`).
    pub const fn one_based(self) -> u64 {
        self.0 as u64 + 1
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifies a packed word created by [`Layout::pack`](crate::Layout::pack).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WordId(u32);

impl WordId {
    /// Creates a word id from a raw index.
    pub const fn new(index: u32) -> Self {
        WordId(index)
    }

    /// Returns the dense index of this word.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_id_round_trip() {
        let r = RegisterId::new(7);
        assert_eq!(r.index(), 7);
        assert_eq!(r.to_string(), "r7");
    }

    #[test]
    fn process_id_one_based() {
        let p = ProcessId::new(0);
        assert_eq!(p.one_based(), 1);
        assert_eq!(p.to_string(), "p0");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(RegisterId::new(1) < RegisterId::new(2));
        assert!(ProcessId::new(0) < ProcessId::new(3));
        assert_eq!(WordId::new(4).index(), 4);
        assert_eq!(WordId::new(4).to_string(), "w4");
    }
}

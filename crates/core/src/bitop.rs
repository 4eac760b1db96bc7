//! The eight single-bit operations of Section 3.1 of the paper.

use std::fmt;

/// An atomic operation on a single shared bit.
///
/// Section 3.1 of the paper lists eight operations a process may apply to a
/// shared bit in one atomic step. A *model* (see `cfc-naming`) is a subset
/// of these operations; there are 2⁸ models. Each operation is defined by
/// how it transforms the bit and whether it returns the bit's old value.
///
/// | Operation | New value | Returns old value? |
/// |---|---|---|
/// | `Skip` | unchanged | no |
/// | `Read` | unchanged | yes |
/// | `Write0` | `0` | no |
/// | `TestAndReset` | `0` | yes |
/// | `Write1` | `1` | no |
/// | `TestAndSet` | `1` | yes |
/// | `Flip` | complement | no |
/// | `TestAndFlip` | complement | yes |
///
/// `TestAndFlip` is the paper's *fetch-and-complement* (the balancer of
/// counting networks \[AHS91\]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BitOp {
    /// No effect, no return value.
    Skip,
    /// No effect; returns the current value.
    Read,
    /// Sets the bit to `0`; no return value.
    Write0,
    /// Sets the bit to `0`; returns the old value.
    TestAndReset,
    /// Sets the bit to `1`; no return value.
    Write1,
    /// Sets the bit to `1`; returns the old value.
    TestAndSet,
    /// Complements the bit; no return value.
    Flip,
    /// Complements the bit; returns the old value.
    TestAndFlip,
}

impl BitOp {
    /// All eight operations, in the paper's order.
    pub const ALL: [BitOp; 8] = [
        BitOp::Skip,
        BitOp::Read,
        BitOp::Write0,
        BitOp::TestAndReset,
        BitOp::Write1,
        BitOp::TestAndSet,
        BitOp::Flip,
        BitOp::TestAndFlip,
    ];

    /// Applies the operation to a bit, returning `(new_value, returned)`.
    pub const fn apply(self, bit: bool) -> (bool, Option<bool>) {
        match self {
            BitOp::Skip => (bit, None),
            BitOp::Read => (bit, Some(bit)),
            BitOp::Write0 => (false, None),
            BitOp::TestAndReset => (false, Some(bit)),
            BitOp::Write1 => (true, None),
            BitOp::TestAndSet => (true, Some(bit)),
            BitOp::Flip => (!bit, None),
            BitOp::TestAndFlip => (!bit, Some(bit)),
        }
    }

    /// Returns `true` if the operation returns the bit's old value.
    pub const fn returns_value(self) -> bool {
        matches!(
            self,
            BitOp::Read | BitOp::TestAndReset | BitOp::TestAndSet | BitOp::TestAndFlip
        )
    }

    /// Returns `true` if the operation can change the bit's value.
    pub const fn mutates(self) -> bool {
        !matches!(self, BitOp::Skip | BitOp::Read)
    }

    /// The *dual* operation (Section 3.2).
    ///
    /// `Write0`/`Write1` and `TestAndReset`/`TestAndSet` are duals of each
    /// other; `Skip`, `Read`, `Flip` and `TestAndFlip` are their own duals.
    /// For any complexity measure, bounds for a model also hold for its
    /// dual model.
    pub const fn dual(self) -> BitOp {
        match self {
            BitOp::Write0 => BitOp::Write1,
            BitOp::Write1 => BitOp::Write0,
            BitOp::TestAndReset => BitOp::TestAndSet,
            BitOp::TestAndSet => BitOp::TestAndReset,
            other => other,
        }
    }

    /// The operation's name as written in the paper.
    pub const fn name(self) -> &'static str {
        match self {
            BitOp::Skip => "skip",
            BitOp::Read => "read",
            BitOp::Write0 => "write-0",
            BitOp::TestAndReset => "test-and-reset",
            BitOp::Write1 => "write-1",
            BitOp::TestAndSet => "test-and-set",
            BitOp::Flip => "flip",
            BitOp::TestAndFlip => "test-and-flip",
        }
    }
}

impl fmt::Display for BitOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantics_match_paper_table() {
        for bit in [false, true] {
            assert_eq!(BitOp::Skip.apply(bit), (bit, None));
            assert_eq!(BitOp::Read.apply(bit), (bit, Some(bit)));
            assert_eq!(BitOp::Write0.apply(bit), (false, None));
            assert_eq!(BitOp::TestAndReset.apply(bit), (false, Some(bit)));
            assert_eq!(BitOp::Write1.apply(bit), (true, None));
            assert_eq!(BitOp::TestAndSet.apply(bit), (true, Some(bit)));
            assert_eq!(BitOp::Flip.apply(bit), (!bit, None));
            assert_eq!(BitOp::TestAndFlip.apply(bit), (!bit, Some(bit)));
        }
    }

    #[test]
    fn duality_is_an_involution() {
        for op in BitOp::ALL {
            assert_eq!(op.dual().dual(), op);
        }
    }

    #[test]
    fn self_dual_operations() {
        for op in [BitOp::Skip, BitOp::Read, BitOp::Flip, BitOp::TestAndFlip] {
            assert_eq!(op.dual(), op);
        }
    }

    /// The defining property of duality: applying the dual operation to the
    /// complemented bit complements the result of the original operation.
    #[test]
    fn dual_commutes_with_complement() {
        for op in BitOp::ALL {
            for bit in [false, true] {
                let (new, ret) = op.apply(bit);
                let (dnew, dret) = op.dual().apply(!bit);
                assert_eq!(dnew, !new, "{op}");
                assert_eq!(dret, ret.map(|b| !b), "{op}");
            }
        }
    }

    #[test]
    fn returns_value_classification() {
        let returning: Vec<_> = BitOp::ALL.iter().filter(|o| o.returns_value()).collect();
        assert_eq!(returning.len(), 4);
        assert!(BitOp::TestAndFlip.returns_value());
        assert!(!BitOp::Flip.returns_value());
    }

    #[test]
    fn mutation_classification() {
        assert!(!BitOp::Skip.mutates());
        assert!(!BitOp::Read.mutates());
        for op in [
            BitOp::Write0,
            BitOp::Write1,
            BitOp::TestAndReset,
            BitOp::TestAndSet,
            BitOp::Flip,
            BitOp::TestAndFlip,
        ] {
            assert!(op.mutates(), "{op}");
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(BitOp::TestAndFlip.to_string(), "test-and-flip");
        assert_eq!(BitOp::Write0.to_string(), "write-0");
    }
}

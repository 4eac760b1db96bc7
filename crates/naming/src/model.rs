//! Models: subsets of the eight single-bit operations (Section 3.1).

use std::fmt;

use cfc_core::BitOp;

/// A *model*: the set of operations supported on each shared bit.
///
/// There are 2⁸ models. The model containing all eight operations is the
/// read–modify–write model. Naming algorithms declare the model they
/// operate in, and the runtime checks every issued operation against it.
///
/// # Examples
///
/// ```
/// use cfc_naming::Model;
/// use cfc_core::BitOp;
///
/// let m = Model::READ_TAS;
/// assert!(m.contains(BitOp::TestAndSet));
/// assert!(!m.contains(BitOp::TestAndFlip));
/// assert_eq!(m.dual(), Model::new(&[BitOp::Read, BitOp::TestAndReset]));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Model(u8);

impl Model {
    /// The empty model (no operations).
    pub const EMPTY: Model = Model(0);

    /// `{test-and-set}`.
    pub const TAS_ONLY: Model = Model::new(&[BitOp::TestAndSet]);

    /// `{read, test-and-set}`.
    pub const READ_TAS: Model = Model::new(&[BitOp::Read, BitOp::TestAndSet]);

    /// `{read, test-and-set, test-and-reset}`.
    pub const READ_TAS_TAR: Model =
        Model::new(&[BitOp::Read, BitOp::TestAndSet, BitOp::TestAndReset]);

    /// `{test-and-flip}`.
    pub const TAF_ONLY: Model = Model::new(&[BitOp::TestAndFlip]);

    /// The full read–modify–write model (all eight operations).
    pub const RMW: Model = Model(0xFF);

    const fn bit(op: BitOp) -> u8 {
        1 << (op as u8)
    }

    /// Creates a model from a list of operations.
    pub const fn new(ops: &[BitOp]) -> Model {
        let mut mask = 0u8;
        let mut i = 0;
        while i < ops.len() {
            mask |= Model::bit(ops[i]);
            i += 1;
        }
        Model(mask)
    }

    /// Does the model support `op`?
    pub const fn contains(self, op: BitOp) -> bool {
        self.0 & Model::bit(op) != 0
    }

    /// The model extended with `op`.
    #[must_use]
    pub const fn with(self, op: BitOp) -> Model {
        Model(self.0 | Model::bit(op))
    }

    /// The union of two models.
    #[must_use]
    pub const fn union(self, other: Model) -> Model {
        Model(self.0 | other.0)
    }

    /// Is every operation of `other` also in `self`?
    pub const fn superset_of(self, other: Model) -> bool {
        self.0 & other.0 == other.0
    }

    /// The number of supported operations.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if no operations are supported.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The dual model (Section 3.2): each operation replaced by its dual.
    ///
    /// For every complexity measure, bounds for a model hold for its dual.
    #[must_use]
    pub fn dual(self) -> Model {
        let mut out = Model::EMPTY;
        for op in self.iter() {
            out = out.with(op.dual());
        }
        out
    }

    /// Is the model its own dual?
    pub fn is_self_dual(self) -> bool {
        self.dual() == self
    }

    /// Iterates over the supported operations in [`BitOp::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = BitOp> {
        BitOp::ALL.into_iter().filter(move |&op| self.contains(op))
    }

    /// Iterates over all 2⁸ models.
    pub fn all_models() -> impl Iterator<Item = Model> {
        (0u16..256).map(|m| Model(m as u8))
    }
}

impl fmt::Debug for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Model{{{self}}}")
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("∅");
        }
        let mut first = true;
        for op in self.iter() {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{op}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<BitOp> for Model {
    fn from_iter<T: IntoIterator<Item = BitOp>>(iter: T) -> Self {
        iter.into_iter().fold(Model::EMPTY, Model::with)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_and_len() {
        let m = Model::READ_TAS_TAR;
        assert_eq!(m.len(), 3);
        assert!(m.contains(BitOp::Read));
        assert!(m.contains(BitOp::TestAndSet));
        assert!(m.contains(BitOp::TestAndReset));
        assert!(!m.contains(BitOp::Flip));
        assert!(!Model::EMPTY.contains(BitOp::Read));
        assert!(Model::EMPTY.is_empty());
    }

    #[test]
    fn rmw_contains_everything() {
        for op in BitOp::ALL {
            assert!(Model::RMW.contains(op));
        }
        assert_eq!(Model::RMW.len(), 8);
    }

    #[test]
    fn duality_is_involution_on_models() {
        for m in Model::all_models() {
            assert_eq!(m.dual().dual(), m);
            assert_eq!(m.dual().len(), m.len());
        }
    }

    #[test]
    fn dual_of_named_models() {
        assert_eq!(Model::TAS_ONLY.dual(), Model::new(&[BitOp::TestAndReset]));
        assert!(Model::TAF_ONLY.is_self_dual());
        assert!(Model::RMW.is_self_dual());
        assert!(!Model::READ_TAS.is_self_dual());
    }

    #[test]
    fn subset_relation() {
        assert!(Model::RMW.superset_of(Model::READ_TAS_TAR));
        assert!(Model::READ_TAS_TAR.superset_of(Model::READ_TAS));
        assert!(!Model::TAS_ONLY.superset_of(Model::READ_TAS));
    }

    #[test]
    fn all_models_enumerates_256() {
        assert_eq!(Model::all_models().count(), 256);
        let distinct: std::collections::HashSet<_> = Model::all_models().collect();
        assert_eq!(distinct.len(), 256);
    }

    #[test]
    fn collect_from_ops() {
        let m: Model = [BitOp::Read, BitOp::Read, BitOp::Flip]
            .into_iter()
            .collect();
        assert_eq!(m.len(), 2);
        assert_eq!(m.to_string(), "read, flip");
    }
}

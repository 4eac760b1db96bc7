//! The shared memory: register storage plus atomic operation semantics.

use std::fmt;
use std::sync::Arc;

use crate::bitop::BitOp;
use crate::error::MemoryError;
use crate::ids::{RegisterId, WordId};
use crate::layout::Layout;
use crate::op::{Op, OpResult};
use crate::value::{Value, MAX_WIDTH};

/// The shared memory of a simulated system.
///
/// A memory is created from a [`Layout`] and an *atomicity* `l` — the paper's
/// bound on the size (in bits) of the biggest register that can be accessed
/// in one atomic step. Construction fails if any register, or any packed
/// word, is wider than `l`, so every operation ever applied is guaranteed to
/// be a legal atomic step.
///
/// Cloning a memory copies the register values (one allocation of
/// `O(registers)`) and shares the layout through an `Arc`;
/// [`Clone::clone_from`] reuses the target's value buffer, so the model
/// checker in `cfc-verify` resets its reused successor buffers without
/// allocating.
#[derive(Debug)]
pub struct Memory {
    layout: Arc<Layout>,
    values: Vec<Value>,
    atomicity: u32,
}

impl Clone for Memory {
    fn clone(&self) -> Self {
        Memory {
            layout: Arc::clone(&self.layout),
            values: self.values.clone(),
            atomicity: self.atomicity,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.layout, &source.layout) {
            self.layout = Arc::clone(&source.layout);
        }
        self.values.clone_from(&source.values);
        self.atomicity = source.atomicity;
    }
}

impl Memory {
    /// Creates a memory with the given atomicity.
    ///
    /// # Errors
    ///
    /// Returns an error if the atomicity is zero or exceeds
    /// [`MAX_WIDTH`], or if any register or packed word is wider than the
    /// atomicity.
    pub fn new(layout: Layout, atomicity: u32) -> Result<Self, MemoryError> {
        if atomicity == 0 || atomicity > MAX_WIDTH {
            return Err(MemoryError::InvalidAtomicity(atomicity));
        }
        for (id, spec) in layout.iter() {
            if spec.width() > atomicity {
                return Err(MemoryError::WidthExceedsAtomicity {
                    register: id,
                    width: spec.width(),
                    atomicity,
                });
            }
        }
        for i in 0..layout.word_count() {
            let w = WordId::new(i as u32);
            let width = layout.word_width(w).expect("word exists");
            if width > atomicity {
                return Err(MemoryError::WordExceedsAtomicity {
                    word: w,
                    width,
                    atomicity,
                });
            }
        }
        let values = layout.iter().map(|(_, s)| s.init()).collect();
        Ok(Memory {
            layout: Arc::new(layout),
            values,
            atomicity,
        })
    }

    /// Creates a memory whose atomicity is exactly what the layout requires.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout requires an atomicity above
    /// [`MAX_WIDTH`].
    pub fn with_minimal_atomicity(layout: Layout) -> Result<Self, MemoryError> {
        let l = layout.required_atomicity().max(1);
        Memory::new(layout, l)
    }

    /// The system atomicity `l`.
    pub fn atomicity(&self) -> u32 {
        self.atomicity
    }

    /// The layout this memory was created from.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// A clonable handle to the layout.
    pub fn layout_arc(&self) -> Arc<Layout> {
        Arc::clone(&self.layout)
    }

    /// The current value of a register.
    ///
    /// # Panics
    ///
    /// Panics if the register id is out of range.
    pub fn get(&self, r: RegisterId) -> Value {
        self.values[r.index()]
    }

    /// Overwrites a register without producing an event.
    ///
    /// This is a test/setup convenience, not an atomic step of any process.
    ///
    /// # Panics
    ///
    /// Panics if the register id is out of range.
    pub fn poke(&mut self, r: RegisterId, v: Value) {
        let width = self.layout.width(r);
        self.values[r.index()] = v.masked(width);
    }

    /// Resets every register to its initial value.
    pub fn reset(&mut self) {
        for (i, (_, spec)) in self.layout.iter().enumerate() {
            self.values[i] = spec.init();
        }
    }

    /// A snapshot of all register values, suitable for hashing a state.
    pub fn snapshot(&self) -> &[Value] {
        &self.values
    }

    /// The register values, mutable: for code that rewrites a whole
    /// image at once, such as a state normalizer or a decoder of packed
    /// states. Unlike [`Memory::poke`] nothing is masked, so the writer
    /// must keep each value within its register's width (a
    /// [`crate::StateWriter`] encoding the image panics on one that is
    /// not). Equality and hashing see what is written here.
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Applies one atomic operation, returning its result.
    ///
    /// # Errors
    ///
    /// Returns an error if the operation names an unknown register or word,
    /// applies a bit operation to a wide register, writes a field outside
    /// its word, or writes a value wider than its destination register
    /// ([`MemoryError::ValueTooWide`] — a real step never silently
    /// truncates; [`Memory::poke`], the test/setup hook, masks instead).
    /// Width violations against the atomicity cannot occur here — they are
    /// ruled out at construction.
    pub fn apply(&mut self, op: &Op) -> Result<OpResult, MemoryError> {
        match op {
            Op::Read(r) => {
                let v = self.checked_get(*r)?;
                Ok(OpResult::Value(v))
            }
            Op::Write(r, v) => {
                let width = self
                    .layout
                    .get(*r)
                    .ok_or(MemoryError::UnknownRegister(*r))?
                    .width();
                if !v.fits(width) {
                    return Err(MemoryError::ValueTooWide {
                        register: *r,
                        width,
                        value: *v,
                    });
                }
                self.values[r.index()] = *v;
                Ok(OpResult::None)
            }
            Op::Bit(r, bop) => self.apply_bit(*r, *bop),
            Op::ReadWord(w) => {
                let members = self
                    .layout
                    .word_members(*w)
                    .ok_or(MemoryError::UnknownWord(*w))?;
                let vs = members.iter().map(|&r| self.values[r.index()]).collect();
                Ok(OpResult::Values(vs))
            }
            Op::WriteWord(w, fields) => {
                let members = self
                    .layout
                    .word_members(*w)
                    .ok_or(MemoryError::UnknownWord(*w))?;
                for &(r, _) in fields {
                    if !members.contains(&r) {
                        return Err(MemoryError::FieldNotInWord {
                            word: *w,
                            register: r,
                        });
                    }
                }
                for &(r, v) in fields {
                    let width = self.layout.width(r);
                    if !v.fits(width) {
                        return Err(MemoryError::ValueTooWide {
                            register: r,
                            width,
                            value: v,
                        });
                    }
                }
                for &(r, v) in fields {
                    self.values[r.index()] = v;
                }
                Ok(OpResult::None)
            }
        }
    }

    fn checked_get(&self, r: RegisterId) -> Result<Value, MemoryError> {
        self.values
            .get(r.index())
            .copied()
            .ok_or(MemoryError::UnknownRegister(r))
    }

    fn apply_bit(&mut self, r: RegisterId, bop: BitOp) -> Result<OpResult, MemoryError> {
        let spec = self.layout.get(r).ok_or(MemoryError::UnknownRegister(r))?;
        if spec.width() != 1 {
            return Err(MemoryError::NotABit {
                register: r,
                width: spec.width(),
            });
        }
        let old = self.values[r.index()].bit();
        let (new, returned) = bop.apply(old);
        self.values[r.index()] = Value::from(new);
        Ok(match returned {
            Some(b) => OpResult::Value(Value::from(b)),
            None => OpResult::None,
        })
    }
}

impl PartialEq for Memory {
    /// Two memories are equal if they hold the same register values.
    ///
    /// Layout equality is not rechecked: comparing memories from different
    /// layouts is a logic error that equality does not attempt to detect.
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Eq for Memory {}

impl std::hash::Hash for Memory {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory (l={}):", self.atomicity)?;
        for (id, spec) in self.layout.iter() {
            write!(f, " {}={}", spec.name(), self.values[id.index()])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bit_layout() -> (Layout, RegisterId) {
        let mut layout = Layout::new();
        let b = layout.bit("b", false);
        (layout, b)
    }

    #[test]
    fn construction_validates_atomicity() {
        let mut layout = Layout::new();
        layout.register("x", 8, 0);
        assert!(matches!(
            Memory::new(layout.clone(), 4),
            Err(MemoryError::WidthExceedsAtomicity { .. })
        ));
        assert!(Memory::new(layout, 8).is_ok());
    }

    #[test]
    fn construction_validates_word_width() {
        let mut layout = Layout::new();
        let x = layout.register("x", 4, 0);
        let y = layout.register("y", 4, 0);
        layout.pack(&[x, y]).unwrap();
        assert!(matches!(
            Memory::new(layout.clone(), 4),
            Err(MemoryError::WordExceedsAtomicity { .. })
        ));
        assert!(Memory::new(layout, 8).is_ok());
    }

    #[test]
    fn invalid_atomicity_rejected() {
        let (layout, _) = bit_layout();
        assert!(matches!(
            Memory::new(layout.clone(), 0),
            Err(MemoryError::InvalidAtomicity(0))
        ));
        assert!(matches!(
            Memory::new(layout, 64),
            Err(MemoryError::InvalidAtomicity(64))
        ));
    }

    #[test]
    fn minimal_atomicity_uses_layout_requirement() {
        let mut layout = Layout::new();
        layout.register("x", 5, 0);
        let m = Memory::with_minimal_atomicity(layout).unwrap();
        assert_eq!(m.atomicity(), 5);
    }

    #[test]
    fn read_write_round_trip() {
        let mut layout = Layout::new();
        let x = layout.register("x", 4, 3);
        let mut m = Memory::new(layout, 4).unwrap();
        assert_eq!(
            m.apply(&Op::Read(x)).unwrap(),
            OpResult::Value(Value::new(3))
        );
        m.apply(&Op::Write(x, Value::new(9))).unwrap();
        assert_eq!(m.get(x), Value::new(9));
    }

    #[test]
    fn over_wide_writes_are_structured_errors() {
        // A plain write that exceeds the register width must surface as
        // `ValueTooWide` with the register untouched — not be silently
        // masked (the historical behavior, which hid real overflow bugs
        // like the bakery's bounded tickets behind truncated values).
        let mut layout = Layout::new();
        let x = layout.register("x", 2, 0);
        let mut m = Memory::new(layout, 2).unwrap();
        let err = m.apply(&Op::Write(x, Value::new(0b111))).unwrap_err();
        assert_eq!(
            err,
            MemoryError::ValueTooWide {
                register: x,
                width: 2,
                value: Value::new(0b111),
            }
        );
        assert_eq!(m.get(x), Value::ZERO, "failed writes must not land");
        // `poke`, the test/setup hook, still masks.
        m.poke(x, Value::new(0b111));
        assert_eq!(m.get(x), Value::new(0b11));
    }

    #[test]
    fn over_wide_packed_writes_are_rejected_atomically() {
        let mut layout = Layout::new();
        let x = layout.register("x", 4, 0);
        let y = layout.register("y", 2, 0);
        let w = layout.pack(&[x, y]).unwrap();
        let mut m = Memory::new(layout, 8).unwrap();
        let err = m
            .apply(&Op::WriteWord(
                w,
                vec![(x, Value::new(5)), (y, Value::new(7))],
            ))
            .unwrap_err();
        assert!(matches!(err, MemoryError::ValueTooWide { register, .. } if register == y));
        // No field of the failed word write may land.
        assert_eq!(m.get(x), Value::ZERO);
        assert_eq!(m.get(y), Value::ZERO);
    }

    #[test]
    fn bit_ops_respect_semantics() {
        let (layout, b) = bit_layout();
        let mut m = Memory::new(layout, 1).unwrap();
        assert_eq!(
            m.apply(&Op::Bit(b, BitOp::TestAndSet)).unwrap(),
            OpResult::Value(Value::from(false))
        );
        assert_eq!(m.get(b), Value::ONE);
        assert_eq!(
            m.apply(&Op::Bit(b, BitOp::TestAndSet)).unwrap(),
            OpResult::Value(Value::from(true))
        );
        assert_eq!(
            m.apply(&Op::Bit(b, BitOp::TestAndFlip)).unwrap(),
            OpResult::Value(Value::from(true))
        );
        assert_eq!(m.get(b), Value::ZERO);
        assert_eq!(m.apply(&Op::Bit(b, BitOp::Flip)).unwrap(), OpResult::None);
        assert_eq!(m.get(b), Value::ONE);
    }

    #[test]
    fn bit_op_on_wide_register_rejected() {
        let mut layout = Layout::new();
        let x = layout.register("x", 2, 0);
        let mut m = Memory::new(layout, 2).unwrap();
        assert!(matches!(
            m.apply(&Op::Bit(x, BitOp::Read)),
            Err(MemoryError::NotABit { .. })
        ));
    }

    #[test]
    fn packed_word_access() {
        let mut layout = Layout::new();
        let x = layout.register("x", 4, 1);
        let y = layout.register("y", 4, 2);
        let w = layout.pack(&[x, y]).unwrap();
        let mut m = Memory::new(layout, 8).unwrap();

        let r = m.apply(&Op::ReadWord(w)).unwrap();
        assert_eq!(r.values(), &[Value::new(1), Value::new(2)]);

        m.apply(&Op::WriteWord(w, vec![(y, Value::new(7))]))
            .unwrap();
        assert_eq!(m.get(x), Value::new(1));
        assert_eq!(m.get(y), Value::new(7));
    }

    #[test]
    fn packed_write_rejects_foreign_field() {
        let mut layout = Layout::new();
        let x = layout.bit("x", false);
        let y = layout.bit("y", false);
        let z = layout.bit("z", false);
        let w = layout.pack(&[x, y]).unwrap();
        let mut m = Memory::new(layout, 2).unwrap();
        assert!(matches!(
            m.apply(&Op::WriteWord(w, vec![(z, Value::ONE)])),
            Err(MemoryError::FieldNotInWord { .. })
        ));
    }

    #[test]
    fn unknown_register_errors() {
        let (layout, _) = bit_layout();
        let mut m = Memory::new(layout, 1).unwrap();
        let ghost = RegisterId::new(42);
        assert!(matches!(
            m.apply(&Op::Read(ghost)),
            Err(MemoryError::UnknownRegister(_))
        ));
        assert!(matches!(
            m.apply(&Op::ReadWord(WordId::new(3))),
            Err(MemoryError::UnknownWord(_))
        ));
    }

    #[test]
    fn reset_restores_initial_values() {
        let mut layout = Layout::new();
        let x = layout.register("x", 4, 5);
        let mut m = Memory::new(layout, 4).unwrap();
        m.apply(&Op::Write(x, Value::new(1))).unwrap();
        m.reset();
        assert_eq!(m.get(x), Value::new(5));
    }

    #[test]
    fn writes_through_values_mut_show_in_snapshot_eq_and_hash() {
        use std::collections::HashSet;
        let mut layout = Layout::new();
        let x = layout.register("x", 4, 0);
        let y = layout.register("y", 4, 0);
        let m1 = Memory::new(layout, 4).unwrap();
        let mut m2 = m1.clone();
        m2.values_mut()[y.index()] = Value::new(9);
        assert_eq!(m2.snapshot(), &[Value::ZERO, Value::new(9)]);
        assert_eq!(m2.get(x), Value::ZERO);
        assert_ne!(m1, m2);
        let mut set = HashSet::new();
        set.insert(m2.clone());
        assert!(!set.contains(&m1));
        // Writing the original image back makes the two equal again, in
        // `==` and in `Hash`.
        m2.values_mut().copy_from_slice(m1.snapshot());
        assert_eq!(m1, m2);
        assert!(!set.contains(&m2));
        set.insert(m1.clone());
        assert!(set.contains(&m2));
    }

    #[test]
    fn equality_and_hash_track_values_only() {
        use std::collections::HashSet;
        let (layout, b) = bit_layout();
        let m1 = Memory::new(layout.clone(), 1).unwrap();
        let mut m2 = m1.clone();
        assert_eq!(m1, m2);
        m2.poke(b, Value::ONE);
        assert_ne!(m1, m2);
        let mut set = HashSet::new();
        set.insert(m1.clone());
        assert!(set.contains(&m1));
        assert!(!set.contains(&m2));
    }
}

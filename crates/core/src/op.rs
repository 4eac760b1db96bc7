//! Shared-memory operations, their results, and process steps.

use std::fmt;

use crate::bitop::BitOp;
use crate::ids::{RegisterId, WordId};
use crate::layout::Layout;
use crate::value::Value;

/// One atomic shared-memory operation.
///
/// `Read`, `Write` and `Bit` touch a single register; `ReadWord` and
/// `WriteWord` atomically access a packed word (multi-grain access in the
/// style of \[MS93\]). An operation is one *event* in the paper's run
/// semantics, and counts as one step for step complexity.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Atomically read a register; the result is its value.
    Read(RegisterId),
    /// Atomically write a value to a register; no result.
    Write(RegisterId, Value),
    /// Apply one of the eight single-bit operations to a 1-bit register.
    Bit(RegisterId, BitOp),
    /// Atomically read every field of a packed word.
    ReadWord(WordId),
    /// Atomically write a subset of the fields of a packed word.
    WriteWord(WordId, Vec<(RegisterId, Value)>),
}

/// Whether an access reads, writes, or does both (read–modify–write).
///
/// The paper's mutual-exclusion bounds distinguish *read-step* and
/// *write-step* complexity (Section 2.2); bit operations that both return
/// and mutate are classified as [`AccessClass::ReadWrite`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// The access only observes memory.
    Read,
    /// The access only mutates memory.
    Write,
    /// The access observes and mutates in one step (e.g. `test-and-set`).
    ReadWrite,
}

impl AccessClass {
    /// Does this access observe memory?
    pub const fn reads(self) -> bool {
        matches!(self, AccessClass::Read | AccessClass::ReadWrite)
    }

    /// Does this access mutate memory?
    pub const fn writes(self) -> bool {
        matches!(self, AccessClass::Write | AccessClass::ReadWrite)
    }
}

impl Op {
    /// Classifies the access as read, write, or read–modify–write.
    pub fn class(&self) -> AccessClass {
        match self {
            Op::Read(_) | Op::ReadWord(_) => AccessClass::Read,
            Op::Write(..) | Op::WriteWord(..) => AccessClass::Write,
            Op::Bit(_, b) => match (b.returns_value(), b.mutates()) {
                (true, true) => AccessClass::ReadWrite,
                (true, false) => AccessClass::Read,
                (false, true) => AccessClass::Write,
                // `skip` neither reads nor writes, but it still occupies an
                // atomic access to the register; classify as a read.
                (false, false) => AccessClass::Read,
            },
        }
    }

    /// The registers this operation accesses, in field order.
    ///
    /// For packed-word operations this is every *accessed* field: all
    /// members for `ReadWord`, the written subset for `WriteWord`.
    pub fn registers<'a>(&'a self, layout: &'a Layout) -> Vec<RegisterId> {
        match self {
            Op::Read(r) | Op::Write(r, _) | Op::Bit(r, _) => vec![*r],
            Op::ReadWord(w) => layout.word_members(*w).unwrap_or(&[]).to_vec(),
            Op::WriteWord(_, fields) => fields.iter().map(|&(r, _)| r).collect(),
        }
    }

    /// The read/write footprint of this operation: its accessed registers,
    /// split into read and write location sets by [`Op::class`].
    ///
    /// Two operations whose footprints are
    /// [`independent`](crate::Footprint::independent) commute; the
    /// partial-order-reduced explorer in `cfc-verify` is built on this
    /// relation.
    pub fn footprint(&self, layout: &Layout) -> crate::Footprint {
        crate::Footprint::of_op(self, layout)
    }

    /// The total number of bits this operation touches.
    ///
    /// The corollary to Theorem 1 counts accesses *to shared bits*: one
    /// access to an `l`-bit register is `l` bit accesses.
    pub fn bit_width(&self, layout: &Layout) -> u64 {
        self.registers(layout)
            .iter()
            .map(|&r| u64::from(layout.width(r)))
            .sum()
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read(r) => write!(f, "read({r})"),
            Op::Write(r, v) => write!(f, "write({r}, {v})"),
            Op::Bit(r, b) => write!(f, "{b}({r})"),
            Op::ReadWord(w) => write!(f, "read-word({w})"),
            Op::WriteWord(w, fields) => {
                write!(f, "write-word({w}")?;
                for (r, v) in fields {
                    write!(f, ", {r}={v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// The result of applying an [`Op`] to memory.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum OpResult {
    /// The operation returned nothing (writes; non-returning bit ops).
    #[default]
    None,
    /// The operation returned a single value.
    Value(Value),
    /// The operation returned one value per accessed field (`ReadWord`).
    Values(Vec<Value>),
}

impl OpResult {
    /// The returned value.
    ///
    /// # Panics
    ///
    /// Panics if the result is not a single value; algorithms call this only
    /// on the results of operations that return one value.
    pub fn value(&self) -> Value {
        match self {
            OpResult::Value(v) => *v,
            other => panic!("expected single value result, got {other:?}"),
        }
    }

    /// The returned value interpreted as a bit.
    ///
    /// # Panics
    ///
    /// Panics if the result is not a single value.
    pub fn bit(&self) -> bool {
        self.value().bit()
    }

    /// The returned values of a multi-field read.
    ///
    /// # Panics
    ///
    /// Panics if the result is not a `Values` vector.
    pub fn values(&self) -> &[Value] {
        match self {
            OpResult::Values(vs) => vs,
            other => panic!("expected multi-value result, got {other:?}"),
        }
    }

    /// Returns `true` for [`OpResult::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, OpResult::None)
    }
}

/// The next atomic step a process wishes to take.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// Access shared memory.
    Op(Op),
    /// Perform local computation only (does not count toward step
    /// complexity).
    Internal,
    /// The process has terminated.
    Halt,
}

impl Step {
    /// Returns the contained operation, if this step accesses memory.
    pub fn op(&self) -> Option<&Op> {
        match self {
            Step::Op(op) => Some(op),
            _ => None,
        }
    }

    /// The read/write footprint of this step: the operation's footprint,
    /// or the empty footprint for [`Step::Internal`] and [`Step::Halt`]
    /// (purely local steps are independent of everything).
    pub fn footprint(&self, layout: &Layout) -> crate::Footprint {
        crate::Footprint::of_step(self, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_of_plain_ops() {
        let r = RegisterId::new(0);
        assert_eq!(Op::Read(r).class(), AccessClass::Read);
        assert_eq!(Op::Write(r, Value::ONE).class(), AccessClass::Write);
        assert_eq!(Op::ReadWord(WordId::new(0)).class(), AccessClass::Read);
        assert_eq!(
            Op::WriteWord(WordId::new(0), vec![(r, Value::ONE)]).class(),
            AccessClass::Write
        );
    }

    #[test]
    fn classification_of_bit_ops() {
        let r = RegisterId::new(0);
        assert_eq!(Op::Bit(r, BitOp::Read).class(), AccessClass::Read);
        assert_eq!(Op::Bit(r, BitOp::Skip).class(), AccessClass::Read);
        assert_eq!(Op::Bit(r, BitOp::Write1).class(), AccessClass::Write);
        assert_eq!(Op::Bit(r, BitOp::Flip).class(), AccessClass::Write);
        assert_eq!(Op::Bit(r, BitOp::TestAndSet).class(), AccessClass::ReadWrite);
        assert_eq!(Op::Bit(r, BitOp::TestAndFlip).class(), AccessClass::ReadWrite);
    }

    #[test]
    fn access_class_predicates() {
        assert!(AccessClass::Read.reads());
        assert!(!AccessClass::Read.writes());
        assert!(AccessClass::ReadWrite.reads());
        assert!(AccessClass::ReadWrite.writes());
        assert!(AccessClass::Write.writes());
    }

    #[test]
    fn registers_and_bit_width() {
        let mut layout = Layout::new();
        let x = layout.register("x", 4, 0);
        let y = layout.register("y", 3, 0);
        let w = layout.pack(&[x, y]).unwrap();

        assert_eq!(Op::Read(x).registers(&layout), vec![x]);
        assert_eq!(Op::ReadWord(w).registers(&layout), vec![x, y]);
        assert_eq!(
            Op::WriteWord(w, vec![(y, Value::ONE)]).registers(&layout),
            vec![y]
        );
        assert_eq!(Op::Read(x).bit_width(&layout), 4);
        assert_eq!(Op::ReadWord(w).bit_width(&layout), 7);
    }

    #[test]
    fn op_result_accessors() {
        assert!(OpResult::None.is_none());
        assert_eq!(OpResult::Value(Value::new(3)).value(), Value::new(3));
        assert!(OpResult::Value(Value::ONE).bit());
        let vs = OpResult::Values(vec![Value::ZERO, Value::ONE]);
        assert_eq!(vs.values().len(), 2);
    }

    #[test]
    #[should_panic(expected = "expected single value")]
    fn op_result_value_panics_on_none() {
        let _ = OpResult::None.value();
    }

    #[test]
    fn display_forms() {
        let r = RegisterId::new(2);
        assert_eq!(Op::Read(r).to_string(), "read(r2)");
        assert_eq!(Op::Write(r, Value::new(5)).to_string(), "write(r2, 5)");
        assert_eq!(
            Op::Bit(r, BitOp::TestAndSet).to_string(),
            "test-and-set(r2)"
        );
    }
}

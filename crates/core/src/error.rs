//! Error types for layout construction, memory access, and execution.

use std::error::Error;
use std::fmt;

use crate::ids::{RegisterId, WordId};
use crate::value::Value;

/// An error building a [`Layout`](crate::Layout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// A register width was zero or exceeded [`MAX_WIDTH`](crate::MAX_WIDTH).
    InvalidWidth {
        /// The offending register's name.
        name: String,
        /// The requested width.
        width: u32,
    },
    /// An initial value did not fit in the register's declared width.
    InitTooWide {
        /// The offending register's name.
        name: String,
        /// The declared width.
        width: u32,
        /// The requested initial value (raw).
        init: u64,
    },
    /// A register was packed into more than one word.
    AlreadyPacked(RegisterId),
    /// A pack request named a register that does not exist.
    UnknownRegister(RegisterId),
    /// A pack request contained no registers.
    EmptyWord,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::InvalidWidth { name, width } => {
                write!(f, "register `{name}` has invalid width {width}")
            }
            LayoutError::InitTooWide { name, width, init } => {
                write!(
                    f,
                    "initial value {init} of register `{name}` does not fit in {width} bits"
                )
            }
            LayoutError::AlreadyPacked(r) => {
                write!(f, "register {r} is already packed into a word")
            }
            LayoutError::UnknownRegister(r) => write!(f, "unknown register {r}"),
            LayoutError::EmptyWord => write!(f, "a packed word must contain a register"),
        }
    }
}

impl Error for LayoutError {}

/// An error accessing shared [`Memory`](crate::Memory).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemoryError {
    /// A register is wider than the system's atomicity, so it can never be
    /// accessed in one atomic step.
    WidthExceedsAtomicity {
        /// The offending register.
        register: RegisterId,
        /// The register's width.
        width: u32,
        /// The system atomicity `l`.
        atomicity: u32,
    },
    /// A packed word is wider than the system's atomicity.
    WordExceedsAtomicity {
        /// The offending word.
        word: WordId,
        /// The word's total width.
        width: u32,
        /// The system atomicity `l`.
        atomicity: u32,
    },
    /// A single-bit operation was applied to a register wider than one bit.
    NotABit {
        /// The offending register.
        register: RegisterId,
        /// The register's width.
        width: u32,
    },
    /// An access named a register that does not exist.
    UnknownRegister(RegisterId),
    /// An access named a packed word that does not exist.
    UnknownWord(WordId),
    /// A packed write named a register outside the word.
    FieldNotInWord {
        /// The word being written.
        word: WordId,
        /// The register that is not a member of the word.
        register: RegisterId,
    },
    /// The atomicity was zero or exceeded [`MAX_WIDTH`](crate::MAX_WIDTH).
    InvalidAtomicity(u32),
    /// A plain or packed write carried a value wider than its destination
    /// register. Such a write is a bug in the issuing algorithm (or a
    /// deliberately bounded simulation overflowing, like the bakery's
    /// tickets), so it surfaces as a structured error instead of being
    /// silently truncated.
    ValueTooWide {
        /// The register being written.
        register: RegisterId,
        /// The register's width.
        width: u32,
        /// The over-wide value.
        value: Value,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::WidthExceedsAtomicity {
                register,
                width,
                atomicity,
            } => write!(
                f,
                "register {register} has width {width} but atomicity is {atomicity}"
            ),
            MemoryError::WordExceedsAtomicity {
                word,
                width,
                atomicity,
            } => write!(
                f,
                "packed word {word} has width {width} but atomicity is {atomicity}"
            ),
            MemoryError::NotABit { register, width } => {
                write!(
                    f,
                    "bit operation applied to register {register} of width {width}"
                )
            }
            MemoryError::UnknownRegister(r) => write!(f, "unknown register {r}"),
            MemoryError::UnknownWord(w) => write!(f, "unknown packed word {w}"),
            MemoryError::FieldNotInWord { word, register } => {
                write!(f, "register {register} is not a field of word {word}")
            }
            MemoryError::InvalidAtomicity(l) => write!(f, "invalid atomicity {l}"),
            MemoryError::ValueTooWide {
                register,
                width,
                value,
            } => write!(
                f,
                "value {} does not fit register {register} of width {width}",
                value.raw()
            ),
        }
    }
}

impl Error for MemoryError {}

/// An error during a run of the [`Executor`](crate::Executor).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The event budget was exhausted before the run quiesced; the run may
    /// contain a livelock, or the budget was simply too small.
    Budget {
        /// The number of events executed before giving up.
        events: u64,
    },
    /// A process issued an invalid memory operation.
    Memory(MemoryError),
    /// The scheduler picked a process that is not runnable.
    NotRunnable(crate::ProcessId),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Budget { events } => {
                write!(f, "event budget exhausted after {events} events")
            }
            ExecError::Memory(e) => write!(f, "memory error: {e}"),
            ExecError::NotRunnable(p) => write!(f, "scheduled process {p} is not runnable"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemoryError> for ExecError {
    fn from(e: MemoryError) -> Self {
        ExecError::Memory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = MemoryError::NotABit {
            register: RegisterId::new(3),
            width: 8,
        };
        assert_eq!(
            e.to_string(),
            "bit operation applied to register r3 of width 8"
        );
        let e = ExecError::Budget { events: 10 };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn exec_error_wraps_memory_error() {
        let inner = MemoryError::UnknownRegister(RegisterId::new(1));
        let outer = ExecError::from(inner.clone());
        assert_eq!(outer, ExecError::Memory(inner));
        assert!(Error::source(&outer).is_some());
    }
}

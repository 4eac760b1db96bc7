//! The naming-algorithm abstraction.

use cfc_core::{Layout, Memory, MemoryError, Process, SymmetryGroup};

use crate::model::Model;

/// A wait-free naming algorithm (Section 3): assigns unique names from
/// `1..=n` to `n` initially **identical** processes.
///
/// Symmetry is enforced structurally: [`NamingAlgorithm::process`] takes no
/// process identity — every participant starts from the same state and can
/// diverge only through the values shared bits return.
///
/// Implementations must be wait-free: a process terminates within
/// [`NamingAlgorithm::step_budget`] of its **own** steps regardless of the
/// scheduling and crashes of others.
pub trait NamingAlgorithm {
    /// The participant process type.
    type Proc: Process;

    /// A human-readable name for reports.
    fn name(&self) -> &str;

    /// The number of participating processes (and the name-space size).
    fn n(&self) -> usize;

    /// The model whose operations this algorithm uses.
    fn model(&self) -> Model;

    /// The shared bit layout.
    fn layout(&self) -> Layout;

    /// One (identical) participant process.
    fn process(&self) -> Self::Proc;

    /// An upper bound on the number of steps any participant takes before
    /// halting, regardless of scheduling and crashes (the wait-freedom
    /// budget). Tests assert it.
    fn step_budget(&self) -> u64;

    /// A fresh shared memory (atomicity 1: the naming model is shared
    /// bits).
    ///
    /// # Errors
    ///
    /// Propagates layout validation errors (none for well-formed
    /// algorithms).
    fn memory(&self) -> Result<Memory, MemoryError> {
        Memory::new(self.layout(), 1)
    }

    /// `n` identical participant processes.
    fn processes(&self) -> Vec<Self::Proc> {
        (0..self.n()).map(|_| self.process()).collect()
    }

    /// The process-symmetry group: the **full** group over all `n`
    /// participants.
    ///
    /// Symmetry is structural for naming — [`NamingAlgorithm::process`]
    /// takes no identity, so every participant starts identical and any
    /// permutation of the process vector is an automorphism of the state
    /// graph. The checkers in `cfc-verify` do not read this group: they
    /// derive the same classes from the processes they build
    /// ([`SymmetryGroup::of_identical`]). It serves callers that need the
    /// group without building processes, such as a benchmark that
    /// canonicalizes a corpus of states, and a workspace test holds it
    /// equal to the derivation for every modeled family.
    fn symmetry(&self) -> SymmetryGroup {
        SymmetryGroup::full(self.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{Op, OpResult, RegisterId, Step, Value};

    /// A one-process "algorithm" used to exercise the trait's defaults.
    #[derive(Clone, Debug)]
    struct Trivial {
        layout: Layout,
        bit: RegisterId,
    }

    impl Trivial {
        fn new() -> Self {
            let mut layout = Layout::new();
            let bit = layout.bit("b", false);
            Trivial { layout, bit }
        }
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct TrivialProc {
        bit: RegisterId,
        done: bool,
    }

    impl Process for TrivialProc {
        fn current(&self) -> Step {
            if self.done {
                Step::Halt
            } else {
                Step::Op(Op::Bit(self.bit, cfc_core::BitOp::TestAndSet))
            }
        }
        fn advance(&mut self, _: OpResult) {
            self.done = true;
        }
        fn output(&self) -> Option<Value> {
            self.done.then_some(Value::ONE)
        }
    }

    impl NamingAlgorithm for Trivial {
        type Proc = TrivialProc;
        fn name(&self) -> &str {
            "trivial"
        }
        fn n(&self) -> usize {
            1
        }
        fn model(&self) -> Model {
            Model::TAS_ONLY
        }
        fn layout(&self) -> Layout {
            self.layout.clone()
        }
        fn process(&self) -> TrivialProc {
            TrivialProc {
                bit: self.bit,
                done: false,
            }
        }
        fn step_budget(&self) -> u64 {
            1
        }
    }

    #[test]
    fn defaults_build_memory_and_processes() {
        let alg = Trivial::new();
        let memory = alg.memory().unwrap();
        assert_eq!(memory.atomicity(), 1);
        let procs = alg.processes();
        assert_eq!(procs.len(), 1);
        // Identical processes: all equal at construction.
        let (a, b) = (alg.process(), alg.process());
        assert_eq!(a, b);
    }
}

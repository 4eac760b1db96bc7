//! A plain test-and-set spin lock over one shared bit.
//!
//! The simplest mutual-exclusion algorithm expressible in the model:
//! entry spins on `test-and-set(lock)` until it reads `0`, exit writes
//! `0` back. It is trivially safe and deadlock-free — some spinner's
//! `test-and-set` succeeds whenever the bit is clear — but it carries
//! **no** fairness whatsoever: a departing owner can immediately win the
//! bit again, overtaking a spinning waiter forever even under weak
//! fairness. The fair-cycle liveness checker in `cfc-verify` exhibits
//! exactly that lasso, which is why this lock lives here as the
//! starvation baseline against Peterson's bounded bypass and the
//! bakery's FCFS order.

use cfc_core::{
    BitOp, Layout, Op, OpResult, ProcessId, RegisterId, RegisterSet, Step, SymmetryGroup, Value,
};

use crate::algorithm::{LockProcess, MutexAlgorithm};
use crate::mutation::TasSpinMutation;

/// The one-bit test-and-set spin lock for `n` processes.
///
/// # Examples
///
/// ```
/// use cfc_mutex::{MutexAlgorithm, TasSpin};
/// use cfc_core::ProcessId;
///
/// let alg = TasSpin::new(3);
/// assert_eq!(alg.atomicity(), 1);
/// // Contention-free, a trip is two accesses to one bit.
/// let trip = cfc_mutex::measure::contention_free_trip(&alg, ProcessId::new(0)).unwrap();
/// assert_eq!(trip.total.steps, 2);
/// assert_eq!(trip.total.registers, 1);
/// ```
#[derive(Clone, Debug)]
pub struct TasSpin {
    n: usize,
    layout: Layout,
    bit: RegisterId,
    mutation: Option<TasSpinMutation>,
}

impl TasSpin {
    /// Creates the lock for `n ≥ 1` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let mut layout = Layout::new();
        let bit = layout.bit("lock", false);
        TasSpin {
            n,
            layout,
            bit,
            mutation: None,
        }
    }

    /// Plants a deliberate bug (a test-only fixture for the
    /// checker-sensitivity suite; see [`crate::mutation`]).
    #[must_use]
    pub fn with_mutation(mut self, mutation: TasSpinMutation) -> Self {
        self.mutation = Some(mutation);
        self
    }
}

impl MutexAlgorithm for TasSpin {
    type Lock = TasSpinLock;

    fn name(&self) -> &str {
        "tas-spin"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn atomicity(&self) -> u32 {
        1
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn lock(&self, pid: ProcessId) -> TasSpinLock {
        assert!(pid.index() < self.n, "pid out of range");
        TasSpinLock {
            bit: self.bit,
            pc: Pc::Idle,
            mutation: self.mutation,
        }
    }

    /// Spinners are fully interchangeable — the lock state carries no
    /// identity at all.
    fn symmetry(&self) -> SymmetryGroup {
        SymmetryGroup::full(self.n)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// `await test-and-set(lock) = 0`.
    Spin,
    EntryDone,
    /// exit: `lock := 0`.
    ExitWrite,
    ExitDone,
}

/// The per-process state machine of [`TasSpin`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TasSpinLock {
    bit: RegisterId,
    pc: Pc,
    /// Test-only planted bug; `None` in every production construction.
    mutation: Option<TasSpinMutation>,
}

impl LockProcess for TasSpinLock {
    fn begin_entry(&mut self) {
        self.pc = Pc::Spin;
    }

    fn begin_exit(&mut self) {
        debug_assert_eq!(self.pc, Pc::EntryDone, "exit before entry completed");
        self.pc = Pc::ExitWrite;
    }

    fn current(&self) -> Step {
        match self.pc {
            Pc::Idle | Pc::EntryDone | Pc::ExitDone => Step::Halt,
            Pc::Spin => Step::Op(Op::Bit(self.bit, BitOp::TestAndSet)),
            Pc::ExitWrite => Step::Op(Op::Write(self.bit, Value::ZERO)),
        }
    }

    fn advance(&mut self, result: OpResult) {
        self.pc = match self.pc {
            Pc::Idle | Pc::EntryDone | Pc::ExitDone => {
                unreachable!("advance called outside a phase")
            }
            Pc::Spin => {
                let won = if self.mutation == Some(TasSpinMutation::InvertedTest) {
                    result.value() != Value::ZERO // inverted: "success" on a held lock
                } else {
                    result.value() == Value::ZERO
                };
                if won {
                    Pc::EntryDone // won the bit
                } else {
                    Pc::Spin // still taken: keep spinning
                }
            }
            Pc::ExitWrite => Pc::ExitDone,
        };
    }

    fn protocol_footprint(&self, out: &mut RegisterSet) -> bool {
        out.insert(self.bit);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{Process, RoundRobin, Scheduler, Section};

    #[test]
    fn all_spinners_complete_under_round_robin() {
        let alg = TasSpin::new(3);
        let mut exec = cfc_core::Executor::new(
            alg.memory().unwrap(),
            (0..3)
                .map(|i| alg.client_with_cs(ProcessId::new(i), 2, 1))
                .collect::<Vec<_>>(),
        );
        let mut sched = RoundRobin::new();
        loop {
            let runnable = exec.runnable();
            if runnable.is_empty() {
                break;
            }
            exec.step_process(sched.pick(&runnable).unwrap()).unwrap();
            let in_cs = (0..3)
                .filter(|&i| exec.process(ProcessId::new(i)).section() == Some(Section::Critical))
                .count();
            assert!(in_cs <= 1, "mutual exclusion violated");
        }
        assert!(exec.quiescent());
    }

    #[test]
    fn solo_trip_is_two_steps_one_bit() {
        let alg = TasSpin::new(4);
        let trip = crate::measure::contention_free_trip(&alg, ProcessId::new(2)).unwrap();
        assert_eq!(trip.entry.steps, 1);
        assert_eq!(trip.exit.steps, 1);
        assert_eq!(trip.total.registers, 1);
    }

    #[test]
    fn loser_spins_in_place() {
        let mut lock = TasSpin::new(2).lock(ProcessId::new(1));
        lock.begin_entry();
        let before = lock.clone();
        // A failed test-and-set (bit already 1) leaves the state machine
        // exactly where it was: the spin is a graph self-loop.
        lock.advance(OpResult::Value(Value::ONE));
        assert_eq!(lock, before);
        lock.advance(OpResult::Value(Value::ZERO));
        assert!(matches!(lock.current(), Step::Halt)); // entry complete
    }
}

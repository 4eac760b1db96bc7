//! Peterson's two-process mutual exclusion algorithm over three shared
//! bits.
//!
//! This is the atomicity-1 building block of the tournament construction
//! (the binary-tree idea is due to Peterson & Fischer [PF77]; Kessels
//! [Kes82] gives the classic bit-only tournament). Pseudocode for process
//! `i ∈ {0, 1}`, with `j = 1 − i`:
//!
//! ```text
//! entry: flag[i] := 1
//!        turn := j
//!        while flag[j] = 1 and turn = j { }
//! exit:  flag[i] := 0
//! ```
//!
//! Contention-free entry costs 3 accesses (`flag[i]`, `turn`, `flag[j]`)
//! and exit costs 1, touching 3 distinct bits.

use cfc_core::{Layout, Op, OpResult, ProcessId, RegisterId, RegisterSet, Step, Value};

use crate::algorithm::{LockProcess, MutexAlgorithm};
use crate::mutation::PetersonMutation;

/// Peterson's algorithm for exactly two processes, using three shared bits.
#[derive(Clone, Debug)]
pub struct PetersonTwo {
    layout: Layout,
    flags: [RegisterId; 2],
    turn: RegisterId,
    mutation: Option<PetersonMutation>,
}

impl PetersonTwo {
    /// Creates the two-process algorithm.
    pub fn new() -> Self {
        let mut layout = Layout::new();
        let f0 = layout.bit("flag[0]", false);
        let f1 = layout.bit("flag[1]", false);
        let turn = layout.bit("turn", false);
        PetersonTwo {
            layout,
            flags: [f0, f1],
            turn,
            mutation: None,
        }
    }

    /// Plants a deliberate bug (a test-only fixture for the
    /// checker-sensitivity suite; see [`crate::mutation`]).
    #[must_use]
    pub fn with_mutation(mut self, mutation: PetersonMutation) -> Self {
        self.mutation = Some(mutation);
        self
    }
}

impl Default for PetersonTwo {
    fn default() -> Self {
        Self::new()
    }
}

impl MutexAlgorithm for PetersonTwo {
    type Lock = PetersonLock;

    fn name(&self) -> &str {
        "peterson-2"
    }

    fn n(&self) -> usize {
        2
    }

    fn atomicity(&self) -> u32 {
        1
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn lock(&self, pid: ProcessId) -> PetersonLock {
        assert!(pid.index() < 2, "pid out of range");
        let mut lock = PetersonLock::new(self.flags, self.turn, pid.index());
        lock.mutation = self.mutation;
        lock
    }
}

/// Program counter of [`PetersonLock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// `flag[i] := 1`
    WriteFlag,
    /// `turn := j`
    WriteTurn,
    /// read `flag[j]`; 0 ⇒ enter
    ReadOtherFlag,
    /// read `turn`; ≠ j ⇒ enter, else re-check `flag[j]`
    ReadTurn,
    EntryDone,
    /// exit: `flag[i] := 0`
    ExitWriteFlag,
    ExitDone,
}

/// The per-process entry/exit state machine of [`PetersonTwo`].
///
/// Also used as the tree-node lock of the atomicity-1 tournament.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PetersonLock {
    flags: [RegisterId; 2],
    turn: RegisterId,
    /// This process's side: 0 or 1.
    me: usize,
    pc: Pc,
    /// Test-only planted bug; `None` in every production construction.
    pub(crate) mutation: Option<PetersonMutation>,
}

impl PetersonLock {
    /// Creates the lock for side `me ∈ {0, 1}`.
    pub fn new(flags: [RegisterId; 2], turn: RegisterId, me: usize) -> Self {
        assert!(me < 2, "side must be 0 or 1");
        PetersonLock {
            flags,
            turn,
            me,
            pc: Pc::Idle,
            mutation: None,
        }
    }

    fn other(&self) -> usize {
        1 - self.me
    }
}

impl LockProcess for PetersonLock {
    fn begin_entry(&mut self) {
        self.pc = if self.mutation == Some(PetersonMutation::TurnWriteFirst) {
            Pc::WriteTurn
        } else {
            Pc::WriteFlag
        };
    }

    fn begin_exit(&mut self) {
        debug_assert_eq!(self.pc, Pc::EntryDone, "exit before entry completed");
        self.pc = Pc::ExitWriteFlag;
    }

    fn current(&self) -> Step {
        match self.pc {
            Pc::Idle | Pc::EntryDone | Pc::ExitDone => Step::Halt,
            Pc::WriteFlag => Step::Op(Op::Write(self.flags[self.me], Value::ONE)),
            Pc::WriteTurn => Step::Op(Op::Write(self.turn, Value::new(self.other() as u64))),
            Pc::ReadOtherFlag => Step::Op(Op::Read(self.flags[self.other()])),
            Pc::ReadTurn => Step::Op(Op::Read(self.turn)),
            Pc::ExitWriteFlag => {
                let side = if self.mutation == Some(PetersonMutation::ExitWrongFlag) {
                    self.other()
                } else {
                    self.me
                };
                Step::Op(Op::Write(self.flags[side], Value::ZERO))
            }
        }
    }

    fn advance(&mut self, result: OpResult) {
        self.pc = match self.pc {
            Pc::Idle | Pc::EntryDone | Pc::ExitDone => {
                unreachable!("advance called outside a phase")
            }
            Pc::WriteFlag => {
                if self.mutation == Some(PetersonMutation::TurnWriteFirst) {
                    Pc::ReadOtherFlag // turn was already written first
                } else {
                    Pc::WriteTurn
                }
            }
            Pc::WriteTurn => {
                if self.mutation == Some(PetersonMutation::TurnWriteFirst) {
                    Pc::WriteFlag
                } else {
                    Pc::ReadOtherFlag
                }
            }
            Pc::ReadOtherFlag => {
                if result.bit() {
                    Pc::ReadTurn
                } else {
                    Pc::EntryDone
                }
            }
            Pc::ReadTurn => {
                if result.value().raw() as usize == self.other() {
                    Pc::ReadOtherFlag // still the other's turn: keep waiting
                } else {
                    Pc::EntryDone
                }
            }
            Pc::ExitWriteFlag => Pc::ExitDone,
        };
    }

    fn protocol_footprint(&self, out: &mut RegisterSet) -> bool {
        out.insert(self.flags[0]);
        out.insert(self.flags[1]);
        out.insert(self.turn);
        true
    }

    // Location: side + pc is the whole lock state, so the key is exact.
    // The two sides never share a key (`me` differs), which keeps the
    // per-location future sets from merging across processes. Only the
    // standalone two-process lock reaches this hook — the tournament's
    // composite lock keeps the full-state fallback because its nodes
    // hold different handles per process. Mutants keep the hook: each
    // planted bug perturbs behavior per-pc with a constant knob, so
    // location congruence is unaffected.
    fn lock_location(&self) -> Option<u64> {
        let tag = match self.pc {
            Pc::Idle => 0u64,
            Pc::WriteFlag => 1,
            Pc::WriteTurn => 2,
            Pc::ReadOtherFlag => 3,
            Pc::ReadTurn => 4,
            Pc::EntryDone => 5,
            Pc::ExitWriteFlag => 6,
            Pc::ExitDone => 7,
        };
        Some((self.me as u64) << 3 | tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::metrics::trip_complexities;
    use cfc_core::{run_solo, ExecConfig, FaultPlan, Process, RoundRobin, Section};

    #[test]
    fn contention_free_profile() {
        let alg = PetersonTwo::new();
        for side in 0..2 {
            let pid = ProcessId::new(side);
            let (trace, _, _) = run_solo(alg.memory().unwrap(), alg.client(pid, 1)).unwrap();
            let t = trip_complexities(&trace, &alg.layout(), ProcessId::new(0))[0];
            assert_eq!(t.entry.steps, 3); // flag, turn, other-flag
            assert_eq!(t.exit.steps, 1);
            assert_eq!(t.total.steps, 4);
            assert_eq!(t.total.registers, 3);
        }
    }

    #[test]
    fn both_sides_complete_under_fair_scheduling() {
        let alg = PetersonTwo::new();
        let clients = vec![
            alg.client(ProcessId::new(0), 4),
            alg.client(ProcessId::new(1), 4),
        ];
        let exec = cfc_core::run_schedule(
            alg.memory().unwrap(),
            clients,
            RoundRobin::new(),
            FaultPlan::new(),
            ExecConfig::default(),
        )
        .unwrap();
        assert!(exec.quiescent());
    }

    #[test]
    fn mutual_exclusion_under_round_robin() {
        use cfc_core::Scheduler;
        let alg = PetersonTwo::new();
        let mut exec = cfc_core::Executor::new(
            alg.memory().unwrap(),
            vec![
                alg.client_with_cs(ProcessId::new(0), 3, 1),
                alg.client_with_cs(ProcessId::new(1), 3, 1),
            ],
        );
        let mut sched = RoundRobin::new();
        loop {
            let runnable = exec.runnable();
            if runnable.is_empty() {
                break;
            }
            let pid = sched.pick(&runnable).unwrap();
            exec.step_process(pid).unwrap();
            let in_cs = (0..2)
                .filter(|&i| exec.process(ProcessId::new(i)).section() == Some(Section::Critical))
                .count();
            assert!(in_cs <= 1, "mutual exclusion violated");
        }
    }

    #[test]
    fn atomicity_is_one_bit() {
        assert_eq!(PetersonTwo::new().atomicity(), 1);
        assert_eq!(PetersonTwo::new().layout().max_register_width(), 1);
    }

    #[test]
    #[should_panic(expected = "side must be 0 or 1")]
    fn lock_rejects_bad_side() {
        let alg = PetersonTwo::new();
        let _ = PetersonLock::new(alg.flags, alg.turn, 2);
    }
}

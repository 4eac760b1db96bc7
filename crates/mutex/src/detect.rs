//! The contention detection problem (Section 2.3).
//!
//! When a process is activated it executes its protocol and terminates
//! with an output in `{0, 1}` such that (a) in every run at most one
//! process outputs `1`, and (b) in a run where only one process is
//! activated, it outputs `1`. This is single-shot mutual exclusion with
//! weak deadlock freedom — and it is the problem the paper's lower bounds
//! (Theorems 1 and 2) are actually proved for; Lemma 1 lifts them to
//! mutual exclusion.

use cfc_core::{Layout, Memory, MemoryError, Op, OpResult, Process, ProcessId, Step, Value};

use crate::algorithm::{LockProcess, MutexAlgorithm};

/// A contention-detection algorithm: layout plus one process per
/// participant, each of which halts with output `0` or `1`.
pub trait DetectionAlgorithm {
    /// The per-participant process type.
    type Proc: Process;

    /// A human-readable name for reports.
    fn name(&self) -> &str;

    /// The number of participating processes.
    fn n(&self) -> usize;

    /// The atomicity `l` this algorithm requires.
    fn atomicity(&self) -> u32;

    /// The shared register layout.
    fn layout(&self) -> Layout;

    /// The detection process for participant `pid`.
    fn process(&self, pid: ProcessId) -> Self::Proc;

    /// A fresh shared memory for this algorithm.
    ///
    /// # Errors
    ///
    /// Propagates layout validation errors (none for well-formed
    /// algorithms).
    fn memory(&self) -> Result<Memory, MemoryError> {
        Memory::new(self.layout(), self.atomicity())
    }
}

/// The Lemma 1 reduction: any mutual-exclusion algorithm solves contention
/// detection.
///
/// A process first checks a shared `claimed` bit (if set, some process
/// already won: output `0`); otherwise it runs the mutex entry code, and on
/// entering the critical section sets `claimed` and outputs `1`. Losers may
/// busy-wait in the entry code forever — permitted, since detection only
/// requires weak deadlock freedom.
///
/// Contention-free cost: entry code + 2 steps, entry registers + 1.
#[derive(Clone, Debug)]
pub struct MutexDetector<A> {
    inner: A,
    layout: Layout,
    claimed: cfc_core::RegisterId,
    name: String,
}

impl<A: MutexAlgorithm> MutexDetector<A> {
    /// Wraps a mutual-exclusion algorithm as a detector.
    pub fn new(inner: A) -> Self {
        // Extend the inner layout with the claimed bit; inner register ids
        // stay valid because ids are dense indices and we only append.
        let mut layout = inner.layout();
        let claimed = layout.bit("claimed", false);
        let name = format!("detect({})", inner.name());
        MutexDetector {
            inner,
            layout,
            claimed,
            name,
        }
    }
}

impl<A: MutexAlgorithm> DetectionAlgorithm for MutexDetector<A> {
    type Proc = MutexDetectorProc<A::Lock>;

    fn name(&self) -> &str {
        &self.name
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn atomicity(&self) -> u32 {
        self.inner.atomicity()
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn process(&self, pid: ProcessId) -> Self::Proc {
        MutexDetectorProc {
            lock: self.inner.lock(pid),
            claimed: self.claimed,
            pc: DetectPc::ReadClaimed,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum DetectPc {
    ReadClaimed,
    InEntry,
    WriteClaimed,
    Done(u64),
}

/// The process of [`MutexDetector`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MutexDetectorProc<L> {
    lock: L,
    claimed: cfc_core::RegisterId,
    pc: DetectPc,
}

impl<L: LockProcess> Process for MutexDetectorProc<L> {
    fn current(&self) -> Step {
        match self.pc {
            DetectPc::ReadClaimed => Step::Op(Op::Read(self.claimed)),
            DetectPc::InEntry => self.lock.current(),
            DetectPc::WriteClaimed => Step::Op(Op::Write(self.claimed, Value::ONE)),
            DetectPc::Done(_) => Step::Halt,
        }
    }

    fn advance(&mut self, result: OpResult) {
        match self.pc {
            DetectPc::ReadClaimed => {
                if result.bit() {
                    self.pc = DetectPc::Done(0);
                } else {
                    self.lock.begin_entry();
                    self.pc = DetectPc::InEntry;
                }
            }
            DetectPc::InEntry => {
                self.lock.advance(result);
                if matches!(self.lock.current(), Step::Halt) {
                    self.pc = DetectPc::WriteClaimed;
                }
            }
            DetectPc::WriteClaimed => self.pc = DetectPc::Done(1),
            DetectPc::Done(_) => unreachable!("halted detector advanced"),
        }
    }

    fn output(&self) -> Option<Value> {
        match self.pc {
            DetectPc::Done(v) => Some(Value::new(v)),
            _ => None,
        }
    }
}

/// A deliberately **unsafe** detector used to exercise the verification
/// machinery: every process writes `1` to a shared bit, reads it back, and
/// outputs `1`.
///
/// All its solo-run writes are identical across processes
/// (`W(p₁, m) = W(p₂, m)` for all `m`), so the premise of Lemma 2 fails —
/// and the run-merge attack of `cfc-verify` constructs a run in which two
/// processes output `1`, violating safety. This is the paper's lower-bound
/// proof made executable.
#[derive(Clone, Debug)]
pub struct BrokenDetector {
    n: usize,
    layout: Layout,
    s: cfc_core::RegisterId,
}

impl BrokenDetector {
    /// Creates the broken detector for `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let mut layout = Layout::new();
        let s = layout.bit("s", false);
        BrokenDetector { n, layout, s }
    }
}

impl DetectionAlgorithm for BrokenDetector {
    type Proc = BrokenDetectorProc;

    fn name(&self) -> &str {
        "broken-constant-detector"
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

    fn process(&self, _pid: ProcessId) -> Self::Proc {
        BrokenDetectorProc { s: self.s, pc: 0 }
    }
}

/// The process of [`BrokenDetector`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BrokenDetectorProc {
    s: cfc_core::RegisterId,
    pc: u8,
}

impl Process for BrokenDetectorProc {
    fn current(&self) -> Step {
        match self.pc {
            0 => Step::Op(Op::Write(self.s, Value::ONE)),
            1 => Step::Op(Op::Read(self.s)),
            _ => Step::Halt,
        }
    }

    fn advance(&mut self, _: OpResult) {
        self.pc += 1;
    }

    fn output(&self) -> Option<Value> {
        (self.pc >= 2).then_some(Value::ONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lamport::LamportFast;
    use cfc_core::{run_sequential, run_solo};

    #[test]
    fn mutex_detector_solo_outputs_one() {
        let det = MutexDetector::new(LamportFast::new(4));
        let (_, proc_, _) =
            run_solo(det.memory().unwrap(), det.process(ProcessId::new(1))).unwrap();
        assert_eq!(proc_.output(), Some(Value::ONE));
    }

    #[test]
    fn mutex_detector_sequential_has_one_winner() {
        let det = MutexDetector::new(LamportFast::new(3));
        let procs = (0..3).map(|i| det.process(ProcessId::new(i))).collect();
        let (_, _, procs) = run_sequential(det.memory().unwrap(), procs).unwrap();
        let winners = procs
            .iter()
            .filter(|p| p.output() == Some(Value::ONE))
            .count();
        assert_eq!(winners, 1);
        // The first process wins; the rest see the claimed bit.
        assert_eq!(procs[0].output(), Some(Value::ONE));
        assert_eq!(procs[1].output(), Some(Value::ZERO));
    }

    #[test]
    fn mutex_detector_cost_is_entry_plus_two() {
        use cfc_core::metrics::process_complexity;
        let det = MutexDetector::new(LamportFast::new(8));
        let pid = ProcessId::new(0);
        let (trace, _, _) = run_solo(det.memory().unwrap(), det.process(pid)).unwrap();
        let c = process_complexity(&trace, &det.layout(), ProcessId::new(0));
        // 5 entry accesses + read claimed + write claimed.
        assert_eq!(c.steps, 7);
        // b[0], x, y + claimed.
        assert_eq!(c.registers, 4);
    }

    #[test]
    fn broken_detector_all_win_sequentially() {
        let det = BrokenDetector::new(3);
        let procs = (0..3).map(|i| det.process(ProcessId::new(i))).collect();
        let (_, _, procs) = run_sequential(det.memory().unwrap(), procs).unwrap();
        // Every process outputs 1: safety is violated even sequentially.
        assert!(procs.iter().all(|p| p.output() == Some(Value::ONE)));
    }
}

//! Lamport's fast mutual exclusion algorithm [Lam87].
//!
//! The first algorithm with *constant* contention-free complexity: in the
//! absence of contention a process performs 5 shared accesses to enter its
//! critical section and 2 to exit — 7 accesses to 3 distinct registers —
//! independent of `n`. The price is registers of `⌈log₂(n+1)⌉` bits
//! (they hold process identities), i.e. atomicity `l = Θ(log n)`.
//!
//! Pseudocode for process `i` (identities are `1..=n`, `0` means "free"):
//!
//! ```text
//! start: b[i] := true
//!        x := i
//!        if y ≠ 0 { b[i] := false; await y = 0; goto start }
//!        y := i
//!        if x ≠ i {
//!            b[i] := false
//!            for j in 1..=n { await ¬b[j] }
//!            if y ≠ i { await y = 0; goto start }
//!        }
//!        -- critical section --
//! exit:  y := 0
//!        b[i] := false
//! ```
//!
//! The algorithm is deadlock-free but not starvation-free, and its
//! worst-case step complexity is unbounded [AT92].

use std::sync::Arc;

use cfc_core::{bits_for, Layout, Op, OpResult, ProcessId, RegisterId, Step, Value};

use crate::algorithm::{LockProcess, MutexAlgorithm};

/// The Lamport fast-mutex algorithm for `n` processes.
///
/// # Examples
///
/// ```
/// use cfc_mutex::{LamportFast, MutexAlgorithm};
/// use cfc_core::{run_solo, ProcessId};
/// use cfc_core::metrics::trip_complexities;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let alg = LamportFast::new(8);
/// let memory = alg.memory()?;
/// let (trace, _, _) = run_solo(memory, alg.client(ProcessId::new(3), 1))?;
/// // The solo trace indexes its lone process as pid 0.
/// let trip = trip_complexities(&trace, &alg.layout(), ProcessId::new(0))[0];
/// assert_eq!(trip.total.steps, 7);      // 5 entry + 2 exit
/// assert_eq!(trip.total.registers, 3);  // b[3], x, y
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct LamportFast {
    n: usize,
    width: u32,
    layout: Layout,
    x: RegisterId,
    y: RegisterId,
    b: Arc<[RegisterId]>,
}

impl LamportFast {
    /// Creates the algorithm for `n ≥ 1` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let width = bits_for(n as u64);
        let mut layout = Layout::new();
        let x = layout.register("x", width, 0);
        let y = layout.register("y", width, 0);
        let b: Arc<[RegisterId]> = layout.bits("b", n, false).into();
        LamportFast {
            n,
            width,
            layout,
            x,
            y,
            b,
        }
    }

    /// The register width (`⌈log₂(n+1)⌉` bits to hold ids `0..=n`).
    pub fn width(&self) -> u32 {
        self.width
    }
}

impl MutexAlgorithm for LamportFast {
    type Lock = LamportLock;

    fn name(&self) -> &str {
        "lamport-fast"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn atomicity(&self) -> u32 {
        self.width
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn lock(&self, pid: ProcessId) -> LamportLock {
        assert!(pid.index() < self.n, "pid out of range");
        LamportLock::new(self.x, self.y, Arc::clone(&self.b), pid.index())
    }
}

/// Program counter of [`LamportLock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// `b[i] := true`
    WriteB1,
    /// `x := i`
    WriteX,
    /// read `y`; 0 ⇒ proceed, else back off
    ReadY,
    /// `b[i] := false` before waiting for `y = 0`
    WriteB0Restart,
    /// `await y = 0`, then restart
    AwaitY,
    /// `y := i`
    WriteY,
    /// read `x`; still `i` ⇒ fast path into the critical section
    ReadX,
    /// slow path: `b[i] := false`
    WriteB0Slow,
    /// slow path: `await ¬b[j]` for each j in turn
    ScanB(u32),
    /// slow path: read `y`; `i` ⇒ enter, else wait for free and restart
    ReadY2,
    /// `await y = 0`, then restart
    AwaitY2,
    /// entry phase complete (at the critical-section boundary)
    EntryDone,
    /// exit: `y := 0`
    ExitWriteY,
    /// exit: `b[i] := false`
    ExitWriteB,
    /// exit phase complete
    ExitDone,
}

/// The per-process entry/exit state machine of [`LamportFast`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LamportLock {
    x: RegisterId,
    y: RegisterId,
    b: Arc<[RegisterId]>,
    /// Zero-based slot; the identity written to `x`/`y` is `slot + 1`.
    slot: usize,
    pc: Pc,
}

impl LamportLock {
    /// Creates the lock for `slot` (zero-based) among `b.len()` slots.
    pub fn new(x: RegisterId, y: RegisterId, b: Arc<[RegisterId]>, slot: usize) -> Self {
        assert!(slot < b.len(), "slot out of range");
        LamportLock {
            x,
            y,
            b,
            slot,
            pc: Pc::Idle,
        }
    }

    fn id(&self) -> Value {
        Value::new(self.slot as u64 + 1)
    }
}

impl LockProcess for LamportLock {
    fn begin_entry(&mut self) {
        self.pc = Pc::WriteB1;
    }

    fn begin_exit(&mut self) {
        debug_assert_eq!(self.pc, Pc::EntryDone, "exit before entry completed");
        self.pc = Pc::ExitWriteY;
    }

    fn current(&self) -> Step {
        match self.pc {
            Pc::Idle | Pc::EntryDone | Pc::ExitDone => Step::Halt,
            Pc::WriteB1 => Step::Op(Op::Write(self.b[self.slot], Value::ONE)),
            Pc::WriteX => Step::Op(Op::Write(self.x, self.id())),
            Pc::ReadY | Pc::AwaitY | Pc::ReadY2 | Pc::AwaitY2 => Step::Op(Op::Read(self.y)),
            Pc::WriteB0Restart | Pc::WriteB0Slow | Pc::ExitWriteB => {
                Step::Op(Op::Write(self.b[self.slot], Value::ZERO))
            }
            Pc::WriteY => Step::Op(Op::Write(self.y, self.id())),
            Pc::ReadX => Step::Op(Op::Read(self.x)),
            Pc::ScanB(j) => Step::Op(Op::Read(self.b[j as usize])),
            Pc::ExitWriteY => Step::Op(Op::Write(self.y, Value::ZERO)),
        }
    }

    fn protocol_footprint(&self, out: &mut cfc_core::RegisterSet) -> bool {
        out.insert(self.x);
        out.insert(self.y);
        out.extend(self.b.iter().copied());
        true
    }

    fn advance(&mut self, result: OpResult) {
        self.pc = match self.pc {
            Pc::Idle | Pc::EntryDone | Pc::ExitDone => {
                unreachable!("advance called outside a phase")
            }
            Pc::WriteB1 => Pc::WriteX,
            Pc::WriteX => Pc::ReadY,
            Pc::ReadY => {
                if result.value() == Value::ZERO {
                    Pc::WriteY
                } else {
                    Pc::WriteB0Restart
                }
            }
            Pc::WriteB0Restart => Pc::AwaitY,
            Pc::AwaitY => {
                if result.value() == Value::ZERO {
                    Pc::WriteB1
                } else {
                    Pc::AwaitY
                }
            }
            Pc::WriteY => Pc::ReadX,
            Pc::ReadX => {
                if result.value() == self.id() {
                    Pc::EntryDone
                } else {
                    Pc::WriteB0Slow
                }
            }
            Pc::WriteB0Slow => Pc::ScanB(0),
            Pc::ScanB(j) => {
                if result.bit() {
                    Pc::ScanB(j) // await ¬b[j]
                } else if (j as usize) + 1 < self.b.len() {
                    Pc::ScanB(j + 1)
                } else {
                    Pc::ReadY2
                }
            }
            Pc::ReadY2 => {
                let v = result.value();
                if v == self.id() {
                    Pc::EntryDone
                } else if v == Value::ZERO {
                    Pc::WriteB1 // y already free: restart immediately
                } else {
                    Pc::AwaitY2
                }
            }
            Pc::AwaitY2 => {
                if result.value() == Value::ZERO {
                    Pc::WriteB1
                } else {
                    Pc::AwaitY2
                }
            }
            Pc::ExitWriteY => Pc::ExitWriteB,
            Pc::ExitWriteB => Pc::ExitDone,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::metrics::trip_complexities;
    use cfc_core::{run_solo, ExecConfig, FaultPlan, RoundRobin, Section};

    #[test]
    fn contention_free_profile_matches_lam87() {
        // 5 entry accesses + 2 exit accesses, 3 distinct registers,
        // for every n and every participant.
        for n in [1usize, 2, 3, 8, 100] {
            let alg = LamportFast::new(n);
            for pid in [0, n - 1] {
                let pid = ProcessId::new(pid as u32);
                let (trace, _, _) = run_solo(alg.memory().unwrap(), alg.client(pid, 1)).unwrap();
                // Solo traces index the lone process as pid 0.
                let trips = trip_complexities(&trace, &alg.layout(), ProcessId::new(0));
                assert_eq!(trips.len(), 1);
                let t = trips[0];
                assert_eq!(t.entry.steps, 5, "n={n}");
                assert_eq!(t.exit.steps, 2, "n={n}");
                assert_eq!(t.total.steps, 7, "n={n}");
                assert_eq!(t.total.registers, 3, "n={n}");
                assert_eq!(t.total.read_steps, 2); // read y, read x
                assert_eq!(t.total.write_steps, 5);
            }
        }
    }

    #[test]
    fn solo_run_leaves_memory_clean() {
        let alg = LamportFast::new(4);
        let pid = ProcessId::new(2);
        let (_, _, memory) = run_solo(alg.memory().unwrap(), alg.client(pid, 1)).unwrap();
        // After a complete trip, y and all b flags are back to 0.
        assert_eq!(memory.get(alg.y), Value::ZERO);
        for &b in alg.b.iter() {
            assert_eq!(memory.get(b), Value::ZERO);
        }
    }

    #[test]
    fn two_processes_round_robin_both_complete() {
        let alg = LamportFast::new(2);
        let clients = vec![
            alg.client(ProcessId::new(0), 3),
            alg.client(ProcessId::new(1), 3),
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
        // Count processes in the critical section after every event.
        let alg = LamportFast::new(3);
        let mut exec = cfc_core::Executor::new(
            alg.memory().unwrap(),
            (0..3)
                .map(|i| alg.client_with_cs(ProcessId::new(i), 2, 1))
                .collect::<Vec<_>>(),
        );
        let mut sched = RoundRobin::new();
        use cfc_core::{Process, Scheduler};
        loop {
            let runnable = exec.runnable();
            if runnable.is_empty() {
                break;
            }
            let pid = sched.pick(&runnable).unwrap();
            exec.step_process(pid).unwrap();
            let in_cs = (0..3)
                .filter(|&i| exec.process(ProcessId::new(i)).section() == Some(Section::Critical))
                .count();
            assert!(in_cs <= 1, "mutual exclusion violated");
        }
    }

    #[test]
    fn atomicity_is_log_n() {
        assert_eq!(LamportFast::new(1).atomicity(), 1);
        assert_eq!(LamportFast::new(7).atomicity(), 3);
        assert_eq!(LamportFast::new(8).atomicity(), 4);
        assert_eq!(LamportFast::new(255).atomicity(), 8);
    }

    #[test]
    #[should_panic(expected = "pid out of range")]
    fn rejects_out_of_range_pid() {
        let alg = LamportFast::new(2);
        let _ = alg.lock(ProcessId::new(2));
    }
}

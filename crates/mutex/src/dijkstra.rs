//! Dijkstra's mutual exclusion algorithm [Dij65] — the problem's original
//! solution, cited by the paper as the source of the mutual exclusion
//! problem.
//!
//! Deadlock-free (not starvation-free), with Θ(n) contention-free step
//! complexity: even alone, a process scans every other participant's `c`
//! flag before entering. Together with [`Bakery`](crate::Bakery) it is
//! the baseline the paper's contention-free measure separates from
//! [Lam87]'s constant-cost fast path.
//!
//! Pseudocode for process `i` (`b`, `c` initialized `true`, `k`
//! arbitrary):
//!
//! ```text
//! entry: b[i] := false
//! L:     if k ≠ i {
//!            c[i] := true
//!            if b[k] { k := i }
//!            goto L
//!        } else {
//!            c[i] := false
//!            for j ≠ i { if ¬c[j] { goto L } }
//!        }
//! exit:  c[i] := true; b[i] := true
//! ```

use std::sync::Arc;

use cfc_core::{bits_for, Layout, Op, OpResult, ProcessId, RegisterId, RegisterSet, Step, Value};

use crate::algorithm::{LockProcess, MutexAlgorithm};

/// Dijkstra's algorithm for `n` processes.
#[derive(Clone, Debug)]
pub struct Dijkstra {
    n: usize,
    layout: Layout,
    b: Arc<[RegisterId]>,
    c: Arc<[RegisterId]>,
    k: RegisterId,
}

impl Dijkstra {
    /// Creates the algorithm for `n ≥ 1` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let mut layout = Layout::new();
        let b: Arc<[RegisterId]> = layout.bits("b", n, true).into();
        let c: Arc<[RegisterId]> = layout.bits("c", n, true).into();
        let k = layout.register("k", bits_for(n.saturating_sub(1) as u64), 0);
        Dijkstra { n, layout, b, c, k }
    }
}

impl MutexAlgorithm for Dijkstra {
    type Lock = DijkstraLock;

    fn name(&self) -> &str {
        "dijkstra"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn atomicity(&self) -> u32 {
        bits_for(self.n.saturating_sub(1) as u64)
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn lock(&self, pid: ProcessId) -> DijkstraLock {
        assert!(pid.index() < self.n, "pid out of range");
        DijkstraLock {
            b: Arc::clone(&self.b),
            c: Arc::clone(&self.c),
            k: self.k,
            me: pid.index() as u32,
            pc: Pc::Idle,
            k_seen: 0,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// `b[i] := false`.
    WriteB0,
    /// Read `k` (the loop head `L`).
    ReadK,
    /// `k ≠ i`: `c[i] := true`.
    WriteC1,
    /// Read `b[k]`; if set, claim the turn.
    ReadBk,
    /// `k := i`.
    WriteK,
    /// `k = i`: `c[i] := false`.
    WriteC0,
    /// Scanning `c[j]` for `j ≠ i`.
    ScanC(u32),
    EntryDone,
    /// exit: `c[i] := true`.
    ExitWriteC,
    /// exit: `b[i] := true`.
    ExitWriteB,
    ExitDone,
}

/// The per-process entry/exit state machine of [`Dijkstra`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DijkstraLock {
    b: Arc<[RegisterId]>,
    c: Arc<[RegisterId]>,
    k: RegisterId,
    me: u32,
    pc: Pc,
    k_seen: u32,
}

impl DijkstraLock {
    fn n(&self) -> u32 {
        self.b.len() as u32
    }

    fn next_scan(&self, from: u32) -> Pc {
        // Skip our own index; finishing the scan enters the CS.
        let mut j = from;
        if j == self.me {
            j += 1;
        }
        if j < self.n() {
            Pc::ScanC(j)
        } else {
            Pc::EntryDone
        }
    }
}

impl LockProcess for DijkstraLock {
    fn begin_entry(&mut self) {
        self.pc = Pc::WriteB0;
    }

    fn begin_exit(&mut self) {
        debug_assert_eq!(self.pc, Pc::EntryDone, "exit before entry completed");
        self.pc = Pc::ExitWriteC;
    }

    fn current(&self) -> Step {
        match self.pc {
            Pc::Idle | Pc::EntryDone | Pc::ExitDone => Step::Halt,
            Pc::WriteB0 => Step::Op(Op::Write(self.b[self.me as usize], Value::ZERO)),
            Pc::ReadK => Step::Op(Op::Read(self.k)),
            Pc::WriteC1 => Step::Op(Op::Write(self.c[self.me as usize], Value::ONE)),
            Pc::ReadBk => Step::Op(Op::Read(self.b[self.k_seen as usize])),
            Pc::WriteK => Step::Op(Op::Write(self.k, Value::new(self.me as u64))),
            Pc::WriteC0 => Step::Op(Op::Write(self.c[self.me as usize], Value::ZERO)),
            Pc::ScanC(j) => Step::Op(Op::Read(self.c[j as usize])),
            Pc::ExitWriteC => Step::Op(Op::Write(self.c[self.me as usize], Value::ONE)),
            Pc::ExitWriteB => Step::Op(Op::Write(self.b[self.me as usize], Value::ONE)),
        }
    }

    fn advance(&mut self, result: OpResult) {
        self.pc = match self.pc {
            Pc::Idle | Pc::EntryDone | Pc::ExitDone => {
                unreachable!("advance called outside a phase")
            }
            Pc::WriteB0 => Pc::ReadK,
            Pc::ReadK => {
                self.k_seen = result.value().raw() as u32;
                if self.k_seen == self.me {
                    Pc::WriteC0
                } else {
                    Pc::WriteC1
                }
            }
            Pc::WriteC1 => Pc::ReadBk,
            Pc::ReadBk => {
                if result.bit() {
                    Pc::WriteK // the current holder is passive: claim k
                } else {
                    Pc::ReadK // holder active: retry the loop
                }
            }
            Pc::WriteK => Pc::ReadK,
            Pc::WriteC0 => self.next_scan(0),
            Pc::ScanC(j) => {
                if result.bit() {
                    self.next_scan(j + 1)
                } else {
                    // Someone else is between C0 and the CS: back to L.
                    Pc::ReadK
                }
            }
            Pc::ExitWriteC => Pc::ExitWriteB,
            Pc::ExitWriteB => Pc::ExitDone,
        };
    }

    fn protocol_footprint(&self, out: &mut RegisterSet) -> bool {
        // A contender may read every `b`/`c` flag (the `b[k]` probe and
        // the full scan) and both reads and writes the turn register `k`:
        // the whole layout, in any phase.
        for &r in self.b.iter().chain(self.c.iter()) {
            out.insert(r);
        }
        out.insert(self.k);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use cfc_core::{Process, RoundRobin, Scheduler, Section};

    #[test]
    fn contention_free_cost_is_linear_in_n() {
        for n in [2usize, 4, 8, 16] {
            let alg = Dijkstra::new(n);
            // Process 0 starts with k = 0 (its own index): shortest path.
            let trip0 = measure::contention_free_trip(&alg, ProcessId::new(0)).unwrap();
            // b0, readk, c0, scan (n-1), exit 2 = n + 4.
            assert_eq!(trip0.total.steps, n as u64 + 4, "n={n}");
            // A process that must first claim k pays 4 more.
            let trip1 = measure::contention_free_trip(&alg, ProcessId::new(n as u32 - 1)).unwrap();
            assert_eq!(trip1.total.steps, n as u64 + 8, "n={n}");
            assert!(trip1.total.registers >= n as u64);
        }
    }

    #[test]
    fn mutual_exclusion_and_progress_under_round_robin() {
        let n = 3usize;
        let alg = Dijkstra::new(n);
        let mut exec = cfc_core::Executor::new(
            alg.memory().unwrap(),
            (0..n as u32)
                .map(|i| alg.client_with_cs(ProcessId::new(i), 2, 1))
                .collect::<Vec<_>>(),
        );
        let mut sched = RoundRobin::new();
        loop {
            let runnable = exec.runnable();
            if runnable.is_empty() {
                break;
            }
            let pid = sched.pick(&runnable).unwrap();
            exec.step_process(pid).unwrap();
            let in_cs = (0..n as u32)
                .filter(|&i| exec.process(ProcessId::new(i)).section() == Some(Section::Critical))
                .count();
            assert!(in_cs <= 1, "mutual exclusion violated");
        }
        assert!(exec.quiescent());
    }

    #[test]
    fn solo_trips_restore_flags() {
        let alg = Dijkstra::new(4);
        let (_, _, memory) =
            cfc_core::run_solo(alg.memory().unwrap(), alg.client(ProcessId::new(3), 2)).unwrap();
        for &r in alg.b.iter().chain(alg.c.iter()) {
            assert_eq!(memory.get(r), Value::ONE);
        }
        // k keeps pointing at the last owner.
        assert_eq!(memory.get(alg.k), Value::new(3));
    }

    #[test]
    fn atomicity_is_log_n() {
        assert_eq!(Dijkstra::new(2).atomicity(), 1);
        assert_eq!(Dijkstra::new(9).atomicity(), 4);
    }
}

//! Linear-scan naming with `test-and-set` only (Theorem 4.3).
//!
//! `n − 1` bits, initially `0`, numbered `1..n`. Each process scans them in
//! order applying `test-and-set`; it stops at the first bit whose old value
//! was `0` and takes that bit's number as its name, or the name `n` if
//! every operation returned `1`.
//!
//! Worst-case step complexity `n − 1` — the tight bound for the
//! `{test-and-set}` model on **all four** measures (even contention-free
//! register complexity is `n − 1` in this model, Theorem 7).

use std::sync::Arc;

use cfc_core::{BitOp, Layout, Op, OpResult, Process, RegisterId, RegisterSet, Step, Value};

use crate::algorithm::NamingAlgorithm;
use crate::model::Model;

/// The `test-and-set` linear-scan naming algorithm.
///
/// # Examples
///
/// ```
/// use cfc_naming::{NamingAlgorithm, TasScan};
/// use cfc_core::run_sequential;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let alg = TasScan::new(4);
/// let (_, _, procs) = run_sequential(alg.memory()?, alg.processes())?;
/// let names: Vec<u64> = procs
///     .iter()
///     .map(|p| cfc_core::Process::output(p).unwrap().raw())
///     .collect();
/// assert_eq!(names, vec![1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TasScan {
    n: usize,
    layout: Layout,
    bits: Arc<[RegisterId]>,
}

impl TasScan {
    /// Creates the algorithm for `n ≥ 1` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let mut layout = Layout::new();
        let bits: Arc<[RegisterId]> = layout.bits("name", n - 1, false).into();
        TasScan { n, layout, bits }
    }
}

impl NamingAlgorithm for TasScan {
    type Proc = TasScanProc;

    fn name(&self) -> &str {
        "tas-scan"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn model(&self) -> Model {
        Model::TAS_ONLY
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn process(&self) -> TasScanProc {
        TasScanProc {
            bits: Arc::clone(&self.bits),
            pc: if self.bits.is_empty() {
                // n = 1: no bits; the only process takes name 1 at once.
                ScanPc::Done(1)
            } else {
                ScanPc::Scan(0)
            },
        }
    }

    fn step_budget(&self) -> u64 {
        (self.n as u64).saturating_sub(1).max(1)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ScanPc {
    /// About to `test-and-set` bit `i`.
    Scan(u32),
    Done(u64),
}

/// The participant process of [`TasScan`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TasScanProc {
    bits: Arc<[RegisterId]>,
    pc: ScanPc,
}

impl Process for TasScanProc {
    fn current(&self) -> Step {
        match self.pc {
            ScanPc::Scan(i) => Step::Op(Op::Bit(self.bits[i as usize], BitOp::TestAndSet)),
            ScanPc::Done(_) => Step::Halt,
        }
    }

    fn advance(&mut self, result: OpResult) {
        let ScanPc::Scan(i) = self.pc else {
            unreachable!("halted process advanced")
        };
        self.pc = if !result.bit() {
            // Old value 0: this bit is ours; names are 1-based.
            ScanPc::Done(u64::from(i) + 1)
        } else if (i as usize) + 1 < self.bits.len() {
            ScanPc::Scan(i + 1)
        } else {
            // Every bit was taken: the name-space's last name.
            ScanPc::Done(self.bits.len() as u64 + 1)
        };
    }

    fn output(&self) -> Option<Value> {
        match self.pc {
            ScanPc::Done(name) => Some(Value::new(name)),
            _ => None,
        }
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(match self.pc {
            ScanPc::Scan(i) => u64::from(i) << 1,
            ScanPc::Done(name) => (name << 1) | 1,
        })
    }

    fn may_access(&self, out: &mut RegisterSet) -> bool {
        if let ScanPc::Scan(i) = self.pc {
            // The scan only ever moves right: bits before `i` are settled.
            out.extend(self.bits[i as usize..].iter().copied());
        }
        true
    }

    // The fingerprint already encodes the whole varying state (the pc),
    // and every participant runs the identical program — no identity in
    // the local state — so sharing location keys across processes only
    // merges states with equal step footprints and equal futures.
    fn location(&self) -> Option<u64> {
        self.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{run_sequential, ExecConfig, FaultPlan, Lockstep, ProcessId};

    #[test]
    fn sequential_names_are_in_order() {
        let alg = TasScan::new(5);
        let (_, _, procs) = run_sequential(alg.memory().unwrap(), alg.processes()).unwrap();
        let names: Vec<u64> = procs.iter().map(|p| p.output().unwrap().raw()).collect();
        assert_eq!(names, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_process_gets_name_one() {
        let alg = TasScan::new(1);
        let (_, _, procs) = run_sequential(alg.memory().unwrap(), alg.processes()).unwrap();
        assert_eq!(procs[0].output(), Some(Value::new(1)));
    }

    #[test]
    fn lockstep_adversary_forces_n_minus_1_steps() {
        // Theorem 6's schedule: identical processes in lockstep; some
        // process is forced through all n - 1 bits.
        let alg = TasScan::new(6);
        let exec = cfc_core::run_schedule(
            alg.memory().unwrap(),
            alg.processes(),
            Lockstep::new(),
            FaultPlan::new(),
            ExecConfig::default(),
        )
        .unwrap();
        let max_steps = (0..6)
            .map(|i| exec.steps_taken(ProcessId::new(i)))
            .max()
            .unwrap();
        assert_eq!(max_steps, 5);
        // All names distinct.
        let mut names: Vec<u64> = exec
            .outputs()
            .into_iter()
            .map(|o| o.unwrap().raw())
            .collect();
        names.sort_unstable();
        assert_eq!(names, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn crashes_do_not_block_survivors() {
        let alg = TasScan::new(4);
        // Process 0 crashes after its first step (it may have consumed a
        // bit); the others must still terminate with distinct names.
        let faults = FaultPlan::new().with_crash(ProcessId::new(0), 1);
        let exec = cfc_core::run_schedule(
            alg.memory().unwrap(),
            alg.processes(),
            Lockstep::new(),
            faults,
            ExecConfig::default(),
        )
        .unwrap();
        let survivors: Vec<u64> = (1..4).map(|i| exec.outputs()[i].unwrap().raw()).collect();
        let mut sorted = survivors.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "duplicate names among {survivors:?}");
        assert!(survivors.iter().all(|&x| (1..=4).contains(&x)));
    }

    #[test]
    fn budget_matches_worst_case() {
        assert_eq!(TasScan::new(6).step_budget(), 5);
        assert_eq!(TasScan::new(1).step_budget(), 1);
    }
}

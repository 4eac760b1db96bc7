//! Tree-based naming with `test-and-set` + `test-and-reset`
//! (Theorem 4.2).
//!
//! The same balanced binary tree as [`TafTree`](crate::TafTree), but
//! without `test-and-flip`: at each node a process alternately applies
//! `test-and-set` and `test-and-reset` until either the `test-and-set`
//! returns `0` or the `test-and-reset` returns `1`; the value of that last
//! (successful) operation routes it, exactly as the flip's return value
//! would.
//!
//! A successful operation toggles the bit and observes its old value —
//! precisely `test-and-flip` — while failed operations do not modify the
//! bit at all, so the node's routing history is identical to the flip
//! tree's and names stay unique. A process can fail at a node only when
//! another process succeeds there in between, and at most `n` successes
//! ever occur per node, so the walk is wait-free with worst-case register
//! complexity `log₂ n` — the tight bound for this model — though its
//! worst-case **step** complexity is super-logarithmic (the model's tight
//! step bound, `n − 1`, is achieved by
//! [`TasScan`](crate::TasScan) instead).

use std::sync::Arc;

use cfc_core::{BitOp, Layout, Op, OpResult, Process, RegisterId, Step, Value};

use crate::algorithm::NamingAlgorithm;
use crate::model::Model;
use crate::taf_tree::{insert_subtree, NotAPowerOfTwo};

/// The `test-and-set`/`test-and-reset` alternation tree.
#[derive(Clone, Debug)]
pub struct TasTarTree {
    n: usize,
    layout: Layout,
    nodes: Arc<[RegisterId]>,
}

impl TasTarTree {
    /// Creates the algorithm for `n` processes (`n` a power of two, ≥ 2).
    ///
    /// # Errors
    ///
    /// Returns [`NotAPowerOfTwo`] otherwise.
    pub fn new(n: usize) -> Result<Self, NotAPowerOfTwo> {
        if n < 2 || !n.is_power_of_two() {
            return Err(NotAPowerOfTwo(n));
        }
        let mut layout = Layout::new();
        let nodes: Arc<[RegisterId]> = layout.bits("node", n - 1, false).into();
        Ok(TasTarTree { n, layout, nodes })
    }

    /// The tree depth `log₂ n`.
    pub fn depth(&self) -> u32 {
        self.n.trailing_zeros()
    }
}

impl NamingAlgorithm for TasTarTree {
    type Proc = TasTarTreeProc;

    fn name(&self) -> &str {
        "tas-tar-tree"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn model(&self) -> Model {
        Model::new(&[BitOp::TestAndSet, BitOp::TestAndReset])
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn process(&self) -> TasTarTreeProc {
        TasTarTreeProc {
            nodes: Arc::clone(&self.nodes),
            n: self.n as u64,
            pc: TreePc::AtNode(1, BitOp::TestAndSet),
        }
    }

    fn step_budget(&self) -> u64 {
        // Per node: each failure is flanked by another process's success,
        // and at most n successes happen per node; alternation costs at
        // most 2 steps per foreign success plus 2 of its own.
        u64::from(self.depth()) * (2 * self.n as u64 + 2)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TreePc {
    /// At heap node `v`, about to apply the given operation
    /// (`TestAndSet` or `TestAndReset`).
    AtNode(u64, BitOp),
    Done(u64),
}

/// The participant process of [`TasTarTree`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TasTarTreeProc {
    nodes: Arc<[RegisterId]>,
    n: u64,
    pc: TreePc,
}

impl TasTarTreeProc {
    fn route(&self, v: u64, bit: bool) -> TreePc {
        let child = 2 * v + u64::from(bit);
        if child <= self.nodes.len() as u64 {
            TreePc::AtNode(child, BitOp::TestAndSet)
        } else {
            let leaf_number = v - self.n / 2 + 1;
            TreePc::Done(2 * leaf_number - 1 + u64::from(bit))
        }
    }
}

impl Process for TasTarTreeProc {
    fn current(&self) -> Step {
        match self.pc {
            TreePc::AtNode(v, op) => Step::Op(Op::Bit(self.nodes[(v - 1) as usize], op)),
            TreePc::Done(_) => Step::Halt,
        }
    }

    fn advance(&mut self, result: OpResult) {
        let TreePc::AtNode(v, op) = self.pc else {
            unreachable!("halted process advanced")
        };
        let old = result.bit();
        self.pc = match op {
            // test-and-set succeeded: observed 0, flipped the bit to 1.
            BitOp::TestAndSet if !old => self.route(v, false),
            // test-and-reset succeeded: observed 1, flipped it to 0.
            BitOp::TestAndReset if old => self.route(v, true),
            // Failure: the bit was unchanged; try the other operation.
            BitOp::TestAndSet => TreePc::AtNode(v, BitOp::TestAndReset),
            BitOp::TestAndReset => TreePc::AtNode(v, BitOp::TestAndSet),
            _ => unreachable!("only TAS/TAR are issued"),
        };
    }

    fn output(&self) -> Option<Value> {
        match self.pc {
            TreePc::Done(name) => Some(Value::new(name)),
            _ => None,
        }
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(match self.pc {
            TreePc::AtNode(v, op) => {
                (v << 2) | u64::from(matches!(op, cfc_core::BitOp::TestAndReset))
            }
            TreePc::Done(name) => (name << 2) | 2,
        })
    }

    fn may_access(&self, out: &mut cfc_core::RegisterSet) -> bool {
        if let TreePc::AtNode(v, _) = self.pc {
            insert_subtree(&self.nodes, v, out);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::metrics::all_process_complexities;
    use cfc_core::{run_sequential, ExecConfig, FaultPlan, Lockstep, ProcessId, RandomSched};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_assignment_matches_taf_tree() {
        // With no contention every alternation succeeds at the first
        // attempt that can succeed, emulating the flip exactly.
        let taf = crate::TafTree::new(8).unwrap();
        let tt = TasTarTree::new(8).unwrap();
        let (_, _, taf_procs) = run_sequential(taf.memory().unwrap(), taf.processes()).unwrap();
        let (_, _, tt_procs) = run_sequential(tt.memory().unwrap(), tt.processes()).unwrap();
        let taf_names: Vec<u64> = taf_procs
            .iter()
            .map(|p| p.output().unwrap().raw())
            .collect();
        let tt_names: Vec<u64> = tt_procs.iter().map(|p| p.output().unwrap().raw()).collect();
        assert_eq!(taf_names, tt_names);
    }

    #[test]
    fn lockstep_names_are_unique_and_registers_logarithmic() {
        for n in [4usize, 8, 16] {
            let alg = TasTarTree::new(n).unwrap();
            let exec = cfc_core::run_schedule(
                alg.memory().unwrap(),
                alg.processes(),
                Lockstep::new(),
                FaultPlan::new(),
                ExecConfig::default(),
            )
            .unwrap();
            let mut names: Vec<u64> = exec.outputs().iter().map(|o| o.unwrap().raw()).collect();
            names.sort_unstable();
            assert_eq!(names, (1..=n as u64).collect::<Vec<_>>(), "n={n}");
            // Worst-case register complexity: one bit per level.
            let layout = alg.layout();
            for c in all_process_complexities(exec.trace(), &layout, n) {
                assert!(c.registers <= u64::from(alg.depth()), "n={n}: {c}");
                assert!(c.steps <= alg.step_budget());
            }
        }
    }

    #[test]
    fn random_schedules_and_crashes_stay_safe() {
        for seed in 0..15 {
            let alg = TasTarTree::new(8).unwrap();
            let faults = if seed % 3 == 0 {
                FaultPlan::new().with_crash(ProcessId::new((seed % 8) as u32), seed % 5)
            } else {
                FaultPlan::new()
            };
            let exec = cfc_core::run_schedule(
                alg.memory().unwrap(),
                alg.processes(),
                RandomSched::new(StdRng::seed_from_u64(seed)),
                faults,
                ExecConfig::default(),
            )
            .unwrap();
            let names: Vec<u64> = exec.outputs().iter().flatten().map(|v| v.raw()).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "duplicates: {names:?}");
        }
    }

    #[test]
    fn model_is_tas_tar() {
        let alg = TasTarTree::new(4).unwrap();
        assert!(alg.model().contains(BitOp::TestAndSet));
        assert!(alg.model().contains(BitOp::TestAndReset));
        assert!(!alg.model().contains(BitOp::TestAndFlip));
        assert!(!alg.model().contains(BitOp::Read));
    }
}

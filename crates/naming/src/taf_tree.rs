//! Tree-based naming with `test-and-flip` (Theorem 4.1).
//!
//! `n − 1` shared bits arranged as a balanced binary tree (`n` a power of
//! two). Each process walks root-to-leaf applying `test-and-flip` at every
//! node: old value `0` routes left, `1` routes right; at a leaf numbered
//! `m` the returned value selects between names `2m − 1` and `2m`.
//!
//! The flip balances routing perfectly — among the `k` operations applied
//! at a node, `⌈k/2⌉` see `0` and `⌊k/2⌋` see `1` — so at most two
//! processes ever reach each leaf and names are unique, even with crashes.
//! Worst-case step complexity: exactly `log₂ n`, the tight bound for every
//! model containing `test-and-flip` on all four measures.

use std::sync::Arc;

use cfc_core::{BitOp, Layout, Op, OpResult, Process, RegisterId, RegisterSet, Step, Value};

use crate::algorithm::NamingAlgorithm;
use crate::model::Model;

/// Inserts every register of the heap subtree rooted at 1-based node `v`
/// into `out` — the set of nodes a tree walker at `v` can still reach.
/// Shared by the `test-and-flip` and `test-and-set`/`test-and-reset`
/// trees, whose layouts are identical.
pub(crate) fn insert_subtree(nodes: &[RegisterId], v: u64, out: &mut RegisterSet) {
    if v == 0 || v > nodes.len() as u64 {
        return;
    }
    out.insert(nodes[(v - 1) as usize]);
    insert_subtree(nodes, 2 * v, out);
    insert_subtree(nodes, 2 * v + 1, out);
}

/// The `test-and-flip` tree naming algorithm.
///
/// # Examples
///
/// ```
/// use cfc_naming::{NamingAlgorithm, TafTree};
/// use cfc_core::run_sequential;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let alg = TafTree::new(8)?;
/// let (_, _, procs) = run_sequential(alg.memory()?, alg.processes())?;
/// let mut names: Vec<u64> = procs
///     .iter()
///     .map(|p| cfc_core::Process::output(p).unwrap().raw())
///     .collect();
/// names.sort_unstable();
/// assert_eq!(names, (1..=8).collect::<Vec<u64>>());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TafTree {
    n: usize,
    layout: Layout,
    /// Heap-ordered nodes: `nodes[i]` is heap node `i + 1`
    /// (children of heap node `v` are `2v` and `2v + 1`).
    nodes: Arc<[RegisterId]>,
}

/// Error creating a tree-based naming algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotAPowerOfTwo(pub usize);

impl std::fmt::Display for NotAPowerOfTwo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tree naming requires a power-of-two process count, got {}",
            self.0
        )
    }
}

impl std::error::Error for NotAPowerOfTwo {}

impl TafTree {
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
        Ok(TafTree { n, layout, nodes })
    }

    /// The tree depth: `log₂ n` (the path length of every process).
    pub fn depth(&self) -> u32 {
        self.n.trailing_zeros()
    }
}

impl NamingAlgorithm for TafTree {
    type Proc = TreeWalkProc;

    fn name(&self) -> &str {
        "taf-tree"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn model(&self) -> Model {
        Model::TAF_ONLY
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn process(&self) -> TreeWalkProc {
        TreeWalkProc {
            nodes: Arc::clone(&self.nodes),
            n: self.n as u64,
            pc: TreePc::AtNode(1),
        }
    }

    fn step_budget(&self) -> u64 {
        u64::from(self.depth())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TreePc {
    /// About to operate on heap node `v` (1-based).
    AtNode(u64),
    Done(u64),
}

/// The participant process of [`TafTree`]: a root-to-leaf walk.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TreeWalkProc {
    nodes: Arc<[RegisterId]>,
    n: u64,
    pc: TreePc,
}

impl TreeWalkProc {
    fn step_to(&self, v: u64, bit: bool) -> TreePc {
        let child = 2 * v + u64::from(bit);
        if child <= self.nodes.len() as u64 {
            TreePc::AtNode(child)
        } else {
            // `v` is a leaf; leaves occupy heap positions n/2 ..= n-1 and
            // are numbered 1..=n/2.
            let leaf_number = v - self.n / 2 + 1;
            TreePc::Done(2 * leaf_number - 1 + u64::from(bit))
        }
    }
}

impl Process for TreeWalkProc {
    fn current(&self) -> Step {
        match self.pc {
            TreePc::AtNode(v) => {
                Step::Op(Op::Bit(self.nodes[(v - 1) as usize], BitOp::TestAndFlip))
            }
            TreePc::Done(_) => Step::Halt,
        }
    }

    fn advance(&mut self, result: OpResult) {
        let TreePc::AtNode(v) = self.pc else {
            unreachable!("halted process advanced")
        };
        self.pc = self.step_to(v, result.bit());
    }

    fn output(&self) -> Option<Value> {
        match self.pc {
            TreePc::Done(name) => Some(Value::new(name)),
            _ => None,
        }
    }

    fn fingerprint(&self) -> Option<u64> {
        // Injective per instance: heap positions and names are disjointly
        // tagged by the low bit.
        Some(match self.pc {
            TreePc::AtNode(v) => v << 1,
            TreePc::Done(name) => (name << 1) | 1,
        })
    }

    fn may_access(&self, out: &mut RegisterSet) -> bool {
        if let TreePc::AtNode(v) = self.pc {
            insert_subtree(&self.nodes, v, out);
        }
        true
    }

    // The fingerprint already encodes the whole varying state (heap
    // position or name), and every walker runs the identical program —
    // no identity in the local state — so sharing location keys across
    // processes only merges states with equal footprints and futures.
    fn location(&self) -> Option<u64> {
        self.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{run_sequential, ExecConfig, FaultPlan, Lockstep, ProcessId, RandomSched};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_unique_full(names: &mut Vec<u64>, n: usize) {
        names.sort_unstable();
        assert_eq!(*names, (1..=n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_non_powers_of_two() {
        assert!(TafTree::new(0).is_err());
        assert!(TafTree::new(1).is_err());
        assert!(TafTree::new(6).is_err());
        assert!(TafTree::new(8).is_ok());
    }

    #[test]
    fn every_process_takes_exactly_log_n_steps() {
        for n in [2usize, 4, 8, 16, 32] {
            let alg = TafTree::new(n).unwrap();
            let exec = cfc_core::run_schedule(
                alg.memory().unwrap(),
                alg.processes(),
                Lockstep::new(),
                FaultPlan::new(),
                ExecConfig::default(),
            )
            .unwrap();
            for pid in 0..n {
                assert_eq!(
                    exec.steps_taken(ProcessId::new(pid as u32)),
                    u64::from(alg.depth()),
                    "n={n}"
                );
            }
            let mut names: Vec<u64> = exec.outputs().iter().map(|o| o.unwrap().raw()).collect();
            assert_unique_full(&mut names, n);
        }
    }

    #[test]
    fn sequential_assignment_is_complete() {
        let alg = TafTree::new(16).unwrap();
        let (_, _, procs) = run_sequential(alg.memory().unwrap(), alg.processes()).unwrap();
        let mut names: Vec<u64> = procs.iter().map(|p| p.output().unwrap().raw()).collect();
        assert_unique_full(&mut names, 16);
    }

    #[test]
    fn random_schedules_keep_names_unique() {
        for seed in 0..20 {
            let alg = TafTree::new(8).unwrap();
            let exec = cfc_core::run_schedule(
                alg.memory().unwrap(),
                alg.processes(),
                RandomSched::new(StdRng::seed_from_u64(seed)),
                FaultPlan::new(),
                ExecConfig::default(),
            )
            .unwrap();
            let mut names: Vec<u64> = exec.outputs().iter().map(|o| o.unwrap().raw()).collect();
            assert_unique_full(&mut names, 8);
        }
    }

    #[test]
    fn crashed_processes_leave_unique_survivors() {
        let alg = TafTree::new(8).unwrap();
        let faults = FaultPlan::new()
            .with_crash(ProcessId::new(0), 1)
            .with_crash(ProcessId::new(3), 2);
        let exec = cfc_core::run_schedule(
            alg.memory().unwrap(),
            alg.processes(),
            Lockstep::new(),
            faults,
            ExecConfig::default(),
        )
        .unwrap();
        let survivors: Vec<u64> = exec.outputs().iter().flatten().map(|v| v.raw()).collect();
        assert_eq!(survivors.len(), 6);
        let mut sorted = survivors.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "duplicates among {survivors:?}");
    }

    #[test]
    fn name_computation_at_leaves() {
        // n = 4: heap nodes 1 (root), 2, 3 (leaves). Leaf 2 -> names 1/2,
        // leaf 3 -> names 3/4.
        let alg = TafTree::new(4).unwrap();
        let p = alg.process();
        assert_eq!(p.step_to(2, false), TreePc::Done(1));
        assert_eq!(p.step_to(2, true), TreePc::Done(2));
        assert_eq!(p.step_to(3, false), TreePc::Done(3));
        assert_eq!(p.step_to(3, true), TreePc::Done(4));
        assert_eq!(p.step_to(1, false), TreePc::AtNode(2));
        assert_eq!(p.step_to(1, true), TreePc::AtNode(3));
    }
}

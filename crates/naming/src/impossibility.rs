//! Executable impossibility: symmetry cannot be broken without
//! read–modify–write.
//!
//! Section 3.1 observes that "if in one atomic step a process can either
//! read or write a shared register, but cannot do both, then the naming
//! problem is not solvable deterministically, since it is not possible to
//! break symmetry". This module makes that argument (and the engine of
//! Theorem 6) executable:
//!
//! * A model is [*symmetry-breaking*](Model::breaks_symmetry) iff it
//!   contains an operation that both **mutates** the bit and **returns**
//!   its old value (`test-and-set`, `test-and-reset`, or
//!   `test-and-flip`). Operations that only observe (`read`, `skip`) or
//!   only mutate (`write-0/1`, `flip`) cannot distinguish two identical
//!   processes driven in lockstep.
//! * [`lockstep_symmetry_witness`] *demonstrates* the impossibility on
//!   any concrete algorithm: if the algorithm only uses
//!   non-symmetry-breaking operations, driving `n` identical copies in
//!   lockstep keeps their states bitwise identical after every round —
//!   so they can never decide distinct names. The function runs the
//!   lockstep schedule and returns the per-round equality witness.
//!
//! The proof idea is the paper's: after both processes apply the same
//! operation to the same bit, an op that returns a value *without
//! mutating* returns the same value to both; an op that *mutates without
//! returning* leaves both with no information. Only an op that returns
//! the old value **and** changes the bit can answer differently to the
//! first and second arrival.

use cfc_core::{apply_step, BitOp, EventKind, Memory, Op, OpResult, Process, Status, Step};

use crate::algorithm::NamingAlgorithm;
use crate::model::Model;

impl Model {
    /// Does the model contain an operation that can break symmetry — one
    /// that both mutates the bit and returns its old value?
    pub fn breaks_symmetry(self) -> bool {
        self.iter().any(|op| op.mutates() && op.returns_value())
    }
}

/// The outcome of driving identical processes in lockstep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymmetryWitness {
    /// Rounds executed before the run quiesced or diverged.
    pub rounds: u64,
    /// `true` if the processes' states were identical after every round
    /// (so no naming algorithm in this model can be correct).
    pub stayed_identical: bool,
}

/// Drives `n` identical copies of the algorithm's process in lockstep and
/// checks state equality after every round.
///
/// For algorithms confined to non-symmetry-breaking operations this
/// *must* report `stayed_identical: true` — the executable form of the
/// paper's impossibility remark. For an algorithm with `test-and-set`
/// etc., divergence is expected at the first contended RMW.
///
/// `max_rounds` bounds the run for non-terminating symmetric algorithms
/// (identical processes may loop forever precisely because they cannot
/// decide distinct names).
///
/// # Errors
///
/// Propagates memory errors from the algorithm's operations.
pub fn lockstep_symmetry_witness<A>(
    alg: &A,
    max_rounds: u64,
) -> Result<SymmetryWitness, cfc_core::MemoryError>
where
    A: NamingAlgorithm,
    A::Proc: Clone + PartialEq,
{
    let mut memory: Memory = alg.memory()?;
    let mut procs: Vec<A::Proc> = alg.processes();
    let mut status = vec![Status::Running; procs.len()];
    let mut rounds = 0u64;

    while rounds < max_rounds {
        // One lockstep round: every non-halted process takes one step.
        let mut any_running = false;
        for (proc_, st) in procs.iter_mut().zip(&mut status) {
            if st.runnable() {
                let kind = apply_step(proc_, st, &mut memory)?;
                any_running |= !matches!(kind, EventKind::Done { .. });
            }
        }
        rounds += 1;
        if !any_running {
            break;
        }
        // Symmetry check: all process states identical?
        if !procs.windows(2).all(|w| w[0] == w[1]) {
            return Ok(SymmetryWitness {
                rounds,
                stayed_identical: false,
            });
        }
    }
    Ok(SymmetryWitness {
        rounds,
        stayed_identical: true,
    })
}

/// A "naming attempt" restricted to a read/write/flip-style model, used
/// to demonstrate the impossibility: walk the [`TafTree`](crate::TafTree)
/// shape, but with `flip` + `read` instead of `test-and-flip` (flip the
/// node, then read it, route on the read value).
///
/// This is the natural way one might try to simulate `test-and-flip`
/// without an RMW — and it cannot work: in lockstep, both processes flip
/// (restoring the bit), then both read the same value.
#[derive(Clone, Debug)]
pub struct FlipReadAttempt {
    n: usize,
    layout: cfc_core::Layout,
    nodes: std::sync::Arc<[cfc_core::RegisterId]>,
}

impl FlipReadAttempt {
    /// Creates the attempt for `n` processes (`n` a power of two ≥ 2).
    ///
    /// # Errors
    ///
    /// Returns [`NotAPowerOfTwo`](crate::NotAPowerOfTwo) otherwise.
    pub fn new(n: usize) -> Result<Self, crate::NotAPowerOfTwo> {
        if n < 2 || !n.is_power_of_two() {
            return Err(crate::NotAPowerOfTwo(n));
        }
        let mut layout = cfc_core::Layout::new();
        let nodes: std::sync::Arc<[cfc_core::RegisterId]> =
            layout.bits("node", n - 1, false).into();
        Ok(FlipReadAttempt { n, layout, nodes })
    }
}

impl NamingAlgorithm for FlipReadAttempt {
    type Proc = FlipReadProc;

    fn name(&self) -> &str {
        "flip-read-attempt (impossible model)"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn model(&self) -> Model {
        Model::new(&[BitOp::Flip, BitOp::Read])
    }

    fn layout(&self) -> cfc_core::Layout {
        self.layout.clone()
    }

    fn process(&self) -> FlipReadProc {
        FlipReadProc {
            nodes: std::sync::Arc::clone(&self.nodes),
            n: self.n as u64,
            node: 1,
            about_to_read: false,
            decided: None,
        }
    }

    fn step_budget(&self) -> u64 {
        2 * u64::from(64 - (self.n as u64 - 1).leading_zeros())
    }
}

/// The participant of [`FlipReadAttempt`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FlipReadProc {
    nodes: std::sync::Arc<[cfc_core::RegisterId]>,
    n: u64,
    node: u64,
    about_to_read: bool,
    decided: Option<u64>,
}

impl Process for FlipReadProc {
    fn current(&self) -> Step {
        if self.decided.is_some() {
            return Step::Halt;
        }
        let reg = self.nodes[(self.node - 1) as usize];
        if self.about_to_read {
            Step::Op(Op::Bit(reg, BitOp::Read))
        } else {
            Step::Op(Op::Bit(reg, BitOp::Flip))
        }
    }

    fn advance(&mut self, result: OpResult) {
        if !self.about_to_read {
            self.about_to_read = true;
            return;
        }
        self.about_to_read = false;
        let bit = result.bit();
        let child = 2 * self.node + u64::from(bit);
        if child <= self.nodes.len() as u64 {
            self.node = child;
        } else {
            let leaf = self.node - self.n / 2 + 1;
            self.decided = Some(2 * leaf - 1 + u64::from(bit));
        }
    }

    fn output(&self) -> Option<cfc_core::Value> {
        self.decided.map(cfc_core::Value::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TafTree, TasScan};

    #[test]
    fn symmetry_breaking_classification() {
        assert!(Model::TAS_ONLY.breaks_symmetry());
        assert!(Model::TAF_ONLY.breaks_symmetry());
        assert!(Model::RMW.breaks_symmetry());
        assert!(!Model::new(&[BitOp::Read, BitOp::Write0, BitOp::Write1]).breaks_symmetry());
        assert!(!Model::new(&[BitOp::Flip, BitOp::Read]).breaks_symmetry());
        assert!(!Model::EMPTY.breaks_symmetry());
        // Exactly the models containing tas, tar, or taf break symmetry.
        let breaking = Model::all_models().filter(|m| m.breaks_symmetry()).count();
        // 256 models total; those avoiding all three RMW ops: subsets of
        // the other five operations = 2^5 = 32. So 256 - 32 = 224 break.
        assert_eq!(breaking, 224);
    }

    #[test]
    fn flip_read_attempt_stays_symmetric_forever() {
        // The impossibility, executed: identical processes in the
        // {flip, read} model remain identical after every lockstep round
        // and never decide distinct names.
        let alg = FlipReadAttempt::new(8).unwrap();
        assert!(!alg.model().breaks_symmetry());
        let w = lockstep_symmetry_witness(&alg, 1_000).unwrap();
        assert!(w.stayed_identical);
    }

    #[test]
    fn flip_read_attempt_gives_duplicate_names() {
        // Concretely: in lockstep every process decides the SAME name.
        use cfc_core::{run_schedule, ExecConfig, FaultPlan, Lockstep};
        let alg = FlipReadAttempt::new(4).unwrap();
        let exec = run_schedule(
            alg.memory().unwrap(),
            alg.processes(),
            Lockstep::new(),
            FaultPlan::new(),
            ExecConfig::default(),
        )
        .unwrap();
        let names: Vec<u64> = exec.outputs().iter().map(|o| o.unwrap().raw()).collect();
        assert!(names.windows(2).all(|w| w[0] == w[1]), "{names:?}");
    }

    #[test]
    fn rmw_algorithms_diverge_under_lockstep() {
        // Contrast: test-and-flip DOES break the tie at the first node.
        let taf = TafTree::new(4).unwrap();
        let w = lockstep_symmetry_witness(&taf, 1_000).unwrap();
        assert!(!w.stayed_identical);
        assert_eq!(w.rounds, 1, "the very first round distinguishes");

        let scan = TasScan::new(4);
        let w = lockstep_symmetry_witness(&scan, 1_000).unwrap();
        assert!(!w.stayed_identical);
    }

    #[test]
    fn sequential_runs_of_the_attempt_do_assign_names() {
        // Without contention the flip-read walk behaves like the taf
        // tree; the impossibility is specifically about breaking ties.
        use cfc_core::run_sequential;
        let alg = FlipReadAttempt::new(4).unwrap();
        let (_, _, procs) = run_sequential(alg.memory().unwrap(), alg.processes()).unwrap();
        let mut names: Vec<u64> = procs.iter().map(|p| p.output().unwrap().raw()).collect();
        names.sort_unstable();
        assert_eq!(names, vec![1, 2, 3, 4]);
    }
}

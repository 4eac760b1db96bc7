//! Generic dualization of naming algorithms (Section 3.2).
//!
//! If `M` is the dual of `M'`, every bound for `M` holds for `M'`: the
//! dual algorithm runs on complemented initial values, replaces each
//! operation by its dual, and complements every returned bit. This module
//! implements that transformation *generically*, turning any
//! [`NamingAlgorithm`] into its dual with identical complexity and
//! identical outputs — an executable proof of the paper's duality remark.

use cfc_core::{Layout, Op, OpResult, Process, Step, Value};

use crate::algorithm::NamingAlgorithm;
use crate::model::Model;

/// The dual of a naming algorithm: dual model, complemented bits,
/// identical names and complexity.
///
/// # Examples
///
/// ```
/// use cfc_naming::{Dualized, NamingAlgorithm, TasScan};
/// use cfc_core::{run_sequential, BitOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // tas-scan dualizes to a tar-scan over bits initialized to 1.
/// let alg = Dualized::new(TasScan::new(4));
/// assert!(alg.model().contains(BitOp::TestAndReset));
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
pub struct Dualized<A> {
    inner: A,
    name: String,
}

impl<A: NamingAlgorithm> Dualized<A> {
    /// Wraps `inner` as its dual.
    pub fn new(inner: A) -> Self {
        let name = format!("dual({})", inner.name());
        Dualized { inner, name }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: NamingAlgorithm> NamingAlgorithm for Dualized<A> {
    type Proc = DualProc<A::Proc>;

    fn name(&self) -> &str {
        &self.name
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn model(&self) -> Model {
        self.inner.model().dual()
    }

    fn layout(&self) -> Layout {
        // Same registers, complemented initial values.
        let inner = self.inner.layout();
        let mut layout = Layout::new();
        for (_, spec) in inner.iter() {
            assert_eq!(
                spec.width(),
                1,
                "naming layouts are shared bits; cannot dualize wide register `{}`",
                spec.name()
            );
            layout.bit(spec.name(), !spec.init().bit());
        }
        layout
    }

    fn process(&self) -> DualProc<A::Proc> {
        DualProc {
            inner: self.inner.process(),
        }
    }

    fn step_budget(&self) -> u64 {
        self.inner.step_budget()
    }
}

/// The participant process of [`Dualized`]: forwards its inner process's
/// steps with dual operations and complemented results.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DualProc<P> {
    inner: P,
}

impl<P: Process> Process for DualProc<P> {
    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }

    fn may_access(&self, out: &mut cfc_core::RegisterSet) -> bool {
        // The dual layout rebuilds the same registers in the same order,
        // so the inner over-approximation carries over unchanged.
        self.inner.may_access(out)
    }

    fn current(&self) -> Step {
        match self.inner.current() {
            Step::Op(Op::Bit(r, op)) => Step::Op(Op::Bit(r, op.dual())),
            Step::Op(other) => {
                panic!("dualization applies to bit operations only, got {other}")
            }
            step => step,
        }
    }

    fn advance(&mut self, result: OpResult) {
        // Complement returned bits so the inner process observes the
        // original algorithm's semantics.
        let translated = match result {
            OpResult::Value(v) => OpResult::Value(Value::from(!v.bit())),
            other => other,
        };
        self.inner.advance(translated);
    }

    fn output(&self) -> Option<Value> {
        self.inner.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TafTree, TasReadSearch, TasScan};
    use cfc_core::{run_schedule, BitOp, ExecConfig, FaultPlan, FixedOrder, ProcessId};

    /// Runs an algorithm and its dual under the same schedule and checks
    /// that outputs coincide event for event.
    fn assert_dual_equivalent<A>(alg: A, schedule: Vec<ProcessId>)
    where
        A: NamingAlgorithm + Clone,
        A::Proc: Process,
    {
        let dual = Dualized::new(alg.clone());
        let run = |names: Vec<Option<u64>>| names;
        let base = run_schedule(
            alg.memory().unwrap(),
            alg.processes(),
            FixedOrder::then_fair(schedule.clone()),
            FaultPlan::new(),
            ExecConfig::default(),
        )
        .unwrap();
        let dualled = run_schedule(
            dual.memory().unwrap(),
            dual.processes(),
            FixedOrder::then_fair(schedule),
            FaultPlan::new(),
            ExecConfig::default(),
        )
        .unwrap();
        let base_names: Vec<Option<u64>> =
            base.outputs().iter().map(|o| o.map(|v| v.raw())).collect();
        let dual_names: Vec<Option<u64>> = dualled
            .outputs()
            .iter()
            .map(|o| o.map(|v| v.raw()))
            .collect();
        assert_eq!(run(base_names), run(dual_names));
        // Same number of events: complexity is preserved exactly.
        assert_eq!(base.trace().access_count(), dualled.trace().access_count());
    }

    fn interleaved(n: u32, len: usize) -> Vec<ProcessId> {
        (0..len)
            .map(|i| ProcessId::new((i as u32 * 7 + 3) % n))
            .collect()
    }

    #[test]
    fn dual_tas_scan_is_tar_scan() {
        let dual = Dualized::new(TasScan::new(4));
        assert_eq!(dual.model(), Model::new(&[BitOp::TestAndReset]));
        // Initial bits are complemented.
        let layout = dual.layout();
        for (_, spec) in layout.iter() {
            assert!(spec.init().bit());
        }
        assert_dual_equivalent(TasScan::new(4), interleaved(4, 40));
    }

    #[test]
    fn dual_taf_tree_is_itself_behaviorally() {
        assert_dual_equivalent(TafTree::new(8).unwrap(), interleaved(8, 60));
    }

    #[test]
    fn dual_search_matches_original() {
        assert_dual_equivalent(TasReadSearch::new(8), interleaved(8, 80));
    }

    #[test]
    fn double_dual_restores_model_and_layout() {
        let alg = TasScan::new(4);
        let dd = Dualized::new(Dualized::new(alg.clone()));
        assert_eq!(dd.model(), alg.model());
        assert_eq!(dd.layout(), alg.layout());
    }
}

//! Shared test support for the integration suites: explorer budget
//! construction, so every test states its limits the same way and a
//! state-space regression fails fast with `ExploreError::StateBudget`
//! instead of hanging CI.
//!
//! (`tests/common/` is not itself a test target; each suite pulls this in
//! with `mod common;` and uses the subset it needs.)

#![allow(dead_code)]

pub mod matrix;
pub mod reference;

use std::collections::BTreeMap;

use cfc::core::{BitOp, Layout, Op, OpResult, Process, RegisterId, RegisterSet, Step, Value};
use cfc::naming::{Model, NamingAlgorithm, TasScan, TasScanProc};
use cfc::verify::explore::ExploreConfig;

/// An explicit, crash-free **baseline** budget: no reductions, the
/// reference interleaving semantics. Use for differential runs and for
/// explorations known to visit fewer than `max_states` states.
pub fn budget(max_states: usize) -> ExploreConfig {
    ExploreConfig {
        max_states,
        max_crashes: 0,
        por: false,
        symmetry: false,
        ..ExploreConfig::default()
    }
}

/// A budget with **both** reductions enabled (ample-set partial-order +
/// symmetry canonicalization). Budgets sized against reduced state
/// counts are much tighter than their baseline equivalents.
pub fn reduced(max_states: usize) -> ExploreConfig {
    ExploreConfig::reduced().with_max_states(max_states)
}

/// A budget with partial-order reduction only. The right choice for
/// mutex clients whose lock state embeds a distinct identity: they
/// start distinct, so symmetry would merge nothing.
pub fn por_only(max_states: usize) -> ExploreConfig {
    ExploreConfig {
        por: true,
        ..budget(max_states)
    }
}

/// A budget with symmetry reduction only.
pub fn sym_only(max_states: usize) -> ExploreConfig {
    ExploreConfig {
        symmetry: true,
        ..budget(max_states)
    }
}

/// All four reduction variants over one budget, labeled for assertion
/// messages — the canonical sweep for differential suites that compare
/// the baseline against every reduced configuration (liveness, witness
/// properties, sweeps).
pub fn labeled_variants(max_states: usize) -> [(&'static str, ExploreConfig); 4] {
    [
        ("baseline", budget(max_states)),
        ("por", por_only(max_states)),
        ("sym", sym_only(max_states)),
        ("por+sym", reduced(max_states)),
    ]
}

/// The multiset of decided outputs in a replayed final state — the
/// violation fingerprint the oracle matrix compares across explorer
/// configurations.
pub fn output_multiset<P: Process>(procs: &[P]) -> BTreeMap<u64, usize> {
    let mut m = BTreeMap::new();
    for p in procs {
        if let Some(v) = p.output() {
            *m.entry(v.raw()).or_insert(0) += 1;
        }
    }
    m
}

// ---------------------------------------------------------------------
// A seeded violating fixture for the oracle matrix's naming rows.
// ---------------------------------------------------------------------

/// [`TasScan`] with the `test-and-set` at one seed-chosen bit replaced by
/// a plain read. A read returns the same old value the `test-and-set`
/// would, but does not claim the bit — so two processes can both observe
/// `0` there and decide the same name: a planted uniqueness violation
/// every explorer must find.
#[derive(Clone, Debug)]
pub struct MutatedTasScan {
    inner: TasScan,
    broken: RegisterId,
}

impl MutatedTasScan {
    pub fn new(n: usize, seed: u64) -> Self {
        let inner = TasScan::new(n);
        let broken = RegisterId::new((seed % (n as u64 - 1)) as u32);
        MutatedTasScan { inner, broken }
    }
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MutatedProc {
    inner: TasScanProc,
    broken: RegisterId,
}

impl Process for MutatedProc {
    fn current(&self) -> Step {
        match self.inner.current() {
            Step::Op(Op::Bit(r, BitOp::TestAndSet)) if r == self.broken => {
                Step::Op(Op::Bit(r, BitOp::Read))
            }
            step => step,
        }
    }

    fn advance(&mut self, result: OpResult) {
        self.inner.advance(result);
    }

    fn output(&self) -> Option<Value> {
        self.inner.output()
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }

    fn may_access(&self, out: &mut RegisterSet) -> bool {
        self.inner.may_access(out)
    }
}

impl NamingAlgorithm for MutatedTasScan {
    type Proc = MutatedProc;

    fn name(&self) -> &str {
        "mutated-tas-scan"
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn model(&self) -> Model {
        self.inner.model()
    }

    fn layout(&self) -> Layout {
        self.inner.layout()
    }

    fn process(&self) -> MutatedProc {
        MutatedProc {
            inner: self.inner.process(),
            broken: self.broken,
        }
    }

    fn step_budget(&self) -> u64 {
        self.inner.step_budget()
    }
}

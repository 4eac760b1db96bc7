//! `MayAccessMode::Dynamic` — sleep sets over observed conflicts plus
//! read/write-split future sets — against the declared hooks: the
//! dynamic columns of every row of the oracle matrix.
//!
//! Without POR none of the machinery is consulted: every count must
//! equal the declared column's and nothing may sleep. With it, verdicts,
//! bypass bounds, lasso lengths, terminal states and replayed violations
//! must agree, and the dynamic mode never visits more states than the
//! declared hooks. No pointwise order against the automaton is asserted
//! — ample-set selection is non-monotone in independence sharpness —
//! except on bakery n=3 and the splitter n=3, where the dynamic graph
//! must be strictly smaller, with a nonzero count of slept transitions
//! to show the mechanism.

mod common;

use common::matrix::{
    check_cell, check_rows, pin, strict_rows, Holds, Liveness, Progress, Safety, Sys, DYNAMIC,
    POR_AUTOMATON, POR_DYNAMIC,
};

#[test]
fn three_modes_agree_on_mutex_safety() {
    check_rows(&DYNAMIC, |r| {
        r.checker == Safety && r.sys.is_mutex() && r.verdict == Holds
    });
}

#[test]
fn three_modes_agree_on_naming_and_detection() {
    check_rows(&DYNAMIC, |r| {
        let mutated = matches!(r.sys, Sys::Mutated(..));
        r.checker == Safety && !r.sys.is_mutex() && r.crashes == 0 && !mutated
    });
}

/// Crash branching disables the sleep sets (a crash is an always-enabled
/// transition no sibling branch covers) but keeps the split-future
/// sharpening: the gate must hold the verdicts steady.
#[test]
fn crash_budgets_keep_the_modes_agreeing() {
    check_rows(&DYNAMIC, |r| r.checker == Safety && r.crashes > 0);
}

/// The schedule the dynamic explorer reports for the leaf-to-root
/// tournament replays to two processes in the critical section.
#[test]
fn dynamic_violation_replays_to_two_in_critical() {
    check_rows(&DYNAMIC, |r| {
        r.checker == Safety && matches!(r.sys, Sys::LeafToRoot(_))
    });
}

/// A naming violation found in any cell replays to the row's multiset
/// of outputs.
#[test]
fn violating_output_multisets_agree_across_modes() {
    check_rows(&DYNAMIC, |r| matches!(r.sys, Sys::Mutated(..)));
}

#[test]
fn three_modes_agree_on_progress_graphs() {
    check_rows(&DYNAMIC, |r| r.checker == Progress);
}

#[test]
fn three_modes_agree_on_liveness_verdicts() {
    check_rows(&DYNAMIC, |r| r.checker == Liveness);
}

#[test]
fn dynamic_strictly_sharpens_bakery_and_splitter() {
    for row in strict_rows() {
        let dynamic = check_cell(row, POR_DYNAMIC);
        let (states, transitions, ..) = row.cells[pin(POR_AUTOMATON)];
        assert!(
            dynamic.counts.0 < states && dynamic.counts.1 < transitions,
            "{:?}: observed conflicts must strictly shrink the automaton's graph",
            row.sys
        );
        assert!(
            dynamic.slept > 0,
            "{:?}: a strict shrink with nothing slept",
            row.sys
        );
    }
}

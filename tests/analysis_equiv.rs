//! The control-automaton may-access mode (`MayAccessMode::Automaton`)
//! against the hand-written `may_access` hooks: the automaton columns of
//! every row of the oracle matrix.
//!
//! The two modes explore different but equally sound reduced graphs: a
//! sharper future set lets more processes qualify as ample singletons,
//! so the automaton may legally visit fewer states. Without POR the
//! future sets are never consulted, so every count must equal the
//! declared column's; with it, verdicts (liveness bypass bounds and
//! lasso lengths included), terminal states and replayed violations
//! must agree, and the automaton never visits more states than the
//! declared hooks — strictly fewer where those hooks are deliberately
//! location-insensitive.

mod common;

use common::matrix::{
    check_cell, check_rows, strict_rows, Liveness, Progress, Safety, AUTOMATON, POR, POR_AUTOMATON,
};

#[test]
fn modes_agree_on_mutex_safety() {
    check_rows(&AUTOMATON, |r| r.checker == Safety && r.sys.is_mutex());
}

#[test]
fn modes_agree_on_naming_and_detection() {
    check_rows(&AUTOMATON, |r| r.checker == Safety && !r.sys.is_mutex());
}

#[test]
fn modes_agree_on_progress_graphs() {
    check_rows(&AUTOMATON, |r| r.checker == Progress);
}

#[test]
fn modes_agree_on_liveness_verdicts() {
    check_rows(&AUTOMATON, |r| r.checker == Liveness);
}

/// Bakery's declared footprint is the whole ticket array and the
/// splitter's the whole protocol, so the automaton's per-location future
/// sets must buy strictly more pruning.
#[test]
fn automaton_strictly_sharpens_bakery_and_splitter() {
    for row in strict_rows() {
        let automaton = check_cell(row, POR_AUTOMATON);
        assert!(
            automaton.counts.0 < row.cells[POR].0,
            "{:?}: automaton future sets must strictly shrink the reduced graph",
            row.sys
        );
    }
}

//! The state-space reductions on the safety rows of the oracle matrix:
//! its POR and POR+symmetry columns under the declared hooks (the
//! symmetry column is checked in `index_equiv`, the baseline in
//! `packed_equiv`). Each cell must return the row's verdict with its
//! pinned counts and every terminal state — and when the row is
//! violated, its schedule must replay under the un-reduced semantics to
//! a state exhibiting the violation, with the row's multiset of
//! violating outputs.
//!
//! The suite is the executable soundness argument for the ample-set
//! conditions: pruned interleavings only reorder independent, invisible
//! steps, and canonicalized orbits stand for permuted-but-equivalent
//! states, so no verdict can flip. The heavy mutex rows (Lamport n=3,
//! tournament n=4) run the same columns in `tests/oracle_matrix.rs`.

mod common;

use common::matrix::{check_rows, Holds, Safety, Sys, DECLARED_POR};

#[test]
fn safe_mutex_configs_agree_across_reductions() {
    check_rows(&DECLARED_POR, |r| {
        r.checker == Safety && r.sys.is_mutex() && r.verdict == Holds
    });
}

/// The naming rows under up to one crash, and the splitter.
#[test]
fn safe_naming_configs_agree_across_reductions() {
    check_rows(&DECLARED_POR, |r| {
        r.checker == Safety && !r.sys.is_mutex() && r.verdict == Holds
    });
}

/// The paper's literal leaf-to-root exit order is unsafe for composed
/// Peterson nodes at n = 4: every variant must replay to two processes
/// in the critical section.
#[test]
fn planted_mutex_bug_caught_by_all_variants() {
    check_rows(&DECLARED_POR, |r| {
        r.checker == Safety && matches!(r.sys, Sys::LeafToRoot(_))
    });
}

#[test]
fn broken_detector_caught_by_all_variants() {
    check_rows(&DECLARED_POR, |r| matches!(r.sys, Sys::Broken(_)));
}

/// A lost-update bug planted into the TAS scan at seed-chosen bits
/// (`common::MutatedTasScan`).
#[test]
fn seeded_mutation_caught_by_all_variants_with_identical_outputs() {
    check_rows(&DECLARED_POR, |r| matches!(r.sys, Sys::Mutated(4, _)));
}

/// The reported message names the duplicate, and the state `replay()`
/// returns re-fails the uniqueness check.
#[test]
fn reduced_violation_replays_to_the_same_violating_state() {
    check_rows(&DECLARED_POR, |r| r.sys == Sys::Mutated(3, 1));
}

//! The oracle matrix's heavy rows and scale runs.
//!
//! The matrix itself — one table of (system, checker, crash budget,
//! known verdict) rows against twelve reduction configurations, every
//! cell's counts pinned, every baseline held against the naive reference
//! explorer — lives in `tests/common/matrix.rs`, whose module docs list
//! which suite checks which slice of the light rows. This file checks
//! the rows of 9k–35k un-reduced states ([`HEAVY_ROWS`]): their declared
//! columns by default, every column in the exhaustive job, alongside the
//! scale runs at the bottom.

mod common;

use cfc::mutex::Tournament;
use cfc::naming::TafTree;
use cfc::verify::{
    check_mutex_safety, check_naming_uniqueness, ExploreConfig, ExploreError, MayAccessMode,
};
use common::matrix::{
    check_cell, index_within_envelope, Progress, Safety, COLUMNS, DECLARED, HEAVY_ROWS,
};
use common::por_only;

use MayAccessMode::{Automaton, Dynamic};

#[test]
fn heavy_safety_rows_under_declared_hooks() {
    for row in HEAVY_ROWS.iter().filter(|r| r.checker == Safety) {
        for col in DECLARED {
            check_cell(row, col);
        }
    }
}

#[test]
fn heavy_progress_rows_under_declared_hooks() {
    for row in HEAVY_ROWS.iter().filter(|r| r.checker == Progress) {
        for col in DECLARED {
            check_cell(row, col);
        }
    }
}

#[test]
#[ignore = "heavy rows' sharper columns; run via cargo test --release -- --ignored"]
fn exhaustive_heavy_rows_under_sharper_may_access() {
    for row in HEAVY_ROWS {
        for col in 0..COLUMNS.len() {
            check_cell(row, col);
        }
    }
}

// ---------------------------------------------------------------------
// Scale runs for the exhaustive job.
// ---------------------------------------------------------------------

/// The sixteen-walker test-and-flip tree — the next power-of-two scale
/// point past the eight-walker instance, a canonical quotient orders of
/// magnitude past n=8's — explored to quiescence under the full
/// reduction stack, with the open index inside its envelope at scale.
/// (The n=16 *lockout* check stays out of CI: its per-victim stabilizer
/// quotients are larger still; `exhaustive_taf_tree_eight_lockout`
/// covers the liveness engine's CSR path at scale.)
#[test]
#[ignore = "16-walker naming quotient; run via cargo test --release -- --ignored"]
fn exhaustive_taf_tree_sixteen() {
    let alg = TafTree::new(16).unwrap();
    let stats = check_naming_uniqueness(
        &alg,
        0,
        ExploreConfig::reduced().with_max_states(400_000_000),
    )
    .unwrap();
    assert!(
        stats.states > 20_000_000,
        "expected the 16-walker quotient well past the n=8 scale, visited {}",
        stats.states
    );
    assert!(
        index_within_envelope(stats.footprint.index_bytes, stats.states),
        "{} index bytes over {} states exceed the open-table envelope",
        stats.footprint.index_bytes,
        stats.states
    );
}

/// The seven-player single-bit tournament: the automaton mode must agree
/// with the declared hooks on a reduced graph far past what the default
/// rows visit, and still win on pruning.
#[test]
#[ignore = "large automaton differential; run via cargo test --release -- --ignored"]
fn exhaustive_tournament_seven_automaton() {
    let alg = Tournament::new(7, 1);
    // The automaton-reduced graph alone holds ~74.9M states (the
    // declared one slightly more), so the budget matches the 80M the
    // un-reduced tournament-7 run in tests/exploration.rs uses.
    let cfg = por_only(80_000_000);
    let declared = check_mutex_safety(&alg, 1, cfg).unwrap();
    let automaton = check_mutex_safety(&alg, 1, cfg.with_may_access(Automaton)).unwrap();
    assert!(
        automaton.states <= declared.states,
        "automaton lost reduction power at scale ({} vs {})",
        automaton.states,
        declared.states
    );
    assert!(automaton.states > 100_000, "unexpectedly small exploration");
}

/// The seven-player tournament as a budget differential: the
/// automaton-reduced graph holds ~74.9M states, so under a 20M-state
/// budget the static mode must exhaust — while the dynamic mode
/// completes the whole verdict inside it (~12.8M states, ~18.6M
/// transitions, ~45M slept). The pair (static exhausts, dynamic
/// finishes) witnesses the dominance at scale without paying for the
/// full static run twice.
#[test]
#[ignore = "large dynamic differential; run via cargo test --release -- --ignored"]
fn exhaustive_tournament_seven_dynamic() {
    let alg = Tournament::new(7, 1);
    let cfg = por_only(20_000_000);
    match check_mutex_safety(&alg, 1, cfg.with_may_access(Automaton)) {
        // The payload is the state count at the moment it crossed the
        // budget, i.e. one past the configured maximum.
        Err(ExploreError::StateBudget(n)) => assert!(n > 20_000_000, "exhausted early: {n}"),
        Ok(stats) => panic!(
            "automaton mode finished tournament-7 in {} states — the budget \
             differential no longer separates the modes; re-measure and retune",
            stats.states
        ),
        Err(e) => panic!("automaton mode failed for the wrong reason: {e}"),
    }
    let dynamic = check_mutex_safety(&alg, 1, cfg.with_may_access(Dynamic)).unwrap();
    assert!(
        dynamic.states > 10_000_000,
        "unexpectedly small dynamic exploration ({} states)",
        dynamic.states
    );
    assert!(
        dynamic.states < 15_000_000,
        "dynamic mode lost reduction power at scale ({} states)",
        dynamic.states
    );
    assert!(
        dynamic.transitions_slept > 1_000_000,
        "sleep sets barely engaged across the tournament graph ({} slept)",
        dynamic.transitions_slept
    );
}

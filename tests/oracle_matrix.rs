//! The oracle matrix's heavy rows and scale runs.
//!
//! The matrix itself — one table of (system, checker, crash budget,
//! known verdict) rows against twelve reduction configurations, every
//! cell's counts pinned, every baseline held against the naive reference
//! explorer — lives in `tests/common/matrix.rs`, whose module docs list
//! which suite checks which slice of the light rows. This file checks
//! the rows of 9k–35k un-reduced states ([`HEAVY_ROWS`]): their declared
//! columns by default, every column in the exhaustive job, alongside the
//! scale runs at the bottom. Two static tests at the top run no checker:
//! one holds every row of pairwise-distinct processes to symmetry cells
//! that merge nothing and, wherever the candidate order does not follow
//! the symmetry switch, copy their twins; the other holds each
//! algorithm's declared group to the classes the checkers derive.

mod common;

use cfc::core::SymmetryGroup;
use cfc::mutex::mutation::{BakeryMutation, TournamentMutation};
use cfc::mutex::{
    Bakery, BrokenDetector, Dijkstra, ExitOrder, LamportFast, MutexAlgorithm, MutexDetector,
    PetersonTwo, Splitter, SplitterTree, TasSpin, Tournament,
};
use cfc::naming::{FlipReadAttempt, NamingAlgorithm, TafTree, TasReadSearch, TasScan, TasTarTree};
use cfc::verify::{
    check_mutex_safety, check_naming_uniqueness, ExploreConfig, ExploreError, MayAccessMode,
};
use common::matrix::{
    check_cell, detection_classes, identical_classes, index_within_envelope, mutex_classes,
    naming_classes, Liveness, Progress, Safety, COLUMNS, DECLARED, HEAVY_ROWS, ROWS,
};
use common::{por_only, MutatedTasScan};

use MayAccessMode::{Automaton, Dynamic};

/// Symmetry merges only processes that start identical, so a row whose
/// processes all start distinct merges no orbit in any cell, and its
/// terminals and (victims, graphs) with symmetry are copies of its twin's
/// without. So is each symmetry pin, in every may-access mode, wherever
/// the candidate order does not depend on the symmetry switch: without
/// POR, and in the safety and liveness searches. The progress BFS tries
/// its ample candidates by local state under symmetry (so that a permuted
/// start builds the same graph) and by pid without it, so there the
/// POR+sym pin may differ from the POR pin, but it never outgrows the
/// unreduced twin.
#[test]
fn pairwise_distinct_rows_pin_symmetry_as_a_no_op() {
    let mut checked = 0;
    for row in ROWS.iter().chain(HEAVY_ROWS) {
        if !identical_classes(row).is_trivial() {
            continue;
        }
        let what = format!("{:?} {:?} crashes={}", row.sys, row.checker, row.crashes);
        // Pins: baseline, sym, por, por+sym, then por and por+sym under
        // the automaton and the dynamic mode.
        assert!(
            row.cells.iter().all(|c| c.3 == 0),
            "{what}: an orbit merged"
        );
        assert_eq!(row.cells[1], row.cells[0], "{what}: pin 1");
        for (plain, sym) in [(2, 3), (4, 5), (6, 7)] {
            if row.checker == Progress {
                assert!(row.cells[sym].0 <= row.cells[0].0, "{what}: pin {sym}");
            } else {
                assert_eq!(row.cells[sym], row.cells[plain], "{what}: pin {sym}");
            }
        }
        assert_eq!(row.terminals.1, row.terminals.0, "{what}: terminals");
        assert_eq!(row.graphs[1], row.graphs[0], "{what}: (victims, graphs)");
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} pairwise-distinct rows");
}

/// The checkers derive their symmetry classes from the processes they
/// build; the group each algorithm declares (which the checker
/// benchmark canonicalizes its corpus under) must be that same group.
/// Covers every family the oracle matrix or the benchmark runs, plus the
/// test-and-set spinner. Detection algorithms declare no group: their
/// derived classes are pinned instead.
#[test]
fn declared_groups_are_the_derived_classes() {
    fn mutex<A: MutexAlgorithm>(alg: &A)
    where
        A::Lock: PartialEq,
    {
        for checker in [Safety, Progress, Liveness] {
            let derived = mutex_classes(alg, 1, checker);
            let what = format!("{} n={} {checker:?}", alg.name(), alg.n());
            assert_eq!(alg.symmetry(), derived, "{what}");
        }
    }
    fn naming<A: NamingAlgorithm>(alg: &A)
    where
        A::Proc: PartialEq,
    {
        let what = format!("{} n={}", alg.name(), alg.n());
        assert_eq!(alg.symmetry(), naming_classes(alg), "{what}");
    }

    mutex(&PetersonTwo::new());
    for n in [2, 3] {
        mutex(&LamportFast::new(n));
        mutex(&Bakery::new(n));
        mutex(&TasSpin::new(n));
    }
    mutex(&Bakery::new(3).with_mutation(BakeryMutation::FcfsOffByOne));
    mutex(&Dijkstra::new(2));
    for n in [3, 4] {
        mutex(&Tournament::new(n, 1));
        mutex(&Tournament::new(n, 1).with_exit_order(ExitOrder::LeafToRoot));
    }
    mutex(&Tournament::new(4, 1).with_mutation(TournamentMutation::SkipRootLevel));

    for n in [2, 3, 6] {
        naming(&TasScan::new(n));
    }
    for n in [2, 4, 8] {
        naming(&TafTree::new(n).unwrap());
        naming(&TasTarTree::new(n).unwrap());
    }
    naming(&TasReadSearch::new(3));
    naming(&FlipReadAttempt::new(8).unwrap());
    for (n, seed) in [(3, 1), (4, 0), (4, 1), (4, 2)] {
        naming(&MutatedTasScan::new(n, seed));
    }

    assert!(detection_classes(&Splitter::new(3)).is_trivial());
    assert!(detection_classes(&SplitterTree::new(4, 1)).is_trivial());
    assert!(detection_classes(&MutexDetector::new(PetersonTwo::new())).is_trivial());
    assert_eq!(
        detection_classes(&BrokenDetector::new(2)),
        SymmetryGroup::full(2)
    );
}

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

//! Cross-crate exhaustive verification: the heavier model-checking
//! configurations (larger n / more trips / crash adversaries) that the
//! per-crate unit tests keep small.
//!
//! Every exploration here is deterministic (DFS over a finite state
//! space, no RNG anywhere) and carries an **explicit** state budget so a
//! regression that blows up a state space fails fast with
//! [`ExploreError::StateBudget`] instead of hanging CI. Budgets are sized
//! ~2x the state count each instance actually visits (recorded in the
//! comments), so they bound time and memory without being brittle.
//!
//! The fast suite runs with the explorer's reductions enabled (see
//! `tests/common/mod.rs` and `tests/reduction_equiv.rs` for the
//! equivalence evidence); budgets are tightened to the *reduced* counts
//! so a reduction regression — state counts creeping back toward the
//! naive explosion — fails immediately. The un-reduced baselines of the
//! heaviest configurations are `#[ignore]`-marked and run in CI's
//! dedicated release-profile exhaustive job.

mod common;

use cfc::mutex::{ExitOrder, LamportFast, PetersonTwo, Splitter, SplitterTree, Tournament};
use cfc::naming::{Dualized, TafTree, TasReadSearch, TasScan, TasTarTree};
use cfc::verify::explore::ExploreConfig;
use cfc::verify::{
    check_detection_safety, check_mutex_safety, check_naming_uniqueness, ExploreError,
};
use common::{budget, por_only, reduced};

#[test]
fn lamport_three_processes_every_interleaving_is_safe() {
    // 11.1k baseline states; POR trims the halt interleavings to ~10.9k.
    let stats = check_mutex_safety(&LamportFast::new(3), 1, por_only(25_000)).unwrap();
    assert!(stats.states > 10_000);
    assert!(stats.terminals > 0);
}

#[test]
fn peterson_two_trips_exhaustive() {
    // 430 baseline states, 409 reduced.
    check_mutex_safety(&PetersonTwo::new(), 3, reduced(1_000)).unwrap();
}

#[test]
fn lamport_tournament_exhaustive() {
    // 3-ary Lamport nodes, two levels; ~1.03M baseline states, ~891k with
    // ample sets serializing the disjoint subtrees. Symmetry is left off:
    // each client's lock embeds its distinct path, so the quotient is
    // trivial and canonicalization would only add overhead.
    check_mutex_safety(&Tournament::new(4, 2), 1, por_only(1_800_000)).unwrap();
}

#[test]
fn peterson_tournament_five_processes_exhaustive() {
    // Unbalanced binary tree (5 < 8 leaves): ~515k baseline states, ~334k
    // with partial-order reduction.
    check_mutex_safety(&Tournament::new(5, 1), 1, por_only(700_000)).unwrap();
}

#[test]
fn unsafe_exit_order_caught_for_lamport_nodes_too() {
    // The leaf-to-root release is unsafe for Lamport-node tournaments as
    // well: releasing the leaf lets a same-slot successor climb into the
    // still-held upper node, whose later release wipes the successor's
    // announcement. The reduced explorer must find the interleaving too —
    // partial-order reduction only prunes reorderings of independent
    // steps, never a path to a visible violation.
    let alg = Tournament::new(4, 2).with_exit_order(ExitOrder::LeafToRoot);
    match check_mutex_safety(&alg, 1, por_only(1_800_000)) {
        Err(ExploreError::Violation(v)) => {
            assert!(v.message.contains("critical section"));
        }
        Ok(stats) => {
            // If exploration finds no violation for this small instance,
            // the order merely *happens* to be safe here; the Peterson
            // case in cfc-verify's unit tests is the definitive exhibit.
            assert!(stats.states > 0);
        }
        Err(other) => panic!("unexpected exploration failure: {other}"),
    }
}

#[test]
fn detection_exhaustive_with_crashes() {
    // A crash before deciding must not create a second winner. Detection
    // processes are pid-distinguished (trivial symmetry), and crash
    // branching suspends the ample-set rule, so this runs near-baseline.
    let cfg = ExploreConfig {
        max_states: 200_000,
        max_crashes: 1,
        ..ExploreConfig::reduced()
    };
    check_detection_safety(&Splitter::new(3), cfg).unwrap();
    check_detection_safety(&SplitterTree::new(3, 1), cfg).unwrap();
}

#[test]
fn naming_exhaustive_under_double_crashes() {
    // Baseline: 8.8k / 10.1k / 18.1k states. Reduced: 405 / 481 / 839 —
    // the four identical walkers collapse into multisets of local states.
    check_naming_uniqueness(&TasScan::new(4), 2, reduced(1_000)).unwrap();
    check_naming_uniqueness(&TafTree::new(4).unwrap(), 2, reduced(1_200)).unwrap();
    check_naming_uniqueness(&TasReadSearch::new(4), 2, reduced(2_000)).unwrap();
}

#[test]
fn tas_tar_tree_exhaustive_with_crash() {
    // 13.4k baseline states, 628 reduced.
    check_naming_uniqueness(&TasTarTree::new(4).unwrap(), 1, reduced(1_500)).unwrap();
}

#[test]
fn reductions_shrink_exhaustive_naming_configs_5x() {
    // The acceptance bar for the reduction subsystem, asserted
    // numerically: on these two exhaustive configurations the reduced
    // explorer visits at least 5x fewer states than the baseline (the
    // measured factor is ~21x for both).
    for (base_stats, red_stats) in [
        (
            check_naming_uniqueness(&TasScan::new(4), 2, budget(2_000_000)).unwrap(),
            check_naming_uniqueness(&TasScan::new(4), 2, reduced(1_000)).unwrap(),
        ),
        (
            check_naming_uniqueness(&TafTree::new(4).unwrap(), 2, budget(2_000_000)).unwrap(),
            check_naming_uniqueness(&TafTree::new(4).unwrap(), 2, reduced(1_200)).unwrap(),
        ),
    ] {
        assert!(
            base_stats.states >= 5 * red_stats.states,
            "expected >= 5x reduction, got {} baseline vs {} reduced",
            base_stats.states,
            red_stats.states
        );
        assert!(red_stats.orbits_merged > 0, "symmetry merged no orbits");
        assert!(red_stats.states_pruned_por > 0, "ample sets pruned nothing");
        // Reduction must never lose quiescent coverage entirely.
        assert!(red_stats.terminals > 0);
    }
}

#[test]
fn eight_tree_walkers_explore_to_quiescence() {
    // Eight identical tree-walkers have ~15^8 joint process states — the
    // config this suite used to truncate at a 50k-state budget. Under
    // symmetry (8! interchangeable walkers) plus ample sets (disjoint
    // subtrees serialize), the whole space is 8,963 canonical states and
    // explores to quiescence well inside the very budget that used to
    // overflow: every interleaving yields 8 distinct names and every
    // walker halts.
    let stats = check_naming_uniqueness(&TafTree::new(8).unwrap(), 0, reduced(50_000)).unwrap();
    assert!(stats.terminals >= 1, "no quiescent state reached");
    assert!(
        stats.states < 20_000,
        "reduction regressed: {} states",
        stats.states
    );
    assert!(stats.orbits_merged > 1_000);
}

#[test]
fn dualized_algorithms_explore_identically() {
    let base = check_naming_uniqueness(&TasScan::new(3), 1, reduced(5_000)).unwrap();
    let dual = check_naming_uniqueness(&Dualized::new(TasScan::new(3)), 1, reduced(5_000)).unwrap();
    // Dualization is a bijection on runs, and the dual processes forward
    // their fingerprints: identical canonical state-space size.
    assert_eq!(base.states, dual.states);
    assert_eq!(base.terminals, dual.terminals);
    assert_eq!(base.orbits_merged, dual.orbits_merged);
}

#[test]
fn oversized_exploration_fails_gracefully() {
    // The same eight-walker joint space *without* reductions is far
    // beyond any budget. The baseline explorer must stop at its state cap
    // with a clean error instead of consuming unbounded memory.
    let cfg = budget(50_000);
    match check_naming_uniqueness(&TafTree::new(8).unwrap(), 0, cfg) {
        Err(ExploreError::StateBudget(n)) => assert!(n > 50_000),
        other => panic!("expected state-budget stop, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Un-reduced baselines of the heaviest configurations: `--ignored`, run
// in CI's dedicated release-profile exhaustive job (see ci.yml).
// ---------------------------------------------------------------------

#[test]
#[ignore = "heavy baseline (~1.03M states); run via cargo test --release -- --ignored"]
fn exhaustive_lamport_tournament_baseline() {
    let stats = check_mutex_safety(&Tournament::new(4, 2), 1, budget(2_000_000)).unwrap();
    assert!(stats.states > 1_000_000);
}

#[test]
#[ignore = "heavy baseline (~515k states); run via cargo test --release -- --ignored"]
fn exhaustive_peterson_tournament_five_baseline() {
    let stats = check_mutex_safety(&Tournament::new(5, 1), 1, budget(1_000_000)).unwrap();
    assert!(stats.states > 500_000);
}

#[test]
#[ignore = "heavy baseline violation search; run via cargo test --release -- --ignored"]
fn exhaustive_unsafe_exit_order_baseline() {
    let alg = Tournament::new(4, 2).with_exit_order(ExitOrder::LeafToRoot);
    match check_mutex_safety(&alg, 1, budget(2_000_000)) {
        Err(ExploreError::Violation(v)) => assert!(v.message.contains("critical section")),
        Ok(stats) => assert!(stats.states > 0),
        Err(other) => panic!("unexpected exploration failure: {other}"),
    }
}

// ---------------------------------------------------------------------
// Packed-arena scale targets: configurations past the old ~5M-state
// ceiling, reachable because the visited set stores one bit-packed copy
// of each canonical state instead of a boxed `Node` per hash-map key.
// ---------------------------------------------------------------------

#[test]
#[ignore = "heavy packed-store target (tens of millions of states); run via cargo test --release -- --ignored"]
fn exhaustive_tournament_seven_packed() {
    // Seven processes on an unbalanced binary tournament tree — an order
    // of magnitude past the n=6 instance that defined the old ceiling.
    // The default packed store is what makes this fit; the assertions pin
    // both the scale and the per-state footprint the CSV reports.
    let stats = check_mutex_safety(&Tournament::new(7, 1), 1, por_only(80_000_000)).unwrap();
    assert!(
        stats.states > 5_000_000,
        "expected to clear the old 5M ceiling, visited only {}",
        stats.states
    );
    let bytes_per_state = stats.footprint.arena_bytes as f64 / stats.states as f64;
    assert!(
        bytes_per_state < 64.0,
        "packed stride regressed to {bytes_per_state:.1} B/state"
    );
}

#[test]
#[ignore = "heaviest packed-store target (hundreds of millions of states); run via cargo test --release -- --ignored"]
fn exhaustive_tournament_eight_packed() {
    // Eight processes on the balanced three-level tournament tree — the
    // scale point the open-addressed digest index and the CSR edge
    // arena were built to reach. The footprint assertion covers the
    // *whole* per-state cost (arena stride + index slots + edges; the
    // safety DFS records no edges) and pins it below the 64 B/state
    // arena-only bar the n=7 target set in PR 6.
    let stats = check_mutex_safety(&Tournament::new(8, 1), 1, por_only(600_000_000)).unwrap();
    assert!(
        stats.states > 50_000_000,
        "expected an order of magnitude past the n=7 target, visited only {}",
        stats.states
    );
    let bytes_per_state = stats.footprint.total_bytes() as f64 / stats.states as f64;
    assert!(
        bytes_per_state < 64.0,
        "total per-state footprint regressed to {bytes_per_state:.1} B/state"
    );
}

//! Differential validation of the fair-cycle liveness checker: reduced
//! and un-reduced analyses must agree on every config, starvable
//! verdicts must carry concretely validated lassos, and the
//! classifications must match the algorithms' known fairness properties.
//!
//! | algorithm | verdict | bypass |
//! |---|---|---|
//! | Peterson, tournament n=2 | starvation-free | 1 |
//! | bakery n | starvation-free (FCFS) | 2(n−1) |
//! | tournament n≥3 | starvation-free per level | unbounded (no wait-free doorway) |
//! | Lamport fast, test-and-set, Dijkstra | **starvable** | — |

mod common;

use cfc::core::{ProcessId, Section, Status};
use cfc::mutex::{Bakery, Dijkstra, LamportFast, MutexAlgorithm, PetersonTwo, TasSpin, Tournament};
use cfc::naming::{TafTree, TasReadSearch, TasScan};
use cfc::verify::{
    check_mutex_starvation, check_naming_lockout, replay, ExploreConfig, LivenessReport,
    ScheduleStep,
};
use common::labeled_variants;

/// Checks one algorithm across all four variants, asserting that every
/// variant produces the same classification and bypass bound, and that
/// every starvable verdict's lasso replays to a state with the victim
/// still running and pending — the un-reduced re-check of a witness the
/// reduced graph discovered.
fn classify<A>(alg: &A, max_states: usize) -> (bool, Option<u64>)
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + std::hash::Hash + 'static,
{
    let mut outcome: Option<(bool, Option<u64>)> = None;
    for (label, config) in labeled_variants(max_states) {
        let report = check_mutex_starvation(alg, config).unwrap();
        let this = (
            report.is_starvation_free(),
            report.bypass().unwrap_or_default(),
        );
        recheck_witness(alg, &report);
        match outcome {
            None => outcome = Some(this),
            Some(prev) => assert_eq!(
                prev,
                this,
                "{}: reduced and un-reduced disagree ({label})",
                alg.name(),
            ),
        }
    }
    outcome.unwrap()
}

/// Replays a starvable verdict's lasso (stem + three revolutions)
/// un-reduced and confirms the victim is still trying at the end while
/// every revolution stepped it.
fn recheck_witness<A>(alg: &A, report: &LivenessReport)
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + std::hash::Hash,
{
    let Some(witness) = report.witness() else {
        return;
    };
    assert!(!witness.lasso.cycle.is_empty());
    let victim = witness.victim;
    assert!(witness
        .lasso
        .cycle
        .iter()
        .any(|s| matches!(s, ScheduleStep::Step(p) if *p == victim)));
    let mut schedule = witness.lasso.stem.clone();
    for _ in 0..3 {
        schedule.extend(witness.lasso.cycle.iter().copied());
    }
    let clients: Vec<_> = (0..alg.n() as u32)
        .map(|i| alg.client_cycling(ProcessId::new(i), 1))
        .collect();
    let replayed = replay(alg.memory().unwrap(), clients, &schedule).unwrap();
    assert_eq!(replayed.status[victim.index()], Status::Running);
    assert_eq!(
        cfc::core::Process::section(&replayed.procs[victim.index()]),
        Some(Section::Entry),
        "{}: replayed victim must still be in its entry section",
        alg.name()
    );
}

#[test]
fn peterson_classified_starvation_free_bypass_one() {
    assert_eq!(classify(&PetersonTwo::new(), 10_000), (true, Some(1)));
}

#[test]
fn tas_spin_classified_starvable() {
    assert!(!classify(&TasSpin::new(2), 10_000).0);
    assert!(!classify(&TasSpin::new(3), 10_000).0);
}

#[test]
fn lamport_fast_classified_starvable() {
    assert!(!classify(&LamportFast::new(2), 20_000).0);
}

#[test]
fn dijkstra_classified_starvable() {
    assert!(!classify(&Dijkstra::new(2), 20_000).0);
}

#[test]
fn bakery_classified_fcfs_starvation_free() {
    // FCFS ⇒ starvation-free; the ticket-shift normalizer keeps the
    // cycling graph finite. Bypass is 2(n−1): each competitor can
    // overtake once from an in-flight gate check and once more via a
    // doorway that overlapped the victim's scan.
    assert_eq!(classify(&Bakery::new(2), 30_000), (true, Some(2)));
}

#[test]
fn tournament_classified_per_level() {
    // One Peterson node: inherits its bounded bypass.
    assert_eq!(classify(&Tournament::new(2, 1), 10_000), (true, Some(1)));
    // Two levels: still starvation-free under weak fairness, but there
    // is no wait-free doorway — a waiter frozen mid-climb can watch the
    // far subtree alternate through the root unboundedly — so bypass is
    // unbounded.
    assert_eq!(classify(&Tournament::new(3, 1), 60_000), (true, None));
}

#[test]
fn tournament_of_lamport_nodes_inherits_starvability() {
    // At l >= 2 the tree nodes are Lamport fast-mutex instances, which
    // are starvable — and so is the composition: a single arity-3 node
    // already yields the lasso.
    assert!(!classify(&Tournament::new(3, 2), 80_000).0);
}

#[test]
fn naming_algorithms_are_lockout_free() {
    // Wait-freedom leaves no cycle in which an undecided walker steps,
    // so every naming algorithm passes, crashes included.
    for (label, config) in labeled_variants(60_000) {
        let report = check_naming_lockout(&TasScan::new(3), 1, config).unwrap();
        assert!(report.is_starvation_free(), "{label}");
        let report = check_naming_lockout(&TafTree::new(4).unwrap(), 0, config).unwrap();
        assert!(report.is_starvation_free(), "{label}");
        // The naming analogue of bypass is bounded by n − 1 peers.
        let bypass = report.bypass().unwrap().expect("wait-free => bounded");
        assert!(bypass <= 3, "{label}: {bypass}");
    }
    let report = check_naming_lockout(&TasReadSearch::new(3), 0, ExploreConfig::reduced()).unwrap();
    assert!(report.is_starvation_free());
}

#[test]
fn bakery_three_bypass_scales_with_the_crowd() {
    // 2(n−1) at n = 3; the ticket quotient keeps ~42k states.
    let report = check_mutex_starvation(
        &Bakery::new(3),
        ExploreConfig::reduced().with_max_states(80_000),
    )
    .unwrap();
    assert!(report.is_starvation_free());
    assert_eq!(report.bypass(), Some(Some(4)));
}

// ---------------------------------------------------------------------
// Heavy configurations for the exhaustive release job (`cargo test
// --release -- --ignored`).
// ---------------------------------------------------------------------

#[test]
#[ignore = "heavy: full tournament liveness, run by the exhaustive release job"]
fn exhaustive_tournament_four_liveness() {
    assert_eq!(
        classify(&Tournament::new(4, 1), 1_000_000),
        (true, None),
        "two-level tournament: starvation-free, unbounded bypass"
    );
}

#[test]
#[ignore = "heavy: five-way tournament liveness, run by the exhaustive release job"]
fn exhaustive_tournament_five_liveness() {
    let report = check_mutex_starvation(
        &Tournament::new(5, 1),
        ExploreConfig::reduced().with_max_states(8_000_000),
    )
    .unwrap();
    assert!(report.is_starvation_free());
    assert_eq!(report.bypass(), Some(None), "no wait-free doorway");
}

#[test]
#[ignore = "heavy: eight-walker lockout check, run by the exhaustive release job"]
fn exhaustive_taf_tree_eight_lockout() {
    // The eight-walker test-and-flip tree: hopeless un-reduced (~15^8
    // joint states), finite under the per-victim stabilizer quotient.
    let report = check_naming_lockout(
        &TafTree::new(8).unwrap(),
        0,
        ExploreConfig::reduced().with_max_states(2_000_000),
    )
    .unwrap();
    assert!(report.is_starvation_free());
    let bypass = report.bypass().unwrap().expect("wait-free => bounded");
    assert!(bypass <= 7, "{bypass}");
}

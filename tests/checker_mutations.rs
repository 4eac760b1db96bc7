//! Mutation testing **of the verifiers themselves**: each test plants
//! one deliberate, historically plausible bug into an algorithm (behind
//! the test-only knob in `cfc_mutex::mutation`) and asserts that the
//! right checker — safety explorer, progress checker, or fair-cycle
//! liveness engine — flags it, while the unmutated algorithm passes the
//! very same check. A checker that cannot kill these mutants would be
//! measuring nothing; this suite is what makes a "verified" verdict
//! elsewhere in the repo meaningful.
//!
//! | mutation | buggy behavior | caught by |
//! |---|---|---|
//! | bakery: doorway dropped | overlapping ticket choices invisible | safety |
//! | bakery: ticket comparison off by one | equal tickets block each other | progress |
//! | bakery: exit reset skipped | stale ticket wedges all waiters | progress |
//! | peterson: turn written before flag | both read stale flags | safety |
//! | peterson: exit clears the wrong flag | peer spins forever | progress |
//! | tournament: root level skipped | two subtree winners meet | safety |
//! | tas: test-and-set success inverted | every later spinner walks in | safety |
//! | tas: (claim) "spin locks are FCFS" | overtaken forever | liveness |
//! | bakery: wait-scan footprint under-reported | hook lies about future accesses | static lint |
//! | dynamic POR: conflicts on one register dropped | sleep sets prune a racing interleaving | dynamic-vs-static differential |
//!
//! The last mutant lives in the verifier itself, planted through a
//! test-only hook of `cfc_verify::dynamic`, so its kill is a unit test of
//! that module (`conflict_under_reporting_is_killed_only_by_the_dynamic_differential`).

mod common;

use cfc::core::{ProcessId, Section, Status};
use cfc::mutex::mutation::{
    BakeryMutation, PetersonMutation, TasSpinMutation, TournamentMutation,
};
use cfc::mutex::{Bakery, MutexAlgorithm, PetersonTwo, TasSpin, Tournament};
use cfc::verify::{
    check_mutex_progress, check_mutex_safety, check_mutex_starvation, lint_model, replay,
    ExploreError, FindingKind, ScheduleStep,
};
use common::budget;

/// Replays a safety violation's schedule on fresh `cs_steps = 1` clients
/// and asserts the reached state really has two occupants — the
/// checker's claim, re-established without the checker.
fn assert_two_in_critical<A>(alg: &A, trips: u32, schedule: &[ScheduleStep])
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + std::hash::Hash,
{
    let clients: Vec<_> = (0..alg.n() as u32)
        .map(|i| alg.client_with_cs(ProcessId::new(i), trips, 1))
        .collect();
    let replayed = replay(alg.memory().unwrap(), clients, schedule).unwrap();
    let in_cs = replayed
        .procs
        .iter()
        .filter(|c| cfc::core::Process::section(*c) == Some(Section::Critical))
        .count();
    assert_eq!(in_cs, 2, "replayed state must exhibit the violation");
}

/// Replays a progress violation's schedule on fresh plain clients and
/// asserts the reached state is genuinely non-quiescent.
fn assert_wedged<A>(alg: &A, trips: u32, schedule: &[ScheduleStep])
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + std::hash::Hash,
{
    let clients: Vec<_> = (0..alg.n() as u32)
        .map(|i| alg.client(ProcessId::new(i), trips))
        .collect();
    let replayed = replay(alg.memory().unwrap(), clients, schedule).unwrap();
    assert!(
        replayed.status.contains(&Status::Running),
        "replayed stuck state must still have a running process"
    );
}

/// Unwraps a violation. The schedule may legitimately be empty: for the
/// exit-protocol mutants the *initial* state is already doomed (whoever
/// finishes first wedges everyone else, on every interleaving), and the
/// progress checker reports the root as the stuck state.
fn violation(err: ExploreError, what: &str) -> Vec<ScheduleStep> {
    match err {
        ExploreError::Violation(v) => v.schedule,
        other => panic!("{what}: expected a violation, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Bakery mutants.
// ---------------------------------------------------------------------

#[test]
fn bakery_without_doorway_is_killed_by_the_safety_checker() {
    let mutant = Bakery::new(2).with_mutation(BakeryMutation::DropDoorway);
    let err = check_mutex_safety(&mutant, 1, budget(200_000)).unwrap_err();
    let schedule = violation(err, "bakery/drop-doorway");
    assert_two_in_critical(&mutant, 1, &schedule);
    // The unmutated bakery passes the identical check.
    check_mutex_safety(&Bakery::new(2), 1, budget(200_000)).unwrap();
}

#[test]
fn bakery_off_by_one_comparison_is_killed_by_the_progress_checker() {
    let mutant = Bakery::new(2).with_mutation(BakeryMutation::FcfsOffByOne);
    let err = check_mutex_progress(&mutant, 1, budget(200_000)).unwrap_err();
    let schedule = violation(err, "bakery/fcfs-off-by-one");
    assert_wedged(&mutant, 1, &schedule);
    check_mutex_progress(&Bakery::new(2), 1, budget(200_000)).unwrap();
    // And *only* the progress checker should kill it: equal tickets
    // deadlock, they never admit two holders, so mutual exclusion
    // still verifies — the deadlocked spin states are non-quiescent and
    // the safety checker's terminal condition never sees them.
    check_mutex_safety(&mutant, 1, budget(200_000)).unwrap();
}

#[test]
fn bakery_skipped_exit_reset_is_killed_by_the_progress_checker() {
    let mutant = Bakery::new(2).with_mutation(BakeryMutation::SkipExitReset);
    let err = check_mutex_progress(&mutant, 1, budget(200_000)).unwrap_err();
    let schedule = violation(err, "bakery/skip-exit-reset");
    assert_wedged(&mutant, 1, &schedule);
    check_mutex_progress(&Bakery::new(2), 1, budget(200_000)).unwrap();
}

#[test]
fn bakery_under_reported_scan_is_killed_by_the_static_lint() {
    // This mutant never misbehaves at runtime: every run is the textbook
    // bakery's. Only the `protocol_footprint` *hook* lies, omitting the
    // wait-scan suffix from the declared future accesses — a bug no
    // explorer can observe in any single run, because the hook only
    // shapes which interleavings partial-order reduction may skip.
    let mutant = Bakery::new(3).with_mutation(BakeryMutation::UnderReportScan);
    let clients: Vec<_> = (0..3)
        .map(|i| mutant.client_with_cs(ProcessId::new(i), 1, 1))
        .collect();
    let report = lint_model(&mutant.layout(), &clients);
    assert!(!report.is_clean(), "the lying hook must be flagged");
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.kind == FindingKind::FutureNotCovered),
        "every finding is an uncovered future access: {:?}",
        report.findings
    );
    // The runtime checkers cannot kill it — the algorithm is correct.
    check_mutex_safety(&mutant, 1, budget(200_000)).unwrap();
    check_mutex_progress(&mutant, 1, budget(200_000)).unwrap();
    // And the honest hooks lint clean on the identical configuration.
    let clean = Bakery::new(3);
    let clients: Vec<_> = (0..3)
        .map(|i| clean.client_with_cs(ProcessId::new(i), 1, 1))
        .collect();
    let report = lint_model(&clean.layout(), &clients);
    assert!(report.is_clean(), "unmutated bakery: {:?}", report.findings);
}

// ---------------------------------------------------------------------
// Peterson mutants.
// ---------------------------------------------------------------------

#[test]
fn peterson_turn_written_first_is_killed_by_the_safety_checker() {
    let mutant = PetersonTwo::new().with_mutation(PetersonMutation::TurnWriteFirst);
    let err = check_mutex_safety(&mutant, 1, budget(100_000)).unwrap_err();
    let schedule = violation(err, "peterson/turn-first");
    assert_two_in_critical(&mutant, 1, &schedule);
    check_mutex_safety(&PetersonTwo::new(), 1, budget(100_000)).unwrap();
}

#[test]
fn peterson_exit_clearing_the_wrong_flag_is_killed_by_the_progress_checker() {
    let mutant = PetersonTwo::new().with_mutation(PetersonMutation::ExitWrongFlag);
    let err = check_mutex_progress(&mutant, 1, budget(100_000)).unwrap_err();
    let schedule = violation(err, "peterson/exit-wrong-flag");
    assert_wedged(&mutant, 1, &schedule);
    check_mutex_progress(&PetersonTwo::new(), 1, budget(100_000)).unwrap();
}

// ---------------------------------------------------------------------
// Tournament mutant.
// ---------------------------------------------------------------------

#[test]
fn tournament_skipping_the_root_is_killed_by_the_safety_checker() {
    // Depth-2 binary tree over four processes: the winners of the two
    // leaf nodes both believe they won the tree.
    let mutant = Tournament::new(4, 1).with_mutation(TournamentMutation::SkipRootLevel);
    let err = check_mutex_safety(&mutant, 1, budget(500_000)).unwrap_err();
    let schedule = violation(err, "tournament/skip-root");
    assert_two_in_critical(&mutant, 1, &schedule);
    check_mutex_safety(&Tournament::new(4, 1), 1, budget(500_000)).unwrap();
}

// ---------------------------------------------------------------------
// Test-and-set mutants.
// ---------------------------------------------------------------------

#[test]
fn tas_inverted_test_is_killed_by_the_safety_checker() {
    let mutant = TasSpin::new(2).with_mutation(TasSpinMutation::InvertedTest);
    let err = check_mutex_safety(&mutant, 1, budget(50_000)).unwrap_err();
    let schedule = violation(err, "tas/inverted-test");
    assert_two_in_critical(&mutant, 1, &schedule);
    check_mutex_safety(&TasSpin::new(2), 1, budget(50_000)).unwrap();
}

#[test]
fn tas_fcfs_claim_is_refuted_by_the_liveness_checker() {
    // The eighth mutation is a *claim*, not a code change: assert that a
    // plain test-and-set lock were first-come-first-served (any bounded
    // bypass at all). The fair-cycle checker refutes it mechanically —
    // the verdict is starvable, with a validated lasso in which the
    // winner overtakes an engaged waiter on every revolution.
    let alg = TasSpin::new(2);
    let report = check_mutex_starvation(&alg, budget(50_000)).unwrap();
    assert!(
        report.bypass().is_none(),
        "a starvable lock cannot carry any bypass bound, let alone FCFS"
    );
    let witness = report.witness().expect("the claim must be refuted by a lasso");
    // The refutation is replayable: across three revolutions the victim
    // keeps stepping (weak fairness) yet never enters, while the winner
    // is served again and again.
    let mut schedule = witness.lasso.stem.clone();
    for _ in 0..3 {
        schedule.extend(witness.lasso.cycle.iter().copied());
    }
    let clients: Vec<_> = (0..2)
        .map(|i| alg.client_cycling(ProcessId::new(i), 1))
        .collect();
    let replayed = replay(alg.memory().unwrap(), clients, &schedule).unwrap();
    let v = witness.victim.index();
    assert_eq!(replayed.status[v], Status::Running);
    assert_eq!(
        cfc::core::Process::section(&replayed.procs[v]),
        Some(Section::Entry)
    );
}

// ---------------------------------------------------------------------
// Sensitivity baseline: the checkers pass every unmutated algorithm, so
// the kills above are exactly the mutants and nothing else.
// ---------------------------------------------------------------------

#[test]
fn unmutated_algorithms_survive_every_checker() {
    check_mutex_safety(&Bakery::new(2), 1, budget(200_000)).unwrap();
    check_mutex_safety(&PetersonTwo::new(), 1, budget(100_000)).unwrap();
    check_mutex_safety(&TasSpin::new(2), 1, budget(50_000)).unwrap();
    check_mutex_progress(&Bakery::new(2), 1, budget(200_000)).unwrap();
    check_mutex_progress(&PetersonTwo::new(), 1, budget(100_000)).unwrap();
    check_mutex_progress(&TasSpin::new(2), 1, budget(50_000)).unwrap();
    let peterson = check_mutex_starvation(&PetersonTwo::new(), budget(100_000)).unwrap();
    assert!(peterson.is_starvation_free());
}

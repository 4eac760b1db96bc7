//! Reduction-aware progress checking. On the progress rows of the
//! oracle matrix, the POR and POR+symmetry columns under the declared
//! hooks must return the row's verdict with their pinned counts, and
//! every violation must replay under the un-reduced semantics to a
//! genuinely non-quiescent state; the heavy rows (Lamport n=3,
//! tournament n=4, the splitter tree) run the same columns in
//! `tests/oracle_matrix.rs`. The configurations below overflow (or
//! would overflow) the un-reduced state budget and verify deadlock
//! freedom on the reduced graph instead. The soundness argument
//! (symmetry quotients by a bisimulation; partial-order reduction keeps
//! independence and the fresh-successor proviso while dropping
//! invisibility) is in the README "Verification pipeline" section.

mod common;

use cfc::core::{ProcessId, Status};
use cfc::mutex::{Bakery, MutexAlgorithm, TasSpin, Tournament};
use cfc::naming::TafTree;
use cfc::verify::{
    check_mutex_progress, check_naming_progress, check_progress, replay, with_telemetry,
    ExploreError, Phase, Recorder, Telemetry, TelemetryEvent,
};
use common::matrix::{check_rows, Progress, Sys, DECLARED_POR};
use common::{budget, reduced};

#[test]
fn mutex_progress_agrees_across_reductions() {
    check_rows(&DECLARED_POR, |r| r.checker == Progress && r.sys.is_mutex());
}

#[test]
fn naming_progress_agrees_across_reductions() {
    check_rows(&DECLARED_POR, |r| {
        r.checker == Progress && r.sys.is_naming()
    });
}

/// Splitters always terminate: progress holds for every participant.
#[test]
fn detection_progress_agrees_across_reductions() {
    check_rows(&DECLARED_POR, |r| {
        r.checker == Progress && matches!(r.sys, Sys::Splitter(_))
    });
}

/// Lemma 1's mutex-derived detector: losers busy-wait forever, so every
/// variant must find a stuck state that replays to a non-quiescent one.
#[test]
fn lemma1_detector_violation_replays_in_every_variant() {
    check_rows(&DECLARED_POR, |r| {
        r.checker == Progress && r.sys == Sys::Lemma1
    });
}

/// Two test-and-set spinners start identical, so the checker explores
/// their symmetry quotient; a crash inside the critical section leaves
/// the bit set and the peer spinning forever. The stuck orbit must be
/// found on the quotient (orbits merge on the way there), and the
/// schedule re-derived along the creator tree must replay to a state
/// where the peer, on its own, can never finish.
#[test]
fn crashed_spin_lock_holder_is_caught_on_the_quotient() {
    let alg = TasSpin::new(2);
    let memory = alg.memory().unwrap();
    let clients: Vec<_> = (0..2).map(|i| alg.client(ProcessId::new(i), 1)).collect();
    let rec = Recorder::new();
    let tel = Telemetry::new().with_sink(rec.clone()).with_stride(1);
    let config = reduced(10_000).with_max_crashes(1);
    let result = with_telemetry(&tel, || {
        check_progress(memory.clone(), clients.clone(), config)
    });
    let Err(ExploreError::Violation(v)) = result else {
        panic!("expected a stuck state, got {result:?}");
    };
    let merged = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::Snapshot { phase, snap, .. } if *phase == Phase::ProgressBfs => {
                Some(snap.orbits_merged)
            }
            _ => None,
        })
        .max();
    assert!(merged > Some(0), "no orbit merged: {merged:?}");

    let reached = replay(memory, clients, &v.schedule).unwrap();
    let crashed = reached
        .status
        .iter()
        .position(|s| *s == Status::Crashed)
        .expect("the schedule crashes a client");
    let peer = 1 - crashed;
    assert_eq!(reached.status[peer], Status::Running);
    match check_progress(
        reached.memory,
        vec![reached.procs[peer].clone()],
        budget(100),
    ) {
        Err(ExploreError::Violation(solo)) => assert!(solo.schedule.is_empty()),
        other => panic!("the peer can finish on its own: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The acceptance configuration: a process count whose un-reduced
// progress graph exceeds the state budget, verified on the reduced
// graph. (Measured: tournament n=5 builds ~455k un-reduced progress
// states but 224,326 reduced ones.)
// ---------------------------------------------------------------------

#[test]
fn tournament_five_progress_exceeds_unreduced_budget_but_verifies_reduced() {
    let cap = 300_000;
    match check_mutex_progress(&Tournament::new(5, 1), 1, budget(cap)) {
        Err(ExploreError::StateBudget(n)) => assert!(n > cap),
        other => panic!("expected the un-reduced graph to overflow, got {other:?}"),
    }
    let stats = check_mutex_progress(&Tournament::new(5, 1), 1, reduced(cap)).unwrap();
    assert!(stats.states <= cap, "{stats:?}");
    assert!(stats.states_pruned_por > 0, "{stats:?}");
    assert!(stats.terminals >= 1);
}

#[test]
fn eight_walker_progress_verifies_only_reduced() {
    // The eight-walker taf-tree progress graph is ~15^8 joint states
    // un-reduced; under the canonical quotient it collapses to well under
    // the same 50k budget that the baseline overflows.
    let cap = 50_000;
    match check_naming_progress(&TafTree::new(8).unwrap(), 0, budget(cap)) {
        Err(ExploreError::StateBudget(n)) => assert!(n > cap),
        other => panic!("expected the un-reduced graph to overflow, got {other:?}"),
    }
    let stats = check_naming_progress(&TafTree::new(8).unwrap(), 0, reduced(cap)).unwrap();
    assert!(
        stats.states < 20_000,
        "reduction regressed: {}",
        stats.states
    );
    assert!(stats.orbits_merged > 0);
}

// ---------------------------------------------------------------------
// Heavy reduced-progress configurations: `--ignored`, run in CI's
// dedicated release-profile exhaustive job (see ci.yml).
// ---------------------------------------------------------------------

#[test]
#[ignore = "heavy reduced progress check (~4.1M states, minutes); run via cargo test --release -- --ignored"]
fn exhaustive_tournament_six_progress_reduced() {
    // Six clients over an eight-leaf tree: the un-reduced progress graph
    // (measured 5,366,136 states in the release profile) overflows a
    // 5M-state budget that the reduced graph (4,113,635 states: the
    // clients start distinct, so only POR reduces it) verifies deadlock
    // freedom inside.
    match check_mutex_progress(&Tournament::new(6, 1), 1, budget(5_000_000)) {
        Err(ExploreError::StateBudget(n)) => assert!(n > 5_000_000),
        other => panic!("expected the un-reduced graph to overflow, got {other:?}"),
    }
    let stats = check_mutex_progress(&Tournament::new(6, 1), 1, reduced(5_000_000)).unwrap();
    assert!(stats.states_pruned_por > 0);
    assert!(stats.terminals >= 1);
}

#[test]
#[ignore = "heavy reduced progress check (~422k states); run via cargo test --release -- --ignored"]
fn exhaustive_bakery_four_progress_reduced() {
    // Four bakery customers: 421,990 reduced progress states. Bakery scans
    // every ticket, so ample sets bite less than for tournaments — the
    // point of this config is the four-customer deadlock-freedom verdict
    // itself.
    let stats = check_mutex_progress(&Bakery::new(4), 1, reduced(1_000_000)).unwrap();
    assert!(stats.states > 100_000);
    assert!(stats.terminals >= 1);
}

#[test]
#[ignore = "heavy progress baseline (~455k states); run via cargo test --release -- --ignored"]
fn exhaustive_tournament_five_progress_baseline() {
    let stats = check_mutex_progress(&Tournament::new(5, 1), 1, budget(1_000_000)).unwrap();
    assert!(stats.states > 400_000);
}

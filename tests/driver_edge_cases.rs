//! Edge-case coverage for the unified traversal driver, at the public
//! checker surface: degenerate process counts, trivial stabilizer
//! groups, the normalizer/POR interaction, and crash-budget boundaries —
//! the corners where three formerly separate search loops used to be
//! able to disagree.

mod common;

use cfc::core::{Process, ProcessId, Status};
use cfc::mutex::{Bakery, MutexAlgorithm, PetersonTwo, TasSpin};
use cfc::naming::TasScan;
use cfc::verify::{
    check_mutex_progress, check_mutex_starvation, check_naming_lockout, check_naming_progress,
    check_naming_uniqueness, replay, validate_bypass, ExploreError, LivenessSpec, ScheduleStep,
};
use common::{budget, labeled_variants, por_only};

/// n = 1: a lone cycling client can never be overtaken or starved. Every
/// reduction variant must agree on bound 0 — and since a solo spinner's
/// entry always succeeds on its first step, **no** reachable state has
/// it pending-and-engaged, so the zero bound legitimately carries no
/// witness (the documented absent case).
#[test]
fn single_process_victim_is_trivially_starvation_free() {
    let alg = TasSpin::new(1);
    for (label, config) in labeled_variants(1_000) {
        let report = check_mutex_starvation(&alg, config).unwrap();
        assert!(report.is_starvation_free(), "{label}");
        assert_eq!(report.bypass(), Some(Some(0)), "{label}");
        assert!(
            report.bypass_witness().is_none(),
            "{label}: a never-engaged waiter has no overtaking state to witness"
        );
    }
    // A solo *bakery* customer, by contrast, is pending-and-engaged all
    // through its doorway scan: bound 0 **with** a validating witness.
    let alg = Bakery::new(1);
    for (label, config) in labeled_variants(2_000) {
        let report = check_mutex_starvation(&alg, config).unwrap();
        assert_eq!(report.bypass(), Some(Some(0)), "{label}");
        let witness = report
            .bypass_witness()
            .unwrap_or_else(|| panic!("{label}: engaged solo customer must be witnessed"));
        assert_eq!(witness.bypass, 0, "{label}");
        let spec = LivenessSpec {
            pending: &|c: &cfc::mutex::MutexClient<_>| {
                c.section() == Some(cfc::core::Section::Entry)
            },
            engaged: &|c: &cfc::mutex::MutexClient<_>| c.engaged(),
            served: &|b: &cfc::mutex::MutexClient<_>, a: &cfc::mutex::MutexClient<_>| {
                b.section() != Some(cfc::core::Section::Critical)
                    && a.section() == Some(cfc::core::Section::Critical)
            },
            normalize: None,
        };
        let clients = vec![alg.client_cycling(ProcessId::new(0), 1)];
        validate_bypass(&alg.memory().unwrap(), &clients, witness, &spec)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

/// Interchangeable walkers collapse to one representative victim under
/// symmetry (its stabilizer pins the victim, the peers merge), while the
/// baseline checks every process — same verdict, same bound.
#[test]
fn stabilizer_quotient_checks_one_victim_per_class() {
    let alg = TasScan::new(2);
    let base = check_naming_lockout(&alg, 0, budget(50_000)).unwrap();
    let sym = check_naming_lockout(
        &alg,
        0,
        cfc::verify::ExploreConfig {
            symmetry: true,
            ..budget(50_000)
        },
    )
    .unwrap();
    assert!(base.is_starvation_free() && sym.is_starvation_free());
    assert_eq!(base.bypass(), sym.bypass());
    assert_eq!(base.victims, 2);
    // One two-member class: a single representative, whose stabilizer
    // within the pair is trivial — the quotient degenerates soundly.
    assert_eq!(sym.victims, 1);
}

/// Identity-embedding locks refine into singleton classes: the
/// stabilizer shortcut must *not* collapse their victims (a one-sided
/// starvation bug would hide in the unchecked slot).
#[test]
fn identity_embedding_locks_keep_per_process_victims() {
    for (label, config) in labeled_variants(20_000) {
        let report = check_mutex_starvation(&PetersonTwo::new(), config).unwrap();
        assert_eq!(report.victims, 2, "{label}");
    }
}

/// Normalizer + POR: the bakery's ticket quotient disables ample-set
/// pruning (the bookkeeping cannot see through the abstraction). The
/// stats must show zero POR pruning even when the config requests it —
/// this is the documented auto-disable, asserted.
#[test]
fn bakery_normalizer_suspends_por() {
    let report = check_mutex_starvation(&Bakery::new(2), por_only(40_000)).unwrap();
    assert!(report.is_starvation_free());
    assert_eq!(
        report.stats.states_pruned_por, 0,
        "POR must be force-disabled while the ticket normalizer is active"
    );
    // A normalizer-free system under the same config does prune in the
    // liveness-safe ample mode (naming walkers on disjoint suffixes).
    let report = check_naming_lockout(&TasScan::new(3), 0, por_only(60_000)).unwrap();
    assert!(
        report.stats.states_pruned_por > 0,
        "contrast config must actually prune: {:?}",
        report.stats
    );
}

/// Zero crash budget vs. pending crash branching: the same system, same
/// budget, differing only in `max_crashes` — crash-free verification
/// must succeed with strictly fewer transitions, and the crashy graph's
/// violations (if any) must spend the budget.
#[test]
fn crash_budget_boundaries() {
    let alg = TasScan::new(2);
    let crash_free = check_naming_uniqueness(&alg, 0, budget(100_000)).unwrap();
    let crashy = check_naming_uniqueness(&alg, 1, budget(100_000)).unwrap();
    assert!(
        crashy.transitions > crash_free.transitions,
        "crash branching must add transitions: {crashy:?} vs {crash_free:?}"
    );
    assert!(crashy.states > crash_free.states);

    // Progress with a crash budget: crashed walkers count as quiesced,
    // so the wait-free scan still verifies, and the graph still grows.
    let p0 = check_naming_progress(&alg, 0, budget(100_000)).unwrap();
    let p1 = check_naming_progress(&alg, 1, budget(100_000)).unwrap();
    assert!(p1.states > p0.states);

    // Lockout freedom under crashes: verdict unchanged, witness intact.
    let report = check_naming_lockout(&alg, 1, budget(100_000)).unwrap();
    assert!(report.is_starvation_free());
    assert!(report.bypass_witness().is_some());
}

/// Progress violations found through the shared driver still replay: a
/// single stuck configuration reached through the rewritten BFS carries
/// a concrete schedule (regression guard for the predecessor-tree
/// plumbing through `BuiltGraph::first_pred`).
#[test]
fn progress_violation_schedules_replay_through_the_shared_driver() {
    use cfc::mutex::mutation::PetersonMutation;
    let mutant = PetersonTwo::new().with_mutation(PetersonMutation::ExitWrongFlag);
    let err = check_mutex_progress(&mutant, 2, budget(100_000)).unwrap_err();
    let ExploreError::Violation(v) = err else {
        panic!("expected a progress violation");
    };
    let clients: Vec<_> = (0..2)
        .map(|i| mutant.client(ProcessId::new(i), 2))
        .collect();
    let replayed = replay(mutant.memory().unwrap(), clients, &v.schedule).unwrap();
    assert!(replayed.status.contains(&Status::Running));
    assert!(
        v.schedule
            .iter()
            .all(|s| matches!(s, ScheduleStep::Step(_))),
        "no crash budget, no crash steps"
    );
}

//! Starvation classification: deadlock freedom is all the paper's
//! algorithms promise, and `cfc-verify`'s fair-cycle liveness checker
//! turns the difference into a mechanical verdict.
//!
//! Lamport's fast mutex is deadlock-free but **not** starvation-free: the
//! checker produces a weakly fair lasso in which a re-entering owner
//! overtakes the victim forever even though the victim takes a step in
//! every revolution. Peterson's algorithm, by contrast, is
//! starvation-free with bypass bound 1 — the `turn` handshake forces
//! alternation. The historical hand-built overtaking schedules survive
//! below as replay regressions: what used to be demonstrated by driving
//! an executor through an ad-hoc loop is now *discovered* as a lasso and
//! replayed mechanically.

use cfc::core::{Process, ProcessId, Section, Status};
use cfc::mutex::{LamportFast, MutexAlgorithm, MutexClient, PetersonTwo};
use cfc::verify::{
    check_mutex_starvation, replay, validate_lasso, ExploreConfig, LivenessSpec, ScheduleStep,
};

/// The mutex liveness spec, mirrored from the checker's wrapper so the
/// tests can re-validate witnesses independently.
fn spec<'a, L: cfc::mutex::LockProcess>() -> LivenessSpec<'a, MutexClient<L>> {
    LivenessSpec {
        pending: &|c: &MutexClient<L>| c.section() == Some(Section::Entry),
        engaged: &|c: &MutexClient<L>| c.engaged(),
        served: &|before: &MutexClient<L>, after: &MutexClient<L>| {
            before.section() != Some(Section::Critical)
                && after.section() == Some(Section::Critical)
        },
        normalize: None,
    }
}

fn cycling_clients<A: MutexAlgorithm>(alg: &A) -> Vec<MutexClient<A::Lock>> {
    (0..alg.n() as u32)
        .map(|i| alg.client_cycling(ProcessId::new(i), 1))
        .collect()
}

#[test]
fn lamport_fast_is_not_starvation_free() {
    // The checker discovers the overtaking schedule the old hand-driven
    // loop scripted: a weakly fair lasso in which the owner re-enters
    // forever while the victim — stepping in every revolution — never
    // leaves its entry section.
    let alg = LamportFast::new(2);
    let report = check_mutex_starvation(&alg, ExploreConfig::default()).unwrap();
    let witness = report.witness().expect("lamport-fast must be starvable");
    validate_lasso(
        &alg.memory().unwrap(),
        &cycling_clients(&alg),
        witness,
        &spec(),
    )
    .unwrap();

    // Replay regression of the discovered lasso: fifty revolutions are a
    // plain schedule. The victim takes at least one step per revolution
    // (weak fairness) yet is still in its entry section at the end,
    // while the owner has been served over and over.
    let victim = witness.victim;
    let victim_steps_per_lap = witness
        .lasso
        .cycle
        .iter()
        .filter(|s| matches!(s, ScheduleStep::Step(p) if *p == victim))
        .count();
    assert!(victim_steps_per_lap >= 1);
    let mut schedule = witness.lasso.stem.clone();
    for _ in 0..50 {
        schedule.extend(witness.lasso.cycle.iter().copied());
    }
    let replayed = replay(alg.memory().unwrap(), cycling_clients(&alg), &schedule).unwrap();
    assert_eq!(replayed.status[victim.index()], Status::Running);
    assert_eq!(
        replayed.procs[victim.index()].section(),
        Some(Section::Entry),
        "victim must still be trying after 50 overtaking revolutions"
    );
}

#[test]
fn lamport_victim_makes_no_progress_while_owner_cycles() {
    // Replay regression of the original hand schedule: the victim only
    // gets steps while the owner occupies the critical section, and is
    // still stuck in its entry code after the owner's 50th trip. No
    // ad-hoc step guard: the owner's trips bound the loop.
    let alg = LamportFast::new(2);
    let owner = ProcessId::new(0);
    let victim = ProcessId::new(1);
    let mut exec = cfc::core::Executor::new(
        alg.memory().unwrap(),
        vec![
            alg.client_with_cs(owner, 50, 1),
            alg.client_with_cs(victim, 1, 1),
        ],
    );
    while exec.status(owner) == Status::Running {
        let owner_in_cs = exec.process(owner).section() == Some(Section::Critical);
        if owner_in_cs && exec.status(victim) == Status::Running {
            exec.step_process(victim).unwrap();
            assert_ne!(
                exec.process(victim).section(),
                Some(Section::Critical),
                "victim entered while owner cycles — schedule broken"
            );
        }
        exec.step_process(owner).unwrap();
    }
    assert_eq!(exec.status(owner), Status::Done);
    assert_eq!(exec.process(victim).section(), Some(Section::Entry));
    assert!(exec.steps_taken(victim) >= 50);
}

#[test]
fn peterson_is_starvation_free_in_every_reduction_mode() {
    // The same overtaking pattern cannot starve Peterson's victim, and
    // the checker proves it across *every* schedule rather than one
    // scripted pattern: no weakly fair cycle keeps either side pending,
    // and an engaged waiter is overtaken at most once before the `turn`
    // handshake blocks the owner. (The plain-config classification is
    // unit-tested in cfc-verify; here the verdict must survive every
    // reduction mode.)
    for config in [
        ExploreConfig::default(),
        ExploreConfig::reduced(),
        ExploreConfig {
            por: true,
            ..ExploreConfig::default()
        },
    ] {
        let report = check_mutex_starvation(&PetersonTwo::new(), config).unwrap();
        assert!(report.is_starvation_free());
        assert_eq!(report.bypass(), Some(Some(1)));
        // Both sides are checked in every mode (their lock states embed
        // a side, so the victim-per-class shortcut must not collapse
        // them).
        assert_eq!(report.victims, 2);
    }
}

#[test]
fn discovered_lasso_is_minimal_evidence_not_an_accident() {
    // Tampering sanity for the replay regression itself: dropping the
    // victim's spin steps from the loop must break validation (the loop
    // stops being weakly fair), so the regression above really does pin
    // a *fair* overtaking run and not an arbitrary unfair one.
    let alg = LamportFast::new(2);
    let report = check_mutex_starvation(&alg, ExploreConfig::default()).unwrap();
    let mut witness = report.witness().unwrap().clone();
    let victim = witness.victim;
    witness
        .lasso
        .cycle
        .retain(|s| !matches!(s, ScheduleStep::Step(p) if *p == victim));
    let err = validate_lasso(
        &alg.memory().unwrap(),
        &cycling_clients(&alg),
        &witness,
        &spec(),
    )
    .unwrap_err();
    assert!(
        err.contains("not weakly fair") || err.contains("never steps"),
        "{err}"
    );
}

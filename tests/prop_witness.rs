//! Property tests for the witness guarantee: **no reported bound
//! without a replayable schedule**. Sampled over every reduction combo
//! (por × symmetry × normalizer, the latter exercised by the bakery's
//! ticket quotient), every verdict the fair-cycle checker returns must
//! be backed by machine-checked evidence that replays under the plain,
//! un-reduced step semantics:
//!
//! * a `Starvable` verdict's lasso must pass `validate_lasso` **and**
//!   keep its victim pending through three replayed revolutions;
//! * a bounded-bypass verdict's `BypassWitness` must pass
//!   `validate_bypass`, and the overtake count must be **exact**: this
//!   suite re-replays the schedule with its own independent counter
//!   (section transitions of non-victim clients) and compares.

mod common;

use cfc::core::{apply_step, Process, ProcessId, Section, Status};
use cfc::mutex::{
    Bakery, LamportFast, LockProcess, MutexAlgorithm, MutexClient, PetersonTwo, TasSpin,
};
use cfc::verify::{
    check_mutex_starvation, check_naming_lockout, replay, validate_bypass, validate_lasso,
    BypassWitness, ExploreConfig, LivenessSpec, ScheduleStep,
};
use proptest::prelude::*;

fn spec<'a, L: LockProcess>() -> LivenessSpec<'a, MutexClient<L>> {
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

fn cycling<A: MutexAlgorithm>(alg: &A) -> Vec<MutexClient<A::Lock>> {
    (0..alg.n() as u32)
        .map(|i| alg.client_cycling(ProcessId::new(i), 1))
        .collect()
}

/// Counts the witness's overtakes with this suite's own replay loop —
/// independent of `validate_bypass`'s counter: step the schedule on a
/// fresh executor-equivalent state and count every step in which a
/// non-victim client crosses into its critical section while the victim
/// is pending and engaged.
fn independent_overtake_count<A>(alg: &A, witness: &BypassWitness) -> u64
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + std::hash::Hash,
{
    let after_stem = replay(alg.memory().unwrap(), cycling(alg), &witness.stem).unwrap();
    let mut procs = after_stem.procs;
    let mut mem = after_stem.memory;
    let mut status = after_stem.status;
    let v = witness.victim.index();
    let mut count = 0u64;
    for s in &witness.overtaking {
        assert!(
            status[v] == Status::Running
                && procs[v].section() == Some(Section::Entry)
                && procs[v].engaged(),
            "victim must stay pending and engaged throughout the suffix"
        );
        match s {
            ScheduleStep::Crash(pid) => status[pid.index()] = Status::Crashed,
            ScheduleStep::Step(pid) => {
                let i = pid.index();
                let was_critical = procs[i].section() == Some(Section::Critical);
                apply_step(&mut procs[i], &mut status[i], &mut mem).unwrap();
                if i != v && !was_critical && procs[i].section() == Some(Section::Critical) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// The witness obligations for one algorithm under one reduction combo.
fn check_witnesses<A>(alg: &A, config: ExploreConfig)
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + std::hash::Hash + 'static,
{
    let report = check_mutex_starvation(alg, config).unwrap();
    let memory = alg.memory().unwrap();
    let clients = cycling(alg);
    if let Some(witness) = report.witness() {
        // Starvable: the lasso validates and three replayed revolutions
        // keep the victim pending — the reduced graph's finding holds
        // un-reduced.
        validate_lasso(&memory, &clients, witness, &spec())
            .unwrap_or_else(|e| panic!("{} ({config:?}): lasso fails validation: {e}", alg.name()));
        let mut schedule = witness.lasso.stem.clone();
        for _ in 0..3 {
            schedule.extend(witness.lasso.cycle.iter().copied());
        }
        let replayed = replay(memory, cycling(alg), &schedule).unwrap();
        let v = witness.victim.index();
        assert_eq!(replayed.status[v], Status::Running);
        assert_eq!(replayed.procs[v].section(), Some(Section::Entry));
        return;
    }
    // Starvation-free: a bounded bypass must carry an exact witness.
    let Some(Some(bound)) = report.bypass() else {
        return; // unbounded bypass carries no finite witness
    };
    let witness = report
        .bypass_witness()
        .unwrap_or_else(|| panic!("{} ({config:?}): bound {bound} without witness", alg.name()));
    assert_eq!(
        witness.bypass, bound,
        "witness must achieve the reported bound"
    );
    validate_bypass(&memory, &clients, witness, &spec()).unwrap_or_else(|e| {
        panic!(
            "{} ({config:?}): bypass witness fails validation: {e}",
            alg.name()
        )
    });
    assert_eq!(
        independent_overtake_count(alg, witness),
        bound,
        "{} ({config:?}): independent replay disagrees with the reported bound",
        alg.name()
    );
}

fn config_variant(k: usize, max_states: usize) -> ExploreConfig {
    let labeled = common::labeled_variants(max_states);
    labeled[k % labeled.len()].1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every reduction combo must produce validating witnesses for the
    /// starvable baselines (test-and-set, Lamport's fast path).
    #[test]
    fn starvable_lassos_replay_under_every_reduction(cfg in 0usize..4, alg in 0usize..3) {
        let config = config_variant(cfg, 40_000);
        match alg {
            0 => check_witnesses(&TasSpin::new(2), config),
            1 => check_witnesses(&TasSpin::new(3), config),
            _ => check_witnesses(&LamportFast::new(2), config),
        }
    }

    /// Every reduction combo must produce exact, validating bypass
    /// witnesses for the fair locks — including the bakery, whose graph
    /// only exists through the ticket-shift normalizer.
    #[test]
    fn bypass_witnesses_are_exact_under_every_reduction(cfg in 0usize..4, alg in 0usize..2) {
        let config = config_variant(cfg, 40_000);
        match alg {
            0 => check_witnesses(&PetersonTwo::new(), config),
            _ => check_witnesses(&Bakery::new(2), config),
        }
    }
}

/// The naming analogue, directed: lockout-free walkers carry a bypass
/// witness under the naming spec, valid under every reduction combo.
#[test]
fn naming_bypass_witnesses_validate() {
    use cfc::naming::{NamingAlgorithm, TasScan};
    let alg = TasScan::new(3);
    for (label, config) in common::labeled_variants(60_000) {
        let report = check_naming_lockout(&alg, 0, config).unwrap();
        assert!(report.is_starvation_free(), "{label}");
        let bound = report.bypass().unwrap().expect("wait-free => bounded");
        let witness = report
            .bypass_witness()
            .unwrap_or_else(|| panic!("{label}: naming bound {bound} without witness"));
        assert_eq!(witness.bypass, bound, "{label}");
        let spec = LivenessSpec {
            pending: &|p: &<TasScan as NamingAlgorithm>::Proc| p.output().is_none(),
            engaged: &|p: &<TasScan as NamingAlgorithm>::Proc| p.output().is_none(),
            served: &|b: &<TasScan as NamingAlgorithm>::Proc, a| {
                b.output().is_none() && a.output().is_some()
            },
            normalize: None,
        };
        validate_bypass(&alg.memory().unwrap(), &alg.processes(), witness, &spec)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

//! E3/E12: every implemented algorithm's *measured* contention-free
//! profile satisfies the paper's lower bounds (Theorems 1 and 2) and the
//! combinatorial inequalities behind them (Lemmas 3 and 6), and sits
//! below the Theorem 3 upper bounds.

use cfc::bounds::{lemmas, mutex as bounds};
use cfc::core::ProcessId;
use cfc::mutex::measure::{self, LemmaProfile};
use cfc::mutex::{
    DetectionAlgorithm, LamportFast, MutexAlgorithm, MutexDetector, Splitter, SplitterTree,
    Tournament,
};

/// Measured contention-free profiles of every detector we can build for
/// (n, l), as (name, profile) pairs.
fn detector_profiles(n: usize, l: u32) -> Vec<(String, LemmaProfile)> {
    let mut out: Vec<(String, LemmaProfile)> = Vec::new();
    let pid = ProcessId::new(0);

    let tree = SplitterTree::sparse(n, l, &[pid]);
    out.push((
        tree.name().to_string(),
        measure::contention_free_detection(&tree, pid)
            .unwrap()
            .into(),
    ));

    if l >= cfc::core::bits_for(n as u64 - 1) {
        let splitter = Splitter::new(n);
        out.push((
            splitter.name().to_string(),
            measure::contention_free_detection(&splitter, pid)
                .unwrap()
                .into(),
        ));
        let det = MutexDetector::new(LamportFast::new(n));
        out.push((
            det.name().to_string(),
            measure::contention_free_detection(&det, pid)
                .unwrap()
                .into(),
        ));
    }

    let tournament = Tournament::sparse(n, l, &[pid]);
    let det = MutexDetector::new(tournament);
    out.push((
        det.name().to_string(),
        measure::contention_free_detection(&det, pid)
            .unwrap()
            .into(),
    ));
    out
}

#[test]
fn theorem1_lower_bound_holds_for_all_detectors() {
    for (n, l) in [(16usize, 1u32), (256, 1), (256, 4), (4096, 2), (1 << 16, 4)] {
        for (name, p) in detector_profiles(n, l) {
            let bound = bounds::thm1_step_lower(n as u64, l);
            assert!(
                p.steps as f64 > bound,
                "{name} at n={n} l={l}: {} steps <= Thm1 bound {bound}",
                p.steps
            );
            assert!(p.steps >= bounds::MIN_DETECTION_STEPS);
        }
    }
}

#[test]
fn theorem2_lower_bound_holds_for_all_detectors() {
    for (n, l) in [(16usize, 1u32), (256, 1), (256, 4), (4096, 2), (1 << 16, 4)] {
        for (name, p) in detector_profiles(n, l) {
            let bound = bounds::thm2_register_lower(n as u64, l);
            assert!(
                p.registers as f64 >= bound,
                "{name} at n={n} l={l}: {} registers < Thm2 bound {bound}",
                p.registers
            );
        }
    }
}

#[test]
fn lemma3_inequality_holds_on_measured_profiles() {
    for (n, l) in [(16usize, 1u32), (64, 2), (256, 4), (4096, 1), (1 << 12, 3)] {
        for (name, p) in detector_profiles(n, l) {
            assert!(
                lemmas::lemma3_holds(n as u64, l, p.write_steps, p.read_registers),
                "{name} at n={n} l={l}: Lemma 3 violated by w={} r={}",
                p.write_steps,
                p.read_registers
            );
        }
    }
}

#[test]
fn lemma6_inequality_holds_on_measured_profiles() {
    for (n, l) in [(16usize, 1u32), (64, 2), (256, 4), (4096, 1)] {
        for (name, p) in detector_profiles(n, l) {
            assert!(
                lemmas::lemma6_holds(n as u64, l, p.write_registers, p.registers),
                "{name} at n={n} l={l}: Lemma 6 violated by w={} c={}",
                p.write_registers,
                p.registers
            );
        }
    }
}

#[test]
fn tournament_matches_theorem3_shape() {
    for (n, l) in [
        (16usize, 1u32),
        (256, 1),
        (256, 2),
        (256, 4),
        (4096, 3),
        (1 << 16, 8),
        (1 << 20, 4),
    ] {
        let pid = ProcessId::new(0);
        let alg = Tournament::sparse(n, l, &[pid]);
        let trip = measure::contention_free_trip(&alg, pid).unwrap();
        assert_eq!(
            trip.total.steps,
            bounds::tournament_step_upper(n as u64, l),
            "steps: n={n} l={l}"
        );
        assert_eq!(
            trip.total.registers,
            bounds::tournament_register_upper(n as u64, l),
            "registers: n={n} l={l}"
        );
        // Within a small constant of the paper's 7 ceil(log n / l):
        assert!(trip.total.steps <= 2 * bounds::thm3_step_upper(n as u64, l));
        assert!(trip.total.registers <= 2 * bounds::thm3_register_upper(n as u64, l));
        // Strictly above the Theorem 1 lower bound:
        assert!(trip.total.steps as f64 > bounds::thm1_step_lower(n as u64, l));
    }
}

#[test]
fn lamport_constants_match_the_paper() {
    for n in [2usize, 10, 1000, 1 << 14] {
        let alg = LamportFast::new(n);
        let trip = measure::contention_free_trip(&alg, ProcessId::new(0)).unwrap();
        assert_eq!(trip.total.steps, bounds::LAMPORT_FAST_STEPS);
        assert_eq!(trip.total.registers, bounds::LAMPORT_FAST_REGISTERS);
        assert_eq!(trip.entry.steps, 5);
        assert_eq!(trip.exit.steps, 2);
    }
}

#[test]
fn bit_access_corollary_holds() {
    // The corollary to Theorem 1: bit accesses >= l + c - 1 in some run.
    // The Lamport fast path makes this tight up to constants: 7 accesses
    // to (log n)-bit registers is ~7 log n bits.
    for n in [256usize, 4096] {
        let alg = LamportFast::new(n);
        let trip = measure::contention_free_trip(&alg, ProcessId::new(0)).unwrap();
        let l = alg.atomicity();
        let c = trip.total.steps;
        assert!(trip.total.bit_accesses >= bounds::bit_access_lower(l, c));
    }
    // And the tournament keeps bit accesses Θ(log n) for every l.
    let n = 1 << 12;
    let mut bit_counts = Vec::new();
    for l in [1u32, 2, 4, 6, 12] {
        let alg = Tournament::sparse(n, l, &[ProcessId::new(0)]);
        let trip = measure::contention_free_trip(&alg, ProcessId::new(0)).unwrap();
        bit_counts.push(trip.total.bit_accesses);
    }
    let (min, max) = (
        *bit_counts.iter().min().unwrap(),
        *bit_counts.iter().max().unwrap(),
    );
    assert!(
        max <= 8 * min,
        "bit accesses should stay within a constant factor across l: {bit_counts:?}"
    );
}

#[test]
fn bypass_bounds_match_fair_cycle_measurements() {
    // The fairness constants in `cfc-bounds` are *claims*; the fair-cycle
    // liveness checker is the instrument that measures them — and every
    // measured bound must come with a validated witness schedule, so the
    // lock-step here is three-way: claim = measurement = replayed run.
    use cfc::core::Section;
    use cfc::mutex::{Bakery, LockProcess, MutexClient, PetersonTwo, TasSpin, Tournament};
    use cfc::verify::{check_mutex_starvation, validate_bypass, ExploreConfig, LivenessSpec};

    fn spec<'a, L: LockProcess>() -> LivenessSpec<'a, MutexClient<L>> {
        LivenessSpec {
            pending: &|c: &MutexClient<L>| cfc::core::Process::section(c) == Some(Section::Entry),
            engaged: &|c: &MutexClient<L>| c.engaged(),
            served: &|b: &MutexClient<L>, a: &MutexClient<L>| {
                cfc::core::Process::section(b) != Some(Section::Critical)
                    && cfc::core::Process::section(a) == Some(Section::Critical)
            },
            normalize: None,
        }
    }

    /// Claim, measurement, and witness must agree.
    fn assert_witnessed_bound<A>(alg: &A, claimed: u64, config: ExploreConfig)
    where
        A: MutexAlgorithm,
        A::Lock: Clone + Eq + std::hash::Hash + 'static,
    {
        let report = check_mutex_starvation(alg, config).unwrap();
        assert!(report.is_starvation_free(), "{}", alg.name());
        assert_eq!(report.bypass(), Some(Some(claimed)), "{}", alg.name());
        let witness = report
            .bypass_witness()
            .unwrap_or_else(|| panic!("{}: bound without witness", alg.name()));
        assert_eq!(witness.bypass, claimed, "{}", alg.name());
        let clients: Vec<_> = (0..alg.n() as u32)
            .map(|i| alg.client_cycling(ProcessId::new(i), 1))
            .collect();
        validate_bypass(&alg.memory().unwrap(), &clients, witness, &spec())
            .unwrap_or_else(|e| panic!("{}: witness fails validation: {e}", alg.name()));
    }

    let config = ExploreConfig::default().with_max_states(100_000);
    assert_witnessed_bound(&PetersonTwo::new(), bounds::PETERSON_BYPASS, config);
    for n in [2u64, 3] {
        assert_witnessed_bound(
            &Bakery::new(n as usize),
            bounds::bakery_bypass_upper(n),
            config,
        );
    }

    // Tournament fairness is decided by the node type: Peterson nodes
    // (l = 1) are starvation-free, Lamport nodes (l >= 2) starvable.
    assert!(bounds::tournament_starvation_free(1));
    let peterson_tree = check_mutex_starvation(&Tournament::new(3, 1), config).unwrap();
    assert!(peterson_tree.is_starvation_free());
    assert!(!bounds::tournament_starvation_free(2));
    let lamport_tree = check_mutex_starvation(&Tournament::new(3, 2), config).unwrap();
    assert!(lamport_tree.witness().is_some());

    // The worst-case step row of Table 1 is ∞ [AT92]: the starvable
    // families really do starve.
    let lamport = check_mutex_starvation(&LamportFast::new(2), config).unwrap();
    assert!(lamport.witness().is_some());
    let tas = check_mutex_starvation(&TasSpin::new(2), config).unwrap();
    assert!(tas.witness().is_some());
}

#[test]
fn detection_has_bounded_worst_case_steps_but_mutex_does_not() {
    // E11: a splitter-tree process halts within 4*depth own steps under
    // any schedule, while a mutex client can be forced to take more than
    // any bound by scheduling it against a critical-section holder.
    use cfc::core::{ExecConfig, FaultPlan, FixedOrder};

    let n = 8usize;
    let tree = SplitterTree::new(n, 1);
    let bound = 4 * u64::from(tree.depth());
    let procs = (0..n as u32)
        .map(|i| tree.process(ProcessId::new(i)))
        .collect();
    let exec = cfc::core::run_schedule(
        tree.memory().unwrap(),
        procs,
        cfc::core::Lockstep::new(),
        FaultPlan::new(),
        ExecConfig::default(),
    )
    .unwrap();
    for i in 0..n as u32 {
        assert!(exec.steps_taken(ProcessId::new(i)) <= bound);
    }

    // Mutex: let process 0 park in the critical section (it stops being
    // scheduled mid-CS), then give process 1 a huge number of steps: it
    // busy-waits, exceeding any fixed bound without entering.
    let alg = LamportFast::new(2);
    let clients = vec![
        alg.client_with_cs(ProcessId::new(0), 1, 10),
        alg.client(ProcessId::new(1), 1),
    ];
    // Schedule: p0 enters its CS (7 steps: 5 entry + enter), then p1 runs
    // 500 steps without p0 ever exiting.
    let mut script = vec![ProcessId::new(0); 6];
    script.extend(vec![ProcessId::new(1); 500]);
    let exec = cfc::core::run_schedule(
        alg.memory().unwrap(),
        clients,
        FixedOrder::new(script),
        FaultPlan::new(),
        ExecConfig::default(),
    )
    .unwrap();
    let p1_steps = exec.steps_taken(ProcessId::new(1));
    assert!(
        p1_steps >= 400,
        "p1 should be forced to busy-wait unboundedly, took {p1_steps}"
    );
}

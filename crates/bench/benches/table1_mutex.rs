//! E1/E3/E5/E11 — regenerates the paper's Table 1, "Bounds for mutual
//! exclusion" (Section 2.6), from measured runs.
//!
//! For each (n, l) the harness measures the contention-free step and
//! register complexity of the best implemented algorithm (Lamport's fast
//! mutex when `l ≥ log n`, the Theorem 3 tournament otherwise), the
//! worst-case register complexity of the bit-only tournament under full
//! contention (the [Kes82] row), and checks everything against the
//! Theorem 1/2 lower-bound formulas and Theorem 3 upper bounds. The
//! worst-case step row is reported as unbounded, per [AT92].

use cfc_bounds::mutex as bounds;
use cfc_bounds::table::TextTable;
use cfc_core::{bits_for, Process, ProcessId, Section};
use cfc_mutex::{
    measure, Bakery, Dijkstra, LamportFast, LockProcess, MutexAlgorithm, MutexClient, PetersonTwo,
    TasSpin, Tournament,
};
use cfc_verify::{
    check_mutex_starvation, validate_bypass, validate_lasso, ExploreConfig, LivenessSpec,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn liveness_spec<'a, L: LockProcess>() -> LivenessSpec<'a, MutexClient<L>> {
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

/// Measures one fairness row with the fair-cycle checker and insists on
/// the witness guarantee: a bounded bypass must carry a
/// `validate_bypass`-checked overtaking schedule, a starvable verdict a
/// `validate_lasso`-checked lasso. Returns the rendered fairness cell.
fn measured_fairness<A>(alg: &A, claimed: Option<u64>) -> String
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + std::hash::Hash + 'static,
{
    let config = ExploreConfig::default().with_max_states(200_000);
    let report = check_mutex_starvation(alg, config).unwrap();
    let memory = alg.memory().unwrap();
    let clients: Vec<_> = (0..alg.n() as u32)
        .map(|i| alg.client_cycling(ProcessId::new(i), 1))
        .collect();
    match (report.witness(), report.bypass()) {
        (Some(lasso), _) => {
            validate_lasso(&memory, &clients, lasso, &liveness_spec()).unwrap();
            assert!(
                claimed.is_none(),
                "{}: claimed a bound but starves",
                alg.name()
            );
            format!("starvable (lasso: {} loop steps)", lasso.lasso.cycle.len())
        }
        (None, Some(Some(bound))) => {
            assert_eq!(Some(bound), claimed, "{}: claim vs measurement", alg.name());
            let witness = report
                .bypass_witness()
                .unwrap_or_else(|| panic!("{}: bound {bound} without witness", alg.name()));
            assert_eq!(witness.bypass, bound);
            validate_bypass(&memory, &clients, witness, &liveness_spec()).unwrap();
            format!(
                "bypass {bound} (witnessed, {}-step run)",
                witness.schedule().len()
            )
        }
        (None, Some(None)) => {
            assert!(claimed.is_none());
            "starvation-free, bypass unbounded".to_string()
        }
        (None, None) => unreachable!("starvation-free verdicts always report bypass"),
    }
}

/// E-fairness: the Table 1 fairness column, *measured* — each row is the
/// fair-cycle checker's verdict at a small exemplar n, and every finite
/// bypass bound is backed by a replayed, independently recounted
/// witness schedule. No reported bound without a replayable schedule.
fn print_fairness_witnesses() {
    println!("\n--- fairness instruments (fair-cycle checker, witness-backed) ---\n");
    let mut table = TextTable::new(["algorithm", "exemplar", "fairness (measured + witnessed)"]);
    table.row([
        "peterson-2".into(),
        "n=2".into(),
        measured_fairness(&PetersonTwo::new(), Some(bounds::PETERSON_BYPASS)),
    ]);
    for n in [2usize, 3] {
        table.row([
            "bakery".into(),
            format!("n={n}"),
            measured_fairness(&Bakery::new(n), Some(bounds::bakery_bypass_upper(n as u64))),
        ]);
    }
    table.row([
        "tournament-peterson".into(),
        "n=2 (one node)".into(),
        measured_fairness(&Tournament::new(2, 1), Some(bounds::PETERSON_BYPASS)),
    ]);
    table.row([
        "tournament-peterson".into(),
        "n=3 (two levels)".into(),
        measured_fairness(&Tournament::new(3, 1), None),
    ]);
    table.row([
        "lamport-fast".into(),
        "n=2".into(),
        measured_fairness(&LamportFast::new(2), None),
    ]);
    table.row([
        "tas-spin".into(),
        "n=2".into(),
        measured_fairness(&TasSpin::new(2), None),
    ]);
    println!("{table}");
    if let Ok(path) = cfc_bench::write_artifact("table1_fairness", &table) {
        println!("(csv artifact: {})\n", path.display());
    }
}

fn best_cf_trip(n: usize, l: u32) -> (String, cfc_core::metrics::TripComplexity) {
    let pid = ProcessId::new(0);
    if l >= bits_for(n as u64) {
        let alg = LamportFast::new(n);
        (
            alg.name().to_string(),
            measure::contention_free_trip(&alg, pid).unwrap(),
        )
    } else {
        let alg = Tournament::sparse(n, l, &[pid]);
        (
            alg.name().to_string(),
            measure::contention_free_trip(&alg, pid).unwrap(),
        )
    }
}

fn print_table1() {
    println!("\n=== Table 1: Bounds for mutual exclusion (measured reproduction) ===\n");
    let mut table = TextTable::new([
        "n",
        "l",
        "algorithm",
        "cf-step lower (Thm1)",
        "cf-step measured",
        "cf-step upper (Thm3)",
        "cf-reg lower (Thm2)",
        "cf-reg measured",
        "cf-reg upper (Thm3)",
        "fairness (fair-cycle)",
    ]);
    for &n in &cfc_bench::TABLE_NS {
        for &l in &cfc_bench::TABLE_LS {
            let (name, trip) = best_cf_trip(n, l);
            let step_lower = bounds::thm1_step_lower(n as u64, l);
            let reg_lower = bounds::thm2_register_lower(n as u64, l);
            assert!(
                trip.total.steps as f64 > step_lower,
                "Theorem 1 violated at n={n} l={l}"
            );
            assert!(
                trip.total.registers as f64 >= reg_lower,
                "Theorem 2 violated at n={n} l={l}"
            );
            // The fairness column: Lamport's fast path (and tournaments
            // built from it, l >= 2) is starvable; the Peterson-node
            // tournament (l = 1) is starvation-free. Classifications are
            // the ones the fair-cycle checker verifies at small n, each
            // backed by a validated witness schedule — see the
            // "fairness instruments" table printed below the bounds
            // (and tests/liveness.rs, tests/bounds_consistency.rs).
            let fairness = if name == "lamport-fast" || !bounds::tournament_starvation_free(l) {
                "starvable [AT92]".to_string()
            } else {
                "starvation-free".to_string()
            };
            table.row([
                n.to_string(),
                l.to_string(),
                name,
                format!("{step_lower:.2}"),
                trip.total.steps.to_string(),
                bounds::thm3_step_upper(n as u64, l).to_string(),
                format!("{reg_lower:.2}"),
                trip.total.registers.to_string(),
                bounds::thm3_register_upper(n as u64, l).to_string(),
                fairness,
            ]);
        }
    }
    println!("{table}");
    if let Ok(path) = cfc_bench::write_artifact("table1_mutex", &table) {
        println!("(csv artifact: {})\n", path.display());
    }

    println!("--- worst-case rows ---\n");
    let mut table = TextTable::new([
        "n",
        "wc-register measured (tournament l=1, full contention)",
        "wc-register upper 3*ceil(log n) [Kes82]",
        "wc-step",
    ]);
    for n in [4usize, 8, 16] {
        let alg = Tournament::new(n, 1);
        let trips = measure::contended_round_robin(&alg, 1).unwrap();
        let worst = trips.iter().map(|t| t.total.registers).max().unwrap();
        let upper = bounds::kessels_wc_register_upper(n as u64);
        assert!(worst <= upper, "Kessels bound violated at n={n}");
        table.row([
            n.to_string(),
            worst.to_string(),
            upper.to_string(),
            "unbounded [AT92]".to_string(),
        ]);
    }
    println!("{table}");
}

/// The paper's motivation (Section 1.1): among deadlock-free algorithms
/// with comparable worst-case behavior, contention-free complexity is
/// what separates them in practice.
fn print_motivation() {
    println!("\n--- motivation: classic baselines vs the fast path ---\n");
    let mut table = TextTable::new(["n", "algorithm", "cf steps", "cf registers"]);
    for n in [8usize, 64, 512] {
        let pid = ProcessId::new(0);
        let rows: [(&str, cfc_core::metrics::TripComplexity); 3] = [
            (
                "dijkstra [Dij65]",
                measure::contention_free_trip(&Dijkstra::new(n), pid).unwrap(),
            ),
            (
                "bakery",
                measure::contention_free_trip(&Bakery::new(n), pid).unwrap(),
            ),
            (
                "lamport-fast [Lam87]",
                measure::contention_free_trip(&LamportFast::new(n), pid).unwrap(),
            ),
        ];
        for (name, trip) in rows {
            table.row([
                n.to_string(),
                name.to_string(),
                trip.total.steps.to_string(),
                trip.total.registers.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!(
        "All three are deadlock-free; the classics pay Θ(n) even when alone,\n\
         the fast algorithm pays 7 — the gap the contention-free measure makes\n\
         visible.\n"
    );
}

fn bench_measurement(c: &mut Criterion) {
    print_table1();
    print_fairness_witnesses();
    print_motivation();

    let mut group = c.benchmark_group("table1/contention_free_measurement");
    for (n, l) in [(4096usize, 1u32), (4096, 4), (1 << 16, 8)] {
        group.bench_with_input(
            BenchmarkId::new("tournament_solo_trip", format!("n{n}_l{l}")),
            &(n, l),
            |b, &(n, l)| {
                let pid = ProcessId::new(0);
                let alg = Tournament::sparse(n, l, &[pid]);
                b.iter(|| measure::contention_free_trip(&alg, pid).unwrap());
            },
        );
    }
    group.bench_function("lamport_solo_trip_n4096", |b| {
        let alg = LamportFast::new(4096);
        let pid = ProcessId::new(0);
        b.iter(|| measure::contention_free_trip(&alg, pid).unwrap());
    });
    group.finish();

    let mut group = c.benchmark_group("table1/contended_round_robin");
    group.sample_size(10);
    for n in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("tournament_l1", n), &n, |b, &n| {
            let alg = Tournament::new(n, 1);
            b.iter(|| measure::contended_round_robin(&alg, 1).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_measurement);
criterion_main!(benches);

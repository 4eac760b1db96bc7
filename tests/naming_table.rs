//! E2/E9: regenerate the paper's "Tight bounds for naming" table from
//! measured runs and check every cell against the symbolic bound.

use cfc::bounds::naming::{tight_bound, Bound, Measure, ModelClass};
use cfc::core::BitOp;
use cfc::naming::{Dualized, NamingAlgorithm, TafTree, TasReadSearch, TasScan, TasTarTree};
use cfc::verify::{naming_profile, NamingProfile};

const SEEDS: u64 = 25;

fn ceil_log2(n: u64) -> u64 {
    u64::from(64 - (n - 1).leading_zeros())
}

/// The measured value of one of the four measures.
fn measured(p: &NamingProfile, m: Measure) -> u64 {
    match m {
        Measure::CfRegister => p.contention_free.registers,
        Measure::CfStep => p.contention_free.steps,
        Measure::WcRegister => p.worst_case.registers,
        Measure::WcStep => p.worst_case.steps,
    }
}

#[test]
fn tas_only_column_is_linear_in_n() {
    // {test-and-set}: n-1 is tight on all four measures; tas-scan
    // realizes it exactly (upper bound), and Theorems 6/7 say nothing
    // smaller is possible.
    for n in [4usize, 8, 16, 32] {
        let p = naming_profile(&TasScan::new(n), SEEDS).unwrap();
        for m in Measure::ALL {
            let bound = tight_bound(ModelClass::TasOnly, m).eval(n as u64);
            assert_eq!(measured(&p, m), bound, "n={n} {m}");
        }
    }
}

#[test]
fn read_tas_column_has_log_contention_free_linear_worst() {
    for n in [8usize, 16, 64, 256] {
        let p = naming_profile(&TasReadSearch::new(n), SEEDS).unwrap();
        let log_n = ceil_log2(n as u64);
        // Contention-free: within one step of log n (the final TAS may
        // probe both candidates; the paper's own algorithm shares this
        // +1 — see EXPERIMENTS.md).
        assert!(
            measured(&p, Measure::CfStep) <= log_n + 1,
            "n={n}: cf steps {}",
            measured(&p, Measure::CfStep)
        );
        assert!(measured(&p, Measure::CfRegister) <= log_n + 1);
        // Worst case is linear: Theorem 6's lower bound is n-1, and the
        // scan fallback keeps the algorithm within O(n).
        assert!(measured(&p, Measure::WcStep) >= log_n);
        assert!(measured(&p, Measure::WcStep) <= 2 * n as u64 + log_n);
    }
}

#[test]
fn tas_tar_tree_achieves_log_worst_case_registers() {
    for n in [4usize, 8, 16, 32] {
        let p = naming_profile(&TasTarTree::new(n).unwrap(), SEEDS).unwrap();
        let log_n = ceil_log2(n as u64);
        // The headline: worst-case REGISTER complexity log n, even though
        // step complexity exceeds it under contention.
        assert_eq!(measured(&p, Measure::WcRegister), log_n, "n={n}");
        assert_eq!(measured(&p, Measure::CfRegister), log_n, "n={n}");
        assert!(measured(&p, Measure::WcStep) >= log_n);
    }
}

#[test]
fn taf_column_is_logarithmic_on_all_four_measures() {
    for n in [4usize, 8, 16, 64] {
        let p = naming_profile(&TafTree::new(n).unwrap(), SEEDS).unwrap();
        let expected = tight_bound(ModelClass::Taf, Measure::WcStep).eval(n as u64);
        for m in Measure::ALL {
            assert_eq!(measured(&p, m), expected, "n={n} {m}");
        }
    }
}

#[test]
fn theorem5_lower_bound_no_algorithm_beats_log_n_registers() {
    // Theorem 5: contention-free register complexity >= log n in EVERY
    // model. Check every implemented algorithm.
    let n = 16usize;
    let log_n = ceil_log2(n as u64);
    let profiles = [
        naming_profile(&TasScan::new(n), 5).unwrap(),
        naming_profile(&TasReadSearch::new(n), 5).unwrap(),
        naming_profile(&TasTarTree::new(n).unwrap(), 5).unwrap(),
        naming_profile(&TafTree::new(n).unwrap(), 5).unwrap(),
    ];
    for p in profiles {
        assert!(
            p.contention_free.registers >= log_n,
            "Theorem 5 violated: {} < {log_n}",
            p.contention_free.registers
        );
    }
}

#[test]
fn theorem6_lockstep_forces_linear_steps_without_taf() {
    // Every implemented algorithm that lacks test-and-flip shows
    // worst-case step complexity >= n - 1 for some process... for the
    // tree algorithms the bound applies to the MODEL, realized by
    // tas-scan; here we check the adversary actually drives tas-scan to
    // exactly n - 1 and the taf tree stays at log n.
    for n in [8usize, 16] {
        let scan = naming_profile(&TasScan::new(n), 0).unwrap();
        assert_eq!(scan.worst_case.steps, n as u64 - 1);
        let taf = naming_profile(&TafTree::new(n).unwrap(), 0).unwrap();
        assert_eq!(taf.worst_case.steps, ceil_log2(n as u64));
    }
}

#[test]
fn theorem7_sequential_runs_force_linear_registers_for_tas_only() {
    for n in [4usize, 8, 32] {
        let p = naming_profile(&TasScan::new(n), 0).unwrap();
        assert_eq!(
            p.contention_free.registers,
            n as u64 - 1,
            "Theorem 7: the last sequential process must touch n-1 bits"
        );
    }
}

#[test]
fn dual_models_have_identical_measured_complexity() {
    // Section 3.2: bounds transfer to dual models. Measure an algorithm
    // and its dual under identical schedules.
    let n = 16usize;
    let base = naming_profile(&TasScan::new(n), 10).unwrap();
    let dual = naming_profile(&Dualized::new(TasScan::new(n)), 10).unwrap();
    assert_eq!(base.contention_free, dual.contention_free);
    assert_eq!(base.worst_case, dual.worst_case);

    let base = naming_profile(&TafTree::new(n).unwrap(), 10).unwrap();
    let dual = naming_profile(&Dualized::new(TafTree::new(n).unwrap()), 10).unwrap();
    assert_eq!(base.contention_free, dual.contention_free);
    assert_eq!(base.worst_case, dual.worst_case);
}

#[test]
fn models_match_table_columns() {
    assert_eq!(TasScan::new(4).model(), cfc::naming::Model::TAS_ONLY);
    assert_eq!(TasReadSearch::new(4).model(), cfc::naming::Model::READ_TAS);
    assert!(cfc::naming::Model::READ_TAS_TAR.superset_of(TasTarTree::new(4).unwrap().model()));
    assert_eq!(
        TafTree::new(4).unwrap().model(),
        cfc::naming::Model::TAF_ONLY
    );
    assert!(cfc::naming::Model::RMW.superset_of(TafTree::new(4).unwrap().model()));
    assert!(TafTree::new(4)
        .unwrap()
        .model()
        .contains(BitOp::TestAndFlip));
}

#[test]
fn bound_symbols_evaluate_consistently() {
    for n in [4u64, 16, 64] {
        assert_eq!(Bound::Linear.eval(n), n - 1);
        assert_eq!(Bound::Log.eval(n), ceil_log2(n));
    }
}

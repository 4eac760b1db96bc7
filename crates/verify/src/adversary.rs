//! Adversarial schedules realizing the paper's worst-case lower bounds.
//!
//! * **Theorem 6** (`n − 1` worst-case steps without `test-and-flip`):
//!   identical processes driven in *lockstep* receive identical responses
//!   as long as possible, so at least one is forced through `n − 1` steps.
//! * **Theorem 7** (`n − 1` contention-free registers with `{tas}` only):
//!   the *sequential* schedule — each process runs to completion alone —
//!   already forces the last process to visit `n − 1` distinct bits.
//!
//! These helpers run an algorithm under the adversarial schedule plus a
//! battery of random schedules and report the worst observed complexity
//! per measure, which the bench harness compares against the table's
//! bounds.

use cfc_core::metrics::all_process_complexities;
use cfc_core::{Complexity, ExecConfig, ExecError, FaultPlan, Lockstep, RandomSched, Sequential};
use cfc_naming::NamingAlgorithm;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The measured complexity profile of a naming algorithm: contention-free
/// (sequential schedule) and worst-case observed (max over lockstep +
/// random schedules).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NamingProfile {
    /// Max per-process complexity over the sequential (contention-free)
    /// run.
    pub contention_free: Complexity,
    /// Max per-process complexity over all adversarial runs tried.
    pub worst_case: Complexity,
}

/// Measures a naming algorithm under the sequential schedule, the
/// Theorem 6 lockstep adversary, and `random_seeds` random schedules.
///
/// # Errors
///
/// Propagates executor errors (a budget error would mean wait-freedom is
/// violated).
pub fn naming_profile<A: NamingAlgorithm>(
    alg: &A,
    random_seeds: u64,
) -> Result<NamingProfile, ExecError> {
    let layout = alg.layout();
    let n = alg.n();

    let max_of = |exec: &cfc_core::Executor<A::Proc>| {
        all_process_complexities(exec.trace(), &layout, n)
            .into_iter()
            .reduce(Complexity::max_fields)
            .unwrap_or_default()
    };

    // Contention-free: the sequential schedule.
    let seq = cfc_core::run_schedule(
        alg.memory().map_err(ExecError::from)?,
        alg.processes(),
        Sequential,
        FaultPlan::new(),
        ExecConfig::default(),
    )?;
    let contention_free = max_of(&seq);

    // Worst case: lockstep (Theorem 6) plus random schedules.
    let lockstep = cfc_core::run_schedule(
        alg.memory().map_err(ExecError::from)?,
        alg.processes(),
        Lockstep::new(),
        FaultPlan::new(),
        ExecConfig::default(),
    )?;
    let mut worst_case = contention_free.max_fields(max_of(&lockstep));

    for seed in 0..random_seeds {
        let run = cfc_core::run_schedule(
            alg.memory().map_err(ExecError::from)?,
            alg.processes(),
            RandomSched::new(StdRng::seed_from_u64(seed)),
            FaultPlan::new(),
            ExecConfig::default(),
        )?;
        worst_case = worst_case.max_fields(max_of(&run));
    }

    Ok(NamingProfile {
        contention_free,
        worst_case,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_naming::{TafTree, TasReadSearch, TasScan, TasTarTree};

    #[test]
    fn tas_scan_realizes_theorem6_and_theorem7() {
        let n = 8u64;
        let p = naming_profile(&TasScan::new(n as usize), 10).unwrap();
        // Theorem 6: worst-case step n-1, realized by lockstep.
        assert_eq!(p.worst_case.steps, n - 1);
        // Theorem 7: even contention-free register complexity is n-1
        // (the last sequential process touches every bit).
        assert_eq!(p.contention_free.registers, n - 1);
        assert_eq!(p.contention_free.steps, n - 1);
    }

    #[test]
    fn taf_tree_is_logarithmic_everywhere() {
        let p = naming_profile(&TafTree::new(16).unwrap(), 10).unwrap();
        assert_eq!(p.worst_case.steps, 4);
        assert_eq!(p.worst_case.registers, 4);
        assert_eq!(p.contention_free.steps, 4);
    }

    #[test]
    fn tas_tar_tree_has_log_registers_but_more_steps() {
        let p = naming_profile(&TasTarTree::new(8).unwrap(), 20).unwrap();
        assert_eq!(p.worst_case.registers, 3); // log n bits
        assert!(p.worst_case.steps >= 3); // steps can exceed log n under contention
    }

    #[test]
    fn tas_read_search_contention_free_is_logarithmic_worst_linear() {
        let n = 16u64;
        let p = naming_profile(&TasReadSearch::new(n as usize), 20).unwrap();
        assert!(p.contention_free.steps <= 5); // ceil(log 16) + 1
        assert!(p.worst_case.steps > p.contention_free.steps);
    }

    #[test]
    fn worst_case_dominates_contention_free() {
        for alg in [TasScan::new(6), TasScan::new(3)] {
            let p = naming_profile(&alg, 5).unwrap();
            assert!(p.worst_case.steps >= p.contention_free.steps);
            assert!(p.worst_case.registers >= p.contention_free.registers);
        }
    }

    #[test]
    fn single_process_profile_degenerates_cleanly() {
        // n = 1: the sequential, lockstep, and random schedules coincide
        // (there is nobody to contend with), so the "worst case" is the
        // contention-free run: one step, one register, name 1.
        let p = naming_profile(&TasScan::new(1), 5).unwrap();
        assert_eq!(p.contention_free, p.worst_case);
        // The scan walks n - 1 shared bits, so a lone process decides
        // its name without touching shared memory at all.
        assert_eq!(p.contention_free.steps, 0);
        assert_eq!(p.contention_free.registers, 0);
    }

    #[test]
    fn zero_random_seeds_still_covers_both_adversaries() {
        // The deterministic schedules alone must already realize the
        // Theorem 6 bound: lockstep forces n - 1 steps with no help from
        // randomized runs.
        let n = 8u64;
        let p = naming_profile(&TasScan::new(n as usize), 0).unwrap();
        assert_eq!(p.worst_case.steps, n - 1);
        assert!(p.worst_case.steps >= p.contention_free.steps);
    }
}

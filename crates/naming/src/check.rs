//! Correctness checkers for naming runs: uniqueness, name-space bounds,
//! and wait-freedom budgets.

use std::collections::HashMap;
use std::fmt;

use cfc_core::{ExecConfig, ExecError, FaultPlan, ProcessId, Scheduler};

use crate::algorithm::NamingAlgorithm;

/// A violation of the naming specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NamingViolation {
    /// Two processes decided the same name.
    Duplicate {
        /// The duplicated name.
        name: u64,
        /// The processes that chose it.
        holders: Vec<ProcessId>,
    },
    /// A process decided a name outside `1..=n`.
    OutOfRange {
        /// The offending process.
        pid: ProcessId,
        /// Its name.
        name: u64,
        /// The name-space size.
        n: usize,
    },
    /// A non-crashed process exceeded the algorithm's wait-freedom budget.
    BudgetExceeded {
        /// The offending process.
        pid: ProcessId,
        /// Steps it took.
        steps: u64,
        /// The declared budget.
        budget: u64,
    },
    /// A non-crashed process failed to decide.
    Undecided {
        /// The offending process.
        pid: ProcessId,
    },
}

impl fmt::Display for NamingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NamingViolation::Duplicate { name, holders } => {
                write!(f, "name {name} assigned to {} processes", holders.len())
            }
            NamingViolation::OutOfRange { pid, name, n } => {
                write!(f, "{pid} decided name {name} outside 1..={n}")
            }
            NamingViolation::BudgetExceeded { pid, steps, budget } => {
                write!(f, "{pid} took {steps} steps, budget {budget}")
            }
            NamingViolation::Undecided { pid } => {
                write!(f, "{pid} neither crashed nor decided")
            }
        }
    }
}

impl std::error::Error for NamingViolation {}

/// The result of a checked naming run.
#[derive(Clone, Debug)]
pub struct NamingRun {
    /// Decided names by process (crashed processes are `None`).
    pub names: Vec<Option<u64>>,
    /// Steps taken by each process.
    pub steps: Vec<u64>,
    /// Total shared accesses in the run.
    pub total_accesses: usize,
}

/// Runs `alg` under `sched` and `faults`, then checks the full naming
/// specification: every surviving process decides a unique name in
/// `1..=n` within the algorithm's step budget.
///
/// # Errors
///
/// Returns the first [`NamingViolation`] found, or propagates executor
/// errors (as a budget-exceeded style failure they indicate lost
/// wait-freedom).
pub fn run_checked<A, S>(alg: &A, sched: S, faults: FaultPlan) -> Result<NamingRun, CheckError>
where
    A: NamingAlgorithm,
    S: Scheduler,
{
    let exec = cfc_core::run_schedule(
        alg.memory().map_err(ExecError::from)?,
        alg.processes(),
        sched,
        faults,
        ExecConfig::default(),
    )?;
    let n = alg.n();
    let names: Vec<Option<u64>> = exec.outputs().iter().map(|o| o.map(|v| v.raw())).collect();
    let steps: Vec<u64> = (0..n)
        .map(|i| exec.steps_taken(ProcessId::new(i as u32)))
        .collect();

    let mut holders: HashMap<u64, Vec<ProcessId>> = HashMap::new();
    for (i, name) in names.iter().enumerate() {
        let pid = ProcessId::new(i as u32);
        let crashed = exec.status(pid) == cfc_core::Status::Crashed;
        match name {
            Some(name) => {
                if *name == 0 || *name > n as u64 {
                    return Err(NamingViolation::OutOfRange {
                        pid,
                        name: *name,
                        n,
                    }
                    .into());
                }
                holders.entry(*name).or_default().push(pid);
            }
            None if !crashed => return Err(NamingViolation::Undecided { pid }.into()),
            None => {}
        }
        if !crashed && steps[i] > alg.step_budget() {
            return Err(NamingViolation::BudgetExceeded {
                pid,
                steps: steps[i],
                budget: alg.step_budget(),
            }
            .into());
        }
    }
    for (name, who) in holders {
        if who.len() > 1 {
            return Err(NamingViolation::Duplicate { name, holders: who }.into());
        }
    }
    Ok(NamingRun {
        total_accesses: exec.trace().access_count(),
        names,
        steps,
    })
}

/// An error from [`run_checked`]: either a specification violation or an
/// execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The run violated the naming specification.
    Violation(NamingViolation),
    /// The executor failed (budget exhaustion indicates lost
    /// wait-freedom).
    Exec(ExecError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Violation(v) => write!(f, "naming violation: {v}"),
            CheckError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<NamingViolation> for CheckError {
    fn from(v: NamingViolation) -> Self {
        CheckError::Violation(v)
    }
}

impl From<ExecError> for CheckError {
    fn from(e: ExecError) -> Self {
        CheckError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TafTree, TasScan};
    use cfc_core::{Lockstep, RandomSched, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_run_passes_checks() {
        let run = run_checked(&TasScan::new(5), Sequential, FaultPlan::new()).unwrap();
        assert_eq!(run.names.iter().flatten().count(), 5);
        assert_eq!(run.total_accesses as u64, run.steps.iter().sum::<u64>());
    }

    #[test]
    fn lockstep_run_passes_checks() {
        run_checked(
            &TafTree::new(16).unwrap(),
            Lockstep::new(),
            FaultPlan::new(),
        )
        .unwrap();
    }

    #[test]
    fn crashes_are_tolerated() {
        let faults = FaultPlan::new()
            .with_crash(ProcessId::new(0), 0)
            .with_crash(ProcessId::new(2), 1);
        let run = run_checked(&TasScan::new(5), Lockstep::new(), faults).unwrap();
        assert_eq!(run.names[0], None);
        assert!(run.names.iter().flatten().count() >= 3);
    }

    #[test]
    fn random_schedules_pass_checks() {
        for seed in 0..10 {
            run_checked(
                &TafTree::new(8).unwrap(),
                RandomSched::new(StdRng::seed_from_u64(seed)),
                FaultPlan::new(),
            )
            .unwrap();
        }
    }

    #[test]
    fn violations_render() {
        let v = NamingViolation::Duplicate {
            name: 3,
            holders: vec![ProcessId::new(0), ProcessId::new(1)],
        };
        assert!(v.to_string().contains("name 3"));
        let e = CheckError::from(v);
        assert!(e.to_string().contains("violation"));
    }
}

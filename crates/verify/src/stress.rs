//! Randomized stress testing: safety monitors over long random schedules.
//!
//! The exhaustive explorer covers small systems completely; the stress
//! harness covers larger systems probabilistically, checking the
//! family's safety property after **every** event of randomly scheduled
//! runs: mutual exclusion for locks ([`stress_mutex`]), name uniqueness
//! and range for naming ([`stress_naming`]). Both report the seed of a
//! violating run so it can be replayed deterministically.

use cfc_core::{ExecError, Process, ProcessId, Scheduler, Section, Status};
use cfc_mutex::MutexAlgorithm;
use cfc_naming::NamingAlgorithm;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The result of a stress campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StressStats {
    /// Runs executed.
    pub runs: u64,
    /// Total events across all runs.
    pub events: u64,
}

/// A mutual-exclusion violation found by stress testing.
#[derive(Clone, Debug)]
pub struct MutexViolation {
    /// The seed of the violating run.
    pub seed: u64,
    /// Number of processes simultaneously in the critical section.
    pub in_cs: usize,
    /// The event index at which the violation was observed.
    pub at_event: u64,
}

impl std::fmt::Display for MutexViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mutual exclusion violated: {} in critical section (seed {}, event {})",
            self.in_cs, self.seed, self.at_event
        )
    }
}

impl std::error::Error for MutexViolation {}

/// A naming violation found by stress testing, with the seed that
/// deterministically reproduces the run.
#[derive(Clone, Debug)]
pub struct NamingViolation {
    /// The seed of the violating run.
    pub seed: u64,
    /// The event index at which the violation was observed.
    pub at_event: u64,
    /// What went wrong (duplicate name, out-of-range name, undecided
    /// walker at quiescence).
    pub message: String,
}

impl std::fmt::Display for NamingViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "naming violated: {} (seed {}, event {})",
            self.message, self.seed, self.at_event
        )
    }
}

impl std::error::Error for NamingViolation {}

/// Errors from the stress harness.
#[derive(Debug)]
pub enum StressError {
    /// Mutual exclusion was violated.
    Violation(MutexViolation),
    /// A naming property was violated.
    Naming(NamingViolation),
    /// Execution failed (budget exhaustion means suspected livelock).
    Exec(ExecError),
}

impl std::fmt::Display for StressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StressError::Violation(v) => write!(f, "{v}"),
            StressError::Naming(v) => write!(f, "{v}"),
            StressError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StressError {}

/// Runs `runs` random schedules of `trips`-trip clients, asserting mutual
/// exclusion after every event.
///
/// Random schedules are not fair, so a run may be cut off by the event
/// budget while processes still busy-wait; safety is checked up to that
/// point and the run counts toward the campaign.
///
/// # Errors
///
/// Returns the first violation found, or an execution error.
pub fn stress_mutex<A>(
    alg: &A,
    trips: u32,
    runs: u64,
    events_per_run: u64,
) -> Result<StressStats, StressError>
where
    A: MutexAlgorithm,
{
    let mut stats = StressStats::default();
    for seed in 0..runs {
        // Dwell two steps in the critical section so simultaneous
        // occupancy is observable by the monitor.
        let clients: Vec<_> = (0..alg.n() as u32)
            .map(|i| alg.client_with_cs(ProcessId::new(i), trips, 2))
            .collect();
        let memory = alg
            .memory()
            .map_err(|e| StressError::Exec(ExecError::from(e)))?;
        let mut exec = cfc_core::Executor::new(memory, clients);
        let mut sched = cfc_core::RandomSched::new(StdRng::seed_from_u64(seed));
        let mut events = 0u64;
        loop {
            let runnable = exec.runnable();
            if runnable.is_empty() || events >= events_per_run {
                break;
            }
            let pid = sched
                .pick(&runnable)
                .expect("random scheduler always picks");
            exec.step_process(pid).map_err(StressError::Exec)?;
            events += 1;
            let in_cs = (0..alg.n() as u32)
                .filter(|&i| exec.process(ProcessId::new(i)).section() == Some(Section::Critical))
                .count();
            if in_cs > 1 {
                return Err(StressError::Violation(MutexViolation {
                    seed,
                    in_cs,
                    at_event: events,
                }));
            }
        }
        stats.runs += 1;
        stats.events += events;
    }
    Ok(stats)
}

/// Runs `runs` random schedules of a naming algorithm's full walker set,
/// asserting after **every** event that decided names are pairwise
/// distinct and within `1..=n`, and at quiescence that every walker has
/// decided (wait-freedom's visible half). Reuses the same [`StressStats`]
/// accounting as [`stress_mutex`]; violations carry the run's seed.
///
/// Random schedules are not fair but naming walkers are wait-free, so
/// every run quiesces within `n * step_budget` events; the caller's
/// `events_per_run` bounds runaway loops of a *broken* implementation,
/// and a run cut off by that budget counts toward the campaign with its
/// safety checked up to the cut.
///
/// # Errors
///
/// Returns the first violation found (with its seed), or an execution
/// error.
pub fn stress_naming<A>(alg: &A, runs: u64, events_per_run: u64) -> Result<StressStats, StressError>
where
    A: NamingAlgorithm,
{
    let n = alg.n();
    let mut stats = StressStats::default();
    for seed in 0..runs {
        let memory = alg
            .memory()
            .map_err(|e| StressError::Exec(ExecError::from(e)))?;
        let mut exec = cfc_core::Executor::new(memory, alg.processes());
        let mut sched = cfc_core::RandomSched::new(StdRng::seed_from_u64(seed));
        let mut events = 0u64;
        let naming_err = |message: String, at_event: u64| {
            StressError::Naming(NamingViolation {
                seed,
                at_event,
                message,
            })
        };
        // Outputs are write-once (None until the walker decides), so the
        // per-event check only needs to look at the process that just
        // stepped: one decided-flag vector and one seen-set per run.
        let mut decided = vec![false; n];
        let mut seen = std::collections::HashSet::new();
        loop {
            let runnable = exec.runnable();
            if runnable.is_empty() || events >= events_per_run {
                break;
            }
            let pid = sched
                .pick(&runnable)
                .expect("random scheduler always picks");
            exec.step_process(pid).map_err(StressError::Exec)?;
            events += 1;
            let i = pid.index();
            if !decided[i] {
                if let Some(name) = exec.process(pid).output() {
                    decided[i] = true;
                    let name = name.raw();
                    if name == 0 || name > n as u64 {
                        return Err(naming_err(
                            format!("process {i} decided out-of-range name {name}"),
                            events,
                        ));
                    }
                    if !seen.insert(name) {
                        return Err(naming_err(format!("duplicate name {name}"), events));
                    }
                }
            }
        }
        if exec.quiescent() {
            for i in 0..n as u32 {
                let pid = ProcessId::new(i);
                if exec.status(pid) == Status::Done && exec.process(pid).output().is_none() {
                    return Err(naming_err(
                        format!("process {i} halted without a name"),
                        events,
                    ));
                }
            }
        }
        stats.runs += 1;
        stats.events += events;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{Layout, Op, OpResult, RegisterId, Step, Value};
    use cfc_mutex::{LamportFast, PetersonTwo, Tournament};
    use cfc_naming::{Model, TafTree, TasScan};

    #[test]
    fn lamport_survives_stress() {
        let stats = stress_mutex(&LamportFast::new(4), 2, 30, 4_000).unwrap();
        assert_eq!(stats.runs, 30);
        assert!(stats.events > 0);
    }

    #[test]
    fn peterson_survives_stress() {
        stress_mutex(&PetersonTwo::new(), 3, 30, 2_000).unwrap();
    }

    #[test]
    fn tournaments_survive_stress() {
        stress_mutex(&Tournament::new(6, 1), 1, 20, 6_000).unwrap();
        stress_mutex(&Tournament::new(9, 2), 1, 20, 8_000).unwrap();
    }

    #[test]
    fn naming_algorithms_survive_stress() {
        // Far beyond what the exhaustive explorer can enumerate: sixteen
        // scanners and sixteen tree walkers under random schedules.
        let stats = stress_naming(&TasScan::new(16), 20, 10_000).unwrap();
        assert_eq!(stats.runs, 20);
        assert!(stats.events > 0);
        stress_naming(&TafTree::new(16).unwrap(), 20, 10_000).unwrap();
    }

    /// A deliberately broken naming "algorithm": every walker wins bit 0
    /// and decides name 1, so any run with two finishers duplicates.
    #[derive(Clone, Debug)]
    struct EveryoneIsOne {
        layout: Layout,
        bit: RegisterId,
        n: usize,
    }

    impl EveryoneIsOne {
        fn new(n: usize) -> Self {
            let mut layout = Layout::new();
            let bit = layout.bit("b", false);
            EveryoneIsOne { layout, bit, n }
        }
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct OneProc {
        bit: RegisterId,
        done: bool,
    }

    impl Process for OneProc {
        fn current(&self) -> Step {
            if self.done {
                Step::Halt
            } else {
                Step::Op(Op::Read(self.bit))
            }
        }
        fn advance(&mut self, _: OpResult) {
            self.done = true;
        }
        fn output(&self) -> Option<Value> {
            self.done.then_some(Value::ONE)
        }
    }

    impl NamingAlgorithm for EveryoneIsOne {
        type Proc = OneProc;
        fn name(&self) -> &str {
            "everyone-is-one"
        }
        fn n(&self) -> usize {
            self.n
        }
        fn model(&self) -> Model {
            Model::TAS_ONLY
        }
        fn layout(&self) -> Layout {
            self.layout.clone()
        }
        fn process(&self) -> OneProc {
            OneProc {
                bit: self.bit,
                done: false,
            }
        }
        fn step_budget(&self) -> u64 {
            1
        }
    }

    #[test]
    fn broken_naming_is_caught_with_a_seed() {
        let err = stress_naming(&EveryoneIsOne::new(3), 5, 1_000).unwrap_err();
        match err {
            StressError::Naming(v) => {
                assert!(v.message.contains("duplicate name 1"), "{v}");
                assert_eq!(v.seed, 0, "first seed already violates");
                assert!(v.at_event >= 2, "needs two finishers");
                assert!(v.to_string().contains("seed 0"));
            }
            other => panic!("expected a naming violation, got {other}"),
        }
    }
}

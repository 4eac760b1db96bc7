//! Measurement helpers: contention-free and contended complexity of
//! mutual-exclusion and detection algorithms.

use cfc_core::metrics::{trip_complexities, TripComplexity};
use cfc_core::{
    run_solo, Complexity, ExecConfig, ExecError, FaultPlan, ProcessId, RoundRobin, Value,
};

use crate::algorithm::MutexAlgorithm;
use crate::detect::DetectionAlgorithm;

/// Measures the contention-free complexity of one trip (entry + exit) of a
/// mutual-exclusion algorithm: a solo run of `pid` from the initial state,
/// exactly the paper's Section 2.2 definition.
///
/// # Errors
///
/// Propagates executor errors (e.g. budget exhaustion, which would
/// indicate the algorithm livelocks even alone).
pub fn contention_free_trip<A: MutexAlgorithm>(
    alg: &A,
    pid: ProcessId,
) -> Result<TripComplexity, ExecError> {
    let memory = alg.memory()?;
    let (trace, _, _) = run_solo(memory, alg.client(pid, 1))?;
    // The solo executor hosts a single process, so the trace pid is 0
    // regardless of which participant identity `pid` names.
    let trips = trip_complexities(&trace, &alg.layout(), ProcessId::new(0));
    Ok(*trips.first().expect("solo trip completes"))
}

/// Measures the worst contention-free trip over all participants.
///
/// # Errors
///
/// Propagates executor errors.
pub fn contention_free_worst<A: MutexAlgorithm>(alg: &A) -> Result<TripComplexity, ExecError> {
    let mut worst: Option<TripComplexity> = None;
    for i in 0..alg.n() {
        let t = contention_free_trip(alg, ProcessId::new(i as u32))?;
        worst = Some(match worst {
            None => t,
            Some(w) => TripComplexity {
                entry: w.entry.max_fields(t.entry),
                exit: w.exit.max_fields(t.exit),
                total: w.total.max_fields(t.total),
            },
        });
    }
    Ok(worst.expect("at least one participant"))
}

/// Runs all `n` participants concurrently under fair round-robin for
/// `trips` trips each and returns each process's worst observed trip.
///
/// This realizes contended runs; the maximum register complexity across
/// them is the empirical worst-case register complexity on this schedule
/// (the measure for which the Peterson/Kessels tournament is `O(log n)`).
///
/// # Errors
///
/// Propagates executor errors.
pub fn contended_round_robin<A: MutexAlgorithm>(
    alg: &A,
    trips: u32,
) -> Result<Vec<TripComplexity>, ExecError> {
    let clients = (0..alg.n() as u32)
        .map(|i| alg.client(ProcessId::new(i), trips))
        .collect();
    let exec = cfc_core::run_schedule(
        alg.memory()?,
        clients,
        RoundRobin::new(),
        FaultPlan::new(),
        ExecConfig {
            max_events: 100_000_000,
        },
    )?;
    let layout = alg.layout();
    Ok((0..alg.n() as u32)
        .filter_map(|i| {
            let pid = ProcessId::new(i);
            trip_complexities(exec.trace(), &layout, pid)
                .into_iter()
                .reduce(|a, b| TripComplexity {
                    entry: a.entry.max_fields(b.entry),
                    exit: a.exit.max_fields(b.exit),
                    total: a.total.max_fields(b.total),
                })
        })
        .collect())
}

/// Measures the contention-free complexity of a detection algorithm: a
/// solo run of `pid`, which must output `1`.
///
/// # Errors
///
/// Propagates executor errors.
///
/// # Panics
///
/// Panics if the solo process fails to output `1` — that would violate the
/// detection specification, so it is a bug in the algorithm under test.
pub fn contention_free_detection<A: DetectionAlgorithm>(
    alg: &A,
    pid: ProcessId,
) -> Result<Complexity, ExecError> {
    let memory = alg.memory()?;
    let (trace, proc_, _) = run_solo(memory, alg.process(pid))?;
    assert_eq!(
        cfc_core::Process::output(&proc_),
        Some(Value::ONE),
        "{}: solo process must output 1",
        alg.name()
    );
    // As in `contention_free_trip`, the solo trace's pid is 0.
    Ok(cfc_core::metrics::process_complexity(
        &trace,
        &alg.layout(),
        ProcessId::new(0),
    ))
}

/// The contention-free profile quantities the paper's lemmas are stated
/// in, extracted from a measured [`Complexity`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LemmaProfile {
    /// `w` of Lemma 3: contention-free write-step complexity.
    pub write_steps: u64,
    /// `r` of Lemma 3: contention-free read-register complexity.
    pub read_registers: u64,
    /// `w` of Lemma 6: contention-free write-register complexity.
    pub write_registers: u64,
    /// `c` of Lemma 6 / Theorem 2: contention-free register complexity.
    pub registers: u64,
    /// `c` of Theorem 1: contention-free step complexity.
    pub steps: u64,
}

impl From<Complexity> for LemmaProfile {
    fn from(c: Complexity) -> Self {
        LemmaProfile {
            write_steps: c.write_step_complexity(),
            read_registers: c.read_registers,
            write_registers: c.write_registers,
            registers: c.registers,
            steps: c.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::MutexDetector;
    use crate::lamport::LamportFast;
    use crate::splitter::{Splitter, SplitterTree};
    use crate::tournament::Tournament;

    #[test]
    fn lamport_contention_free_trip() {
        let alg = LamportFast::new(16);
        let t = contention_free_trip(&alg, ProcessId::new(5)).unwrap();
        assert_eq!(t.total.steps, 7);
        assert_eq!(t.total.registers, 3);
    }

    #[test]
    fn contention_free_worst_over_participants() {
        let alg = Tournament::new(5, 1); // unbalanced paths still depth 3
        let w = contention_free_worst(&alg).unwrap();
        assert_eq!(w.total.steps, 12);
    }

    #[test]
    fn contended_round_robin_reports_all_processes() {
        let alg = Tournament::new(4, 1);
        let trips = contended_round_robin(&alg, 1).unwrap();
        assert_eq!(trips.len(), 4);
        let bound = 3 * u64::from(alg.depth());
        for t in trips {
            assert!(t.total.registers <= bound);
        }
    }

    #[test]
    fn detection_profiles() {
        // Splitter tree for n = 64, l = 2: 4-ary tree of depth 3.
        let c = contention_free_detection(&SplitterTree::new(64, 2), ProcessId::new(9)).unwrap();
        assert_eq!(c.steps, 4 * 3);
        let p = LemmaProfile::from(c);
        assert_eq!(p.write_steps, 6); // x and y per level
        assert_eq!(p.read_registers, 6); // x and y per level
        assert_eq!(p.registers, 6);

        // Single-register splitter: the 4-step detector.
        let c = contention_free_detection(&Splitter::new(64), ProcessId::new(13)).unwrap();
        assert_eq!(c.steps, 4);
        assert_eq!(c.registers, 2);

        let det = MutexDetector::new(LamportFast::new(8));
        let c = contention_free_detection(&det, ProcessId::new(0)).unwrap();
        assert_eq!(c.steps, 7);
    }
}

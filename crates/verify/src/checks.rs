//! Ready-made exhaustive checks for the paper's three problem families.

use std::hash::Hash;

use cfc_core::{Process, Section, Status, Value};
use cfc_mutex::{DetectionAlgorithm, MutexAlgorithm};
use cfc_naming::NamingAlgorithm;

use crate::explore::{explore_sym, ExploreConfig, ExploreError, ExploreStats, StateView};

/// Exhaustively verifies mutual exclusion: across **every** interleaving
/// of `trips`-trip clients, no two processes are simultaneously in their
/// critical sections, and every maximal run ends with all clients done.
///
/// # Errors
///
/// Returns a violation with its schedule, or budget exhaustion for
/// oversized systems.
pub fn check_mutex_safety<A>(alg: &A, trips: u32, config: ExploreConfig) -> Result<ExploreStats, ExploreError>
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + Hash,
{
    let memory = memory_of(alg.memory())?;
    // One internal step inside the critical section makes occupancy an
    // observable state; with zero dwell the monitor could never witness
    // two simultaneous occupants.
    let clients: Vec<_> = (0..alg.n() as u32)
        .map(|i| alg.client_with_cs(cfc_core::ProcessId::new(i), trips, 1))
        .collect();
    explore_sym(
        memory,
        clients,
        &alg.symmetry(),
        config,
        |view| {
            let in_cs = view
                .procs
                .iter()
                .filter(|p| p.section() == Some(Section::Critical))
                .count();
            if in_cs > 1 {
                Err(format!("{in_cs} processes in the critical section"))
            } else {
                Ok(())
            }
        },
        |view| {
            // With a fair-terminating system, every quiescent state has
            // all clients done (no one stuck mid-entry).
            if view.status.iter().all(|s| *s == Status::Done) {
                Ok(())
            } else {
                Err("quiescent state with a stuck client".to_string())
            }
        },
    )
}

/// Exhaustively verifies contention-detection safety: in every state of
/// every interleaving, at most one process has output `1`; and in every
/// terminal state at least one process decided (weak progress).
///
/// # Errors
///
/// Returns a violation with its schedule, or budget exhaustion.
pub fn check_detection_safety<A>(alg: &A, config: ExploreConfig) -> Result<ExploreStats, ExploreError>
where
    A: DetectionAlgorithm,
    A::Proc: Clone + Eq + Hash,
{
    let memory = memory_of(alg.memory())?;
    let procs: Vec<_> = (0..alg.n() as u32)
        .map(|i| alg.process(cfc_core::ProcessId::new(i)))
        .collect();
    // Detection processes carry their pid and write it into the splitter
    // registers, so no two are interchangeable: the trivial group.
    explore_sym(
        memory,
        procs,
        &cfc_core::SymmetryGroup::trivial(alg.n()),
        config,
        |view| {
            let winners = view.count_output(Value::ONE);
            if winners > 1 {
                Err(format!("{winners} processes output 1"))
            } else {
                Ok(())
            }
        },
        |_| Ok(()),
    )
}

/// Exhaustively verifies naming uniqueness and wait-freedom under up to
/// `max_crashes` adversarial crashes: in every terminal state, decided
/// names are pairwise distinct and within `1..=n`, and every non-crashed
/// process decided.
///
/// # Errors
///
/// Returns a violation with its schedule, or budget exhaustion.
pub fn check_naming_uniqueness<A>(
    alg: &A,
    max_crashes: u32,
    config: ExploreConfig,
) -> Result<ExploreStats, ExploreError>
where
    A: NamingAlgorithm,
    A::Proc: Clone + Eq + Hash,
{
    let memory = memory_of(alg.memory())?;
    let n = alg.n();
    let procs = alg.processes();
    explore_sym(
        memory,
        procs,
        &alg.symmetry(),
        ExploreConfig {
            max_crashes,
            ..config
        },
        move |view| check_names_distinct(view, n),
        move |view| {
            check_names_distinct(view, n)?;
            for (i, status) in view.status.iter().enumerate() {
                if *status == Status::Done && view.procs[i].output().is_none() {
                    return Err(format!("process {i} halted without a name"));
                }
                if *status != Status::Crashed && view.procs[i].output().is_none() {
                    return Err(format!("process {i} neither crashed nor decided"));
                }
            }
            Ok(())
        },
    )
}

/// Exhaustively verifies deadlock freedom of a mutual-exclusion
/// algorithm: from every reachable state of `trips`-trip clients, some
/// continuation reaches a state where every client has finished.
///
/// Runs on the reduced state graph when `config` asks for it: symmetry
/// reduction uses the algorithm's declared [`MutexAlgorithm::symmetry`]
/// group, partial-order reduction the clients' footprints — see
/// [`crate::explore::check_progress_sym`] for the soundness argument and
/// crash-budget semantics (crashed clients count as quiesced).
///
/// # Errors
///
/// Returns a violation with a replayable schedule to a stuck state, or
/// budget exhaustion.
pub fn check_mutex_progress<A>(
    alg: &A,
    trips: u32,
    config: ExploreConfig,
) -> Result<ExploreStats, ExploreError>
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + std::hash::Hash,
{
    let memory = memory_of(alg.memory())?;
    let clients: Vec<_> = (0..alg.n() as u32)
        .map(|i| alg.client(cfc_core::ProcessId::new(i), trips))
        .collect();
    crate::explore::check_progress_sym(memory, clients, &alg.symmetry(), config)
}

/// Exhaustively verifies progress of a naming algorithm: from every
/// reachable state under up to `max_crashes` adversarial crashes, some
/// continuation quiesces **all** walkers — every process either decides
/// a name and halts or has crashed.
///
/// This is weaker than the wait-freedom the algorithms guarantee (which
/// [`check_naming_uniqueness`] validates terminally) but it is checked
/// from *every* reachable state, so it rules out any reachable wedge.
/// Naming processes are structurally identical, so the algorithm's full
/// [`NamingAlgorithm::symmetry`] group applies; with
/// `ExploreConfig::reduced()` the canonical quotient reaches process
/// counts the un-reduced graph cannot.
///
/// # Errors
///
/// Returns a violation with a replayable schedule to a stuck state, or
/// budget exhaustion.
pub fn check_naming_progress<A>(
    alg: &A,
    max_crashes: u32,
    config: ExploreConfig,
) -> Result<ExploreStats, ExploreError>
where
    A: NamingAlgorithm,
    A::Proc: Clone + Eq + Hash,
{
    let memory = memory_of(alg.memory())?;
    crate::explore::check_progress_sym(
        memory,
        alg.processes(),
        &alg.symmetry(),
        ExploreConfig {
            max_crashes,
            ..config
        },
    )
}

/// Exhaustively verifies progress of a contention-detection algorithm:
/// from every reachable state, some continuation has every participant
/// decide and halt.
///
/// The splitter-based detectors satisfy this (every participant always
/// terminates); the Lemma 1 mutex-derived detector does **not** — its
/// losers may busy-wait forever, which is permitted by weak deadlock
/// freedom — so this check distinguishes the two families. Detection
/// processes carry their pid, so the trivial symmetry group applies and
/// only partial-order reduction can shrink the graph.
///
/// # Errors
///
/// Returns a violation with a replayable schedule to a stuck state, or
/// budget exhaustion.
pub fn check_detection_progress<A>(
    alg: &A,
    config: ExploreConfig,
) -> Result<ExploreStats, ExploreError>
where
    A: DetectionAlgorithm,
    A::Proc: Clone + Eq + Hash,
{
    let memory = memory_of(alg.memory())?;
    let procs: Vec<_> = (0..alg.n() as u32)
        .map(|i| alg.process(cfc_core::ProcessId::new(i)))
        .collect();
    crate::explore::check_progress_sym(
        memory,
        procs,
        &cfc_core::SymmetryGroup::trivial(alg.n()),
        config,
    )
}

fn check_names_distinct<P: Process>(view: &StateView<'_, P>, n: usize) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for (i, p) in view.procs.iter().enumerate() {
        if let Some(name) = p.output() {
            let name = name.raw();
            if name == 0 || name > n as u64 {
                return Err(format!("process {i} decided out-of-range name {name}"));
            }
            if !seen.insert(name) {
                return Err(format!("duplicate name {name}"));
            }
        }
    }
    Ok(())
}

fn memory_of(
    r: Result<cfc_core::Memory, cfc_core::MemoryError>,
) -> Result<cfc_core::Memory, ExploreError> {
    r.map_err(ExploreError::Memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_mutex::{
        BrokenDetector, ChunkedSplitter, LamportFast, PetersonTwo, Splitter, SplitterTree,
        Tournament,
    };
    use cfc_naming::{TafTree, TasReadSearch, TasScan, TasTarTree};

    #[test]
    fn peterson_two_is_safe_for_two_trips() {
        let stats = check_mutex_safety(&PetersonTwo::new(), 2, ExploreConfig::default()).unwrap();
        assert!(stats.states > 100);
        assert!(stats.terminals > 0);
    }

    #[test]
    fn lamport_two_processes_is_safe() {
        let stats =
            check_mutex_safety(&LamportFast::new(2), 1, ExploreConfig::default()).unwrap();
        assert!(stats.states > 50);
    }

    #[test]
    fn deadlock_freedom_verified_exhaustively() {
        // From every reachable state, the system can still quiesce:
        // deadlock freedom, checked over the full state graph.
        let stats =
            check_mutex_progress(&PetersonTwo::new(), 2, ExploreConfig::default()).unwrap();
        assert!(stats.terminals >= 1);
        check_mutex_progress(&LamportFast::new(2), 1, ExploreConfig::default()).unwrap();
        check_mutex_progress(&Tournament::new(4, 1), 1, ExploreConfig::default()).unwrap();
        check_mutex_progress(&cfc_mutex::Dijkstra::new(2), 1, ExploreConfig::default()).unwrap();
        check_mutex_progress(&cfc_mutex::Bakery::new(2), 1, ExploreConfig::default()).unwrap();
    }

    #[test]
    fn deadlock_freedom_verified_on_the_reduced_graph() {
        // The same checks on the reduced graph: partial-order reduction
        // must prune something for the tournament (disjoint subtrees
        // serialize) and the verdict must stay "deadlock-free".
        let red =
            check_mutex_progress(&Tournament::new(4, 1), 1, ExploreConfig::reduced()).unwrap();
        let base =
            check_mutex_progress(&Tournament::new(4, 1), 1, ExploreConfig::default()).unwrap();
        assert!(red.states <= base.states);
        assert!(red.states_pruned_por > 0, "{red:?}");
        check_mutex_progress(&cfc_mutex::Bakery::new(2), 1, ExploreConfig::reduced()).unwrap();
        check_mutex_progress(&cfc_mutex::Dijkstra::new(2), 1, ExploreConfig::reduced()).unwrap();
    }

    #[test]
    fn naming_progress_all_walkers_quiesce() {
        // From every reachable state (including mid-crash ones), some
        // continuation has every walker decide or crash.
        check_naming_progress(&TasScan::new(3), 1, ExploreConfig::default()).unwrap();
        let red = check_naming_progress(&TafTree::new(4).unwrap(), 0, ExploreConfig::reduced())
            .unwrap();
        assert!(red.orbits_merged > 0, "{red:?}");
        check_naming_progress(&TasReadSearch::new(3), 0, ExploreConfig::reduced()).unwrap();
        check_naming_progress(&TasTarTree::new(2).unwrap(), 1, ExploreConfig::reduced()).unwrap();
    }

    #[test]
    fn detection_progress_holds_for_splitters_not_for_lemma1() {
        check_detection_progress(&Splitter::new(3), ExploreConfig::default()).unwrap();
        check_detection_progress(&SplitterTree::new(3, 1), ExploreConfig::reduced()).unwrap();
        // The Lemma 1 mutex-derived detector only has *weak* deadlock
        // freedom: losers busy-wait forever once the winner claims, so a
        // reachable state with a spinning loser and a finished winner can
        // never fully quiesce — a genuine, expected progress violation.
        let detector = cfc_mutex::MutexDetector::new(PetersonTwo::new());
        let err = check_detection_progress(&detector, ExploreConfig::default()).unwrap_err();
        match err {
            ExploreError::Violation(v) => {
                assert!(v.message.contains("quiescence"), "{v}");
                assert!(!v.schedule.is_empty());
            }
            other => panic!("expected a progress violation, got {other:?}"),
        }
    }

    #[test]
    fn baseline_algorithms_are_safe_exhaustively() {
        check_mutex_safety(&cfc_mutex::Dijkstra::new(2), 1, ExploreConfig::default()).unwrap();
        check_mutex_safety(&cfc_mutex::Bakery::new(2), 1, ExploreConfig::default()).unwrap();
    }

    #[test]
    fn peterson_tournament_four_processes_is_safe() {
        let stats =
            check_mutex_safety(&Tournament::new(4, 1), 1, ExploreConfig::default()).unwrap();
        assert!(stats.states > 1000);
    }

    /// The paper's prose releases tree nodes "from the leaf to the root".
    /// For composed Peterson nodes that order is unsafe: after the leaf
    /// is freed, a successor acquires a still-held upper node, and the
    /// departing process's later release of that node wipes the
    /// successor's flag — admitting a third process to the critical
    /// section. The explorer finds the interleaving; our tournament
    /// therefore defaults to the safe root-to-leaf order.
    #[test]
    fn leaf_to_root_exit_order_is_unsafe() {
        use cfc_mutex::ExitOrder;
        let alg = Tournament::new(4, 1).with_exit_order(ExitOrder::LeafToRoot);
        let err = check_mutex_safety(&alg, 1, ExploreConfig::default()).unwrap_err();
        match err {
            ExploreError::Violation(v) => {
                assert!(v.message.contains("critical section"), "{v}");
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn splitter_detection_is_safe_for_three() {
        let stats =
            check_detection_safety(&Splitter::new(3), ExploreConfig::default()).unwrap();
        assert!(stats.states > 100);
    }

    #[test]
    fn splitter_tree_detection_is_safe() {
        check_detection_safety(&SplitterTree::new(3, 1), ExploreConfig::default()).unwrap();
        check_detection_safety(&SplitterTree::new(4, 1), ExploreConfig::default()).unwrap();
        check_detection_safety(&SplitterTree::new(4, 2), ExploreConfig::default()).unwrap();
    }

    /// The chunked splitter writes its id across several sub-atomic
    /// chunks. The explorer finds the three-process interleaving where a
    /// straggler's chunk write hands two leaders their own ids from
    /// different mixes of `x` — a genuine torn-write bug that the
    /// single-register splitter's atomicity rules out.
    #[test]
    fn chunked_splitter_is_unsafe_for_three() {
        let err = check_detection_safety(&ChunkedSplitter::new(3, 1), ExploreConfig::default())
            .unwrap_err();
        match err {
            ExploreError::Violation(v) => {
                assert!(v.message.contains("2 processes output 1"));
                assert!(v.schedule.len() >= 10);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn broken_detector_is_caught() {
        let err =
            check_detection_safety(&BrokenDetector::new(2), ExploreConfig::default()).unwrap_err();
        match err {
            ExploreError::Violation(v) => assert!(v.message.contains("output 1")),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn taf_tree_names_unique_under_crashes() {
        let stats = check_naming_uniqueness(
            &TafTree::new(4).unwrap(),
            2,
            ExploreConfig::default(),
        )
        .unwrap();
        assert!(stats.terminals > 0);
    }

    #[test]
    fn tas_scan_names_unique_under_crashes() {
        check_naming_uniqueness(&TasScan::new(3), 1, ExploreConfig::default()).unwrap();
    }

    #[test]
    fn tas_tar_tree_names_unique() {
        check_naming_uniqueness(&TasTarTree::new(4).unwrap(), 1, ExploreConfig::default())
            .unwrap();
    }

    #[test]
    fn tas_read_search_names_unique() {
        check_naming_uniqueness(&TasReadSearch::new(3), 1, ExploreConfig::default()).unwrap();
    }
}

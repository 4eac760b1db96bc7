//! Property tests for the solo control-automaton analysis:
//!
//! * **determinism** — extracting the automaton twice from the same
//!   initial process yields structurally identical results (same
//!   locations, footprints, futures, congruence record), so the lint
//!   and the `FutureIndex` are reproducible;
//! * **future-set soundness along concurrent walks** — the automaton is
//!   extracted from *solo* havoc executions, but its future-access sets
//!   claim to bound every continuation inside a concurrent run. Driving
//!   random interleavings of real systems and checking every executed
//!   step's footprint against the stepping process's current future set
//!   tests exactly that claim (it is what `MayAccessMode::Automaton`
//!   feeds to ample-set selection).
//!
//! The extraction itself is deterministic and walk-independent, so each
//! family's index is built **once** (`OnceLock`) and only the walks are
//! sampled — havoc enumeration over 16-bit ticket reads is far too
//! expensive to repeat per proptest case.

mod common;

use std::sync::OnceLock;

use cfc::core::{apply_step, Footprint, Layout, Memory, Process, ProcessId, Status, Step};
use cfc::mutex::{
    Bakery, BakeryLock, DetectionAlgorithm, MutexAlgorithm, MutexClient, PetersonTwo, Splitter,
    SplitterProc, Tournament,
};
use cfc::naming::{NamingAlgorithm, TasScan};
use cfc::verify::{ControlAutomaton, FutureIndex};
use proptest::prelude::*;

/// One family's reusable fixture: layout, fresh-memory template,
/// initial processes, and the automaton future index over them.
struct Fixture<P> {
    layout: Layout,
    memory: Memory,
    procs: Vec<P>,
    index: FutureIndex<P>,
}

impl<P: Process + Clone + Eq + std::hash::Hash> Fixture<P> {
    fn new(layout: Layout, memory: Memory, procs: Vec<P>) -> Self {
        let index = FutureIndex::build(&layout, &procs);
        for (i, p) in procs.iter().enumerate() {
            assert!(
                index.future_of(p).is_some(),
                "process {i}: initial state must resolve in the future index"
            );
        }
        Fixture {
            layout,
            memory,
            procs,
            index,
        }
    }

    /// Drives a random interleaving, asserting before every operation
    /// that the stepping process's footprint is inside its automaton
    /// future set (whenever the index resolves the local state at all).
    fn check_walk(&self, walk: &[usize]) {
        let mut mem = self.memory.clone();
        let mut procs = self.procs.clone();
        let n = procs.len();
        let mut status = vec![Status::Running; n];
        for &raw in walk {
            let pid = raw % n;
            if status[pid] != Status::Running {
                continue;
            }
            if let (Step::Op(op), Some(future)) =
                (procs[pid].current(), self.index.future_of(&procs[pid]))
            {
                let fp = Footprint::of_op(&op, &self.layout);
                assert!(
                    fp.reads.is_subset(future) && fp.writes.is_subset(future),
                    "process {pid}: executed step {op} escapes its automaton \
                     future set"
                );
            }
            apply_step(&mut procs[pid], &mut status[pid], &mut mem).expect("valid op");
        }
    }
}

fn bakery_fixture() -> &'static Fixture<MutexClient<BakeryLock>> {
    static FIX: OnceLock<Fixture<MutexClient<BakeryLock>>> = OnceLock::new();
    FIX.get_or_init(|| {
        let alg = Bakery::new(3);
        let procs = (0..3)
            .map(|i| alg.client_with_cs(ProcessId::new(i), 1, 1))
            .collect();
        Fixture::new(alg.layout(), alg.memory().unwrap(), procs)
    })
}

fn peterson_fixture() -> &'static Fixture<MutexClient<cfc::mutex::PetersonLock>> {
    static FIX: OnceLock<Fixture<MutexClient<cfc::mutex::PetersonLock>>> = OnceLock::new();
    FIX.get_or_init(|| {
        let alg = PetersonTwo::new();
        let procs = (0..2)
            .map(|i| alg.client_with_cs(ProcessId::new(i), 2, 1))
            .collect();
        Fixture::new(alg.layout(), alg.memory().unwrap(), procs)
    })
}

fn tournament_fixture() -> &'static Fixture<MutexClient<cfc::mutex::TournamentLock>> {
    static FIX: OnceLock<Fixture<MutexClient<cfc::mutex::TournamentLock>>> = OnceLock::new();
    FIX.get_or_init(|| {
        let alg = Tournament::new(3, 1);
        let procs = (0..3)
            .map(|i| alg.client_with_cs(ProcessId::new(i), 1, 1))
            .collect();
        Fixture::new(alg.layout(), alg.memory().unwrap(), procs)
    })
}

fn scan_fixture() -> &'static Fixture<cfc::naming::TasScanProc> {
    static FIX: OnceLock<Fixture<cfc::naming::TasScanProc>> = OnceLock::new();
    FIX.get_or_init(|| {
        let alg = TasScan::new(4);
        Fixture::new(alg.layout(), alg.memory().unwrap(), alg.processes())
    })
}

fn splitter_fixture() -> &'static Fixture<SplitterProc> {
    static FIX: OnceLock<Fixture<SplitterProc>> = OnceLock::new();
    FIX.get_or_init(|| {
        let alg = Splitter::new(3);
        let procs = (0..3).map(|i| alg.process(ProcessId::new(i))).collect();
        Fixture::new(alg.layout(), alg.memory().unwrap(), procs)
    })
}

/// Same initial state, same automaton — twice, structurally equal. A
/// plain test: determinism needs representative inputs, not sampling.
#[test]
fn extraction_is_deterministic() {
    let bakery = Bakery::new(3);
    let layout = bakery.layout();
    for (pid, trips) in [(0u32, 1u32), (2, 1), (1, 2)] {
        let client = bakery.client_with_cs(ProcessId::new(pid), trips, 1);
        let a = ControlAutomaton::extract(&layout, &client).expect("bakery extracts");
        let b = ControlAutomaton::extract(&layout, &client).expect("bakery extracts");
        assert_eq!(a, b, "bakery pid={pid} trips={trips}");
    }

    let scan = TasScan::new(4);
    let a = ControlAutomaton::extract(&scan.layout(), &scan.process()).expect("scan extracts");
    let b = ControlAutomaton::extract(&scan.layout(), &scan.process()).expect("scan extracts");
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bakery clients under random interleavings: the scan indices, the
    /// ticket writes, the exit reset — every executed footprint stays
    /// inside the location-keyed future sets.
    #[test]
    fn bakery_walks_stay_inside_future_sets(walk in prop::collection::vec(0usize..8, 0..240)) {
        bakery_fixture().check_walk(&walk);
    }

    /// Peterson's lock, multi-trip clients (location keys re-entered
    /// across trips).
    #[test]
    fn peterson_walks_stay_inside_future_sets(walk in prop::collection::vec(0usize..8, 0..240)) {
        peterson_fixture().check_walk(&walk);
    }

    /// The tournament exercises the full-state fallback: no `location`
    /// hook, every lock state resolved through the by-state map.
    #[test]
    fn tournament_walks_stay_inside_future_sets(walk in prop::collection::vec(0usize..8, 0..240)) {
        tournament_fixture().check_walk(&walk);
    }

    /// Naming and detection processes: identical-program location keys
    /// (tas-scan) and the pc-keyed flat splitter.
    #[test]
    fn naming_and_detection_walks_stay_inside_future_sets(
        walk in prop::collection::vec(0usize..8, 0..200),
    ) {
        scan_fixture().check_walk(&walk);
        splitter_fixture().check_walk(&walk);
    }
}

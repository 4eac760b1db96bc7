//! Property wall for the dynamic-reduction substrate: the vector-clock
//! laws and the observed-conflict relation that sleep-set pruning
//! (`MayAccessMode::Dynamic`) is built on.
//!
//! Three families of claims, each driven by random interleavings of the
//! real algorithm processes:
//!
//! * **semilattice laws** — `join` is commutative, associative, and
//!   idempotent with the zero clock as unit, and both arguments are
//!   `leq` their join (pure clock algebra, no trace needed);
//! * **trace laws** — along any executed schedule, clocks grow strictly
//!   in program order, every recorded conflict edge is a
//!   happens-before edge, and the clock order *equals* the transitive
//!   closure of program order ∪ observed-conflict order — no more, no
//!   less. That equality is what justifies reading `leq` as "cannot be
//!   reordered" inside the sleep machinery;
//! * **footprint containment** — every register two events race on is
//!   inside the automaton future set of *both* stepping processes at
//!   the moment they stepped. Observed conflicts are a refinement of
//!   the static oracle, never an escape from it — the containment that
//!   makes falling back to the automaton mode sound.
//!
//! Extraction is deterministic, so each family's future index is built
//! once (`OnceLock`) and only the walks are sampled, exactly like
//! `tests/prop_analysis.rs`.

use std::sync::OnceLock;

use cfc::core::{
    Layout, Memory, OpResult, Process, ProcessId, RegisterSet, Status, Step, VectorClock,
};
use cfc::mutex::{Bakery, BakeryLock, MutexAlgorithm, MutexClient, PetersonTwo};
use cfc::naming::{NamingAlgorithm, TasScan};
use cfc::verify::{trace_causality, FutureIndex, ScheduleStep, TraceCausality};
use proptest::prelude::*;

/// One family's reusable fixture: the initial system plus its automaton
/// future index.
struct Fixture<P> {
    memory: Memory,
    procs: Vec<P>,
    index: FutureIndex<P>,
}

impl<P: Process + Clone + Eq + std::hash::Hash> Fixture<P> {
    fn new(layout: Layout, memory: Memory, procs: Vec<P>) -> Self {
        let index = FutureIndex::build(&layout, &procs);
        Fixture { memory, procs, index }
    }

    /// Executes a random walk, returning the schedule of steps that
    /// actually ran and, per event, the stepping process's automaton
    /// future set *before* the step (when the index resolves it).
    fn drive(&self, walk: &[usize]) -> (Vec<ScheduleStep>, Vec<Option<RegisterSet>>) {
        let mut mem = self.memory.clone();
        let mut procs = self.procs.clone();
        let n = procs.len();
        let mut status = vec![Status::Running; n];
        let mut schedule = Vec::new();
        let mut futures = Vec::new();
        for &raw in walk {
            let pid = raw % n;
            if status[pid] != Status::Running {
                continue;
            }
            schedule.push(ScheduleStep::Step(ProcessId::new(pid as u32)));
            futures.push(self.index.future_of(&procs[pid]).cloned());
            match procs[pid].current() {
                Step::Halt => status[pid] = Status::Done,
                Step::Internal => procs[pid].advance(OpResult::None),
                Step::Op(op) => {
                    let result = mem.apply(&op).expect("valid op");
                    procs[pid].advance(result);
                }
            }
        }
        (schedule, futures)
    }

    /// The whole trace wall for one walk (see the module docs).
    fn check_walk(&self, walk: &[usize]) {
        let (schedule, futures) = self.drive(walk);
        let tc = trace_causality(self.memory.clone(), self.procs.clone(), &schedule)
            .expect("replay of an executed schedule");
        assert_eq!(
            tc.events.len(),
            futures.len(),
            "the causality replay must execute exactly the driven steps"
        );
        assert_program_order_monotone(&tc);
        assert_conflicts_are_ordered(&tc);
        assert_hb_is_po_union_conflicts(&tc);
        assert_conflicts_inside_future_sets(&tc, &futures);
    }
}

/// Clocks of one process's successive events strictly increase.
fn assert_program_order_monotone(tc: &TraceCausality) {
    let mut last: Vec<Option<usize>> = Vec::new();
    for (i, ev) in tc.events.iter().enumerate() {
        let p = ev.pid.index();
        if p >= last.len() {
            last.resize(p + 1, None);
        }
        if let Some(prev) = last[p] {
            assert!(
                tc.happens_before(prev, i),
                "program order violated: event {prev} !< {i} for {}",
                ev.pid
            );
            assert!(
                tc.events[prev].clock != ev.clock,
                "successive events of {} share a clock",
                ev.pid
            );
        }
        last[p] = Some(i);
    }
}

/// Every recorded conflict edge points forward and is a happens-before
/// edge.
fn assert_conflicts_are_ordered(tc: &TraceCausality) {
    for e in &tc.conflicts {
        assert!(e.from < e.to, "conflict edge must point forward");
        assert!(
            tc.happens_before(e.from, e.to),
            "conflict {} -> {} not reflected in the clocks",
            e.from,
            e.to
        );
        assert!(
            e.registers.iter().next().is_some(),
            "a conflict edge must name at least one register"
        );
    }
}

/// The clock order equals the transitive closure of program order ∪
/// conflict order — happens-before contains nothing else.
fn assert_hb_is_po_union_conflicts(tc: &TraceCausality) {
    let n = tc.events.len();
    let mut succs = vec![Vec::new(); n];
    let mut last: Vec<Option<usize>> = Vec::new();
    for (i, ev) in tc.events.iter().enumerate() {
        let p = ev.pid.index();
        if p >= last.len() {
            last.resize(p + 1, None);
        }
        if let Some(prev) = last[p] {
            succs[prev].push(i);
        }
        last[p] = Some(i);
    }
    for e in &tc.conflicts {
        succs[e.from].push(e.to);
    }
    // Events are in schedule order and every edge points forward, so a
    // reverse sweep computes reachability bottom-up.
    let mut reach = vec![vec![false; n]; n];
    for a in (0..n).rev() {
        for &b in &succs[a] {
            // Edges always point forward (a < b), so row a sits strictly
            // before row b and the split borrows both disjointly.
            let (head, tail) = reach.split_at_mut(b);
            let row_a = &mut head[a];
            row_a[b] = true;
            for (c, &reachable) in tail[0].iter().enumerate() {
                if reachable {
                    row_a[c] = true;
                }
            }
        }
    }
    for (a, row) in reach.iter().enumerate() {
        for (b, &reachable) in row.iter().enumerate() {
            assert_eq!(
                tc.happens_before(a, b),
                reachable,
                "happens-before({a}, {b}) disagrees with po ∪ conflict closure"
            );
        }
    }
}

/// Every raced register is in the automaton future set of both stepping
/// processes at their step — the observed relation refines the static
/// oracle.
fn assert_conflicts_inside_future_sets(tc: &TraceCausality, futures: &[Option<RegisterSet>]) {
    for e in &tc.conflicts {
        for (side, ev) in [("from", e.from), ("to", e.to)] {
            if let Some(future) = &futures[ev] {
                assert!(
                    e.registers.is_subset(future),
                    "conflict {} -> {}: raced registers escape the {side} \
                     event's automaton future set",
                    e.from,
                    e.to
                );
            }
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

fn scan_fixture() -> &'static Fixture<cfc::naming::TasScanProc> {
    static FIX: OnceLock<Fixture<cfc::naming::TasScanProc>> = OnceLock::new();
    FIX.get_or_init(|| {
        let alg = TasScan::new(4);
        Fixture::new(alg.layout(), alg.memory().unwrap(), alg.processes())
    })
}

/// Builds a clock from (pid, ticks) pairs — the proptest generator for
/// arbitrary semilattice elements.
fn clock_of(ticks: &[(u32, u8)]) -> VectorClock {
    let mut c = VectorClock::new();
    for &(p, k) in ticks {
        for _ in 0..k {
            c.tick(ProcessId::new(p % 6));
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Join is commutative, associative, idempotent, has the zero clock
    /// as unit, and bounds both arguments from above.
    #[test]
    fn join_is_a_semilattice(
        a in prop::collection::vec((0u32..8, 0u8..5), 0..6),
        b in prop::collection::vec((0u32..8, 0u8..5), 0..6),
        c in prop::collection::vec((0u32..8, 0u8..5), 0..6),
    ) {
        let (a, b, c) = (clock_of(&a), clock_of(&b), clock_of(&c));
        prop_assert_eq!(a.joined(&b), b.joined(&a));
        prop_assert_eq!(a.joined(&b).joined(&c), a.joined(&b.joined(&c)));
        prop_assert_eq!(a.joined(&a), a.clone());
        prop_assert_eq!(a.joined(&VectorClock::new()), a.clone());
        let j = a.joined(&b);
        prop_assert!(a.leq(&j) && b.leq(&j));
    }

    /// Ticking strictly advances a clock and commutes with the order.
    #[test]
    fn tick_strictly_advances(
        base in prop::collection::vec((0u32..8, 0u8..5), 0..6),
        p in 0u32..8,
    ) {
        let before = clock_of(&base);
        let mut after = before.clone();
        after.tick(ProcessId::new(p));
        prop_assert!(before.leq(&after));
        prop_assert!(before != after);
        prop_assert!(!after.leq(&before));
        prop_assert_eq!(after.get(ProcessId::new(p)), before.get(ProcessId::new(p)) + 1);
    }

    /// Bakery clients under random interleavings: ticket races order the
    /// trace, the scan reads stay concurrent where they commute.
    #[test]
    fn bakery_traces_satisfy_the_clock_laws(
        walk in prop::collection::vec(0usize..8, 0..140),
    ) {
        bakery_fixture().check_walk(&walk);
    }

    /// Peterson's lock, multi-trip clients: conflicts re-order across
    /// trips through the same locations.
    #[test]
    fn peterson_traces_satisfy_the_clock_laws(
        walk in prop::collection::vec(0usize..8, 0..140),
    ) {
        peterson_fixture().check_walk(&walk);
    }

    /// The tas-scan naming walk: test-and-set races on a settled prefix.
    #[test]
    fn scan_traces_satisfy_the_clock_laws(
        walk in prop::collection::vec(0usize..8, 0..140),
    ) {
        scan_fixture().check_walk(&walk);
    }
}

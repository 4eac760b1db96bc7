//! Dynamic partial-order reduction: sleep sets over *observed* conflicts,
//! and per-trace happens-before from vector clocks.
//!
//! The static modes ([`MayAccessMode::Declared`], [`MayAccessMode::
//! Automaton`]) judge independence against an over-approximation of what
//! a process *may* access in its future. The remaining conservatism is
//! per-trace: a register in a process's future set but never actually
//! raced on this path still blocks an ample singleton. This module holds
//! the machinery [`MayAccessMode::Dynamic`] adds on top of the automaton
//! substrate:
//!
//! * **Split future sets** (owned by [`crate::analysis`]): the automaton
//!   fixpoint keeps its read/write split, so ample selection tests full
//!   *independence* ([`Footprint::independent`]) instead of mere overlap
//!   — two processes whose futures only share reads stay independent.
//! * **Sleep sets** (`SleepTable`): the safety DFS threads a bitmask
//!   of processes whose next step was already explored in a sibling
//!   branch and has *not since been raced with* — their successors are
//!   Mazurkiewicz-equivalent to states reached via the sibling, so the
//!   transitions are skipped. A process is woken the moment a step with
//!   a conflicting footprint fires ([`observed_conflict`]). On a
//!   revisit, the stored mask shrinks monotonically
//!   (`SleepTable::revisit`): a state is re-expanded only when the new
//!   visit sleeps strictly fewer processes than every earlier visit
//!   covered, so termination is preserved (at most one re-expansion per
//!   bit).
//! * **Trace causality** ([`trace_causality`]): an offline replay that
//!   assigns every event a [`VectorClock`] — join of the clocks of its
//!   conflicting predecessors, then a tick of its own component. The
//!   clock order *is* the trace's happens-before relation (program order
//!   ∪ conflict order), and the differential/property walls use it to
//!   audit what the in-engine sleep machinery treats as concurrent.
//!
//! Soundness boundaries are enforced by `sleep_sets_active`: sleeping
//! is restricted to the safety DFS (cycle/progress back-propagation
//! would see pruned *edges*), to concrete (non-quotient) exploration
//! (masks index concrete process ids; a symmetry representative permutes
//! them), and to crash-free budgets (a crash is an extra, always-enabled
//! transition the sibling branch never covered).
//!
//! [`MayAccessMode::Declared`]: crate::MayAccessMode::Declared
//! [`MayAccessMode::Automaton`]: crate::MayAccessMode::Automaton
//! [`MayAccessMode::Dynamic`]: crate::MayAccessMode::Dynamic
//! [`Footprint::independent`]: cfc_core::Footprint::independent

use cfc_core::{
    Footprint, Memory, OpResult, Process, ProcessId, RegisterId, RegisterSet, Status, Step,
    VectorClock,
};

use crate::explore::ScheduleStep;

/// Sleep-set masks are `u32` bitmasks over concrete process ids, so
/// sleeping deactivates itself beyond this many processes.
pub const MAX_SLEEP_PROCS: usize = 32;

/// Should the safety DFS thread sleep sets through this traversal?
///
/// Every condition is load-bearing (see the module docs): `dynamic` is
/// the mode opt-in, `safety_dfs` excludes the progress/liveness graph
/// builds (they consume *edges*, which sleeping prunes), `use_sym`
/// excludes the symmetry quotient (masks index concrete pids),
/// `max_crashes` excludes crash branching (crashes are always enabled,
/// never covered by a sibling), and `n` bounds the mask width.
pub(crate) fn sleep_sets_active(
    por: bool,
    dynamic: bool,
    safety_dfs: bool,
    use_sym: bool,
    max_crashes: u32,
    n: usize,
) -> bool {
    por && dynamic && safety_dfs && !use_sym && max_crashes == 0 && n <= MAX_SLEEP_PROCS
}

#[cfg(test)]
thread_local! {
    /// The planted conflict-under-reporting mutant, armed per thread by
    /// [`with_races_dropped_on`]: while set, dynamic reduction treats
    /// conflicts that go through this register as if they never
    /// happened — the sleep machinery keeps processes asleep across such
    /// races, and [`trace_causality`] drops them from the happens-before
    /// relation. The static modes never consult it, which is exactly why
    /// only the dynamic-vs-static differential can kill it.
    static DROP_RACES_ON: std::cell::Cell<Option<RegisterId>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `f` with the planted conflict-under-reporting mutant armed on
/// `register` for this thread.
#[cfg(test)]
fn with_races_dropped_on<T>(register: RegisterId, f: impl FnOnce() -> T) -> T {
    DROP_RACES_ON.with(|r| r.set(Some(register)));
    let out = f();
    DROP_RACES_ON.with(|r| r.set(None));
    out
}

/// Did two steps with these footprints race, as far as dynamic pruning
/// is concerned? Plain [`Footprint::conflicts_with`]; the sleep
/// machinery asks through this one predicate, which is where the unit
/// tests plant the under-reporting mutant.
pub fn observed_conflict(a: &Footprint, b: &Footprint) -> bool {
    #[cfg(test)]
    if let Some(r) = DROP_RACES_ON.with(std::cell::Cell::get) {
        return a.conflict_registers(b).iter().any(|x| x != r);
    }
    a.conflicts_with(b)
}

/// Per-state sleep masks, indexed by the store's interned state id.
///
/// Bit `p` of a mask set means: on every visit recorded so far, process
/// `p`'s step out of this state was slept (covered by a sibling branch).
/// The table lives *beside* the packed [`NodeStore`] — 4 bytes per
/// state, counted into the store footprint's index bytes rather than
/// the resident `bytes_per_state` of the packed records.
///
/// [`NodeStore`]: crate::store::NodeStore
#[derive(Debug, Default)]
pub(crate) struct SleepTable {
    masks: Vec<u32>,
}

impl SleepTable {
    pub(crate) fn new() -> Self {
        SleepTable::default()
    }

    /// Records the mask of a freshly interned state. Fresh ids are
    /// dense and increasing, so the table grows in lockstep with the
    /// store.
    pub(crate) fn record_fresh(&mut self, id: u32, mask: u32) {
        debug_assert_eq!(id as usize, self.masks.len(), "fresh ids must be dense");
        self.masks.push(mask);
    }

    /// Decides a revisit of state `id` with sleep mask `mask`.
    ///
    /// Earlier visits covered every transition outside the stored mask.
    /// If the stored mask is a subset of `mask`, this visit would
    /// explore a subset of what is already covered — prune (`None`).
    /// Otherwise the state must be re-expanded; the visit may soundly
    /// sleep the intersection (processes slept by *both* this visit and
    /// all earlier coverage), which is stored back so the mask shrinks
    /// strictly on every re-expansion.
    pub(crate) fn revisit(&mut self, id: u32, mask: u32) -> Option<u32> {
        let stored = self.masks[id as usize];
        let inter = stored & mask;
        if inter == stored {
            None
        } else {
            self.masks[id as usize] = inter;
            Some(inter)
        }
    }

    /// Heap bytes held by the table (for store-footprint accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.masks.capacity() * std::mem::size_of::<u32>()
    }
}

/// One event of a trace with its causal clock.
#[derive(Clone, Debug)]
pub struct CausalEvent {
    /// Position in the flattened schedule (crash entries excluded).
    pub index: usize,
    /// The process that took the step.
    pub pid: ProcessId,
    /// The event's vector clock: the join of every conflicting
    /// predecessor's clock, ticked at `pid`. Clock order is
    /// happens-before.
    pub clock: VectorClock,
    /// The step's read/write footprint (empty for internal/halt steps).
    pub footprint: Footprint,
}

/// One observed conflict: a pair of events racing on concrete registers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictEdge {
    /// Event index of the earlier (happens-before) side.
    pub from: usize,
    /// Event index of the later side.
    pub to: usize,
    /// The registers the two footprints actually conflict on.
    pub registers: RegisterSet,
}

/// The happens-before structure of one concrete trace.
#[derive(Clone, Debug, Default)]
pub struct TraceCausality {
    /// Every non-crash event, in schedule order, with its clock.
    pub events: Vec<CausalEvent>,
    /// Every observed conflict edge, in discovery order (`to` ascending).
    pub conflicts: Vec<ConflictEdge>,
}

impl TraceCausality {
    /// Does event `a` happen before event `b` (strictly)?
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        a != b && self.events[a].clock.leq(&self.events[b].clock)
    }
}

/// Replays a schedule and computes its happens-before relation.
///
/// The replay mirrors [`crate::explore::replay`] but is *tolerant*:
/// steps of crashed, halted, or out-of-range processes are skipped
/// instead of panicking, so the property suites can feed it arbitrary
/// generated walks. Crash entries change status only — a crash is not
/// an event of the happens-before relation.
///
/// # Errors
///
/// Propagates memory errors from applying an operation, exactly like
/// the replay machinery.
pub fn trace_causality<P: Process>(
    memory: Memory,
    mut procs: Vec<P>,
    schedule: &[ScheduleStep],
) -> Result<TraceCausality, cfc_core::ExecError> {
    let mut mem = memory;
    let layout = mem.layout().clone();
    let mut status = vec![Status::Running; procs.len()];
    let mut out = TraceCausality::default();
    // Per-process clocks and, per register, the last writing event and
    // the reading events since that write — the only predecessors a new
    // access can conflict with.
    let mut clocks = vec![VectorClock::new(); procs.len()];
    let mut last_writer: Vec<Option<usize>> = Vec::new();
    let mut readers_since: Vec<Vec<usize>> = Vec::new();
    #[cfg(test)]
    let drop_races_on = DROP_RACES_ON.with(std::cell::Cell::get);

    for s in schedule {
        let pid = match s {
            ScheduleStep::Crash(pid) => {
                if let Some(st) = status.get_mut(pid.index()) {
                    *st = Status::Crashed;
                }
                continue;
            }
            ScheduleStep::Step(pid) => *pid,
        };
        let i = pid.index();
        if i >= procs.len() || status[i] != Status::Running {
            continue;
        }
        let step = procs[i].current();
        let fp = Footprint::of_step(&step, &layout);
        let index = out.events.len();
        let mut clock = clocks[i].clone();

        // Join the clocks of conflicting predecessors and record the
        // conflict edges, register by register.
        let mut preds: Vec<(usize, RegisterSet)> = Vec::new();
        let join_pred = |ev: usize, r: RegisterId, preds: &mut Vec<(usize, RegisterSet)>| {
            if let Some((_, regs)) = preds.iter_mut().find(|(e, _)| *e == ev) {
                regs.insert(r);
            } else {
                let mut regs = RegisterSet::new();
                regs.insert(r);
                preds.push((ev, regs));
            }
        };
        for r in fp.reads.iter().chain(fp.writes.iter()) {
            #[cfg(test)]
            if drop_races_on == Some(r) {
                continue;
            }
            let ri = r.index();
            if ri >= last_writer.len() {
                continue;
            }
            let writes = fp.writes.contains(r);
            // Any access conflicts with the last write; a write also
            // conflicts with every read since that write.
            if let Some(w) = last_writer[ri] {
                if out.events[w].pid != pid {
                    join_pred(w, r, &mut preds);
                }
            }
            if writes {
                for &rd in &readers_since[ri] {
                    if out.events[rd].pid != pid {
                        join_pred(rd, r, &mut preds);
                    }
                }
            }
        }
        preds.sort_by_key(|(e, _)| *e);
        for (ev, regs) in preds {
            clock.join(&out.events[ev].clock);
            out.conflicts.push(ConflictEdge {
                from: ev,
                to: index,
                registers: regs,
            });
        }
        clock.tick(pid);
        clocks[i] = clock.clone();

        // Update per-register occupancy and advance the process.
        for r in fp.reads.iter().chain(fp.writes.iter()) {
            let ri = r.index();
            if ri >= last_writer.len() {
                last_writer.resize(ri + 1, None);
                readers_since.resize(ri + 1, Vec::new());
            }
            if fp.writes.contains(r) {
                last_writer[ri] = Some(index);
                readers_since[ri].clear();
            } else {
                readers_since[ri].push(index);
            }
        }
        match step {
            Step::Halt => {
                status[i] = Status::Done;
            }
            Step::Internal => procs[i].advance(OpResult::None),
            Step::Op(op) => {
                let result = mem.apply(&op)?;
                procs[i].advance(result);
            }
        }
        out.events.push(CausalEvent {
            index,
            pid,
            clock,
            footprint: fp,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{Layout, Op, Value};

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Toggler {
        reg: RegisterId,
        pc: u8,
        write: bool,
    }

    impl Process for Toggler {
        fn current(&self) -> Step {
            match self.pc {
                0 if self.write => Step::Op(Op::Write(self.reg, Value::ONE)),
                0 => Step::Op(Op::Read(self.reg)),
                _ => Step::Halt,
            }
        }
        fn advance(&mut self, _r: OpResult) {
            self.pc += 1;
        }
    }

    fn setup(write: [bool; 2], same_reg: bool) -> (Memory, Vec<Toggler>) {
        let mut layout = Layout::new();
        let a = layout.bit("a", false);
        let b = layout.bit("b", false);
        let memory = Memory::new(layout, 1).unwrap();
        let regs = [a, if same_reg { a } else { b }];
        let procs = (0..2)
            .map(|i| Toggler {
                reg: regs[i],
                pc: 0,
                write: write[i],
            })
            .collect();
        (memory, procs)
    }

    fn steps(pids: &[u32]) -> Vec<ScheduleStep> {
        pids.iter()
            .map(|p| ScheduleStep::Step(ProcessId::new(*p)))
            .collect()
    }

    #[test]
    fn write_read_same_register_is_ordered() {
        let (memory, procs) = setup([true, false], true);
        let tc = trace_causality(memory, procs, &steps(&[0, 1])).unwrap();
        assert_eq!(tc.events.len(), 2);
        assert!(tc.happens_before(0, 1));
        assert!(!tc.happens_before(1, 0));
        assert_eq!(tc.conflicts.len(), 1);
        assert_eq!((tc.conflicts[0].from, tc.conflicts[0].to), (0, 1));
    }

    #[test]
    fn disjoint_registers_are_concurrent() {
        let (memory, procs) = setup([true, true], false);
        let tc = trace_causality(memory, procs, &steps(&[0, 1])).unwrap();
        assert!(tc.conflicts.is_empty());
        assert!(tc.events[0].clock.concurrent_with(&tc.events[1].clock));
        assert!(!tc.happens_before(0, 1) && !tc.happens_before(1, 0));
    }

    #[test]
    fn reads_do_not_race_each_other() {
        let (memory, procs) = setup([false, false], true);
        let tc = trace_causality(memory, procs, &steps(&[0, 1])).unwrap();
        assert!(tc.conflicts.is_empty());
        assert!(tc.events[0].clock.concurrent_with(&tc.events[1].clock));
    }

    #[test]
    fn program_order_is_always_happens_before() {
        let (memory, procs) = setup([true, true], false);
        // p0 writes then halts: two events of the same process.
        let tc = trace_causality(memory, procs, &steps(&[0, 0, 1])).unwrap();
        assert!(tc.happens_before(0, 1));
        assert_eq!(tc.events[1].pid, ProcessId::new(0));
        assert!(tc.events[1].footprint.is_local());
    }

    #[test]
    fn drop_races_on_hides_exactly_that_register() {
        let (memory, procs) = setup([true, false], true);
        let reg = procs[0].reg;
        let tc =
            with_races_dropped_on(reg, || trace_causality(memory, procs, &steps(&[0, 1]))).unwrap();
        assert!(
            tc.conflicts.is_empty(),
            "the race through {reg} must vanish"
        );
        assert!(!tc.happens_before(0, 1));
        // The same hook drives the sleep predicate, and only while armed.
        let w = Footprint::of_op(&Op::Write(reg, Value::ONE), &Layout::new());
        assert!(!with_races_dropped_on(reg, || observed_conflict(&w, &w)));
        assert!(observed_conflict(&w, &w));
    }

    /// The planted mutant lives in the *verifier*: with
    /// [`with_races_dropped_on`] armed, the sleep-set machinery drops
    /// every observed conflict that goes through one register — the
    /// classic dynamic-POR bug of an incomplete independence relation. No
    /// single run can expose it (each explored interleaving is still
    /// executed faithfully); only comparing verdicts across may-access
    /// modes can.
    #[test]
    fn conflict_under_reporting_is_killed_only_by_the_dynamic_differential() {
        use crate::analysis::MayAccessMode::{Automaton, Declared, Dynamic};
        use crate::checks::check_mutex_safety;
        use crate::explore::{replay, ExploreConfig, ExploreError};
        use cfc_core::Section;
        use cfc_mutex::mutation::BakeryMutation;
        use cfc_mutex::{Bakery, MutexAlgorithm};

        // The victim: the doorway-less bakery for two, whose mutual-
        // exclusion violation needs a particular race on `number[1]`
        // (register 3 of the layout: `choosing[0..2]`, then
        // `number[0..2]`). Hiding that register lets the sleep sets prune
        // exactly the interleaving that reaches two occupants.
        let hidden = RegisterId::new(3);
        let mutant = || Bakery::new(2).with_mutation(BakeryMutation::DropDoorway);
        let config = |mode| {
            ExploreConfig {
                max_states: 400_000,
                por: true,
                ..ExploreConfig::default()
            }
            .with_may_access(mode)
        };
        // A reported violation must replay to two critical-section
        // occupants — the checker's claim, re-established without it.
        let assert_two_in_critical = |r: Result<_, ExploreError>| {
            let Err(ExploreError::Violation(v)) = r else {
                panic!("expected a violation, got {r:?}");
            };
            let clients = (0..2)
                .map(|i| mutant().client_with_cs(ProcessId::new(i), 1, 1))
                .collect();
            let replayed = replay(mutant().memory().unwrap(), clients, &v.schedule).unwrap();
            let in_cs = replayed
                .procs
                .iter()
                .filter(|c| c.section() == Some(Section::Critical))
                .count();
            assert_eq!(in_cs, 2, "replayed state must exhibit the violation");
        };

        // Both static modes never consult the observed-conflict relation,
        // so the hook is inert there: the violation is found and replays.
        for mode in [Declared, Automaton] {
            let r =
                with_races_dropped_on(hidden, || check_mutex_safety(&mutant(), 1, config(mode)));
            assert_two_in_critical(r);
        }
        // The *sound* dynamic mode also finds it.
        assert_two_in_critical(check_mutex_safety(&mutant(), 1, config(Dynamic)));

        // The under-reporting dynamic mode misses the violation entirely —
        // the kill is the verdict *disagreement* with the static oracles
        // above, exactly what the oracle matrix asserts can never happen
        // with the hook unarmed.
        with_races_dropped_on(hidden, || check_mutex_safety(&mutant(), 1, config(Dynamic))).expect(
            "the under-reporting mutant must survive its own unsound exploration \
             (if this fails, the mutant stopped being a differential-only kill)",
        );

        // And no false alarms: the honest bakery passes every mode with
        // the hook armed — the mutant is killed by the differential and
        // nothing else.
        for mode in [Declared, Automaton, Dynamic] {
            with_races_dropped_on(hidden, || {
                check_mutex_safety(&Bakery::new(2), 1, config(mode))
            })
            .unwrap();
        }
    }

    #[test]
    fn tolerant_replay_skips_dead_processes() {
        let (memory, procs) = setup([true, true], false);
        let mut sched = vec![ScheduleStep::Crash(ProcessId::new(0))];
        sched.extend(steps(&[0, 0, 1, 7]));
        let tc = trace_causality(memory, procs, &sched).unwrap();
        // Only p1's write became an event: p0 was crashed, pid 7 is out
        // of range.
        assert_eq!(tc.events.len(), 1);
        assert_eq!(tc.events[0].pid, ProcessId::new(1));
    }

    #[test]
    fn sleep_table_prunes_supersets_and_shrinks_monotonically() {
        let mut t = SleepTable::new();
        t.record_fresh(0, 0b0110);
        // Sleeping a superset of the stored mask is covered — prune.
        assert_eq!(t.revisit(0, 0b0110), None);
        assert_eq!(t.revisit(0, 0b1110), None);
        // A visit that wakes a stored bit must re-expand, and the
        // stored mask shrinks to the intersection.
        assert_eq!(t.revisit(0, 0b0100), Some(0b0100));
        assert_eq!(t.revisit(0, 0b0110), None, "0b0100 ⊆ 0b0110 now covered");
        assert_eq!(t.revisit(0, 0b0000), Some(0b0000));
        // Everything is covered once the mask hits zero.
        assert_eq!(t.revisit(0, 0b1111), None);
        assert!(t.heap_bytes() >= 4);
    }

    #[test]
    fn sleep_gate_requires_every_condition() {
        assert!(sleep_sets_active(true, true, true, false, 0, 3));
        for bad in [
            sleep_sets_active(false, true, true, false, 0, 3),
            sleep_sets_active(true, false, true, false, 0, 3),
            sleep_sets_active(true, true, false, false, 0, 3),
            sleep_sets_active(true, true, true, true, 0, 3),
            sleep_sets_active(true, true, true, false, 1, 3),
            sleep_sets_active(true, true, true, false, 0, MAX_SLEEP_PROCS + 1),
        ] {
            assert!(!bad);
        }
    }
}

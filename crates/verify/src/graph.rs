//! The shared state-graph engine and the **unified traversal driver**
//! behind every exhaustive checker.
//!
//! All three search drivers in this crate — the DFS safety explorer
//! ([`crate::explore::explore`]), the BFS progress checker
//! ([`crate::explore::check_progress`]), and the fair-cycle liveness
//! builder in [`crate::liveness`] — walk the same state graph: global
//! states (process local states, register values, liveness statuses,
//! remaining crash budget) connected by process steps and crash
//! transitions. This module owns everything they share so the graph
//! semantics cannot drift apart:
//!
//! * [`Node`] — the global-state representation the safety checks read,
//!   holding its own [`Memory`] — and the one successor step, on
//!   [`Working`] states (a record unpacked into reused buffers, local
//!   states as slots of the store's table): `GraphBuilder::successor`
//!   steps or crashes a working state and normalizes the result. A step
//!   goes through the store's kernel ([`NodeStore::step`]): the
//!   memory-and-status half of the model's step rule
//!   ([`cfc_core::step_effect`], which the executor and the replayer also
//!   run through [`cfc_core::apply_step`]), then the transition memo for
//!   the stepping process's new slot. [`GraphBuilder::expand`] fills one
//!   reused successor buffer through it, and ample selection reads each
//!   slot's cached step, footprint, section, output and future set.
//!   [`GraphBuilder::walk`] re-derives witness hops read-only, stepping
//!   materialized nodes by [`cfc_core::apply_step`];
//! * the orbit order under a [`SymmetryGroup`]: [`state_fingerprint`]
//!   orders interchangeable processes, and [`canonicalize`] builds the
//!   representative node. The traversals never call it: they hand
//!   concrete working states to the [`NodeStore`], which sorts cached
//!   per-slot fingerprints to key each state by the same representative (see
//!   `crate::store`). `canonicalize` stays as the reference the store is
//!   tested against and behind the public `canonical_key`;
//! * ample-set selection for partial-order reduction, parameterized by
//!   [`AmpleMode`]: the safety explorer needs the full C1–C3 conditions,
//!   while progress checking can drop the invisibility condition C2
//!   (quiescence is a property of the graph, not of the per-state
//!   observation) and instead relies on the *fresh-successor* proviso —
//!   see the soundness notes on [`AmpleMode::Progress`];
//! * [`GraphBuilder`] — the one traversal type: the memory template, one
//!   [`ExploreConfig`] (budgets, crash budget, reduction switches), and a
//!   [`TraversalSpec`] holding only what the callers vary (ample mode,
//!   symmetry group, state normalizer, service predicate). The safety and
//!   progress checkers take the classes of processes that start
//!   identical ([`SymmetryGroup::of_identical`]); the liveness checker
//!   takes its victims' stabilizers of those classes. The ample mode
//!   fixes the rest. [`AmpleMode::Safety`] runs the DFS
//!   ([`GraphBuilder::run_dfs`]), which memoizes concrete states keyed
//!   canonically at pop time, invokes per-state checks, keeps the
//!   schedule to the popped state in one path vector, and records no
//!   graph; it materializes a node only for each successor it pushes.
//!   The progress and liveness modes run the BFS
//!   ([`GraphBuilder::build_graph`]), which expands every node straight
//!   from its record, interns one canonical representative per orbit and
//!   returns the labeled [`BuiltGraph`], whose terminals are the nodes
//!   sealed with no edge. Under symmetry
//!   the progress BFS expands the runnable processes in an order no pid
//!   decides (local state, then start state), so its POR graph is the
//!   same for every permutation of the processes.
//!   Both loops return [`ExploreStats`], and every witness schedule is
//!   re-derived concretely along a built graph by [`GraphBuilder::walk`].
//!   The interning discipline, crash branching, budget accounting, and
//!   reduction bookkeeping live here exactly once.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cfc_core::{apply_step, Footprint, Memory, Process, ProcessId, Status, Step, SymmetryGroup};

use crate::analysis::{FutureIndex, MayAccessMode};
use crate::csr::EdgeArena;
pub(crate) use crate::csr::GEdge;
use crate::dynamic::{observed_conflict, sleep_sets_active, SleepTable};
use crate::explore::{
    ExploreConfig, ExploreError, ExploreStats, ScheduleStep, StateView, Violation,
};
use crate::liveness::NormalizeFn;
use crate::store::{NodeStore, VisitOutcome, Working};
use crate::telemetry::{self, Phase, Snapshot, StoreFootprint, Telemetry};

/// A global state of the explored system, with its processes whole: the
/// form the safety DFS's stack and per-state checks hold, and the form a
/// [`Working`] state materializes into. The derives compare and hash the
/// memory by its register values alone (the layout is shared by every
/// node of a traversal).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Node<P> {
    /// Process local states, indexed by pid.
    pub(crate) procs: Vec<P>,
    /// The shared memory.
    pub(crate) memory: Memory,
    /// Per-process liveness statuses.
    pub(crate) status: Vec<Status>,
    /// How many crash transitions the adversary may still inject.
    pub(crate) crashes_left: u32,
}

/// The fingerprint used to canonically order interchangeable processes:
/// the process's own [`Process::fingerprint`] if it provides one, a hash
/// of its full state otherwise, mixed with its liveness status.
pub(crate) fn state_fingerprint<P: Process + Hash>(p: &P, status: Status) -> u64 {
    let mut h = DefaultHasher::new();
    match p.fingerprint() {
        Some(fp) => fp.hash(&mut h),
        None => p.hash(&mut h),
    }
    status.hash(&mut h);
    h.finish()
}

pub(crate) fn full_hash<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// The orbit representative of a node: within every symmetry class, the
/// (local state, status) pairs are rearranged into fingerprint order.
/// This is the reference form, behind the public `canonical_key` and the
/// store's unit tests; the traversals reach the same representative
/// through the [`NodeStore`], which sorts fingerprints it cached per
/// interned local state instead of cloning the node and re-hashing.
///
/// Sorting is *stable*, so fingerprint collisions between distinct local
/// states can only forfeit a merge, never create an unsound one: two
/// nodes canonicalize equally iff they are genuine class-respecting
/// permutations of one another.
pub(crate) fn canonicalize<P: Process + Clone + Hash>(
    node: &Node<P>,
    group: &SymmetryGroup,
) -> Node<P> {
    let mut canon = node.clone();
    for class in group.classes() {
        let mut order: Vec<usize> = class.clone();
        order.sort_by_key(|&i| state_fingerprint(&node.procs[i], node.status[i]));
        for (&dst, &src) in class.iter().zip(order.iter()) {
            if dst != src {
                canon.procs[dst] = node.procs[src].clone();
                canon.status[dst] = node.status[src];
            }
        }
    }
    canon
}

/// Which property the search preserves — this decides how aggressive the
/// ample-set selection may be, and which loop runs: the safety mode runs
/// the DFS, which records no graph; the progress and liveness modes run
/// the BFS, which records labeled edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AmpleMode {
    /// Per-state observations (sections and outputs) must be preserved up
    /// to stuttering: the classical conditions C1 (independence), C2
    /// (invisibility), and C3 (cycle proviso) all apply. Used by the DFS
    /// safety explorer.
    Safety,
    /// Only *reachability of quiescence* must be preserved, in both
    /// directions. The invisibility condition C2 is dropped — quiescence
    /// is a property of the graph shape, not of sections or outputs, so a
    /// visible step is as good an ample candidate as an invisible one.
    ///
    /// Soundness (sketch; the full argument is in the README):
    ///
    /// * *No false alarms.* Ample sets here are singletons, and C1 makes
    ///   the ample step independent of every step any other running
    ///   process can ever take, so it commutes with any path to
    ///   quiescence: if a state can quiesce in the full graph, its single
    ///   ample successor still can, by induction on the path length.
    /// * *No missed violations.* The fresh-successor proviso (the ample
    ///   successor must never have been seen) guarantees every cycle of
    ///   the reduced graph contains a fully expanded state, so no enabled
    ///   transition is deferred forever: any full-graph run can be
    ///   mimicked, up to commuting deferred ample steps past it, by a
    ///   reduced run reaching a state from which the original state's
    ///   fate (stuck or not) is unchanged.
    Progress,
    /// Fair infinite behaviors (lassos) must be preserved: the liveness
    /// checker hunts cycles in which a pending process is overtaken
    /// forever, observing sections, outputs, **and statuses** at every
    /// state of the loop. Invisibility is therefore *strict* — unlike
    /// [`AmpleMode::Safety`], a `Halt` step does not qualify (it changes
    /// the stepping process's status, which the fairness analysis reads)
    /// — and the cycle-closing condition C3 is kept verbatim: an ample
    /// successor must be fresh, so every cycle of the reduced graph
    /// contains a fully expanded state and no process's steps (in
    /// particular, no self-looping spin of a starved victim) are pruned
    /// from every state of a cycle. Fair lassos reported on the reduced
    /// graph are re-derived concretely and validated step by step, so a
    /// `Starvable` verdict never rests on the reduction; a
    /// starvation-free verdict additionally leans on the differential
    /// suite in `tests/liveness.rs` (see the README's "when to trust a
    /// verdict" notes).
    Liveness,
}

impl AmpleMode {
    /// The telemetry phase the traversal's span and snapshots are
    /// attributed to (the BFS serves both the progress checker and the
    /// liveness graph builder; the phase tells them apart).
    fn phase(self) -> Phase {
        match self {
            AmpleMode::Safety => Phase::SafetyDfs,
            AmpleMode::Progress => Phase::ProgressBfs,
            AmpleMode::Liveness => Phase::LivenessGraph,
        }
    }
}

/// The successor buffer [`GraphBuilder::expand`] fills, in push order:
/// each decision with its normalized working successor. Entries past
/// `len` keep their buffers, so once the buffer has grown to the widest
/// expansion a refill allocates nothing.
#[derive(Default)]
struct Successors {
    buf: Vec<(ScheduleStep, Working)>,
    len: usize,
}

impl Successors {
    fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends `decision` with a copy of `from`, returned for stepping.
    fn push(&mut self, decision: ScheduleStep, from: &Working) -> &mut Working {
        if self.len == self.buf.len() {
            self.buf.push((decision, from.clone()));
        } else {
            let entry = &mut self.buf[self.len];
            entry.0 = decision;
            entry.1.clone_from(from);
        }
        self.len += 1;
        &mut self.buf[self.len - 1].1
    }

    /// Drops the last entry, keeping its buffers.
    fn pop(&mut self) {
        self.len -= 1;
    }

    fn last(&self) -> &Working {
        &self.buf[self.len - 1].1
    }

    fn as_slice(&self) -> &[(ScheduleStep, Working)] {
        &self.buf[..self.len]
    }
}

/// A borrowed service predicate over the stepping process's
/// `(before, after)` local states.
pub(crate) type ServedFn<'a, P> = &'a dyn Fn(&P, &P) -> bool;

/// What the callers of one [`GraphBuilder`] traversal set differently.
/// Everything else follows from the ample mode (search order, edge
/// recording, telemetry phase) or from the [`ExploreConfig`] (budgets,
/// crash budget, reduction switches).
pub(crate) struct TraversalSpec<'a, P> {
    /// Which ample-set conditions partial-order reduction must respect;
    /// also picks the loop (see [`AmpleMode`]).
    pub(crate) ample_mode: AmpleMode,
    /// The symmetry group canonical visited keys are computed under when
    /// [`ExploreConfig::symmetry`] is on, over the traversal's processes.
    pub(crate) symmetry: SymmetryGroup,
    /// Optional behavioral-quotient normalizer applied to the root and to
    /// every successor before interning (see
    /// `cfc_mutex::StateNormalizer` for the bisimulation contract).
    /// Partial-order reduction is force-disabled while one is active —
    /// the ample bookkeeping cannot see through the abstraction — and
    /// reported schedules replay *modulo* the quotient: same sections,
    /// outputs, and statuses, not necessarily byte-equal register values.
    pub(crate) normalizer: Option<NormalizeFn<'a, P>>,
    /// Optional service predicate `(before, after)` on the stepping
    /// process, recorded on forward edges ([`GEdge::served`]); only
    /// meaningful for the BFS, which records edges.
    pub(crate) served: Option<ServedFn<'a, P>>,
}

/// The canonical state graph a BFS traversal produces: one interned
/// representative per orbit (held packed in the [`NodeStore`]), labeled
/// forward edges in CSR form, and the creator tree. A node is quiescent
/// (terminal) exactly when it was sealed with no edge: a running process
/// always has a step successor.
pub(crate) struct BuiltGraph<P> {
    /// Canonical orbit representatives in discovery (BFS) order, one
    /// single-copy record per orbit; decode on demand via
    /// [`NodeStore::node`].
    pub(crate) store: NodeStore<P>,
    /// Labeled forward edges in CSR form, packed 6 bytes each in a
    /// segmented arena.
    pub(crate) edges: EdgeArena,
    /// The node that first generated each node (`u32::MAX` at the root);
    /// always strictly smaller than its child, so creator chains
    /// terminate at the root — the predecessor tree schedules are
    /// reconstructed from.
    pub(crate) first_pred: Vec<u32>,
}

impl<P> BuiltGraph<P> {
    /// The number of interned nodes.
    pub(crate) fn len(&self) -> usize {
        self.first_pred.len()
    }

    /// The creator-tree path from the root to node `id`, root-first and
    /// root excluded (empty for the root itself).
    pub(crate) fn creator_path(&self, id: u32) -> Vec<u32> {
        let mut path = Vec::new();
        let mut cur = id;
        while cur != 0 {
            path.push(cur);
            cur = self.first_pred[cur as usize];
        }
        path.reverse();
        path
    }

    /// Exact store, index, and edge bytes.
    fn footprint(&self) -> StoreFootprint {
        StoreFootprint {
            arena_bytes: self.store.arena_bytes(),
            index_bytes: self.store.index_bytes(),
            edge_bytes: self.edges.heap_bytes(),
        }
    }
}

impl<P> std::fmt::Debug for BuiltGraph<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltGraph")
            .field("nodes", &self.len())
            .field("edges", &self.edges.total_edges())
            .finish()
    }
}

/// Filters a sleep mask after a step with footprint `taken` fires at
/// `cur`: every sleeping process whose next step races with the taken
/// step wakes up (its deferred step no longer commutes past the trace).
/// Bits of processes that are not runnable are dropped defensively —
/// they cannot arise, since a process's status only changes on its own
/// steps and crash budgets disable sleeping. Each process's footprint is
/// its slot's cached one.
fn wake_conflicting<P: Process + Clone + Eq + Hash>(
    mask: u32,
    cur: &Working,
    store: &NodeStore<P>,
    taken: &Footprint,
) -> u32 {
    let mut out = 0u32;
    let mut rest = mask;
    while rest != 0 {
        let p = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        if p < cur.slots.len()
            && cur.status[p].runnable()
            && !observed_conflict(&store.info(cur.slots[p]).footprint, taken)
        {
            out |= 1 << p;
        }
    }
    out
}

/// The unified traversal driver: the memory template, one
/// [`ExploreConfig`], and a [`TraversalSpec`], running the one canonical
/// search loop every checker in this crate is a client of. The store it
/// builds per traversal is also its successor kernel
/// ([`NodeStore::step`]).
pub(crate) struct GraphBuilder<'a, P> {
    template: Memory,
    /// The caller's configuration, with the state budget clamped to
    /// `MAX_STATES` and `por` cleared when the spec carries a normalizer
    /// (the ample bookkeeping cannot see through the abstraction —
    /// asserted by the driver edge-case suite).
    config: ExploreConfig,
    spec: TraversalSpec<'a, P>,
    /// Whether symmetry reduction is effective (enabled and non-trivial).
    use_sym: bool,
    /// The processes a normalizer rewrites, materialized from a working
    /// state into this reused buffer.
    procs: Vec<P>,
}

impl<P> std::fmt::Debug for GraphBuilder<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphBuilder")
            .field("ample_mode", &self.spec.ample_mode)
            .field("normalizer", &self.spec.normalizer.is_some())
            .field("served", &self.spec.served.is_some())
            .field("config", &self.config)
            .finish()
    }
}

/// The largest effective state budget. Store ids are `u32`, and the
/// arena and the open index reserve `u32::MAX`; under this budget the
/// driver's own check reports [`ExploreError::StateBudget`] before either
/// ceiling is reached.
const MAX_STATES: usize = u32::MAX as usize - 1;

impl<'a, P: Process + Clone + Eq + Hash> GraphBuilder<'a, P> {
    /// Builds a driver for `n` processes over `memory`. A state budget
    /// above `MAX_STATES` is clamped to it.
    pub(crate) fn new(
        memory: Memory,
        config: ExploreConfig,
        spec: TraversalSpec<'a, P>,
        n: usize,
    ) -> Self {
        GraphBuilder {
            template: memory,
            config: ExploreConfig {
                max_states: config.max_states.min(MAX_STATES),
                por: config.por && spec.normalizer.is_none(),
                ..config
            },
            use_sym: config.symmetry && !spec.symmetry.is_trivial(),
            spec,
            procs: Vec::with_capacity(n),
        }
    }

    /// The initial node — all processes running, a copy of the template
    /// memory, the configured crash budget — normalized.
    pub(crate) fn root(&self, procs: Vec<P>) -> Node<P> {
        let mut root = Node {
            status: vec![Status::Running; procs.len()],
            memory: self.template.clone(),
            procs,
            crashes_left: self.config.max_crashes,
        };
        if let Some(f) = self.spec.normalizer {
            f(&mut root.procs, root.memory.values_mut());
        }
        root
    }

    /// Whether this driver explores a symmetry quotient (reduction on,
    /// group non-trivial): one representative per orbit, so its edge
    /// labels are slots, not pids.
    pub(crate) fn is_quotient(&self) -> bool {
        self.use_sym
    }

    /// Pushes the successor of `cur` under `decision` onto `out`,
    /// normalized: the process takes its next step through the store's
    /// kernel ([`NodeStore::step`]), or the adversary crashes it, which
    /// changes only its status and the crash budget. The one place the
    /// driver steps or crashes a state.
    fn successor(
        &mut self,
        store: &mut NodeStore<P>,
        out: &mut Successors,
        cur: &Working,
        decision: ScheduleStep,
    ) -> Result<(), ExploreError> {
        let i = decision.pid().index();
        let next = out.push(decision, cur);
        match decision {
            ScheduleStep::Crash(_) => {
                next.status[i] = Status::Crashed;
                next.crashes_left -= 1;
            }
            ScheduleStep::Step(_) => store.step(next, i)?,
        }
        if let Some(f) = self.spec.normalizer {
            store.normalize(next, &mut self.procs, f)?;
        }
        Ok(())
    }

    /// A store for states shaped like `root`, keyed canonically under
    /// the spec's symmetry group when the reduction is effective, whose
    /// per-slot caches read their future sets from `future`.
    fn new_store(
        &self,
        root: &Node<P>,
        track_firsts: bool,
        future: Option<FutureIndex<P>>,
    ) -> NodeStore<P> {
        let classes = if self.use_sym {
            self.spec.symmetry.classes().to_vec()
        } else {
            Vec::new()
        };
        NodeStore::new(root, classes, track_firsts, future)
    }

    /// Opens a traversal: builds the future-access index under its own
    /// nested span when the configuration asks for automaton-derived
    /// future sets (both the static automaton mode and the dynamic mode
    /// build on it; meaningful only with partial-order reduction on), and
    /// returns it with the normalized root. The span counts the index's
    /// entries as its states and its unanalyzable processes as its
    /// transitions, as the lint span counts its findings.
    fn prepare(&self, tel: &Telemetry, procs: Vec<P>) -> (Node<P>, Option<FutureIndex<P>>) {
        let mut future = None;
        if self.config.por && self.config.may_access != MayAccessMode::Declared {
            let auto_span = tel.span(Phase::ExtractAutomaton);
            let index = FutureIndex::build(self.template.layout(), &procs);
            auto_span.finish(Snapshot {
                states: index.len() as u64,
                transitions: index.findings().len() as u64,
                ..Snapshot::default()
            });
            future = Some(index);
        }
        (self.root(procs), future)
    }

    /// Fills `out` with the successors of `cur` (whose runnable
    /// processes are `runnable`) in push order, and returns whether it
    /// holds a single ample successor. Otherwise it holds the full enabled
    /// set: each runnable process's crash successor (while crashes
    /// remain), then its step successor.
    ///
    /// `store` is the traversal's store, which steps the processes and
    /// answers whether a successor's orbit has already been seen, for the
    /// cycle/fresh-successor proviso. Crash branching disables the
    /// reduction at any state that can still crash (a crash commutes with
    /// nothing its victim would do).
    fn expand(
        &mut self,
        cur: &Working,
        runnable: &[usize],
        store: &mut NodeStore<P>,
        out: &mut Successors,
    ) -> Result<bool, ExploreError> {
        out.clear();
        if self.config.por
            && cur.crashes_left == 0
            && runnable.len() > 1
            && self.select_ample(cur, runnable, store, out)?
        {
            return Ok(true);
        }
        for &i in runnable {
            let pid = ProcessId::new(i as u32);
            if cur.crashes_left > 0 {
                self.successor(store, out, cur, ScheduleStep::Crash(pid))?;
            }
            self.successor(store, out, cur, ScheduleStep::Step(pid))?;
        }
        Ok(false)
    }

    /// Selects an ample process at `cur` and leaves its successor as the
    /// one entry of `out`, or returns `false` (with `out` empty) when the
    /// state must be fully expanded. Everything a candidate is judged by
    /// — its step, footprint, section, output and future-access set, and
    /// the other processes' future sets — is read from the slots' cached
    /// [`SlotInfo`](crate::store::SlotInfo).
    ///
    /// A candidate `i` is ample when its next step is
    /// 1. independent of every step any *other* running process can ever
    ///    take — trivially so for local (`Internal`/`Halt`) steps, and via
    ///    disjointness of the op footprint from the others'
    ///    [`Process::may_access`] over-approximations otherwise (an
    ///    unknown over-approximation disqualifies the candidate);
    /// 2. under [`AmpleMode::Safety`] only, invisible: the stepping
    ///    process's section and output are unchanged (halting changes
    ///    only the liveness status, which `state_check` must not read
    ///    under reduction — see the `explore` module docs);
    /// 3. fresh: its successor has not been visited yet. For the DFS this
    ///    is the classical C3 cycle proviso; for the BFS progress graph
    ///    it is the strengthened fresh-successor proviso — either way,
    ///    every cycle of the reduced graph contains a fully expanded
    ///    state, so no transition is ignored forever.
    fn select_ample(
        &mut self,
        cur: &Working,
        runnable: &[usize],
        store: &mut NodeStore<P>,
        out: &mut Successors,
    ) -> Result<bool, ExploreError> {
        // Under `MayAccessMode::Automaton` the per-location sets of the
        // solo control automata take precedence in each slot's `may`
        // (sharper and known for more states); any state the index cannot
        // resolve carries the declared hook's set instead.
        let dynamic = self.config.may_access == MayAccessMode::Dynamic;
        'candidates: for &i in runnable {
            let info = store.info(cur.slots[i]);
            // Condition 1: independence with all concurrent futures.
            if matches!(info.step, Step::Op(_)) {
                for &j in runnable {
                    if j == i {
                        continue;
                    }
                    let other = store.info(cur.slots[j]);
                    // Dynamic mode sharpens C1 where the automaton keeps
                    // the read/write split of the future fixpoint: the
                    // candidate's step must be *independent* of every
                    // future access of `j` — a merely shared future
                    // *read* no longer disqualifies. Sound because
                    // independence against the union of a process's
                    // future footprints implies pairwise independence
                    // with each future step.
                    if dynamic {
                        if let Some(split) = &other.split {
                            if info.footprint.independent(split) {
                                continue;
                            }
                            continue 'candidates;
                        }
                    }
                    match &other.may {
                        Some(set) if !info.footprint.touches(set) => {}
                        _ => continue 'candidates,
                    }
                }
            }
            let halt = matches!(info.step, Step::Halt);
            self.successor(
                store,
                out,
                cur,
                ScheduleStep::Step(ProcessId::new(i as u32)),
            )?;
            let succ = out.last();
            // Condition 2: invisibility of the step — required whenever
            // per-state observations must be preserved. Safety checks
            // never read liveness statuses under reduction, so `Halt`
            // steps are exempt there; the liveness analysis reads them,
            // so under `Liveness` a `Halt` step is visible by definition.
            let (before, after) = (store.info(cur.slots[i]), store.info(succ.slots[i]));
            let visible = after.section != before.section || after.output != before.output;
            let hidden = match self.spec.ample_mode {
                AmpleMode::Safety => halt || !visible,
                AmpleMode::Liveness => !halt && !visible,
                AmpleMode::Progress => true,
            };
            // Condition 3: the cycle / fresh-successor proviso, on the
            // successor's orbit (the store canonicalizes it).
            if !hidden || store.contains(succ) {
                out.pop();
                continue 'candidates;
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Depth-first traversal with per-state property checks — the safety
    /// explorer's loop, byte-identical to its historical search order:
    /// states are memoized at pop time (keyed canonically under the
    /// spec's symmetry group), `state_check` runs in every reachable
    /// state, `terminal_check` in every quiescent one, and violations
    /// carry the schedule that reached them: one path vector, cut back
    /// to the popped entry's parent and extended by its decision at
    /// every pop, so a push allocates nothing.
    ///
    /// The stack holds nodes, which the checks read. A popped node's
    /// working state is built from the slots its visit resolves, the
    /// kernel expands that, and only the successors pushed are
    /// materialized back into nodes: a slept one never is.
    ///
    /// # Errors
    ///
    /// The first violation found, state-budget exhaustion, or a memory
    /// error.
    pub(crate) fn run_dfs<FS, FT>(
        &mut self,
        procs: Vec<P>,
        mut state_check: FS,
        mut terminal_check: FT,
    ) -> Result<ExploreStats, ExploreError>
    where
        FS: FnMut(&StateView<'_, P>) -> Result<(), String>,
        FT: FnMut(&StateView<'_, P>) -> Result<(), String>,
    {
        let mode = self.spec.ample_mode;
        debug_assert_eq!(mode, AmpleMode::Safety, "the DFS is the safety loop");
        let n = procs.len();
        let tel = telemetry::runtime();
        let mut span = tel.span(mode.phase());
        let (root, future) = self.prepare(&tel, procs);
        // Sleep-set pruning rides only on the safety DFS under dynamic
        // mode, concretely (no symmetry), crash-free, and within mask
        // width — see `crate::dynamic` for why each boundary is
        // load-bearing.
        let sleep_on = sleep_sets_active(
            self.config.por,
            self.config.may_access == MayAccessMode::Dynamic,
            self.use_sym,
            self.config.max_crashes,
            n,
        );
        let mut sleep = SleepTable::new();

        // Visited canonical states, held single-copy in the packed store,
        // which canonicalizes the concrete states it is handed. With
        // symmetry on, each entry also tracks the identity of the
        // concrete state that first reached it — that lets the
        // orbit-merge counter tell a merge with a permuted sibling apart
        // from a plain revisit, by exact comparison (a hash could
        // collide and miscount).
        let mut visited = self.new_store(&root, self.use_sym, future);
        let footprint = |visited: &NodeStore<P>, sleep: &SleepTable| StoreFootprint {
            arena_bytes: visited.arena_bytes(),
            index_bytes: visited.index_bytes() + sleep.heap_bytes() as u64,
            edge_bytes: 0,
        };
        let mut stats = ExploreStats::default();
        // DFS stack: (node, depth, decision, sleep mask). The depth counts
        // the steps from the root and the decision is the last of them
        // (`None` at the root). Every entry popped between a node and one
        // of its children descends from that node, so one schedule
        // vector, cut back to the popped entry's parent and extended by
        // its decision, is the schedule that reached the popped node.
        // The mask (bit per pid; always 0 when sleeping is off) names the
        // processes whose next step out of this node is covered by an
        // already-pushed sibling branch.
        let mut stack: Vec<(Node<P>, u32, Option<ScheduleStep>, u32)> = vec![(root, 0, None, 0)];
        let mut path: Vec<ScheduleStep> = Vec::new();
        // Buffers reused across states: the popped node's working state,
        // the runnable processes, and the successors `expand` fills.
        let mut cur = visited.blank();
        let mut runnable = Vec::with_capacity(n);
        let mut succs = Successors::default();

        while let Some((node, depth, decision, mut mask)) = stack.pop() {
            path.truncate(depth.saturating_sub(1) as usize);
            path.extend(decision);
            visited.resolve(&node, &mut cur)?;
            let (id, outcome) = visited.visit(&cur);
            // A revisit normally ends the branch. With sleeping on, a
            // revisit that sleeps *fewer* processes than every earlier
            // visit covered must re-expand the state (without re-counting
            // or re-checking it) — the stored mask shrinks strictly each
            // time, so this terminates.
            let fresh = match outcome {
                VisitOutcome::Fresh => {
                    if sleep_on {
                        sleep.record_fresh(id, mask);
                    }
                    true
                }
                VisitOutcome::RevisitSame | VisitOutcome::RevisitMerged => {
                    if outcome == VisitOutcome::RevisitMerged {
                        stats.orbits_merged += 1;
                    }
                    if !sleep_on {
                        continue;
                    }
                    match sleep.revisit(id, mask) {
                        None => continue,
                        Some(narrowed) => {
                            mask = narrowed;
                            false
                        }
                    }
                }
            };
            runnable.clear();
            runnable.extend((0..n).filter(|&i| cur.status[i].runnable()));
            if fresh {
                stats.states += 1;
                if stats.states > self.config.max_states {
                    return Err(ExploreError::StateBudget(stats.states));
                }
                span.tick(|| Snapshot {
                    frontier: stack.len() as u64,
                    depth: u64::from(depth),
                    footprint: footprint(&visited, &sleep),
                    ..stats.sample()
                });
                let view = StateView {
                    procs: &node.procs,
                    status: &node.status,
                    memory: &node.memory,
                };
                let violation = |message| {
                    ExploreError::Violation(Box::new(Violation {
                        schedule: path.clone(),
                        message,
                    }))
                };
                state_check(&view).map_err(violation)?;
                // Terminals have no transitions to re-cover; count and
                // check them on the first visit only.
                if runnable.is_empty() {
                    stats.terminals += 1;
                    terminal_check(&view).map_err(violation)?;
                }
            }
            if runnable.is_empty() {
                continue;
            }

            if self.expand(&cur, &runnable, &mut visited, &mut succs)? {
                stats.states_pruned_por += runnable.len() as u64 - 1;
            }
            let entries = succs.as_slice();
            for (k, (step, succ)) in entries.iter().enumerate() {
                let mut child_mask = 0;
                if sleep_on {
                    // Under sleep sets the crash budget is 0, so each
                    // buffered entry is one process's step, named by its
                    // pid bit, with its slot's cached footprint.
                    let i = step.pid().index();
                    // An asleep entry is covered by a sibling branch of
                    // some ancestor, so its branch ends here.
                    if mask & (1 << i) != 0 {
                        stats.transitions_slept += 1;
                        continue;
                    }
                    let taken = &visited.info(cur.slots[i]).footprint;
                    // Inherited sleepers stay asleep unless the taken step
                    // races with their next step...
                    child_mask = wake_conflicting(mask, &cur, &visited, taken);
                    // ...and every awake later entry (explored before this
                    // branch: the stack pops in reverse) whose step is
                    // independent of the taken one goes to sleep: its
                    // successor here is reachable, via commutation, from
                    // that entry's subtree. An ample expansion is the
                    // one-entry case.
                    for (later, _) in &entries[k + 1..] {
                        let j = later.pid().index();
                        let later_fp = &visited.info(cur.slots[j]).footprint;
                        if mask & (1 << j) == 0 && !observed_conflict(later_fp, taken) {
                            child_mask |= 1 << j;
                        }
                    }
                }
                stats.transitions += 1;
                stack.push((
                    visited.materialize(succ),
                    depth + 1,
                    Some(*step),
                    child_mask,
                ));
            }
        }
        stats.footprint = footprint(&visited, &sleep);
        stats.wall_ns = span.finish(stats.sample());
        Ok(stats)
    }

    /// Breadth-first traversal interning one canonical representative per
    /// orbit — the loop behind the progress checker and the liveness
    /// graph builder, byte-identical to their historical search order:
    /// the same interning discipline (single-copy store keyed by digest
    /// buckets), crash branching, ample selection, budget accounting, and
    /// reduction bookkeeping, recording every edge with its label.
    ///
    /// Every node is expanded straight from its record: it is loaded into
    /// one reused working state, its successors are stepped through the
    /// kernel into a reused buffer, and they are interned from the slots
    /// they already hold. No process is cloned, hashed or decoded on the
    /// way, and the service predicate reads the two table entries.
    ///
    /// # Errors
    ///
    /// State-budget exhaustion, a memory error, or the local-state
    /// ceiling. Property evaluation is the *client's* job — the builder
    /// returns the graph and stats.
    pub(crate) fn build_graph(
        &mut self,
        procs: Vec<P>,
    ) -> Result<(BuiltGraph<P>, ExploreStats), ExploreError> {
        let mode = self.spec.ample_mode;
        debug_assert_ne!(mode, AmpleMode::Safety, "the safety mode runs the DFS");
        let n = procs.len();
        let tel = telemetry::runtime();
        let mut span = tel.span(mode.phase());
        let (root, future) = self.prepare(&tel, procs);

        let mut store = self.new_store(&root, false, future);
        let mut cur = store.blank();
        store.resolve(&root, &mut cur)?;
        let (root_id, root_fresh, _) = store.intern(&cur);
        debug_assert!(root_fresh && root_id == 0, "the root interns first");
        let mut g = BuiltGraph {
            store,
            edges: EdgeArena::new(),
            first_pred: vec![u32::MAX],
        };
        // The budget is inclusive: a graph of exactly `max_states` nodes
        // completes; the first intern beyond it aborts immediately.
        if g.store.len() > self.config.max_states {
            return Err(ExploreError::StateBudget(g.store.len()));
        }

        // Under symmetry, the progress BFS with POR tries the runnable
        // processes by local state and status, then by start state, and
        // by pid only among equal members of one class, which are
        // interchangeable. So no pid decides which ample candidate comes
        // first or, through the fresh-successor proviso, which states
        // later expansions find interned: a permuted start builds the
        // same reduced graph. Empty when the processes go in pid order.
        // Both keys are the slots' cached fingerprints.
        let fingerprint = |g: &BuiltGraph<P>, w: &Working, i: usize| {
            g.store.info(w.slots[i]).fingerprint(w.status[i])
        };
        let start_keys: Vec<u64> =
            if self.config.por && self.config.symmetry && mode == AmpleMode::Progress {
                (0..n).map(|i| fingerprint(&g, &cur, i)).collect()
            } else {
                Vec::new()
            };
        let mut order: Vec<(u64, u64, usize)> = Vec::with_capacity(start_keys.len());

        let mut stats = ExploreStats::default();
        // Buffers reused across states: the runnable processes and the
        // successors `expand` fills.
        let mut runnable = Vec::with_capacity(n);
        let mut succs = Successors::default();
        let mut cursor = 0usize;
        while cursor < g.store.len() {
            span.tick(|| Snapshot {
                states: g.store.len() as u64,
                frontier: (g.store.len() - cursor) as u64,
                footprint: g.footprint(),
                ..stats.sample()
            });
            g.store.load(cursor as u32, &mut cur);
            runnable.clear();
            runnable.extend((0..n).filter(|&i| cur.status[i].runnable()));
            if runnable.is_empty() {
                stats.terminals += 1;
                g.edges.seal();
                cursor += 1;
                continue;
            }
            if !start_keys.is_empty() {
                order.clear();
                order.extend(
                    runnable
                        .iter()
                        .map(|&i| (fingerprint(&g, &cur, i), start_keys[i], i)),
                );
                order.sort_unstable();
                runnable.clear();
                runnable.extend(order.iter().map(|&(.., i)| i));
            }
            if self.expand(&cur, &runnable, &mut g.store, &mut succs)? {
                stats.states_pruned_por += runnable.len() as u64 - 1;
            }
            for (step, succ) in succs.as_slice() {
                stats.transitions += 1;
                let pid = step.pid().index();
                let crash = matches!(step, ScheduleStep::Crash(_));
                let served = !crash
                    && self.spec.served.is_some_and(|f| {
                        f(
                            g.store.local(cur.slots[pid]),
                            g.store.local(succ.slots[pid]),
                        )
                    });
                // A successor that is not its own orbit representative
                // and lands on a stored orbit is an orbit merge.
                let (to, fresh, permuted) = g.store.intern(succ);
                if fresh {
                    g.first_pred.push(cursor as u32);
                    if g.store.len() > self.config.max_states {
                        return Err(ExploreError::StateBudget(g.store.len()));
                    }
                } else if permuted {
                    stats.orbits_merged += 1;
                }
                // The CSR arena appends at its open node, which is
                // exactly the cursor: edges are recorded only while
                // expanding it, and the seal below closes its range.
                g.edges.push(GEdge {
                    to,
                    pid: pid as u32,
                    crash,
                    served,
                });
            }
            g.edges.seal();
            cursor += 1;
        }
        stats.states = g.store.len();
        stats.footprint = g.footprint();
        stats.wall_ns = span.finish(stats.sample());
        Ok((g, stats))
    }

    /// The concrete initial state of a graph this driver built, as a
    /// working state over the graph's local-state table (which holds the
    /// root's local states: the root interns first). Witness walks start
    /// here.
    pub(crate) fn root_of(&self, g: &BuiltGraph<P>, procs: Vec<P>) -> Working {
        let mut root = g.store.blank();
        let found = g.store.find(&self.root(procs), &mut root);
        assert!(found, "the root's local states are interned first");
        root
    }

    /// Re-derives a concrete schedule through the nodes `hops` of a graph
    /// this driver built, each hop with an optional pid hint, starting at
    /// the concrete state `cur` and leaving it at the last hop's concrete
    /// state.
    ///
    /// Because the graph stores canonical representatives, an edge
    /// `a → b` only promises that *some* step of *some* concrete member
    /// of orbit `a` lands in orbit `b`. Each hop tries the hinted process
    /// first, then every runnable process in pid order, each step before
    /// its crash, and takes the first whose normalized successor falls
    /// into the target's orbit — one always exists, because permuting a
    /// symmetry class is an automorphism of the transition relation.
    pub(crate) fn walk(
        &self,
        g: &BuiltGraph<P>,
        cur: &mut Working,
        hops: impl IntoIterator<Item = (u32, Option<u32>)>,
    ) -> Vec<ScheduleStep> {
        let mut next = cur.clone();
        hops.into_iter()
            .map(|(id, hint)| {
                let step = self.derive_step(cur, &mut next, g, id, hint.map(|h| h as usize));
                std::mem::swap(cur, &mut next);
                step
            })
            .collect()
    }

    /// One hop of [`GraphBuilder::walk`]: a decision at `cur` whose
    /// successor, left in `next`, falls into `g`'s node `target`.
    ///
    /// Read-only: each candidate is stepped on `cur`'s materialized node
    /// by [`cfc_core::apply_step`] (or crashed), normalized, and looked
    /// up in `g`'s store. A successor holding a local state the table has
    /// never seen cannot be stored, so it cannot be the target.
    fn derive_step(
        &self,
        cur: &Working,
        next: &mut Working,
        g: &BuiltGraph<P>,
        target: u32,
        hint: Option<usize>,
    ) -> ScheduleStep {
        let n = cur.status.len();
        let order = hint
            .into_iter()
            .chain((0..n).filter(|&i| Some(i) != hint))
            .filter(|&i| cur.status[i].runnable());
        for i in order {
            let pid = ProcessId::new(i as u32);
            let crash = (cur.crashes_left > 0).then_some(ScheduleStep::Crash(pid));
            for decision in std::iter::once(ScheduleStep::Step(pid)).chain(crash) {
                let mut succ = g.store.materialize(cur);
                match decision {
                    ScheduleStep::Crash(_) => {
                        succ.status[i] = Status::Crashed;
                        succ.crashes_left -= 1;
                    }
                    ScheduleStep::Step(_) => {
                        apply_step(&mut succ.procs[i], &mut succ.status[i], &mut succ.memory)
                            .expect("witness steps replay the explored semantics");
                    }
                }
                if let Some(f) = self.spec.normalizer {
                    f(&mut succ.procs, succ.memory.values_mut());
                }
                if g.store.find(&succ, next) && g.store.id_of(next) == Some(target) {
                    return decision;
                }
            }
        }
        unreachable!("every edge of the canonical quotient has a concrete witness")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Replayed;
    use crate::liveness::{mutex_spec, naming_spec, victim_masks, LivenessSpec};
    use cfc_core::{Layout, Op, OpResult, RegisterId, Trace, Value};
    use cfc_mutex::{Bakery, MutexAlgorithm, Tournament};
    use cfc_naming::{NamingAlgorithm, TasScan};

    /// A process bumping a private counter `laps` times, tracking a lap
    /// count in otherwise-dead local state the normalizer can fold.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Bumper {
        reg: RegisterId,
        laps: u8,
        done: u8,
        /// Dead scratch: remembers the last value read, though nothing
        /// ever branches on it — exactly the shape a normalizer erases.
        scratch: u64,
        pc: u8,
    }

    impl Process for Bumper {
        fn current(&self) -> Step {
            if self.done == self.laps {
                return Step::Halt;
            }
            match self.pc {
                0 => Step::Op(Op::Read(self.reg)),
                _ => Step::Op(Op::Write(self.reg, Value::new(1))),
            }
        }
        fn advance(&mut self, result: OpResult) {
            if self.pc == 0 {
                self.scratch = result.value().raw() + u64::from(self.done) * 1000;
                self.pc = 1;
            } else {
                self.pc = 0;
                self.done += 1;
            }
        }
    }

    fn bumper_system(laps: u8) -> (Memory, Vec<Bumper>) {
        let mut layout = Layout::new();
        let r = layout.register("r", 2, 0);
        let memory = Memory::new(layout, 2).unwrap();
        let mk = || Bumper {
            reg: r,
            laps,
            done: 0,
            scratch: 0,
            pc: 0,
        };
        (memory, vec![mk(), mk()])
    }

    /// The normalizer that folds every bumper's dead scratch.
    fn fold_scratch(procs: &mut [Bumper], _values: &mut [Value]) {
        for p in procs {
            p.scratch = 0;
        }
    }

    fn spec<'a, P>(ample_mode: AmpleMode) -> TraversalSpec<'a, P> {
        TraversalSpec {
            ample_mode,
            symmetry: SymmetryGroup::trivial(2),
            normalizer: None,
            served: None,
        }
    }

    /// The spec combination no public wrapper exercises yet: a DFS with
    /// a normalizer. Folding the dead scratch must merge states (the
    /// scratch multiplies the space by the values read), while the
    /// reachable terminal observations stay identical.
    #[test]
    fn dfs_with_normalizer_merges_dead_scratch() {
        let run = |normalize: bool| {
            let (memory, procs) = bumper_system(2);
            let mut spec = spec(AmpleMode::Safety);
            spec.normalizer = normalize.then_some(&fold_scratch as NormalizeFn<_>);
            let mut builder =
                GraphBuilder::new(memory, ExploreConfig::default(), spec, procs.len());
            builder.run_dfs(procs, |_| Ok(()), |_| Ok(())).unwrap()
        };
        let raw = run(false);
        let folded = run(true);
        assert!(
            folded.states < raw.states,
            "normalizer must merge scratch-only differences: {folded:?} vs {raw:?}"
        );
        assert_eq!(folded.terminals, 1, "both-done is a single folded terminal");
    }

    /// A normalizer force-disables partial-order reduction: the ample
    /// bookkeeping cannot see through the abstraction, so the driver
    /// must not prune even when the config asks for POR.
    #[test]
    fn normalizer_disables_partial_order_reduction() {
        let (memory, procs) = bumper_system(1);
        let mut s = spec(AmpleMode::Progress);
        s.normalizer = Some(&fold_scratch);
        let config = ExploreConfig {
            por: true,
            ..ExploreConfig::default()
        };
        let mut builder = GraphBuilder::new(memory, config, s, procs.len());
        let (_, stats) = builder.build_graph(procs).unwrap();
        assert_eq!(stats.states_pruned_por, 0, "POR must be suspended");

        // Without the normalizer the same config does prune (the Halt
        // steps at least are ample).
        let (memory, procs) = bumper_system(1);
        let mut builder = GraphBuilder::new(memory, config, spec(AmpleMode::Progress), procs.len());
        let (_, stats) = builder.build_graph(procs).unwrap();
        assert!(stats.states_pruned_por > 0, "{stats:?}");
    }

    /// A budget past the 32-bit id space is clamped to the largest one
    /// the store can hold, so the driver's budget check fires before the
    /// arena's or the index's id assertion could.
    #[test]
    fn unbounded_budget_clamps_to_the_id_space() {
        let (memory, procs) = bumper_system(1);
        let config = ExploreConfig::default().with_max_states(usize::MAX);
        let builder = GraphBuilder::new(
            memory,
            config,
            spec::<Bumper>(AmpleMode::Safety),
            procs.len(),
        );
        assert_eq!(builder.config.max_states, u32::MAX as usize - 1);
        // Budgets inside the id space are untouched.
        let (memory, procs) = bumper_system(1);
        let config = ExploreConfig::default().with_max_states(7);
        let builder = GraphBuilder::new(
            memory,
            config,
            spec::<Bumper>(AmpleMode::Safety),
            procs.len(),
        );
        assert_eq!(builder.config.max_states, 7);
    }

    /// One-process systems degenerate cleanly: a single chain of states,
    /// no crash branching at zero budget, one terminal.
    #[test]
    fn single_process_graph_is_a_chain() {
        let (memory, mut procs) = bumper_system(1);
        procs.truncate(1);
        let mut s = spec(AmpleMode::Progress);
        s.symmetry = SymmetryGroup::trivial(1);
        let mut builder = GraphBuilder::new(memory, ExploreConfig::default(), s, 1);
        let (g, stats) = builder.build_graph(procs).unwrap();
        assert_eq!(stats.terminals, 1);
        assert!((0..g.len()).all(|v| g.edges.degree(v) <= 1));
        assert!((0..g.len())
            .flat_map(|v| g.edges.edges(v))
            .all(|e| !e.crash));
    }

    /// The invariants the progress checker and its schedule
    /// reconstruction rest on, for one built graph: every node seals its
    /// edge range; a node has no edge exactly when no process is
    /// runnable in it, so the terminals are the zero-degree nodes;
    /// creator ids decrease toward the root; and the arena's reversal
    /// equals a nested-Vec reversal (same predecessors, same per-node
    /// order) in which each node's first predecessor is its creator.
    fn assert_progress_graph<P: Process + Clone + Eq + Hash>(
        g: &BuiltGraph<P>,
        stats: &ExploreStats,
    ) {
        assert_eq!(g.len(), stats.states);
        assert_eq!(g.edges.nodes(), g.len(), "every node seals, even edgeless");
        for v in 0..g.len() {
            let quiescent = !g.store.node(v as u32).status.iter().any(|s| s.runnable());
            assert_eq!(g.edges.degree(v) == 0, quiescent, "node {v}");
        }
        let terminals = (0..g.len()).filter(|&v| g.edges.degree(v) == 0).count();
        assert_eq!(terminals, stats.terminals);
        assert_eq!(g.first_pred[0], u32::MAX);
        for (id, &pred) in g.first_pred.iter().enumerate().skip(1) {
            assert!((pred as usize) < id, "creator ids decrease toward the root");
        }
        // Nested-Vec reference, the historical implementation.
        let mut reference: Vec<Vec<u32>> = vec![Vec::new(); g.len()];
        for v in 0..g.len() {
            for e in g.edges.edges(v) {
                reference[e.to as usize].push(v as u32);
            }
        }
        let rev = g.edges.reversed(g.len());
        assert_eq!(rev.len(), g.len());
        for (v, expect) in reference.iter().enumerate() {
            assert_eq!(rev.preds(v), expect.as_slice(), "node {v}");
            if v > 0 && !rev.preds(v).is_empty() {
                assert_eq!(rev.preds(v)[0], g.first_pred[v], "creator first");
            }
        }
    }

    /// The progress-graph invariants hold on the bumper system under a
    /// crash budget of one (so crash edges must appear), under POR, and
    /// under a normalizer, and on a naming system that combines all
    /// three reductions' bookkeeping: tas-scan n=3 with one crash under
    /// `ExploreConfig::reduced()`.
    #[test]
    fn reversal_preserves_creator_first_order() {
        let (memory, procs) = bumper_system(2);
        let mut builder = GraphBuilder::new(
            memory,
            ExploreConfig::default().with_max_crashes(1),
            spec(AmpleMode::Progress),
            procs.len(),
        );
        let (g, stats) = builder.build_graph(procs).unwrap();
        assert_progress_graph(&g, &stats);
        assert!(stats.terminals > 0);
        assert_eq!(g.store.node(0).crashes_left, 1, "the config's crash budget");
        assert!(
            (0..g.len()).flat_map(|v| g.edges.edges(v)).any(|e| e.crash),
            "crash transitions must be explored"
        );

        let (memory, procs) = bumper_system(2);
        let config = ExploreConfig {
            por: true,
            ..ExploreConfig::default()
        };
        let mut builder = GraphBuilder::new(memory, config, spec(AmpleMode::Progress), procs.len());
        let (g, stats) = builder.build_graph(procs).unwrap();
        assert!(stats.states_pruned_por > 0, "{stats:?}");
        assert_progress_graph(&g, &stats);

        let (memory, procs) = bumper_system(2);
        let mut s = spec(AmpleMode::Progress);
        s.normalizer = Some(&fold_scratch);
        let mut builder = GraphBuilder::new(memory, ExploreConfig::default(), s, procs.len());
        let (g, stats) = builder.build_graph(procs).unwrap();
        assert_progress_graph(&g, &stats);

        let alg = TasScan::new(3);
        let mut s = spec(AmpleMode::Progress);
        s.symmetry = SymmetryGroup::of_identical(&alg.processes());
        let config = ExploreConfig::reduced().with_max_crashes(1);
        let mut builder = GraphBuilder::new(alg.memory().unwrap(), config, s, 3);
        let (g, stats) = builder.build_graph(alg.processes()).unwrap();
        assert!(
            stats.states_pruned_por > 0 && stats.orbits_merged > 0,
            "{stats:?}"
        );
        assert_progress_graph(&g, &stats);
    }

    /// Builds the graph of `procs` and certifies it edge by edge against
    /// the un-reduced stepper, which shares no code with the kernel's
    /// memo and slot caches: every node is decoded, stepped by each of
    /// its edges' decisions through `Replayed::step`, and normalized when
    /// the spec has a normalizer. The result must be stored under the
    /// edge's target, and the edge's crash and service labels must be the
    /// step's. The victim masks liveness reads from records must equal
    /// the masks computed from the decoded nodes, for every victim.
    fn certify<P: Process + Clone + Eq + Hash>(
        mut builder: GraphBuilder<'_, P>,
        procs: Vec<P>,
        live: &LivenessSpec<'_, P>,
    ) -> ExploreStats {
        let n = procs.len();
        let (g, stats) = builder.build_graph(procs).unwrap();
        assert!(stats.transitions > 0, "{stats:?}");
        let mut w = g.store.blank();
        for v in 0..g.len() as u32 {
            let node = g.store.node(v);
            for e in g.edges.edges(v as usize) {
                let pid = ProcessId::new(e.pid);
                let decision = if e.crash {
                    ScheduleStep::Crash(pid)
                } else {
                    ScheduleStep::Step(pid)
                };
                let mut run = Replayed {
                    trace: Trace::new(),
                    procs: node.procs.clone(),
                    memory: node.memory.clone(),
                    status: node.status.clone(),
                };
                run.step(decision).unwrap();
                let mut next = Node {
                    procs: run.procs,
                    memory: run.memory,
                    status: run.status,
                    crashes_left: node.crashes_left - u32::from(e.crash),
                };
                if let Some(f) = builder.spec.normalizer {
                    f(&mut next.procs, next.memory.values_mut());
                }
                assert!(g.store.find(&next, &mut w), "node {v}, {e:?}");
                assert_eq!(g.store.id_of(&w), Some(e.to), "node {v}, {e:?}");
                let i = e.pid as usize;
                let served = !e.crash && (live.served)(&node.procs[i], &next.procs[i]);
                assert_eq!(e.served, served, "node {v}, {e:?}");
            }
        }
        for victim in 0..n {
            let (pending, engaged) = victim_masks(&g, victim, live);
            for v in 0..g.len() {
                let node = g.store.node(v as u32);
                let p = &node.procs[victim];
                let want = node.status[victim].runnable() && (live.pending)(p);
                assert_eq!(pending[v], want, "victim {victim}, node {v}");
                assert_eq!(
                    engaged[v],
                    want && (live.engaged)(p),
                    "victim {victim}, node {v}"
                );
            }
        }
        stats
    }

    /// The edge certificate of the slot kernel, on four systems: the
    /// bumpers under a crash budget of one, plain and with the scratch
    /// fold; tas-scan n=3 under `reduced()` with one crash, a quotient;
    /// tournament n=3's cycling clients in the liveness ample mode; and
    /// bakery n=2 under its ticket-shifting liveness normalizer.
    #[test]
    fn kernel_edges_are_certified_by_the_unreduced_stepper() {
        let bumper = LivenessSpec {
            pending: &|p: &Bumper| p.pc == 1,
            engaged: &|p: &Bumper| p.done > 0,
            served: &|a: &Bumper, b: &Bumper| b.done > a.done,
            normalize: None,
        };
        for normalizer in [None, Some(&fold_scratch as NormalizeFn<_>)] {
            let (memory, procs) = bumper_system(2);
            let mut s = spec(AmpleMode::Liveness);
            s.normalizer = normalizer;
            s.served = Some(bumper.served);
            let config = ExploreConfig::default().with_max_crashes(1);
            let stats = certify(GraphBuilder::new(memory, config, s, 2), procs, &bumper);
            assert!(stats.terminals > 0, "{stats:?}");
        }

        let alg = TasScan::new(3);
        let naming = naming_spec();
        let mut s = spec(AmpleMode::Liveness);
        s.symmetry = SymmetryGroup::of_identical(&alg.processes());
        s.served = Some(naming.served);
        let config = ExploreConfig::reduced().with_max_crashes(1);
        let builder = GraphBuilder::new(alg.memory().unwrap(), config, s, 3);
        let stats = certify(builder, alg.processes(), &naming);
        assert!(stats.orbits_merged > 0, "{stats:?}");

        let alg = Tournament::new(3, 1);
        let clients: Vec<_> = (0..3)
            .map(|i| alg.client_cycling(ProcessId::new(i), 1))
            .collect();
        let mutex = mutex_spec(None);
        let mut s = spec(AmpleMode::Liveness);
        s.symmetry = SymmetryGroup::of_identical(&clients);
        s.served = Some(mutex.served);
        let builder = GraphBuilder::new(alg.memory().unwrap(), ExploreConfig::reduced(), s, 3);
        certify(builder, clients, &mutex);

        let alg = Bakery::new(2);
        let clients: Vec<_> = (0..2)
            .map(|i| alg.client_cycling(ProcessId::new(i), 1))
            .collect();
        let normalizer = alg.liveness_normalizer().expect("bakery folds its tickets");
        let mutex = mutex_spec(Some(&*normalizer));
        let mut s = spec(AmpleMode::Liveness);
        s.normalizer = mutex.normalize;
        s.served = Some(mutex.served);
        let builder = GraphBuilder::new(alg.memory().unwrap(), ExploreConfig::default(), s, 2);
        certify(builder, clients, &mutex);
    }
}

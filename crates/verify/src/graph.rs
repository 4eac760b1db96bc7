//! The shared state-graph engine and the **unified traversal driver**
//! behind every exhaustive checker.
//!
//! All three search drivers in this crate — the DFS safety explorer
//! ([`crate::explore::explore_sym`]), the BFS progress checker
//! ([`crate::explore::check_progress_sym`]), and the fair-cycle liveness
//! builder in [`crate::liveness`] — walk the same state graph: global
//! states (process local states, register values, liveness statuses,
//! remaining crash budget) connected by process steps and crash
//! transitions. This module owns everything they share so the graph
//! semantics cannot drift apart:
//!
//! * [`Node`] — the global-state representation and its successor
//!   function ([`expand_step`], crash branching inside
//!   [`GraphBuilder::expand`]);
//! * canonicalization under a [`SymmetryGroup`] ([`canonicalize`],
//!   [`state_fingerprint`]) for symmetry-reduced visited keys;
//! * ample-set selection for partial-order reduction, parameterized by
//!   [`AmpleMode`]: the safety explorer needs the full C1–C3 conditions,
//!   while progress checking can drop the invisibility condition C2
//!   (quiescence is a property of the graph, not of the per-state
//!   observation) and instead relies on the *fresh-successor* proviso —
//!   see the soundness notes on [`AmpleMode::Progress`];
//! * [`GraphBuilder`] — the one traversal type: the memory template, one
//!   [`ExploreConfig`] (budgets, crash budget, reduction switches), and a
//!   [`TraversalSpec`] holding only what the callers vary (ample mode,
//!   symmetry group, state normalizer, service predicate). The ample mode
//!   fixes the rest. [`AmpleMode::Safety`] runs the DFS
//!   ([`GraphBuilder::run_dfs`]), which memoizes concrete states keyed
//!   canonically at pop time, invokes per-state checks, and records no
//!   graph. The progress and liveness modes run the BFS
//!   ([`GraphBuilder::build_graph`]), which interns one canonical
//!   representative per orbit and returns the labeled [`BuiltGraph`].
//!   Both loops return [`ExploreStats`], and every witness schedule is
//!   re-derived concretely along a built graph by [`GraphBuilder::walk`].
//!   The interning discipline, crash branching, budget accounting, and
//!   reduction bookkeeping live here exactly once.

use std::cell::OnceCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use cfc_core::{
    Footprint, Memory, OpResult, Process, ProcessId, RegisterSet, Status, Step, SymmetryGroup,
    Value,
};

use crate::analysis::{FutureIndex, MayAccessMode};
pub(crate) use crate::csr::GEdge;
use crate::csr::{EdgeArena, ReversedCsr};
use crate::dynamic::{observed_conflict, sleep_sets_active, SleepTable};
use crate::explore::{
    ExploreConfig, ExploreError, ExploreStats, ScheduleStep, StateView, Violation,
};
use crate::store::{NodeStore, VisitOutcome};
use crate::telemetry::{self, Phase, Snapshot, StoreFootprint, Telemetry};

/// A global state of the explored system.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Node<P> {
    /// Process local states, indexed by pid.
    pub(crate) procs: Vec<P>,
    /// The shared-register values (the memory image).
    pub(crate) values: Vec<Value>,
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

/// Computes the successor of `node` when process `i` takes its next step.
pub(crate) fn expand_step<P: Process + Clone>(
    node: &Node<P>,
    i: usize,
    template: &Memory,
) -> Result<Node<P>, ExploreError> {
    let mut next = node.clone();
    match next.procs[i].current() {
        Step::Halt => next.status[i] = Status::Done,
        Step::Internal => next.procs[i].advance(OpResult::None),
        Step::Op(op) => {
            // Runtime analog of the static hook lint (`crate::analysis`):
            // the executed step must be covered by the declared
            // `may_access` at the pre-state. Debug builds only — this
            // catches hook drift the solo analysis cannot see, such as a
            // normalizer rewriting a process into a control point its
            // hook never anticipated.
            #[cfg(debug_assertions)]
            {
                let mut declared = RegisterSet::new();
                if node.procs[i].may_access(&mut declared) {
                    let fp = Footprint::of_op(&op, template.layout());
                    debug_assert!(
                        fp.reads.is_subset(&declared) && fp.writes.is_subset(&declared),
                        "process {i}: step footprint {fp:?} escapes its declared may_access set"
                    );
                }
            }
            let mut mem = rebuild_memory(template, &next.values);
            let result = mem.apply(&op).map_err(ExploreError::Memory)?;
            next.values = mem.snapshot().to_vec();
            next.procs[i].advance(result);
        }
    }
    Ok(next)
}

/// The successor of `node` when the adversary crashes process `i`.
fn crash_step<P: Clone>(node: &Node<P>, i: usize) -> Node<P> {
    let mut next = node.clone();
    next.status[i] = Status::Crashed;
    next.crashes_left -= 1;
    next
}

/// A memory instance with `values` poked over the layout of `template`.
pub(crate) fn rebuild_memory(template: &Memory, values: &[Value]) -> Memory {
    let mut mem = template.clone();
    for (i, v) in values.iter().enumerate() {
        mem.poke(cfc_core::RegisterId::new(i as u32), *v);
    }
    mem
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

/// The successors of one node, as chosen by the engine.
#[derive(Debug)]
pub(crate) enum Expansion<P> {
    /// Partial-order reduction proved one process sufficient: its single
    /// successor stands for the whole enabled set.
    Ample {
        /// The process that stepped.
        pid: ProcessId,
        /// Its successor state.
        succ: Node<P>,
        /// The canonical form of `succ`, already computed for the
        /// fresh-successor proviso when symmetry reduction is on — so
        /// callers that intern canonically need not recanonicalize.
        canon: Option<Node<P>>,
    },
    /// Full expansion: for every runnable process, its step successor —
    /// preceded by its crash successor whenever crashes remain.
    Full(Vec<(ScheduleStep, Node<P>)>),
}

/// The result of an ample selection: the winning candidate's process
/// index paired with its successor's canonical form (already computed
/// for the fresh-successor proviso when symmetry reduction is on), or
/// `None` when the state must be fully expanded.
type AmpleChoice<P> = Option<(usize, Option<Node<P>>)>;

/// Reused per-state scratch of the ample selection: future-access sets
/// and the successors computed while testing candidates (handed to the
/// full expansion on fallback, so no transition is computed twice).
struct AmpleScratch<P> {
    may: Vec<(bool, RegisterSet)>,
    succ: Vec<Option<Node<P>>>,
}

impl<P> AmpleScratch<P> {
    fn new(n: usize) -> Self {
        AmpleScratch {
            may: (0..n).map(|_| (false, RegisterSet::new())).collect(),
            succ: (0..n).map(|_| None).collect(),
        }
    }
}

/// A borrowed state normalizer (see `cfc_mutex::StateNormalizer` for the
/// owned form and the bisimulation contract).
pub(crate) type NormalizerFn<'a, P> = &'a dyn Fn(&mut [P], &mut [Value]);

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
    /// The symmetry group canonical visited keys are computed under.
    pub(crate) symmetry: SymmetryGroup,
    /// Optional behavioral-quotient normalizer applied to the root and to
    /// every successor before interning (see
    /// `cfc_mutex::StateNormalizer` for the bisimulation contract).
    /// Partial-order reduction is force-disabled while one is active —
    /// the ample bookkeeping cannot see through the abstraction — and
    /// reported schedules replay *modulo* the quotient: same sections,
    /// outputs, and statuses, not necessarily byte-equal register values.
    pub(crate) normalizer: Option<NormalizerFn<'a, P>>,
    /// Optional service predicate `(before, after)` on the stepping
    /// process, recorded on forward edges ([`GEdge::served`]); only
    /// meaningful for the BFS, which records edges.
    pub(crate) served: Option<ServedFn<'a, P>>,
}

/// The canonical state graph a BFS traversal produces: one interned
/// representative per orbit (held packed in the [`NodeStore`]), labeled
/// forward edges in CSR form, the creator tree, and terminal flags.
pub(crate) struct BuiltGraph<P> {
    /// Canonical orbit representatives in discovery (BFS) order, one
    /// single-copy record per orbit; decode on demand via
    /// [`BuiltGraph::node`].
    pub(crate) store: NodeStore<P>,
    /// Labeled forward edges in CSR form, packed 6 bytes each in a
    /// spillable arena.
    pub(crate) edges: EdgeArena,
    /// The node that first generated each node (`u32::MAX` at the root);
    /// always strictly smaller than its child, so creator chains
    /// terminate at the root — the predecessor tree schedules are
    /// reconstructed from.
    pub(crate) first_pred: Vec<u32>,
    /// Whether the node is quiescent (no process runnable).
    pub(crate) terminal: Vec<bool>,
    /// Memoized reversed adjacency (built on first use; the historical
    /// implementation re-allocated a `Vec<Vec<u32>>` per call, doubling
    /// peak edge memory every time the progress checker asked).
    rev: OnceCell<ReversedCsr>,
}

impl<P> BuiltGraph<P> {
    /// The number of interned nodes.
    pub(crate) fn len(&self) -> usize {
        self.first_pred.len()
    }

    /// The reversed adjacency of the recorded forward edges, memoized,
    /// in the exact order the historical progress checker accumulated
    /// its reversed edges: predecessors appear in discovery order, and
    /// the first predecessor of every non-root node is its creator.
    pub(crate) fn reversed(&self) -> &ReversedCsr {
        self.rev.get_or_init(|| self.edges.reversed(self.len()))
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

    /// Exact store, index, and edge bytes and spill counts.
    fn footprint(&self) -> StoreFootprint {
        StoreFootprint {
            arena_bytes: self.store.arena_bytes(),
            index_bytes: self.store.index_bytes(),
            edge_bytes: self.edges.heap_bytes(),
            spilled_buckets: self.store.spilled_buckets() + self.edges.spilled_segs(),
        }
    }
}

impl<P: Process + Clone + Eq + Hash> BuiltGraph<P> {
    /// Decodes node `id` out of the store (an owned copy; the packed
    /// backend materializes states transiently).
    pub(crate) fn node(&self, id: u32) -> Node<P> {
        self.store.node(id)
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

/// One link of a DFS schedule, shared structurally between stack entries:
/// the historical per-entry `Vec<ScheduleStep>` clone cost O(depth) per
/// *pushed successor* (O(depth²) memory across one expansion chain); a
/// parent pointer costs O(1) and materializes only on violation.
struct PathLink {
    step: ScheduleStep,
    /// Steps from the root (parent depth + 1): telemetry snapshots
    /// report the current DFS path depth without walking the chain.
    depth: u32,
    parent: Option<Rc<PathLink>>,
}

impl Drop for PathLink {
    // Unlink iteratively: the default recursive drop would overflow the
    // call stack on search paths millions of steps deep.
    fn drop(&mut self) {
        let mut cur = self.parent.take();
        while let Some(rc) = cur {
            match Rc::try_unwrap(rc) {
                Ok(mut link) => cur = link.parent.take(),
                Err(_) => break,
            }
        }
    }
}

/// Filters a sleep mask after a step with footprint `taken` fires at
/// `node`: every sleeping process whose next step races with the taken
/// step wakes up (its deferred step no longer commutes past the trace).
/// Bits of processes that are not runnable are dropped defensively —
/// they cannot arise, since a process's status only changes on its own
/// steps and crash budgets disable sleeping.
fn wake_conflicting<P: Process + Clone>(
    mask: u32,
    node: &Node<P>,
    layout: &cfc_core::Layout,
    taken: &Footprint,
) -> u32 {
    let mut out = 0u32;
    let mut rest = mask;
    while rest != 0 {
        let p = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        if p < node.procs.len()
            && node.status[p].runnable()
            && !observed_conflict(&Footprint::of_step(&node.procs[p].current(), layout), taken)
        {
            out |= 1 << p;
        }
    }
    out
}

/// The violation `message` at the end of the path `link` encodes, with
/// its schedule materialized root-first.
fn violation_at(link: &Option<Rc<PathLink>>, message: String) -> ExploreError {
    let mut schedule = Vec::new();
    let mut cur = link.as_deref();
    while let Some(l) = cur {
        schedule.push(l.step);
        cur = l.parent.as_deref();
    }
    schedule.reverse();
    ExploreError::Violation(Box::new(Violation { schedule, message }))
}

/// The unified traversal driver: the memory template, one
/// [`ExploreConfig`], and a [`TraversalSpec`], running the one canonical
/// search loop every checker in this crate is a client of, plus the
/// ample-selection scratch and the future-access index it consults.
pub(crate) struct GraphBuilder<'a, P> {
    template: Memory,
    /// The caller's configuration, with `por` cleared when the spec
    /// carries a normalizer (the ample bookkeeping cannot see through the
    /// abstraction — asserted by the driver edge-case suite).
    config: ExploreConfig,
    spec: TraversalSpec<'a, P>,
    /// Whether symmetry reduction is effective (enabled and non-trivial).
    use_sym: bool,
    scratch: AmpleScratch<P>,
    /// Per-location future-access sets from the solo control automata,
    /// built when a traversal starts if the configuration asks for
    /// [`MayAccessMode::Automaton`] or [`MayAccessMode::Dynamic`];
    /// `None` means ample selection consults the declared `may_access`
    /// hooks only.
    future: Option<FutureIndex<P>>,
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

impl<'a, P: Process + Clone + Eq + Hash> GraphBuilder<'a, P> {
    /// Builds a driver for `n` processes over `memory`.
    ///
    /// # Panics
    ///
    /// Panics if the spec's symmetry group is over a different process
    /// count.
    pub(crate) fn new(
        memory: Memory,
        config: ExploreConfig,
        spec: TraversalSpec<'a, P>,
        n: usize,
    ) -> Self {
        assert_eq!(
            spec.symmetry.n(),
            n,
            "symmetry group is over {} processes, system has {n}",
            spec.symmetry.n()
        );
        GraphBuilder {
            template: memory,
            config: ExploreConfig {
                por: config.por && spec.normalizer.is_none(),
                ..config
            },
            use_sym: config.symmetry && !spec.symmetry.is_trivial(),
            spec,
            scratch: AmpleScratch::new(n),
            future: None,
        }
    }

    /// The initial node — all processes running, the template memory
    /// image, the configured crash budget — normalized.
    pub(crate) fn root(&self, procs: Vec<P>) -> Node<P> {
        let mut root = Node {
            status: vec![Status::Running; procs.len()],
            values: self.template.snapshot().to_vec(),
            procs,
            crashes_left: self.config.max_crashes,
        };
        self.normalize(&mut root);
        root
    }

    /// Applies the spec's normalizer (if any) to `node` in place.
    fn normalize(&self, node: &mut Node<P>) {
        if let Some(f) = self.spec.normalizer {
            f(&mut node.procs, &mut node.values);
        }
    }

    /// Whether this driver explores a symmetry quotient (reduction on,
    /// group non-trivial): one representative per orbit, so its edge
    /// labels are slots, not pids.
    pub(crate) fn is_quotient(&self) -> bool {
        self.use_sym
    }

    /// The normalized successor of `node` when process `i` steps.
    fn successor(&self, node: &Node<P>, i: usize) -> Result<Node<P>, ExploreError> {
        let mut succ = expand_step(node, i, &self.template)?;
        self.normalize(&mut succ);
        Ok(succ)
    }

    /// The canonical (orbit-representative) form of `node` — `node`
    /// itself, cloned, when symmetry reduction is off.
    fn canonical_of(&self, node: &Node<P>) -> Node<P> {
        if self.use_sym {
            canonicalize(node, &self.spec.symmetry)
        } else {
            node.clone()
        }
    }

    /// Whether the concrete node `concrete` falls into the orbit whose
    /// canonical representative is `canon`.
    fn matches_canonical(&self, concrete: &Node<P>, canon: &Node<P>) -> bool {
        if self.use_sym {
            canonicalize(concrete, &self.spec.symmetry) == *canon
        } else {
            concrete == canon
        }
    }

    /// Opens a traversal: builds the future-access index under its own
    /// nested span when the configuration asks for automaton-derived
    /// future sets (both the static automaton mode and the dynamic mode
    /// build on it; meaningful only with partial-order reduction on), and
    /// returns the normalized root.
    fn prepare(&mut self, tel: &Telemetry, procs: Vec<P>) -> Node<P> {
        if self.config.por && self.config.may_access != MayAccessMode::Declared {
            let auto_span = tel.span(Phase::ExtractAutomaton);
            let index = FutureIndex::build(self.template.layout(), &procs);
            auto_span.finish(Snapshot {
                states: index.len() as u64,
                ..Snapshot::default()
            });
            self.future = Some(index);
        }
        self.root(procs)
    }

    /// Computes the successors of `node` (whose runnable processes are
    /// `runnable`): a single ample successor when partial-order reduction
    /// applies, the full enabled set (crash transitions first) otherwise.
    ///
    /// `visited` answers whether a (canonical) node has already been seen;
    /// the ample conditions consult it for the cycle/fresh-successor
    /// proviso. Crash branching disables the reduction at any state that
    /// can still crash (a crash commutes with nothing its victim would
    /// do).
    fn expand<F>(
        &mut self,
        node: &Node<P>,
        runnable: &[usize],
        visited: F,
    ) -> Result<Expansion<P>, ExploreError>
    where
        F: Fn(&Node<P>) -> bool,
    {
        if self.config.por && node.crashes_left == 0 && runnable.len() > 1 {
            if let Some((i, canon)) = self.select_ample(node, runnable, &visited)? {
                let succ = self.scratch.succ[i].take().expect("ample successor cached");
                for s in self.scratch.succ.iter_mut() {
                    *s = None;
                }
                return Ok(Expansion::Ample {
                    pid: ProcessId::new(i as u32),
                    succ,
                    canon,
                });
            }
        }
        let crashing = node.crashes_left > 0;
        let mut out = Vec::with_capacity(runnable.len() * if crashing { 2 } else { 1 });
        for &i in runnable {
            if crashing {
                out.push((
                    ScheduleStep::Crash(ProcessId::new(i as u32)),
                    crash_step(node, i),
                ));
            }
            // Reuse any successor the ample selection already computed for
            // this candidate instead of recomputing it.
            let next = match self.scratch.succ[i].take() {
                Some(cached) => cached,
                None => expand_step(node, i, &self.template)?,
            };
            out.push((ScheduleStep::Step(ProcessId::new(i as u32)), next));
        }
        Ok(Expansion::Full(out))
    }

    /// Selects an ample process at `node`, leaving its (already computed)
    /// successor in the scratch, or returns `None` when the state must be
    /// fully expanded.
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
    fn select_ample<F>(
        &mut self,
        node: &Node<P>,
        runnable: &[usize],
        visited: &F,
    ) -> Result<AmpleChoice<P>, ExploreError>
    where
        F: Fn(&Node<P>) -> bool,
    {
        // Future-access over-approximations, computed once per state into
        // the reused scratch buffers. Under `MayAccessMode::Automaton`
        // the per-location sets of the solo control automata take
        // precedence (sharper and known for more states); any state the
        // index cannot resolve falls back to the declared hook.
        let future = self.future.as_ref();
        for &j in runnable {
            let (known, set) = &mut self.scratch.may[j];
            set.clear();
            *known = match future.and_then(|f| f.future_of(&node.procs[j])) {
                Some(fut) => {
                    set.union_with(fut);
                    true
                }
                None => node.procs[j].may_access(set),
            };
        }
        let dynamic = self.config.may_access == MayAccessMode::Dynamic;
        let layout = self.template.layout();
        'candidates: for &i in runnable {
            let step = node.procs[i].current();
            // Condition 1: independence with all concurrent futures.
            if let Step::Op(op) = &step {
                let fp = Footprint::of_op(op, layout);
                for &j in runnable {
                    if j == i {
                        continue;
                    }
                    // Dynamic mode sharpens C1 where the automaton keeps
                    // the read/write split of the future fixpoint: the
                    // candidate's step must be *independent* of every
                    // future access of `j` — a merely shared future
                    // *read* no longer disqualifies. Sound because
                    // independence against the union of a process's
                    // future footprints implies pairwise independence
                    // with each future step.
                    if dynamic {
                        if let Some(split) = future.and_then(|f| f.future_split_of(&node.procs[j]))
                        {
                            if fp.independent(split) {
                                continue;
                            }
                            continue 'candidates;
                        }
                    }
                    match &self.scratch.may[j] {
                        (true, set) if !fp.touches(set) => {}
                        _ => continue 'candidates,
                    }
                }
            }
            // Successors computed here are kept in the scratch: if no
            // ample candidate survives, the full expansion reuses them
            // instead of recomputing.
            let succ = expand_step(node, i, &self.template)?;
            let succ = self.scratch.succ[i].insert(succ);
            // Condition 2: invisibility of the step — required whenever
            // per-state observations must be preserved. Safety checks
            // never read liveness statuses under reduction, so `Halt`
            // steps are exempt there; the liveness analysis reads them,
            // so under `Liveness` a `Halt` step is visible by definition.
            let visible = |succ: &Node<P>| {
                succ.procs[i].section() != node.procs[i].section()
                    || succ.procs[i].output() != node.procs[i].output()
            };
            match self.spec.ample_mode {
                AmpleMode::Safety if !matches!(step, Step::Halt) && visible(succ) => {
                    continue 'candidates;
                }
                AmpleMode::Liveness if matches!(step, Step::Halt) || visible(succ) => {
                    continue 'candidates;
                }
                _ => {}
            }
            // Condition 3: the cycle / fresh-successor proviso. The
            // canonical form computed here rides along with the winner so
            // canonically-interning callers need not recompute it.
            if self.use_sym {
                let canon = canonicalize(succ, &self.spec.symmetry);
                if visited(&canon) {
                    continue 'candidates;
                }
                return Ok(Some((i, Some(canon))));
            }
            if visited(succ) {
                continue 'candidates;
            }
            return Ok(Some((i, None)));
        }
        Ok(None)
    }

    /// Depth-first traversal with per-state property checks — the safety
    /// explorer's loop, byte-identical to its historical search order:
    /// states are memoized at pop time (keyed canonically under the
    /// spec's symmetry group), `state_check` runs in every reachable
    /// state, `terminal_check` in every quiescent one, and violations
    /// carry the schedule that reached them.
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
        let root = self.prepare(&tel, procs);
        // Sleep-set pruning rides only on the safety DFS under dynamic
        // mode, concretely (no symmetry), crash-free, and within mask
        // width — see `crate::dynamic` for why each boundary is
        // load-bearing.
        let sleep_on = sleep_sets_active(
            self.config.por,
            self.config.may_access == MayAccessMode::Dynamic,
            mode == AmpleMode::Safety,
            self.use_sym,
            self.config.max_crashes,
            n,
        );
        let mut sleep = SleepTable::new();

        // Visited canonical states, held single-copy in the packed store.
        // With symmetry on, each entry also tracks the identity of the
        // concrete state that first reached it — that lets the
        // orbit-merge counter tell a merge with a permuted sibling apart
        // from a plain revisit, by exact comparison (a hash could
        // collide and miscount).
        let mut visited: NodeStore<P> = NodeStore::new(
            self.config.spill_budget_bytes,
            self.template.layout(),
            &root,
            self.use_sym,
        );
        let footprint = |visited: &NodeStore<P>, sleep: &SleepTable| StoreFootprint {
            arena_bytes: visited.arena_bytes(),
            index_bytes: visited.index_bytes() + sleep.heap_bytes() as u64,
            edge_bytes: 0,
            spilled_buckets: visited.spilled_buckets(),
        };
        let mut stats = ExploreStats::default();
        // DFS stack: (node, schedule-so-far, sleep mask). Schedules share
        // structure through parent links — one O(1) link per pushed
        // successor — and are materialized only to report a violation.
        // The mask (bit per pid; always 0 when sleeping is off) names the
        // processes whose next step out of this node is covered by an
        // already-pushed sibling branch.
        let mut stack: Vec<(Node<P>, Option<Rc<PathLink>>, u32)> = vec![(root, None, 0)];

        while let Some((node, path, mut mask)) = stack.pop() {
            let (id, outcome) = if self.use_sym {
                visited.visit(&self.canonical_of(&node), Some(&node))
            } else {
                visited.visit(&node, None)
            };
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
            let runnable: Vec<usize> = (0..n).filter(|&i| node.status[i].runnable()).collect();
            if fresh {
                stats.states += 1;
                if stats.states > self.config.max_states {
                    return Err(ExploreError::StateBudget(stats.states));
                }
                span.tick(|| Snapshot {
                    frontier: stack.len() as u64,
                    depth: path.as_ref().map_or(0, |l| l.depth as u64),
                    footprint: footprint(&visited, &sleep),
                    ..stats.sample()
                });
                let mem = rebuild_memory(&self.template, &node.values);
                let view = StateView {
                    procs: &node.procs,
                    status: &node.status,
                    memory: &mem,
                };
                state_check(&view).map_err(|m| violation_at(&path, m))?;
                // Terminals have no transitions to re-cover; count and
                // check them on the first visit only.
                if runnable.is_empty() {
                    stats.terminals += 1;
                    terminal_check(&view).map_err(|m| violation_at(&path, m))?;
                }
            }
            if runnable.is_empty() {
                continue;
            }

            let depth = path.as_ref().map_or(0, |l| l.depth) + 1;
            match self.expand(&node, &runnable, |key| visited.contains(key))? {
                Expansion::Ample { pid, mut succ, .. } => {
                    stats.states_pruned_por += runnable.len() as u64 - 1;
                    if sleep_on && mask & (1 << pid.index()) != 0 {
                        // The single ample transition is asleep: a
                        // sibling branch of some ancestor already covers
                        // it, so this branch ends here.
                        stats.transitions_slept += 1;
                        continue;
                    }
                    stats.transitions += 1;
                    let child_mask = if sleep_on {
                        let layout = self.template.layout();
                        let fp = Footprint::of_step(&node.procs[pid.index()].current(), layout);
                        wake_conflicting(mask, &node, layout, &fp)
                    } else {
                        0
                    };
                    self.normalize(&mut succ);
                    let link = Rc::new(PathLink {
                        step: ScheduleStep::Step(pid),
                        depth,
                        parent: path,
                    });
                    stack.push((succ, Some(link), child_mask));
                }
                Expansion::Full(succs) => {
                    if sleep_on {
                        // Crash budget is zero under sleeping, so the
                        // successor list is exactly one step per runnable
                        // process, in `runnable` order.
                        debug_assert_eq!(succs.len(), runnable.len());
                        let layout = self.template.layout();
                        let fps: Vec<Footprint> = runnable
                            .iter()
                            .map(|&i| Footprint::of_step(&node.procs[i].current(), layout))
                            .collect();
                        for (k, (step, mut succ)) in succs.into_iter().enumerate() {
                            let pid_bit = 1u32 << runnable[k];
                            if mask & pid_bit != 0 {
                                stats.transitions_slept += 1;
                                continue;
                            }
                            stats.transitions += 1;
                            // Inherited sleepers stay asleep unless the
                            // taken step races with their next step...
                            let mut child_mask = wake_conflicting(mask, &node, layout, &fps[k]);
                            // ...and every awake sibling explored before
                            // this branch (pushed later — the stack pops
                            // in reverse) whose step is independent of
                            // the taken one goes to sleep: its successor
                            // here is reachable, via commutation, from
                            // the sibling's subtree.
                            for (k2, &j) in runnable.iter().enumerate().skip(k + 1) {
                                let bit = 1u32 << j;
                                if mask & bit == 0 && !observed_conflict(&fps[k2], &fps[k]) {
                                    child_mask |= bit;
                                }
                            }
                            self.normalize(&mut succ);
                            let link = Rc::new(PathLink {
                                step,
                                depth,
                                parent: path.clone(),
                            });
                            stack.push((succ, Some(link), child_mask));
                        }
                    } else {
                        for (step, mut succ) in succs {
                            stats.transitions += 1;
                            self.normalize(&mut succ);
                            let link = Rc::new(PathLink {
                                step,
                                depth,
                                parent: path.clone(),
                            });
                            stack.push((succ, Some(link), 0));
                        }
                    }
                }
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
    /// # Errors
    ///
    /// State-budget exhaustion or a memory error. Property evaluation is
    /// the *client's* job — the builder returns the graph and stats.
    pub(crate) fn build_graph(
        &mut self,
        procs: Vec<P>,
    ) -> Result<(BuiltGraph<P>, ExploreStats), ExploreError> {
        let mode = self.spec.ample_mode;
        debug_assert_ne!(mode, AmpleMode::Safety, "the safety mode runs the DFS");
        let n = procs.len();
        let tel = telemetry::runtime();
        let mut span = tel.span(mode.phase());
        let root = self.prepare(&tel, procs);
        let root_canon = self.canonical_of(&root);

        let mut store: NodeStore<P> = NodeStore::new(
            self.config.spill_budget_bytes,
            self.template.layout(),
            &root_canon,
            false,
        );
        let (root_id, root_fresh) = store.intern(&root_canon);
        debug_assert!(root_fresh && root_id == 0, "the root interns first");
        let mut g = BuiltGraph {
            store,
            edges: EdgeArena::new(self.config.spill_budget_bytes),
            first_pred: vec![u32::MAX],
            terminal: vec![false],
            rev: OnceCell::new(),
        };
        // The budget is inclusive: a graph of exactly `max_states` nodes
        // completes; the first intern beyond it aborts immediately.
        if g.store.len() > self.config.max_states {
            return Err(ExploreError::StateBudget(g.store.len()));
        }

        let mut stats = ExploreStats::default();
        let mut cursor = 0usize;
        while cursor < g.store.len() {
            span.tick(|| Snapshot {
                states: g.store.len() as u64,
                frontier: (g.store.len() - cursor) as u64,
                footprint: g.footprint(),
                ..stats.sample()
            });
            let current = g.store.node(cursor as u32);
            let runnable: Vec<usize> = (0..n).filter(|&i| current.status[i].runnable()).collect();
            if runnable.is_empty() {
                g.terminal[cursor] = true;
                stats.terminals += 1;
                g.edges.seal();
                cursor += 1;
                continue;
            }
            // Successors paired with their canonical form, when the ample
            // selection already computed it for the fresh-successor
            // proviso. (The ample path precomputes it only when no
            // normalizer rewrites the successor afterwards — POR is off
            // with one active — so a cached form is always still valid.)
            let succs = match self.expand(&current, &runnable, |key| g.store.contains(key))? {
                Expansion::Ample { pid, succ, canon } => {
                    stats.states_pruned_por += runnable.len() as u64 - 1;
                    vec![(ScheduleStep::Step(pid), succ, canon)]
                }
                Expansion::Full(list) => list
                    .into_iter()
                    .map(|(step, succ)| (step, succ, None))
                    .collect(),
            };
            for (step, mut succ, canon) in succs {
                stats.transitions += 1;
                self.normalize(&mut succ);
                let (pid, crash) = match step {
                    ScheduleStep::Step(p) => (p.index() as u32, false),
                    ScheduleStep::Crash(p) => (p.index() as u32, true),
                };
                let served = !crash
                    && self.spec.served.is_some_and(|f| {
                        f(&current.procs[pid as usize], &succ.procs[pid as usize])
                    });
                let canon = canon.or_else(|| self.use_sym.then(|| self.canonical_of(&succ)));
                let (canon, permuted) = match canon {
                    Some(canon) => {
                        let permuted = canon != succ;
                        (canon, permuted)
                    }
                    None => (succ, false),
                };
                let (to, fresh) = g.store.intern(&canon);
                if fresh {
                    g.first_pred.push(cursor as u32);
                    g.terminal.push(false);
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
                    pid,
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
        cur: &mut Node<P>,
        hops: impl IntoIterator<Item = (u32, Option<u32>)>,
    ) -> Vec<ScheduleStep> {
        hops.into_iter()
            .map(|(id, hint)| {
                let (step, next) = self.derive_step(cur, &g.node(id), hint.map(|h| h as usize));
                *cur = next;
                step
            })
            .collect()
    }

    /// One hop of [`GraphBuilder::walk`].
    fn derive_step(
        &self,
        cur: &Node<P>,
        target: &Node<P>,
        hint: Option<usize>,
    ) -> (ScheduleStep, Node<P>) {
        let n = cur.status.len();
        let order = hint
            .into_iter()
            .chain((0..n).filter(|&i| Some(i) != hint))
            .filter(|&i| cur.status[i].runnable());
        for i in order {
            let pid = ProcessId::new(i as u32);
            let succ = self
                .successor(cur, i)
                .expect("witness steps replay the explored semantics");
            if self.matches_canonical(&succ, target) {
                return (ScheduleStep::Step(pid), succ);
            }
            if cur.crashes_left > 0 {
                let mut crashed = crash_step(cur, i);
                self.normalize(&mut crashed);
                if self.matches_canonical(&crashed, target) {
                    return (ScheduleStep::Crash(pid), crashed);
                }
            }
        }
        unreachable!("every edge of the canonical quotient has a concrete witness")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{Layout, Op, RegisterId};

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
        let normalizer = |procs: &mut [Bumper], _values: &mut [Value]| {
            for p in procs {
                p.scratch = 0;
            }
        };
        let run = |normalize: bool| {
            let (memory, procs) = bumper_system(2);
            let mut spec = spec(AmpleMode::Safety);
            spec.normalizer = normalize.then_some(&normalizer as &dyn Fn(&mut _, &mut _));
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
        let normalizer = |procs: &mut [Bumper], _values: &mut [Value]| {
            for p in procs {
                p.scratch = 0;
            }
        };
        let (memory, procs) = bumper_system(1);
        let mut s = spec(AmpleMode::Progress);
        s.normalizer = Some(&normalizer);
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

    /// The memoized reversal equals a fresh nested-Vec reversal — same
    /// predecessors, same per-node order — and the creator-tree
    /// invariants progress-schedule reconstruction depends on hold:
    /// every node seals its edge range, creator ids decrease toward the
    /// root, and each node's first predecessor is its creator. The graph
    /// is built under the config's crash budget of one, so crash edges
    /// must appear.
    #[test]
    fn memoized_reversal_preserves_creator_first_order() {
        let (memory, procs) = bumper_system(2);
        let mut builder = GraphBuilder::new(
            memory,
            ExploreConfig::default().with_max_crashes(1),
            spec(AmpleMode::Progress),
            procs.len(),
        );
        let (g, stats) = builder.build_graph(procs).unwrap();
        assert_eq!(g.len(), stats.states);
        assert_eq!(g.edges.nodes(), g.len(), "every node seals, even edgeless");
        assert_eq!(g.first_pred[0], u32::MAX);
        for (id, &pred) in g.first_pred.iter().enumerate().skip(1) {
            assert!((pred as usize) < id, "creator ids decrease toward the root");
        }
        assert!(g.terminal.iter().any(|t| *t));
        assert_eq!(g.node(0).crashes_left, 1, "the config's crash budget");
        assert!(
            (0..g.len()).flat_map(|v| g.edges.edges(v)).any(|e| e.crash),
            "crash transitions must be explored"
        );
        // Nested-Vec reference, the historical implementation.
        let mut reference: Vec<Vec<u32>> = vec![Vec::new(); g.len()];
        for v in 0..g.len() {
            for e in g.edges.edges(v) {
                reference[e.to as usize].push(v as u32);
            }
        }
        let rev = g.reversed();
        assert_eq!(rev.len(), g.len());
        for (v, expect) in reference.iter().enumerate() {
            assert_eq!(rev.preds(v), expect.as_slice(), "node {v}");
            if v > 0 && !rev.preds(v).is_empty() {
                assert_eq!(rev.preds(v)[0], g.first_pred[v], "creator first");
            }
        }
        // Memoized: the second call returns the same allocation.
        assert!(std::ptr::eq(g.reversed(), rev));
    }
}

//! Exhaustive interleaving exploration for small systems, with optional
//! state-space reduction.
//!
//! The paper's model admits *every* interleaving of process steps; for
//! small `n` we can enumerate all of them. The explorer performs a
//! depth-first search over global states — process states, register
//! values, liveness statuses — with memoization, invoking a safety check
//! in every reachable state and a terminal check in every quiescent one.
//! Optionally it also branches on crash transitions, which is how
//! wait-freedom claims of the naming algorithms are validated under every
//! adversarial failure pattern.
//!
//! The DFS safety explorer ([`explore`], [`explore_sym`]), the progress
//! checker ([`check_progress`], [`check_progress_sym`]), and the
//! fair-cycle liveness engine (`crate::liveness`) are all thin clients
//! of one unified traversal driver (`GraphBuilder` in `crate::graph`):
//! the same successor function, canonical interning, crash branching,
//! budget accounting, and ample-set selection — so a reduction is
//! implemented (and argued sound) once, and every property benefits from
//! it. Each wrapper picks only its ample mode (which also picks the DFS or
//! the BFS) and its symmetry group; everything else comes from the one
//! [`ExploreConfig`]. All three report one statistics record,
//! [`ExploreStats`].
//!
//! # State-space reduction
//!
//! Naive enumeration interleaves steps that cannot possibly influence one
//! another and distinguishes states that differ only by a permutation of
//! identical processes. Two classic, independently-toggleable reductions
//! ([`ExploreConfig::por`], [`ExploreConfig::symmetry`]) attack both
//! sources of blow-up while preserving the verified properties:
//!
//! **Ample-set partial-order reduction.** At a state, if some runnable
//! process's next step (a) has a footprint disjoint from every location
//! any *other* running process [may ever access](cfc_core::Process::may_access)
//! — so it is independent, now and forever, of all concurrent steps —
//! (b) is *invisible*: it changes neither the stepping process's section
//! nor its output (and `Halt` steps, which change only the liveness
//! status, qualify), and (c) does not close a cycle (its successor has
//! not been visited), then expanding **only** that process is sufficient:
//! every pruned interleaving reorders independent steps and reaches the
//! same states up to stuttering of the checked observation. These are the
//! classical ample-set conditions C0–C3 [CGP99, ch. 10]; condition (c) is
//! the cycle proviso that prevents a transition from being deferred
//! forever. Crash branching disables the reduction at any state that can
//! still crash (crash transitions commute with nothing).
//!
//! **Symmetry reduction.** Visited-state keys are canonicalized by
//! sorting the local states of interchangeable processes (as declared by
//! a [`SymmetryGroup`]) under a per-process fingerprint, so one orbit
//! representative stands for up to `k!` permuted states. The search still
//! walks *concrete* states — schedules remain valid un-reduced schedules
//! and every reported violation [`replay`]s against the baseline
//! semantics.
//!
//! Soundness contract for the checks (trivially met by the ready-made
//! checks in [`crate::checks`]): with `por` enabled, `state_check` must
//! depend only on the processes' sections and outputs (not raw memory or
//! liveness status); `terminal_check` may inspect everything (quiescent
//! states are preserved exactly — persistent sets preserve deadlocks).
//! With `symmetry` enabled, both checks must be invariant under
//! permutations of the declared classes. The baseline explorer (both
//! flags off, the default) has no such requirements and remains available
//! for differential testing — see the oracle matrix in
//! `tests/common/matrix.rs`.
//!
//! # Reduction-aware progress checking
//!
//! [`check_progress_sym`] verifies *possibility of progress* — from every
//! reachable state, some continuation reaches quiescence — on the reduced
//! graph directly, and both reductions are sound for it:
//!
//! * **Symmetry** quotients the graph by a bisimulation (permuting a
//!   class's processes together with their statuses is an automorphism of
//!   the transition relation, and quiescence is permutation-invariant),
//!   and bisimulation preserves "can reach a quiescent state" at every
//!   node, in both directions.
//! * **Partial-order reduction** drops the invisibility condition (only
//!   the graph shape matters, not per-state observations) but keeps
//!   independence and strengthens the cycle proviso into a
//!   *fresh-successor* proviso: an ample successor must never have been
//!   interned before, so every cycle of the reduced graph contains a
//!   fully expanded state and no process is deferred forever. See the
//!   README "Verification pipeline" section for the two-direction
//!   soundness argument.
//!
//! Progress violations carry a concrete schedule to the stuck state,
//! reconstructed from predecessor edges of the state graph, which
//! [`replay`] accepts like any safety-violation schedule.

use std::fmt;
use std::hash::Hash;

use cfc_core::{
    Event, EventKind, ExecError, Memory, OpResult, Process, ProcessId, Status, Step, SymmetryGroup,
    Trace, Value,
};

use crate::analysis::MayAccessMode;
use crate::graph::{canonicalize, full_hash, AmpleMode, GraphBuilder, Node, TraversalSpec};
use crate::telemetry::{self, Phase, Snapshot, StoreFootprint};

/// Limits and reduction switches for an exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Abort after visiting this many distinct (canonical) states.
    ///
    /// The budget is **inclusive** for every driver (safety DFS, progress
    /// BFS, liveness builder): a search whose reachable canonical state
    /// count is exactly `max_states` completes, and the first state
    /// beyond it aborts with [`ExploreError::StateBudget`] carrying
    /// `max_states + 1` — the count at the moment the budget broke, not
    /// however far an expansion batch happened to overshoot.
    pub max_states: usize,
    /// How many crash transitions the adversary may inject in one run.
    pub max_crashes: u32,
    /// Enable ample-set partial-order reduction (see module docs for the
    /// soundness contract). Off by default: the baseline explorer is the
    /// reference semantics.
    pub por: bool,
    /// Enable symmetry reduction: canonicalize visited-state keys under
    /// the system's [`SymmetryGroup`]. A no-op under the trivial group.
    pub symmetry: bool,
    /// Resident-memory budget (in bytes) for the packed visited arena
    /// and the recorded edge arena; when the resident segments exceed
    /// it, cold segments spill to a temporary file and are read back on
    /// demand. `None` (the default) never spills.
    pub spill_budget_bytes: Option<usize>,
    /// Which future-access over-approximation ample-set selection
    /// consults: [`MayAccessMode::Declared`] (the default) trusts the
    /// hand-written [`Process::may_access`] hooks;
    /// [`MayAccessMode::Automaton`] extracts each process's solo
    /// control automaton up front and uses its location-sensitive
    /// future-access sets, falling back to the declared hook for any
    /// state the automaton cannot resolve. Ignored when `por` is off.
    pub may_access: MayAccessMode,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 2_000_000,
            max_crashes: 0,
            por: false,
            symmetry: false,
            spill_budget_bytes: None,
            may_access: MayAccessMode::Declared,
        }
    }
}

impl ExploreConfig {
    /// The default configuration with both reductions enabled.
    pub fn reduced() -> Self {
        ExploreConfig {
            por: true,
            symmetry: true,
            ..Self::default()
        }
    }

    /// Replaces the state budget.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Replaces the crash budget.
    #[must_use]
    pub fn with_max_crashes(mut self, max_crashes: u32) -> Self {
        self.max_crashes = max_crashes;
        self
    }

    /// Sets the resident-memory budget that triggers spilling of cold
    /// visited-arena segments.
    #[must_use]
    pub fn with_spill_budget(mut self, bytes: usize) -> Self {
        self.spill_budget_bytes = Some(bytes);
        self
    }

    /// Replaces the future-access source ample-set selection consults.
    #[must_use]
    pub fn with_may_access(mut self, may_access: MayAccessMode) -> Self {
        self.may_access = may_access;
        self
    }
}

/// Statistics of a completed check, the one record every checker
/// reports: the safety DFS ([`explore_sym`]), the progress check
/// ([`check_progress_sym`]), and the liveness check
/// ([`crate::liveness::check_liveness_sym`]), which sums every field
/// except `wall_ns` over the per-victim graphs it builds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct (canonical) states: visited by the safety DFS, interned
    /// in the progress graph, summed over the liveness graphs.
    pub states: usize,
    /// Transitions: executed by the safety DFS, recorded as edges of the
    /// progress and liveness graphs.
    pub transitions: u64,
    /// Quiescent (terminal) states reached or interned.
    pub terminals: usize,
    /// Enabled **transitions** not expanded because an ample subset
    /// sufficed (partial-order reduction, in the mode's ample conditions).
    /// Each skipped transition is a successor state never generated —
    /// though distinct skipped transitions may lead to the same state, so
    /// this is an upper bound on the states pruned at these nodes.
    pub states_pruned_por: u64,
    /// Symmetry merges. In the safety DFS: states skipped because a
    /// *different* member of their orbit had already been explored,
    /// counted by **exact** comparison against the stored first visitor,
    /// so a hash collision can never miscount a merge. In the progress
    /// and liveness graphs: successors folded into an already-interned
    /// member of their orbit that differs from them as a concrete state.
    /// Plain revisits of the same concrete state are never merges — the
    /// baseline deduplicates them too.
    pub orbits_merged: u64,
    /// Enabled transitions skipped by dynamic sleep sets: their targets
    /// are reachable, up to commuting independent steps, through a
    /// sibling branch that was explored first. Nonzero only under
    /// [`MayAccessMode::Dynamic`] in the crash-free, symmetry-off
    /// safety DFS (see `crate::dynamic` for the gating); always 0 for
    /// progress and liveness.
    pub transitions_slept: u64,
    /// Exact store, index, and edge memory at the end of the search
    /// (summed over the liveness graphs). `edge_bytes` is 0 for the
    /// safety DFS, which records no graph; `spilled_buckets` counts state
    /// and edge segments alike and is 0 unless
    /// [`ExploreConfig::spill_budget_bytes`] forced cold segments out.
    pub footprint: StoreFootprint,
    /// Wall time in nanoseconds — of the search (safety), of the graph
    /// build plus back-propagation (progress), or of every graph build,
    /// SCC analysis, and witness validation (liveness) — measured by the
    /// telemetry clock: the ambient [`crate::telemetry::Telemetry`]
    /// clock if one is installed (deterministic in tests), the real
    /// monotonic clock otherwise.
    pub wall_ns: u64,
}

impl ExploreStats {
    /// Cumulative throughput over the whole check, `states / wall`
    /// (integer states-per-second; 0 when no time was observed). Equals
    /// the `states_per_sec` of the final telemetry snapshot.
    pub fn states_per_sec(&self) -> u64 {
        crate::telemetry::rate_per_sec(self.states as u64, self.wall_ns)
    }

    /// This stats value with the wall-clock field zeroed — what the
    /// differential suites compare, since two byte-identical searches
    /// still differ in elapsed time.
    #[must_use]
    pub fn sans_wall(mut self) -> Self {
        self.wall_ns = 0;
        self
    }

    /// The telemetry snapshot of these counters, as the final snapshot
    /// of the check's span carries them (no frontier, no depth; the span
    /// sets the elapsed time and rate).
    pub(crate) fn sample(&self) -> Snapshot {
        Snapshot {
            states: self.states as u64,
            transitions: self.transitions,
            states_pruned_por: self.states_pruned_por,
            orbits_merged: self.orbits_merged,
            transitions_slept: self.transitions_slept,
            footprint: self.footprint,
            ..Snapshot::default()
        }
    }
}

/// The progress checker's statistics: the one [`ExploreStats`] record.
/// The name stays because the checker benchmark (`perfbench/`) names it.
pub type ProgressStats = ExploreStats;

/// One scheduling decision on a violating path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleStep {
    /// The process took its next step.
    Step(ProcessId),
    /// The adversary crashed the process.
    Crash(ProcessId),
}

impl fmt::Display for ScheduleStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleStep::Step(p) => write!(f, "{p}"),
            ScheduleStep::Crash(p) => write!(f, "crash({p})"),
        }
    }
}

/// A property violation, with the schedule that reaches it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The scheduling decisions from the initial state to the violation.
    pub schedule: Vec<ScheduleStep>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} after schedule [", self.message)?;
        for (i, s) in self.schedule.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

impl std::error::Error for Violation {}

/// The error type of an exploration: a violation, or state-space overflow.
#[derive(Clone, Debug)]
pub enum ExploreError {
    /// The property failed on some schedule.
    Violation(Box<Violation>),
    /// The state budget was exhausted before the search completed.
    StateBudget(usize),
    /// A process issued an invalid operation.
    Memory(cfc_core::MemoryError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Violation(v) => write!(f, "{v}"),
            ExploreError::StateBudget(n) => write!(f, "state budget exhausted at {n} states"),
            ExploreError::Memory(e) => write!(f, "memory error during exploration: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// A snapshot of the global state handed to property checks.
#[derive(Debug)]
pub struct StateView<'a, P> {
    /// The processes, indexed by pid.
    pub procs: &'a [P],
    /// Their liveness statuses.
    pub status: &'a [Status],
    /// The shared memory.
    pub memory: &'a Memory,
}

impl<P: Process> StateView<'_, P> {
    /// The decided outputs of halted processes.
    pub fn outputs(&self) -> Vec<Option<Value>> {
        self.procs.iter().map(Process::output).collect()
    }

    /// How many processes have decided the given output.
    pub fn count_output(&self, v: Value) -> usize {
        self.procs
            .iter()
            .filter(|p| p.output() == Some(v))
            .count()
    }
}

/// A 64-bit digest of the canonical form the symmetry-reduced explorer
/// assigns to a global state — a test/diagnostic hook, **not** the
/// literal visited-set key: the explorer keys its visited set on the
/// full canonical node (including the remaining crash budget, fixed to 0
/// here) precisely so that hash collisions can never merge unrelated
/// states.
///
/// Permuting processes within one class of `symmetry` (their states and
/// statuses together, leaving memory fixed) leaves the digest unchanged —
/// the invariant the property tests in `tests/` assert.
pub fn canonical_key<P: Process + Clone + Eq + Hash>(
    procs: &[P],
    status: &[Status],
    memory: &Memory,
    symmetry: &SymmetryGroup,
) -> u64 {
    let node = Node {
        procs: procs.to_vec(),
        values: memory.snapshot().to_vec(),
        status: status.to_vec(),
        crashes_left: 0,
    };
    let canon = canonicalize(&node, symmetry);
    full_hash(&canon)
}

/// Explores every interleaving (and crash pattern, if enabled) of the
/// processes under the trivial symmetry group, checking `state_check` in
/// every reachable state and `terminal_check` in every quiescent state.
///
/// Equivalent to [`explore_sym`] with [`SymmetryGroup::trivial`]; use
/// `explore_sym` to make [`ExploreConfig::symmetry`] effective.
///
/// Process types must be `Clone + Eq + Hash` so states can be memoized;
/// the enum-based state machines of `cfc-mutex`/`cfc-naming` all qualify.
///
/// # Errors
///
/// Returns the first violation found (with its schedule), state-budget
/// exhaustion, or an invalid memory operation.
pub fn explore<P, FS, FT>(
    memory: Memory,
    procs: Vec<P>,
    config: ExploreConfig,
    state_check: FS,
    terminal_check: FT,
) -> Result<ExploreStats, ExploreError>
where
    P: Process + Clone + Eq + Hash,
    FS: FnMut(&StateView<'_, P>) -> Result<(), String>,
    FT: FnMut(&StateView<'_, P>) -> Result<(), String>,
{
    let group = SymmetryGroup::trivial(procs.len());
    explore_sym(memory, procs, &group, config, state_check, terminal_check)
}

/// Explores every interleaving (and crash pattern, if enabled) of the
/// processes, with the reductions requested by `config` — partial-order
/// reduction via footprint independence, symmetry reduction via the given
/// group. See the module docs for the exact soundness contract on the
/// checks.
///
/// # Errors
///
/// Returns the first violation found (with its schedule, which replays
/// under the un-reduced semantics), state-budget exhaustion, or an
/// invalid memory operation.
///
/// # Panics
///
/// Panics if `symmetry` is defined over a different process count.
pub fn explore_sym<P, FS, FT>(
    memory: Memory,
    procs: Vec<P>,
    symmetry: &SymmetryGroup,
    config: ExploreConfig,
    state_check: FS,
    terminal_check: FT,
) -> Result<ExploreStats, ExploreError>
where
    P: Process + Clone + Eq + Hash,
    FS: FnMut(&StateView<'_, P>) -> Result<(), String>,
    FT: FnMut(&StateView<'_, P>) -> Result<(), String>,
{
    let spec = TraversalSpec {
        ample_mode: AmpleMode::Safety,
        symmetry: symmetry.clone(),
        normalizer: None,
        served: None,
    };
    GraphBuilder::new(memory, config, spec, procs.len()).run_dfs(procs, state_check, terminal_check)
}

/// Exhaustively verifies *possibility of progress* under the trivial
/// symmetry group: from **every** reachable state of the system, some
/// continuation reaches quiescence. Equivalent to [`check_progress_sym`]
/// with [`SymmetryGroup::trivial`]; use `check_progress_sym` to make
/// [`ExploreConfig::symmetry`] effective.
///
/// # Errors
///
/// Returns a [`Violation`] with a replayable schedule to a stuck state if
/// one exists, a state-budget error for oversized systems, or a memory
/// error.
pub fn check_progress<P>(
    memory: Memory,
    procs: Vec<P>,
    config: ExploreConfig,
) -> Result<ExploreStats, ExploreError>
where
    P: Process + Clone + Eq + Hash,
{
    let group = SymmetryGroup::trivial(procs.len());
    check_progress_sym(memory, procs, &group, config)
}

/// Exhaustively verifies *possibility of progress*: from **every**
/// reachable state of the system, some continuation reaches quiescence
/// (no process still running).
///
/// For one-shot mutual-exclusion clients this is deadlock freedom in the
/// classic sense — no reachable state is stuck, and no set of processes
/// can wedge the system so that nobody can ever finish. (It does not rule
/// out unfair infinite schedules that starve a process; the paper's
/// algorithms are deadlock-free, not starvation-free, and so is this
/// property.)
///
/// The check builds the state graph breadth-first over the shared engine,
/// then back-propagates "can reach a terminal" over reversed edges. Both
/// [`ExploreConfig`] reductions apply (see the module docs for why they
/// are sound for progress): with `symmetry`, the graph is the canonical
/// quotient — one interned representative per orbit, never stored twice —
/// and with `por`, states are expanded through a single independent
/// process when the fresh-successor proviso allows.
///
/// The crash budget is honored: with `max_crashes > 0` the graph branches
/// on adversarial crash transitions exactly like [`explore_sym`], and
/// **crashed processes count as quiesced** — quiescence means no process
/// is still `Running`, so a run in which some processes crashed and all
/// others halted is a valid terminal. Partial-order reduction is
/// suspended at any state that can still crash.
///
/// # Errors
///
/// Returns a [`Violation`] naming a stuck state if one exists — its
/// schedule is a concrete path from the initial state to (an orbit
/// sibling of) the stuck state, reconstructed from predecessor edges,
/// and [`replay`] accepts it — a state-budget error for oversized
/// systems, or a memory error.
///
/// # Panics
///
/// Panics if `symmetry` is defined over a different process count.
pub fn check_progress_sym<P>(
    memory: Memory,
    procs: Vec<P>,
    symmetry: &SymmetryGroup,
    config: ExploreConfig,
) -> Result<ExploreStats, ExploreError>
where
    P: Process + Clone + Eq + Hash,
{
    let n = procs.len();
    // The outer span wraps the graph build and the back-propagation;
    // its wall time is what the returned stats report. Spans opened by
    // the builder (progress-bfs, extract-automaton) nest inside it.
    // `runtime` + ambient install means the env-hook sinks see the
    // wrapper span too, and the builder attaches nothing on top.
    let tel = telemetry::runtime();
    let _tel_guard = telemetry::install(&tel);
    let check_span = tel.span(Phase::ProgressCheck);
    let spec = TraversalSpec {
        ample_mode: AmpleMode::Progress,
        symmetry: symmetry.clone(),
        normalizer: None,
        served: None,
    };
    let mut builder = GraphBuilder::new(memory, config, spec, n);
    // The graph build's wall is replaced by the whole check's at the
    // span close below.
    let (g, mut stats) = builder.build_graph(procs.clone())?;

    // Back-propagate reachability of quiescence over reversed edges
    // (memoized CSR: two flat arrays, not a per-call Vec<Vec>).
    let bp_span = tel.span(Phase::BackPropagation);
    let states = g.len();
    let rev_edges = g.reversed();
    let mut can_finish = g.terminal.clone();
    let mut work: Vec<usize> = (0..states).filter(|&i| g.terminal[i]).collect();
    while let Some(s) = work.pop() {
        for &pred in rev_edges.preds(s) {
            if !can_finish[pred as usize] {
                can_finish[pred as usize] = true;
                work.push(pred as usize);
            }
        }
    }
    bp_span.finish(Snapshot {
        states: states as u64,
        transitions: stats.transitions,
        ..Snapshot::default()
    });

    if let Some(stuck) = (0..states).find(|&i| !can_finish[i]) {
        let stuck_count = can_finish.iter().filter(|c| !**c).count();
        // A concrete path to (an orbit sibling of) the stuck state, along
        // the creator tree.
        let stem = g
            .creator_path(stuck as u32)
            .into_iter()
            .map(|id| (id, None));
        let schedule = builder.walk(&g, &mut builder.root(procs), stem);
        return Err(ExploreError::Violation(Box::new(Violation {
            schedule,
            message: format!(
                "stuck state: no continuation reaches quiescence \
                 ({stuck_count} of {states} states cannot finish)"
            ),
        })));
    }

    stats.wall_ns = check_span.finish(stats.sample());
    Ok(stats)
}

/// The final state of a replayed schedule: the trace plus everything
/// needed to re-evaluate a property in the reached state.
#[derive(Clone, Debug)]
pub struct Replayed<P> {
    /// The events of the replayed run.
    pub trace: Trace,
    /// The processes in their final states.
    pub procs: Vec<P>,
    /// The shared memory in its final state.
    pub memory: Memory,
    /// Each process's final liveness status.
    pub status: Vec<Status>,
}

impl<P> Replayed<P> {
    /// A [`StateView`] of the reached state, suitable for re-running the
    /// property check that reported a violation.
    pub fn view(&self) -> StateView<'_, P> {
        StateView {
            procs: &self.procs,
            status: &self.status,
            memory: &self.memory,
        }
    }
}

impl<P: Process> Replayed<P> {
    /// Applies one scheduling decision to the reached state under the
    /// plain, un-reduced semantics, and records its event in the trace.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotRunnable`] when the decision steps or
    /// crashes a process that is not running, or the memory error of a
    /// failed operation.
    pub(crate) fn step(&mut self, decision: ScheduleStep) -> Result<(), ExecError> {
        let (ScheduleStep::Step(pid) | ScheduleStep::Crash(pid)) = decision;
        let i = pid.index();
        if self.status.get(i) != Some(&Status::Running) {
            return Err(ExecError::NotRunnable(pid));
        }
        let kind = match decision {
            ScheduleStep::Crash(_) => {
                self.status[i] = Status::Crashed;
                EventKind::Crash
            }
            ScheduleStep::Step(_) => match self.procs[i].current() {
                Step::Halt => {
                    self.status[i] = Status::Done;
                    EventKind::Done {
                        output: self.procs[i].output(),
                    }
                }
                Step::Internal => {
                    self.procs[i].advance(OpResult::None);
                    EventKind::Internal
                }
                Step::Op(op) => {
                    let result = self.memory.apply(&op)?;
                    self.procs[i].advance(result.clone());
                    EventKind::Access { op, result }
                }
            },
        };
        self.trace.push(Event { pid, kind });
        Ok(())
    }
}

/// Replays a violating schedule on a fresh executor, returning the trace
/// **and the reached state** — used to render counterexamples for humans
/// and to confirm that a violation found by the *reduced* explorer
/// reproduces under the baseline, un-reduced semantics (the reductions
/// only prune which interleavings are searched; every schedule they
/// report is a plain sequence of concrete steps).
///
/// # Errors
///
/// Returns [`ExecError::NotRunnable`] if the schedule steps or crashes a
/// process that is no longer running (halted or crashed), or the memory
/// error of an operation that fails. A schedule obtained from
/// [`explore`], [`explore_sym`], or the progress checkers always replays
/// cleanly.
pub fn replay<P: Process>(
    memory: Memory,
    procs: Vec<P>,
    schedule: &[ScheduleStep],
) -> Result<Replayed<P>, ExecError> {
    let mut run = Replayed {
        trace: Trace::new(),
        status: vec![Status::Running; procs.len()],
        procs,
        memory,
    };
    for &decision in schedule {
        run.step(decision)?;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{Layout, Op, RegisterId};

    /// Two processes each increment a 2-bit counter once (read + write).
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Incr {
        reg: RegisterId,
        pc: u8,
        seen: u64,
    }

    impl Process for Incr {
        fn current(&self) -> Step {
            match self.pc {
                0 => Step::Op(Op::Read(self.reg)),
                1 => Step::Op(Op::Write(self.reg, Value::new(self.seen + 1))),
                _ => Step::Halt,
            }
        }
        fn advance(&mut self, result: OpResult) {
            if self.pc == 0 {
                self.seen = result.value().raw();
            }
            self.pc += 1;
        }
    }

    fn incr_system() -> (Memory, Vec<Incr>) {
        let mut layout = Layout::new();
        let c = layout.register("c", 2, 0);
        let memory = Memory::new(layout, 2).unwrap();
        (
            memory,
            vec![
                Incr {
                    reg: c,
                    pc: 0,
                    seen: 0,
                },
                Incr {
                    reg: c,
                    pc: 0,
                    seen: 0,
                },
            ],
        )
    }

    /// A process of a deliberately deadlock-prone pair: it test-and-sets
    /// `first`, then `second` (spinning on each until acquired), then
    /// releases both and halts. Two of these with opposite lock orders
    /// can finish (one runs solo) — but once each holds its first lock,
    /// both spin forever: a reachable stuck state.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct LockGrab {
        first: RegisterId,
        second: RegisterId,
        pc: u8, // 0: TAS first, 1: TAS second, 2/3: release, 4: halt
    }

    impl Process for LockGrab {
        fn current(&self) -> Step {
            use cfc_core::BitOp;
            match self.pc {
                0 => Step::Op(Op::Bit(self.first, BitOp::TestAndSet)),
                1 => Step::Op(Op::Bit(self.second, BitOp::TestAndSet)),
                2 => Step::Op(Op::Write(self.first, Value::ZERO)),
                3 => Step::Op(Op::Write(self.second, Value::ZERO)),
                _ => Step::Halt,
            }
        }
        fn advance(&mut self, result: OpResult) {
            match self.pc {
                // Spin until the test-and-set finds the bit clear.
                0 | 1 => {
                    if result.value() == Value::ZERO {
                        self.pc += 1;
                    }
                }
                _ => self.pc += 1,
            }
        }
    }

    fn deadlock_pair() -> (Memory, Vec<LockGrab>) {
        let mut layout = Layout::new();
        let a = layout.bit("a", false);
        let b = layout.bit("b", false);
        let memory = Memory::new(layout, 1).unwrap();
        (
            memory,
            vec![
                LockGrab {
                    first: a,
                    second: b,
                    pc: 0,
                },
                LockGrab {
                    first: b,
                    second: a,
                    pc: 0,
                },
            ],
        )
    }

    /// One writer raises a flag and halts; one waiter spins until it sees
    /// the flag raised. Progress holds crash-free but fails if the writer
    /// can crash first.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct FlagWaiter {
        flag: RegisterId,
        writer: bool,
        pc: u8,
    }

    impl Process for FlagWaiter {
        fn current(&self) -> Step {
            if self.writer {
                match self.pc {
                    0 => Step::Op(Op::Write(self.flag, Value::ONE)),
                    _ => Step::Halt,
                }
            } else {
                match self.pc {
                    0 => Step::Op(Op::Read(self.flag)),
                    _ => Step::Halt,
                }
            }
        }
        fn advance(&mut self, result: OpResult) {
            // The writer advances unconditionally; the waiter only once
            // it has seen the flag raised.
            if self.writer || result.value() == Value::ONE {
                self.pc = 1;
            }
        }
    }

    fn flag_system() -> (Memory, Vec<FlagWaiter>) {
        let mut layout = Layout::new();
        let f = layout.bit("f", false);
        let memory = Memory::new(layout, 1).unwrap();
        (
            memory,
            vec![
                FlagWaiter {
                    flag: f,
                    writer: true,
                    pc: 0,
                },
                FlagWaiter {
                    flag: f,
                    writer: false,
                    pc: 0,
                },
            ],
        )
    }

    #[test]
    fn finds_the_lost_update() {
        // The explorer must find the interleaving where both processes
        // read 0 and the counter ends at 1.
        let (memory, procs) = incr_system();
        let c = RegisterId::new(0);
        let err = explore(
            memory,
            procs,
            ExploreConfig::default(),
            |_| Ok(()),
            |view| {
                if view.memory.get(c) == Value::new(2) {
                    Ok(())
                } else {
                    Err(format!("counter ended at {}", view.memory.get(c)))
                }
            },
        )
        .unwrap_err();
        match err {
            ExploreError::Violation(v) => {
                assert!(v.message.contains("counter ended at 1"));
                assert!(!v.schedule.is_empty());
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn passes_when_property_holds() {
        // Termination with counter in {1, 2} always holds.
        let (memory, procs) = incr_system();
        let c = RegisterId::new(0);
        let stats = explore(
            memory,
            procs,
            ExploreConfig::default(),
            |_| Ok(()),
            |view| {
                let v = view.memory.get(c).raw();
                if v == 1 || v == 2 {
                    Ok(())
                } else {
                    Err(format!("impossible count {v}"))
                }
            },
        )
        .unwrap();
        assert!(stats.states > 5);
        assert!(stats.terminals >= 2);
        // The baseline explorer reduces nothing.
        assert_eq!(stats.states_pruned_por, 0);
        assert_eq!(stats.orbits_merged, 0);
    }

    #[test]
    fn symmetric_increments_share_an_orbit() {
        // The two Incr processes are identical, so the full group applies:
        // states differing only by swapping them are merged, and the
        // terminal-state memory values are still all seen.
        let (memory, procs) = incr_system();
        let c = RegisterId::new(0);
        let base = explore(
            memory.clone(),
            procs.clone(),
            ExploreConfig::default(),
            |_| Ok(()),
            |_| Ok(()),
        )
        .unwrap();
        let mut counts = std::collections::BTreeSet::new();
        let reduced = explore_sym(
            memory,
            procs,
            &SymmetryGroup::full(2),
            ExploreConfig {
                symmetry: true,
                ..ExploreConfig::default()
            },
            |_| Ok(()),
            |view| {
                counts.insert(view.memory.get(c).raw());
                Ok(())
            },
        )
        .unwrap();
        assert!(reduced.states < base.states, "{reduced:?} vs {base:?}");
        assert!(reduced.orbits_merged > 0);
        // Both the lost-update (1) and clean (2) outcomes survive.
        assert_eq!(counts.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn por_preserves_terminal_outcomes() {
        // Incr ops all touch the shared counter with unknown futures, so
        // only Halt steps are ample — the reduction is modest but the
        // terminal outcomes must be identical.
        let (memory, procs) = incr_system();
        let c = RegisterId::new(0);
        let collect = |por: bool| {
            let mut counts = std::collections::BTreeSet::new();
            let stats = explore(
                memory.clone(),
                procs.clone(),
                ExploreConfig {
                    por,
                    ..ExploreConfig::default()
                },
                |_| Ok(()),
                |view| {
                    counts.insert(view.memory.get(c).raw());
                    Ok(())
                },
            )
            .unwrap();
            (stats, counts)
        };
        let (base, base_counts) = collect(false);
        let (red, red_counts) = collect(true);
        assert_eq!(base_counts, red_counts);
        assert!(red.states <= base.states);
        assert!(red.states_pruned_por > 0);
    }

    #[test]
    fn crash_transitions_are_explored() {
        // With one crash allowed, there is a terminal state where only one
        // process incremented.
        let (memory, procs) = incr_system();
        let c = RegisterId::new(0);
        let mut saw_crashed_terminal = false;
        let _ = explore(
            memory,
            procs,
            ExploreConfig {
                max_crashes: 1,
                ..Default::default()
            },
            |_| Ok(()),
            |view| {
                if view.status.contains(&Status::Crashed) && view.memory.get(c).raw() <= 1 {
                    saw_crashed_terminal = true;
                }
                Ok(())
            },
        )
        .unwrap();
        assert!(saw_crashed_terminal);
    }

    #[test]
    fn state_budget_is_enforced() {
        let (memory, procs) = incr_system();
        let err = explore(
            memory,
            procs,
            ExploreConfig::default().with_max_states(3),
            |_| Ok(()),
            |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, ExploreError::StateBudget(_)));
    }

    /// The budget is inclusive for the DFS: a budget of exactly the
    /// reachable state count completes, one less fails — reporting
    /// exactly `budget + 1`, the count at the moment the budget broke.
    #[test]
    fn dfs_budget_boundary_is_inclusive() {
        let (memory, procs) = incr_system();
        let exact = explore(
            memory.clone(),
            procs.clone(),
            ExploreConfig::default(),
            |_| Ok(()),
            |_| Ok(()),
        )
        .unwrap()
        .states;
        let at = explore(
            memory.clone(),
            procs.clone(),
            ExploreConfig::default().with_max_states(exact),
            |_| Ok(()),
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(at.states, exact);
        let err = explore(
            memory,
            procs,
            ExploreConfig::default().with_max_states(exact - 1),
            |_| Ok(()),
            |_| Ok(()),
        )
        .unwrap_err();
        match err {
            ExploreError::StateBudget(n) => assert_eq!(n, exact),
            other => panic!("expected StateBudget, got {other:?}"),
        }
    }

    /// The same inclusive boundary for the BFS progress checker: the
    /// overflow is detected at the intern that breaks the budget, not
    /// after a whole expansion batch overshoots.
    #[test]
    fn bfs_budget_boundary_is_inclusive() {
        let (memory, procs) = incr_system();
        let exact = check_progress(memory.clone(), procs.clone(), ExploreConfig::default())
            .unwrap()
            .states;
        let at = check_progress(
            memory.clone(),
            procs.clone(),
            ExploreConfig::default().with_max_states(exact),
        )
        .unwrap();
        assert_eq!(at.states, exact);
        let err = check_progress(
            memory,
            procs,
            ExploreConfig::default().with_max_states(exact - 1),
        )
        .unwrap_err();
        match err {
            ExploreError::StateBudget(n) => assert_eq!(n, exact),
            other => panic!("expected StateBudget, got {other:?}"),
        }
    }

    #[test]
    fn replay_reproduces_the_violation() {
        let (memory, procs) = incr_system();
        let c = RegisterId::new(0);
        let err = explore(
            memory.clone(),
            procs.clone(),
            ExploreConfig::default(),
            |_| Ok(()),
            |view| {
                if view.memory.get(c) == Value::new(2) {
                    Ok(())
                } else {
                    Err("lost update".into())
                }
            },
        )
        .unwrap_err();
        let ExploreError::Violation(v) = err else {
            panic!("expected violation")
        };
        let replayed = replay(memory, procs, &v.schedule).unwrap();
        assert!(replayed.trace.len() >= 4);
        // The replayed final state is the violating one.
        assert_eq!(replayed.memory.get(c), Value::new(1));
        assert!(replayed.status.iter().all(|s| *s == Status::Done));
    }

    #[test]
    fn empty_schedule_replays_to_the_initial_state() {
        let (memory, procs) = incr_system();
        let replayed = replay(memory.clone(), procs.clone(), &[]).unwrap();
        assert_eq!(replayed.trace.len(), 0);
        assert_eq!(replayed.procs, procs);
        assert_eq!(replayed.memory.snapshot(), memory.snapshot());
        assert!(replayed.status.iter().all(|s| *s == Status::Running));
    }

    #[test]
    fn crash_at_the_first_step_is_replayable() {
        // A schedule may fell a process before it takes a single step;
        // the crash must be recorded, the victim's memory untouched, and
        // the survivor free to run to completion.
        let (memory, procs) = incr_system();
        let c = RegisterId::new(0);
        let p0 = cfc_core::ProcessId::new(0);
        let p1 = cfc_core::ProcessId::new(1);
        let schedule = [
            ScheduleStep::Crash(p0),
            ScheduleStep::Step(p1),
            ScheduleStep::Step(p1),
            ScheduleStep::Step(p1),
        ];
        let replayed = replay(memory, procs, &schedule).unwrap();
        assert_eq!(replayed.status, vec![Status::Crashed, Status::Done]);
        assert_eq!(replayed.memory.get(c), Value::ONE);
        assert!(matches!(
            replayed.trace.iter().next().map(|e| &e.kind),
            Some(cfc_core::EventKind::Crash)
        ));
    }

    #[test]
    fn replay_rejects_decisions_for_halted_processes() {
        // Read, write, halt: process 0 is done after three steps, so a
        // fourth step or a crash names a process that is not running.
        let (memory, procs) = incr_system();
        let p0 = ProcessId::new(0);
        for extra in [ScheduleStep::Step(p0), ScheduleStep::Crash(p0)] {
            let schedule = [
                ScheduleStep::Step(p0),
                ScheduleStep::Step(p0),
                ScheduleStep::Step(p0),
                extra,
            ];
            let err = replay(memory.clone(), procs.clone(), &schedule).unwrap_err();
            assert_eq!(err, ExecError::NotRunnable(p0), "{extra}");
        }
    }

    #[test]
    fn canonical_key_is_permutation_invariant() {
        let (memory, mut procs) = incr_system();
        // Drive the processes into distinct local states.
        let mut mem = memory.clone();
        let r = mem.apply(&Op::Read(RegisterId::new(0))).unwrap();
        procs[0].advance(r);
        let group = SymmetryGroup::full(2);
        let status = [Status::Running, Status::Running];
        let k1 = canonical_key(&procs, &status, &mem, &group);
        procs.swap(0, 1);
        let k2 = canonical_key(&procs, &status, &mem, &group);
        assert_eq!(k1, k2);
        // Under the trivial group, the swap is visible.
        let trivial = SymmetryGroup::trivial(2);
        let t1 = canonical_key(&procs, &status, &mem, &trivial);
        procs.swap(0, 1);
        let t2 = canonical_key(&procs, &status, &mem, &trivial);
        assert_ne!(t1, t2);
    }

    // -----------------------------------------------------------------
    // Progress checking.
    // -----------------------------------------------------------------

    #[test]
    fn progress_holds_for_the_increment_pair() {
        let (memory, procs) = incr_system();
        let stats = check_progress(memory, procs, ExploreConfig::default()).unwrap();
        assert!(stats.states > 5);
        assert!(stats.terminals >= 1);
        assert_eq!(stats.states_pruned_por, 0);
        assert_eq!(stats.orbits_merged, 0);
    }

    #[test]
    fn progress_verdict_matches_across_reductions() {
        let (memory, procs) = incr_system();
        let base = check_progress(memory.clone(), procs.clone(), ExploreConfig::default()).unwrap();
        let red = check_progress_sym(
            memory,
            procs,
            &SymmetryGroup::full(2),
            ExploreConfig::reduced(),
        )
        .unwrap();
        assert!(red.states <= base.states);
        assert!(red.orbits_merged > 0 || red.states_pruned_por > 0);
    }

    #[test]
    fn deadlocking_pair_is_caught_with_a_replayable_schedule() {
        // Regression: progress violations used to report an empty
        // schedule ("state N of M"); they must now carry a concrete path
        // that replays to the stuck state.
        let (memory, procs) = deadlock_pair();
        let err = check_progress(memory.clone(), procs.clone(), ExploreConfig::default())
            .unwrap_err();
        let ExploreError::Violation(v) = err else {
            panic!("expected a progress violation");
        };
        assert!(v.message.contains("quiescence"), "{v}");
        assert!(!v.schedule.is_empty(), "schedule must not be empty");
        let replayed = replay(memory, procs, &v.schedule).unwrap();
        // The replayed state is genuinely wedged: both locks held, both
        // processes still running (each spinning on the other's lock).
        assert_eq!(replayed.memory.get(RegisterId::new(0)), Value::ONE);
        assert_eq!(replayed.memory.get(RegisterId::new(1)), Value::ONE);
        assert!(replayed.status.iter().all(|s| *s == Status::Running));
    }

    #[test]
    fn deadlocking_pair_is_caught_under_reduction_too() {
        let (memory, procs) = deadlock_pair();
        for config in [
            ExploreConfig {
                por: true,
                ..ExploreConfig::default()
            },
            ExploreConfig::reduced(),
        ] {
            let err =
                check_progress_sym(memory.clone(), procs.clone(), &SymmetryGroup::full(2), config)
                    .unwrap_err();
            let ExploreError::Violation(v) = err else {
                panic!("expected a progress violation");
            };
            let replayed = replay(memory.clone(), procs.clone(), &v.schedule).unwrap();
            assert_eq!(replayed.memory.get(RegisterId::new(0)), Value::ONE);
            assert_eq!(replayed.memory.get(RegisterId::new(1)), Value::ONE);
        }
    }

    #[test]
    fn crash_budget_is_honored_by_progress() {
        // Crash-free, the waiter can always finish (schedule the writer
        // first), but a crashed writer wedges it forever: the crash
        // budget must be part of the progress graph, and the violating
        // schedule must contain the crash.
        let (memory, procs) = flag_system();
        check_progress(memory.clone(), procs.clone(), ExploreConfig::default()).unwrap();
        let err = check_progress(
            memory.clone(),
            procs.clone(),
            ExploreConfig::default().with_max_crashes(1),
        )
        .unwrap_err();
        let ExploreError::Violation(v) = err else {
            panic!("expected a progress violation under crashes");
        };
        assert!(
            v.schedule
                .iter()
                .any(|s| matches!(s, ScheduleStep::Crash(p) if p.index() == 0)),
            "schedule {:?} must crash the writer",
            v.schedule
        );
        let replayed = replay(memory, procs, &v.schedule).unwrap();
        assert_eq!(replayed.status[0], Status::Crashed);
    }

    #[test]
    fn progress_budget_is_enforced() {
        let (memory, procs) = incr_system();
        let err = check_progress(memory, procs, ExploreConfig::default().with_max_states(3))
            .unwrap_err();
        assert!(matches!(err, ExploreError::StateBudget(_)));
    }
}

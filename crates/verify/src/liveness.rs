//! Fair-cycle liveness checking: starvation freedom and bounded bypass
//! on the shared state graph.
//!
//! The paper's algorithms promise *deadlock freedom* — somebody can
//! always finish — which is strictly weaker than *starvation freedom* —
//! everybody who keeps trying eventually finishes. The progress checker
//! in [`crate::explore`](mod@crate::explore) verifies the former; this
//! module mechanizes the latter as a search for **fair lassos** in the
//! same state graph the other checkers walk (`crate::graph`):
//!
//! * Clients cycle through their protocol forever
//!   ([`cfc_mutex::MutexAlgorithm::client_cycling`]), so the graph's
//!   cycles are exactly the system's infinite behaviors.
//! * A run is **weakly fair** when every process that stays
//!   [runnable](cfc_core::Status::runnable) takes infinitely many
//!   steps. On a finite graph an infinite run is a lasso (stem + loop),
//!   and since `Done`/`Crashed` are absorbing, statuses are constant
//!   around any loop — so a lasso is weakly fair iff every process
//!   running in its loop steps at least once per revolution.
//! * A process is **starved** when some weakly fair lasso keeps it
//!   *pending* (trying, never served: in its entry section and never in
//!   the critical section; running and never named) around the whole
//!   loop — despite the victim itself spinning infinitely often.
//!
//! The detector runs per victim: it restricts the graph to the states
//! where the victim is pending, computes strongly connected components
//! (iterative Tarjan), and reports any reachable SCC whose internal
//! edges cover every running process — by strong connectivity such an
//! SCC contains a single cycle through one covering edge per process,
//! which is precisely a weakly fair starvation loop. The witness is
//! rebuilt as a concrete schedule ([`Lasso`]) that [`replay`] accepts
//! and [`validate_lasso`] re-checks step by step against the un-reduced
//! semantics, so a [`LivenessVerdict::Starvable`] verdict never rests on
//! the reductions below.
//!
//! # Reductions, per victim
//!
//! * **Symmetry** must not canonicalize the victim away: permuting the
//!   starved process with its peers changes *who* is starved. The
//!   checker therefore quotients each victim's graph by the
//!   [stabilizer](SymmetryGroup::stabilizer) of the victim — its peers
//!   still merge orbits, the victim's slot is pinned — and checks one
//!   victim per symmetry class. That representative argument needs class
//!   members to be interchangeable *from the initial state*, which is
//!   exactly how the classes are formed: the processes that start
//!   identical ([`SymmetryGroup::of_identical`]). Identity-free processes
//!   (naming walkers, test-and-set spinners) form one class, while
//!   identity-embedding locks start distinct and fall back to
//!   per-process victims on one shared graph. Because canonical edge
//!   labels are slots rather than concrete identities, a fair-looking
//!   quotient SCC is only a *candidate*, and a quotient-derived bypass
//!   witness only a proposal: each victim is settled by one routine that
//!   concretizes every candidate as one lap and validates it, then
//!   measures bypass and validates the witness. A candidate or witness
//!   that fails validation — an *artifact*, possible only on a
//!   non-trivial quotient — sends the victim through the same routine on
//!   the exact (trivial-group) graph, built at most once per check.
//! * **Partial-order reduction** runs in `AmpleMode::Liveness`:
//!   independence (C1) plus *strict* invisibility (C2 with no `Halt`
//!   exemption — the fairness analysis reads statuses) plus the
//!   cycle-closing condition (C3, the fresh-successor proviso), so every
//!   cycle of the reduced graph contains a fully expanded state and no
//!   process's transitions — in particular no self-looping spin of a
//!   starved victim — are pruned from every state of a loop.
//! * An optional [state normalizer](cfc_mutex::StateNormalizer) folds
//!   behaviorally inert unbounded counters (bakery tickets) into a
//!   finite quotient; POR is disabled whenever one is active, since the
//!   ample bookkeeping does not see through the abstraction.
//!
//! # Bounded bypass
//!
//! Alongside the binary verdict, the checker measures **bypass**: the
//! supremum, over all weakly fair runs, of how many times *other*
//! processes are served while the victim is pending and *engaged* (past
//! its first entry step — before that the algorithm cannot know the
//! victim exists). Because any finite unfair prefix extends to a weakly
//! fair run, this equals the maximum service-edge weight over paths of
//! the engaged-pending subgraph: infinite (`None`) iff some reachable
//! SCC of that subgraph contains a service edge, else the longest
//! weighted path over the SCC condensation. Peterson's `turn` handshake
//! yields bound 1; the bakery's FCFS order bounds it by the waiters
//! ahead at the doorway; a plain test-and-set lock is unbounded (and
//! starvable with it).
//!
//! Every **finite** bound additionally ships a [`BypassWitness`]: the
//! argmax path of that longest-path computation, concretized into a
//! replayable schedule (stem to an engaged-pending state, then the
//! overtaking suffix) and re-checked by [`validate_bypass`] against the
//! un-reduced semantics — including an independent recount of the
//! overtakes — so a reported bound is never just a number. A witness
//! whose quotient-level derivation fails validation (slot labels can in
//! principle mislabel a serve) is an artifact like a failed lasso
//! candidate: the victim is settled again on the exact graph, whose
//! labels are concrete. If that graph outgrows the state budget, the
//! quotient's bound is still reported and only its witness is
//! forfeited.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use cfc_core::{Memory, Process, ProcessId, Section, SymmetryGroup, Value};
use cfc_mutex::{MutexAlgorithm, MutexClient};
use cfc_naming::NamingAlgorithm;

use crate::csr::EdgeArena;
use crate::explore::{replay, ExploreConfig, ExploreError, ExploreStats, Replayed, ScheduleStep};
use crate::graph::{AmpleMode, BuiltGraph, GEdge, GraphBuilder, TraversalSpec};
use crate::telemetry::{self, Phase, Snapshot, Telemetry};

/// A borrowed state normalizer (see [`cfc_mutex::StateNormalizer`] for
/// the owned form and the behavioral contract).
pub type NormalizeFn<'a, P> = &'a dyn Fn(&mut [P], &mut [Value]);

/// The property hooks of a liveness check: what it means for a process
/// to be waiting, to be counted against, and to be served.
pub struct LivenessSpec<'a, P> {
    /// Is the process *pending* — wanting service it has not received?
    /// (Mutex: in its entry section. Naming: not yet decided.) Evaluated
    /// only on running processes.
    pub pending: &'a dyn Fn(&P) -> bool,
    /// Is the pending process *engaged* — past the point where the
    /// algorithm can observe it (its first entry step)? Bypass counting
    /// starts here; starvation detection uses `pending` alone.
    pub engaged: &'a dyn Fn(&P) -> bool,
    /// Did the stepping process receive service across this step
    /// (`(before, after)` local states)? (Mutex: entered the critical
    /// section. Naming: decided a name.)
    pub served: &'a dyn Fn(&P, &P) -> bool,
    /// Optional behavioral-quotient normalizer applied to every explored
    /// state (see [`cfc_mutex::StateNormalizer`] for the contract).
    /// Partial-order reduction is disabled while one is active.
    pub normalize: Option<NormalizeFn<'a, P>>,
}

impl<P> fmt::Debug for LivenessSpec<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LivenessSpec")
            .field("normalize", &self.normalize.is_some())
            .finish()
    }
}

/// A replayable infinite run: after the `stem`, repeating `cycle`
/// forever is a weakly fair schedule of the system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lasso {
    /// The finite prefix from the initial state to the loop entry.
    pub stem: Vec<ScheduleStep>,
    /// The loop body; never empty, never contains a crash.
    pub cycle: Vec<ScheduleStep>,
}

impl Lasso {
    /// The stem followed by one revolution of the loop — the schedule
    /// shape [`replay`] accepts.
    pub fn unrolled(&self) -> Vec<ScheduleStep> {
        let mut all = self.stem.clone();
        all.extend(self.cycle.iter().copied());
        all
    }
}

/// A starvation witness: a concrete weakly fair lasso around which
/// `victim` stays pending.
#[derive(Clone, Debug)]
pub struct LassoWitness {
    /// The starved process.
    pub victim: ProcessId,
    /// The lasso schedule; [`validate_lasso`] re-checks it concretely.
    pub lasso: Lasso,
    /// What the lasso demonstrates.
    pub message: String,
}

impl fmt::Display for LassoWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (stem {} steps, loop {} steps)",
            self.message,
            self.lasso.stem.len(),
            self.lasso.cycle.len()
        )
    }
}

/// A bypass witness: a concrete, replayable schedule in which `victim`
/// completes its doorway (becomes pending **and** engaged) and is then
/// overtaken exactly `bypass` times while it stays pending — the
/// machine-checked evidence behind a measured bypass bound.
///
/// [`validate_bypass`] re-checks the whole claim against the plain,
/// un-reduced step semantics, including re-counting the overtakes
/// independently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BypassWitness {
    /// The overtaken process.
    pub victim: ProcessId,
    /// How many times the victim is overtaken along `overtaking`.
    pub bypass: u64,
    /// The prefix from the initial state to a state where the victim is
    /// pending and engaged.
    pub stem: Vec<ScheduleStep>,
    /// The overtaking suffix: the victim stays pending and engaged at
    /// every state, and exactly `bypass` of these steps serve another
    /// process.
    pub overtaking: Vec<ScheduleStep>,
}

impl BypassWitness {
    /// The stem followed by the overtaking suffix — the full schedule
    /// shape [`crate::explore::replay`] accepts.
    pub fn schedule(&self) -> Vec<ScheduleStep> {
        let mut all = self.stem.clone();
        all.extend(self.overtaking.iter().copied());
        all
    }
}

impl fmt::Display for BypassWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "process {} is overtaken {} times while pending and engaged \
             (stem {} steps, overtaking {} steps)",
            self.victim,
            self.bypass,
            self.stem.len(),
            self.overtaking.len()
        )
    }
}

/// The outcome of a liveness check.
#[derive(Clone, Debug)]
pub enum LivenessVerdict {
    /// No weakly fair lasso starves any process. `bypass` is the
    /// bounded-bypass measurement: `Some(b)` when no pending-and-engaged
    /// waiter can be overtaken more than `b` times, `None` when unfair
    /// (but fair-terminating) overtaking is unbounded.
    StarvationFree {
        /// Max overtakes of an engaged waiter; `None` = unbounded.
        bypass: Option<u64>,
        /// A [`validate_bypass`]-checked schedule achieving the bound —
        /// present whenever `bypass` is `Some(b)` and some reachable
        /// state has a pending, engaged victim. Absent when bypass is
        /// unbounded, when no waiter ever engages, or — rare, and only
        /// under a symmetry quotient — when the quotient-derived
        /// schedule failed validation and rebuilding the exact graph to
        /// re-derive it exceeded the state budget (the bound itself is
        /// still reported; only its witness is forfeited).
        witness: Option<Box<BypassWitness>>,
    },
    /// Some process is starved by a weakly fair schedule; the witness
    /// lasso replays concretely.
    Starvable(Box<LassoWitness>),
}

/// The liveness checker's statistics: the one [`ExploreStats`] record,
/// summed over the per-victim graphs. The name stays because the checker
/// benchmark (`perfbench/`) names it.
pub type LivenessStats = ExploreStats;

/// The result of a liveness check: the verdict plus search statistics.
#[derive(Clone, Debug)]
pub struct LivenessReport {
    /// Starvation-free (with bypass bound) or starvable (with witness).
    pub verdict: LivenessVerdict,
    /// Search statistics, summed over every graph the check built.
    pub stats: ExploreStats,
    /// Victims analyzed (one representative per symmetry class when
    /// symmetry reduction is on; every process otherwise).
    pub victims: usize,
    /// State graphs built (victims sharing a quotient share a graph).
    pub graphs: usize,
}

impl LivenessReport {
    /// Whether the check found no fair starvation lasso.
    pub fn is_starvation_free(&self) -> bool {
        matches!(self.verdict, LivenessVerdict::StarvationFree { .. })
    }

    /// The starvation witness, if the verdict is starvable.
    pub fn witness(&self) -> Option<&LassoWitness> {
        match &self.verdict {
            LivenessVerdict::Starvable(w) => Some(w),
            LivenessVerdict::StarvationFree { .. } => None,
        }
    }

    /// The bypass bound of a starvation-free verdict (`None` if the
    /// verdict is starvable; `Some(None)` means bypass is unbounded).
    pub fn bypass(&self) -> Option<Option<u64>> {
        match &self.verdict {
            LivenessVerdict::StarvationFree { bypass, .. } => Some(*bypass),
            LivenessVerdict::Starvable(_) => None,
        }
    }

    /// The validated overtaking schedule behind a bounded-bypass
    /// measurement, when one exists (see
    /// [`LivenessVerdict::StarvationFree`]).
    pub fn bypass_witness(&self) -> Option<&BypassWitness> {
        match &self.verdict {
            LivenessVerdict::StarvationFree { witness, .. } => witness.as_deref(),
            LivenessVerdict::Starvable(_) => None,
        }
    }
}

/// Exhaustively checks the liveness property described by `spec` over
/// every interleaving (and crash pattern) of the processes: no weakly
/// fair lasso may keep any process pending forever, and the bypass of
/// engaged waiters is measured.
///
/// See the module docs for the victim-per-class strategy under symmetry
/// reduction (the classes are the processes that start identical) and
/// the liveness-safe ample mode under partial-order reduction; with both
/// flags off this is an exact check of the full graph.
/// `config.max_states` bounds **each** per-victim graph.
///
/// # Errors
///
/// Returns [`ExploreError::StateBudget`] when a graph outgrows the
/// budget, or a memory error. A starvation finding is **not** an error —
/// it is reported in the verdict, with its witness validated against the
/// un-reduced step semantics before being returned.
///
/// # Panics
///
/// Panics on an internal inconsistency (a witness derived on an exact
/// graph that fails concrete validation — which the engine's invariants
/// rule out).
pub fn check_liveness<P>(
    memory: Memory,
    procs: Vec<P>,
    config: ExploreConfig,
    spec: &LivenessSpec<'_, P>,
) -> Result<LivenessReport, ExploreError>
where
    P: Process + Clone + Eq + Hash,
{
    let n = procs.len();
    // "Starvation of any class member ⇔ starvation of the class
    // representative" holds because the members start identical:
    // permuting them maps the root to itself.
    let classes = SymmetryGroup::of_identical(&procs);
    let use_sym = config.symmetry && !classes.is_trivial();

    // Victim sets, each with the quotient that pins its victims: one
    // representative per class (peers merge under the class
    // stabilizer), every unclassed process under the whole group.
    let victim_sets: Vec<(SymmetryGroup, Vec<usize>)> = if use_sym {
        let mut in_class = vec![false; n];
        let mut sets = Vec::new();
        for class in classes.classes() {
            for &i in class {
                in_class[i] = true;
            }
            sets.push((classes.stabilizer(class[0]), vec![class[0]]));
        }
        let singles: Vec<usize> = (0..n).filter(|&i| !in_class[i]).collect();
        if !singles.is_empty() {
            sets.push((classes.clone(), singles));
        }
        sets
    } else {
        vec![(SymmetryGroup::trivial(n), (0..n).collect())]
    };

    // The outer span wraps every per-victim graph build, SCC pass, and
    // witness validation; its wall time is what the report's stats
    // carry. Spans opened by the builder (liveness-graph,
    // extract-automaton) and the per-victim passes nest inside it.
    // `runtime` + ambient install means the env-hook sinks see the
    // wrapper span too, and the builder attaches nothing on top.
    let tel = telemetry::runtime();
    let _tel_guard = telemetry::install(&tel);
    let check_span = tel.span(Phase::LivenessCheck);
    let check = Check {
        memory: &memory,
        procs: &procs,
        config,
        spec,
        tel: &tel,
    };
    let mut stats = ExploreStats::default();
    let (mut victims, mut graphs) = (0, 0);
    let mut bypass: Option<u64> = Some(0);
    let mut bypass_witness: Option<Box<BypassWitness>> = None;
    // The exact graph that settles quotient artifacts is
    // victim-independent, so it is built at most once per check.
    let mut exact = None;
    for (group, victim_set) in victim_sets {
        let (builder, graph) = check.graph(group, &mut stats, &mut graphs)?;
        for v in victim_set {
            victims += 1;
            let settled = match check.settle(&builder, &graph, v, bypass.is_some()) {
                Ok(settled) => settled,
                Err(Artifact { bound }) => {
                    assert!(
                        builder.is_quotient(),
                        "witnesses derived on an exact graph validate"
                    );
                    let trivial = SymmetryGroup::trivial(n);
                    let exact =
                        exact.get_or_insert_with(|| check.graph(trivial, &mut stats, &mut graphs));
                    match (exact, bound) {
                        (Ok((builder, graph)), _) => check
                            .settle(builder, graph, v, bypass.is_some())
                            .expect("witnesses derived on an exact graph validate"),
                        (Err(e), None) => return Err(e.clone()),
                        // A failed bypass witness forfeits only the witness.
                        (Err(_), Some(b)) => Settled::Free(Some(b), None),
                    }
                }
            };
            match settled {
                Settled::Starvable(witness) => {
                    stats.wall_ns = check_span.finish(stats.sample());
                    return Ok(LivenessReport {
                        verdict: LivenessVerdict::Starvable(Box::new(witness)),
                        stats,
                        victims,
                        graphs,
                    });
                }
                Settled::Free(bound, witness) => match (bypass, bound) {
                    (Some(a), Some(b)) => {
                        if b > a || (b == a && bypass_witness.is_none()) {
                            bypass_witness = witness.map(Box::new);
                        }
                        bypass = Some(a.max(b));
                    }
                    _ => (bypass, bypass_witness) = (None, None),
                },
            }
        }
    }
    stats.wall_ns = check_span.finish(stats.sample());
    Ok(LivenessReport {
        verdict: LivenessVerdict::StarvationFree {
            bypass,
            witness: bypass_witness,
        },
        stats,
        victims,
        graphs,
    })
}

#[cfg(test)]
thread_local! {
    /// The planted quotient-artifact fault, armed per thread by the unit
    /// tests: while set, every witness derived on a non-trivial quotient
    /// fails validation, which drives each victim through the
    /// exact-graph fallback that no correct quotient reaches.
    static REJECT_QUOTIENT_WITNESSES: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// How one victim settles on one liveness graph.
enum Settled {
    /// A fair candidate concretized into a validated lasso.
    Starvable(LassoWitness),
    /// No fair candidate. The victim's bypass bound (`None` when it is
    /// unbounded, or when it was not measured because the check's bound
    /// already is) and, for a finite bound, the validated witness — absent
    /// when no reachable state has the victim pending and engaged.
    Free(Option<u64>, Option<BypassWitness>),
}

/// A fair candidate set with no valid member, or a bypass witness that
/// failed validation — which only a non-trivial quotient's slot labels
/// can cause.
#[derive(Debug)]
struct Artifact {
    /// The quotient's finite bypass bound, when only the witness failed.
    bound: Option<u64>,
}

/// What one liveness check builds its graphs from and settles its victims
/// against.
struct Check<'c, 's, P> {
    memory: &'c Memory,
    procs: &'c [P],
    config: ExploreConfig,
    spec: &'c LivenessSpec<'s, P>,
    tel: &'c Telemetry,
}

impl<'s, P: Process + Clone + Eq + Hash> Check<'_, 's, P> {
    /// Builds one labeled liveness graph over the unified traversal
    /// driver: the liveness-safe ample mode (hence BFS order and recorded
    /// edges), service labels from the spec, and the spec's normalizer.
    /// Returns it with the driver, which concretizes its paths. Sums the
    /// traversal's counters into `stats` and counts the graph in `graphs`.
    fn graph(
        &self,
        group: SymmetryGroup,
        stats: &mut ExploreStats,
        graphs: &mut usize,
    ) -> Result<(GraphBuilder<'s, P>, BuiltGraph<P>), ExploreError> {
        let traversal = TraversalSpec {
            ample_mode: AmpleMode::Liveness,
            symmetry: group,
            normalizer: self.spec.normalize,
            served: Some(self.spec.served),
        };
        let mut builder = GraphBuilder::new(
            self.memory.clone(),
            self.config,
            traversal,
            self.procs.len(),
        );
        let (graph, t) = builder.build_graph(self.procs.to_vec())?;
        stats.states += t.states;
        stats.transitions += t.transitions;
        stats.terminals += t.terminals;
        stats.states_pruned_por += t.states_pruned_por;
        stats.orbits_merged += t.orbits_merged;
        stats.footprint.accumulate(&t.footprint);
        *graphs += 1;
        Ok((builder, graph))
    }

    /// Settles `victim` on `graph`, which `builder` built. Each fair
    /// candidate SCC is concretized as one lap and validated; the first
    /// that validates starves the victim. With no candidate, the victim's
    /// bypass is measured (unless `with_bypass` is off because the check's
    /// bound is already unbounded) and a finite bound's witness is
    /// concretized and validated.
    ///
    /// # Errors
    ///
    /// An [`Artifact`] when candidates exist but none validates, or when
    /// the bypass witness fails validation.
    fn settle(
        &self,
        builder: &GraphBuilder<'_, P>,
        graph: &BuiltGraph<P>,
        victim: usize,
        with_bypass: bool,
    ) -> Result<Settled, Artifact> {
        let valid = |validation: Result<(), String>| {
            #[cfg(test)]
            if builder.is_quotient() && REJECT_QUOTIENT_WITNESSES.with(std::cell::Cell::get) {
                return false;
            }
            validation.is_ok()
        };
        let scc_span = self.tel.span(Phase::SccAnalysis);
        let (pending, engaged) = victim_masks(graph, victim, self.spec);
        let candidates = find_fair_starvation(graph, &pending);
        scc_span.finish(Snapshot {
            states: graph.len() as u64,
            ..Snapshot::default()
        });
        if !candidates.is_empty() {
            let witness_span = self.tel.span(Phase::WitnessValidation);
            let lasso = candidates
                .iter()
                .map(|scc| extract_witness(builder, graph, scc, victim, self.procs))
                .find(|w| valid(validate_lasso(self.memory, self.procs, w, self.spec)));
            witness_span.finish(Snapshot {
                states: candidates.len() as u64,
                ..Snapshot::default()
            });
            return lasso
                .map(Settled::Starvable)
                .ok_or(Artifact { bound: None });
        }
        if !with_bypass {
            return Ok(Settled::Free(None, None));
        }
        let (bound, plan) = measure_bypass(graph, victim, &engaged);
        let (Some(b), Some(plan)) = (bound, plan) else {
            return Ok(Settled::Free(bound, None));
        };
        // The stem to the plan's start node, then the overtaking suffix
        // along its hops, both concretized like a lasso, so every hop has
        // a concrete realization. The witness claims `b` overtakes; on a
        // stabilizer quotient a slot label can in principle mislabel a
        // serve, so a witness that fails validation is an artifact.
        let (stem, overtaking) = concretize(builder, graph, self.procs, plan.start, &plan.hops);
        let witness = BypassWitness {
            victim: ProcessId::new(victim as u32),
            bypass: b,
            stem,
            overtaking,
        };
        let validation = validate_bypass(self.memory, self.procs, &witness, self.spec);
        if !valid(validation) {
            return Err(Artifact { bound });
        }
        Ok(Settled::Free(bound, Some(witness)))
    }
}

/// Strongly connected components in Tarjan's emission order, held flat:
/// component `k`'s members are `members[offsets[k]..offsets[k + 1]]`, in
/// the order they left Tarjan's stack.
struct Sccs {
    members: Vec<u32>,
    offsets: Vec<u32>,
}

impl Sccs {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Component `k`'s members.
    fn get(&self, k: usize) -> &[u32] {
        &self.members[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(|k| self.get(k))
    }
}

/// Strongly connected components of the subgraph induced by `active`
/// nodes, via iterative Tarjan. Emitted in reverse topological order of
/// the condensation (every SCC before each of its predecessors).
fn tarjan_sccs(edges: &EdgeArena, active: &[bool]) -> Sccs {
    const UNSEEN: u32 = u32::MAX;
    let n = active.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut sccs = Sccs {
        members: Vec::new(),
        offsets: vec![0],
    };
    let mut next = 0u32;
    let mut call: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if !active[start] || index[start] != UNSEEN {
            continue;
        }
        call.push((start, 0));
        while let Some(frame) = call.last_mut() {
            let v = frame.0;
            if index[v] == UNSEEN {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v as u32);
                on_stack[v] = true;
            }
            let mut descend = None;
            while frame.1 < edges.degree(v) {
                let w = edges.edge(v, frame.1).to as usize;
                frame.1 += 1;
                if !active[w] {
                    continue;
                }
                if index[w] == UNSEEN {
                    descend = Some(w);
                    break;
                }
                if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if let Some(w) = descend {
                call.push((w, 0));
                continue;
            }
            call.pop();
            if let Some(&(p, _)) = call.last() {
                low[p] = low[p].min(low[v]);
            }
            if low[v] == index[v] {
                loop {
                    let w = stack.pop().expect("Tarjan stack holds the SCC");
                    on_stack[w as usize] = false;
                    sccs.members.push(w);
                    if w as usize == v {
                        break;
                    }
                }
                sccs.offsets.push(sccs.members.len() as u32);
            }
        }
    }
    sccs
}

/// Marks the nodes where `victim` is running and pending, and those where
/// it is also engaged. `pending` and `engaged` are evaluated once per
/// local state of the graph's table; each node contributes the victim's
/// status and slot, read from its record in place.
pub(crate) fn victim_masks<P: Process + Clone + Eq + Hash>(
    g: &BuiltGraph<P>,
    victim: usize,
    spec: &LivenessSpec<'_, P>,
) -> (Vec<bool>, Vec<bool>) {
    let per_slot: Vec<(bool, bool)> = (0..g.store.local_states() as u32)
        .map(|slot| {
            let p = g.store.local(slot);
            let pending = (spec.pending)(p);
            (pending, pending && (spec.engaged)(p))
        })
        .collect();
    (0..g.len() as u32)
        .map(|id| {
            if g.store.status_at(id, victim).runnable() {
                per_slot[g.store.slot_at(id, victim) as usize]
            } else {
                (false, false)
            }
        })
        .unzip()
}

/// Finds the weakly fair SCCs that starve the victim: nontrivial SCCs
/// of the subgraph of `pending` nodes (where the victim is running and
/// pending) whose internal step edges cover every running process.
///
/// Under a symmetry quotient the edge labels are canonical *slots*, not
/// concrete process identities — one concrete process's steps can show
/// up under several slots as its peers permute around it — so coverage
/// here is a candidate test, not a proof: the settle routine confirms a
/// returned SCC by concretizing it as one lap and [`validate_lasso`]-ing
/// it, and settles the victim on the exact graph when no candidate
/// survives. Without symmetry the labels are concrete and the test is
/// exact.
fn find_fair_starvation<P>(g: &BuiltGraph<P>, pending: &[bool]) -> Vec<Vec<u32>>
where
    P: Process + Clone + Eq + Hash,
{
    let n = g.store.processes();
    let mut fair = Vec::new();
    let mut member = vec![false; g.len()];
    let mut covered = vec![false; n];
    'sccs: for scc in tarjan_sccs(&g.edges, pending).iter() {
        for &v in scc {
            member[v as usize] = true;
        }
        covered.fill(false);
        let mut nontrivial = scc.len() > 1;
        for &v in scc {
            for e in g.edges.edges(v as usize) {
                if member[e.to as usize] {
                    debug_assert!(!e.crash, "crash edges cannot close cycles");
                    covered[e.pid as usize] = true;
                    nontrivial = true;
                }
            }
        }
        for &v in scc {
            member[v as usize] = false;
        }
        if !nontrivial {
            continue;
        }
        // Statuses are constant across an SCC (Done/Crashed absorb, and
        // a crash edge cannot be internal: the crash budget decreases),
        // so the fairness obligation can be read off any member's record.
        for (q, &stepped) in covered.iter().enumerate() {
            if !stepped && g.store.status_at(scc[0], q).runnable() {
                continue 'sccs; // some running process is denied steps: unfair
            }
        }
        fair.push(scc.to_vec());
    }
    fair
}

/// A canonical-level bypass path: the node the overtaking run starts at
/// (the stem target) and its hops, each `(target node, pid hint)` — the
/// shape the settle routine turns into a [`BypassWitness`] through
/// [`concretize`].
#[derive(Clone, Debug)]
struct BypassPlan {
    start: u32,
    hops: Vec<(u32, u32)>,
}

/// Measures the bypass bound of `victim` on the subgraph of `active`
/// nodes (where the victim is running, pending and engaged) — `None`
/// (unbounded) iff some SCC of that subgraph contains a
/// service-by-other edge, else the longest service-weighted path over
/// the SCC condensation — together with a [`BypassPlan`] tracing a path
/// that achieves the bound (absent when the bound is unbounded, or when
/// no reachable state has the victim pending and engaged).
fn measure_bypass<P>(
    g: &BuiltGraph<P>,
    victim: usize,
    active: &[bool],
) -> (Option<u64>, Option<BypassPlan>)
where
    P: Process + Clone + Eq + Hash,
{
    let weight = |e: &GEdge| u64::from(e.served && !e.crash && e.pid as usize != victim);

    let sccs = tarjan_sccs(&g.edges, active);
    let mut scc_id = vec![u32::MAX; g.len()];
    for (k, scc) in sccs.iter().enumerate() {
        for &v in scc {
            scc_id[v as usize] = k as u32;
        }
    }
    // Tarjan emits successors first, so one pass in emission order sees
    // every successor component's best value before its predecessors.
    // `choice[k]` remembers the outgoing edge achieving `best[k]`, for
    // path reconstruction.
    let mut best = vec![0u64; sccs.len()];
    let mut choice: Vec<Option<(u32, usize)>> = vec![None; sccs.len()];
    let mut answer = 0u64;
    let mut arg: Option<usize> = None;
    for (k, scc) in sccs.iter().enumerate() {
        let mut b = 0u64;
        let mut ch = None;
        for &v in scc {
            for (ei, e) in g.edges.edges(v as usize).enumerate() {
                if !active[e.to as usize] {
                    continue;
                }
                let m = scc_id[e.to as usize] as usize;
                if m == k {
                    if weight(&e) > 0 {
                        return (None, None); // pumpable overtaking cycle
                    }
                } else {
                    let cand = weight(&e) + best[m];
                    if cand > b {
                        b = cand;
                        ch = Some((v, ei));
                    }
                }
            }
        }
        best[k] = b;
        choice[k] = ch;
        if b > answer || arg.is_none() {
            answer = answer.max(b);
            arg = Some(k);
        }
    }

    // Trace out a path achieving `answer`: start inside the best SCC,
    // follow each component's chosen edge, routing between chosen edges
    // through intra-SCC hops (all weight 0, all active). `arg` is `None`
    // exactly when no reachable state is engaged-pending at all.
    let Some(start_scc) = arg else {
        return (Some(answer), None);
    };
    let mut hops: Vec<(u32, u32)> = Vec::new();
    let mut k = start_scc;
    let start = choice[k].map_or(sccs.get(k)[0], |(v, _)| v);
    let mut cur = start;
    let mut member = vec![false; g.len()];
    while let Some((v, ei)) = choice[k] {
        if cur != v {
            for &x in sccs.get(k) {
                member[x as usize] = true;
            }
            hops.extend(path_in_scc(g, &member, cur, v));
            for &x in sccs.get(k) {
                member[x as usize] = false;
            }
        }
        let e = g.edges.edge(v as usize, ei);
        hops.push((e.to, e.pid));
        cur = e.to;
        k = scc_id[cur as usize] as usize;
    }
    (Some(answer), Some(BypassPlan { start, hops }))
}

/// Concretizes a path of `g` from the initial state, walked by the driver
/// that built `g`: the creator-tree stem to `start`, then `hops` (each a
/// `(target node, pid hint)`). Returns the two schedule pieces.
fn concretize<P>(
    builder: &GraphBuilder<'_, P>,
    g: &BuiltGraph<P>,
    procs: &[P],
    start: u32,
    hops: &[(u32, u32)],
) -> (Vec<ScheduleStep>, Vec<ScheduleStep>)
where
    P: Process + Clone + Eq + Hash,
{
    let mut cur = builder.root_of(g, procs.to_vec());
    let stem_hops = g.creator_path(start).into_iter().map(|id| (id, None));
    let stem = builder.walk(g, &mut cur, stem_hops);
    let tail = builder.walk(g, &mut cur, hops.iter().map(|&(t, pid)| (t, Some(pid))));
    (stem, tail)
}

/// Rebuilds a concrete lasso from a fair-candidate SCC as one lap: the
/// creator-path stem to the SCC's first member, then the representative
/// loop once — one covering edge per running process, linked by BFS
/// paths inside the SCC, and closed back.
///
/// On an exact graph the lap returns to its entry state and steps every
/// running process, because edge labels are pids. On a quotient it may
/// end at a permuted sibling of its entry, or leave a process unstepped
/// whose hops an identical sibling absorbed; [`validate_lasso`] rejects
/// such a lap, and the settle routine re-runs the victim on the exact
/// graph.
fn extract_witness<P>(
    builder: &GraphBuilder<'_, P>,
    g: &BuiltGraph<P>,
    scc: &[u32],
    victim: usize,
    procs: &[P],
) -> LassoWitness
where
    P: Process + Clone + Eq + Hash,
{
    let mut member = vec![false; g.len()];
    for &v in scc {
        member[v as usize] = true;
    }
    let c0 = scc[0];
    let mut hops: Vec<(u32, u32)> = Vec::new(); // (target node, pid hint)
    let mut cur = c0;
    let running = (0..g.store.processes()).filter(|&q| g.store.status_at(c0, q).runnable());
    for q in running.map(|q| q as u32) {
        let (from, edge) = scc
            .iter()
            .flat_map(|&v| g.edges.edges(v as usize).map(move |e| (v, e)))
            .find(|(_, e)| member[e.to as usize] && !e.crash && e.pid == q)
            .expect("fair SCC covers every running process");
        hops.extend(path_in_scc(g, &member, cur, from));
        hops.push((edge.to, edge.pid));
        cur = edge.to;
    }
    hops.extend(path_in_scc(g, &member, cur, c0));
    assert!(!hops.is_empty(), "fair SCC yields a nonempty loop");

    let (stem, cycle) = concretize(builder, g, procs, c0, &hops);
    LassoWitness {
        victim: ProcessId::new(victim as u32),
        message: format!(
            "weak fairness does not save process {victim}: it stays pending around a \
             {}-step loop in which every running process keeps stepping",
            cycle.len()
        ),
        lasso: Lasso { stem, cycle },
    }
}

/// BFS path between two nodes inside an SCC, as (target, pid hint) hops.
fn path_in_scc<P>(g: &BuiltGraph<P>, member: &[bool], from: u32, to: u32) -> Vec<(u32, u32)> {
    if from == to {
        return Vec::new();
    }
    let mut prev: HashMap<u32, (u32, u32)> = HashMap::new(); // node -> (pred, pid)
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        for e in g.edges.edges(v as usize) {
            if !member[e.to as usize] || e.to == from || prev.contains_key(&e.to) {
                continue;
            }
            prev.insert(e.to, (v, e.pid));
            if e.to == to {
                let mut hops = Vec::new();
                let mut cur = to;
                while cur != from {
                    let (p, pid) = prev[&cur];
                    hops.push((cur, pid));
                    cur = p;
                }
                hops.reverse();
                return hops;
            }
            queue.push_back(e.to);
        }
    }
    unreachable!("SCC members are mutually reachable")
}

/// Validates a starvation witness against the plain, un-reduced step
/// semantics: the stem must [`replay`] cleanly; the loop must return to
/// its entry state (modulo the spec's normalizer); the victim must be
/// running and pending at every state of the loop; and every process
/// running in the loop must take at least one step per revolution (weak
/// fairness). This is exactly the meaning of "`victim` is starved by a
/// weakly fair schedule", checked with no reduction in the loop.
///
/// # Errors
///
/// Returns a description of the first property the lasso fails.
pub fn validate_lasso<P>(
    memory: &Memory,
    procs: &[P],
    witness: &LassoWitness,
    spec: &LivenessSpec<'_, P>,
) -> Result<(), String>
where
    P: Process + Clone + Eq + Hash,
{
    if witness.lasso.cycle.is_empty() {
        return Err("empty loop".into());
    }
    let start = replay(memory.clone(), procs.to_vec(), &witness.lasso.stem)
        .map_err(|e| format!("stem does not replay: {e}"))?;
    let v = witness.victim.index();
    let pending = |run: &Replayed<P>| run.status[v].runnable() && (spec.pending)(&run.procs[v]);

    let mut run = start.clone();
    let mut stepped = vec![false; procs.len()];
    for (k, &s) in witness.lasso.cycle.iter().enumerate() {
        if !pending(&run) {
            return Err(format!("victim not pending at loop step {k}"));
        }
        let ScheduleStep::Step(pid) = s else {
            return Err(format!("crash inside the loop at step {k}"));
        };
        run.step(s)
            .map_err(|e| format!("loop step {k} does not replay: {e}"))?;
        stepped[pid.index()] = true;
    }
    if !pending(&run) {
        return Err("victim not pending at loop close".into());
    }
    for (q, st) in start.status.iter().enumerate() {
        if st.runnable() && !stepped[q] {
            return Err(format!("loop is not weakly fair: process {q} never steps"));
        }
    }
    if run.status != start.status {
        return Err("loop changes liveness statuses".into());
    }

    // Closure modulo the normalizer: the loop must return to a state the
    // checked semantics cannot distinguish from its entry.
    let (mut a, mut b) = (start, run);
    if let Some(f) = spec.normalize {
        f(&mut a.procs, a.memory.values_mut());
        f(&mut b.procs, b.memory.values_mut());
    }
    if a.procs != b.procs || a.memory != b.memory {
        return Err("loop does not return to its entry state".into());
    }
    Ok(())
}

/// Validates a bypass witness against the plain, un-reduced step
/// semantics, mirroring [`validate_lasso`]: the stem must [`replay`]
/// cleanly to a state where the victim is running, pending, **and**
/// engaged; the overtaking suffix must keep the victim pending and
/// engaged at every state; and the number of steps in which another
/// process is served — counted here independently, by re-executing the
/// schedule — must equal the witness's claimed `bypass`. This is
/// exactly the meaning of "`victim` completes its doorway and is then
/// overtaken `bypass` times", checked with no reduction in the loop.
///
/// # Errors
///
/// Returns a description of the first property the witness fails.
pub fn validate_bypass<P>(
    memory: &Memory,
    procs: &[P],
    witness: &BypassWitness,
    spec: &LivenessSpec<'_, P>,
) -> Result<(), String>
where
    P: Process + Clone + Eq + Hash,
{
    let mut run = replay(memory.clone(), procs.to_vec(), &witness.stem)
        .map_err(|e| format!("stem does not replay: {e}"))?;
    let v = witness.victim.index();
    let check = |run: &Replayed<P>, at: &str| -> Result<(), String> {
        if !run.status[v].runnable() {
            return Err(format!("victim not running {at}"));
        }
        if !(spec.pending)(&run.procs[v]) {
            return Err(format!("victim not pending {at}"));
        }
        if !(spec.engaged)(&run.procs[v]) {
            return Err(format!("victim not engaged {at}"));
        }
        Ok(())
    };
    check(&run, "after the stem")?;

    let mut overtakes = 0u64;
    for (k, &s) in witness.overtaking.iter().enumerate() {
        // The local state before the step of an overtaking candidate.
        let before = match s {
            ScheduleStep::Step(pid) if pid.index() != v => {
                run.procs.get(pid.index()).map(|p| (pid.index(), p.clone()))
            }
            _ => None,
        };
        run.step(s)
            .map_err(|e| format!("overtaking step {k} does not replay: {e}"))?;
        if let Some((i, before)) = before {
            overtakes += u64::from((spec.served)(&before, &run.procs[i]));
        }
        check(&run, &format!("at overtaking step {}", k + 1))?;
    }
    if overtakes != witness.bypass {
        return Err(format!(
            "schedule overtakes the victim {overtakes} times, witness claims {}",
            witness.bypass
        ));
    }
    Ok(())
}

/// The [`LivenessSpec`] of naming: a walker is pending and engaged until
/// it decides a name, and served when it does.
pub(crate) fn naming_spec<'a, P: Process>() -> LivenessSpec<'a, P> {
    LivenessSpec {
        pending: &|p: &P| p.output().is_none(),
        engaged: &|p: &P| p.output().is_none(),
        served: &|before: &P, after: &P| before.output().is_none() && after.output().is_some(),
        normalize: None,
    }
}

/// The [`LivenessSpec`] of mutual exclusion over cycling clients.
pub(crate) fn mutex_spec<'a, L>(
    normalize: Option<NormalizeFn<'a, MutexClient<L>>>,
) -> LivenessSpec<'a, MutexClient<L>>
where
    L: cfc_mutex::LockProcess + 'static,
{
    LivenessSpec {
        pending: &|c: &MutexClient<L>| c.section() == Some(Section::Entry),
        engaged: &|c: &MutexClient<L>| c.engaged(),
        served: &|before: &MutexClient<L>, after: &MutexClient<L>| {
            before.section() != Some(Section::Critical)
                && after.section() == Some(Section::Critical)
        },
        normalize,
    }
}

/// Exhaustively checks a mutual-exclusion algorithm for **starvation
/// freedom under weak fairness**, and measures its **bypass bound**.
///
/// The system is the algorithm's full set of clients cycling through
/// entry → critical section (one observable step) → exit **forever**:
/// its fair infinite behaviors are exactly the fair cycles of the finite
/// state graph, which [`check_liveness`] hunts per victim (one per
/// class of identical clients under `config.symmetry`, with the victim
/// pinned by the class stabilizer). Algorithms with unbounded auxiliary
/// state supply a [`cfc_mutex::StateNormalizer`] (the bakery's ticket
/// shift) to keep the graph finite.
///
/// Expected classifications, asserted in `tests/liveness.rs` and
/// `tests/starvation.rs`: Peterson starvation-free with bypass bound 1;
/// the bakery starvation-free (FCFS); Lamport's fast mutex and the plain
/// test-and-set lock starvable, each with a concrete validated lasso;
/// tournaments starvation-free level by level.
///
/// # Errors
///
/// Budget or memory errors, as [`check_liveness`].
pub fn check_mutex_starvation<A>(
    alg: &A,
    config: ExploreConfig,
) -> Result<LivenessReport, ExploreError>
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + Hash + 'static,
{
    let memory = alg.memory().map_err(ExploreError::Memory)?;
    let clients: Vec<_> = (0..alg.n() as u32)
        .map(|i| alg.client_cycling(ProcessId::new(i), 1))
        .collect();
    let normalizer = alg.liveness_normalizer();
    let spec = mutex_spec(
        normalizer
            .as_deref()
            .map(|f| f as &dyn Fn(&mut [MutexClient<A::Lock>], &mut [Value])),
    );
    check_liveness(memory, clients, config, &spec)
}

/// Exhaustively checks a naming algorithm for **lockout freedom**: no
/// weakly fair schedule (with up to `max_crashes` crashes) keeps a
/// walker running-but-nameless forever.
///
/// The Section 3 algorithms are wait-free — every walker decides within
/// a bounded number of its *own* steps — so they pass outright: their
/// graphs contain no cycle in which an undecided walker steps at all.
/// The check still earns its keep as a differential oracle (a regression
/// that introduces a spin loop would surface here first) and reports the
/// naming analogue of bypass: how many peers can be named while a walker
/// is still undecided.
///
/// # Errors
///
/// Budget or memory errors, as [`check_liveness`].
pub fn check_naming_lockout<A>(
    alg: &A,
    max_crashes: u32,
    config: ExploreConfig,
) -> Result<LivenessReport, ExploreError>
where
    A: NamingAlgorithm,
    A::Proc: Clone + Eq + Hash,
{
    let memory = alg.memory().map_err(ExploreError::Memory)?;
    let config = config.with_max_crashes(max_crashes);
    check_liveness(memory, alg.processes(), config, &naming_spec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_mutex::{Bakery, LamportFast, PetersonTwo, TasSpin};
    use cfc_naming::{TafTree, TasScan};

    /// Runs `f` with the planted quotient-artifact fault armed on this
    /// thread: every witness derived on a non-trivial quotient fails
    /// validation.
    fn with_quotient_witnesses_rejected<T>(f: impl FnOnce() -> T) -> T {
        REJECT_QUOTIENT_WITNESSES.with(|r| r.set(true));
        let out = f();
        REJECT_QUOTIENT_WITNESSES.with(|r| r.set(false));
        out
    }

    /// The cycling clients of a mutex algorithm, as the checker builds
    /// them.
    fn clients<A: MutexAlgorithm>(alg: &A) -> Vec<MutexClient<A::Lock>> {
        (0..alg.n() as u32)
            .map(|i| alg.client_cycling(ProcessId::new(i), 1))
            .collect()
    }

    /// Symmetry reduction alone: TasSpin's spinners form one class, so
    /// its one victim is settled on the victim's stabilizer quotient.
    fn symmetric() -> ExploreConfig {
        ExploreConfig {
            symmetry: true,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn quotient_lasso_artifacts_settle_on_the_exact_graph() {
        let alg = TasSpin::new(3);
        let plain = check_mutex_starvation(&alg, symmetric()).unwrap();
        let hooked =
            with_quotient_witnesses_rejected(|| check_mutex_starvation(&alg, symmetric())).unwrap();
        let witness = hooked
            .witness()
            .expect("tas-spin starves on the exact graph");
        let memory = alg.memory().unwrap();
        validate_lasso(&memory, &clients(&alg), witness, &mutex_spec(None)).unwrap();
        assert_eq!(hooked.victims, plain.victims);
        assert_eq!(hooked.graphs, plain.graphs + 1, "one exact graph on top");
    }

    #[test]
    fn quotient_bypass_artifacts_settle_on_the_exact_graph() {
        let alg = TafTree::new(4).unwrap();
        let check = || check_naming_lockout(&alg, 0, ExploreConfig::reduced());
        let plain = check().unwrap();
        let hooked = with_quotient_witnesses_rejected(check).unwrap();
        assert!(plain.bypass().unwrap().is_some(), "wait-free => bounded");
        assert_eq!(hooked.bypass(), plain.bypass());
        let witness = hooked
            .bypass_witness()
            .expect("the exact graph derives a witness");
        validate_bypass(
            &alg.memory().unwrap(),
            &alg.processes(),
            witness,
            &naming_spec(),
        )
        .unwrap();
        assert_eq!(hooked.graphs, plain.graphs + 1, "one exact graph on top");
    }

    /// A budget that fits each quotient but not its exact graph: a
    /// starvation artifact propagates the exact graph's budget error,
    /// while a bypass-witness artifact keeps the bound and forfeits only
    /// the witness.
    #[test]
    fn exact_fallback_budget_keeps_each_callers_contract() {
        let alg = TasSpin::new(3);
        let quotient = check_mutex_starvation(&alg, symmetric())
            .unwrap()
            .stats
            .states;
        let exact = check_mutex_starvation(&alg, ExploreConfig::default())
            .unwrap()
            .stats
            .states;
        assert!(quotient < exact, "{quotient} vs {exact}");
        let config = symmetric().with_max_states(quotient);
        let err = with_quotient_witnesses_rejected(|| check_mutex_starvation(&alg, config));
        assert!(matches!(err, Err(ExploreError::StateBudget(_))), "{err:?}");

        let alg = TafTree::new(4).unwrap();
        let plain = check_naming_lockout(&alg, 0, ExploreConfig::reduced()).unwrap();
        let unsym = ExploreConfig {
            symmetry: false,
            ..ExploreConfig::reduced()
        };
        let exact = check_naming_lockout(&alg, 0, unsym).unwrap().stats.states;
        assert!(
            plain.stats.states < exact,
            "{} vs {exact}",
            plain.stats.states
        );
        let config = ExploreConfig::reduced().with_max_states(plain.stats.states);
        let hooked =
            with_quotient_witnesses_rejected(|| check_naming_lockout(&alg, 0, config)).unwrap();
        assert_eq!(hooked.bypass(), plain.bypass());
        assert!(
            hooked.bypass_witness().is_none(),
            "only the witness is forfeited"
        );
    }

    #[test]
    fn tas_spin_is_starvable_with_a_validated_lasso() {
        let alg = TasSpin::new(2);
        let report = check_mutex_starvation(&alg, ExploreConfig::default()).unwrap();
        let witness = report.witness().expect("tas-spin must starve");
        assert!(!witness.lasso.cycle.is_empty());
        // The loop keeps the victim out while the winner cycles; the
        // victim's own spin steps are part of the loop (weak fairness).
        let v = witness.victim;
        assert!(witness
            .lasso
            .cycle
            .iter()
            .any(|s| matches!(s, ScheduleStep::Step(p) if *p == v)));
        assert!(witness
            .lasso
            .cycle
            .iter()
            .any(|s| matches!(s, ScheduleStep::Step(p) if *p != v)));
        // And it replays: the stem plus one revolution is a plain
        // schedule of the un-reduced semantics.
        replay(
            alg.memory().unwrap(),
            clients(&alg),
            &witness.lasso.unrolled(),
        )
        .unwrap();
    }

    #[test]
    fn peterson_is_starvation_free_with_bypass_one() {
        let alg = PetersonTwo::new();
        let report = check_mutex_starvation(&alg, ExploreConfig::default()).unwrap();
        assert!(report.is_starvation_free());
        assert_eq!(report.bypass(), Some(Some(1)));
        assert_eq!(report.victims, 2);
        // The measured bound is backed by a validated witness: a concrete
        // schedule in which an engaged waiter really is overtaken once.
        let witness = report.bypass_witness().expect("bounded bypass => witness");
        assert_eq!(witness.bypass, 1);
        let clients = clients(&alg);
        validate_bypass(&alg.memory().unwrap(), &clients, witness, &mutex_spec(None)).unwrap();
    }

    #[test]
    fn tampered_bypass_witnesses_are_rejected() {
        let alg = PetersonTwo::new();
        let report = check_mutex_starvation(&alg, ExploreConfig::default()).unwrap();
        let witness = report.bypass_witness().unwrap().clone();
        let clients = clients(&alg);
        let spec = mutex_spec(None);
        let memory = alg.memory().unwrap();
        validate_bypass(&memory, &clients, &witness, &spec).unwrap();

        // Claiming one more overtake than the schedule performs fails the
        // independent recount.
        let mut inflated = witness.clone();
        inflated.bypass += 1;
        let err = validate_bypass(&memory, &clients, &inflated, &spec).unwrap_err();
        assert!(err.contains("overtakes"), "{err}");

        // Dropping the stem leaves the victim un-engaged.
        let mut stemless = witness.clone();
        stemless.stem.clear();
        let err = validate_bypass(&memory, &clients, &stemless, &spec).unwrap_err();
        assert!(err.contains("engaged") || err.contains("pending"), "{err}");

        // Dropping the overtaking suffix breaks the independent recount:
        // zero observed overtakes cannot back a claimed bound of one.
        let mut truncated = witness;
        truncated.overtaking.clear();
        let err = validate_bypass(&memory, &clients, &truncated, &spec).unwrap_err();
        assert!(err.contains("overtakes the victim 0 times"), "{err}");
    }

    #[test]
    fn lamport_fast_is_starvable() {
        let report =
            check_mutex_starvation(&LamportFast::new(2), ExploreConfig::default()).unwrap();
        let witness = report.witness().expect("lamport-fast must starve");
        assert!(witness.message.contains("pending"));
    }

    #[test]
    fn bakery_is_starvation_free_via_the_ticket_quotient() {
        let alg = Bakery::new(2);
        let report = check_mutex_starvation(&alg, ExploreConfig::default()).unwrap();
        assert!(report.is_starvation_free());
        // The witness schedule was derived through the ticket-shift
        // quotient but must validate against the raw semantics.
        let witness = report.bypass_witness().expect("bounded bypass => witness");
        assert_eq!(witness.bypass, 2);
        let clients = clients(&alg);
        validate_bypass(&alg.memory().unwrap(), &clients, witness, &mutex_spec(None)).unwrap();
        // FCFS protects doorway-*completed* waiters, and bypass counting
        // starts earlier (at the victim's first entry step), so the lone
        // competitor overtakes exactly twice: once from a gate check
        // already in flight, and once more by re-running its doorway
        // while the victim is still mid-scan (the victim's `number` is
        // still 0, so the competitor draws a smaller ticket). The
        // victim's own ticket then blocks any third pass.
        assert_eq!(report.bypass(), Some(Some(2)));
    }

    #[test]
    fn naming_walkers_are_lockout_free() {
        let alg = TasScan::new(3);
        let report = check_naming_lockout(&alg, 1, ExploreConfig::default()).unwrap();
        assert!(report.is_starvation_free());
        // The naming bypass bound carries a witness too, validated under
        // the naming spec (pending = engaged = still nameless).
        let witness = report.bypass_witness().expect("bounded => witness");
        validate_bypass(
            &alg.memory().unwrap(),
            &alg.processes(),
            witness,
            &naming_spec(),
        )
        .unwrap();
        let report =
            check_naming_lockout(&TafTree::new(4).unwrap(), 0, ExploreConfig::reduced()).unwrap();
        assert!(report.is_starvation_free());
        // Wait-freedom bounds the naming analogue of bypass by n - 1.
        let bypass = report.bypass().unwrap().expect("wait-free => bounded");
        assert!(bypass <= 3);
    }

    #[test]
    fn tampered_witnesses_are_rejected() {
        let alg = TasSpin::new(2);
        let report = check_mutex_starvation(&alg, ExploreConfig::default()).unwrap();
        let witness = report.witness().unwrap().clone();
        let clients = clients(&alg);
        let spec = mutex_spec(None);
        validate_lasso(&alg.memory().unwrap(), &clients, &witness, &spec).unwrap();

        // Dropping the loop's tail breaks closure.
        let mut truncated = witness.clone();
        truncated.lasso.cycle.pop();
        assert!(validate_lasso(&alg.memory().unwrap(), &clients, &truncated, &spec).is_err());

        // An empty loop is not an infinite run.
        let mut empty = witness.clone();
        empty.lasso.cycle.clear();
        assert_eq!(
            validate_lasso(&alg.memory().unwrap(), &clients, &empty, &spec),
            Err("empty loop".into())
        );

        // A loop that drops one process's steps is unfair.
        let mut unfair = witness;
        let v = unfair.victim;
        unfair
            .lasso
            .cycle
            .retain(|s| matches!(s, ScheduleStep::Step(p) if *p != v));
        assert!(validate_lasso(&alg.memory().unwrap(), &clients, &unfair, &spec).is_err());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let err = check_mutex_starvation(
            &LamportFast::new(2),
            ExploreConfig::default().with_max_states(10),
        )
        .unwrap_err();
        assert!(matches!(err, ExploreError::StateBudget(_)));
    }
}

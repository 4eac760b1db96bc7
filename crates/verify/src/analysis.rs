//! Solo-execution control automata: static analysis of reduction hooks.
//!
//! The paper's central object is the *contention-free* execution — a
//! process running solo, with no interference. This module finally
//! materializes it: each process is stepped exhaustively over a *havoc*
//! memory ([`cfc_core::op_result_domain`]) in which every read may
//! return any value its register's layout width admits. The resulting
//! branching structure is the process's **control automaton**: one
//! location per distinguishable control point, each labeled with the
//! exact read/write [`Footprint`] of its current step.
//!
//! The tree is finitized by the [`Process::location`] hook: states
//! reporting the same location key are merged into one automaton
//! location (bakery projects its unbounded ticket values away here —
//! the same role the liveness engine's `StateNormalizer` plays for
//! state exploration, played instead at the control level so the
//! automaton stays consumable by partial-order reduction, which is
//! force-disabled under a normalizer). States without a location key
//! are keyed on their full value via `Eq`/`Hash`, which is always
//! sound and stays finite for processes that retain no wide data.
//!
//! Every branch is stepped — a bakery n=3 client's six 16-bit ticket
//! reads alone are 393,216 of them — so a branch must cost no
//! allocation. The domain is enumerated lazily, each branch is stepped
//! on one scratch successor reset from its location's representative
//! with `clone_from`, its footprint is refilled into one scratch
//! [`Footprint`], and location keys resolve in a `u64`-keyed map and a
//! by-state map under an in-repo multiply-xor hash, so a lookup never
//! clones a state. A branch clones only what it stores: a new location
//! or a new incongruence finding.
//!
//! Soundness of the construction: any run of the process embedded in an
//! arbitrary *concurrent* execution projects, step by step, to a path
//! of the automaton — every result a real memory can return is in the
//! havoc domain of the step's operation. Two analyses ride on that:
//!
//! * **The hook lint** ([`lint_model`]): for every location, the union
//!   of footprints reachable from it (the *future-access* fixpoint)
//!   must be contained in the hand-written [`Process::may_access`]
//!   over-approximation at that location, and [`Process::fingerprint`]
//!   must be injective across distinct locations. An unsound
//!   `may_access` hook would silently corrupt every reduced verdict;
//!   the lint catches it statically, before any state is explored.
//! * **Sharpened ample sets** ([`FutureIndex`], consumed by the engine
//!   under [`MayAccessMode::Automaton`]): the per-location
//!   future-access sets are *location-sensitive* where the hand-written
//!   hooks are whole-protocol-conservative (bakery's per-index waits,
//!   the splitter scan suffixes), so partial-order reduction finds
//!   independence the declared sets cannot express. Any lookup miss
//!   falls back to the declared hook, so the mode is never less sound —
//!   and with a clean lint, never less sharp — than
//!   [`MayAccessMode::Declared`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use cfc_core::{op_result_domain, Footprint, Layout, OpResult, Process, RegisterSet, Step};

use crate::hash::FastMap;
use crate::telemetry::{self, Phase, Snapshot};

/// Which future-access over-approximation ample-set selection consults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MayAccessMode {
    /// The hand-written [`Process::may_access`] hooks (the default, and
    /// the differential oracle for the automaton mode).
    #[default]
    Declared,
    /// Per-location future-access sets from the solo control automaton,
    /// extracted once per traversal; any state the automaton cannot
    /// resolve falls back to the declared hook.
    Automaton,
    /// Dynamic partial-order reduction: the automaton's future sets
    /// split into read and write components (independence instead of
    /// mere overlap against the candidate's footprint), plus sleep sets
    /// over the conflicts actually *observed* on explored paths (safety
    /// DFS only; see `cfc-verify::dynamic`). Falls back exactly like
    /// [`MayAccessMode::Automaton`] on any lookup miss.
    Dynamic,
}

/// Hard cap on automaton locations per process: a location hook that
/// fails to project wide data away diverges toward the full havoc tree,
/// and the analysis must refuse rather than enumerate it.
pub const MAX_LOCATIONS: usize = 1 << 16;

/// Why an automaton could not be extracted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtractError {
    /// A step's havoc result domain exceeds [`cfc_core::HAVOC_WIDTH_CAP`]
    /// bits at the given location.
    DomainTooWide {
        /// The automaton location whose step is too wide to enumerate.
        location: u32,
    },
    /// The extraction exceeded [`MAX_LOCATIONS`] distinct locations.
    TooManyLocations,
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::DomainTooWide { location } => write!(
                f,
                "havoc result domain at location {location} is too wide to enumerate \
                 (> 2^{} branches)",
                cfc_core::HAVOC_WIDTH_CAP
            ),
            ExtractError::TooManyLocations => write!(
                f,
                "more than {MAX_LOCATIONS} distinct locations; the location hook \
                 does not project unbounded data away"
            ),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Where local states resolve: by [`Process::location`] key when the
/// process provides one, by full value otherwise. Looking a state up
/// never clones it.
#[derive(Clone, Debug)]
struct Keyed<P, V> {
    by_loc: FastMap<u64, V>,
    by_state: FastMap<P, V>,
}

impl<P, V> Default for Keyed<P, V> {
    fn default() -> Self {
        Keyed {
            by_loc: FastMap::default(),
            by_state: FastMap::default(),
        }
    }
}

impl<P: Process + Clone + Eq + Hash, V> Keyed<P, V> {
    fn get(&self, state: &P) -> Option<&V> {
        match state.location() {
            Some(l) => self.by_loc.get(&l),
            None => self.by_state.get(state),
        }
    }

    fn get_mut(&mut self, state: &P) -> Option<&mut V> {
        match state.location() {
            Some(l) => self.by_loc.get_mut(&l),
            None => self.by_state.get_mut(state),
        }
    }

    /// Files `value` under `state`'s key, cloning the state only when it
    /// is keyed by value.
    fn insert(&mut self, state: &P, value: V) {
        match state.location() {
            Some(l) => self.by_loc.insert(l, value),
            None => self.by_state.insert(state.clone(), value),
        };
    }

    fn len(&self) -> usize {
        self.by_loc.len() + self.by_state.len()
    }
}

/// One control location: a representative local state, its current-step
/// footprint, its successor locations, and the future-access fixpoint.
#[derive(Clone, Debug, PartialEq)]
struct Location<P> {
    representative: P,
    footprint: Footprint,
    successors: Vec<u32>,
    future: RegisterSet,
    /// The same fixpoint with the read/write split retained:
    /// `future_rw.reads ∪ future_rw.writes == future`. Dynamic mode
    /// tests *independence* against this instead of mere overlap with
    /// the union — a candidate whose write set misses every future
    /// write and whose reads miss every future write stays ample even
    /// when both sides read a common register.
    future_rw: Footprint,
}

/// A per-process control automaton over havoc memory.
///
/// Locations are numbered in discovery order (breadth-first over an
/// insertion-ordered worklist, successors in havoc-domain order), so
/// extraction is fully deterministic — no `HashMap` iteration order
/// leaks into ids, successor lists, or findings.
#[derive(Clone, Debug)]
pub struct ControlAutomaton<P> {
    locations: Vec<Location<P>>,
    keys: Keyed<P, u32>,
    /// Locations reached by a state whose current-step footprint
    /// disagrees with the location's — a broken [`Process::location`]
    /// congruence contract, surfaced by the lint.
    incongruent: Vec<(u32, Footprint)>,
}

/// Two automata are equal when their location tables agree — ids,
/// representatives, footprints, successor lists, future sets, and
/// congruence findings all match (the key maps are derived data).
impl<P: PartialEq> PartialEq for ControlAutomaton<P> {
    fn eq(&self, other: &Self) -> bool {
        self.locations == other.locations && self.incongruent == other.incongruent
    }
}

impl<P: Process + Clone + Eq + Hash> ControlAutomaton<P> {
    /// Extracts the automaton of the process rooted at `p0`.
    ///
    /// Every havoc branch of every location is stepped on one scratch
    /// successor, reset from the location's representative with
    /// `clone_from`, and its footprint is refilled into one scratch
    /// [`Footprint`]; the successor and the footprint are cloned only
    /// when they are stored, for a new location or a new incongruence
    /// finding.
    pub fn extract(layout: &Layout, p0: &P) -> Result<Self, ExtractError> {
        let mut auto = ControlAutomaton {
            locations: Vec::new(),
            keys: Keyed::default(),
            incongruent: Vec::new(),
        };
        let mut succ = p0.clone();
        let mut fp = Footprint::default();
        auto.intern(layout, &succ, &mut fp)?;
        let mut i = 0;
        while i < auto.locations.len() {
            match auto.locations[i].representative.current() {
                Step::Halt => {}
                Step::Internal => auto.branch(layout, i, OpResult::None, &mut succ, &mut fp)?,
                Step::Op(op) => {
                    let domain = op_result_domain(&op, layout)
                        .ok_or(ExtractError::DomainTooWide { location: i as u32 })?;
                    for result in domain {
                        auto.branch(layout, i, result, &mut succ, &mut fp)?;
                    }
                }
            }
            i += 1;
        }
        auto.compute_future();
        Ok(auto)
    }

    /// Steps location `i`'s representative on `result` in the scratch
    /// `succ` and records the successor location.
    fn branch(
        &mut self,
        layout: &Layout,
        i: usize,
        result: OpResult,
        succ: &mut P,
        fp: &mut Footprint,
    ) -> Result<(), ExtractError> {
        succ.clone_from(&self.locations[i].representative);
        succ.advance(result);
        let id = self.intern(layout, succ, fp)?;
        if !self.locations[i].successors.contains(&id) {
            self.locations[i].successors.push(id);
        }
        Ok(())
    }

    /// The location of `state`, new or old; `fp` is scratch for the
    /// state's current-step footprint.
    fn intern(
        &mut self,
        layout: &Layout,
        state: &P,
        fp: &mut Footprint,
    ) -> Result<u32, ExtractError> {
        fp.refill_step(&state.current(), layout);
        if let Some(&id) = self.keys.get(state) {
            if *fp != self.locations[id as usize].footprint
                && !self.incongruent.iter().any(|(l, f)| *l == id && f == fp)
            {
                self.incongruent.push((id, fp.clone()));
            }
            return Ok(id);
        }
        if self.locations.len() >= MAX_LOCATIONS {
            return Err(ExtractError::TooManyLocations);
        }
        let id = self.locations.len() as u32;
        self.keys.insert(state, id);
        self.locations.push(Location {
            representative: state.clone(),
            footprint: fp.clone(),
            successors: Vec::new(),
            future: RegisterSet::new(),
            future_rw: Footprint::default(),
        });
        Ok(id)
    }

    /// The future-access fixpoint: `future(l) = fp(l) ∪ ⋃ future(succ)`,
    /// iterated to stability (spin self-loops contribute nothing new, so
    /// cycles converge). The read/write split is the same fixpoint run
    /// componentwise; the union set is derived from it afterwards, so
    /// the two views can never disagree.
    fn compute_future(&mut self) {
        for loc in &mut self.locations {
            loc.future_rw = loc.footprint.clone();
        }
        let mut changed = true;
        while changed {
            changed = false;
            // Reverse sweep: successors mostly have larger ids, so one
            // pass usually reaches the fixpoint on acyclic regions.
            for i in (0..self.locations.len()).rev() {
                let mut acc = self.locations[i].future_rw.clone();
                for s in self.locations[i].successors.clone() {
                    if s as usize != i {
                        acc.reads
                            .union_with(&self.locations[s as usize].future_rw.reads);
                        acc.writes
                            .union_with(&self.locations[s as usize].future_rw.writes);
                    }
                }
                if acc != self.locations[i].future_rw {
                    self.locations[i].future_rw = acc;
                    changed = true;
                }
            }
        }
        for loc in &mut self.locations {
            loc.future.union_with(&loc.future_rw.reads);
            loc.future.union_with(&loc.future_rw.writes);
        }
    }

    /// The number of locations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether the automaton has no locations (never true after a
    /// successful extraction — the root always interns).
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// The automaton location a local state resolves to, if any.
    pub fn location_of(&self, state: &P) -> Option<u32> {
        self.keys.get(state).copied()
    }

    /// The future-access set of a local state: every register any
    /// continuation of the state (solo or embedded in a concurrent run)
    /// can read or write.
    pub fn future_of(&self, state: &P) -> Option<&RegisterSet> {
        self.location_of(state)
            .map(|id| &self.locations[id as usize].future)
    }

    /// The current-step footprint at a location.
    pub fn footprint(&self, id: u32) -> &Footprint {
        &self.locations[id as usize].footprint
    }

    /// The future-access set at a location.
    pub fn future(&self, id: u32) -> &RegisterSet {
        &self.locations[id as usize].future
    }

    /// The future-access fixpoint at a location with its read/write
    /// split retained (`reads ∪ writes` equals [`Self::future`]).
    pub fn future_split(&self, id: u32) -> &Footprint {
        &self.locations[id as usize].future_rw
    }

    /// The split future-access set of a local state (the split analogue
    /// of [`Self::future_of`]).
    pub fn future_split_of(&self, state: &P) -> Option<&Footprint> {
        self.location_of(state)
            .map(|id| &self.locations[id as usize].future_rw)
    }

    /// The representative local state of a location.
    pub fn representative(&self, id: u32) -> &P {
        &self.locations[id as usize].representative
    }
}

/// The kind of a lint finding, in decreasing severity order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingKind {
    /// The declared `may_access` set at a location does not contain the
    /// location's future-access fixpoint — the hook under-approximates,
    /// and every reduced verdict that trusted it is suspect.
    FutureNotCovered,
    /// Two states merged into one location disagree on their
    /// current-step footprint — the `location` hook projects away data
    /// that changes which registers are accessed.
    IncongruentLocation,
    /// Two distinct locations report the same `fingerprint` — the
    /// symmetry quotient may merge orbits of genuinely distinct states.
    FingerprintCollision,
    /// The automaton could not be extracted (domain too wide, or the
    /// location hook fails to finitize); nothing is certified.
    Unanalyzable,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FindingKind::FutureNotCovered => "future-not-covered",
            FindingKind::IncongruentLocation => "incongruent-location",
            FindingKind::FingerprintCollision => "fingerprint-collision",
            FindingKind::Unanalyzable => "unanalyzable",
        };
        f.write_str(s)
    }
}

/// One machine-readable lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Index of the process (in the linted process vector).
    pub process: usize,
    /// The automaton location the finding is anchored at.
    pub location: u32,
    /// What went wrong.
    pub kind: FindingKind,
    /// Human-readable specifics (missing registers, colliding ids, …).
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "process {} location {}: {}: {}",
            self.process, self.location, self.kind, self.detail
        )
    }
}

/// The result of linting one model's processes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, sorted by (process, location, kind).
    pub findings: Vec<Finding>,
    /// How many processes were analyzed.
    pub processes: usize,
    /// Total automaton locations across all processes.
    pub locations: usize,
    /// Wall-clock time of the lint, in nanoseconds (telemetry clock).
    pub wall_ns: u64,
}

impl LintReport {
    /// Did every check pass?
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The finding for process `process`, whose automaton could not be
/// extracted: anchored at the too-wide location, or at the root when
/// the location hook fails to finitize.
fn unanalyzable(process: usize, e: &ExtractError) -> Finding {
    let location = match *e {
        ExtractError::DomainTooWide { location } => location,
        ExtractError::TooManyLocations => 0,
    };
    Finding {
        process,
        location,
        kind: FindingKind::Unanalyzable,
        detail: e.to_string(),
    }
}

/// Lints the reduction hooks of a model's initial processes: extracts
/// each process's control automaton and checks (a) the declared
/// [`Process::may_access`] set at every location contains the location's
/// future-access fixpoint, (b) merged states agree on their footprints
/// (the [`Process::location`] congruence contract), and (c)
/// [`Process::fingerprint`] is injective across distinct locations.
pub fn lint_model<P>(layout: &Layout, procs: &[P]) -> LintReport
where
    P: Process + Clone + Eq + Hash,
{
    let tel = telemetry::runtime();
    let span = tel.span(Phase::Lint);
    let mut report = LintReport {
        processes: procs.len(),
        ..LintReport::default()
    };
    for (pi, p) in procs.iter().enumerate() {
        let auto = match ControlAutomaton::extract(layout, p) {
            Ok(auto) => auto,
            Err(e) => {
                report.findings.push(unanalyzable(pi, &e));
                continue;
            }
        };
        report.locations += auto.len();
        for (loc, fp) in &auto.incongruent {
            report.findings.push(Finding {
                process: pi,
                location: *loc,
                kind: FindingKind::IncongruentLocation,
                detail: format!(
                    "states merged into one location disagree on the current-step \
                     footprint: representative {:?}, offender {:?}",
                    auto.footprint(*loc),
                    fp
                ),
            });
        }
        let mut declared = RegisterSet::new();
        let mut fingerprints: HashMap<u64, u32> = HashMap::new();
        for id in 0..auto.len() as u32 {
            let rep = auto.representative(id);
            declared.clear();
            if rep.may_access(&mut declared) && !auto.future(id).is_subset(&declared) {
                let missing: Vec<String> = auto
                    .future(id)
                    .iter()
                    .filter(|r| !declared.contains(*r))
                    .map(|r| r.to_string())
                    .collect();
                report.findings.push(Finding {
                    process: pi,
                    location: id,
                    kind: FindingKind::FutureNotCovered,
                    detail: format!(
                        "declared may_access misses future accesses: {}",
                        missing.join(", ")
                    ),
                });
            }
            if let Some(fp) = rep.fingerprint() {
                match fingerprints.entry(fp) {
                    Entry::Occupied(e) => {
                        report.findings.push(Finding {
                            process: pi,
                            location: id,
                            kind: FindingKind::FingerprintCollision,
                            detail: format!(
                                "fingerprint {fp:#x} collides with location {}",
                                e.get()
                            ),
                        });
                    }
                    Entry::Vacant(e) => {
                        e.insert(id);
                    }
                }
            }
        }
    }
    report
        .findings
        .sort_by_key(|f| (f.process, f.location, f.kind));
    report.wall_ns = span.finish(Snapshot {
        states: report.locations as u64,
        transitions: report.findings.len() as u64,
        ..Snapshot::default()
    });
    report
}

/// The merged future-access index of one system's processes, consulted
/// by ample-set selection under [`MayAccessMode::Automaton`].
///
/// Location-keyed states share one entry per key; when distinct
/// processes map different futures to one key, the sets are unioned —
/// still a sound over-approximation for every state that resolves to
/// the key. States without a location key are indexed by value. A
/// process whose automaton cannot be extracted leaves an
/// [`FindingKind::Unanalyzable`] finding in [`Self::findings`]; its
/// states miss the index and the engine falls back to the declared
/// hook.
#[derive(Clone, Debug)]
pub struct FutureIndex<P> {
    entries: Keyed<P, FutureAccess>,
    findings: Vec<Finding>,
}

/// One index entry: the union future-access set (consulted by
/// [`MayAccessMode::Automaton`]) and the same fixpoint with the
/// read/write split retained (consulted by [`MayAccessMode::Dynamic`]).
/// Invariant: `split.reads ∪ split.writes == union`.
#[derive(Clone, Debug)]
struct FutureAccess {
    union: RegisterSet,
    split: Footprint,
}

impl FutureAccess {
    fn merge(&mut self, union: &RegisterSet, split: &Footprint) {
        self.union.union_with(union);
        self.split.reads.union_with(&split.reads);
        self.split.writes.union_with(&split.writes);
    }
}

impl<P: Process + Clone + Eq + Hash> FutureIndex<P> {
    /// Builds the index over a system's initial processes.
    pub fn build(layout: &Layout, procs: &[P]) -> FutureIndex<P> {
        let mut idx = FutureIndex {
            entries: Keyed::default(),
            findings: Vec::new(),
        };
        for (pi, p) in procs.iter().enumerate() {
            // Identical processes (naming models share one program)
            // yield identical automata; one extraction suffices.
            if idx.future_of(p).is_some() {
                continue;
            }
            let auto = match ControlAutomaton::extract(layout, p) {
                Ok(auto) => auto,
                Err(e) => {
                    idx.findings.push(unanalyzable(pi, &e));
                    continue;
                }
            };
            for loc in &auto.locations {
                match idx.entries.get_mut(&loc.representative) {
                    Some(entry) => entry.merge(&loc.future, &loc.future_rw),
                    None => idx.entries.insert(
                        &loc.representative,
                        FutureAccess {
                            union: loc.future.clone(),
                            split: loc.future_rw.clone(),
                        },
                    ),
                }
            }
        }
        idx
    }

    /// Number of indexed entries (location keys plus by-value states) —
    /// the work a telemetry `extract-automaton` span attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no automaton could be extracted.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// One [`FindingKind::Unanalyzable`] finding per process whose
    /// automaton could not be extracted, in process order — the same
    /// finding [`lint_model`] reports for it.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// The future-access set of a local state, or `None` when the state
    /// is not resolved by any extracted automaton (the caller must fall
    /// back to the declared hook).
    pub fn future_of(&self, state: &P) -> Option<&RegisterSet> {
        self.entries.get(state).map(|e| &e.union)
    }

    /// The split future-access set of a local state (same resolution and
    /// fallback contract as [`Self::future_of`]).
    pub fn future_split_of(&self, state: &P) -> Option<&Footprint> {
        self.entries.get(state).map(|e| &e.split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{Op, RegisterId, Value};

    /// Reads a 1-bit flag; if set, writes the other register, else
    /// halts. Exercises branching, footprints, and the future fixpoint.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Brancher {
        flag: RegisterId,
        out: RegisterId,
        pc: u8,
        honest: bool,
    }

    impl Process for Brancher {
        fn current(&self) -> Step {
            match self.pc {
                0 => Step::Op(Op::Read(self.flag)),
                1 => Step::Op(Op::Write(self.out, Value::ONE)),
                _ => Step::Halt,
            }
        }
        fn advance(&mut self, result: OpResult) {
            self.pc = if self.pc == 0 {
                if result.bit() {
                    1
                } else {
                    2
                }
            } else {
                2
            };
        }
        fn location(&self) -> Option<u64> {
            Some(u64::from(self.pc))
        }
        fn may_access(&self, out: &mut RegisterSet) -> bool {
            if self.honest {
                match self.pc {
                    0 => {
                        out.insert(self.flag);
                        out.insert(self.out);
                    }
                    1 => out.insert(self.out),
                    _ => {}
                }
            } else if self.pc == 0 {
                // Planted under-report: forgets the conditional write.
                out.insert(self.flag);
            }
            true
        }
    }

    fn setup() -> (Layout, Brancher) {
        let mut layout = Layout::new();
        let flag = layout.bit("flag", false);
        let out = layout.register("out", 2, 0);
        (
            layout,
            Brancher {
                flag,
                out,
                pc: 0,
                honest: true,
            },
        )
    }

    #[test]
    fn extraction_covers_both_branches() {
        let (layout, p) = setup();
        let auto = ControlAutomaton::extract(&layout, &p).unwrap();
        assert_eq!(auto.len(), 3);
        let future = auto.future_of(&p).unwrap();
        assert!(future.contains(p.flag) && future.contains(p.out));
        let write_state = Brancher { pc: 1, ..p.clone() };
        let at_write = auto.future_of(&write_state).unwrap();
        assert!(!at_write.contains(p.flag) && at_write.contains(p.out));
        let done = Brancher { pc: 2, ..p };
        assert!(auto.future_of(&done).unwrap().is_empty());
    }

    #[test]
    fn honest_hook_lints_clean_dishonest_is_flagged() {
        let (layout, p) = setup();
        let clean = lint_model(&layout, std::slice::from_ref(&p));
        assert!(
            clean.is_clean(),
            "unexpected findings: {:?}",
            clean.findings
        );
        assert_eq!(clean.locations, 3);
        let dirty = lint_model(&layout, &[Brancher { honest: false, ..p }]);
        // The under-report breaks coverage at the read location (misses
        // the conditional write) and at the write location itself.
        assert_eq!(dirty.findings.len(), 2);
        assert!(dirty
            .findings
            .iter()
            .all(|f| f.kind == FindingKind::FutureNotCovered));
        assert!(dirty.findings[0].detail.contains("r1"));
    }

    #[test]
    fn future_index_unions_and_misses_fall_through() {
        let (layout, p) = setup();
        let idx = FutureIndex::build(&layout, std::slice::from_ref(&p));
        assert!(idx.future_of(&p).unwrap().contains(p.out));
        let foreign = Brancher { pc: 9, ..p };
        assert!(idx.future_of(&foreign).is_none());
        assert!(idx.future_split_of(&foreign).is_none());
    }

    #[test]
    fn split_future_separates_reads_from_writes() {
        let (layout, p) = setup();
        let auto = ControlAutomaton::extract(&layout, &p).unwrap();
        // At the read location, the future reads are {flag} and the
        // future writes are {out}; the union view collapses them.
        let split = auto.future_split_of(&p).unwrap();
        assert!(split.reads.contains(p.flag) && !split.reads.contains(p.out));
        assert!(split.writes.contains(p.out) && !split.writes.contains(p.flag));
        let mut union = split.reads.clone();
        union.union_with(&split.writes);
        assert_eq!(&union, auto.future_of(&p).unwrap());
        // At the write location only the write remains.
        let write_state = Brancher { pc: 1, ..p.clone() };
        let at_write = auto.future_split_of(&write_state).unwrap();
        assert!(at_write.reads.is_empty() && at_write.writes.contains(p.out));
        // The index agrees with the automaton on both views.
        let idx = FutureIndex::build(&layout, std::slice::from_ref(&p));
        assert_eq!(idx.future_split_of(&p).unwrap(), split);
        assert_eq!(idx.future_of(&p).unwrap(), auto.future_of(&p).unwrap());
    }

    #[test]
    fn extraction_is_deterministic() {
        let (layout, p) = setup();
        let a = ControlAutomaton::extract(&layout, &p).unwrap();
        let b = ControlAutomaton::extract(&layout, &p).unwrap();
        assert_eq!(a, b);
    }

    /// How [`Chooser`] reports its location.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Hook {
        /// The pc and the branch taken: congruent.
        Honest,
        /// The pc alone, hiding the branch that picks the written
        /// register: incongruent.
        HideBranch,
        /// The pc and the whole value read: diverges on wide reads.
        KeyOnValue,
    }

    /// Takes one internal step, reads `src`, writes `dst[0]` when it
    /// read zero and `dst[1]` otherwise, then halts. Every location key
    /// carries `src`, so two choosers reading different registers never
    /// share a key.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Chooser {
        src: RegisterId,
        dst: [RegisterId; 2],
        pc: u8,
        seen: u64,
        hook: Hook,
        /// Report the pc alone as the fingerprint, so that the two
        /// branches' locations at one pc collide.
        pc_fingerprint: bool,
    }

    impl Chooser {
        fn branch(&self) -> usize {
            usize::from(self.seen != 0)
        }
    }

    impl Process for Chooser {
        fn current(&self) -> Step {
            match self.pc {
                0 => Step::Internal,
                1 => Step::Op(Op::Read(self.src)),
                2 => Step::Op(Op::Write(self.dst[self.branch()], Value::ONE)),
                _ => Step::Halt,
            }
        }
        fn advance(&mut self, result: OpResult) {
            if self.pc == 1 {
                self.seen = result.value().raw();
            }
            self.pc += 1;
        }
        fn location(&self) -> Option<u64> {
            let data = match self.hook {
                Hook::Honest => self.branch() as u64,
                Hook::HideBranch => 0,
                Hook::KeyOnValue => self.seen,
            };
            Some(u64::from(self.pc) | data << 8 | (self.src.index() as u64) << 40)
        }
        fn fingerprint(&self) -> Option<u64> {
            self.pc_fingerprint.then_some(u64::from(self.pc))
        }
    }

    /// A layout with a `width`-bit source register and two 1-bit
    /// targets, and an honest chooser over it.
    fn chooser(layout: &mut Layout, width: u32) -> Chooser {
        let src = layout.register(format!("src{width}"), width, 0);
        let dst = [layout.bit("left", false), layout.bit("right", false)];
        Chooser {
            src,
            dst,
            pc: 0,
            seen: 0,
            hook: Hook::Honest,
            pc_fingerprint: false,
        }
    }

    fn only_finding(report: &LintReport) -> &Finding {
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        &report.findings[0]
    }

    #[test]
    fn lint_reports_an_incongruent_location_once_naming_both_footprints() {
        let mut layout = Layout::new();
        let p = Chooser {
            hook: Hook::HideBranch,
            ..chooser(&mut layout, 2)
        };
        let report = lint_model(&layout, std::slice::from_ref(&p));
        // Reads 1, 2 and 3 all reach the write location with the
        // offending footprint; the finding is recorded once.
        let f = only_finding(&report);
        assert_eq!((f.process, f.location), (0, 2));
        assert_eq!(f.kind, FindingKind::IncongruentLocation);
        let at = |branch: usize| Footprint::of_op(&Op::Write(p.dst[branch], Value::ONE), &layout);
        assert!(
            f.detail.contains(&format!("representative {:?}", at(0))),
            "{f}"
        );
        assert!(f.detail.contains(&format!("offender {:?}", at(1))), "{f}");
    }

    #[test]
    fn lint_reports_fingerprint_collisions_across_locations() {
        let mut layout = Layout::new();
        let p = Chooser {
            pc_fingerprint: true,
            ..chooser(&mut layout, 1)
        };
        let report = lint_model(&layout, std::slice::from_ref(&p));
        // Locations: 0 internal, 1 read, 2/3 the two writes, 4/5 the
        // two halts; each branch's second location collides.
        let got: Vec<_> = report
            .findings
            .iter()
            .map(|f| (f.location, f.kind, f.detail.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                (
                    3,
                    FindingKind::FingerprintCollision,
                    "fingerprint 0x2 collides with location 2"
                ),
                (
                    5,
                    FindingKind::FingerprintCollision,
                    "fingerprint 0x3 collides with location 4"
                ),
            ]
        );
    }

    #[test]
    fn lint_reports_a_too_wide_read_at_its_location() {
        let mut layout = Layout::new();
        let p = chooser(&mut layout, cfc_core::HAVOC_WIDTH_CAP + 1);
        let report = lint_model(&layout, std::slice::from_ref(&p));
        let f = only_finding(&report);
        assert_eq!((f.process, f.location), (0, 1));
        assert_eq!(f.kind, FindingKind::Unanalyzable);
        assert_eq!(
            f.detail,
            ExtractError::DomainTooWide { location: 1 }.to_string()
        );
        assert_eq!(report.locations, 0);
    }

    #[test]
    fn lint_reports_a_location_hook_that_keys_on_a_wide_value() {
        let mut layout = Layout::new();
        let p = Chooser {
            hook: Hook::KeyOnValue,
            ..chooser(&mut layout, 16)
        };
        let report = lint_model(&layout, std::slice::from_ref(&p));
        let f = only_finding(&report);
        assert_eq!((f.process, f.location), (0, 0));
        assert_eq!(f.kind, FindingKind::Unanalyzable);
        assert_eq!(f.detail, ExtractError::TooManyLocations.to_string());
    }

    #[test]
    fn future_index_reports_an_unanalyzable_process_and_indexes_its_sibling() {
        let mut layout = Layout::new();
        let wide = chooser(&mut layout, cfc_core::HAVOC_WIDTH_CAP + 1);
        let narrow = chooser(&mut layout, 1);
        let procs = [wide.clone(), narrow.clone()];
        let idx = FutureIndex::build(&layout, &procs);
        let expected = Finding {
            process: 0,
            location: 1,
            kind: FindingKind::Unanalyzable,
            detail: ExtractError::DomainTooWide { location: 1 }.to_string(),
        };
        assert_eq!(idx.findings(), [expected]);
        assert_eq!(idx.findings(), lint_model(&layout, &procs).findings);
        let reading = Chooser { pc: 1, ..wide };
        assert!(idx.future_of(&wide).is_none() && idx.future_of(&reading).is_none());
        assert!(idx.future_split_of(&reading).is_none());
        let future = idx.future_of(&narrow).unwrap();
        assert!(future.contains(narrow.src) && future.contains(narrow.dst[1]));
        // Six locations, one index entry each.
        assert_eq!(idx.len(), 6);
    }

    /// The key a local state is merged under by the reference extractor.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum LocKey<P> {
        Loc(u64),
        State(P),
    }

    fn key_of<P: Process + Clone>(state: &P) -> LocKey<P> {
        match state.location() {
            Some(l) => LocKey::Loc(l),
            None => LocKey::State(state.clone()),
        }
    }

    /// The reference extractor: the plain construction the production
    /// extractor must agree with. It clones the representative for every
    /// branch, collects each domain first, builds every footprint fresh
    /// with `Footprint::of_step`, and keys one SipHash map on `LocKey`.
    struct Reference<P> {
        locations: Vec<Location<P>>,
        keys: HashMap<LocKey<P>, u32>,
        incongruent: Vec<(u32, Footprint)>,
    }

    impl<P: Process + Clone + Eq + Hash> Reference<P> {
        fn extract(layout: &Layout, p0: &P) -> Result<ControlAutomaton<P>, ExtractError> {
            let mut r = Reference {
                locations: Vec::new(),
                keys: HashMap::new(),
                incongruent: Vec::new(),
            };
            r.intern(layout, p0.clone())?;
            let mut i = 0;
            while i < r.locations.len() {
                let rep = r.locations[i].representative.clone();
                let results: Vec<OpResult> = match rep.current() {
                    Step::Halt => {
                        i += 1;
                        continue;
                    }
                    Step::Internal => vec![OpResult::None],
                    Step::Op(op) => op_result_domain(&op, layout)
                        .ok_or(ExtractError::DomainTooWide { location: i as u32 })?
                        .collect(),
                };
                for result in results {
                    let mut succ = rep.clone();
                    succ.advance(result);
                    let id = r.intern(layout, succ)?;
                    if !r.locations[i].successors.contains(&id) {
                        r.locations[i].successors.push(id);
                    }
                }
                i += 1;
            }
            let mut auto = ControlAutomaton {
                locations: r.locations,
                keys: Keyed::default(),
                incongruent: r.incongruent,
            };
            auto.compute_future();
            Ok(auto)
        }

        fn intern(&mut self, layout: &Layout, state: P) -> Result<u32, ExtractError> {
            let fp = Footprint::of_step(&state.current(), layout);
            match self.keys.entry(key_of(&state)) {
                Entry::Occupied(e) => {
                    let id = *e.get();
                    if fp != self.locations[id as usize].footprint
                        && !self.incongruent.iter().any(|(l, f)| *l == id && *f == fp)
                    {
                        self.incongruent.push((id, fp));
                    }
                    Ok(id)
                }
                Entry::Vacant(e) => {
                    if self.locations.len() >= MAX_LOCATIONS {
                        return Err(ExtractError::TooManyLocations);
                    }
                    let id = self.locations.len() as u32;
                    e.insert(id);
                    self.locations.push(Location {
                        representative: state,
                        footprint: fp,
                        successors: Vec::new(),
                        future: RegisterSet::new(),
                        future_rw: Footprint::default(),
                    });
                    Ok(id)
                }
            }
        }
    }

    /// Extracts every process both ways and asserts equal automata.
    fn assert_matches_reference<P>(name: &str, layout: &Layout, procs: &[P])
    where
        P: Process + Clone + Eq + Hash + fmt::Debug,
    {
        for (i, p) in procs.iter().enumerate() {
            let got = ControlAutomaton::extract(layout, p).unwrap();
            let want = Reference::extract(layout, p).unwrap();
            assert!(
                got == want,
                "{name}: process {i} differs from the reference"
            );
            // Every state the reference keyed resolves to the same id.
            for (id, loc) in want.locations.iter().enumerate() {
                assert_eq!(got.location_of(&loc.representative), Some(id as u32));
            }
        }
    }

    #[test]
    fn extraction_matches_the_reference_extractor() {
        use cfc_core::ProcessId;
        use cfc_mutex::mutation::BakeryMutation;
        use cfc_mutex::{
            Bakery, DetectionAlgorithm, MutexAlgorithm, PetersonTwo, Splitter, Tournament,
        };
        use cfc_naming::{NamingAlgorithm, TafTree, TasScan};

        fn clients<A: MutexAlgorithm>(alg: &A) -> Vec<cfc_mutex::MutexClient<A::Lock>> {
            (0..alg.n() as u32)
                .map(|i| alg.client_with_cs(ProcessId::new(i), 1, 1))
                .collect()
        }

        // The families and sizes `lint_models` lints.
        let peterson = PetersonTwo::new();
        assert_matches_reference("peterson-two", &peterson.layout(), &clients(&peterson));
        for bakery in [
            Bakery::new(3),
            Bakery::new(2),
            Bakery::new(3).with_mutation(BakeryMutation::UnderReportScan),
        ] {
            assert_matches_reference("bakery", &bakery.layout(), &clients(&bakery));
        }
        let tournament = Tournament::new(3, 1);
        assert_matches_reference("tournament", &tournament.layout(), &clients(&tournament));
        let scan = TasScan::new(4);
        assert_matches_reference("tas-scan", &scan.layout(), &scan.processes());
        let taf = TafTree::new(4).expect("power-of-two size");
        assert_matches_reference("taf-tree", &taf.layout(), &taf.processes());
        let splitter = Splitter::new(3);
        let procs: Vec<_> = (0..3)
            .map(|i| splitter.process(ProcessId::new(i)))
            .collect();
        assert_matches_reference("splitter", &splitter.layout(), &procs);

        // The incongruent fixture: both extractors find the same
        // non-empty incongruence list.
        let mut layout = Layout::new();
        let p = Chooser {
            hook: Hook::HideBranch,
            ..chooser(&mut layout, 2)
        };
        assert_matches_reference("incongruent", &layout, std::slice::from_ref(&p));
        let got = ControlAutomaton::extract(&layout, &p).unwrap();
        let want = Reference::extract(&layout, &p).unwrap();
        assert!(!got.incongruent.is_empty());
        assert_eq!(got.incongruent, want.incongruent);
    }
}

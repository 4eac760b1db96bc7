//! The differential oracle matrix: every exhaustive checker behind the
//! paper's verdicts, run under every reduction configuration, with each
//! cell's counts pinned and each baseline held against the naive
//! reference explorer ([`super::reference`]).
//!
//! The table has one row per (system, checker, crash budget, known
//! verdict) and one column per configuration in [`COLUMNS`]: baseline,
//! sym, por and por+sym under each of the declared, automaton and
//! dynamic may-access modes. [`check_cell`] runs one cell and holds it to
//!
//! * the row's verdict — for a violation, the evidence its schedule
//!   replays to under the un-reduced semantics (two processes in the
//!   critical section, two detector winners, a non-quiescent stuck
//!   state, or a duplicate name with the row's output multiset); for
//!   liveness, the bypass bound or the starvable lasso's cycle length;
//! * the row's pinned (states, transitions, POR-pruned, orbits merged),
//!   terminals, and for liveness (victims, graphs). Without POR a
//!   sharper may-access mode shares the declared column's pins and may
//!   sleep nothing; with it, it never visits more states than the
//!   declared hooks;
//! * the row's pinned arena bytes per state and, outside the dynamic
//!   POR columns (whose sleep masks count as index bytes), an index of
//!   exactly the slot array the open table's growth policy gives the
//!   state count;
//! * in the baseline column, the reference explorer: the same verdict,
//!   and the same states, transitions and terminals unless a safety
//!   violation stops both searches early.
//!
//! The suites that held the hand-built tables this matrix replaced keep
//! their test names; each test checks one disjoint slice of cells.
//!
//! | suite | columns | rows |
//! |---|---|---|
//! | `packed_equiv` | baseline | safety, progress |
//! | `index_equiv` | sym; all declared | safety, progress; liveness |
//! | `reduction_equiv` | por, por+sym | safety |
//! | `progress_reduction` | por, por+sym | progress |
//! | `analysis_equiv` | automaton | all |
//! | `dynamic_equiv` | dynamic | all |
//! | `oracle_matrix` | declared; all | [`HEAVY_ROWS`] (all: exhaustive job) |
//!
//! `telemetry` re-runs every declared cell under a `Recorder`
//! ([`check_passive`]), and the strict-shrink tests re-run one POR cell
//! of bakery n=3 and the splitter n=3.

use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::Hash;
use std::rc::Rc;

use cfc::core::{ManualClock, Memory, Process, ProcessId, Section, Status, SymmetryGroup, Value};
use cfc::mutex::{
    Bakery, BrokenDetector, DetectionAlgorithm, Dijkstra, ExitOrder, LamportFast, MutexAlgorithm,
    MutexClient, MutexDetector, PetersonTwo, Splitter, SplitterTree, Tournament,
};
use cfc::naming::{NamingAlgorithm, TafTree, TasReadSearch, TasScan, TasTarTree};
use cfc::verify::{
    check_detection_progress, check_detection_safety, check_mutex_progress, check_mutex_safety,
    check_mutex_starvation, check_naming_lockout, check_naming_progress, check_naming_uniqueness,
    replay, with_telemetry, ExploreConfig, ExploreError, ExploreStats, LivenessReport,
    LivenessVerdict, MayAccessMode, OpenIndex, Phase, ProgressStats, Recorder, ScheduleStep,
    StoreFootprint, Telemetry, TelemetryEvent, Violation,
};

use super::reference::{self, Reference};
use super::{output_multiset, MutatedTasScan};

pub use Checker::{Liveness, Progress, Safety};
use MayAccessMode::{Automaton, Declared, Dynamic};
pub use Verdict::{Free, Holds, Starvable, Violated};

/// The state budget of every cell: far above every row, so a blow-up
/// fails on the pinned counts instead of hanging.
const BUDGET: usize = 1_000_000;

/// The configurations, one per column: (name, POR, symmetry, mode).
pub const COLUMNS: [(&str, bool, bool, MayAccessMode); 12] = [
    ("baseline", false, false, Declared),
    ("sym", false, true, Declared),
    ("por", true, false, Declared),
    ("por+sym", true, true, Declared),
    ("baseline/automaton", false, false, Automaton),
    ("sym/automaton", false, true, Automaton),
    ("por/automaton", true, false, Automaton),
    ("por+sym/automaton", true, true, Automaton),
    ("baseline/dynamic", false, false, Dynamic),
    ("sym/dynamic", false, true, Dynamic),
    ("por/dynamic", true, false, Dynamic),
    ("por+sym/dynamic", true, true, Dynamic),
];

pub const BASELINE: usize = 0;
pub const SYM: usize = 1;
pub const POR: usize = 2;
const POR_SYM: usize = 3;
pub const POR_AUTOMATON: usize = 6;
pub const POR_DYNAMIC: usize = 10;

/// The columns under each may-access mode.
pub const DECLARED: [usize; 4] = [0, 1, 2, 3];
/// The declared columns with POR, without and with symmetry.
pub const DECLARED_POR: [usize; 2] = [POR, POR_SYM];
pub const AUTOMATON: [usize; 4] = [4, 5, 6, 7];
pub const DYNAMIC: [usize; 4] = [8, 9, 10, 11];

fn config(col: usize) -> ExploreConfig {
    let (_, por, symmetry, mode) = COLUMNS[col];
    ExploreConfig {
        por,
        symmetry,
        ..ExploreConfig::default()
    }
    .with_max_states(BUDGET)
    .with_may_access(mode)
}

/// Which of a row's eight pins `col` must meet: the declared columns
/// and the sharper modes' POR columns have their own; without POR a
/// sharper mode is inert and shares the declared column's.
pub fn pin(col: usize) -> usize {
    let (mode, variant) = (col / 4, col % 4);
    if variant < 2 {
        variant
    } else {
        2 * mode + variant
    }
}

/// The systems the rows explore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sys {
    /// Peterson's two-process lock; clients make this many trips.
    Peterson(u32),
    Lamport(usize),
    Bakery(usize),
    Dijkstra(usize),
    Tournament(usize),
    /// The tournament under the paper's literal leaf-to-root exit order,
    /// unsafe for composed Peterson nodes at n = 4.
    LeafToRoot(usize),
    TasScan(usize),
    TafTree(usize),
    TasTarTree(usize),
    TasReadSearch(usize),
    /// `TasScan` with one seed-chosen test-and-set turned into a read.
    Mutated(usize, u64),
    Splitter(usize),
    SplitterTree(usize, u32),
    Broken(usize),
    /// Lemma 1's mutex-derived detector over Peterson: losers spin
    /// forever, so progress fails.
    Lemma1,
}

impl Sys {
    pub fn is_mutex(self) -> bool {
        matches!(
            self,
            Sys::Peterson(_)
                | Sys::Lamport(_)
                | Sys::Bakery(_)
                | Sys::Dijkstra(_)
                | Sys::Tournament(_)
                | Sys::LeafToRoot(_)
        )
    }

    pub fn is_naming(self) -> bool {
        matches!(
            self,
            Sys::TasScan(_)
                | Sys::TafTree(_)
                | Sys::TasTarTree(_)
                | Sys::TasReadSearch(_)
                | Sys::Mutated(..)
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Checker {
    /// `check_mutex_safety`, `check_naming_uniqueness` or
    /// `check_detection_safety`.
    Safety,
    /// `check_*_progress`.
    Progress,
    /// `check_mutex_starvation` or `check_naming_lockout`.
    Liveness,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Verdict {
    #[default]
    Holds,
    /// Violated, with what every cell's schedule replays to.
    Violated(Cow<'static, str>),
    /// Starvation-free with this bypass bound.
    Free(Option<u64>),
    /// Starvable, with a lasso of this cycle length.
    Starvable(usize),
}

const SHARED_CS: Verdict = Violated(Cow::Borrowed("critical section shared"));
const TWO_WINNERS: Verdict = Violated(Cow::Borrowed("two winners"));
const STUCK: Verdict = Violated(Cow::Borrowed("stuck"));

/// A duplicate name, replaying to this multiset of outputs.
const fn names(outputs: &'static str) -> Verdict {
    Violated(Cow::Borrowed(outputs))
}

/// One cell's pinned (states, transitions, POR-pruned, orbits merged).
pub type Pin = (usize, u64, u64, u64);

pub struct Row {
    pub sys: Sys,
    pub checker: Checker,
    pub crashes: u32,
    pub verdict: Verdict,
    /// Packed arena bytes per stored state.
    pub arena: u64,
    /// Terminal states without and with symmetry: every reduction keeps
    /// each quiescent state (or orbit). Liveness checks count none.
    pub terminals: (usize, usize),
    /// Liveness only: (victims, graphs) without and with symmetry.
    pub graphs: [(usize, usize); 2],
    /// Per [`pin`]: baseline, sym, por, por+sym, then por and por+sym
    /// under the automaton and the dynamic mode.
    pub cells: [Pin; 8],
}

const fn row(
    sys: Sys,
    checker: Checker,
    crashes: u32,
    verdict: Verdict,
    arena: u64,
    terminals: (usize, usize),
    cells: [Pin; 8],
) -> Row {
    Row {
        sys,
        checker,
        crashes,
        verdict,
        arena,
        terminals,
        graphs: [(0, 0); 2],
        cells,
    }
}

const fn liveness(
    sys: Sys,
    verdict: Verdict,
    arena: u64,
    graphs: [(usize, usize); 2],
    cells: [Pin; 8],
) -> Row {
    Row {
        sys,
        checker: Liveness,
        crashes: 0,
        verdict,
        arena,
        terminals: (0, 0),
        graphs,
        cells,
    }
}

#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    // Mutual exclusion (Theorem 3's tournament and the classic locks).
    row(Sys::Peterson(2), Safety, 0, Holds, 9, (2, 2), [
        (208, 380, 0, 0), (208, 380, 0, 0), (192, 337, 16, 0), (192, 337, 16, 0),
        (174, 305, 16, 0), (174, 305, 16, 0), (181, 267, 18, 0), (181, 267, 18, 0)]),
    row(Sys::Lamport(2), Safety, 0, Holds, 10, (2, 2), [
        (337, 606, 0, 0), (337, 606, 0, 0), (315, 534, 42, 0), (315, 534, 42, 0),
        (279, 431, 76, 0), (279, 431, 76, 0), (263, 321, 80, 0), (263, 321, 80, 0)]),
    row(Sys::Bakery(2), Safety, 0, Holds, 13, (3, 3), [
        (243, 435, 0, 0), (243, 435, 0, 0), (210, 360, 24, 0), (210, 360, 24, 0),
        (192, 307, 42, 0), (192, 307, 42, 0), (158, 193, 71, 0), (158, 193, 71, 0)]),
    row(Sys::Dijkstra(2), Safety, 0, Holds, 10, (2, 2), [
        (189, 338, 0, 0), (189, 338, 0, 0), (180, 297, 28, 0), (180, 297, 28, 0),
        (160, 250, 38, 0), (160, 250, 38, 0), (143, 177, 31, 0), (143, 177, 31, 0)]),
    row(Sys::Tournament(3), Safety, 0, Holds, 14, (4, 4), [
        (1570, 4122, 0, 0), (1570, 4122, 0, 0), (1080, 2497, 295, 0), (1080, 2497, 295, 0),
        (859, 1837, 364, 0), (859, 1837, 364, 0), (767, 1046, 303, 0), (767, 1046, 303, 0)]),
    row(Sys::LeafToRoot(4), Safety, 0, SHARED_CS, 0, (0, 0), [
        (1110, 2836, 0, 0), (1110, 2836, 0, 0), (1014, 2350, 248, 0), (1014, 2350, 248, 0),
        (773, 1681, 292, 0), (773, 1681, 292, 0), (647, 936, 258, 0), (647, 936, 258, 0)]),
    // Naming (Section 3) under up to one crash.
    row(Sys::TasScan(2), Safety, 0, Holds, 9, (2, 1), [
        (13, 16, 0, 0), (7, 9, 0, 1), (9, 8, 2, 0), (5, 5, 1, 1),
        (9, 8, 2, 0), (5, 5, 1, 1), (9, 8, 2, 0), (5, 5, 1, 1)]),
    row(Sys::TasScan(2), Safety, 1, Holds, 9, (8, 4), [
        (29, 42, 0, 0), (15, 23, 0, 3), (29, 42, 0, 0), (15, 23, 0, 3),
        (29, 42, 0, 0), (15, 23, 0, 3), (29, 42, 0, 0), (15, 23, 0, 3)]),
    row(Sys::TasScan(3), Safety, 0, Holds, 14, (6, 1), [
        (121, 231, 0, 0), (23, 46, 0, 6), (46, 51, 18, 0), (9, 12, 4, 4),
        (46, 51, 18, 0), (9, 12, 4, 4), (46, 48, 18, 0), (9, 12, 4, 4)]),
    row(Sys::TasScan(3), Safety, 1, Holds, 14, (36, 6), [
        (352, 756, 0, 0), (63, 144, 0, 20), (352, 712, 44, 0), (63, 137, 7, 20),
        (352, 712, 44, 0), (63, 137, 7, 20), (352, 712, 44, 0), (63, 137, 7, 20)]),
    row(Sys::TafTree(2), Safety, 0, Holds, 9, (2, 1), [
        (13, 16, 0, 0), (7, 9, 0, 1), (9, 8, 2, 0), (5, 5, 1, 1),
        (9, 8, 2, 0), (5, 5, 1, 1), (9, 8, 2, 0), (5, 5, 1, 1)]),
    row(Sys::TafTree(2), Safety, 1, Holds, 9, (8, 4), [
        (29, 42, 0, 0), (15, 23, 0, 3), (29, 42, 0, 0), (15, 23, 0, 3),
        (29, 42, 0, 0), (15, 23, 0, 3), (29, 42, 0, 0), (15, 23, 0, 3)]),
    row(Sys::TafTree(4), Safety, 0, Holds, 18, (24, 1), [
        (1603, 4260, 0, 0), (83, 233, 0, 35), (1125, 1974, 841, 0), (64, 124, 54, 23),
        (1125, 1974, 841, 0), (64, 124, 54, 23), (887, 1109, 797, 0), (64, 124, 54, 23)]),
    row(Sys::TafTree(4), Safety, 1, Holds, 18, (192, 8), [
        (5863, 17076, 0, 0), (281, 878, 0, 142), (5863, 15358, 1718, 0), (281, 801, 77, 130),
        (5863, 15358, 1718, 0), (281, 801, 77, 130), (5863, 15358, 1718, 0), (281, 801, 77, 130)]),
    row(Sys::TasTarTree(2), Safety, 0, Holds, 9, (2, 1), [
        (17, 22, 0, 0), (9, 12, 0, 1), (11, 10, 3, 0), (6, 6, 2, 1),
        (11, 10, 3, 0), (6, 6, 2, 1), (11, 10, 3, 0), (6, 6, 2, 1)]),
    row(Sys::TasTarTree(2), Safety, 1, Holds, 9, (10, 5), [
        (39, 58, 0, 0), (20, 31, 0, 3), (39, 58, 0, 0), (20, 31, 0, 3),
        (39, 58, 0, 0), (20, 31, 0, 3), (39, 58, 0, 0), (20, 31, 0, 3)]),
    row(Sys::TasReadSearch(3), Safety, 0, Holds, 14, (6, 1), [
        (182, 375, 0, 0), (36, 78, 0, 12), (121, 187, 58, 0), (26, 47, 12, 11),
        (121, 187, 58, 0), (26, 47, 12, 11), (82, 90, 32, 0), (26, 47, 12, 11)]),
    row(Sys::TasReadSearch(3), Safety, 1, Holds, 14, (42, 7), [
        (557, 1266, 0, 0), (102, 249, 0, 41), (557, 1197, 69, 0), (102, 239, 10, 41),
        (557, 1197, 69, 0), (102, 239, 10, 41), (557, 1197, 69, 0), (102, 239, 10, 41)]),
    row(Sys::Mutated(3, 1), Safety, 0, names("{1: 1, 2: 2}"), 0, (0, 0), [
        (8, 14, 0, 0), (8, 14, 0, 0), (8, 11, 4, 0), (8, 11, 4, 0),
        (8, 11, 4, 0), (8, 11, 4, 0), (8, 11, 4, 0), (8, 11, 4, 0)]),
    row(Sys::Mutated(4, 0), Safety, 0, names("{1: 2}"), 0, (0, 0), [
        (4, 11, 0, 0), (4, 11, 0, 0), (4, 8, 3, 0), (4, 8, 3, 0),
        (4, 8, 3, 0), (4, 8, 3, 0), (4, 8, 3, 0), (4, 8, 3, 0)]),
    row(Sys::Mutated(4, 1), Safety, 0, names("{1: 1, 2: 2}"), 0, (0, 0), [
        (8, 21, 0, 0), (8, 21, 0, 0), (9, 17, 6, 0), (9, 17, 6, 0),
        (9, 17, 6, 0), (9, 17, 6, 0), (9, 17, 6, 0), (9, 17, 6, 0)]),
    row(Sys::Mutated(4, 2), Safety, 0, names("{1: 1, 2: 1, 3: 2}"), 0, (0, 0), [
        (13, 28, 0, 0), (13, 28, 0, 0), (13, 22, 8, 0), (13, 22, 8, 0),
        (13, 22, 8, 0), (13, 22, 8, 0), (13, 22, 8, 0), (13, 22, 8, 0)]),
    // Contention detection.
    row(Sys::Splitter(3), Safety, 0, Holds, 14, (12, 12), [
        (919, 2100, 0, 0), (919, 2100, 0, 0), (823, 1492, 356, 0), (823, 1492, 356, 0),
        (806, 1414, 401, 0), (806, 1414, 401, 0), (786, 1194, 431, 0), (786, 1194, 431, 0)]),
    row(Sys::Broken(2), Safety, 0, TWO_WINNERS, 0, (0, 0), [
        (6, 8, 0, 0), (6, 8, 0, 0), (6, 7, 1, 0), (6, 7, 1, 0),
        (6, 7, 2, 0), (6, 7, 2, 0), (6, 7, 2, 0), (6, 7, 2, 0)]),
    // Deadlock freedom and naming progress.
    row(Sys::Peterson(2), Progress, 0, Holds, 9, (2, 2), [
        (168, 304, 0, 0), (168, 304, 0, 0), (168, 279, 25, 0), (165, 275, 25, 0),
        (149, 251, 23, 0), (146, 248, 21, 0), (149, 251, 23, 0), (146, 248, 21, 0)]),
    row(Sys::Lamport(2), Progress, 0, Holds, 10, (2, 2), [
        (291, 518, 0, 0), (291, 518, 0, 0), (291, 464, 54, 0), (291, 466, 52, 0),
        (242, 357, 82, 0), (244, 360, 75, 0), (242, 352, 87, 0), (244, 354, 81, 0)]),
    row(Sys::Bakery(2), Progress, 0, Holds, 13, (3, 3), [
        (217, 387, 0, 0), (217, 387, 0, 0), (217, 349, 38, 0), (206, 340, 35, 0),
        (189, 299, 39, 0), (172, 279, 41, 0), (171, 235, 76, 0), (157, 222, 70, 0)]),
    row(Sys::Dijkstra(2), Progress, 0, Holds, 10, (2, 2), [
        (162, 287, 0, 0), (162, 287, 0, 0), (162, 257, 30, 0), (162, 257, 30, 0),
        (137, 209, 35, 0), (138, 211, 35, 0), (137, 209, 35, 0), (138, 211, 35, 0)]),
    row(Sys::Tournament(3), Progress, 0, Holds, 14, (4, 4), [
        (1348, 3514, 0, 0), (1348, 3514, 0, 0), (928, 1882, 492, 0), (994, 2141, 403, 0),
        (783, 1536, 464, 0), (701, 1458, 318, 0), (791, 1542, 482, 0), (701, 1428, 348, 0)]),
    row(Sys::TasScan(3), Progress, 0, Holds, 14, (6, 1), [
        (121, 231, 0, 0), (23, 46, 0, 11), (52, 57, 21, 0), (9, 12, 5, 1),
        (52, 57, 21, 0), (9, 12, 5, 1), (52, 57, 21, 0), (9, 12, 5, 1)]),
    row(Sys::TasScan(3), Progress, 1, Holds, 14, (36, 6), [
        (352, 756, 0, 0), (63, 144, 0, 40), (352, 702, 54, 0), (63, 134, 10, 36),
        (352, 702, 54, 0), (63, 134, 10, 36), (352, 702, 54, 0), (63, 134, 10, 36)]),
    row(Sys::TafTree(4), Progress, 0, Holds, 18, (24, 1), [
        (1603, 4260, 0, 0), (83, 233, 0, 119), (1057, 1438, 1202, 0), (52, 83, 63, 28),
        (1057, 1438, 1202, 0), (52, 83, 63, 28), (1057, 1438, 1202, 0), (52, 83, 63, 28)]),
    row(Sys::TafTree(4), Progress, 1, Holds, 18, (192, 8), [
        (5863, 17076, 0, 0), (281, 878, 0, 397), (5863, 14714, 2362, 0), (281, 754, 124, 323),
        (5863, 14714, 2362, 0), (281, 754, 124, 323), (5863, 14714, 2362, 0), (281, 754, 124, 323)]),
    row(Sys::TasTarTree(2), Progress, 0, Holds, 9, (2, 1), [
        (17, 22, 0, 0), (9, 12, 0, 1), (11, 10, 4, 0), (6, 6, 2, 0),
        (11, 10, 4, 0), (6, 6, 2, 0), (11, 10, 4, 0), (6, 6, 2, 0)]),
    row(Sys::TasTarTree(2), Progress, 1, Holds, 9, (10, 5), [
        (39, 58, 0, 0), (20, 31, 0, 2), (39, 58, 0, 0), (20, 31, 0, 2),
        (39, 58, 0, 0), (20, 31, 0, 2), (39, 58, 0, 0), (20, 31, 0, 2)]),
    row(Sys::TasReadSearch(3), Progress, 0, Holds, 14, (6, 1), [
        (182, 375, 0, 0), (36, 78, 0, 25), (137, 198, 77, 0), (32, 53, 17, 14),
        (137, 198, 77, 0), (32, 53, 17, 14), (137, 198, 77, 0), (32, 53, 17, 14)]),
    row(Sys::TasReadSearch(3), Progress, 1, Holds, 14, (42, 7), [
        (557, 1266, 0, 0), (102, 249, 0, 84), (557, 1185, 81, 0), (102, 231, 18, 78),
        (557, 1185, 81, 0), (102, 231, 18, 78), (557, 1185, 81, 0), (102, 231, 18, 78)]),
    row(Sys::Splitter(3), Progress, 0, Holds, 14, (12, 12), [
        (919, 2100, 0, 0), (919, 2100, 0, 0), (810, 1444, 365, 0), (756, 1286, 379, 0),
        (793, 1269, 492, 0), (752, 1190, 463, 0), (688, 1010, 457, 0), (646, 947, 417, 0)]),
    row(Sys::Lemma1, Progress, 0, STUCK, 0, (0, 0), [
        (63, 108, 0, 0), (63, 108, 0, 0), (59, 95, 7, 0), (59, 98, 4, 0),
        (46, 65, 16, 0), (46, 65, 17, 0), (46, 65, 16, 0), (46, 65, 17, 0)]),
    // Fair-cycle liveness.
    liveness(Sys::Peterson(1), Free(Some(1)), 9, [(2, 1), (2, 1)], [
        (112, 224, 0, 0), (112, 224, 0, 0), (112, 224, 0, 0), (112, 224, 0, 0),
        (112, 224, 0, 0), (112, 224, 0, 0), (112, 224, 0, 0), (112, 224, 0, 0)]),
    liveness(Sys::Lamport(2), Starvable(33), 10, [(1, 1), (1, 1)], [
        (882, 1764, 0, 0), (882, 1764, 0, 0), (882, 1764, 0, 0), (882, 1764, 0, 0),
        (882, 1764, 0, 0), (882, 1764, 0, 0), (862, 1704, 20, 0), (862, 1704, 20, 0)]),
    liveness(Sys::TafTree(4), Free(Some(3)), 18, [(4, 1), (1, 1)], [
        (1603, 4260, 0, 0), (297, 811, 0, 245), (1539, 3975, 113, 0), (287, 756, 24, 224),
        (1539, 3975, 113, 0), (287, 756, 24, 224), (1539, 3975, 113, 0), (287, 756, 24, 224)]),
];

/// Rows of 9k–35k un-reduced states. By default they run only their
/// declared columns (bakery n=3 also its POR columns under the sharper
/// modes, for the strict shrink); every column, each sharper one paying
/// a control-automaton extraction, runs in
/// `exhaustive_heavy_rows_under_sharper_may_access`.
#[rustfmt::skip]
pub const HEAVY_ROWS: &[Row] = &[
    row(Sys::Bakery(3), Safety, 0, Holds, 20, (13, 13), [
        (9485, 25678, 0, 0), (9485, 25678, 0, 0), (8495, 22316, 782, 0), (8495, 22316, 782, 0),
        (8375, 20866, 1917, 0), (8375, 20866, 1917, 0), (5773, 9311, 4756, 0), (5773, 9311, 4756, 0)]),
    row(Sys::Lamport(3), Safety, 0, Holds, 14, (3, 3), [
        (11111, 30277, 0, 0), (11111, 30277, 0, 0), (10854, 28137, 1427, 0), (10854, 28137, 1427, 0),
        (10491, 26279, 2361, 0), (10491, 26279, 2361, 0), (9888, 18128, 3654, 0), (9888, 18128, 3654, 0)]),
    row(Sys::Tournament(4), Safety, 0, Holds, 19, (8, 8), [
        (17188, 59360, 0, 0), (17188, 59360, 0, 0), (15870, 48422, 6240, 0), (15870, 48422, 6240, 0),
        (13914, 38615, 9061, 0), (13914, 38615, 9061, 0), (5858, 7946, 3285, 0), (5858, 7946, 3285, 0)]),
    row(Sys::Lamport(3), Progress, 0, Holds, 14, (3, 3), [
        (9589, 25963, 0, 0), (9589, 25963, 0, 0), (9471, 23653, 1956, 0), (9503, 24036, 1672, 0),
        (9214, 22285, 2719, 0), (9264, 22634, 2500, 0), (9140, 21194, 3609, 0), (9158, 21342, 3485, 0)]),
    row(Sys::Tournament(4), Progress, 0, Holds, 19, (8, 8), [
        (14740, 50600, 0, 0), (14740, 50600, 0, 0), (13423, 38896, 7078, 0), (13756, 40004, 6949, 0),
        (8939, 24245, 5510, 0), (11419, 31845, 6722, 0), (8955, 24175, 5628, 0), (11421, 31532, 7042, 0)]),
    row(Sys::SplitterTree(4, 1), Progress, 0, Holds, 18, (44, 44), [
        (35469, 114264, 0, 0), (35469, 114264, 0, 0), (34063, 86104, 23364, 0), (33546, 84476, 23072, 0),
        (17098, 36848, 15757, 0), (17053, 36358, 15431, 0), (15828, 31129, 17069, 0), (16937, 34577, 16849, 0)]),
];

/// What one run observed.
#[derive(Debug, Default)]
pub struct Cell {
    pub counts: Pin,
    pub terminals: usize,
    pub slept: u64,
    /// (victims, graphs) of a liveness check.
    pub graphs: (usize, usize),
    pub footprint: StoreFootprint,
    pub verdict: Verdict,
    /// The `sans_wall()` stats or the violation, rendered — what the
    /// passivity check compares.
    pub fingerprint: String,
    /// Bytes of one whole state as the reference explorer keeps it
    /// (reference runs only).
    pub state_bytes: usize,
}

fn safety_cell(
    r: Result<ExploreStats, ExploreError>,
    replayed: impl FnOnce(&Violation) -> Verdict,
) -> Cell {
    match r {
        Ok(s) => Cell {
            counts: (
                s.states,
                s.transitions,
                s.states_pruned_por,
                s.orbits_merged,
            ),
            terminals: s.terminals,
            slept: s.transitions_slept,
            footprint: s.footprint,
            fingerprint: format!("{:?}", s.sans_wall()),
            ..Cell::default()
        },
        Err(e) => violated_cell(e, replayed),
    }
}

fn progress_cell(
    r: Result<ProgressStats, ExploreError>,
    crashes: u32,
    replayed_status: impl FnOnce(&[ScheduleStep]) -> Vec<Status>,
) -> Cell {
    match r {
        Ok(s) => Cell {
            counts: (
                s.states,
                s.transitions,
                s.states_pruned_por,
                s.orbits_merged,
            ),
            terminals: s.terminals,
            footprint: s.footprint,
            fingerprint: format!("{:?}", s.sans_wall()),
            ..Cell::default()
        },
        Err(e) => violated_cell(e, |v| {
            assert!(
                !v.schedule.is_empty(),
                "a stuck state needs a concrete schedule"
            );
            if crashes == 0 {
                assert!(
                    v.schedule
                        .iter()
                        .all(|s| matches!(s, ScheduleStep::Step(_))),
                    "a crash-free check produced a crash"
                );
            }
            let status = replayed_status(&v.schedule);
            assert!(
                status.contains(&Status::Running),
                "the replayed stuck state is quiescent"
            );
            STUCK
        }),
    }
}

fn liveness_cell(r: Result<LivenessReport, ExploreError>) -> Cell {
    let report = r.expect("liveness checks end in a verdict");
    let verdict = match &report.verdict {
        LivenessVerdict::StarvationFree { bypass, .. } => Free(*bypass),
        LivenessVerdict::Starvable(w) => Starvable(w.lasso.cycle.len()),
    };
    let s = report.stats;
    Cell {
        counts: (
            s.states,
            s.transitions,
            s.states_pruned_por,
            s.orbits_merged,
        ),
        graphs: (report.victims, report.graphs),
        footprint: s.footprint,
        verdict,
        fingerprint: format!("{:?}", s.sans_wall()),
        ..Cell::default()
    }
}

fn violated_cell(e: ExploreError, replayed: impl FnOnce(&Violation) -> Verdict) -> Cell {
    let ExploreError::Violation(v) = e else {
        panic!("exploration failed without a verdict: {e}");
    };
    Cell {
        verdict: replayed(&v),
        fingerprint: format!("{v:?}"),
        ..Cell::default()
    }
}

fn reference_cell(r: Reference, checker: Checker) -> Cell {
    let failed = match checker {
        Progress if !r.always_quiesces => Some("never quiesces".to_string()),
        _ => r.violation,
    };
    Cell {
        counts: (r.states, r.transitions, 0, 0),
        terminals: r.terminals,
        verdict: failed.map_or(Holds, |m| Violated(m.into())),
        state_bytes: r.state_bytes,
        ..Cell::default()
    }
}

fn no_check<P>(_: &[P], _: &Memory, _: &[Status]) -> Result<(), String> {
    Ok(())
}

/// One mutex cell; `cfg: None` runs the reference instead.
fn mutex<A>(alg: &A, trips: u32, checker: Checker, cfg: Option<ExploreConfig>) -> Cell
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + Hash + 'static,
{
    let pids = || (0..alg.n() as u32).map(ProcessId::new);
    let with_cs = || {
        pids()
            .map(|p| alg.client_with_cs(p, trips, 1))
            .collect::<Vec<_>>()
    };
    let plain = || pids().map(|p| alg.client(p, trips)).collect::<Vec<_>>();
    let Some(cfg) = cfg else {
        let memory = alg.memory().unwrap();
        let r = match checker {
            Safety => reference::explore(
                memory,
                with_cs(),
                0,
                &|procs: &[MutexClient<A::Lock>], _: &Memory, _: &[Status]| match procs
                    .iter()
                    .filter(|p| p.section() == Some(Section::Critical))
                    .count()
                {
                    0 | 1 => Ok(()),
                    k => Err(format!("{k} in the critical section")),
                },
                &|_: &[MutexClient<A::Lock>], _: &Memory, status: &[Status]| {
                    if status.iter().all(|s| *s == Status::Done) {
                        Ok(())
                    } else {
                        Err("stuck client".into())
                    }
                },
            ),
            _ => reference::explore(memory, plain(), 0, &no_check, &no_check),
        };
        return reference_cell(r, checker);
    };
    match checker {
        Safety => safety_cell(check_mutex_safety(alg, trips, cfg), |v| {
            let r = replay(alg.memory().unwrap(), with_cs(), &v.schedule).unwrap();
            let in_cs = r
                .procs
                .iter()
                .filter(|c| c.section() == Some(Section::Critical))
                .count();
            assert!(
                in_cs >= 2,
                "replayed state has {in_cs} in the critical section"
            );
            SHARED_CS
        }),
        Progress => progress_cell(check_mutex_progress(alg, trips, cfg), 0, |s| {
            replay(alg.memory().unwrap(), plain(), s).unwrap().status
        }),
        Liveness => liveness_cell(check_mutex_starvation(alg, cfg)),
    }
}

/// One naming cell; `cfg: None` runs the reference instead.
fn naming<A>(alg: &A, crashes: u32, checker: Checker, cfg: Option<ExploreConfig>) -> Cell
where
    A: NamingAlgorithm,
    A::Proc: Clone + Eq + Hash,
{
    let n = alg.n() as u64;
    let Some(cfg) = cfg else {
        let memory = alg.memory().unwrap();
        let distinct = move |procs: &[A::Proc]| {
            let mut seen = HashSet::new();
            for name in procs.iter().filter_map(|p| p.output()) {
                if name.raw() == 0 || name.raw() > n || !seen.insert(name) {
                    return Err(format!("bad or duplicate name {name}"));
                }
            }
            Ok(())
        };
        let r = match checker {
            Safety => reference::explore(
                memory,
                alg.processes(),
                crashes,
                &|procs, _, _| distinct(procs),
                &|procs, _, status| {
                    distinct(procs)?;
                    match procs
                        .iter()
                        .zip(status)
                        .position(|(p, s)| *s != Status::Crashed && p.output().is_none())
                    {
                        Some(i) => Err(format!("process {i} neither crashed nor decided")),
                        None => Ok(()),
                    }
                },
            ),
            _ => reference::explore(memory, alg.processes(), crashes, &no_check, &no_check),
        };
        return reference_cell(r, checker);
    };
    match checker {
        Safety => safety_cell(check_naming_uniqueness(alg, crashes, cfg), |v| {
            let r = replay(alg.memory().unwrap(), alg.processes(), &v.schedule).unwrap();
            let outputs = output_multiset(&r.procs);
            let (dup, _) = outputs
                .iter()
                .find(|(_, c)| **c >= 2)
                .unwrap_or_else(|| panic!("replayed state has no duplicate name: {outputs:?}"));
            assert!(
                v.message.contains(&format!("duplicate name {dup}")),
                "message {:?} does not name the replayed duplicate {dup}",
                v.message
            );
            let mut seen = HashSet::new();
            assert!(
                r.view()
                    .outputs()
                    .into_iter()
                    .flatten()
                    .any(|v| !seen.insert(v.raw())),
                "the replayed view does not re-fail the uniqueness check"
            );
            Violated(format!("{outputs:?}").into())
        }),
        Progress => progress_cell(check_naming_progress(alg, crashes, cfg), crashes, |s| {
            replay(alg.memory().unwrap(), alg.processes(), s)
                .unwrap()
                .status
        }),
        Liveness => liveness_cell(check_naming_lockout(alg, crashes, cfg)),
    }
}

/// One detection cell; `cfg: None` runs the reference instead.
fn detection<A>(alg: &A, checker: Checker, cfg: Option<ExploreConfig>) -> Cell
where
    A: DetectionAlgorithm,
    A::Proc: Clone + Eq + Hash,
{
    let procs = || {
        (0..alg.n() as u32)
            .map(|i| alg.process(ProcessId::new(i)))
            .collect::<Vec<_>>()
    };
    let winners = |procs: &[A::Proc]| {
        procs
            .iter()
            .filter(|p| p.output() == Some(Value::ONE))
            .count()
    };
    let Some(cfg) = cfg else {
        let memory = alg.memory().unwrap();
        let r = match checker {
            Safety => reference::explore(
                memory,
                procs(),
                0,
                &|procs, _, _| match winners(procs) {
                    0 | 1 => Ok(()),
                    w => Err(format!("{w} winners")),
                },
                &no_check,
            ),
            _ => reference::explore(memory, procs(), 0, &no_check, &no_check),
        };
        return reference_cell(r, checker);
    };
    match checker {
        Safety => safety_cell(check_detection_safety(alg, cfg), |v| {
            let r = replay(alg.memory().unwrap(), procs(), &v.schedule).unwrap();
            assert!(
                winners(&r.procs) >= 2,
                "replayed state has fewer than two winners"
            );
            TWO_WINNERS
        }),
        Progress => progress_cell(check_detection_progress(alg, cfg), 0, |s| {
            replay(alg.memory().unwrap(), procs(), s).unwrap().status
        }),
        Liveness => unreachable!("no detection liveness rows"),
    }
}

/// Runs `sys` under `checker`: the real checker under `cfg`, or the
/// reference explorer when `cfg` is `None`.
fn run(sys: Sys, checker: Checker, crashes: u32, cfg: Option<ExploreConfig>) -> Cell {
    match sys {
        Sys::Peterson(trips) => mutex(&PetersonTwo::new(), trips, checker, cfg),
        Sys::Lamport(n) => mutex(&LamportFast::new(n), 1, checker, cfg),
        Sys::Bakery(n) => mutex(&Bakery::new(n), 1, checker, cfg),
        Sys::Dijkstra(n) => mutex(&Dijkstra::new(n), 1, checker, cfg),
        Sys::Tournament(n) => mutex(&Tournament::new(n, 1), 1, checker, cfg),
        Sys::LeafToRoot(n) => mutex(
            &Tournament::new(n, 1).with_exit_order(ExitOrder::LeafToRoot),
            1,
            checker,
            cfg,
        ),
        Sys::TasScan(n) => naming(&TasScan::new(n), crashes, checker, cfg),
        Sys::TafTree(n) => naming(&TafTree::new(n).unwrap(), crashes, checker, cfg),
        Sys::TasTarTree(n) => naming(&TasTarTree::new(n).unwrap(), crashes, checker, cfg),
        Sys::TasReadSearch(n) => naming(&TasReadSearch::new(n), crashes, checker, cfg),
        Sys::Mutated(n, seed) => naming(&MutatedTasScan::new(n, seed), crashes, checker, cfg),
        Sys::Splitter(n) => detection(&Splitter::new(n), checker, cfg),
        Sys::SplitterTree(n, l) => detection(&SplitterTree::new(n, l), checker, cfg),
        Sys::Broken(n) => detection(&BrokenDetector::new(n), checker, cfg),
        Sys::Lemma1 => detection(&MutexDetector::new(PetersonTwo::new()), checker, cfg),
    }
}

/// The classes of `alg`'s clients that start identical, as `checker`
/// builds them for `trips` trips.
pub fn mutex_classes<A: MutexAlgorithm>(alg: &A, trips: u32, checker: Checker) -> SymmetryGroup
where
    A::Lock: PartialEq,
{
    let pids = (0..alg.n() as u32).map(ProcessId::new);
    let clients: Vec<_> = match checker {
        Safety => pids.map(|p| alg.client_with_cs(p, trips, 1)).collect(),
        Progress => pids.map(|p| alg.client(p, trips)).collect(),
        Liveness => pids.map(|p| alg.client_cycling(p, 1)).collect(),
    };
    SymmetryGroup::of_identical(&clients)
}

/// The classes of `alg`'s walkers that start identical.
pub fn naming_classes<A: NamingAlgorithm>(alg: &A) -> SymmetryGroup
where
    A::Proc: PartialEq,
{
    SymmetryGroup::of_identical(&alg.processes())
}

/// The classes of `alg`'s participants that start identical.
pub fn detection_classes<A: DetectionAlgorithm>(alg: &A) -> SymmetryGroup
where
    A::Proc: PartialEq,
{
    let procs: Vec<_> = (0..alg.n() as u32)
        .map(|i| alg.process(ProcessId::new(i)))
        .collect();
    SymmetryGroup::of_identical(&procs)
}

/// The classes of processes that start identical in `row`'s system, as
/// its checker builds the processes: the classes every symmetry column
/// canonicalizes under.
pub fn identical_classes(row: &Row) -> SymmetryGroup {
    let checker = row.checker;
    match row.sys {
        Sys::Peterson(trips) => mutex_classes(&PetersonTwo::new(), trips, checker),
        Sys::Lamport(n) => mutex_classes(&LamportFast::new(n), 1, checker),
        Sys::Bakery(n) => mutex_classes(&Bakery::new(n), 1, checker),
        Sys::Dijkstra(n) => mutex_classes(&Dijkstra::new(n), 1, checker),
        Sys::Tournament(n) => mutex_classes(&Tournament::new(n, 1), 1, checker),
        Sys::LeafToRoot(n) => mutex_classes(
            &Tournament::new(n, 1).with_exit_order(ExitOrder::LeafToRoot),
            1,
            checker,
        ),
        Sys::TasScan(n) => naming_classes(&TasScan::new(n)),
        Sys::TafTree(n) => naming_classes(&TafTree::new(n).unwrap()),
        Sys::TasTarTree(n) => naming_classes(&TasTarTree::new(n).unwrap()),
        Sys::TasReadSearch(n) => naming_classes(&TasReadSearch::new(n)),
        Sys::Mutated(n, seed) => naming_classes(&MutatedTasScan::new(n, seed)),
        Sys::Splitter(n) => detection_classes(&Splitter::new(n)),
        Sys::SplitterTree(n, l) => detection_classes(&SplitterTree::new(n, l)),
        Sys::Broken(n) => detection_classes(&BrokenDetector::new(n)),
        Sys::Lemma1 => detection_classes(&MutexDetector::new(PetersonTwo::new())),
    }
}

fn label(row: &Row) -> String {
    format!("{:?} {:?} crashes={}", row.sys, row.checker, row.crashes)
}

/// The reference explorer's run of `row`.
pub fn reference_run(row: &Row) -> Cell {
    run(row.sys, row.checker, row.crashes, None)
}

/// Runs `row`'s cell `col` under a `Recorder` sampling every `stride`
/// expansions; returns the cell and the recorded events.
fn recorded(row: &Row, col: usize, stride: u64) -> (Cell, Vec<TelemetryEvent>) {
    let rec = Recorder::new();
    let tel = Telemetry::new()
        .with_sink(rec.clone())
        .with_clock(Rc::new(ManualClock::with_tick(1_000)))
        .with_stride(stride);
    let cell = with_telemetry(&tel, || {
        run(row.sys, row.checker, row.crashes, Some(config(col)))
    });
    (cell, rec.events())
}

/// Runs one cell. A violation stops the search without stats, so a
/// violated cell runs again under a stride-1 `Recorder`: its last
/// sample of the search phase holds the counts the search stopped at.
fn observe(row: &Row, col: usize) -> Cell {
    let mut cell = run(row.sys, row.checker, row.crashes, Some(config(col)));
    if let Violated(_) = cell.verdict {
        let (again, events) = recorded(row, col, 1);
        assert_eq!(
            cell.fingerprint, again.fingerprint,
            "a recorder changed the violation"
        );
        let search = if row.checker == Safety {
            Phase::SafetyDfs
        } else {
            Phase::ProgressBfs
        };
        let s = events
            .iter()
            .rev()
            .find_map(|e| match e {
                TelemetryEvent::Snapshot { phase, snap, .. } if *phase == search => Some(snap),
                _ => None,
            })
            .expect("the search was sampled");
        cell.counts = (
            s.states as usize,
            s.transitions,
            s.states_pruned_por,
            s.orbits_merged,
        );
    }
    cell
}

/// Whether `index_bytes` fits the open table's envelope: doubling at a
/// 7/8 load factor leaves at worst 16/7 four-byte slots per state right
/// after a growth, and nothing shrinks the initial table.
pub fn index_within_envelope(index_bytes: u64, states: usize) -> bool {
    let bound = (states as f64 * (64.0 / 7.0 + 0.1)).max(OpenIndex::new().heap_bytes() as f64);
    index_bytes as f64 <= bound
}

/// The slot array an open table holding `len` ids has, by its growth
/// policy: the initial capacity, doubled until `len` fits at a load
/// factor of at most 7/8.
fn open_table_bytes(len: usize) -> u64 {
    let fresh = OpenIndex::new();
    let slot = fresh.heap_bytes() / fresh.capacity() as u64;
    let mut capacity = fresh.capacity();
    while len * 8 > capacity * 7 {
        capacity *= 2;
    }
    capacity as u64 * slot
}

/// Runs cell `col` of `row` and checks it against the row (see the
/// module docs).
pub fn check_cell(row: &Row, col: usize) -> Cell {
    let (name, por, symmetry, mode) = COLUMNS[col];
    let what = format!("{} [{name}]", label(row));
    let cell = observe(row, col);
    assert_eq!(cell.verdict, row.verdict, "{what}: verdict");
    assert_eq!(cell.counts, row.cells[pin(col)], "{what}: counts");
    if !por {
        assert_eq!(cell.slept, 0, "{what}: slept without POR");
    } else if mode != Declared {
        assert!(
            cell.counts.0 <= row.cells[pin(col % 4)].0,
            "{what}: a sharper may-access mode visited more states than the declared hooks"
        );
    }
    if col == BASELINE && row.checker != Liveness {
        let r = reference_run(row);
        let disagree = format!("{what}: baseline disagrees with the reference explorer");
        match (&r.verdict, &cell.verdict) {
            (Holds, Holds) => assert_eq!(
                (r.counts.0, r.counts.1, r.terminals),
                (cell.counts.0, cell.counts.1, cell.terminals),
                "{disagree}"
            ),
            // A stuck state is found after the whole graph is built.
            (Violated(_), Violated(_)) if row.checker == Progress => assert_eq!(
                (r.counts.0, r.counts.1),
                (cell.counts.0, cell.counts.1),
                "{disagree}"
            ),
            // A safety violation stops both searches early, at
            // different points.
            (Violated(_), Violated(_)) => {}
            (reference, _) => panic!("{disagree}: the reference found {reference:?}"),
        }
    }
    if let Violated(_) = row.verdict {
        return cell;
    }
    assert_eq!(
        cell.terminals,
        if symmetry {
            row.terminals.1
        } else {
            row.terminals.0
        },
        "{what}: terminals"
    );
    assert_eq!(
        cell.graphs, row.graphs[symmetry as usize],
        "{what}: (victims, graphs)"
    );
    assert_eq!(
        cell.footprint.arena_bytes,
        cell.counts.0 as u64 * row.arena,
        "{what}: arena bytes per state"
    );
    // Liveness footprints sum one index per victim graph.
    if row.checker != Liveness && !(por && mode == Dynamic) {
        assert_eq!(
            cell.footprint.index_bytes,
            open_table_bytes(cell.counts.0),
            "{what}: the index is not the open table for {} states",
            cell.counts.0
        );
    }
    cell
}

/// Checks the cells `cols` of every row of [`ROWS`] that `keep` selects.
pub fn check_rows(cols: &[usize], keep: impl Fn(&Row) -> bool) {
    let mut checked = 0;
    for row in ROWS.iter().filter(|r| keep(r)) {
        for &col in cols {
            check_cell(row, col);
        }
        checked += 1;
    }
    assert!(checked > 0, "the filter selected no rows");
}

/// Re-runs `row`'s cell `col` under a `Recorder`: no `sans_wall()` stat
/// may change.
pub fn check_passive(row: &Row, col: usize) {
    let plain = run(row.sys, row.checker, row.crashes, Some(config(col)));
    let (observed, events) = recorded(row, col, 16);
    let what = format!("{} [{}]", label(row), COLUMNS[col].0);
    assert!(!events.is_empty(), "{what}: the recorder saw no events");
    assert_eq!(
        plain.fingerprint, observed.fingerprint,
        "{what}: attaching a recorder changed the search"
    );
}

/// The rows whose declared hooks are deliberately location-insensitive
/// (the whole ticket array, the whole protocol), where each sharper
/// may-access mode must strictly shrink the reduced graph: bakery n=3
/// and the splitter n=3, safety.
pub fn strict_rows() -> impl Iterator<Item = &'static Row> {
    ROWS.iter()
        .chain(HEAVY_ROWS)
        .filter(|r| r.checker == Safety && matches!(r.sys, Sys::Bakery(3) | Sys::Splitter(3)))
}

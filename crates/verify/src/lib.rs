//! Verification substrate: exhaustive interleaving exploration,
//! lower-bound adversaries, and the Lemma 2 run-merge attack.
//!
//! The paper's lower bounds are proofs about *all* runs; this crate makes
//! them executable:
//!
//! * [`explore`](mod@explore) — a memoizing DFS over every interleaving (and optional
//!   crash pattern) of a small system, with safety checks in every state,
//!   plus a BFS progress checker over the same shared state-graph engine;
//!   both support partial-order reduction, and symmetry reduction over
//!   the processes that start identical.
//! * [`checks`] — ready-made exhaustive checks: mutual exclusion,
//!   detection safety, naming uniqueness + wait-freedom, and
//!   deadlock-freedom (progress) for all three problem families.
//! * [`liveness`] — fair-cycle liveness on the same engine: starvation
//!   freedom under weak fairness and bounded-bypass measurement, with
//!   replayable lasso witnesses for starvable verdicts **and**
//!   [`BypassWitness`] overtaking schedules for every finite bypass
//!   bound ([`check_mutex_starvation`], [`check_naming_lockout`];
//!   no reported bound without a replayable schedule).
//! * [`analysis`] — solo-execution control automata: each process
//!   stepped exhaustively over havoc memory, yielding a static lint of
//!   the hand-written reduction hooks ([`lint_model`]) and
//!   location-sensitive future-access sets that sharpen ample-set
//!   selection ([`MayAccessMode::Automaton`]).
//! * [`dynamic`] — dynamic partial-order reduction on top of the
//!   automaton substrate ([`MayAccessMode::Dynamic`]): read/write-split
//!   future sets, sleep sets over conflicts *observed* on explored
//!   paths, and vector-clock trace causality ([`trace_causality`]) so
//!   the test wall can audit the happens-before relation directly.
//! * [`merge`] — Lemma 2's merge construction: extract solo-run profiles,
//!   test the lemma's condition, and build the forbidden two-winner run
//!   when an algorithm violates it.
//! * [`adversary`] — the Theorem 6 lockstep and Theorem 7 sequential
//!   schedules, measuring worst-case naming complexity.
//! * [`stress`] — randomized long-run safety monitors for systems too
//!   large to explore exhaustively, for both mutual exclusion and
//!   naming, with seed-reported violations.
//! * [`telemetry`] — the observability layer every driver above
//!   reports through: phase spans, stride-sampled progress snapshots,
//!   and store events, delivered to pluggable sinks (stderr heartbeat,
//!   JSONL stream, in-memory recorder) that are provably passive —
//!   attaching one cannot change any count or verdict.
//!
//! ```
//! use cfc_verify::checks::check_mutex_safety;
//! use cfc_verify::explore::ExploreConfig;
//! use cfc_mutex::PetersonTwo;
//!
//! // Every interleaving of two single-trip Peterson clients is safe:
//! let stats = check_mutex_safety(&PetersonTwo::new(), 1, ExploreConfig::default()).unwrap();
//! assert!(stats.states > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod analysis;
pub mod checks;
pub mod csr;
pub mod dynamic;
pub mod explore;
mod graph;
mod hash;
pub mod index;
pub mod liveness;
pub mod merge;
mod store;
pub mod stress;
pub mod telemetry;

pub use adversary::{naming_profile, NamingProfile};
pub use analysis::{
    lint_model, ControlAutomaton, ExtractError, Finding, FindingKind, FutureIndex, LintReport,
    MayAccessMode,
};
pub use checks::{
    check_detection_progress, check_detection_safety, check_mutex_progress, check_mutex_safety,
    check_naming_progress, check_naming_uniqueness,
};
pub use dynamic::{
    observed_conflict, trace_causality, CausalEvent, ConflictEdge, TraceCausality, MAX_SLEEP_PROCS,
};
pub use explore::{
    canonical_key, check_progress, explore, replay, ExploreConfig, ExploreError, ExploreStats,
    ProgressStats, Replayed, ScheduleStep, Violation,
};
pub use index::OpenIndex;
pub use liveness::{
    check_liveness, check_mutex_starvation, check_naming_lockout, validate_bypass, validate_lasso,
    BypassWitness, Lasso, LassoWitness, LivenessReport, LivenessSpec, LivenessStats,
    LivenessVerdict, NormalizeFn,
};
pub use merge::{
    assert_resists_merge, lemma2_condition, merge_attack, solo_profile, MergeError, MergeFailure,
    MergeWitness, SoloProfile,
};
pub use stress::{
    stress_mutex, stress_naming, MutexViolation, NamingViolation, StressError, StressStats,
};
pub use telemetry::{
    with_telemetry, HeartbeatSink, JsonlSink, Observer, Phase, Recorder, Snapshot, StoreFootprint,
    Telemetry, TelemetryEvent,
};

//! # cfc — Contention-Free Complexity of Shared Memory Algorithms
//!
//! A complete reproduction of *Alur & Taubenfeld, "Contention-Free
//! Complexity of Shared Memory Algorithms"* (PODC 1994; Information and
//! Computation 126, 62–73, 1996) as a Rust workspace. This facade crate
//! re-exports the whole public API; see the individual crates for depth:
//!
//! * [`core`] — the formal execution model: bit-granular shared
//!   registers with an atomicity parameter `l`, the eight single-bit RMW
//!   operations, packed multi-grain words, processes as state machines,
//!   schedulers, crash injection, traces, and the four complexity
//!   measures.
//! * [`bounds`] — every closed-form bound from the paper
//!   (Theorems 1–7, Lemmas 3 and 6) as plain functions.
//! * [`mutex`] — Lamport's fast mutex, Peterson, the Theorem 3
//!   tournament trees, splitter-based contention detection, and the
//!   Lemma 1 reduction.
//! * [`naming`] — the Section 3 wait-free naming algorithms
//!   across bit-operation models, with generic dualization.
//! * [`verify`] — exhaustive interleaving exploration with
//!   safety, progress, and fair-cycle liveness checking (starvation
//!   freedom, bounded bypass), the Lemma 2 merge attack, and
//!   lower-bound adversaries.
//! * [`native`] — the same algorithms on `std::sync::atomic`
//!   for wall-clock experiments.
//!
//! ## Quick start
//!
//! Measure the paper's headline claim — Lamport's algorithm enters and
//! leaves its critical section in 7 accesses to 3 registers when alone,
//! for any number of processes:
//!
//! ```
//! use cfc::mutex::{measure, LamportFast, MutexAlgorithm};
//! use cfc::core::ProcessId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! for n in [2usize, 64, 4096] {
//!     let alg = LamportFast::new(n);
//!     let trip = measure::contention_free_trip(&alg, ProcessId::new(0))?;
//!     assert_eq!(trip.total.steps, 7);
//!     assert_eq!(trip.total.registers, 3);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cfc_bounds as bounds;
pub use cfc_core as core;
pub use cfc_mutex as mutex;
pub use cfc_naming as naming;
pub use cfc_native as native;
pub use cfc_verify as verify;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use cfc_core::{
        run_schedule, run_sequential, run_solo, BitOp, Complexity, ExecConfig, FaultPlan, Layout,
        Lockstep, Memory, Op, OpResult, Process, ProcessId, RandomSched, RegisterId, RoundRobin,
        Scheduler, Section, Sequential, Solo, Step, Trace, Value,
    };
    pub use cfc_mutex::{
        DetectionAlgorithm, LamportFast, LockProcess, MutexAlgorithm, PetersonTwo, Splitter,
        SplitterTree, Tournament,
    };
    pub use cfc_naming::{
        Dualized, Model, NamingAlgorithm, TafTree, TasReadSearch, TasScan, TasTarTree,
    };
}

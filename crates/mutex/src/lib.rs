//! Mutual exclusion and contention detection with measurable
//! contention-free complexity.
//!
//! Implements every Section 2 algorithm of *Alur & Taubenfeld,
//! "Contention-Free Complexity of Shared Memory Algorithms"* (PODC 1994),
//! on top of the [`cfc_core`] execution model:
//!
//! * [`LamportFast`] — Lamport's fast mutual exclusion \[Lam87\]: constant
//!   contention-free complexity (7 steps, 3 registers) with `Θ(log n)`-bit
//!   registers.
//! * [`Bakery`] and [`Dijkstra`] — the classic baselines (\[Dij65\] is the
//!   paper's citation for the problem) with `Θ(n)` contention-free cost:
//!   the contrast that motivates the contention-free measure.
//! * [`PetersonTwo`] — Peterson's two-process algorithm over three bits,
//!   the atomicity-1 building block.
//! * [`Tournament`] — the Theorem 3 construction: a `(2^l − 1)`-ary tree
//!   of Lamport nodes (or a binary tree of Peterson nodes at `l = 1`,
//!   the Peterson–Fischer/Kessels tournament), achieving
//!   `O(⌈log n / l⌉)` contention-free step and register complexity.
//! * [`Splitter`] / [`SplitterTree`] — direct contention detectors with
//!   bounded worst-case step complexity (4 steps per `2^l`-ary tree
//!   level); [`ChunkedSplitter`] is a deliberately kept **unsafe** variant
//!   whose torn `x`-write the `cfc-verify` explorer defeats.
//! * [`TasSpin`] — the one-bit test-and-set spin lock: safe and
//!   deadlock-free with zero fairness, the starvation baseline the
//!   fair-cycle liveness checker in `cfc-verify` defeats.
//! * [`MutexDetector`] — the Lemma 1 reduction from mutual exclusion to
//!   contention detection.
//! * [`BrokenDetector`] — an intentionally unsafe detector that the
//!   Lemma 2 merge attack in `cfc-verify` defeats.
//! * [`mutation`] — deliberately planted single-bug variants of the
//!   locks above (dropped doorway, reordered writes, skipped tree
//!   level, off-by-one ticket comparison), the mutants `cfc-verify`'s
//!   checker-sensitivity suite must catch.
//!
//! # Quick start
//!
//! ```
//! use cfc_mutex::{measure, LamportFast, MutexAlgorithm};
//! use cfc_core::ProcessId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let alg = LamportFast::new(1024);
//! let trip = measure::contention_free_trip(&alg, ProcessId::new(0))?;
//! assert_eq!(trip.total.steps, 7);     // independent of n
//! assert_eq!(trip.total.registers, 3); // x, y, b[0]
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithm;
mod bakery;
mod detect;
mod dijkstra;
mod lamport;
pub mod measure;
pub mod mutation;
mod peterson;
mod splitter;
mod tas_spin;
mod tournament;

pub use algorithm::{LockProcess, MutexAlgorithm, MutexClient, StateNormalizer};
pub use bakery::{Bakery, BakeryLock, TICKET_WIDTH};
pub use detect::{
    BrokenDetector, BrokenDetectorProc, DetectionAlgorithm, MutexDetector, MutexDetectorProc,
};
pub use dijkstra::{Dijkstra, DijkstraLock};
pub use lamport::{LamportFast, LamportLock};
pub use peterson::{PetersonLock, PetersonTwo};
pub use splitter::{ChunkedSplitter, Splitter, SplitterProc, SplitterTree, SplitterTreeProc};
pub use tas_spin::{TasSpin, TasSpinLock};
pub use tournament::{ExitOrder, Tournament, TournamentLock};

//! Wait-free naming over single-bit read–modify–write models.
//!
//! Section 3 of *Alur & Taubenfeld (PODC 1994)*: assign unique names from
//! `1..=n` to `n` initially identical processes, wait-free (crashes of
//! others never block a participant). The shared memory supports atomic
//! access to individual **bits** only; a [`Model`] fixes which of the
//! eight [`BitOp`](cfc_core::BitOp)s are available, and the four
//! complexity measures tease the models apart (the paper's closing table,
//! reproduced by `cfc-bench`).
//!
//! Algorithms (Theorem 4):
//!
//! | Algorithm | Model | Headline bound |
//! |---|---|---|
//! | [`TafTree`] | `{test-and-flip}` | worst-case step `log n` |
//! | [`TasTarTree`] | `{tas, tar}` | worst-case register `log n` |
//! | [`TasScan`] | `{tas}` | worst-case step `n − 1` (tight for the model) |
//! | [`TasReadSearch`] | `{read, tas}` | contention-free step `log n` |
//! | [`Dualized`] | dual of any | identical bounds (Section 3.2) |
//!
//! ```
//! use cfc_naming::{check, NamingAlgorithm, TafTree};
//! use cfc_core::{FaultPlan, Lockstep};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let alg = TafTree::new(8)?;
//! let run = check::run_checked(&alg, Lockstep::new(), FaultPlan::new())?;
//! assert_eq!(run.names.iter().flatten().count(), 8); // all named, uniquely
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithm;
pub mod check;
mod dual;
pub mod impossibility;
mod model;
mod taf_tree;
mod tas_read_search;
mod tas_scan;
mod tas_tar_tree;

pub use algorithm::NamingAlgorithm;
pub use dual::{DualProc, Dualized};
pub use impossibility::{lockstep_symmetry_witness, FlipReadAttempt, SymmetryWitness};
pub use model::Model;
pub use taf_tree::{NotAPowerOfTwo, TafTree, TreeWalkProc};
pub use tas_read_search::{TasReadSearch, TasReadSearchProc};
pub use tas_scan::{TasScan, TasScanProc};
pub use tas_tar_tree::{TasTarTree, TasTarTreeProc};

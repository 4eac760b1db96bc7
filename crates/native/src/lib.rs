//! Real-hardware implementations of the paper's algorithms on
//! `std::sync::atomic`.
//!
//! The simulation crates measure the paper's abstract complexity; this
//! crate measures *time*. It provides:
//!
//! * [`FastMutex`] — Lamport's fast mutual exclusion \[Lam87\]: a
//!   constant-length uncontended fast path (5 accesses in, 2 out).
//! * [`PetersonTree`] — the bit-only binary tournament (\[PF77\]/\[Kes82\]):
//!   `Θ(log n)` uncontended accesses, the price Theorem 1 proves
//!   unavoidable at atomicity 1.
//! * [`TasLock`] — test-and-set / TTAS spinlocks, with optional
//!   exponential [`Backoff`] (the Discussion-section technique).
//! * [`NamingRegistry`] — wait-free naming via `test-and-set` scan and
//!   binary search (Theorem 4.3/4.4).
//!
//! All atomics use `SeqCst`: the algorithms' correctness arguments (like
//! Dekker's) require a single total order over the `x`/`y`/flag writes,
//! which acquire/release does not provide.
//!
//! The `cfc-bench` crate uses these types to reproduce the paper's
//! wall-clock claims (contention-free fast paths; backoff keeping entry
//! time near the contention-free time at all contention levels).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backoff;
mod bakery;
mod fast_mutex;
mod lock;
mod naming;
mod peterson_tree;
mod tas_lock;

pub use backoff::Backoff;
pub use bakery::BakeryMutex;
pub use fast_mutex::FastMutex;
pub use lock::{Guard, SlottedMutex};
pub use naming::NamingRegistry;
pub use peterson_tree::PetersonTree;
pub use tas_lock::{SpinStrategy, TasLock};

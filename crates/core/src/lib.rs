//! Formal execution model for asynchronous shared-memory algorithms.
//!
//! This crate is the substrate of the reproduction of *Alur & Taubenfeld,
//! "Contention-Free Complexity of Shared Memory Algorithms"* (PODC 1994;
//! Information and Computation 126, 62–73, 1996). It implements the paper's
//! model of computation (Section 2.2) exactly:
//!
//! * **Shared registers** of bounded bit width, where the *atomicity* `l` of
//!   a system is the width of the largest register that can be accessed in
//!   one atomic step ([`Memory`], [`Layout`]).
//! * **Single-bit read–modify–write operations** — the eight operations of
//!   Section 3.1 ([`BitOp`]).
//! * **Multi-grain packed words** in the style of Michael & Scott \[MS93\]:
//!   several small registers packed into one word, accessible in a single
//!   atomic event ([`Layout::pack`]).
//! * **Processes as state machines** ([`Process`]): a run is an alternating
//!   sequence of states and events, each event belonging to one process.
//! * **Runs and traces** ([`Trace`], [`Event`]) produced by an interleaving
//!   [`Executor`] driven by a pluggable [`Scheduler`], with crash injection
//!   ([`FaultPlan`]) for wait-freedom experiments.
//! * **The four complexity measures** — {contention-free, worst-case} ×
//!   {step, register} — computed from traces ([`metrics`]).
//!
//! # Quick example
//!
//! A process that reads a bit and writes its complement back:
//!
//! ```
//! use cfc_core::{Layout, Memory, Op, OpResult, Process, Step, Value, run_solo};
//!
//! #[derive(Clone, Debug, PartialEq, Eq, Hash)]
//! struct Inverter {
//!     reg: cfc_core::RegisterId,
//!     pc: u8,
//!     seen: bool,
//! }
//!
//! impl Process for Inverter {
//!     fn current(&self) -> Step {
//!         match self.pc {
//!             0 => Step::Op(Op::Read(self.reg)),
//!             1 => Step::Op(Op::Write(self.reg, Value::from(!self.seen))),
//!             _ => Step::Halt,
//!         }
//!     }
//!     fn advance(&mut self, result: OpResult) {
//!         if self.pc == 0 {
//!             self.seen = result.bit();
//!         }
//!         self.pc += 1;
//!     }
//! }
//!
//! # fn main() -> Result<(), cfc_core::ExecError> {
//! let mut layout = Layout::new();
//! let reg = layout.bit("flag", false);
//! let memory = Memory::new(layout, 1)?;
//! let (trace, _proc, memory) = run_solo(memory, Inverter { reg, pc: 0, seen: false })?;
//! assert_eq!(memory.get(reg), Value::from(true));
//! assert_eq!(trace.access_count(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitop;
mod clock;
mod codec;
mod error;
mod exec;
mod fault;
mod footprint;
mod havoc;
mod ids;
mod layout;
mod memory;
pub mod metrics;
mod op;
mod process;
mod sched;
mod sym;
mod trace;
mod value;
mod vclock;

pub use bitop::BitOp;
pub use clock::{Clock, ManualClock, WallClock};
pub use codec::{LayoutCodec, StateCodec, StateReader, StateWriter};
pub use error::{ExecError, LayoutError, MemoryError};
pub use exec::{run_schedule, run_sequential, run_solo, ExecConfig, Executor, Outcome, Status};
pub use fault::FaultPlan;
pub use footprint::{Footprint, RegisterSet};
pub use havoc::{op_result_domain, HAVOC_WIDTH_CAP};
pub use ids::{ProcessId, RegisterId, WordId};
pub use layout::{Layout, RegisterSpec};
pub use memory::Memory;
pub use metrics::Complexity;
pub use op::{AccessClass, Op, OpResult, Step};
pub use process::{Process, Section};
pub use sym::SymmetryGroup;
pub use sched::{FixedOrder, Lockstep, RandomSched, RoundRobin, Scheduler, Sequential, Solo};
pub use trace::{Event, EventKind, Trace};
pub use value::{bits_for, mask, Value, MAX_WIDTH};
pub use vclock::VectorClock;

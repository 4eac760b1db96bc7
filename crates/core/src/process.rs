//! The process abstraction: algorithms as explicit state machines.

use std::fmt;

use crate::footprint::RegisterSet;
use crate::op::{OpResult, Step};
use crate::value::Value;

/// The region a mutual-exclusion participant currently occupies.
///
/// The paper's complexity definitions for mutual exclusion (Section 2.2)
/// are stated in terms of these regions: complexity is measured over the
/// *entry code* and *exit code*, never the critical section or remainder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Section {
    /// The process is not competing.
    #[default]
    Remainder,
    /// The process is executing its entry code (trying to enter).
    Entry,
    /// The process is inside its critical section.
    Critical,
    /// The process is executing its exit code (releasing).
    Exit,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Section::Remainder => "remainder",
            Section::Entry => "entry",
            Section::Critical => "critical",
            Section::Exit => "exit",
        };
        f.write_str(s)
    }
}

/// A process of the paper's model: a (possibly infinite) state machine that
/// communicates only through shared registers.
///
/// The executor drives a process with a *peek/advance* protocol:
///
/// 1. [`Process::current`] returns the next atomic step the process wants
///    to take. It must be **pure and deterministic** — calling it any
///    number of times without an intervening `advance` must return the same
///    step and must not change observable state. (The model checker in
///    `cfc-verify` relies on this to enumerate interleavings.)
/// 2. If the step is an operation, the executor applies it to shared memory
///    and passes the result to [`Process::advance`], which moves the state
///    machine forward. For [`Step::Internal`], `advance` is called with
///    [`OpResult::None`]. For [`Step::Halt`], `advance` is never called
///    again.
///
/// One `current`/`advance` round is exactly one *event* of the paper's run
/// semantics.
pub trait Process {
    /// The next atomic step this process wishes to take.
    fn current(&self) -> Step;

    /// Advances the state machine with the result of the step returned by
    /// the last call to [`Process::current`].
    fn advance(&mut self, result: OpResult);

    /// The process's decision value, once it has halted.
    ///
    /// Contention-detection processes output `0`/`1`; naming processes
    /// output their name. Defaults to `None` for processes without outputs.
    fn output(&self) -> Option<Value> {
        None
    }

    /// The mutual-exclusion section this process currently occupies, if the
    /// process participates in a mutual-exclusion protocol.
    ///
    /// The executor records a [`Section`](crate::EventKind::Section) event
    /// whenever the reported section changes; metrics use those markers to
    /// delimit entry/exit windows. Defaults to `None` for processes without
    /// sections (naming, detection).
    fn section(&self) -> Option<Section> {
        None
    }

    /// A 64-bit fingerprint of the process's local state, used by the
    /// symmetry-reduced explorer in `cfc-verify` to canonically order
    /// interchangeable processes.
    ///
    /// The fingerprint must be a pure function of the local state, and
    /// should be injective on the states one algorithm instance can reach
    /// (collisions are sound — they only forfeit orbit merges). Defaults
    /// to `None`, in which case the explorer falls back to hashing the
    /// full state via the process's `Hash` implementation.
    fn fingerprint(&self) -> Option<u64> {
        None
    }

    /// A compact key for this process's *control location*, used by the
    /// solo-execution control-automaton analysis in `cfc-verify` to merge
    /// local states that are indistinguishable to reduction.
    ///
    /// Contract: two states of the same system that report the same
    /// `Some` location must have (a) the same current-step footprint and
    /// (b) the same set of successor locations over all operation
    /// results — except that successors looping back to the same
    /// location may differ (a self-loop adds nothing to the location's
    /// future-access set). Data that influences *which* registers are
    /// accessed must therefore be part of the location; data that only
    /// influences written values (tickets, scratch maxima) should be
    /// projected away, which is exactly what keeps the havoc execution
    /// tree finite. Defaults to `None`, in which case the analysis keys
    /// on the full state via `Eq`/`Hash` (always sound, finite only for
    /// processes that retain no wide data).
    fn location(&self) -> Option<u64> {
        None
    }

    /// Writes an over-approximation of every shared location this process
    /// may access in the current step **or any future step** (under any
    /// operation results) into `out`, returning `true`; returns `false`
    /// when no such bound is known (the default), which partial-order
    /// reduction treats as "may access everything".
    ///
    /// Contract: the set must be *monotone* — advancing the process never
    /// grows it — and must cover the current step's footprint. Callers
    /// pass `out` pre-cleared.
    fn may_access(&self, _out: &mut RegisterSet) -> bool {
        false
    }

    /// Packs this process's local state into `w`, returning `true`;
    /// returns `false` (the default) when the process offers no packing.
    ///
    /// No checker reads this hook: the packed state store in
    /// `cfc-verify` interns every local state into a side table and
    /// stores a 32-bit slot per process, whatever this returns. It stays
    /// only as an inert default because the checker benchmark
    /// (`perfbench/`, a separate package) still calls it.
    fn pack_state(&self, _w: &mut crate::codec::StateWriter) -> bool {
        false
    }
}

impl<P: Process + ?Sized> Process for Box<P> {
    fn current(&self) -> Step {
        (**self).current()
    }

    fn advance(&mut self, result: OpResult) {
        (**self).advance(result)
    }

    fn output(&self) -> Option<Value> {
        (**self).output()
    }

    fn section(&self) -> Option<Section> {
        (**self).section()
    }

    fn fingerprint(&self) -> Option<u64> {
        (**self).fingerprint()
    }

    fn location(&self) -> Option<u64> {
        (**self).location()
    }

    fn may_access(&self, out: &mut RegisterSet) -> bool {
        (**self).may_access(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Step;

    #[derive(Clone)]
    struct Halter;

    impl Process for Halter {
        fn current(&self) -> Step {
            Step::Halt
        }
        fn advance(&mut self, _: OpResult) {
            unreachable!("halted process is never advanced")
        }
    }

    #[test]
    fn default_accessors_are_none() {
        let p = Halter;
        assert!(p.output().is_none());
        assert!(p.section().is_none());
    }

    #[test]
    fn boxed_process_delegates() {
        let p: Box<dyn Process> = Box::new(Halter);
        assert_eq!(p.current(), Step::Halt);
        assert!(p.output().is_none());
    }

    #[test]
    fn section_display() {
        assert_eq!(Section::Entry.to_string(), "entry");
        assert_eq!(Section::Critical.to_string(), "critical");
        assert_eq!(Section::default(), Section::Remainder);
    }
}

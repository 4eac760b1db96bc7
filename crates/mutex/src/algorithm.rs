//! Traits tying mutual-exclusion algorithms to the execution model.

use cfc_core::{
    Layout, Memory, MemoryError, OpResult, Process, ProcessId, RegisterSet, Section, Step,
    SymmetryGroup, Value,
};

/// A global-state abstraction used by the fair-cycle liveness checker in
/// `cfc-verify`: a function rewriting (process states, register values)
/// in place to a canonical representative of a *behavioral* equivalence
/// class.
///
/// Contract: the rewrite must be a bisimulation that preserves sections,
/// outputs, and statuses — two states with the same normal form must
/// admit the same (normalized) successors under every process step. The
/// checker applies it to every explored state, which turns algorithms
/// with unbounded auxiliary counters (bakery tickets) into finite
/// quotients so that cycle detection terminates. Safety and progress
/// checking never use it.
pub type StateNormalizer<L> = Box<dyn Fn(&mut [MutexClient<L>], &mut [Value]) + Send + Sync>;

/// The entry/exit state machine of one mutual-exclusion participant.
///
/// A `LockProcess` exposes the algorithm's *entry code* and *exit code* as
/// two resumable phases. Within a phase it follows the same peek/advance
/// protocol as [`Process`]; [`Step::Halt`] signals that the current phase
/// has completed (the process is at the critical-section boundary after
/// entry, or back at the remainder boundary after exit).
///
/// Lock processes are composable: the tournament construction of Theorem 3
/// treats each tree node as a nested `LockProcess`.
pub trait LockProcess {
    /// Resets the state machine to the start of the entry code.
    fn begin_entry(&mut self);

    /// Resets the state machine to the start of the exit code.
    ///
    /// Callers invoke this only after the entry phase has completed (the
    /// process holds the lock).
    fn begin_exit(&mut self);

    /// The next step of the current phase; [`Step::Halt`] when the phase is
    /// complete. Must be pure, like [`Process::current`].
    fn current(&self) -> Step;

    /// Advances past the step returned by [`LockProcess::current`].
    fn advance(&mut self, result: OpResult);

    /// Writes the set of every register this lock may access in **any**
    /// phase (entry or exit, over any number of acquire/release cycles)
    /// into `out`, returning `true`; returns `false` (the default) when no
    /// such static bound is known.
    ///
    /// [`MutexClient`] forwards this as its
    /// [`Process::may_access`] over-approximation, which lets the
    /// partial-order-reduced explorer treat clients operating on disjoint
    /// register sets — e.g. processes climbing disjoint subtrees of a
    /// tournament — as independent.
    fn protocol_footprint(&self, _out: &mut RegisterSet) -> bool {
        false
    }

    /// A compact key for the lock's *control location*, forwarded (packed
    /// together with the client's own phase fields) as the client's
    /// [`Process::location`].
    ///
    /// Same contract as [`Process::location`]: states sharing a key must
    /// have the same current-step footprint and the same successor-key
    /// set (modulo self-loops), so any data that only influences written
    /// values or loop-exit tests — bakery's ticket scratch, say — must be
    /// projected away, and that projection is exactly what keeps the
    /// solo-execution control automaton finite for locks that read
    /// unbounded tickets. Defaults to `None`: the analysis then keys on
    /// the client's full state, which stays finite for locks whose local
    /// state is control-only (Peterson nodes, Lamport's pc-driven scan,
    /// whole tournament paths).
    fn lock_location(&self) -> Option<u64> {
        None
    }
}

/// A mutual-exclusion algorithm for `n` processes: a recipe producing the
/// shared register [`Layout`] and one [`LockProcess`] per participant.
///
/// The layout is built once per algorithm instance so that every
/// participant's lock refers to the same register ids.
pub trait MutexAlgorithm {
    /// The per-participant lock state machine.
    type Lock: LockProcess;

    /// A human-readable algorithm name for reports.
    fn name(&self) -> &str;

    /// The number of participating processes.
    fn n(&self) -> usize;

    /// The atomicity `l` this algorithm requires: the width of the widest
    /// register (or packed word) it accesses in one atomic step.
    fn atomicity(&self) -> u32;

    /// The shared register layout.
    fn layout(&self) -> Layout;

    /// The lock state machine for participant `pid` (`pid.index() < n`).
    fn lock(&self, pid: ProcessId) -> Self::Lock;

    /// The process-symmetry group of this algorithm: the classes of
    /// clients that start identical.
    ///
    /// The checkers in `cfc-verify` do not read it; they derive the same
    /// classes from the clients they build
    /// ([`SymmetryGroup::of_identical`]). It serves callers that need the
    /// group without building clients, such as a benchmark that
    /// canonicalizes a corpus of states, and a workspace test holds it
    /// equal to the derivation for every modeled family.
    ///
    /// Defaults to the trivial group, which is right for every lock whose
    /// state embeds the client's pid; a lock with no identity at all
    /// declares [`SymmetryGroup::full`].
    fn symmetry(&self) -> SymmetryGroup {
        SymmetryGroup::trivial(self.n())
    }

    /// A fresh shared memory for this algorithm.
    ///
    /// # Errors
    ///
    /// Propagates layout/atomicity validation errors (none occur for a
    /// well-formed algorithm).
    fn memory(&self) -> Result<Memory, MemoryError> {
        Memory::new(self.layout(), self.atomicity())
    }

    /// A ready-to-run client for participant `pid` performing `trips`
    /// critical-section entries.
    fn client(&self, pid: ProcessId, trips: u32) -> MutexClient<Self::Lock> {
        MutexClient::new(self.lock(pid), trips)
    }

    /// A client spending `cs_steps` internal steps inside each critical
    /// section.
    ///
    /// Safety checkers use `cs_steps ≥ 1` so that occupancy of the
    /// critical section is an observable state: with zero dwell steps a
    /// client passes through [`Section::Critical`] instantaneously and a
    /// mutual-exclusion monitor would never see two occupants.
    fn client_with_cs(&self, pid: ProcessId, trips: u32, cs_steps: u32) -> MutexClient<Self::Lock> {
        MutexClient::with_cs_steps(self.lock(pid), trips, cs_steps)
    }

    /// A client that re-enters its critical section **forever** (spending
    /// `cs_steps` internal steps inside each occupancy), never reaching
    /// the remainder. Cycling clients are what give the global state
    /// graph genuine infinite behaviors, so the fair-cycle liveness
    /// checker in `cfc-verify` runs on them: starvation only shows up
    /// against competitors that keep coming back.
    fn client_cycling(&self, pid: ProcessId, cs_steps: u32) -> MutexClient<Self::Lock> {
        MutexClient::cycling(self.lock(pid), cs_steps)
    }

    /// An optional [`StateNormalizer`] making the cycling-client state
    /// graph finite for algorithms whose auxiliary state grows without
    /// bound under sustained contention. Defaults to `None` (most locks
    /// are finite-state already); [`crate::Bakery`] supplies a
    /// ticket-shifting normalizer.
    fn liveness_normalizer(&self) -> Option<StateNormalizer<Self::Lock>> {
        None
    }
}

/// Drives a [`LockProcess`] through `trips` remainder→entry→critical→exit
/// cycles, reporting its [`Section`] to the executor.
///
/// The client spends a configurable number of internal steps inside the
/// critical section (default 0: the paper's definitions assume processes
/// take no shared-memory steps in the critical section).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct MutexClient<L> {
    lock: L,
    section: Section,
    trips_remaining: u32,
    cs_steps: u32,
    cs_left: u32,
    /// Cycling mode: re-enter forever, never decrementing the trip count.
    forever: bool,
    /// Weak-fairness bookkeeping for cycling clients: has this client
    /// taken at least one step of its *current* entry attempt? Only
    /// maintained in cycling mode so that finite-trip state spaces (and
    /// their exhaustively asserted sizes) are unchanged.
    engaged: bool,
}

/// Field-wise, so that `clone_from` reuses the lock's storage: the
/// control-automaton analysis resets one scratch client per havoc
/// branch. Both methods name every field, so a new one cannot be
/// skipped.
impl<L: Clone> Clone for MutexClient<L> {
    fn clone(&self) -> Self {
        let MutexClient {
            lock,
            section,
            trips_remaining,
            cs_steps,
            cs_left,
            forever,
            engaged,
        } = self;
        MutexClient {
            lock: lock.clone(),
            section: *section,
            trips_remaining: *trips_remaining,
            cs_steps: *cs_steps,
            cs_left: *cs_left,
            forever: *forever,
            engaged: *engaged,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let MutexClient {
            lock,
            section,
            trips_remaining,
            cs_steps,
            cs_left,
            forever,
            engaged,
        } = source;
        self.lock.clone_from(lock);
        self.section = *section;
        self.trips_remaining = *trips_remaining;
        self.cs_steps = *cs_steps;
        self.cs_left = *cs_left;
        self.forever = *forever;
        self.engaged = *engaged;
    }
}

impl<L: LockProcess> MutexClient<L> {
    /// Creates a client that performs `trips` critical-section entries.
    pub fn new(lock: L, trips: u32) -> Self {
        Self::with_cs_steps(lock, trips, 0)
    }

    /// Creates a client spending `cs_steps` internal steps per critical
    /// section.
    pub fn with_cs_steps(mut lock: L, trips: u32, cs_steps: u32) -> Self {
        let section = if trips > 0 {
            lock.begin_entry();
            Section::Entry
        } else {
            Section::Remainder
        };
        let mut client = MutexClient {
            lock,
            section,
            trips_remaining: trips,
            cs_steps,
            cs_left: cs_steps,
            forever: false,
            engaged: false,
        };
        client.settle();
        client
    }

    /// Creates a client that cycles through its sections **forever**
    /// (see [`MutexAlgorithm::client_cycling`]).
    pub fn cycling(lock: L, cs_steps: u32) -> Self {
        let mut client = Self::with_cs_steps(lock, 1, cs_steps);
        client.forever = true;
        client
    }

    /// The wrapped lock.
    pub fn lock(&self) -> &L {
        &self.lock
    }

    /// Mutable access to the wrapped lock — for [`StateNormalizer`]s
    /// only, which must rewrite lock state to a behaviorally equivalent
    /// normal form (see the type's contract).
    pub fn lock_mut(&mut self) -> &mut L {
        &mut self.lock
    }

    /// Whether this client cycles forever (never reaches the remainder).
    pub fn is_cycling(&self) -> bool {
        self.forever
    }

    /// Whether a cycling client has taken at least one step of its
    /// current entry attempt. The liveness checker starts counting
    /// bypasses only once the waiter is engaged: before its first entry
    /// step the algorithm cannot possibly know the client exists, so
    /// "overtaking" it is meaningless. Always `false` for finite-trip
    /// clients.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// The number of critical-section entries still to perform (including
    /// any trip in progress).
    pub fn trips_remaining(&self) -> u32 {
        self.trips_remaining
    }

    /// Resolves phase completions eagerly so that `current()` stays pure:
    /// whenever the lock reports `Halt` within a phase, move to the next
    /// section.
    fn settle(&mut self) {
        loop {
            match self.section {
                Section::Entry => {
                    if matches!(self.lock.current(), Step::Halt) {
                        self.section = Section::Critical;
                        self.cs_left = self.cs_steps;
                        continue;
                    }
                }
                Section::Critical => {
                    if self.cs_left == 0 {
                        self.lock.begin_exit();
                        self.section = Section::Exit;
                        continue;
                    }
                }
                Section::Exit => {
                    if matches!(self.lock.current(), Step::Halt) {
                        if !self.forever {
                            self.trips_remaining -= 1;
                        }
                        if self.trips_remaining > 0 {
                            self.lock.begin_entry();
                            self.section = Section::Entry;
                            self.engaged = false;
                        } else {
                            self.section = Section::Remainder;
                        }
                        continue;
                    }
                }
                Section::Remainder => {}
            }
            break;
        }
    }
}

impl<L: LockProcess> Process for MutexClient<L> {
    fn current(&self) -> Step {
        match self.section {
            Section::Remainder => Step::Halt,
            Section::Critical => Step::Internal,
            Section::Entry | Section::Exit => self.lock.current(),
        }
    }

    fn advance(&mut self, result: OpResult) {
        match self.section {
            Section::Remainder => unreachable!("halted client advanced"),
            Section::Critical => {
                debug_assert!(self.cs_left > 0);
                self.cs_left -= 1;
            }
            Section::Entry | Section::Exit => {
                if self.forever && self.section == Section::Entry {
                    self.engaged = true;
                }
                self.lock.advance(result)
            }
        }
        self.settle();
    }

    fn section(&self) -> Option<Section> {
        Some(self.section)
    }

    fn location(&self) -> Option<u64> {
        // Pack the client's own phase fields under the lock's location
        // key. `cs_steps` is constant across a system and so carries no
        // information; everything else that varies is included. Field
        // overflow declines the key rather than aliasing distinct
        // states (aliasing would break the location congruence contract
        // and surface as lint findings).
        let lock = self.lock.lock_location()?;
        if lock >= 1 << 40 || self.trips_remaining >= 1 << 10 || self.cs_left >= 1 << 10 {
            return None;
        }
        let tag = match self.section {
            Section::Remainder => 0u64,
            Section::Entry => 1,
            Section::Critical => 2,
            Section::Exit => 3,
        };
        Some(
            lock << 24
                | u64::from(self.trips_remaining) << 14
                | u64::from(self.cs_left) << 4
                | tag << 2
                | u64::from(self.forever) << 1
                | u64::from(self.engaged),
        )
    }

    fn may_access(&self, out: &mut RegisterSet) -> bool {
        if self.section == Section::Remainder {
            // All trips done: the client never touches shared memory again.
            return true;
        }
        // The lock's static protocol footprint covers every remaining
        // entry/exit cycle, so it stays a sound over-approximation for
        // multi-trip clients too.
        self.lock.protocol_footprint(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{Op, RegisterId, Value};

    /// A trivial lock: entry = one write of 1, exit = one write of 0.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct ToyLock {
        reg: RegisterId,
        pc: u8, // 0 idle, 1 entry-write, 2 entry-done, 3 exit-write, 4 exit-done
    }

    impl LockProcess for ToyLock {
        fn begin_entry(&mut self) {
            self.pc = 1;
        }
        fn begin_exit(&mut self) {
            self.pc = 3;
        }
        fn current(&self) -> Step {
            match self.pc {
                1 => Step::Op(Op::Write(self.reg, Value::ONE)),
                3 => Step::Op(Op::Write(self.reg, Value::ZERO)),
                _ => Step::Halt,
            }
        }
        fn advance(&mut self, _: OpResult) {
            self.pc += 1;
        }
    }

    fn toy() -> ToyLock {
        ToyLock {
            reg: RegisterId::new(0),
            pc: 0,
        }
    }

    #[test]
    fn zero_trips_is_immediately_done() {
        let client = MutexClient::new(toy(), 0);
        assert_eq!(client.current(), Step::Halt);
        assert_eq!(client.section(), Some(Section::Remainder));
    }

    #[test]
    fn one_trip_walks_all_sections() {
        let mut client = MutexClient::new(toy(), 1);
        assert_eq!(client.section(), Some(Section::Entry));
        assert!(matches!(client.current(), Step::Op(_)));
        client.advance(OpResult::None); // entry write done -> critical (0 cs steps) -> exit begins
        assert_eq!(client.section(), Some(Section::Exit));
        client.advance(OpResult::None); // exit write done -> remainder
        assert_eq!(client.section(), Some(Section::Remainder));
        assert_eq!(client.current(), Step::Halt);
        assert_eq!(client.trips_remaining(), 0);
    }

    #[test]
    fn cs_steps_are_internal() {
        let mut client = MutexClient::with_cs_steps(toy(), 1, 2);
        client.advance(OpResult::None); // entry done
        assert_eq!(client.section(), Some(Section::Critical));
        assert_eq!(client.current(), Step::Internal);
        client.advance(OpResult::None);
        assert_eq!(client.current(), Step::Internal);
        client.advance(OpResult::None);
        assert_eq!(client.section(), Some(Section::Exit));
    }

    #[test]
    fn cycling_client_never_reaches_remainder() {
        let mut client = MutexClient::cycling(toy(), 0);
        assert!(client.is_cycling());
        assert!(!client.engaged());
        assert_eq!(client.section(), Some(Section::Entry));
        for round in 0..8 {
            // Entry step: one write, after which the client is engaged
            // until the next attempt begins.
            assert!(matches!(client.current(), Step::Op(_)), "round {round}");
            client.advance(OpResult::None); // entry done -> exit (0 cs steps)
            assert_eq!(client.section(), Some(Section::Exit));
            assert!(client.engaged());
            client.advance(OpResult::None); // exit done -> fresh entry
            assert_eq!(client.section(), Some(Section::Entry));
            assert!(!client.engaged(), "new attempt resets engagement");
        }
        // Finite-trip clients never report engagement.
        let mut finite = MutexClient::new(toy(), 2);
        finite.advance(OpResult::None);
        assert!(!finite.engaged());
        assert!(!finite.is_cycling());
    }

    #[test]
    fn multiple_trips_loop_back_to_entry() {
        let mut client = MutexClient::new(toy(), 2);
        client.advance(OpResult::None); // trip 1 entry
        client.advance(OpResult::None); // trip 1 exit -> trip 2 entry
        assert_eq!(client.section(), Some(Section::Entry));
        assert_eq!(client.trips_remaining(), 1);
        client.advance(OpResult::None);
        client.advance(OpResult::None);
        assert_eq!(client.current(), Step::Halt);
    }
}

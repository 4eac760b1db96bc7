//! Lamport's bakery algorithm — the classic pre-[Lam87] baseline.
//!
//! The bakery algorithm is first-come-first-served and deadlock-free, but
//! its *contention-free* complexity is Θ(n): even alone, a process reads
//! every other participant's ticket twice (once to choose its own, once
//! to pass the wait loop). It is exactly the kind of algorithm the
//! paper's introduction argues against optimizing for worst-case alone —
//! Lamport's later fast algorithm [Lam87] gets the same safety with a
//! constant contention-free cost.
//!
//! Pseudocode for process `i`:
//!
//! ```text
//! entry: choosing[i] := 1
//!        number[i] := 1 + max_j number[j]
//!        choosing[i] := 0
//!        for j in 0..n:
//!            await choosing[j] = 0
//!            await number[j] = 0 or (number[j], j) > (number[i], i)
//! exit:  number[i] := 0
//! ```
//!
//! Real bakery tickets are unbounded; this simulation bounds them at
//! `2^TICKET_WIDTH − 1`. On overflow the over-wide ticket write surfaces
//! as a structured [`cfc_core::MemoryError::ValueTooWide`] through
//! whichever executor or checker ran the step — never a panic, and never
//! a silent truncation (reachable only under sustained contention far
//! beyond what the tests run).

use std::sync::Arc;

use cfc_core::{Layout, Op, OpResult, ProcessId, RegisterId, RegisterSet, Step, Value};

use crate::algorithm::{LockProcess, MutexAlgorithm, StateNormalizer};
use crate::mutation::BakeryMutation;

/// Ticket register width (tickets are bounded in simulation).
pub const TICKET_WIDTH: u32 = 16;

/// Lamport's bakery algorithm for `n` processes.
///
/// # Examples
///
/// ```
/// use cfc_mutex::{measure, Bakery, LamportFast, MutexAlgorithm};
/// use cfc_core::ProcessId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The motivation for contention-free complexity, in two lines: both
/// // algorithms are deadlock-free, but alone the bakery pays Θ(n) while
/// // the fast algorithm pays 7.
/// let bakery = measure::contention_free_trip(&Bakery::new(64), ProcessId::new(0))?;
/// let fast = measure::contention_free_trip(&LamportFast::new(64), ProcessId::new(0))?;
/// assert!(bakery.total.steps > 100);
/// assert_eq!(fast.total.steps, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Bakery {
    n: usize,
    layout: Layout,
    choosing: Arc<[RegisterId]>,
    number: Arc<[RegisterId]>,
    mutation: Option<BakeryMutation>,
}

impl Bakery {
    /// Creates the algorithm for `n ≥ 1` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let mut layout = Layout::new();
        let choosing: Arc<[RegisterId]> = layout.bits("choosing", n, false).into();
        let number: Arc<[RegisterId]> = layout.array("number", n, TICKET_WIDTH, 0).into();
        Bakery {
            n,
            layout,
            choosing,
            number,
            mutation: None,
        }
    }

    /// Plants a deliberate bug (a test-only fixture for the
    /// checker-sensitivity suite; see [`crate::mutation`]).
    #[must_use]
    pub fn with_mutation(mut self, mutation: BakeryMutation) -> Self {
        self.mutation = Some(mutation);
        self
    }
}

impl MutexAlgorithm for Bakery {
    type Lock = BakeryLock;

    fn name(&self) -> &str {
        "bakery"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn atomicity(&self) -> u32 {
        TICKET_WIDTH
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn lock(&self, pid: ProcessId) -> BakeryLock {
        assert!(pid.index() < self.n, "pid out of range");
        BakeryLock {
            choosing: Arc::clone(&self.choosing),
            number: Arc::clone(&self.number),
            me: pid.index() as u32,
            pc: Pc::Idle,
            max_seen: 0,
            my_number: 0,
            mutation: self.mutation,
        }
    }

    /// Ticket-shifting normalizer: bakery tickets grow without bound
    /// under the sustained contention of cycling clients, so the raw
    /// state graph is infinite. Ticket *values* are behaviorally inert,
    /// though — every comparison the algorithm makes is on the relative
    /// order of tickets (with `0` distinguished as "not competing") —
    /// so states that differ by a uniform shift of all live nonzero
    /// tickets are bisimilar. The normalizer
    ///
    /// 1. zeroes dead ticket scratch (`max_seen` outside the scan,
    ///    `my_number` outside its assignment-to-last-use range), and
    /// 2. shifts every live nonzero ticket — the `number[]` registers
    ///    plus each lock's live `max_seen`/`my_number` — down uniformly
    ///    so the smallest becomes `1`.
    ///
    /// Reachable normalized tickets are bounded by ~`2n` (at most `n`
    /// competitors, each at most one past the previous maximum), so the
    /// fair-cycle liveness checker terminates on the finite quotient.
    fn liveness_normalizer(&self) -> Option<StateNormalizer<BakeryLock>> {
        let number = Arc::clone(&self.number);
        Some(Box::new(move |clients, values| {
            for c in clients.iter_mut() {
                let lock = c.lock_mut();
                if !matches!(lock.pc, Pc::ScanMax(_)) {
                    lock.max_seen = 0;
                }
                if !matches!(
                    lock.pc,
                    Pc::WriteNumber | Pc::WriteChoosing0 | Pc::WaitChoosing(_) | Pc::WaitNumber(_)
                ) {
                    lock.my_number = 0;
                }
            }
            let mut min = u64::MAX;
            for &r in number.iter() {
                let v = values[r.index()].raw();
                if v != 0 {
                    min = min.min(v);
                }
            }
            for c in clients.iter() {
                for v in [c.lock().max_seen, c.lock().my_number] {
                    if v != 0 {
                        min = min.min(v);
                    }
                }
            }
            if min == u64::MAX || min == 1 {
                return;
            }
            let delta = min - 1;
            for &r in number.iter() {
                let v = values[r.index()].raw();
                if v != 0 {
                    values[r.index()] = Value::new(v - delta);
                }
            }
            for c in clients.iter_mut() {
                let lock = c.lock_mut();
                if lock.max_seen != 0 {
                    lock.max_seen -= delta;
                }
                if lock.my_number != 0 {
                    lock.my_number -= delta;
                }
            }
        }))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// `choosing[i] := 1`.
    WriteChoosing1,
    /// Reading `number[j]` while computing the max.
    ScanMax(u32),
    /// `number[i] := max + 1`.
    WriteNumber,
    /// `choosing[i] := 0`.
    WriteChoosing0,
    /// `await choosing[j] = 0`.
    WaitChoosing(u32),
    /// `await number[j] = 0 or (number[j], j) > (number[i], i)`.
    WaitNumber(u32),
    EntryDone,
    /// exit: `number[i] := 0`.
    ExitWriteNumber,
    ExitDone,
}

/// The per-process entry/exit state machine of [`Bakery`].
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct BakeryLock {
    choosing: Arc<[RegisterId]>,
    number: Arc<[RegisterId]>,
    me: u32,
    pc: Pc,
    max_seen: u64,
    my_number: u64,
    /// Test-only planted bug; `None` in every production construction.
    mutation: Option<BakeryMutation>,
}

/// Field-wise, so that `clone_from` copies the scalars in place and
/// touches an `Arc` refcount only when the register arrays are not
/// already shared with the source. Both methods name every field, so a
/// new one cannot be skipped.
impl Clone for BakeryLock {
    fn clone(&self) -> Self {
        let BakeryLock {
            choosing,
            number,
            me,
            pc,
            max_seen,
            my_number,
            mutation,
        } = self;
        BakeryLock {
            choosing: Arc::clone(choosing),
            number: Arc::clone(number),
            me: *me,
            pc: *pc,
            max_seen: *max_seen,
            my_number: *my_number,
            mutation: *mutation,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let BakeryLock {
            choosing,
            number,
            me,
            pc,
            max_seen,
            my_number,
            mutation,
        } = source;
        if !Arc::ptr_eq(&self.choosing, choosing) {
            self.choosing = Arc::clone(choosing);
        }
        if !Arc::ptr_eq(&self.number, number) {
            self.number = Arc::clone(number);
        }
        self.me = *me;
        self.pc = *pc;
        self.max_seen = *max_seen;
        self.my_number = *my_number;
        self.mutation = *mutation;
    }
}

impl BakeryLock {
    fn n(&self) -> u32 {
        self.number.len() as u32
    }
}

impl LockProcess for BakeryLock {
    fn begin_entry(&mut self) {
        self.max_seen = 0;
        self.pc = if self.mutation == Some(BakeryMutation::DropDoorway) {
            Pc::ScanMax(0)
        } else {
            Pc::WriteChoosing1
        };
    }

    fn begin_exit(&mut self) {
        debug_assert_eq!(self.pc, Pc::EntryDone, "exit before entry completed");
        self.pc = if self.mutation == Some(BakeryMutation::SkipExitReset) {
            Pc::ExitDone
        } else {
            Pc::ExitWriteNumber
        };
    }

    fn current(&self) -> Step {
        match self.pc {
            Pc::Idle | Pc::EntryDone | Pc::ExitDone => Step::Halt,
            Pc::WriteChoosing1 => Step::Op(Op::Write(self.choosing[self.me as usize], Value::ONE)),
            Pc::ScanMax(j) => Step::Op(Op::Read(self.number[j as usize])),
            Pc::WriteNumber => Step::Op(Op::Write(
                self.number[self.me as usize],
                Value::new(self.my_number),
            )),
            Pc::WriteChoosing0 => Step::Op(Op::Write(self.choosing[self.me as usize], Value::ZERO)),
            Pc::WaitChoosing(j) => Step::Op(Op::Read(self.choosing[j as usize])),
            Pc::WaitNumber(j) => Step::Op(Op::Read(self.number[j as usize])),
            Pc::ExitWriteNumber => Step::Op(Op::Write(self.number[self.me as usize], Value::ZERO)),
        }
    }

    fn advance(&mut self, result: OpResult) {
        self.pc = match self.pc {
            Pc::Idle | Pc::EntryDone | Pc::ExitDone => {
                unreachable!("advance called outside a phase")
            }
            Pc::WriteChoosing1 => Pc::ScanMax(0),
            Pc::ScanMax(j) => {
                self.max_seen = self.max_seen.max(result.value().raw());
                if j + 1 < self.n() {
                    Pc::ScanMax(j + 1)
                } else {
                    // May exceed the ticket bound; the WriteNumber step
                    // then fails with a structured
                    // `MemoryError::ValueTooWide` instead of panicking.
                    self.my_number = self.max_seen + 1;
                    Pc::WriteNumber
                }
            }
            Pc::WriteNumber => {
                if self.mutation == Some(BakeryMutation::DropDoorway) {
                    Pc::WaitNumber(0) // no choosing gate to clear or await
                } else {
                    Pc::WriteChoosing0
                }
            }
            Pc::WriteChoosing0 => Pc::WaitChoosing(0),
            Pc::WaitChoosing(j) => {
                if result.bit() {
                    Pc::WaitChoosing(j) // j is still choosing
                } else {
                    Pc::WaitNumber(j)
                }
            }
            Pc::WaitNumber(j) => {
                let them = result.value().raw();
                let ahead_of_us = if self.mutation == Some(BakeryMutation::FcfsOffByOne) {
                    // Off-by-one: `<=` on the bare tickets, no id
                    // tie-break — equal tickets deadlock each other.
                    // (Own register excluded, as real implementations
                    // skip j = i.)
                    them != 0 && u64::from(j) != u64::from(self.me) && them <= self.my_number
                } else {
                    them != 0 && (them, u64::from(j)) < (self.my_number, u64::from(self.me))
                };
                if ahead_of_us {
                    Pc::WaitNumber(j) // j holds an earlier ticket
                } else if j + 1 < self.n() {
                    if self.mutation == Some(BakeryMutation::DropDoorway) {
                        Pc::WaitNumber(j + 1)
                    } else {
                        Pc::WaitChoosing(j + 1)
                    }
                } else {
                    Pc::EntryDone
                }
            }
            Pc::ExitWriteNumber => Pc::ExitDone,
        };
    }

    fn protocol_footprint(&self, out: &mut RegisterSet) -> bool {
        if self.mutation == Some(BakeryMutation::UnderReportScan) {
            // Planted hook bug: a waiter reports only the prefix it has
            // already passed, forgetting the scan suffix it has yet to
            // read and its own exit-time `number[me] := 0` write. The
            // current step's register is still covered (index `j` is in
            // the prefix), so traversal-time footprint checks never
            // fire — only the static future-access lint can see it.
            if let Pc::WaitChoosing(j) | Pc::WaitNumber(j) = self.pc {
                let j = j as usize;
                out.extend(self.choosing[..=j].iter().copied());
                out.extend(self.number[..=j].iter().copied());
                return true;
            }
        }
        out.extend(self.choosing.iter().copied());
        out.extend(self.number.iter().copied());
        true
    }

    // Location: identity + pc, with the ticket scratch (`max_seen`,
    // `my_number`) deliberately projected away. The tickets influence
    // only *written values* and the wait-loop's spin-vs-advance test;
    // the spin branch is a self-loop at the same location, which the
    // congruence contract exempts, so every state sharing this key has
    // the same step footprint and the same non-loop successor set.
    // Keeping the tickets out is what makes the solo control automaton
    // finite despite `TICKET_WIDTH`-bit havoc reads. Mutants keep the
    // hook: the planted bugs perturb footprints and branch conditions
    // per-pc, never per-ticket, so the congruence argument is unchanged
    // — and the hook-lint suite relies on extracting mutant automata.
    fn lock_location(&self) -> Option<u64> {
        let (tag, arg) = match self.pc {
            Pc::Idle => (0u64, 0u64),
            Pc::WriteChoosing1 => (1, 0),
            Pc::ScanMax(j) => (2, u64::from(j)),
            Pc::WriteNumber => (3, 0),
            Pc::WriteChoosing0 => (4, 0),
            Pc::WaitChoosing(j) => (5, u64::from(j)),
            Pc::WaitNumber(j) => (6, u64::from(j)),
            Pc::EntryDone => (7, 0),
            Pc::ExitWriteNumber => (8, 0),
            Pc::ExitDone => (9, 0),
        };
        if self.me >= 1 << 16 || arg >= 1 << 16 {
            return None;
        }
        Some(u64::from(self.me) << 20 | arg << 4 | tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use cfc_core::{Process, RoundRobin, Scheduler, Section};

    #[test]
    fn contention_free_cost_is_linear_in_n() {
        for n in [2usize, 4, 8, 16] {
            let alg = Bakery::new(n);
            let trip = measure::contention_free_trip(&alg, ProcessId::new(0)).unwrap();
            // 1 (choosing) + n (scan) + 2 (number, choosing) + 2n (waits)
            // + 1 (exit) = 3n + 4.
            assert_eq!(trip.total.steps, 3 * n as u64 + 4, "n={n}");
            // choosing[i], number[i], all other choosing + number bits.
            assert_eq!(trip.total.registers, 2 * n as u64, "n={n}");
        }
    }

    #[test]
    fn fifo_order_under_round_robin() {
        // All clients complete; mutual exclusion holds throughout.
        let n = 3usize;
        let alg = Bakery::new(n);
        let mut exec = cfc_core::Executor::new(
            alg.memory().unwrap(),
            (0..n as u32)
                .map(|i| alg.client_with_cs(ProcessId::new(i), 2, 1))
                .collect::<Vec<_>>(),
        );
        let mut sched = RoundRobin::new();
        loop {
            let runnable = exec.runnable();
            if runnable.is_empty() {
                break;
            }
            let pid = sched.pick(&runnable).unwrap();
            exec.step_process(pid).unwrap();
            let in_cs = (0..n as u32)
                .filter(|&i| exec.process(ProcessId::new(i)).section() == Some(Section::Critical))
                .count();
            assert!(in_cs <= 1, "mutual exclusion violated");
        }
        assert!(exec.quiescent());
    }

    #[test]
    fn solo_trips_reset_state() {
        let alg = Bakery::new(4);
        let (_, _, memory) =
            cfc_core::run_solo(alg.memory().unwrap(), alg.client(ProcessId::new(2), 3)).unwrap();
        for &r in alg.number.iter() {
            assert_eq!(memory.get(r), Value::ZERO);
        }
        for &r in alg.choosing.iter() {
            assert_eq!(memory.get(r), Value::ZERO);
        }
    }

    #[test]
    fn normalizer_equates_uniformly_shifted_ticket_states() {
        let alg = Bakery::new(2);
        let norm = alg.liveness_normalizer().unwrap();
        let build = |t0: u64, t1: u64| {
            let mut clients = vec![
                alg.client_cycling(ProcessId::new(0), 1),
                alg.client_cycling(ProcessId::new(1), 1),
            ];
            clients[0].lock_mut().pc = Pc::WaitNumber(1);
            clients[0].lock_mut().my_number = t0;
            clients[1].lock_mut().pc = Pc::WaitNumber(0);
            clients[1].lock_mut().my_number = t1;
            let mut values = alg.memory().unwrap().snapshot().to_vec();
            values[alg.number[0].index()] = Value::new(t0);
            values[alg.number[1].index()] = Value::new(t1);
            (clients, values)
        };
        let (mut high, mut high_vals) = build(3, 4);
        let (mut low, mut low_vals) = build(1, 2);
        norm(&mut high, &mut high_vals);
        norm(&mut low, &mut low_vals);
        assert_eq!(high, low);
        assert_eq!(high_vals, low_vals);
        assert_eq!(high_vals[alg.number[0].index()], Value::ONE);
    }

    #[test]
    fn normalizer_zeroes_dead_ticket_scratch() {
        let alg = Bakery::new(2);
        let norm = alg.liveness_normalizer().unwrap();
        let mut clients = vec![
            alg.client_cycling(ProcessId::new(0), 1),
            alg.client_cycling(ProcessId::new(1), 1),
        ];
        // Client 0 sits at the critical-section boundary with stale
        // ticket scratch from an old trip; it is dead state.
        clients[0].lock_mut().pc = Pc::EntryDone;
        clients[0].lock_mut().my_number = 7;
        clients[0].lock_mut().max_seen = 6;
        let mut values = alg.memory().unwrap().snapshot().to_vec();
        norm(&mut clients, &mut values);
        assert_eq!(clients[0].lock().my_number, 0);
        assert_eq!(clients[0].lock().max_seen, 0);
        // Live scratch is preserved (modulo the shift): mid-scan
        // max_seen survives.
        clients[1].lock_mut().pc = Pc::ScanMax(1);
        clients[1].lock_mut().max_seen = 1;
        norm(&mut clients, &mut values);
        assert_eq!(clients[1].lock().max_seen, 1);
    }

    #[test]
    fn ticket_overflow_is_a_structured_error() {
        use cfc_core::{ExecError, MemoryError};
        let alg = Bakery::new(2);
        // Drive client 0 to the ticket write with a ticket one past the
        // bound — exactly the state a saturated scan produces. The write
        // must fail with a structured error, not panic or truncate.
        let mut client = alg.client(ProcessId::new(0), 1);
        client.lock_mut().pc = Pc::WriteNumber;
        client.lock_mut().my_number = 1 << TICKET_WIDTH;
        let mut exec = cfc_core::Executor::new(alg.memory().unwrap(), vec![client]);
        let err = exec.step_process(ProcessId::new(0)).unwrap_err();
        match err {
            ExecError::Memory(MemoryError::ValueTooWide {
                register,
                width,
                value,
            }) => {
                assert_eq!(register, alg.number[0]);
                assert_eq!(width, TICKET_WIDTH);
                assert_eq!(value, Value::new(1 << TICKET_WIDTH));
            }
            other => panic!("expected ValueTooWide, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_scan_reaches_the_failing_write() {
        // A scan over a saturated peer ticket computes max + 1 without
        // panicking; the overflow only surfaces at the write itself.
        let alg = Bakery::new(2);
        let mut client = alg.client(ProcessId::new(0), 1);
        client.lock_mut().pc = Pc::ScanMax(1);
        client.lock_mut().max_seen = (1 << TICKET_WIDTH) - 1;
        client.advance(OpResult::Value(Value::ZERO));
        assert_eq!(client.lock().pc, Pc::WriteNumber);
        assert_eq!(client.lock().my_number, 1 << TICKET_WIDTH);
    }

    fn hash_of<T: std::hash::Hash>(t: &T) -> u64 {
        use std::hash::{DefaultHasher, Hasher};
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// Resets `dst` from `src` with `clone_from` and checks it against
    /// `clone()` under `==` and `Hash`.
    fn assert_reset_equals_clone(
        mut dst: crate::MutexClient<BakeryLock>,
        src: &crate::MutexClient<BakeryLock>,
    ) {
        dst.clone_from(src);
        assert_eq!(dst, src.clone());
        assert_eq!(hash_of(&dst), hash_of(&src.clone()));
        // The reset shares the source's register arrays, as a clone does.
        assert!(Arc::ptr_eq(&dst.lock().choosing, &src.lock().choosing));
        assert!(Arc::ptr_eq(&dst.lock().number, &src.lock().number));
    }

    #[test]
    fn clone_from_equals_clone() {
        // A cycling client of another, larger, mutated instance, driven
        // into its critical section: it differs from the destination in
        // every client field and every lock field, and its register
        // arrays are other `Arc`s.
        let other = Bakery::new(3).with_mutation(BakeryMutation::SkipExitReset);
        let mut src = other.client_cycling(ProcessId::new(2), 3);
        let mut first_read = true;
        while src.section() != Some(Section::Critical) {
            let result = match src.current() {
                Step::Op(Op::Read(_)) => {
                    let v = if first_read { 5 } else { 0 };
                    first_read = false;
                    OpResult::Value(Value::new(v))
                }
                _ => OpResult::None,
            };
            src.advance(result);
        }
        src.advance(OpResult::None);
        let lock = src.lock();
        assert_eq!(
            (lock.me, lock.pc, lock.max_seen, lock.my_number),
            (2, Pc::EntryDone, 5, 6)
        );
        assert!(src.is_cycling() && src.engaged() && src.trips_remaining() == 1);

        let alg = Bakery::new(2);
        let dst = alg.client_with_cs(ProcessId::new(0), 2, 0);
        let lock = dst.lock();
        assert_eq!(
            (
                lock.me,
                lock.pc,
                lock.max_seen,
                lock.my_number,
                lock.mutation
            ),
            (0, Pc::WriteChoosing1, 0, 0, None)
        );
        assert_eq!(dst.section(), Some(Section::Entry));
        assert!(!dst.is_cycling() && !dst.engaged() && dst.trips_remaining() == 2);
        assert!(!Arc::ptr_eq(&dst.lock().number, &src.lock().number));
        assert_reset_equals_clone(dst.clone(), &src);
        // And back, onto a destination that differs the other way.
        assert_reset_equals_clone(src.clone(), &dst);
        // A destination of the source's own instance already shares its
        // register arrays.
        assert_reset_equals_clone(other.client(ProcessId::new(0), 1), &src);
    }

    #[test]
    fn tickets_grow_across_overlapping_trips() {
        // Sequential but overlapping ticket numbers: second process takes
        // ticket 1 after first reset its number; tickets restart at 1.
        let alg = Bakery::new(2);
        let (trace, _, _) = cfc_core::run_sequential(
            alg.memory().unwrap(),
            vec![
                alg.client(ProcessId::new(0), 1),
                alg.client(ProcessId::new(1), 1),
            ],
        )
        .unwrap();
        // Both processes wrote ticket 1 (no overlap in sequential runs).
        let tickets: Vec<u64> = trace
            .iter()
            .filter_map(|e| e.access())
            .filter_map(|(op, _)| match op {
                Op::Write(r, v) if alg.number.contains(r) && v.raw() != 0 => Some(v.raw()),
                _ => None,
            })
            .collect();
        assert_eq!(tickets, vec![1, 1]);
    }
}

//! The interleaving executor: produces runs of a system of processes.

use std::fmt;

use crate::error::{ExecError, MemoryError};
use crate::fault::FaultPlan;
use crate::ids::ProcessId;
use crate::memory::Memory;
use crate::op::{OpResult, Step};
use crate::process::{Process, Section};
use crate::sched::{Scheduler, Sequential, Solo};
use crate::trace::{Event, EventKind, Trace};
use crate::value::Value;

/// Execution limits and options.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// The maximum number of events before the run is aborted with
    /// [`ExecError::Budget`]. Guards against livelocks — which genuinely
    /// exist in mutual-exclusion runs under unfair schedules.
    pub max_events: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_events: 1_000_000,
        }
    }
}

/// The liveness status of a process within an execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Status {
    /// Still taking steps.
    Running,
    /// Halted voluntarily ([`Step::Halt`]).
    Done,
    /// Suffered a stopping failure (crash).
    Crashed,
}

impl Status {
    /// Whether the process is still enabled — it can (and, under weak
    /// fairness, eventually must) take another step. In this model every
    /// running process always has an enabled step (waiting is modeled as
    /// busy-wait reads), so *enabled* and *running* coincide; `Done` and
    /// `Crashed` are absorbing. The fair-cycle liveness checker in
    /// `cfc-verify` builds its weak-fairness obligation from exactly this
    /// predicate: along an infinite run, every process that is
    /// `runnable` from some point on must take infinitely many steps.
    pub fn runnable(self) -> bool {
        self == Status::Running
    }
}

/// Takes the next step of the running process `proc_`, whose status is
/// `status`, against `memory`: the model's one step rule, shared by the
/// [`Executor`] and the exhaustive checkers in `cfc-verify`.
///
/// A `Halt` step marks the process [`Status::Done`] and returns its
/// decision; an `Internal` step advances it; an op is applied to
/// `memory` and its result advances the process. Returns the event the
/// step produced. The caller checks that the process is running and
/// keeps its own bookkeeping (counters, traces, crash budgets).
///
/// # Errors
///
/// Returns the memory error of an op that fails; the process, its
/// status and the memory are then left untouched.
pub fn apply_step<P: Process>(
    proc_: &mut P,
    status: &mut Status,
    memory: &mut Memory,
) -> Result<EventKind, MemoryError> {
    let step = proc_.current();
    let Some(result) = step_effect(&step, status, memory)? else {
        return Ok(EventKind::Done {
            output: proc_.output(),
        });
    };
    proc_.advance(result.clone());
    Ok(match step {
        Step::Op(op) => EventKind::Access { op, result },
        _ => EventKind::Internal,
    })
}

/// The memory-and-status half of the step rule [`apply_step`] writes:
/// what the running process's next step `step` does to its status and
/// to `memory`. A `Halt` marks the process [`Status::Done`] and returns
/// `None`; an `Internal` step returns [`OpResult::None`]; an op is
/// applied to `memory` and returns its result. The caller advances the
/// process with a returned result — or, knowing the successor of its
/// local state under that result already, skips the advance: a
/// process's next local state is a function of its current one and the
/// result ([`Process::advance`] is deterministic).
///
/// # Errors
///
/// Returns the memory error of an op that fails; the status and the
/// memory are then left untouched.
pub fn step_effect(
    step: &Step,
    status: &mut Status,
    memory: &mut Memory,
) -> Result<Option<OpResult>, MemoryError> {
    debug_assert!(status.runnable(), "only a running process steps");
    Ok(match step {
        Step::Halt => {
            *status = Status::Done;
            None
        }
        Step::Internal => Some(OpResult::None),
        Step::Op(op) => Some(memory.apply(op)?),
    })
}

/// Summary of a finished (or stopped) run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Every process is `Done` or `Crashed`.
    pub quiescent: bool,
    /// Number of events executed (excluding annotations).
    pub events: u64,
}

/// Drives a set of processes over a shared [`Memory`] under a
/// [`Scheduler`], recording a [`Trace`].
///
/// An `Executor` owns the system state. It can run to quiescence
/// ([`Executor::run`]) or be single-stepped ([`Executor::step_process`])
/// for fine-grained control (the model checker and the merge attack use
/// single-stepping).
pub struct Executor<P> {
    memory: Memory,
    procs: Vec<P>,
    status: Vec<Status>,
    steps_taken: Vec<u64>,
    last_section: Vec<Option<Section>>,
    trace: Trace,
    faults: FaultPlan,
    config: ExecConfig,
    events: u64,
}

impl<P: fmt::Debug> fmt::Debug for Executor<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("memory", &self.memory)
            .field("status", &self.status)
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl<P: Process> Executor<P> {
    /// Creates an executor over `procs` sharing `memory`.
    pub fn new(memory: Memory, procs: Vec<P>) -> Self {
        let n = procs.len();
        let mut exec = Executor {
            memory,
            procs,
            status: vec![Status::Running; n],
            steps_taken: vec![0; n],
            last_section: vec![None; n],
            trace: Trace::new(),
            faults: FaultPlan::new(),
            config: ExecConfig::default(),
            events: 0,
        };
        // Record each process's initial section so metrics can attribute
        // the very first accesses correctly.
        for i in 0..n {
            let pid = ProcessId::new(i as u32);
            exec.note_section(pid);
        }
        exec
    }

    /// Sets the fault plan (crash injection).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets execution limits.
    pub fn with_config(mut self, config: ExecConfig) -> Self {
        self.config = config;
        self
    }

    /// The number of processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Returns `true` if the executor has no processes.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// The shared memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the executor, returning the trace and final memory.
    pub fn into_parts(self) -> (Trace, Memory, Vec<P>) {
        (self.trace, self.memory, self.procs)
    }

    /// The status of a process.
    pub fn status(&self, pid: ProcessId) -> Status {
        self.status[pid.index()]
    }

    /// A shared reference to a process.
    pub fn process(&self, pid: ProcessId) -> &P {
        &self.procs[pid.index()]
    }

    /// The number of steps (events) a process has taken.
    pub fn steps_taken(&self, pid: ProcessId) -> u64 {
        self.steps_taken[pid.index()]
    }

    /// The outputs of all processes (index = process id).
    pub fn outputs(&self) -> Vec<Option<Value>> {
        self.procs.iter().map(Process::output).collect()
    }

    /// The ids of processes still running, in id order.
    pub fn runnable(&self) -> Vec<ProcessId> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Running)
            .map(|(i, _)| ProcessId::new(i as u32))
            .collect()
    }

    /// Returns `true` when every process is done or crashed.
    pub fn quiescent(&self) -> bool {
        self.status.iter().all(|s| *s != Status::Running)
    }

    /// Executes one event of process `pid`.
    ///
    /// Applies the crash plan first: if `pid` is due to crash it is crashed
    /// instead of stepping. Otherwise the process takes its step through
    /// [`apply_step`]; a `Halt` step marks it done and is not counted
    /// against the event budget or the process's steps, and a failed op
    /// counts nowhere.
    ///
    /// # Errors
    ///
    /// Returns an error if `pid` is not runnable, if the event budget is
    /// exhausted, or if the process issues an invalid memory operation.
    pub fn step_process(&mut self, pid: ProcessId) -> Result<(), ExecError> {
        let i = pid.index();
        if self.status.get(i) != Some(&Status::Running) {
            return Err(ExecError::NotRunnable(pid));
        }
        if self.events >= self.config.max_events {
            return Err(ExecError::Budget {
                events: self.events,
            });
        }
        if self.faults.should_crash(pid, self.steps_taken[i]) {
            self.status[i] = Status::Crashed;
            self.trace.push(Event {
                pid,
                kind: EventKind::Crash,
            });
            return Ok(());
        }
        let kind = apply_step(&mut self.procs[i], &mut self.status[i], &mut self.memory)?;
        // Halting is not an event of the budget or the step count.
        if !matches!(kind, EventKind::Done { .. }) {
            self.events += 1;
            self.steps_taken[i] += 1;
        }
        self.trace.push(Event { pid, kind });
        self.note_section(pid);
        Ok(())
    }

    /// Runs under `sched` until quiescence, the scheduler stops, or the
    /// budget is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Budget`] if the event budget runs out, or any
    /// error from an invalid memory operation.
    pub fn run<S: Scheduler>(&mut self, mut sched: S) -> Result<Outcome, ExecError> {
        loop {
            let runnable = self.runnable();
            if runnable.is_empty() {
                return Ok(Outcome {
                    quiescent: true,
                    events: self.events,
                });
            }
            let Some(pid) = sched.pick(&runnable) else {
                return Ok(Outcome {
                    quiescent: false,
                    events: self.events,
                });
            };
            self.step_process(pid)?;
        }
    }

    fn note_section(&mut self, pid: ProcessId) {
        let current = self.procs[pid.index()].section();
        if current != self.last_section[pid.index()] {
            self.last_section[pid.index()] = current;
            if let Some(section) = current {
                self.trace.push(Event {
                    pid,
                    kind: EventKind::Section(section),
                });
            }
        }
    }
}

/// Runs a single process to completion on a fresh copy of `memory`.
///
/// This is the paper's contention-free run: the process executes with every
/// other process in its remainder region. Returns the trace, the finished
/// process, and the final memory.
///
/// # Errors
///
/// Propagates executor errors (budget exhaustion, invalid operations).
pub fn run_solo<P: Process>(memory: Memory, proc_: P) -> Result<(Trace, P, Memory), ExecError> {
    let mut exec = Executor::new(memory, vec![proc_]);
    exec.run(Solo(ProcessId::new(0)))?;
    let (trace, memory, mut procs) = exec.into_parts();
    Ok((trace, procs.pop().expect("one process"), memory))
}

/// Runs every process to completion, one after another, in id order.
///
/// This produces the sequential contention-free runs used by the naming
/// lower bounds (Theorems 5 and 7): when a process executes, every other
/// process has either terminated or not started.
///
/// # Errors
///
/// Propagates executor errors.
pub fn run_sequential<P: Process>(
    memory: Memory,
    procs: Vec<P>,
) -> Result<(Trace, Memory, Vec<P>), ExecError> {
    let mut exec = Executor::new(memory, procs);
    exec.run(Sequential)?;
    let (trace, memory, procs) = exec.into_parts();
    Ok((trace, memory, procs))
}

/// Runs processes under an arbitrary scheduler with optional faults,
/// returning the executor for inspection.
///
/// # Errors
///
/// Propagates executor errors.
pub fn run_schedule<P: Process, S: Scheduler>(
    memory: Memory,
    procs: Vec<P>,
    sched: S,
    faults: FaultPlan,
    config: ExecConfig,
) -> Result<Executor<P>, ExecError> {
    let mut exec = Executor::new(memory, procs)
        .with_faults(faults)
        .with_config(config);
    exec.run(sched)?;
    Ok(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::op::Op;
    use crate::sched::RoundRobin;
    use crate::RegisterId;

    /// Increments a counter register `rounds` times, then halts with the
    /// final observed value as output.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Incrementer {
        reg: RegisterId,
        rounds: u32,
        pc: u8, // 0 = read, 1 = write, 2 = halt
        seen: u64,
    }

    impl Incrementer {
        fn new(reg: RegisterId, rounds: u32) -> Self {
            Incrementer {
                reg,
                rounds,
                pc: 0,
                seen: 0,
            }
        }
    }

    impl Process for Incrementer {
        fn current(&self) -> Step {
            match self.pc {
                0 => Step::Op(Op::Read(self.reg)),
                1 => Step::Op(Op::Write(self.reg, Value::new(self.seen + 1))),
                _ => Step::Halt,
            }
        }

        fn advance(&mut self, result: OpResult) {
            match self.pc {
                0 => {
                    self.seen = result.value().raw();
                    self.pc = 1;
                }
                1 => {
                    self.rounds -= 1;
                    self.pc = if self.rounds == 0 { 2 } else { 0 };
                }
                _ => unreachable!(),
            }
        }

        fn output(&self) -> Option<Value> {
            (self.pc == 2).then_some(Value::new(self.seen + 1))
        }
    }

    /// Takes one internal step, then writes `value` to `reg`, then halts
    /// with output 7.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Stepper {
        reg: RegisterId,
        value: u64,
        pc: u8,
    }

    impl Process for Stepper {
        fn current(&self) -> Step {
            match self.pc {
                0 => Step::Internal,
                1 => Step::Op(Op::Write(self.reg, Value::new(self.value))),
                _ => Step::Halt,
            }
        }

        fn advance(&mut self, _: OpResult) {
            self.pc += 1;
        }

        fn output(&self) -> Option<Value> {
            (self.pc == 2).then_some(Value::new(7))
        }
    }

    fn counter_memory() -> (Memory, RegisterId) {
        let mut layout = Layout::new();
        let c = layout.register("count", 16, 0);
        (Memory::new(layout, 16).unwrap(), c)
    }

    #[test]
    fn solo_run_completes_and_counts() {
        let (memory, c) = counter_memory();
        let (trace, proc_, memory) = run_solo(memory, Incrementer::new(c, 3)).unwrap();
        assert_eq!(memory.get(c), Value::new(3));
        assert_eq!(proc_.output(), Some(Value::new(3)));
        assert_eq!(trace.access_count(), 6);
        assert_eq!(trace.output_of(ProcessId::new(0)), Some(Value::new(3)));
    }

    #[test]
    fn sequential_runs_do_not_interleave() {
        let (memory, c) = counter_memory();
        let procs = vec![Incrementer::new(c, 2), Incrementer::new(c, 2)];
        let (_, memory, procs) = run_sequential(memory, procs).unwrap();
        // No lost updates in sequential composition.
        assert_eq!(memory.get(c), Value::new(4));
        assert_eq!(procs[0].output(), Some(Value::new(2)));
        assert_eq!(procs[1].output(), Some(Value::new(4)));
    }

    #[test]
    fn round_robin_interleaving_loses_updates() {
        // The classic read/write race: both read 0, both write 1.
        let (memory, c) = counter_memory();
        let procs = vec![Incrementer::new(c, 1), Incrementer::new(c, 1)];
        let mut exec = Executor::new(memory, procs);
        exec.run(RoundRobin::new()).unwrap();
        assert!(exec.quiescent());
        assert_eq!(exec.memory().get(c), Value::new(1)); // lost update!
    }

    #[test]
    fn budget_guards_against_runaway_runs() {
        let (memory, c) = counter_memory();
        let procs = vec![Incrementer::new(c, 1_000)];
        let mut exec = Executor::new(memory, procs).with_config(ExecConfig { max_events: 10 });
        let err = exec.run(RoundRobin::new()).unwrap_err();
        assert_eq!(err, ExecError::Budget { events: 10 });
    }

    #[test]
    fn crash_plan_silences_process() {
        let (memory, c) = counter_memory();
        let procs = vec![Incrementer::new(c, 5), Incrementer::new(c, 1)];
        let faults = FaultPlan::new().with_crash(ProcessId::new(0), 2);
        let mut exec = Executor::new(memory, procs).with_faults(faults);
        exec.run(RoundRobin::new()).unwrap();
        assert_eq!(exec.status(ProcessId::new(0)), Status::Crashed);
        assert_eq!(exec.status(ProcessId::new(1)), Status::Done);
        assert_eq!(exec.steps_taken(ProcessId::new(0)), 2);
        // The crash is visible in the trace.
        assert!(exec
            .trace()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Crash)));
    }

    #[test]
    fn scheduler_stop_reports_non_quiescent() {
        let (memory, c) = counter_memory();
        let procs = vec![Incrementer::new(c, 5)];
        let mut exec = Executor::new(memory, procs);
        let outcome = exec.run(Solo(ProcessId::new(1))).unwrap(); // wrong pid: stops at once
        assert!(!outcome.quiescent);
        assert_eq!(outcome.events, 0);
    }

    #[test]
    fn not_runnable_is_an_error() {
        let (memory, c) = counter_memory();
        let mut exec = Executor::new(memory, vec![Incrementer::new(c, 1)]);
        assert!(exec.step_process(ProcessId::new(3)).is_err());
    }

    #[test]
    fn apply_step_takes_internal_op_and_halt_steps() {
        let (mut memory, c) = counter_memory();
        let mut status = Status::Running;
        let mut p = Stepper {
            reg: c,
            value: 5,
            pc: 0,
        };
        let kind = apply_step(&mut p, &mut status, &mut memory);
        assert_eq!(kind, Ok(EventKind::Internal));
        assert_eq!((p.pc, status), (1, Status::Running));
        let kind = apply_step(&mut p, &mut status, &mut memory);
        assert_eq!(
            kind,
            Ok(EventKind::Access {
                op: Op::Write(c, Value::new(5)),
                result: OpResult::None,
            })
        );
        assert_eq!((p.pc, status), (2, Status::Running));
        assert_eq!(memory.get(c), Value::new(5));
        let kind = apply_step(&mut p, &mut status, &mut memory);
        assert_eq!(
            kind,
            Ok(EventKind::Done {
                output: Some(Value::new(7))
            })
        );
        assert_eq!((p.pc, status), (2, Status::Done));
        // An op's result reaches both the event and the process.
        let mut reader = Incrementer::new(c, 1);
        let mut status = Status::Running;
        let kind = apply_step(&mut reader, &mut status, &mut memory);
        assert_eq!(
            kind,
            Ok(EventKind::Access {
                op: Op::Read(c),
                result: OpResult::Value(Value::new(5)),
            })
        );
        assert_eq!((reader.pc, reader.seen), (1, 5));
    }

    #[test]
    fn a_failing_step_leaves_process_status_and_memory_untouched() {
        let (mut memory, c) = counter_memory();
        memory.poke(c, Value::new(3));
        let mut status = Status::Running;
        let mut p = Stepper {
            reg: c,
            value: 1 << 16,
            pc: 1,
        };
        let (p0, memory0) = (p.clone(), memory.clone());
        let err = apply_step(&mut p, &mut status, &mut memory).unwrap_err();
        assert_eq!(
            err,
            MemoryError::ValueTooWide {
                register: c,
                width: 16,
                value: Value::new(1 << 16),
            }
        );
        assert_eq!((p, status, memory), (p0, Status::Running, memory0));
    }

    #[test]
    fn a_failed_op_counts_as_no_event_or_step() {
        let (memory, c) = counter_memory();
        let p = Stepper {
            reg: c,
            value: 1 << 16,
            pc: 1,
        };
        let mut exec = Executor::new(memory, vec![p]);
        let pid = ProcessId::new(0);
        let err = exec.step_process(pid).unwrap_err();
        assert!(matches!(err, ExecError::Memory(_)), "{err:?}");
        assert_eq!(exec.steps_taken(pid), 0);
        assert_eq!(exec.status(pid), Status::Running);
        assert_eq!(exec.trace().access_count(), 0);
    }

    #[test]
    fn done_event_carries_output() {
        let (memory, c) = counter_memory();
        let (trace, _, _) = run_solo(memory, Incrementer::new(c, 1)).unwrap();
        let done = trace
            .iter()
            .find(|e| matches!(e.kind, EventKind::Done { .. }))
            .unwrap();
        assert_eq!(
            done.kind,
            EventKind::Done {
                output: Some(Value::new(1))
            }
        );
    }
}

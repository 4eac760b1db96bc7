//! A deliberately naive reference explorer: the one oracle the
//! differential matrix (`tests/common/matrix.rs`) holds every exhaustive
//! checker against.
//!
//! It is a breadth-first search over a `HashMap` of whole global states
//! — process states, the memory image, statuses, crashes left — that
//! steps only through public `cfc_core` calls (`Process::current`,
//! `Process::advance`, `Memory::apply`). There is no packing, no
//! interning, no canonicalization and no reduction: every choice is the
//! plainest one available, so when it disagrees with the checker the
//! suspect is the checker.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use cfc::core::{Memory, OpResult, Process, Status, Step};

/// A property of one global state: `Err` names the violation.
pub type Check<'a, P> = &'a dyn Fn(&[P], &Memory, &[Status]) -> Result<(), String>;

/// A whole global state, hashed and compared field by field.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State<P> {
    procs: Vec<P>,
    memory: Memory,
    status: Vec<Status>,
    crashes_left: u32,
}

/// What the reference search found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    /// Distinct reachable states.
    pub states: usize,
    /// One per successor of each distinct state, crash edges included —
    /// the quantity `ExploreStats::transitions` counts without reduction.
    pub transitions: u64,
    /// Reachable states in which no process is running.
    pub terminals: usize,
    /// The first violation in breadth-first order; the search stops
    /// there, so the counts above are partial when this is `Some`.
    pub violation: Option<String>,
    /// Whether every reachable state has a path to a terminal state.
    pub always_quiesces: bool,
    /// Bytes one stored state occupies here: the struct plus the
    /// elements of its process, register and status vectors.
    pub state_bytes: usize,
}

/// Every successor of `s`: for each running process in pid order, its
/// crash (while the budget lasts), then its step.
fn successors<P: Process + Clone>(s: &State<P>) -> Vec<State<P>> {
    let mut out = Vec::new();
    for i in (0..s.procs.len()).filter(|&i| s.status[i] == Status::Running) {
        if s.crashes_left > 0 {
            let mut crashed = s.clone();
            crashed.status[i] = Status::Crashed;
            crashed.crashes_left -= 1;
            out.push(crashed);
        }
        let mut next = s.clone();
        match next.procs[i].current() {
            Step::Halt => next.status[i] = Status::Done,
            Step::Internal => next.procs[i].advance(OpResult::None),
            Step::Op(op) => {
                let result = next.memory.apply(&op).expect("a reference step failed");
                next.procs[i].advance(result);
            }
        }
        out.push(next);
    }
    out
}

/// Explores every interleaving of `procs` over `memory` under up to
/// `crashes` adversarial crashes, running `state_check` in every state
/// and `terminal_check` in every terminal one.
pub fn explore<P: Process + Clone + Eq + Hash>(
    memory: Memory,
    procs: Vec<P>,
    crashes: u32,
    state_check: Check<'_, P>,
    terminal_check: Check<'_, P>,
) -> Reference {
    let state_bytes = std::mem::size_of::<State<P>>()
        + procs.len() * (std::mem::size_of::<P>() + std::mem::size_of::<Status>())
        + std::mem::size_of_val(memory.snapshot());
    let root = State {
        status: vec![Status::Running; procs.len()],
        procs,
        memory,
        crashes_left: crashes,
    };
    let mut ids: HashMap<State<P>, usize> = HashMap::from([(root.clone(), 0)]);
    let mut queue = VecDeque::from([root]);
    let mut succs: Vec<Vec<usize>> = Vec::new();
    let mut terminal: Vec<bool> = Vec::new();
    let mut transitions = 0u64;
    while let Some(s) = queue.pop_front() {
        let is_terminal = !s.status.contains(&Status::Running);
        let verdict = state_check(&s.procs, &s.memory, &s.status).and_then(|()| {
            if is_terminal {
                terminal_check(&s.procs, &s.memory, &s.status)
            } else {
                Ok(())
            }
        });
        if let Err(message) = verdict {
            return Reference {
                states: ids.len(),
                transitions,
                terminals: terminal.iter().filter(|t| **t).count(),
                violation: Some(message),
                always_quiesces: false,
                state_bytes,
            };
        }
        let mut out = Vec::new();
        for next in successors(&s) {
            transitions += 1;
            let id = match ids.get(&next) {
                Some(&id) => id,
                None => {
                    let id = ids.len();
                    ids.insert(next.clone(), id);
                    queue.push_back(next);
                    id
                }
            };
            out.push(id);
        }
        succs.push(out);
        terminal.push(is_terminal);
    }

    // Back-propagate "can reach a terminal" over reversed edges.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); succs.len()];
    for (from, tos) in succs.iter().enumerate() {
        for &to in tos {
            preds[to].push(from);
        }
    }
    let mut reaches = terminal.clone();
    let mut work: Vec<usize> = (0..reaches.len()).filter(|&i| reaches[i]).collect();
    while let Some(s) = work.pop() {
        for &p in &preds[s] {
            if !reaches[p] {
                reaches[p] = true;
                work.push(p);
            }
        }
    }
    Reference {
        states: ids.len(),
        transitions,
        terminals: terminal.iter().filter(|t| **t).count(),
        violation: None,
        always_quiesces: reaches.iter().all(|r| *r),
        state_bytes,
    }
}

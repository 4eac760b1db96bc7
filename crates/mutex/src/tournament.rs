//! The tournament-tree construction of Theorem 3.
//!
//! For atomicity `l`, build a tree in which every node is a mutual
//! exclusion instance over registers of at most `l` bits. A process starts
//! at its leaf and climbs; winning a node admits it to the parent; winning
//! the root admits it to the critical section. To exit, it executes the
//! exit code of every node on its path, leaf to root (the paper's order).
//!
//! * For `l ≥ 2`, nodes are copies of Lamport's fast algorithm
//!   ([`LamportLock`]) with arity `2^l − 1` (an `l`-bit register holds
//!   `2^l − 1` identities plus the "free" value `0` — the paper's `2^l`-ary
//!   tree modulo this off-by-one, documented in DESIGN.md).
//! * For `l = 1`, nodes are Peterson two-process locks over three bits
//!   ([`PetersonLock`]) — the Peterson–Fischer/Kessels binary tournament
//!   [PF77, Kes82], which also witnesses the `O(log n)` worst-case
//!   *register* complexity row of the paper's mutex table.
//!
//! Contention-free complexity: `⌈log_arity n⌉` levels × (7 steps / 3
//! registers) per Lamport node, or × (4 steps / 3 registers) per Peterson
//! node — the `O(⌈log n / l⌉)` upper bound of Theorem 3.
//!
//! The full tree for large `n` can be huge, so [`Tournament::sparse`]
//! instantiates registers only for the nodes on the paths of a declared
//! participant set (registers of other nodes are never accessed in such
//! runs, so the measured complexities are identical).

use std::collections::HashMap;
use std::sync::Arc;

use cfc_core::{Layout, OpResult, ProcessId, RegisterId, RegisterSet, Step};

use crate::algorithm::{LockProcess, MutexAlgorithm};
use crate::lamport::LamportLock;
use crate::mutation::TournamentMutation;
use crate::peterson::PetersonLock;

/// Registers of one tree node.
#[derive(Clone, Debug)]
enum NodeRegs {
    Lamport {
        x: RegisterId,
        y: RegisterId,
        b: Arc<[RegisterId]>,
    },
    Peterson {
        flags: [RegisterId; 2],
        turn: RegisterId,
    },
}

/// The order in which a process executes the exit code along its path.
///
/// The paper's prose says "from the leaf to the root", but taken literally
/// that order is **unsafe** for composed node locks: after the leaf is
/// released, a successor can acquire a still-held upper node, and the
/// departing process's later release of that node wipes the successor's
/// acquisition state — admitting a third process. The exhaustive explorer
/// in `cfc-verify` exhibits the violation for Peterson nodes at `n = 4`.
/// Releasing **root to leaf** is safe: when a node is released, every
/// process that could share it is still blocked strictly below it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExitOrder {
    /// Release the root first, then descend (safe; the default).
    #[default]
    RootToLeaf,
    /// The paper's literal order (unsafe for these node locks; kept so
    /// the violation can be demonstrated).
    LeafToRoot,
}

/// The tournament mutual-exclusion algorithm of Theorem 3.
#[derive(Clone, Debug)]
pub struct Tournament {
    n: usize,
    l: u32,
    arity: u64,
    depth: u32,
    layout: Layout,
    nodes: HashMap<(u32, u64), NodeRegs>,
    exit_order: ExitOrder,
    mutation: Option<TournamentMutation>,
}

impl Tournament {
    /// Creates the tournament for `n` processes with atomicity `l`,
    /// instantiating the full tree.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `l` is outside `1..=16`, or the full tree would
    /// exceed a million nodes (use [`Tournament::sparse`] for large `n`).
    pub fn new(n: usize, l: u32) -> Self {
        let all: Vec<ProcessId> = (0..n as u32).map(ProcessId::new).collect();
        Self::sparse(n, l, &all)
    }

    /// Creates the tournament with registers only for the nodes on the
    /// paths of `participants`.
    ///
    /// Runs in which only `participants` take steps never touch the other
    /// nodes' registers, so complexities measured on such runs equal those
    /// of the full tree.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `l ∉ 1..=16`, a participant is out of range, or
    /// the instantiated node count exceeds a million.
    pub fn sparse(n: usize, l: u32, participants: &[ProcessId]) -> Self {
        assert!(n >= 2, "a tournament needs at least two processes");
        assert!((1..=16).contains(&l), "atomicity must be in 1..=16");
        let arity: u64 = if l == 1 { 2 } else { (1u64 << l) - 1 };
        let mut depth: u32 = 1;
        let mut capacity = arity;
        while capacity < n as u64 {
            capacity = capacity.saturating_mul(arity);
            depth += 1;
        }

        let mut keys: Vec<(u32, u64)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &p in participants {
            assert!(p.index() < n, "participant {p} out of range");
            for k in 0..depth {
                let key = (k, Self::node_index(p, k, depth, arity));
                if seen.insert(key) {
                    keys.push(key);
                }
            }
        }
        keys.sort_unstable();
        assert!(
            keys.len() <= 1_000_000,
            "tree too large ({} nodes); use Tournament::sparse with fewer participants",
            keys.len()
        );

        let mut layout = Layout::new();
        let mut nodes = HashMap::with_capacity(keys.len());
        for (k, j) in keys {
            let tag = format!("L{k}N{j}");
            let regs = if l == 1 {
                NodeRegs::Peterson {
                    flags: [
                        layout.bit(format!("{tag}.flag[0]"), false),
                        layout.bit(format!("{tag}.flag[1]"), false),
                    ],
                    turn: layout.bit(format!("{tag}.turn"), false),
                }
            } else {
                NodeRegs::Lamport {
                    x: layout.register(format!("{tag}.x"), l, 0),
                    y: layout.register(format!("{tag}.y"), l, 0),
                    b: layout
                        .bits(&format!("{tag}.b"), arity as usize, false)
                        .into(),
                }
            };
            nodes.insert((k, j), regs);
        }

        Tournament {
            n,
            l,
            arity,
            depth,
            layout,
            nodes,
            exit_order: ExitOrder::RootToLeaf,
            mutation: None,
        }
    }

    /// Overrides the exit order (see [`ExitOrder`]; the non-default
    /// leaf-to-root order is unsafe and exists for the verification
    /// exhibit).
    #[must_use]
    pub fn with_exit_order(mut self, order: ExitOrder) -> Self {
        self.exit_order = order;
        self
    }

    /// Plants a deliberate bug (a test-only fixture for the
    /// checker-sensitivity suite; see [`crate::mutation`]).
    ///
    /// # Panics
    ///
    /// Panics for depth-1 trees — skipping the root of a single-level
    /// tree would leave no protocol at all.
    #[must_use]
    pub fn with_mutation(mut self, mutation: TournamentMutation) -> Self {
        assert!(self.depth >= 2, "the mutation needs a tree of depth >= 2");
        self.mutation = Some(mutation);
        self
    }

    /// The tree's branching factor (`2^l − 1`, or 2 when `l = 1`).
    pub fn arity(&self) -> u64 {
        self.arity
    }

    /// The number of levels a process traverses.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The number of instantiated nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The index of the node hosting `p` at `level` (0 = root).
    fn node_index(p: ProcessId, level: u32, depth: u32, arity: u64) -> u64 {
        let p = p.index() as u64;
        p / arity.pow(depth - level)
    }

    /// The slot (competitor position) of `p` within its node at `level`.
    fn node_slot(p: ProcessId, level: u32, depth: u32, arity: u64) -> u64 {
        let p = p.index() as u64;
        (p / arity.pow(depth - 1 - level)) % arity
    }
}

impl MutexAlgorithm for Tournament {
    type Lock = TournamentLock;

    fn name(&self) -> &str {
        if self.l == 1 {
            "tournament-peterson"
        } else {
            "tournament-lamport"
        }
    }

    fn n(&self) -> usize {
        self.n
    }

    fn atomicity(&self) -> u32 {
        self.l
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn lock(&self, pid: ProcessId) -> TournamentLock {
        assert!(pid.index() < self.n, "pid out of range");
        // Leaf (level depth-1) first, root (level 0) last.
        let mut nodes = Vec::with_capacity(self.depth as usize);
        for k in (0..self.depth).rev() {
            let j = Self::node_index(pid, k, self.depth, self.arity);
            let slot = Self::node_slot(pid, k, self.depth, self.arity) as usize;
            let regs = self
                .nodes
                .get(&(k, j))
                .unwrap_or_else(|| panic!("{pid} is not an instantiated participant"));
            nodes.push(match regs {
                NodeRegs::Lamport { x, y, b } => {
                    NodeLock::Lamport(LamportLock::new(*x, *y, Arc::clone(b), slot))
                }
                NodeRegs::Peterson { flags, turn } => {
                    NodeLock::Peterson(PetersonLock::new(*flags, *turn, slot))
                }
            });
        }
        TournamentLock {
            nodes,
            phase: Phase::Idle,
            exit_order: self.exit_order,
            mutation: self.mutation,
        }
    }
}

/// A node lock: Lamport for `l ≥ 2`, Peterson for `l = 1`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum NodeLock {
    Lamport(LamportLock),
    Peterson(PetersonLock),
}

impl LockProcess for NodeLock {
    fn begin_entry(&mut self) {
        match self {
            NodeLock::Lamport(l) => l.begin_entry(),
            NodeLock::Peterson(p) => p.begin_entry(),
        }
    }

    fn begin_exit(&mut self) {
        match self {
            NodeLock::Lamport(l) => l.begin_exit(),
            NodeLock::Peterson(p) => p.begin_exit(),
        }
    }

    fn current(&self) -> Step {
        match self {
            NodeLock::Lamport(l) => l.current(),
            NodeLock::Peterson(p) => p.current(),
        }
    }

    fn advance(&mut self, result: OpResult) {
        match self {
            NodeLock::Lamport(l) => l.advance(result),
            NodeLock::Peterson(p) => p.advance(result),
        }
    }

    fn protocol_footprint(&self, out: &mut RegisterSet) -> bool {
        match self {
            NodeLock::Lamport(l) => l.protocol_footprint(out),
            NodeLock::Peterson(p) => p.protocol_footprint(out),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Phase {
    Idle,
    /// Acquiring node `k` of the path (0 = leaf).
    Entry(usize),
    EntryDone,
    /// Releasing the node at *position* `k` of the exit sequence.
    Exit(usize),
    ExitDone,
}

/// The per-process lock of [`Tournament`]: climbs its path of node locks.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TournamentLock {
    /// Path nodes, leaf first, root last.
    nodes: Vec<NodeLock>,
    phase: Phase,
    exit_order: ExitOrder,
    /// Test-only planted bug; `None` in every production construction.
    mutation: Option<TournamentMutation>,
}

impl TournamentLock {
    /// How many path nodes the climb actually traverses: all of them,
    /// unless the skip-root mutation truncates the climb (and release)
    /// one level early.
    fn active_len(&self) -> usize {
        match self.mutation {
            Some(TournamentMutation::SkipRootLevel) => self.nodes.len() - 1,
            None => self.nodes.len(),
        }
    }

    /// The path-node index released at exit position `pos`.
    fn exit_node(&self, pos: usize) -> usize {
        match self.exit_order {
            ExitOrder::LeafToRoot => pos,
            ExitOrder::RootToLeaf => self.active_len() - 1 - pos,
        }
    }

    fn settle(&mut self) {
        loop {
            match self.phase {
                Phase::Entry(k) => {
                    if matches!(self.nodes[k].current(), Step::Halt) {
                        if k + 1 < self.active_len() {
                            self.nodes[k + 1].begin_entry();
                            self.phase = Phase::Entry(k + 1);
                            continue;
                        }
                        self.phase = Phase::EntryDone;
                    }
                }
                Phase::Exit(pos) => {
                    if matches!(self.nodes[self.exit_node(pos)].current(), Step::Halt) {
                        if pos + 1 < self.active_len() {
                            let next = self.exit_node(pos + 1);
                            self.nodes[next].begin_exit();
                            self.phase = Phase::Exit(pos + 1);
                            continue;
                        }
                        self.phase = Phase::ExitDone;
                    }
                }
                _ => {}
            }
            break;
        }
    }
}

impl LockProcess for TournamentLock {
    fn begin_entry(&mut self) {
        self.nodes[0].begin_entry();
        self.phase = Phase::Entry(0);
        self.settle();
    }

    fn begin_exit(&mut self) {
        debug_assert_eq!(self.phase, Phase::EntryDone, "exit before entry completed");
        let first = self.exit_node(0);
        self.nodes[first].begin_exit();
        self.phase = Phase::Exit(0);
        self.settle();
    }

    fn current(&self) -> Step {
        match self.phase {
            Phase::Idle | Phase::EntryDone | Phase::ExitDone => Step::Halt,
            Phase::Entry(k) => self.nodes[k].current(),
            Phase::Exit(pos) => self.nodes[self.exit_node(pos)].current(),
        }
    }

    fn advance(&mut self, result: OpResult) {
        match self.phase {
            Phase::Entry(k) => self.nodes[k].advance(result),
            Phase::Exit(pos) => {
                let k = self.exit_node(pos);
                self.nodes[k].advance(result);
            }
            _ => unreachable!("advance called outside a phase"),
        }
        self.settle();
    }

    /// The union of the path's node footprints: two processes whose leaf
    /// paths share no node are independent for their entire protocol,
    /// which is what lets the reduced explorer serialize disjoint
    /// subtrees.
    fn protocol_footprint(&self, out: &mut RegisterSet) -> bool {
        self.nodes.iter().all(|n| n.protocol_footprint(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::metrics::trip_complexities;
    use cfc_core::{run_solo, Process, RoundRobin, Section};

    fn cf_profile(alg: &Tournament, pid: ProcessId) -> (u64, u64) {
        let (trace, _, _) = run_solo(alg.memory().unwrap(), alg.client(pid, 1)).unwrap();
        let t = trip_complexities(&trace, &alg.layout(), ProcessId::new(0))[0];
        (t.total.steps, t.total.registers)
    }

    #[test]
    fn peterson_tree_contention_free_profile() {
        // l = 1, n = 8: binary tree of depth 3; 4 steps and 3 registers
        // per Peterson node.
        let alg = Tournament::new(8, 1);
        assert_eq!(alg.depth(), 3);
        for pid in 0..8 {
            let (steps, regs) = cf_profile(&alg, ProcessId::new(pid));
            assert_eq!(steps, 12, "pid {pid}");
            assert_eq!(regs, 9, "pid {pid}");
        }
    }

    #[test]
    fn lamport_tree_contention_free_profile() {
        // l = 2 (arity 3), n = 9: depth 2; 7 steps / 3 registers per node.
        let alg = Tournament::new(9, 2);
        assert_eq!(alg.arity(), 3);
        assert_eq!(alg.depth(), 2);
        for pid in [0u32, 4, 8] {
            let (steps, regs) = cf_profile(&alg, ProcessId::new(pid));
            assert_eq!(steps, 14, "pid {pid}");
            assert_eq!(regs, 6, "pid {pid}");
        }
    }

    #[test]
    fn single_level_when_atomicity_covers_n() {
        // l = 4 hosts 15 competitors in one Lamport node.
        let alg = Tournament::new(15, 4);
        assert_eq!(alg.depth(), 1);
        let (steps, regs) = cf_profile(&alg, ProcessId::new(7));
        assert_eq!(steps, 7);
        assert_eq!(regs, 3);
    }

    #[test]
    fn profile_matches_bounds_formulas() {
        for (n, l) in [(4usize, 1u32), (16, 1), (9, 2), (27, 2), (100, 3), (256, 4)] {
            let alg = Tournament::sparse(n, l, &[ProcessId::new(0)]);
            let (steps, regs) = cf_profile(&alg, ProcessId::new(0));
            assert_eq!(
                steps,
                cfc_bounds::mutex::tournament_step_upper(n as u64, l),
                "steps n={n} l={l}"
            );
            assert_eq!(
                regs,
                cfc_bounds::mutex::tournament_register_upper(n as u64, l),
                "registers n={n} l={l}"
            );
            // And the implementation obeys Theorem 3's O(log n / l) shape:
            // within a small constant of the paper's 7ceil(log n / l).
            assert!(steps <= 2 * cfc_bounds::mutex::thm3_step_upper(n as u64, l));
        }
    }

    #[test]
    fn sparse_equals_full_for_solo_runs() {
        let full = Tournament::new(27, 2);
        let sparse = Tournament::sparse(27, 2, &[ProcessId::new(13)]);
        assert!(sparse.node_count() < full.node_count());
        let (s1, r1) = cf_profile(&full, ProcessId::new(13));
        let (s2, r2) = cf_profile(&sparse, ProcessId::new(13));
        assert_eq!((s1, r1), (s2, r2));
    }

    #[test]
    fn sparse_scales_to_huge_n() {
        // 4^10 ~ a million leaves; sparse instantiation stays tiny.
        let alg = Tournament::sparse(1 << 20, 4, &[ProcessId::new(123_456)]);
        assert_eq!(alg.node_count(), alg.depth() as usize);
        let (steps, regs) = cf_profile(&alg, ProcessId::new(123_456));
        assert_eq!(steps, 7 * u64::from(alg.depth()));
        assert_eq!(regs, 3 * u64::from(alg.depth()));
    }

    fn assert_safe_run(alg: &Tournament, trips: u32) {
        use cfc_core::Scheduler;
        let n = alg.n();
        let mut exec = cfc_core::Executor::new(
            alg.memory().unwrap(),
            (0..n as u32)
                .map(|i| alg.client_with_cs(ProcessId::new(i), trips, 1))
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
    fn peterson_tree_safety_and_progress() {
        assert_safe_run(&Tournament::new(4, 1), 2);
        assert_safe_run(&Tournament::new(5, 1), 1);
    }

    #[test]
    fn lamport_tree_safety_and_progress() {
        assert_safe_run(&Tournament::new(4, 2), 2);
        assert_safe_run(&Tournament::new(9, 2), 1);
    }

    #[test]
    fn worst_case_register_complexity_is_logarithmic() {
        // Kessels row of Table 1: under full contention, a process's trip
        // still touches at most 3 registers per level.
        use cfc_core::Scheduler;
        let n = 8usize;
        let alg = Tournament::new(n, 1);
        let mut exec = cfc_core::Executor::new(
            alg.memory().unwrap(),
            (0..n as u32)
                .map(|i| alg.client(ProcessId::new(i), 1))
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
        }
        let bound = 3 * u64::from(alg.depth());
        for pid in 0..n as u32 {
            let pid = ProcessId::new(pid);
            for trip in trip_complexities(exec.trace(), &alg.layout(), pid) {
                assert!(
                    trip.total.registers <= bound,
                    "{pid}: {} > {bound}",
                    trip.total.registers
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not an instantiated participant")]
    fn sparse_rejects_non_participants() {
        let alg = Tournament::sparse(27, 2, &[ProcessId::new(0)]);
        let _ = alg.lock(ProcessId::new(26));
    }
}

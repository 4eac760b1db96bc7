//! Splitter-based contention detection.
//!
//! The splitter (the fast-path core of Lamport's algorithm [Lam87]) solves
//! contention detection directly:
//!
//! ```text
//! x := id
//! if y = 1 { return 0 }
//! y := 1
//! if x = id { return 1 } else { return 0 }
//! ```
//!
//! At most one process can read back its own id from `x` after setting
//! `y`, and a solo process always does — 4 accesses to 2 registers, with
//! `x` of `⌈log₂ n⌉` bits. Crucially, the safety proof leans on `x` being
//! written **atomically**: if two winners existed, the later reader's
//! id-write would have to both precede and follow the earlier reader's
//! id-write.
//!
//! Two generalizations to atomicity `l < log n` are provided:
//!
//! * [`ChunkedSplitter`] splits `x` into `⌈log n / l⌉` separately written
//!   chunks. This *looks* right and is safe for `n = 2`, but it is
//!   **unsafe for `n ≥ 3`**: a slow third process can overwrite one chunk
//!   between the two leaders' read-backs, handing each its own id from a
//!   different mix. The exhaustive explorer in `cfc-verify` finds the
//!   15-event counterexample — the torn, non-atomic `x` is exactly the
//!   kind of defect the paper's atomicity parameter `l` is about. It is
//!   kept as a verification exhibit.
//! * [`SplitterTree`] is the correct construction: a `2^l`-ary tree of
//!   single-register splitters. Node ids fit in `l` bits, each level
//!   costs 4 steps / 2 registers, and the depth is `⌈log n / l⌉` — a
//!   contention detector with **bounded** worst-case step complexity
//!   `4⌈log n / l⌉`, witnessing the paper's remark that detection (unlike
//!   mutual exclusion) has finite worst-case step complexity
//!   `O(⌈log n / l⌉)`.

use std::collections::HashMap;
use std::sync::Arc;

use cfc_core::{
    bits_for, Layout, Op, OpResult, Process, ProcessId, RegisterId, RegisterSet, Step, Value,
};

use crate::detect::DetectionAlgorithm;

/// The classic single-register splitter detector (requires atomicity
/// `l ≥ ⌈log₂ n⌉`).
///
/// # Examples
///
/// ```
/// use cfc_mutex::{DetectionAlgorithm, Splitter};
/// use cfc_core::{run_solo, ProcessId, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let alg = Splitter::new(256); // 8-bit ids, one atomic register
/// let (_, proc_, _) = run_solo(alg.memory()?, alg.process(ProcessId::new(77)))?;
/// assert_eq!(cfc_core::Process::output(&proc_), Some(Value::ONE));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Splitter {
    inner: ChunkedSplitter,
}

impl Splitter {
    /// Creates the detector with atomicity exactly `⌈log₂ n⌉` (the id
    /// width), so `x` is one atomic register.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        let width = bits_for(n.saturating_sub(1) as u64);
        let inner = ChunkedSplitter::new(n, width);
        debug_assert_eq!(inner.chunks(), 1);
        Splitter { inner }
    }
}

impl DetectionAlgorithm for Splitter {
    type Proc = SplitterProc;

    fn name(&self) -> &str {
        "splitter"
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn atomicity(&self) -> u32 {
        self.inner.atomicity()
    }

    fn layout(&self) -> Layout {
        self.inner.layout()
    }

    fn process(&self, pid: ProcessId) -> SplitterProc {
        self.inner.process(pid)
    }
}

/// The chunked splitter: the splitter with `x` split into `⌈log n / l⌉`
/// sub-`l`-bit chunks.
///
/// **Unsafe for `n ≥ 3`** — see the module docs; `cfc-verify`'s explorer
/// constructs the two-winner run. Retained as an executable demonstration
/// that the splitter's correctness depends on the atomicity of `x`.
#[derive(Clone, Debug)]
pub struct ChunkedSplitter {
    n: usize,
    l: u32,
    id_width: u32,
    layout: Layout,
    x: Arc<[RegisterId]>,
    y: RegisterId,
    name: String,
}

impl ChunkedSplitter {
    /// Creates the detector. Ids are zero-based (`0..n`), stored across
    /// `⌈id_width / l⌉` chunks of at most `l` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `l == 0`.
    pub fn new(n: usize, l: u32) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!(l >= 1, "atomicity must be positive");
        let id_width = bits_for(n.saturating_sub(1) as u64);
        let chunk_count = id_width.div_ceil(l).max(1);
        let mut layout = Layout::new();
        let mut x = Vec::with_capacity(chunk_count as usize);
        for i in 0..chunk_count {
            let width = l.min(id_width - i * l).max(1);
            x.push(layout.register(format!("x[{i}]"), width, 0));
        }
        let y = layout.bit("y", false);
        let name = format!("chunked-splitter(k={chunk_count})");
        ChunkedSplitter {
            n,
            l,
            id_width,
            layout,
            x: x.into(),
            y,
            name,
        }
    }

    /// The number of chunks `x` is split into.
    pub fn chunks(&self) -> u32 {
        self.x.len() as u32
    }

    /// The chunk value of `id` at chunk index `i` (low chunks first).
    fn chunk_of(&self, id: u64, i: usize) -> Value {
        let shift = (i as u32) * self.l;
        let width = self.l.min(self.id_width.saturating_sub(shift)).max(1);
        Value::new((id >> shift) & cfc_core::mask(width))
    }
}

impl DetectionAlgorithm for ChunkedSplitter {
    type Proc = SplitterProc;

    fn name(&self) -> &str {
        &self.name
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

    fn process(&self, pid: ProcessId) -> SplitterProc {
        assert!(pid.index() < self.n, "pid out of range");
        let id = pid.index() as u64;
        let chunks: Vec<Value> = (0..self.x.len()).map(|i| self.chunk_of(id, i)).collect();
        SplitterProc {
            x: Arc::clone(&self.x),
            y: self.y,
            chunks: chunks.into(),
            pc: SplitterPc::WriteChunk(0),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum SplitterPc {
    /// Writing chunk `i` of `x := id`.
    WriteChunk(u32),
    /// `if y = 1 return 0`.
    ReadY,
    /// `y := 1`.
    WriteY,
    /// Reading back chunk `i` of `x`, comparing with own id.
    ReadChunk(u32),
    Done(u64),
}

/// The process of [`Splitter`] / [`ChunkedSplitter`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SplitterProc {
    x: Arc<[RegisterId]>,
    y: RegisterId,
    /// This process's id, pre-split into chunk values.
    chunks: Arc<[Value]>,
    pc: SplitterPc,
}

impl Process for SplitterProc {
    fn current(&self) -> Step {
        match self.pc {
            SplitterPc::WriteChunk(i) => {
                Step::Op(Op::Write(self.x[i as usize], self.chunks[i as usize]))
            }
            SplitterPc::ReadY => Step::Op(Op::Read(self.y)),
            SplitterPc::WriteY => Step::Op(Op::Write(self.y, Value::ONE)),
            SplitterPc::ReadChunk(i) => Step::Op(Op::Read(self.x[i as usize])),
            SplitterPc::Done(_) => Step::Halt,
        }
    }

    fn advance(&mut self, result: OpResult) {
        self.pc = match self.pc {
            SplitterPc::WriteChunk(i) => {
                if (i as usize) + 1 < self.x.len() {
                    SplitterPc::WriteChunk(i + 1)
                } else {
                    SplitterPc::ReadY
                }
            }
            SplitterPc::ReadY => {
                if result.bit() {
                    SplitterPc::Done(0)
                } else {
                    SplitterPc::WriteY
                }
            }
            SplitterPc::WriteY => SplitterPc::ReadChunk(0),
            SplitterPc::ReadChunk(i) => {
                if result.value() != self.chunks[i as usize] {
                    SplitterPc::Done(0)
                } else if (i as usize) + 1 < self.x.len() {
                    SplitterPc::ReadChunk(i + 1)
                } else {
                    SplitterPc::Done(1)
                }
            }
            SplitterPc::Done(_) => unreachable!("halted splitter advanced"),
        };
    }

    fn output(&self) -> Option<Value> {
        match self.pc {
            SplitterPc::Done(v) => Some(Value::new(v)),
            _ => None,
        }
    }

    // Deliberately pc-insensitive: the whole protocol footprint, every
    // chunk of `x` plus `y`, at every location. Sound and monotone, but
    // coarse — a process that has already read back `x` will never touch
    // the early chunks again. The control-automaton future sets
    // (`MayAccessMode::Automaton` in `cfc-verify`) recover exactly that
    // per-location precision; keeping the declared hook coarse is what
    // makes the sharpening measurable in the reduction sweep.
    fn may_access(&self, out: &mut RegisterSet) -> bool {
        out.extend(self.x.iter().copied());
        out.insert(self.y);
        true
    }

    // Location: the pc alone. All processes share the same flat `x`/`y`
    // handles and differ only in the chunk *values* they write and
    // compare, so states agreeing on the pc have identical step
    // footprints, and both branches of every comparison are feasible for
    // every process — the successor-location sets coincide too. Merging
    // locations across process identities is therefore exact here (the
    // tree variant below cannot do this: its processes walk different
    // node registers, so it keeps the full-state fallback).
    fn location(&self) -> Option<u64> {
        let (tag, arg) = match self.pc {
            SplitterPc::WriteChunk(i) => (0u64, u64::from(i)),
            SplitterPc::ReadY => (1, 0),
            SplitterPc::WriteY => (2, 0),
            SplitterPc::ReadChunk(i) => (3, u64::from(i)),
            SplitterPc::Done(v) => (4, v),
        };
        Some(arg << 3 | tag)
    }
}

/// Registers of one splitter-tree node.
#[derive(Clone, Copy, Debug)]
struct SplitterNode {
    x: RegisterId,
    y: RegisterId,
}

/// The correct small-atomicity contention detector: a `2^l`-ary tree of
/// single-register splitters.
///
/// A process climbs from its leaf to the root, running the splitter at
/// each node with its node-local slot as id; losing anywhere means output
/// `0`, winning the root means output `1`. At most one process per node
/// advances, so at most one process wins the root; a solo process wins
/// everywhere.
///
/// Contention-free (= worst-case) step complexity `4·⌈log n / l⌉`,
/// register complexity `2·⌈log n / l⌉` — bounded even in the worst case,
/// unlike any mutual-exclusion algorithm.
#[derive(Clone, Debug)]
pub struct SplitterTree {
    n: usize,
    l: u32,
    arity: u64,
    depth: u32,
    layout: Layout,
    nodes: HashMap<(u32, u64), SplitterNode>,
}

impl SplitterTree {
    /// Creates the tree detector for `n` processes with atomicity `l`,
    /// instantiating all nodes on the participants' paths.
    ///
    /// # Panics
    ///
    /// Panics if `n < 1`, `l ∉ 1..=16`, or the tree would exceed a million
    /// nodes (use [`SplitterTree::sparse`]).
    pub fn new(n: usize, l: u32) -> Self {
        let all: Vec<ProcessId> = (0..n as u32).map(ProcessId::new).collect();
        Self::sparse(n, l, &all)
    }

    /// Creates the tree with nodes only on the paths of `participants`
    /// (runs confined to those participants never touch other nodes).
    ///
    /// # Panics
    ///
    /// As [`SplitterTree::new`]; also if a participant is out of range.
    pub fn sparse(n: usize, l: u32, participants: &[ProcessId]) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!((1..=16).contains(&l), "atomicity must be in 1..=16");
        let arity = 1u64 << l;
        let mut depth = 1u32;
        let mut capacity = arity;
        while capacity < n as u64 {
            capacity = capacity.saturating_mul(arity);
            depth += 1;
        }

        let mut keys = Vec::new();
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
        assert!(keys.len() <= 1_000_000, "tree too large; use sparse()");

        let mut layout = Layout::new();
        let mut nodes = HashMap::with_capacity(keys.len());
        for (k, j) in keys {
            let x = layout.register(format!("L{k}N{j}.x"), l, 0);
            let y = layout.bit(format!("L{k}N{j}.y"), false);
            nodes.insert((k, j), SplitterNode { x, y });
        }
        SplitterTree {
            n,
            l,
            arity,
            depth,
            layout,
            nodes,
        }
    }

    /// The number of levels a process traverses: `⌈log_{2^l} n⌉`.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    fn node_index(p: ProcessId, level: u32, depth: u32, arity: u64) -> u64 {
        (p.index() as u64) / arity.pow(depth - level)
    }

    fn node_slot(p: ProcessId, level: u32, depth: u32, arity: u64) -> u64 {
        ((p.index() as u64) / arity.pow(depth - 1 - level)) % arity
    }
}

impl DetectionAlgorithm for SplitterTree {
    type Proc = SplitterTreeProc;

    fn name(&self) -> &str {
        "splitter-tree"
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

    fn process(&self, pid: ProcessId) -> SplitterTreeProc {
        assert!(pid.index() < self.n, "pid out of range");
        let mut path = Vec::with_capacity(self.depth as usize);
        for k in (0..self.depth).rev() {
            let j = Self::node_index(pid, k, self.depth, self.arity);
            let slot = Self::node_slot(pid, k, self.depth, self.arity);
            let node = self
                .nodes
                .get(&(k, j))
                .unwrap_or_else(|| panic!("{pid} is not an instantiated participant"));
            path.push((*node, Value::new(slot)));
        }
        SplitterTreeProc {
            path: path.into(),
            pc: TreeSplitPc::Node(0, NodePc::WriteX),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum NodePc {
    WriteX,
    ReadY,
    WriteY,
    ReadX,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TreeSplitPc {
    /// Running the splitter of path node `i`.
    Node(u32, NodePc),
    Done(u64),
}

/// The process of [`SplitterTree`]: a leaf-to-root chain of splitters.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SplitterTreeProc {
    /// Path nodes (leaf first) with this process's slot id at each.
    path: Arc<[(SplitterNode, Value)]>,
    pc: TreeSplitPc,
}

impl std::hash::Hash for SplitterNode {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.x.hash(state);
        self.y.hash(state);
    }
}

impl PartialEq for SplitterNode {
    fn eq(&self, other: &Self) -> bool {
        self.x == other.x && self.y == other.y
    }
}

impl Eq for SplitterNode {}

impl Process for SplitterTreeProc {
    fn current(&self) -> Step {
        match self.pc {
            TreeSplitPc::Node(i, pc) => {
                let (node, slot) = self.path[i as usize];
                Step::Op(match pc {
                    NodePc::WriteX => Op::Write(node.x, slot),
                    NodePc::ReadY => Op::Read(node.y),
                    NodePc::WriteY => Op::Write(node.y, Value::ONE),
                    NodePc::ReadX => Op::Read(node.x),
                })
            }
            TreeSplitPc::Done(_) => Step::Halt,
        }
    }

    fn advance(&mut self, result: OpResult) {
        let TreeSplitPc::Node(i, pc) = self.pc else {
            unreachable!("halted process advanced")
        };
        let (_, slot) = self.path[i as usize];
        self.pc = match pc {
            NodePc::WriteX => TreeSplitPc::Node(i, NodePc::ReadY),
            NodePc::ReadY => {
                if result.bit() {
                    TreeSplitPc::Done(0)
                } else {
                    TreeSplitPc::Node(i, NodePc::WriteY)
                }
            }
            NodePc::WriteY => TreeSplitPc::Node(i, NodePc::ReadX),
            NodePc::ReadX => {
                if result.value() != slot {
                    TreeSplitPc::Done(0)
                } else if (i as usize) + 1 < self.path.len() {
                    TreeSplitPc::Node(i + 1, NodePc::WriteX)
                } else {
                    TreeSplitPc::Done(1)
                }
            }
        };
    }

    fn output(&self) -> Option<Value> {
        match self.pc {
            TreeSplitPc::Done(v) => Some(Value::new(v)),
            _ => None,
        }
    }

    // The whole leaf-to-root path: both registers of every node this
    // process visits. Processes in different subtrees declare disjoint
    // node sets below their meeting level, which is already what makes
    // partial-order reduction effective on the tree. No `location` hook:
    // the paths differ per process, so a shared pc-keyed location would
    // merge future sets across subtrees and *coarsen* the result; the
    // full-state fallback is finite (only the pc varies) and exact.
    fn may_access(&self, out: &mut RegisterSet) -> bool {
        for (node, _) in self.path.iter() {
            out.insert(node.x);
            out.insert(node.y);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::metrics::process_complexity;
    use cfc_core::{run_sequential, run_solo};

    #[test]
    fn solo_process_wins_everywhere() {
        for n in [1usize, 2, 8, 1000] {
            let alg = Splitter::new(n);
            for pid in [0, n - 1] {
                let pid = ProcessId::new(pid as u32);
                let (_, p, _) = run_solo(alg.memory().unwrap(), alg.process(pid)).unwrap();
                assert_eq!(p.output(), Some(Value::ONE), "splitter n={n} {pid}");
            }
        }
        for (n, l) in [(2usize, 1u32), (8, 1), (8, 3), (1000, 4)] {
            let alg = SplitterTree::new(n, l);
            for pid in [0, n - 1] {
                let pid = ProcessId::new(pid as u32);
                let (_, p, _) = run_solo(alg.memory().unwrap(), alg.process(pid)).unwrap();
                assert_eq!(p.output(), Some(Value::ONE), "tree n={n} l={l} {pid}");
            }
        }
    }

    #[test]
    fn splitter_contention_free_profile_is_4_and_2() {
        let alg = Splitter::new(100);
        let (trace, _, _) =
            run_solo(alg.memory().unwrap(), alg.process(ProcessId::new(42))).unwrap();
        let c = process_complexity(&trace, &alg.layout(), ProcessId::new(0));
        assert_eq!(c.steps, 4);
        assert_eq!(c.registers, 2);
        assert_eq!(c.read_steps, 2);
        assert_eq!(c.write_steps, 2);
    }

    #[test]
    fn tree_contention_free_profile_is_4d_and_2d() {
        for (n, l, d) in [
            (8usize, 1u32, 3u64),
            (8, 3, 1),
            (256, 4, 2),
            (1 << 16, 4, 4),
        ] {
            let alg = SplitterTree::new(n, l);
            assert_eq!(u64::from(alg.depth()), d, "n={n} l={l}");
            let (trace, _, _) =
                run_solo(alg.memory().unwrap(), alg.process(ProcessId::new(0))).unwrap();
            let c = process_complexity(&trace, &alg.layout(), ProcessId::new(0));
            assert_eq!(c.steps, 4 * d, "n={n} l={l}");
            assert_eq!(c.registers, 2 * d, "n={n} l={l}");
        }
    }

    #[test]
    fn sequential_runs_have_exactly_one_winner() {
        for (n, l) in [(3usize, 1u32), (5, 2), (9, 4)] {
            let alg = SplitterTree::new(n, l);
            let procs = (0..n as u32)
                .map(|i| alg.process(ProcessId::new(i)))
                .collect();
            let (_, _, procs) = run_sequential(alg.memory().unwrap(), procs).unwrap();
            let winners: Vec<usize> = procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.output() == Some(Value::ONE))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(winners, vec![0], "n={n} l={l}");
        }
    }

    #[test]
    fn tree_interleaved_runs_have_at_most_one_winner() {
        use cfc_core::{ExecConfig, FaultPlan, RoundRobin};
        for (n, l) in [(2usize, 1u32), (3, 1), (4, 1), (4, 2), (9, 2)] {
            let alg = SplitterTree::new(n, l);
            let procs = (0..n as u32)
                .map(|i| alg.process(ProcessId::new(i)))
                .collect();
            let exec = cfc_core::run_schedule(
                alg.memory().unwrap(),
                procs,
                RoundRobin::new(),
                FaultPlan::new(),
                ExecConfig::default(),
            )
            .unwrap();
            let winners = exec
                .outputs()
                .into_iter()
                .filter(|o| *o == Some(Value::ONE))
                .count();
            assert!(winners <= 1, "n={n} l={l}: {winners} winners");
        }
    }

    #[test]
    fn worst_case_steps_are_bounded() {
        // Every process halts within 4 * depth of its own steps under any
        // schedule — detection has bounded worst-case step complexity.
        use cfc_core::{ExecConfig, FaultPlan, Lockstep};
        let alg = SplitterTree::new(16, 1);
        let bound = 4 * u64::from(alg.depth());
        let procs = (0..16).map(|i| alg.process(ProcessId::new(i))).collect();
        let exec = cfc_core::run_schedule(
            alg.memory().unwrap(),
            procs,
            Lockstep::new(),
            FaultPlan::new(),
            ExecConfig::default(),
        )
        .unwrap();
        for pid in 0..16 {
            assert!(exec.steps_taken(ProcessId::new(pid)) <= bound);
        }
    }

    #[test]
    fn chunk_decomposition_round_trips() {
        let alg = ChunkedSplitter::new(1 << 12, 5); // 12-bit ids: chunks 5,5,2
        assert_eq!(alg.chunks(), 3);
        let id = 0b1011_0110_0101u64;
        let c0 = alg.chunk_of(id, 0).raw();
        let c1 = alg.chunk_of(id, 1).raw();
        let c2 = alg.chunk_of(id, 2).raw();
        assert_eq!(c0, id & 0b11111);
        assert_eq!(c1, (id >> 5) & 0b11111);
        assert_eq!(c2, (id >> 10) & 0b11);
        assert_eq!(c0 | (c1 << 5) | (c2 << 10), id);
    }

    #[test]
    fn chunked_splitter_profile() {
        // The tempting-but-unsafe variant still has the advertised
        // contention-free cost; its flaw is a 3-process interleaving
        // (demonstrated by cfc-verify's explorer).
        let alg = ChunkedSplitter::new(256, 1);
        assert_eq!(alg.chunks(), 8);
        let (trace, p, _) =
            run_solo(alg.memory().unwrap(), alg.process(ProcessId::new(3))).unwrap();
        assert_eq!(p.output(), Some(Value::ONE));
        let c = process_complexity(&trace, &alg.layout(), ProcessId::new(0));
        assert_eq!(c.steps, 2 * 8 + 2);
        assert_eq!(c.registers, 9);
    }

    #[test]
    fn chunked_splitter_is_safe_for_two() {
        use cfc_core::{ExecConfig, FaultPlan, RoundRobin};
        let alg = ChunkedSplitter::new(2, 1);
        let procs = (0..2).map(|i| alg.process(ProcessId::new(i))).collect();
        let exec = cfc_core::run_schedule(
            alg.memory().unwrap(),
            procs,
            RoundRobin::new(),
            FaultPlan::new(),
            ExecConfig::default(),
        )
        .unwrap();
        let winners = exec
            .outputs()
            .into_iter()
            .filter(|o| *o == Some(Value::ONE))
            .count();
        assert!(winners <= 1);
    }
}

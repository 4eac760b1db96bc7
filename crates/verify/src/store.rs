//! The packed, arena-interned state store behind every exhaustive
//! checker's visited set, and the slot-level successor kernel it serves.
//!
//! Every canonical state is held exactly once, bit-packed at declared
//! widths (the paper's own packing discipline, applied to the verifier's
//! footprint; see [`cfc_core::LayoutCodec`]):
//!
//! * `NodeCodec` — a fixed-stride record codec: per-process statuses at 2
//!   bits, the crash budget at its exact width, register values at their
//!   [`cfc_core::Layout`] widths, and process local states as 32-bit
//!   *slots* into a side table that holds each distinct local state once.
//!   This is the one process encoding, for every family: a slot is 32
//!   bits however wide the local state it names, and the algorithms need
//!   no packing code of their own;
//! * `LocalStates` — that side table. When a local state is first
//!   interned it also caches, per slot, what the kernel asks of it
//!   ([`SlotInfo`]: the current step and its footprint, the section and
//!   output, `state_fingerprint` under each status, and the future-access
//!   set ample selection consults), and it keeps the *transition memo*
//!   `(slot, op result) → slot'`. A process is a deterministic state
//!   machine that touches shared memory only through its next step, so
//!   its next local state is a function of its current one and the op
//!   result, and the memo is exact;
//! * [`Working`] — a record unpacked into reusable buffers: statuses,
//!   crash budget, register values and slots. [`NodeStore::step`] steps
//!   one process of a working state: the memory-and-status half of the
//!   model's step rule ([`cfc_core::step_effect`]) on the working state,
//!   then the memo for the new slot. A hit clones nothing; a miss clones
//!   the one process, advances it and interns the result;
//! * [`SegArena`] — an append-only arena of records in 64 KiB segments, so
//!   appending never copies the records already stored and every read
//!   borrows a record in place;
//! * [`NodeStore`] — the visited set / intern table: an open-addressed
//!   digest index ([`crate::index::OpenIndex`], at most 64/7 B/state) maps
//!   a 64-bit hash of the record bytes to record ids, so membership and
//!   interning cost one encode plus a short probe. Under a symmetry group
//!   the store canonicalizes working states itself (below).
//!
//! **Canonicalization.** A store built with the non-singleton classes of
//! a symmetry group keys every state by its orbit representative, the one
//! `crate::graph::canonicalize` defines: within each class, the members'
//! (local state, status) pairs in `state_fingerprint` order, ties kept in
//! pid order. Every encode sorts each class's (cached fingerprint,
//! position in class) keys in a reused buffer and writes the record from
//! the permuted (status, slot) pairs. Nothing is hashed twice and nothing
//! on the encode path allocates. A store without classes writes the
//! concrete record as is.
//!
//! Round-trip identity of the codec (checked by debug assertions on early
//! insertions) makes the encoding injective, so byte-equality of records
//! coincides with state equality: every freshness and interning decision
//! is exactly the one a store of whole `Node`s would make. The oracle
//! matrix (`tests/common/matrix.rs`) holds the checkers built on this
//! store against a naive `HashMap`-of-states explorer, count for count.
//! The record digest and the local-state table hash with the in-repo
//! `crate::hash::MulXor`; every probe still compares exactly, so the hash
//! decides probe lengths, never an answer.

use std::cell::RefCell;
use std::hash::Hash;

use cfc_core::{
    bits_for, step_effect, Footprint, Layout, LayoutCodec, Memory, OpResult, Process, RegisterSet,
    Section, StateCodec, StateReader, StateWriter, Status, Step, Value,
};

use crate::analysis::FutureIndex;
use crate::explore::ExploreError;
use crate::graph::{state_fingerprint, Node};
use crate::hash::{digest, FastMap};
use crate::index::OpenIndex;
use crate::liveness::NormalizeFn;

/// The outcome of recording a state in the visited set
/// ([`NodeStore::visit`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VisitOutcome {
    /// First visit of this (canonical) state.
    Fresh,
    /// Revisit by the same concrete state that first reached it.
    RevisitSame,
    /// Revisit by a *different* concrete state of the same orbit — a
    /// genuine symmetry merge. Only reported when first-visitor tracking
    /// is on; decided by comparing stored concrete identity, never hashes.
    RevisitMerged,
}

/// A global state unpacked from its record, in buffers the traversals
/// reuse: per-process statuses and slots, the crash budget, and the
/// register values (in a [`Memory`], which applies ops). `clone_from`
/// reuses the target's buffers, so resetting a reused successor
/// allocates nothing.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Working {
    /// Each process's local state, as a slot of the store's table.
    pub(crate) slots: Vec<u32>,
    /// Per-process liveness statuses.
    pub(crate) status: Vec<Status>,
    /// The shared memory.
    pub(crate) memory: Memory,
    /// How many crash transitions the adversary may still inject.
    pub(crate) crashes_left: u32,
}

impl Clone for Working {
    fn clone(&self) -> Self {
        Working {
            slots: self.slots.clone(),
            status: self.status.clone(),
            memory: self.memory.clone(),
            crashes_left: self.crashes_left,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.status.clone_from(&source.status);
        self.memory.clone_from(&source.memory);
        self.crashes_left = source.crashes_left;
    }
}

// ---------------------------------------------------------------------
// The local-state table.
// ---------------------------------------------------------------------

/// What the kernel asks of one interned local state, computed once, when
/// the state is first interned.
#[derive(Debug)]
pub(crate) struct SlotInfo {
    /// The state's next step, [`Process::current`].
    pub(crate) step: Step,
    /// The footprint of `step`: empty for internal steps and halts.
    pub(crate) footprint: Footprint,
    /// [`Process::section`].
    pub(crate) section: Option<Section>,
    /// [`Process::output`].
    pub(crate) output: Option<Value>,
    /// `state_fingerprint` under each status, indexed by `status_tag`:
    /// the canonical order of symmetric processes and the progress BFS's
    /// candidate order.
    fps: [u64; 3],
    /// The future-access over-approximation ample selection consults:
    /// the automaton's set when the traversal's future index resolves
    /// the state, the declared [`Process::may_access`] set otherwise, and
    /// `None` when neither bounds it.
    pub(crate) may: Option<RegisterSet>,
    /// The automaton's future set with its read/write split, when the
    /// future index resolves the state (consulted in dynamic mode).
    pub(crate) split: Option<Footprint>,
}

impl SlotInfo {
    fn of<P: Process + Clone + Eq + Hash>(
        p: &P,
        layout: &Layout,
        future: Option<&FutureIndex<P>>,
    ) -> Self {
        let step = p.current();
        let footprint = Footprint::of_step(&step, layout);
        let declared = || {
            let mut set = RegisterSet::new();
            p.may_access(&mut set).then_some(set)
        };
        // Runtime analog of the static hook lint (`crate::analysis`), run
        // once per local state: its next step must be covered by its
        // declared `may_access`. Debug builds only — this catches hook
        // drift the solo analysis cannot see, such as a normalizer
        // rewriting a process into a control point its hook never
        // anticipated.
        if cfg!(debug_assertions) && matches!(step, Step::Op(_)) {
            if let Some(declared) = declared() {
                debug_assert!(
                    footprint.reads.is_subset(&declared) && footprint.writes.is_subset(&declared),
                    "step footprint {footprint:?} escapes its declared may_access set"
                );
            }
        }
        let may = match future.and_then(|f| f.future_of(p)) {
            Some(set) => Some(set.clone()),
            None => declared(),
        };
        SlotInfo {
            split: future.and_then(|f| f.future_split_of(p)).cloned(),
            may,
            fps: [Status::Running, Status::Done, Status::Crashed].map(|s| state_fingerprint(p, s)),
            section: p.section(),
            output: p.output(),
            footprint,
            step,
        }
    }

    /// The local state's `state_fingerprint` under `status`.
    pub(crate) fn fingerprint(&self, status: Status) -> u64 {
        self.fps[status_tag(status) as usize]
    }
}

/// The slot a table holding `len` local states gives the next one. Like
/// store ids, slots stop one short of `u32::MAX`, and the memo and the
/// per-slot caches are indexed by the same slots, so one typed error
/// covers all three.
fn next_slot(len: usize) -> Result<u32, ExploreError> {
    u32::try_from(len)
        .ok()
        .filter(|&slot| slot != u32::MAX)
        .ok_or(ExploreError::LocalStateCeiling)
}

/// The memo key of an op result at a given slot. The slot fixes the
/// step, and so the result's variant: nothing for internal steps and
/// writes, one value for reads and bit operations. So the value alone
/// tells one slot's results apart. A multi-value result (a packed-word
/// read) is not memoized.
fn memo_key(result: &OpResult) -> Option<u64> {
    match result {
        OpResult::None => Some(0),
        OpResult::Value(v) => Some(v.raw()),
        OpResult::Values(_) => None,
    }
}

/// How often a debug build re-checks a memo hit: the first hit and every
/// 64th after it re-advance a clone.
const DETERMINISM_SAMPLE: u64 = 64;

/// Every distinct process local state once, named by its slot, with its
/// [`SlotInfo`], and the transition memo. Each state is held twice (in
/// `table`, by slot, and as a `lookup` key); the table grows with the
/// number of *distinct* local states, not with the number of global
/// states.
struct LocalStates<P> {
    table: Vec<P>,
    lookup: FastMap<P, u32>,
    info: Vec<SlotInfo>,
    /// `(slot, memo_key(result))` → the slot the state advances to.
    memo: FastMap<(u32, u64), u32>,
    /// The traversal's automaton future sets, which fill
    /// [`SlotInfo::may`] and [`SlotInfo::split`].
    future: Option<FutureIndex<P>>,
    /// Memo hits so far, which pick the sampled determinism checks.
    hits: u64,
}

impl<P: Process + Clone + Eq + Hash> LocalStates<P> {
    /// The slot of `p`, interning it (and filling its [`SlotInfo`]) when
    /// it is new. A state already in the table is looked up, never
    /// cloned.
    fn intern(&mut self, p: &P, layout: &Layout) -> Result<u32, ExploreError> {
        if let Some(&slot) = self.lookup.get(p) {
            return Ok(slot);
        }
        let slot = next_slot(self.table.len())?;
        self.info
            .push(SlotInfo::of(p, layout, self.future.as_ref()));
        self.table.push(p.clone());
        self.lookup.insert(p.clone(), slot);
        Ok(slot)
    }

    fn find(&self, p: &P) -> Option<u32> {
        self.lookup.get(p).copied()
    }

    /// The state slot `slot` advances to under `result`, by a clone.
    fn advanced(&self, slot: u32, result: OpResult) -> P {
        let mut p = self.table[slot as usize].clone();
        p.advance(result);
        p
    }

    /// Counts a memo hit and, on sampled hits in debug builds, checks the
    /// determinism the memo rests on by advancing a clone again.
    fn check_hit(&mut self, slot: u32, result: OpResult, next: u32) {
        self.hits += 1;
        if cfg!(debug_assertions) && self.hits % DETERMINISM_SAMPLE == 1 {
            assert!(
                self.advanced(slot, result) == self.table[next as usize],
                "Process::advance is not deterministic: one local state and op \
                 result advanced to two different states"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Record codec.
// ---------------------------------------------------------------------

/// A fixed-stride record codec for working states. Records hold 32-bit
/// slots into the [`LocalStates`] table.
struct NodeCodec {
    /// The root's memory: a blank working state starts from a clone.
    memory: Memory,
    values: LayoutCodec,
    crash_bits: u32,
    n: usize,
    /// The symmetry group's non-singleton classes; empty without
    /// symmetry.
    classes: Vec<Vec<usize>>,
    rec_bytes: usize,
}

/// The encode buffers a store reuses across calls.
struct Scratch {
    /// The canonical arrangement: position `i` of the canonical record
    /// holds process `perm[i]`'s status and slot. The identity outside
    /// the classes.
    perm: Vec<usize>,
    /// One class's (fingerprint, position in class) sort keys.
    keys: Vec<(u64, usize)>,
    writer: StateWriter,
    /// The record written last.
    rec: Vec<u8>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            perm: (0..n).collect(),
            keys: Vec::with_capacity(n),
            writer: StateWriter::new(),
            rec: Vec::new(),
        }
    }
}

fn status_tag(s: Status) -> u64 {
    match s {
        Status::Running => 0,
        Status::Done => 1,
        Status::Crashed => 2,
    }
}

fn tag_status(t: u64) -> Status {
    match t {
        0 => Status::Running,
        1 => Status::Done,
        _ => Status::Crashed,
    }
}

/// The `width` bits of `bytes` at bit offset `pos`, LSB-first (the
/// [`StateWriter`] order).
fn bits_at(bytes: &[u8], mut pos: usize, width: u32) -> u64 {
    let mut out = 0u64;
    let mut got = 0u32;
    while got < width {
        let bit_in_byte = (pos % 8) as u32;
        let take = (8 - bit_in_byte).min(width - got);
        let field = (u64::from(bytes[pos / 8]) >> bit_in_byte) & ((1u64 << take) - 1);
        out |= field << got;
        got += take;
        pos += take as usize;
    }
    out
}

impl NodeCodec {
    /// Derives the codec from the root node (its memory's layout gives
    /// the register widths; the crash budget's width comes from the
    /// root, as the budget only ever decreases) and the symmetry group's
    /// non-singleton classes.
    fn new<P>(root: &Node<P>, classes: Vec<Vec<usize>>) -> Self {
        let values = LayoutCodec::new(root.memory.layout());
        let crash_bits = bits_for(u64::from(root.crashes_left));
        let n = root.procs.len();
        let total_bits = 2 * n + crash_bits as usize + values.encoded_bits() + 32 * n;
        NodeCodec {
            memory: root.memory.clone(),
            values,
            crash_bits,
            n,
            classes,
            rec_bytes: total_bits.div_ceil(8).max(1),
        }
    }

    /// The bit offset of the first slot in a record.
    fn slots_offset(&self) -> usize {
        2 * self.n + self.crash_bits as usize + self.values.encoded_bits()
    }

    /// The one encode routine: orders each class by its members' cached
    /// fingerprints into `sc.perm` and writes the canonical record of `w`
    /// into `sc.rec`. Returns whether that record differs from `w`'s own.
    ///
    /// Sorting (fingerprint, position in class) keys is the stable
    /// fingerprint sort `crate::graph::canonicalize` runs, so both pick
    /// the same representative.
    fn encode(&self, info: &[SlotInfo], w: &Working, sc: &mut Scratch) -> bool {
        let Scratch {
            perm,
            keys,
            writer,
            rec,
        } = sc;
        let mut permuted = false;
        for class in &self.classes {
            keys.clear();
            keys.extend(
                class
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| (info[w.slots[i] as usize].fingerprint(w.status[i]), k)),
            );
            keys.sort_unstable();
            for (&dst, &(_, k)) in class.iter().zip(keys.iter()) {
                let src = class[k];
                perm[dst] = src;
                permuted |= w.slots[src] != w.slots[dst] || w.status[src] != w.status[dst];
            }
        }
        self.write(w, |i| perm[i], writer, rec);
        permuted
    }

    /// Writes the record of `w` with process `src(i)`'s status and slot at
    /// position `i` into `out`.
    fn write(
        &self,
        w: &Working,
        src: impl Fn(usize) -> usize,
        sw: &mut StateWriter,
        out: &mut Vec<u8>,
    ) {
        sw.clear();
        for i in 0..self.n {
            sw.push_bits(status_tag(w.status[src(i)]), 2);
        }
        sw.push_bits(u64::from(w.crashes_left), self.crash_bits);
        for (v, &width) in w.memory.snapshot().iter().zip(self.values.widths()) {
            sw.push_value(*v, width);
        }
        for i in 0..self.n {
            sw.push_bits(u64::from(w.slots[src(i)]), 32);
        }
        out.clear();
        out.extend_from_slice(sw.bytes());
        out.resize(self.rec_bytes, 0);
    }

    /// Unpacks `bytes` into `w`, which is shaped like the root.
    fn decode(&self, bytes: &[u8], w: &mut Working) {
        let mut r = StateReader::new(bytes);
        for s in &mut w.status {
            *s = tag_status(r.take_bits(2));
        }
        w.crashes_left = r.take_bits(self.crash_bits) as u32;
        for (v, &width) in w.memory.values_mut().iter_mut().zip(self.values.widths()) {
            *v = r.take_value(width);
        }
        for slot in &mut w.slots {
            *slot = r.take_bits(32) as u32;
        }
    }
}

// ---------------------------------------------------------------------
// Segmented arena.
// ---------------------------------------------------------------------

/// Segment size target, in bytes.
const SEG_TARGET: usize = 64 * 1024;

/// An append-only arena of fixed-stride records in fixed-size segments:
/// appending allocates a fresh segment when the last one fills and never
/// copies or moves the records already stored, and every read borrows a
/// record in place.
pub(crate) struct SegArena {
    rec_bytes: usize,
    recs_per_seg: usize,
    len: u32,
    segs: Vec<Box<[u8]>>,
}

impl SegArena {
    pub(crate) fn new(rec_bytes: usize) -> Self {
        SegArena {
            rec_bytes,
            recs_per_seg: (SEG_TARGET / rec_bytes).max(1),
            len: 0,
            segs: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// Total payload bytes ever appended.
    pub(crate) fn payload_bytes(&self) -> u64 {
        u64::from(self.len) * self.rec_bytes as u64
    }

    pub(crate) fn push(&mut self, record: &[u8]) -> u32 {
        debug_assert_eq!(record.len(), self.rec_bytes);
        let id = self.len;
        assert!(id != u32::MAX, "arena full (u32::MAX records)");
        let slot = id as usize % self.recs_per_seg;
        if slot == 0 {
            self.segs
                .push(vec![0u8; self.recs_per_seg * self.rec_bytes].into());
        }
        let seg = self.segs.last_mut().expect("segment pushed above");
        seg[slot * self.rec_bytes..(slot + 1) * self.rec_bytes].copy_from_slice(record);
        self.len = id + 1;
        id
    }

    /// Record `id`'s bytes, borrowed in place. This is what keeps the
    /// open index's probe runs cheap: each occupied slot on the path
    /// costs one in-place compare, not a buffer copy.
    pub(crate) fn record(&self, id: u32) -> &[u8] {
        debug_assert!(id < self.len);
        let seg = id as usize / self.recs_per_seg;
        let off = (id as usize % self.recs_per_seg) * self.rec_bytes;
        &self.segs[seg][off..off + self.rec_bytes]
    }
}

// ---------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------

/// First-visitor identity per stored state, for exact orbit-merge
/// accounting in the symmetry-reduced DFS.
struct Firsts {
    /// `u32::MAX` means the first concrete visitor was byte-equal to the
    /// canonical representative; anything else indexes `arena`, the side
    /// arena of differing first visitors.
    ids: Vec<u32>,
    arena: SegArena,
}

/// The visited set + canonical state table shared by every traversal:
/// states go in once (canonically, under the store's symmetry classes),
/// get a dense `u32` id, and unpack into working states on expansion.
/// It owns the local-state table, so it is also the kernel that steps
/// working states ([`NodeStore::step`]).
pub(crate) struct NodeStore<P> {
    codec: NodeCodec,
    locals: LocalStates<P>,
    arena: SegArena,
    /// Record digest → arena id; collisions resolve by byte comparison.
    index: OpenIndex,
    /// The record digest, a field so tests can engineer collisions (e.g.
    /// a constant digest) and assert lookups still distinguish records
    /// by content alone.
    digest: fn(&[u8]) -> u64,
    /// Encode scratch, `RefCell` so `&self` lookups can encode.
    scratch: RefCell<Scratch>,
    firsts: Option<Firsts>,
    debug_checked: u32,
}

impl<P> std::fmt::Debug for NodeStore<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeStore")
            .field("len", &self.len())
            .field("arena_bytes", &self.arena_bytes())
            .finish()
    }
}

impl<P> NodeStore<P> {
    /// The number of stored states.
    pub(crate) fn len(&self) -> usize {
        self.arena.len() as usize
    }

    /// Bytes of canonical state payload in the arena.
    pub(crate) fn arena_bytes(&self) -> u64 {
        self.arena.payload_bytes()
    }

    /// Heap bytes held by the digest index's slot array.
    pub(crate) fn index_bytes(&self) -> u64 {
        self.index.heap_bytes()
    }

    /// Finds the id of the record byte-equal to `rec`, if stored.
    fn find_record(&self, rec: &[u8]) -> Option<u32> {
        self.index
            .find((self.digest)(rec), |id| self.arena.record(id) == rec)
    }

    /// The number of processes a state holds.
    pub(crate) fn processes(&self) -> usize {
        self.codec.n
    }

    /// The number of distinct local states interned so far; every slot
    /// below it names one.
    pub(crate) fn local_states(&self) -> usize {
        self.locals.table.len()
    }

    /// The local state slot `slot` names.
    pub(crate) fn local(&self, slot: u32) -> &P {
        &self.locals.table[slot as usize]
    }

    /// What the kernel caches of the local state slot `slot` names.
    pub(crate) fn info(&self, slot: u32) -> &SlotInfo {
        &self.locals.info[slot as usize]
    }

    /// A working state shaped like the root, to load records into.
    pub(crate) fn blank(&self) -> Working {
        Working {
            slots: vec![0; self.codec.n],
            status: vec![Status::Running; self.codec.n],
            memory: self.codec.memory.clone(),
            crashes_left: 0,
        }
    }

    /// Unpacks stored state `id` into `w` (shaped like [`Self::blank`]).
    pub(crate) fn load(&self, id: u32, w: &mut Working) {
        self.codec.decode(self.arena.record(id), w);
    }

    /// The status at position `pos` of stored state `id`, read from its
    /// record in place.
    pub(crate) fn status_at(&self, id: u32, pos: usize) -> Status {
        tag_status(bits_at(self.arena.record(id), 2 * pos, 2))
    }

    /// The slot at position `pos` of stored state `id`, read from its
    /// record in place.
    pub(crate) fn slot_at(&self, id: u32, pos: usize) -> u32 {
        let at = self.codec.slots_offset() + 32 * pos;
        bits_at(self.arena.record(id), at, 32) as u32
    }
}

impl<P: Process + Clone + Eq + Hash> NodeStore<P> {
    /// Builds a store for states shaped like `root` (which is **not**
    /// inserted), keyed canonically under the symmetry group whose
    /// non-singleton classes are `classes` (empty: no symmetry).
    /// `track_firsts` enables first-visitor identity for the DFS
    /// orbit-merge counter. `future` holds the traversal's automaton
    /// future sets, if it extracted any; every interned local state's
    /// [`SlotInfo`] reads its own from them.
    pub(crate) fn new(
        root: &Node<P>,
        classes: Vec<Vec<usize>>,
        track_firsts: bool,
        future: Option<FutureIndex<P>>,
    ) -> Self {
        let codec = NodeCodec::new(root, classes);
        let rec_bytes = codec.rec_bytes;
        NodeStore {
            scratch: RefCell::new(Scratch::new(codec.n)),
            codec,
            locals: LocalStates {
                table: Vec::new(),
                lookup: FastMap::default(),
                info: Vec::new(),
                memo: FastMap::default(),
                future,
                hits: 0,
            },
            arena: SegArena::new(rec_bytes),
            index: OpenIndex::new(),
            digest,
            firsts: track_firsts.then(|| Firsts {
                ids: Vec::new(),
                arena: SegArena::new(rec_bytes),
            }),
            debug_checked: 0,
        }
    }

    /// Loads `node` into `w`, interning every local state the table has
    /// not seen.
    ///
    /// # Errors
    ///
    /// [`ExploreError::LocalStateCeiling`] when the table is full.
    pub(crate) fn resolve(&mut self, node: &Node<P>, w: &mut Working) -> Result<(), ExploreError> {
        debug_assert_eq!(node.procs.len(), self.codec.n);
        let layout = self.codec.memory.layout();
        for (slot, p) in w.slots.iter_mut().zip(&node.procs) {
            *slot = self.locals.intern(p, layout)?;
        }
        w.status.clone_from(&node.status);
        w.memory.clone_from(&node.memory);
        w.crashes_left = node.crashes_left;
        Ok(())
    }

    /// Loads `node` into `w` without interning: `false` when a local
    /// state is not in the table — which proves the node is absent from
    /// the store.
    pub(crate) fn find(&self, node: &Node<P>, w: &mut Working) -> bool {
        for (slot, p) in w.slots.iter_mut().zip(&node.procs) {
            match self.locals.find(p) {
                Some(s) => *slot = s,
                None => return false,
            }
        }
        w.status.clone_from(&node.status);
        w.memory.clone_from(&node.memory);
        w.crashes_left = node.crashes_left;
        true
    }

    /// The node `w` stands for, its processes cloned out of the table.
    pub(crate) fn materialize(&self, w: &Working) -> Node<P> {
        Node {
            procs: w.slots.iter().map(|&s| self.local(s).clone()).collect(),
            memory: w.memory.clone(),
            status: w.status.clone(),
            crashes_left: w.crashes_left,
        }
    }

    /// Steps process `i` of `w` in place by the model's step rule:
    /// [`cfc_core::step_effect`] on `w`'s status and memory, then the
    /// memo for the local state's successor under the op result. A miss
    /// advances a clone of the one process and interns it; a halt changes
    /// only the status.
    ///
    /// # Errors
    ///
    /// The memory error of a failing op, or
    /// [`ExploreError::LocalStateCeiling`].
    pub(crate) fn step(&mut self, w: &mut Working, i: usize) -> Result<(), ExploreError> {
        let slot = w.slots[i];
        let effect = step_effect(
            &self.locals.info[slot as usize].step,
            &mut w.status[i],
            &mut w.memory,
        );
        let Some(result) = effect.map_err(ExploreError::Memory)? else {
            return Ok(());
        };
        let key = memo_key(&result).map(|k| (slot, k));
        if let Some(&next) = key.and_then(|k| self.locals.memo.get(&k)) {
            self.locals.check_hit(slot, result, next);
            w.slots[i] = next;
            return Ok(());
        }
        let p = self.locals.advanced(slot, result);
        let next = self.locals.intern(&p, self.codec.memory.layout())?;
        if let Some(k) = key {
            self.locals.memo.insert(k, next);
        }
        w.slots[i] = next;
        Ok(())
    }

    /// Applies the normalizer `f` to `w`: its processes are materialized
    /// into the reused `procs`, normalized together with its register
    /// values, and interned back into its slots.
    ///
    /// # Errors
    ///
    /// [`ExploreError::LocalStateCeiling`] when the table is full.
    pub(crate) fn normalize(
        &mut self,
        w: &mut Working,
        procs: &mut Vec<P>,
        f: NormalizeFn<'_, P>,
    ) -> Result<(), ExploreError> {
        procs.clear();
        procs.extend(w.slots.iter().map(|&slot| self.local(slot).clone()));
        f(procs, w.memory.values_mut());
        let layout = self.codec.memory.layout();
        for (slot, p) in w.slots.iter_mut().zip(procs.iter()) {
            *slot = self.locals.intern(p, layout)?;
        }
        Ok(())
    }

    /// The id of `w`'s orbit representative, if stored. Lookup only:
    /// `&self`, so traversal loops can consult it while the engine is
    /// mutably borrowed.
    pub(crate) fn id_of(&self, w: &Working) -> Option<u32> {
        let mut sc = self.scratch.borrow_mut();
        self.codec.encode(&self.locals.info, w, &mut sc);
        self.find_record(&sc.rec)
    }

    /// Whether `w`'s orbit representative is stored.
    pub(crate) fn contains(&self, w: &Working) -> bool {
        self.id_of(w).is_some()
    }

    /// Interns `w`'s orbit representative. Returns its dense id, whether
    /// it was fresh, and whether its record differs from `w`'s own (the
    /// state is not its own representative).
    pub(crate) fn intern(&mut self, w: &Working) -> (u32, bool, bool) {
        let mut sc = self.scratch.borrow_mut();
        let permuted = self.codec.encode(&self.locals.info, w, &mut sc);
        if let Some(id) = self.find_record(&sc.rec) {
            return (id, false, permuted);
        }
        let id = self.arena.push(&sc.rec);
        let (arena, digest) = (&self.arena, self.digest);
        self.index
            .insert(digest(&sc.rec), id, |x| digest(arena.record(x)));
        // Early-insertion decode-back check: `decode(encode(x)) == x` is
        // the injectivity contract everything rests on, so the first
        // insertions of every debug run verify it end to end, on the
        // canonical arrangement the record was written from.
        if cfg!(debug_assertions) && self.debug_checked < 1024 {
            self.debug_checked += 1;
            let mut canon = w.clone();
            for (dst, &src) in sc.perm.iter().enumerate() {
                canon.slots[dst] = w.slots[src];
                canon.status[dst] = w.status[src];
            }
            let mut back = w.clone();
            self.codec.decode(&sc.rec, &mut back);
            debug_assert!(
                back == canon,
                "packed store round-trip mismatch: \
                 the codec is not injective for this system"
            );
        }
        (id, true, permuted)
    }

    /// Records a visit of the concrete state `w`, keyed by its orbit
    /// representative. Returns the interned id of the representative
    /// (dense, assigned in first-visit order — the key dynamic
    /// reduction's per-state sleep masks are stored under) alongside the
    /// visit classification.
    pub(crate) fn visit(&mut self, w: &Working) -> (u32, VisitOutcome) {
        let (id, fresh, permuted) = self.intern(w);
        let Some(Firsts { ids, arena }) = &mut self.firsts else {
            let outcome = if fresh {
                VisitOutcome::Fresh
            } else {
                VisitOutcome::RevisitSame
            };
            return (id, outcome);
        };
        // The concrete record is needed only when it differs from the
        // canonical one.
        let mut sc = self.scratch.borrow_mut();
        let sc = &mut *sc;
        if permuted {
            self.codec.write(w, |i| i, &mut sc.writer, &mut sc.rec);
        }
        let outcome = if fresh {
            debug_assert_eq!(ids.len(), id as usize);
            ids.push(if permuted {
                arena.push(&sc.rec)
            } else {
                u32::MAX
            });
            VisitOutcome::Fresh
        } else {
            let fid = ids[id as usize];
            let same = if permuted {
                fid != u32::MAX && arena.record(fid) == sc.rec.as_slice()
            } else {
                fid == u32::MAX
            };
            if same {
                VisitOutcome::RevisitSame
            } else {
                VisitOutcome::RevisitMerged
            }
        };
        (id, outcome)
    }

    /// Decodes stored state `id` into a node (a transient owned copy).
    #[cfg(test)]
    pub(crate) fn node(&self, id: u32) -> Node<P> {
        let mut w = self.blank();
        self.load(id, &mut w);
        self.materialize(&w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::canonicalize;
    use cfc_core::{Layout, Op, OpResult, RegisterId, Step, SymmetryGroup, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The node-level calls the tests make, each through the
    /// working-state API: a node resolves into a working state, which
    /// the store interns, visits or looks up.
    trait NodeApi<P> {
        fn intern_node(&mut self, x: &Node<P>) -> (u32, bool, bool);
        fn visit_node(&mut self, x: &Node<P>) -> (u32, VisitOutcome);
        fn id_of_node(&self, x: &Node<P>) -> Option<u32>;
        fn contains_node(&self, x: &Node<P>) -> bool {
            self.id_of_node(x).is_some()
        }
    }

    impl<P: Process + Clone + Eq + Hash> NodeApi<P> for NodeStore<P> {
        fn intern_node(&mut self, x: &Node<P>) -> (u32, bool, bool) {
            let mut w = self.blank();
            self.resolve(x, &mut w).unwrap();
            self.intern(&w)
        }
        fn visit_node(&mut self, x: &Node<P>) -> (u32, VisitOutcome) {
            let mut w = self.blank();
            self.resolve(x, &mut w).unwrap();
            self.visit(&w)
        }
        fn id_of_node(&self, x: &Node<P>) -> Option<u32> {
            let mut w = self.blank();
            if !self.find(x, &mut w) {
                // A local state the table has never seen: the node
                // cannot be stored.
                return None;
            }
            self.id_of(&w)
        }
    }

    /// A minimal process with one counter. It claims an 8-bit packing
    /// through `pack_state`, which the store must ignore: every local
    /// state is interned.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Packable {
        reg: RegisterId,
        count: u8,
    }

    impl Process for Packable {
        fn current(&self) -> Step {
            Step::Op(Op::Read(self.reg))
        }
        fn advance(&mut self, _: OpResult) {
            self.count += 1;
        }
        fn pack_state(&self, w: &mut StateWriter) -> bool {
            w.push_bits(u64::from(self.count), 8);
            true
        }
    }

    /// An opaque local state: besides `Clone + Eq + Hash`, the store
    /// reads nothing of it but its fingerprint, and only under symmetry.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Opaque {
        word: u64,
    }

    impl Process for Opaque {
        fn current(&self) -> Step {
            Step::Halt
        }
        fn advance(&mut self, _: OpResult) {}
    }

    /// A counter whose fingerprint collides across distinct states
    /// (`count % 3`), so canonical order falls back to the pid tie-break.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Colliding {
        count: u8,
    }

    impl Process for Colliding {
        fn current(&self) -> Step {
            Step::Internal
        }
        fn advance(&mut self, _: OpResult) {
            self.count += 1;
        }
        fn fingerprint(&self) -> Option<u64> {
            Some(u64::from(self.count % 3))
        }
    }

    /// A memory over `layout` holding `values`.
    fn memory(layout: Layout, values: &[u64]) -> Memory {
        let mut memory = Memory::with_minimal_atomicity(layout).unwrap();
        for (slot, &v) in memory.values_mut().iter_mut().zip(values) {
            *slot = Value::new(v);
        }
        memory
    }

    fn layout2() -> Layout {
        let mut layout = Layout::new();
        layout.register("a", 3, 0);
        layout.register("b", 5, 0);
        layout
    }

    fn node(counts: [u8; 2], a: u64, b: u64, crashes: u32) -> Node<Packable> {
        Node {
            procs: counts
                .iter()
                .map(|&c| Packable {
                    reg: RegisterId::new(0),
                    count: c,
                })
                .collect(),
            memory: memory(layout2(), &[a, b]),
            status: vec![Status::Running, Status::Done],
            crashes_left: crashes,
        }
    }

    fn store(classes: Vec<Vec<usize>>, track_firsts: bool) -> NodeStore<Packable> {
        NodeStore::new(&node([0, 0], 0, 0, 2), classes, track_firsts, None)
    }

    /// `x` with the processes (local states and statuses together) at
    /// positions `i` and `j` swapped.
    fn swapped<P: Clone>(x: &Node<P>, i: usize, j: usize) -> Node<P> {
        let mut y = x.clone();
        y.procs.swap(i, j);
        y.status.swap(i, j);
        y
    }

    #[test]
    fn packed_store_interns_each_state_once() {
        let mut s = store(Vec::new(), false);
        let x = node([1, 2], 3, 4, 1);
        let y = node([2, 1], 3, 4, 1);
        assert!(!s.contains_node(&x));
        let (idx, fresh, permuted) = s.intern_node(&x);
        assert!(fresh && !permuted);
        let (idx2, fresh2, _) = s.intern_node(&x);
        assert!(!fresh2);
        assert_eq!(idx, idx2);
        let (idy, fresh3, _) = s.intern_node(&y);
        assert!(fresh3);
        assert_ne!(idx, idy);
        assert!(s.contains_node(&x));
        assert_eq!(s.id_of_node(&y), Some(idy));
        assert_eq!(s.node(idx), x);
        assert_eq!(s.node(idy), y);
        assert_eq!(s.len(), 2);
        // Without classes the store still caches every slot's
        // fingerprints: the progress BFS orders its candidates by them.
        assert_eq!(s.locals.info.len(), s.locals.table.len());
        for (info, p) in s.locals.info.iter().zip(&s.locals.table) {
            for st in [Status::Running, Status::Done, Status::Crashed] {
                assert_eq!(info.fingerprint(st), state_fingerprint(p, st));
            }
        }
    }

    #[test]
    fn packed_records_take_their_declared_bit_width() {
        let mut s = store(Vec::new(), false);
        for c in 0..100u8 {
            s.intern_node(&node([c, c], 1, 2, 0));
        }
        // 2 statuses (4b) + crash (2b) + values (8b) + 2 interned slots
        // (64b) = 78 bits -> 10 bytes/record, whatever `pack_state` says.
        assert_eq!(s.arena_bytes(), 100 * 10);
    }

    #[test]
    fn interned_fallback_round_trips_opaque_processes() {
        let mut layout = Layout::new();
        layout.register("r", 4, 0);
        let root: Node<Opaque> = Node {
            procs: vec![Opaque { word: 0 }, Opaque { word: 0 }],
            memory: memory(layout, &[0]),
            status: vec![Status::Running; 2],
            crashes_left: 0,
        };
        let mut s = NodeStore::new(&root, Vec::new(), false, None);
        let x = Node {
            procs: vec![Opaque { word: 7 }, Opaque { word: 9 }],
            ..root.clone()
        };
        // A node with unseen local states is provably absent.
        assert!(!s.contains_node(&x));
        let (id, fresh, _) = s.intern_node(&x);
        assert!(fresh);
        assert_eq!(s.node(id), x);
        assert!(s.contains_node(&x));
        // Same multiset, different arrangement: a distinct state, but the
        // lookup-only encode now succeeds (both local states interned).
        let y = Node {
            procs: vec![Opaque { word: 9 }, Opaque { word: 7 }],
            ..root.clone()
        };
        assert!(!s.contains_node(&y));
        // Interning it reuses both slots: the local-state table does not
        // grow, and both records decode exactly.
        let (idy, fresh, _) = s.intern_node(&y);
        assert!(fresh);
        assert_eq!(s.locals.table.len(), 2);
        assert_eq!(s.node(id), x);
        assert_eq!(s.node(idy), y);
    }

    #[test]
    fn engineered_digest_collision_keeps_distinct_states_fresh() {
        // Two distinct orbits with an *engineered* equal digest must both
        // intern Fresh and never report a merge: the index resolves
        // collisions by byte comparison, never by hash.
        let mut s = store(vec![vec![0, 1]], true);
        s.digest = |_| 0xdead_beef;
        let x = node([1, 2], 3, 4, 1);
        let y = node([9, 9], 5, 5, 0);
        assert_eq!(s.visit_node(&x), (0, VisitOutcome::Fresh));
        assert_eq!(s.visit_node(&y), (1, VisitOutcome::Fresh));
        assert_eq!(s.visit_node(&x), (0, VisitOutcome::RevisitSame));
        assert_eq!(s.visit_node(&y), (1, VisitOutcome::RevisitSame));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn intern_ids_match_a_hash_map_model_across_growth() {
        // Enough distinct states (each interned twice) to force several
        // index doublings and fill several arena segments (10-byte
        // records, 6553 per segment); ids must be the dense
        // first-insertion order a plain `HashMap` assigns, and the index
        // must stay within its 7/8-load-factor envelope of 64/7 bytes per
        // state.
        let mut s = store(Vec::new(), false);
        let mut model: HashMap<Node<Packable>, u32> = HashMap::new();
        for i in (0..20_000u32).chain(0..20_000) {
            let x = node([(i % 251) as u8, (i / 251) as u8], u64::from(i % 8), 0, 0);
            let fresh_id = model.len() as u32;
            let want = *model.entry(x.clone()).or_insert(fresh_id);
            assert_eq!(s.intern_node(&x), (want, want == fresh_id, false));
        }
        assert_eq!(s.len(), model.len());
        assert!(s.arena.segs.len() > 1);
        assert!(s.index_bytes() * 7 <= s.len() as u64 * 64);
    }

    #[test]
    fn visit_tracks_first_concrete_visitor_exactly() {
        let group = SymmetryGroup::from_classes(2, vec![vec![0, 1]]);
        let mut s = store(group.classes().to_vec(), true);
        // Each orbit below has two members; `canonicalize` names the
        // representative.
        let orbit = |x: Node<Packable>| {
            let canon = canonicalize(&x, &group);
            let other = swapped(&canon, 0, 1);
            assert_ne!(canon, other);
            (canon, other)
        };
        let (canon, permuted) = orbit(node([1, 2], 0, 0, 0));
        // First visit by a non-canonical concrete state.
        assert_eq!(s.visit_node(&permuted), (0, VisitOutcome::Fresh));
        assert_ne!(s.firsts.as_ref().unwrap().ids[0], u32::MAX);
        // Same concrete again: not a merge.
        assert_eq!(s.visit_node(&permuted), (0, VisitOutcome::RevisitSame));
        // A different concrete sibling: a genuine merge.
        assert_eq!(s.visit_node(&canon), (0, VisitOutcome::RevisitMerged));

        // And a canonical-first orbit: the sentinel path.
        let (c2, p2) = orbit(node([3, 4], 1, 1, 0));
        assert_eq!(s.visit_node(&c2), (1, VisitOutcome::Fresh));
        assert_eq!(s.firsts.as_ref().unwrap().ids[1], u32::MAX);
        assert_eq!(s.visit_node(&c2), (1, VisitOutcome::RevisitSame));
        assert_eq!(s.visit_node(&p2), (1, VisitOutcome::RevisitMerged));
    }

    #[test]
    fn visit_without_tracking_reports_fresh_and_same_only() {
        let mut s = store(Vec::new(), false);
        let x = node([1, 1], 0, 0, 0);
        assert_eq!(s.visit_node(&x), (0, VisitOutcome::Fresh));
        assert_eq!(s.visit_node(&x), (0, VisitOutcome::RevisitSame));
    }

    /// Every class-respecting permutation of `x` under classes {0, 1, 2}
    /// and {3, 4}: all 3! x 2! arrangements, `x` itself among them.
    fn class_permutations(x: &Node<Colliding>) -> Vec<Node<Colliding>> {
        const PERMS3: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut out = Vec::new();
        for p in PERMS3 {
            for q in [[3, 4], [4, 3]] {
                let src = [p[0], p[1], p[2], q[0], q[1]];
                let mut y = x.clone();
                for (dst, &from) in src.iter().enumerate() {
                    y.procs[dst] = x.procs[from].clone();
                    y.status[dst] = x.status[from];
                }
                out.push(y);
            }
        }
        out
    }

    /// The store's canonical form is `canonicalize`'s, exactly: under
    /// colliding fingerprints (so the pid tie-break runs), over all three
    /// statuses and a crash budget, for random nodes of five processes in
    /// classes {0, 1, 2} and {3, 4}. Every class-respecting permutation
    /// of a node finds the node's id exactly when `canonicalize` maps it
    /// to the same representative, which is always the case unless two
    /// members of a class collide: a collision forfeits the merge, in the
    /// store as in `canonicalize`.
    #[test]
    fn store_canonical_form_equals_canonicalize() {
        let group = SymmetryGroup::from_classes(5, vec![vec![0, 1, 2], vec![3, 4]]);
        let mut layout = Layout::new();
        layout.register("r", 2, 0);
        let statuses = [Status::Running, Status::Done, Status::Crashed];
        let root = Node {
            procs: vec![Colliding { count: 0 }; 5],
            memory: memory(layout, &[0]),
            status: vec![Status::Running; 5],
            crashes_left: 2,
        };
        let mut s = NodeStore::new(&root, group.classes().to_vec(), false, None);
        let mut rng = StdRng::seed_from_u64(18);
        // Whether two members of a class have equal fingerprints and
        // statuses but different local states.
        let collides = |x: &Node<Colliding>| {
            group.classes().iter().any(|class| {
                class.iter().any(|&i| {
                    class.iter().any(|&j| {
                        x.status[i] == x.status[j]
                            && x.procs[i] != x.procs[j]
                            && x.procs[i].fingerprint() == x.procs[j].fingerprint()
                    })
                })
            })
        };
        let (mut merged, mut split) = (0, 0);
        for _ in 0..3_000 {
            let x = Node {
                procs: (0..5)
                    .map(|_| Colliding {
                        count: rng.gen_range(0..6u8),
                    })
                    .collect(),
                memory: memory(root.memory.layout().clone(), &[rng.gen_range(0..4u64)]),
                status: (0..5).map(|_| statuses[rng.gen_range(0..3usize)]).collect(),
                crashes_left: rng.gen_range(0..3u32),
            };
            let canon = canonicalize(&x, &group);
            let (id, _, permuted) = s.intern_node(&x);
            assert_eq!(s.node(id), canon, "{x:?}");
            assert_eq!(permuted, canon != x, "{x:?}");
            for y in class_permutations(&x) {
                let same_rep = canonicalize(&y, &group) == canon;
                assert!(same_rep || collides(&x), "{y:?} leaves {x:?}'s orbit");
                assert_eq!(s.id_of_node(&y) == Some(id), same_rep, "{y:?} vs {x:?}");
                assert_eq!(s.contains_node(&y), s.id_of_node(&y).is_some());
                if same_rep {
                    // A revisit through a permuted sibling.
                    assert_eq!(s.intern_node(&y), (id, false, y != canon), "{y:?}");
                    merged += usize::from(y != canon);
                } else {
                    split += 1;
                }
            }
        }
        assert!(merged > 0 && split > 0, "{merged} merges, {split} splits");
    }

    /// The local-state ceiling is a typed error, decided by the checked
    /// conversion every new slot goes through: a table of `u32::MAX`
    /// states is full, one short of it takes its last slot.
    #[test]
    fn local_state_ceiling_is_a_typed_error() {
        assert_eq!(next_slot(0).unwrap(), 0);
        assert_eq!(next_slot(u32::MAX as usize - 1).unwrap(), u32::MAX - 1);
        assert!(matches!(
            next_slot(u32::MAX as usize),
            Err(ExploreError::LocalStateCeiling)
        ));
        assert!(matches!(
            next_slot(usize::MAX),
            Err(ExploreError::LocalStateCeiling)
        ));
    }

    /// Stepping a working state goes through the memo: the first step of
    /// a local state under a result interns its successor, and the same
    /// step from another process reuses the slot without growing the
    /// table. The stepped slot names exactly the state a plain `advance`
    /// of a clone reaches, and the record reads (`status_at`, `slot_at`)
    /// agree with a full load.
    #[test]
    fn kernel_steps_through_the_memo() {
        let mut s = store(Vec::new(), false);
        let x = node([0, 0], 5, 0, 0);
        let mut w = s.blank();
        s.resolve(&x, &mut w).unwrap();
        assert_eq!(s.locals.table.len(), 1, "both processes share a slot");
        s.step(&mut w, 0).unwrap();
        assert_eq!(s.locals.table.len(), 2);
        assert_eq!(s.locals.memo.len(), 1);
        // Process 1 is `Done`: step it as if running, from the same
        // local state and memory, so the result repeats.
        w.status[1] = Status::Running;
        s.step(&mut w, 1).unwrap();
        assert_eq!(s.locals.table.len(), 2, "a memo hit interns nothing");
        assert_eq!(s.locals.hits, 1);
        assert_eq!(w.slots[0], w.slots[1]);
        let mut want = x.procs[0].clone();
        want.advance(OpResult::Value(Value::new(5)));
        assert_eq!(s.local(w.slots[0]), &want);
        let (id, fresh, _) = s.intern(&w);
        assert!(fresh);
        let mut back = s.blank();
        s.load(id, &mut back);
        assert_eq!(back, w);
        for pos in 0..2 {
            assert_eq!(s.status_at(id, pos), w.status[pos]);
            assert_eq!(s.slot_at(id, pos), w.slots[pos]);
        }
    }

    thread_local! {
        /// The outside state the planted process below reads.
        static ADVANCES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// A process whose `advance` breaks the determinism contract: it
    /// records how many advances this thread has made so far.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Wobbly {
        pc: u8,
        tag: u32,
    }

    impl Process for Wobbly {
        fn current(&self) -> Step {
            if self.pc == 0 {
                Step::Internal
            } else {
                Step::Halt
            }
        }
        fn advance(&mut self, _: OpResult) {
            self.pc = 1;
            self.tag = ADVANCES.with(|c| {
                c.set(c.get() + 1);
                c.get()
            });
        }
    }

    /// The planted determinism mutant: the second of two identical
    /// processes steps through the memo entry the first one filled, and
    /// the sampled re-advance of a clone sees a different successor.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Process::advance is not deterministic")]
    fn nondeterministic_advance_trips_the_memo_check() {
        let layout = Layout::new();
        let root = Node {
            procs: vec![Wobbly { pc: 0, tag: 0 }; 2],
            memory: Memory::new(layout, 1).unwrap(),
            status: vec![Status::Running; 2],
            crashes_left: 0,
        };
        let mut s = NodeStore::new(&root, Vec::new(), false, None);
        let mut w = s.blank();
        s.resolve(&root, &mut w).unwrap();
        s.step(&mut w, 0).unwrap();
        s.step(&mut w, 1).unwrap();
    }
}

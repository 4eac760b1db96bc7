//! The packed, arena-interned state store behind every exhaustive
//! checker's visited set.
//!
//! Every canonical state is held exactly once, bit-packed at declared
//! widths (the paper's own packing discipline, applied to the verifier's
//! footprint; see [`cfc_core::LayoutCodec`]):
//!
//! * [`NodeCodec`] — a fixed-stride record codec for [`Node`]s: per-process
//!   statuses at 2 bits, the crash budget at its exact width, register
//!   values at their [`cfc_core::Layout`] widths, and process local states
//!   as 32-bit slots into a side table that holds each distinct local
//!   state once. This is the one process encoding, for every family: a
//!   slot is 32 bits however wide the local state it names, and the
//!   algorithms need no packing code of their own;
//! * [`SegArena`] — an append-only arena of those records in 64 KiB
//!   segments, so appending never copies the records already stored and
//!   every read borrows a record in place;
//! * [`NodeStore`] — the visited set / intern table: an open-addressed
//!   digest index ([`crate::index::OpenIndex`], at most 64/7 B/state) maps
//!   a 64-bit hash of the record bytes to record ids, so membership and
//!   interning cost one encode plus a short probe, and node ids decode
//!   transiently on expansion. Callers hand it concrete nodes: under a
//!   symmetry group the store canonicalizes them itself (below).
//!
//! **Canonicalization.** A store built with the non-singleton classes of
//! a symmetry group keys every state by its orbit representative, the one
//! `crate::graph::canonicalize` defines: within each class, the members'
//! (local state, status) pairs in `state_fingerprint` order, ties kept in
//! pid order. It computes that record without building a node. When a
//! local state is first interned, the store caches its fingerprint under
//! each of the three statuses; every encode then turns the node into
//! slots once, sorts each class's (cached fingerprint, position in class)
//! keys in a reused buffer, and writes the record from the permuted
//! (status, slot) pairs. Nothing is hashed twice and nothing on the
//! encode path allocates. A store without classes holds no fingerprint
//! cache and writes the concrete record as is.
//!
//! Round-trip identity of the codec (checked by debug assertions on early
//! insertions) makes the encoding injective, so byte-equality of records
//! coincides with `Node` equality: every freshness and interning decision
//! is exactly the one a store of whole `Node`s would make. The oracle
//! matrix (`tests/common/matrix.rs`) holds the checkers built on this
//! store against a naive `HashMap`-of-states explorer, count for count.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use cfc_core::{
    bits_for, LayoutCodec, Memory, Process, StateCodec, StateReader, StateWriter, Status,
};

use crate::graph::{state_fingerprint, Node};
use crate::index::OpenIndex;

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

// ---------------------------------------------------------------------
// Record codec.
// ---------------------------------------------------------------------

/// A fixed-stride codec for whole [`Node`]s. Process local states are
/// interned into a side table and records hold 32-bit slots into it, so
/// the table grows with the number of *distinct* local states, not with
/// the number of global states.
struct NodeCodec<P> {
    /// The root's memory: a record decodes into a clone of it.
    memory: Memory,
    values: LayoutCodec,
    crash_bits: u32,
    n: usize,
    table: Vec<P>,
    lookup: HashMap<P, u32>,
    /// The symmetry group's non-singleton classes; empty without
    /// symmetry.
    classes: Vec<Vec<usize>>,
    /// Per slot, its local state's `state_fingerprint` under each status
    /// (indexed by `status_tag`). Filled only when `classes` is
    /// non-empty.
    fps: Vec<[u64; 3]>,
    rec_bytes: usize,
}

/// The encode buffers a store reuses across calls.
struct Scratch {
    /// The slot of each process's local state, by pid.
    slots: Vec<u32>,
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
            slots: Vec::with_capacity(n),
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

impl<P: Process + Clone + Eq + Hash> NodeCodec<P> {
    /// Derives the codec from the root node (its memory's layout gives
    /// the register widths; the crash budget's width comes from the
    /// root, as the budget only ever decreases) and the symmetry group's
    /// non-singleton classes.
    fn new(root: &Node<P>, classes: Vec<Vec<usize>>) -> Self {
        let values = LayoutCodec::new(root.memory.layout());
        let crash_bits = bits_for(u64::from(root.crashes_left));
        let n = root.procs.len();
        let total_bits = 2 * n + crash_bits as usize + values.encoded_bits() + 32 * n;
        NodeCodec {
            memory: root.memory.clone(),
            values,
            crash_bits,
            n,
            table: Vec::new(),
            lookup: HashMap::new(),
            classes,
            fps: Vec::new(),
            rec_bytes: total_bits.div_ceil(8).max(1),
        }
    }

    fn rec_bytes(&self) -> usize {
        self.rec_bytes
    }

    /// Fills `slots` with the slot of each of `node`'s local states,
    /// interning the ones not seen before (hence `&mut`). A local state
    /// already in the table is looked up, never cloned; a new one has
    /// its fingerprints cached when the codec has classes.
    fn intern_slots(&mut self, node: &Node<P>, slots: &mut Vec<u32>) {
        debug_assert_eq!(node.procs.len(), self.n);
        slots.clear();
        for p in &node.procs {
            let slot = match self.lookup.get(p) {
                Some(&slot) => slot,
                None => {
                    let slot = u32::try_from(self.table.len())
                        .expect("more than u32::MAX distinct local states");
                    if !self.classes.is_empty() {
                        self.fps.push(
                            [Status::Running, Status::Done, Status::Crashed]
                                .map(|s| state_fingerprint(p, s)),
                        );
                    }
                    self.table.push(p.clone());
                    self.lookup.insert(p.clone(), slot);
                    slot
                }
            };
            slots.push(slot);
        }
    }

    /// Fills `slots` without interning: `false` when a local state is
    /// not in the table — which proves the node is absent from the store,
    /// so lookups can treat the failure as "not visited".
    fn find_slots(&self, node: &Node<P>, slots: &mut Vec<u32>) -> bool {
        debug_assert_eq!(node.procs.len(), self.n);
        slots.clear();
        for p in &node.procs {
            let Some(&slot) = self.lookup.get(p) else {
                return false;
            };
            slots.push(slot);
        }
        true
    }

    /// The one encode routine, after the slots are resolved into
    /// `sc.slots`: orders each class by its members' cached fingerprints
    /// into `sc.perm` and writes the canonical record of `node` into
    /// `sc.rec`. Returns whether that record differs from `node`'s own.
    ///
    /// Sorting (fingerprint, position in class) keys is the stable
    /// fingerprint sort `crate::graph::canonicalize` runs, so both pick
    /// the same representative.
    fn encode(&self, node: &Node<P>, sc: &mut Scratch) -> bool {
        let Scratch {
            slots,
            perm,
            keys,
            writer,
            rec,
        } = sc;
        let mut permuted = false;
        for class in &self.classes {
            keys.clear();
            keys.extend(class.iter().enumerate().map(|(k, &i)| {
                let tag = status_tag(node.status[i]) as usize;
                (self.fps[slots[i] as usize][tag], k)
            }));
            keys.sort_unstable();
            for (&dst, &(_, k)) in class.iter().zip(keys.iter()) {
                let src = class[k];
                perm[dst] = src;
                permuted |= slots[src] != slots[dst] || node.status[src] != node.status[dst];
            }
        }
        self.write(node, slots, |i| perm[i], writer, rec);
        permuted
    }

    /// Writes the record of `node`, whose slots are `slots`, with process
    /// `src(i)`'s status and slot at position `i`, into `out`.
    fn write(
        &self,
        node: &Node<P>,
        slots: &[u32],
        src: impl Fn(usize) -> usize,
        w: &mut StateWriter,
        out: &mut Vec<u8>,
    ) {
        w.clear();
        for i in 0..self.n {
            w.push_bits(status_tag(node.status[src(i)]), 2);
        }
        w.push_bits(u64::from(node.crashes_left), self.crash_bits);
        for (v, &width) in node.memory.snapshot().iter().zip(self.values.widths()) {
            w.push_value(*v, width);
        }
        for i in 0..self.n {
            w.push_bits(u64::from(slots[src(i)]), 32);
        }
        out.clear();
        out.extend_from_slice(w.bytes());
        out.resize(self.rec_bytes, 0);
    }

    fn decode(&self, bytes: &[u8]) -> Node<P> {
        let mut r = StateReader::new(bytes);
        let status: Vec<Status> = (0..self.n).map(|_| tag_status(r.take_bits(2))).collect();
        let crashes_left = r.take_bits(self.crash_bits) as u32;
        let mut memory = self.memory.clone();
        for (v, &width) in memory.values_mut().iter_mut().zip(self.values.widths()) {
            *v = r.take_value(width);
        }
        let procs: Vec<P> = (0..self.n)
            .map(|_| self.table[r.take_bits(32) as usize].clone())
            .collect();
        Node {
            procs,
            memory,
            status,
            crashes_left,
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
/// get a dense `u32` id, and decode transiently on expansion.
pub(crate) struct NodeStore<P> {
    codec: NodeCodec<P>,
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

fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
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
    fn find(&self, rec: &[u8]) -> Option<u32> {
        self.index
            .find((self.digest)(rec), |id| self.arena.record(id) == rec)
    }
}

impl<P: Process + Clone + Eq + Hash> NodeStore<P> {
    /// Builds a store for states shaped like `root` (which is **not**
    /// inserted), keyed canonically under the symmetry group whose
    /// non-singleton classes are `classes` (empty: no symmetry).
    /// `track_firsts` enables first-visitor identity for the DFS
    /// orbit-merge counter.
    pub(crate) fn new(root: &Node<P>, classes: Vec<Vec<usize>>, track_firsts: bool) -> Self {
        let codec = NodeCodec::new(root, classes);
        let rec_bytes = codec.rec_bytes();
        NodeStore {
            scratch: RefCell::new(Scratch::new(codec.n)),
            codec,
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

    /// The id of `node`'s orbit representative, if stored. Lookup only:
    /// `&self`, so traversal loops can consult it while the engine is
    /// mutably borrowed.
    pub(crate) fn id_of(&self, node: &Node<P>) -> Option<u32> {
        let mut sc = self.scratch.borrow_mut();
        if !self.codec.find_slots(node, &mut sc.slots) {
            // A local state the intern table has never seen: the node
            // cannot be stored.
            return None;
        }
        self.codec.encode(node, &mut sc);
        self.find(&sc.rec)
    }

    /// Whether `node`'s orbit representative is stored.
    pub(crate) fn contains(&self, node: &Node<P>) -> bool {
        self.id_of(node).is_some()
    }

    /// Interns `node`'s orbit representative. Returns its dense id,
    /// whether it was fresh, and whether its record differs from
    /// `node`'s own (the node is not its own representative).
    pub(crate) fn intern(&mut self, node: &Node<P>) -> (u32, bool, bool) {
        let mut sc = self.scratch.borrow_mut();
        self.codec.intern_slots(node, &mut sc.slots);
        let permuted = self.codec.encode(node, &mut sc);
        if let Some(id) = self.find(&sc.rec) {
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
            let mut canon = node.clone();
            for (dst, &src) in sc.perm.iter().enumerate() {
                canon.procs[dst] = node.procs[src].clone();
                canon.status[dst] = node.status[src];
            }
            debug_assert!(
                self.codec.decode(&sc.rec) == canon,
                "packed store round-trip mismatch: \
                 the codec is not injective for this system"
            );
        }
        (id, true, permuted)
    }

    /// Records a visit of the concrete state `node`, keyed by its orbit
    /// representative. Returns the interned id of the representative
    /// (dense, assigned in first-visit order — the key dynamic
    /// reduction's per-state sleep masks are stored under) alongside the
    /// visit classification.
    pub(crate) fn visit(&mut self, node: &Node<P>) -> (u32, VisitOutcome) {
        let (id, fresh, permuted) = self.intern(node);
        let Some(Firsts { ids, arena }) = &mut self.firsts else {
            let outcome = if fresh {
                VisitOutcome::Fresh
            } else {
                VisitOutcome::RevisitSame
            };
            return (id, outcome);
        };
        // The concrete record is needed only when it differs from the
        // canonical one; it is written from the slots the intern just
        // resolved.
        let mut sc = self.scratch.borrow_mut();
        let sc = &mut *sc;
        if permuted {
            self.codec
                .write(node, &sc.slots, |i| i, &mut sc.writer, &mut sc.rec);
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

    /// Decodes stored state `id` (a transient owned copy).
    pub(crate) fn node(&self, id: u32) -> Node<P> {
        self.codec.decode(self.arena.record(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::canonicalize;
    use cfc_core::{Layout, Op, OpResult, RegisterId, Step, SymmetryGroup, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        NodeStore::new(&node([0, 0], 0, 0, 2), classes, track_firsts)
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
        assert!(!s.contains(&x));
        let (idx, fresh, permuted) = s.intern(&x);
        assert!(fresh && !permuted);
        let (idx2, fresh2, _) = s.intern(&x);
        assert!(!fresh2);
        assert_eq!(idx, idx2);
        let (idy, fresh3, _) = s.intern(&y);
        assert!(fresh3);
        assert_ne!(idx, idy);
        assert!(s.contains(&x));
        assert_eq!(s.id_of(&y), Some(idy));
        assert_eq!(s.node(idx), x);
        assert_eq!(s.node(idy), y);
        assert_eq!(s.len(), 2);
        // Without classes the store neither hashes nor caches
        // fingerprints.
        assert!(s.codec.fps.is_empty());
    }

    #[test]
    fn packed_records_take_their_declared_bit_width() {
        let mut s = store(Vec::new(), false);
        for c in 0..100u8 {
            s.intern(&node([c, c], 1, 2, 0));
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
        let mut s = NodeStore::new(&root, Vec::new(), false);
        let x = Node {
            procs: vec![Opaque { word: 7 }, Opaque { word: 9 }],
            ..root.clone()
        };
        // A node with unseen local states is provably absent.
        assert!(!s.contains(&x));
        let (id, fresh, _) = s.intern(&x);
        assert!(fresh);
        assert_eq!(s.node(id), x);
        assert!(s.contains(&x));
        // Same multiset, different arrangement: a distinct state, but the
        // lookup-only encode now succeeds (both local states interned).
        let y = Node {
            procs: vec![Opaque { word: 9 }, Opaque { word: 7 }],
            ..root.clone()
        };
        assert!(!s.contains(&y));
        // Interning it reuses both slots: the local-state table does not
        // grow, and both records decode exactly.
        let (idy, fresh, _) = s.intern(&y);
        assert!(fresh);
        assert_eq!(s.codec.table.len(), 2);
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
        assert_eq!(s.visit(&x), (0, VisitOutcome::Fresh));
        assert_eq!(s.visit(&y), (1, VisitOutcome::Fresh));
        assert_eq!(s.visit(&x), (0, VisitOutcome::RevisitSame));
        assert_eq!(s.visit(&y), (1, VisitOutcome::RevisitSame));
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
            assert_eq!(s.intern(&x), (want, want == fresh_id, false));
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
        assert_eq!(s.visit(&permuted), (0, VisitOutcome::Fresh));
        assert_ne!(s.firsts.as_ref().unwrap().ids[0], u32::MAX);
        // Same concrete again: not a merge.
        assert_eq!(s.visit(&permuted), (0, VisitOutcome::RevisitSame));
        // A different concrete sibling: a genuine merge.
        assert_eq!(s.visit(&canon), (0, VisitOutcome::RevisitMerged));

        // And a canonical-first orbit: the sentinel path.
        let (c2, p2) = orbit(node([3, 4], 1, 1, 0));
        assert_eq!(s.visit(&c2), (1, VisitOutcome::Fresh));
        assert_eq!(s.firsts.as_ref().unwrap().ids[1], u32::MAX);
        assert_eq!(s.visit(&c2), (1, VisitOutcome::RevisitSame));
        assert_eq!(s.visit(&p2), (1, VisitOutcome::RevisitMerged));
    }

    #[test]
    fn visit_without_tracking_reports_fresh_and_same_only() {
        let mut s = store(Vec::new(), false);
        let x = node([1, 1], 0, 0, 0);
        assert_eq!(s.visit(&x), (0, VisitOutcome::Fresh));
        assert_eq!(s.visit(&x), (0, VisitOutcome::RevisitSame));
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
        let mut s = NodeStore::new(&root, group.classes().to_vec(), false);
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
            let (id, _, permuted) = s.intern(&x);
            assert_eq!(s.node(id), canon, "{x:?}");
            assert_eq!(permuted, canon != x, "{x:?}");
            for y in class_permutations(&x) {
                let same_rep = canonicalize(&y, &group) == canon;
                assert!(same_rep || collides(&x), "{y:?} leaves {x:?}'s orbit");
                assert_eq!(s.id_of(&y) == Some(id), same_rep, "{y:?} vs {x:?}");
                assert_eq!(s.contains(&y), s.id_of(&y).is_some());
                if same_rep {
                    // A revisit through a permuted sibling.
                    assert_eq!(s.intern(&y), (id, false, y != canon), "{y:?}");
                    merged += usize::from(y != canon);
                } else {
                    split += 1;
                }
            }
        }
        assert!(merged > 0 && split > 0, "{merged} merges, {split} splits");
    }
}

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
//!   transiently on expansion.
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
    bits_for, Layout, LayoutCodec, StateCodec, StateReader, StateWriter, Status, Value,
};

use crate::graph::Node;
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
    values: LayoutCodec,
    crash_bits: u32,
    n: usize,
    table: Vec<P>,
    lookup: HashMap<P, u32>,
    rec_bytes: usize,
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

impl<P: Clone + Eq + Hash> NodeCodec<P> {
    /// Derives the codec from the layout and the root node: the crash
    /// budget's width comes from the root (it only ever decreases).
    fn new(layout: &Layout, root: &Node<P>) -> Self {
        let values = LayoutCodec::new(layout);
        let crash_bits = bits_for(u64::from(root.crashes_left));
        let n = root.procs.len();
        let total_bits = 2 * n + crash_bits as usize + values.encoded_bits() + 32 * n;
        NodeCodec {
            values,
            crash_bits,
            n,
            table: Vec::new(),
            lookup: HashMap::new(),
            rec_bytes: total_bits.div_ceil(8).max(1),
        }
    }

    fn rec_bytes(&self) -> usize {
        self.rec_bytes
    }

    /// Encodes `node`, interning any process local states not seen before
    /// (hence `&mut`). Infallible: used on the insertion path. A local
    /// state already in the table is looked up, never cloned.
    fn encode_mut(&mut self, node: &Node<P>, out: &mut Vec<u8>) {
        let mut w = StateWriter::new();
        self.encode_prefix(node, &mut w);
        for p in &node.procs {
            let slot = match self.lookup.get(p) {
                Some(&slot) => slot,
                None => {
                    let slot = u32::try_from(self.table.len())
                        .expect("more than u32::MAX distinct local states");
                    self.table.push(p.clone());
                    self.lookup.insert(p.clone(), slot);
                    slot
                }
            };
            w.push_bits(u64::from(slot), 32);
        }
        Self::finish_into(w, self.rec_bytes, out);
    }

    /// Encodes `node` without interning: `false` when a local state is
    /// not in the table — which proves the node is absent from the store,
    /// so lookups can treat the failure as "not visited".
    fn try_encode(&self, node: &Node<P>, out: &mut Vec<u8>) -> bool {
        let mut w = StateWriter::new();
        self.encode_prefix(node, &mut w);
        for p in &node.procs {
            let Some(&slot) = self.lookup.get(p) else {
                return false;
            };
            w.push_bits(u64::from(slot), 32);
        }
        Self::finish_into(w, self.rec_bytes, out);
        true
    }

    fn encode_prefix(&self, node: &Node<P>, w: &mut StateWriter) {
        debug_assert_eq!(node.procs.len(), self.n);
        for &s in &node.status {
            w.push_bits(status_tag(s), 2);
        }
        w.push_bits(u64::from(node.crashes_left), self.crash_bits);
        self.values.encode(&node.values, w);
    }

    fn finish_into(w: StateWriter, rec_bytes: usize, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&w.finish());
        out.resize(rec_bytes, 0);
    }

    fn decode(&self, bytes: &[u8]) -> Node<P> {
        let mut r = StateReader::new(bytes);
        let status: Vec<Status> = (0..self.n).map(|_| tag_status(r.take_bits(2))).collect();
        let crashes_left = r.take_bits(self.crash_bits) as u32;
        let values: Vec<Value> = self.values.decode(&mut r);
        let procs: Vec<P> = (0..self.n)
            .map(|_| self.table[r.take_bits(32) as usize].clone())
            .collect();
        Node {
            procs,
            values,
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
/// states go in once (canonically), get a dense `u32` id, and decode
/// transiently on expansion.
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
    scratch: RefCell<Vec<u8>>,
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

impl<P: Clone + Eq + Hash> NodeStore<P> {
    /// Builds a store for states shaped like `root` (which is **not**
    /// inserted). `track_firsts` enables first-visitor identity for the
    /// DFS orbit-merge counter.
    pub(crate) fn new(layout: &Layout, root: &Node<P>, track_firsts: bool) -> Self {
        let codec = NodeCodec::new(layout, root);
        let rec_bytes = codec.rec_bytes();
        NodeStore {
            codec,
            arena: SegArena::new(rec_bytes),
            index: OpenIndex::new(),
            digest,
            scratch: RefCell::new(Vec::new()),
            firsts: track_firsts.then(|| Firsts {
                ids: Vec::new(),
                arena: SegArena::new(rec_bytes),
            }),
            debug_checked: 0,
        }
    }

    /// Whether `key` (already canonical) is stored. `&self`, so traversal
    /// loops can consult it while the engine is mutably borrowed.
    pub(crate) fn contains(&self, key: &Node<P>) -> bool {
        let mut rec = self.scratch.borrow_mut();
        if !self.codec.try_encode(key, &mut rec) {
            // A local state the intern table has never seen: the node
            // cannot be stored.
            return false;
        }
        self.find(&rec).is_some()
    }

    /// Interns `canon`, returning its dense id and whether it was fresh.
    pub(crate) fn intern(&mut self, canon: &Node<P>) -> (u32, bool) {
        let mut rec = self.scratch.borrow_mut();
        self.codec.encode_mut(canon, &mut rec);
        if let Some(id) = self.find(&rec) {
            return (id, false);
        }
        let id = self.arena.push(&rec);
        let (arena, digest) = (&self.arena, self.digest);
        self.index
            .insert(digest(&rec), id, |x| digest(arena.record(x)));
        // Early-insertion decode-back check: `decode(encode(x)) == x` is
        // the injectivity contract everything rests on, so the first
        // insertions of every debug run verify it end to end.
        if cfg!(debug_assertions) && self.debug_checked < 1024 {
            self.debug_checked += 1;
            debug_assert!(
                self.codec.decode(&rec) == *canon,
                "packed store round-trip mismatch: \
                 the codec is not injective for this system"
            );
        }
        (id, true)
    }

    /// Records a visit of the canonical key `canon` reached by the
    /// concrete state `concrete` (pass `None` when canonical and concrete
    /// coincide, i.e. without symmetry reduction). Returns the interned
    /// id of the canonical state (dense, assigned in first-visit order —
    /// the key dynamic reduction's per-state sleep masks are stored
    /// under) alongside the visit classification.
    pub(crate) fn visit(
        &mut self,
        canon: &Node<P>,
        concrete: Option<&Node<P>>,
    ) -> (u32, VisitOutcome) {
        let (id, fresh) = self.intern(canon);
        let Some(Firsts { ids, arena }) = &mut self.firsts else {
            let outcome = if fresh {
                VisitOutcome::Fresh
            } else {
                VisitOutcome::RevisitSame
            };
            return (id, outcome);
        };
        // Encode the concrete visitor; its local states are the same
        // multiset as the canon's (a permutation), so the intern table
        // already covers them.
        let mut rec = self.scratch.borrow_mut();
        let concrete_rec: Option<&[u8]> = match concrete {
            Some(c) => {
                assert!(
                    self.codec.try_encode(c, &mut rec),
                    "concrete visitor uses local states absent from its own orbit"
                );
                Some(&rec)
            }
            None => None,
        };
        let outcome = if fresh {
            debug_assert_eq!(ids.len(), id as usize);
            match concrete_rec {
                Some(c) if c != self.arena.record(id) => ids.push(arena.push(c)),
                _ => ids.push(u32::MAX),
            }
            VisitOutcome::Fresh
        } else {
            let fid = ids[id as usize];
            let stored = if fid == u32::MAX {
                self.arena.record(id)
            } else {
                arena.record(fid)
            };
            let same = match concrete_rec {
                Some(c) => c == stored,
                // No concrete passed: the visitor is the canon itself.
                None => fid == u32::MAX,
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
    use cfc_core::{Op, OpResult, Process, RegisterId, Step};

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

    /// An opaque local state: the store needs only `Clone + Eq + Hash`.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Opaque {
        word: u64,
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
            values: vec![Value::new(a), Value::new(b)],
            status: vec![Status::Running, Status::Done],
            crashes_left: crashes,
        }
    }

    fn store(track_firsts: bool) -> NodeStore<Packable> {
        NodeStore::new(&layout2(), &node([0, 0], 0, 0, 2), track_firsts)
    }

    #[test]
    fn packed_store_interns_each_state_once() {
        let mut s = store(false);
        let x = node([1, 2], 3, 4, 1);
        let y = node([2, 1], 3, 4, 1);
        assert!(!s.contains(&x));
        let (idx, fresh) = s.intern(&x);
        assert!(fresh);
        let (idx2, fresh2) = s.intern(&x);
        assert!(!fresh2);
        assert_eq!(idx, idx2);
        let (idy, fresh3) = s.intern(&y);
        assert!(fresh3);
        assert_ne!(idx, idy);
        assert!(s.contains(&x));
        assert_eq!(s.node(idx), x);
        assert_eq!(s.node(idy), y);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn packed_records_take_their_declared_bit_width() {
        let mut s = store(false);
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
            values: vec![Value::ZERO],
            status: vec![Status::Running; 2],
            crashes_left: 0,
        };
        let mut s = NodeStore::new(&layout, &root, false);
        let x = Node {
            procs: vec![Opaque { word: 7 }, Opaque { word: 9 }],
            ..root.clone()
        };
        // A node with unseen local states is provably absent.
        assert!(!s.contains(&x));
        let (id, fresh) = s.intern(&x);
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
        let (idy, fresh) = s.intern(&y);
        assert!(fresh);
        assert_eq!(s.codec.table.len(), 2);
        assert_eq!(s.node(id), x);
        assert_eq!(s.node(idy), y);
    }

    #[test]
    fn engineered_digest_collision_keeps_distinct_states_fresh() {
        // Two distinct canonical states with an *engineered* equal
        // digest must both intern Fresh and never report a merge: the
        // index resolves collisions by byte comparison, never by hash.
        let mut s = store(true);
        s.digest = |_| 0xdead_beef;
        let x = node([1, 2], 3, 4, 1);
        let y = node([9, 9], 5, 5, 0);
        assert_eq!(s.visit(&x, None), (0, VisitOutcome::Fresh));
        assert_eq!(s.visit(&y, None), (1, VisitOutcome::Fresh));
        assert_eq!(s.visit(&x, None), (0, VisitOutcome::RevisitSame));
        assert_eq!(s.visit(&y, None), (1, VisitOutcome::RevisitSame));
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
        let mut s = store(false);
        let mut model: HashMap<Node<Packable>, u32> = HashMap::new();
        for i in (0..20_000u32).chain(0..20_000) {
            let x = node([(i % 251) as u8, (i / 251) as u8], u64::from(i % 8), 0, 0);
            let fresh_id = model.len() as u32;
            let want = *model.entry(x.clone()).or_insert(fresh_id);
            assert_eq!(s.intern(&x), (want, want == fresh_id));
        }
        assert_eq!(s.len(), model.len());
        assert!(s.arena.segs.len() > 1);
        assert!(s.index_bytes() * 7 <= s.len() as u64 * 64);
    }

    #[test]
    fn visit_tracks_first_concrete_visitor_exactly() {
        let mut s = store(true);
        let canon = node([1, 2], 0, 0, 0);
        let permuted = node([2, 1], 0, 0, 0);
        // First visit by a non-canonical concrete state.
        assert_eq!(s.visit(&canon, Some(&permuted)), (0, VisitOutcome::Fresh));
        // Same concrete again: not a merge.
        assert_eq!(s.visit(&canon, Some(&permuted)), (0, VisitOutcome::RevisitSame));
        // A different concrete sibling: a genuine merge.
        assert_eq!(s.visit(&canon, Some(&canon.clone())), (0, VisitOutcome::RevisitMerged));

        // And a canonical-first orbit: the sentinel path.
        let c2 = node([3, 4], 1, 1, 0);
        let p2 = node([4, 3], 1, 1, 0);
        assert_eq!(s.visit(&c2, Some(&c2.clone())), (1, VisitOutcome::Fresh));
        assert_eq!(s.visit(&c2, Some(&c2.clone())), (1, VisitOutcome::RevisitSame));
        assert_eq!(s.visit(&c2, Some(&p2)), (1, VisitOutcome::RevisitMerged));
    }

    #[test]
    fn visit_without_tracking_reports_fresh_and_same_only() {
        let mut s = store(false);
        let x = node([1, 1], 0, 0, 0);
        assert_eq!(s.visit(&x, None), (0, VisitOutcome::Fresh));
        assert_eq!(s.visit(&x, None), (0, VisitOutcome::RevisitSame));
    }
}

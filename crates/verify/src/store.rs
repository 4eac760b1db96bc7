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
//!   either through the [`cfc_core::Process::pack_state`] hooks (when every
//!   root process supports them) or as 32-bit slots into a side table of
//!   interned distinct local states;
//! * [`SegArena`] — an append-only segmented arena of those records, with
//!   a **spill tier**: once a configured resident-byte budget fills, cold
//!   (oldest, discovery-ordered) full segments move to one temp file and
//!   are read back on demand;
//! * [`NodeStore`] — the visited set / intern table: an open-addressed
//!   digest index ([`crate::index::OpenIndex`], at most 64/7 B/state) maps
//!   a 64-bit hash of the record bytes to record ids, so membership and
//!   interning cost one encode plus a short probe, and node ids decode
//!   transiently on expansion.
//!
//! Round-trip identity of the codec (checked by a construction-time probe
//! and debug assertions on early insertions) makes the encoding
//! injective, so byte-equality of records coincides with `Node` equality:
//! every freshness and interning decision is exactly the one a store of
//! whole `Node`s would make. `tests/packed_equiv.rs` holds the checkers
//! built on this store against a naive `HashMap`-of-states explorer,
//! count for count.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cfc_core::{bits_for, Layout, LayoutCodec, Process, StateCodec, StateReader, StateWriter,
    Status, Value};

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

/// How process local states are encoded.
enum ProcMode<P> {
    /// Every process packs itself via the [`Process::pack_state`] hooks at
    /// a fixed probed width; decoding unpacks onto a clone of the
    /// prototype (sound because the hooks pack all identity, see the
    /// trait contract).
    Hooks { proto: P, bits_per_proc: usize },
    /// Opaque local states interned into a side table; records hold
    /// 32-bit slots. The table grows with the number of *distinct* local
    /// states, not with the number of global states.
    Interned {
        table: Vec<P>,
        lookup: HashMap<P, u32>,
    },
}

/// A fixed-stride codec for whole [`Node`]s.
struct NodeCodec<P> {
    values: LayoutCodec,
    crash_bits: u32,
    n: usize,
    procs: ProcMode<P>,
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

impl<P: Process + Clone + Eq + Hash> NodeCodec<P> {
    /// Derives the codec from the layout and the root node: the crash
    /// budget's width comes from the root (it only ever decreases), and a
    /// probe decides between hook-packed and interned process encoding.
    fn new(layout: &Layout, root: &Node<P>) -> Self {
        let values = LayoutCodec::new(layout);
        let crash_bits = bits_for(u64::from(root.crashes_left));
        let n = root.procs.len();
        let procs = match Self::probe_hooks(root) {
            Some((proto, bits_per_proc)) => ProcMode::Hooks {
                proto,
                bits_per_proc,
            },
            None => ProcMode::Interned {
                table: Vec::new(),
                lookup: HashMap::new(),
            },
        };
        let proc_bits = match &procs {
            ProcMode::Hooks { bits_per_proc, .. } => *bits_per_proc,
            ProcMode::Interned { .. } => 32,
        };
        let total_bits =
            2 * n + crash_bits as usize + values.encoded_bits() + proc_bits * n;
        NodeCodec {
            values,
            crash_bits,
            n,
            procs,
            rec_bytes: total_bits.div_ceil(8).max(1),
        }
    }

    /// Checks whether every root process packs itself at one fixed width
    /// *and* round-trips onto a clone of an arbitrary prototype; any
    /// failure selects the interned fallback.
    fn probe_hooks(root: &Node<P>) -> Option<(P, usize)> {
        let proto = root.procs.first()?.clone();
        let mut width = None;
        for p in &root.procs {
            let mut w = StateWriter::new();
            if !p.pack_state(&mut w) {
                return None;
            }
            match width {
                None => width = Some(w.bit_len()),
                Some(prev) if prev != w.bit_len() => return None,
                Some(_) => {}
            }
            let bytes = w.finish();
            let mut restored = proto.clone();
            let mut r = StateReader::new(&bytes);
            if !restored.unpack_state(&mut r) || restored != *p {
                return None;
            }
        }
        Some((proto, width?))
    }

    fn rec_bytes(&self) -> usize {
        self.rec_bytes
    }

    /// Encodes `node`, interning any process local states not seen before
    /// (hence `&mut`). Infallible: used on the insertion path.
    fn encode_mut(&mut self, node: &Node<P>, out: &mut Vec<u8>) {
        let mut w = StateWriter::new();
        self.encode_prefix(node, &mut w);
        match &mut self.procs {
            ProcMode::Hooks { .. } => {
                for p in &node.procs {
                    assert!(p.pack_state(&mut w), "pack_state regressed mid-run");
                }
            }
            ProcMode::Interned { table, lookup } => {
                for p in &node.procs {
                    let slot = *lookup.entry(p.clone()).or_insert_with(|| {
                        let id = u32::try_from(table.len())
                            .expect("more than u32::MAX distinct local states");
                        table.push(p.clone());
                        id
                    });
                    w.push_bits(u64::from(slot), 32);
                }
            }
        }
        Self::finish_into(w, self.rec_bytes, out);
    }

    /// Encodes `node` without interning: `None` when a local state is not
    /// in the table — which proves the node is absent from the store, so
    /// lookups can treat the failure as "not visited".
    fn try_encode(&self, node: &Node<P>, out: &mut Vec<u8>) -> bool {
        let mut w = StateWriter::new();
        self.encode_prefix(node, &mut w);
        match &self.procs {
            ProcMode::Hooks { .. } => {
                for p in &node.procs {
                    assert!(p.pack_state(&mut w), "pack_state regressed mid-run");
                }
            }
            ProcMode::Interned { lookup, .. } => {
                for p in &node.procs {
                    match lookup.get(p) {
                        Some(&slot) => w.push_bits(u64::from(slot), 32),
                        None => return false,
                    }
                }
            }
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
        let procs: Vec<P> = match &self.procs {
            ProcMode::Hooks { proto, .. } => (0..self.n)
                .map(|_| {
                    let mut p = proto.clone();
                    assert!(p.unpack_state(&mut r), "unpack_state regressed mid-run");
                    p
                })
                .collect(),
            ProcMode::Interned { table, .. } => (0..self.n)
                .map(|_| table[r.take_bits(32) as usize].clone())
                .collect(),
        };
        Node {
            procs,
            values,
            status,
            crashes_left,
        }
    }
}

// ---------------------------------------------------------------------
// Segmented spillable arena.
// ---------------------------------------------------------------------

/// Resident segment size target, in bytes.
const SEG_TARGET: usize = 64 * 1024;

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

enum Seg {
    Resident(Box<[u8]>),
    /// Spilled to the temp file at this byte offset.
    Spilled(u64),
}

/// An append-only arena of fixed-stride records with an optional spill
/// tier: when the resident bytes of *full* segments exceed the budget,
/// the oldest full segments are written sequentially to one temp file
/// (removed on drop) and read back on demand. The partially filled tail
/// segment — the hot end every fresh insertion compares against — never
/// spills.
pub(crate) struct SegArena {
    rec_bytes: usize,
    recs_per_seg: usize,
    len: u32,
    segs: Vec<Seg>,
    /// Index of the oldest still-resident segment (spilling is strictly
    /// front-to-back, so everything before it is spilled).
    first_resident: usize,
    budget: Option<usize>,
    spilled_segs: u64,
    file: RefCell<Option<File>>,
    path: Option<PathBuf>,
    file_len: u64,
}

impl SegArena {
    pub(crate) fn new(rec_bytes: usize, budget: Option<usize>) -> Self {
        SegArena {
            rec_bytes,
            recs_per_seg: (SEG_TARGET / rec_bytes).max(1),
            len: 0,
            segs: Vec::new(),
            first_resident: 0,
            budget,
            spilled_segs: 0,
            file: RefCell::new(None),
            path: None,
            file_len: 0,
        }
    }

    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// Total payload bytes ever appended (resident + spilled).
    pub(crate) fn payload_bytes(&self) -> u64 {
        u64::from(self.len) * self.rec_bytes as u64
    }

    pub(crate) fn spilled_segs(&self) -> u64 {
        self.spilled_segs
    }

    pub(crate) fn push(&mut self, record: &[u8]) -> u32 {
        debug_assert_eq!(record.len(), self.rec_bytes);
        let id = self.len;
        assert!(id != u32::MAX, "arena full (u32::MAX records)");
        let slot = id as usize % self.recs_per_seg;
        if slot == 0 {
            self.segs
                .push(Seg::Resident(vec![0u8; self.recs_per_seg * self.rec_bytes].into()));
            self.maybe_spill();
        }
        match self.segs.last_mut().expect("segment pushed above") {
            Seg::Resident(buf) => {
                buf[slot * self.rec_bytes..(slot + 1) * self.rec_bytes].copy_from_slice(record);
            }
            Seg::Spilled(_) => unreachable!("the tail segment never spills"),
        }
        self.len = id + 1;
        id
    }

    /// Copies record `id` into `buf` (reading through the spill file for
    /// cold segments).
    fn read_into(&self, id: u32, buf: &mut Vec<u8>) {
        debug_assert!(id < self.len);
        let seg = id as usize / self.recs_per_seg;
        let off = (id as usize % self.recs_per_seg) * self.rec_bytes;
        buf.clear();
        match &self.segs[seg] {
            Seg::Resident(bytes) => buf.extend_from_slice(&bytes[off..off + self.rec_bytes]),
            Seg::Spilled(file_off) => {
                buf.resize(self.rec_bytes, 0);
                let mut file = self.file.borrow_mut();
                let f = file.as_mut().expect("spilled segment implies a file");
                f.seek(SeekFrom::Start(file_off + off as u64))
                    .expect("seek spill file");
                f.read_exact(buf).expect("read spill file");
            }
        }
    }

    /// Applies `f` to record `id`'s bytes: borrowed in place for
    /// resident segments (the hot path — no copy), bounced through the
    /// `probe` scratch buffer for spilled ones. This is what keeps the
    /// open index's probe runs cheap: each occupied slot on the path
    /// costs one in-place compare, not a buffer copy.
    pub(crate) fn with_record<R>(
        &self,
        id: u32,
        probe: &RefCell<Vec<u8>>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        debug_assert!(id < self.len);
        let seg = id as usize / self.recs_per_seg;
        let off = (id as usize % self.recs_per_seg) * self.rec_bytes;
        match &self.segs[seg] {
            Seg::Resident(bytes) => f(&bytes[off..off + self.rec_bytes]),
            Seg::Spilled(_) => {
                let mut buf = probe.borrow_mut();
                self.read_into(id, &mut buf);
                f(&buf)
            }
        }
    }

    /// Spills the oldest full resident segments until the resident bytes
    /// of full segments fit the budget.
    fn maybe_spill(&mut self) {
        let Some(budget) = self.budget else { return };
        let seg_bytes = self.recs_per_seg * self.rec_bytes;
        // The last segment is the (empty, just pushed) tail; only the
        // full segments before it are spill candidates.
        let full = self.segs.len() - 1;
        while full.saturating_sub(self.first_resident) * seg_bytes > budget
            && self.first_resident < full
        {
            let victim = self.first_resident;
            let Seg::Resident(bytes) = &self.segs[victim] else {
                unreachable!("first_resident points at a resident segment");
            };
            let offset = self.file_len;
            {
                let mut file = self.file.borrow_mut();
                if file.is_none() {
                    let path = spill_path();
                    let f = OpenOptions::new()
                        .create_new(true)
                        .read(true)
                        .write(true)
                        .open(&path)
                        .expect("create spill file");
                    self.path = Some(path);
                    *file = Some(f);
                }
                let f = file.as_mut().expect("spill file opened above");
                f.seek(SeekFrom::Start(offset)).expect("seek spill file");
                f.write_all(bytes).expect("write spill file");
            }
            self.file_len = offset + seg_bytes as u64;
            self.segs[victim] = Seg::Spilled(offset);
            self.first_resident = victim + 1;
            self.spilled_segs += 1;
        }
    }
}

fn spill_path() -> PathBuf {
    let n = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "cfc-visited-{}-{n}.spill",
        std::process::id()
    ))
}

impl Drop for SegArena {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            self.file.borrow_mut().take();
            let _ = std::fs::remove_file(path);
        }
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
    /// Read scratch for probes through possibly-spilled records.
    probe: RefCell<Vec<u8>>,
    firsts: Option<Firsts>,
    debug_checked: u32,
}

impl<P> std::fmt::Debug for NodeStore<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeStore")
            .field("len", &self.len())
            .field("arena_bytes", &self.arena_bytes())
            .field("spilled_buckets", &self.spilled_buckets())
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

    /// Arena segments written to the spill tier so far (0 without a
    /// budget).
    pub(crate) fn spilled_buckets(&self) -> u64 {
        self.arena.spilled_segs() + self.firsts.as_ref().map_or(0, |f| f.arena.spilled_segs())
    }

    /// Heap bytes held by the digest index's slot array.
    pub(crate) fn index_bytes(&self) -> u64 {
        self.index.heap_bytes()
    }

    /// Finds the id of the record byte-equal to `rec`, if stored.
    fn find(&self, rec: &[u8]) -> Option<u32> {
        self.index.find((self.digest)(rec), |id| {
            self.arena.with_record(id, &self.probe, |bytes| bytes == rec)
        })
    }
}

impl<P: Process + Clone + Eq + Hash> NodeStore<P> {
    /// Builds a store for states shaped like `root` (which is **not**
    /// inserted). `track_firsts` enables first-visitor identity for the
    /// DFS orbit-merge counter; `spill_budget` bounds resident arena
    /// bytes (`None`: never spill).
    pub(crate) fn new(
        spill_budget: Option<usize>,
        layout: &Layout,
        root: &Node<P>,
        track_firsts: bool,
    ) -> Self {
        let codec = NodeCodec::new(layout, root);
        let rec_bytes = codec.rec_bytes();
        NodeStore {
            codec,
            arena: SegArena::new(rec_bytes, spill_budget),
            index: OpenIndex::new(),
            digest,
            scratch: RefCell::new(Vec::new()),
            probe: RefCell::new(Vec::new()),
            firsts: track_firsts.then(|| Firsts {
                ids: Vec::new(),
                arena: SegArena::new(rec_bytes, spill_budget),
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
    pub(crate) fn intern(&mut self, canon: Node<P>) -> (u32, bool) {
        let mut rec = self.scratch.borrow_mut();
        self.codec.encode_mut(&canon, &mut rec);
        if let Some(id) = self.find(&rec) {
            return (id, false);
        }
        let id = self.arena.push(&rec);
        let (arena, probe, digest) = (&self.arena, &self.probe, self.digest);
        self.index
            .insert(digest(&rec), id, |x| arena.with_record(x, probe, digest));
        // Early-insertion decode-back check: `decode(encode(x)) == x` is
        // the injectivity contract everything rests on, so the first
        // insertions of every debug run verify it end to end.
        if cfg!(debug_assertions) && self.debug_checked < 1024 {
            self.debug_checked += 1;
            debug_assert!(
                self.codec.decode(&rec) == canon,
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
        let (id, fresh) = self.intern(canon.clone());
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
        let mut stored = self.probe.borrow_mut();
        let outcome = if fresh {
            debug_assert_eq!(ids.len(), id as usize);
            self.arena.read_into(id, &mut stored);
            match concrete_rec {
                Some(c) if c != stored.as_slice() => ids.push(arena.push(c)),
                _ => ids.push(u32::MAX),
            }
            VisitOutcome::Fresh
        } else {
            let fid = ids[id as usize];
            if fid == u32::MAX {
                self.arena.read_into(id, &mut stored);
            } else {
                arena.read_into(fid, &mut stored);
            }
            let same = match concrete_rec {
                Some(c) => c == stored.as_slice(),
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
        let mut rec = self.probe.borrow_mut();
        self.arena.read_into(id, &mut rec);
        self.codec.decode(&rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::{Op, OpResult, RegisterId, Step};

    /// A minimal packable process: one counter, hook-encoded in 8 bits.
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
        fn unpack_state(&mut self, r: &mut StateReader<'_>) -> bool {
            self.count = r.take_bits(8) as u8;
            true
        }
    }

    /// An opaque process (no hooks): forces the interned fallback.
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

    fn store(budget: Option<usize>, track_firsts: bool) -> NodeStore<Packable> {
        NodeStore::new(budget, &layout2(), &node([0, 0], 0, 0, 2), track_firsts)
    }

    #[test]
    fn packed_store_interns_each_state_once() {
        let mut s = store(None, false);
        let x = node([1, 2], 3, 4, 1);
        let y = node([2, 1], 3, 4, 1);
        assert!(!s.contains(&x));
        let (idx, fresh) = s.intern(x.clone());
        assert!(fresh);
        let (idx2, fresh2) = s.intern(x.clone());
        assert!(!fresh2);
        assert_eq!(idx, idx2);
        let (idy, fresh3) = s.intern(y.clone());
        assert!(fresh3);
        assert_ne!(idx, idy);
        assert!(s.contains(&x));
        assert_eq!(s.node(idx), x);
        assert_eq!(s.node(idy), y);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn packed_records_take_their_declared_bit_width() {
        let mut s = store(None, false);
        for c in 0..100u8 {
            s.intern(node([c, c], 1, 2, 0));
        }
        // 2 statuses (4b) + crash (2b) + values (8b) + 2 hook procs
        // (16b) = 30 bits -> 4 bytes/record.
        assert_eq!(s.arena_bytes(), 100 * 4);
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
        let mut s = NodeStore::new(None, &layout, &root, false);
        let x = Node {
            procs: vec![Opaque { word: 7 }, Opaque { word: 9 }],
            ..root.clone()
        };
        // A node with unseen local states is provably absent.
        assert!(!s.contains(&x));
        let (id, fresh) = s.intern(x.clone());
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
    }

    #[test]
    fn spill_tier_keeps_lookups_exact() {
        // A budget of one segment forces everything but the tail to
        // disk; the index must probe spilled records exactly.
        let mut s = store(Some(SEG_TARGET), false);
        let mut ids = Vec::new();
        // Enough records to fill several 64 KiB segments (4-byte
        // records, 16384 per segment).
        for i in 0..60_000u32 {
            let x = node(
                [(i % 251) as u8, (i / 251) as u8],
                u64::from(i % 8),
                u64::from(i % 32),
                i % 3,
            );
            let (id, fresh) = s.intern(x);
            assert!(fresh, "all states distinct");
            ids.push(id);
        }
        assert!(s.spilled_buckets() > 0, "budget must have forced spills");
        // Reads and membership still hit spilled records exactly.
        let probe = node([77, 0], u64::from(77u32 % 8), u64::from(77u32 % 32), 77 % 3);
        assert!(s.contains(&probe));
        let (_, fresh) = s.intern(probe);
        assert!(!fresh, "reinterning a spilled state must dedupe");
        assert_eq!(s.len(), 60_000);
        let decoded = s.node(ids[123]);
        assert_eq!(decoded.values[0], Value::new(123 % 8));
    }

    #[test]
    fn engineered_digest_collision_keeps_distinct_states_fresh() {
        // Two distinct canonical states with an *engineered* equal
        // digest must both intern Fresh and never report a merge: the
        // index resolves collisions by byte comparison, never by hash.
        let mut s = store(None, true);
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
        // index doublings; ids must be the dense first-insertion order a
        // plain `HashMap` assigns, and the index must stay within its
        // 7/8-load-factor envelope of 64/7 bytes per state.
        let mut s = store(None, false);
        let mut model: HashMap<Node<Packable>, u32> = HashMap::new();
        for i in (0..3_000u32).chain(0..3_000) {
            let x = node([(i % 251) as u8, (i / 251) as u8], u64::from(i % 8), 0, 0);
            let fresh_id = model.len() as u32;
            let want = *model.entry(x.clone()).or_insert(fresh_id);
            assert_eq!(s.intern(x), (want, want == fresh_id));
        }
        assert_eq!(s.len(), model.len());
        assert!(s.index_bytes() * 7 <= s.len() as u64 * 64);
    }

    #[test]
    fn visit_tracks_first_concrete_visitor_exactly() {
        let mut s = store(None, true);
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
        let mut s = store(None, false);
        let x = node([1, 1], 0, 0, 0);
        assert_eq!(s.visit(&x, None), (0, VisitOutcome::Fresh));
        assert_eq!(s.visit(&x, None), (0, VisitOutcome::RevisitSame));
    }
}

//! CSR-style edge storage for explored state graphs.
//!
//! The BFS drivers historically kept forward edges as `Vec<Vec<GEdge>>`
//! — one heap allocation (24-byte spine + capacity slack) per node plus
//! 16 bytes per edge, which dwarfs the packed state arena itself at
//! liveness/progress scale. [`EdgeArena`] flattens that into compressed
//! sparse row form: one offsets array (4 B/node) plus one stream of
//! packed 6-byte edge records held in the same segmented arena as the
//! states (see `crate::store`).
//!
//! The BFS driver only ever appends edges at its current cursor node and
//! never retroactively, so CSR builds online: [`EdgeArena::push`]
//! appends to the open node, [`EdgeArena::seal`] closes it when the
//! cursor advances. [`EdgeArena::reversed`] derives the predecessor
//! adjacency as a counting-sort CSR pass whose per-node order is exactly
//! the order a nested-Vec reversal would produce (ascending source, then
//! source-local edge order) — in particular, the **first predecessor of
//! every non-root node is its creator**, which progress-schedule
//! reconstruction depends on (`tests/prop_index.rs` pins the order
//! against a nested-Vec reference).

use crate::store::SegArena;

/// One labeled forward edge of an explored state graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GEdge {
    /// Successor node id.
    pub to: u32,
    /// The process that stepped (or crashed). At most 14 bits — process
    /// counts are tiny, and the packed record stores it alongside the
    /// two flag bits in one u16.
    pub pid: u32,
    /// Whether this edge is a crash transition.
    pub crash: bool,
    /// Whether the stepping process received service across this edge.
    pub served: bool,
}

/// Packed record stride: 4 bytes of `to` + one u16 of `pid | crash<<14 |
/// served<<15`.
const EDGE_BYTES: usize = 6;
const PID_BITS: u32 = 14;

fn encode(e: GEdge, out: &mut [u8; EDGE_BYTES]) {
    assert!(
        e.pid < (1 << PID_BITS),
        "pid {} exceeds the 14-bit edge field",
        e.pid
    );
    out[..4].copy_from_slice(&e.to.to_le_bytes());
    let tag = (e.pid as u16) | (u16::from(e.crash) << 14) | (u16::from(e.served) << 15);
    out[4..].copy_from_slice(&tag.to_le_bytes());
}

fn decode(bytes: &[u8]) -> GEdge {
    let to = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte to field"));
    let tag = u16::from_le_bytes(bytes[4..].try_into().expect("2-byte tag field"));
    GEdge {
        to,
        pid: u32::from(tag & ((1 << PID_BITS) - 1)),
        crash: tag & (1 << 14) != 0,
        served: tag & (1 << 15) != 0,
    }
}

/// Forward edges of a state graph in online-built CSR form: an offsets
/// array over a packed edge-record arena (see the [module docs](self)).
pub struct EdgeArena {
    arena: SegArena,
    /// `offsets[v]..offsets[v + 1]` is sealed node `v`'s record range;
    /// the last entry is the running total, i.e. the open node's start.
    offsets: Vec<u32>,
}

impl std::fmt::Debug for EdgeArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeArena")
            .field("nodes", &self.nodes())
            .field("edges", &self.total_edges())
            .finish()
    }
}

impl Default for EdgeArena {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        EdgeArena {
            arena: SegArena::new(EDGE_BYTES),
            offsets: vec![0],
        }
    }

    /// The number of sealed nodes.
    pub fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total recorded edges (sealed and open).
    pub fn total_edges(&self) -> usize {
        self.arena.len() as usize
    }

    /// Appends an edge to the currently open node — the node the next
    /// [`seal`](Self::seal) closes. The BFS cursor discipline (edges are
    /// recorded only at the cursor, nodes seal in cursor order) is what
    /// makes online CSR construction valid.
    pub fn push(&mut self, e: GEdge) {
        let mut rec = [0u8; EDGE_BYTES];
        encode(e, &mut rec);
        self.arena.push(&rec);
    }

    /// Closes the open node's record range and opens the next node's.
    pub fn seal(&mut self) {
        self.offsets.push(self.arena.len());
    }

    /// The out-degree of sealed node `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Decodes the `i`-th edge of sealed node `v` (in recording order).
    pub fn edge(&self, v: usize, i: usize) -> GEdge {
        debug_assert!(i < self.degree(v));
        decode(self.arena.record(self.offsets[v] + i as u32))
    }

    /// Iterates sealed node `v`'s edges in recording order.
    pub fn edges(&self, v: usize) -> impl Iterator<Item = GEdge> + '_ {
        (0..self.degree(v)).map(move |i| self.edge(v, i))
    }

    /// Bytes attributable to the edge structure: packed record payload
    /// plus the offsets array.
    pub fn heap_bytes(&self) -> u64 {
        self.arena.payload_bytes() + (self.offsets.len() * std::mem::size_of::<u32>()) as u64
    }

    /// The reversed adjacency over `nodes` nodes (every edge target must
    /// be below `nodes`; nodes past the sealed count simply have no
    /// outgoing edges), built by counting sort: count in-degrees, prefix
    /// sum, then replay every forward edge in (ascending source,
    /// recording order) — which lands each node's predecessors in
    /// exactly the order a nested-Vec reversal would push them, creator
    /// first.
    pub fn reversed(&self, nodes: usize) -> ReversedCsr {
        let mut offsets = vec![0u32; nodes + 1];
        for v in 0..self.nodes() {
            for e in self.edges(v) {
                offsets[e.to as usize + 1] += 1;
            }
        }
        for i in 0..nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut preds = vec![0u32; self.total_edges()];
        for v in 0..self.nodes() {
            for e in self.edges(v) {
                let slot = &mut cursor[e.to as usize];
                preds[*slot as usize] = v as u32;
                *slot += 1;
            }
        }
        ReversedCsr { offsets, preds }
    }
}

/// The predecessor adjacency of an [`EdgeArena`], as two flat arrays
/// (offsets + packed predecessor ids) — the replacement for the
/// historical per-call `Vec<Vec<u32>>` reversal. The progress checker
/// builds it once per check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReversedCsr {
    offsets: Vec<u32>,
    preds: Vec<u32>,
}

impl ReversedCsr {
    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node `v`'s predecessors, in ascending discovery order of the
    /// predecessor (the first entry of a non-root node is its creator).
    pub fn preds(&self, v: usize) -> &[u32] {
        &self.preds[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(to: u32, pid: u32, crash: bool, served: bool) -> GEdge {
        GEdge {
            to,
            pid,
            crash,
            served,
        }
    }

    #[test]
    fn records_round_trip_all_fields() {
        let cases = [
            edge(0, 0, false, false),
            edge(u32::MAX - 1, (1 << PID_BITS) - 1, true, true),
            edge(7, 3, true, false),
            edge(42, 11, false, true),
        ];
        // Enough edges on one node to fill several arena segments (6-byte
        // records, 10922 per segment).
        let n = 30_000;
        let mut a = EdgeArena::new();
        for &e in cases.iter().cycle().take(n) {
            a.push(e);
        }
        a.seal();
        for (i, &e) in cases.iter().cycle().take(n).enumerate() {
            assert_eq!(a.edge(0, i), e);
        }
        assert_eq!(a.degree(0), n);
    }

    #[test]
    #[should_panic(expected = "14-bit edge field")]
    fn oversized_pid_is_rejected() {
        EdgeArena::new().push(edge(0, 1 << PID_BITS, false, false));
    }

    #[test]
    fn reversal_orders_predecessors_by_source_then_recording_order() {
        // Node 0 -> {1, 2}, node 1 -> {2, 2}, node 2 -> {0}.
        let mut a = EdgeArena::new();
        a.push(edge(1, 0, false, false));
        a.push(edge(2, 1, false, false));
        a.seal();
        a.push(edge(2, 0, false, false));
        a.push(edge(2, 1, false, true));
        a.seal();
        a.push(edge(0, 0, false, false));
        a.seal();
        let rev = a.reversed(3);
        assert_eq!(rev.preds(0), &[2]);
        assert_eq!(rev.preds(1), &[0]);
        assert_eq!(rev.preds(2), &[0, 1, 1]);
    }
}

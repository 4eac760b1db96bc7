//! Property tests for the two new storage structures of the packed
//! visited set:
//!
//! * [`OpenIndex`] against a `HashMap` interning model, over random
//!   insert/probe sequences whose digest functions are deliberately
//!   lossy (forced collisions) and whose lengths cross several growth
//!   boundaries — every probe must intern each distinct value exactly
//!   once and return the id the model predicts;
//! * the CSR edge arena's [`reversed`](cfc::verify::csr::EdgeArena::reversed)
//!   pass against a nested-`Vec` reversal reference on random graphs —
//!   the per-node predecessor *order* must match exactly (ascending
//!   source, then recording order), which is the creator-first guarantee
//!   progress-schedule reconstruction depends on.

use std::collections::HashMap;

use cfc::verify::csr::{EdgeArena, GEdge};
use cfc::verify::OpenIndex;
use proptest::prelude::*;

/// Interns `values` through an [`OpenIndex`] (digesting with `digest`)
/// and through a `HashMap` model side by side, asserting agreement on
/// every probe.
fn check_against_model(values: &[u64], digest: impl Fn(u64) -> u64) {
    let mut index = OpenIndex::new();
    let mut records: Vec<u64> = Vec::new();
    let mut model: HashMap<u64, u32> = HashMap::new();
    for &v in values {
        let found = index.find(digest(v), |id| records[id as usize] == v);
        assert_eq!(
            found,
            model.get(&v).copied(),
            "probe for {v} disagrees with the model (len {})",
            records.len()
        );
        if found.is_none() {
            let id = records.len() as u32;
            records.push(v);
            index.insert(digest(v), id, |x| digest(records[x as usize]));
            model.insert(v, id);
        }
    }
    assert_eq!(index.len(), model.len(), "intern counts diverged");
    // Re-probe everything after all growths settled.
    for (&v, &id) in &model {
        assert_eq!(
            index.find(digest(v), |x| records[x as usize] == v),
            Some(id),
            "value {v} lost after growth"
        );
    }
    // The 7/8 load-factor invariant, byte-accounted.
    assert!(index.len() * 8 <= index.capacity() * 7);
    assert_eq!(index.heap_bytes(), (index.capacity() * 4) as u64);
}

/// Builds an [`EdgeArena`] and the nested-`Vec` reference adjacency
/// from the same (source-sorted) edge list.
fn build_both(nodes: usize, sorted: &[(usize, GEdge)]) -> (EdgeArena, Vec<Vec<GEdge>>) {
    let mut arena = EdgeArena::new();
    let mut nested: Vec<Vec<GEdge>> = vec![Vec::new(); nodes];
    let mut cursor = 0usize;
    for &(src, e) in sorted {
        while cursor < src {
            arena.seal();
            cursor += 1;
        }
        arena.push(e);
        nested[src].push(e);
    }
    while cursor < nodes {
        arena.seal();
        cursor += 1;
    }
    (arena, nested)
}

/// The reference reversal: push predecessors in ascending source order,
/// then per-source recording order — exactly what the historical
/// `Vec<Vec<u32>>` pass produced.
fn reference_reversed(nodes: usize, nested: &[Vec<GEdge>]) -> Vec<Vec<u32>> {
    let mut rev = vec![Vec::new(); nodes];
    for (src, out) in nested.iter().enumerate() {
        for e in out {
            rev[e.to as usize].push(src as u32);
        }
    }
    rev
}

const NODES: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random values from a small universe, digested by a modulus small
    /// enough to force heavy collisions (`modulus == 1` makes every
    /// digest identical): the open table must still intern by content,
    /// exactly like the HashMap model keyed on the value itself.
    #[test]
    fn open_index_matches_a_hashmap_model(
        values in prop::collection::vec(0u64..400, 0..700),
        modulus in 1u64..32,
    ) {
        check_against_model(&values, |v| v % modulus);
    }

    /// An identity digest (no collisions beyond table-size aliasing) and
    /// value counts straddling the 64→128→256→512 growth boundaries.
    #[test]
    fn open_index_survives_growth_boundaries(extra in 0usize..10, offset in 0u64..1000) {
        // 56 = 64 * 7/8: the first insert that would exceed the load
        // factor triggers the first doubling; +extra walks the boundary.
        let n = 56 + extra;
        let values: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9) + offset).collect();
        check_against_model(&values, |v| v);
    }

    /// Random DAG-shaped-or-not edge lists over a fixed node count: the
    /// CSR arena must round-trip every edge in recording order, and its
    /// counting-sort reversal must equal the nested-Vec reference
    /// element for element — order included.
    #[test]
    fn csr_reversal_matches_the_nested_vec_reference(
        raw in prop::collection::vec(
            (0usize..NODES, 0u32..NODES as u32, 0u32..8, any::<bool>(), any::<bool>()),
            0..120,
        ),
    ) {
        // The arena's cursor discipline needs edges grouped by ascending
        // source; a stable sort preserves per-source recording order.
        let mut sorted: Vec<(usize, GEdge)> = raw
            .iter()
            .map(|&(src, to, pid, crash, served)| (src, GEdge { to, pid, crash, served }))
            .collect();
        sorted.sort_by_key(|&(src, _)| src);

        let (arena, nested) = build_both(NODES, &sorted);
        prop_assert_eq!(arena.nodes(), NODES);
        for (v, out) in nested.iter().enumerate() {
            prop_assert_eq!(arena.degree(v), out.len());
            let decoded: Vec<GEdge> = arena.edges(v).collect();
            prop_assert_eq!(&decoded, out, "node {} round-trip", v);
        }
        let rev = arena.reversed(NODES);
        let reference = reference_reversed(NODES, &nested);
        for (v, preds) in reference.iter().enumerate() {
            prop_assert_eq!(rev.preds(v), preds.as_slice(), "node {} predecessor order", v);
        }
    }
}

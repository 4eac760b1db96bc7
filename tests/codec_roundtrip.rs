//! Property tests for the packed state codec that backs the arena
//! visited store (`cfc-verify/src/store.rs`): the store substitutes
//! byte-equality for state equality, which is sound only if encoding is
//! **injective** on the states that actually occur. These suites pin the
//! two halves of that argument:
//!
//! * `LayoutCodec` (the memory-image half, used for every family) is a
//!   lossless fixed-width round trip over the register layouts of every
//!   algorithm family in the repo;
//! * the `pack_state`/`unpack_state` fast-path hooks (the process half,
//!   implemented by the Peterson and bakery clients) reconstruct the
//!   exact process — identity fields included — from the bytes alone,
//!   for states sampled by random walks of the real executor;
//! * a full pack round trip leaves the symmetry-reduced explorer's
//!   canonical key unchanged, so the packed store agrees with plain
//!   state equality on which states are "the same" (the oracle matrix's
//!   reference explorer checks the resulting counts end to end).

mod common;

use cfc::core::{
    mask, Executor, Layout, LayoutCodec, Process, ProcessId, StateCodec, StateReader, StateWriter,
    SymmetryGroup, Value,
};
use cfc::mutex::{
    Bakery, DetectionAlgorithm, MutexAlgorithm, MutexClient, PetersonTwo, Splitter, Tournament,
};
use cfc::naming::{NamingAlgorithm, TafTree, TasScan};
use cfc::verify::canonical_key;
use proptest::prelude::*;

/// One representative register layout per algorithm family.
fn family_layout(k: usize) -> Layout {
    match k {
        0 => MutexAlgorithm::layout(&PetersonTwo::new()),
        1 => MutexAlgorithm::layout(&Bakery::new(3)),
        2 => MutexAlgorithm::layout(&Tournament::new(5, 1)),
        3 => NamingAlgorithm::layout(&TasScan::new(4)),
        4 => NamingAlgorithm::layout(&TafTree::new(4).unwrap()),
        _ => DetectionAlgorithm::layout(&Splitter::new(3)),
    }
}

/// Drives a mutex system along a pseudo-random schedule and returns the
/// executor mid-flight, so packing is tested on genuinely reachable
/// states (entry spins, held locks, exit protocols) rather than just the
/// initial configuration.
fn random_walk<A>(alg: &A, trips: u32, picks: &[usize]) -> Executor<MutexClient<A::Lock>>
where
    A: MutexAlgorithm,
{
    let clients = (0..alg.n() as u32)
        .map(|i| alg.client(ProcessId::new(i), trips))
        .collect();
    let mut exec = Executor::new(alg.memory().unwrap(), clients);
    for &p in picks {
        let runnable = exec.runnable();
        if runnable.is_empty() {
            break;
        }
        exec.step_process(runnable[p % runnable.len()]).unwrap();
    }
    exec
}

/// Packs every client of a walked system and unpacks it onto a *fresh
/// client of a different participant*: every field, the process identity
/// included, must be reconstructed from the bytes alone, and the reader
/// must consume exactly the bits the writer produced (the fixed-stride
/// arena depends on that).
fn assert_pack_round_trip<A>(alg: &A, trips: u32, picks: &[usize])
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let exec = random_walk(alg, trips, picks);
    for i in 0..alg.n() {
        let orig = exec.process(ProcessId::new(i as u32));
        let mut w = StateWriter::new();
        assert!(orig.pack_state(&mut w), "client {i} must take the packed fast path");
        let bits = w.bit_len();
        let bytes = w.finish();
        let other = ProcessId::new(((i + 1) % alg.n()) as u32);
        let mut decoded = alg.client(other, trips);
        let mut r = StateReader::new(&bytes);
        assert!(decoded.unpack_state(&mut r), "unpack must accept its own encoding");
        assert_eq!(r.bit_pos(), bits, "unpack must consume exactly the packed bits");
        assert_eq!(&decoded, orig, "client {i} did not survive the round trip");
    }
}

/// A full pack round trip of every process must leave the canonical key
/// unchanged — the invariant that lets the packed visited set stand in
/// for whole states without changing which states the explorer merges.
fn assert_canonical_key_stable<A>(alg: &A, trips: u32, picks: &[usize])
where
    A: MutexAlgorithm,
    A::Lock: Clone + Eq + std::hash::Hash,
{
    let exec = random_walk(alg, trips, picks);
    let group = SymmetryGroup::trivial(alg.n());
    let pids: Vec<ProcessId> = (0..alg.n() as u32).map(ProcessId::new).collect();
    let status: Vec<_> = pids.iter().map(|&p| exec.status(p)).collect();
    let procs: Vec<_> = pids.iter().map(|&p| exec.process(p).clone()).collect();
    let before = canonical_key(&procs, &status, exec.memory(), &group);
    let rebuilt: Vec<_> = procs
        .iter()
        .map(|p| {
            let mut w = StateWriter::new();
            assert!(p.pack_state(&mut w));
            let bytes = w.finish();
            let mut q = alg.client(ProcessId::new(0), trips);
            let mut r = StateReader::new(&bytes);
            assert!(q.unpack_state(&mut r));
            q
        })
        .collect();
    let after = canonical_key(&rebuilt, &status, exec.memory(), &group);
    assert_eq!(before, after, "canonical key changed under a pack round trip");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `LayoutCodec` is exact and lossless over every family's layout:
    /// encoding emits exactly `encoded_bits()`, decoding consumes exactly
    /// that many, and the values come back untouched.
    #[test]
    fn layout_codec_round_trips_fitting_values(
        family in 0usize..6,
        seeds in prop::collection::vec(0u64..u64::MAX, 1..8),
    ) {
        let layout = family_layout(family);
        let codec = LayoutCodec::new(&layout);
        let values: Vec<Value> = codec
            .widths()
            .iter()
            .enumerate()
            .map(|(i, &w)| Value::new(seeds[i % seeds.len()] & mask(w)))
            .collect();
        let mut w = StateWriter::new();
        codec.encode(&values, &mut w);
        prop_assert_eq!(w.bit_len(), codec.encoded_bits());
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        let decoded = codec.decode(&mut r);
        prop_assert_eq!(r.bit_pos(), codec.encoded_bits());
        prop_assert_eq!(decoded, values);
    }

    /// Reachable Peterson and bakery client states survive the packed
    /// fast path exactly.
    #[test]
    fn reachable_mutex_states_pack_round_trip(
        family in 0usize..2,
        picks in prop::collection::vec(0usize..16, 0..48),
    ) {
        match family {
            0 => assert_pack_round_trip(&PetersonTwo::new(), 2, &picks),
            _ => assert_pack_round_trip(&Bakery::new(2), 1, &picks),
        }
    }

    /// The canonical key the symmetry-reduced explorer deduplicates on
    /// is invariant under the pack round trip.
    #[test]
    fn canonical_key_is_stable_under_pack_round_trip(
        family in 0usize..2,
        picks in prop::collection::vec(0usize..16, 0..48),
    ) {
        match family {
            0 => assert_canonical_key_stable(&PetersonTwo::new(), 2, &picks),
            _ => assert_canonical_key_stable(&Bakery::new(2), 1, &picks),
        }
    }
}

/// Tournament clients hold per-node register handles that differ between
/// participants, so they must *decline* the packed fast path (returning
/// `false`) rather than emit an ambiguous encoding; the store's probe
/// then falls back to interning the process states.
#[test]
fn tournament_clients_decline_the_packed_fast_path() {
    let alg = Tournament::new(3, 1);
    let client = alg.client(ProcessId::new(0), 1);
    let mut w = StateWriter::new();
    assert!(!client.pack_state(&mut w));
}

/// Naming walkers never implemented the hooks, so the `Process` default
/// (decline) applies — the interned fallback is what the differential
/// suite exercises for them.
#[test]
fn naming_walkers_decline_the_packed_fast_path() {
    let walker = TasScan::new(3).process();
    let mut w = StateWriter::new();
    assert!(!walker.pack_state(&mut w));
    assert_eq!(w.bit_len(), 0);
}

//! Property tests for the packed state codec that backs the arena
//! visited store (`cfc-verify/src/store.rs`): the store substitutes
//! byte-equality for state equality, which is sound only if encoding is
//! **injective** on the states that actually occur. The store's record
//! has two halves:
//!
//! * the memory image, encoded by `LayoutCodec` for every family. These
//!   suites pin it as a lossless fixed-width round trip over the register
//!   layouts of every algorithm family in the repo;
//! * the process local states, which the store interns into a side table
//!   of 32-bit slots, one encoding for every family. No algorithm packs
//!   its own state, so the tests below pin that the real clients decline
//!   the inert `Process::pack_state` default; the oracle matrix's
//!   reference explorer checks the store's counts end to end.

use cfc::core::{
    mask, Layout, LayoutCodec, Process, ProcessId, StateCodec, StateReader, StateWriter, Value,
};
use cfc::mutex::{Bakery, DetectionAlgorithm, MutexAlgorithm, PetersonTwo, Splitter, Tournament};
use cfc::naming::{NamingAlgorithm, TafTree, TasScan};
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
}

/// Tournament clients hold per-node register handles that differ between
/// participants; they keep the `Process::pack_state` default and decline
/// (returning `false`). The store interns their local states like every
/// other family's.
#[test]
fn tournament_clients_decline_the_packed_fast_path() {
    let alg = Tournament::new(3, 1);
    let client = alg.client(ProcessId::new(0), 1);
    let mut w = StateWriter::new();
    assert!(!client.pack_state(&mut w));
}

/// Naming walkers keep the `Process::pack_state` default too: they
/// decline and write nothing.
#[test]
fn naming_walkers_decline_the_packed_fast_path() {
    let walker = TasScan::new(3).process();
    let mut w = StateWriter::new();
    assert!(!walker.pack_state(&mut w));
    assert_eq!(w.bit_len(), 0);
}

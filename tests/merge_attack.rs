//! E10: the Lemma 2 machinery, end to end. Correct detectors satisfy the
//! lemma's condition on every pair (so the merge cannot be built); the
//! broken constant detector is actually merged into a two-winner run.
//!
//! Everything here is deterministic and time-bounded by construction: the
//! attack schedule is derived from solo profiles (no RNG anywhere), and
//! `merge_attack` carries an internal step guard that turns a
//! non-terminating merged run into `MergeError::Diverged` instead of a
//! hang, so CI cannot flake on this suite.

use cfc::core::{ProcessId, Value};
use cfc::mutex::{BrokenDetector, LamportFast, MutexDetector, Splitter, Tournament};
use cfc::verify::{assert_resists_merge, lemma2_condition, merge_attack, solo_profile};

#[test]
fn splitters_resist_for_all_pairs() {
    assert_resists_merge(&Splitter::new(5)).unwrap();
}

#[test]
fn lamport_detector_resists_for_all_pairs() {
    assert_resists_merge(&MutexDetector::new(LamportFast::new(4))).unwrap();
}

#[test]
fn tournament_detector_resists_for_all_pairs() {
    assert_resists_merge(&MutexDetector::new(Tournament::new(4, 2))).unwrap();
}

#[test]
fn lemma2_condition_fails_only_for_the_broken_detector() {
    let good = Splitter::new(3);
    let p0 = solo_profile(&good, ProcessId::new(0)).unwrap();
    let p1 = solo_profile(&good, ProcessId::new(1)).unwrap();
    assert!(lemma2_condition(&p0, &p1));

    let bad = BrokenDetector::new(3);
    let q0 = solo_profile(&bad, ProcessId::new(0)).unwrap();
    let q1 = solo_profile(&bad, ProcessId::new(1)).unwrap();
    assert!(!lemma2_condition(&q0, &q1));
}

#[test]
fn broken_detector_yields_a_two_winner_run() {
    let witness = merge_attack(
        &BrokenDetector::new(2),
        ProcessId::new(0),
        ProcessId::new(1),
    )
    .unwrap()
    .expect("attack must construct the forbidden run");
    // Both processes halted with output 1 in the merged trace.
    let winners = [ProcessId::new(0), ProcessId::new(1)]
        .iter()
        .filter(|&&p| witness.trace.output_of(p) == Some(Value::ONE))
        .count();
    assert_eq!(winners, 2);
}

#[test]
fn solo_profiles_describe_the_splitter_exactly() {
    let alg = Splitter::new(8);
    let p = solo_profile(&alg, ProcessId::new(5)).unwrap();
    // Writes: x := 5, y := 1. Reads: y then x.
    assert_eq!(p.writes.len(), 2);
    assert_eq!(p.writes[0].1, Value::new(5));
    assert_eq!(p.writes[1].1, Value::ONE);
    assert_eq!(p.reads.len(), 2);
    assert_eq!(p.output, Some(Value::ONE));
}

/// Lemma 2's condition is symmetric in the pair.
#[test]
fn lemma2_condition_is_symmetric() {
    let alg = Splitter::new(4);
    for i in 0..4u32 {
        for j in 0..4u32 {
            if i == j {
                continue;
            }
            let a = solo_profile(&alg, ProcessId::new(i)).unwrap();
            let b = solo_profile(&alg, ProcessId::new(j)).unwrap();
            assert_eq!(lemma2_condition(&a, &b), lemma2_condition(&b, &a));
        }
    }
}

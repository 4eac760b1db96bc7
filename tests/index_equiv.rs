//! The open-addressed digest index, exact in every cell.
//!
//! The open table is the checker's only visited-set index. Every cell of
//! the oracle matrix holds it to its own growth policy: an index of
//! exactly the slot array a table of that many states grows to — one
//! slot per stored state, no phantom insert, no missed doubling. These
//! tests check the symmetry column of every safety and progress row,
//! where the index holds canonical representatives, and every declared
//! column of the liveness rows, whose graphs are the deepest consumer of
//! the index and the edge arena. (The names are those of the
//! open-vs-chained comparison this suite made before the chained index
//! was deleted.)

mod common;

use cfc::mutex::LamportFast;
use cfc::verify::{check_mutex_progress, ProgressStats};
use common::matrix::{check_rows, Liveness, Progress, Safety, DECLARED, SYM};
use common::por_only;

#[test]
fn open_and_chained_agree_on_mutex_safety() {
    check_rows(&[SYM], |r| r.checker == Safety && r.sys.is_mutex());
}

#[test]
fn open_and_chained_agree_on_naming_and_detection() {
    check_rows(&[SYM], |r| r.checker == Safety && !r.sys.is_mutex());
}

#[test]
fn open_and_chained_agree_on_progress_graphs() {
    check_rows(&[SYM], |r| r.checker == Progress);
}

/// The liveness engine builds per-victim BFS graphs, runs Tarjan over
/// the CSR edges, and re-derives witnesses.
#[test]
fn open_and_chained_agree_on_liveness_verdicts() {
    check_rows(&DECLARED, |r| r.checker == Liveness);
}

/// The spill tier under a progress graph: a zero resident budget sends
/// every filled arena and edge segment to disk, so index probes
/// byte-compare against records read back from it — and no count may
/// change.
#[test]
fn open_index_is_exact_across_the_spill_tier() {
    let counts = |s: &ProgressStats| {
        (s.states, s.transitions, s.terminals, s.states_pruned_por, s.orbits_merged)
    };
    let cfg = por_only(25_000);
    let resident = check_mutex_progress(&LamportFast::new(3), 1, cfg).unwrap();
    assert!(
        resident.footprint.arena_bytes > 128 * 1024,
        "arena too small to exercise spilling ({} bytes)",
        resident.footprint.arena_bytes
    );
    let spilled =
        check_mutex_progress(&LamportFast::new(3), 1, cfg.with_spill_budget(0)).unwrap();
    assert_eq!(counts(&resident), counts(&spilled), "spilling changed graph counts");
    assert!(spilled.footprint.spilled_buckets > 0, "budget 0 spilled nothing");
}

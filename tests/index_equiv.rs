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

use common::matrix::{check_rows, Liveness, Progress, Safety, DECLARED, SYM};

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

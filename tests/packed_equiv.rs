//! The packed store against the naive reference explorer.
//!
//! The packed arena is the checker's only state store. Its oracle is the
//! reference explorer (`tests/common/reference.rs`), which keeps every
//! state whole in a `HashMap`. These tests check the baseline column of
//! every safety and progress row of the oracle matrix: the un-reduced
//! checker must find exactly the reference's states, transitions,
//! terminals and verdict, storing each state in the row's pinned number
//! of arena bytes. (The names are those of the packed-vs-boxed
//! comparison this suite made before the boxed store was deleted.)

mod common;

use common::matrix::{check_rows, reference_run, Progress, Safety, Sys, BASELINE, ROWS};

#[test]
fn packed_and_boxed_agree_on_mutex_safety() {
    check_rows(&[BASELINE], |r| r.checker == Safety && r.sys.is_mutex());
}

#[test]
fn packed_and_boxed_agree_on_naming_and_detection() {
    check_rows(&[BASELINE], |r| r.checker == Safety && !r.sys.is_mutex());
}

#[test]
fn packed_and_boxed_agree_on_progress_graphs() {
    check_rows(&[BASELINE], |r| r.checker == Progress);
}

/// The acceptance bar for the representation: on two mutex families
/// (Peterson's flat lock and the tournament's tree of them), the row's
/// pinned record (which its baseline cell meets) takes at most half the
/// bytes of the whole state the reference explorer keeps (the struct
/// plus its process, register and status vectors).
#[test]
fn packed_store_is_at_most_half_the_boxed_footprint() {
    for sys in [Sys::Peterson(2), Sys::Tournament(3)] {
        let row = ROWS
            .iter()
            .find(|r| r.sys == sys && r.checker == Safety)
            .expect("a safety row");
        let whole = reference_run(row).state_bytes as u64;
        assert!(
            row.arena * 2 <= whole,
            "{sys:?}: a packed record of {} bytes is over half the {whole}-byte whole state",
            row.arena
        );
    }
}

//! Property tests for the symmetry-reduced progress checker: the verdict
//! — and, stronger, the whole reduced graph — of `check_progress` is
//! invariant under any permutation of the process vector, sampled over
//! random execution prefixes and random permutations, mirroring
//! `tests/prop_reduction.rs`.
//!
//! The checker derives its classes from the state it starts in (the
//! processes that are equal there), so a permuted start derives the
//! permuted classes and its quotient is isomorphic to the original's.
//! With partial-order reduction on top, the progress BFS tries the ample
//! candidates by local state, not by pid, so even the `por + symmetry`
//! counts are exactly permutation-invariant — unlike the DFS safety
//! explorer, whose ample choice follows the concrete index order.

mod common;

use cfc::core::{apply_step, Memory, Process, Status};
use cfc::naming::{NamingAlgorithm, TafTree, TasScan};
use cfc::verify::{check_progress, ProgressStats};
use proptest::prelude::*;

/// Advances process `pid` by one step against `mem`, through the model's
/// step rule; a process that is no longer running stays put.
fn drive<P: Process>(mem: &mut Memory, procs: &mut [P], status: &mut [Status], pid: usize) {
    if status[pid] == Status::Running {
        apply_step(&mut procs[pid], &mut status[pid], mem).expect("valid op");
    }
}

/// The `k`-th permutation of `0..n` in the factorial number system.
fn nth_permutation(n: usize, mut k: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    for i in (1..=n).rev() {
        let f: u64 = (1..i as u64).product();
        let idx = (k / f) as usize % i;
        k %= f.max(1);
        out.push(pool.remove(idx));
    }
    out
}

fn permuted<T: Clone>(xs: &[T], perm: &[usize]) -> Vec<T> {
    perm.iter().map(|&i| xs[i].clone()).collect()
}

/// Runs the invariance check for one algorithm: drive a random prefix,
/// permute the processes, compare reduced progress graphs.
fn check_invariance<A>(alg: &A, prefix: &[usize], perm_seed: u64)
where
    A: NamingAlgorithm,
    A::Proc: Clone + Eq + std::hash::Hash,
{
    let n = alg.n();
    let mut mem = alg.memory().expect("memory");
    let mut procs = alg.processes();
    let mut status = vec![Status::Running; n];
    for &p in prefix {
        drive(&mut mem, &mut procs, &mut status, p % n);
    }

    let perm = nth_permutation(n, perm_seed);
    let procs_p = permuted(&procs, &perm);

    // The naming algorithms quiesce from every reachable state, so every
    // run below must return Ok — and the reduced graphs must be
    // identical in size, for symmetry alone and combined with
    // partial-order reduction. The combined graph keeps every quiescent
    // orbit of the quotient and is no larger.
    let run = |procs: &[A::Proc], cfg| -> ProgressStats {
        check_progress(mem.clone(), procs.to_vec(), cfg).unwrap()
    };
    let quotient = run(&procs, common::sym_only(200_000));
    for cfg in [common::sym_only(200_000), common::reduced(200_000)] {
        let s0 = run(&procs, cfg);
        let s1 = run(&procs_p, cfg);
        assert_eq!(s0.states, s1.states, "{cfg:?}");
        assert_eq!(s0.transitions, s1.transitions, "{cfg:?}");
        assert_eq!(s0.terminals, s1.terminals, "{cfg:?}");
        assert_eq!(s0.states_pruned_por, s1.states_pruned_por, "{cfg:?}");
        assert_eq!(s0.terminals, quotient.terminals, "{cfg:?}");
        assert!(s0.states <= quotient.states, "{cfg:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Permuting the initial (or any reachable) process order of the
    /// test-and-flip tree leaves the reduced progress graph unchanged.
    #[test]
    fn taf_tree_progress_is_permutation_invariant(
        prefix in prop::collection::vec(0usize..4, 0..14),
        perm_seed in 0u64..24,
    ) {
        check_invariance(&TafTree::new(4).unwrap(), &prefix, perm_seed);
    }

    /// Same for the linear test-and-set scan (a different local-state
    /// shape: scan positions instead of tree nodes).
    #[test]
    fn tas_scan_progress_is_permutation_invariant(
        prefix in prop::collection::vec(0usize..3, 0..10),
        perm_seed in 0u64..6,
    ) {
        check_invariance(&TasScan::new(3), &prefix, perm_seed);
    }
}

/// A directed (non-sampled) witness that the quotient is genuinely
/// smaller than the concrete graph: four identical walkers collapse.
#[test]
fn taf_tree_progress_quotient_is_smaller_than_baseline() {
    let alg = TafTree::new(4).unwrap();
    let base = check_progress(
        alg.memory().unwrap(),
        alg.processes(),
        common::budget(200_000),
    )
    .unwrap();
    let red = check_progress(
        alg.memory().unwrap(),
        alg.processes(),
        common::sym_only(200_000),
    )
    .unwrap();
    assert!(
        base.states >= 5 * red.states,
        "expected >= 5x: {} baseline vs {} reduced",
        base.states,
        red.states
    );
    assert!(red.orbits_merged > 0);
    assert_eq!(base.orbits_merged, 0);
}

//! Property tests for symmetry canonicalization: the canonical state key
//! of a symmetric algorithm is invariant under any permutation of the
//! process vector, and exploring from a permuted state visits exactly as
//! many canonical states — the algebraic core of the symmetry-reduced
//! explorer, sampled over random execution prefixes and random
//! permutations.
//!
//! The explorer derives its classes from the state it starts in (the
//! processes that are equal there), so a permuted start derives the
//! permuted classes, and each reachable state's orbit maps onto the
//! permuted state's orbit.

mod common;

use cfc::core::{apply_step, Memory, Process, Status};
use cfc::naming::{NamingAlgorithm, TafTree, TasScan};
use cfc::verify::{canonical_key, explore};
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
/// permute the processes, compare canonical keys and reduced state
/// counts.
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

    let group = alg.symmetry();
    assert_eq!(group.classes().len(), 1, "naming declares the full group");
    let key = canonical_key(&procs, &status, &mem, &group);

    let perm = nth_permutation(n, perm_seed);
    let procs_p = permuted(&procs, &perm);
    let status_p = permuted(&status, &perm);

    // 1. The canonical key is permutation-invariant.
    assert_eq!(key, canonical_key(&procs_p, &status_p, &mem, &group));

    // 2. Exploring the remainder from the permuted state visits exactly
    //    as many canonical states and terminals. Symmetry-only: with
    //    partial-order reduction the *ample choice* follows index order,
    //    so a permuted start may pick a different (equally sound) ample
    //    subgraph and the counts need not match exactly — verdict
    //    equivalence under POR is covered by `tests/reduction_equiv.rs`.
    let cfg = common::sym_only(200_000);
    let s0 = explore(mem.clone(), procs, cfg, |_| Ok(()), |_| Ok(())).unwrap();
    let s1 = explore(mem, procs_p, cfg, |_| Ok(()), |_| Ok(())).unwrap();
    assert_eq!(s0.states, s1.states);
    assert_eq!(s0.terminals, s1.terminals);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Permuting the initial (or any reachable) process order of the
    /// test-and-flip tree leaves canonical keys and reduced exploration
    /// statistics unchanged.
    #[test]
    fn taf_tree_canonicalization_is_permutation_invariant(
        prefix in prop::collection::vec(0usize..4, 0..14),
        perm_seed in 0u64..24,
    ) {
        check_invariance(&TafTree::new(4).unwrap(), &prefix, perm_seed);
    }

    /// Same for the linear test-and-set scan (a different local-state
    /// shape: scan positions instead of tree nodes).
    #[test]
    fn tas_scan_canonicalization_is_permutation_invariant(
        prefix in prop::collection::vec(0usize..3, 0..10),
        perm_seed in 0u64..6,
    ) {
        check_invariance(&TasScan::new(3), &prefix, perm_seed);
    }
}

/// A directed (non-sampled) witness that distinct states do produce
/// distinct keys: canonical hashing is not constant.
#[test]
fn canonical_key_distinguishes_genuinely_different_states() {
    let alg = TafTree::new(4).unwrap();
    let group = alg.symmetry();
    let mut mem = alg.memory().unwrap();
    let mut procs = alg.processes();
    let mut status = vec![Status::Running; 4];
    let k_init = canonical_key(&procs, &status, &mem, &group);
    drive(&mut mem, &mut procs, &mut status, 0);
    let k_stepped = canonical_key(&procs, &status, &mem, &group);
    assert_ne!(k_init, k_stepped);
}

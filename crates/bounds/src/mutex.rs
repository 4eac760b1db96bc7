//! Bounds for mutual exclusion and contention detection (Theorems 1–3).
//!
//! The paper's summary table (Section 2.6), for `n` processes and
//! atomicity `l`:
//!
//! | Measure | Lower bound | Upper bound |
//! |---|---|---|
//! | contention-free register | √(log n / (l + log log n)) (Thm 2) | 3⌈log n / l⌉ (Thm 3) |
//! | contention-free step | log n / (l − 2 + 3 log log n) (Thm 1) | 7⌈log n / l⌉ (Thm 3) |
//! | worst-case register | √(log n / (l + log log n)) (Thm 2) | O(log n) \[Kes82\] |
//! | worst-case step | ∞ \[AT92\] | — |

use crate::{ceil_div, ceil_log2, log2};

/// Theorem 1 right-hand side: `log n / (l − 2 + 3 log log n)`.
///
/// Every (weak) deadlock-free mutual exclusion (or contention detection)
/// algorithm has contention-free step complexity *strictly greater* than
/// this value. Returns `f64::INFINITY` when the denominator is zero or
/// negative (tiny `n` with small `l`, where the formula is vacuous but the
/// trivial bound [`MIN_DETECTION_STEPS`] still applies).
///
/// # Panics
///
/// Panics if `n < 2` or `l == 0`.
pub fn thm1_step_lower(n: u64, l: u32) -> f64 {
    assert!(n >= 2, "bounds need at least two processes");
    assert!(l >= 1, "atomicity must be positive");
    let log_n = log2(n);
    let denom = l as f64 - 2.0 + 3.0 * log_n.log2();
    if denom <= 0.0 {
        // The inequality `c > log n / denom` holds vacuously (denominator
        // non-positive means the derivation's inequality (7) is satisfied
        // by every c); report no constraint beyond the trivial one.
        return 0.0;
    }
    log_n / denom
}

/// The smallest integer satisfying Theorem 1's strict inequality, further
/// clamped to the trivial bound [`MIN_DETECTION_STEPS`].
pub fn thm1_step_lower_int(n: u64, l: u32) -> u64 {
    let b = thm1_step_lower(n, l);
    let strict = if b <= 0.0 { 0 } else { b.floor() as u64 + 1 };
    strict.max(MIN_DETECTION_STEPS)
}

/// Before terminating, a contention detector must write at least once and
/// read at least once (`r ≥ 1` and `w ≥ 1` in the proof of Lemma 4), so
/// every algorithm takes at least 2 contention-free steps.
pub const MIN_DETECTION_STEPS: u64 = 2;

/// Theorem 2 right-hand side: `√(log n / (l + log log n))`.
///
/// Every contention detection / mutual exclusion algorithm has
/// contention-free *register* complexity at least this value.
///
/// # Panics
///
/// Panics if `n < 2` or `l == 0`.
pub fn thm2_register_lower(n: u64, l: u32) -> f64 {
    assert!(n >= 2, "bounds need at least two processes");
    assert!(l >= 1, "atomicity must be positive");
    let log_n = log2(n);
    let denom = l as f64 + log_n.log2();
    if denom <= 0.0 {
        return 0.0;
    }
    (log_n / denom).sqrt()
}

/// The smallest integer register complexity consistent with Theorem 2's
/// derivation `(c + 1)² > log n / (l + log log n)`, clamped to the trivial
/// bound of 2 distinct registers (a detector must read one register and
/// write one; if they coincided, solo runs of two processes would be
/// indistinguishable — Lemma 2 forces both a read set and a write set).
pub fn thm2_register_lower_int(n: u64, l: u32) -> u64 {
    let log_n = log2(n);
    let denom = l as f64 + log_n.log2();
    let c = if denom <= 0.0 {
        0
    } else {
        let b = log_n / denom; // need (c+1)^2 > b
        let mut c = (b.sqrt() - 1.0).max(0.0).floor() as u64;
        while ((c + 1) * (c + 1)) as f64 <= b {
            c += 1;
        }
        c
    };
    c.max(MIN_DETECTION_REGISTERS)
}

/// A contention detector accesses at least 2 distinct registers in a
/// contention-free run (it must both read and write; see
/// [`thm2_register_lower_int`]).
pub const MIN_DETECTION_REGISTERS: u64 = 2;

/// Theorem 3 upper bound on contention-free step complexity:
/// `7 ⌈log₂ n / l⌉`.
///
/// Achieved by a tournament tree of Lamport fast-mutex nodes; Lamport's
/// algorithm takes 5 contention-free accesses to enter and 2 to exit at
/// each of the `⌈log n / l⌉` levels.
pub fn thm3_step_upper(n: u64, l: u32) -> u64 {
    7 * ceil_div(u64::from(ceil_log2(n)), u64::from(l)).max(1)
}

/// Theorem 3 upper bound on contention-free register complexity:
/// `3 ⌈log₂ n / l⌉` (3 distinct registers per tree level).
pub fn thm3_register_upper(n: u64, l: u32) -> u64 {
    3 * ceil_div(u64::from(ceil_log2(n)), u64::from(l)).max(1)
}

/// The arity of the tournament tree our implementation builds for
/// atomicity `l`.
///
/// Lamport's algorithm for `k` competitors needs registers holding `k`
/// identities plus a distinguished "free" value, so `l`-bit registers host
/// `2^l − 1` competitors per node. For `l = 1` the construction degenerates
/// and we use binary Peterson (three shared bits) nodes instead — the
/// Peterson–Fischer tournament \[PF77\]/\[Kes82\].
pub fn tournament_arity(l: u32) -> u64 {
    assert!(l >= 1, "atomicity must be positive");
    if l == 1 {
        2
    } else {
        (1u64 << l.min(32)) - 1
    }
}

/// The depth of our tournament tree: `⌈log_arity n⌉`, at least 1.
pub fn tournament_depth(n: u64, l: u32) -> u64 {
    assert!(n >= 2, "a tournament needs at least two processes");
    let a = tournament_arity(l);
    let mut depth = 0u64;
    let mut capacity = 1u64;
    while capacity < n {
        capacity = capacity.saturating_mul(a);
        depth += 1;
    }
    depth.max(1)
}

/// Contention-free step complexity of our tournament implementation:
/// 7 accesses per level for Lamport nodes (`l ≥ 2`), 4 per level for
/// Peterson nodes (`l = 1`: 3 entry accesses + 1 exit access on the
/// contention-free path).
pub fn tournament_step_upper(n: u64, l: u32) -> u64 {
    let per_level = if l == 1 { 4 } else { 7 };
    per_level * tournament_depth(n, l)
}

/// Contention-free register complexity of our tournament implementation:
/// 3 distinct registers per level for both node kinds.
pub fn tournament_register_upper(n: u64, l: u32) -> u64 {
    3 * tournament_depth(n, l)
}

/// Worst-case register complexity upper bound for bit-register mutual
/// exclusion, O(log n) via a binary tournament of 3-bit Peterson nodes
/// (\[Kes82\]; our implementation uses 3 distinct bits per level).
pub fn kessels_wc_register_upper(n: u64) -> u64 {
    3 * u64::from(ceil_log2(n)).max(1)
}

/// The corollary after Theorem 1: with atomicity `l` and contention-free
/// step complexity `c`, some process accesses shared *bits* at least
/// `l + c − 1` times in the absence of contention.
pub fn bit_access_lower(l: u32, c: u64) -> u64 {
    u64::from(l) + c - 1
}

/// Lamport's fast mutex \[Lam87\]: contention-free step complexity (5 entry
/// + 2 exit accesses).
pub const LAMPORT_FAST_STEPS: u64 = 7;
/// Lamport's fast mutex \[Lam87\]: contention-free register complexity
/// (x, y, and the process's own b-flag).
pub const LAMPORT_FAST_REGISTERS: u64 = 3;

/// Peterson's two-process algorithm: bounded bypass 1 — after a waiter's
/// first entry step, the `turn` handshake admits the owner at most once
/// more. Verified mechanically by `cfc-verify`'s fair-cycle checker
/// (`check_mutex_starvation`), whose measurement ships a
/// `validate_bypass`-checked witness schedule actually overtaking an
/// engaged waiter once; cross-checked in `tests/bounds_consistency.rs`.
pub const PETERSON_BYPASS: u64 = 1;

/// The bakery's bypass bound, `2(n − 1)`: first-come-first-served only
/// protects waiters whose *doorway* has completed, while bypass counting
/// starts at the waiter's first entry step — so each of the `n − 1`
/// competitors can overtake twice, once from a gate check already in
/// flight and once more via a doorway that overlapped the waiter's
/// ticket scan (drawing a smaller ticket). Matches the fair-cycle
/// checker's measurement at `n = 2` (bypass 2) and `n = 3` (bypass 4),
/// each backed by a `validate_bypass`-checked witness schedule.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn bakery_bypass_upper(n: u64) -> u64 {
    assert!(n >= 1, "need at least one process");
    2 * (n - 1)
}

/// Whether our Theorem 3 tournament is starvation-free at atomicity `l`.
///
/// `l = 1` builds Peterson nodes, whose bounded bypass composes into
/// tree-wide starvation freedom (though with **no** overall bypass bound
/// beyond a single node: the tree has no wait-free doorway, so a waiter
/// frozen mid-climb watches the far subtree pass unboundedly). `l ≥ 2`
/// builds Lamport fast-mutex nodes, which are starvable \[AT92\] — and a
/// tournament of starvable nodes is starvable; the fair-cycle checker
/// exhibits the lasso at `n = 3, l = 2`.
pub fn tournament_starvation_free(l: u32) -> bool {
    assert!(l >= 1, "atomicity must be positive");
    l == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thm1_is_decreasing_in_atomicity() {
        let n = 1 << 20;
        let b1 = thm1_step_lower(n, 1);
        let b8 = thm1_step_lower(n, 8);
        let b16 = thm1_step_lower(n, 16);
        assert!(b1 > b8 && b8 > b16, "{b1} {b8} {b16}");
    }

    #[test]
    fn thm1_is_increasing_in_n() {
        assert!(thm1_step_lower(1 << 30, 4) > thm1_step_lower(1 << 10, 4));
    }

    #[test]
    fn thm1_int_is_strictly_greater() {
        for &n in &[4u64, 16, 256, 1 << 20, 1 << 40] {
            for l in [1u32, 2, 4, 8, 16] {
                let b = thm1_step_lower(n, l);
                let i = thm1_step_lower_int(n, l);
                assert!((i as f64) > b || i == MIN_DETECTION_STEPS);
                assert!(i >= MIN_DETECTION_STEPS);
            }
        }
    }

    #[test]
    fn thm1_vacuous_denominator_handled() {
        // n = 2: log n = 1, log log n = 0, denominator = l - 2.
        assert_eq!(thm1_step_lower(2, 1), 0.0);
        assert_eq!(thm1_step_lower(2, 2), 0.0);
        assert!(thm1_step_lower(2, 3) > 0.0);
    }

    #[test]
    fn thm2_values_are_modest() {
        // The register lower bound grows like sqrt(log n / l).
        let b = thm2_register_lower(1 << 16, 1);
        assert!(b > 1.5 && b < 4.0, "{b}");
        assert!(thm2_register_lower_int(1 << 16, 1) >= 2);
    }

    #[test]
    fn thm2_int_satisfies_derivation() {
        for &n in &[4u64, 256, 1 << 20, 1 << 50] {
            for l in [1u32, 2, 8] {
                let c = thm2_register_lower_int(n, l);
                let b = log2(n) / (l as f64 + log2(n).log2());
                assert!(
                    ((c + 1) * (c + 1)) as f64 > b,
                    "n={n} l={l} c={c} b={b}"
                );
            }
        }
    }

    #[test]
    fn thm3_matches_paper_examples() {
        // log n = 20, l = 1 -> 7 * 20 and 3 * 20.
        assert_eq!(thm3_step_upper(1 << 20, 1), 140);
        assert_eq!(thm3_register_upper(1 << 20, 1), 60);
        // l = log n -> one level.
        assert_eq!(thm3_step_upper(1 << 20, 20), 7);
        assert_eq!(thm3_register_upper(1 << 20, 20), 3);
    }

    #[test]
    fn lower_bounds_below_upper_bounds() {
        for &n in &[4u64, 64, 1024, 1 << 20] {
            for l in [1u32, 2, 4, 8] {
                assert!(
                    thm1_step_lower(n, l) < thm3_step_upper(n, l) as f64,
                    "step: n={n} l={l}"
                );
                assert!(
                    thm2_register_lower(n, l) <= thm3_register_upper(n, l) as f64,
                    "register: n={n} l={l}"
                );
            }
        }
    }

    #[test]
    fn tournament_geometry() {
        assert_eq!(tournament_arity(1), 2);
        assert_eq!(tournament_arity(2), 3);
        assert_eq!(tournament_arity(4), 15);
        assert_eq!(tournament_depth(8, 1), 3);
        assert_eq!(tournament_depth(9, 2), 2); // 3-ary: 3^2 = 9
        assert_eq!(tournament_depth(10, 2), 3);
        assert_eq!(tournament_depth(2, 8), 1);
    }

    #[test]
    fn tournament_upper_tracks_depth() {
        assert_eq!(tournament_step_upper(8, 1), 12); // 4 per Peterson level
        assert_eq!(tournament_register_upper(8, 1), 9);
        assert_eq!(tournament_step_upper(9, 2), 14); // 7 per Lamport level
        assert_eq!(tournament_register_upper(9, 2), 6);
    }

    #[test]
    fn implementation_bounds_within_constant_of_paper_formula() {
        // Our arity-(2^l - 1) substitution inflates depth by at most a
        // factor ~ l / log2(2^l - 1) < 2 for l >= 2.
        for &n in &[16u64, 256, 1 << 16] {
            for l in [2u32, 4, 8] {
                let ours = tournament_step_upper(n, l);
                let paper = thm3_step_upper(n, l);
                assert!(ours <= 2 * paper, "n={n} l={l}: {ours} vs {paper}");
            }
        }
    }

    #[test]
    fn bit_access_corollary() {
        assert_eq!(bit_access_lower(16, 7), 22);
        assert_eq!(bit_access_lower(1, 2), 2);
    }

    #[test]
    fn kessels_bound_is_logarithmic() {
        assert_eq!(kessels_wc_register_upper(1 << 10), 30);
    }

    #[test]
    fn fairness_row_shapes() {
        assert_eq!(PETERSON_BYPASS, 1);
        assert_eq!(bakery_bypass_upper(2), 2);
        assert_eq!(bakery_bypass_upper(3), 4);
        assert_eq!(bakery_bypass_upper(1), 0); // nobody to be bypassed by
        assert!(tournament_starvation_free(1));
        assert!(!tournament_starvation_free(2));
        assert!(!tournament_starvation_free(16));
    }
}

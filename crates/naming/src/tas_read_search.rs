//! Binary-search naming with `read` + `test-and-set` (Theorem 4.4).
//!
//! The linear scan of [`TasScan`](crate::TasScan) made fast in the absence
//! of contention: a process first binary-searches the `n − 1` bit array
//! for the lowest bit that is still `0`, using `⌈log₂ n⌉ − 1` reads; the
//! final probe is a `test-and-set` on the located candidate. If that
//! returns `0` the process stops with the candidate's name; otherwise it
//! falls back to linearly scanning the remaining bits as in the plain
//! algorithm.
//!
//! In a contention-free run, previously finished processes have set a
//! *prefix* of the bits, so the binary search lands exactly on the first
//! free bit: contention-free step complexity `⌈log₂ n⌉` — the tight bound
//! for the `{read, test-and-set}` model — while the worst case stays
//! linear (the model's `n − 1` lower bound, Theorem 6, is unavoidable).

use std::sync::Arc;

use cfc_core::{BitOp, Layout, Op, OpResult, Process, RegisterId, RegisterSet, Step, Value};

use crate::algorithm::NamingAlgorithm;
use crate::model::Model;

/// The binary-search + scan naming algorithm for the
/// `{read, test-and-set}` model.
#[derive(Clone, Debug)]
pub struct TasReadSearch {
    n: usize,
    layout: Layout,
    bits: Arc<[RegisterId]>,
}

impl TasReadSearch {
    /// Creates the algorithm for `n ≥ 1` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let mut layout = Layout::new();
        let bits: Arc<[RegisterId]> = layout.bits("name", n - 1, false).into();
        TasReadSearch { n, layout, bits }
    }
}

impl NamingAlgorithm for TasReadSearch {
    type Proc = TasReadSearchProc;

    fn name(&self) -> &str {
        "tas-read-search"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn model(&self) -> Model {
        Model::READ_TAS
    }

    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn process(&self) -> TasReadSearchProc {
        let hi = self.bits.len() as u64; // virtual sentinel: "name n"
        TasReadSearchProc {
            bits: Arc::clone(&self.bits),
            pc: if self.bits.is_empty() {
                SearchPc::Done(1)
            } else {
                SearchPc::Search { lo: 0, hi }
            },
        }
    }

    fn step_budget(&self) -> u64 {
        // <= ceil(log2 n) search probes + a full fallback scan.
        let n = self.n as u64;
        64 - n.leading_zeros() as u64 + n
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum SearchPc {
    /// Binary search: the first `0` bit is believed to lie in `lo..=hi`
    /// (`hi` may be the virtual always-0 sentinel at index `len`).
    Search {
        lo: u64,
        hi: u64,
    },
    /// About to `test-and-set` the search's candidate bit.
    Probe(u64),
    /// Fallback linear scan from this index.
    Scan(u64),
    Done(u64),
}

/// The participant process of [`TasReadSearch`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TasReadSearchProc {
    bits: Arc<[RegisterId]>,
    pc: SearchPc,
}

impl Process for TasReadSearchProc {
    fn current(&self) -> Step {
        match self.pc {
            SearchPc::Search { lo, hi } => {
                let mid = (lo + hi) / 2;
                Step::Op(Op::Bit(self.bits[mid as usize], BitOp::Read))
            }
            SearchPc::Probe(i) | SearchPc::Scan(i) => {
                Step::Op(Op::Bit(self.bits[i as usize], BitOp::TestAndSet))
            }
            SearchPc::Done(_) => Step::Halt,
        }
    }

    fn advance(&mut self, result: OpResult) {
        self.pc = match self.pc {
            SearchPc::Search { lo, hi } => {
                let mid = (lo + hi) / 2;
                let (lo, hi) = if result.bit() {
                    (mid + 1, hi)
                } else {
                    (lo, mid)
                };
                if hi.saturating_sub(lo) >= 1 && lo < self.bits.len() as u64 {
                    if hi - lo >= 2 {
                        SearchPc::Search { lo, hi }
                    } else {
                        SearchPc::Probe(lo)
                    }
                } else if lo >= self.bits.len() as u64 {
                    // Search concluded every real bit is taken; verify by
                    // scanning from the last bit (cheap: the scan
                    // immediately confirms or wins a late free bit).
                    SearchPc::Scan(self.bits.len() as u64 - 1)
                } else {
                    SearchPc::Probe(lo)
                }
            }
            SearchPc::Probe(i) | SearchPc::Scan(i) => {
                if !result.bit() {
                    SearchPc::Done(i + 1)
                } else if i + 1 < self.bits.len() as u64 {
                    SearchPc::Scan(i + 1)
                } else {
                    SearchPc::Done(self.bits.len() as u64 + 1)
                }
            }
            SearchPc::Done(_) => unreachable!("halted process advanced"),
        };
    }

    fn output(&self) -> Option<Value> {
        match self.pc {
            SearchPc::Done(name) => Some(Value::new(name)),
            _ => None,
        }
    }

    fn fingerprint(&self) -> Option<u64> {
        // Low 4 bits tag the variant; indices are far below 2^30.
        Some(match self.pc {
            SearchPc::Search { lo, hi } => (lo << 34) | (hi << 4),
            SearchPc::Probe(i) => (i << 4) | 1,
            SearchPc::Scan(i) => (i << 4) | 2,
            SearchPc::Done(name) => (name << 4) | 3,
        })
    }

    fn may_access(&self, out: &mut RegisterSet) -> bool {
        let start = match self.pc {
            // The search never looks below `lo` again — except for the
            // everything-taken conclusion, which re-probes the last bit.
            SearchPc::Search { lo, .. } => lo.min((self.bits.len() as u64).saturating_sub(1)),
            SearchPc::Probe(i) | SearchPc::Scan(i) => i,
            SearchPc::Done(_) => return true,
        };
        out.extend(self.bits[start as usize..].iter().copied());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::metrics::all_process_complexities;
    use cfc_core::{run_sequential, ExecConfig, FaultPlan, Lockstep, ProcessId, RandomSched};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_names_are_in_order() {
        for n in [1usize, 2, 3, 4, 7, 8, 16, 33] {
            let alg = TasReadSearch::new(n);
            let (_, _, procs) = run_sequential(alg.memory().unwrap(), alg.processes()).unwrap();
            let names: Vec<u64> = procs.iter().map(|p| p.output().unwrap().raw()).collect();
            assert_eq!(names, (1..=n as u64).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn contention_free_step_complexity_is_logarithmic() {
        // Run processes sequentially and measure each one's own steps.
        // The search narrows to a two-candidate range with ceil(log n) - 1
        // reads and resolves it with at most two test-and-sets, so every
        // contention-free run takes at most ceil(log2 n) + 1 steps. (The
        // paper's "exactly log n" is the happy path where the first
        // test-and-set succeeds; when the free bit is the upper candidate
        // its algorithm takes log n + 1 steps too.)
        for n in [4usize, 8, 16, 64, 256] {
            let alg = TasReadSearch::new(n);
            let (trace, _, _) = run_sequential(alg.memory().unwrap(), alg.processes()).unwrap();
            let log_n = u64::from(64 - (n as u64 - 1).leading_zeros());
            let layout = alg.layout();
            for (i, c) in all_process_complexities(&trace, &layout, n)
                .iter()
                .enumerate()
            {
                assert!(
                    c.steps <= log_n + 1,
                    "n={n} process {i}: {} steps > log n + 1 = {}",
                    c.steps,
                    log_n + 1
                );
            }
        }
    }

    #[test]
    fn lockstep_names_are_unique() {
        for n in [2usize, 3, 4, 6, 8, 16] {
            let alg = TasReadSearch::new(n);
            let exec = cfc_core::run_schedule(
                alg.memory().unwrap(),
                alg.processes(),
                Lockstep::new(),
                FaultPlan::new(),
                ExecConfig::default(),
            )
            .unwrap();
            let mut names: Vec<u64> = exec.outputs().iter().map(|o| o.unwrap().raw()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "n={n}: duplicate names");
            assert!(names.iter().all(|&x| (1..=n as u64).contains(&x)));
        }
    }

    #[test]
    fn random_schedules_with_crashes_stay_safe_and_wait_free() {
        for seed in 0u64..25 {
            let n = 8;
            let alg = TasReadSearch::new(n);
            let faults =
                FaultPlan::new().with_crash(ProcessId::new((seed % n as u64) as u32), seed / 3);
            let exec = cfc_core::run_schedule(
                alg.memory().unwrap(),
                alg.processes(),
                RandomSched::new(StdRng::seed_from_u64(seed)),
                faults,
                ExecConfig::default(),
            )
            .unwrap();
            let names: Vec<u64> = exec.outputs().iter().flatten().map(|v| v.raw()).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                names.len(),
                "seed {seed}: duplicates {names:?}"
            );
            for pid in 0..n {
                assert!(exec.steps_taken(ProcessId::new(pid as u32)) <= alg.step_budget());
            }
        }
    }

    #[test]
    fn n_one_terminates_immediately() {
        let alg = TasReadSearch::new(1);
        let (_, _, procs) = run_sequential(alg.memory().unwrap(), alg.processes()).unwrap();
        assert_eq!(procs[0].output(), Some(Value::new(1)));
    }
}

//! Test-and-set spinlocks (baselines for the native benches).
//!
//! The paper's Section 3 primitives, in hardware form: `test-and-set` is
//! `AtomicBool::swap`. The TTAS variant spins on a plain load until the
//! lock looks free (one remote access per coherence invalidation instead
//! of one per loop iteration — the register-complexity intuition of
//! Section 1.2 in silicon), optionally with exponential backoff.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

use crate::backoff::Backoff;
use crate::lock::SlottedMutex;

/// Spin strategy for [`TasLock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpinStrategy {
    /// Re-execute `test-and-set` in a tight loop.
    Tas,
    /// Spin on a read until free, then `test-and-set` (TTAS).
    Ttas,
    /// TTAS plus exponential backoff between attempts.
    TtasBackoff,
}

/// A test-and-set spinlock (identity-free: the slot is ignored).
#[derive(Debug)]
pub struct TasLock {
    flag: AtomicBool,
    strategy: SpinStrategy,
}

impl TasLock {
    /// Creates a lock with the given spin strategy.
    pub fn new(strategy: SpinStrategy) -> Self {
        TasLock {
            flag: AtomicBool::new(false),
            strategy,
        }
    }

    fn try_acquire(&self) -> bool {
        // swap(true) is the paper's test-and-set: sets the bit, returns
        // the old value; acquiring means the old value was 0.
        !self.flag.swap(true, SeqCst)
    }
}

impl SlottedMutex for TasLock {
    fn lock(&self, _slot: usize) {
        let mut backoff = Backoff::new();
        let mut spins = 0u32;
        loop {
            if self.try_acquire() {
                return;
            }
            match self.strategy {
                SpinStrategy::Tas => {
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                SpinStrategy::Ttas => {
                    while self.flag.load(SeqCst) {
                        spins += 1;
                        if spins.is_multiple_of(64) {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                }
                SpinStrategy::TtasBackoff => {
                    backoff.pause();
                    while self.flag.load(SeqCst) {
                        backoff.pause();
                    }
                }
            }
        }
    }

    fn unlock(&self, _slot: usize) {
        self.flag.store(false, SeqCst);
    }

    fn slots(&self) -> usize {
        usize::MAX
    }

    fn name(&self) -> &'static str {
        match self.strategy {
            SpinStrategy::Tas => "tas",
            SpinStrategy::Ttas => "ttas",
            SpinStrategy::TtasBackoff => "ttas+backoff",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn hammer(mutex: &TasLock, threads: usize, iters: u64) -> u64 {
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for slot in 0..threads {
                let counter = &counter;
                s.spawn(move || {
                    for _ in 0..iters {
                        mutex.lock(slot);
                        let v = counter.load(SeqCst);
                        counter.store(v + 1, SeqCst);
                        mutex.unlock(slot);
                    }
                });
            }
        });
        counter.load(SeqCst)
    }

    #[test]
    fn all_strategies_protect_the_counter() {
        for strategy in [
            SpinStrategy::Tas,
            SpinStrategy::Ttas,
            SpinStrategy::TtasBackoff,
        ] {
            let m = TasLock::new(strategy);
            assert_eq!(hammer(&m, 4, 2_000), 8_000, "{:?}", strategy);
        }
    }

    #[test]
    fn uncontended_acquire_is_one_access() {
        let m = TasLock::new(SpinStrategy::Ttas);
        assert!(m.try_acquire());
        assert!(!m.try_acquire());
        m.unlock(0);
        assert!(m.try_acquire());
    }
}

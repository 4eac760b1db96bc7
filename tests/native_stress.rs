//! Native-layer stress: the real-atomics locks and registries under
//! genuine hardware concurrency.

use cfc::native::{
    BakeryMutex, FastMutex, NamingRegistry, PetersonTree, SlottedMutex, SpinStrategy, TasLock,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

/// Drives `threads` threads through `iters` protected read-modify-write
/// cycles; any mutual-exclusion failure loses updates.
fn exact_counter<M: SlottedMutex>(mutex: &M, threads: usize, iters: u64) {
    let counter = AtomicU64::new(0);
    std::thread::scope(|s| {
        for slot in 0..threads {
            let (mutex, counter) = (&*mutex, &counter);
            s.spawn(move || {
                for _ in 0..iters {
                    mutex.lock(slot);
                    let v = counter.load(SeqCst);
                    std::hint::black_box(v);
                    counter.store(v + 1, SeqCst);
                    mutex.unlock(slot);
                }
            });
        }
    });
    assert_eq!(
        counter.load(SeqCst),
        threads as u64 * iters,
        "{} lost updates",
        mutex.name()
    );
}

#[test]
fn fast_mutex_heavy_contention() {
    exact_counter(&FastMutex::new(8), 8, 5_000);
}

#[test]
fn fast_mutex_with_backoff_heavy_contention() {
    exact_counter(&FastMutex::with_backoff(8), 8, 5_000);
}

#[test]
fn peterson_tree_heavy_contention() {
    exact_counter(&PetersonTree::new(8), 8, 5_000);
}

#[test]
fn peterson_tree_odd_thread_counts() {
    for threads in [3usize, 5, 6, 7] {
        exact_counter(&PetersonTree::new(threads), threads, 2_000);
    }
}

#[test]
fn bakery_heavy_contention() {
    exact_counter(&BakeryMutex::new(6), 6, 3_000);
}

#[test]
fn tas_variants_heavy_contention() {
    for strategy in [
        SpinStrategy::Tas,
        SpinStrategy::Ttas,
        SpinStrategy::TtasBackoff,
    ] {
        exact_counter(&TasLock::new(strategy), 8, 5_000);
    }
}

#[test]
fn repeated_rounds_reuse_the_same_mutex() {
    let mutex = FastMutex::new(4);
    for _ in 0..5 {
        exact_counter(&mutex, 4, 1_000);
    }
}

#[test]
fn naming_registry_full_capacity_race() {
    for _ in 0..20 {
        let registry = NamingRegistry::new(8);
        let names: HashSet<usize> = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    let registry = &registry;
                    s.spawn(move || {
                        if i % 2 == 0 {
                            registry.claim_scan().unwrap()
                        } else {
                            registry.claim_search().unwrap()
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(names.len(), 8);
        assert!(names.iter().all(|&x| (1..=8).contains(&x)));
    }
}

#[test]
fn mixed_lock_workloads_interleave_safely() {
    // Two independent locks protecting two counters, threads alternating.
    let m1 = FastMutex::new(4);
    let m2 = PetersonTree::new(4);
    let c1 = AtomicU64::new(0);
    let c2 = AtomicU64::new(0);
    std::thread::scope(|s| {
        for slot in 0..4 {
            let (m1, m2, c1, c2) = (&m1, &m2, &c1, &c2);
            s.spawn(move || {
                for i in 0..2_000u64 {
                    if i % 2 == 0 {
                        m1.lock(slot);
                        let v = c1.load(SeqCst);
                        c1.store(v + 1, SeqCst);
                        m1.unlock(slot);
                    } else {
                        m2.lock(slot);
                        let v = c2.load(SeqCst);
                        c2.store(v + 1, SeqCst);
                        m2.unlock(slot);
                    }
                }
            });
        }
    });
    assert_eq!(c1.load(SeqCst), 4_000);
    assert_eq!(c2.load(SeqCst), 4_000);
}

//! E8 (part 1) — wall-clock cost of the paper's algorithms on real
//! hardware: the uncontended (contention-free) fast path and contended
//! throughput, against test-and-set, `std::sync::Mutex`, and
//! `parking_lot::Mutex` baselines.
//!
//! The paper's story in nanoseconds: Lamport's mutex has a constant
//! uncontended path regardless of capacity, while the bit-only Peterson
//! tournament pays Θ(log n) — there is no free lunch at atomicity 1
//! (Theorem 1).

use cfc_native::{BakeryMutex, FastMutex, PetersonTree, SlottedMutex, SpinStrategy, TasLock};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn bench_uncontended(c: &mut Criterion) {
    let mut group = c.benchmark_group("native/uncontended_lock_unlock");
    for slots in [2usize, 8, 64, 1024] {
        group.bench_with_input(
            BenchmarkId::new("lamport_fast", slots),
            &slots,
            |b, &slots| {
                let m = FastMutex::new(slots);
                b.iter(|| {
                    m.lock(0);
                    m.unlock(0);
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("peterson_tree", slots),
            &slots,
            |b, &slots| {
                let m = PetersonTree::new(slots);
                b.iter(|| {
                    m.lock(0);
                    m.unlock(0);
                });
            },
        );
        // The Θ(n) baseline: uncontended bakery latency grows with the
        // slot count while Lamport's stays flat (the paper's motivation
        // in nanoseconds).
        group.bench_with_input(BenchmarkId::new("bakery", slots), &slots, |b, &slots| {
            let m = BakeryMutex::new(slots);
            b.iter(|| {
                m.lock(0);
                m.unlock(0);
            });
        });
    }
    group.bench_function("ttas", |b| {
        let m = TasLock::new(SpinStrategy::Ttas);
        b.iter(|| {
            m.lock(0);
            m.unlock(0);
        });
    });
    group.bench_function("std_mutex", |b| {
        let m = std::sync::Mutex::new(());
        b.iter(|| drop(m.lock().unwrap()));
    });
    group.bench_function("parking_lot_mutex", |b| {
        let m = parking_lot::Mutex::new(());
        b.iter(|| drop(m.lock()));
    });
    group.finish();
}

/// Total wall time for `threads` threads to each complete `iters`
/// critical sections.
fn contended_run<M: SlottedMutex>(mutex: &M, threads: usize, iters: u64) -> std::time::Duration {
    let counter = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for slot in 0..threads {
            let (mutex, counter) = (&*mutex, &counter);
            s.spawn(move || {
                for _ in 0..iters {
                    mutex.lock(slot);
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    mutex.unlock(slot);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    assert_eq!(counter.load(Ordering::Relaxed), threads as u64 * iters);
    elapsed
}

fn bench_contended(c: &mut Criterion) {
    let max_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(8);
    let iters = 5_000u64;
    let mut group = c.benchmark_group("native/contended_sections");
    group.sample_size(10);
    // Dedup so a 2-core machine does not register duplicate benchmark ids.
    let mut sweep = vec![2usize, max_threads];
    sweep.sort_unstable();
    sweep.dedup();
    for threads in sweep {
        group.throughput(Throughput::Elements(threads as u64 * iters));
        group.bench_with_input(
            BenchmarkId::new("lamport_fast", threads),
            &threads,
            |b, &threads| {
                let m = FastMutex::new(threads);
                b.iter_custom(|rounds| {
                    (0..rounds).map(|_| contended_run(&m, threads, iters)).sum()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lamport_fast_backoff", threads),
            &threads,
            |b, &threads| {
                let m = FastMutex::with_backoff(threads);
                b.iter_custom(|rounds| {
                    (0..rounds).map(|_| contended_run(&m, threads, iters)).sum()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("peterson_tree", threads),
            &threads,
            |b, &threads| {
                let m = PetersonTree::new(threads);
                b.iter_custom(|rounds| {
                    (0..rounds).map(|_| contended_run(&m, threads, iters)).sum()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ttas_backoff", threads),
            &threads,
            |b, &threads| {
                let m = TasLock::new(SpinStrategy::TtasBackoff);
                b.iter_custom(|rounds| {
                    (0..rounds).map(|_| contended_run(&m, threads, iters)).sum()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_uncontended, bench_contended);
criterion_main!(benches);

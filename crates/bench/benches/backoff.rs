//! E8 (part 2) — the Discussion-section claim: with exponential backoff,
//! the time for the winning process to enter its critical section stays
//! close to the contention-free time *at every contention level*.
//!
//! The harness measures mean time-per-critical-section for Lamport's fast
//! mutex with and without backoff across thread counts, prints the
//! reproduction table, and registers the series with criterion.

use cfc_bounds::table::TextTable;
use cfc_native::{FastMutex, SlottedMutex};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Mean wall time per completed critical section with `threads`
/// contenders (total time / total sections).
fn time_per_section<M: SlottedMutex>(mutex: &M, threads: usize, iters: u64) -> Duration {
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
    elapsed / (threads as u32 * iters as u32)
}

fn print_backoff_table(max_threads: usize) {
    println!("\n=== Backoff keeps per-section time near the contention-free time ===\n");
    let iters = 20_000u64;
    let mut table = TextTable::new([
        "threads",
        "no backoff (ns/section)",
        "with backoff (ns/section)",
        "backoff vs contention-free",
    ]);
    let solo = {
        let m = FastMutex::with_backoff(max_threads);
        time_per_section(&m, 1, iters * 4)
    };
    for threads in 1..=max_threads {
        let plain = FastMutex::new(max_threads);
        let backoff = FastMutex::with_backoff(max_threads);
        let t_plain = time_per_section(&plain, threads, iters);
        let t_backoff = time_per_section(&backoff, threads, iters);
        table.row([
            threads.to_string(),
            format!("{:.0}", t_plain.as_nanos()),
            format!("{:.0}", t_backoff.as_nanos()),
            format!(
                "{:.1}x",
                t_backoff.as_nanos() as f64 / solo.as_nanos().max(1) as f64
            ),
        ]);
    }
    println!("{table}");
    println!(
        "contention-free baseline: {:.0} ns/section; the backoff column should\n\
         stay within a small factor of it at every contention level, while the\n\
         plain column degrades much faster (cf. [MS93]).\n",
        solo.as_nanos()
    );
}

fn bench_backoff(c: &mut Criterion) {
    let max_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(8);
    print_backoff_table(max_threads);

    let mut group = c.benchmark_group("backoff/time_per_section");
    group.sample_size(10);
    // Size the mutex for the whole sweep, not `max_threads`: on a
    // single-core machine `max_threads` is 1 while the sweep still runs
    // the 2-thread point (threads beyond the core count just time-slice).
    let mut sweep = vec![1usize, 2, max_threads];
    sweep.sort_unstable();
    sweep.dedup();
    let slots = *sweep.last().unwrap();
    for threads in sweep {
        group.bench_with_input(
            BenchmarkId::new("plain", threads),
            &threads,
            |b, &threads| {
                let m = FastMutex::new(slots);
                b.iter_custom(|rounds| {
                    (0..rounds)
                        .map(|_| time_per_section(&m, threads, 2_000) * (threads as u32 * 2_000))
                        .sum()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("backoff", threads),
            &threads,
            |b, &threads| {
                let m = FastMutex::with_backoff(slots);
                b.iter_custom(|rounds| {
                    (0..rounds)
                        .map(|_| time_per_section(&m, threads, 2_000) * (threads as u32 * 2_000))
                        .sum()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_backoff);
criterion_main!(benches);

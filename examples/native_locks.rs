//! Real-thread timing of the paper's algorithms: the contention-free fast
//! path of Lamport's mutex, the Θ(log n) bit-only tournament, and the
//! Discussion-section backoff effect.
//!
//! Run with: `cargo run --release --example native_locks`

use cfc::native::{FastMutex, NamingRegistry, PetersonTree, SlottedMutex, SpinStrategy, TasLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn uncontended_ns<M: SlottedMutex>(mutex: &M, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        mutex.lock(0);
        mutex.unlock(0);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn contended_throughput<M: SlottedMutex>(mutex: &M, threads: usize, iters: u64) -> (u64, f64) {
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
    let secs = start.elapsed().as_secs_f64();
    let total = counter.load(Ordering::Relaxed);
    (total, total as f64 / secs)
}

fn main() {
    let iters = 200_000u64;
    println!("== Uncontended acquire+release latency (the paper's contention-free cost) ==\n");
    let fast = FastMutex::new(8);
    let tree = PetersonTree::new(8);
    let tas = TasLock::new(SpinStrategy::Ttas);
    println!(
        "{:<22} {:>10.1} ns   (constant: 7 accesses)",
        fast.name(),
        uncontended_ns(&fast, iters)
    );
    println!(
        "{:<22} {:>10.1} ns   (Θ(log n): depth {} tree)",
        tree.name(),
        uncontended_ns(&tree, iters),
        tree.depth()
    );
    println!(
        "{:<22} {:>10.1} ns   (hardware RMW baseline)",
        tas.name(),
        uncontended_ns(&tas, iters)
    );

    println!("\n== Contended throughput, with and without backoff ==\n");
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(8);
    let per_thread = 50_000u64;
    for build in [false, true] {
        let mutex = if build {
            FastMutex::with_backoff(threads)
        } else {
            FastMutex::new(threads)
        };
        let (total, tput) = contended_throughput(&mutex, threads, per_thread);
        assert_eq!(total, threads as u64 * per_thread);
        println!(
            "{:<22} {} threads: {:>12.0} sections/s (counter exact)",
            mutex.name(),
            threads,
            tput
        );
    }

    println!("\n== Wait-free naming on threads ==\n");
    let registry = NamingRegistry::new(threads);
    let names: HashSet<usize> = std::thread::scope(|s| {
        (0..threads)
            .map(|_| s.spawn(|| registry.claim_search().unwrap()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    println!("{threads} threads claimed names {names:?} — all distinct, wait-free");
}

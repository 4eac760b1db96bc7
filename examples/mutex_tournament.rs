//! Tournament mutual exclusion in depth: Theorem 3's construction across
//! atomicities, with safety stress, worst-case register measurements
//! (the Kessels row of Table 1), and the native tournament on threads.
//!
//! Run with: `cargo run --example mutex_tournament`

use cfc::bounds::table::TextTable;
use cfc::core::ProcessId;
use cfc::mutex::{measure, Tournament};
use cfc::native::{PetersonTree, SlottedMutex};
use cfc::verify::stress_mutex;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Contention-free profile per node kind ==\n");
    let mut table = TextTable::new([
        "n",
        "l",
        "arity",
        "depth",
        "cf steps",
        "cf registers",
        "bit accesses",
    ])
    .with_title("Tournament contention-free cost (Lamport nodes for l >= 2, Peterson for l = 1)");
    for (n, l) in [
        (64usize, 1u32),
        (64, 2),
        (64, 3),
        (64, 6),
        (4096, 1),
        (4096, 4),
    ] {
        let alg = Tournament::sparse(n, l, &[ProcessId::new(0)]);
        let trip = measure::contention_free_trip(&alg, ProcessId::new(0))?;
        table.row([
            n.to_string(),
            l.to_string(),
            alg.arity().to_string(),
            alg.depth().to_string(),
            trip.total.steps.to_string(),
            trip.total.registers.to_string(),
            trip.total.bit_accesses.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Note the bit-accesses column: no matter how l is chosen, a process\n\
         touches Θ(log n) shared bits before entering — the corollary to\n\
         Theorem 1.\n"
    );

    println!("== Worst-case register complexity under full contention ==\n");
    let mut table = TextTable::new([
        "n",
        "depth",
        "worst registers over all trips",
        "3*depth bound",
    ])
    .with_title("Peterson tournament (l = 1), all processes competing, fair round-robin");
    for n in [4usize, 8, 16] {
        let alg = Tournament::new(n, 1);
        let trips = measure::contended_round_robin(&alg, 1)?;
        let worst = trips.iter().map(|t| t.total.registers).max().unwrap();
        table.row([
            n.to_string(),
            alg.depth().to_string(),
            worst.to_string(),
            (3 * u64::from(alg.depth())).to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Even in the worst case a process visits O(log n) distinct registers\n\
         — the [Kes82] row of the paper's mutex table.\n"
    );

    println!("== Randomized safety stress ==\n");
    for (n, l) in [(6usize, 1u32), (9, 2)] {
        let stats = stress_mutex(&Tournament::new(n, l), 1, 25, 10_000)?;
        println!(
            "tournament n={n} l={l}: {} random runs, {} events, mutual exclusion held",
            stats.runs, stats.events
        );
    }

    println!("\n== Native Peterson tournament on real threads ==\n");
    let threads = 8;
    let mutex = PetersonTree::new(threads);
    let counter = AtomicU64::new(0);
    let iters = 20_000u64;
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for slot in 0..threads {
            let (mutex, counter) = (&mutex, &counter);
            s.spawn(move || {
                for _ in 0..iters {
                    mutex.with(slot, || {
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    let elapsed = start.elapsed();
    assert_eq!(counter.load(Ordering::Relaxed), threads as u64 * iters);
    println!(
        "{} threads x {} critical sections through a depth-{} tree: counter exact \
         ({} total) in {:?}",
        threads,
        iters,
        mutex.depth(),
        counter.load(Ordering::Relaxed),
        elapsed
    );
    Ok(())
}

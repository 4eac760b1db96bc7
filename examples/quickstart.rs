//! Quickstart: measure the contention-free complexity of mutual exclusion
//! and compare it against the paper's bounds (Table 1 of Alur &
//! Taubenfeld, PODC 1994), then exhaustively verify a small instance.
//!
//! Run with: `cargo run --example quickstart [-- --progress]`
//!
//! `--progress` turns on the live stderr heartbeat for the exhaustive
//! verification section (equivalent to setting `CFC_PROGRESS=1`).

use cfc::bounds::mutex as bounds;
use cfc::bounds::table::TextTable;
use cfc::mutex::{measure, LamportFast, MutexAlgorithm, Tournament};
use cfc::core::ProcessId;
use cfc::verify::explore::ExploreConfig;
use cfc::verify::{
    check_mutex_progress, check_mutex_safety, with_telemetry, ExploreError, ExploreStats,
    HeartbeatSink, Telemetry,
};

/// Checks mutual exclusion, then deadlock freedom, of single-trip clients.
fn verify(
    alg: &Tournament,
    cfg: ExploreConfig,
) -> Result<(ExploreStats, ExploreStats), ExploreError> {
    Ok((
        check_mutex_safety(alg, 1, cfg)?,
        check_mutex_progress(alg, 1, cfg)?,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Lamport's fast mutex: constant contention-free cost ==\n");
    let mut table = TextTable::new(["n", "atomicity l", "cf steps", "cf registers"])
        .with_title("Lamport fast mutex, measured on solo runs (paper: 7 steps, 3 registers)");
    for n in [2usize, 16, 256, 4096, 1 << 16] {
        let alg = LamportFast::new(n);
        let trip = measure::contention_free_trip(&alg, ProcessId::new(0))?;
        table.row([
            n.to_string(),
            alg.atomicity().to_string(),
            trip.total.steps.to_string(),
            trip.total.registers.to_string(),
        ]);
    }
    println!("{table}");

    println!("== Theorem 3 tournament: trading atomicity for steps ==\n");
    let n = 1 << 12;
    let mut table = TextTable::new([
        "l",
        "thm1 lower (step)",
        "measured cf steps",
        "paper upper 7log(n)/l",
        "measured cf regs",
        "upper 3log(n)/l",
    ])
    .with_title(format!("Tournament mutex for n = {n}, sweeping atomicity"));
    for l in [1u32, 2, 4, 8, 12] {
        let alg = Tournament::sparse(n, l, &[ProcessId::new(0)]);
        let trip = measure::contention_free_trip(&alg, ProcessId::new(0))?;
        table.row([
            l.to_string(),
            format!("{:.2}", bounds::thm1_step_lower(n as u64, l)),
            trip.total.steps.to_string(),
            bounds::thm3_step_upper(n as u64, l).to_string(),
            trip.total.registers.to_string(),
            bounds::thm3_register_upper(n as u64, l).to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Every measured value sits between the Theorem 1/2 lower bounds and\n\
         the Theorem 3 upper bounds; with 1-bit registers the constant-cost\n\
         fast path is impossible, exactly as the paper proves."
    );

    println!("\n== Exhaustive verification: tournament n=4, every interleaving ==\n");
    let cfg = ExploreConfig::reduced().with_max_states(4_000_000);
    let alg = Tournament::new(4, 1);
    let (safety, progress_stats) = if std::env::args().any(|a| a == "--progress") {
        let tel = Telemetry::new().with_sink(HeartbeatSink::stderr(5.0));
        with_telemetry(&tel, || verify(&alg, cfg))
    } else {
        verify(&alg, cfg)
    }?;
    println!(
        "safety:   {} states, {} transitions in {:.1}ms ({} states/sec)",
        safety.states,
        safety.transitions,
        safety.wall_ns as f64 / 1e6,
        safety.states_per_sec(),
    );
    println!(
        "progress: {} states, {} transitions in {:.1}ms ({} states/sec)",
        progress_stats.states,
        progress_stats.transitions,
        progress_stats.wall_ns as f64 / 1e6,
        progress_stats.states_per_sec(),
    );
    println!(
        "\nno interleaving of four single-trip clients violates mutual\n\
         exclusion or deadlock-freedom (POR + symmetry reduced; rerun\n\
         with -- --progress or CFC_PROGRESS=1 for a live heartbeat)."
    );
    Ok(())
}

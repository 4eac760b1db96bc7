//! Static reduction-hook lint across every model family.
//!
//! Extracts each process's solo control automaton (`cfc-verify`'s
//! `analysis` module) and checks the hand-written reduction hooks
//! against it: every `may_access` declaration must cover the
//! location's future-access fixpoint, `location` keys must be
//! congruent, and `fingerprint`s must not collide across locations.
//! A clean report is the precondition for trusting any reduced
//! verdict — CI runs this with `--deny-findings`.
//!
//! Run with: `cargo run --example lint_models [-- --deny-findings] [-- --progress]`
//!
//! `--progress` installs a stderr heartbeat sink (the same one
//! `CFC_PROGRESS=1` enables on the exhaustive drivers), so each
//! family's `lint` phase span is visible live; the per-family wall
//! time in the report comes from the same telemetry clock.

use std::hash::Hash;
use std::process::ExitCode;

use cfc::core::{Layout, Process, ProcessId};
use cfc::mutex::{Bakery, DetectionAlgorithm, MutexAlgorithm, PetersonTwo, Splitter, Tournament};
use cfc::naming::{NamingAlgorithm, TafTree, TasScan};
use cfc::verify::{lint_model, with_telemetry, HeartbeatSink, Telemetry};

fn lint<P>(name: &str, layout: &Layout, procs: &[P]) -> usize
where
    P: Process + Clone + Eq + Hash,
{
    let report = lint_model(layout, procs);
    println!(
        "{name:<14} processes {:>2}   locations {:>4}   findings {:>2}   wall {:>7.3}ms",
        report.processes,
        report.locations,
        report.findings.len(),
        report.wall_ns as f64 / 1e6,
    );
    for f in &report.findings {
        println!("    {f}");
    }
    report.findings.len()
}

fn lint_all() -> usize {
    let mut total = 0usize;

    let peterson = PetersonTwo::new();
    let procs: Vec<_> = (0..2)
        .map(|i| peterson.client_with_cs(ProcessId::new(i), 1, 1))
        .collect();
    total += lint("peterson-two", &peterson.layout(), &procs);

    let bakery = Bakery::new(3);
    let procs: Vec<_> = (0..3)
        .map(|i| bakery.client_with_cs(ProcessId::new(i), 1, 1))
        .collect();
    total += lint("bakery", &bakery.layout(), &procs);

    let tournament = Tournament::new(3, 1);
    let procs: Vec<_> = (0..3)
        .map(|i| tournament.client_with_cs(ProcessId::new(i), 1, 1))
        .collect();
    total += lint("tournament", &tournament.layout(), &procs);

    let scan = TasScan::new(4);
    total += lint("tas-scan", &scan.layout(), &scan.processes());

    let taf = TafTree::new(4).expect("power-of-two size");
    total += lint("taf-tree", &taf.layout(), &taf.processes());

    let splitter = Splitter::new(3);
    let procs: Vec<_> = (0..3)
        .map(|i| splitter.process(ProcessId::new(i)))
        .collect();
    total += lint("splitter", &splitter.layout(), &procs);

    total
}

fn main() -> ExitCode {
    let deny = std::env::args().any(|a| a == "--deny-findings");
    let progress = std::env::args().any(|a| a == "--progress");

    println!("== Reduction-hook lint: solo control automata ==\n");

    let total = if progress {
        let tel = Telemetry::new().with_sink(HeartbeatSink::stderr(1.0));
        with_telemetry(&tel, lint_all)
    } else {
        lint_all()
    };

    println!("\n{total} finding(s) across all families");
    if deny && total > 0 {
        eprintln!("--deny-findings: failing");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

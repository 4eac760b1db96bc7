//! The reduction sweep: states visited and wall time of the exhaustive
//! explorer with partial-order and symmetry reduction off/on, across
//! representative mutex and naming configurations — the measurement
//! behind the "more scenarios, faster" claim of the reduction subsystem.
//!
//! The table shows the two regimes clearly: identical-process naming
//! configurations collapse ~20x under symmetry (and the eight-walker
//! tree, hopeless naively at ~15^8 joint states, finishes in milliseconds),
//! while pid-distinguished tournament clients gain from ample sets alone.
//!
//! A second table sweeps the **progress checker** over the same reduction
//! variants: since `check_progress` runs on the reduced graph (and
//! its ample mode drops the invisibility condition), the speedup of the
//! deadlock-freedom checks is measured here rather than asserted.
//!
//! A third table sweeps the **fair-cycle liveness checker**
//! (`check_mutex_starvation` / `check_naming_lockout`) and emits the
//! `liveness_sweep` CSV artifact: verdict, bypass bound, and per-victim
//! graph sizes across the same reduction variants.

use std::time::Duration;

use cfc_bounds::table::TextTable;
use cfc_mutex::Splitter;
use cfc_mutex::{Bakery, LamportFast, PetersonTwo, TasSpin, Tournament};
use cfc_naming::{TafTree, TasScan, TasTarTree};
use cfc_verify::explore::ExploreConfig;
use cfc_verify::{
    check_detection_safety, check_mutex_progress, check_mutex_safety, check_mutex_starvation,
    check_naming_lockout, check_naming_progress, check_naming_uniqueness, ExploreError,
    ExploreStats, LivenessReport, LivenessVerdict, MayAccessMode,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn variants(max_states: usize, max_crashes: u32) -> [(&'static str, ExploreConfig); 4] {
    let base = ExploreConfig {
        max_states,
        max_crashes,
        por: false,
        symmetry: false,
        ..ExploreConfig::default()
    };
    [
        ("baseline", base),
        ("por", ExploreConfig { por: true, ..base }),
        (
            "sym",
            ExploreConfig {
                symmetry: true,
                ..base
            },
        ),
        (
            "por+sym",
            ExploreConfig {
                por: true,
                symmetry: true,
                ..base
            },
        ),
    ]
}

/// Mean per-state footprint — packed records plus digest-index and edge
/// storage — in bytes per stored state.
fn bytes_per_state(total_bytes: u64, states: usize) -> String {
    if states == 0 {
        return "-".into();
    }
    format!("{:.1}", total_bytes as f64 / states as f64)
}

fn run(
    label: &str,
    f: impl Fn(ExploreConfig) -> Result<ExploreStats, ExploreError>,
    crashes: u32,
    skip_unreduced: bool,
    table: &mut TextTable,
) {
    for (variant, cfg) in variants(4_000_000, crashes) {
        if skip_unreduced && !cfg.symmetry {
            table.row([
                label.to_string(),
                variant.to_string(),
                "~15^8".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "(skipped)".into(),
                "-".into(),
            ]);
            continue;
        }
        let stats = f(cfg).expect("sweep configs pass their check");
        table.row([
            label.to_string(),
            variant.to_string(),
            stats.states.to_string(),
            stats.transitions.to_string(),
            stats.terminals.to_string(),
            stats.states_pruned_por.to_string(),
            stats.orbits_merged.to_string(),
            bytes_per_state(stats.footprint.total_bytes(), stats.states),
            stats.footprint.arena_bytes.to_string(),
            format!("{:.1}", stats.wall_ns as f64 / 1e6),
            stats.states_per_sec().to_string(),
        ]);
    }
}

fn print_progress_sweep() {
    println!("\n=== Progress-check reduction sweep ===\n");
    let mut table = TextTable::new([
        "config",
        "reduction",
        "states",
        "transitions",
        "terminals",
        "pruned(POR)",
        "orbits merged",
        "bytes_per_state",
        "arena_bytes",
        "wall_ms",
        "states_per_sec",
    ]);
    run(
        "progress tournament n=4 l=1",
        |cfg| check_mutex_progress(&Tournament::new(4, 1), 1, cfg),
        0,
        false,
        &mut table,
    );
    run(
        "progress tournament n=5 l=1",
        |cfg| check_mutex_progress(&Tournament::new(5, 1), 1, cfg),
        0,
        false,
        &mut table,
    );
    run(
        "progress bakery n=2",
        |cfg| check_mutex_progress(&Bakery::new(2), 1, cfg),
        0,
        false,
        &mut table,
    );
    run(
        "progress tas-scan n=4 crashes=2",
        |cfg| check_naming_progress(&TasScan::new(4), 2, cfg),
        2,
        false,
        &mut table,
    );
    run(
        "progress taf-tree n=8",
        |cfg| check_naming_progress(&TafTree::new(8).unwrap(), 0, cfg),
        0,
        true, // naive joint space ~15^8: only the symmetric variants finish
        &mut table,
    );
    println!("{table}");
    if let Ok(path) = cfc_bench::write_artifact("progress_sweep", &table) {
        println!("(csv artifact: {})\n", path.display());
    }
    println!(
        "deadlock-freedom on the reduced graph: naming configs collapse\n\
         under the canonical quotient exactly like the safety explorer,\n\
         and tournament clients gain from the invisibility-free ample\n\
         mode — process counts the un-reduced progress graph cannot\n\
         reach now verify (see tests/progress_reduction.rs).\n"
    );
}

fn run_liveness(
    label: &str,
    f: impl Fn(ExploreConfig) -> Result<LivenessReport, ExploreError>,
    skip_unreduced: bool,
    table: &mut TextTable,
) {
    for (variant, cfg) in variants(6_000_000, 0) {
        if skip_unreduced && !cfg.symmetry {
            table.row([
                label.to_string(),
                variant.to_string(),
                "-".into(),
                "-".into(),
                "~15^8".into(),
                "-".into(),
                "-".into(),
                "(skipped)".into(),
                "-".into(),
            ]);
            continue;
        }
        let report = f(cfg).expect("sweep configs fit the budget");
        let (verdict, bypass) = match &report.verdict {
            LivenessVerdict::StarvationFree {
                bypass: Some(b),
                witness,
            } => (
                "starvation-free".to_string(),
                match witness {
                    // Every finite bound rides with its replayable
                    // overtaking schedule (the witness guarantee).
                    Some(w) => format!("{b} (witnessed, {}-step run)", w.schedule().len()),
                    None => format!("{b} (no engaged waiter)"),
                },
            ),
            LivenessVerdict::StarvationFree { bypass: None, .. } => {
                ("starvation-free".to_string(), "unbounded".to_string())
            }
            LivenessVerdict::Starvable(w) => (
                format!("starvable (loop {})", w.lasso.cycle.len()),
                "-".to_string(),
            ),
        };
        table.row([
            label.to_string(),
            variant.to_string(),
            verdict,
            bypass,
            report.stats.states.to_string(),
            report.victims.to_string(),
            report.graphs.to_string(),
            format!("{:.1}", report.stats.wall_ns as f64 / 1e6),
            report.stats.states_per_sec().to_string(),
        ]);
    }
}

fn print_liveness_sweep() {
    println!("\n=== Fair-cycle liveness sweep ===\n");
    let mut table = TextTable::new([
        "config",
        "reduction",
        "verdict",
        "bypass",
        "states",
        "victims",
        "graphs",
        "wall_ms",
        "states_per_sec",
    ]);
    run_liveness(
        "starvation peterson",
        |cfg| check_mutex_starvation(&PetersonTwo::new(), cfg),
        false,
        &mut table,
    );
    run_liveness(
        "starvation tas-spin n=3",
        |cfg| check_mutex_starvation(&TasSpin::new(3), cfg),
        false,
        &mut table,
    );
    run_liveness(
        "starvation lamport n=2",
        |cfg| check_mutex_starvation(&LamportFast::new(2), cfg),
        false,
        &mut table,
    );
    run_liveness(
        "starvation bakery n=2",
        |cfg| check_mutex_starvation(&Bakery::new(2), cfg),
        false,
        &mut table,
    );
    run_liveness(
        "starvation tournament n=4 l=1",
        |cfg| check_mutex_starvation(&Tournament::new(4, 1), cfg),
        false,
        &mut table,
    );
    run_liveness(
        "lockout taf-tree n=4",
        |cfg| check_naming_lockout(&TafTree::new(4).unwrap(), 0, cfg),
        false,
        &mut table,
    );
    run_liveness(
        "lockout taf-tree n=8",
        |cfg| check_naming_lockout(&TafTree::new(8).unwrap(), 0, cfg),
        true, // naive joint space ~15^8: only the symmetric variants finish
        &mut table,
    );
    println!("{table}");
    if let Ok(path) = cfc_bench::write_artifact("liveness_sweep", &table) {
        println!("(csv artifact: {})\n", path.display());
    }
    println!(
        "fair-cycle liveness on the shared engine: Peterson and the\n\
         Peterson-node tournament verify starvation-free (the tournament\n\
         with unbounded bypass — no wait-free doorway), Lamport's fast\n\
         path starves with a concrete validated lasso, and the per-victim\n\
         stabilizer quotient is what lets the eight-walker tree's lockout\n\
         check finish at all.\n"
    );
}

fn print_sweep() {
    println!("\n=== Explorer reduction sweep ===\n");
    let mut table = TextTable::new([
        "config",
        "reduction",
        "states",
        "transitions",
        "terminals",
        "pruned(POR)",
        "orbits merged",
        "bytes_per_state",
        "arena_bytes",
        "wall_ms",
        "states_per_sec",
    ]);
    run(
        "tas-scan n=4 crashes=2",
        |cfg| check_naming_uniqueness(&TasScan::new(4), 2, cfg),
        2,
        false,
        &mut table,
    );
    run(
        "taf-tree n=4 crashes=2",
        |cfg| check_naming_uniqueness(&TafTree::new(4).unwrap(), 2, cfg),
        2,
        false,
        &mut table,
    );
    run(
        "tas-tar-tree n=4 crashes=1",
        |cfg| check_naming_uniqueness(&TasTarTree::new(4).unwrap(), 1, cfg),
        1,
        false,
        &mut table,
    );
    run(
        "taf-tree n=8 (8 walkers)",
        |cfg| check_naming_uniqueness(&TafTree::new(8).unwrap(), 0, cfg),
        0,
        true, // naive joint space ~15^8: only the symmetric variants finish
        &mut table,
    );
    run(
        "tournament n=4 l=1",
        |cfg| check_mutex_safety(&Tournament::new(4, 1), 1, cfg),
        0,
        false,
        &mut table,
    );
    println!("{table}");
    if let Ok(path) = cfc_bench::write_artifact("reduction_sweep", &table) {
        println!("(csv artifact: {})\n", path.display());
    }
    println!(
        "identical-process naming configs collapse under symmetry (orbit\n\
         merging), pid-distinguished tournament clients under ample sets;\n\
         the eight-walker tree — naively ~15^8 joint states — explores to\n\
         quiescence only with reduction.\n"
    );
}

/// Runs one configuration under both POR variants × both may-access
/// modes, tabulating the automaton rows with their state-count ratio
/// against the declared-hook oracle.
fn run_modes(
    label: &str,
    f: impl Fn(ExploreConfig) -> Result<ExploreStats, ExploreError>,
    table: &mut TextTable,
) {
    let base = ExploreConfig {
        max_states: 4_000_000,
        max_crashes: 0,
        por: true,
        symmetry: false,
        ..ExploreConfig::default()
    };
    for (variant, cfg) in [
        ("por", base),
        (
            "por+sym",
            ExploreConfig {
                symmetry: true,
                ..base
            },
        ),
    ] {
        let mut declared_states = 0usize;
        for mode in [
            MayAccessMode::Declared,
            MayAccessMode::Automaton,
            MayAccessMode::Dynamic,
        ] {
            let stats = f(cfg.with_may_access(mode)).expect("sweep configs are safe");
            let ratio = match mode {
                MayAccessMode::Declared => {
                    declared_states = stats.states;
                    "1.00".to_string()
                }
                MayAccessMode::Automaton | MayAccessMode::Dynamic => {
                    format!("{:.2}", stats.states as f64 / declared_states.max(1) as f64)
                }
            };
            table.row([
                label.to_string(),
                variant.to_string(),
                match mode {
                    MayAccessMode::Declared => "declared".to_string(),
                    MayAccessMode::Automaton => "automaton".to_string(),
                    MayAccessMode::Dynamic => "dynamic".to_string(),
                },
                stats.states.to_string(),
                stats.transitions.to_string(),
                stats.states_pruned_por.to_string(),
                ratio,
                format!("{:.1}", stats.wall_ns as f64 / 1e6),
                stats.states_per_sec().to_string(),
            ]);
        }
    }
}

fn print_may_access_sweep() {
    println!("\n=== May-access mode sweep (declared hooks vs control automaton) ===\n");
    let mut table = TextTable::new([
        "config",
        "reduction",
        "may_access",
        "states",
        "transitions",
        "pruned(POR)",
        "states_vs_declared",
        "wall_ms",
        "states_per_sec",
    ]);
    run_modes(
        "bakery n=3 trips=1",
        |cfg| check_mutex_safety(&Bakery::new(3), 1, cfg),
        &mut table,
    );
    run_modes(
        "peterson trips=2",
        |cfg| check_mutex_safety(&PetersonTwo::new(), 2, cfg),
        &mut table,
    );
    run_modes(
        "tournament n=4 l=1",
        |cfg| check_mutex_safety(&Tournament::new(4, 1), 1, cfg),
        &mut table,
    );
    run_modes(
        "splitter n=3 (detection)",
        |cfg| check_detection_safety(&Splitter::new(3), cfg),
        &mut table,
    );
    run_modes(
        "tas-scan n=4",
        |cfg| check_naming_uniqueness(&TasScan::new(4), 0, cfg),
        &mut table,
    );
    println!("{table}");
    if let Ok(path) = cfc_bench::write_artifact("may_access_sweep", &table) {
        println!("(csv artifact: {})\n", path.display());
    }
    println!(
        "per-location future-access sets vs the hand-written may_access\n\
         hooks: configs whose declared hooks are location-insensitive\n\
         (bakery's whole-array scan, the splitter's whole protocol) prune\n\
         strictly more under the automaton, while already-sharp hooks\n\
         (tas-scan's settled prefix) hold their ground — the ratio column\n\
         is the price of a lazy hook, measured.\n"
    );
}

/// Runs one configuration under the static automaton oracle and the
/// dynamic (split-future + sleep-set) mode, tabulating the dynamic row
/// with its pruning ratio against the static one. POR only, no
/// symmetry, no crashes: the regime where sleep sets engage.
fn run_dynamic(
    label: &str,
    f: impl Fn(ExploreConfig) -> Result<ExploreStats, ExploreError>,
    table: &mut TextTable,
) {
    let base = ExploreConfig {
        max_states: 4_000_000,
        max_crashes: 0,
        por: true,
        symmetry: false,
        ..ExploreConfig::default()
    };
    let mut static_states = 0usize;
    let mut static_transitions = 0u64;
    for mode in [MayAccessMode::Automaton, MayAccessMode::Dynamic] {
        let stats = f(base.with_may_access(mode)).expect("sweep configs are safe");
        let (mode_name, state_ratio, transition_ratio) = match mode {
            MayAccessMode::Automaton => {
                static_states = stats.states;
                static_transitions = stats.transitions;
                ("automaton", "1.00".to_string(), "1.00".to_string())
            }
            MayAccessMode::Dynamic => (
                "dynamic",
                format!("{:.2}", stats.states as f64 / static_states.max(1) as f64),
                format!(
                    "{:.2}",
                    stats.transitions as f64 / static_transitions.max(1) as f64
                ),
            ),
            MayAccessMode::Declared => unreachable!("dynamic sweep runs only the oracle pair"),
        };
        table.row([
            label.to_string(),
            mode_name.to_string(),
            stats.states.to_string(),
            stats.transitions.to_string(),
            stats.states_pruned_por.to_string(),
            stats.transitions_slept.to_string(),
            state_ratio,
            transition_ratio,
            format!("{:.1}", stats.wall_ns as f64 / 1e6),
            stats.states_per_sec().to_string(),
        ]);
    }
}

fn print_dynamic_sweep() {
    println!("\n=== Dynamic reduction sweep (static automaton vs observed conflicts) ===\n");
    let mut table = TextTable::new([
        "config",
        "may_access",
        "states",
        "transitions",
        "pruned(POR)",
        "slept",
        "states_vs_static",
        "transitions_vs_static",
        "wall_ms",
        "states_per_sec",
    ]);
    run_dynamic(
        "bakery n=3 trips=1",
        |cfg| check_mutex_safety(&Bakery::new(3), 1, cfg),
        &mut table,
    );
    run_dynamic(
        "peterson trips=2",
        |cfg| check_mutex_safety(&PetersonTwo::new(), 2, cfg),
        &mut table,
    );
    run_dynamic(
        "tournament n=4 l=1",
        |cfg| check_mutex_safety(&Tournament::new(4, 1), 1, cfg),
        &mut table,
    );
    run_dynamic(
        "splitter n=3 (detection)",
        |cfg| check_detection_safety(&Splitter::new(3), cfg),
        &mut table,
    );
    run_dynamic(
        "tas-scan n=4",
        |cfg| check_naming_uniqueness(&TasScan::new(4), 0, cfg),
        &mut table,
    );
    println!("{table}");
    if let Ok(path) = cfc_bench::write_artifact("dynamic_sweep", &table) {
        println!("(csv artifact: {})\n", path.display());
    }
    println!(
        "observed conflicts vs the static future-set oracle: the split\n\
         read/write future sets commute steps the union set cannot (two\n\
         future readers of the same flag are independent; the union view\n\
         calls them conflicting), and the sleep-set pass then skips\n\
         transitions whose interleavings a sibling branch already covers\n\
         — the `slept` column counts those, the ratio columns price the\n\
         static over-approximation.\n"
    );
}

fn bench_reductions(c: &mut Criterion) {
    print_sweep();
    print_progress_sweep();
    print_liveness_sweep();
    print_may_access_sweep();
    print_dynamic_sweep();

    let mut group = c.benchmark_group("reduction/tas_scan_n4_c2");
    for (variant, cfg) in variants(4_000_000, 2) {
        group.bench_with_input(BenchmarkId::from_parameter(variant), &cfg, |b, &cfg| {
            b.iter(|| check_naming_uniqueness(&TasScan::new(4), 2, cfg).unwrap());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("reduction/taf_tree_8_walkers");
    for (variant, cfg) in variants(4_000_000, 0) {
        if !cfg.symmetry {
            continue;
        }
        group
            .measurement_time(Duration::from_secs(2))
            .bench_with_input(BenchmarkId::from_parameter(variant), &cfg, |b, &cfg| {
                b.iter(|| check_naming_uniqueness(&TafTree::new(8).unwrap(), 0, cfg).unwrap());
            });
    }
    group.finish();
}

criterion_group!(benches, bench_reductions);
criterion_main!(benches);

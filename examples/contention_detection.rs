//! Contention detection (Section 2.3) and the executable lower-bound
//! machinery: the splitter family, the Lemma 1 reduction, the Lemma 2
//! merge attack, and a real torn-write bug found by exhaustive
//! exploration.
//!
//! Run with: `cargo run --example contention_detection`

use cfc::bounds::table::TextTable;
use cfc::core::ProcessId;
use cfc::mutex::{
    measure, BrokenDetector, ChunkedSplitter, DetectionAlgorithm, LamportFast, MutexDetector,
    Splitter, SplitterTree,
};
use cfc::verify::explore::ExploreConfig;
use cfc::verify::{check_detection_safety, merge_attack, ExploreError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Contention-free cost of detection ==\n");
    let n = 1 << 12;
    let mut table = TextTable::new(["detector", "l", "cf steps", "cf registers"])
        .with_title(format!("solo-run cost at n = {n}"));
    let splitter = Splitter::new(n);
    let c = measure::contention_free_detection(&splitter, ProcessId::new(7))?;
    table.row([
        splitter.name().to_string(),
        splitter.atomicity().to_string(),
        c.steps.to_string(),
        c.registers.to_string(),
    ]);
    for l in [1u32, 3, 6] {
        let tree = SplitterTree::new(n, l);
        let c = measure::contention_free_detection(&tree, ProcessId::new(7))?;
        table.row([
            format!("{} (depth {})", tree.name(), tree.depth()),
            l.to_string(),
            c.steps.to_string(),
            c.registers.to_string(),
        ]);
    }
    let reduction = MutexDetector::new(LamportFast::new(n));
    let c = measure::contention_free_detection(&reduction, ProcessId::new(7))?;
    table.row([
        reduction.name().to_string(),
        reduction.atomicity().to_string(),
        c.steps.to_string(),
        c.registers.to_string(),
    ]);
    println!("{table}");
    println!(
        "Unlike mutual exclusion, detection also has *bounded worst-case*\n\
         step complexity O(ceil(log n / l)) — a splitter-tree process halts\n\
         within 4*depth of its own steps under any schedule.\n"
    );

    println!("== Lemma 2 merge attack ==\n");
    for (name, resists) in [
        (
            "splitter (n=4)",
            merge_attack(&Splitter::new(4), ProcessId::new(0), ProcessId::new(1))?.is_none(),
        ),
        (
            "detect(lamport-fast) (n=3)",
            merge_attack(
                &MutexDetector::new(LamportFast::new(3)),
                ProcessId::new(0),
                ProcessId::new(2),
            )?
            .is_none(),
        ),
    ] {
        println!("{name}: Lemma 2 condition holds, merge attack impossible = {resists}");
    }
    let witness = merge_attack(
        &BrokenDetector::new(2),
        ProcessId::new(0),
        ProcessId::new(1),
    )?
    .expect("the broken detector must fall");
    println!("\nbroken-constant-detector: ATTACKED — the merged run below has two winners:\n");
    println!("{witness}");

    println!("== A real bug found by exhaustive exploration ==\n");
    println!(
        "The chunked splitter writes its id across ceil(log n / l) sub-atomic\n\
         chunks. It is safe for n = 2 but NOT for n = 3: a straggler's chunk\n\
         write can hand two leaders their own ids from different mixes of x."
    );
    match check_detection_safety(&ChunkedSplitter::new(3, 1), ExploreConfig::default()) {
        Err(ExploreError::Violation(v)) => {
            println!("\nexplorer verdict: UNSAFE — {}", v.message);
            println!("violating schedule ({} events): {v}", v.schedule.len());
        }
        other => println!("unexpected result: {other:?}"),
    }
    let stats = check_detection_safety(&SplitterTree::new(3, 1), ExploreConfig::default())?;
    println!(
        "\nsplitter-tree (the correct construction) explored exhaustively: \
         {} states, {} terminals, safe.",
        stats.states, stats.terminals
    );
    Ok(())
}

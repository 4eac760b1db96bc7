//! The naming problem across bit-operation models: regenerates the
//! paper's closing table empirically, demonstrates crash tolerance
//! (wait-freedom) and model duality.
//!
//! Run with: `cargo run --example naming_models`

use cfc::bounds::naming::{tight_bound, Measure, ModelClass};
use cfc::bounds::table::TextTable;
use cfc::core::{FaultPlan, Lockstep, ProcessId};
use cfc::naming::{check, Dualized, NamingAlgorithm, TafTree, TasReadSearch, TasScan, TasTarTree};
use cfc::verify::naming_profile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16usize;

    println!("== Measured naming complexities at n = {n} ==\n");
    let mut table = TextTable::new([
        "algorithm",
        "model",
        "cf steps",
        "cf registers",
        "wc steps",
        "wc registers",
    ])
    .with_title(
        "contention-free = sequential schedule; worst-case = lockstep + random adversaries",
    );

    let mut render = |name: &str, model: String, p: cfc::verify::NamingProfile| {
        table.row([
            name.to_string(),
            model,
            p.contention_free.steps.to_string(),
            p.contention_free.registers.to_string(),
            p.worst_case.steps.to_string(),
            p.worst_case.registers.to_string(),
        ]);
    };

    let scan = TasScan::new(n);
    render(
        "tas-scan",
        scan.model().to_string(),
        naming_profile(&scan, 20)?,
    );
    let search = TasReadSearch::new(n);
    render(
        "tas-read-search",
        search.model().to_string(),
        naming_profile(&search, 20)?,
    );
    let tt = TasTarTree::new(n)?;
    render(
        "tas-tar-tree",
        tt.model().to_string(),
        naming_profile(&tt, 20)?,
    );
    let taf = TafTree::new(n)?;
    render(
        "taf-tree",
        taf.model().to_string(),
        naming_profile(&taf, 20)?,
    );
    println!("{table}");

    println!("== The paper's tight-bound table, evaluated at n = {n} ==\n");
    let mut table = TextTable::new(["measure", "tas", "read+tas", "read+tas+tar", "taf", "rmw"])
        .with_title("Tight bounds for naming (Section 3.3)");
    for measure in Measure::ALL {
        let mut row = vec![measure.to_string()];
        for class in ModelClass::ALL {
            let b = tight_bound(class, measure);
            row.push(format!("{} = {}", b.symbol(), b.eval(n as u64)));
        }
        table.row(row);
    }
    println!("{table}");

    println!("== Wait-freedom under crashes ==\n");
    let faults = FaultPlan::new()
        .with_crash(ProcessId::new(0), 1)
        .with_crash(ProcessId::new(5), 2)
        .with_crash(ProcessId::new(9), 0);
    let run = check::run_checked(&TafTree::new(n)?, Lockstep::new(), faults)?;
    let named = run.names.iter().flatten().count();
    println!(
        "taf-tree with 3 crashed processes: {named}/{n} survivors named uniquely, \
         max steps {}",
        run.steps.iter().max().unwrap()
    );

    println!("\n== Duality (Section 3.2) ==\n");
    let dual = Dualized::new(TasScan::new(8));
    println!(
        "dual(tas-scan) runs in model {{{}}} over bits initialized to 1",
        dual.model()
    );
    let run = check::run_checked(&dual, Lockstep::new(), FaultPlan::new())?;
    println!(
        "its lockstep names: {:?} — identical to tas-scan's, with identical complexity",
        run.names.iter().flatten().collect::<Vec<_>>()
    );
    Ok(())
}

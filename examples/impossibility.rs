//! The executable impossibility: without read–modify–write, identical
//! processes cannot break symmetry (Section 3.1's remark, plus the engine
//! of Theorem 6).
//!
//! Run with: `cargo run --example impossibility`

use cfc::core::BitOp;
use cfc::naming::{
    impossibility::lockstep_symmetry_witness, FlipReadAttempt, Model, NamingAlgorithm, TafTree,
    TasScan,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Which of the 256 models can break symmetry? ==\n");
    let breaking = Model::all_models().filter(|m| m.breaks_symmetry()).count();
    println!(
        "{breaking}/256 models contain a mutate-and-return operation \
         (test-and-set, test-and-reset, or test-and-flip);"
    );
    println!(
        "the remaining {} cannot solve naming deterministically.\n",
        256 - breaking
    );
    for ops in [
        vec![BitOp::Read, BitOp::Write0, BitOp::Write1],
        vec![BitOp::Flip, BitOp::Read],
        vec![BitOp::TestAndSet],
    ] {
        let m = Model::new(&ops);
        println!(
            "  {{{m}}} breaks symmetry: {}",
            if m.breaks_symmetry() {
                "yes"
            } else {
                "NO — naming impossible"
            }
        );
    }

    println!("\n== The impossibility, executed ==\n");
    println!(
        "A plausible attempt: emulate the test-and-flip tree with flip + read\n\
         (flip the node bit, then read it, route on the value).\n"
    );
    let attempt = FlipReadAttempt::new(8)?;
    let w = lockstep_symmetry_witness(&attempt, 10_000)?;
    println!(
        "{}: driven in lockstep for {} rounds — processes stayed bitwise\n\
         identical the whole time: {}\n",
        attempt.name(),
        w.rounds,
        w.stayed_identical
    );

    let taf = TafTree::new(8)?;
    let w = lockstep_symmetry_witness(&taf, 10_000)?;
    println!(
        "taf-tree (real RMW): diverged after round {} — identical? {}",
        w.rounds, w.stayed_identical
    );
    let scan = TasScan::new(8);
    let w = lockstep_symmetry_witness(&scan, 10_000)?;
    println!(
        "tas-scan (real RMW): diverged after round {} — identical? {}",
        w.rounds, w.stayed_identical
    );
    println!(
        "\nOne atomic mutate-and-return is exactly the power needed to hand\n\
         the first and second arrival different answers."
    );
    Ok(())
}

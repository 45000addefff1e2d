//! Quickstart: build a network, optimize it with the SBM script, verify
//! equivalence and inspect the result.
//!
//! Run with: `cargo run --example quickstart --release`

use sbm::aig::Aig;
use sbm::check::CheckLevel;
use sbm::core::script::{resyn2rs, sbm_script_report, SbmOptions};
use sbm::core::verify::equivalent;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deliberately messy circuit: redundancy, duplication and an
    // unbalanced chain.
    let mut aig = Aig::new();
    let x: Vec<_> = (0..6).map(|_| aig.add_input()).collect();
    let t1 = aig.and(x[0], x[1]);
    let t2 = aig.and(x[0], !x[1]);
    let redundant = aig.or(t1, t2); // == x0
    let mut chain = redundant;
    for &xi in &x[2..] {
        chain = aig.and(chain, xi);
    }
    let dup_a = aig.and(x[2], x[3]);
    let dup_b = aig.and(x[4], x[5]);
    let dup_ab = aig.and(dup_a, dup_b);
    let duplicate = aig.and(dup_ab, x[0]); // same function as `chain`
    let f = aig.or(chain, duplicate);
    let g = aig.xor(chain, duplicate); // == 0
    aig.add_output(f);
    aig.add_output(g);
    let aig = aig.cleanup();

    println!(
        "original:  {:4} AND nodes, {} levels",
        aig.num_ands(),
        aig.depth()
    );

    let baseline = resyn2rs(&aig);
    println!(
        "resyn2rs:  {:4} AND nodes, {} levels",
        baseline.num_ands(),
        baseline.depth()
    );

    // Options come from the validated builder; nonsense values (zero
    // threads, zero budgets, …) are rejected at build() time.
    // `Boundaries` additionally validates the input and output networks
    // against the structural invariants of `sbm-check`.
    let options = SbmOptions::builder()
        .num_threads(2)
        .check_level(CheckLevel::Boundaries)
        .build()?;
    let run = sbm_script_report(&aig, &options);
    let optimized = run.aig;
    println!(
        "SBM:       {:4} AND nodes, {} levels",
        optimized.num_ands(),
        optimized.depth()
    );

    assert!(
        equivalent(&aig, &optimized),
        "optimization must preserve function"
    );
    println!("equivalence: proven by SAT miter");
    assert!(run.stats.check_violations.is_empty());
    println!(
        "invariants:  clean at check level {}",
        CheckLevel::Boundaries
    );
    Ok(())
}

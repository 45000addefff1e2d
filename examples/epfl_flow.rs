//! The EPFL-competition flow on one benchmark: generate, optimize with
//! both scripts, map to LUT-6 and compare areas (a single row of the
//! paper's Table I).
//!
//! Run with: `cargo run --example epfl_flow --release -- [benchmark]`

use sbm::core::script::{resyn2rs_fixpoint, sbm_script_report, SbmOptions};
use sbm::epfl::{generate, Scale};
use sbm::lutmap::{map_luts, MapOptions};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "priority".into());
    let Some(aig) = generate(&name, Scale::Reduced) else {
        eprintln!("unknown benchmark {name:?}; known: {:?}", sbm::epfl::NAMES);
        std::process::exit(1);
    };
    println!(
        "{name}: {} inputs / {} outputs, {} AND nodes unoptimized",
        aig.num_inputs(),
        aig.num_outputs(),
        aig.num_ands()
    );

    let baseline = resyn2rs_fixpoint(&aig, 4);
    let base_map = map_luts(&baseline, &MapOptions::default());
    println!(
        "baseline (resyn2rs*):  {:5} AIG nodes -> {:4} LUT-6, {} levels",
        baseline.num_ands(),
        base_map.num_luts(),
        base_map.depth()
    );

    let sbm = sbm_script_report(&aig, &SbmOptions::default()).aig;
    let sbm_map = map_luts(&sbm, &MapOptions::default());
    println!(
        "SBM script:            {:5} AIG nodes -> {:4} LUT-6, {} levels",
        sbm.num_ands(),
        sbm_map.num_luts(),
        sbm_map.depth()
    );
}

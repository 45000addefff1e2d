// Test code: a panic IS the failure report (clippy.toml only relaxes
// unwrap/expect inside #[test] fns, not test-file helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! End-to-end integration tests across all crates: generate realistic
//! benchmarks, run the full SBM script, and prove equivalence with SAT.

use sbm::core::script::{resyn2rs_fixpoint, sbm_script_report, SbmOptions};
use sbm::epfl::{generate, Scale};
use sbm::lutmap::{map_luts, MapOptions};
use sbm::sat::{EquivalenceOracle, MiterOracle, Verdict};

/// Benchmarks small enough for full SAT proofs in a test run.
const SMALL: [&str; 5] = ["int2float", "ctrl", "router", "priority", "dec"];

#[test]
fn sbm_script_preserves_function_on_epfl_benchmarks() {
    for name in SMALL {
        let aig = generate(name, Scale::Reduced).expect("known benchmark");
        let optimized = sbm_script_report(&aig, &SbmOptions::default()).aig;
        assert!(
            optimized.num_ands() <= aig.num_ands(),
            "{name}: {} -> {}",
            aig.num_ands(),
            optimized.num_ands()
        );
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent,
            "{name} changed function"
        );
    }
}

#[test]
fn sbm_beats_or_ties_baseline() {
    let mut wins = 0usize;
    let mut total = 0usize;
    for name in SMALL {
        let aig = generate(name, Scale::Reduced).expect("known benchmark");
        let baseline = resyn2rs_fixpoint(&aig, 4);
        let sbm = sbm_script_report(&aig, &SbmOptions::default()).aig;
        total += 1;
        assert!(
            sbm.num_ands() <= baseline.num_ands() + baseline.num_ands() / 20,
            "{name}: SBM ({}) much worse than baseline ({})",
            sbm.num_ands(),
            baseline.num_ands()
        );
        if sbm.num_ands() < baseline.num_ands() {
            wins += 1;
        }
    }
    // The paper's claim is that the Boolean methods find gains the
    // baseline misses; on these small circuits both often converge to the
    // same optimum, so require at least one strict win and no losses.
    assert!(wins >= 1, "SBM won only {wins}/{total}");
}

#[test]
fn lut_mapping_of_optimized_networks_is_equivalent() {
    for name in ["int2float", "router"] {
        let aig = generate(name, Scale::Reduced).expect("known benchmark");
        let optimized = sbm_script_report(&aig, &SbmOptions::default()).aig;
        let mapped = map_luts(&optimized, &MapOptions::default());
        // Exhaustive for small input counts, random otherwise.
        let n = aig.num_inputs();
        let patterns: Vec<Vec<bool>> = if n <= 12 {
            (0..1usize << n)
                .map(|m| (0..n).map(|i| (m >> i) & 1 == 1).collect())
                .collect()
        } else {
            let mut state = 0x1357_9BDFu64;
            (0..256)
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            state & 1 == 1
                        })
                        .collect()
                })
                .collect()
        };
        for p in &patterns {
            assert_eq!(mapped.eval(p), aig.eval(p), "{name} mapping mismatch");
        }
    }
}

#[test]
fn aiger_round_trip_of_optimized_network() {
    let aig = generate("int2float", Scale::Reduced).expect("known benchmark");
    let optimized = sbm_script_report(&aig, &SbmOptions::default()).aig;
    let text = sbm::aig::aiger::write(&optimized);
    let back = sbm::aig::aiger::parse(&text).expect("own AIGER output parses");
    assert_eq!(
        MiterOracle::new().check(&optimized, &back),
        Verdict::Equivalent
    );
}

#[test]
fn arbiter_collapses_dramatically() {
    // The paper reports a 1.5× reduction on arbiter; our generated
    // arbiter has heavy chain redundancy that the script must exploit.
    let aig = generate("arbiter", Scale::Reduced).expect("known benchmark");
    let optimized = sbm_script_report(&aig, &SbmOptions::default()).aig;
    assert!(
        optimized.num_ands() < aig.num_ands(),
        "{} -> {}",
        aig.num_ands(),
        optimized.num_ands()
    );
    assert_eq!(
        MiterOracle::new().check(&aig, &optimized),
        Verdict::Equivalent
    );
}

// Test code: a panic IS the failure report (clippy.toml only relaxes
// unwrap/expect inside #[test] fns, not test-file helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Redundancy removal on a real control benchmark: every check must be
//! decided within the default per-check conflict budget, and the result
//! must be proven equivalent to the input.

use sbm::epfl::{generate, Scale};
use sbm::sat::redundancy::{remove_redundancies, RedundancyOptions};
use sbm::sat::{EquivalenceOracle, MiterOracle, Verdict};

#[test]
fn i2c_redundancies_are_all_decided_and_removed() {
    let aig = generate("i2c", Scale::Reduced).expect("known benchmark");
    let options = RedundancyOptions {
        budget: Some(2_000),
        max_checks: 500,
    };
    let run = remove_redundancies(&aig, &options);
    let stats = run.stats;
    assert_eq!(stats.undecided, 0, "{stats:?}");
    assert!(stats.removed >= 1, "{stats:?}");
    assert_eq!(
        stats.checks,
        stats.removed + stats.refuted + stats.undecided
    );
    assert!(run.aig.num_ands() < aig.num_ands());
    assert_eq!(
        MiterOracle::new().check(&aig, &run.aig),
        Verdict::Equivalent
    );
}

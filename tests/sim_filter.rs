// Test code: a panic IS the failure report (clippy.toml only relaxes
// unwrap/expect inside #[test] fns, not test-file helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Cross-crate tests of the shared simulation-signature service: the
//! filter must reject most of mspf's candidate work on real benchmarks
//! without costing any quality, stay deterministic across worker-thread
//! counts, and never reject a candidate that exact (SAT) reasoning
//! would accept.

use proptest::prelude::*;
use sbm::aig::aiger::write as write_aiger;
use sbm::aig::{Aig, Lit, NodeId};
use sbm::budget::Budget;
use sbm::core::engine::{Engine, EngineCtx, Mspf};
use sbm::core::script::{sbm_script_report, SbmOptions};
use sbm::epfl::{generate, Scale};
use sbm::sat::{EquivalenceOracle, MiterOracle, Verdict};
use sbm::sim::{drain_sim_tally, keep_candidate, window_care_mask, SigService};

/// Regression for the filter's whole reason to exist: on the reduced
/// EPFL corpus, signature screening rejects the overwhelming majority
/// of mspf's replacement candidates before any BDD is built, while the
/// optimized result is exactly as small as the unfiltered pass.
#[test]
fn mspf_filter_rejects_most_candidates_without_losing_quality() {
    let mut corpus_hits = 0u64;
    let mut corpus_screened = 0u64;
    for name in ["i2c", "priority"] {
        let aig = generate(name, Scale::Reduced).expect("known benchmark");
        let budget = Budget::unlimited();

        let unfiltered = Mspf::default().optimize(&aig, &EngineCtx::new(&budget));

        let svc = SigService::default();
        let _ = drain_sim_tally();
        let filtered =
            Mspf::default().optimize(&aig, &EngineCtx::new(&budget).with_sim(Some(&svc)));
        let tally = drain_sim_tally();

        let screened = tally.filter_hits + tally.filter_misses;
        assert!(screened > 0, "{name}: the filter was never consulted");
        corpus_hits += tally.filter_hits;
        corpus_screened += screened;
        // Per-benchmark floor; the headline ≥80% bar is held over the
        // whole corpus below (observability-poor networks like the
        // priority chain sit slightly lower individually).
        let rejection = tally.filter_hits as f64 / screened as f64;
        assert!(
            rejection >= 0.7,
            "{name}: filter rejected only {:.1}% of {screened} candidates",
            rejection * 100.0
        );

        // Soundness means zero quality cost: the saved-node count must
        // be no worse than the unfiltered pass on the same input.
        let saved_unfiltered = aig.num_ands() - unfiltered.aig.num_ands();
        let saved_filtered = aig.num_ands() - filtered.aig.num_ands();
        assert!(
            saved_filtered >= saved_unfiltered,
            "{name}: filtered pass saved {saved_filtered} nodes, unfiltered {saved_unfiltered}"
        );
        assert_eq!(
            MiterOracle::new().check(&aig, &filtered.aig),
            Verdict::Equivalent,
            "{name}: filtered result must stay equivalent"
        );
    }
    let corpus_rejection = corpus_hits as f64 / corpus_screened as f64;
    assert!(
        corpus_rejection >= 0.8,
        "corpus: filter rejected only {:.1}% of {corpus_screened} candidates",
        corpus_rejection * 100.0
    );
}

/// The determinism contract, observed end to end: the same script run
/// produces a byte-identical network *and* the same sim-filter counters
/// no matter how many worker threads execute it — with the filter on,
/// and with it off (the filter only skips work; it never picks the
/// schedule).
#[test]
fn sim_counters_identical_across_thread_counts() {
    assert_thread_invariant("i2c", true);
    for name in ["arbiter", "priority"] {
        assert_thread_invariant(name, false);
    }
}

/// Runs the default script on reduced `name` at 1, 2 and 4 threads and
/// requires identical AIGER output and sim counters.
fn assert_thread_invariant(name: &str, sim_filter: bool) {
    let aig = generate(name, Scale::Reduced).expect("known benchmark");
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let options = SbmOptions::builder()
                .num_threads(threads)
                .sim_filter(sim_filter)
                .build()
                .expect("valid options");
            sbm_script_report(&aig, &options)
        })
        .collect();
    let reference = &runs[0];
    let screened = reference.stats.sim.filter_hits + reference.stats.sim.filter_misses;
    assert_eq!(
        screened > 0,
        sim_filter,
        "{name}: the sim filter must screen candidates exactly when it is on"
    );
    let reference_aiger = write_aiger(&reference.aig);
    for (run, threads) in runs[1..].iter().zip([2, 4]) {
        assert_eq!(
            run.stats.sim, reference.stats.sim,
            "{name} (sim filter {sim_filter}): sim counters changed at {threads} threads"
        );
        assert!(
            write_aiger(&run.aig) == reference_aiger,
            "{name} (sim filter {sim_filter}): network changed at {threads} threads ({} vs {} ANDs)",
            run.aig.num_ands(),
            reference.aig.num_ands()
        );
    }
}

#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    steps: Vec<(u8, usize, usize, bool, bool)>,
    witnesses: Vec<Vec<bool>>,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (3usize..=5, 4usize..=18, 0usize..=3).prop_flat_map(|(num_inputs, num_steps, num_cex)| {
        let step = (
            0u8..3,
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            any::<bool>(),
        );
        (
            proptest::collection::vec(step, num_steps),
            proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), num_inputs),
                num_cex,
            ),
        )
            .prop_map(move |(raw, witnesses)| {
                let steps = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(op, a, b, na, nb))| {
                        let pool = num_inputs + i;
                        (op, a as usize % pool, b as usize % pool, na, nb)
                    })
                    .collect();
                Recipe {
                    num_inputs,
                    steps,
                    witnesses,
                }
            })
    })
}

fn build(recipe: &Recipe) -> Aig {
    let mut aig = Aig::new();
    let mut signals: Vec<Lit> = (0..recipe.num_inputs).map(|_| aig.add_input()).collect();
    for &(op, a, b, na, nb) in &recipe.steps {
        let x = signals[a].complement_if(na);
        let y = signals[b].complement_if(nb);
        let s = match op {
            0 => aig.and(x, y),
            1 => aig.or(x, y),
            _ => aig.xor(x, y),
        };
        signals.push(s);
    }
    // Never empty: the recipe always has at least three inputs.
    let last = *signals.last().unwrap_or(&Lit::FALSE);
    aig.add_output(last);
    aig.cleanup()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness of the filter, including after counterexample
    /// refinement: a candidate whose substitution the SAT oracle proves
    /// equivalent is never signature-rejected. The whole network acts as
    /// the window, so the care mask is the true observability set.
    #[test]
    fn equivalent_candidates_are_never_rejected(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let nodes = aig.topo_order();
        let roots: Vec<NodeId> = aig
            .outputs()
            .iter()
            .map(|l| l.node())
            .filter(|n| *n != NodeId::CONST)
            .collect();
        if nodes.is_empty() || roots.is_empty() {
            return; // degenerate network: nothing to filter
        }

        let svc = SigService::default();
        // Refinement must preserve soundness: committed counterexamples
        // only ever add care patterns, never unsound rejections.
        for w in &recipe.witnesses {
            svc.record_cex(w);
        }
        svc.commit_pending();
        let sig = svc.signatures(&aig);

        let mut candidates: Vec<Lit> = vec![Lit::FALSE, Lit::TRUE];
        for id in aig.inputs().iter().copied().chain(nodes.iter().copied()) {
            candidates.push(Lit::new(id, false));
            candidates.push(Lit::new(id, true));
        }
        for &target in &nodes {
            let care = window_care_mask(&aig, &sig, &nodes, &roots, target);
            for &cand in &candidates {
                if cand.node() == target {
                    continue;
                }
                let mut work = aig.clone();
                if work.replace(target, cand).is_err() {
                    continue; // would create a cycle: not a legal move
                }
                let replaced = work.cleanup();
                if MiterOracle::new().check(&aig, &replaced) == Verdict::Equivalent {
                    prop_assert!(
                        keep_candidate(&sig, target, cand, &care),
                        "sound candidate {cand:?} for {target:?} was signature-rejected"
                    );
                }
            }
        }
    }
}

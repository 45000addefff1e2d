//! Verification helpers.
//!
//! The paper verifies every benchmark "with an industrial formal
//! equivalence checking flow" (Section V-C); this module provides the
//! equivalent for this repository: fast random-simulation screening
//! followed by a full SAT miter proof.

use sbm_aig::sim::Signatures;
use sbm_aig::Aig;
use sbm_budget::Budget;
use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};
use sbm_sim::{record_filter_hits, record_filter_misses, SigService};

/// Checks combinational equivalence: random simulation first (cheap
/// refutation), then a SAT miter for the proof.
///
/// # Panics
///
/// Panics if the interfaces differ (input/output counts).
pub fn equivalent(a: &Aig, b: &Aig) -> bool {
    simulation_screen(a, b) && MiterOracle::new().check(a, b) == Verdict::Equivalent
}

/// Budgeted equivalence gate for per-window checks — the gate of
/// [`crate::pipeline::pass`]. A cheap simulation screen first, then a SAT
/// miter limited to `conflict_budget` conflicts that also stops at the
/// deadline or on cancellation of `budget`. A proof the solver cannot
/// finish counts as *not* equivalent: the rewrite is rejected, never
/// trusted.
///
/// With a shared [`SigService`] the screen uses the service's pattern
/// set (seeded block plus every committed counterexample, so past
/// refutations are replayed for free), and a SAT refutation hands its
/// witness assignment back to the service ([`SigService::record_cex`])
/// to sharpen future screens. Without one it screens on fixed random
/// patterns. The screen is sound — it refutes only on a genuine output
/// mismatch — so the gate's verdicts are identical with and without a
/// service; only how much SAT work the verdicts cost differs.
///
/// # Panics
///
/// Panics if the interfaces differ (input/output counts).
pub fn equivalent_within_budgeted_sim(
    a: &Aig,
    b: &Aig,
    conflict_budget: u64,
    budget: &Budget,
    sim: Option<&SigService>,
) -> bool {
    let Some(svc) = sim else {
        return simulation_screen(a, b)
            && MiterOracle::new()
                .with_conflict_budget(Some(conflict_budget))
                .with_budget(budget.clone())
                .check(a, b)
                == Verdict::Equivalent;
    };
    if !service_screen(svc, a, b) {
        record_filter_hits(1);
        return false;
    }
    record_filter_misses(1);
    match MiterOracle::new()
        .with_conflict_budget(Some(conflict_budget))
        .with_budget(budget.clone())
        .check(a, b)
    {
        Verdict::Equivalent => true,
        Verdict::Refuted(witness) => {
            svc.record_cex(&witness);
            false
        }
        Verdict::Unknown => false,
    }
}

/// [`simulation_screen`] over the service's committed pattern set:
/// interface-aligned input rows make output signatures of the two
/// networks directly comparable.
fn service_screen(svc: &SigService, a: &Aig, b: &Aig) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs());
    assert_eq!(a.num_outputs(), b.num_outputs());
    let sa = svc.signatures(a);
    let sb = svc.signatures(b);
    for (oa, ob) in a.outputs().into_iter().zip(b.outputs()) {
        for w in 0..sa.words_per_node() {
            if sa.lit_word(oa, w) != sb.lit_word(ob, w) {
                return false;
            }
        }
    }
    true
}

/// Cheap refutation: identical seeds drive identical input patterns, so
/// any signature mismatch on an output pair disproves equivalence.
fn simulation_screen(a: &Aig, b: &Aig) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs());
    assert_eq!(a.num_outputs(), b.num_outputs());
    let sa = Signatures::random(a, 4, 0xB007);
    let sb = Signatures::random(b, 4, 0xB007);
    for (oa, ob) in a.outputs().into_iter().zip(b.outputs()) {
        for w in 0..4 {
            if sa.lit_word(oa, w) != sb.lit_word(ob, w) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_equivalence_and_difference() {
        let mut a = Aig::new();
        let x = a.add_input();
        let y = a.add_input();
        let f = a.xor(x, y);
        a.add_output(f);
        let mut b = a.cleanup();
        assert!(equivalent(&a, &b));
        let out = b.outputs()[0];
        b.set_output(0, !out);
        assert!(!equivalent(&a, &b));
    }

    #[test]
    fn budgeted_gate_accepts_and_rejects() {
        let mut a = Aig::new();
        let x = a.add_input();
        let y = a.add_input();
        let z = a.add_input();
        let f = a.maj3(x, y, z);
        a.add_output(f);
        let b = a.cleanup();
        let budget = Budget::unlimited();
        assert!(equivalent_within_budgeted_sim(
            &a, &b, 10_000, &budget, None
        ));
        let mut c = b.clone();
        let out = c.outputs()[0];
        c.set_output(0, !out);
        assert!(!equivalent_within_budgeted_sim(
            &a, &c, 10_000, &budget, None
        ));
    }

    #[test]
    fn sim_gate_harvests_and_replays_counterexamples() {
        // AND of 16 inputs vs constant false: they differ only on the
        // all-ones minterm, which 256 random patterns miss with
        // overwhelming probability — the SAT miter must refute and hand
        // the witness to the service.
        let mut a = Aig::new();
        let inputs: Vec<_> = (0..16).map(|_| a.add_input()).collect();
        let mut f = inputs[0];
        for &i in &inputs[1..] {
            f = a.and(f, i);
        }
        a.add_output(f);
        let mut b = Aig::new();
        for _ in 0..16 {
            b.add_input();
        }
        b.add_output(sbm_aig::Lit::FALSE);
        let svc = SigService::default();
        let budget = Budget::unlimited();
        let _ = sbm_sim::drain_sim_tally();
        assert!(!equivalent_within_budgeted_sim(
            &a,
            &b,
            10_000,
            &budget,
            Some(&svc)
        ));
        let tally = sbm_sim::drain_sim_tally();
        assert_eq!(tally.filter_misses, 1, "screen passed, SAT refuted");
        assert_eq!(tally.cex_recorded, 1, "witness harvested");
        // After committing, the replayed witness refutes in the screen:
        // no SAT call, one filter hit.
        assert_eq!(svc.commit_pending(), 1);
        assert!(!equivalent_within_budgeted_sim(
            &a,
            &b,
            10_000,
            &budget,
            Some(&svc)
        ));
        let tally = sbm_sim::drain_sim_tally();
        assert_eq!(tally.filter_hits, 1, "committed cex screens the pair");
        assert_eq!(tally.cex_recorded, 0);
        // Equivalent pair: the service gate still proves it.
        let clean = a.cleanup();
        assert!(equivalent_within_budgeted_sim(
            &a,
            &clean,
            10_000,
            &budget,
            Some(&svc)
        ));
    }

    #[test]
    fn interface_mismatch_panics() {
        let mut a = Aig::new();
        let x = a.add_input();
        a.add_output(x);
        let mut b = a.cleanup();
        b.add_output(x); // second output: interfaces now differ
        let r = std::panic::catch_unwind(|| equivalent(&a, &b));
        assert!(r.is_err(), "output-count mismatch must panic");
    }
}

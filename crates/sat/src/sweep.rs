//! SAT sweeping: merging functionally equivalent nodes.
//!
//! Candidate-equivalent node pairs are found by random simulation (nodes
//! with identical signatures, up to complement) and confirmed by SAT; a
//! confirmed pair is merged with [`sbm_aig::Aig::replace`]. This is the
//! "SAT-based sweeping" step of the paper's Boolean resynthesis script
//! (Section V-A).

use std::collections::HashMap;

use sbm_aig::sim::Signatures;
use sbm_aig::{Aig, Lit};

use crate::cnf::encode;
use crate::solver::{SolveResult, Solver};

/// Options for SAT sweeping.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Simulation words per node for candidate bucketing.
    pub sim_words: usize,
    /// RNG seed for the simulation patterns.
    pub seed: u64,
    /// Conflict budget per SAT call (`None` = unbounded).
    pub budget: Option<u64>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            sim_words: 8,
            seed: 0x5EED_CAFE,
            budget: Some(2_000),
        }
    }
}

/// Statistics of a sweeping pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Node pairs confirmed equivalent and merged.
    pub merged: usize,
    /// SAT calls that proved inequivalence (simulation false positives).
    pub refuted: usize,
    /// SAT calls that ran out of budget.
    pub undecided: usize,
}

/// Result of [`sweep`]: the pass statistics plus the refutation
/// witnesses harvested from SAT models.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Counters of the pass.
    pub stats: SweepStats,
    /// One input assignment (in primary-input order) per refuted candidate
    /// pair. Each witness distinguishes two nodes that random simulation
    /// could not tell apart — exactly the patterns worth feeding back into
    /// a simulation-signature service.
    pub witnesses: Vec<Vec<bool>>,
}

/// Runs one SAT-sweeping pass over `aig`, merging proven-equivalent nodes
/// into their earliest (topologically first) representative, and collects
/// a counterexample witness for every refuted candidate pair (the SAT
/// model restricted to the primary inputs). The AIG is modified in place
/// (call [`sbm_aig::Aig::cleanup`] afterwards to compact).
pub fn sweep(aig: &mut Aig, options: &SweepOptions) -> SweepOutcome {
    let mut outcome = SweepOutcome::default();
    let sig = Signatures::random(aig, options.sim_words, options.seed);
    // Bucket nodes by canonical signature hash (positive phase hash of the
    // lexicographically smaller of sig / ~sig).
    let mut buckets: HashMap<u64, Vec<Lit>> = HashMap::new();
    let order = aig.topo_order();
    let mut solver = Solver::new();
    solver.set_conflict_budget(options.budget);
    let map = encode(aig, &mut solver);
    for id in order {
        let pos = Lit::new(id, false);
        // Canonicalize phase: use the phase whose first signature word has
        // bit 0 clear, so that f and ¬f land in the same bucket with known
        // relative phase.
        let canon = if sig.lit_word(pos, 0) & 1 == 1 {
            !pos
        } else {
            pos
        };
        let h = sig.hash(canon);
        let bucket = buckets.entry(h).or_default();
        let mut merged = false;
        for &rep in bucket.iter() {
            if !sig.maybe_equal(rep, canon) {
                continue;
            }
            // Representative may have been replaced by an earlier merge.
            let rep_now = aig.resolve(rep);
            if rep_now.node() == id {
                continue;
            }
            // SAT check: rep ⊕ canon is unsatisfiable?
            let lr = map.lit(rep);
            let lc = map.lit(canon);
            let sat_eq = {
                let r1 = solver.solve(&[lr, !lc]);
                if r1 == SolveResult::Unsat {
                    solver.solve(&[!lr, lc])
                } else {
                    r1 // Sat / Unknown / Interrupted: no second call needed
                }
            };
            match sat_eq {
                SolveResult::Unsat => {
                    // canon ≡ rep; replace node `id` with rep_now, fixing
                    // the phase so the positive literal of id maps right:
                    // canon = pos ^ c  ⇒ pos ≡ rep ^ c.
                    let c = canon.is_complemented();
                    if aig.replace(id, rep_now.complement_if(c)).is_ok() {
                        outcome.stats.merged += 1;
                        merged = true;
                    }
                    break;
                }
                SolveResult::Sat => {
                    outcome.stats.refuted += 1;
                    let witness = aig
                        .inputs()
                        .iter()
                        .map(|&input| solver.model_value(map.var(input)))
                        .collect();
                    outcome.witnesses.push(witness);
                }
                SolveResult::Unknown | SolveResult::Interrupted => {
                    outcome.stats.undecided += 1;
                }
            }
        }
        if !merged {
            bucket.push(canon);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::{EquivalenceOracle, MiterOracle, Verdict};

    #[test]
    fn merges_functionally_equal_structures() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        // Two structurally different XORs.
        let x1 = aig.xor(a, b);
        let o = aig.or(a, b);
        let n = aig.nand(a, b);
        let x2 = aig.and(o, n);
        aig.add_output(x1);
        aig.add_output(x2);
        let before = aig.cleanup();
        assert!(before.num_ands() > 3);
        let stats = sweep(&mut aig, &SweepOptions::default()).stats;
        assert!(stats.merged >= 1, "{stats:?}");
        let after = aig.cleanup();
        assert_eq!(after.num_ands(), 3, "sweeping should share the XOR");
        assert_eq!(
            MiterOracle::new().check(&before, &after),
            Verdict::Equivalent
        );
    }

    #[test]
    fn merges_complemented_equivalences() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.xor(a, b);
        let y = aig.xnor(a, b); // = !x, structurally distinct
        aig.add_output(x);
        aig.add_output(y);
        let before = aig.cleanup();
        sweep(&mut aig, &SweepOptions::default());
        let after = aig.cleanup();
        assert!(after.num_ands() <= before.num_ands());
        assert_eq!(
            MiterOracle::new().check(&before, &after),
            Verdict::Equivalent
        );
    }

    #[test]
    fn harvests_one_witness_per_refutation() {
        // An AND chain of 16 inputs is all-zeros under 64 random patterns
        // with overwhelming probability (the all-ones minterm has weight
        // 2^-16), so its deep nodes collide with a structural constant
        // false in the signature buckets — SAT must refute each collision.
        let mut aig = Aig::new();
        let inputs: Vec<_> = (0..16).map(|_| aig.add_input()).collect();
        let mut f = inputs[0];
        for &i in &inputs[1..] {
            f = aig.and(f, i);
        }
        let z = aig.and(inputs[0], !inputs[0]); // constant false node
        aig.add_output(f);
        aig.add_output(z);
        let before = aig.cleanup();
        let options = SweepOptions {
            sim_words: 1,
            ..SweepOptions::default()
        };
        let outcome = sweep(&mut aig, &options);
        assert!(outcome.stats.refuted >= 1, "{:?}", outcome.stats);
        assert_eq!(outcome.witnesses.len(), outcome.stats.refuted);
        for witness in &outcome.witnesses {
            assert_eq!(witness.len(), before.num_inputs());
        }
        let after = aig.cleanup();
        assert_eq!(
            MiterOracle::new().check(&before, &after),
            Verdict::Equivalent
        );
    }

    #[test]
    fn no_false_merges_on_distinct_functions() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let f = aig.and(a, b);
        let g = aig.and(a, c);
        aig.add_output(f);
        aig.add_output(g);
        let before = aig.cleanup();
        let stats = sweep(&mut aig, &SweepOptions::default()).stats;
        assert_eq!(stats.merged, 0);
        let after = aig.cleanup();
        assert_eq!(
            MiterOracle::new().check(&before, &after),
            Verdict::Equivalent
        );
    }
}

//! Large-cone refactoring.
//!
//! The `refactor` move (and the paper's "collapse and Boolean
//! decomposition, applied on reconvergent MFFC of the logic network",
//! Section V-A): collapse a node's cone over its structural support into a
//! truth table, resynthesize it with ISOP + algebraic factoring, and keep
//! the result when it is smaller than the cone it replaces.

use sbm_aig::mffc::{mffc_size, mffc_within};
use sbm_aig::sim::{lit_truth_table, window_truth_tables};
use sbm_aig::{Aig, Lit};

use crate::engine::EngineStats;
use crate::rewrite::emit_function;

/// Options for refactoring.
#[derive(Debug, Clone, Copy)]
pub struct RefactorOptions {
    /// Maximum structural-support size of a collapsed cone.
    pub max_support: usize,
    /// Minimum MFFC size for a node to be worth collapsing.
    pub min_mffc: usize,
    /// Accept zero-gain replacements.
    pub allow_zero_gain: bool,
}

impl Default for RefactorOptions {
    fn default() -> Self {
        RefactorOptions {
            max_support: 12,
            min_mffc: 3,
            allow_zero_gain: false,
        }
    }
}

/// The refactoring pass: `tried` counts the cones considered, `accepted`
/// the cones refactored.
pub(crate) fn refactor_impl(aig: &Aig, options: &RefactorOptions) -> (Aig, EngineStats) {
    let mut work = aig.cleanup();
    let mut stats = EngineStats::default();
    let order = work.topo_order();
    let mut fanout_counts = work.fanout_counts();
    // Visit from the outputs down (reverse topological) so big cones are
    // tried before their sub-cones.
    for &id in order.iter().rev() {
        if work.is_replaced(id)
            || !work.is_and(id)
            || fanout_counts.get(id.index()).is_none_or(|&c| c == 0)
        {
            continue;
        }
        if mffc_size(&work, id, &fanout_counts) < options.min_mffc {
            continue;
        }
        let support = work.structural_support(id);
        if support.len() < 2 || support.len() > options.max_support {
            continue;
        }
        stats.tried += 1;
        let tables = window_truth_tables(&work, &[id], &support);
        let Some(tt) = lit_truth_table(&tables, Lit::new(id, false)) else {
            continue;
        };
        let saving = mffc_within(&work, id, &support, &fanout_counts).len();
        let leaf_lits: Vec<Lit> = support.iter().map(|&n| Lit::new(n, false)).collect();
        let before = work.num_nodes();
        let Some(replacement) = emit_function(&mut work, &tt, &leaf_lits) else {
            continue;
        };
        let created = work.num_nodes() - before;
        if replacement.node() == id || created > saving {
            continue;
        }
        if created == saving && !options.allow_zero_gain {
            continue;
        }
        if work.replace(id, replacement).is_ok() {
            stats.accepted += 1;
            fanout_counts = work.fanout_counts();
        }
    }
    (work.cleanup(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_unbounded, Refactor};
    use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

    #[test]
    fn simplifies_redundant_cone() {
        // f = (a & b) | (a & !b) == a, built so strashing can't see it.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let t1 = aig.and(a, b);
        let t2 = aig.and(a, !b);
        let f = aig.or(t1, t2);
        let g = aig.and(f, c);
        aig.add_output(g);
        let (optimized, stats) = refactor_impl(&aig, &RefactorOptions::default());
        assert!(optimized.num_ands() < aig.num_ands(), "{stats:?}");
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
        assert_eq!(optimized.num_ands(), 1, "should shrink to a & c");
    }

    #[test]
    fn keeps_optimal_cones() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let m = aig.maj3(a, b, c);
        aig.add_output(m);
        let optimized = run_unbounded(&Refactor::default(), &aig).aig;
        assert!(optimized.num_ands() <= aig.num_ands());
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
    }

    #[test]
    fn respects_support_limit() {
        let mut aig = Aig::new();
        let inputs: Vec<Lit> = (0..16).map(|_| aig.add_input()).collect();
        let f = aig.xor_many(&inputs);
        aig.add_output(f);
        let opts = RefactorOptions {
            max_support: 8,
            ..Default::default()
        };
        // The root cone has 16 supports: must be skipped without panicking.
        let (optimized, _) = refactor_impl(&aig, &opts);
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
    }
}

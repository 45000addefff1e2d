//! MSPF computation with BDDs (paper Section IV-C).
//!
//! The Maximum Set of Permissible Functions of a node is the set of
//! functions it can be changed to without altering any primary output — the
//! most powerful don't-care interpretation for synthesis (Muroga's
//! transduction \[4\]). Following the paper, MSPF is computed per window
//! with BDDs via cofactoring:
//!
//! ```text
//! mspf(node) = ⋀_po ( ¬(f0(po) ⊕ f1(po)) ∨ dc(po) )
//! ```
//!
//! where `f0`/`f1` are the window-output cofactors with respect to the
//! node. A candidate replacement `new` is *connectable* iff
//! `bdd(new) ∧ ¬mspf = bdd(old) ∧ ¬mspf` — thanks to BDD strong
//! canonicity this is a cheap canonical-node comparison, which is what lets
//! the engine "look not just for one but for many connectable fanins"
//! (Section IV-C).

use std::collections::HashMap;

use sbm_aig::mffc::mffc_size;
use sbm_aig::sim::Signatures;
use sbm_aig::window::{partition, Partition, PartitionOptions};
use sbm_aig::{Aig, Lit, NodeId};
use sbm_bdd::{Bdd, BddError, BddManager};
use sbm_budget::Budget;
use sbm_sim::{
    keep_candidate, record_filter_hits, record_filter_misses, window_care_mask, SigService,
};

use crate::bdd_bridge::{pooled_manager, recycle_manager, window_bdds};
use crate::engine::EngineStats;

/// Options for MSPF optimization.
#[derive(Debug, Clone, Copy)]
pub struct MspfOptions {
    /// Window limits — the paper uses "partitions of medium size" for this
    /// engine.
    pub partition: PartitionOptions,
    /// BDD manager node limit (memory bailout).
    pub bdd_node_limit: usize,
    /// Maximum replacement candidates tried per node.
    pub max_candidates: usize,
}

impl Default for MspfOptions {
    fn default() -> Self {
        MspfOptions {
            partition: PartitionOptions {
                max_nodes: 400,
                max_inputs: 12,
                max_levels: 16,
            },
            bdd_node_limit: 50_000,
            max_candidates: 32,
        }
    }
}

/// Computes the MSPF of `node` inside the window: the leaf-minterm set on
/// which the node's value is not observable at any window root.
///
/// `node_var_bdds` must contain the window BDDs rebuilt with `node` treated
/// as a free variable (`x_node` = the last manager variable).
fn mspf_of_node(
    mgr: &mut BddManager,
    roots_with_var: &[Bdd],
    x_node: usize,
) -> Result<Bdd, BddError> {
    // mspf = ⋀_roots ¬(f0 ⊕ f1)
    let mut mspf = Bdd::ONE;
    for &root in roots_with_var {
        let f0 = mgr.cofactor(root, x_node, false)?;
        let f1 = mgr.cofactor(root, x_node, true)?;
        let diff = mgr.xor(f0, f1)?;
        let stable = mgr.not(diff)?;
        mspf = mgr.and(mspf, stable)?;
        if mspf == Bdd::ZERO {
            break; // paper: stop as soon as no permissible flexibility
        }
    }
    Ok(mspf)
}

/// Rebuilds the window's root BDDs with `target` replaced by a fresh
/// variable (index `leaves.len()`), so that cofactoring w.r.t. that
/// variable yields the observability cofactors.
fn roots_with_node_var(
    aig: &Aig,
    part: &Partition,
    target: NodeId,
    mgr: &mut BddManager,
) -> Option<Vec<Bdd>> {
    let x = mgr.var(part.leaves.len());
    let mut bdds: HashMap<NodeId, Bdd> = HashMap::new();
    bdds.insert(NodeId::CONST, Bdd::ZERO);
    for (i, &leaf) in part.leaves.iter().enumerate() {
        let v = mgr.var(i);
        bdds.insert(leaf, v);
    }
    bdds.insert(target, x);
    for &id in &part.nodes {
        if id == target || aig.is_replaced(id) {
            continue;
        }
        let (a, b) = aig.fanins(id);
        // Earlier replacements in this pass can redirect a fanin outside
        // the (pre-pass) window: the window is stale, give up on it.
        let get = |l: Lit, bdds: &HashMap<NodeId, Bdd>, mgr: &mut BddManager| -> Option<Bdd> {
            let base = *bdds.get(&l.node())?;
            if l.is_complemented() {
                mgr.not(base).ok()
            } else {
                Some(base)
            }
        };
        let fa = get(a, &bdds, mgr)?;
        let fb = get(b, &bdds, mgr)?;
        let f = mgr.and(fa, fb).ok()?;
        bdds.insert(id, f);
    }
    part.roots.iter().map(|r| bdds.get(r).copied()).collect()
}

/// Counts `error` as a node-limit bailout; budget interruptions are a
/// "stop working" signal, not a per-node failure, and are excluded so
/// the bailout count stays exact under deadlines.
fn count_bailout(stats: &mut EngineStats, error: BddError) {
    if !error.is_budget() {
        stats.bailouts += 1;
    }
}

/// MSPF-based redundancy removal under `budget` (an expired budget stops
/// the pass with the best network so far), with optional signature-based
/// candidate filtering: when `sim` is present, every node's replacement candidates
/// are screened against the shared simulation signatures under a
/// simulated observability care mask *before* the expensive BDD
/// cofactoring — a node none of whose candidates survive skips its MSPF
/// computation entirely. The filter is a sound necessary condition
/// (identical behavior on every care-set pattern simulation has seen),
/// so the set of accepted replacements is unchanged.
///
/// `tried` counts the nodes whose MSPF was computed, `accepted` the nodes
/// replaced by a permissible existing signal or a constant, `bailouts`
/// the BDD node-limit bailouts.
pub(crate) fn mspf_optimize_filtered(
    aig: &Aig,
    options: &MspfOptions,
    budget: &Budget,
    sim: Option<&SigService>,
) -> (Aig, EngineStats) {
    let mut work = aig.cleanup();
    let mut stats = EngineStats::default();
    let parts = partition(&work, &options.partition);
    let mut fanout_counts = work.fanout_counts();
    // Network-wide signatures for the filter; refreshed after every
    // accepted replacement (fanins resolve through replacements, so one
    // resimulation keeps all live nodes exact).
    let mut sig: Option<Signatures> = sim.map(|svc| svc.signatures(&work));
    for part in &parts {
        if budget.check().is_err() {
            break; // wind down: keep what was already optimized
        }
        if part.leaves.is_empty() || part.leaves.len() + 1 > sbm_tt::MAX_VARS {
            continue;
        }
        // Sort members by estimated saving (MFFC, descending) — the
        // paper's "further sorted w.r.t. an estimated saving metric".
        let mut members: Vec<NodeId> = part.nodes.clone();
        members.sort_by_key(|&n| std::cmp::Reverse(mffc_size(&work, n, &fanout_counts)));

        // Plain window BDDs for candidate comparison. MSPF replacements
        // preserve the window *roots* but may change internal member
        // functions, so this map is rebuilt after every accepted
        // replacement.
        let mut mgr = pooled_manager(part.leaves.len() + 1, options.bdd_node_limit);
        mgr.set_budget(budget.clone());
        let mut bdds = window_bdds(&work, part, &mut mgr);

        for &f in &members {
            if budget.check().is_err() {
                break;
            }
            if work.is_replaced(f) || fanout_counts.get(f.index()).is_none_or(|&c| c == 0) {
                continue;
            }
            let saving = mffc_size(&work, f, &fanout_counts);
            if saving == 0 {
                continue;
            }
            let Some(bf) = bdds.get(&f).copied().flatten() else {
                // A missing window BDD is a node-limit bailout unless the
                // budget tripped mid-build (then it is an interruption).
                if budget.check().is_ok() {
                    stats.bailouts += 1;
                }
                continue;
            };
            // Candidate list, truncated to the same budget the unfiltered
            // pass would try; signature filtering then only ever *removes*
            // entries, so the first (and thus accepted) connectable
            // candidate is identical with and without the filter.
            let mut candidates: Vec<Lit> = vec![Lit::FALSE, Lit::TRUE];
            candidates.extend(
                part.leaves
                    .iter()
                    .chain(part.nodes.iter())
                    .filter(|&&n| n != f)
                    .flat_map(|&n| [Lit::new(n, false), Lit::new(n, true)]),
            );
            candidates.truncate(options.max_candidates * 2);
            if let Some(sig) = sig.as_ref() {
                let care = window_care_mask(&work, sig, &part.nodes, &part.roots, f);
                let before_filter = candidates.len();
                candidates.retain(|&cand| keep_candidate(sig, f, cand, &care));
                record_filter_hits((before_filter - candidates.len()) as u64);
                record_filter_misses(candidates.len() as u64);
                if candidates.is_empty() {
                    // Every candidate provably differs on an observable
                    // pattern: the whole MSPF computation for this node
                    // cannot yield a replacement, skip it.
                    continue;
                }
            }
            // Root functions with f as a free variable, in a manager reset
            // after this node — the paper's memory strategy with the
            // allocations recycled.
            let mut var_mgr = pooled_manager(part.leaves.len() + 1, options.bdd_node_limit);
            var_mgr.set_budget(budget.clone());
            let Some(roots) = roots_with_node_var(&work, part, f, &mut var_mgr) else {
                if budget.check().is_ok() {
                    stats.bailouts += 1;
                }
                recycle_manager(var_mgr);
                continue;
            };
            let mspf = match mspf_of_node(&mut var_mgr, &roots, part.leaves.len()) {
                Ok(mspf) => mspf,
                Err(error) => {
                    count_bailout(&mut stats, error);
                    recycle_manager(var_mgr);
                    continue;
                }
            };
            stats.tried += 1;
            if mspf == Bdd::ZERO {
                continue; // no flexibility at all
            }
            // Import the MSPF into the main manager (it is a function of
            // the leaves only — x_node was cofactored away).
            let mspf_tt = var_mgr.to_truth_table(mspf);
            recycle_manager(var_mgr);
            let mspf_main = match mgr.from_truth_table(&mspf_tt) {
                Ok(b) => b,
                Err(error) => {
                    count_bailout(&mut stats, error);
                    continue;
                }
            };
            let care = match mgr.not(mspf_main) {
                Ok(b) => b,
                Err(error) => {
                    count_bailout(&mut stats, error);
                    continue;
                }
            };
            // Connectability: bdd(new) ∧ care == bdd(f) ∧ care.
            let f_care = match mgr.and(bf, care) {
                Ok(b) => b,
                Err(error) => {
                    count_bailout(&mut stats, error);
                    continue;
                }
            };
            let mut replaced = false;
            for cand in candidates {
                if work.is_replaced(cand.node()) && !cand.is_const() {
                    continue;
                }
                let base = match cand {
                    l if l == Lit::FALSE => Some(Bdd::ZERO),
                    l if l == Lit::TRUE => Some(Bdd::ONE),
                    l => {
                        let b = bdds.get(&l.node()).copied().flatten();
                        match (b, l.is_complemented()) {
                            (Some(b), false) => Some(b),
                            (Some(b), true) => mgr.not(b).ok(),
                            (None, _) => None,
                        }
                    }
                };
                let Some(bc) = base else { continue };
                if bc == bf {
                    continue; // same function; nothing to gain here
                }
                let Ok(c_care) = mgr.and(bc, care) else { break };
                // Strong canonicity: connectable iff same canonical node.
                if c_care == f_care && work.replace(f, cand).is_ok() {
                    stats.accepted += 1;
                    fanout_counts = work.fanout_counts();
                    replaced = true;
                    break;
                }
            }
            if replaced {
                // The replacement preserves the window roots but may change
                // internal member functions: rebuild the comparison BDDs.
                // The in-place reset below zeroes the manager's counters,
                // so bank them into the thread's pool tally first.
                crate::bdd_bridge::harvest_manager_stats(&mgr.stats());
                mgr.reset(part.leaves.len() + 1, options.bdd_node_limit);
                mgr.set_budget(budget.clone());
                bdds = window_bdds(&work, part, &mut mgr);
                sig = sim.map(|svc| svc.signatures(&work));
            }
        }
        recycle_manager(mgr);
    }
    (work.cleanup(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_unbounded, Mspf};
    use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

    #[test]
    fn observability_dont_cares_simplify() {
        // g = (a ⊕ b) & a: under the & a context, (a ⊕ b) only matters
        // when a = 1, where a ⊕ b = !b — so g == a & !b and the XOR's
        // 3 nodes collapse.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.xor(a, b);
        let g = aig.and(x, a);
        aig.add_output(g);
        let before = aig.num_ands();
        let (optimized, stats) =
            mspf_optimize_filtered(&aig, &MspfOptions::default(), &Budget::unlimited(), None);
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
        assert!(
            optimized.num_ands() < before,
            "{before} -> {} ({stats:?})",
            optimized.num_ands()
        );
    }

    #[test]
    fn no_flexibility_no_change() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        let (optimized, _) =
            mspf_optimize_filtered(&aig, &MspfOptions::default(), &Budget::unlimited(), None);
        assert_eq!(optimized.num_ands(), 1);
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
    }

    #[test]
    fn preserves_function_on_multi_output_windows() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let x = aig.xor(a, b);
        let f = aig.and(x, c);
        let g = aig.or(x, c);
        aig.add_output(f);
        aig.add_output(g);
        let optimized = run_unbounded(&Mspf::default(), &aig).aig;
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
        assert!(optimized.num_ands() <= aig.num_ands());
    }
}

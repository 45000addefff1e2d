//! Heterogeneous elimination for kernel extraction (paper Section IV-B).
//!
//! Elimination (forward collapsing) grows SOPs before kernel extraction,
//! but a single network-wide threshold produces SOPs of similar size and
//! misses extraction opportunities. The heterogeneous engine partitions
//! the network and, per partition, tries the whole threshold ladder
//! `(-1, 2, 5, 20, 50, 100, 200, 300)`, keeping the variant that reduces
//! the most literals — "we only keep the best one, e.g., the one reducing
//! the largest number of literals of the partition". Threshold evaluation
//! is embarrassingly parallel ("partitioning engines, whose computation
//! can be distributed in parallel"), which this implementation exploits
//! with scoped threads.

use std::collections::HashMap;

use sbm_aig::window::{partition, Partition, PartitionOptions};
use sbm_aig::{Aig, Lit, NodeId};
use sbm_sop::eliminate::eliminate;
use sbm_sop::extract::extract;
use sbm_sop::{SignalLit, SopNetwork};

use crate::engine::EngineStats;
use crate::rewrite::emit_factored;

/// The paper's empirically useful eliminate thresholds.
pub const DEFAULT_THRESHOLDS: [i64; 8] = [-1, 2, 5, 20, 50, 100, 200, 300];

/// Options for heterogeneous elimination + kerneling.
#[derive(Debug, Clone)]
pub struct HeteroOptions {
    /// Partition limits — "partitioned networks of medium-large sizes".
    pub partition: PartitionOptions,
    /// The eliminate thresholds to sweep per partition.
    pub thresholds: Vec<i64>,
    /// Extraction rounds after elimination.
    pub extract_rounds: usize,
}

impl Default for HeteroOptions {
    fn default() -> Self {
        HeteroOptions {
            partition: PartitionOptions {
                max_nodes: 600,
                max_inputs: 30,
                max_levels: 24,
            },
            thresholds: DEFAULT_THRESHOLDS.to_vec(),
            extract_rounds: 20,
        }
    }
}

/// Extracts a partition as a standalone [`SopNetwork`]: leaves become
/// inputs (in `part.leaves` order), roots become outputs (positive phase).
fn partition_to_sop(aig: &Aig, part: &Partition) -> Option<SopNetwork> {
    let mut net = SopNetwork::new(part.leaves.len());
    let mut map: HashMap<NodeId, SignalLit> = HashMap::new();
    for (i, &leaf) in part.leaves.iter().enumerate() {
        map.insert(leaf, SignalLit::positive(i as u32));
    }
    for &id in &part.nodes {
        let (a, b) = aig.fanins(id);
        // Strashing keeps constants out of AND fanins, but a pending
        // replacement from an earlier partition can resolve to one; such
        // partitions are skipped rather than modeled.
        let conv = |l: Lit, map: &HashMap<NodeId, SignalLit>| -> Option<SignalLit> {
            let base = *map.get(&l.node())?;
            Some(if l.is_complemented() {
                base.negate()
            } else {
                base
            })
        };
        let la = conv(a, &map)?;
        let lb = conv(b, &map)?;
        let s = net.add_node(sbm_sop::Cover::from_cubes(vec![sbm_sop::Cube::from_lits(
            &[la, lb],
        )]));
        map.insert(id, SignalLit::positive(s));
    }
    for &root in &part.roots {
        net.add_output(map[&root]);
    }
    Some(net)
}

/// Optimizes one partition network with a specific eliminate threshold,
/// returning the resulting literal count and the network.
fn optimize_with_threshold(
    net: &SopNetwork,
    threshold: i64,
    extract_rounds: usize,
) -> (usize, SopNetwork) {
    let mut candidate = net.clone();
    eliminate(&mut candidate, threshold);
    extract(&mut candidate, extract_rounds);
    let candidate = candidate.cleanup();
    (candidate.num_lits(), candidate)
}

/// Runs the pass; with `num_threads > 1` each partition's threshold
/// ladder is evaluated on scoped threads (the result is the same either
/// way). `tried` counts the partitions processed, `accepted` those where
/// some threshold beat the identity.
pub(crate) fn hetero_eliminate_kernel_impl(
    aig: &Aig,
    options: &HeteroOptions,
    num_threads: usize,
) -> (Aig, EngineStats) {
    let mut work = aig.cleanup();
    let mut stats = EngineStats::default();
    let parts = partition(&work, &options.partition);
    for part in &parts {
        if part.nodes.len() < 4 || part.leaves.is_empty() {
            continue;
        }
        stats.tried += 1;
        let Some(net) = partition_to_sop(&work, part) else {
            continue;
        };

        // Sweep the threshold ladder — in parallel when enabled.
        let results: Vec<(usize, SopNetwork)> = if num_threads > 1 {
            // sbm-lint: allow(C001) scoped fork-join over an immutable network; results are re-ordered by threshold index, so scheduling cannot leak into output
            std::thread::scope(|scope| {
                let handles: Vec<_> = options
                    .thresholds
                    .iter()
                    .map(|&t| {
                        let net_ref = &net;
                        let rounds = options.extract_rounds;
                        scope.spawn(move || optimize_with_threshold(net_ref, t, rounds))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(result) => result,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            })
        } else {
            options
                .thresholds
                .iter()
                .map(|&t| optimize_with_threshold(&net, t, options.extract_rounds))
                .collect()
        };

        let Some((_, best)) = results.into_iter().min_by_key(|(lits, _)| *lits) else {
            continue;
        };

        // Re-implement the partition from the best SOP network and splice
        // it in, if it actually reduces AIG nodes.
        let leaf_lits: Vec<Lit> = part.leaves.iter().map(|&n| Lit::new(n, false)).collect();
        let nodes_before = work.num_nodes();
        let new_roots = emit_sop_network(&mut work, &best, &leaf_lits);
        let created = work.num_nodes() - nodes_before;
        let saving = part.nodes.len();
        if created > saving {
            continue; // garbage nodes die at cleanup
        }
        let mut ok = true;
        for (&root, &new_lit) in part.roots.iter().zip(&new_roots) {
            if work.resolve(Lit::new(root, false)) == work.resolve(new_lit) {
                continue;
            }
            if work.replace(root, new_lit).is_err() {
                ok = false;
                break;
            }
        }
        if ok && created < saving {
            stats.accepted += 1;
        }
    }
    (work.cleanup(), stats)
}

/// Emits the (optimized) partition network into the AIG over the original
/// leaf literals; returns the new root literals in output order.
fn emit_sop_network(aig: &mut Aig, net: &SopNetwork, leaf_lits: &[Lit]) -> Vec<Lit> {
    // The literal of every SOP signal, leaves first.
    let mut lits = vec![Lit::FALSE; net.num_signals()];
    lits[..leaf_lits.len()].copy_from_slice(leaf_lits);
    for s in net.topo_order() {
        let fac = sbm_sop::factor::factor(net.cover(s));
        lits[s as usize] = emit_factored(aig, &fac, &lits);
    }
    net.outputs()
        .iter()
        .map(|l| lits[l.signal() as usize].complement_if(l.is_negated()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineCtx, EngineResult, Hetero};
    use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

    /// Runs the pass through its [`Engine`] on two threads; the
    /// never-worse rule lives there.
    fn hetero(aig: &Aig) -> EngineResult {
        let budget = sbm_budget::Budget::unlimited();
        Hetero::default().optimize(aig, &EngineCtx::new(&budget).with_threads(2))
    }

    /// A decoder-like structure with heavy kernel sharing.
    fn kernel_rich_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let d = aig.add_input();
        let e = aig.add_input();
        // Outputs of the form (a+b)·x with the (a+b) kernel re-derived
        // separately each time.
        for &x in &[c, d, e] {
            let t1 = aig.and(a, x);
            let t2 = aig.and(b, x);
            let f = aig.or(t1, t2);
            aig.add_output(f);
        }
        aig
    }

    #[test]
    fn extracts_shared_kernels_across_outputs() {
        let aig = kernel_rich_aig();
        let before = aig.num_ands();
        let EngineResult {
            aig: optimized,
            stats,
        } = hetero(&aig);
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
        assert!(
            optimized.num_ands() <= before,
            "{before} -> {} ({stats:?})",
            optimized.num_ands()
        );
    }

    #[test]
    fn sequential_matches_parallel() {
        let aig = kernel_rich_aig();
        let (par, _) = hetero_eliminate_kernel_impl(&aig, &HeteroOptions::default(), 2);
        let (seq, _) = hetero_eliminate_kernel_impl(&aig, &HeteroOptions::default(), 1);
        assert_eq!(par.num_ands(), seq.num_ands());
        assert_eq!(MiterOracle::new().check(&par, &seq), Verdict::Equivalent);
    }

    #[test]
    fn never_worsens_on_tight_logic() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let m = aig.maj3(a, b, c);
        let x = aig.xor(a, c);
        let f = aig.and(m, x);
        aig.add_output(f);
        let optimized = hetero(&aig).aig;
        assert!(optimized.num_ands() <= aig.num_ands());
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
    }
}

//! Boolean-difference-based resubstitution (paper Section III).
//!
//! Every function can be written as `f = (∂f/∂g) ⊕ g` where
//! `∂f/∂g = f ⊕ g` is the Boolean difference. When the difference has a
//! small BDD, implementing `f` as `difference ⊕ g` (reusing the existing
//! node `g`) can be much cheaper than `f`'s current cone — the method
//! "untangles reconvergent logic not touched by other techniques"
//! (Section V-B).
//!
//! This module implements Alg. 1 (difference computation and
//! implementation with BDDs) and Alg. 2 (the windowed resubstitution
//! flow), with the paper's filters: difference-BDD size threshold
//! (default 10), `xor_cost`-aware saving check against `mffc(f)`,
//! structural support filters, and a BDD node limit with bail-out.

use std::collections::{HashMap, HashSet};

use sbm_aig::mffc::mffc_within;
use sbm_aig::sim::Signatures;
use sbm_aig::window::{partition, PartitionOptions};
use sbm_aig::{Aig, Lit, NodeId};
use sbm_bdd::{Bdd, BddManager};
use sbm_budget::Budget;
use sbm_sim::{record_filter_hits, record_filter_misses, SigService};

use crate::bdd_bridge::{bdd_to_aig, pooled_manager, recycle_manager, window_bdds};
use crate::engine::EngineStats;

/// Options for Boolean-difference resubstitution.
#[derive(Debug, Clone, Copy)]
pub struct BdiffOptions {
    /// Maximum BDD size of the difference (paper: "we found 10 to be a
    /// suitable tradeoff to have good QoR and feasible runtime").
    pub max_diff_size: usize,
    /// AIG nodes needed for a two-input XOR (technology-dependent;
    /// 3 in a plain AIG).
    pub xor_cost: usize,
    /// Maximum candidate pairs tried per node `f` (the paper fixes "the
    /// maximum number m of pairs to be tried").
    pub max_pairs_per_node: usize,
    /// Node limit of the per-window BDD manager (the paper's maximum
    /// memory limit).
    pub bdd_node_limit: usize,
    /// Window limits; level count has priority (Section III-B).
    pub partition: PartitionOptions,
}

impl Default for BdiffOptions {
    fn default() -> Self {
        BdiffOptions {
            max_diff_size: 10,
            xor_cost: 3,
            max_pairs_per_node: 64,
            bdd_node_limit: 20_000,
            partition: PartitionOptions {
                max_nodes: 1000,
                max_inputs: 14,
                max_levels: 20,
            },
        }
    }
}

/// Boolean-difference resubstitution under `budget` (an expired budget
/// stops the pass with the best network so far), with optional
/// signature-based pair screening: when `sim` is present, a candidate pair whose
/// difference signature matches no existing window signal and whose
/// saving cannot cover even a single-node difference network is rejected
/// before the difference BDD is built. The filter is a sound necessary
/// condition of [`evaluate_pair`]'s saving check, so the accepted
/// rewrites are unchanged. Bdiff rewrites are exact (`f = (f ⊕ g) ⊕ g`),
/// so one signature computation stays valid across the whole pass.
///
/// `tried` counts the candidate pairs evaluated, `accepted` the rewrites
/// `f ← (∂f/∂g) ⊕ g`, `bailouts` the BDD node-limit bailouts.
pub(crate) fn boolean_difference_resub_filtered(
    aig: &Aig,
    options: &BdiffOptions,
    budget: &Budget,
    sim: Option<&SigService>,
) -> (Aig, EngineStats) {
    let mut work = aig.cleanup();
    let mut stats = EngineStats::default();
    let parts = partition(&work, &options.partition);
    let sig: Option<Signatures> = sim.map(|svc| svc.signatures(&work));
    for part in &parts {
        if budget.check().is_err() {
            break;
        }
        if part.leaves.is_empty() {
            continue;
        }
        // No variable-count cap here: BDDs scale to wide supports (the
        // paper applies the method monolithically to i2c's 147 inputs);
        // the node limit is the only safety valve.
        let mut mgr = pooled_manager(part.leaves.len(), options.bdd_node_limit);
        mgr.set_budget(budget.clone());
        let bdds = window_bdds(&work, part, &mut mgr);
        // A tripped budget also surfaces as `None` entries; only genuine
        // node-limit failures count as bailouts.
        if budget.check().is_ok() {
            stats.bailouts += bdds.values().filter(|b| b.is_none()).count();
        }
        // Alg. 1's all_bdds hashtable: canonical BDD → implementing literal.
        // Leaves and members both participate, so an existing node whose
        // function equals a difference is reused directly. Both tables
        // are filled in window order (the constant, leaves, then
        // members): when several nodes share a function the first one is
        // kept, and a walk over the `bdds` map would make that choice
        // depend on its per-process random hash seed.
        let ordered: Vec<(NodeId, Bdd)> = std::iter::once(&NodeId::CONST)
            .chain(&part.leaves)
            .chain(&part.nodes)
            .filter_map(|&n| bdds.get(&n).copied().flatten().map(|b| (n, b)))
            .collect();
        let mut all_bdds: HashMap<Bdd, Lit> = HashMap::new();
        all_bdds.insert(Bdd::ZERO, Lit::FALSE);
        all_bdds.insert(Bdd::ONE, Lit::TRUE);
        for &(node, b) in &ordered {
            all_bdds.entry(b).or_insert_with(|| Lit::new(node, false));
            if let Ok(nb) = mgr.not(b) {
                all_bdds.entry(nb).or_insert_with(|| Lit::new(node, true));
            }
        }
        let leaf_lits: Vec<Lit> = part.leaves.iter().map(|&n| Lit::new(n, false)).collect();
        let mut fanout_counts = work.fanout_counts();
        // Support sets are queried once per candidate pair; cache them.
        let supports: HashMap<NodeId, Vec<usize>> =
            ordered.iter().map(|&(n, b)| (n, mgr.support(b))).collect();
        // Signatures of every reusable window literal (both phases, plus
        // the constants): a difference can only take the Reuse fast path
        // if its signature appears here.
        let lit_sigs: Option<HashSet<Vec<u64>>> = sig.as_ref().map(|sig| {
            let words = sig.words_per_node();
            let mut set: HashSet<Vec<u64>> = HashSet::new();
            set.insert(vec![0u64; words]);
            set.insert(vec![u64::MAX; words]);
            for &n in part.leaves.iter().chain(part.nodes.iter()) {
                for lit in [Lit::new(n, false), Lit::new(n, true)] {
                    set.insert((0..words).map(|w| sig.lit_word(lit, w)).collect());
                }
            }
            set
        });

        for &f in &part.nodes {
            if budget.check().is_err() {
                break;
            }
            // Skip replaced nodes and nodes that died when an earlier
            // replacement freed their cone (fanout count 0 ⇒ unreachable).
            if work.is_replaced(f) || fanout_counts.get(f.index()).is_none_or(|&c| c == 0) {
                continue;
            }
            let Some(bf) = bdds.get(&f).copied().flatten() else {
                continue;
            };
            let support_f = &supports[&f];
            if support_f.is_empty() {
                continue;
            }
            let mut pairs_left = options.max_pairs_per_node;
            let mut best: Option<Candidate> = None;
            // Freed set of f down to the window leaves, computed once; a
            // pair only needs a correction when g lies inside it.
            let freed: HashSet<NodeId> = mffc_within(&work, f, &part.leaves, &fanout_counts)
                .into_iter()
                .collect();
            for &g in part.nodes.iter().chain(part.leaves.iter()) {
                if pairs_left == 0 {
                    break;
                }
                if g == f || work.is_replaced(g) {
                    continue;
                }
                let Some(bg) = bdds.get(&g).copied().flatten() else {
                    continue;
                };
                if bg == bf {
                    continue; // identical function: sweeping territory
                }
                // Structural filtering: skip pairs "with less than one
                // element in their shared support" (paper, Section III-B).
                // Both supports are sorted ascending: merge-intersect.
                let support_g = &supports[&g];
                let mut shared = 0usize;
                let (mut i, mut j) = (0, 0);
                while i < support_f.len() && j < support_g.len() {
                    match support_f[i].cmp(&support_g[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            shared += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                if shared == 0 {
                    continue;
                }
                pairs_left -= 1;
                stats.tried += 1;
                let saving = if freed.contains(&g) {
                    // g would be re-referenced: recompute with g as an
                    // extra boundary (rare).
                    let mut boundary = part.leaves.clone();
                    boundary.push(g);
                    mffc_within(&work, f, &boundary, &fanout_counts).len()
                } else {
                    freed.len()
                };
                // Signature prefilter: the Reuse path needs the difference
                // to match an existing window signal; the Build path needs
                // saving ≥ diff_size + xor_cost with diff_size ≥ 1. A pair
                // failing both provably fails `evaluate_pair`, so skipping
                // its BDD XOR changes nothing.
                if let (Some(sig), Some(lit_sigs)) = (sig.as_ref(), lit_sigs.as_ref()) {
                    let words = sig.words_per_node();
                    let diff_sig: Vec<u64> = (0..words)
                        .map(|w| sig.node_word(f, w) ^ sig.node_word(g, w))
                        .collect();
                    let reuse_possible = lit_sigs.contains(&diff_sig);
                    if !reuse_possible && saving < options.xor_cost + 1 {
                        record_filter_hits(1);
                        continue;
                    }
                    record_filter_misses(1);
                }
                if let Some(candidate) = evaluate_pair(
                    &mut mgr, &all_bdds, saving, f, g, bf, bg, options, &mut stats,
                ) {
                    let better = match &best {
                        None => true,
                        Some(b) => candidate.est_gain > b.est_gain,
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
            }
            // Apply the best candidate for f, with exact node accounting
            // (the estimate is a lower bound on implementation cost).
            if let Some(candidate) = best {
                if apply_candidate(&mut work, &mut mgr, &leaf_lits, f, &candidate, &mut stats) {
                    fanout_counts = work.fanout_counts();
                }
            }
            // Free the difference BDDs accumulated for this node — the
            // paper's per-iteration memory release (Section III-C).
            mgr.clear_cache();
        }
        recycle_manager(mgr);
    }
    (work.cleanup(), stats)
}

/// A profitable rewrite candidate for a node `f`.
struct Candidate {
    /// The `g` of `f = (∂f/∂g) ⊕ g`.
    g: NodeId,
    /// How to obtain the difference network.
    kind: CandidateKind,
    /// Estimated gain: `saving − estimated implementation cost`.
    est_gain: i64,
    /// Exact freed-node count when the rewrite is applied.
    saving: usize,
}

enum CandidateKind {
    /// The difference already exists in the window (Alg. 1 lines 5–7).
    Reuse(Lit),
    /// The difference must be strashed from its BDD (lines 15–16).
    Build(Bdd),
}

/// Alg. 1, evaluation half: computes `∂f/∂g` with BDDs and applies the
/// size and saving filters. Returns a candidate if the pair passes.
#[allow(clippy::too_many_arguments)]
fn evaluate_pair(
    mgr: &mut BddManager,
    all_bdds: &HashMap<Bdd, Lit>,
    saving: usize,
    f: NodeId,
    g: NodeId,
    bf: Bdd,
    bg: Bdd,
    options: &BdiffOptions,
    stats: &mut EngineStats,
) -> Option<Candidate> {
    let diff = match mgr.xor(bf, bg) {
        Ok(diff) => diff,
        Err(error) => {
            // Budget trips mean "stop working", not "this pair blew the
            // node limit" — only the latter is a bailout.
            if !error.is_budget() {
                stats.bailouts += 1;
            }
            return None;
        }
    };
    // `saving` is f's exclusive cone down to the window leaves and g —
    // exactly what the replacement `diff(leaves) ⊕ g` frees.

    // Fast path: the difference already exists in the window.
    if let Some(&existing) = all_bdds.get(&diff) {
        if existing.node() == f || options.xor_cost > saving {
            return None;
        }
        return Some(Candidate {
            g,
            kind: CandidateKind::Reuse(existing),
            est_gain: saving as i64 - options.xor_cost as i64,
            saving,
        });
    }
    // Size filter (lines 8–10): bounds the implementation cost of the
    // difference network.
    let diff_size = mgr.size(diff);
    if diff_size > options.max_diff_size {
        return None;
    }
    // Saving filter (lines 11–14): the BDD size is a lower bound on AIG
    // nodes for the difference.
    if diff_size + options.xor_cost > saving {
        return None;
    }
    Some(Candidate {
        g,
        kind: CandidateKind::Build(diff),
        est_gain: saving as i64 - (diff_size + options.xor_cost) as i64,
        saving,
    })
}

/// Alg. 1, implementation half: strash the difference into the AIG, XOR
/// it with `g` and replace `f`, with exact created-node accounting
/// (Alg. 2 acceptance: the node count must not increase).
fn apply_candidate(
    work: &mut Aig,
    mgr: &mut BddManager,
    leaf_lits: &[Lit],
    f: NodeId,
    candidate: &Candidate,
    stats: &mut EngineStats,
) -> bool {
    let g_lit = Lit::new(candidate.g, false);
    let nodes_before = work.num_nodes();
    let result = match &candidate.kind {
        CandidateKind::Reuse(existing) => work.xor(*existing, g_lit),
        CandidateKind::Build(diff) => {
            let diff_lit = bdd_to_aig(work, mgr, *diff, leaf_lits);
            work.xor(diff_lit, g_lit)
        }
    };
    let created = work.num_nodes() - nodes_before;
    // Strashing back onto f itself is an identity, not a rewrite.
    if work.resolve(result).node() == f || created > candidate.saving {
        return false;
    }
    if work.replace(f, result).is_ok() {
        stats.accepted += 1;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_unbounded, Bdiff, EngineResult};
    use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

    /// The Fig. 1 flavor of circuit: f and g share most of their logic, so
    /// the Boolean difference is tiny.
    fn reconvergent_pair() -> Aig {
        let mut aig = Aig::new();
        let x: Vec<Lit> = (0..5).map(|_| aig.add_input()).collect();
        // g = (x1 & x2) | (x3 & x4)
        let a = aig.and(x[0], x[1]);
        let b = aig.and(x[2], x[3]);
        let g = aig.or(a, b);
        // f = g ⊕ x5, but built as an entangled cone that doesn't share
        // structure with g.
        let na = aig.and(x[0], x[1]);
        let nb = aig.and(x[2], x[3]);
        let og = aig.or(na, nb);
        let f = aig.xor(og, x[4]);
        aig.add_output(g);
        aig.add_output(f);
        aig
    }

    #[test]
    fn rewrites_reconvergent_logic() {
        let aig = reconvergent_pair();
        let before = aig.num_ands();
        let optimized = run_unbounded(&Bdiff::default(), &aig).aig;
        assert!(optimized.num_ands() <= before, "never worse");
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
    }

    #[test]
    fn finds_difference_rewrite() {
        // f = maj(a,b,c), g = a&b | a&c | b&c built separately; plus an
        // XOR-related pair where the difference is a single leaf:
        // f2 = g2 ⊕ d with g2 = a ⊕ b  →  diff = d.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let d = aig.add_input();
        let g2 = aig.xor(a, b);
        // f2 built as a flat 3-input XOR cone (9 nodes, no sharing with g2
        // beyond inputs).
        let t1 = aig.and(a, b);
        let t2 = aig.nor(a, b);
        let even2 = aig.or(t1, t2); // xnor(a,b)
        let f2 = aig.mux(d, even2, !even2); // (a⊕b)⊕d
        aig.add_output(g2);
        aig.add_output(f2);
        let before = aig.num_ands();
        let EngineResult {
            aig: optimized,
            stats,
        } = run_unbounded(&Bdiff::default(), &aig);
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
        assert!(
            optimized.num_ands() <= before,
            "{} -> {}",
            before,
            optimized.num_ands()
        );
        assert!(stats.tried > 0);
    }

    #[test]
    fn duplicate_functions_rewrite_identically_every_run() {
        // f2 = (a ⊕ b) ⊕ d while three structurally distinct nodes all
        // implement d = c & e & h: the difference against g2 = a ⊕ b can
        // reuse any of them. Every run must pick the same one. Each run
        // builds its hash maps with a fresh random seed, so an order
        // taken from a map walk shows up as differing output here.
        let mut aig = Aig::new();
        let [a, b, c, e, h] = [(); 5].map(|()| aig.add_input());
        let g2 = aig.xor(a, b);
        let ce = aig.and(c, e);
        let d1 = aig.and(ce, h);
        let eh = aig.and(e, h);
        let d2 = aig.and(c, eh);
        let ch = aig.and(c, h);
        let d3 = aig.and(ch, e);
        let t1 = aig.and(a, b);
        let t2 = aig.nor(a, b);
        let even2 = aig.or(t1, t2);
        let f2 = aig.mux(d3, even2, !even2);
        for out in [g2, d1, d2, f2] {
            aig.add_output(out);
        }
        let run = || {
            let (optimized, stats) = boolean_difference_resub_filtered(
                &aig,
                &BdiffOptions::default(),
                &Budget::unlimited(),
                None,
            );
            assert!(stats.accepted > 0, "the reuse rewrite must fire");
            sbm_aig::aiger::write(&optimized)
        };
        let first = run();
        for _ in 0..32 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn never_increases_size_on_random_networks() {
        // Deterministic pseudo-random DAGs.
        let mut seed = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..5 {
            let mut aig = Aig::new();
            let mut signals: Vec<Lit> = (0..6).map(|_| aig.add_input()).collect();
            for _ in 0..40 {
                let r = next();
                let i = (r as usize >> 8) % signals.len();
                let j = (r as usize >> 24) % signals.len();
                let x = signals[i].complement_if(r & 1 == 1);
                let y = signals[j].complement_if(r & 2 == 2);
                let s = match (r >> 2) % 3 {
                    0 => aig.and(x, y),
                    1 => aig.or(x, y),
                    _ => aig.xor(x, y),
                };
                signals.push(s);
            }
            for k in 0..3 {
                let out = signals[signals.len() - 1 - k];
                aig.add_output(out);
            }
            let clean = aig.cleanup();
            let optimized = run_unbounded(&Bdiff::default(), &clean).aig;
            assert!(optimized.num_ands() <= clean.num_ands());
            assert_eq!(
                MiterOracle::new().check(&clean, &optimized),
                Verdict::Equivalent
            );
        }
    }
}

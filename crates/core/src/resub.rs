//! Windowed resubstitution with divisors.
//!
//! The classic `resub` move: inside a window, try to re-express a node as
//! (a) an existing divisor (0-resub), or (b) a single gate over two
//! divisors (1-resub), using exact window truth tables as the reasoning
//! engine (the paper's small-window truth-table methodology, Section
//! II-A).

use sbm_aig::mffc::mffc_size;
use sbm_aig::sim::window_truth_tables;
use sbm_aig::window::{partition, PartitionOptions};
use sbm_aig::{Aig, Lit, NodeId};
use sbm_tt::TruthTable;

use crate::engine::EngineStats;

/// Options for windowed resubstitution.
#[derive(Debug, Clone, Copy)]
pub struct ResubOptions {
    /// Window limits.
    pub partition: PartitionOptions,
    /// Maximum divisors considered per node.
    pub max_divisors: usize,
    /// Try two-divisor gates (1-resub) in addition to direct replacement.
    pub try_pairs: bool,
}

impl Default for ResubOptions {
    fn default() -> Self {
        ResubOptions {
            partition: PartitionOptions {
                max_nodes: 200,
                max_inputs: 12,
                max_levels: 10,
            },
            max_divisors: 24,
            try_pairs: true,
        }
    }
}

/// The resubstitution pass: `tried` counts the nodes a replacement was
/// searched for (live, with a nonempty MFFC), `accepted` the direct
/// divisor (0-resub) and two-divisor gate (1-resub) replacements.
pub(crate) fn resub_impl(aig: &Aig, options: &ResubOptions) -> (Aig, EngineStats) {
    let mut work = aig.cleanup();
    let mut stats = EngineStats::default();
    let parts = partition(&work, &options.partition);
    let mut fanout_counts = work.fanout_counts();
    for part in &parts {
        if part.leaves.is_empty() || part.leaves.len() > sbm_tt::MAX_VARS {
            continue;
        }
        let tables = window_truth_tables(&work, &part.roots, &part.leaves);
        // Divisors: window members and leaves, with their tables.
        let mut divisors: Vec<(NodeId, TruthTable)> = Vec::new();
        for &n in part.leaves.iter().chain(part.nodes.iter()) {
            if let Some(t) = tables.get(&n) {
                divisors.push((n, t.clone()));
            }
            if divisors.len() >= options.max_divisors {
                break;
            }
        }
        for &f in &part.nodes {
            if work.is_replaced(f) || fanout_counts.get(f.index()).is_none_or(|&c| c == 0) {
                continue;
            }
            let Some(tf) = tables.get(&f) else { continue };
            let saving = mffc_size(&work, f, &fanout_counts);
            if saving == 0 {
                continue;
            }
            stats.tried += 1;
            let mut replacement: Option<(Lit, usize)> = None; // (lit, cost)

            // 0-resub: an existing divisor (either phase) matches exactly.
            for (d, td) in &divisors {
                if *d == f || work.is_replaced(*d) {
                    continue;
                }
                if td == tf {
                    replacement = Some((Lit::new(*d, false), 0));
                    break;
                }
                if &!td == tf {
                    replacement = Some((Lit::new(*d, true), 0));
                    break;
                }
            }
            // 1-resub: f = gate(d1, d2) for AND/OR/XOR over any phases.
            if replacement.is_none() && options.try_pairs && saving >= 2 {
                'outer: for i in 0..divisors.len() {
                    let (d1, t1) = &divisors[i];
                    if *d1 == f || work.is_replaced(*d1) {
                        continue;
                    }
                    for (d2, t2) in divisors.iter().skip(i + 1) {
                        if *d2 == f || work.is_replaced(*d2) {
                            continue;
                        }
                        let l1 = Lit::new(*d1, false);
                        let l2 = Lit::new(*d2, false);
                        let candidates: [(TruthTable, u8); 7] = [
                            (t1 & t2, 0),
                            (&!t1 & t2, 1),
                            (t1 & &!t2, 2),
                            (&!t1 & &!t2, 3),
                            (t1 | t2, 4),
                            (t1 ^ t2, 5),
                            (!(t1 ^ t2), 6),
                        ];
                        for (cand, code) in candidates {
                            let (matches, invert) = if &cand == tf {
                                (true, false)
                            } else if &!&cand == tf {
                                (true, true)
                            } else {
                                (false, false)
                            };
                            if !matches {
                                continue;
                            }
                            let cost = if code >= 5 { 3 } else { 1 };
                            if cost >= saving {
                                continue;
                            }
                            let lit = build_gate(&mut work, code, l1, l2);
                            replacement = Some((lit.complement_if(invert), cost));
                            break 'outer;
                        }
                    }
                }
            }
            if let Some((lit, cost)) = replacement {
                if cost < saving && work.replace(f, lit).is_ok() {
                    stats.accepted += 1;
                    fanout_counts = work.fanout_counts();
                }
            }
        }
    }
    (work.cleanup(), stats)
}

fn build_gate(aig: &mut Aig, code: u8, l1: Lit, l2: Lit) -> Lit {
    match code {
        0 => aig.and(l1, l2),
        1 => aig.and(!l1, l2),
        2 => aig.and(l1, !l2),
        3 => aig.and(!l1, !l2),
        4 => aig.or(l1, l2),
        5 => aig.xor(l1, l2),
        _ => aig.xnor(l1, l2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_unbounded, Resub};
    use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

    #[test]
    fn zero_resub_reuses_existing_node() {
        // g = a & b exists; f rebuilds (a & b) & (a | b) == a & b the hard
        // way. Resub should reconnect f's users to g.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let g = aig.and(a, b);
        let o = aig.or(a, b);
        let f = aig.and(g, o); // functionally == g
        aig.add_output(g);
        aig.add_output(f);
        let before = aig.num_ands();
        let (optimized, stats) = resub_impl(&aig, &ResubOptions::default());
        assert!(optimized.num_ands() < before, "{stats:?}");
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
    }

    #[test]
    fn one_resub_finds_gate_over_divisors() {
        // f = (a & b) | (a & c) has a 1-resub as a & (b | c) when b|c
        // exists as a divisor.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let bc = aig.or(b, c);
        aig.add_output(bc); // keep the divisor alive
        let ab = aig.and(a, b);
        let ac = aig.and(a, c);
        let f = aig.or(ab, ac);
        aig.add_output(f);
        let before = aig.num_ands();
        let (optimized, _) = resub_impl(&aig, &ResubOptions::default());
        assert!(optimized.num_ands() < before);
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
    }

    #[test]
    fn counts_every_searched_node() {
        // One redundant node (f == g) among irreplaceable ones: every live
        // node is searched, only f finds a replacement.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let g = aig.and(a, b);
        let o = aig.or(a, b);
        let f = aig.and(g, o);
        let m = aig.maj3(a, b, c);
        aig.add_output(g);
        aig.add_output(f);
        aig.add_output(m);
        let stats = run_unbounded(&Resub::default(), &aig).stats;
        assert!(stats.accepted >= 1, "{stats:?}");
        assert!(stats.tried > stats.accepted, "{stats:?}");
    }

    #[test]
    fn never_worsens() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let d = aig.add_input();
        let x = aig.maj3(a, b, c);
        let y = aig.xor(x, d);
        aig.add_output(y);
        let optimized = run_unbounded(&Resub::default(), &aig).aig;
        assert!(optimized.num_ands() <= aig.num_ands());
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
    }
}

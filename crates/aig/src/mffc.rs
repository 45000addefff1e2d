//! Maximum fan-out-free cone (MFFC) computation.
//!
//! The MFFC of a node `n` is the set of nodes that are used *only* by `n`
//! (transitively): removing `n` removes exactly its MFFC. The paper uses
//! `mffc(f)` as the saving term when deciding whether a Boolean-difference
//! rewrite pays off (Alg. 1, line 11).

use std::collections::HashMap;

use crate::graph::Aig;
use crate::lit::NodeId;

/// Computes the MFFC of `node` given the network's fanout counts (from
/// [`Aig::fanout_counts`]). Returns the member node ids, `node` included.
/// Equal to [`mffc_within`] with no leaves.
///
/// # Example
///
/// ```
/// use sbm_aig::{Aig, mffc};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let c = aig.add_input();
/// let ab = aig.and(a, b);
/// let f = aig.and(ab, c);
/// aig.add_output(f);
/// let counts = aig.fanout_counts();
/// // ab is used only by f, so both are in f's MFFC.
/// assert_eq!(mffc::mffc_nodes(&aig, f.node(), &counts).len(), 2);
/// ```
pub fn mffc_nodes(aig: &Aig, node: NodeId, fanout_counts: &[u32]) -> Vec<NodeId> {
    mffc_within(aig, node, &[], fanout_counts)
}

/// The MFFC of `node` bounded by `leaves`: the nodes freed by
/// disconnecting `node` from a cut (or window boundary), where no leaf is
/// ever freed. Returns the member node ids, `node` included, or nothing
/// when `node` is not an AND gate.
pub fn mffc_within(
    aig: &Aig,
    node: NodeId,
    leaves: &[NodeId],
    fanout_counts: &[u32],
) -> Vec<NodeId> {
    if !aig.is_and(node) {
        return Vec::new();
    }
    // Simulate dereferencing: a fanin joins the MFFC when its last fanout
    // inside the cone is removed.
    let mut remaining: HashMap<NodeId, u32> = HashMap::new();
    let mut members = Vec::new();
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        members.push(id);
        let (a, b) = aig.fanins(id);
        for fanin in [a.node(), b.node()] {
            if !aig.is_and(fanin) || leaves.contains(&fanin) {
                continue;
            }
            // Saturating: callers may hold slightly stale fanout counts
            // (e.g. while iterating a pre-pass node order); a stale zero
            // must not underflow — the fanin is simply treated as shared.
            let left = remaining
                .entry(fanin)
                .or_insert_with(|| fanout_counts[fanin.index()]);
            if *left == 0 {
                continue;
            }
            *left -= 1;
            if *left == 0 {
                stack.push(fanin);
            }
        }
    }
    members
}

/// The size of the MFFC of `node` — the paper's `mffc(f)` saving metric.
pub fn mffc_size(aig: &Aig, node: NodeId, fanout_counts: &[u32]) -> usize {
    mffc_nodes(aig, node, fanout_counts).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Aig;

    #[test]
    fn shared_fanin_excluded() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let f = aig.and(ab, c);
        let g = aig.and(ab, a); // ab is shared between f and g
        aig.add_output(f);
        aig.add_output(g);
        let counts = aig.fanout_counts();
        let mf = mffc_nodes(&aig, f.node(), &counts);
        assert_eq!(mf, vec![f.node()], "shared ab must not be in f's MFFC");
        let mg = mffc_nodes(&aig, g.node(), &counts);
        assert_eq!(mg, vec![g.node()]);
    }

    #[test]
    fn chain_fully_contained() {
        let mut aig = Aig::new();
        let inputs: Vec<_> = (0..4).map(|_| aig.add_input()).collect();
        let mut acc = inputs[0];
        for &x in &inputs[1..] {
            acc = aig.and(acc, x);
        }
        aig.add_output(acc);
        let counts = aig.fanout_counts();
        assert_eq!(mffc_size(&aig, acc.node(), &counts), 3);
    }

    #[test]
    fn input_has_empty_mffc() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        aig.add_output(a);
        let counts = aig.fanout_counts();
        assert_eq!(mffc_size(&aig, a.node(), &counts), 0);
    }

    #[test]
    fn mffc_members_are_disjoint_for_independent_cones() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let d = aig.add_input();
        let f = aig.and(a, b);
        let g = aig.and(c, d);
        aig.add_output(f);
        aig.add_output(g);
        let counts = aig.fanout_counts();
        let mf = mffc_nodes(&aig, f.node(), &counts);
        let mg = mffc_nodes(&aig, g.node(), &counts);
        assert!(mf.iter().all(|n| !mg.contains(n)));
    }

    #[test]
    fn leaves_bound_the_mffc() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let f = aig.and(ab, c);
        aig.add_output(f);
        let counts = aig.fanout_counts();
        let leaves = [a.node(), b.node(), c.node()];
        assert_eq!(mffc_within(&aig, f.node(), &leaves, &counts).len(), 2);
        // With ab a leaf, only f is freed.
        let cut = [ab.node(), c.node()];
        assert_eq!(mffc_within(&aig, f.node(), &cut, &counts), vec![f.node()]);
        // With ab shared, only f is freed.
        aig.add_output(ab);
        let counts = aig.fanout_counts();
        assert_eq!(mffc_within(&aig, f.node(), &leaves, &counts).len(), 1);
    }
}

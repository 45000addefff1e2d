//! SAT-based redundancy removal.
//!
//! A fanin connection of an AND gate is *redundant* if replacing it by
//! constant 1 (i.e. replacing the gate by its other fanin) does not change
//! any primary output — the stuck-at-1 fault on that connection is
//! untestable. Following Debnath et al. \[9\] (cited by the paper and run
//! as part of its resynthesis script), we test candidate connections with
//! SAT and remove the proven-redundant ones.
//!
//! One scan encodes the network once into one incremental [`Solver`]
//! ([`FaultChecker`]). A candidate — gate `g` replaced by its fanin `a` —
//! adds a faulty copy of only `g`'s transitive fanout, in which `g` is
//! `a`'s literal and every node outside the cone keeps its good variable.
//! The good/faulty XOR of each primary output the cone reaches feeds one
//! difference clause, and the fault must be activated (`g ≠ a`); all of
//! it is guarded by a fresh activation literal. The check solves under
//! that single assumption, then retires the literal with a unit clause.
//! UNSAT proves the connection redundant: only then is the gate replaced,
//! the network cleaned up and the scan restarted (node ids change with
//! the cleanup).
//!
//! Candidates come from a *local* simulation filter: `(g, a)` is checked
//! only when `g` and `a` agree on every random pattern. Connections whose
//! fault changes `g` but is never observable at an output are therefore
//! not candidates, and this pass does not find them.

use sbm_aig::sim::Signatures;
use sbm_aig::{Aig, Lit, NodeId};

use crate::cnf::{encode, CnfMap};
use crate::equiv::Verdict;
use crate::solver::{SatLit, SolveResult, Solver, Var};

/// Options for redundancy removal.
#[derive(Debug, Clone, Copy)]
pub struct RedundancyOptions {
    /// Conflict budget per SAT check.
    pub budget: Option<u64>,
    /// Maximum number of SAT checks per pass (runtime guard).
    pub max_checks: usize,
}

impl Default for RedundancyOptions {
    fn default() -> Self {
        RedundancyOptions {
            budget: Some(2_000),
            max_checks: 10_000,
        }
    }
}

/// Statistics of a redundancy-removal pass. Every check ends in exactly
/// one of `removed`, `refuted` or `undecided`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedundancyStats {
    /// Connections proven redundant and removed.
    pub removed: usize,
    /// Checks that found an input pattern on which the fault changes a
    /// primary output (simulation false positives).
    pub refuted: usize,
    /// Checks that ran out of conflict budget.
    pub undecided: usize,
    /// SAT checks performed.
    pub checks: usize,
}

/// Result of a redundancy-removal pass.
#[derive(Debug, Clone)]
pub struct RedundancyResult {
    /// The cleaned network.
    pub aig: Aig,
    /// Pass statistics.
    pub stats: RedundancyStats,
}

/// Decides single-gate replacements of one network on one incremental
/// solver: the network is encoded once, and each check adds only a faulty
/// copy of the replaced gate's fanout cone.
///
/// Every clause a check adds is guarded by that check's activation
/// literal. Retiring the check fixes the activation literal and all of the
/// check's own variables to false at the root, so they take no further
/// part in search. Once the retired variables outnumber the network's
/// own, the next check starts from a fresh encoding, which bounds the
/// solver at about twice the network.
#[derive(Debug)]
pub struct FaultChecker<'a> {
    aig: &'a Aig,
    order: Vec<NodeId>,
    budget: Option<u64>,
    solver: Solver,
    map: CnfMap,
    /// Solver variables right after encoding the network.
    network_vars: usize,
    /// Faulty literal of each node in the current check's cone, indexed by
    /// node; reset after every check.
    faulty: Vec<Option<SatLit>>,
    /// Nodes whose `faulty` entry is set.
    cone: Vec<NodeId>,
    /// Variables the current check allocated.
    fresh: Vec<Var>,
}

impl<'a> FaultChecker<'a> {
    /// Encodes the live logic of `aig` into a fresh solver whose every
    /// check stops after `budget` conflicts (`None` = unbounded).
    pub fn new(aig: &'a Aig, budget: Option<u64>) -> Self {
        let (solver, map) = Self::encoded(aig, budget);
        FaultChecker {
            aig,
            order: aig.topo_order(),
            budget,
            network_vars: solver.num_vars(),
            solver,
            map,
            faulty: vec![None; aig.num_nodes()],
            cone: Vec::new(),
            fresh: Vec::new(),
        }
    }

    fn encoded(aig: &Aig, budget: Option<u64>) -> (Solver, CnfMap) {
        let mut solver = Solver::new();
        solver.set_conflict_budget(budget);
        let map = encode(aig, &mut solver);
        (solver, map)
    }

    /// A fresh variable of the current check.
    fn new_lit(&mut self) -> SatLit {
        let v = self.solver.new_var();
        self.fresh.push(v);
        SatLit::pos(v)
    }

    /// The solver literal of `lit` in the current check's faulty network.
    fn faulty_lit(&self, lit: Lit) -> SatLit {
        match self.faulty[lit.node().index()] {
            Some(f) if lit.is_complemented() => !f,
            Some(f) => f,
            None => self.map.lit(lit),
        }
    }

    /// Decides whether replacing the live AND gate `gate` by `with` leaves
    /// every primary output unchanged: [`Verdict::Equivalent`] if so,
    /// [`Verdict::Refuted`] with an input assignment (in primary-input
    /// order) on which some output differs, or [`Verdict::Unknown`] when
    /// the conflict budget runs out. Runs exactly one SAT solve.
    ///
    /// `with` must lie outside `gate`'s fanout cone (a fanin of `gate`
    /// always does).
    ///
    /// # Panics
    ///
    /// Panics if `gate` or `with`'s node is not live logic of the network.
    pub fn check(&mut self, gate: NodeId, with: Lit) -> Verdict {
        if self.solver.num_vars() > 2 * self.network_vars {
            (self.solver, self.map) = Self::encoded(self.aig, self.budget);
        }
        let act = self.new_lit();
        let with = self.map.lit(with);
        // An input on which `gate` equals `with` leaves the whole cone
        // unchanged, so only inputs that activate the fault can tell the
        // outputs apart: act → gate ⊕ with.
        let good = SatLit::pos(self.map.var(gate));
        self.solver.add_clause(&[!act, good, with]);
        self.solver.add_clause(&[!act, !good, !with]);
        self.faulty[gate.index()] = Some(with);
        self.cone.push(gate);
        // Fanins precede fanouts in `order`, so one forward pass collects
        // the whole transitive fanout of `gate`.
        for i in 0..self.order.len() {
            let id = self.order[i];
            let (a, b) = self.aig.fanins(id);
            if id == gate
                || (self.faulty[a.node().index()].is_none()
                    && self.faulty[b.node().index()].is_none())
            {
                continue;
            }
            let (la, lb) = (self.faulty_lit(a), self.faulty_lit(b));
            let lv = self.new_lit();
            // act → (lv ↔ la ∧ lb)
            self.solver.add_clause(&[!act, !lv, la]);
            self.solver.add_clause(&[!act, !lv, lb]);
            self.solver.add_clause(&[!act, lv, !la, !lb]);
            self.faulty[id.index()] = Some(lv);
            self.cone.push(id);
        }
        // act → some reached output differs: act ∧ d → good ⊕ faulty per
        // output, and ¬act ∨ d₁ ∨ … ∨ dₖ.
        let mut diff = vec![!act];
        for out in self.aig.outputs() {
            if self.faulty[out.node().index()].is_none() {
                continue;
            }
            let (good, bad) = (self.map.lit(out), self.faulty_lit(out));
            let d = self.new_lit();
            self.solver.add_clause(&[!act, !d, good, bad]);
            self.solver.add_clause(&[!act, !d, !good, !bad]);
            diff.push(d);
        }
        self.solver.add_clause(&diff);
        let verdict = match self.solver.solve(&[act]) {
            SolveResult::Unsat => Verdict::Equivalent,
            SolveResult::Unknown | SolveResult::Interrupted => Verdict::Unknown,
            SolveResult::Sat => Verdict::Refuted(
                self.aig
                    .inputs()
                    .iter()
                    .map(|&input| self.solver.model_value(self.map.var(input)))
                    .collect(),
            ),
        };
        // Retire the check. With act false every clause it added (and every
        // clause learnt from them, which carries ¬act) is satisfied, so its
        // other variables are unconstrained and can be fixed too.
        for v in self.fresh.drain(..) {
            self.solver.add_clause(&[SatLit::neg(v)]);
        }
        for id in self.cone.drain(..) {
            self.faulty[id.index()] = None;
        }
        verdict
    }
}

/// Scans `aig` (a cleaned network) in topological order and returns the
/// first connection proven redundant, as the gate and the fanin that
/// replaces it; `None` once the scan ends without one or the check limit
/// is reached.
fn next_redundant(
    aig: &Aig,
    options: &RedundancyOptions,
    stats: &mut RedundancyStats,
) -> Option<(NodeId, Lit)> {
    // Simulation prefilter: a gate can only be replaced by one of its
    // fanins if they agree on all random patterns — this screens out
    // almost every candidate before any SAT work.
    let sig = Signatures::random(aig, 8, 0x5EED_0DD5);
    let mut checker = FaultChecker::new(aig, options.budget);
    for id in aig.topo_order() {
        let (a, b) = aig.fanins(id);
        for candidate in [a, b] {
            if !sig.maybe_equal(Lit::new(id, false), candidate) {
                continue;
            }
            if stats.checks >= options.max_checks {
                return None;
            }
            stats.checks += 1;
            match checker.check(id, candidate) {
                Verdict::Equivalent => return Some((id, candidate)),
                Verdict::Refuted(_) => stats.refuted += 1,
                Verdict::Unknown => stats.undecided += 1,
            }
        }
    }
    None
}

/// Runs one redundancy-removal pass: for every AND gate, tests whether the
/// gate can be replaced by either of its fanins (stuck-at-1 on the other
/// connection). Proven-redundant gates are replaced. Returns the cleaned
/// network with the pass statistics.
pub fn remove_redundancies(aig: &Aig, options: &RedundancyOptions) -> RedundancyResult {
    let mut stats = RedundancyStats::default();
    let mut current = aig.cleanup();
    // Iterate to a fixpoint (each removal can expose more redundancy), but
    // bounded by the check budget. Node ids are only valid for the network
    // they came from, so every removal restarts the scan.
    while let Some((gate, with)) = next_redundant(&current, options, &mut stats) {
        // A fanin's cone never contains its gate, so this cannot fail.
        if current.replace(gate, with).is_err() {
            break;
        }
        stats.removed += 1;
        current = current.cleanup();
    }
    RedundancyResult {
        aig: current,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::{EquivalenceOracle, MiterOracle};

    #[test]
    fn removes_redundant_and() {
        // f = a & (a | b): the (a | b) connection is redundant; f = a.
        // Note strashing won't simplify this (different structure).
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let o = aig.or(a, b);
        let f = aig.and(a, o);
        aig.add_output(f);
        assert_eq!(aig.num_ands(), 2);
        let RedundancyResult {
            aig: cleaned,
            stats,
        } = remove_redundancies(&aig, &RedundancyOptions::default());
        assert!(stats.removed >= 1, "{stats:?}");
        assert_eq!(
            stats.checks,
            stats.removed + stats.refuted + stats.undecided
        );
        assert_eq!(cleaned.num_ands(), 0, "f should collapse to a");
        assert_eq!(
            MiterOracle::new().check(&aig, &cleaned),
            Verdict::Equivalent
        );
    }

    #[test]
    fn keeps_irredundant_logic() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let f = aig.maj3(a, b, c);
        aig.add_output(f);
        let before = aig.num_ands();
        let cleaned = remove_redundancies(&aig, &RedundancyOptions::default()).aig;
        assert_eq!(cleaned.num_ands(), before);
        assert_eq!(
            MiterOracle::new().check(&aig, &cleaned),
            Verdict::Equivalent
        );
    }

    #[test]
    fn respects_check_limit() {
        let mut aig = Aig::new();
        let inputs: Vec<_> = (0..6).map(|_| aig.add_input()).collect();
        let f = aig.and_many(&inputs);
        aig.add_output(f);
        let opts = RedundancyOptions {
            budget: Some(100),
            max_checks: 1,
        };
        let stats = remove_redundancies(&aig, &opts).stats;
        assert!(stats.checks <= 1);
    }

    #[test]
    fn checker_only_sees_outputs_the_cone_reaches() {
        // Output 0 = a & (a | b) (redundant connection), output 1 = b.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let o = aig.or(a, b);
        let f = aig.and(a, o);
        aig.add_output(f);
        aig.add_output(b);
        let mut checker = FaultChecker::new(&aig, None);
        assert!(matches!(checker.check(o.node(), !b), Verdict::Refuted(_)));
        assert_eq!(checker.check(f.node(), a), Verdict::Equivalent);
        assert!(matches!(checker.check(f.node(), o), Verdict::Refuted(_)));
    }
}

//! The CDCL solver core.

use std::fmt;

use sbm_budget::{Budget, BudgetError};

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Raw index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable with a sign. Encoded as `var << 1 | negated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatLit(u32);

impl SatLit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Self {
        SatLit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Self {
        SatLit(v.0 << 1 | 1)
    }

    /// Builds a literal with an explicit sign.
    pub fn new(v: Var, negated: bool) -> Self {
        SatLit(v.0 << 1 | negated as u32)
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is negative.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for SatLit {
    type Output = SatLit;
    fn not(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }
}

impl fmt::Display for SatLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "-{}", self.var().0 + 1)
        } else {
            write!(f, "{}", self.var().0 + 1)
        }
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found ([`Solver::model_value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
    /// The wall-clock/cancellation [`Budget`] attached via
    /// [`Solver::set_budget`] tripped before a verdict.
    Interrupted,
}

const UNDEF: u8 = 2;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<SatLit>,
    learnt: bool,
}

/// A conflict-driven clause-learning SAT solver.
///
/// Features: two watched literals, first-UIP conflict analysis, VSIDS-style
/// variable activities with exponential decay, phase saving, geometric
/// restarts and an optional conflict budget (so callers such as SAT
/// sweeping can bail out on hard instances, mirroring the resource bailouts
/// the paper applies to its BDD engines).
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<u32>>, // literal code -> clause indices watching it
    assign: Vec<u8>,        // var -> 0 false, 1 true, 2 undef
    phase: Vec<bool>,       // saved phases
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<SatLit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    ok: bool,
    conflict_budget: Option<u64>,
    budget: Budget,
    budget_tripped: Option<BudgetError>,
    conflicts: u64,
    /// Statistics: total decisions and propagations.
    pub num_decisions: u64,
    /// Statistics: total unit propagations.
    pub num_propagations: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            ok: true,
            conflict_budget: None,
            budget: Budget::unlimited(),
            budget_tripped: None,
            conflicts: 0,
            num_decisions: 0,
            num_propagations: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNDEF);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Limits the number of conflicts per [`Solver::solve`] call; `None`
    /// removes the limit. When the budget is exhausted, `solve` returns
    /// [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Attaches a wall-clock/cancellation [`Budget`] probed from inside
    /// the propagation loop; once it trips, [`Solver::solve`] returns
    /// [`SolveResult::Interrupted`]. Pass [`Budget::unlimited`] to detach.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn value(&self, l: SatLit) -> u8 {
        let a = self.assign[l.var().index()];
        if a == UNDEF {
            UNDEF
        } else {
            a ^ l.is_neg() as u8
        }
    }

    /// The model value of `v` after a [`SolveResult::Sat`] outcome.
    ///
    /// # Panics
    ///
    /// Panics if the variable is unassigned (no model available).
    pub fn model_value(&self, v: Var) -> bool {
        let a = self.assign[v.index()];
        assert!(a != UNDEF, "no model value for unassigned variable");
        a == 1
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (conflict at decision level 0).
    ///
    /// After a [`SolveResult::Sat`] answer the solver keeps its model at
    /// the decision levels that found it; adding a clause first backtracks
    /// to the root, which drops that model (read it with
    /// [`Solver::model_value`] before adding clauses).
    pub fn add_clause(&mut self, lits: &[SatLit]) -> bool {
        if !self.trail_lim.is_empty() {
            self.cancel_until(0);
        }
        if !self.ok {
            return false;
        }
        // Simplify: drop duplicate/false literals; detect tautology.
        let mut simplified: Vec<SatLit> = Vec::with_capacity(lits.len());
        for &l in lits {
            if self.value(l) == 1 || simplified.contains(&!l) {
                return true; // already satisfied / tautological
            }
            if self.value(l) == 0 || simplified.contains(&l) {
                continue;
            }
            simplified.push(l);
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(simplified, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<SatLit>, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0].code()].push(idx);
        self.watches[lits[1].code()].push(idx);
        self.clauses.push(Clause { lits, learnt });
        idx
    }

    fn unchecked_enqueue(&mut self, l: SatLit, reason: Option<u32>) {
        debug_assert_eq!(self.value(l), UNDEF);
        let v = l.var().index();
        self.assign[v] = !l.is_neg() as u8;
        self.phase[v] = !l.is_neg();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the index of a conflicting clause if any.
    ///
    /// Probes the attached [`Budget`] once per propagated literal; on a
    /// trip it records the reason in `budget_tripped` and returns early
    /// (no conflict) with `qhead` intact, so propagation stays resumable.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            if let Err(e) = self.budget.probe() {
                self.budget_tripped = Some(e);
                return None;
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.num_propagations += 1;
            let false_lit = !p;
            let mut watchers = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < watchers.len() {
                let ci = watchers[i];
                // Make sure the false literal is in slot 1.
                let (w0, w1) = {
                    let c = &mut self.clauses[ci as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    (c.lits[0], c.lits[1])
                };
                debug_assert_eq!(w1, false_lit);
                if self.value(w0) == 1 {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                let len = self.clauses[ci as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci as usize].lits[k];
                    if self.value(lk) != 0 {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[lk.code()].push(ci);
                        watchers.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.value(w0) == 0 {
                    // Conflict: restore remaining watchers.
                    self.watches[false_lit.code()] = watchers;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.unchecked_enqueue(w0, Some(ci));
                i += 1;
            }
            self.watches[false_lit.code()] = watchers;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis; returns (learnt clause, backtrack level).
    fn analyze(&mut self, confl: u32) -> (Vec<SatLit>, u32) {
        let mut seen = vec![false; self.num_vars()];
        let mut learnt: Vec<SatLit> = vec![SatLit(0)]; // slot for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<SatLit> = None;
        let mut confl = confl;
        let mut index = self.trail.len();
        let cur_level = self.trail_lim.len() as u32;

        loop {
            let clause_lits = self.clauses[confl as usize].lits.clone();
            let start = if p.is_some() { 1 } else { 0 };
            for &q in &clause_lits[start..] {
                let v = q.var();
                if !seen[v.index()] && self.level[v.index()] > 0 {
                    seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find next literal to expand on the trail.
            loop {
                index -= 1;
                if seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            let Some(reason) = self.reason[lit.var().index()] else {
                unreachable!("implied (non-decision) literal always has a reason clause");
            };
            confl = reason;
            p = Some(lit);
        }
        let Some(uip) = p else {
            unreachable!("conflict analysis always reaches a UIP");
        };
        learnt[0] = !uip;

        // Backtrack level: second-highest level in learnt clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    fn cancel_until(&mut self, level: u32) {
        // The loop conditions guarantee both pops succeed.
        while self.trail_lim.len() as u32 > level {
            let Some(lim) = self.trail_lim.pop() else {
                break;
            };
            while self.trail.len() > lim {
                let Some(l) = self.trail.pop() else { break };
                let v = l.var().index();
                self.assign[v] = UNDEF;
                self.reason[v] = None;
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<SatLit> {
        let mut best: Option<Var> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == UNDEF
                && best.is_none_or(|b| self.activity[v] > self.activity[b.index()])
            {
                best = Some(Var(v as u32));
            }
        }
        best.map(|v| SatLit::new(v, !self.phase[v.index()]))
    }

    /// Solves under the given assumption literals.
    ///
    /// Returns [`SolveResult::Unknown`] only when a conflict budget is set
    /// and exhausted, and [`SolveResult::Interrupted`] only when a budget
    /// attached via [`Solver::set_budget`] trips. The solver can be reused
    /// afterwards (assumptions are retracted).
    ///
    /// Every call also records its counter deltas (conflicts, decisions,
    /// propagations, outcome) into the calling thread's
    /// [`SatTally`](crate::SatTally), so the work of short-lived solvers
    /// survives their drop — see [`crate::drain_sat_tally`].
    pub fn solve(&mut self, assumptions: &[SatLit]) -> SolveResult {
        self.conflicts = 0;
        let decisions_before = self.num_decisions;
        let propagations_before = self.num_propagations;
        let result = self.solve_inner(assumptions);
        crate::tally::record_solve(
            result,
            self.conflicts,
            self.num_decisions - decisions_before,
            self.num_propagations - propagations_before,
        );
        result
    }

    fn solve_inner(&mut self, assumptions: &[SatLit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.budget_tripped = None;
        if self.budget.check().is_err() {
            return SolveResult::Interrupted;
        }
        let mut restart_limit = 128u64;
        let mut conflicts_since_restart = 0u64;
        let result = 'outer: loop {
            // (Re-)apply assumptions above the root level.
            self.cancel_until(0);
            for &a in assumptions {
                match self.value(a) {
                    1 => continue,
                    0 => break 'outer SolveResult::Unsat,
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(a, None);
                        if let Some(confl) = self.propagate() {
                            let _ = confl;
                            break 'outer SolveResult::Unsat;
                        }
                        if self.budget_tripped.take().is_some() {
                            break 'outer SolveResult::Interrupted;
                        }
                    }
                }
            }
            let assumption_level = self.trail_lim.len() as u32;
            loop {
                if let Some(confl) = self.propagate() {
                    self.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.trail_lim.len() as u32 <= assumption_level {
                        break 'outer SolveResult::Unsat;
                    }
                    let (learnt, bt) = self.analyze(confl);
                    self.cancel_until(bt.max(assumption_level));
                    if learnt.len() == 1 {
                        if self.trail_lim.len() as u32 > assumption_level {
                            self.cancel_until(assumption_level);
                        }
                        if self.value(learnt[0]) == 0 {
                            break 'outer SolveResult::Unsat;
                        }
                        if self.value(learnt[0]) == UNDEF {
                            self.unchecked_enqueue(learnt[0], None);
                        }
                    } else {
                        let ci = self.attach_clause(learnt.clone(), true);
                        self.unchecked_enqueue(learnt[0], Some(ci));
                    }
                    self.var_inc /= 0.95;
                    if let Some(budget) = self.conflict_budget {
                        if self.conflicts >= budget {
                            break 'outer SolveResult::Unknown;
                        }
                    }
                    if conflicts_since_restart >= restart_limit {
                        conflicts_since_restart = 0;
                        restart_limit = restart_limit + restart_limit / 2;
                        continue 'outer;
                    }
                } else if self.budget_tripped.take().is_some() {
                    break 'outer SolveResult::Interrupted;
                } else {
                    match self.pick_branch() {
                        None => break 'outer SolveResult::Sat,
                        Some(l) => {
                            self.num_decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(l, None);
                        }
                    }
                }
            }
        };
        if result != SolveResult::Sat {
            self.cancel_until(0);
        }
        result
    }

    /// Number of learnt clauses currently stored.
    pub fn num_learnts(&self) -> usize {
        self.clauses.iter().filter(|c| c.learnt).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<SatLit> {
        (0..n).map(|_| SatLit::pos(solver.new_var())).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0]]);
        assert!(!s.add_clause(&[!v[0]]) || s.solve(&[]) == SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[!v[2], v[3]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for l in &v {
            assert!(s.model_value(l.var()));
        }
    }

    #[test]
    // Index-based clause construction reads better than iterator chains.
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[SatLit(0); 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = SatLit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(&[row[0], row[1]]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in i1 + 1..3 {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_work_and_retract() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(&[!v[0], !v[1]]), SolveResult::Unsat);
        // Solver is reusable: without assumptions it is satisfiable.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.solve(&[!v[0]]), SolveResult::Sat);
        assert!(s.model_value(v[1].var()));
    }

    #[test]
    fn add_clause_after_sat_answer_backtracks_to_root() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(&[!v[0]]), SolveResult::Sat);
        assert!(s.model_value(v[1].var()));
        // The kept model sits above the root; these clauses must still land.
        assert!(s.add_clause(&[!v[1], v[2]]));
        assert!(s.add_clause(&[!v[2]]));
        assert_eq!(s.solve(&[!v[0]]), SolveResult::Unsat);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.model_value(v[0].var()));
        assert!(!s.model_value(v[1].var()));
        assert!(!s.model_value(v[2].var()));
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ^ x1 ^ x2 = 1 encoded with auxiliary clauses.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        // Odd parity: enumerate the 4 satisfying patterns as clauses over
        // the 4 falsifying ones (CNF of XOR).
        s.add_clause(&[v[0], v[1], v[2]]);
        s.add_clause(&[v[0], !v[1], !v[2]]);
        s.add_clause(&[!v[0], v[1], !v[2]]);
        s.add_clause(&[!v[0], !v[1], v[2]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let parity =
            s.model_value(v[0].var()) ^ s.model_value(v[1].var()) ^ s.model_value(v[2].var());
        assert!(parity);
    }

    #[test]
    // Index-based clause construction reads better than iterator chains.
    #[allow(clippy::needless_range_loop)]
    fn conflict_budget_returns_unknown() {
        // A hard pigeonhole instance with a tiny budget.
        let n = 6;
        let mut s = Solver::new();
        let mut p = vec![vec![SatLit(0); n - 1]; n];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = SatLit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(&row.clone());
        }
        for j in 0..n - 1 {
            for i1 in 0..n {
                for i2 in i1 + 1..n {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        s.set_conflict_budget(Some(3));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn cancelled_budget_interrupts_and_detaches() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        let budget = Budget::cancellable();
        s.set_budget(budget.clone());
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        budget.cancel();
        assert_eq!(s.solve(&[]), SolveResult::Interrupted);
        // Detaching the budget makes the solver usable again.
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn expired_deadline_interrupts_solve() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        s.set_budget(Budget::with_deadline(std::time::Duration::ZERO));
        assert_eq!(s.solve(&[]), SolveResult::Interrupted);
    }

    #[test]
    fn tautological_clause_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0], !v[0]]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }
}

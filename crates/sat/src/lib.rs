//! A CDCL SAT solver and its AIG bindings.
//!
//! "SAT solvers have recently been used as Boolean method engine for don't
//! cares computation … More recently, a SAT-based redundancy removal
//! approach has been presented \[9\]" (paper, Section II-A). The SBM
//! resynthesis script runs "SAT-based sweeping and redundancy removal as in
//! \[9\]" as one of its steps (Section V-A); equivalence checking also
//! backs the verification of every optimization engine in this repository.
//!
//! Contents:
//!
//! * [`Solver`] — conflict-driven clause learning with two watched
//!   literals, VSIDS-style activities, phase saving and restarts;
//! * [`cnf`] — Tseitin encoding of AIGs;
//! * [`equiv`] — miter-based combinational equivalence checking;
//! * [`sweep`](mod@sweep) — SAT sweeping (merge functionally equivalent nodes);
//! * [`redundancy`] — SAT-based redundancy removal.
//!
//! # Example
//!
//! ```
//! use sbm_sat::{Solver, SatLit, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[SatLit::pos(a), SatLit::pos(b)]);
//! solver.add_clause(&[SatLit::neg(a)]);
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! assert!(solver.model_value(b));
//! ```

pub mod cnf;
pub mod equiv;
pub mod redundancy;
mod solver;
pub mod sweep;
mod tally;

pub use equiv::{EquivalenceOracle, MiterOracle, Verdict};
pub use solver::{SatLit, SolveResult, Solver, Var};
pub use sweep::{sweep, SweepOptions, SweepOutcome, SweepStats};
pub use tally::{drain_sat_tally, note_sat_tally, SatTally};

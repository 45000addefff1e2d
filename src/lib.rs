//! # SBM — Scalable Boolean Methods
//!
//! A Rust reproduction of *“Scalable Boolean Methods in a Modern Synthesis
//! Flow”* (Testa et al., DATE 2019). This facade crate re-exports the public
//! API of all the workspace crates so that downstream users can depend on a
//! single crate.
//!
//! The framework consists of four optimization engines (paper Sections III
//! and IV):
//!
//! 1. [`core::bdiff`] — Boolean-difference-based resubstitution,
//! 2. [`core::gradient`] — gradient-based AIG optimization,
//! 3. [`core::hetero`] — heterogeneous elimination for kernel extraction,
//! 4. [`core::mspf`] — MSPF computation with BDDs,
//!
//! built on top of from-scratch substrates: truth tables ([`tt`]), a BDD
//! package ([`bdd`]), an AIG with structural hashing ([`aig`]), an SOP logic
//! network ([`sop`]), a CDCL SAT solver ([`sat`]), and a k-LUT mapper
//! ([`lutmap`]). The [`check`] crate validates the structural invariants of
//! the AIG/BDD/SOP representations; the optimization pipeline can run with
//! those checks at every engine boundary (see
//! [`core::engine::EngineCtx::check_level`]), and the [`budget`]
//! crate bounds engine effort with wall-clock deadlines and cooperative
//! cancellation (see [`core::engine::EngineCtx::budget`]). The
//! [`journal`] crate persists a script run after every step, so an
//! interrupted run resumes where it stopped
//! ([`core::script::sbm_script_resumable`]).
//!
//! # Quickstart
//!
//! ```
//! use sbm::aig::Aig;
//! use sbm::core::script;
//!
//! // Build a tiny network: f = (a & b) | (a & c)
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let c = aig.add_input();
//! let ab = aig.and(a, b);
//! let ac = aig.and(a, c);
//! let f = aig.or(ab, ac);
//! aig.add_output(f);
//!
//! let before = aig.num_ands();
//! let optimized = script::sbm_script_report(&aig, &script::SbmOptions::default()).aig;
//! assert!(optimized.num_ands() <= before);
//! ```

pub use sbm_aig as aig;
pub use sbm_asic as asic;
pub use sbm_bdd as bdd;
pub use sbm_budget as budget;
pub use sbm_check as check;
pub use sbm_core as core;
pub use sbm_epfl as epfl;
pub use sbm_journal as journal;
pub use sbm_lutmap as lutmap;
pub use sbm_metrics as metrics;
pub use sbm_sat as sat;
pub use sbm_sim as sim;
pub use sbm_sop as sop;
pub use sbm_tt as tt;

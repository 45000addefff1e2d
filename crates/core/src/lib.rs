//! # The Scalable Boolean Method (SBM) framework
//!
//! This crate implements the four optimization engines of *“Scalable
//! Boolean Methods in a Modern Synthesis Flow”* (Testa et al., DATE 2019),
//! plus the state-of-the-art baseline transformations the paper composes
//! them with:
//!
//! | Engine | Module | Paper section |
//! |---|---|---|
//! | Boolean-difference resubstitution | [`bdiff`] | III |
//! | Gradient-based AIG optimization | [`gradient`] | IV-A |
//! | Heterogeneous elimination for kerneling | [`hetero`] | IV-B |
//! | MSPF computation with BDDs | [`mspf`] | IV-C |
//!
//! Baseline moves (used inside the gradient engine and the `resyn2rs`-style
//! reference script): [`rewrite`], [`refactor`], [`resub`], [`balance`],
//! plus SAT sweeping and redundancy removal from [`sbm_sat`].
//!
//! The top-level entry points live in [`script`]: [`script::resyn2rs`]
//! (the ABC-style baseline the paper compares against) and
//! [`script::sbm_script_report`] (the paper's Boolean resynthesis flow,
//! Section V-A). Each windowed script step runs its engine over the whole
//! network through [`pipeline::pass`], which fans the windows out over
//! worker threads; every setting of a pass comes from its
//! [`engine::EngineCtx`].
//!
//! Every entry point can run in *checked mode*
//! ([`CheckLevel::Boundaries`] or [`CheckLevel::Paranoid`], via
//! [`engine::EngineCtx::check_level`] /
//! [`script::SbmOptions::check_level`]): engine invocations are then
//! bracketed by the structural invariant checks of [`sbm_check`] plus a
//! 64-pattern simulation spot-check, and any violation is reported with
//! the engine and partition that first caused it
//! ([`engine::CheckViolation`]).
//!
//! Execution is fault-tolerant: a wall-clock deadline or cancellation
//! ([`sbm_budget::Budget`], via [`engine::EngineCtx::budget`] /
//! [`script::SbmOptions::deadline`]) stops engines cooperatively, window
//! panics are caught and degraded to the original sub-network, failed
//! attempts are retried once at reduced effort, and everything is tallied
//! in [`pipeline::FaultSummary`]. Deterministic fault injection
//! ([`sbm_check::FaultPlan`]) exercises every one of those paths in tests.
//!
//! Script runs are also crash-safe: with
//! [`script::SbmOptions::checkpoint_dir`] set, the network after each
//! script step is persisted as a CRC-checked snapshot (`sbm_journal`),
//! and [`script::sbm_script_resumable`] picks an interrupted run up at
//! the last recorded step.
//!
//! # Example
//!
//! ```
//! use sbm_aig::Aig;
//! use sbm_core::script::{sbm_script_report, SbmOptions};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let c = aig.add_input();
//! // Redundant structure: (a & b) | (a & b & c) == a & b.
//! let ab = aig.and(a, b);
//! let abc = aig.and(ab, c);
//! let f = aig.or(ab, abc);
//! aig.add_output(f);
//! let optimized = sbm_script_report(&aig, &SbmOptions::default()).aig;
//! assert!(optimized.num_ands() <= aig.num_ands());
//! ```

pub use sbm_check::{CheckCode, CheckError, CheckLevel};

pub mod balance;
pub mod bdd_bridge;
pub mod bdiff;
pub mod engine;
pub mod gradient;
pub mod hetero;
pub mod mspf;
pub mod pipeline;
pub mod refactor;
pub mod resub;
pub mod rewrite;
pub mod script;
pub mod verify;

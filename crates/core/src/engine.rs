//! The common optimization-engine abstraction.
//!
//! Every Boolean/algebraic engine in this crate is reachable through the
//! [`Engine`] trait: a named pass that maps an AIG to an optimized AIG
//! plus uniform [`EngineStats`]. The trait is what the parallel pipeline
//! (see [`crate::pipeline`]) schedules over windows, and what scripts
//! compose into sequences.
//!
//! Engines are `Send + Sync` — a single engine value may be shared by
//! many worker threads, each running it on a disjoint window.

use std::fmt;
use std::time::Duration;

use sbm_aig::Aig;
use sbm_budget::Budget;
use sbm_check::{check_aig, sim_spot_check, CheckError, CheckLevel, FaultPlan};
use sbm_metrics::Timer;
use sbm_sim::SigService;

use crate::balance::balance;
use crate::bdiff::{boolean_difference_resub_filtered, BdiffOptions};
use crate::gradient::{gradient_optimize_filtered, GradientOptions};
use crate::hetero::{hetero_eliminate_kernel_impl, HeteroOptions};
use crate::mspf::{mspf_optimize_filtered, MspfOptions};
use crate::refactor::{refactor_impl, RefactorOptions};
use crate::resub::{resub_impl, ResubOptions};
use crate::rewrite::{rewrite_impl, RewriteOptions};

/// Borrowed per-invocation context for [`Engine::optimize`] — the one
/// bundle every engine receives, replacing the owned
/// context-plus-side-channels of the pre-redesign API.
///
/// All fields are private behind typed accessors so the set can grow
/// without breaking implementors; construction is builder-style from a
/// borrowed [`Budget`]:
///
/// ```
/// use sbm_budget::Budget;
/// use sbm_core::engine::{Engine, EngineCtx, Mspf};
///
/// let budget = Budget::unlimited();
/// let ctx = EngineCtx::new(&budget).with_threads(2);
/// let aig = sbm_aig::Aig::new();
/// let result = Mspf::default().optimize(&aig, &ctx);
/// assert_eq!(result.stats.gain, 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EngineCtx<'a> {
    num_threads: usize,
    check_level: CheckLevel,
    budget: &'a Budget,
    fault_plan: Option<&'a FaultPlan>,
    sim: Option<&'a SigService>,
}

impl<'a> EngineCtx<'a> {
    /// A serial, check-free, fault-free, unfiltered context over `budget`.
    pub fn new(budget: &'a Budget) -> Self {
        EngineCtx {
            num_threads: 1,
            check_level: CheckLevel::Off,
            budget,
            fault_plan: None,
            sim: None,
        }
    }

    /// Sets the worker-thread count (1 = strictly serial).
    #[must_use]
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Sets the invariant-checking level the caller runs this engine at.
    #[must_use]
    pub fn with_check_level(mut self, check_level: CheckLevel) -> Self {
        self.check_level = check_level;
        self
    }

    /// Attaches a deterministic fault-injection plan (tests only).
    #[must_use]
    pub fn with_fault_plan(mut self, fault_plan: Option<&'a FaultPlan>) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Attaches the shared simulation-signature service; engines with
    /// expensive (BDD/SAT) candidate evaluation use it to reject
    /// candidates whose signatures differ on observable bits.
    #[must_use]
    pub fn with_sim(mut self, sim: Option<&'a SigService>) -> Self {
        self.sim = sim;
        self
    }

    /// Worker threads available to the engine (1 = strictly serial).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The invariant-checking level of the surrounding run.
    pub fn check_level(&self) -> CheckLevel {
        self.check_level
    }

    /// The resource budget (wall-clock deadline / cancellation) the
    /// engine must honor.
    pub fn budget(&self) -> &'a Budget {
        self.budget
    }

    /// The fault-injection plan of the surrounding run, if any.
    pub fn fault_plan(&self) -> Option<&'a FaultPlan> {
        self.fault_plan
    }

    /// The shared simulation-signature service, if candidate filtering
    /// is enabled for this run.
    pub fn sim(&self) -> Option<&'a SigService> {
        self.sim
    }
}

/// Uniform per-engine statistics (the paper's cost/benefit bookkeeping).
///
/// Engines with richer native stats (e.g. [`crate::bdiff::BdiffStats`])
/// project onto these fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Windows / partitions processed (0 for non-windowed engines).
    pub windows: usize,
    /// Candidate moves evaluated.
    pub tried: usize,
    /// Moves accepted.
    pub accepted: usize,
    /// AND-node reduction (positive = smaller network).
    pub gain: i64,
    /// BDD node-limit bailouts. Every `BddError::NodeLimit` bail inside
    /// an engine increments this — including the mspf/bdiff moves the
    /// gradient scheduler dispatches; the purely algebraic engines
    /// (balance, rewrite, refactor, resub, hetero) use no BDDs, so their
    /// count is structurally zero. Budget interruptions (deadline /
    /// cancel) are *not* counted here; they surface in the pipeline's
    /// `FaultSummary` instead.
    pub bailouts: usize,
    /// Busy time of the pass: wall-clock time spent inside this one
    /// invocation. Merging stats from concurrent workers *sums* their
    /// busy times, so an aggregate can exceed the true elapsed
    /// wall-clock; phase walls live in
    /// [`crate::pipeline::PipelineReport`].
    pub busy: Duration,
}

impl EngineStats {
    /// Accumulates `other` into `self` (counter-wise sum).
    pub fn merge(&mut self, other: &EngineStats) {
        self.windows += other.windows;
        self.tried += other.tried;
        self.accepted += other.accepted;
        self.gain += other.gain;
        self.bailouts += other.bailouts;
        self.busy += other.busy;
    }
}

/// What an engine pass produces: the optimized AIG plus its stats.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// The optimized network (never larger than the input).
    pub aig: Aig,
    /// Uniform statistics of the pass.
    pub stats: EngineStats,
}

/// An optimized AIG paired with engine-native statistics. Replaces the
/// bare `(Aig, Stats)` tuples of the pre-trait API.
#[derive(Debug, Clone)]
pub struct Optimized<S> {
    /// The optimized network.
    pub aig: Aig,
    /// Engine-native statistics.
    pub stats: S,
}

/// A named optimization pass over an AIG.
pub trait Engine: Send + Sync {
    /// Short engine name (used in reports and logs).
    fn name(&self) -> &str;
    /// Runs the pass. Implementations never return a larger network.
    fn optimize(&self, aig: &Aig, ctx: &EngineCtx<'_>) -> EngineResult;
    /// A cheaper preset of this engine for the pipeline's retry ladder:
    /// after a failed invocation (panic or forced bailout) the window is
    /// retried once on this variant before degrading to its original
    /// sub-network. `None` (the default) retries with the engine itself.
    ///
    /// Mirrors the paper's "try expensive Boolean, fall back to cheap
    /// algebraic" philosophy: the BDD-backed engines halve their node
    /// limits here.
    fn reduced_effort(&self) -> Option<Box<dyn Engine>> {
        None
    }
}

/// Seed of every 64-pattern simulation spot-check run by the checked
/// pipeline mode — fixed so checked runs stay deterministic.
pub const SPOT_CHECK_SEED: u64 = 0x53424DC4EC;

/// An invariant violation caught by the checked pipeline mode
/// ([`CheckLevel`]), attributing the failure to
/// the engine invocation (and, inside the pipeline, the partition) that
/// produced it.
#[derive(Debug, Clone)]
pub struct CheckViolation {
    /// The engine whose invocation was bracketed (`"pipeline"` /
    /// `"script"` for run-boundary checks).
    pub engine: String,
    /// Where the check fired: `"pre"` (input already violated an
    /// invariant), `"post"` (the engine's output does) or `"sim"` (the
    /// 64-pattern spot-check found a functional mismatch).
    pub stage: &'static str,
    /// Partition index within the pipeline run, when window-scoped.
    pub window: Option<usize>,
    /// The violated invariant.
    pub error: CheckError,
}

impl fmt::Display for CheckViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.window {
            Some(w) => write!(
                f,
                "{} ({} check, window {w}): {}",
                self.engine, self.stage, self.error
            ),
            None => write!(f, "{} ({} check): {}", self.engine, self.stage, self.error),
        }
    }
}

/// Runs `engine` bracketed by invariant checks: the input must pass
/// [`check_aig`] (otherwise the engine is not run at all), and the
/// output must pass both [`check_aig`] and a 64-pattern
/// [`sim_spot_check`] against the input. A violating result is
/// **discarded** — the input passes through unchanged — and the
/// violation is reported, attributed to `engine` and `window`.
///
/// This is the primitive behind [`CheckLevel::Paranoid`]; callers at
/// `Off` should invoke [`Engine::optimize`] directly (this wrapper costs
/// two structural walks and two simulation sweeps per invocation).
pub fn run_checked(
    engine: &dyn Engine,
    aig: &Aig,
    ctx: &EngineCtx<'_>,
    window: Option<usize>,
) -> (EngineResult, Vec<CheckViolation>) {
    let violation = |stage, error| CheckViolation {
        engine: engine.name().to_string(),
        stage,
        window,
        error,
    };
    if let Err(error) = check_aig(aig) {
        // Never hand a corrupted network to an engine: the resolving
        // accessors could loop or panic on it.
        return (
            EngineResult {
                aig: aig.clone(),
                stats: EngineStats::default(),
            },
            vec![violation("pre", error)],
        );
    }
    let result = engine.optimize(aig, ctx);
    let error =
        check_aig(&result.aig).and_then(|()| sim_spot_check(aig, &result.aig, SPOT_CHECK_SEED));
    match error {
        Ok(()) => (result, Vec::new()),
        Err(error) => {
            let stage = if error.code == sbm_check::CheckCode::SimMismatch {
                "sim"
            } else {
                "post"
            };
            (
                EngineResult {
                    aig: aig.clone(),
                    stats: result.stats,
                },
                vec![violation(stage, error)],
            )
        }
    }
}

/// Times `run`, computes the node gain, and lets `fill` project the
/// engine-native stats onto [`EngineStats`].
fn timed<S>(
    aig: &Aig,
    run: impl FnOnce(&Aig) -> (Aig, S),
    fill: impl FnOnce(S, &mut EngineStats),
) -> EngineResult {
    let before = aig.num_ands() as i64;
    let timer = Timer::start();
    let (aig, native) = run(aig);
    let mut stats = EngineStats {
        gain: before - aig.num_ands() as i64,
        ..EngineStats::default()
    };
    fill(native, &mut stats);
    stats.busy = timer.stop();
    EngineResult { aig, stats }
}

/// AND-tree balancing as an [`Engine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Balance;

impl Engine for Balance {
    fn name(&self) -> &str {
        "balance"
    }

    fn optimize(&self, aig: &Aig, _ctx: &EngineCtx<'_>) -> EngineResult {
        timed(
            aig,
            |a| (balance(a), ()),
            |(), stats| {
                stats.tried = 1;
                stats.accepted = usize::from(stats.gain > 0);
            },
        )
    }
}

/// Cut-based rewriting as an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct Rewrite {
    /// Pass options.
    pub options: RewriteOptions,
}

impl Engine for Rewrite {
    fn name(&self) -> &str {
        "rewrite"
    }

    fn optimize(&self, aig: &Aig, _ctx: &EngineCtx<'_>) -> EngineResult {
        timed(
            aig,
            |a| rewrite_impl(a, &self.options),
            |native, stats| {
                stats.tried = native.cuts_tried;
                stats.accepted = native.rewritten;
            },
        )
    }
}

/// Cone refactoring as an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct Refactor {
    /// Pass options.
    pub options: RefactorOptions,
}

impl Engine for Refactor {
    fn name(&self) -> &str {
        "refactor"
    }

    fn optimize(&self, aig: &Aig, _ctx: &EngineCtx<'_>) -> EngineResult {
        timed(
            aig,
            |a| refactor_impl(a, &self.options),
            |native, stats| {
                stats.tried = native.considered;
                stats.accepted = native.refactored;
            },
        )
    }
}

/// Windowed resubstitution as an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct Resub {
    /// Pass options.
    pub options: ResubOptions,
}

impl Engine for Resub {
    fn name(&self) -> &str {
        "resub"
    }

    fn optimize(&self, aig: &Aig, _ctx: &EngineCtx<'_>) -> EngineResult {
        timed(
            aig,
            |a| resub_impl(a, &self.options),
            |native, stats| {
                stats.accepted = native.zero_resubs + native.one_resubs;
                stats.tried = stats.accepted;
            },
        )
    }
}

/// MSPF-based redundancy removal as an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct Mspf {
    /// Pass options.
    pub options: MspfOptions,
}

impl Engine for Mspf {
    fn name(&self) -> &str {
        "mspf"
    }

    fn optimize(&self, aig: &Aig, ctx: &EngineCtx<'_>) -> EngineResult {
        timed(
            aig,
            |a| mspf_optimize_filtered(a, &self.options, ctx.budget(), ctx.sim()),
            |native, stats| {
                stats.tried = native.mspf_computed;
                stats.accepted = native.replaced + native.constants;
                stats.bailouts = native.bailouts;
            },
        )
    }

    fn reduced_effort(&self) -> Option<Box<dyn Engine>> {
        let mut options = self.options;
        options.bdd_node_limit = (options.bdd_node_limit / 2).max(1);
        options.max_candidates = (options.max_candidates / 2).max(1);
        Some(Box::new(Mspf { options }))
    }
}

/// Boolean-difference resubstitution as an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct Bdiff {
    /// Pass options.
    pub options: BdiffOptions,
}

impl Engine for Bdiff {
    fn name(&self) -> &str {
        "bdiff"
    }

    fn optimize(&self, aig: &Aig, ctx: &EngineCtx<'_>) -> EngineResult {
        timed(
            aig,
            |a| boolean_difference_resub_filtered(a, &self.options, ctx.budget(), ctx.sim()),
            |native, stats| {
                stats.windows = native.windows;
                stats.tried = native.pairs_tried;
                stats.accepted = native.accepted;
                stats.bailouts = native.bailouts;
            },
        )
    }

    fn reduced_effort(&self) -> Option<Box<dyn Engine>> {
        let mut options = self.options;
        options.bdd_node_limit = (options.bdd_node_limit / 2).max(1);
        options.max_pairs_per_node = (options.max_pairs_per_node / 2).max(1);
        Some(Box::new(Bdiff { options }))
    }
}

/// Heterogeneous eliminate + kernel extraction as an [`Engine`].
///
/// The only engine that consults [`EngineCtx::num_threads`] directly:
/// its internal threshold sweep runs on scoped threads unless the context
/// demands strict serial execution.
#[derive(Debug, Clone, Default)]
pub struct Hetero {
    /// Pass options.
    pub options: HeteroOptions,
}

impl Engine for Hetero {
    fn name(&self) -> &str {
        "hetero"
    }

    fn optimize(&self, aig: &Aig, ctx: &EngineCtx<'_>) -> EngineResult {
        timed(
            aig,
            |a| hetero_eliminate_kernel_impl(a, &self.options, ctx.num_threads()),
            |native, stats| {
                stats.windows = native.partitions;
                stats.tried = native.partitions;
                stats.accepted = native.improved;
            },
        )
    }
}

/// The gradient-based move scheduler as an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct Gradient {
    /// Scheduler options.
    pub options: GradientOptions,
}

impl Engine for Gradient {
    fn name(&self) -> &str {
        "gradient"
    }

    fn optimize(&self, aig: &Aig, ctx: &EngineCtx<'_>) -> EngineResult {
        timed(
            aig,
            |a| gradient_optimize_filtered(a, &self.options, ctx),
            |native, stats| {
                for (_, record) in &native.records {
                    stats.tried += record.tried as usize;
                    stats.accepted += record.succeeded as usize;
                    stats.bailouts += record.bailouts as usize;
                }
            },
        )
    }

    fn reduced_effort(&self) -> Option<Box<dyn Engine>> {
        let mut options = self.options.clone();
        options.budget = (options.budget / 2).max(1);
        options.budget_extension = 0;
        Some(Box::new(Gradient { options }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::equivalent;

    fn benchmark_aig() -> Aig {
        let mut aig = Aig::new();
        let inputs: Vec<_> = (0..6).map(|_| aig.add_input()).collect();
        let mut acc = aig.and(inputs[0], inputs[1]);
        for chunk in inputs.windows(3) {
            let m = aig.maj3(chunk[0], chunk[1], chunk[2]);
            let x = aig.xor(m, acc);
            acc = aig.or(x, chunk[1]);
        }
        aig.add_output(acc);
        aig.add_output(!acc);
        aig
    }

    fn all_engines() -> Vec<Box<dyn Engine>> {
        vec![
            Box::new(Balance),
            Box::new(Rewrite::default()),
            Box::new(Refactor::default()),
            Box::new(Resub::default()),
            Box::new(Mspf::default()),
            Box::new(Bdiff::default()),
            Box::new(Hetero::default()),
            Box::new(Gradient::default()),
        ]
    }

    #[test]
    fn every_engine_preserves_function_and_never_grows() {
        let aig = benchmark_aig();
        let budget = Budget::unlimited();
        let ctx = EngineCtx::new(&budget);
        for engine in all_engines() {
            let result = engine.optimize(&aig, &ctx);
            assert!(
                result.aig.num_ands() <= aig.num_ands(),
                "{} grew the network",
                engine.name()
            );
            assert!(
                equivalent(&aig, &result.aig),
                "{} broke equivalence",
                engine.name()
            );
            assert_eq!(
                result.stats.gain,
                aig.num_ands() as i64 - result.aig.num_ands() as i64,
                "{} mis-reported gain",
                engine.name()
            );
        }
    }

    #[test]
    fn engine_ctx_accessors_round_trip() {
        let budget = Budget::unlimited();
        let sim = SigService::default();
        let ctx = EngineCtx::new(&budget)
            .with_threads(4)
            .with_check_level(CheckLevel::Paranoid)
            .with_sim(Some(&sim));
        assert_eq!(ctx.num_threads(), 4);
        assert_eq!(ctx.check_level(), CheckLevel::Paranoid);
        assert!(ctx.fault_plan().is_none());
        assert!(ctx.sim().is_some());
        assert!(ctx.budget().check().is_ok());
    }

    #[test]
    fn engines_have_unique_names() {
        let engines = all_engines();
        let mut names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), engines.len());
    }

    #[test]
    fn stats_merge_sums_counters() {
        let a = EngineStats {
            windows: 1,
            tried: 2,
            accepted: 1,
            gain: 3,
            bailouts: 0,
            busy: Duration::from_millis(5),
        };
        let mut b = EngineStats {
            windows: 4,
            tried: 5,
            accepted: 2,
            gain: -1,
            bailouts: 2,
            busy: Duration::from_millis(7),
        };
        b.merge(&a);
        assert_eq!(
            b,
            EngineStats {
                windows: 5,
                tried: 7,
                accepted: 3,
                gain: 2,
                bailouts: 2,
                busy: Duration::from_millis(12),
            }
        );
    }
}

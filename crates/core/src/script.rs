//! Top-level optimization scripts.
//!
//! [`resyn2rs`] reproduces the composition of ABC's popular `resyn2rs`
//! script ("one of the most popular AIG scripts in academia", Section
//! IV-A) from this repository's own moves — it is the baseline the
//! paper's results are measured against. [`sbm_script_report`] runs the
//! paper's Boolean resynthesis script (Section V-A): baseline AIG optimization +
//! the four SBM engines + SAT sweeping and redundancy removal, iterated
//! twice with different efforts.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sbm_aig::Aig;
use sbm_budget::Budget;
use sbm_check::{check_aig, sim_spot_check, CheckCode, CheckLevel, FaultPlan};
use sbm_journal::{
    read_aig_snapshot, write_aig_snapshot, Fnv64, JournalError, ResumeSummary, SCRIPT_STATE_FILE,
};
use sbm_sat::redundancy::{remove_redundancies, RedundancyOptions};
use sbm_sat::sweep::{sweep, sweep_collect, SweepOptions};
use sbm_sim::SigService;

use crate::balance::balance;
use crate::bdiff::BdiffOptions;
use crate::engine::{self, CheckViolation, Engine, EngineCtx, Optimized, SPOT_CHECK_SEED};
use crate::gradient::{gradient_optimize_filtered, GradientOptions};
use crate::hetero::{hetero_eliminate_kernel_impl, HeteroOptions};
use crate::mspf::MspfOptions;
use crate::pipeline::{pass, PipelineReport};
use crate::refactor::RefactorOptions;
use crate::resub::ResubOptions;

/// Banks the calling thread's drained BDD/SAT/sim tallies into `report`.
/// Called after every script step: a later step's attribution boundary
/// (the pipeline's per-window entry drain) discards whatever the
/// thread-local accumulators hold, so work done on the calling thread
/// (gradient moves, hetero, SAT sweeping and redundancy removal) must be
/// surfaced into the report before the next step begins.
///
/// A step boundary is also the one *true* serial point of the run — every
/// pipeline worker has joined — so this is where the simulation service
/// commits its pending counterexamples. Committing anywhere finer-grained
/// (e.g. inside a nested pass) would expose patterns to concurrently
/// running windows and make results depend on scheduling.
///
/// In canonical-steps mode the pool is **reset** instead of committed:
/// carried-over counterexamples are run state a snapshot does not
/// capture, and under finite SAT/move budgets they change which exact
/// checks run and therefore the result — a resumed run would diverge
/// from the uninterrupted one. Resetting keeps every step a pure
/// function of its input network, which is what makes park-and-resume
/// byte-identical to a straight run.
fn bank_tallies(report: &mut PipelineReport, ctx: &StepCtx<'_>) {
    report.bdd.merge(&crate::bdd_bridge::drain_bdd_tally());
    report.sat.merge(&sbm_sat::drain_sat_tally());
    if let Some(svc) = &ctx.sim {
        if ctx.canonical {
            svc.reset();
        } else {
            svc.commit_pending();
        }
    }
    report.sim.merge(&sbm_sim::drain_sim_tally());
    // Durable counters: when this step's snapshot was just persisted,
    // the report now covers exactly the steps the snapshot covers —
    // hand it to the observer so the embedder's counter store advances
    // in lockstep with the checkpoint (a kill after this point loses
    // neither, a kill before it loses both to the same resume point).
    if let (Some(ck), Some(sink)) = (&ctx.ckpt, ctx.report_sink) {
        if ck.saved.replace(false) {
            (sink.0)(report);
        }
    }
}

/// Applies a transformation, keeping the result only when it does not
/// increase node count (every SBM move has gain ≥ 0, Section IV-A).
fn guarded(aig: Aig, f: impl FnOnce(&Aig) -> Aig) -> Aig {
    let candidate = f(&aig);
    if candidate.num_ands() <= aig.num_ands() {
        candidate
    } else {
        aig
    }
}

/// [`guarded`] with `Paranoid` invariant bracketing for the script's
/// non-windowed phases (balance, gradient, hetero, SAT sweep/redundancy,
/// which are not [`Engine`]s). Below `Paranoid` this is exactly
/// [`guarded`]; at `Paranoid` the input must pass [`check_aig`] (or the
/// phase is skipped) and the candidate must pass [`check_aig`] plus the
/// 64-pattern [`sim_spot_check`] (or it is discarded). Violations are
/// pushed into `report.check_violations` under `name`.
fn checked_guarded(
    aig: Aig,
    check: CheckLevel,
    report: &mut PipelineReport,
    name: &str,
    f: impl FnOnce(&Aig) -> Aig,
) -> Aig {
    if !check.per_engine() {
        return guarded(aig, f);
    }
    if let Err(error) = check_aig(&aig) {
        report.check_violations.push(CheckViolation {
            engine: name.to_string(),
            stage: "pre",
            window: None,
            error,
        });
        return aig;
    }
    let candidate = f(&aig);
    let error =
        check_aig(&candidate).and_then(|()| sim_spot_check(&aig, &candidate, SPOT_CHECK_SEED));
    match error {
        Ok(()) if candidate.num_ands() <= aig.num_ands() => candidate,
        Ok(()) => aig,
        Err(error) => {
            let stage = if error.code == CheckCode::SimMismatch {
                "sim"
            } else {
                "post"
            };
            report.check_violations.push(CheckViolation {
                engine: name.to_string(),
                stage,
                window: None,
                error,
            });
            aig
        }
    }
}

/// Borrowed observer fired right after a step whose checkpoint snapshot
/// was persisted, with the [`PipelineReport`] accumulated so far — which
/// covers exactly the steps that snapshot covers. Embedders that keep
/// their own durable counters alongside the checkpoint (the job server's
/// partial report) persist them here, so a hard kill between two
/// checkpoints loses the counters of at most the steps a resume will
/// re-run anyway.
#[derive(Clone, Copy)]
pub struct ReportSink<'a>(pub &'a (dyn Fn(&PipelineReport) + Sync));

impl fmt::Debug for ReportSink<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ReportSink(..)")
    }
}

/// Shared execution context of one script run: the worker threads, check
/// level, wall-clock budget and fault-injection plan every step inherits,
/// plus the optional step-grained checkpoint state.
#[derive(Debug, Clone)]
struct StepCtx<'a> {
    threads: usize,
    check: CheckLevel,
    budget: Budget,
    fault_plan: Option<FaultPlan>,
    ckpt: Option<ScriptCkpt>,
    /// Checkpoint-save observer (see [`ReportSink`]); `None` unless the
    /// caller passed one.
    report_sink: Option<ReportSink<'a>>,
    /// Shared simulation-signature service of the run (`None` when
    /// [`SbmOptions::sim_filter`] is off). Clones of the handle share one
    /// pattern pool, so every step refines the same signatures.
    sim: Option<SigService>,
    /// [`SbmOptions::canonical_steps`]: every step's output is cleaned
    /// before the next step sees it, so the live network always equals
    /// what a snapshot of it would reload as.
    canonical: bool,
}

impl StepCtx<'_> {
    /// The engine context every step of the run shares.
    fn engine_ctx(&self) -> EngineCtx<'_> {
        EngineCtx::new(&self.budget)
            .with_threads(self.threads)
            .with_check_level(self.check)
            .with_fault_plan(self.fault_plan.as_ref())
            .with_sim(self.sim.as_ref())
    }
}

/// Step-grained checkpoint state of one script run. Scripts are a fixed
/// sequence of network-to-network steps, so the persistent unit is "the
/// cleaned network after step N": a snapshot with `seq = N` means the
/// first N steps completed cleanly and resume may skip them.
#[derive(Debug, Clone)]
struct ScriptCkpt {
    dir: PathBuf,
    every: usize,
    fingerprint: u64,
    /// Steps completed before the interruption (from the loaded
    /// snapshot's `seq`); a fresh run starts at 0.
    resume_from: u64,
    /// Deterministic index of the step most recently entered (skipped
    /// steps count too, so numbering matches across runs).
    seen: Cell<u64>,
    /// False once a step ended with the budget expired: its result is
    /// (possibly) degraded by timing, so neither it nor anything after
    /// it is recorded — the previous snapshot stands and resume re-runs
    /// from there.
    clean: Cell<bool>,
    /// First snapshot-write failure; checkpointing is best-effort.
    error: RefCell<Option<String>>,
    /// Set by a successful [`ScriptCkpt::save`], consumed by
    /// [`bank_tallies`] to fire the run's [`ReportSink`] (if any) once
    /// the saved step's tallies are banked.
    saved: Cell<bool>,
}

impl ScriptCkpt {
    /// Fresh-run setup: create the directory and persist the cleaned
    /// input as the step-0 snapshot.
    fn create(
        dir: &Path,
        fingerprint: u64,
        every: usize,
        cur: &Aig,
    ) -> Result<ScriptCkpt, JournalError> {
        sbm_journal::ensure_dir(dir)?;
        let ck = ScriptCkpt {
            dir: dir.to_path_buf(),
            every,
            fingerprint,
            resume_from: 0,
            seen: Cell::new(0),
            clean: Cell::new(true),
            error: RefCell::new(None),
            saved: Cell::new(false),
        };
        write_aig_snapshot(&ck.dir.join(SCRIPT_STATE_FILE), cur, fingerprint, 0)?;
        Ok(ck)
    }

    /// Persists `net` (cleaned) as the state after `seq` completed steps.
    /// Best-effort: the first failure is remembered and surfaced as
    /// [`PipelineReport::checkpoint_error`], later writes are skipped.
    fn save(&self, net: &Aig, seq: u64) {
        let mut error = self.error.borrow_mut();
        if error.is_some() {
            return;
        }
        if let Err(e) = write_aig_snapshot(
            &self.dir.join(SCRIPT_STATE_FILE),
            net,
            self.fingerprint,
            seq,
        ) {
            *error = Some(e.to_string());
        } else {
            self.saved.set(true);
        }
    }
}

/// Runs one script step under the optional checkpoint regime: steps
/// already covered by the loaded snapshot are skipped (their effect is
/// baked into the starting network), freshly completed steps are
/// persisted on the configured cadence. Without checkpointing this is
/// exactly `f(cur)`.
fn checkpointed(cur: Aig, ctx: &StepCtx<'_>, f: impl FnOnce(Aig) -> Aig) -> Aig {
    let Some(ck) = &ctx.ckpt else {
        let next = f(cur);
        return if ctx.canonical { next.cleanup() } else { next };
    };
    let step_no = ck.seen.get() + 1;
    ck.seen.set(step_no);
    if step_no <= ck.resume_from {
        return cur;
    }
    let next = f(cur);
    // Canonical mode: continue from exactly the network a snapshot would
    // reload as, so a park-and-resume replays this run bit for bit.
    let next = if ctx.canonical { next.cleanup() } else { next };
    if ck.clean.get() {
        if ctx.budget.check().is_err() {
            // The budget expired somewhere inside this step; its output
            // may be a timing-degraded network. Keep it for this run's
            // result but never record it — resume re-runs from the last
            // clean snapshot.
            ck.clean.set(false);
        } else if (step_no as usize).is_multiple_of(ck.every.max(1)) {
            if ctx.canonical {
                ck.save(&next, step_no);
            } else {
                ck.save(&next.cleanup(), step_no);
            }
        }
    }
    next
}

/// The `resyn2rs`-style baseline script: balance, resub, rewrite and
/// refactor passes with growing resubstitution windows, mirroring ABC's
/// `b; rs; rw; rs -K 6; rf; rs -K 8; b; rs -K 10; rw; rs -K 12; rf; b`.
/// Each engine runs once over the whole network on the calling thread.
pub fn resyn2rs(aig: &Aig) -> Aig {
    let budget = Budget::unlimited();
    let ctx = EngineCtx::new(&budget);
    resyn2rs_steps(
        aig,
        CheckLevel::Off,
        &mut PipelineReport::default(),
        |cur, _, engine| guarded(cur, |a| engine.optimize(a, &ctx).aig),
    )
}

fn resub_opts(max_inputs: usize) -> ResubOptions {
    ResubOptions {
        partition: sbm_aig::window::PartitionOptions {
            max_nodes: 200,
            max_inputs,
            max_levels: 10,
        },
        ..Default::default()
    }
}

/// One windowed engine step of the SBM script: the engine runs once over
/// the whole network through the parallel partition executor ([`pass`]),
/// and the pass's report (including any check violations) accumulates
/// into `report`.
fn step(aig: Aig, ctx: &StepCtx<'_>, report: &mut PipelineReport, engine: &dyn Engine) -> Aig {
    let run = pass(&aig, engine, &ctx.engine_ctx());
    report.merge(&run.stats);
    guarded(aig, |_| run.aig)
}

/// The [`resyn2rs`] step sequence. Balancing runs in place; every engine
/// step goes through `run`, which picks the schedule: the baseline runs
/// each engine once over the whole network, the SBM script runs it as a
/// windowed [`step`].
fn resyn2rs_steps(
    aig: &Aig,
    check: CheckLevel,
    report: &mut PipelineReport,
    mut run: impl FnMut(Aig, &mut PipelineReport, &dyn Engine) -> Aig,
) -> Aig {
    let mut cur = aig.cleanup();
    let rs = |k: usize| engine::Resub {
        options: resub_opts(k),
    };
    let deep_refactor = engine::Refactor {
        options: RefactorOptions {
            max_support: 14,
            ..Default::default()
        },
    };
    cur = checked_guarded(cur, check, report, "balance", balance);
    cur = run(cur, report, &rs(6));
    cur = run(cur, report, &engine::Rewrite::default());
    cur = run(cur, report, &rs(8));
    cur = run(cur, report, &engine::Refactor::default());
    cur = run(cur, report, &rs(10));
    cur = checked_guarded(cur, check, report, "balance", balance);
    cur = run(cur, report, &rs(12));
    cur = run(cur, report, &engine::Rewrite::default());
    cur = run(cur, report, &deep_refactor);
    cur = checked_guarded(cur, check, report, "balance", balance);
    cur.cleanup()
}

/// Runs [`resyn2rs`] until no further improvement — the reference
/// methodology the paper uses for "the smallest known AIG" baselines
/// (Table II footnote: "running resyn2rs until no improvement is seen").
pub fn resyn2rs_fixpoint(aig: &Aig, max_rounds: usize) -> Aig {
    let mut cur = aig.cleanup();
    for _ in 0..max_rounds {
        let next = resyn2rs(&cur);
        if next.num_ands() >= cur.num_ands() {
            return cur;
        }
        cur = next;
    }
    cur
}

/// Options for the full SBM script. Construct via [`SbmOptions::builder`]
/// for validation, or fill the fields directly.
#[derive(Debug, Clone)]
pub struct SbmOptions {
    /// Gradient-engine options for the AIG-optimization step.
    pub gradient: GradientOptions,
    /// Boolean-difference options.
    pub bdiff: BdiffOptions,
    /// Heterogeneous eliminate/kernel options.
    pub hetero: HeteroOptions,
    /// MSPF options.
    pub mspf: MspfOptions,
    /// Conflict budget of the SAT steps.
    pub sat_budget: Option<u64>,
    /// Run-wide simulation-signature service (`true`, the default): every
    /// engine filters candidates against shared bit-parallel signatures
    /// before touching a BDD manager or SAT solver, failed equivalence
    /// checks feed their counterexample witnesses back in, and the SAT
    /// sweep's refutation witnesses are harvested too. The filter is a
    /// sound necessary condition: it never rejects a candidate exact
    /// reasoning would accept, so no quality is lost to screening. It
    /// only skips work — the schedule of every step is the same either
    /// way, and with the filter on or off the result is identical at
    /// every thread count.
    pub sim_filter: bool,
    /// Script iterations (the paper iterates the flow twice, with
    /// different efforts).
    pub iterations: usize,
    /// Worker threads for the window-based steps (1 = strictly serial).
    /// The result is identical at every thread count.
    pub num_threads: usize,
    /// Invariant-checking level: `Off` (default) adds no work,
    /// `Boundaries` validates the script's input and output networks
    /// plus a 64-pattern simulation spot-check, `Paranoid` additionally
    /// brackets every engine invocation and non-windowed phase.
    /// Violations land in the returned report's `check_violations`.
    pub check_level: CheckLevel,
    /// Wall-clock deadline of the whole run (`None` = unbounded). The
    /// script never aborts at the deadline: engines stop cooperatively,
    /// in-flight windows degrade to their original sub-network, and the
    /// best network found so far is returned.
    pub deadline: Option<Duration>,
    /// Deterministic fault-injection plan for robustness testing
    /// (`None` = no injection, the production default). Faults are
    /// injected into the windowed steps' per-window engine invocations.
    pub fault_plan: Option<FaultPlan>,
    /// Directory for step-grained crash-safe checkpoints (`None` = off).
    /// When set, the script persists the network after completed steps
    /// and [`sbm_script_resumable`] can pick an interrupted run up from
    /// the last recorded step.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot cadence in script steps: `1` (the default) persists after
    /// every step, larger values amortize the write at the cost of
    /// re-running at most that many steps after a crash.
    pub checkpoint_every: usize,
    /// Canonical step outputs (`false`, the default): when `true`, every
    /// script step's result is cleaned before the next step sees it —
    /// exactly the form snapshots persist — and the simulation service's
    /// counterexample pool is reset at step boundaries (carried patterns
    /// are state no snapshot captures, and under finite budgets they
    /// change results). Each step is then a pure function of its input
    /// network, so a park-and-resume traverses identical intermediate
    /// networks and produces byte-identical results. `sbm-server` turns
    /// this on for every job; one-shot runs keep the historical
    /// (uncleaned, cross-step-refined) behaviour. Changes results, so it
    /// is part of the checkpoint fingerprint.
    pub canonical_steps: bool,
}

impl Default for SbmOptions {
    fn default() -> Self {
        SbmOptions {
            gradient: GradientOptions::default(),
            bdiff: BdiffOptions::default(),
            hetero: HeteroOptions::default(),
            mspf: MspfOptions::default(),
            sat_budget: Some(2_000),
            sim_filter: true,
            iterations: 2,
            num_threads: 1,
            check_level: CheckLevel::Off,
            deadline: None,
            fault_plan: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            canonical_steps: false,
        }
    }
}

impl SbmOptions {
    /// A validated builder seeded with the defaults.
    pub fn builder() -> SbmOptionsBuilder {
        SbmOptionsBuilder::default()
    }
}

/// Why [`SbmOptionsBuilder::build`] rejected a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionsError {
    /// `num_threads` must be at least 1.
    ZeroThreads,
    /// `iterations` must be at least 1.
    ZeroIterations,
    /// The gradient engine needs a positive move-cost budget.
    ZeroGradientBudget,
    /// A SAT budget of zero conflicts can prove nothing; use `None` for
    /// unbudgeted solving instead.
    ZeroSatBudget,
    /// The hetero engine needs at least one eliminate threshold.
    EmptyThresholds,
    /// BDD-based engines need a positive node limit and difference size.
    ZeroBddLimit,
    /// A zero deadline cannot make progress; use `None` for unbounded.
    ZeroDeadline,
    /// A checkpoint cadence of zero steps never persists anything; use
    /// `checkpoint_dir: None` to disable checkpointing instead.
    ZeroCheckpointEvery,
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            OptionsError::ZeroThreads => "num_threads must be at least 1",
            OptionsError::ZeroIterations => "iterations must be at least 1",
            OptionsError::ZeroGradientBudget => {
                "the gradient engine needs a positive move-cost budget"
            }
            OptionsError::ZeroSatBudget => {
                "a SAT budget of 0 conflicts can prove nothing (use None for unbudgeted)"
            }
            OptionsError::EmptyThresholds => {
                "the hetero engine needs at least one eliminate threshold"
            }
            OptionsError::ZeroBddLimit => {
                "BDD engines need a positive node limit and difference size"
            }
            OptionsError::ZeroDeadline => {
                "a zero deadline cannot make progress (use None for unbounded)"
            }
            OptionsError::ZeroCheckpointEvery => {
                "a checkpoint cadence of 0 steps never persists anything \
                 (use checkpoint_dir: None to disable checkpointing)"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for OptionsError {}

/// Builder for [`SbmOptions`] that rejects nonsensical configurations.
///
/// ```
/// use sbm_core::script::SbmOptions;
///
/// let options = SbmOptions::builder()
///     .num_threads(4)
///     .bdd_size_limit(10)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(options.num_threads, 4);
/// assert!(SbmOptions::builder().num_threads(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SbmOptionsBuilder {
    options: SbmOptions,
}

impl SbmOptionsBuilder {
    /// Worker threads for the window-based steps.
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.options.num_threads = num_threads;
        self
    }

    /// Script iterations.
    #[must_use]
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.options.iterations = iterations;
        self
    }

    /// Conflict budget of the SAT steps (`None` = unbudgeted).
    #[must_use]
    pub fn sat_budget(mut self, budget: Option<u64>) -> Self {
        self.options.sat_budget = budget;
        self
    }

    /// Enables or disables the run-wide simulation-signature service
    /// (candidate filtering + counterexample harvesting; on by default).
    #[must_use]
    pub fn sim_filter(mut self, sim_filter: bool) -> Self {
        self.options.sim_filter = sim_filter;
        self
    }

    /// Gradient-engine move-cost budget.
    #[must_use]
    pub fn gradient_budget(mut self, budget: u32) -> Self {
        self.options.gradient.budget = budget;
        self
    }

    /// Maximum BDD size of a Boolean difference (the paper's tradeoff
    /// value is 10).
    #[must_use]
    pub fn bdd_size_limit(mut self, size: usize) -> Self {
        self.options.bdiff.max_diff_size = size;
        self
    }

    /// Node limit of the per-window BDD managers (bdiff and MSPF).
    #[must_use]
    pub fn bdd_node_limit(mut self, limit: usize) -> Self {
        self.options.bdiff.bdd_node_limit = limit;
        self.options.mspf.bdd_node_limit = limit;
        self
    }

    /// Eliminate thresholds swept by the hetero engine.
    #[must_use]
    pub fn hetero_thresholds(mut self, thresholds: Vec<i64>) -> Self {
        self.options.hetero.thresholds = thresholds;
        self
    }

    /// Replaces the full gradient-engine options.
    #[must_use]
    pub fn gradient(mut self, gradient: GradientOptions) -> Self {
        self.options.gradient = gradient;
        self
    }

    /// Invariant-checking level of the run (`Off` / `Boundaries` /
    /// `Paranoid`).
    #[must_use]
    pub fn check_level(mut self, check_level: CheckLevel) -> Self {
        self.options.check_level = check_level;
        self
    }

    /// Wall-clock deadline of the run (`None` = unbounded). Must be
    /// positive; the run degrades gracefully when it expires.
    #[must_use]
    pub fn deadline(mut self, deadline: Option<Duration>) -> Self {
        self.options.deadline = deadline;
        self
    }

    /// Deterministic fault-injection plan (`None` = no injection).
    #[must_use]
    pub fn fault_plan(mut self, fault_plan: Option<FaultPlan>) -> Self {
        self.options.fault_plan = fault_plan;
        self
    }

    /// Directory for step-grained crash-safe checkpoints (`None` = off).
    #[must_use]
    pub fn checkpoint_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.options.checkpoint_dir = dir;
        self
    }

    /// Snapshot cadence in script steps (must be at least 1).
    #[must_use]
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.options.checkpoint_every = every;
        self
    }

    /// Canonical step outputs: clean every step's result before the next
    /// step sees it, making park-and-resume byte-identical to a straight
    /// run (see [`SbmOptions::canonical_steps`]).
    #[must_use]
    pub fn canonical_steps(mut self, canonical: bool) -> Self {
        self.options.canonical_steps = canonical;
        self
    }

    /// Validates and produces the options.
    pub fn build(self) -> Result<SbmOptions, OptionsError> {
        let o = self.options;
        if o.num_threads == 0 {
            return Err(OptionsError::ZeroThreads);
        }
        if o.iterations == 0 {
            return Err(OptionsError::ZeroIterations);
        }
        if o.gradient.budget == 0 {
            return Err(OptionsError::ZeroGradientBudget);
        }
        if o.sat_budget == Some(0) {
            return Err(OptionsError::ZeroSatBudget);
        }
        if o.hetero.thresholds.is_empty() {
            return Err(OptionsError::EmptyThresholds);
        }
        if o.bdiff.bdd_node_limit == 0 || o.mspf.bdd_node_limit == 0 || o.bdiff.max_diff_size == 0 {
            return Err(OptionsError::ZeroBddLimit);
        }
        if o.deadline == Some(Duration::ZERO) {
            return Err(OptionsError::ZeroDeadline);
        }
        if o.checkpoint_every == 0 {
            return Err(OptionsError::ZeroCheckpointEvery);
        }
        Ok(o)
    }
}

/// The paper's Boolean resynthesis script (Section V-A):
///
/// 1. AIG optimization (state-of-the-art script + gradient engine),
/// 2. heterogeneous elimination for kernel extraction,
/// 3. enhanced MSPF with BDDs,
/// 4. collapse & Boolean decomposition (refactoring on reconvergent
///    MFFCs),
/// 5. Boolean-difference-based optimization,
/// 6. SAT-based sweeping and redundancy removal,
///
/// iterated (twice by default) with the network re-strashed into an AIG
/// between steps. Returns the optimized network with the merged
/// [`PipelineReport`] of every engine pass.
///
/// The window-based steps (the baseline script's engine passes, MSPF,
/// refactoring and Boolean difference) always run on the partition
/// executor ([`crate::pipeline`]), fanned out over
/// [`SbmOptions::num_threads`] workers; the gradient, hetero and SAT
/// steps run over the whole network. With
/// [`SbmOptions::checkpoint_dir`] set, the run additionally persists
/// step-grained progress; checkpoint I/O failures are best-effort
/// (reported, never fatal).
pub fn sbm_script_report(aig: &Aig, options: &SbmOptions) -> Optimized<PipelineReport> {
    let budget = Budget::from_deadline(options.deadline);
    script_body(aig, options, budget, None, None, PipelineReport::default())
}

/// [`sbm_script_report`] under an externally owned [`Budget`] instead of
/// one derived from [`SbmOptions::deadline`] (which is ignored here),
/// with a checkpoint-save observer. This is the job-server entry point:
/// the caller keeps a handle on the budget, so it can preempt the run
/// cooperatively ([`Budget::cancel`]) or bound it with a slice
/// sub-budget ([`Budget::child`]) while the script persists checkpoints
/// as usual — a preempted run is parked, not lost. `sink` is fired after
/// every step whose snapshot was persisted, with the report accumulated
/// up to exactly that step (see [`ReportSink`]); without a configured
/// [`SbmOptions::checkpoint_dir`] it never fires.
pub fn sbm_script_budgeted_observed(
    aig: &Aig,
    options: &SbmOptions,
    budget: &Budget,
    sink: ReportSink<'_>,
) -> Optimized<PipelineReport> {
    script_body(
        aig,
        options,
        budget.clone(),
        None,
        Some(sink),
        PipelineReport::default(),
    )
}

/// Resumes an interrupted checkpointed script run from
/// [`SbmOptions::checkpoint_dir`]. An external `budget` replaces the one
/// derived from [`SbmOptions::deadline`], and `sink` observes every newly
/// persisted snapshot, as in [`sbm_script_budgeted_observed`]. The last
/// recorded snapshot is validated (CRC + `sbm-check`), the steps it
/// covers are skipped, and the remaining steps run to completion. The
/// options must match the interrupted run's
/// ([`JournalError::ConfigMismatch`] otherwise). A resume that is a pure
/// replay persists no new snapshots and fires no sinks.
///
/// Falls back cleanly: callers that cannot resume (corrupt or missing
/// checkpoint) typically retry with a fresh run, which overwrites the
/// checkpoint.
pub fn sbm_script_resumable(
    aig: &Aig,
    options: &SbmOptions,
    budget: Option<&Budget>,
    sink: Option<ReportSink<'_>>,
) -> Result<Optimized<PipelineReport>, JournalError> {
    let dir = options
        .checkpoint_dir
        .as_ref()
        .ok_or(JournalError::NotConfigured)?;
    let fingerprint = script_fingerprint(options);
    let (net, meta) = read_aig_snapshot(&dir.join(SCRIPT_STATE_FILE))?;
    if meta.fingerprint != fingerprint {
        return Err(JournalError::ConfigMismatch {
            expected: fingerprint,
            found: meta.fingerprint,
        });
    }
    let ckpt = ScriptCkpt {
        dir: dir.clone(),
        every: options.checkpoint_every.max(1),
        fingerprint,
        resume_from: meta.seq,
        seen: Cell::new(0),
        clean: Cell::new(true),
        error: RefCell::new(None),
        saved: Cell::new(false),
    };
    let report = PipelineReport {
        resume: Some(ResumeSummary {
            steps_skipped: meta.seq as usize,
        }),
        ..PipelineReport::default()
    };
    let budget = budget.map_or_else(|| Budget::from_deadline(options.deadline), Budget::clone);
    Ok(script_body(
        aig,
        options,
        budget,
        Some((ckpt, net)),
        sink,
        report,
    ))
}

/// The script fingerprint stamped into step snapshots: every builder-
/// level knob that changes *results* — iterations, engine limits, SAT
/// budgets, checking, fault plan. Thread count, deadline and the
/// checkpoint configuration itself are excluded (timing/durability only,
/// a resume may change them). Public so embedders (the job server) can
/// reason about checkpoint compatibility without re-deriving the rule.
#[must_use]
pub fn script_fingerprint(options: &SbmOptions) -> u64 {
    let mut h = Fnv64::new();
    // v5: the arena AIG core renumbers cleanup output canonically, so
    // snapshots written by older (pre-arena) binaries replay into a
    // different numbering and must not be resumed.
    h.write_str("sbm-script-v5");
    h.write_u64(options.iterations as u64);
    h.write_u64(u64::from(options.sim_filter));
    h.write_u64(u64::from(options.canonical_steps));
    match options.sat_budget {
        None => h.write_u64(0),
        Some(b) => {
            h.write_u64(1);
            h.write_u64(b);
        }
    }
    h.write_u64(u64::from(options.gradient.budget));
    h.write_u64(options.bdiff.max_diff_size as u64);
    h.write_u64(options.bdiff.bdd_node_limit as u64);
    h.write_u64(options.mspf.bdd_node_limit as u64);
    h.write_u64(options.hetero.thresholds.len() as u64);
    for &t in &options.hetero.thresholds {
        h.write_u64(t as u64);
    }
    h.write_u64(options.check_level as u64);
    match &options.fault_plan {
        None => h.write_u64(0),
        Some(plan) => {
            h.write_u64(1);
            h.write_u64(plan.seed);
            h.write_u64(plan.panic_rate.to_bits());
            h.write_u64(plan.delay_rate.to_bits());
            h.write_u64(plan.bailout_rate.to_bits());
        }
    }
    h.finish()
}

/// The shared body of the fresh entry points (`resume = None`) and
/// [`sbm_script_resumable`] (resuming from a loaded snapshot).
fn script_body(
    aig: &Aig,
    options: &SbmOptions,
    budget: Budget,
    resume: Option<(ScriptCkpt, Aig)>,
    sink: Option<ReportSink<'_>>,
    mut report: PipelineReport,
) -> Optimized<PipelineReport> {
    let check = options.check_level;

    // Boundary pre-check on the RAW input (cleanup would loop on a
    // corrupted redirection map); a corrupt input passes through as-is.
    if check.at_boundaries() {
        if let Err(error) = check_aig(aig) {
            report.check_violations.push(CheckViolation {
                engine: "script".to_string(),
                stage: "pre",
                window: None,
                error,
            });
            return Optimized {
                aig: aig.clone(),
                stats: report,
            };
        }
    }
    // Attribution boundary: discard whatever BDD/SAT residue the calling
    // thread accumulated before this run (e.g. a benchmark harness's own
    // equivalence checks) so the report measures only this script.
    let _ = crate::bdd_bridge::drain_bdd_tally();
    let _ = sbm_sat::drain_sat_tally();
    // Fresh checkpointed runs persist the cleaned input as step 0;
    // resumed runs start from the loaded snapshot instead (its network
    // already includes the effect of every skipped step).
    let (ckpt, mut cur) = match resume {
        Some((ckpt, net)) => (Some(ckpt), net),
        None => {
            let cur = aig.cleanup();
            let ckpt = options.checkpoint_dir.as_ref().and_then(|dir| {
                let fingerprint = script_fingerprint(options);
                match ScriptCkpt::create(dir, fingerprint, options.checkpoint_every.max(1), &cur) {
                    Ok(ckpt) => Some(ckpt),
                    Err(e) => {
                        report.checkpoint_error = Some(e.to_string());
                        None
                    }
                }
            });
            (ckpt, cur)
        }
    };
    let input = check.at_boundaries().then(|| cur.clone());
    // One budget governs the whole run: every engine step, inner pass and
    // SAT gate below shares it, so the deadline bounds the run end to end.
    let ctx = StepCtx {
        threads: options.num_threads.max(1),
        check,
        budget,
        fault_plan: options.fault_plan,
        ckpt,
        report_sink: sink,
        sim: options.sim_filter.then(SigService::default),
        canonical: options.canonical_steps,
    };
    // Attribution boundary for the sim tallies too (mirrors BDD/SAT).
    let _ = sbm_sim::drain_sim_tally();
    for iteration in 0..options.iterations {
        if ctx.budget.check().is_err() {
            break;
        }
        let high_effort = iteration > 0;
        // 1. AIG optimization: baseline script, then the gradient engine.
        cur = checkpointed(cur, &ctx, |cur| {
            guarded(cur, |a| {
                resyn2rs_steps(a, check, &mut report, |cur, report, engine| {
                    step(cur, &ctx, report, engine)
                })
            })
        });
        bank_tallies(&mut report, &ctx);
        cur = checkpointed(cur, &ctx, |cur| {
            checked_guarded(cur, check, &mut report, "gradient", |a| {
                gradient_optimize_filtered(a, &options.gradient, &ctx.engine_ctx()).0
            })
        });
        bank_tallies(&mut report, &ctx);
        // 2. Heterogeneous elimination for kerneling (internal
        // threshold-sweep threads).
        cur = checkpointed(cur, &ctx, |cur| {
            checked_guarded(cur, check, &mut report, "hetero", |a| {
                hetero_eliminate_kernel_impl(a, &options.hetero, ctx.threads).0
            })
        });
        bank_tallies(&mut report, &ctx);
        // 3. Enhanced MSPF computation.
        cur = checkpointed(cur, &ctx, |cur| {
            step(
                cur,
                &ctx,
                &mut report,
                &engine::Mspf {
                    options: options.mspf,
                },
            )
        });
        bank_tallies(&mut report, &ctx);
        // 4. Collapse & Boolean decomposition on reconvergent MFFCs.
        let refactor_options = RefactorOptions {
            max_support: if high_effort { 14 } else { 12 },
            min_mffc: 2,
            allow_zero_gain: high_effort,
        };
        cur = checkpointed(cur, &ctx, |cur| {
            step(
                cur,
                &ctx,
                &mut report,
                &engine::Refactor {
                    options: refactor_options,
                },
            )
        });
        bank_tallies(&mut report, &ctx);
        // 5. Boolean-difference-based optimization: unveils hard-to-find
        // optimizations and escapes local minima.
        cur = checkpointed(cur, &ctx, |cur| {
            step(
                cur,
                &ctx,
                &mut report,
                &engine::Bdiff {
                    options: options.bdiff,
                },
            )
        });
        bank_tallies(&mut report, &ctx);
        // 6. SAT sweeping and redundancy removal.
        cur = checkpointed(cur, &ctx, |cur| {
            checked_guarded(cur, check, &mut report, "sweep", |a| {
                let mut work = a.cleanup();
                let sweep_options = SweepOptions {
                    budget: options.sat_budget,
                    ..Default::default()
                };
                match &ctx.sim {
                    // With the service active, harvest every refutation
                    // witness the sweep's SAT calls produce: each one is a
                    // pattern random simulation missed.
                    Some(svc) => {
                        let outcome = sweep_collect(&mut work, &sweep_options);
                        for witness in &outcome.witnesses {
                            svc.record_cex(witness);
                        }
                    }
                    None => {
                        sweep(&mut work, &sweep_options);
                    }
                }
                work.cleanup()
            })
        });
        bank_tallies(&mut report, &ctx);
        cur = checkpointed(cur, &ctx, |cur| {
            checked_guarded(cur, check, &mut report, "redundancy", |a| {
                remove_redundancies(
                    a,
                    &RedundancyOptions {
                        budget: options.sat_budget,
                        max_checks: if high_effort { 2_000 } else { 500 },
                    },
                )
                .aig
            })
        });
        bank_tallies(&mut report, &ctx);
    }
    // Whether this run executed at least one step beyond the loaded
    // snapshot (a resumed run that trips before its first live step —
    // or skips everything — does no new work).
    let ran_new_steps = ctx
        .ckpt
        .as_ref()
        .is_none_or(|ck| ck.seen.get() > ck.resume_from);
    // Final cleanup, unconditional: `cleanup` is idempotent (the arena
    // core renumbers canonically), so re-cleaning a reloaded snapshot or
    // a canonical-mode step output is a byte-identical no-op and resume
    // byte-identity is preserved without special-casing.
    let mut result = cur.cleanup();

    // Boundary post-check: the final network must satisfy every AIG
    // invariant and agree with the input on 64 random patterns; a
    // violating result is discarded in favor of the cleaned input.
    if let Some(input) = input {
        let error =
            check_aig(&result).and_then(|()| sim_spot_check(&input, &result, SPOT_CHECK_SEED));
        if let Err(error) = error {
            let stage = if error.code == CheckCode::SimMismatch {
                "sim"
            } else {
                "post"
            };
            report.check_violations.push(CheckViolation {
                engine: "script".to_string(),
                stage,
                window: None,
                error,
            });
            result = input;
        }
    }
    if let Some(ck) = &ctx.ckpt {
        // Final checkpoint: when every executed step completed cleanly
        // (no mid-step budget expiry), persist the finished network so a
        // subsequent resume is a pure replay. Otherwise the last cadence
        // snapshot stands and resume re-runs from there. A run that did
        // no new work must not save: its `seen` is at or below the
        // loaded snapshot's seq, and overwriting at a lower seq would
        // regress the checkpoint and make the next resume replay steps
        // onto an already-optimized network.
        if ck.clean.get() && ran_new_steps {
            ck.save(&result, ck.seen.get());
        }
        if report.checkpoint_error.is_none() {
            report.checkpoint_error = ck.error.borrow_mut().take();
        }
    }
    Optimized {
        aig: result,
        stats: report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

    fn proven_equivalent(a: &Aig, b: &Aig) -> bool {
        MiterOracle::new().check(a, b) == Verdict::Equivalent
    }

    fn benchmark_aig() -> Aig {
        // A small circuit with redundancy, imbalance, sharing and
        // reconvergence — every engine has something to find.
        let mut aig = Aig::new();
        let x: Vec<_> = (0..6).map(|_| aig.add_input()).collect();
        let t1 = aig.and(x[0], x[1]);
        let t2 = aig.and(x[0], !x[1]);
        let r = aig.or(t1, t2); // == x0
        let mut chain = r;
        for &xi in &x[2..] {
            chain = aig.and(chain, xi);
        }
        let dup_a = aig.and(x[2], x[3]);
        let dup_b = aig.and(x[4], x[5]);
        let dup = aig.and(dup_a, dup_b);
        let dup2 = aig.and(dup, x[0]); // == chain
        let f = aig.xor(chain, dup2); // == 0
        let g = aig.or(chain, dup2);
        aig.add_output(f);
        aig.add_output(g);
        aig
    }

    #[test]
    fn resyn2rs_improves_and_preserves() {
        let aig = benchmark_aig();
        let out = resyn2rs(&aig);
        assert!(out.num_ands() < aig.num_ands());
        assert!(proven_equivalent(&aig, &out));
    }

    #[test]
    fn sbm_script_at_least_as_good_as_baseline() {
        let aig = benchmark_aig();
        let baseline = resyn2rs_fixpoint(&aig, 8);
        let sbm = sbm_script_report(&aig, &SbmOptions::default()).aig;
        assert!(sbm.num_ands() <= baseline.num_ands());
        assert!(proven_equivalent(&aig, &sbm));
    }

    #[test]
    fn builder_validates_options() {
        assert!(SbmOptions::builder().build().is_ok());
        assert!(matches!(
            SbmOptions::builder().num_threads(0).build(),
            Err(OptionsError::ZeroThreads)
        ));
        assert!(matches!(
            SbmOptions::builder().iterations(0).build(),
            Err(OptionsError::ZeroIterations)
        ));
        assert!(matches!(
            SbmOptions::builder().gradient_budget(0).build(),
            Err(OptionsError::ZeroGradientBudget)
        ));
        assert!(matches!(
            SbmOptions::builder().sat_budget(Some(0)).build(),
            Err(OptionsError::ZeroSatBudget)
        ));
        assert!(SbmOptions::builder().sat_budget(None).build().is_ok());
        assert!(matches!(
            SbmOptions::builder().hetero_thresholds(Vec::new()).build(),
            Err(OptionsError::EmptyThresholds)
        ));
        assert!(matches!(
            SbmOptions::builder().bdd_node_limit(0).build(),
            Err(OptionsError::ZeroBddLimit)
        ));
        assert!(matches!(
            SbmOptions::builder().bdd_size_limit(0).build(),
            Err(OptionsError::ZeroBddLimit)
        ));
        let options = SbmOptions::builder()
            .num_threads(4)
            .bdd_size_limit(10)
            .iterations(1)
            .build()
            .expect("valid configuration");
        assert_eq!(options.num_threads, 4);
        assert_eq!(options.bdiff.max_diff_size, 10);
        assert_eq!(options.iterations, 1);
    }

    #[test]
    fn threaded_script_preserves_function() {
        let aig = benchmark_aig();
        let options = SbmOptions::builder()
            .num_threads(4)
            .iterations(1)
            .build()
            .expect("valid configuration");
        let run = sbm_script_report(&aig, &options);
        assert!(run.aig.num_ands() <= aig.num_ands());
        assert!(proven_equivalent(&aig, &run.aig));
        assert!(run.stats.is_consistent(), "{:?}", run.stats);
    }

    #[test]
    fn paranoid_script_is_clean_and_matches_off() {
        let aig = benchmark_aig();
        let base = SbmOptions::builder()
            .iterations(1)
            .build()
            .expect("valid configuration");
        let checked_options = SbmOptions::builder()
            .iterations(1)
            .check_level(CheckLevel::Paranoid)
            .build()
            .expect("valid configuration");
        let plain = sbm_script_report(&aig, &base);
        let checked = sbm_script_report(&aig, &checked_options);
        assert!(
            checked.stats.check_violations.is_empty(),
            "{:?}",
            checked.stats.check_violations
        );
        assert_eq!(plain.aig.num_ands(), checked.aig.num_ands());
        assert!(proven_equivalent(&aig, &checked.aig));
    }

    #[test]
    fn boundaries_script_rejects_corrupt_input() {
        let mut aig = benchmark_aig();
        let victim = aig.outputs()[0].node();
        aig.corrupt_force_replace(victim, sbm_aig::Lit::new(victim, true));
        let options = SbmOptions::builder()
            .iterations(1)
            .check_level(CheckLevel::Boundaries)
            .build()
            .expect("valid configuration");
        let run = sbm_script_report(&aig, &options);
        assert_eq!(run.stats.check_violations.len(), 1);
        let v = &run.stats.check_violations[0];
        assert_eq!(v.engine, "script");
        assert_eq!(v.stage, "pre");
        assert_eq!(v.error.code, CheckCode::AigCyclicRedirect);
        assert_eq!(run.aig.num_nodes(), aig.num_nodes());
    }

    #[test]
    fn checkpointed_script_resumes_as_pure_replay() {
        let dir = std::env::temp_dir().join(format!("sbm-script-ck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let aig = benchmark_aig();
        let options = SbmOptions::builder()
            .iterations(1)
            .checkpoint_dir(Some(dir.clone()))
            .build()
            .expect("valid configuration");
        let plain_options = SbmOptions::builder()
            .iterations(1)
            .build()
            .expect("valid configuration");
        let plain = sbm_script_report(&aig, &plain_options);
        let full = sbm_script_report(&aig, &options);
        assert_eq!(full.stats.checkpoint_error, None);
        assert_eq!(full.aig.num_ands(), plain.aig.num_ands());
        // Resuming a finished run replays the final snapshot: every step
        // is skipped and the loaded network is returned as-is.
        let resumed = sbm_script_resumable(&aig, &options, None, None).expect("resume");
        let summary = resumed.stats.resume.expect("summary");
        assert_eq!(summary.steps_skipped, 8, "one iteration = 8 script steps");
        assert_eq!(resumed.aig.num_ands(), full.aig.num_ands());
        assert!(proven_equivalent(&full.aig, &resumed.aig));
        // A partially recorded run (snapshot rolled back to an earlier
        // step) re-runs the remaining steps and converges on the same
        // result.
        let (net, meta) =
            sbm_journal::read_aig_snapshot(&dir.join(SCRIPT_STATE_FILE)).expect("final snapshot");
        assert_eq!(meta.seq, 8);
        sbm_journal::write_aig_snapshot(
            &dir.join(SCRIPT_STATE_FILE),
            &aig.cleanup(),
            meta.fingerprint,
            0,
        )
        .expect("roll back to step 0");
        let restarted = sbm_script_resumable(&aig, &options, None, None).expect("resume from 0");
        assert_eq!(restarted.stats.resume.expect("summary").steps_skipped, 0);
        assert_eq!(restarted.aig.num_ands(), full.aig.num_ands());
        assert!(proven_equivalent(&net, &restarted.aig));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgeted_canonical_run_parks_and_resumes_byte_identically() {
        for threads in [1, 2, 4] {
            park_and_resume_byte_identically(threads);
        }
    }

    /// The job-server execution model: a run under a cancellable slice
    /// budget is preempted at an arbitrary point, parked as its last
    /// clean checkpoint, and later resumed under a fresh budget. With
    /// canonical_steps on, the resumed run must converge on a result
    /// byte-identical to an uninterrupted run of the same options.
    fn park_and_resume_byte_identically(threads: usize) {
        let tmp = |tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "sbm-script-{tag}-t{threads}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let dir = tmp("park");
        let ref_dir = tmp("parkref");
        let aig = benchmark_aig();
        let mk = |d: &Path| {
            SbmOptions::builder()
                .iterations(1)
                .num_threads(threads)
                .checkpoint_dir(Some(d.to_path_buf()))
                .canonical_steps(true)
                .build()
                .expect("valid configuration")
        };
        let reference = sbm_script_report(&aig, &mk(&ref_dir));
        let ref_text = sbm_aig::aiger::write(&reference.aig);

        // Slice 1: preempt mid-run from another thread. Whatever step the
        // cancel lands in, that step is never persisted (clean=false), so
        // the checkpoint holds only fully completed, cleaned steps.
        let options = mk(&dir);
        let slice = Budget::cancellable();
        let canceller = slice.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            canceller.cancel();
        });
        let parked = sbm_script_budgeted_observed(&aig, &options, &slice, ReportSink(&|_| {}));
        handle.join().expect("canceller");
        // The preempted result may be degraded; the server discards it.
        drop(parked);

        // Slice 2: resume with an open-ended budget and run to the end.
        let resumed = sbm_script_resumable(&aig, &options, None, None)
            .expect("resume from parked checkpoint");
        assert_eq!(
            sbm_aig::aiger::write(&resumed.aig),
            ref_text,
            "threads {threads}"
        );

        // A third resume replays the finished snapshot, still identical.
        let replayed = sbm_script_resumable(&aig, &options, None, None).expect("pure replay");
        assert_eq!(
            sbm_aig::aiger::write(&replayed.aig),
            ref_text,
            "threads {threads}"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn report_sink_fires_once_per_persisted_snapshot() {
        // The observer contract behind the job server's counter
        // durability: on an every-step cadence a clean run fires the
        // sink once per step (each step's snapshot is persisted), and a
        // pure replay — which records nothing new — fires it zero times.
        let dir = std::env::temp_dir().join(format!("sbm-script-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let aig = benchmark_aig();
        let options = SbmOptions::builder()
            .iterations(1)
            .checkpoint_dir(Some(dir.clone()))
            .checkpoint_every(1)
            .canonical_steps(true)
            .build()
            .expect("valid configuration");
        let fired = std::sync::Mutex::new(Vec::new());
        let observer = |r: &PipelineReport| {
            fired
                .lock()
                .expect("observer lock")
                .push(r.run_report().to_json());
        };
        let run = sbm_script_budgeted_observed(
            &aig,
            &options,
            &Budget::unlimited(),
            ReportSink(&observer),
        );
        assert_eq!(run.stats.checkpoint_error, None);
        {
            let fired = fired.lock().expect("observer lock");
            assert_eq!(fired.len(), 8, "one iteration = 8 script steps");
            // Each firing hands a valid, strictly decodable report.
            for json in fired.iter() {
                sbm_metrics::RunReport::from_json(json).expect("sink report decodes");
            }
        }
        let replay = sbm_script_resumable(&aig, &options, None, Some(ReportSink(&observer)))
            .expect("pure replay");
        assert_eq!(replay.stats.resume.expect("summary").steps_skipped, 8);
        assert_eq!(
            fired.lock().expect("observer lock").len(),
            8,
            "a pure replay persists no snapshots and must not fire the sink"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn canonical_fingerprint_differs_from_default() {
        // canonical_steps changes results, so a snapshot recorded with it
        // must not resume under the default options (and vice versa).
        let base = SbmOptions::builder()
            .iterations(1)
            .build()
            .expect("valid configuration");
        let canonical = SbmOptions::builder()
            .iterations(1)
            .canonical_steps(true)
            .build()
            .expect("valid configuration");
        assert_ne!(script_fingerprint(&base), script_fingerprint(&canonical));
    }

    #[test]
    fn script_resume_rejects_drift_and_missing_configuration() {
        let dir = std::env::temp_dir().join(format!("sbm-script-drift-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let aig = benchmark_aig();
        let options = SbmOptions::builder()
            .iterations(1)
            .checkpoint_dir(Some(dir.clone()))
            .build()
            .expect("valid configuration");
        sbm_script_report(&aig, &options);
        let drifted = SbmOptions::builder()
            .iterations(2)
            .checkpoint_dir(Some(dir.clone()))
            .build()
            .expect("valid configuration");
        assert!(matches!(
            sbm_script_resumable(&aig, &drifted, None, None),
            Err(JournalError::ConfigMismatch { .. })
        ));
        let unconfigured = SbmOptions::builder()
            .iterations(1)
            .build()
            .expect("valid configuration");
        assert!(matches!(
            sbm_script_resumable(&aig, &unconfigured, None, None),
            Err(JournalError::NotConfigured)
        ));
        assert!(matches!(
            SbmOptions::builder().checkpoint_every(0).build(),
            Err(OptionsError::ZeroCheckpointEvery)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixpoint_terminates() {
        let aig = benchmark_aig();
        let out = resyn2rs_fixpoint(&aig, 50);
        assert!(out.num_ands() <= aig.num_ands());
        assert!(proven_equivalent(&aig, &out));
    }
}

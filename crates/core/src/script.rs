//! Top-level optimization scripts.
//!
//! [`resyn2rs`] reproduces the composition of ABC's popular `resyn2rs`
//! script ("one of the most popular AIG scripts in academia", Section
//! IV-A) from this repository's own moves — it is the baseline the
//! paper's results are measured against. [`sbm_script_report`] runs the
//! paper's Boolean resynthesis script (Section V-A): baseline AIG optimization +
//! the four SBM engines + SAT sweeping and redundancy removal, iterated
//! twice with different efforts.
//!
//! Both scripts are written once, as a step table of [`Engine`]s, each
//! with its schedule: windowed through [`pass`], or once over the whole
//! network. One step runner executes every entry and records its
//! [`EngineStats`](crate::engine::EngineStats) row in the run's
//! [`PipelineReport`].

use std::cell::{Cell, RefCell};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sbm_aig::Aig;
use sbm_budget::Budget;
use sbm_check::{CheckLevel, FaultPlan};
use sbm_journal::{
    read_aig_snapshot, write_aig_snapshot, Fnv64, JournalError, ResumeSummary, SCRIPT_STATE_FILE,
};
use sbm_metrics::Histogram;
use sbm_sat::redundancy::RedundancyOptions;
use sbm_sat::sweep::SweepOptions;
use sbm_sim::SigService;

use crate::engine::{self, check_input, check_output, run_checked, Engine, EngineCtx, Optimized};
use crate::gradient::GradientOptions;
use crate::pipeline::{pass, PipelineReport};
use crate::refactor::RefactorOptions;
use crate::resub::ResubOptions;
use crate::rewrite::MemoScope;

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
    // Durable counters: when this step's cadence snapshot was just
    // persisted, the report now covers exactly the steps the snapshot
    // covers — hand it to the observer so the embedder's counter store
    // advances in lockstep with the checkpoint.
    if let (Some(ck), Some(sink)) = (&ctx.ckpt, ctx.report_sink) {
        if ck.saved.replace(false) {
            (sink.0)(report);
        }
    }
}

/// Borrowed observer fired whenever the run persists a snapshot, with
/// the [`PipelineReport`] covering exactly the steps that snapshot
/// covers. A step-cadence snapshot (see [`SbmOptions::checkpoint_every`])
/// fires it right after its step; a budget stop's snapshot fires it with
/// the report as it stood before the tripped step, whose partial work a
/// resumed run repeats. Embedders that keep their own durable counters
/// alongside the checkpoint persist them here.
#[derive(Clone, Copy)]
pub struct ReportSink<'a>(pub &'a (dyn Fn(&PipelineReport) + Sync));

impl fmt::Debug for ReportSink<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ReportSink(..)")
    }
}

/// Step-boundary state of one script run: the wall-clock budget, the
/// optional step-grained checkpoint state and what [`bank_tallies`]
/// needs between steps.
#[derive(Debug, Clone)]
struct StepCtx<'a> {
    budget: Budget,
    ckpt: Option<ScriptCkpt>,
    /// Checkpoint-save observer (see [`ReportSink`]); `None` unless the
    /// caller passed one.
    report_sink: Option<ReportSink<'a>>,
    /// Shared simulation-signature service of the run (`None` when
    /// [`SbmOptions::sim_filter`] is off). Clones of the handle share one
    /// pattern pool, so every step refines the same signatures.
    sim: Option<SigService>,
    /// [`SbmOptions::canonical_steps`]: the simulation pool is reset,
    /// not committed, at every step boundary.
    canonical: bool,
}

/// Step-grained checkpoint state of one script run. Scripts are a fixed
/// sequence of network-to-network steps, so the persistent unit is "the
/// cleaned network after step N": a snapshot with `seq = N` means the
/// first N steps completed cleanly and resume may skip them.
///
/// The save rule: a clean step whose number is a multiple of the
/// cadence ([`SbmOptions::checkpoint_every`]) saves its output, and a
/// run the budget stops saves its last clean network — the input of the
/// step that tripped, or the current network when the stop falls
/// between steps — unless the snapshot on disk already holds it. A
/// fresh run writes no snapshot of its input (the caller has it), and a
/// finished run records nothing beyond its cadence snapshots.
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
    /// it is recorded — the run parks at the tripped step's input.
    clean: Cell<bool>,
    /// `seq` of this run's snapshot on disk: the loaded one, or the last
    /// successful save; `None` while a fresh run has recorded nothing.
    persisted: Cell<Option<u64>>,
    /// First snapshot-write failure; checkpointing is best-effort.
    error: RefCell<Option<String>>,
    /// Set by a successful cadence save, consumed by [`bank_tallies`] to
    /// fire the run's [`ReportSink`] (if any) once the saved step's
    /// tallies are banked.
    saved: Cell<bool>,
}

impl ScriptCkpt {
    /// Opens the checkpoint of a run under `options` on the cleaned
    /// `input` in `dir`. A snapshot recorded for this input under these
    /// options resumes: its network comes back with the state that skips
    /// the steps it covers. Anything else — no snapshot, a damaged one,
    /// or one recorded for another input or other options — is ignored,
    /// and this run's first save overwrites it.
    fn open(
        dir: &Path,
        options: &SbmOptions,
        input: &Aig,
    ) -> Result<(ScriptCkpt, Option<Aig>), JournalError> {
        let fingerprint = script_fingerprint(options, input);
        let ck = |persisted: Option<u64>| ScriptCkpt {
            dir: dir.to_path_buf(),
            every: options.checkpoint_every.max(1),
            fingerprint,
            resume_from: persisted.unwrap_or(0),
            seen: Cell::new(0),
            clean: Cell::new(true),
            persisted: Cell::new(persisted),
            error: RefCell::new(None),
            saved: Cell::new(false),
        };
        if let Ok((net, meta)) = read_aig_snapshot(&dir.join(SCRIPT_STATE_FILE)) {
            if meta.fingerprint == fingerprint {
                return Ok((ck(Some(meta.seq)), Some(net)));
            }
        }
        sbm_journal::ensure_dir(dir)?;
        Ok((ck(None), None))
    }

    /// Persists `net` (cleaned) as the state after `seq` completed steps
    /// and returns whether it landed. Best-effort: the first failure is
    /// remembered and surfaced as [`PipelineReport::checkpoint_error`],
    /// later writes are skipped.
    fn save(&self, net: &Aig, seq: u64) -> bool {
        let mut error = self.error.borrow_mut();
        if error.is_some() {
            return false;
        }
        match write_aig_snapshot(
            &self.dir.join(SCRIPT_STATE_FILE),
            net,
            self.fingerprint,
            seq,
        ) {
            Ok(()) => {
                self.persisted.set(Some(seq));
                true
            }
            Err(e) => {
                *error = Some(e.to_string());
                false
            }
        }
    }
}

/// Runs one script step under the optional checkpoint regime (see
/// [`ScriptCkpt`] for the save rule): steps already covered by the
/// loaded snapshot are skipped (their effect is baked into the starting
/// network), a clean step is persisted on the configured cadence, and a
/// step that ends with the budget expired parks the run at its input.
/// `f` returns a cleaned network (see [`run_unit`]), so the run
/// continues from exactly the network a snapshot reloads as. Without
/// checkpointing this is exactly `f(cur, report)`.
fn checkpointed(
    cur: Aig,
    ctx: &StepCtx<'_>,
    report: &mut PipelineReport,
    f: impl FnOnce(Aig, &mut PipelineReport) -> Aig,
) -> Aig {
    let Some(ck) = &ctx.ckpt else {
        return f(cur, report);
    };
    let step_no = ck.seen.get() + 1;
    ck.seen.set(step_no);
    if step_no <= ck.resume_from {
        return cur;
    }
    // A budget stop inside this step parks the run at its input: keep a
    // copy unless the snapshot on disk already holds it, and the report
    // as it stood then for the sink.
    let parked = (ck.clean.get() && ck.persisted.get() != Some(step_no - 1))
        .then(|| (cur.clone(), ctx.report_sink.map(|_| report.clone())));
    let next = f(cur, report);
    if ck.clean.get() {
        if ctx.budget.check().is_err() {
            // The budget expired somewhere inside this step; its output
            // may be a timing-degraded network. Keep it for this run's
            // result but never record it — record the step's input, the
            // last clean network, and resume re-runs the step from there.
            ck.clean.set(false);
            if let Some((input, before)) = parked {
                if ck.save(&input, step_no - 1) {
                    if let (Some(sink), Some(before)) = (ctx.report_sink, before) {
                        (sink.0)(&before);
                    }
                }
            }
        } else if (step_no as usize).is_multiple_of(ck.every) && ck.save(&next, step_no) {
            ck.saved.set(true);
        }
    }
    next
}

/// How the step runner schedules one engine of the step table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// Over disjoint windows through [`pass`], fanned out over the run's
    /// workers.
    Windowed,
    /// Once over the whole network on the calling thread, through
    /// [`run_checked`].
    Whole,
}

/// One checkpoint unit of the step table: engines run in order, each on
/// its schedule.
type Unit = Vec<(Box<dyn Engine>, Schedule)>;

/// The [`resyn2rs`] step sequence. Balancing always runs over the whole
/// network; the other engines run on `schedule`.
fn resyn2rs_unit(schedule: Schedule) -> Unit {
    let balance =
        || -> (Box<dyn Engine>, Schedule) { (Box::new(engine::Balance), Schedule::Whole) };
    let rewrite =
        || -> (Box<dyn Engine>, Schedule) { (Box::new(engine::Rewrite::default()), schedule) };
    let rs = |max_inputs: usize| -> (Box<dyn Engine>, Schedule) {
        let options = ResubOptions {
            partition: sbm_aig::window::PartitionOptions {
                max_nodes: 200,
                max_inputs,
                max_levels: 10,
            },
            ..Default::default()
        };
        (Box::new(engine::Resub { options }), schedule)
    };
    let rf = |options: RefactorOptions| -> (Box<dyn Engine>, Schedule) {
        (Box::new(engine::Refactor { options }), schedule)
    };
    let deep = RefactorOptions {
        max_support: 14,
        ..Default::default()
    };
    vec![
        balance(),
        rs(6),
        rewrite(),
        rs(8),
        rf(RefactorOptions::default()),
        rs(10),
        balance(),
        rs(12),
        rewrite(),
        rf(deep),
        balance(),
    ]
}

/// The step table of one SBM script iteration: the 8 checkpoint units of
/// [`sbm_script_report`], in order. Iterations after the first run at
/// high effort.
fn step_table(options: &SbmOptions, iteration: usize) -> [Unit; 8] {
    let high_effort = iteration > 0;
    let whole = |e: Box<dyn Engine>| vec![(e, Schedule::Whole)];
    let windowed = |e: Box<dyn Engine>| vec![(e, Schedule::Windowed)];
    [
        resyn2rs_unit(Schedule::Windowed),
        whole(Box::new(engine::Gradient {
            options: options.gradient.clone(),
        })),
        whole(Box::<engine::Hetero>::default()),
        windowed(Box::<engine::Mspf>::default()),
        windowed(Box::new(engine::Refactor {
            options: RefactorOptions {
                max_support: if high_effort { 14 } else { 12 },
                min_mffc: 2,
                allow_zero_gain: high_effort,
            },
        })),
        windowed(Box::<engine::Bdiff>::default()),
        whole(Box::new(engine::Sweep {
            options: SweepOptions {
                budget: options.sat_budget,
                ..Default::default()
            },
        })),
        whole(Box::new(engine::Redundancy {
            options: RedundancyOptions {
                budget: options.sat_budget,
                max_checks: if high_effort { 2_000 } else { 500 },
            },
        })),
    ]
}

/// The step runner: runs one checkpoint unit on the cleaned network,
/// every engine on its schedule, and merges each engine's stats, latency
/// and check violations into `report`. The unit's result is cleaned —
/// exactly the form a snapshot persists — and never larger than its
/// input: every SBM move has gain ≥ 0 (Section IV-A), which
/// `engine::timed` enforces for a whole-network run and [`pass`]'s
/// network-level guard for a windowed one.
fn run_unit(aig: Aig, unit: &Unit, ctx: &EngineCtx<'_>, report: &mut PipelineReport) -> Aig {
    let mut cur = aig.cleanup();
    for (engine, schedule) in unit {
        let run = match schedule {
            Schedule::Windowed => pass(&cur, engine.as_ref(), ctx),
            Schedule::Whole => whole(&cur, engine.as_ref(), ctx),
        };
        report.merge(&run.stats);
        cur = run.aig;
    }
    cur.cleanup()
}

/// One whole-network engine run, reported as a one-row
/// [`PipelineReport`] (no windows).
fn whole(aig: &Aig, engine: &dyn Engine, ctx: &EngineCtx<'_>) -> Optimized<PipelineReport> {
    let (result, check_violations) = run_checked(engine, aig, ctx, None);
    let mut latency = Histogram::default();
    latency.record(result.stats.busy);
    let name = engine.name().to_string();
    Optimized {
        aig: result.aig,
        stats: PipelineReport {
            engines: vec![(name.clone(), result.stats)],
            engine_latency: vec![(name, latency)],
            check_violations,
            ..PipelineReport::default()
        },
    }
}

/// The `resyn2rs`-style baseline script: balance, resub, rewrite and
/// refactor passes with growing resubstitution windows, mirroring ABC's
/// `b; rs; rw; rs -K 6; rf; rs -K 8; b; rs -K 10; rw; rs -K 12; rf; b`.
/// Each engine runs once over the whole network on the calling thread;
/// the SBM script runs the same sequence, windowed, as its first step.
pub fn resyn2rs(aig: &Aig) -> Aig {
    let budget = Budget::unlimited();
    run_unit(
        aig.clone(),
        &resyn2rs_unit(Schedule::Whole),
        &EngineCtx::new(&budget),
        &mut PipelineReport::default(),
    )
}

/// Runs [`resyn2rs`] until no further improvement — the reference
/// methodology the paper uses for "the smallest known AIG" baselines
/// (Table II footnote: "running resyn2rs until no improvement is seen").
pub fn resyn2rs_fixpoint(aig: &Aig, max_rounds: usize) -> Aig {
    let _memo = MemoScope::enter();
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
    /// on the cadence of [`SbmOptions::checkpoint_every`], and at a budget
    /// stop. A later run on the same input under the same
    /// results-affecting options picks up from the last recorded step
    /// (see [`script_fingerprint`]); any other snapshot there is
    /// overwritten by the run's first save.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot cadence in script steps: `1` (the default) persists after
    /// every step, larger values amortize the write at the cost of
    /// re-running at most that many steps after a crash, and `usize::MAX`
    /// asks for no step cadence at all. Whatever the cadence, a run the
    /// budget stops records its last clean step, so a budget-driven
    /// caller (the job server) parks at exactly that step.
    pub checkpoint_every: usize,
    /// Step-local simulation patterns (`false`, the default): when
    /// `true`, the simulation service's counterexample pool is reset at
    /// every step boundary instead of carried into the next step
    /// (carried patterns are state no snapshot captures, and under
    /// finite budgets they change results). Every step already continues
    /// from its cleaned output — exactly the form snapshots persist — so
    /// each step is then a pure function of its input network, and a
    /// park-and-resume produces byte-identical results. `sbm-server`
    /// turns this on for every job; one-shot runs keep the cross-step
    /// refined pool. Can change results, so it is part of the checkpoint
    /// fingerprint.
    pub canonical_steps: bool,
}

impl Default for SbmOptions {
    fn default() -> Self {
        SbmOptions {
            gradient: GradientOptions::default(),
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

    /// Snapshot cadence in script steps (must be at least 1;
    /// `usize::MAX` records only budget stops).
    #[must_use]
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.options.checkpoint_every = every;
        self
    }

    /// Step-local simulation patterns: reset the simulation pool at every
    /// step boundary, making park-and-resume byte-identical to a straight
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
/// [`PipelineReport`] of every engine run: one row per engine.
///
/// The window-based steps (the baseline script's resub, rewrite and
/// refactor passes, MSPF, refactoring and Boolean difference) always run
/// on the partition executor ([`crate::pipeline`]), fanned out over
/// [`SbmOptions::num_threads`] workers; balancing and the gradient,
/// hetero and SAT steps run once over the whole network. With
/// [`SbmOptions::checkpoint_dir`] set, the run additionally persists
/// step-grained progress and resumes from a snapshot recorded there for
/// the same input and options (the report's `resume` says how many steps
/// it skipped); checkpoint I/O failures are best-effort (reported, never
/// fatal).
pub fn sbm_script_report(aig: &Aig, options: &SbmOptions) -> Optimized<PipelineReport> {
    script_body(aig, options, Budget::from_deadline(options.deadline), None)
}

/// [`sbm_script_report`] under an externally owned [`Budget`] instead of
/// one derived from [`SbmOptions::deadline`] (which is ignored here),
/// with a checkpoint-save observer. This is the job-server entry point:
/// the caller keeps a handle on the budget, so it can preempt the run
/// cooperatively ([`Budget::cancel`]) or bound it with a slice
/// sub-budget ([`Budget::child`]): a run that returns with the budget
/// expired has recorded its last clean step, so it is parked, not lost,
/// and the next call resumes it. `sink` is fired with every snapshot the
/// run persists, with the report covering exactly that snapshot's steps
/// (see [`ReportSink`]); without a configured
/// [`SbmOptions::checkpoint_dir`] it never fires, and neither does it on
/// a pure replay.
pub fn sbm_script_budgeted_observed(
    aig: &Aig,
    options: &SbmOptions,
    budget: &Budget,
    sink: ReportSink<'_>,
) -> Optimized<PipelineReport> {
    script_body(aig, options, budget.clone(), Some(sink))
}

/// The script fingerprint stamped into step snapshots: the cleaned
/// `input` network node for node (what [`sbm_script_report`] starts
/// from, `aig.cleanup()`), plus every builder-level knob that changes
/// *results* — iterations, the gradient budget, SAT budgets, checking, fault
/// plan. Thread count, deadline and the checkpoint configuration itself
/// are excluded (timing/durability only, a resume may change them). A
/// snapshot resumes only under its own fingerprint, so a run never
/// continues from another design's network. Public so embedders (the
/// job server) can reason about checkpoint compatibility without
/// re-deriving the rule.
#[must_use]
pub fn script_fingerprint(options: &SbmOptions, input: &Aig) -> u64 {
    let mut h = Fnv64::new();
    // v7: the engine limits left the options (the step table runs the
    // engines' defaults), so snapshots written by older binaries run
    // fresh.
    h.write_str("sbm-script-v7");
    h.write_u64(input.num_inputs() as u64);
    for &id in input.inputs() {
        h.write_u64(id.index() as u64);
    }
    let ands = input.topo_order();
    h.write_u64(ands.len() as u64);
    for id in ands {
        let (a, b) = input.fanins(id);
        h.write_u64(id.index() as u64);
        h.write_u64(u64::from(a.code()));
        h.write_u64(u64::from(b.code()));
    }
    h.write_u64(input.num_outputs() as u64);
    for lit in input.outputs() {
        h.write_u64(u64::from(lit.code()));
    }
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

/// The shared body of both entry points. With
/// [`SbmOptions::checkpoint_dir`] set, whether the run resumes is decided
/// here, by [`ScriptCkpt::open`], and nowhere else.
fn script_body(
    aig: &Aig,
    options: &SbmOptions,
    budget: Budget,
    sink: Option<ReportSink<'_>>,
) -> Optimized<PipelineReport> {
    // Every truth table is factored once per run (see `MemoScope`).
    let _memo = MemoScope::enter();
    let check = options.check_level;
    let mut report = PipelineReport::default();

    // Boundary pre-check on the RAW input (cleanup would loop on a
    // corrupted redirection map); a corrupt input passes through as-is.
    if check.at_boundaries() {
        if let Err(violation) = check_input("script", None, aig) {
            report.check_violations.push(violation);
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
    // A fresh checkpointed run starts from the cleaned input, which it
    // records only if the budget stops it before its first step ends; a
    // resumed one starts from the loaded snapshot instead (its network
    // already includes the effect of every skipped step).
    let cleaned = aig.cleanup();
    let (ckpt, resumed) = match options
        .checkpoint_dir
        .as_deref()
        .map(|dir| ScriptCkpt::open(dir, options, &cleaned))
    {
        None => (None, None),
        Some(Ok((ckpt, resumed))) => {
            if resumed.is_some() {
                report.resume = Some(ResumeSummary {
                    steps_skipped: ckpt.resume_from as usize,
                });
            }
            (Some(ckpt), resumed)
        }
        Some(Err(e)) => {
            report.checkpoint_error = Some(e.to_string());
            (None, None)
        }
    };
    let input = check.at_boundaries().then(|| cleaned.clone());
    let mut cur = resumed.unwrap_or(cleaned);
    // One budget governs the whole run: every engine step, inner pass and
    // SAT gate below shares it, so the deadline bounds the run end to end.
    let ctx = StepCtx {
        budget,
        ckpt,
        report_sink: sink,
        sim: options.sim_filter.then(SigService::default),
        canonical: options.canonical_steps,
    };
    // Attribution boundary for the sim tallies too (mirrors BDD/SAT).
    let _ = sbm_sim::drain_sim_tally();
    let engine_ctx = EngineCtx::new(&ctx.budget)
        .with_threads(options.num_threads.max(1))
        .with_check_level(check)
        .with_fault_plan(options.fault_plan.as_ref())
        .with_sim(ctx.sim.as_ref());
    for iteration in 0..options.iterations {
        if ctx.budget.check().is_err() {
            break;
        }
        for unit in step_table(options, iteration) {
            cur = checkpointed(cur, &ctx, &mut report, |cur, report| {
                run_unit(cur, &unit, &engine_ctx, report)
            });
            bank_tallies(&mut report, &ctx);
        }
    }
    // Final cleanup, unconditional: `cleanup` is idempotent (the arena
    // core renumbers canonically), so re-cleaning a reloaded snapshot or
    // a step output is a byte-identical no-op and resume
    // byte-identity is preserved without special-casing.
    let mut result = cur.cleanup();

    // Boundary post-check: the final network must satisfy every AIG
    // invariant and agree with the input on 64 random patterns; a
    // violating result is discarded in favor of the cleaned input.
    if let Some(input) = input {
        if let Err(violation) = check_output("script", None, &input, &result) {
            report.check_violations.push(violation);
            result = input;
        }
    }
    if let Some(ck) = &ctx.ckpt {
        // A run that returns with its budget expired leaves its last
        // clean network on disk for the caller to park: a stop between
        // iterations, or after the last step, is recorded here, as late
        // as possible (a stop inside a step was recorded by
        // `checkpointed`). `cur` is that network, already cleaned. A run
        // stopped before reaching its loaded snapshot's step records
        // nothing — that would regress the checkpoint.
        let seen = ck.seen.get();
        if ck.clean.get()
            && seen >= ck.resume_from
            && ck.persisted.get() != Some(seen)
            && ctx.budget.check().is_err()
        {
            if let (true, Some(sink)) = (ck.save(&cur, seen), ctx.report_sink) {
                (sink.0)(&report);
            }
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
    use sbm_check::CheckCode;
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
    fn a_run_leaves_the_factored_form_memo_empty() {
        use crate::rewrite::memo_counts;
        let priority = sbm_epfl::generate("priority", sbm_epfl::Scale::Reduced).expect("design");
        let panicking = FaultPlan {
            seed: 7,
            panic_rate: 0.3,
            delay_rate: 0.0,
            bailout_rate: 0.0,
            delay: Duration::ZERO,
        };
        for fault_plan in [None, Some(panicking)] {
            let options = SbmOptions::builder()
                .num_threads(1)
                .iterations(1)
                .fault_plan(fault_plan)
                .build()
                .expect("valid configuration");
            let (_, _, misses) = memo_counts();
            let run = sbm_script_report(&priority, &options);
            let (entries, _, after) = memo_counts();
            assert!(after > misses, "the run factored tables on this thread");
            assert_eq!(entries, 0, "fault plan {fault_plan:?}");
            let panics: usize = run
                .stats
                .fault
                .per_engine
                .iter()
                .map(|(_, c)| c.panics)
                .sum();
            assert_eq!(panics > 0, fault_plan.is_some(), "{:?}", run.stats.fault);
        }
        resyn2rs_fixpoint(&priority, 2);
        assert_eq!(memo_counts().0, 0, "resyn2rs_fixpoint");
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
        let options = SbmOptions::builder()
            .num_threads(4)
            .iterations(1)
            .build()
            .expect("valid configuration");
        assert_eq!(options.num_threads, 4);
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
        // Re-running a finished run replays the final snapshot: every
        // step is skipped and the loaded network is returned as-is.
        let resumed = sbm_script_report(&aig, &options);
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
        let restarted = sbm_script_report(&aig, &options);
        assert_eq!(restarted.stats.resume.expect("summary").steps_skipped, 0);
        assert_eq!(restarted.aig.num_ands(), full.aig.num_ands());
        assert!(proven_equivalent(&net, &restarted.aig));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgeted_canonical_run_parks_and_resumes_byte_identically() {
        let states = step_states(&benchmark_aig());
        for threads in [1, 2, 4] {
            for every in [1, usize::MAX] {
                park_and_resume_byte_identically(threads, every, &states);
            }
        }
    }

    /// The cleaned network after each step of a canonical one-iteration
    /// run of `aig`: entry `k` is what a snapshot at `seq = k` holds, as
    /// AIGER text (entry 0 is the cleaned input).
    fn step_states(aig: &Aig) -> Vec<String> {
        let dir = tmp_dir("states");
        let options = SbmOptions::builder()
            .iterations(1)
            .checkpoint_dir(Some(dir.clone()))
            .canonical_steps(true)
            .build()
            .expect("valid configuration");
        let states = std::sync::Mutex::new(vec![sbm_aig::aiger::write(&aig.cleanup())]);
        let record = |_: &PipelineReport| {
            let (net, meta) = read_aig_snapshot(&dir.join(SCRIPT_STATE_FILE)).expect("snapshot");
            let mut states = states.lock().expect("states lock");
            assert_eq!(meta.seq as usize, states.len());
            states.push(sbm_aig::aiger::write(&net));
        };
        sbm_script_budgeted_observed(aig, &options, &Budget::unlimited(), ReportSink(&record));
        let _ = std::fs::remove_dir_all(&dir);
        states.into_inner().expect("states lock")
    }

    /// The job-server execution model: a run under a slice budget is
    /// stopped at an arbitrary point, parked at its last clean step, and
    /// later resumed under a fresh budget. With canonical_steps on, the
    /// parked snapshot holds exactly the network of the steps completed
    /// cleanly, and the resumed run converges on a result byte-identical
    /// to an uninterrupted run — whatever the snapshot cadence `every`.
    fn park_and_resume_byte_identically(threads: usize, every: usize, states: &[String]) {
        let dir = tmp_dir(&format!("park-t{threads}-e{}", every.min(2)));
        let aig = benchmark_aig();
        let options = SbmOptions::builder()
            .iterations(1)
            .num_threads(threads)
            .checkpoint_dir(Some(dir.clone()))
            .checkpoint_every(every)
            .canonical_steps(true)
            .build()
            .expect("valid configuration");
        let label = format!("threads {threads}, every {every}");

        // Slice 1: a deadline, halved until it stops the run. Whatever
        // step the stop lands in, that step is never recorded: the run
        // parks at the last step it completed cleanly.
        let mut deadline = Duration::from_millis(16);
        loop {
            let slice = Budget::with_deadline(deadline);
            let parked = sbm_script_budgeted_observed(&aig, &options, &slice, ReportSink(&|_| {}));
            assert_eq!(parked.stats.checkpoint_error, None, "{label}");
            if slice.check().is_err() {
                break;
            }
            // Finished within the deadline: start over, with less time.
            let _ = std::fs::remove_dir_all(&dir);
            deadline /= 2;
        }
        let (net, meta) =
            read_aig_snapshot(&dir.join(SCRIPT_STATE_FILE)).expect("a stopped run parks");
        let parked_at = meta.seq as usize;
        assert_eq!(
            sbm_aig::aiger::write(&net),
            states[parked_at],
            "{label}: parked at step {parked_at}"
        );

        // Slice 2: resume with an open-ended budget and run to the end.
        let reference = &states[states.len() - 1];
        let resumed = sbm_script_report(&aig, &options);
        let skipped = |run: &Optimized<PipelineReport>| run.stats.resume.map(|r| r.steps_skipped);
        assert_eq!(skipped(&resumed), Some(parked_at), "{label}");
        assert_eq!(&sbm_aig::aiger::write(&resumed.aig), reference, "{label}");

        // Once more, still identical: with a step cadence the finished
        // run's last snapshot makes it a pure replay; without one, the
        // park is still the last record.
        let again = sbm_script_report(&aig, &options);
        let expected = if every == 1 {
            states.len() - 1
        } else {
            parked_at
        };
        assert_eq!(skipped(&again), Some(expected), "{label}");
        assert_eq!(&sbm_aig::aiger::write(&again.aig), reference, "{label}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stopped_run_records_where_it_stands() {
        let dir = tmp_dir("stopped");
        let state = dir.join(SCRIPT_STATE_FILE);
        let options = SbmOptions::builder()
            .iterations(1)
            .checkpoint_dir(Some(dir.clone()))
            .checkpoint_every(usize::MAX)
            .canonical_steps(true)
            .build()
            .expect("valid configuration");
        let run = |aig: &Aig, budget: &Budget| {
            let run = sbm_script_budgeted_observed(aig, &options, budget, ReportSink(&|_| {}));
            assert_eq!(run.stats.checkpoint_error, None);
            run
        };
        // Finished within its budget, a run without a step cadence writes
        // no snapshot at all: the caller holds both input and result.
        let aig = benchmark_aig();
        run(&aig, &Budget::unlimited());
        assert!(!state.exists());

        // Stopped before any step, or 1 ms into the first step of reduced
        // priority (the baseline script over every window, far longer), a
        // fresh run records its cleaned input as step 0.
        let expired = Budget::cancellable();
        expired.cancel();
        let priority = sbm_epfl::generate("priority", sbm_epfl::Scale::Reduced).expect("design");
        for (input, deadline) in [(&aig, None), (&priority, Some(Duration::from_millis(1)))] {
            let _ = std::fs::remove_dir_all(&dir);
            let budget = deadline.map_or_else(|| expired.clone(), Budget::with_deadline);
            run(input, &budget);
            let (net, meta) = read_aig_snapshot(&state).expect("a stopped run parks");
            assert_eq!(meta.seq, 0);
            assert_eq!(
                sbm_aig::aiger::write(&net),
                sbm_aig::aiger::write(&input.cleanup())
            );
        }

        // Stopped before it reaches its loaded snapshot's step, a resumed
        // run leaves the snapshot as it was rather than regress it.
        let (net, meta) = read_aig_snapshot(&state).expect("snapshot");
        write_aig_snapshot(&state, &net, meta.fingerprint, 5).expect("a snapshot at step 5");
        let resumed = run(&priority, &expired);
        assert_eq!(resumed.stats.resume.map(|r| r.steps_skipped), Some(5));
        assert_eq!(read_aig_snapshot(&state).expect("snapshot").1.seq, 5);
        let _ = std::fs::remove_dir_all(&dir);
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
        let (_, meta) = read_aig_snapshot(&dir.join(SCRIPT_STATE_FILE)).expect("snapshot");
        assert_eq!(meta.seq, 8, "the last cadence snapshot is the finished run");
        {
            let fired = fired.lock().expect("observer lock");
            assert_eq!(fired.len(), 8, "one iteration = 8 script steps");
            // Each firing hands a valid, strictly decodable report.
            for json in fired.iter() {
                sbm_metrics::RunReport::from_json(json).expect("sink report decodes");
            }
        }
        let replay = sbm_script_budgeted_observed(
            &aig,
            &options,
            &Budget::unlimited(),
            ReportSink(&observer),
        );
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
        let aig = benchmark_aig().cleanup();
        assert_ne!(
            script_fingerprint(&base, &aig),
            script_fingerprint(&canonical, &aig)
        );
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbm-script-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A checkpointed run of `aig` into `dir` that must start fresh:
    /// byte-identical to an uncheckpointed run, no resume, no checkpoint
    /// error, and `dir` then holds this run's finished snapshot.
    fn assert_runs_fresh(aig: &Aig, options: &SbmOptions, dir: &Path) {
        let plain = SbmOptions {
            checkpoint_dir: None,
            ..options.clone()
        };
        let expected = sbm_aig::aiger::write(&sbm_script_report(aig, &plain).aig);
        let run = sbm_script_report(aig, options);
        assert_eq!(run.stats.resume, None);
        assert_eq!(run.stats.checkpoint_error, None);
        assert!(run.stats.check_violations.is_empty());
        assert_eq!(sbm_aig::aiger::write(&run.aig), expected);
        let (net, meta) = read_aig_snapshot(&dir.join(SCRIPT_STATE_FILE)).expect("snapshot");
        assert_eq!(
            meta.fingerprint,
            script_fingerprint(options, &aig.cleanup())
        );
        assert_eq!(sbm_aig::aiger::write(&net), expected);
    }

    #[test]
    fn another_networks_checkpoint_runs_fresh() {
        // A checkpoint of reduced priority offered to arbiter under the
        // same options must not resume: arbiter gets its own network.
        let dir = tmp_dir("other-net");
        let options = SbmOptions::builder()
            .iterations(1)
            .check_level(CheckLevel::Boundaries)
            .checkpoint_dir(Some(dir.clone()))
            .build()
            .expect("valid configuration");
        let generate = |name| sbm_epfl::generate(name, sbm_epfl::Scale::Reduced).expect("design");
        let priority = sbm_script_report(&generate("priority"), &options);
        assert_eq!(priority.stats.checkpoint_error, None);
        assert_runs_fresh(&generate("arbiter"), &options, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_snapshot_runs_fresh() {
        let dir = tmp_dir("damaged");
        let aig = benchmark_aig();
        let options = SbmOptions::builder()
            .iterations(1)
            .checkpoint_dir(Some(dir.clone()))
            .build()
            .expect("valid configuration");
        sbm_script_report(&aig, &options);
        let state = dir.join(SCRIPT_STATE_FILE);
        let mut bytes = std::fs::read(&state).expect("snapshot bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&state, bytes).expect("flip one byte");
        assert!(read_aig_snapshot(&state).is_err());
        assert_runs_fresh(&aig, &options, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn option_drift_runs_fresh() {
        let dir = tmp_dir("drift");
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
        assert_runs_fresh(&aig, &drifted, &dir);
        // Without a checkpoint directory nothing is resumed or recorded.
        let unconfigured = SbmOptions::builder()
            .iterations(1)
            .build()
            .expect("valid configuration");
        let run = sbm_script_report(&aig, &unconfigured);
        assert_eq!(run.stats.resume, None);
        assert_eq!(run.stats.checkpoint_error, None);
        assert!(matches!(
            SbmOptions::builder().checkpoint_every(0).build(),
            Err(OptionsError::ZeroCheckpointEvery)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every engine of the step table over `options.iterations`, in
    /// first-run order, with its schedule.
    fn table_rows(options: &SbmOptions) -> Vec<(String, Schedule)> {
        let mut rows: Vec<(String, Schedule)> = Vec::new();
        for iteration in 0..options.iterations {
            for unit in step_table(options, iteration) {
                for (engine, schedule) in &unit {
                    match rows.iter().find(|(name, _)| name == engine.name()) {
                        Some((name, on)) => assert_eq!(on, schedule, "{name} has two schedules"),
                        None => rows.push((engine.name().to_string(), *schedule)),
                    }
                }
            }
        }
        rows
    }

    #[test]
    fn report_rows_follow_the_step_table() {
        // One row per step-table engine, in first-run order; `windows`
        // counts only windowed runs, and no row accepts more than it
        // tried.
        let aig = sbm_epfl::generate("priority", sbm_epfl::Scale::Reduced).expect("known design");
        let options = SbmOptions::default();
        let report = sbm_script_report(&aig, &options).stats;
        let table = table_rows(&options);
        let rows: Vec<&str> = report.engines.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = table.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(rows, expected);
        assert_eq!(rows.len(), 10, "{rows:?}");
        let latency: Vec<&str> = report
            .engine_latency
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(latency, expected);
        for ((name, stats), (_, schedule)) in report.engines.iter().zip(table) {
            match schedule {
                Schedule::Windowed => assert!(stats.windows > 0, "{name}: {stats:?}"),
                Schedule::Whole => assert_eq!(stats.windows, 0, "{name}: {stats:?}"),
            }
            assert!(stats.accepted <= stats.tried, "{name}: {stats:?}");
        }
    }

    #[test]
    fn fixpoint_terminates() {
        let aig = benchmark_aig();
        let out = resyn2rs_fixpoint(&aig, 50);
        assert!(out.num_ands() <= aig.num_ands());
        assert!(proven_equivalent(&aig, &out));
    }
}

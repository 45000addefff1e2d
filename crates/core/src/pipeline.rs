//! The parallel partition executor.
//!
//! The paper's engines are all *windowed*: they evaluate Boolean
//! transformations "locally on limited size circuit partitions"
//! (Section III-B), which makes the partitions natural units of parallel
//! work. [`pass`] implements that idea end to end for one engine:
//!
//! 1. **Extract** — the network is split into disjoint windows by
//!    [`sbm_aig::window::partition`] and each viable window is copied out
//!    as a standalone AIG ([`Partition::extract`]);
//! 2. **Optimize** — windows are fanned out to a scoped worker pool
//!    ([`std::thread::scope`]); each worker claims windows from a shared
//!    atomic cursor and runs the [`Engine`] on its window, with BDD
//!    managers recycled through the worker's thread-local pool
//!    ([`crate::bdd_bridge::pooled_manager`]);
//! 3. **Stitch** — accepted rewrites are spliced back serially, guarded by
//!    a functional-equivalence gate (simulation signatures plus a budgeted
//!    SAT miter, [`crate::verify::equivalent_within_budgeted_sim`]) and a
//!    created-versus-saved node count.
//!
//! The result is deterministic: workers only transform private window
//! copies, outcomes are collected by window index, and stitching happens
//! in partition order — so four worker threads produce the same network
//! as one, only faster.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use sbm_aig::window::{partition, Partition, PartitionOptions};
use sbm_aig::{Aig, Lit, NodeId};
use sbm_bdd::BddTally;
use sbm_check::{inject_panic, FaultKind};
use sbm_journal::ResumeSummary;
use sbm_metrics::{
    BddCounters, EngineFaultCounters, EngineReport, FaultReport, Histogram, PhaseMicros,
    ResumeReport, RunReport, SatCounters, SimFilterCounters, Timer, WindowReport,
};
use sbm_sat::{drain_sat_tally, note_sat_tally, SatTally};
use sbm_sim::{drain_sim_tally, note_sim_tally, SimTally};

use crate::bdd_bridge::{drain_bdd_tally, note_bdd_tally};
use crate::engine::{
    check_input, check_output, run_checked, CheckViolation, Engine, EngineCtx, EngineStats,
    Optimized,
};
use crate::verify::equivalent_within_budgeted_sim;

/// Per-engine fault counters of one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Engine invocations that panicked (injected or genuine); every one
    /// was caught and isolated to its window.
    pub panics: usize,
    /// Engine invocations that observed an expired deadline or a
    /// cancellation and stopped early.
    pub deadline_hits: usize,
    /// BDD node-limit bailouts, mirrored from [`EngineStats::bailouts`].
    pub bailouts: usize,
    /// Forced bailouts injected by the [`FaultPlan`](sbm_check::FaultPlan).
    pub injected_bailouts: usize,
    /// Delays injected by the [`FaultPlan`](sbm_check::FaultPlan).
    pub delays: usize,
    /// Failed first attempts that were retried at reduced effort.
    pub retries: usize,
    /// Retries whose second attempt completed.
    pub retry_successes: usize,
}

impl FaultCounts {
    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounts::default()
    }

    /// Adds `other` into `self`, field by field.
    pub fn merge(&mut self, other: &FaultCounts) {
        self.panics += other.panics;
        self.deadline_hits += other.deadline_hits;
        self.bailouts += other.bailouts;
        self.injected_bailouts += other.injected_bailouts;
        self.delays += other.delays;
        self.retries += other.retries;
        self.retry_successes += other.retry_successes;
    }
}

/// One fault injected by the configured
/// [`FaultPlan`](sbm_check::FaultPlan) — the run's ledger, against which
/// tests verify that [`FaultSummary`] bookkeeping is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Engine the fault was injected into.
    pub engine: String,
    /// Partition index of the window being optimized.
    pub window: usize,
    /// 0 for the first attempt, 1 for the retry.
    pub attempt: u8,
    /// What was injected.
    pub kind: FaultKind,
}

/// Fault-tolerance record of one pipeline run: what failed, what was
/// retried, and what degraded — the run never aborts on any of it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSummary {
    /// Per-engine counters, in first-occurrence order. The reserved name
    /// `"pipeline"` attributes faults caught outside any single engine.
    pub per_engine: Vec<(String, FaultCounts)>,
    /// Windows degraded to their original sub-network after both attempts
    /// of some engine failed (or the deadline expired mid-window).
    pub degraded_windows: usize,
    /// Every fault the [`FaultPlan`](sbm_check::FaultPlan) actually
    /// injected, in the order the windows were claimed. Empty without a
    /// plan.
    pub injected: Vec<InjectedFault>,
}

impl FaultSummary {
    /// The counters of `engine`, created zeroed on first use.
    pub fn counts_mut(&mut self, engine: &str) -> &mut FaultCounts {
        let idx = match self.per_engine.iter().position(|(n, _)| n == engine) {
            Some(idx) => idx,
            None => {
                self.per_engine
                    .push((engine.to_string(), FaultCounts::default()));
                self.per_engine.len() - 1
            }
        };
        &mut self.per_engine[idx].1
    }

    /// The counters of `engine`, zeroed when the engine never faulted.
    pub fn counts(&self, engine: &str) -> FaultCounts {
        self.per_engine
            .iter()
            .find(|(n, _)| n == engine)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// Sums a field across all engines.
    pub fn total(&self, field: impl Fn(&FaultCounts) -> usize) -> usize {
        self.per_engine.iter().map(|(_, c)| field(c)).sum()
    }

    /// True when nothing faulted, nothing degraded and nothing was
    /// injected — the expected state of every production run.
    pub fn is_zero(&self) -> bool {
        self.degraded_windows == 0
            && self.injected.is_empty()
            && self.per_engine.iter().all(|(_, c)| c.is_zero())
    }

    /// Accumulates `other` into `self`: counters merge by engine name,
    /// degraded windows sum, ledgers concatenate.
    pub fn merge(&mut self, other: &FaultSummary) {
        for (name, counts) in &other.per_engine {
            self.counts_mut(name).merge(counts);
        }
        self.degraded_windows += other.degraded_windows;
        self.injected.extend(other.injected.iter().cloned());
    }
}

/// Observability record of one [`pass`], or of several merged (a script
/// run merges the report of every step).
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Windows produced by partitioning.
    pub windows_total: usize,
    /// Windows below the minimum size, without roots, or not extractable.
    pub windows_skipped: usize,
    /// Windows where the engine found no improvement.
    pub windows_unchanged: usize,
    /// Windows whose rewrite failed the functional-equivalence gate.
    pub windows_gate_rejected: usize,
    /// Windows whose splice was abandoned (created ≥ saved nodes, or a
    /// replacement would have formed a cycle).
    pub windows_stitch_rejected: usize,
    /// Windows stitched into the result.
    pub windows_improved: usize,
    /// AND nodes saved by stitched windows (pre-cleanup estimate).
    pub nodes_saved: usize,
    /// Per-engine statistics, in first-run order, merged across all
    /// windows. [`EngineStats::busy`] sums per-invocation busy time over
    /// all workers, so it can exceed `optimize_wall` with several threads;
    /// the `*_wall` phase fields below are true elapsed wall-clock.
    pub engines: Vec<(String, EngineStats)>,
    /// Per-engine invocation-latency histograms, in first-run order
    /// (power-of-two microsecond buckets; one sample per completed
    /// engine invocation).
    pub engine_latency: Vec<(String, Histogram)>,
    /// BDD-layer counters harvested from every manager recycled during
    /// the run — [`BddManager::reset`](sbm_bdd::BddManager::reset) zeroes
    /// a manager's stats, so the per-window drains here are the only
    /// place this work stays visible.
    pub bdd: BddTally,
    /// SAT-solver counters accumulated across the run, including the
    /// per-window equivalence gates.
    pub sat: SatTally,
    /// Simulation-filter counters accumulated across the run: candidates
    /// rejected/passed by signature screening, counterexamples harvested
    /// from refuted gate checks, and network resimulations. All-zero
    /// when the run's [`EngineCtx`] carries no simulation service.
    pub sim: SimTally,
    /// Wall-clock of the window-extraction phase.
    pub extract_wall: Duration,
    /// Wall-clock of the parallel optimization phase.
    pub optimize_wall: Duration,
    /// Wall-clock of the serial stitching phase (incl. final cleanup).
    pub stitch_wall: Duration,
    /// End-to-end wall-clock of the run.
    pub total_wall: Duration,
    /// Invariant violations caught at the [`EngineCtx::check_level`] of
    /// the run, in detection order: each names
    /// the engine (or `"pipeline"` for run boundaries), the stage and,
    /// for `Paranoid`, the window that first violated an invariant.
    pub check_violations: Vec<CheckViolation>,
    /// Fault-tolerance record: panics caught, deadline hits, bailouts,
    /// retries and degraded windows, per engine. All-zero
    /// ([`FaultSummary::is_zero`]) on a healthy run.
    pub fault: FaultSummary,
    /// Resume bookkeeping: set only by a checkpointed script run that
    /// found a snapshot recorded for its own input and options and
    /// resumed from it (see `script::SbmOptions::checkpoint_dir`).
    pub resume: Option<ResumeSummary>,
    /// First checkpoint I/O failure of the script run, if any.
    /// Checkpointing is best-effort: a full disk degrades durability,
    /// never the optimization result.
    pub checkpoint_error: Option<String>,
}

impl PipelineReport {
    /// Accumulates `other` into `self`: window counters and phase times
    /// sum; per-engine stats merge by name (appended when new).
    pub fn merge(&mut self, other: &PipelineReport) {
        self.windows_total += other.windows_total;
        self.windows_skipped += other.windows_skipped;
        self.windows_unchanged += other.windows_unchanged;
        self.windows_gate_rejected += other.windows_gate_rejected;
        self.windows_stitch_rejected += other.windows_stitch_rejected;
        self.windows_improved += other.windows_improved;
        self.nodes_saved += other.nodes_saved;
        for (name, stats) in &other.engines {
            match self.engines.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => total.merge(stats),
                None => self.engines.push((name.clone(), *stats)),
            }
        }
        for (name, hist) in &other.engine_latency {
            match self.engine_latency.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => total.merge(hist),
                None => self.engine_latency.push((name.clone(), hist.clone())),
            }
        }
        self.bdd.merge(&other.bdd);
        self.sat.merge(&other.sat);
        self.sim.merge(&other.sim);
        self.extract_wall += other.extract_wall;
        self.optimize_wall += other.optimize_wall;
        self.stitch_wall += other.stitch_wall;
        self.total_wall += other.total_wall;
        self.check_violations
            .extend(other.check_violations.iter().cloned());
        self.fault.merge(&other.fault);
        if let Some(other_resume) = &other.resume {
            self.resume
                .get_or_insert_with(ResumeSummary::default)
                .merge(other_resume);
        }
        if self.checkpoint_error.is_none() {
            self.checkpoint_error.clone_from(&other.checkpoint_error);
        }
    }

    /// Every window lands in exactly one outcome bucket.
    pub fn is_consistent(&self) -> bool {
        self.windows_skipped
            + self.windows_unchanged
            + self.windows_gate_rejected
            + self.windows_stitch_rejected
            + self.windows_improved
            == self.windows_total
    }

    /// Projects this report onto the serializable [`RunReport`] schema.
    ///
    /// The run-identity fields (`tool`, `scale`, `threads`, `benchmarks`)
    /// are left at their defaults — only the caller knows them; fill them
    /// in before [`RunReport::to_json`].
    pub fn run_report(&self) -> RunReport {
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let latency = |name: &str| {
            self.engine_latency
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.clone())
                .unwrap_or_default()
        };
        RunReport {
            windows: WindowReport {
                total: self.windows_total as u64,
                skipped: self.windows_skipped as u64,
                unchanged: self.windows_unchanged as u64,
                gate_rejected: self.windows_gate_rejected as u64,
                stitch_rejected: self.windows_stitch_rejected as u64,
                improved: self.windows_improved as u64,
                nodes_saved: self.nodes_saved as u64,
                check_violations: self.check_violations.len() as u64,
            },
            phases_us: PhaseMicros {
                extract: micros(self.extract_wall),
                optimize: micros(self.optimize_wall),
                stitch: micros(self.stitch_wall),
                total: micros(self.total_wall),
            },
            engines: self
                .engines
                .iter()
                .map(|(name, s)| EngineReport {
                    name: name.clone(),
                    windows: s.windows as u64,
                    tried: s.tried as u64,
                    accepted: s.accepted as u64,
                    gain: s.gain,
                    bailouts: s.bailouts as u64,
                    busy_us: micros(s.busy),
                    latency_us: latency(name),
                })
                .collect(),
            bdd: BddCounters {
                managers_recycled: self.bdd.managers_recycled,
                nodes_allocated: self.bdd.nodes_allocated,
                peak_nodes: self.bdd.peak_nodes,
                unique_hits: self.bdd.unique_hits,
                cache_hits: self.bdd.cache_hits,
                ite_calls: self.bdd.ite_calls,
            },
            sat: SatCounters {
                solves: self.sat.solves,
                sat: self.sat.sat,
                unsat: self.sat.unsat,
                unknown: self.sat.unknown,
                interrupted: self.sat.interrupted,
                conflicts: self.sat.conflicts,
                decisions: self.sat.decisions,
                propagations: self.sat.propagations,
            },
            sim_filter: SimFilterCounters {
                hits: self.sim.filter_hits,
                misses: self.sim.filter_misses,
                cex_recorded: self.sim.cex_recorded,
                cex_committed: self.sim.cex_committed,
                resims: self.sim.resims,
            },
            faults: FaultReport {
                degraded_windows: self.fault.degraded_windows as u64,
                injected: self.fault.injected.len() as u64,
                per_engine: self
                    .fault
                    .per_engine
                    .iter()
                    .map(|(name, c)| EngineFaultCounters {
                        name: name.clone(),
                        panics: c.panics as u64,
                        deadline_hits: c.deadline_hits as u64,
                        bailouts: c.bailouts as u64,
                        injected_bailouts: c.injected_bailouts as u64,
                        delays: c.delays as u64,
                        retries: c.retries as u64,
                        retry_successes: c.retry_successes as u64,
                    })
                    .collect(),
            },
            resume: self.resume.as_ref().map(|r| ResumeReport {
                steps_skipped: r.steps_skipped as u64,
            }),
            checkpoint_error: self.checkpoint_error.clone(),
            ..RunReport::default()
        }
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline: {} windows ({} improved, {} unchanged, {} skipped, \
             {} gate-rejected, {} stitch-rejected), {} nodes saved",
            self.windows_total,
            self.windows_improved,
            self.windows_unchanged,
            self.windows_skipped,
            self.windows_gate_rejected,
            self.windows_stitch_rejected,
            self.nodes_saved,
        )?;
        for (name, s) in &self.engines {
            writeln!(
                f,
                "  {:<10} windows {:>5}  tried {:>6}  accepted {:>6}  \
                 gain {:>6}  bailouts {:>4}  busy {:.3}s",
                name,
                s.windows,
                s.tried,
                s.accepted,
                s.gain,
                s.bailouts,
                s.busy.as_secs_f64(),
            )?;
        }
        if !self.bdd.is_zero() {
            writeln!(
                f,
                "  bdd: {} managers recycled, {} nodes (peak {}), {} ite calls, \
                 {} unique hits, {} cache hits",
                self.bdd.managers_recycled,
                self.bdd.nodes_allocated,
                self.bdd.peak_nodes,
                self.bdd.ite_calls,
                self.bdd.unique_hits,
                self.bdd.cache_hits,
            )?;
        }
        if !self.sat.is_zero() {
            writeln!(
                f,
                "  sat: {} solves ({} sat, {} unsat, {} unknown, {} interrupted), \
                 {} conflicts, {} decisions, {} propagations",
                self.sat.solves,
                self.sat.sat,
                self.sat.unsat,
                self.sat.unknown,
                self.sat.interrupted,
                self.sat.conflicts,
                self.sat.decisions,
                self.sat.propagations,
            )?;
        }
        if !self.sim.is_zero() {
            writeln!(
                f,
                "  sim: {} filter hits, {} misses, {} cex recorded ({} committed), \
                 {} resims",
                self.sim.filter_hits,
                self.sim.filter_misses,
                self.sim.cex_recorded,
                self.sim.cex_committed,
                self.sim.resims,
            )?;
        }
        write!(
            f,
            "  phases: extract {:.3}s, optimize {:.3}s, stitch {:.3}s, total {:.3}s",
            self.extract_wall.as_secs_f64(),
            self.optimize_wall.as_secs_f64(),
            self.stitch_wall.as_secs_f64(),
            self.total_wall.as_secs_f64(),
        )?;
        if !self.fault.is_zero() {
            write!(
                f,
                "\n  faults: {} degraded windows, {} injected",
                self.fault.degraded_windows,
                self.fault.injected.len(),
            )?;
            for (name, c) in &self.fault.per_engine {
                if c.is_zero() {
                    continue;
                }
                write!(
                    f,
                    "\n    {:<10} panics {:>3}  deadline {:>3}  bailouts {:>3} \
                     (+{} injected)  delays {:>3}  retries {:>3} ({} ok)",
                    name,
                    c.panics,
                    c.deadline_hits,
                    c.bailouts,
                    c.injected_bailouts,
                    c.delays,
                    c.retries,
                    c.retry_successes,
                )?;
            }
        }
        if let Some(resume) = &self.resume {
            write!(f, "\n  {resume}")?;
        }
        if let Some(err) = &self.checkpoint_error {
            write!(f, "\n  CHECKPOINT ERROR: {err}")?;
        }
        for v in &self.check_violations {
            write!(f, "\n  CHECK VIOLATION: {v}")?;
        }
        Ok(())
    }
}

/// Window limits of [`pass`], sized for full-strength engine passes
/// (each window is re-partitioned by the engine's own options).
const WINDOW_LIMITS: PartitionOptions = PartitionOptions {
    max_nodes: 300,
    max_inputs: 12,
    max_levels: 16,
};

/// Windows with fewer internal nodes are skipped outright.
const MIN_WINDOW: usize = 2;

/// SAT conflict budget of the per-window equivalence gate; rewrites the
/// solver cannot prove within the budget are rejected.
const GATE_CONFLICT_BUDGET: u64 = 10_000;

/// What one worker produced for one window.
struct WindowOutcome {
    /// The accepted rewrite (smaller and proved equivalent); `None` when
    /// the window stays as-is.
    rewrite: Option<Aig>,
    gate_rejected: bool,
    stats: EngineStats,
    /// Latency of the window's completed engine invocations.
    latency: Histogram,
    /// BDD counters drained from the worker's thread-local pool when the
    /// window finished — per-window drains make the totals identical for
    /// every thread count.
    bdd: BddTally,
    /// SAT counters drained from the worker's thread-local tally.
    sat: SatTally,
    /// Simulation-filter counters drained from the worker's thread-local
    /// tally.
    sim: SimTally,
    /// Invariant violations from `Paranoid` engine bracketing (empty
    /// below that level).
    violations: Vec<CheckViolation>,
    /// This window's contribution to [`PipelineReport::fault`].
    fault: FaultSummary,
}

impl WindowOutcome {
    /// An outcome that leaves the window as-is, with nothing attributed.
    fn unchanged(fault: FaultSummary) -> Self {
        WindowOutcome {
            rewrite: None,
            gate_rejected: false,
            stats: EngineStats::default(),
            latency: Histogram::default(),
            bdd: BddTally::default(),
            sat: SatTally::default(),
            sim: SimTally::default(),
            violations: Vec::new(),
            fault,
        }
    }
}

/// Runs one engine over the whole network through the extract → optimize
/// → stitch executor. Every setting of the run comes from `ctx`: worker
/// threads, check level, budget, fault plan and simulation service. The
/// result is never larger than the input and identical for every thread
/// count.
///
/// At [`CheckLevel::Boundaries`](sbm_check::CheckLevel::Boundaries) and
/// above the raw input and the stitched result are validated; `Paranoid`
/// additionally brackets the engine invocation inside every window with
/// [`run_checked`]. Violations are
/// collected in [`PipelineReport::check_violations`]; a violating rewrite
/// is discarded, never stitched. An expired or cancelled budget never
/// aborts the run: the engine stops cooperatively, in-flight windows
/// degrade to their original sub-network, and whatever completed in time
/// is stitched.
///
/// The simulation service, when `ctx` carries one, filters the engine's
/// candidates, screens the window equivalence gate, and collects refuted
/// gate checks' SAT witnesses in its pending pool. `pass` never commits
/// pending counterexamples — that is the service owner's job at a true
/// serial boundary (script steps do it between steps).
pub fn pass(aig: &Aig, engine: &dyn Engine, ctx: &EngineCtx<'_>) -> Optimized<PipelineReport> {
    let total_timer = Timer::start();
    let mut report = PipelineReport::default();
    let check_level = ctx.check_level();

    // Boundary pre-check runs on the RAW input, before cleanup: cleanup
    // itself resolves replacement chains and would loop on a corrupted
    // redirection map. A corrupt input is returned as-is — there is
    // nothing safe the pass can do with it.
    if check_level.at_boundaries() {
        if let Err(violation) = check_input("pipeline", None, aig) {
            report.check_violations.push(violation);
            report.total_wall = total_timer.stop();
            return Optimized {
                aig: aig.clone(),
                stats: report,
            };
        }
    }
    let work = aig.cleanup();

    // Phase 1: extract windows.
    let extract_timer = Timer::start();
    let parts = partition(&work, &WINDOW_LIMITS);
    report.windows_total = parts.len();
    let mut jobs: Vec<(usize, Aig)> = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        if part.size() < MIN_WINDOW || part.leaves.is_empty() || part.roots.is_empty() {
            report.windows_skipped += 1;
            continue;
        }
        match part.extract(&work) {
            Some(sub) => jobs.push((i, sub)),
            None => report.windows_skipped += 1,
        }
    }
    report.extract_wall = extract_timer.stop();

    // Phase 2: optimize windows on the worker pool, under the shared
    // wall-clock budget.
    let optimize_timer = Timer::start();
    let outcomes = optimize_windows(engine, &jobs, ctx);
    report.optimize_wall = optimize_timer.stop();

    // Phase 3: stitch accepted rewrites back, serially and in window
    // order (deterministic regardless of worker scheduling).
    let stitch_timer = Timer::start();
    let input = check_level.at_boundaries().then(|| work.clone());
    let mut work = work;
    let mut stats = EngineStats::default();
    let mut latency = Histogram::default();
    for ((part_idx, sub), outcome) in jobs.iter().zip(outcomes) {
        stats.merge(&outcome.stats);
        latency.merge(&outcome.latency);
        report.bdd.merge(&outcome.bdd);
        report.sat.merge(&outcome.sat);
        report.sim.merge(&outcome.sim);
        report.check_violations.extend(outcome.violations);
        report.fault.merge(&outcome.fault);
        if outcome.gate_rejected {
            report.windows_gate_rejected += 1;
            continue;
        }
        let Some(rewrite) = outcome.rewrite else {
            report.windows_unchanged += 1;
            continue;
        };
        let part = &parts[*part_idx];
        match stitch_window(&mut work, part, &rewrite, sub.num_ands()) {
            Some(saved) => {
                report.windows_improved += 1;
                report.nodes_saved += saved;
            }
            None => report.windows_stitch_rejected += 1,
        }
    }
    let mut result = work.cleanup();

    // Boundary post-check: the stitched network must itself satisfy every
    // AIG invariant and agree with the input on 64 random patterns. A
    // violating result is discarded in favor of the (already validated)
    // cleaned input.
    if let Some(input) = input {
        if let Err(violation) = check_output("pipeline", None, &input, &result) {
            report.check_violations.push(violation);
            result = input;
        }
    }
    report.stitch_wall = stitch_timer.stop();

    let name = engine.name();
    // Mirror the engine's genuine node-limit bailouts into the fault
    // summary, so one record covers both injected and organic faults.
    if stats.bailouts > 0 {
        report.fault.counts_mut(name).bailouts += stats.bailouts;
    }
    report.engines = vec![(name.to_string(), stats)];
    report.engine_latency = vec![(name.to_string(), latency)];
    report.total_wall = total_timer.stop();

    // Never-worse guard at the network level.
    let aig = if result.num_ands() <= aig.num_ands() {
        result
    } else {
        aig.cleanup()
    };
    Optimized { aig, stats: report }
}

/// Runs every job through the engine; outcome `i` belongs to job `i`
/// whichever thread processed it.
fn optimize_windows(
    engine: &dyn Engine,
    jobs: &[(usize, Aig)],
    ctx: &EngineCtx<'_>,
) -> Vec<WindowOutcome> {
    let threads = ctx.num_threads().max(1).min(jobs.len().max(1));
    if threads <= 1 {
        return jobs
            .iter()
            .map(|(part_idx, sub)| optimize_window_isolated(engine, sub, *part_idx, ctx))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<WindowOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some((part_idx, sub)) = jobs.get(i) else {
                    break;
                };
                let outcome = optimize_window_isolated(engine, sub, *part_idx, ctx);
                // Workers never unwind (optimize_window_isolated catches
                // and degrades), so the lock cannot be poisoned by a
                // sibling; into_inner keeps the write sound even if that
                // invariant ever breaks.
                *slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            match slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
            {
                Some(outcome) => outcome,
                // The cursor hands out each index exactly once and every
                // worker runs its claimed window to an outcome (faults
                // degrade, they don't unwind).
                None => unreachable!("worker left a window unprocessed"),
            }
        })
        .collect()
}

/// [`optimize_window`] behind a last-resort panic barrier: if anything
/// below unwinds past the engine's own isolation (stitch preparation,
/// bookkeeping, a non-engine bug), the window degrades to its original
/// sub-network and the fault is attributed to `"pipeline"` — one window
/// can never take down the run.
fn optimize_window_isolated(
    engine: &dyn Engine,
    sub: &Aig,
    part_idx: usize,
    ctx: &EngineCtx<'_>,
) -> WindowOutcome {
    // Attribution boundary: set the thread's accumulators aside so the
    // window's exit drains measure exactly one window, then hand the
    // residue back afterwards. Simply discarding it would be wrong at one
    // thread, where windows run inline on the caller's thread and the
    // residue is the *caller's* pending tally — losing it would make the
    // run's counters depend on the thread count.
    let outer_bdd = drain_bdd_tally();
    let outer_sat = drain_sat_tally();
    let outer_sim = drain_sim_tally();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        optimize_window(engine, sub, part_idx, ctx)
    }))
    .unwrap_or_else(|_| {
        // The interrupted window's partial tallies are discarded below,
        // so degraded work is never attributed.
        let mut fault = FaultSummary::default();
        fault.counts_mut("pipeline").panics += 1;
        fault.degraded_windows += 1;
        WindowOutcome::unchanged(fault)
    });
    // Normal exits leave the accumulators zeroed (the outcome drains
    // them); an unwound window leaves partial junk — drop it either way
    // before restoring the caller's residue.
    let _ = drain_bdd_tally();
    let _ = drain_sat_tally();
    let _ = drain_sim_tally();
    note_bdd_tally(&outer_bdd);
    note_sat_tally(&outer_sat);
    note_sim_tally(&outer_sim);
    outcome
}

/// Runs the engine on one window copy. The engine runs serially inside
/// its worker — parallelism comes from window fan-out. At
/// [`CheckLevel::Paranoid`](sbm_check::CheckLevel::Paranoid) the
/// invocation is bracketed by [`run_checked`], attributing any violation
/// to this window.
///
/// The invocation is isolated: a panic is caught, a failed attempt is
/// retried once at reduced effort ([`Engine::reduced_effort`]), and a
/// second failure degrades the window to its original sub-network. An
/// expired deadline degrades it the same way.
fn optimize_window(
    engine: &dyn Engine,
    sub: &Aig,
    part_idx: usize,
    ctx: &EngineCtx<'_>,
) -> WindowOutcome {
    // The caller ([`optimize_window_isolated`]) has already zeroed the
    // thread's BDD/SAT/sim accumulators, so the exit drains below measure
    // exactly one window.
    let window_ctx = ctx.with_threads(1);
    let budget = ctx.budget();
    let name = engine.name();
    let mut out = WindowOutcome::unchanged(FaultSummary::default());
    let mut completed = None;
    if budget.check().is_err() {
        out.fault.counts_mut(name).deadline_hits += 1;
    } else {
        out.stats.windows = 1;
        // Attempt 0 runs the engine as configured; a failure is retried
        // once (attempt 1) on the engine's reduced-effort ladder rung, or
        // on the engine itself if it has none.
        for attempt in 0..2u8 {
            let reduced;
            let invoked: &dyn Engine = if attempt == 0 {
                engine
            } else {
                out.fault.counts_mut(name).retries += 1;
                match engine.reduced_effort() {
                    Some(r) => {
                        reduced = r;
                        reduced.as_ref()
                    }
                    None => engine,
                }
            };
            match run_isolated(invoked, name, sub, &window_ctx, part_idx, attempt, &mut out) {
                Invocation::Completed(result) => {
                    if attempt == 1 {
                        out.fault.counts_mut(name).retry_successes += 1;
                    }
                    completed = Some(result);
                    break;
                }
                Invocation::Failed => {}
                Invocation::DeadlineHit => break,
            }
        }
    }
    match completed {
        // Guarded acceptance: only a strictly smaller window that passes
        // the equivalence gate is a rewrite.
        Some(result) if result.num_ands() < sub.num_ands() => {
            if equivalent_within_budgeted_sim(sub, &result, GATE_CONFLICT_BUDGET, budget, ctx.sim())
            {
                out.rewrite = Some(result);
            } else {
                out.gate_rejected = true;
            }
        }
        Some(_) => {}
        // Both attempts failed, or the deadline hit: degrade the window.
        None => out.fault.degraded_windows += 1,
    }
    out.bdd = drain_bdd_tally();
    out.sat = drain_sat_tally();
    out.sim = drain_sim_tally();
    out
}

/// One engine invocation inside a panic barrier, with deterministic fault
/// injection when `ctx` carries a [`FaultPlan`](sbm_check::FaultPlan).
/// Records stats, latency, violations and faults into `out`. Never
/// unwinds.
fn run_isolated(
    engine: &dyn Engine,
    name: &str,
    sub: &Aig,
    ctx: &EngineCtx<'_>,
    part_idx: usize,
    attempt: u8,
    out: &mut WindowOutcome,
) -> Invocation {
    // Roll the fault plan first: the roll is a pure function of (seed,
    // window, engine, attempt), so the ledger is identical for every
    // thread count.
    let mut inject = None;
    if let Some(plan) = ctx.fault_plan() {
        if let Some(kind) = plan.roll(part_idx, name, attempt) {
            out.fault.injected.push(InjectedFault {
                engine: name.to_string(),
                window: part_idx,
                attempt,
                kind,
            });
            match kind {
                FaultKind::Bailout => {
                    out.fault.counts_mut(name).injected_bailouts += 1;
                    return Invocation::Failed;
                }
                FaultKind::Delay => {
                    out.fault.counts_mut(name).delays += 1;
                    std::thread::sleep(plan.delay);
                }
                FaultKind::Panic => inject = Some(kind),
            }
        }
    }
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if inject.is_some() {
            // Injected *inside* the barrier so the test exercises the
            // exact unwind path a genuine engine bug would take.
            inject_panic();
        }
        run_checked(engine, sub, ctx, Some(part_idx))
    }));
    match caught {
        Ok((result, mut found)) => {
            out.violations.append(&mut found);
            out.latency.record(result.stats.busy);
            out.stats.merge(&result.stats);
            // A tripped budget means the result is partial: count the hit
            // and degrade rather than stitch half-optimized work.
            if ctx.budget().check().is_err() {
                out.fault.counts_mut(name).deadline_hits += 1;
                return Invocation::DeadlineHit;
            }
            Invocation::Completed(result.aig)
        }
        Err(_payload) => {
            // Injected and genuine panics are counted alike; the ledger
            // distinguishes them (injected ones are recorded).
            out.fault.counts_mut(name).panics += 1;
            Invocation::Failed
        }
    }
}

/// Outcome of one isolated engine invocation.
enum Invocation {
    /// The engine ran to completion (its result may still be rejected by
    /// the never-worse or equivalence gates).
    Completed(Aig),
    /// The invocation panicked or was forced to bail out — retryable.
    Failed,
    /// The shared budget expired or was cancelled — the window degrades.
    DeadlineHit,
}

/// Splices an optimized window copy back into `work`: the rewrite is
/// emitted over the window's (resolved) leaf literals and each root is
/// redirected to its new implementation. Returns the nodes saved, or
/// `None` when the splice is abandoned — emission created at least as many
/// nodes as the window held, or a root replacement would form a cycle
/// (abandoned garbage dies at the final cleanup).
fn stitch_window(work: &mut Aig, part: &Partition, rewrite: &Aig, saving: usize) -> Option<usize> {
    let leaf_lits: Vec<Lit> = part
        .leaves
        .iter()
        .map(|&n| work.resolve(Lit::new(n, false)))
        .collect();
    let nodes_before = work.num_nodes();
    let new_roots = emit_window(work, rewrite, &leaf_lits);
    let created = work.num_nodes() - nodes_before;
    if created >= saving {
        return None;
    }
    for (&root, &new_lit) in part.roots.iter().zip(&new_roots) {
        if work.resolve(Lit::new(root, false)) == work.resolve(new_lit) {
            continue;
        }
        work.replace(root, new_lit).ok()?;
    }
    Some(saving - created)
}

/// Emits `rewrite` into `work`, mapping rewrite input `i` to
/// `leaf_lits[i]`; returns the literals implementing the rewrite's
/// outputs. Structural hashing reuses existing nodes where possible.
fn emit_window(work: &mut Aig, rewrite: &Aig, leaf_lits: &[Lit]) -> Vec<Lit> {
    let mut map: HashMap<NodeId, Lit> = HashMap::new();
    map.insert(NodeId::CONST, Lit::FALSE);
    for (i, &input) in rewrite.inputs().iter().enumerate() {
        map.insert(input, leaf_lits[i]);
    }
    for id in rewrite.topo_order() {
        let (a, b) = rewrite.fanins(id);
        let fa = map[&a.node()].complement_if(a.is_complemented());
        let fb = map[&b.node()].complement_if(b.is_complemented());
        let lit = work.and(fa, fb);
        map.insert(id, lit);
    }
    rewrite
        .outputs()
        .iter()
        .map(|l| map[&l.node()].complement_if(l.is_complemented()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Bdiff, Mspf, Refactor, Resub, Rewrite};
    use crate::verify::equivalent;
    use sbm_budget::Budget;
    use sbm_check::CheckLevel;
    use sbm_epfl::{generate, Scale};
    use sbm_sim::SigService;

    /// Reduced EPFL control designs large enough that the pass's window
    /// limits split each into many windows.
    const MULTI_WINDOW: [&str; 4] = ["arbiter", "priority", "router", "i2c"];

    fn design(name: &str) -> Aig {
        generate(name, Scale::Reduced).expect("known benchmark")
    }

    fn test_aig(seed: u64) -> Aig {
        // A deterministic pseudo-random mass of redundant logic.
        let mut aig = Aig::new();
        let inputs: Vec<Lit> = (0..8).map(|_| aig.add_input()).collect();
        let mut state = seed | 1;
        let mut lits = inputs.clone();
        for _ in 0..120 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = lits[(state >> 33) as usize % lits.len()];
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = lits[(state >> 33) as usize % lits.len()];
            let f = match state % 3 {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            lits.push(f);
        }
        for l in lits.iter().rev().take(4) {
            aig.add_output(*l);
        }
        aig
    }

    /// One [`pass`] per engine, in order; returns the final network and
    /// each pass's report.
    fn chain(
        aig: &Aig,
        engines: &[&dyn Engine],
        ctx: &EngineCtx<'_>,
    ) -> (Aig, Vec<PipelineReport>) {
        let mut cur = aig.clone();
        let mut reports = Vec::new();
        for engine in engines {
            let run = pass(&cur, *engine, ctx);
            cur = run.aig;
            reports.push(run.stats);
        }
        (cur, reports)
    }

    fn merged(reports: &[PipelineReport]) -> PipelineReport {
        let mut total = PipelineReport::default();
        for r in reports {
            total.merge(r);
        }
        total
    }

    /// Rewrite → refactor → resub at `threads` workers, reports merged.
    fn standard_chain(aig: &Aig, threads: usize) -> Optimized<PipelineReport> {
        let budget = Budget::unlimited();
        let ctx = EngineCtx::new(&budget).with_threads(threads);
        let (aig, reports) = chain(
            aig,
            &[&Rewrite::default(), &Refactor::default(), &Resub::default()],
            &ctx,
        );
        Optimized {
            aig,
            stats: merged(&reports),
        }
    }

    #[test]
    fn serial_run_preserves_function_and_never_grows() {
        let aig = test_aig(42);
        let run = standard_chain(&aig, 1);
        assert!(run.aig.num_ands() <= aig.num_ands());
        assert!(equivalent(&aig, &run.aig), "pipeline broke equivalence");
        assert!(run.stats.is_consistent(), "{:?}", run.stats);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        for name in MULTI_WINDOW {
            let aig = design(name);
            let serial = standard_chain(&aig, 1);
            assert!(serial.stats.windows_total >= 8, "{name}: too few windows");
            for threads in [2, 4] {
                let parallel = standard_chain(&aig, threads);
                assert_eq!(
                    sbm_aig::aiger::write(&serial.aig),
                    sbm_aig::aiger::write(&parallel.aig),
                    "{name}: thread count changed the result ({threads} threads)"
                );
                assert_eq!(
                    serial.stats.windows_improved,
                    parallel.stats.windows_improved
                );
                assert!(parallel.stats.is_consistent(), "{:?}", parallel.stats);
            }
        }
    }

    #[test]
    fn report_counters_sum_across_workers() {
        let aig = design("router");
        let run = standard_chain(&aig, 4);
        let report = &run.stats;
        assert!(report.is_consistent(), "{report:?}");
        assert!(report.windows_total >= 8, "too few windows");
        assert_eq!(report.engines.len(), 3);
        // Every non-skipped window went through its engine exactly once:
        // merged tried counts must match what a serial rerun accumulates.
        let rerun = standard_chain(&aig, 1);
        for ((name_p, s_p), (name_s, s_s)) in report.engines.iter().zip(&rerun.stats.engines) {
            assert_eq!(name_p, name_s);
            assert_eq!(s_p.tried, s_s.tried, "{name_p} tried diverged");
            assert_eq!(s_p.accepted, s_s.accepted, "{name_p} accepted diverged");
            assert_eq!(s_p.gain, s_s.gain, "{name_p} gain diverged");
        }
    }

    #[test]
    fn tallies_and_counters_are_deterministic_across_thread_counts() {
        let aig = design("priority");
        let make = |threads| {
            // A fresh service per run: the committed pattern set (and so
            // every filter decision) depends only on this run.
            let sim = SigService::default();
            let budget = Budget::unlimited();
            let ctx = EngineCtx::new(&budget)
                .with_threads(threads)
                .with_sim(Some(&sim));
            let (_, reports) = chain(
                &aig,
                &[&Rewrite::default(), &Mspf::default(), &Bdiff::default()],
                &ctx,
            );
            merged(&reports)
        };
        let serial = make(1);
        assert!(serial.windows_total >= 8, "too few windows");
        assert!(
            !serial.bdd.is_zero(),
            "BDD engines must harvest recycled managers: {:?}",
            serial.bdd
        );
        assert!(
            !serial.sat.is_zero(),
            "the window equivalence gate must run solves: {:?}",
            serial.sat
        );
        assert!(
            serial.sim.filter_hits + serial.sim.filter_misses > 0,
            "the configured service must screen candidates: {:?}",
            serial.sim
        );
        for threads in [2, 4] {
            let parallel = make(threads);
            // Everything deterministic must match exactly; only the
            // timing fields (walls, busy, latency histograms) may differ.
            assert_eq!(serial.bdd, parallel.bdd, "{threads} threads");
            assert_eq!(serial.sat, parallel.sat, "{threads} threads");
            assert_eq!(serial.sim, parallel.sim, "{threads} threads");
            assert_eq!(serial.windows_total, parallel.windows_total);
            assert_eq!(serial.windows_improved, parallel.windows_improved);
            assert_eq!(serial.nodes_saved, parallel.nodes_saved);
            for ((name_s, s), (name_p, p)) in serial.engines.iter().zip(&parallel.engines) {
                assert_eq!(name_s, name_p);
                assert_eq!(s.tried, p.tried, "{name_s} tried");
                assert_eq!(s.accepted, p.accepted, "{name_s} accepted");
                assert_eq!(s.gain, p.gain, "{name_s} gain");
                assert_eq!(s.bailouts, p.bailouts, "{name_s} bailouts");
            }
        }
    }

    #[test]
    fn latency_histograms_record_every_completed_invocation() {
        let aig = test_aig(31);
        let budget = Budget::unlimited();
        let ctx = EngineCtx::new(&budget).with_threads(2);
        let (_, reports) = chain(
            &aig,
            &[&Rewrite::default(), &Refactor::default(), &Resub::default()],
            &ctx,
        );
        for report in &reports {
            let [(name, _)] = report.engines.as_slice() else {
                panic!("one engine per pass: {:?}", report.engines);
            };
            let [(hist_name, hist)] = report.engine_latency.as_slice() else {
                panic!("one histogram per pass: {:?}", report.engine_latency);
            };
            assert_eq!(name, hist_name);
            // One sample per completed invocation: every non-skipped
            // window ran the engine exactly once on a healthy run.
            let processed = (report.windows_total - report.windows_skipped) as u64;
            assert_eq!(hist.count(), processed, "{name} histogram");
        }
    }

    #[test]
    fn run_report_round_trips_through_json() {
        let aig = test_aig(9);
        let run = standard_chain(&aig, 2);
        let mut report = run.stats.run_report();
        report.tool = "pipeline-test".to_string();
        report.scale = "unit".to_string();
        report.threads = 2;
        report.benchmarks.push("test_aig_9".to_string());
        let json = report.to_json();
        let back = RunReport::from_json(&json).expect("round trip");
        assert_eq!(report, back);
        // The projection carries the deterministic counters verbatim.
        assert_eq!(back.windows.total, run.stats.windows_total as u64);
        assert_eq!(back.engines.len(), run.stats.engines.len());
    }

    #[test]
    fn paranoid_check_matches_off_and_reports_clean() {
        let aig = test_aig(23);
        let plain = standard_chain(&aig, 2);
        let budget = Budget::unlimited();
        let ctx = EngineCtx::new(&budget)
            .with_threads(2)
            .with_check_level(CheckLevel::Paranoid);
        let (checked, reports) = chain(
            &aig,
            &[&Rewrite::default(), &Refactor::default(), &Resub::default()],
            &ctx,
        );
        let violations = merged(&reports).check_violations;
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(plain.aig.num_ands(), checked.num_ands());
        assert!(equivalent(&plain.aig, &checked));
    }

    #[test]
    fn boundaries_check_rejects_corrupt_input() {
        let mut aig = test_aig(3);
        // A self-referential redirection: resolve()/cleanup() would loop.
        let victim = aig.outputs()[0].node();
        aig.corrupt_force_replace(victim, Lit::new(victim, true));
        let budget = Budget::unlimited();
        let ctx = EngineCtx::new(&budget).with_check_level(CheckLevel::Boundaries);
        let run = pass(&aig, &Rewrite::default(), &ctx);
        assert_eq!(run.stats.check_violations.len(), 1);
        let v = &run.stats.check_violations[0];
        assert_eq!(v.engine, "pipeline");
        assert_eq!(v.stage, "pre");
        assert_eq!(v.error.code, sbm_check::CheckCode::AigCyclicRedirect);
        // The corrupt input is passed through untouched.
        assert_eq!(run.aig.num_nodes(), aig.num_nodes());
    }

    #[test]
    fn report_displays_every_phase() {
        let aig = test_aig(11);
        let run = standard_chain(&aig, 2);
        let text = format!("{}", run.stats);
        for needle in ["pipeline:", "rewrite", "refactor", "resub", "phases:"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn zero_fault_run_reports_zero_faults() {
        let aig = design("router");
        for threads in [1, 4] {
            let run = standard_chain(&aig, threads);
            assert!(run.stats.windows_total >= 8, "too few windows");
            assert!(run.stats.fault.is_zero(), "{:?}", run.stats.fault);
        }
    }

    /// An engine whose first invocation per window unwinds (silently, via
    /// `resume_unwind`) and whose retry succeeds as the identity — the
    /// deterministic worst case for the retry ladder.
    struct FirstAttemptPanics {
        calls: AtomicUsize,
    }

    impl Engine for FirstAttemptPanics {
        fn name(&self) -> &str {
            "flaky"
        }

        fn optimize(&self, aig: &Aig, _ctx: &EngineCtx<'_>) -> crate::engine::EngineResult {
            if self.calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                std::panic::resume_unwind(Box::new("injected test panic"));
            }
            crate::engine::EngineResult {
                aig: aig.clone(),
                stats: EngineStats::default(),
            }
        }
    }

    /// An engine that always unwinds, on every attempt.
    struct AlwaysPanics;

    impl Engine for AlwaysPanics {
        fn name(&self) -> &str {
            "doomed"
        }

        fn optimize(&self, _aig: &Aig, _ctx: &EngineCtx<'_>) -> crate::engine::EngineResult {
            std::panic::resume_unwind(Box::new("injected test panic"));
        }
    }

    #[test]
    fn genuine_panics_are_isolated_and_retried() {
        let aig = test_aig(7);
        let budget = Budget::unlimited();
        let engine = FirstAttemptPanics {
            calls: AtomicUsize::new(0),
        };
        let run = pass(&aig, &engine, &EngineCtx::new(&budget));
        let counts = run.stats.fault.counts("flaky");
        let processed = run.stats.windows_total - run.stats.windows_skipped;
        assert!(processed > 0, "test network produced no windows");
        // Every window: attempt 0 panics, the retry succeeds.
        assert_eq!(counts.panics, processed, "{:?}", run.stats.fault);
        assert_eq!(counts.retries, processed);
        assert_eq!(counts.retry_successes, processed);
        assert_eq!(run.stats.fault.degraded_windows, 0);
        assert!(run.stats.is_consistent(), "{:?}", run.stats);
        assert!(equivalent(&aig, &run.aig), "fault isolation broke function");
    }

    #[test]
    fn hopeless_engine_degrades_every_window_without_aborting() {
        let aig = design("arbiter");
        let budget = Budget::unlimited();
        for threads in [1, 3] {
            let ctx = EngineCtx::new(&budget).with_threads(threads);
            let run = pass(&aig, &AlwaysPanics, &ctx);
            let counts = run.stats.fault.counts("doomed");
            let processed = run.stats.windows_total - run.stats.windows_skipped;
            assert!(run.stats.windows_total >= 8, "too few windows");
            assert!(processed > 0);
            // Both attempts panic in every window; all degrade, none stitch.
            assert_eq!(counts.panics, 2 * processed);
            assert_eq!(counts.retries, processed);
            assert_eq!(counts.retry_successes, 0);
            assert_eq!(run.stats.fault.degraded_windows, processed);
            assert_eq!(run.stats.windows_improved, 0);
            assert!(run.stats.is_consistent(), "{:?}", run.stats);
            assert_eq!(run.aig.num_ands(), aig.cleanup().num_ands());
            assert!(equivalent(&aig, &run.aig));
        }
    }

    #[test]
    fn expired_deadline_degrades_gracefully() {
        let aig = test_aig(21);
        let budget = Budget::with_deadline(Duration::ZERO);
        let ctx = EngineCtx::new(&budget).with_threads(2);
        let run = pass(&aig, &Rewrite::default(), &ctx);
        let processed = run.stats.windows_total - run.stats.windows_skipped;
        assert!(processed > 0);
        assert_eq!(run.stats.fault.total(|c| c.deadline_hits), processed);
        assert_eq!(run.stats.fault.degraded_windows, processed);
        assert_eq!(run.stats.windows_improved, 0);
        assert!(run.stats.is_consistent(), "{:?}", run.stats);
        assert!(equivalent(&aig, &run.aig));
    }

    #[test]
    fn external_cancellation_stops_the_run() {
        let aig = test_aig(33);
        let budget = Budget::cancellable();
        budget.cancel();
        let run = pass(&aig, &Rewrite::default(), &EngineCtx::new(&budget));
        assert_eq!(run.stats.windows_improved, 0);
        assert!(run.stats.fault.total(|c| c.deadline_hits) > 0);
        assert!(equivalent(&aig, &run.aig));
    }
}

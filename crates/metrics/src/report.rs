//! The serializable run-level report schema.
//!
//! A [`RunReport`] is the durable form of one benchmark-tool run: window
//! counters, per-engine statistics with latency histograms, phase
//! wall-clocks, the BDD/SAT counters harvested from recycled managers
//! and dropped solvers, fault/resume bookkeeping and free-form extras.
//! `BENCH_*.json` files written by `table1`/`table2`/`table3` (and by
//! `ci.sh`) are exactly [`RunReport::to_json`] output.
//!
//! # Stability
//!
//! The schema is versioned by [`SCHEMA_VERSION`]. Decoding is *strict
//! both ways*: a missing field, an unknown field, a type mismatch or a
//! version mismatch is a [`ReportError`], never a silently defaulted
//! value — so CI fails loudly on schema drift instead of producing
//! `BENCH_*.json` files that no longer mean what they used to. Widening
//! the schema requires bumping [`SCHEMA_VERSION`].

use std::fmt;

use crate::json::{parse, write_pretty, JsonError, JsonValue};
use crate::{CounterSet, Histogram, HISTOGRAM_BUCKETS};

/// Version stamped into (and required from) every serialized report.
/// v2 added the `sim_filter` block (simulation-signature candidate
/// filtering counters); v3 added the `server` block (job-server slice /
/// park / resume / recovery bookkeeping); v4 added the server's scrub,
/// I/O-fault and retry counters; v5 shrank the `resume` block to
/// `steps_skipped` (script-step snapshots are the only checkpoint).
pub const SCHEMA_VERSION: u64 = 5;

/// Window-outcome counters of a run (each processed window lands in
/// exactly one of the outcome buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowReport {
    /// Windows produced by partitioning.
    pub total: u64,
    /// Windows skipped before any engine ran.
    pub skipped: u64,
    /// Windows the engine chain left unchanged.
    pub unchanged: u64,
    /// Windows rejected by the functional-equivalence gate.
    pub gate_rejected: u64,
    /// Windows whose splice was abandoned.
    pub stitch_rejected: u64,
    /// Windows stitched into the result.
    pub improved: u64,
    /// AND nodes saved by stitched windows.
    pub nodes_saved: u64,
    /// Invariant violations caught by checked modes.
    pub check_violations: u64,
}

/// Phase wall-clocks in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseMicros {
    /// Window-extraction phase.
    pub extract: u64,
    /// Parallel optimization phase (wall-clock, not summed busy time).
    pub optimize: u64,
    /// Serial stitching phase.
    pub stitch: u64,
    /// End-to-end run.
    pub total: u64,
}

/// One engine's merged statistics, including its invocation-latency
/// histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Engine name.
    pub name: String,
    /// Windows the partition executor ran the engine on (0 for a
    /// whole-network run).
    pub windows: u64,
    /// Candidate moves evaluated.
    pub tried: u64,
    /// Moves accepted (never more than `tried`).
    pub accepted: u64,
    /// AND-node reduction (positive = smaller network).
    pub gain: i64,
    /// BDD node-limit bailouts.
    pub bailouts: u64,
    /// Busy time summed over workers and windows, in microseconds. This
    /// can exceed the run's wall-clock under `--threads N` — see
    /// [`PhaseMicros`] for true wall-clock.
    pub busy_us: u64,
    /// Per-invocation latency, power-of-two microsecond buckets.
    pub latency_us: Histogram,
}

/// Aggregated BDD-manager counters, harvested when managers are recycled
/// (before `reset` zeroes them) and summed across all workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddCounters {
    /// Managers returned to a pool (or reset in place) with their
    /// counters harvested.
    pub managers_recycled: u64,
    /// Live nodes summed at each harvest point.
    pub nodes_allocated: u64,
    /// Largest single-manager node count observed at harvest.
    pub peak_nodes: u64,
    /// Unique-table hits.
    pub unique_hits: u64,
    /// Computed-table (ITE cache) hits.
    pub cache_hits: u64,
    /// ITE calls.
    pub ite_calls: u64,
}

/// Aggregated SAT-solver counters, recorded per `solve` call and summed
/// across all solvers and workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatCounters {
    /// `solve` calls.
    pub solves: u64,
    /// Calls returning SAT.
    pub sat: u64,
    /// Calls returning UNSAT.
    pub unsat: u64,
    /// Calls giving up on their conflict budget.
    pub unknown: u64,
    /// Calls interrupted by a deadline / cancellation.
    pub interrupted: u64,
    /// Conflicts.
    pub conflicts: u64,
    /// Decisions.
    pub decisions: u64,
    /// Unit propagations.
    pub propagations: u64,
}

/// Aggregated simulation-filter counters: what the shared signature
/// service screened before exact (BDD/SAT) reasoning ran, and how the
/// counterexample feedback loop refined it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimFilterCounters {
    /// Candidates rejected by a signature comparison (exact reasoning
    /// skipped).
    pub hits: u64,
    /// Candidates that passed the screen and went on to exact reasoning.
    pub misses: u64,
    /// Counterexample witnesses harvested from refuted SAT checks.
    pub cex_recorded: u64,
    /// Counterexample patterns committed into the shared pattern set.
    pub cex_committed: u64,
    /// Networks (re-)simulated against the service's pattern set.
    pub resims: u64,
}

/// Job-server lifecycle counters (all zero for one-shot tool runs).
///
/// `sbm-server` fills these per job: how many execution slices the job
/// consumed, how often it was preempted and parked as a checkpoint, how
/// often it resumed (in-process or after a server restart), and how
/// long it sat in the admission queue. Integers only, like every other
/// block — microseconds, not floating-point seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Execution slices the job ran (1 for a job that never parked).
    pub slices: u64,
    /// Times the job exceeded a slice and was parked as a checkpoint.
    pub parks: u64,
    /// Times the job resumed from its parked checkpoint.
    pub resumes: u64,
    /// Times the job was recovered by a crash-restart scan.
    pub recoveries: u64,
    /// Total time spent waiting in the admission queue, in microseconds.
    pub queue_us: u64,
    /// Store files examined by the startup scrubber (server-wide).
    pub scrub_scanned: u64,
    /// Store files the scrubber moved to quarantine (server-wide).
    pub scrub_quarantined: u64,
    /// Disk I/O faults injected by the server's chaos VFS, at the time
    /// the job finished (server-wide, monotone across a report stream).
    pub io_faults: u64,
    /// Store-level I/O retries consumed, at the time the job finished
    /// (server-wide, monotone across a report stream).
    pub retries: u64,
}

/// One engine's fault counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineFaultCounters {
    /// Engine name (`"pipeline"` for faults outside any engine).
    pub name: String,
    /// Panics caught.
    pub panics: u64,
    /// Deadline / cancellation hits.
    pub deadline_hits: u64,
    /// Genuine BDD node-limit bailouts.
    pub bailouts: u64,
    /// Injected bailouts.
    pub injected_bailouts: u64,
    /// Injected delays.
    pub delays: u64,
    /// Reduced-effort retries.
    pub retries: u64,
    /// Retries whose second attempt completed.
    pub retry_successes: u64,
}

/// Fault-tolerance record of the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Windows degraded to their original sub-network.
    pub degraded_windows: u64,
    /// Faults injected by a configured fault plan.
    pub injected: u64,
    /// Per-engine counters, in first-occurrence order.
    pub per_engine: Vec<EngineFaultCounters>,
}

/// Resume bookkeeping (present only for resumed runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeReport {
    /// Script steps skipped via state snapshots.
    pub steps_skipped: u64,
}

/// The serializable record of one benchmark-tool run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Producing tool (`"table1"`, `"table2"`, `"table3"`, …).
    pub tool: String,
    /// Benchmark scale the tool ran at (free-form, e.g. `"Reduced"`).
    pub scale: String,
    /// Worker threads of the run.
    pub threads: u64,
    /// Benchmarks / designs processed, in run order.
    pub benchmarks: Vec<String>,
    /// Window-outcome counters.
    pub windows: WindowReport,
    /// Phase wall-clocks.
    pub phases_us: PhaseMicros,
    /// Per-engine statistics, in chain order.
    pub engines: Vec<EngineReport>,
    /// Aggregated BDD counters.
    pub bdd: BddCounters,
    /// Aggregated SAT counters.
    pub sat: SatCounters,
    /// Aggregated simulation-filter counters.
    pub sim_filter: SimFilterCounters,
    /// Job-server lifecycle counters (zero outside `sbm-server`).
    pub server: ServerCounters,
    /// Fault-tolerance record.
    pub faults: FaultReport,
    /// Resume bookkeeping, for resumed runs.
    pub resume: Option<ResumeReport>,
    /// First checkpoint I/O failure, if any.
    pub checkpoint_error: Option<String>,
    /// Tool-specific extra counters.
    pub extra: CounterSet,
}

impl Default for RunReport {
    fn default() -> Self {
        RunReport {
            schema_version: SCHEMA_VERSION,
            tool: String::new(),
            scale: String::new(),
            threads: 1,
            benchmarks: Vec::new(),
            windows: WindowReport::default(),
            phases_us: PhaseMicros::default(),
            engines: Vec::new(),
            bdd: BddCounters::default(),
            sat: SatCounters::default(),
            sim_filter: SimFilterCounters::default(),
            server: ServerCounters::default(),
            faults: FaultReport::default(),
            resume: None,
            checkpoint_error: None,
            extra: CounterSet::default(),
        }
    }
}

/// Why a serialized report could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The document is not well-formed JSON.
    Json(JsonError),
    /// The document's schema version differs from [`SCHEMA_VERSION`].
    SchemaVersion {
        /// The version this build understands.
        expected: u64,
        /// The version found in the document.
        found: u64,
    },
    /// A required field is absent — the schema shrank.
    MissingField {
        /// Object the field was expected in.
        context: &'static str,
        /// The absent field.
        field: &'static str,
    },
    /// An unrecognized field is present — the schema grew without a
    /// version bump.
    UnknownField {
        /// Object the field was found in.
        context: &'static str,
        /// The unrecognized field.
        field: String,
    },
    /// A field holds a value of the wrong JSON type or range.
    WrongType {
        /// Object the field lives in.
        context: &'static str,
        /// The offending field.
        field: String,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "{e}"),
            ReportError::SchemaVersion { expected, found } => write!(
                f,
                "schema version mismatch: this build reads v{expected}, the report is v{found}"
            ),
            ReportError::MissingField { context, field } => {
                write!(f, "missing field '{field}' in {context}")
            }
            ReportError::UnknownField { context, field } => {
                write!(f, "unknown field '{field}' in {context} (schema drift?)")
            }
            ReportError::WrongType { context, field } => {
                write!(f, "field '{field}' in {context} has the wrong type")
            }
        }
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError::Json(e)
    }
}

impl RunReport {
    /// Serializes the report as pretty-printed JSON (stable key order,
    /// trailing newline) — the `BENCH_*.json` on-disk form.
    pub fn to_json(&self) -> String {
        write_pretty(&self.to_value())
    }

    /// Accumulates `prior`'s counters into `self`, counter block by
    /// counter block. This is how a preempted job's slices compose into
    /// one honest report: each slice produces a partial report, and the
    /// finishing slice absorbs the parked partials so the final report
    /// covers the whole job, not just its tail. Identity fields
    /// (`tool`, `scale`, `threads`, `benchmarks`) keep `self`'s values;
    /// every numeric counter sums (`peak_nodes` takes the max, being a
    /// high-water mark); engines and fault entries merge by name.
    pub fn absorb(&mut self, prior: &RunReport) {
        let w = &mut self.windows;
        let pw = &prior.windows;
        w.total += pw.total;
        w.skipped += pw.skipped;
        w.unchanged += pw.unchanged;
        w.gate_rejected += pw.gate_rejected;
        w.stitch_rejected += pw.stitch_rejected;
        w.improved += pw.improved;
        w.nodes_saved += pw.nodes_saved;
        w.check_violations += pw.check_violations;

        self.phases_us.extract += prior.phases_us.extract;
        self.phases_us.optimize += prior.phases_us.optimize;
        self.phases_us.stitch += prior.phases_us.stitch;
        self.phases_us.total += prior.phases_us.total;

        for pe in &prior.engines {
            let e = match self.engines.iter_mut().find(|e| e.name == pe.name) {
                Some(e) => e,
                None => {
                    self.engines.push(EngineReport {
                        name: pe.name.clone(),
                        ..EngineReport::default()
                    });
                    // Just pushed, so the vector is non-empty.
                    match self.engines.last_mut() {
                        Some(e) => e,
                        None => return,
                    }
                }
            };
            e.windows += pe.windows;
            e.tried += pe.tried;
            e.accepted += pe.accepted;
            e.gain += pe.gain;
            e.bailouts += pe.bailouts;
            e.busy_us += pe.busy_us;
            e.latency_us.merge(&pe.latency_us);
        }

        self.bdd.managers_recycled += prior.bdd.managers_recycled;
        self.bdd.nodes_allocated += prior.bdd.nodes_allocated;
        self.bdd.peak_nodes = self.bdd.peak_nodes.max(prior.bdd.peak_nodes);
        self.bdd.unique_hits += prior.bdd.unique_hits;
        self.bdd.cache_hits += prior.bdd.cache_hits;
        self.bdd.ite_calls += prior.bdd.ite_calls;

        self.sat.solves += prior.sat.solves;
        self.sat.sat += prior.sat.sat;
        self.sat.unsat += prior.sat.unsat;
        self.sat.unknown += prior.sat.unknown;
        self.sat.interrupted += prior.sat.interrupted;
        self.sat.conflicts += prior.sat.conflicts;
        self.sat.decisions += prior.sat.decisions;
        self.sat.propagations += prior.sat.propagations;

        self.sim_filter.hits += prior.sim_filter.hits;
        self.sim_filter.misses += prior.sim_filter.misses;
        self.sim_filter.cex_recorded += prior.sim_filter.cex_recorded;
        self.sim_filter.cex_committed += prior.sim_filter.cex_committed;
        self.sim_filter.resims += prior.sim_filter.resims;

        self.server.slices += prior.server.slices;
        self.server.parks += prior.server.parks;
        self.server.resumes += prior.server.resumes;
        self.server.recoveries += prior.server.recoveries;
        self.server.queue_us += prior.server.queue_us;
        // Server-wide gauges, not per-job counters: absorbing slices of
        // the same server keeps the high-water mark rather than
        // double-counting the same underlying events.
        self.server.scrub_scanned = self.server.scrub_scanned.max(prior.server.scrub_scanned);
        self.server.scrub_quarantined = self
            .server
            .scrub_quarantined
            .max(prior.server.scrub_quarantined);
        self.server.io_faults = self.server.io_faults.max(prior.server.io_faults);
        self.server.retries = self.server.retries.max(prior.server.retries);

        self.faults.degraded_windows += prior.faults.degraded_windows;
        self.faults.injected += prior.faults.injected;
        for pf in &prior.faults.per_engine {
            let f = match self
                .faults
                .per_engine
                .iter_mut()
                .find(|f| f.name == pf.name)
            {
                Some(f) => f,
                None => {
                    self.faults.per_engine.push(EngineFaultCounters {
                        name: pf.name.clone(),
                        ..EngineFaultCounters::default()
                    });
                    match self.faults.per_engine.last_mut() {
                        Some(f) => f,
                        None => return,
                    }
                }
            };
            f.panics += pf.panics;
            f.deadline_hits += pf.deadline_hits;
            f.bailouts += pf.bailouts;
            f.injected_bailouts += pf.injected_bailouts;
            f.delays += pf.delays;
            f.retries += pf.retries;
            f.retry_successes += pf.retry_successes;
        }

        if let Some(pr) = &prior.resume {
            let r = self.resume.get_or_insert_with(ResumeReport::default);
            r.steps_skipped += pr.steps_skipped;
        }

        if self.checkpoint_error.is_none() {
            self.checkpoint_error.clone_from(&prior.checkpoint_error);
        }
        self.extra.merge(&prior.extra);
    }

    /// Decodes a report serialized by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// [`ReportError`] on malformed JSON, a schema-version mismatch, or
    /// any missing / unknown / mistyped field (see the module docs on
    /// strictness).
    pub fn from_json(text: &str) -> Result<RunReport, ReportError> {
        let value = parse(text)?;
        Self::from_value(value)
    }

    fn to_value(&self) -> JsonValue {
        let windows = &self.windows;
        let phases = &self.phases_us;
        let bdd = &self.bdd;
        let sat = &self.sat;
        JsonValue::Obj(vec![
            ("schema_version".into(), uint(self.schema_version)),
            ("tool".into(), JsonValue::Str(self.tool.clone())),
            ("scale".into(), JsonValue::Str(self.scale.clone())),
            ("threads".into(), uint(self.threads)),
            (
                "benchmarks".into(),
                JsonValue::Arr(
                    self.benchmarks
                        .iter()
                        .map(|b| JsonValue::Str(b.clone()))
                        .collect(),
                ),
            ),
            (
                "windows".into(),
                JsonValue::Obj(vec![
                    ("total".into(), uint(windows.total)),
                    ("skipped".into(), uint(windows.skipped)),
                    ("unchanged".into(), uint(windows.unchanged)),
                    ("gate_rejected".into(), uint(windows.gate_rejected)),
                    ("stitch_rejected".into(), uint(windows.stitch_rejected)),
                    ("improved".into(), uint(windows.improved)),
                    ("nodes_saved".into(), uint(windows.nodes_saved)),
                    ("check_violations".into(), uint(windows.check_violations)),
                ]),
            ),
            (
                "phases_us".into(),
                JsonValue::Obj(vec![
                    ("extract".into(), uint(phases.extract)),
                    ("optimize".into(), uint(phases.optimize)),
                    ("stitch".into(), uint(phases.stitch)),
                    ("total".into(), uint(phases.total)),
                ]),
            ),
            (
                "engines".into(),
                JsonValue::Arr(self.engines.iter().map(engine_to_value).collect()),
            ),
            (
                "bdd".into(),
                JsonValue::Obj(vec![
                    ("managers_recycled".into(), uint(bdd.managers_recycled)),
                    ("nodes_allocated".into(), uint(bdd.nodes_allocated)),
                    ("peak_nodes".into(), uint(bdd.peak_nodes)),
                    ("unique_hits".into(), uint(bdd.unique_hits)),
                    ("cache_hits".into(), uint(bdd.cache_hits)),
                    ("ite_calls".into(), uint(bdd.ite_calls)),
                ]),
            ),
            (
                "sat".into(),
                JsonValue::Obj(vec![
                    ("solves".into(), uint(sat.solves)),
                    ("sat".into(), uint(sat.sat)),
                    ("unsat".into(), uint(sat.unsat)),
                    ("unknown".into(), uint(sat.unknown)),
                    ("interrupted".into(), uint(sat.interrupted)),
                    ("conflicts".into(), uint(sat.conflicts)),
                    ("decisions".into(), uint(sat.decisions)),
                    ("propagations".into(), uint(sat.propagations)),
                ]),
            ),
            (
                "sim_filter".into(),
                JsonValue::Obj(vec![
                    ("hits".into(), uint(self.sim_filter.hits)),
                    ("misses".into(), uint(self.sim_filter.misses)),
                    ("cex_recorded".into(), uint(self.sim_filter.cex_recorded)),
                    ("cex_committed".into(), uint(self.sim_filter.cex_committed)),
                    ("resims".into(), uint(self.sim_filter.resims)),
                ]),
            ),
            (
                "server".into(),
                JsonValue::Obj(vec![
                    ("slices".into(), uint(self.server.slices)),
                    ("parks".into(), uint(self.server.parks)),
                    ("resumes".into(), uint(self.server.resumes)),
                    ("recoveries".into(), uint(self.server.recoveries)),
                    ("queue_us".into(), uint(self.server.queue_us)),
                    ("scrub_scanned".into(), uint(self.server.scrub_scanned)),
                    (
                        "scrub_quarantined".into(),
                        uint(self.server.scrub_quarantined),
                    ),
                    ("io_faults".into(), uint(self.server.io_faults)),
                    ("retries".into(), uint(self.server.retries)),
                ]),
            ),
            (
                "faults".into(),
                JsonValue::Obj(vec![
                    (
                        "degraded_windows".into(),
                        uint(self.faults.degraded_windows),
                    ),
                    ("injected".into(), uint(self.faults.injected)),
                    (
                        "per_engine".into(),
                        JsonValue::Arr(
                            self.faults
                                .per_engine
                                .iter()
                                .map(fault_counters_to_value)
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "resume".into(),
                match &self.resume {
                    None => JsonValue::Null,
                    Some(r) => {
                        JsonValue::Obj(vec![("steps_skipped".into(), uint(r.steps_skipped))])
                    }
                },
            ),
            (
                "checkpoint_error".into(),
                match &self.checkpoint_error {
                    None => JsonValue::Null,
                    Some(e) => JsonValue::Str(e.clone()),
                },
            ),
            (
                "extra".into(),
                JsonValue::Obj(
                    self.extra
                        .iter()
                        .map(|(n, v)| (n.to_string(), uint(v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(value: JsonValue) -> Result<RunReport, ReportError> {
        let mut top = Fields::new(value, "report")?;
        let schema_version = top.u64("schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(ReportError::SchemaVersion {
                expected: SCHEMA_VERSION,
                found: schema_version,
            });
        }
        let tool = top.string("tool")?;
        let scale = top.string("scale")?;
        let threads = top.u64("threads")?;
        let benchmarks = match top.take("benchmarks")? {
            JsonValue::Arr(items) => items
                .into_iter()
                .map(|v| match v {
                    JsonValue::Str(s) => Ok(s),
                    _ => Err(wrong("report", "benchmarks")),
                })
                .collect::<Result<Vec<String>, ReportError>>()?,
            _ => return Err(wrong("report", "benchmarks")),
        };

        let mut w = Fields::new(top.take("windows")?, "windows")?;
        let windows = WindowReport {
            total: w.u64("total")?,
            skipped: w.u64("skipped")?,
            unchanged: w.u64("unchanged")?,
            gate_rejected: w.u64("gate_rejected")?,
            stitch_rejected: w.u64("stitch_rejected")?,
            improved: w.u64("improved")?,
            nodes_saved: w.u64("nodes_saved")?,
            check_violations: w.u64("check_violations")?,
        };
        w.finish()?;

        let mut p = Fields::new(top.take("phases_us")?, "phases_us")?;
        let phases_us = PhaseMicros {
            extract: p.u64("extract")?,
            optimize: p.u64("optimize")?,
            stitch: p.u64("stitch")?,
            total: p.u64("total")?,
        };
        p.finish()?;

        let engines = match top.take("engines")? {
            JsonValue::Arr(items) => items
                .into_iter()
                .map(engine_from_value)
                .collect::<Result<Vec<EngineReport>, ReportError>>()?,
            _ => return Err(wrong("report", "engines")),
        };

        let mut b = Fields::new(top.take("bdd")?, "bdd")?;
        let bdd = BddCounters {
            managers_recycled: b.u64("managers_recycled")?,
            nodes_allocated: b.u64("nodes_allocated")?,
            peak_nodes: b.u64("peak_nodes")?,
            unique_hits: b.u64("unique_hits")?,
            cache_hits: b.u64("cache_hits")?,
            ite_calls: b.u64("ite_calls")?,
        };
        b.finish()?;

        let mut s = Fields::new(top.take("sat")?, "sat")?;
        let sat = SatCounters {
            solves: s.u64("solves")?,
            sat: s.u64("sat")?,
            unsat: s.u64("unsat")?,
            unknown: s.u64("unknown")?,
            interrupted: s.u64("interrupted")?,
            conflicts: s.u64("conflicts")?,
            decisions: s.u64("decisions")?,
            propagations: s.u64("propagations")?,
        };
        s.finish()?;

        let mut sf = Fields::new(top.take("sim_filter")?, "sim_filter")?;
        let sim_filter = SimFilterCounters {
            hits: sf.u64("hits")?,
            misses: sf.u64("misses")?,
            cex_recorded: sf.u64("cex_recorded")?,
            cex_committed: sf.u64("cex_committed")?,
            resims: sf.u64("resims")?,
        };
        sf.finish()?;

        let mut sv = Fields::new(top.take("server")?, "server")?;
        let server = ServerCounters {
            slices: sv.u64("slices")?,
            parks: sv.u64("parks")?,
            resumes: sv.u64("resumes")?,
            recoveries: sv.u64("recoveries")?,
            queue_us: sv.u64("queue_us")?,
            scrub_scanned: sv.u64("scrub_scanned")?,
            scrub_quarantined: sv.u64("scrub_quarantined")?,
            io_faults: sv.u64("io_faults")?,
            retries: sv.u64("retries")?,
        };
        sv.finish()?;

        let mut fa = Fields::new(top.take("faults")?, "faults")?;
        let faults = FaultReport {
            degraded_windows: fa.u64("degraded_windows")?,
            injected: fa.u64("injected")?,
            per_engine: match fa.take("per_engine")? {
                JsonValue::Arr(items) => items
                    .into_iter()
                    .map(fault_counters_from_value)
                    .collect::<Result<Vec<EngineFaultCounters>, ReportError>>()?,
                _ => return Err(wrong("faults", "per_engine")),
            },
        };
        fa.finish()?;

        let resume = match top.take("resume")? {
            JsonValue::Null => None,
            value => {
                let mut r = Fields::new(value, "resume")?;
                let resume = ResumeReport {
                    steps_skipped: r.u64("steps_skipped")?,
                };
                r.finish()?;
                Some(resume)
            }
        };

        let checkpoint_error = match top.take("checkpoint_error")? {
            JsonValue::Null => None,
            JsonValue::Str(s) => Some(s),
            _ => return Err(wrong("report", "checkpoint_error")),
        };

        let mut extra = CounterSet::new();
        match top.take("extra")? {
            JsonValue::Obj(fields) => {
                for (name, value) in fields {
                    match value.as_u64() {
                        Some(v) => extra.add(&name, v),
                        None => {
                            return Err(ReportError::WrongType {
                                context: "extra",
                                field: name,
                            })
                        }
                    }
                }
            }
            _ => return Err(wrong("report", "extra")),
        }
        top.finish()?;

        Ok(RunReport {
            schema_version,
            tool,
            scale,
            threads,
            benchmarks,
            windows,
            phases_us,
            engines,
            bdd,
            sat,
            sim_filter,
            server,
            faults,
            resume,
            checkpoint_error,
            extra,
        })
    }
}

fn uint(v: u64) -> JsonValue {
    // Counters beyond i64::MAX are unreachable in practice; saturate
    // rather than panic if one ever appears.
    JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn wrong(context: &'static str, field: &str) -> ReportError {
    ReportError::WrongType {
        context,
        field: field.to_string(),
    }
}

fn engine_to_value(e: &EngineReport) -> JsonValue {
    JsonValue::Obj(vec![
        ("name".into(), JsonValue::Str(e.name.clone())),
        ("windows".into(), uint(e.windows)),
        ("tried".into(), uint(e.tried)),
        ("accepted".into(), uint(e.accepted)),
        ("gain".into(), JsonValue::Int(e.gain)),
        ("bailouts".into(), uint(e.bailouts)),
        ("busy_us".into(), uint(e.busy_us)),
        (
            "latency_us".into(),
            JsonValue::Arr(e.latency_us.counts().iter().map(|&c| uint(c)).collect()),
        ),
    ])
}

fn engine_from_value(value: JsonValue) -> Result<EngineReport, ReportError> {
    let mut f = Fields::new(value, "engine")?;
    let report = EngineReport {
        name: f.string("name")?,
        windows: f.u64("windows")?,
        tried: f.u64("tried")?,
        accepted: f.u64("accepted")?,
        gain: f.i64("gain")?,
        bailouts: f.u64("bailouts")?,
        busy_us: f.u64("busy_us")?,
        latency_us: match f.take("latency_us")? {
            JsonValue::Arr(items) if items.len() == HISTOGRAM_BUCKETS => {
                let mut counts = [0u64; HISTOGRAM_BUCKETS];
                for (slot, item) in counts.iter_mut().zip(items) {
                    *slot = item.as_u64().ok_or_else(|| wrong("engine", "latency_us"))?;
                }
                Histogram::from_counts(counts)
            }
            _ => return Err(wrong("engine", "latency_us")),
        },
    };
    f.finish()?;
    Ok(report)
}

fn fault_counters_to_value(c: &EngineFaultCounters) -> JsonValue {
    JsonValue::Obj(vec![
        ("name".into(), JsonValue::Str(c.name.clone())),
        ("panics".into(), uint(c.panics)),
        ("deadline_hits".into(), uint(c.deadline_hits)),
        ("bailouts".into(), uint(c.bailouts)),
        ("injected_bailouts".into(), uint(c.injected_bailouts)),
        ("delays".into(), uint(c.delays)),
        ("retries".into(), uint(c.retries)),
        ("retry_successes".into(), uint(c.retry_successes)),
    ])
}

fn fault_counters_from_value(value: JsonValue) -> Result<EngineFaultCounters, ReportError> {
    let mut f = Fields::new(value, "fault counters")?;
    let counters = EngineFaultCounters {
        name: f.string("name")?,
        panics: f.u64("panics")?,
        deadline_hits: f.u64("deadline_hits")?,
        bailouts: f.u64("bailouts")?,
        injected_bailouts: f.u64("injected_bailouts")?,
        delays: f.u64("delays")?,
        retries: f.u64("retries")?,
        retry_successes: f.u64("retry_successes")?,
    };
    f.finish()?;
    Ok(counters)
}

/// Strict object reader: every `take` marks a field consumed;
/// [`Fields::finish`] rejects anything left over.
struct Fields {
    context: &'static str,
    fields: Vec<(String, Option<JsonValue>)>,
}

impl Fields {
    fn new(value: JsonValue, context: &'static str) -> Result<Self, ReportError> {
        match value {
            JsonValue::Obj(fields) => Ok(Fields {
                context,
                fields: fields.into_iter().map(|(k, v)| (k, Some(v))).collect(),
            }),
            _ => Err(ReportError::WrongType {
                context,
                field: "<self>".to_string(),
            }),
        }
    }

    fn take(&mut self, name: &'static str) -> Result<JsonValue, ReportError> {
        for (key, slot) in &mut self.fields {
            if key == name {
                return slot.take().ok_or(ReportError::MissingField {
                    context: self.context,
                    field: name,
                });
            }
        }
        Err(ReportError::MissingField {
            context: self.context,
            field: name,
        })
    }

    fn u64(&mut self, name: &'static str) -> Result<u64, ReportError> {
        self.take(name)?.as_u64().ok_or(ReportError::WrongType {
            context: self.context,
            field: name.to_string(),
        })
    }

    fn i64(&mut self, name: &'static str) -> Result<i64, ReportError> {
        self.take(name)?.as_i64().ok_or(ReportError::WrongType {
            context: self.context,
            field: name.to_string(),
        })
    }

    fn string(&mut self, name: &'static str) -> Result<String, ReportError> {
        match self.take(name)? {
            JsonValue::Str(s) => Ok(s),
            _ => Err(ReportError::WrongType {
                context: self.context,
                field: name.to_string(),
            }),
        }
    }

    fn finish(self) -> Result<(), ReportError> {
        for (key, slot) in self.fields {
            if slot.is_some() {
                return Err(ReportError::UnknownField {
                    context: self.context,
                    field: key,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut latency = Histogram::new();
        latency.record_micros(3);
        latency.record_micros(900);
        let mut extra = CounterSet::new();
        extra.add("script_us", 123_456);
        RunReport {
            schema_version: SCHEMA_VERSION,
            tool: "table1".to_string(),
            scale: "Reduced".to_string(),
            threads: 4,
            benchmarks: vec!["i2c".to_string(), "priority".to_string()],
            windows: WindowReport {
                total: 40,
                skipped: 5,
                unchanged: 10,
                gate_rejected: 1,
                stitch_rejected: 2,
                improved: 22,
                nodes_saved: 317,
                check_violations: 0,
            },
            phases_us: PhaseMicros {
                extract: 1_200,
                optimize: 480_000,
                stitch: 9_000,
                total: 495_000,
            },
            engines: vec![
                EngineReport {
                    name: "mspf".to_string(),
                    windows: 35,
                    tried: 900,
                    accepted: 120,
                    gain: 260,
                    bailouts: 3,
                    busy_us: 1_700_000,
                    latency_us: latency.clone(),
                },
                EngineReport {
                    name: "bdiff".to_string(),
                    gain: -1,
                    ..EngineReport::default()
                },
            ],
            bdd: BddCounters {
                managers_recycled: 70,
                nodes_allocated: 48_000,
                peak_nodes: 4_096,
                unique_hits: 90_000,
                cache_hits: 55_000,
                ite_calls: 130_000,
            },
            sat: SatCounters {
                solves: 40,
                sat: 2,
                unsat: 37,
                unknown: 1,
                interrupted: 0,
                conflicts: 5_000,
                decisions: 21_000,
                propagations: 410_000,
            },
            sim_filter: SimFilterCounters {
                hits: 640,
                misses: 260,
                cex_recorded: 3,
                cex_committed: 2,
                resims: 44,
            },
            server: ServerCounters {
                slices: 3,
                parks: 2,
                resumes: 2,
                recoveries: 1,
                queue_us: 15_000,
                scrub_scanned: 12,
                scrub_quarantined: 1,
                io_faults: 9,
                retries: 5,
            },
            faults: FaultReport {
                degraded_windows: 1,
                injected: 2,
                per_engine: vec![EngineFaultCounters {
                    name: "mspf".to_string(),
                    panics: 1,
                    retries: 1,
                    retry_successes: 1,
                    ..EngineFaultCounters::default()
                }],
            },
            resume: Some(ResumeReport { steps_skipped: 12 }),
            checkpoint_error: Some("disk full".to_string()),
            extra,
        }
    }

    #[test]
    fn absorb_sums_counters_and_merges_by_name() {
        let prior = sample_report();
        let mut cur = RunReport {
            tool: "sbm-server".to_string(),
            benchmarks: vec!["job-1".to_string()],
            ..RunReport::default()
        };
        cur.sim_filter.hits = 10;
        cur.server.slices = 1;
        cur.engines.push(EngineReport {
            name: "mspf".to_string(),
            tried: 100,
            ..EngineReport::default()
        });
        cur.absorb(&prior);

        // Identity fields keep the absorbing report's values.
        assert_eq!(cur.tool, "sbm-server");
        assert_eq!(cur.benchmarks, vec!["job-1".to_string()]);
        // Counters sum; high-water marks take the max.
        assert_eq!(cur.sim_filter.hits, 650);
        assert_eq!(cur.server.slices, 4);
        assert_eq!(cur.server.recoveries, 1);
        assert_eq!(cur.bdd.peak_nodes, 4_096);
        assert_eq!(cur.windows.total, 40);
        // Engines merge by name: mspf sums, bdiff arrives fresh.
        let mspf = cur.engines.iter().find(|e| e.name == "mspf").expect("mspf");
        assert_eq!(mspf.tried, 1_000);
        assert_eq!(mspf.latency_us.count(), 2);
        assert!(cur.engines.iter().any(|e| e.name == "bdiff"));
        // Fault entries merge by name; resume blocks sum.
        assert_eq!(cur.faults.per_engine.len(), 1);
        assert_eq!(cur.resume.expect("resume").steps_skipped, 12);
        assert_eq!(cur.checkpoint_error.as_deref(), Some("disk full"));
        assert_eq!(cur.extra.get("script_us"), 123_456);

        // Absorbing twice doubles the summed counters (no hidden state).
        cur.absorb(&prior);
        assert_eq!(cur.server.slices, 7);
        assert_eq!(cur.sim_filter.hits, 1_290);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = report.to_json();
        let back = RunReport::from_json(&text).expect("decode");
        assert_eq!(back, report);
        // A second round trip is byte-identical (stable output).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn default_report_round_trips() {
        let report = RunReport::default();
        let back = RunReport::from_json(&report.to_json()).expect("decode");
        assert_eq!(back, report);
        assert_eq!(back.resume, None);
        assert_eq!(back.checkpoint_error, None);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut report = sample_report();
        report.schema_version = SCHEMA_VERSION + 1;
        let err = RunReport::from_json(&report.to_json()).expect_err("must reject");
        assert_eq!(
            err,
            ReportError::SchemaVersion {
                expected: SCHEMA_VERSION,
                found: SCHEMA_VERSION + 1,
            }
        );
    }

    #[test]
    fn missing_field_is_rejected() {
        let text = sample_report().to_json();
        // Drop the "sat" block wholesale: a shrunken schema must not
        // decode quietly.
        let without = text.replace("\"sat\"", "\"sat_renamed\"");
        let err = RunReport::from_json(&without).expect_err("must reject");
        assert!(
            matches!(
                err,
                ReportError::MissingField { field: "sat", .. }
                    | ReportError::UnknownField { .. }
                    | ReportError::WrongType { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_field_is_rejected() {
        let text =
            sample_report()
                .to_json()
                .replacen("\"tool\"", "\"new_field\": 1,\n  \"tool\"", 1);
        let err = RunReport::from_json(&text).expect_err("must reject");
        assert!(
            matches!(err, ReportError::UnknownField { ref field, .. } if field == "new_field"),
            "{err:?}"
        );
    }

    #[test]
    fn negative_counter_is_rejected() {
        let text = sample_report().to_json();
        let bad = text.replacen("\"threads\": 4", "\"threads\": -4", 1);
        let err = RunReport::from_json(&bad).expect_err("must reject");
        assert!(matches!(err, ReportError::WrongType { .. }), "{err:?}");
    }

    #[test]
    fn truncated_histogram_is_rejected() {
        let report = sample_report();
        let text = report.to_json();
        // Chop one bucket out of the first latency array.
        let start = text.find("\"latency_us\": [").expect("latency field");
        let bad = text.replacen("0, 0, 0]", "0, 0]", 1);
        assert!(bad.len() < text.len(), "replacement must apply");
        let err = RunReport::from_json(&bad).expect_err("must reject");
        assert!(
            matches!(err, ReportError::WrongType { .. }),
            "{err:?} {start}"
        );
    }
}

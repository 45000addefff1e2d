//! One repeat of one network, run in a child process of the benchmark.
//!
//! A fresh process per repeat keeps the measurement independent of what
//! ran before it: no allocator state, pooled BDD manager or simulation
//! pattern carries over between repeats, and the process's peak resident
//! set is the memory this one network's flow needed.
//!
//! (The server workload runs its millisecond-sized repeats in its own
//! process instead, where process start-up would swamp them.)
//!
//! The child makes the four public calls of the paper's Table I flow,
//! each timed on its own at one thread with no deadline:
//! `resyn2rs_fixpoint` (the baseline), the SBM script, `map_luts` on both
//! networks, and a SAT miter of the script result against its input.
//! Traced, it also runs `sbm_script_budgeted_observed`, before or after
//! the four calls as the parent says, with a step checkpoint after every
//! step: the report sink fires once per step, and
//! the time between two firings, less the measured cost of writing that
//! step's snapshot, is the step's self time.
//!
//! Its record, printed to standard output, has one `key value` line per
//! measured value, a `fingerprint` of everything that must repeat
//! exactly, one `failure` line per problem, and last the script result
//! as ASCII AIGER after an `aiger` line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use sbm_aig::Aig;
use sbm_budget::Budget;
use sbm_core::pipeline::PipelineReport;
use sbm_core::script::{
    resyn2rs_fixpoint, sbm_script_budgeted_observed, sbm_script_report, ReportSink, SbmOptions,
};
use sbm_journal::{read_aig_snapshot, write_aig_snapshot, Fnv64, SCRIPT_STATE_FILE};
use sbm_lutmap::{map_luts, MapOptions};
use sbm_metrics::Timer;
use sbm_sat::{drain_sat_tally, EquivalenceOracle, MiterOracle, SatTally, Verdict};
use sbm_server::{job_sbm_options, JobOptions};

/// The script's steps in the order one iteration runs them.
pub const STEPS: [&str; 8] = [
    "resyn2rs",
    "gradient",
    "hetero",
    "mspf",
    "refactor",
    "bdiff",
    "sweep",
    "redundancy",
];

/// Windowed engines whose pipeline counters the record carries.
pub const ENGINES: [&str; 5] = ["resub", "rewrite", "refactor", "mspf", "bdiff"];

/// Conflict budget of the verifying miter: far above what any network
/// here needs, so an `Unknown` verdict means the program got slower or
/// wrong, and it counts as a failed operation.
const VERIFY_CONFLICTS: u64 = 1_000_000;

/// Rounds of `resyn2rs` the baseline runs at most (as `table1` does).
const BASELINE_ROUNDS: usize = 4;

/// The script options of a workload: the library defaults at one thread
/// (`batch`), or what the job server runs every job under (`job`).
pub fn options(kind: &str) -> Result<SbmOptions, String> {
    match kind {
        "batch" => SbmOptions::builder()
            .num_threads(1)
            .deadline(None)
            .build()
            .map_err(|e| e.to_string()),
        "job" => job_sbm_options(&JobOptions::default()).map_err(|e| e.to_string()),
        other => Err(format!("unknown options {other:?}")),
    }
}

/// The record one repeat prints, built up as the repeat runs.
struct RecordOut {
    out: String,
    fingerprint: Fnv64,
}

impl RecordOut {
    fn put(&mut self, key: &str, value: f64) {
        let _ = writeln!(self.out, "{key} {value}");
    }

    /// Counts that must repeat exactly: recorded and fingerprinted.
    fn put_counts(&mut self, counts: &[(&str, u64)]) {
        for &(key, value) in counts {
            self.fingerprint.write_str(key);
            self.fingerprint.write_u64(value);
            self.put(key, value as f64);
        }
    }

    fn fail(&mut self, why: &str) {
        let _ = writeln!(self.out, "failure {why}");
    }
}

/// Where a traced repeat checkpoints, and whether its traced script
/// runs before the untraced calls or after them.
pub struct Trace {
    pub dir: PathBuf,
    pub first: bool,
}

/// One repeat of the network in the AIGER file `input`, as record text.
pub fn record(input: &Path, kind: &str, trace: Option<&Trace>) -> Result<String, String> {
    let text = std::fs::read_to_string(input)
        .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    let input = sbm_aig::aiger::parse(&text).map_err(|e| format!("bad input: {e}"))?;
    let options = options(kind)?;
    let mut rec = RecordOut {
        out: String::new(),
        fingerprint: Fnv64::new(),
    };
    let mut traced_result = None;
    if let Some(t) = trace.filter(|t| t.first) {
        traced_result = traced(&input, &options, &t.dir, &mut rec);
    }
    let result = flow(&input, &options, &mut rec);
    if let Some(t) = trace.filter(|t| !t.first) {
        traced_result = traced(&input, &options, &t.dir, &mut rec);
    }
    if traced_result.is_some_and(|traced| traced != result) {
        rec.fail("traced network differs from the untraced one");
    }
    rec.put(
        "rss_mb",
        crate::util::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
    );
    Ok(format!(
        "{}fingerprint {}\naiger\n{result}",
        rec.out,
        rec.fingerprint.finish()
    ))
}

/// The four timed calls; returns the script result as ASCII AIGER.
fn flow(input: &Aig, options: &SbmOptions, rec: &mut RecordOut) -> String {
    let map_options = MapOptions::default();

    let timer = Timer::start();
    let baseline = resyn2rs_fixpoint(input, BASELINE_ROUNDS);
    rec.put("time.baseline", timer.stop().as_secs_f64());

    let timer = Timer::start();
    let run = sbm_script_report(input, options);
    rec.put("time.script", timer.stop().as_secs_f64());

    let timer = Timer::start();
    let base_map = map_luts(&baseline, &map_options);
    let sbm_map = map_luts(&run.aig, &map_options);
    rec.put("time.map", timer.stop().as_secs_f64());

    let _ = drain_sat_tally();
    let timer = Timer::start();
    let verdict = MiterOracle::new()
        .with_conflict_budget(Some(VERIFY_CONFLICTS))
        .check(input, &run.aig);
    rec.put("time.verify", timer.stop().as_secs_f64());
    let verify_sat = drain_sat_tally();

    match verdict {
        Verdict::Equivalent => rec.put("proven", 1.0),
        Verdict::Refuted(_) => rec.fail("SAT miter refuted the script result"),
        Verdict::Unknown => rec.fail("SAT miter ran out of conflicts"),
    }
    if !run.stats.check_violations.is_empty() {
        rec.fail(&format!(
            "{} invariant violation(s)",
            run.stats.check_violations.len()
        ));
    }

    let result = sbm_aig::aiger::write(&run.aig);
    let counts = [
        ("base_ands", baseline.num_ands() as u64),
        ("base_luts", base_map.num_luts() as u64),
        ("base_lut_depth", u64::from(base_map.depth())),
        ("sbm_ands", run.aig.num_ands() as u64),
        ("sbm_levels", u64::from(run.aig.depth())),
        ("sbm_luts", sbm_map.num_luts() as u64),
        ("sbm_lut_depth", u64::from(sbm_map.depth())),
    ];
    rec.fingerprint.write_str(&sbm_aig::aiger::write(&baseline));
    rec.fingerprint.write_str(&result);
    rec.put_counts(&counts);
    put_report(&run.stats, &verify_sat, rec);
    result
}

/// The report's counters, every one of which must repeat exactly.
fn put_report(r: &PipelineReport, verify_sat: &SatTally, rec: &mut RecordOut) {
    let mut counts = vec![
        ("pipeline.windows", r.windows_total as u64),
        ("pipeline.windows_skipped", r.windows_skipped as u64),
        ("pipeline.windows_unchanged", r.windows_unchanged as u64),
        (
            "pipeline.windows_gate_rejected",
            r.windows_gate_rejected as u64,
        ),
        (
            "pipeline.windows_stitch_rejected",
            r.windows_stitch_rejected as u64,
        ),
        ("pipeline.windows_improved", r.windows_improved as u64),
        ("pipeline.nodes_saved", r.nodes_saved as u64),
        ("bdd.managers_recycled", r.bdd.managers_recycled),
        ("bdd.nodes_allocated", r.bdd.nodes_allocated),
        ("bdd.peak_nodes", r.bdd.peak_nodes),
        ("bdd.unique_hits", r.bdd.unique_hits),
        ("bdd.cache_hits", r.bdd.cache_hits),
        ("bdd.ite_calls", r.bdd.ite_calls),
        ("sim.filter_hits", r.sim.filter_hits),
        ("sim.filter_misses", r.sim.filter_misses),
        ("sim.cex_recorded", r.sim.cex_recorded),
        ("sim.cex_committed", r.sim.cex_committed),
        ("sim.resims", r.sim.resims),
    ];
    // The script's and the miter's SAT work together.
    let mut sat = r.sat;
    sat.merge(verify_sat);
    counts.extend([
        ("sat.solves", sat.solves),
        ("sat.sat", sat.sat),
        ("sat.unsat", sat.unsat),
        ("sat.unknown", sat.unknown),
        ("sat.interrupted", sat.interrupted),
        ("sat.conflicts", sat.conflicts),
        ("sat.decisions", sat.decisions),
        ("sat.propagations", sat.propagations),
    ]);
    rec.put_counts(&counts);
    for (name, e) in &r.engines {
        rec.fingerprint.write_str(name);
        for v in [e.windows, e.tried, e.accepted, e.bailouts] {
            rec.fingerprint.write_u64(v as u64);
        }
        rec.fingerprint.write_u64(e.gain as u64);
    }
    for engine in ENGINES {
        let stats = r.engines.iter().filter(|(name, _)| name == engine);
        let sum = |pick: fn(&sbm_core::engine::EngineStats) -> f64| {
            stats.clone().map(|(_, e)| pick(e)).sum::<f64>()
        };
        rec.put(&format!("engine.{engine}.tried"), sum(|e| e.tried as f64));
        rec.put(
            &format!("engine.{engine}.accepted"),
            sum(|e| e.accepted as f64),
        );
        rec.put(&format!("engine.{engine}.gain"), sum(|e| e.gain as f64));
    }
}

/// One report-sink firing.
struct Span {
    /// Time since the previous firing ended (or since the call began).
    interval_s: f64,
    /// Measured cost of writing this step's snapshot.
    write_s: f64,
    ands: usize,
    sat_solves: u64,
}

struct TraceState {
    since: Timer,
    spans: Vec<Span>,
    error: Option<String>,
}

/// The traced script: records each step's self time, ANDs saved and
/// SAT solves, and returns the result as ASCII AIGER (`None` when the
/// trace failed, which it records).
fn traced(input: &Aig, options: &SbmOptions, dir: &Path, rec: &mut RecordOut) -> Option<String> {
    let (aig, total_s, write0_s, spans) = match traced_script(input, options, dir) {
        Ok(traced) => traced,
        Err(why) => {
            rec.fail(&format!("traced script: {why}"));
            return None;
        }
    };
    let expected = 8 * options.iterations;
    if spans.len() != expected {
        rec.fail(&format!(
            "report sink fired {} times, expected {expected}",
            spans.len()
        ));
        return None;
    }
    let mut self_s = [0.0; 8];
    let mut saved = [0.0; 8];
    let mut solves = [0.0; 8];
    let (mut ands, mut sat) = (input.cleanup().num_ands(), 0);
    for (k, span) in spans.iter().enumerate() {
        // The first interval also covers the step-0 snapshot.
        let extra = if k == 0 { write0_s } else { 0.0 };
        self_s[k % 8] += span.interval_s - span.write_s - extra;
        saved[k % 8] += ands as f64 - span.ands as f64;
        solves[k % 8] += (span.sat_solves - sat) as f64;
        ands = span.ands;
        sat = span.sat_solves;
    }
    for (k, step) in STEPS.iter().enumerate() {
        rec.put(&format!("step.{step}_s"), self_s[k]);
        rec.put(&format!("step.{step}.ands_saved"), saved[k]);
        rec.put(&format!("step.{step}.sat_solves"), solves[k]);
    }
    let snapshots_s = write0_s + spans.iter().map(|s| s.write_s).sum::<f64>();
    rec.put("time.traced_script", total_s);
    rec.put("time.snapshots", snapshots_s);
    // What the steps leave of the traced call once its snapshot writes
    // are taken out: the sink's own work and what follows the last step.
    rec.put(
        "time.outside_steps",
        total_s - snapshots_s - self_s.iter().sum::<f64>(),
    );
    Some(sbm_aig::aiger::write(&aig))
}

/// The SBM script through its observed entry point, checkpointing every
/// step under `dir`. Returns the result, the call's time, the measured
/// cost of the step-0 snapshot and one span per report-sink firing.
fn traced_script(
    input: &Aig,
    options: &SbmOptions,
    dir: &Path,
) -> Result<(Aig, f64, f64, Vec<Span>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let state_path = dir.join(SCRIPT_STATE_FILE);
    let probe_path = dir.join("probe.snapshot");
    let options = SbmOptions {
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 1,
        ..options.clone()
    };
    // The script writes the cleaned input as its step-0 snapshot before
    // the first step; time writing the same network.
    let timer = Timer::start();
    write_aig_snapshot(&probe_path, &input.cleanup(), 0, 0).map_err(|e| e.to_string())?;
    let write0_s = timer.stop().as_secs_f64();

    // sbm-lint: allow(C002) the report sink must be `Sync`; the script calls it from its own thread only, so the lock is never contended
    let state = Mutex::new(TraceState {
        since: Timer::start(),
        spans: Vec::new(),
        error: None,
    });
    let sink = |report: &PipelineReport| {
        let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
        let interval_s = st.since.elapsed().as_secs_f64();
        match read_aig_snapshot(&state_path) {
            Ok((aig, meta)) => {
                let timer = Timer::start();
                let written = write_aig_snapshot(&probe_path, &aig, meta.fingerprint, meta.seq);
                let write_s = timer.stop().as_secs_f64();
                if let Err(e) = written {
                    st.error.get_or_insert(e.to_string());
                }
                st.spans.push(Span {
                    interval_s,
                    write_s,
                    ands: aig.num_ands(),
                    sat_solves: report.sat.solves,
                });
            }
            Err(e) => {
                st.error.get_or_insert(e.to_string());
            }
        }
        st.since = Timer::start();
    };
    let total = Timer::start();
    state.lock().unwrap_or_else(PoisonError::into_inner).since = Timer::start();
    let run =
        sbm_script_budgeted_observed(input, &options, &Budget::unlimited(), ReportSink(&sink));
    let total_s = total.stop().as_secs_f64();
    let st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    match st.error.or(run.stats.checkpoint_error) {
        Some(error) => Err(error),
        None => Ok((run.aig, total_s, write0_s, st.spans)),
    }
}

//! The baseline and SBM-enhanced implementation flows.
//!
//! Mirrors the paper's Table III methodology: the same implementation
//! backend (mapping + STA + power) runs on logic optimized by a baseline
//! script and by the baseline **plus the SBM framework**; results are
//! reported relative to baseline. The timing target is derived from the
//! baseline's critical path so that both flows face the same (slightly
//! aggressive) clock, producing non-trivial WNS/TNS.

use sbm_aig::Aig;
use sbm_core::gradient::GradientOptions;
use sbm_core::pipeline::PipelineReport;
use sbm_core::script::{resyn2rs, sbm_script_report, sbm_script_resumable, SbmOptions};
use sbm_metrics::Timer;

use crate::mapping::map_to_cells;
use crate::power::dynamic_power;
use crate::sta::analyze;

/// Which flow to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Algebraic/baseline optimization only.
    Baseline,
    /// Baseline plus the SBM framework (the "proposed flow").
    Proposed,
}

/// Implementation results of one flow on one design.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Combinational cell area.
    pub area: f64,
    /// No-clock dynamic power.
    pub dyn_power: f64,
    /// Critical-path delay.
    pub critical_path: f64,
    /// Optimization + implementation runtime in seconds.
    pub runtime: f64,
    /// AND nodes after logic optimization.
    pub aig_nodes: usize,
}

/// Timing metrics of a flow at a specific clock target.
#[derive(Debug, Clone, Copy)]
pub struct TimingMetrics {
    /// Worst negative slack.
    pub wns: f64,
    /// Total negative slack.
    pub tns: f64,
}

/// Everything produced by one flow run: the metrics plus the mapped
/// netlist (needed to evaluate timing at a shared clock afterwards).
#[derive(Debug, Clone)]
pub struct FlowRun {
    /// Implementation metrics.
    pub result: FlowResult,
    /// The mapped standard-cell netlist.
    pub netlist: crate::mapping::Netlist,
    /// Parallel-pipeline observability of the optimization step
    /// (all-zero for the baseline flow or serial runs).
    pub pipeline: PipelineReport,
}

/// Runs one flow (logic optimization + mapping + power) on a design.
/// Timing is reported separately via [`timing_at`], because WNS/TNS need
/// a clock target shared across flows.
pub fn run_flow(aig: &Aig, kind: FlowKind) -> FlowRun {
    run_flow_threaded(aig, kind, 1)
}

/// Crash-safety configuration for the proposed flow's optimization step:
/// checkpoints land in a per-design subdirectory of `root`, and `resume`
/// continues from an existing checkpoint instead of starting fresh.
#[derive(Debug, Clone)]
pub struct FlowCheckpoint {
    /// Root directory; each design checkpoints under `root/<name>`.
    pub root: std::path::PathBuf,
    /// Resume from the design's existing checkpoint. A design whose
    /// checkpoint is missing or unusable is re-run fresh and the typed
    /// error reported on stderr.
    pub resume: bool,
}

impl FlowCheckpoint {
    fn dir_for(&self, name: &str) -> std::path::PathBuf {
        self.root.join(name)
    }
}

/// [`run_flow`] with the proposed flow's window-based optimization steps
/// fanned out over `num_threads` workers.
pub fn run_flow_threaded(aig: &Aig, kind: FlowKind, num_threads: usize) -> FlowRun {
    run_flow_configured(aig, kind, num_threads, None, true)
}

/// [`run_flow_threaded`] with optional crash-safe checkpointing of the
/// proposed flow's optimization (`checkpoint` = directory for this
/// design, plus whether to resume from it) and control over the
/// simulation-signature candidate filter (`sim_filter`; see
/// `SbmOptions::sim_filter` for what toggling it changes).
pub fn run_flow_configured(
    aig: &Aig,
    kind: FlowKind,
    num_threads: usize,
    checkpoint: Option<(&std::path::Path, bool)>,
    sim_filter: bool,
) -> FlowRun {
    let timer = Timer::start();
    let (optimized, pipeline) = match kind {
        FlowKind::Baseline => (resyn2rs(aig), PipelineReport::default()),
        FlowKind::Proposed => {
            let opts = SbmOptions {
                iterations: 1,
                gradient: GradientOptions {
                    budget: 60,
                    ..Default::default()
                },
                num_threads,
                sim_filter,
                checkpoint_dir: checkpoint.map(|(dir, _)| dir.to_path_buf()),
                ..Default::default()
            };
            let run = match checkpoint {
                Some((dir, true)) => match sbm_script_resumable(aig, &opts, None, None) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("cannot resume from {} ({e}); running fresh", dir.display());
                        sbm_script_report(aig, &opts)
                    }
                },
                _ => sbm_script_report(aig, &opts),
            };
            (run.aig, run.stats)
        }
    };
    let netlist = map_to_cells(&optimized);
    let area = netlist.area();
    let dyn_power = dynamic_power(&netlist, 8, 0x0D15_EA5E);
    let timing = analyze(&netlist, f64::MAX);
    let runtime = timer.stop().as_secs_f64();
    FlowRun {
        result: FlowResult {
            area,
            dyn_power,
            critical_path: timing.critical_path,
            runtime,
            aig_nodes: optimized.num_ands(),
        },
        netlist,
        pipeline,
    }
}

/// WNS/TNS of a mapped netlist at a clock target.
pub fn timing_at(netlist: &crate::mapping::Netlist, clock: f64) -> TimingMetrics {
    let report = analyze(netlist, clock);
    TimingMetrics {
        wns: report.wns,
        tns: report.tns,
    }
}

/// One row of the Table III comparison for a single design.
#[derive(Debug, Clone)]
pub struct DesignComparison {
    /// Design name.
    pub name: String,
    /// Baseline results.
    pub baseline: FlowResult,
    /// Proposed-flow results.
    pub proposed: FlowResult,
    /// Baseline timing at the shared clock.
    pub baseline_timing: TimingMetrics,
    /// Proposed timing at the shared clock.
    pub proposed_timing: TimingMetrics,
    /// Parallel-pipeline observability of the proposed flow's
    /// optimization (all-zero for serial runs).
    pub pipeline: PipelineReport,
}

/// Runs both flows on a design and compares them at a shared clock set to
/// `clock_fraction` of the baseline critical path (< 1.0 makes the clock
/// aggressive, so both flows show negative slack, as post-P&R tables do).
pub fn compare_flows(name: &str, aig: &Aig, clock_fraction: f64) -> DesignComparison {
    compare_flows_threaded(name, aig, clock_fraction, 1)
}

/// [`compare_flows`] with the proposed flow running `num_threads` workers.
pub fn compare_flows_threaded(
    name: &str,
    aig: &Aig,
    clock_fraction: f64,
    num_threads: usize,
) -> DesignComparison {
    compare_flows_checkpointed(name, aig, clock_fraction, num_threads, None, true)
}

/// [`compare_flows_threaded`] with optional crash-safe checkpointing of
/// the proposed flow (see [`FlowCheckpoint`]) and control over the
/// simulation-signature candidate filter.
pub fn compare_flows_checkpointed(
    name: &str,
    aig: &Aig,
    clock_fraction: f64,
    num_threads: usize,
    checkpoint: Option<&FlowCheckpoint>,
    sim_filter: bool,
) -> DesignComparison {
    let baseline = run_flow(aig, FlowKind::Baseline);
    let ck_dir = checkpoint.map(|c| (c.dir_for(name), c.resume));
    let proposed = run_flow_configured(
        aig,
        FlowKind::Proposed,
        num_threads,
        ck_dir.as_ref().map(|(d, r)| (d.as_path(), *r)),
        sim_filter,
    );
    let clock = baseline.result.critical_path * clock_fraction;
    DesignComparison {
        name: name.to_string(),
        baseline_timing: timing_at(&baseline.netlist, clock),
        proposed_timing: timing_at(&proposed.netlist, clock),
        baseline: baseline.result,
        proposed: proposed.result,
        pipeline: proposed.pipeline,
    }
}

/// Aggregated Table III deltas over a set of design comparisons, in
/// percent relative to baseline (negative = improvement, like the paper).
#[derive(Debug, Clone, Copy)]
pub struct Table3Summary {
    /// Δ combinational area, %.
    pub area_pct: f64,
    /// Δ no-clock dynamic power, %.
    pub power_pct: f64,
    /// Δ WNS, % (negative = less negative slack).
    pub wns_pct: f64,
    /// Δ TNS, %.
    pub tns_pct: f64,
    /// Δ runtime, % (positive = proposed flow is slower).
    pub runtime_pct: f64,
}

/// Averages the relative deltas, mirroring the paper's "average results
/// w.r.t. a baseline flow" presentation.
pub fn summarize(rows: &[DesignComparison]) -> Table3Summary {
    let pct = |get_b: &dyn Fn(&DesignComparison) -> f64,
               get_p: &dyn Fn(&DesignComparison) -> f64|
     -> f64 {
        let mut total = 0.0;
        let mut counted = 0usize;
        for r in rows {
            let b = get_b(r);
            let p = get_p(r);
            if b.abs() > 1e-12 {
                total += (p - b) / b.abs() * 100.0;
                counted += 1;
            }
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    };
    Table3Summary {
        area_pct: pct(&|r| r.baseline.area, &|r| r.proposed.area),
        power_pct: pct(&|r| r.baseline.dyn_power, &|r| r.proposed.dyn_power),
        // WNS/TNS are negative quantities; (p−b)/|b| < 0 means the
        // proposed flow reduced the violation, matching the paper's sign.
        wns_pct: pct(&|r| r.baseline_timing.wns, &|r| r.proposed_timing.wns),
        tns_pct: pct(&|r| r.baseline_timing.tns, &|r| r.proposed_timing.tns),
        runtime_pct: pct(&|r| r.baseline.runtime, &|r| r.proposed.runtime),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::industrial_designs;

    #[test]
    fn proposed_flow_never_larger() {
        let designs = industrial_designs(2);
        for d in &designs {
            let cmp = compare_flows(&d.name, &d.aig, 0.85);
            assert!(
                cmp.proposed.aig_nodes <= cmp.baseline.aig_nodes,
                "{}: {} vs {}",
                d.name,
                cmp.proposed.aig_nodes,
                cmp.baseline.aig_nodes
            );
            assert!(cmp.baseline.area > 0.0);
            assert!(cmp.proposed.area > 0.0);
        }
    }

    #[test]
    fn flows_preserve_function() {
        let designs = industrial_designs(1);
        let d = &designs[0];
        let base = run_flow(&d.aig, FlowKind::Baseline).netlist;
        // The mapped baseline netlist must agree with the source AIG on
        // random vectors.
        let mut state = 11u64;
        for _ in 0..32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let assignment: Vec<bool> = (0..d.aig.num_inputs())
                .map(|i| (state >> (i % 64)) & 1 == 1)
                .collect();
            assert_eq!(base.eval(&assignment), d.aig.eval(&assignment));
        }
        // The full SAT-based proof is exercised in the integration tests.
    }

    #[test]
    fn summary_computes_percentages() {
        let designs = industrial_designs(2);
        let rows: Vec<DesignComparison> = designs
            .iter()
            .map(|d| compare_flows(&d.name, &d.aig, 0.85))
            .collect();
        let summary = summarize(&rows);
        assert!(summary.area_pct <= 0.0, "area must not regress on average");
    }
}

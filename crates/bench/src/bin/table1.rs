// A CLI driver, not library code: aborting with a message is the intended
// error path, so the workspace unwrap/expect denial is relaxed here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Regenerates **Table I** — "New Best Area Results For The EPFL Suite".
//!
//! For each benchmark the paper improved, this binary optimizes the
//! generated circuit with (a) the `resyn2rs` baseline and (b) the SBM
//! script, maps both onto LUT-6 (`if -K 6 -a` equivalent) and reports the
//! LUT and level counts. The paper's claim being reproduced is the
//! *shape*: the SBM flow's LUT-6 area beats (or ties) the baseline on
//! these benchmarks.
//!
//! Usage: `table1 [--full] [--threads N] [--check off|boundaries|paranoid]
//! [--deadline SECONDS] [--fault-seed N] [--fault-rate R]
//! [--checkpoint DIR [--resume]] [--only NAMES] [--report-json PATH]`
//! (default: reduced scale, serial, unchecked, unbounded, no injection).
//! Checked runs validate the structural invariants of every intermediate
//! network (see `sbm-check`) and list any violation after the table. A
//! deadline makes the run degrade gracefully instead of overrunning;
//! `--fault-seed`/`--fault-rate` inject deterministic faults (panics,
//! delays, forced bailouts) to exercise the fault-tolerant executor, and
//! the resulting `FaultSummary` is printed after the table.
//! `--checkpoint DIR` persists crash-safe progress per benchmark under
//! `DIR`; `--resume` continues an interrupted checkpointed run (a
//! benchmark whose checkpoint is missing or unusable is re-run fresh and
//! the typed error reported). `--only NAMES` restricts the run to
//! benchmarks matching any comma-separated substring. `--sim-filter off`
//! disables the simulation-signature candidate filter (see
//! `SbmOptions::sim_filter`). `--report-json PATH` writes the aggregated
//! run as a serialized `RunReport`. The verify column reads `eq(SAT)`
//! (proved), `unproven(sim)` (no proof, simulation found no difference)
//! or `MISMATCH`; any `MISMATCH` makes the binary exit 1 (validation).

use sbm_core::pipeline::PipelineReport;
use sbm_core::script::{resyn2rs_fixpoint, sbm_script_report, sbm_script_resumable, SbmOptions};
use sbm_epfl::{benchmark, Scale};
use sbm_lutmap::{map_luts, MapOptions};

/// The 12 benchmarks of Table I (`hypotenuse` is generated as `hyp`).
const TABLE1: [&str; 12] = [
    "arbiter", "div", "i2c", "log2", "max", "mem_ctrl", "mult", "priority", "sin", "hyp", "sqrt",
    "square",
];

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let threads = sbm_bench::threads_arg();
    let check = sbm_bench::check_arg();
    let deadline = sbm_bench::deadline_arg();
    let fault_plan = sbm_bench::fault_plan_arg();
    let (ckpt_root, resume) = sbm_bench::checkpoint_args();
    let only = sbm_bench::only_arg();
    let report_json = sbm_bench::report_json_arg();
    let sim_filter = sbm_bench::sim_filter_arg();
    let scale = if full { Scale::Full } else { Scale::Reduced };
    println!("Table I — New Best Area Results For The EPFL Suite (LUT-6)");
    println!(
        "scale: {scale:?}, threads: {threads}, check: {check}, sim filter: {}  \
         (paper sizes with --full; see EXPERIMENTS.md)",
        if sim_filter { "on" } else { "off" }
    );
    if let Some(deadline) = deadline {
        println!("deadline: {:.1}s per script run", deadline.as_secs_f64());
    }
    if let Some(plan) = &fault_plan {
        println!(
            "fault injection: seed {}, rates {:.2}/{:.2}/{:.2} (panic/delay/bailout)",
            plan.seed, plan.panic_rate, plan.delay_rate, plan.bailout_rate
        );
    }
    if let Some(root) = &ckpt_root {
        println!(
            "checkpoint: {} ({})",
            root.display(),
            if resume { "resuming" } else { "fresh" }
        );
    }
    println!();
    println!(
        "{:<12} {:>9} | {:>9} {:>7} | {:>9} {:>7} | {:>8} {:>9}",
        "benchmark", "I/O", "base LUT", "base lv", "SBM LUT", "SBM lv", "ΔLUT", "verify"
    );
    let map_opts = MapOptions::default();
    let mut pipeline_report = PipelineReport::default();
    let mut processed: Vec<String> = Vec::new();
    let mut verdicts: Vec<&str> = Vec::new();
    for name in TABLE1 {
        if !sbm_bench::only_matches(&only, name) {
            continue;
        }
        processed.push(name.to_string());
        let bench = benchmark(name, scale).expect("known benchmark");
        let aig = bench.aig;
        let io = format!("{}/{}", aig.num_inputs(), aig.num_outputs());

        let baseline = resyn2rs_fixpoint(&aig, 4);
        let base_map = map_luts(&baseline, &map_opts);

        // Checkpoints are per-benchmark subdirectories so a multi-bench
        // run never overwrites one benchmark's progress with another's.
        let options = SbmOptions::builder()
            .num_threads(threads)
            .check_level(check)
            .deadline(deadline)
            .fault_plan(fault_plan)
            .sim_filter(sim_filter)
            .checkpoint_dir(ckpt_root.as_ref().map(|d| d.join(name)))
            .build()
            .expect("valid options");
        let run = if resume {
            match sbm_script_resumable(&aig, &options, None, None) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("{name}: cannot resume ({e}); running fresh");
                    sbm_script_report(&aig, &options)
                }
            }
        } else {
            sbm_script_report(&aig, &options)
        };
        let sbm = run.aig;
        pipeline_report.merge(&run.stats);
        let sbm_map = map_luts(&sbm, &map_opts);

        let verdict = sbm_bench::verify_pair(&aig, &sbm, 4_000);
        verdicts.push(verdict);
        println!(
            "{:<12} {:>9} | {:>9} {:>7} | {:>9} {:>7} | {:>8} {:>9}",
            name,
            io,
            base_map.num_luts(),
            base_map.depth(),
            sbm_map.num_luts(),
            sbm_map.depth(),
            sbm_bench::pct(base_map.num_luts() as f64, sbm_map.num_luts() as f64),
            verdict,
        );
    }
    if threads > 1 || fault_plan.is_some() || ckpt_root.is_some() {
        println!();
        println!("{pipeline_report}");
    }
    if let Some(error) = &pipeline_report.checkpoint_error {
        println!();
        println!("checkpoint WARNING: {error} (run completed without crash safety)");
    }
    if !pipeline_report.fault.is_zero() {
        println!();
        println!(
            "fault tolerance: every fault above was isolated; {} window(s) \
             degraded to their original logic, results stay verified",
            pipeline_report.fault.degraded_windows
        );
    }
    if check.at_boundaries() {
        println!();
        if pipeline_report.check_violations.is_empty() {
            println!("invariant checks ({check}): clean");
        } else {
            println!(
                "invariant checks ({check}): {} VIOLATION(S)",
                pipeline_report.check_violations.len()
            );
            for v in &pipeline_report.check_violations {
                println!("  {v}");
            }
        }
    }
    if let Some(path) = &report_json {
        let mut run = pipeline_report.run_report();
        run.tool = "table1".to_string();
        run.scale = format!("{scale:?}");
        run.threads = threads as u64;
        run.benchmarks = processed;
        println!();
        sbm_bench::write_report(path, &run);
    }
    println!();
    println!("paper reference (full scale): arbiter 365/117, div 3267/1211, i2c 207/15,");
    println!("log2 6567/119, max 522/189, mem_ctrl 2086/23, mult 4920/93, priority 103/26,");
    println!("sin 1227/55, hypotenuse 40377/4530, sqrt 3075/1106, square 3242/76");
    sbm_bench::exit_on_mismatch(&verdicts);
}

// A CLI driver, not library code: aborting with a message is the intended
// error path, so the workspace unwrap/expect denial is relaxed here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Regenerates **Table II** — "Smallest AIG Results For The EPFL Suite".
//!
//! The paper's smallest-AIG methodology: the SBM optimization script
//! against `resyn2rs` run "until no improvement is seen". This binary
//! reports AIG size and level count for both, plus the Section III-B
//! runtime datapoint (Boolean-difference resubstitution applied
//! monolithically to `i2c` and `cavlc`).
//!
//! Usage: `table2 [--full] [--threads N] [--deadline SECONDS]
//! [--checkpoint DIR] [--only NAMES] [--sim-filter on|off]
//! [--report-json PATH]`; any other argument is a usage error.
//! `--checkpoint DIR` persists crash-safe progress per benchmark under
//! `DIR`; rerunning into the same `DIR` continues each interrupted
//! benchmark from its snapshot (see table1). `--only
//! NAMES` restricts the run to benchmarks matching any comma-separated
//! substring. `--sim-filter off` disables the simulation-signature
//! candidate filter (see `SbmOptions::sim_filter`). `--report-json PATH`
//! writes the aggregated run as a serialized `RunReport` (the script wall
//! and the Section III-B monolithic timings land in its `extra`
//! counters). The verify column reads `eq(SAT)` (proved),
//! `unproven(sim)` (no proof, simulation found no difference) or
//! `MISMATCH`; any `MISMATCH` makes the binary exit 1 (validation).

use sbm_budget::Budget;
use sbm_core::bdiff::BdiffOptions;
use sbm_core::engine::{Bdiff, Engine, EngineCtx};
use sbm_core::pipeline::PipelineReport;
use sbm_core::script::{resyn2rs_fixpoint, sbm_script_report, SbmOptions};
use sbm_epfl::{benchmark, Scale};
use sbm_metrics::Timer;

/// The 13 benchmarks of Table II (`hypotenuse` is generated as `hyp`).
const TABLE2: [&str; 13] = [
    "arbiter", "cavlc", "div", "i2c", "log2", "mem_ctrl", "mult", "router", "sin", "hyp", "sqrt",
    "square", "voter",
];

fn main() {
    let args = sbm_bench::TableArgs::parse("table2", sbm_bench::TABLE2_FLAGS);
    let sbm_bench::TableArgs {
        full,
        threads,
        deadline,
        checkpoint: ckpt_root,
        only,
        sim_filter,
        report_json,
        ..
    } = args;
    let scale = if full { Scale::Full } else { Scale::Reduced };
    println!("Table II — Smallest AIG Results For The EPFL Suite");
    println!(
        "scale: {scale:?}, threads: {threads}, sim filter: {}",
        if sim_filter { "on" } else { "off" }
    );
    if let Some(root) = &ckpt_root {
        println!("checkpoint: {}", root.display());
    }
    println!();
    println!(
        "{:<12} {:>9} | {:>9} {:>8} | {:>9} {:>8} | {:>8} {:>9}",
        "benchmark", "I/O", "base AIG", "base lv", "SBM AIG", "SBM lv", "Δsize", "verify"
    );
    let mut pipeline_report = PipelineReport::default();
    let mut script_wall = std::time::Duration::ZERO;
    let mut processed: Vec<String> = Vec::new();
    let mut verdicts: Vec<&str> = Vec::new();
    for name in TABLE2 {
        if !sbm_bench::only_matches(&only, name) {
            continue;
        }
        let bench = benchmark(name, scale).expect("known benchmark");
        let aig = bench.aig;
        let io = format!("{}/{}", aig.num_inputs(), aig.num_outputs());

        let baseline = resyn2rs_fixpoint(&aig, 6);
        let options = SbmOptions::builder()
            .num_threads(threads)
            .deadline(deadline)
            .sim_filter(sim_filter)
            .checkpoint_dir(ckpt_root.as_ref().map(|d| d.join(name)))
            .build()
            .expect("valid options");
        let timer = Timer::start();
        let run = sbm_script_report(&aig, &options);
        script_wall += timer.stop();
        processed.push(name.to_string());
        let sbm = run.aig;
        pipeline_report.merge(&run.stats);
        let verdict = sbm_bench::verify_pair(&aig, &sbm, 4_000);
        verdicts.push(verdict);
        println!(
            "{:<12} {:>9} | {:>9} {:>8} | {:>9} {:>8} | {:>8} {:>9}",
            name,
            io,
            baseline.num_ands(),
            baseline.depth(),
            sbm.num_ands(),
            sbm.depth(),
            sbm_bench::pct(baseline.num_ands() as f64, sbm.num_ands() as f64),
            verdict,
        );
    }
    println!();
    println!(
        "sbm_script total: {:.1}s across {} benchmarks (threads: {threads})",
        script_wall.as_secs_f64(),
        processed.len()
    );
    if threads > 1 || ckpt_root.is_some() {
        println!();
        println!("{pipeline_report}");
    }
    if let Some(error) = &pipeline_report.checkpoint_error {
        println!();
        println!("checkpoint WARNING: {error} (run completed without crash safety)");
    }
    println!();
    println!("paper reference (full scale): arbiter 879/228, cavlc 483/78, div 19250/6228,");
    println!("i2c 710/25, log2 30522/348, mem_ctrl 7644/40, mult 25371/317, router 96/21,");
    println!("sin 4987/153, hypotenuse 209460/24926, sqrt 19706/5399, square 17010/343,");
    println!("voter 9817/66");

    // Section III-B: Boolean-difference applied monolithically to i2c and
    // cavlc (paper: 2.3 s and 1.2 s respectively).
    let micros = |d: std::time::Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    let mut extra = sbm_metrics::CounterSet::new();
    extra.add("script_us", micros(script_wall));
    println!();
    println!("Monolithic Boolean-difference resubstitution (Section III-B):");
    for name in ["i2c", "cavlc"] {
        let aig = sbm_epfl::generate(name, scale).expect("known benchmark");
        let mut opts = BdiffOptions::default();
        // Monolithic: one window covering the network (the paper applies
        // the method to the whole i2c/cavlc networks, Section III-B).
        opts.partition.max_nodes = usize::MAX;
        opts.partition.max_levels = u32::MAX;
        opts.partition.max_inputs = usize::MAX;
        let timer = Timer::start();
        let engine = Bdiff { options: opts };
        let result = engine.optimize(&aig, &EngineCtx::new(&Budget::unlimited()));
        let wall = timer.stop();
        extra.add(&format!("monolithic_bdiff_{name}_us"), micros(wall));
        println!(
            "  {name}: {} -> {} nodes in {:.2}s ({} pairs tried, {} accepted) [paper: i2c 2.3s, cavlc 1.2s]",
            aig.num_ands(),
            result.aig.num_ands(),
            wall.as_secs_f64(),
            result.stats.tried,
            result.stats.accepted,
        );
    }

    if let Some(path) = &report_json {
        let mut run = pipeline_report.run_report();
        run.tool = "table2".to_string();
        run.scale = format!("{scale:?}");
        run.threads = threads as u64;
        run.benchmarks = processed;
        run.extra = extra;
        println!();
        sbm_bench::write_report(path, &run);
    }
    sbm_bench::exit_on_mismatch(&verdicts);
}

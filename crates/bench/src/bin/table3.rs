//! Regenerates **Table III** — "Post Place&Route Results on 33 Industrial
//! Designs".
//!
//! Runs the baseline flow and the SBM-enhanced flow on the 33 synthetic
//! industrial-like designs (`sbm-asic`), measuring the same relative
//! metrics the paper reports: combinational area, no-clock dynamic power,
//! WNS, TNS and runtime, averaged w.r.t. baseline.
//!
//! Usage: `table3 [--designs N] [--threads N] [--checkpoint DIR]
//! [--sim-filter on|off] [--report-json PATH]` (default 33 designs,
//! serial, no checkpointing, filter on); any other argument is a usage
//! error. `--checkpoint DIR` persists each
//! design's optimization progress under `DIR/<design>`; rerunning into
//! the same `DIR` continues each interrupted design from there (see
//! table1). `--sim-filter off` disables the simulation-signature
//! candidate filter in the proposed flow (useful for measuring the
//! filter's effect; see `SbmOptions::sim_filter`). `--report-json PATH`
//! writes the aggregated run as a serialized `RunReport`.

use sbm_asic::designs::industrial_designs;
use sbm_asic::flow::{compare_flows_checkpointed, summarize};
use sbm_core::pipeline::PipelineReport;

fn main() {
    let args = sbm_bench::TableArgs::parse("table3", sbm_bench::TABLE3_FLAGS);
    let sbm_bench::TableArgs {
        designs: n,
        threads,
        checkpoint,
        sim_filter,
        report_json,
        ..
    } = args;
    println!(
        "Table III — Post-implementation results on {n} industrial-like designs \
         (threads: {threads}, sim filter: {})",
        if sim_filter { "on" } else { "off" }
    );
    if let Some(root) = &checkpoint {
        println!("checkpoint: {}", root.display());
    }
    println!();
    println!(
        "{:<10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "design",
        "base area",
        "SBM area",
        "base pwr",
        "SBM pwr",
        "base TNS",
        "SBM TNS",
        "base s",
        "SBM s"
    );
    let designs = industrial_designs(n);
    let mut pipeline_report = PipelineReport::default();
    let rows: Vec<_> = designs
        .iter()
        .map(|d| {
            let row = compare_flows_checkpointed(
                &d.name,
                &d.aig,
                0.85,
                threads,
                checkpoint.as_deref(),
                sim_filter,
            );
            pipeline_report.merge(&row.pipeline);
            println!(
                "{:<10} {:>10.1} {:>10.1} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>8.2} {:>8.2}",
                row.name,
                row.baseline.area,
                row.proposed.area,
                row.baseline.dyn_power,
                row.proposed.dyn_power,
                row.baseline_timing.tns,
                row.proposed_timing.tns,
                row.baseline.runtime,
                row.proposed.runtime,
            );
            row
        })
        .collect();

    if threads > 1 || checkpoint.is_some() {
        println!();
        println!("{pipeline_report}");
    }
    if let Some(error) = &pipeline_report.checkpoint_error {
        println!();
        println!("checkpoint WARNING: {error} (run completed without crash safety)");
    }
    if let Some(path) = &report_json {
        let mut run = pipeline_report.run_report();
        run.tool = "table3".to_string();
        run.scale = format!("{n} designs");
        run.threads = threads as u64;
        run.benchmarks = designs.iter().map(|d| d.name.clone()).collect();
        println!();
        sbm_bench::write_report(path, &run);
    }
    let s = summarize(&rows);
    println!();
    println!("Flow        Comb. Area   No-clk Dyn. Pow.   WNS        TNS       Runtime");
    println!("Baseline    1            1                  1          1         1");
    println!(
        "Proposed    {:+.2}%       {:+.2}%             {:+.2}%     {:+.2}%    {:+.2}%",
        s.area_pct, s.power_pct, s.wns_pct, s.tns_pct, s.runtime_pct
    );
    println!();
    println!("paper reference: area -2.20%, power -1.15%, WNS -0.56%, TNS -5.99%, runtime +1.75%");
}

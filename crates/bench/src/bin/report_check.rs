//! Validates a `BENCH_*.json` run report with the same strict decoder
//! the tools serialize with — the CI gate against schema drift.
//!
//! Usage: `report_check PATH [--require-bdd] [--require-sim]`.
//!
//! The file must decode via `RunReport::from_json` (strict: a missing,
//! unknown or mistyped field, or a schema-version mismatch, fails) and
//! re-encode byte-identically, and no engine row may report more
//! accepted moves than it tried. `--require-bdd` additionally demands
//! nonzero aggregated BDD counters and a nonempty per-engine latency
//! histogram — the layers this schema exists to stop discarding.
//! `--require-sim` demands live simulation-filter counters (some
//! candidates filtered, i.e. `hits + misses > 0`) — the gate that the
//! signature service is actually consulted, not silently bypassed.

use sbm_metrics::RunReport;

fn fail(msg: &str) -> ! {
    eprintln!("report_check: {msg}");
    std::process::exit(sbm_metrics::exit::VALIDATION);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let require_bdd = args.iter().any(|a| a == "--require-bdd");
    let require_sim = args.iter().any(|a| a == "--require-sim");
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: report_check PATH [--require-bdd] [--require-sim]");
        std::process::exit(sbm_metrics::exit::USAGE);
    };

    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            // Unreadable file = environment failure, not a bad report.
            eprintln!("report_check: cannot read {path}: {e}");
            std::process::exit(sbm_metrics::exit::RUNTIME);
        }
    };
    let report = match RunReport::from_json(&text) {
        Ok(report) => report,
        Err(e) => fail(&format!("{path} does not decode: {e}")),
    };
    if report.to_json() != text {
        fail(&format!("{path} re-encodes differently (unstable output)"));
    }
    if report.tool.is_empty() {
        fail(&format!("{path} names no producing tool"));
    }
    if let Some(e) = report.engines.iter().find(|e| e.accepted > e.tried) {
        fail(&format!(
            "{path}: engine {} accepted {} of {} tried moves",
            e.name, e.accepted, e.tried
        ));
    }

    if require_bdd {
        if report.bdd.managers_recycled == 0 || report.bdd.ite_calls == 0 {
            fail(&format!(
                "{path}: aggregated BDD counters are zero — the harvest-before-reset \
                 path is not feeding the report"
            ));
        }
        if !report.engines.iter().any(|e| !e.latency_us.is_empty()) {
            fail(&format!(
                "{path}: every per-engine latency histogram is empty"
            ));
        }
    }

    if require_sim && report.sim_filter.hits + report.sim_filter.misses == 0 {
        fail(&format!(
            "{path}: sim_filter counters are zero — the signature service \
             is not filtering candidates"
        ));
    }

    println!(
        "{path}: OK (tool {}, {} benchmarks, {} windows, {} engines)",
        report.tool,
        report.benchmarks.len(),
        report.windows.total,
        report.engines.len()
    );
}

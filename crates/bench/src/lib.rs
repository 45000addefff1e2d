//! Shared helpers for the table-regeneration binaries and benches.
//!
//! Each binary regenerates one artifact of the paper's evaluation
//! (Section V): `table1` (EPFL LUT-6 area), `table2` (smallest AIGs),
//! `table3` (post-implementation flow comparison on 33 designs) and
//! `fig1` (the Boolean-difference worked example). The criterion benches
//! cover runtime behaviour and the ablations called out in `DESIGN.md`.

use std::time::Duration;

use sbm_aig::Aig;
use sbm_check::{CheckLevel, FaultPlan};
use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

/// The verdict label of a pair that differs on some input.
pub const MISMATCH: &str = "MISMATCH";

/// Verifies optimization results the way the paper does ("verified with
/// an industrial formal equivalence checking flow"): a SAT miter with a
/// conflict budget on designs of at most `sat_node_limit` ANDs. Returns
/// `"eq(SAT)"` for a proof and [`MISMATCH`] for a counterexample. Without
/// a proof — the budget ran out, or the design is too big for the miter
/// — random simulation screens the pair: `"unproven(sim)"` when it finds
/// no difference, [`MISMATCH`] when it does. A pair whose input or output
/// counts differ is a [`MISMATCH`] before either check runs.
pub fn verify_pair(original: &Aig, optimized: &Aig, sat_node_limit: usize) -> &'static str {
    if original.num_inputs() != optimized.num_inputs()
        || original.num_outputs() != optimized.num_outputs()
    {
        return MISMATCH;
    }
    let verdict = (original.num_ands().max(optimized.num_ands()) <= sat_node_limit).then(|| {
        MiterOracle::new()
            .with_conflict_budget(Some(200_000))
            .check(original, optimized)
    });
    verdict_label(verdict, original, optimized)
}

/// The label of [`verify_pair`] for a SAT `verdict` (`None` when the
/// miter was not run).
fn verdict_label(verdict: Option<Verdict>, original: &Aig, optimized: &Aig) -> &'static str {
    match verdict {
        Some(Verdict::Equivalent) => "eq(SAT)",
        Some(Verdict::Refuted(_)) => MISMATCH,
        Some(Verdict::Unknown) | None if sim_equal(original, optimized) => "unproven(sim)",
        Some(Verdict::Unknown) | None => MISMATCH,
    }
}

/// Ends a table binary with [`sbm_metrics::exit::VALIDATION`] when any
/// row's verdict was [`MISMATCH`]; returns normally otherwise.
pub fn exit_on_mismatch(verdicts: &[&str]) {
    let mismatches = verdicts.iter().filter(|&&v| v == MISMATCH).count();
    if mismatches > 0 {
        eprintln!("{mismatches} result(s) are NOT equivalent to their input");
        std::process::exit(sbm_metrics::exit::VALIDATION);
    }
}

/// Random-simulation equivalence screen (identical seeds ⇒ identical
/// patterns).
pub fn sim_equal(a: &Aig, b: &Aig) -> bool {
    let sa = sbm_aig::sim::Signatures::random(a, 4, 0xFEED);
    let sb = sbm_aig::sim::Signatures::random(b, 4, 0xFEED);
    a.outputs()
        .into_iter()
        .zip(b.outputs())
        .all(|(x, y)| (0..4).all(|w| sa.lit_word(x, w) == sb.lit_word(y, w)))
}

/// Parses the shared `--threads N` CLI argument of the table binaries
/// (default 1 = serial).
pub fn threads_arg() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1);
        }
    }
    1
}

/// Parses the shared `--sim-filter on|off` CLI argument of the table
/// binaries (default `on`): whether runs maintain the shared
/// simulation-signature service that filters candidates before BDD/SAT
/// work and harvests counterexamples from failed equivalence checks.
/// The filter is a sound necessary condition (it never costs quality)
/// and only skips work: either setting runs the same schedule and gives
/// the same result at every `--threads N`; see `SbmOptions::sim_filter`.
pub fn sim_filter_arg() -> bool {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--sim-filter" {
            let Some(value) = args.next() else {
                eprintln!("--sim-filter needs a value: on | off");
                std::process::exit(sbm_metrics::exit::USAGE);
            };
            return match value.as_str() {
                "on" => true,
                "off" => false,
                other => {
                    eprintln!("--sim-filter needs on|off, got {other:?}");
                    std::process::exit(sbm_metrics::exit::USAGE);
                }
            };
        }
    }
    true
}

/// Parses the shared `--check off|boundaries|paranoid` CLI argument of
/// the table binaries (default `off`). An unrecognized level aborts with
/// a usage message rather than silently running unchecked.
pub fn check_arg() -> CheckLevel {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--check" {
            let Some(value) = args.next() else {
                eprintln!("--check needs a level: off | boundaries | paranoid");
                std::process::exit(sbm_metrics::exit::USAGE);
            };
            return value.parse().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(sbm_metrics::exit::USAGE);
            });
        }
    }
    CheckLevel::Off
}

/// Parses the shared `--deadline SECONDS` CLI argument (default `None` =
/// unbounded). The run degrades gracefully at the deadline instead of
/// aborting; non-positive or unparsable values abort with a usage message.
pub fn deadline_arg() -> Option<Duration> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--deadline" {
            let seconds: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
            if seconds <= 0.0 {
                eprintln!("--deadline needs a positive number of seconds");
                std::process::exit(sbm_metrics::exit::USAGE);
            }
            return Some(Duration::from_secs_f64(seconds));
        }
    }
    None
}

/// Parses the shared `--fault-seed N` / `--fault-rate R` CLI arguments
/// into a deterministic [`FaultPlan`] (each of panic/delay/bailout gets
/// probability `R` per engine invocation). Returns `None` — no injection,
/// zero overhead — unless at least one of the flags is present; a bare
/// `--fault-seed` defaults the rate to 0.1, a bare `--fault-rate`
/// defaults the seed to 1.
pub fn fault_plan_arg() -> Option<FaultPlan> {
    let mut seed: Option<u64> = None;
    let mut rate: Option<f64> = None;
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fault-seed" => {
                seed = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--fault-seed needs an integer seed");
                    std::process::exit(sbm_metrics::exit::USAGE);
                }));
            }
            "--fault-rate" => {
                let r: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(-1.0);
                if !(0.0..=1.0 / 3.0).contains(&r) {
                    eprintln!("--fault-rate needs a probability in [0, 0.333]");
                    std::process::exit(sbm_metrics::exit::USAGE);
                }
                rate = Some(r);
            }
            _ => {}
        }
    }
    if seed.is_none() && rate.is_none() {
        return None;
    }
    Some(FaultPlan::uniform(seed.unwrap_or(1), rate.unwrap_or(0.1)))
}

/// Parses the shared `--checkpoint DIR` CLI argument of the table
/// binaries: every script run persists crash-safe progress under a
/// per-benchmark subdirectory of `DIR`, and a rerun into the same `DIR`
/// picks each benchmark up from its snapshot when that snapshot was
/// recorded for the same input and options (any other starts fresh).
pub fn checkpoint_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--checkpoint" {
            let Some(value) = args.next() else {
                eprintln!("--checkpoint needs a directory");
                std::process::exit(sbm_metrics::exit::USAGE);
            };
            return Some(std::path::PathBuf::from(value));
        }
    }
    None
}

/// Parses the shared `--only NAMES` CLI argument: restricts a table
/// binary to the benchmarks matched by [`only_matches`] (used by the CI
/// smokes to keep the run small). `NAMES` is a comma-separated list of
/// substrings, e.g. `--only i2c,priority`.
pub fn only_arg() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--only" {
            let Some(value) = args.next() else {
                eprintln!("--only needs a benchmark name (comma-separated substring match)");
                std::process::exit(sbm_metrics::exit::USAGE);
            };
            return Some(value);
        }
    }
    None
}

/// True when `name` is selected by an `--only` filter: no filter selects
/// everything, otherwise any comma-separated entry matching as a
/// substring selects the benchmark.
pub fn only_matches(only: &Option<String>, name: &str) -> bool {
    match only {
        None => true,
        Some(list) => list.split(',').any(|o| !o.is_empty() && name.contains(o)),
    }
}

/// Parses the shared `--report-json PATH` CLI argument of the table
/// binaries: after the run, a serialized [`sbm_metrics::RunReport`] is
/// written to `PATH` (see [`write_report`]).
pub fn report_json_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--report-json" {
            let Some(value) = args.next() else {
                eprintln!("--report-json needs an output path");
                std::process::exit(sbm_metrics::exit::USAGE);
            };
            return Some(std::path::PathBuf::from(value));
        }
    }
    None
}

/// Writes a [`sbm_metrics::RunReport`] to the `--report-json` path,
/// aborting loudly on I/O failure (a benchmark run whose report silently
/// vanished is worse than one that failed). The exit code is
/// [`sbm_metrics::exit::RUNTIME`]: the invocation was fine, the
/// environment failed.
pub fn write_report(path: &std::path::Path, report: &sbm_metrics::RunReport) {
    use sbm_vfs::Vfs;
    if let Err(e) = sbm_vfs::RealVfs.write_atomic(path, report.to_json().as_bytes()) {
        eprintln!("cannot write report to {}: {e}", path.display());
        std::process::exit(sbm_metrics::exit::RUNTIME);
    }
    println!("run report written to {}", path.display());
}

/// Formats a ratio as the paper's "-x.xx%" convention.
pub fn pct(before: f64, after: f64) -> String {
    if before == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.2}%", (after - before) / before * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbm_aig::Lit;

    /// `(a & b) | c` built twice, once through De Morgan, plus a network
    /// that differs from both on `a = b = 1, c = 0`.
    fn pair_and_impostor() -> (Aig, Aig, Aig) {
        let build = |f: fn(&mut Aig, Lit, Lit, Lit) -> Lit| {
            let mut aig = Aig::new();
            let [a, b, c] = [(); 3].map(|()| aig.add_input());
            let out = f(&mut aig, a, b, c);
            aig.add_output(out);
            aig
        };
        let original = build(|g, a, b, c| {
            let ab = g.and(a, b);
            g.or(ab, c)
        });
        let rebuilt = build(|g, a, b, c| {
            let nab = g.nand(a, b);
            g.nand(nab, !c)
        });
        let impostor = build(|g, a, b, c| {
            let ab = g.xor(a, b);
            g.or(ab, c)
        });
        (original, rebuilt, impostor)
    }

    #[test]
    fn proven_pair_is_eq_sat() {
        let (original, rebuilt, _) = pair_and_impostor();
        assert_eq!(verify_pair(&original, &rebuilt, 100), "eq(SAT)");
    }

    #[test]
    fn refuted_pair_is_mismatch() {
        let (original, _, impostor) = pair_and_impostor();
        assert_eq!(verify_pair(&original, &impostor, 100), MISMATCH);
    }

    #[test]
    fn pair_without_proof_is_simulated_never_called_equal() {
        let (original, rebuilt, impostor) = pair_and_impostor();
        // Too big for the miter: simulation decides.
        assert_eq!(verify_pair(&original, &rebuilt, 0), "unproven(sim)");
        assert_eq!(verify_pair(&original, &impostor, 0), MISMATCH);
        // A SAT budget-out is simulated the same way.
        let unknown = Some(Verdict::Unknown);
        assert_eq!(
            verdict_label(unknown.clone(), &original, &rebuilt),
            "unproven(sim)"
        );
        assert_eq!(verdict_label(unknown, &original, &impostor), MISMATCH);
    }

    #[test]
    fn pair_with_another_interface_is_mismatch() {
        // Under the miter's node limit the miter would refuse the pair;
        // above it, simulation would compare only the shared outputs.
        let (original, rebuilt, _) = pair_and_impostor();
        let mut extra_output = rebuilt.clone();
        let out = extra_output.outputs()[0];
        extra_output.add_output(out);
        let mut extra_input = rebuilt;
        extra_input.add_input();
        for limit in [0, 100] {
            assert_eq!(verify_pair(&original, &extra_output, limit), MISMATCH);
            assert_eq!(verify_pair(&original, &extra_input, limit), MISMATCH);
        }
    }
}

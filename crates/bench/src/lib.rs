//! Shared helpers for the table-regeneration binaries and benches.
//!
//! Each binary regenerates one artifact of the paper's evaluation
//! (Section V): `table1` (EPFL LUT-6 area), `table2` (smallest AIGs),
//! `table3` (post-implementation flow comparison on 33 designs) and
//! `fig1` (the Boolean-difference worked example). The criterion benches
//! cover runtime behaviour and the ablations called out in `DESIGN.md`.

use std::path::PathBuf;
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

/// Every flag a table binary may accept, with the value it takes (empty
/// for a switch). Each binary accepts its own subset: [`TABLE1_FLAGS`],
/// [`TABLE2_FLAGS`], [`TABLE3_FLAGS`].
const FLAGS: [(&str, &str); 11] = [
    ("--full", ""),
    ("--threads", "N"),
    ("--check", "off|boundaries|paranoid"),
    ("--deadline", "SECONDS"),
    ("--fault-seed", "N"),
    ("--fault-rate", "R"),
    ("--checkpoint", "DIR"),
    ("--only", "NAMES"),
    ("--sim-filter", "on|off"),
    ("--report-json", "PATH"),
    ("--designs", "N"),
];

/// The flags `table1` accepts.
pub const TABLE1_FLAGS: &[&str] = &[
    "--full",
    "--threads",
    "--check",
    "--deadline",
    "--fault-seed",
    "--fault-rate",
    "--checkpoint",
    "--only",
    "--sim-filter",
    "--report-json",
];
/// The flags `table2` accepts.
pub const TABLE2_FLAGS: &[&str] = &[
    "--full",
    "--threads",
    "--deadline",
    "--checkpoint",
    "--only",
    "--sim-filter",
    "--report-json",
];
/// The flags `table3` accepts.
pub const TABLE3_FLAGS: &[&str] = &[
    "--designs",
    "--threads",
    "--checkpoint",
    "--sim-filter",
    "--report-json",
];

/// The command line of a table binary, parsed in one pass over the
/// flags the binary accepts. Anything else — an unknown, misspelt or
/// retired flag, a stray positional argument, a missing or malformed
/// value — is a usage error, never silently ignored.
#[derive(Debug, Clone)]
pub struct TableArgs {
    /// `--full`: paper-scale benchmarks (default: reduced scale).
    pub full: bool,
    /// `--threads N`, N ≥ 1 (default 1 = serial).
    pub threads: usize,
    /// `--check off|boundaries|paranoid` (default `off`).
    pub check: CheckLevel,
    /// `--deadline SECONDS` per script run, positive (default `None` =
    /// unbounded). The run degrades gracefully at the deadline instead
    /// of aborting.
    pub deadline: Option<Duration>,
    /// `--fault-seed N` / `--fault-rate R`: a deterministic
    /// [`FaultPlan`] (each of panic/delay/bailout gets probability `R`,
    /// in `[0, 1/3]`, per engine invocation). `None` — no injection, zero
    /// overhead — unless at least one flag is given; a bare
    /// `--fault-seed` defaults the rate to 0.1, a bare `--fault-rate`
    /// the seed to 1.
    pub fault_plan: Option<FaultPlan>,
    /// `--checkpoint DIR`: every script run persists crash-safe
    /// progress under a per-benchmark subdirectory of `DIR`, and a rerun
    /// into the same `DIR` picks each benchmark up from its snapshot
    /// when that snapshot was recorded for the same input and options
    /// (any other starts fresh).
    pub checkpoint: Option<PathBuf>,
    /// `--only NAMES`: restricts the run to the benchmarks matched by
    /// [`only_matches`]; `NAMES` is a comma-separated list of
    /// substrings, e.g. `--only i2c,priority`.
    pub only: Option<String>,
    /// `--sim-filter on|off` (default `on`): whether runs maintain the
    /// shared simulation-signature service that filters candidates
    /// before BDD/SAT work and harvests counterexamples from failed
    /// equivalence checks. The filter is a sound necessary condition (it
    /// never costs quality) and only skips work: either setting runs the
    /// same schedule and gives the same result at every `--threads N`;
    /// see `SbmOptions::sim_filter`.
    pub sim_filter: bool,
    /// `--report-json PATH`: after the run, a serialized
    /// [`sbm_metrics::RunReport`] is written to `PATH` (see
    /// [`write_report`]).
    pub report_json: Option<PathBuf>,
    /// `--designs N`: how many designs `table3` runs (default 33).
    pub designs: usize,
}

impl TableArgs {
    /// Parses the process arguments of the binary `program`, which
    /// accepts the flags in `accepted`. On a usage error it prints the
    /// reason and a usage line and exits with
    /// [`sbm_metrics::exit::USAGE`].
    pub fn parse(program: &str, accepted: &[&str]) -> TableArgs {
        TableArgs::parse_from(std::env::args().skip(1), accepted).unwrap_or_else(|e| {
            let usage: String = FLAGS
                .iter()
                .filter(|(flag, _)| accepted.contains(flag))
                .map(|(flag, value)| match *value {
                    "" => format!(" [{flag}]"),
                    value => format!(" [{flag} {value}]"),
                })
                .collect();
            eprintln!("{program}: {e}");
            eprintln!("usage: {program}{usage}");
            std::process::exit(sbm_metrics::exit::USAGE);
        })
    }

    /// Parses `args` (without the program name) over the flags in
    /// `accepted`.
    ///
    /// # Errors
    ///
    /// The reason, for any argument that is not an accepted flag, and
    /// for a missing or malformed value.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        accepted: &[&str],
    ) -> Result<TableArgs, String> {
        let mut out = TableArgs {
            full: false,
            threads: 1,
            check: CheckLevel::Off,
            deadline: None,
            fault_plan: None,
            checkpoint: None,
            only: None,
            sim_filter: true,
            report_json: None,
            designs: 33,
        };
        let (mut fault_seed, mut fault_rate) = (None, None);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(&(flag, hint)) = FLAGS
                .iter()
                .find(|(flag, _)| *flag == arg && accepted.contains(flag))
            else {
                return Err(format!("unknown argument {arg:?}"));
            };
            if flag == "--full" {
                out.full = true;
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value: {hint}"))?;
            let bad = || format!("{flag} needs {hint}, got {value:?}");
            match flag {
                "--threads" => {
                    out.threads = value.parse().ok().filter(|&n| n >= 1).ok_or_else(bad)?;
                }
                "--check" => out.check = value.parse().map_err(|e| format!("{e}"))?,
                "--deadline" => {
                    let seconds: f64 = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds.is_finite()) {
                        return Err(format!("{flag} needs a positive number of seconds"));
                    }
                    out.deadline = Some(Duration::from_secs_f64(seconds));
                }
                "--fault-seed" => fault_seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--fault-rate" => {
                    let rate: f64 = value.parse().map_err(|_| bad())?;
                    if !(0.0..=1.0 / 3.0).contains(&rate) {
                        return Err(format!("{flag} needs a probability in [0, 0.333]"));
                    }
                    fault_rate = Some(rate);
                }
                "--checkpoint" => out.checkpoint = Some(PathBuf::from(value)),
                "--only" => out.only = Some(value),
                "--sim-filter" => {
                    out.sim_filter = match value.as_str() {
                        "on" => true,
                        "off" => false,
                        _ => return Err(bad()),
                    };
                }
                "--report-json" => out.report_json = Some(PathBuf::from(value)),
                "--designs" => out.designs = value.parse().map_err(|_| bad())?,
                _ => unreachable!("every entry of FLAGS is handled above"),
            }
        }
        if fault_seed.is_some() || fault_rate.is_some() {
            out.fault_plan = Some(FaultPlan::uniform(
                fault_seed.unwrap_or(1),
                fault_rate.unwrap_or(0.1),
            ));
        }
        Ok(out)
    }
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

    fn parse(line: &str, accepted: &[&str]) -> Result<TableArgs, String> {
        TableArgs::parse_from(line.split_whitespace().map(String::from), accepted)
    }

    #[test]
    fn every_flag_the_scripts_pass_parses() {
        // The table1 and table3 command lines of ci.sh and run_tables.sh
        // (which runs table2 without flags).
        for line in [
            "",
            "--fault-seed 1 --fault-rate 0.15 --deadline 5",
            "--only i2c --checkpoint ck --deadline 0.2",
            "--only i2c --checkpoint ck",
            "--only i2c --checkpoint ck --sim-filter off",
            "--only i2c,priority --threads 2 --report-json BENCH_quick.json",
            "--only priority --threads 2",
            "--only priority --threads 2 --sim-filter off",
            "--only priority --threads 1 --sim-filter off",
            "--only no-such-benchmark",
        ] {
            parse(line, TABLE1_FLAGS).unwrap_or_else(|e| panic!("table1 {line}: {e}"));
        }
        parse("--full --threads 2 --only i2c", TABLE2_FLAGS).expect("table2");
        let args = parse("--designs 8", TABLE3_FLAGS).expect("table3");
        assert_eq!(args.designs, 8);

        let args = parse(
            "--full --threads 4 --check paranoid --deadline 1.5 --fault-seed 9 \
             --checkpoint ck --only a,b --sim-filter off --report-json r.json",
            TABLE1_FLAGS,
        )
        .expect("every table1 flag");
        assert!(args.full && !args.sim_filter);
        assert_eq!(args.threads, 4);
        assert_eq!(args.check, CheckLevel::Paranoid);
        assert_eq!(args.deadline, Some(Duration::from_millis(1500)));
        let plan = args.fault_plan.expect("a bare seed injects");
        assert_eq!((plan.seed, plan.panic_rate), (9, 0.1));
        assert_eq!(args.checkpoint, Some(PathBuf::from("ck")));
        assert_eq!(args.only.as_deref(), Some("a,b"));
        assert_eq!(args.report_json, Some(PathBuf::from("r.json")));

        let defaults = parse("", TABLE3_FLAGS).expect("no flags");
        assert!(!defaults.full && defaults.sim_filter && defaults.fault_plan.is_none());
        assert_eq!((defaults.threads, defaults.designs), (1, 33));
    }

    #[test]
    fn anything_but_a_known_flag_is_a_usage_error() {
        for line in [
            "--resume",
            "--only no-such --thred 2 --resume",
            "i2c",
            "--threads",
            "--threads 0",
            "--threads two",
            "--check loud",
            "--deadline 0",
            "--deadline -1",
            "--fault-seed x",
            "--fault-rate 0.5",
            "--sim-filter bogus",
            "--only",
            "--designs 8",
            "--full=1",
        ] {
            assert!(
                parse(line, TABLE1_FLAGS).is_err(),
                "table1 accepted {line:?}"
            );
        }
        // A flag of another table binary is not this one's.
        assert!(parse("--full", TABLE3_FLAGS).is_err());
        assert!(parse("--check off", TABLE2_FLAGS).is_err());
        assert!(parse("--designs x", TABLE3_FLAGS).is_err());
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

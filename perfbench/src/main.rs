//! End-to-end and per-layer benchmark of the SBM flow and its job server.
//!
//! ```text
//! sbm-perfbench --workload control|server [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root (it keeps scratch files under
//! `.perfbench-work/`). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones; `perfbench/README.md` says which end-to-end metric
//! each layer metric should move. Any wrong output — an unproven or
//! refuted miter, a repeat that does not reproduce its network and
//! counters exactly, a server result that differs from a direct script
//! call on the same input — makes the run incorrect and the exit code 1.

mod batch;
mod flow;
mod repeat;
mod server;
mod util;

use std::path::{Path, PathBuf};

use sbm_metrics::Timer;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 30.0;
/// Scratch directory, relative to the working directory.
const WORK_ROOT: &str = ".perfbench-work";

/// What a workload measured.
pub struct RunOutcome {
    pub metrics: util::Metrics,
    pub attempted: u64,
    /// One entry per failed operation.
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

#[derive(Clone, Copy)]
enum Workload {
    Control,
    Server,
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("sbm-perfbench: {why}");
    eprintln!(
        "usage: sbm-perfbench --workload control|server [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(sbm_metrics::exit::USAGE);
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: Workload::Control,
        name: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = match value.as_str() {
                    "control" => Workload::Control,
                    "server" => Workload::Server,
                    other => usage(&format!("unknown workload {other:?}")),
                };
                parsed.name = value.clone();
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"));
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"));
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                };
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if parsed.name.is_empty() {
        usage("--workload is required");
    }
    parsed
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn run(args: &Args, work: &Path) -> Result<RunOutcome, String> {
    let trace_dir = args.trace.then(|| work.join("trace"));
    let trace_dir = trace_dir.as_deref();
    match args.workload {
        Workload::Control => batch::run(args.seed, args.seconds, work, trace_dir),
        Workload::Server => server::run(args.seed, args.seconds, work, trace_dir),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--repeat") {
        let (Some(input), Some(kind)) = (raw.get(1), raw.get(2)) else {
            usage("--repeat needs an input network and the script options")
        };
        let trace = match (raw.get(3), raw.get(4).map(String::as_str)) {
            (None, None) => None,
            (Some(dir), Some(order @ ("traced-first" | "traced-last"))) => Some(repeat::Trace {
                dir: PathBuf::from(dir),
                first: order == "traced-first",
            }),
            _ => usage("--repeat takes a trace directory and traced-first|traced-last"),
        };
        match repeat::record(Path::new(input), kind, trace.as_ref()) {
            Ok(record) => print!("{record}"),
            Err(e) => {
                eprintln!("sbm-perfbench repeat: {e}");
                std::process::exit(sbm_metrics::exit::RUNTIME);
            }
        }
        return;
    }
    if raw.first().map(String::as_str) == Some("--serve") {
        let (Some(root), Some(addr_file)) = (raw.get(1), raw.get(2)) else {
            usage("--serve needs a store root and an address file")
        };
        if let Err(e) = server::serve(Path::new(root), Path::new(addr_file)) {
            eprintln!("sbm-perfbench server: {e}");
            std::process::exit(sbm_metrics::exit::RUNTIME);
        }
        return;
    }
    let args = parse_args(&raw);
    let wall = Timer::start();
    let probe_start = util::probe_ms();
    let work = WorkDir(Path::new(WORK_ROOT).join(format!("{}-{}", args.name, std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("sbm-perfbench: cannot create {}: {e}", work.0.display());
        std::process::exit(sbm_metrics::exit::RUNTIME);
    }
    let mut outcome = match run(&args, &work.0) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("sbm-perfbench: {e}");
            std::process::exit(sbm_metrics::exit::RUNTIME);
        }
    };
    drop(work);
    let probe_end = util::probe_ms();
    let wall_s = wall.stop().as_secs_f64();
    if args.trace {
        outcome.metrics.put("run.wall_s", wall_s, "s");
        outcome
            .metrics
            .put("host.probe_ms", (probe_start + probe_end) / 2.0, "ms");
    }
    for name in outcome.metrics.non_finite() {
        outcome
            .failures
            .push(format!("metric {name} is not a number"));
    }

    println!(
        "workload {} seed {} trace {}",
        args.name,
        args.seed,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "host probe {probe_start:.1} ms at start, {probe_end:.1} ms at end; run wall {wall_s:.2} s"
    );
    for why in &outcome.failures {
        println!("FAILED: {why}");
    }
    print!("{}", outcome.metrics.table());
    let failed = outcome.failures.len() as u64;
    let attempted = outcome.attempted.max(failed).max(1);
    let correct = failed == 0;
    println!(
        "{}",
        outcome.metrics.result_line(correct, attempted, failed)
    );
    if !correct {
        std::process::exit(sbm_metrics::exit::VALIDATION);
    }
}

//! The measured flow shared by every workload: repeats of every network
//! (see `repeat`), and the metrics they add up to.
//!
//! Networks run round-robin in whole cycles (d1, d2, d3, d1, …), so the
//! repeats of one network lie a cycle apart and one slow period of the
//! host cannot hit every repeat of one call. Each call is reported as
//! its fastest repeat (the host only ever adds time, and every repeat
//! does the same work), and every network has as many repeats as the
//! others.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use sbm_aig::Aig;
use sbm_metrics::Timer;

use crate::repeat::{self, Trace, ENGINES, STEPS};
use crate::util::{median, Metrics};

/// The four timed calls of one repeat.
const CALLS: [&str; 4] = ["time.baseline", "time.script", "time.map", "time.verify"];

/// One named input network.
pub struct Design {
    pub name: String,
    pub input: Aig,
}

/// How many cycles to run: at least `min`, at most `max`, and no new
/// cycle once one more like the last would end past `budget_s`.
pub struct CyclePlan {
    pub budget_s: f64,
    pub min: usize,
    pub max: usize,
}

/// What one repeat reported.
struct Record {
    values: BTreeMap<String, f64>,
    failures: Vec<String>,
    fingerprint: String,
    aiger: String,
}

fn parse_record(out: &str) -> Result<Record, String> {
    let mut rec = Record {
        values: BTreeMap::new(),
        failures: Vec::new(),
        fingerprint: String::new(),
        aiger: String::new(),
    };
    let mut lines = out.split_inclusive('\n');
    for line in lines.by_ref() {
        let line = line.trim_end();
        if line == "aiger" {
            break;
        }
        let (key, value) = line.split_once(' ').ok_or("malformed record line")?;
        match key {
            "failure" => rec.failures.push(value.to_string()),
            "fingerprint" => rec.fingerprint = value.to_string(),
            _ => {
                let value = value.parse().map_err(|_| format!("bad value for {key}"))?;
                rec.values.insert(key.to_string(), value);
            }
        }
    }
    rec.aiger = lines.collect();
    if rec.fingerprint.is_empty() || rec.aiger.is_empty() {
        return Err("incomplete record".to_string());
    }
    Ok(rec)
}

/// Says how a repeat diverged from the network's first repeat: the
/// result network, and which counters (times and memory aside).
fn divergence(first: &Record, rec: &Record) -> String {
    let measured = |key: &str| key.starts_with("time.") || key.ends_with("_s") || key == "rss_mb";
    let counters: Vec<&str> = first
        .values
        .iter()
        .filter(|(key, value)| !measured(key) && rec.values.get(*key) != Some(value))
        .map(|(key, _)| key.as_str())
        .collect();
    let network = if first.aiger == rec.aiger {
        "same result network"
    } else {
        "different result network"
    };
    format!(
        "not a repeat of the first run: {network}, counters differ: [{}]",
        counters.join(", ")
    )
}

/// Runs one repeat of the network in `input` in a child process.
fn run_child(input: &Path, kind: &str, trace: Option<&Trace>) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("--repeat").arg(input).arg(kind);
    if let Some(trace) = trace {
        cmd.arg(&trace.dir).arg(if trace.first {
            "traced-first"
        } else {
            "traced-last"
        });
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a repeat: {e}"))?;
    if !out.status.success() {
        return Err(format!("the repeat exited with {}", out.status));
    }
    parse_record(&String::from_utf8_lossy(&out.stdout))
}

/// One network's repeats.
pub struct NetRun {
    pub name: String,
    input_ands: usize,
    records: Vec<Record>,
}

impl NetRun {
    fn values(&self, key: &str) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.values.get(key).copied().unwrap_or(f64::NAN))
            .collect()
    }

    fn median(&self, key: &str) -> f64 {
        median(&self.values(key))
    }

    /// The fastest repeat's time. Every repeat does the same work (the
    /// fingerprint check makes sure), and the host only ever adds time,
    /// so the fastest repeat is the one least hit by a slow period.
    fn fastest(&self, key: &str) -> f64 {
        self.values(key).into_iter().fold(f64::INFINITY, f64::min)
    }

    /// A count from the first repeat (every repeat has the same).
    fn first(&self, key: &str) -> f64 {
        self.records
            .first()
            .and_then(|r| r.values.get(key))
            .copied()
            .unwrap_or(f64::NAN)
    }

    /// Sum of the fastest time of each call, in seconds.
    pub fn flow_s(&self) -> f64 {
        CALLS.iter().map(|c| self.fastest(c)).sum()
    }

    /// The script result in ASCII AIGER.
    pub fn result_aiger(&self) -> Option<&str> {
        self.records.first().map(|r| r.aiger.as_str())
    }

    fn proven(&self) -> bool {
        !self.records.is_empty() && self.records.iter().all(|r| r.values.contains_key("proven"))
    }
}

/// All networks of one flow measurement.
pub struct FlowRun {
    pub nets: Vec<NetRun>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub cycles: usize,
}

/// Runs `designs` round-robin under `plan` with the script options
/// `kind` (see `repeat::options`); `between` runs after every cycle (the
/// callers time repeats of their set-up there). Each repeat runs in a
/// child process of its own, or in this process when `in_process`. The
/// inputs are written under `work`; with `trace_dir` every repeat also
/// runs the traced script, before the untraced calls in every other
/// repeat, so that neither runs warm in every repeat.
pub fn measure(
    designs: &[Design],
    kind: &str,
    in_process: bool,
    plan: &CyclePlan,
    work: &Path,
    trace_dir: Option<&Path>,
    between: &mut dyn FnMut(),
) -> Result<FlowRun, String> {
    let dir = work.join("inputs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut inputs: Vec<PathBuf> = Vec::new();
    for (i, design) in designs.iter().enumerate() {
        let path = dir.join(format!("{i}.aag"));
        std::fs::write(&path, sbm_aig::aiger::write(&design.input))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        inputs.push(path);
    }
    let mut run = FlowRun {
        nets: designs
            .iter()
            .map(|d| NetRun {
                name: d.name.clone(),
                input_ands: d.input.num_ands(),
                records: Vec::new(),
            })
            .collect(),
        attempted: 0,
        failures: Vec::new(),
        cycles: 0,
    };
    let clock = Timer::start();
    let mut last_cycle = 0.0;
    while run.cycles < plan.max
        && (run.cycles < plan.min || clock.elapsed().as_secs_f64() + last_cycle <= plan.budget_s)
    {
        let cycle = Timer::start();
        for (i, (input, net)) in inputs.iter().zip(&mut run.nets).enumerate() {
            run.attempted += 1;
            let trace = trace_dir.map(|d| Trace {
                dir: d.join(format!("net-{}", run.attempted)),
                first: (i + run.cycles) % 2 == 1,
            });
            let rec = if in_process {
                repeat::record(input, kind, trace.as_ref()).and_then(|r| parse_record(&r))
            } else {
                run_child(input, kind, trace.as_ref())
            };
            let problem = match rec {
                Ok(rec) => {
                    let mut problems = rec.failures.clone();
                    if let Some(first) = net.records.first() {
                        if first.fingerprint != rec.fingerprint {
                            problems.push(divergence(first, &rec));
                        }
                    }
                    net.records.push(rec);
                    (!problems.is_empty()).then(|| problems.join("; "))
                }
                Err(why) => Some(why),
            };
            if let Some(why) = problem {
                run.failures
                    .push(format!("{} cycle {}: {why}", net.name, run.cycles));
            }
        }
        run.cycles += 1;
        last_cycle = cycle.stop().as_secs_f64();
        between();
    }
    Ok(run)
}

/// One line per network: fastest time of each call and the result size.
pub fn summary(run: &FlowRun) -> Vec<String> {
    run.nets
        .iter()
        .map(|n| {
            let ms = |call: &str| n.fastest(call) * 1e3;
            format!(
                "{:<12} baseline {:8.1} ms  script {:8.1} ms  map {:6.1} ms  verify {:6.1} ms  \
                 {:5.1} MiB  {} -> {} ANDs",
                n.name,
                ms("time.baseline"),
                ms("time.script"),
                ms("time.map"),
                ms("time.verify"),
                n.median("rss_mb"),
                n.input_ands,
                n.first("sbm_ands"),
            )
        })
        .collect()
}

/// Sum over networks of `f(network)`.
fn sum(run: &FlowRun, f: impl Fn(&NetRun) -> f64) -> f64 {
    run.nets.iter().map(f).sum()
}

/// Sum over networks of a count from their first repeat.
pub fn total(run: &FlowRun, key: &str) -> f64 {
    sum(run, |n| n.first(key))
}

/// Sum of the flow's per-network times, in seconds.
pub fn flow_s(run: &FlowRun) -> f64 {
    sum(run, NetRun::flow_s)
}

/// Mean over networks of the peak resident set of a network's repeat
/// process (median over its repeats), in MiB. A single network's peak
/// moves with its input order, so the mean is steadier than the largest.
pub fn peak_rss_mb(run: &FlowRun) -> f64 {
    sum(run, |n| n.median("rss_mb")) / run.nets.len() as f64
}

/// Quality of the results, summed over networks, plus the paper's
/// Table I ratio and the number of proven networks.
pub fn put_quality(run: &FlowRun, m: &mut Metrics) {
    for key in [
        "sbm_ands",
        "sbm_levels",
        "sbm_luts",
        "sbm_lut_depth",
        "base_ands",
        "base_luts",
    ] {
        m.put(key, sum(run, |n| n.first(key)), "count");
    }
    let logs = sum(run, |n| (n.first("sbm_luts") / n.first("base_luts")).ln());
    m.put(
        "lut_ratio_gm",
        (logs / run.nets.len() as f64).exp(),
        "ratio",
    );
    m.put(
        "verify_proven",
        sum(run, |n| if n.proven() { 1.0 } else { 0.0 }),
        "count",
    );
}

/// The per-layer metrics of a traced flow.
pub fn put_layers(run: &FlowRun, m: &mut Metrics) {
    m.put(
        "baseline.resyn2rs_s",
        sum(run, |n| n.fastest("time.baseline")),
        "s",
    );
    for step in STEPS {
        let key = format!("step.{step}_s");
        m.put(
            format!("script.{step}_s"),
            sum(run, |n| n.fastest(&key)),
            "s",
        );
        for count in ["ands_saved", "sat_solves"] {
            let key = format!("step.{step}.{count}");
            m.put(
                format!("script.{step}.{count}"),
                sum(run, |n| n.first(&key)),
                "count",
            );
        }
    }
    let script_s = sum(run, |n| n.fastest("time.script"));
    for key in [
        "pipeline.windows",
        "pipeline.windows_improved",
        "pipeline.nodes_saved",
    ] {
        m.put(key, sum(run, |n| n.first(key)), "count");
    }
    for engine in ENGINES {
        for count in ["tried", "accepted", "gain"] {
            let key = format!("engine.{engine}.{count}");
            m.put(key.as_str(), sum(run, |n| n.first(&key)), "count");
        }
    }
    for key in [
        "sat.solves",
        "sat.conflicts",
        "sat.propagations",
        "sat.unknown",
    ] {
        m.put(key, sum(run, |n| n.first(key)), "count");
    }
    m.put(
        "verify.miter_s",
        sum(run, |n| n.fastest("time.verify")),
        "s",
    );
    let ite = sum(run, |n| n.first("bdd.ite_calls"));
    m.put("bdd.ite_calls", ite, "count");
    m.put(
        "bdd.nodes_allocated",
        sum(run, |n| n.first("bdd.nodes_allocated")),
        "count",
    );
    m.put(
        "bdd.peak_nodes",
        run.nets
            .iter()
            .map(|n| n.first("bdd.peak_nodes"))
            .fold(0.0, f64::max),
        "count",
    );
    m.put(
        "bdd.cache_hit_ratio",
        ratio(sum(run, |n| n.first("bdd.cache_hits")), ite),
        "ratio",
    );
    let hits = sum(run, |n| n.first("sim.filter_hits"));
    let misses = sum(run, |n| n.first("sim.filter_misses"));
    m.put("sim.filter_hits", hits, "count");
    m.put("sim.filter_misses", misses, "count");
    m.put("sim.reject_ratio", ratio(hits, hits + misses), "ratio");
    m.put("lutmap.map_s", sum(run, |n| n.fastest("time.map")), "s");
    m.put(
        "journal.snapshot_s",
        sum(run, |n| n.fastest("time.snapshots")),
        "s",
    );
    m.put(
        "trace.overhead_s",
        sum(run, |n| n.fastest("time.traced_script")) - script_s,
        "s",
    );
    m.put("trace.step_coverage", step_coverage(run), "ratio");
}

/// The share of the traced script calls, snapshot writes aside, that
/// the step self-times account for. The rest is the report sink's own
/// work (reading each snapshot and timing a rewrite of it) and the
/// call's work after its last step.
pub fn step_coverage(run: &FlowRun) -> f64 {
    let steps_s: f64 = STEPS
        .iter()
        .map(|step| sum(run, |n| n.fastest(&format!("step.{step}_s"))))
        .sum();
    let outside_s = sum(run, |n| n.fastest("time.outside_steps"));
    ratio(steps_s, steps_s + outside_s)
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

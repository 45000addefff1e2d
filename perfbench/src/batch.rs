//! The batch workload: three reduced EPFL designs through the flow.

use std::path::Path;

use sbm_epfl::Scale;
use sbm_metrics::Timer;

use crate::flow::{self, CyclePlan, Design};
use crate::util::{median, permute_inputs, Metrics, Rng};
use crate::RunOutcome;

/// Table I control circuits: the SAT steps do most of their work here
/// (redundancy removal dominates i2c), and arbiter is the paper's
/// biggest LUT-6 win.
const CONTROL: [&str; 3] = ["arbiter", "i2c", "priority"];

/// Least share of a traced script call that its step self-times must
/// account for (about 0.997 when measured).
const MIN_STEP_COVERAGE: f64 = 0.9;

/// Set-ups timed before the first cycle and again after every cycle.
/// One takes about a millisecond, so many cost nothing and steady the
/// median.
const SETUPS_PER_BATCH: usize = 5;

/// Generates the designs at reduced scale and permutes each one's
/// primary inputs from its own seeded stream.
fn generate(seed: u64) -> Result<Vec<Design>, String> {
    CONTROL
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let aig = sbm_epfl::generate(name, Scale::Reduced)
                .ok_or_else(|| format!("unknown benchmark {name}"))?;
            Ok(Design {
                name: name.to_string(),
                input: permute_inputs(&aig, &mut Rng::new(seed, i as u64)),
            })
        })
        .collect()
}

fn aigers(designs: &[Design]) -> Vec<String> {
    designs
        .iter()
        .map(|d| sbm_aig::aiger::write(&d.input))
        .collect()
}

pub fn run(
    seed: u64,
    seconds: f64,
    work: &Path,
    trace_dir: Option<&Path>,
) -> Result<RunOutcome, String> {
    let clock = Timer::start();
    let designs = generate(seed)?;
    let reference = aigers(&designs);
    let mut setup_s = Vec::new();
    let mut setup_error = None;
    let mut setups = || {
        for _ in 0..SETUPS_PER_BATCH {
            let timer = Timer::start();
            let again = generate(seed);
            setup_s.push(timer.stop().as_secs_f64());
            if again.map(|d| aigers(&d)).as_ref() != Ok(&reference) {
                setup_error = Some("the same seed generated different inputs".to_string());
            }
        }
    };
    setups();

    // Untraced, every network runs at least three times, so each call's
    // fastest repeat can skip two slow ones; traced, each repeat runs
    // the script twice already.
    let plan = CyclePlan {
        budget_s: seconds - clock.elapsed().as_secs_f64(),
        min: if trace_dir.is_some() { 1 } else { 3 },
        max: 20,
    };
    let run = flow::measure(
        &designs,
        "batch",
        false,
        &plan,
        work,
        trace_dir,
        &mut setups,
    )?;
    let mut failures = run.failures.clone();
    failures.extend(setup_error);
    if trace_dir.is_some() && run.failures.is_empty() {
        let coverage = flow::step_coverage(&run);
        if coverage < MIN_STEP_COVERAGE {
            failures.push(format!(
                "the step self-times cover only {coverage:.3} of the traced script"
            ));
        }
    }

    let mut m = Metrics::default();
    if trace_dir.is_none() {
        let flow_s = flow::flow_s(&run);
        // A batch job is one `table1` run over the design set: the run
        // holds one, whose latency is `flow_s`.
        m.put("setup_s", median(&setup_s), "s");
        m.put("flow_s", flow_s, "s");
        m.put("peak_rss_mb", flow::peak_rss_mb(&run), "MiB");
        flow::put_quality(&run, &mut m);
        m.put("job_p50_ms", flow_s * 1e3, "ms");
        m.put("job_p90_ms", flow_s * 1e3, "ms");
        m.put("jobs_per_s", 1.0 / flow_s, "1/s");
        m.put("job_ands", flow::total(&run, "sbm_ands"), "count");
    } else {
        m.put("epfl.generate_s", median(&setup_s), "s");
        flow::put_layers(&run, &mut m);
        crate::server::put_idle_server_layers(&mut m);
    }
    let mut notes = vec![format!(
        "{} cycles of {} networks, {} set-ups",
        run.cycles,
        run.nets.len(),
        setup_s.len()
    )];
    notes.extend(flow::summary(&run));
    Ok(RunOutcome {
        metrics: m,
        attempted: run.attempted,
        failures,
        notes,
    })
}

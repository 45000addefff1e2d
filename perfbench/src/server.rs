//! The `server` workload: closed-loop clients against a job server
//! running in a child process of this benchmark.
//!
//! Engine work per job is milliseconds, so time here goes to the wire
//! protocol, admission, the durable snapshot written after every script
//! step, and canonical cleanups. Every result must be byte-identical to
//! a direct `sbm_script_report` call on the same input under the server's
//! job options; those calls are the flow whose quality and time the
//! workload reports.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use sbm_metrics::{RunReport, Timer};
use sbm_server::corpus::{corpus_aig, CORPUS_SIZE};
use sbm_server::{Client, JobOptions, JobState, Server, ServerConfig, SubmitOutcome};

use crate::flow::{self, CyclePlan, Design};
use crate::util::{median, percentile, permute_inputs, Metrics, Rng};
use crate::RunOutcome;

/// Seeded input orders of every corpus entry. An entry's work depends on
/// its input order, so the flow and the load average over ten of them
/// rather than ride on the luck of one.
const ORDERS: usize = 10;
/// Jobs in one pass: every input (corpus entry and order) once, in
/// seeded order. The load runs whole passes only, so each run submits
/// the same set.
const PASS: usize = ORDERS * CORPUS_SIZE;
/// Closed-loop clients, each waiting for its result before submitting
/// its next job.
const CLIENTS: usize = 2;
/// Worker threads of the server.
const WORKERS: usize = 2;
/// Set-ups (inputs, then a server start) timed before the flow; one
/// more follows every flow cycle, and the last one serves the load. One
/// takes a few milliseconds, so spreading a dozen or more over the run
/// steadies the median cheaply.
const SETUPS_BEFORE: usize = 4;
/// Share of the run given to the flow; the load gets the rest, which
/// one pass fits in. The flow's calls take milliseconds, so the longer
/// their window, the less one slow period of the host moves `flow_s`.
const FLOW_SHARE: f64 = 0.5;
/// Wait between two polls of a pending job.
const POLL: Duration = Duration::from_millis(1);
/// How long a server may take to start or stop.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(60);

/// Child-process entry: serves until SHUTDOWN, then prints its peak RSS.
pub fn serve(root: &Path, addr_file: &Path) -> Result<(), String> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        root: root.to_path_buf(),
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.addr().map_err(|e| e.to_string())?;
    let tmp = addr_file.with_extension("tmp");
    std::fs::write(&tmp, addr.to_string())
        .and_then(|()| std::fs::rename(&tmp, addr_file))
        .map_err(|e| format!("cannot publish the address: {e}"))?;
    server.run().map_err(|e| e.to_string())?;
    let rss = crate::util::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    println!("peak_rss_mb {rss}");
    Ok(())
}

/// A server child process; killed and reaped if dropped while running.
struct ServerProcess {
    child: Child,
    addr: String,
}

impl ServerProcess {
    fn start(root: &Path) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let addr_file = root.with_extension("addr");
        let child = Command::new(exe)
            .arg("--serve")
            .arg(root)
            .arg(&addr_file)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let mut process = ServerProcess {
            child,
            addr: String::new(),
        };
        let waited = Timer::start();
        loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                process.addr = addr;
                return Ok(process);
            }
            if let Ok(Some(status)) = process.child.try_wait() {
                return Err(format!("the server exited during start-up: {status}"));
            }
            if waited.elapsed() > PROCESS_TIMEOUT {
                return Err("the server did not publish its address".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks the server to stop and returns its peak RSS in MiB.
    fn stop(mut self) -> Result<f64, String> {
        Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown(false))
            .map_err(|e| format!("shutdown: {e}"))?;
        let waited = Timer::start();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if waited.elapsed() < PROCESS_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => return Err("the server did not stop".to_string()),
            }
        };
        let mut out = String::new();
        if let Some(stdout) = self.child.stdout.as_mut() {
            let _ = stdout.read_to_string(&mut out);
        }
        if !status.success() {
            return Err(format!("the server exited with {status}"));
        }
        out.lines()
            .find_map(|l| l.strip_prefix("peak_rss_mb "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| "the server reported no peak RSS".to_string())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The corpus entries, each in `ORDERS` seeded input permutations (one
/// seeded stream per input), as the server parses them, and the seeded
/// job order of one pass.
fn generate(seed: u64) -> Result<(Vec<Design>, Vec<usize>), String> {
    let corpus: Vec<_> = (0..CORPUS_SIZE).map(corpus_aig).collect();
    let designs = (0..PASS)
        .map(|j| {
            let (entry, order) = (j % CORPUS_SIZE, j / CORPUS_SIZE);
            let permuted = permute_inputs(&corpus[entry], &mut Rng::new(seed, j as u64));
            let input = sbm_aig::aiger::parse(&sbm_aig::aiger::write(&permuted))
                .map_err(|e| format!("corpus entry {entry}: {e}"))?;
            Ok(Design {
                name: format!("corpus-{entry}.{order}"),
                input,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut order: Vec<usize> = (0..PASS).collect();
    Rng::new(seed, PASS as u64).shuffle(&mut order);
    Ok((designs, order))
}

/// One timed set-up: inputs, then a started server.
struct Setup {
    designs: Vec<Design>,
    order: Vec<usize>,
    server: ServerProcess,
    generate_s: f64,
    start_s: f64,
}

fn setup(seed: u64, root: &Path) -> Result<Setup, String> {
    let timer = Timer::start();
    let (designs, order) = generate(seed)?;
    let generate_s = timer.elapsed().as_secs_f64();
    let server = ServerProcess::start(root)?;
    let total = timer.stop().as_secs_f64();
    Ok(Setup {
        designs,
        order,
        server,
        generate_s,
        start_s: total - generate_s,
    })
}

/// What one job measured.
#[derive(Default)]
struct JobRecord {
    latency_ms: f64,
    submit_ms: f64,
    fetch_ms: f64,
    run_ms: f64,
    queue_ms: f64,
    slices: u64,
    parks: u64,
    resumes: u64,
    ands: usize,
    failure: Option<String>,
}

/// The shared job cursor: whole passes only. At each pass boundary it
/// closes if one more pass, as long as the passes so far took on
/// average, would end past the load's time.
struct Cursor {
    next: usize,
    limit: Option<usize>,
}

impl Cursor {
    fn take(&mut self, elapsed_s: f64, seconds: f64) -> Option<usize> {
        match self.limit {
            Some(limit) if self.next >= limit => return None,
            None if self.next > 0 && self.next.is_multiple_of(PASS) => {
                let passes = (self.next / PASS) as f64;
                if elapsed_s * (passes + 1.0) / passes > seconds {
                    self.limit = Some(self.next);
                    return None;
                }
            }
            _ => {}
        }
        self.next += 1;
        Some(self.next - 1)
    }
}

/// Submits one job and waits for its result. Traced, it polls STATUS to
/// time the transitions before fetching the result.
fn run_job(
    client: &mut Client,
    tenant: &str,
    key: &str,
    aiger: &str,
    reference: &str,
    traced: bool,
) -> Result<JobRecord, String> {
    let mut rec = JobRecord::default();
    let job = Timer::start();
    loop {
        let timer = Timer::start();
        let outcome = client
            .submit(tenant, key, JobOptions::default(), aiger)
            .map_err(|e| format!("submit: {e}"))?;
        rec.submit_ms = timer.stop().as_secs_f64() * 1e3;
        match outcome {
            SubmitOutcome::Accepted => break,
            SubmitOutcome::AlreadyKnown => return Err("key already known".to_string()),
            SubmitOutcome::Busy { .. } => std::thread::sleep(POLL),
        }
    }
    let accepted_ms = job.elapsed().as_secs_f64() * 1e3;
    if traced {
        loop {
            match client.status(key).map_err(|e| format!("status: {e}"))?.0 {
                JobState::Done => break,
                JobState::Queued | JobState::Running | JobState::Parked => {
                    std::thread::sleep(POLL);
                }
                other => return Err(format!("job ended {other:?}")),
            }
        }
    }
    let done_ms = job.elapsed().as_secs_f64() * 1e3;
    let payload = loop {
        let timer = Timer::start();
        let reply = client.result(key).map_err(|e| format!("result: {e}"))?;
        rec.fetch_ms = timer.stop().as_secs_f64() * 1e3;
        match reply {
            Ok(payload) => break payload,
            Err(JobState::Queued | JobState::Running | JobState::Parked) => {
                std::thread::sleep(POLL);
            }
            Err(other) => return Err(format!("job ended {other:?}")),
        }
    };
    rec.latency_ms = job.stop().as_secs_f64() * 1e3;

    let report = RunReport::from_json(&payload.report_json)
        .map_err(|e| format!("report does not decode: {e}"))?;
    rec.queue_ms = report.server.queue_us as f64 / 1e3;
    rec.run_ms = done_ms - accepted_ms - rec.queue_ms;
    rec.slices = report.server.slices;
    rec.parks = report.server.parks;
    rec.resumes = report.server.resumes;
    if payload.aiger != reference {
        rec.failure = Some("result differs from the direct script call".to_string());
    }
    rec.ands = sbm_aig::aiger::parse(&payload.aiger)
        .map_err(|e| format!("result does not parse: {e}"))?
        .num_ands();
    Ok(rec)
}

/// The record of a job that failed (`usize::MAX`: no job was taken).
fn failed(job: usize, why: String) -> (usize, JobRecord) {
    (
        job,
        JobRecord {
            failure: Some(why),
            ..JobRecord::default()
        },
    )
}

/// What the closed-loop clients share.
struct Load<'a> {
    addr: &'a str,
    cursor: Mutex<Cursor>,
    clock: Timer,
    seconds: f64,
    inputs: &'a [String],
    references: &'a [String],
    order: &'a [usize],
    traced: bool,
}

impl Load<'_> {
    /// One closed-loop client: jobs from the shared cursor until it
    /// closes, or until the first job that fails.
    fn client(&self, index: usize) -> Vec<(usize, JobRecord)> {
        let tenant = format!("client-{index}");
        let mut client = match Client::connect(self.addr) {
            Ok(client) => client,
            Err(e) => return vec![failed(usize::MAX, format!("{tenant}: connect: {e}"))],
        };
        let mut records = Vec::new();
        loop {
            let elapsed_s = self.clock.elapsed().as_secs_f64();
            let taken = self
                .cursor
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take(elapsed_s, self.seconds);
            let Some(job) = taken else { break };
            let entry = self.order[job % PASS];
            let key = format!("job-{job}");
            match run_job(
                &mut client,
                &tenant,
                &key,
                &self.inputs[entry],
                &self.references[entry],
                self.traced,
            ) {
                Ok(rec) => records.push((job, rec)),
                Err(why) => {
                    records.push(failed(job, format!("{key}: {why}")));
                    break;
                }
            }
        }
        records
    }
}

/// Zeros for the server layer in workloads that never start a server.
pub fn put_idle_server_layers(m: &mut Metrics) {
    m.put("server.start_s", 0.0, "s");
    m.put("server.submit_ms", 0.0, "ms");
    m.put("server.queue_ms", 0.0, "ms");
    m.put("server.run_ms", 0.0, "ms");
    m.put("server.fetch_ms", 0.0, "ms");
    m.put("server.slices", 0.0, "count");
    m.put("server.parks", 0.0, "count");
    m.put("server.resumes", 0.0, "count");
}

pub fn run(
    seed: u64,
    seconds: f64,
    work: &Path,
    trace_dir: Option<&Path>,
) -> Result<RunOutcome, String> {
    let clock = Timer::start();
    let mut generate_s = Vec::new();
    let mut start_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut note = |s: &Setup| {
        generate_s.push(s.generate_s);
        start_s.push(s.start_s);
        setup_s.push(s.generate_s + s.start_s);
    };
    // Every set-up but the last is stopped at once; the last one starts
    // after the flow and serves the load. Each must generate the same
    // inputs and job order as the first.
    let mut started = 0;
    let mut next_root = || -> PathBuf {
        started += 1;
        work.join(format!("store-{started}"))
    };
    let first = setup(seed, &next_root())?;
    note(&first);
    first.server.stop()?;
    let (designs, order) = (first.designs, first.order);
    let inputs: Vec<String> = designs
        .iter()
        .map(|d| sbm_aig::aiger::write(&d.input))
        .collect();
    let same = |s: &Setup| {
        s.order == order
            && s.designs
                .iter()
                .map(|d| sbm_aig::aiger::write(&d.input))
                .eq(inputs.iter().cloned())
    };
    let mut failures = Vec::new();
    let mut setup_error = None;
    let mut one_more = || {
        let checked = setup(seed, &next_root()).and_then(|s| {
            note(&s);
            if !same(&s) {
                failures.push("the same seed generated different inputs".to_string());
            }
            s.server.stop().map(|_| ())
        });
        if let Err(e) = checked {
            setup_error.get_or_insert(e);
        }
    };
    for _ in 0..SETUPS_BEFORE {
        one_more();
    }

    let plan = CyclePlan {
        budget_s: seconds * FLOW_SHARE,
        // Traced, every repeat also runs the checkpointed script; two
        // repeats still check that each input repeats exactly.
        min: if trace_dir.is_some() { 2 } else { 5 },
        max: 200,
    };
    let flow_run = flow::measure(
        &designs,
        "job",
        // The corpus entries take milliseconds, which the start-up of a
        // process per repeat would swamp; the server child's peak memory
        // is what this workload reports.
        true,
        &plan,
        work,
        trace_dir,
        &mut one_more,
    )?;
    if let Some(e) = setup_error {
        return Err(e);
    }
    failures.extend(flow_run.failures.iter().cloned());
    let references: Vec<String> = flow_run
        .nets
        .iter()
        .map(|n| n.result_aiger().unwrap_or_default().to_string())
        .collect();

    let last = setup(seed, &next_root())?;
    note(&last);
    if !same(&last) {
        failures.push("the same seed generated different inputs".to_string());
    }
    let load = Load {
        addr: &last.server.addr,
        // sbm-lint: allow(C002) the closed-loop clients share one job cursor; a lock keeps "whole passes only" exact
        cursor: Mutex::new(Cursor {
            next: 0,
            limit: None,
        }),
        clock: Timer::start(),
        seconds: (seconds - clock.elapsed().as_secs_f64()).max(0.0),
        inputs: &inputs,
        references: &references,
        order: &order,
        traced: trace_dir.is_some(),
    };
    // sbm-lint: allow(C001) the workload's closed-loop clients run concurrently by design; the scope joins them
    let mut records: Vec<(usize, JobRecord)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let load = &load;
                scope.spawn(move || load.client(i))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![failed(usize::MAX, "a client panicked".to_string())])
            })
            .collect()
    });
    let load_wall = load.clock.stop().as_secs_f64();
    let server_rss = last.server.stop()?;
    records.sort_by_key(|(job, _)| *job);

    let jobs = records.len();
    let mut pass0 = 0;
    for (job, rec) in &records {
        if let Some(why) = &rec.failure {
            failures.push(why.clone());
        } else if *job < PASS {
            pass0 += 1;
        }
    }
    if pass0 < PASS && failures.is_empty() {
        failures.push(format!(
            "only {pass0} of the {PASS} jobs of the first pass settled"
        ));
    }
    let ok: Vec<&JobRecord> = records
        .iter()
        .map(|(_, r)| r)
        .filter(|r| r.failure.is_none())
        .collect();
    let of = |f: fn(&JobRecord) -> f64| ok.iter().map(|r| f(r)).collect::<Vec<f64>>();

    let mut m = Metrics::default();
    if trace_dir.is_none() {
        let latencies = of(|r| r.latency_ms);
        m.put("setup_s", median(&setup_s), "s");
        m.put("flow_s", flow::flow_s(&flow_run), "s");
        m.put("peak_rss_mb", server_rss, "MiB");
        flow::put_quality(&flow_run, &mut m);
        m.put("job_p50_ms", percentile(&latencies, 0.5), "ms");
        m.put("job_p90_ms", percentile(&latencies, 0.9), "ms");
        m.put("jobs_per_s", ok.len() as f64 / load_wall, "1/s");
        m.put(
            "job_ands",
            records
                .iter()
                .filter(|(job, r)| *job < PASS && r.failure.is_none())
                .map(|(_, r)| r.ands as f64)
                .sum(),
            "count",
        );
    } else {
        m.put("epfl.generate_s", median(&generate_s), "s");
        flow::put_layers(&flow_run, &mut m);
        m.put("server.start_s", median(&start_s), "s");
        m.put("server.submit_ms", median(&of(|r| r.submit_ms)), "ms");
        m.put("server.queue_ms", median(&of(|r| r.queue_ms)), "ms");
        m.put("server.run_ms", median(&of(|r| r.run_ms)), "ms");
        m.put("server.fetch_ms", median(&of(|r| r.fetch_ms)), "ms");
        m.put(
            "server.slices",
            of(|r| r.slices as f64).iter().sum(),
            "count",
        );
        m.put("server.parks", of(|r| r.parks as f64).iter().sum(), "count");
        m.put(
            "server.resumes",
            of(|r| r.resumes as f64).iter().sum(),
            "count",
        );
    }
    let notes = vec![format!(
        "{} flow cycles of {} inputs ({CORPUS_SIZE} corpus entries in {ORDERS} orders); \
         {jobs} jobs from {CLIENTS} clients in {load_wall:.2} s",
        flow_run.cycles,
        designs.len()
    )];
    Ok(RunOutcome {
        metrics: m,
        attempted: flow_run.attempted + jobs as u64,
        failures,
        notes,
    })
}

// Test code: a panic IS the failure report.
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! In-process integration tests of the job server: one `Server` plus
//! protocol clients over loopback TCP.

use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use sbm_core::script::sbm_script_report;
use sbm_journal::SCRIPT_STATE_FILE;
use sbm_metrics::RunReport;
use sbm_server::corpus::corpus_aiger;
use sbm_server::{
    job_sbm_options, Client, JobMeta, JobOptions, JobState, PersistedCounters, Server,
    ServerConfig, Store, SubmitOutcome,
};

/// Starts a server on an ephemeral port; returns its address and the
/// accept-loop thread (detached — the test process exits anyway).
fn start_server(cfg: ServerConfig) -> String {
    let server = Server::start(cfg).expect("server start");
    let addr = server.addr().expect("addr").to_string();
    thread::spawn(move || server.run().expect("server run"));
    addr
}

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sbm-server-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls RESULT until the job settles (done / failed / cancelled).
fn await_result(
    client: &mut Client,
    key: &str,
    timeout: Duration,
) -> Result<sbm_server::JobPayload, JobState> {
    let start = Instant::now();
    loop {
        match client.result(key).expect("result round-trip") {
            Ok(payload) => return Ok(payload),
            Err(state @ (JobState::Failed | JobState::Cancelled)) => return Err(state),
            Err(_pending) => {
                assert!(
                    start.elapsed() < timeout,
                    "job {key} did not settle within {timeout:?}"
                );
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// The serial one-shot reference: same wire options, no server, no
/// preemption. Server results must be byte-identical to this.
fn serial_reference(index: usize, wire: &JobOptions) -> String {
    let options = job_sbm_options(wire).expect("options");
    let input = sbm_aig::aiger::parse(&corpus_aiger(index)).expect("parse");
    sbm_aig::aiger::write(&sbm_script_report(&input, &options).aig)
}

#[test]
fn submit_runs_to_byte_identical_result() {
    let addr = start_server(ServerConfig {
        root: tmp_root("basic"),
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let wire = JobOptions::default();

    for index in [0usize, 3, 7] {
        let key = format!("basic-{index}");
        let outcome = client
            .submit("it", &key, wire, &corpus_aiger(index))
            .expect("submit");
        assert_eq!(outcome, SubmitOutcome::Accepted);
    }
    for index in [0usize, 3, 7] {
        let key = format!("basic-{index}");
        let payload =
            await_result(&mut client, &key, Duration::from_secs(60)).expect("job settles done");
        // The report strict-decodes and carries the server identity.
        let report = RunReport::from_json(&payload.report_json).expect("strict decode");
        assert_eq!(report.tool, "sbm-server");
        assert_eq!(report.benchmarks, vec![key.clone()]);
        assert!(report.server.slices >= 1, "at least one slice");
        // Byte-identity against the serial one-shot reference.
        assert_eq!(
            payload.aiger,
            serial_reference(index, &wire),
            "job {key}: server result differs from serial reference"
        );
    }
    let _ = client.shutdown(false);
}

#[test]
fn resubmits_are_idempotent_and_unknown_keys_report_unknown() {
    let addr = start_server(ServerConfig {
        root: tmp_root("idem"),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let wire = JobOptions::default();

    assert_eq!(
        client
            .submit("it", "idem-1", wire, &corpus_aiger(1))
            .expect("submit"),
        SubmitOutcome::Accepted
    );
    // Same key again — acknowledged, never a second run.
    assert_eq!(
        client
            .submit("it", "idem-1", wire, &corpus_aiger(1))
            .expect("resubmit"),
        SubmitOutcome::AlreadyKnown
    );
    let (state, _) = client.status("never-submitted").expect("status");
    assert_eq!(state, JobState::Unknown);
    // Bad submissions are typed errors, not admissions.
    assert!(client.submit("it", "", wire, &corpus_aiger(0)).is_err());
    assert!(client
        .submit("it", "bad-aig", wire, "not an aiger file")
        .is_err());
    let bad_options = JobOptions {
        check: 9,
        ..JobOptions::default()
    };
    assert!(client
        .submit("it", "bad-opts", bad_options, &corpus_aiger(0))
        .is_err());
    let _ = client.shutdown(false);
}

#[test]
fn tiny_slice_parks_resumes_and_still_matches_reference() {
    // A 1 ms slice cannot fit the whole script: the job must park at
    // least once, resume, and still produce the exact serial result.
    let root = tmp_root("park");
    let addr = start_server(ServerConfig {
        root: root.clone(),
        workers: 1,
        slice: Duration::from_millis(1),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let wire = JobOptions {
        iterations: 2,
        ..JobOptions::default()
    };
    let index = 5usize; // the widest corpus entry
    client
        .submit("it", "park-1", wire, &corpus_aiger(index))
        .expect("submit");
    let payload =
        await_result(&mut client, "park-1", Duration::from_secs(120)).expect("job settles done");
    let report = RunReport::from_json(&payload.report_json).expect("strict decode");
    assert!(
        report.server.parks >= 1,
        "a 1 ms slice must park at least once (slices={}, parks={})",
        report.server.slices,
        report.server.parks
    );
    assert_eq!(report.server.resumes, report.server.parks);
    assert_eq!(report.server.slices, report.server.parks + 1);
    assert_eq!(
        payload.aiger,
        serial_reference(index, &wire),
        "preempted job diverged from the serial reference"
    );
    // Parks neither lose nor repeat work in the counters: each park
    // records the report of the steps its snapshot holds, so the
    // resumed job counts exactly what one straight run counts (the
    // `server` block and `resume` aside).
    let input = sbm_aig::aiger::parse(&corpus_aiger(index)).expect("parse");
    let options = job_sbm_options(&wire).expect("options");
    let straight = sbm_script_report(&input, &options).stats.run_report();
    let work = |r: &RunReport| {
        let mut engines: Vec<_> = r
            .engines
            .iter()
            .map(|e| {
                (
                    e.name.clone(),
                    e.windows,
                    e.tried,
                    e.accepted,
                    e.gain,
                    e.bailouts,
                )
            })
            .collect();
        engines.sort();
        (engines, r.windows, r.sat.solves, r.sat.conflicts)
    };
    assert_eq!(work(&report), work(&straight));
    // Each park left its running total and a snapshot of the last clean
    // step behind; the job.meta on disk was last written at a park.
    let store = Store::open(&root).expect("store");
    assert!(store
        .read_partial_report("park-1")
        .expect("partial")
        .is_some());
    let (_, snapshot) =
        sbm_journal::read_aig_snapshot(&store.ckpt_dir("park-1").join(SCRIPT_STATE_FILE))
            .expect("a parked job has a snapshot");
    assert!(
        snapshot.seq < 8 * u64::from(wire.iterations),
        "{snapshot:?}"
    );
    assert_eq!(
        store.read_meta("park-1").expect("meta").counters.parks,
        report.server.parks
    );
    let _ = client.shutdown(false);
}

/// Every file under `dir`, as paths relative to it, sorted.
fn files_under(dir: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .to_string();
        if path.is_dir() {
            files.extend(
                files_under(&path)
                    .into_iter()
                    .map(|f| format!("{name}/{f}")),
            );
        } else {
            files.push(name);
        }
    }
    files.sort();
    files
}

#[test]
fn a_one_slice_job_writes_its_admission_and_its_result_only() {
    // Durability is bought at the slice boundary: a job that finishes
    // within its first slice never parks, so it leaves no snapshot and
    // no running total, and its job.meta is still the admission record.
    let root = tmp_root("one-slice");
    let addr = start_server(ServerConfig {
        root: root.clone(),
        workers: 1,
        slice: Duration::from_secs(60),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let wire = JobOptions::default();
    client
        .submit("it", "one-slice", wire, &corpus_aiger(3))
        .expect("submit");
    let payload =
        await_result(&mut client, "one-slice", Duration::from_secs(60)).expect("job settles done");
    let report = RunReport::from_json(&payload.report_json).expect("strict decode");
    assert_eq!((report.server.slices, report.server.parks), (1, 0));
    assert_eq!(payload.aiger, serial_reference(3, &wire));

    let store = Store::open(&root).expect("store");
    assert_eq!(
        files_under(&store.job_dir("one-slice")),
        ["input.snap", "job.meta", "result.bin"]
    );
    assert_eq!(
        store.read_meta("one-slice").expect("meta").counters,
        PersistedCounters::default()
    );
    let _ = client.shutdown(false);
}

#[test]
fn a_kill_between_script_and_result_reruns_with_live_counters() {
    // The worst instant for a SIGKILL: the job's script has finished but
    // its result is not on disk yet. Its checkpoint then still stands at
    // its last park (here: none), so the restarted server re-runs it
    // from there and the counters cover every step of the result.
    let root = tmp_root("kill-window");
    let store = Store::open(&root).expect("store");
    let wire = JobOptions::default();
    let input = sbm_aig::aiger::parse(&corpus_aiger(4)).expect("parse");
    let meta = JobMeta {
        client: "it".to_string(),
        key: "kill-window".to_string(),
        options: wire,
        counters: PersistedCounters::default(),
    };
    store.create_job(&meta, &input).expect("admit");
    let mut options = job_sbm_options(&wire).expect("options");
    options.checkpoint_dir = Some(store.ckpt_dir("kill-window"));
    let finished = sbm_script_report(&input, &options);
    assert_eq!(finished.stats.checkpoint_error, None);
    assert!(!store
        .ckpt_dir("kill-window")
        .join(SCRIPT_STATE_FILE)
        .exists());

    let addr = start_server(ServerConfig {
        root: root.clone(),
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let payload = await_result(&mut client, "kill-window", Duration::from_secs(60))
        .expect("recovered job settles done");
    let report = RunReport::from_json(&payload.report_json).expect("strict decode");
    assert_eq!(report.server.recoveries, 1);
    assert_eq!(report.resume, None, "nothing to resume: the job re-runs");
    assert!(report.sim_filter.hits + report.sim_filter.misses > 0);
    let work = |r: &RunReport| -> Vec<(String, u64, u64)> {
        r.engines
            .iter()
            .map(|e| (e.name.clone(), e.tried, e.accepted))
            .collect()
    };
    assert_eq!(work(&report), work(&finished.stats.run_report()));
    assert_eq!(payload.aiger, sbm_aig::aiger::write(&finished.aig));
    let _ = client.shutdown(false);
}

#[test]
fn every_corpus_entry_replays_byte_identically_across_parks() {
    // Direct regression for the canonical-steps contract, without the
    // server in the loop: for every corpus entry, a run driven in tiny
    // budget slices through park-and-resume must reproduce the one-shot
    // result exactly. Entry 11 historically diverged here: the sim
    // service carried counterexample patterns across steps, state no
    // snapshot captures, and under finite SAT/move budgets the sharper
    // filter changed the result.
    use sbm_budget::Budget;
    use sbm_core::script::{sbm_script_budgeted_observed, ReportSink};

    let wire = JobOptions {
        iterations: 2,
        ..JobOptions::default()
    };
    let base = job_sbm_options(&wire).expect("options");
    for index in 0..sbm_server::corpus::CORPUS_SIZE {
        let input = sbm_aig::aiger::parse(&corpus_aiger(index)).expect("parse");
        let reference = sbm_aig::aiger::write(&sbm_script_report(&input, &base).aig);

        let dir = tmp_root(&format!("replay-{index}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut options = base.clone();
        options.checkpoint_dir = Some(dir.clone());

        // First slice: a 1 ms budget cannot finish the two-iteration
        // script; park it. Escalate the slice on every resume (as the
        // server's scheduler does) until a run completes un-tripped.
        let mut slice_ms = 1u64;
        let mut budget = Budget::from_deadline(Some(Duration::from_millis(slice_ms)));
        let mut out = sbm_script_budgeted_observed(&input, &options, &budget, ReportSink(&|_| {}));
        let mut parks = 0u32;
        while budget.check().is_err() {
            parks += 1;
            assert!(parks < 40, "entry {index} never completed");
            slice_ms *= 2;
            budget = Budget::from_deadline(Some(Duration::from_millis(slice_ms)));
            out = sbm_script_budgeted_observed(&input, &options, &budget, ReportSink(&|_| {}));
            assert!(
                out.stats.resume.is_some(),
                "entry {index}: re-entry {parks} did not resume from the parked checkpoint"
            );
        }
        assert_eq!(
            sbm_aig::aiger::write(&out.aig),
            reference,
            "entry {index}: parked/resumed run diverged from one-shot ({parks} parks)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn cancel_settles_job_as_cancelled() {
    let addr = start_server(ServerConfig {
        root: tmp_root("cancel"),
        workers: 1,
        slice: Duration::from_millis(5),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    // Iteration counts high enough that neither job can finish before
    // the cancels land (tiny corpus circuits complete a whole iteration
    // in well under a slice).
    let wire = JobOptions {
        iterations: 300,
        ..JobOptions::default()
    };
    // Two slow jobs: the second sits queued behind the first on the
    // single worker, so cancelling it hits the queued path; the first
    // gets the running/parked path.
    client
        .submit("it", "cancel-a", wire, &corpus_aiger(5))
        .expect("submit");
    client
        .submit("it", "cancel-b", wire, &corpus_aiger(6))
        .expect("submit");
    client.cancel("cancel-b").expect("cancel queued");
    client.cancel("cancel-a").expect("cancel running");

    let start = Instant::now();
    for key in ["cancel-a", "cancel-b"] {
        loop {
            let (state, _) = client.status(key).expect("status");
            match state {
                JobState::Cancelled => break,
                // A cancel can race completion; done is acceptable for
                // the running job, never for the queued one.
                JobState::Done if key == "cancel-a" => break,
                _ => {
                    assert!(
                        start.elapsed() < Duration::from_secs(60),
                        "{key} stuck in {state:?}"
                    );
                    thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
    // Cancelling an already-settled job is idempotent.
    client.cancel("cancel-b").expect("cancel settled");
    let _ = client.shutdown(false);
}

#[test]
fn full_queue_answers_busy_not_hang() {
    let addr = start_server(ServerConfig {
        root: tmp_root("busy"),
        workers: 1,
        queue_capacity: 1,
        slice: Duration::from_millis(1),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    // High iteration counts keep the single worker saturated for the
    // whole test (the jobs are cancelled at the end, never awaited).
    let wire = JobOptions {
        iterations: 500,
        ..JobOptions::default()
    };
    client
        .submit("it", "busy-running", wire, &corpus_aiger(5))
        .expect("submit");
    // Wait until the worker has dequeued it...
    let start = Instant::now();
    loop {
        let (state, _) = client.status("busy-running").expect("status");
        if state != JobState::Queued {
            break;
        }
        assert!(start.elapsed() < Duration::from_secs(30), "never dequeued");
        thread::sleep(Duration::from_millis(5));
    }
    // ...then fill the one queue slot and overflow it. The parked job
    // re-enters the queue between slices, so BUSY may arrive on the
    // filler submit already; either way, some submit must report BUSY
    // backpressure rather than queueing without bound.
    let filler = client
        .submit("it", "busy-filler", wire, &corpus_aiger(1))
        .expect("submit filler");
    let overflow = client
        .submit("it", "busy-overflow", wire, &corpus_aiger(2))
        .expect("submit overflow");
    assert!(
        matches!(filler, SubmitOutcome::Busy { .. })
            || matches!(overflow, SubmitOutcome::Busy { .. }),
        "expected BUSY backpressure, got {filler:?} then {overflow:?}"
    );
    for key in ["busy-running", "busy-filler", "busy-overflow"] {
        let _ = client.cancel(key);
    }
    let _ = client.shutdown(false);
}

#[test]
fn status_round_trips_run_at_wire_speed() {
    // One frame per write on TCP_NODELAY sockets: a round trip costs
    // microseconds. Split writes under Nagle's algorithm waited for the
    // peer's delayed ACK, ≥ 40 ms each, ≥ 2 s for these 50.
    let addr = start_server(ServerConfig {
        root: tmp_root("wire"),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let start = Instant::now();
    for _ in 0..50 {
        let (state, _) = client.status("never-submitted").expect("status");
        assert_eq!(state, JobState::Unknown);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(1500),
        "50 STATUS round trips took {elapsed:?}"
    );
    let _ = client.shutdown(false);
}

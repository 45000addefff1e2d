// Test code: a panic IS the failure report.
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! In-process integration tests of the job server: one `Server` plus
//! protocol clients over loopback TCP.

use std::thread;
use std::time::{Duration, Instant};

use sbm_core::script::sbm_script_report;
use sbm_metrics::RunReport;
use sbm_server::corpus::corpus_aiger;
use sbm_server::{
    job_sbm_options, Client, JobOptions, JobState, Server, ServerConfig, SubmitOutcome,
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
    let addr = start_server(ServerConfig {
        root: tmp_root("park"),
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
    use sbm_core::script::{sbm_script_budgeted_observed, sbm_script_resumable, ReportSink};

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
            out = sbm_script_resumable(&input, &options, Some(&budget), None)
                .expect("resume from parked checkpoint");
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

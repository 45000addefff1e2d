// Test code: a panic IS the failure report.
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! The crash-restart soak test: hundreds of concurrent jobs from many
//! clients, a SIGKILL of the server mid-run, a restart over the same
//! store root — and at the end, zero lost jobs, zero duplicated jobs,
//! every report strict-decoding, and every optimized network
//! byte-identical to a serial one-shot run with the same options.
//!
//! The test drives the real binaries (`sbm-server`, `loadgen`) over
//! real TCP, exactly as CI's smoke does, via the `CARGO_BIN_EXE_*`
//! paths Cargo provides to integration tests.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sbm_core::script::sbm_script_report;
use sbm_metrics::RunReport;
use sbm_server::corpus::{corpus_aiger, CORPUS_SIZE};
use sbm_server::{job_sbm_options, JobOptions, ScanState, Store};

const JOBS: usize = 200;
const CLIENTS: usize = 8;
/// Server kills tried before one finds a job in flight.
const KILL_ATTEMPTS: usize = 5;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbm-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn spawn_server_with(root: &Path, addr_file: &Path, extra: &[&str]) -> Child {
    let mut args = vec![
        "--root".to_string(),
        root.display().to_string(),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--addr-file".to_string(),
        addr_file.display().to_string(),
        "--workers".to_string(),
        "4".to_string(),
        "--queue-capacity".to_string(),
        "400".to_string(),
        "--slice-ms".to_string(),
        "20".to_string(),
    ];
    args.extend(extra.iter().map(ToString::to_string));
    Command::new(env!("CARGO_BIN_EXE_sbm-server"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn sbm-server")
}

fn spawn_server(root: &Path, addr_file: &Path) -> Child {
    spawn_server_with(root, addr_file, &[])
}

fn count_results(out: &Path) -> usize {
    std::fs::read_dir(out)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .count()
        })
        .unwrap_or(0)
}

/// Jobs of the store at `root` that are finished and still in flight.
fn store_progress(root: &Path) -> (usize, usize) {
    let jobs = Store::open(root)
        .and_then(|store| store.scan())
        .expect("scan the store");
    let count = |state| jobs.iter().filter(|job| job.state == state).count();
    (count(ScanState::Done), count(ScanState::InFlight))
}

/// Waits until the server has finished at least `at_least` jobs while
/// others are still in flight, and returns how many it has finished.
/// This reads the live store: loadgen fetches results in submission
/// order and can trail the server by a hundred jobs, so its results say
/// little about what is still in flight.
fn wait_for_kill_point(root: &Path, at_least: usize) -> usize {
    let started = Instant::now();
    loop {
        let (done, in_flight) = store_progress(root);
        assert!(
            done < JOBS,
            "server finished before the kill — soak too fast"
        );
        if done >= at_least && in_flight > 0 {
            return done;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "no kill point after 120 s; soak stalled (done={done})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn soak_kill_restart_loses_and_duplicates_nothing() {
    let root = tmp_dir("root");
    let out = tmp_dir("out");
    let addr_file = tmp_dir("addr").join("addr");

    let mut server = spawn_server(&root, &addr_file);

    // The load: 8 concurrent clients, 200 jobs, mixed corpus, writing
    // every finished report + network to `out`.
    let mut loadgen = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--addr-file",
            &addr_file.display().to_string(),
            "--jobs",
            &JOBS.to_string(),
            "--clients",
            &CLIENTS.to_string(),
            "--out",
            &out.display().to_string(),
            "--timeout-s",
            "240",
            "--tag",
            "soak",
        ])
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn loadgen");

    // SIGKILL the server mid-run: after some jobs have finished but long
    // before all of them do, while others are in flight. Those can finish
    // between the last look and the kill; the store, quiet while the
    // server is down, says whether any is left. If none is, restart and
    // kill again once more jobs have finished, a bounded number of times.
    // Each restart is over the same root: the recovery scan must re-admit
    // every in-flight job, and loadgen reconnects through the republished
    // addr-file and rides out the outage.
    let mut finished_before_kill = 0;
    for _ in 0..KILL_ATTEMPTS {
        let done = wait_for_kill_point(&root, finished_before_kill + 5);
        server.kill().expect("SIGKILL server");
        let _ = server.wait();
        let (_, in_flight) = store_progress(&root);
        server = spawn_server(&root, &addr_file);
        if in_flight > 0 {
            break;
        }
        finished_before_kill = done;
    }

    let status = loadgen.wait().expect("loadgen exit");
    let _ = server.kill();
    let _ = server.wait();
    assert!(
        status.success(),
        "loadgen failed: some jobs were lost, failed or unaccounted ({status:?})"
    );

    let recoveries = verify_outputs(&out, JOBS, "soak");
    assert!(
        recoveries >= 1,
        "the SIGKILL+restart must have crash-recovered at least one job"
    );

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&out);
}

/// Zero lost, zero duplicated, every report strict-decoding, every
/// network byte-identical to the serial one-shot reference. Returns the
/// summed crash-recovery count.
fn verify_outputs(out: &Path, jobs: usize, tag: &str) -> u64 {
    let mut reports: BTreeMap<String, RunReport> = BTreeMap::new();
    let mut networks: BTreeMap<String, String> = BTreeMap::new();
    for entry in std::fs::read_dir(out).expect("read out") {
        let path = entry.expect("entry").path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("stem")
            .to_string();
        match path.extension().and_then(|x| x.to_str()) {
            Some("json") => {
                let text = std::fs::read_to_string(&path).expect("read report");
                // Every report must strict-decode (schema v4).
                let report = RunReport::from_json(&text)
                    .unwrap_or_else(|e| panic!("{stem}: report does not strict-decode: {e}"));
                assert!(reports.insert(stem.clone(), report).is_none(), "dup {stem}");
            }
            Some("aag") => {
                let text = std::fs::read_to_string(&path).expect("read aag");
                assert!(networks.insert(stem.clone(), text).is_none(), "dup {stem}");
            }
            other => panic!("unexpected output {path:?} ({other:?})"),
        }
    }
    assert_eq!(reports.len(), jobs, "lost reports");
    assert_eq!(networks.len(), jobs, "lost networks");

    // Serial one-shot references, one per distinct corpus entry.
    let wire = JobOptions::default();
    let options = job_sbm_options(&wire).expect("options");
    let reference: Vec<String> = (0..CORPUS_SIZE)
        .map(|i| {
            let input = sbm_aig::aiger::parse(&corpus_aiger(i)).expect("parse");
            sbm_aig::aiger::write(&sbm_script_report(&input, &options).aig)
        })
        .collect();

    let mut recoveries = 0u64;
    for index in 0..jobs {
        let key = format!("{tag}-{index}");
        let report = reports.get(&key).unwrap_or_else(|| panic!("lost {key}"));
        let network = networks.get(&key).unwrap_or_else(|| panic!("lost {key}"));

        assert_eq!(report.tool, "sbm-server", "{key}");
        assert_eq!(report.benchmarks, vec![key.clone()], "{key}");
        assert!(report.server.slices >= 1, "{key}: no slices recorded");
        assert!(
            report.sim_filter.hits + report.sim_filter.misses > 0,
            "{key}: sim-filter counters are dead"
        );
        recoveries += report.server.recoveries;

        // The acceptance bar: byte-identical to the uninterrupted
        // serial run, regardless of how often the job was preempted,
        // parked, resumed, crash-recovered or fault-retried.
        assert_eq!(
            network,
            &reference[index % CORPUS_SIZE],
            "{key}: result differs from the serial one-shot reference \
             (slices={}, parks={}, recoveries={})",
            report.server.slices,
            report.server.parks,
            report.server.recoveries
        );
    }
    recoveries
}

/// The chaos soak: the SIGKILL+restart of the test above, but with the
/// store injecting disk faults, the wire injecting frame faults, and
/// the restarted server scrubbing the (possibly torn) store before its
/// recovery scan. The acceptance bar does not move: zero lost, zero
/// duplicated, byte-identical.
#[test]
fn soak_chaos_kill_restart_loses_and_duplicates_nothing() {
    const CHAOS_JOBS: usize = 48;
    let root = tmp_dir("chaos-root");
    let out = tmp_dir("chaos-out");
    let addr_file = tmp_dir("chaos-addr").join("addr");
    let chaos_args = [
        "--io-fault-rate",
        "0.05",
        "--io-fault-seed",
        "9",
        "--scrub",
        "on",
    ];

    let mut server = spawn_server_with(&root, &addr_file, &chaos_args);
    let mut loadgen = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--addr-file",
            &addr_file.display().to_string(),
            "--jobs",
            &CHAOS_JOBS.to_string(),
            "--clients",
            "4",
            "--out",
            &out.display().to_string(),
            "--timeout-s",
            "240",
            "--tag",
            "chaos",
            "--net-fault-rate",
            "0.05",
            "--net-fault-seed",
            "9",
        ])
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn loadgen");

    let started = Instant::now();
    loop {
        let done = count_results(&out);
        if done >= 3 {
            assert!(
                done < CHAOS_JOBS,
                "server finished before the kill — soak too fast"
            );
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "no results after 120 s; chaos soak stalled (done={done})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.kill().expect("SIGKILL server");
    let _ = server.wait();

    // The restart scrubs whatever the faulty, killed run left torn,
    // then recovers; loadgen rides out both the outage and the faults.
    let mut server = spawn_server_with(&root, &addr_file, &chaos_args);
    let status = loadgen.wait().expect("loadgen exit");
    let _ = server.kill();
    let _ = server.wait();
    assert!(
        status.success(),
        "loadgen failed under chaos: jobs lost, failed or unaccounted ({status:?})"
    );

    verify_outputs(&out, CHAOS_JOBS, "chaos");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&out);
}

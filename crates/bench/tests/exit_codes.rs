//! Asserts the workspace-wide process exit-code convention
//! (`sbm_metrics::exit`) on the bench binaries: `0` success,
//! `1` validation failure, `2` usage error, `3` runtime/environment
//! failure. The same convention is asserted for `sbm-lint` in
//! `crates/lint/tests/exit_codes.rs` and for `sbm-server`/`loadgen`
//! in `crates/server/tests/exit_codes.rs`.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::path::PathBuf;
use std::process::Command;

use sbm_metrics::{exit, EngineReport, RunReport};

fn code_of(bin: &str, args: &[&str]) -> i32 {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn binary")
        .status
        .code()
        .expect("exit code")
}

fn tmp_file(tag: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sbm-exit-{tag}-{}", std::process::id()));
    std::fs::write(&path, contents).expect("write tmp file");
    path
}

#[test]
fn report_check_distinguishes_ok_validation_usage_and_runtime() {
    let bin = env!("CARGO_BIN_EXE_report_check");

    // 0 — a well-formed report round-trips.
    let report = RunReport {
        tool: "exit-codes".to_string(),
        ..RunReport::default()
    };
    let good = tmp_file("good", &report.to_json());
    assert_eq!(code_of(bin, &[good.to_str().unwrap()]), exit::OK);

    // 1 — the tool ran and rejected the input.
    let bad = tmp_file("bad", "this is not a run report");
    assert_eq!(code_of(bin, &[bad.to_str().unwrap()]), exit::VALIDATION);
    let overcounted = RunReport {
        tool: "exit-codes".to_string(),
        engines: vec![EngineReport {
            name: "resub".to_string(),
            tried: 1,
            accepted: 2,
            ..EngineReport::default()
        }],
        ..RunReport::default()
    };
    let overcounted = tmp_file("overcounted", &overcounted.to_json());
    assert_eq!(
        code_of(bin, &[overcounted.to_str().unwrap()]),
        exit::VALIDATION
    );

    // 2 — no path given.
    assert_eq!(code_of(bin, &[]), exit::USAGE);

    // 3 — the environment failed (unreadable path).
    assert_eq!(
        code_of(bin, &["/nonexistent/sbm/report.json"]),
        exit::RUNTIME
    );

    let _ = std::fs::remove_file(good);
    let _ = std::fs::remove_file(bad);
    let _ = std::fs::remove_file(overcounted);
}

#[test]
fn table_binaries_reject_bad_flags_with_usage() {
    // Arguments are parsed before any benchmark work starts, so the
    // usage-error paths are cheap.
    for bin in [
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_table3"),
    ] {
        assert_eq!(code_of(bin, &["--sim-filter", "bogus"]), exit::USAGE);
        // A retired flag is an error, not silently ignored.
        assert_eq!(code_of(bin, &["--resume"]), exit::USAGE);
    }
    // Nor is a misspelt one, wherever it stands.
    assert_eq!(
        code_of(
            env!("CARGO_BIN_EXE_table1"),
            &["--only", "no-such", "--thred", "2", "--resume"]
        ),
        exit::USAGE
    );
    // fig1 takes no flags at all.
    assert_eq!(
        code_of(env!("CARGO_BIN_EXE_fig1"), &["--thred", "2"]),
        exit::USAGE
    );
}

#[test]
fn table1_exits_ok_when_the_run_succeeds() {
    // `--only` with a never-matching name skips every benchmark: the
    // run is trivially successful and cheap.
    let bin = env!("CARGO_BIN_EXE_table1");
    assert_eq!(code_of(bin, &["--only", "no-such-benchmark"]), exit::OK);
}

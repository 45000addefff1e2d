#!/usr/bin/env bash
# Local CI gate: formatting, the strict lint regime over the whole
# workspace, release build and the full test suite (including the
# sbm-check invariant tests). Run from the repo root before pushing.
#
# Usage: ci.sh [--quick|--sanitize]
#   --quick     skip the release build (lints + debug tests only)
#   --sanitize  run the dynamic-analysis job instead: the concurrency
#               tests under ThreadSanitizer and the codec/aiger tests
#               under Miri. Both need nightly extras (the `rust-src`
#               component for -Zbuild-std, and `miri`); whichever is
#               missing is skipped with instructions, so the job degrades
#               to a no-op on a bare toolchain rather than failing.
set -euo pipefail
cd "$(dirname "$0")"

quick=0
sanitize=0
for arg in "$@"; do
    case "$arg" in
    --quick) quick=1 ;;
    --sanitize) sanitize=1 ;;
    *)
        echo "unknown argument: $arg (usage: ci.sh [--quick|--sanitize])" >&2
        exit 2
        ;;
    esac
done

if [[ $sanitize -eq 1 ]]; then
    # Dynamic-analysis job. TSan exercises the code paths the static
    # C-rules police: the partition-parallel pipeline (proptests), the
    # script's park-and-resume path at 1, 2 and 4 threads, and the
    # shared simulation service's pool; Miri checks the journal codec and AIGER parser —
    # the two byte-level decoders — for UB. Local setup:
    #   rustup toolchain install nightly
    #   rustup component add rust-src --toolchain nightly   # for TSan
    #   rustup component add miri --toolchain nightly       # for Miri
    if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
        echo "==> sanitize: nightly toolchain not installed; skipping" \
            "(rustup toolchain install nightly)"
        echo "CI OK (sanitize skipped)"
        exit 0
    fi
    host=$(rustc -vV | awk '/^host:/ {print $2}')
    if rustup component list --toolchain nightly 2>/dev/null |
        grep -q "^rust-src.*(installed)"; then
        echo "==> ThreadSanitizer: pipeline / park-resume / sim-service tests"
        # -Zbuild-std rebuilds std with TSan instrumentation so std's own
        # synchronization is visible to the tool; suppressions are the
        # committed, justified list in ci/tsan.supp.
        RUSTFLAGS="-Zsanitizer=thread" \
            TSAN_OPTIONS="suppressions=$PWD/ci/tsan.supp" \
            cargo +nightly test -Zbuild-std --target "$host" \
            -p sbm-core --test proptests -- \
            parallel_pipeline_equivalent_and_no_larger_than_serial
        RUSTFLAGS="-Zsanitizer=thread" \
            TSAN_OPTIONS="suppressions=$PWD/ci/tsan.supp" \
            cargo +nightly test -Zbuild-std --target "$host" \
            -p sbm-core --lib -- \
            budgeted_canonical_run_parks_and_resumes_byte_identically
        RUSTFLAGS="-Zsanitizer=thread" \
            TSAN_OPTIONS="suppressions=$PWD/ci/tsan.supp" \
            cargo +nightly test -Zbuild-std --target "$host" -p sbm-sim
    else
        echo "==> sanitize: rust-src not installed for nightly; skipping TSan" \
            "(rustup component add rust-src --toolchain nightly)"
    fi
    if cargo +nightly miri --version >/dev/null 2>&1; then
        echo "==> Miri: journal codec + AIGER decoder tests"
        cargo +nightly miri test -p sbm-journal codec
        cargo +nightly miri test -p sbm-aig aiger
    else
        echo "==> sanitize: miri not installed for nightly; skipping Miri" \
            "(rustup component add miri --toolchain nightly)"
    fi
    echo "CI OK (sanitize)"
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The project's own static-analysis pass: determinism, concurrency, API
# hygiene and durability invariants clippy cannot express. A hard gate in
# both modes — any violation (or reason-less suppression) fails CI.
echo "==> sbm-lint"
cargo run -q -p sbm-lint

# Rustdoc with warnings denied, so a deleted or renamed item cannot leave
# a broken intra-doc link behind. Both modes.
echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

if [[ $quick -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --workspace --release
else
    echo "==> skipping release build (--quick)"
fi

# The benchmark package lives outside the workspace; build it so an API
# change in the crates it uses cannot break it unseen.
echo "==> cargo build perfbench (release)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -p sbm-check"
cargo test -q -p sbm-check

# The solver, sweeping and redundancy unit tests and proptests (the root
# package's `cargo test` above runs none of them).
echo "==> cargo test -p sbm-sat"
cargo test -q -p sbm-sat

# The engine, script (park/resume, memo) and pipeline unit tests, and
# the AIG layer's tests (MFFC, cuts, windows, AIGER). The root package's
# `cargo test` above runs none of them.
echo "==> cargo test -p sbm-core --lib"
cargo test -q -p sbm-core --lib

echo "==> cargo test -p sbm-aig"
cargo test -q -p sbm-aig

# Fault-injection smoke: seeded panics/delays/bailouts across all ten
# engines must complete, stay equivalent, and ledger exactly. Fixed seeds
# inside the test keep this deterministic and bounded (sub-second).
echo "==> fault-injection smoke"
cargo test -q -p sbm-core --test proptests \
    all_engine_fault_stress_completes_equivalent_with_exact_ledger

if [[ $quick -eq 0 ]]; then
    # End-to-end CLI smoke: one reduced-scale table1 pass under injection
    # plus a tight per-script deadline, verifying the flags, the retry
    # ladder and the degraded-run report wiring. The deadline bounds the
    # budgeted phases, so this finishes *faster* than a plain table1 run
    # (~3.1 min vs ~3.7 min, release, 2-CPU host); every benchmark must
    # still verify equivalent.
    echo "==> table1 fault-injection smoke"
    out=$(cargo run -q -p sbm-bench --bin table1 --release -- \
        --fault-seed 1 --fault-rate 0.15 --deadline 5)
    if grep -q "MISMATCH" <<<"$out"; then
        echo "fault-injection smoke: equivalence MISMATCH" >&2
        grep "MISMATCH" <<<"$out" >&2
        exit 1
    fi
fi

# Checkpoint/resume smoke: interrupt a checkpointed single-benchmark
# table1 run with a tight deadline, then rerun it into the same directory:
# the rerun must resume on its own (report a resume summary), verify
# equivalent, and emit no checkpoint warnings. A third run with
# `--sim-filter off` changes the snapshot fingerprint, so it must start
# fresh (no resume summary) and still verify with no warnings. Quick mode
# uses the debug binary; full mode release.
echo "==> checkpoint/resume smoke"
ckdir=$(mktemp -d)
trap 'rm -rf "$ckdir"' EXIT
if [[ $quick -eq 0 ]]; then
    table1=(cargo run -q -p sbm-bench --bin table1 --release --)
else
    cargo build -q -p sbm-bench --bin table1
    table1=(cargo run -q -p sbm-bench --bin table1 --)
fi
"${table1[@]}" --only i2c --checkpoint "$ckdir" --deadline 0.2 >/dev/null
[[ -f "$ckdir/i2c/script.state" ]] || {
    echo "checkpoint smoke: no script.state written" >&2
    exit 1
}
out=$("${table1[@]}" --only i2c --checkpoint "$ckdir")
if ! grep -q "resume:" <<<"$out"; then
    echo "checkpoint smoke: rerun reported no resume summary" >&2
    exit 1
fi
if grep -qE "MISMATCH|checkpoint WARNING" <<<"$out"; then
    echo "checkpoint smoke: resume failed" >&2
    grep -E "MISMATCH|checkpoint WARNING" <<<"$out" >&2
    exit 1
fi
out=$("${table1[@]}" --only i2c --checkpoint "$ckdir" --sim-filter off)
if grep -q "resume:" <<<"$out"; then
    echo "checkpoint smoke: a run under other options resumed" >&2
    exit 1
fi
if ! grep -q "eq(SAT)" <<<"$out" || grep -q "checkpoint WARNING" <<<"$out"; then
    echo "checkpoint smoke: fresh run under other options failed" >&2
    grep -E "i2c|checkpoint WARNING" <<<"$out" >&2
    exit 1
fi

# Run-report smoke: regenerate BENCH_quick.json — a serialized RunReport
# from a two-benchmark parallel table1 pass — and validate it with the
# crate's own strict decoder. report_check fails on any schema drift
# (missing/unknown/mistyped field, version mismatch, unstable
# re-encode); --require-bdd asserts the harvested BDD counters and
# per-engine latency histograms are nonzero, and --require-sim asserts
# the simulation-signature service actually screened candidates — the
# layers the report exists to keep are actually flowing.
echo "==> run-report smoke (BENCH_quick.json)"
if [[ $quick -eq 0 ]]; then
    report_check=(cargo run -q -p sbm-bench --bin report_check --release --)
else
    cargo build -q -p sbm-bench --bin report_check
    report_check=(cargo run -q -p sbm-bench --bin report_check --)
fi
"${table1[@]}" --only i2c,priority --threads 2 \
    --report-json BENCH_quick.json >/dev/null
"${report_check[@]}" BENCH_quick.json --require-bdd --require-sim

# Sim-filter smoke (quick mode): run the same benchmark with the
# signature filter on and off at the same thread count. Both results
# must SAT-verify equivalent, and — because the filter is a sound
# necessary condition that only discards hopeless candidates — the
# filtered pass must end at least as small as the unfiltered one. The
# switch never picks the schedule, so the unfiltered row must also be
# identical at one and two threads.
if [[ $quick -eq 1 ]]; then
    echo "==> sim-filter on/off smoke"
    row_on=$("${table1[@]}" --only priority --threads 2 | grep '^priority')
    row_off=$("${table1[@]}" --only priority --threads 2 --sim-filter off |
        grep '^priority')
    row_off_t1=$("${table1[@]}" --only priority --threads 1 --sim-filter off |
        grep '^priority')
    if [[ "$row_off" != "$row_off_t1" ]]; then
        echo "sim-filter smoke: unfiltered run depends on --threads" >&2
        echo "  threads 1: $row_off_t1" >&2
        echo "  threads 2: $row_off" >&2
        exit 1
    fi
    for row in "$row_on" "$row_off"; do
        if ! grep -q 'eq(SAT)' <<<"$row"; then
            echo "sim-filter smoke: run did not verify equivalent: $row" >&2
            exit 1
        fi
    done
    lut_on=$(awk '{print $7}' <<<"$row_on")
    lut_off=$(awk '{print $7}' <<<"$row_off")
    if ((lut_on > lut_off)); then
        echo "sim-filter smoke: filtered pass lost quality" >&2
        echo "  on:  $row_on" >&2
        echo "  off: $row_off" >&2
        exit 1
    fi
fi

# Server smoke (quick mode): start sbm-server, drive it with loadgen,
# SIGKILL the server mid-run and restart it over the same store root.
# The recovery scan must pick the in-flight jobs back up, loadgen must
# account for every job exactly once (it exits nonzero on anything
# lost, duplicated or failed), and every streamed RunReport must pass
# report_check --require-sim. The release-mode soak test (crates/server
# tests/soak.rs) is the rigorous version; this is the always-on gate.
if [[ $quick -eq 1 ]]; then
    echo "==> server kill/restart smoke"
    cargo build -q -p sbm-server --bins
    srvdir=$(mktemp -d)
    server_pid=""
    trap 'rm -rf "$ckdir" "$srvdir"; kill "$server_pid" 2>/dev/null || true' EXIT
    addrfile="$srvdir/addr"
    start_server() {
        target/debug/sbm-server --root "$srvdir/store" --addr 127.0.0.1:0 \
            --addr-file "$addrfile" --workers 2 --slice-ms 20 >/dev/null &
        server_pid=$!
    }
    start_server
    target/debug/loadgen --addr-file "$addrfile" --jobs 32 --clients 4 \
        --iterations 2 --out "$srvdir/out" --timeout-s 300 --tag ci &
    load_pid=$!
    # Kill once a few results exist (or the window passes — tiny corpus
    # jobs can outrun the poll; the soak test pins the strict timing).
    for _ in $(seq 1 300); do
        n=$(find "$srvdir/out" -name '*.json' 2>/dev/null | wc -l)
        [[ $n -ge 3 ]] && break
        sleep 0.1
    done
    kill -9 "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    start_server
    if ! wait "$load_pid"; then
        echo "server smoke: loadgen lost, duplicated or failed jobs" >&2
        exit 1
    fi
    kill "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    got=$(find "$srvdir/out" -name '*.json' | wc -l)
    if [[ $got -ne 32 ]]; then
        echo "server smoke: expected 32 reports, found $got" >&2
        exit 1
    fi
    for report in "$srvdir"/out/*.json; do
        "${report_check[@]}" "$report" --require-sim >/dev/null
    done
    echo "server smoke: 32/32 jobs survived the kill/restart"
fi

# I/O + wire chaos smoke (quick mode): the server routes every store
# access through the fault-injecting VFS (10% deterministic disk faults,
# scrubbing the store at startup) while loadgen injects frame
# drop/truncate/corrupt/delay faults at 10% and rides them out with
# idempotent resubmission + capped backoff. Every job must settle
# exactly once, and every streamed report must pass the strict decoder —
# which round-trips the schema-v4 scrub/io-fault/retry counters. The
# release-mode chaos soak (crates/server/tests/soak.rs) is the rigorous
# byte-identity version; this is the always-on gate.
if [[ $quick -eq 1 ]]; then
    echo "==> server chaos smoke (disk+frame faults @ 10%)"
    chaosdir=$(mktemp -d)
    chaos_pid=""
    trap 'rm -rf "$ckdir" "$srvdir" "$chaosdir"; kill "$server_pid" "$chaos_pid" 2>/dev/null || true' EXIT
    target/debug/sbm-server --root "$chaosdir/store" --addr 127.0.0.1:0 \
        --addr-file "$chaosdir/addr" --workers 2 --slice-ms 20 \
        --io-fault-rate 0.1 --io-fault-seed 7 --scrub on >/dev/null &
    chaos_pid=$!
    if ! target/debug/loadgen --addr-file "$chaosdir/addr" --jobs 16 \
        --clients 4 --iterations 2 --out "$chaosdir/out" --timeout-s 300 \
        --tag chaos --net-fault-rate 0.1 --net-fault-seed 7; then
        echo "chaos smoke: loadgen lost, duplicated or failed jobs" >&2
        exit 1
    fi
    kill "$chaos_pid" 2>/dev/null || true
    wait "$chaos_pid" 2>/dev/null || true
    got=$(find "$chaosdir/out" -name '*.json' | wc -l)
    if [[ $got -ne 16 ]]; then
        echo "chaos smoke: expected 16 reports, found $got" >&2
        exit 1
    fi
    for report in "$chaosdir"/out/*.json; do
        "${report_check[@]}" "$report" --require-sim >/dev/null
    done
    echo "chaos smoke: 16/16 jobs settled exactly once under 10% fault rates"
fi

# Full mode: probe a disk fault at *every byte offset* of a checkpoint
# write (release build) — the committed generation must stay readable
# and the scrubber must quarantine exactly the torn file.
if [[ $quick -eq 0 ]]; then
    echo "==> every-offset checkpoint fault test (release)"
    cargo test -q -p sbm-server --release --test chaos \
        every_offset_snapshot_fault_preserves_previous_checkpoint
fi

echo "CI OK"

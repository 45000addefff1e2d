// Test code: a panic IS the failure report (clippy.toml only relaxes
// unwrap/expect inside #[test] fns, not test-file helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Corpus regression on the quick EPFL benchmarks: the arena AIG core
//! must behave identically to the old node-table core on real netlists,
//! not just on random DAGs — cleanup preserves function and exact size,
//! pipeline outputs are canonical at the snapshot-encoding level, and
//! all of it holds at every thread count the quick benches use.

use sbm_aig::Aig;
use sbm_budget::Budget;
use sbm_core::engine::{Engine, EngineCtx, Resub, Rewrite};
use sbm_core::pipeline::pass;
use sbm_core::verify::equivalent;
use sbm_epfl::{generate, Scale};
use sbm_journal::encode_aig;

const QUICK_BENCHES: &[&str] = &["i2c", "priority"];

/// Reduced control designs that the pass's window limits split into many
/// windows, so the worker pool really fans out.
const MULTI_WINDOW_BENCHES: &[&str] = &["arbiter", "priority", "router", "i2c"];

/// A rewrite pass then a resub pass at `num_threads` workers.
fn windowed_passes(name: &str, aig: &Aig, num_threads: usize) -> Aig {
    let budget = Budget::unlimited();
    let ctx = EngineCtx::new(&budget).with_threads(num_threads);
    let engines: [&dyn Engine; 2] = [&Rewrite::default(), &Resub::default()];
    let mut cur = aig.clone();
    for engine in engines {
        let run = pass(&cur, engine, &ctx);
        assert!(
            run.stats.windows_total >= 8,
            "{name}: {} pass saw only {} windows",
            engine.name(),
            run.stats.windows_total
        );
        cur = run.aig;
    }
    cur
}

#[test]
fn cleanup_is_exact_on_epfl_benchmarks() {
    for name in QUICK_BENCHES {
        let aig = generate(name, Scale::Reduced).expect("known benchmark");
        let clean = aig.cleanup();
        // Generators build bottom-up with no dead logic, so cleanup must
        // keep the size exactly while renumbering canonically.
        assert_eq!(
            clean.num_ands(),
            aig.num_ands(),
            "{name}: cleanup changed size"
        );
        assert!(equivalent(&aig, &clean), "{name}: cleanup changed function");
        assert!(
            clean.is_canonical_form(),
            "{name}: cleanup output not canonical"
        );
        let bytes = encode_aig(&clean).expect("canonical graph must encode");
        let again = encode_aig(&clean.cleanup()).expect("re-clean must encode");
        assert_eq!(bytes, again, "{name}: cleanup moved snapshot bytes");
    }
}

#[test]
fn pipeline_outputs_are_canonical_at_every_thread_count() {
    for name in MULTI_WINDOW_BENCHES {
        let aig = generate(name, Scale::Reduced).expect("known benchmark");
        let serial =
            encode_aig(&windowed_passes(name, &aig, 1)).expect("serial output must encode");
        for threads in [1usize, 2, 4] {
            let out = windowed_passes(name, &aig, threads);
            assert!(
                equivalent(&aig, &out),
                "{name}@{threads}t: pipeline changed function"
            );
            // The pipeline's final cleanup hands back a canonical graph,
            // so its snapshot encoding is already a fixpoint.
            assert!(
                out.is_canonical_form(),
                "{name}@{threads}t: pipeline output not canonical"
            );
            let bytes = encode_aig(&out).expect("pipeline output must encode");
            let again = encode_aig(&out.cleanup()).expect("re-clean must encode");
            assert_eq!(
                bytes, again,
                "{name}@{threads}t: cleanup moved pipeline bytes"
            );
            assert_eq!(
                bytes, serial,
                "{name}@{threads}t: thread count changed the result"
            );
        }
    }
}

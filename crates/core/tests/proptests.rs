// Test code: a panic IS the failure report (clippy.toml only relaxes
// unwrap/expect inside #[test] fns, not test-file helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Property tests: every SBM engine must preserve network function and
//! never increase size, on random DAGs — and the parallel pipeline must
//! agree with its serial self on multi-window designs.

use proptest::prelude::*;
use sbm_aig::{Aig, Lit};
use sbm_budget::Budget;
use sbm_check::{FaultKind, FaultPlan};
use sbm_core::engine::{
    run_checked, Balance, Bdiff, Engine, EngineCtx, Gradient, Hetero, Mspf, Refactor, Resub,
    Rewrite,
};
use sbm_core::gradient::GradientOptions;
use sbm_core::pipeline::{pass, PipelineReport};
use sbm_core::verify::equivalent;
use sbm_core::CheckLevel;
use sbm_epfl::{generate, Scale};

#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    steps: Vec<(u8, usize, usize, bool, bool)>,
    num_outputs: usize,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (3usize..=6, 5usize..=40, 1usize..=3).prop_flat_map(|(num_inputs, num_steps, num_outputs)| {
        let step = (
            0u8..3,
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            any::<bool>(),
        );
        proptest::collection::vec(step, num_steps).prop_map(move |raw| {
            let steps = raw
                .iter()
                .enumerate()
                .map(|(i, &(op, a, b, na, nb))| {
                    let pool = num_inputs + i;
                    (op, a as usize % pool, b as usize % pool, na, nb)
                })
                .collect();
            Recipe {
                num_inputs,
                steps,
                num_outputs,
            }
        })
    })
}

fn build(recipe: &Recipe) -> Aig {
    let mut aig = Aig::new();
    let mut signals: Vec<Lit> = (0..recipe.num_inputs).map(|_| aig.add_input()).collect();
    for &(op, a, b, na, nb) in &recipe.steps {
        let x = signals[a].complement_if(na);
        let y = signals[b].complement_if(nb);
        let s = match op {
            0 => aig.and(x, y),
            1 => aig.or(x, y),
            _ => aig.xor(x, y),
        };
        signals.push(s);
    }
    for k in 0..recipe.num_outputs {
        aig.add_output(signals[signals.len() - 1 - k.min(signals.len() - 1)]);
    }
    aig.cleanup()
}

macro_rules! engine_property {
    ($name:ident, $engine:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn $name(recipe in arb_recipe()) {
                let aig = build(&recipe);
                let engine = $engine;
                let budget = Budget::unlimited();
                let out = engine.optimize(&aig, &EngineCtx::new(&budget)).aig;
                prop_assert!(out.num_ands() <= aig.num_ands(),
                    "{} -> {}", aig.num_ands(), out.num_ands());
                prop_assert!(equivalent(&aig, &out), "function changed");
            }
        }
    };
}

engine_property!(balance_preserves, Balance);
engine_property!(rewrite_preserves, Rewrite::default());
engine_property!(refactor_preserves, Refactor::default());
engine_property!(resub_preserves, Resub::default());
engine_property!(mspf_preserves, Mspf::default());
engine_property!(bdiff_preserves, Bdiff::default());
engine_property!(hetero_preserves, Hetero::default());
engine_property!(
    gradient_preserves,
    Gradient {
        options: GradientOptions {
            budget: 20,
            budget_extension: 0,
            ..Default::default()
        },
    }
);

// Every engine, run under `Paranoid`-style bracketing on random DAGs:
// the pre/post structural checks and the 64-pattern spot-check must all
// stay silent — a violation here means an engine emitted a malformed or
// functionally wrong network that `run_checked` had to discard.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn every_engine_is_clean_under_paranoid_checks(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let engines: Vec<Box<dyn Engine>> = vec![
            Box::new(Balance),
            Box::new(Rewrite::default()),
            Box::new(Refactor::default()),
            Box::new(Resub::default()),
            Box::new(Mspf::default()),
            Box::new(Bdiff::default()),
            Box::new(Hetero::default()),
            Box::new(Gradient {
                options: GradientOptions {
                    budget: 20,
                    budget_extension: 0,
                    ..Default::default()
                },
            }),
        ];
        let budget = Budget::unlimited();
        for engine in &engines {
            let (result, violations) =
                run_checked(engine.as_ref(), &aig, &EngineCtx::new(&budget), None);
            prop_assert!(
                violations.is_empty(),
                "{} violated invariants: {:?}",
                engine.name(),
                violations
            );
            prop_assert!(equivalent(&aig, &result.aig), "{} changed function", engine.name());
        }
    }
}

/// Reduced EPFL control designs that the pass's window limits split into
/// many windows (a random recipe fits in one or two), so the worker pool
/// and the per-window fault ledger really get exercised.
const MULTI_WINDOW: [&str; 4] = ["arbiter", "priority", "router", "i2c"];

fn design(name: &str) -> Aig {
    generate(name, Scale::Reduced).expect("known benchmark")
}

/// A rewrite pass then a resub pass under `ctx`; returns the final
/// network and each pass's report.
fn rewrite_resub(aig: &Aig, ctx: &EngineCtx<'_>) -> (Aig, Vec<PipelineReport>) {
    let engines: [&dyn Engine; 2] = [&Rewrite::default(), &Resub::default()];
    let mut cur = aig.clone();
    let mut reports = Vec::new();
    for engine in engines {
        let run = pass(&cur, engine, ctx);
        cur = run.aig;
        reports.push(run.stats);
    }
    (cur, reports)
}

/// [`rewrite_resub`] at `threads` workers with no checks or faults.
fn rewrite_resub_at(aig: &Aig, threads: usize) -> (Aig, Vec<PipelineReport>) {
    let budget = Budget::unlimited();
    rewrite_resub(aig, &EngineCtx::new(&budget).with_threads(threads))
}

// The windowed executor's determinism contract on real netlists: every
// thread count yields the serial network byte for byte, equivalent to the
// input, with consistent window accounting.
#[test]
fn parallel_pipeline_equivalent_and_no_larger_than_serial() {
    for name in MULTI_WINDOW {
        let aig = design(name);
        let (serial, reports) = rewrite_resub_at(&aig, 1);
        assert!(equivalent(&aig, &serial), "{name}: serial broke function");
        for report in &reports {
            assert!(report.windows_total >= 8, "{name}: too few windows");
            assert!(report.is_consistent(), "{name}: {report:?}");
        }
        for threads in [2usize, 4] {
            let (parallel, reports) = rewrite_resub_at(&aig, threads);
            assert_eq!(
                sbm_aig::aiger::write(&parallel),
                sbm_aig::aiger::write(&serial),
                "{name}: {threads}-thread result differs from serial"
            );
            for report in &reports {
                assert!(report.is_consistent(), "{name}: {report:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Zero-fault runs must report zero faults: the fault machinery is
    // pure observation when nothing goes wrong.
    #[test]
    fn fault_free_pipeline_reports_zero_faults(recipe in arb_recipe()) {
        let aig = build(&recipe);
        for threads in [1usize, 2] {
            let (_, reports) = rewrite_resub_at(&aig, threads);
            for report in &reports {
                prop_assert!(report.fault.is_zero(), "{:?}", report.fault);
            }
        }
    }

    #[test]
    fn paranoid_pipeline_reports_no_violations(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let (plain, _) = rewrite_resub_at(&aig, 2);
        let budget = Budget::unlimited();
        let ctx = EngineCtx::new(&budget)
            .with_threads(2)
            .with_check_level(CheckLevel::Paranoid);
        let (checked, reports) = rewrite_resub(&aig, &ctx);
        for report in &reports {
            prop_assert!(
                report.check_violations.is_empty(),
                "{:?}",
                report.check_violations
            );
        }
        prop_assert_eq!(plain.num_ands(), checked.num_ands());
        prop_assert!(equivalent(&aig, &checked), "checked pipeline broke function");
    }

    // Seeded fault injection at 10–30% rates: every run must complete,
    // stay functionally equivalent to its input, keep consistent window
    // accounting, and tally a `FaultSummary` that replays exactly from
    // the injected-fault ledger — independent of thread count.
    #[test]
    fn fault_injected_pipeline_survives_and_ledgers_exactly(
        which in 0usize..MULTI_WINDOW.len(),
        seed in any::<u64>(),
        rate_pct in 10u32..30,
    ) {
        let aig = design(MULTI_WINDOW[which]);
        let plan = FaultPlan::uniform(seed, f64::from(rate_pct) / 100.0);
        let budget = Budget::unlimited();
        let mut summaries = Vec::new();
        for threads in [1usize, 2] {
            let ctx = EngineCtx::new(&budget)
                .with_threads(threads)
                .with_fault_plan(Some(&plan));
            let (out, reports) = rewrite_resub(&aig, &ctx);
            prop_assert!(equivalent(&aig, &out), "injection broke function");
            // Window indices restart with every pass, so the ledger
            // replays pass by pass.
            for report in &reports {
                prop_assert!(report.windows_total >= 8, "too few windows");
                prop_assert!(report.is_consistent(), "{:?}", report);
                if let Err(mismatch) = assert_ledger_exact(report) {
                    prop_assert!(false, "{}", mismatch);
                }
            }
            summaries.push(reports.into_iter().map(|r| r.fault).collect::<Vec<_>>());
        }
        // The roll is a pure function of (seed, window, engine, attempt),
        // so every summary — ledger included — is thread-invariant.
        prop_assert_eq!(&summaries[0], &summaries[1]);
    }
}

/// Replays the injected-fault ledger against the per-engine counters:
/// every count in the summary must be derivable from the ledger alone.
/// Valid whenever no *genuine* faults occur alongside the injected ones
/// (the engines under test neither panic nor hit node limits here).
fn assert_ledger_exact(report: &PipelineReport) -> Result<(), String> {
    let fault = &report.fault;
    let check = |what: &str, got: usize, want: usize| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: summary says {got}, ledger says {want}"))
        }
    };
    let count = |engine: &str, attempt: Option<u8>, kinds: &[FaultKind]| {
        fault
            .injected
            .iter()
            .filter(|f| {
                f.engine == engine
                    && attempt.is_none_or(|a| f.attempt == a)
                    && kinds.contains(&f.kind)
            })
            .count()
    };
    let failures = [FaultKind::Panic, FaultKind::Bailout];
    for (name, c) in &fault.per_engine {
        check(
            &format!("{name} panics"),
            c.panics,
            count(name, None, &[FaultKind::Panic]),
        )?;
        check(
            &format!("{name} delays"),
            c.delays,
            count(name, None, &[FaultKind::Delay]),
        )?;
        check(
            &format!("{name} injected bailouts"),
            c.injected_bailouts,
            count(name, None, &[FaultKind::Bailout]),
        )?;
        // A retry happens exactly when attempt 0 failed, and succeeds
        // unless attempt 1 was also shot down.
        check(
            &format!("{name} retries"),
            c.retries,
            count(name, Some(0), &failures),
        )?;
        check(
            &format!("{name} retry successes"),
            c.retry_successes,
            c.retries - count(name, Some(1), &failures),
        )?;
    }
    // A window degrades exactly when some engine's retry failed; the
    // chain stops there, so distinct windows with an attempt-1 failure
    // equal the degraded count.
    let mut degraded: Vec<usize> = fault
        .injected
        .iter()
        .filter(|f| f.attempt == 1 && failures.contains(&f.kind))
        .map(|f| f.window)
        .collect();
    degraded.sort_unstable();
    degraded.dedup();
    check("degraded windows", fault.degraded_windows, degraded.len())
}

// The acceptance stress test: seeded panic/delay/bailout injection at a
// 15% per-kind rate across *all eight* engines. Every run must complete
// without aborting, produce a network functionally equivalent to its
// input (simulation screen + SAT gate, via `equivalent`), and report a
// `FaultSummary` that matches the injected-fault ledger exactly. Across
// the seeds the retry ladder must demonstrably rescue some attempts. Each
// engine runs as its own pass over a multi-window design.
#[test]
fn all_engine_fault_stress_completes_equivalent_with_exact_ledger() {
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(Balance),
        Box::new(Rewrite::default()),
        Box::new(Refactor::default()),
        Box::new(Resub::default()),
        Box::new(Mspf::default()),
        Box::new(Bdiff::default()),
        Box::new(Hetero::default()),
        Box::new(Gradient {
            options: GradientOptions {
                budget: 20,
                budget_extension: 0,
                ..Default::default()
            },
        }),
    ];
    let budget = Budget::unlimited();
    let mut total_injected = 0usize;
    let mut total_retry_successes = 0usize;
    for (seed, name) in [(1u64, "arbiter"), (2, "priority"), (3, "router")] {
        let aig = design(name);
        let plan = FaultPlan::uniform(seed, 0.15);
        let ctx = EngineCtx::new(&budget)
            .with_threads(2)
            .with_fault_plan(Some(&plan));
        let mut cur = aig.clone();
        for engine in &engines {
            let run = pass(&cur, engine.as_ref(), &ctx);
            let report = &run.stats;
            assert!(
                report.windows_total >= 8,
                "{name}/{}: too few windows",
                engine.name()
            );
            assert!(report.is_consistent(), "{name}: {report:?}");
            // Window indices restart with every pass, so the ledger
            // replays pass by pass.
            if let Err(mismatch) = assert_ledger_exact(report) {
                panic!("{name}/{}: {mismatch}\n{:?}", engine.name(), report.fault);
            }
            total_injected += report.fault.injected.len();
            total_retry_successes += report
                .fault
                .per_engine
                .iter()
                .map(|(_, c)| c.retry_successes)
                .sum::<usize>();
            cur = run.aig;
        }
        assert!(
            equivalent(&aig, &cur),
            "seed {seed}: injection broke function"
        );
    }
    assert!(total_injected > 0, "stress plan never fired");
    assert!(
        total_retry_successes > 0,
        "retry ladder never rescued an attempt across the stress seeds"
    );
}

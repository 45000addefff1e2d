//! Regenerates **Figure 1** — the Boolean-difference worked example.
//!
//! Fig. 1(a) shows functions `f` and `g` over `x1..x5` implemented as
//! separate cones; Fig. 1(b) shows `f` rewritten as `(∂f/∂g) ⊕ g`,
//! reducing the total node count because the difference network is tiny.
//! This binary builds such a network, runs the Boolean-difference engine
//! and prints the before/after structure.

use sbm_aig::Aig;
use sbm_budget::Budget;
use sbm_core::engine::{Bdiff, Engine, EngineCtx};

fn main() {
    // f and g share a small Boolean difference but no structure:
    //   g = (x1·x2) + (x3·x4)
    //   f = ((x1·x2) + (x3·x4)) ⊕ x5, built as an independent cone.
    let mut aig = Aig::new();
    let x: Vec<_> = (0..5).map(|_| aig.add_input()).collect();
    let g1 = aig.and(x[0], x[1]);
    let g2 = aig.and(x[2], x[3]);
    let g = aig.or(g1, g2);
    // f rebuilt with redundant structure so strashing cannot share it
    // with g's cone (x·y == (x·y)·(x+y)).
    let f1a = aig.and(x[0], x[1]);
    let f1b = aig.or(x[0], x[1]);
    let f1 = aig.and(f1a, f1b);
    let f2a = aig.and(x[2], x[3]);
    let f2b = aig.or(x[2], x[3]);
    let f2 = aig.and(f2a, f2b);
    let fg = aig.or(f1, f2);
    let f = aig.mux(x[4], !fg, fg);
    aig.add_output(g);
    aig.add_output(f);
    let aig = aig.cleanup();

    println!("Figure 1 — Boolean difference example");
    println!();
    println!(
        "(a) original network:  {} AND nodes, {} levels",
        aig.num_ands(),
        aig.depth()
    );

    let result = Bdiff::default().optimize(&aig, &EngineCtx::new(&Budget::unlimited()));
    let optimized = result.aig;
    println!(
        "(b) after f ← (∂f/∂g) ⊕ g: {} AND nodes, {} levels",
        optimized.num_ands(),
        optimized.depth()
    );
    println!();
    println!(
        "windows: {}, pairs tried: {}, rewrites accepted: {}, bailouts: {}",
        result.stats.windows, result.stats.tried, result.stats.accepted, result.stats.bailouts
    );
    let verdict = sbm_bench::verify_pair(&aig, &optimized, 10_000);
    println!("verify: {verdict}");
    assert!(
        optimized.num_ands() <= aig.num_ands(),
        "the rewrite must not grow the network"
    );
    sbm_bench::exit_on_mismatch(&[verdict]);
}

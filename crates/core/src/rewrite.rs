//! Cut-based DAG-aware rewriting.
//!
//! The `rewrite` move of the gradient engine (Section IV-A), in the spirit
//! of Mishchenko et al. \[12\]: enumerate small cuts, resynthesize each
//! cut's function from scratch (ISOP + algebraic factoring, both
//! polarities), and accept the replacement when it reduces the node count,
//! taking structural sharing with the existing network into account.

use std::cell::RefCell;
use std::collections::HashMap;

use sbm_aig::cut::{enumerate_cuts, CutOptions};
use sbm_aig::mffc::mffc_within;
use sbm_aig::sim::{lit_truth_table, window_truth_tables};
use sbm_aig::{Aig, Lit};
use sbm_sop::factor::{factor, Factored};
use sbm_sop::isop::isop_exact;
use sbm_tt::TruthTable;

use crate::engine::EngineStats;

/// Options for rewriting.
#[derive(Debug, Clone, Copy)]
pub struct RewriteOptions {
    /// Cut size (4 mirrors classic AIG rewriting).
    pub k: usize,
    /// Priority cuts per node.
    pub max_cuts: usize,
    /// Accept zero-gain replacements (reshapes the network; the paper's
    /// Alg. 2 uses the same trick to escape local minima).
    pub allow_zero_gain: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            k: 4,
            max_cuts: 8,
            allow_zero_gain: false,
        }
    }
}

/// The resynthesis [`emit_function`] chooses for one truth table: the
/// factored form and whether it implements the complement, or `None`
/// when both covers are over the cube limit.
type Chosen = Option<(bool, Factored)>;

/// Entries a thread's memo holds before it starts over. One script run
/// on a reduced EPFL row peaks below 2,000 distinct tables; the cap only
/// bounds callers that run engines outside a [`MemoScope`].
const MEMO_CAP: usize = 4096;

/// The calling thread's memo of [`emit_function`]'s choice per truth
/// table (see [`MemoScope`] for its lifetime).
#[derive(Default)]
struct FactorMemo {
    chosen: HashMap<TruthTable, Chosen>,
    hits: u64,
    misses: u64,
    /// Open [`MemoScope`]s on this thread; only the outermost clears.
    scopes: usize,
}

thread_local! {
    /// One memo per thread, like the BDD manager pool: windowed workers
    /// are scoped threads, so theirs lasts one pass, and no lock is ever
    /// taken.
    static FACTOR_MEMO: RefCell<FactorMemo> = RefCell::new(FactorMemo::default());
}

/// Scopes the calling thread's [`emit_function`] memo to one run: the
/// outermost guard empties it when taken and again when dropped
/// (unwinding included), so no table outlives the run that factored it.
/// Nested guards leave the memo alone.
pub(crate) struct MemoScope(());

impl MemoScope {
    pub(crate) fn enter() -> MemoScope {
        FACTOR_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if memo.scopes == 0 {
                memo.chosen.clear();
            }
            memo.scopes += 1;
        });
        MemoScope(())
    }
}

impl Drop for MemoScope {
    fn drop(&mut self) {
        let _ = FACTOR_MEMO.try_with(|memo| {
            if let Ok(mut memo) = memo.try_borrow_mut() {
                memo.scopes = memo.scopes.saturating_sub(1);
                if memo.scopes == 0 {
                    memo.chosen.clear();
                }
            }
        });
    }
}

/// The calling thread's memo as `(entries, hits, misses)`; the two
/// counters accumulate over the thread's lifetime. Hits depend on how
/// windows fall to threads, so they stay out of every thread-invariance
/// check.
#[cfg(test)]
pub(crate) fn memo_counts() -> (usize, u64, u64) {
    FACTOR_MEMO.with(|memo| {
        let memo = memo.borrow();
        (memo.chosen.len(), memo.hits, memo.misses)
    })
}

/// ISOP of both polarities, factored, the smaller one chosen.
fn choose(tt: &TruthTable) -> Chosen {
    const MAX_CUBES: usize = 64;
    let pos_cover = isop_exact(tt);
    let neg_cover = isop_exact(&!tt);
    if pos_cover.num_cubes().min(neg_cover.num_cubes()) > MAX_CUBES {
        return None;
    }
    let pos = factor(&pos_cover);
    let neg = factor(&neg_cover);
    Some(if neg.num_lits() < pos.num_lits() {
        (true, neg)
    } else {
        (false, pos)
    })
}

/// Resynthesizes `tt` over `leaf_lits` into the AIG, picking the better
/// polarity by factored literal count. Returns the implementing literal,
/// or `None` when both polarities produce pathologically wide covers
/// (e.g. parity functions, whose ISOP has `2^(n−1)` cubes) — those cones
/// are better left to structural methods.
///
/// The choice is a pure function of `tt`, so each thread memoizes it
/// (one ISOP + factoring per table per run, see [`MemoScope`]). Emission
/// always goes through [`Aig::and`], so strash sharing with `aig` and the
/// returned literal are exactly what a fresh computation gives.
pub(crate) fn emit_function(aig: &mut Aig, tt: &TruthTable, leaf_lits: &[Lit]) -> Option<Lit> {
    let emit = |aig: &mut Aig, chosen: &Chosen| {
        let (negated, fac) = chosen.as_ref()?;
        Some(emit_factored(aig, fac, leaf_lits).complement_if(*negated))
    };
    FACTOR_MEMO.with(|memo| {
        let memo = &mut *memo.borrow_mut();
        if let Some(chosen) = memo.chosen.get(tt) {
            memo.hits += 1;
            return emit(aig, chosen);
        }
        memo.misses += 1;
        if memo.chosen.len() >= MEMO_CAP {
            memo.chosen.clear();
        }
        let chosen = choose(tt);
        let lit = emit(aig, &chosen);
        memo.chosen.insert(tt.clone(), chosen);
        lit
    })
}

/// Emits `fac` into `aig` over `leaf_lits` (a factored-form literal's
/// signal indexes the slice), strashing every gate.
pub(crate) fn emit_factored(aig: &mut Aig, fac: &Factored, leaf_lits: &[Lit]) -> Lit {
    match fac {
        Factored::Zero => Lit::FALSE,
        Factored::One => Lit::TRUE,
        Factored::Lit(l) => leaf_lits[l.signal() as usize].complement_if(l.is_negated()),
        Factored::And(a, b) => {
            let la = emit_factored(aig, a, leaf_lits);
            let lb = emit_factored(aig, b, leaf_lits);
            aig.and(la, lb)
        }
        Factored::Or(a, b) => {
            let la = emit_factored(aig, a, leaf_lits);
            let lb = emit_factored(aig, b, leaf_lits);
            aig.or(la, lb)
        }
    }
}

/// The rewriting pass: `tried` counts the cuts evaluated, `accepted` the
/// nodes rewritten.
pub(crate) fn rewrite_impl(aig: &Aig, options: &RewriteOptions) -> (Aig, EngineStats) {
    let mut work = aig.cleanup();
    let mut stats = EngineStats::default();
    let cuts = enumerate_cuts(
        &work,
        CutOptions {
            k: options.k,
            max_cuts: options.max_cuts,
        },
    );
    let order = work.topo_order();
    let mut fanout_counts = work.fanout_counts();
    for id in order {
        if work.is_replaced(id)
            || !work.is_and(id)
            || fanout_counts.get(id.index()).is_none_or(|&c| c == 0)
        {
            continue;
        }
        let Some(node_cuts) = cuts.get(&id) else {
            continue;
        };
        let mut best: Option<(Lit, usize)> = None; // (replacement, gain)
        for cut in node_cuts {
            if cut.leaves() == [id] || cut.size() < 2 {
                continue;
            }
            // Skip cuts whose leaves were rewritten away meanwhile.
            if cut.leaves().iter().any(|&l| work.is_replaced(l)) {
                continue;
            }
            stats.tried += 1;
            let tables = window_truth_tables(&work, &[id], cut.leaves());
            let Some(tt) = lit_truth_table(&tables, Lit::new(id, false)) else {
                continue;
            };
            let saving = mffc_within(&work, id, cut.leaves(), &fanout_counts).len();
            let leaf_lits: Vec<Lit> = cut.leaves().iter().map(|&n| Lit::new(n, false)).collect();
            let before = work.num_nodes();
            let Some(replacement) = emit_function(&mut work, &tt, &leaf_lits) else {
                continue;
            };
            let created = work.num_nodes() - before;
            if created > saving || replacement.node() == id {
                continue;
            }
            let gain = saving - created;
            if gain == 0 && !options.allow_zero_gain {
                continue;
            }
            if best.as_ref().is_none_or(|&(_, g)| gain > g) {
                best = Some((replacement, gain));
            }
        }
        if let Some((replacement, _)) = best {
            if work.replace(id, replacement).is_ok() {
                stats.accepted += 1;
                fanout_counts = work.fanout_counts();
            }
        }
    }
    (work.cleanup(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_unbounded, Rewrite};
    use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

    #[test]
    fn collapses_redundant_structure() {
        // f = (a & b) | (a & b & c): one 3-cut rewrite to a & b.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        let f = aig.or(ab, abc);
        aig.add_output(f);
        let before = aig.num_ands();
        let (optimized, stats) = rewrite_impl(&aig, &RewriteOptions::default());
        assert!(optimized.num_ands() < before, "{stats:?}");
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
    }

    #[test]
    fn mux_structure_is_not_worsened() {
        let mut aig = Aig::new();
        let s = aig.add_input();
        let t = aig.add_input();
        let e = aig.add_input();
        let m = aig.mux(s, t, e);
        aig.add_output(m);
        let optimized = run_unbounded(&Rewrite::default(), &aig).aig;
        assert!(optimized.num_ands() <= 3);
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
    }

    #[test]
    fn preserves_function_on_shared_logic() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let d = aig.add_input();
        let x = aig.xor(a, b);
        let y = aig.and(x, c);
        let z = aig.or(x, d); // x shared
        aig.add_output(y);
        aig.add_output(z);
        let optimized = run_unbounded(&Rewrite::default(), &aig).aig;
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
        assert!(optimized.num_ands() <= aig.num_ands());
    }

    /// A network over `n` inputs with some logic already in it, so that
    /// emission can strash-hit existing nodes.
    fn seeded_network(n: usize) -> (Aig, Vec<Lit>) {
        let mut aig = Aig::new();
        let leaves: Vec<Lit> = (0..n).map(|_| aig.add_input()).collect();
        let ab = aig.and(leaves[0], leaves[1]);
        let cd = aig.and(!leaves[2], leaves[3]);
        let f = aig.or(ab, cd);
        aig.add_output(f);
        (aig, leaves)
    }

    /// Emits `tt` into two clones of `base`, the first call a memo miss
    /// and the second a hit, and returns the first call's literal after
    /// checking that both calls emit the same literal and network.
    fn emit_miss_then_hit(base: &Aig, leaves: &[Lit], tt: &TruthTable) -> Option<Lit> {
        let (mut first, mut second) = (base.clone(), base.clone());
        let (_, hits0, misses0) = memo_counts();
        let miss = emit_function(&mut first, tt, leaves);
        let (_, hits1, misses1) = memo_counts();
        let hit = emit_function(&mut second, tt, leaves);
        let (_, hits2, misses2) = memo_counts();
        assert_eq!((hits1 - hits0, misses1 - misses0), (0, 1), "{tt:?}");
        assert_eq!((hits2 - hits1, misses2 - misses1), (1, 0), "{tt:?}");
        assert_eq!(miss, hit, "{tt:?}");
        assert_eq!(
            sbm_aig::aiger::write(&first),
            sbm_aig::aiger::write(&second),
            "{tt:?}"
        );
        miss
    }

    #[test]
    fn memoized_emission_matches_fresh_emission_on_every_4_input_table() {
        let _scope = MemoScope::enter();
        let (base, leaves) = seeded_network(4);
        for bits in 0..=u16::MAX {
            let tt = TruthTable::from_words(4, vec![u64::from(bits)]);
            let lit = emit_miss_then_hit(&base, &leaves, &tt);
            assert!(lit.is_some(), "a 4-input table has at most 8 cubes");
        }
    }

    #[test]
    fn memoized_emission_matches_fresh_emission_on_wide_tables() {
        let _scope = MemoScope::enter();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut wide, mut over_limit) = (0, 0);
        for n in 6..=14 {
            let (base, leaves) = seeded_network(n);
            let var = |i: usize| TruthTable::var(n, i);
            let mut parity = var(0);
            for i in 1..n {
                parity = &parity ^ &var(i);
            }
            let words = 1usize << (n - 6);
            let random = TruthTable::from_words(n, (0..words).map(|_| next()).collect());
            // A few random cubes: a sum of products the cube limit admits.
            let mut cubes = TruthTable::zero(n);
            for _ in 0..4 {
                let mut cube = TruthTable::one(n);
                for _ in 0..3 {
                    let i = (next() % n as u64) as usize;
                    let lit = if next() % 2 == 0 { var(i) } else { !&var(i) };
                    cube = &cube & &lit;
                }
                cubes = &cubes | &cube;
            }
            for tt in [parity, random, cubes] {
                match emit_miss_then_hit(&base, &leaves, &tt) {
                    Some(_) => wide += 1,
                    None => over_limit += 1,
                }
            }
        }
        assert!(
            wide > 0 && over_limit > 0,
            "{wide} emitted, {over_limit} over the cube limit"
        );
    }

    #[test]
    fn only_the_outermost_scope_clears_the_memo() {
        let (mut aig, leaves) = seeded_network(4);
        let tt = TruthTable::from_words(4, vec![0x8ff8]);
        let outer = MemoScope::enter();
        emit_function(&mut aig, &tt, &leaves);
        let inner = MemoScope::enter();
        assert_eq!(memo_counts().0, 1, "entering a nested scope keeps the memo");
        drop(inner);
        assert_eq!(memo_counts().0, 1, "leaving a nested scope keeps the memo");
        drop(outer);
        assert_eq!(memo_counts().0, 0, "leaving the outermost scope empties it");
    }
}

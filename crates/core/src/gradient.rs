//! Gradient-based AIG optimization (paper Section IV-A).
//!
//! Instead of a fixed script, the engine *learns* which moves pay off on
//! the current design: moves have costs, cheap moves are tried first, the
//! engine "records the gain of the best one" and prioritizes "moves with
//! high success likelihood on the current design … in the next
//! iterations". A cost budget bounds the total work; the budget is
//! auto-extended while the gain gradient over the last `k` iterations
//! exceeds a threshold, and the engine "terminates early if the gain
//! gradient is 0 over the last k iterations".

use sbm_aig::Aig;

use crate::engine::{self, Engine, EngineCtx, EngineResult};
use crate::hetero::HeteroOptions;
use crate::mspf::MspfOptions;
use crate::refactor::RefactorOptions;
use crate::resub::ResubOptions;

/// The move set of the gradient engine (paper: "rewriting, refactoring,
/// resub, mspf resub and eliminate, simplify & kerneling"; all but
/// rewriting come in low- and high-effort variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Cut-based rewriting.
    Rewrite,
    /// Cone collapsing + refactoring (low/high effort).
    Refactor { high_effort: bool },
    /// Windowed resubstitution (low/high effort).
    Resub { high_effort: bool },
    /// MSPF-based resubstitution with BDDs (low/high effort).
    MspfResub { high_effort: bool },
    /// Eliminate, simplify & kerneling (low/high effort).
    EliminateKernel { high_effort: bool },
    /// Boolean-difference resubstitution.
    BooleanDifference,
    /// AND-tree balancing (zero-cost housekeeping move).
    Balance,
}

impl Move {
    /// The runtime-complexity cost of the move (unit-cost moves are tried
    /// first; higher-cost moves enter once cheap moves hit a local
    /// minimum).
    pub fn cost(self) -> u32 {
        match self {
            Move::Balance => 1,
            Move::Rewrite => 1,
            Move::Resub { high_effort: false } => 1,
            Move::Refactor { high_effort: false } => 2,
            Move::Resub { high_effort: true } => 2,
            Move::EliminateKernel { high_effort: false } => 3,
            Move::Refactor { high_effort: true } => 3,
            Move::MspfResub { high_effort: false } => 4,
            Move::EliminateKernel { high_effort: true } => 5,
            Move::MspfResub { high_effort: true } => 6,
            Move::BooleanDifference => 6,
        }
    }

    fn refactor_options(high_effort: bool) -> RefactorOptions {
        RefactorOptions {
            max_support: if high_effort { 14 } else { 10 },
            min_mffc: if high_effort { 2 } else { 4 },
            ..Default::default()
        }
    }

    fn resub_options(high_effort: bool) -> ResubOptions {
        ResubOptions {
            max_divisors: if high_effort { 48 } else { 16 },
            try_pairs: high_effort,
            ..Default::default()
        }
    }

    fn mspf_options(high_effort: bool) -> MspfOptions {
        let mut opts = MspfOptions::default();
        if !high_effort {
            opts.partition.max_nodes = 120;
            opts.partition.max_inputs = 10;
            opts.max_candidates = 16;
        }
        opts
    }

    fn hetero_options(high_effort: bool) -> HeteroOptions {
        let mut opts = HeteroOptions::default();
        if !high_effort {
            opts.thresholds = vec![-1, 5, 50];
            opts.extract_rounds = 8;
        }
        opts
    }

    /// The move as an [`Engine`].
    fn engine(self) -> Box<dyn Engine> {
        match self {
            Move::Balance => Box::new(engine::Balance),
            Move::Rewrite => Box::new(engine::Rewrite::default()),
            Move::Refactor { high_effort } => Box::new(engine::Refactor {
                options: Move::refactor_options(high_effort),
            }),
            Move::Resub { high_effort } => Box::new(engine::Resub {
                options: Move::resub_options(high_effort),
            }),
            Move::MspfResub { high_effort } => Box::new(engine::Mspf {
                options: Move::mspf_options(high_effort),
            }),
            Move::EliminateKernel { high_effort } => Box::new(engine::Hetero {
                options: Move::hetero_options(high_effort),
            }),
            Move::BooleanDifference => Box::new(engine::Bdiff::default()),
        }
    }

    /// Applies the move under `ctx`: one monolithic run over the whole
    /// network on the calling thread. Moves are never windowed — the
    /// windowed fan-out would produce different (window-clipped) moves —
    /// so a move's result is the same at every thread count; parallelism
    /// comes from the script's own windowed steps.
    ///
    /// The result's
    /// [`EngineStats::bailouts`](crate::engine::EngineStats::bailouts)
    /// counts the BDD node-limit bailouts of the mspf/bdiff moves (always
    /// 0 for algebraic moves), so the gradient engine's ledger covers its
    /// inner invocations.
    pub fn apply(self, aig: &Aig, ctx: &EngineCtx<'_>) -> EngineResult {
        self.engine().optimize(aig, ctx)
    }
}

/// All moves, cheapest first.
pub fn all_moves() -> Vec<Move> {
    let mut moves = vec![
        Move::Balance,
        Move::Rewrite,
        Move::Resub { high_effort: false },
        Move::Refactor { high_effort: false },
        Move::Resub { high_effort: true },
        Move::EliminateKernel { high_effort: false },
        Move::Refactor { high_effort: true },
        Move::MspfResub { high_effort: false },
        Move::EliminateKernel { high_effort: true },
        Move::MspfResub { high_effort: true },
        Move::BooleanDifference,
    ];
    moves.sort_by_key(|m| m.cost());
    moves
}

/// Best-result selection policy (paper Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Try moves in priority order, keep the first that gains — "the first
    /// successful move is picked, and all other moves are not tried". The
    /// paper's chosen runtime/QoR tradeoff.
    Waterfall,
    /// Try every affordable move and keep the best gain.
    Parallel,
}

/// Options for the gradient engine.
#[derive(Debug, Clone)]
pub struct GradientOptions {
    /// Total move-cost budget (paper's best value: 100).
    pub budget: u32,
    /// Gradient window: the last `k` iterations (paper: 20).
    pub k: u32,
    /// Minimum gain gradient (fraction of network size gained over the
    /// last `k` iterations) for the budget to auto-extend (paper: 3%).
    pub min_gain_gradient: f64,
    /// Extra budget granted when the gradient stays above the threshold.
    pub budget_extension: u32,
    /// Move selection policy.
    pub selection: Selection,
}

impl Default for GradientOptions {
    fn default() -> Self {
        GradientOptions {
            budget: 100,
            k: 20,
            min_gain_gradient: 0.03,
            budget_extension: 50,
            selection: Selection::Waterfall,
        }
    }
}

/// Per-move success statistics recorded during optimization.
#[derive(Debug, Clone, Default)]
pub struct MoveRecord {
    /// Times the move was tried.
    pub tried: u64,
    /// Times it produced gain > 0.
    pub succeeded: u64,
    /// Total nodes gained.
    pub total_gain: u64,
    /// BDD node-limit bailouts incurred by the move's inner mspf/bdiff
    /// invocations (always 0 for algebraic moves).
    pub bailouts: u64,
}

/// Statistics of a gradient-engine run.
#[derive(Debug, Clone, Default)]
pub struct GradientStats {
    /// Iterations executed.
    pub iterations: u32,
    /// Budget actually spent.
    pub spent: u32,
    /// Budget extensions granted.
    pub extensions: u32,
    /// Per-move records, in `all_moves()` order.
    pub records: Vec<(Move, MoveRecord)>,
    /// Whether the run terminated early on a flat gradient.
    pub early_termination: bool,
}

#[cfg(test)]
pub(crate) fn gradient_optimize_impl(aig: &Aig, options: &GradientOptions) -> (Aig, GradientStats) {
    gradient_optimize_filtered(
        aig,
        options,
        &EngineCtx::new(&sbm_budget::Budget::unlimited()),
    )
}

/// Runs the gradient scheduler under the caller's `ctx`: its budget
/// bounds the run, and every move runs under it (see [`Move::apply`]).
pub(crate) fn gradient_optimize_filtered(
    aig: &Aig,
    options: &GradientOptions,
    ctx: &EngineCtx<'_>,
) -> (Aig, GradientStats) {
    let budget = ctx.budget();
    let mut current = aig.cleanup();
    let mut stats = GradientStats {
        records: all_moves()
            .into_iter()
            .map(|m| (m, MoveRecord::default()))
            .collect(),
        ..Default::default()
    };
    let mut cost_budget = options.budget;
    let mut spent = 0u32;
    let mut recent_gains: Vec<usize> = Vec::new();
    // The cost tier currently unlocked: cheap moves first (paper: "the
    // optimization engine starts by trying unit cost moves").
    let mut unlocked_cost = 1u32;
    while spent < cost_budget {
        // The wall-clock budget overrides the cost budget: a deadline or
        // cancellation ends the run with the best network found so far.
        if budget.check().is_err() {
            break;
        }
        stats.iterations += 1;
        let size_before = current.num_ands();
        if size_before == 0 {
            break;
        }
        // Order affordable moves by success score (desc), then cost (asc).
        let mut candidates: Vec<Move> = all_moves()
            .into_iter()
            .filter(|m| m.cost() <= unlocked_cost)
            .collect();
        let score = |m: &Move, records: &[(Move, MoveRecord)]| -> f64 {
            let Some((_, rec)) = records.iter().find(|(mm, _)| mm == m) else {
                unreachable!("stats tracks a record for every move");
            };
            if rec.tried == 0 {
                0.5 // unexplored moves get a neutral prior
            } else {
                rec.succeeded as f64 / rec.tried as f64
            }
        };
        candidates.sort_by(|a, b| {
            score(b, &stats.records)
                .total_cmp(&score(a, &stats.records))
                .then(a.cost().cmp(&b.cost()))
        });

        let mut best: Option<(Move, Aig, usize)> = None;
        for mv in candidates {
            if spent + mv.cost() > cost_budget {
                continue;
            }
            if budget.check().is_err() {
                break;
            }
            let EngineResult {
                aig: result,
                stats: move_stats,
            } = mv.apply(&current, ctx);
            spent += mv.cost();
            let gain = size_before.saturating_sub(result.num_ands());
            let Some((_, rec)) = stats.records.iter_mut().find(|(mm, _)| *mm == mv) else {
                unreachable!("stats tracks a record for every move");
            };
            rec.tried += 1;
            rec.bailouts += move_stats.bailouts as u64;
            if gain > 0 {
                rec.succeeded += 1;
                rec.total_gain += gain as u64;
            }
            let improves = best.as_ref().map_or(gain > 0, |&(_, _, g)| gain > g);
            if improves {
                best = Some((mv, result, gain));
                if options.selection == Selection::Waterfall {
                    break; // first successful move wins
                }
            }
            if spent >= cost_budget {
                break;
            }
        }

        let gain = match best {
            Some((_, result, gain)) => {
                current = result;
                gain
            }
            None => 0,
        };
        recent_gains.push(gain);
        if gain == 0 {
            // Local minimum for the unlocked tier: introduce higher-cost
            // moves, or stop if everything is unlocked and flat.
            let max_cost = all_moves().iter().map(|m| m.cost()).max().unwrap_or(1);
            if unlocked_cost < max_cost {
                unlocked_cost += 1;
                continue;
            }
        }
        // Gain gradient over the last k iterations.
        if recent_gains.len() >= options.k as usize {
            let window: usize = recent_gains.iter().rev().take(options.k as usize).sum();
            let gradient = window as f64 / current.num_ands().max(1) as f64;
            if window == 0 {
                stats.early_termination = true;
                break;
            }
            if gradient >= options.min_gain_gradient && spent >= cost_budget {
                cost_budget += options.budget_extension;
                stats.extensions += 1;
            }
        }
    }
    stats.spent = spent;
    (current.cleanup(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

    fn messy_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let d = aig.add_input();
        // Redundant, unbalanced, shareable logic.
        let t1 = aig.and(a, b);
        let t2 = aig.and(a, !b);
        let redundant = aig.or(t1, t2); // == a
        let chain1 = aig.and(redundant, c);
        let chain2 = aig.and(chain1, d);
        let dup1 = aig.and(a, c);
        let dup2 = aig.and(dup1, d); // == chain2
        let f = aig.or(chain2, dup2);
        aig.add_output(f);
        aig
    }

    #[test]
    fn optimizes_messy_network() {
        let aig = messy_aig();
        let (optimized, stats) = gradient_optimize_impl(&aig, &GradientOptions::default());
        assert!(
            optimized.num_ands() < aig.num_ands(),
            "{} -> {} ({stats:?})",
            aig.num_ands(),
            optimized.num_ands()
        );
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
        // The messy network reduces to a & c & d = 2 AND nodes.
        assert_eq!(optimized.num_ands(), 2);
    }

    #[test]
    fn gain_is_never_negative() {
        let aig = messy_aig();
        let (optimized, _) = gradient_optimize_impl(&aig, &GradientOptions::default());
        assert!(optimized.num_ands() <= aig.num_ands());
    }

    #[test]
    fn respects_budget() {
        let aig = messy_aig();
        let opts = GradientOptions {
            budget: 3,
            budget_extension: 0,
            ..Default::default()
        };
        let (_, stats) = gradient_optimize_impl(&aig, &opts);
        assert!(stats.spent <= 3);
    }

    #[test]
    fn parallel_selection_no_worse_than_waterfall() {
        let aig = messy_aig();
        let (wf, _) = gradient_optimize_impl(&aig, &GradientOptions::default());
        let (par, _) = gradient_optimize_impl(
            &aig,
            &GradientOptions {
                selection: Selection::Parallel,
                ..Default::default()
            },
        );
        assert!(par.num_ands() <= wf.num_ands());
    }

    #[test]
    fn early_termination_on_flat_gradient() {
        // An already-optimal network: the engine must terminate without
        // burning the whole budget on a flat gradient.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        let opts = GradientOptions {
            budget: 10_000,
            k: 5,
            ..Default::default()
        };
        let (optimized, stats) = gradient_optimize_impl(&aig, &opts);
        assert_eq!(optimized.num_ands(), 1);
        assert!(stats.spent < 10_000, "engine must not burn the budget");
    }
}

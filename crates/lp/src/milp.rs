//! Branch-and-bound MILP solver built on the LP relaxation.
//!
//! Mirrors the Gurobi features the TE-CCL paper relies on:
//!
//! * a **time limit** (the paper stops Gurobi after 2 hours and keeps the
//!   incumbent),
//! * a **relative-gap early stop** (the paper's "early stop at 30%" variant
//!   used for ALLGATHER),
//! * deterministic behaviour (best-bound node selection with stable
//!   tie-breaking, most-fractional branching with lowest-index ties),
//! * a rounding heuristic at every branching node that quickly produces
//!   incumbents for the highly structured 0/1 flow models TE-CCL generates,
//! * **warm-started node re-solves**: presolve and the standard form are
//!   built *once* at the root; every child node re-solves with only a bound
//!   override list and its parent's optimal basis, so the simplex repairs a
//!   single bound violation instead of re-running phase 1 from the
//!   all-artificial basis (see [`crate::simplex::solve_standard_form_budgeted`]),
//! * **per-node presolve**: before each node's LP re-solve, a lightweight
//!   bound-propagation pass (row-activity implied bounds, integer rounding,
//!   and light probing on binary variables) tightens the node's override
//!   list — or proves the node infeasible without any LP work. The root
//!   presolve is layout-preserving, so the propagated bounds feed straight
//!   into the dual simplex's bound-override path with the shared basis.
//!
//! None of these can be switched off: [`MilpConfig`] says only how long to
//! search and how close to optimal to get.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::basis::SimplexBasis;
use crate::error::LpError;
use crate::model::{infeasible_solution, Model, Sense};
use crate::presolve::{MilpLayout, NodePresolver};
use crate::simplex;
use crate::solution::{Solution, SolveStats, SolveStatus};
use crate::standard::StandardForm;
use crate::INT_TOL;
use teccl_util::SolveBudget;

/// Configuration for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct MilpConfig {
    /// Wall-clock limit, checked between nodes once the root node is done;
    /// the best incumbent found so far is returned when it expires (status
    /// [`SolveStatus::Feasible`]). A zero limit solves the root node only:
    /// the answer is `Optimal` when the root's incumbent is within
    /// `rel_gap` of the root bound.
    pub time_limit: Option<Duration>,
    /// Stop as soon as the relative gap between the incumbent and the best
    /// bound drops below this value (`0.0` = prove optimality, `0.3` = the
    /// paper's 30% early stop).
    pub rel_gap: f64,
}

impl Default for MilpConfig {
    fn default() -> Self {
        Self {
            time_limit: None,
            rel_gap: 1e-6,
        }
    }
}

impl MilpConfig {
    /// Configuration matching the paper's "early stop" mode (30% gap).
    pub fn early_stop(gap: f64) -> Self {
        Self {
            rel_gap: gap,
            ..Default::default()
        }
    }

    /// Configuration with a wall-clock time limit.
    pub fn with_time_limit(limit: Duration) -> Self {
        Self {
            time_limit: Some(limit),
            ..Default::default()
        }
    }
}

/// Branch-and-bound nodes explored before the search gives up and returns
/// its incumbent (or [`SolveStatus::LimitReached`] without one).
const NODE_LIMIT: usize = 200_000;

/// A branch-and-bound node: the bound overrides accumulated along the path
/// from the root (in *reduced-model column* space), the parent's relaxation
/// objective (for best-bound selection and pruning), and the parent's optimal
/// basis for warm starting.
#[derive(Debug, Clone)]
struct Node {
    overrides: Vec<(usize, f64, f64)>,
    parent_bound: f64,
    id: usize,
    warm: Option<Arc<SimplexBasis>>,
}

/// Heap ordering wrapper: best bound first (max for maximization problems —
/// the objective is normalized so larger is always better inside the solver).
struct HeapNode {
    score: f64,
    node: Node,
}

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.node.id == other.node.id
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Higher score first; ties broken by lower id (older node) for
        // determinism.
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.id.cmp(&self.node.id))
    }
}

/// Branch and bound over a [`MilpLayout`] built from `model` or from a model
/// of the same shape (same variables and constraint terms; bounds, costs and
/// right-hand sides may differ), reached through [`Model::solve_over`].
///
/// `root_warm` warm-starts the **root** relaxation from a basis carried over
/// from a previous solve of an identically-shaped model (the A* cross-round
/// case). The returned [`Solution::basis`] is the root relaxation's final
/// basis (in the presolved standard-form space), ready to be carried into
/// the next round; a stale or mismatched basis silently falls back to a cold
/// root. `budget` is checked once per simplex pivot and once per node: on
/// exhaustion the best incumbent found so far is returned with
/// [`SolveStats::budget_stop`] set; with no incumbent the solve fails with
/// [`LpError::Budget`].
pub(crate) fn branch_and_bound(
    layout: &MilpLayout,
    model: &Model,
    config: &MilpConfig,
    root_warm: Option<&SimplexBasis>,
    budget: Option<&SolveBudget>,
) -> Result<Solution, LpError> {
    let start = Instant::now();
    let maximize = model.sense == Sense::Maximize;
    // `better(a, b)` returns true if objective a is strictly better than b.
    let better = |a: f64, b: f64| if maximize { a > b + 1e-9 } else { a < b - 1e-9 };

    // Presolve ONCE; the whole tree shares the presolved standard form
    // and only varies bounds. The presolve is layout-preserving
    // (fixings are `lb == ub` pins, freed rows get relaxed slacks), so
    // the column space is identical to the raw model's — any basis from
    // any node, round, or differently-presolved sibling solve stays
    // valid. Bound tightenings from branching only shrink domains, so
    // the root reductions hold at every node.
    let (sf, post) = layout.presolve(model, budget)?;
    let Some(sf) = sf else {
        let mut sol = post.recover(infeasible_solution(model.num_vars()), model);
        sol.stats.solve_time = start.elapsed();
        return Ok(sol);
    };
    let num_red_vars = model.num_vars();
    // Per-node presolve shares the layout's rows for the whole tree. Most
    // trees end at their root, so it is built by the first node below it.
    let mut node_presolver: Option<NodePresolver> = None;
    // Original-model integer variables and their reduced columns.
    let int_vars: Vec<usize> = model
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.integer)
        .map(|(i, _)| i)
        .collect();

    let mut stats = SolveStats {
        presolved_vars: post.original_vars - post.cols_fixed,
        presolved_cons: post.original_cons - post.rows_freed,
        cols_fixed: post.cols_fixed,
        rows_freed: post.rows_freed,
        ..Default::default()
    };

    // Root relaxation (dual re-optimized from the carried basis, when one
    // is provided and still fits the standard form's shape). A budget
    // stop here without a primal-feasible point propagates as an error —
    // there is nothing to degrade to yet.
    let root_red =
        simplex::solve_standard_form_budgeted(&sf, num_red_vars, &[], root_warm, budget)?;
    stats.absorb(&root_red.stats);
    // A budget-stopped root is a feasible point, not a dual bound; the
    // final gap/bound report must not treat its objective as proved.
    let root_budget_stopped = stats.budget_stop.is_some();
    // The root basis is what the next same-shaped solve warm-starts from.
    let carried_basis = root_red.basis.clone();
    let root = post.recover(root_red, model);
    match root.status {
        SolveStatus::Infeasible | SolveStatus::Unbounded => {
            let mut sol = root;
            sol.values = vec![0.0; model.num_vars()];
            sol.objective = f64::NAN;
            sol.duals = Vec::new();
            sol.basis = None;
            stats.solve_time = start.elapsed();
            sol.stats = stats;
            return Ok(sol);
        }
        _ => {}
    }

    let mut incumbent: Option<Solution> = None;
    let mut best_bound = root.objective;

    let mut heap = BinaryHeap::new();
    let mut next_id = 0usize;
    let score = |obj: f64| if maximize { obj } else { -obj };
    let root_basis = root.basis.clone().map(Arc::new);
    heap.push(HeapNode {
        score: score(root.objective),
        node: Node {
            overrides: Vec::new(),
            parent_bound: root.objective,
            id: next_id,
            warm: root_basis,
        },
    });
    next_id += 1;

    let mut hit_limit = false;
    // The root relaxation is already solved; hand it to the first pop.
    let mut root_relax = Some(root);

    while let Some(HeapNode { mut node, .. }) = heap.pop() {
        // Global bound = best over the open nodes and the node being
        // processed (the heap is ordered by bound).
        best_bound = node.parent_bound;
        if let Some(inc) = &incumbent {
            if gap(best_bound, inc.objective) <= config.rel_gap {
                // Good enough: the paper's early-stop behaviour.
                break;
            }
            if !better(node.parent_bound, inc.objective) {
                continue; // prune by bound
            }
        }
        if stats.nodes_explored >= NODE_LIMIT {
            hit_limit = true;
            break;
        }
        // The time limit and the cooperative budget are checked between
        // nodes (the budget also inside each node's pivots: it catches a
        // cancel while the tree is hot but the LPs are cheap). Both are
        // skipped while the already-solved root relaxation is pending: its
        // node costs no LP, and a budget-stopped root still carries a
        // feasible point the harvest below must get to see.
        if root_relax.is_none() {
            if config
                .time_limit
                .is_some_and(|limit| start.elapsed() > limit)
            {
                hit_limit = true;
                break;
            }
            if let Some(b) = budget {
                if let Some(cause) = b.exceeded() {
                    stats.budget_stop = stats.budget_stop.or(Some(cause));
                    hit_limit = true;
                    break;
                }
            }
        }
        stats.nodes_explored += 1;

        // Solve this node's relaxation: shared standard form + this
        // node's bound overrides, warm-started from the parent's basis.
        let relax = match root_relax.take() {
            Some(r) => r,
            None => {
                // Per-node presolve: propagate the branching bounds
                // through the rows (plus light probing) before paying for
                // the LP. The tightenings land in the override list the
                // dual simplex consumes; a propagation-proven infeasible
                // node is pruned with no LP work at all.
                let node_presolver = node_presolver
                    .get_or_insert_with(|| NodePresolver::new(layout, model, &sf, &post));
                match node_presolver.tighten(&mut node.overrides) {
                    None => continue, // infeasible by propagation
                    Some(t) => stats.node_tightenings += t,
                }
                let red_sol = match simplex::solve_standard_form_budgeted(
                    &sf,
                    num_red_vars,
                    &node.overrides,
                    node.warm.as_deref(),
                    budget,
                ) {
                    Ok(s) => s,
                    // Budget exhausted with no feasible point at this
                    // node: keep whatever incumbent the tree already
                    // produced; fail only if there is none.
                    Err(LpError::Budget(cause)) => {
                        if incumbent.is_some() {
                            stats.budget_stop = stats.budget_stop.or(Some(cause));
                            hit_limit = true;
                            break;
                        }
                        return Err(LpError::Budget(cause));
                    }
                    Err(e) => return Err(e),
                };
                stats.absorb(&red_sol.stats);
                post.recover(red_sol, model)
            }
        };
        if !relax.status.has_solution() {
            continue; // infeasible branch
        }
        // A budget stop *inside* this node's LP left a feasible point
        // that is not a valid bound: harvest it as an incumbent when it
        // is integral (the common pure-LP case), then stop the search.
        if stats.budget_stop.is_some() {
            hit_limit = true;
            let integral = int_vars
                .iter()
                .all(|&j| (relax.values[j] - relax.values[j].round()).abs() <= INT_TOL);
            if integral {
                let mut cand = relax.clone();
                round_integrals(&mut cand, &int_vars);
                cand.objective = model.eval_objective(&cand.values);
                cand.basis = None;
                if incumbent
                    .as_ref()
                    .is_none_or(|inc| better(cand.objective, inc.objective))
                {
                    incumbent = Some(cand);
                }
            }
            break;
        }
        if let Some(inc) = &incumbent {
            if !better(relax.objective, inc.objective) {
                continue; // prune by bound
            }
        }

        // Find the most fractional integer variable (original space; a
        // presolve-fixed integer variable is never fractional).
        let mut branch_var: Option<(usize, f64)> = None;
        for &j in &int_vars {
            let v = relax.values[j];
            let frac = (v - v.round()).abs();
            if frac > INT_TOL {
                let distance_to_half = (frac - 0.5).abs();
                match branch_var {
                    Some((_, best)) if distance_to_half >= best => {}
                    _ => branch_var = Some((j, distance_to_half)),
                }
            }
        }

        match branch_var {
            None => {
                // Integral relaxation → candidate incumbent.
                let mut cand = relax.clone();
                round_integrals(&mut cand, &int_vars);
                cand.objective = model.eval_objective(&cand.values);
                cand.basis = None;
                if incumbent
                    .as_ref()
                    .is_none_or(|inc| better(cand.objective, inc.objective))
                {
                    incumbent = Some(cand);
                }
            }
            Some((j, _)) => {
                // Rounding heuristic: try snapping every integer variable.
                if let Some(h) = rounding_heuristic(model, &relax, &int_vars) {
                    if incumbent
                        .as_ref()
                        .is_none_or(|inc| better(h.objective, inc.objective))
                    {
                        incumbent = Some(h);
                    }
                }
                // Branch on variable j. Presolve preserves the column
                // layout, so the model index IS the standard-form column.
                let red_j = j;
                let v = relax.values[j];
                let floor = v.floor();
                let ceil = v.ceil();
                let (cur_lb, cur_ub) = current_bounds(&sf, &node.overrides, red_j);
                let warm = relax.basis.map(Arc::new);

                let mut down = node.overrides.clone();
                down.push((red_j, cur_lb, floor.min(cur_ub)));
                let mut up = node.overrides.clone();
                up.push((red_j, ceil.max(cur_lb), cur_ub));

                for overrides in [down, up] {
                    let (_, lo, hi) = overrides.last().copied().unwrap();
                    if lo > hi + 1e-9 {
                        continue; // empty branch
                    }
                    heap.push(HeapNode {
                        score: score(relax.objective),
                        node: Node {
                            overrides,
                            parent_bound: relax.objective,
                            id: next_id,
                            warm: warm.clone(),
                        },
                    });
                    next_id += 1;
                }
            }
        }
    }

    // If the heap drained, the bound collapses to the incumbent.
    if heap.is_empty() && !hit_limit {
        if let Some(inc) = &incumbent {
            best_bound = inc.objective;
        }
    } else if let Some(top) = heap.peek() {
        best_bound = top.node.parent_bound;
    }

    stats.solve_time = start.elapsed();
    stats.best_bound = if root_budget_stopped {
        f64::NAN
    } else {
        best_bound
    };

    match incumbent {
        Some(mut inc) => {
            let g = if root_budget_stopped {
                f64::INFINITY
            } else {
                gap(best_bound, inc.objective)
            };
            stats.mip_gap = g;
            inc.status = if g <= config.rel_gap.max(1e-6) && !hit_limit {
                SolveStatus::Optimal
            } else if hit_limit || g > config.rel_gap.max(1e-6) {
                SolveStatus::Feasible
            } else {
                SolveStatus::Optimal
            };
            inc.duals = Vec::new();
            inc.stats = stats;
            inc.basis = carried_basis;
            Ok(inc)
        }
        None => {
            // Budget exhausted with nothing to show: a typed error, so
            // callers can tell "ran out of time" from "proved
            // infeasible" and degrade accordingly.
            if let Some(cause) = stats.budget_stop {
                return Err(LpError::Budget(cause));
            }
            stats.mip_gap = f64::INFINITY;
            Ok(Solution {
                status: if hit_limit {
                    SolveStatus::LimitReached
                } else {
                    SolveStatus::Infeasible
                },
                objective: f64::NAN,
                values: vec![0.0; model.num_vars()],
                duals: Vec::new(),
                stats,
                basis: carried_basis,
            })
        }
    }
}

/// Relative MIP gap.
fn gap(bound: f64, incumbent: f64) -> f64 {
    (bound - incumbent).abs() / incumbent.abs().max(1.0)
}

/// Snaps near-integral values exactly onto integers.
fn round_integrals(sol: &mut Solution, int_vars: &[usize]) {
    for &j in int_vars {
        sol.values[j] = sol.values[j].round();
    }
}

/// Rounds every integer variable of the relaxation to the nearest integer and
/// keeps the result if it is feasible for the full model.
fn rounding_heuristic(model: &Model, relax: &Solution, int_vars: &[usize]) -> Option<Solution> {
    let mut values = relax.values.clone();
    for &j in int_vars {
        let v = values[j].round();
        values[j] = v.clamp(model.vars[j].lb, model.vars[j].ub);
    }
    if model.is_feasible(&values, 1e-6) {
        let objective = model.eval_objective(&values);
        Some(Solution {
            status: SolveStatus::Feasible,
            objective,
            values,
            duals: Vec::new(),
            stats: Default::default(),
            basis: None,
        })
    } else {
        None
    }
}

/// Effective bounds of column `j` at a node (presolved bounds plus
/// overrides).
fn current_bounds(sf: &StandardForm, overrides: &[(usize, f64, f64)], j: usize) -> (f64, f64) {
    let mut lb = sf.lb[j];
    let mut ub = sf.ub[j];
    for (k, lo, hi) in overrides {
        if *k == j {
            lb = *lo;
            ub = *hi;
        }
    }
    (lb, ub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    /// `m` solved cold, unbudgeted, over its own layout.
    fn solve(m: &Model, config: &MilpConfig) -> Result<Solution, LpError> {
        m.solve_over(&MilpLayout::new(m), config, None, None)
    }

    #[test]
    fn knapsack_small() {
        // Classic 0/1 knapsack: values [60, 100, 120], weights [10, 20, 30], cap 50.
        // Optimal: items 2 and 3 → 220.
        let mut m = Model::new(Sense::Maximize);
        let x: Vec<_> = [60.0, 100.0, 120.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| m.add_binary_var(format!("x{i}"), v))
            .collect();
        m.add_cons(
            "cap",
            &[(x[0], 10.0), (x[1], 20.0), (x[2], 30.0)],
            ConstraintOp::Le,
            50.0,
        );
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 220.0, 1e-6);
        assert_eq!(sol.int_value(x[0]), 0);
        assert_eq!(sol.int_value(x[1]), 1);
        assert_eq!(sol.int_value(x[2]), 1);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x <= 5, x integer → x = 2 (LP relaxation 2.5).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_cons("c", &[(x, 2.0)], ConstraintOp::Le, 5.0);
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_close(sol.objective, 2.0, 1e-9);
    }

    #[test]
    fn infeasible_mip() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary_var("x", 1.0);
        let y = m.add_binary_var("y", 1.0);
        m.add_cons("c1", &[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y, x integer <= 2.5 constraint-wise, y continuous <= 1.3.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 2.0, true);
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        m.add_cons("cx", &[(x, 1.0)], ConstraintOp::Le, 2.5);
        m.add_cons("cy", &[(y, 1.0)], ConstraintOp::Le, 1.3);
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_close(sol.objective, 2.0 * 2.0 + 1.3, 1e-6);
        assert_close(sol.value(x), 2.0, 1e-9);
        assert_close(sol.value(y), 1.3, 1e-6);
    }

    #[test]
    fn early_stop_returns_feasible_status_or_optimal() {
        // With a huge allowed gap the solver may stop at the first incumbent.
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..8)
            .map(|i| m.add_binary_var(format!("x{i}"), (i + 1) as f64))
            .collect();
        let terms: Vec<_> = xs.iter().map(|&x| (x, 1.0)).collect();
        m.add_cons("cap", &terms, ConstraintOp::Le, 4.0);
        let sol = solve(&m, &MilpConfig::early_stop(0.5)).unwrap();
        assert!(sol.has_solution());
        // Any solution must respect the cardinality constraint.
        let count: f64 = xs.iter().map(|&x| sol.value(x)).sum();
        assert!(count <= 4.0 + 1e-6);
    }

    #[test]
    fn equality_constrained_mip() {
        // x + y == 3, x,y binary-ish integers in [0, 2]; max x → x=2, y=1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 2.0, 1.0, true);
        let y = m.add_var("y", 0.0, 2.0, 0.0, true);
        m.add_cons("e", &[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 3.0);
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.value(x), 2.0, 1e-9);
        assert_close(sol.value(y), 1.0, 1e-9);
    }

    #[test]
    fn minimization_mip() {
        // Set covering: choose min number of sets covering {a, b, c}.
        // Sets: {a,b}, {b,c}, {a,c}, {a,b,c}. Optimal = 1 (last set).
        let mut m = Model::new(Sense::Minimize);
        let s: Vec<_> = (0..4)
            .map(|i| m.add_binary_var(format!("s{i}"), 1.0))
            .collect();
        m.add_cons(
            "a",
            &[(s[0], 1.0), (s[2], 1.0), (s[3], 1.0)],
            ConstraintOp::Ge,
            1.0,
        );
        m.add_cons(
            "b",
            &[(s[0], 1.0), (s[1], 1.0), (s[3], 1.0)],
            ConstraintOp::Ge,
            1.0,
        );
        m.add_cons(
            "c",
            &[(s[1], 1.0), (s[2], 1.0), (s[3], 1.0)],
            ConstraintOp::Ge,
            1.0,
        );
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_close(sol.objective, 1.0, 1e-6);
    }

    #[test]
    fn node_limit_yields_feasible_or_limit() {
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..10)
            .map(|i| m.add_binary_var(format!("x{i}"), ((i * 7) % 5 + 1) as f64))
            .collect();
        let terms: Vec<_> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, ((i * 3) % 4 + 1) as f64))
            .collect();
        m.add_cons("cap", &terms, ConstraintOp::Le, 7.0);
        // A zero time limit trips at the first node check after the root,
        // the same exit the private node limit takes.
        let sol = solve(&m, &MilpConfig::with_time_limit(Duration::ZERO)).unwrap();
        assert_eq!(sol.stats.nodes_explored, 1);
        assert!(matches!(
            sol.status,
            SolveStatus::Feasible | SolveStatus::LimitReached | SolveStatus::Optimal
        ));
    }

    #[test]
    fn a_zero_time_limit_solves_the_root_node() {
        // max x + y s.t. x + y <= 1.4: the root relaxation is fractional and
        // the rounded incumbent 1 is 29 % below its bound 1.4, so the tree
        // stops `Feasible` after the root.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary_var("x", 1.0);
        let y = m.add_binary_var("y", 1.0);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.4);
        let root_only = MilpConfig::with_time_limit(Duration::ZERO);
        let sol = solve(&m, &root_only).unwrap();
        assert_eq!(sol.stats.nodes_explored, 1);
        assert_eq!(sol.status, SolveStatus::Feasible);
        // Within a 50 % gap of the root bound, the same root is `Optimal`.
        let sol = solve(
            &m,
            &MilpConfig {
                rel_gap: 0.5,
                ..root_only.clone()
            },
        )
        .unwrap();
        assert_eq!(sol.stats.nodes_explored, 1);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 1.0, 1e-9);
        // An integral root is `Optimal` at any gap.
        m.cons[0].rhs = 1.0;
        let sol = solve(&m, &root_only).unwrap();
        assert_eq!(sol.stats.nodes_explored, 1);
        assert_eq!(sol.status, SolveStatus::Optimal);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut m = Model::new(Sense::Maximize);
            let xs: Vec<_> = (0..6)
                .map(|i| m.add_binary_var(format!("x{i}"), (i % 3 + 1) as f64))
                .collect();
            let terms: Vec<_> = xs.iter().map(|&x| (x, 1.0)).collect();
            m.add_cons("cap", &terms, ConstraintOp::Le, 3.0);
            m
        };
        let s1 = solve(&build(), &MilpConfig::default()).unwrap();
        let s2 = solve(&build(), &MilpConfig::default()).unwrap();
        assert_eq!(s1.values, s2.values);
        assert_eq!(s1.objective, s2.objective);
    }

    #[test]
    fn pure_lp_dispatch_through_solve() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 3.0, 1.0, false);
        let _ = x;
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 3.0, 1e-9);
    }

    #[test]
    fn mip_gap_reported_zero_at_optimality() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary_var("x", 5.0);
        let y = m.add_binary_var("y", 4.0);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.0);
        let sol = solve(&m, &MilpConfig::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(sol.stats.mip_gap <= 1e-6);
        assert_close(sol.objective, 5.0, 1e-9);
    }

    /// A knapsack MILP whose LP relaxation is fractional at the root and in
    /// several children, forcing real branching.
    fn branching_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let w: Vec<f64> = (0..10).map(|i| (5 + i) as f64).collect();
        let xs: Vec<_> = w
            .iter()
            .enumerate()
            .map(|(i, &wi)| m.add_binary_var(format!("x{i}"), wi + 1.0))
            .collect();
        let terms: Vec<_> = xs.iter().zip(w.iter()).map(|(&x, &wi)| (x, wi)).collect();
        m.add_cons("cap", &terms, ConstraintOp::Le, 23.0);
        m
    }

    #[test]
    fn branching_model_is_solved_with_warm_node_resolves() {
        let sol = solve(&branching_model(), &MilpConfig::default()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        // By hand: no four weights fit under 23 (5+6+7+8 = 26), three fit at
        // most 23 (e.g. 5+6+12) for 23 + 3 = 26, two reach 23 + 2.
        assert_close(sol.objective, 26.0, 1e-6);
        assert!(sol.stats.nodes_explored > 1, "model must branch");
        // Children re-solve from their parent's basis: only the root may
        // start cold.
        assert!(
            sol.stats.warm_starts > 0 && sol.stats.cold_starts <= 1,
            "warm {} cold {}",
            sol.stats.warm_starts,
            sol.stats.cold_starts
        );
    }
}

//! Solution and statistics types returned by the LP / MILP solver.

use std::time::Duration;

use teccl_util::budget::BudgetExceeded;

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal solution was found (within tolerances).
    Optimal,
    /// A feasible solution was found but optimality was not proven (early stop
    /// on gap, time limit, or node limit). Mirrors Gurobi's behaviour under the
    /// paper's 2-hour timeout / 30% gap early-stop configuration.
    Feasible,
    /// The problem was proven infeasible.
    Infeasible,
    /// The objective is unbounded.
    Unbounded,
    /// The solver hit a limit without finding any feasible solution.
    LimitReached,
}

impl SolveStatus {
    /// Whether a usable (feasible) assignment is available.
    pub fn has_solution(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

/// Statistics about a solve, loosely mirroring what the paper reports from
/// Gurobi (solver time, primal-dual / MIP gap).
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Wall-clock time spent in the solver (including model reductions).
    pub solve_time: Duration,
    /// Total simplex iterations across all LP solves (primal + dual).
    pub simplex_iterations: usize,
    /// Dual-simplex iterations (a subset of `simplex_iterations`): pivots
    /// performed by the bound-tightening re-solve path.
    pub dual_iterations: usize,
    /// Simplex iterations of the auxiliary LPs a solve runs before its
    /// formulation — the horizon-bound LPs — kept apart from
    /// `simplex_iterations`, which counts the formulation's walk alone.
    pub bound_iterations: usize,
    /// Number of branch-and-bound nodes explored (0 for pure LPs).
    pub nodes_explored: usize,
    /// Relative MIP gap at termination: `|bound - incumbent| / max(1, |incumbent|)`.
    /// `0.0` when optimality was proven, `f64::INFINITY` when no incumbent exists.
    pub mip_gap: f64,
    /// Best dual bound proved (MILP) or the LP optimum (LP).
    pub best_bound: f64,
    /// Variables left *free* (not fixed) by the layout-preserving presolve.
    pub presolved_vars: usize,
    /// Constraints left *active* (not freed) by the layout-preserving
    /// presolve.
    pub presolved_cons: usize,
    /// Variables presolve fixed by pinning `lb == ub` in the original column
    /// space (the column itself stays in the model).
    pub cols_fixed: usize,
    /// Rows presolve proved redundant and freed (their standard-form slack is
    /// relaxed to `(-inf, +inf)`; the row itself stays in the model).
    pub rows_freed: usize,
    /// Bound tightenings derived by the per-node presolve inside the
    /// branch-and-bound tree (propagation + probing), summed over all nodes.
    pub node_tightenings: usize,
    /// Number of LU basis (re)factorizations performed.
    pub factorizations: usize,
    /// Warm starts that adopted the factors their basis carried
    /// ([`crate::SimplexBasis::factors`]) instead of factorizing: each is one
    /// factorization a solve without them performs.
    pub factors_adopted: usize,
    /// LP solves started from a warm basis (branch-and-bound children, A*
    /// re-solves).
    pub warm_starts: usize,
    /// LP solves started cold from the all-artificial phase-1 basis.
    pub cold_starts: usize,
    /// Primal simplex passes whose step was below `1e-9`: the degenerate
    /// part of the walk. Not written to replies or cache entries.
    pub degenerate_pivots: usize,
    /// Primal simplex passes in which the entering column crossed its whole
    /// range and flipped bounds instead of entering the basis. Not written
    /// to replies or cache entries.
    pub bound_flips: usize,
    /// Whether any simplex pass hit its iteration limit without certifying
    /// optimality (the result then rests on an uncertified incumbent and must
    /// be reported as such, not as converged).
    pub iteration_limit_hit: bool,
    /// Set when a cooperative [`teccl_util::SolveBudget`] stopped the solve
    /// early (cancel / deadline / iteration cap). The solution then carries
    /// the best incumbent found before the stop, with `status::Feasible` at
    /// best — never `Optimal`.
    pub budget_stop: Option<BudgetExceeded>,
}

impl SolveStats {
    /// Adds the counters of another solve into this one (used to aggregate
    /// across branch-and-bound nodes and A* rounds).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.simplex_iterations += other.simplex_iterations;
        self.dual_iterations += other.dual_iterations;
        self.bound_iterations += other.bound_iterations;
        self.nodes_explored += other.nodes_explored;
        self.factorizations += other.factorizations;
        self.factors_adopted += other.factors_adopted;
        self.warm_starts += other.warm_starts;
        self.cold_starts += other.cold_starts;
        self.degenerate_pivots += other.degenerate_pivots;
        self.bound_flips += other.bound_flips;
        self.cols_fixed += other.cols_fixed;
        self.rows_freed += other.rows_freed;
        self.node_tightenings += other.node_tightenings;
        self.iteration_limit_hit |= other.iteration_limit_hit;
        self.budget_stop = self.budget_stop.or(other.budget_stop);
    }
}

/// A solution to an optimization model.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status.
    pub status: SolveStatus,
    /// Objective value in the *original* model's sense (NaN if no solution).
    pub objective: f64,
    /// Value of each variable, indexed by `VarId::index()`.
    pub values: Vec<f64>,
    /// Dual values (one per constraint) when available from a pure LP solve;
    /// empty for MILPs and presolve-trivial problems.
    pub duals: Vec<f64>,
    /// Solve statistics.
    pub stats: SolveStats,
    /// A simplex basis usable to warm-start a re-solve of the same (or an
    /// identically-shaped) standard form: the final basis for pure LP solves,
    /// the **root relaxation's** final basis for branch-and-bound solves (the
    /// cross-round A* carry). Presolve preserves the column layout, so the
    /// basis stays meaningful across differently-presolved solves.
    pub basis: Option<crate::basis::SimplexBasis>,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, var: crate::model::VarId) -> f64 {
        self.values[var.index()]
    }

    /// Value of a variable rounded to the nearest integer (useful for reading
    /// binary/integer variables out of a MILP solution without `1e-9` noise).
    pub fn int_value(&self, var: crate::model::VarId) -> i64 {
        self.values[var.index()].round() as i64
    }

    /// Returns `true` if the solver produced a usable assignment.
    pub fn has_solution(&self) -> bool {
        self.status.has_solution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VarId;

    #[test]
    fn status_has_solution() {
        assert!(SolveStatus::Optimal.has_solution());
        assert!(SolveStatus::Feasible.has_solution());
        assert!(!SolveStatus::Infeasible.has_solution());
        assert!(!SolveStatus::Unbounded.has_solution());
        assert!(!SolveStatus::LimitReached.has_solution());
    }

    #[test]
    fn value_accessors() {
        let sol = Solution {
            status: SolveStatus::Optimal,
            objective: 1.0,
            values: vec![0.4, 0.9999999],
            duals: vec![],
            stats: Default::default(),
            basis: None,
        };
        assert_eq!(sol.value(VarId(0)), 0.4);
        assert_eq!(sol.int_value(VarId(1)), 1);
        assert!(sol.has_solution());
    }
}

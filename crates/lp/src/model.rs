//! The user-facing optimization model builder.
//!
//! A [`Model`] collects variables (continuous or integer, with bounds and an
//! objective coefficient), linear constraints and an optimization sense, and
//! dispatches to the LP or MILP solver depending on whether any integer
//! variables are present.

use crate::error::LpError;
use crate::milp::{self, MilpConfig};
use crate::presolve::MilpLayout;
use crate::simplex;
use crate::solution::{Solution, SolveStatus};

/// Identifier of a variable inside a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

impl VarId {
    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Optimization sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// Definition of a single decision variable.
#[derive(Debug, Clone)]
pub struct VarDef {
    /// Human-readable name (used in error messages and debugging dumps).
    pub name: String,
    /// Lower bound (may be `-inf`).
    pub lb: f64,
    /// Upper bound (may be `+inf`).
    pub ub: f64,
    /// Objective coefficient.
    pub obj: f64,
    /// Whether the variable is restricted to integer values in a MILP solve.
    pub integer: bool,
}

/// Definition of a single linear constraint.
#[derive(Debug, Clone)]
pub struct ConsDef {
    /// Human-readable name.
    pub name: String,
    /// `(variable, coefficient)` terms. Duplicate variables are summed when
    /// the model is converted to standard form.
    pub terms: Vec<(VarId, f64)>,
    /// Comparison operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear optimization model (LP or MILP).
#[derive(Debug, Clone)]
pub struct Model {
    /// Optimization sense.
    pub sense: Sense,
    /// Variables, indexed by [`VarId`].
    pub vars: Vec<VarDef>,
    /// Constraints.
    pub cons: Vec<ConsDef>,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            vars: Vec::new(),
            cons: Vec::new(),
        }
    }

    /// Adds a variable and returns its id.
    ///
    /// * `lb`/`ub` — bounds (use `f64::NEG_INFINITY` / `f64::INFINITY` for
    ///   free directions),
    /// * `obj` — objective coefficient,
    /// * `integer` — whether the variable must take an integer value.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        lb: f64,
        ub: f64,
        obj: f64,
        integer: bool,
    ) -> VarId {
        self.vars.push(VarDef {
            name: name.into(),
            lb,
            ub,
            obj,
            integer,
        });
        VarId(self.vars.len() - 1)
    }

    /// Convenience: adds a continuous variable with bounds `[0, +inf)`.
    pub fn add_nonneg_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_var(name, 0.0, f64::INFINITY, obj, false)
    }

    /// Convenience: adds a binary (0/1 integer) variable.
    pub fn add_binary_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_var(name, 0.0, 1.0, obj, true)
    }

    /// Adds a linear constraint `sum(coeff * var) op rhs` and returns its index.
    pub fn add_cons(
        &mut self,
        name: impl Into<String>,
        terms: &[(VarId, f64)],
        op: ConstraintOp,
        rhs: f64,
    ) -> usize {
        self.cons.push(ConsDef {
            name: name.into(),
            terms: terms.to_vec(),
            op,
            rhs,
        });
        self.cons.len() - 1
    }

    /// Updates the objective coefficient of an existing variable.
    pub fn set_obj(&mut self, var: VarId, obj: f64) {
        self.vars[var.0].obj = obj;
    }

    /// Tightens (replaces) the bounds of an existing variable.
    pub fn set_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        self.vars[var.0].lb = lb;
        self.vars[var.0].ub = ub;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// Number of integer variables.
    pub fn num_integer_vars(&self) -> usize {
        self.vars.iter().filter(|v| v.integer).count()
    }

    /// Returns `true` if the model has at least one integer variable.
    pub fn is_mip(&self) -> bool {
        self.vars.iter().any(|v| v.integer)
    }

    /// Validates that the model is well formed (finite coefficients, consistent
    /// bounds, known variable ids). Errors name a variable or a row by its
    /// name, or by its index (`#j`, `row #i`) when the name is empty, as it
    /// is in the formulations' models.
    pub fn validate(&self) -> Result<(), LpError> {
        for (j, v) in self.vars.iter().enumerate() {
            if v.lb > v.ub {
                return Err(LpError::InconsistentBounds {
                    var: self.var_label(j),
                    lb: v.lb,
                    ub: v.ub,
                });
            }
            if v.obj.is_nan() || v.lb.is_nan() || v.ub.is_nan() {
                return Err(LpError::NonFiniteCoefficient(format!(
                    "variable `{}`",
                    self.var_label(j)
                )));
            }
        }
        for (i, c) in self.cons.iter().enumerate() {
            if !c.rhs.is_finite() {
                return Err(LpError::NonFiniteCoefficient(format!(
                    "rhs of `{}`",
                    self.row_label(i)
                )));
            }
            for (vid, coef) in &c.terms {
                if vid.0 >= self.vars.len() {
                    return Err(LpError::UnknownVariable(vid.0));
                }
                if !coef.is_finite() {
                    return Err(LpError::NonFiniteCoefficient(format!(
                        "coefficient of `{}` in `{}`",
                        self.var_label(vid.0),
                        self.row_label(i)
                    )));
                }
            }
        }
        Ok(())
    }

    /// Variable `j`'s name, or `#j` when it has none.
    fn var_label(&self, j: usize) -> String {
        match self.vars[j].name.as_str() {
            "" => format!("#{j}"),
            name => name.to_string(),
        }
    }

    /// Row `i`'s name, or `row #i` when it has none.
    fn row_label(&self, i: usize) -> String {
        match self.cons[i].name.as_str() {
            "" => format!("row #{i}"),
            name => name.to_string(),
        }
    }

    /// Solves the model as a pure LP (integrality requirements are relaxed):
    /// presolve, the simplex, and the map back to the original variable
    /// space.
    ///
    /// * `warm` — the basis a previous solve of the same (or an
    ///   identically-shaped) model returned in [`Solution::basis`]. Presolve
    ///   is layout-preserving (it only tightens bounds and frees redundant
    ///   rows), so the basis keeps its meaning regardless of how the previous
    ///   solve was presolved; a genuinely mismatched basis (different model
    ///   shape) silently falls back to a cold start.
    /// * `budget` — a cooperative [`SolveBudget`](teccl_util::SolveBudget),
    ///   checked once per pivot. A budget stop mid-phase-2 returns the
    ///   current primal-feasible vertex as `Feasible` with
    ///   `stats.budget_stop` set; a stop in presolve or before primal
    ///   feasibility fails with [`LpError::Budget`].
    pub fn solve_lp_relaxation_budgeted(
        &self,
        warm: Option<&crate::basis::SimplexBasis>,
        budget: Option<&teccl_util::SolveBudget>,
    ) -> Result<Solution, LpError> {
        self.validate()?;
        self.solve_lp_over(&MilpLayout::new(self), warm, budget)
    }

    /// The LP solve over a layout of this model's shape: presolve, simplex,
    /// recover.
    fn solve_lp_over(
        &self,
        layout: &MilpLayout,
        warm: Option<&crate::basis::SimplexBasis>,
        budget: Option<&teccl_util::SolveBudget>,
    ) -> Result<Solution, LpError> {
        let start = std::time::Instant::now();
        let (sf, post) = layout.presolve(self, budget)?;
        let sol = match sf {
            Some(sf) => {
                simplex::solve_standard_form_budgeted(&sf, self.num_vars(), &[], warm, budget)?
            }
            None => infeasible_solution(self.num_vars()),
        };
        let mut sol = post.recover(sol, self);
        sol.stats.solve_time = start.elapsed();
        Ok(sol)
    }

    /// Solves the model: branch-and-bound if integer variables are present,
    /// [`Model::solve_lp_relaxation_budgeted`] otherwise.
    ///
    /// * `layout` — a [`MilpLayout`] built from this model or from one of the
    ///   same shape (same variables and constraint terms; bounds, costs and
    ///   right-hand sides may differ): a caller that solves a sequence of
    ///   such models builds it once. Panics if the shapes differ.
    /// * `config` — the branch-and-bound limits (time limit, relative-gap
    ///   early stop); a pure LP ignores them.
    /// * `warm` — the basis an identically-shaped model's solve returned in
    ///   [`Solution::basis`] (for MILPs: the root relaxation's basis). A
    ///   mismatched basis silently falls back to a cold start.
    /// * `budget` — checked once per pivot and once per branch-and-bound
    ///   node. On exhaustion the best incumbent found so far is returned
    ///   with `stats.budget_stop` set; with no incumbent the solve fails
    ///   with [`LpError::Budget`].
    pub fn solve_over(
        &self,
        layout: &MilpLayout,
        config: &MilpConfig,
        warm: Option<&crate::basis::SimplexBasis>,
        budget: Option<&teccl_util::SolveBudget>,
    ) -> Result<Solution, LpError> {
        self.validate()?;
        if self.is_mip() {
            milp::branch_and_bound(layout, self, config, warm, budget)
        } else {
            self.solve_lp_over(layout, warm, budget)
        }
    }

    /// Evaluates the objective for a candidate assignment (used by tests and
    /// by the MILP rounding heuristic).
    pub fn eval_objective(&self, x: &[f64]) -> f64 {
        self.vars
            .iter()
            .zip(x.iter())
            .map(|(v, xi)| v.obj * xi)
            .sum()
    }

    /// Checks whether an assignment satisfies all constraints and bounds within
    /// tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (v, &xi) in self.vars.iter().zip(x.iter()) {
            if xi < v.lb - tol || xi > v.ub + tol {
                return false;
            }
            if v.integer && (xi - xi.round()).abs() > tol.max(crate::INT_TOL) {
                return false;
            }
        }
        for c in &self.cons {
            let lhs: f64 = c.terms.iter().map(|(vid, coef)| coef * x[vid.0]).sum();
            let ok = match c.op {
                ConstraintOp::Le => lhs <= c.rhs + tol,
                ConstraintOp::Ge => lhs >= c.rhs - tol,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Checks an LP optimum against this model alone, sharing no code with
    /// the simplex: bounds, rows, dual signs by row sense (minimization
    /// sense; [`Solution::duals`] carries the model's), reduced-cost signs by
    /// bound, and a duality gap ≤ `1e-6 · max(1, |objective|)`, all to
    /// `1e-6`. A reduced cost at an infinite bound may only be noise and is
    /// priced at the value. The error names the first violation.
    pub fn certify(&self, sol: &Solution) -> Result<(), String> {
        const TOL: f64 = 1e-6;
        let sign = if self.sense == Sense::Minimize {
            1.0
        } else {
            -1.0
        };
        let x = &sol.values;
        if x.len() != self.num_vars() || sol.duals.len() != self.num_cons() {
            return Err(format!(
                "{} values / {} duals for {} vars / {} rows",
                x.len(),
                sol.duals.len(),
                self.num_vars(),
                self.num_cons()
            ));
        }
        let mut d: Vec<f64> = self.vars.iter().map(|v| sign * v.obj).collect();
        let mut dual_obj = 0.0;
        for (i, (c, &dual)) in self.cons.iter().zip(&sol.duals).enumerate() {
            let y = sign * dual;
            let act: f64 = c.terms.iter().map(|(v, a)| a * x[v.0]).sum();
            let (row_ok, dual_ok) = match c.op {
                ConstraintOp::Le => (act <= c.rhs + TOL, y <= TOL),
                ConstraintOp::Ge => (act >= c.rhs - TOL, y >= -TOL),
                ConstraintOp::Eq => ((act - c.rhs).abs() <= TOL, y.is_finite()),
            };
            if !(row_ok && dual_ok) {
                return Err(format!(
                    "row {i} ({:?}): activity {act} vs rhs {}, dual {y}",
                    c.op, c.rhs
                ));
            }
            for (v, a) in &c.terms {
                d[v.0] -= y * a;
            }
            dual_obj += c.rhs * y;
        }
        let mut primal_obj = 0.0;
        for (j, (v, &xj)) in self.vars.iter().zip(x).enumerate() {
            let (at_lb, at_ub) = (xj <= v.lb + TOL, xj >= v.ub - TOL);
            let sign_ok = match (at_lb, at_ub) {
                (true, true) => true,
                (true, false) => d[j] >= -TOL,
                (false, true) => d[j] <= TOL,
                (false, false) => d[j].abs() <= TOL,
            };
            if xj.is_nan() || xj < v.lb - TOL || xj > v.ub + TOL || !sign_ok {
                return Err(format!(
                    "x{j} = {xj} in [{}, {}]: reduced cost {}",
                    v.lb, v.ub, d[j]
                ));
            }
            // min over lb <= x_j <= ub of d_j x_j.
            let bound = if d[j] > 0.0 { v.lb } else { v.ub };
            dual_obj += match d[j] {
                0.0 => 0.0,
                dj if bound.is_finite() => dj * bound,
                dj => dj * xj,
            };
            primal_obj += sign * v.obj * xj;
        }
        let gap = (primal_obj - dual_obj).abs();
        if gap.is_nan() || gap > TOL * primal_obj.abs().max(1.0) {
            return Err(format!("primal {primal_obj} vs dual {dual_obj}: gap {gap}"));
        }
        Ok(())
    }
}

/// Helper to make an infeasible solution with zeroed values (used by presolve
/// and the MILP solver when infeasibility is detected before the simplex runs).
pub(crate) fn infeasible_solution(num_vars: usize) -> Solution {
    Solution {
        status: SolveStatus::Infeasible,
        objective: f64::NAN,
        values: vec![0.0; num_vars],
        duals: Vec::new(),
        stats: Default::default(),
        basis: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate_simple_model() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 1.0);
        let y = m.add_binary_var("y", 2.0);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.5);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_cons(), 1);
        assert_eq!(m.num_integer_vars(), 1);
        assert!(m.is_mip());
        assert!(m.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 2.0, 1.0, 0.0, false);
        assert!(matches!(
            m.validate(),
            Err(LpError::InconsistentBounds { .. })
        ));
    }

    #[test]
    fn validate_rejects_unknown_var_in_constraint() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 0.0);
        m.add_cons("c", &[(VarId(5), 1.0), (x, 1.0)], ConstraintOp::Le, 1.0);
        assert!(matches!(m.validate(), Err(LpError::UnknownVariable(5))));
    }

    #[test]
    fn validate_rejects_nan_rhs() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 0.0);
        m.add_cons("c", &[(x, 1.0)], ConstraintOp::Le, f64::NAN);
        assert!(matches!(
            m.validate(),
            Err(LpError::NonFiniteCoefficient(_))
        ));
    }

    /// Unnamed variables and rows are reported by index.
    #[test]
    fn validate_names_unnamed_variables_and_rows_by_index() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("", 0.0, 1.0, 0.0, false);
        let y = m.add_var("", 2.0, 1.0, 0.0, false);
        let LpError::InconsistentBounds { var, .. } = m.validate().unwrap_err() else {
            panic!("bounds error expected");
        };
        assert_eq!(var, "#1");
        m.set_bounds(y, 0.0, 1.0);
        m.add_cons("", &[(y, 1.0)], ConstraintOp::Le, 1.0);
        m.add_cons("", &[(y, f64::INFINITY)], ConstraintOp::Le, 1.0);
        assert_eq!(
            m.validate().unwrap_err(),
            LpError::NonFiniteCoefficient("coefficient of `#1` in `row #1`".into())
        );
    }

    #[test]
    fn feasibility_check_and_objective_eval() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 2.0, 3.0, false);
        let y = m.add_var("y", 0.0, 3.0, 2.0, false);
        m.add_cons("cap", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        assert!(m.is_feasible(&[2.0, 2.0], 1e-9));
        assert!(!m.is_feasible(&[2.0, 3.0], 1e-9)); // violates cap
        assert!(!m.is_feasible(&[3.0, 0.0], 1e-9)); // violates ub
        assert_eq!(m.eval_objective(&[2.0, 2.0]), 10.0);
    }

    #[test]
    fn integrality_checked_in_feasibility() {
        let mut m = Model::new(Sense::Maximize);
        m.add_binary_var("b", 1.0);
        assert!(m.is_feasible(&[1.0], 1e-9));
        assert!(!m.is_feasible(&[0.5], 1e-9));
    }

    /// Presolve checks the budget once per pass, so a budget spent before
    /// the solve starts stops it before the first pivot, on both paths.
    #[test]
    fn a_spent_budget_stops_in_presolve_before_any_pivot() {
        use teccl_util::{BudgetExceeded, SolveBudget};
        let mut milp = Model::new(Sense::Maximize);
        let x = milp.add_var("x", 0.0, 10.0, 1.0, true);
        let y = milp.add_var("y", 0.0, 10.0, 1.0, false);
        milp.add_cons("c", &[(x, 2.0), (y, 1.0)], ConstraintOp::Le, 7.0);
        let mut lp = milp.clone();
        lp.vars[x.0].integer = false;
        for model in [&milp, &lp] {
            let budget = SolveBudget::with_deadline(std::time::Duration::ZERO);
            let config = MilpConfig::default();
            let layout = MilpLayout::new(model);
            assert_eq!(
                model
                    .solve_over(&layout, &config, None, Some(&budget))
                    .unwrap_err(),
                LpError::Budget(BudgetExceeded::DeadlineExceeded)
            );
            assert_eq!(budget.iterations_used(), 0, "a pivot ran");
        }
    }

    #[test]
    fn set_bounds_and_obj() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 1.0);
        m.set_bounds(x, 1.0, 5.0);
        m.set_obj(x, -2.0);
        assert_eq!(m.vars[0].lb, 1.0);
        assert_eq!(m.vars[0].ub, 5.0);
        assert_eq!(m.vars[0].obj, -2.0);
    }
}

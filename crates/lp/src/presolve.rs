//! Layout-preserving presolve: bound tightening in the *original* column
//! space.
//!
//! TE-CCL models contain many structurally-forced variables (flows that cannot
//! exist because a chunk could not yet have arrived, buffers pinned to zero at
//! switches, first/last epoch boundary conditions). Earlier versions of this
//! module *removed* those columns and rows, which shrank the model but changed
//! its column layout — so any simplex basis produced with presolve on was
//! meaningless to a solve with presolve off (or to a differently-presolved
//! round), and every warm-start path had to run with presolve disabled.
//!
//! This version never changes the model's shape. Reductions are expressed as
//! **bound tightenings** and **row deactivations**:
//!
//! * **fixed variables** are pinned by `lb == ub` bounds (the simplex never
//!   prices a zero-range column, so they cost one branch per pricing refill),
//! * **empty rows** (all variables fixed) are feasibility-checked and freed,
//! * **singleton rows** are folded into the variable's bounds (with integral
//!   rounding for integer variables) and freed,
//! * **redundant rows** — rows whose activity range, computed from the current
//!   bounds, can never violate the right-hand side — are freed,
//! * **forcing rows** — rows whose activity range only touches the right-hand
//!   side at one extreme — fix every participating variable at the bound
//!   achieving that extreme, and are then freed,
//! * **implied bounds** from row activities tighten individual variable
//!   bounds (integer bounds are rounded inward).
//!
//! A *freed* row stays in the model; [`PostSolve::relax_free_rows`] relaxes
//! its slack column to `(-inf, +inf)` in the [`StandardForm`], which makes the
//! row trivially satisfiable without touching the constraint matrix. The
//! matrix `A` is therefore **identical** with presolve on or off, and a basis
//! from any solve (any B&B node, any A* round, presolved or not) can
//! warm-start any other solve of the same form.
//!
//! [`PostSolve::recover`] shrinks to value substitution: fixed variables are
//! snapped exactly onto their fixed value and the objective is re-evaluated;
//! duals stay 1:1 with the original constraints because no row was removed.
//!
//! Because the shape never changes, a solve splits into a **layout** part
//! that only the constraint terms decide — each row's merged terms and the
//! standard form's matrix, held by a [`MilpLayout`] — and a **bounds** part
//! every solve rewrites: bounds, costs and right-hand sides. A caller that
//! solves a sequence of same-shaped models (the A* rounds) builds the layout
//! once, and the fixpoint, the standard form and the [`NodePresolver`] of
//! every solve read it. [`presolve`] keeps its `(Model, PostSolve)` form for
//! callers that want the tightened model itself; no solve path builds it.

use std::sync::Arc;

use crate::error::LpError;
use crate::model::{infeasible_solution, ConstraintOp, Model};
use crate::solution::Solution;
use crate::sparse::{RowMajor, SparseMatrix};
use crate::standard::{self, StandardForm};
use teccl_util::SolveBudget;

const EPS: f64 = 1e-9;
/// Minimum improvement for a continuous-variable bound tightening to be
/// applied (guards against fixpoint loops driven by 1e-12 nibbles).
const MIN_TIGHTEN: f64 = 1e-6;
/// Maximum number of full tightening passes.
const MAX_PASSES: usize = 10;

/// Information needed to map a presolved solution back onto the original
/// model. With the layout-preserving presolve this is mostly bookkeeping:
/// no columns or rows were removed, so it records *which* columns were fixed
/// (for exact value substitution) and *which* rows were freed (for slack
/// relaxation in the standard form).
#[derive(Debug, Clone)]
pub struct PostSolve {
    /// For each original variable: `Some(value)` if presolve fixed it
    /// (`lb == ub` in the tightened model).
    pub fixed: Vec<Option<f64>>,
    /// For each original row: `true` if presolve proved it can never be
    /// violated under the tightened bounds (its standard-form slack may be
    /// freed).
    pub free_rows: Vec<bool>,
    /// Presolve proved the model infeasible.
    pub infeasible: bool,
    /// Number of variables fixed by presolve (`lb == hi` pins).
    pub cols_fixed: usize,
    /// Number of rows freed by presolve.
    pub rows_freed: usize,
    /// Number of variables in the model (unchanged by presolve).
    pub original_vars: usize,
    /// Number of constraints in the model (unchanged by presolve).
    pub original_cons: usize,
}

impl PostSolve {
    /// If presolve alone already determined the outcome (infeasible), returns
    /// the corresponding solution skeleton.
    pub fn trivial_outcome(&self) -> Option<Solution> {
        if self.infeasible {
            return Some(infeasible_solution(self.original_vars));
        }
        None
    }

    /// Relaxes the slack bounds of every freed row to `(-inf, +inf)` in a
    /// standard form built from the tightened model. The constraint matrix is
    /// untouched, so the column layout (and any basis over it) keeps its
    /// meaning; the freed rows simply stop constraining the solve.
    pub fn relax_free_rows(&self, sf: &mut StandardForm) {
        debug_assert_eq!(sf.num_rows(), self.original_cons);
        for (row, &free) in self.free_rows.iter().enumerate() {
            if free {
                let slack = sf.num_structural + row;
                sf.lb[slack] = f64::NEG_INFINITY;
                sf.ub[slack] = f64::INFINITY;
            }
        }
    }

    /// Maps a solved solution back onto the original model: fixed variables
    /// are snapped exactly onto their fixed value (wiping simplex bound
    /// noise), the objective is re-evaluated against the original model, and
    /// the presolve counters are recorded. Values and duals keep the original
    /// indices — no columns or rows were removed — but only the values are
    /// the original model's answer. The duals are those of the tightened
    /// model: a variable at a bound presolve tightened can carry a reduced
    /// cost whose sign the original, looser bound does not allow, so
    /// [`Model::certify`] may reject the returned solution. Moving those
    /// reduced costs into the duals of the rows that made each tightening (a
    /// dual postsolve) is not done.
    pub fn recover(&self, mut sol: Solution, original: &Model) -> Solution {
        if sol.values.len() < self.original_vars {
            sol.values.resize(self.original_vars, 0.0);
        }
        for (orig, fixed) in self.fixed.iter().enumerate() {
            if let Some(v) = fixed {
                sol.values[orig] = *v;
            }
        }
        if sol.status.has_solution() {
            sol.objective = original.eval_objective(&sol.values);
        }
        sol.stats.presolved_vars = self.original_vars - self.cols_fixed;
        sol.stats.presolved_cons = self.original_cons - self.rows_freed;
        sol.stats.cols_fixed = self.cols_fixed;
        sol.stats.rows_freed = self.rows_freed;
        sol
    }
}

/// The part of a model's solve that only its constraint terms decide: each
/// row's terms with duplicates summed and zeros dropped (what the presolve
/// fixpoint and the [`NodePresolver`] read), and the standard form's matrix
/// with its row-major copy. It serves every model of the same shape — the
/// same variables and constraint terms, with any bounds, costs and
/// right-hand sides — so the A* rounds build it once per formulation.
#[derive(Debug)]
pub struct MilpLayout {
    /// Merged `(column, coefficient)` terms of each constraint, by column.
    rows: MergedRows,
    /// The same terms by column: the rows a bound change can affect.
    cols: ColumnRows,
    a: Arc<SparseMatrix>,
    row_major: Arc<RowMajor>,
}

impl MilpLayout {
    /// Assembles `model`'s standard-form matrix and reads the merged rows
    /// off its row-major copy.
    pub fn new(model: &Model) -> Self {
        let (a, row_major) = standard::matrix(model);
        let rows = MergedRows::of(&row_major, model.num_vars(), model.num_cons());
        Self {
            cols: ColumnRows::of(&rows, model.num_vars()),
            rows,
            a: Arc::new(a),
            row_major: Arc::new(row_major),
        }
    }

    /// Presolves `model` over this layout under `budget` (checked once per
    /// fixpoint pass; a stop is [`LpError::Budget`]). Returns the standard
    /// form the solve runs on — sharing this layout's matrix; `None` when
    /// presolve alone proved the model infeasible — and the [`PostSolve`].
    ///
    /// Panics if `model` is not of the layout's shape.
    pub(crate) fn presolve(
        &self,
        model: &Model,
        budget: Option<&SolveBudget>,
    ) -> Result<(Option<StandardForm>, PostSolve), LpError> {
        assert!(
            self.rows.len() == model.num_cons()
                && self.a.cols.len() == model.num_vars() + model.num_cons(),
            "layout built from a model of another shape"
        );
        let (lb, ub, post) = fixpoint(model, &self.rows, &self.cols, budget)?;
        if post.infeasible {
            return Ok((None, post));
        }
        let mut sf = StandardForm::over(
            Arc::clone(&self.a),
            Arc::clone(&self.row_major),
            model,
            lb,
            ub,
        );
        post.relax_free_rows(&mut sf);
        Ok((Some(sf), post))
    }
}

/// Each constraint's terms with duplicate variables summed (in term order)
/// and zero sums dropped, ordered by column, in one flat array. Analysis
/// only: the model's rows are left untouched.
#[derive(Debug)]
struct MergedRows {
    start: Vec<usize>,
    terms: Vec<(usize, f64)>,
}

impl MergedRows {
    /// The structural entries of each of the `num_rows` rows of the
    /// standard form's row-major matrix over `num_vars` structural columns.
    /// Its columns sum a row's duplicate terms in term order and drop zero
    /// sums, and its rows list them by column, so these are the constraint
    /// terms merged; the slack, the column past the structural ones, is left
    /// out.
    fn of(row_major: &RowMajor, num_vars: usize, num_rows: usize) -> Self {
        let mut start = Vec::with_capacity(num_rows + 1);
        let mut terms = Vec::new();
        start.push(0);
        for i in 0..num_rows {
            terms.extend(row_major.row(i).filter(|&(j, _)| j < num_vars));
            start.push(terms.len());
        }
        MergedRows { start, terms }
    }

    /// The merged terms of row `i`.
    fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.terms[self.start[i]..self.start[i + 1]]
    }

    /// Every row's merged terms, in row order.
    fn iter(&self) -> impl Iterator<Item = &[(usize, f64)]> + '_ {
        (0..self.start.len() - 1).map(|i| self.row(i))
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }
}

/// The rows each column has a merged term in: `row[start[j]..start[j + 1]]`.
#[derive(Debug)]
struct ColumnRows {
    start: Vec<usize>,
    row: Vec<usize>,
}

impl ColumnRows {
    fn of(rows: &MergedRows, num_vars: usize) -> Self {
        let mut start = vec![0usize; num_vars + 1];
        for &(j, _) in &rows.terms {
            start[j + 1] += 1;
        }
        for j in 0..num_vars {
            start[j + 1] += start[j];
        }
        let mut next = start.clone();
        let mut row = vec![0usize; start[num_vars]];
        for (i, terms) in rows.iter().enumerate() {
            for &(j, _) in terms {
                row[next[j]] = i;
                next[j] += 1;
            }
        }
        ColumnRows { start, row }
    }

    /// Marks every row with a term in column `j` for another look.
    fn touch(&self, j: usize, dirty: &mut [bool]) {
        for &i in &self.row[self.start[j]..self.start[j + 1]] {
            dirty[i] = true;
        }
    }
}

/// Activity range of a row under the current bounds, tracking infinite
/// contributions so single-variable residuals stay computable.
#[derive(Debug, Clone, Copy, Default)]
struct Activity {
    min_fin: f64,
    max_fin: f64,
    min_inf: usize,
    max_inf: usize,
}

impl Activity {
    fn min(&self) -> f64 {
        if self.min_inf > 0 {
            f64::NEG_INFINITY
        } else {
            self.min_fin
        }
    }
    fn max(&self) -> f64 {
        if self.max_inf > 0 {
            f64::INFINITY
        } else {
            self.max_fin
        }
    }
    /// Minimum activity of the row excluding variable `j`'s term, or `None`
    /// when it is unbounded below.
    fn min_without(&self, contrib_min: f64) -> Option<f64> {
        if contrib_min.is_finite() {
            (self.min_inf == 0).then_some(self.min_fin - contrib_min)
        } else {
            (self.min_inf == 1).then_some(self.min_fin)
        }
    }
    /// Maximum activity of the row excluding variable `j`'s term, or `None`
    /// when it is unbounded above.
    fn max_without(&self, contrib_max: f64) -> Option<f64> {
        if contrib_max.is_finite() {
            (self.max_inf == 0).then_some(self.max_fin - contrib_max)
        } else {
            (self.max_inf == 1).then_some(self.max_fin)
        }
    }
    /// This activity with one variable's `(contrib_min, contrib_max)` range
    /// contribution replaced by the point value `p` (probing a fixing).
    fn with_point(mut self, contrib_min: f64, contrib_max: f64, p: f64) -> Activity {
        if contrib_min.is_finite() {
            self.min_fin -= contrib_min;
        } else {
            self.min_inf -= 1;
        }
        if contrib_max.is_finite() {
            self.max_fin -= contrib_max;
        } else {
            self.max_inf -= 1;
        }
        self.min_fin += p;
        self.max_fin += p;
        self
    }
}

fn activity(terms: &[(usize, f64)], lb: &[f64], ub: &[f64]) -> Activity {
    let mut act = Activity::default();
    for &(j, a) in terms {
        let (lo_c, hi_c) = if a > 0.0 {
            (a * lb[j], a * ub[j])
        } else {
            (a * ub[j], a * lb[j])
        };
        if lo_c.is_finite() {
            act.min_fin += lo_c;
        } else {
            act.min_inf += 1;
        }
        if hi_c.is_finite() {
            act.max_fin += hi_c;
        } else {
            act.max_inf += 1;
        }
    }
    act
}

/// Implied-bound tightening of variable `j` (coefficient `a`) from a row's
/// activity range — the single copy shared by the global presolve fixpoint
/// and the per-node propagation, so tolerance or rounding changes apply to
/// both. Returns `None` when the tightened bounds cross (infeasible),
/// otherwise whether a bound changed.
#[allow(clippy::too_many_arguments)] // a row-propagation step simply has this many inputs
fn tighten_from_row(
    j: usize,
    a: f64,
    rhs: f64,
    act: &Activity,
    tighten_le: bool,
    tighten_ge: bool,
    integer: bool,
    lb: &mut [f64],
    ub: &mut [f64],
) -> Option<bool> {
    let mut changed = false;
    let (contrib_min, contrib_max) = if a > 0.0 {
        (a * lb[j], a * ub[j])
    } else {
        (a * ub[j], a * lb[j])
    };
    if tighten_le {
        if let Some(rest_min) = act.min_without(contrib_min) {
            // a * x_j <= rhs - rest_min
            let room = rhs - rest_min;
            if a > 0.0 {
                let mut nb = room / a;
                if integer {
                    nb = (nb + 1e-6).floor();
                }
                if nb < ub[j] - MIN_TIGHTEN {
                    ub[j] = nb;
                    changed = true;
                }
            } else {
                let mut nb = room / a;
                if integer {
                    nb = (nb - 1e-6).ceil();
                }
                if nb > lb[j] + MIN_TIGHTEN {
                    lb[j] = nb;
                    changed = true;
                }
            }
        }
    }
    if tighten_ge {
        if let Some(rest_max) = act.max_without(contrib_max) {
            // a * x_j >= rhs - rest_max
            let room = rhs - rest_max;
            if a > 0.0 {
                let mut nb = room / a;
                if integer {
                    nb = (nb - 1e-6).ceil();
                }
                if nb > lb[j] + MIN_TIGHTEN {
                    lb[j] = nb;
                    changed = true;
                }
            } else {
                let mut nb = room / a;
                if integer {
                    nb = (nb + 1e-6).floor();
                }
                if nb < ub[j] - MIN_TIGHTEN {
                    ub[j] = nb;
                    changed = true;
                }
            }
        }
    }
    if lb[j] > ub[j] + EPS {
        return None;
    }
    Some(changed)
}

/// Runs presolve on a model. The returned model has the **same shape** as the
/// input (identical variables and constraints) with tightened bounds; the
/// [`PostSolve`] records the fixings and freed rows. The solvers presolve
/// over a [`MilpLayout`] instead and never build this model.
pub fn presolve(model: &Model) -> Result<(Model, PostSolve), LpError> {
    let layout = MilpLayout::new(model);
    let (lb, ub, post) = fixpoint(model, &layout.rows, &layout.cols, None)?;
    let mut tightened = model.clone();
    if !post.infeasible {
        for (var, (lo, hi)) in tightened.vars.iter_mut().zip(lb.into_iter().zip(ub)) {
            var.lb = lo;
            var.ub = hi;
        }
    }
    Ok((tightened, post))
}

/// The presolve fixpoint over `rows`, `model`'s merged terms (`cols` by
/// column): the tightened structural bounds and the [`PostSolve`]. The
/// bounds are partial when presolve proved the model infeasible. `budget` is
/// checked once per pass.
///
/// A pass visits the rows in order but examines only those marked since
/// their last look; a bound change marks its column's rows. An examination
/// reads only the row's terms and their bounds, so an unmarked row would
/// change nothing, and every bound, freed row and pass count is the full
/// sweep's.
fn fixpoint(
    model: &Model,
    rows: &MergedRows,
    cols: &ColumnRows,
    budget: Option<&SolveBudget>,
) -> Result<(Vec<f64>, Vec<f64>, PostSolve), LpError> {
    let nv = model.num_vars();
    let nc = model.num_cons();
    let mut lb: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
    let mut ub: Vec<f64> = model.vars.iter().map(|v| v.ub).collect();
    let integer = |j: usize| model.vars[j].integer;
    let mut infeasible = false;
    let mut free = vec![false; nc];
    let mut dirty = vec![true; nc];
    // A row's live terms, refilled row by row.
    let mut live: Vec<(usize, f64)> = Vec::new();

    // Round integer bounds inward immediately.
    for j in 0..nv {
        if integer(j) {
            if lb[j].is_finite() {
                lb[j] = round_if_close(lb[j]).ceil();
            }
            if ub[j].is_finite() {
                ub[j] = round_if_close(ub[j]).floor();
            }
        }
    }

    let mut changed = true;
    let mut passes = 0usize;
    'outer: while changed && !infeasible && passes < MAX_PASSES {
        if let Some(cause) = budget.and_then(|b| b.exceeded()) {
            return Err(LpError::Budget(cause));
        }
        changed = false;
        passes += 1;

        for j in 0..nv {
            if lb[j] > ub[j] + EPS {
                infeasible = true;
                break 'outer;
            }
        }

        for (i, c) in model.cons.iter().enumerate() {
            if free[i] || !std::mem::replace(&mut dirty[i], false) {
                continue;
            }
            let terms = rows.row(i);
            // Split terms into fixed contributions (folded into the rhs of
            // the *analysis* row) and live terms, in one pass. The fixed sum
            // starts where `Iterator::sum` does, at -0.0, and adds in term
            // order, so it is that sum to the bit.
            live.clear();
            let mut fixed_sum = -0.0;
            for &(j, a) in terms {
                let range = (ub[j] - lb[j]).abs();
                if range > EPS {
                    live.push((j, a));
                } else if range <= EPS {
                    fixed_sum += a * lb[j];
                }
            }
            let rhs = c.rhs - fixed_sum;

            // Empty row: everything fixed — check and free.
            if live.is_empty() {
                let ok = match c.op {
                    ConstraintOp::Le => 0.0 <= rhs + 1e-7,
                    ConstraintOp::Ge => 0.0 >= rhs - 1e-7,
                    ConstraintOp::Eq => rhs.abs() <= 1e-7,
                };
                if !ok {
                    infeasible = true;
                    break 'outer;
                }
                free[i] = true;
                changed = true;
                continue;
            }

            // Singleton row: fold into the variable's bounds and free.
            if live.len() == 1 {
                let (j, a) = live[0];
                if a.abs() < EPS {
                    continue;
                }
                let bound = rhs / a;
                match (c.op, a > 0.0) {
                    (ConstraintOp::Eq, _) => {
                        let v = if integer(j) { bound.round() } else { bound };
                        if integer(j) && (bound - bound.round()).abs() > 1e-6 {
                            infeasible = true;
                            break 'outer;
                        }
                        if v < lb[j] - 1e-7 || v > ub[j] + 1e-7 {
                            infeasible = true;
                            break 'outer;
                        }
                        lb[j] = v;
                        ub[j] = v;
                        cols.touch(j, &mut dirty);
                    }
                    (ConstraintOp::Le, true) | (ConstraintOp::Ge, false) => {
                        let mut new_ub = bound;
                        if integer(j) {
                            new_ub = (new_ub + 1e-9).floor();
                        }
                        if new_ub < ub[j] {
                            ub[j] = new_ub;
                            cols.touch(j, &mut dirty);
                        }
                    }
                    (ConstraintOp::Ge, true) | (ConstraintOp::Le, false) => {
                        let mut new_lb = bound;
                        if integer(j) {
                            new_lb = (new_lb - 1e-9).ceil();
                        }
                        if new_lb > lb[j] {
                            lb[j] = new_lb;
                            cols.touch(j, &mut dirty);
                        }
                    }
                }
                if lb[j] > ub[j] + EPS {
                    infeasible = true;
                    break 'outer;
                }
                free[i] = true;
                changed = true;
                continue;
            }

            // Activity analysis over the live terms.
            let act = activity(&live, &lb, &ub);
            let (amin, amax) = (act.min(), act.max());

            // Infeasibility by activity.
            let bad = match c.op {
                ConstraintOp::Le => amin > rhs + 1e-7,
                ConstraintOp::Ge => amax < rhs - 1e-7,
                ConstraintOp::Eq => amin > rhs + 1e-7 || amax < rhs - 1e-7,
            };
            if bad {
                infeasible = true;
                break 'outer;
            }

            // Redundancy: the row can never be violated under the bounds.
            let redundant = match c.op {
                ConstraintOp::Le => amax <= rhs + 1e-9,
                ConstraintOp::Ge => amin >= rhs - 1e-9,
                ConstraintOp::Eq => (amax - rhs).abs() <= 1e-9 && (amin - rhs).abs() <= 1e-9,
            };
            if redundant {
                free[i] = true;
                changed = true;
                continue;
            }

            // Forcing: the activity range only touches the rhs at one
            // extreme — every live variable is forced to the bound achieving
            // that extreme.
            let forcing_at_min = matches!(c.op, ConstraintOp::Le | ConstraintOp::Eq)
                && amin.is_finite()
                && (amin - rhs).abs() <= 1e-9;
            let forcing_at_max = matches!(c.op, ConstraintOp::Ge | ConstraintOp::Eq)
                && amax.is_finite()
                && (amax - rhs).abs() <= 1e-9;
            if forcing_at_min || forcing_at_max {
                for &(j, a) in &live {
                    let at_lower = (a > 0.0) == forcing_at_min;
                    if at_lower {
                        ub[j] = lb[j];
                    } else {
                        lb[j] = ub[j];
                    }
                    cols.touch(j, &mut dirty);
                }
                free[i] = true;
                changed = true;
                continue;
            }

            // Implied bounds: for `sum a_j x_j <= rhs`, each x_j is bounded by
            // the residual slack the other terms leave. `>=` rows are the
            // mirrored case; `==` rows tighten from both sides.
            let tighten_le = matches!(c.op, ConstraintOp::Le | ConstraintOp::Eq);
            let tighten_ge = matches!(c.op, ConstraintOp::Ge | ConstraintOp::Eq);
            for &(j, a) in &live {
                match tighten_from_row(
                    j,
                    a,
                    rhs,
                    &act,
                    tighten_le,
                    tighten_ge,
                    integer(j),
                    &mut lb,
                    &mut ub,
                ) {
                    None => {
                        infeasible = true;
                        break 'outer;
                    }
                    Some(false) => {}
                    Some(true) => {
                        changed = true;
                        cols.touch(j, &mut dirty);
                    }
                }
            }
        }
    }

    // Snap near-equal bounds exactly together so fixed columns are pinned by
    // bit-identical `lb == ub` (the simplex's zero-range test).
    let mut fixed: Vec<Option<f64>> = vec![None; nv];
    let mut cols_fixed = 0usize;
    if !infeasible {
        for j in 0..nv {
            if lb[j].is_finite() && ub[j].is_finite() && (ub[j] - lb[j]).abs() <= EPS {
                let v = if integer(j) { lb[j].round() } else { lb[j] };
                lb[j] = v;
                ub[j] = v;
                fixed[j] = Some(v);
                cols_fixed += 1;
            }
        }
    }

    let rows_freed = free.iter().filter(|f| **f).count();
    let post = PostSolve {
        fixed,
        free_rows: free,
        infeasible,
        cols_fixed,
        rows_freed,
        original_vars: nv,
        original_cons: nc,
    };
    Ok((lb, ub, post))
}

fn round_if_close(v: f64) -> f64 {
    if (v - v.round()).abs() < EPS {
        v.round()
    } else {
        v
    }
}

/// Maximum propagation passes per branch-and-bound node.
const NODE_PASSES: usize = 3;
/// Maximum binary variables probed per node.
const NODE_PROBES: usize = 8;

/// Per-node presolver for the branch-and-bound tree: a compact, read-only
/// view of the root-presolved model's active rows, used to propagate bounds
/// down branching paths.
///
/// Because the root presolve is layout-preserving, every tightening this
/// derives is expressed directly in the shared standard form's column space
/// and feeds the dual simplex's bound-override path — no re-presolve, no
/// rebuilt model. Rows the root presolve freed are omitted: bounds only
/// shrink down the tree, so a row redundant at the root stays redundant in
/// every descendant.
/// One active row of the per-node propagation view: the layout's merged
/// `(column, coefficient)` terms, the comparison operator, and the
/// right-hand side.
type PropRow<'a> = (&'a [(usize, f64)], ConstraintOp, f64);

#[derive(Debug)]
pub struct NodePresolver<'a> {
    /// Active rows, borrowing the layout's merged terms.
    rows: Vec<PropRow<'a>>,
    /// Rows touching each column (indices into `rows`).
    col_rows: Vec<Vec<usize>>,
    base_lb: Vec<f64>,
    base_ub: Vec<f64>,
    integer: Vec<bool>,
    /// Probe candidates: integer columns whose root bounds are `[0, 1]`.
    binaries: Vec<usize>,
    /// Reusable working/entry bound buffers: `tighten` sits on the hot
    /// branch-and-bound node loop, which is otherwise allocation-free.
    scratch: Vec<Vec<f64>>,
}

impl<'a> NodePresolver<'a> {
    /// Builds the per-node presolver over `layout`'s rows for the
    /// root-presolved `model`: `sf` is the root's standard form (its
    /// structural bounds are the tightened ones) and `post` names the rows
    /// the root presolve freed.
    pub fn new(layout: &'a MilpLayout, model: &Model, sf: &StandardForm, post: &PostSolve) -> Self {
        let nv = model.num_vars();
        let (lb, ub) = (&sf.lb[..nv], &sf.ub[..nv]);
        let mut rows = Vec::new();
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); nv];
        for ((terms, c), &free) in layout.rows.iter().zip(&model.cons).zip(&post.free_rows) {
            if free || terms.is_empty() {
                continue;
            }
            let row_idx = rows.len();
            for &(j, _) in terms {
                col_rows[j].push(row_idx);
            }
            rows.push((terms, c.op, c.rhs));
        }
        let integer: Vec<bool> = model.vars.iter().map(|v| v.integer).collect();
        let binaries: Vec<usize> = (0..nv)
            .filter(|&j| integer[j] && lb[j] == 0.0 && ub[j] == 1.0)
            .collect();
        Self {
            rows,
            col_rows,
            base_lb: lb.to_vec(),
            base_ub: ub.to_vec(),
            integer,
            binaries,
            scratch: vec![Vec::new(); 4],
        }
    }

    /// Propagates the node's bounds: applies `overrides` on top of the root
    /// bounds, runs up to `NODE_PASSES` rounds of row-activity propagation
    /// plus light probing on up to `NODE_PROBES` unfixed binaries, and
    /// appends every derived tightening back onto `overrides`.
    ///
    /// Returns `None` when propagation proves the node infeasible (the caller
    /// prunes it without an LP solve), otherwise `Some(count)` with the
    /// number of columns whose bounds were tightened.
    pub fn tighten(&mut self, overrides: &mut Vec<(usize, f64, f64)>) -> Option<usize> {
        let n = self.base_lb.len();
        // Reuse the four bound buffers across nodes (mem::take sidesteps the
        // &self / &mut scratch borrow overlap; they are restored below).
        let mut entry_ub = self.scratch.pop().expect("four scratch buffers");
        let mut entry_lb = self.scratch.pop().expect("four scratch buffers");
        let mut ub = self.scratch.pop().expect("four scratch buffers");
        let mut lb = self.scratch.pop().expect("four scratch buffers");
        lb.clear();
        lb.extend_from_slice(&self.base_lb);
        ub.clear();
        ub.extend_from_slice(&self.base_ub);
        for &(j, lo, hi) in overrides.iter() {
            lb[j] = lo;
            ub[j] = hi;
        }
        entry_lb.clear();
        entry_lb.extend_from_slice(&lb);
        entry_ub.clear();
        entry_ub.extend_from_slice(&ub);
        let result = self.tighten_inner(overrides, n, &mut lb, &mut ub, &entry_lb, &entry_ub);
        self.scratch.push(lb);
        self.scratch.push(ub);
        self.scratch.push(entry_lb);
        self.scratch.push(entry_ub);
        result
    }

    #[allow(clippy::too_many_arguments)] // internal: threads the scratch buffers through
    fn tighten_inner(
        &self,
        overrides: &mut Vec<(usize, f64, f64)>,
        n: usize,
        lb: &mut [f64],
        ub: &mut [f64],
        entry_lb: &[f64],
        entry_ub: &[f64],
    ) -> Option<usize> {
        for _ in 0..NODE_PASSES {
            let mut any = false;
            for (terms, op, rhs) in &self.rows {
                match self.propagate_row(terms, *op, *rhs, lb, ub) {
                    None => return None,
                    Some(changed) => any |= changed,
                }
            }
            if !any {
                break;
            }
        }

        // Light probing: test both values of a few unfixed binaries against a
        // single activity sweep of the rows they touch; a value that is
        // immediately infeasible fixes the variable to the other one.
        let mut probes = 0usize;
        for &j in &self.binaries {
            if probes >= NODE_PROBES {
                break;
            }
            if ub[j] - lb[j] < 0.5 {
                continue; // already fixed at this node
            }
            probes += 1;
            let zero_bad = self.probe_infeasible(j, 0.0, lb, ub);
            let one_bad = self.probe_infeasible(j, 1.0, lb, ub);
            match (zero_bad, one_bad) {
                (true, true) => return None,
                (true, false) => lb[j] = 1.0,
                (false, true) => ub[j] = 0.0,
                (false, false) => {}
            }
        }

        let mut tightened = 0usize;
        for j in 0..n {
            if lb[j] > ub[j] + EPS {
                return None;
            }
            if lb[j] != entry_lb[j] || ub[j] != entry_ub[j] {
                tightened += 1;
                overrides.retain(|&(k, _, _)| k != j);
                overrides.push((j, lb[j], ub[j]));
            }
        }
        Some(tightened)
    }

    /// One propagation step over a single row: infeasibility check plus
    /// implied-bound tightening (with integral rounding). Returns `None` on
    /// proven infeasibility, otherwise whether any bound changed.
    fn propagate_row(
        &self,
        terms: &[(usize, f64)],
        op: ConstraintOp,
        rhs: f64,
        lb: &mut [f64],
        ub: &mut [f64],
    ) -> Option<bool> {
        let act = activity(terms, lb, ub);
        let (amin, amax) = (act.min(), act.max());
        let bad = match op {
            ConstraintOp::Le => amin > rhs + 1e-7,
            ConstraintOp::Ge => amax < rhs - 1e-7,
            ConstraintOp::Eq => amin > rhs + 1e-7 || amax < rhs - 1e-7,
        };
        if bad {
            return None;
        }
        // Skip rows that cannot bind: no tightening can come from them.
        let redundant = match op {
            ConstraintOp::Le => amax <= rhs + 1e-9,
            ConstraintOp::Ge => amin >= rhs - 1e-9,
            ConstraintOp::Eq => false,
        };
        if redundant {
            return Some(false);
        }
        let tighten_le = matches!(op, ConstraintOp::Le | ConstraintOp::Eq);
        let tighten_ge = matches!(op, ConstraintOp::Ge | ConstraintOp::Eq);
        let mut changed = false;
        for &(j, a) in terms {
            changed |= tighten_from_row(
                j,
                a,
                rhs,
                &act,
                tighten_le,
                tighten_ge,
                self.integer[j],
                lb,
                ub,
            )?;
        }
        Some(changed)
    }

    /// Whether fixing column `j` at `v` immediately violates one of the rows
    /// touching `j` (single activity sweep, no recursive propagation).
    fn probe_infeasible(&self, j: usize, v: f64, lb: &[f64], ub: &[f64]) -> bool {
        for &r in &self.col_rows[j] {
            let (terms, op, rhs) = &self.rows[r];
            let &(_, a) = terms
                .iter()
                .find(|&&(k, _)| k == j)
                .expect("col_rows index lists only rows containing j");
            let (contrib_min, contrib_max) = if a > 0.0 {
                (a * lb[j], a * ub[j])
            } else {
                (a * ub[j], a * lb[j])
            };
            let act = activity(terms, lb, ub).with_point(contrib_min, contrib_max, a * v);
            let bad = match op {
                ConstraintOp::Le => act.min() > rhs + 1e-7,
                ConstraintOp::Ge => act.max() < rhs - 1e-7,
                ConstraintOp::Eq => act.min() > rhs + 1e-7 || act.max() < rhs - 1e-7,
            };
            if bad {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sense, VarId};
    use crate::solution::SolveStatus;

    /// The fixpoint as a full sweep — every live row examined on every
    /// pass — kept as the oracle the worklist fixpoint must reproduce.
    fn full_sweep(model: &Model, rows: &[Vec<(usize, f64)>]) -> (Vec<f64>, Vec<f64>, PostSolve) {
        let nv = model.num_vars();
        let nc = model.num_cons();
        let mut lb: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
        let mut ub: Vec<f64> = model.vars.iter().map(|v| v.ub).collect();
        let integer = |j: usize| model.vars[j].integer;
        let mut infeasible = false;
        let mut free = vec![false; nc];
        // A row's live terms, refilled row by row.
        let mut live: Vec<(usize, f64)> = Vec::new();

        // Round integer bounds inward immediately.
        for j in 0..nv {
            if integer(j) {
                if lb[j].is_finite() {
                    lb[j] = round_if_close(lb[j]).ceil();
                }
                if ub[j].is_finite() {
                    ub[j] = round_if_close(ub[j]).floor();
                }
            }
        }

        let mut changed = true;
        let mut passes = 0usize;
        'outer: while changed && !infeasible && passes < MAX_PASSES {
            changed = false;
            passes += 1;

            for j in 0..nv {
                if lb[j] > ub[j] + EPS {
                    infeasible = true;
                    break 'outer;
                }
            }

            for ((terms, c), is_free) in rows.iter().zip(&model.cons).zip(free.iter_mut()) {
                if *is_free {
                    continue;
                }
                // Split terms into fixed contributions (folded into the rhs of
                // the *analysis* row) and live terms.
                live.clear();
                live.extend(
                    terms
                        .iter()
                        .filter(|&&(j, _)| (ub[j] - lb[j]).abs() > EPS)
                        .copied(),
                );
                let fixed_sum: f64 = terms
                    .iter()
                    .filter(|&&(j, _)| (ub[j] - lb[j]).abs() <= EPS)
                    .map(|&(j, a)| a * lb[j])
                    .sum();
                let rhs = c.rhs - fixed_sum;

                // Empty row: everything fixed — check and free.
                if live.is_empty() {
                    let ok = match c.op {
                        ConstraintOp::Le => 0.0 <= rhs + 1e-7,
                        ConstraintOp::Ge => 0.0 >= rhs - 1e-7,
                        ConstraintOp::Eq => rhs.abs() <= 1e-7,
                    };
                    if !ok {
                        infeasible = true;
                        break 'outer;
                    }
                    *is_free = true;
                    changed = true;
                    continue;
                }

                // Singleton row: fold into the variable's bounds and free.
                if live.len() == 1 {
                    let (j, a) = live[0];
                    if a.abs() < EPS {
                        continue;
                    }
                    let bound = rhs / a;
                    match (c.op, a > 0.0) {
                        (ConstraintOp::Eq, _) => {
                            let v = if integer(j) { bound.round() } else { bound };
                            if integer(j) && (bound - bound.round()).abs() > 1e-6 {
                                infeasible = true;
                                break 'outer;
                            }
                            if v < lb[j] - 1e-7 || v > ub[j] + 1e-7 {
                                infeasible = true;
                                break 'outer;
                            }
                            lb[j] = v;
                            ub[j] = v;
                        }
                        (ConstraintOp::Le, true) | (ConstraintOp::Ge, false) => {
                            let mut new_ub = bound;
                            if integer(j) {
                                new_ub = (new_ub + 1e-9).floor();
                            }
                            if new_ub < ub[j] {
                                ub[j] = new_ub;
                            }
                        }
                        (ConstraintOp::Ge, true) | (ConstraintOp::Le, false) => {
                            let mut new_lb = bound;
                            if integer(j) {
                                new_lb = (new_lb - 1e-9).ceil();
                            }
                            if new_lb > lb[j] {
                                lb[j] = new_lb;
                            }
                        }
                    }
                    if lb[j] > ub[j] + EPS {
                        infeasible = true;
                        break 'outer;
                    }
                    *is_free = true;
                    changed = true;
                    continue;
                }

                // Activity analysis over the live terms.
                let act = activity(&live, &lb, &ub);
                let (amin, amax) = (act.min(), act.max());

                // Infeasibility by activity.
                let bad = match c.op {
                    ConstraintOp::Le => amin > rhs + 1e-7,
                    ConstraintOp::Ge => amax < rhs - 1e-7,
                    ConstraintOp::Eq => amin > rhs + 1e-7 || amax < rhs - 1e-7,
                };
                if bad {
                    infeasible = true;
                    break 'outer;
                }

                // Redundancy: the row can never be violated under the bounds.
                let redundant = match c.op {
                    ConstraintOp::Le => amax <= rhs + 1e-9,
                    ConstraintOp::Ge => amin >= rhs - 1e-9,
                    ConstraintOp::Eq => (amax - rhs).abs() <= 1e-9 && (amin - rhs).abs() <= 1e-9,
                };
                if redundant {
                    *is_free = true;
                    changed = true;
                    continue;
                }

                // Forcing: the activity range only touches the rhs at one
                // extreme — every live variable is forced to the bound achieving
                // that extreme.
                let forcing_at_min = matches!(c.op, ConstraintOp::Le | ConstraintOp::Eq)
                    && amin.is_finite()
                    && (amin - rhs).abs() <= 1e-9;
                let forcing_at_max = matches!(c.op, ConstraintOp::Ge | ConstraintOp::Eq)
                    && amax.is_finite()
                    && (amax - rhs).abs() <= 1e-9;
                if forcing_at_min || forcing_at_max {
                    for &(j, a) in &live {
                        let at_lower = (a > 0.0) == forcing_at_min;
                        if at_lower {
                            ub[j] = lb[j];
                        } else {
                            lb[j] = ub[j];
                        }
                    }
                    *is_free = true;
                    changed = true;
                    continue;
                }

                // Implied bounds: for `sum a_j x_j <= rhs`, each x_j is bounded by
                // the residual slack the other terms leave. `>=` rows are the
                // mirrored case; `==` rows tighten from both sides.
                let tighten_le = matches!(c.op, ConstraintOp::Le | ConstraintOp::Eq);
                let tighten_ge = matches!(c.op, ConstraintOp::Ge | ConstraintOp::Eq);
                for &(j, a) in &live {
                    match tighten_from_row(
                        j,
                        a,
                        rhs,
                        &act,
                        tighten_le,
                        tighten_ge,
                        integer(j),
                        &mut lb,
                        &mut ub,
                    ) {
                        None => {
                            infeasible = true;
                            break 'outer;
                        }
                        Some(ch) => changed |= ch,
                    }
                }
            }
        }

        // Snap near-equal bounds exactly together so fixed columns are pinned by
        // bit-identical `lb == ub` (the simplex's zero-range test).
        let mut fixed: Vec<Option<f64>> = vec![None; nv];
        let mut cols_fixed = 0usize;
        if !infeasible {
            for j in 0..nv {
                if lb[j].is_finite() && ub[j].is_finite() && (ub[j] - lb[j]).abs() <= EPS {
                    let v = if integer(j) { lb[j].round() } else { lb[j] };
                    lb[j] = v;
                    ub[j] = v;
                    fixed[j] = Some(v);
                    cols_fixed += 1;
                }
            }
        }

        let rows_freed = free.iter().filter(|f| **f).count();
        let post = PostSolve {
            fixed,
            free_rows: free,
            infeasible,
            cols_fixed,
            rows_freed,
            original_vars: nv,
            original_cons: nc,
        };
        (lb, ub, post)
    }

    /// A random model built to reach every rule of the fixpoint: duplicate
    /// terms, singleton, empty, redundant and forcing rows, implied bounds
    /// that cascade along the rows, integer rounding, infinite and fixed
    /// bounds, and infeasible instances.
    fn random_presolve_model(rng: &mut teccl_util::Rng64) -> Model {
        const COEF: [f64; 7] = [1.0, -1.0, 2.0, -2.0, 0.5, 3.0, -0.25];
        let mut m = Model::new(Sense::Minimize);
        let nv = 1 + rng.gen_range_usize(10);
        let mut point = Vec::with_capacity(nv);
        for j in 0..nv {
            let lb = match rng.gen_range_usize(5) {
                0 => f64::NEG_INFINITY,
                1 => -(rng.gen_range_usize(6) as f64),
                2 => rng.gen_range_f64(-4.0, 2.0),
                _ => 0.0,
            };
            let base = if lb.is_finite() { lb } else { -3.0 };
            let ub = match rng.gen_range_usize(6) {
                0 => f64::INFINITY,
                1 => base,
                2 => base + rng.gen_range_f64(0.0, 8.0),
                _ => base + rng.gen_range_usize(6) as f64,
            };
            let var = m.add_var(format!("x{j}"), lb, ub, 1.0, rng.gen_range_usize(5) < 2);
            let hi = if ub.is_finite() { ub } else { base + 5.0 };
            point.push((var, base + rng.gen_f64() * (hi - base)));
        }
        for i in 0..1 + rng.gen_range_usize(8) {
            let terms: Vec<(VarId, f64)> = (0..1 + rng.gen_range_usize(4))
                .map(|_| {
                    let a = if rng.gen_range_usize(4) == 0 {
                        rng.gen_range_f64(-3.0, 3.0)
                    } else {
                        COEF[rng.gen_range_usize(COEF.len())]
                    };
                    (point[rng.gen_range_usize(nv)].0, a)
                })
                .collect();
            let at: f64 = terms.iter().map(|&(v, a)| a * point[v.0].1).sum();
            let rhs = match rng.gen_range_usize(4) {
                0 => at,
                1 => at.round(),
                2 => at + rng.gen_range_f64(-2.0, 2.0),
                _ => rng.gen_range_usize(5) as f64,
            };
            let op = [ConstraintOp::Le, ConstraintOp::Ge, ConstraintOp::Eq][rng.gen_range_usize(3)];
            m.add_cons(format!("c{i}"), &terms, op, rhs);
        }
        m
    }

    /// Each constraint's terms merged as the presolve did before it read
    /// them off the standard form's row-major matrix, verbatim: duplicates
    /// summed from 0.0 in term order, zero sums dropped, by column. The
    /// layout's rows must equal it to the bit.
    fn merge_rows_reference(model: &Model) -> Vec<Vec<(usize, f64)>> {
        let mut sorted: Vec<(usize, f64)> = Vec::new();
        model
            .cons
            .iter()
            .map(|c| {
                sorted.clear();
                sorted.extend(c.terms.iter().map(|&(vid, coef)| (vid.0, coef)));
                sorted.sort_by_key(|&(j, _)| j);
                sorted
                    .chunk_by(|a, b| a.0 == b.0)
                    .map(|run| (run[0].0, run.iter().fold(0.0, |sum, &(_, coef)| sum + coef)))
                    .filter(|(_, c)| c.abs() > 0.0)
                    .collect()
            })
            .collect()
    }

    /// A round of `model` as the A\* loop writes one over a reused layout:
    /// the same terms, with new bounds (some pinned), right-hand sides and
    /// costs.
    fn rewrite_round(model: &mut Model, rng: &mut teccl_util::Rng64) {
        for var in &mut model.vars {
            if rng.gen_bool(0.5) {
                let lb = [0.0, -1.0, var.lb][rng.gen_range_usize(3)];
                let ub = match rng.gen_range_usize(4) {
                    0 => lb,
                    1 => f64::INFINITY,
                    _ => lb + rng.gen_range_usize(4) as f64,
                };
                (var.lb, var.ub) = (lb, ub);
            }
            if rng.gen_bool(0.5) {
                var.obj = rng.gen_range_f64(-1.0, 1.0);
            }
        }
        for cons in &mut model.cons {
            if rng.gen_bool(0.5) {
                cons.rhs += rng.gen_range_usize(3) as f64 - 1.0;
            }
        }
    }

    /// Runs the worklist fixpoint against [`full_sweep`] on `cases` random
    /// models, each also re-presolved over its own layout after a
    /// [`rewrite_round`]: the same bounds to the bit, the same freed rows
    /// and the same counters. Every fourth model gains a zero term and a
    /// pair of terms that cancel, which the merged rows drop.
    fn assert_worklist_matches_full_sweep(seed: u64, cases: usize) {
        let mut rng = teccl_util::Rng64::seed_from_u64(seed);
        let (mut infeasible, mut freed, mut fixed) = (0usize, 0usize, 0usize);
        for case in 0..cases {
            let mut m = random_presolve_model(&mut rng);
            if rng.gen_range_usize(4) == 0 {
                let (i, v) = (
                    rng.gen_range_usize(m.num_cons()),
                    VarId(rng.gen_range_usize(m.num_vars())),
                );
                let a = rng.gen_range_f64(-3.0, 3.0);
                m.cons[i].terms.extend([(v, 0.0), (v, a), (v, -a)]);
            }
            let layout = MilpLayout::new(&m);
            let mut round = m.clone();
            rewrite_round(&mut round, &mut rng);
            assert_layout_fixpoint_matches_full_sweep(&round, &layout, case);
            let post = assert_layout_fixpoint_matches_full_sweep(&m, &layout, case);
            infeasible += usize::from(post.infeasible);
            freed += usize::from(!post.infeasible && post.rows_freed > 0);
            fixed += usize::from(!post.infeasible && post.cols_fixed > 0);
        }
        // The corpus reaches the infeasible exit and both reductions.
        for (what, n) in [
            ("infeasible", infeasible),
            ("freed", freed),
            ("fixed", fixed),
        ] {
            assert!(n * 20 > cases, "only {n} of {cases} models {what}");
        }
    }

    /// The fixpoint over `layout` (built from a model with `m`'s terms)
    /// against [`full_sweep`] over [`merge_rows_reference`]; returns the
    /// fixpoint's [`PostSolve`].
    fn assert_layout_fixpoint_matches_full_sweep(
        m: &Model,
        layout: &MilpLayout,
        case: usize,
    ) -> PostSolve {
        let rows = merge_rows_reference(m);
        let row_bits = |row: &[(usize, f64)]| {
            row.iter()
                .map(|&(j, a)| (j, a.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            layout.rows.iter().map(row_bits).collect::<Vec<_>>(),
            rows.iter().map(|r| row_bits(r)).collect::<Vec<_>>(),
            "case {case}: merged rows"
        );
        let (lb, ub, post) = fixpoint(m, &layout.rows, &layout.cols, None).unwrap();
        let (want_lb, want_ub, want) = full_sweep(m, &rows);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lb), bits(&want_lb), "case {case}: lower bounds");
        assert_eq!(bits(&ub), bits(&want_ub), "case {case}: upper bounds");
        assert_eq!(post.free_rows, want.free_rows, "case {case}: freed rows");
        let fixings = |p: &PostSolve| {
            p.fixed
                .iter()
                .map(|f| f.map(f64::to_bits))
                .collect::<Vec<_>>()
        };
        assert_eq!(fixings(&post), fixings(&want), "case {case}: fixings");
        assert_eq!(
            (
                post.infeasible,
                post.cols_fixed,
                post.rows_freed,
                post.original_vars,
                post.original_cons
            ),
            (
                want.infeasible,
                want.cols_fixed,
                want.rows_freed,
                want.original_vars,
                want.original_cons
            ),
            "case {case}: counters"
        );
        post
    }

    #[test]
    fn worklist_fixpoint_matches_the_full_sweep() {
        assert_worklist_matches_full_sweep(0x0f1c_5eed, 20_000);
    }

    #[test]
    #[ignore = "release-size"]
    fn worklist_fixpoint_matches_the_full_sweep_release_size() {
        assert_worklist_matches_full_sweep(0x5eed_0f1c, 300_000);
    }

    #[test]
    fn fixed_variables_are_pinned_not_removed() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 2.0, 2.0, 3.0, false);
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0);
        let (red, post) = presolve(&m).unwrap();
        // Layout preserved: same shape as the input.
        assert_eq!(red.num_vars(), 2);
        assert_eq!(red.num_cons(), 1);
        // After substituting x=2 the row is the singleton `y <= 3`, folded
        // into y's upper bound; the row is freed, not removed.
        assert_eq!(red.vars[y.0].ub, 3.0);
        assert!(post.free_rows[0]);
        assert_eq!(post.fixed[x.0], Some(2.0));
        assert!(post.fixed[y.0].is_none());
        assert_eq!(post.cols_fixed, 1);
        assert_eq!(post.rows_freed, 1);
    }

    #[test]
    fn singleton_eq_row_fixes_variable() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 1.0);
        let y = m.add_nonneg_var("y", 1.0);
        m.add_cons("fix", &[(x, 2.0)], ConstraintOp::Eq, 6.0);
        m.add_cons("link", &[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 5.0);
        let (red, post) = presolve(&m).unwrap();
        assert_eq!(post.fixed[x.0], Some(3.0));
        assert_eq!(red.num_vars(), 2);
        // link became y >= 2, folded into y's lower bound; both rows freed.
        assert_eq!(red.vars[y.0].lb, 2.0);
        assert_eq!(post.rows_freed, 2);
    }

    #[test]
    fn empty_infeasible_row_detected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 1.0, 1.0, 0.0, false);
        m.add_cons("bad", &[(x, 1.0)], ConstraintOp::Ge, 5.0);
        let (_, post) = presolve(&m).unwrap();
        assert!(post.infeasible);
        assert!(post.trivial_outcome().unwrap().status == SolveStatus::Infeasible);
    }

    #[test]
    fn integer_bound_rounding() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_cons("c", &[(x, 2.0)], ConstraintOp::Le, 7.0);
        let (red, post) = presolve(&m).unwrap();
        // 2x <= 7 → x <= 3.5 → x <= 3 for integer x.
        assert!(!post.infeasible);
        assert_eq!(red.vars[0].ub, 3.0);
    }

    #[test]
    fn redundant_row_is_freed() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 2.0, 1.0, false);
        let y = m.add_var("y", 0.0, 3.0, 1.0, false);
        // x + y <= 10 can never bind under the bounds.
        m.add_cons("slack", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        // x + y <= 4 can bind: must stay active.
        m.add_cons("tight", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        let (_, post) = presolve(&m).unwrap();
        assert!(post.free_rows[0]);
        assert!(!post.free_rows[1]);
        assert_eq!(post.rows_freed, 1);
    }

    #[test]
    fn forcing_row_fixes_participants() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 2.0, 1.0, false);
        let y = m.add_var("y", 0.0, 3.0, 1.0, false);
        // x + y >= 5 forces x = 2 and y = 3 (the activity maximum).
        m.add_cons("force", &[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 5.0);
        let (red, post) = presolve(&m).unwrap();
        assert!(!post.infeasible);
        assert_eq!(post.fixed[x.0], Some(2.0));
        assert_eq!(post.fixed[y.0], Some(3.0));
        assert!(post.free_rows[0]);
        assert_eq!(red.vars[x.0].lb, 2.0);
        assert_eq!(red.vars[x.0].ub, 2.0);
    }

    #[test]
    fn implied_bounds_tighten_from_row_activity() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 100.0, 1.0, false);
        let y = m.add_var("y", 1.0, 3.0, 1.0, false);
        // x + y <= 10 with y >= 1 implies x <= 9.
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        let (red, post) = presolve(&m).unwrap();
        assert!(!post.infeasible);
        assert!((red.vars[x.0].ub - 9.0).abs() < 1e-9);
    }

    #[test]
    fn fully_fixed_model_solves_through_simplex() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 4.0, 4.0, 2.0, false);
        m.add_cons("c", &[(x, 1.0)], ConstraintOp::Le, 5.0);
        let (red, post) = presolve(&m).unwrap();
        assert_eq!(red.num_vars(), 1);
        assert!(post.free_rows[0]);
        // No trivial shortcut any more: the (trivial) solve runs and recover
        // substitutes the exact fixed value.
        let sol = m.solve_lp_relaxation_budgeted(None, None).unwrap();
        assert_eq!(sol.values, vec![4.0]);
        assert_eq!(sol.objective, 8.0);
        assert_eq!(sol.stats.cols_fixed, 1);
        assert_eq!(sol.stats.rows_freed, 1);
    }

    #[test]
    fn recover_maps_values_back() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 1.0, 1.0, 1.0, false);
        let y = m.add_var("y", 0.0, 5.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        let (red, post) = presolve(&m).unwrap();
        let sol = red.solve_lp_relaxation_budgeted(None, None).unwrap();
        let rec = post.recover(sol, &m);
        assert_eq!(rec.values[x.0], 1.0);
        assert!((rec.values[y.0] - 3.0).abs() < 1e-6);
        assert!((rec.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_singleton_eq_for_integer() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_cons("frac", &[(x, 2.0)], ConstraintOp::Eq, 3.0);
        let (_, post) = presolve(&m).unwrap();
        assert!(post.infeasible);
    }

    #[test]
    fn conflicting_singletons_detected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 1.0);
        m.add_cons("a", &[(x, 1.0)], ConstraintOp::Ge, 5.0);
        m.add_cons("b", &[(x, 1.0)], ConstraintOp::Le, 2.0);
        let (_, post) = presolve(&m).unwrap();
        assert!(post.infeasible);
    }

    #[test]
    fn layout_identical_with_and_without_presolve() {
        // The acceptance property of the whole refactor: the standard form
        // built from the presolved model has the same matrix as the one built
        // from the raw model — only bounds differ.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 2.0, 2.0, 3.0, false);
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        let z = m.add_var("z", 0.0, 1.0, 0.5, true);
        m.add_cons("c1", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0);
        m.add_cons("c2", &[(y, 1.0), (z, 2.0)], ConstraintOp::Ge, 0.0);
        let raw = StandardForm::from_model(&m);
        let (red, post) = presolve(&m).unwrap();
        let mut pre = StandardForm::from_model(&red);
        post.relax_free_rows(&mut pre);
        assert_eq!(raw.num_rows(), pre.num_rows());
        assert_eq!(raw.num_cols(), pre.num_cols());
        for j in 0..raw.num_cols() {
            assert_eq!(raw.a.col(j).indices, pre.a.col(j).indices);
            assert_eq!(raw.a.col(j).values, pre.a.col(j).values);
        }
        assert_eq!(raw.b, pre.b);
        assert_eq!(raw.c, pre.c);
    }
}

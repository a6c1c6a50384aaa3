//! Conversion of a [`Model`] into the computational standard form used by the
//! bounded-variable simplex:
//!
//! ```text
//! minimize    c' x
//! subject to  A x = b
//!             l <= x <= u
//! ```
//!
//! Every constraint receives a slack column: `<=` gets a slack in `[0, +inf)`,
//! `>=` gets a slack in `(-inf, 0]`, and `==` gets a slack fixed to `[0, 0]`.
//! Maximization objectives are negated (and the sign restored when reporting).

use std::sync::Arc;

use crate::model::{ConstraintOp, Model, Sense};
use crate::sparse::{RowMajor, SparseMatrix};

/// A model in computational standard form.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Constraint matrix (m rows, n columns = structural + slack). Shared:
    /// every solve over one [`crate::MilpLayout`] points at the same matrix.
    pub a: Arc<SparseMatrix>,
    /// Row-major copy of `a`, built once with it and shared by every solve of
    /// the form — B&B nodes, warm re-solves, both simplex methods gather
    /// their pivot rows from it.
    pub rows: Arc<RowMajor>,
    /// Right-hand side (length m).
    pub b: Vec<f64>,
    /// Minimization objective (length n).
    pub c: Vec<f64>,
    /// Lower bounds (length n).
    pub lb: Vec<f64>,
    /// Upper bounds (length n).
    pub ub: Vec<f64>,
    /// Number of structural (original model) columns; columns `>=` this index
    /// are slacks, in constraint order.
    pub num_structural: usize,
    /// `-1.0` if the original model maximizes (objective was negated), else `1.0`.
    pub obj_sign: f64,
}

impl StandardForm {
    /// Number of rows (constraints).
    pub fn num_rows(&self) -> usize {
        self.b.len()
    }

    /// Number of columns (structural + slack).
    pub fn num_cols(&self) -> usize {
        self.c.len()
    }

    /// Builds the standard form of a model.
    pub fn from_model(model: &Model) -> Self {
        let (a, rows) = matrix(model);
        let lb = model.vars.iter().map(|v| v.lb).collect();
        let ub = model.vars.iter().map(|v| v.ub).collect();
        Self::over(Arc::new(a), Arc::new(rows), model, lb, ub)
    }

    /// The standard form of `model` over a matrix [`matrix`] built from a
    /// model with the same constraint terms: shares `a` and `rows` and fills
    /// the objective, bounds and right-hand side in O(n + m). `lb`/`ub` are
    /// the structural bounds; the slack bounds are appended to them.
    pub(crate) fn over(
        a: Arc<SparseMatrix>,
        rows: Arc<RowMajor>,
        model: &Model,
        mut lb: Vec<f64>,
        mut ub: Vec<f64>,
    ) -> Self {
        let m = model.cons.len();
        let n_struct = model.vars.len();
        let obj_sign = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };

        let mut c = Vec::with_capacity(n_struct + m);
        c.extend(model.vars.iter().map(|var| obj_sign * var.obj));
        c.resize(n_struct + m, 0.0);

        // Slack bounds, one per constraint.
        lb.reserve(m);
        ub.reserve(m);
        let mut b = Vec::with_capacity(m);
        for cons in &model.cons {
            let (slb, sub) = match cons.op {
                ConstraintOp::Le => (0.0, f64::INFINITY),
                ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintOp::Eq => (0.0, 0.0),
            };
            lb.push(slb);
            ub.push(sub);
            b.push(cons.rhs);
        }

        StandardForm {
            a,
            rows,
            b,
            c,
            lb,
            ub,
            num_structural: n_struct,
            obj_sign,
        }
    }

    /// Converts an objective value of the (minimization) standard form back
    /// into the original model's sense.
    pub fn original_objective(&self, min_value: f64) -> f64 {
        self.obj_sign * min_value
    }
}

/// The constraint matrix of `model` with one slack column per constraint,
/// and its row-major copy: the part of the standard form that only the
/// constraint terms decide.
pub(crate) fn matrix(model: &Model) -> (SparseMatrix, RowMajor) {
    let m = model.cons.len();
    let n_struct = model.vars.len();
    // One triplet pass over the constraints covers the structural columns
    // and the per-constraint slack columns (column `n_struct + row`).
    let nnz: usize = model.cons.iter().map(|c| c.terms.len()).sum();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(nnz + m);
    for (row, cons) in model.cons.iter().enumerate() {
        for (vid, coef) in &cons.terms {
            if *coef != 0.0 {
                triplets.push((row, vid.0, *coef));
            }
        }
        triplets.push((row, n_struct + row, 1.0));
    }
    let a = SparseMatrix::from_triplets(m, n_struct + m, &triplets);
    let rows = RowMajor::from_columns(&a);
    (a, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    fn sample_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 3.0, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0, false);
        m.add_cons("le", &[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 14.0);
        m.add_cons("ge", &[(x, 3.0), (y, -1.0)], ConstraintOp::Ge, 0.0);
        m.add_cons("eq", &[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 6.0);
        m
    }

    #[test]
    fn dimensions_and_slack_bounds() {
        let sf = StandardForm::from_model(&sample_model());
        assert_eq!(sf.num_rows(), 3);
        assert_eq!(sf.num_cols(), 2 + 3);
        assert_eq!(sf.num_structural, 2);
        // Slack bounds by constraint type.
        assert_eq!((sf.lb[2], sf.ub[2]), (0.0, f64::INFINITY)); // <=
        assert_eq!(sf.lb[3], f64::NEG_INFINITY); // >=
        assert_eq!(sf.ub[3], 0.0);
        assert_eq!((sf.lb[4], sf.ub[4]), (0.0, 0.0)); // ==
    }

    #[test]
    fn maximization_negates_objective() {
        let sf = StandardForm::from_model(&sample_model());
        assert_eq!(sf.obj_sign, -1.0);
        assert_eq!(sf.c[0], -3.0);
        assert_eq!(sf.c[1], -2.0);
        assert_eq!(sf.original_objective(-10.0), 10.0);
    }

    #[test]
    fn matrix_columns_match_constraints() {
        let sf = StandardForm::from_model(&sample_model());
        // Column for x appears in rows 0, 1, 2 with coefficients 1, 3, 1.
        let col_x = sf.a.col(0);
        assert_eq!(col_x.indices, vec![0, 1, 2]);
        assert_eq!(col_x.values, vec![1.0, 3.0, 1.0]);
        // Column for y: rows 0, 1, 2 with 2, -1, 1.
        let col_y = sf.a.col(1);
        assert_eq!(col_y.values, vec![2.0, -1.0, 1.0]);
        // Slack columns are unit columns.
        for (k, row) in (2..5).zip(0..3) {
            assert_eq!(sf.a.col(k).indices, vec![row]);
            assert_eq!(sf.a.col(k).values, vec![1.0]);
        }
        assert_eq!(sf.b, vec![14.0, 0.0, 6.0]);
        // The row-major copy holds the same entries: row 1 is 3x − y + slack.
        assert_eq!(
            sf.rows.row(1).collect::<Vec<_>>(),
            vec![(0, 3.0), (1, -1.0), (3, 1.0)]
        );
    }

    #[test]
    fn minimize_keeps_sign() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 5.0);
        m.add_cons("c", &[(x, 1.0)], ConstraintOp::Ge, 1.0);
        let sf = StandardForm::from_model(&m);
        assert_eq!(sf.obj_sign, 1.0);
        assert_eq!(sf.c[0], 5.0);
        assert_eq!(sf.original_objective(5.0), 5.0);
    }

    #[test]
    fn duplicate_terms_in_constraint_are_summed() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 1.0);
        m.add_cons("c", &[(x, 1.0), (x, 2.0)], ConstraintOp::Le, 5.0);
        let sf = StandardForm::from_model(&m);
        assert_eq!(sf.a.col(0).values, vec![3.0]);
    }
}

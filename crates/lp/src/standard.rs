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
use crate::sparse::{RowMajor, SparseMatrix, SparseVec};

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
///
/// Each column is filled in place, sized by a first counting pass. Rows are
/// visited in order, so a column's entries arrive by ascending row and a
/// row's duplicate terms arrive together: each is summed onto the entry
/// before it in term order, and a sum that cancels to zero is dropped — the
/// matrix [`SparseMatrix::from_triplets`] builds from the same terms.
pub(crate) fn matrix(model: &Model) -> (SparseMatrix, RowMajor) {
    let m = model.cons.len();
    let n_struct = model.vars.len();
    let mut count = vec![1usize; n_struct + m];
    count[..n_struct].fill(0);
    for cons in &model.cons {
        for &(vid, coef) in &cons.terms {
            count[vid.0] += usize::from(coef != 0.0);
        }
    }
    let mut cols: Vec<SparseVec> = count
        .iter()
        .map(|&k| SparseVec {
            indices: Vec::with_capacity(k),
            values: Vec::with_capacity(k),
        })
        .collect();
    let mut cancelled = false;
    for (row, cons) in model.cons.iter().enumerate() {
        for &(vid, coef) in &cons.terms {
            if coef == 0.0 {
                continue;
            }
            let col = &mut cols[vid.0];
            match (col.indices.last(), col.values.last_mut()) {
                (Some(&last), Some(sum)) if last == row => {
                    *sum += coef;
                    cancelled |= *sum == 0.0;
                }
                _ => {
                    col.indices.push(row);
                    col.values.push(coef);
                }
            }
        }
        cols[n_struct + row].indices.push(row);
        cols[n_struct + row].values.push(1.0);
    }
    if cancelled {
        for col in &mut cols[..n_struct] {
            if col.values.contains(&0.0) {
                *col = SparseVec::from_vec(col.iter().filter(|&(_, v)| v != 0.0).collect());
            }
        }
    }
    let a = SparseMatrix { rows: m, cols };
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
    fn matrix_equals_the_triplet_build() {
        // Duplicate terms (three of a kind included), zero terms and pairs
        // that cancel: the in-place columns against the triplet build,
        // bit for bit.
        let mut rng = teccl_util::Rng64::seed_from_u64(0x51);
        for case in 0..500 {
            let mut m = Model::new(Sense::Minimize);
            let nv = 1 + rng.gen_range_usize(12);
            let xs: Vec<_> = (0..nv)
                .map(|j| m.add_nonneg_var(format!("x{j}"), 1.0))
                .collect();
            for i in 0..1 + rng.gen_range_usize(10) {
                let mut terms = Vec::new();
                for _ in 0..rng.gen_range_usize(6) {
                    let v = xs[rng.gen_range_usize(nv)];
                    let a = [0.0, 1.0, -1.0, 0.1, 0.2, -0.3][rng.gen_range_usize(6)];
                    terms.push((v, a));
                    if rng.gen_bool(0.2) {
                        terms.push((v, -a));
                    }
                }
                m.add_cons(format!("c{i}"), &terms, ConstraintOp::Le, 1.0);
            }
            let (a, rows) = matrix(&m);
            let mut triplets = Vec::new();
            for (row, cons) in m.cons.iter().enumerate() {
                for &(vid, coef) in &cons.terms {
                    if coef != 0.0 {
                        triplets.push((row, vid.0, coef));
                    }
                }
                triplets.push((row, nv + row, 1.0));
            }
            let want = SparseMatrix::from_triplets(m.cons.len(), nv + m.cons.len(), &triplets);
            let bits = |mat: &SparseMatrix| {
                mat.cols
                    .iter()
                    .map(|c| {
                        (
                            c.indices.clone(),
                            c.values.iter().map(|v| v.to_bits()).collect(),
                        )
                    })
                    .collect::<Vec<(Vec<usize>, Vec<u64>)>>()
            };
            assert_eq!(bits(&a), bits(&want), "case {case}");
            let want_rows = RowMajor::from_columns(&want);
            for i in 0..m.cons.len() {
                assert!(rows.row(i).eq(want_rows.row(i)), "case {case} row {i}");
            }
        }
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

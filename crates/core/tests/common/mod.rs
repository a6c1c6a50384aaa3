//! Helpers the model tests share: the bit hash the pins record and the
//! raw-standard-form certificate of an LP optimum.

// Each test file compiles its own copy of this module and uses only part of
// it.
#![allow(dead_code)]

use teccl_lp::{solve_standard_form_budgeted, ConstraintOp, Model, SolveStatus, StandardForm};
use teccl_util::StableHasher;

/// Every bit of `model` the solver reads: bounds, costs, integrality, row
/// operators, right-hand sides and terms.
pub fn model_hash(model: &Model) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(model.vars.len());
    for v in &model.vars {
        h.write_f64_bits(v.lb)
            .write_f64_bits(v.ub)
            .write_f64_bits(v.obj)
            .write_u64(v.integer as u64);
    }
    h.write_usize(model.cons.len());
    for c in &model.cons {
        let op = match c.op {
            ConstraintOp::Le => 0,
            ConstraintOp::Ge => 1,
            ConstraintOp::Eq => 2,
        };
        h.write_u64(op).write_f64_bits(c.rhs);
        h.write_usize(c.terms.len());
        for &(var, coef) in &c.terms {
            h.write_usize(var.index()).write_f64_bits(coef);
        }
    }
    h.finish()
}

/// Solves the LP relaxation of `model` cold on its raw standard form (no
/// presolve) and checks the optimum with `Model::certify`, which shares no
/// code with the simplex. Panics, naming `what`, when the solve is not
/// optimal or the certificate fails.
pub fn assert_raw_optimum_certifies(what: &str, model: &Model) {
    let sf = StandardForm::from_model(model);
    let sol = solve_standard_form_budgeted(&sf, model.num_vars(), &[], None, None)
        .unwrap_or_else(|e| panic!("{what}: raw solve: {e}"));
    assert_eq!(sol.status, SolveStatus::Optimal, "{what}: raw solve");
    model
        .certify(&sol)
        .unwrap_or_else(|e| panic!("{what}: certify on the raw path: {e}"));
}

#![forbid(unsafe_code)]
//! # teccl-lp
//!
//! A self-contained linear-programming (LP) and mixed-integer linear-programming
//! (MILP) solver used as the optimization substrate for TE-CCL.
//!
//! The TE-CCL paper solves its formulations with Gurobi. No mature pure-Rust
//! LP/MILP solver exists in the offline crate set, so this crate implements the
//! pieces the paper's formulations need from scratch:
//!
//! * a **model builder** ([`Model`]) with bounded continuous and integer
//!   variables, linear constraints (`<=`, `>=`, `==`) and a linear objective,
//! * a **layout-preserving presolver** ([`presolve`]) that pins fixed
//!   variables by `lb == ub` bounds and frees redundant/forcing/singleton
//!   rows by relaxing their slacks — the column space is identical with
//!   presolve on or off, so any basis warm-starts any same-shaped solve
//!   (TE-CCL models contain many structurally-forced-zero flow variables
//!   near the time boundaries, so the reductions matter a lot); a
//!   [`MilpLayout`] holds what only the constraint terms decide, so a
//!   sequence of same-shaped solves merges its rows and builds its matrix
//!   once,
//! * a **two-phase bounded-variable revised simplex** ([`simplex`]) on a sparse
//!   LU-factorized basis with eta updates and Markowitz-tie-broken pivoting
//!   ([`basis`]), a crash slack basis, projected steepest-edge pricing, an
//!   EXPAND anti-cycling ratio test, and **warm starts** from a prior basis
//!   (the `warm` argument of [`solve_standard_form_budgeted`]) re-optimized
//!   by a dual simplex,
//! * a **branch-and-bound MILP solver** ([`milp`]) with a rounding heuristic,
//!   relative-gap early stop (the paper's "early stop at 30%" mode), a time
//!   limit (the paper's 2-hour Gurobi timeout), **hot node re-solves** (each
//!   child starts from its parent's optimal basis instead of a cold
//!   all-artificial phase 1), and **per-node presolve** (bound propagation
//!   plus light probing feeding the dual re-solve's override list).
//!
//! The solver is deterministic and single-threaded: the same model always
//! produces the same solution, mirroring the reliability claim TE-CCL makes
//! versus TACCL. Parallelism lives one level up, in the schedule service's
//! worker pool, which runs independent solves side by side.
//!
//! ## Quick example
//!
//! ```
//! use teccl_lp::{Model, Sense, ConstraintOp, SolveStatus};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2, y <= 3, x,y >= 0
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 3.0, false);
//! let y = m.add_var("y", 0.0, f64::INFINITY, 2.0, false);
//! m.add_cons("cap", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
//! m.add_cons("bx", &[(x, 1.0)], ConstraintOp::Le, 2.0);
//! m.add_cons("by", &[(y, 1.0)], ConstraintOp::Le, 3.0);
//! let sol = m.solve_lp_relaxation_budgeted(None, None).unwrap();
//! assert_eq!(sol.status, SolveStatus::Optimal);
//! assert!((sol.objective - 10.0).abs() < 1e-6);
//! ```

pub mod basis;
pub(crate) mod dual;
pub mod error;
pub mod milp;
pub mod model;
pub mod presolve;
pub mod simplex;
pub mod solution;
pub mod sparse;
pub mod standard;

pub use basis::{LuFactors, SimplexBasis, VarStatus};
pub use error::LpError;
pub use milp::MilpConfig;
pub use model::{ConstraintOp, Model, Sense, VarId};
pub use presolve::MilpLayout;
pub use simplex::solve_standard_form_budgeted;
pub use solution::{Solution, SolveStats, SolveStatus};
pub use sparse::{IndexedVec, RowMajor, SparseMatrix, SparseVec};
pub use standard::StandardForm;
pub use teccl_util::json::Value;
pub use teccl_util::{BudgetExceeded, SolveBudget};

/// Default feasibility / optimality tolerance used throughout the solver.
pub const TOL: f64 = 1e-7;

/// Tolerance used to decide whether a value is integral.
pub const INT_TOL: f64 = 1e-6;

#[cfg(test)]
mod thread_safety_tests {
    use super::*;
    use teccl_util::json;

    /// Compile-time assertion that everything the schedule service moves
    /// across worker threads is `Send` (+ `Sync` where it is shared by
    /// reference): solver inputs, solver state, and — the one that used to be
    /// blocked by an `Rc<SimplexBasis>` inside the branch-and-bound nodes —
    /// solver *results*.
    #[test]
    fn solver_types_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Model>();
        assert_sync::<Model>();
        assert_send::<StandardForm>();
        assert_sync::<StandardForm>();
        assert_send::<Solution>();
        assert_sync::<Solution>();
        assert_send::<SimplexBasis>();
        assert_sync::<SimplexBasis>();
        assert_send::<SolveStats>();
        assert_send::<LuFactors>();
    }

    #[test]
    fn basis_json_roundtrip() {
        use basis::VarStatus;
        let b = SimplexBasis {
            factors: None,
            basic: vec![3, 0, 7],
            status: vec![
                VarStatus::Basic,
                VarStatus::AtLower,
                VarStatus::AtUpper,
                VarStatus::Free,
            ],
        };
        let v = json::to_value(&b);
        let back: SimplexBasis = json::decode_text(&v.to_json(), SimplexBasis::decode).unwrap();
        assert_eq!(back, b);
        let decode = |text: &str| json::decode_text(text, SimplexBasis::decode);
        assert!(decode("{}").is_err());
        assert!(decode(r#"{"basic":[],"status":"X"}"#).is_err());
    }

    #[test]
    fn solution_exports_its_basis() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 3.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0)], ConstraintOp::Le, 2.0);
        let sol = m.solve_lp_relaxation_budgeted(None, None).unwrap();
        let v = json::to_value(sol.basis.as_ref().expect("LP solve returns a basis"));
        let back: SimplexBasis = json::decode_text(&v.to_json(), SimplexBasis::decode).unwrap();
        assert_eq!(Some(&back), sol.basis.as_ref());
    }
}

//! Bounded-variable revised simplex on a sparse LU basis: one start → dual
//! repair → certify ladder for cold and warm solves, over one pivot-loop
//! frame shared by the primal and the dual simplex.
//!
//! The basis is held as a sparse LU factorization with product-form (eta)
//! updates ([`crate::basis`], Gilbert–Peierls symbolic column solves): each
//! iteration performs one FTRAN (transformed entering column), one or two
//! BTRANs (the pivot row, plus `B⁻ᵀw` for the steepest-edge update), and an
//! `O(nnz)` eta append, with a **fill-aware refactorization** (the eta file is
//! folded back in when its accumulated non-zeros exceed a multiple of the
//! frozen factor size, not after a fixed pivot count). The solves exchange
//! [`IndexedVec`]s — values plus a non-zero list — so on the small A* and
//! B&B models, where `w`, `ρ` and `τ` hold a few dozen entries out of
//! thousands, the ratio test, the updates and the pivot row (`PivotRow`,
//! shared with the dual) cost what those entries cost; on the big ALLTOALL
//! forms the vectors come back marked dense and the loops walk `0..m` as
//! before.
//!
//! Pricing is **projected steepest edge** (Forrest & Goldfarb): reference
//! weights `γ_j ≈ 1 + ‖B⁻¹a_j‖²` start at 1 when a phase begins and are then
//! maintained *exactly* through every basis change, so the entering column
//! maximizes `d_j²/γ_j` — the best rate of objective change per unit of
//! *edge* length rather than per unit of the entering variable. Reduced costs
//! are maintained incrementally and recomputed at every refresh; optimality
//! is only ever declared after a scan over freshly recomputed reduced costs,
//! so correctness does not rest on the incremental updates. On numerical
//! trouble (a non-finite weight or step) the weights devex-reset to 1 and the
//! reduced costs are recomputed.
//!
//! The primal ratio test is **EXPAND-style** (Gill, Murray, Saunders &
//! Wright): a working feasibility tolerance grows by a tiny increment each
//! iteration, a Harris-style two-pass test picks the numerically largest
//! pivot among the rows blocking within the expanded tolerance, and every
//! pivot takes a strictly positive minimum step. Degenerate vertices therefore
//! cannot cycle and plateau traversal is fast; the accumulated bound drift is
//! bounded by the working tolerance and wiped at every periodic
//! refactorization (bound shifting with periodic reset). The minimum step is
//! the termination guarantee, so there is no Bland fallback any more — on the
//! big ALLTOALL LPs Bland's first-eligible pricing was the stall (1.45M of
//! 1.5M iterations before it was removed).
//!
//! **One ladder.** Every solve climbs the same rungs until one finishes
//! ([`solve_standard_form_budgeted`]); each rung is a start, a repair of
//! primal feasibility and the same certify step:
//!
//! 1. **Warm** — only when the caller passes a basis of the right shape
//!    (the `warm` argument; B&B children, A* rounds). The basis is
//!    refactorized under the new bounds. When every basic variable already
//!    sits inside its bounds there is nothing to repair; otherwise the dual
//!    repairs it.
//! 2. **Slack** — every row's slack basic at the row residual (`B = I`,
//!    always factorizable, artificials pinned at zero). The dual repairs the
//!    out-of-bounds slacks against the true (shifted) objective, so it exits
//!    next to the real optimum. It declines when more than a quarter of the
//!    rows start out of bounds and concedes after `4m + 1000` pivots.
//! 3. **Artificial** — the crash basis with an artificial for every row its
//!    slack cannot absorb, walked to feasibility by the primal phase 1 (the
//!    sum of the artificials). Its failures are the solve's.
//!
//! The dual repair is `crate::dual::make_dual_feasible` (boxed columns
//! with wrong-signed reduced costs flip, the rest are cost-shifted) followed
//! by the dual simplex; dual unboundedness is a cost-independent Farkas
//! certificate of primal infeasibility. Certifying is a true-cost primal
//! pass, preceded on cold starts of more than `PERTURB_MIN_ROWS` rows by a
//! perturbed pre-pass. A rung that fails hands over to the next and its
//! pivots and factorizations are added to the result, so the counters stay
//! honest; a budget stop before primal feasibility aborts the solve instead.
//!
//! The primal (`run_phase`) and the dual (`crate::dual::dual_simplex`)
//! pivot loops run in one frame (`PivotLoop`: iteration cap, budget, pass
//! count, refresh cadence) over one set of maintained reduced costs
//! (`ReducedCosts`) and one basis refresh (`SimplexState::refresh`);
//! what differs is their pricing and ratio test.

use std::sync::Arc;

use crate::basis::{CarriedFactors, ColRef, LuFactors, SimplexBasis, VarStatus};
use crate::dual::{self, DualOutcome};
use crate::error::LpError;
use crate::solution::{Solution, SolveStats, SolveStatus};
use crate::sparse::IndexedVec;
use crate::standard::StandardForm;
use teccl_util::budget::{BudgetExceeded, ChargeBatcher, SolveBudget};

/// Outcome of a single simplex phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseOutcome {
    Optimal,
    Unbounded,
}

/// Reduced-cost tolerance.
pub(crate) const DTOL: f64 = 1e-9;
/// Ratio-test pivot tolerance.
pub(crate) const PIV_TOL: f64 = 1e-9;
/// Bound-feasibility tolerance.
pub(crate) const FEAS_TOL: f64 = 1e-9;
/// Counted pivot-loop passes between basic-value / reduced-cost refreshes.
const REFRESH_INTERVAL: usize = 256;

/// Minimum row count before the anti-degeneracy perturbed phase-2 pre-pass
/// engages on cold solves. Small LPs never stall on degeneracy, so perturbing
/// them would only add a second (pointless) pass.
const PERTURB_MIN_ROWS: usize = 64;

/// EXPAND: per-iteration growth of the working feasibility tolerance, and the
/// scale of the guaranteed minimum step. The tolerance is reset at every
/// refresh, so the accumulated drift stays below
/// `FEAS_TOL + REFRESH_INTERVAL * EXPAND_DELTA` (≈ 2.7e-8), well inside the
/// 1e-6/1e-7 tolerances the rest of the solver uses.
const EXPAND_DELTA: f64 = 1e-10;

/// Internal simplex working state over a standard form plus `m` artificials.
///
/// Columns `0..n` are the standard form's structural + slack columns (accessed
/// by reference — the matrix is never copied per solve); columns `n..n+m` are
/// the artificials, represented implicitly as `art_sign[row] * e_row`.
pub(crate) struct SimplexState<'a> {
    pub(crate) sf: &'a StandardForm,
    pub(crate) n: usize,
    pub(crate) m: usize,
    pub(crate) art_sign: Vec<f64>,
    pub(crate) b: Vec<f64>,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) x: Vec<f64>,
    pub(crate) status: Vec<VarStatus>,
    /// Columns whose range is under [`DTOL`] — presolve's `lb == ub` pins,
    /// equality slacks, pinned artificials. Such a column never enters, so
    /// no pricing, reduced cost or pivot-row entry is computed for it.
    pub(crate) pinned: Vec<bool>,
    pub(crate) basis: Vec<usize>,
    pub(crate) lu: LuFactors,
    pub(crate) iterations: usize,
    pub(crate) dual_iterations: usize,
    pub(crate) factorizations: usize,
    /// 1 when the start adopted carried factors instead of factorizing.
    factors_adopted: usize,
    degenerate_pivots: usize,
    bound_flips: usize,
    /// Steepest-edge reference weights `γ_j`, one per column.
    weights: Vec<f64>,
    pub(crate) work: PhaseWork,
}

/// The pivot row `α = ρᵀ[A | artificials]` over the columns that are not
/// pinned, gathered over the non-zeros of `ρ = B⁻ᵀe_r` from the standard
/// form's row-major copy of `A` — the one pivot-row kernel, under the
/// primal's reduced-cost / weight update and the dual's ratio test alike.
/// Cost is the entries of the rows `ρ` touches, not `ncols` column dots.
/// Rows are taken in ascending order, so each `α_j` sums the same products
/// in the same order as `ρ · a_j` over the stored column
/// ([`SimplexState::row_dot_col`]) and equals it exactly.
#[derive(Default)]
pub(crate) struct PivotRow {
    /// `α_j` per column; zero outside `touched`.
    pub(crate) alpha: Vec<f64>,
    /// Columns some listed row has an entry in, in discovery order.
    pub(crate) touched: Vec<u32>,
    mark: Vec<bool>,
}

impl PivotRow {
    pub(crate) fn new(ncols: usize) -> Self {
        PivotRow {
            alpha: vec![0.0; ncols],
            touched: Vec::with_capacity(256),
            mark: vec![false; ncols],
        }
    }

    /// Computes the row for `rho`, replacing the previous one.
    pub(crate) fn compute(&mut self, state: &SimplexState, rho: &IndexedVec) {
        for &j in &self.touched {
            self.alpha[j as usize] = 0.0;
            self.mark[j as usize] = false;
        }
        self.touched.clear();
        let mut add = |j: usize, term: f64| {
            if !self.mark[j] {
                self.mark[j] = true;
                self.touched.push(j as u32);
            }
            self.alpha[j] += term;
        };
        let pinned = &state.pinned;
        for i in rho.indices() {
            let ri = rho.values[i];
            if ri == 0.0 {
                continue;
            }
            for (j, v) in state.sf.rows.row(i) {
                if !pinned[j] {
                    add(j, ri * v);
                }
            }
            // Row i's implicit artificial column sits at n + i with the
            // single entry art_sign[i].
            if !pinned[state.n + i] {
                add(state.n + i, ri * state.art_sign[i]);
            }
        }
    }
}

/// The pivot loops' working vectors — `w = B⁻¹a_q`, `ρ = B⁻ᵀe_r`, a third
/// m-vector (the primal's `τ`, the dual's flip batch) and the pivot row —
/// allocated once per state, so a solve's dual repair and certify pass
/// share them. Every loop resets what it reads before reading it.
#[derive(Default)]
pub(crate) struct PhaseWork {
    pub(crate) w: IndexedVec,
    pub(crate) rho: IndexedVec,
    pub(crate) tau: IndexedVec,
    pub(crate) pivot_row: PivotRow,
}

/// The frame both pivot loops run in: the iteration cap, the cooperative
/// budget, the pass count and the refresh cadence. The primal counts every
/// pass (the final pricing scan included), the dual every pass that finds a
/// leaving row; either way a refresh falls due every [`REFRESH_INTERVAL`]
/// counted passes or when the eta file asks for one.
///
/// Budget charges are batched: a pass pays one relaxed load of the cancel
/// flag, and the tally is flushed every 64 passes (early when an iteration
/// cap is near), so cancellation latency stays one pass and only deadline
/// trips coarsen to the flush granularity. Dropping the frame flushes the
/// remainder, so no exit from a loop leaves work uncharged.
pub(crate) struct PivotLoop<'b> {
    passes: usize,
    max_iters: usize,
    charges: ChargeBatcher<'b>,
}

impl<'b> PivotLoop<'b> {
    pub(crate) fn new(max_iters: usize, budget: Option<&'b SolveBudget>) -> Self {
        PivotLoop {
            passes: 0,
            max_iters,
            charges: ChargeBatcher::new(budget),
        }
    }

    /// Admits one more pass: `IterationLimit` past the cap, `Budget` once
    /// the budget is spent or cancelled.
    pub(crate) fn charge(&mut self) -> Result<(), LpError> {
        if self.passes > self.max_iters {
            return Err(LpError::IterationLimit(self.max_iters));
        }
        self.charges.charge().map_err(LpError::Budget)
    }

    /// Counts one pass, here and in the state's iteration counter.
    pub(crate) fn count(&mut self, state: &mut SimplexState) {
        self.passes += 1;
        state.iterations += 1;
    }

    /// Whether the basis is due a [`SimplexState::refresh`].
    pub(crate) fn refresh_due(&self, state: &SimplexState) -> bool {
        (self.passes > 0 && self.passes.is_multiple_of(REFRESH_INTERVAL))
            || state.lu.needs_refactor()
    }
}

impl Drop for PivotLoop<'_> {
    fn drop(&mut self) {
        let _ = self.charges.flush();
    }
}

/// Reduced costs `d_j = c_j − yᵀa_j` over every column (zero on basic and
/// pinned ones, which no pricing reads) and the `y = B⁻ᵀc_B` they were
/// priced from. Both pivot loops keep them
/// incrementally and recompute them at every refresh.
pub(crate) struct ReducedCosts {
    pub(crate) d: Vec<f64>,
    y: Vec<f64>,
}

impl ReducedCosts {
    /// Prices every column of `state` under `cost`.
    pub(crate) fn of(state: &mut SimplexState, cost: &[f64]) -> Self {
        let mut rc = ReducedCosts {
            d: vec![0.0; state.n + state.m],
            y: Vec::with_capacity(state.m),
        };
        rc.recompute(state, cost);
        rc
    }

    pub(crate) fn recompute(&mut self, state: &mut SimplexState, cost: &[f64]) {
        self.y.clear();
        self.y.extend(state.basis.iter().map(|&j| cost[j]));
        state.lu.btran(&mut self.y);
        for (j, dj) in self.d.iter_mut().enumerate() {
            *dj = if state.status[j] == VarStatus::Basic || state.pinned[j] {
                0.0
            } else {
                state.price_col(j, cost[j], &self.y)
            };
        }
    }
}

/// Solves a [`StandardForm`] with per-column bound overrides, optionally
/// warm-started from a previous solve's basis, under an optional cooperative
/// [`SolveBudget`] checked once per pivot. `num_model_vars` is the number of
/// structural variables to report back.
///
/// * `overrides` — `(column, lb, ub)` triples replacing the form's bounds
///   (columns are standard-form indices; branch-and-bound uses structural
///   columns only). The matrix and objective are shared, so branch-and-bound
///   never rebuilds the form.
/// * `warm` — a basis returned in [`Solution::basis`] by an earlier solve of
///   the *same* form. The solve then starts from it: the basis is
///   refactorized and the **dual simplex** re-optimizes it under the new
///   bounds (boxed columns with wrong-signed reduced costs are flipped, the
///   rest cost-shifted, then dual pivots restore primal feasibility), and a
///   true-cost primal pass certifies. If the basis is stale (wrong shape) or
///   numerically unusable, the solver falls back to a cold start — the
///   result is always correct.
/// * `budget` — when it trips mid-phase-2 the solver extracts the current
///   primal-feasible vertex as a `Feasible` solution with
///   [`SolveStats::budget_stop`] set; a budget stop before primal
///   feasibility exists (phase 1, dual repair) returns [`LpError::Budget`].
pub fn solve_standard_form_budgeted(
    sf: &StandardForm,
    num_model_vars: usize,
    overrides: &[(usize, f64, f64)],
    warm: Option<&SimplexBasis>,
    budget: Option<&SolveBudget>,
) -> Result<Solution, LpError> {
    let mut lb = sf.lb.clone();
    let mut ub = sf.ub.clone();
    for &(j, lo, hi) in overrides {
        lb[j] = lo;
        ub[j] = hi;
    }
    if overrides.iter().any(|&(_, lo, hi)| lo > hi + FEAS_TOL) {
        return Ok(no_point(
            SolveStatus::Infeasible,
            num_model_vars,
            Default::default(),
        ));
    }

    // Trivial case: no constraints. Each variable independently moves to the
    // bound that minimizes its cost.
    if sf.num_rows() == 0 {
        return Ok(solve_unconstrained(sf, &lb, &ub, num_model_vars));
    }

    // What the rungs that gave up spent, added to whichever rung finishes.
    let mut spent = SolveStats::default();
    let rung =
        |start, spent: &mut SolveStats| attempt(sf, &lb, &ub, start, num_model_vars, budget, spent);
    for start in warm.map(Start::Warm).into_iter().chain([Start::Slack]) {
        match rung(start, &mut spent) {
            Ok(sol) => return Ok(sol),
            // No primal-feasible point exists to hand back, and the next
            // rung would only burn more of an exhausted budget.
            Err(e @ LpError::Budget(_)) => return Err(e),
            // A stale or singular start, a declined or stalled dual, a
            // numerical failure: the next rung takes over.
            Err(_) => {}
        }
    }
    rung(Start::Artificial, &mut spent)
}

/// Where a rung of the ladder starts.
#[derive(Clone, Copy)]
enum Start<'w> {
    /// The caller's basis.
    Warm(&'w SimplexBasis),
    /// Every row's slack basic at the row residual.
    Slack,
    /// The crash basis, artificials where the slack cannot absorb the row.
    Artificial,
}

/// Climbs one rung: start, repair primal feasibility (the dual on the warm
/// and slack starts, the primal phase 1 on the artificial one), certify.
/// `spent` carries the work of the rungs below: a finished solve reports it
/// on top of its own, a failed rung adds its own to it.
fn attempt(
    sf: &StandardForm,
    lb: &[f64],
    ub: &[f64],
    start: Start,
    num_model_vars: usize,
    budget: Option<&SolveBudget>,
    spent: &mut SolveStats,
) -> Result<Solution, LpError> {
    let max_iters = 200 * (sf.num_rows() + sf.num_cols()) + 20_000;
    let mut state = match start {
        Start::Warm(basis) => warm_state(sf, lb, ub, basis),
        Start::Slack => build_initial_state(sf, lb, ub, true),
        Start::Artificial => build_initial_state(sf, lb, ub, false),
    }?;
    let cold = !matches!(start, Start::Warm(_));
    let repaired = match start {
        Start::Artificial => primal_phase1(&mut state, max_iters, budget),
        _ => dual_repair(&mut state, cold, max_iters, budget),
    };
    let finished = repaired.and_then(|feasible| {
        if feasible {
            certify(&mut state, max_iters, num_model_vars, cold, budget)
        } else {
            Ok(no_point(
                SolveStatus::Infeasible,
                num_model_vars,
                state.stats(),
            ))
        }
    });
    let Ok(mut sol) = finished else {
        spent.absorb(&state.stats());
        return finished;
    };
    sol.stats.absorb(spent);
    if cold {
        sol.stats.cold_starts = 1;
    } else {
        sol.stats.warm_starts = 1;
    }
    Ok(sol)
}

/// Repairs primal feasibility with the dual simplex: `Ok(true)` once every
/// basic variable is inside its bounds, `Ok(false)` when dual unboundedness
/// proves the LP infeasible.
fn dual_repair(
    state: &mut SimplexState,
    cold: bool,
    max_iters: usize,
    budget: Option<&SolveBudget>,
) -> Result<bool, LpError> {
    // A warm basis whose basic variables all sit inside their (new) bounds
    // goes straight to the certify pass, with no dual pricing scan at all —
    // the common B&B case of tightening a bound the optimum was not sitting
    // on. The slack start always repairs: the flips below are what put it
    // next to the optimum.
    if !cold && state.rows_out_of_bounds() == 0 {
        return Ok(true);
    }
    let mut cost = vec![0.0; state.n + state.m];
    cost[..state.n].copy_from_slice(&state.sf.c);
    let rc = dual::make_dual_feasible(state, &mut cost);
    let cap = if cold {
        // The dual excels at *repairing* primal feasibility — few rows out
        // of bounds, each fixed in a handful of pivots. When the flips push
        // a large fraction of the rows out of bounds at once (the shape of
        // every big ALLTOALL LP form: masses of boxed columns whose costs
        // all pull the same way), the dual walk is so degenerate it can
        // stall for hundreds of thousands of iterations while the primal
        // phase 1 finishes in thousands. Decline on the infeasibility
        // count, and cap the pivots the dual may burn before conceding, so
        // the detour stays O(m) either way.
        let out = state.rows_out_of_bounds();
        if out * 4 > state.m {
            return Err(LpError::Numerical(format!(
                "dual start declined: {out} of {} rows out of bounds",
                state.m
            )));
        }
        (4 * state.m + 1_000).min(max_iters)
    } else {
        max_iters
    };
    Ok(dual::dual_simplex(state, &cost, rc, cap, budget)? == DualOutcome::Optimal)
}

/// The artificial primal phase 1: minimizes the sum of the artificials.
/// `Ok(true)` when they reach zero (they are then pinned there), `Ok(false)`
/// when the LP is infeasible.
fn primal_phase1(
    state: &mut SimplexState,
    max_iters: usize,
    budget: Option<&SolveBudget>,
) -> Result<bool, LpError> {
    let (n, m) = (state.n, state.m);
    let mut cost = vec![0.0; n + m];
    cost[n..].fill(1.0);
    // The phase-1 objective is bounded below by zero, so "unbounded" here is
    // a numerical failure.
    if run_phase(state, &cost, max_iters, budget)? == PhaseOutcome::Unbounded {
        return Err(LpError::Numerical("phase 1 reported unbounded".into()));
    }
    let infeas: f64 = (n..n + m).map(|j| state.x[j].abs()).sum();
    if infeas > 1e-6 {
        return Ok(false);
    }
    // Fix artificials at zero so they cannot re-enter with a non-zero value.
    for j in n..n + m {
        state.lb[j] = 0.0;
        state.ub[j] = 0.0;
        state.pinned[j] = true;
        if state.status[j] != VarStatus::Basic {
            state.x[j] = 0.0;
            state.status[j] = VarStatus::AtLower;
        }
    }
    Ok(true)
}

/// A solve that ends without a point: `Infeasible` or `Unbounded`.
fn no_point(status: SolveStatus, num_model_vars: usize, stats: SolveStats) -> Solution {
    Solution {
        status,
        objective: f64::NAN,
        values: vec![0.0; num_model_vars],
        duals: Vec::new(),
        stats,
        basis: None,
    }
}

/// Builds the initial cold-start state: non-basic structural columns at a
/// finite bound (or 0 if free) and a **crash slack basis** — each row whose
/// residual fits inside its slack's bounds starts with the slack basic (no
/// phase-1 work at all for that row); only rows the slack cannot absorb get a
/// basic artificial. Freed rows (presolve relaxes their slack to
/// `(-inf, +inf)`) therefore never contribute phase-1 infeasibility.
///
/// With `force_slack` set, *every* row's slack starts basic at the residual —
/// even outside its own bounds — and every artificial is pinned at zero. The
/// basis is then exactly the identity (always factorizable) and the
/// out-of-bounds slacks are the primal infeasibilities the dual repairs.
fn build_initial_state<'a>(
    sf: &'a StandardForm,
    lb_in: &[f64],
    ub_in: &[f64],
    force_slack: bool,
) -> Result<SimplexState<'a>, LpError> {
    let m = sf.num_rows();
    let n = sf.num_cols();

    let mut lb = lb_in.to_vec();
    let mut ub = ub_in.to_vec();
    let mut x = vec![0.0; n + m];
    let mut status = vec![VarStatus::AtLower; n + m];

    for j in 0..n {
        (status[j], x[j]) = rest_at(lb[j], ub[j]);
    }

    // Residual each row's basic column must absorb. Slack columns sit at 0 in
    // `x` here; a slack chosen as the crash basic column is moved off its
    // bound to the residual below, which keeps `A x = b` exact.
    let ax = sf.a.mul_dense(&x[..n]);
    let mut art_sign = vec![1.0; m];
    let mut basis = Vec::with_capacity(m);
    for i in 0..m {
        let r = sf.b[i] - ax[i];
        let slack = sf.num_structural + i;
        let j = n + i;
        // The slack column is exactly `e_i`, so putting it basic with value
        // `x[slack] + r` keeps the start point consistent; admissible when
        // that value respects the slack's bounds. (The slack of a `<=` row
        // absorbs any r >= 0, a freed row's slack absorbs anything.)
        let crash = x[slack] + r;
        if force_slack || (crash >= lb[slack] - FEAS_TOL && crash <= ub[slack] + FEAS_TOL) {
            x[slack] = crash;
            status[slack] = VarStatus::Basic;
            basis.push(slack);
            // The artificial is never needed: pin it at zero, non-basic.
            lb.push(0.0);
            ub.push(0.0);
            x[j] = 0.0;
            status[j] = VarStatus::AtLower;
        } else {
            art_sign[i] = if r >= 0.0 { 1.0 } else { -1.0 };
            lb.push(0.0);
            ub.push(f64::INFINITY);
            x[j] = r.abs();
            status[j] = VarStatus::Basic;
            basis.push(j);
        }
    }

    SimplexState::new(sf, art_sign, lb, ub, x, status, basis, None)
}

/// Rebuilds the caller's basis under the bounds `lb_in`/`ub_in`: non-basic
/// columns on a bound consistent with the (possibly changed) bounds, the
/// basis factorized (or its carried factors adopted), the basic values
/// recomputed. A basis of the wrong shape, with repeated or out-of-range
/// columns, or singular, is refused.
fn warm_state<'a>(
    sf: &'a StandardForm,
    lb_in: &[f64],
    ub_in: &[f64],
    warm: &SimplexBasis,
) -> Result<SimplexState<'a>, LpError> {
    let m = sf.num_rows();
    let n = sf.num_cols();
    let mut seen = vec![false; n + m];
    let distinct = warm
        .basic
        .iter()
        .all(|&j| j < n + m && !std::mem::replace(&mut seen[j], true));
    if warm.basic.len() != m || warm.status.len() != n || !distinct {
        return Err(LpError::Numerical("stale warm basis".into()));
    }

    let mut lb = lb_in.to_vec();
    let mut ub = ub_in.to_vec();
    // Artificial columns: reconstructed with sign +1 and pinned to zero (they
    // only linger in degenerate bases; pinning keeps them out of pricing).
    lb.extend(std::iter::repeat_n(0.0, m));
    ub.extend(std::iter::repeat_n(0.0, m));

    let mut x = vec![0.0; n + m];
    let mut status = warm.status.clone();
    status.resize(n + m, VarStatus::AtLower);
    // The listed columns are basic; every other column stays on the bound it
    // was on while that bound is finite.
    for j in 0..n + m {
        (status[j], x[j]) = match status[j] {
            _ if seen[j] => (VarStatus::Basic, 0.0),
            VarStatus::AtUpper if ub[j].is_finite() => (VarStatus::AtUpper, ub[j]),
            _ => rest_at(lb[j], ub[j]),
        };
    }

    let mut state = SimplexState::new(
        sf,
        vec![1.0; m],
        lb,
        ub,
        x,
        status,
        warm.basic.clone(),
        warm.factors.as_deref(),
    )?;
    state.recompute_basic_values();
    Ok(state)
}

/// The certify step every rung ends in: phase 2 from a primal-feasible
/// state, then the solution's extraction.
///
/// `perturb` enables the anti-degeneracy perturbed pre-pass on large LPs;
/// warm starts pass `false` (they are already at or next to the optimum, so
/// tie-breaking would only cost time).
fn certify(
    state: &mut SimplexState,
    max_iters: usize,
    num_model_vars: usize,
    perturb: bool,
    budget: Option<&SolveBudget>,
) -> Result<Solution, LpError> {
    let sf = state.sf;
    let n = state.n;
    let m = state.m;
    let mut iteration_limit_hit = false;
    let mut budget_stop: Option<BudgetExceeded> = None;
    let mut phase2_cost = vec![0.0; n + m];
    phase2_cost[..n].copy_from_slice(&sf.c);
    // Large TE-CCL objectives are near-degenerate (masses of alternate
    // optima), which stalls pricing for thousands of iterations. A first pass
    // against deterministically perturbed costs breaks those ties; the pass
    // with the true costs then certifies optimality, so the optimal *value*
    // never rests on the perturbation. (Phase 1 is left unperturbed: its
    // artificial objective is what drives feasibility.)
    if perturb && m > PERTURB_MIN_ROWS {
        let mut pcost = phase2_cost.clone();
        for (j, c) in pcost.iter_mut().enumerate().take(n) {
            let h = (j as u64).wrapping_mul(0x9e3779b97f4a7c15);
            let r = 1.0 + (h >> 40) as f64 / (1u64 << 24) as f64;
            *c += 1e-7 * r * (1.0 + c.abs());
        }
        // The pre-pass is not only an accelerator: it also picks *which*
        // optimal vertex comes back among the alternate optima, and callers
        // depend on that choice. Without it the three copy-free ALLTOALL LP
        // benchmark keys solve faster but return different schedules, and
        // six of seven A* ALLGATHER keys stop converging (EXPERIMENTS.md,
        // "Solver path verdicts"). Its errors are soft: a perturbed
        // "unbounded" ray may not be profitable under the real costs, and an
        // iteration limit here just means the true-cost pass starts from
        // wherever the perturbed walk got to (still primal feasible). An
        // exhausted budget is still recorded so callers can flag the row as
        // uncertified.
        match run_phase(state, &pcost, max_iters, budget) {
            Ok(_) => {}
            Err(LpError::IterationLimit(_)) => iteration_limit_hit = true,
            Err(LpError::Budget(cause)) => budget_stop = Some(cause),
            Err(e) => return Err(e),
        }
    }
    // Phase 2 preserves primal feasibility, so a budget stop anywhere past
    // this point still has a feasible vertex to hand back: skip (or abandon)
    // the true-cost pass and extract the incumbent as `Feasible`. The
    // skipped certify pass still charges the budget for the extraction work
    // below (refactorize + recompute), so an exhausted-budget walk cannot
    // exit the solver without its cleanup being accounted for.
    let outcome = if budget_stop.is_some() {
        if let Some(b) = budget {
            let _ = b.charge(1);
        }
        PhaseOutcome::Optimal
    } else {
        match run_phase(state, &phase2_cost, max_iters, budget) {
            Ok(o) => o,
            Err(LpError::Budget(cause)) => {
                budget_stop = Some(cause);
                PhaseOutcome::Optimal
            }
            Err(e) => return Err(e),
        }
    };
    // Restore an exactly consistent vertex: the EXPAND ratio test lets basic
    // values drift within the working tolerance; recomputing them from the
    // (exactly on-bound) non-basic values wipes that drift before extraction.
    // A non-empty eta file is the witness that pivots happened since the last
    // refactorization — pivot-free solves (warm re-certifications) skip the
    // extra factorization entirely. Either way the solve ends on fresh
    // factors of its final basis, which the basis carries out.
    if state.lu.eta_count() > 0 {
        state.refactorize()?;
        state.recompute_basic_values();
    }
    let stats = SolveStats {
        iteration_limit_hit,
        budget_stop,
        ..state.stats()
    };
    if outcome == PhaseOutcome::Unbounded {
        return Ok(no_point(SolveStatus::Unbounded, num_model_vars, stats));
    }

    // Extract the solution.
    let min_obj: f64 = (0..n).map(|j| sf.c[j] * state.x[j]).sum();
    let objective = sf.original_objective(min_obj);
    let values: Vec<f64> = (0..num_model_vars)
        .map(|j| clamp_bound_noise(state.x[j], state.lb[j], state.ub[j]))
        .collect();

    // Dual values: y = c_B * B^{-1}, reported in the original sense.
    let mut y: Vec<f64> = state.basis.iter().map(|&j| phase2_cost[j]).collect();
    state.lu.btran(&mut y);
    let duals: Vec<f64> = y.iter().map(|v| sf.obj_sign * v).collect();

    // A basic artificial's unit column depends on the start.
    let factors = (state.basis.iter().all(|&j| j < n))
        .then(|| Arc::new(state.lu.carry(Arc::clone(&sf.a), state.basis.clone())));
    let basis = SimplexBasis {
        basic: state.basis.clone(),
        status: state.status[..n].to_vec(),
        factors,
    };

    // A budget-stopped extraction is a feasible vertex, not a certified
    // optimum: report `Feasible` and claim no dual bound.
    let (status, best_bound) = if budget_stop.is_some() {
        (SolveStatus::Feasible, f64::NAN)
    } else {
        (SolveStatus::Optimal, objective)
    };
    Ok(Solution {
        status,
        objective,
        values,
        duals,
        stats: SolveStats {
            best_bound,
            ..stats
        },
        basis: Some(basis),
    })
}

/// Where a non-basic column with bounds `lo`/`hi` rests: on its lower bound
/// if finite, else on its upper bound if finite, else free at zero.
fn rest_at(lo: f64, hi: f64) -> (VarStatus, f64) {
    if lo.is_finite() {
        (VarStatus::AtLower, lo)
    } else if hi.is_finite() {
        (VarStatus::AtUpper, hi)
    } else {
        (VarStatus::Free, 0.0)
    }
}

/// Rounds values that drifted a hair outside their bounds back onto the bound.
fn clamp_bound_noise(x: f64, lb: f64, ub: f64) -> f64 {
    if x < lb {
        lb
    } else if x > ub {
        ub
    } else if (x - lb).abs() < 1e-11 {
        lb
    } else if ub.is_finite() && (x - ub).abs() < 1e-11 {
        ub
    } else {
        x
    }
}

/// Solves the degenerate "no constraints" case.
fn solve_unconstrained(
    sf: &StandardForm,
    lb: &[f64],
    ub: &[f64],
    num_model_vars: usize,
) -> Solution {
    // Every column sits on the bound its cost pulls toward.
    let values: Vec<f64> = (0..sf.num_cols())
        .map(|j| match sf.c[j] {
            c if c > 0.0 => lb[j],
            c if c < 0.0 => ub[j],
            _ => rest_at(lb[j], ub[j]).1,
        })
        .collect();
    if values.iter().any(|v| !v.is_finite()) {
        return no_point(SolveStatus::Unbounded, num_model_vars, Default::default());
    }
    let min_obj: f64 = (0..values.len()).map(|j| sf.c[j] * values[j]).sum();
    Solution {
        status: SolveStatus::Optimal,
        objective: sf.original_objective(min_obj),
        values: values[..num_model_vars].to_vec(),
        duals: Vec::new(),
        stats: Default::default(),
        basis: None,
    }
}

impl<'a> SimplexState<'a> {
    /// A state over `sf` with the given column bounds, values and statuses
    /// (artificials included) and basis, factorized or from `carried`.
    #[allow(clippy::too_many_arguments)] // a state is this many vectors
    fn new(
        sf: &'a StandardForm,
        art_sign: Vec<f64>,
        lb: Vec<f64>,
        ub: Vec<f64>,
        x: Vec<f64>,
        status: Vec<VarStatus>,
        basis: Vec<usize>,
        carried: Option<&CarriedFactors>,
    ) -> Result<Self, LpError> {
        let (n, m) = (sf.num_cols(), sf.num_rows());
        let pinned = lb.iter().zip(&ub).map(|(lo, hi)| hi - lo < DTOL).collect();
        let mut state = SimplexState {
            sf,
            n,
            m,
            art_sign,
            b: sf.b.clone(),
            lb,
            ub,
            x,
            status,
            pinned,
            basis,
            lu: LuFactors::default(),
            iterations: 0,
            dual_iterations: 0,
            factorizations: 0,
            factors_adopted: 0,
            degenerate_pivots: 0,
            bound_flips: 0,
            weights: vec![1.0; n + m],
            work: PhaseWork {
                w: IndexedVec::zeros(m),
                rho: IndexedVec::zeros(m),
                tau: IndexedVec::zeros(m),
                pivot_row: PivotRow::new(n + m),
            },
        };
        match carried.filter(|c| c.fits(&sf.a, &state.basis)) {
            Some(c) => {
                state.lu.adopt(c);
                state.factors_adopted = 1;
            }
            None => state.refactorize()?,
        }
        Ok(state)
    }

    /// The pivots and factorizations this state has performed.
    fn stats(&self) -> SolveStats {
        SolveStats {
            simplex_iterations: self.iterations,
            dual_iterations: self.dual_iterations,
            factorizations: self.factorizations,
            factors_adopted: self.factors_adopted,
            degenerate_pivots: self.degenerate_pivots,
            bound_flips: self.bound_flips,
            ..Default::default()
        }
    }

    /// Basic variables outside their bounds by more than the dual's primal
    /// feasibility tolerance (a non-finite value counts as outside).
    fn rows_out_of_bounds(&self) -> usize {
        self.basis
            .iter()
            .filter(|&&j| {
                let tol = dual::PRIMAL_FEAS_TOL;
                !(self.lb[j] - tol..=self.ub[j] + tol).contains(&self.x[j])
            })
            .count()
    }

    /// Refactorizes the basis and recomputes the basic values and `rc` under
    /// `cost` from the fresh factors: the periodic refresh of both pivot
    /// loops, wiping the drift of the incremental updates.
    pub(crate) fn refresh(&mut self, cost: &[f64], rc: &mut ReducedCosts) -> Result<(), LpError> {
        self.refactorize()?;
        self.recompute_basic_values();
        rc.recompute(self, cost);
        Ok(())
    }

    /// Makes `enter` basic in row `r` and returns the column it replaces,
    /// which goes non-basic on its upper bound when `to_upper`, else on its
    /// lower bound.
    pub(crate) fn exchange(&mut self, r: usize, enter: usize, to_upper: bool) -> usize {
        let leaving = self.basis[r];
        debug_assert_ne!(leaving, enter);
        (self.x[leaving], self.status[leaving]) = if to_upper {
            (self.ub[leaving], VarStatus::AtUpper)
        } else {
            (self.lb[leaving], VarStatus::AtLower)
        };
        self.basis[r] = enter;
        self.status[enter] = VarStatus::Basic;
        leaving
    }

    /// Moves `enter` by `delta` and the basic variables along
    /// `w = B⁻¹a_enter`, keeping `Ax = b`.
    pub(crate) fn step(&mut self, w: &IndexedVec, enter: usize, delta: f64) {
        for i in w.indices() {
            self.x[self.basis[i]] -= w.values[i] * delta;
        }
        self.x[enter] += delta;
    }

    /// Moves non-basic column `j` from the bound it sits on to the other one
    /// and returns the distance, `new − old` bound.
    pub(crate) fn flip(&mut self, j: usize) -> f64 {
        let (old, new, status) = match self.status[j] {
            VarStatus::AtLower => (self.lb[j], self.ub[j], VarStatus::AtUpper),
            VarStatus::AtUpper => (self.ub[j], self.lb[j], VarStatus::AtLower),
            _ => unreachable!("only a column on a bound flips"),
        };
        self.status[j] = status;
        self.x[j] = new;
        new - old
    }

    /// Folds the pivot on row `r` with transformed column `w` into the eta
    /// file. On numerical trouble the basis is refactorized from scratch and
    /// its values recomputed instead, and the answer is `true`: whatever the
    /// caller maintains incrementally must then be reset.
    pub(crate) fn update_factors(&mut self, w: &IndexedVec, r: usize) -> Result<bool, LpError> {
        if self.lu.update(w, r).is_ok() {
            return Ok(false);
        }
        self.refactorize()?;
        self.recompute_basic_values();
        Ok(true)
    }

    /// Reduced-cost helper: `cost[j] - y · A_j` without materializing columns.
    pub(crate) fn price_col(&self, j: usize, cost_j: f64, y: &[f64]) -> f64 {
        if j < self.n {
            cost_j - self.sf.a.col(j).dot_dense(y)
        } else {
            cost_j - y[j - self.n] * self.art_sign[j - self.n]
        }
    }

    /// `w = B⁻¹ A_j` for any column (structural, slack, or artificial),
    /// written into the caller's reusable buffer.
    pub(crate) fn ftran_col_into(&mut self, j: usize, w: &mut IndexedVec) {
        w.clear();
        if j < self.n {
            for (i, v) in self.sf.a.col(j).iter() {
                w.add(i, v);
            }
        } else {
            w.add(j - self.n, self.art_sign[j - self.n]);
        }
        self.lu.ftran_sparse(w);
    }

    /// `rho · A_j` — one entry of a tableau row, given `rho = B⁻ᵀ e_r`.
    pub(crate) fn row_dot_col(&self, j: usize, rho: &[f64]) -> f64 {
        if j < self.n {
            self.sf.a.col(j).dot_dense(rho)
        } else {
            rho[j - self.n] * self.art_sign[j - self.n]
        }
    }

    /// `(rho · A_j, tau · A_j)` in one traversal of the column's entries —
    /// the steepest-edge pivot update needs both, and loading each index
    /// pair once instead of twice matters on the big dense-ρ pivots.
    pub(crate) fn row_dot_col2(&self, j: usize, rho: &[f64], tau: &[f64]) -> (f64, f64) {
        if j < self.n {
            let mut a = 0.0;
            let mut g = 0.0;
            for (i, v) in self.sf.a.cols[j].iter() {
                a += rho[i] * v;
                g += tau[i] * v;
            }
            (a, g)
        } else {
            let i = j - self.n;
            (rho[i] * self.art_sign[i], tau[i] * self.art_sign[i])
        }
    }

    /// Refactorizes the current basis from its columns where they live — the
    /// form's matrix and the implicit artificials — copying none of them.
    pub(crate) fn refactorize(&mut self) -> Result<(), LpError> {
        let (sf, n, basis, art_sign) = (self.sf, self.n, &self.basis, &self.art_sign);
        self.lu.refactor(self.m, |k| match basis[k] {
            j if j < n => ColRef::Sparse(sf.a.col(j)),
            j => ColRef::Unit {
                row: j - n,
                value: art_sign[j - n],
            },
        })?;
        self.factorizations += 1;
        Ok(())
    }

    /// Recomputes the values of the basic variables as `B⁻¹ (b - A_N x_N)`.
    pub(crate) fn recompute_basic_values(&mut self) {
        let mut rhs = self.b.clone();
        for j in 0..self.n + self.m {
            if self.status[j] == VarStatus::Basic {
                continue;
            }
            let xj = self.x[j];
            if xj == 0.0 {
                continue;
            }
            if j < self.n {
                for (i, v) in self.sf.a.col(j).iter() {
                    rhs[i] -= v * xj;
                }
            } else {
                rhs[j - self.n] -= self.art_sign[j - self.n] * xj;
            }
        }
        self.lu.ftran(&mut rhs);
        for (r, &v) in rhs.iter().enumerate() {
            self.x[self.basis[r]] = v;
        }
    }

    /// Eligibility of a non-basic column under reduced cost `d`: the movement
    /// direction if profitable, `None` otherwise.
    fn eligible_dir(&self, j: usize, d: f64) -> Option<f64> {
        if self.ub[j] - self.lb[j] < DTOL {
            return None; // fixed columns can never usefully enter
        }
        match self.status[j] {
            VarStatus::Basic => None,
            VarStatus::AtLower => (d < -DTOL).then_some(1.0),
            VarStatus::AtUpper => (d > DTOL).then_some(-1.0),
            VarStatus::Free => {
                if d < -DTOL {
                    Some(1.0)
                } else if d > DTOL {
                    Some(-1.0)
                } else {
                    None
                }
            }
        }
    }
}

/// Primal pricing: a full scan over the maintained reduced costs, best
/// `d²/γ` wins, as `(column, d_j, direction)`.
///
/// The scan walks the maintained `active` list — every non-basic column whose
/// range clears DTOL — instead of all of `ncols`, so basic and
/// presolve-pinned columns never cost a bounds load. Columns that entered the
/// basis since the last scan are compacted out in place; leaving columns are
/// pushed back at pivot time. Bounds are immutable within a phase, so list
/// membership only ever changes through basis status.
fn price(state: &SimplexState, d: &[f64], active: &mut Vec<u32>) -> Option<(usize, f64, f64)> {
    let mut best: Option<(usize, f64, f64, f64)> = None; // (j, d, dir, score)
    let mut keep = 0usize;
    for idx in 0..active.len() {
        let j = active[idx] as usize;
        if state.status[j] == VarStatus::Basic {
            continue; // entered the basis since the last scan
        }
        active[keep] = active[idx];
        keep += 1;
        let dj = d[j];
        if let Some(dir) = state.eligible_dir(j, dj) {
            let score = dj * dj / state.weights[j];
            // Ties break toward the lowest column index — the list is not
            // kept sorted (leaving columns append at the tail), and without
            // the explicit tie-break the pivot sequence would depend on list
            // order.
            if best.is_none_or(|(bj, _, _, bs)| score > bs || (score == bs && j < bj)) {
                best = Some((j, dj, dir, score));
            }
        }
    }
    active.truncate(keep);
    best.map(|(j, dj, dir, _)| (j, dj, dir))
}

/// Runs primal simplex iterations for one phase with the given cost vector.
fn run_phase(
    state: &mut SimplexState,
    cost: &[f64],
    max_iters: usize,
    budget: Option<&SolveBudget>,
) -> Result<PhaseOutcome, LpError> {
    let mut work = std::mem::take(&mut state.work);
    let outcome = primal_pivots(state, &mut work, cost, max_iters, budget);
    state.work = work;
    outcome
}

/// [`run_phase`] in the state's working vectors.
fn primal_pivots(
    state: &mut SimplexState,
    work: &mut PhaseWork,
    cost: &[f64],
    max_iters: usize,
    budget: Option<&SolveBudget>,
) -> Result<PhaseOutcome, LpError> {
    let ncols = state.n + state.m;

    // No Bland fallback and no stall heuristics: the EXPAND minimum step
    // makes every pivot strictly improving, which is the anti-cycling
    // guarantee Bland used to provide — without its glacial first-eligible
    // pricing (measured on internal1(2) ALLTOALL 16 MB: the Bland fallback
    // burned 1.45M of 1.5M iterations before this change).
    let mut frame = PivotLoop::new(max_iters, budget);
    // EXPAND working tolerance: grows every iteration, reset at each refresh
    // (the refresh recomputes the basic values, wiping accumulated drift).
    let mut tol_work = FEAS_TOL;

    // Fresh pricing reference framework per phase: γ_j = 1 says "the current
    // basis is the reference" — the steepest-edge updates below then keep
    // each γ_j exactly equal to 1 + ‖B⁻¹a_j‖² measured in that reference.
    state.weights.fill(1.0);

    // Optimality is only ever declared on *fresh* reduced costs, so
    // correctness never rests on the incremental updates.
    let mut rc = ReducedCosts::of(state, cost);
    let mut d_fresh = true;

    // Hot-loop buffers, allocated once per state and reused every iteration.
    let PhaseWork {
        w,
        rho,
        tau,
        pivot_row,
    } = work;
    // Pricing candidates: every non-basic column that can move (see
    // [`price`] for the maintenance protocol).
    let mut active: Vec<u32> = (0..ncols)
        .filter(|&j| state.status[j] != VarStatus::Basic && state.ub[j] - state.lb[j] >= DTOL)
        .map(|j| j as u32)
        .collect();

    loop {
        frame.charge()?;
        frame.count(state);
        tol_work += EXPAND_DELTA;

        if frame.refresh_due(state) {
            state.refresh(cost, &mut rc)?;
            d_fresh = true;
            tol_work = FEAS_TOL;
            // Leaving columns append at the tail, so over thousands of pivots
            // the pricing list drifts out of ascending order and the scan's
            // `d`/`weights` loads lose their sequential prefetch. Restoring
            // sorted order here costs ~O(n log n) once per refresh.
            active.sort_unstable();
        }

        let mut entering = price(state, &rc.d, &mut active);
        if entering.is_none() && !d_fresh {
            rc.recompute(state, cost);
            d_fresh = true;
            entering = price(state, &rc.d, &mut active);
        }
        let Some((enter, d_enter, dir)) = entering else {
            return Ok(PhaseOutcome::Optimal);
        };

        // Transformed column w = B⁻¹ A_enter.
        state.ftran_col_into(enter, w);

        // EXPAND / Harris two-pass ratio test. The entering variable moves by
        // `t >= 0` in direction `dir`; the basic variable in row r changes at
        // rate `-dir * w[r]`.
        //
        // Pass 1 computes the largest step `t_exp` at which every blocking
        // basic variable stays within `tol_work` of its bound. Pass 2 picks,
        // among the rows whose *true* ratio fits under `t_exp`, the one with
        // the numerically largest pivot.
        // The chosen step is bounded below by `EXPAND_DELTA / |pivot|`, so
        // every iteration strictly improves the objective — degenerate
        // vertices cannot cycle — at the price of bound drift that stays
        // under `tol_work` and is wiped at the next refresh.
        let own_range = state.ub[enter] - state.lb[enter]; // may be inf

        // Room a blocking row has before its bound in the movement direction,
        // `None` when the row does not block (shared by both passes so the
        // expanded and true ratio tests can never desynchronize).
        let blocking_room = |r: usize, w: &IndexedVec| -> Option<(f64, f64)> {
            let rate = -dir * w.values[r];
            let bvar = state.basis[r];
            if rate < -PIV_TOL {
                state.lb[bvar]
                    .is_finite()
                    .then(|| (state.x[bvar] - state.lb[bvar], rate))
            } else if rate > PIV_TOL {
                state.ub[bvar]
                    .is_finite()
                    .then(|| (state.ub[bvar] - state.x[bvar], rate))
            } else {
                None
            }
        };
        let mut t_exp = if own_range.is_finite() {
            own_range + tol_work
        } else {
            f64::INFINITY
        };
        w.indices().for_each(|r| {
            if let Some((room, rate)) = blocking_room(r, w) {
                let t = (room + tol_work).max(0.0) / rate.abs();
                if t < t_exp {
                    t_exp = t;
                }
            }
        });

        let mut leave_row: Option<(usize, f64)> = None; // (row, true ratio)
        if t_exp.is_finite() {
            w.indices().for_each(|r| {
                if let Some((room, rate)) = blocking_room(r, w) {
                    let t = room.max(0.0) / rate.abs();
                    if t <= t_exp
                        && leave_row.is_none_or(|(cur, _)| w.values[r].abs() > w.values[cur].abs())
                    {
                        leave_row = Some((r, t));
                    }
                }
            });
        }

        // Decide between a basis pivot and a bound flip of the entering
        // column; an unbounded ray is the remaining case.
        let (t, leave_at) = match leave_row {
            Some((r, t_true)) => {
                // Strictly positive minimum step (the EXPAND anti-cycling
                // guarantee), capped at `t_exp`: past that cap, rows outside
                // the pass-2 set would overshoot their bounds by more than
                // the working tolerance (a near-PIV_TOL pivot would otherwise
                // inflate the minimum step arbitrarily and break the drift
                // bound the module documents).
                let t = t_true
                    .max(EXPAND_DELTA / w.values[r].abs().max(PIV_TOL))
                    .min(t_exp);
                if own_range <= t {
                    (own_range, None) // the entering column flips first
                } else {
                    (t, Some(r))
                }
            }
            None => {
                if !own_range.is_finite() {
                    return Ok(PhaseOutcome::Unbounded);
                }
                (own_range, None)
            }
        };

        state.step(w, enter, dir * t);
        if t < 1e-9 {
            state.degenerate_pivots += 1;
        }
        let Some(r) = leave_at else {
            // Bound flip: the entering variable traversed its whole range.
            state.flip(enter);
            state.bound_flips += 1;
            continue;
        };
        // Snap the leaving variable onto the bound it reached (any overshoot
        // from the minimum step lands on the other basic variables, bounded
        // by `tol_work`).
        let leaving = state.exchange(r, enter, -dir * w.values[r] >= 0.0);
        // The leaving column is non-basic again: put it back in the pricing
        // list (the entering one is compacted out lazily at the next scan).
        // A zero-range column can never re-enter.
        if state.ub[leaving] - state.lb[leaving] >= DTOL {
            active.push(leaving as u32);
        }

        // ---- Weight + reduced-cost updates (one pass over the non-basic
        // columns, all against the *pre-pivot* factors).
        //
        // ρ = B⁻ᵀe_r gives the pivot row α_j = ρ·a_j, which drives both the
        // incremental reduced costs (d_j ← d_j − θ_d α_j with θ_d = d_q/α_q)
        // and the weight updates. For steepest edge, τ = B⁻ᵀw additionally
        // gives g_j = a_j·τ = (B⁻¹a_j)·(B⁻¹a_q), and the exact
        // Forrest–Goldfarb update with η = α_j/α_q is
        //     γ_j ← γ_j − 2·η·g_j + η²·(‖w‖² + 1),
        // clamped below by 1 + η² (the exact value when the old B⁻¹a_j had
        // no component besides the pivot row). The leaving column's exact new
        // weight (‖w‖² + 1)/α_q² is set directly — its stale nonbasic γ would
        // poison the formula.
        let mut need_reset = false;
        let alpha_q = w.values[r];
        let theta_d = d_enter / alpha_q;
        let wnorm2: f64 = w.indices().map(|i| w.values[i] * w.values[i]).sum();
        if alpha_q.abs() > PIV_TOL && theta_d.is_finite() && wnorm2.is_finite() {
            rho.set_unit(r);
            tau.copy_from(w);
            // Dense: one lockstep pass over the factors for both solves.
            // Sparse: one list-driven solve each.
            state.lu.btran2_sparse(rho, tau);
            // The pivot row α = ρᵀA (and g_j = a_j·τ) has two evaluation
            // strategies keyed on the density of ρ = B⁻ᵀe_r:
            //
            // * ρ sparse — at most m/8 non-zeros, the solve kept its list
            //   (common in phase 1, right after a refresh, and throughout the
            //   small A* / B&B models): the shared [`PivotRow`] gather — cost
            //   ∝ entries of the rows ρ touches, and g_j is computed per
            //   *touched* column only (η = 0 leaves γ_j unchanged, so
            //   untouched columns need nothing).
            // * ρ dense (deep degenerate phase-2 walks fill it in): no row is
            //   materialized; a fused per-column update pass skips basic and
            //   presolve-pinned columns before any arithmetic and computes α_j
            //   and g_j in a single traversal of each column. A gather would
            //   pay list bookkeeping on every one of nnz(A) entries for no
            //   skip.
            //
            // Both produce the same α_j and g_j for the same columns, so which
            // one runs never changes a pivot.
            let d = &mut rc.d;
            if !rho.dense {
                pivot_row.compute(state, rho);
                // Scatter: apply the reduced-cost and weight updates to the
                // touched non-basic columns.
                for &ju in &pivot_row.touched {
                    let j = ju as usize;
                    let alpha_j = pivot_row.alpha[j];
                    if state.status[j] == VarStatus::Basic || alpha_j == 0.0 {
                        continue;
                    }
                    d[j] -= theta_d * alpha_j;
                    let eta = alpha_j / alpha_q;
                    let g_j = state.row_dot_col(j, &tau.values);
                    let cand = state.weights[j] - 2.0 * eta * g_j + eta * eta * (wnorm2 + 1.0);
                    state.weights[j] = cand.max(1.0 + eta * eta);
                }
            } else {
                // The pricing list is exactly the set of columns this pass can
                // affect (stale Basic entries fall to the status check), so
                // iterate it instead of 0..ncols.
                for &ju in &active {
                    let j = ju as usize;
                    if state.status[j] == VarStatus::Basic || state.ub[j] - state.lb[j] < DTOL {
                        continue;
                    }
                    let (alpha_j, g_j) = state.row_dot_col2(j, &rho.values, &tau.values);
                    if alpha_j == 0.0 {
                        continue;
                    }
                    d[j] -= theta_d * alpha_j;
                    let eta = alpha_j / alpha_q;
                    let cand = state.weights[j] - 2.0 * eta * g_j + eta * eta * (wnorm2 + 1.0);
                    state.weights[j] = cand.max(1.0 + eta * eta);
                }
            }
            d[enter] = 0.0;
            // The leaving column has α = 1 exactly (B⁻¹a_leav = e_r under the
            // old basis), so the pass above already set d[leaving] = −θ_d;
            // only its weight needs the exact override.
            state.weights[leaving] =
                ((wnorm2 + 1.0) / (alpha_q * alpha_q)).max(1.0 + 1.0 / (alpha_q * alpha_q));
            d_fresh = false;
            // Devex-style reset on numerical trouble: a non-finite weight
            // means the exact recurrence broke down — restart the reference
            // framework at the current basis.
            if !state.weights[leaving].is_finite() {
                need_reset = true;
            }
        } else {
            // Un-updatable pivot (tiny α_q slipped through the ratio test, or
            // a non-finite step): the maintained weights and reduced costs
            // are no longer trustworthy — reset both.
            need_reset = true;
        }

        need_reset |= state.update_factors(w, r)?;
        // Resets run *after* the factors reflect the pivot, so the
        // recomputed reduced costs match the new basis.
        if need_reset {
            state.weights.fill(1.0);
            rc.recompute(state, cost);
            d_fresh = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    /// `m` with integrality ignored, solved cold over its raw standard form.
    fn solve_model(m: &Model) -> Result<Solution, LpError> {
        solve_standard_form_budgeted(&StandardForm::from_model(m), m.num_vars(), &[], None, None)
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → obj 36 at (2, 6).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 3.0);
        let y = m.add_nonneg_var("y", 5.0);
        m.add_cons("c1", &[(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_cons("c2", &[(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_cons("c3", &[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let sol = solve_model(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 36.0, 1e-6);
        assert_close(sol.value(x), 2.0, 1e-6);
        assert_close(sol.value(y), 6.0, 1e-6);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 → x=7,y=3 → 23.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 2.0);
        let y = m.add_nonneg_var("y", 3.0);
        m.add_cons("c1", &[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0);
        m.add_cons("c2", &[(x, 1.0)], ConstraintOp::Ge, 2.0);
        m.add_cons("c3", &[(y, 1.0)], ConstraintOp::Ge, 3.0);
        let sol = solve_model(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 23.0, 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 → x = 2, y = 1 → 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 1.0);
        let y = m.add_nonneg_var("y", 1.0);
        m.add_cons("e1", &[(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 4.0);
        m.add_cons("e2", &[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        let sol = solve_model(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.value(x), 2.0, 1e-6);
        assert_close(sol.value(y), 1.0, 1e-6);
        assert_close(sol.objective, 3.0, 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0)], ConstraintOp::Ge, 2.0);
        let sol = solve_model(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 1.0);
        let y = m.add_nonneg_var("y", 0.0);
        m.add_cons("c", &[(y, 1.0)], ConstraintOp::Le, 5.0);
        let _ = x;
        let sol = solve_model(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn bounded_variables_and_bound_flips() {
        // max x + y with 0 <= x <= 2, 0 <= y <= 3, x + y <= 4 → 4.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 2.0, 1.0, false);
        let y = m.add_var("y", 0.0, 3.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        let sol = solve_model(&m).unwrap();
        assert_close(sol.objective, 4.0, 1e-6);
        assert!(sol.value(x) <= 2.0 + 1e-9);
        assert!(sol.value(y) <= 3.0 + 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5 (bound), x + y = 0, y <= 3 → x = -3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", -5.0, f64::INFINITY, 1.0, false);
        let y = m.add_var("y", 0.0, 3.0, 0.0, false);
        m.add_cons("e", &[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 0.0);
        let sol = solve_model(&m).unwrap();
        assert_close(sol.value(x), -3.0, 1e-6);
        assert_close(sol.objective, -3.0, 1e-6);
    }

    #[test]
    fn free_variable_support() {
        // min x + 2y, x free, y >= 0, x + y >= 3, x >= -10 via constraint.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0, false);
        let y = m.add_nonneg_var("y", 2.0);
        m.add_cons("c1", &[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        m.add_cons("c2", &[(x, 1.0)], ConstraintOp::Ge, -10.0);
        let sol = solve_model(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        // Optimum: y = 0, x = 3 → 3 (driving x to -10 costs 26 in y).
        assert_close(sol.objective, 3.0, 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Highly degenerate: many redundant constraints through the optimum.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 1.0);
        let y = m.add_nonneg_var("y", 1.0);
        for i in 0..20 {
            let w = 1.0 + (i as f64) * 1e-9;
            m.add_cons(format!("c{i}"), &[(x, w), (y, 1.0)], ConstraintOp::Le, 10.0);
        }
        let sol = solve_model(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 10.0, 1e-5);
    }

    #[test]
    fn transportation_problem() {
        // Classic 2x3 transportation problem with known optimum.
        // Supplies: 20, 30. Demands: 10, 25, 15.
        // Costs: [[2, 3, 1], [5, 4, 8]] → optimal cost 150.
        let mut m = Model::new(Sense::Minimize);
        let costs = [[2.0, 3.0, 1.0], [5.0, 4.0, 8.0]];
        let mut xs = [[crate::model::VarId(0); 3]; 2];
        for s in 0..2 {
            for d in 0..3 {
                xs[s][d] = m.add_nonneg_var(format!("x{s}{d}"), costs[s][d]);
            }
        }
        let supplies = [20.0, 30.0];
        let demands = [10.0, 25.0, 15.0];
        for s in 0..2 {
            let terms: Vec<_> = (0..3).map(|d| (xs[s][d], 1.0)).collect();
            m.add_cons(format!("s{s}"), &terms, ConstraintOp::Le, supplies[s]);
        }
        for d in 0..3 {
            let terms: Vec<_> = (0..2).map(|s| (xs[s][d], 1.0)).collect();
            m.add_cons(format!("d{d}"), &terms, ConstraintOp::Ge, demands[d]);
        }
        let sol = solve_model(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 150.0, 1e-5);
    }

    #[test]
    fn duals_satisfy_strong_duality_on_simple_lp() {
        // max 3x + 5y (same as textbook test): primal obj == b'y at optimum.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 3.0);
        let y = m.add_nonneg_var("y", 5.0);
        m.add_cons("c1", &[(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_cons("c2", &[(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_cons("c3", &[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let sol = solve_model(&m).unwrap();
        let b = [4.0, 12.0, 18.0];
        let dual_obj: f64 = sol.duals.iter().zip(b.iter()).map(|(d, b)| d * b).sum();
        assert_close(dual_obj, sol.objective, 1e-5);
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 2.0, 2.0, 1.0, false);
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0);
        let sol = solve_model(&m).unwrap();
        assert_close(sol.value(x), 2.0, 1e-9);
        assert_close(sol.value(y), 3.0, 1e-6);
    }

    #[test]
    fn no_constraints_goes_to_best_bounds() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 7.0, 2.0, false);
        let y = m.add_var("y", -3.0, 4.0, -1.0, false);
        let sol = solve_model(&m).unwrap();
        assert_close(sol.value(x), 7.0, 1e-9);
        assert_close(sol.value(y), -3.0, 1e-9);
        assert_close(sol.objective, 17.0, 1e-9);
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        m.add_var("x", 0.0, f64::INFINITY, 1.0, false);
        let sol = solve_model(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    // ---- Warm-start path ---------------------------------------------------

    #[test]
    fn warm_start_reproduces_cold_optimum() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 3.0);
        let y = m.add_nonneg_var("y", 5.0);
        m.add_cons("c1", &[(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_cons("c2", &[(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_cons("c3", &[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let sf = StandardForm::from_model(&m);
        let cold = solve_standard_form_budgeted(&sf, 2, &[], None, None).unwrap();
        let basis = cold.basis.clone().unwrap();
        // Unchanged bounds: the warm re-solve must find the same optimum
        // nearly instantly.
        let warm = solve_standard_form_budgeted(&sf, 2, &[], Some(&basis), None).unwrap();
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert_close(warm.objective, cold.objective, 1e-9);
        assert_eq!(warm.stats.warm_starts, 1);
        assert_eq!(warm.stats.cold_starts, 0);
        assert!(
            warm.stats.simplex_iterations <= 2,
            "{}",
            warm.stats.simplex_iterations
        );
    }

    #[test]
    fn warm_start_after_bound_tightening_matches_cold() {
        // min -x - 2y s.t. x + y <= 10, x <= 6, y <= 7 (as bounds).
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 6.0, -1.0, false);
        let y = m.add_var("y", 0.0, 7.0, -2.0, false);
        m.add_cons("cap", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        let sf = StandardForm::from_model(&m);
        let cold = solve_standard_form_budgeted(&sf, 2, &[], None, None).unwrap();
        let basis = cold.basis.clone().unwrap();
        // Tighten x's upper bound below its optimal value (3) → re-solve.
        let overrides = [(0usize, 0.0, 1.5)];
        let warm = solve_standard_form_budgeted(&sf, 2, &overrides, Some(&basis), None).unwrap();
        let cold2 = solve_standard_form_budgeted(&sf, 2, &overrides, None, None).unwrap();
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert_close(warm.objective, cold2.objective, 1e-8);
        assert!(warm.values[0] <= 1.5 + 1e-9);
    }

    #[test]
    fn warm_start_detects_infeasible_bound_change() {
        // x + y >= 8 with x <= 6, y <= 7 is feasible; tightening y <= 1 and
        // x <= 1 makes it infeasible.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 6.0, 1.0, false);
        let y = m.add_var("y", 0.0, 7.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 8.0);
        let sf = StandardForm::from_model(&m);
        let cold = solve_standard_form_budgeted(&sf, 2, &[], None, None).unwrap();
        let basis = cold.basis.clone().unwrap();
        let overrides = [(0usize, 0.0, 1.0), (1usize, 0.0, 1.0)];
        let warm = solve_standard_form_budgeted(&sf, 2, &overrides, Some(&basis), None).unwrap();
        assert_eq!(warm.status, SolveStatus::Infeasible);
        let cold2 = solve_standard_form_budgeted(&sf, 2, &overrides, None, None).unwrap();
        assert_eq!(cold2.status, SolveStatus::Infeasible);
    }

    /// An `n`×`n` transportation-style LP (2n rows, n² columns) whose cold
    /// solve needs real primal phase-2 work even after the dual phase 1.
    fn transportation_lp(n: usize) -> StandardForm {
        let mut m = Model::new(Sense::Minimize);
        let mut xs = Vec::new();
        for s in 0..n {
            for d in 0..n {
                let cost = ((s * 7 + d * 13) % 17 + 1) as f64;
                xs.push(m.add_var(format!("x{s}_{d}"), 0.0, 50.0, cost, false));
            }
        }
        for s in 0..n {
            let terms: Vec<_> = (0..n).map(|d| (xs[s * n + d], 1.0)).collect();
            m.add_cons(format!("s{s}"), &terms, ConstraintOp::Le, 30.0);
        }
        for d in 0..n {
            let terms: Vec<_> = (0..n).map(|s| (xs[s * n + d], 1.0)).collect();
            m.add_cons(format!("d{d}"), &terms, ConstraintOp::Ge, 20.0);
        }
        StandardForm::from_model(&m)
    }

    #[test]
    fn warm_resolve_is_much_cheaper_than_cold() {
        // A 20x20 transportation-style LP: the cold solve needs dozens of
        // iterations even with the dual phase 1; after tightening one
        // non-binding bound the warm re-solve must take < 10% of the cold
        // iteration count.
        let n = 20;
        let sf = transportation_lp(n);
        let cold = solve_standard_form_budgeted(&sf, n * n, &[], None, None).unwrap();
        assert_eq!(cold.status, SolveStatus::Optimal);
        let cold_iters = cold.stats.simplex_iterations;
        assert!(
            cold_iters >= 20,
            "cold solve unexpectedly cheap: {cold_iters}"
        );
        // Tighten the bound of a variable that is at 0 in the optimum.
        let idle = (0..n * n).find(|&j| cold.values[j] < 1e-9).unwrap();
        let overrides = [(idle, 0.0, 10.0)];
        let warm = solve_standard_form_budgeted(&sf, n * n, &overrides, cold.basis.as_ref(), None)
            .unwrap();
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert_close(warm.objective, cold.objective, 1e-6);
        assert!(
            warm.stats.simplex_iterations * 10 < cold_iters,
            "warm {} vs cold {cold_iters}",
            warm.stats.simplex_iterations
        );
    }

    #[test]
    fn exhausted_perturbed_walk_still_charges_the_certify_pass() {
        // The 40x40 transportation LP has m = 80 rows, above
        // `PERTURB_MIN_ROWS`, so its cold solve runs the perturbed phase-2
        // pre-pass. Sweep iteration caps upward. Caps that trip before primal
        // feasibility are hard budget errors; the first cap that comes back
        // `Ok` with `budget_stop` set tripped inside the perturbed walk,
        // which skips the true-cost certify pass — and that skip must still
        // charge the budget for the extraction work (no silent uncharged
        // exits).
        let n = 40;
        let sf = transportation_lp(n);
        assert!(sf.num_rows() > PERTURB_MIN_ROWS);
        let mut verified = false;
        for cap in 1..5000u64 {
            let budget = SolveBudget::with_iteration_cap(cap);
            match solve_standard_form_budgeted(&sf, n * n, &[], None, Some(&budget)) {
                Err(LpError::Budget(_)) => continue, // tripped before feasibility
                Err(e) => panic!("unexpected error at cap {cap}: {e:?}"),
                Ok(sol) => {
                    let Some(_) = sol.stats.budget_stop else {
                        // The budget was big enough to finish: nothing larger
                        // will trip either.
                        break;
                    };
                    assert_eq!(sol.status, SolveStatus::Feasible);
                    // The tripping pivot lands on `cap + 1`; anything beyond
                    // proves the skipped certify pass charged its cleanup.
                    assert!(
                        budget.iterations_used() >= cap + 2,
                        "certify pass exited uncharged: cap {cap}, used {}",
                        budget.iterations_used()
                    );
                    verified = true;
                    break;
                }
            }
        }
        assert!(verified, "no cap tripped inside the perturbed pre-pass");
    }

    #[test]
    fn pivot_row_kernel_matches_per_column_dots() {
        // The shared row-wise gather against `row_dot_col`, column by column
        // (artificials included, some with sign −1), for ρ of every density,
        // listed and dense alike; pinned columns (equality slacks, the
        // artificials the crash basis pinned) are neither listed nor summed.
        let mut rng = teccl_util::Rng64::seed_from_u64(0x9e37);
        let mut negative_artificials = 0usize;
        for case in 0..60 {
            let (rows, vars) = (8 + rng.gen_range_usize(40), 10 + rng.gen_range_usize(60));
            let mut model = Model::new(Sense::Minimize);
            let xs: Vec<_> = (0..vars)
                .map(|j| model.add_var(format!("x{j}"), 0.0, 4.0, rng.gen_f64(), false))
                .collect();
            for i in 0..rows {
                let terms: Vec<_> = (0..1 + rng.gen_range_usize(5))
                    .map(|_| (xs[rng.gen_range_usize(vars)], rng.gen_range_f64(-2.0, 2.0)))
                    .collect();
                // Equality rows with either sign of right-hand side: the
                // slack cannot absorb the residual, so artificials of both
                // signs appear.
                let op = [ConstraintOp::Eq, ConstraintOp::Le, ConstraintOp::Ge][i % 3];
                model.add_cons(format!("c{i}"), &terms, op, rng.gen_range_f64(-3.0, 3.0));
            }
            let sf = StandardForm::from_model(&model);
            let state = build_initial_state(&sf, &sf.lb, &sf.ub, false).unwrap();
            negative_artificials += state.art_sign.iter().filter(|s| **s < 0.0).count();
            let (m, ncols) = (state.m, state.n + state.m);
            let mut row = PivotRow::new(ncols);
            for density in [0.0, 0.02, 0.1, 0.5, 1.0] {
                let mut rho = IndexedVec::zeros(m);
                for i in 0..m {
                    if rng.gen_bool(density) || (density > 0.0 && i == case % m) {
                        rho.add(i, rng.gen_range_f64(-1.0, 1.0));
                    }
                }
                for as_dense in [false, true] {
                    let mut rho = rho.clone();
                    if as_dense {
                        rho.nz.clear();
                        rho.dense = true;
                    }
                    row.compute(&state, &rho);
                    let mut touched = vec![false; ncols];
                    for &j in &row.touched {
                        assert!(!std::mem::replace(&mut touched[j as usize], true));
                    }
                    for (j, &listed) in touched.iter().enumerate() {
                        if state.pinned[j] {
                            assert!(!listed && row.alpha[j].to_bits() == 0, "pinned column {j}");
                            continue;
                        }
                        let (got, want) = (row.alpha[j], state.row_dot_col(j, &rho.values));
                        // Bit for bit; an untouched artificial of sign −1 is
                        // `0·(−1) = −0.0` by the column formula, `+0.0` here.
                        assert!(
                            got.to_bits() == want.to_bits() || (got == 0.0 && want == 0.0),
                            "case {case} density {density} column {j}: {got:e} vs {want:e}"
                        );
                        assert!(listed || got.to_bits() == 0, "column {j} not listed");
                    }
                }
            }
        }
        assert!(negative_artificials > 20, "{negative_artificials}");
    }

    #[test]
    fn an_abandoned_rung_counts_its_dual_pivots() {
        // Infeasible: `c1` caps y at 5, so `c0` can reach 1 + 5e-12 < 2. The
        // slack start has one row of four out of bounds, so the dual runs;
        // its ratio test flips x and runs out of breakpoints, but y's bound
        // range times its sub-tolerance coefficient could still close the
        // violation, so the dual refuses the infeasibility verdict after one
        // pivot and the artificial rung proves it instead. That pivot stays
        // in the counters.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 0.0, false);
        let y = m.add_var("y", 0.0, 1e13, 0.0, false);
        let z = m.add_var("z", 0.0, 1.0, 0.0, false);
        m.add_cons("c0", &[(x, 1.0), (y, 1e-12)], ConstraintOp::Ge, 2.0);
        m.add_cons("c1", &[(y, 1.0)], ConstraintOp::Le, 5.0);
        m.add_cons("c2", &[(z, 1.0)], ConstraintOp::Le, 1.0);
        m.add_cons("c3", &[(x, 1.0), (z, 1.0)], ConstraintOp::Le, 3.0);
        let sol = solve_model(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
        assert_eq!(sol.stats.cold_starts, 1);
        assert_eq!(sol.stats.dual_iterations, 1, "{:?}", sol.stats);
        assert!(sol.stats.simplex_iterations > 1, "{:?}", sol.stats);
    }

    #[test]
    fn stale_warm_basis_falls_back_to_cold() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 4.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0)], ConstraintOp::Le, 3.0);
        let sf = StandardForm::from_model(&m);
        // A basis with the wrong shape is rejected and the cold path runs.
        let stale = SimplexBasis {
            factors: None,
            basic: vec![0, 1, 2],
            status: vec![VarStatus::AtLower],
        };
        let sol = solve_standard_form_budgeted(&sf, 1, &[], Some(&stale), None).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 3.0, 1e-9);
        assert_eq!(sol.stats.cold_starts, 1);
    }
}

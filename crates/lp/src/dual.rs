//! Bounded-variable dual simplex for warm re-solves.
//!
//! Branch-and-bound tightens one variable bound per child node. The parent's
//! optimal basis stays **dual feasible** under such a change (reduced costs
//! are untouched), while the branched basic variable becomes **primal
//! infeasible**. The natural re-solve is therefore a dual simplex: pick the
//! most out-of-bounds basic variable (dual-devex row pricing), find the
//! entering column with a **bound-flipping ratio test** (the long-step rule
//! of Fourer / Maros / Koberstein: boxed non-basic columns whose reduced cost
//! would change sign are flipped to their opposite bound as long as the dual
//! slope stays positive), and pivot. No artificials, no repair phase; for a
//! single tightened bound the walk is typically a handful of pivots.
//!
//! Cost changes (A* cross-round warm starts re-weight the objective) are
//! absorbed before the dual runs: [`make_dual_feasible`] flips boxed columns
//! whose reduced cost has the wrong sign and *shifts* the cost of the rest
//! (Gill et al.'s bound/cost-shifting idea). The dual then optimizes the
//! shifted objective; since the caller always re-certifies with a true-cost
//! primal pass from the primal-feasible basis the dual leaves behind,
//! the shifts never affect correctness.
//!
//! Dual unboundedness — the ratio test running out of breakpoints with slope
//! still positive — is a Farkas certificate that the violated row cannot be
//! repaired by any setting of the non-basic variables, i.e. the LP is primal
//! infeasible. This conclusion is independent of the (possibly shifted)
//! costs; it is double-checked against exactly recomputed basic values before
//! being reported.

use crate::basis::VarStatus;
use crate::error::LpError;
use crate::simplex::{PhaseWork, PivotLoop, ReducedCosts, SimplexState, FEAS_TOL, PIV_TOL};
use teccl_util::SolveBudget;

/// Result of a dual-simplex run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DualOutcome {
    /// The basis is primal feasible (and dual feasible for the given costs):
    /// optimal for the shifted objective.
    Optimal,
    /// The LP is primal infeasible (dual unbounded).
    Infeasible,
}

/// Tolerance below which a dual infeasibility is left for the final primal
/// cleanup pass instead of being flipped/shifted away.
const DUAL_FEAS_TOL: f64 = 1e-7;
/// Primal bound violations below this are accepted as feasible.
pub(crate) const PRIMAL_FEAS_TOL: f64 = 1e-7;

/// Makes the starting basis dual feasible for `cost`, modifying `cost` in
/// place where shifting is required.
///
/// * Boxed non-basic columns with a wrong-signed reduced cost are flipped to
///   their opposite bound (exact, no cost distortion).
/// * Non-boxed and free columns with a wrong-signed reduced cost get their
///   cost shifted so the reduced cost becomes zero.
///
/// Returns the reduced costs for the (possibly shifted) costs, which
/// [`dual_simplex`] takes over without re-pricing.
pub(crate) fn make_dual_feasible(state: &mut SimplexState, cost: &mut [f64]) -> ReducedCosts {
    let mut rc = ReducedCosts::of(state, cost);
    let mut flipped = false;
    #[allow(clippy::needless_range_loop)] // cost is indexed and mutated by j
    for j in 0..state.n + state.m {
        if state.status[j] == VarStatus::Basic || state.pinned[j] {
            continue; // fixed columns are always dual feasible
        }
        let dj = rc.d[j];
        let wrong_sign = match state.status[j] {
            VarStatus::AtLower => dj < -DUAL_FEAS_TOL,
            VarStatus::AtUpper => dj > DUAL_FEAS_TOL,
            VarStatus::Free => dj.abs() > DUAL_FEAS_TOL,
            VarStatus::Basic => false,
        };
        if !wrong_sign {
            continue;
        }
        // A free column is never boxed, so it is always shifted.
        if state.lb[j].is_finite() && state.ub[j].is_finite() {
            state.flip(j);
            flipped = true;
        } else {
            cost[j] -= dj; // shift: reduced cost becomes zero
            rc.d[j] = 0.0;
        }
    }
    if flipped {
        state.recompute_basic_values();
    }
    rc
}

/// Runs the dual simplex until the basis is primal feasible ([`DualOutcome::
/// Optimal`]), the LP is proven primal infeasible, the iteration budget is
/// exhausted ([`LpError::IterationLimit`]), or a numerical failure occurs —
/// the solve's next rung takes over on `Err`. `rc` are the reduced costs
/// [`make_dual_feasible`] left under `cost`.
pub(crate) fn dual_simplex(
    state: &mut SimplexState,
    cost: &[f64],
    rc: ReducedCosts,
    max_iters: usize,
    budget: Option<&SolveBudget>,
) -> Result<DualOutcome, LpError> {
    let mut work = std::mem::take(&mut state.work);
    let outcome = dual_pivots(state, &mut work, cost, rc, max_iters, budget);
    state.work = work;
    outcome
}

/// [`dual_simplex`] in the state's working vectors.
fn dual_pivots(
    state: &mut SimplexState,
    work: &mut PhaseWork,
    cost: &[f64],
    mut rc: ReducedCosts,
    max_iters: usize,
    budget: Option<&SolveBudget>,
) -> Result<DualOutcome, LpError> {
    let m = state.m;
    let ncols = state.n + state.m;

    // Dual-devex row reference weights (approximate ‖B⁻ᵀ e_i‖²).
    let mut row_weight = vec![1.0f64; m];
    debug_assert_eq!(rc.d.len(), ncols);

    // Hot-loop buffers. ρ, w and the flip batch travel with their non-zero
    // lists, so every pass below — pivot row, x-update, weights, eta, buffer
    // clearing — runs over what the vectors hold, not over `0..m`.
    let PhaseWork {
        w,
        rho,
        tau: delta_rhs,
        pivot_row,
    } = work;
    let mut alpha: Vec<(usize, f64)> = Vec::new(); // (col, α̂_j) per non-basic
    let mut breakpoints: Vec<(f64, usize, f64)> = Vec::new(); // (ratio, col, α̂_j)
    let mut flips: Vec<usize> = Vec::new();

    // Leaving-row candidates: every primal-infeasible row is listed (and
    // flagged in `in_infeas`); the pricing scan drops rows that turned
    // feasible, and each pivot re-checks only the rows whose basic value it
    // moved. `infeas_stale` — set whenever the basic values are recomputed
    // wholesale — makes the next scan start from all rows again.
    let row_violation = |state: &SimplexState, r: usize| -> f64 {
        let bvar = state.basis[r];
        if state.x[bvar] < state.lb[bvar] - PRIMAL_FEAS_TOL {
            state.x[bvar] - state.lb[bvar] // negative: below lower
        } else if state.x[bvar] > state.ub[bvar] + PRIMAL_FEAS_TOL {
            state.x[bvar] - state.ub[bvar] // positive: above upper
        } else {
            0.0
        }
    };
    // Whether column status `st` can move in the direction that closes the
    // violation when its pivot-row entry is `a`.
    let eligible = |st: VarStatus, a: f64| -> bool {
        match st {
            VarStatus::AtLower => a > 0.0,
            VarStatus::AtUpper => a < 0.0,
            VarStatus::Free => true,
            VarStatus::Basic => false,
        }
    };
    let mut infeas: Vec<usize> = Vec::with_capacity(m);
    let mut in_infeas = vec![false; m];
    let mut infeas_sorted = true;
    let mut infeas_stale = true;

    // Anti-stall: if the total primal infeasibility stops shrinking, disable
    // bound flipping and switch to a Bland-flavoured ratio test (lowest column
    // index among the minimal ratios). The hard iteration budget backstops
    // termination; the caller then goes cold.
    let stall_limit = (m + 16).min(512);
    let mut stall_count = 0usize;
    let mut conservative = false;
    let mut last_total_infeas = f64::INFINITY;

    // The basis is not primal feasible mid-dual, so the caller surfaces a
    // budget stop as a hard stop, not an incumbent.
    let mut frame = PivotLoop::new(max_iters, budget);
    loop {
        frame.charge()?;
        if frame.refresh_due(state) {
            state.refresh(cost, &mut rc)?;
            infeas_stale = true;
        }

        // ---- Row pricing: largest scaled infeasibility. ----
        //
        // The pricing threshold must match PRIMAL_FEAS_TOL, the threshold the
        // dual-unbounded verification uses below: a tighter one here would
        // let a sub-verification-tolerance violation be selected forever
        // (ratio test empty → verification says "noise" → re-selected), with
        // a full refactorization per spin. Violations under the threshold are
        // accepted as noise, like the EXPAND drift, and clamped at
        // extraction.
        //
        // The candidates are walked in ascending row order, so the first
        // maximum wins and `total_infeas` sums in the order a scan over all
        // rows would.
        if infeas_stale {
            infeas.clear();
            infeas.extend(0..m);
            in_infeas.fill(true);
            infeas_stale = false;
        } else if !infeas_sorted {
            infeas.sort_unstable();
        }
        infeas_sorted = true;
        let mut leave: Option<(usize, f64, f64)> = None; // (row, violation, score)
        let mut total_infeas = 0.0;
        let mut keep = 0usize;
        for idx in 0..infeas.len() {
            let r = infeas[idx];
            let v = row_violation(state, r);
            if v == 0.0 {
                in_infeas[r] = false;
                continue;
            }
            infeas[keep] = r;
            keep += 1;
            total_infeas += v.abs();
            let score = v * v / row_weight[r];
            if leave.as_ref().is_none_or(|&(_, _, s)| score > s) {
                leave = Some((r, v, score));
            }
        }
        infeas.truncate(keep);
        let Some((r, violation, _)) = leave else {
            return Ok(DualOutcome::Optimal); // primal feasible
        };
        frame.count(state);
        state.dual_iterations += 1;

        if total_infeas < last_total_infeas - 1e-12 {
            last_total_infeas = total_infeas;
            stall_count = 0;
        } else {
            stall_count += 1;
            if stall_count > stall_limit {
                conservative = true;
            }
        }

        // σ = +1 when the leaving variable violates its upper bound, −1 when
        // it violates its lower bound; α̂_j = σ·(ρ·A_j) uniformizes the two
        // cases: an entering candidate needs α̂_j·dir_j > 0.
        let sigma = if violation > 0.0 { 1.0 } else { -1.0 };
        // Whether this iteration's numbers come from a fresh factorization
        // (no eta drift): only then is an exhausted ratio test a trustworthy
        // Farkas certificate of infeasibility.
        let fresh_factors = state.lu.eta_count() == 0;

        // ρ = B⁻ᵀ e_r, then the tableau row α̂ over the non-basic columns.
        // Columns whose coefficient is below the pivot tolerance cannot be
        // pivoted on or flipped, but their *repair capacity* still matters to
        // the infeasibility certificate: a huge-range column with a tiny
        // coefficient can close a violation the certificate would otherwise
        // declare unclosable, so that capacity is tallied separately and
        // blocks the Infeasible verdict below.
        //
        // The row is gathered over ρ's non-zeros; its columns are then taken
        // in ascending order, so the breakpoint sort sees the candidates in
        // the order a scan over all columns would produce and breaks ties
        // the same way.
        rho.set_unit(r);
        state.lu.btran_sparse(rho);
        pivot_row.compute(state, rho);
        pivot_row.touched.sort_unstable();
        alpha.clear();
        let mut tiny_capacity = 0.0f64;
        for &ju in &pivot_row.touched {
            let j = ju as usize;
            if state.status[j] == VarStatus::Basic {
                continue;
            }
            let a = sigma * pivot_row.alpha[j];
            if a.abs() > PIV_TOL {
                alpha.push((j, a));
            } else if a != 0.0 && eligible(state.status[j], a) {
                tiny_capacity += (state.ub[j] - state.lb[j]) * a.abs(); // may be inf
            }
        }

        // ---- Bound-flipping dual ratio test. ----
        //
        // Breakpoints are eligible columns ordered by |d_j / α̂_j|. Walking
        // them in ratio order, a boxed column is *flipped* to its opposite
        // bound when the dual slope (initially the primal violation) stays
        // positive after absorbing its range; the first column that cannot be
        // flipped enters the basis. Running out of breakpoints with slope
        // still positive proves primal infeasibility.
        breakpoints.clear();
        breakpoints.extend(
            alpha
                .iter()
                .filter(|&&(j, a)| eligible(state.status[j], a))
                .map(|&(j, a)| ((rc.d[j] / a).max(0.0), j, a)),
        );
        if conservative {
            // Bland-flavoured: strict ratio order, ties by column index, no
            // flipping (each pivot is a plain minimal-ratio dual pivot).
            breakpoints.sort_unstable_by(|x, b| {
                x.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.1.cmp(&b.1))
            });
        } else {
            breakpoints.sort_unstable_by(|x, b| {
                x.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        let mut slope = violation.abs();
        let mut entering: Option<(usize, f64, f64)> = None; // (col, α̂, ratio)
        flips.clear();
        for &(ratio, j, a) in &breakpoints {
            let boxed = state.lb[j].is_finite() && state.ub[j].is_finite();
            let flip_cost = (state.ub[j] - state.lb[j]) * a.abs();
            if !conservative && boxed && slope - flip_cost > FEAS_TOL {
                // Long step: flip j and keep walking.
                slope -= flip_cost;
                flips.push(j);
            } else {
                entering = Some((j, a, ratio));
                break;
            }
        }

        let Some((enter, alpha_q, _ratio)) = entering else {
            // Dual unbounded → primal infeasible — but only when the slope,
            // the tableau row, and the basic values that fed the ratio test
            // came from a fresh factorization. Otherwise eta drift could have
            // inflated the violation past the total flip capacity (a stale
            // certificate); refresh everything and redo the iteration with
            // exact numbers — the next exhaustion on fresh factors (or the
            // violation dropping under tolerance) settles it.
            if fresh_factors {
                state.recompute_basic_values();
                if row_violation(state, r) != 0.0 {
                    // `slope` is what remains of the violation after every
                    // flippable breakpoint was consumed. If sub-pivot-
                    // tolerance columns could still close it, the certificate
                    // is numerically untrustworthy — hand the decision to a
                    // cold phase-1 solve instead of risking a false
                    // Infeasible (which would wrongly prune a B&B child).
                    if slope <= tiny_capacity {
                        return Err(LpError::Numerical(
                            "dual infeasibility certificate below pivot tolerance".into(),
                        ));
                    }
                    return Ok(DualOutcome::Infeasible);
                }
                // Noise: refresh the reduced costs and retry.
                rc.recompute(state, cost);
            } else {
                state.refresh(cost, &mut rc)?;
            }
            infeas_stale = true;
            continue;
        };

        // Dual step length; clamp tiny negatives from the DUAL_FEAS_TOL slack.
        let theta_d = (rc.d[enter] / alpha_q).max(0.0);

        // ---- Apply the bound flips (batched single FTRAN). ----
        if !flips.is_empty() {
            delta_rhs.clear();
            for &j in &flips {
                let dx = state.flip(j);
                if j < state.n {
                    for (i, v) in state.sf.a.col(j).iter() {
                        delta_rhs.add(i, v * dx);
                    }
                } else {
                    delta_rhs.add(j - state.n, state.art_sign[j - state.n] * dx);
                }
            }
            state.lu.ftran_sparse(delta_rhs);
            for i in delta_rhs.indices() {
                let bvar = state.basis[i];
                state.x[bvar] -= delta_rhs.values[i];
            }
        }

        // ---- Pivot: `enter` replaces the row-r basic variable. ----
        state.ftran_col_into(enter, w);
        if w.values[r].abs() <= PIV_TOL {
            // ρ-based and FTRAN-based pivots disagree badly: refactorize and
            // retry from clean numbers; a second failure hands over to the
            // next rung.
            state.refresh(cost, &mut rc)?;
            infeas_stale = true;
            state.ftran_col_into(enter, w);
            if w.values[r].abs() <= PIV_TOL {
                return Err(LpError::Numerical(format!(
                    "dual pivot too small ({:.3e})",
                    w.values[r]
                )));
            }
        }

        // The leaving variable lands exactly on the bound it violated.
        let leaving = state.basis[r];
        let target = if violation > 0.0 {
            state.ub[leaving]
        } else {
            state.lb[leaving]
        };
        state.step(w, enter, (state.x[leaving] - target) / w.values[r]);
        state.exchange(r, enter, violation > 0.0);

        // Incremental reduced-cost update: d_j ← d_j − θ_d·α̂_j over the
        // non-basic columns; the leaving column picks up ∓θ_d.
        if theta_d != 0.0 {
            for &(j, a) in &alpha {
                if j != enter {
                    rc.d[j] -= theta_d * a;
                }
            }
        }
        rc.d[enter] = 0.0;
        rc.d[leaving] = -sigma * theta_d;

        // Dual-devex weight update from the pivot column spike.
        let wr = w.values[r];
        let gamma_r = row_weight[r].max(1.0);
        for i in w.indices() {
            let wi = w.values[i];
            if i == r || wi == 0.0 {
                continue;
            }
            let cand = (wi / wr) * (wi / wr) * gamma_r;
            if cand > row_weight[i] {
                row_weight[i] = cand;
            }
        }
        row_weight[r] = (gamma_r / (wr * wr)).max(1.0);

        if state.update_factors(w, r)? {
            rc.recompute(state, cost);
            infeas_stale = true;
        }

        // Basic values moved only in the rows the flip batch and w reach
        // (row r, now holding the entering variable, is one of w's): list
        // the ones that are infeasible now.
        if !infeas_stale {
            let flipped = (!flips.is_empty()).then_some(&delta_rhs);
            for i in flipped.into_iter().chain([&w]).flat_map(|v| v.indices()) {
                if !in_infeas[i] && row_violation(state, i) != 0.0 {
                    in_infeas[i] = true;
                    infeas.push(i);
                    infeas_sorted = false;
                }
            }
        }
    }
}

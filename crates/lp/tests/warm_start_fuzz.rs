//! Randomized (seeded, deterministic) cross-check of the warm-started simplex
//! against cold solves: on a corpus of small bounded LPs, a warm re-solve
//! after a bound change must agree with a from-scratch solve to 1e-6. Cold
//! optima are also certified against the original model by
//! [`Model::certify`], which shares no code with the simplex, and
//! branch-and-bound results on small binary corpora against enumeration of
//! every point. A warm start that adopts the factors its basis carries must
//! give, bit for bit, what the same start gives after factorizing.

use teccl_lp::model::{ConstraintOp, Model, Sense};
use teccl_lp::simplex::solve_standard_form_budgeted;
use teccl_lp::standard::StandardForm;
use teccl_lp::{
    LpError, MilpConfig, MilpLayout, SimplexBasis, Solution, SolveBudget, SolveStatus, VarStatus,
};

/// [`solve_standard_form_budgeted`] without a budget, checked against the
/// start ladder's contract on every solve of the corpora below that has a
/// row: exactly one start — warm or cold — finished it, and its dual pivots
/// are a part of its pivots, whatever rungs gave up on the way.
fn solve_from(
    sf: &StandardForm,
    nv: usize,
    overrides: &[(usize, f64, f64)],
    warm: Option<&SimplexBasis>,
) -> Result<Solution, LpError> {
    let sol = solve_standard_form_budgeted(sf, nv, overrides, warm, None)?;
    let st = &sol.stats;
    if sf.num_rows() > 0 {
        assert_eq!(st.warm_starts + st.cold_starts, 1, "{st:?}");
        assert!(st.dual_iterations <= st.simplex_iterations, "{st:?}");
    }
    Ok(sol)
}

/// [`solve_from`] from a cold start with the form's own bounds.
fn solve_cold(sf: &StandardForm, nv: usize) -> Result<Solution, LpError> {
    solve_from(sf, nv, &[], None)
}

/// `m` solved cold and unbudgeted with the default B&B over its own layout.
fn solve_model(m: &Model) -> Result<Solution, LpError> {
    m.solve_over(&MilpLayout::new(m), &MilpConfig::default(), None, None)
}

/// Small deterministic LCG so the corpus is stable across runs and platforms.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform in [0, 1).
    fn f(&mut self) -> f64 {
        (self.next_u64() & ((1 << 53) - 1)) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f() * (hi - lo)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A random LP with finite variable bounds (guaranteeing a bounded objective)
/// and a mix of constraint senses. Feasibility is not guaranteed — both
/// solvers must agree on that too.
fn random_lp(rng: &mut Lcg) -> Model {
    let nvars = 2 + rng.below(8);
    let ncons = 1 + rng.below(6);
    let sense = if rng.f() < 0.5 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut m = Model::new(sense);
    let mut vars = Vec::new();
    for j in 0..nvars {
        let lb = rng.range(-10.0, 5.0);
        let ub = lb + rng.range(0.0, 15.0);
        let obj = rng.range(-5.0, 5.0);
        vars.push(m.add_var(format!("x{j}"), lb, ub, obj, false));
    }
    for i in 0..ncons {
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.f() < 0.7 {
                terms.push((v, rng.range(-4.0, 4.0)));
            }
        }
        if terms.is_empty() {
            terms.push((vars[0], 1.0));
        }
        let op = match rng.below(4) {
            0 => ConstraintOp::Ge,
            1 => ConstraintOp::Eq,
            _ => ConstraintOp::Le, // bias towards feasible instances
        };
        let rhs = rng.range(-10.0, 25.0);
        m.add_cons(format!("c{i}"), &terms, op, rhs);
    }
    m
}

#[test]
fn warm_and_cold_solves_agree_on_random_corpus() {
    let mut rng = Lcg(0x5eed_c0ffee);
    let mut solved = 0usize;
    let mut warmed = 0usize;
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let sf = StandardForm::from_model(&m);
        let nv = m.num_vars();
        let cold = solve_cold(&sf, nv).unwrap_or_else(|e| panic!("case {case}: {e}"));
        if cold.status != SolveStatus::Optimal {
            // Infeasible instances are fine; just confirm determinism.
            let again = solve_cold(&sf, nv).unwrap();
            assert_eq!(again.status, cold.status, "case {case}");
            continue;
        }
        solved += 1;
        let basis = cold.basis.clone().expect("optimal LP must return a basis");

        // Re-solve the *same* problem warm: identical objective required.
        let resolve = solve_from(&sf, nv, &[], Some(&basis)).unwrap();
        assert_eq!(resolve.status, SolveStatus::Optimal, "case {case}");
        assert!(
            (resolve.objective - cold.objective).abs() < 1e-6,
            "case {case}: warm resolve {} vs cold {}",
            resolve.objective,
            cold.objective
        );

        // Perturb one variable bound (tighten towards the optimal value so
        // the instance usually stays feasible) and compare warm vs cold.
        let j = rng.below(nv);
        let (lo, hi) = (m.vars[j].lb, m.vars[j].ub);
        let xj = cold.values[j];
        let overrides = if rng.f() < 0.5 {
            [(j, lo, (xj + rng.range(0.0, 2.0)).min(hi).max(lo))]
        } else {
            [(j, (xj - rng.range(0.0, 2.0)).max(lo).min(hi), hi)]
        };
        let warm = solve_from(&sf, nv, &overrides, Some(&basis)).unwrap();
        let cold2 = solve_from(&sf, nv, &overrides, None).unwrap();
        assert_eq!(
            warm.status, cold2.status,
            "case {case}: warm {:?} vs cold {:?} after override {overrides:?}",
            warm.status, cold2.status
        );
        if warm.status == SolveStatus::Optimal {
            assert!(
                (warm.objective - cold2.objective).abs() < 1e-6,
                "case {case}: warm {} vs cold {} after override {overrides:?}",
                warm.objective,
                cold2.objective
            );
            warmed += 1;
        }
    }
    // The corpus must actually exercise both paths.
    assert!(solved >= 80, "only {solved} optimal instances");
    assert!(warmed >= 60, "only {warmed} warm re-solves");
}

/// A warm basis of the right shape whose columns are linearly dependent
/// cannot be factorized: the warm rung gives up and the cold ladder returns
/// the cold optimum, counted as one cold start and no warm one.
#[test]
fn singular_warm_basis_returns_the_cold_optimum() {
    // max x + y  s.t.  x + y <= 4,  2x + 2y <= 10: the columns of x and y
    // are parallel, so the basis {x, y} is singular.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var("x", 0.0, 10.0, 1.0, false);
    let y = m.add_var("y", 0.0, 10.0, 1.0, false);
    m.add_cons("c0", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
    m.add_cons("c1", &[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 10.0);
    let sf = StandardForm::from_model(&m);
    let cold = solve_cold(&sf, 2).unwrap();
    let singular = SimplexBasis {
        basic: vec![0, 1],
        status: vec![
            VarStatus::Basic,
            VarStatus::Basic,
            VarStatus::AtLower,
            VarStatus::AtLower,
        ],
        factors: None,
    };
    let sol = solve_from(&sf, 2, &[], Some(&singular)).unwrap();
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
    assert_eq!((sol.stats.warm_starts, sol.stats.cold_starts), (0, 1));
}

/// A budget that trips inside a warm dual re-solve stops the solve with
/// [`LpError::Budget`]: there is no primal-feasible point to hand back, and a
/// cold start would only spend more of a spent budget. The budget's count is
/// then the tripping charge, not a cold walk's.
#[test]
fn budget_stop_in_a_warm_dual_does_not_go_cold() {
    const CAP: u64 = 1;
    let mut rng = Lcg(0x5eed_c0ffee);
    let mut stopped = 0usize;
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let sf = StandardForm::from_model(&m);
        let nv = m.num_vars();
        let cold = solve_cold(&sf, nv).unwrap_or_else(|e| panic!("case {case}: {e}"));
        let Some(basis) = cold.basis.as_ref() else {
            continue;
        };
        // Move one variable's range off the optimum, so the warm basis is
        // primal infeasible and the dual has to repair it.
        let j = rng.below(nv);
        let (lo, hi) = (m.vars[j].lb, m.vars[j].ub);
        let xj = cold.values[j];
        let overrides = if xj - lo > hi - xj {
            [(j, lo, lo + 0.5 * (xj - lo))]
        } else {
            [(j, xj + 0.5 * (hi - xj), hi)]
        };
        let free = solve_from(&sf, nv, &overrides, Some(basis)).unwrap();
        if free.stats.warm_starts != 1 || free.stats.dual_iterations <= CAP as usize {
            continue;
        }
        let budget = SolveBudget::with_iteration_cap(CAP);
        let res = solve_standard_form_budgeted(&sf, nv, &overrides, Some(basis), Some(&budget));
        assert!(
            matches!(res, Err(LpError::Budget(_))),
            "case {case}: {:?}",
            res.map(|s| (s.status, s.stats))
        );
        assert!(
            budget.iterations_used() <= CAP + 1,
            "case {case}: {} charges",
            budget.iterations_used()
        );
        stopped += 1;
    }
    assert!(stopped >= 5, "only {stopped} warm duals tripped the budget");
}

/// Every optimal cold solve of the random corpus (raw standard form, no
/// presolve) carries a certificate the independent checker accepts;
/// infeasible and unbounded outcomes keep their status assertion.
#[test]
fn optimal_solves_are_certified_on_random_corpus() {
    let mut rng = Lcg(0x5eed_c0ffee);
    let mut solved = 0usize;
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let sf = StandardForm::from_model(&m);
        let sol = solve_cold(&sf, m.num_vars()).unwrap_or_else(|e| panic!("case {case}: {e}"));
        match sol.status {
            SolveStatus::Optimal => {
                solved += 1;
                m.certify(&sol)
                    .unwrap_or_else(|e| panic!("case {case}: {e}"));
            }
            SolveStatus::Infeasible | SolveStatus::Unbounded => {}
            other => panic!("case {case}: unexpected status {other:?}"),
        }
    }
    assert!(solved >= 80, "only {solved} optimal instances");
}

/// B&B-shaped sequences: starting from a cold optimal basis, apply a chain of
/// cumulative bound tightenings, re-solving warm (dual simplex) from the
/// previous step's basis at every step, and cross-check each step against a
/// from-scratch cold solve of the same cumulative overrides.
#[test]
fn dual_resolves_agree_with_cold_over_bound_tightening_sequences() {
    let mut rng = Lcg(0x0b0b_b1e5);
    let mut chains = 0usize;
    let mut warm_steps = 0usize;
    let mut dual_pivot_steps = 0usize;
    let mut fallbacks = 0usize;
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let sf = StandardForm::from_model(&m);
        let nv = m.num_vars();
        let cold = solve_cold(&sf, nv).unwrap_or_else(|e| panic!("case {case}: {e}"));
        if cold.status != SolveStatus::Optimal {
            continue;
        }
        chains += 1;
        let mut basis = cold.basis.clone().expect("optimal LP returns a basis");
        let mut reference = cold;
        let mut overrides: Vec<(usize, f64, f64)> = Vec::new();
        let depth = 2 + rng.below(4); // 2..=5 tightenings, like a B&B path
        for step in 0..depth {
            // Tighten a bound towards (sometimes past) the current optimum,
            // the way branching does; cumulative like a B&B node's path.
            let j = rng.below(nv);
            let (mut lo, mut hi) = (m.vars[j].lb, m.vars[j].ub);
            for &(k, l, h) in &overrides {
                if k == j {
                    lo = l;
                    hi = h;
                }
            }
            let xj = reference.values[j].clamp(lo, hi);
            if rng.f() < 0.5 {
                hi = (xj - rng.range(0.0, 1.0)).max(lo);
            } else {
                lo = (xj + rng.range(0.0, 1.0)).min(hi);
            }
            overrides.retain(|&(k, _, _)| k != j);
            overrides.push((j, lo, hi));

            let warm = solve_from(&sf, nv, &overrides, Some(&basis))
                .unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
            let cold2 = solve_from(&sf, nv, &overrides, None)
                .unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
            assert_eq!(
                warm.status, cold2.status,
                "case {case} step {step}: warm {:?} vs cold {:?} ({overrides:?})",
                warm.status, cold2.status
            );
            if warm.stats.warm_starts == 1 {
                warm_steps += 1;
                if warm.stats.dual_iterations > 0 {
                    dual_pivot_steps += 1;
                }
            } else {
                fallbacks += 1;
            }
            if warm.status != SolveStatus::Optimal {
                break; // the branch went infeasible — chain over
            }
            assert!(
                (warm.objective - cold2.objective).abs() < 1e-6,
                "case {case} step {step}: warm {} vs cold {} ({overrides:?})",
                warm.objective,
                cold2.objective
            );
            basis = warm
                .basis
                .clone()
                .expect("optimal warm solve returns a basis");
            reference = warm;
        }
    }
    assert!(chains >= 50, "only {chains} chains exercised");
    assert!(warm_steps >= 100, "only {warm_steps} warm dual re-solves");
    assert!(
        dual_pivot_steps * 4 >= warm_steps,
        "dual simplex barely pivots: {dual_pivot_steps}/{warm_steps}"
    );
    // The dual path may abandon a numerically hopeless basis, but falling
    // back to cold must be the exception, not the rule.
    assert!(
        fallbacks * 10 <= warm_steps.max(10),
        "{fallbacks} cold fallbacks vs {warm_steps} warm steps"
    );
}

/// A fixed small ALLTOALL-shaped LP (time-expanded per-source flows on a
/// ring, shared link capacities, early-read rewards — the §4.1 structure that
/// makes the real instances massively degenerate). Regression: it must solve
/// to optimality well under the historic plateau counts.
#[test]
#[allow(clippy::needless_range_loop)] // index-parallel var tables
fn degenerate_alltoall_shaped_lp_solves_under_iteration_budget() {
    let n = 6usize; // ring nodes
    let k_max = 8usize; // epochs
    let mut m = Model::new(Sense::Maximize);
    // Links: i -> (i+1) % n and i -> (i-1) % n.
    let links: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i + n - 1) % n)])
        .collect();
    // F[s][l][k], B[s][node][k] (k in 0..=k_max), r[s][d][k].
    let mut f = vec![vec![[None; 8]; links.len()]; n];
    let mut b = vec![vec![[None; 9]; n]; n];
    let mut r = vec![vec![[None; 8]; n]; n];
    for s in 0..n {
        for (l, &(u, v)) in links.iter().enumerate() {
            for k in 0..k_max {
                f[s][l][k] = Some(m.add_var(
                    format!("F[{s},{u}->{v},{k}]"),
                    0.0,
                    f64::INFINITY,
                    0.0,
                    false,
                ));
            }
        }
        for node in 0..n {
            for k in 0..=k_max {
                b[s][node][k] =
                    Some(m.add_var(format!("B[{s},{node},{k}]"), 0.0, f64::INFINITY, 0.0, false));
            }
        }
        for d in 0..n {
            if d == s {
                continue;
            }
            for k in 0..k_max {
                let w = 1.0 / (k as f64 + 1.0);
                r[s][d][k] =
                    Some(m.add_var(format!("r[{s},{d},{k}]"), 0.0, f64::INFINITY, w, false));
            }
        }
    }
    for s in 0..n {
        // Epoch 0: everything sits at the source.
        let mut init = vec![(b[s][s][0].unwrap(), 1.0)];
        for (l, &(u, _)) in links.iter().enumerate() {
            if u == s {
                init.push((f[s][l][0].unwrap(), 1.0));
            } else {
                m.add_cons(
                    format!("zf[{s},{l}]"),
                    &[(f[s][l][0].unwrap(), 1.0)],
                    ConstraintOp::Eq,
                    0.0,
                );
            }
        }
        m.add_cons(
            format!("init[{s}]"),
            &init,
            ConstraintOp::Eq,
            (n - 1) as f64,
        );
        for node in 0..n {
            if node != s {
                m.add_cons(
                    format!("zb[{s},{node}]"),
                    &[(b[s][node][0].unwrap(), 1.0)],
                    ConstraintOp::Eq,
                    0.0,
                );
            }
            // Flow conservation per epoch (α = 0: arrivals land same epoch).
            for k in 0..k_max {
                let mut terms: Vec<(teccl_lp::VarId, f64)> = Vec::new();
                for (l, &(_, v)) in links.iter().enumerate() {
                    if v == node {
                        terms.push((f[s][l][k].unwrap(), 1.0));
                    }
                }
                terms.push((b[s][node][k].unwrap(), 1.0));
                terms.push((b[s][node][k + 1].unwrap(), -1.0));
                if node != s {
                    if let Some(rv) = r[s][node][k] {
                        terms.push((rv, -1.0));
                    }
                }
                if k + 1 < k_max {
                    for (l, &(u, _)) in links.iter().enumerate() {
                        if u == node {
                            terms.push((f[s][l][k + 1].unwrap(), -1.0));
                        }
                    }
                }
                m.add_cons(
                    format!("flow[{s},{node},{k}]"),
                    &terms,
                    ConstraintOp::Eq,
                    0.0,
                );
            }
        }
        // Destination totals: each non-source destination reads exactly 1.
        for d in 0..n {
            if d == s {
                continue;
            }
            let terms: Vec<_> = (0..k_max).map(|k| (r[s][d][k].unwrap(), 1.0)).collect();
            m.add_cons(format!("dst[{s},{d}]"), &terms, ConstraintOp::Eq, 1.0);
        }
    }
    // Shared link capacity: 1 chunk per epoch across all sources — the
    // coupling that creates the massive tie structure.
    for (l, &(u, v)) in links.iter().enumerate() {
        for k in 0..k_max {
            let terms: Vec<_> = (0..n).map(|s| (f[s][l][k].unwrap(), 1.0)).collect();
            m.add_cons(format!("cap[{u}->{v},{k}]"), &terms, ConstraintOp::Le, 1.0);
        }
    }

    let sol = solve_model(&m).expect("alltoall-shaped LP solves");
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert!(
        !sol.stats.iteration_limit_hit,
        "degenerate LP tripped the iteration limit"
    );
    // Pre-EXPAND this structure stalled for O(100k) iterations at scale; the
    // small instance must stay comfortably in the thousands.
    assert!(
        sol.stats.simplex_iterations < 10_000,
        "degeneracy regression: {} iterations",
        sol.stats.simplex_iterations
    );
    // Every destination got every chunk (total reads = n * (n-1)).
    let total_read: f64 = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .filter(|&(s, d)| s != d)
        .flat_map(|(s, d)| (0..k_max).map(move |k| (s, d, k)))
        .filter_map(|(s, d, k)| r[s][d][k].map(|v| sol.value(v)))
        .sum();
    assert!((total_read - (n * (n - 1)) as f64).abs() < 1e-5);
}

/// Presolve-on-vs-off agreement over the random-LP corpus: the
/// layout-preserving presolve must not change the answer — `Model::solve_lp_
/// relaxation` (presolve on) and a raw standard-form solve (no presolve) must
/// agree on status and objective to 1e-6 on every instance. On top of that,
/// the *basis* of either solve must warm-start the other: presolve only
/// tightens bounds and relaxes freed-row slacks, so the column space is one
/// and the same.
#[test]
fn presolve_on_and_off_agree_and_share_one_column_space() {
    let mut rng = Lcg(0x1a70_0071);
    let mut solved = 0usize;
    let mut crossed = 0usize;
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let nv = m.num_vars();
        let sf_raw = StandardForm::from_model(&m);
        let raw = solve_cold(&sf_raw, nv).unwrap_or_else(|e| panic!("case {case}: {e}"));
        let pre = m
            .solve_lp_relaxation_budgeted(None, None)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            pre.status, raw.status,
            "case {case}: presolve-on {:?} vs presolve-off {:?}",
            pre.status, raw.status
        );
        if !pre.status.has_solution() {
            continue;
        }
        solved += 1;
        assert!(
            (pre.objective - raw.objective).abs() < 1e-6,
            "case {case}: presolve-on {} vs presolve-off {}",
            pre.objective,
            raw.objective
        );

        // One column space: the presolved solve's basis warm-starts the raw
        // form, and the raw solve's basis warm-starts a presolved re-solve.
        let (pre_basis, raw_basis) = (pre.basis.as_ref(), raw.basis.as_ref());
        if let Some(b) = pre_basis {
            let w = solve_from(&sf_raw, nv, &[], Some(b)).unwrap();
            assert_eq!(w.status, SolveStatus::Optimal, "case {case}");
            assert_eq!(
                w.stats.warm_starts, 1,
                "case {case}: presolved basis rejected"
            );
            assert!((w.objective - raw.objective).abs() < 1e-6, "case {case}");
            crossed += 1;
        }
        if let Some(b) = raw_basis {
            let w = m.solve_lp_relaxation_budgeted(Some(b), None).unwrap();
            assert_eq!(w.status, SolveStatus::Optimal, "case {case}");
            assert_eq!(w.stats.warm_starts, 1, "case {case}: raw basis rejected");
            assert!((w.objective - raw.objective).abs() < 1e-6, "case {case}");
        }
    }
    assert!(solved >= 80, "only {solved} optimal instances");
    assert!(crossed >= 60, "only {crossed} cross-presolve warm starts");
}

/// The optimum of an all-binary `m` by enumeration: every one of the 2ⁿ
/// points is checked with [`Model::is_feasible`] and the best objective in
/// the model's sense wins. `None` means no point is feasible. Shares nothing
/// with the branch-and-bound it referees.
fn brute_force_optimum(m: &Model) -> Option<f64> {
    let n = m.num_vars();
    assert!(n <= 12, "enumeration is for small corpora ({n} binaries)");
    let mut best: Option<f64> = None;
    let mut x = vec![0.0; n];
    for bits in 0u32..1 << n {
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = f64::from((bits >> j) & 1);
        }
        if !m.is_feasible(&x, 1e-9) {
            continue;
        }
        let obj = m.eval_objective(&x);
        let improves = |b: f64| match m.sense {
            Sense::Maximize => obj > b,
            Sense::Minimize => obj < b,
        };
        if best.is_none_or(improves) {
            best = Some(obj);
        }
    }
    best
}

/// Solves `m` with the default B&B and checks the result against
/// [`brute_force_optimum`]: the same status, and the objective within 1e-6.
/// Returns the solution for the caller's machinery counters.
fn assert_matches_brute_force(m: &Model, case: usize) -> Solution {
    let sol = solve_model(m).unwrap_or_else(|e| panic!("case {case}: {e}"));
    match brute_force_optimum(m) {
        None => assert_eq!(sol.status, SolveStatus::Infeasible, "case {case}"),
        Some(best) => {
            assert_eq!(sol.status, SolveStatus::Optimal, "case {case}");
            assert!(
                (sol.objective - best).abs() < 1e-6,
                "case {case}: B&B {} vs enumeration {best}",
                sol.objective
            );
            assert!(m.is_feasible(&sol.values, 1e-6), "case {case}");
        }
    }
    sol
}

/// A knapsack with a cardinality side constraint and mixed weights: branching
/// one binary shrinks the residual capacity, which is what the per-node
/// presolve's row-activity propagation converts into fixings of the others.
fn card_knapsack(rng: &mut Lcg) -> Model {
    let nvars = 4 + rng.below(8);
    let mut m = Model::new(Sense::Maximize);
    let xs: Vec<_> = (0..nvars)
        .map(|j| m.add_binary_var(format!("x{j}"), rng.range(1.0, 10.0)))
        .collect();
    let terms: Vec<_> = xs.iter().map(|&x| (x, rng.range(1.0, 6.0))).collect();
    m.add_cons("cap", &terms, ConstraintOp::Le, rng.range(4.0, 14.0));
    let t2: Vec<_> = xs.iter().map(|&x| (x, 1.0)).collect();
    m.add_cons(
        "card",
        &t2,
        ConstraintOp::Le,
        (2 + rng.below(nvars / 2)) as f64,
    );
    m
}

/// Every [`card_knapsack`] result matches enumeration, and the tightening
/// machinery must actually fire somewhere in the corpus.
#[test]
fn node_presolved_milps_match_brute_force() {
    let mut rng = Lcg(0x9e0d_e135);
    let mut solved = 0usize;
    let mut tightenings = 0usize;
    let mut runs_with_tightening = 0usize;
    for case in 0..40 {
        let m = card_knapsack(&mut rng);
        let sol = assert_matches_brute_force(&m, case);
        if sol.status.has_solution() {
            solved += 1;
        }
        tightenings += sol.stats.node_tightenings;
        if sol.stats.node_tightenings > 0 {
            runs_with_tightening += 1;
        }
    }
    assert!(solved >= 30, "only {solved} solved MILPs");
    assert!(
        tightenings > 0 && runs_with_tightening >= 5,
        "per-node presolve never fired: {tightenings} tightenings in {runs_with_tightening} runs"
    );
}

/// One layout serves every model of its shape: a [`MilpLayout`] built from a
/// [`card_knapsack`] `m` solves `m′` — `m` with perturbed bounds, costs and
/// right-hand sides — to the bit as [`Model::solve_over`] on `m′` over a
/// layout of its own: values, objective, pivot / node /
/// factorization counts and the returned basis, cold and warm-started from
/// `m`'s basis.
#[test]
fn a_layout_solves_same_shaped_milps_bit_identically() {
    let mut rng = Lcg(0x1a70_0031);
    let config = MilpConfig::default();
    let mut branched = 0usize;
    for case in 0..40 {
        let m = card_knapsack(&mut rng);
        let layout = MilpLayout::new(&m);
        let base = m.solve_over(&layout, &config, None, None).unwrap();
        let mut perturbed = m.clone();
        for v in &mut perturbed.vars {
            v.obj = rng.range(-2.0, 10.0);
            if rng.f() < 0.2 {
                let pin = rng.below(2) as f64;
                (v.lb, v.ub) = (pin, pin);
            }
        }
        for c in &mut perturbed.cons {
            c.rhs += rng.range(-2.0, 3.0);
        }
        for warm in [None, base.basis.as_ref()] {
            let over = perturbed.solve_over(&layout, &config, warm, None).unwrap();
            let own = perturbed
                .solve_over(&MilpLayout::new(&perturbed), &config, warm, None)
                .unwrap();
            assert_eq!(over.status, own.status, "case {case}");
            let bits = |s: &Solution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&over), bits(&own), "case {case}");
            assert_eq!(
                over.objective.to_bits(),
                own.objective.to_bits(),
                "case {case}"
            );
            // A warm start over the shared layout adopts the factors its
            // basis carries, one over a layout of its own refactorizes: the
            // same factorization either way.
            let counts = |s: &Solution| {
                let st = &s.stats;
                [
                    st.simplex_iterations,
                    st.dual_iterations,
                    st.factorizations + st.factors_adopted,
                    st.nodes_explored,
                    st.warm_starts,
                ]
            };
            assert_eq!(counts(&over), counts(&own), "case {case}");
            assert_eq!(over.basis, own.basis, "case {case}");
            if over.stats.nodes_explored > 1 {
                branched += 1;
            }
        }
    }
    assert!(branched >= 10, "only {branched} solves branched");
}

/// Summed counters plus an FNV-1a hash of every status, objective and value
/// bit over a run of solves.
#[derive(Default)]
struct Tally {
    /// Simplex iterations, dual iterations, factorizations, warm starts, cold
    /// starts, warm starts that adopted carried factors.
    counts: [usize; 6],
    hash: u64,
}

impl Tally {
    fn add(&mut self, sol: &Solution) {
        let st = &sol.stats;
        let counts = [
            st.simplex_iterations,
            st.dual_iterations,
            st.factorizations,
            st.warm_starts,
            st.cold_starts,
            st.factors_adopted,
        ];
        for (sum, c) in self.counts.iter_mut().zip(counts) {
            *sum += c;
        }
        let words = [sol.status as u64, sol.objective.to_bits()];
        let values = sol.values.iter().map(|v| v.to_bits());
        for word in words.into_iter().chain(values) {
            for byte in word.to_le_bytes() {
                self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

/// The pivots of every way into the solver, pinned: over the seeded LP
/// corpus — a cold solve, a warm re-solve of the same form, then a warm and
/// a cold solve after one bound override — and the knapsack MILPs, the summed
/// pivot / dual pivot / factorization / warm / cold counts and a hash of
/// every status, objective and value bit. The corpus reaches every rung of
/// the start ladder (warm, dual from the slack basis, primal phase 1) and
/// both of its exits (optimal, infeasible). A change that moves one pivot,
/// or one rounding, anywhere in it moves these numbers.
#[test]
fn solve_ladder_work_is_pinned_on_random_corpus() {
    let mut rng = Lcg(0x1add_e700);
    let mut tally = Tally {
        hash: 0xcbf2_9ce4_8422_2325,
        ..Tally::default()
    };
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let sf = StandardForm::from_model(&m);
        let nv = m.num_vars();
        let solve = |overrides: &[(usize, f64, f64)], warm| {
            solve_from(&sf, nv, overrides, warm).unwrap_or_else(|e| panic!("case {case}: {e}"))
        };
        let cold = solve(&[], None);
        tally.add(&cold);
        let Some(basis) = cold.basis.as_ref() else {
            continue;
        };
        tally.add(&solve(&[], Some(basis)));
        let j = rng.below(nv);
        let (lo, hi) = (m.vars[j].lb, m.vars[j].ub);
        let cut = lo + rng.f() * (hi - lo);
        let overrides = if rng.f() < 0.5 {
            [(j, lo, cut)]
        } else {
            [(j, cut, hi)]
        };
        tally.add(&solve(&overrides, Some(basis)));
        tally.add(&solve(&overrides, None));
    }
    for case in 0..40 {
        let m = card_knapsack(&mut rng);
        tally.add(&solve_model(&m).unwrap_or_else(|e| panic!("knapsack {case}: {e}")));
    }
    // Every warm start here re-solves the form its basis came from, so all
    // 502 adopt the factors that basis carries: 1 608 factorizations before
    // the factors were carried, 1 106 + 502 adopted since.
    assert_eq!(tally.counts, [2360, 384, 1106, 502, 330, 502]);
    assert_eq!(tally.counts[2] + tally.counts[5], 1608);
    assert_eq!(tally.hash, 0x5b0e_70f8_d14f_a5fe);
}

/// Random small knapsack-ish MILPs, every result checked against
/// enumeration.
#[test]
fn milps_match_brute_force_on_random_corpus() {
    let mut rng = Lcg(0xdead_beef);
    let mut solved = 0usize;
    for case in 0..40 {
        let nvars = 3 + rng.below(6);
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..nvars)
            .map(|j| m.add_binary_var(format!("x{j}"), rng.range(1.0, 10.0)))
            .collect();
        let terms: Vec<_> = xs.iter().map(|&x| (x, rng.range(1.0, 6.0))).collect();
        let cap = rng.range(4.0, 14.0);
        m.add_cons("cap", &terms, ConstraintOp::Le, cap);
        if nvars > 4 {
            let t2: Vec<_> = xs.iter().map(|&x| (x, 1.0)).collect();
            m.add_cons("card", &t2, ConstraintOp::Le, (nvars / 2) as f64);
        }
        if assert_matches_brute_force(&m, case).status.has_solution() {
            solved += 1;
        }
    }
    assert!(solved >= 30, "only {solved} solved MILPs");
}

/// Everything a solve reports that must not depend on whether its warm start
/// adopted carried factors or factorized the same basis: status, objective,
/// value and dual bits, the basis, pivots and the factorization count with
/// the adoption counted in.
fn fingerprint(sol: &Solution) -> (SolveStatus, Vec<u64>, Option<SimplexBasis>, [usize; 4]) {
    let st = &sol.stats;
    let bits = std::iter::once(sol.objective)
        .chain(sol.values.iter().copied())
        .chain(sol.duals.iter().copied())
        .map(f64::to_bits)
        .collect();
    let counts = [
        st.simplex_iterations,
        st.dual_iterations,
        st.factorizations + st.factors_adopted,
        st.warm_starts,
    ];
    (sol.status, bits, sol.basis.clone(), counts)
}

/// `basis` without the factors it carries.
fn stripped(basis: &SimplexBasis) -> SimplexBasis {
    SimplexBasis {
        factors: None,
        ..basis.clone()
    }
}

/// Over one form, a warm re-solve after a bound change that adopts the
/// factors its basis carries and the same re-solve from the stripped basis
/// agree bit for bit, and both optima pass [`Model::certify`].
#[test]
fn adopted_factors_solve_like_a_fresh_factorization() {
    let mut rng = Lcg(0xfac7_0c1d);
    let (mut adopted, mut certified) = (0usize, 0usize);
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let sf = StandardForm::from_model(&m);
        let nv = m.num_vars();
        let cold = solve_cold(&sf, nv).unwrap();
        let Some(basis) = cold.basis.as_ref() else {
            continue;
        };
        assert!(
            basis.factors.is_some(),
            "case {case}: an optimum carries its factors"
        );
        let j = rng.below(nv);
        let (lo, hi) = (m.vars[j].lb, m.vars[j].ub);
        let cut = lo + rng.f() * (hi - lo);
        let overrides = if rng.f() < 0.5 {
            [(j, lo, cut)]
        } else {
            [(j, cut, hi)]
        };
        let carried = solve_from(&sf, nv, &overrides, Some(basis)).unwrap();
        let fresh = solve_from(&sf, nv, &overrides, Some(&stripped(basis))).unwrap();
        assert_eq!(fingerprint(&carried), fingerprint(&fresh), "case {case}");
        assert_eq!(fresh.stats.factors_adopted, 0, "case {case}");
        adopted += carried.stats.factors_adopted;
        if carried.status == SolveStatus::Optimal {
            let mut tightened = m.clone();
            (tightened.vars[j].lb, tightened.vars[j].ub) = (overrides[0].1, overrides[0].2);
            for sol in [&carried, &fresh] {
                tightened
                    .certify(sol)
                    .unwrap_or_else(|e| panic!("case {case}: {e}"));
            }
            certified += 1;
        }
    }
    assert!(adopted >= 60, "only {adopted} adoptions");
    assert!(certified >= 60, "only {certified} certified re-solves");
}

/// The same over a [`MilpLayout`], the way A\* rounds and B&B children
/// share one matrix: a perturbed model solved over the base model's layout
/// from its basis, with and without the carried factors.
#[test]
fn adopted_factors_solve_like_a_fresh_factorization_over_a_layout() {
    let mut rng = Lcg(0x1a70_fac7);
    let config = MilpConfig::default();
    let mut adopted = 0usize;
    for case in 0..40 {
        let m = card_knapsack(&mut rng);
        let layout = MilpLayout::new(&m);
        let base = m.solve_over(&layout, &config, None, None).unwrap();
        let Some(basis) = base.basis.as_ref() else {
            continue;
        };
        let mut perturbed = m.clone();
        for v in &mut perturbed.vars {
            v.obj = rng.range(-2.0, 10.0);
        }
        for c in &mut perturbed.cons {
            c.rhs += rng.range(-2.0, 3.0);
        }
        let carried = perturbed
            .solve_over(&layout, &config, Some(basis), None)
            .unwrap();
        let fresh = perturbed
            .solve_over(&layout, &config, Some(&stripped(basis)), None)
            .unwrap();
        assert_eq!(fingerprint(&carried), fingerprint(&fresh), "case {case}");
        assert_eq!(carried.stats.nodes_explored, fresh.stats.nodes_explored);
        adopted += carried.stats.factors_adopted - fresh.stats.factors_adopted;
    }
    assert!(adopted >= 30, "only {adopted} roots adopted their factors");
}

/// Factors are adopted only for the basis and the matrix they factorize: a
/// basis carried over from another layout, one with a basic artificial and
/// one of another size all factorize.
#[test]
fn factors_of_another_matrix_or_basis_are_not_adopted() {
    let config = MilpConfig::default();
    let mut rng = Lcg(0x07e1_5e3e);
    for case in 0..40 {
        let m = card_knapsack(&mut rng);
        let base = m
            .solve_over(&MilpLayout::new(&m), &config, None, None)
            .unwrap();
        let Some(basis) = base.basis.as_ref() else {
            continue;
        };
        // Same shape and the same columns, but another allocation: the root
        // factorizes (the children below it still adopt their parent's).
        let other = m
            .solve_over(&MilpLayout::new(&m), &config, Some(basis), None)
            .unwrap();
        let own = m
            .solve_over(&MilpLayout::new(&m), &config, Some(&stripped(basis)), None)
            .unwrap();
        assert_eq!(
            other.stats.factors_adopted, own.stats.factors_adopted,
            "case {case}"
        );
        assert_eq!(fingerprint(&other), fingerprint(&own), "case {case}");
    }

    // `x + y = 1` twice: the second row's artificial stays basic at zero,
    // so the optimum carries no factors, and the factors of another basis
    // are refused for it.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var("x", 0.0, 1.0, 1.0, false);
    let y = m.add_var("y", 0.0, 1.0, 2.0, false);
    m.add_cons("a", &[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 1.0);
    m.add_cons("b", &[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 1.0);
    let sf = StandardForm::from_model(&m);
    let cold = solve_cold(&sf, 2).unwrap();
    let with_artificial = cold.basis.clone().expect("an optimum has a basis");
    let n = sf.num_cols();
    assert!(
        with_artificial.basic.iter().any(|&j| j >= n),
        "{with_artificial:?}: expected a basic artificial"
    );
    assert!(with_artificial.factors.is_none());
    let mut relabelled = with_artificial.clone();
    relabelled.factors = solve_cold(&sf, 2).unwrap().basis.and_then(|b| b.factors);
    let warm = solve_from(&sf, 2, &[], Some(&relabelled)).unwrap();
    assert_eq!(warm.stats.factors_adopted, 0);
    assert_eq!(
        fingerprint(&warm),
        fingerprint(&solve_from(&sf, 2, &[], Some(&with_artificial)).unwrap())
    );

    // A basis of another size starts cold, carried factors or not.
    let mut bigger = m.clone();
    bigger.add_cons("c", &[(x, 1.0)], ConstraintOp::Le, 1.0);
    let big_sf = StandardForm::from_model(&bigger);
    let big = solve_cold(&big_sf, 2).unwrap();
    let basis = big.basis.expect("an optimum has a basis");
    let sol = solve_from(&sf, 2, &[], Some(&basis)).unwrap();
    assert_eq!((sol.stats.factors_adopted, sol.stats.cold_starts), (0, 1));
}

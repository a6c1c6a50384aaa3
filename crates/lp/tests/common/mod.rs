//! Shared corpus and helpers for the concurrency tests: a seeded random-MILP
//! generator, a bit-exact fingerprint of a solve, and a driver that spreads a
//! corpus over several OS threads, one independent solve per call.

use teccl_lp::model::{ConstraintOp, Model, Sense};
use teccl_lp::{MilpConfig, MilpLayout, Solution, SolveStatus};

/// Small deterministic LCG so the corpus is stable across runs and platforms.
pub struct Lcg(pub u64);

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

/// A random bounded MILP mixing binary, general-integer and continuous
/// columns. Feasibility is not guaranteed, so infeasibility is exercised too.
pub fn random_milp(rng: &mut Lcg) -> Model {
    let nvars = 3 + rng.below(7);
    let ncons = 1 + rng.below(5);
    let sense = if rng.f() < 0.5 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut m = Model::new(sense);
    let mut vars = Vec::new();
    for j in 0..nvars {
        let obj = rng.range(-5.0, 5.0);
        let v = match rng.below(3) {
            0 => m.add_binary_var(format!("x{j}"), obj),
            1 => {
                let lb = rng.below(4) as f64 - 2.0;
                let ub = lb + rng.below(6) as f64;
                m.add_var(format!("x{j}"), lb, ub, obj, true)
            }
            _ => {
                let lb = rng.range(-8.0, 4.0);
                let ub = lb + rng.range(0.0, 12.0);
                m.add_var(format!("x{j}"), lb, ub, obj, false)
            }
        };
        vars.push(v);
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

/// `n` models drawn from the generator seeded with `seed`.
pub fn corpus(seed: u64, n: usize) -> Vec<Model> {
    let mut rng = Lcg(seed);
    (0..n).map(|_| random_milp(&mut rng)).collect()
}

/// Everything a deterministic solve must reproduce exactly: status, the
/// bits of the objective and of every value, and the work counters.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub status: SolveStatus,
    objective: u64,
    values: Vec<u64>,
    simplex_iterations: usize,
    dual_iterations: usize,
    nodes_explored: usize,
}

impl Fingerprint {
    fn of(s: &Solution) -> Self {
        Fingerprint {
            status: s.status,
            objective: s.objective.to_bits(),
            values: s.values.iter().map(|v| v.to_bits()).collect(),
            simplex_iterations: s.stats.simplex_iterations,
            dual_iterations: s.stats.dual_iterations,
            nodes_explored: s.stats.nodes_explored,
        }
    }
}

/// Solves one model with the default (single-threaded) MILP configuration.
pub fn solve(case: usize, m: &Model) -> Fingerprint {
    let s = m
        .solve_over(&MilpLayout::new(m), &MilpConfig::default(), None, None)
        .unwrap_or_else(|e| panic!("case {case}: {e}"));
    Fingerprint::of(&s)
}

/// Solves `models[i]` for every `i` in `cases`, spreading the cases
/// round-robin over `threads` OS threads that run at the same time. Returns
/// `(case, fingerprint)` pairs in no particular order.
pub fn solve_concurrently(
    models: &[Model],
    cases: &[usize],
    threads: usize,
) -> Vec<(usize, Fingerprint)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    cases
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&case| (case, solve(case, &models[case])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("solver thread panicked"))
            .collect()
    })
}

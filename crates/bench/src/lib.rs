#![forbid(unsafe_code)]
//! # teccl-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§6, Appendices G/H), each returning printable rows, and one
//! registry of them, [`TABLES`], that `run_all_experiments [--only a,b,…]
//! [--full]` prints. The `bench_*` functions are the micro-benchmark rows
//! `bench_lp_json` times on the in-tree [`microbench`] harness and records in
//! `BENCH_lp.json`.
//!
//! Scale note: the paper solves its largest instances with Gurobi on an
//! 80-core, 512 GB machine; this reproduction ships its own simplex/B&B
//! substrate, so every experiment defaults to a reduced scale (single / dual
//! chassis, 1–2 chunks) that preserves the *shape* of the paper's results —
//! who wins, in which direction, and where the crossovers are. See
//! EXPERIMENTS.md for the recorded numbers.

pub mod microbench;

use std::time::Duration;

use teccl_baselines::{
    ring_all_gather, sccl_like_schedule, shortest_path_schedule, taccl_like_schedule, TacclConfig,
};
use teccl_collective::chunk::format_size;
use teccl_collective::{CollectiveKind, DemandMatrix};
use teccl_core::{BufferMode, EpochStrategy, RequestMethod, SolverConfig, TeCcl};
use teccl_schedule::{percent_improvement, simulate};
use teccl_topology::{NodeId, Topology};

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Free-form labels (scenario, size, …), printed in order.
    pub labels: Vec<String>,
    /// Numeric columns, printed in order after the labels.
    pub values: Vec<f64>,
}

impl Row {
    /// Whether the row is labelled [`ITER_LIMIT_MARK`]: its numbers rest on
    /// an uncertified incumbent.
    pub fn hit_iteration_limit(&self) -> bool {
        self.labels.iter().any(|l| l.ends_with(ITER_LIMIT_MARK))
    }
}

/// One table or figure of the paper's evaluation: its title and headers,
/// declared once, and its rows at two argument sets — `quick` (what
/// `run_all_experiments` prints by default) and `full` (the larger sweeps
/// `--full` selects).
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// The name `--only` selects it by.
    pub name: &'static str,
    /// The printed title.
    pub title: &'static str,
    /// Headers of [`Row::labels`], in order.
    pub label_headers: &'static [&'static str],
    /// Headers of [`Row::values`], in order.
    pub value_headers: &'static [&'static str],
    /// The rows at the quick arguments.
    pub quick: fn() -> Vec<Row>,
    /// The rows at the full arguments.
    pub full: fn() -> Vec<Row>,
}

impl Table {
    /// Computes the rows at the full or the quick arguments.
    pub fn rows(&self, full: bool) -> Vec<Row> {
        if full {
            (self.full)()
        } else {
            (self.quick)()
        }
    }
}

/// Prints rows as an aligned table with a header.
pub fn print_table(title: &str, label_headers: &[&str], value_headers: &[&str], rows: &[Row]) {
    println!("\n== {title} ==");
    let header: Vec<String> = label_headers
        .iter()
        .map(|s| s.to_string())
        .chain(value_headers.iter().map(|s| s.to_string()))
        .collect();
    println!("{}", header.join("\t"));
    for row in rows {
        let cells: Vec<String> = row
            .labels
            .iter()
            .cloned()
            .chain(row.values.iter().map(|v| {
                if v.is_finite() {
                    format!("{v:.4}")
                } else {
                    "NA".to_string()
                }
            }))
            .collect();
        println!("{}", cells.join("\t"));
    }
}

/// The result of running one scheduler on one scenario (the solver counters
/// stay zero for the baselines).
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Scheduler name.
    pub solver: String,
    /// Wall-clock solver time (seconds).
    pub solver_time: f64,
    /// Collective finish time from the α–β simulator (seconds).
    pub transfer_time: f64,
    /// Algorithmic bandwidth (bytes/second) for the scenario's output buffer.
    pub algo_bw: f64,
    /// Bytes placed on the wire.
    pub bytes_on_wire: f64,
    /// Epoch duration used (0 when not epoch based).
    pub epoch_duration: f64,
    /// Total simplex iterations across every LP solve of the run.
    pub simplex_iterations: usize,
    /// Dual-simplex iterations (warm re-solve pivots; subset of the total).
    pub dual_iterations: usize,
    /// Branch-and-bound nodes explored (0 for pure LPs).
    pub bb_nodes: usize,
    /// LU basis (re)factorizations performed.
    pub factorizations: usize,
    /// LP solves warm-started from a parent basis.
    pub warm_starts: usize,
    /// LP solves cold-started from the all-artificial phase-1 basis.
    pub cold_starts: usize,
    /// Columns the layout-preserving presolve fixed (`lb == ub` pins),
    /// summed across rounds for A*.
    pub cols_fixed: usize,
    /// Rows the layout-preserving presolve freed (slack relaxed), summed
    /// across rounds for A*.
    pub rows_freed: usize,
    /// Bound tightenings derived by the per-node presolve inside the
    /// branch-and-bound tree.
    pub node_tightenings: usize,
    /// Whether any simplex pass exhausted its iteration budget: the reported
    /// numbers then rest on an uncertified incumbent and the row must be
    /// labelled as such, never printed as converged.
    pub iteration_limit_hit: bool,
}

/// A benchmark scenario: a topology, a collective demand, and chunk sizing.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (for reporting).
    pub name: String,
    /// Topology.
    pub topo: Topology,
    /// Demand.
    pub demand: DemandMatrix,
    /// Chunk size in bytes.
    pub chunk_bytes: f64,
    /// Output buffer size in bytes (for algorithmic bandwidth).
    pub output_buffer: f64,
}

impl Scenario {
    /// Builds a scenario for a collective on a topology, using the paper's
    /// output-buffer-size parameterization (Figures 4–6, Table 8).
    pub fn collective(
        name: impl Into<String>,
        topo: Topology,
        kind: CollectiveKind,
        chunks: usize,
        output_buffer: f64,
    ) -> Self {
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let n = gpus.len();
        let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, chunks);
        // Per-destination transfer = output_buffer / (n-1); each chunk is that
        // transfer split into `chunks` pieces.
        let transfer = output_buffer / (n as f64 - 1.0);
        let chunk_bytes = transfer / chunks as f64;
        Self {
            name: name.into(),
            topo,
            demand,
            chunk_bytes,
            output_buffer,
        }
    }
}

/// A quick default solver configuration for experiments: early stop at 30%
/// (the paper's ALLGATHER setting) and a per-solve time limit so runs stay
/// bounded on the built-in solver.
pub fn quick_config() -> SolverConfig {
    let mut c = SolverConfig::early_stop();
    c.time_limit = Some(Duration::from_secs(60));
    c
}

/// Runs TE-CCL on a scenario and measures the resulting schedule.
pub fn run_teccl(
    scenario: &Scenario,
    config: &SolverConfig,
    method: RequestMethod,
) -> Option<RunResult> {
    let solver = TeCcl::new(scenario.topo.clone(), config.clone());
    let outcome = solver
        .solve(&scenario.demand, scenario.chunk_bytes, method, None)
        .ok()?;
    let sim = simulate(&outcome.topology_used, &scenario.demand, &outcome.schedule).ok()?;
    Some(RunResult {
        solver: format!("te-ccl-{method:?}").to_lowercase(),
        solver_time: outcome.solver_time.as_secs_f64(),
        transfer_time: sim.transfer_time,
        algo_bw: scenario.output_buffer / sim.transfer_time,
        bytes_on_wire: sim.bytes_on_wire,
        epoch_duration: outcome.epoch_duration,
        simplex_iterations: outcome.stats.simplex_iterations,
        dual_iterations: outcome.stats.dual_iterations,
        bb_nodes: outcome.stats.nodes_explored,
        factorizations: outcome.stats.factorizations,
        warm_starts: outcome.stats.warm_starts,
        cold_starts: outcome.stats.cold_starts,
        cols_fixed: outcome.stats.cols_fixed,
        rows_freed: outcome.stats.rows_freed,
        node_tightenings: outcome.stats.node_tightenings,
        iteration_limit_hit: outcome.stats.iteration_limit_hit,
    })
}

/// Per-run solver counters for the headline solver scenarios (the
/// `solver_stats` table), so perf regressions (iteration blow-ups, lost warm
/// starts, lost presolve reductions) are visible in experiment output, not
/// just in wall-clock noise. Row values: `[solver_s, simplex_iters,
/// dual_iters, bb_nodes, factorizations, warm_starts, cold_starts,
/// cols_fixed, rows_freed, node_tight]`; scenarios that tripped the simplex
/// iteration budget are labelled `(ITER-LIMIT)`.
pub fn solver_stats_rows() -> Vec<Row> {
    let cases: Vec<(String, Scenario, RequestMethod)> = vec![
        (
            "milp_form/internal1_allgather".into(),
            Scenario::collective(
                "milp-internal1x1-ag",
                teccl_topology::internal1(1),
                CollectiveKind::AllGather,
                1,
                1024.0 * 1024.0,
            ),
            RequestMethod::Milp,
        ),
        (
            "lp_form/internal2x2_alltoall".into(),
            Scenario::collective(
                "lp-internal2x2-atoa",
                teccl_topology::internal2(2),
                CollectiveKind::AllToAll,
                1,
                1024.0 * 1024.0,
            ),
            RequestMethod::Lp,
        ),
        (
            "astar/internal2x2_allgather".into(),
            Scenario::collective(
                "astar-internal2x2-ag",
                teccl_topology::internal2(2),
                CollectiveKind::AllGather,
                1,
                1024.0 * 1024.0,
            ),
            RequestMethod::AStar,
        ),
    ];
    let mut rows = Vec::new();
    for (name, scenario, method) in cases {
        if let Some(r) = run_teccl(&scenario, &quick_config(), method) {
            rows.push(Row {
                labels: vec![mark_iteration_limit(name, r.iteration_limit_hit)],
                values: vec![
                    r.solver_time,
                    r.simplex_iterations as f64,
                    r.dual_iterations as f64,
                    r.bb_nodes as f64,
                    r.factorizations as f64,
                    r.warm_starts as f64,
                    r.cold_starts as f64,
                    r.cols_fixed as f64,
                    r.rows_freed as f64,
                    r.node_tightenings as f64,
                ],
            });
        }
    }
    rows
}

/// The label suffix of a row whose run exhausted a simplex iteration budget.
pub const ITER_LIMIT_MARK: &str = "(ITER-LIMIT)";

/// Appends [`ITER_LIMIT_MARK`] to a row label when the run exhausted a
/// simplex iteration budget — such rows rest on an uncertified incumbent and
/// must never be printed as if the solver converged.
pub fn mark_iteration_limit(label: impl Into<String>, hit: bool) -> String {
    let label = label.into();
    if hit {
        format!("{label} {ITER_LIMIT_MARK}")
    } else {
        label
    }
}

/// Shared fixture for the warm-vs-cold simplex benches: a 12x12
/// transportation LP, its optimal basis, and a one-bound-tightened override
/// list (the branch-and-bound child pattern). Returns
/// `(standard_form, num_vars, basis, overrides)`.
pub fn warm_vs_cold_fixture() -> (
    teccl_lp::StandardForm,
    usize,
    teccl_lp::SimplexBasis,
    Vec<(usize, f64, f64)>,
) {
    let (sf, nv, cold) = transport_fixture();
    let basis = cold.basis.clone().expect("optimal LP returns a basis");
    let idle = (0..nv).find(|&j| cold.values[j] < 1e-9).unwrap_or(0);
    (sf, nv, basis, vec![(idle, 0.0, 10.0)])
}

/// The shared 12x12 transportation LP plus its cold solution (solved once;
/// both re-solve fixtures derive their basis and overrides from it).
fn transport_fixture() -> (teccl_lp::StandardForm, usize, teccl_lp::Solution) {
    use teccl_lp::{ConstraintOp, Model, Sense};
    let n = 12;
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
    let sf = teccl_lp::StandardForm::from_model(&m);
    let cold = teccl_lp::solve_standard_form_budgeted(&sf, n * n, &[], None, None)
        .expect("fixture LP must solve");
    (sf, n * n, cold)
}

/// Fixture for the **dual re-solve** bench (`lp/dual_resolve`): the
/// transportation LP of [`warm_vs_cold_fixture`], its optimal basis, and an
/// override that tightens the bound of a variable *active* in the optimum —
/// the warm basis is then primal infeasible and the re-solve must take real
/// dual pivots (the B&B child pattern), unlike the idle-variable override of
/// `warm_vs_cold_fixture` which re-certifies without pivoting.
pub fn dual_resolve_fixture() -> (
    teccl_lp::StandardForm,
    usize,
    teccl_lp::SimplexBasis,
    Vec<(usize, f64, f64)>,
) {
    let (sf, nv, cold) = transport_fixture();
    let basis = cold.basis.clone().expect("optimal LP returns a basis");
    let active = (0..nv)
        .max_by(|&a, &b| {
            cold.values[a]
                .partial_cmp(&cold.values[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("fixture has variables");
    assert!(cold.values[active] > 1.0, "fixture optimum must be active");
    (
        sf,
        nv,
        basis,
        vec![(active, 0.0, cold.values[active] / 2.0)],
    )
}

/// Fixture for the **degenerate ALLTOALL** bench (`lp/degenerate_alltoall`):
/// the presolved standard form of the internal2(2) ALLTOALL LP at a 16 MB
/// output buffer — a reduced-scale proxy for the internal1(2)/internal2(3+)
/// 16 MB instances whose primal-degenerate plateaus used to trip the
/// iteration limit (ROADMAP item). Built over the trivial symmetry group, so
/// the row keeps timing the full degenerate walk the product's orbit-reduced
/// LP no longer takes. Returns `(standard_form, num_vars,
/// iteration_budget)`; the bench harness asserts the cold solve stays under
/// the budget and never reports `iteration_limit_hit`.
pub fn degenerate_alltoall_fixture() -> (teccl_lp::StandardForm, usize, usize) {
    let topo = teccl_topology::internal2(2);
    let form = full_alltoall_lp(&topo, 16.0 * 1024.0 * 1024.0);
    let (red, post) = teccl_lp::presolve::presolve(&form.model).expect("presolve");
    let mut sf = teccl_lp::StandardForm::from_model(&red);
    post.relax_free_rows(&mut sf);
    // Measured ~1.1k iterations with the layout-preserving presolve + crash
    // slack basis; the budget leaves ~20x headroom while still tripping on
    // any Bland-style pricing regression (20-700x blow-ups).
    (sf, red.num_vars(), 25_000)
}

/// Fixture for the `lp/internal1x2_alltoall` bench: the copy-free LP of the
/// 8-GPU internal1(2) ALLTOALL — the two-chassis ring-plus-switch row — at a
/// 4 MB output buffer so one solve stays in bench territory. Built over the
/// trivial symmetry group: the full 8-source LP, not the product's order-8
/// quotient. Returns the formulation; callers solve `form.model`.
pub fn internal1x2_alltoall_fixture() -> teccl_core::lp_form::LpFormulation {
    full_alltoall_lp(&teccl_topology::internal1(2), 4.0 * 1024.0 * 1024.0)
}

/// The ALLTOALL LP of `topo` at `output_buffer` bytes over the trivial
/// symmetry group, at the epoch estimate's horizon.
fn full_alltoall_lp(topo: &Topology, output_buffer: f64) -> teccl_core::lp_form::LpFormulation {
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let transfer = output_buffer / (gpus.len() as f64 - 1.0);
    let demand = DemandMatrix::all_to_all(topo.num_nodes(), &gpus, 1);
    let config = SolverConfig::early_stop();
    let tau = teccl_core::epochs::epoch_duration(topo, transfer, &config);
    let k = teccl_core::epochs::estimate_num_epochs(topo, &demand, transfer, tau);
    let group = teccl_core::symmetry::SymmetryGroup::trivial(topo);
    teccl_core::lp_form::LpFormulation::build_over(
        topo,
        &demand,
        transfer,
        &config,
        k.max(2),
        tau,
        group,
    )
    .expect("ALLTOALL fixture builds")
}

/// Fixture for the **LU refactorization** bench (`lp/lu_refactor_fill`):
/// the optimal basis of the (full, trivial-group) degenerate ALLTOALL
/// instance as sparse columns,
/// ready for [`teccl_lp::LuFactors::factorize`]. Returns `(num_rows,
/// basis_columns)`. A zero-valued phase-1 artificial surviving in the
/// degenerate optimal basis is materialized as the unit column of its row.
pub fn lu_refactor_fixture() -> (usize, Vec<teccl_lp::SparseVec>) {
    let (sf, nv, _budget) = degenerate_alltoall_fixture();
    let sol = teccl_lp::solve_standard_form_budgeted(&sf, nv, &[], None, None)
        .expect("degenerate fixture solves");
    let basis = sol.basis.expect("optimal LP returns a basis");
    (sf.num_rows(), basis_columns(&sf, &basis))
}

/// The columns of `basis` as [`teccl_lp::LuFactors::factorize`] takes them; a
/// phase-1 artificial lingering in a degenerate basis is the unit column of
/// its row.
fn basis_columns(
    sf: &teccl_lp::StandardForm,
    basis: &teccl_lp::SimplexBasis,
) -> Vec<teccl_lp::SparseVec> {
    let n_cols = sf.num_cols();
    basis
        .basic
        .iter()
        .map(|&j| match j.checked_sub(n_cols) {
            None => sf.a.col(j).clone(),
            Some(row) => teccl_lp::SparseVec::from_pairs(&[(row, 1.0)]),
        })
        .collect()
}

/// Fixture for the **dual pivot** rows (`lp/dual_pivot_astar_round`,
/// `lp/btran_unit`, `lp/ftran_col`): the second A\* round of the 16-GPU
/// internal2(8) ALLGATHER at 16 MB — the `allgather_copy` benchmark shape
/// with the most pivots per request — rebuilt outside the solver with
/// [`teccl_core::astar::RoundState`]. Returns the round's presolved standard
/// form, its structural column count, and the first round's root basis: the
/// warm dual re-solve of the one from the other is what every A\* round
/// after the first starts with.
pub fn astar_round_fixture() -> (teccl_lp::StandardForm, usize, teccl_lp::SimplexBasis) {
    use teccl_core::astar::RoundState;
    use teccl_core::milp_form::MilpFormulation;
    let topo = teccl_topology::internal2(8);
    let kind = CollectiveKind::AllGather;
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
    let chunk_bytes = teccl_collective::CollectiveSizing::new(kind, gpus.len())
        .transfer_bytes_for_output_buffer(16.0 * 1024.0 * 1024.0);
    let config = SolverConfig::default();
    let tau = teccl_core::epochs::epoch_duration(&topo, chunk_bytes, &config);
    let mut state = RoundState::new(&topo, &demand, chunk_bytes, &config, tau);
    let options = |state: &RoundState| {
        let (remaining, open) = state.remaining(&demand);
        assert!(open > 0, "fixture must need a second round");
        state.build_options(&topo, &demand, &remaining, &config)
    };
    let mut form = MilpFormulation::build(
        &topo,
        &demand,
        chunk_bytes,
        &config,
        state.epochs_per_round,
        tau,
        &options(&state),
    )
    .expect("first round builds");
    let first = form
        .solve_budgeted(&config, None, None)
        .expect("first round solves");
    state.absorb(&topo, &form.sends(&first));
    assert!(
        form.update_round(&demand, &config, &options(&state)),
        "warm rounds keep the layout"
    );
    let (red, post) = teccl_lp::presolve::presolve(&form.model).expect("presolve");
    let mut sf = teccl_lp::StandardForm::from_model(&red);
    post.relax_free_rows(&mut sf);
    let basis = first.basis.expect("first round publishes its root basis");
    (sf, red.num_vars(), basis)
}

/// The dual-pivot rows on [`astar_round_fixture`]: `lp/dual_pivot_astar_round`
/// is nanoseconds **per dual pivot** of the warm round re-solve;
/// `lp/btran_unit` / `lp/ftran_col` are nanoseconds per solve on the
/// re-solved round's optimal basis through the sparse-right-hand-side
/// kernels — unit vectors as the dual's row pricing issues them, structural
/// columns as the entering column does — with the dense kernels on the same
/// right-hand sides beside them as `*_dense`.
pub fn bench_dual_pivot_rows(h: &mut microbench::Harness) {
    let (sf, nv, basis) = astar_round_fixture();
    let resolve = || {
        let sol = teccl_lp::solve_standard_form_budgeted(&sf, nv, &[], Some(&basis), None).unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
        assert_eq!(sol.stats.warm_starts, 1, "round re-solve fell cold");
        sol
    };
    let sol = resolve();
    let pivots = sol.stats.dual_iterations;
    assert!(
        pivots > 100,
        "round re-solve took only {pivots} dual pivots"
    );
    h.bench_function("lp/dual_pivot_astar_round", || {
        resolve();
    });
    h.per_unit(pivots);

    let m = sf.num_rows();
    let optimal = sol.basis.expect("optimal re-solve returns its basis");
    let mut lu = teccl_lp::LuFactors::factorize(m, &basis_columns(&sf, &optimal))
        .expect("optimal basis factorizes");
    let mut v = teccl_lp::IndexedVec::zeros(m);
    let mut dense = vec![0.0; m];
    let mut k = 0usize;
    h.bench_function("lp/btran_unit", || {
        k = (k + 53) % m;
        v.set_unit(k);
        lu.btran_sparse(&mut v);
    });
    h.bench_function("lp/btran_unit_dense", || {
        k = (k + 53) % m;
        dense.fill(0.0);
        dense[k] = 1.0;
        lu.btran(&mut dense);
    });
    h.bench_function("lp/ftran_col", || {
        k = (k + 37) % sf.num_structural;
        v.clear();
        for (i, x) in sf.a.col(k).iter() {
            v.add(i, x);
        }
        lu.ftran_sparse(&mut v);
    });
    h.bench_function("lp/ftran_col_dense", || {
        k = (k + 37) % sf.num_structural;
        dense.fill(0.0);
        for (i, x) in sf.a.col(k).iter() {
            dense[i] = x;
        }
        lu.ftran(&mut dense);
    });
}

/// Fixture for the **A\* cross-round warm-start** bench
/// (`lp/presolve_warm_rounds`): a Table-4 A\* scenario forced through several
/// rounds, each re-optimizing from the previous round's root basis. Presolve
/// runs every round — the layout-preserving presolve is exactly what lets the
/// carried basis survive it. Returns `(scenario, config)`.
pub fn warm_rounds_fixture() -> (Scenario, SolverConfig) {
    let scenario = Scenario::collective(
        "astar-internal1x2-ag-16M",
        teccl_topology::internal1(2),
        CollectiveKind::AllGather,
        1,
        16.0 * 1024.0 * 1024.0,
    );
    (scenario, quick_config())
}

/// The `core/milp_dgx1_allgather` row: the MILP [`TeCcl::solve`] on the
/// `allgather_copy` benchmark's MILP key (`dgx1` ALLGATHER, 1 chunk, 16 MiB
/// output buffer, default config), sized as the service sizes it. Aborts if
/// the first horizon tried ([`teccl_core::epochs::estimate_num_epochs`], the
/// proven copy bound) was refuted and the solve had to climb.
pub fn bench_milp_dgx1_allgather(h: &mut microbench::Harness) {
    let request = teccl_service::SolveRequest::new(
        teccl_topology::dgx1(),
        CollectiveKind::AllGather,
        1,
        16.0 * 1024.0 * 1024.0,
    )
    .with_method(RequestMethod::Milp);
    let (demand, chunk_bytes) = (request.demand(), request.chunk_bytes());
    let tau = teccl_core::epochs::epoch_duration(&request.topology, chunk_bytes, &request.config);
    let first =
        teccl_core::epochs::estimate_num_epochs(&request.topology, &demand, chunk_bytes, tau);
    let solver = TeCcl::new(request.topology, request.config);
    h.bench_function("core/milp_dgx1_allgather", || {
        let out = solver
            .solve(&demand, chunk_bytes, RequestMethod::Milp, None)
            .unwrap();
        assert_eq!(out.num_epochs, first, "the first horizon was refuted");
    });
}

/// The `core/astar_internal2x8_allgather` row: the A\* [`TeCcl::solve`] on the
/// `allgather_copy` benchmark's internal2 x8 key (ALLGATHER, 1 chunk, 16 MiB
/// output buffer, default config), sized as the service sizes it: 15 warm
/// A\* rounds over one formulation, so the per-round set-up shows here.
pub fn bench_astar_internal2x8_allgather(h: &mut microbench::Harness) {
    let request = teccl_service::SolveRequest::new(
        teccl_service::builtin_topology("internal2x8").expect("builtin topology"),
        CollectiveKind::AllGather,
        1,
        16.0 * 1024.0 * 1024.0,
    )
    .with_method(RequestMethod::AStar);
    let (demand, chunk_bytes) = (request.demand(), request.chunk_bytes());
    let solver = TeCcl::new(request.topology, request.config);
    h.bench_function("core/astar_internal2x8_allgather", || {
        solver
            .solve(&demand, chunk_bytes, RequestMethod::AStar, None)
            .unwrap();
    });
}

/// The `core/lp_internal1x4_alltoall` row: the LP [`TeCcl::solve`] on the
/// 16-GPU Table-4 ALLTOALL (internal1 x4, 1 chunk, 16 MiB output buffer,
/// default config), sized as the service sizes it: horizon bound, symmetry
/// search and the order-16 quotient LP. Over the full LP this solve took
/// ~300 s and 143 577 pivots.
pub fn bench_lp_internal1x4_alltoall(h: &mut microbench::Harness) {
    let request = teccl_service::SolveRequest::new(
        teccl_topology::internal1(4),
        CollectiveKind::AllToAll,
        1,
        16.0 * 1024.0 * 1024.0,
    )
    .with_method(RequestMethod::Lp);
    let (demand, chunk_bytes) = (request.demand(), request.chunk_bytes());
    let solver = TeCcl::new(request.topology, request.config);
    h.bench_function("core/lp_internal1x4_alltoall", || {
        solver
            .solve(&demand, chunk_bytes, RequestMethod::Lp, None)
            .unwrap();
    });
}

/// Fixture for the schedule-service benches (`service/throughput`,
/// `service/cache_hit_latency`): a started service plus a pool of 8 small,
/// distinct requests. The throughput bench evicts one key per batch so every
/// 64-request batch performs exactly one solve (63/64 ≈ 98% hit ratio —
/// fixed by construction); the hit-latency bench must never leave the
/// no-solve path.
pub fn service_bench_fixture() -> (
    teccl_service::ScheduleService,
    Vec<teccl_service::SolveRequest>,
) {
    use teccl_collective::CollectiveKind::*;
    let svc = teccl_service::ScheduleService::start(teccl_service::ServiceConfig {
        workers: 2,
        cache_capacity: 64,
        disk_dir: None,
        // Benches must be immune to an ambient TECCL_FAULT_PLAN.
        fault_plan: Some(String::new()),
        ..Default::default()
    })
    .expect("service starts");
    let mut pool = Vec::new();
    for (i, kind) in [AllGather, AllToAll, Broadcast, Gather].iter().enumerate() {
        for n in [3usize, 4] {
            pool.push(teccl_service::SolveRequest::new(
                teccl_topology::ring_topology(n, 1e9, 0.0),
                *kind,
                1,
                (32 + 16 * i) as f64 * 1024.0,
            ));
        }
    }
    assert_eq!(pool.len(), 8);
    (svc, pool)
}

/// Fixture for the `service/wire_hit` bench: a service holding the Table-4
/// `internal1x2` ALLGATHER 16 MB A* entry, and the request line (full
/// topology document, as `teccl-cli` sends it) that hits it.
pub fn wire_hit_fixture() -> (teccl_service::ScheduleService, String) {
    let svc = teccl_service::ScheduleService::start(teccl_service::ServiceConfig {
        workers: 1,
        disk_dir: None,
        fault_plan: Some(String::new()),
        ..Default::default()
    })
    .expect("service starts");
    let req = teccl_service::SolveRequest::new(
        teccl_topology::internal1(2),
        CollectiveKind::AllGather,
        1,
        16.0 * 1024.0 * 1024.0,
    )
    .with_method(RequestMethod::AStar)
    .with_config(quick_config());
    let line = teccl_service::protocol::solve_request_line(&req);
    svc.request(req).expect("fixture request solves");
    (svc, line)
}

/// One cache hit as a connection thread serves it, minus the socket:
/// [`teccl_service::server::respond`] (parse the line, look the key up,
/// render the reply) into the connection's buffer. Panics if the reply is
/// anything but a hit.
pub fn wire_hit(svc: &teccl_service::ScheduleService, line: &str, reply: &mut String) {
    reply.clear();
    teccl_service::server::respond(svc, line, reply);
    reply.push('\n');
    assert!(
        reply.starts_with(r#"{"status":"ok","cache":"hit","#),
        "wire hit fell off the no-solve path"
    );
}

/// Fixture for the `service/degraded_fallback_latency` bench: a service plus
/// a large ALLTOALL request whose deadline is already expired at submission,
/// so every request descends the degradation ladder straight to the instant
/// baseline. Background upgrades are off — the bench measures the fallback,
/// not a shadow exact solve.
pub fn degraded_fallback_fixture() -> (teccl_service::ScheduleService, teccl_service::SolveRequest)
{
    let svc = teccl_service::ScheduleService::start(teccl_service::ServiceConfig {
        workers: 1,
        cache_capacity: 16,
        disk_dir: None,
        background_upgrade: false,
        fault_plan: Some(String::new()),
    })
    .expect("service starts");
    let req = teccl_service::SolveRequest::new(
        teccl_topology::internal1(2),
        CollectiveKind::AllToAll,
        1,
        16.0 * 1024.0 * 1024.0,
    )
    .with_deadline(std::time::Duration::ZERO);
    (svc, req)
}

/// The `lp_form/internal2x2_alltoall` row: the copy-free LP path end to end
/// (horizon, build, presolve, simplex, extract) on internal2 x2 ALLTOALL at a
/// 1 MB output buffer.
pub fn bench_lp_form_alltoall(h: &mut microbench::Harness) {
    let scenario = Scenario::collective(
        "lp-internal2x2-atoa",
        teccl_topology::internal2(2),
        CollectiveKind::AllToAll,
        1,
        1024.0 * 1024.0,
    );
    h.bench_function("lp_form/internal2x2_alltoall", || {
        run_teccl(&scenario, &quick_config(), RequestMethod::Lp).unwrap();
    });
}

/// The `milp_form/internal1_allgather` row: the general MILP end to end on
/// internal1 x1 ALLGATHER at a 1 MB output buffer.
pub fn bench_milp_form_allgather(h: &mut microbench::Harness) {
    let scenario = Scenario::collective(
        "milp-internal1x1-ag",
        teccl_topology::internal1(1),
        CollectiveKind::AllGather,
        1,
        1024.0 * 1024.0,
    );
    h.bench_function("milp_form/internal1_allgather", || {
        run_teccl(&scenario, &quick_config(), RequestMethod::Milp).unwrap();
    });
}

/// The `lp/simplex_warm_vs_cold` and `lp/simplex_cold_resolve` rows: the
/// [`warm_vs_cold_fixture`] re-solve after one bound tightening — the
/// branch-and-bound node pattern in isolation — from the optimal basis and
/// from scratch.
pub fn bench_simplex_resolves(h: &mut microbench::Harness) {
    let (sf, nv, basis, overrides) = warm_vs_cold_fixture();
    h.bench_function("lp/simplex_warm_vs_cold", || {
        let sol = teccl_lp::solve_standard_form_budgeted(&sf, nv, &overrides, Some(&basis), None)
            .unwrap();
        assert!(sol.has_solution());
    });
    h.bench_function("lp/simplex_cold_resolve", || {
        let sol = teccl_lp::solve_standard_form_budgeted(&sf, nv, &overrides, None, None).unwrap();
        assert!(sol.has_solution());
    });
}

/// The `lp/dual_resolve` row: a tightened *active* bound, so the warm basis
/// is primal infeasible and the dual simplex takes real pivots (the B&B
/// pattern). Aborts if the re-solve falls cold.
pub fn bench_dual_resolve(h: &mut microbench::Harness) {
    let (sf, nv, basis, overrides) = dual_resolve_fixture();
    h.bench_function("lp/dual_resolve", || {
        let sol = teccl_lp::solve_standard_form_budgeted(&sf, nv, &overrides, Some(&basis), None)
            .unwrap();
        assert!(sol.has_solution());
        assert_eq!(sol.stats.warm_starts, 1, "dual path must not fall cold");
    });
}

/// The `lp/degenerate_alltoall` row, the CI gate for the anti-degeneracy
/// machinery (EXPAND ratio test): aborts if the cold solve stalls past its
/// iteration budget or trips the simplex iteration limit.
pub fn bench_degenerate_alltoall(h: &mut microbench::Harness) {
    let (sf, nv, budget) = degenerate_alltoall_fixture();
    h.bench_function("lp/degenerate_alltoall", || {
        let sol = teccl_lp::solve_standard_form_budgeted(&sf, nv, &[], None, None).unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
        assert!(
            !sol.stats.iteration_limit_hit,
            "degenerate ALLTOALL hit the simplex iteration limit"
        );
        assert!(
            sol.stats.simplex_iterations <= budget,
            "degenerate ALLTOALL regressed: {} iterations (budget {budget})",
            sol.stats.simplex_iterations
        );
    });
}

/// The `lp/internal1x2_alltoall` row: the 8-GPU internal1(2) ALLTOALL
/// copy-free LP, solved monolithically through
/// [`Model::solve_lp_relaxation_budgeted`](teccl_lp::Model::solve_lp_relaxation_budgeted)
/// (presolve + cold simplex) — the one row at that scale.
pub fn bench_internal1x2_alltoall(h: &mut microbench::Harness) {
    let form = internal1x2_alltoall_fixture();
    h.bench_function("lp/internal1x2_alltoall", || {
        let sol = form.model.solve_lp_relaxation_budgeted(None, None).unwrap();
        assert_eq!(sol.status, teccl_lp::SolveStatus::Optimal);
    });
}

/// The `lp/lu_refactor_fill` row: the eta-accumulation →
/// fill-triggered-refactorization cycle on the degenerate instance's optimal
/// basis. Identity column replacements build up the eta file until
/// [`teccl_lp::LuFactors::needs_refactor`] fires, then the basis is
/// refactorized from scratch (the Gilbert–Peierls path) — the steady-state
/// cost the refactorization policy pays.
pub fn bench_lu_refactor_fill(h: &mut microbench::Harness) {
    let (m, basis_cols) = lu_refactor_fixture();
    h.bench_function("lp/lu_refactor_fill", || {
        let mut lu = teccl_lp::LuFactors::factorize(m, &basis_cols).unwrap();
        let mut r = 0usize;
        while !lu.needs_refactor() {
            let mut w = vec![0.0; m];
            for (pos, &i) in basis_cols[r].indices.iter().enumerate() {
                w[i] = basis_cols[r].values[pos];
            }
            // Replacing column r with itself: w = B⁻¹ B e_r = e_r, so the
            // update is always well-pivoted and the basis never degrades.
            lu.ftran(&mut w);
            lu.update(&teccl_lp::IndexedVec::from_dense(w), r).unwrap();
            r = (r + 1) % m;
        }
        let fresh = teccl_lp::LuFactors::factorize(m, &basis_cols).unwrap();
        assert!(fresh.fill_nnz() > 0);
    });
}

/// The `lp/presolve_warm_rounds` row: A\* cross-round warm starts with
/// presolve on (the layout-preserving presolve keeps the carried root basis
/// valid round to round). Aborts unless the run stays on the warm path — at
/// most the first round may start cold.
pub fn bench_presolve_warm_rounds(h: &mut microbench::Harness) {
    let (scenario, config) = warm_rounds_fixture();
    h.bench_function("lp/presolve_warm_rounds", || {
        let warm = run_teccl(&scenario, &config, RequestMethod::AStar).unwrap();
        assert!(
            warm.warm_starts > 0,
            "A* rounds fell off the warm path entirely"
        );
        assert!(
            warm.cold_starts <= 1,
            "warm rounds went cold {} times (only the first round may)",
            warm.cold_starts
        );
    });
}

/// The four schedule-service rows. `service/cache_hit_latency` is the
/// steady-state hit, `service/wire_hit` the same hit with the request line
/// parsed and the reply rendered, as a connection thread does per request;
/// both abort if a hit leaves the no-solve path. `service/throughput` is a
/// 64-request batch over 8 keys with one evicted per batch — exactly one
/// solve, the rest hits (or coalesced with that solve).
/// `service/degraded_fallback_latency` sends an already-expired deadline on
/// a request whose exact solve takes tens of seconds down the ladder to the
/// instant baseline, and aborts on any simplex pivot.
pub fn bench_service(h: &mut microbench::Harness) {
    use teccl_service::CacheStatus;
    let (svc, pool) = service_bench_fixture();
    for req in &pool {
        svc.request(req.clone()).expect("fixture request solves");
    }
    let hot = pool[1].clone();
    let solves_before = svc.stats().solves;
    h.bench_function("service/cache_hit_latency", || {
        let served = svc.request(hot.clone()).expect("hit");
        assert_eq!(
            served.cache,
            CacheStatus::Hit,
            "cache hit fell off the no-solve path"
        );
    });
    let stats = svc.stats();
    assert_eq!(
        stats.solves, solves_before,
        "cache hits must not invoke the solver (solves {} -> {})",
        solves_before, stats.solves
    );
    assert_eq!(stats.solve_errors, 0);

    let (wire_svc, wire_line) = wire_hit_fixture();
    let mut wire_reply = String::new();
    h.bench_function("service/wire_hit", || {
        wire_hit(&wire_svc, &wire_line, &mut wire_reply);
    });
    wire_svc.shutdown();

    let cold_key = pool[0].key().hash;
    h.bench_function("service/throughput", || {
        svc.evict_key(cold_key);
        let tickets: Vec<_> = (0..64)
            .map(|i| svc.submit(pool[i % pool.len()].clone()))
            .collect();
        for t in tickets {
            t.wait().expect("batch request solves");
        }
    });

    let (fb_svc, fb_req) = degraded_fallback_fixture();
    let fb_hash = fb_req.key().hash;
    h.bench_function("service/degraded_fallback_latency", || {
        fb_svc.evict_key(fb_hash);
        let served = fb_svc.request(fb_req.clone()).expect("fallback serves");
        assert_eq!(served.quality, teccl_service::Quality::Baseline);
    });
    assert_eq!(
        fb_svc.stats().solve_simplex_iterations,
        0,
        "the baseline fallback must never touch the simplex"
    );
    fb_svc.shutdown();
}

/// The `simulator/dgx1_ring_allgather` row: the α–β simulator on a DGX-1
/// ring ALLGATHER schedule with 1 MB chunks — the check the service runs on
/// every schedule it solves.
pub fn bench_simulator(h: &mut microbench::Harness) {
    let topo = teccl_topology::dgx1();
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);
    let ring_order: Vec<NodeId> = [0usize, 1, 2, 3, 7, 6, 5, 4]
        .iter()
        .map(|&i| gpus[i])
        .collect();
    let schedule = ring_all_gather(&topo, &ring_order, 1, 1e6).expect("ring schedule builds");
    h.bench_function("simulator/dgx1_ring_allgather", || {
        simulate(&topo, &demand, &schedule).unwrap();
    });
}

/// Runs the TACCL-like baseline on a scenario.
pub fn run_taccl(scenario: &Scenario, seed: u64) -> Option<RunResult> {
    let cfg = TacclConfig {
        seed,
        ..Default::default()
    };
    let res = taccl_like_schedule(&scenario.topo, &scenario.demand, scenario.chunk_bytes, &cfg)?;
    Some(RunResult {
        solver: "taccl-like".into(),
        solver_time: res.solver_time,
        transfer_time: res.transfer_time,
        algo_bw: scenario.output_buffer / res.transfer_time,
        bytes_on_wire: res.schedule.total_bytes_on_wire(),
        ..Default::default()
    })
}

/// Runs the SCCL-like synchronous-round baseline on a scenario.
pub fn run_sccl(scenario: &Scenario) -> Option<RunResult> {
    let res = sccl_like_schedule(&scenario.topo, &scenario.demand, scenario.chunk_bytes)?;
    Some(RunResult {
        solver: "sccl-like".into(),
        solver_time: res.solver_time,
        transfer_time: res.transfer_time,
        algo_bw: scenario.output_buffer / res.transfer_time,
        bytes_on_wire: res.schedule.total_bytes_on_wire(),
        ..Default::default()
    })
}

/// Runs the shortest-path unicast baseline on a scenario.
pub fn run_shortest_path(scenario: &Scenario) -> Option<RunResult> {
    let start = std::time::Instant::now();
    let schedule = shortest_path_schedule(&scenario.topo, &scenario.demand, scenario.chunk_bytes);
    let sim = simulate(&scenario.topo, &scenario.demand, &schedule).ok()?;
    Some(RunResult {
        solver: "shortest-path".into(),
        solver_time: start.elapsed().as_secs_f64(),
        transfer_time: sim.transfer_time,
        algo_bw: scenario.output_buffer / sim.transfer_time,
        bytes_on_wire: sim.bytes_on_wire,
        ..Default::default()
    })
}

/// The output-buffer-size sweep the paper uses on its x-axes (reduced: the
/// multi-GB points only change the chunk size, not the problem structure).
pub fn output_buffer_sweep() -> Vec<f64> {
    ["256M", "64M", "16M", "4M", "1M", "256K", "64K", "16K"]
        .iter()
        .map(|s| teccl_collective::chunk::parse_size(s).unwrap())
        .collect()
}

// ---------------------------------------------------------------------------
// Per-experiment row generators (one per table / figure).
// ---------------------------------------------------------------------------

/// Figure 1 (a, b, c): the three motivating examples — α-delay accounting,
/// store-and-forward, and copy — solved with the MILP and replayed in the
/// α–β simulator. Row values: `[teccl finish (ms, or units of β for b),
/// expected / correct, naive estimate (a, ms) or bytes on the wire (c, MB)]`.
pub fn fig1_rows() -> Vec<Row> {
    let mut rows = Vec::new();

    // (a) alpha-delay: two sources feeding d; the correct finish time is
    // alpha2 + 3*beta, not alpha2 + 4*beta (the path-max estimate).
    let chunk = 1.0e6;
    let alpha1 = 0.05e-3;
    let topo = teccl_topology::fig1a(chunk, alpha1);
    let mut demand = DemandMatrix::new(topo.num_nodes(), 1);
    demand.set(NodeId(0), 0, NodeId(4)); // s1 -> d
    demand.set(NodeId(5), 0, NodeId(4)); // s2 -> d
    let scenario = Scenario {
        name: "fig1a".into(),
        topo,
        demand,
        chunk_bytes: chunk,
        output_buffer: 2.0 * chunk,
    };
    if let Some(run) = run_teccl(&scenario, &quick_config(), RequestMethod::Milp) {
        let beta = chunk / 1.0e9;
        let alpha2 = 2.0 * beta + 3.0 * alpha1;
        rows.push(Row {
            labels: vec!["fig1a".into()],
            values: vec![
                run.transfer_time * 1e3,
                (alpha2 + 3.0 * beta) * 1e3,
                (alpha2 + 4.0 * beta) * 1e3,
            ],
        });
    }

    // (b) store-and-forward: 3 sources -> h -> d; demand finishes in 3 "units"
    // with or without buffering, buffers only change the solution space.
    let topo = teccl_topology::fig1b(1.0e9);
    let mut demand = DemandMatrix::new(topo.num_nodes(), 1);
    for s in 0..3 {
        demand.set(NodeId(s), 0, NodeId(4));
    }
    let scenario = Scenario {
        name: "fig1b".into(),
        topo,
        demand,
        chunk_bytes: chunk,
        output_buffer: 3.0 * chunk,
    };
    if let Some(run) = run_teccl(&scenario, &quick_config(), RequestMethod::Milp) {
        rows.push(Row {
            labels: vec!["fig1b".into()],
            values: vec![run.transfer_time * 1e3, 3.0, 3.0],
        });
    }

    // (c) copy: s -> h -> {d1,d2,d3}; with copy 2 units, without copy 4 units.
    let topo = teccl_topology::fig1c(1.0e9);
    let mut demand = DemandMatrix::new(topo.num_nodes(), 1);
    for d in 2..5 {
        demand.set(NodeId(0), 0, NodeId(d));
    }
    let scenario = Scenario {
        name: "fig1c".into(),
        topo,
        demand,
        chunk_bytes: chunk,
        output_buffer: chunk,
    };
    let with_copy = run_teccl(&scenario, &quick_config(), RequestMethod::Milp);
    let without_copy = run_shortest_path(&scenario);
    if let (Some(w), Some(wo)) = (with_copy, without_copy) {
        rows.push(Row {
            labels: vec!["fig1c".into()],
            values: vec![
                w.transfer_time * 1e3,
                wo.bytes_on_wire / 1e6,
                w.bytes_on_wire / 1e6,
            ],
        });
    }
    rows
}

/// Figure 2: relative error in the algorithmic-bandwidth estimate when α is
/// ignored, versus the transfer size, on the 2-chassis / 8-GPU / 40-edge
/// internal topology.
pub fn fig2_rows(sizes: &[f64]) -> Vec<Row> {
    let topo = teccl_topology::fig2_topology();
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let mut rows = Vec::new();
    for &transfer in sizes {
        let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);
        let scenario = Scenario {
            name: format!("fig2-{}", format_size(transfer)),
            topo: topo.clone(),
            demand,
            chunk_bytes: transfer,
            output_buffer: (gpus.len() - 1) as f64 * transfer,
        };
        let solver = TeCcl::new(scenario.topo.clone(), quick_config());
        let Ok(outcome) = solver.solve(
            &scenario.demand,
            scenario.chunk_bytes,
            RequestMethod::AStar,
            None,
        ) else {
            continue;
        };
        let with_alpha =
            simulate(&topo, &scenario.demand, &outcome.schedule).map(|s| s.transfer_time);
        let no_alpha_topo = topo.with_alpha_scaled(0.0);
        let without_alpha =
            simulate(&no_alpha_topo, &scenario.demand, &outcome.schedule).map(|s| s.transfer_time);
        if let (Ok(t_with), Ok(t_without)) = (with_alpha, without_alpha) {
            let bw_with = scenario.output_buffer / t_with;
            let bw_without = scenario.output_buffer / t_without;
            let rel_error = (bw_without - bw_with) / bw_with * 100.0;
            rows.push(Row {
                labels: vec![format_size(transfer)],
                values: vec![transfer / 1e6, rel_error],
            });
        }
    }
    rows
}

/// Table 3: SCCL least-steps vs TE-CCL transfer time on a DGX-1 with 25 KB
/// chunks (α = 0.7 µs).
pub fn table3_rows(max_ag_chunks: usize) -> Vec<Row> {
    let topo = teccl_topology::dgx1();
    let chunk = 25e3;
    let mut rows = Vec::new();
    for chunks in 1..=max_ag_chunks {
        let scenario = Scenario::collective(
            format!("AG-{chunks}"),
            topo.clone(),
            CollectiveKind::AllGather,
            chunks,
            7.0 * chunk * chunks as f64,
        );
        let sccl = run_sccl(&scenario);
        let ours = run_teccl(&scenario, &quick_config(), RequestMethod::AStar);
        if let (Some(s), Some(o)) = (sccl, ours) {
            rows.push(Row {
                labels: vec![format!("ALLGATHER, {chunks}")],
                values: vec![s.transfer_time * 1e6, o.transfer_time * 1e6],
            });
        }
    }
    // ALLTOALL, 1 chunk per destination.
    let scenario = Scenario::collective("AtoA-1", topo, CollectiveKind::AllToAll, 1, 7.0 * chunk);
    if let (Some(s), Some(o)) = (
        run_sccl(&scenario),
        run_teccl(&scenario, &quick_config(), RequestMethod::Lp),
    ) {
        rows.push(Row {
            labels: vec!["ALLTOALL, 1".into()],
            values: vec![s.transfer_time * 1e6, o.transfer_time * 1e6],
        });
    }
    rows
}

/// The topology set used for the TACCL comparisons (Figures 4 and 5), at the
/// reduced scale this reproduction runs at.
pub fn taccl_comparison_topologies() -> Vec<(String, Topology)> {
    vec![
        ("NDv2 x1".into(), teccl_topology::ndv2(1)),
        ("Internal1 x2".into(), teccl_topology::internal1(2)),
        ("Internal2 x2".into(), teccl_topology::internal2(2)),
    ]
}

/// Figures 4 & 5: TE-CCL vs TACCL — algorithmic-bandwidth improvement (%) and
/// solver-time speedup (%) per topology / collective / output-buffer size.
/// Row values: `[bw_improve%, solver_speedup%, teccl_bw GB/s, taccl_bw GB/s,
/// teccl_solver_s, taccl_solver_s]`.
pub fn fig4_fig5_rows(sizes: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, topo) in taccl_comparison_topologies() {
        for kind in [CollectiveKind::AllGather, CollectiveKind::AllToAll] {
            for &size in sizes {
                let scenario = Scenario::collective(
                    format!("{name}-{kind:?}-{}", format_size(size)),
                    topo.clone(),
                    kind,
                    1,
                    size,
                );
                let method = if kind == CollectiveKind::AllGather {
                    RequestMethod::AStar
                } else {
                    RequestMethod::Lp
                };
                let ours = run_teccl(&scenario, &quick_config(), method);
                let taccl = run_taccl(&scenario, 1);
                match (ours, taccl) {
                    (Some(o), Some(t)) => rows.push(Row {
                        labels: vec![name.clone(), format!("{kind:?}"), format_size(size)],
                        values: vec![
                            percent_improvement(o.algo_bw, t.algo_bw),
                            percent_improvement(t.solver_time, o.solver_time),
                            o.algo_bw / 1e9,
                            t.algo_bw / 1e9,
                            o.solver_time,
                            t.solver_time,
                        ],
                    }),
                    (Some(o), None) => rows.push(Row {
                        // TACCL infeasible (the "X" marks in the paper's plots).
                        labels: vec![
                            name.clone(),
                            format!("{kind:?}"),
                            format!("{} (TACCL X)", format_size(size)),
                        ],
                        values: vec![
                            f64::NAN,
                            f64::NAN,
                            o.algo_bw / 1e9,
                            f64::NAN,
                            o.solver_time,
                            f64::NAN,
                        ],
                    }),
                    _ => {}
                }
            }
        }
    }
    rows
}

/// Figure 6: Internal-2 ALLTOALL across chassis counts — solver-time speedup
/// and bandwidth improvement vs TACCL.
pub fn fig6_rows(chassis_counts: &[usize], size: f64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &ch in chassis_counts {
        let topo = teccl_topology::internal2(ch);
        let scenario = Scenario::collective(
            format!("Internal2 x{ch}"),
            topo,
            CollectiveKind::AllToAll,
            1,
            size,
        );
        let ours = run_teccl(&scenario, &quick_config(), RequestMethod::Lp);
        let taccl = run_taccl(&scenario, 1);
        if let (Some(o), Some(t)) = (ours, taccl) {
            rows.push(Row {
                labels: vec![format!("{ch} ch")],
                values: vec![
                    percent_improvement(t.solver_time, o.solver_time),
                    percent_improvement(o.algo_bw, t.algo_bw),
                    o.solver_time,
                    t.solver_time,
                ],
            });
        }
    }
    rows
}

/// Table 4: TE-CCL solver time on the larger (reduced-scale) topologies.
/// Row values: `[gpus, epoch_multiplier, solver_s, transfer_us,
/// simplex_iters, warm_starts, cold_starts, cols_fixed, rows_freed,
/// node_tight, iter_limit]`; rows that exhausted a simplex iteration budget
/// carry an `(ITER-LIMIT)` label and a `1` in the `iter_limit` column
/// instead of being reported as converged.
pub fn table4_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let cases: Vec<(String, Topology, CollectiveKind, RequestMethod)> = vec![
        (
            "Internal1 AG (A*)".into(),
            teccl_topology::internal1(2),
            CollectiveKind::AllGather,
            RequestMethod::AStar,
        ),
        (
            "Internal1 AtoA (LP)".into(),
            teccl_topology::internal1(2),
            CollectiveKind::AllToAll,
            RequestMethod::Lp,
        ),
        (
            "Internal2 AG (A*)".into(),
            teccl_topology::internal2(4),
            CollectiveKind::AllGather,
            RequestMethod::AStar,
        ),
        (
            "Internal2 AtoA (LP)".into(),
            teccl_topology::internal2(4),
            CollectiveKind::AllToAll,
            RequestMethod::Lp,
        ),
        // The 16-GPU pricing wall (ISSUE 8): the largest monolithic ALLTOALL
        // LP, must certify inside the 400 s budget with steepest-edge pricing.
        (
            "Internal1 x4 AtoA (LP)".into(),
            teccl_topology::internal1(4),
            CollectiveKind::AllToAll,
            RequestMethod::Lp,
        ),
    ];
    for (name, topo, kind, method) in cases {
        let gpus = topo.num_gpus();
        let scenario = Scenario::collective(name.clone(), topo, kind, 1, 16.0 * 1024.0 * 1024.0);
        if let Some(o) = run_teccl(&scenario, &quick_config(), method) {
            rows.push(Row {
                labels: vec![mark_iteration_limit(name, o.iteration_limit_hit)],
                values: vec![
                    gpus as f64,
                    1.0,
                    o.solver_time,
                    o.transfer_time * 1e6,
                    o.simplex_iterations as f64,
                    o.warm_starts as f64,
                    o.cold_starts as f64,
                    o.cols_fixed as f64,
                    o.rows_freed as f64,
                    o.node_tightenings as f64,
                    if o.iteration_limit_hit { 1.0 } else { 0.0 },
                ],
            });
        }
    }
    rows
}

/// Figure 7: the benefit of in-network copy — collective finish time with the
/// copy-capable solver vs the copy-free LP, across transfer sizes.
pub fn fig7_rows(sizes: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    let topologies: Vec<(String, Topology)> = vec![
        (
            "Internal1 (a=0)".into(),
            teccl_topology::internal1(1).with_alpha_scaled(0.0),
        ),
        ("Internal1".into(), teccl_topology::internal1(1)),
        ("Internal2 x2".into(), teccl_topology::internal2(2)),
    ];
    for (name, topo) in topologies {
        for &size in sizes {
            let scenario = Scenario::collective(
                format!("{name}-{}", format_size(size)),
                topo.clone(),
                CollectiveKind::AllGather,
                2,
                size,
            );
            let copy = run_teccl(&scenario, &quick_config(), RequestMethod::AStar);
            // "No copy": the LP treats every (chunk, destination) as distinct
            // traffic from the source.
            let no_copy = run_teccl(&scenario, &quick_config(), RequestMethod::Lp);
            if let (Some(c), Some(n)) = (copy, no_copy) {
                rows.push(Row {
                    labels: vec![name.clone(), format_size(size)],
                    values: vec![size / 1e6, c.transfer_time * 1e3, n.transfer_time * 1e3],
                });
            }
        }
    }
    rows
}

/// Figure 8: small (fastest-link) vs large (slowest-link) epochs — solver-time
/// and transfer-time deltas.
pub fn fig8_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let cases: Vec<(String, Topology, CollectiveKind)> = vec![
        (
            "Internal1 AG".into(),
            teccl_topology::internal1(2),
            CollectiveKind::AllGather,
        ),
        (
            "Internal1 AtoA".into(),
            teccl_topology::internal1(2),
            CollectiveKind::AllToAll,
        ),
        (
            "NDv2x1 AG".into(),
            teccl_topology::ndv2(1),
            CollectiveKind::AllGather,
        ),
        (
            "NDv2x1 AtoA".into(),
            teccl_topology::ndv2(1),
            CollectiveKind::AllToAll,
        ),
    ];
    for (name, topo, kind) in cases {
        let scenario = Scenario::collective(name.clone(), topo, kind, 1, 4.0 * 1024.0 * 1024.0);
        let method = if kind == CollectiveKind::AllGather {
            RequestMethod::AStar
        } else {
            RequestMethod::Lp
        };
        let mut small_cfg = quick_config();
        small_cfg.epoch_strategy = EpochStrategy::FastestLink;
        let mut large_cfg = quick_config();
        large_cfg.epoch_strategy = EpochStrategy::SlowestLink;
        let small = run_teccl(&scenario, &small_cfg, method);
        let large = run_teccl(&scenario, &large_cfg, method);
        if let (Some(s), Some(l)) = (small, large) {
            rows.push(Row {
                labels: vec![name],
                values: vec![
                    percent_improvement(s.solver_time, l.solver_time),
                    percent_improvement(s.transfer_time, l.transfer_time),
                    s.transfer_time * 1e6,
                    l.transfer_time * 1e6,
                ],
            });
        }
    }
    rows
}

/// Figure 9: store-and-forward buffers on vs off — solver-time and
/// transfer-time deltas.
pub fn fig9_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let cases: Vec<(String, Topology)> = vec![
        (
            "Internal1 a=0".into(),
            teccl_topology::internal1(1).with_alpha_scaled(0.0),
        ),
        ("Internal1".into(), teccl_topology::internal1(1)),
        ("Internal2 x2".into(), teccl_topology::internal2(2)),
        ("DGX1".into(), teccl_topology::dgx1()),
    ];
    for (name, topo) in cases {
        let scenario = Scenario::collective(
            name.clone(),
            topo,
            CollectiveKind::AllGather,
            1,
            4.0 * 1024.0 * 1024.0,
        );
        let with_cfg = quick_config();
        let mut without_cfg = quick_config();
        without_cfg.buffer_mode = BufferMode::NoStoreAndForward;
        let with_buf = run_teccl(&scenario, &with_cfg, RequestMethod::AStar);
        let without_buf = run_teccl(&scenario, &without_cfg, RequestMethod::AStar);
        if let (Some(w), Some(wo)) = (with_buf, without_buf) {
            rows.push(Row {
                labels: vec![name],
                values: vec![
                    percent_improvement(wo.solver_time, w.solver_time),
                    percent_improvement(wo.transfer_time, w.transfer_time),
                    w.transfer_time * 1e6,
                    wo.transfer_time * 1e6,
                ],
            });
        }
    }
    rows
}

/// §6.3 "A* vs OPT": the A* technique versus the optimal MILP on an
/// Internal-2 topology, with α = 0 and α > 0.
/// Row values: `[astar_solver_s, opt_solver_s, astar_transfer_us, opt_transfer_us]`.
pub fn astar_vs_opt_rows(chassis: usize, chunks: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, topo) in [
        (
            "a=0",
            teccl_topology::internal2(chassis).with_alpha_scaled(0.0),
        ),
        ("a>0", teccl_topology::internal2(chassis)),
    ] {
        let scenario = Scenario::collective(
            format!("Internal2 x{chassis} {label}"),
            topo,
            CollectiveKind::AllGather,
            chunks,
            4.0 * 1024.0 * 1024.0,
        );
        let astar = run_teccl(&scenario, &quick_config(), RequestMethod::AStar);
        let opt = run_teccl(&scenario, &quick_config(), RequestMethod::Milp);
        if let (Some(a), Some(o)) = (astar, opt) {
            rows.push(Row {
                labels: vec![label.into(), format!("{chunks} chunk(s)")],
                values: vec![
                    a.solver_time,
                    o.solver_time,
                    a.transfer_time * 1e6,
                    o.transfer_time * 1e6,
                ],
            });
        }
    }
    rows
}

/// Table 7 (Appendix G): SCCL `instance` mode vs TE-CCL on a DGX-1 with α = 0
/// and 25 KB chunks — solver times and transfer-time difference.
pub fn table7_rows(max_chunks: usize) -> Vec<Row> {
    let topo = teccl_topology::dgx1().with_alpha_scaled(0.0);
    let chunk = 25e3;
    let mut rows = Vec::new();
    for chunks in 1..=max_chunks {
        let scenario = Scenario::collective(
            format!("AG-{chunks}"),
            topo.clone(),
            CollectiveKind::AllGather,
            chunks,
            7.0 * chunk * chunks as f64,
        );
        let sccl = run_sccl(&scenario);
        let ours = run_teccl(&scenario, &quick_config(), RequestMethod::AStar);
        if let (Some(s), Some(o)) = (sccl, ours) {
            rows.push(Row {
                labels: vec![format!("ALLGATHER ({chunks})")],
                values: vec![
                    s.solver_time,
                    o.solver_time,
                    100.0 * (s.transfer_time - o.transfer_time) / s.transfer_time,
                ],
            });
        }
    }
    let scenario = Scenario::collective("AtoA-1", topo, CollectiveKind::AllToAll, 1, 7.0 * chunk);
    if let (Some(s), Some(o)) = (
        run_sccl(&scenario),
        run_teccl(&scenario, &quick_config(), RequestMethod::Lp),
    ) {
        rows.push(Row {
            labels: vec!["ALLTOALL (1)".into()],
            values: vec![
                s.solver_time,
                o.solver_time,
                100.0 * (s.transfer_time - o.transfer_time) / s.transfer_time,
            ],
        });
    }
    rows
}

/// Table 8 (Appendix H): the full NDv2 sweep — epoch duration, collective
/// time, solver time and algorithmic bandwidth for TE-CCL and the TACCL-like
/// baseline, ALLGATHER and ALLTOALL, across output buffer sizes.
/// Row values: `[ED_us, CT_us, ST_s, AB_GBps, taccl_CT_us, taccl_ST_s,
/// taccl_AB_GBps, improvement_%]`.
pub fn table8_rows(sizes: &[f64]) -> Vec<Row> {
    let topo = teccl_topology::ndv2(1);
    let mut rows = Vec::new();
    for kind in [CollectiveKind::AllToAll, CollectiveKind::AllGather] {
        for &size in sizes {
            let scenario = Scenario::collective(
                format!("NDv2-{kind:?}-{}", format_size(size)),
                topo.clone(),
                kind,
                1,
                size,
            );
            let method = if kind == CollectiveKind::AllGather {
                RequestMethod::AStar
            } else {
                RequestMethod::Lp
            };
            let ours = run_teccl(&scenario, &quick_config(), method);
            let taccl = run_taccl(&scenario, 1);
            if let Some(o) = ours {
                let (t_ct, t_st, t_bw) = taccl
                    .map(|t| (t.transfer_time * 1e6, t.solver_time, t.algo_bw / 1e9))
                    .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
                rows.push(Row {
                    labels: vec![format!("{kind:?}"), format_size(size)],
                    values: vec![
                        o.epoch_duration * 1e6,
                        o.transfer_time * 1e6,
                        o.solver_time,
                        o.algo_bw / 1e9,
                        t_ct,
                        t_st,
                        t_bw,
                        percent_improvement(o.algo_bw / 1e9, t_bw),
                    ],
                });
            }
        }
    }
    rows
}

/// Byte counts of paper-style size labels (`"16M"`, `"64K"`).
fn sizes(labels: &[&str]) -> Vec<f64> {
    labels
        .iter()
        .map(|s| teccl_collective::chunk::parse_size(s).expect("size label parses"))
        .collect()
}

/// Every table and figure `run_all_experiments` prints, in the paper's
/// order. `full` holds the larger sweeps; entries without arguments run the
/// same rows at both scales.
pub const TABLES: &[Table] = &[
    Table {
        name: "fig1",
        title: "Figure 1: motivating examples",
        label_headers: &["example"],
        value_headers: &[
            "teccl_finish_ms_or_units",
            "expected/correct",
            "naive_estimate_or_bytes",
        ],
        quick: fig1_rows,
        full: fig1_rows,
    },
    Table {
        name: "fig2",
        title: "Figure 2: relative error of the alpha-free bandwidth estimate",
        label_headers: &["transfer"],
        value_headers: &["transfer_MB", "relative_error_%"],
        quick: || fig2_rows(&[10e3, 1e6, 10e6]),
        full: || fig2_rows(&[10e3, 100e3, 1e6, 10e6]),
    },
    Table {
        name: "table3",
        title: "Table 3: SCCL vs TE-CCL transfer time (us)",
        label_headers: &["collective, #chunks"],
        value_headers: &["sccl_us", "teccl_us"],
        quick: || table3_rows(2),
        full: || table3_rows(3),
    },
    Table {
        name: "fig4_5",
        title: "Figures 4 & 5: algo-bandwidth and solver-time improvement over TACCL (%)",
        label_headers: &["topology", "collective", "output_buffer"],
        value_headers: &[
            "bw_improvement_%",
            "solver_speedup_%",
            "teccl_GBps",
            "taccl_GBps",
            "teccl_solver_s",
            "taccl_solver_s",
        ],
        quick: || fig4_fig5_rows(&sizes(&["4M", "64K"])),
        full: || fig4_fig5_rows(&sizes(&["16M", "4M", "1M", "256K", "64K"])),
    },
    Table {
        name: "fig6",
        title: "Figure 6: Internal2 ALLTOALL vs TACCL",
        label_headers: &["chassis"],
        value_headers: &[
            "solver_speedup_%",
            "bw_improvement_%",
            "teccl_solver_s",
            "taccl_solver_s",
        ],
        quick: || fig6_rows(&[2, 3], 1024.0 * 1024.0),
        full: || fig6_rows(&[2, 3, 4], 4.0 * 1024.0 * 1024.0),
    },
    Table {
        name: "table4",
        title: "Table 4: scale runs (TACCL-free)",
        label_headers: &["topology / collective"],
        value_headers: &[
            "gpus",
            "epoch_multiplier",
            "solver_s",
            "transfer_us",
            "simplex_iters",
            "warm_starts",
            "cold_starts",
            "cols_fixed",
            "rows_freed",
            "node_tight",
            "iter_limit",
        ],
        quick: table4_rows,
        full: table4_rows,
    },
    Table {
        name: "fig7",
        title: "Figure 7: copy vs no-copy collective finish time (ms)",
        label_headers: &["topology", "output_buffer"],
        value_headers: &["size_MB", "with_copy_ms", "no_copy_ms"],
        quick: || fig7_rows(&[1e6, 16e6]),
        full: || fig7_rows(&[256e3, 1e6, 4e6, 16e6]),
    },
    Table {
        name: "fig8",
        title: "Figure 8: small vs large epochs (100*(small-large)/large)",
        label_headers: &["topology, collective"],
        value_headers: &[
            "solver_time_delta_%",
            "transfer_time_delta_%",
            "small_transfer_us",
            "large_transfer_us",
        ],
        quick: fig8_rows,
        full: fig8_rows,
    },
    Table {
        name: "fig9",
        title: "Figure 9: buffers vs no buffers (100*(without-with)/without)",
        label_headers: &["topology"],
        value_headers: &[
            "solver_time_speedup_%",
            "transfer_time_delta_%",
            "with_buffers_us",
            "without_buffers_us",
        ],
        quick: fig9_rows,
        full: fig9_rows,
    },
    Table {
        name: "astar_vs_opt",
        title: "A* vs OPT (Internal2)",
        label_headers: &["alpha", "chunks"],
        value_headers: &[
            "astar_solver_s",
            "opt_solver_s",
            "astar_transfer_us",
            "opt_transfer_us",
        ],
        quick: || astar_vs_opt_rows(2, 1),
        full: || {
            let mut rows = astar_vs_opt_rows(2, 1);
            rows.extend(astar_vs_opt_rows(2, 2));
            rows
        },
    },
    Table {
        name: "table7",
        title: "Table 7: SCCL instance vs TE-CCL (alpha = 0)",
        label_headers: &["collective (#chunks)"],
        value_headers: &["sccl_solver_s", "teccl_solver_s", "transfer_diff_%"],
        quick: || table7_rows(2),
        full: || table7_rows(3),
    },
    Table {
        name: "table8",
        title: "Table 8: NDv2 sweep (TE-CCL vs TACCL-like)",
        label_headers: &["collective", "output_buffer"],
        value_headers: &[
            "ED_us",
            "CT_us",
            "ST_s",
            "AB_GBps",
            "taccl_CT_us",
            "taccl_ST_s",
            "taccl_AB_GBps",
            "improvement_%",
        ],
        quick: || table8_rows(&sizes(&["4M", "64K"])),
        full: || table8_rows(&sizes(&["64M", "16M", "4M", "1M", "256K", "64K", "16K"])),
    },
    Table {
        name: "solver_stats",
        title: "Solver stats",
        label_headers: &["scenario"],
        value_headers: &[
            "solver_s",
            "simplex_iters",
            "dual_iters",
            "bb_nodes",
            "factorizations",
            "warm_starts",
            "cold_starts",
            "cols_fixed",
            "rows_freed",
            "node_tight",
        ],
        quick: solver_stats_rows,
        full: solver_stats_rows,
    },
];

/// The registry entry named `name`.
pub fn table(name: &str) -> Option<&'static Table> {
    TABLES.iter().find(|t| t.name == name)
}

/// Reads `run_all_experiments`' arguments: `--only a,b,…` picks entries of
/// [`TABLES`] by name (every entry without it), `--full` runs them at their
/// full arguments. Returns the picked entries in registry order and whether
/// `--full` was given; errs on an unknown flag or table name, listing the
/// valid names.
pub fn select_tables(args: &[String]) -> Result<(Vec<&'static Table>, bool), String> {
    let valid = || {
        let names: Vec<&str> = TABLES.iter().map(|t| t.name).collect();
        names.join(", ")
    };
    let mut full = false;
    let mut only: Option<Vec<&str>> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--only" => {
                let list = args
                    .next()
                    .ok_or_else(|| format!("--only needs a list of tables: {}", valid()))?;
                only = Some(list.split(',').map(str::trim).collect());
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}; usage: [--only a,b,…] [--full]"
                ))
            }
        }
    }
    let Some(names) = only else {
        return Ok((TABLES.iter().collect(), full));
    };
    if let Some(bad) = names.iter().find(|n| table(n).is_none()) {
        return Err(format!("unknown table {bad:?}; valid names: {}", valid()));
    }
    let picked = TABLES.iter().filter(|t| names.contains(&t.name)).collect();
    Ok((picked, full))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builder_sizes_chunks_correctly() {
        let topo = teccl_topology::internal1(1);
        let s = Scenario::collective("t", topo, CollectiveKind::AllGather, 2, 6.0e6);
        // 4 GPUs → transfer per destination = 2 MB, 2 chunks of 1 MB.
        assert!((s.chunk_bytes - 1.0e6).abs() < 1.0);
        assert_eq!(s.demand.num_chunks, 2);
    }

    #[test]
    fn run_helpers_produce_consistent_metrics() {
        let topo = teccl_topology::internal2(2);
        let scenario = Scenario::collective("t", topo, CollectiveKind::AllGather, 1, 1.0e6);
        let ours = run_teccl(&scenario, &quick_config(), RequestMethod::AStar).unwrap();
        assert!(ours.transfer_time > 0.0);
        assert!((ours.algo_bw - scenario.output_buffer / ours.transfer_time).abs() < 1.0);
        let sp = run_shortest_path(&scenario).unwrap();
        assert!(sp.transfer_time > 0.0);
        let sccl = run_sccl(&scenario).unwrap();
        assert!(sccl.transfer_time > 0.0);
        let taccl = run_taccl(&scenario, 1).unwrap();
        assert!(taccl.transfer_time > 0.0);
    }

    #[test]
    fn sweep_is_descending_and_parsable() {
        let sweep = output_buffer_sweep();
        assert!(sweep.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(sweep[0], 256.0 * 1024.0 * 1024.0);
    }

    /// Every row has one cell per header of its registry entry.
    fn assert_shape(name: &str, rows: &[Row]) {
        let entry = table(name).expect("registered table");
        assert!(!rows.is_empty(), "{name} printed no rows");
        for row in rows {
            assert_eq!(row.labels.len(), entry.label_headers.len(), "{name}");
            assert_eq!(row.values.len(), entry.value_headers.len(), "{name}");
        }
    }

    #[test]
    fn fig6_rows_have_expected_shape() {
        let rows = fig6_rows(&[2], 1024.0 * 1024.0);
        assert_eq!(rows.len(), 1);
        assert_shape("fig6", &rows);
        for name in ["fig1", "fig2"] {
            assert_shape(name, &table(name).unwrap().rows(false));
        }
    }

    #[test]
    fn registry_names_are_unique_and_only_rejects_unknown_names() {
        let mut names: Vec<&str> = TABLES.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TABLES.len(), "duplicate table name");

        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (all, full) = select_tables(&[]).unwrap();
        assert_eq!((all.len(), full), (TABLES.len(), false));
        let (picked, full) = select_tables(&args(&["--only", "table4,fig1", "--full"])).unwrap();
        let picked: Vec<&str> = picked.iter().map(|t| t.name).collect();
        assert_eq!((picked, full), (vec!["fig1", "table4"], true));

        let err = select_tables(&args(&["--only", "fig1,fig3"])).unwrap_err();
        assert!(err.contains("\"fig3\""), "{err}");
        for t in TABLES {
            assert!(err.contains(t.name), "{err} does not list {}", t.name);
        }
        assert!(select_tables(&args(&["--only"])).is_err());
        assert!(select_tables(&args(&["--fast"])).is_err());

        // The runner's exit status reads this mark.
        let row = |hit| Row {
            labels: vec![mark_iteration_limit("case", hit)],
            values: Vec::new(),
        };
        assert!(row(true).hit_iteration_limit() && !row(false).hit_iteration_limit());
    }
}

#![forbid(unsafe_code)]
//! # te-ccl
//!
//! A Rust reproduction of **TE-CCL** — *"Rethinking Machine Learning Collective
//! Communication as a Multi-Commodity Flow Problem"* (SIGCOMM 2024).
//!
//! This facade crate re-exports the workspace crates so applications can use a
//! single dependency:
//!
//! * [`lp`] — the LP / MILP solver substrate (Gurobi substitute),
//! * [`topology`] — GPU cluster topologies (DGX1, NDv2, DGX2, synthetic cloud
//!   topologies) with the α–β cost model,
//! * [`collective`] — collective demand matrices (ALLGATHER, ALLTOALL, …),
//! * [`core`] — the TE-CCL optimizer (general MILP, LP, and A* formulations),
//! * [`schedule`] — schedules, validation, the α–β simulator and metrics,
//! * [`baselines`] — ring, shortest-path, SCCL-like and TACCL-like baselines,
//! * [`service`] — the schedule service: content-addressed schedule cache,
//!   single-flight concurrent solve orchestrator, and the `teccld` /
//!   `teccl-cli` binaries.
//!
//! ## Quickstart
//!
//! ```
//! use te_ccl::prelude::*;
//!
//! // An 8-GPU DGX-1 box, ALLGATHER of one 1 MB chunk per GPU.
//! let topo = te_ccl::topology::dgx1();
//! let gpus: Vec<NodeId> = topo.gpus().collect();
//! let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);
//!
//! // Solve with TE-CCL (A* keeps the doc-test fast; `RequestMethod::Auto`
//! // would pick the general MILP for a topology this small).
//! let solver = TeCcl::new(topo.clone(), SolverConfig::early_stop());
//! let outcome = solver
//!     .solve(&demand, 1.0e6, RequestMethod::AStar, None)
//!     .unwrap();
//!
//! // The schedule is valid and satisfies every demand.
//! let report = validate(&topo, &demand, &outcome.schedule, false);
//! assert!(report.is_valid());
//!
//! // And the α–β simulator tells us the collective finish time.
//! let sim = simulate(&topo, &demand, &outcome.schedule).unwrap();
//! assert!(sim.transfer_time > 0.0);
//! ```

pub use teccl_baselines as baselines;
pub use teccl_collective as collective;
pub use teccl_core as core;
pub use teccl_lp as lp;
pub use teccl_schedule as schedule;
pub use teccl_service as service;
pub use teccl_topology as topology;
pub use teccl_util as util;

/// Commonly used items, for `use te_ccl::prelude::*`.
pub mod prelude {
    pub use teccl_collective::{
        ChunkSpec, CollectiveKind, CollectiveSizing, DemandMatrix, TenantDemand,
    };
    pub use teccl_core::{
        BufferMode, EpochStrategy, RequestMethod, SolveOutcome, SolverConfig, SwitchModel, TeCcl,
    };
    pub use teccl_schedule::{simulate, validate, CollectiveMetrics, Schedule};
    pub use teccl_topology::{NodeId, Topology};
    pub use teccl_util::json::Value as JsonValue;
}

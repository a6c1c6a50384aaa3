#![forbid(unsafe_code)]
//! # teccl-core
//!
//! The TE-CCL collective-communication optimizer: the paper's contribution.
//!
//! TE-CCL models collective communication scheduling as a multi-commodity flow
//! problem over discrete epochs, extended with the three ingredients
//! traditional traffic engineering lacks (§2.2): finite *temporal* demands with
//! proper α-delay modeling, *store-and-forward* buffering at GPUs, and
//! in-network *copy* (multicast).
//!
//! Three formulations are provided, mirroring §3–§4 of the paper:
//!
//! * [`milp_form`] — the general mixed-integer program (§3.1): per-chunk 0/1
//!   flow and buffer variables, supports copy; optimal but the least scalable.
//! * [`lp_form`] — the linear program for copy-free demands such as ALLTOALL
//!   (§4.1): per-source aggregated continuous flows; optimal and scalable.
//!   It is built over a [`symmetry`] group, one representative per source
//!   orbit.
//! * [`astar`] — the A*-inspired time-partitioned solver (§4.2, Appendix D):
//!   a sequence of smaller MILPs, each rewarded for moving chunks closer to
//!   their destinations; scalable, supports copy, slightly sub-optimal.
//!
//! The top-level entry point is [`TeCcl`] in [`solver`], which picks a
//! formulation per demand (copy-free → LP, otherwise MILP or A* depending on
//! problem size) and returns an executable [`teccl_schedule::Schedule`]
//! together with solve statistics.
//!
//! ```
//! use teccl_core::{RequestMethod, SolverConfig, TeCcl};
//! use teccl_collective::DemandMatrix;
//! use teccl_topology::{line_topology, NodeId};
//!
//! // Broadcast one 1 MB chunk from GPU 0 over a 3-GPU line.
//! let topo = line_topology(3, 1.0e9, 1.0e-6);
//! let gpus: Vec<NodeId> = topo.gpus().collect();
//! let demand = DemandMatrix::broadcast(topo.num_nodes(), &gpus, gpus[0], 1);
//! let solver = TeCcl::new(topo, SolverConfig::default());
//! let result = solver
//!     .solve(&demand, 1.0e6, RequestMethod::Auto, None)
//!     .unwrap();
//! assert!(result.schedule.num_sends() >= 2);
//! ```

pub mod astar;
pub mod config;
pub mod epochs;
pub mod error;
pub mod extract;
pub mod lp_form;
pub mod milp_form;
pub mod solver;
pub mod switch;
pub mod symmetry;

pub use config::{BufferMode, EpochStrategy, SolverConfig, SwitchModel};
pub use error::TeCclError;
pub use solver::{RequestMethod, SolveOutcome, TeCcl};

#![forbid(unsafe_code)]
//! # teccl-topology
//!
//! GPU cluster topologies for TE-CCL: a directed-graph model of GPUs, switches
//! and links annotated with the α–β cost model the paper uses (per-link fixed
//! latency α and bandwidth, i.e. β = 1/capacity), plus builders for the
//! topologies evaluated in the paper (DGX1, NDv2, DGX2, and synthetic stand-ins
//! for the proprietary "Internal 1" / "Internal 2" cloud topologies) and the
//! motivating examples of Figure 1.
//!
//! Capacities are expressed in **bytes per second** and α in **seconds**; the
//! optimizer converts them into chunks-per-epoch once a chunk size and epoch
//! duration are chosen (§5 of the paper).

pub mod builders;
pub mod graph;
pub mod json;
pub mod paths;

pub use builders::*;
pub use graph::{Link, LinkId, Node, NodeId, NodeKind, Topology, TopologyError};
pub use paths::{all_pairs_alpha_distance, floyd_warshall, shortest_path, PathMatrix};

/// One gigabyte per second, in bytes per second.
pub const GBPS: f64 = 1.0e9;

/// One microsecond, in seconds.
pub const MICROSECOND: f64 = 1.0e-6;

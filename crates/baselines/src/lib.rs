#![forbid(unsafe_code)]
//! # teccl-baselines
//!
//! The comparison systems the TE-CCL paper evaluates against, reimplemented on
//! the same topology / demand / schedule substrate so every scheduler can be
//! measured by the same α–β simulator:
//!
//! * [`ring`] — NCCL-style ring ALLGATHER / ALLREDUCE schedules (the
//!   production default the paper's introduction motivates improving on),
//! * [`shortest_path`] — shortest-path unicast schedules (the approach of
//!   Zhao et al. \[31\], which "fails to leverage copy", §2.1),
//! * [`sccl_like`] — a synchronous-round synthesizer standing in for SCCL:
//!   every round is a barrier (each link carries at most one chunk per round,
//!   every round pays the worst α), which is exactly the modeling difference
//!   §6.1 exploits ("TE-CCL ... pipelines traffic; SCCL enforces a barrier"),
//! * [`taccl_like`] — a TACCL-style two-phase heuristic (routing first, then
//!   ordering) with seeded randomness and a budget knob, reproducing the
//!   structural weaknesses §6.1 reports: routing and scheduling are not
//!   co-optimized, results vary run to run, and tight budgets can fail.

pub mod ring;
pub mod sccl_like;
pub mod shortest_path;
pub mod taccl_like;

pub use ring::{ring_all_gather, ring_all_reduce_demand_schedule};
pub use sccl_like::{sccl_like_schedule, ScclLikeResult};
pub use shortest_path::shortest_path_schedule;
pub use taccl_like::{taccl_like_schedule, TacclConfig, TacclResult};

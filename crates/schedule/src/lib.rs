#![forbid(unsafe_code)]
//! # teccl-schedule
//!
//! Collective communication *schedules* and the machinery to evaluate them:
//!
//! * [`Schedule`] — the per-epoch list of chunk sends a solver produces
//!   (TE-CCL's output, §3.1, exported in an MSCCL-like JSON form),
//! * [`validate`](mod@validate) — structural checks: causality (a node only forwards chunks
//!   it already holds), link capacity per epoch, and demand satisfaction,
//! * [`sim`] — an event-driven α–β cost-model simulator that plays a schedule
//!   out on a topology and reports the actual transfer (collective finish)
//!   time; this is the measurement platform of §6 ("we use the solvers and the
//!   schedules they produce to compute the transfer times and algorithmic
//!   bandwidth"),
//! * [`metrics`] — the paper's metrics: transfer time, output buffer size,
//!   algorithmic bandwidth, solver time.

pub mod metrics;
pub mod output;
pub mod schedule;
pub mod sim;
pub mod validate;

pub use metrics::{percent_improvement, CollectiveMetrics};
pub use output::ScheduleOutput;
pub use schedule::{ChunkId, Schedule, Send};
pub use sim::{simulate, SimError, SimReport};
pub use validate::{validate, ValidationError, ValidationReport};

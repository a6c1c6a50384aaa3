#![forbid(unsafe_code)]
//! # teccl-service
//!
//! The schedule *service*: the long-running, concurrent face of the TE-CCL
//! solver. The paper's pitch is that MCF-based synthesis is fast enough to
//! run on demand; in a real deployment the same `(topology, collective,
//! buffer size)` requests then recur constantly across jobs and tenants, so
//! the service never solves the same request twice:
//!
//! * [`key`] — canonical, content-addressed request keys: topology
//!   fingerprints (canonical edge order, quantized α/β, names ignored),
//!   collective/config fingerprints with quantized floats, and half-octave
//!   buffer-size bucketing.
//! * [`cache`] — a bounded in-memory LRU over those keys plus an optional
//!   on-disk store of `teccl-util`-JSON schedules, re-validated with
//!   [`teccl_schedule::validate()`] on every load.
//! * [`service`] — the orchestrator: a `std::thread` worker pool with a
//!   request queue, **single-flight** coalescing of identical concurrent
//!   misses, and cross-request **warm starting** (completed solves publish
//!   their final LP basis; cache-adjacent requests re-optimize from it as
//!   the `warm` argument of `TeCcl::solve`).
//! * [`protocol`] / [`server`] — a line-delimited-JSON-over-TCP protocol
//!   (`solve` / `stats` / `evict`) served by the `teccld` binary and driven
//!   by the `teccl-cli` batch client.
//! * [`fault`] / [`sync`] — deterministic fault injection (panics, stalls,
//!   corrupt reads, dropped connections via `teccld --fault-plan`) and
//!   poison-recovering lock helpers, so the robustness story — deadline
//!   degradation ladder, worker respawn, disk quarantine — is testable.
//!
//! Everything is `std`-only, like the rest of the workspace.

pub mod cache;
pub mod fault;
pub mod key;
pub mod protocol;
pub mod server;
pub mod service;
pub mod sync;

pub use cache::{CacheEntry, DiskStore, Quality, ScheduleCache};
pub use fault::FaultPlan;
pub use key::{builtin_topology, RequestError, RequestKey, SolveRequest};
pub use server::{serve, ServerHandle};
pub use service::{
    CacheStatus, ScheduleService, ServedSchedule, ServiceConfig, ServiceError, ServiceStats, Ticket,
};
pub use teccl_core::RequestMethod;

#[cfg(test)]
mod thread_safety_tests {
    use super::*;

    /// The service moves requests, entries and errors across threads and
    /// shares itself behind an `Arc` — all of that must be `Send + Sync`.
    #[test]
    fn service_types_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<SolveRequest>();
        assert_sync::<SolveRequest>();
        assert_send::<ScheduleService>();
        assert_sync::<ScheduleService>();
        assert_send::<CacheEntry>();
        assert_sync::<CacheEntry>();
        assert_send::<ServiceError>();
        assert_send::<Ticket>();
        assert_send::<teccl_core::SolveOutcome>();
        assert_sync::<teccl_core::SolveOutcome>();
        assert_send::<teccl_core::TeCcl>();
        assert_sync::<teccl_core::TeCcl>();
    }
}

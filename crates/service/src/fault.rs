//! Deterministic fault injection for the service.
//!
//! A [`FaultPlan`] is a small set of countdown counters, one per fault site.
//! Each counter arms its fault for the next N occurrences and then goes
//! inert, so a test (or a chaos run of the daemon) can say exactly "the
//! first solve panics, the next two are delayed 10 ms" and assert what the
//! service does about it.
//!
//! Plans are written as a comma-separated spec, e.g.
//!
//! ```text
//! panic-in-solve=1,slow-solve=10:2,corrupt-disk-read=1,drop-connection=3
//! ```
//!
//! * `panic-in-solve=N` — the next N solves panic on the worker thread.
//! * `slow-solve=MS:N` — the next N solves sleep MS milliseconds first.
//! * `corrupt-disk-read=N` — the next N disk-store reads behave as if the
//!   file were corrupt (it is quarantined like a real corruption).
//! * `drop-connection=N` — the server drops the TCP connection instead of
//!   writing the next N responses.
//!
//! The plan comes from [`crate::service::ServiceConfig::fault_plan`]
//! (`teccld --fault-plan`); unset, it is inert. Production builds pay one
//! relaxed atomic load per site.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Armed fault counters; see the module docs for the spec grammar.
#[derive(Debug, Default)]
pub struct FaultPlan {
    panic_in_solve: AtomicU64,
    slow_solve: AtomicU64,
    slow_solve_ms: u64,
    corrupt_disk_read: AtomicU64,
    drop_connection: AtomicU64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parses a spec string (see the module docs). The empty string is the
    /// inert plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not name=value"))?;
            let count = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad count in fault clause `{clause}`"))
            };
            match name.trim() {
                "panic-in-solve" => plan.panic_in_solve = AtomicU64::new(count(value)?),
                "slow-solve" => {
                    let (ms, n) = value
                        .split_once(':')
                        .ok_or_else(|| format!("slow-solve wants MS:N, got `{value}`"))?;
                    plan.slow_solve_ms = count(ms)?;
                    plan.slow_solve = AtomicU64::new(count(n)?);
                }
                "corrupt-disk-read" => plan.corrupt_disk_read = AtomicU64::new(count(value)?),
                "drop-connection" => plan.drop_connection = AtomicU64::new(count(value)?),
                other => return Err(format!("unknown fault site `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Decrements a counter if it is still armed; true means "fire now".
    fn take(counter: &AtomicU64) -> bool {
        counter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Should the current solve panic?
    pub fn should_panic_in_solve(&self) -> bool {
        Self::take(&self.panic_in_solve)
    }

    /// How long the current solve should stall first, if armed.
    pub fn slow_solve_delay(&self) -> Option<Duration> {
        Self::take(&self.slow_solve).then(|| Duration::from_millis(self.slow_solve_ms))
    }

    /// Should the current disk-store read behave as corrupt?
    pub fn should_corrupt_disk_read(&self) -> bool {
        Self::take(&self.corrupt_disk_read)
    }

    /// Should the server drop the connection instead of responding?
    pub fn should_drop_connection(&self) -> bool {
        Self::take(&self.drop_connection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let p = FaultPlan::none();
        assert!(!p.should_panic_in_solve());
        assert!(p.slow_solve_delay().is_none());
        assert!(!p.should_corrupt_disk_read());
        assert!(!p.should_drop_connection());
        assert!(FaultPlan::parse("").is_ok());
    }

    #[test]
    fn counters_count_down_and_exhaust() {
        let p = FaultPlan::parse("panic-in-solve=2,slow-solve=7:1,corrupt-disk-read=1").unwrap();
        assert!(p.should_panic_in_solve());
        assert!(p.should_panic_in_solve());
        assert!(!p.should_panic_in_solve(), "exhausted after two");
        assert_eq!(p.slow_solve_delay(), Some(Duration::from_millis(7)));
        assert!(p.slow_solve_delay().is_none());
        assert!(p.should_corrupt_disk_read());
        assert!(!p.should_corrupt_disk_read());
        assert!(!p.should_drop_connection(), "unarmed site stays inert");
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(FaultPlan::parse("panic-in-solve").is_err());
        assert!(FaultPlan::parse("panic-in-solve=x").is_err());
        assert!(FaultPlan::parse("slow-solve=10").is_err());
        assert!(FaultPlan::parse("teleport=1").is_err());
    }
}

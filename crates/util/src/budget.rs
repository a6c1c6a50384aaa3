//! Cooperative solve budgets: deadline + iteration cap + cancellation flag.
//!
//! A [`SolveBudget`] is shared (cheaply cloned — clones observe the same
//! atomics) between the thread that owns a solve and the solver's innermost
//! loops. The solver calls [`SolveBudget::charge`] once per pivot / node /
//! round; the owner can revoke the budget at any time with
//! [`SolveBudget::cancel`], or let the deadline or iteration cap trip it.
//! Checks are designed to sit on a hot loop: a relaxed atomic load, a
//! relaxed counter add, and an `Instant` comparison.
//!
//! The budget lives here (not in the LP crate) so every layer — simplex
//! pivots, branch-and-bound nodes, A* rounds, and the schedule service's
//! deadline ladder — shares one vocabulary for "stop now, hand back your
//! best incumbent".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted solve was stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// [`SolveBudget::cancel`] was called.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The shared iteration cap was consumed.
    IterationCap,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetExceeded::Cancelled => write!(f, "cancelled"),
            BudgetExceeded::DeadlineExceeded => write!(f, "deadline exceeded"),
            BudgetExceeded::IterationCap => write!(f, "iteration cap exceeded"),
        }
    }
}

impl BudgetExceeded {
    /// Stable wire/JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            BudgetExceeded::Cancelled => "cancelled",
            BudgetExceeded::DeadlineExceeded => "deadline_exceeded",
            BudgetExceeded::IterationCap => "iteration_cap",
        }
    }

    /// Inverse of [`BudgetExceeded::name`].
    pub fn from_name(name: &str) -> Option<BudgetExceeded> {
        match name {
            "cancelled" => Some(BudgetExceeded::Cancelled),
            "deadline_exceeded" => Some(BudgetExceeded::DeadlineExceeded),
            "iteration_cap" => Some(BudgetExceeded::IterationCap),
            _ => None,
        }
    }
}

/// A shared, cooperative budget for one logical solve.
///
/// `Clone` is shallow: all clones share the cancel flag and the iteration
/// counter, so a budget handed to a B&B node and the one held by the
/// service worker are the same budget.
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    deadline: Option<Instant>,
    iteration_cap: Option<u64>,
    cancel: Arc<AtomicBool>,
    iterations: Arc<AtomicU64>,
}

impl SolveBudget {
    /// A budget that never trips (cancellation still works).
    pub fn unlimited() -> SolveBudget {
        SolveBudget::default()
    }

    /// A budget that trips once `timeout` has elapsed from now.
    pub fn with_deadline(timeout: Duration) -> SolveBudget {
        SolveBudget {
            deadline: Some(Instant::now() + timeout),
            ..SolveBudget::default()
        }
    }

    /// A budget that trips after `cap` charged iterations (shared across
    /// all clones).
    pub fn with_iteration_cap(cap: u64) -> SolveBudget {
        SolveBudget {
            iteration_cap: Some(cap),
            ..SolveBudget::default()
        }
    }

    /// Adds a deadline to an existing budget.
    pub fn and_deadline(mut self, timeout: Duration) -> SolveBudget {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Adds an iteration cap to an existing budget.
    pub fn and_iteration_cap(mut self, cap: u64) -> SolveBudget {
        self.iteration_cap = Some(cap);
        self
    }

    /// Revokes the budget: every holder's next `charge`/`exceeded` call
    /// reports [`BudgetExceeded::Cancelled`].
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether [`SolveBudget::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Total iterations charged so far across all clones.
    pub fn iterations_used(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// The remaining wall-clock time, if a deadline is set.
    pub fn time_remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Charges `n` iterations of work and reports whether the budget has
    /// been exhausted. Call this from the innermost loop (one pivot, one
    /// B&B node, one A* round).
    pub fn charge(&self, n: u64) -> Result<(), BudgetExceeded> {
        if self.is_cancelled() {
            return Err(BudgetExceeded::Cancelled);
        }
        let used = self.iterations.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(cap) = self.iteration_cap {
            if used > cap {
                return Err(BudgetExceeded::IterationCap);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetExceeded::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Checks the budget without charging work.
    pub fn exceeded(&self) -> Option<BudgetExceeded> {
        self.charge(0).err()
    }
}

/// Batches [`SolveBudget::charge`] calls from one hot loop.
///
/// A full `charge` is an atomic add plus a clock read. The batcher keeps a
/// local pending count and flushes it to the shared counter every
/// [`ChargeBatcher::FLUSH_EVERY`] ticks; the cancel flag is still read on
/// **every** tick (one relaxed load), so cancellation latency stays one
/// pivot.
///
/// Iteration-cap precision is preserved through a local snapshot of the
/// shared counter (refreshed at each flush): a flush is forced as soon as
/// `snapshot + pending` would cross the cap, so the batcher trips on exactly
/// the same pivot as unbatched charging. Deadline trips coarsen to the flush
/// granularity — far below anything the solver's deadline ladder can resolve.
///
/// Call [`ChargeBatcher::flush`] before dropping the batcher (or on leaving
/// the loop) so the shared accounting stays exact; an unflushed remainder
/// only under-reports `iterations_used` by at most `FLUSH_EVERY - 1`.
#[derive(Debug)]
pub struct ChargeBatcher<'a> {
    budget: Option<&'a SolveBudget>,
    pending: u64,
    /// `iterations_used()` as of the last flush; `snapshot + pending` is the
    /// exact used count while nothing else charges the same budget.
    snapshot: u64,
}

impl<'a> ChargeBatcher<'a> {
    /// Ticks between flushes of the pending count to the shared counter.
    pub const FLUSH_EVERY: u64 = 64;

    /// Wraps an optional budget; a `None` budget makes every call a no-op.
    pub fn new(budget: Option<&'a SolveBudget>) -> ChargeBatcher<'a> {
        ChargeBatcher {
            budget,
            pending: 0,
            snapshot: budget.map_or(0, |b| b.iterations_used()),
        }
    }

    /// Charges one unit of work, batched. Cancellation is checked on every
    /// call; cap/deadline checks run at each flush, with the flush forced
    /// early when the local view says the cap is about to be crossed.
    #[inline]
    pub fn charge(&mut self) -> Result<(), BudgetExceeded> {
        let Some(b) = self.budget else {
            return Ok(());
        };
        if b.is_cancelled() {
            return Err(BudgetExceeded::Cancelled);
        }
        self.pending += 1;
        let cap_near = b
            .iteration_cap
            .is_some_and(|cap| self.snapshot + self.pending > cap);
        if self.pending >= Self::FLUSH_EVERY || cap_near {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Flushes the pending count to the shared counter and runs the full
    /// cap/deadline check.
    pub fn flush(&mut self) -> Result<(), BudgetExceeded> {
        let Some(b) = self.budget else {
            return Ok(());
        };
        let n = std::mem::take(&mut self.pending);
        let r = b.charge(n);
        self.snapshot = b.iterations_used();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = SolveBudget::unlimited();
        for _ in 0..1000 {
            assert_eq!(b.charge(1_000_000), Ok(()));
        }
        assert_eq!(b.exceeded(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let b = SolveBudget::unlimited();
        let inner = b.clone();
        assert_eq!(inner.charge(1), Ok(()));
        b.cancel();
        assert_eq!(inner.charge(1), Err(BudgetExceeded::Cancelled));
        assert_eq!(inner.exceeded(), Some(BudgetExceeded::Cancelled));
        assert!(b.is_cancelled());
    }

    #[test]
    fn iteration_cap_is_shared_across_clones() {
        let b = SolveBudget::with_iteration_cap(10);
        let inner = b.clone();
        assert_eq!(b.charge(6), Ok(()));
        assert_eq!(inner.charge(4), Ok(())); // exactly at the cap
        assert_eq!(inner.charge(1), Err(BudgetExceeded::IterationCap));
        assert_eq!(b.iterations_used(), 11);
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let b = SolveBudget::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.charge(1), Err(BudgetExceeded::DeadlineExceeded));
        assert_eq!(b.time_remaining(), Some(Duration::ZERO));
        let far = SolveBudget::with_deadline(Duration::from_secs(3600));
        assert_eq!(far.charge(1), Ok(()));
        assert!(far.time_remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancelled_wins_over_other_causes() {
        let b = SolveBudget::with_deadline(Duration::from_millis(0)).and_iteration_cap(0);
        b.cancel();
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(b.charge(1), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn batcher_flushes_and_preserves_cancel_latency() {
        let b = SolveBudget::unlimited();
        let mut batch = ChargeBatcher::new(Some(&b));
        for _ in 0..ChargeBatcher::FLUSH_EVERY - 1 {
            assert_eq!(batch.charge(), Ok(()));
        }
        assert_eq!(b.iterations_used(), 0, "pending work not yet flushed");
        assert_eq!(batch.charge(), Ok(()));
        assert_eq!(b.iterations_used(), ChargeBatcher::FLUSH_EVERY);
        // A cancel is seen on the very next tick, not at the next flush.
        assert_eq!(batch.charge(), Ok(()));
        b.cancel();
        assert_eq!(batch.charge(), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn batcher_trips_iteration_cap_on_the_exact_tick() {
        // Single-threaded cap precision: the batcher must error on the same
        // tick unbatched per-pivot charging would, not at the next 64-flush.
        let b = SolveBudget::with_iteration_cap(10);
        let mut batch = ChargeBatcher::new(Some(&b));
        for i in 0..10 {
            assert_eq!(batch.charge(), Ok(()), "tick {i} within cap");
        }
        assert_eq!(batch.charge(), Err(BudgetExceeded::IterationCap));
        assert_eq!(b.iterations_used(), 11, "the tripping tick is flushed");
    }

    #[test]
    fn batcher_explicit_flush_settles_remainder() {
        let b = SolveBudget::unlimited();
        let mut batch = ChargeBatcher::new(Some(&b));
        for _ in 0..5 {
            assert_eq!(batch.charge(), Ok(()));
        }
        assert_eq!(batch.flush(), Ok(()));
        assert_eq!(b.iterations_used(), 5);
        let mut none = ChargeBatcher::new(None);
        assert_eq!(none.charge(), Ok(()));
        assert_eq!(none.flush(), Ok(()));
    }

    #[test]
    fn names_roundtrip() {
        for cause in [
            BudgetExceeded::Cancelled,
            BudgetExceeded::DeadlineExceeded,
            BudgetExceeded::IterationCap,
        ] {
            assert_eq!(BudgetExceeded::from_name(cause.name()), Some(cause));
            assert!(!cause.to_string().is_empty());
        }
        assert_eq!(BudgetExceeded::from_name("nope"), None);
    }
}

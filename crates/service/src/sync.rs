//! Poison-recovering, order-checked lock helpers.
//!
//! A worker that panics while holding the state mutex poisons it; with plain
//! `lock().unwrap()` every later request would then panic too, turning one
//! bad solve into a dead service. The service's invariants are all
//! re-derivable (queue/cache/map bookkeeping — no multi-step critical
//! sections that leave half-applied state), so the right response to poison
//! is to clear it and keep serving.
//!
//! The second hazard is lock-order inversion: the service holds two mutexes
//! ([`LockRank::Workers`] over the worker-handle table, [`LockRank::State`]
//! over the queue/cache/map state), and `ensure_workers` acquires the state
//! lock while already holding the workers lock. If any other path ever
//! acquired them in the opposite order the classic two-lock deadlock would be
//! one unlucky interleaving away. The acquisition order is therefore
//! *declared* — a lock may only be acquired while every lock already held by
//! this thread has a strictly smaller [`LockRank`] — and enforced twice:
//!
//! * statically, by `teccl-lint`'s `lock-order` rule, which extracts the
//!   acquisition graph from the source (including one level of calls) and
//!   fails CI on any cycle or rank inversion;
//! * dynamically in debug builds, by a thread-local stack of held ranks that
//!   panics the moment an acquisition violates the declared order, whether or
//!   not the opposing thread is running. Release builds compile the
//!   bookkeeping out.

use std::sync::{Condvar, Mutex, MutexGuard};

/// The declared lock-acquisition order for the whole service, smallest first.
/// A thread may only acquire a lock whose rank is strictly greater than every
/// rank it already holds. Extend by appending variants in acquisition order;
/// `teccl-lint` parses this declaration to learn the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockRank {
    /// [`crate::ScheduleService`]'s worker-handle table (`workers`).
    Workers = 0,
    /// The orchestrator state mutex (`Inner::state`): queue, cache, in-flight
    /// map, basis book, active workers, stats.
    State = 1,
    /// A [`crate::DiskStore`]'s evict count, held across a save's rename
    /// and an evict's deletions.
    Disk = 2,
}

impl LockRank {
    /// Human-readable name for panic messages (only the debug-build rank
    /// checker panics with it, so release builds compile it out).
    #[cfg(debug_assertions)]
    fn name(self) -> &'static str {
        match self {
            LockRank::Workers => "Workers",
            LockRank::State => "State",
            LockRank::Disk => "Disk",
        }
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Ranks of the locks this thread currently holds, in acquisition order.
    static HELD: std::cell::RefCell<Vec<LockRank>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Debug-only: records an acquisition, panicking on a rank inversion.
#[cfg(debug_assertions)]
fn rank_acquire(rank: LockRank) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(&worst) = held.iter().max() {
            assert!(
                worst < rank,
                "lock-order violation: acquiring {} while already holding {} \
                 (declared order: {:?})",
                rank.name(),
                worst.name(),
                *held,
            );
        }
        held.push(rank);
    });
}

/// Debug-only: records a release (guards may drop in any order).
#[cfg(debug_assertions)]
fn rank_release(rank: LockRank) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&r| r == rank) {
            held.remove(pos);
        }
    });
}

/// A [`MutexGuard`] tagged with its [`LockRank`]; releases the rank from the
/// thread's held-lock stack when dropped.
#[derive(Debug)]
pub struct RankedGuard<'a, T> {
    /// `None` only transiently, while [`wait_recover`] has handed the inner
    /// guard to the condvar; such a husk never escapes and its `Drop` is
    /// rank-inert.
    guard: Option<MutexGuard<'a, T>>,
    rank: LockRank,
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard surrendered to wait")
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard surrendered to wait")
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.take().is_some() {
            #[cfg(debug_assertions)]
            rank_release(self.rank);
            #[cfg(not(debug_assertions))]
            let _ = self.rank;
        }
    }
}

/// Locks `m` at `rank`, clearing poison left by a panicked holder. Panics in
/// debug builds if this thread already holds a lock of equal or greater rank
/// (the declared-order check).
pub fn lock_recover<T>(m: &Mutex<T>, rank: LockRank) -> RankedGuard<'_, T> {
    #[cfg(debug_assertions)]
    rank_acquire(rank);
    let guard = match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            m.clear_poison();
            poisoned.into_inner()
        }
    };
    RankedGuard {
        guard: Some(guard),
        rank,
    }
}

/// Waits on `cv`, recovering the guard even if the mutex was poisoned while
/// we slept (the poison flag itself is cleared on the next [`lock_recover`]).
/// The guard's rank stays on the held stack across the wait: the blocked
/// thread still *logically* owns that slot in the order, and service waiters
/// never hold a second lock while waiting.
pub fn wait_recover<'a, T>(cv: &Condvar, mut guard: RankedGuard<'a, T>) -> RankedGuard<'a, T> {
    let inner = guard.guard.take().expect("guard surrendered to wait");
    // `guard` is now a husk: its Drop sees None and leaves the rank held.
    let rank = guard.rank;
    let reacquired = match cv.wait(inner) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    RankedGuard {
        guard: Some(reacquired),
        rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lock_recover_clears_poison() {
        let m = Mutex::new(7);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(r.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m, LockRank::State), 7);
        assert!(!m.is_poisoned(), "poison cleared for future lockers");
        assert!(m.lock().is_ok());
    }

    #[test]
    fn ordered_acquisition_passes() {
        let workers = Mutex::new(0);
        let state = Mutex::new(0);
        let w = lock_recover(&workers, LockRank::Workers);
        let s = lock_recover(&state, LockRank::State);
        drop(s);
        drop(w);
        // And again after release: the stack unwound cleanly.
        let s = lock_recover(&state, LockRank::State);
        drop(s);
        let w = lock_recover(&workers, LockRank::Workers);
        drop(w);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn reversed_acquisition_trips_debug_assertion() {
        let workers = Mutex::new(0);
        let state = Mutex::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = lock_recover(&state, LockRank::State);
            // Deliberate inversion: Workers while holding State.
            let _w = lock_recover(&workers, LockRank::Workers);
        }));
        let msg = match r {
            Ok(_) => panic!("reversed acquisition must panic in debug builds"),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
        };
        assert!(
            msg.contains("lock-order violation"),
            "unexpected panic message: {msg}"
        );
        // The unwound thread's stack is clean: ordered locking works again.
        let _w = lock_recover(&workers, LockRank::Workers);
        let _s = lock_recover(&state, LockRank::State);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_rank_reacquisition_trips_debug_assertion() {
        let a = Mutex::new(0);
        let b = Mutex::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _x = lock_recover(&a, LockRank::State);
            let _y = lock_recover(&b, LockRank::State);
        }));
        assert!(r.is_err(), "two locks may not share a rank on one thread");
    }

    #[test]
    fn wait_recover_keeps_rank_across_wait() {
        use std::sync::{Arc, Condvar};
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waker = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*waker;
            *lock_recover(m, LockRank::State) = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = lock_recover(m, LockRank::State);
        while !*g {
            g = wait_recover(cv, g);
        }
        drop(g);
        t.join().unwrap();
        // After the wait + drop the rank stack is empty again.
        let _w = lock_recover(m, LockRank::Workers);
    }
}

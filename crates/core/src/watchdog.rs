//! Per-thread watchdog deadlines for budgeted runs.
//!
//! A [`Meter`](crate::Meter) counts evaluations deterministically, but a
//! pathological instance (a degenerate neighborhood, an injected slowdown)
//! can make each evaluation arbitrarily slow — an evaluation budget alone
//! cannot bound wall-clock time. The watchdog closes that gap: a harness
//! arms a deadline on the worker thread before starting a run, and every
//! meter constructed while the deadline is armed reports itself exhausted
//! once the deadline passes. Any strategy that polls its meter (all of them
//! do, once per evaluation) therefore winds down promptly instead of
//! hanging its cell forever.
//!
//! The hook is ambient (thread-local) rather than a parameter so that
//! arming a watchdog requires no strategy or problem API changes, and a
//! run with no watchdog armed pays nothing on the metering hot path.
//!
//! ```
//! use std::time::Duration;
//! use anneal_core::{watchdog, Budget, Meter};
//!
//! let _guard = watchdog::arm(Duration::ZERO); // already expired
//! let m = Meter::new(Budget::evaluations(1_000_000));
//! assert!(m.exhausted(), "deadline overrides the evaluation budget");
//! ```

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Restores the previously armed deadline (if any) when dropped, so nested
/// watchdogs and reused worker threads behave correctly.
#[derive(Debug)]
pub struct WatchdogGuard {
    prev: Option<Instant>,
}

impl Drop for WatchdogGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.prev));
    }
}

/// Arms a watchdog deadline `timeout` from now on the current thread.
///
/// Every [`Meter`](crate::Meter) constructed on this thread while the
/// returned guard is alive reports [`exhausted`](crate::Meter::exhausted)
/// once the deadline passes. Dropping the guard restores whatever deadline
/// (or none) was armed before.
pub fn arm(timeout: Duration) -> WatchdogGuard {
    let deadline = Instant::now() + timeout;
    let prev = DEADLINE.with(|d| d.replace(Some(deadline)));
    WatchdogGuard { prev }
}

/// The deadline currently armed on this thread, if any.
pub(crate) fn deadline() -> Option<Instant> {
    DEADLINE.with(|d| d.get())
}

/// Whether a watchdog is armed on this thread *and* its deadline has
/// passed. Harnesses check this after a run to distinguish "finished" from
/// "was cut short by the watchdog".
pub fn expired() -> bool {
    deadline().is_some_and(|d| Instant::now() >= d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_thread_has_no_deadline() {
        assert_eq!(deadline(), None);
        assert!(!expired());
    }

    #[test]
    fn guard_restores_previous_deadline() {
        assert_eq!(deadline(), None);
        {
            let _outer = arm(Duration::from_secs(3600));
            let outer_deadline = deadline();
            assert!(outer_deadline.is_some());
            {
                let _inner = arm(Duration::ZERO);
                assert!(expired(), "zero timeout expires immediately");
            }
            assert_eq!(deadline(), outer_deadline, "inner guard restored outer");
            assert!(!expired(), "an hour has not passed");
        }
        assert_eq!(deadline(), None);
    }

    #[test]
    fn slow_chain_is_cut_short_by_watchdog() {
        use crate::{Annealer, Budget, GFunction, NoopObserver, Problem, Rng, RngExt, Strategy};

        // Every evaluation sleeps, so the nominal evaluation budget would
        // take minutes; the watchdog must stop the run almost immediately.
        struct Slow;
        impl Problem for Slow {
            type State = u64;
            type Move = u32;
            fn random_state(&self, rng: &mut dyn Rng) -> u64 {
                rng.random_range(0..1 << 16)
            }
            fn cost(&self, s: &u64) -> f64 {
                std::thread::sleep(Duration::from_millis(1));
                s.count_ones() as f64
            }
            fn propose(&self, _: &u64, rng: &mut dyn Rng) -> u32 {
                rng.random_range(0..16)
            }
            fn apply(&self, s: &mut u64, m: &u32) {
                *s ^= 1 << m;
            }
        }

        let started = Instant::now();
        let _guard = arm(Duration::from_millis(30));
        let result = Annealer::new(&Slow)
            .strategy(Strategy::Figure1)
            .budget(Budget::evaluations(1_000_000))
            .seed(1985)
            .run(&mut GFunction::unit(), &mut NoopObserver);
        assert!(expired(), "watchdog fired");
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "run was cut short, not budget-bound"
        );
        assert!(result.stats.evals < 1_000_000);
    }

    #[test]
    fn expiry_is_per_thread() {
        let _guard = arm(Duration::ZERO);
        assert!(expired());
        std::thread::spawn(|| {
            assert!(!expired(), "other threads are unaffected");
        })
        .join()
        .unwrap();
    }
}

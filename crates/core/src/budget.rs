//! Computation budgets for time-equalized method comparison.
//!
//! The paper's central experimental control (§3) is that *every method gets
//! the same amount of computer time*, and when a schedule has `k`
//! temperatures the time is split evenly, `⌈B/k⌉` per temperature (§4.2.1
//! allots `⌈5/k⌉` seconds per temperature).
//!
//! The paper measured CPU seconds on a VAX 11/780. For a machine-independent
//! and *deterministic* reproduction, the one budget currency here is the
//! number of **cost evaluations** (one per proposed perturbation, plus every
//! evaluation performed inside local search).

use std::time::Instant;

/// A bound on how much work a strategy may perform: at most this many cost
/// evaluations.
///
/// # Examples
///
/// ```
/// use anneal_core::Budget;
///
/// let b = Budget::evaluations(60_000);
/// assert_eq!(b.split(6), Budget::evaluations(10_000));
/// assert_eq!(b.evals(), 60_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Budget(u64);

impl Budget {
    /// A budget of `n` cost evaluations.
    pub fn evaluations(n: u64) -> Self {
        Budget(n)
    }

    /// The number of cost evaluations the budget allows.
    pub fn evals(&self) -> u64 {
        self.0
    }

    /// Splits the budget evenly across `k` temperatures, rounding up, as the
    /// paper does with its per-temperature time allotment.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn split(&self, k: usize) -> Budget {
        assert!(k > 0, "schedule must have at least one temperature");
        Budget(self.0.div_ceil(k as u64))
    }

    /// Scales the budget by an integer factor (used by the experiment
    /// harness's `--scale` fast mode), keeping at least one evaluation.
    ///
    /// A `divisor` of 0 is treated as 1: dividing by zero is never a
    /// meaningful scale and must not panic mid-suite.
    pub fn scale_div(&self, divisor: u64) -> Budget {
        Budget((self.0 / divisor.max(1)).max(1))
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} evals", self.0)
    }
}

/// Tracks consumption against a [`Budget`].
///
/// Strategies call [`charge`](Meter::charge) once per cost evaluation and
/// poll [`exhausted`](Meter::exhausted). The meter is fully deterministic.
///
/// A meter also honors any [`watchdog`](crate::watchdog) deadline armed on
/// its constructing thread: once that deadline passes the meter reports
/// itself exhausted regardless of remaining budget, so a runaway chain
/// cannot hang its cell. Runs without an armed watchdog pay nothing.
#[derive(Debug)]
pub struct Meter {
    limit: Budget,
    evals: u64,
    /// Watchdog deadline captured at construction (see [`crate::watchdog`]).
    deadline: Option<Instant>,
}

impl Meter {
    /// Starts a fresh meter against `limit`.
    pub fn new(limit: Budget) -> Self {
        Meter {
            limit,
            evals: 0,
            deadline: crate::watchdog::deadline(),
        }
    }

    /// Records `n` cost evaluations.
    pub fn charge(&mut self, n: u64) {
        self.evals += n;
    }

    /// Number of evaluations recorded so far.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Whether the budget is used up (or an armed watchdog deadline has
    /// passed).
    pub fn exhausted(&self) -> bool {
        self.evals >= self.limit.0 || self.timed_out()
    }

    /// Whether a watchdog deadline armed at construction has passed.
    pub fn timed_out(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn split_rounds_up() {
        assert_eq!(Budget::evaluations(10).split(3), Budget::evaluations(4));
        assert_eq!(Budget::evaluations(12).split(6), Budget::evaluations(2));
        assert_eq!(Budget::evaluations(1).split(6), Budget::evaluations(1));
    }

    #[test]
    #[should_panic(expected = "at least one temperature")]
    fn split_zero_panics() {
        let _ = Budget::evaluations(10).split(0);
    }

    #[test]
    fn meter_counts_and_exhausts() {
        let mut m = Meter::new(Budget::evaluations(5));
        assert!(!m.exhausted());
        m.charge(3);
        assert_eq!(m.evals(), 3);
        assert!(!m.exhausted());
        m.charge(2);
        assert!(m.exhausted());
    }

    #[test]
    fn scale_div_floors_at_one() {
        assert_eq!(
            Budget::evaluations(100).scale_div(7),
            Budget::evaluations(14)
        );
        assert_eq!(Budget::evaluations(3).scale_div(10), Budget::evaluations(1));
    }

    #[test]
    fn scale_div_zero_is_identity() {
        // Regression: a divisor of 0 used to panic.
        assert_eq!(
            Budget::evaluations(100).scale_div(0),
            Budget::evaluations(100)
        );
    }

    #[test]
    fn display_counts_evals() {
        assert_eq!(Budget::evaluations(1500).to_string(), "1500 evals");
    }

    #[test]
    fn watchdog_deadline_overrides_eval_budget() {
        let free = Meter::new(Budget::evaluations(u64::MAX));
        assert!(!free.exhausted() && !free.timed_out());
        let _guard = crate::watchdog::arm(Duration::ZERO);
        let m = Meter::new(Budget::evaluations(u64::MAX));
        assert!(m.timed_out());
        assert!(m.exhausted(), "expired watchdog exhausts any budget");
        drop(_guard);
        // Meters capture the deadline at construction; disarming the
        // watchdog does not resurrect an already-timed-out meter, but new
        // meters are unaffected.
        assert!(!Meter::new(Budget::evaluations(5)).timed_out());
    }

    #[test]
    fn unexpired_watchdog_leaves_budget_semantics_alone() {
        let _guard = crate::watchdog::arm(Duration::from_secs(3600));
        let mut m = Meter::new(Budget::evaluations(2));
        assert!(!m.exhausted());
        m.charge(2);
        assert!(m.exhausted(), "evaluation budget still applies");
        assert!(!m.timed_out());
    }
}

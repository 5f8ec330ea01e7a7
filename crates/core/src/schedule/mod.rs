//! Temperature schedules (`Y₁ … Y_k`).
//!
//! Following \[KIRK83\] the paper folds Boltzmann's constant into the
//! temperature and calls the products `Y_i` "temperatures" (§1). Three
//! schedule shapes appear in the paper:
//!
//! * a **single** temperature (`k = 1`, classes 1, 3–8, 13–16),
//! * Kirkpatrick's **geometric** schedule (`Y₁ = 10`, `Y_i = 0.9·Y_{i-1}`,
//!   `k = 6`) used by six-temperature annealing and, rescaled, by the other
//!   six-temperature classes, and
//! * \[GOLD84\]'s **uniform** schedule (`k` evenly spaced points in `(0, τ)`,
//!   taken in decreasing order).
//!
//! The [`adaptive`] submodule derives schedules *online* from measured
//! delta/acceptance statistics instead of the §4.2.1 grid sweep: an
//! acceptance-ratio feedback controller, an ASA-style reannealing shape and
//! an automatic initial-temperature estimator.

pub mod adaptive;

use std::fmt;

/// An ordered list of temperature values `Y₁ ≥ … ≥ Y_k > 0` (monotonicity is
/// conventional, not enforced — the paper's two-level "schedule" `[1, 0.5]`
/// reuses this type for acceptance levels).
///
/// # Examples
///
/// ```
/// use anneal_core::Schedule;
///
/// // Kirkpatrick's circuit-partition schedule (§1).
/// let s = Schedule::geometric(10.0, 0.9, 6);
/// assert_eq!(s.len(), 6);
/// assert!((s.value(0) - 10.0).abs() < 1e-12);
/// assert!((s.value(5) - 10.0 * 0.9f64.powi(5)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    values: Vec<f64>,
}

impl Schedule {
    /// A single-temperature schedule (`k = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `y` is not finite and positive.
    pub fn single(y: f64) -> Self {
        Self::explicit(vec![y])
    }

    /// Kirkpatrick's geometric schedule: `Y₁ = y1`, `Y_i = ratio · Y_{i-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, or `y1`/`ratio` are not finite and positive.
    pub fn geometric(y1: f64, ratio: f64, k: usize) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "ratio must be finite and positive"
        );
        let mut values = Vec::with_capacity(k);
        let mut y = y1;
        for _ in 0..k {
            values.push(y);
            y *= ratio;
        }
        Self::explicit(values)
    }

    /// \[GOLD84\]'s schedule: `k` evenly spaced points in `(0, tau)`, highest
    /// first — `tau·k/(k+1), …, tau·1/(k+1)`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `tau` is not finite and positive.
    pub fn uniform(tau: f64, k: usize) -> Self {
        assert!(
            tau.is_finite() && tau > 0.0,
            "tau must be finite and positive"
        );
        let values = (0..k)
            .map(|i| tau * (k - i) as f64 / (k + 1) as f64)
            .collect();
        Self::explicit(values)
    }

    /// A schedule with explicitly listed values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains a non-finite or non-positive
    /// entry.
    pub fn explicit(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "schedule must have at least one value");
        for (i, v) in values.iter().enumerate() {
            assert!(
                v.is_finite() && *v > 0.0,
                "schedule value {i} must be finite and positive, got {v}"
            );
        }
        Schedule { values }
    }

    /// Number of temperatures `k`.
    #[allow(clippy::len_without_is_empty)] // never empty by construction
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The `t`-th temperature (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`.
    pub fn value(&self, t: usize) -> f64 {
        self.values[t]
    }

    /// All values, highest-index last.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Overwrites the `t`-th temperature in place — the feedback hook used
    /// by [`adaptive::AcceptanceController`] at stage boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()` or `y` is not finite and positive.
    pub fn set_value(&mut self, t: usize, y: f64) {
        assert!(
            y.is_finite() && y > 0.0,
            "schedule value {t} must be finite and positive, got {y}"
        );
        self.values[t] = y;
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_matches_kirkpatrick() {
        let s = Schedule::geometric(10.0, 0.9, 6);
        let expect = [10.0, 9.0, 8.1, 7.29, 6.561, 5.9049];
        for (i, e) in expect.iter().enumerate() {
            assert!((s.value(i) - e).abs() < 1e-9, "Y{} = {}", i + 1, s.value(i));
        }
    }

    #[test]
    fn uniform_is_decreasing_and_open_interval() {
        let s = Schedule::uniform(1.0, 25);
        for w in s.values().windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!(s.value(0) < 1.0);
        assert!(s.value(24) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_schedule_panics() {
        let _ = Schedule::explicit(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nonpositive_value_panics() {
        let _ = Schedule::explicit(vec![1.0, 0.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Schedule::single(2.0);
        assert!(!format!("{s}").is_empty());
    }
}

//! Temperature-range estimation after White [WHIT84], cited by the paper
//! (§2: "Some guidelines on choosing the highest and lowest temperatures in
//! an annealing schedule are provided in [WHIT84]").
//!
//! White's scale argument: the hottest temperature should be at least the
//! standard deviation `σ` of the cost changes induced by random
//! perturbations (so essentially every move is accepted and the chain
//! equilibrates over the whole landscape), and the coldest should be small
//! against the smallest positive cost change (so the chain is effectively
//! quenched). A geometric schedule interpolates between the two.

use rand::Rng;

use crate::problem::Problem;
use crate::schedule::Schedule;

/// Statistics of the cost-delta distribution of random perturbations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaStats {
    /// Mean of `h(j) - h(i)` over sampled perturbations.
    pub mean: f64,
    /// Standard deviation of the deltas — White's hot-temperature scale.
    pub std_dev: f64,
    /// Smallest strictly positive |delta| observed — the cold-temperature
    /// scale. `None` if every sampled move was cost-neutral.
    pub min_positive: Option<f64>,
    /// Perturbations sampled.
    pub samples: u64,
}

/// Samples `samples` random perturbations from random states of `problem`
/// and collects the delta statistics \[WHIT84\]'s scales are built from.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn estimate_delta_stats<P: Problem>(
    problem: &P,
    samples: u64,
    rng: &mut dyn Rng,
) -> DeltaStats {
    assert!(samples > 0, "need at least one sample");
    let mut state = problem.random_state(rng);
    let mut cost = problem.cost(&state);
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut min_positive: Option<f64> = None;
    for i in 0..samples {
        // Resample the base state occasionally so the statistics reflect
        // the landscape, not one neighborhood.
        if i % 64 == 0 && i > 0 {
            state = problem.random_state(rng);
            cost = problem.cost(&state);
        }
        let mv = problem.propose(&state, rng);
        let (new_cost, _) = problem.try_move(&mut state, &mv, |_| false);
        let delta = new_cost - cost;
        sum += delta;
        sum_sq += delta * delta;
        let abs = delta.abs();
        if abs > 0.0 {
            min_positive = Some(match min_positive {
                Some(m) => m.min(abs),
                None => abs,
            });
        }
    }
    let n = samples as f64;
    let mean = sum / n;
    let variance = (sum_sq / n - mean * mean).max(0.0);
    DeltaStats {
        mean,
        std_dev: variance.sqrt(),
        min_positive,
        samples,
    }
}

/// Builds a `k`-temperature geometric schedule spanning White's range:
/// `Y₁ = σ` down to `Y_k = min_positive / 3` (a typical smallest uphill
/// move is then accepted with probability `e⁻³ ≈ 5%`).
///
/// Falls back to `Y₁ = 1` when the landscape shows no variation and to a
/// cold scale of `σ/100` when no positive delta was seen.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Examples
///
/// ```
/// use anneal_core::{estimate_delta_stats, white84_schedule, Problem, Rng, RngExt};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// struct Bits;
/// impl Problem for Bits {
///     type State = u64;
///     type Move = u32;
///     fn random_state(&self, rng: &mut dyn Rng) -> u64 {
///         rng.random_range(0..1 << 16)
///     }
///     fn cost(&self, s: &u64) -> f64 {
///         s.count_ones() as f64
///     }
///     fn propose(&self, _: &u64, rng: &mut dyn Rng) -> u32 {
///         rng.random_range(0..16)
///     }
///     fn apply(&self, s: &mut u64, m: &u32) {
///         *s ^= 1 << m;
///     }
/// }
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let stats = estimate_delta_stats(&Bits, 1_000, &mut rng);
/// let schedule = white84_schedule(&stats, 6);
/// assert_eq!(schedule.len(), 6);
/// assert!(schedule.value(0) >= schedule.value(5));
/// ```
pub fn white84_schedule(stats: &DeltaStats, k: usize) -> Schedule {
    assert!(k > 0, "schedule needs at least one temperature");
    let hot = if stats.std_dev > 0.0 {
        stats.std_dev
    } else {
        1.0
    };
    let cold = stats
        .min_positive
        .map(|m| m / 3.0)
        .unwrap_or(hot / 100.0)
        .min(hot);
    if k == 1 {
        return Schedule::single(hot);
    }
    let ratio = (cold / hot).powf(1.0 / (k as f64 - 1.0));
    Schedule::geometric(hot, ratio, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    struct Bits;
    impl Problem for Bits {
        type State = u64;
        type Move = u32;
        fn random_state(&self, rng: &mut dyn Rng) -> u64 {
            rng.random_range(0..(1u64 << 16))
        }
        fn cost(&self, s: &u64) -> f64 {
            s.count_ones() as f64
        }
        fn propose(&self, _: &u64, rng: &mut dyn Rng) -> u32 {
            rng.random_range(0..16)
        }
        fn apply(&self, s: &mut u64, m: &u32) {
            *s ^= 1 << m;
        }
    }

    #[test]
    fn bitcount_deltas_are_unit_sized() {
        let mut rng = StdRng::seed_from_u64(1);
        let stats = estimate_delta_stats(&Bits, 2_000, &mut rng);
        // Every bit flip changes the cost by exactly ±1.
        assert_eq!(stats.min_positive, Some(1.0));
        assert!((stats.std_dev - 1.0).abs() < 0.05, "σ = {}", stats.std_dev);
        assert!(stats.mean.abs() < 0.2);
    }

    #[test]
    fn schedule_spans_hot_to_cold() {
        let stats = DeltaStats {
            mean: 0.0,
            std_dev: 2.0,
            min_positive: Some(1.0),
            samples: 100,
        };
        let s = white84_schedule(&stats, 6);
        assert!((s.value(0) - 2.0).abs() < 1e-12);
        assert!((s.value(5) - 1.0 / 3.0).abs() < 1e-9);
        for w in s.values().windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn degenerate_landscapes_fall_back() {
        struct Flat;
        impl Problem for Flat {
            type State = i64;
            type Move = i64;
            fn random_state(&self, _: &mut dyn Rng) -> i64 {
                0
            }
            fn cost(&self, _: &i64) -> f64 {
                7.0
            }
            fn propose(&self, _: &i64, _: &mut dyn Rng) -> i64 {
                1
            }
            fn apply(&self, s: &mut i64, m: &i64) {
                *s += m;
            }
            fn undo(&self, s: &mut i64, m: &i64) {
                *s -= m;
            }
        }
        let mut rng = StdRng::seed_from_u64(2);
        let stats = estimate_delta_stats(&Flat, 100, &mut rng);
        assert_eq!(stats.std_dev, 0.0);
        assert_eq!(stats.min_positive, None);
        let s = white84_schedule(&stats, 4);
        assert_eq!(s.len(), 4);
        assert!((s.value(0) - 1.0).abs() < 1e-12, "hot fallback");
    }

    #[test]
    fn single_temperature_schedule() {
        let stats = DeltaStats {
            mean: 0.0,
            std_dev: 3.0,
            min_positive: Some(0.5),
            samples: 10,
        };
        let s = white84_schedule(&stats, 1);
        assert_eq!(s.len(), 1);
        assert!((s.value(0) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = estimate_delta_stats(&Bits, 0, &mut rng);
    }
}

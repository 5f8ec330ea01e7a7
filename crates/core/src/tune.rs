//! Temperature tuning (§4.2.1).
//!
//! "Since it is impractical to determine the best Y_i's for each combination
//! of instance characteristics, strategy type, g function class, and amount
//! of time spent at each temperature, we attempt to find the best Y_i's for
//! each g using a randomly generated set of instances and the strategy of
//! Figure 1."
//!
//! [`Tuner`] reproduces that procedure: for each candidate parameter it runs
//! the Figure-1 strategy on every instance of a training set (same starting
//! state per instance across candidates) and keeps the parameter with the
//! largest total cost reduction.

use crate::accept::GFunction;
use crate::annealer::Annealer;
use crate::budget::Budget;
use crate::problem::Problem;
use crate::seeds::derive_seed;
use crate::trace::NoopObserver;

/// Outcome for a single candidate parameter value.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateOutcome {
    /// The candidate value passed to the g-function factory.
    pub value: f64,
    /// Total cost reduction over the training instances.
    pub total_reduction: f64,
}

/// The full tuning sweep: one outcome per candidate, best first retained.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// All candidate outcomes, in the order supplied.
    pub outcomes: Vec<CandidateOutcome>,
    /// The candidate with the largest total reduction (first on ties).
    pub best: CandidateOutcome,
}

impl TuneReport {
    /// True when the winner sits on the edge of the swept grid (the first
    /// or last candidate supplied). An interior winner is bracketed by two
    /// losing neighbours; an edge winner may just be the closest grid point
    /// to an optimum outside the swept range, so the sweep should be
    /// widened before trusting it.
    pub fn best_on_boundary(&self) -> bool {
        let first = self.outcomes.first().map(|o| o.value);
        let last = self.outcomes.last().map(|o| o.value);
        Some(self.best.value) == first || Some(self.best.value) == last
    }
}

/// A §4.2.1-style temperature tuner over a training set of instances.
#[derive(Debug)]
pub struct Tuner<'a, P: Problem> {
    instances: &'a [P],
    budget: Budget,
    seed: u64,
}

impl<'a, P: Problem> Tuner<'a, P> {
    /// A tuner running each (candidate, instance) pair under `budget` with
    /// per-instance starting states derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty.
    pub fn new(instances: &'a [P], budget: Budget, seed: u64) -> Self {
        assert!(!instances.is_empty(), "tuner needs at least one instance");
        Tuner {
            instances,
            budget,
            seed,
        }
    }

    /// Sweeps `candidates`, building a g function per candidate with
    /// `make_g`, and returns the per-candidate totals plus the winner.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn tune(&self, make_g: impl Fn(f64) -> GFunction, candidates: &[f64]) -> TuneReport {
        assert!(!candidates.is_empty(), "need at least one candidate");
        let outcomes: Vec<CandidateOutcome> = candidates
            .iter()
            .map(|&value| {
                let mut total = 0.0;
                for (idx, problem) in self.instances.iter().enumerate() {
                    // Same per-instance seed for every candidate: identical
                    // starting states, as the paper requires.
                    let result = Annealer::new(problem)
                        .budget(self.budget)
                        .seed(derive_seed(self.seed, idx as u64))
                        .run(&mut make_g(value), &mut NoopObserver);
                    total += result.reduction();
                }
                CandidateOutcome {
                    value,
                    total_reduction: total,
                }
            })
            .collect();
        let mut best = outcomes[0].clone();
        for o in &outcomes[1..] {
            if o.total_reduction > best.total_reduction {
                best = o.clone();
            }
        }
        TuneReport { outcomes, best }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngExt};

    /// Needle-in-a-haystack: flipping bits of a word; acceptance temperature
    /// matters because the cost landscape is flat except near zero.
    struct BitCount;
    impl Problem for BitCount {
        type State = u64;
        type Move = u32;
        fn random_state(&self, rng: &mut dyn Rng) -> u64 {
            rng.random_range(0..(1u64 << 24))
        }
        fn cost(&self, s: &u64) -> f64 {
            s.count_ones() as f64
        }
        fn propose(&self, _: &u64, rng: &mut dyn Rng) -> u32 {
            rng.random_range(0..24)
        }
        fn apply(&self, s: &mut u64, m: &u32) {
            *s ^= 1 << m;
        }
    }

    #[test]
    fn picks_candidate_with_highest_reduction() {
        let instances = [BitCount, BitCount, BitCount];
        let tuner = Tuner::new(&instances, Budget::evaluations(2_000), 5);
        // Metropolis with an absurdly hot temperature (random walk) must
        // lose to a cold one on this landscape.
        let report = tuner.tune(GFunction::metropolis, &[1e6, 0.3]);
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.best.value, 0.3);
        assert!(report.best.total_reduction >= report.outcomes[0].total_reduction);
    }

    #[test]
    fn edge_winner_is_flagged_as_boundary() {
        let instances = [BitCount, BitCount, BitCount];
        let tuner = Tuner::new(&instances, Budget::evaluations(2_000), 5);
        // The cold candidate wins; as the last grid point it is a boundary
        // winner, but flanked by hot losers it is an interior one.
        let edge = tuner.tune(GFunction::metropolis, &[1e6, 0.3]);
        assert_eq!(edge.best.value, 0.3);
        assert!(edge.best_on_boundary(), "winner at the grid end");
        let interior = tuner.tune(GFunction::metropolis, &[1e6, 0.3, 1e7]);
        assert_eq!(interior.best.value, 0.3);
        assert!(!interior.best_on_boundary(), "bracketed winner");
    }

    #[test]
    fn single_candidate_is_always_a_boundary_winner() {
        let instances = [BitCount];
        let tuner = Tuner::new(&instances, Budget::evaluations(1), 7);
        let report = tuner.tune(GFunction::metropolis, &[1.0]);
        assert!(report.best_on_boundary(), "a 1-point grid cannot bracket");
    }

    #[test]
    fn same_start_states_across_candidates() {
        // With a single zero-budget run the reduction is 0 for every
        // candidate and the report must still be well-formed (ties → first).
        let instances = [BitCount];
        let tuner = Tuner::new(&instances, Budget::evaluations(1), 7);
        let report = tuner.tune(GFunction::metropolis, &[1.0, 2.0, 3.0]);
        assert_eq!(
            report.best.value, 1.0,
            "ties resolve to the first candidate"
        );
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_instances_panics() {
        let instances: [BitCount; 0] = [];
        let _ = Tuner::new(&instances, Budget::evaluations(1), 0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panics() {
        let instances = [BitCount];
        let tuner = Tuner::new(&instances, Budget::evaluations(1), 0);
        let _ = tuner.tune(GFunction::metropolis, &[]);
    }
}

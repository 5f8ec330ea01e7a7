//! The TSP as an [`anneal_core::Problem`].

use anneal_core::{Problem, Rng, RngExt};

use crate::instance::TspInstance;
use crate::tour::Tour;

/// A tour perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TourMove {
    /// Reverse tour positions `i..=j` (2-opt, the move of \[LIN73\]).
    TwoOpt {
        /// First position of the reversed segment.
        i: usize,
        /// Last position of the reversed segment.
        j: usize,
    },
}

/// Euclidean TSP minimization over an owned instance.
///
/// # Examples
///
/// ```
/// use anneal_core::{Annealer, Budget, GFunction, NoopObserver};
/// use anneal_tsp::{TspInstance, TspProblem};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let problem = TspProblem::new(TspInstance::random_euclidean(40, &mut rng));
/// let result = Annealer::new(&problem)
///     .budget(Budget::evaluations(30_000))
///     .run(&mut GFunction::six_temp_annealing(0.5), &mut NoopObserver);
/// assert!(result.best_cost < result.initial_cost);
/// ```
#[derive(Debug, Clone)]
pub struct TspProblem {
    instance: TspInstance,
}

impl TspProblem {
    /// A TSP problem with the 2-opt neighborhood.
    pub fn new(instance: TspInstance) -> Self {
        TspProblem { instance }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &TspInstance {
        &self.instance
    }
}

impl Problem for TspProblem {
    type State = Tour;
    type Move = TourMove;

    fn random_state(&self, rng: &mut dyn Rng) -> Tour {
        Tour::random(&self.instance, rng)
    }

    fn cost(&self, state: &Tour) -> f64 {
        state.length()
    }

    fn propose(&self, _state: &Tour, rng: &mut dyn Rng) -> TourMove {
        let n = self.instance.n_cities();
        loop {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            let (i, j) = (a.min(b), a.max(b));
            // Skip no-ops: empty segments and whole-tour reversals.
            if i != j && !(i == 0 && j == n - 1) {
                return TourMove::TwoOpt { i, j };
            }
        }
    }

    // A segment reversal is its own inverse, so the default `undo` (apply
    // again) rolls it back.
    fn apply(&self, state: &mut Tour, mv: &TourMove) {
        let TourMove::TwoOpt { i, j } = *mv;
        state.apply_two_opt(&self.instance, i, j);
    }

    fn all_moves_into(&self, _state: &Tour, buf: &mut Vec<TourMove>) {
        // The 2-opt neighborhood, excluding the no-op whole-tour reversal.
        buf.clear();
        let n = self.instance.n_cities();
        buf.reserve(n * (n - 1) / 2);
        for i in 0..n - 1 {
            for j in i + 1..n {
                if i == 0 && j == n - 1 {
                    continue;
                }
                buf.push(TourMove::TwoOpt { i, j });
            }
        }
    }

    fn improving_move(&self, state: &Tour, probes: &mut u64) -> Option<TourMove> {
        // First-improvement 2-opt scan using O(1) deltas. A strictly
        // negative threshold avoids cycling on floating-point noise.
        let n = self.instance.n_cities();
        for i in 0..n - 1 {
            for j in i + 1..n {
                if i == 0 && j == n - 1 {
                    continue;
                }
                *probes += 1;
                if state.two_opt_delta(&self.instance, i, j) < -1e-12 {
                    return Some(TourMove::TwoOpt { i, j });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_core::{Annealer, Budget, GFunction, NoopObserver, Strategy};
    use rand::{rngs::StdRng, SeedableRng};

    fn circle_instance(n: usize) -> TspInstance {
        // Cities on a circle: the optimal tour is the perimeter order.
        let pts = (0..n)
            .map(|i| {
                let a = i as f64 / n as f64 * std::f64::consts::TAU;
                (a.cos(), a.sin())
            })
            .collect();
        TspInstance::from_points(pts)
    }

    fn circle_optimum(inst: &TspInstance) -> f64 {
        inst.tour_length(&(0..inst.n_cities() as u32).collect::<Vec<_>>())
    }

    #[test]
    fn two_opt_descent_solves_small_circle() {
        let inst = circle_instance(12);
        let p = TspProblem::new(inst);
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = p.random_state(&mut rng);
        let mut probes = 0;
        while let Some(mv) = p.improving_move(&t, &mut probes) {
            p.apply(&mut t, &mv);
        }
        // 2-opt local optima of circle instances are the optimum itself for
        // small n (no crossing edges remain).
        let opt = circle_optimum(p.instance());
        assert!(t.length() <= opt * 1.05, "{} vs {opt}", t.length());
        assert!(t.verify(p.instance()));
    }

    #[test]
    fn annealing_approaches_circle_optimum() {
        let inst = circle_instance(20);
        let p = TspProblem::new(inst);
        let r = Annealer::new(&p)
            .budget(Budget::evaluations(60_000))
            .seed(2)
            .run(&mut GFunction::six_temp_annealing(0.5), &mut NoopObserver);
        let opt = circle_optimum(p.instance());
        assert!(r.best_cost <= opt * 1.1, "{} vs {opt}", r.best_cost);
    }

    #[test]
    fn figure2_with_unit_g() {
        let inst = circle_instance(15);
        let p = TspProblem::new(inst);
        let r = Annealer::new(&p)
            .strategy(Strategy::Figure2)
            .budget(Budget::evaluations(40_000))
            .seed(3)
            .run(&mut GFunction::unit(), &mut NoopObserver);
        let opt = circle_optimum(p.instance());
        assert!(r.best_cost <= opt * 1.1);
    }

    #[test]
    fn moves_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = TspProblem::new(TspInstance::random_euclidean(15, &mut rng));
        let mut t = p.random_state(&mut rng);
        let before = t.clone();
        for _ in 0..50 {
            let mv = p.propose(&t, &mut rng);
            p.apply(&mut t, &mv);
            p.undo(&mut t, &mv);
            assert_eq!(t.order(), before.order());
            assert!((t.length() - before.length()).abs() < 1e-6);
        }
    }

    #[test]
    fn proposals_are_never_whole_tour_reversals() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = TspInstance::random_euclidean(6, &mut rng);
        let p = TspProblem::new(inst);
        let t = p.random_state(&mut rng);
        for _ in 0..500 {
            let TourMove::TwoOpt { i, j } = p.propose(&t, &mut rng);
            assert!(i < j);
            assert!(!(i == 0 && j == 5));
        }
    }
}

//! Plugging a custom problem into the framework: number partitioning
//! (split a multiset of integers into two halves with equal sums).
//!
//! Demonstrates everything a downstream user needs: the `Problem` trait,
//! both strategies, several g functions, and the tuner.
//!
//! ```sh
//! cargo run --example custom_problem
//! ```

use annealbench::core::{
    Annealer, Budget, GFunction, NoopObserver, Problem, Rng, RngExt, Strategy, Tuner,
};
use rand::{rngs::StdRng, SeedableRng};

/// Number partitioning: state is a ±1 assignment; cost is |Σ sᵢ·wᵢ|.
struct NumberPartition {
    weights: Vec<i64>,
}

/// The state carries the running signed sum so cost reads in O(1).
#[derive(Clone, PartialEq)]
struct Assignment {
    signs: Vec<i8>,
    sum: i64,
}

impl Problem for NumberPartition {
    type State = Assignment;
    type Move = usize; // index whose sign flips

    fn random_state(&self, rng: &mut dyn Rng) -> Assignment {
        let signs: Vec<i8> = self
            .weights
            .iter()
            .map(|_| if rng.random_bool(0.5) { 1 } else { -1 })
            .collect();
        let sum = self
            .weights
            .iter()
            .zip(&signs)
            .map(|(w, s)| w * i64::from(*s))
            .sum();
        Assignment { signs, sum }
    }

    fn cost(&self, s: &Assignment) -> f64 {
        s.sum.abs() as f64
    }

    fn propose(&self, _: &Assignment, rng: &mut dyn Rng) -> usize {
        rng.random_range(0..self.weights.len())
    }

    fn apply(&self, s: &mut Assignment, &i: &usize) {
        s.sum -= 2 * i64::from(s.signs[i]) * self.weights[i];
        s.signs[i] = -s.signs[i];
    }

    fn improving_move(&self, s: &Assignment, probes: &mut u64) -> Option<usize> {
        let here = s.sum.abs();
        for i in 0..self.weights.len() {
            *probes += 1;
            let flipped = s.sum - 2 * i64::from(s.signs[i]) * self.weights[i];
            if flipped.abs() < here {
                return Some(i);
            }
        }
        None
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let problem = NumberPartition {
        weights: (0..48).map(|_| rng.random_range(1..1_000_000)).collect(),
    };

    println!("number partitioning, 48 weights in [1, 1e6):");
    for (name, mut g) in [
        ("Metropolis(1e4)", GFunction::metropolis(1e4)),
        ("g = 1", GFunction::unit()),
        ("Cubic Diff", GFunction::poly_difference(3, 1e12)),
    ] {
        for strategy in [Strategy::Figure1, Strategy::Figure2] {
            let r = Annealer::new(&problem)
                .strategy(strategy)
                .budget(Budget::evaluations(100_000))
                .seed(17)
                .run(&mut g, &mut NoopObserver);
            println!(
                "  {name:<16} {strategy:?}: residue {:>10} (from {})",
                r.best_cost, r.initial_cost
            );
        }
    }

    // Tune Metropolis' temperature the way §4.2.1 does.
    let instances = vec![problem];
    let tuner = Tuner::new(&instances, Budget::evaluations(20_000), 1);
    let report = tuner.tune(GFunction::metropolis, &[1e2, 1e3, 1e4, 1e5, 1e6]);
    println!(
        "\ntuned Metropolis Y₁ = {:.0} (total reduction {:.0})",
        report.best.value, report.best.total_reduction
    );
}

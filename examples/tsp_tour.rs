//! TSP: simulated annealing versus the classical heuristics it was compared
//! against in [GOLD84] — nearest neighbor, Stewart-style hull insertion,
//! and time-equalized multistart 2-opt.
//!
//! ```sh
//! cargo run --example tsp_tour
//! ```

use annealbench::core::{local::multistart, Annealer, Budget, GFunction, NoopObserver};
use annealbench::tsp::{
    hull_cheapest_insertion, nearest_neighbor, two_opt_descent, TspInstance, TspProblem,
};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(84);
    let instance = TspInstance::random_euclidean(60, &mut rng);
    let problem = TspProblem::new(instance);
    let budget = Budget::evaluations(60_000);

    // Simulated annealing (six-temperature schedule scaled to tour deltas).
    let sa = Annealer::new(&problem)
        .budget(budget)
        .seed(1)
        .run(&mut GFunction::six_temp_annealing(0.3), &mut NoopObserver);

    // g = 1: the paper's no-tuning alternative.
    let unit = Annealer::new(&problem)
        .budget(budget)
        .seed(1)
        .run(&mut GFunction::unit(), &mut NoopObserver);

    // Multistart 2-opt at the same budget ([LIN73] protocol).
    let mut rng2 = StdRng::seed_from_u64(2);
    let lin = multistart(&problem, budget, &mut rng2);

    // Constructives + one 2-opt descent.
    let nn = two_opt_descent(problem.instance(), nearest_neighbor(problem.instance(), 0)).0;
    let hull = two_opt_descent(
        problem.instance(),
        hull_cheapest_insertion(problem.instance()),
    )
    .0;

    println!("60-city Euclidean TSP, 60k evaluations per Monte Carlo method:");
    println!("  simulated annealing : {:.4}", sa.best_cost);
    println!("  g = 1               : {:.4}", unit.best_cost);
    println!("  multistart 2-opt    : {:.4}", lin.best_cost);
    println!("  NN + 2-opt          : {:.4}", nn.length());
    println!("  hull + 2-opt        : {:.4}", hull.length());
    println!(
        "\n[GOLD84]'s finding — classical 2-opt methods are hard to beat at \
         equal time — usually shows here."
    );
}

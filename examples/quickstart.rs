//! Quickstart: minimize the density of a circuit linear arrangement with
//! the paper's headline method, `g = 1` — no temperatures to tune.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use annealbench::core::{Annealer, GFunction, NoopObserver, Strategy};
use annealbench::experiments::vax_seconds;
use annealbench::linarr::LinearArrangementProblem;
use annealbench::netlist::generator::random_two_pin;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // One of the paper's GOLA instances: 15 elements, 150 two-pin nets.
    let mut rng = StdRng::seed_from_u64(1985);
    let netlist = random_two_pin(15, 150, &mut rng);
    let problem = LinearArrangementProblem::new(netlist);

    // 6 paper-seconds of budget, Figure-1 strategy, g = 1.
    let result = Annealer::new(&problem)
        .strategy(Strategy::Figure1)
        .budget(vax_seconds(6.0))
        .seed(42)
        .run(&mut GFunction::unit(), &mut NoopObserver);

    println!("g = 1 on a random GOLA instance (6 paper-seconds):");
    println!("  initial density : {}", result.initial_cost);
    println!("  best density    : {}", result.best_cost);
    println!("  reduction       : {}", result.reduction());
    println!("  evaluations     : {}", result.stats.evals);
    println!("  acceptance rate : {:.3}", result.stats.acceptance_rate());
    println!(
        "  best arrangement: {:?}",
        result.best_state.arrangement().order()
    );

    assert!(result.best_cost <= result.initial_cost);
}

//! Board ordering (NOLA): construct an ordering with the Goto heuristic,
//! then polish it with a Monte Carlo method — the Table 4.2(a)/(d) protocol.
//!
//! This is the workload the paper's introduction motivates: ordering
//! boards/cells so that the wiring channel between adjacent positions stays
//! within capacity (the density is the required channel capacity).
//!
//! ```sh
//! cargo run --example board_ordering
//! ```

use annealbench::core::{Annealer, Budget, GFunction, NoopObserver, Strategy};
use annealbench::linarr::{goto_arrangement, LinearArrangementProblem};
use annealbench::netlist::generator::random_multi_pin;
use annealbench::netlist::NetlistStats;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // A NOLA instance: 15 boards, 150 nets of 2–5 pins.
    let mut rng = StdRng::seed_from_u64(7);
    let netlist = random_multi_pin(15, 150, 2, 5, &mut rng);
    let stats = NetlistStats::of(&netlist);
    println!(
        "instance: {} boards, {} nets, mean net size {:.2}",
        stats.n_elements, stats.n_nets, stats.mean_net_size
    );

    // Step 1: the Goto [GOTO77] construction.
    let goto = goto_arrangement(&netlist);
    let problem = LinearArrangementProblem::new(netlist);
    let goto_state = problem.state_from(goto);
    println!("Goto construction density: {}", goto_state.density());

    // Step 2: polish with exponential difference — the stellar performer
    // when starting from Goto on NOLA (§4.3.2, conclusion 3).
    let result = Annealer::new(&problem)
        .strategy(Strategy::Figure1)
        .budget(Budget::evaluations(120_000))
        .start_from(goto_state)
        .seed(3)
        .run(&mut GFunction::exp_difference(0.7), &mut NoopObserver);

    println!("after Exponential Diff polish: {}", result.best_cost);
    println!("board order: {:?}", result.best_state.arrangement().order());
    assert!(result.best_cost <= result.initial_cost);
}

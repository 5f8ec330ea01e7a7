//! Circuit partitioning: simulated annealing at Kirkpatrick's schedule
//! (`Y₁ = 10`, ratio 0.9 — the schedule quoted in §1 of the paper) versus
//! the Kernighan–Lin heuristic.
//!
//! ```sh
//! cargo run --example circuit_partition
//! ```

use annealbench::core::{Annealer, Budget, GFunction, NoopObserver, Strategy};
use annealbench::netlist::generator::random_two_pin;
use annealbench::partition::{
    fiduccia_mattheyses, kernighan_lin, PartitionProblem, PartitionState,
};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(83);
    let netlist = random_two_pin(32, 96, &mut rng);

    // Deterministic baseline.
    let kl = kernighan_lin(&netlist, PartitionState::split_first_half(&netlist));
    println!(
        "Kernighan-Lin : cut {} ({} passes, {} gain evaluations)",
        kl.state.cut(),
        kl.passes,
        kl.evals
    );

    let fm = fiduccia_mattheyses(&netlist, PartitionState::split_first_half(&netlist));
    println!(
        "Fiduccia-Mattheyses: cut {} ({} passes)",
        fm.state.cut(),
        fm.passes
    );

    let problem = PartitionProblem::new(netlist);
    for (name, mut g) in [
        ("SA (Kirkpatrick)", GFunction::six_temp_annealing(10.0)),
        ("g = 1          ", GFunction::unit()),
    ] {
        for strategy in [Strategy::Figure1, Strategy::Figure2] {
            let r = Annealer::new(&problem)
                .strategy(strategy)
                .budget(Budget::evaluations(60_000))
                .seed(5)
                .run(&mut g, &mut NoopObserver);
            println!(
                "{name} : cut {:>3} under {strategy:?} (from {})",
                r.best_cost, r.initial_cost
            );
        }
    }
}

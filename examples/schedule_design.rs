//! Designing a temperature schedule from the landscape, after White
//! [WHIT84], and comparing the Figure-1 chain against the rejectionless
//! method of Greene & Supowit [GREE84] at an equal budget — the two §2
//! sidebars of the paper, made runnable.
//!
//! ```sh
//! cargo run --release --example schedule_design
//! ```

use annealbench::core::{
    estimate_delta_stats, white84_schedule, Annealer, Budget, GFunction, NoopObserver, Strategy,
};
use annealbench::linarr::LinearArrangementProblem;
use annealbench::netlist::generator::random_two_pin;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(84);
    let netlist = random_two_pin(15, 150, &mut rng);
    let problem = LinearArrangementProblem::new(netlist);

    // [WHIT84]: measure the delta distribution, derive the range.
    let stats = estimate_delta_stats(&problem, 2_000, &mut rng);
    println!(
        "delta statistics: mean {:.3}, σ {:.3}, smallest positive {:?}",
        stats.mean, stats.std_dev, stats.min_positive
    );
    let schedule = white84_schedule(&stats, 6);
    println!("White-derived schedule: {schedule}");

    let budget = Budget::evaluations(60_000);
    let mut white_g = GFunction::annealing(schedule).named("White84 Annealing");
    let mut kirk_g = GFunction::six_temp_annealing(2.0);

    for (name, g) in [
        ("White84 schedule", &mut white_g),
        ("tuned Y₁=2 schedule", &mut kirk_g),
    ] {
        let r = Annealer::new(&problem)
            .budget(budget)
            .seed(7)
            .run(g, &mut NoopObserver);
        println!(
            "Figure 1, {name:<20}: density {} → {}",
            r.initial_cost, r.best_cost
        );
    }

    // [GREE84]: the rejectionless chain at the same budget. Each step costs
    // a whole-neighborhood evaluation (105 swaps for 15 elements), so it
    // takes ~105× fewer steps — the time/space trade the paper quotes.
    let r = Annealer::new(&problem)
        .strategy(Strategy::Rejectionless)
        .budget(budget)
        .seed(7)
        .run(&mut GFunction::six_temp_annealing(2.0), &mut NoopObserver);
    println!(
        "Rejectionless [GREE84]     : density {} → {} ({} moves from {} evals)",
        r.initial_cost,
        r.best_cost,
        r.stats.accepted_downhill + r.stats.accepted_uphill,
        r.stats.evals
    );
}

//! **Extension: traveling salesperson** (§2 via \[GOLD84\]/\[LIN73\]/\[STEW77\],
//! §5 via \[NAHA84\]).
//!
//! Reproduces the comparison the paper imports from Golden & Skiscim: on
//! random Euclidean instances, simulated annealing versus time-equalized
//! multistart 2-opt (\[LIN73\]) and the constructive heuristics
//! (nearest-neighbor and Stewart-style hull insertion, each polished with a
//! 2-opt descent). \[GOLD84\]'s finding — 2-opt beats annealing on most
//! instances at equal time — is the shape to reproduce.

use anneal_core::{derive_seed, local, Annealer, GFunction, NoopObserver, Problem};
use anneal_tsp::{hull_cheapest_insertion, nearest_neighbor, two_opt_descent, TspProblem};
use rand::{rngs::StdRng, SeedableRng};

use crate::config::SuiteConfig;
use crate::instances::tsp_instance;
use crate::runner::RUN_SALT;
use crate::table::Table;

/// Instances in the extension set (\[GOLD84\] used 10).
pub const N_INSTANCES: usize = 10;
/// Cities per instance.
pub const N_CITIES: usize = 60;
/// Paper-equivalent seconds per instance and method. \[GOLD84\]'s annealing
/// runs took tens of minutes, and one full 2-opt descent on 60 cities costs
/// on the order of 50k probe evaluations, so the comparison runs at ten
/// minutes per instance — enough for a few complete descents, which is what
/// the \[LIN73\] multistart protocol assumes.
pub const SECONDS: f64 = 600.0;

/// Regenerates the TSP extension table: rows are methods; columns are the
/// total tour length over the set (lower is better) and the number of
/// instances where the method beats six-temperature annealing.
pub fn run(config: &SuiteConfig) -> Table {
    let budget = config.scale.vax_seconds(SECONDS);
    let problems: Vec<TspProblem> = (0..N_INSTANCES as u64)
        .map(|i| TspProblem::new(tsp_instance(config.seed, i, N_CITIES)))
        .collect();

    let starts: Vec<_> = problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, i as u64));
            p.random_state(&mut rng)
        })
        .collect();

    let run_sa = |make_g: &dyn Fn() -> GFunction| -> Vec<f64> {
        problems
            .iter()
            .zip(&starts)
            .enumerate()
            .map(|(i, (p, start))| {
                Annealer::new(p)
                    .budget(budget)
                    .seed(derive_seed(config.seed ^ RUN_SALT, i as u64))
                    .start_from(start.clone())
                    .run(&mut make_g(), &mut NoopObserver)
                    .best_cost
            })
            .collect()
    };

    let mut results: Vec<(String, Vec<f64>)> = Vec::new();
    let sa_lengths = run_sa(&|| GFunction::six_temp_annealing(0.3));
    results.push(("Six Temperature Annealing".to_string(), sa_lengths.clone()));
    results.push((
        "Metropolis".to_string(),
        run_sa(&|| GFunction::metropolis(0.1)),
    ));
    results.push(("g = 1".to_string(), run_sa(&GFunction::unit)));
    // [GOLD84]'s own protocol: 25 uniformly spaced temperatures in (0, τ).
    results.push((
        "Annealing uniform-25 [GOLD84]".to_string(),
        run_sa(&|| {
            GFunction::annealing(anneal_core::Schedule::uniform(0.3, 25))
                .named("Annealing uniform-25")
        }),
    ));

    // [LIN73] protocol: multistart 2-opt at the same budget.
    let lin73: Vec<f64> = problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed ^ 0x4C494E, i as u64));
            local::multistart(p, budget, &mut rng).best_cost
        })
        .collect();
    results.push(("Multistart 2-opt [LIN73]".to_string(), lin73));

    // Constructives + one 2-opt descent (cheap, deterministic).
    let nn: Vec<f64> = problems
        .iter()
        .map(|p| {
            let t = nearest_neighbor(p.instance(), 0);
            two_opt_descent(p.instance(), t).0.length()
        })
        .collect();
    results.push(("Nearest neighbor + 2-opt".to_string(), nn));

    let hull: Vec<f64> = problems
        .iter()
        .map(|p| {
            let t = hull_cheapest_insertion(p.instance());
            two_opt_descent(p.instance(), t).0.length()
        })
        .collect();
    results.push(("Hull insertion + 2-opt [STEW77]".to_string(), hull));

    let mut table = Table::new(
        format!(
            "Extension — TSP: {N_INSTANCES} instances, {N_CITIES} cities, \
             {SECONDS:.0} sec/instance"
        ),
        "method",
        vec!["total length".into(), "wins vs SA".into()],
    );
    for (name, lengths) in &results {
        let total: f64 = lengths.iter().sum();
        let wins = lengths
            .iter()
            .zip(&sa_lengths)
            .filter(|(l, sa)| *l < *sa)
            .count() as f64;
        table.push_row(name.clone(), vec![total, wins]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_and_sanity() {
        let table = run(&SuiteConfig::scaled(1));
        assert_eq!(table.rows.len(), 7);
        for (label, values) in &table.rows {
            assert!(values[0] > 0.0, "{label}: tour lengths are positive");
            assert!(values[1] <= N_INSTANCES as f64);
        }
        // SA never beats itself.
        assert_eq!(
            table.value("Six Temperature Annealing", "wins vs SA"),
            Some(0.0)
        );
    }

    #[test]
    fn classical_heuristics_are_competitive() {
        // The [GOLD84] shape: at equal time, 2-opt-based methods beat plain
        // annealing on most instances. At reduced scale we only require the
        // hull constructive (which ignores the budget) to win overall.
        let table = run(&SuiteConfig::scaled(1));
        let sa = table
            .value("Six Temperature Annealing", "total length")
            .unwrap();
        let hull = table
            .value("Hull insertion + 2-opt [STEW77]", "total length")
            .unwrap();
        assert!(
            hull < sa,
            "hull+2opt ({hull}) should beat budgeted SA ({sa})"
        );
    }
}

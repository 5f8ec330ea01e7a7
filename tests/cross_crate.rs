//! Cross-crate integration: the framework drives every substrate problem
//! end-to-end through the public API of the root crate.

use annealbench::core::{local, Annealer, Budget, GFunction, NoopObserver, Strategy};
use annealbench::linarr::{Neighborhood, Objective};
use annealbench::netlist::generator::{random_multi_pin, random_two_pin};
use annealbench::partition::{kernighan_lin, PartitionState};
use annealbench::tsp::TspInstance;
use annealbench::{goto_arrangement, LinearArrangementProblem, PartitionProblem, TspProblem};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn every_problem_runs_under_both_strategies() {
    let mut rng = StdRng::seed_from_u64(1);
    let gola = LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng));
    let nola = LinearArrangementProblem::new(random_multi_pin(15, 150, 2, 5, &mut rng));
    let part = PartitionProblem::new(random_two_pin(20, 60, &mut rng));
    let tsp = TspProblem::new(TspInstance::random_euclidean(30, &mut rng));

    macro_rules! check {
        ($p:expr, $name:literal) => {
            for strategy in [Strategy::Figure1, Strategy::Figure2] {
                let r = Annealer::new(&$p)
                    .strategy(strategy)
                    .budget(Budget::evaluations(5_000))
                    .seed(9)
                    .run(&mut GFunction::unit(), &mut NoopObserver);
                assert!(
                    r.best_cost <= r.initial_cost,
                    concat!($name, " under {:?}"),
                    strategy
                );
                assert!(r.stats.evals > 0);
            }
        };
    }
    check!(gola, "GOLA");
    check!(nola, "NOLA");
    check!(part, "partition");
    check!(tsp, "TSP");
}

#[test]
fn all_twenty_one_g_functions_run_on_gola() {
    use annealbench::experiments::{full_roster, MethodCtx, TunedY};
    let mut rng = StdRng::seed_from_u64(2);
    let p = LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng));
    let ctx = MethodCtx { n_nets: 150 };
    for spec in full_roster(TunedY::default()) {
        let r = Annealer::new(&p)
            .budget(Budget::evaluations(3_000))
            .seed(4)
            .run(&mut spec.g(&ctx), &mut NoopObserver);
        assert!(
            r.best_cost <= r.initial_cost,
            "{} worsened the best state",
            spec.name()
        );
    }
}

#[test]
fn goto_feeds_monte_carlo_polish() {
    let mut rng = StdRng::seed_from_u64(3);
    let netlist = random_two_pin(15, 150, &mut rng);
    let start = goto_arrangement(&netlist);
    let p = LinearArrangementProblem::new(netlist);
    let state = p.state_from(start);
    let goto_density = state.density() as f64;
    let r = Annealer::new(&p)
        .budget(Budget::evaluations(30_000))
        .start_from(state)
        .seed(5)
        .run(&mut GFunction::unit(), &mut NoopObserver);
    assert!(r.best_cost <= goto_density);
}

#[test]
fn kl_and_multistart_agree_with_sa_on_easy_instance() {
    // Two 6-cliques with one bridge: every method finds cut 1.
    let mut b = annealbench::netlist::Netlist::builder(12);
    for base in [0u32, 6] {
        for i in 0..6 {
            for j in i + 1..6 {
                b = b.net([base + i, base + j]);
            }
        }
    }
    let nl = b.net([5, 6]).build().unwrap();

    let kl = kernighan_lin(&nl, PartitionState::split_first_half(&nl));
    assert_eq!(kl.state.cut(), 1);

    let p = PartitionProblem::new(nl);
    let sa = Annealer::new(&p)
        .budget(Budget::evaluations(40_000))
        .seed(6)
        .run(&mut GFunction::six_temp_annealing(10.0), &mut NoopObserver);
    assert_eq!(sa.best_cost, 1.0);

    let mut rng = StdRng::seed_from_u64(7);
    let ms = local::multistart(&p, Budget::evaluations(40_000), &mut rng);
    assert_eq!(ms.best_cost, 1.0);
}

#[test]
fn alternative_objectives_and_neighborhoods_compose() {
    let mut rng = StdRng::seed_from_u64(8);
    let nl = random_two_pin(15, 150, &mut rng);
    for objective in [Objective::Density, Objective::TotalSpan] {
        for neighborhood in [
            Neighborhood::PairwiseInterchange,
            Neighborhood::SingleExchange,
        ] {
            let p = LinearArrangementProblem::new(nl.clone())
                .with_objective(objective)
                .with_neighborhood(neighborhood);
            let r = Annealer::new(&p)
                .budget(Budget::evaluations(4_000))
                .seed(10)
                .run(&mut GFunction::two_level(), &mut NoopObserver);
            assert!(
                r.best_cost <= r.initial_cost,
                "{objective:?} × {neighborhood:?}"
            );
        }
    }
}

#[test]
fn rejectionless_strategy_works_on_every_substrate() {
    // [GREE84]'s method needs `all_moves`; every substrate provides it.
    let mut rng = StdRng::seed_from_u64(21);
    let gola = LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng));
    let part = PartitionProblem::new(random_two_pin(16, 48, &mut rng));
    let tsp = TspProblem::new(TspInstance::random_euclidean(20, &mut rng));

    macro_rules! check {
        ($p:expr, $name:literal) => {{
            let r = Annealer::new(&$p)
                .strategy(Strategy::Rejectionless)
                .budget(Budget::evaluations(20_000))
                .seed(3)
                .run(&mut GFunction::six_temp_annealing(2.0), &mut NoopObserver);
            assert!(r.reduction() > 0.0, concat!($name, " made no progress"));
            assert_eq!(r.stats.rejected_uphill, 0, "rejectionless never rejects");
        }};
    }
    check!(gola, "GOLA");
    check!(part, "partition");
    check!(tsp, "TSP");
}

#[test]
fn white84_schedule_drives_annealing_well() {
    use annealbench::core::{estimate_delta_stats, white84_schedule};
    let mut rng = StdRng::seed_from_u64(22);
    let p = LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng));
    let stats = estimate_delta_stats(&p, 2_000, &mut rng);
    assert!(stats.std_dev > 0.0);
    let schedule = white84_schedule(&stats, 6);
    let r = Annealer::new(&p)
        .budget(Budget::evaluations(30_000))
        .seed(5)
        .run(&mut GFunction::annealing(schedule), &mut NoopObserver);
    // A landscape-derived schedule should do real work without tuning.
    assert!(r.reduction() > 0.0);
}

#[test]
fn seeded_runs_reproduce_across_problem_types() {
    let mut rng = StdRng::seed_from_u64(11);
    let tsp = TspProblem::new(TspInstance::random_euclidean(25, &mut rng));
    let run = || {
        Annealer::new(&tsp)
            .budget(Budget::evaluations(8_000))
            .seed(123)
            .run(&mut GFunction::metropolis(0.1), &mut NoopObserver)
    };
    let a = run();
    let b = run();
    assert_eq!(a.best_cost, b.best_cost);
    assert_eq!(a.best_state.order(), b.best_state.order());
}

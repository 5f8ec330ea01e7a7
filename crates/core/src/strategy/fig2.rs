//! The paper's Figure-2 strategy: local optimization before uphill moves
//! (Cohoon & Sahni, \[COHO83a/b\]).
//!
//! ```text
//! Step 1  let i be a random feasible solution. temp = 1. counter = 0
//! Step 2  continue to perturb i until no perturbation decreases h
//! Step 3  update the best solution found so far, if i is best
//! Step 4  if counter >= n then
//!             [if temp = k then stop else [temp = temp+1, counter = 0]]
//! Step 5  counter = counter+1, r = random
//!         let j be the result of a random perturbation to i
//!         if r < g_temp(h(i),h(j)) then [i = j, go to Step 2]
//!         go to Step 4
//! ```
//!
//! The notable differences from [Figure 1](super::fig1) (§3): perturbations
//! that increase the objective are considered **only after a local optimum
//! has been reached**, and the counter bounds uphill *attempts* per
//! temperature (it never resets on acceptance). `n` is the
//! [equilibrium](crate::Annealer::equilibrium) limit, and a
//! [controller](crate::Annealer::controller) corrects each stage's
//! temperature as under Figure 1.
//!
//! Local descent uses [`Problem::improving_move`]; every cost probe the
//! problem reports is charged against the budget, reflecting the paper's
//! observation that finding a local optimum is expensive ("it takes about 20
//! seconds", §4.2.4). With the default `improving_move` (`None` for every
//! state) the strategy performs no descent and degenerates to accepted
//! kicks only.

use rand::Rng;

use super::Run;
use crate::accept::GFunction;
use crate::annealer::Annealer;
use crate::problem::Problem;
use crate::stats::{RunResult, StopReason};
use crate::trace::ChainObserver;

/// Runs Figure 2 from `start`.
pub(crate) fn run<P: Problem, O: ChainObserver>(
    a: &Annealer<'_, P>,
    g: &mut GFunction,
    start: P::State,
    rng: &mut dyn Rng,
    obs: &mut O,
) -> RunResult<P::State> {
    let (problem, equilibrium, controller) = (a.problem, a.equilibrium, a.controller.as_ref());
    g.reset();
    let k = g.temperatures();
    let mut state = start;
    let mut cost = problem.cost(&state);
    let initial_cost = cost;
    let mut run = Run::<P>::new(a.budget, k, a.trajectory_every, &state, cost, O::ENABLED);
    run.enter_stage(g, controller);
    if O::ENABLED {
        obs.on_run_start(initial_cost, k);
    }

    let stop = 'run: loop {
        // Step 2: descend to a local optimum.
        loop {
            if run.meter.exhausted() {
                if !run.advance_temp(true, obs) {
                    break 'run StopReason::Budget;
                }
                run.enter_stage(g, controller);
            }
            let mut probes = 0;
            let improving = problem.improving_move(&state, &mut probes);
            run.charge(probes);
            match improving {
                Some(mv) => {
                    problem.apply(&mut state, &mv);
                    cost = problem.cost(&state);
                    run.charge(1);
                    run.stats.accepted_downhill += 1;
                    if O::ENABLED {
                        obs.on_energy(run.total_evals, cost);
                    }
                }
                None => break,
            }
        }
        run.stats.descents += 1;

        // Step 3: update best.
        run.observe(&state, cost, obs);

        // Steps 4 & 5: uphill kicks until one is accepted.
        loop {
            if run.counter >= equilibrium {
                if !run.advance_temp(false, obs) {
                    break 'run StopReason::Equilibrium;
                }
                run.enter_stage(g, controller);
            }
            if run.meter.exhausted() {
                if !run.advance_temp(true, obs) {
                    break 'run StopReason::Budget;
                }
                run.enter_stage(g, controller);
            }
            run.counter += 1;
            let mv = problem.propose(&state, rng);
            run.stats.proposals += 1;
            problem.apply(&mut state, &mv);
            let new_cost = problem.cost(&state);
            run.charge(1);
            // From a local optimum every in-neighborhood move satisfies
            // h(j) >= h(i); a strictly downhill proposal (possible when
            // `propose` samples outside the enumerated neighborhood) is
            // accepted unconditionally.
            if new_cost < cost || g.decide_figure2(run.temp, cost, new_cost, rng) {
                if new_cost < cost {
                    run.stats.accepted_downhill += 1;
                } else {
                    run.stats.accepted_uphill += 1;
                }
                cost = new_cost;
                if O::ENABLED {
                    obs.on_energy(run.total_evals, cost);
                }
                continue 'run; // back to Step 2
            }
            problem.undo(&mut state, &mv);
            run.stats.rejected_uphill += 1;
            if O::ENABLED {
                obs.on_energy(run.total_evals, cost);
            }
        }
    };

    run.finish(stop, initial_cost, cost, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::trace::NoopObserver;
    use crate::Strategy;
    use rand::RngExt;

    /// Bit-count toy with full neighborhood enumeration for descent.
    struct BitCount;
    impl Problem for BitCount {
        type State = u64;
        type Move = u32;
        fn random_state(&self, rng: &mut dyn Rng) -> u64 {
            rng.random_range(0..(1u64 << 20))
        }
        fn cost(&self, s: &u64) -> f64 {
            s.count_ones() as f64
        }
        fn propose(&self, _: &u64, rng: &mut dyn Rng) -> u32 {
            rng.random_range(0..20)
        }
        fn apply(&self, s: &mut u64, m: &u32) {
            *s ^= 1 << m;
        }
        fn improving_move(&self, s: &u64, probes: &mut u64) -> Option<u32> {
            for b in 0..20 {
                *probes += 1;
                if s & (1u64 << b) != 0 {
                    return Some(b);
                }
            }
            None
        }
    }

    /// A Figure-2 chain on [`BitCount`] with `budget` evaluations.
    fn figure2(budget: u64, seed: u64) -> Annealer<'static, BitCount> {
        let mut a = Annealer::new(&BitCount);
        a.strategy(Strategy::Figure2)
            .budget(Budget::evaluations(budget))
            .seed(seed);
        a
    }

    #[test]
    fn first_descent_finds_global_optimum_of_bitcount() {
        // Bit flipping has no false local optima, so one descent suffices.
        let r = figure2(10_000, 1).run(&mut GFunction::unit(), &mut NoopObserver);
        assert_eq!(r.best_cost, 0.0);
        assert!(r.stats.descents >= 1);
    }

    #[test]
    fn charges_descent_probes_to_budget() {
        let r = figure2(500, 2).run(&mut GFunction::unit(), &mut NoopObserver);
        // Descent probes (20 per improving-move query) dominate: far fewer
        // than 500 proposals can have been made.
        assert!(r.stats.evals >= r.stats.proposals);
        assert!(r.stats.evals <= 525, "evals = {}", r.stats.evals);
    }

    #[test]
    fn counter_bounds_kicks_per_temperature() {
        // Reject every kick: zero-probability g (Boltzmann, tiny Y) and a
        // problem already at its local optimum.
        let r = figure2(100_000, 3)
            .equilibrium(7)
            .start_from(0)
            .run(&mut GFunction::metropolis(1e-12), &mut NoopObserver);
        assert_eq!(r.stop, StopReason::Equilibrium);
        assert_eq!(r.stats.proposals, 7, "exactly n kick attempts at k=1");
        assert_eq!(r.stats.rejected_uphill, 7);
    }

    #[test]
    fn accepted_kick_does_not_reset_counter() {
        // g = 1 under Figure 2 accepts every kick. With n = 5 and k = 1 the
        // run must stop after 5 kick attempts even though all are accepted.
        let r = figure2(1_000_000, 4)
            .equilibrium(5)
            .start_from(1)
            .run(&mut GFunction::unit(), &mut NoopObserver);
        assert_eq!(r.stop, StopReason::Equilibrium);
        assert_eq!(r.stats.proposals, 5, "counter is not reset by acceptance");
        assert_eq!(r.stats.accepted_uphill, 5, "g = 1 accepts every kick");
        assert_eq!(r.best_cost, 0.0, "descents between kicks still optimize");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| figure2(3_000, seed).run(&mut GFunction::two_level(), &mut NoopObserver);
        let a = run(17);
        let b = run(17);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn six_temperature_schedule_advances() {
        let r = figure2(50_000, 6)
            .equilibrium(3)
            .run(&mut GFunction::six_temp_annealing(2.0), &mut NoopObserver);
        // With a tiny kick limit the run sweeps all six temperatures.
        assert_eq!(r.stop, StopReason::Equilibrium);
        assert_eq!(r.stats.equilibrium_advances, 5);
    }
}

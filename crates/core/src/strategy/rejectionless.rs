//! The rejectionless ("without rejected moves") method of Greene & Supowit
//! \[GREE84\], discussed in §2 of the paper:
//!
//! > "\[GREE84\] develops a method to improve the run time performance of
//! > annealing at low temperatures. The method proposed trades computer
//! > time with computer space. In fact, the authors themselves state that
//! > the memory cost is great."
//!
//! Instead of proposing random perturbations and rejecting most of them at
//! low temperature, each step weighs **every** neighbor `j` by its
//! acceptance probability `g_temp(h(i), h(j))` (1 for downhill moves) and
//! samples one move from that distribution — so every step moves. The cost
//! is evaluating the whole neighborhood per step, which is exactly the
//! time/space trade the paper quotes; the budget accounting charges one
//! evaluation per weighed neighbor, keeping comparisons against Figure 1/2
//! honest.
//!
//! Requires the problem to implement [`Problem::all_moves_into`]; with the
//! default empty neighborhood the run stops immediately (zero evaluations).
//!
//! Temperature control: the budget is split evenly across the schedule as
//! in the other strategies; a temperature advances when its share is
//! exhausted or when the chain **freezes** (every neighbor has acceptance
//! probability 0).

use rand::{Rng, RngExt};

use super::Run;
use crate::accept::GFunction;
use crate::annealer::Annealer;
use crate::problem::Problem;
use crate::stats::{RunResult, StopReason};
use crate::trace::ChainObserver;

/// Runs the rejectionless strategy from `start`.
pub(crate) fn run<P: Problem, O: ChainObserver>(
    a: &Annealer<'_, P>,
    g: &mut GFunction,
    start: P::State,
    rng: &mut dyn Rng,
    obs: &mut O,
) -> RunResult<P::State> {
    let problem = a.problem;
    g.reset();
    let k = g.temperatures();
    let mut state = start;
    let mut cost = problem.cost(&state);
    let initial_cost = cost;
    let mut run = Run::<P>::new(a.budget, k, &state, cost, O::ENABLED);
    run.stage_temperature = g.schedule().value(0);
    if O::ENABLED {
        obs.on_run_start(initial_cost, k);
    }

    // Neighborhood and weight buffers are reused across steps; problems
    // overriding `all_moves_into` fill them with no per-step allocation.
    let mut moves: Vec<P::Move> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let stop = loop {
        if run.meter.exhausted() {
            if !run.advance_temp(true, obs) {
                break StopReason::Budget;
            }
            run.stage_temperature = g.schedule().value(run.temp);
        }
        problem.all_moves_into(&state, &mut moves);
        if moves.is_empty() {
            // Neighborhood enumeration unsupported (or a degenerate
            // instance): nothing to sample.
            break StopReason::Equilibrium;
        }

        // Weigh every neighbor by its acceptance probability.
        weights.clear();
        let mut total = 0.0;
        for mv in &moves {
            let (neighbor_cost, _) = problem.try_move(&mut state, mv, |_| false);
            let p = if neighbor_cost < cost {
                1.0
            } else {
                g.probability(run.temp, cost, neighbor_cost)
            };
            weights.push(p);
            total += p;
        }
        run.stats.proposals += moves.len() as u64;
        run.charge(moves.len() as u64);

        if total <= 0.0 {
            // Frozen at this temperature: advance or stop.
            if !run.advance_temp(false, obs) {
                break StopReason::Equilibrium;
            }
            run.stage_temperature = g.schedule().value(run.temp);
            continue;
        }

        // Sample a move proportionally to its weight.
        let mut r = rng.random_range(0.0..total);
        let mut chosen = moves.len() - 1;
        for (i, w) in weights.iter().enumerate() {
            if r < *w {
                chosen = i;
                break;
            }
            r -= w;
        }
        let (new_cost, _) = problem.try_move(&mut state, &moves[chosen], |_| true);
        if new_cost < cost {
            run.stats.accepted_downhill += 1;
            g.note_downhill();
        } else {
            run.stats.accepted_uphill += 1;
        }
        cost = new_cost;
        if O::ENABLED {
            obs.on_energy(run.stats.evals, cost);
        }
        run.observe(&state, cost, obs);
    };

    run.finish(stop, initial_cost, cost, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::trace::NoopObserver;
    use crate::Strategy;

    struct BitCount;
    impl Problem for BitCount {
        type State = u64;
        type Move = u32;
        fn random_state(&self, rng: &mut dyn Rng) -> u64 {
            rng.random_range(0..(1u64 << 16))
        }
        fn cost(&self, s: &u64) -> f64 {
            s.count_ones() as f64
        }
        fn propose(&self, _: &u64, rng: &mut dyn Rng) -> u32 {
            rng.random_range(0..16)
        }
        fn apply(&self, s: &mut u64, m: &u32) {
            *s ^= 1 << m;
        }
        fn all_moves_into(&self, _: &u64, buf: &mut Vec<u32>) {
            buf.clear();
            buf.extend(0..16);
        }
    }

    /// A rejectionless chain on `p` with `budget` evaluations.
    fn rejectionless<P: Problem>(p: &P, budget: u64, seed: u64) -> Annealer<'_, P> {
        let mut a = Annealer::new(p);
        a.strategy(Strategy::Rejectionless)
            .budget(Budget::evaluations(budget))
            .seed(seed);
        a
    }

    #[test]
    fn solves_bitcount() {
        let r = rejectionless(&BitCount, 30_000, 1)
            .run(&mut GFunction::six_temp_annealing(1.0), &mut NoopObserver);
        assert_eq!(r.best_cost, 0.0);
        // Every step moves: accepted counts equal steps, no rejections.
        assert_eq!(r.stats.rejected_uphill, 0);
        assert_eq!(
            r.stats.proposals,
            (r.stats.accepted_downhill + r.stats.accepted_uphill) * 16
        );
    }

    #[test]
    fn frozen_chain_stops_at_last_temperature() {
        // A Boltzmann g at an astronomically low temperature freezes as soon
        // as the state reaches the global optimum (every neighbor uphill
        // with p = 0).
        let r = rejectionless(&BitCount, 1_000_000, 2)
            .start_from(1)
            .run(&mut GFunction::metropolis(1e-15), &mut NoopObserver);
        assert_eq!(r.best_cost, 0.0);
        assert_eq!(
            r.stop,
            StopReason::Equilibrium,
            "froze before budget ran out"
        );
        assert!(r.stats.evals < 1_000_000);
    }

    #[test]
    fn unsupported_problem_stops_immediately() {
        struct NoNeighborhood;
        impl Problem for NoNeighborhood {
            type State = i64;
            type Move = i64;
            fn random_state(&self, _: &mut dyn Rng) -> i64 {
                0
            }
            fn cost(&self, s: &i64) -> f64 {
                *s as f64
            }
            fn propose(&self, _: &i64, _: &mut dyn Rng) -> i64 {
                1
            }
            fn apply(&self, s: &mut i64, m: &i64) {
                *s += m;
            }
        }
        let r = rejectionless(&NoNeighborhood, 100, 3)
            .start_from(5)
            .run(&mut GFunction::unit(), &mut NoopObserver);
        assert_eq!(r.stats.evals, 0);
        assert_eq!(r.best_cost, 5.0);
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            rejectionless(&BitCount, 5_000, seed)
                .run(&mut GFunction::six_temp_annealing(1.0), &mut NoopObserver)
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.stats, b.stats);
    }
}

//! The paper's Figure-1 strategy: the Metropolis adaptation with
//! Kirkpatrick's several-temperature control.
//!
//! ```text
//! Step 1  let i be a random feasible solution. temp = 1. counter = 0
//! Step 2  let j be a random perturbation of i
//! Step 3  if h(j)-h(i) < 0 then [i = j, update best, counter = 0, go to 2]
//! Step 4  [h(j)-h(i) >= 0] if counter >= n then
//!             [if temp = k then stop
//!              else [temp = temp+1, counter = 0, go to 2]]
//!         otherwise, r = random
//!             if r < g_temp(h(i),h(j)) then [i = j, counter = 0]
//!             else [counter = counter+1]
//!         go to 2
//! ```
//!
//! `n` is the [equilibrium](crate::Annealer::equilibrium) limit: this many
//! consecutive uphill rejections advance the temperature (Step 4). In
//! addition to the equilibrium counter, each temperature is limited to
//! `⌈budget/k⌉` evaluations (the paper's per-temperature time allotment);
//! exhausting the final temperature's share stops the run.
//!
//! With a [controller](crate::Annealer::controller) attached, each stage's
//! temperature is corrected at the temperature advance toward the
//! controller's target acceptance trajectory (see
//! [`schedule::adaptive`](crate::schedule::adaptive)).

use rand::Rng;

use super::Run;
use crate::accept::GFunction;
use crate::annealer::Annealer;
use crate::problem::Problem;
use crate::stats::{RunResult, StopReason};
use crate::trace::ChainObserver;

/// Runs Figure 1 from `start` until the budget or the equilibrium
/// criterion at the last temperature stops it.
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
    let mut run = Run::<P>::new(a.budget, k, &state, cost, O::ENABLED);
    run.enter_stage(g, controller);
    if O::ENABLED {
        obs.on_run_start(initial_cost, k);
    }

    let stop = loop {
        if run.meter.exhausted() {
            if !run.advance_temp(true, obs) {
                break StopReason::Budget;
            }
            run.enter_stage(g, controller);
            continue;
        }

        // Step 2: random perturbation, kept only if Step 3 or 4 accepts it.
        let mv = problem.propose(&state, rng);
        run.stats.proposals += 1;
        let at_equilibrium = run.counter >= equilibrium;
        let (new_cost, accepted) = problem.try_move(&mut state, &mv, |new_cost| {
            new_cost < cost || (!at_equilibrium && g.decide_figure1(run.temp, cost, new_cost, rng))
        });
        run.charge(1);

        if new_cost < cost {
            // Step 3: downhill, always accept.
            cost = new_cost;
            run.counter = 0;
            run.stats.accepted_downhill += 1;
            g.note_downhill();
            run.observe(&state, cost, obs);
        } else if at_equilibrium {
            // Step 4, equilibrium reached: j was dropped; advance or stop.
            if !run.advance_temp(false, obs) {
                break StopReason::Equilibrium;
            }
            run.enter_stage(g, controller);
        } else if accepted {
            // Step 4: uphill or flat, accepted with probability g.
            cost = new_cost;
            run.counter = 0;
            run.stats.accepted_uphill += 1;
        } else {
            run.counter += 1;
            run.stats.rejected_uphill += 1;
        }
        if O::ENABLED {
            obs.on_energy(run.stats.evals, cost);
        }
    };

    run.finish(stop, initial_cost, cost, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::schedule::adaptive::AcceptanceController;
    use crate::trace::NoopObserver;
    use rand::RngExt;

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
    }

    fn run_with(g: &mut GFunction, budget: u64, seed: u64) -> RunResult<u64> {
        Annealer::new(&BitCount)
            .budget(Budget::evaluations(budget))
            .seed(seed)
            .run(g, &mut NoopObserver)
    }

    #[test]
    fn solves_bitcount_with_metropolis() {
        let mut g = GFunction::metropolis(0.5);
        let r = run_with(&mut g, 50_000, 1);
        assert_eq!(r.best_cost, 0.0, "Metropolis should zero 20 bits");
        assert!(r.reduction() > 0.0);
    }

    #[test]
    fn solves_bitcount_with_unit_g() {
        let mut g = GFunction::unit();
        let r = run_with(&mut g, 50_000, 2);
        assert_eq!(r.best_cost, 0.0, "gated g=1 should zero 20 bits");
    }

    #[test]
    fn budget_is_respected() {
        let mut g = GFunction::six_temp_annealing(2.0);
        let r = run_with(&mut g, 600, 3);
        // k=6 → 100 evals per temperature; tolerance for the final proposal.
        assert!(r.stats.evals <= 606, "evals = {}", r.stats.evals);
        assert_eq!(r.stop, StopReason::Budget);
    }

    #[test]
    fn equilibrium_stops_single_temperature() {
        // An always-reject g: Boltzmann at a tiny temperature with a large
        // delta. Cost function is constant except at zero, so from a nonzero
        // state most proposals are flat... instead use a frozen problem:
        struct Frozen;
        impl Problem for Frozen {
            type State = i64;
            type Move = i64;
            fn random_state(&self, _: &mut dyn Rng) -> i64 {
                0
            }
            fn cost(&self, s: &i64) -> f64 {
                if *s == 0 {
                    0.0
                } else {
                    100.0
                }
            }
            fn propose(&self, _: &i64, _: &mut dyn Rng) -> i64 {
                1
            }
            fn apply(&self, s: &mut i64, m: &i64) {
                *s += m;
            }
            fn undo(&self, s: &mut i64, m: &i64) {
                *s -= m;
            }
        }
        let mut g = GFunction::metropolis(1e-9);
        let r = Annealer::new(&Frozen)
            .equilibrium(50)
            .budget(Budget::evaluations(1_000_000))
            .seed(4)
            .start_from(0)
            .run(&mut g, &mut NoopObserver);
        assert_eq!(r.stop, StopReason::Equilibrium);
        assert_eq!(r.best_cost, 0.0);
        // Exactly n rejections before the stop, plus the dropped proposal.
        assert_eq!(r.stats.rejected_uphill, 50);
        assert!(r.stats.evals <= 52);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut g1 = GFunction::six_temp_annealing(2.0);
        let mut g2 = GFunction::six_temp_annealing(2.0);
        let a = run_with(&mut g1, 5_000, 9);
        let b = run_with(&mut g2, 5_000, 9);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.final_cost, b.final_cost);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn per_temp_records_stage_temperature() {
        let mut g = GFunction::six_temp_annealing(2.0);
        let r = run_with(&mut g, 3_000, 17);
        for ts in &r.stats.per_temp {
            // Without a controller the stage temperature is the schedule's
            // own value and no target is recorded.
            assert_eq!(
                ts.temperature.to_bits(),
                GFunction::six_temp_annealing(2.0)
                    .schedule()
                    .value(ts.temp)
                    .to_bits()
            );
            assert!(ts.target_acceptance.is_nan());
        }
    }

    #[test]
    fn controller_tracks_targets_and_stays_deterministic() {
        let run = || {
            let mut g = GFunction::six_temp_annealing(2.0);
            Annealer::new(&BitCount)
                .controller(Some(AcceptanceController::default()))
                .budget(Budget::evaluations(6_000))
                .seed(23)
                .run(&mut g, &mut NoopObserver)
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        assert_eq!(a.stats, b.stats);
        let c = AcceptanceController::default();
        for ts in &a.stats.per_temp {
            assert!(ts.temperature.is_finite() && ts.temperature > 0.0);
            assert!(
                (ts.target_acceptance - c.target(ts.temp, 6)).abs() < 1e-12,
                "stage {} target {}",
                ts.temp,
                ts.target_acceptance
            );
        }
        // Feedback actually engaged: some stage after the first runs at a
        // temperature different from the uncorrected schedule.
        let base = GFunction::six_temp_annealing(2.0);
        assert!(
            a.stats
                .per_temp
                .iter()
                .skip(1)
                .any(|ts| ts.temperature.to_bits() != base.schedule().value(ts.temp).to_bits()),
            "controller never corrected a temperature"
        );
    }

    #[test]
    fn stats_balance() {
        let mut g = GFunction::metropolis(1.0);
        let r = run_with(&mut g, 5_000, 13);
        let s = &r.stats;
        // A proposal is dropped (neither accepted nor rejected) at each
        // equilibrium-triggered temperature advance and at an
        // equilibrium-triggered stop.
        let dropped = s.equilibrium_advances + u64::from(r.stop == StopReason::Equilibrium);
        assert_eq!(
            s.proposals,
            s.accepted_downhill + s.accepted_uphill + s.rejected_uphill + dropped,
        );
    }
}

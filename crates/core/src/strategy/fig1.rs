//! The Figure-1 strategy: the Metropolis adaptation with Kirkpatrick's
//! several-temperature control.

use rand::Rng;

use super::{Run, DEFAULT_EQUILIBRIUM};
use crate::accept::GFunction;
use crate::budget::Budget;
use crate::problem::Problem;
use crate::schedule::adaptive::AcceptanceController;
use crate::stats::{RunResult, StopReason};
use crate::trace::{ChainObserver, NoopObserver};

/// The paper's Figure-1 control strategy.
///
/// ```text
/// Step 1  let i be a random feasible solution. temp = 1. counter = 0
/// Step 2  let j be a random perturbation of i
/// Step 3  if h(j)-h(i) < 0 then [i = j, update best, counter = 0, go to 2]
/// Step 4  [h(j)-h(i) >= 0] if counter >= n then
///             [if temp = k then stop
///              else [temp = temp+1, counter = 0, go to 2]]
///         otherwise, r = random
///             if r < g_temp(h(i),h(j)) then [i = j, counter = 0]
///             else [counter = counter+1]
///         go to 2
/// ```
///
/// In addition to the equilibrium counter, each temperature is limited to
/// `⌈budget/k⌉` evaluations (the paper's per-temperature time allotment);
/// exhausting the final temperature's share stops the run.
///
/// # Examples
///
/// ```
/// use anneal_core::{Budget, Figure1, GFunction, Problem, Rng, RngExt};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// struct MinimizeBits;
/// impl Problem for MinimizeBits {
///     type State = u64;
///     type Move = u32;
///     fn random_state(&self, rng: &mut dyn Rng) -> u64 {
///         rng.random_range(0..1 << 16)
///     }
///     fn cost(&self, s: &u64) -> f64 {
///         s.count_ones() as f64
///     }
///     fn propose(&self, _: &u64, rng: &mut dyn Rng) -> u32 {
///         rng.random_range(0..16)
///     }
///     fn apply(&self, s: &mut u64, m: &u32) {
///         *s ^= 1 << m;
///     }
/// }
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let problem = MinimizeBits;
/// let start = problem.random_state(&mut rng);
/// let mut g = GFunction::six_temp_annealing(2.0);
/// let result = Figure1::default().run(
///     &problem,
///     &mut g,
///     start,
///     Budget::evaluations(20_000),
///     &mut rng,
/// );
/// assert_eq!(result.best_cost, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1 {
    /// Equilibrium counter limit `n`: this many consecutive uphill rejections
    /// advance the temperature (Step 4).
    pub equilibrium: u64,
    /// Sample `(evals, best_cost)` into the run's trajectory every this many
    /// evaluations; 0 disables sampling.
    pub trajectory_every: u64,
    /// Optional adaptive acceptance-ratio controller: at each temperature
    /// advance the next stage's temperature is corrected toward the
    /// controller's target acceptance trajectory (see
    /// [`schedule::adaptive`](crate::schedule::adaptive)).
    pub controller: Option<AcceptanceController>,
}

impl Default for Figure1 {
    fn default() -> Self {
        Figure1 {
            equilibrium: DEFAULT_EQUILIBRIUM,
            trajectory_every: 0,
            controller: None,
        }
    }
}

impl Figure1 {
    /// A Figure-1 strategy with equilibrium limit `n`.
    pub fn with_equilibrium(n: u64) -> Self {
        Figure1 {
            equilibrium: n,
            ..Self::default()
        }
    }

    /// Enables best-cost trajectory sampling every `every` evaluations.
    pub fn trajectory(mut self, every: u64) -> Self {
        self.trajectory_every = every;
        self
    }

    /// Attaches (or detaches) an adaptive acceptance-ratio controller.
    pub fn with_controller(mut self, controller: Option<AcceptanceController>) -> Self {
        self.controller = controller;
        self
    }

    /// Runs the strategy from `start` until the budget or the equilibrium
    /// criterion at the last temperature stops it.
    ///
    /// The acceptance function's gate state is [`reset`](GFunction::reset)
    /// at the start of the run.
    pub fn run<P: Problem>(
        &self,
        problem: &P,
        g: &mut GFunction,
        start: P::State,
        budget: Budget,
        rng: &mut dyn Rng,
    ) -> RunResult<P::State> {
        self.run_traced(problem, g, start, budget, rng, &mut NoopObserver)
    }

    /// Like [`run`](Self::run), reporting structured chain events to `obs`.
    ///
    /// The observer parameter is monomorphized: with [`NoopObserver`] this
    /// compiles to exactly `run` (no clock reads, no extra branches), and
    /// tracing never touches the RNG, so a traced run visits bitwise-identical
    /// states under the same seed.
    pub fn run_traced<P: Problem, O: ChainObserver>(
        &self,
        problem: &P,
        g: &mut GFunction,
        start: P::State,
        budget: Budget,
        rng: &mut dyn Rng,
        obs: &mut O,
    ) -> RunResult<P::State> {
        g.reset();
        let k = g.temperatures();
        let mut state = start;
        let mut cost = problem.cost(&state);
        let initial_cost = cost;
        let mut run = Run::<P>::new(budget, k, self.trajectory_every, &state, cost, O::ENABLED);
        run.enter_stage(g, self.controller.as_ref());
        if O::ENABLED {
            obs.on_run_start(initial_cost, k);
        }

        let stop = loop {
            if run.meter.exhausted() {
                if !run.advance_temp(true, obs) {
                    break StopReason::Budget;
                }
                run.enter_stage(g, self.controller.as_ref());
                continue;
            }

            // Step 2: random perturbation.
            let mv = problem.propose(&state, rng);
            run.stats.proposals += 1;
            problem.apply(&mut state, &mv);
            let new_cost = problem.cost(&state);
            run.charge(1);

            if new_cost < cost {
                // Step 3: downhill, always accept.
                cost = new_cost;
                run.counter = 0;
                run.stats.accepted_downhill += 1;
                g.note_downhill();
                run.observe(&state, cost, obs);
            } else {
                // Step 4: uphill or flat.
                if run.counter >= self.equilibrium {
                    // Equilibrium reached: drop j, advance or stop.
                    problem.undo(&mut state, &mv);
                    if !run.advance_temp(false, obs) {
                        break StopReason::Equilibrium;
                    }
                    run.enter_stage(g, self.controller.as_ref());
                } else if g.decide_figure1(run.temp, cost, new_cost, rng) {
                    cost = new_cost;
                    run.counter = 0;
                    run.stats.accepted_uphill += 1;
                } else {
                    problem.undo(&mut state, &mv);
                    run.counter += 1;
                    run.stats.rejected_uphill += 1;
                }
            }
            if O::ENABLED {
                obs.on_energy(run.total_evals, cost);
            }
        };

        run.finish(stop, initial_cost, cost, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

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
        let p = BitCount;
        let mut rng = StdRng::seed_from_u64(seed);
        let start = p.random_state(&mut rng);
        Figure1::default().run(&p, g, start, Budget::evaluations(budget), &mut rng)
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
        let p = Frozen;
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = GFunction::metropolis(1e-9);
        let strat = Figure1::with_equilibrium(50);
        let r = strat.run(&p, &mut g, 0, Budget::evaluations(1_000_000), &mut rng);
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
    fn trajectory_sampling_records_monotone_best() {
        let p = BitCount;
        let mut rng = StdRng::seed_from_u64(11);
        let start = p.random_state(&mut rng);
        let mut g = GFunction::unit();
        let r = Figure1::default().trajectory(500).run(
            &p,
            &mut g,
            start,
            Budget::evaluations(10_000),
            &mut rng,
        );
        assert!(!r.stats.trajectory.is_empty());
        for w in r.stats.trajectory.windows(2) {
            assert!(w[0].0 < w[1].0, "eval counts increase");
            assert!(w[0].1 >= w[1].1, "best cost never worsens");
        }
    }

    #[test]
    fn wall_clock_budget_stops_run() {
        // A hot Metropolis g accepts almost every uphill move, so the
        // equilibrium counter keeps resetting and only the deadline can end
        // the run.
        let p = BitCount;
        let mut rng = StdRng::seed_from_u64(21);
        let start = p.random_state(&mut rng);
        let mut g = GFunction::metropolis(10.0);
        let r = Figure1::default().run(
            &p,
            &mut g,
            start,
            Budget::wall_clock(std::time::Duration::from_millis(40)),
            &mut rng,
        );
        assert_eq!(r.stop, StopReason::Budget);
        assert!(
            r.stats.evals > 0,
            "the run did real work before the deadline"
        );
        assert!(
            !r.stats.per_temp.is_empty(),
            "wall-clock runs still record per-temperature telemetry"
        );
    }

    #[test]
    fn traced_run_is_bitwise_identical_and_consistent() {
        use crate::trace::TraceCollector;
        let p = BitCount;
        let mut g1 = GFunction::six_temp_annealing(2.0);
        let mut g2 = GFunction::six_temp_annealing(2.0);
        let untraced = run_with(&mut g1, 8_000, 33);
        let mut rng = StdRng::seed_from_u64(33);
        let start = p.random_state(&mut rng);
        let mut obs = TraceCollector::new();
        let traced = Figure1::default().run_traced(
            &p,
            &mut g2,
            start,
            Budget::evaluations(8_000),
            &mut rng,
            &mut obs,
        );
        // Tracing never touches the RNG: identical to the last bit.
        assert_eq!(untraced.best_cost.to_bits(), traced.best_cost.to_bits());
        assert_eq!(untraced.final_cost.to_bits(), traced.final_cost.to_bits());
        assert_eq!(untraced.stats, traced.stats);
        // The trace mirrors the run's own accounting.
        let t = obs.trace();
        assert_eq!(t.initial_cost, traced.initial_cost);
        assert_eq!(t.stages.len(), traced.stats.per_temp.len());
        for (st, ts) in t.stages.iter().zip(&traced.stats.per_temp) {
            assert_eq!(&st.stats, ts);
        }
        let stop = t.stop.expect("stop event recorded");
        assert_eq!(stop.reason, traced.stop);
        assert_eq!(stop.final_cost.to_bits(), traced.final_cost.to_bits());
        assert_eq!(stop.best_cost.to_bits(), traced.best_cost.to_bits());
        assert!(!t.samples.is_empty(), "energy trajectory sampled");
        assert_eq!(
            t.bests.last().map(|&(_, c)| c),
            Some(traced.best_cost),
            "last best event is the final best"
        );
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
        let p = BitCount;
        let run = || {
            let mut rng = StdRng::seed_from_u64(23);
            let start = p.random_state(&mut rng);
            let mut g = GFunction::six_temp_annealing(2.0);
            Figure1::default()
                .with_controller(Some(AcceptanceController::default()))
                .run(&p, &mut g, start, Budget::evaluations(6_000), &mut rng)
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

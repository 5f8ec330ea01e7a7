//! High-level entry point: configure a problem, strategy, acceptance
//! function, budget and seed, then run.

use rand::{rngs::StdRng, SeedableRng};

use crate::accept::GFunction;
use crate::budget::Budget;
use crate::problem::Problem;
use crate::schedule::adaptive::AcceptanceController;
use crate::stats::RunResult;
use crate::strategy::{Figure1, Figure2, Rejectionless, ReplicaExchange, DEFAULT_EQUILIBRIUM};
use crate::trace::{ChainObserver, NoopObserver};

/// Which of the paper's two control strategies to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Figure 1: perturb, accept uphill moves probabilistically.
    #[default]
    Figure1,
    /// Figure 2: descend to a local optimum, then kick uphill.
    Figure2,
    /// \[GREE84\]: weigh every neighbor, sample one — no rejections. Requires
    /// [`Problem::all_moves`].
    Rejectionless,
    /// Parallel tempering: one chain per temperature rung of the g function's
    /// schedule, swapping configurations between adjacent rungs every
    /// `exchange_interval` within-chain proposals.
    ReplicaExchange {
        /// Within-chain proposals per rung between swap phases.
        exchange_interval: u64,
    },
}

/// A configured optimization run — the crate's high-level API.
///
/// `Annealer` is a non-consuming builder over a borrowed problem; `run`
/// executes one deterministic chain per call.
///
/// # Examples
///
/// ```
/// use anneal_core::{Annealer, Budget, GFunction, Problem, Rng, RngExt, Strategy};
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
/// let result = Annealer::new(&MinimizeBits)
///     .strategy(Strategy::Figure1)
///     .budget(Budget::evaluations(30_000))
///     .seed(7)
///     .run(&mut GFunction::unit());
/// assert_eq!(result.best_cost, 0.0);
/// ```
#[derive(Debug)]
pub struct Annealer<'a, P: Problem> {
    problem: &'a P,
    strategy: Strategy,
    equilibrium: u64,
    budget: Budget,
    seed: u64,
    start: Option<P::State>,
    trajectory_every: u64,
    controller: Option<AcceptanceController>,
}

impl<'a, P: Problem> Annealer<'a, P> {
    /// Starts configuring a run of `problem` with the defaults: Figure-1
    /// strategy, `n = 250`, a 10,000-evaluation budget and seed 0.
    pub fn new(problem: &'a P) -> Self {
        Annealer {
            problem,
            strategy: Strategy::Figure1,
            equilibrium: DEFAULT_EQUILIBRIUM,
            budget: Budget::evaluations(10_000),
            seed: 0,
            start: None,
            trajectory_every: 0,
            controller: None,
        }
    }

    /// Selects the control strategy.
    pub fn strategy(&mut self, strategy: Strategy) -> &mut Self {
        self.strategy = strategy;
        self
    }

    /// Sets the equilibrium counter limit `n`.
    pub fn equilibrium(&mut self, n: u64) -> &mut Self {
        self.equilibrium = n;
        self
    }

    /// Sets the computation budget.
    pub fn budget(&mut self, budget: Budget) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Seeds the run's random number generator (runs are deterministic in
    /// the seed).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Starts from `state` instead of a random solution (e.g. a Goto
    /// arrangement, as in Table 4.2(a)).
    pub fn start_from(&mut self, state: P::State) -> &mut Self {
        self.start = Some(state);
        self
    }

    /// Enables best-cost trajectory sampling every `every` evaluations.
    pub fn trajectory(&mut self, every: u64) -> &mut Self {
        self.trajectory_every = every;
        self
    }

    /// Attaches an adaptive acceptance-ratio controller (see
    /// [`schedule::adaptive`](crate::schedule::adaptive)). Honored by the
    /// [`Figure1`] and [`Figure2`] strategies, which correct each stage's
    /// temperature toward the controller's target acceptance trajectory;
    /// ignored by the other strategies.
    pub fn controller(&mut self, controller: Option<AcceptanceController>) -> &mut Self {
        self.controller = controller;
        self
    }

    /// Runs the configured strategy with acceptance function `g`.
    ///
    /// `g` is taken by `&mut` because acceptance functions carry gate state;
    /// it is reset at the start of the run, so a `GFunction` can be reused
    /// across runs.
    pub fn run(&self, g: &mut GFunction) -> RunResult<P::State> {
        self.dispatch(g, &mut NoopObserver)
    }

    /// Runs the configured strategy, reporting structured chain events
    /// (temperature stages, energy samples, best improvements, stop) to
    /// `obs` — see [`ChainObserver`]. With [`NoopObserver`] this is exactly
    /// [`run`](Self::run); tracing never perturbs the RNG, so results are
    /// bitwise-identical either way.
    pub fn run_traced<O: ChainObserver>(
        &self,
        g: &mut GFunction,
        obs: &mut O,
    ) -> RunResult<P::State> {
        self.dispatch(g, obs)
    }

    fn dispatch<O: ChainObserver>(&self, g: &mut GFunction, obs: &mut O) -> RunResult<P::State> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let start = match &self.start {
            Some(s) => s.clone(),
            None => self.problem.random_state(&mut rng),
        };
        match self.strategy {
            Strategy::Figure1 => Figure1 {
                equilibrium: self.equilibrium,
                trajectory_every: self.trajectory_every,
                controller: self.controller,
            }
            .run_traced(self.problem, g, start, self.budget, &mut rng, obs),
            Strategy::Figure2 => Figure2 {
                equilibrium: self.equilibrium,
                trajectory_every: self.trajectory_every,
                controller: self.controller,
            }
            .run_traced(self.problem, g, start, self.budget, &mut rng, obs),
            Strategy::Rejectionless => Rejectionless {
                trajectory_every: self.trajectory_every,
            }
            .run_traced(self.problem, g, start, self.budget, &mut rng, obs),
            Strategy::ReplicaExchange { exchange_interval } => ReplicaExchange {
                exchange_interval,
                trajectory_every: self.trajectory_every,
            }
            .run_traced(self.problem, g, start, self.budget, &mut rng, obs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngExt};

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
        fn improving_move(&self, s: &u64, probes: &mut u64) -> Option<u32> {
            for b in 0..16 {
                *probes += 1;
                if s & (1u64 << b) != 0 {
                    return Some(b);
                }
            }
            None
        }
    }

    #[test]
    fn builder_runs_both_strategies() {
        let p = BitCount;
        for strategy in [Strategy::Figure1, Strategy::Figure2] {
            let r = Annealer::new(&p)
                .strategy(strategy)
                .budget(Budget::evaluations(20_000))
                .seed(3)
                .run(&mut GFunction::unit());
            assert_eq!(r.best_cost, 0.0, "{strategy:?}");
        }
    }

    #[test]
    fn start_from_overrides_random_start() {
        let p = BitCount;
        let r = Annealer::new(&p)
            .budget(Budget::evaluations(10))
            .start_from(0b11)
            .run(&mut GFunction::metropolis(1e-9));
        assert_eq!(r.initial_cost, 2.0);
    }

    #[test]
    fn same_seed_same_result_across_strategies() {
        let p = BitCount;
        for strategy in [Strategy::Figure1, Strategy::Figure2] {
            let run = || {
                Annealer::new(&p)
                    .strategy(strategy)
                    .budget(Budget::evaluations(2_000))
                    .seed(41)
                    .run(&mut GFunction::two_level())
            };
            let a = run();
            let b = run();
            assert_eq!(a.best_cost, b.best_cost);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn run_traced_matches_run_for_every_strategy() {
        use crate::trace::TraceCollector;
        let p = BitCount;
        for strategy in [Strategy::Figure1, Strategy::Figure2] {
            let mut annealer = Annealer::new(&p);
            annealer
                .strategy(strategy)
                .budget(Budget::evaluations(2_000))
                .seed(5);
            let plain = annealer.run(&mut GFunction::six_temp_annealing(2.0));
            let mut obs = TraceCollector::new();
            let traced = annealer.run_traced(&mut GFunction::six_temp_annealing(2.0), &mut obs);
            assert_eq!(plain.best_cost.to_bits(), traced.best_cost.to_bits());
            assert_eq!(plain.stats, traced.stats);
            assert_eq!(obs.trace().stages.len(), traced.stats.per_temp.len());
            assert!(obs.trace().stop.is_some());
        }
    }

    #[test]
    fn gfunction_reusable_across_runs() {
        let p = BitCount;
        let mut g = GFunction::unit();
        let mut annealer = Annealer::new(&p);
        annealer.budget(Budget::evaluations(5_000)).seed(1);
        let a = annealer.run(&mut g);
        let b = annealer.run(&mut g);
        assert_eq!(a.best_cost, b.best_cost, "gate reset makes runs identical");
        assert_eq!(a.stats, b.stats);
    }
}

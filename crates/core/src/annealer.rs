//! The one way to configure and run a chain: pick a problem, strategy,
//! acceptance function, budget and seed, then run.

use rand::{rngs::StdRng, SeedableRng};

use crate::accept::GFunction;
use crate::budget::Budget;
use crate::problem::Problem;
use crate::schedule::adaptive::AcceptanceController;
use crate::stats::RunResult;
use crate::strategy::{
    fig1, fig2, rejectionless, replica_exchange, DEFAULT_EQUILIBRIUM, DEFAULT_EXCHANGE_INTERVAL,
};
use crate::trace::ChainObserver;

/// Which control strategy a chain runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Figure 1 ([`fig1`]): perturb, accept uphill moves probabilistically.
    #[default]
    Figure1,
    /// Figure 2 ([`fig2`]): descend to a local optimum, then kick uphill.
    Figure2,
    /// \[GREE84\] ([`rejectionless`]): weigh every neighbor, sample one — no
    /// rejections. Requires [`Problem::all_moves_into`].
    Rejectionless,
    /// Parallel tempering ([`replica_exchange`]): one chain per temperature
    /// rung of the g function's schedule, swapping configurations between
    /// adjacent rungs every `exchange_interval` within-chain proposals.
    ReplicaExchange {
        /// Within-chain proposals per rung between swap phases.
        exchange_interval: u64,
    },
}

impl Strategy {
    /// The strategy's lower-case name, as `repro --strategy` and the job
    /// server spell it.
    pub const fn name(&self) -> &'static str {
        match self {
            Strategy::Figure1 => "figure1",
            Strategy::Figure2 => "figure2",
            Strategy::Rejectionless => "rejectionless",
            Strategy::ReplicaExchange { .. } => "replica-exchange",
        }
    }

    /// The strategy whose [`name`](Self::name) is `name`, or `None`.
    /// `exchange_interval` sets replica exchange's interval
    /// ([`DEFAULT_EXCHANGE_INTERVAL`] when `None`); the other strategies
    /// ignore it.
    pub fn from_name(name: &str, exchange_interval: Option<u64>) -> Option<Strategy> {
        let exchange_interval = exchange_interval.unwrap_or(DEFAULT_EXCHANGE_INTERVAL);
        [
            Strategy::Figure1,
            Strategy::Figure2,
            Strategy::Rejectionless,
            Strategy::ReplicaExchange { exchange_interval },
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }
}

/// A configured chain — the crate's one way to run a strategy.
///
/// `Annealer` is a non-consuming builder over a borrowed problem; `run`
/// executes one deterministic chain per call.
///
/// # Examples
///
/// ```
/// use anneal_core::{Annealer, Budget, GFunction, NoopObserver, Problem, Rng, RngExt, Strategy};
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
///     .run(&mut GFunction::unit(), &mut NoopObserver);
/// assert_eq!(result.best_cost, 0.0);
/// ```
#[derive(Debug)]
pub struct Annealer<'a, P: Problem> {
    pub(crate) problem: &'a P,
    pub(crate) strategy: Strategy,
    pub(crate) equilibrium: u64,
    pub(crate) budget: Budget,
    pub(crate) seed: u64,
    pub(crate) start: Option<P::State>,
    pub(crate) controller: Option<AcceptanceController>,
    pub(crate) replicas: Option<usize>,
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
            controller: None,
            replicas: None,
        }
    }

    /// Selects the control strategy.
    pub fn strategy(&mut self, strategy: Strategy) -> &mut Self {
        self.strategy = strategy;
        self
    }

    /// Sets the equilibrium counter limit `n`: consecutive uphill
    /// rejections under Figure 1, uphill kick attempts under Figure 2,
    /// before the temperature advances. The other strategies ignore it.
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

    /// Attaches an adaptive acceptance-ratio controller (see
    /// [`schedule::adaptive`](crate::schedule::adaptive)). Honored by
    /// [`Strategy::Figure1`] and [`Strategy::Figure2`], which correct each
    /// stage's temperature toward the controller's target acceptance
    /// trajectory; ignored by the other strategies.
    pub fn controller(&mut self, controller: Option<AcceptanceController>) -> &mut Self {
        self.controller = controller;
        self
    }

    /// Rebuilds the ladder of a [`Strategy::ReplicaExchange`] run to `k`
    /// geometric rungs (Kirkpatrick ratio from g's top temperature); the
    /// rebuilt ladder replaces g's schedule. `None` keeps g's own ladder;
    /// the other strategies ignore the setting.
    pub fn replicas(&mut self, k: Option<usize>) -> &mut Self {
        self.replicas = k;
        self
    }

    /// Runs the configured strategy with acceptance function `g`,
    /// reporting structured chain events (temperature stages, energy
    /// samples, best improvements, stop) to `obs` — see [`ChainObserver`].
    ///
    /// The chain's RNG is seeded from [`seed`](Self::seed); without
    /// [`start_from`](Self::start_from) the start is its first draw. `g` is
    /// taken by `&mut` because acceptance functions carry gate state; it is
    /// reset at the start of the run, so a `GFunction` can be reused across
    /// runs.
    ///
    /// The observer is monomorphized: with
    /// [`NoopObserver`](crate::NoopObserver) the chain compiles to its bare
    /// loop (no clock reads, no extra branches), and tracing never touches
    /// the RNG, so a traced run is bitwise-identical to an untraced one.
    pub fn run<O: ChainObserver>(&self, g: &mut GFunction, obs: &mut O) -> RunResult<P::State> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let start = match &self.start {
            Some(s) => s.clone(),
            None => self.problem.random_state(&mut rng),
        };
        match self.strategy {
            Strategy::Figure1 => fig1::run(self, g, start, &mut rng, obs),
            Strategy::Figure2 => fig2::run(self, g, start, &mut rng, obs),
            Strategy::Rejectionless => rejectionless::run(self, g, start, &mut rng, obs),
            Strategy::ReplicaExchange { exchange_interval } => {
                replica_exchange::run(self, exchange_interval, g, start, &mut rng, obs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{AdvanceReason, StopReason};
    use crate::trace::{NoopObserver, TraceCollector};
    use crate::Schedule;
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
        fn all_moves_into(&self, _: &u64, buf: &mut Vec<u32>) {
            buf.clear();
            buf.extend(0..16);
        }
    }

    const ALL: [Strategy; 4] = [
        Strategy::Figure1,
        Strategy::Figure2,
        Strategy::Rejectionless,
        Strategy::ReplicaExchange {
            exchange_interval: 32,
        },
    ];

    #[test]
    fn builder_runs_both_strategies() {
        let p = BitCount;
        for strategy in [Strategy::Figure1, Strategy::Figure2] {
            let r = Annealer::new(&p)
                .strategy(strategy)
                .budget(Budget::evaluations(20_000))
                .seed(3)
                .run(&mut GFunction::unit(), &mut NoopObserver);
            assert_eq!(r.best_cost, 0.0, "{strategy:?}");
        }
    }

    #[test]
    fn names_round_trip() {
        for strategy in ALL {
            let interval = match strategy {
                Strategy::ReplicaExchange { exchange_interval } => Some(exchange_interval),
                _ => None,
            };
            assert_eq!(
                Strategy::from_name(strategy.name(), interval),
                Some(strategy)
            );
        }
        assert_eq!(
            Strategy::from_name("replica-exchange", None),
            Some(Strategy::ReplicaExchange {
                exchange_interval: DEFAULT_EXCHANGE_INTERVAL
            })
        );
        assert_eq!(
            Strategy::from_name("figure1", Some(9)),
            Some(Strategy::Figure1)
        );
        assert_eq!(Strategy::from_name("Figure1", None), None);
    }

    #[test]
    fn start_from_overrides_random_start() {
        let p = BitCount;
        let r = Annealer::new(&p)
            .budget(Budget::evaluations(10))
            .start_from(0b11)
            .run(&mut GFunction::metropolis(1e-9), &mut NoopObserver);
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
                    .run(&mut GFunction::two_level(), &mut NoopObserver)
            };
            let a = run();
            let b = run();
            assert_eq!(a.best_cost, b.best_cost);
            assert_eq!(a.stats, b.stats);
        }
    }

    /// One chain per strategy, untraced and traced: tracing never touches
    /// the RNG, and the trace mirrors the run's own accounting. Replica
    /// exchange also pins its stage-end reasons (budget, equilibrium,
    /// exchange): every rung but the coldest closes on a swap phase.
    #[test]
    fn traced_run_is_bitwise_identical_and_consistent_for_every_strategy() {
        let p = BitCount;
        let stage_reasons = [None, None, None, Some((1, 0, 5))];
        for (strategy, expected_reasons) in ALL.into_iter().zip(stage_reasons) {
            let mut annealer = Annealer::new(&p);
            annealer
                .strategy(strategy)
                .budget(Budget::evaluations(8_000))
                .seed(33);
            let untraced = annealer.run(&mut GFunction::six_temp_annealing(2.0), &mut NoopObserver);
            let mut obs = TraceCollector::new();
            let traced = annealer.run(&mut GFunction::six_temp_annealing(2.0), &mut obs);
            let what = format!("{strategy:?}");
            assert_eq!(
                untraced.best_cost.to_bits(),
                traced.best_cost.to_bits(),
                "{what}"
            );
            assert_eq!(
                untraced.final_cost.to_bits(),
                traced.final_cost.to_bits(),
                "{what}"
            );
            assert_eq!(untraced.stats, traced.stats, "{what}");

            let t = obs.trace();
            assert_eq!(t.initial_cost, traced.initial_cost, "{what}");
            assert_eq!(t.temperatures, 6, "{what}");
            assert_eq!(t.stages.len(), traced.stats.per_temp.len(), "{what}");
            for (st, ts) in t.stages.iter().zip(&traced.stats.per_temp) {
                assert_eq!(&st.stats, ts, "{what}");
            }
            let stop = t.stop.expect("stop event recorded");
            assert_eq!(stop.reason, traced.stop, "{what}");
            assert_eq!(stop.final_cost.to_bits(), traced.final_cost.to_bits());
            assert_eq!(stop.best_cost.to_bits(), traced.best_cost.to_bits());
            assert!(!t.samples.is_empty(), "{what}: energy trajectory sampled");
            assert_eq!(
                t.bests.last().map(|&(_, c)| c),
                Some(traced.best_cost),
                "{what}: last best event is the final best"
            );
            // Figure 2's first descent reaches the optimum: one best event.
            let improvements = if strategy == Strategy::Figure2 { 1 } else { 2 };
            assert!(t.bests.len() >= improvements, "{what}: improvements");
            for w in t.bests.windows(2) {
                assert!(w[0].0 < w[1].0, "{what}: eval counts increase");
                assert!(w[0].1 >= w[1].1, "{what}: best cost never worsens");
            }
            if let Some(reasons) = expected_reasons {
                assert_eq!(t.stage_reasons(), reasons, "{what}");
                assert_eq!(stop.reason, StopReason::Budget, "{what}");
            }
        }
    }

    #[test]
    fn replicas_rebuild_the_ladder_for_replica_exchange_only() {
        let p = BitCount;
        let k = 4;
        let top = 2.0;
        let run = |strategy| {
            Annealer::new(&p)
                .strategy(strategy)
                .budget(Budget::evaluations(3_000))
                .seed(8)
                .replicas(Some(k))
                .run(&mut GFunction::six_temp_annealing(top), &mut NoopObserver)
        };
        let ladder = Schedule::geometric(top, crate::KIRKPATRICK_RATIO, k);
        let rx = run(ALL[3]);
        assert_eq!(rx.stats.per_temp.len(), k, "one stage per rebuilt rung");
        for (rung, stage) in rx.stats.per_temp.iter().enumerate() {
            assert_eq!(stage.temperature.to_bits(), ladder.value(rung).to_bits());
        }
        assert_eq!(rx.stats.per_temp[k - 1].ended_by, AdvanceReason::Budget);
        for strategy in &ALL[..3] {
            let without = Annealer::new(&p)
                .strategy(*strategy)
                .budget(Budget::evaluations(3_000))
                .seed(8)
                .run(&mut GFunction::six_temp_annealing(top), &mut NoopObserver);
            let with = run(*strategy);
            assert_eq!(with.best_cost.to_bits(), without.best_cost.to_bits());
            assert_eq!(with.stats, without.stats, "{strategy:?} ignores replicas");
        }
    }

    #[test]
    fn gfunction_reusable_across_runs() {
        let p = BitCount;
        let mut g = GFunction::unit();
        let mut annealer = Annealer::new(&p);
        annealer.budget(Budget::evaluations(5_000)).seed(1);
        let a = annealer.run(&mut g, &mut NoopObserver);
        let b = annealer.run(&mut g, &mut NoopObserver);
        assert_eq!(a.best_cost, b.best_cost, "gate reset makes runs identical");
        assert_eq!(a.stats, b.stats);
    }
}

//! Replica exchange (parallel tempering): one chain per temperature rung,
//! coupled by periodic configuration swaps.
//!
//! The paper runs its temperature ladder *serially* — Figure 1 walks the
//! schedule top to bottom. Replica exchange is the canonical modern scaling
//! of that ladder (Caracciolo–Hartmann–Kirkpatrick–Weigel, arXiv:2301.00683):
//! K chains, one pinned to each rung of the [`Schedule`],
//! advance independently and periodically attempt to *swap configurations*
//! between adjacent rungs, so a configuration trapped at a cold rung can
//! escape through the hot end of the ladder.
//!
//! Each of the `k = g.temperatures()` rungs owns one chain (see
//! [`Annealer::replicas`] to rebuild the ladder). All chains start from the
//! same configuration and advance in lockstep *segments* of
//! `exchange_interval` proposals; after every segment a swap phase walks
//! adjacent rung pairs (alternating even/odd pairings round by round, so
//! every pair is attempted every other round) and swaps their
//! configurations with the standard parallel-tempering probability
//!
//! ```text
//! p = min(1, exp((1/T_i − 1/T_j) · (h_i − h_j)))
//! ```
//!
//! Within a chain, downhill moves are always accepted and uphill moves go
//! through [`GFunction::decide_figure2`] at the chain's own rung (the plain
//! ungated decision — replica exchange has no equilibrium counter; the swap
//! phases are what moves configurations across temperatures). The run
//! stops only on budget exhaustion.
//!
//! Determinism: each rung's chain draws from its own [`StdRng`] stream and
//! the swap phase from a dedicated stream, all derived from the chain's RNG
//! with [`derive_seed`]. Results therefore depend only on the seed — never on
//! thread count or scheduling of the surrounding harness.
//!
//! Stage events are emitted once per rung when the run finishes: every
//! rung but the coldest closes with [`AdvanceReason::Exchange`] (its
//! segments were bounded by swap phases), the coldest mirrors the run's
//! [`StopReason`].
//!
//! # Examples
//!
//! ```
//! use anneal_core::{Annealer, Budget, GFunction, NoopObserver, Problem, Rng, RngExt, Strategy};
//!
//! struct MinimizeBits;
//! impl Problem for MinimizeBits {
//!     type State = u64;
//!     type Move = u32;
//!     fn random_state(&self, rng: &mut dyn Rng) -> u64 {
//!         rng.random_range(0..1 << 16)
//!     }
//!     fn cost(&self, s: &u64) -> f64 {
//!         s.count_ones() as f64
//!     }
//!     fn propose(&self, _: &u64, rng: &mut dyn Rng) -> u32 {
//!         rng.random_range(0..16)
//!     }
//!     fn apply(&self, s: &mut u64, m: &u32) {
//!         *s ^= 1 << m;
//!     }
//! }
//!
//! let result = Annealer::new(&MinimizeBits)
//!     .strategy(Strategy::ReplicaExchange { exchange_interval: 64 })
//!     .budget(Budget::evaluations(30_000))
//!     .seed(5)
//!     .run(&mut GFunction::six_temp_annealing(2.0), &mut NoopObserver);
//! assert_eq!(result.best_cost, 0.0);
//! ```

use rand::{rngs::StdRng, Rng, RngExt, SeedableRng};

use crate::accept::{GFunction, KIRKPATRICK_RATIO};
use crate::annealer::Annealer;
use crate::budget::Meter;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::seeds::derive_seed;
use crate::stats::{AdvanceReason, RunResult, RunStats, StopReason, TempStats};
use crate::trace::ChainObserver;

/// Default number of within-chain steps between swap phases.
pub const DEFAULT_EXCHANGE_INTERVAL: u64 = 64;

/// One rung's chain: its configuration, cost, RNG stream and counters.
struct Replica<S> {
    state: S,
    cost: f64,
    rng: StdRng,
    stats: TempStats,
    wall: std::time::Duration,
}

/// Runs the ladder from `start`, attempting swaps every `exchange_interval`
/// within-chain proposals (clamped to at least 1), until the budget is
/// exhausted.
pub(crate) fn run<P: Problem, O: ChainObserver>(
    a: &Annealer<'_, P>,
    exchange_interval: u64,
    g: &mut GFunction,
    start: P::State,
    rng: &mut dyn Rng,
    obs: &mut O,
) -> RunResult<P::State> {
    let problem = a.problem;
    if let Some(k) = a.replicas {
        // One chain per rung of a k-rung geometric ladder grown from g's own
        // top temperature.
        let top = g.schedule().value(0);
        *g = g
            .clone()
            .with_schedule(Schedule::geometric(top, KIRKPATRICK_RATIO, k));
    }
    g.reset();
    let k = g.temperatures();
    let interval = exchange_interval.max(1);
    let initial_cost = problem.cost(&start);

    // One child stream per rung plus one for the swap decisions, all
    // derived from a single draw on the caller's RNG: replica advance
    // order can never leak into the random streams.
    let base = rng.next_u64();
    let mut swap_rng = StdRng::seed_from_u64(derive_seed(base, 0));
    let mut replicas: Vec<Replica<P::State>> = (0..k)
        .map(|r| Replica {
            state: start.clone(),
            cost: initial_cost,
            rng: StdRng::seed_from_u64(derive_seed(base, r as u64 + 1)),
            stats: TempStats {
                temp: r,
                temperature: g.schedule().value(r),
                target_acceptance: f64::NAN,
                evals: 0,
                proposals: 0,
                accepted_downhill: 0,
                accepted_uphill: 0,
                rejected_uphill: 0,
                swap_attempts: 0,
                swap_accepts: 0,
                ended_by: AdvanceReason::Exchange,
            },
            wall: std::time::Duration::ZERO,
        })
        .collect();

    let mut meter = Meter::new(a.budget);
    let mut total_evals = 0u64;
    let mut last_sample = 0u64;
    let mut best_state = start;
    let mut best_cost = initial_cost;
    let mut stats = RunStats::default();
    if O::ENABLED {
        obs.on_run_start(initial_cost, k);
    }

    let mut round = 0usize;
    'run: loop {
        // Advance each rung's chain one segment.
        for replica in replicas.iter_mut() {
            let stage_started = if O::ENABLED {
                Some(std::time::Instant::now())
            } else {
                None
            };
            for _ in 0..interval {
                if meter.exhausted() {
                    if O::ENABLED {
                        if let Some(t) = stage_started {
                            replica.wall += t.elapsed();
                        }
                    }
                    break 'run;
                }
                let mv = problem.propose(&replica.state, &mut replica.rng);
                replica.stats.proposals += 1;
                problem.apply(&mut replica.state, &mv);
                let new_cost = problem.cost(&replica.state);
                meter.charge(1);
                replica.stats.evals += 1;
                total_evals += 1;

                if new_cost < replica.cost {
                    replica.cost = new_cost;
                    replica.stats.accepted_downhill += 1;
                } else if g.decide_figure2(
                    replica.stats.temp,
                    replica.cost,
                    new_cost,
                    &mut replica.rng,
                ) {
                    replica.cost = new_cost;
                    replica.stats.accepted_uphill += 1;
                } else {
                    problem.undo(&mut replica.state, &mv);
                    replica.stats.rejected_uphill += 1;
                }
                if replica.cost < best_cost {
                    best_cost = replica.cost;
                    best_state = replica.state.clone();
                    if O::ENABLED {
                        obs.on_best(total_evals, best_cost);
                    }
                }
                if a.trajectory_every > 0 && total_evals - last_sample >= a.trajectory_every {
                    last_sample = total_evals;
                    stats.trajectory.push((total_evals, best_cost));
                }
            }
            if O::ENABLED {
                if let Some(t) = stage_started {
                    replica.wall += t.elapsed();
                }
            }
        }

        // Swap phase: adjacent pairs, alternating parity round by round.
        for lo in ((round % 2)..k.saturating_sub(1)).step_by(2) {
            let t_lo = g.schedule().value(lo);
            let t_hi = g.schedule().value(lo + 1);
            let h_lo = replicas[lo].cost;
            let h_hi = replicas[lo + 1].cost;
            replicas[lo].stats.swap_attempts += 1;
            let delta = (1.0 / t_lo - 1.0 / t_hi) * (h_lo - h_hi);
            // min(1, e^delta): draw unconditionally so the swap stream
            // stays in lockstep with the attempt sequence.
            let r = swap_rng.random_range(0.0..1.0);
            if delta >= 0.0 || r < delta.exp() {
                replicas[lo].stats.swap_accepts += 1;
                let (a, b) = replicas.split_at_mut(lo + 1);
                std::mem::swap(&mut a[lo].state, &mut b[0].state);
                std::mem::swap(&mut a[lo].cost, &mut b[0].cost);
            }
        }
        round += 1;

        if O::ENABLED {
            let coldest = replicas
                .iter()
                .map(|r| r.cost)
                .fold(f64::INFINITY, f64::min);
            obs.on_energy(total_evals, coldest);
        }
    }

    // The run only ever stops on budget exhaustion: there is no
    // equilibrium counter, the swap phases keep every chain live.
    let stop = StopReason::Budget;
    let final_cost = replicas.last().map_or(initial_cost, |r| r.cost);
    if let Some(last) = replicas.last_mut() {
        last.stats.ended_by = AdvanceReason::Budget;
    }
    for replica in &replicas {
        stats.evals += replica.stats.evals;
        stats.proposals += replica.stats.proposals;
        stats.accepted_downhill += replica.stats.accepted_downhill;
        stats.accepted_uphill += replica.stats.accepted_uphill;
        stats.rejected_uphill += replica.stats.rejected_uphill;
        if O::ENABLED {
            obs.on_stage(&replica.stats, replica.wall);
        }
        stats.per_temp.push(replica.stats);
    }
    if O::ENABLED {
        obs.on_stop(stop, total_evals, final_cost, best_cost);
    }
    RunResult {
        best_state,
        best_cost,
        initial_cost,
        final_cost,
        stop,
        stats,
    }
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

    /// A replica-exchange chain on [`BitCount`] swapping every `interval`
    /// proposals.
    fn ladder(interval: u64, budget: u64, seed: u64) -> Annealer<'static, BitCount> {
        let mut a = Annealer::new(&BitCount);
        a.strategy(Strategy::ReplicaExchange {
            exchange_interval: interval,
        })
        .budget(Budget::evaluations(budget))
        .seed(seed);
        a
    }

    fn run_with(g: &mut GFunction, budget: u64, seed: u64) -> RunResult<u64> {
        ladder(32, budget, seed).run(g, &mut NoopObserver)
    }

    #[test]
    fn solves_bitcount_over_a_six_rung_ladder() {
        let mut g = GFunction::six_temp_annealing(2.0);
        let r = run_with(&mut g, 60_000, 1);
        assert_eq!(r.best_cost, 0.0, "the ladder should zero 20 bits");
        assert_eq!(r.stop, StopReason::Budget);
        assert_eq!(r.stats.per_temp.len(), 6, "one stage per rung");
    }

    #[test]
    fn budget_is_respected_exactly() {
        let mut g = GFunction::six_temp_annealing(2.0);
        let r = run_with(&mut g, 777, 3);
        assert_eq!(r.stats.evals, 777, "evaluation budgets are exact");
    }

    #[test]
    fn swaps_are_attempted_and_counted_per_rung() {
        let mut g = GFunction::six_temp_annealing(2.0);
        let r = run_with(&mut g, 20_000, 5);
        let attempts: u64 = r.stats.per_temp.iter().map(|t| t.swap_attempts).sum();
        let accepts: u64 = r.stats.per_temp.iter().map(|t| t.swap_accepts).sum();
        assert!(attempts > 0, "swap phases ran");
        assert!(accepts <= attempts);
        // The coldest rung is never the lower member of a pair beyond k-2.
        assert_eq!(r.stats.per_temp[5].swap_attempts, 0);
        // Alternating parity: both even and odd pairs get attempts.
        assert!(r.stats.per_temp[0].swap_attempts > 0);
        assert!(r.stats.per_temp[1].swap_attempts > 0);
    }

    #[test]
    fn stage_reasons_mark_exchange_segments() {
        let mut g = GFunction::six_temp_annealing(2.0);
        let r = run_with(&mut g, 5_000, 7);
        for stage in &r.stats.per_temp[..5] {
            assert_eq!(stage.ended_by, AdvanceReason::Exchange);
        }
        assert_eq!(r.stats.per_temp[5].ended_by, AdvanceReason::Budget);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut g1 = GFunction::six_temp_annealing(2.0);
        let mut g2 = GFunction::six_temp_annealing(2.0);
        let a = run_with(&mut g1, 8_000, 9);
        let b = run_with(&mut g2, 8_000, 9);
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        assert_eq!(a.final_cost.to_bits(), b.final_cost.to_bits());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn single_rung_ladder_degenerates_to_metropolis_chain() {
        let mut g = GFunction::metropolis(0.5);
        let r = run_with(&mut g, 30_000, 11);
        assert_eq!(r.stats.per_temp.len(), 1);
        assert_eq!(r.stats.per_temp[0].swap_attempts, 0);
        assert_eq!(r.best_cost, 0.0);
    }

    #[test]
    fn trajectory_sampling_records_monotone_best() {
        let r = ladder(16, 10_000, 17)
            .trajectory(500)
            .run(&mut GFunction::six_temp_annealing(2.0), &mut NoopObserver);
        assert!(!r.stats.trajectory.is_empty());
        for w in r.stats.trajectory.windows(2) {
            assert!(w[0].0 < w[1].0, "eval counts increase");
            assert!(w[0].1 >= w[1].1, "best cost never worsens");
        }
    }

    #[test]
    fn stats_balance_per_rung() {
        let mut g = GFunction::six_temp_annealing(2.0);
        let r = run_with(&mut g, 6_000, 13);
        for t in &r.stats.per_temp {
            assert_eq!(
                t.proposals,
                t.accepted_downhill + t.accepted_uphill + t.rejected_uphill,
                "rung {}: no proposal is ever dropped",
                t.temp
            );
            assert_eq!(t.evals, t.proposals);
        }
        let per_rung: u64 = r.stats.per_temp.iter().map(|t| t.evals).sum();
        assert_eq!(per_rung, r.stats.evals);
    }
}

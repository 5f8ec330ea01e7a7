//! The control strategies, one module each: the paper's two and two later
//! ones. A chain is configured and started through
//! [`Annealer`](crate::Annealer), whose [`Strategy`](crate::Strategy) picks
//! the module that runs it.
//!
//! * [`fig1`] — the Metropolis/Kirkpatrick adaptation: random
//!   perturbations, downhill always accepted, uphill accepted with
//!   probability `g_temp`, equilibrium counter advancing the temperature.
//! * [`fig2`] — the Cohoon/Sahni variant: descend to a local optimum
//!   first, then attempt uphill kicks.
//! * [`rejectionless`] — the Greene/Supowit \[GREE84\] variant discussed in
//!   §2: weigh every neighbor and sample one, so no step is wasted on a
//!   rejection (at the cost of evaluating the whole neighborhood).
//! * [`replica_exchange`] — parallel tempering: one chain per temperature
//!   rung, coupled by periodic configuration swaps between adjacent rungs.
//!
//! All strategies charge every cost evaluation against a shared
//! [`Budget`] split evenly over the temperature schedule, so
//! methods can be compared at equal computational cost (§3).

pub mod fig1;
pub mod fig2;
pub mod rejectionless;
pub mod replica_exchange;

pub use replica_exchange::DEFAULT_EXCHANGE_INTERVAL;

use std::time::Instant;

use crate::accept::GFunction;
use crate::budget::{Budget, Meter};
use crate::problem::Problem;
use crate::schedule::adaptive::AcceptanceController;
use crate::stats::{AdvanceReason, RunResult, RunStats, StopReason, TempStats};
use crate::trace::ChainObserver;

/// Default equilibrium counter limit `n` (the paper states the mechanism but
/// not the constant; see DESIGN.md).
pub const DEFAULT_EQUILIBRIUM: u64 = 250;

/// Shared bookkeeping for a strategy run: per-temperature metering, best-state
/// tracking and statistics.
pub(crate) struct Run<P: Problem> {
    pub stats: RunStats,
    pub meter: Meter,
    per_temp: Budget,
    pub temp: usize,
    k: usize,
    pub counter: u64,
    pub best_state: P::State,
    pub best_cost: f64,
    /// Cumulative-counter snapshot at the start of the current temperature
    /// stage, for the per-temperature breakdown.
    stage_mark: StageMark,
    /// The temperature value the current stage runs at, recorded into its
    /// [`TempStats`]; `NaN` when the strategy has none (e.g. rejectionless
    /// freezing past the schedule, or strategies that never set it).
    pub stage_temperature: f64,
    /// The adaptive controller's acceptance target for the current stage;
    /// `NaN` when no controller is attached.
    pub stage_target: f64,
    /// Start of the current temperature stage; populated only when the run
    /// has an enabled [`ChainObserver`] (untraced runs never read the clock).
    stage_started: Option<Instant>,
}

/// Snapshot of the cumulative counters at a temperature boundary.
#[derive(Debug, Clone, Copy, Default)]
struct StageMark {
    evals: u64,
    proposals: u64,
    accepted_downhill: u64,
    accepted_uphill: u64,
    rejected_uphill: u64,
}

impl<P: Problem> Run<P> {
    /// `traced` is the caller's `O::ENABLED`: it decides whether stage wall
    /// times are measured at all.
    pub fn new(budget: Budget, k: usize, start: &P::State, cost: f64, traced: bool) -> Self {
        let per_temp = budget.split(k);
        Run {
            stats: RunStats::default(),
            meter: Meter::new(per_temp),
            per_temp,
            temp: 0,
            k,
            counter: 0,
            best_state: start.clone(),
            best_cost: cost,
            stage_mark: StageMark::default(),
            stage_temperature: f64::NAN,
            stage_target: f64::NAN,
            stage_started: if traced { Some(Instant::now()) } else { None },
        }
    }

    /// Records the temperature (and, with a `controller`, the acceptance
    /// target) of the stage just entered, applying the controller's feedback
    /// correction to the g function first. Figure-1/Figure-2 call this at
    /// run start and after every temperature advance.
    ///
    /// The correction is pure arithmetic over already-collected statistics —
    /// it never draws randomness — so runs stay bitwise deterministic.
    pub fn enter_stage(&mut self, g: &mut GFunction, controller: Option<&AcceptanceController>) {
        if let Some(c) = controller {
            self.stage_target = c.target(self.temp, self.k);
            if let Some(prev) = self.stats.per_temp.last() {
                let planned = g.schedule().value(self.temp);
                let corrected = c.adjust(planned, prev.acceptance_rate(), prev.target_acceptance);
                g.set_temperature(self.temp, corrected);
            }
        }
        self.stage_temperature = g.schedule().value(self.temp);
    }

    /// Charges `n` evaluations.
    pub fn charge(&mut self, n: u64) {
        self.meter.charge(n);
        self.stats.evals += n;
    }

    /// Records a new best state if `cost` improves on the incumbent.
    pub fn observe<O: ChainObserver>(&mut self, state: &P::State, cost: f64, obs: &mut O) {
        if cost < self.best_cost {
            self.best_cost = cost;
            self.best_state.clone_from(state);
            if O::ENABLED {
                obs.on_best(self.stats.evals, cost);
            }
        }
    }

    /// Advances to the next temperature if one remains, resetting the
    /// equilibrium counter and the per-temperature meter. Returns `false`
    /// when already at the last temperature (the caller stops the run).
    pub fn advance_temp<O: ChainObserver>(&mut self, due_to_budget: bool, obs: &mut O) -> bool {
        let reason = if due_to_budget {
            AdvanceReason::Budget
        } else {
            AdvanceReason::Equilibrium
        };
        if self.temp + 1 >= self.k {
            return false;
        }
        self.close_stage(reason, obs);
        self.temp += 1;
        self.counter = 0;
        self.meter = Meter::new(self.per_temp);
        if due_to_budget {
            self.stats.budget_advances += 1;
        } else {
            self.stats.equilibrium_advances += 1;
        }
        true
    }

    /// Records the finished temperature stage as the delta between the
    /// cumulative counters and the last boundary snapshot, reporting it (with
    /// its wall time) to the observer.
    fn close_stage<O: ChainObserver>(&mut self, ended_by: AdvanceReason, obs: &mut O) {
        let mark = self.stage_mark;
        let entry = TempStats {
            temp: self.temp,
            temperature: self.stage_temperature,
            target_acceptance: self.stage_target,
            evals: self.stats.evals - mark.evals,
            proposals: self.stats.proposals - mark.proposals,
            accepted_downhill: self.stats.accepted_downhill - mark.accepted_downhill,
            accepted_uphill: self.stats.accepted_uphill - mark.accepted_uphill,
            rejected_uphill: self.stats.rejected_uphill - mark.rejected_uphill,
            swap_attempts: 0,
            swap_accepts: 0,
            ended_by,
        };
        if O::ENABLED {
            let wall = self.stage_started.map(|t| t.elapsed()).unwrap_or_default();
            obs.on_stage(&entry, wall);
            self.stage_started = Some(Instant::now());
        }
        self.stats.per_temp.push(entry);
        self.stage_mark = StageMark {
            evals: self.stats.evals,
            proposals: self.stats.proposals,
            accepted_downhill: self.stats.accepted_downhill,
            accepted_uphill: self.stats.accepted_uphill,
            rejected_uphill: self.stats.rejected_uphill,
        };
    }

    /// Closes the final temperature stage and assembles the [`RunResult`].
    /// Every strategy ends its run through here so the per-temperature
    /// breakdown always covers the whole run.
    pub fn finish<O: ChainObserver>(
        mut self,
        stop: StopReason,
        initial_cost: f64,
        final_cost: f64,
        obs: &mut O,
    ) -> RunResult<P::State> {
        let ended_by = match stop {
            StopReason::Budget => AdvanceReason::Budget,
            StopReason::Equilibrium => AdvanceReason::Equilibrium,
        };
        self.close_stage(ended_by, obs);
        if O::ENABLED {
            obs.on_stop(stop, self.stats.evals, final_cost, self.best_cost);
        }
        RunResult {
            best_state: self.best_state,
            best_cost: self.best_cost,
            initial_cost,
            final_cost,
            stop,
            stats: self.stats,
        }
    }
}

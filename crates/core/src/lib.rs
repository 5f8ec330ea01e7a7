#![warn(missing_docs)]

//! # anneal-core
//!
//! A Monte Carlo optimization framework reproducing the machinery of
//! S. Nahar, S. Sahni and E. Shragowitz, *"Experiments with simulated
//! annealing"*, 22nd Design Automation Conference, 1985.
//!
//! The paper compares classic simulated annealing against 19 other
//! acceptance-function ("g function") classes under two control strategies,
//! at equal computational cost. This crate provides:
//!
//! * the [`Problem`] trait — plug in any combinatorial optimization problem
//!   with a random-perturbation neighborhood;
//! * the paper's two control strategies, Figure 1 (Metropolis/Kirkpatrick
//!   chain) and Figure 2 (local-opt-then-kick, after Cohoon & Sahni), plus
//!   rejectionless \[GREE84\] and replica exchange — each a [`Strategy`]
//!   of the one chain runner, [`Annealer`];
//! * all 20 acceptance-function classes of §3 plus the \[COHO83a\] baseline,
//!   as [`GFunction`] constructors;
//! * temperature [`Schedule`]s (single, geometric/Kirkpatrick, uniform/GOLD84);
//! * equal-cost comparison via [`Budget`]s counted in cost evaluations;
//! * a §4.2.1-style temperature [`tune::Tuner`];
//! * plain local search and the time-equalized [`multistart`](local::multistart)
//!   baseline protocol of \[LIN73\]/\[GOLD84\].
//!
//! # Quick start
//!
//! ```
//! use anneal_core::{Annealer, Budget, GFunction, NoopObserver, Problem, Rng, RngExt, Strategy};
//!
//! // Minimize the number of set bits in a word by flipping random bits.
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
//! // The paper's headline method: g = 1 — no temperatures to tune.
//! let result = Annealer::new(&MinimizeBits)
//!     .strategy(Strategy::Figure1)
//!     .budget(Budget::evaluations(30_000))
//!     .seed(1985)
//!     .run(&mut GFunction::unit(), &mut NoopObserver);
//! assert_eq!(result.best_cost, 0.0);
//! ```
//!
//! # End to end: problem → schedule → strategy → statistics
//!
//! The full pipeline for a temperature-bearing method: measure the
//! problem's delta statistics, derive a schedule from them (here the
//! adaptive acceptance-ratio family of [`schedule::adaptive`] — a
//! [`white84_schedule`] or the §4.2.1 [`tune::Tuner`] slot in the same
//! way), run a strategy, then read the per-temperature [`TempStats`]:
//!
//! ```
//! use anneal_core::schedule::adaptive;
//! use anneal_core::{
//!     Annealer, Budget, GFunction, NoopObserver, Problem, Rng, RngExt, Strategy,
//!     estimate_delta_stats,
//! };
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 1. The problem: minimize set bits in a word by flipping random bits.
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
//! // 2. The schedule: probe the move-delta distribution, then derive a
//! //    six-temperature adaptive schedule (probe cost is reported so
//! //    equal-budget comparisons can charge it).
//! let mut rng = StdRng::seed_from_u64(7);
//! let stats = estimate_delta_stats(&MinimizeBits, 128, &mut rng);
//! let spec = adaptive::derive(&stats, adaptive::AdaptiveMode::Acceptance, 6, 128);
//!
//! // 3. The strategy: classic Boltzmann acceptance on that schedule, with
//! //    the feedback controller correcting each stage's temperature.
//! let mut g = GFunction::annealing(spec.schedule.clone());
//! let result = Annealer::new(&MinimizeBits)
//!     .strategy(Strategy::Figure1)
//!     .budget(Budget::evaluations(30_000 - spec.probe_evals))
//!     .seed(1985)
//!     .controller(spec.controller)
//!     .run(&mut g, &mut NoopObserver);
//!
//! // 4. The statistics: one TempStats per stage entered, recording the
//! //    controlled temperature and the acceptance rate it produced.
//! assert!(!result.stats.per_temp.is_empty());
//! for stage in &result.stats.per_temp {
//!     assert!(stage.temperature > 0.0);
//!     assert!(stage.acceptance_rate() <= 1.0);
//! }
//! assert_eq!(result.best_cost, 0.0);
//! ```

pub mod accept;
mod annealer;
mod budget;
pub mod json;
pub mod local;
pub mod metrics;
mod problem;
mod range;
pub mod schedule;
mod seeds;
mod stats;
pub mod strategy;
pub mod telemetry;
pub mod trace;
pub mod tune;
pub mod watchdog;

pub use accept::{Form, GFunction, Gate, KIRKPATRICK_RATIO, PAPER_GATE_PERIOD};
pub use annealer::{Annealer, Strategy};
pub use budget::{Budget, Meter};
pub use problem::Problem;
pub use range::{estimate_delta_stats, white84_schedule, DeltaStats};
pub use schedule::adaptive::{AcceptanceController, AdaptiveMode, AdaptiveSchedule};
pub use schedule::Schedule;
pub use seeds::derive_seed;
pub use stats::{AdvanceReason, RunResult, RunStats, StopReason, TempStats};
pub use strategy::{DEFAULT_EQUILIBRIUM, DEFAULT_EXCHANGE_INTERVAL};
pub use telemetry::RunTelemetry;
pub use trace::{
    ChainObserver, ChainTrace, NoopObserver, StageTrace, StopTrace, TraceCollector,
    DEFAULT_TRACE_SAMPLES,
};
pub use tune::{CandidateOutcome, TuneReport, Tuner};

// Re-export the rand traits that appear in this crate's public API so
// downstream crates need not depend on a matching rand version explicitly.
pub use rand::{Rng, RngExt};

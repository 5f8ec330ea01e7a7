#![warn(missing_docs)]

//! # annealbench
//!
//! A full reproduction of S. Nahar, S. Sahni and E. Shragowitz,
//! *"Experiments with simulated annealing"*, 22nd Design Automation
//! Conference (DAC), 1985 — the classic study showing that simulated
//! annealing is just one of many Monte Carlo acceptance rules, and that the
//! trivial rule `g = 1` matches tuned six-temperature annealing on circuit
//! linear-arrangement problems.
//!
//! This crate re-exports the whole workspace:
//!
//! * [`core`] — the Monte Carlo optimization framework: the [`Problem`]
//!   trait, the Figure-1/Figure-2 strategies, all 20 acceptance-function
//!   classes, schedules, budgets, and the temperature tuner.
//! * [`netlist`] — circuit netlists and random instance generators.
//! * [`linarr`] — GOLA/NOLA linear arrangement with incremental density
//!   evaluation and the Goto constructive heuristic.
//! * [`partition`] — balanced two-way partitioning with a Kernighan–Lin
//!   baseline.
//! * [`tsp`] — Euclidean TSP with 2-opt moves and classical
//!   constructives.
//! * [`experiments`] — runners regenerating every table in the paper.
//!
//! # Quick start
//!
//! ```
//! use annealbench::{
//!     core::{Annealer, Budget, GFunction, NoopObserver},
//!     linarr::LinearArrangementProblem,
//!     netlist::generator::random_two_pin,
//! };
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1985);
//! let netlist = random_two_pin(15, 150, &mut rng);
//! let problem = LinearArrangementProblem::new(netlist);
//!
//! let result = Annealer::new(&problem)
//!     .budget(Budget::evaluations(30_000))
//!     .seed(42)
//!     .run(&mut GFunction::unit(), &mut NoopObserver);
//! println!(
//!     "density {} → {}",
//!     result.initial_cost, result.best_cost
//! );
//! # assert!(result.best_cost <= result.initial_cost);
//! ```

pub use anneal_core as core;
pub use anneal_experiments as experiments;
pub use anneal_linarr as linarr;
pub use anneal_netlist as netlist;
pub use anneal_partition as partition;
pub use anneal_tsp as tsp;

// Convenience re-exports of the most-used types at the crate root.
pub use anneal_core::{
    Annealer, Budget, GFunction, NoopObserver, Problem, RunResult, Schedule, Strategy,
};
pub use anneal_linarr::{goto_arrangement, LinearArrangementProblem};
pub use anneal_partition::PartitionProblem;
pub use anneal_tsp::TspProblem;

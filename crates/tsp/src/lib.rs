#![warn(missing_docs)]

//! # anneal-tsp
//!
//! The Euclidean traveling-salesperson substrate for the DAC 1985
//! reproduction's extension experiments (§2 discusses \[GOLD84\]'s
//! SA-vs-heuristics TSP study; the paper's own TSP experiments live in the
//! \[NAHA84\] technical report it summarizes).
//!
//! Provides instances with precomputed distance matrices ([`TspInstance`]),
//! tours with O(1) 2-opt deltas ([`Tour`]), the
//! [`anneal_core::Problem`] implementation ([`TspProblem`]), and the
//! classical baselines: [`nearest_neighbor`], Stewart-style
//! [`hull_cheapest_insertion`], and [`two_opt_descent`] (combine with
//! [`anneal_core::local::multistart`] for the time-equalized \[LIN73\]
//! protocol).
//!
//! # Examples
//!
//! ```
//! use anneal_core::{local::multistart, Annealer, Budget, GFunction, NoopObserver};
//! use anneal_tsp::{TspInstance, TspProblem};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(84);
//! let problem = TspProblem::new(TspInstance::random_euclidean(30, &mut rng));
//!
//! // Simulated annealing…
//! let sa = Annealer::new(&problem)
//!     .budget(Budget::evaluations(20_000))
//!     .run(&mut GFunction::six_temp_annealing(0.3), &mut NoopObserver);
//!
//! // …vs time-equalized multistart 2-opt (\[GOLD84\]'s protocol).
//! let mut rng2 = StdRng::seed_from_u64(85);
//! let lin = multistart(&problem, Budget::evaluations(20_000), &mut rng2);
//!
//! assert!(sa.best_cost > 0.0 && lin.best_cost > 0.0);
//! ```

mod construct;
mod instance;
mod problem;
mod tour;

pub use construct::{hull_cheapest_insertion, nearest_neighbor, two_opt_descent};
pub use instance::TspInstance;
pub use problem::{TourMove, TspProblem};
pub use tour::Tour;

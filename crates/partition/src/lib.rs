#![warn(missing_docs)]

//! # anneal-partition
//!
//! Balanced two-way circuit partitioning: the problem Kirkpatrick, Gelatt
//! and Vecchi annealed with the `Y₁ = 10, Y_i = 0.9·Y_{i-1}` schedule the
//! DAC 1985 paper quotes in §1, and one of the two extension problems the
//! paper's conclusion points to (\[NAHA84\]).
//!
//! Provides the [`anneal_core::Problem`] implementation with incremental
//! net-cut maintenance and balance-preserving swap moves
//! ([`PartitionProblem`]), plus two classical deterministic baselines:
//! [`kernighan_lin`] (clique-model pair swaps) and [`fiduccia_mattheyses`]
//! (net-cut-native single-element moves).
//!
//! # Examples
//!
//! ```
//! use anneal_core::{Annealer, Budget, GFunction, NoopObserver};
//! use anneal_netlist::generator::random_two_pin;
//! use anneal_partition::{kernighan_lin, PartitionProblem, PartitionState};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let netlist = random_two_pin(20, 80, &mut rng);
//!
//! // Deterministic baseline…
//! let kl = kernighan_lin(&netlist, PartitionState::split_first_half(&netlist));
//!
//! // …versus simulated annealing at Kirkpatrick's schedule.
//! let problem = PartitionProblem::new(netlist);
//! let sa = Annealer::new(&problem)
//!     .budget(Budget::evaluations(20_000))
//!     .run(&mut GFunction::six_temp_annealing(10.0), &mut NoopObserver);
//!
//! assert!(sa.best_cost >= 0.0 && kl.state.cut() < u32::MAX);
//! ```

mod fm;
mod kl;
mod problem;
mod state;

pub use fm::{fiduccia_mattheyses, FmOutcome};
pub use kl::{kernighan_lin, KlOutcome};
pub use problem::{PartitionProblem, SwapMove};
pub use state::PartitionState;

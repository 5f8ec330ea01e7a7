#![warn(missing_docs)]

//! # anneal-linarr
//!
//! The optimal linear arrangement problems of the DAC 1985 paper:
//!
//! * **NOLA** — net optimal linear arrangement: order `n` circuit elements
//!   to minimize the *density*, the maximum number of nets crossing between
//!   any pair of adjacent elements (§4.1);
//! * **GOLA** — the special case where every net connects exactly two
//!   elements (§4.2).
//!
//! The crate provides the permutation state with **incremental** cut-density
//! evaluation ([`ArrangedState`]), which scores a swap on the count of nets
//! between each pair of elements for a two-pin netlist, and otherwise on
//! per-net position masks or, for a few elements with many pins, on
//! per-position net rows ([`Layout`]), the [`anneal_core::Problem`]
//! implementation with the paper's pairwise-interchange neighborhood
//! ([`LinearArrangementProblem`]), and the constructive baseline of
//! \[GOTO77\] ([`goto_arrangement`]).
//!
//! # Examples
//!
//! ```
//! use anneal_core::{Annealer, Budget, GFunction, NoopObserver, Strategy};
//! use anneal_linarr::{goto_arrangement, LinearArrangementProblem};
//! use anneal_netlist::generator::random_two_pin;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1985);
//! let netlist = random_two_pin(15, 150, &mut rng);
//!
//! // Construct with Goto, then polish with g = 1 (Table 4.2(a) protocol).
//! let start = goto_arrangement(&netlist);
//! let problem = LinearArrangementProblem::new(netlist);
//! let result = Annealer::new(&problem)
//!     .strategy(Strategy::Figure1)
//!     .budget(Budget::evaluations(30_000))
//!     .start_from(problem.state_from(start))
//!     .run(&mut GFunction::unit(), &mut NoopObserver);
//! assert!(result.best_cost <= result.initial_cost);
//! ```

mod arrangement;
mod density;
mod goto;
mod problem;
mod state;

pub use arrangement::Arrangement;
pub use density::CutProfile;
pub use goto::goto_arrangement;
pub use problem::{LinearArrangementProblem, Swap};
pub use state::{ArrangedState, Layout};

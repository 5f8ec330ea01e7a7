#![warn(missing_docs)]

//! # anneal-netlist
//!
//! The circuit substrate for the DAC 1985 reproduction: elements connected
//! by multi-pin nets, random instance generators matching the paper's test
//! sets, and summary statistics.
//!
//! # Examples
//!
//! ```
//! use anneal_netlist::{generator::random_two_pin, NetlistStats};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // One of the paper's GOLA instances: 15 elements, 150 two-pin nets.
//! let mut rng = StdRng::seed_from_u64(1985);
//! let instance = random_two_pin(15, 150, &mut rng);
//! let stats = NetlistStats::of(&instance);
//! assert_eq!(stats.mean_degree, 20.0);
//! ```

pub mod generator;
mod model;
mod stats;

pub use model::{BuildNetlistError, Netlist, NetlistBuilder};
pub use stats::NetlistStats;

#![warn(missing_docs)]

//! # anneal-experiments
//!
//! The experiment harness regenerating every table of Nahar, Sahni &
//! Shragowitz, *"Experiments with simulated annealing"* (DAC 1985), plus the
//! extension comparisons the paper's §5 points to.
//!
//! | Experiment | Runner | `repro` subcommand |
//! |---|---|---|
//! | §4.2.1 temperature tuning | [`tuning::run`] | `tuning` |
//! | Table 4.1 (GOLA, random starts) | [`tables::table4_1::run`] | `table4.1` |
//! | Table 4.2(a) (GOLA from Goto) | [`tables::table4_2a::run`] | `table4.2a` |
//! | Table 4.2(b) (Figure 1 vs 2) | [`tables::table4_2b::run`] | `table4.2b` |
//! | Table 4.2(c) (NOLA, random starts) | [`tables::table4_2c::run`] | `table4.2c` |
//! | Table 4.2(d) (NOLA from Goto) | [`tables::table4_2d::run`] | `table4.2d` |
//! | Adaptive schedules vs the §4.2.1 sweep | [`tables::adaptive::run`] | `adaptive` |
//! | Circuit partition extension | [`ext_partition::run`] | `partition` |
//! | TSP extension | [`ext_tsp::run`] | `tsp` |
//! | Design-choice ablations | [`ablation`] | `ablation` |
//! | Convergence trajectories | [`trajectory::run`] | `trajectory` |
//! | Chain diagnostics | [`diagnostics::run`] | `diagnostics` |
//!
//! Budgets are expressed in paper-equivalent VAX 11/780 seconds
//! ([`vax_seconds`]); [`Scale`] divides them for faster approximate runs.
//!
//! # Examples
//!
//! ```no_run
//! use anneal_experiments::{tables::table4_1, SuiteConfig};
//!
//! // Paper-faithful Table 4.1 (takes a few minutes):
//! let table = table4_1::run(&SuiteConfig::paper());
//! println!("{table}");
//! ```

pub mod ablation;
pub mod bench;
mod budgetmap;
pub mod checkpoint;
pub mod cli;
mod config;
pub mod diagnostics;
pub mod exit_codes;
pub mod ext_partition;
pub mod ext_tsp;
pub mod faults;
mod instances;
pub mod jobs;
pub mod jsonl;
pub mod ops;
pub mod reporting;
mod roster;
mod runner;
pub mod scheduler;
pub mod supervisor;
mod table;
pub mod tables;
pub mod telemetry;
pub mod trace;
pub mod trajectory;
pub mod tuning;

pub use budgetmap::{
    vax_seconds, Scale, EVALS_PER_VAX_SECOND, NOLA_EVAL_COST, PAPER_SECONDS, PAPER_SECONDS_42B,
};
pub use checkpoint::{Checkpoint, WalMeta};
pub use config::SuiteConfig;
pub use faults::{ChaosWriter, FaultPlan};
pub use instances::{gola_paper_set, nola_paper_set, DEFAULT_SEED, NOLA_PIN_RANGE};
pub use jobs::{JobOutcome, JobServer, JobSpec, JobState};
pub use ops::OpsServer;
pub use roster::{
    full_roster, reduced_roster, replica_exchange_roster, MethodCtx, MethodSpec, TunedY,
};
pub use runner::{ArrangementSet, CellPolicy, RetryPolicy};
pub use supervisor::Supervisor;
pub use table::Table;
pub use telemetry::{
    CellFailure, CellKey, CellRecord, FailedCell, SuiteSummary, SupervisorEvent, TelemetryLog,
};
pub use trace::{CellTrace, TraceEvent, TraceMeta, TraceSink};

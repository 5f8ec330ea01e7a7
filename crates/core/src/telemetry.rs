//! Per-run telemetry: wall time, throughput and the per-temperature
//! acceptance/advance breakdown, in a form downstream harnesses can log.
//!
//! The strategies always collect the underlying counters (they are cheap:
//! one snapshot per temperature boundary); [`RunTelemetry::capture`] distils
//! them, with the wall time the caller measured, into a flat record.

use std::time::Duration;

use crate::stats::{RunResult, StopReason, TempStats};

/// A flat, strategy-independent summary of one run, suitable for logging.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTelemetry {
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Cost evaluations charged against the budget.
    pub evals: u64,
    /// Evaluations per wall-clock second (0 if the run was too fast to
    /// measure).
    pub evals_per_sec: f64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Cost of the starting state.
    pub initial_cost: f64,
    /// Best cost observed.
    pub best_cost: f64,
    /// Total reduction achieved (`initial_cost - best_cost`).
    pub reduction: f64,
    /// Overall acceptance rate (both directions).
    pub acceptance_rate: f64,
    /// Per-temperature breakdown (one entry per stage entered).
    pub per_temp: Vec<TempStats>,
}

impl RunTelemetry {
    /// Builds the telemetry record for `result`, which took `wall` of
    /// wall-clock time.
    pub fn capture<S>(result: &RunResult<S>, wall: Duration) -> Self {
        let secs = wall.as_secs_f64();
        RunTelemetry {
            wall,
            evals: result.stats.evals,
            evals_per_sec: if secs > 0.0 {
                result.stats.evals as f64 / secs
            } else {
                0.0
            },
            stop: result.stop,
            initial_cost: result.initial_cost,
            best_cost: result.best_cost,
            reduction: result.reduction(),
            acceptance_rate: result.stats.acceptance_rate(),
            per_temp: result.stats.per_temp.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunStats;

    fn result() -> RunResult<()> {
        RunResult {
            best_state: (),
            best_cost: 40.0,
            initial_cost: 100.0,
            final_cost: 45.0,
            stop: StopReason::Budget,
            stats: RunStats {
                evals: 5_000,
                proposals: 4_000,
                accepted_downhill: 600,
                accepted_uphill: 400,
                rejected_uphill: 3_000,
                ..RunStats::default()
            },
        }
    }

    #[test]
    fn capture_derives_rates() {
        let t = RunTelemetry::capture(&result(), Duration::from_millis(500));
        assert_eq!(t.evals, 5_000);
        assert!((t.evals_per_sec - 10_000.0).abs() < 1e-6);
        assert!((t.reduction - 60.0).abs() < 1e-12);
        assert!((t.acceptance_rate - 0.25).abs() < 1e-12);
        assert_eq!(t.stop, StopReason::Budget);
    }

    #[test]
    fn zero_duration_does_not_divide_by_zero() {
        let t = RunTelemetry::capture(&result(), Duration::ZERO);
        assert_eq!(t.evals_per_sec, 0.0);
    }
}

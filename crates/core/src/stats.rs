//! Run outcomes and instrumentation.

use std::fmt;
use std::str::FromStr;

/// Why a run (or a temperature stage) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The computation budget was exhausted.
    Budget,
    /// The equilibrium counter reached `n` at the last temperature
    /// (Figure 1 Step 4 / Figure 2 Step 4 with `temp = k`).
    Equilibrium,
}

impl StopReason {
    /// Stable lower-case name, used in telemetry and trace records.
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Budget => "budget",
            StopReason::Equilibrium => "equilibrium",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for StopReason {
    type Err = String;

    /// Parses the [`as_str`](Self::as_str) spelling back; used by the trace
    /// parser in the experiments crate.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "budget" => Ok(StopReason::Budget),
            "equilibrium" => Ok(StopReason::Equilibrium),
            other => Err(format!("unknown stop reason `{other}`")),
        }
    }
}

/// Why a temperature stage ended (the per-temperature analogue of
/// [`StopReason`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvanceReason {
    /// The stage's budget share ran out.
    Budget,
    /// The equilibrium counter reached `n`.
    Equilibrium,
    /// A replica-exchange swap phase closed the segment (parallel
    /// tempering; the chain stays on its rung, only configurations move).
    Exchange,
}

impl AdvanceReason {
    /// Stable lower-case name, used in telemetry and trace records.
    pub fn as_str(&self) -> &'static str {
        match self {
            AdvanceReason::Budget => "budget",
            AdvanceReason::Equilibrium => "equilibrium",
            AdvanceReason::Exchange => "exchange",
        }
    }
}

impl fmt::Display for AdvanceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for AdvanceReason {
    type Err = String;

    /// Parses the [`as_str`](Self::as_str) spelling back; used by the trace
    /// parser in the experiments crate.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "budget" => Ok(AdvanceReason::Budget),
            "equilibrium" => Ok(AdvanceReason::Equilibrium),
            "exchange" => Ok(AdvanceReason::Exchange),
            other => Err(format!("unknown advance reason `{other}`")),
        }
    }
}

/// Counters for one temperature stage of a run: the per-temperature
/// acceptance/advance breakdown behind [`RunStats`]'s aggregate counters.
///
/// The last entry's [`ended_by`](TempStats::ended_by) mirrors the run's
/// [`StopReason`]; earlier entries record why the stage advanced.
#[derive(Debug, Clone, Copy)]
pub struct TempStats {
    /// Temperature index (0-based position in the schedule).
    pub temp: usize,
    /// The temperature value the stage actually ran at. With an adaptive
    /// controller attached this is the *controlled* value, which can differ
    /// from the schedule as derived; `NaN` when the strategy has no
    /// meaningful single temperature for the stage.
    pub temperature: f64,
    /// The acceptance rate the adaptive controller targeted for this stage;
    /// `NaN` when no controller was attached.
    pub target_acceptance: f64,
    /// Cost evaluations charged during this stage.
    pub evals: u64,
    /// Perturbations proposed during this stage.
    pub proposals: u64,
    /// Downhill acceptances during this stage.
    pub accepted_downhill: u64,
    /// Uphill acceptances during this stage.
    pub accepted_uphill: u64,
    /// Uphill rejections during this stage.
    pub rejected_uphill: u64,
    /// Replica-exchange swaps attempted with this rung as the lower pair
    /// member (0 outside the replica-exchange strategy).
    pub swap_attempts: u64,
    /// Replica-exchange swaps accepted (subset of
    /// [`swap_attempts`](TempStats::swap_attempts)).
    pub swap_accepts: u64,
    /// Why the stage ended.
    pub ended_by: AdvanceReason,
}

// Equality compares the f64 fields *bitwise* (`to_bits`), so two runs that
// both record `NaN` (no controller attached) still compare equal — the
// determinism tests rely on `assert_eq!` over whole stats structures.
impl PartialEq for TempStats {
    fn eq(&self, other: &Self) -> bool {
        self.temp == other.temp
            && self.temperature.to_bits() == other.temperature.to_bits()
            && self.target_acceptance.to_bits() == other.target_acceptance.to_bits()
            && self.evals == other.evals
            && self.proposals == other.proposals
            && self.accepted_downhill == other.accepted_downhill
            && self.accepted_uphill == other.accepted_uphill
            && self.rejected_uphill == other.rejected_uphill
            && self.swap_attempts == other.swap_attempts
            && self.swap_accepts == other.swap_accepts
            && self.ended_by == other.ended_by
    }
}

// Reflexive even for NaN temperatures because comparison is bitwise.
impl Eq for TempStats {}

impl TempStats {
    /// Fraction of this stage's proposals accepted; 0 if none proposed.
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposals == 0 {
            0.0
        } else {
            (self.accepted_downhill + self.accepted_uphill) as f64 / self.proposals as f64
        }
    }
}

/// Counters collected during a strategy run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Cost evaluations charged against the budget (random perturbations plus
    /// local-search probes).
    pub evals: u64,
    /// Random perturbations proposed.
    pub proposals: u64,
    /// Perturbations accepted because they reduced cost.
    pub accepted_downhill: u64,
    /// Uphill (or flat) perturbations accepted by the g function.
    pub accepted_uphill: u64,
    /// Uphill perturbations rejected.
    pub rejected_uphill: u64,
    /// Temperature advances triggered by the equilibrium counter.
    pub equilibrium_advances: u64,
    /// Temperature advances triggered by per-temperature budget exhaustion.
    pub budget_advances: u64,
    /// Local-optimum descents completed (Figure-2 strategy only).
    pub descents: u64,
    /// Best-cost trajectory samples `(evals, best_cost)`, if sampling was
    /// enabled on the strategy.
    pub trajectory: Vec<(u64, f64)>,
    /// Per-temperature breakdown of the counters above, one entry per
    /// temperature stage actually entered (at most the schedule length `k`).
    pub per_temp: Vec<TempStats>,
}

impl RunStats {
    /// Fraction of proposals accepted (either direction); 0 if none proposed.
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposals == 0 {
            0.0
        } else {
            (self.accepted_downhill + self.accepted_uphill) as f64 / self.proposals as f64
        }
    }
}

/// The outcome of one strategy run.
#[derive(Debug, Clone)]
pub struct RunResult<S> {
    /// Best state observed during the run.
    pub best_state: S,
    /// Cost of [`best_state`](RunResult::best_state).
    pub best_cost: f64,
    /// Cost of the starting state.
    pub initial_cost: f64,
    /// Cost of the final (not necessarily best) state of the chain.
    pub final_cost: f64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Instrumentation counters.
    pub stats: RunStats,
}

impl<S> RunResult<S> {
    /// Total cost reduction achieved: `initial_cost - best_cost`.
    ///
    /// This is the metric summed over 30 instances in the paper's tables
    /// ("total reduction in \[density\] values").
    pub fn reduction(&self) -> f64 {
        self.initial_cost - self.best_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_display_and_parse_round_trip() {
        for r in [StopReason::Budget, StopReason::Equilibrium] {
            assert_eq!(r.to_string(), r.as_str());
            assert_eq!(r.as_str().parse::<StopReason>().unwrap(), r);
        }
        for r in [
            AdvanceReason::Budget,
            AdvanceReason::Equilibrium,
            AdvanceReason::Exchange,
        ] {
            assert_eq!(r.to_string(), r.as_str());
            assert_eq!(r.as_str().parse::<AdvanceReason>().unwrap(), r);
        }
        assert!("frozen".parse::<StopReason>().is_err());
        assert!("".parse::<AdvanceReason>().is_err());
    }

    #[test]
    fn acceptance_rate_handles_zero_proposals() {
        assert_eq!(RunStats::default().acceptance_rate(), 0.0);
    }

    #[test]
    fn temp_stats_equality_is_bitwise_on_floats() {
        let s = TempStats {
            temp: 0,
            temperature: f64::NAN,
            target_acceptance: f64::NAN,
            evals: 10,
            proposals: 10,
            accepted_downhill: 4,
            accepted_uphill: 1,
            rejected_uphill: 5,
            swap_attempts: 0,
            swap_accepts: 0,
            ended_by: AdvanceReason::Budget,
        };
        // Reflexive even with NaN fields — determinism asserts depend on it.
        assert_eq!(s, s);
        let warm = TempStats {
            temperature: 2.5,
            ..s
        };
        assert_ne!(s, warm);
        assert_eq!(warm, warm);
    }

    #[test]
    fn acceptance_rate_combines_directions() {
        let s = RunStats {
            proposals: 10,
            accepted_downhill: 3,
            accepted_uphill: 2,
            rejected_uphill: 5,
            ..Default::default()
        };
        assert!((s.acceptance_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reduction_is_initial_minus_best() {
        let r = RunResult {
            best_state: (),
            best_cost: 60.0,
            initial_cost: 86.0,
            final_cost: 70.0,
            stop: StopReason::Budget,
            stats: RunStats::default(),
        };
        assert!((r.reduction() - 26.0).abs() < 1e-12);
    }
}

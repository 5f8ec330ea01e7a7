//! **Table 4.2(b)** — GOLA at 3 minutes per instance: the Figure-1 strategy
//! versus the Figure-2 (local-opt) strategy for the 13-method roster
//! (§4.2.4 "Figure 1 vs Figure 2").

use crate::config::SuiteConfig;
use crate::table::Table;
use crate::telemetry::TelemetryLog;

/// Regenerates Table 4.2(b).
pub fn run(config: &SuiteConfig) -> Table {
    run_logged(config, &TelemetryLog::disabled())
}

/// [`run`] with per-cell telemetry and fault isolation (see
/// [`table4_1::run_logged`](crate::tables::table4_1::run_logged)).
pub fn run_logged(config: &SuiteConfig, log: &TelemetryLog) -> Table {
    super::run_table("table4.2b", config, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_strategies_reduce_density() {
        let table = run(&SuiteConfig::scaled(5));
        assert_eq!(table.columns, vec!["Figure 1", "Figure 2"]);
        assert_eq!(table.rows.len(), 13);
        for (label, values) in &table.rows {
            assert!(values[0] >= 0.0 && values[1] >= 0.0, "{label}");
        }
        // At a generous budget every method should make progress under at
        // least one strategy.
        for (label, values) in &table.rows {
            assert!(
                values[0] > 0.0 || values[1] > 0.0,
                "{label} made no progress under either strategy"
            );
        }
    }
}

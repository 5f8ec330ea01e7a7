//! **Table 4.2(c)** — NOLA, random starts, Figure-1 strategy: total density
//! reduction over 30 multi-pin instances for the 13-method roster at 6, 9
//! and 12 seconds per instance (§4.3.1).

use crate::config::SuiteConfig;
use crate::table::Table;
use crate::telemetry::TelemetryLog;

/// Regenerates Table 4.2(c).
pub fn run(config: &SuiteConfig) -> Table {
    run_logged(config, &TelemetryLog::disabled())
}

/// [`run`] with per-cell telemetry and fault isolation (see
/// [`table4_1::run_logged`](crate::tables::table4_1::run_logged)).
pub fn run_logged(config: &SuiteConfig, log: &TelemetryLog) -> Table {
    super::run_table("table4.2c", config, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nola_table_shape() {
        let table = run(&SuiteConfig::scaled(1));
        assert_eq!(table.rows.len(), 14, "Goto + 13 methods");
        for (label, values) in &table.rows {
            for v in values {
                assert!(*v >= 0.0, "{label}");
            }
        }
    }
}

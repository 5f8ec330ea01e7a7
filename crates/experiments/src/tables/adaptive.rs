//! **Adaptive schedules** — grid-swept six-temperature annealing versus
//! feedback-derived schedules on the GOLA set, at equal per-instance run
//! budget and with the tuning bill made explicit.
//!
//! The §4.2.1 sweep spends a 7-candidate grid × 30 instances ×
//! [`TUNING_SECONDS`] of evaluations *off-line* per class before its first
//! competitive run. The adaptive rows instead probe each instance for
//! [`DEFAULT_PROBE_SAMPLES`] delta samples and pay for the probe *inside*
//! the run budget (see [`ArrangementSet::schedule`]) — so their run cells
//! are equal-total-cost with the grid-swept row *including* tuning, and the
//! final "tuning evals" column shows how lopsided the off-line bills are.
//!
//! [`ArrangementSet::schedule`]: crate::ArrangementSet::schedule

use anneal_core::schedule::adaptive::DEFAULT_PROBE_SAMPLES;
use anneal_core::AdaptiveMode;
use anneal_netlist::generator::PAPER_INSTANCES;

use crate::config::SuiteConfig;
use crate::table::Table;
use crate::telemetry::TelemetryLog;
use crate::tuning::{GRID, TUNING_SECONDS};

/// The comparison rows: schedule source per row.
pub const ROWS: [(&str, Option<AdaptiveMode>); 3] = [
    ("Six Temp Annealing (grid-swept)", None),
    ("Adaptive (acceptance)", Some(AdaptiveMode::Acceptance)),
    ("ASA reannealing", Some(AdaptiveMode::Asa)),
];

/// Regenerates the adaptive-schedule comparison.
pub fn run(config: &SuiteConfig) -> Table {
    run_logged(config, &TelemetryLog::disabled())
}

/// [`run`] with per-cell telemetry and fault isolation (see
/// [`table4_1::run_logged`](crate::tables::table4_1::run_logged)).
pub fn run_logged(config: &SuiteConfig, log: &TelemetryLog) -> Table {
    let mut table = super::run_table("adaptive", config, log);
    // The tuning bill is computed, not run: a column but no cells.
    table.columns.push("tuning evals".into());
    for ((_, values), (_, mode)) in table.rows.iter_mut().zip(ROWS) {
        values.push(tuning_evals(mode, PAPER_INSTANCES as u64, config));
    }
    table
}

/// The tuning bill for one row, in evaluations per budget column: the
/// §4.2.1 sweep (grid × instances × [`TUNING_SECONDS`], scaled like every
/// other budget) for the grid-swept row; the probe total for the adaptive
/// rows. The sweep's bill is spent *off-line* before its row can run at
/// all, while the probes are charged inside the run cells — listed here so
/// the comparison's cost asymmetry is visible in the table itself.
pub fn tuning_evals(mode: Option<AdaptiveMode>, instances: u64, config: &SuiteConfig) -> f64 {
    match mode {
        None => {
            let per_instance = config.scale.vax_seconds(TUNING_SECONDS).evals();
            (GRID.len() as u64 * instances * per_instance) as f64
        }
        Some(_) => (instances * DEFAULT_PROBE_SAMPLES) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budgetmap::PAPER_SECONDS;

    #[test]
    fn full_scale_probe_bill_is_within_ten_percent_of_the_sweep() {
        let config = SuiteConfig::paper();
        let sweep = tuning_evals(None, 30, &config);
        let probe = tuning_evals(Some(AdaptiveMode::Acceptance), 30, &config);
        // 7 candidates × 30 instances × 5 s × 250 evals/s.
        assert_eq!(sweep, 262_500.0);
        // 128 probe samples × 30 instances.
        assert_eq!(probe, 3_840.0);
        assert!(
            probe <= 0.10 * sweep,
            "adaptive tuning bill {probe} exceeds 10% of the sweep's {sweep}"
        );
    }

    #[test]
    fn shape_has_three_rows_and_a_tuning_column() {
        let table = run(&SuiteConfig::scaled(20).with_seed(5));
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.columns.len(), PAPER_SECONDS.len() + 1);
        assert_eq!(table.columns[3], "tuning evals");
        for (label, values) in &table.rows {
            for v in values {
                assert!(*v >= 0.0, "{label}: {v}");
            }
        }
        // The run cells are real annealing runs, not zeros.
        assert!(table.rows[1].1[..3].iter().all(|&v| v > 0.0));
    }
}

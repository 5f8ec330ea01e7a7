//! The §4.2.1 temperature-tuning experiment: for each g class that uses
//! temperatures, sweep a candidate grid on the 30-instance GOLA training set
//! under the Figure-1 strategy, and keep the best `Y₁`.
//!
//! The paper allots 5 seconds per instance, `⌈5/k⌉` per temperature.

use anneal_core::Tuner;

use crate::config::SuiteConfig;
use crate::instances::gola_paper_set;
use crate::roster::{TunedY, G_CLASSES};
use crate::scheduler;
use crate::table::Table;

/// Seconds per instance in the paper's tuning runs.
pub const TUNING_SECONDS: f64 = 5.0;

/// Multiplicative grid swept around each class's default `Y₁`.
pub const GRID: [f64; 7] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Outcome of the tuning sweep: the winning temperatures and the per-class
/// sweep table.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Best `Y₁` per class, ready for [`full_roster`](crate::full_roster).
    pub tuned: TunedY,
    /// Rows: g classes; columns: total reduction per grid multiplier.
    pub table: Table,
    /// Classes whose winner sat on the edge of the grid (×[`GRID`]`[0]` or
    /// ×[`GRID`]`[last]`): the sweep did not bracket their optimum, so the
    /// tuned `Y₁` should be treated as a lower bound on what a wider sweep
    /// would find.
    pub boundary: Vec<String>,
}

/// Runs the tuning sweep: one sweep per class of [`G_CLASSES`] around its
/// tuned `Y₁`, the classes spread over `config.threads` threads.
pub fn run(config: &SuiteConfig) -> TuningOutcome {
    let problems = gola_paper_set(config.seed);
    let budget = config.scale.vax_seconds(TUNING_SECONDS);
    let tuner = Tuner::new(&problems, budget, config.seed);
    let reports = scheduler::run_indexed(G_CLASSES.len(), config.threads, |i| {
        let class = &G_CLASSES[i];
        tuner.tune(class.make, &GRID.map(|m| class.tuned * m))
    });

    let mut tuned = TunedY::default();
    let mut table = Table::new(
        "Tuning (§4.2.1) — total reduction per Y₁ multiplier, GOLA training set",
        "g function",
        GRID.iter().map(|m| format!("×{m}")).collect(),
    );
    let mut boundary = Vec::new();
    for (i, (class, report)) in G_CLASSES.iter().zip(reports).enumerate() {
        table.push_row(
            class.name,
            report.outcomes.iter().map(|o| o.total_reduction).collect(),
        );
        if report.best_on_boundary() {
            boundary.push(class.name.to_string());
        }
        tuned.0[i] = report.best.value;
    }

    TuningOutcome {
        tuned,
        table,
        boundary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_all_18_temperature_classes() {
        // g = 1 and two-level need no tuning: 20 - 2 = 18 rows, one per
        // class of the table, in its order.
        let out = run(&SuiteConfig::scaled(2));
        assert_eq!(out.table.rows.len(), 18);
        assert_eq!(out.table.columns.len(), GRID.len());
        for ((name, _), class) in out.table.rows.iter().zip(&G_CLASSES) {
            assert_eq!(name, class.name);
        }
        // Every winner is a member of its own class's grid.
        for (class, y1) in G_CLASSES.iter().zip(out.tuned.0) {
            assert!(
                GRID.iter().any(|m| class.tuned * m == y1),
                "{}: {y1} is off its grid",
                class.name
            );
        }
    }

    #[test]
    fn the_sweep_is_the_same_on_two_threads() {
        let one = run(&SuiteConfig::scaled(8));
        let two = run(&SuiteConfig::scaled(8).with_threads(2));
        let bits = |out: &TuningOutcome| -> Vec<(String, Vec<u64>)> {
            let row = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect();
            (out.table.rows.iter())
                .map(|(name, values)| (name.clone(), row(values)))
                .collect()
        };
        assert_eq!(bits(&two), bits(&one));
        assert_eq!(two.tuned.0.map(f64::to_bits), one.tuned.0.map(f64::to_bits));
        assert_eq!(two.boundary, one.boundary);
    }

    #[test]
    fn boundary_list_matches_the_rows_edge_winners() {
        // The boundary warnings must agree with the table: a class is
        // flagged exactly when its row's maximum sits in the first or last
        // grid column (ties resolve to the earlier column, as in the
        // tuner).
        let out = run(&SuiteConfig::scaled(4));
        for (name, row) in &out.table.rows {
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            let on_edge = best == 0 || best == GRID.len() - 1;
            assert_eq!(
                out.boundary.contains(name),
                on_edge,
                "{name}: winner in column {best}, boundary list {:?}",
                out.boundary
            );
        }
    }
}

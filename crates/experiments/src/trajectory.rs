//! Best-cost trajectories: the convergence series behind the paper's
//! tables. The paper reports only endpoint reductions; the trajectory view
//! shows *how* each method gets there (and is the natural companion to the
//! asymptotic-convergence discussion it cites from \[ROME84a/b\], \[LUND83\]
//! and \[GEM83\]).

use anneal_core::{derive_seed, Annealer, NoopObserver};

use crate::budgetmap::PAPER_SECONDS;
use crate::config::SuiteConfig;
use crate::instances::gola_paper_set;
use crate::roster::{MethodCtx, MethodSpec, TunedY};
use crate::runner::ArrangementSet;
use crate::table::Table;

/// Number of trajectory samples per run.
pub const SAMPLES: u64 = 24;

/// Methods shown in the trajectory table: the paper's headline trio plus
/// Metropolis.
pub fn trajectory_roster(t: TunedY) -> Vec<MethodSpec> {
    use anneal_core::GFunction;
    vec![
        MethodSpec::new("Metropolis", move || GFunction::metropolis(t.metropolis)),
        MethodSpec::new("Six Temperature Annealing", move || {
            GFunction::six_temp_annealing(t.annealing6)
        }),
        MethodSpec::new("g = 1", GFunction::unit),
        MethodSpec::new("Cubic Diff", move || {
            GFunction::poly_difference(3, t.poly_diff[2])
        }),
    ]
}

/// Runs the headline methods on instance 0 of the GOLA set and returns the
/// best-density series, sampled [`SAMPLES`] times over a 12-second budget.
/// Columns are evaluation counts; each row is one method's best density at
/// that point.
pub fn run(config: &SuiteConfig) -> Table {
    let problems = gola_paper_set(config.seed);
    let set = ArrangementSet::with_random_starts(problems, config.seed);
    let problem = &set.problems()[0];
    let start = &set.starts()[0];

    let budget = config.scale.vax_seconds(PAPER_SECONDS[2]);
    let every = (budget.evals() / SAMPLES).max(1);

    let mut table = Table::new(
        format!(
            "Trajectory — best density vs evaluations, GOLA instance 0 \
             (start density {})",
            start.density()
        ),
        "method",
        (1..=SAMPLES).map(|i| format!("{}", i * every)).collect(),
    );

    for spec in trajectory_roster(config.tuned) {
        let ctx = MethodCtx {
            n_nets: problem.netlist().n_nets(),
        };
        let result = Annealer::new(problem)
            .budget(budget)
            .seed(derive_seed(config.seed ^ 0x54524A, 0))
            .start_from(start.clone())
            .trajectory(every)
            .run(&mut spec.g(&ctx), &mut NoopObserver);

        // Resample the recorded trajectory onto the fixed grid (runs may
        // stop early on equilibrium; extend with the final best).
        let mut series = Vec::with_capacity(SAMPLES as usize);
        let mut ti = 0;
        let mut last = start.density() as f64;
        for i in 1..=SAMPLES {
            let at = i * every;
            while ti < result.stats.trajectory.len() && result.stats.trajectory[ti].0 <= at {
                last = result.stats.trajectory[ti].1;
                ti += 1;
            }
            series.push(last);
        }
        // The final sample reflects the run's overall best.
        if let Some(v) = series.last_mut() {
            *v = result.best_cost;
        }
        table.push_row(spec.name(), series);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_are_monotone_nonincreasing() {
        let t = run(&SuiteConfig::scaled(1));
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.columns.len(), SAMPLES as usize);
        for (label, series) in &t.rows {
            for w in series.windows(2) {
                assert!(w[0] >= w[1], "{label}: best density must not increase");
            }
        }
    }
}

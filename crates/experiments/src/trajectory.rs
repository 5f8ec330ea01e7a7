//! Best-cost trajectories: the convergence series behind the paper's
//! tables. The paper reports only endpoint reductions; the trajectory view
//! shows *how* each method gets there (and is the natural companion to the
//! asymptotic-convergence discussion it cites from \[ROME84a/b\], \[LUND83\]
//! and \[GEM83\]).

use anneal_core::{derive_seed, Annealer, ChainObserver};

use crate::budgetmap::PAPER_SECONDS;
use crate::config::SuiteConfig;
use crate::instances::gola_paper_set;
use crate::roster::{full_roster, MethodCtx, TunedY};
use crate::runner::ArrangementSet;
use crate::table::Table;

/// Number of trajectory samples per run.
pub const SAMPLES: u64 = 24;

/// Methods shown in the trajectory table, in roster order: the paper's
/// headline trio plus Metropolis.
const METHODS: [&str; 4] = [
    "Metropolis",
    "Six Temperature Annealing",
    "g = 1",
    "Cubic Diff",
];

/// The `(evals, best)` of every best-so-far improvement of a chain.
#[derive(Default)]
struct Bests(Vec<(u64, f64)>);

impl ChainObserver for Bests {
    fn on_best(&mut self, evals: u64, cost: f64) {
        self.0.push((evals, cost));
    }
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

    let ctx = MethodCtx {
        n_nets: problem.netlist().n_nets(),
    };
    let roster = full_roster(TunedY::default());
    for spec in roster.iter().filter(|s| METHODS.contains(&s.name())) {
        let mut bests = Bests::default();
        let result = Annealer::new(problem)
            .budget(budget)
            .seed(derive_seed(config.seed ^ 0x54524A, 0))
            .start_from(start.clone())
            .run(&mut spec.g(&ctx), &mut bests);

        // Sample i is the best found before i·every evaluations; a run that
        // stopped early on equilibrium repeats its last full sample, and
        // the final sample is the run's overall best.
        let sampled = result.stats.evals / every;
        let mut series: Vec<f64> = (1..=SAMPLES)
            .map(|i| {
                let at = i.min(sampled) * every;
                let before = bests.0.iter().take_while(|&&(evals, _)| evals < at);
                before
                    .last()
                    .map_or(start.density() as f64, |&(_, best)| best)
            })
            .collect();
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

//! Ablations of the paper's design choices (DESIGN.md §5):
//!
//! * **Gate period** — the paper hard-codes the `g = 1` rejection gate at 18
//!   (§3) without justification; sweep the period.
//! * **Schedule length** — the paper fixes `k = 6` for the multi-temperature
//!   classes (\[KIRK83\]) and cites \[GOLD84\]'s 25-point uniform schedule;
//!   sweep `k` for Boltzmann acceptance at equal total budget.
//! * **Equilibrium limit** — the counter bound `n` is unstated in the paper;
//!   sweep it.
//! * **NOLA net size** — the paper never states its NOLA net-size
//!   distribution; sweep the maximum pin count and watch the g=1-vs-annealing
//!   gap (EXPERIMENTS.md deviation 1).
//! * **Instance size** — the paper fixes 15 elements; sweep the element
//!   count at a fixed budget to see how the Goto-vs-Monte-Carlo crossover
//!   moves.

use anneal_core::{derive_seed, Budget, GFunction, Gate, Schedule, Strategy};
use anneal_linarr::LinearArrangementProblem;
use anneal_netlist::generator::{random_multi_pin, random_two_pin};
use rand::{rngs::StdRng, SeedableRng};

use crate::budgetmap::{NOLA_EVAL_COST, PAPER_SECONDS};
use crate::config::SuiteConfig;
use crate::instances::gola_paper_set;
use crate::roster::{MethodSpec, G_CLASSES};
use crate::runner::{ArrangementSet, CellPolicy};
use crate::table::Table;
use crate::telemetry::{CellKey, TelemetryLog};

/// Gate periods swept by [`gate_period`].
pub const GATE_PERIODS: [u32; 6] = [2, 4, 8, 18, 32, 64];

/// Schedule lengths swept by [`schedule_length`].
pub const SCHEDULE_LENGTHS: [usize; 5] = [1, 2, 6, 12, 25];

/// Equilibrium limits swept by [`equilibrium_limit`].
pub const EQUILIBRIUM_LIMITS: [u64; 5] = [25, 100, 250, 1000, 10_000];

/// Maximum net sizes swept by [`nola_net_size`] (minimum is always 2).
pub const NOLA_MAX_PINS: [usize; 5] = [2, 4, 6, 8, 10];

/// Element counts swept by [`instance_size`] (nets scale as 10× elements).
pub const INSTANCE_SIZES: [usize; 4] = [10, 15, 25, 40];

/// Tuned `Y₁` of Metropolis and of six-temperature annealing, classes 1
/// and 2 of the paper (the first two rows of [`G_CLASSES`]).
const Y_METROPOLIS: f64 = G_CLASSES[0].tuned;
const Y_SIX: f64 = G_CLASSES[1].tuned;

/// One cell's total reduction: `spec` under `strategy` at `budget` on every
/// instance of `set`, over the suite's threads. Nothing is logged, retried
/// or watched, and the cell runs in this process.
fn cell(
    set: &ArrangementSet,
    spec: &MethodSpec,
    strategy: Strategy,
    budget: Budget,
    config: &SuiteConfig,
) -> f64 {
    let key = CellKey::new("ablation", spec.name(), budget.to_string());
    let policy = CellPolicy::with_threads(config.threads);
    let log = TelemetryLog::disabled();
    set.run_cell(key, spec, strategy, budget, &policy, &log)
        .reduction
}

/// A row of `spec` under `strategy` at each of the paper's budgets.
fn paper_row(
    set: &ArrangementSet,
    spec: &MethodSpec,
    strategy: Strategy,
    config: &SuiteConfig,
) -> Vec<f64> {
    PAPER_SECONDS
        .iter()
        .map(|&s| cell(set, spec, strategy, config.scale.vax_seconds(s), config))
        .collect()
}

/// Sweeps the `g = 1` gate period on the GOLA set under Figure 1.
pub fn gate_period(config: &SuiteConfig) -> Table {
    let set = ArrangementSet::with_random_starts(gola_paper_set(config.seed), config.seed);
    let columns = PAPER_SECONDS
        .iter()
        .map(|s| format!("{s:.0} sec"))
        .collect();
    let mut table = Table::new(
        "Ablation — g = 1 gate period (paper uses 18), GOLA, Figure 1",
        "gate period",
        columns,
    );
    for period in GATE_PERIODS {
        let spec = MethodSpec::new("g = 1", move || {
            GFunction::unit().with_gate(Some(Gate::new(period)))
        });
        let values = paper_row(&set, &spec, Strategy::Figure1, config);
        table.push_row(format!("period {period}"), values);
    }
    table
}

/// Sweeps the Boltzmann schedule length `k` at equal total budget: `k = 1`
/// (Metropolis), Kirkpatrick-style geometric schedules, and \[GOLD84\]'s
/// uniform shape at `k = 25`.
pub fn schedule_length(config: &SuiteConfig) -> Table {
    let set = ArrangementSet::with_random_starts(gola_paper_set(config.seed), config.seed);
    let columns = PAPER_SECONDS
        .iter()
        .map(|s| format!("{s:.0} sec"))
        .collect();
    let mut table = Table::new(
        "Ablation — Boltzmann schedule length k at equal total budget, GOLA, Figure 1",
        "schedule",
        columns,
    );
    for k in SCHEDULE_LENGTHS {
        let spec = MethodSpec::new("annealing", move || {
            GFunction::annealing(Schedule::geometric(Y_SIX, 0.9, k))
        });
        let values = paper_row(&set, &spec, Strategy::Figure1, config);
        table.push_row(format!("geometric k={k}"), values);
    }
    // [GOLD84]: k evenly spaced temperatures in (0, τ).
    let spec = MethodSpec::new("annealing", move || {
        GFunction::annealing(Schedule::uniform(Y_SIX, 25))
    });
    table.push_row(
        "uniform k=25 [GOLD84]",
        paper_row(&set, &spec, Strategy::Figure1, config),
    );
    table
}

/// Compares the Figure-1 strategy against \[GREE84\]'s rejectionless method
/// at equal evaluation budgets on the GOLA set (§2: the method trades time
/// for space — each step costs a full neighborhood evaluation).
pub fn rejectionless(config: &SuiteConfig) -> Table {
    let set = ArrangementSet::with_random_starts(gola_paper_set(config.seed), config.seed);
    let columns = PAPER_SECONDS
        .iter()
        .map(|s| format!("{s:.0} sec"))
        .collect();
    let mut table = Table::new(
        "Ablation — Figure 1 vs rejectionless [GREE84] at equal budgets, GOLA",
        "strategy / g",
        columns,
    );
    let methods: Vec<(&str, Strategy, MethodSpec)> = vec![
        (
            "Figure 1 / Metropolis",
            Strategy::Figure1,
            MethodSpec::new("Metropolis", move || GFunction::metropolis(Y_METROPOLIS)),
        ),
        (
            "Rejectionless / Metropolis",
            Strategy::Rejectionless,
            MethodSpec::new("Metropolis", move || GFunction::metropolis(Y_METROPOLIS)),
        ),
        (
            "Figure 1 / Six Temp Annealing",
            Strategy::Figure1,
            MethodSpec::new("STA", move || GFunction::six_temp_annealing(Y_SIX)),
        ),
        (
            "Rejectionless / Six Temp Annealing",
            Strategy::Rejectionless,
            MethodSpec::new("STA", move || GFunction::six_temp_annealing(Y_SIX)),
        ),
    ];
    for (label, strategy, spec) in methods {
        table.push_row(label, paper_row(&set, &spec, strategy, config));
    }
    table
}

/// Sweeps the Figure-1 equilibrium limit `n` for six-temperature annealing.
pub fn equilibrium_limit(config: &SuiteConfig) -> Table {
    let problems = gola_paper_set(config.seed);
    let columns = PAPER_SECONDS
        .iter()
        .map(|s| format!("{s:.0} sec"))
        .collect();
    let mut table = Table::new(
        "Ablation — Figure-1 equilibrium limit n, six-temperature annealing, GOLA",
        "n",
        columns,
    );
    for n in EQUILIBRIUM_LIMITS {
        let mut set = ArrangementSet::with_random_starts(problems.clone(), config.seed);
        set.equilibrium = n;
        let spec = MethodSpec::new("annealing", move || GFunction::six_temp_annealing(Y_SIX));
        let values = paper_row(&set, &spec, Strategy::Figure1, config);
        table.push_row(format!("n = {n}"), values);
    }
    table
}

/// Sweeps the NOLA maximum net size: for each distribution 2..=max, builds
/// 30 instances and reports the Goto reduction and the 12-second reductions
/// of six-temperature annealing and g = 1 — probing whether the paper's
/// "g = 1 uniquely beats Goto on NOLA" claim emerges at some net-size mix.
pub fn nola_net_size(config: &SuiteConfig) -> Table {
    let mut table = Table::new(
        "Ablation — NOLA net-size distribution (2..=max), 12 sec/instance",
        "max pins",
        vec![
            "start sum".into(),
            "Goto".into(),
            "STA".into(),
            "g = 1".into(),
        ],
    );
    let budget = config
        .scale
        .vax_seconds(PAPER_SECONDS[2])
        .scale_div(NOLA_EVAL_COST);
    for max_pins in NOLA_MAX_PINS {
        let problems: Vec<LinearArrangementProblem> = (0..30)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(derive_seed(
                    config.seed ^ (max_pins as u64) << 32,
                    i as u64,
                ));
                LinearArrangementProblem::new(random_multi_pin(15, 150, 2, max_pins, &mut rng))
            })
            .collect();
        let set = ArrangementSet::with_random_starts(problems, config.seed);
        let sta = MethodSpec::new("STA", move || GFunction::six_temp_annealing(Y_SIX));
        let unit = MethodSpec::new("g = 1", GFunction::unit);
        table.push_row(
            format!("2..={max_pins}"),
            vec![
                set.start_density_sum(),
                set.goto_reduction(),
                cell(&set, &sta, Strategy::Figure1, budget, config),
                cell(&set, &unit, Strategy::Figure1, budget, config),
            ],
        );
    }
    table
}

/// Sweeps the GOLA instance size at the fixed 12-second budget: as instances
/// grow, a fixed evaluation budget favors the constructive Goto heuristic
/// over the Monte Carlo chains (the §4.2.5 conclusion-2 effect, "when the
/// amount of CPU time available is small, simple greedy heuristics can be
/// expected to perform as well as any of the Monte Carlo methods").
pub fn instance_size(config: &SuiteConfig) -> Table {
    let mut table = Table::new(
        "Ablation — GOLA instance size at a fixed 12-sec budget (nets = 10×elements)",
        "elements",
        vec![
            "start sum".into(),
            "Goto".into(),
            "STA".into(),
            "g = 1".into(),
        ],
    );
    let budget = config.scale.vax_seconds(PAPER_SECONDS[2]);
    for n in INSTANCE_SIZES {
        let problems: Vec<LinearArrangementProblem> = (0..30)
            .map(|i| {
                let mut rng =
                    StdRng::seed_from_u64(derive_seed(config.seed ^ (n as u64) << 40, i as u64));
                LinearArrangementProblem::new(random_two_pin(n, 10 * n, &mut rng))
            })
            .collect();
        let set = ArrangementSet::with_random_starts(problems, config.seed);
        let sta = MethodSpec::new("STA", move || GFunction::six_temp_annealing(Y_SIX));
        let unit = MethodSpec::new("g = 1", GFunction::unit);
        table.push_row(
            format!("{n}"),
            vec![
                set.start_density_sum(),
                set.goto_reduction(),
                cell(&set, &sta, Strategy::Figure1, budget, config),
                cell(&set, &unit, Strategy::Figure1, budget, config),
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_period_sweep_shape() {
        let t = gate_period(&SuiteConfig::scaled(2));
        assert_eq!(t.rows.len(), GATE_PERIODS.len());
        for (label, values) in &t.rows {
            for v in values {
                assert!(*v >= 0.0, "{label}");
            }
        }
    }

    #[test]
    fn schedule_length_sweep_shape() {
        let t = schedule_length(&SuiteConfig::scaled(2));
        assert_eq!(t.rows.len(), SCHEDULE_LENGTHS.len() + 1);
        assert!(t.rows.last().unwrap().0.contains("GOLD84"));
    }

    #[test]
    fn equilibrium_sweep_shape() {
        let t = equilibrium_limit(&SuiteConfig::scaled(2));
        assert_eq!(t.rows.len(), EQUILIBRIUM_LIMITS.len());
    }

    #[test]
    fn rejectionless_sweep_shape_is_the_same_on_two_threads() {
        let t = rejectionless(&SuiteConfig::scaled(2));
        assert_eq!(t.rows.len(), 4);
        for (label, values) in &t.rows {
            for v in values {
                assert!(*v >= 0.0, "{label}");
            }
        }
        let on_two = rejectionless(&SuiteConfig::scaled(2).with_threads(2));
        assert_eq!(bits(&on_two), bits(&t));
    }

    /// Every label and value of `t`, the values as bits.
    fn bits(t: &Table) -> Vec<(String, Vec<u64>)> {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect();
        t.rows
            .iter()
            .map(|(label, values)| (label.clone(), bits(values)))
            .collect()
    }

    #[test]
    fn nola_net_size_start_density_grows_with_pins() {
        let t = nola_net_size(&SuiteConfig::scaled(4));
        assert_eq!(t.rows.len(), NOLA_MAX_PINS.len());
        // Larger nets cross more gaps: starting density sums must increase.
        for w in t.rows.windows(2) {
            assert!(
                w[1].1[0] > w[0].1[0],
                "{} start {} !> {} start {}",
                w[1].0,
                w[1].1[0],
                w[0].0,
                w[0].1[0]
            );
        }
    }

    #[test]
    fn instance_size_sweep_shape() {
        let t = instance_size(&SuiteConfig::scaled(4));
        assert_eq!(t.rows.len(), INSTANCE_SIZES.len());
        // Bigger instances have bigger starting sums and reductions stay
        // nonnegative everywhere.
        for w in t.rows.windows(2) {
            assert!(w[1].1[0] > w[0].1[0]);
        }
        for (label, v) in &t.rows {
            for x in &v[1..] {
                assert!(*x >= 0.0, "{label}");
            }
        }
    }
}

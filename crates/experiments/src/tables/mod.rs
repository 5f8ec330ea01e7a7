//! One module per paper table (plus the adaptive-schedule comparison that
//! replaces the §4.2.1 sweep). Each `run` function regenerates the
//! corresponding table; see DESIGN.md's experiment index.
//!
//! Each table that records cells has one definition: its instance set and
//! its grid of cells, run row by row. The table's `run_logged` runs them
//! all, a `repro --worker` process runs the ones its supervisor sends it
//! ([`TableCache`]), and [`expected_cells`] counts them.

use anneal_core::{AdaptiveMode, Budget, Strategy};

use crate::budgetmap::{NOLA_EVAL_COST, PAPER_SECONDS, PAPER_SECONDS_42B};
use crate::config::SuiteConfig;
use crate::instances::{gola_paper_set, nola_paper_set};
use crate::roster::{full_roster, reduced_roster, MethodSpec, TunedY};
use crate::runner::ArrangementSet;
use crate::table::Table;
use crate::telemetry::{CellKey, CellRecord, TelemetryLog};

pub mod adaptive;
pub mod table4_1;
pub mod table4_2a;
pub mod table4_2b;
pub mod table4_2c;
pub mod table4_2d;

/// The paper instance family a table runs on: two-pin GOLA (§4.2) or
/// multi-pin NOLA (§4.3), whose budgets are divided by `NOLA_EVAL_COST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Gola,
    Nola,
}

/// Where a table's chains start: a fixed random arrangement per instance,
/// or its Goto arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Starts {
    Random,
    Goto,
}

/// A table that records cells. Its cells are the grid `rows × columns`,
/// run row by row: a row gives a cell its method and adaptive-schedule
/// override, a column its strategy and per-instance budget.
#[derive(Debug)]
pub(crate) struct TableSpec {
    family: Family,
    starts: Starts,
    /// The `--replicas` override (see [`ArrangementSet::replicas`]).
    replicas: Option<usize>,
    /// The title, before the set's start density sum.
    title: &'static str,
    row_header: &'static str,
    /// Whether the Goto construction's reduction heads the table as a row.
    goto_row: bool,
    rows: Vec<(&'static str, MethodSpec, Option<AdaptiveMode>)>,
    columns: Vec<(String, Strategy, Budget)>,
}

/// The definition of the cell table named `table` (an experiment such as
/// `"table4.1"`), or `None` for an experiment that records no cells.
/// Builds no instance set.
pub(crate) fn spec(table: &str, config: &SuiteConfig) -> Option<TableSpec> {
    use {Family::*, Starts::*};
    let rows = |roster: Vec<MethodSpec>| -> Vec<_> {
        let row = |method: MethodSpec| (method.name(), method, config.schedule);
        roster.into_iter().map(row).collect()
    };
    // Tables 4.1 and 4.2(a), (c) and (d) differ only in their family,
    // starts, roster and title. From Goto starts the Goto row would be
    // all zeros.
    let grid = |family, starts, roster, title| TableSpec {
        family,
        starts,
        replicas: config.replicas,
        title,
        row_header: "g function",
        goto_row: starts == Random,
        rows: rows(roster),
        columns: paper_columns(family, config),
    };
    Some(match table {
        "table4.1" => grid(
            Gola,
            Random,
            full_roster(TunedY::default()),
            "Table 4.1 — GOLA: total density reduction, 30 instances, 15 elements, 150 nets",
        ),
        "table4.2a" => grid(
            Gola,
            Goto,
            reduced_roster(TunedY::default()),
            "Table 4.2(a) — GOLA from Goto arrangements: total improvement",
        ),
        "table4.2c" => grid(
            Nola,
            Random,
            reduced_roster(TunedY::default()),
            "Table 4.2(c) — NOLA: total density reduction, 30 instances, 15 elements, 150 nets",
        ),
        "table4.2d" => grid(
            Nola,
            Goto,
            reduced_roster(TunedY::default()),
            "Table 4.2(d) — NOLA from Goto arrangements: total improvement",
        ),
        // Figure 1 against Figure 2, so `--strategy` and `--replicas` do
        // not apply.
        "table4.2b" => {
            let budget = config.scale.vax_seconds(PAPER_SECONDS_42B);
            TableSpec {
                family: Gola,
                starts: Random,
                replicas: None,
                title: "Table 4.2(b) — GOLA, 180 sec/instance: Figure 1 vs Figure 2",
                row_header: "g function",
                goto_row: false,
                rows: rows(reduced_roster(TunedY::default())),
                columns: vec![
                    ("Figure 1".into(), Strategy::Figure1, budget),
                    ("Figure 2".into(), Strategy::Figure2, budget),
                ],
            }
        }
        // Six-temperature annealing under each row's schedule source, which
        // replaces `--schedule`; `--replicas` does not apply, so each
        // method keeps its own ladder.
        "adaptive" => {
            let six_temp = full_roster(TunedY::default())
                .into_iter()
                .find(|s| s.name() == "Six Temperature Annealing")
                .expect("the roster always carries class 2");
            TableSpec {
                family: Gola,
                starts: Random,
                replicas: None,
                title: "Adaptive schedules — GOLA, six-temperature annealing: grid-swept vs \
                        feedback-derived at equal run budget",
                row_header: "schedule",
                goto_row: false,
                rows: adaptive::ROWS
                    .map(|(label, mode)| (label, six_temp.clone(), mode))
                    .into(),
                columns: paper_columns(Gola, config),
            }
        }
        _ => return None,
    })
}

/// The number of cells the given experiment selection will record: the
/// length of each table's cell list. Any experiment that records no cells
/// (tuning sweeps, extensions, diagnostics) makes the total unknown, and
/// the `--progress` ticker then shows a bare counter.
pub fn expected_cells(experiments: &[String], config: &SuiteConfig) -> Option<usize> {
    experiments
        .iter()
        .map(|exp| spec(exp, config).map(|spec| spec.rows.len() * spec.columns.len()))
        .sum()
}

/// The instance set of the table a process-isolation worker last served.
/// Cells arrive table by table, so a worker builds each table's instances
/// (and Goto starts) once, and the set's probe memo carries over from cell
/// to cell.
#[derive(Debug)]
pub struct TableCache {
    config: SuiteConfig,
    /// The table's name, definition and instance set.
    table: Option<(String, TableSpec, ArrangementSet)>,
}

impl TableCache {
    /// An empty cache for a suite run under `config`.
    pub fn new(config: SuiteConfig) -> Self {
        TableCache {
            config,
            table: None,
        }
    }

    /// Runs the one cell `key` names: finds its row and column in its
    /// table's definition, builds that table's instance set unless it is
    /// the one held, and records the cell into `log`. Returns its record,
    /// or `None` (nothing run) when no table lists `key`.
    pub fn run_cell(&mut self, key: &CellKey, log: &TelemetryLog) -> Option<CellRecord> {
        if self
            .table
            .as_ref()
            .is_none_or(|(name, ..)| *name != key.table)
        {
            let spec = spec(&key.table, &self.config)?;
            let set = spec.instance_set(self.config.seed);
            self.table = Some((key.table.clone(), spec, set));
        }
        let (_, spec, set) = self.table.as_mut().expect("the table is held");
        let (_, method, schedule) = spec.rows.iter().find(|row| row.0 == key.method)?;
        let (_, strategy, budget) = spec.columns.iter().find(|col| col.0 == key.column)?;
        set.schedule = *schedule;
        let policy = self.config.cell_policy();
        Some(set.run_cell(key.clone(), method, *strategy, *budget, &policy, log))
    }
}

/// Runs every cell of table `name` in run order and renders the table.
fn run_table(name: &str, config: &SuiteConfig, log: &TelemetryLog) -> Table {
    let spec = spec(name, config).expect("a cell table");
    let mut set = spec.instance_set(config.seed);
    let sum = set.start_density_sum();
    let title = format!("{} (start density sum {sum})", spec.title);
    let labels = spec.columns.iter().map(|c| c.0.clone()).collect();
    let mut table = Table::new(title, spec.row_header, labels);
    if spec.goto_row {
        // The Goto construction is budget-independent; the paper lists it
        // once.
        table.push_row("Goto", vec![set.goto_reduction(); spec.columns.len()]);
    }
    let policy = config.cell_policy();
    for (row, method, schedule) in &spec.rows {
        set.schedule = *schedule;
        let values = spec.columns.iter().map(|(column, strategy, budget)| {
            let key = CellKey::new(name, *row, column.as_str());
            set.run_cell(key, method, *strategy, *budget, &policy, log)
                .reduction
        });
        table.push_row(*row, values.collect());
    }
    table
}

impl TableSpec {
    /// The keys of the cells of table `table`, in run order.
    #[cfg(test)]
    pub(crate) fn keys(&self, table: &str) -> Vec<CellKey> {
        let mut keys = Vec::new();
        for (row, ..) in &self.rows {
            for (column, ..) in &self.columns {
                keys.push(CellKey::new(table, *row, column.as_str()));
            }
        }
        keys
    }

    /// Builds the table's instances and starting arrangements.
    fn instance_set(&self, seed: u64) -> ArrangementSet {
        let problems = match self.family {
            Family::Gola => gola_paper_set(seed),
            Family::Nola => nola_paper_set(seed),
        };
        let mut set = match self.starts {
            Starts::Random => ArrangementSet::with_random_starts(problems, seed),
            Starts::Goto => ArrangementSet::with_goto_starts(problems, seed),
        };
        set.replicas = self.replicas;
        set
    }
}

/// The 6, 9 and 12 seconds-per-instance columns under the table strategy.
fn paper_columns(family: Family, config: &SuiteConfig) -> Vec<(String, Strategy, Budget)> {
    let budget = |s| match family {
        Family::Gola => config.scale.vax_seconds(s),
        Family::Nola => config.scale.vax_seconds(s).scale_div(NOLA_EVAL_COST),
    };
    PAPER_SECONDS
        .iter()
        .map(|&s| (format!("{s:.0} sec"), config.table_strategy(), budget(s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_table_records_its_unique_keys_in_run_order_and_progress_counts_them() {
        let config = SuiteConfig::scaled(2000).with_seed(7);
        type RunLogged = fn(&SuiteConfig, &TelemetryLog) -> Table;
        let runners: [(&str, RunLogged, usize); 6] = [
            ("table4.1", table4_1::run_logged, 63),
            ("table4.2a", table4_2a::run_logged, 39),
            ("table4.2b", table4_2b::run_logged, 26),
            ("table4.2c", table4_2c::run_logged, 39),
            ("table4.2d", table4_2d::run_logged, 39),
            ("adaptive", adaptive::run_logged, 9),
        ];
        for (name, run_logged, count) in runners {
            let keys = spec(name, &config).expect("a cell table").keys(name);
            let unique: std::collections::HashSet<&CellKey> = keys.iter().collect();
            assert_eq!(unique.len(), keys.len(), "{name}: duplicate cell keys");

            let log = TelemetryLog::in_memory();
            run_logged(&config, &log);
            let recorded: Vec<CellKey> = log.records().into_iter().map(|r| r.key).collect();
            assert_eq!(recorded, keys, "{name}: records out of run order");
            assert_eq!(recorded.len(), count, "{name}");
            let total = expected_cells(&[name.to_string()], &config);
            assert_eq!(total, Some(count), "{name}: progress total");
        }
        let tuning = ["table4.1".to_string(), "tuning".to_string()];
        assert_eq!(expected_cells(&tuning, &config), None);
    }

    /// `log`'s records with their wall-clock fields zeroed.
    fn records_without_wall(log: &TelemetryLog) -> Vec<CellRecord> {
        let mut records = log.records();
        for record in &mut records {
            record.wall_ms = 0.0;
            for row in &mut record.per_instance {
                row.wall_ms = 0.0;
            }
        }
        records
    }

    #[test]
    fn a_table_cache_serves_cells_as_run_logged_records_them() {
        let config = SuiteConfig::scaled(2000).with_seed(7);
        let keys = |name| spec(name, &config).expect("a cell table").keys(name);
        let (b, d) = (keys("table4.2b"), keys("table4.2d"));
        let reference = TelemetryLog::in_memory();
        table4_2b::run_logged(&config, &reference);
        table4_2d::run_logged(&config, &reference);
        table4_2b::run_logged(&config, &reference);

        // Back to table 4.2(b) after 4.2(d): a change of table rebuilds
        // the set it left.
        let mut cache = TableCache::new(config);
        let log = TelemetryLog::in_memory();
        for key in b.iter().chain(&d).chain(&b) {
            assert!(cache.run_cell(key, &log).is_some(), "{key}");
        }
        assert_eq!(records_without_wall(&log), records_without_wall(&reference));

        // A key no table lists runs and records nothing.
        let log = TelemetryLog::in_memory();
        let unlisted = CellKey::new("table4.2a", "g = 1", "Figure 1");
        assert_eq!(cache.run_cell(&unlisted, &log), None);
        assert!(log.records().is_empty());
    }
}

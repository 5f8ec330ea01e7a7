//! Markdown analysis reports over a run's telemetry WAL and chain traces,
//! plus benchmark-snapshot comparison — the logic behind the `report`
//! binary, split out so every section is unit-testable.
//!
//! Two modes:
//!
//! * [`render_report`] joins a WAL (see [`checkpoint`](crate::checkpoint))
//!   with optional per-cell traces (see [`trace`](crate::trace)) into a
//!   Markdown document: suite overview, acceptance-rate-vs-temperature
//!   tables per method, time-per-temperature breakdowns, energy-trajectory
//!   sparklines, and a section checking the paper's headline claim.
//! * [`compare_benchmarks`] + [`render_compare`] diff two `BENCH_core.json`
//!   snapshots (schema in BENCHMARKS.md), flagging kernels that got slower
//!   than a threshold.

use std::collections::HashMap;
use std::fmt::Write as _;

use anneal_core::json::Json;
use anneal_core::json_object;

use crate::checkpoint::Checkpoint;
use crate::jsonl::WAL;
use crate::telemetry::{CellRecord, TempAggregate};
use crate::trace::{CellTrace, TraceEvent};

/// Block-drawing ramp used for sparklines.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// A compact sparkline over `values` (empty input → empty string). A flat
/// series renders at the floor; non-finite points render as spaces.
pub fn sparkline(values: &[f64]) -> String {
    let (lo, hi) = values
        .iter()
        .filter(|v| v.is_finite())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else if hi <= lo {
                SPARKS[0]
            } else {
                let t = (v - lo) / (hi - lo);
                SPARKS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Acceptance rate (percent) of one per-temperature aggregate: accepted
/// moves over proposals; `None` when nothing was proposed at the
/// temperature.
pub fn acceptance_rate(agg: &TempAggregate) -> Option<f64> {
    let accepted = agg.accepted_downhill + agg.accepted_uphill;
    (agg.proposals > 0).then(|| 100.0 * accepted as f64 / agg.proposals as f64)
}

/// Sums per-temperature aggregates element-wise (the longer schedule
/// decides the length).
fn merge_per_temp(into: &mut Vec<TempAggregate>, from: &[TempAggregate]) {
    if into.len() < from.len() {
        into.resize(from.len(), TempAggregate::default());
        for (i, agg) in into.iter_mut().enumerate() {
            agg.temp = i;
        }
    }
    for (agg, t) in into.iter_mut().zip(from) {
        agg.evals += t.evals;
        agg.proposals += t.proposals;
        agg.accepted_downhill += t.accepted_downhill;
        agg.accepted_uphill += t.accepted_uphill;
        agg.rejected_uphill += t.rejected_uphill;
        agg.ended_budget += t.ended_budget;
        agg.ended_equilibrium += t.ended_equilibrium;
        agg.ended_exchange += t.ended_exchange;
        agg.swap_attempts += t.swap_attempts;
        agg.swap_accepts += t.swap_accepts;
        agg.temperature += t.temperature;
        agg.target_acceptance += t.target_acceptance;
    }
}

/// Number of stages closed at an aggregate's temperature index.
fn closed_stages(agg: &TempAggregate) -> u64 {
    agg.ended_budget + agg.ended_equilibrium + agg.ended_exchange
}

/// Mean controlled stage temperature of one aggregate: the temperature sum
/// over the closed-stage count. `None` when the sum is non-finite (NaN for
/// a stage with no single temperature) or no stage closed.
pub fn mean_temperature(agg: &TempAggregate) -> Option<f64> {
    let stages = closed_stages(agg);
    (stages > 0 && agg.temperature.is_finite()).then(|| agg.temperature / stages as f64)
}

/// Mean adaptive-controller target acceptance (percent) of one aggregate;
/// `None` when no controller ran (the sum is NaN) or no stage closed.
pub fn mean_target_acceptance(agg: &TempAggregate) -> Option<f64> {
    let stages = closed_stages(agg);
    (stages > 0 && agg.target_acceptance.is_finite())
        .then(|| 100.0 * agg.target_acceptance / stages as f64)
}

/// `v` to `precision` decimals, or `n/a` for the NaN/∞ that nulls in old
/// WAL schemas load as — a report must never print `NaN`.
fn fin(v: f64, precision: usize) -> String {
    if v.is_finite() {
        format!("{v:.precision$}")
    } else {
        "n/a".to_string()
    }
}

/// Groups `items` by a key, preserving first-seen order (the WAL keeps the
/// tables' row/column order, which the report should mirror).
fn group_by<'a, T, K, F>(items: impl IntoIterator<Item = &'a T>, key: F) -> Vec<(K, Vec<&'a T>)>
where
    K: PartialEq,
    F: Fn(&'a T) -> K,
{
    let mut groups: Vec<(K, Vec<&'a T>)> = Vec::new();
    for item in items {
        let k = key(item);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, v)) => v.push(item),
            None => groups.push((k, vec![item])),
        }
    }
    groups
}

/// Renders the Markdown report for a loaded WAL and any matching traces.
pub fn render_report(cp: &Checkpoint, traces: &[CellTrace]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# Annealing run report\n\n");
    overview(&mut out, cp);
    for (table, cells) in group_by(&cp.cells, |c| c.key.table.clone()) {
        let _ = writeln!(out, "## {table}\n");
        acceptance_section(&mut out, &cells);
        temperature_section(&mut out, &cells);
        swap_section(&mut out, &cells);
        claims_section(&mut out, &cells);
        let table_traces: Vec<&CellTrace> = traces
            .iter()
            .filter(|t| t.meta.key.table == table)
            .collect();
        time_section(&mut out, &table_traces);
        energy_section(&mut out, &table_traces);
    }
    supervisor_section(&mut out, cp);
    failures_section(&mut out, &cp.cells);
    out
}

/// Process-supervision history: worker restarts, circuit-breaker trips and
/// signal drains.
fn supervisor_section(out: &mut String, cp: &Checkpoint) {
    out.push_str("## Supervisor events\n\n");
    if cp.events.is_empty() {
        out.push_str("None: no worker restarts, breaker trips or signal drains.\n\n");
        return;
    }
    let count = |kind: &str| cp.events.iter().filter(|e| e.kind == kind).count();
    let _ = writeln!(
        out,
        "{} worker restart(s), {} breaker trip(s), {} signal drain(s).\n",
        count("restart"),
        count("breaker"),
        count("drain")
    );
    for event in &cp.events {
        match &event.cell {
            Some(cell) => {
                let _ = writeln!(out, "- {} `{}` — {}", event.kind, cell, event.detail);
            }
            None => {
                let _ = writeln!(out, "- {} — {}", event.kind, event.detail);
            }
        }
    }
    out.push('\n');
}

fn overview(out: &mut String, cp: &Checkpoint) {
    if let Some(meta) = &cp.meta {
        let _ = writeln!(
            out,
            "Suite: seed {}, scale {} (WAL v{}).",
            meta.seed, meta.scale, WAL.version
        );
    }
    let evals: u64 = cp.cells.iter().map(|c| c.evals).sum();
    let wall_s: f64 = cp.cells.iter().map(|c| c.wall_ms).sum::<f64>() / 1e3;
    let failed = cp.cells.iter().filter(|c| !c.ok()).count();
    let _ = writeln!(
        out,
        "{} cells, {evals} evaluations, {} s of chain time, {failed} failed.{}\n",
        cp.cells.len(),
        fin(wall_s, 1),
        if cp.torn {
            " The WAL ended in a torn record (interrupted run)."
        } else {
            ""
        }
    );
}

/// A method × temperature-index table under `heading`: one row per method,
/// its per-temperature aggregates merged over the table's budget columns,
/// and one `cell` per temperature index (`—` where `cell` gives none).
/// Omitted when no cell records a stage.
fn per_temp_table(
    out: &mut String,
    cells: &[&CellRecord],
    heading: &str,
    intro: &str,
    cell: impl Fn(&TempAggregate) -> Option<String>,
) {
    let k = cells.iter().map(|c| c.per_temp.len()).max().unwrap_or(0);
    if k == 0 {
        return;
    }
    let _ = write!(out, "### {heading}\n\n{intro}\n\n| Method |");
    for t in 0..k {
        let _ = write!(out, " t{t} |");
    }
    out.push('\n');
    out.push_str("|---|");
    out.push_str(&"---:|".repeat(k));
    out.push('\n');
    for (method, cells) in group_by(cells.iter().copied(), |c| c.key.method.clone()) {
        let mut merged: Vec<TempAggregate> = Vec::new();
        for c in cells {
            merge_per_temp(&mut merged, &c.per_temp);
        }
        let _ = write!(out, "| {method} |");
        for t in 0..k {
            match merged.get(t).and_then(&cell) {
                Some(text) => {
                    let _ = write!(out, " {text} |");
                }
                None => out.push_str(" — |"),
            }
        }
        out.push('\n');
    }
    out.push('\n');
}

/// Acceptance rate vs temperature, one row per method, aggregated over the
/// table's budget columns.
fn acceptance_section(out: &mut String, cells: &[&CellRecord]) {
    per_temp_table(
        out,
        cells,
        "Acceptance rate vs temperature",
        "Accepted moves as a percentage of proposals, per temperature index, \
         aggregated over the table's budget columns.",
        |agg| acceptance_rate(agg).map(|rate| format!("{rate:.1}%")),
    );
}

/// Controlled stage temperature vs stage index, with the adaptive
/// controller's acceptance targets next to the observed rates. Omitted when
/// no cell carries stage temperatures (all NaN).
fn temperature_section(out: &mut String, cells: &[&CellRecord]) {
    if !cells
        .iter()
        .any(|c| c.per_temp.iter().any(|t| mean_temperature(t).is_some()))
    {
        return;
    }
    per_temp_table(
        out,
        cells,
        "Stage temperature and controller targets",
        "Mean controlled temperature per stage, aggregated over the table's \
         budget columns. Where the adaptive controller ran, the cell also \
         shows observed acceptance against the controller's target \
         (`obs%→tgt%`).",
        |agg| {
            let mut text = fin(mean_temperature(agg)?, 3);
            if let Some(target) = mean_target_acceptance(agg) {
                let observed =
                    acceptance_rate(agg).map_or("n/a".to_string(), |r| format!("{r:.0}%"));
                let _ = write!(text, " ({observed}→{target:.0}%)");
            }
            Some(text)
        },
    );
}

/// Replica-exchange swap acceptance vs temperature: swaps accepted over
/// swaps attempted at each rung (the lower member of each adjacent pair),
/// aggregated over a method's budget columns. Omitted when no cell in the
/// table attempted a swap, as under every non-tempering strategy.
fn swap_section(out: &mut String, cells: &[&CellRecord]) {
    if !cells
        .iter()
        .any(|c| c.per_temp.iter().any(|t| t.swap_attempts > 0))
    {
        return;
    }
    per_temp_table(
        out,
        cells,
        "Replica-exchange swap acceptance vs temperature",
        "Accepted swaps as a percentage of attempts at each rung (attempts \
         are counted on the colder member of the pair, so the hottest rung \
         shows no attempts).",
        |agg| {
            (agg.swap_attempts > 0).then(|| {
                let rate = 100.0 * agg.swap_accepts as f64 / agg.swap_attempts as f64;
                format!("{rate:.1}% ({}/{})", agg.swap_accepts, agg.swap_attempts)
            })
        },
    );
}

/// The paper's headline comparison: how the trivial `g = 1` acceptance
/// function fares against tuned annealing, per budget column (§4.2.2 claims
/// they are competitive at equal cost).
fn claims_section(out: &mut String, cells: &[&CellRecord]) {
    const BASELINES: [&str; 2] = ["Six Temperature Annealing", "Metropolis"];
    let find = |method: &str, column: &str| -> Option<f64> {
        cells
            .iter()
            .find(|c| c.key.method == method && c.key.column == column)
            .map(|c| c.reduction)
    };
    let mut rows = String::new();
    for (column, _) in group_by(cells.iter().copied(), |c| c.key.column.clone()) {
        let Some(unit) = find("g = 1", &column) else {
            continue;
        };
        for baseline in BASELINES {
            if let Some(b) = find(baseline, &column) {
                // A null reduction (old-WAL field) loads as NaN: neither
                // side can win, and the numbers render as `n/a`.
                let verdict = if !unit.is_finite() || !b.is_finite() {
                    "n/a"
                } else if unit >= b {
                    "g = 1 wins"
                } else {
                    "annealing wins"
                };
                let _ = writeln!(
                    rows,
                    "| {column} | {baseline} | {} | {} | {verdict} |",
                    fin(unit, 0),
                    fin(b, 0)
                );
            }
        }
    }
    if rows.is_empty() {
        return;
    }
    out.push_str("### Paper claim: g = 1 vs tuned annealing\n\n");
    out.push_str("| Column | Baseline | g = 1 reduction | Baseline reduction | Outcome |\n");
    out.push_str("|---|---|---:|---:|---|\n");
    out.push_str(&rows);
    out.push('\n');
}

/// Wall time per temperature index, aggregated over a table's traces.
/// Per-stage p50/p99 come from a log-linear histogram of the individual
/// stage walls; a temperature index with no samples renders `n/a`
/// ([`Histogram::try_quantile`](anneal_core::metrics::Histogram::try_quantile)
/// distinguishes "no samples" from "all zero").
fn time_section(out: &mut String, traces: &[&CellTrace]) {
    use anneal_core::metrics::Histogram;
    let mut wall_by_temp: Vec<f64> = Vec::new();
    let mut hist_by_temp: Vec<Histogram> = Vec::new();
    for trace in traces {
        for event in &trace.events {
            if let TraceEvent::Temp { temp, wall_ms, .. } = event {
                if wall_by_temp.len() <= *temp {
                    wall_by_temp.resize(temp + 1, 0.0);
                    hist_by_temp.resize_with(temp + 1, Histogram::new);
                }
                if wall_ms.is_finite() {
                    wall_by_temp[*temp] += wall_ms;
                    // Microsecond samples: stage walls are often < 1 ms at
                    // small scales, which would all collapse into bucket 0.
                    hist_by_temp[*temp].record((wall_ms * 1e3) as u64);
                }
            }
        }
    }
    let total: f64 = wall_by_temp.iter().sum();
    if total <= 0.0 {
        return;
    }
    let q = |h: &Histogram, q: f64| match h.try_quantile(q) {
        Some(us) => format!("{:.2}", us as f64 / 1e3),
        None => "n/a".to_string(),
    };
    out.push_str("### Time per temperature\n\n");
    out.push_str(
        "| Temperature | Wall time (ms) | p50 stage (ms) | p99 stage (ms) | Share |\n\
         |---|---:|---:|---:|---:|\n",
    );
    for (t, wall) in wall_by_temp.iter().enumerate() {
        let _ = writeln!(
            out,
            "| t{t} | {wall:.1} | {} | {} | {:.1}% |",
            q(&hist_by_temp[t], 0.50),
            q(&hist_by_temp[t], 0.99),
            100.0 * wall / total
        );
    }
    out.push('\n');
}

/// One sparkline per traced cell: instance 0's sampled energy trajectory.
fn energy_section(out: &mut String, traces: &[&CellTrace]) {
    let mut rows = String::new();
    for trace in traces {
        let costs: Vec<f64> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sample {
                    instance: 0, cost, ..
                } => Some(*cost),
                _ => None,
            })
            .collect();
        if costs.len() < 2 {
            continue;
        }
        let _ = writeln!(
            rows,
            "| {} | {} | `{}` | {} → {} |",
            trace.meta.key.method,
            trace.meta.key.column,
            sparkline(&costs),
            fin(costs[0], 0),
            fin(costs[costs.len() - 1], 0)
        );
    }
    if rows.is_empty() {
        return;
    }
    out.push_str("### Energy trajectories (instance 0)\n\n");
    out.push_str("| Method | Column | Energy | First → last sample |\n|---|---|---|---|\n");
    out.push_str(&rows);
    out.push('\n');
}

fn failures_section(out: &mut String, cells: &[CellRecord]) {
    let failed: Vec<&CellRecord> = cells.iter().filter(|c| !c.ok()).collect();
    if failed.is_empty() {
        return;
    }
    out.push_str("## Failures\n\n");
    for cell in failed {
        for f in &cell.failures {
            let _ = writeln!(
                out,
                "- `{}` — instance {} (seed {}, {} attempts): {}",
                cell.key, f.instance, f.seed, cell.attempts, f.message
            );
        }
    }
    out.push('\n');
}

/// One kernel's delta between two benchmark snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDelta {
    /// Kernel name.
    pub name: String,
    /// Old median ns/iter (`None` when the kernel is new).
    pub old_ns: Option<f64>,
    /// New median ns/iter.
    pub new_ns: f64,
    /// Relative change in percent (`None` when there is no old value).
    pub delta_pct: Option<f64>,
}

impl KernelDelta {
    /// Whether the kernel got slower than `threshold_pct`.
    pub fn regressed(&self, threshold_pct: f64) -> bool {
        self.delta_pct.is_some_and(|d| d > threshold_pct)
    }
}

/// The result of comparing two benchmark snapshots.
#[derive(Debug)]
pub struct BenchComparison {
    /// Per-kernel deltas, in the new snapshot's order.
    pub deltas: Vec<KernelDelta>,
    /// Kernels present in the old snapshot but missing from the new one.
    pub removed: Vec<String>,
    /// The regression threshold used, in percent.
    pub threshold_pct: f64,
}

impl BenchComparison {
    /// The kernels that got slower than the threshold.
    pub fn regressions(&self) -> Vec<&KernelDelta> {
        self.deltas
            .iter()
            .filter(|d| d.regressed(self.threshold_pct))
            .collect()
    }
}

fn bench_kernels(text: &str, which: &str) -> Result<Vec<(String, f64)>, String> {
    let v = Json::parse(text).map_err(|e| format!("{which} snapshot: {e}"))?;
    let schema = v.get("schema").and_then(Json::as_str).unwrap_or_default();
    if schema != "annealbench-bench-v1" {
        return Err(format!("{which} snapshot has unknown schema `{schema}`"));
    }
    let kernels = v
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{which} snapshot has no kernels array"))?;
    kernels
        .iter()
        .map(|k| {
            let name = k
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{which} snapshot has a kernel without a name"))?
                .to_string();
            let ns = k
                .get("ns_per_iter")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("kernel `{name}` has no ns_per_iter"))?;
            Ok((name, ns))
        })
        .collect()
}

/// Compares two `BENCH_core.json` documents. `threshold_pct` is the slowdown
/// (in percent of the old median) above which a kernel counts as regressed.
pub fn compare_benchmarks(
    old_text: &str,
    new_text: &str,
    threshold_pct: f64,
) -> Result<BenchComparison, String> {
    let old = bench_kernels(old_text, "old")?;
    let new = bench_kernels(new_text, "new")?;
    let old_by_name: HashMap<&str, f64> = old.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let deltas: Vec<KernelDelta> = new
        .iter()
        .map(|(name, new_ns)| {
            let old_ns = old_by_name.get(name.as_str()).copied();
            KernelDelta {
                name: name.clone(),
                old_ns,
                new_ns: *new_ns,
                delta_pct: old_ns
                    .filter(|&o| o > 0.0)
                    .map(|o| 100.0 * (new_ns - o) / o),
            }
        })
        .collect();
    let removed = old
        .iter()
        .filter(|(n, _)| !new.iter().any(|(m, _)| m == n))
        .map(|(n, _)| n.clone())
        .collect();
    Ok(BenchComparison {
        deltas,
        removed,
        threshold_pct,
    })
}

/// Renders a [`BenchComparison`] as Markdown.
pub fn render_compare(cmp: &BenchComparison) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("# Benchmark comparison\n\n");
    out.push_str("| Kernel | Old (ns/iter) | New (ns/iter) | Delta | Status |\n");
    out.push_str("|---|---:|---:|---:|---|\n");
    for d in &cmp.deltas {
        let (old, delta, status) = match (d.old_ns, d.delta_pct) {
            (Some(o), Some(pct)) => (
                format!("{o:.1}"),
                format!("{pct:+.1}%"),
                if d.regressed(cmp.threshold_pct) {
                    "**REGRESSED**"
                } else if pct < -cmp.threshold_pct {
                    "improved"
                } else {
                    "ok"
                },
            ),
            _ => ("—".to_string(), "—".to_string(), "new"),
        };
        let _ = writeln!(
            out,
            "| {} | {old} | {:.1} | {delta} | {status} |",
            d.name, d.new_ns
        );
    }
    for name in &cmp.removed {
        let _ = writeln!(out, "| {name} | — | — | — | removed |");
    }
    let regressions = cmp.regressions();
    out.push('\n');
    if regressions.is_empty() {
        let _ = writeln!(
            out,
            "No kernel regressed by more than {:.0}%.",
            cmp.threshold_pct
        );
    } else {
        let _ = writeln!(
            out,
            "**{} kernel(s) regressed by more than {:.0}%.**",
            regressions.len(),
            cmp.threshold_pct
        );
    }
    out
}

/// Converts loaded chain traces into Chrome Trace Event JSON (the
/// `{"traceEvents": [...]}` object format), loadable in `chrome://tracing`
/// and Perfetto — the `report --chrome-trace OUT.json` exporter.
///
/// Layout: one pid per table (sorted by name), one tid per
/// `(cell, instance)` within the table (cells sorted by method/column, so
/// replicas line up under their cell), each closed temperature stage as a
/// `"ph":"X"` duration event named `t<temp>`. Trace files carry no
/// absolute timestamps, so each tid's timeline is synthesized by
/// accumulating its own stage walls from zero — stages within a chain are
/// sequential, which is exactly what the chain executed. `ts`/`dur` are
/// microseconds per the Trace Event format.
pub fn chrome_trace_json(traces: &[CellTrace]) -> String {
    let mut tables: Vec<&str> = traces.iter().map(|t| t.meta.key.table.as_str()).collect();
    tables.sort_unstable();
    tables.dedup();

    // Whole microseconds, as the Trace Event format counts them.
    let micros = |us: f64| Json::Num(format!("{us:.0}"));
    let metadata = |pid: usize, tid: usize, kind: &str, name: String| {
        let args = json_object! { "name": name };
        json_object! { "ph": "M", "pid": pid, "tid": tid, "name": kind, "args": args }
    };
    let mut events: Vec<Json> = Vec::new();
    for (ti, table) in tables.iter().enumerate() {
        let pid = ti + 1;
        events.push(metadata(pid, 0, "process_name", table.to_string()));
        let mut cells: Vec<&CellTrace> = traces
            .iter()
            .filter(|t| t.meta.key.table == *table)
            .collect();
        cells.sort_by(|a, b| {
            (&a.meta.key.method, &a.meta.key.column).cmp(&(&b.meta.key.method, &b.meta.key.column))
        });
        let mut tid = 0usize;
        for trace in cells {
            let key = &trace.meta.key;
            // Instance index → that chain's closed stages, in file order.
            let mut instances: std::collections::BTreeMap<usize, Vec<&TraceEvent>> =
                std::collections::BTreeMap::new();
            for event in &trace.events {
                if let TraceEvent::Temp { instance, .. } = event {
                    instances.entry(*instance).or_default().push(event);
                }
            }
            for (instance, stages) in instances {
                tid += 1;
                let name = format!("{} / {} #{instance}", key.method, key.column);
                events.push(metadata(pid, tid, "thread_name", name));
                let mut ts_us = 0f64;
                for stage in stages {
                    let TraceEvent::Temp {
                        temp,
                        evals,
                        proposals,
                        ended_by,
                        temperature,
                        wall_ms,
                        ..
                    } = stage
                    else {
                        unreachable!("only Temp events are collected");
                    };
                    let dur_us = if wall_ms.is_finite() {
                        (wall_ms.max(0.0)) * 1e3
                    } else {
                        0.0
                    };
                    let mut args = vec![
                        ("evals", (*evals).into()),
                        ("proposals", (*proposals).into()),
                        ("ended_by", ended_by.as_str().into()),
                    ];
                    if temperature.is_finite() {
                        args.push(("temperature", (*temperature).into()));
                    }
                    events.push(json_object! {
                        "ph": "X", "pid": pid, "tid": tid, "ts": micros(ts_us),
                        "dur": micros(dur_us), "name": format!("t{temp}"), "cat": "stage",
                        "args": Json::obj(args),
                    });
                    ts_us += dur_us;
                }
            }
        }
    }
    json_object! { "displayTimeUnit": "ms", "traceEvents": Json::Arr(events) }.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::load_str;
    use crate::telemetry::{CellFailure, CellKey};
    use crate::trace;
    use anneal_core::Budget;

    fn cell(table: &str, method: &str, column: &str, reduction: f64) -> CellRecord {
        let mut r = CellRecord::empty(
            CellKey::new(table, method, column),
            "Figure1".into(),
            Budget::evaluations(1500),
            1985,
        );
        r.instances = 2;
        r.reduction = reduction;
        r.evals = 3000;
        r.wall_ms = 10.0;
        r.per_temp.push(TempAggregate {
            temp: 0,
            evals: 3000,
            proposals: 100,
            accepted_downhill: 40,
            accepted_uphill: 20,
            rejected_uphill: 40,
            ended_budget: 2,
            ended_equilibrium: 0,
            ended_exchange: 0,
            swap_attempts: 0,
            swap_accepts: 0,
            temperature: 4.0,
            target_acceptance: f64::NAN,
        });
        r
    }

    fn checkpoint(cells: Vec<CellRecord>) -> Checkpoint {
        Checkpoint {
            meta: None,
            cells,
            events: Vec::new(),
            torn: false,
        }
    }

    #[test]
    fn sparkline_maps_range_to_ramp() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
        assert_eq!(sparkline(&[5.0, 5.0]), "▁▁", "flat series uses the floor");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn acceptance_rate_prefers_proposals() {
        let agg = TempAggregate {
            proposals: 200,
            accepted_downhill: 30,
            accepted_uphill: 20,
            rejected_uphill: 10,
            ..TempAggregate::default()
        };
        assert_eq!(acceptance_rate(&agg), Some(25.0));
        assert_eq!(acceptance_rate(&TempAggregate::default()), None);
    }

    #[test]
    fn report_has_acceptance_rows_for_every_method() {
        let cells = vec![
            cell("table4.1", "g = 1", "6 sec", 2000.0),
            cell("table4.1", "g = 1", "12 sec", 2100.0),
            cell("table4.1", "Metropolis", "6 sec", 1900.0),
        ];
        let report = render_report(&checkpoint(cells), &[]);
        assert!(report.contains("## table4.1"), "{report}");
        assert!(report.contains("### Acceptance rate vs temperature"));
        assert!(report.contains("| g = 1 | 60.0% |"), "{report}");
        assert!(report.contains("| Metropolis | 60.0% |"), "{report}");
    }

    #[test]
    fn report_checks_the_paper_claim() {
        let cells = vec![
            cell("table4.1", "g = 1", "6 sec", 2000.0),
            cell("table4.1", "Metropolis", "6 sec", 1900.0),
            cell("table4.1", "Six Temperature Annealing", "6 sec", 2050.0),
        ];
        let report = render_report(&checkpoint(cells), &[]);
        assert!(report.contains("### Paper claim"), "{report}");
        assert!(
            report.contains("| 6 sec | Metropolis | 2000 | 1900 | g = 1 wins |"),
            "{report}"
        );
        assert!(
            report.contains("| 6 sec | Six Temperature Annealing | 2000 | 2050 | annealing wins |"),
            "{report}"
        );
    }

    #[test]
    fn report_lists_failures() {
        let mut bad = cell("table4.1", "g = 1", "6 sec", 0.0);
        bad.failures.push(CellFailure {
            instance: 1,
            seed: 7,
            message: "boom".into(),
        });
        let report = render_report(&checkpoint(vec![bad]), &[]);
        assert!(report.contains("## Failures"));
        assert!(report.contains("instance 1 (seed 7"), "{report}");
    }

    #[test]
    fn report_renders_trace_sections() {
        let text = "{\"trace\":\"anneal-chain-trace\",\"version\":3,\"table\":\"table4.1\",\
                    \"method\":\"g = 1\",\"column\":\"6 sec\",\"strategy\":\"Figure1\",\
                    \"budget\":\"1500 evals\",\"base_seed\":1985}\n\
                    {\"event\":\"temp\",\"instance\":0,\"temp\":0,\"evals\":10,\"proposals\":10,\
                    \"accepted_downhill\":1,\"accepted_uphill\":1,\"rejected_uphill\":8,\
                    \"swap_attempts\":0,\"swap_accepts\":0,\"temperature\":null,\
                    \"target_acceptance\":null,\"ended_by\":\"budget\",\"wall_ms\":3.5}\n\
                    {\"event\":\"sample\",\"instance\":0,\"evals\":1,\"cost\":100}\n\
                    {\"event\":\"sample\",\"instance\":0,\"evals\":5,\"cost\":60}\n";
        let traces = vec![trace::parse_str(text).unwrap()];
        let cells = vec![cell("table4.1", "g = 1", "6 sec", 2000.0)];
        let report = render_report(&checkpoint(cells), &traces);
        assert!(report.contains("### Time per temperature"), "{report}");
        // 3.5 ms lands in the log-linear bucket whose lower bound is
        // 3.328 ms, so both stage quantiles render as 3.33.
        assert!(
            report.contains("| t0 | 3.5 | 3.33 | 3.33 | 100.0% |"),
            "{report}"
        );
        assert!(report.contains("### Energy trajectories"), "{report}");
        assert!(report.contains("100 → 60"), "{report}");
    }

    #[test]
    fn chrome_trace_exporter_matches_the_golden_output() {
        let text = "{\"trace\":\"anneal-chain-trace\",\"version\":3,\"table\":\"table4.1\",\
                    \"method\":\"g = 1\",\"column\":\"6 sec\",\"strategy\":\"Figure1\",\
                    \"budget\":\"1500 evals\",\"base_seed\":1985}\n\
                    {\"event\":\"temp\",\"instance\":0,\"temp\":0,\"evals\":10,\"proposals\":10,\
                    \"accepted_downhill\":1,\"accepted_uphill\":1,\"rejected_uphill\":8,\
                    \"swap_attempts\":0,\"swap_accepts\":0,\"temperature\":null,\
                    \"target_acceptance\":null,\"ended_by\":\"budget\",\"wall_ms\":3.5}\n\
                    {\"event\":\"temp\",\"instance\":0,\"temp\":1,\"evals\":20,\"proposals\":25,\
                    \"accepted_downhill\":2,\"accepted_uphill\":0,\"rejected_uphill\":23,\
                    \"swap_attempts\":0,\"swap_accepts\":0,\"temperature\":0.9,\
                    \"target_acceptance\":null,\"ended_by\":\"equilibrium\",\"wall_ms\":1.25}\n\
                    {\"event\":\"temp\",\"instance\":1,\"temp\":0,\"evals\":5,\"proposals\":5,\
                    \"accepted_downhill\":1,\"accepted_uphill\":0,\"rejected_uphill\":4,\
                    \"swap_attempts\":0,\"swap_accepts\":0,\"temperature\":null,\
                    \"target_acceptance\":null,\"ended_by\":\"budget\",\"wall_ms\":2}\n";
        let traces = vec![trace::parse_str(text).unwrap()];
        let json = chrome_trace_json(&traces);
        let expected = concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",",
            "\"args\":{\"name\":\"table4.1\"}},",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",",
            "\"args\":{\"name\":\"g = 1 / 6 sec #0\"}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":3500,\"name\":\"t0\",",
            "\"cat\":\"stage\",\"args\":{\"evals\":10,\"proposals\":10,",
            "\"ended_by\":\"budget\"}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":3500,\"dur\":1250,\"name\":\"t1\",",
            "\"cat\":\"stage\",\"args\":{\"evals\":20,\"proposals\":25,",
            "\"ended_by\":\"equilibrium\",\"temperature\":0.9}},",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",",
            "\"args\":{\"name\":\"g = 1 / 6 sec #1\"}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":0,\"dur\":2000,\"name\":\"t0\",",
            "\"cat\":\"stage\",\"args\":{\"evals\":5,\"proposals\":5,",
            "\"ended_by\":\"budget\"}}",
            "]}"
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn supervisor_section_counts_events() {
        use crate::telemetry::SupervisorEvent;
        let mut cp = checkpoint(vec![cell("table4.1", "g = 1", "6 sec", 2000.0)]);
        cp.events = vec![
            SupervisorEvent::new(
                "restart",
                Some(CellKey::new("table4.1", "g = 1", "6 sec")),
                "attempt 2: worker died on signal 6".to_string(),
            ),
            SupervisorEvent::new("drain", None, "signal 15".to_string()),
        ];
        let report = render_report(&cp, &[]);
        assert!(report.contains("## Supervisor events"), "{report}");
        assert!(
            report.contains("1 worker restart(s), 0 breaker trip(s), 1 signal drain(s)."),
            "{report}"
        );
        assert!(
            report.contains("- restart `table4.1 / g = 1 / 6 sec` — attempt 2"),
            "{report}"
        );
        assert!(report.contains("- drain — signal 15"), "{report}");
    }

    #[test]
    fn supervisor_section_says_none_when_quiet() {
        use crate::checkpoint::WalMeta;
        let mut cp = checkpoint(vec![cell("table4.1", "g = 1", "6 sec", 2000.0)]);
        cp.meta = Some(WalMeta::new(1985, 1));
        let report = render_report(&cp, &[]);
        assert!(
            report.contains("None: no worker restarts, breaker trips or signal drains."),
            "{report}"
        );
    }

    #[test]
    fn report_reads_a_real_wal_line() {
        let header = crate::checkpoint::WalMeta::new(1985, 1).header_line();
        let line = cell("table4.1", "g = 1", "6 sec", 1.5).to_json();
        let cp = load_str(format!("{header}\n{line}\n")).unwrap();
        let report = render_report(&cp, &[]);
        assert!(report.contains("1 cells"), "{report}");
    }

    #[test]
    fn report_renders_temperature_section_with_targets() {
        // One adaptive cell: two closed stages, temperature sum 4.0
        // (mean 2.0), target sum 0.8 (mean 40%), observed acceptance 60%.
        let mut adaptive = cell("table4.1", "Adaptive", "6 sec", 2000.0);
        adaptive.per_temp[0].target_acceptance = 0.8;
        let plain = cell("table4.1", "g = 1", "6 sec", 1900.0);
        let report = render_report(&checkpoint(vec![adaptive, plain]), &[]);
        assert!(
            report.contains("### Stage temperature and controller targets"),
            "{report}"
        );
        assert!(
            report.contains("| Adaptive | 2.000 (60%→40%) |"),
            "{report}"
        );
        // No controller → temperature only, no target annotation.
        assert!(report.contains("| g = 1 | 2.000 |"), "{report}");

        // NaN temperature sums keep the section out.
        let mut old = cell("t", "g = 1", "6 sec", 1.0);
        old.per_temp[0].temperature = f64::NAN;
        let report = render_report(&checkpoint(vec![old]), &[]);
        assert!(!report.contains("Stage temperature"), "{report}");
    }

    #[test]
    fn mean_temperature_and_target_handle_missing_data() {
        let agg = TempAggregate {
            ended_budget: 2,
            temperature: 5.0,
            target_acceptance: 1.0,
            ..TempAggregate::default()
        };
        assert_eq!(mean_temperature(&agg), Some(2.5));
        assert_eq!(mean_target_acceptance(&agg), Some(50.0));
        let nan = TempAggregate {
            ended_budget: 2,
            temperature: f64::NAN,
            target_acceptance: f64::NAN,
            ..TempAggregate::default()
        };
        assert_eq!(mean_temperature(&nan), None);
        assert_eq!(mean_target_acceptance(&nan), None);
        // No closed stage → no mean, even with a finite sum.
        let idle = TempAggregate {
            temperature: 5.0,
            ..TempAggregate::default()
        };
        assert_eq!(mean_temperature(&idle), None);
    }

    #[test]
    fn report_renders_swap_section_for_replica_exchange_cells() {
        let mut rec = cell("table4.1", "Metropolis", "6 sec", 1500.0);
        rec.per_temp[0].swap_attempts = 10;
        rec.per_temp[0].swap_accepts = 4;
        rec.per_temp.push(TempAggregate {
            temp: 1,
            evals: 100,
            proposals: 100,
            ..TempAggregate::default()
        });
        let report = render_report(&checkpoint(vec![rec]), &[]);
        assert!(
            report.contains("### Replica-exchange swap acceptance vs temperature"),
            "{report}"
        );
        assert!(
            report.contains("| Metropolis | 40.0% (4/10) | — |"),
            "{report}"
        );
        // Cells without swaps keep the section out entirely.
        let plain = render_report(&checkpoint(vec![cell("t", "g = 1", "6 sec", 1.0)]), &[]);
        assert!(!plain.contains("swap acceptance"), "{plain}");
    }

    #[test]
    fn old_schema_wal_renders_without_nan() {
        // A record with no wall_ms, reduction or stage temperature (all
        // null) beside one whose temperature is finite. The report must say
        // `n/a`, never `NaN`.
        let header = crate::checkpoint::WalMeta::new(1985, 1).header_line();
        let line = cell("table4.1", "g = 1", "6 sec", 2000.0)
            .to_json()
            .to_string()
            .replace("\"reduction\":2000", "\"reduction\":null")
            .replace("\"wall_ms\":10", "\"wall_ms\":null")
            .replace("\"temperature\":4", "\"temperature\":null");
        let baseline = cell("table4.1", "Metropolis", "6 sec", 1900.0).to_json();
        let cp = load_str(format!("{header}\n{line}\n{baseline}\n")).unwrap();
        assert!(cp.cells[0].reduction.is_nan(), "null loads as NaN");
        assert!(cp.cells[0].per_temp[0].temperature.is_nan());
        assert_eq!(cp.cells[0].per_temp[0].swap_attempts, 0);
        let report = render_report(&cp, &[]);
        assert!(!report.contains("NaN"), "{report}");
        assert!(report.contains("n/a s of chain time"), "{report}");
        let temps = report.split("### Stage temperature").nth(1);
        assert!(
            temps.is_some_and(|t| t.contains("| g = 1 | — |")),
            "{report}"
        );
        assert!(
            report.contains("| 6 sec | Metropolis | n/a | 1900 | n/a |"),
            "{report}"
        );
    }

    fn bench_json(kernels: &[(&str, f64)]) -> String {
        let body: Vec<String> = kernels
            .iter()
            .map(|(n, ns)| format!("{{\"name\":\"{n}\",\"ns_per_iter\":{ns}}}"))
            .collect();
        format!(
            "{{\"schema\":\"annealbench-bench-v1\",\"kernels\":[{}]}}",
            body.join(",")
        )
    }

    #[test]
    fn compare_flags_regressions_over_threshold() {
        let old = bench_json(&[("a", 100.0), ("b", 100.0), ("gone", 5.0)]);
        let new = bench_json(&[("a", 105.0), ("b", 150.0), ("fresh", 9.0)]);
        let cmp = compare_benchmarks(&old, &new, 10.0).unwrap();
        assert_eq!(cmp.regressions().len(), 1);
        assert_eq!(cmp.regressions()[0].name, "b");
        assert_eq!(cmp.removed, vec!["gone".to_string()]);
        let md = render_compare(&cmp);
        assert!(
            md.contains("| b | 100.0 | 150.0 | +50.0% | **REGRESSED** |"),
            "{md}"
        );
        assert!(md.contains("| a | 100.0 | 105.0 | +5.0% | ok |"), "{md}");
        assert!(md.contains("| fresh | — | 9.0 | — | new |"), "{md}");
        assert!(md.contains("| gone | — | — | — | removed |"), "{md}");
        assert!(md.contains("1 kernel(s) regressed"), "{md}");
    }

    #[test]
    fn compare_is_clean_when_nothing_regressed() {
        let old = bench_json(&[("a", 100.0)]);
        let new = bench_json(&[("a", 80.0)]);
        let cmp = compare_benchmarks(&old, &new, 10.0).unwrap();
        assert!(cmp.regressions().is_empty());
        let md = render_compare(&cmp);
        assert!(md.contains("No kernel regressed"), "{md}");
        assert!(md.contains("improved"), "{md}");
    }

    #[test]
    fn compare_rejects_foreign_documents() {
        assert!(compare_benchmarks("{}", "{}", 10.0).is_err());
        let good = bench_json(&[("a", 1.0)]);
        assert!(compare_benchmarks(&good, "not json", 10.0).is_err());
    }
}

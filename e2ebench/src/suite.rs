//! The three table-suite workloads: `repro` regenerating paper tables,
//! timed end to end, and the traced run that splits one suite's wall into
//! layers.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use anneal_core::schedule::adaptive::DEFAULT_PROBE_SAMPLES;
use anneal_experiments::checkpoint::{self, create_wal, Json, WalMeta};
use anneal_experiments::cli::{self, Isolation};
use anneal_experiments::{tables, CellRecord, SuiteConfig, TelemetryLog};

use crate::program::{run_wal_child, Env, WalRun};
use crate::report::{Outcome, Tracer};
use crate::stats::{median, quantile};
use crate::{golden, layers, Opts};

/// Seeds an end-to-end suite run cycles through.
const SEEDS_PER_RUN: u64 = 2;

/// Set-up probes before each measured invocation.
const PROBES_PER_INVOCATION: usize = 4;

/// One table-suite workload. Its settings are written once, as `repro`
/// arguments; everything else reads them back through `cli::parse`.
#[derive(Debug)]
pub struct Suite {
    /// Workload name.
    pub name: &'static str,
    /// `--scale` budget divisor.
    pub scale: u64,
    /// `repro` flags besides seed, scale and telemetry, then the
    /// experiments in run order.
    pub args: &'static [&'static str],
    /// Table cells one invocation must record.
    pub cells: usize,
}

/// The suite workloads.
pub const SUITES: [Suite; 3] = [
    // Chain-bound two-pin GOLA under Figure 1 and Figure 2.
    Suite {
        name: "suite_gola",
        scale: 20,
        args: &["--threads", "2", "table4.1", "table4.2a", "table4.2b"],
        cells: 128,
    },
    // Multi-pin NOLA from random and from Goto starts, with the
    // per-instance adaptive probe, one thread. At scale 1 the probe is
    // 13-26% of each instance's budget; larger divisors would let it
    // swallow the chain.
    Suite {
        name: "suite_nola",
        scale: 1,
        args: &[
            "--schedule",
            "adaptive",
            "--threads",
            "1",
            "table4.2c",
            "table4.2d",
        ],
        cells: 78,
    },
    // Harness-bound: one supervised worker process per cell of all five
    // tables, each worker rebuilding its table's instance set.
    Suite {
        name: "suite_process",
        scale: 100,
        args: &[
            "--isolation",
            "process",
            "--threads",
            "1",
            "table4.1",
            "table4.2a",
            "table4.2b",
            "table4.2c",
            "table4.2d",
        ],
        cells: 206,
    },
];

impl Suite {
    /// `repro` arguments for one invocation writing its WAL to `wal`.
    pub fn args(&self, seed: u64, scale: u64, wal: &Path) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "--seed".into(),
            seed.to_string(),
            "--scale".into(),
            scale.to_string(),
            "--telemetry".into(),
            wal.display().to_string(),
        ];
        args.extend(self.args.iter().map(|s| s.to_string()));
        args
    }

    fn scale_for(&self, opts: &Opts) -> u64 {
        if opts.smoke {
            1000
        } else {
            self.scale
        }
    }
}

/// One cell as the goldens pin it: `table, method, column, reduction, evals`.
pub fn cell_line(r: &CellRecord) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}",
        r.key.table, r.key.method, r.key.column, r.reduction, r.evals
    )
}

/// Loads and checks one invocation's WAL: clean exit, the expected cell
/// count at the right seed and scale, no failed or lost cell. Returns the
/// records when the WAL is readable.
fn check_invocation(
    out: &mut Outcome,
    suite: &Suite,
    seed: u64,
    scale: u64,
    run: &WalRun,
    wal: &Path,
) -> Vec<CellRecord> {
    out.attempted += suite.cells as u64;
    out.check(run.status.success(), "exit status", || {
        format!("repro ended with {}", run.status)
    });
    let ck = match checkpoint::load(&wal.display().to_string()) {
        Ok(ck) => ck,
        Err(e) => {
            out.failed += suite.cells as u64;
            out.check(false, "WAL readable", || e);
            return Vec::new();
        }
    };
    let meta_ok = ck
        .meta
        .as_ref()
        .is_some_and(|m| m.seed == seed && m.scale == scale);
    out.check(meta_ok && !ck.torn, "WAL header", || {
        format!("meta {:?}, torn {}", ck.meta, ck.torn)
    });
    let ok = ck.cells.iter().filter(|c| c.ok()).count();
    out.failed += suite.cells.saturating_sub(ok) as u64;
    out.check(ck.cells.len() == suite.cells, "cell count", || {
        format!("expected {} cells, WAL has {}", suite.cells, ck.cells.len())
    });
    out.check(ok == ck.cells.len(), "failed cells", || {
        format!("{} of {} cells failed", ck.cells.len() - ok, ck.cells.len())
    });
    let bad = ck.cells.iter().find(|c| c.evals == 0 || c.reduction < 0.0);
    out.check(bad.is_none(), "cell values", || {
        format!(
            "cell {} has no evals or a negative reduction",
            bad.expect("found").key
        )
    });
    ck.cells
}

/// Checks the first invocation's cells against the golden at the golden
/// seed (or rewrites it under `--bless`). The header names every `repro`
/// argument, so a golden left over from other settings fails as stale.
fn check_golden(out: &mut Outcome, suite: &Suite, opts: &Opts, scale: u64, lines: &[String]) {
    if opts.seed != golden::GOLDEN_SEED || opts.smoke {
        return;
    }
    let size = format!("scale={scale} {}", suite.args.join(" "));
    let header = golden::header(suite.name, opts.seed, &size);
    let result = golden::check(suite.name, &header, lines, opts.bless);
    out.check(result.is_ok(), "golden", || result.unwrap_err());
}

/// The cell records a tailed run's WAL received, each with its arrival
/// time since spawn and its latency: the gap since the previous cell, or
/// since the header for the first.
fn arrivals(run: &WalRun) -> Result<Vec<(Duration, Duration, CellRecord)>, String> {
    let mut cells = Vec::new();
    let mut prev = run.setup;
    for (at, line) in &run.lines {
        let value = Json::parse(line)?;
        if value.get("table").is_none() {
            continue; // a supervisor event, not a cell
        }
        cells.push((*at, *at - prev, checkpoint::record_from_json(&value)?));
        prev = *at;
    }
    Ok(cells)
}

/// The end-to-end run: back-to-back invocations, each after a few set-up
/// probes, until the next one would run past `opts.seconds`. Invocation
/// `k` runs seed `seed + k mod 2`: the quality of one 30-instance set
/// varies by about 10% from seed to seed, two sets per run steady that,
/// and a repeated seed must reproduce its cells exactly. Every run covers
/// both seeds, however slow, so that `reduction_sum` always sums the same
/// cells.
pub fn e2e(env: &Env, suite: &Suite, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let scale = suite.scale_for(opts);
    let seeds = if opts.smoke { 1 } else { SEEDS_PER_RUN };
    let args = |k: u64, wal: &Path| suite.args(opts.seed.wrapping_add(k % seeds), scale, wal);
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut rss = Vec::new();
    let mut evals = 0u64;
    let mut per_seed: Vec<Vec<String>> = Vec::new();
    let started = Instant::now();
    for k in 0.. {
        for _ in 0..PROBES_PER_INVOCATION {
            let wal = env.fresh("probe.jsonl");
            match run_wal_child(env.repro_cmd(&args(k, &wal)), &wal, false, true) {
                Ok(probe) => setups.push(probe.setup.as_secs_f64()),
                Err(e) => out.check(false, "set-up probe", || e),
            }
        }
        let wal = env.fresh("wal.jsonl");
        let run = match run_wal_child(env.repro_cmd(&args(k, &wal)), &wal, true, false) {
            Ok(run) => run,
            Err(e) => {
                out.attempted += suite.cells as u64;
                out.failed += suite.cells as u64;
                out.check(false, "invocation", || e);
                break;
            }
        };
        let seed = opts.seed.wrapping_add(k % seeds);
        let cells = check_invocation(&mut out, suite, seed, scale, &run, &wal);
        match arrivals(&run) {
            Ok(arrived) => latencies.extend(arrived.iter().map(|a| a.1.as_secs_f64() * 1e3)),
            Err(e) => out.check(false, "tailed WAL", || e),
        }
        let lines: Vec<String> = cells.iter().map(cell_line).collect();
        evals += cells.iter().map(|c| c.evals).sum::<u64>();
        walls.push(run.wall.as_secs_f64());
        setups.push(run.setup.as_secs_f64());
        rss.push(run.peak_rss_kb as f64 / 1024.0);
        match per_seed.get((k % seeds) as usize) {
            None => per_seed.push(lines),
            Some(first) => out.check(*first == lines, "determinism", || {
                format!("two invocations at seed {seed} recorded different cells")
            }),
        }
        let next_ends = started.elapsed().as_secs_f64() + median(&walls);
        if k + 1 >= seeds && (opts.smoke || next_ends > opts.seconds) {
            break;
        }
    }
    check_golden(
        &mut out,
        suite,
        opts,
        scale,
        per_seed.first().map_or(&[], |l| l),
    );
    let reduction: f64 = per_seed
        .iter()
        .flatten()
        .filter_map(|l| l.split('\t').nth(3)?.parse::<f64>().ok())
        .sum();
    let busy: f64 = walls.iter().sum();
    out.set("wall_s", median(&walls));
    out.set("evals_per_s", evals as f64 / busy);
    out.set("ops_per_s", latencies.len() as f64 / busy);
    out.set("latency_p50_ms", median(&latencies));
    out.set("setup_s", median(&setups));
    out.set("reduction_sum", reduction);
    out.set("peak_rss_mb", median(&rss));
    out
}

/// A WAL writer that timestamps every flush: the telemetry log flushes
/// once per cell record, so the stamps are the cell completion times.
struct Stamped {
    inner: Box<dyn Write + Send>,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()?;
        self.stamps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Instant::now());
        Ok(())
    }
}

fn run_table(table: &str, config: &SuiteConfig, log: &TelemetryLog) {
    match table {
        "table4.1" => tables::table4_1::run_logged(config, log),
        "table4.2a" => tables::table4_2a::run_logged(config, log),
        "table4.2b" => tables::table4_2b::run_logged(config, log),
        "table4.2c" => tables::table4_2c::run_logged(config, log),
        "table4.2d" => tables::table4_2d::run_logged(config, log),
        other => unreachable!("no suite runs {other}"),
    };
}

/// What the traced run of a suite measured, before it becomes shares.
struct Split {
    wall: f64,
    setup: f64,
    records: Vec<CellRecord>,
    /// Elapsed time of each cell, seconds.
    cell_s: Vec<f64>,
    /// Instance-set construction the run paid, seconds.
    instances: f64,
    /// Instance sets built.
    builds: usize,
    /// Supervisor overhead per cell (process isolation), seconds.
    overhead_s: Vec<f64>,
}

/// The traced run: one untraced `repro` invocation for reference, then
/// the same suite with benchmark-side spans (in process, or for process
/// isolation by tailing the child's WAL), then the single-layer timings.
pub fn traced(env: &Env, suite: &Suite, opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let scale = suite.scale_for(opts);
    let wal1 = env.fresh("traced.jsonl");
    let cli = match cli::parse(&suite.args(opts.seed, scale, &wal1)) {
        Ok(cli) => cli,
        Err(e) => {
            out.check(false, "suite arguments", || e);
            return out;
        }
    };
    let tables = &cli.experiments;
    let process = cli.isolation == Isolation::Process;
    let adaptive = cli.config.schedule.is_some();
    let wal0 = env.fresh("untraced.jsonl");
    let reference = match run_wal_child(
        env.repro_cmd(&suite.args(opts.seed, scale, &wal0)),
        &wal0,
        false,
        false,
    ) {
        Ok(run) => {
            let cells = check_invocation(&mut out, suite, opts.seed, scale, &run, &wal0);
            Some((run.wall.as_secs_f64(), cells))
        }
        Err(e) => {
            out.check(false, "invocation", || e);
            None
        }
    };
    let split = if process {
        let t0 = Instant::now();
        let cmd = env.repro_cmd(&suite.args(opts.seed, scale, &wal1));
        run_wal_child(cmd, &wal1, true, false).and_then(|run| {
            check_invocation(&mut out, suite, opts.seed, scale, &run, &wal1);
            traced_process(&run, t0, tables, opts.seed, tracer)
        })
    } else {
        traced_in_process(&cli.config, tables, scale, &wal1, tracer)
    };
    let split = match split {
        Ok(split) => split,
        Err(e) => {
            out.check(false, "traced run", || e);
            return out;
        }
    };
    let Some((untraced_wall, cells0)) = reference else {
        return out;
    };
    let lines0: Vec<String> = cells0.iter().map(cell_line).collect();
    let lines1: Vec<String> = split.records.iter().map(cell_line).collect();
    out.check(lines0 == lines1, "traced run matches repro", || {
        "the traced run recorded different cells than the untraced repro run".into()
    });
    check_golden(&mut out, suite, opts, scale, &lines0);

    layers::kernel_metrics(
        &mut out,
        opts.seed,
        tables.iter().all(|t| layers::is_nola(t)),
    );
    let meta = WalMeta::new(opts.seed, scale);
    let append_us = match layers::append_us(&split.records, &env.fresh("append.jsonl"), &meta) {
        Ok(us) => us,
        Err(e) => {
            out.check(false, "WAL append", || e);
            0.0
        }
    };

    let recs = &split.records;
    let threads = cli.config.threads as f64;
    let inst_wall: f64 = recs.iter().map(|r| r.wall_ms / 1e3).sum();
    let evals: u64 = recs.iter().map(|r| r.evals).sum();
    let instances_run: usize = recs.iter().map(|r| r.instances).sum();
    let probe_s = if adaptive {
        instances_run as f64 * out.metrics["adaptive.probe_us"] / 1e6 / threads
    } else {
        0.0
    };
    let chain_s = inst_wall / threads - probe_s;
    let checkpoint_s = recs.len() as f64 * append_us / 1e6;
    let supervisor_s = if process {
        split.overhead_s.iter().sum::<f64>() - split.instances - checkpoint_s
    } else {
        0.0
    };
    let w = split.wall;
    let shares = [
        ("setup.share", split.setup / w),
        ("instances.share", split.instances / w),
        ("strategy.chain_share", chain_s / w),
        ("adaptive.share", probe_s / w),
        ("checkpoint.share", checkpoint_s / w),
        ("supervisor.share", supervisor_s / w),
    ];
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    for (name, share) in shares {
        out.set(name, share);
    }
    out.set("unattributed_share", 1.0 - attributed);
    out.set("traced_wall_s", w);
    out.set("trace_overhead_share", (w - untraced_wall) / untraced_wall);

    let per_strategy = |name: &str| {
        let (wall, evals) = recs
            .iter()
            .filter(|r| r.strategy == name)
            .fold((0.0, 0u64), |(w, e), r| (w + r.wall_ms, e + r.evals));
        if evals == 0 {
            0.0
        } else {
            wall * 1e6 / evals as f64
        }
    };
    let accepted: u64 = recs
        .iter()
        .map(|r| r.accepted_downhill + r.accepted_uphill)
        .sum();
    let proposals: u64 = recs
        .iter()
        .flat_map(|r| &r.per_temp)
        .map(|t| t.proposals)
        .sum();
    let probe_evals = if adaptive {
        (instances_run as u64 * DEFAULT_PROBE_SAMPLES) as f64
    } else {
        0.0
    };
    let cell_ms: Vec<f64> = split.cell_s.iter().map(|s| s * 1e3).collect();
    let overhead_ms: Vec<f64> = split.overhead_s.iter().map(|s| s * 1e3).collect();
    out.set(
        "accept.acceptance_ratio",
        accepted as f64 / proposals.max(1) as f64,
    );
    out.set("strategy.evals", evals as f64);
    out.set("strategy.fig1_ns_per_eval", per_strategy("Figure1"));
    out.set("strategy.fig2_ns_per_eval", per_strategy("Figure2"));
    out.set(
        "adaptive.probe_eval_share",
        probe_evals / (probe_evals + evals as f64),
    );
    out.set(
        "instances.build_ms",
        split.instances * 1e3 / split.builds.max(1) as f64,
    );
    out.set("runner.cells", recs.len() as f64);
    out.set("runner.cell_ms_p50", median(&cell_ms));
    out.set("runner.cell_ms_p90", quantile(&cell_ms, 0.9));
    out.set(
        "runner.failed_cells",
        recs.iter().filter(|r| !r.ok()).count() as f64,
    );
    out.set(
        "scheduler.utilization",
        inst_wall / (threads * split.cell_s.iter().sum::<f64>()),
    );
    out.set("checkpoint.append_us", append_us);
    out.set(
        "checkpoint.wal_bytes",
        std::fs::metadata(&wal1).map_or(0, |m| m.len()) as f64,
    );
    out.set("supervisor.cell_overhead_ms_p50", median(&overhead_ms));
    out.set(
        "supervisor.cell_overhead_ms_p90",
        quantile(&overhead_ms, 0.9),
    );
    out
}

/// The suite in this process, with spans around each instance-set build
/// and each `run_logged` call, and cell completions stamped by the WAL
/// writer. The traced wall is set-up plus the table spans; the benchmark's
/// own build spans only price the build each table repeats inside.
fn traced_in_process(
    config: &SuiteConfig,
    tables: &[String],
    scale: u64,
    wal: &Path,
    tracer: &mut Tracer,
) -> Result<Split, String> {
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let writer = create_wal(
        &wal.display().to_string(),
        &WalMeta::new(config.seed, scale),
    )?;
    let log = TelemetryLog::with_writer(Box::new(Stamped {
        inner: writer,
        stamps: Arc::clone(&stamps),
    }));
    let setup = t0.elapsed();
    tracer.push("setup", "setup", 0, 0, t0, setup);
    let mut instances = Duration::ZERO;
    let mut table_spans = Vec::new();
    for table in tables {
        let start = Instant::now();
        std::hint::black_box(layers::build_set(table, config.seed));
        let build = start.elapsed();
        tracer.push(
            format!("{table} instances"),
            "instances",
            0,
            0,
            start,
            build,
        );
        instances += build;
        let start = Instant::now();
        run_table(table, config, &log);
        let dur = start.elapsed();
        tracer.push(table.as_str(), "table", 0, 0, start, dur);
        table_spans.push((start, dur));
    }
    let wall = setup + table_spans.iter().map(|(_, d)| *d).sum::<Duration>();
    let records = log.records();
    let stamps = stamps
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if stamps.len() != records.len() {
        return Err(format!(
            "{} WAL flushes for {} records",
            stamps.len(),
            records.len()
        ));
    }
    let mut cell_s = Vec::with_capacity(records.len());
    let mut prev = t0;
    for (i, (r, &at)) in records.iter().zip(&stamps).enumerate() {
        let table_start = table_spans[tables
            .iter()
            .position(|t| *t == r.key.table)
            .expect("records come from the suite's tables")]
        .0;
        let start = prev.max(table_start);
        tracer.push(
            r.key.to_string(),
            "cell",
            1,
            i as u64 + 1,
            start,
            at - start,
        );
        cell_s.push((at - start).as_secs_f64());
        prev = at;
    }
    Ok(Split {
        wall: wall.as_secs_f64(),
        setup: setup.as_secs_f64(),
        records,
        cell_s,
        instances: instances.as_secs_f64(),
        builds: tables.len(),
        overhead_s: Vec::new(),
    })
}

/// The process-isolated suite, from a `repro` child spawned at `t0` whose
/// WAL was tailed: the supervisor re-execs `repro` per cell, so it cannot
/// run in this process. A cell's arrival gap minus its own `wall_ms` is
/// what the supervisor, the worker's start-up and its instance rebuild
/// cost.
fn traced_process(
    run: &WalRun,
    t0: Instant,
    tables: &[String],
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Split, String> {
    tracer.push("repro", "process", 0, 0, t0, run.wall);
    tracer.push("setup", "setup", 0, 0, t0, run.setup);
    let build_s: Vec<(&str, f64)> = tables
        .iter()
        .map(|t| (t.as_str(), layers::build_ms(t, seed) / 1e3))
        .collect();
    let mut records = Vec::new();
    let mut cell_s = Vec::new();
    let mut overhead_s = Vec::new();
    let mut instances = 0.0;
    for (at, gap, r) in arrivals(run)? {
        tracer.push(
            r.key.to_string(),
            "cell",
            1,
            records.len() as u64 + 1,
            t0 + at - gap,
            gap,
        );
        instances += build_s
            .iter()
            .find(|(t, _)| *t == r.key.table)
            .map_or(0.0, |(_, s)| *s);
        cell_s.push(gap.as_secs_f64());
        overhead_s.push(gap.as_secs_f64() - r.wall_ms / 1e3);
        records.push(r);
    }
    Ok(Split {
        wall: run.wall.as_secs_f64(),
        setup: run.setup.as_secs_f64(),
        builds: records.len(),
        records,
        cell_s,
        instances,
        overhead_s,
    })
}

//! `repro` — regenerate the paper's tables from the command line.
//!
//! ```text
//! repro [OPTIONS] <EXPERIMENT>...
//!
//! EXPERIMENTS:
//!   tuning      §4.2.1 temperature sweep
//!   table4.1    GOLA, random starts, 20 g classes + baselines
//!   table4.2a   GOLA from Goto arrangements
//!   table4.2b   Figure 1 vs Figure 2 at 180 sec
//!   table4.2c   NOLA, random starts
//!   table4.2d   NOLA from Goto arrangements
//!   adaptive    grid-swept vs feedback schedules at equal budget incl. tuning
//!   partition   circuit-partition extension ([NAHA84])
//!   tsp         TSP extension ([GOLD84]/[NAHA84])
//!   ablation    design-choice ablations (gate period, schedule length, n)
//!   trajectory  best-density convergence series for the headline methods
//!   diagnostics chain-behaviour statistics for the full roster
//!   all         everything above
//!
//! OPTIONS:
//!   --scale N         divide every budget by N (default 1 = paper-faithful)
//!   --seed N          base seed (default 1985)
//!   --csv             emit CSV instead of aligned text
//!   --threads N       OS threads per table cell (default 1; totals identical)
//!   --strategy NAME   run the Figure-1 tables under another control strategy:
//!                     figure1 (default), figure2, rejectionless, or
//!                     replica-exchange (parallel tempering: one chain per
//!                     temperature rung, adjacent rungs swapping
//!                     configurations); table4.2b always compares Figure 1
//!                     vs Figure 2 regardless
//!   --schedule MODE   replace every method's grid-swept temperature schedule
//!                     with one derived per instance from a delta-statistics
//!                     probe charged against the run budget: adaptive
//!                     (acceptance-ratio feedback control) or asa
//!                     (ASA-style sqrt-i reannealing, open loop)
//!   --replicas K      replica-exchange only: rebuild each method's ladder to
//!                     K geometric rungs (one chain per rung; K >= 2)
//!   --exchange-interval N
//!                     replica-exchange only: within-chain proposals per rung
//!                     between swap phases (default 64)
//!   --telemetry PATH  stream the telemetry WAL (one JSON-lines record per
//!                     table cell) to PATH, isolate cell panics as failed
//!                     cells, and print an end-of-suite summary to stderr
//!   --resume WAL      replay completed cells from a prior run's WAL; only
//!                     missing or failed cells are recomputed, and the
//!                     finished tables are bitwise-identical to a clean run.
//!                     --telemetry must name another file: a new WAL
//!                     would erase the one being replayed
//!   --trace DIR       write one chain-trace JSONL file per table cell into
//!                     DIR (temperature stages, energy samples, best-so-far
//!                     improvements, stop events); results stay
//!                     bitwise-identical to an untraced run
//!   --progress        live cells-done ticker on stderr (count, %, ETA,
//!                     retries, failures)
//!   --metrics PATH    write the process metrics snapshot (counters and
//!                     histograms, JSON) to PATH at exit
//!   --faults SPEC     deterministic fault injection, e.g.
//!                     "seed=7,panic=0.05,io=0.02,delay=0.1,delay_ms=200"
//!                     (also via the ANNEAL_FAULTS environment variable)
//!   --retries N       attempts per cell before it is recorded as failed
//!                     (default 1 = no retries)
//!   --backoff-ms N    base delay before a retry, doubled per attempt
//!   --watchdog-ms N   per-instance wall-clock deadline; see EXPERIMENTS.md
//!   --isolation MODE  thread (default: in-process catch_unwind + watchdog)
//!                     or process: run the table cells in a supervised
//!                     worker process, one for the run — survives aborts,
//!                     OOM kills and true hangs (a worker silent for 2 s is
//!                     presumed wedged and killed), replaces a dead worker
//!                     and retries its cell under the --retries backoff,
//!                     and trips a per-table circuit breaker
//!   --breaker-threshold N
//!                     process isolation: consecutive hard process failures
//!                     in one table before the rest of that table is
//!                     skipped (default 3)
//!   --serve ADDR      serve the live ops endpoints on ADDR (e.g.
//!                     127.0.0.1:9090; port 0 picks a free port):
//!                     GET /metrics (Prometheus text exposition),
//!                     GET /healthz (200 while healthy, 503 once the suite
//!                     is degraded), GET /progress (JSON: per-table cell
//!                     states, ETA, supervisor worker heartbeat ages).
//!                     Absent: nothing binds; results are identical
//!
//! Exit status: 0 on success, 1 on usage or I/O errors (the usage text is
//! printed only for the former), 2 when the suite is
//! degraded (failed cells, tripped breakers or lost telemetry records) — a
//! failure manifest is written next to the WAL in that case. A run ended
//! by SIGINT/SIGTERM drains its in-flight work, leaves a clean resumable
//! WAL, and exits 128 + signal (130 / 143).
//!
//! SUBCOMMANDS:
//!   repro serve ADDR [--queue N] [--job-threads N] [--journal PATH]
//!                     run the annealing job server: the ops endpoints
//!                     above plus POST /jobs, GET /jobs, GET /jobs/:id and
//!                     DELETE /jobs/:id (bounded queue, 429 backpressure,
//!                     crash-safe job journal; see EXPERIMENTS.md "Job
//!                     server"). Drains on SIGINT/SIGTERM, exits
//!                     128 + signal
//!   repro job SPEC.json
//!                     execute one job spec offline and print its result
//!                     record to stdout — byte-identical to the record the
//!                     server stores for the same spec. Exits 5 when the
//!                     job ends failed or cancelled
//! ```

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use anneal_core::json::Json;
use anneal_experiments::supervisor::CellRequest;
use anneal_experiments::{
    ablation, checkpoint, cli, diagnostics, exit_codes, ext_partition, ext_tsp, jsonl, supervisor,
    tables, trajectory, tuning, ChaosWriter, FaultPlan, JobOutcome, JobServer, JobSpec, OpsServer,
    SuiteConfig, Supervisor, SupervisorEvent, Table, TelemetryLog, TraceSink,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match cli::parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", cli::USAGE);
            eprintln!("experiments: {} all", cli::EXPERIMENTS.join(" "));
            return ExitCode::FAILURE;
        }
    };
    run(parsed).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::FAILURE
    })
}

fn run(parsed: cli::Cli) -> Result<ExitCode, String> {
    match &parsed.command {
        Some(cli::Command::Serve(opts)) => return run_serve(opts),
        Some(cli::Command::Job(path)) => return run_job(path),
        None => {}
    }

    // The CLI flag wins over the environment so a chaos run can be narrowed
    // from a shell that exports ANNEAL_FAULTS globally.
    let faults = match parsed.faults {
        Some(plan) => Some(plan),
        None => FaultPlan::from_env()?,
    };

    if parsed.worker {
        return run_worker(&parsed, faults);
    }
    // From here on this is the supervising (or plain) process: wind down
    // gracefully on SIGINT/SIGTERM instead of dying mid-WAL-record.
    supervisor::signals::install();
    let config = parsed.config;

    let resumed = match &parsed.resume {
        Some(path) => {
            let checkpoint = checkpoint::load(path)?;
            if checkpoint.torn {
                eprintln!("resume: dropped a torn final record in {path} (interrupted write)");
            }
            match &checkpoint.meta {
                Some(meta) if meta.seed != config.seed || meta.scale != config.scale.divisor => {
                    eprintln!(
                        "resume: WAL {path} was recorded at seed {} scale {}, current run \
                         uses seed {} scale {}; ignoring its cells",
                        meta.seed, meta.scale, config.seed, config.scale.divisor
                    );
                    Vec::new()
                }
                _ => {
                    let ok = checkpoint.cells.iter().filter(|c| c.ok()).count();
                    eprintln!(
                        "resume: loaded {} cells from {path} ({ok} completed, {} failed \
                         will re-run)",
                        checkpoint.cells.len(),
                        checkpoint.cells.len() - ok
                    );
                    checkpoint.cells
                }
            }
        }
        None => Vec::new(),
    };

    let log = match &parsed.telemetry {
        Some(path) => {
            let meta = checkpoint::WalMeta::new(config.seed, config.scale.divisor);
            let writer = checkpoint::create_wal(path, &meta)?;
            let writer: Box<dyn std::io::Write + Send> = match &faults {
                Some(plan) if plan.io_p > 0.0 => Box::new(ChaosWriter::new(writer, *plan)),
                _ => writer,
            };
            TelemetryLog::with_writer(writer)
        }
        // Resume replay, fault accounting, tracing, the progress ticker
        // and the ops plane all need a live log even without a WAL on
        // disk.
        None if parsed.resume.is_some()
            || faults.is_some()
            || parsed.trace.is_some()
            || parsed.progress
            || parsed.serve.is_some() =>
        {
            TelemetryLog::in_memory()
        }
        None => TelemetryLog::disabled(),
    };
    let trace = match &parsed.trace {
        Some(dir) => Some(TraceSink::new(dir, faults)?),
        None => None,
    };
    let log = log
        .with_faults(faults)
        .with_resume(resumed)
        .with_trace(trace)
        .with_expected(tables::expected_cells(&parsed.experiments, &config))
        .with_ticker(parsed.progress);
    let sup = match parsed.isolation {
        cli::Isolation::Thread => None,
        cli::Isolation::Process => Some(Arc::new(Supervisor::new(
            &config,
            faults.as_ref(),
            parsed.trace.as_deref(),
            parsed.breaker_threshold,
        )?)),
    };
    // The supervisor records every worker's cell into the log, so process
    // isolation needs a live one even without a WAL.
    let log = match &sup {
        Some(_) if !log.is_enabled() => TelemetryLog::in_memory(),
        _ => log,
    };
    let log = log.with_supervisor(sup.clone());
    // The live ops plane serves views of the log, which is the only count
    // of the run. Without --serve nothing binds.
    let log = Arc::new(log);
    let _server = match &parsed.serve {
        Some(addr) => {
            let server = OpsServer::start(addr, Arc::clone(&log), None)?;
            eprintln!("ops: serving on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };

    for exp in &parsed.experiments {
        if supervisor::signals::draining() {
            break;
        }
        for table in dispatch(exp, &config, &log)? {
            if supervisor::signals::draining() {
                // The table is partial (cells were skipped): printing it
                // would look like a result.
                break;
            }
            if parsed.csv {
                print!("{}", table.to_csv());
            } else {
                println!("{table}");
            }
        }
    }
    // The worker is idle now: close its stdin and reap it (an early
    // return does the same when the supervisor is dropped).
    if let Some(sup) = &sup {
        sup.shutdown();
    }

    log.finish_progress();
    if let Some(sig) = supervisor::signals::shutdown_signal() {
        log.log_event(SupervisorEvent::new(
            "drain",
            None,
            format!("signal {sig}: drained in-flight work, WAL left resumable"),
        ));
        eprintln!(
            "interrupted by signal {sig}: in-flight work drained, remaining cells skipped; \
             re-run with --resume to finish"
        );
        return Ok(ExitCode::from(exit_codes::for_signal(sig)));
    }
    if let Some(path) = &parsed.metrics {
        std::fs::write(path, anneal_core::metrics::global().snapshot_json())
            .map_err(|e| format!("cannot write metrics snapshot `{path}`: {e}"))?;
        eprintln!("metrics snapshot written to {path}");
    }

    if !log.is_enabled() {
        return Ok(ExitCode::SUCCESS);
    }
    let summary = log.summary();
    eprint!("{summary}");
    if let Some(path) = &parsed.telemetry {
        eprintln!("telemetry records written to {path}");
    }
    if summary.degraded() {
        let manifest = summary.manifest_json();
        match &parsed.telemetry {
            Some(path) => {
                let manifest_path = format!("{path}.manifest.json");
                std::fs::write(&manifest_path, &manifest)
                    .map_err(|e| format!("cannot write manifest `{manifest_path}`: {e}"))?;
                eprintln!("suite degraded: failure manifest written to {manifest_path}");
            }
            None => {
                eprintln!("suite degraded: failure manifest follows");
                eprintln!("{manifest}");
            }
        }
        return Ok(ExitCode::from(exit_codes::DEGRADED));
    }
    Ok(ExitCode::SUCCESS)
}

/// `repro serve`: the annealing job-server daemon. Binds the ops plane
/// with the job API attached, then idles until a SIGINT/SIGTERM drain:
/// in-flight jobs finish, queued jobs stay journaled for the next start,
/// and the process exits `128 + signal` like a drained suite run.
fn run_serve(opts: &cli::ServeOpts) -> Result<ExitCode, String> {
    supervisor::signals::install();
    let jobs = Arc::new(JobServer::start(
        opts.job_threads,
        opts.queue,
        opts.journal.as_deref(),
    )?);
    // Jobs record no cells: the served log stays empty.
    let log = Arc::new(TelemetryLog::in_memory());
    let server = OpsServer::start(&opts.addr, log, Some(Arc::clone(&jobs)))?;
    eprintln!("ops: serving on {}", server.local_addr());
    if let Some(path) = &opts.journal {
        let queued = jobs.queued();
        if queued > 0 {
            eprintln!("serve: journal {path}: re-queued {queued} unfinished job(s)");
        }
    }
    while !supervisor::signals::draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let sig = supervisor::signals::shutdown_signal().unwrap_or(exit_codes::SIGTERM);
    eprintln!(
        "serve: signal {sig}: draining in-flight jobs; queued jobs stay journaled \
         for the next start"
    );
    jobs.shutdown();
    drop(server);
    Ok(ExitCode::from(exit_codes::for_signal(sig)))
}

/// `repro job SPEC.json`: execute one job spec offline and print the
/// result record — the determinism contract's other half: these bytes are
/// identical to the `record` the server stores for the same spec.
fn run_job(path: &str) -> Result<ExitCode, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read job spec `{path}`: {e}"))?;
    let spec = JobSpec::parse(&text).map_err(|e| format!("job spec `{path}`: {e}"))?;
    match spec.execute(&AtomicBool::new(false)) {
        JobOutcome::Done { record } => {
            println!("{record}");
            Ok(ExitCode::SUCCESS)
        }
        JobOutcome::Failed { error } => {
            eprintln!("job failed: {error}");
            Ok(ExitCode::from(exit_codes::JOB_FAILED))
        }
        JobOutcome::Cancelled => {
            eprintln!("job cancelled");
            Ok(ExitCode::from(exit_codes::JOB_FAILED))
        }
    }
}

/// The hidden `--worker` mode: this process is a supervisor's child. It
/// reads one [`CellRequest`] line at a time from stdin, runs that cell on
/// the instance set of the table it last served, and talks to the parent
/// over stdout: `{"hb":k}` heartbeat lines all its life, and each cell's
/// record as one JSON line. It exits [`exit_codes::OK`] at stdin EOF, and
/// [`exit_codes::WORKER_NO_RECORD`] when it cannot hand back a record; any
/// exit before a record is a retryable process failure.
fn run_worker(parsed: &cli::Cli, faults: Option<FaultPlan>) -> Result<ExitCode, String> {
    // The parent drains us deliberately; a Ctrl-C aimed at the group must
    // not kill workers mid-record.
    supervisor::signals::ignore();

    std::thread::spawn(|| {
        let mut beats = 0u64;
        while emit_line(Json::obj([("hb", beats.into())]).to_string(), false).is_ok() {
            beats += 1;
            std::thread::sleep(supervisor::HEARTBEAT);
        }
        // A failed beat means the parent is gone: nobody will read a
        // record, so stop now instead of at the end of the cell.
        std::process::exit(i32::from(exit_codes::WORKER_NO_RECORD));
    });

    let mut tables = tables::TableCache::new(parsed.config);
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("worker: cannot read a cell request: {e}"))?;
        let CellRequest { key, attempt_base } = CellRequest::parse(&line)?;
        // Retried cells roll fresh fault decisions: the supervisor folds
        // its process attempt into every instance's attempt number.
        let faults = faults.map(|plan| plan.with_attempt_base(attempt_base));
        let trace = match &parsed.trace {
            Some(dir) => Some(TraceSink::new(dir, faults)?),
            None => None,
        };
        let log = TelemetryLog::in_memory()
            .with_faults(faults)
            .with_trace(trace);

        // A key its table does not list runs nothing and records nothing.
        let Some(record) = tables.run_cell(&key, &log) else {
            return Ok(ExitCode::from(exit_codes::WORKER_NO_RECORD));
        };
        // With `--faults io=…` the record write can fail like a WAL append.
        let fail = faults.is_some_and(|plan| plan.record_write_fails(&key));
        if let Err(e) = emit_line(record.to_json().to_string(), fail) {
            eprintln!("worker: record of {key} lost: {e}");
            return Ok(ExitCode::from(exit_codes::WORKER_NO_RECORD));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes `line` and a newline to stdout under one lock, then flushes, or
/// fails without writing when `fail` injects a fault. Heartbeats and the
/// record share this pipe, so a line is never split by another.
fn emit_line(line: String, fail: bool) -> std::io::Result<()> {
    if fail {
        return Err(std::io::Error::other("fault injection: write failed"));
    }
    jsonl::append(&mut std::io::stdout().lock(), line)
}

fn dispatch(exp: &str, config: &SuiteConfig, log: &TelemetryLog) -> Result<Vec<Table>, String> {
    Ok(match exp {
        "tuning" => {
            let out = tuning::run(config);
            eprintln!("tuned: {}", out.tuned);
            for class in &out.boundary {
                eprintln!(
                    "warning: {class}: winner sits on the edge of the \
                     ×{}..×{} grid; widen the sweep to bracket its optimum",
                    tuning::GRID[0],
                    tuning::GRID[tuning::GRID.len() - 1]
                );
            }
            vec![out.table]
        }
        "table4.1" => vec![tables::table4_1::run_logged(config, log)],
        "table4.2a" => vec![tables::table4_2a::run_logged(config, log)],
        "table4.2b" => vec![tables::table4_2b::run_logged(config, log)],
        "table4.2c" => vec![tables::table4_2c::run_logged(config, log)],
        "table4.2d" => vec![tables::table4_2d::run_logged(config, log)],
        "adaptive" => vec![tables::adaptive::run_logged(config, log)],
        "partition" => vec![ext_partition::run(config)],
        "tsp" => vec![ext_tsp::run(config)],
        "ablation" => vec![
            ablation::gate_period(config),
            ablation::schedule_length(config),
            ablation::equilibrium_limit(config),
            ablation::rejectionless(config),
            ablation::nola_net_size(config),
            ablation::instance_size(config),
        ],
        "trajectory" => vec![trajectory::run(config)],
        "diagnostics" => vec![diagnostics::run(config)],
        other => return Err(format!("unknown experiment `{other}`")),
    })
}

//! Argument parsing for the `repro` binary, split out so every flag — and
//! every rejection — is unit-testable without spawning a process.
//!
//! Validation happens here, at the CLI boundary: `--threads 0` or
//! `--scale 0` are clear errors instead of reaching a runner panic deep in
//! a suite.

use std::time::Duration;

use anneal_core::{AdaptiveMode, Strategy, DEFAULT_EXCHANGE_INTERVAL};

use crate::config::SuiteConfig;
use crate::faults::FaultPlan;
use crate::runner::RetryPolicy;
use crate::supervisor;
use crate::telemetry::CellKey;
use crate::Scale;

/// Every experiment name `repro` accepts, in `all` order.
pub const EXPERIMENTS: [&str; 12] = [
    "tuning",
    "table4.1",
    "table4.2a",
    "table4.2b",
    "table4.2c",
    "table4.2d",
    "adaptive",
    "partition",
    "tsp",
    "ablation",
    "trajectory",
    "diagnostics",
];

/// One-line usage string for `repro` errors.
pub const USAGE: &str = "usage: repro [--scale N] [--seed N] [--csv] [--threads N] \
     [--strategy NAME] [--schedule MODE] [--replicas K] [--exchange-interval N] \
     [--telemetry PATH] [--resume WAL] [--trace DIR] [--metrics PATH] \
     [--progress] [--faults SPEC] [--retries N] [--backoff-ms N] \
     [--watchdog-ms N] [--isolation thread|process] [--heartbeat-ms N] \
     [--breaker-threshold N] [--serve ADDR] <experiment>...\n       \
     repro serve ADDR [--queue N] [--job-threads N] [--journal PATH]\n       \
     repro job SPEC.json";

/// `repro serve` options: the job-server daemon mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOpts {
    /// Address to bind (`HOST:PORT`; port 0 picks a free port).
    pub addr: String,
    /// Bounded submission-queue capacity (`--queue`); a full queue answers
    /// `429` until workers drain it.
    pub queue: usize,
    /// Job worker threads (`--job-threads`).
    pub job_threads: usize,
    /// WAL-style job journal path (`--journal`); accepted jobs survive a
    /// restart when set.
    pub journal: Option<String>,
}

/// A `repro` subcommand (the first positional argument when it is
/// `serve` or `job`; absent for the classic experiment-suite invocation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `repro serve ADDR ...`: run the annealing job server until a
    /// SIGINT/SIGTERM drain.
    Serve(ServeOpts),
    /// `repro job SPEC.json`: execute one job spec offline and print its
    /// result record — byte-identical to what the server would store.
    Job(String),
}

/// The `--strategy` spellings `repro` accepts.
pub const STRATEGIES: [&str; 4] = ["figure1", "figure2", "rejectionless", "replica-exchange"];

/// The `--schedule` spellings `repro` accepts.
pub const SCHEDULES: [&str; 2] = ["adaptive", "asa"];

/// The `--isolation` spellings `repro` accepts.
pub const ISOLATIONS: [&str; 2] = ["thread", "process"];

/// How table cells are isolated from each other's failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Isolation {
    /// In-process: `catch_unwind` + watchdog (the historical behavior).
    #[default]
    Thread,
    /// One child process per cell under the
    /// [`Supervisor`](crate::supervisor::Supervisor): survives aborts,
    /// OOM kills and true hangs.
    Process,
}

/// The hidden `--worker-cell` mode: this invocation is a supervisor child
/// running exactly one table cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpec {
    /// The one cell this worker runs (everything else is skipped).
    pub cell: CellKey,
    /// Fault-injection attempt base (`--worker-attempt`), so respawned
    /// workers roll fresh fault decisions.
    pub attempt: u32,
}

/// Parsed `repro` invocation.
#[derive(Debug)]
pub struct Cli {
    /// Suite configuration assembled from the flags.
    pub config: SuiteConfig,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
    /// Stream the telemetry WAL to this path.
    pub telemetry: Option<String>,
    /// Replay completed cells from this prior WAL.
    pub resume: Option<String>,
    /// Write per-cell chain-trace JSONL files into this directory.
    pub trace: Option<String>,
    /// Write the process metrics snapshot (JSON) to this path at exit.
    pub metrics: Option<String>,
    /// Show a live cells-done ticker on stderr.
    pub progress: bool,
    /// Serve the live ops endpoints (`/metrics`, `/healthz`, `/progress`)
    /// on this address (`--serve`, e.g. `127.0.0.1:9090`; port 0 picks a
    /// free port). `None` binds nothing.
    pub serve: Option<String>,
    /// Fault-injection plan (`--faults`; the `ANNEAL_FAULTS` environment
    /// variable is merged in by the binary, not here, so parsing stays
    /// pure).
    pub faults: Option<FaultPlan>,
    /// Cell isolation model (`--isolation`, default thread).
    pub isolation: Isolation,
    /// Worker heartbeat interval under process isolation
    /// (`--heartbeat-ms`, default 250).
    pub heartbeat: Duration,
    /// Consecutive hard process failures per table before its circuit
    /// breaker opens (`--breaker-threshold`, default 3).
    pub breaker_threshold: u32,
    /// Hidden worker mode (`--worker-cell` et al.), set only when this
    /// process is a supervisor child.
    pub worker: Option<WorkerSpec>,
    /// Experiments to run, `all` already expanded (empty under a
    /// subcommand).
    pub experiments: Vec<String>,
    /// Subcommand (`serve` / `job`); `None` runs the experiment suite.
    pub command: Option<Command>,
}

/// A [`Cli`] carrying only a subcommand (suite fields at their defaults).
fn command_cli(command: Command) -> Cli {
    Cli {
        config: SuiteConfig::paper(),
        csv: false,
        telemetry: None,
        resume: None,
        trace: None,
        metrics: None,
        progress: false,
        serve: None,
        faults: None,
        isolation: Isolation::default(),
        heartbeat: supervisor::DEFAULT_HEARTBEAT,
        breaker_threshold: supervisor::DEFAULT_BREAKER_THRESHOLD,
        worker: None,
        experiments: Vec::new(),
        command: Some(command),
    }
}

/// Parses `repro serve ADDR [--queue N] [--job-threads N] [--journal
/// PATH]`.
fn parse_serve(args: &[String]) -> Result<Cli, String> {
    let mut addr: Option<String> = None;
    let mut queue = crate::jobs::DEFAULT_QUEUE_CAPACITY;
    let mut job_threads = crate::jobs::DEFAULT_JOB_THREADS;
    let mut journal: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--queue" => {
                let v = value_of("--queue")?;
                let n: usize = v.parse().map_err(|_| format!("bad --queue value `{v}`"))?;
                if n == 0 {
                    return Err("--queue must be positive".into());
                }
                queue = n;
            }
            "--job-threads" => {
                let v = value_of("--job-threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --job-threads value `{v}`"))?;
                if n == 0 {
                    return Err("--job-threads must be positive".into());
                }
                job_threads = n;
            }
            "--journal" => journal = Some(value_of("--journal")?.clone()),
            other if other.starts_with('-') => {
                return Err(format!("unknown serve option `{other}`"));
            }
            positional => {
                if addr.is_some() {
                    return Err(format!("serve takes one ADDR, got extra `{positional}`"));
                }
                if !positional.contains(':') {
                    return Err(format!(
                        "bad serve address `{positional}` (expected HOST:PORT, e.g. \
                         127.0.0.1:9090)"
                    ));
                }
                addr = Some(positional.to_string());
            }
        }
    }
    let addr = addr.ok_or_else(|| "serve needs an ADDR (e.g. 127.0.0.1:9090)".to_string())?;
    Ok(command_cli(Command::Serve(ServeOpts {
        addr,
        queue,
        job_threads,
        journal,
    })))
}

/// Parses `repro job SPEC.json`.
fn parse_job(args: &[String]) -> Result<Cli, String> {
    match args {
        [path] if !path.starts_with('-') => Ok(command_cli(Command::Job(path.clone()))),
        [] => Err("job needs a SPEC.json path".into()),
        _ => Err("job takes exactly one SPEC.json path".into()),
    }
}

/// Parses `repro` arguments (everything after the program name).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    match args.first().map(String::as_str) {
        Some("serve") => return parse_serve(&args[1..]),
        Some("job") => return parse_job(&args[1..]),
        _ => {}
    }
    let mut config = SuiteConfig::paper();
    let mut csv = false;
    let mut telemetry: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut progress = false;
    let mut serve: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut isolation = Isolation::default();
    let mut isolation_set = false;
    let mut heartbeat = supervisor::DEFAULT_HEARTBEAT;
    let mut heartbeat_set = false;
    let mut breaker_threshold = supervisor::DEFAULT_BREAKER_THRESHOLD;
    let mut breaker_set = false;
    let mut worker_cell: Option<CellKey> = None;
    let mut worker_attempt: Option<u32> = None;
    let mut retries: u32 = 1;
    let mut backoff = Duration::from_millis(100);
    let mut strategy_name: Option<String> = None;
    let mut replicas: Option<usize> = None;
    let mut exchange_interval: Option<u64> = None;
    let mut experiments: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value_of("--scale")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --scale value `{v}`"))?;
                if n == 0 {
                    return Err("--scale must be positive".into());
                }
                config.scale = Scale::new(n);
            }
            "--seed" => {
                let v = value_of("--seed")?;
                let seed: u64 = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
                config = config.with_seed(seed);
            }
            "--threads" => {
                let v = value_of("--threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --threads value `{v}`"))?;
                if n == 0 {
                    return Err("--threads must be positive (at least one worker thread)".into());
                }
                config = config.with_threads(n);
            }
            "--retries" => {
                let v = value_of("--retries")?;
                let n: u32 = v
                    .parse()
                    .map_err(|_| format!("bad --retries value `{v}`"))?;
                if n == 0 {
                    return Err("--retries must be positive (1 = no retries)".into());
                }
                retries = n;
            }
            "--backoff-ms" => {
                let v = value_of("--backoff-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --backoff-ms value `{v}`"))?;
                backoff = Duration::from_millis(ms);
            }
            "--watchdog-ms" => {
                let v = value_of("--watchdog-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --watchdog-ms value `{v}`"))?;
                if ms == 0 {
                    return Err("--watchdog-ms must be positive".into());
                }
                config = config.with_watchdog(Some(Duration::from_millis(ms)));
            }
            "--strategy" => strategy_name = Some(value_of("--strategy")?.clone()),
            "--schedule" => {
                let v = value_of("--schedule")?;
                let mode: AdaptiveMode = v.parse().map_err(|_| {
                    format!(
                        "unknown --schedule `{v}` (one of: {})",
                        SCHEDULES.join(", ")
                    )
                })?;
                config = config.with_schedule(mode);
            }
            "--replicas" => {
                let v = value_of("--replicas")?;
                let k: usize = v
                    .parse()
                    .map_err(|_| format!("bad --replicas value `{v}`"))?;
                if k < 2 {
                    return Err("--replicas must be at least 2 (a single rung has no \
                         swap partner)"
                        .into());
                }
                replicas = Some(k);
            }
            "--exchange-interval" => {
                let v = value_of("--exchange-interval")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --exchange-interval value `{v}`"))?;
                if n == 0 {
                    return Err("--exchange-interval must be positive".into());
                }
                exchange_interval = Some(n);
            }
            "--telemetry" => telemetry = Some(value_of("--telemetry")?.clone()),
            "--resume" => resume = Some(value_of("--resume")?.clone()),
            "--trace" => trace = Some(value_of("--trace")?.clone()),
            "--metrics" => metrics = Some(value_of("--metrics")?.clone()),
            "--serve" => {
                let v = value_of("--serve")?;
                if !v.contains(':') {
                    return Err(format!(
                        "bad --serve value `{v}` (expected HOST:PORT, e.g. 127.0.0.1:9090)"
                    ));
                }
                serve = Some(v.clone());
            }
            "--faults" => faults = Some(FaultPlan::parse(value_of("--faults")?)?),
            "--isolation" => {
                let v = value_of("--isolation")?;
                isolation = match v.as_str() {
                    "thread" => Isolation::Thread,
                    "process" => Isolation::Process,
                    other => {
                        return Err(format!(
                            "unknown --isolation `{other}` (one of: {})",
                            ISOLATIONS.join(", ")
                        ));
                    }
                };
                isolation_set = true;
            }
            "--heartbeat-ms" => {
                let v = value_of("--heartbeat-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --heartbeat-ms value `{v}`"))?;
                if ms == 0 {
                    return Err("--heartbeat-ms must be positive".into());
                }
                heartbeat = Duration::from_millis(ms);
                heartbeat_set = true;
            }
            "--breaker-threshold" => {
                let v = value_of("--breaker-threshold")?;
                let n: u32 = v
                    .parse()
                    .map_err(|_| format!("bad --breaker-threshold value `{v}`"))?;
                if n == 0 {
                    return Err(
                        "--breaker-threshold must be positive (1 = trip on first failure)".into(),
                    );
                }
                breaker_threshold = n;
                breaker_set = true;
            }
            "--worker-cell" => {
                let v = value_of("--worker-cell")?;
                let fields: Vec<&str> = v.split(supervisor::CELL_FIELD_SEP).collect();
                let [table, method, column] = fields.as_slice() else {
                    return Err(format!(
                        "bad --worker-cell value `{}` (expected table\\x1fmethod\\x1fcolumn)",
                        v.escape_debug()
                    ));
                };
                worker_cell = Some(CellKey::new(*table, *method, *column));
            }
            "--worker-attempt" => {
                let v = value_of("--worker-attempt")?;
                worker_attempt = Some(
                    v.parse()
                        .map_err(|_| format!("bad --worker-attempt value `{v}`"))?,
                );
            }
            "--csv" => csv = true,
            "--progress" => progress = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            exp => experiments.push(exp.to_string()),
        }
    }

    config = config.with_retry(RetryPolicy::new(retries, backoff));

    let strategy = match strategy_name.as_deref() {
        None => None,
        Some("figure1") => Some(Strategy::Figure1),
        Some("figure2") => Some(Strategy::Figure2),
        Some("rejectionless") => Some(Strategy::Rejectionless),
        Some("replica-exchange") => Some(Strategy::ReplicaExchange {
            exchange_interval: exchange_interval.unwrap_or(DEFAULT_EXCHANGE_INTERVAL),
        }),
        Some(other) => {
            return Err(format!(
                "unknown --strategy `{other}` (one of: {})",
                STRATEGIES.join(", ")
            ));
        }
    };
    if !matches!(strategy, Some(Strategy::ReplicaExchange { .. }))
        && (replicas.is_some() || exchange_interval.is_some())
    {
        return Err(
            "--replicas and --exchange-interval require --strategy replica-exchange".into(),
        );
    }
    if let Some(s) = strategy {
        config = config.with_strategy(s);
    }
    if let Some(k) = replicas {
        config = config.with_replicas(k);
    }

    let worker = match worker_cell {
        None => {
            if worker_attempt.is_some() {
                return Err("--worker-attempt requires --worker-cell".into());
            }
            None
        }
        Some(cell) => {
            if isolation_set && isolation == Isolation::Process {
                return Err("--worker-cell is itself a worker: it cannot use \
                     --isolation process"
                    .into());
            }
            if serve.is_some() {
                return Err("--worker-cell is itself a worker: it cannot use --serve \
                     (only the supervising parent serves the ops endpoints)"
                    .into());
            }
            Some(WorkerSpec {
                cell,
                attempt: worker_attempt.unwrap_or(0),
            })
        }
    };
    if (heartbeat_set || breaker_set) && isolation != Isolation::Process && worker.is_none() {
        return Err("--heartbeat-ms and --breaker-threshold require --isolation process".into());
    }

    if experiments.is_empty() {
        return Err("no experiment given".into());
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for exp in &experiments {
        if !EXPERIMENTS.contains(&exp.as_str()) {
            return Err(format!("unknown experiment `{exp}`"));
        }
    }

    Ok(Cli {
        config,
        csv,
        telemetry,
        resume,
        trace,
        metrics,
        progress,
        serve,
        faults,
        isolation,
        heartbeat,
        breaker_threshold,
        worker,
        experiments,
        command: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_are_paper_faithful() {
        let cli = parse(&args("table4.1")).unwrap();
        assert_eq!(cli.config.scale, Scale::FULL);
        assert_eq!(cli.config.threads, 1);
        assert_eq!(cli.config.retry.attempts, 1);
        assert_eq!(cli.config.watchdog, None);
        assert!(!cli.csv && cli.telemetry.is_none() && cli.resume.is_none());
        assert!(!cli.progress && cli.trace.is_none() && cli.metrics.is_none());
        assert_eq!(cli.experiments, vec!["table4.1"]);
    }

    #[test]
    fn full_flag_set_parses() {
        let cli = parse(&args(
            "--scale 40 --seed 7 --csv --threads 4 --telemetry out.jsonl \
             --resume prior.jsonl --trace traces --metrics metrics.json \
             --progress --faults panic=0.5,seed=3 --retries 3 \
             --backoff-ms 10 --watchdog-ms 5000 table4.1 table4.2b",
        ))
        .unwrap();
        assert_eq!(cli.config.scale.divisor, 40);
        assert_eq!(cli.config.seed, 7);
        assert_eq!(cli.config.threads, 4);
        assert_eq!(cli.config.retry.attempts, 3);
        assert_eq!(cli.config.retry.backoff, Duration::from_millis(10));
        assert_eq!(cli.config.watchdog, Some(Duration::from_millis(5000)));
        assert!(cli.csv && cli.progress);
        assert_eq!(cli.telemetry.as_deref(), Some("out.jsonl"));
        assert_eq!(cli.resume.as_deref(), Some("prior.jsonl"));
        assert_eq!(cli.trace.as_deref(), Some("traces"));
        assert_eq!(cli.metrics.as_deref(), Some("metrics.json"));
        assert_eq!(cli.faults.unwrap().panic_p, 0.5);
        assert_eq!(cli.experiments, vec!["table4.1", "table4.2b"]);
    }

    #[test]
    fn zero_threads_is_a_cli_error_not_a_panic() {
        let err = parse(&args("--threads 0 table4.1")).unwrap_err();
        assert!(err.contains("--threads must be positive"), "{err}");
    }

    #[test]
    fn zero_scale_and_retries_and_watchdog_are_rejected() {
        assert!(parse(&args("--scale 0 table4.1"))
            .unwrap_err()
            .contains("--scale"));
        assert!(parse(&args("--retries 0 table4.1"))
            .unwrap_err()
            .contains("--retries"));
        assert!(parse(&args("--watchdog-ms 0 table4.1"))
            .unwrap_err()
            .contains("--watchdog-ms"));
    }

    #[test]
    fn missing_values_and_unknown_flags_are_rejected() {
        assert!(parse(&args("--scale"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&args("--bogus table4.1"))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse(&args("")).unwrap_err().contains("no experiment"));
        assert!(parse(&args("not-an-experiment"))
            .unwrap_err()
            .contains("unknown experiment"));
    }

    #[test]
    fn replica_exchange_strategy_flags_parse() {
        use anneal_core::{Strategy, DEFAULT_EXCHANGE_INTERVAL};
        let cli = parse(&args(
            "--strategy replica-exchange --replicas 8 --exchange-interval 32 table4.1",
        ))
        .unwrap();
        assert_eq!(
            cli.config.strategy,
            Some(Strategy::ReplicaExchange {
                exchange_interval: 32
            })
        );
        assert_eq!(cli.config.replicas, Some(8));

        // Interval defaults; flag order does not matter.
        let cli = parse(&args("--replicas 4 --strategy replica-exchange table4.1")).unwrap();
        assert_eq!(
            cli.config.strategy,
            Some(Strategy::ReplicaExchange {
                exchange_interval: DEFAULT_EXCHANGE_INTERVAL
            })
        );

        let cli = parse(&args("--strategy figure2 table4.1")).unwrap();
        assert_eq!(cli.config.strategy, Some(Strategy::Figure2));
        assert_eq!(cli.config.table_strategy(), Strategy::Figure2);

        let cli = parse(&args("table4.1")).unwrap();
        assert_eq!(cli.config.strategy, None);
        assert_eq!(cli.config.table_strategy(), Strategy::Figure1);
    }

    #[test]
    fn replica_exchange_flag_misuse_is_rejected() {
        assert!(parse(&args("--strategy tempering table4.1"))
            .unwrap_err()
            .contains("unknown --strategy"));
        assert!(
            parse(&args("--replicas 1 --strategy replica-exchange table4.1"))
                .unwrap_err()
                .contains("at least 2")
        );
        assert!(parse(&args(
            "--exchange-interval 0 --strategy replica-exchange table4.1"
        ))
        .unwrap_err()
        .contains("positive"));
        let err = parse(&args("--replicas 4 table4.1")).unwrap_err();
        assert!(err.contains("require --strategy replica-exchange"), "{err}");
        let err = parse(&args("--strategy figure1 --exchange-interval 8 table4.1")).unwrap_err();
        assert!(err.contains("require --strategy replica-exchange"), "{err}");
    }

    #[test]
    fn schedule_flag_parses_and_rejects_unknown_modes() {
        use anneal_core::AdaptiveMode;
        let cli = parse(&args("--schedule adaptive table4.1")).unwrap();
        assert_eq!(cli.config.schedule, Some(AdaptiveMode::Acceptance));
        let cli = parse(&args("--schedule asa adaptive")).unwrap();
        assert_eq!(cli.config.schedule, Some(AdaptiveMode::Asa));
        assert_eq!(cli.experiments, vec!["adaptive"]);
        let cli = parse(&args("table4.1")).unwrap();
        assert_eq!(cli.config.schedule, None);
        let err = parse(&args("--schedule lam table4.1")).unwrap_err();
        assert!(err.contains("unknown --schedule"), "{err}");
        assert!(err.contains("adaptive, asa"), "{err}");
        assert!(parse(&args("--schedule"))
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn isolation_flags_parse_with_defaults() {
        let cli = parse(&args("table4.1")).unwrap();
        assert_eq!(cli.isolation, Isolation::Thread);
        assert_eq!(cli.heartbeat, supervisor::DEFAULT_HEARTBEAT);
        assert_eq!(cli.breaker_threshold, supervisor::DEFAULT_BREAKER_THRESHOLD);
        assert!(cli.worker.is_none());

        let cli = parse(&args(
            "--isolation process --heartbeat-ms 100 --breaker-threshold 2 table4.1",
        ))
        .unwrap();
        assert_eq!(cli.isolation, Isolation::Process);
        assert_eq!(cli.heartbeat, Duration::from_millis(100));
        assert_eq!(cli.breaker_threshold, 2);

        let cli = parse(&args("--isolation thread table4.1")).unwrap();
        assert_eq!(cli.isolation, Isolation::Thread);
    }

    #[test]
    fn isolation_flag_misuse_is_rejected() {
        let err = parse(&args("--isolation container table4.1")).unwrap_err();
        assert!(err.contains("unknown --isolation"), "{err}");
        assert!(err.contains("thread, process"), "{err}");
        let err = parse(&args("--isolation process --heartbeat-ms 0 table4.1")).unwrap_err();
        assert!(err.contains("--heartbeat-ms must be positive"), "{err}");
        let err = parse(&args("--isolation process --breaker-threshold 0 table4.1")).unwrap_err();
        assert!(
            err.contains("--breaker-threshold must be positive"),
            "{err}"
        );
        // The supervisor tuning flags are meaningless without a supervisor.
        let err = parse(&args("--heartbeat-ms 100 table4.1")).unwrap_err();
        assert!(err.contains("require --isolation process"), "{err}");
        let err = parse(&args("--breaker-threshold 2 table4.1")).unwrap_err();
        assert!(err.contains("require --isolation process"), "{err}");
    }

    #[test]
    fn worker_mode_parses_its_hidden_flags() {
        let sep = supervisor::CELL_FIELD_SEP;
        let argv: Vec<String> = [
            "--worker-cell".into(),
            format!("table4.1{sep}g = 1{sep}6 sec"),
            "--worker-attempt".into(),
            "3".into(),
            "--heartbeat-ms".into(),
            "50".into(),
            "table4.1".into(),
        ]
        .to_vec();
        let cli = parse(&argv).unwrap();
        let worker = cli.worker.unwrap();
        assert_eq!(worker.cell, CellKey::new("table4.1", "g = 1", "6 sec"));
        assert_eq!(worker.attempt, 3);
        assert_eq!(cli.heartbeat, Duration::from_millis(50));
    }

    #[test]
    fn worker_flag_misuse_is_rejected() {
        let err = parse(&args("--worker-attempt 3 table4.1")).unwrap_err();
        assert!(err.contains("requires --worker-cell"), "{err}");
        let err = parse(&args("--worker-cell bad-cell table4.1")).unwrap_err();
        assert!(err.contains("bad --worker-cell value"), "{err}");
        let sep = supervisor::CELL_FIELD_SEP;
        let argv: Vec<String> = [
            "--worker-cell".into(),
            format!("t{sep}m{sep}c"),
            "--isolation".into(),
            "process".into(),
            "table4.1".into(),
        ]
        .to_vec();
        let err = parse(&argv).unwrap_err();
        assert!(err.contains("cannot use"), "{err}");
    }

    #[test]
    fn serve_flag_parses_and_validates() {
        let cli = parse(&args("--serve 127.0.0.1:9090 table4.1")).unwrap();
        assert_eq!(cli.serve.as_deref(), Some("127.0.0.1:9090"));
        let cli = parse(&args("--serve 127.0.0.1:0 table4.1")).unwrap();
        assert_eq!(cli.serve.as_deref(), Some("127.0.0.1:0"));
        let cli = parse(&args("table4.1")).unwrap();
        assert_eq!(cli.serve, None);
        let err = parse(&args("--serve 9090 table4.1")).unwrap_err();
        assert!(err.contains("expected HOST:PORT"), "{err}");
        assert!(parse(&args("--serve"))
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn serve_is_rejected_in_worker_mode() {
        let sep = supervisor::CELL_FIELD_SEP;
        let argv: Vec<String> = [
            "--worker-cell".into(),
            format!("t{sep}m{sep}c"),
            "--serve".into(),
            "127.0.0.1:0".into(),
            "table4.1".into(),
        ]
        .to_vec();
        let err = parse(&argv).unwrap_err();
        assert!(err.contains("cannot use --serve"), "{err}");
    }

    #[test]
    fn bad_fault_specs_surface_their_error() {
        let err = parse(&args("--faults panic=2 table4.1")).unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn all_expands_in_canonical_order() {
        let cli = parse(&args("--scale 2 all")).unwrap();
        assert_eq!(cli.experiments, EXPERIMENTS.to_vec());
        assert_eq!(cli.command, None);
    }

    #[test]
    fn serve_subcommand_parses_with_defaults() {
        let cli = parse(&args("serve 127.0.0.1:0")).unwrap();
        let Some(Command::Serve(opts)) = cli.command else {
            panic!("expected serve command, got {:?}", cli.command);
        };
        assert_eq!(opts.addr, "127.0.0.1:0");
        assert_eq!(opts.queue, crate::jobs::DEFAULT_QUEUE_CAPACITY);
        assert_eq!(opts.job_threads, crate::jobs::DEFAULT_JOB_THREADS);
        assert_eq!(opts.journal, None);
        assert!(cli.experiments.is_empty());

        let cli = parse(&args(
            "serve 0.0.0.0:8080 --queue 3 --job-threads 4 --journal jobs.wal",
        ))
        .unwrap();
        let Some(Command::Serve(opts)) = cli.command else {
            panic!("expected serve command");
        };
        assert_eq!(opts.addr, "0.0.0.0:8080");
        assert_eq!(opts.queue, 3);
        assert_eq!(opts.job_threads, 4);
        assert_eq!(opts.journal.as_deref(), Some("jobs.wal"));
    }

    #[test]
    fn serve_subcommand_misuse_is_rejected() {
        assert!(parse(&args("serve")).unwrap_err().contains("needs an ADDR"));
        assert!(parse(&args("serve 9090"))
            .unwrap_err()
            .contains("expected HOST:PORT"));
        assert!(parse(&args("serve 127.0.0.1:0 10.0.0.1:0"))
            .unwrap_err()
            .contains("one ADDR"));
        assert!(parse(&args("serve 127.0.0.1:0 --queue 0"))
            .unwrap_err()
            .contains("--queue must be positive"));
        assert!(parse(&args("serve 127.0.0.1:0 --job-threads 0"))
            .unwrap_err()
            .contains("--job-threads must be positive"));
        assert!(parse(&args("serve 127.0.0.1:0 --journal"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&args("serve 127.0.0.1:0 --csv"))
            .unwrap_err()
            .contains("unknown serve option"));
    }

    #[test]
    fn job_subcommand_parses_one_spec_path() {
        let cli = parse(&args("job spec.json")).unwrap();
        assert_eq!(cli.command, Some(Command::Job("spec.json".into())));
        assert!(parse(&args("job")).unwrap_err().contains("needs a SPEC"));
        assert!(parse(&args("job a.json b.json"))
            .unwrap_err()
            .contains("exactly one"));
        assert!(parse(&args("job --csv"))
            .unwrap_err()
            .contains("exactly one"));
    }
}

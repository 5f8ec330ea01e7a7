//! Process-level supervision for the experiment suite.
//!
//! The in-process failure path (PR 3) contains *panics*: `catch_unwind`
//! plus the [`anneal_core::watchdog`] deadline turn a panicking or
//! overrunning instance into a failed-cell record. What it cannot contain
//! is anything that takes the whole process with it — `abort()`, a stack
//! overflow, a runaway allocation the kernel OOM-kills, or an evaluation
//! loop that never polls `Meter::exhausted` and therefore never notices
//! its deadline. Long annealing campaigns hit exactly these (Ingber's ASA
//! "lessons learned"); one bad cell must not cost the other hundred.
//!
//! [`Supervisor`] closes that gap by re-execing the current binary in a
//! hidden `--worker-cell` mode and running each table cell in a child
//! process:
//!
//! * the child looks its cell up in its table's cell list, builds that
//!   table's instance set and runs only that cell
//!   ([`tables::run_cell`](crate::tables::run_cell)). It talks to the
//!   parent over its stdout pipe: `{"hb":k}` heartbeat lines while it
//!   runs, then the cell's [`CellRecord`] as one JSON line;
//! * the parent enforces a **wall-clock deadline** (derived from
//!   `--watchdog-ms`) and a **heartbeat staleness** bound with SIGKILL —
//!   catching the hangs the in-process watchdog cannot;
//! * abnormal exits are **retried** under the existing deterministic
//!   [`RetryPolicy`](crate::runner::RetryPolicy) backoff, with the
//!   attempt base forwarded so fault-injection decisions roll
//!   independently across respawns;
//! * a per-problem-class **circuit breaker** skips a table after N
//!   consecutive hard process failures (recorded in the failure manifest;
//!   the suite completes degraded instead of dying);
//! * [`signals`] drains on SIGINT/SIGTERM: the in-flight child finishes,
//!   subsequent cells are skipped, and the WAL is left clean and
//!   resumable.
//!
//! The parent stays the single writer of the main WAL: it accepts the
//! record of a worker that exited 0, checks it is the cell it asked for,
//! and records it like the in-process runner would. The record's `f64`s
//! survive the JSON round trip exactly, which is what keeps process
//! isolation and `--resume` bit-identical to a thread-isolated run.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use anneal_core::json::Json;
use anneal_core::{Budget, Strategy};

use crate::checkpoint::record_from_json;
use crate::config::SuiteConfig;
use crate::exit_codes;
use crate::faults::FaultPlan;
use crate::runner::CellPolicy;
use crate::telemetry::{CellFailure, CellKey, CellRecord, SupervisorEvent, TelemetryLog};

/// Graceful-shutdown signal handling for `repro`.
///
/// [`install`](signals::install) registers SIGINT/SIGTERM handlers that
/// only set an atomic flag; the run loop and the supervisor poll
/// [`draining`](signals::draining) and wind down cleanly — the in-flight
/// cell finishes, later cells are skipped, the WAL is flushed, and the
/// process exits `128 + signal`. Worker processes call
/// [`ignore`](signals::ignore) instead, so only the supervisor decides
/// when a child dies.
pub mod signals {
    use std::sync::atomic::{AtomicI32, Ordering};

    /// The signal that requested shutdown (0 = none).
    static SHUTDOWN: AtomicI32 = AtomicI32::new(0);

    #[cfg(unix)]
    extern "C" {
        /// `signal(2)` from the C library std already links. Using it
        /// directly keeps the workspace free of new dependencies; the
        /// handler below is async-signal-safe (one atomic store).
        fn signal(signum: i32, handler: usize) -> usize;
    }

    #[cfg(unix)]
    extern "C" fn on_signal(sig: i32) {
        SHUTDOWN.store(sig, Ordering::SeqCst);
    }

    /// Installs the SIGINT/SIGTERM drain handlers (idempotent).
    pub fn install() {
        #[cfg(unix)]
        unsafe {
            signal(crate::exit_codes::SIGINT, on_signal as *const () as usize);
            signal(crate::exit_codes::SIGTERM, on_signal as *const () as usize);
        }
    }

    /// Ignores SIGINT/SIGTERM — worker processes must outlive a Ctrl-C
    /// aimed at the parent (the supervisor drains them deliberately).
    pub fn ignore() {
        // SIG_IGN is 1 in every Unix ABI this builds on.
        #[cfg(unix)]
        unsafe {
            signal(crate::exit_codes::SIGINT, 1);
            signal(crate::exit_codes::SIGTERM, 1);
        }
    }

    /// Whether a shutdown signal has been received.
    pub fn draining() -> bool {
        SHUTDOWN.load(Ordering::SeqCst) != 0
    }

    /// The received shutdown signal, if any.
    pub fn shutdown_signal() -> Option<i32> {
        match SHUTDOWN.load(Ordering::SeqCst) {
            0 => None,
            sig => Some(sig),
        }
    }

    #[cfg(test)]
    pub(crate) fn reset_for_test() {
        SHUTDOWN.store(0, Ordering::SeqCst);
    }
}

/// Default heartbeat interval for worker processes (`--heartbeat-ms`).
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(250);

/// Default circuit-breaker threshold (`--breaker-threshold`): consecutive
/// hard process failures in one table before the rest of that table is
/// skipped.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;

/// Unit separator: joins the three [`CellKey`] fields into the single
/// hidden `--worker-cell` argument (cell labels contain spaces and
/// punctuation, but never control characters).
pub const CELL_FIELD_SEP: char = '\x1f';

/// How long the wait loop waits for a worker line before it re-checks the
/// deadline and the heartbeat age.
const WAIT_TICK: Duration = Duration::from_millis(50);

/// The worker's slot on the ops board. Cells run one at a time, so the
/// supervisor has a single slot.
const WORKER_SLOT: usize = 0;

/// What killed a worker, when the supervisor had to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillReason {
    Deadline,
    Heartbeat,
}

/// Mutable supervisor state, per run.
#[derive(Default)]
struct State {
    /// Consecutive hard process failures per table (reset by any success).
    consecutive: HashMap<String, u32>,
    /// Tables whose circuit breaker has tripped.
    open: HashSet<String>,
}

/// The process supervisor: spawns one worker per table cell, enforces
/// deadlines, retries process deaths, and trips a per-table circuit
/// breaker. Attach to a [`TelemetryLog`] via
/// [`with_supervisor`](TelemetryLog::with_supervisor); the runner then
/// delegates every non-replayed cell here.
pub struct Supervisor {
    /// Path of the current binary, re-exec'd for each worker.
    exe: std::path::PathBuf,
    /// Flags every worker invocation shares (suite configuration).
    base_args: Vec<String>,
    /// Worker heartbeat interval.
    heartbeat: Duration,
    /// Circuit-breaker threshold (consecutive hard failures per table).
    breaker_threshold: u32,
    /// Suite base seed (validates worker records).
    seed: u64,
    /// Per-instance watchdog deadline, used to derive the wall-clock
    /// deadline for a whole worker.
    watchdog: Option<Duration>,
    /// Live ops board: worker spawn/beat/exit, respawns and breaker
    /// trips are mirrored there for `--serve` and the `--progress`
    /// ticker. `None` keeps the supervisor observability-free.
    ops: Option<std::sync::Arc<crate::ops::OpsBoard>>,
    state: Mutex<State>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("heartbeat", &self.heartbeat)
            .field("breaker_threshold", &self.breaker_threshold)
            .finish()
    }
}

impl Supervisor {
    /// A supervisor re-execing the current binary, forwarding `config`
    /// (and the chaos/trace flags) to every worker.
    pub fn new(
        config: &SuiteConfig,
        faults: Option<&FaultPlan>,
        trace: Option<&str>,
        heartbeat: Duration,
        breaker_threshold: u32,
    ) -> Result<Self, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the current executable: {e}"))?;
        let mut base_args: Vec<String> = vec![
            "--scale".into(),
            config.scale.divisor.to_string(),
            "--seed".into(),
            config.seed.to_string(),
            "--threads".into(),
            config.threads.to_string(),
            "--retries".into(),
            config.retry.attempts.to_string(),
            "--backoff-ms".into(),
            config.retry.backoff.as_millis().to_string(),
            "--heartbeat-ms".into(),
            heartbeat.as_millis().max(1).to_string(),
        ];
        if let Some(w) = config.watchdog {
            base_args.push("--watchdog-ms".into());
            base_args.push(w.as_millis().max(1).to_string());
        }
        if let Some(strategy) = config.strategy {
            base_args.extend(["--strategy".into(), strategy.name().into()]);
            if let Strategy::ReplicaExchange { exchange_interval } = strategy {
                base_args.push("--exchange-interval".into());
                base_args.push(exchange_interval.to_string());
            }
        }
        if let Some(k) = config.replicas {
            base_args.push("--replicas".into());
            base_args.push(k.to_string());
        }
        if let Some(mode) = config.schedule {
            base_args.push("--schedule".into());
            base_args.push(mode.as_str().into());
        }
        if let Some(plan) = faults {
            base_args.push("--faults".into());
            base_args.push(plan.to_spec());
        }
        if let Some(dir) = trace {
            base_args.push("--trace".into());
            base_args.push(dir.into());
        }
        Ok(Supervisor {
            exe,
            base_args,
            heartbeat,
            breaker_threshold: breaker_threshold.max(1),
            seed: config.seed,
            watchdog: config.watchdog,
            ops: None,
            state: Mutex::new(State::default()),
        })
    }

    /// Attaches a live ops board (builder style): worker lifecycle and
    /// breaker state feed the `--serve` endpoints. `None` clears it.
    pub fn with_ops(mut self, ops: Option<std::sync::Arc<crate::ops::OpsBoard>>) -> Self {
        self.ops = ops;
        self
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wall-clock deadline for one worker running `n_instances` instances
    /// under `policy`: the per-instance watchdog times the worst-case
    /// instance count across in-child retries, plus the child's backoff
    /// sleeps and one second of process overhead. `None` (no watchdog)
    /// leaves only the heartbeat staleness bound.
    fn worker_deadline(&self, n_instances: usize, policy: &CellPolicy) -> Option<Duration> {
        let per_instance = self.watchdog?;
        let attempts = policy.retry.attempts.max(1);
        let mut deadline = per_instance * n_instances.max(1) as u32 * attempts;
        for retry in 1..attempts {
            deadline += policy.retry.delay_before(retry);
        }
        Some(deadline + Duration::from_secs(1))
    }

    /// How stale the last heartbeat may grow before the worker is
    /// presumed wedged: generous (8 intervals, at least 2 s) because a
    /// missed beat means SIGKILL.
    fn staleness_limit(&self) -> Duration {
        (self.heartbeat * 8).max(Duration::from_secs(2))
    }

    /// Runs one table cell in a worker process, recording the outcome
    /// into `log` exactly as the in-process runner would. Returns the
    /// cell's total reduction (0.0 for a failed or skipped cell).
    pub fn run_cell(
        &self,
        key: &CellKey,
        strategy_name: &str,
        budget: Budget,
        policy: &CellPolicy,
        n_instances: usize,
        log: &TelemetryLog,
    ) -> f64 {
        if self.lock().open.contains(&key.table) {
            let mut record =
                CellRecord::empty(key.clone(), strategy_name.to_string(), budget, self.seed);
            record.instances = n_instances;
            record.failures.push(CellFailure {
                instance: 0,
                seed: self.seed,
                message: format!(
                    "circuit breaker open for {}: cell skipped after {} consecutive \
                     process failures",
                    key.table, self.breaker_threshold
                ),
            });
            log.record(record);
            return 0.0;
        }

        let attempts = policy.retry.attempts.max(1);
        let mut last_err = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                log.log_event(SupervisorEvent::new(
                    "restart",
                    Some(key.clone()),
                    format!("attempt {}: {last_err}", attempt + 1),
                ));
                let backoff = policy.retry.delay_before(attempt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            match self.spawn_and_wait(key, strategy_name, budget, policy, n_instances, attempt) {
                Ok(record) => {
                    self.lock().consecutive.remove(&key.table);
                    let total = record.reduction;
                    log.record(record);
                    return total;
                }
                Err(e) => last_err = e,
            }
            if signals::draining() {
                // A drain mid-retry: leave the cell unrecorded (it will
                // simply re-run on --resume) instead of burning the
                // remaining attempts against the shutdown.
                return 0.0;
            }
        }

        // Hard process failure: every attempt died abnormally.
        {
            let mut state = self.lock();
            let count = state.consecutive.entry(key.table.clone()).or_insert(0);
            *count += 1;
            if *count >= self.breaker_threshold {
                state.open.insert(key.table.clone());
                drop(state);
                if let Some(board) = &self.ops {
                    board.breaker_tripped(&key.table);
                }
                log.log_event(SupervisorEvent::new(
                    "breaker",
                    Some(key.clone()),
                    format!(
                        "circuit breaker for {} opened after {} consecutive hard failures",
                        key.table, self.breaker_threshold
                    ),
                ));
            }
        }
        let mut record =
            CellRecord::empty(key.clone(), strategy_name.to_string(), budget, self.seed);
        record.instances = n_instances;
        record.attempts = attempts;
        record.failures.push(CellFailure {
            instance: 0,
            seed: self.seed,
            message: format!("process worker failed after {attempts} attempts: {last_err}"),
        });
        log.record(record);
        0.0
    }

    /// Spawns one worker for `key`, supervises it to completion, and
    /// returns the record it printed. Any abnormal outcome is returned as
    /// an error for the retry loop.
    fn spawn_and_wait(
        &self,
        key: &CellKey,
        strategy_name: &str,
        budget: Budget,
        policy: &CellPolicy,
        n_instances: usize,
        attempt: u32,
    ) -> Result<CellRecord, String> {
        // Fault decisions in the child start where this process attempt's
        // in-child retries live: process attempt k covers attempt numbers
        // [k*retries, (k+1)*retries), so respawns roll independently.
        let attempt_base = attempt * policy.retry.attempts.max(1);

        let cell_arg = format!(
            "{}{sep}{}{sep}{}",
            key.table,
            key.method,
            key.column,
            sep = CELL_FIELD_SEP
        );
        let mut child = std::process::Command::new(&self.exe)
            .args(&self.base_args)
            .arg("--worker-cell")
            .arg(&cell_arg)
            .arg("--worker-attempt")
            .arg(attempt_base.to_string())
            .arg(&key.table)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn worker: {e}"))?;
        if let Some(board) = &self.ops {
            board.worker_spawned(WORKER_SLOT, attempt > 0);
        }

        // Stdout reader: forwards every line (heartbeat or record) to the
        // wait loop, and hangs up when the pipe closes (child exit or
        // SIGKILL).
        let stdout = child.stdout.take().expect("worker stdout is piped");
        let (lines_tx, lines_rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if lines_tx.send(line).is_err() {
                    return;
                }
            }
        });

        let started = Instant::now();
        let deadline = self.worker_deadline(n_instances, policy);
        let staleness = self.staleness_limit();
        let mut last_beat = started;
        let mut lines = Vec::new();
        let mut killed: Option<KillReason> = None;
        let status = loop {
            match lines_rx.recv_timeout(WAIT_TICK) {
                // Any stdout line counts as a beat; only the non-heartbeat
                // ones can hold the record.
                Ok(line) => {
                    last_beat = Instant::now();
                    if !line.starts_with("{\"hb\":") {
                        lines.push(line);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    break child
                        .wait()
                        .map_err(|e| format!("cannot wait for worker: {e}"));
                }
            }
            if killed.is_none() {
                let beat_age = last_beat.elapsed();
                if let Some(board) = &self.ops {
                    board.worker_beat(WORKER_SLOT, beat_age);
                }
                if deadline.is_some_and(|d| started.elapsed() > d) {
                    killed = Some(KillReason::Deadline);
                } else if beat_age > staleness {
                    killed = Some(KillReason::Heartbeat);
                }
                if killed.is_some() {
                    child.kill().ok();
                }
            }
        };
        // The loop ends only once the reader has hung up.
        reader.join().expect("the stdout reader does not panic");
        if let Some(board) = &self.ops {
            board.worker_exited(WORKER_SLOT);
        }
        let status = status?;

        match killed {
            Some(KillReason::Deadline) => {
                return Err(format!(
                    "worker killed: exceeded its {:.0} ms wall-clock deadline",
                    deadline
                        .expect("deadline kill implies deadline")
                        .as_secs_f64()
                        * 1e3
                ));
            }
            Some(KillReason::Heartbeat) => {
                return Err(format!(
                    "worker killed: no heartbeat for {:.0} ms",
                    staleness.as_secs_f64() * 1e3
                ));
            }
            None => {}
        }
        if !status.success() {
            return Err(describe_exit(&status));
        }
        pick_record(&lines, key, strategy_name, &budget.to_string(), self.seed)
            .ok_or_else(|| "worker exited 0 without recording its cell".to_string())
    }
}

/// The record for `key` among a worker's stdout `lines`, if the worker
/// printed one for the cell the parent asked for: same key, strategy,
/// budget and base seed. Heartbeats, torn lines and records of any other
/// cell are skipped.
fn pick_record(
    lines: &[String],
    key: &CellKey,
    strategy: &str,
    budget: &str,
    base_seed: u64,
) -> Option<CellRecord> {
    lines.iter().rev().find_map(|line| {
        let record = record_from_json(&Json::parse(line).ok()?).ok()?;
        (record.key == *key
            && record.strategy == strategy
            && record.budget == budget
            && record.base_seed == base_seed)
            .then_some(record)
    })
}

/// A human-readable description of an abnormal worker exit.
fn describe_exit(status: &std::process::ExitStatus) -> String {
    if let Some(code) = status.code() {
        if code == i32::from(exit_codes::WORKER_NO_RECORD) {
            return format!("worker exited with code {code} (ran but recorded no cell)");
        }
        return format!("worker exited with code {code}");
    }
    match exit_signal(status) {
        Some(sig) => format!("worker died on signal {sig}"),
        None => "worker exited abnormally".to_string(),
    }
}

#[cfg(unix)]
fn exit_signal(status: &std::process::ExitStatus) -> Option<i32> {
    std::os::unix::process::ExitStatusExt::signal(status)
}

#[cfg(not(unix))]
fn exit_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RetryPolicy;

    fn supervisor(config: &SuiteConfig) -> Supervisor {
        Supervisor::new(
            config,
            None,
            None,
            DEFAULT_HEARTBEAT,
            DEFAULT_BREAKER_THRESHOLD,
        )
        .unwrap()
    }

    #[test]
    fn worker_args_forward_the_suite_configuration() {
        let config = SuiteConfig::scaled(40)
            .with_seed(7)
            .with_threads(3)
            .with_retry(RetryPolicy::new(2, Duration::from_millis(10)))
            .with_watchdog(Some(Duration::from_millis(500)))
            .with_strategy(Strategy::ReplicaExchange {
                exchange_interval: 32,
            })
            .with_replicas(4);
        let sup = supervisor(&config);
        let args = sup.base_args.join(" ");
        for expected in [
            "--scale 40",
            "--seed 7",
            "--threads 3",
            "--retries 2",
            "--backoff-ms 10",
            "--watchdog-ms 500",
            "--strategy replica-exchange",
            "--exchange-interval 32",
            "--replicas 4",
            "--heartbeat-ms 250",
        ] {
            assert!(args.contains(expected), "`{expected}` missing from {args}");
        }
        // The forwarded args round-trip through the real CLI parser in
        // worker mode.
        let mut full: Vec<String> = sup.base_args.clone();
        full.extend(
            [
                "--worker-cell",
                "table4.1\u{1f}g = 1\u{1f}6 sec",
                "--worker-attempt",
                "2",
                "table4.1",
            ]
            .map(String::from),
        );
        let parsed = crate::cli::parse(&full).expect("worker args parse");
        let worker = parsed.worker.expect("worker mode");
        assert_eq!(worker.cell, CellKey::new("table4.1", "g = 1", "6 sec"));
        assert_eq!(worker.attempt, 2);
        assert_eq!(parsed.config.seed, 7);
        assert_eq!(parsed.config.scale.divisor, 40);
    }

    #[test]
    fn worker_deadline_scales_with_instances_and_retries() {
        let config = SuiteConfig::paper()
            .with_watchdog(Some(Duration::from_millis(100)))
            .with_retry(RetryPolicy::new(2, Duration::from_millis(50)));
        let sup = supervisor(&config);
        let policy = config.cell_policy();
        // 100 ms × 4 instances × 2 attempts + 50 ms backoff + 1 s headroom.
        assert_eq!(
            sup.worker_deadline(4, &policy),
            Some(Duration::from_millis(100 * 4 * 2 + 50 + 1000))
        );
        let unbounded = supervisor(&SuiteConfig::paper());
        assert_eq!(unbounded.worker_deadline(4, &policy), None);
    }

    #[test]
    fn staleness_limit_has_a_floor() {
        let config = SuiteConfig::paper();
        let mut sup = supervisor(&config);
        sup.heartbeat = Duration::from_millis(10);
        assert_eq!(sup.staleness_limit(), Duration::from_secs(2));
        sup.heartbeat = Duration::from_secs(1);
        assert_eq!(sup.staleness_limit(), Duration::from_secs(8));
    }

    #[test]
    fn breaker_opens_after_threshold_and_skips_cells() {
        let config = SuiteConfig::paper();
        let sup = supervisor(&config);
        // Trip the breaker by hand (the integration tests exercise the
        // real spawn path).
        for _ in 0..DEFAULT_BREAKER_THRESHOLD {
            let mut state = sup.lock();
            *state.consecutive.entry("table4.1".into()).or_insert(0) += 1;
            let tripped = state.consecutive["table4.1"] >= sup.breaker_threshold;
            if tripped {
                state.open.insert("table4.1".into());
            }
        }
        let log = TelemetryLog::in_memory();
        let key = CellKey::new("table4.1", "g = 1", "6 sec");
        let total = sup.run_cell(
            &key,
            "Figure1",
            Budget::evaluations(100),
            &CellPolicy::sequential(),
            4,
            &log,
        );
        assert_eq!(total, 0.0);
        let record = log.records().remove(0);
        assert!(!record.ok());
        assert!(
            record.failures[0].message.contains("circuit breaker open"),
            "{}",
            record.failures[0].message
        );
        // Other tables are unaffected by this table's breaker.
        assert!(!sup.lock().open.contains("table4.2a"));
    }

    fn worker_record(key: CellKey) -> CellRecord {
        let mut record = CellRecord::empty(key, "Figure1".into(), Budget::evaluations(100), 1985);
        record.instances = 4;
        record.reduction = 12.375;
        record.evals = 400;
        record
    }

    /// Picks from `lines` the record of the cell every test below asks
    /// for.
    fn pick(lines: &[String]) -> Option<CellRecord> {
        let key = CellKey::new("table4.1", "g = 1", "6 sec");
        pick_record(lines, &key, "Figure1", "100 evals", 1985)
    }

    #[test]
    fn pick_record_skips_heartbeats_around_the_record() {
        let record = worker_record(CellKey::new("table4.1", "g = 1", "6 sec"));
        let lines = [
            "{\"hb\":0}".to_string(),
            "{\"hb\":1}".to_string(),
            record.to_json().to_string(),
            "{\"hb\":2}".to_string(),
        ];
        assert_eq!(pick(&lines), Some(record));
    }

    #[test]
    fn pick_record_rejects_torn_missing_and_foreign_records() {
        let record = worker_record(CellKey::new("table4.1", "g = 1", "6 sec"));
        let json = record.to_json().to_string();
        let torn = json[..json.len() / 2].to_string();
        assert_eq!(pick(&["{\"hb\":0}".to_string(), torn]), None);
        assert_eq!(pick(&["{\"hb\":0}".to_string()]), None);
        assert_eq!(pick(&[]), None);

        let other_cell = worker_record(CellKey::new("table4.1", "g = 2", "6 sec"));
        assert_eq!(pick(&[other_cell.to_json().to_string()]), None);
        let mut other_seed = record.clone();
        other_seed.base_seed = 7;
        assert_eq!(pick(&[other_seed.to_json().to_string()]), None);
        let mut other_budget = record.clone();
        other_budget.budget = "200 evals".into();
        assert_eq!(pick(&[other_budget.to_json().to_string()]), None);
        let mut other_strategy = record;
        other_strategy.strategy = "Figure2".into();
        assert_eq!(pick(&[other_strategy.to_json().to_string()]), None);
    }

    #[test]
    fn signals_report_idle_before_install() {
        signals::reset_for_test();
        assert!(!signals::draining());
        assert_eq!(signals::shutdown_signal(), None);
    }

    #[test]
    fn describe_exit_names_codes() {
        // A real status is awkward to fabricate portably; exercise the
        // code paths through a child that exits nonzero.
        let status = std::process::Command::new("sh")
            .args(["-c", "exit 4"])
            .status()
            .unwrap();
        let msg = describe_exit(&status);
        assert!(msg.contains("code 4"), "{msg}");
        assert!(msg.contains("recorded no cell"), "{msg}");
    }
}

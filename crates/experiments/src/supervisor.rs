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
//! hidden `--worker` mode and running the table cells in that child
//! process, one at a time:
//!
//! * the supervisor spawns the worker at the first cell it must run and
//!   keeps it for the rest of the run. Each cell is one [`CellRequest`]
//!   line on the worker's stdin. The worker looks the cell up in its
//!   table's cell list, runs it on the instance set of the table it last
//!   served ([`tables::TableCache`](crate::tables::TableCache)), and answers
//!   on its stdout pipe: `{"hb":k}` heartbeat lines all its life, and the
//!   cell's [`CellRecord`] as one JSON line. It exits at stdin EOF;
//! * the supervisor enforces a per-cell **wall-clock deadline** (derived
//!   from `--watchdog-ms`) and a **heartbeat staleness** bound, both
//!   counted from the request, with SIGKILL — catching the hangs the
//!   in-process watchdog cannot;
//! * a worker that dies, is killed, exits or cannot take a request is
//!   reaped and replaced, and only its in-flight cell is **retried**,
//!   under the existing deterministic
//!   [`RetryPolicy`](crate::runner::RetryPolicy) backoff, with the attempt
//!   base sent along so fault-injection decisions roll independently
//!   across respawns;
//! * a per-problem-class **circuit breaker** skips a table after N
//!   consecutive hard process failures (recorded in the failure manifest;
//!   the suite completes degraded instead of dying);
//! * [`signals`] drains on SIGINT/SIGTERM: the in-flight cell finishes,
//!   subsequent cells are skipped, and the WAL is left clean and
//!   resumable. [`Supervisor::shutdown`] (also run when the supervisor is
//!   dropped) closes the worker's stdin and reaps it, so no exit path
//!   leaves a worker behind.
//!
//! The parent stays the single writer of the main WAL: it accepts a
//! worker's answer once it is the record of the cell it asked for, and
//! records it like the in-process runner would. The record's `f64`s
//! survive the JSON round trip exactly, which is what keeps process
//! isolation and `--resume` bit-identical to a thread-isolated run.
//!
//! Besides the breakers' failure streaks, the supervisor's state holds
//! what the live views (`--progress`, `/progress`, `/healthz`) show of it:
//! its one worker slot (cells run one at a time) with the last heartbeat
//! age, the respawn count, and the open breakers in trip order. The
//! `workers.live`, `worker_heartbeat_age_ms` and `breaker_open` gauges and
//! the `supervisor.spawns` and `supervisor.respawns` counters are set where
//! those events happen.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdin, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anneal_core::json::Json;
use anneal_core::{json_object, metrics, Budget, Strategy};

use crate::checkpoint::{field_u64, record_from_json};
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

/// Heartbeat interval for worker processes.
pub const HEARTBEAT: Duration = Duration::from_millis(250);

/// How stale the last heartbeat may grow before the worker is presumed
/// wedged: eight intervals, generous because a missed beat means SIGKILL.
const STALENESS_LIMIT: Duration = HEARTBEAT.saturating_mul(8);

/// Default circuit-breaker threshold (`--breaker-threshold`): consecutive
/// hard process failures in one table before the rest of that table is
/// skipped.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;

/// How long the wait loop waits for a worker line before it re-checks the
/// deadline and the heartbeat age.
const WAIT_TICK: Duration = Duration::from_millis(50);

/// The worker's slot number in `/progress` and the heartbeat gauge's
/// label. Cells run one at a time, so the supervisor has a single slot.
const WORKER_SLOT: usize = 0;

/// What killed a worker, when the supervisor had to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillReason {
    Deadline,
    Heartbeat,
}

/// One cell as the supervisor asks its worker for it: one JSON line on the
/// worker's stdin, the cell's key and the fault-injection attempt base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRequest {
    /// The cell to run, looked up in its table's cell list.
    pub key: CellKey,
    /// Folded into every fault decision of this attempt (see
    /// [`FaultPlan::attempt_base`]), so a retried cell rolls fresh faults.
    pub attempt_base: u32,
}

impl CellRequest {
    /// The request as one JSON line, without its newline.
    pub fn to_line(&self) -> String {
        json_object! { ..self.key.members(), "attempt": self.attempt_base }.to_string()
    }

    /// The request a [`to_line`](Self::to_line) line carries.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = Json::parse(line).map_err(|e| format!("bad cell request `{line}`: {e}"))?;
        let attempt = field_u64(&v, "attempt")?;
        Ok(CellRequest {
            key: CellKey::from_json(&v)?,
            attempt_base: u32::try_from(attempt)
                .map_err(|_| format!("cell request attempt {attempt} out of range"))?,
        })
    }
}

/// The worker process: its stdin, which carries the requests, and the
/// lines of its stdout, which a reader thread forwards until the pipe
/// closes. Dropping it closes stdin and reaps the process.
struct WorkerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl WorkerProcess {
    /// Spawns `exe base_args --worker`, its stdout piped to a reader
    /// thread.
    fn spawn(exe: &std::path::Path, base_args: &[String]) -> Result<Self, String> {
        let mut child = std::process::Command::new(exe)
            .args(base_args)
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn worker: {e}"))?;
        let stdout = child.stdout.take().expect("worker stdout is piped");
        let (tx, lines) = mpsc::channel();
        // Forwards every line (heartbeat or record) to the wait loop, and
        // hangs up when the pipe closes (worker exit or SIGKILL).
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        Ok(WorkerProcess {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
        })
    }

    /// Writes `request` as one line to the worker's stdin.
    fn send(&mut self, request: &CellRequest) -> std::io::Result<()> {
        let stdin = self.stdin.as_mut().ok_or(std::io::ErrorKind::BrokenPipe)?;
        crate::jsonl::append(stdin, request.to_line())
    }

    /// Closes stdin, waits for the worker to exit and for its stdout to
    /// close, and returns how it exited.
    fn reap(&mut self) -> std::io::Result<ExitStatus> {
        self.stdin = None;
        let status = self.child.wait();
        if let Some(reader) = self.reader.take() {
            // The reader only forwards lines, and this also runs in `drop`,
            // which must not panic.
            reader.join().ok();
        }
        status
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        let _ = self.reap();
    }
}

/// Mutable supervisor state, per run.
#[derive(Default)]
struct State {
    /// Consecutive hard process failures per table (reset by any success).
    consecutive: HashMap<String, u32>,
    /// The worker slot, the respawns and the open breakers.
    live: Live,
}

/// What `/progress`, `/healthz` and the `--progress` ticker show of the
/// supervisor; all empty for a run without one.
#[derive(Debug, Clone, Default)]
pub(crate) struct Live {
    /// The worker slot (cells run one at a time, so there is one); `None`
    /// before the first spawn.
    worker: Option<Worker>,
    /// Workers spawned to replace one that died.
    pub(crate) respawns: u64,
    /// Tables whose circuit breaker has tripped, in trip order: their
    /// remaining cells are skipped.
    pub(crate) breakers: Vec<String>,
}

/// The worker slot as the wait loop last reported it.
#[derive(Debug, Clone, Copy)]
struct Worker {
    /// `"live"` (running a cell), `"respawning"` (spawned after a death,
    /// not yet beating) or `"idle"` (no cell in flight).
    state: &'static str,
    /// The heartbeat age at the last report, and when that was.
    beat_age: Duration,
    reported: Instant,
}

impl Worker {
    /// The heartbeat age now: a running worker's keeps growing between
    /// reports.
    fn age(&self) -> Duration {
        match self.state {
            "idle" => self.beat_age,
            _ => self.beat_age + self.reported.elapsed(),
        }
    }
}

impl Live {
    /// The ticker's worker fragment, e.g. `1 worker(s) live, oldest hb
    /// 40ms`; `None` before the first spawn.
    pub(crate) fn ticker_fragment(&self) -> Option<String> {
        let worker = self.worker?;
        let live = worker.state != "idle";
        let mut s = format!("{} worker(s) live", usize::from(live));
        if worker.state == "respawning" {
            s.push_str(", 1 respawning");
        }
        if signals::draining() {
            s.push_str(", draining");
        }
        if live {
            let age_ms = worker.age().as_secs_f64() * 1e3;
            s.push_str(&format!(", oldest hb {age_ms:.0}ms"));
        }
        Some(s)
    }

    /// The `/progress` member listing the worker slot.
    pub(crate) fn workers_json(&self) -> Json {
        let slots = self.worker.map(|w| {
            let age_ms = Json::Num(format!("{:.0}", w.age().as_secs_f64() * 1e3));
            json_object! { "slot": WORKER_SLOT, "state": w.state, "heartbeat_age_ms": age_ms }
        });
        Json::Arr(slots.into_iter().collect())
    }
}

/// The process supervisor: sends every cell to one worker process,
/// enforces per-cell deadlines, replaces dead workers and retries their
/// cells, and trips a per-table circuit breaker. Attach to a
/// [`TelemetryLog`] via [`with_supervisor`](TelemetryLog::with_supervisor);
/// the runner then delegates every non-replayed cell here.
pub struct Supervisor {
    /// Path of the current binary, re-exec'd for each worker.
    exe: std::path::PathBuf,
    /// Flags every worker invocation shares (suite configuration).
    base_args: Vec<String>,
    /// Circuit-breaker threshold (consecutive hard failures per table).
    breaker_threshold: u32,
    /// Suite base seed (validates worker records).
    seed: u64,
    /// Per-instance watchdog deadline, used to derive the wall-clock
    /// deadline for a whole cell.
    watchdog: Option<Duration>,
    state: Mutex<State>,
    /// The worker process between cells; `None` before the first cell
    /// and after a death.
    worker: Mutex<Option<WorkerProcess>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
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
            breaker_threshold: breaker_threshold.max(1),
            seed: config.seed,
            watchdog: config.watchdog,
            state: Mutex::new(State::default()),
            worker: Mutex::new(None),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The worker slot, respawn count and open breakers as of now.
    pub(crate) fn live(&self) -> Live {
        self.lock().live.clone()
    }

    /// Notes a worker spawned into the slot for a cell; `respawn` when it
    /// replaces one that died.
    pub(crate) fn worker_spawned(&self, respawn: bool) {
        let mut state = self.lock();
        state.live.worker = Some(Worker {
            state: if respawn { "respawning" } else { "live" },
            beat_age: Duration::ZERO,
            reported: Instant::now(),
        });
        state.live.respawns += u64::from(respawn);
        drop(state);
        let reg = metrics::global();
        reg.gauge("workers.live").set(1.0);
        reg.counter("supervisor.spawns").inc();
        // Created at zero, so a run without a death still reports it.
        let respawns = reg.counter("supervisor.respawns");
        if respawn {
            respawns.inc();
        }
    }

    /// Notes the idle worker took a cell.
    fn worker_resumed(&self) {
        self.worker_beat(Duration::ZERO);
        metrics::global().gauge("workers.live").set(1.0);
    }

    /// Notes the worker's heartbeat age at a wait-loop tick: a beating
    /// worker is live, whatever it was.
    pub(crate) fn worker_beat(&self, beat_age: Duration) {
        if let Some(w) = self.lock().live.worker.as_mut() {
            *w = Worker {
                state: "live",
                beat_age,
                reported: Instant::now(),
            };
        }
        metrics::global()
            .gauge_with(
                "worker_heartbeat_age_ms",
                &[("slot", &WORKER_SLOT.to_string())],
            )
            .set(beat_age.as_secs_f64() * 1e3);
    }

    /// Notes the worker's cell ended, whether or not the worker lives on.
    pub(crate) fn worker_idle(&self) {
        if let Some(w) = self.lock().live.worker.as_mut() {
            w.state = "idle";
            w.reported = Instant::now();
        }
        metrics::global().gauge("workers.live").set(0.0);
    }

    /// Counts a hard process failure in `table` (every attempt at a cell
    /// died) and returns whether it tripped the table's breaker.
    pub(crate) fn hard_failure(&self, table: &str) -> bool {
        let mut state = self.lock();
        let count = state.consecutive.entry(table.to_string()).or_insert(0);
        *count += 1;
        // Once open, the table runs no more cells, so this trips once.
        let trips = *count == self.breaker_threshold;
        if trips {
            state.live.breakers.push(table.to_string());
            drop(state);
            metrics::global()
                .gauge_with("breaker_open", &[("table", table)])
                .set(1.0);
        }
        trips
    }

    /// Wall-clock deadline for one cell of `n_instances` instances under
    /// `policy`, counted from its request: the per-instance watchdog times
    /// the worst-case instance count across in-worker retries, plus the
    /// worker's backoff sleeps and one second for a worker start and an
    /// instance-set build. `None` (no watchdog) leaves only the heartbeat
    /// staleness bound.
    fn worker_deadline(&self, n_instances: usize, policy: &CellPolicy) -> Option<Duration> {
        let per_instance = self.watchdog?;
        let attempts = policy.retry.attempts.max(1);
        let mut deadline = per_instance * n_instances.max(1) as u32 * attempts;
        for retry in 1..attempts {
            deadline += policy.retry.delay_before(retry);
        }
        Some(deadline + Duration::from_secs(1))
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
        if self.lock().live.breakers.contains(&key.table) {
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
            match self.serve_cell(
                key,
                strategy_name,
                budget,
                policy,
                n_instances,
                attempt,
                log,
            ) {
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
        if self.hard_failure(&key.table) {
            log.log_event(SupervisorEvent::new(
                "breaker",
                Some(key.clone()),
                format!(
                    "circuit breaker for {} opened after {} consecutive hard failures",
                    key.table, self.breaker_threshold
                ),
            ));
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

    /// Sends `key` to the worker (spawning one if none is alive),
    /// supervises the cell to its record, and returns it. Any other outcome
    /// is returned as an error for the retry loop, after the worker is
    /// reaped. `log`'s ticker shows the worker at every wait-loop tick.
    #[allow(clippy::too_many_arguments)]
    fn serve_cell(
        &self,
        key: &CellKey,
        strategy_name: &str,
        budget: Budget,
        policy: &CellPolicy,
        n_instances: usize,
        attempt: u32,
        log: &TelemetryLog,
    ) -> Result<CellRecord, String> {
        let mut slot = self.worker.lock().unwrap_or_else(PoisonError::into_inner);
        let mut worker = match slot.take() {
            Some(worker) => {
                self.worker_resumed();
                worker
            }
            None => {
                let respawn = self.lock().live.worker.is_some();
                let worker = WorkerProcess::spawn(&self.exe, &self.base_args)?;
                self.worker_spawned(respawn);
                worker
            }
        };

        // Fault decisions in the worker start where this process attempt's
        // in-worker retries live: process attempt k covers attempt numbers
        // [k*retries, (k+1)*retries), so retries roll independently.
        let request = CellRequest {
            key: key.clone(),
            attempt_base: attempt * policy.retry.attempts.max(1),
        };
        let budget = budget.to_string();
        let started = Instant::now();
        let deadline = self.worker_deadline(n_instances, policy);
        let mut last_beat = started;
        let mut lines = Vec::new();
        let mut killed: Option<KillReason> = None;
        if worker.send(&request).is_err() {
            // Its stdin is closed, so the worker is dead or dying: make sure,
            // and let its exit status say why.
            worker.child.kill().ok();
        }
        loop {
            match worker.lines.recv_timeout(WAIT_TICK) {
                // Any stdout line counts as a beat; only the non-heartbeat
                // ones can hold the record.
                Ok(line) => {
                    last_beat = Instant::now();
                    if !line.starts_with("{\"hb\":") {
                        lines.push(line);
                        if let Some(record) =
                            pick_record(&lines, key, strategy_name, &budget, self.seed)
                        {
                            self.worker_idle();
                            *slot = Some(worker);
                            return Ok(record);
                        }
                        // An answer that is not the cell's record: hang up,
                        // and let the worker's exit say what went wrong.
                        worker.stdin = None;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if killed.is_none() {
                let beat_age = last_beat.elapsed();
                self.worker_beat(beat_age);
                log.redraw_ticker();
                if deadline.is_some_and(|d| started.elapsed() > d) {
                    killed = Some(KillReason::Deadline);
                } else if beat_age > STALENESS_LIMIT {
                    killed = Some(KillReason::Heartbeat);
                }
                if killed.is_some() {
                    worker.child.kill().ok();
                }
            }
        }
        // The loop ends only once the reader has hung up.
        let status = worker.reap();
        self.worker_idle();
        let status = status.map_err(|e| format!("cannot wait for worker: {e}"))?;

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
                    STALENESS_LIMIT.as_secs_f64() * 1e3
                ));
            }
            None => {}
        }
        if !status.success() {
            return Err(describe_exit(&status));
        }
        Err("worker exited 0 without recording its cell".to_string())
    }

    /// Closes the worker's stdin and reaps it. Every way out of a
    /// supervised run comes through here (it also runs when the supervisor
    /// is dropped), so no worker outlives its supervisor. The next cell,
    /// if any, spawns a new worker.
    pub fn shutdown(&self) {
        let worker = self
            .worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        drop(worker);
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
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
        Supervisor::new(config, None, None, DEFAULT_BREAKER_THRESHOLD).unwrap()
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
        ] {
            assert!(args.contains(expected), "`{expected}` missing from {args}");
        }
        // The forwarded args round-trip through the real CLI parser in
        // worker mode.
        let mut full: Vec<String> = sup.base_args.clone();
        full.push("--worker".into());
        let parsed = crate::cli::parse(&full).expect("worker args parse");
        assert!(parsed.worker, "worker mode");
        assert!(parsed.experiments.is_empty());
        assert_eq!(parsed.config.seed, 7);
        assert_eq!(parsed.config.scale.divisor, 40);
        assert_eq!(parsed.config.replicas, Some(4));
    }

    #[test]
    fn cell_requests_round_trip_every_key_of_the_cell_tables() {
        let config = SuiteConfig::scaled(2000);
        let tables = [
            "table4.1",
            "table4.2a",
            "table4.2b",
            "table4.2c",
            "table4.2d",
            "adaptive",
        ];
        let mut keys: Vec<CellKey> = tables
            .iter()
            .flat_map(|t| {
                crate::tables::spec(t, &config)
                    .expect("a cell table")
                    .keys(t)
            })
            .collect();
        assert_eq!(keys.len(), 215);
        // The labels carry spaces, brackets and `=`.
        for label in ["[COHO83a]", "g = 1", "6 Quadratic Diff", "12 sec"] {
            let listed = |k: &CellKey| k.method == label || k.column == label;
            assert!(keys.iter().any(listed), "no key carries `{label}`");
        }
        // And a key no table lists, with quotes, a backslash, control
        // characters and non-ASCII text.
        keys.push(CellKey::new("t\"1\\", "m\u{1f}\n", "Δ 9 sec"));
        for (i, key) in keys.into_iter().enumerate() {
            let request = CellRequest {
                key,
                attempt_base: i as u32 * 3,
            };
            let line = request.to_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(CellRequest::parse(&line), Ok(request));
        }
        assert!(CellRequest::parse("{\"table\":\"t\"}").is_err());
        assert!(CellRequest::parse("not json").is_err());
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
    fn breaker_opens_after_threshold_and_skips_cells() {
        let config = SuiteConfig::paper();
        let sup = supervisor(&config);
        // Count the hard failures by hand (the integration tests exercise
        // the real spawn path): only the last one trips the breaker.
        let trips: Vec<bool> = (0..DEFAULT_BREAKER_THRESHOLD)
            .map(|_| sup.hard_failure("table4.1"))
            .collect();
        assert_eq!(trips, [false, false, true]);
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
        assert_eq!(sup.live().breakers, ["table4.1"]);
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

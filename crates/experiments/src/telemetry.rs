//! Cell-level telemetry for the experiment harness.
//!
//! Every table cell (method × budget column, summed over the instance set)
//! can emit one [`CellRecord`]: identity, wall time, evaluation counts, the
//! acceptance breakdown aggregated per temperature, compact per-instance
//! rows, and any instance panics caught by the fault-isolated runner. A
//! [`TelemetryLog`] collects records in memory and optionally streams each
//! one as a JSON line, so a multi-hour table run leaves a triageable trace
//! even if it is interrupted — and a single bad cell is a recorded failure
//! instead of a lost run.
//!
//! Records are built as [`anneal_core::json::Json`] values; the format is
//! documented in EXPERIMENTS.md and exercised by tests below.
//!
//! The log is also the only count of a live run. The `--progress` ticker
//! line, the `/progress` document and the `/healthz` answer are functions
//! of its records, its lost-record list and, under process isolation, the
//! [`Supervisor`]'s worker slot, respawns and open breakers. Each is read
//! under one lock at a time: no path holds the log's lock and the
//! supervisor's at once.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use anneal_core::json::Json;
use anneal_core::{json_object, metrics, AdvanceReason, Budget, RunResult, StopReason};

use crate::faults::FaultPlan;
use crate::supervisor::{signals, Live, Supervisor};
use crate::trace::TraceSink;

/// Identity of one table cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Table name (e.g. `"table4.1"`).
    pub table: String,
    /// Method row label (e.g. `"g = 1"`).
    pub method: String,
    /// Budget/strategy column label (e.g. `"12 sec"`).
    pub column: String,
}

impl CellKey {
    /// A cell key from its three labels.
    pub fn new(
        table: impl Into<String>,
        method: impl Into<String>,
        column: impl Into<String>,
    ) -> Self {
        CellKey {
            table: table.into(),
            method: method.into(),
            column: column.into(),
        }
    }

    /// The `table`, `method` and `column` members every log line about a
    /// cell carries.
    pub(crate) fn members(&self) -> [(&'static str, Json); 3] {
        let [table, method, column] = [&self.table, &self.method, &self.column].map(String::as_str);
        [("table", table), ("method", method), ("column", column)].map(|(k, v)| (k, v.into()))
    }

    /// The cell a log line names with its [`members`](Self::members).
    pub(crate) fn from_json(v: &Json) -> Result<Self, String> {
        let member = |key| crate::checkpoint::field_str(v, key);
        Ok(CellKey::new(
            member("table")?,
            member("method")?,
            member("column")?,
        ))
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / {} / {}", self.table, self.method, self.column)
    }
}

/// One instance's contribution to a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceRecord {
    /// Instance index within the set.
    pub index: usize,
    /// The chain seed the run used (reproduces the run on its own).
    pub seed: u64,
    /// Cost reduction achieved.
    pub reduction: f64,
    /// Evaluations charged.
    pub evals: u64,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Stop reason (`"budget"` or `"equilibrium"`).
    pub stop: &'static str,
    /// Downhill acceptances.
    pub accepted_downhill: u64,
    /// Uphill acceptances.
    pub accepted_uphill: u64,
    /// Uphill rejections.
    pub rejected_uphill: u64,
}

/// Per-temperature counters aggregated over a cell's instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct TempAggregate {
    /// Temperature index.
    pub temp: usize,
    /// Evaluations across instances at this temperature.
    pub evals: u64,
    /// Proposals made at this temperature (the acceptance-rate denominator).
    pub proposals: u64,
    /// Downhill acceptances.
    pub accepted_downhill: u64,
    /// Uphill acceptances.
    pub accepted_uphill: u64,
    /// Uphill rejections.
    pub rejected_uphill: u64,
    /// Stages that ended by budget exhaustion.
    pub ended_budget: u64,
    /// Stages that ended by the equilibrium criterion.
    pub ended_equilibrium: u64,
    /// Stages closed by a replica-exchange swap phase.
    pub ended_exchange: u64,
    /// Replica-exchange swaps attempted with this rung as the lower pair
    /// member.
    pub swap_attempts: u64,
    /// Replica-exchange swaps accepted.
    pub swap_accepts: u64,
    /// Sum of the controlled stage temperatures across instances. Divide
    /// by the stage count (`ended_*` sum) for the mean stage temperature.
    /// NaN when a stage had no single temperature.
    pub temperature: f64,
    /// Sum of the controller's target acceptance rates across instances.
    /// NaN when no adaptive controller ran.
    pub target_acceptance: f64,
}

/// `f64` sums compare bitwise so NaN (no controller) stays reflexive and
/// WAL round-trip tests can use plain equality.
impl PartialEq for TempAggregate {
    fn eq(&self, other: &Self) -> bool {
        self.temp == other.temp
            && self.evals == other.evals
            && self.proposals == other.proposals
            && self.accepted_downhill == other.accepted_downhill
            && self.accepted_uphill == other.accepted_uphill
            && self.rejected_uphill == other.rejected_uphill
            && self.ended_budget == other.ended_budget
            && self.ended_equilibrium == other.ended_equilibrium
            && self.ended_exchange == other.ended_exchange
            && self.swap_attempts == other.swap_attempts
            && self.swap_accepts == other.swap_accepts
            && self.temperature.to_bits() == other.temperature.to_bits()
            && self.target_acceptance.to_bits() == other.target_acceptance.to_bits()
    }
}

impl Eq for TempAggregate {}

/// A caught instance panic inside a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Instance index that panicked.
    pub instance: usize,
    /// The chain seed of the panicking run.
    pub seed: u64,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl CellFailure {
    fn to_json(&self) -> Json {
        let message = self.message.as_str();
        json_object! { "instance": self.instance, "seed": self.seed, "message": message }
    }
}

/// The telemetry record for one table cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Cell identity.
    pub key: CellKey,
    /// Strategy name (`"Figure1"`, `"Figure2"`, `"Rejectionless"`).
    pub strategy: String,
    /// Per-instance budget (e.g. `"1500 evals"`).
    pub budget: String,
    /// The instance set's base seed.
    pub base_seed: u64,
    /// Number of instances attempted.
    pub instances: usize,
    /// Total reduction over completed instances (the table cell value).
    pub reduction: f64,
    /// Total evaluations over completed instances.
    pub evals: u64,
    /// Total wall-clock milliseconds over completed instances.
    pub wall_ms: f64,
    /// Downhill acceptances over completed instances.
    pub accepted_downhill: u64,
    /// Uphill acceptances over completed instances.
    pub accepted_uphill: u64,
    /// Uphill rejections over completed instances.
    pub rejected_uphill: u64,
    /// Completed instances that stopped on budget exhaustion.
    pub stops_budget: usize,
    /// Completed instances that stopped on the equilibrium criterion.
    pub stops_equilibrium: usize,
    /// Run attempts the cell took (1 = no retries were needed).
    pub attempts: u32,
    /// Acceptance breakdown aggregated per temperature index.
    pub per_temp: Vec<TempAggregate>,
    /// Compact per-instance rows.
    pub per_instance: Vec<InstanceRecord>,
    /// Caught panics from the final attempt; empty means the cell
    /// completed cleanly.
    pub failures: Vec<CellFailure>,
}

impl CellRecord {
    /// Whether every instance completed without panicking.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Folds one completed instance run, which took `wall`, into the
    /// aggregates.
    pub(crate) fn absorb<S>(
        &mut self,
        index: usize,
        seed: u64,
        result: &RunResult<S>,
        wall: Duration,
    ) {
        let (reduction, evals) = (result.reduction(), result.stats.evals);
        self.reduction += reduction;
        self.evals += evals;
        let wall_ms = wall.as_secs_f64() * 1e3;
        self.wall_ms += wall_ms;
        let (mut ad, mut au, mut ru) = (0, 0, 0);
        for stage in &result.stats.per_temp {
            ad += stage.accepted_downhill;
            au += stage.accepted_uphill;
            ru += stage.rejected_uphill;
            if self.per_temp.len() <= stage.temp {
                self.per_temp
                    .resize(stage.temp + 1, TempAggregate::default());
                for (i, agg) in self.per_temp.iter_mut().enumerate() {
                    agg.temp = i;
                }
            }
            let agg = &mut self.per_temp[stage.temp];
            agg.evals += stage.evals;
            agg.proposals += stage.proposals;
            agg.accepted_downhill += stage.accepted_downhill;
            agg.accepted_uphill += stage.accepted_uphill;
            agg.rejected_uphill += stage.rejected_uphill;
            agg.swap_attempts += stage.swap_attempts;
            agg.swap_accepts += stage.swap_accepts;
            // NaN (rejectionless-style stages, pre-controller cores)
            // poisons the sum, which serializes as null — "no data"
            // rather than a silently wrong mean.
            agg.temperature += stage.temperature;
            agg.target_acceptance += stage.target_acceptance;
            match stage.ended_by {
                AdvanceReason::Budget => agg.ended_budget += 1,
                AdvanceReason::Equilibrium => agg.ended_equilibrium += 1,
                AdvanceReason::Exchange => agg.ended_exchange += 1,
            }
        }
        self.accepted_downhill += ad;
        self.accepted_uphill += au;
        self.rejected_uphill += ru;
        match result.stop {
            StopReason::Budget => self.stops_budget += 1,
            StopReason::Equilibrium => self.stops_equilibrium += 1,
        }
        self.per_instance.push(InstanceRecord {
            index,
            seed,
            reduction,
            evals,
            wall_ms,
            stop: result.stop.as_str(),
            accepted_downhill: ad,
            accepted_uphill: au,
            rejected_uphill: ru,
        });
    }

    /// An empty record for `key`, before any instance has been absorbed.
    pub(crate) fn empty(key: CellKey, strategy: String, budget: Budget, base_seed: u64) -> Self {
        CellRecord {
            key,
            strategy,
            budget: budget.to_string(),
            base_seed,
            instances: 0,
            reduction: 0.0,
            evals: 0,
            wall_ms: 0.0,
            accepted_downhill: 0,
            accepted_uphill: 0,
            rejected_uphill: 0,
            stops_budget: 0,
            stops_equilibrium: 0,
            attempts: 1,
            per_temp: Vec::new(),
            per_instance: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> Json {
        let per_temp = self.per_temp.iter().map(|t| {
            json_object! {
                "temp": t.temp, "evals": t.evals, "proposals": t.proposals,
                "accepted_downhill": t.accepted_downhill, "accepted_uphill": t.accepted_uphill,
                "rejected_uphill": t.rejected_uphill, "ended_budget": t.ended_budget,
                "ended_equilibrium": t.ended_equilibrium, "ended_exchange": t.ended_exchange,
                "swap_attempts": t.swap_attempts, "swap_accepts": t.swap_accepts,
                "temperature": t.temperature, "target_acceptance": t.target_acceptance,
            }
        });
        let per_instance = self.per_instance.iter().map(|r| {
            json_object! {
                "instance": r.index, "seed": r.seed, "reduction": r.reduction, "evals": r.evals,
                "wall_ms": r.wall_ms, "stop": r.stop, "accepted_downhill": r.accepted_downhill,
                "accepted_uphill": r.accepted_uphill, "rejected_uphill": r.rejected_uphill,
            }
        });
        let failures = self.failures.iter().map(CellFailure::to_json);
        json_object! {
            ..self.key.members(), "strategy": self.strategy.as_str(),
            "budget": self.budget.as_str(), "base_seed": self.base_seed,
            "instances": self.instances, "reduction": self.reduction, "evals": self.evals,
            "wall_ms": self.wall_ms, "accepted_downhill": self.accepted_downhill,
            "accepted_uphill": self.accepted_uphill, "rejected_uphill": self.rejected_uphill,
            "stops_budget": self.stops_budget, "stops_equilibrium": self.stops_equilibrium,
            "ok": self.ok(), "attempts": self.attempts,
            "per_temp": Json::Arr(per_temp.collect()),
            "per_instance": Json::Arr(per_instance.collect()),
            "failures": Json::Arr(failures.collect()),
        }
    }
}

/// One supervisor lifecycle event, recorded in the WAL (schema v4) so
/// `report` can reconstruct what the process supervisor did: worker
/// restarts after abnormal exits, circuit-breaker trips, and graceful
/// signal drains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorEvent {
    /// Event kind: `"restart"`, `"breaker"` or `"drain"`.
    pub kind: String,
    /// The cell the event concerns, when it concerns one.
    pub cell: Option<CellKey>,
    /// Human-readable detail (exit status, signal name, ...).
    pub detail: String,
}

impl SupervisorEvent {
    /// An event of `kind` about `cell` (optional) with `detail`.
    pub fn new(kind: impl Into<String>, cell: Option<CellKey>, detail: impl Into<String>) -> Self {
        SupervisorEvent {
            kind: kind.into(),
            cell,
            detail: detail.into(),
        }
    }

    /// The event as one JSON object. The `"sup"` key distinguishes event
    /// lines from cell-record lines in the WAL.
    pub fn to_json(&self) -> Json {
        let mut event = vec![("sup", Json::from(self.kind.as_str()))];
        event.extend(self.cell.iter().flat_map(CellKey::members));
        event.push(("detail", self.detail.as_str().into()));
        Json::obj(event)
    }
}

impl fmt::Display for SupervisorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cell {
            Some(cell) => write!(f, "{}: {} — {}", self.kind, cell, self.detail),
            None => write!(f, "{}: {}", self.kind, self.detail),
        }
    }
}

/// A sink for [`CellRecord`]s: in-memory collection plus an optional
/// streaming JSON-lines writer. Thread-safe — the parallel runner records
/// from worker threads — and poison-proof: a writer that panics mid-record
/// must not wedge the remaining cells, so the inner mutex is recovered
/// rather than propagated.
///
/// The log also carries the suite's failure-path machinery: write-error
/// accounting (a record that could not be persisted is counted and named in
/// the [`SuiteSummary`]), the optional [`FaultPlan`] the runner consults for
/// chaos injection, and the `--resume` replay cache of completed cells from
/// a prior run's WAL (see [`checkpoint`](crate::checkpoint)).
pub struct TelemetryLog {
    enabled: bool,
    inner: Mutex<Inner>,
    faults: Option<FaultPlan>,
    resume: HashMap<CellKey, CellRecord>,
    trace: Option<TraceSink>,
    /// Process supervisor (`--isolation process`): when attached, the
    /// runner delegates each cell to a worker process instead of running
    /// it in-process.
    supervisor: Option<Arc<Supervisor>>,
    /// When the log was made: the clock behind the live views' elapsed
    /// time and ETA.
    started: Instant,
    /// The number of cells the suite will record, when known.
    expected: Option<usize>,
    /// Whether each record redraws the `--progress` ticker line.
    ticker: bool,
}

struct Inner {
    records: Vec<CellRecord>,
    writer: Option<Box<dyn Write + Send>>,
    /// Records whose JSONL line could not be written (I/O error).
    lost: Vec<CellKey>,
    /// Cells replayed from a resume cache instead of re-run.
    replayed: usize,
    /// WAL sequence number of the next record line (schema v4).
    next_seq: u64,
    /// Supervisor lifecycle events logged so far.
    events: Vec<SupervisorEvent>,
    /// Length of the last ticker line drawn, for clean `\r` overwrites.
    ticker_len: usize,
}

impl fmt::Debug for TelemetryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryLog")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl TelemetryLog {
    fn with_inner(enabled: bool, writer: Option<Box<dyn Write + Send>>) -> Self {
        TelemetryLog {
            enabled,
            inner: Mutex::new(Inner {
                records: Vec::new(),
                writer,
                lost: Vec::new(),
                replayed: 0,
                next_seq: 0,
                events: Vec::new(),
                ticker_len: 0,
            }),
            faults: None,
            resume: HashMap::new(),
            trace: None,
            supervisor: None,
            started: Instant::now(),
            expected: None,
            ticker: false,
        }
    }

    /// A log that records nothing (and lets runner panics propagate).
    pub fn disabled() -> Self {
        Self::with_inner(false, None)
    }

    /// A log collecting records in memory.
    pub fn in_memory() -> Self {
        Self::with_inner(true, None)
    }

    /// A log that additionally streams each record as one JSON line to
    /// `writer` (appended in a single write and flushed per record, so an
    /// interrupted run keeps every completed cell — the write-ahead-log
    /// property `--resume` depends on).
    pub fn with_writer(writer: Box<dyn Write + Send>) -> Self {
        Self::with_inner(true, Some(writer))
    }

    /// Attaches a fault-injection plan the runner will consult (builder
    /// style). `None` clears it.
    pub fn with_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan.filter(FaultPlan::is_active);
        self
    }

    /// Seeds the `--resume` replay cache with completed cells loaded from a
    /// prior run's WAL (builder style). Only clean (`ok`) records are
    /// cached; failed or torn cells will be re-run.
    pub fn with_resume(mut self, cells: Vec<CellRecord>) -> Self {
        for cell in cells.into_iter().filter(CellRecord::ok) {
            self.resume.insert(cell.key.clone(), cell);
        }
        self
    }

    /// Attaches a per-cell chain-trace sink (builder style); the runner
    /// writes one trace file per cell through it. `None` clears it.
    pub fn with_trace(mut self, sink: Option<TraceSink>) -> Self {
        self.trace = sink;
        self
    }

    /// Attaches a process supervisor (builder style): the runner delegates
    /// each cell to a re-exec'd worker process. `None` clears it.
    pub fn with_supervisor(mut self, supervisor: Option<Arc<Supervisor>>) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Sets the number of cells the suite will record (builder style; see
    /// [`tables::expected_cells`](crate::tables::expected_cells)): the
    /// total behind the ticker's percentage and the ETA. `None` or zero
    /// leaves it unknown, and the ticker then shows a bare counter.
    pub fn with_expected(mut self, expected: Option<usize>) -> Self {
        self.expected = expected.filter(|&n| n > 0);
        self
    }

    /// Turns the `--progress` ticker on or off (builder style): when on,
    /// each record redraws one stderr status line, rewritten in place with
    /// `\r` so that stdout stays clean for the tables.
    pub fn with_ticker(mut self, on: bool) -> Self {
        self.ticker = on;
        self
    }

    /// The attached process supervisor, if any.
    pub(crate) fn supervisor(&self) -> Option<Arc<Supervisor>> {
        self.supervisor.clone()
    }

    /// The supervisor's live state; all empty without one.
    fn live(&self) -> Live {
        self.supervisor
            .as_deref()
            .map(Supervisor::live)
            .unwrap_or_default()
    }

    /// The chain-trace sink, if tracing is on.
    pub(crate) fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Ends the ticker line with a newline, if one was drawn, so the
    /// end-of-suite summary starts clean.
    pub fn finish_progress(&self) {
        if self.lock().ticker_len > 0 {
            eprintln!();
        }
    }

    /// The active fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The cached record for `key` if it can stand in for a fresh run:
    /// same strategy, budget and base seed, and it completed cleanly.
    /// The runner re-records a replayed cell, marking it via
    /// [`record_replayed`](Self::record_replayed).
    pub(crate) fn replay(
        &self,
        key: &CellKey,
        strategy: &str,
        budget: &str,
        base_seed: u64,
    ) -> Option<CellRecord> {
        if !self.enabled {
            return None;
        }
        let cached = self.resume.get(key)?;
        (cached.strategy == strategy && cached.budget == budget && cached.base_seed == base_seed)
            .then(|| cached.clone())
    }

    /// Whether records are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Locks the inner state, recovering from poison: a panicking writer
    /// must not wedge the remaining cells.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one cell and, with the ticker on, redraws it. No-op when
    /// disabled.
    pub fn record(&self, record: CellRecord) {
        if !self.enabled {
            return;
        }
        // Labeled completion counters and the suite gauges. Cell-boundary
        // only (a few dozen updates per suite), never per proposal.
        let registry = metrics::global();
        let labels = [
            ("table", record.key.table.as_str()),
            ("method", record.key.method.as_str()),
        ];
        registry.counter_with("cells_completed", &labels).inc();
        if !record.ok() {
            registry.counter_with("cells_failed", &labels).inc();
            registry.gauge("suite.degraded").set(1.0);
        }
        if record.attempts > 1 {
            registry.counter_with("cells_retried", &labels).inc();
        }
        // Read before taking the log's lock, never under it.
        let live = self.ticker.then(|| self.live());
        let mut inner = self.lock();
        if let Some(live) = live {
            // Drawn before the WAL append reports any write error, with
            // this record counted.
            self.draw_ticker(&mut inner, Some(&record), &live);
        }
        // Every record consumes one sequence number, whether or not a
        // writer is attached.
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if let Some(w) = inner.writer.as_mut() {
            // Telemetry must never take down the run it is observing:
            // count write errors (the suite exits nonzero when any record
            // was lost) but keep going.
            let line = crate::jsonl::sequenced(seq, record.to_json()).to_string();
            if let Err(e) = crate::jsonl::append(w, line) {
                eprintln!("telemetry: write failed for cell {}: {e}", record.key);
                let key = record.key.clone();
                inner.lost.push(key);
                registry.gauge("suite.degraded").set(1.0);
            }
        }
        inner.records.push(record);
        registry
            .gauge("suite.cells_done")
            .set(inner.records.len() as f64);
    }

    /// Redraws the ticker line with the supervisor's worker slot as it is
    /// now: the supervisor's wait loop calls this at every tick, so a
    /// running worker shows between records. No-op with the ticker off.
    pub(crate) fn redraw_ticker(&self) {
        if !self.ticker {
            return;
        }
        let live = self.live();
        self.draw_ticker(&mut self.lock(), None, &live);
    }

    /// Draws the ticker line over the last one on stderr, counting the
    /// records so far and `pending`.
    fn draw_ticker(&self, inner: &mut Inner, pending: Option<&CellRecord>, live: &Live) {
        let line = self.ticker_line(inner.records.iter().chain(pending), live);
        // Pad with spaces to erase any longer previous line.
        let pad = inner.ticker_len.saturating_sub(line.len());
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{line}{}", " ".repeat(pad));
        let _ = err.flush();
        inner.ticker_len = line.len();
    }

    /// The ticker line: cells done (against the expected total when it is
    /// known), percent, ETA, elapsed time, retried and failed cells, and
    /// the supervisor's worker fragment.
    fn ticker_line<'a>(
        &self,
        records: impl IntoIterator<Item = &'a CellRecord>,
        live: &Live,
    ) -> String {
        let [done, failed, retried] = tally(records);
        let elapsed = self.started.elapsed().as_secs_f64();
        let mut line = match self.expected {
            Some(total) => {
                let pct = 100.0 * done as f64 / total as f64;
                let mut l = format!("cells {done}/{total} ({pct:.0}%)");
                if let Some(eta) = self.eta(done, elapsed) {
                    l.push_str(&format!(", eta {}", fmt_secs(eta)));
                }
                l
            }
            None => format!("cells {done}"),
        };
        line.push_str(&format!(", elapsed {}", fmt_secs(elapsed)));
        if retried > 0 {
            line.push_str(&format!(", {retried} retried"));
        }
        if failed > 0 {
            line.push_str(&format!(", {failed} FAILED"));
        }
        if let Some(fragment) = live.ticker_fragment() {
            line.push_str(&format!(", {fragment}"));
        }
        line
    }

    /// A naive ETA in seconds: the mean time per cell so far times the
    /// cells left. `None` before the first cell, after the last, or when
    /// the total is unknown.
    fn eta(&self, done: usize, elapsed: f64) -> Option<f64> {
        let total = self.expected?;
        (done > 0 && done < total).then(|| elapsed / done as f64 * (total - done) as f64)
    }

    /// The `/progress` document: cells done, failed and retried in total
    /// and per table, the ETA, lost records, and the supervisor's worker
    /// slot, respawns and open breakers. Seconds print with three
    /// decimals and heartbeat ages in whole milliseconds.
    pub(crate) fn progress_json(&self) -> String {
        let live = self.live();
        let elapsed = self.started.elapsed().as_secs_f64();
        let inner = self.lock();
        let [done, failed, retried] = tally(&inner.records);
        let mut tables: BTreeMap<&str, Vec<&CellRecord>> = BTreeMap::new();
        for r in &inner.records {
            tables.entry(&r.key.table).or_default().push(r);
        }
        let tables = tables.into_iter().map(|(table, records)| {
            let [done, failed, retried] = tally(records);
            let counts = json_object! { "done": done, "failed": failed, "retried": retried };
            (table.to_string(), counts)
        });
        let lost = inner.lost.len();
        // The predicate of `SuiteSummary::degraded`, on the same records.
        let degraded = failed > 0 || lost > 0;
        let seconds = |s: f64| Json::Num(format!("{s:.3}"));
        let breakers = live.breakers.iter().map(|t| Json::from(t.as_str()));
        json_object! {
            "elapsed_s": seconds(elapsed), "expected": self.expected.map_or(Json::Null, Json::from),
            "done": done, "failed": failed, "retried": retried,
            "eta_s": self.eta(done, elapsed).map_or(Json::Null, seconds), "degraded": degraded,
            "draining": signals::draining(), "lost": lost, "respawns": live.respawns,
            "tables": Json::Obj(tables.collect()), "workers": live.workers_json(),
            "breakers": Json::Arr(breakers.collect()),
        }
        .to_string()
    }

    /// Why the suite is degraded, or `None` while it is not: the
    /// `/healthz` answer. The suite degrades on
    /// [`SuiteSummary::degraded`], the predicate behind exit status 2, and
    /// the reasons also name the open circuit breakers.
    pub(crate) fn degradation(&self) -> Option<String> {
        let breakers = self.live().breakers;
        let summary = self.summary();
        if !summary.degraded() {
            return None;
        }
        let mut reasons = Vec::new();
        if !summary.failed.is_empty() {
            reasons.push(format!("{} cell(s) failed", summary.failed.len()));
        }
        if !summary.lost.is_empty() {
            reasons.push(format!("{} telemetry record(s) lost", summary.lost.len()));
        }
        for table in breakers {
            reasons.push(format!("circuit breaker open for {table}"));
        }
        Some(reasons.join("; "))
    }

    /// Records one supervisor lifecycle event. Event lines share the WAL
    /// but do not consume sequence numbers (only cell records do). A write
    /// error is reported but not counted against the suite — events are
    /// advisory.
    pub fn log_event(&self, event: SupervisorEvent) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        if let Some(w) = inner.writer.as_mut() {
            if let Err(e) = crate::jsonl::append(w, event.to_json().to_string()) {
                eprintln!("telemetry: write failed for supervisor event: {e}");
            }
        }
        inner.events.push(event);
    }

    /// [`record`](Self::record) for a cell replayed from the resume cache,
    /// so the summary can report how much work the WAL saved.
    pub(crate) fn record_replayed(&self, record: CellRecord) {
        if self.enabled {
            self.lock().replayed += 1;
        }
        self.record(record);
    }

    /// Snapshot of every record so far.
    pub fn records(&self) -> Vec<CellRecord> {
        self.lock().records.clone()
    }

    /// Number of records whose JSONL line could not be written.
    pub fn write_errors(&self) -> usize {
        self.lock().lost.len()
    }

    /// The end-of-suite summary over every record so far.
    pub fn summary(&self) -> SuiteSummary {
        let inner = self.lock();
        let records = &inner.records;
        let mut slowest: Vec<(CellKey, f64, u64)> = records
            .iter()
            .map(|r| (r.key.clone(), r.wall_ms, r.evals))
            .collect();
        // A WAL record's `wall_ms` may be null, which loads as NaN.
        slowest.sort_by(|a, b| b.1.total_cmp(&a.1));
        slowest.truncate(5);
        SuiteSummary {
            cells: records.len(),
            total_evals: records.iter().map(|r| r.evals).sum(),
            total_wall_ms: records.iter().map(|r| r.wall_ms).sum(),
            failed: records
                .iter()
                .filter(|r| !r.ok())
                .map(|r| FailedCell {
                    key: r.key.clone(),
                    attempts: r.attempts,
                    failures: r.failures.clone(),
                })
                .collect(),
            slowest,
            lost: inner.lost.clone(),
            replayed: inner.replayed,
            events: inner.events.clone(),
        }
    }
}

/// The cells done, failed and retried among `records`.
fn tally<'a>(records: impl IntoIterator<Item = &'a CellRecord>) -> [usize; 3] {
    let mut counts = [0; 3];
    for r in records {
        counts[0] += 1;
        counts[1] += usize::from(!r.ok());
        counts[2] += usize::from(r.attempts > 1);
    }
    counts
}

/// Whole seconds, or minutes and seconds from one minute on.
fn fmt_secs(secs: f64) -> String {
    if secs >= 60.0 {
        format!("{}m{:02}s", (secs / 60.0) as u64, (secs % 60.0) as u64)
    } else {
        format!("{secs:.0}s")
    }
}

/// One failed cell in the [`SuiteSummary`] / failure manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedCell {
    /// The cell.
    pub key: CellKey,
    /// Run attempts made (bounded by the retry policy).
    pub attempts: u32,
    /// Caught panics and watchdog timeouts from the final attempt.
    pub failures: Vec<CellFailure>,
}

/// End-of-suite triage summary: what ran, what was slow, what broke.
#[derive(Debug, Clone)]
pub struct SuiteSummary {
    /// Cells recorded.
    pub cells: usize,
    /// Evaluations across all cells.
    pub total_evals: u64,
    /// Wall-clock milliseconds across all cells (sums instance runs, so
    /// parallel runs show more than elapsed time).
    pub total_wall_ms: f64,
    /// Failed cells with their caught panics.
    pub failed: Vec<FailedCell>,
    /// The slowest cells, hottest first: `(cell, wall_ms, evals)`.
    pub slowest: Vec<(CellKey, f64, u64)>,
    /// Cells whose telemetry line was lost to a write error.
    pub lost: Vec<CellKey>,
    /// Cells replayed from a `--resume` WAL instead of re-run.
    pub replayed: usize,
    /// Supervisor lifecycle events (worker restarts, breaker trips,
    /// signal drains). Empty for in-process runs.
    pub events: Vec<SupervisorEvent>,
}

impl SuiteSummary {
    /// Whether the suite degraded in any way a caller must not ignore: a
    /// cell failed, or a telemetry record was lost. `repro` exits nonzero
    /// on this.
    pub fn degraded(&self) -> bool {
        !self.failed.is_empty() || !self.lost.is_empty()
    }

    /// The explicit failure manifest as one JSON object: every failed cell
    /// (with attempts and per-instance messages) and every lost telemetry
    /// record. Written next to the WAL when a suite degrades.
    pub fn manifest_json(&self) -> String {
        let failed = self.failed.iter().map(|cell| {
            let failures = Json::Arr(cell.failures.iter().map(CellFailure::to_json).collect());
            json_object! { ..cell.key.members(), "attempts": cell.attempts, "failures": failures }
        });
        let lost = self.lost.iter().map(|key| Json::obj(key.members()));
        json_object! {
            "schema": "anneal-repro-manifest", "version": 1u32, "cells": self.cells,
            "replayed": self.replayed, "write_errors": self.lost.len(),
            "failed_cells": Json::Arr(failed.collect()), "lost_records": Json::Arr(lost.collect()),
        }
        .to_string()
    }
}

impl fmt::Display for SuiteSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "telemetry: {} cells, {} failed, {} lost records, {} evals, {:.1} s of chain time",
            self.cells,
            self.failed.len(),
            self.lost.len(),
            self.total_evals,
            self.total_wall_ms / 1e3
        )?;
        if self.replayed > 0 {
            writeln!(f, "resumed: {} cells replayed from the WAL", self.replayed)?;
        }
        if !self.events.is_empty() {
            let count = |k: &str| self.events.iter().filter(|e| e.kind == k).count();
            writeln!(
                f,
                "supervisor: {} worker restarts, {} breaker trips, {} signal drains",
                count("restart"),
                count("breaker"),
                count("drain")
            )?;
        }
        if !self.slowest.is_empty() {
            writeln!(f, "slowest cells:")?;
            for (key, wall_ms, evals) in &self.slowest {
                writeln!(f, "  {key} — {:.1} ms, {evals} evals", wall_ms)?;
            }
        }
        if !self.failed.is_empty() {
            writeln!(f, "FAILED cells:")?;
            for cell in &self.failed {
                for fail in &cell.failures {
                    writeln!(
                        f,
                        "  {} — instance {} (seed {}, {} attempts): {}",
                        cell.key, fail.instance, fail.seed, cell.attempts, fail.message
                    )?;
                }
            }
        }
        if !self.lost.is_empty() {
            writeln!(f, "LOST telemetry records (write failures):")?;
            for key in &self.lost {
                writeln!(f, "  {key}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    fn record(table: &str, wall_ms: f64, failed: bool) -> CellRecord {
        let mut r = CellRecord::empty(
            CellKey::new(table, "g = 1", "6 sec"),
            "Figure1".into(),
            Budget::evaluations(1500),
            1985,
        );
        r.instances = 2;
        r.wall_ms = wall_ms;
        r.evals = 3000;
        if failed {
            r.failures.push(CellFailure {
                instance: 1,
                seed: 7,
                message: "boom \"quoted\"\nline2".into(),
            });
        }
        r
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let json = record("t", 1.5, true).to_json().to_string();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"table\":\"t\""));
        assert!(json.contains("\"ok\":false"));
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\\n"), "{json}");
        assert!(!json.contains('\n'), "must be a single line");
        // Balanced braces/brackets (cheap well-formedness check).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = TelemetryLog::disabled();
        log.record(record("t", 1.0, false));
        assert!(log.records().is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn writer_receives_one_line_per_record() {
        #[derive(Clone)]
        struct Shared(Arc<StdMutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared(Arc::new(StdMutex::new(Vec::new())));
        let log = TelemetryLog::with_writer(Box::new(buf.clone()));
        log.record(record("a", 1.0, false));
        log.record(record("b", 2.0, true));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn summary_ranks_slowest_and_collects_failures() {
        let log = TelemetryLog::in_memory();
        for (t, w) in [("t1", 5.0), ("t2", 50.0), ("t3", 20.0)] {
            log.record(record(t, w, false));
        }
        log.record(record("bad", 1.0, true));
        let summary = log.summary();
        assert_eq!(summary.cells, 4);
        assert_eq!(summary.failed.len(), 1);
        assert_eq!(summary.failed[0].failures[0].instance, 1);
        assert_eq!(summary.slowest[0].0.table, "t2");
        assert_eq!(summary.total_evals, 4 * 3000);
        assert!(summary.degraded());
        let shown = summary.to_string();
        assert!(shown.contains("FAILED"));
        assert!(shown.contains("instance 1"));
    }

    #[test]
    fn clean_summary_is_not_degraded() {
        let log = TelemetryLog::in_memory();
        log.record(record("t", 1.0, false));
        assert!(!log.summary().degraded());
    }

    /// A writer whose every write fails.
    struct BrokenWriter;
    impl Write for BrokenWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_are_counted_and_named() {
        let log = TelemetryLog::with_writer(Box::new(BrokenWriter));
        log.record(record("t1", 1.0, false));
        log.record(record("t2", 2.0, false));
        assert_eq!(log.write_errors(), 2);
        // The records themselves survive in memory.
        assert_eq!(log.records().len(), 2);
        let summary = log.summary();
        assert_eq!(summary.lost.len(), 2);
        assert!(summary.degraded(), "lost records degrade the suite");
        let shown = summary.to_string();
        assert!(shown.contains("2 lost records"), "{shown}");
        assert!(shown.contains("LOST telemetry records"), "{shown}");
    }

    #[test]
    fn manifest_json_is_well_formed() {
        let log = TelemetryLog::with_writer(Box::new(BrokenWriter));
        log.record(record("bad", 1.0, true));
        let manifest = log.summary().manifest_json();
        assert_eq!(
            manifest,
            r#"{"schema":"anneal-repro-manifest","version":1,"cells":1,"replayed":0,"write_errors":1,"failed_cells":[{"table":"bad","method":"g = 1","column":"6 sec","attempts":1,"failures":[{"instance":1,"seed":7,"message":"boom \"quoted\"\nline2"}]}],"lost_records":[{"table":"bad","method":"g = 1","column":"6 sec"}]}"#
        );
        // The exact bytes subsume the field checks; they must also parse.
        Json::parse(&manifest).expect("manifest parses");
    }

    /// A writer that panics on its first write, then works.
    struct PanickingWriter {
        armed: bool,
    }
    impl Write for PanickingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.armed {
                self.armed = false;
                panic!("writer exploded");
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn poisoned_mutex_does_not_wedge_later_cells() {
        let log = TelemetryLog::with_writer(Box::new(PanickingWriter { armed: true }));
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            log.record(record("t1", 1.0, false));
        }));
        assert!(boom.is_err(), "first record panics in the writer");
        // The mutex is now poisoned; the log must recover, not panic.
        log.record(record("t2", 2.0, false));
        let records = log.records();
        assert_eq!(records.len(), 1, "the panicking record was lost mid-write");
        assert_eq!(records[0].key.table, "t2");
        assert_eq!(log.summary().cells, 1);
    }

    #[test]
    fn replay_cache_matches_on_full_identity() {
        let cached = record("t", 3.0, false);
        let key = cached.key.clone();
        let log = TelemetryLog::in_memory().with_resume(vec![cached]);
        let hit = log.replay(&key, "Figure1", "1500 evals", 1985);
        assert_eq!(hit.as_ref().map(|r| r.key.clone()), Some(key.clone()));
        assert!(log.replay(&key, "Figure2", "1500 evals", 1985).is_none());
        assert!(log.replay(&key, "Figure1", "999 evals", 1985).is_none());
        assert!(log.replay(&key, "Figure1", "1500 evals", 7).is_none());
        let other = CellKey::new("other", "g = 1", "6 sec");
        assert!(log.replay(&other, "Figure1", "1500 evals", 1985).is_none());
    }

    #[test]
    fn failed_cells_are_not_cached_for_replay() {
        let bad = record("t", 3.0, true);
        let key = bad.key.clone();
        let log = TelemetryLog::in_memory().with_resume(vec![bad]);
        assert!(log.replay(&key, "Figure1", "1500 evals", 1985).is_none());
    }

    /// `record("t", ..)` with `attempts` tries.
    fn attempted(failed: bool, attempts: u32) -> CellRecord {
        CellRecord {
            attempts,
            ..record("t", 1.0, failed)
        }
    }

    #[test]
    fn ticker_renders_counts_eta_and_flags() {
        let log = TelemetryLog::in_memory()
            .with_expected(Some(4))
            .with_ticker(true);
        log.record(attempted(false, 2));
        log.record(attempted(true, 1));
        let line = log.ticker_line(&log.records(), &Live::default());
        assert!(line.contains("cells 2/4 (50%)"), "{line}");
        assert!(line.contains("eta"), "{line}");
        assert!(line.contains("1 retried"), "{line}");
        assert!(line.contains("1 FAILED"), "{line}");
        log.finish_progress();
    }

    #[test]
    fn ticker_with_an_unknown_total_is_a_bare_counter() {
        let log = TelemetryLog::in_memory();
        let records = vec![attempted(false, 1); 7];
        let line = log.ticker_line(&records, &Live::default());
        assert!(line.starts_with("cells 7,"), "{line}");
        assert!(!line.contains('%'));
    }

    #[test]
    fn a_zero_total_is_unknown() {
        let log = TelemetryLog::in_memory().with_expected(Some(0));
        assert!(log.expected.is_none());
    }

    #[test]
    fn ticker_appends_worker_liveness_from_the_supervisor() {
        let config = crate::config::SuiteConfig::paper();
        let sup = Supervisor::new(&config, None, None, 3).unwrap();
        sup.worker_spawned(false);
        let log = TelemetryLog::in_memory().with_expected(Some(4));
        let line = log.ticker_line(&[], &sup.live());
        assert!(line.contains("1 worker(s) live"), "{line}");
        assert!(line.contains("oldest hb"), "{line}");
    }

    #[test]
    fn fmt_secs_switches_to_minutes() {
        assert_eq!(fmt_secs(5.4), "5s");
        assert_eq!(fmt_secs(125.0), "2m05s");
    }

    #[test]
    fn replayed_cells_are_counted_in_summary() {
        let log = TelemetryLog::in_memory();
        log.record_replayed(record("t", 1.0, false));
        log.record(record("u", 1.0, false));
        let summary = log.summary();
        assert_eq!(summary.cells, 2);
        assert_eq!(summary.replayed, 1);
        assert!(summary.to_string().contains("1 cells replayed"));
    }
}

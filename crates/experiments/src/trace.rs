//! Per-cell chain-trace files: the JSONL serialization of
//! [`anneal_core::ChainTrace`] that `repro --trace DIR` writes and the
//! `report` tool reads back.
//!
//! Each table cell gets one file in the trace directory, named from its
//! key (`table__method__column.jsonl` after sanitization). The file starts
//! with one versioned header line identifying the cell, followed by one
//! event line per chain event, in instance order. Like the telemetry WAL
//! (see [`checkpoint`](crate::checkpoint)), the header is written and
//! flushed before any fault-injection wrapper is applied, every instance's
//! events go out in a single write, and the parser tolerates a torn final
//! line — so a killed or chaos run still leaves parseable traces.
//!
//! Event lines (all carry the `instance` index):
//!
//! ```text
//! {"event":"run_start","instance":0,"seed":..,"attempt":1,"initial_cost":..,"temperatures":..}
//! {"event":"temp","instance":0,"temp":0,"evals":..,"proposals":..,"accepted_downhill":..,
//!  "accepted_uphill":..,"rejected_uphill":..,"swap_attempts":..,"swap_accepts":..,
//!  "temperature":..,"target_acceptance":..,"ended_by":"budget","wall_ms":..}
//! {"event":"sample","instance":0,"evals":..,"cost":..}
//! {"event":"best","instance":0,"evals":..,"cost":..}
//! {"event":"stop","instance":0,"reason":"budget","evals":..,"final_cost":..,"best_cost":..,
//!  "energy_callbacks":..}
//! ```

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use anneal_core::{json, AdvanceReason, ChainTrace, StopReason};

use crate::checkpoint::Json;
use crate::faults::{ChaosWriter, FaultPlan};
use crate::telemetry::CellKey;

/// Schema identifier in a trace file's header line.
pub const TRACE_SCHEMA: &str = "anneal-chain-trace";

/// Current trace format version. Loaders accept this version or older.
///
/// History: v1 had no replica-exchange swap counters on `temp` events;
/// v2 added `swap_attempts`/`swap_accepts` (absent fields load as 0);
/// v3 added `temperature`/`target_acceptance` on `temp` events for the
/// adaptive temperature controller (absent fields load as NaN).
pub const TRACE_VERSION: u64 = 3;

/// Creates per-cell trace writers under one directory; the `--trace DIR`
/// half of the observability pipeline.
#[derive(Debug)]
pub struct TraceSink {
    dir: PathBuf,
    faults: Option<FaultPlan>,
}

impl TraceSink {
    /// A sink writing under `dir` (created if missing). When `faults`
    /// carries an active I/O fault probability, every cell writer is
    /// wrapped in a [`ChaosWriter`] — headers stay intact either way.
    pub fn new(dir: impl Into<PathBuf>, faults: Option<FaultPlan>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create trace directory `{}`: {e}", dir.display()))?;
        Ok(TraceSink {
            dir,
            faults: faults.filter(|p| p.io_p > 0.0),
        })
    }

    /// The trace file path for `key`.
    pub fn cell_path(&self, key: &CellKey) -> PathBuf {
        self.dir.join(cell_file_name(key))
    }

    /// Opens the trace file for one cell, writing and flushing its header
    /// line. Chaos wrapping (if armed) applies only to event lines.
    pub fn cell_writer(
        &self,
        key: &CellKey,
        strategy: &str,
        budget: &str,
        base_seed: u64,
    ) -> Result<CellTraceWriter, String> {
        let path = self.cell_path(key);
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("cannot create trace file `{}`: {e}", path.display()))?;
        let mut writer = std::io::BufWriter::new(file);
        writeln!(writer, "{}", header_line(key, strategy, budget, base_seed))
            .and_then(|()| writer.flush())
            .map_err(|e| format!("cannot write trace header to `{}`: {e}", path.display()))?;
        let boxed: Box<dyn Write + Send> = match self.faults {
            Some(plan) => Box::new(ChaosWriter::new(writer, plan)),
            None => Box::new(writer),
        };
        Ok(CellTraceWriter {
            inner: Mutex::new(boxed),
        })
    }
}

/// `table__method__column.jsonl` with every non-filename character mapped
/// to `_` (keeps `.` and `-`), so cell keys like `"g = 1"` become stable,
/// shell-safe names.
pub fn cell_file_name(key: &CellKey) -> String {
    let sanitize = |s: &str| -> String {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    };
    format!(
        "{}__{}__{}.jsonl",
        sanitize(&key.table),
        sanitize(&key.method),
        sanitize(&key.column)
    )
}

fn header_line(key: &CellKey, strategy: &str, budget: &str, base_seed: u64) -> String {
    format!(
        "{{\"trace\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_VERSION},\
         \"table\":\"{}\",\"method\":\"{}\",\"column\":\"{}\",\
         \"strategy\":\"{}\",\"budget\":\"{}\",\"base_seed\":{}}}",
        json::escape(&key.table),
        json::escape(&key.method),
        json::escape(&key.column),
        json::escape(strategy),
        json::escape(budget),
        base_seed
    )
}

/// One cell's trace file, shared across the runner's instance threads.
pub struct CellTraceWriter {
    inner: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for CellTraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellTraceWriter").finish()
    }
}

impl CellTraceWriter {
    /// Appends every event of one instance's [`ChainTrace`] and flushes.
    /// All lines go out in a single write, so a crash tears at most the
    /// final instance. Returns `Err` on I/O failure (the runner counts it
    /// and keeps going — tracing must never take down the run).
    pub fn write_instance(
        &self,
        instance: usize,
        seed: u64,
        attempt: u32,
        trace: &ChainTrace,
    ) -> Result<(), String> {
        let text = instance_lines(instance, seed, attempt, trace);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .write_all(text.as_bytes())
            .and_then(|()| inner.flush())
            .map_err(|e| format!("trace write for instance {instance} failed: {e}"))
    }
}

/// The event lines (newline-terminated) for one instance's trace.
pub fn instance_lines(instance: usize, seed: u64, attempt: u32, trace: &ChainTrace) -> String {
    let mut s = String::with_capacity(256 + 64 * (trace.samples.len() + trace.stages.len()));
    s.push_str(&format!(
        "{{\"event\":\"run_start\",\"instance\":{instance},\"seed\":{seed},\
         \"attempt\":{attempt},\"initial_cost\":{},\"temperatures\":{}}}\n",
        json::float(trace.initial_cost),
        trace.temperatures
    ));
    for stage in &trace.stages {
        let t = &stage.stats;
        s.push_str(&format!(
            "{{\"event\":\"temp\",\"instance\":{instance},\"temp\":{},\"evals\":{},\
             \"proposals\":{},\"accepted_downhill\":{},\"accepted_uphill\":{},\
             \"rejected_uphill\":{},\"swap_attempts\":{},\"swap_accepts\":{},\
             \"temperature\":{},\"target_acceptance\":{},\
             \"ended_by\":\"{}\",\"wall_ms\":{}}}\n",
            t.temp,
            t.evals,
            t.proposals,
            t.accepted_downhill,
            t.accepted_uphill,
            t.rejected_uphill,
            t.swap_attempts,
            t.swap_accepts,
            json::float(t.temperature),
            json::float(t.target_acceptance),
            t.ended_by.as_str(),
            json::float(stage.wall.as_secs_f64() * 1e3)
        ));
    }
    for &(evals, cost) in &trace.samples {
        s.push_str(&format!(
            "{{\"event\":\"sample\",\"instance\":{instance},\"evals\":{evals},\"cost\":{}}}\n",
            json::float(cost)
        ));
    }
    for &(evals, cost) in &trace.bests {
        s.push_str(&format!(
            "{{\"event\":\"best\",\"instance\":{instance},\"evals\":{evals},\"cost\":{}}}\n",
            json::float(cost)
        ));
    }
    if let Some(stop) = &trace.stop {
        s.push_str(&format!(
            "{{\"event\":\"stop\",\"instance\":{instance},\"reason\":\"{}\",\"evals\":{},\
             \"final_cost\":{},\"best_cost\":{},\"energy_callbacks\":{}}}\n",
            stop.reason.as_str(),
            stop.evals,
            json::float(stop.final_cost),
            json::float(stop.best_cost),
            trace.energy_events
        ));
    }
    s
}

/// A trace file's parsed header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Trace format version.
    pub version: u64,
    /// Cell identity.
    pub key: CellKey,
    /// Strategy name.
    pub strategy: String,
    /// Per-instance budget label.
    pub budget: String,
    /// The instance set's base seed.
    pub base_seed: u64,
}

/// One parsed trace event line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A chain started.
    RunStart {
        /// Instance index.
        instance: usize,
        /// Chain seed.
        seed: u64,
        /// Run attempt (1 = first try).
        attempt: u32,
        /// Cost of the starting state.
        initial_cost: f64,
        /// Temperature count `k` of the acceptance schedule.
        temperatures: usize,
    },
    /// A temperature stage closed.
    Temp {
        /// Instance index.
        instance: usize,
        /// Temperature index.
        temp: usize,
        /// Evaluations charged during the stage.
        evals: u64,
        /// Proposals made during the stage.
        proposals: u64,
        /// Downhill acceptances.
        accepted_downhill: u64,
        /// Uphill acceptances.
        accepted_uphill: u64,
        /// Uphill rejections.
        rejected_uphill: u64,
        /// Replica-exchange swaps attempted at this rung (0 pre-v2 and
        /// outside the replica-exchange strategy).
        swap_attempts: u64,
        /// Replica-exchange swaps accepted.
        swap_accepts: u64,
        /// Controlled stage temperature (trace v3; NaN in older traces
        /// and for schedule-free acceptance functions).
        temperature: f64,
        /// Adaptive-controller target acceptance rate for the stage
        /// (trace v3; NaN when no controller ran).
        target_acceptance: f64,
        /// Why the stage ended.
        ended_by: AdvanceReason,
        /// Wall-clock milliseconds spent in the stage.
        wall_ms: f64,
    },
    /// A sampled point on the energy trajectory.
    Sample {
        /// Instance index.
        instance: usize,
        /// Evaluations charged when sampled.
        evals: u64,
        /// Current cost.
        cost: f64,
    },
    /// The best-so-far cost improved.
    Best {
        /// Instance index.
        instance: usize,
        /// Evaluations charged at the improvement.
        evals: u64,
        /// The new best cost.
        cost: f64,
    },
    /// The chain stopped.
    Stop {
        /// Instance index.
        instance: usize,
        /// Why the chain stopped.
        reason: StopReason,
        /// Total evaluations charged.
        evals: u64,
        /// Cost of the final state.
        final_cost: f64,
        /// Best cost seen.
        best_cost: f64,
        /// Total energy callbacks fired (sampling kept a subset).
        energy_callbacks: u64,
    },
}

impl TraceEvent {
    /// The instance index the event belongs to.
    pub fn instance(&self) -> usize {
        match self {
            TraceEvent::RunStart { instance, .. }
            | TraceEvent::Temp { instance, .. }
            | TraceEvent::Sample { instance, .. }
            | TraceEvent::Best { instance, .. }
            | TraceEvent::Stop { instance, .. } => *instance,
        }
    }
}

/// A loaded cell trace: header, events in file order, and whether a torn
/// final line was dropped.
#[derive(Debug)]
pub struct CellTrace {
    /// The file's header.
    pub meta: TraceMeta,
    /// Every intact event, in append order.
    pub events: Vec<TraceEvent>,
    /// Whether the final line was torn (incomplete write) and dropped.
    pub torn: bool,
}

impl CellTrace {
    /// Event counts by kind: `(run_starts, temps, samples, bests, stops)`.
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for e in &self.events {
            match e {
                TraceEvent::RunStart { .. } => c.0 += 1,
                TraceEvent::Temp { .. } => c.1 += 1,
                TraceEvent::Sample { .. } => c.2 += 1,
                TraceEvent::Best { .. } => c.3 += 1,
                TraceEvent::Stop { .. } => c.4 += 1,
            }
        }
        c
    }
}

/// Loads one trace file, tolerating a torn final line.
pub fn load(path: &Path) -> Result<CellTrace, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace `{}`: {e}", path.display()))?;
    parse_str(&text).map_err(|e| format!("trace `{}`: {e}", path.display()))
}

/// [`load`] on in-memory trace text.
pub fn parse_str(text: &str) -> Result<CellTrace, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut meta = None;
    let mut events = Vec::new();
    let mut torn = false;
    let n = lines.len();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let last = i + 1 == n;
        let parsed: Result<(), String> = (|| {
            let value = Json::parse(line)?;
            if i == 0 {
                meta = Some(meta_from_json(&value)?);
            } else {
                events.push(event_from_json(&value)?);
            }
            Ok(())
        })();
        match parsed {
            Ok(()) => {}
            // Same WAL discipline as `checkpoint::load_str`: a torn final
            // line is the signature of a killed run, anything earlier is
            // real corruption.
            Err(e) if i == 0 => return Err(format!("bad trace header: {e}")),
            Err(_) if last => torn = true,
            Err(e) => return Err(format!("corrupt event at line {}: {e}", i + 1)),
        }
    }
    let meta = meta.ok_or("empty trace file (no header)")?;
    Ok(CellTrace { meta, events, torn })
}

/// Loads every `*.jsonl` trace in `dir`, sorted by file name. Unparseable
/// files are skipped with a message on stderr rather than failing the
/// whole report.
pub fn load_dir(dir: &Path) -> Result<Vec<CellTrace>, String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read trace directory `{}`: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    let mut traces = Vec::new();
    for path in paths {
        match load(&path) {
            Ok(t) => traces.push(t),
            Err(e) => eprintln!("report: skipping {e}"),
        }
    }
    Ok(traces)
}

fn meta_from_json(v: &Json) -> Result<TraceMeta, String> {
    let schema = v.get("trace").and_then(Json::as_str).unwrap_or_default();
    if schema != TRACE_SCHEMA {
        return Err(format!("unknown trace schema `{schema}`"));
    }
    let version = u64_field(v, "version")?;
    if version > TRACE_VERSION {
        return Err(format!(
            "trace version {version} is newer than supported {TRACE_VERSION}"
        ));
    }
    Ok(TraceMeta {
        version,
        key: CellKey::new(
            str_field(v, "table")?,
            str_field(v, "method")?,
            str_field(v, "column")?,
        ),
        strategy: str_field(v, "strategy")?.to_string(),
        budget: str_field(v, "budget")?.to_string(),
        base_seed: u64_field(v, "base_seed")?,
    })
}

fn event_from_json(v: &Json) -> Result<TraceEvent, String> {
    let instance = u64_field(v, "instance")? as usize;
    match str_field(v, "event")? {
        "run_start" => Ok(TraceEvent::RunStart {
            instance,
            seed: u64_field(v, "seed")?,
            attempt: u64_field(v, "attempt")? as u32,
            initial_cost: f64_field(v, "initial_cost")?,
            temperatures: u64_field(v, "temperatures")? as usize,
        }),
        "temp" => Ok(TraceEvent::Temp {
            instance,
            temp: u64_field(v, "temp")? as usize,
            evals: u64_field(v, "evals")?,
            proposals: u64_field(v, "proposals")?,
            accepted_downhill: u64_field(v, "accepted_downhill")?,
            accepted_uphill: u64_field(v, "accepted_uphill")?,
            rejected_uphill: u64_field(v, "rejected_uphill")?,
            // Absent in v1 traces (pre replica-exchange).
            swap_attempts: v.get("swap_attempts").map_or(Ok(0), Json::as_u64_checked)?,
            swap_accepts: v.get("swap_accepts").map_or(Ok(0), Json::as_u64_checked)?,
            // Absent before v3 (pre adaptive temperature control).
            temperature: optional_f64_field(v, "temperature")?,
            target_acceptance: optional_f64_field(v, "target_acceptance")?,
            ended_by: str_field(v, "ended_by")?.parse()?,
            wall_ms: f64_field(v, "wall_ms")?,
        }),
        "sample" => Ok(TraceEvent::Sample {
            instance,
            evals: u64_field(v, "evals")?,
            cost: f64_field(v, "cost")?,
        }),
        "best" => Ok(TraceEvent::Best {
            instance,
            evals: u64_field(v, "evals")?,
            cost: f64_field(v, "cost")?,
        }),
        "stop" => Ok(TraceEvent::Stop {
            instance,
            reason: str_field(v, "reason")?.parse()?,
            evals: u64_field(v, "evals")?,
            final_cost: f64_field(v, "final_cost")?,
            best_cost: f64_field(v, "best_cost")?,
            energy_callbacks: u64_field(v, "energy_callbacks")?,
        }),
        other => Err(format!("unknown event kind `{other}`")),
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .as_u64_checked()
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Json::Null) => Ok(f64::NAN),
        Some(other) => other
            .as_f64()
            .ok_or_else(|| format!("field `{key}` is not a number")),
        None => Err(format!("missing field `{key}`")),
    }
}

/// [`f64_field`] for fields older trace versions did not write: absent and
/// `null` both map to NaN.
fn optional_f64_field(v: &Json, key: &str) -> Result<f64, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(f64::NAN),
        Some(other) => other
            .as_f64()
            .ok_or_else(|| format!("field `{key}` is not a number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_core::{StageTrace, StopTrace, TempStats};
    use std::time::Duration;

    fn key() -> CellKey {
        CellKey::new("table4.1", "g = 1", "6 sec")
    }

    fn sample_trace() -> ChainTrace {
        let mut trace = ChainTrace {
            initial_cost: 100.0,
            temperatures: 2,
            stages: Vec::new(),
            samples: vec![(1, 100.0), (5, 80.0)],
            bests: vec![(1, 100.0), (5, 80.0)],
            stop: Some(StopTrace {
                reason: StopReason::Budget,
                evals: 10,
                final_cost: 80.0,
                best_cost: 80.0,
            }),
            energy_events: 10,
        };
        trace.stages.push(StageTrace {
            stats: TempStats {
                temp: 0,
                temperature: 2.5,
                target_acceptance: 0.4,
                evals: 10,
                proposals: 10,
                accepted_downhill: 3,
                accepted_uphill: 2,
                rejected_uphill: 5,
                swap_attempts: 0,
                swap_accepts: 0,
                ended_by: AdvanceReason::Budget,
            },
            wall: Duration::from_millis(4),
        });
        trace
    }

    #[test]
    fn file_name_is_sanitized_and_stable() {
        let name = cell_file_name(&key());
        assert_eq!(name, "table4.1__g___1__6_sec.jsonl");
    }

    #[test]
    fn instance_round_trips_through_parse() {
        let header = header_line(&key(), "Figure1", "1500 evals", 1985);
        let body = instance_lines(0, 42, 1, &sample_trace());
        let parsed = parse_str(&format!("{header}\n{body}")).unwrap();
        assert_eq!(parsed.meta.key, key());
        assert_eq!(parsed.meta.version, TRACE_VERSION);
        assert_eq!(parsed.meta.strategy, "Figure1");
        assert_eq!(parsed.counts(), (1, 1, 2, 2, 1));
        assert!(!parsed.torn);
        match &parsed.events[1] {
            TraceEvent::Temp {
                proposals,
                ended_by,
                temperature,
                target_acceptance,
                ..
            } => {
                assert_eq!(*proposals, 10);
                assert_eq!(*ended_by, AdvanceReason::Budget);
                assert_eq!(temperature.to_bits(), 2.5f64.to_bits());
                assert_eq!(target_acceptance.to_bits(), 0.4f64.to_bits());
            }
            other => panic!("expected temp event, got {other:?}"),
        }
    }

    #[test]
    fn v1_temp_events_load_with_zero_swap_fields() {
        let header = format!(
            "{{\"trace\":\"{TRACE_SCHEMA}\",\"version\":1,\"table\":\"t\",\"method\":\"m\",\
             \"column\":\"c\",\"strategy\":\"Figure1\",\"budget\":\"b\",\"base_seed\":1}}"
        );
        let temp = "{\"event\":\"temp\",\"instance\":0,\"temp\":0,\"evals\":9,\
             \"proposals\":9,\"accepted_downhill\":3,\"accepted_uphill\":2,\
             \"rejected_uphill\":4,\"ended_by\":\"budget\",\"wall_ms\":1.5}";
        let parsed = parse_str(&format!("{header}\n{temp}\n")).unwrap();
        assert_eq!(parsed.meta.version, 1);
        match &parsed.events[0] {
            TraceEvent::Temp {
                swap_attempts,
                swap_accepts,
                temperature,
                target_acceptance,
                ..
            } => {
                assert_eq!(*swap_attempts, 0);
                assert_eq!(*swap_accepts, 0);
                assert!(temperature.is_nan(), "absent pre-v3 field loads as NaN");
                assert!(target_acceptance.is_nan());
            }
            other => panic!("expected temp event, got {other:?}"),
        }
    }

    #[test]
    fn v2_temp_events_load_with_nan_temperature() {
        let header = format!(
            "{{\"trace\":\"{TRACE_SCHEMA}\",\"version\":2,\"table\":\"t\",\"method\":\"m\",\
             \"column\":\"c\",\"strategy\":\"Figure1\",\"budget\":\"b\",\"base_seed\":1}}"
        );
        let temp = "{\"event\":\"temp\",\"instance\":0,\"temp\":0,\"evals\":9,\
             \"proposals\":9,\"accepted_downhill\":3,\"accepted_uphill\":2,\
             \"rejected_uphill\":4,\"swap_attempts\":1,\"swap_accepts\":1,\
             \"ended_by\":\"budget\",\"wall_ms\":1.5}";
        let parsed = parse_str(&format!("{header}\n{temp}\n")).unwrap();
        assert_eq!(parsed.meta.version, 2);
        match &parsed.events[0] {
            TraceEvent::Temp {
                swap_attempts,
                temperature,
                target_acceptance,
                ..
            } => {
                assert_eq!(*swap_attempts, 1);
                assert!(temperature.is_nan());
                assert!(target_acceptance.is_nan());
            }
            other => panic!("expected temp event, got {other:?}"),
        }
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let header = header_line(&key(), "Figure1", "1500 evals", 1985);
        let body = instance_lines(0, 42, 1, &sample_trace());
        let torn_at = header.len() + 1 + body.len() / 2;
        let text = format!("{header}\n{body}");
        let parsed = parse_str(&text[..torn_at]).unwrap();
        assert!(parsed.torn);
    }

    #[test]
    fn corruption_in_the_middle_is_an_error() {
        let header = header_line(&key(), "Figure1", "1500 evals", 1985);
        let err = parse_str(&format!("{header}\nnot json\n{{\"event\":\"x\"}}\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn bad_header_is_an_error() {
        assert!(parse_str("").is_err());
        assert!(parse_str("{\"wal\":\"anneal-repro-wal\"}\n").is_err());
        let newer = format!("{{\"trace\":\"{TRACE_SCHEMA}\",\"version\":999}}\n");
        assert!(parse_str(&newer).unwrap_err().contains("newer"));
    }

    #[test]
    fn sink_writes_header_then_events() {
        let dir = std::env::temp_dir().join(format!("anneal-trace-test-{}", std::process::id()));
        let sink = TraceSink::new(&dir, None).unwrap();
        let writer = sink
            .cell_writer(&key(), "Figure1", "1500 evals", 1985)
            .unwrap();
        writer.write_instance(0, 42, 1, &sample_trace()).unwrap();
        let loaded = load(&sink.cell_path(&key())).unwrap();
        assert_eq!(loaded.meta.base_seed, 1985);
        assert_eq!(loaded.counts(), (1, 1, 2, 2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_sink_keeps_the_header_intact() {
        let dir = std::env::temp_dir().join(format!("anneal-trace-chaos-{}", std::process::id()));
        let plan = FaultPlan::parse("seed=9,io=1.0").unwrap();
        let sink = TraceSink::new(&dir, Some(plan)).unwrap();
        let writer = sink
            .cell_writer(&key(), "Figure1", "1500 evals", 1985)
            .unwrap();
        // Every event write fails, but the header survives.
        assert!(writer.write_instance(0, 42, 1, &sample_trace()).is_err());
        let loaded = load(&sink.cell_path(&key())).unwrap();
        assert_eq!(loaded.meta.key, key());
        assert_eq!(loaded.events.len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

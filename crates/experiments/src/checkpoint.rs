//! Crash-safe checkpointing: the telemetry JSONL stream as a write-ahead
//! log (WAL), plus the loader that `repro --resume` uses to replay it.
//!
//! A WAL file starts with one versioned header line identifying the schema
//! and the suite parameters, followed by one [`CellRecord`] JSON line per
//! completed table cell (appended and flushed as each cell finishes, see
//! [`TelemetryLog`](crate::telemetry::TelemetryLog)). A run that dies —
//! panic, `kill -9`, power loss — leaves a prefix of that stream, possibly
//! with a **torn final line** (the write that was in flight). [`load`]
//! tolerates exactly that: the torn line is dropped and reported, while
//! corruption anywhere else is an error. The header, append and torn-line
//! rules are the shared ones of [`jsonl`](crate::jsonl).
//!
//! Because every cell is deterministically seeded from `(base_seed, table,
//! method, column, instance)`, replaying completed cells from the WAL and
//! re-running only the missing or failed ones reproduces tables
//! **bitwise-identical** to an uninterrupted run: `f64` cell values survive
//! the JSON round-trip exactly (Rust's shortest-repr `Display` → `FromStr`
//! is lossless), and the integration tests in `tests/resume.rs` lock that
//! in.
//!
//! Every line is built and read as a [`Json`] value (the workspace's one
//! JSON spelling, `anneal_core::json`, re-exported here).

use std::io::Write;
use std::path::Path;

pub use anneal_core::json::Json;

use crate::jsonl::WAL;
use crate::telemetry::{
    CellFailure, CellKey, CellRecord, InstanceRecord, SupervisorEvent, TempAggregate,
};

/// Suite parameters recorded in the WAL header, used by `--resume` to warn
/// when a log is replayed under different settings (per-cell validation in
/// the runner still guards correctness either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalMeta {
    /// Suite base seed.
    pub seed: u64,
    /// Budget scale divisor.
    pub scale: u64,
}

impl WalMeta {
    /// The header of a fresh WAL.
    pub fn new(seed: u64, scale: u64) -> Self {
        WalMeta { seed, scale }
    }

    /// The header as one JSON line (no trailing newline).
    pub fn header_line(&self) -> String {
        WAL.header(self.fields()).to_string()
    }

    fn fields(&self) -> [(&'static str, Json); 2] {
        [("seed", self.seed.into()), ("scale", self.scale.into())]
    }
}

/// A loaded WAL: header, the parsed cell records, and whether a torn final
/// line was dropped.
#[derive(Debug)]
pub struct Checkpoint {
    /// Header metadata; `None` for a WAL with no complete line.
    pub meta: Option<WalMeta>,
    /// Every intact cell record, in append order.
    pub cells: Vec<CellRecord>,
    /// Supervisor lifecycle events interleaved in the stream.
    pub events: Vec<SupervisorEvent>,
    /// Whether the final line was torn (incomplete write) and dropped.
    pub torn: bool,
}

/// Creates a WAL file at `path`, writes and flushes its header, and returns
/// the writer for [`TelemetryLog::with_writer`]. The header is written
/// before any fault-injection wrapper is applied, so even a chaos run
/// leaves a well-formed (if shorter) WAL.
///
/// [`TelemetryLog::with_writer`]: crate::telemetry::TelemetryLog::with_writer
pub fn create_wal(path: &str, meta: &WalMeta) -> Result<Box<dyn Write + Send>, String> {
    Ok(Box::new(WAL.create(Path::new(path), meta.fields())?))
}

/// Loads a WAL from `path`, tolerating a torn final line. Corruption
/// anywhere else is an error naming the line.
pub fn load(path: &str) -> Result<Checkpoint, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read WAL `{path}`: {e}"))?;
    load_str(bytes).map_err(|e| format!("WAL `{path}`: {e}"))
}

/// [`load`] on in-memory WAL text.
pub fn load_str(text: impl AsRef<[u8]>) -> Result<Checkpoint, String> {
    let mut cells = Vec::new();
    let mut events = Vec::new();
    let scan = WAL.scan(text.as_ref(), |value| {
        if value.get("sup").is_some() {
            events.push(event_from_json(value)?);
        } else {
            cells.push(record_from_json(value)?);
        }
        Ok(())
    })?;
    let meta = match &scan.header {
        Some(h) => Some(WalMeta::new(field_u64(h, "seed")?, field_u64(h, "scale")?)),
        None => None,
    };
    Ok(Checkpoint {
        meta,
        cells,
        events,
        torn: scan.torn,
    })
}

/// Rebuilds a [`CellRecord`] from its parsed JSON line.
pub fn record_from_json(v: &Json) -> Result<CellRecord, String> {
    let mut per_temp = Vec::new();
    for t in field_arr(v, "per_temp")? {
        per_temp.push(TempAggregate {
            temp: field_u64(t, "temp")? as usize,
            evals: field_u64(t, "evals")?,
            proposals: field_u64(t, "proposals")?,
            accepted_downhill: field_u64(t, "accepted_downhill")?,
            accepted_uphill: field_u64(t, "accepted_uphill")?,
            rejected_uphill: field_u64(t, "rejected_uphill")?,
            ended_budget: field_u64(t, "ended_budget")?,
            ended_equilibrium: field_u64(t, "ended_equilibrium")?,
            ended_exchange: field_u64(t, "ended_exchange")?,
            swap_attempts: field_u64(t, "swap_attempts")?,
            swap_accepts: field_u64(t, "swap_accepts")?,
            temperature: field_f64(t, "temperature")?,
            target_acceptance: field_f64(t, "target_acceptance")?,
        });
    }
    let mut per_instance = Vec::new();
    for r in field_arr(v, "per_instance")? {
        per_instance.push(InstanceRecord {
            index: field_u64(r, "instance")? as usize,
            seed: field_u64(r, "seed")?,
            reduction: field_f64(r, "reduction")?,
            evals: field_u64(r, "evals")?,
            wall_ms: field_f64(r, "wall_ms")?,
            stop: stop_label(field_str(r, "stop")?)?,
            accepted_downhill: field_u64(r, "accepted_downhill")?,
            accepted_uphill: field_u64(r, "accepted_uphill")?,
            rejected_uphill: field_u64(r, "rejected_uphill")?,
        });
    }
    let mut failures = Vec::new();
    for f in field_arr(v, "failures")? {
        failures.push(CellFailure {
            instance: field_u64(f, "instance")? as usize,
            seed: field_u64(f, "seed")?,
            message: field_str(f, "message")?.to_string(),
        });
    }
    Ok(CellRecord {
        key: CellKey::from_json(v)?,
        strategy: field_str(v, "strategy")?.to_string(),
        budget: field_str(v, "budget")?.to_string(),
        base_seed: field_u64(v, "base_seed")?,
        instances: field_u64(v, "instances")? as usize,
        reduction: field_f64(v, "reduction")?,
        evals: field_u64(v, "evals")?,
        wall_ms: field_f64(v, "wall_ms")?,
        accepted_downhill: field_u64(v, "accepted_downhill")?,
        accepted_uphill: field_u64(v, "accepted_uphill")?,
        rejected_uphill: field_u64(v, "rejected_uphill")?,
        stops_budget: field_u64(v, "stops_budget")? as usize,
        stops_equilibrium: field_u64(v, "stops_equilibrium")? as usize,
        attempts: field_u64(v, "attempts")? as u32,
        per_temp,
        per_instance,
        failures,
    })
}

/// Rebuilds a [`SupervisorEvent`] from its parsed WAL line (an object
/// carrying a `"sup"` key).
pub fn event_from_json(v: &Json) -> Result<SupervisorEvent, String> {
    Ok(SupervisorEvent {
        kind: field_str(v, "sup")?.to_string(),
        cell: v.get("table").map(|_| CellKey::from_json(v)).transpose()?,
        detail: field_str(v, "detail")?.to_string(),
    })
}

/// Maps a parsed stop string back onto the `&'static str` labels
/// [`anneal_core::StopReason::as_str`] produces.
fn stop_label(s: &str) -> Result<&'static str, String> {
    match s {
        "budget" => Ok("budget"),
        "equilibrium" => Ok("equilibrium"),
        other => Err(format!("unknown stop reason `{other}`")),
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// The string field `key` of a log line.
pub(crate) fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

/// The unsigned integer field `key` of a log line.
pub(crate) fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?.as_u64_checked()
}

/// The float field `key` of a log line; `null` maps back to NaN (the
/// serializer writes non-finite floats as `null`).
pub(crate) fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    match field(v, key)? {
        Json::Null => Ok(f64::NAN),
        other => other
            .as_f64()
            .ok_or_else(|| format!("field `{key}` is not a number")),
    }
}

fn field_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field `{key}` is not an array"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl;
    use anneal_core::Budget;

    fn sample_record(reduction: f64) -> CellRecord {
        let mut r = CellRecord::empty(
            CellKey::new("table4.1", "g = 1", "6 sec"),
            "Figure1".into(),
            Budget::evaluations(1500),
            1985,
        );
        r.instances = 2;
        r.reduction = reduction;
        r.evals = 2718;
        r.wall_ms = 12.75;
        r.accepted_downhill = 5;
        r.attempts = 3;
        r.per_temp.push(TempAggregate {
            temp: 0,
            evals: 2718,
            proposals: 8,
            accepted_downhill: 5,
            accepted_uphill: 2,
            rejected_uphill: 1,
            ended_budget: 2,
            ended_equilibrium: 0,
            ended_exchange: 1,
            swap_attempts: 4,
            swap_accepts: 2,
            temperature: 3.25,
            target_acceptance: 0.625,
        });
        r.per_instance.push(InstanceRecord {
            index: 0,
            seed: 42,
            reduction: reduction / 2.0,
            evals: 1359,
            wall_ms: 6.5,
            stop: "budget",
            accepted_downhill: 5,
            accepted_uphill: 2,
            rejected_uphill: 1,
        });
        r.failures.push(CellFailure {
            instance: 1,
            seed: 43,
            message: "boom \"quoted\"\nline2".into(),
        });
        r
    }

    #[test]
    fn cell_record_round_trips_bitwise() {
        // An f64 with a long shortest-repr: exercises exact round-trip.
        let reduction = 123.456_789_012_345_67_f64;
        let original = sample_record(reduction);
        let parsed =
            record_from_json(&Json::parse(&original.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(parsed, original);
        assert_eq!(parsed.reduction.to_bits(), original.reduction.to_bits());
        assert_eq!(
            parsed.per_instance[0].reduction.to_bits(),
            original.per_instance[0].reduction.to_bits()
        );
    }

    #[test]
    fn nan_round_trips_as_nan() {
        let json = sample_record(f64::NAN).to_json().to_string();
        let parsed = record_from_json(&Json::parse(&json).unwrap());
        assert!(parsed.unwrap().reduction.is_nan());
    }

    #[test]
    fn wal_header_round_trips() {
        let meta = WalMeta::new(1985, 40);
        assert_eq!(
            meta.header_line(),
            r#"{"wal":"anneal-repro-wal","version":4,"seed":1985,"scale":40}"#
        );
        let cp = load_str(format!(
            "{}\n{}\n",
            meta.header_line(),
            sample_record(1.0).to_json()
        ))
        .unwrap();
        assert_eq!(cp.meta, Some(meta));
        assert_eq!(cp.cells.len(), 1);
        assert!(!cp.torn);
    }

    #[test]
    fn torn_final_line_is_dropped_and_flagged() {
        let meta = WalMeta::new(1, 1);
        let full = sample_record(1.0).to_json().to_string();
        let torn = &full[..full.len() / 2];
        let cp = load_str(format!("{}\n{full}\n{torn}", meta.header_line())).unwrap();
        assert!(cp.torn);
        assert_eq!(cp.cells.len(), 1);
    }

    #[test]
    fn corruption_before_the_end_is_an_error() {
        let text = format!("not json at all\n{}\n", sample_record(1.0).to_json());
        let err = load_str(&text).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn empty_file_is_an_empty_checkpoint() {
        let cp = load_str("").unwrap();
        assert!(cp.meta.is_none() && cp.cells.is_empty() && !cp.torn);
    }

    #[test]
    fn nan_temperature_sums_round_trip_as_nan() {
        let mut original = sample_record(1.0);
        original.per_temp[0].target_acceptance = f64::NAN;
        let json = original.to_json().to_string();
        assert!(json.contains("\"target_acceptance\":null"), "{json}");
        let parsed = record_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert!(parsed.per_temp[0].target_acceptance.is_nan());
        assert_eq!(
            parsed.per_temp[0].temperature.to_bits(),
            original.per_temp[0].temperature.to_bits()
        );
        // The bitwise TempAggregate equality keeps NaN reflexive, so whole
        // records still compare equal after the round trip.
        assert_eq!(parsed, original);
    }

    #[test]
    fn record_lines_lead_with_a_seq_the_loader_ignores() {
        let original = sample_record(2.5);
        let line = jsonl::sequenced(7, original.to_json()).to_string();
        assert_eq!(
            line,
            concat!(
                r#"{"seq":7,"table":"table4.1","method":"g = 1","column":"6 sec","#,
                r#""strategy":"Figure1","budget":"1500 evals","base_seed":1985,"instances":2,"#,
                r#""reduction":2.5,"evals":2718,"wall_ms":12.75,"accepted_downhill":5,"#,
                r#""accepted_uphill":0,"rejected_uphill":0,"stops_budget":0,"#,
                r#""stops_equilibrium":0,"ok":false,"attempts":3,"#,
                r#""per_temp":[{"temp":0,"evals":2718,"proposals":8,"accepted_downhill":5,"#,
                r#""accepted_uphill":2,"rejected_uphill":1,"ended_budget":2,"#,
                r#""ended_equilibrium":0,"ended_exchange":1,"swap_attempts":4,"swap_accepts":2,"#,
                r#""temperature":3.25,"target_acceptance":0.625}],"#,
                r#""per_instance":[{"instance":0,"seed":42,"reduction":1.25,"evals":1359,"#,
                r#""wall_ms":6.5,"stop":"budget","accepted_downhill":5,"accepted_uphill":2,"#,
                r#""rejected_uphill":1}],"#,
                r#""failures":[{"instance":1,"seed":43,"message":"boom \"quoted\"\nline2"}]}"#,
            )
        );
        let meta = WalMeta::new(1, 1);
        let cp = load_str(format!("{}\n{line}\n", meta.header_line())).unwrap();
        assert_eq!(cp.cells.len(), 1);
        assert_eq!(cp.cells[0], original, "seq is transparent to the loader");
    }

    #[test]
    fn event_lines_load_separately_from_records() {
        let meta = WalMeta::new(1, 1);
        let event = SupervisorEvent::new(
            "restart",
            Some(CellKey::new("table4.1", "g = 1", "6 sec")),
            "worker exited with signal 9",
        );
        let drain = SupervisorEvent::new("drain", None, "SIGTERM");
        assert_eq!(
            event.to_json().to_string(),
            r#"{"sup":"restart","table":"table4.1","method":"g = 1","column":"6 sec","detail":"worker exited with signal 9"}"#
        );
        assert_eq!(
            drain.to_json().to_string(),
            r#"{"sup":"drain","detail":"SIGTERM"}"#
        );
        // Events interleave with records mid-stream, not only at the end.
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            meta.header_line(),
            event.to_json(),
            jsonl::sequenced(0, sample_record(1.0).to_json()),
            drain.to_json()
        );
        let cp = load_str(&text).unwrap();
        assert!(!cp.torn);
        assert_eq!(cp.cells.len(), 1);
        assert_eq!(cp.events, vec![event, drain]);
    }

    mod truncation_property {
        use super::*;
        use crate::jsonl::testing::{any_float, any_string, check_cut};
        use crate::jsonl::WAL;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// A WAL cut at any byte scans to exactly its complete lines.
            #[test]
            fn a_cut_wal_scans_to_its_complete_lines(
                cells in proptest::collection::vec((any_string(), any_string(), any_float()), 0..4),
                detail in any_string(),
                cut in any::<u64>(),
            ) {
                let mut lines = Vec::new();
                for (seq, (method, message, reduction)) in cells.into_iter().enumerate() {
                    let mut record = sample_record(reduction);
                    record.key.method = method;
                    record.failures[0].message = message;
                    lines.push(jsonl::sequenced(seq as u64, record.to_json()).to_string());
                }
                lines.push(SupervisorEvent::new("drain", None, detail).to_json().to_string());
                check_cut(&WAL, &WalMeta::new(7, 2).header_line(), &lines, cut)?;
            }
        }
    }
}

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
//! The JSON parser here is hand-rolled like the serializer in
//! [`telemetry`](crate::telemetry) (this workspace builds with no registry
//! access, so there is no serde).

use std::io::Write;
use std::path::Path;
use std::str::FromStr;

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
        WAL.header(&self.fields())
    }

    fn fields(&self) -> String {
        format!(",\"seed\":{},\"scale\":{}", self.seed, self.scale)
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

/// Splices the WAL v4 write-order sequence number into a serialized record
/// line: `{"a":1}` with seq 7 becomes `{"seq":7,"a":1}`. The loader treats
/// `seq` as just another (ignorable) field.
pub fn wal_line(record_json: &str, seq: u64) -> String {
    debug_assert!(record_json.starts_with('{'));
    format!("{{\"seq\":{seq},{}", &record_json[1..])
}

/// Creates a WAL file at `path`, writes and flushes its header, and returns
/// the writer for [`TelemetryLog::with_writer`]. The header is written
/// before any fault-injection wrapper is applied, so even a chaos run
/// leaves a well-formed (if shorter) WAL.
///
/// [`TelemetryLog::with_writer`]: crate::telemetry::TelemetryLog::with_writer
pub fn create_wal(path: &str, meta: &WalMeta) -> Result<Box<dyn Write + Send>, String> {
    Ok(Box::new(WAL.create(Path::new(path), &meta.fields())?))
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
    let key = CellKey::new(
        field_str(v, "table")?,
        field_str(v, "method")?,
        field_str(v, "column")?,
    );
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
        key,
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
    let cell = match v.get("table") {
        Some(_) => Some(CellKey::new(
            field_str(v, "table")?,
            field_str(v, "method")?,
            field_str(v, "column")?,
        )),
        None => None,
    };
    Ok(SupervisorEvent {
        kind: field_str(v, "sup")?.to_string(),
        cell,
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

/// A parsed JSON value. Numbers keep their source lexeme so `u64` seeds
/// round-trip without `f64` precision loss and `f64` values round-trip
/// bitwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its source lexeme.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(lexeme) => f64::from_str(lexeme).ok(),
            _ => None,
        }
    }

    /// The number as `u64` (exact, no float round-trip), with an error
    /// naming the problem otherwise.
    pub fn as_u64_checked(&self) -> Result<u64, String> {
        match self {
            Json::Num(lexeme) => u64::from_str(lexeme)
                .map_err(|_| format!("number `{lexeme}` is not an unsigned integer")),
            _ => Err("value is not a number".to_string()),
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in insertion order, if this is an object. Strict parsers
    /// (the job-spec parser) walk this to reject unknown keys instead of
    /// silently ignoring a client's typo.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

fn field_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field `{key}` is not an array"))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ASCII \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            // The serializer only emits \u for control
                            // characters (< 0x20); surrogate pairs are not
                            // produced and not supported.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u code point {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Consumes a run of ASCII digits, returning how many there were.
    fn digit_run(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Scans one number by the JSON grammar — `-? digits (. digits)?
    /// ([eE] [+-]? digits)?` — stopping at the first byte that cannot
    /// continue it. Malformed tokens like `1e+`, `--5` or a bare `-` fail
    /// here with a positioned message instead of being consumed whole and
    /// surfacing as an opaque `from_str` failure; a token like `1-2` stops
    /// after `1` and the `-` is rejected by the caller as trailing input.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digit_run() == 0 {
            return Err(format!("expected digit in number at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digit_run() == 0 {
                return Err(format!(
                    "expected digit after `.` in number at byte {}",
                    self.pos
                ));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digit_run() == 0 {
                return Err(format!("expected digit in exponent at byte {}", self.pos));
            }
        }
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII number lexeme")
            .to_string();
        if f64::from_str(&lexeme).is_err() {
            return Err(format!("bad number `{lexeme}` at byte {start}"));
        }
        Ok(Json::Num(lexeme))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_core::Budget;

    #[test]
    fn parser_handles_the_basics() {
        let v = Json::parse(r#"{"a":1,"b":[true,null,"x\n\"y"],"c":{"d":-2.5e3}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64_checked().unwrap(), 1);
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::Bool(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_str().unwrap(), "x\n\"y");
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2500.0)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        let big = u64::MAX - 3;
        let v = Json::parse(&format!("{{\"seed\":{big}}}")).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64_checked().unwrap(), big);
    }

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
        let parsed = record_from_json(&Json::parse(&original.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, original);
        assert_eq!(parsed.reduction.to_bits(), original.reduction.to_bits());
        assert_eq!(
            parsed.per_instance[0].reduction.to_bits(),
            original.per_instance[0].reduction.to_bits()
        );
    }

    #[test]
    fn nan_round_trips_as_nan() {
        let parsed = record_from_json(&Json::parse(&sample_record(f64::NAN).to_json()).unwrap());
        assert!(parsed.unwrap().reduction.is_nan());
    }

    #[test]
    fn wal_header_round_trips() {
        let meta = WalMeta::new(1985, 40);
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
        let full = sample_record(1.0).to_json();
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
        let json = original.to_json();
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
    fn wal_line_splices_a_seq_prefix_the_loader_ignores() {
        let original = sample_record(2.5);
        let line = wal_line(&original.to_json(), 7);
        assert!(line.starts_with("{\"seq\":7,\"table\":"), "{line}");
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
        // Events interleave with records mid-stream, not only at the end.
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            meta.header_line(),
            event.to_json(),
            wal_line(&sample_record(1.0).to_json(), 0),
            drain.to_json()
        );
        let cp = load_str(&text).unwrap();
        assert!(!cp.torn);
        assert_eq!(cp.cells.len(), 1);
        assert_eq!(cp.events, vec![event, drain]);
    }

    #[test]
    fn every_control_character_round_trips_through_the_escaper() {
        let original: String = (0u32..0x20)
            .filter_map(char::from_u32)
            .chain(['"', '\\', '/', 'é', '\u{2028}', '🦀'])
            .collect();
        let quoted = format!("\"{}\"", anneal_core::json::escape(&original));
        assert_eq!(Json::parse(&quoted), Ok(Json::Str(original)));
    }

    mod escape_properties {
        use super::*;
        use crate::jsonl::testing::any_char;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The shared escaper and this parser agree: any string,
            /// escaped and quoted, parses back to itself.
            #[test]
            fn escaped_strings_parse_back_to_the_original(
                chars in proptest::collection::vec(any_char(), 0..48),
            ) {
                let original: String = chars.into_iter().collect();
                let quoted = format!("\"{}\"", anneal_core::json::escape(&original));
                prop_assert_eq!(Json::parse(&quoted), Ok(Json::Str(original)));
            }
        }
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
                    lines.push(wal_line(&record.to_json(), seq as u64));
                }
                lines.push(SupervisorEvent::new("drain", None, detail).to_json());
                check_cut(&WAL, &WalMeta::new(7, 2).header_line(), &lines, cut)?;
            }
        }
    }

    #[test]
    fn number_scanner_rejects_malformed_tokens_with_position() {
        // Tokens the old scanner consumed whole and failed on opaquely.
        for (text, expect) in [
            ("{\"a\":1e+}", "exponent"),
            ("{\"a\":-}", "digit in number"),
            ("{\"a\":1e}", "exponent"),
            ("{\"a\":--5}", "digit in number"),
            ("{\"a\":1.}", "digit after `.`"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains(expect), "`{text}` → `{err}`");
            assert!(err.contains("byte"), "`{text}` error is positioned: {err}");
        }
        // Grammar stops after a complete number; what follows is rejected
        // by the caller with its own position.
        let err = Json::parse("{\"a\":1.2.3}").unwrap_err();
        assert!(err.contains("byte 8"), "{err}");
        let err = Json::parse("{\"a\":1-2}").unwrap_err();
        assert!(err.contains("byte 6"), "{err}");
        // Healthy lexemes still parse, including negative exponents.
        let v = Json::parse("{\"a\":-2.5e-3}").unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(-0.0025));
    }
}

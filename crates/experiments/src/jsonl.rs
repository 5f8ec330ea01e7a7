//! Versioned JSON-lines logs: the one set of rules the telemetry WAL
//! ([`crate::checkpoint`]), the chain traces ([`crate::trace`]) and the
//! job journal ([`crate::jobs`]) share.
//!
//! A log is a header line naming its schema and version, then one JSON
//! object per line. A writer hands each record (or one instance's block of
//! lines) to [`append`], which writes it with its closing `\n` in one
//! `write_all` and flushes, so a killed writer leaves at most one torn
//! line: the bytes after the last `\n`. [`Schema::scan`] drops that line
//! and reports corruption anywhere before it as an error naming the line.
//! Readers accept only the current version of their schema: a header
//! naming another schema or any other version is refused with a message
//! naming the version.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

use anneal_core::json::Json;

/// The header of one log type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schema {
    /// The header key that holds the schema name: `wal` or `trace`.
    pub(crate) key: &'static str,
    /// The schema name.
    pub(crate) name: &'static str,
    /// The version this build writes, and the only one it reads.
    pub(crate) version: u64,
}

/// The telemetry WAL behind `repro --telemetry` and `--resume`, at
/// version 4: each record line starts with a `"seq"` field (the write
/// order of the record lines; nothing reads it back), and supervisor
/// event lines (`{"sup":...}`) are interleaved with the records.
pub const WAL: Schema = Schema::new("wal", "anneal-repro-wal", 4);
/// A per-cell chain trace written by `repro --trace`.
pub const TRACE: Schema = Schema::new("trace", "anneal-chain-trace", 3);
/// The job-server journal behind `repro serve --journal`.
pub const JOURNAL: Schema = Schema::new("wal", "anneal-jobs-wal", 1);

/// What [`Schema::scan`] found besides the records it handed on.
#[derive(Debug)]
pub struct Scan {
    /// The header line; `None` when the log holds no complete line.
    pub header: Option<Json>,
    /// Whether a torn final line was dropped.
    pub torn: bool,
}

impl Schema {
    const fn new(key: &'static str, name: &'static str, version: u64) -> Self {
        Schema { key, name, version }
    }

    /// The header: schema and version, then the members `fields`.
    pub fn header<'a>(&self, fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let schema = [
            (self.key, self.name.into()),
            ("version", self.version.into()),
        ];
        Json::obj(schema.into_iter().chain(fields))
    }

    /// Creates the log at `path`, truncating any old one, and writes and
    /// flushes its header with the members `fields`.
    pub fn create<'a>(
        &self,
        path: &Path,
        fields: impl IntoIterator<Item = (&'a str, Json)>,
    ) -> Result<BufWriter<File>, String> {
        let file =
            File::create(path).map_err(|e| format!("cannot create `{}`: {e}", path.display()))?;
        self.start(file, path, self.header(fields))
    }

    /// Opens the log at `path` for appending, creating it if absent. A
    /// torn final line left by a killed writer is cut first, so the next
    /// append starts a line of its own; an empty log gets its header.
    pub fn open_append(&self, path: &Path) -> Result<BufWriter<File>, String> {
        let open = || -> std::io::Result<(File, usize)> {
            let file = OpenOptions::new().append(true).create(true).open(path)?;
            let complete = complete_len(&std::fs::read(path)?);
            file.set_len(complete as u64)?;
            Ok((file, complete))
        };
        let (file, len) = open().map_err(|e| format!("cannot open `{}`: {e}", path.display()))?;
        if len == 0 {
            return self.start(file, path, self.header([]));
        }
        Ok(BufWriter::new(file))
    }

    fn start(&self, file: File, path: &Path, header: Json) -> Result<BufWriter<File>, String> {
        let mut writer = BufWriter::new(file);
        append(&mut writer, header.to_string())
            .map_err(|e| format!("cannot write the header of `{}`: {e}", path.display()))?;
        Ok(writer)
    }

    /// Parses every complete line of `text`. The first one must be this
    /// schema's header at the current version; every later one goes to
    /// `visit`. The bytes after the last `\n` are a torn write: they are
    /// dropped and flagged. A line that does not parse, or that `visit`
    /// rejects, is an error naming the line.
    pub fn scan<F>(&self, text: &[u8], mut visit: F) -> Result<Scan, String>
    where
        F: FnMut(&Json) -> Result<(), String>,
    {
        let complete = complete_len(text);
        let mut header = None;
        for (i, line) in text[..complete].split(|&b| b == b'\n').enumerate() {
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            let at = |e: String| format!("corrupt record at line {}: {e}", i + 1);
            let value = std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(Json::parse)
                .map_err(at)?;
            if header.is_some() {
                visit(&value).map_err(at)?;
            } else {
                self.check(&value)
                    .map_err(|e| format!("line {}: {e}", i + 1))?;
                header = Some(value);
            }
        }
        Ok(Scan {
            header,
            torn: complete < text.len(),
        })
    }

    fn check(&self, header: &Json) -> Result<(), String> {
        let (name, current) = (self.name, self.version);
        let ours = header.get(self.key).and_then(Json::as_str) == Some(name);
        match header.get("version").map(Json::as_u64_checked) {
            Some(Ok(v)) if ours && v == current => Ok(()),
            Some(Ok(v)) if ours => Err(format!(
                "`{name}` version {v} is {} than version {current}, the only one this \
                 build reads",
                if v > current { "newer" } else { "older" }
            )),
            _ => Err(format!("not a `{name}` version {current} header")),
        }
    }
}

/// Writes `lines` and a closing `\n` in one `write_all`, then flushes:
/// the one append every log uses, so a crash tears at most this write.
pub fn append<W: Write + ?Sized>(writer: &mut W, mut lines: String) -> std::io::Result<()> {
    lines.push('\n');
    writer.write_all(lines.as_bytes())?;
    writer.flush()
}

/// `record`, an object, with its write-order sequence number `seq` as the
/// first member: the shape of every WAL and journal record line.
pub fn sequenced(seq: u64, record: Json) -> Json {
    let Json::Obj(mut members) = record else {
        unreachable!("a log record is an object");
    };
    members.insert(0, ("seq".to_string(), seq.into()));
    Json::Obj(members)
}

/// The length of `bytes` up to and including its last `\n`.
fn complete_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// Strategies and the truncation check that each log's property test
/// shares.
#[cfg(test)]
pub(crate) mod testing {
    use super::Schema;
    use anneal_core::json::Json;
    use proptest::prelude::*;

    /// One character a writer must handle: a quote, a backslash, a control
    /// character, printable ASCII or a (multi-byte) non-ASCII code point.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            Just('"'),
            Just('\\'),
            (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control character")),
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("printable ASCII")),
            // Surrogates are not chars; they map to U+FFFD.
            (0x7fu32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        ]
    }

    /// A short string of [`any_char`]s.
    pub(crate) fn any_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(any_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
    }

    /// A float that is often non-finite, which writers emit as `null`.
    pub(crate) fn any_float() -> impl Strategy<Value = f64> {
        prop_oneof![Just(f64::NAN), Just(f64::NEG_INFINITY), -1e6f64..1e6]
    }

    /// Cuts `header` and `lines`, each newline-terminated, at byte
    /// `cut % (len + 1)` and checks that `scan` returns the header and
    /// exactly the lines that were complete, flagging a cut inside a line.
    pub(crate) fn check_cut(
        schema: &Schema,
        header: &str,
        lines: &[String],
        cut: u64,
    ) -> Result<(), TestCaseError> {
        let mut text = String::new();
        let mut ends = vec![0];
        for line in std::iter::once(header).chain(lines.iter().map(String::as_str)) {
            text.push_str(line);
            text.push('\n');
            ends.push(text.len());
        }
        let cut = (cut % (text.len() as u64 + 1)) as usize;
        let done = ends.iter().filter(|&&end| end <= cut).count() - 1;
        let mut got = Vec::new();
        let scan = schema
            .scan(&text.as_bytes()[..cut], |v| {
                got.push(v.clone());
                Ok(())
            })
            .map_err(TestCaseError::fail)?;
        let want: Vec<Json> = lines[..done.saturating_sub(1)]
            .iter()
            .map(|l| Json::parse(l).expect("writers emit JSON"))
            .collect();
        prop_assert_eq!(scan.torn, !ends.contains(&cut));
        prop_assert_eq!(scan.header.is_some(), done > 0);
        prop_assert_eq!(got, want);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_current_version_of_the_own_schema_loads() {
        for schema in [WAL, TRACE, JOURNAL] {
            let current = schema.version;
            for v in (1..current).chain([current + 1, 999]) {
                let header = Json::obj([(schema.key, schema.name.into()), ("version", v.into())]);
                let line = format!("{header}\n");
                let err = schema.scan(line.as_bytes(), |_| Ok(())).unwrap_err();
                assert!(err.contains(&format!("version {v} is")), "{err}");
                assert!(err.contains(&format!("version {current}")), "{err}");
            }
            // A log that starts with a record, or with another schema's
            // header, names the version it wanted.
            let other = if schema == WAL { JOURNAL } else { WAL };
            let record = Json::obj([("seq", 0u64.into()), ("table", "t".into())]);
            for first in [record, other.header([])] {
                let err = schema.scan(format!("{first}\n").as_bytes(), |_| Ok(()));
                let err = err.unwrap_err();
                assert!(err.contains(&format!("version {current}")), "{err}");
            }
            let line = format!("{}\n", schema.header([]));
            let scan = schema.scan(line.as_bytes(), |_| Ok(())).unwrap();
            assert!(scan.header.is_some() && !scan.torn);
        }
    }

    #[test]
    fn open_append_cuts_a_torn_tail_and_heads_an_empty_file() {
        let path = std::env::temp_dir().join(format!("anneal-jsonl-{}", std::process::id()));
        let header = format!("{}\n", JOURNAL.header([]));
        let intact = format!("{header}{{\"n\":1}}\n");
        for (before, after) in [
            (String::new(), &header),
            // A torn header is all there is: the file starts over.
            ("{\"wal\":\"anneal-jo".to_string(), &header),
            (format!("{intact}{{\"n\":2,\"to"), &intact),
        ] {
            std::fs::write(&path, before).unwrap();
            let mut writer = JOURNAL.open_append(&path).unwrap();
            append(&mut writer, "{\"n\":3}".to_string()).unwrap();
            let expected = format!("{after}{{\"n\":3}}\n");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        }
        std::fs::remove_file(&path).ok();
    }
}

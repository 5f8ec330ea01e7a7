//! JSON both ways. [`Json`] is the one value type every log, record and
//! HTTP body in the workspace is built as, printed from (its `Display`
//! writes compact JSON) and parsed back into ([`Json::parse`]): the WAL,
//! chain traces, the job journal and job records, the metrics snapshot,
//! the ops endpoints and the Chrome-trace export. So one value has one
//! spelling everywhere, and `Json::parse(&v.to_string()) == Ok(v)` for
//! every value built from the `From` conversions (property-tested below).
//!
//! The workspace builds with no registry access, so there is no serde.

use std::fmt;
use std::str::FromStr;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// deepest document any writer emits has five levels (the metrics
/// snapshot's histogram buckets); past this limit the parser returns an
/// error instead of recursing, so a hostile body cannot overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Numbers keep their lexeme, so `u64` seeds round-trip
/// without `f64` precision loss, `f64` values round-trip bitwise, and a
/// writer that wants a fixed precision builds `Json::Num(format!("{x:.3}"))`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its lexeme.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// An object of `members`, in order: the builder for objects whose
    /// members are computed; [`json_object!`](crate::json_object) spells
    /// out a fixed shape.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let members = members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value));
        Json::Obj(members.collect())
    }

    /// Object member lookup (the first member named `key`).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The members in insertion order, if this is an object. Strict parsers
    /// (the job-spec parser) walk this to reject unknown keys instead of
    /// silently ignoring a client's typo.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Compact JSON: no whitespace, members in insertion order, keys and
/// strings through `escape`, numbers as their lexeme.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.print(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    /// Appends the compact spelling to `out`, pushing to the `String`
    /// directly: a `Formatter` call per token made records slow to print.
    fn print(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(lexeme) => out.push_str(lexeme),
            Json::Str(s) => escape(out, s),
            Json::Arr(items) => list(out, '[', items, ']', |out, item| item.print(out)),
            Json::Obj(members) => list(out, '{', members, '}', |out, (key, value)| {
                escape(out, key);
                out.push(':');
                value.print(out);
            }),
        }
    }
}

/// Appends `items` between `open` and `close`, `,`-separated, each with
/// `item`.
fn list<T>(out: &mut String, open: char, items: &[T], close: char, item: impl Fn(&mut String, &T)) {
    out.push(open);
    let mut separator = "";
    for x in items {
        out.push_str(separator);
        item(out, x);
        separator = ",";
    }
    out.push(close);
}

/// Appends `s` as a JSON string literal: `"` and `\` get a backslash,
/// newline, carriage return and tab their short escapes, every other
/// control character `\u00XX`; all else, non-ASCII included, passes
/// through unchanged.
fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// `v` in Rust's shortest round-trip form, or `null` for NaN and the
/// infinities, which JSON cannot spell.
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v.to_string())
        } else {
            Json::Null
        }
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
from_unsigned!(u32, u64, usize);

/// A [`Json`] object of `"key": value` members, in order. Each value goes
/// through `Json::from`, so it may be a string, `bool`, unsigned integer,
/// `f64` or a `Json`. A leading `..members,` puts the `(key, Json)` pairs
/// of `members` first.
///
/// ```
/// use anneal_core::json_object;
///
/// let v = json_object! { "seed": 7u64, "stop": "budget", "cost": f64::NAN };
/// assert_eq!(v.to_string(), r#"{"seed":7,"stop":"budget","cost":null}"#);
/// let cell = [("table", "4.1".into())];
/// assert_eq!(json_object! { ..cell, "ok": true }.to_string(), r#"{"table":"4.1","ok":true}"#);
/// ```
#[macro_export]
macro_rules! json_object {
    (..$head:expr, $($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::obj(
            $head.into_iter().chain([$(($key, $crate::json::Json::from($value))),*]),
        )
    };
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => Ok(Json::Obj(self.sequence(b'}', Self::member)?)),
            Some(b'[') => Ok(Json::Arr(self.sequence(b']', Self::value)?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// The `,`-separated items of an array or object, each read by `item`,
    /// from the opening bracket at the cursor through `close`. Opening one
    /// more level than [`MAX_DEPTH`] is an error.
    fn sequence<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => {
                        let close = close as char;
                        return Err(format!("expected `,` or `{close}` at byte {}", self.pos));
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    /// One `"key": value` member of an object.
    fn member(&mut self) -> Result<(String, Json), String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy up to the next quote or backslash whole: the cursor only
            // stops on ASCII bytes, so it stays on a character boundary.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
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
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated or non-ASCII \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            // The writer only emits \u for control
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
        let lexeme = &self.text[start..self.pos];
        if f64::from_str(lexeme).is_err() {
            return Err(format!("bad number `{lexeme}` at byte {start}"));
        }
        Ok(Json::Num(lexeme.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_print_in_their_json_spelling() {
        let print = |v: Json| v.to_string();
        assert_eq!(print("a\"b\\c".into()), r#""a\"b\\c""#);
        assert_eq!(print("\n\r\t".into()), r#""\n\r\t""#);
        assert_eq!(print("\u{1}\u{1f}".into()), r#""\u0001\u001f""#);
        assert_eq!(print("é ∑ 🦀 \u{7f}".into()), "\"é ∑ 🦀 \u{7f}\"");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(v), Json::Null);
        }
        assert_eq!(
            [2.5, -0.1, 6.0].map(|v| print(v.into())),
            ["2.5", "-0.1", "6"]
        );
    }

    #[test]
    fn parser_handles_the_basics() {
        let text = r#"{"a":18446744073709551612,"b":[true,null,"x\n\"y"],"c":{"d":-2.5e3}}"#;
        let v = Json::parse(text).unwrap();
        // u64 seeds round-trip exactly, with no float in between.
        assert_eq!(v.get("a").unwrap().as_u64_checked(), Ok(u64::MAX - 3));
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
        assert!(Json::parse("\"bad \\u12\"").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_a_positioned_error() {
        let err = Json::parse(&"[".repeat(10_000)).unwrap_err();
        assert!(err.contains("deeper than 128"), "{err}");
        assert!(err.contains("byte 128"), "{err}");
        // The limit itself still parses.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("{{\"a\":{}", "[".repeat(MAX_DEPTH));
        assert!(Json::parse(&over).unwrap_err().contains("deeper"));
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

    mod round_trip {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A short string of the characters a writer must handle: quotes,
        /// backslashes, control characters, printable ASCII and multi-byte
        /// code points (surrogates, which are not chars, map to U+FFFD).
        fn any_string() -> impl Strategy<Value = String> {
            let ascii = (0u32..0x80).prop_map(|c| char::from_u32(c).expect("ASCII"));
            let other = (0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'));
            let any_char = prop_oneof![Just('"'), Just('\\'), ascii, other];
            vec(any_char, 0..12).prop_map(|cs| cs.into_iter().collect())
        }

        /// A scalar: every `From` conversion, with floats that are often
        /// non-finite (`null`).
        fn any_scalar() -> impl Strategy<Value = Json> {
            prop_oneof![
                any::<bool>().prop_map(Json::from),
                any::<u64>().prop_map(Json::from),
                prop_oneof![
                    Just(f64::NAN),
                    Just(f64::INFINITY),
                    -1e300f64..1e300,
                    -1e-6f64..1e-6
                ]
                .prop_map(Json::from),
                any_string().prop_map(Json::from),
            ]
        }

        /// A tree up to `depth` containers deep, built by nesting `vec`
        /// strategies (the vendored proptest has no `prop_recursive`).
        fn any_json(depth: usize) -> BoxedStrategy<Json> {
            if depth == 0 {
                return any_scalar().boxed();
            }
            prop_oneof![
                any_scalar(),
                vec(any_json(depth - 1), 0..4).prop_map(Json::Arr),
                vec((any_string(), any_json(depth - 1)), 0..4).prop_map(Json::Obj),
            ]
            .boxed()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every writer prints through `Display`, so this one property
            /// covers every writer's escaping, `null` floats and nesting.
            #[test]
            fn printed_values_parse_back_to_themselves(v in any_json(5)) {
                prop_assert_eq!(Json::parse(&v.to_string()), Ok(v));
            }
        }
    }
}

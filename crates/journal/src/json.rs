//! A minimal JSON value model, parser, and writer.
//!
//! The build environment vendors no serde, so — like the telemetry
//! crate's profile reader — the journal carries its own small JSON layer.
//! It covers exactly what journal records need: objects, arrays, strings,
//! booleans, `null`, and **unsigned 64-bit integers**. All journal numbers
//! are unsigned integers, and `u64` (unlike `f64`) represents solver
//! counters and 64-bit bit-vector values exactly; floats, exponents and
//! negative numbers are rejected as malformed.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets a small hostile
/// frame (a megabyte of `[`) overflow the reading thread's stack; past
/// this depth the parse fails instead. Every document the writers emit
/// (journal records, wire modules and requests) nests a handful of
/// levels deep.
pub const MAX_NESTING: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form journal records use).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// How many arrays and objects deep the value nests (a scalar is 0).
    #[cfg(test)]
    pub(crate) fn nesting(&self) -> usize {
        match self {
            Json::Arr(items) => 1 + items.iter().map(Json::nesting).max().unwrap_or(0),
            Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| v.nesting()).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes the value (compact, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes the value to a fresh string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error (a record line must be exactly one value).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Writes `s` as a JSON string literal with escapes.
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected byte `{}` at {}",
                char::from(b),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one array or object one level deeper, failing past
    /// [`MAX_NESTING`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if let Some(b'.' | b'e' | b'E' | b'-' | b'+') = self.peek() {
            return Err(format!(
                "non-integer number at byte {start} (journal numbers are unsigned integers)"
            ));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("number out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Journal writers never emit surrogate pairs
                            // (only control characters are \u-escaped).
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad code point at {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\`. Both
                    // delimiters are ASCII, so the run ends on a scalar
                    // boundary and validating it costs only its own length.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                    );
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        let s = v.to_string_compact();
        assert_eq!(&Json::parse(&s).expect("parse"), v, "via {s}");
    }

    #[test]
    fn values_round_trip() {
        round_trip(&Json::Null);
        round_trip(&Json::Bool(true));
        round_trip(&Json::Num(0));
        round_trip(&Json::Num(u64::MAX));
        round_trip(&Json::Str("plain".to_string()));
        round_trip(&Json::Str("esc \" \\ \n \t \r \u{1} é".to_string()));
        round_trip(&Json::Arr(vec![Json::Num(1), Json::Null]));
        round_trip(&Json::Obj(vec![
            ("a".to_string(), Json::Num(7)),
            ("b".to_string(), Json::Arr(vec![])),
        ]));
    }

    #[test]
    fn u64_precision_is_exact() {
        // 2^53 + 1 is where f64-based JSON layers silently corrupt.
        let v = Json::Num((1 << 53) + 1);
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "", "{", "[1,", "\"x", "{\"a\"}", "1.5", "-3", "1e9", "nul", "{} x",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    fn parse_str(input: &str) -> String {
        match Json::parse(input) {
            Ok(Json::Str(s)) => s,
            other => panic!("{input:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn string_runs_keep_multibyte_utf8() {
        assert_eq!(parse_str("\"é漢\""), "é漢");
        assert_eq!(parse_str("\"aé漢z\""), "aé漢z");
        assert_eq!(parse_str("\"漢\\n漢\""), "漢\n漢");
    }

    #[test]
    fn escapes_next_to_runs() {
        assert_eq!(parse_str(r#""a\"b\\c\u0001d""#), "a\"b\\c\u{1}d");
        assert_eq!(parse_str(r#""\"\\""#), "\"\\");
        assert_eq!(parse_str(r#""\u00e9x""#), "éx");
    }

    #[test]
    fn empty_strings_parse() {
        assert_eq!(parse_str("\"\""), "");
        let v = Json::parse(r#"{"":["",""]}"#).unwrap();
        assert_eq!(v.get("").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn unterminated_string_after_a_long_run_is_an_error() {
        let input = format!("\"{}", "x".repeat(100_000));
        assert!(Json::parse(&input).unwrap_err().contains("unterminated"));
        let input = format!("\"{}\\", "é".repeat(1_000));
        assert!(Json::parse(&input).is_err());
    }

    #[test]
    fn strings_round_trip_through_write() {
        for s in [
            "",
            "é漢",
            "a\"b\\c\u{1}d",
            "\"",
            "\\",
            "tail\n",
            "\u{1f}漢\t\r/",
            &"run".repeat(1_000),
        ] {
            round_trip(&Json::Str(s.to_string()));
            round_trip(&Json::Obj(vec![(s.to_string(), Json::Str(s.to_string()))]));
        }
    }

    #[test]
    fn string_scan_is_linear() {
        // About 6 MB of strings: plain runs, multi-byte text and escapes.
        // Re-validating the rest of the document per character took
        // minutes on this; a linear scan takes well under a second.
        let item = format!("{}é漢\"\\{}", "x".repeat(200), "y".repeat(60));
        let doc = Json::Arr(vec![Json::Str(item); 20_000]);
        let text = doc.to_string_compact();
        assert!(text.len() > 5_000_000);
        let started = std::time::Instant::now();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(20),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn nesting_at_the_limit_parses_and_one_deeper_fails() {
        let at = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert_eq!(Json::parse(&at).unwrap().nesting(), MAX_NESTING);
        let over = format!("[{at}]");
        assert!(Json::parse(&over).unwrap_err().contains("nesting"));
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_NESTING + 1),
            "}".repeat(MAX_NESTING + 1)
        );
        assert!(Json::parse(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn deep_nesting_fails_closed_on_a_reader_thread() {
        // The shape of a hostile frame: far under the frame-size cap, far
        // over any stack. Parsed on a spawned thread (default stack) as
        // the supervisor's frame readers do.
        let verdicts = std::thread::spawn(|| {
            [
                Json::parse(&"[".repeat(1_000_000)).is_err(),
                Json::parse(&"{\"k\":".repeat(200_000)).is_err(),
            ]
        })
        .join()
        .expect("parsing must not overflow the stack");
        assert_eq!(verdicts, [true, true]);
    }
}

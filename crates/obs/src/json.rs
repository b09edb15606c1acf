//! A minimal JSON value model, writer, and parser.
//!
//! The build environment is offline, so the workspace cannot use `serde`;
//! this module provides the small JSON surface the observability layer
//! needs: escaping writers for the trace/report emitters and a strict
//! recursive-descent parser used by the integration tests to validate
//! machine-readable output.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; integral values round-trip exactly
    /// up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Insertion order is not preserved; lookups are by key.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object's member map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Writes `s` as a JSON string literal (with quotes) into `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An incremental writer for one JSON object: `key(..), .. , finish()`.
///
/// # Example
///
/// ```
/// use parra_obs::json::{parse, ObjWriter};
/// let mut w = ObjWriter::new();
/// w.str_field("name", "x\"y");
/// w.num_field("states", 42);
/// let text = w.finish();
/// assert_eq!(parse(&text).unwrap().get("states").unwrap().as_u64(), Some(42));
/// ```
#[derive(Debug, Default)]
pub struct ObjWriter {
    buf: String,
    any: bool,
}

impl ObjWriter {
    /// Starts an object.
    pub fn new() -> ObjWriter {
        ObjWriter {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        write_escaped(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string member.
    pub fn str_field(&mut self, key: &str, val: &str) {
        self.key(key);
        write_escaped(&mut self.buf, val);
    }

    /// Adds a numeric member.
    pub fn num_field(&mut self, key: &str, val: u64) {
        self.key(key);
        self.buf.push_str(&val.to_string());
    }

    /// Adds a raw pre-rendered JSON member (caller guarantees validity).
    pub fn raw_field(&mut self, key: &str, json: &str) {
        self.key(key);
        self.buf.push_str(json);
    }

    /// Adds an array-of-strings member.
    pub fn str_arr_field(&mut self, key: &str, vals: &[String]) {
        self.key(key);
        self.buf.push('[');
        for (i, v) in vals.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            write_escaped(&mut self.buf, v);
        }
        self.buf.push(']');
    }

    /// Adds an array-of-numbers member.
    pub fn num_arr_field(&mut self, key: &str, vals: &[u64]) {
        self.key(key);
        self.buf.push('[');
        for (i, v) in vals.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&v.to_string());
        }
        self.buf.push(']');
    }

    /// Closes the object and returns the rendered text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (one value, surrounding whitespace
/// allowed).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn keyword(&mut self, word: &str, val: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// A string literal. Each run of bytes up to the next `"` or `\` is
    /// copied as one slice of the input, so a string parses in time
    /// linear in its length. Both delimiters are ASCII and the input is a
    /// `&str`, so every run starts and ends on a character boundary and
    /// needs no UTF-8 validation of its own.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => self.escape(&mut out)?,
            }
        }
    }

    /// One escape sequence, from its `\`, appended to `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        self.pos += 1;
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                if self.pos + 5 > self.bytes.len() {
                    return Err(self.err("truncated \\u escape"));
                }
                let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                    .map_err(|_| self.err("bad \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                // Surrogate pairs are not needed for our own output (we
                // only escape control characters); map lone surrogates to
                // U+FFFD.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                self.pos += 4;
            }
            _ => return Err(self.err("bad escape")),
        }
        self.pos += 1;
        Ok(())
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let mut w = ObjWriter::new();
        w.str_field("name", "a \"quoted\"\nline");
        w.num_field("n", 18446744073709551615);
        w.str_arr_field("notes", &["x".into(), "y".into()]);
        w.num_arr_field("series", &[1, 2, 3]);
        w.raw_field("nested", "{\"k\":true}");
        let text = w.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\"\nline"));
        assert_eq!(v.get("notes").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("series").unwrap().as_arr().unwrap()[2].as_u64(),
            Some(3)
        );
        assert_eq!(v.get("nested").unwrap().get("k"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parses_standard_documents() {
        let v = parse(r#" {"a": [1, -2.5, 1e3, null, false], "b": {}} "#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(1000.0));
        assert_eq!(arr[3], Value::Null);
        assert_eq!(v.get("b"), Some(&Value::Obj(Default::default())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn escapes_control_characters() {
        let mut out = String::new();
        write_escaped(&mut out, "a\u{1}b");
        assert_eq!(out, "\"a\\u0001b\"");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\u{1}b"));
    }

    /// A string as long as a serve frame allows parses in time linear in
    /// its length: a parser that re-validates the rest of the input for
    /// each character it copies takes tens of seconds on it, even in a
    /// release build.
    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        let text = format!("\"{}\"", "x".repeat(1_000_000));
        let start = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let took = start.elapsed();
        assert_eq!(v.as_str().map(str::len), Some(1_000_000));
        assert!(
            took < std::time::Duration::from_secs(2),
            "1,000,000-byte string took {took:?}"
        );
    }

    #[test]
    fn multibyte_runs_round_trip_with_escapes_at_their_edges() {
        let vals = ["é🦀\"é🦀\\🦀", "\n🦀é\t", "\"\"🦀🦀\u{1}éé\\", "🦀", "é\r"];
        for val in vals {
            let mut w = ObjWriter::new();
            w.str_field("s", val);
            let text = w.finish();
            let back = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back.get("s").and_then(Value::as_str), Some(val));
        }
        // Escapes a client may send that our writer never does.
        let v = parse(r#""é\/🦀é\b\f🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("é/🦀é\u{8}\u{c}🦀"));
    }

    #[test]
    fn an_unterminated_long_string_fails_at_the_end_of_input() {
        let text = format!("{{\"program\":\"{}é🦀", "x".repeat(100_000));
        let err = parse(&text).unwrap_err();
        assert_eq!(err.at, text.len());
        assert_eq!(err.msg, "unterminated string");
        // So does one cut off inside an escape.
        let err = parse(&format!("\"{}\\", "y".repeat(1000))).unwrap_err();
        assert_eq!(err.at, 1002);
        assert_eq!(err.msg, "bad escape");
    }
}

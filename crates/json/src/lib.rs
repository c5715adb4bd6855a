//! # wwt-json
//!
//! The workspace's hand-rolled JSON codec. The container has no registry
//! access, so instead of `serde_json` every JSON boundary — the table
//! store's persistence lines (`wwt-index`) and the HTTP bodies of
//! `wwt-server` — shares this one small value tree, recursive-descent
//! parser and compact encoder.
//!
//! The [`Json`] tree serves parsing and small bodies. Large hot outputs
//! skip it: `wwt-server` writes each query response straight into one
//! buffer with [`write_str`], [`write_num`] and [`write_u64`], which
//! print exactly what [`Json::encode`] would.
//!
//! ```
//! use wwt_json::Json;
//!
//! let v = Json::obj([
//!     ("query", Json::from("country | currency")),
//!     ("max_rows", Json::from(3u64)),
//! ]);
//! let text = v.encode();
//! assert_eq!(text, r#"{"query":"country | currency","max_rows":3}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("max_rows").and_then(Json::as_u64), Some(3));
//! ```

use std::fmt::{self, Write as _};

/// What a [`JsonError`] rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// A byte that cannot start a value, or the input ended where a value
    /// was due.
    UnexpectedInput,
    /// A required delimiter is missing; the payload names it.
    Expected(&'static str),
    /// Non-whitespace input after the top-level value.
    TrailingCharacters,
    /// Containers nested deeper than the parser's cap.
    TooDeep,
    /// The input ended inside a string. The offset is the opening quote.
    UnterminatedString,
    /// A `\` followed by a character JSON defines no escape for.
    InvalidEscape,
    /// A `\u` escape without exactly four hex digits, or one that names
    /// an unpaired surrogate.
    InvalidUnicodeEscape,
    /// A number outside the RFC 8259 grammar (`01`, `-.5`, `1.`, `1e`).
    InvalidNumber,
}

/// A JSON parse failure: what went wrong, at which input byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    kind: JsonErrorKind,
    offset: usize,
}

impl JsonError {
    fn new(kind: JsonErrorKind, offset: usize) -> Self {
        JsonError { kind, offset }
    }

    /// What was rejected.
    pub fn kind(&self) -> JsonErrorKind {
        self.kind
    }

    /// The input byte the parser stopped at.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid json: ")?;
        match self.kind {
            JsonErrorKind::UnexpectedInput => f.write_str("unexpected input")?,
            JsonErrorKind::Expected(what) => write!(f, "expected {what}")?,
            JsonErrorKind::TrailingCharacters => f.write_str("trailing characters")?,
            JsonErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}")?,
            JsonErrorKind::UnterminatedString => f.write_str("unterminated string")?,
            JsonErrorKind::InvalidEscape => f.write_str("invalid escape")?,
            JsonErrorKind::InvalidUnicodeEscape => f.write_str("invalid \\u escape")?,
            JsonErrorKind::InvalidNumber => f.write_str("invalid number")?,
        }
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// A parsed JSON value.
///
/// Objects keep their fields in insertion order (encoding is therefore
/// deterministic), and numbers are `f64` — ample for the table ids,
/// counters and scores that cross this boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
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

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array by converting each item.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The value of an object field, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer payload, if this is a whole number that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// True iff this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses one JSON value (RFC 8259); trailing non-whitespace input is
    /// an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error(JsonErrorKind::TrailingCharacters));
        }
        Ok(value)
    }

    /// Encodes the value as compact JSON (no whitespace). Whole numbers
    /// print without a fraction; non-finite numbers are encoded as `0`
    /// (JSON has no NaN/inf, and a poisoned line would corrupt a whole
    /// persisted store).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_to(&mut out);
        out
    }

    /// Appends [`Json::encode`]'s output to `out`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Whole numbers below this magnitude print as plain digits; every such
/// integer is exact in an `f64`.
const DIGITS_BELOW: u64 = 1_000_000_000_000_000;

/// Appends a number, printing whole values below 1e15 without a fraction
/// and clamping non-finite values to `0`.
pub fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push('0');
    } else if n.fract() == 0.0 && n.abs() < DIGITS_BELOW as f64 {
        if n < 0.0 {
            out.push('-');
        }
        write_digits(out, n.abs() as u64);
    } else {
        // `{:?}` is the shortest representation that round-trips.
        write!(out, "{n:?}").expect("writing to a String cannot fail");
    }
}

/// Appends `n` exactly as [`write_num`] prints `n as f64`, skipping the
/// float round trip where the digits are exact.
#[inline]
pub fn write_u64(out: &mut String, n: u64) {
    if n < DIGITS_BELOW {
        write_digits(out, n);
    } else {
        write_num(out, n as f64);
    }
}

#[inline]
fn write_digits(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Pushing the few digits one by one beats validating them as a
    // `str` for a single `push_str`.
    out.extend(buf[i..].iter().map(|&d| char::from(d)));
}

/// Appends a JSON string literal with the mandatory escapes.
pub fn write_str(out: &mut String, v: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in v.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        // Every escaped byte is ASCII, so the run ends on a char boundary.
        out.push_str(&v[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out.push_str(&v[run..]);
    out.push('"');
}

/// Maximum container nesting the parser accepts. Bodies now arrive from
/// untrusted network clients, and unbounded recursion over `[[[[…` would
/// overflow the stack — which aborts the whole process, not just the
/// request. 128 levels is far beyond any legitimate WWT payload.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, kind: JsonErrorKind) -> JsonError {
        JsonError::new(kind, self.pos)
    }

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

    fn peek_digit(&self) -> bool {
        self.peek().is_some_and(|b| b.is_ascii_digit())
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(JsonErrorKind::Expected(what)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error(JsonErrorKind::UnexpectedInput)),
        }
    }

    /// Tracks entry into a nested container; errors past [`MAX_DEPTH`].
    /// An error aborts the whole parse, so only success paths unwind.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(JsonErrorKind::TooDeep));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "'{'")?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "':'")?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error(JsonErrorKind::Expected("',' or '}'"))),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "'['")?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error(JsonErrorKind::Expected("',' or ']'"))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        let open = self.pos;
        self.expect(b'"', "'\"'")?;
        let unterminated = JsonError::new(JsonErrorKind::UnterminatedString, open);
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote or backslash in one
            // slice: both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or(unterminated)?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let ch = match self.peek().ok_or(unterminated)? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                _ => return Err(self.error(JsonErrorKind::InvalidEscape)),
            };
            out.push(ch);
            self.pos += 1;
        }
    }

    /// Decodes the rest of a `\u` escape (the parser stands just past the
    /// `u`), joining a surrogate pair into one char.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let start = self.pos;
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            let low_start = self.pos;
            if !self.eat_literal("\\u") {
                return Err(JsonError::new(
                    JsonErrorKind::InvalidUnicodeEscape,
                    low_start,
                ));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(JsonError::new(
                    JsonErrorKind::InvalidUnicodeEscape,
                    low_start,
                ));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        // Only a lone low surrogate is left unrepresentable.
        char::from_u32(code).ok_or(JsonError::new(JsonErrorKind::InvalidUnicodeEscape, start))
    }

    /// Exactly four hex digits; a sign or a short escape is an error.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.error(JsonErrorKind::InvalidUnicodeEscape))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.peek_digit() {
                    return Err(self.error(JsonErrorKind::InvalidNumber));
                }
            }
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(self.error(JsonErrorKind::InvalidNumber)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(JsonErrorKind::InvalidNumber, start))
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        if !self.peek_digit() {
            return Err(self.error(JsonErrorKind::InvalidNumber));
        }
        while self.peek_digit() {
            self.pos += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let v = Json::obj([
            ("s", Json::from("a\"b\\c\nd\tés😀")),
            ("n", Json::from(0.25)),
            ("i", Json::from(42u64)),
            ("b", Json::from(true)),
            ("z", Json::Null),
            ("a", Json::arr([1u64, 2, 3])),
            ("o", Json::obj([("k", Json::from("v"))])),
        ]);
        let text = v.encode();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn whole_numbers_encode_without_fraction() {
        assert_eq!(Json::Num(7.0).encode(), "7");
        assert_eq!(Json::Num(-3.0).encode(), "-3");
        assert_eq!(Json::Num(0.5).encode(), "0.5");
    }

    #[test]
    fn non_finite_numbers_encode_as_zero() {
        assert_eq!(Json::Num(f64::NAN).encode(), "0");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "0");
        // The result must stay parseable.
        assert!(Json::parse(&Json::arr([f64::NAN, 1.0]).encode()).is_ok());
    }

    #[test]
    fn object_accessors() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":[true,null]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        let arr = v.get("c").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert!(arr[1].is_null());
        assert!(v.get("missing").is_none());
        assert!(v.as_obj().is_some());
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Json::parse(r#""A😀""#).unwrap(), Json::Str("A😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone surrogate");
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":1,}x",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1} trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject: {bad:?}");
        }
    }

    #[test]
    fn nesting_depth_is_capped() {
        // At the cap: fine.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        // One past the cap: a parse error, not a stack overflow.
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // The attack shape: a huge unclosed prefix must error early
        // instead of recursing once per byte.
        for attack in [
            "[".repeat(500_000),
            "{\"a\":".repeat(500_000),
            "[{\"a\":".repeat(250_000),
        ] {
            assert!(Json::parse(&attack).is_err());
        }
        // Depth resets between siblings: wide-but-shallow stays fine.
        let wide = format!("[{}1]", "[1],".repeat(10_000));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn control_chars_escape_and_roundtrip() {
        let v = Json::Str("\u{1}\u{1f}".into());
        let text = v.encode();
        assert_eq!(text, "\"\\u0001\\u001f\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn strings_parse_in_linear_time() {
        // The quadratic parser needed hours for these; a thread with a
        // deadline turns a regression into a failure instead of a hang.
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let big = "é".repeat(4 << 20);
            let parsed = Json::parse(&format!("\"{big}\"")).unwrap();
            assert_eq!(parsed.as_str(), Some(big.as_str()));
            let fields: Vec<String> = (0..(8 << 20) / 32)
                .map(|i| format!("\"k{i:07}\":\"value\\\"{i:012}\""))
                .collect();
            let text = format!("{{{}}}", fields.join(","));
            assert!(text.len() >= 8 << 20);
            let parsed = Json::parse(&text).unwrap();
            let fields = parsed.as_obj().unwrap();
            assert_eq!(fields.len(), (8 << 20) / 32);
            assert_eq!(fields[7].1.as_str(), Some("value\"000000000007"));
            done.send(()).unwrap();
        });
        let outcome = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert_ne!(
            outcome,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "8 MiB of strings took over 60 s"
        );
        // A failed assertion in the worker surfaces here.
        worker.join().unwrap();
    }

    fn rejects(input: &str, kind: JsonErrorKind, offset: usize) {
        let err = Json::parse(input).unwrap_err();
        assert_eq!(
            (err.kind(), err.offset()),
            (kind, offset),
            "{input:?}: {err}"
        );
    }

    #[test]
    fn unicode_escape_needs_four_hex_digits_not_a_sign() {
        // `from_str_radix` would have read "+041" as 0x41.
        rejects(r#""\u+041""#, JsonErrorKind::InvalidUnicodeEscape, 3);
        rejects(r#""\u41""#, JsonErrorKind::InvalidUnicodeEscape, 5);
        rejects(r#""\u004""#, JsonErrorKind::InvalidUnicodeEscape, 6);
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::from("A"));
    }

    #[test]
    fn unpaired_surrogates_rejected() {
        rejects(r#""\ud83d""#, JsonErrorKind::InvalidUnicodeEscape, 7);
        rejects(r#""\ud83dA""#, JsonErrorKind::InvalidUnicodeEscape, 7);
        rejects(r#""\ude00""#, JsonErrorKind::InvalidUnicodeEscape, 3);
    }

    #[test]
    fn leading_zero_rejected() {
        rejects("01", JsonErrorKind::InvalidNumber, 1);
        rejects("[-00]", JsonErrorKind::InvalidNumber, 3);
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(Json::parse("-0.5").unwrap(), Json::Num(-0.5));
    }

    #[test]
    fn fraction_without_integer_part_rejected() {
        rejects("-.5", JsonErrorKind::InvalidNumber, 1);
        rejects(".5", JsonErrorKind::UnexpectedInput, 0);
    }

    #[test]
    fn fraction_and_exponent_need_digits() {
        rejects("1.", JsonErrorKind::InvalidNumber, 2);
        rejects("1.e3", JsonErrorKind::InvalidNumber, 2);
        rejects("1e", JsonErrorKind::InvalidNumber, 2);
        rejects("1e+", JsonErrorKind::InvalidNumber, 3);
        rejects("-", JsonErrorKind::InvalidNumber, 1);
        rejects("+1", JsonErrorKind::UnexpectedInput, 0);
        assert_eq!(Json::parse("2.5E-1").unwrap(), Json::Num(0.25));
        assert_eq!(Json::parse("1e+2").unwrap(), Json::Num(100.0));
    }

    #[test]
    fn structural_errors_carry_kind_and_offset() {
        rejects("\"abc", JsonErrorKind::UnterminatedString, 0);
        rejects("[\"a\\", JsonErrorKind::UnterminatedString, 1);
        rejects(r#""\x""#, JsonErrorKind::InvalidEscape, 2);
        rejects("{\"a\" 1}", JsonErrorKind::Expected("':'"), 5);
        rejects("[1 2]", JsonErrorKind::Expected("',' or ']'"), 3);
        rejects("1 2", JsonErrorKind::TrailingCharacters, 2);
        let err = Json::parse("{\"a\" 1}").unwrap_err();
        assert_eq!(err.to_string(), "invalid json: expected ':' at byte 5");
    }

    #[test]
    fn numbers_write_as_the_formatter_did() {
        for n in [
            0.0,
            -0.0,
            7.0,
            -3.0,
            0.5,
            -1.25e-7,
            999_999_999_999_999.0,
            1e15,
            -1e15,
            1.5e300,
            f64::MAX,
        ] {
            let mut out = String::new();
            write_num(&mut out, n);
            let old = if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", n as i64)
            } else {
                format!("{n:?}")
            };
            assert_eq!(out, old, "{n}");
        }
        for n in [
            0,
            9,
            10,
            u64::from(u32::MAX),
            999_999_999_999_999,
            1_000_000_000_000_000,
            u64::MAX,
        ] {
            let (mut direct, mut via_f64) = (String::new(), String::new());
            write_u64(&mut direct, n);
            write_num(&mut via_f64, n as f64);
            assert_eq!(direct, via_f64, "{n}");
        }
    }

    #[test]
    fn strings_write_with_escapes_around_plain_runs() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\u{0}\u{1f}\n\r\té😀\u{7f}");
        assert_eq!(out, "\"a\\\"b\\\\c\\u0000\\u001f\\n\\r\\té😀\u{7f}\"");
        out.clear();
        write_str(&mut out, "");
        assert_eq!(out, "\"\"");
    }

    #[test]
    fn display_matches_encode() {
        let v = Json::arr(["a", "b"]);
        assert_eq!(v.to_string(), v.encode());
    }
}

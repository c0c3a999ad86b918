//! A minimal JSON reader for the workspace's own machine-readable
//! artifacts (`mc-obs/v2` snapshots, `mc-bench-*` reports, budget
//! files).
//!
//! The workspace has a no-external-dependencies policy, and every JSON
//! document we read is one we also write, so this parser is
//! deliberately small: strict on structure (it rejects trailing
//! garbage, unterminated strings, and malformed escapes) but with
//! numbers held as `f64` — integral values round-trip exactly up to
//! 2^53, far above any counter we emit.

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so without a limit a small hostile document
/// (a few kilobytes of `[`) overflows the parsing thread's stack and
/// aborts the process. Every document the workspace writes nests far
/// shallower than this.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see module docs for integer precision).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order (duplicate keys keep the last).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document. Nesting arrays/objects deeper
    /// than 128 levels is an error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member `key` of an object (None for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The value as a signed integer (rejects fractions).
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        (n.fract() == 0.0 && n.abs() <= i64::MAX as f64).then_some(n as i64)
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements, if an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members, if an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes the value as a compact JSON document.
    ///
    /// The output round-trips through [`JsonValue::parse`]: strings are
    /// escaped (including control characters in hostile names), integral
    /// numbers up to 2^53 print without a fractional part, and non-finite
    /// numbers — which JSON cannot represent — serialize as `null`.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_num(*n, out),
            JsonValue::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Num(n)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<i64> for JsonValue {
    fn from(n: i64) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

fn write_num(n: f64, out: &mut String) {
    use std::fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` on f64 prints the shortest representation that parses
        // back to the same bits.
        let _ = write!(out, "{n}");
    }
}

/// Escapes a string for embedding in a JSON document (adds no quotes).
///
/// Shared by every emitter in the workspace: snapshot/report writers,
/// the Prometheus/trace exporters, and the `mc-serve` wire codec.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// [`escape`], appended to `out` in one pass: runs that need no escape
/// are copied as slices, so the only allocations are `out` growing.
/// Every escaped character is ASCII, so byte offsets are char bounds.
fn escape_into(s: &str, out: &mut String) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            _ => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if b == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat_lit("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_lit("null") => Ok(JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writers; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape \\{}", esc as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or("invalid UTF-8 in string")?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc =
            JsonValue::parse(r#"{"a": 1, "b": [true, null, -2.5], "c": {"d": "x\ny", "e": []}}"#)
                .unwrap();
        assert_eq!(doc.get("a").unwrap().as_u64(), Some(1));
        let b = doc.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1], JsonValue::Null);
        assert_eq!(b[2].as_f64(), Some(-2.5));
        assert_eq!(
            doc.get("c").unwrap().get("d").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn unescapes_strings() {
        let doc = JsonValue::parse(r#""q\"b\\nA\u0001\u00e9""#).unwrap();
        assert_eq!(doc.as_str(), Some("q\"b\\nA\u{1}\u{e9}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "\"open",
            "{\"a\" 1}",
            "123 456",
            "{\"a\": 1,}",
            "nul",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(JsonValue::parse(&format!("{{\"a\": {}}}", nested(MAX_DEPTH))).is_err());
        // Unbounded recursion would overflow a spawned thread's default
        // stack long before 100,000 levels and abort the process.
        let hostile = "[".repeat(100_000);
        let result = std::thread::spawn(move || JsonValue::parse(&hostile))
            .join()
            .expect("parser thread survives");
        assert!(result.is_err());
    }

    #[test]
    fn serializer_round_trips() {
        let doc = JsonValue::Obj(vec![
            ("n".into(), JsonValue::Num(-2.5)),
            ("i".into(), JsonValue::Num((1u64 << 53) as f64)),
            (
                "s".into(),
                JsonValue::Str("hostile \"name\"\\with\nctl\u{1}".into()),
            ),
            (
                "a".into(),
                JsonValue::Arr(vec![JsonValue::Null, JsonValue::Bool(true)]),
            ),
            ("o".into(), JsonValue::Obj(vec![])),
        ]);
        let text = doc.to_json_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        // Integral values print without a fraction; escapes are emitted.
        assert!(text.contains("\"i\":9007199254740992"));
        assert!(text.contains("\\\"name\\\""));
        assert!(text.contains("\\u0001"));
    }

    #[test]
    fn serializer_maps_non_finite_to_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_json_string(), "null");
        // Non-integral floats keep full round-trip precision.
        let v = JsonValue::Num(0.1 + 0.2);
        let back = JsonValue::parse(&v.to_json_string()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn from_impls_build_values() {
        let v = JsonValue::Obj(vec![
            ("a".into(), 3u64.into()),
            ("b".into(), "x".into()),
            ("c".into(), true.into()),
        ]);
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn integers_are_exact() {
        let doc = JsonValue::parse("[9007199254740992, -3, 0]").unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1u64 << 53));
        assert_eq!(items[1].as_i64(), Some(-3));
        assert_eq!(items[2].as_u64(), Some(0));
    }
}

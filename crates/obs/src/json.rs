//! A minimal std-only JSON reader.
//!
//! The workspace builds fully offline, so `serde_json` is not available;
//! this module provides the small amount of JSON *reading* the tooling
//! needs — validating exported traces and metric snapshots round-trip, and
//! parsing benchmark result files in the perf-regression gate. It is a
//! strict recursive-descent parser over the full JSON grammar (RFC 8259),
//! with numbers mapped to `f64`. Arrays and objects may nest at most 128
//! deep, so hostile input gets an error, not a stack overflow.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers above 2^53 lose precision).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; keys sorted (JSON objects are unordered maps).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object member named `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for JsonValue {
    /// Serializes back to compact JSON (strings re-escaped, numbers via
    /// Rust's shortest-roundtrip `f64` formatting).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(x) if x.is_finite() => write!(f, "{x}"),
            JsonValue::Num(_) => f.write_str("null"),
            JsonValue::Str(s) => write!(f, "\"{}\"", crate::json_escape(s)),
            JsonValue::Arr(v) => {
                f.write_str("[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", crate::json_escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// How deep arrays and objects may nest: far above anything the
/// workspace writes (a few levels), and low enough that the recursive
/// descent fits in any thread's stack.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; trailing non-whitespace is an error.
///
/// ```
/// use rbpc_obs::json::parse;
/// let v = parse(r#"{"a": [1, true, "x\n"]}"#).unwrap();
/// assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
/// ```
///
/// # Errors
///
/// A human-readable message with the byte offset of the first error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
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

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[' | b'{') => self.nested(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// An array or object, one level deeper than the current one.
    fn nested(&mut self) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = if self.peek() == Some(b'[') {
            self.array()
        } else {
            self.object()
        };
        self.depth -= 1;
        v
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free UTF-8 run at once.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
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
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// Exactly four hex digits (`from_str_radix` alone would also take a
    /// leading `+`).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let v = digits.iter().try_fold(0u32, |v, &c| {
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            Ok::<u32, String>(v << 4 | d)
        })?;
        self.pos += 4;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        // Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
        if (0xD800..0xDC00).contains(&hi) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(format!("lone surrogate at byte {}", self.pos));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("bad surrogate pair at byte {}", self.pos));
            }
            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            return char::from_u32(c).ok_or_else(|| "invalid code point".to_string());
        }
        char::from_u32(hi).ok_or_else(|| format!("lone surrogate at byte {}", self.pos))
    }

    /// Skips a run of digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// RFC 8259 `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_len = self.digits();
        if int_len == 0 || (int_len > 1 && self.bytes[int_start] == b'0') {
            return Err(bad());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), JsonValue::Num(-1250.0));
        assert_eq!(
            parse("\"a\\n\\u0041\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("a\nA😀".to_string())
        );
    }

    #[test]
    fn nested_roundtrip() {
        let text = r#"{"b":[1,{"x":null},"s"],"a":true}"#;
        let v = parse(text).unwrap();
        let again = parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn errors_are_positioned() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1}").unwrap_err().contains("trailing"));
        assert!(parse("\"\\ud800x\"").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Runs on the default test-thread stack: without the depth cap
        // this recursed 200 000 frames deep and aborted the process.
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let too_deep = format!("[{deepest}]");
        assert_eq!(
            parse(&too_deep).unwrap_err(),
            format!("nesting deeper than 128 at byte {MAX_DEPTH}")
        );
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert!(parse("\"\\u+041\"").unwrap_err().contains("bad \\u escape"));
        assert!(parse("\"\\u-041\"").is_err());
        assert!(parse("\"\\u 041\"").is_err());
        assert!(parse("\"\\u004\"").is_err());
        assert_eq!(
            parse("\"\\u004a\\u004A\"").unwrap(),
            JsonValue::Str("JJ".to_string())
        );
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in [
            "01", "-01", "00", "1.e5", "1.", ".5", "-", "1e", "1e+", "+1", "-.5",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
        for (good, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("1.5e5", 150_000.0),
            ("1E-2", 0.01),
            ("2e+3", 2_000.0),
            ("-0.0e0", 0.0),
        ] {
            assert_eq!(parse(good).unwrap(), JsonValue::Num(want), "{good}");
        }
    }
}

//! A minimal JSON parser and string escaper.
//!
//! Just enough JSON to validate and round-trip the Chrome `trace_event`
//! files this crate emits, without pulling a serde stack into an
//! otherwise zero-dependency workspace. Objects preserve key order
//! (they are stored as vectors of pairs), numbers are `f64`.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// Escape `s` for inclusion in a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parse a complete JSON document.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
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
                            let hi = self.hex4()?;
                            let lo = if (0xD800..0xDC00).contains(&hi) {
                                self.low_surrogate()
                            } else {
                                None
                            };
                            let c = match lo {
                                Some(lo) => char::from_u32(0x10000 + ((hi - 0xD800) << 10) + lo),
                                // A lone surrogate has no scalar value.
                                None => char::from_u32(hi),
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // escape. Both are ASCII, so the run ends on a char
                    // boundary of the `&str` input.
                    let rest = &self.bytes[self.pos..];
                    let run =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
                    self.pos += run;
                }
            }
        }
    }

    /// After a high-surrogate escape (cursor on its last hex digit): take
    /// a following `\uXXXX` that is a low surrogate and return its offset
    /// from 0xDC00, or leave the input as it is and return `None`.
    fn low_surrogate(&mut self) -> Option<u32> {
        let next = self.bytes.get(self.pos + 1..self.pos + 7)?;
        let hex = next.strip_prefix(b"\\u")?;
        let lo = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return None;
        }
        self.pos += 6;
        Some(lo - 0xDC00)
    }

    /// Read exactly 4 hex digits following `\u` (cursor on the 'u').
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[start..end]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        self.pos = end - 1; // leave cursor on last hex digit; caller advances
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>().map(Value::Num).map_err(|e| format!("bad number '{s}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").expect("ok"), Value::Null);
        assert_eq!(parse(" true ").expect("ok"), Value::Bool(true));
        assert_eq!(parse("-12.5e2").expect("ok"), Value::Num(-1250.0));
        assert_eq!(parse(r#""hi\nthere""#).expect("ok"), Value::Str("hi\nthere".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}, false], "c": {}}"#).expect("ok");
        let a = v.get("a").and_then(Value::as_arr).expect("arr");
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(a[2], Value::Bool(false));
        assert_eq!(v.get("c").and_then(Value::as_obj).map(<[_]>::len), Some(0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f→g";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).expect("ok"), Value::Str(nasty.to_string()));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""Aé""#).expect("ok"), Value::Str("Aé".to_string()));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(parse(r#""😀""#).expect("ok"), Value::Str("😀".to_string()));
    }

    #[test]
    fn multi_byte_text_around_escapes() {
        let doc = "\"é→\\n😀\\u00e9x\\\"ü\"";
        assert_eq!(parse(doc).expect("ok"), Value::Str("é→\n😀éx\"ü".to_string()));
        let long = "ж".repeat(10_000);
        assert_eq!(parse(&format!("\"{long}\"")).expect("ok"), Value::Str(long));
    }

    #[test]
    fn surrogate_escapes() {
        // A pair: U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).expect("ok"), Value::Str("😀".to_string()));
        // A high surrogate followed by an escape that is not a low one:
        // U+FFFD for the lone half, then the second escape's character.
        assert_eq!(parse(r#""\uD83D\u0041""#).expect("ok"), Value::Str("\u{FFFD}A".to_string()));
        assert_eq!(
            parse(r#""\uD83D\uD83D\uDE00""#).expect("ok"),
            Value::Str("\u{FFFD}😀".to_string())
        );
        // Lone halves, and a high one at the end of the string.
        assert_eq!(parse(r#""\uDE00x""#).expect("ok"), Value::Str("\u{FFFD}x".to_string()));
        assert_eq!(parse(r#""x\uD83D""#).expect("ok"), Value::Str("x\u{FFFD}".to_string()));
    }

    #[test]
    fn depth_cap_prevents_stack_overflow() {
        let deep = "[".repeat(5000) + &"]".repeat(5000);
        assert!(parse(&deep).is_err());
    }
}

//! A small, total JSON reader/writer for the serving layer's wire format.
//!
//! The offline build environment has no `serde_json`, and the server's needs
//! are narrow: parse ingest payloads and client-side responses, write answer
//! and error bodies. Numbers are `f64` end-to-end; Rust's shortest-round-trip
//! float formatting guarantees that an [`AqpAnswer`](ph_core::AqpAnswer) serialized here and
//! parsed back is **bit-identical** — the property the end-to-end tests pin.
//!
//! Parsing is total (returns `Err`, never panics) and depth-capped, so hostile
//! request bodies cannot blow the stack.

use std::fmt::Write as _;

use ph_types::PhError;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A JSON value. Object keys keep their order of appearance (insertion order
/// is meaningful for readable `/stats` output, and lookups are few and small).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in order of appearance.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// Number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed, trailing
    /// garbage rejected). Errors are [`PhError::Parse`] and carry the byte
    /// offset of the problem.
    pub fn parse(input: &str) -> Result<Json, PhError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0).map_err(PhError::Parse)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(PhError::Parse(format!("trailing bytes after document at offset {pos}")));
        }
        Ok(v)
    }
}

/// Writes `x` as a JSON number. JSON has no NaN/∞, so non-finite values become
/// `null` (the reader treats both as "no value"). Finite floats use Rust's
/// shortest round-trip formatting, so the exact bits survive the wire.
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes.get(*pos..).is_some_and(|rest| rest.starts_with(lit.as_bytes())) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at offset {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}", pos = *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = parse_hex4(bytes, *pos + 1)?;
                        // Surrogate pair?
                        if (0xD800..0xDC00).contains(&cp)
                            && bytes.get(*pos + 5..*pos + 7) == Some(b"\\u")
                        {
                            let low = parse_hex4(bytes, *pos + 7)?;
                            if (0xDC00..0xE000).contains(&low) {
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(combined).ok_or("invalid surrogate pair")?);
                                // `u XXXX \ u YYYY` = 11 bytes from the `u`.
                                *pos += 11;
                                continue;
                            }
                        }
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Take the longest valid UTF-8 run up to the next quote/escape.
                let start = *pos;
                while matches!(bytes.get(*pos), Some(b) if *b != b'"' && *b != b'\\') {
                    *pos += 1;
                }
                let run = bytes.get(start..*pos).unwrap_or_default();
                let chunk = std::str::from_utf8(run)
                    .map_err(|_| format!("invalid UTF-8 in string at offset {start}"))?;
                out.push_str(chunk);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes
        .get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or_else(|| format!("truncated \\u escape at offset {at}"))?;
    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
        *pos += 1;
    }
    let text = std::str::from_utf8(bytes.get(start..*pos).unwrap_or_default())
        .map_err(|_| format!("bad number at offset {start}"))?;
    let x: f64 = text.parse().map_err(|_| format!("bad number {text:?} at offset {start}"))?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("number {text:?} overflows f64 at offset {start}"))
    }
}

/// Serialization to compact JSON (also provides `Json::to_string`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Builder shorthand: an object from key/value pairs.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_documents() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "s": "x\"\n\u00e9"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"\né"));
        // Print → reparse is identity.
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn f64_bits_survive_the_wire() {
        for x in [0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -0.0, 123456.789e-12] {
            let text = Json::Num(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn hostile_inputs_error_cleanly() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "nul",
            "tru",
            "01x",
            "--3",
            "1e",
            "{\"a\":1,}",
            "\"\\u12\"",
            "\u{0}",
            "[[[[",
            "1 2",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        // Depth cap, not stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }
}

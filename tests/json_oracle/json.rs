//! A deliberately tiny, strict JSON tree and parser.
//!
//! The workspace takes no serialization dependency, so the exporters of
//! the observability plane (`Journal::to_jsonl`, `chrome_trace`) write
//! their JSON by hand. This parser is the second implementation they are
//! checked against: `tests/json_oracle.rs`, whose module this is, parses
//! what they emit and round-trips arbitrary strings through it, so an
//! escaping bug on either side shows as a parse failure or a mismatch. It
//! reads objects, arrays, strings, finite numbers, booleans and null as
//! RFC 8259 writes them, and rejects anything else: a number with a sign
//! `+`, a leading zero or a bare `.`, and a string with a raw control
//! character or a `\u` escape that is not four hex digits.

use syd_types::{SydError, SydResult};

/// A JSON value tree. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (JSON has no NaN/Inf).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> SydResult<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing garbage"));
        }
        Ok(value)
    }
}

fn err(pos: usize, what: &str) -> SydError {
    SydError::Protocol(format!("json at byte {pos}: {what}"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> SydResult<()> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", c as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> SydResult<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end")),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_str(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> SydResult<Json> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{lit}'")))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> SydResult<Json> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    // -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let mut ok = digits(pos) && (bytes[int_start] != b'0' || *pos == int_start + 1);
    if ok && bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok = digits(pos);
    }
    if ok && matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        ok = digits(pos);
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    match text.parse::<f64>() {
        Ok(n) if ok && n.is_finite() => Ok(Json::Num(n)),
        _ => Err(err(start, "malformed number")),
    }
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> SydResult<String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escape = bytes.get(*pos).ok_or_else(|| err(*pos, "bad escape"))?;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        let hex = std::str::from_utf8(hex).expect("ascii hex digits");
                        let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                        // Surrogate pairs are out of scope: no exporter writes one.
                        out.push(char::from_u32(code).ok_or_else(|| err(*pos, "bad codepoint"))?);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "unknown escape")),
                }
                *pos += 1;
            }
            Some(0..=0x1f) => return Err(err(*pos, "raw control character in string")),
            Some(_) => {
                // Consume one UTF-8 scalar, not one byte.
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "invalid utf-8"))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> SydResult<Json> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> SydResult<Json> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_benchmark_shape() {
        let text = r#"{"correct": true, "metrics": [
            {"name": "find_p50_ms", "value": 1.25, "samples": 32}
        ]}"#;
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            (
                "metrics".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::Str("find_p50_ms".into())),
                    ("value".into(), Json::Num(1.25)),
                    ("samples".into(), Json::Num(32.0)),
                ])]),
            ),
        ]);
        let back = Json::parse(text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("metrics").unwrap().as_arr().unwrap()[0]
                .get("samples")
                .unwrap()
                .as_f64(),
            Some(32.0)
        );
    }

    #[test]
    fn strings_escape_and_unescape() {
        let text = r#""a\"b\\c\nd\u0001\t\/\b\f""#;
        assert_eq!(
            Json::parse(text).unwrap(),
            Json::Str("a\"b\\c\nd\u{1}\t/\u{8}\u{c}".into())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        let numbers = ["+1", "01", "-01", ".5", "1.", "-.5", "-", "1e", "1e+"];
        let strings = ["\"a\u{1}b\"", "\"a\tb\"", "\"\\u+abc\"", "\"\\u12\""];
        let structure = ["", "{", "[1,]", "{\"a\" 1}", "tru", "1.2.3", "\"x", "[1] x"];
        for bad in structure.into_iter().chain(numbers).chain(strings) {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let doc = Json::parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }
}

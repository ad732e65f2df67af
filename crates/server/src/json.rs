//! Minimal JSON for the wire protocol: a value parser for request
//! bodies and escape helpers for hand-rolled response rendering.
//!
//! The offline vendor set has no `serde_json`, and the protocol needs
//! only the RFC 8259 value grammar — so this is a small recursive
//! descent parser with a nesting cap (wire input is untrusted; a
//! bracket bomb must return an error, not blow the stack) plus string
//! escaping for the response side. Responses themselves are rendered by
//! pushing literals in `service.rs`; there is no generic serializer.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Maximum bracket nesting accepted from the wire.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
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
    /// An object. Keys are kept in a map; duplicate keys keep the last
    /// occurrence (the common lenient reading).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse one JSON value spanning the whole input.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.b.get(self.pos) {
            Some(b'{') => {
                self.depth += 1;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(b'[') => {
                self.depth += 1;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#04x} at {}", self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &[u8], v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut m = BTreeMap::new();
        self.ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if self.b.get(self.pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.ws();
            let val = self.value()?;
            m.insert(key, val);
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut v = Vec::new();
        self.ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.b[self.pos + 1..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let code =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                    char::from_u32(code)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or("bad \\u escape")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if *c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.b.len() && (self.b[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.pos]).unwrap_or("\u{fffd}"),
                    );
                }
            }
        }
    }

    /// Four hex digits after a `\u`, leaving `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let d = self
            .b
            .get(self.pos + 1..self.pos + 5)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(d).map_err(|_| "bad \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.b.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.pos]).unwrap_or("");
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

/// Escape a string for embedding in a JSON string literal (no quotes
/// added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Append `s` to `out`, escaped as [`escape`] does: unescaped runs are
/// copied whole, so the common case is one `push_str` per call.
pub fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Only ASCII bytes stop the scan, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A [`fmt::Write`] adapter that JSON-escapes everything written through
/// it into the wrapped buffer, so an encoder (e.g. `io::write_csv`) can
/// stream straight into a JSON string literal without an intermediate
/// copy.
pub struct Escaped<'a>(pub &'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }

    fn write_char(&mut self, c: char) -> fmt::Result {
        if c >= ' ' && c != '"' && c != '\\' {
            self.0.push(c);
        } else {
            escape_into(self.0, c.encode_utf8(&mut [0; 4]));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-at-a-time escaper `escape_into` replaced, kept as the
    /// oracle for it and for [`Escaped`].
    fn escape_reference(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Streaming a string through `Escaped` in arbitrary pieces
        /// (and single chars) writes exactly `escape` of the whole.
        #[test]
        fn escaped_writer_matches_escape(
            chars in proptest::collection::vec(
                prop_oneof![
                    3 => '\u{0}'..'\u{80}',
                    1 => '\u{80}'..'\u{3000}',
                    1 => Just('"'),
                    1 => Just('\\'),
                ],
                0..48,
            ),
            cuts in proptest::collection::vec(0usize..48, 0..6),
        ) {
            let s: String = chars.iter().collect();
            let mut cuts: Vec<usize> = cuts.into_iter().filter(|&c| c <= chars.len()).collect();
            cuts.sort_unstable();
            let mut streamed = String::from("prefix:");
            let mut w = Escaped(&mut streamed);
            let mut at = 0;
            for cut in cuts {
                let piece: String = chars[at..cut].iter().collect();
                if piece.chars().count() == 1 {
                    w.write_char(piece.chars().next().unwrap()).unwrap();
                } else {
                    w.write_str(&piece).unwrap();
                }
                at = cut;
            }
            let rest: String = chars[at..].iter().collect();
            write!(w, "{rest}").unwrap();
            let expected = escape_reference(&s);
            prop_assert_eq!(&escape(&s), &expected);
            prop_assert_eq!(streamed, format!("prefix:{expected}"));
        }
    }

    #[test]
    fn parses_the_request_shapes() {
        let v = parse(r#"{"program": "T <- COPY(A)", "n": 3}"#).unwrap();
        assert_eq!(v.get("program").unwrap().as_str(), Some("T <- COPY(A)"));
        assert_eq!(v.get("n").unwrap().as_num(), Some(3.0));
        let v = parse(r#"{"programs": ["a", "b"]}"#).unwrap();
        assert_eq!(v.get("programs").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn escapes_round_trip() {
        let original = "line\n\"quoted\" \\ tab\t京";
        let wire = format!("{{\"s\": \"{}\"}}", escape(original));
        let v = parse(&wire).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for src in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"\\u12",
            "\u{1}",
            "1 2",
            "{\"a\": }",
            "nul",
            "-",
            "\"\\q\"",
            "[",
        ] {
            assert!(parse(src).is_err(), "{src:?} should not parse");
        }
        // A bracket bomb trips the depth cap instead of the stack.
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
    }
}

//! A minimal JSON value, parser, and writer.
//!
//! The workspace is hermetic (path dependencies only), so the wire format
//! is hand-rolled: recursive-descent parsing into [`Json`], escaping
//! writer out. Both move strings a run at a time: the writer copies each
//! run that needs no escape whole, the parser each run up to the next `"`
//! or `\`. Numbers are `f64` — every count the protocol carries fits
//! an `f64` exactly (they are all far below 2^53).

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
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
    /// An object; insertion order is preserved (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Builds a number from a `u64` (lossy above 2^53; protocol counts
    /// never are).
    pub fn u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Member of an object, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// As `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// As a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// As bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Renders compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact JSON text of `self` to `out`.
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Writing to a `String` cannot fail.
                let _ = if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(out, "{}", *n as i64)
                } else {
                    write!(out, "{n}")
                };
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
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
}

/// Convenience constructor: `obj([("k", v), ...])`.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Appends `s` as a quoted JSON string: each run of bytes that needs no
/// escape is copied whole. Every escaped byte is ASCII, so a run ends on
/// a character boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut i = 0;
    loop {
        let run = bytes[i..]
            .iter()
            .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - i);
        out.push_str(&s[i..i + run]);
        i += run;
        let Some(&b) = bytes.get(i) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        i += 1;
    }
    out.push('"');
}

/// Parses one JSON value from `text` (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// A position-annotated description of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
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

/// Maximum container nesting the parser accepts. The parser is
/// recursive-descent, so unbounded nesting is unbounded native stack —
/// a hostile `[[[[…` frame must come back as a diagnostic, not a stack
/// overflow. 128 levels is far beyond any legitimate request shape.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        self.enter()?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        self.enter()?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    /// Reads a string, copying each run up to the next `"` or `\` whole.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            // Every byte that ends a run or an escape is ASCII, so each run
            // starts and ends on a character boundary.
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The `\` that opens an escape.
                Some(_) => self.pos += 1,
            }
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
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                    let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    self.pos += 4;
                    // Surrogate pairs are not reassembled; the
                    // protocol never emits them. Lone surrogates
                    // become U+FFFD.
                    out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                }
                e => return Err(format!("bad escape `\\{}`", e as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_harness::{check_eq, forall, Config, Source};

    #[test]
    fn round_trip() {
        let src = r#"{"op":"run","until":"100ns","n":42,"neg":-1.5,"flags":[true,false,null],"s":"a\"b\\c\nd"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("run"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-1.5));
        assert_eq!(v.get("flags").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
        // Writing and re-parsing is a fixpoint.
        let text = v.to_text();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\q\"",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn unicode_and_escapes() {
        assert_eq!(parse(r#""\u0041µ""#).unwrap(), Json::Str("Aµ".to_string()));
        assert_eq!(Json::str("x\u{1}y").to_text(), r#""x\u0001y""#);
    }

    /// Hostile input: deeply nested frames must be rejected with a
    /// diagnostic, not a native stack overflow (the parser is recursive).
    #[test]
    fn hostile_nesting_is_a_diagnostic_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            // Well past the limit: would blow the stack unguarded.
            let deep = format!("{}1{}", open.repeat(100_000), close.repeat(100_000));
            let err = parse(&deep).expect_err("hostile nesting must not parse");
            assert!(err.contains("nesting deeper than"), "{err}");
            // Unclosed variant (truncated attack frame) is also an error.
            assert!(parse(&open.repeat(100_000)).is_err());
        }
        // At the limit parses; one past does not.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok(), "nesting at MAX_DEPTH must parse");
        let bad = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&bad).is_err(), "nesting past MAX_DEPTH must fail");
        // Siblings do not accumulate: depth is nesting, not total containers.
        let wide = format!("[{}]", vec!["[1]"; 10_000].join(","));
        assert!(parse(&wide).is_ok(), "wide-but-shallow input must parse");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::u64(7).to_text(), "7");
        assert_eq!(Json::Num(2.5).to_text(), "2.5");
        assert_eq!(
            obj([("a", Json::u64(1)), ("b", Json::Null)]).to_text(),
            r#"{"a":1,"b":null}"#
        );
    }

    /// The writer as it was before runs were copied whole: one formatter
    /// call per character. The property below holds the writer to it.
    fn reference_text(v: &Json) -> String {
        fn esc(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                let _ = match c {
                    '"' => write!(out, "\\\""),
                    '\\' => write!(out, "\\\\"),
                    '\n' => write!(out, "\\n"),
                    '\r' => write!(out, "\\r"),
                    '\t' => write!(out, "\\t"),
                    c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32),
                    c => write!(out, "{c}"),
                };
            }
            out.push('"');
        }
        let mut out = String::new();
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                out.push_str(&(*n as i64).to_string())
            }
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => esc(&mut out, s),
            Json::Arr(a) => {
                let items: Vec<String> = a.iter().map(reference_text).collect();
                out.push_str(&format!("[{}]", items.join(",")));
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    esc(&mut out, k);
                    out.push(':');
                    out.push_str(&reference_text(v));
                }
                out.push('}');
            }
        }
        out
    }

    /// A string that mixes every control byte, `"`, `\\`, multi-byte
    /// UTF-8 next to escapes, and long plain runs.
    fn gen_string(s: &mut Source) -> String {
        let mut out = String::new();
        for _ in 0..s.usize_in(0, 8) {
            match s.usize_in(0, 4) {
                0 => out.push(char::from(s.u64_in(0, 0x1f) as u8)),
                1 => out.push(*s.pick(&['"', '\\', '/', '\u{7f}'])),
                2 => out.push(*s.pick(&['µ', 'é', '€', '𝄞', '\u{fffd}'])),
                3 => {
                    let n = s.usize_in(0, 600);
                    let c = *s.pick(&['a', ' ', '{', ':', '0']);
                    out.extend(std::iter::repeat_n(c, n));
                }
                _ => out.push_str(&s.string_of("ab\"\\\n\t\u{1}\u{1f}µ€𝄞", 12)),
            }
        }
        out
    }

    fn gen_json(s: &mut Source, depth: usize) -> Json {
        match s.usize_in(0, if depth == 0 { 3 } else { 5 }) {
            0 => Json::Null,
            1 => Json::Bool(s.bool()),
            2 => Json::Num(if s.bool() {
                s.i64_in(-(1 << 53), 1 << 53) as f64
            } else {
                s.f64_in(-1e6, 1e6)
            }),
            3 => Json::Str(gen_string(s)),
            4 => Json::Arr(s.vec(0, 4, |s| gen_json(s, depth - 1))),
            _ => Json::Obj(s.vec(0, 4, |s| (gen_string(s), gen_json(s, depth - 1)))),
        }
    }

    #[test]
    fn writer_matches_the_per_character_writer_and_round_trips() {
        forall!(
            Config::new("json::writer_matches_the_per_character_writer_and_round_trips").cases(256),
            |s| {
                let v = gen_json(s, 3);
                let text = v.to_text();
                check_eq!(text, reference_text(&v));
                check_eq!(v.to_string(), text);
                check_eq!(parse(&text), Ok(v.clone()));
            }
        );
    }

    #[test]
    fn hostile_strings_after_long_runs_are_diagnosed() {
        let run = "µa".repeat(4000);
        for (text, want) in [
            (format!("\"{run}"), "unterminated string".to_string()),
            (format!("[\"{run}\\"), "unterminated escape".to_string()),
            (format!("\"{run}\\q{run}\""), "bad escape `\\q`".to_string()),
            (format!("\"{run}\\u12zz\""), "bad \\u escape".to_string()),
            (format!("\"{run}\\u1"), "truncated \\u escape".to_string()),
        ] {
            assert_eq!(parse(&text), Err(want));
        }
        // A run that ends at an escape keeps both sides of it.
        let text = format!("\"{run}\\n\\u00e9{run}\"");
        assert_eq!(parse(&text), Ok(Json::Str(format!("{run}\né{run}"))));
    }
}

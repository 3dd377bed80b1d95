//! Minimal JSON support for observability artifacts and bench results.
//!
//! Hand-rolled so the workspace stays free of external dependencies. The
//! subset covered is exactly what the workspace needs to emit and merge
//! its own output — objects, arrays, strings, finite numbers, bools, null —
//! but the parser accepts any standard JSON document, so hand-edited
//! results files still merge cleanly and foreign JSONL lines still parse.
//! Used by [`crate::ObsReport`] for JSONL export/dumps and re-exported by
//! the `bench` crate for `BENCH_RESULTS.json`.

/// Deepest nesting of arrays and objects [`Value::parse`] accepts; past
/// it the parse fails instead of recursing on. Everything the workspace
/// writes nests about four levels deep.
pub const MAX_DEPTH: usize = 128;

/// 2^53: an `f64` holds every integer up to here exactly, and rounds
/// some above it.
const MAX_EXACT_F64_INT: u64 = 1 << 53;

/// A JSON document node. Object keys keep insertion order so merged files
/// diff minimally run-over-run.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    /// An integer literal above 2^53, where `f64` would round it: `u64`
    /// counters and totals keep every digit. Integers at or below 2^53
    /// are always [`Num`](Value::Num).
    Int(u64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An unsigned integer, exact over the whole `u64` range: a
    /// [`Num`](Value::Num) up to 2^53, an [`Int`](Value::Int) above.
    pub fn uint(n: u64) -> Value {
        if n <= MAX_EXACT_F64_INT {
            Value::Num(n as f64)
        } else {
            Value::Int(n)
        }
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The payload as an exact `u64`, if this is a non-negative integer
    /// (what [`uint`](Value::uint) writes). Fractions, negatives, and a
    /// [`Num`](Value::Num) past 2^53, which `f64` may have rounded, read
    /// as `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= MAX_EXACT_F64_INT as f64 => {
                Some(n as u64)
            }
            Value::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in document order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Field `key` as a string, or an error naming the field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("field '{key}' missing or not a string"))
    }

    /// Field `key` as a number, or an error naming the field.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("field '{key}' missing or not a number"))
    }

    /// Field `key` as an exact `u64` (see [`as_u64`](Self::as_u64)), or
    /// an error naming the field.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("field '{key}' missing or not a non-negative integer"))
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Render on one line, as a JSONL record: `{ "k": v, ... }` and
    /// `[ a, b ]`, with strings copied verbatim (escaped, never
    /// re-spaced).
    pub fn render_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Write `self` at nesting `depth`, or on one line when `depth` is
    /// `None`.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    break_line(out, inner);
                    item.write(out, inner);
                }
                break_line(out, depth);
                out.push(']');
            }
            Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    break_line(out, inner);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, inner);
                }
                break_line(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Errors carry a byte offset and a reason;
    /// nesting deeper than [`MAX_DEPTH`] and unpaired surrogate escapes
    /// are errors.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// A newline indented to `depth`, or a single space on one line.
fn break_line(out: &mut String, depth: Option<usize>) {
    match depth {
        Some(depth) => {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
        None => out.push(' '),
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/inf
    } else if n == n.trunc() && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parse one array or object, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    /// One number in the RFC 8259 grammar,
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, whose value
    /// is finite: JSON has no infinities to round-trip `1e999` to.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad()),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // An integer literal `f64` would round stays exact.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::uint(n));
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(bad()),
        }
    }

    /// Skip a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes (UTF-8 passes through intact).
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("bad UTF-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!("unpaired surrogate at byte {}", self.pos));
                                }
                                char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| format!("bad escape at byte {}", self.pos))?);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    /// Exactly four ASCII hex digits (no sign, unlike `from_str_radix`).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut v = 0;
        for &b in digits {
            v = v * 16 + (b as char).to_digit(16).ok_or("bad \\u escape")?;
        }
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_results_shaped_document() {
        let doc = Value::Obj(vec![
            (
                "records".into(),
                Value::Arr(vec![Value::Obj(vec![
                    ("suite".into(), Value::Str("micro".into())),
                    ("name".into(), Value::Str("event_queue/pop\n".into())),
                    ("mean_ms".into(), Value::Num(1.25)),
                    ("iters".into(), Value::Num(20.0)),
                    ("ok".into(), Value::Bool(true)),
                    ("note".into(), Value::Null),
                ])]),
            ),
            ("empty".into(), Value::Arr(vec![])),
        ]);
        let text = doc.render();
        assert_eq!(Value::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_foreign_json() {
        let v = Value::parse(r#"{"a": [1, -2.5, 1e3], "b": "xA😀y"}"#).unwrap();
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("xA\u{1F600}y"));
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Value::Num(26865026.0).render(), "26865026\n");
        assert_eq!(Value::Num(0.5).render(), "0.5\n");
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&deep(MAX_DEPTH + 1)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // An unclosed run this long used to overflow the stack.
        assert!(Value::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn surrogate_escapes_must_pair() {
        let v = Value::parse(r#""\uD83D\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(Value::parse(r#""\uD800\u0000""#).is_err());
        assert!(Value::parse(r#""\uD800\uD800""#).is_err());
        assert!(Value::parse(r#""\uDC00""#).is_err());
        assert!(Value::parse(r#""\uD800x""#).is_err());
    }

    #[test]
    fn accepts_only_json() {
        // A sign in a \u escape, numbers beyond f64, a leading zero and a
        // bare trailing point are not JSON.
        for text in [r#""\u+041""#, "1e999", "-1e999", "01", "1."] {
            assert!(Value::parse(text).is_err(), "{text} parsed");
        }
        for (text, n) in [("0", 0.0), ("-0", -0.0), ("1.5e-7", 1.5e-7), ("1E+3", 1e3)] {
            assert_eq!(Value::parse(text), Ok(Value::Num(n)), "{text}");
        }
        assert_eq!(Value::parse(r#""\u0041""#), Ok(Value::Str("A".into())));
    }

    #[test]
    fn integers_above_2_pow_53_stay_exact() {
        let big = (1u64 << 53) + 1;
        assert_eq!(Value::uint(1 << 53), Value::Num(9_007_199_254_740_992.0));
        assert_eq!(Value::uint(big), Value::Int(big));
        for n in [0, 1 << 53, big, u64::MAX] {
            let v = Value::parse(&Value::uint(n).render()).unwrap();
            assert_eq!((v.clone(), v.as_u64()), (Value::uint(n), Some(n)), "{n}");
        }
        // Past u64 an integer literal is an ordinary (rounded) number.
        assert_eq!(
            Value::parse("18446744073709551616").unwrap(),
            Value::Num(18446744073709551616.0)
        );
        assert_eq!(Value::parse("1e3").unwrap().as_u64(), Some(1000));
        for text in ["-5", "1.7", "-0.5", "1e17"] {
            assert_eq!(Value::parse(text).unwrap().as_u64(), None, "{text}");
        }
    }

    #[test]
    fn render_line_is_one_line_and_keeps_strings_verbatim() {
        let v = Value::Obj(vec![
            ("msg".into(), Value::Str("a  b\n  c".into())),
            (
                "xs".into(),
                Value::Arr(vec![
                    Value::Num(1.0),
                    Value::Arr(vec![]),
                    Value::Obj(vec![]),
                ]),
            ),
        ]);
        let line = v.render_line();
        assert_eq!(line, r#"{ "msg": "a  b\n  c", "xs": [ 1, [], {} ] }"#);
        assert_eq!(Value::parse(&line).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
    }
}

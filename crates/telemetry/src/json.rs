//! The workspace's one JSON codec: a string escaper, an incremental object
//! writer and a parser.
//!
//! The build is fully offline (no serde_json), so every JSON producer and
//! consumer in the stack goes through this module: the `RunReport`, diff
//! and observe reports, the Chrome trace, the serving daemon's wire lines,
//! and the on-disk experiment cache entries.
//!
//! The parser accepts RFC 8259 JSON and nothing else. Nesting is capped at
//! [`MAX_DEPTH`] so hostile input cannot overflow the caller's stack,
//! `\u` escapes must name a Unicode scalar value (surrogate halves are
//! rejected rather than paired), and raw control characters inside
//! strings are errors. Integers keep their exact value over the whole
//! `u64` and `i64` ranges.
//!
//! Floats that must survive a round trip bit for bit are written with
//! [`JsonObj::f64_bits`] as 16-hex-digit strings of their IEEE bit
//! pattern and read back with [`JsonValue::as_f64_bits`].

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts.
pub const MAX_DEPTH: usize = 32;

/// Escape a string for a JSON string literal (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
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
}

/// The JSON string literal holding `v`'s IEEE bit pattern as 16 hex
/// digits: exact for every value, including `-0.0`, subnormals and
/// non-finite ones. Read it back with [`JsonValue::as_f64_bits`].
pub fn f64_bits(v: f64) -> String {
    format!("\"{:016x}\"", v.to_bits())
}

/// A JSON array from pre-rendered JSON values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// Incremental JSON object writer.
///
/// ```
/// use vmprobe_telemetry::json::JsonObj;
/// let mut o = JsonObj::new();
/// o.str("name", "moldyn").u64("heap_mb", 32).bool("ok", true);
/// assert_eq!(o.finish(), r#"{"name":"moldyn","heap_mb":32,"ok":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) -> &mut String {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Stamp the suite-wide artifact schema version
    /// ([`crate::SCHEMA_VERSION`]) as the next field. Every machine-readable
    /// artifact — the `RunReport` JSON, the Chrome trace and the Prometheus
    /// metrics — carries this same constant, and they bump in lockstep
    /// (`tests/telemetry_determinism.rs` enforces it).
    pub fn schema_version(&mut self) -> &mut Self {
        self.u64("schema_version", u64::from(crate::SCHEMA_VERSION))
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        let buf = self.key(k);
        buf.push('"');
        escape_into(buf, v);
        buf.push('"');
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a signed integer field.
    pub fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a float field (non-finite values render as `null`).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        if v.is_finite() {
            let _ = write!(self.key(k), "{v}");
        } else {
            self.key(k).push_str("null");
        }
        self
    }

    /// Add a float field in its exact [`f64_bits`] spelling.
    pub fn f64_bits(&mut self, k: &str, v: f64) -> &mut Self {
        self.raw(k, &f64_bits(v))
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k).push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a pre-rendered JSON value (nested object or array) verbatim.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).push_str(v);
        self
    }

    /// Add an array field from pre-rendered JSON values.
    pub fn array(&mut self, k: &str, items: impl IntoIterator<Item = String>) -> &mut Self {
        self.raw(k, &array(items))
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent that fits an `i128`,
    /// kept exact (so every `u64` and every `i64` survives).
    Int(i128),
    /// Any other finite number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last value).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse one complete JSON value; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error, with its
    /// byte offset where one applies.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins, like serde_json).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly. A
    /// non-integral spelling of an integer, such as `32.0` or `1e3`, is
    /// accepted.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a signed integer, if it is an integer literal in the
    /// `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The float an [`f64_bits`] literal holds: a string of exactly
    /// 16 hex digits, read as an IEEE bit pattern.
    pub fn as_f64_bits(&self) -> Option<f64> {
        let s = self.as_str()?;
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(f64::from_bits)
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - from
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
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

    /// One string literal. Runs of plain bytes are copied with one
    /// `push_str` each; run boundaries are ASCII bytes, so every slice of
    /// the input falls on a character boundary.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            let start = self.pos;
            while bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or("bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired:
                            // the emitter never writes them, and a typed
                            // error beats silent mojibake.
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("\\u{hex} is not a scalar value"))?,
                            );
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => return Err("raw control character in string".into()),
            }
        }
    }

    /// One number, by the RFC 8259 grammar
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            // A leading zero stands alone: `01` leaves `1` unconsumed.
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad()),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integral = false;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = &self.text[start..self.pos];
        // `-0` stays a float so that `-0.0` survives the emitter.
        if integral && text != "-0" {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(JsonValue::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => Err(format!("non-finite number '{text}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a fixed-seed stream for the property tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Strings built from the characters an escaper can get wrong: quotes,
    /// backslashes, every control character, and one- to four-byte UTF-8.
    fn awkward_string(rng: &mut Rng) -> String {
        const PALETTE: &[char] = &[
            '"',
            '\\',
            '/',
            'a',
            ' ',
            '\u{7f}',
            'é',
            '€',
            '😀',
            '\u{10ffff}',
        ];
        (0..rng.below(24))
            .map(|_| match rng.below(3) {
                0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
                1 => PALETTE[rng.below(PALETTE.len() as u64) as usize],
                _ => loop {
                    if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                        break c;
                    }
                },
            })
            .collect()
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_object_renders() {
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn nested_objects_and_arrays() {
        let mut inner = JsonObj::new();
        inner.u64("n", 3);
        let mut o = JsonObj::new();
        o.raw("inner", &inner.finish())
            .array("xs", ["1".to_owned(), "2".to_owned()])
            .f64("nan", f64::NAN);
        assert_eq!(o.finish(), r#"{"inner":{"n":3},"xs":[1,2],"nan":null}"#);
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v = JsonValue::parse(r#"{"a":[1,-2.5,true,null],"b":{"c":"x\ny"}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &JsonValue::Arr(vec![
                JsonValue::Int(1),
                JsonValue::Num(-2.5),
                JsonValue::Bool(true),
                JsonValue::Null,
            ])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn round_trips_the_emitter() {
        let mut o = JsonObj::new();
        o.str("name", "mol\"dyn\\")
            .u64("heap_mb", 32)
            .bool("ok", true)
            .f64("x", -1.5);
        let text = o.finish();
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("mol\"dyn\\"));
        assert_eq!(v.get("heap_mb").unwrap().as_u64(), Some(32));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("x"), Some(&JsonValue::Num(-1.5)));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = JsonValue::parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
        for bad in [r#""\ud800""#, r#""\u+041""#, r#""\u00""#] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":true}"#,
            "  [ 1 , 2 ]  ",
        ] {
            JsonValue::parse(ok).unwrap_or_else(|e| panic!("rejected {ok}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[01x]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "01a",
            "\"\\x\"",
            "{\"a\":1}x",
            "nan",
            "\"\u{1}\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Nesting bomb is cut off, not a stack overflow.
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(JsonValue::parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for ok in [
            "0", "-0", "7", "-12", "0.5", "-0.5", "1e3", "1E+3", "2.5e-3", "10",
        ] {
            JsonValue::parse(ok).unwrap_or_else(|e| panic!("rejected {ok}: {e}"));
        }
        for bad in [
            "1.", "-.5", ".5", "+1", "01", "-01", "1e", "1e+", "-", "1.e3", "1e999",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn integers_are_exact_over_u64_and_i64() {
        let mut o = JsonObj::new();
        o.u64("max", u64::MAX).i64("min", i64::MIN).u64("zero", 0);
        let v = JsonValue::parse(&o.finish()).unwrap();
        assert_eq!(v.get("max").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("min").unwrap().as_i64(), Some(i64::MIN));
        assert_eq!(v.get("min").unwrap().as_u64(), None);
        assert_eq!(v.get("zero").unwrap().as_u64(), Some(0));
        // Integral spellings the wire has always accepted still count.
        for (text, n) in [("32.0", 32), ("1e3", 1000), ("-0", 0), ("4.0E1", 40)] {
            assert_eq!(JsonValue::parse(text).unwrap().as_u64(), Some(n), "{text}");
        }
        for text in ["-1", "0.5", "\"3\""] {
            assert_eq!(JsonValue::parse(text).unwrap().as_u64(), None, "{text}");
        }
    }

    #[test]
    fn floats_round_trip_through_both_spellings() {
        let mut rng = Rng(7);
        let mut values = vec![
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            0.1 + 0.2,
            1e300,
            1e20,
        ];
        values.extend(
            (0..200)
                .map(|_| f64::from_bits(rng.next()))
                .filter(|x| x.is_finite()),
        );
        for x in values {
            let mut o = JsonObj::new();
            o.f64("dec", x).f64_bits("bits", x);
            let v = JsonValue::parse(&o.finish()).unwrap();
            let dec = v.get("dec").unwrap().as_f64().unwrap();
            assert_eq!(dec.to_bits(), x.to_bits(), "decimal spelling of {x:e}");
            let bits = v.get("bits").unwrap().as_f64_bits().unwrap();
            assert_eq!(bits.to_bits(), x.to_bits(), "bit spelling of {x:e}");
        }
        let mut o = JsonObj::new();
        o.f64_bits("nan", f64::NAN)
            .f64_bits("inf", f64::NEG_INFINITY);
        let v = JsonValue::parse(&o.finish()).unwrap();
        assert!(v.get("nan").unwrap().as_f64_bits().unwrap().is_nan());
        assert_eq!(v.get("inf").unwrap().as_f64_bits(), Some(f64::NEG_INFINITY));
        for bad in [
            "\"3ff\"",
            "\"+ff0000000000000\"",
            "\"3ff000000000000g\"",
            "1",
        ] {
            assert_eq!(JsonValue::parse(bad).unwrap().as_f64_bits(), None, "{bad}");
        }
    }

    #[test]
    fn random_strings_round_trip_through_escape_and_parse() {
        let mut rng = Rng(0x5eed);
        for _ in 0..2000 {
            let key = awkward_string(&mut rng);
            let value = awkward_string(&mut rng);
            let mut o = JsonObj::new();
            o.str(&key, &value);
            let text = o.finish();
            assert!(
                !text.bytes().any(|b| b < 0x20),
                "raw control byte in {text:?}"
            );
            let v = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(v, JsonValue::Obj(vec![(key, JsonValue::Str(value))]));
        }
    }

    #[test]
    fn random_bytes_never_panic_the_parser() {
        let mut rng = Rng(11);
        let alphabet = b"{}[]\",:\\-+.eE0123456789truefalsn \t\nu";
        for _ in 0..5000 {
            let len = rng.below(40) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize] as char)
                .collect();
            let _ = JsonValue::parse(&s);
        }
    }
}

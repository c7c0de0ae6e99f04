//! The workspace's one JSON codec: a string escaper, an incremental object
//! writer, and one reader with two users.
//!
//! The build is fully offline (no serde_json), so every JSON producer and
//! consumer in the stack goes through this module: the `RunReport`, diff
//! and observe reports, the Chrome trace, the serving daemon's wire lines,
//! and the on-disk experiment cache entries.
//!
//! [`Reader`] is the only grammar. It is a pull reader over a `&str`: it
//! hands out one [`Token`] at a time, with strings borrowed from the input
//! unless they hold an escape. It accepts RFC 8259 JSON and nothing else.
//! Nesting is capped at [`MAX_DEPTH`] so hostile input cannot overflow the
//! caller's stack, `\u` escapes must name a Unicode scalar value
//! (surrogate halves are rejected rather than paired), and raw control
//! characters inside strings are errors. Integers keep their exact value
//! over the whole `u64` and `i64` ranges. Its two users are
//! [`JsonValue::parse`], which builds a tree for the wire and the tests,
//! and the cache's entry decoder, which reads an entry straight into its
//! summary by the entry's schema and builds no tree.
//!
//! Floats that must survive a round trip bit for bit are written with
//! [`JsonObj::f64_bits`] as 16-hex-digit strings of their IEEE bit
//! pattern, and read back with [`Reader::f64_bits`] straight from those 16
//! bytes.

use std::borrow::Cow;
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
/// non-finite ones. Read it back with [`Reader::f64_bits`].
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
        let mut r = Reader::new(text);
        let v = Self::read(&mut r)?;
        r.end()?;
        Ok(v)
    }

    /// The reader's next value, whole.
    fn read(r: &mut Reader<'_>) -> Result<JsonValue, String> {
        Ok(match r.value()? {
            Token::Null => JsonValue::Null,
            Token::Bool(b) => JsonValue::Bool(b),
            Token::Int(i) => JsonValue::Int(i),
            Token::Num(n) => JsonValue::Num(n),
            Token::Str(s) => JsonValue::Str(s.into_owned()),
            Token::Arr => {
                let mut items = Vec::new();
                while r.more_items()? {
                    items.push(Self::read(r)?);
                }
                JsonValue::Arr(items)
            }
            Token::Obj => {
                let mut fields = Vec::new();
                while let Some(key) = r.next_key()? {
                    let key = key.into_owned();
                    fields.push((key, Self::read(r)?));
                }
                JsonValue::Obj(fields)
            }
        })
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

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// One step of a [`Reader`]: a whole scalar, or the opening bracket of a
/// container whose contents the following calls read.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal that fits an `i128`, as [`JsonValue::Int`].
    Int(i128),
    /// Any other finite number.
    Num(f64),
    /// A string, borrowed from the input unless it holds an escape.
    Str(Cow<'a, str>),
    /// `[`: step through the items with [`Reader::more_items`].
    Arr,
    /// `{`: step through the fields with [`Reader::next_key`].
    Obj,
}

/// The codec's one grammar: a pull reader over one JSON document.
///
/// [`value`](Self::value) reads the next value, a container only up to
/// its opening bracket; [`more_items`](Self::more_items) and
/// [`next_key`](Self::next_key) step through the open container, and
/// [`end`](Self::end) checks that only whitespace follows the root.
/// [`JsonValue::parse`] builds its tree this way. A decoder that knows
/// its schema reads straight into its own types with the typed calls and
/// builds no tree:
///
/// ```
/// use vmprobe_telemetry::json::Reader;
/// let mut r = Reader::new(r#"{"heap_mb":32,"energy":["3ff8000000000000"]}"#);
/// r.object()?;
/// r.field("heap_mb")?;
/// assert_eq!(r.u64()?, 32);
/// r.field("energy")?;
/// r.array()?;
/// r.item()?;
/// assert_eq!(r.f64_bits()?, 1.5);
/// r.array_end()?;
/// r.object_end()?;
/// r.end()?;
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the next value.
    depth: usize,
    /// The innermost container has just opened: no item read yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Enforce the depth cap and step to the next value's first byte.
    #[inline]
    fn start(&mut self) -> Result<Option<u8>, String> {
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        Ok(self.peek())
    }

    /// The next value: a scalar whole, or a container up to its opening
    /// bracket.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error, with its
    /// byte offset where one applies.
    pub fn value(&mut self) -> Result<Token<'a>, String> {
        match self.start()? {
            Some(b'{') => Ok(self.open(Token::Obj)),
            Some(b'[') => Ok(self.open(Token::Arr)),
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.lit("true", Token::Bool(true)),
            Some(b'f') => self.lit("false", Token::Bool(false)),
            Some(b'n') => self.lit("null", Token::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn open(&mut self, container: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        container
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// In an open array: whether another item follows (read it with
    /// [`value`](Self::value)), or the array closed.
    ///
    /// # Errors
    ///
    /// A syntax error between items.
    #[inline]
    pub fn more_items(&mut self) -> Result<bool, String> {
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(b',') if !fresh => {
                self.pos += 1;
                Ok(true)
            }
            _ if fresh => Ok(true),
            _ => Err(format!("expected ',' or ']' at byte {}", self.pos)),
        }
    }

    /// In an open object: the next field's key, with the reader at its
    /// value, or `None` once the object closed.
    ///
    /// # Errors
    ///
    /// A syntax error between fields or in the key.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if !fresh => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if fresh => {}
            _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
        }
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// Check that only whitespace follows the root value.
    ///
    /// # Errors
    ///
    /// `trailing garbage` with the offset of the first other byte.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }

    fn expected<T>(&self, what: &str, at: usize) -> Result<T, String> {
        Err(format!("expected {what} at byte {at}"))
    }

    /// The next value as `pick` converts it; an error names `what`.
    fn typed<T>(
        &mut self,
        what: &str,
        pick: impl FnOnce(Token<'a>) -> Option<T>,
    ) -> Result<T, String> {
        let at = self.pos;
        let token = self.value()?;
        pick(token).map_or_else(|| self.expected(what, at), Ok)
    }

    // The typed calls below read the next value and fail on a syntax
    // error or on a value of another kind.

    /// The next value, which must be a string.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.typed("a string", |t| match t {
            Token::Str(s) => Some(s),
            _ => None,
        })
    }

    /// The next value, which must be `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        self.typed("a boolean", |t| match t {
            Token::Bool(b) => Some(b),
            _ => None,
        })
    }

    /// The next value, which must be an integer literal in the `u64` range.
    /// An integer of up to 19 digits is read in place.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        if let Some(b'0'..=b'9') = self.start()? {
            let bytes = self.text.as_bytes();
            if let Some((end, Some(n))) = integer_part(bytes, self.pos) {
                if !matches!(bytes.get(end), Some(b'.' | b'e' | b'E')) {
                    self.pos = end;
                    return Ok(n);
                }
            }
        }
        self.typed("a u64", |t| match t {
            Token::Int(i) => u64::try_from(i).ok(),
            _ => None,
        })
    }

    /// The next value, which must be an [`f64_bits`] literal: a quote, 16
    /// hex digits and a quote, decoded straight from those bytes.
    #[inline]
    pub fn f64_bits(&mut self) -> Result<f64, String> {
        self.start()?;
        let at = self.pos;
        let bits = self
            .text
            .as_bytes()
            .get(at..at + 18)
            .filter(|lit| lit[0] == b'"' && lit[17] == b'"')
            .and_then(|lit| hex16(&lit[1..17]));
        let Some(bits) = bits else {
            return self.expected("an f64_bits string", at);
        };
        self.pos = at + 18;
        Ok(f64::from_bits(bits))
    }

    /// Open the next value, which must be an array.
    pub fn array(&mut self) -> Result<(), String> {
        self.typed("an array", |t| (t == Token::Arr).then_some(()))
    }

    /// In an open array: require another item.
    #[inline]
    pub fn item(&mut self) -> Result<(), String> {
        let at = self.pos;
        if self.more_items()? {
            Ok(())
        } else {
            self.expected("another item", at)
        }
    }

    /// In an open array: require that it closes here.
    #[inline]
    pub fn array_end(&mut self) -> Result<(), String> {
        let at = self.pos;
        if self.more_items()? {
            self.expected("']'", at)
        } else {
            Ok(())
        }
    }

    /// Open the next value, which must be an object.
    pub fn object(&mut self) -> Result<(), String> {
        self.typed("an object", |t| (t == Token::Obj).then_some(()))
    }

    /// In an open object: require that the next field is `name`, and
    /// stand at its value.
    #[inline]
    pub fn field(&mut self, name: &str) -> Result<(), String> {
        let at = self.pos;
        match self.next_key()? {
            Some(key) if key == name => Ok(()),
            _ => self.expected(&format!("field '{name}'"), at),
        }
    }

    /// In an open object: require that it closes here.
    #[inline]
    pub fn object_end(&mut self) -> Result<(), String> {
        let at = self.pos;
        match self.next_key()? {
            Some(_) => self.expected("'}'", at),
            None => Ok(()),
        }
    }

    fn lit(&mut self, word: &str, v: Token<'a>) -> Result<Token<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// One string literal, borrowed when it holds no escape. Runs of plain
    /// bytes are copied with one `push_str` each; run boundaries are ASCII
    /// bytes, so every slice of the input falls on a character boundary.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let text = self.text;
        let bytes = text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            let run = &text[start..self.pos];
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
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
                            let hex = text
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
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. The integer
    /// part's magnitude is accumulated as it is scanned, so an integer
    /// literal within the `u64` range is not parsed a second time.
    fn number(&mut self) -> Result<Token<'a>, String> {
        let bytes = self.text.as_bytes();
        let at = |i: usize| bytes.get(i).copied();
        let digits = |mut i: usize| {
            while at(i).is_some_and(|c| c.is_ascii_digit()) {
                i += 1;
            }
            i
        };
        let start = self.pos;
        let bad = || Err(format!("bad number at byte {start}"));
        let negative = at(start) == Some(b'-');
        let Some((mut i, magnitude)) = integer_part(bytes, start + usize::from(negative)) else {
            return bad();
        };
        let integral_end = i;
        if at(i) == Some(b'.') {
            let end = digits(i + 1);
            if end == i + 1 {
                return bad();
            }
            i = end;
        }
        if matches!(at(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(at(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let end = digits(i);
            if end == i {
                return bad();
            }
            i = end;
        }
        self.pos = i;
        // `-0` stays a float so that `-0.0` survives the emitter.
        let integral = i == integral_end && !(negative && magnitude == Some(0));
        if let (true, Some(m)) = (integral, magnitude) {
            let m = i128::from(m);
            return Ok(Token::Int(if negative { -m } else { m }));
        }
        let text = &self.text[start..i];
        if let (true, Ok(v)) = (integral, text.parse::<i128>()) {
            return Ok(Token::Int(v));
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Token::Num(n)),
            _ => Err(format!("non-finite number '{text}'")),
        }
    }
}

/// The integer part of a number at `start`, `0` or `[1-9][0-9]*`: where
/// it ends, and its magnitude if it has at most 19 digits (which cannot
/// overflow a `u64`). `None` when no digit starts there.
#[inline]
fn integer_part(bytes: &[u8], start: usize) -> Option<(usize, Option<u64>)> {
    let (mut i, mut m) = (start, 0u64);
    match bytes.get(start) {
        // A leading zero stands alone: `01` leaves `1` unconsumed.
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            while let Some(&d @ b'0'..=b'9') = bytes.get(i) {
                m = m.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                i += 1;
            }
        }
        _ => return None,
    }
    Some((i, (i - start <= 19).then_some(m)))
}

/// Each byte's hex digit value, or `0xff` for a byte that is not one.
const HEX_DIGIT: [u8; 256] = {
    let mut t = [0xff; 256];
    let mut i = 0;
    while i < 10 {
        t[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        t[b'a' as usize + i] = 10 + i as u8;
        t[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    t
};

/// Exactly 16 hex digits, read as a `u64`.
#[inline]
fn hex16(digits: &[u8]) -> Option<u64> {
    let digits: &[u8; 16] = digits.try_into().ok()?;
    let (mut bits, mut any_bad) = (0u64, 0u8);
    for &d in digits {
        let v = HEX_DIGIT[usize::from(d)];
        any_bad |= v;
        bits = bits << 4 | u64::from(v & 0xf);
    }
    (any_bad & 0xf0 == 0).then_some(bits)
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
        assert_eq!(v.get("min"), Some(&JsonValue::Int(i128::from(i64::MIN))));
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
            let text = o.finish();
            let v = JsonValue::parse(&text).unwrap();
            let dec = v.get("dec").unwrap().as_f64().unwrap();
            assert_eq!(dec.to_bits(), x.to_bits(), "decimal spelling of {x:e}");
            let mut r = Reader::new(&text);
            r.object().unwrap();
            r.field("dec").unwrap();
            r.value().unwrap();
            r.field("bits").unwrap();
            let bits = r.f64_bits().unwrap();
            assert_eq!(bits.to_bits(), x.to_bits(), "bit spelling of {x:e}");
        }
        let mut o = JsonObj::new();
        o.f64_bits("nan", f64::NAN)
            .f64_bits("inf", f64::NEG_INFINITY);
        let text = o.finish();
        let mut r = Reader::new(&text);
        r.object().unwrap();
        r.field("nan").unwrap();
        assert!(r.f64_bits().unwrap().is_nan());
        r.field("inf").unwrap();
        assert_eq!(r.f64_bits(), Ok(f64::NEG_INFINITY));
        r.object_end().unwrap();
        r.end().unwrap();
        for bad in [
            "\"3ff\"",
            "\"+ff0000000000000\"",
            "\"3ff000000000000g\"",
            "1",
        ] {
            JsonValue::parse(bad).unwrap_or_else(|e| panic!("{bad} is JSON: {e}"));
            assert!(Reader::new(bad).f64_bits().is_err(), "{bad}");
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

    /// Integers at the edges of every range the codec keeps exact.
    const EXTREME_INTS: [i128; 9] = [
        0,
        -1,
        i64::MIN as i128,
        i64::MAX as i128,
        u64::MAX as i128,
        u64::MAX as i128 + 1,
        i64::MIN as i128 - 1,
        i128::MIN,
        i128::MAX,
    ];

    /// A float the decimal spelling keeps a float: `-0.0`, subnormals, or
    /// any finite value with a fraction. (An integral float is written
    /// without a fraction, so it reads back as an integer.)
    fn fractional_float(rng: &mut Rng) -> f64 {
        match rng.below(4) {
            0 => -0.0,
            1 => f64::from_bits(1 + rng.below(1 << 52)),
            2 => -f64::from_bits(1 + rng.below(1 << 52)),
            _ => loop {
                let x = f64::from_bits(rng.next());
                if x.is_finite() && x.fract() != 0.0 {
                    break x;
                }
            },
        }
    }

    /// A random tree at most `depth` containers deep.
    fn arb_tree(rng: &mut Rng, depth: usize) -> JsonValue {
        if depth == 0 || rng.below(3) == 0 {
            return match rng.below(6) {
                0 => JsonValue::Null,
                1 => JsonValue::Bool(rng.below(2) == 1),
                2 => JsonValue::Int(match rng.below(2) {
                    0 => EXTREME_INTS[rng.below(EXTREME_INTS.len() as u64) as usize],
                    _ => i128::from(rng.next() as i64),
                }),
                3 => JsonValue::Num(fractional_float(rng)),
                _ => JsonValue::Str(awkward_string(rng)),
            };
        }
        let len = rng.below(4);
        if rng.below(2) == 0 {
            JsonValue::Arr((0..len).map(|_| arb_tree(rng, depth - 1)).collect())
        } else {
            JsonValue::Obj(
                (0..len)
                    .map(|_| (awkward_string(rng), arb_tree(rng, depth - 1)))
                    .collect(),
            )
        }
    }

    /// `inner` wrapped in `levels` random one-item containers.
    fn nest(rng: &mut Rng, inner: JsonValue, levels: usize) -> JsonValue {
        (0..levels).fold(inner, |v, _| match rng.below(2) {
            0 => JsonValue::Arr(vec![v]),
            _ => JsonValue::Obj(vec![(awkward_string(rng), v)]),
        })
    }

    /// How deep the deepest value sits; the root is at depth 0.
    fn depth(v: &JsonValue) -> usize {
        match v {
            JsonValue::Arr(items) => items.iter().map(|x| 1 + depth(x)).max().unwrap_or(0),
            JsonValue::Obj(fields) => fields.iter().map(|(_, x)| 1 + depth(x)).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// A string literal whose characters take every spelling the grammar
    /// allows: raw, a short escape (`\"`, `\\`, `\/`, `\b`, `\f`, `\n`,
    /// `\r`, `\t`), or a `\u` escape for a character of the BMP.
    fn loud_literal(rng: &mut Rng, s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            let raw_ok = c != '"' && c != '\\' && c >= ' ';
            match (rng.below(3), short) {
                (0, _) if raw_ok => out.push(c),
                (1, Some(e)) => out.push_str(e),
                _ if (c as u32) < 0x1_0000 => {
                    let _ = write!(out, "\\u{:04X}", c as u32);
                }
                (_, Some(e)) => out.push_str(e),
                _ => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// The document for `v`: objects through [`JsonObj`] and strings
    /// through [`escape`], or (`loud`) every string spelled by
    /// [`loud_literal`].
    fn emit(rng: &mut Rng, v: &JsonValue, loud: bool) -> String {
        let string = |rng: &mut Rng, s: &str| {
            if loud {
                loud_literal(rng, s)
            } else {
                format!("\"{}\"", escape(s))
            }
        };
        match v {
            JsonValue::Null => "null".into(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Int(i) => i.to_string(),
            JsonValue::Num(n) => format!("{n}"),
            JsonValue::Str(s) => string(rng, s),
            JsonValue::Arr(items) => {
                array(items.iter().map(|x| emit(rng, x, loud)).collect::<Vec<_>>())
            }
            JsonValue::Obj(fields) if loud => format!(
                "{{{}}}",
                fields
                    .iter()
                    .map(|(k, x)| format!("{}:{}", string(rng, k), emit(rng, x, loud)))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            JsonValue::Obj(fields) => {
                let mut o = JsonObj::new();
                for (k, x) in fields {
                    o.raw(k, &emit(rng, x, loud));
                }
                o.finish()
            }
        }
    }

    /// Random trees survive emission and parsing unchanged (compared
    /// through `Debug`, which tells `-0.0` from `0.0`); a tree nested past
    /// the cap is refused with the cap's message; and every strict prefix
    /// of a container document is an error, never a panic.
    #[test]
    fn random_trees_round_trip_and_their_prefixes_fail() {
        let mut rng = Rng(0x7ee5);
        for case in 0..400 {
            let tree = match case % 4 {
                // Nested to the cap, or one past it.
                3 => {
                    let inner = arb_tree(&mut rng, 1);
                    let levels = MAX_DEPTH + rng.below(2) as usize - depth(&inner);
                    nest(&mut rng, inner, levels)
                }
                _ => arb_tree(&mut rng, 3),
            };
            let loud = case % 2 == 1;
            let text = emit(&mut rng, &tree, loud);
            match JsonValue::parse(&text) {
                Ok(back) => {
                    assert!(depth(&tree) <= MAX_DEPTH, "accepted depth {}", depth(&tree));
                    assert_eq!(format!("{back:?}"), format!("{tree:?}"), "{text}");
                }
                Err(e) => {
                    assert!(depth(&tree) > MAX_DEPTH, "{text}: {e}");
                    assert_eq!(e, format!("nesting deeper than {MAX_DEPTH}"));
                    continue;
                }
            }
            if matches!(tree, JsonValue::Arr(_) | JsonValue::Obj(_)) {
                for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                    assert!(
                        JsonValue::parse(&text[..cut]).is_err(),
                        "accepted the prefix {:?}",
                        &text[..cut]
                    );
                }
            }
        }
    }
}

//! Workspace-local stand-in for the subset of `serde_json` that firesim-rs
//! uses: the dynamically-typed [`Value`] tree, the [`json!`] macro for
//! scalars/arrays, a strict JSON parser ([`from_str`]), and compact/pretty
//! serialisers.
//!
//! The build environment is offline, so the real crate (and serde's derive
//! machinery) cannot be fetched. Result records in `firesim-manager`
//! convert to and from `Value` explicitly instead of deriving.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON number: integer when possible, float otherwise.
///
/// Equality is value-based across representations (`8`, `8u64`, and `8.0`
/// all compare equal), matching how the result tables treat numbers.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Unsigned integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl Number {
    /// The value as `f64` (lossy for huge integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(v) => v as f64,
            Number::I(v) => v as f64,
            Number::F(v) => v,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(v) => Some(v),
            Number::I(v) => u64::try_from(v).ok(),
            Number::F(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            Number::F(_) => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(v) => i64::try_from(v).ok(),
            Number::I(v) => Some(v),
            Number::F(v)
                if v.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&v) =>
            {
                Some(v as i64)
            }
            Number::F(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => a == b,
            _ => match (self.as_u64(), other.as_u64()) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_f64() == other.as_f64(),
            },
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::U(v) => write!(f, "{v}"),
            Number::I(v) => write!(f, "{v}"),
            Number::F(v) => {
                if v.is_finite() {
                    write!(f, "{v}")
                } else {
                    // JSON has no Inf/NaN; serialise as null like serde_json.
                    write!(f, "null")
                }
            }
        }
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with sorted keys.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map, if an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member lookup; `Value::Null` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Serialises compactly.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * depth {
            out.push(' ');
        }
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

// ---------------------------------------------------------------------
// Conversions into Value
// ---------------------------------------------------------------------

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::U(v as u64)) }
        }
    )*};
}
macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                if v >= 0 { Value::Number(Number::U(v as u64)) }
                else { Value::Number(Number::I(v as i64)) }
            }
        }
    )*};
}
from_unsigned!(u8, u16, u32, u64, usize);
from_signed!(i8, i16, i32, i64, isize);

// References to scalars convert too (the real json! macro accepts any
// Serialize value, which includes references).
macro_rules! from_scalar_ref {
    ($($t:ty),*) => {$(
        impl From<&$t> for Value {
            fn from(v: &$t) -> Value { Value::from(*v) }
        }
    )*};
}
from_scalar_ref!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64, bool);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::F(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

// ---------------------------------------------------------------------
// Comparisons against plain Rust values (assert_eq! ergonomics)
// ---------------------------------------------------------------------

macro_rules! eq_num {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                matches!(self, Value::Number(n) if *n == Number::from_prim(*other))
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool { other == self }
        }
        impl PartialEq<$t> for &Value {
            fn eq(&self, other: &$t) -> bool { **self == *other }
        }
    )*};
}
eq_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

impl Number {
    fn from_prim<T: Into<Value>>(v: T) -> Number {
        match v.into() {
            Value::Number(n) => n,
            _ => unreachable!("numeric primitive"),
        }
    }
}

// ---------------------------------------------------------------------
// json! macro
// ---------------------------------------------------------------------

/// Builds a [`Value`] from a scalar expression or `[..]` array literal.
///
/// Object-literal syntax is intentionally unsupported; build a
/// `BTreeMap<String, Value>` and convert instead.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($elem) ),* ])
    };
    ($other:expr) => {
        $crate::Value::from($other)
    };
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// A JSON parse error with byte position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    pos: usize,
}

impl Error {
    /// Builds an error with a caller-supplied message (used for
    /// shape/type mismatches discovered after parsing).
    pub fn custom(msg: impl Into<String>) -> Self {
        Error {
            msg: msg.into(),
            pos: 0,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for Error {}

/// How deeply arrays and objects may nest, as in the real `serde_json`:
/// the parser recurses once per level, and inbound lines (the `simd`
/// ingest feed) must not be able to overflow the stack.
const RECURSION_LIMIT: usize = 128;

/// Parses a complete JSON document into a [`Value`].
///
/// # Errors
///
/// Returns [`Error`] on malformed input, trailing characters, or nesting
/// deeper than 128 arrays/objects.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error {
            msg: msg.to_owned(),
            pos: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == RECURSION_LIMIT {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
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
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // reject them rather than mis-decode.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported surrogate escape"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the source slice.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = s.chars().next().ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Number(Number::F(v)))
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, v) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("42", json!(42)),
            ("-7", json!(-7i64)),
            ("2.5", json!(2.5)),
            ("\"hi\\n\"", json!("hi\n")),
        ] {
            assert_eq!(from_str(text).unwrap(), v, "{text}");
            assert_eq!(from_str(&v.to_string_compact()).unwrap(), v);
        }
    }

    #[test]
    fn nested_round_trip() {
        let mut obj = BTreeMap::new();
        obj.insert("a".to_owned(), json!([1, 2, 3]));
        obj.insert("b".to_owned(), json!("x"));
        obj.insert("c".to_owned(), Value::Object(BTreeMap::new()));
        let v = Value::Object(obj);
        assert_eq!(from_str(&v.to_string_pretty()).unwrap(), v);
        assert_eq!(from_str(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn cross_representation_number_eq() {
        assert_eq!(json!(8), json!(8.0));
        assert_eq!(json!(8u64), 8);
        assert_ne!(json!(8), json!(9));
        assert_eq!(json!(-3i64), -3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str("{").is_err());
        assert!(from_str("12 34").is_err());
        assert!(from_str("'single'").is_err());
    }

    #[test]
    fn nesting_is_limited_not_a_stack_overflow() {
        // Run on a small stack: without the limit, 10 000 levels overflow
        // it and abort the whole process.
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                for open in ["[", r#"{"a":"#] {
                    let err = from_str(&open.repeat(10_000)).unwrap_err();
                    assert!(err.to_string().contains("recursion limit"), "{err}");
                }
                let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
                assert!(from_str(&deep(RECURSION_LIMIT)).is_ok());
                assert!(from_str(&deep(RECURSION_LIMIT + 1)).is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }
}

//! Offline stand-in for `serde`.
//!
//! The sandbox cannot fetch crates.io, so churnlab ships a minimal
//! serde-compatible facade: the same `use serde::{Serialize, Deserialize}`
//! imports and `#[derive(...)]` attributes work, without serde's visitor
//! machinery. Typed data goes straight to text — [`Serialize`] appends
//! compact JSON to a `String` — while [`Value`] is the parse model that
//! [`Deserialize`] reads and `json!` builds. `serde_json` (also shimmed)
//! wraps both directions.
//!
//! Determinism guarantees (the scenario-matrix and determinism tests rely
//! on these):
//!
//! * struct fields serialize in declaration order;
//! * `HashMap`/`HashSet` entries are sorted by their encoded key, so the
//!   same data always produces byte-identical text.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

/// A parsed JSON value: the read model of this shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer (non-negatives use [`Value::U64`]).
    I64(i64),
    /// A non-negative integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as an object's entry list.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::I64(v) => Some(v as f64),
            Value::U64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view as u64.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) if v >= 0 => Some(v as u64),
            Value::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// Numeric view as i64.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(v) => Some(v),
            Value::U64(v) if v <= i64::MAX as u64 => Some(v as i64),
            Value::F64(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 => {
                Some(v as i64)
            }
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// True when `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| get_field(o, key))
    }
}

/// Look up a field in an object entry list (helper for derived code).
pub fn get_field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

// ---------------------------------------------------------------------------
// Error
// ---------------------------------------------------------------------------

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Build from any displayable message.
    pub fn custom(msg: impl std::fmt::Display) -> Error {
        Error(msg.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------------
// Traits
// ---------------------------------------------------------------------------

/// Write a value as JSON text.
pub trait Serialize {
    /// Append this value's compact JSON text to `out`.
    fn serialize(&self, out: &mut String);
}

/// Rebuild a value from the JSON data model.
pub trait Deserialize: Sized {
    /// Parse from a JSON value.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

/// The [`Value`] that `x`'s JSON text parses to — by construction, the
/// bytes `x` serializes to. `json!` builds its non-literal members this
/// way. Fails only on text nested deeper than the parser allows.
pub fn to_value<T: Serialize + ?Sized>(x: &T) -> Result<Value, Error> {
    text::parse(&encode(x))
}

/// `x`'s JSON text in a fresh `String`.
fn encode<T: Serialize + ?Sized>(x: &T) -> String {
    let mut out = String::new();
    x.serialize(&mut out);
    out
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! ser_de_int {
    ($view:ident: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n = v.$view().ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| Error::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}
ser_de_int!(as_u64: u8, u16, u32, u64, usize);
ser_de_int!(as_i64: i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, out: &mut String) {
        if !self.is_finite() {
            // serde_json renders non-finite floats as null.
            out.push_str("null");
            return;
        }
        let start = out.len();
        let _ = write!(out, "{self}");
        // Keep a float marker so the value re-parses as F64.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}
impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected f64"))
    }
}
impl Serialize for f32 {
    fn serialize(&self, out: &mut String) {
        f64::from(*self).serialize(out)
    }
}
impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64().map(|x| x as f32).ok_or_else(|| Error::custom("expected f32"))
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" })
    }
}
impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected bool"))
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut String) {
        self.encode_utf8(&mut [0; 4]).serialize(out)
    }
}
impl Deserialize for char {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::custom("expected char"))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}
impl Serialize for String {
    fn serialize(&self, out: &mut String) {
        self.as_str().serialize(out)
    }
}
impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_string).ok_or_else(|| Error::custom("expected string"))
    }
}
impl Deserialize for &'static str {
    /// Deserializing into `&'static str` leaks the parsed string. Config
    /// types with static template names rely on this; the leak is bounded
    /// by config size.
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::custom("expected string"))?;
        Ok(Box::leak(s.to_string().into_boxed_str()))
    }
}

impl Serialize for Value {
    fn serialize(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.serialize(out),
            Value::I64(n) => n.serialize(out),
            Value::U64(n) => n.serialize(out),
            Value::F64(n) => n.serialize(out),
            Value::Str(s) => s.serialize(out),
            Value::Array(a) => a.serialize(out),
            Value::Object(o) => write_list(out, '{', o, '}', |(k, x), out| {
                k.serialize(out);
                out.push(':');
                x.serialize(out);
            }),
        }
    }
}
impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

macro_rules! ser_forward {
    ($($wrapper:ty),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $wrapper {
            fn serialize(&self, out: &mut String) {
                (**self).serialize(out)
            }
        }
    )*};
}
ser_forward!(&T, Box<T>, std::sync::Arc<T>);

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(Box::new)
    }
}
impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            Some(x) => x.serialize(out),
            None => out.push_str("null"),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

/// `open`, each of `items` written by `write` with commas between, `close`.
fn write_list<I>(
    out: &mut String,
    open: char,
    items: impl IntoIterator<Item = I>,
    close: char,
    mut write: impl FnMut(I, &mut String),
) {
    out.push(open);
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(x, out);
    }
    out.push(close);
}

/// A JSON array of `items`.
fn write_seq<'a, T: Serialize + ?Sized + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    write_list(out, '[', items, ']', |x, out| x.serialize(out))
}

macro_rules! ser_seq {
    ($([$($generics:tt)*] $seq:ty),*) => {$(
        impl<$($generics)*> Serialize for $seq {
            fn serialize(&self, out: &mut String) {
                write_seq(self, out)
            }
        }
    )*};
}
ser_seq!(
    [T: Serialize] [T],
    [T: Serialize] Vec<T>,
    [T: Serialize, const N: usize] [T; N],
    [T: Serialize] BTreeSet<T>
);

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize(v)?;
        items.try_into().map_err(|_| Error::custom("wrong array length"))
    }
}

macro_rules! ser_de_tuple {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, out: &mut String) {
                write_seq([$(&self.$idx as &dyn Serialize),+], out)
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let a = v.as_array().ok_or_else(|| Error::custom("expected tuple array"))?;
                let expected = [$($idx),+].len();
                if a.len() != expected {
                    return Err(Error::custom("wrong tuple arity"));
                }
                Ok(($($t::deserialize(&a[$idx])?,)+))
            }
        }
    )*};
}
ser_de_tuple!(
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10, L.11)
);

/// A map of `(encoded key, value)` entries, in the order given: an object
/// when every key encodes to a JSON string, and an array of `[key, value]`
/// pairs otherwise (roundtrips any key type).
fn write_map<V: Serialize>(entries: &[(String, &V)], out: &mut String) {
    if entries.iter().all(|(k, _)| k.starts_with('"')) {
        write_list(out, '{', entries, '}', |(k, v), out| {
            out.push_str(k);
            out.push(':');
            v.serialize(out);
        })
    } else {
        write_list(out, '[', entries, ']', |(k, v), out| {
            out.push('[');
            out.push_str(k);
            out.push(',');
            v.serialize(out);
            out.push(']');
        })
    }
}

fn deserialize_map<K: Deserialize, V: Deserialize>(v: &Value) -> Result<Vec<(K, V)>, Error> {
    match v {
        Value::Object(o) => o
            .iter()
            .map(|(k, val)| Ok((K::deserialize(&Value::Str(k.clone()))?, V::deserialize(val)?)))
            .collect(),
        Value::Array(a) => a
            .iter()
            .map(|pair| {
                let p = pair.as_array().ok_or_else(|| Error::custom("expected [key, value]"))?;
                if p.len() != 2 {
                    return Err(Error::custom("expected [key, value]"));
                }
                Ok((K::deserialize(&p[0])?, V::deserialize(&p[1])?))
            })
            .collect(),
        _ => Err(Error::custom("expected map")),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut String) {
        let entries: Vec<(String, &V)> = self.iter().map(|(k, v)| (encode(k), v)).collect();
        write_map(&entries, out)
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(deserialize_map(v)?.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, out: &mut String) {
        // Sort by encoded key for deterministic output.
        let mut entries: Vec<(String, &V)> = self.iter().map(|(k, v)| (encode(k), v)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        write_map(&entries, out)
    }
}
impl<K: Deserialize + Eq + std::hash::Hash, V: Deserialize, S> Deserialize for HashMap<K, V, S>
where
    S: std::hash::BuildHasher + Default,
{
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(deserialize_map(v)?.into_iter().collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::deserialize(v)?.into_iter().collect())
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn serialize(&self, out: &mut String) {
        let mut items: Vec<String> = self.iter().map(encode).collect();
        items.sort();
        write_list(out, '[', &items, ']', |x, out| out.push_str(x))
    }
}
impl<T: Deserialize + Eq + std::hash::Hash, S> Deserialize for HashSet<T, S>
where
    S: std::hash::BuildHasher + Default,
{
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::deserialize(v)?.into_iter().collect())
    }
}

// ---------------------------------------------------------------------------
// Text parsing (shared with the serde_json shim)
// ---------------------------------------------------------------------------

/// JSON text parsing into [`Value`].
pub mod text {
    use super::{Error, Value};

    /// How deeply arrays and objects may nest (serde_json's default
    /// recursion limit): the parser recurses once per level, so a hostile
    /// line of brackets must fail as an error, not overflow the stack.
    pub(crate) const MAX_DEPTH: usize = 128;

    /// Parse JSON text into a [`Value`].
    pub fn parse(input: &str) -> Result<Value, Error> {
        let bytes = input.as_bytes();
        let mut p = Parser { bytes, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(Error::custom("trailing characters after JSON value"));
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
        fn err(&self, msg: &str) -> Error {
            Error::custom(format!("{msg} at byte {}", self.pos))
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
                Err(self.err(&format!("expected `{}`", b as char)))
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(self.err("invalid literal"))
            }
        }

        fn value(&mut self) -> Result<Value, Error> {
            match self.peek() {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(open @ (b'[' | b'{')) => {
                    if self.depth == MAX_DEPTH {
                        return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
                    }
                    self.depth += 1;
                    let v = if open == b'[' { self.array() } else { self.object() };
                    self.depth -= 1;
                    v
                }
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(self.err("unexpected character")),
            }
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
                    _ => return Err(self.err("expected `,` or `]`")),
                }
            }
        }

        fn object(&mut self) -> Result<Value, Error> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                entries.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(self.err("expected `,` or `}`")),
                }
            }
        }

        fn string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut s = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(s);
                    }
                    Some(b'\\') => {
                        let escape = self.bytes.get(self.pos + 1).copied();
                        self.pos += 2;
                        s.push(match escape {
                            Some(b'"') => '"',
                            Some(b'\\') => '\\',
                            Some(b'/') => '/',
                            Some(b'n') => '\n',
                            Some(b'r') => '\r',
                            Some(b't') => '\t',
                            Some(b'b') => '\u{08}',
                            Some(b'f') => '\u{0C}',
                            Some(b'u') => self.unicode_escape()?,
                            _ => return Err(self.err("bad escape")),
                        });
                    }
                    Some(_) => {
                        // Bulk-copy up to the next quote or escape; the
                        // input is a &str, so these ASCII boundaries are
                        // always valid split points.
                        let start = self.pos;
                        while let Some(c) = self.peek() {
                            if c == b'"' || c == b'\\' {
                                break;
                            }
                            self.pos += 1;
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?;
                        s.push_str(chunk);
                    }
                }
            }
        }

        /// The character a `\u` escape names, its digits starting at
        /// `pos`. A high surrogate followed by an escaped low one decodes
        /// as the pair; any surrogate left unpaired is an error.
        fn unicode_escape(&mut self) -> Result<char, Error> {
            let mut code = self.hex4()?;
            if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
            }
            // An unpaired surrogate is the one code `from_u32` refuses.
            char::from_u32(code).ok_or_else(|| self.err("lone surrogate in \\u escape"))
        }

        /// Exactly four ASCII hex digits at `pos`, as a number.
        fn hex4(&mut self) -> Result<u32, Error> {
            let digits = self.bytes.get(self.pos..self.pos + 4).filter(|d| d.iter().all(u8::is_ascii_hexdigit));
            let digits = digits.ok_or_else(|| self.err("bad \\u escape"))?;
            self.pos += 4;
            Ok(digits.iter().fold(0, |n, &d| n * 16 + char::from(d).to_digit(16).unwrap_or(0)))
        }

        fn number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let mut is_float = false;
            while let Some(c) = self.peek() {
                match c {
                    b'0'..=b'9' => self.pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        is_float = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("bad number"))?;
            if !is_float {
                if let Ok(u) = text.parse::<u64>() {
                    return Ok(Value::U64(u));
                }
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::I64(i));
                }
            }
            text.parse::<f64>().map(Value::F64).map_err(|_| self.err("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x`'s text, and the [`Value`] that text parses back to.
    fn text_and_value(x: &impl Serialize) -> (String, Value) {
        (encode(x), to_value(x).unwrap())
    }

    #[test]
    fn primitives_roundtrip() {
        for v in [Value::Null, Value::Bool(true), Value::U64(42), Value::I64(-7)] {
            assert_eq!(text_and_value(&v).1, v);
        }
    }

    #[test]
    fn float_roundtrip_keeps_f64() {
        let v = Value::F64(3.0);
        assert_eq!(text_and_value(&v), ("3.0".to_string(), v));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\u{1}é".to_string());
        assert_eq!(text_and_value(&v).1, v);
    }

    #[test]
    fn nested_roundtrip() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::U64(1), Value::Null])),
            ("b".into(), Value::Object(vec![("c".into(), Value::Bool(false))])),
        ]);
        assert_eq!(text_and_value(&v), (r#"{"a":[1,null],"b":{"c":false}}"#.to_string(), v));
    }

    #[test]
    fn option_and_map_impls() {
        let m: std::collections::BTreeMap<u32, String> =
            [(1, "x".to_string()), (2, "y".to_string())].into_iter().collect();
        let back: std::collections::BTreeMap<u32, String> =
            Deserialize::deserialize(&to_value(&m).unwrap()).unwrap();
        assert_eq!(back, m);
        assert_eq!(Option::<u32>::deserialize(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::deserialize(&Value::U64(3)).unwrap(), Some(3));
    }

    #[test]
    fn arc_is_transparent() {
        let plain = vec![(7u32, "x".to_string()), (9, "y".to_string())];
        let shared: Vec<std::sync::Arc<(u32, String)>> =
            plain.iter().cloned().map(std::sync::Arc::new).collect();
        assert_eq!(encode(&shared), encode(&plain), "an Arc<T> serializes to the bytes of T");
        let back: Vec<std::sync::Arc<(u32, String)>> =
            Deserialize::deserialize(&to_value(&shared).unwrap()).unwrap();
        assert_eq!(back, shared);
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        assert_eq!(text::parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("😀".to_string()));
        assert_eq!(text::parse(r#""a\ud83d\ude00b""#).unwrap(), Value::Str("a😀b".to_string()));
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for lone in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83dA""#, r#""\ude00""#, r#""\ude00\ud83d""#] {
            let err = text::parse(lone).unwrap_err().to_string();
            assert!(err.contains("lone surrogate"), "{lone}: {err}");
        }
    }

    #[test]
    fn u_escapes_take_exactly_four_hex_digits() {
        assert_eq!(text::parse(r#""\u0041\u00e9""#).unwrap(), Value::Str("Aé".to_string()));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#, r#""\u04g1""#] {
            let err = text::parse(bad).unwrap_err().to_string();
            assert!(err.contains("bad \\u escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn nesting_is_capped_with_an_error_naming_the_byte() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(text::parse(&deep(text::MAX_DEPTH)).is_ok());
        let err = text::parse(&deep(text::MAX_DEPTH + 1)).unwrap_err().to_string();
        assert_eq!(err, format!("nesting deeper than 128 at byte {}", text::MAX_DEPTH));
        let objects = format!("{}1{}", r#"{"a":"#.repeat(200_000), "}".repeat(200_000));
        assert!(text::parse(&objects).unwrap_err().to_string().starts_with("nesting deeper"));
        assert!(text::parse(&"[".repeat(200_000)).is_err());
    }
}

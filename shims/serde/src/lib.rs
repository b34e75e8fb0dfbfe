//! Offline stand-in for `serde`.
//!
//! The sandbox cannot fetch crates.io, so churnlab ships a minimal
//! serde-compatible facade: the same `use serde::{Serialize, Deserialize}`
//! imports and `#[derive(...)]` attributes work, but the data model is a
//! single concrete JSON [`Value`] instead of serde's visitor machinery.
//! `serde_json` (also shimmed) renders and parses that `Value`.
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

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

/// A JSON value: the entire serde data model of this shim.
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

/// Convert a value into the JSON data model.
pub trait Serialize {
    /// Produce the JSON representation.
    fn serialize(&self) -> Value;
}

/// Rebuild a value from the JSON data model.
pub trait Deserialize: Sized {
    /// Parse from a JSON value.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| Error::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}
ser_de_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| Error::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}
ser_de_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::F64(*self)
    }
}
impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected f64"))
    }
}
impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}
impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64().map(|x| x as f32).ok_or_else(|| Error::custom("expected f32"))
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected bool"))
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
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

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_string).ok_or_else(|| Error::custom("expected string"))
    }
}
impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
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

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
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

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(x) => x.serialize(),
            None => Value::Null,
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

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
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
            fn serialize(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize()),+])
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

/// Maps serialize as an object when every key encodes to a string, and as
/// an array of `[key, value]` pairs otherwise (roundtrips any key type).
fn serialize_map<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    let pairs: Vec<(Value, Value)> =
        entries.map(|(k, v)| (k.serialize(), v.serialize())).collect();
    if pairs.iter().all(|(k, _)| matches!(k, Value::Str(_))) {
        Value::Object(
            pairs
                .into_iter()
                .map(|(k, v)| match k {
                    Value::Str(s) => (s, v),
                    _ => unreachable!(),
                })
                .collect(),
        )
    } else {
        Value::Array(pairs.into_iter().map(|(k, v)| Value::Array(vec![k, v])).collect())
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
    fn serialize(&self) -> Value {
        serialize_map(self.iter())
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(deserialize_map(v)?.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self) -> Value {
        // Sort by encoded key for deterministic output.
        let mut pairs: Vec<(Value, Value)> =
            self.iter().map(|(k, v)| (k.serialize(), v.serialize())).collect();
        pairs.sort_by_key(|(a, _)| crate::text::encode_compact(a));
        if pairs.iter().all(|(k, _)| matches!(k, Value::Str(_))) {
            Value::Object(
                pairs
                    .into_iter()
                    .map(|(k, v)| match k {
                        Value::Str(s) => (s, v),
                        _ => unreachable!(),
                    })
                    .collect(),
            )
        } else {
            Value::Array(pairs.into_iter().map(|(k, v)| Value::Array(vec![k, v])).collect())
        }
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

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}
impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::deserialize(v)?.into_iter().collect())
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn serialize(&self) -> Value {
        let mut items: Vec<Value> = self.iter().map(Serialize::serialize).collect();
        items.sort_by_key(crate::text::encode_compact);
        Value::Array(items)
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

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}
impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(std::sync::Arc::new)
    }
}

// ---------------------------------------------------------------------------
// Text encoding (shared with the serde_json shim)
// ---------------------------------------------------------------------------

/// JSON text rendering and parsing over [`Value`].
pub mod text {
    use super::Value;

    fn escape_into(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn number_to_string(v: f64) -> String {
        if !v.is_finite() {
            // serde_json renders non-finite floats as null.
            return "null".to_string();
        }
        let s = format!("{v}");
        // Keep a float marker so the value re-parses as F64.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    }

    fn write_compact(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::F64(n) => out.push_str(&number_to_string(*n)),
            Value::Str(s) => escape_into(s, out),
            Value::Array(a) => {
                out.push('[');
                for (i, x) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_compact(x, out);
                }
                out.push(']');
            }
            Value::Object(o) => {
                out.push('{');
                for (i, (k, x)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    write_compact(x, out);
                }
                out.push('}');
            }
        }
    }

    /// Compact (single-line) JSON text.
    pub fn encode_compact(v: &Value) -> String {
        let mut s = String::new();
        write_compact(v, &mut s);
        s
    }

    fn write_pretty(v: &Value, indent: usize, out: &mut String) {
        match v {
            Value::Array(a) if !a.is_empty() => {
                out.push_str("[\n");
                for (i, x) in a.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    write_pretty(x, indent + 1, out);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Object(o) if !o.is_empty() => {
                out.push_str("{\n");
                for (i, (k, x)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    escape_into(k, out);
                    out.push_str(": ");
                    write_pretty(x, indent + 1, out);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => write_compact(other, out),
        }
    }

    /// Pretty (2-space indented) JSON text.
    pub fn encode_pretty(v: &Value) -> String {
        let mut s = String::new();
        write_pretty(v, 0, &mut s);
        s
    }

    /// Parse JSON text into a [`Value`].
    pub fn parse(input: &str) -> Result<Value, super::Error> {
        let bytes = input.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(super::Error::custom("trailing characters after JSON value"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn err(&self, msg: &str) -> super::Error {
            super::Error::custom(format!("{msg} at byte {}", self.pos))
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), super::Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected `{}`", b as char)))
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, super::Error> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(self.err("invalid literal"))
            }
        }

        fn value(&mut self) -> Result<Value, super::Error> {
            match self.peek() {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(self.err("unexpected character")),
            }
        }

        fn array(&mut self) -> Result<Value, super::Error> {
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

        fn object(&mut self) -> Result<Value, super::Error> {
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

        fn string(&mut self) -> Result<String, super::Error> {
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
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{08}'),
                            Some(b'f') => s.push('\u{0C}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                // Surrogate pairs: only BMP escapes are
                                // produced by our encoder; reject others.
                                let c = char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?;
                                s.push(c);
                                self.pos += 4;
                            }
                            _ => return Err(self.err("bad escape")),
                        }
                        self.pos += 1;
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

        fn number(&mut self) -> Result<Value, super::Error> {
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

    #[test]
    fn primitives_roundtrip() {
        for v in [Value::Null, Value::Bool(true), Value::U64(42), Value::I64(-7)] {
            let text = text::encode_compact(&v);
            assert_eq!(text::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn float_roundtrip_keeps_f64() {
        let v = Value::F64(3.0);
        let text = text::encode_compact(&v);
        assert_eq!(text, "3.0");
        assert_eq!(text::parse(&text).unwrap(), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\u{1}é".to_string());
        let text = text::encode_compact(&v);
        assert_eq!(text::parse(&text).unwrap(), v);
    }

    #[test]
    fn nested_roundtrip() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::U64(1), Value::Null])),
            ("b".into(), Value::Object(vec![("c".into(), Value::Bool(false))])),
        ]);
        let text = text::encode_compact(&v);
        assert_eq!(text::parse(&text).unwrap(), v);
        let pretty = text::encode_pretty(&v);
        assert_eq!(text::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn option_and_map_impls() {
        let m: std::collections::BTreeMap<u32, String> =
            [(1, "x".to_string()), (2, "y".to_string())].into_iter().collect();
        let v = m.serialize();
        let back: std::collections::BTreeMap<u32, String> = Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, m);
        assert_eq!(Option::<u32>::deserialize(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::deserialize(&Value::U64(3)).unwrap(), Some(3));
    }

    #[test]
    fn arc_is_transparent() {
        let plain = vec![(7u32, "x".to_string()), (9, "y".to_string())];
        let shared: Vec<std::sync::Arc<(u32, String)>> =
            plain.iter().cloned().map(std::sync::Arc::new).collect();
        let v = shared.serialize();
        assert_eq!(
            text::encode_compact(&v),
            text::encode_compact(&plain.serialize()),
            "an Arc<T> serializes to the bytes of T"
        );
        let back: Vec<std::sync::Arc<(u32, String)>> = Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, shared);
    }
}

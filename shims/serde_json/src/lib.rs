//! Offline stand-in for `serde_json`, backed by the local `serde` shim's
//! concrete [`Value`] model.
//!
//! Output is deterministic: struct fields keep declaration order and hash
//! containers are sorted during serialization (see the serde shim), so
//! `to_string` on equal data is byte-identical — the property the
//! determinism suite asserts.

#![forbid(unsafe_code)]

pub use serde::Value;
pub use serde_derive::json;

/// Error alias (the shim shares `serde`'s error type).
pub type Error = serde::Error;

/// Result alias matching serde_json's.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(serde::text::encode_compact(&value.serialize()))
}

/// Convert any serializable value into a [`Value`].
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.serialize())
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let v = serde::text::parse(s)?;
    T::deserialize(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_shapes() {
        let rows = vec![json!({"a": 1}), json!({"a": 2})];
        let v = json!({
            "x": 1,
            "y": [1, 2, 3],
            "nested": {"z": "s", "n": null},
            "rows": rows,
            "sum": 1.0 + 2.5,
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(v.get("x").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("nested").and_then(|n| n.get("z")).and_then(Value::as_str), Some("s"));
        assert!(v.get("nested").and_then(|n| n.get("n")).unwrap().is_null());
    }

    #[test]
    fn typed_roundtrip_through_text() {
        let xs: Vec<(u32, String)> = vec![(1, "a".into()), (2, "b".into())];
        let text = to_string(&xs).unwrap();
        let back: Vec<(u32, String)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }
}

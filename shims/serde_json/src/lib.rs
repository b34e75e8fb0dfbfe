//! Offline stand-in for `serde_json` over the local `serde` shim: typed
//! data serializes straight to text, and text parses into the shim's
//! [`Value`] read model.
//!
//! Output is deterministic: struct fields keep declaration order and hash
//! containers are sorted during serialization (see the serde shim), so
//! `to_string` on equal data is byte-identical — the property the
//! determinism suite asserts.

#![forbid(unsafe_code)]

pub use serde::{to_value, Value};
pub use serde_derive::json;

/// Error alias (the shim shares `serde`'s error type).
pub type Error = serde::Error;

/// Result alias matching serde_json's.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(&mut out);
    Ok(out)
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

    /// `x` writes exactly `text`, and the [`Value`] that text parses to
    /// writes it back unchanged.
    fn pins<T: serde::Serialize + ?Sized>(x: &T, text: &str) {
        assert_eq!(to_string(x).unwrap(), text);
        assert_eq!(to_string(&to_value(x).unwrap()).unwrap(), text, "to_value moved the bytes");
    }

    /// [`pins`], and `text` reads back as `x`.
    fn pins_and_reads<T>(x: T, text: &str)
    where
        T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
    {
        pins(&x, text);
        assert_eq!(from_str::<T>(text).unwrap(), x);
    }

    mod shapes {
        use serde::{Deserialize, Serialize};

        fn is_zero(n: &u32) -> bool {
            *n == 0
        }

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub struct Unit;

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub struct Newtype(pub u32);

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub struct Pair(pub i32, pub String);

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub struct Named {
            #[serde(skip_serializing_if = "Option::is_none")]
            pub first: Option<u32>,
            pub always: u32,
            #[serde(default, skip_serializing_if = "is_zero")]
            pub last: u32,
        }

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub struct Generic<K> {
            pub key: K,
            pub keys: Vec<K>,
        }

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub enum Shape {
            Unit,
            One(u8),
            Two(u8, bool),
            Fields {
                x: i64,
                #[serde(skip_serializing_if = "Option::is_none")]
                y: Option<u8>,
            },
        }
    }

    #[test]
    fn derived_shapes_write_pinned_text() {
        use shapes::*;
        pins_and_reads(Unit, "null");
        pins_and_reads(Newtype(7), "7");
        pins_and_reads(Pair(-3, "p".into()), r#"[-3,"p"]"#);
        pins_and_reads(Named { first: None, always: 1, last: 0 }, r#"{"always":1}"#);
        pins_and_reads(Named { first: Some(2), always: 1, last: 3 }, r#"{"first":2,"always":1,"last":3}"#);
        pins_and_reads(Named { first: None, always: 1, last: 3 }, r#"{"always":1,"last":3}"#);
        pins_and_reads(Generic { key: 'k', keys: vec!['a', 'b'] }, r#"{"key":"k","keys":["a","b"]}"#);
        pins_and_reads(Shape::Unit, r#""Unit""#);
        pins_and_reads(Shape::One(7), r#"{"One":7}"#);
        pins_and_reads(Shape::Two(1, true), r#"{"Two":[1,true]}"#);
        // A variant's fields ignore `skip_serializing_if`; a struct's do not.
        pins_and_reads(Shape::Fields { x: -4, y: None }, r#"{"Fields":{"x":-4,"y":null}}"#);
        pins_and_reads(Shape::Fields { x: 4, y: Some(5) }, r#"{"Fields":{"x":4,"y":5}}"#);
        pins_and_reads(vec![Shape::Unit, Shape::One(0)], r#"["Unit",{"One":0}]"#);
    }

    #[test]
    fn numbers_write_pinned_text() {
        pins_and_reads(-7i64, "-7");
        pins_and_reads(i8::MIN, "-128");
        pins_and_reads(i64::MIN, "-9223372036854775808");
        pins_and_reads(u64::MAX, "18446744073709551615");
        pins_and_reads(3.0f64, "3.0");
        pins_and_reads(-0.0f64, "-0.0");
        pins_and_reads(1e20f64, "100000000000000000000.0");
        pins_and_reads(1e-7f64, "0.0000001");
        // An f32 is widened to f64 before it is formatted.
        pins_and_reads(0.1f32, "0.10000000149011612");
        pins(&f64::NAN, "null");
        pins(&f64::INFINITY, "null");
        pins(&[f64::NEG_INFINITY, 0.5], "[null,0.5]");
    }

    #[test]
    fn strings_write_pinned_escapes() {
        let s = "q\"b\\n\nr\rt\tb\u{8}f\u{c}\u{1}\u{1f}\u{7f}é😀";
        pins_and_reads(s.to_string(), &format!(
            r#""q\"b\\n\nr\rt\tb\bf\f{u}0001{u}001f{}é😀""#,
            '\u{7f}',
            u = "\\u"
        ));
        pins_and_reads('\n', r#""\n""#);
        pins(&std::sync::Arc::<str>::from("s"), r#""s""#);
    }

    #[test]
    fn containers_write_pinned_text() {
        use std::collections::{BTreeMap, HashMap, HashSet};
        use std::sync::Arc;
        let by_name: BTreeMap<String, u32> = [("b".into(), 2), ("a".into(), 1)].into();
        pins_and_reads(by_name, r#"{"a":1,"b":2}"#);
        let by_id: BTreeMap<u32, String> = [(2, "y".into()), (1, "x".into())].into();
        pins_and_reads(by_id, r#"[[1,"x"],[2,"y"]]"#);
        pins_and_reads(BTreeMap::<u32, u32>::new(), "{}");
        // Hash containers sort by encoded key *text*: "10" < "9".
        let hashed: HashMap<String, u8> = [("c".into(), 3), ("a".into(), 1), ("b".into(), 2)].into();
        pins_and_reads(hashed, r#"{"a":1,"b":2,"c":3}"#);
        let numbered: HashMap<u32, u8> = [(9, 2), (10, 1)].into();
        pins_and_reads(numbered, "[[10,1],[9,2]]");
        let pairs: HashMap<(u8, u8), bool> = [((3, 4), false), ((1, 2), true)].into();
        pins_and_reads(pairs, "[[[1,2],true],[[3,4],false]]");
        pins_and_reads(HashSet::from([9u32, 100, 10]), "[10,100,9]");
        pins_and_reads(HashSet::from(["b".to_string(), "a".to_string()]), r#"["a","b"]"#);
        pins_and_reads(Some(Some(3u32)), "3");
        pins_and_reads(None::<Option<u32>>, "null");
        pins(&Some(None::<u32>), "null");
        pins_and_reads(Arc::new(shapes::Newtype(1)), "1");
        pins_and_reads(vec![Arc::new((1u8, "x".to_string()))], r#"[[1,"x"]]"#);
        pins(&(1u8, "a", [true, false]), r#"[1,"a",[true,false]]"#);
        pins(&json!({"k": [1, null, {"n": -1.5}]}), r#"{"k":[1,null,{"n":-1.5}]}"#);
    }

    #[test]
    fn typed_roundtrip_through_text() {
        let xs: Vec<(u32, String)> = vec![(1, "a".into()), (2, "b".into())];
        let text = to_string(&xs).unwrap();
        let back: Vec<(u32, String)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }
}

//! Pins the exact bytes the JSON codec writes: float and integer
//! formatting, string escapes, map-key coercion, every enum variant
//! shape, and the rendering of a parsed `Value` tree. Every producer of
//! service and CLI output goes through this writer, so any change here
//! is a change to the wire format.

use dpr_telemetry::json::{self, Value};
use serde::ser::{SerializeMap, Serializer};
use serde::Serialize;
use std::collections::BTreeMap;

fn json<T: Serialize + ?Sized>(value: &T) -> String {
    json::to_string(value).expect("serializes")
}

#[derive(Serialize, PartialEq, Eq, PartialOrd, Ord)]
enum Shade {
    Plain,
    Gray(u8),
    Pair(i32, i32),
    Rgb { r: u8, g: u8, b: u8 },
}

#[derive(Serialize)]
struct Marker;

#[derive(Serialize)]
struct Meters(f64);

#[derive(Serialize)]
struct Doc {
    name: &'static str,
    shades: Vec<Shade>,
    missing: Option<u8>,
    present: Option<Meters>,
    table: BTreeMap<&'static str, Vec<u8>>,
    marker: Marker,
}

/// A map with a single `f64` key, which JSON cannot carry.
struct FloatKeyed;

impl Serialize for FloatKeyed {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(1))?;
        map.serialize_entry(&1.5f64, &0u8)?;
        map.end()
    }
}

/// Raw bytes through `serialize_bytes`.
struct Raw(&'static [u8]);

impl Serialize for Raw {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.0)
    }
}

#[test]
fn floats() {
    assert_eq!(json(&f64::NAN), "null");
    assert_eq!(json(&f64::INFINITY), "null");
    assert_eq!(json(&f64::NEG_INFINITY), "null");
    assert_eq!(json(&-0.0f64), "-0.0");
    assert_eq!(json(&0.0f64), "0.0");
    assert_eq!(json(&1.0f64), "1.0");
    assert_eq!(json(&-0.125f64), "-0.125");
    assert_eq!(json(&1e21f64), "1000000000000000000000.0");
    assert_eq!(json(&1e-7f64), "0.0000001");
    assert_eq!(json(&5e-324f64), format!("0.{}5", "0".repeat(323)));
    assert_eq!(json(&f64::MAX), format!("17976931348623157{}.0", "0".repeat(292)));
    // An f32 widens to f64 before formatting.
    assert_eq!(json(&0.1f32), "0.10000000149011612");
    assert_eq!(json(&f32::NAN), "null");
    assert_eq!(json(&[1.5f64, f64::NAN, 2.0]), "[1.5,null,2.0]");
}

#[test]
fn integers() {
    assert_eq!(json(&u64::MAX), "18446744073709551615");
    assert_eq!(json(&i64::MIN), "-9223372036854775808");
    assert_eq!(json(&i64::MAX), "9223372036854775807");
    assert_eq!(json(&0u8), "0");
    assert_eq!(json(&-1i8), "-1");
    assert_eq!(json(&u32::MAX), "4294967295");
    assert_eq!(json(&i16::MIN), "-32768");
    assert_eq!(json(&usize::MAX), u64::MAX.to_string());
}

#[test]
fn strings() {
    assert_eq!(json("plain"), r#""plain""#);
    assert_eq!(json(""), r#""""#);
    assert_eq!(json("say \"hi\""), r#""say \"hi\"""#);
    assert_eq!(json("back\\slash"), r#""back\\slash""#);
    assert_eq!(json("a\nb\rc\td"), r#""a\nb\rc\td""#);
    assert_eq!(
        json("\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}"),
        r#""\u0000\u0001\u0008\u000b\u000c\u001f""#
    );
    // Slash, DEL and everything from U+0080 up pass through unescaped.
    assert_eq!(json("/\u{7f}"), "\"/\u{7f}\"");
    assert_eq!(json("Öl 90 °C √ 🚗"), "\"Öl 90 °C √ 🚗\"");
    assert_eq!(json(&'q'), r#""q""#);
    assert_eq!(json(&'"'), r#""\"""#);
    assert_eq!(json(&String::from("owned")), r#""owned""#);
}

#[test]
fn map_keys() {
    let ints: BTreeMap<i64, u8> = [(-5, 1), (7, 2)].into_iter().collect();
    assert_eq!(json(&ints), r#"{"-5":1,"7":2}"#);
    let unsigned: BTreeMap<u64, &str> = [(u64::MAX, "max")].into_iter().collect();
    assert_eq!(json(&unsigned), r#"{"18446744073709551615":"max"}"#);
    let bools: BTreeMap<bool, u8> = [(true, 1), (false, 0)].into_iter().collect();
    assert_eq!(json(&bools), r#"{"false":0,"true":1}"#);
    let strings: BTreeMap<&str, u8> = [("a\"b", 1)].into_iter().collect();
    assert_eq!(json(&strings), r#"{"a\"b":1}"#);
    let chars: BTreeMap<char, u8> = [('x', 1)].into_iter().collect();
    assert_eq!(json(&chars), r#"{"x":1}"#);
    let variants: BTreeMap<Shade, u8> = [(Shade::Plain, 3)].into_iter().collect();
    assert_eq!(json(&variants), r#"{"Plain":3}"#);

    let err = json::to_string(&FloatKeyed).expect_err("a float key is rejected");
    assert_eq!(err.to_string(), "json: non-string key Float(1.5)");
    // The error surfaces from any depth.
    assert!(json::to_string(&vec![Some(FloatKeyed)]).is_err());
}

#[test]
fn enum_variants() {
    assert_eq!(json(&Shade::Plain), r#""Plain""#);
    assert_eq!(json(&Shade::Gray(9)), r#"{"Gray":9}"#);
    assert_eq!(json(&Shade::Pair(-4, 7)), r#"{"Pair":[-4,7]}"#);
    assert_eq!(
        json(&Shade::Rgb { r: 1, g: 2, b: 3 }),
        r#"{"Rgb":{"r":1,"g":2,"b":3}}"#
    );
    assert_eq!(
        json(&[Shade::Plain, Shade::Gray(0), Shade::Pair(1, 2), Shade::Plain]),
        r#"["Plain",{"Gray":0},{"Pair":[1,2]},"Plain"]"#
    );
}

#[test]
fn structs_options_and_empty_containers() {
    assert_eq!(json(&Marker), "null");
    assert_eq!(json(&()), "null");
    assert_eq!(json(&Meters(2.0)), "2.0");
    assert_eq!(json(&None::<u8>), "null");
    assert_eq!(json(&Some(3u8)), "3");
    assert_eq!(json(&Some(Some("x"))), r#""x""#);
    assert_eq!(json(&Vec::<u8>::new()), "[]");
    assert_eq!(json(&BTreeMap::<String, u8>::new()), "{}");
    assert_eq!(json(&vec![Vec::<u8>::new(), vec![1]]), "[[],[1]]");
    assert_eq!(json(&(1u8, "two", 3.0f64)), r#"[1,"two",3.0]"#);
    assert_eq!(json(&Raw(&[0, 255])), "[0,255]");
    assert_eq!(json(&Raw(&[])), "[]");

    let mut table = BTreeMap::new();
    table.insert("empty", Vec::new());
    table.insert("pair", vec![1, 2]);
    let doc = Doc {
        name: "car \"M\"",
        shades: vec![Shade::Rgb { r: 0, g: 0, b: 0 }, Shade::Plain],
        missing: None,
        present: Some(Meters(-1.0)),
        table,
        marker: Marker,
    };
    assert_eq!(
        json(&doc),
        concat!(
            r#"{"name":"car \"M\"","shades":[{"Rgb":{"r":0,"g":0,"b":0}},"Plain"],"#,
            r#""missing":null,"present":-1.0,"table":{"empty":[],"pair":[1,2]},"#,
            r#""marker":null}"#
        )
    );
}

#[test]
fn value_tree() {
    let tree = Value::Object(vec![
        ("null".into(), Value::Null),
        ("flags".into(), Value::Array(vec![Value::Bool(true), Value::Bool(false)])),
        ("n".into(), Value::UInt(u64::MAX)),
        ("neg".into(), Value::Int(i64::MIN)),
        (
            "floats".into(),
            Value::Array(vec![Value::Float(2.0), Value::Float(f64::NAN), Value::Float(0.5)]),
        ),
        ("s".into(), Value::Str("tab\there \u{1}".into())),
        ("key \"q\"".into(), Value::Object(Vec::new())),
        ("empty".into(), Value::Array(Vec::new())),
    ]);
    let text = concat!(
        r#"{"null":null,"flags":[true,false],"n":18446744073709551615,"#,
        r#""neg":-9223372036854775808,"floats":[2.0,null,0.5],"#,
        r#""s":"tab\there \u0001","key \"q\"":{},"empty":[]}"#
    );
    assert_eq!(tree.to_json(), text);
    // Parsing and re-rendering is the identity on codec output.
    assert_eq!(json::parse(text).expect("parses").to_json(), text);
}

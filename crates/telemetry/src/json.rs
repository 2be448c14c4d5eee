//! A small JSON codec over the workspace serde data model.
//!
//! [`to_string`] is the one renderer: a `serde::Serializer` that appends
//! straight to the output `String` as serde walks the value, with no
//! intermediate tree. [`Value`] serializes through it too, so a parsed
//! or hand-built tree renders by the same rules:
//!
//! * compact output, a comma before every element but the first;
//! * a unit variant is its name as a string, a data-carrying variant a
//!   single-key object `{"Variant": payload}` (the derive macros'
//!   convention);
//! * an object key is a string, char, unit variant, integer or bool,
//!   written as a string; any other key is an [`Error`];
//! * a float is written with `{f}` plus `.0` when that has no fraction
//!   marker, so it parses back as a float, and non-finite floats are
//!   `null`;
//! * strings escape `"`, `\`, `\n`, `\r`, `\t` and other control
//!   characters (`\u00XX`); everything else passes through.
//!
//! `tests/json_bytes.rs` pins these bytes. [`parse`] reads JSON text
//! into a [`Value`] (nesting at most [`MAX_DEPTH`] deep) and
//! [`from_str`] deserializes it through `serde::Deserialize`.

use serde::de::{self, Deserialize, Visitor};
use serde::ser::{self, Serialize, Serializer as _};
use std::collections::VecDeque;
use std::fmt::{self, Write as _};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without sign or fraction.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Renders this value tree as compact JSON text (what [`to_string`]
    /// produces after serialization).
    pub fn to_json(&self) -> String {
        to_string(self).expect("a value tree always serializes")
    }
}

/// Codec failure: unserializable input, malformed text, or a shape
/// mismatch during deserialization.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

// ———————————————————————————— serialization ————————————————————————————

/// Serializes `value` to compact JSON text, written straight into the
/// output as serde walks the value: no intermediate tree.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(Writer(&mut out))?;
    Ok(out)
}

impl Serialize for Value {
    fn serialize<S: ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use ser::{SerializeMap, SerializeSeq};
        match self {
            Value::Null => serializer.serialize_unit(),
            Value::Bool(b) => serializer.serialize_bool(*b),
            Value::UInt(n) => serializer.serialize_u64(*n),
            Value::Int(n) => serializer.serialize_i64(*n),
            Value::Float(f) => serializer.serialize_f64(*f),
            Value::Str(s) => serializer.serialize_str(s),
            Value::Array(items) => {
                let mut seq = serializer.serialize_seq(Some(items.len()))?;
                for item in items {
                    seq.serialize_element(item)?;
                }
                seq.end()
            }
            Value::Object(entries) => {
                let mut map = serializer.serialize_map(Some(entries.len()))?;
                for (key, value) in entries {
                    map.serialize_entry(key, value)?;
                }
                map.end()
            }
        }
    }
}

fn write_display(v: impl fmt::Display, out: &mut String) {
    write!(out, "{v}").expect("writing to a String cannot fail");
}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        let start = out.len();
        write_display(f, out);
        // Keep a fraction marker so the value parses back as float.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null"); // JSON has no NaN/Inf
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs copied
    // between escapes are whole UTF-8 sequences.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The error for an object key written as `text`, which is not a
/// string, integer or bool.
fn key_error(text: &str) -> Error {
    let kind = match text.as_bytes().first() {
        Some(b'[') => "Array".to_string(),
        Some(b'{') => "Object".to_string(),
        Some(b'-' | b'0'..=b'9') => {
            let f: f64 = text.parse().unwrap_or(f64::NAN);
            format!("Float({f:?})")
        }
        _ => "Null".to_string(),
    };
    Error(format!("non-string key {kind}"))
}

/// The serializer: appends each value's JSON to the buffer.
struct Writer<'a>(&'a mut String);

/// An array or object being written: a comma goes before every
/// element but the first, and `close` ends it (including the `}` of a
/// `{"Variant":…}` wrapper).
struct Compound<'a> {
    out: &'a mut String,
    first: bool,
    close: &'static str,
}

impl<'a> Writer<'a> {
    fn open(self, open: &str, close: &'static str) -> Compound<'a> {
        self.0.push_str(open);
        Compound {
            out: self.0,
            first: true,
            close,
        }
    }

    /// Opens the `{"Variant":` wrapper of a data-carrying variant.
    fn variant(self, variant: &str) -> Writer<'a> {
        self.0.push('{');
        write_string(variant, self.0);
        self.0.push(':');
        self
    }
}

impl<'a> ser::Serializer for Writer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        self.0.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), Error> {
        self.serialize_i64(v.into())
    }
    fn serialize_i16(self, v: i16) -> Result<(), Error> {
        self.serialize_i64(v.into())
    }
    fn serialize_i32(self, v: i32) -> Result<(), Error> {
        self.serialize_i64(v.into())
    }
    fn serialize_i64(self, v: i64) -> Result<(), Error> {
        write_display(v, self.0);
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), Error> {
        self.serialize_u64(v.into())
    }
    fn serialize_u16(self, v: u16) -> Result<(), Error> {
        self.serialize_u64(v.into())
    }
    fn serialize_u32(self, v: u32) -> Result<(), Error> {
        self.serialize_u64(v.into())
    }
    fn serialize_u64(self, v: u64) -> Result<(), Error> {
        write_display(v, self.0);
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), Error> {
        self.serialize_f64(v.into())
    }
    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        write_float(v, self.0);
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), Error> {
        self.serialize_str(v.encode_utf8(&mut [0; 4]))
    }
    fn serialize_str(self, v: &str) -> Result<(), Error> {
        write_string(v, self.0);
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), Error> {
        let mut seq = self.open("[", "]");
        for b in v {
            seq.element(b)?;
        }
        seq.close()
    }
    fn serialize_none(self) -> Result<(), Error> {
        self.serialize_unit()
    }
    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<(), Error> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), Error> {
        self.0.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Error> {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<(), Error> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        let out = self.variant(variant).0;
        value.serialize(Writer(&mut *out))?;
        out.push('}');
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, Error> {
        Ok(self.open("[", "]"))
    }
    fn serialize_tuple(self, _len: usize) -> Result<Compound<'a>, Error> {
        Ok(self.open("[", "]"))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        Ok(self.open("[", "]"))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        Ok(self.variant(variant).open("[", "]}"))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, Error> {
        Ok(self.open("{", "}"))
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'a>, Error> {
        Ok(self.open("{", "}"))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        Ok(self.variant(variant).open("{", "}}"))
    }
}

impl Compound<'_> {
    /// Places the separating comma and hands out the writer for the
    /// next element or key.
    fn next(&mut self) -> Writer<'_> {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
        Writer(&mut *self.out)
    }

    fn element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(self.next())
    }

    fn field<T: ?Sized + Serialize>(&mut self, key: &str, value: &T) -> Result<(), Error> {
        self.next().serialize_str(key)?;
        self.out.push(':');
        value.serialize(Writer(&mut *self.out))
    }

    fn close(self) -> Result<(), Error> {
        self.out.push_str(self.close);
        Ok(())
    }
}

impl ser::SerializeSeq for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
        self.element(value)
    }
    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

impl ser::SerializeTuple for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
        self.element(value)
    }
    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

impl ser::SerializeTupleStruct for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
        self.element(value)
    }
    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

impl ser::SerializeTupleVariant for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
        self.element(value)
    }
    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = Error;
    /// JSON keys are strings: a key written as a string (a string,
    /// char or unit variant) is kept, an integer or bool is quoted, and
    /// any other key is an error.
    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<(), Error> {
        let out = self.next().0;
        let start = out.len();
        key.serialize(Writer(&mut *out))?;
        let text = &out[start..];
        let quote = match text.as_bytes().first() {
            Some(b'"') => false,
            Some(b't' | b'f') => true,
            Some(b'-' | b'0'..=b'9') if !text.contains(['.', 'e', 'E']) => true,
            _ => return Err(key_error(text)),
        };
        if quote {
            out.insert(start, '"');
            out.push('"');
        }
        out.push(':');
        Ok(())
    }
    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(Writer(&mut *self.out))
    }
    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

impl ser::SerializeStruct for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.field(key, value)
    }
    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

impl ser::SerializeStructVariant for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.field(key, value)
    }
    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

// ———————————————————————————— parsing ————————————————————————————

/// How deeply arrays and objects may nest in parsed text. The parser
/// recurses once per level, so untrusted input (a service request
/// body) must not choose the recursion depth.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`] tree. Text nesting arrays and
/// objects deeper than [`MAX_DEPTH`] is an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", parser.pos)));
    }
    Ok(value)
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error("unexpected end of input".into())),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(Error(format!(
                "unexpected {:?} at byte {}",
                b as char, self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error(e.to_string()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| Error("dangling escape".into()))?;
                    self.pos += 1;
                    match escape {
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
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| Error(e.to_string()))?,
                                16,
                            )
                            .map_err(|e| Error(e.to_string()))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error(format!("bad codepoint {code:#x}")))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("bad escape \\{}", other as char)));
                        }
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| Error(e.to_string()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error(format!("bad number {text:?}: {e}")))
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Value::UInt(n))
        } else if let Ok(n) = text.parse::<i64>() {
            Ok(Value::Int(n))
        } else {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error(format!("bad number {text:?}: {e}")))
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
                _ => return Err(Error("expected ',' or ']'".into())),
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
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error("expected ',' or '}'".into())),
            }
        }
    }
}

// ———————————————————————————— deserialization ————————————————————————————

/// Deserializes a `T` from JSON text.
pub fn from_str<'de, T: Deserialize<'de>>(text: &str) -> Result<T, Error> {
    from_value(parse(text)?)
}

/// Deserializes a `T` from a parsed [`Value`] tree.
pub fn from_value<'de, T: Deserialize<'de>>(value: Value) -> Result<T, Error> {
    T::deserialize(ValueDeserializer(value))
}

struct ValueDeserializer(Value);

impl<'de> de::Deserializer<'de> for ValueDeserializer {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.0 {
            Value::Null => visitor.visit_unit(),
            Value::Bool(b) => visitor.visit_bool(b),
            Value::UInt(n) => visitor.visit_u64(n),
            Value::Int(n) => visitor.visit_i64(n),
            Value::Float(f) => visitor.visit_f64(f),
            Value::Str(s) => visitor.visit_string(s),
            Value::Array(items) => visitor.visit_seq(SeqDeserializer {
                items: items.into(),
            }),
            Value::Object(entries) => visitor.visit_map(MapDeserializer {
                entries: entries.into(),
                pending: None,
            }),
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.0 {
            Value::Null => visitor.visit_none(),
            other => visitor.visit_some(ValueDeserializer(other)),
        }
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        match self.0 {
            Value::Str(tag) => visitor.visit_enum(EnumDeserializer { tag, payload: None }),
            Value::Object(mut entries) => {
                if entries.len() != 1 {
                    return Err(Error(format!(
                        "expected single-key variant object, got {} keys",
                        entries.len()
                    )));
                }
                let (tag, payload) = entries.pop().expect("one entry");
                visitor.visit_enum(EnumDeserializer {
                    tag,
                    payload: Some(payload),
                })
            }
            other => Err(Error(format!("expected enum, got {other:?}"))),
        }
    }
}

struct SeqDeserializer {
    items: VecDeque<Value>,
}

impl<'de> de::SeqAccess<'de> for SeqDeserializer {
    type Error = Error;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Error> {
        match self.items.pop_front() {
            None => Ok(None),
            Some(item) => T::deserialize(ValueDeserializer(item)).map(Some),
        }
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.items.len())
    }
}

struct MapDeserializer {
    entries: VecDeque<(String, Value)>,
    pending: Option<Value>,
}

impl<'de> de::MapAccess<'de> for MapDeserializer {
    type Error = Error;

    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Error> {
        match self.entries.pop_front() {
            None => Ok(None),
            Some((key, value)) => {
                self.pending = Some(value);
                K::deserialize(ValueDeserializer(Value::Str(key))).map(Some)
            }
        }
    }

    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Error> {
        let value = self
            .pending
            .take()
            .ok_or_else(|| Error("next_value before next_key".into()))?;
        V::deserialize(ValueDeserializer(value))
    }
}

struct EnumDeserializer {
    tag: String,
    payload: Option<Value>,
}

impl<'de> de::EnumAccess<'de> for EnumDeserializer {
    type Error = Error;
    type Variant = VariantDeserializer;

    fn variant<V: Deserialize<'de>>(self) -> Result<(V, VariantDeserializer), Error> {
        let tag = V::deserialize(ValueDeserializer(Value::Str(self.tag)))?;
        Ok((
            tag,
            VariantDeserializer {
                payload: self.payload,
            },
        ))
    }
}

struct VariantDeserializer {
    payload: Option<Value>,
}

impl<'de> de::VariantAccess<'de> for VariantDeserializer {
    type Error = Error;

    fn unit_variant(self) -> Result<(), Error> {
        match self.payload {
            None | Some(Value::Null) => Ok(()),
            Some(other) => Err(Error(format!("unit variant carries data: {other:?}"))),
        }
    }

    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Error> {
        let payload = self
            .payload
            .ok_or_else(|| Error("newtype variant missing payload".into()))?;
        T::deserialize(ValueDeserializer(payload))
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value, Error> {
        match self.payload {
            Some(Value::Array(items)) => visitor.visit_seq(SeqDeserializer {
                items: items.into(),
            }),
            other => Err(Error(format!(
                "expected tuple variant array, got {other:?}"
            ))),
        }
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        match self.payload {
            Some(Value::Object(entries)) => visitor.visit_map(MapDeserializer {
                entries: entries.into(),
                pending: None,
            }),
            other => Err(Error(format!(
                "expected struct variant object, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shade {
        Plain,
        Gray(u8),
        Rgb { r: u8, g: u8, b: u8 },
        Pair(i32, i32),
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Doc {
        name: String,
        ratio: f64,
        flags: Vec<bool>,
        shade: Shade,
        fallback: Option<Shade>,
        table: BTreeMap<String, u64>,
    }

    #[test]
    fn round_trips_structs_enums_options_maps() {
        let mut table = BTreeMap::new();
        table.insert("alpha".to_string(), 3u64);
        table.insert("beta".to_string(), 0u64);
        let doc = Doc {
            name: "trace \"x\"\n".to_string(),
            ratio: -0.125,
            flags: vec![true, false],
            shade: Shade::Rgb { r: 1, g: 2, b: 3 },
            fallback: Some(Shade::Gray(9)),
            table,
        };
        let text = to_string(&doc).expect("serialize");
        let back: Doc = from_str(&text).expect("deserialize");
        assert_eq!(back, doc);
    }

    #[test]
    fn unit_and_tuple_variants_round_trip() {
        for shade in [Shade::Plain, Shade::Pair(-4, 7)] {
            let text = to_string(&shade).expect("serialize");
            let back: Shade = from_str(&text).expect("deserialize");
            assert_eq!(back, shade);
        }
        assert_eq!(to_string(&Shade::Plain).expect("serialize"), "\"Plain\"");
    }

    #[test]
    fn floats_keep_fraction_marker() {
        assert_eq!(to_string(&1.0f64).expect("serialize"), "1.0");
        let v: f64 = from_str("1.0").expect("parse");
        assert_eq!(v, 1.0);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| {
            format!(
                "{}{{}}{}",
                "{\"k\":".repeat(depth - 1),
                "}".repeat(depth - 1)
            )
        };
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for text in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&text).expect_err("one level too deep");
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
        // Leaving a level frees it: siblings at the cap are fine.
        assert!(parse(&format!(
            "[{},{}]",
            arrays(MAX_DEPTH - 1),
            objects(MAX_DEPTH - 1)
        ))
        .is_ok());
        // An unclosed run far past the cap fails at the cap instead of
        // recursing once per bracket.
        assert!(parse(&format!("{{\"car\":{}", "[".repeat(100_000))).is_err());
    }

    #[test]
    fn rejects_malformed_text() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("{} trailing").is_err());
    }
}

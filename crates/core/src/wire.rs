//! Wire formats: hand-rolled, escaping-correct JSON serialization and
//! deserialization for the pipeline's API types — no dependencies, same
//! discipline as the report renderers.
//!
//! This module is the one place the workspace turns values into JSON
//! text and back. Everything downstream builds on it: the sweep
//! report's JSON-lines rendering routes its floats through
//! [`push_f64`], and the `socbuf-serve` request protocol parses and
//! renders whole [`Architecture`] / [`SizingConfig`] /
//! [`SizingOutcome`] payloads with the codecs below.
//!
//! # Canonical form
//!
//! Rendered JSON is *canonical*: no insignificant whitespace, object
//! keys in the fixed schema order, numbers through the shared writer.
//! Two semantically equal values therefore serialize to byte-identical
//! text, and `render(parse(text)) == text` for any text this module
//! produced — the property the service layer's byte-parity checks and
//! the sweep determinism suite both lean on.
//!
//! # Numbers
//!
//! All floats go through one shared writer, [`push_f64`]:
//!
//! * finite values render via `f64`'s `Display` (shortest decimal that
//!   round-trips, so bit-identical inputs give byte-identical text);
//! * **non-finite values render as `null`** — bare `NaN` / `inf`, which
//!   `Display` would otherwise produce, are not JSON. Parsers map the
//!   `null` back to `f64::NAN` where a float field expects a number.
//!
//! Integer-valued fields (budgets, counts, indices) render as plain
//! integers and are rejected on parse if they arrive negative,
//! fractional, or beyond 2⁵³ (where `f64` stops being exact).
//!
//! # Records
//!
//! Every record codec in the workspace goes through one reader and one
//! writer defined here. A decoder opens its object with
//! [`JsonValue::fields`], which refuses any key outside the record's
//! list, then reads each field through [`Fields`], which names the
//! record in missing-field errors and the key in type errors. A
//! renderer writes through [`ObjWriter`], which owns key quoting and
//! separators. Unknown keys are refused in every record.

use std::fmt::Write as _;
use std::ops::Range;

use socbuf_lp::{ChunkPolicy, LpEngine, ScalingStats};
use socbuf_soc::templates::RandomArchParams;
use socbuf_soc::{
    Architecture, ArchitectureBuilder, BufferAllocation, BusArbitration, FlowTarget, TrafficShape,
};

use crate::pipeline::SizingOutcome;
use crate::SizingConfig;

/// Maximum nesting depth [`JsonValue::parse`] accepts. The codecs here
/// need 5; the cap exists so a hostile request (`[[[[…`) exhausts a
/// counter, not the stack.
const MAX_DEPTH: usize = 128;

/// Largest integer magnitude exactly representable in the `f64` number
/// model (2⁵³); integer fields beyond it are rejected instead of being
/// silently rounded.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

// ---------------------------------------------------------------------
// Shared writers
// ---------------------------------------------------------------------

/// Appends `v` as a JSON number — **the** float writer every renderer
/// in the workspace shares.
///
/// Finite values use `f64`'s shortest-round-trip `Display`; non-finite
/// values (`NaN`, `±inf`) append `null`, because JSON has no spelling
/// for them and a bare `NaN` makes the whole document unparseable.
/// Readers treat the `null` as "value exists but is not a finite
/// number" and map it back to `f64::NAN`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a JSON string literal, escaping everything JSON
/// requires: quote, backslash, and all control characters below 0x20
/// (the common ones by name, the rest as `\u00XX`).
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON unsigned integer.
pub fn push_usize(out: &mut String, v: usize) {
    let _ = write!(out, "{v}");
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Failure while parsing or interpreting wire-format JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The text is not well-formed JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The JSON is well-formed but does not match the expected schema
    /// (wrong type, missing/unknown field, out-of-range value, or a
    /// domain validation failure while rebuilding the value).
    Schema(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Parse { offset, message } => {
                write!(f, "invalid JSON at byte {offset}: {message}")
            }
            WireError::Schema(msg) => write!(f, "schema error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// JSON document model
// ---------------------------------------------------------------------

/// A parsed JSON document. Objects preserve key order (they are
/// association lists, not maps), so `render ∘ parse` is the identity on
/// canonical text.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` — also how non-finite floats travel (see [`push_f64`]).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, key order preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses `text` as one JSON document (trailing non-whitespace is
    /// an error).
    ///
    /// # Errors
    ///
    /// [`WireError::Parse`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<JsonValue, WireError> {
        Parser::new(text, false).document().map(|(v, _)| v)
    }

    /// Appends this value in canonical form (no whitespace, floats via
    /// [`push_f64`], strings via [`push_str`]).
    pub fn push(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => push_f64(out, *v),
            JsonValue::Str(s) => push_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.push(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.push(out);
                }
                out.push('}');
            }
        }
    }

    /// This value in canonical form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.push(&mut out);
        out
    }

    /// Looks up a field of an object (`None` for non-objects and
    /// missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields, or a schema error naming `what`.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] if this is not an object.
    pub fn obj(&self, what: &str) -> Result<&[(String, JsonValue)], WireError> {
        match self {
            JsonValue::Obj(fields) => Ok(fields),
            other => Err(WireError::Schema(format!(
                "{what}: expected an object, got {}",
                other.kind()
            ))),
        }
    }

    /// The array's items, or a schema error naming `what`.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] if this is not an array.
    pub fn arr(&self, what: &str) -> Result<&[JsonValue], WireError> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            other => Err(WireError::Schema(format!(
                "{what}: expected an array, got {}",
                other.kind()
            ))),
        }
    }

    /// The string's contents, or a schema error naming `what`.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] if this is not a string.
    pub fn str(&self, what: &str) -> Result<&str, WireError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(WireError::Schema(format!(
                "{what}: expected a string, got {}",
                other.kind()
            ))),
        }
    }

    /// The boolean, or a schema error naming `what`.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] if this is not a boolean.
    pub fn bool(&self, what: &str) -> Result<bool, WireError> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(WireError::Schema(format!(
                "{what}: expected a boolean, got {}",
                other.kind()
            ))),
        }
    }

    /// The number as `f64`; `null` maps to `f64::NAN` (the wire
    /// spelling of a non-finite float — see [`push_f64`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] if this is neither a number nor `null`.
    pub fn f64(&self, what: &str) -> Result<f64, WireError> {
        match self {
            JsonValue::Num(v) => Ok(*v),
            JsonValue::Null => Ok(f64::NAN),
            other => Err(WireError::Schema(format!(
                "{what}: expected a number, got {}",
                other.kind()
            ))),
        }
    }

    /// A finite number — `null` (non-finite) is rejected, unlike
    /// [`JsonValue::f64`].
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] for non-numbers and `null`.
    pub fn finite_f64(&self, what: &str) -> Result<f64, WireError> {
        match self {
            JsonValue::Num(v) => Ok(*v),
            other => Err(WireError::Schema(format!(
                "{what}: expected a finite number, got {}",
                other.kind()
            ))),
        }
    }

    /// The number as `usize`: must be a non-negative integer within the
    /// exactly-representable range.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] for non-numbers, negatives, fractions, and
    /// values beyond 2⁵³.
    pub fn usize(&self, what: &str) -> Result<usize, WireError> {
        let v = self.finite_f64(what)?;
        if v < 0.0 || v.fract() != 0.0 || v > MAX_EXACT_INT {
            return Err(WireError::Schema(format!(
                "{what}: expected a non-negative integer, got {v}"
            )));
        }
        Ok(v as usize)
    }

    /// The number as `u64` (same rules as [`JsonValue::usize`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] for non-numbers, negatives, fractions, and
    /// values beyond 2⁵³.
    pub fn u64(&self, what: &str) -> Result<u64, WireError> {
        Ok(self.usize(what)? as u64)
    }

    /// This record's fields under its key list `names`, `parent` naming
    /// the record in every error: the reader every record decoder goes
    /// through. Refuses a non-object and the first key outside `names`,
    /// so a typo in a hand-written record fails loudly.
    pub fn fields<'a>(&'a self, parent: &'a str, names: &[&str]) -> Result<Fields<'a>, WireError> {
        let fields = self.obj(parent)?;
        if let Some((k, _)) = fields.iter().find(|(k, _)| !names.contains(&k.as_str())) {
            return Err(WireError::Schema(format!(
                "{parent}: unknown field \"{k}\" (expected one of {names:?})"
            )));
        }
        Ok(Fields { parent, fields })
    }

    /// A required member of a record whose key list depends on a tag it
    /// carries (a request's verb, a campaign's kind), or of an object
    /// another layer owns; errors as [`Fields::req`].
    pub fn member(&self, parent: &str, key: &str) -> Result<&JsonValue, WireError> {
        self.get(key).ok_or_else(|| missing(parent, key))
    }

    /// Short type tag for error messages.
    fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "a boolean",
            JsonValue::Num(_) => "a number",
            JsonValue::Str(_) => "a string",
            JsonValue::Arr(_) => "an array",
            JsonValue::Obj(_) => "an object",
        }
    }
}

fn missing(parent: &str, key: &str) -> WireError {
    WireError::Schema(format!("{parent}: missing field \"{key}\""))
}

/// One record's fields, checked against its key list by
/// [`JsonValue::fields`]. Each typed read names the key in its type
/// error and the record in its missing-field error.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    parent: &'a str,
    fields: &'a [(String, JsonValue)],
}

impl<'a> Fields<'a> {
    /// An optional field's value.
    pub fn opt(&self, key: &str) -> Option<&'a JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An optional field read by `read` (given the value and the key),
    /// or `default` when the field is absent.
    pub fn opt_or<T>(
        &self,
        key: &str,
        default: T,
        read: impl FnOnce(&'a JsonValue, &str) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        self.opt(key).map_or(Ok(default), |v| read(v, key))
    }

    /// A required field's value; missing, it reads `<parent>: missing field "<key>"`.
    pub fn req(&self, key: &str) -> Result<&'a JsonValue, WireError> {
        self.opt(key).ok_or_else(|| missing(self.parent, key))
    }

    /// A required field that may be `null` (`None`).
    pub fn nullable(&self, key: &str) -> Result<Option<&'a JsonValue>, WireError> {
        self.req(key).map(|v| (*v != JsonValue::Null).then_some(v))
    }

    /// A required [`JsonValue::usize`] field; errors as [`Fields::req`] and that read.
    pub fn usize(&self, key: &str) -> Result<usize, WireError> {
        self.req(key)?.usize(key)
    }

    /// A required [`JsonValue::u64`] field; errors as [`Fields::req`] and that read.
    pub fn u64(&self, key: &str) -> Result<u64, WireError> {
        self.req(key)?.u64(key)
    }

    /// A required [`JsonValue::f64`] field; errors as [`Fields::req`] and that read.
    pub fn f64(&self, key: &str) -> Result<f64, WireError> {
        self.req(key)?.f64(key)
    }

    /// A required [`JsonValue::finite_f64`] field; errors as [`Fields::req`] and that read.
    pub fn finite_f64(&self, key: &str) -> Result<f64, WireError> {
        self.req(key)?.finite_f64(key)
    }

    /// A required [`JsonValue::bool`] field; errors as [`Fields::req`] and that read.
    pub fn bool(&self, key: &str) -> Result<bool, WireError> {
        self.req(key)?.bool(key)
    }

    /// A required [`JsonValue::str`] field; errors as [`Fields::req`] and that read.
    pub fn str(&self, key: &str) -> Result<&'a str, WireError> {
        self.req(key)?.str(key)
    }

    /// A required [`JsonValue::arr`] field; errors as [`Fields::req`] and that read.
    pub fn items(&self, key: &str) -> Result<&'a [JsonValue], WireError> {
        self.req(key)?.arr(key)
    }

    /// A required array field, each item decoded by `item` in order.
    pub fn list<T>(
        &self,
        key: &str,
        item: impl FnMut(&'a JsonValue) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        self.items(key)?.iter().map(item).collect()
    }
}

/// Writes one JSON object in canonical form: each field as a quoted key
/// and its value, in call order, comma-separated. Every record renderer
/// goes through it, so no renderer spells a key or a separator itself.
pub struct ObjWriter<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> ObjWriter<'o> {
    /// Appends one object to `out`: `{`, the fields `body` writes, `}`.
    pub fn push(out: &'o mut String, body: impl FnOnce(&mut ObjWriter<'_>)) {
        out.push('{');
        let mut w = ObjWriter { out, empty: true };
        body(&mut w);
        w.out.push('}');
    }

    /// One object as a new string (see [`ObjWriter::push`]).
    pub fn render(body: impl FnOnce(&mut ObjWriter<'_>)) -> String {
        let mut out = String::new();
        ObjWriter::push(&mut out, body);
        out
    }

    /// Starts a field: separator, quoted key, colon. Keys are schema
    /// identifiers, which need no escaping.
    fn key(&mut self, key: &str) -> &mut String {
        debug_assert!(key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'));
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// An integer field ([`push_usize`]).
    pub fn usize(&mut self, key: &str, v: usize) -> &mut Self {
        push_usize(self.key(key), v);
        self
    }

    /// A float field ([`push_f64`]: `null` when non-finite).
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        push_f64(self.key(key), v);
        self
    }

    /// A string field ([`push_str`]).
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        push_str(self.key(key), v);
        self
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// A field whose value is already canonical JSON text.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// An array field, each item appended by `item`.
    pub fn list<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        item: impl FnMut(&mut String, T),
    ) -> &mut Self {
        push_list(self.key(key), items, item);
        self
    }

    /// A nested object field.
    pub fn obj(&mut self, key: &str, body: impl FnOnce(&mut ObjWriter<'_>)) -> &mut Self {
        ObjWriter::push(self.key(key), body);
        self
    }
}

/// Appends a JSON array: `[`, each item appended by `item`, `]`.
fn push_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// A JSON document parsed once, with the byte span of each top-level
/// field's value in the source text.
///
/// A protocol frame is an object whose fields are whole payloads (an
/// architecture, a config, an outcome). The spans let a reader key on a
/// payload's own bytes, or copy them out, instead of rendering its
/// subtree again; the tree serves every decode. The value is exactly
/// what [`JsonValue::parse`] returns for the same text.
#[derive(Debug)]
pub struct JsonDocument<'t> {
    text: &'t str,
    value: JsonValue,
    /// Byte range of each top-level field's value, in field order
    /// (empty unless the document is an object).
    spans: Vec<Range<usize>>,
}

impl<'t> JsonDocument<'t> {
    /// Parses `text` as one JSON document, recording the spans.
    ///
    /// # Errors
    ///
    /// Exactly those of [`JsonValue::parse`].
    pub fn parse(text: &'t str) -> Result<JsonDocument<'t>, WireError> {
        let (value, spans) = Parser::new(text, true).document()?;
        Ok(JsonDocument { text, value, spans })
    }

    /// The parsed document.
    pub fn value(&self) -> &JsonValue {
        &self.value
    }

    /// Looks up a top-level field (see [`JsonValue::get`]).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.value.get(key)
    }

    /// The source text of a top-level field's value, byte for byte as
    /// it arrived (`None` for a missing key or a non-object document).
    pub fn raw(&self, key: &str) -> Option<&'t str> {
        let JsonValue::Obj(fields) = &self.value else {
            return None;
        };
        let i = fields.iter().position(|(k, _)| k == key)?;
        Some(&self.text[self.spans[i].clone()])
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Value spans of the top-level object's fields, when recorded.
    spans: Option<Vec<Range<usize>>>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, spans: bool) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            spans: spans.then(Vec::new),
        }
    }

    /// The whole input as one document (trailing non-whitespace is an
    /// error), with the recorded spans.
    fn document(mut self) -> Result<(JsonValue, Vec<Range<usize>>), WireError> {
        self.skip_ws();
        let v = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after the document"));
        }
        Ok((v, self.spans.unwrap_or_default()))
    }

    fn err(&self, message: impl Into<String>) -> WireError {
        WireError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(self.err(format!("unexpected byte 0x{b:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let start = self.pos;
            let value = self.value(depth + 1)?;
            if depth == 0 {
                if let Some(spans) = &mut self.spans {
                    spans.push(start..self.pos);
                }
            }
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so slicing between the byte indices of
            // ASCII delimiters always lands on char boundaries.
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("input was valid UTF-8 and delimiters are ASCII"),
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            s.push(c);
                            // hex4 advanced pos past the digits; the
                            // shared `+= 1` below is for the escape
                            // letter, which we already consumed.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.bytes.get(self.pos) {
                Some(&b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(&b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(&b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, WireError> {
        let start = self.pos;
        // Scan the JSON number charset, then hold the run to the RFC 8259
        // grammar before `f64::from_str` converts it: `from_str` alone
        // also takes `01`, `1.`, `-.5` and `1.e5`. "NaN"/"inf" never
        // reach this branch (they don't start with a digit or '-'), so
        // non-finite spellings are rejected at the grammar level.
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let run = &self.bytes[start..self.pos];
        let text = std::str::from_utf8(run).expect("ascii");
        let invalid = || self.err(format!("invalid number \"{text}\""));
        if !is_json_number(run) {
            return Err(invalid());
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::Num(v)),
            Ok(_) => Err(self.err("number overflows f64")),
            Err(_) => Err(invalid()),
        }
    }
}

/// Whether `run` spells a number in the RFC 8259 grammar:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn is_json_number(run: &[u8]) -> bool {
    let digits = |i: usize| run[i..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = usize::from(run.first() == Some(&b'-'));
    match run.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => i += digits(i),
        _ => return false,
    }
    if run.get(i) == Some(&b'.') {
        let n = digits(i + 1);
        if n == 0 {
            return false;
        }
        i += 1 + n;
    }
    if matches!(run.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(run.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let n = digits(i);
        if n == 0 {
            return false;
        }
        i += n;
    }
    i == run.len()
}

// ---------------------------------------------------------------------
// LpEngine tags
// ---------------------------------------------------------------------

/// Parses an [`LpEngine`] from its stable lowercase tag (the same text
/// its `Display` prints: `"revised"`, `"tableau"`, `"decomposed"`).
///
/// # Errors
///
/// [`WireError::Schema`] for unknown tags.
pub fn lp_engine_from_tag(tag: &str) -> Result<LpEngine, WireError> {
    LpEngine::ALL
        .into_iter()
        .find(|e| e.to_string() == tag)
        .ok_or_else(|| WireError::Schema(format!("unknown lp engine \"{tag}\"")))
}

// ---------------------------------------------------------------------
// Architecture codec
// ---------------------------------------------------------------------

/// Serializes an [`Architecture`] as canonical JSON.
///
/// The schema mirrors the builder's inputs — buses, processors,
/// bridges, flows, each referencing earlier components by index in
/// creation order — because that is exactly what
/// [`architecture_from_json`] replays through [`ArchitectureBuilder`],
/// re-running every validation (positive finite rates, routability) on
/// the way back in. Derived data (routes, queues) is *not* serialized:
/// it is recomputed deterministically by `build`, so the wire can never
/// smuggle in an inconsistent architecture.
///
/// Extended-semantics declarations are emitted **only when they differ
/// from the defaults**: a bus carries `"arbitration"` only when
/// non-external, a bridge `"latency"` only when positive, a flow
/// `"shape"` only when non-Poisson. Plain architectures therefore
/// serialize byte-identically to what they produced before those
/// declarations existed, and old documents parse unchanged.
pub fn architecture_to_json(arch: &Architecture) -> String {
    ObjWriter::render(|w| {
        w.list("buses", arch.bus_ids(), |out, id| {
            let bus = arch.bus(id);
            ObjWriter::push(out, |w| {
                w.str("name", bus.name())
                    .f64("service_rate", bus.service_rate());
                match bus.arbitration() {
                    BusArbitration::External => {}
                    BusArbitration::Priority => {
                        w.str("arbitration", "priority");
                    }
                    BusArbitration::Locked { max_batch } => {
                        w.obj("arbitration", |w| {
                            w.usize("locked", max_batch);
                        });
                    }
                }
            })
        })
        .list("processors", arch.proc_ids(), |out, id| {
            let p = arch.processor(id);
            ObjWriter::push(out, |w| {
                w.str("name", p.name())
                    .list("buses", p.buses(), |out, b| push_usize(out, b.index()))
                    .f64("weight", p.weight());
            })
        })
        .list("bridges", arch.bridge_ids(), |out, id| {
            let g = arch.bridge(id);
            ObjWriter::push(out, |w| {
                w.str("name", g.name())
                    .usize("from", g.from().index())
                    .usize("to", g.to().index());
                if g.latency() > 0.0 {
                    w.f64("latency", g.latency());
                }
            })
        })
        .list("flows", arch.flow_ids(), |out, id| {
            let f = arch.flow(id);
            ObjWriter::push(out, |w| {
                w.usize("src", f.src().index())
                    .obj("target", |w| match f.target() {
                        FlowTarget::Processor(p) => {
                            w.usize("processor", p.index());
                        }
                        FlowTarget::Bus(b) => {
                            w.usize("bus", b.index());
                        }
                    })
                    .f64("rate", f.rate());
                match f.shape() {
                    TrafficShape::Poisson => {}
                    TrafficShape::Burst { batch } => {
                        w.obj("shape", |w| {
                            w.usize("burst", batch);
                        });
                    }
                    TrafficShape::OnOff { mean_on, mean_off } => {
                        w.obj("shape", |w| {
                            w.obj("on_off", |w| {
                                w.f64("mean_on", mean_on).f64("mean_off", mean_off);
                            });
                        });
                    }
                }
            })
        });
    })
}

/// Parses a bus's optional `"arbitration"` declaration:
/// `"priority"` or `{"locked": max_batch}`.
fn arbitration_from_json(v: &JsonValue, what: &str) -> Result<BusArbitration, WireError> {
    if let JsonValue::Str(tag) = v {
        return match tag.as_str() {
            "priority" => Ok(BusArbitration::Priority),
            other => Err(WireError::Schema(format!(
                "{what}: unknown arbitration \"{other}\""
            ))),
        };
    }
    let max_batch = v.fields(what, &["locked"])?.usize("locked")?;
    Ok(BusArbitration::Locked { max_batch })
}

/// Parses a flow's optional `"shape"` declaration:
/// `{"burst": batch}` or `{"on_off": {"mean_on": …, "mean_off": …}}`.
fn shape_from_json(v: &JsonValue, what: &str) -> Result<TrafficShape, WireError> {
    let f = v.fields(what, &["burst", "on_off"])?;
    match (f.opt("burst"), f.opt("on_off")) {
        (Some(batch), None) => Ok(TrafficShape::Burst {
            batch: batch.usize("burst")?,
        }),
        (None, Some(onoff)) => {
            let inner = format!("{what}.on_off");
            let onoff = onoff.fields(&inner, &["mean_on", "mean_off"])?;
            Ok(TrafficShape::OnOff {
                mean_on: onoff.finite_f64("mean_on")?,
                mean_off: onoff.finite_f64("mean_off")?,
            })
        }
        _ => Err(WireError::Schema(format!(
            "{what}: expected exactly one of \"burst\" or \"on_off\""
        ))),
    }
}

/// Rebuilds an [`Architecture`] from the JSON [`architecture_to_json`]
/// produces, replaying it through [`ArchitectureBuilder`] so every
/// domain validation (positive finite rates, known handles, routable
/// flows, non-empty architecture) applies to wire input exactly as it
/// does to locally built architectures.
///
/// # Errors
///
/// [`WireError::Schema`] for shape mismatches, out-of-range component
/// indices, or any builder rejection (reported with the builder's own
/// message).
pub fn architecture_from_json(v: &JsonValue) -> Result<Architecture, WireError> {
    let arch = v.fields("architecture", &["buses", "processors", "bridges", "flows"])?;
    let mut b = ArchitectureBuilder::new();
    let domain = |e: socbuf_soc::SocError| WireError::Schema(format!("architecture: {e}"));

    let mut bus_ids = Vec::new();
    for (i, bus) in arch.items("buses")?.iter().enumerate() {
        let what = format!("buses[{i}]");
        let bus = bus.fields(&what, &["name", "service_rate", "arbitration"])?;
        let name = bus.str("name")?;
        let rate = bus.finite_f64("service_rate")?;
        let arb = match bus.opt("arbitration") {
            Some(a) => arbitration_from_json(a, &format!("{what}.arbitration"))?,
            None => BusArbitration::External,
        };
        bus_ids.push(
            b.add_bus_with_arbitration(name, rate, arb)
                .map_err(domain)?,
        );
    }
    let bus = |idx: usize, what: &str| by_index(&bus_ids, idx, what, "bus");

    let mut proc_ids = Vec::new();
    for (i, p) in arch.items("processors")?.iter().enumerate() {
        let what = format!("processors[{i}]");
        let p = p.fields(&what, &["name", "buses", "weight"])?;
        let name = p.str("name")?;
        let weight = p.finite_f64("weight")?;
        let buses = p.list("buses", |idx| bus(idx.usize("bus index")?, &what))?;
        proc_ids.push(b.add_processor(name, &buses, weight).map_err(domain)?);
    }
    let processor = |idx: usize, what: &str| by_index(&proc_ids, idx, what, "processor");

    for (i, g) in arch.items("bridges")?.iter().enumerate() {
        let what = format!("bridges[{i}]");
        let g = g.fields(&what, &["name", "from", "to", "latency"])?;
        let name = g.str("name")?;
        let from = bus(g.usize("from")?, &what)?;
        let to = bus(g.usize("to")?, &what)?;
        let latency = g.opt_or("latency", 0.0, JsonValue::finite_f64)?;
        b.add_bridge_with_latency(name, from, to, latency)
            .map_err(domain)?;
    }

    for (i, f) in arch.items("flows")?.iter().enumerate() {
        let what = format!("flows[{i}]");
        let f = f.fields(&what, &["src", "target", "rate", "shape"])?;
        let src = processor(f.usize("src")?, &what)?;
        let target_what = format!("{what}.target");
        let target = f
            .req("target")?
            .fields(&target_what, &["processor", "bus"])?;
        let target = match (target.opt("processor"), target.opt("bus")) {
            (Some(p), None) => {
                FlowTarget::Processor(processor(p.usize("target.processor")?, &what)?)
            }
            (None, Some(bus_v)) => FlowTarget::Bus(bus(bus_v.usize("target.bus")?, &what)?),
            _ => {
                return Err(WireError::Schema(format!(
                    "{what}.target: expected exactly one of \"processor\" or \"bus\""
                )))
            }
        };
        let rate = f.finite_f64("rate")?;
        let shape = match f.opt("shape") {
            Some(s) => shape_from_json(s, &format!("{what}.shape"))?,
            None => TrafficShape::Poisson,
        };
        b.add_flow_shaped(src, target, rate, shape)
            .map_err(domain)?;
    }

    b.build().map_err(domain)
}

/// `ids[idx]`, or a schema error naming the out-of-range `kind` index.
fn by_index<T: Copy>(ids: &[T], idx: usize, what: &str, kind: &str) -> Result<T, WireError> {
    ids.get(idx)
        .copied()
        .ok_or_else(|| WireError::Schema(format!("{what}: {kind} index {idx} out of range")))
}

// ---------------------------------------------------------------------
// SizingConfig codec
// ---------------------------------------------------------------------

/// Serializes a [`SizingConfig`] as canonical JSON.
///
/// The `executor` field is deliberately **not** serialized: where block
/// solves run is an execution-site decision (a server attaches its own
/// pool), never part of a request's meaning — executors change wall
/// time, not results. [`sizing_config_from_json`] always returns the
/// serial default.
pub fn sizing_config_to_json(config: &SizingConfig) -> String {
    ObjWriter::render(|w| {
        w.usize("state_cap", config.state_cap)
            .usize("effort_levels", config.effort_levels)
            .f64("alpha", config.alpha)
            .f64("quantile", config.quantile)
            .f64("bus_effort_limit", config.bus_effort_limit)
            .str("engine", &config.engine.to_string())
            .bool("equilibrate", config.equilibrate);
    })
}

/// Parses a [`SizingConfig`]. Missing fields take their defaults (so
/// `{}` is the default configuration); unknown fields are rejected.
/// Range validation (state_cap ≥ 2, α ∈ (0,1], …) stays where it
/// always was — in the sizing pipeline's own `validate` — so wire and
/// local configs fail identically.
///
/// # Errors
///
/// [`WireError::Schema`] for unknown fields or type mismatches.
pub fn sizing_config_from_json(v: &JsonValue) -> Result<SizingConfig, WireError> {
    let f = v.fields(
        "config",
        &[
            "state_cap",
            "effort_levels",
            "alpha",
            "quantile",
            "bus_effort_limit",
            "engine",
            "equilibrate",
        ],
    )?;
    let d = SizingConfig::default();
    let finite = JsonValue::finite_f64;
    Ok(SizingConfig {
        state_cap: f.opt_or("state_cap", d.state_cap, JsonValue::usize)?,
        effort_levels: f.opt_or("effort_levels", d.effort_levels, JsonValue::usize)?,
        alpha: f.opt_or("alpha", d.alpha, finite)?,
        quantile: f.opt_or("quantile", d.quantile, finite)?,
        bus_effort_limit: f.opt_or("bus_effort_limit", d.bus_effort_limit, finite)?,
        engine: f.opt_or("engine", d.engine, |x, k| lp_engine_from_tag(x.str(k)?))?,
        equilibrate: f.opt_or("equilibrate", d.equilibrate, JsonValue::bool)?,
        ..d
    })
}

// ---------------------------------------------------------------------
// SizingOutcome codec
// ---------------------------------------------------------------------

fn push_outcome_semantic_fields(w: &mut ObjWriter<'_>, outcome: &SizingOutcome) {
    w.list("allocation", outcome.allocation.as_slice(), |out, u| {
        push_usize(out, *u)
    })
    .list("requirements", &outcome.requirements, |out, r| {
        push_usize(out, *r)
    })
    .list("efforts", &outcome.efforts, |out, curve| {
        push_list(out, curve, |out, e| push_f64(out, *e))
    })
    .f64("predicted_loss_rate", outcome.predicted_loss_rate)
    .f64("budget_shadow_price", outcome.budget_shadow_price)
    .bool("budget_row_relaxed", outcome.budget_row_relaxed)
    .str("lp_engine", &outcome.lp_engine.to_string())
    .obj("lp_scaling", |w| {
        w.bool("applied", outcome.lp_scaling.applied)
            .f64("condition_before", outcome.lp_scaling.condition_before)
            .f64("condition_after", outcome.lp_scaling.condition_after);
    });
}

/// Serializes the *semantic* content of a [`SizingOutcome`]: every
/// field that is a pure function of (architecture, config, budget) —
/// allocation, requirements, effort curves, predicted loss, shadow
/// price, relaxation flag, engine, scaling stats.
///
/// What it leaves out is `lp_iterations`: the pivot count is a property
/// of the *solve path* (cold start vs warm chain), not of the answer,
/// and the service layer's byte-parity contract — a warm cache hit must
/// answer byte-identically to a cold [`crate::size_buffers`] — is over
/// exactly this rendering. Pivot counts travel in the per-request trace
/// instead.
pub fn sizing_outcome_semantic_json(outcome: &SizingOutcome) -> String {
    ObjWriter::render(|w| push_outcome_semantic_fields(w, outcome))
}

/// Serializes a [`SizingOutcome`] in full, including the
/// path-dependent `lp_iterations` (see
/// [`sizing_outcome_semantic_json`] for why that field is segregated).
pub fn sizing_outcome_to_json(outcome: &SizingOutcome) -> String {
    ObjWriter::render(|w| {
        push_outcome_semantic_fields(w, outcome);
        w.usize("lp_iterations", outcome.lp_iterations);
    })
}

/// Parses a [`SizingOutcome`] (either rendering; `lp_iterations`
/// defaults to 0 when absent, as in the semantic form). Needs the
/// architecture the outcome belongs to, because a
/// [`BufferAllocation`] is only meaningful against its queue list.
///
/// # Errors
///
/// [`WireError::Schema`] for shape mismatches or an allocation whose
/// length disagrees with the architecture's queue count.
pub fn sizing_outcome_from_json(
    v: &JsonValue,
    arch: &Architecture,
) -> Result<SizingOutcome, WireError> {
    let f = v.fields(
        "outcome",
        &[
            "allocation",
            "requirements",
            "efforts",
            "predicted_loss_rate",
            "budget_shadow_price",
            "budget_row_relaxed",
            "lp_engine",
            "lp_scaling",
            "lp_iterations",
        ],
    )?;
    let units = f.list("allocation", |u| u.usize("allocation unit"))?;
    let allocation = BufferAllocation::new(arch, units)
        .map_err(|e| WireError::Schema(format!("outcome: {e}")))?;
    let requirements = f.list("requirements", |r| r.usize("requirement"))?;
    let efforts = f.list("efforts", |curve| {
        curve
            .arr("effort curve")?
            .iter()
            .map(|e| e.f64("effort"))
            .collect()
    })?;
    let scaling = f.req("lp_scaling")?.fields(
        "lp_scaling",
        &["applied", "condition_before", "condition_after"],
    )?;
    Ok(SizingOutcome {
        allocation,
        efforts,
        requirements,
        predicted_loss_rate: f.f64("predicted_loss_rate")?,
        budget_shadow_price: f.f64("budget_shadow_price")?,
        budget_row_relaxed: f.bool("budget_row_relaxed")?,
        lp_iterations: f.opt_or("lp_iterations", 0, JsonValue::usize)?,
        lp_engine: lp_engine_from_tag(f.str("lp_engine")?)?,
        lp_scaling: ScalingStats {
            applied: scaling.bool("applied")?,
            condition_before: scaling.f64("condition_before")?,
            condition_after: scaling.f64("condition_after")?,
        },
    })
}

// ---------------------------------------------------------------------
// Sharding codecs: campaign manifests and chunk reports
// ---------------------------------------------------------------------

/// FNV-1a 64-bit hash — the manifest's config-hash function. Chosen for
/// being trivially reimplementable anywhere (a shard written in another
/// language can verify a manifest), not for adversarial strength: the
/// hash detects *drift* (a coordinator and a shard disagreeing about
/// what campaign a chunk belongs to), it is not a signature.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a config hash the way it travels: 16 lowercase hex digits
/// (as a JSON string — a raw `u64` would not survive the wire's
/// exact-integer-below-2⁵³ number model).
pub fn config_hash_to_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses a config hash from its 16-hex-digit wire form; `what` names
/// the field in errors.
///
/// # Errors
///
/// [`WireError::Schema`] when `text` is not exactly 16 hex digits.
pub fn config_hash_from_hex(text: &str, what: &str) -> Result<u64, WireError> {
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(WireError::Schema(format!(
            "{what}: expected 16 hex digits, got \"{text}\""
        )));
    }
    u64::from_str_radix(text, 16)
        .map_err(|e| WireError::Schema(format!("{what}: invalid hash \"{text}\": {e}")))
}

/// One chunk's slice of a campaign's work list: the unit of scheduling,
/// locally (a `WorkPool` worker claims whole chunks) and remotely (a
/// coordinator dispatches whole chunks to shard servers). One chunk
/// is one warm chain: a single policy chunk, or several consecutive
/// ones when the manifest declares a coarser partition
/// ([`CampaignManifest::with_chunks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRange {
    /// Chunk index (position in the manifest's chunk list).
    pub chunk: usize,
    /// First work-item index covered (inclusive).
    pub start: usize,
    /// One past the last work-item index covered.
    pub end: usize,
}

/// A campaign: which sweep shape, over what inputs. Shapes are what
/// campaigns plan from — `socbuf-sweep`'s `BudgetSweep`, `LoadSweep`
/// and `RandomCampaign` each build one, and every local run, manifest
/// and shard chunk is planned from it. A shape carries no simulation
/// option: the campaign value adds that for local runs, and manifests
/// describe sizing-only campaigns.
///
/// (No `PartialEq`: `Architecture` deliberately doesn't implement it —
/// manifest equality is rendered-bytes equality, compare `to_json`.)
#[derive(Debug, Clone)]
pub enum ManifestShape {
    /// A budget grid on one architecture.
    Budget {
        /// The architecture every point sizes.
        arch: Architecture,
        /// Budget grid, one work item per entry.
        budgets: Vec<usize>,
        /// Whether chunks run as warm-start chains — must match the
        /// serial run a merge is compared against, since warm chains
        /// legitimately change per-point pivot counts.
        warm_start: bool,
    },
    /// A load-factor grid at one budget.
    Load {
        /// The nominal architecture.
        arch: Architecture,
        /// Buffer budget shared by every point.
        budget: usize,
        /// λ multipliers, one work item per entry.
        factors: Vec<f64>,
        /// See [`ManifestShape::Budget::warm_start`].
        warm_start: bool,
    },
    /// A random-architecture fan-out.
    Random {
        /// Generator knobs shared by every seed.
        params: RandomArchParams,
        /// Architecture seeds, one work item per entry.
        seeds: Vec<u64>,
        /// Budget granted per queue.
        units_per_queue: usize,
    },
}

impl ManifestShape {
    /// The campaign's stable kind tag (`"budget"`, `"load"`,
    /// `"random"`) — the same text `SweepKind::tag()` renders.
    pub fn kind_tag(&self) -> &'static str {
        match self {
            ManifestShape::Budget { .. } => "budget",
            ManifestShape::Load { .. } => "load",
            ManifestShape::Random { .. } => "random",
        }
    }

    /// Number of work items the campaign expands to.
    pub fn items(&self) -> usize {
        match self {
            ManifestShape::Budget { budgets, .. } => budgets.len(),
            ManifestShape::Load { factors, .. } => factors.len(),
            ManifestShape::Random { seeds, .. } => seeds.len(),
        }
    }

    /// Whether chunks execute as warm-start chains. Random campaigns
    /// never chain (every seed is a different architecture).
    pub fn warm_start(&self) -> bool {
        match self {
            ManifestShape::Budget { warm_start, .. } | ManifestShape::Load { warm_start, .. } => {
                *warm_start
            }
            ManifestShape::Random { .. } => false,
        }
    }

    /// The scheduling policy the shape's chunks must follow: warm
    /// chains use [`ChunkPolicy::WARM_CHAIN`], everything else
    /// [`ChunkPolicy::INDEPENDENT`]. Chunk boundaries are part of the
    /// campaign's *meaning* (a warm chain's pivot counts depend on
    /// where chains start), so the policy is derived, never chosen per
    /// execution site.
    pub fn chunk_policy(&self) -> ChunkPolicy {
        if self.warm_start() {
            ChunkPolicy::WARM_CHAIN
        } else {
            ChunkPolicy::INDEPENDENT
        }
    }

    /// The one campaign-usability check: a non-empty grid and, for a
    /// random campaign, a per-queue budget of at least 1. Planning,
    /// [`CampaignManifest::new`] and [`CampaignManifest::from_json`] all
    /// run it.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] naming the first violation.
    pub fn validate(&self) -> Result<(), WireError> {
        let bad = |msg: &str| Err(WireError::Schema(format!("manifest: {msg}")));
        match self {
            ManifestShape::Budget { budgets, .. } if budgets.is_empty() => bad("empty budget grid"),
            ManifestShape::Load { factors, .. } if factors.is_empty() => bad("empty factor grid"),
            ManifestShape::Random { seeds, .. } if seeds.is_empty() => bad("empty seed list"),
            ManifestShape::Random {
                units_per_queue: 0, ..
            } => bad("units_per_queue must be ≥ 1"),
            _ => Ok(()),
        }
    }
}

/// A sharded campaign's contract: the campaign itself (shape + sizing
/// config), the chunk partition of its work list, and a config hash
/// that pins chunk reports to exactly this campaign.
///
/// The chunk list is stored explicitly *and* required to be a
/// boundary-aligned partition under the shape's [`ChunkPolicy`] — the
/// policy's own partition by default, or a coarsening of it (each
/// chunk a union of consecutive policy chunks) built with
/// [`CampaignManifest::with_chunks`]. Explicit so a reducer can verify
/// coverage without re-deriving anything, constrained so every shard
/// assignment of these chunks merges byte-identically with the serial
/// single-host run (warm-chain boundaries are part of the bytes).
///
/// (No `PartialEq`, like [`ManifestShape`]: compare `to_json` bytes.)
#[derive(Debug, Clone)]
pub struct CampaignManifest {
    /// The campaign: sweep shape and inputs.
    pub shape: ManifestShape,
    /// Sizing configuration shared by every point.
    pub config: SizingConfig,
    /// Items per chunk (the shape's [`ChunkPolicy`] length).
    pub chunk_len: usize,
    /// The exact partition of `0..items` into chunks.
    pub chunks: Vec<ChunkRange>,
    /// FNV-1a 64 hash of the canonical `"campaign"` JSON text (shape +
    /// config). Chunk reports carry the same hash; the reducer refuses
    /// to merge reports whose hash disagrees with the manifest's.
    pub config_hash: u64,
}

impl CampaignManifest {
    /// Builds the manifest for a campaign: chunks derived from the
    /// shape's [`ChunkPolicy`], hash computed over the canonical
    /// campaign rendering.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] for unusable campaigns (empty grids, zero
    /// per-queue budget) — the same refusals the campaign itself makes
    /// at run time — and for inputs the wire cannot carry back: a
    /// non-finite load factor (it renders as `null`) or any rendered
    /// integer above 2⁵³ — a budget, a seed, `units_per_queue`, a count
    /// of the sizing config, the random params or the architecture (it
    /// would not parse back exactly). A local run accepts both.
    pub fn new(shape: ManifestShape, config: SizingConfig) -> Result<CampaignManifest, WireError> {
        let ranges = shape.chunk_policy().ranges(shape.items());
        CampaignManifest::with_chunks(shape, config, ranges)
    }

    /// Number of work items the campaign expands to.
    pub fn items(&self) -> usize {
        self.shape.items()
    }

    /// The canonical campaign subdocument — exactly the bytes the
    /// config hash covers.
    fn campaign_json(&self) -> String {
        let config = sizing_config_to_json(&self.config);
        ObjWriter::render(|w| {
            w.str("kind", self.shape.kind_tag());
            match &self.shape {
                ManifestShape::Budget {
                    arch,
                    budgets,
                    warm_start,
                } => {
                    w.raw("arch", &architecture_to_json(arch))
                        .raw("config", &config)
                        .list("budgets", budgets, |out, b| push_usize(out, *b))
                        .bool("warm_start", *warm_start);
                }
                ManifestShape::Load {
                    arch,
                    budget,
                    factors,
                    warm_start,
                } => {
                    w.raw("arch", &architecture_to_json(arch))
                        .raw("config", &config)
                        .usize("budget", *budget)
                        .list("factors", factors, |out, f| push_f64(out, *f))
                        .bool("warm_start", *warm_start);
                }
                ManifestShape::Random {
                    params,
                    seeds,
                    units_per_queue,
                } => {
                    w.raw("config", &config)
                        .raw("params", &random_params_to_json(params))
                        .list("seeds", seeds, |out, s| {
                            let _ = write!(out, "{s}");
                        })
                        .usize("units_per_queue", *units_per_queue);
                }
            }
        })
    }

    /// Serializes the manifest as canonical JSON.
    pub fn to_json(&self) -> String {
        ObjWriter::render(|w| {
            w.raw("campaign", &self.campaign_json())
                .usize("chunk_len", self.chunk_len)
                .list("chunks", &self.chunks, |out, c| {
                    ObjWriter::push(out, |w| {
                        w.usize("chunk", c.chunk)
                            .usize("start", c.start)
                            .usize("end", c.end);
                    })
                })
                .str("config_hash", &config_hash_to_hex(self.config_hash));
        })
    }

    /// Parses and fully re-validates a manifest: the campaign must be
    /// usable, the config hash must match a recomputation over the
    /// canonical campaign rendering (a stale hash — reports pinned to
    /// an edited campaign — is rejected), and the chunk list must be a
    /// boundary-aligned partition under the shape's [`ChunkPolicy`]
    /// (gaps, overlaps, misnumbered or misaligned chunks are each
    /// named in the error).
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] describing the first violation.
    pub fn from_json(v: &JsonValue) -> Result<CampaignManifest, WireError> {
        let f = v.fields(
            "manifest",
            &["campaign", "chunk_len", "chunks", "config_hash"],
        )?;
        let campaign = f.req("campaign")?;
        let shape = Self::shape_from_json(campaign)?;
        shape.validate()?;
        let config = sizing_config_from_json(campaign.member("campaign", "config")?)?;

        let declared_hash = config_hash_from_hex(f.str("config_hash")?, "config_hash")?;
        let chunk_len = f.usize("chunk_len")?;
        if chunk_len == 0 {
            return Err(WireError::Schema("manifest: chunk_len must be ≥ 1".into()));
        }
        let mut chunks = Vec::new();
        for (i, c) in f.items("chunks")?.iter().enumerate() {
            let what = format!("chunks[{i}]");
            let c = c.fields(&what, &["chunk", "start", "end"])?;
            chunks.push(ChunkRange {
                chunk: c.usize("chunk")?,
                start: c.usize("start")?,
                end: c.usize("end")?,
            });
        }

        let manifest = CampaignManifest {
            shape,
            config,
            chunk_len,
            chunks,
            config_hash: declared_hash,
        };

        // Hash check: recompute over the canonical campaign rendering.
        // (The parsed subtree re-renders to the exact original bytes —
        // objects preserve key order — so a matching hash really does
        // pin the same campaign text.)
        let recomputed = fnv1a_64(manifest.campaign_json().as_bytes());
        if recomputed != declared_hash {
            return Err(WireError::Schema(format!(
                "manifest: stale config hash: declared {} but campaign hashes to {}",
                config_hash_to_hex(declared_hash),
                config_hash_to_hex(recomputed)
            )));
        }
        manifest.validate_chunks()?;
        Ok(manifest)
    }

    fn shape_from_json(campaign: &JsonValue) -> Result<ManifestShape, WireError> {
        let kind = campaign.member("campaign", "kind")?.str("kind")?;
        let keys: &[&str] = match kind {
            "budget" => &["kind", "arch", "config", "budgets", "warm_start"],
            "load" => &["kind", "arch", "config", "budget", "factors", "warm_start"],
            "random" => &["kind", "config", "params", "seeds", "units_per_queue"],
            other => {
                return Err(WireError::Schema(format!(
                    "campaign: unknown kind \"{other}\""
                )))
            }
        };
        let f = campaign.fields("campaign", keys)?;
        Ok(match kind {
            "budget" => ManifestShape::Budget {
                arch: architecture_from_json(f.req("arch")?)?,
                budgets: f.list("budgets", |b| b.usize("budget"))?,
                warm_start: f.bool("warm_start")?,
            },
            "load" => {
                let arch = architecture_from_json(f.req("arch")?)?;
                let factors = f.list("factors", |x| x.finite_f64("factor"))?;
                ManifestShape::Load {
                    arch,
                    budget: f.usize("budget")?,
                    factors,
                    warm_start: f.bool("warm_start")?,
                }
            }
            _ => {
                let seeds = f.list("seeds", |s| s.u64("seed"))?;
                ManifestShape::Random {
                    params: random_params_from_json(f.req("params")?)?,
                    seeds,
                    units_per_queue: f.usize("units_per_queue")?,
                }
            }
        })
    }

    /// Builds the manifest with an explicit chunk partition that
    /// merges consecutive policy chunks into longer warm chains, so a
    /// large campaign ships fewer chunk frames (`scale_probe` declares
    /// 256-item chunks this way). The partition must be a
    /// boundary-aligned coarsening of the shape's [`ChunkPolicy`]
    /// partition ([`CampaignManifest::validate_chunks`] enforces this on
    /// parse too); the config hash is unchanged by construction, because
    /// chunking is not part of the hashed campaign text.
    ///
    /// # Errors
    ///
    /// As [`CampaignManifest::new`], plus [`WireError::Schema`] for a
    /// partition the scheduling policy cannot align with.
    pub fn with_chunks(
        shape: ManifestShape,
        config: SizingConfig,
        ranges: Vec<std::ops::Range<usize>>,
    ) -> Result<CampaignManifest, WireError> {
        shape.validate()?;
        refuse_unrenderable(&shape, &config)?;
        let chunks = ranges
            .into_iter()
            .enumerate()
            .map(|(chunk, r)| ChunkRange {
                chunk,
                start: r.start,
                end: r.end,
            })
            .collect();
        let mut manifest = CampaignManifest {
            chunk_len: shape.chunk_policy().chunk_len(),
            shape,
            config,
            chunks,
            config_hash: 0,
        };
        manifest.config_hash = fnv1a_64(manifest.campaign_json().as_bytes());
        manifest.validate_chunks()?;
        Ok(manifest)
    }

    /// Verifies the chunk list is a valid partition for the shape's
    /// scheduling policy: chunks numbered contiguously from 0, ranges
    /// non-empty and gap-free, and every boundary on a chain boundary
    /// of the policy — i.e. each chunk is a union of consecutive policy
    /// chunks. The policy's own partition is the finest accepted form;
    /// [`CampaignManifest::with_chunks`] builds coarser ones.
    ///
    /// This is the one chunk-partition check: construction and
    /// [`CampaignManifest::from_json`] run it, and so does planning,
    /// because the fields are public and may be edited in between.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] naming the first violation.
    pub fn validate_chunks(&self) -> Result<(), WireError> {
        let policy = self.shape.chunk_policy();
        if self.chunk_len != policy.chunk_len() {
            return Err(WireError::Schema(format!(
                "manifest: chunk_len {} does not match the campaign's scheduling policy ({})",
                self.chunk_len,
                policy.chunk_len()
            )));
        }
        let items = self.shape.items();
        let mut next = 0usize;
        for (i, c) in self.chunks.iter().enumerate() {
            if c.chunk != i {
                return Err(WireError::Schema(format!(
                    "manifest: chunks[{i}] is numbered {}, chunk indices must be contiguous from 0",
                    c.chunk
                )));
            }
            if c.start < next {
                return Err(WireError::Schema(format!(
                    "manifest: chunk {i} starts at {} — overlapping chunk ranges (chunk {} ends at {next})",
                    c.start,
                    i.wrapping_sub(1),
                )));
            }
            if c.start > next {
                return Err(WireError::Schema(format!(
                    "manifest: chunk {i} starts at {} — coverage gap before it (expected start {next})",
                    c.start
                )));
            }
            if c.end <= c.start {
                return Err(WireError::Schema(format!(
                    "manifest: chunk {i} is empty ({}..{})",
                    c.start, c.end
                )));
            }
            if !policy.is_chain_boundary(c.end, items) {
                return Err(WireError::Schema(format!(
                    "manifest: chunk {i} ends at {} but the scheduling policy requires a multiple of {} or the tail ({items})",
                    c.end,
                    policy.chunk_len()
                )));
            }
            next = c.end;
        }
        if next != items {
            return Err(WireError::Schema(format!(
                "manifest: chunks cover 0..{next} — coverage gap before the campaign's {items} items"
            )));
        }
        Ok(())
    }
}

/// Refuses, by name, the first value a manifest would render but could
/// not parse back exactly: a non-finite load factor (it renders as
/// `null`) or an integer above 2⁵³ (it would parse back rounded). That
/// covers every integer the campaign renders: the budgets, the seeds,
/// `units_per_queue`, the sizing config's and the random params'
/// counts, and the architecture's batch sizes (its indices are bounded
/// by its own length).
fn refuse_unrenderable(shape: &ManifestShape, config: &SizingConfig) -> Result<(), WireError> {
    fn exact(v: u64, what: impl FnOnce() -> String) -> Result<(), WireError> {
        if v > MAX_EXACT_INT as u64 {
            return Err(WireError::Schema(format!(
                "manifest: {} is {v}, above 2⁵³, the largest integer the wire carries exactly",
                what()
            )));
        }
        Ok(())
    }
    fn exact_all(vs: impl IntoIterator<Item = u64>, what: &str) -> Result<(), WireError> {
        vs.into_iter()
            .enumerate()
            .try_for_each(|(i, v)| exact(v, || format!("{what}[{i}]")))
    }
    fn exact_arch(arch: &Architecture) -> Result<(), WireError> {
        for (i, bus) in arch.bus_ids().enumerate() {
            if let BusArbitration::Locked { max_batch } = arch.bus(bus).arbitration() {
                exact(max_batch as u64, || format!("arch.buses[{i}].max_batch"))?;
            }
        }
        for (i, flow) in arch.flow_ids().enumerate() {
            if let TrafficShape::Burst { batch } = arch.flow(flow).shape() {
                exact(batch as u64, || format!("arch.flows[{i}].batch"))?;
            }
        }
        Ok(())
    }
    exact(config.state_cap as u64, || "config.state_cap".into())?;
    exact(config.effort_levels as u64, || {
        "config.effort_levels".into()
    })?;
    match shape {
        ManifestShape::Budget { arch, budgets, .. } => {
            exact_arch(arch)?;
            exact_all(budgets.iter().map(|&b| b as u64), "budgets")
        }
        ManifestShape::Load {
            arch,
            budget,
            factors,
            ..
        } => {
            if let Some((i, f)) = factors.iter().enumerate().find(|(_, f)| !f.is_finite()) {
                return Err(WireError::Schema(format!(
                    "manifest: factors[{i}] is {f}; the wire carries finite load factors only"
                )));
            }
            exact_arch(arch)?;
            exact(*budget as u64, || "budget".into())
        }
        ManifestShape::Random {
            params,
            seeds,
            units_per_queue,
        } => {
            exact_all(seeds.iter().copied(), "seeds")?;
            exact(*units_per_queue as u64, || "units_per_queue".into())?;
            let counts = [
                ("params.buses", params.buses),
                ("params.processors", params.processors),
                ("params.bridges", params.bridges),
                ("params.flows", params.flows),
            ];
            counts
                .into_iter()
                .try_for_each(|(what, v)| exact(v as u64, || what.into()))
        }
    }
}

/// Serializes [`RandomArchParams`] as canonical JSON.
pub fn random_params_to_json(p: &RandomArchParams) -> String {
    let (bus, flow) = (p.bus_rate_range, p.flow_rate_range);
    ObjWriter::render(|w| {
        w.usize("buses", p.buses)
            .usize("processors", p.processors)
            .usize("bridges", p.bridges)
            .usize("flows", p.flows)
            .list("bus_rate_range", [bus.0, bus.1], push_f64)
            .list("flow_rate_range", [flow.0, flow.1], push_f64)
            .f64("multi_home_prob", p.multi_home_prob);
    })
}

fn range_from_json(v: &JsonValue, what: &str) -> Result<(f64, f64), WireError> {
    let items = v.arr(what)?;
    if items.len() != 2 {
        return Err(WireError::Schema(format!(
            "{what}: expected a two-element range, got {} elements",
            items.len()
        )));
    }
    Ok((items[0].finite_f64(what)?, items[1].finite_f64(what)?))
}

/// Parses [`RandomArchParams`]. All fields are required; the
/// generator's own assertions (positive counts, ordered ranges) still
/// apply when the params are used.
///
/// # Errors
///
/// [`WireError::Schema`] for shape mismatches.
pub fn random_params_from_json(v: &JsonValue) -> Result<RandomArchParams, WireError> {
    let f = v.fields(
        "params",
        &[
            "buses",
            "processors",
            "bridges",
            "flows",
            "bus_rate_range",
            "flow_rate_range",
            "multi_home_prob",
        ],
    )?;
    Ok(RandomArchParams {
        buses: f.usize("buses")?,
        processors: f.usize("processors")?,
        bridges: f.usize("bridges")?,
        flows: f.usize("flows")?,
        bus_rate_range: range_from_json(f.req("bus_rate_range")?, "bus_rate_range")?,
        flow_rate_range: range_from_json(f.req("flow_rate_range")?, "flow_rate_range")?,
        multi_home_prob: f.finite_f64("multi_home_prob")?,
    })
}

/// One executed chunk's results, as they travel from a shard back to
/// the coordinator: the chunk's identity (campaign hash, kind, range)
/// plus the point records as opaque JSON objects (the sweep layer owns
/// the point schema; this codec only guarantees framing, coverage
/// metadata, and per-point index integrity).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkReport {
    /// The manifest's config hash — pins the report to its campaign.
    pub config_hash: u64,
    /// The campaign kind tag (`"budget"`, `"load"`, `"random"`).
    pub kind: String,
    /// Chunk index within the manifest.
    pub chunk: usize,
    /// First work-item index covered (inclusive).
    pub start: usize,
    /// One past the last work-item index covered.
    pub end: usize,
    /// One point object per item, in item order. Point objects carry no
    /// `frontier` field — the frontier is a *global* property of the
    /// merged report, recomputed by the reducer.
    pub points: Vec<JsonValue>,
}

impl ChunkReport {
    /// Serializes the report as one canonical JSON object.
    pub fn to_json(&self) -> String {
        render_chunk_report(
            self.config_hash,
            &self.kind,
            self.chunk,
            self.start..self.end,
            &self.points,
            |out, p| p.push(out),
        )
    }

    /// Parses the canonical rendering.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] for shape violations: an empty or reversed
    /// range, a point count that disagrees with the range, a point
    /// whose `index` is not `start + position`, or a point carrying a
    /// `frontier` field (which only the merged report may have).
    pub fn from_json(v: &JsonValue) -> Result<ChunkReport, WireError> {
        let f = v.fields(
            "chunk report",
            &["chunk", "kind", "config_hash", "start", "end", "points"],
        )?;
        let points = f.items("points")?.to_vec();
        let kind = f.str("kind")?;
        if !matches!(kind, "budget" | "load" | "random") {
            return Err(WireError::Schema(format!(
                "chunk report: unknown kind \"{kind}\""
            )));
        }
        let report = ChunkReport {
            config_hash: config_hash_from_hex(f.str("config_hash")?, "config_hash")?,
            kind: kind.to_string(),
            chunk: f.usize("chunk")?,
            start: f.usize("start")?,
            end: f.usize("end")?,
            points,
        };
        if report.end <= report.start {
            return Err(WireError::Schema(format!(
                "chunk report: empty range {}..{}",
                report.start, report.end
            )));
        }
        if report.points.len() != report.end - report.start {
            return Err(WireError::Schema(format!(
                "chunk report: range {}..{} needs {} points, got {}",
                report.start,
                report.end,
                report.end - report.start,
                report.points.len()
            )));
        }
        for (i, p) in report.points.iter().enumerate() {
            let what = format!("points[{i}]");
            let index = p.member(&what, "index")?.usize("index")?;
            if index != report.start + i {
                return Err(WireError::Schema(format!(
                    "chunk report: {what} has index {index}, expected {}",
                    report.start + i
                )));
            }
            if p.get("frontier").is_some() {
                return Err(WireError::Schema(format!(
                    "chunk report: {what} carries a \"frontier\" flag — the frontier is a \
                     global property only the merged report may render"
                )));
            }
        }
        Ok(report)
    }
}

/// Renders one chunk report from its identity and its points, each
/// appended as canonical JSON by `push_point`. [`ChunkReport::to_json`]
/// renders parsed points through it, and a shard renders solver output
/// through it directly, so both produce the same bytes without a
/// parse-and-re-render round trip.
pub fn render_chunk_report<P>(
    config_hash: u64,
    kind: &str,
    chunk: usize,
    range: std::ops::Range<usize>,
    points: &[P],
    mut push_point: impl FnMut(&mut String, &P),
) -> String {
    ObjWriter::render(|w| {
        w.usize("chunk", chunk)
            .str("kind", kind)
            .str("config_hash", &config_hash_to_hex(config_hash))
            .usize("start", range.start)
            .usize("end", range.end)
            .list("points", points, |out, p| push_point(out, p));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{size_buffers, SizingConfig};
    use socbuf_soc::templates;

    #[test]
    fn f64_writer_handles_non_finite_and_roundtrips_finite() {
        for (v, expect) in [
            (1.5, "1.5"),
            (0.0, "0"),
            (-0.0, "-0"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert_eq!(out, expect, "{v}");
        }
        // Shortest-round-trip Display: parse(render(x)) is bitwise x.
        for v in [0.1, 2.0 / 3.0, 1.2345678901234567e18, 5e-324] {
            let mut out = String::new();
            push_f64(&mut out, v);
            let back = out.parse::<f64>().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn scaled_architectures_survive_a_wire_round_trip_bit_for_bit() {
        // `scale_rates` must sum queue offered rates in the builder's
        // order, or the rebuilt architecture differs in the last ulp and
        // a served load point sizes differently from the in-process one.
        let config = SizingConfig::small();
        for arch in [
            templates::figure1(),
            templates::amba(),
            templates::coreconnect(),
            templates::network_processor(),
        ] {
            for step in 0..8 {
                let factor = 1.0 - 0.05 * step as f64;
                let scaled = arch.scale_rates(factor, 1.0).unwrap();
                let text = architecture_to_json(&scaled);
                let back = architecture_from_json(&JsonValue::parse(&text).unwrap()).unwrap();
                for q in scaled.queue_ids() {
                    assert_eq!(
                        scaled.queue(q).offered_rate.to_bits(),
                        back.queue(q).offered_rate.to_bits(),
                        "factor {factor}, queue {q:?}"
                    );
                }
                let a = size_buffers(&scaled, 40, &config).unwrap();
                let b = size_buffers(&back, 40, &config).unwrap();
                assert_eq!(a.allocation.as_slice(), b.allocation.as_slice());
                assert_eq!(
                    a.predicted_loss_rate.to_bits(),
                    b.predicted_loss_rate.to_bits(),
                    "factor {factor}"
                );
            }
        }
    }

    #[test]
    fn string_escaping_roundtrips() {
        let nasty = "quote\" backslash\\ newline\n tab\t nul\u{0} bell\u{7} \
                     unicode λµ😀 del\u{7f} \u{08}\u{0c}\r";
        let mut out = String::new();
        push_str(&mut out, nasty);
        assert!(!out.contains('\n'), "control chars must be escaped");
        let parsed = JsonValue::parse(&out).unwrap();
        assert_eq!(parsed, JsonValue::Str(nasty.to_string()));
    }

    #[test]
    fn parser_accepts_standard_json() {
        let v = JsonValue::parse(
            r#" { "a" : [ 1 , -2.5e3 , null , true ] , "b" : { "c" : "\u0041\ud83d\ude00" } } "#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().arr("a").unwrap().len(), 4);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().str("c").unwrap(),
            "A😀"
        );
        // Canonical re-render is stable: render(parse(render(x))) == render(x).
        let canon = v.render();
        assert_eq!(JsonValue::parse(&canon).unwrap().render(), canon);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "nul",
            "\"unterminated",
            "\"bad escape \\x\"",
            "\"\\ud800 unpaired\"",
            "1e999",
            "NaN",
            "inf",
            "01x",
            "[1] trailing",
            "{\"a\" 1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad:?}");
        }
        // Depth bomb exhausts the counter, not the stack.
        let bomb = "[".repeat(100_000);
        assert!(JsonValue::parse(&bomb).is_err());
    }

    #[test]
    fn parser_holds_numbers_to_the_json_grammar() {
        // Spellings `f64::from_str` takes but RFC 8259 forbids: each is
        // refused as an invalid number at the end of its run.
        for (bad, offset, run) in [
            ("01", 2, "01"),
            ("1.", 2, "1."),
            ("-.5", 3, "-.5"),
            ("1.e5", 4, "1.e5"),
            ("00.5", 4, "00.5"),
            ("-01.0", 5, "-01.0"),
            ("[1,-01]", 6, "-01"),
            ("{\"a\":2.}", 7, "2."),
            ("1e", 2, "1e"),
            ("1e+", 3, "1e+"),
            ("-", 1, "-"),
            ("1.5.2", 5, "1.5.2"),
            ("1e5e5", 5, "1e5e5"),
            ("2-1", 3, "2-1"),
        ] {
            assert_eq!(
                JsonValue::parse(bad),
                Err(WireError::Parse {
                    offset,
                    message: format!("invalid number \"{run}\""),
                }),
                "{bad:?}"
            );
        }
        for (good, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("7", 7.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.25", -0.25),
            ("1e5", 1e5),
            ("1E+5", 1e5),
            ("2.5e-3", 2.5e-3),
            ("-10.75E2", -1075.0),
        ] {
            assert_eq!(
                JsonValue::parse(good),
                Ok(JsonValue::Num(value)),
                "{good:?}"
            );
        }
        assert_eq!(
            JsonValue::parse("1e999"),
            Err(WireError::Parse {
                offset: 5,
                message: "number overflows f64".into(),
            })
        );
    }

    #[test]
    fn documents_record_the_span_of_each_top_level_value() {
        let text = r#" { "a" : [1, {"x": 2}] ,"b":"s\"q" , "c" :{ "d" : null } } "#;
        let doc = JsonDocument::parse(text).unwrap();
        assert_eq!(doc.value(), &JsonValue::parse(text).unwrap());
        assert_eq!(doc.raw("a"), Some(r#"[1, {"x": 2}]"#));
        assert_eq!(doc.raw("b"), Some(r#""s\"q""#));
        assert_eq!(doc.raw("c"), Some(r#"{ "d" : null }"#));
        assert_eq!(doc.raw("d"), None, "nested keys have no span");
        assert_eq!(doc.get("b").unwrap().str("b").unwrap(), "s\"q");
        // Non-object documents parse, with no spans to read.
        let arr = JsonDocument::parse("[1,2]").unwrap();
        assert_eq!(arr.raw("a"), None);
        assert_eq!(arr.value().arr("arr").unwrap().len(), 2);
        // Failures are exactly the tree parser's.
        for bad in ["{\"a\":1,\"a\":2}", "{\"a\":01}", "{\"a\":1} x", ""] {
            assert_eq!(
                JsonDocument::parse(bad).unwrap_err(),
                JsonValue::parse(bad).unwrap_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn architecture_roundtrips_through_json() {
        for arch in [
            templates::figure1(),
            templates::amba(),
            templates::coreconnect(),
            templates::network_processor(),
        ] {
            let json = architecture_to_json(&arch);
            let parsed = JsonValue::parse(&json).unwrap();
            let back = architecture_from_json(&parsed).unwrap();
            // Canonical serialization is the equality witness: the
            // decoded architecture re-serializes byte-identically…
            assert_eq!(architecture_to_json(&back), json);
            // …and behaves identically end to end.
            let cfg = SizingConfig::small();
            let a = size_buffers(&arch, 16, &cfg).unwrap();
            let b = size_buffers(&back, 16, &cfg).unwrap();
            assert_eq!(a.allocation.as_slice(), b.allocation.as_slice());
            assert_eq!(a.lp_iterations, b.lp_iterations);
            assert_eq!(
                a.predicted_loss_rate.to_bits(),
                b.predicted_loss_rate.to_bits()
            );
        }
    }

    #[test]
    fn architecture_with_hostile_names_roundtrips() {
        let mut b = socbuf_soc::ArchitectureBuilder::new();
        let x = b.add_bus("bus \"zero\"\\\n", 1.0).unwrap();
        let y = b.add_bus("μ-bus\t", 2.0).unwrap();
        let p = b.add_processor("p\u{1}🚌", &[x], 1.5).unwrap();
        b.add_bridge("br\ridge", x, y).unwrap();
        b.add_flow(p, FlowTarget::Bus(y), 0.25).unwrap();
        let arch = b.build().unwrap();
        let json = architecture_to_json(&arch);
        let back = architecture_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(architecture_to_json(&back), json);
        assert_eq!(
            back.bus(back.bus_ids().next().unwrap()).name(),
            "bus \"zero\"\\\n"
        );
    }

    #[test]
    fn architecture_schema_violations_are_rejected() {
        let good = architecture_to_json(&templates::amba());
        for (mutate, why) in [
            (good.replace("\"flows\"", "\"streams\""), "unknown field"),
            (
                good.replace("\"service_rate\":2", "\"service_rate\":null"),
                "null rate",
            ),
            (good.replace("\"from\":0", "\"from\":99"), "bus index range"),
            (good.replace("\"src\":0", "\"src\":99"), "proc index range"),
            (
                good.replace("\"rate\":0.8", "\"rate\":-0.8"),
                "negative rate",
            ),
            (
                good.replace("\"rate\":0.8", "\"rate\":\"fast\""),
                "rate type",
            ),
        ] {
            assert_ne!(mutate, good, "mutation was a no-op ({why})");
            let parsed = match JsonValue::parse(&mutate) {
                Ok(p) => p,
                Err(_) => continue, // mutation broke the JSON itself — fine
            };
            assert!(
                architecture_from_json(&parsed).is_err(),
                "accepted mutation ({why})"
            );
        }
    }

    #[test]
    fn plain_architectures_never_emit_extended_keys() {
        // Default semantics stay off the wire, so documents produced
        // before the extended declarations existed parse unchanged and
        // plain architectures keep their historical canonical bytes.
        for arch in [
            templates::figure1(),
            templates::amba(),
            templates::coreconnect(),
            templates::network_processor(),
        ] {
            let json = architecture_to_json(&arch);
            for key in ["arbitration", "latency", "shape"] {
                assert!(
                    !json.contains(&format!("\"{key}\"")),
                    "plain architecture emitted \"{key}\": {json}"
                );
            }
        }
    }

    #[test]
    fn extended_architecture_roundtrips_through_json() {
        use socbuf_soc::{BusArbitration, TrafficShape};
        let mut b = socbuf_soc::ArchitectureBuilder::new();
        let x = b
            .add_bus_with_arbitration("x", 2.0, BusArbitration::Priority)
            .unwrap();
        let y = b
            .add_bus_with_arbitration("y", 3.0, BusArbitration::Locked { max_batch: 4 })
            .unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        let q = b.add_processor("q", &[y], 1.0).unwrap();
        b.add_bridge_with_latency("g", x, y, 0.125).unwrap();
        b.add_flow_shaped(
            p,
            FlowTarget::Processor(q),
            0.5,
            TrafficShape::Burst { batch: 6 },
        )
        .unwrap();
        b.add_flow_shaped(
            q,
            FlowTarget::Bus(y),
            0.25,
            TrafficShape::OnOff {
                mean_on: 2.0,
                mean_off: 8.0,
            },
        )
        .unwrap();
        let arch = b.build().unwrap();
        assert!(arch.uses_extended_semantics());

        let json = architecture_to_json(&arch);
        let back = architecture_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(architecture_to_json(&back), json);

        // The declarations survive the trip semantically too.
        let buses: Vec<_> = back.bus_ids().map(|b| back.bus(b).arbitration()).collect();
        assert_eq!(
            buses,
            [
                BusArbitration::Priority,
                BusArbitration::Locked { max_batch: 4 }
            ]
        );
        let g = back.bridge_ids().next().unwrap();
        assert_eq!(back.bridge(g).latency(), 0.125);
        let shapes: Vec<_> = back.flow_ids().map(|f| back.flow(f).shape()).collect();
        assert_eq!(
            shapes,
            [
                TrafficShape::Burst { batch: 6 },
                TrafficShape::OnOff {
                    mean_on: 2.0,
                    mean_off: 8.0
                }
            ]
        );
    }

    #[test]
    fn malformed_extended_declarations_are_rejected() {
        use socbuf_soc::{BusArbitration, TrafficShape};
        let mut b = socbuf_soc::ArchitectureBuilder::new();
        let x = b
            .add_bus_with_arbitration("x", 2.0, BusArbitration::Locked { max_batch: 4 })
            .unwrap();
        let p = b.add_processor("p", &[x], 1.0).unwrap();
        b.add_flow_shaped(p, FlowTarget::Bus(x), 0.5, TrafficShape::Burst { batch: 6 })
            .unwrap();
        let good = architecture_to_json(&b.build().unwrap());
        for (mutate, why) in [
            (
                good.replace("{\"locked\":4}", "\"round_robin\""),
                "unknown arbitration tag",
            ),
            (
                good.replace("{\"locked\":4}", "{\"locked\":4,\"x\":1}"),
                "unknown arbitration field",
            ),
            (
                good.replace("{\"locked\":4}", "{\"locked\":-1}"),
                "negative batch",
            ),
            (
                good.replace("{\"burst\":6}", "{\"burst\":6,\"on_off\":{}}"),
                "ambiguous shape",
            ),
            (good.replace("{\"burst\":6}", "{}"), "empty shape"),
            (
                good.replace("{\"burst\":6}", "{\"on_off\":{\"mean_on\":1.0}}"),
                "missing mean_off",
            ),
        ] {
            assert_ne!(mutate, good, "mutation was a no-op ({why})");
            let parsed = JsonValue::parse(&mutate).unwrap();
            assert!(
                architecture_from_json(&parsed).is_err(),
                "accepted mutation ({why})"
            );
        }
    }

    #[test]
    fn sizing_config_roundtrips_and_defaults() {
        for engine in LpEngine::ALL {
            let config = SizingConfig {
                state_cap: 12,
                effort_levels: 5,
                alpha: 0.75,
                quantile: 0.9,
                bus_effort_limit: 0.8,
                engine,
                equilibrate: false,
                ..SizingConfig::default()
            };
            let json = sizing_config_to_json(&config);
            let back = sizing_config_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
            assert_eq!(sizing_config_to_json(&back), json);
        }
        // Empty object = the default config.
        let d = sizing_config_from_json(&JsonValue::parse("{}").unwrap()).unwrap();
        assert_eq!(
            sizing_config_to_json(&d),
            sizing_config_to_json(&SizingConfig::default())
        );
        // Unknown fields fail loudly.
        assert!(sizing_config_from_json(&JsonValue::parse("{\"state_cup\":8}").unwrap()).is_err());
        // Unknown engines fail loudly.
        assert!(
            sizing_config_from_json(&JsonValue::parse("{\"engine\":\"quantum\"}").unwrap())
                .is_err()
        );
    }

    #[test]
    fn sizing_outcome_roundtrips_both_renderings() {
        let arch = templates::figure1();
        let outcome = size_buffers(&arch, 22, &SizingConfig::small()).unwrap();

        let full = sizing_outcome_to_json(&outcome);
        let back = sizing_outcome_from_json(&JsonValue::parse(&full).unwrap(), &arch).unwrap();
        assert_eq!(sizing_outcome_to_json(&back), full);
        assert_eq!(back.lp_iterations, outcome.lp_iterations);
        assert_eq!(back.lp_engine, outcome.lp_engine);

        let semantic = sizing_outcome_semantic_json(&outcome);
        assert!(!semantic.contains("lp_iterations"));
        let back = sizing_outcome_from_json(&JsonValue::parse(&semantic).unwrap(), &arch).unwrap();
        assert_eq!(sizing_outcome_semantic_json(&back), semantic);
        assert_eq!(back.allocation.as_slice(), outcome.allocation.as_slice());
    }

    #[test]
    fn non_finite_outcome_fields_render_as_null_and_parse_back_as_nan() {
        let arch = templates::figure1();
        let mut outcome = size_buffers(&arch, 22, &SizingConfig::small()).unwrap();
        outcome.predicted_loss_rate = f64::NAN;
        outcome.budget_shadow_price = f64::NEG_INFINITY;
        let json = sizing_outcome_to_json(&outcome);
        assert!(json.contains("\"predicted_loss_rate\":null"));
        let parsed = JsonValue::parse(&json).expect("non-finite fields must not break the JSON");
        let back = sizing_outcome_from_json(&parsed, &arch).unwrap();
        assert!(back.predicted_loss_rate.is_nan());
        assert!(back.budget_shadow_price.is_nan());
    }
}

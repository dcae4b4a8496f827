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
//! All floats go through one shared writer, [`push_f64`] ([`num`] as a `Display`):
//!
//! * finite values render via `f64`'s `Display` (shortest decimal that
//!   round-trips, so bit-identical inputs give byte-identical text);
//! * **non-finite values render as `null`** — bare `NaN` / `inf`, which
//!   `Display` would otherwise produce, are not JSON. Parsers map the
//!   `null` back to `f64::NAN` where a float field expects a number.
//!
//! Integer-valued fields (budgets, counts, indices) render as plain
//! integers and are rejected on parse if they arrive negative,
//! fractional, or beyond 2⁵³ (where `f64` stops being exact). A number
//! read from a parsed document is held to its literal, not its `f64`:
//! `9007199254740993` rounds to 2⁵³ but is refused.
//!
//! # Parsing
//!
//! There is one JSON parser, [`JsonDocument::parse`]. It reads the text
//! once into a *tape*: one `Vec` of nodes in document order, each with
//! its kind, its byte span in the borrowed text, the index just past
//! its subtree, and a number's `f64` (the layout of simdjson's tape,
//! Langdale & Lemire 2019). A string is unescaped only when it holds an
//! escape; every other string is a slice of the text. A canonical frame
//! therefore parses with one allocation, and its top-level fields' raw
//! bytes ([`JsonDocument::raw`]) come from their nodes' spans.
//! [`JsonValue::parse`] builds an owned tree from the tape for callers
//! that keep or edit a value. A duplicate key, compared unescaped, is
//! refused; an object rescans its earlier keys for it while it has few
//! and checks a set of their hashes past that, so the check stays
//! linear in the key count.
//!
//! # Records
//!
//! Every record codec in the workspace goes through one reader and one
//! writer defined here. A decoder is written once, generic over
//! [`JsonRead`], which a [`JsonRef`] cursor into a document's tape and
//! a `&JsonValue` both implement. It opens its object with
//! [`JsonRead::fields`], which refuses any key outside the record's
//! list, then reads each field through [`Fields`], which names the
//! record in missing-field errors and the key in type errors. A
//! renderer writes through [`ObjWriter`], which owns key quoting and
//! separators. Unknown keys are refused in every record.

use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::BuildHasher as _;

use socbuf_lp::{ChunkPolicy, LpEngine, ScalingStats};
use socbuf_soc::templates::RandomArchParams;
use socbuf_soc::{
    Architecture, ArchitectureBuilder, BufferAllocation, BusArbitration, FlowTarget, TrafficShape,
};

use crate::pipeline::SizingOutcome;
use crate::SizingConfig;

/// Maximum nesting depth [`JsonDocument::parse`] accepts. The codecs here
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
    let _ = write!(out, "{}", num(v));
}

/// `v` as [`push_f64`] writes it, for renderers that format with
/// `write!`: a float has one spelling on the wire and in every report.
pub fn num(v: f64) -> impl std::fmt::Display {
    struct Num(f64);
    impl std::fmt::Display for Num {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            if self.0.is_finite() {
                write!(f, "{}", self.0)
            } else {
                f.write_str("null")
            }
        }
    }
    Num(v)
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
// Owned values
// ---------------------------------------------------------------------

/// An owned JSON value. Objects preserve key order (they are
/// association lists, not maps), so `render ∘ parse` is the identity on
/// canonical text.
///
/// Frames decode from a [`JsonDocument`] without building one; an
/// owned value is for callers that keep or edit a value (a test's
/// mutated record). `&JsonValue` is read through [`JsonRead`], as a
/// document is.
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
    /// an error) into an owned value.
    ///
    /// # Errors
    ///
    /// Exactly those of [`JsonDocument::parse`].
    pub fn parse(text: &str) -> Result<JsonValue, WireError> {
        Ok(JsonDocument::parse(text)?.value().to_value())
    }

    /// Appends this value in canonical form (no whitespace, floats via
    /// [`push_f64`], strings via [`push_str`]).
    pub fn push(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => push_f64(out, *v),
            JsonValue::Str(s) => push_str(out, s),
            JsonValue::Arr(items) => push_list(out, items, |out, item| item.push(out)),
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
}

// ---------------------------------------------------------------------
// The reader every decoder goes through
// ---------------------------------------------------------------------

/// One JSON value as a [`JsonRead`] reader sees it.
pub enum JsonView<'a, V: JsonRead<'a>> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, with its literal when it was read from text (an owned
    /// value has lost it).
    Num(f64, Option<&'a str>),
    /// A string's unescaped contents.
    Str(&'a str),
    /// An array's items, in order.
    Arr(V::Items),
    /// An object's members, key and value, in order.
    Obj(V::Members),
}

impl<'a, V: JsonRead<'a>> JsonView<'a, V> {
    /// Short type tag for error messages.
    fn kind(&self) -> &'static str {
        match self {
            JsonView::Null => "null",
            JsonView::Bool(_) => "a boolean",
            JsonView::Num(..) => "a number",
            JsonView::Str(_) => "a string",
            JsonView::Arr(_) => "an array",
            JsonView::Obj(_) => "an object",
        }
    }

    /// A schema error: `what` expected `want` and got this value.
    fn expected(&self, what: &str, want: &str) -> WireError {
        WireError::Schema(format!("{what}: expected {want}, got {}", self.kind()))
    }
}

fn missing(parent: &str, key: &str) -> WireError {
    WireError::Schema(format!("{parent}: missing field \"{key}\""))
}

/// Read access to one JSON value, with the typed reads every record
/// decoder uses. A [`JsonRef`] (a cursor into a parsed document's
/// tape) and a `&JsonValue` (an owned value) both implement it, so each
/// decoder is written once, generic over the reader.
///
/// Each typed read names `what` (the field or record) in its error.
pub trait JsonRead<'a>: Copy {
    /// An array's items, in order.
    type Items: ExactSizeIterator<Item = Self> + Clone;
    /// An object's members, key and value, in order.
    type Members: Iterator<Item = (&'a str, Self)> + Clone;

    /// This value, by kind.
    fn view(self) -> JsonView<'a, Self>;

    /// This value as an owned tree.
    fn to_value(self) -> JsonValue {
        match self.view() {
            JsonView::Null => JsonValue::Null,
            JsonView::Bool(b) => JsonValue::Bool(b),
            JsonView::Num(v, _) => JsonValue::Num(v),
            JsonView::Str(s) => JsonValue::Str(s.to_string()),
            JsonView::Arr(items) => JsonValue::Arr(items.map(Self::to_value).collect()),
            JsonView::Obj(members) => JsonValue::Obj(
                members
                    .map(|(k, v)| (k.to_string(), v.to_value()))
                    .collect(),
            ),
        }
    }

    /// An object's member (`None` for non-objects and missing keys).
    fn get(self, key: &str) -> Option<Self> {
        match self.view() {
            JsonView::Obj(mut members) => members.find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array's items, or a schema error naming `what`.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] if this is not an array.
    fn arr(self, what: &str) -> Result<Self::Items, WireError> {
        match self.view() {
            JsonView::Arr(items) => Ok(items),
            other => Err(other.expected(what, "an array")),
        }
    }

    /// The string's contents, or a schema error naming `what`.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] if this is not a string.
    fn str(self, what: &str) -> Result<&'a str, WireError> {
        match self.view() {
            JsonView::Str(s) => Ok(s),
            other => Err(other.expected(what, "a string")),
        }
    }

    /// The boolean, or a schema error naming `what`.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] if this is not a boolean.
    fn bool(self, what: &str) -> Result<bool, WireError> {
        match self.view() {
            JsonView::Bool(b) => Ok(b),
            other => Err(other.expected(what, "a boolean")),
        }
    }

    /// The number as `f64`; `null` maps to `f64::NAN` (the wire
    /// spelling of a non-finite float — see [`push_f64`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] if this is neither a number nor `null`.
    fn f64(self, what: &str) -> Result<f64, WireError> {
        match self.view() {
            JsonView::Num(v, _) => Ok(v),
            JsonView::Null => Ok(f64::NAN),
            other => Err(other.expected(what, "a number")),
        }
    }

    /// A finite number — `null` (non-finite) is rejected, unlike
    /// [`JsonRead::f64`].
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] for non-numbers and `null`.
    fn finite_f64(self, what: &str) -> Result<f64, WireError> {
        match self.view() {
            JsonView::Num(v, _) => Ok(v),
            other => Err(other.expected(what, "a finite number")),
        }
    }

    /// The number as `usize`: its exact value must be a non-negative
    /// integer no larger than 2⁵³. A number read from a document is
    /// held to its literal, so `9007199254740993` and
    /// `9007199254740992.5` are refused though both round to the
    /// integer 2⁵³, and the error quotes the literal whenever the `f64`
    /// would misquote it. An owned [`JsonValue`] has lost the literal,
    /// so it is held to its `f64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] for non-numbers, negatives, fractions, and
    /// values beyond 2⁵³.
    fn usize(self, what: &str) -> Result<usize, WireError> {
        let (v, literal) = match self.view() {
            JsonView::Num(v, literal) => (v, literal),
            other => return Err(other.expected(what, "a finite number")),
        };
        let exact = match literal {
            Some(text) => Decimal::read(text).exact_uint(),
            None => (v >= 0.0 && v.fract() == 0.0 && v <= MAX_EXACT_INT).then_some(v as u64),
        };
        if let Some(n) = exact {
            return Ok(n as usize);
        }
        let shown = v.to_string();
        let got = literal
            .filter(|text| !Decimal::read(text).same_value(&Decimal::read(&shown)))
            .unwrap_or(&shown);
        Err(WireError::Schema(format!(
            "{what}: expected a non-negative integer, got {got}"
        )))
    }

    /// The number as `u64` (same rules as [`JsonRead::usize`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] for non-numbers, negatives, fractions, and
    /// values beyond 2⁵³.
    fn u64(self, what: &str) -> Result<u64, WireError> {
        Ok(self.usize(what)? as u64)
    }

    /// This record's fields under its key list `names`, `parent` naming
    /// the record in every error: the reader every record decoder goes
    /// through. Refuses a non-object and the first key outside `names`,
    /// so a typo in a hand-written record fails loudly.
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] for a non-object or an unknown key.
    fn fields<'p>(self, parent: &'p str, names: &[&str]) -> Result<Fields<'p, Self>, WireError> {
        let mut members = match self.view() {
            JsonView::Obj(members) => members,
            other => return Err(other.expected(parent, "an object")),
        };
        if let Some((k, _)) = members.find(|(k, _)| !names.contains(k)) {
            return Err(WireError::Schema(format!(
                "{parent}: unknown field \"{k}\" (expected one of {names:?})"
            )));
        }
        Ok(Fields { parent, obj: self })
    }

    /// A required member of a record whose key list depends on a tag it
    /// carries (a request's verb, a campaign's kind), or of an object
    /// another layer owns; errors as [`Fields::req`].
    ///
    /// # Errors
    ///
    /// [`WireError::Schema`] when the member is missing.
    fn member(self, parent: &str, key: &str) -> Result<Self, WireError> {
        self.get(key).ok_or_else(|| missing(parent, key))
    }
}

impl<'a> JsonRead<'a> for &'a JsonValue {
    type Items = std::slice::Iter<'a, JsonValue>;
    type Members = std::iter::Map<
        std::slice::Iter<'a, (String, JsonValue)>,
        fn(&'a (String, JsonValue)) -> (&'a str, &'a JsonValue),
    >;

    #[inline]
    fn view(self) -> JsonView<'a, Self> {
        match self {
            JsonValue::Null => JsonView::Null,
            JsonValue::Bool(b) => JsonView::Bool(*b),
            JsonValue::Num(v) => JsonView::Num(*v, None),
            JsonValue::Str(s) => JsonView::Str(s),
            JsonValue::Arr(items) => JsonView::Arr(items.iter()),
            JsonValue::Obj(fields) => {
                let member: fn(&'a (String, JsonValue)) -> (&'a str, Self) = |(k, v)| (k, v);
                JsonView::Obj(fields.iter().map(member))
            }
        }
    }
}

/// One record's fields, checked against its key list by
/// [`JsonRead::fields`]. Each typed read names the key in its type
/// error and the record in its missing-field error.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'p, V> {
    parent: &'p str,
    obj: V,
}

impl<'a, V: JsonRead<'a>> Fields<'_, V> {
    /// An optional field's value.
    pub fn opt(&self, key: &str) -> Option<V> {
        self.obj.get(key)
    }

    /// An optional field read by `read` (given the value and the key),
    /// or `default` when the field is absent.
    pub fn opt_or<T>(
        &self,
        key: &str,
        default: T,
        read: impl FnOnce(V, &str) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        self.opt(key).map_or(Ok(default), |v| read(v, key))
    }

    /// A required field's value; missing, it reads `<parent>: missing field "<key>"`.
    pub fn req(&self, key: &str) -> Result<V, WireError> {
        self.opt(key).ok_or_else(|| missing(self.parent, key))
    }

    /// A required field that may be `null` (`None`).
    pub fn nullable(&self, key: &str) -> Result<Option<V>, WireError> {
        self.req(key)
            .map(|v| (!matches!(v.view(), JsonView::Null)).then_some(v))
    }

    /// A required [`JsonRead::usize`] field; errors as [`Fields::req`] and that read.
    pub fn usize(&self, key: &str) -> Result<usize, WireError> {
        self.req(key)?.usize(key)
    }

    /// A required [`JsonRead::u64`] field; errors as [`Fields::req`] and that read.
    pub fn u64(&self, key: &str) -> Result<u64, WireError> {
        self.req(key)?.u64(key)
    }

    /// A required [`JsonRead::f64`] field; errors as [`Fields::req`] and that read.
    pub fn f64(&self, key: &str) -> Result<f64, WireError> {
        self.req(key)?.f64(key)
    }

    /// A required [`JsonRead::finite_f64`] field; errors as [`Fields::req`] and that read.
    pub fn finite_f64(&self, key: &str) -> Result<f64, WireError> {
        self.req(key)?.finite_f64(key)
    }

    /// A required [`JsonRead::bool`] field; errors as [`Fields::req`] and that read.
    pub fn bool(&self, key: &str) -> Result<bool, WireError> {
        self.req(key)?.bool(key)
    }

    /// A required [`JsonRead::str`] field; errors as [`Fields::req`] and that read.
    pub fn str(&self, key: &str) -> Result<&'a str, WireError> {
        self.req(key)?.str(key)
    }

    /// A required [`JsonRead::arr`] field; errors as [`Fields::req`] and that read.
    pub fn items(&self, key: &str) -> Result<V::Items, WireError> {
        self.req(key)?.arr(key)
    }

    /// A required array field, each item decoded by `item` in order
    /// into a vector sized once from the array's length.
    pub fn list<T>(
        &self,
        key: &str,
        item: impl FnMut(V) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let items = self.items(key)?;
        let mut out = Vec::with_capacity(items.len());
        items.map(item).try_for_each(|v| v.map(|v| out.push(v)))?;
        Ok(out)
    }
}

/// A JSON number literal's exact decimal value, read from its text:
/// `±0.d₁…dₙ × 10^point`, where `d₁…dₙ` are the significant digits
/// (`n = 0` for zero).
struct Decimal<'s> {
    negative: bool,
    /// The digits before and after the decimal point, in order.
    int: &'s [u8],
    frac: &'s [u8],
    /// Positions of the first and one past the last significant digit
    /// in `int` followed by `frac`.
    first: usize,
    last: usize,
    /// Where the decimal point sits, counted from the first
    /// significant digit.
    point: i64,
}

impl<'s> Decimal<'s> {
    /// Reads `text`, which holds to the JSON number grammar (as every
    /// literal on the tape does, and as `f64`'s `Display` does).
    fn read(text: &'s str) -> Decimal<'s> {
        let bytes = text.as_bytes();
        let negative = bytes.first() == Some(&b'-');
        let body = &bytes[usize::from(negative)..];
        let (mantissa, exp) = match body.iter().position(|b| matches!(b, b'e' | b'E')) {
            Some(e) => (&body[..e], &body[e + 1..]),
            None => (body, &[][..]),
        };
        let (int, frac) = match mantissa.iter().position(|&b| b == b'.') {
            Some(p) => (&mantissa[..p], &mantissa[p + 1..]),
            None => (mantissa, &[][..]),
        };
        // Exponents beyond ±10⁹ only mean "far from any integer ≤ 2⁵³".
        let magnitude = exp
            .iter()
            .filter(|b| b.is_ascii_digit())
            .fold(0i64, |e, &b| {
                (e * 10 + i64::from(b - b'0')).min(1_000_000_000)
            });
        let exp = if exp.first() == Some(&b'-') {
            -magnitude
        } else {
            magnitude
        };
        let digits = || int.iter().chain(frac);
        let n = int.len() + frac.len();
        let first = digits().position(|&b| b != b'0').unwrap_or(n);
        let last = n - digits().rev().position(|&b| b != b'0').unwrap_or(n - first);
        Decimal {
            negative,
            int,
            frac,
            first,
            last,
            point: int.len() as i64 - first as i64 + exp,
        }
    }

    fn digits(&self) -> impl Iterator<Item = u8> + '_ {
        self.int
            .iter()
            .chain(self.frac)
            .take(self.last)
            .skip(self.first)
            .map(|b| b - b'0')
    }

    /// The value, when it is an integer in `0..=2⁵³`.
    fn exact_uint(&self) -> Option<u64> {
        let n = (self.last - self.first) as i64;
        if n == 0 {
            return Some(0);
        }
        // An integer needs its point at or past its last digit; one
        // with more than 16 digits is above 2⁵³ (9.0e15).
        if self.negative || self.point < n || self.point > 16 {
            return None;
        }
        let v = self.digits().fold(0u64, |v, d| v * 10 + u64::from(d));
        let v = v * 10u64.pow((self.point - n) as u32);
        (v <= MAX_EXACT_INT as u64).then_some(v)
    }

    /// Whether both texts spell the same number.
    fn same_value(&self, other: &Decimal<'_>) -> bool {
        let zero = self.first == self.last;
        if zero || other.first == other.last {
            return zero && other.first == other.last;
        }
        self.negative == other.negative
            && self.point == other.point
            && self.digits().eq(other.digits())
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

// ---------------------------------------------------------------------
// The tape
// ---------------------------------------------------------------------

/// What a tape node holds besides its span.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tag {
    Null,
    Bool(bool),
    Num(f64),
    /// A string without escapes: its contents are its span less the
    /// quotes.
    Str,
    /// A string with escapes: its contents are `unescaped[from..to]`.
    Escaped(usize, usize),
    /// An array of this many items.
    Arr(usize),
    /// An object of this many members.
    Obj(usize),
}

/// One value on the tape.
#[derive(Debug, Clone, Copy)]
struct Node {
    tag: Tag,
    /// Byte span of the value in the text (a string's includes its
    /// quotes).
    start: usize,
    end: usize,
    /// Tape index one past this node's subtree.
    next: usize,
}

/// A JSON document parsed once into a tape over its borrowed text.
///
/// The tape is one `Vec` of nodes in document order: every value, with
/// its kind, its byte span in the text and the index just past its
/// subtree, and a number's `f64`. An array's items follow its node; an
/// object's members follow its node as a key node then the value's
/// subtree. A string is unescaped only when it holds an escape, into
/// one buffer the document owns; every other string is a slice of the
/// text. So a canonical frame parses with one allocation, the tape.
///
/// [`JsonDocument::value`] is a [`JsonRef`] cursor into the tape, read
/// through [`JsonRead`] like an owned value. A protocol frame is an
/// object whose fields are whole payloads (an architecture, a config,
/// an outcome); [`JsonDocument::raw`] gives a top-level field's own
/// bytes from its node's span, so a reader can key on a payload or copy
/// it out instead of rendering its subtree again.
///
/// This is the workspace's one JSON parser: [`JsonValue::parse`] builds
/// its owned tree from the tape.
#[derive(Debug)]
pub struct JsonDocument<'t> {
    text: &'t str,
    nodes: Vec<Node>,
    /// The contents of every string that holds an escape.
    unescaped: String,
}

impl<'t> JsonDocument<'t> {
    /// Parses `text` as one JSON document (trailing non-whitespace is
    /// an error).
    ///
    /// # Errors
    ///
    /// [`WireError::Parse`] with the byte offset of the first problem.
    pub fn parse(text: &'t str) -> Result<JsonDocument<'t>, WireError> {
        // Every value but the document itself follows one of these
        // bytes, and so does every key, so their count bounds the tape
        // and the tape never grows.
        let bound = text
            .bytes()
            .filter(|b| matches!(b, b'[' | b'{' | b',' | b':'))
            .count();
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            nodes: Vec::with_capacity(bound + 1),
            unescaped: String::new(),
        };
        p.skip_ws();
        p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(JsonDocument {
            text,
            nodes: p.nodes,
            unescaped: p.unescaped,
        })
    }

    /// The document's value.
    pub fn value(&self) -> JsonRef<'_> {
        JsonRef { doc: self, at: 0 }
    }

    /// Looks up a top-level field (see [`JsonRead::get`]).
    pub fn get(&self, key: &str) -> Option<JsonRef<'_>> {
        self.value().get(key)
    }

    /// The source text of a top-level field's value, byte for byte as
    /// it arrived (`None` for a missing key or a non-object document).
    pub fn raw(&self, key: &str) -> Option<&'t str> {
        let node = self.nodes[self.get(key)?.at];
        Some(&self.text[node.start..node.end])
    }

    /// The contents of the string at tape index `at`.
    #[inline]
    fn string(&self, at: usize) -> &str {
        string(self.text, &self.unescaped, &self.nodes[at])
    }

    /// The `len` children of the container at tape index `at`.
    #[inline]
    fn children(&self, at: usize, len: usize) -> TapeItems<'_> {
        TapeItems {
            doc: self,
            at: at + 1,
            left: len,
        }
    }
}

/// A cursor into a [`JsonDocument`]'s tape: one value, read through
/// [`JsonRead`]. It is `Copy` and borrows the document, so reading
/// allocates nothing and strings come back borrowed.
#[derive(Clone, Copy)]
pub struct JsonRef<'a> {
    doc: &'a JsonDocument<'a>,
    at: usize,
}

impl<'a> JsonRef<'a> {
    #[inline]
    fn node(self) -> &'a Node {
        &self.doc.nodes[self.at]
    }

    /// The value's source text, byte for byte as it arrived.
    #[inline]
    fn raw(self) -> &'a str {
        let node = self.node();
        &self.doc.text[node.start..node.end]
    }
}

impl std::fmt::Debug for JsonRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.raw())
    }
}

/// A cursor and an owned value are equal when the cursor's value,
/// built as an owned tree, is.
impl PartialEq<&JsonValue> for JsonRef<'_> {
    fn eq(&self, other: &&JsonValue) -> bool {
        self.to_value() == **other
    }
}

/// The children of a tape node: an array's items, or an object's
/// members as key and value.
#[derive(Debug, Clone)]
pub struct TapeItems<'a> {
    doc: &'a JsonDocument<'a>,
    /// Tape index of the next child (its key, for a member).
    at: usize,
    left: usize,
}

impl<'a> TapeItems<'a> {
    /// The next child at `at + skip`, stepping past its subtree.
    #[inline]
    fn step(&mut self, skip: usize) -> Option<JsonRef<'a>> {
        self.left = self.left.checked_sub(1)?;
        let child = JsonRef {
            doc: self.doc,
            at: self.at + skip,
        };
        self.at = child.node().next;
        Some(child)
    }
}

impl<'a> Iterator for TapeItems<'a> {
    type Item = JsonRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<JsonRef<'a>> {
        self.step(0)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for TapeItems<'_> {}

/// An object's members on the tape, key and value.
#[derive(Debug, Clone)]
pub struct TapeMembers<'a>(TapeItems<'a>);

impl<'a> Iterator for TapeMembers<'a> {
    type Item = (&'a str, JsonRef<'a>);

    #[inline]
    fn next(&mut self) -> Option<(&'a str, JsonRef<'a>)> {
        let key = self.0.at;
        let value = self.0.step(1)?;
        Some((self.0.doc.string(key), value))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for TapeMembers<'_> {}

/// The contents of a string `node` on a tape over `text`.
#[inline]
fn string<'s>(text: &'s str, unescaped: &'s str, node: &Node) -> &'s str {
    match node.tag {
        Tag::Escaped(from, to) => &unescaped[from..to],
        _ => &text[node.start + 1..node.end - 1],
    }
}

impl<'a> JsonRead<'a> for JsonRef<'a> {
    type Items = TapeItems<'a>;
    type Members = TapeMembers<'a>;

    #[inline]
    fn view(self) -> JsonView<'a, Self> {
        match self.node().tag {
            Tag::Null => JsonView::Null,
            Tag::Bool(b) => JsonView::Bool(b),
            Tag::Num(v) => JsonView::Num(v, Some(self.raw())),
            Tag::Str | Tag::Escaped(..) => JsonView::Str(self.doc.string(self.at)),
            Tag::Arr(n) => JsonView::Arr(self.doc.children(self.at, n)),
            Tag::Obj(n) => JsonView::Obj(TapeMembers(self.doc.children(self.at, n))),
        }
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Members an object may have before [`Parser::duplicate`] stops
/// rescanning its earlier keys and hashes them instead.
const LINEAR_KEYS: usize = 16;

/// The hashes of an object's keys so far.
#[derive(Default)]
struct KeyHashes {
    state: RandomState,
    seen: HashSet<u64>,
}

impl KeyHashes {
    /// Adds `key`'s hash; `false` when it was already there.
    fn insert(&mut self, key: &str) -> bool {
        self.seen.insert(self.state.hash_one(key))
    }
}

/// Recursive descent over the text, appending each value to the tape
/// in document order.
struct Parser<'t> {
    text: &'t str,
    bytes: &'t [u8],
    pos: usize,
    nodes: Vec<Node>,
    unescaped: String,
}

impl Parser<'_> {
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

    /// Appends a node spanning `start..pos`, with no subtree.
    fn push(&mut self, tag: Tag, start: usize) {
        let next = self.nodes.len() + 1;
        self.nodes.push(Node {
            tag,
            start,
            end: self.pos,
            next,
        });
    }

    /// Closes the container at tape index `at` with `len` children, its
    /// span ending at `pos`.
    fn close(&mut self, at: usize, tag: Tag) {
        let next = self.nodes.len();
        let node = &mut self.nodes[at];
        node.tag = tag;
        node.end = self.pos;
        node.next = next;
    }

    fn literal(&mut self, word: &str, tag: Tag) -> Result<Tag, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(tag)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let start = self.pos;
        let tag = match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Tag::Null)?,
            Some(b't') => self.literal("true", Tag::Bool(true))?,
            Some(b'f') => self.literal("false", Tag::Bool(false))?,
            Some(b'"') => self.string()?,
            Some(b'[') => return self.array(depth),
            Some(b'{') => return self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(&b) => return Err(self.err(format!("unexpected byte 0x{b:02x}"))),
            None => return Err(self.err("unexpected end of input")),
        };
        self.push(tag, start);
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<(), WireError> {
        let at = self.nodes.len();
        self.push(Tag::Arr(0), self.pos);
        self.pos += 1;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            self.close(at, Tag::Arr(0));
            return Ok(());
        }
        let mut len = 0;
        loop {
            self.skip_ws();
            self.value(depth + 1)?;
            len += 1;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.close(at, Tag::Arr(len));
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), WireError> {
        let at = self.nodes.len();
        self.push(Tag::Obj(0), self.pos);
        self.pos += 1;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            self.close(at, Tag::Obj(0));
            return Ok(());
        }
        let mut len = 0;
        let mut keys = None;
        loop {
            self.skip_ws();
            let key = self.nodes.len();
            let start = self.pos;
            let tag = self.string()?;
            self.push(tag, start);
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(depth + 1)?;
            if let Some(dup) = self.duplicate(at, key, len, &mut keys) {
                return Err(self.err(format!("duplicate key \"{dup}\"")));
            }
            len += 1;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.close(at, Tag::Obj(len));
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// The key at tape index `key`, when one of the `earlier` members of
    /// the object at `obj` has the same one (keys compare unescaped).
    ///
    /// Up to [`LINEAR_KEYS`] earlier members, the check rescans them.
    /// Past that it first looks the key's hash up in `keys`, the hashes
    /// of every earlier key, built on first use: a hash not seen before
    /// is not a duplicate, and only a hash seen before (a duplicate, or
    /// a collision) pays the rescan. So a flat object costs linear
    /// time in its key count, not quadratic.
    fn duplicate(
        &self,
        obj: usize,
        key: usize,
        earlier: usize,
        keys: &mut Option<KeyHashes>,
    ) -> Option<String> {
        if earlier >= LINEAR_KEYS {
            let name = string(self.text, &self.unescaped, &self.nodes[key]);
            let keys = keys.get_or_insert_with(|| {
                let mut keys = KeyHashes::default();
                let mut at = obj + 1;
                while at < key {
                    keys.insert(string(self.text, &self.unescaped, &self.nodes[at]));
                    at = self.nodes[at + 1].next;
                }
                keys
            });
            if keys.insert(name) {
                return None;
            }
        }
        self.rescan(obj, key)
    }

    /// [`Parser::duplicate`]'s rescan of every earlier key.
    fn rescan(&self, obj: usize, key: usize) -> Option<String> {
        let name = string(self.text, &self.unescaped, &self.nodes[key]);
        let mut at = obj + 1;
        while at < key {
            if string(self.text, &self.unescaped, &self.nodes[at]) == name {
                return Some(name.to_string());
            }
            at = self.nodes[at + 1].next;
        }
        None
    }

    /// Steps past string bytes that need no escape handling.
    fn skip_plain(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
    }

    /// A string, its opening quote at `pos`. Its contents stay in the
    /// text unless it holds an escape.
    fn string(&mut self) -> Result<Tag, WireError> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: plain bytes up to the closing quote.
        self.skip_plain();
        match self.bytes.get(self.pos) {
            Some(b'"') => {
                self.pos += 1;
                Ok(Tag::Str)
            }
            Some(b'\\') => self.escaped(start),
            Some(_) => Err(self.err("unescaped control character in string")),
            None => Err(self.err("unterminated string")),
        }
    }

    /// The rest of a string whose contents start at `start` and whose
    /// first escape is at `pos`, unescaped into the document's buffer.
    fn escaped(&mut self, start: usize) -> Result<Tag, WireError> {
        let from = self.unescaped.len();
        let mut run = start;
        loop {
            // The input is a &str, so slicing between the byte indices of
            // ASCII delimiters always lands on char boundaries.
            self.unescaped.push_str(&self.text[run..self.pos]);
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Tag::Escaped(from, self.unescaped.len()));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.bytes.get(self.pos) {
                        Some(b'u') => {
                            self.pos += 1;
                            self.unicode_escape()?
                        }
                        Some(&b) => {
                            let c = match b {
                                b'"' => '"',
                                b'\\' => '\\',
                                b'/' => '/',
                                b'b' => '\u{08}',
                                b'f' => '\u{0c}',
                                b'n' => '\n',
                                b'r' => '\r',
                                b't' => '\t',
                                _ => return Err(self.err("invalid escape sequence")),
                            };
                            self.pos += 1;
                            c
                        }
                        None => return Err(self.err("invalid escape sequence")),
                    };
                    self.unescaped.push(c);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
            run = self.pos;
            self.skip_plain();
        }
    }

    /// The character of a `\u` escape whose four hex digits start at
    /// `pos`; a high surrogate takes the `\u` low surrogate that must
    /// follow it.
    fn unicode_escape(&mut self) -> Result<char, WireError> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired high surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xdc00..0xe000).contains(&hi) {
            Err(self.err("unpaired low surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
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

    fn number(&mut self) -> Result<Tag, WireError> {
        let start = self.pos;
        // Scan the JSON number charset, then hold the run to the RFC 8259
        // grammar before `f64::from_str` converts it: `from_str` alone
        // also takes `01`, `1.`, `-.5` and `1.e5`. "NaN"/"inf" never
        // reach this branch (they don't start with a digit or '-'), so
        // non-finite spellings are rejected at the grammar level.
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .unwrap_or(rest.len());
        let text = &self.text[start..self.pos];
        let invalid = || self.err(format!("invalid number \"{text}\""));
        if !is_json_number(text.as_bytes()) {
            return Err(invalid());
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Tag::Num(v)),
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
fn arbitration_from_json<'a>(
    v: impl JsonRead<'a>,
    what: &str,
) -> Result<BusArbitration, WireError> {
    if let JsonView::Str(tag) = v.view() {
        return match tag {
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
fn shape_from_json<'a>(v: impl JsonRead<'a>, what: &str) -> Result<TrafficShape, WireError> {
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
pub fn architecture_from_json<'a, V: JsonRead<'a>>(v: V) -> Result<Architecture, WireError> {
    let arch = v.fields("architecture", &["buses", "processors", "bridges", "flows"])?;
    let mut b = ArchitectureBuilder::new();
    let domain = |e: socbuf_soc::SocError| WireError::Schema(format!("architecture: {e}"));

    let mut bus_ids = Vec::new();
    for (i, bus) in arch.items("buses")?.enumerate() {
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
    for (i, p) in arch.items("processors")?.enumerate() {
        let what = format!("processors[{i}]");
        let p = p.fields(&what, &["name", "buses", "weight"])?;
        let name = p.str("name")?;
        let weight = p.finite_f64("weight")?;
        let buses = p.list("buses", |idx| bus(idx.usize("bus index")?, &what))?;
        proc_ids.push(b.add_processor(name, &buses, weight).map_err(domain)?);
    }
    let processor = |idx: usize, what: &str| by_index(&proc_ids, idx, what, "processor");

    for (i, g) in arch.items("bridges")?.enumerate() {
        let what = format!("bridges[{i}]");
        let g = g.fields(&what, &["name", "from", "to", "latency"])?;
        let name = g.str("name")?;
        let from = bus(g.usize("from")?, &what)?;
        let to = bus(g.usize("to")?, &what)?;
        let latency = g.opt_or("latency", 0.0, V::finite_f64)?;
        b.add_bridge_with_latency(name, from, to, latency)
            .map_err(domain)?;
    }

    for (i, f) in arch.items("flows")?.enumerate() {
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
            .str("engine", &config.engine.to_string())
            .bool("equilibrate", config.equilibrate);
    })
}

/// Parses a [`SizingConfig`]. Missing fields take their defaults (so
/// `{}` is the default configuration); unknown fields are rejected,
/// the formulation's fixed settings (`alpha`, `quantile`,
/// `bus_effort_limit`) among them. Range validation (state_cap ≥ 2,
/// effort_levels ≥ 2) stays where it always was — in the sizing pipeline's own `validate` — so wire and
/// local configs fail identically.
///
/// # Errors
///
/// [`WireError::Schema`] for unknown fields or type mismatches.
pub fn sizing_config_from_json<'a, V: JsonRead<'a>>(v: V) -> Result<SizingConfig, WireError> {
    let f = v.fields(
        "config",
        &["state_cap", "effort_levels", "engine", "equilibrate"],
    )?;
    let d = SizingConfig::default();
    Ok(SizingConfig {
        state_cap: f.opt_or("state_cap", d.state_cap, V::usize)?,
        effort_levels: f.opt_or("effort_levels", d.effort_levels, V::usize)?,
        engine: f.opt_or("engine", d.engine, |x, k| lp_engine_from_tag(x.str(k)?))?,
        equilibrate: f.opt_or("equilibrate", d.equilibrate, V::bool)?,
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
pub fn sizing_outcome_from_json<'a, V: JsonRead<'a>>(
    v: V,
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
        lp_iterations: f.opt_or("lp_iterations", 0, V::usize)?,
        lp_engine: lp_engine_from_tag(f.str("lp_engine")?)?,
        lp_scaling: ScalingStats {
            applied: scaling.bool("applied")?,
            condition_before: scaling.f64("condition_before")?,
            condition_after: scaling.f64("condition_after")?,
        },
    })
}

// ---------------------------------------------------------------------
// Sharding codecs: campaign manifests
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

/// Parses a config hash from its wire form, 16 lowercase hex digits —
/// the one spelling [`config_hash_to_hex`] renders, so an accepted hash
/// renders back to its own text; `what` names the field in errors.
///
/// # Errors
///
/// [`WireError::Schema`] when `text` is not exactly 16 lowercase hex
/// digits.
pub fn config_hash_from_hex(text: &str, what: &str) -> Result<u64, WireError> {
    if text.len() != 16 || !text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(WireError::Schema(format!(
            "{what}: expected 16 lowercase hex digits, got \"{text}\""
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
    pub fn from_json<'a, V: JsonRead<'a>>(v: V) -> Result<CampaignManifest, WireError> {
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
        for (i, c) in f.items("chunks")?.enumerate() {
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

    fn shape_from_json<'a>(campaign: impl JsonRead<'a>) -> Result<ManifestShape, WireError> {
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

fn range_from_json<'a>(v: impl JsonRead<'a>, what: &str) -> Result<(f64, f64), WireError> {
    let mut items = v.arr(what)?;
    let n = items.len();
    match (items.next(), items.next()) {
        (Some(lo), Some(hi)) if n == 2 => Ok((lo.finite_f64(what)?, hi.finite_f64(what)?)),
        _ => Err(WireError::Schema(format!(
            "{what}: expected a two-element range, got {n} elements"
        ))),
    }
}

/// Parses [`RandomArchParams`]. All fields are required; the
/// generator's own assertions (positive counts, ordered ranges) still
/// apply when the params are used.
///
/// # Errors
///
/// [`WireError::Schema`] for shape mismatches.
pub fn random_params_from_json<'a>(v: impl JsonRead<'a>) -> Result<RandomArchParams, WireError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{size_buffers, SizingConfig};
    use socbuf_soc::templates;

    #[test]
    fn config_hashes_decode_only_in_the_spelling_they_render_in() {
        let hex = config_hash_to_hex(0xab);
        assert_eq!(hex, "00000000000000ab");
        assert_eq!(config_hash_from_hex(&hex, "config_hash"), Ok(0xab));
        assert_eq!(
            config_hash_from_hex(&hex.to_uppercase(), "config_hash"),
            Err(WireError::Schema(
                "config_hash: expected 16 lowercase hex digits, got \"00000000000000AB\"".into()
            ))
        );
    }

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
    fn integer_reads_are_held_to_the_literal_not_its_rounding() {
        let read = |text: &str| JsonDocument::parse(text).unwrap().value().usize("x");
        let refused = |got: &str| {
            Err(WireError::Schema(format!(
                "x: expected a non-negative integer, got {got}"
            )))
        };
        for (text, want) in [
            ("0", 0),
            ("-0", 0),
            ("-0.0e5", 0),
            ("1E2", 100),
            ("0.5e1", 5),
            ("9007199254740992", 9_007_199_254_740_992),
            ("9007199254740992.000", 9_007_199_254_740_992),
            ("9.007199254740992e15", 9_007_199_254_740_992),
            ("900719925474099200e-2", 9_007_199_254_740_992),
        ] {
            assert_eq!(read(text), Ok(want), "{text}");
        }
        // Each literal's f64 is an integer ≤ 2⁵³, or misquotes the
        // literal; the literal itself is what is refused and quoted.
        for (text, got) in [
            ("9007199254740993", "9007199254740993"),
            ("9007199254740992.5", "9007199254740992.5"),
            ("9007199254740995", "9007199254740995"),
            ("4503599627370496.5", "4503599627370496.5"),
            ("1.0000000000000001", "1.0000000000000001"),
            ("12345678901234567890", "12345678901234567890"),
            ("1e-400", "1e-400"),
            ("-1e-400", "-1e-400"),
        ] {
            assert_eq!(read(text), refused(got), "{text}");
        }
        // Where the f64 is exact, the message shows it as before.
        for (text, got) in [
            ("24.5", "24.5"),
            ("2.50", "2.5"),
            ("-1", "-1"),
            ("1e16", "10000000000000000"),
            ("9007199254740994", "9007199254740994"),
        ] {
            assert_eq!(read(text), refused(got), "{text}");
        }
        let doc = JsonDocument::parse(r#"{"n":9007199254740993,"s":"1"}"#).unwrap();
        assert_eq!(
            doc.value().fields("rec", &["n", "s"]).unwrap().u64("n"),
            Err(WireError::Schema(
                "n: expected a non-negative integer, got 9007199254740993".into()
            ))
        );
        assert_eq!(
            doc.get("s").unwrap().usize("s"),
            Err(WireError::Schema(
                "s: expected a finite number, got a string".into()
            ))
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

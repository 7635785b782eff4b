//! The workspace's one JSON codec: a dependency-free writer and pull
//! [`Reader`], the [`ToJson`]/[`FromJson`] trait pair and the
//! [`json_codec!`](crate::json_codec) macro that implements both for a
//! type from a list of its fields.
//!
//! Model files, artifact-cache keys and payloads, engine result rows,
//! serving responses, the BENCH documents with their baselines and the
//! obs JSONL export all go through it. The encoding is canonical, so
//! equal values give equal bytes (golden wire files and cache keys rely
//! on it): structs are objects in the order their fields are listed,
//! newtypes are their bare inner value, `None` is `null`, sequences and
//! tuples are arrays, and enums are externally tagged (a unit variant is
//! its wire name as a string, any other variant a one-key object
//! `{"<wire name>": <body>}`).
//!
//! Decoding pulls: [`Reader`] is the only tokenizer, and each
//! [`FromJson`] impl reads its value straight off the borrowed bytes,
//! objects key by key and arrays item by item, so a typed document is
//! decoded without building a tree. Number tokens are borrowed slices
//! read with `str::parse`: `f64` values are correctly rounded, so they
//! round-trip bit for bit with the writer's shortest form; a `u64` above
//! 2^53 never passes through an `f64`; integers are range-checked into
//! their type. A NaN or infinite float fails with
//! [`ProtocolKind::NonFinite`] both ways: the writer refuses to write
//! one instead of writing `null`, and the reader refuses a number token
//! that overflows to infinity.
//!
//! Struct decoders accept keys in any order, skip unknown keys (formats
//! can grow fields), keep the first of duplicate keys and reject a
//! missing field unless the macro gives it a default. A syntax error
//! anywhere in a document ([`ProtocolKind::Malformed`]) outranks a
//! schema error ([`ProtocolKind::Schema`]): after a schema error,
//! [`from_str`] still scans the rest of the document. Every reader has a
//! type: there is no untyped document tree.
//!
//! [`to_string_pretty`] lays the canonical encoding out one member or
//! item per line, for committed files that must stay line-diffable.

use crate::{Error, ProtocolKind, Result};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Maximum nesting depth the reader accepts (the wire protocol needs 4,
/// persisted models 6).
const MAX_DEPTH: usize = 32;

/// The type of a JSON value, as told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Num => "number",
            Kind::Str => "string",
            Kind::Arr => "array",
            Kind::Obj => "object",
        }
    }
}

fn type_err(what: &'static str, want: &str, got: &str) -> Error {
    schema_error(what, format!("expected {want}, got {got}"))
}

/// A [`ProtocolKind::Schema`] error: the document parses, but `what`
/// does not have the shape its type needs.
pub fn schema_error(what: &'static str, detail: String) -> Error {
    Error::protocol(ProtocolKind::Schema, what, detail)
}

/// Parses a number token as an `f64`. A token too large for an `f64`
/// (`1e999`) is refused with [`ProtocolKind::NonFinite`], as the writer
/// refuses to encode the infinity it would round to.
#[inline]
fn parse_f64(tok: &str, what: &'static str) -> Result<f64> {
    let v = tok.parse::<f64>().map_err(|_| {
        Error::protocol(
            ProtocolKind::Malformed,
            what,
            format!("bad number token `{tok}`"),
        )
    })?;
    if !v.is_finite() {
        return Err(Error::protocol(
            ProtocolKind::NonFinite,
            what,
            format!("number token `{tok}` overflows an f64"),
        ));
    }
    Ok(v)
}

// ---------------------------------------------------------------- writer

/// Appends `v` in the canonical encoding: shortest round-trip form.
///
/// # Errors
///
/// Non-finite values have no JSON representation and fail with
/// [`Error::Protocol`] — telemetry carrying NaN/inf must be rejected
/// before it reaches the wire.
pub fn push_f64(out: &mut String, v: f64, what: &'static str) -> Result<()> {
    if !v.is_finite() {
        return Err(Error::protocol(
            ProtocolKind::NonFinite,
            what,
            format!("non-finite value {v} cannot be encoded"),
        ));
    }
    write!(out, "{v}").expect("write to String");
    Ok(())
}

/// Appends `s` as a JSON string literal, escaping as required.
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
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- reader

/// A pull reader over one borrowed JSON document: the codec's only
/// tokenizer.
///
/// Containers are walked in place ([`Reader::object`] and
/// [`Reader::key`], [`Reader::array`] and [`Reader::item`]); values are
/// read by their [`FromJson`] impls, which check the next value's type
/// and consume it. A wrong type is a [`ProtocolKind::Schema`] error that
/// consumes nothing, broken syntax a [`ProtocolKind::Malformed`] one.
///
/// ```
/// use boreas_common::json::{FromJson, Reader};
///
/// let mut r = Reader::new(r#"{"xs": [1, 2.5], "skipped": {"a": null}}"#);
/// r.object("doc").unwrap();
/// let mut xs = Vec::new();
/// while let Some(key) = r.key().unwrap() {
///     if key == "xs" {
///         r.array("xs").unwrap();
///         while r.item().unwrap() {
///             xs.push(f64::read_json(&mut r, "x").unwrap());
///         }
///     } else {
///         r.skip().unwrap();
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(xs, [1.0, 2.5]);
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers entered and not yet left.
    depth: usize,
    /// The innermost container was just entered: its first key or
    /// item needs no comma before it.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    fn err(&self, msg: &str) -> Error {
        self.err_at(self.pos, msg)
    }

    /// A [`ProtocolKind::Malformed`] error at byte `at`.
    #[cold]
    fn err_at(&self, at: usize, msg: &str) -> Error {
        Error::protocol(
            ProtocolKind::Malformed,
            "json",
            format!("{msg} at byte {at}"),
        )
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

    /// Moves to the next value and names its type; fails on anything
    /// that cannot start a value, or beyond [`MAX_DEPTH`].
    #[inline]
    fn start_value(&mut self) -> Result<Kind> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => Ok(Kind::Obj),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'"') => Ok(Kind::Str),
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Moves to the next value, which must be a `want`.
    #[inline]
    fn expect_value(&mut self, want: Kind, what: &'static str) -> Result<()> {
        match self.start_value()? {
            got if got == want => Ok(()),
            got => Err(type_err(what, want.name(), got.name())),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<()> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("expected a JSON value"))
        }
    }

    /// Consumes a `null` and returns `true`, or returns `false` and
    /// leaves any other value in place.
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Malformed`] when no value follows.
    #[inline]
    fn null(&mut self) -> Result<bool> {
        if self.start_value()? != Kind::Null {
            return Ok(false);
        }
        self.literal("null")?;
        Ok(true)
    }

    /// Reads a `true` or `false`.
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Schema`] for another type; `what` names the
    /// value.
    fn bool(&mut self, what: &'static str) -> Result<bool> {
        self.expect_value(Kind::Bool, what)?;
        let b = self.peek() == Some(b't');
        self.literal(if b { "true" } else { "false" })?;
        Ok(b)
    }

    /// Reads a number and returns its raw token.
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Schema`] for another type,
    /// [`ProtocolKind::Malformed`] for a token outside the JSON number
    /// grammar.
    #[inline]
    fn number(&mut self, what: &'static str) -> Result<&'a str> {
        self.expect_value(Kind::Num, what)?;
        let bytes = self.text.as_bytes();
        let digits_from =
            |i: usize| i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
        let start = self.pos;
        let mut end = start + usize::from(bytes[start] == b'-');
        // Integer part: `0` or a nonzero-led digit run.
        end = match bytes.get(end) {
            Some(b'0') => end + 1,
            Some(b'1'..=b'9') => digits_from(end + 1),
            _ => return Err(self.err_at(end, "malformed number")),
        };
        if bytes.get(end) == Some(&b'.') {
            let frac = end + 1;
            end = digits_from(frac);
            if end == frac {
                return Err(self.err_at(end, "malformed number fraction"));
            }
        }
        if matches!(bytes.get(end), Some(b'e' | b'E')) {
            let sign = usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
            let exp = end + 1 + sign;
            end = digits_from(exp);
            if end == exp {
                return Err(self.err_at(end, "malformed number exponent"));
            }
        }
        self.pos = end;
        Ok(&self.text[start..end])
    }

    /// Reads a number as an `f64`, correctly rounded.
    ///
    /// # Errors
    ///
    /// As [`Reader::number`].
    #[inline]
    fn f64(&mut self, what: &'static str) -> Result<f64> {
        let tok = self.number(what)?;
        parse_f64(tok, what)
    }

    /// Reads a number as an integer of type `T`: integer tokens in
    /// `T`'s range only.
    ///
    /// # Errors
    ///
    /// As [`Reader::number`], plus [`ProtocolKind::Schema`] for a
    /// fraction, an exponent, a sign `T` lacks or a value out of range.
    #[inline]
    fn int<T: std::str::FromStr>(&mut self, what: &'static str) -> Result<T> {
        let tok = self.number(what)?;
        tok.parse::<T>().map_err(|_| {
            let want = std::any::type_name::<T>();
            schema_error(what, format!("expected {want}, got `{tok}`"))
        })
    }

    /// Reads a string, borrowed from the document unless it holds
    /// escapes.
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Schema`] for another type,
    /// [`ProtocolKind::Malformed`] for a bad escape, a raw control byte
    /// or a missing closing quote.
    fn string(&mut self, what: &'static str) -> Result<Cow<'a, str>> {
        self.expect_value(Kind::Str, what)?;
        self.string_token()
    }

    /// Reads the string token at the cursor's `"`.
    #[inline]
    fn string_token(&mut self) -> Result<Cow<'a, str>> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected `\"`"));
        }
        self.pos += 1;
        let start = self.pos;
        let run_end = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..run_end]));
        }
        self.unescape(start).map(Cow::Owned)
    }

    /// The rest of a string token that holds escapes (or is broken),
    /// unescaped into an owned copy; `start` is its first content byte.
    fn unescape(&mut self, start: usize) -> Result<String> {
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    let from = self.pos;
                    let to = self.plain_run();
                    out.push_str(&self.text[from..to]);
                }
            }
        }
    }

    /// Advances over string bytes that need no unescaping, stopping at
    /// a quote, a backslash, a raw control byte or the end, and returns
    /// where the run ends. The text is `&str` and every stop is ASCII,
    /// so the run is whole UTF-8.
    #[inline]
    fn plain_run(&mut self) -> usize {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .unwrap_or(rest.len());
        self.pos
    }

    fn unicode_escape(&mut self) -> Result<char> {
        let hex4 = |r: &mut Self| -> Result<u32> {
            let end = r.pos + 4;
            let s = r
                .text
                .get(r.pos..end)
                .ok_or_else(|| r.err("truncated \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| r.err("invalid \\u escape"))?;
            r.pos = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        if (0xd800..0xdc00).contains(&hi) {
            // Surrogate pair: expect a low surrogate as `\uXXXX`.
            if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired high surrogate"));
            }
            self.pos += 2;
            let lo = hex4(self)?;
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

    /// Enters an object; read its members with [`Reader::key`].
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Schema`] for another type.
    #[inline]
    pub fn object(&mut self, what: &'static str) -> Result<()> {
        self.expect_value(Kind::Obj, what)?;
        self.enter();
        Ok(())
    }

    /// The next key of the object being read, with the cursor on its
    /// value (which the caller must read or [`skip`](Reader::skip)),
    /// or `None` once the object is closed.
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Malformed`] for broken object syntax.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b'}') => {
                self.leave();
                return Ok(None);
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if !first => return Err(self.err("expected `,` or `}`")),
            _ => {}
        }
        let key = self.string_token()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.err("expected `:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Enters an array; step through its items with [`Reader::item`].
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Schema`] for another type.
    #[inline]
    pub fn array(&mut self, what: &'static str) -> Result<()> {
        self.expect_value(Kind::Arr, what)?;
        self.enter();
        Ok(())
    }

    /// `true` with the cursor on the next item of the array being read
    /// (which the caller must read or [`skip`](Reader::skip)), `false`
    /// once the array is closed.
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Malformed`] for broken array syntax.
    #[inline]
    pub fn item(&mut self) -> Result<bool> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b']') => {
                self.leave();
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if !first => Err(self.err("expected `,` or `]`")),
            _ => Ok(true),
        }
    }

    #[inline]
    fn enter(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
    }

    #[inline]
    fn leave(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Consumes the next value of any type, checking its syntax.
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Malformed`] for broken syntax or nesting beyond
    /// the reader's depth limit.
    pub fn skip(&mut self) -> Result<()> {
        match self.start_value()? {
            Kind::Obj => {
                self.enter();
                while self.key()?.is_some() {
                    self.skip()?;
                }
            }
            Kind::Arr => {
                self.enter();
                while self.item()? {
                    self.skip()?;
                }
            }
            Kind::Str => {
                self.string_token()?;
            }
            Kind::Num => {
                self.number("value")?;
            }
            Kind::Null => self.literal("null")?,
            Kind::Bool => {
                self.bool("value")?;
            }
        }
        Ok(())
    }

    /// Splits an externally tagged enum value into its wire name and
    /// whether a body follows; with a body, the cursor is on it, and
    /// [`Reader::variant_end`] closes the wrapping object once it has
    /// been read.
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Schema`] for a value that is neither a string
    /// nor a non-empty object.
    pub fn variant(&mut self, what: &'static str) -> Result<(Cow<'a, str>, bool)> {
        match self.start_value()? {
            Kind::Str => Ok((self.string_token()?, false)),
            Kind::Obj => {
                self.enter();
                match self.key()? {
                    Some(tag) => Ok((tag, true)),
                    None => Err(type_err(what, "enum variant", "object")),
                }
            }
            got => Err(type_err(what, "enum variant", got.name())),
        }
    }

    /// Closes the one-key object around a variant body.
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Schema`] when the object holds a second key.
    pub fn variant_end(&mut self, what: &'static str) -> Result<()> {
        match self.key()? {
            None => Ok(()),
            Some(_) => Err(type_err(what, "enum variant", "object with several keys")),
        }
    }

    /// Checks that nothing but whitespace follows the document.
    ///
    /// # Errors
    ///
    /// [`ProtocolKind::Malformed`] for trailing bytes.
    pub fn finish(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing bytes after document"));
        }
        Ok(())
    }
}

// ------------------------------------------------------------ traits

/// A value with a canonical JSON encoding (see the module docs).
pub trait ToJson {
    /// Appends `self` to `out`. `what` names the value in the one
    /// possible error, [`ProtocolKind::NonFinite`] for a NaN or
    /// infinite float.
    fn write_json(&self, out: &mut String, what: &'static str) -> Result<()>;
}

/// A value readable from its [`ToJson`] encoding.
pub trait FromJson: Sized {
    /// Reads one value off `r`; `what` names it in
    /// [`ProtocolKind::Schema`] errors.
    fn read_json(r: &mut Reader<'_>, what: &'static str) -> Result<Self>;
}

/// Encodes `value` as a JSON document.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out, "value")?;
    Ok(out)
}

/// Encodes `value` as [`to_string`] does, re-indented: each member and
/// item on its own line, two spaces per level, `": "` after keys, empty
/// containers kept as `{}`/`[]`, and a final newline. It reads back as
/// the same value.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String> {
    let flat = to_string(value)?;
    let mut out = String::with_capacity(2 * flat.len());
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        (0..depth).for_each(|_| out.push_str("  "));
    };
    let (mut depth, mut in_string, mut escaped) = (0, false, false);
    let mut chars = flat.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            // Copied as is; only an unescaped quote ends a string.
            out.push(c);
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            continue;
        }
        if matches!(c, '}' | ']') {
            depth -= 1;
            newline(&mut out, depth);
        }
        out.push(c);
        match c {
            '"' => in_string = true,
            ':' => out.push(' '),
            ',' => newline(&mut out, depth),
            '{' | '[' if matches!(chars.peek(), Some('}' | ']')) => out.extend(chars.next()),
            '{' | '[' => {
                depth += 1;
                newline(&mut out, depth);
            }
            _ => {}
        }
    }
    out.push('\n');
    Ok(out)
}

/// Reads a JSON document as a `T`.
///
/// # Errors
///
/// [`ProtocolKind::Malformed`] when the document does not parse, wherever
/// the fault sits; otherwise [`ProtocolKind::Schema`] (or whatever `T`'s
/// reader reports) when it does not hold a `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T> {
    from_str_as(text, "value")
}

/// [`from_str`], naming the document `what` in its errors.
///
/// # Errors
///
/// As [`from_str`].
pub fn from_str_as<T: FromJson>(text: &str, what: &'static str) -> Result<T> {
    let mut r = Reader::new(text);
    let read = T::read_json(&mut r, what).and_then(|v| r.finish().map(|()| v));
    match read {
        Err(e) if e.protocol_kind() != Some(ProtocolKind::Malformed) => {
            // The reader stopped early: a syntax error further on must
            // still win, as it would for a parse-then-check reader.
            let mut rest = Reader::new(text);
            rest.skip().and_then(|()| rest.finish())?;
            Err(e)
        }
        read => read,
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String, _what: &'static str) -> Result<()> {
        out.push_str(if *self { "true" } else { "false" });
        Ok(())
    }
}

impl FromJson for bool {
    #[inline]
    fn read_json(r: &mut Reader<'_>, what: &'static str) -> Result<Self> {
        r.bool(what)
    }
}

macro_rules! integer {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _what: &'static str) -> Result<()> {
                write!(out, "{self}").expect("write to String");
                Ok(())
            }
        }

        impl FromJson for $t {
            #[inline]
            fn read_json(r: &mut Reader<'_>, what: &'static str) -> Result<Self> {
                r.int(what)
            }
        }
    )+};
}

integer!(u32, u64, usize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, what: &'static str) -> Result<()> {
        push_f64(out, *self, what)
    }
}

impl FromJson for f64 {
    #[inline]
    fn read_json(r: &mut Reader<'_>, what: &'static str) -> Result<Self> {
        r.f64(what)
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _what: &'static str) -> Result<()> {
        push_str(out, self);
        Ok(())
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, what: &'static str) -> Result<()> {
        self.as_str().write_json(out, what)
    }
}

impl FromJson for String {
    #[inline]
    fn read_json(r: &mut Reader<'_>, what: &'static str) -> Result<Self> {
        r.string(what).map(Cow::into_owned)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, what: &'static str) -> Result<()> {
        (**self).write_json(out, what)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, what: &'static str) -> Result<()> {
        match self {
            Some(v) => v.write_json(out, what),
            None => {
                out.push_str("null");
                Ok(())
            }
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn read_json(r: &mut Reader<'_>, what: &'static str) -> Result<Self> {
        if r.null()? {
            Ok(None)
        } else {
            T::read_json(r, what).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, what: &'static str) -> Result<()> {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out, what)?;
        }
        out.push(']');
        Ok(())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, what: &'static str) -> Result<()> {
        self.as_slice().write_json(out, what)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(r: &mut Reader<'_>, what: &'static str) -> Result<Self> {
        r.array(what)?;
        let mut items = Vec::new();
        while r.item()? {
            items.push(T::read_json(r, what)?);
        }
        Ok(items)
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String, what: &'static str) -> Result<()> {
        self.as_slice().write_json(out, what)
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn read_json(r: &mut Reader<'_>, what: &'static str) -> Result<Self> {
        let items = Vec::<T>::read_json(r, what)?;
        let len = items.len();
        items.try_into().map_err(|_| wrong_len(what, N, len))
    }
}

/// A [`ProtocolKind::Schema`] error for an array of `actual` elements
/// where `expected` were needed.
fn wrong_len(what: &'static str, expected: usize, actual: usize) -> Error {
    schema_error(what, format!("expected {expected} elements, got {actual}"))
}

macro_rules! tuple {
    ($n:literal: $($t:ident $i:tt),+) => {
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn write_json(&self, out: &mut String, what: &'static str) -> Result<()> {
                out.push('[');
                $(
                    if $i > 0 {
                        out.push(',');
                    }
                    self.$i.write_json(out, what)?;
                )+
                out.push(']');
                Ok(())
            }
        }

        impl<$($t: FromJson),+> FromJson for ($($t,)+) {
            fn read_json(r: &mut Reader<'_>, what: &'static str) -> Result<Self> {
                r.array(what)?;
                let value = ($({
                    if !r.item()? {
                        return Err(wrong_len(what, $n, $i));
                    }
                    $t::read_json(r, what)?
                },)+);
                let mut len = $n;
                while r.item()? {
                    r.skip()?;
                    len += 1;
                }
                if len != $n {
                    return Err(wrong_len(what, $n, len));
                }
                Ok(value)
            }
        }
    };
}

tuple!(2: A 0, B 1);
tuple!(3: A 0, B 1, C 2);
tuple!(4: A 0, B 1, C 2, D 3);
tuple!(5: A 0, B 1, C 2, D 3, E 4);
tuple!(6: A 0, B 1, C 2, D 3, E 4, F 5);
tuple!(7: A 0, B 1, C 2, D 3, E 4, F 5, G 6);

/// Implements [`ToJson`] and [`FromJson`] for a type by listing its
/// fields or variants, next to the type's definition:
///
/// * `json_codec! { struct Name { a, b, c = default_expr } }` — a
///   named-field struct, encoded as an object. The encoder destructures
///   `Self { a, b, c }` and the decoder builds it, so a field missing
///   from the list is a compile error: a new field can never silently
///   drop out of a cache key. The decoder takes keys in any order,
///   skips unknown ones and keeps the first of duplicates; `= expr` is
///   the value used when the field is absent from a document, and any
///   other absent field is a [`ProtocolKind::Schema`] error.
/// * `json_codec! { newtype Name }` — a one-field tuple struct, encoded
///   as its bare inner value.
/// * `json_codec! { enum Name { Unit = "unit", Shaped { a, b } = "shaped",
///   Wrapped(inner) = "wrapped" } }` — an externally tagged enum, each
///   variant listed with its wire name. The encoder matches
///   exhaustively, so a new variant must be listed too; the decoder
///   wants a wire name, or an object with exactly one key, a wire name.
///
/// `write struct` and `write enum` implement [`ToJson`] only, for
/// borrowed descriptions that are hashed but never read back; these may
/// take lifetime parameters (`json_codec! { write struct Key<'a> { .. } }`).
#[macro_export]
macro_rules! json_codec {
    (struct $ty:ident { $($field:ident $(= $default:expr)?),+ $(,)? }) => {
        $crate::json_codec!(write struct $ty { $($field),+ });

        impl $crate::json::FromJson for $ty {
            fn read_json(
                r: &mut $crate::json::Reader<'_>,
                what: &'static str,
            ) -> $crate::Result<Self> {
                $crate::json_codec!(@fields r, what; $($field),+);
                ::std::result::Result::Ok($ty {
                    $($field: $crate::json_codec!(@take $field $(, $default)?),)+
                })
            }
        }
    };
    (write struct $ty:ident $(<$($lt:lifetime),+>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$($lt),+>)? $crate::json::ToJson for $ty$(<$($lt),+>)? {
            fn write_json(&self, out: &mut String, _what: &'static str) -> $crate::Result<()> {
                let $ty { $($field),+ } = self;
                $crate::json_codec!(@object out; $($field),+);
                ::std::result::Result::Ok(())
            }
        }
    };
    (newtype $ty:ident) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, what: &'static str) -> $crate::Result<()> {
                let $ty(inner) = self;
                $crate::json::ToJson::write_json(inner, out, what)
            }
        }

        impl $crate::json::FromJson for $ty {
            fn read_json(
                r: &mut $crate::json::Reader<'_>,
                what: &'static str,
            ) -> $crate::Result<Self> {
                $crate::json::FromJson::read_json(r, what).map($ty)
            }
        }
    };
    (enum $ty:ident {
        $($variant:ident $({ $($f:ident),+ $(,)? })? $(($inner:ident))? = $wire:literal),+ $(,)?
    }) => {
        $crate::json_codec!(write enum $ty {
            $($variant $({ $($f),+ })? $(($inner))? = $wire),+
        });

        impl $crate::json::FromJson for $ty {
            fn read_json(
                r: &mut $crate::json::Reader<'_>,
                what: &'static str,
            ) -> $crate::Result<Self> {
                let (tag, body) = r.variant(what)?;
                $(
                    if tag == $wire {
                        let value = $crate::json_codec!(
                            @variant r, body, what, $ty::$variant $(, { $($f),+ })? $(, ($inner))?
                        );
                        if body {
                            r.variant_end(what)?;
                        }
                        return ::std::result::Result::Ok(value);
                    }
                )+
                ::std::result::Result::Err($crate::json::schema_error(
                    what,
                    format!("unknown variant `{tag}`"),
                ))
            }
        }
    };
    (write enum $ty:ident $(<$($lt:lifetime),+>)? {
        $($variant:ident $({ $($f:ident),+ $(,)? })? $(($inner:ident))? = $wire:literal),+ $(,)?
    }) => {
        impl$(<$($lt),+>)? $crate::json::ToJson for $ty$(<$($lt),+>)? {
            fn write_json(&self, out: &mut String, _what: &'static str) -> $crate::Result<()> {
                match self {
                    $($ty::$variant $({ $($f),+ })? $(($inner))? => {
                        $crate::json_codec!(@tagged out, $wire $(, { $($f),+ })? $(, ($inner))?);
                    })+
                }
                ::std::result::Result::Ok(())
            }
        }
    };

    // ---- internal rules

    // Writes `{"a":..,"b":..}` from bindings named like the fields.
    (@object $out:ident; $first:ident $(, $rest:ident)*) => {
        $out.push_str(concat!("{\"", stringify!($first), "\":"));
        $crate::json::ToJson::write_json($first, $out, stringify!($first))?;
        $(
            $out.push_str(concat!(",\"", stringify!($rest), "\":"));
            $crate::json::ToJson::write_json($rest, $out, stringify!($rest))?;
        )*
        $out.push('}');
    };
    // Reads an object into one `Option` binding per field: the first
    // occurrence of a listed key fills its binding, every other key is
    // skipped.
    (@fields $r:ident, $what:ident; $($field:ident),+) => {
        $(let mut $field = ::std::option::Option::None;)+
        $r.object($what)?;
        while let ::std::option::Option::Some(key) = $r.key()? {
            $(
                if $field.is_none() && key == stringify!($field) {
                    $field = ::std::option::Option::Some(
                        $crate::json::FromJson::read_json($r, stringify!($field))?,
                    );
                    continue;
                }
            )+
            $r.skip()?;
        }
    };
    // One field's value: read, defaulted, or missing.
    (@take $field:ident) => {
        match $field {
            ::std::option::Option::Some(v) => v,
            ::std::option::Option::None => {
                return ::std::result::Result::Err($crate::json::schema_error(
                    stringify!($field),
                    "missing field".to_string(),
                ))
            }
        }
    };
    (@take $field:ident, $default:expr) => {
        match $field {
            ::std::option::Option::Some(v) => v,
            ::std::option::Option::None => $default,
        }
    };
    // Writes one enum variant: a bare wire name, or `{"wire":body}`.
    (@tagged $out:ident, $wire:literal) => {
        $crate::json::push_str($out, $wire);
    };
    (@tagged $out:ident, $wire:literal, { $($f:ident),+ }) => {
        $out.push_str(concat!("{\"", $wire, "\":"));
        $crate::json_codec!(@object $out; $($f),+);
        $out.push('}');
    };
    (@tagged $out:ident, $wire:literal, ($inner:ident)) => {
        $out.push_str(concat!("{\"", $wire, "\":"));
        $crate::json::ToJson::write_json($inner, $out, $wire)?;
        $out.push('}');
    };
    // Reads one enum variant; `$body` says whether a body follows.
    (@variant $r:ident, $body:ident, $what:ident, $ty:ident::$variant:ident) => {{
        if $body {
            return ::std::result::Result::Err($crate::json::schema_error(
                $what,
                "unit variant with a body".to_string(),
            ));
        }
        $ty::$variant
    }};
    (@variant $r:ident, $body:ident, $what:ident, $ty:ident::$variant:ident, { $($f:ident),+ }) => {{
        if !$body {
            return ::std::result::Result::Err($crate::json::schema_error(
                $what,
                "variant without a body".to_string(),
            ));
        }
        $crate::json_codec!(@fields $r, $what; $($f),+);
        $ty::$variant {
            $($f: $crate::json_codec!(@take $f),)+
        }
    }};
    (@variant $r:ident, $body:ident, $what:ident, $ty:ident::$variant:ident, ($inner:ident)) => {{
        if !$body {
            return ::std::result::Result::Err($crate::json::schema_error(
                $what,
                "variant without a body".to_string(),
            ));
        }
        $ty::$variant($crate::json::FromJson::read_json($r, stringify!($inner))?)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    /// Checks `text`'s syntax alone, as [`from_str`] does after a
    /// schema error.
    fn syntax(text: &str) -> Result<()> {
        let mut r = Reader::new(text);
        r.skip()?;
        r.finish()
    }

    #[test]
    fn parses_the_basic_shapes() {
        let text = r#"{"id":7,"shapes":[{"circle":{"r":-3e2,"label":"x\ny"}},{"circle":{"r":1,"label":null}}],"scale":[1,2.5],"hidden":true}"#;
        let v: Scene = from_str(text).unwrap();
        let circle = |r: f64, label: Option<&str>| Shape::Circle {
            r: Meters(r),
            label: label.map(str::to_string),
        };
        assert_eq!(v.shapes, [circle(-300.0, Some("x\ny")), circle(1.0, None)]);
        assert_eq!((v.id, v.scale, v.hidden), (7, [1.0, 2.5], true));
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [
            0.1,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            3.749999999999999,
        ] {
            let mut s = String::new();
            push_f64(&mut s, v, "t").unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "token {s}");
        }
    }

    #[test]
    fn u64_survives_above_f64_precision() {
        let big = u64::MAX - 1;
        let v: Vec<u64> = from_str(&format!("[{big}]")).unwrap();
        assert_eq!(v, [big]);
        let v: Scene = from_str(&format!(r#"{{"id":{big},"shapes":[],"scale":[0,0]}}"#)).unwrap();
        assert_eq!(v.id, big);
    }

    #[test]
    fn numbers_overflowing_an_f64_are_rejected_on_decode() {
        let kind = |r: Result<f64>| r.unwrap_err().protocol_kind();
        assert_eq!(kind(from_str("1e999")), Some(ProtocolKind::NonFinite));
        assert_eq!(kind(from_str("-1e999")), Some(ProtocolKind::NonFinite));
        let nested = from_str::<Vec<f64>>("[0.5,1e400]").unwrap_err();
        assert_eq!(nested.protocol_kind(), Some(ProtocolKind::NonFinite));
        let field = from_str::<Scene>(r#"{"id":1,"shapes":[],"scale":[1e999,0]}"#);
        assert_eq!(
            field.unwrap_err().protocol_kind(),
            Some(ProtocolKind::NonFinite)
        );
        // Underflow rounds to a finite zero and is kept.
        assert_eq!(from_str::<f64>("1e-999").unwrap(), 0.0);
    }

    #[test]
    fn non_finite_floats_are_rejected_on_encode() {
        let mut s = String::new();
        assert!(push_f64(&mut s, f64::NAN, "t").is_err());
        assert!(push_f64(&mut s, f64::INFINITY, "t").is_err());
        // Through the trait too, also when nested: an error, not `null`.
        for err in [
            to_string(&f64::NAN).unwrap_err(),
            to_string(&Some(f64::NEG_INFINITY)).unwrap_err(),
            to_string(&(1u32, vec![0.5, f64::INFINITY])).unwrap_err(),
        ] {
            assert_eq!(err.protocol_kind(), Some(ProtocolKind::NonFinite));
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Meters(f64);
    crate::json_codec! { newtype Meters }

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Point,
        Circle { r: Meters, label: Option<String> },
        Path(Vec<(f64, f64)>),
    }
    crate::json_codec! {
        enum Shape {
            Point = "point",
            Circle { r, label } = "circle",
            Path(points) = "path",
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Scene {
        id: u64,
        shapes: Vec<Shape>,
        scale: [f64; 2],
        hidden: bool,
    }
    crate::json_codec! { struct Scene { id, shapes, scale, hidden = false } }

    fn kind_of<T: FromJson>(text: &str) -> Option<ProtocolKind> {
        from_str::<T>(text).err().and_then(|e| e.protocol_kind())
    }

    #[test]
    fn codec_macro_covers_every_shape() {
        let text = r#"{"id":18446744073709551615,"shapes":["point",{"circle":{"r":0.25,"label":null}},{"path":[[0,-1.5],[0.0000001,2]]}],"scale":[1,0.5],"hidden":true}"#;
        let scene: Scene = from_str(text).unwrap();
        assert_eq!(scene.id, u64::MAX);
        assert_eq!(scene.shapes[2], Shape::Path(vec![(0.0, -1.5), (1e-7, 2.0)]));
        assert_eq!(to_string(&scene).unwrap(), text);
        // Defaults fill absent fields; unknown keys are skipped, keys
        // come in any order, and the first of duplicate keys wins.
        let old: Scene = from_str(r#"{"id":1,"shapes":[],"scale":[0,0],"extra":{}}"#).unwrap();
        assert!(!old.hidden);
        let shuffled: Scene =
            from_str(r#"{"scale":[0,0],"id":2,"id":"x","shapes":[],"hidden":true}"#).unwrap();
        assert_eq!((shuffled.id, shuffled.hidden), (2, true));
        for bad in [
            r#"{"shapes":[],"scale":[0,0]}"#,
            r#"{"id":-1,"shapes":[],"scale":[0,0]}"#,
            r#"{"id":"x","id":1,"shapes":[],"scale":[0,0]}"#,
            r#"{"id":1,"shapes":["square"],"scale":[0,0]}"#,
            r#"{"id":1,"shapes":[{"point":1}],"scale":[0,0]}"#,
            r#"{"id":1,"shapes":["circle"],"scale":[0,0]}"#,
            r#"{"id":1,"shapes":[{}],"scale":[0,0]}"#,
            r#"{"id":1,"shapes":[{"path":[],"point":null}],"scale":[0,0]}"#,
            r#"{"id":1,"shapes":[],"scale":[0]}"#,
            r#"{"id":1,"shapes":[],"scale":[0,0,0]}"#,
            r#"{"id":1,"shapes":[{"path":[[1]]}],"scale":[0,0]}"#,
            r#"{"id":1,"shapes":[{"path":[[1,2,3]]}],"scale":[0,0]}"#,
            r#"[]"#,
        ] {
            assert_eq!(kind_of::<Scene>(bad), Some(ProtocolKind::Schema), "{bad}");
        }
    }

    #[test]
    fn a_syntax_error_anywhere_outranks_a_schema_error() {
        for bad in [
            // The schema error comes first, the syntax error later.
            r#"{"id":"x","shapes":[],"scale":[0,0]"#,
            r#"{"id":[1],"shapes":[],"scale":[0,0]} x"#,
            r#"{"shapes":[],"scale":[0,0],"extra":[1,]}"#,
            r#"{"id":1,"shapes":["square",nul],"scale":[0,0]}"#,
            // Unknown keys and losing duplicates are still checked.
            r#"{"id":1,"shapes":[],"scale":[0,0],"extra":01}"#,
            r#"{"id":1,"id":"\q","shapes":[],"scale":[0,0]}"#,
        ] {
            assert_eq!(
                kind_of::<Scene>(bad),
                Some(ProtocolKind::Malformed),
                "{bad}"
            );
        }
        let deep = format!("{{\"id\":[1],\"x\":{}{}}}", "[".repeat(40), "]".repeat(40));
        assert_eq!(kind_of::<Scene>(&deep), Some(ProtocolKind::Malformed));
    }

    /// Writes `scene` with its keys in a random order, plus unknown keys
    /// and ill-typed duplicates of known ones after them (which must
    /// lose).
    fn scrambled(g: &mut check::Gen, scene: &Scene) -> String {
        let mut members = vec![
            format!("\"id\":{}", to_string(&scene.id).unwrap()),
            format!("\"shapes\":{}", to_string(&scene.shapes).unwrap()),
            format!("\"scale\":{}", to_string(&scene.scale).unwrap()),
            format!("\"hidden\":{}", to_string(&scene.hidden).unwrap()),
        ];
        for i in (1..members.len()).rev() {
            members.swap(i, g.usize_in(0..=i));
        }
        let mut out = Vec::new();
        for m in members {
            let key = m[..m.find(':').unwrap()].to_string();
            out.push(m);
            if g.pick(&[true, false]) {
                out.push(format!("{key}:{{\"dup\":[true,null]}}"));
            }
            if g.pick(&[true, false]) {
                out.push("\"unknown\":{\"a\":[1,-2.5e3,\"\\u00e9\"]}".to_string());
            }
        }
        format!("{{{}}}", out.join(","))
    }

    fn random_scene(g: &mut check::Gen) -> Scene {
        // Any finite bit pattern: subnormals, -0.0 and extremes included.
        let float = |g: &mut check::Gen| {
            let v = f64::from_bits(g.u64());
            if v.is_finite() {
                v
            } else {
                -0.0
            }
        };
        Scene {
            id: g.u64(),
            shapes: g.vec(0..5, |g| match g.usize_in(0..3) {
                0 => Shape::Point,
                1 => Shape::Circle {
                    r: Meters(float(g)),
                    label: g.option(|g| "é\"\\\n".repeat(g.usize_in(0..3))),
                },
                _ => Shape::Path(g.vec(0..4, |g| (float(g), float(g)))),
            }),
            scale: [float(g), float(g)],
            hidden: g.pick(&[true, false]),
        }
    }

    /// Random scenes round-trip bit for bit through the canonical
    /// encoding and through scrambled key orders with unknown and
    /// duplicate keys.
    #[test]
    fn scenes_round_trip_through_any_key_order() {
        check::cases(128, |g| {
            let scene = random_scene(g);
            let text = to_string(&scene).unwrap();
            let back: Scene = from_str(&text).unwrap();
            assert_eq!(back, scene);
            assert_eq!(
                to_string(&back).unwrap(),
                text,
                "re-encodes to the same bytes"
            );
            let messy = scrambled(g, &scene);
            let back: Scene = from_str(&messy).unwrap();
            assert_eq!(to_string(&back).unwrap(), text, "{messy}");
        });
    }

    /// Pretty output reads back as the value it encodes, bit for bit:
    /// re-encoded, it gives the canonical bytes.
    #[test]
    fn pretty_scenes_read_back_equal() {
        let empty = Scene {
            id: 1,
            shapes: Vec::new(),
            scale: [0.5, -0.0],
            hidden: false,
        };
        assert_eq!(
            to_string_pretty(&empty).unwrap(),
            "{\n  \"id\": 1,\n  \"shapes\": [],\n  \"scale\": [\n    0.5,\n    -0\n  ],\n  \"hidden\": false\n}\n"
        );
        check::cases(128, |g| {
            let scene = random_scene(g);
            let pretty = to_string_pretty(&scene).unwrap();
            let back: Scene = from_str(&pretty).unwrap();
            assert_eq!(back, scene, "{pretty}");
            assert_eq!(to_string(&back).unwrap(), to_string(&scene).unwrap());
        });
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" slash\\ newline\n tab\t nul\u{01} é 日本 \u{1f600}";
        let mut s = String::new();
        push_str(&mut s, original);
        assert_eq!(from_str::<String>(&s).unwrap(), original);
        // Surrogate-pair escapes decode too.
        assert_eq!(
            from_str::<String>("\"\\ud83d\\ude00\"").unwrap(),
            "\u{1f600}"
        );
        // Escaped keys match their plain spelling.
        let v: Scene = from_str(r#"{"\u0069d":3,"shapes":[],"scale":[0,0]}"#).unwrap();
        assert_eq!(v.id, 3);
    }

    #[test]
    fn malformed_documents_fail_cleanly() {
        for bad in [
            "",
            "{",
            "[1,",
            "01",
            "1.",
            "1e",
            "\"a",
            "{\"a\"1}",
            "nul",
            "[1] x",
            r#""\ud800""#,
            "[1,]",
            "{\"a\":1,}",
            "{,}",
            "\"tab\there\"",
        ] {
            assert_eq!(
                syntax(bad).unwrap_err().protocol_kind(),
                Some(ProtocolKind::Malformed),
                "{bad:?}"
            );
        }
        // 33 levels parse; one more is too deep, even for a scalar.
        let nest = |n: usize, inner: &str| format!("{}{inner}{}", "[".repeat(n), "]".repeat(n));
        assert!(syntax(&nest(33, "")).is_ok());
        assert!(syntax(&nest(32, "1")).is_ok());
        assert!(syntax(&nest(33, "1")).is_err());
        assert!(syntax(&nest(34, "")).is_err());
    }
}

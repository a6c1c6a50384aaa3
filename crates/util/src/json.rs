//! A minimal JSON document model: construction helpers, a writer (compact and
//! pretty), and one pull reader that every decoder reads from.
//!
//! Numbers are stored as `f64`, objects preserve insertion order.
//!
//! Writing has one path. A document type describes itself once
//! ([`Emit`]), as a stream of events into the one writer, [`JsonSink`],
//! which appends compact text with no tree in between ([`write_json`]).
//! [`JsonSink::raw`] splices in text rendered earlier (see
//! [`RenderedOnce`]), so a document served many times is formatted once and
//! copied after that. A document's [`Value`] form ([`to_value`]) is a parse
//! of that text, so the tree cannot drift from it.
//!
//! Reading is the mirror image, and it always starts from text: a
//! [`Reader`] pulls [`Event`]s off a text one token at a time. It lends
//! keys and strings that need no unescaping straight from the text, parses
//! plain integers without the float parser, stops at [`MAX_DEPTH`] and
//! reports byte offsets in its errors. [`Value::parse`] builds a tree from
//! those events; a typed decoder reads them itself, from a request line
//! read off the wire or a file read off disk ([`decode_text`]). A reader
//! that meets a container whose text it has read before
//! ([`Reader::with_text`] lends that text) can step past it without
//! tokenizing it again ([`Reader::pass_over`]): a connection does that for
//! the topology every request line repeats.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::OnceLock;

/// Deepest container nesting a [`Reader`] (and so [`Value::parse`])
/// accepts. The text comes from the wire and from disk, and a tree built
/// from it is dropped and decoded recursively, so the limit is what keeps a
/// line of `[` from overflowing the stack of the thread that reads it.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().and_then(whole)
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out);
        out
    }

    /// Renders the value as indented JSON.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: usize = 2;
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            for _ in 0..INDENT * depth {
                out.push(' ');
            }
        };
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
            // Scalars and empty containers read the same in both forms.
            _ => write_json(self, out),
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut reader = Reader::new(text);
        let first = reader.step()?;
        let v = Value::read(first, &mut reader)?;
        reader.finish()?;
        Ok(v)
    }

    /// The value `first` begins, read to its end from `reader`. Recurses
    /// once per level, which the reader bounds at [`MAX_DEPTH`].
    fn read<'a>(first: Event<'a>, reader: &mut Reader<'a>) -> Result<Value, JsonError> {
        Ok(match first {
            Event::Null => Value::Null,
            Event::Bool(b) => Value::Bool(b),
            Event::Num(n) => Value::Num(n),
            Event::Str(s) => Value::Str(s.into_owned()),
            Event::BeginArr => {
                let mut items = Vec::new();
                loop {
                    match reader.step()? {
                        Event::EndArr => break Value::Arr(items),
                        item => items.push(Value::read(item, reader)?),
                    }
                }
            }
            Event::BeginObj => {
                let mut pairs = Vec::new();
                // The reader yields a key or the end here, and a value after a key.
                while let Event::Key(key) = reader.step()? {
                    let first = reader.step()?;
                    pairs.push((key.into_owned(), Value::read(first, reader)?));
                }
                Value::Obj(pairs)
            }
            // A reader opens every value with one of the events above.
            Event::EndArr | Event::Key(_) | Event::EndObj => {
                return Err(reader.error("unexpected event"))
            }
        })
    }
}

/// `n` as a count or index: a non-negative whole number, saturating at
/// `usize::MAX` (so `1e300` reads as `usize::MAX`, which range checks then
/// refuse).
fn whole(n: f64) -> Option<usize> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as usize)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Num(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Arr(v)
    }
}

/// A type with one JSON form, written once as events into a [`JsonSink`].
pub trait Emit {
    /// Writes the document to `sink`.
    fn emit(&self, sink: &mut JsonSink<'_>);
}

/// Appends the compact JSON text of `doc` to `out`.
pub fn write_json<T: Emit + ?Sized>(doc: &T, out: &mut String) {
    doc.emit(&mut JsonSink { out, comma: false });
}

/// The [`Value`] form of `doc`: [`Value::parse`] of the text
/// [`write_json`] writes, so `to_value(doc).to_json()` is that text. A
/// non-finite number, written `null`, reads back as [`Value::Null`]; so
/// does a whole document the reader refuses (nested past [`MAX_DEPTH`]).
pub fn to_value<T: Emit + ?Sized>(doc: &T) -> Value {
    let mut text = String::new();
    write_json(doc, &mut text);
    Value::parse(&text).unwrap_or(Value::Null)
}

impl Emit for Value {
    fn emit(&self, sink: &mut JsonSink<'_>) {
        match self {
            Value::Null => sink.null(),
            Value::Bool(b) => sink.bool(*b),
            Value::Num(n) => sink.num(*n),
            Value::Str(s) => sink.str(s),
            Value::Arr(items) => {
                sink.begin_arr();
                for v in items {
                    v.emit(sink);
                }
                sink.end_arr();
            }
            Value::Obj(pairs) => {
                sink.begin_obj();
                for (k, v) in pairs {
                    sink.key(k);
                    v.emit(sink);
                }
                sink.end_obj();
            }
        }
    }
}

/// Writes one document as compact text, an event at a time. A caller
/// writes the values in document order, and inside an object each after
/// its [`key`](JsonSink::key).
///
/// `comma` is true exactly when the next value or key has a sibling before
/// it, which one flag can track: opening a container or writing a key
/// clears it, finishing any value sets it.
pub struct JsonSink<'a> {
    out: &'a mut String,
    comma: bool,
}

impl JsonSink<'_> {
    /// `null`
    pub fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }
    /// `true` / `false`
    pub fn bool(&mut self, b: bool) {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
    }
    /// A number (non-finite values become `null`, as in [`Value::to_json`]).
    pub fn num(&mut self, n: f64) {
        self.separate();
        write_number(self.out, n);
    }
    /// A count or index: the number `Value::from(n)` holds.
    pub fn uint(&mut self, n: usize) {
        // Below `write_number`'s integer bound `n as f64` is exact and takes
        // the digit loop; go there without the float round trip.
        match i64::try_from(n) {
            Ok(i) if i < 9_000_000_000_000_000 => {
                self.separate();
                write_integer(self.out, i);
            }
            _ => self.num(n as f64),
        }
    }
    /// A string.
    pub fn str(&mut self, s: &str) {
        self.separate();
        write_string(self.out, s);
    }
    /// One whole value given as the compact text [`write_json`] made of
    /// it, copied as it is.
    pub fn raw(&mut self, json: &str) {
        self.separate();
        self.out.push_str(json);
    }
    /// Opens an array.
    pub fn begin_arr(&mut self) {
        self.open('[');
    }
    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.close(']');
    }
    /// Opens an object.
    pub fn begin_obj(&mut self) {
        self.open('{');
    }
    /// The key of the next value of the innermost object; that value is
    /// written next, on the sink returned (`sink.key("n").uint(n)`).
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.separate();
        write_string(self.out, k);
        self.out.push(':');
        self.comma = false;
        self
    }
    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        self.close('}');
    }
    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }
    fn open(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
    }
    fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma = true;
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no inf/NaN; emit null like serde_json's lossy modes would
        // reject — downstream tooling treats null as "not available".
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write_integer(out, n as i64);
    } else {
        // Shortest round-trip digits, straight into `out`; writing to a
        // `String` cannot fail.
        let _ = write!(out, "{n}");
    }
}

fn write_integer(out: &mut String, n: i64) {
    // 9e15 has 16 digits.
    let mut digits = [0u8; 16];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    while at > 0 {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    for &d in &digits[at..] {
        out.push(d as char);
    }
}

fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Runs between escapes are copied as slices; the bytes that need an
    // escape are ASCII, so every cut is on a character boundary.
    let mut copied = 0;
    for (i, &c) in s.as_bytes().iter().enumerate() {
        let escape = match c {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        out.push_str(escape);
        if escape.len() == 4 {
            out.push(HEX[usize::from(c >> 4)] as char);
            out.push(HEX[usize::from(c & 0xf)] as char);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

/// A JSON parse error with the byte offset at which it occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// `10^i`, each exact in an `f64`.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// One step through a JSON document, in document order: a scalar, the
/// opening or closing of a container, or the key of an object's next value.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string: a slice of the text unless it had escapes to decode.
    Str(Cow<'a, str>),
    /// Opens an array.
    BeginArr,
    /// Closes the innermost array.
    EndArr,
    /// Opens an object.
    BeginObj,
    /// The key of the next value of the innermost object.
    Key(Cow<'a, str>),
    /// Closes the innermost object.
    EndObj,
}

impl<'a> Event<'a> {
    /// The number, if the event is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Event::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a count, by [`Value::as_usize`]'s rule.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().and_then(whole)
    }

    /// The string, if the event is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Event::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The string, if the event is one, still borrowed from the text when
    /// it was.
    pub fn into_str(self) -> Option<Cow<'a, str>> {
        match self {
            Event::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Decodes the one document `text` holds with `decode` (see [`Reader`]
/// for its two errors); malformed JSON anywhere in the text is reported
/// before the decoder's own error.
pub fn decode_text<'t, T, E: From<JsonError>>(
    text: &'t str,
    decode: impl FnOnce(Event<'t>, &mut Reader<'t>) -> Result<Result<T, E>, JsonError>,
) -> Result<T, E> {
    let mut reader = Reader::new(text);
    let first = reader.next()?;
    let value = decode(first, &mut reader)?;
    reader.finish()?;
    value
}

/// A document's compact text, rendered by the first [`RenderedOnce::text`]
/// call and kept, for a document that is written out many times and never
/// changes: a schedule in the cache is formatted for its first reply and
/// copied into every reply after that ([`JsonSink::raw`]).
///
/// It is a memo, not part of the value that holds it: every two compare
/// equal, and a clone starts empty, so a copy that is then changed never
/// serves the original's text.
#[derive(Default)]
pub struct RenderedOnce(OnceLock<Box<str>>);

impl RenderedOnce {
    /// The compact text of `doc`, which must be the document that holds
    /// this memo and must not have changed since the first call.
    pub fn text<T: Emit + ?Sized>(&self, doc: &T) -> &str {
        self.0.get_or_init(|| {
            let mut out = String::new();
            write_json(doc, &mut out);
            out.into_boxed_str()
        })
    }

    /// A memo that already holds `text`, which must be the compact text of
    /// the document that will hold it (read back from where it was written,
    /// say).
    pub fn kept(text: &str) -> Self {
        RenderedOnce(OnceLock::from(Box::from(text)))
    }
}

impl Clone for RenderedOnce {
    fn clone(&self) -> Self {
        RenderedOnce::default()
    }
}

impl PartialEq for RenderedOnce {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for RenderedOnce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.0.get().is_some() {
            "rendered"
        } else {
            "empty"
        };
        write!(f, "RenderedOnce({state})")
    }
}

/// What a [`Reader`] expects after the last event it yielded.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// A value: the root, an array item after `,`, or the value of a key.
    Value,
    /// An array's first item or its `]`.
    FirstItem,
    /// An object's first key or its `}`.
    FirstKey,
    /// `,` or the close of the innermost container.
    Separator,
    /// Nothing: the root value is complete.
    Done,
}

/// A pull reader over one JSON text: each [`Reader::next`] reads one
/// token. A syntax error is reported at the byte where it was found, with
/// the messages [`Value::parse`] has always given. [`Reader::pass_over`]
/// steps past a container whose text is already known in one comparison.
///
/// A decoder is handed the first event of its value and reads the value to
/// its end, whether or not it liked what it read: the caller can then go
/// on reading. That is why decoders return
/// `Result<Result<T, E>, JsonError>`: the outer error is malformed JSON,
/// which stops the read; the inner one is a well-formed value that is not a
/// `T`, which the caller may hold back until the whole document has been
/// read (malformed JSON later in the text takes precedence).
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Open containers: the number, and bit `i` set when the `i`-th from
    /// the root is an object. [`MAX_DEPTH`] is the width of the mask.
    depth: usize,
    objects: u128,
    expect: Expect,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            objects: 0,
            expect: Expect::Value,
        }
    }

    /// Checks that the root value was read to its end and only whitespace
    /// follows it.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.expect != Expect::Done {
            return Err(self.error("unexpected end of value"));
        }
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters"));
        }
        Ok(())
    }

    /// Steps past the container whose first event the reader just yielded
    /// when its text, from the opening bracket, starts with `known`, and
    /// returns whether it did; otherwise it reads nothing. Nothing inside
    /// the span is tokenized: the reader ends where reading the container
    /// to its end would have left it, with the same position, depth and
    /// expectation.
    ///
    /// `known` must be the text of a container that a reader read to its
    /// end (what [`Reader::with_text`] returns), opened no shallower
    /// than this one, so that its nesting fits under [`MAX_DEPTH`] here
    /// too. Identical bytes make identical tokens, and a span ends at its
    /// closing bracket, so whatever follows it is read as it would have
    /// been.
    pub fn pass_over(&mut self, known: &str) -> bool {
        // A container's first event leaves the reader expecting its first
        // key or item, one byte past its bracket.
        let bracket = match self.expect {
            Expect::FirstKey => b'{',
            Expect::FirstItem => b'[',
            _ => return false,
        };
        let start = self.pos - 1;
        if known.as_bytes().first() != Some(&bracket)
            || !self.bytes()[start..].starts_with(known.as_bytes())
        {
            return false;
        }
        self.pos = start + known.len();
        self.depth -= 1;
        self.expect = self.after_value();
        true
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn error(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    /// The value at `pos`: a scalar whole, or the opening of a container.
    fn value(&mut self) -> Result<Event<'a>, JsonError> {
        let event = match self.peek() {
            None => return Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null").map(|_| Event::Null)?,
            Some(b't') => self.literal("true").map(|_| Event::Bool(true))?,
            Some(b'f') => self.literal("false").map(|_| Event::Bool(false))?,
            Some(b'"') => Event::Str(self.string()?),
            Some(b'[') => return self.open(false),
            Some(b'{') => return self.open(true),
            Some(_) => Event::Num(self.number()?),
        };
        self.expect = self.after_value();
        Ok(event)
    }

    fn open(&mut self, object: bool) -> Result<Event<'a>, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.pos += 1;
        let bit = 1u128 << self.depth;
        self.depth += 1;
        if object {
            self.objects |= bit;
            self.expect = Expect::FirstKey;
            Ok(Event::BeginObj)
        } else {
            self.objects &= !bit;
            self.expect = Expect::FirstItem;
            Ok(Event::BeginArr)
        }
    }

    /// Consumes the bracket at `pos`, which closes the innermost container.
    fn close(&mut self, event: Event<'a>) -> Event<'a> {
        self.pos += 1;
        self.depth -= 1;
        self.expect = self.after_value();
        event
    }

    fn after_value(&self) -> Expect {
        if self.depth == 0 {
            Expect::Done
        } else {
            Expect::Separator
        }
    }

    /// A key at `pos` and the `:` after it.
    fn key(&mut self) -> Result<Event<'a>, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.error("expected `:`"));
        }
        self.pos += 1;
        self.expect = Expect::Value;
        Ok(Event::Key(key))
    }

    /// Advances to the next `"` or `\` (or the end of the input) and returns
    /// the text skipped. Both are ASCII, so the cut is on a character
    /// boundary.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        let run = self.bytes()[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .unwrap_or(self.text.len() - start);
        self.pos = start + run;
        &self.text[start..self.pos]
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        // An escape-free string — every key, nearly every value — is lent
        // out as one slice of the input.
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = run.to_string();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                _ => {
                    self.escape(&mut out)?;
                    out.push_str(self.plain_run());
                }
            }
        }
    }

    /// Decodes the escape sequence at `pos` (a `\`) onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.pos += 1;
        let b = self.bytes();
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let bad = |pos: usize| JsonError {
                    pos,
                    msg: "bad \\u escape".into(),
                };
                let read_hex = |at: usize| {
                    b.get(at..at + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                };
                let mut cp = read_hex(self.pos + 1).ok_or(bad(self.pos))?;
                self.pos += 4;
                // Combine UTF-16 surrogate pairs (how standard
                // serializers escape non-BMP characters).
                if (0xd800..0xdc00).contains(&cp) {
                    if b.get(self.pos + 1..self.pos + 3) != Some(br"\u") {
                        return Err(bad(self.pos));
                    }
                    let low = read_hex(self.pos + 3).ok_or(bad(self.pos))?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(bad(self.pos));
                    }
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                    self.pos += 6;
                }
                out.push(char::from_u32(cp).ok_or(bad(self.pos))?);
            }
            _ => return Err(self.error("bad escape")),
        }
        self.pos += 1;
        Ok(())
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let b = self.bytes();
        let start = self.pos;
        let more = |at: usize| {
            matches!(
                b.get(at),
                Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            )
        };
        // A plain run of at most 15 digits, with or without a fraction that
        // keeps it at 15 digits in all, is exact below 2^53, as is every
        // power of ten up to 1e15; one IEEE division rounds their quotient
        // correctly, to the bits the float parser returns. The writer's
        // numbers (integers, `0.0000007`) all take this path.
        let digit = |at: usize| b.get(at).filter(|c| c.is_ascii_digit());
        let negative = b.get(start) == Some(&b'-');
        let first = start + usize::from(negative);
        let mut end = first;
        let mut int = 0u64;
        while end - first < 16 {
            let Some(d) = digit(end) else { break };
            int = int * 10 + u64::from(d - b'0');
            end += 1;
        }
        let whole_digits = end - first;
        let mut scale = 0;
        if (1..=15).contains(&whole_digits) && b.get(end) == Some(&b'.') {
            while whole_digits + scale < 16 {
                let Some(d) = digit(end + 1 + scale) else {
                    break;
                };
                int = int * 10 + u64::from(d - b'0');
                scale += 1;
            }
            if scale > 0 {
                end += 1 + scale;
            }
        }
        if (1..=15).contains(&(whole_digits + scale)) && !more(end) {
            self.pos = end;
            let n = if scale == 0 {
                int as f64
            } else {
                int as f64 / POW10[scale]
            };
            return Ok(if negative { -n } else { n });
        }
        while more(end) {
            end += 1;
        }
        self.pos = end;
        self.text[start..end].parse::<f64>().map_err(|_| JsonError {
            pos: start,
            msg: "invalid number".into(),
        })
    }
}

impl<'a> Reader<'a> {
    /// The next event. Not an [`Iterator`]: a read past the end of the
    /// document is an error, not the end of a sequence.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Event<'a>, JsonError> {
        self.step()
    }

    /// Reads and drops the rest of the value that `first` began.
    #[inline]
    pub fn skip(&mut self, first: &Event<'a>) -> Result<(), JsonError> {
        if !matches!(first, Event::BeginArr | Event::BeginObj) {
            return Ok(());
        }
        let mut depth = 1usize;
        while depth > 0 {
            match self.next()? {
                Event::BeginArr | Event::BeginObj => depth += 1,
                Event::EndArr | Event::EndObj => depth -= 1,
                _ => {}
            }
        }
        Ok(())
    }

    /// Reads the value `first` begins as `get` takes a scalar (for example
    /// [`Event::as_f64`]); a container is skipped and reads as `None`.
    pub fn scalar<T>(
        &mut self,
        first: Event<'a>,
        get: impl FnOnce(Event<'a>) -> Option<T>,
    ) -> Result<Option<T>, JsonError> {
        self.skip(&first)?;
        Ok(get(first))
    }

    /// Reads the object `first` begins, handing each member's key and the
    /// first event of its value to `member`, which must read that value to
    /// its end. Any other value is skipped, and the result is `false`.
    pub fn object(
        &mut self,
        first: Event<'a>,
        mut member: impl FnMut(&str, Event<'a>, &mut Self) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if !matches!(first, Event::BeginObj) {
            self.skip(&first)?;
            return Ok(false);
        }
        // The reader yields a key or the end here, and a value after a key.
        while let Event::Key(key) = self.next()? {
            let value = self.next()?;
            member(&key, value, self)?;
        }
        Ok(true)
    }

    /// Reads the array `first` begins, handing the first event of each
    /// item to `item`, which must read that item to its end. Any other
    /// value is skipped, and the result is `false`.
    pub fn array(
        &mut self,
        first: Event<'a>,
        mut item: impl FnMut(Event<'a>, &mut Self) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if !matches!(first, Event::BeginArr) {
            self.skip(&first)?;
            return Ok(false);
        }
        loop {
            match self.next()? {
                Event::EndArr => return Ok(true),
                value => item(value, self)?,
            }
        }
    }

    /// Reads the value `first` begins with `read`, which must read it to
    /// its end, and returns the text that value spans when it is a
    /// container. `first` must be the event this reader yielded last.
    pub fn with_text<T>(
        &mut self,
        first: Event<'a>,
        read: impl FnOnce(Event<'a>, &mut Self) -> Result<T, JsonError>,
    ) -> Result<(T, Option<&'a str>), JsonError> {
        // Yielding a container's first event consumed its one-byte bracket
        // and nothing after it.
        let start = match first {
            Event::BeginArr | Event::BeginObj => self.pos.checked_sub(1),
            _ => None,
        };
        let value = read(first, self)?;
        Ok((
            value,
            start.and_then(|start| self.text.get(start..self.pos)),
        ))
    }

    /// [`Reader::next`]; forced inline so that [`Value::read`], which
    /// calls it for every token of every parse, has it in its own body.
    #[inline(always)]
    fn step(&mut self) -> Result<Event<'a>, JsonError> {
        self.skip_ws();
        match self.expect {
            Expect::Value => self.value(),
            Expect::FirstItem if self.peek() == Some(b']') => Ok(self.close(Event::EndArr)),
            Expect::FirstItem => self.value(),
            Expect::FirstKey if self.peek() == Some(b'}') => Ok(self.close(Event::EndObj)),
            Expect::FirstKey => self.key(),
            Expect::Separator => {
                let object = self.objects >> (self.depth - 1) & 1 == 1;
                match (self.peek(), object) {
                    (Some(b','), _) => {
                        self.pos += 1;
                        self.skip_ws();
                        if object {
                            self.key()
                        } else {
                            self.value()
                        }
                    }
                    (Some(b']'), false) => Ok(self.close(Event::EndArr)),
                    (Some(b'}'), true) => Ok(self.close(Event::EndObj)),
                    (_, false) => Err(self.error("expected `,` or `]`")),
                    (_, true) => Err(self.error("expected `,` or `}`")),
                }
            }
            Expect::Done => Err(self.error("trailing characters")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let v = Value::obj(vec![
            ("name", Value::from("sched")),
            ("count", Value::from(3usize)),
            ("rate", Value::from(0.25)),
            ("ok", Value::from(true)),
            (
                "items",
                Value::Arr(vec![Value::from(1usize), Value::Null, Value::from("x")]),
            ),
        ]);
        let text = v.to_json();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        let pretty = v.to_json_pretty();
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let v = Value::parse(r#""a\ud83d\ude00b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{1f600}b"));
        // Lone or malformed surrogates are rejected, not silently corrupted.
        assert!(Value::parse(r#""\ud83d""#).is_err());
        assert!(Value::parse(r#""\ud83dx""#).is_err());
        assert!(Value::parse(r#""\ud83d\u0041""#).is_err());
        // Raw non-BMP characters round-trip through the writer and parser.
        let v = Value::from("snowman \u{2603} emoji \u{1f600}");
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::from("a\"b\\c\nd\te\u{1}");
        let back = Value::parse(&v.to_json()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn accessors() {
        let v = Value::parse(r#"{"a": 1, "b": "s", "c": [true, null], "d": 1.5}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_usize), Some(1));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("s"));
        assert_eq!(v.get("c").and_then(Value::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(
            v.get("c").unwrap().as_arr().unwrap()[0].as_bool(),
            Some(true)
        );
        assert_eq!(v.get("d").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("d").and_then(Value::as_usize), None);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Value::from(3usize).to_json(), "3");
        assert_eq!(Value::from(2.5).to_json(), "2.5");
    }

    use crate::Rng64;

    /// Strings that exercise every branch of the string kernels.
    const STRINGS: &[&str] = &[
        "",
        "plain",
        "source",
        "with \"quotes\" and \\ backslash",
        "line\nfeed\rreturn\ttab",
        "\u{0}\u{1}\u{8}\u{c}\u{1f}",
        "\u{7f} del is not escaped",
        "caf\u{e9} \u{2603} \u{1f600}",
        "\u{1f600}\"\u{1f600}\\\u{10ffff}",
        "/slash",
        "trailing backslash \\",
    ];

    /// Numbers on every edge the number kernels branch on.
    const NUMBERS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        7.0,
        42.0,
        0.5,
        -2.5,
        1.0 / 3.0,
        3.3e-6,
        999_999_999_999_999.0,
        1e15,
        -999_999_999_999_999.0,
        8_999_999_999_999_999.0,
        9e15,
        -9e15,
        9_007_199_254_740_992.0,
        9_007_199_254_740_993.0,
        -9_007_199_254_740_992.0,
        1e16,
        1e21,
        1e300,
        -1e300,
        1e-300,
        5e-324,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        16.0 * 1024.0 * 1024.0,
    ];

    fn random_string(rng: &mut Rng64) -> String {
        if rng.gen_bool(0.5) {
            return STRINGS[rng.gen_range_usize(STRINGS.len())].to_string();
        }
        (0..rng.gen_range_usize(12))
            .map(|_| match rng.gen_range_usize(6) {
                0 => char::from(rng.gen_range_usize(0x20) as u8),
                1 => ['"', '\\', '/', '\u{7f}'][rng.gen_range_usize(4)],
                2 => char::from_u32(0x80 + rng.gen_range_usize(0x700) as u32).unwrap(),
                3 => char::from_u32(0x1_0000 + rng.gen_range_usize(0xf_0000) as u32).unwrap(),
                _ => char::from(b'a' + rng.gen_range_usize(26) as u8),
            })
            .collect()
    }

    fn random_number(rng: &mut Rng64) -> f64 {
        match rng.gen_range_usize(4) {
            0 => NUMBERS[rng.gen_range_usize(NUMBERS.len())],
            1 => rng.gen_range_usize(100) as f64,
            2 => {
                (rng.next_u64() >> rng.gen_range_usize(64)) as f64
                    * [1.0, -1.0][rng.gen_range_usize(2)]
            }
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    fn random_value(rng: &mut Rng64, depth: usize) -> Value {
        let kinds = if depth < 4 { 7 } else { 5 };
        match rng.gen_range_usize(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 | 3 => Value::Num(random_number(rng)),
            4 => Value::Str(random_string(rng)),
            5 => Value::Arr(
                (0..rng.gen_range_usize(5))
                    .map(|_| random_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..rng.gen_range_usize(5))
                    .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// Rewrites a compact text the way other writers would have produced it:
    /// whitespace between tokens, `\u` escapes (with surrogate pairs) in place
    /// of raw characters, `\/`, exponents and signs on numbers.
    fn restyle(text: &str, rng: &mut Rng64) -> String {
        let mut out = String::new();
        let mut in_string = false;
        // Characters left of the escape sequence being copied.
        let mut escape = 0;
        for c in text.chars() {
            if in_string {
                if escape > 0 {
                    escape = if c == 'u' { 4 } else { escape - 1 };
                    out.push(c);
                } else if c == '\\' {
                    escape = 1;
                    out.push(c);
                } else if c == '"' {
                    in_string = false;
                    out.push(c);
                } else if c == '/' && rng.gen_bool(0.5) {
                    out.push_str("\\/");
                } else if rng.gen_bool(0.2) {
                    let mut units = [0u16; 2];
                    for u in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{u:04X}"));
                    }
                } else {
                    out.push(c);
                }
                continue;
            }
            in_string = c == '"';
            if matches!(c, ',' | ':' | '[' | ']' | '{' | '}') && rng.gen_bool(0.3) {
                out.push_str([" ", "\n", "\t ", "\r\n"][rng.gen_range_usize(4)]);
                out.push(c);
                out.push(' ');
            } else {
                out.push(c);
            }
        }
        out
    }

    /// One random edit that may or may not leave the text valid.
    fn mutate(text: &str, rng: &mut Rng64) -> String {
        let mut chars: Vec<char> = text.chars().collect();
        const NOISE: &[char] = &[
            '"',
            '\\',
            ',',
            ':',
            '[',
            ']',
            '{',
            '}',
            '-',
            '+',
            '.',
            'e',
            'E',
            '0',
            '9',
            'u',
            'n',
            't',
            'f',
            ' ',
            'd',
            '8',
            '\u{e9}',
            '\u{1f600}',
        ];
        let at = rng.gen_range_usize(chars.len() + 1);
        let noise = NOISE[rng.gen_range_usize(NOISE.len())];
        match rng.gen_range_usize(3) {
            0 => chars.insert(at, noise),
            1 if at < chars.len() => chars[at] = noise,
            _ if at < chars.len() => drop(chars.remove(at)),
            _ => chars.push(noise),
        }
        chars.into_iter().collect()
    }

    /// `PartialEq` on `f64` calls NaN unequal to itself and `0.0` equal to
    /// `-0.0`; the parsers must agree to the bit.
    fn same(a: &Result<Value, JsonError>, b: &Result<Value, JsonError>) -> bool {
        fn bits(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
                (Value::Arr(x), Value::Arr(y)) => {
                    x.len() == y.len() && x.iter().zip(y).all(|(x, y)| bits(x, y))
                }
                (Value::Obj(x), Value::Obj(y)) => {
                    x.len() == y.len()
                        && x.iter()
                            .zip(y)
                            .all(|((kx, x), (ky, y))| kx == ky && bits(x, y))
                }
                _ => a == b,
            }
        }
        match (a, b) {
            (Ok(a), Ok(b)) => bits(a, b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    fn assert_parsers_agree(text: &str) {
        let (new, old) = (Value::parse(text), reference::parse(text));
        assert!(same(&new, &old), "{text:?}: {new:?} vs {old:?}");
    }

    #[test]
    fn kernels_match_the_reference_on_random_documents() {
        let mut rng = Rng64::seed_from_u64(0x15);
        let mut escapes = 0usize;
        let mut errors = 0usize;
        for case in 0..12_000 {
            let v = random_value(&mut rng, 0);
            let text = v.to_json();
            assert_eq!(text, reference::to_json(&v), "case {case}");
            assert_eq!(
                v.to_json_pretty(),
                reference::to_json_pretty(&v),
                "case {case}"
            );
            // The sinks are the same document twice.
            assert_eq!(to_value(&v).to_json(), text, "case {case}");
            escapes += usize::from(text.contains('\\'));

            assert_parsers_agree(&text);
            assert_parsers_agree(&v.to_json_pretty());
            let restyled = restyle(&text, &mut rng);
            assert_parsers_agree(&restyled);
            // What was written reads back as what the reference reads.
            assert!(Value::parse(&restyled).is_ok(), "{restyled:?}");

            // Every prefix on a character boundary, for short texts; a few
            // random ones for long texts.
            let cuts: Vec<usize> = if text.len() <= 64 {
                (0..text.len()).collect()
            } else {
                (0..8).map(|_| rng.gen_range_usize(text.len())).collect()
            };
            for cut in cuts.into_iter().filter(|&c| text.is_char_boundary(c)) {
                assert_parsers_agree(&text[..cut]);
            }
            for _ in 0..4 {
                let mutated = mutate(&restyled, &mut rng);
                errors += usize::from(Value::parse(&mutated).is_err());
                assert_parsers_agree(&mutated);
            }
        }
        // The generator reaches the slow paths and the error paths.
        assert!(escapes > 2_000, "{escapes}");
        assert!(errors > 10_000, "{errors}");
    }

    #[test]
    fn number_and_string_edges_match_the_reference() {
        for &n in NUMBERS {
            let v = Value::Num(n);
            assert_eq!(v.to_json(), reference::to_json(&v), "{n:e}");
            assert_parsers_agree(&v.to_json());
        }
        for s in STRINGS {
            let v = Value::from(*s);
            assert_eq!(v.to_json(), reference::to_json(&v), "{s:?}");
            assert_parsers_agree(&v.to_json());
        }
        assert_eq!(Value::Num(-0.0).to_json(), "0");
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(9e15).to_json(), "9000000000000000");
        assert_eq!(
            Value::Num(-8_999_999_999_999_999.0).to_json(),
            "-8999999999999999"
        );
        assert_eq!(Value::Arr(vec![]).to_json(), "[]");
        assert_eq!(Value::Obj(vec![]).to_json_pretty(), "{}");
        for text in [
            "-0",
            "-0.0",
            "007",
            "-",
            "--1",
            "+1",
            "1.",
            ".5",
            "1e",
            "1e5",
            "1E+2",
            "123456789012345",
            "1234567890123456",
            "12345678901234567890",
            "-123456789012345",
            "12-3",
            "1 2",
            "1,",
            "\"\\u+041\"",
            "\"\\ud83d\\ude00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d",
            "\"\\",
            "\"\\x\"",
            "\"a\\",
            "nul",
            "tru e",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{,}",
            "[ ]",
            "{ }",
            "",
            "  ",
        ] {
            assert_parsers_agree(text);
        }
    }

    #[test]
    fn nesting_is_limited() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.pos, MAX_DEPTH);
        assert!(err.msg.contains("nesting"), "{err}");
        // Objects count too, and a megabyte of `[` is an error, not a crash.
        let objects = format!("{}1{}", "{\"k\":".repeat(200), "}".repeat(200));
        assert!(Value::parse(&objects).is_err());
        assert!(Value::parse(&"[".repeat(1 << 20)).is_err());
        assert!(Value::parse(&"[{\"a\":".repeat(1 << 18)).is_err());
    }

    /// A document type written against the sink, as the schedule types are.
    struct Doc;

    impl Emit for Doc {
        fn emit(&self, sink: &mut JsonSink<'_>) {
            sink.begin_obj();
            sink.key("name").str("a\"b");
            sink.key("empty").begin_arr();
            sink.end_arr();
            sink.key("rows").begin_arr();
            for i in 0..2 {
                sink.begin_obj();
                sink.key("i").uint(i);
                sink.key("x").num(0.5);
                sink.end_obj();
            }
            sink.null();
            sink.bool(true);
            sink.end_arr();
            sink.key("none").begin_obj();
            sink.end_obj();
            sink.end_obj();
        }
    }

    #[test]
    fn text_and_tree_sinks_agree() {
        let text = r#"{"name":"a\"b","empty":[],"rows":[{"i":0,"x":0.5},{"i":1,"x":0.5},null,true],"none":{}}"#;
        let mut out = String::from("> ");
        write_json(&Doc, &mut out);
        assert_eq!(out, format!("> {text}"));
        let tree = to_value(&Doc);
        assert_eq!(tree, Value::parse(text).unwrap());
        assert_eq!(tree.to_json(), text);
    }

    #[test]
    fn a_non_finite_number_reads_back_as_null_in_the_tree() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Value::obj(vec![
                ("x", Value::Num(n)),
                ("xs", vec![Value::Num(n)].into()),
            ]);
            assert_eq!(doc.to_json(), r#"{"x":null,"xs":[null]}"#);
            let tree = Value::obj(vec![("x", Value::Null), ("xs", vec![Value::Null].into())]);
            assert_eq!(to_value(&doc), tree, "{n}");
        }
    }

    /// Every event of a reader, to the end of its root value.
    fn events<'a>(src: &mut Reader<'a>) -> Vec<Event<'a>> {
        let mut out = Vec::new();
        let mut depth = 0usize;
        loop {
            let event = src.next().unwrap();
            match event {
                Event::BeginArr | Event::BeginObj => depth += 1,
                Event::EndArr | Event::EndObj => depth -= 1,
                _ => {}
            }
            out.push(event);
            if depth == 0 {
                return out;
            }
        }
    }

    /// The events of `v` in document order, written out by hand.
    fn flatten<'v>(v: &'v Value, out: &mut Vec<Event<'v>>) {
        match v {
            Value::Null => out.push(Event::Null),
            Value::Bool(b) => out.push(Event::Bool(*b)),
            Value::Num(n) => out.push(Event::Num(*n)),
            Value::Str(s) => out.push(Event::Str(Cow::Borrowed(s))),
            Value::Arr(items) => {
                out.push(Event::BeginArr);
                for item in items {
                    flatten(item, out);
                }
                out.push(Event::EndArr);
            }
            Value::Obj(pairs) => {
                out.push(Event::BeginObj);
                for (key, value) in pairs {
                    out.push(Event::Key(Cow::Borrowed(key)));
                    flatten(value, out);
                }
                out.push(Event::EndObj);
            }
        }
    }

    #[test]
    fn reader_and_tree_yield_the_same_events() {
        // The tree is the reference parser's, which shares no code with
        // the reader.
        let mut rng = Rng64::seed_from_u64(0x45);
        for _ in 0..2_000 {
            let text = restyle(&random_value(&mut rng, 0).to_json(), &mut rng);
            let tree = reference::parse(&text).unwrap();
            let mut from_tree = Vec::new();
            flatten(&tree, &mut from_tree);
            assert_eq!(events(&mut Reader::new(&text)), from_tree, "{text}");
        }
        // Strings without escapes are lent out of the text; keys too.
        let mut reader = Reader::new(r#"{"plain":"a\"b"}"#);
        assert_eq!(reader.next(), Ok(Event::BeginObj));
        assert!(matches!(
            reader.next(),
            Ok(Event::Key(Cow::Borrowed("plain")))
        ));
        assert!(matches!(reader.next(), Ok(Event::Str(Cow::Owned(s))) if s == "a\"b"));
        assert_eq!(reader.next(), Ok(Event::EndObj));
        assert_eq!(reader.finish(), Ok(()));
    }

    #[test]
    fn a_reader_lends_the_text_of_a_container() {
        let text = r#"{"a": [1, {"b": "x"}], "c": 2}"#;
        let mut reader = Reader::new(text);
        let mut spans = Vec::new();
        let first = reader.next().unwrap();
        reader
            .object(first, |_, value, src| {
                let ((), span) = src.with_text(value, |value, src| src.skip(&value))?;
                spans.push(span);
                Ok(())
            })
            .unwrap();
        reader.finish().unwrap();
        assert_eq!(spans, [Some(r#"[1, {"b": "x"}]"#), None]);

        let kept = RenderedOnce::kept("[1]");
        assert_eq!(
            kept.text(&Value::Null),
            "[1]",
            "kept text is not rendered again"
        );
    }

    /// A reader at the `n`-th container opening of `text` (0 = the first),
    /// with that opening's event.
    fn at_container(text: &str, n: usize) -> Option<(Reader<'_>, Event<'_>)> {
        let mut reader = Reader::new(text);
        let mut seen = 0;
        loop {
            let event = reader.next().ok()?;
            if matches!(event, Event::BeginArr | Event::BeginObj) {
                if seen == n {
                    return Some((reader, event));
                }
                seen += 1;
            }
        }
    }

    fn state(r: &Reader<'_>) -> (usize, usize, Expect) {
        (r.pos, r.depth, r.expect)
    }

    /// The events a reader has left before its root value is complete.
    fn rest<'a>(r: &mut Reader<'a>) -> Vec<Event<'a>> {
        let mut out = Vec::new();
        while r.expect != Expect::Done {
            out.push(r.next().unwrap());
        }
        out
    }

    #[test]
    fn passing_over_a_known_span_leaves_the_reader_as_reading_it_would() {
        let mut rng = Rng64::seed_from_u64(47);
        let mut passed = 0;
        for _ in 0..600 {
            let text = restyle(&random_value(&mut rng, 0).to_json(), &mut rng);
            for n in 0.. {
                let Some((mut read, first)) = at_container(&text, n) else {
                    break;
                };
                let ((), span) = read.with_text(first, |v, src| src.skip(&v)).unwrap();
                let span = span.unwrap();
                let (mut skipped, _) = at_container(&text, n).unwrap();
                let before = state(&skipped);
                // A text that differs in its last byte is not the known
                // one, and nothing is read.
                let mut wrong = span[..span.len() - 1].to_string();
                wrong.push(' ');
                assert!(!skipped.pass_over(&wrong), "{text}");
                assert_eq!(state(&skipped), before);
                assert!(skipped.pass_over(span), "{text}");
                assert_eq!(state(&skipped), state(&read), "{text} at {n}");
                assert_eq!(rest(&mut skipped), rest(&mut read), "{text}");
                assert_eq!(skipped.finish(), read.finish());
                passed += 1;
            }
        }
        assert!(passed > 300, "{passed}");

        // Only right after a container's first event.
        let mut reader = Reader::new(r#"{"a":[1]}"#);
        assert!(!reader.pass_over(r#"{"a":[1]}"#), "before the first event");
        reader.next().unwrap();
        reader.next().unwrap();
        assert!(!reader.pass_over("[1]"), "after a key");
        assert_eq!(reader.next(), Ok(Event::BeginArr));
        assert!(!reader.pass_over(r#"{"a":[1]}"#), "another bracket");
        assert!(reader.pass_over("[1]"));
        assert_eq!(reader.next(), Ok(Event::EndObj));
        assert_eq!(reader.finish(), Ok(()));
    }

    #[test]
    fn a_known_span_is_not_tokenized() {
        // Text no reader would accept, passed over because it is taken as
        // known: proof that the span's bytes are compared, not read. (A
        // caller that keeps the contract never passes such a span.)
        let text = r#"{"t":{"x":tru},"n":1}"#;
        let mut reader = Reader::new(text);
        let first = reader.next().unwrap();
        let mut n = None;
        reader
            .object(first, |key, value, src| {
                match key {
                    "t" => assert!(src.pass_over(r#"{"x":tru}"#)),
                    _ => n = src.scalar(value, |v| v.as_usize())?,
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(reader.finish(), Ok(()));
        assert_eq!(n, Some(1));
        assert!(Value::parse(text).is_err());
    }

    #[test]
    fn raw_text_is_copied_into_text_and_parsed_into_trees() {
        struct Wrapped<'a>(&'a str);
        impl Emit for Wrapped<'_> {
            fn emit(&self, sink: &mut JsonSink<'_>) {
                sink.begin_arr();
                sink.uint(1);
                sink.raw(self.0);
                sink.end_arr();
            }
        }
        let mut inner = String::new();
        write_json(&Doc, &mut inner);
        let mut out = String::new();
        write_json(&Wrapped(&inner), &mut out);
        assert_eq!(out, format!("[1,{inner}]"));
        assert_eq!(to_value(&Wrapped(&inner)).to_json(), out);

        // A kept text is rendered once; a clone starts without it.
        let kept = RenderedOnce::default();
        assert_eq!(kept.text(&Doc), inner);
        assert_eq!(kept.text(&Value::Null), inner);
        assert_eq!(kept.clone().text(&Value::Null), "null");
        assert!(kept == RenderedOnce::default());
    }

    #[test]
    fn text_sink_uint_is_the_number_value_from_holds() {
        struct Count(usize);
        impl Emit for Count {
            fn emit(&self, sink: &mut JsonSink<'_>) {
                sink.uint(self.0);
            }
        }
        const BOUND: usize = 9_000_000_000_000_000;
        for n in [
            0,
            7,
            10,
            65_535,
            BOUND - 1,
            BOUND,
            BOUND + 1,
            1 << 53,
            (1 << 53) + 1,
            usize::MAX,
        ] {
            let mut out = String::new();
            write_json(&Count(n), &mut out);
            assert_eq!(out, Value::from(n).to_json(), "{n}");
            assert_eq!(to_value(&Count(n)), Value::from(n), "{n}");
        }
    }

    /// The writer and parser as they were before the allocation-free
    /// kernels, frozen: the equivalence tests compare against them byte for
    /// byte and error for error.
    mod reference {
        use super::super::{JsonError, Value};

        pub fn to_json(v: &Value) -> String {
            let mut out = String::new();
            write(v, &mut out, None, 0);
            out
        }

        pub fn to_json_pretty(v: &Value) -> String {
            let mut out = String::new();
            write(v, &mut out, Some(2), 0);
            out
        }

        pub fn parse(text: &str) -> Result<Value, JsonError> {
            let bytes = text.as_bytes();
            let mut pos = 0usize;
            let v = parse_value(bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(JsonError {
                    pos,
                    msg: "trailing characters".into(),
                });
            }
            Ok(v)
        }

        fn write(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
            let (nl, pad, pad_in) = match indent {
                Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
                None => ("", String::new(), String::new()),
            };
            match v {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Num(n) => write_number(out, *n),
                Value::Str(s) => write_string(out, s),
                Value::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(nl);
                        out.push_str(&pad_in);
                        write(v, out, indent, depth + 1);
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    out.push(']');
                }
                Value::Obj(pairs) => {
                    if pairs.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push('{');
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(nl);
                        out.push_str(&pad_in);
                        write_string(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        write(v, out, indent, depth + 1);
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    out.push('}');
                }
            }
        }

        fn write_number(out: &mut String, n: f64) {
            if !n.is_finite() {
                // JSON has no inf/NaN; emit null like serde_json's lossy modes would
                // reject — downstream tooling treats null as "not available".
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }

        fn write_string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        fn skip_ws(b: &[u8], pos: &mut usize) {
            while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
                *pos += 1;
            }
        }

        fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
            if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit.as_bytes() {
                *pos += lit.len();
                Ok(())
            } else {
                Err(JsonError {
                    pos: *pos,
                    msg: format!("expected `{lit}`"),
                })
            }
        }

        fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
            skip_ws(b, pos);
            match b.get(*pos) {
                None => Err(JsonError {
                    pos: *pos,
                    msg: "unexpected end of input".into(),
                }),
                Some(b'n') => expect(b, pos, "null").map(|_| Value::Null),
                Some(b't') => expect(b, pos, "true").map(|_| Value::Bool(true)),
                Some(b'f') => expect(b, pos, "false").map(|_| Value::Bool(false)),
                Some(b'"') => parse_string(b, pos).map(Value::Str),
                Some(b'[') => {
                    *pos += 1;
                    let mut items = Vec::new();
                    skip_ws(b, pos);
                    if b.get(*pos) == Some(&b']') {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(parse_value(b, pos)?);
                        skip_ws(b, pos);
                        match b.get(*pos) {
                            Some(b',') => *pos += 1,
                            Some(b']') => {
                                *pos += 1;
                                return Ok(Value::Arr(items));
                            }
                            _ => {
                                return Err(JsonError {
                                    pos: *pos,
                                    msg: "expected `,` or `]`".into(),
                                })
                            }
                        }
                    }
                }
                Some(b'{') => {
                    *pos += 1;
                    let mut pairs = Vec::new();
                    skip_ws(b, pos);
                    if b.get(*pos) == Some(&b'}') {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    loop {
                        skip_ws(b, pos);
                        let key = parse_string(b, pos)?;
                        skip_ws(b, pos);
                        expect(b, pos, ":")?;
                        let value = parse_value(b, pos)?;
                        pairs.push((key, value));
                        skip_ws(b, pos);
                        match b.get(*pos) {
                            Some(b',') => *pos += 1,
                            Some(b'}') => {
                                *pos += 1;
                                return Ok(Value::Obj(pairs));
                            }
                            _ => {
                                return Err(JsonError {
                                    pos: *pos,
                                    msg: "expected `,` or `}`".into(),
                                })
                            }
                        }
                    }
                }
                Some(_) => parse_number(b, pos).map(Value::Num),
            }
        }

        fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
            if b.get(*pos) != Some(&b'"') {
                return Err(JsonError {
                    pos: *pos,
                    msg: "expected string".into(),
                });
            }
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    None => {
                        return Err(JsonError {
                            pos: *pos,
                            msg: "unterminated string".into(),
                        })
                    }
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let bad = |pos: usize| JsonError {
                                    pos,
                                    msg: "bad \\u escape".into(),
                                };
                                let read_hex = |b: &[u8], at: usize| {
                                    b.get(at..at + 4)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                };
                                let mut cp = read_hex(b, *pos + 1).ok_or(bad(*pos))?;
                                *pos += 4;
                                // Combine UTF-16 surrogate pairs (how standard
                                // serializers escape non-BMP characters).
                                if (0xd800..0xdc00).contains(&cp) {
                                    if b.get(*pos + 1..*pos + 3) != Some(br"\u") {
                                        return Err(bad(*pos));
                                    }
                                    let low = read_hex(b, *pos + 3).ok_or(bad(*pos))?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(bad(*pos));
                                    }
                                    cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                                    *pos += 6;
                                }
                                out.push(char::from_u32(cp).ok_or(bad(*pos))?);
                            }
                            _ => {
                                return Err(JsonError {
                                    pos: *pos,
                                    msg: "bad escape".into(),
                                })
                            }
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 character.
                        let start = *pos;
                        *pos += 1;
                        while *pos < b.len() && (b[*pos] & 0xc0) == 0x80 {
                            *pos += 1;
                        }
                        out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| {
                            JsonError {
                                pos: start,
                                msg: "invalid UTF-8".into(),
                            }
                        })?);
                    }
                }
            }
        }

        fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or(JsonError {
                    pos: start,
                    msg: "invalid number".into(),
                })
        }
    }
}

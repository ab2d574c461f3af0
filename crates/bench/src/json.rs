//! Hand-rolled minimal JSON, for the grid artifact format.
//!
//! The workspace builds offline with no external dependencies, so the
//! cell artifacts of [`crate::grid`] carry their own (de)serializer.
//! The dialect is deliberately narrow — exactly what integer-exact
//! round-tripping of experiment cells needs:
//!
//! * numbers are **unsigned integers** only (`u64`): every measured
//!   quantity in the repo is integer picojoules / cycles / counts, so
//!   floats (and their cross-platform formatting hazards) never enter
//!   the artifact;
//! * objects preserve insertion order (encoded as a `Vec` of pairs), so
//!   encoding is deterministic;
//! * strings escape `"`, `\`, the common control shorthands and other
//!   control characters as `\u00XX`; non-ASCII text (`†`, multi-byte
//!   benchmarks-to-come) is emitted raw as UTF-8, which JSON permits.
//!
//! The parser accepts standard JSON spellings for everything it can
//! represent (including `\uXXXX` escapes with surrogate pairs) and
//! rejects the rest — floats, negative numbers — with a positioned
//! error, rather than silently rounding.
//!
//! There is one writer and one tokenizer. [`write_str`] / [`write_u64`]
//! append straight into a `String`; [`Json::encode`] is built on them,
//! and so are codecs that write their own types with no tree in
//! between (the trace artifact, [`crate::trace`]). [`Reader`] is a pull
//! reader over the text; [`Json::parse`] is a thin tree builder on top
//! of it, and hot decoders walk it directly.

use std::borrow::Cow;
use std::fmt;

/// A JSON value in the artifact dialect (no floats, no negatives).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order so encoding is
    /// deterministic.
    Obj(Vec<(String, Json)>),
}

/// A parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes to compact JSON (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(n) => write_u64(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value; trailing content (other than whitespace)
    /// is an error.
    ///
    /// # Errors
    ///
    /// Malformed input, floats and negative numbers all return a
    /// positioned [`JsonError`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(input);
        let v = r.tree()?;
        r.finish()?;
        Ok(v)
    }
}

/// Appends `s` as a JSON string literal. Runs of characters that need
/// no escape are copied whole; `"`, `\`, `\n`, `\r`, `\t` get their
/// shorthand and other control characters `\u00XX`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let shorthand = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if shorthand.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(shorthand);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `n` in decimal without allocating.
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("digits are ASCII"));
}

/// A pull reader over one JSON text in the artifact dialect: decoders
/// walk the input value by value and build their own types directly,
/// with no [`Json`] tree in between. Whitespace is skipped before
/// every token; every error carries the byte offset it occurred at.
///
/// Each value-reading method consumes exactly one value. Inside
/// [`Reader::object`] and [`Reader::array`] the callback must consume
/// exactly one value per call (use [`Reader::skip`] for values it does
/// not want).
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0 }
    }

    /// An error positioned at the reader's current offset.
    pub fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            at: self.pos,
        }
    }

    /// The first byte of the next token (after whitespace), if any.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Requires that only whitespace remains.
    ///
    /// # Errors
    ///
    /// `trailing content` at the first non-whitespace byte.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing content")),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected '{}'", b as char)))
        }
    }

    /// The error for a token that is not what the caller wanted; a
    /// negative number is named as the dialect violation it is.
    fn unexpected(&mut self, wanted: &str) -> JsonError {
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'-') => self.err("negative numbers are not part of the artifact dialect"),
            Some(_) => self.err(wanted),
        }
    }

    /// Reads an object, calling `f(reader, key)` once per member with
    /// the reader positioned at the member's value. Keys arrive in
    /// input order; duplicates are passed through.
    ///
    /// # Errors
    ///
    /// Malformed input, or the first error `f` returns.
    pub fn object(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.str()?;
            self.expect(b':')?;
            f(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.unexpected("expected ',' or '}'")),
            }
        }
    }

    /// Reads an array, calling `f(reader)` once per element with the
    /// reader positioned at the element.
    ///
    /// # Errors
    ///
    /// Malformed input, or the first error `f` returns.
    pub fn array(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            f(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.unexpected("expected ',' or ']'")),
            }
        }
    }

    /// Reads a string. Borrows from the input when the literal has no
    /// escapes; decodes `\uXXXX` escapes including surrogate pairs.
    ///
    /// # Errors
    ///
    /// A non-string value, a bad escape, a raw control character or an
    /// unterminated literal.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.unexpected("expected a string"));
        }
        self.pos += 1;
        let text = self.text;
        let bytes = text.as_bytes();
        let start = self.pos;
        // Fast path: no escapes. Every byte that ends a run is ASCII, so
        // all slice bounds below are char boundaries.
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&text[start..self.pos - 1]));
                }
                Some(b'\\') => break,
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
        let mut out = String::from(&text[start..self.pos]);
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue; // unicode_escape consumed everything
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let run = self.pos;
                    while matches!(bytes.get(self.pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&text[run..self.pos]);
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (the `\u` is already
    /// consumed), combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&hi) {
            if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                return Err(self.err("high surrogate not followed by low surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("lone surrogate"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        let mut v = 0;
        for &d in digits {
            let nibble = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex in \\u escape"))?;
            v = v << 4 | nibble;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Reads an unsigned integer.
    ///
    /// # Errors
    ///
    /// A non-number, a negative number, a float, or a value past
    /// `u64::MAX`.
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.unexpected("expected an unsigned integer"));
        }
        let bytes = self.text.as_bytes();
        let mut n: u64 = 0;
        while let Some(&d @ b'0'..=b'9') = bytes.get(self.pos) {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.err("integer does not fit in u64"))?;
            self.pos += 1;
        }
        if matches!(bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are not part of the artifact dialect"));
        }
        Ok(n)
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    /// Reads and discards one value of any shape, validating it.
    ///
    /// # Errors
    ///
    /// As [`Json::parse`] on the value.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        self.tree().map(drop)
    }

    /// Reads one value into a [`Json`] tree.
    fn tree(&mut self) -> Result<Json, JsonError> {
        Ok(match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null)?,
            Some(b't') => self.literal("true").map(|()| Json::Bool(true))?,
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false))?,
            Some(b'"') => Json::Str(self.str()?.into_owned()),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.tree()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|r, key| {
                    pairs.push((key.into_owned(), r.tree()?));
                    Ok(())
                })?;
                Json::Obj(pairs)
            }
            Some(b'0'..=b'9') => Json::UInt(self.u64()?),
            _ => return Err(self.unexpected("unexpected character")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.encode();
        assert_eq!(&Json::parse(&text).unwrap(), v, "{text}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::UInt(0));
        roundtrip(&Json::UInt(u64::MAX));
    }

    #[test]
    fn tricky_strings_roundtrip() {
        for s in [
            "",
            "plain",
            "quote\"backslash\\slash/",
            "newline\nreturn\rtab\t",
            "dagger † and emoji 🦀",
            "control\u{1}\u{1f}chars",
            "mixed †\n\"x\"\\",
        ] {
            roundtrip(&Json::Str(s.to_string()));
        }
    }

    #[test]
    fn nested_roundtrip() {
        roundtrip(&Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::UInt(1), Json::Null])),
            (
                "b †".into(),
                Json::Obj(vec![("c".into(), Json::Bool(true))]),
            ),
            ("empty".into(), Json::Arr(Vec::new())),
        ]));
    }

    #[test]
    fn parses_standard_spellings() {
        assert_eq!(
            Json::parse("  { \"a\" : [ 1 , \"\\u0041\\u00e9\" ] }  ").unwrap(),
            Json::Obj(vec![(
                "a".into(),
                Json::Arr(vec![Json::UInt(1), Json::Str("Aé".into())])
            )])
        );
        // Surrogate pair: U+1D11E (musical G clef).
        assert_eq!(
            Json::parse("\"\\ud834\\udd1e\"").unwrap(),
            Json::Str("\u{1D11E}".into())
        );
    }

    #[test]
    fn rejects_out_of_dialect() {
        assert!(Json::parse("-1").is_err());
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e3").is_err());
        assert!(Json::parse("18446744073709551616").is_err()); // u64::MAX + 1
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("\"\\ud834\"").is_err()); // lone high surrogate
    }

    #[test]
    fn control_chars_escape_as_u00xx() {
        assert_eq!(Json::Str("\u{1}".into()).encode(), "\"\\u0001\"");
        assert_eq!(
            Json::parse("\"\\u0001\"").unwrap(),
            Json::Str("\u{1}".into())
        );
    }

    #[test]
    fn writers_match_std_formatting() {
        for n in [0, 7, 10, 99, 1_000_000, u64::MAX] {
            let mut out = String::from("x");
            write_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\u{1f}d†\u{7f}🦀\n");
        assert_eq!(out, "\"a\\\"b\\\\c\\u001fd†\u{7f}🦀\\n\"");
    }

    #[test]
    fn reader_borrows_unescaped_strings() {
        let mut r = Reader::new(" \"plain †\" ");
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain †")));
        r.finish().unwrap();
        let mut r = Reader::new("\"esc\\n\\u00e9\"");
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "esc\né"));
    }

    #[test]
    fn reader_walks_objects_and_skips_unknown_values() {
        let text = r#"{ "a" : 1, "skip": {"x": [null, true, false, "s\"", {}]}, "b": [2, 3] }"#;
        let mut r = Reader::new(text);
        let (mut a, mut b) = (0, Vec::new());
        r.object(|r, key| {
            match &*key {
                "a" => a = r.u64()?,
                "b" => r.array(|r| {
                    b.push(r.u64()?);
                    Ok(())
                })?,
                _ => r.skip()?,
            }
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!((a, b), (1, vec![2, 3]));
    }

    #[test]
    fn reader_errors_are_positioned() {
        let e = Reader::new("  \"x\"").u64().unwrap_err();
        assert_eq!(
            (e.message.as_str(), e.at),
            ("expected an unsigned integer", 2)
        );
        let e = Reader::new("[1, -2]")
            .array(|r| r.u64().map(drop))
            .unwrap_err();
        assert_eq!(e.at, 4);
        assert!(e.message.contains("negative"), "{e}");
        let e = Reader::new("12.5").u64().unwrap_err();
        assert_eq!(
            (e.message.as_str(), e.at),
            ("floats are not part of the artifact dialect", 2)
        );
        let e = Json::parse("{\"a\":1} x").unwrap_err();
        assert_eq!((e.message.as_str(), e.at), ("trailing content", 8));
        for bad in [
            "\"\\u12",
            "\"\\uzzzz\"",
            "\"\\udc00\"",
            "\"\\ud834\\u0041\"",
            "[1,",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }
}

//! The repo's integer-JSON dialect: one writer and one pull reader.
//!
//! Every artifact that crosses a process boundary — grid cells, cache
//! records, worker lines, `gridd` frames, trace artifacts and telemetry
//! registries — is written and read through this module. It lives in
//! this zero-dependency crate so that every layer, the emulator
//! included, can use it. The dialect is deliberately narrow, exactly
//! what integer-exact round-tripping needs:
//!
//! * numbers are **unsigned integers** only (`u64`): every measured
//!   quantity in the repo is integer picojoules / cycles / counts, so
//!   floats (and their cross-platform formatting hazards) never enter
//!   an artifact;
//! * writers emit object members in a fixed order, so encoding is
//!   deterministic;
//! * strings escape `"`, `\`, the common control shorthands and other
//!   control characters as `\u00XX`; non-ASCII text is emitted raw as
//!   UTF-8, which JSON permits.
//!
//! [`Reader`] accepts standard JSON spellings for everything the
//! dialect can represent (including `\uXXXX` escapes with surrogate
//! pairs) and rejects the rest — floats, negative numbers, nesting
//! deeper than [`MAX_DEPTH`] — with a positioned [`JsonError`], rather
//! than silently rounding or overflowing the stack.
//!
//! [`write_str`] / [`write_u64`] append straight into a [`Sink`]: a
//! `String`, or a byte slice sized beforehand by running the same writer
//! into a [`Count`]. Codecs write their own types with no value tree in
//! between, and read them back by walking a [`Reader`].

use std::borrow::Cow;
use std::fmt;

/// How deeply arrays and objects may nest. The reader recurses once
/// per level, so the cap bounds its stack use: a hostile input of many
/// thousand `[` is an error, not a stack overflow. The artifacts the
/// repo writes nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

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

/// Where the writers append text: a `String`, an exactly sized byte
/// slice ([`SliceSink`]), or a byte count ([`Count`]) for sizing a
/// text before it is written. Every writer in the workspace is generic
/// over it, so one encoder both measures and writes a line.
pub trait Sink {
    /// Appends `s` verbatim.
    fn push_str(&mut self, s: &str);

    /// Appends `n` in decimal, two digits per step from a pair table.
    fn push_u64(&mut self, mut n: u64) {
        const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
            2021222324252627282930313233343536373839\
            4041424344454647484950515253545556575859\
            6061626364656667686970717273747576777879\
            8081828384858687888990919293949596979899";
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            i -= 2;
            digits[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            i -= 2;
            digits[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        } else {
            i -= 1;
            digits[i] = b'0' + n as u8;
        }
        self.push_str(std::str::from_utf8(&digits[i..]).expect("digits are ASCII"));
    }
}

impl Sink for String {
    #[inline]
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

/// A [`Sink`] that only counts the bytes written to it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Count(pub usize);

impl Sink for Count {
    #[inline]
    fn push_str(&mut self, s: &str) {
        self.0 += s.len();
    }

    #[inline]
    fn push_u64(&mut self, n: u64) {
        self.0 += n.checked_ilog10().map_or(1, |d| d as usize + 1);
    }
}

/// A [`Sink`] over a byte slice sized beforehand with [`Count`]: writes
/// past its end panic, and [`SliceSink::finish`] checks that the text
/// filled it exactly.
pub struct SliceSink<'a> {
    buf: &'a mut [u8],
    len: usize,
}

impl<'a> SliceSink<'a> {
    /// An empty sink writing from the start of `buf`.
    pub fn new(buf: &'a mut [u8]) -> SliceSink<'a> {
        SliceSink { buf, len: 0 }
    }

    /// Checks that the writes filled the slice exactly.
    ///
    /// # Panics
    ///
    /// When fewer bytes were written than the slice holds: the sizing
    /// pass and the writer disagree.
    pub fn finish(self) {
        assert_eq!(
            self.len,
            self.buf.len(),
            "sized text and written text differ"
        );
    }
}

impl Sink for SliceSink<'_> {
    #[inline]
    fn push_str(&mut self, s: &str) {
        let end = self.len + s.len();
        self.buf[self.len..end].copy_from_slice(s.as_bytes());
        self.len = end;
    }
}

/// Appends `s` as a JSON string literal. Runs of characters that need
/// no escape are copied whole; `"`, `\`, `\n`, `\r`, `\t` get their
/// shorthand and other control characters `\u00XX`.
pub fn write_str<S: Sink + ?Sized>(out: &mut S, s: &str) {
    out.push_str("\"");
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
            let escape = [
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ];
            out.push_str(std::str::from_utf8(&escape).expect("escapes are ASCII"));
        } else {
            out.push_str(shorthand);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push_str("\"");
}

/// Appends `n` in decimal without allocating.
#[inline]
pub fn write_u64<S: Sink + ?Sized>(out: &mut S, n: u64) {
    out.push_u64(n);
}

/// A pull reader over one JSON text in the dialect: decoders walk the
/// input value by value and build their own types directly. Whitespace
/// is skipped before every token; every error carries the byte offset
/// it occurred at.
///
/// Each value-reading method consumes exactly one value. Inside
/// [`Reader::object`] and [`Reader::array`] the callback must consume
/// exactly one value per call (use [`Reader::skip`] for values it does
/// not want).
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// An error positioned at the reader's current offset.
    pub fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            at: self.pos,
        }
    }

    /// The first byte of the next token (after whitespace), if any.
    #[inline]
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

    /// The value of a required member, or a `missing field` error.
    ///
    /// # Errors
    ///
    /// `missing field 'name'` when `value` is `None`.
    pub fn need<T>(&self, value: Option<T>, name: &str) -> Result<T, JsonError> {
        value.ok_or_else(|| self.err(format!("missing field '{name}'")))
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected '{}'", b as char)))
        }
    }

    /// The error for a token that is not what the caller wanted; the end
    /// of input and a negative number are named as what they are.
    pub fn unexpected(&mut self, wanted: &str) -> JsonError {
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'-') => self.err("negative numbers are not part of the artifact dialect"),
            Some(_) => self.err(wanted),
        }
    }

    /// Consumes the opening `open` of an array or object, one level
    /// deeper than the current one.
    #[inline]
    fn open(&mut self, open: u8) -> Result<(), JsonError> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            self.pos -= 1;
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Consumes `close` when it is the next token, leaving the level.
    #[inline]
    fn close(&mut self, close: u8) -> bool {
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            true
        } else {
            false
        }
    }

    /// Reads an object, calling `f(reader, key)` once per member with
    /// the reader positioned at the member's value. Keys arrive in
    /// input order; duplicates are passed through.
    ///
    /// # Errors
    ///
    /// Malformed input, nesting past [`MAX_DEPTH`], or the first error
    /// `f` returns.
    pub fn object(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open(b'{')?;
        if self.close(b'}') {
            return Ok(());
        }
        loop {
            let key = self.str()?;
            self.expect(b':')?;
            f(self, key)?;
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else if self.close(b'}') {
                return Ok(());
            } else {
                return Err(self.unexpected("expected ',' or '}'"));
            }
        }
    }

    /// Reads an array, calling `f(reader)` once per element with the
    /// reader positioned at the element.
    ///
    /// # Errors
    ///
    /// Malformed input, nesting past [`MAX_DEPTH`], or the first error
    /// `f` returns.
    pub fn array(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open(b'[')?;
        if self.close(b']') {
            return Ok(());
        }
        loop {
            f(self)?;
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else if self.close(b']') {
                return Ok(());
            } else {
                return Err(self.unexpected("expected ',' or ']'"));
            }
        }
    }

    /// Reads an array whose elements `item` decodes.
    ///
    /// # Errors
    ///
    /// As [`Reader::array`].
    pub fn vec<T>(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let mut items = Vec::new();
        self.array(|r| {
            items.push(item(r)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// Reads a two-element array, decoding the elements with `first`
    /// and `second`; `what` names the pair in the error for any other
    /// length.
    ///
    /// # Errors
    ///
    /// As [`Reader::array`], or an array that is not a pair.
    pub fn pair<A, B>(
        &mut self,
        what: &str,
        mut first: impl FnMut(&mut Reader<'a>) -> Result<A, JsonError>,
        mut second: impl FnMut(&mut Reader<'a>) -> Result<B, JsonError>,
    ) -> Result<(A, B), JsonError> {
        let mut a = None;
        let mut b = None;
        let mut n = 0;
        self.array(|r| {
            match n {
                0 => a = Some(first(r)?),
                1 => b = Some(second(r)?),
                _ => return Err(r.err(format!("{what} must be a pair"))),
            }
            n += 1;
            Ok(())
        })?;
        match (a, b) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(self.err(format!("{what} must be a pair"))),
        }
    }

    /// Reads a pair spelled exactly `["name",N]` — no whitespace, no
    /// escape in the name, `N` of at most 19 digits followed by `]` —
    /// in one scan, returning `None` with the position unchanged for
    /// any other spelling, which the caller then reads with
    /// [`Reader::pair`]. The writers emit every integer-valued field in
    /// this form, so the generic path (and its error text) only ever
    /// sees other spellings.
    #[inline]
    pub fn compact_str_u64_pair(&mut self) -> Option<(&'a str, u64)> {
        let text = self.text;
        let rest = text.as_bytes().get(self.pos..)?;
        if self.depth == MAX_DEPTH || !rest.starts_with(b"[\"") {
            return None;
        }
        let name_len = rest[2..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        let after = 2 + name_len;
        if rest.get(after..after + 2) != Some(b"\",") {
            return None;
        }
        let digits = &rest[after + 2..];
        let n_digits = digits
            .iter()
            .take(20)
            .take_while(|b| b.is_ascii_digit())
            .count();
        if n_digits == 0 || n_digits == 20 || digits.get(n_digits) != Some(&b']') {
            return None;
        }
        let n = digits[..n_digits]
            .iter()
            .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
        let name = &text[self.pos + 2..self.pos + after];
        self.pos += after + 2 + n_digits + 1;
        Some((name, n))
    }

    /// Reads a string. Borrows from the input when the literal has no
    /// escapes; decodes `\uXXXX` escapes including surrogate pairs.
    ///
    /// # Errors
    ///
    /// A non-string value, a bad escape, a raw control character or an
    /// unterminated literal.
    #[inline]
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
                Some(b'\\') => return self.escaped_str(start).map(Cow::Owned),
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The rest of a string literal that began at `start` and holds an
    /// escape at the reader's position.
    fn escaped_str(&mut self, start: usize) -> Result<String, JsonError> {
        let text = self.text;
        let bytes = text.as_bytes();
        let mut out = String::from(&text[start..self.pos]);
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
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
    #[inline]
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

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// Any other value.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.unexpected("expected 'true' or 'false'")),
        }
    }

    /// Reads `null`.
    ///
    /// # Errors
    ///
    /// Any other value.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.peek(); // skips whitespace
        self.literal("null")
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected '{lit}'")))
        }
    }

    /// Reads and discards one value of any shape, validating it without
    /// building anything.
    ///
    /// # Errors
    ///
    /// Malformed input or nesting past [`MAX_DEPTH`].
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'n') => self.null(),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.str().map(drop),
            Some(b'[') => self.array(Reader::skip),
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'0'..=b'9') => self.u64().map(drop),
            _ => Err(self.unexpected("unexpected character")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_match_std_formatting() {
        for n in [0, 7, 10, 99, 1_000_000, u64::MAX] {
            let mut out = String::from("x");
            write_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\u{1f}d†\u{7f}🦀\n\r\t\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\u001fd†\u{7f}🦀\\n\\r\\t\\u0001\"");
    }

    #[test]
    fn strings_roundtrip_through_the_writer() {
        for s in [
            "",
            "plain",
            "quote\"backslash\\slash/",
            "newline\nreturn\rtab\t",
            "dagger † and emoji 🦀",
            "control\u{1}\u{1f}chars",
            "mixed †\n\"x\"\\",
        ] {
            let mut text = String::new();
            write_str(&mut text, s);
            let mut r = Reader::new(&text);
            assert_eq!(r.str().unwrap(), s, "{text}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn reads_standard_spellings() {
        let mut r = Reader::new("\"\\u0041\\u00e9\\/\\b\\f\"");
        assert_eq!(r.str().unwrap(), "Aé/\u{8}\u{c}");
        // Surrogate pair: U+1D11E (musical G clef).
        assert_eq!(
            Reader::new("\"\\ud834\\udd1e\"").str().unwrap(),
            "\u{1D11E}"
        );
        let mut r = Reader::new(" [ true , false , null ] ");
        r.array(|r| r.skip()).unwrap();
        r.finish().unwrap();
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
                "b" => b = r.vec(Reader::u64)?,
                _ => r.skip()?,
            }
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!((a, b), (1, vec![2, 3]));
    }

    #[test]
    fn pairs_need_exactly_two_elements() {
        fn pair(text: &str) -> Result<(u64, Cow<'_, str>), JsonError> {
            Reader::new(text).pair("entry", Reader::u64, Reader::str)
        }
        assert_eq!(pair("[1,\"x\"]").unwrap(), (1, Cow::Borrowed("x")));
        for bad in ["[]", "[1]", "[1,\"x\",2]", "[\"x\",1]"] {
            assert!(pair(bad).is_err(), "{bad}");
        }
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
        let mut r = Reader::new("{} x");
        r.skip().unwrap();
        let e = r.finish().unwrap_err();
        assert_eq!((e.message.as_str(), e.at), ("trailing content", 3));
        for bad in [
            "\"\\u12",
            "\"\\uzzzz\"",
            "\"\\udc00\"",
            "\"\\ud834\\u0041\"",
            "\"\\ud834\"",
            "\"unterminated",
            "18446744073709551616",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "tru",
        ] {
            assert!(Reader::new(bad).skip().is_err(), "{bad}");
        }
    }

    type Pair<'a> = Result<(Cow<'a, str>, u64), JsonError>;

    fn generic_pair<'a>(r: &mut Reader<'a>) -> Pair<'a> {
        r.pair("field", Reader::str, Reader::u64)
    }

    /// `text` has no compact spelling: the fast path declines without
    /// moving, so the generic read that follows it sees exactly what a
    /// fresh reader does — the same value, or the same error at the
    /// same offset.
    fn assert_falls_back(text: &str, depth: usize) {
        let mut r = Reader::new(text);
        r.depth = depth;
        assert_eq!(r.compact_str_u64_pair(), None, "{text}");
        assert_eq!(r.pos, 0, "{text}");
        let mut fresh = Reader::new(text);
        fresh.depth = depth;
        assert_eq!(generic_pair(&mut r), generic_pair(&mut fresh), "{text}");
    }

    #[test]
    fn compact_pairs_read_in_one_scan() {
        for (text, name, n) in [
            ("[\"comp_pj\",123]", "comp_pj", 123),
            ("[\"\",0]", "", 0),
            ("[\"dagger †\",7]", "dagger †", 7),
            (
                "[\"x\",9999999999999999999]",
                "x",
                9_999_999_999_999_999_999,
            ),
            ("[\"x\",007]", "x", 7),
        ] {
            let mut r = Reader::new(text);
            assert_eq!(r.compact_str_u64_pair(), Some((name, n)), "{text}");
            assert_eq!(r.pos, text.len());
            assert_eq!(
                generic_pair(&mut Reader::new(text)).unwrap(),
                (name.into(), n)
            );
        }
    }

    #[test]
    fn compact_pair_falls_back_on_whitespace() {
        for text in [
            " [\"a\",1]",
            "[ \"a\",1]",
            "[\"a\" ,1]",
            "[\"a\", 1]",
            "[\"a\",1 ]",
        ] {
            assert_falls_back(text, 0);
        }
    }

    #[test]
    fn compact_pair_falls_back_on_escaped_names() {
        for text in ["[\"a\\\"b\",1]", "[\"\\u0041\",1]", "[\"a\\nb\",2]"] {
            assert_falls_back(text, 0);
        }
    }

    #[test]
    fn compact_pair_falls_back_on_string_values() {
        for text in ["[\"a\",\"b\"]", "[\"a\",\"1\"]", "[\"a\",null]"] {
            assert_falls_back(text, 0);
        }
    }

    #[test]
    fn compact_pair_falls_back_on_numbers_of_twenty_digits() {
        for text in [
            "[\"a\",18446744073709551615]",
            "[\"a\",18446744073709551616]",
            "[\"a\",00000000000000000001]",
            "[\"a\",123456789012345678901234]",
        ] {
            assert_falls_back(text, 0);
        }
    }

    #[test]
    fn compact_pair_falls_back_on_signs_fractions_and_exponents() {
        for text in ["[\"a\",-1]", "[\"a\",1.5]", "[\"a\",1e3]", "[\"a\",1E3]"] {
            assert_falls_back(text, 0);
        }
    }

    #[test]
    fn compact_pair_falls_back_on_malformed_pairs() {
        for text in [
            "[\"a\",1",
            "[\"a\",1,2]",
            "[\"a\"]",
            "[\"a",
            "[1,2]",
            "\"a\"",
            "",
        ] {
            assert_falls_back(text, 0);
        }
    }

    #[test]
    fn compact_pair_falls_back_at_the_depth_cap() {
        assert_falls_back("[\"a\",1]", MAX_DEPTH);
        let e = generic_pair(&mut Reader {
            depth: MAX_DEPTH,
            ..Reader::new("[\"a\",1]")
        })
        .unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
    }

    #[test]
    fn nesting_is_capped_with_a_positioned_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        Reader::new(&nested(MAX_DEPTH)).skip().unwrap();
        let e = Reader::new(&nested(MAX_DEPTH + 1)).skip().unwrap_err();
        assert_eq!(e.at, MAX_DEPTH);
        assert!(e.message.contains("nesting"), "{e}");
        // Far past the cap: an error, not a stack overflow.
        let deep = "[".repeat(100_000);
        assert!(Reader::new(&deep).skip().is_err());
        let deep = "{\"a\":".repeat(100_000);
        assert!(Reader::new(&deep).skip().is_err());
    }
}

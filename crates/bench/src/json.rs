//! The [`Json`] value tree, for the `gridd` frames.
//!
//! The service's request and response frames are built as a [`Json`]
//! tree and encoded in one go. The tree speaks the workspace's
//! integer-JSON dialect (unsigned integers only, no floats or
//! negatives); [`Json::encode`] writes through the dialect's writer and
//! [`Json::parse`] is a small builder over its pull reader, both in
//! [`schematic_obs::json`]. Every other artifact — cell lines
//! ([`crate::grid::CellLine`]), the `fetch` cells, trace lines — skips
//! the tree and is written and read through that module directly.

use schematic_obs::json::{write_str, write_u64, JsonError, Reader};

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

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
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
    /// Malformed input, floats, negative numbers and nesting past
    /// [`schematic_obs::json::MAX_DEPTH`] all return a positioned
    /// [`JsonError`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(input);
        let v = tree(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Reads one value into a [`Json`] tree.
fn tree(r: &mut Reader) -> Result<Json, JsonError> {
    Ok(match r.peek() {
        Some(b'n') => r.null().map(|()| Json::Null)?,
        Some(b't' | b'f') => Json::Bool(r.bool()?),
        Some(b'"') => Json::Str(r.str()?.into_owned()),
        Some(b'[') => Json::Arr(r.vec(tree)?),
        Some(b'{') => {
            let mut pairs = Vec::new();
            r.object(|r, key| {
                pairs.push((key.into_owned(), tree(r)?));
                Ok(())
            })?;
            Json::Obj(pairs)
        }
        Some(b'0'..=b'9') => Json::UInt(r.u64()?),
        _ => return Err(r.unexpected("unexpected character")),
    })
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
        let e = Json::parse("{\"a\":1} x").unwrap_err();
        assert_eq!((e.message.as_str(), e.at), ("trailing content", 8));
        // Nesting past the reader's cap is a positioned error, not a
        // stack overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn control_chars_escape_as_u00xx() {
        assert_eq!(Json::Str("\u{1}".into()).encode(), "\"\\u0001\"");
        assert_eq!(
            Json::parse("\"\\u0001\"").unwrap(),
            Json::Str("\u{1}".into())
        );
    }
}

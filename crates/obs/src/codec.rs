//! JSONL (de)serialization for [`Registry`] — the cross-process leg of
//! the observability layer.
//!
//! A worker process captures a registry, encodes it with [`encode`],
//! and ships the text to its parent (over a pipe, a file, or the
//! `gridd` frame protocol); the parent decodes with [`parse`] and folds
//! the result into its own registry via [`Registry::merge_from`]. The
//! contract is **deterministic-merge round-trip**: decoding an encoded
//! registry reproduces it exactly (`parse(encode(r)) == r`), so merging
//! decoded copies is indistinguishable from merging the originals —
//! telemetry aggregated across process boundaries equals telemetry
//! aggregated in one process.
//!
//! The wire form follows the repo's integer-JSON dialect conventions
//! (see `schematic-bench`'s `json` module): numbers are unsigned
//! integers only, objects keep insertion order so encoding is
//! deterministic, strings escape quotes/backslashes/control characters.
//! The codec carries its own minimal reader/writer because this crate
//! is intentionally zero-dependency — it must stay importable from
//! every layer, including the emulator.
//!
//! One record per line, tagged by `"t"`:
//!
//! ```text
//! {"t":"reg","codec":1,"dropped_events":0,"spilled_events":0}
//! {"t":"span","name":"cell/compile","calls":2,"total_nanos":900, ...}
//! {"t":"counter","name":"cache/miss","n":34}
//! {"t":"event","kind":"run_end","fields":[["status","completed"]]}
//! ```
//!
//! Histograms are serialized sparsely (exact tallies plus the nonzero
//! buckets), which both keeps worker lines small and makes the
//! round-trip exact — see [`crate::Histogram::from_parts`].

use crate::{Event, Histogram, PhaseStats, Registry, Value};
use std::borrow::Cow;
use std::fmt;

/// Version tag on the header line; bump on any wire-format change so a
/// mixed-version worker fleet fails loudly instead of merging garbage.
pub const CODEC_VERSION: u64 = 1;

/// Why a registry text failed to decode (with its 1-based line number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What went wrong.
    pub message: String,
    /// 1-based line the error occurred on.
    pub line: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// Minimal JSON value (the dialect subset the codec needs)
// ---------------------------------------------------------------------

/// A JSON value in the codec's dialect: unsigned integers, strings,
/// arrays, and insertion-ordered objects — no floats, no negatives.
/// Strings borrow from the encoded registry or the parsed line
/// whenever they can; only a string with escapes is copied.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JVal<'a> {
    U64(u64),
    Str(Cow<'a, str>),
    Arr(Vec<JVal<'a>>),
    Obj(Vec<(Cow<'a, str>, JVal<'a>)>),
}

impl<'a> JVal<'a> {
    fn get(&self, key: &str) -> Option<&JVal<'a>> {
        match self {
            JVal::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            JVal::U64(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            JVal::Str(s) => Some(s),
            _ => None,
        }
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            JVal::U64(n) => out.push_str(&n.to_string()),
            JVal::Str(s) => write_escaped(s, out),
            JVal::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            JVal::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, String> {
        Err(format!("{} at byte {}", message.into(), self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<JVal<'a>, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(JVal::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(JVal::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JVal::Arr(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(JVal::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    let val = self.value()?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JVal::Obj(pairs));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                match text.parse::<u64>() {
                    Ok(n) => Ok(JVal::U64(n)),
                    Err(_) => self.err("integer out of u64 range"),
                }
            }
            Some(_) => self.err("unexpected character (dialect is uint/string/array/object)"),
            None => self.err("unexpected end of input"),
        }
    }

    /// Reads a string, borrowed from the line when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return self.err("expected '\"'");
        }
        self.pos += 1;
        let start = self.pos;
        // Fast path: the unescaped run up to the closing quote. It ends
        // at an ASCII byte, so the slice falls on char boundaries.
        while matches!(self.bytes.get(self.pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
            self.pos += 1;
        }
        if self.bytes.get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return self.err("lone high surrogate");
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                let n = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(n).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return self.err("raw control character in string"),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return self.err("truncated \\u escape");
        };
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| format!("non-ASCII \\u escape at byte {}", self.pos))?;
        let n = u32::from_str_radix(text, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(n)
    }

    fn parse_line(text: &'a str) -> Result<JVal<'a>, String> {
        let mut p = Parser::new(text);
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing bytes after value");
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// Registry <-> JSONL
// ---------------------------------------------------------------------

fn obj<'a>(pairs: Vec<(&'a str, JVal<'a>)>) -> JVal<'a> {
    JVal::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (Cow::Borrowed(k), v))
            .collect(),
    )
}

fn str_val(s: &str) -> JVal<'_> {
    JVal::Str(Cow::Borrowed(s))
}

fn value_to_jval(v: &Value) -> JVal<'_> {
    match v {
        Value::U64(n) => JVal::U64(*n),
        Value::Str(s) => str_val(s),
    }
}

fn jval_to_value(v: &JVal) -> Option<Value> {
    match v {
        JVal::U64(n) => Some(Value::U64(*n)),
        JVal::Str(s) => Some(Value::Str(s.to_string())),
        _ => None,
    }
}

fn span_record<'a>(name: &'a str, stats: &PhaseStats) -> JVal<'a> {
    let buckets: Vec<JVal> = stats
        .hist
        .nonzero_buckets()
        .map(|(i, c)| JVal::Arr(vec![JVal::U64(i as u64), JVal::U64(c)]))
        .collect();
    obj(vec![
        ("t", str_val("span")),
        ("name", str_val(name)),
        ("calls", JVal::U64(stats.calls)),
        ("total_nanos", JVal::U64(stats.total_nanos)),
        ("count", JVal::U64(stats.hist.count())),
        ("sum", JVal::U64(stats.hist.sum())),
        ("min", JVal::U64(stats.hist.min())),
        ("max", JVal::U64(stats.hist.max())),
        ("buckets", JVal::Arr(buckets)),
    ])
}

/// Serializes a registry to JSONL: a header line, then one line per
/// span (in name order), counter (in name order), and event (in
/// emission order). Deterministic: equal registries encode to equal
/// bytes.
pub fn encode(reg: &Registry) -> String {
    let mut out = String::new();
    let mut push = |v: JVal| {
        v.encode_into(&mut out);
        out.push('\n');
    };
    push(obj(vec![
        ("t", str_val("reg")),
        ("codec", JVal::U64(CODEC_VERSION)),
        ("dropped_events", JVal::U64(reg.dropped_events)),
        ("spilled_events", JVal::U64(reg.spilled_events)),
    ]));
    for (name, stats) in &reg.spans {
        push(span_record(name, stats));
    }
    for (name, n) in &reg.counters {
        push(obj(vec![
            ("t", str_val("counter")),
            ("name", str_val(name)),
            ("n", JVal::U64(*n)),
        ]));
    }
    for ev in &reg.events {
        let fields: Vec<JVal> = ev
            .fields
            .iter()
            .map(|(k, v)| JVal::Arr(vec![str_val(k), value_to_jval(v)]))
            .collect();
        push(obj(vec![
            ("t", str_val("event")),
            ("kind", str_val(&ev.kind)),
            ("fields", JVal::Arr(fields)),
        ]));
    }
    out
}

fn u64_field(rec: &JVal, key: &str) -> Result<u64, String> {
    rec.get(key)
        .and_then(JVal::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn str_field<'r>(rec: &'r JVal, key: &str) -> Result<&'r str, String> {
    rec.get(key)
        .and_then(JVal::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn decode_span(rec: &JVal, reg: &mut Registry) -> Result<(), String> {
    let name = str_field(rec, "name")?;
    let Some(JVal::Arr(items)) = rec.get("buckets") else {
        return Err("missing or non-array field 'buckets'".into());
    };
    let mut sparse = Vec::with_capacity(items.len());
    for item in items {
        let pair = match item {
            JVal::Arr(p) if p.len() == 2 => p,
            _ => return Err("bucket entry is not an [index, count] pair".into()),
        };
        let idx = pair[0]
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or("non-integer bucket index")?;
        let c = pair[1].as_u64().ok_or("non-integer bucket count")?;
        sparse.push((idx, c));
    }
    let hist = Histogram::from_parts(
        u64_field(rec, "count")?,
        u64_field(rec, "sum")?,
        u64_field(rec, "min")?,
        u64_field(rec, "max")?,
        &sparse,
    )
    .ok_or("inconsistent histogram parts")?;
    let stats = PhaseStats {
        calls: u64_field(rec, "calls")?,
        total_nanos: u64_field(rec, "total_nanos")?,
        hist,
    };
    if reg.spans.insert(name.to_string(), stats).is_some() {
        return Err(format!("duplicate span '{name}'"));
    }
    Ok(())
}

/// Parses a registry serialized by [`encode`].
///
/// # Errors
///
/// A [`CodecError`] naming the offending line: syntax errors, a
/// missing or foreign-version header, unknown record tags, duplicate
/// keys, or inconsistent histogram parts. Garbage input is an error,
/// never a panic — worker output crosses a process boundary.
pub fn parse(text: &str) -> Result<Registry, CodecError> {
    let mut reg = Registry::default();
    let mut saw_header = false;
    for (i, line) in text.lines().enumerate() {
        let at = |message: String| CodecError {
            message,
            line: i + 1,
        };
        if line.trim().is_empty() {
            continue;
        }
        let rec = Parser::parse_line(line).map_err(at)?;
        let tag = str_field(&rec, "t").map_err(at)?;
        if !saw_header {
            if tag != "reg" {
                return Err(at("first record must be the 'reg' header".into()));
            }
            let version = u64_field(&rec, "codec").map_err(at)?;
            if version != CODEC_VERSION {
                return Err(at(format!(
                    "codec version {version} (this build reads {CODEC_VERSION})"
                )));
            }
            reg.dropped_events = u64_field(&rec, "dropped_events").map_err(at)?;
            reg.spilled_events = u64_field(&rec, "spilled_events").map_err(at)?;
            saw_header = true;
            continue;
        }
        match tag {
            "reg" => return Err(at("duplicate 'reg' header".into())),
            "span" => decode_span(&rec, &mut reg).map_err(at)?,
            "counter" => {
                let name = str_field(&rec, "name").map_err(at)?;
                let n = u64_field(&rec, "n").map_err(at)?;
                if reg.counters.insert(name.to_string(), n).is_some() {
                    return Err(at(format!("duplicate counter '{name}'")));
                }
            }
            "event" => {
                let kind = str_field(&rec, "kind").map_err(at)?;
                let Some(JVal::Arr(items)) = rec.get("fields") else {
                    return Err(at("missing or non-array field 'fields'".into()));
                };
                let mut fields = Vec::with_capacity(items.len());
                for item in items {
                    let pair = match item {
                        JVal::Arr(p) if p.len() == 2 => p,
                        _ => return Err(at("event field is not a [name, value] pair".into())),
                    };
                    let key = pair[0]
                        .as_str()
                        .ok_or_else(|| at("non-string event field name".into()))?;
                    let value = jval_to_value(&pair[1])
                        .ok_or_else(|| at("event field value is not uint or string".into()))?;
                    fields.push((crate::name(key), value));
                }
                reg.events.push_back(Event {
                    kind: crate::name(kind),
                    fields,
                });
            }
            other => return Err(at(format!("unknown record tag '{other}'"))),
        }
    }
    if !saw_header {
        return Err(CodecError {
            message: "empty input (no 'reg' header)".into(),
            line: 1,
        });
    }
    if reg.events.len() > crate::MAX_EVENTS {
        return Err(CodecError {
            message: format!(
                "{} events exceed the {} ring cap",
                reg.events.len(),
                crate::MAX_EVENTS
            ),
            line: 1,
        });
    }
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — the deterministic fuzz driver (same recurrence as
    /// the service-frame and soundness fuzzes).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn label(&mut self) -> String {
            const POOL: [&str; 8] = [
                "cell/compile",
                "cell/emulate",
                "job/run/Schematic/crc/10000",
                "cache/hit",
                "dæmon/ünïcode",
                "quote\"back\\slash",
                "ctrl\n\t\u{1}",
                "emoji \u{1F600}",
            ];
            format!("{}#{}", POOL[self.below(8) as usize], self.below(4))
        }

        /// An event kind or field name: half from the interned
        /// vocabulary, half a free-form label.
        fn event_name(&mut self) -> crate::Name {
            const KNOWN: [&str; 4] = ["run_end", "checkpoint_commit", "cp", "gain_pj"];
            if self.below(2) == 0 {
                Cow::Borrowed(KNOWN[self.below(4) as usize])
            } else {
                Cow::Owned(self.label())
            }
        }

        fn registry(&mut self) -> Registry {
            let mut reg = Registry::default();
            for _ in 0..self.below(5) {
                let name = self.label();
                let stats = reg.spans.entry(name).or_default();
                for _ in 0..(1 + self.below(6)) {
                    // Spread samples across the full bucket range.
                    let v = self.next() >> self.below(64);
                    stats.calls += 1;
                    stats.total_nanos = stats.total_nanos.saturating_add(v);
                    stats.hist.record(v);
                }
            }
            for _ in 0..self.below(5) {
                let name = self.label();
                // Bounded increments: counters add on merge, and the
                // production sites count events, not raw u64 noise.
                *reg.counters.entry(name).or_default() += self.below(1 << 40);
            }
            for _ in 0..self.below(6) {
                let kind = self.event_name();
                let mut fields = Vec::new();
                for _ in 0..self.below(4) {
                    let key = self.event_name();
                    let value = if self.below(2) == 0 {
                        Value::U64(self.next())
                    } else {
                        Value::Str(self.label())
                    };
                    fields.push((key, value));
                }
                reg.events.push_back(Event { kind, fields });
            }
            reg.dropped_events = self.below(3);
            reg.spilled_events = self.below(3);
            reg
        }
    }

    #[test]
    fn empty_registry_roundtrips() {
        let reg = Registry::default();
        let text = encode(&reg);
        assert_eq!(parse(&text).unwrap(), reg);
    }

    #[test]
    fn fuzz_roundtrip_is_exact() {
        let mut rng = Rng(0x0B5C0DEC);
        for round in 0..200 {
            let reg = rng.registry();
            let text = encode(&reg);
            let back = parse(&text).unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(back, reg, "round {round}");
            // Decoding interns: vocabulary names come back borrowed.
            for ev in &back.events {
                for n in std::iter::once(&ev.kind).chain(ev.fields.iter().map(|(k, _)| k)) {
                    let borrowed = matches!(n, Cow::Borrowed(_));
                    assert_eq!(borrowed, matches!(crate::name(n), Cow::Borrowed(_)));
                }
            }
            // Encoding is deterministic.
            assert_eq!(encode(&back), text, "round {round}");
        }
    }

    #[test]
    fn fuzz_merge_parity_across_the_wire() {
        // Folding decoded copies must equal folding the originals: the
        // property that makes daemon-side aggregation of worker
        // registries indistinguishable from in-process aggregation.
        let mut rng = Rng(0x4D45_5247);
        for round in 0..100 {
            let parts: Vec<Registry> = (0..(1 + rng.below(4))).map(|_| rng.registry()).collect();
            let mut direct = Registry::default();
            let mut via_wire = Registry::default();
            for part in &parts {
                direct.merge_from(part.clone());
                via_wire.merge_from(parse(&encode(part)).unwrap());
            }
            assert_eq!(via_wire, direct, "round {round}");
            // And the merged result itself still round-trips.
            assert_eq!(parse(&encode(&direct)).unwrap(), direct, "round {round}");
        }
    }

    #[test]
    fn fuzz_garbage_never_panics() {
        let mut rng = Rng(0xBADBAD);
        for _ in 0..500 {
            let len = rng.below(128) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (rng.next() & 0xFF) as u8).collect();
            let text = String::from_utf8_lossy(&bytes);
            // Whatever comes back, it must be a value, not a panic.
            let _ = parse(&text);
        }
        // Structured near-misses.
        for bad in [
            "",
            "\n\n",
            "{\"t\":\"span\"}",
            "{\"t\":\"reg\",\"codec\":99,\"dropped_events\":0,\"spilled_events\":0}",
            "{\"t\":\"reg\",\"codec\":1,\"dropped_events\":0,\"spilled_events\":0}\n{\"t\":\"wat\"}",
            "{\"t\":\"reg\",\"codec\":1,\"dropped_events\":0,\"spilled_events\":0}\n\
             {\"t\":\"span\",\"name\":\"s\",\"calls\":1,\"total_nanos\":1,\"count\":2,\
             \"sum\":1,\"min\":1,\"max\":1,\"buckets\":[[0,1]]}",
            "{\"t\":\"reg\",\"codec\":1,\"dropped_events\":0,\"spilled_events\":0}\n\
             {\"t\":\"counter\",\"name\":\"x\",\"n\":1}\n{\"t\":\"counter\",\"name\":\"x\",\"n\":2}",
            "{\"t\":\"reg\",\"codec\":1,\"dropped_events\":0,\"spilled_events\":0}\n{\"t\":\"event\"}",
            "[1,2,3]",
            "{\"t\":\"reg\",\"codec\":1,\"dropped_events\":-1,\"spilled_events\":0}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn truncation_of_valid_text_never_panics() {
        let mut rng = Rng(0x7A7A);
        let reg = rng.registry();
        let text = encode(&reg);
        for cut in 0..text.len() {
            if text.is_char_boundary(cut) {
                let _ = parse(&text[..cut]);
            }
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut reg = Registry::default();
        reg.counters.insert(
            "quote\" slash\\ nl\n tab\t nul\u{0} uni † \u{1F600}".into(),
            7,
        );
        let text = encode(&reg);
        assert_eq!(parse(&text).unwrap(), reg);
        // The encoded form is a single well-formed line per record.
        assert_eq!(text.lines().count(), 2);
    }
}

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
//! The wire form is the repo's integer-JSON dialect, written and read
//! through [`crate::json`]'s writer and pull [`Reader`] with no value
//! tree in between: numbers are unsigned integers only, members are
//! written in a fixed order so encoding is deterministic, and strings
//! escape quotes, backslashes and control characters. An event's
//! `fields` array has one codec, [`write_fields`] / [`read_fields`],
//! which the trace artifact's event arrays ([`write_events`] /
//! [`read_events`]) share. Both read straight into an [`EventLog`], and
//! write vocabulary names from pre-quoted text.
//!
//! One record per line, tagged by `"t"`:
//!
//! ```text
//! {"t":"reg","codec":1}
//! {"t":"span","name":"cell/compile","calls":2,"total_nanos":900, ...}
//! {"t":"counter","name":"cache/miss","n":34}
//! {"t":"event","kind":"run_end","fields":[["status","completed"]]}
//! ```
//!
//! Histograms are serialized sparsely (exact tallies plus the nonzero
//! buckets), which both keeps worker lines small and makes the
//! round-trip exact — see [`crate::Histogram::from_parts`].

use crate::json::{write_str, write_u64, JsonError, Reader, Sink};
use crate::log::{EVENT_OPEN, FIELD_OPEN, QUOTED};
use crate::{Event, EventLog, Events, Histogram, PhaseStats, Registry, ValueRef};
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

/// Appends the name with id `id` of `log` as a string literal.
fn write_name<S: Sink + ?Sized>(out: &mut S, log: &EventLog, id: u32) {
    match QUOTED.get(id as usize) {
        Some(quoted) => out.push_str(quoted),
        None => write_str(out, log.name(id)),
    }
}

/// Appends an event's fields as `[[name, N|"str"]…]`: the field format
/// of both the registry's `event` record and the trace artifact's
/// events. Vocabulary names are written from pre-quoted text.
pub fn write_fields<S: Sink + ?Sized>(out: &mut S, ev: Event<'_>) {
    let log = ev.log();
    out.push_str("[");
    for (i, &f) in ev.fields.iter().enumerate() {
        if i > 0 {
            out.push_str(",");
        }
        match FIELD_OPEN.get(f.name as usize) {
            Some(open) => out.push_str(open),
            None => {
                out.push_str("[");
                write_str(out, log.name(f.name));
                out.push_str(",");
            }
        }
        match log.value(f) {
            ValueRef::U64(n) => out.push_u64(n),
            ValueRef::Str(s) => write_str(out, s),
        }
        out.push_str("]");
    }
    out.push_str("]");
}

/// Appends events as the trace artifact's event array,
/// `[{"kind":K,"fields":[…]}…]`.
pub fn write_events<S: Sink + ?Sized>(out: &mut S, events: Events<'_>) {
    out.push_str("[");
    for (i, ev) in events.enumerate() {
        if i > 0 {
            out.push_str(",");
        }
        match EVENT_OPEN.get(ev.kind as usize) {
            Some(open) => out.push_str(open),
            None => {
                out.push_str("{\"kind\":");
                write_str(out, ev.kind());
                out.push_str(",\"fields\":");
            }
        }
        write_fields(out, ev);
        out.push_str("}");
    }
    out.push_str("]");
}

/// Reads a fields array written by [`write_fields`] straight into
/// `log`, as the fields of the event under construction: the caller
/// closes them into an event. Names are interned by the log, so a
/// decoded event allocates nothing of its own.
///
/// # Errors
///
/// Malformed input, an entry that is not a `[name, value]` pair, or a
/// value that is neither an unsigned integer nor a string.
pub fn read_fields(r: &mut Reader, log: &mut EventLog) -> Result<(), JsonError> {
    r.array(|r| {
        if let Some((name, n)) = r.compact_str_u64_pair() {
            let name = log.intern(name);
            log.push_u64(name, n);
            return Ok(());
        }
        let (name, value) = r.pair("event field", |r| Ok(log.intern(&r.str()?)), read_value)?;
        match value {
            FieldValue::U64(n) => log.push_u64(name, n),
            FieldValue::Str(s) => log.push_str(name, &s),
        }
        Ok(())
    })
}

/// A field value as read, before it goes into the log.
enum FieldValue<'a> {
    U64(u64),
    Str(Cow<'a, str>),
}

fn read_value<'a>(r: &mut Reader<'a>) -> Result<FieldValue<'a>, JsonError> {
    match r.peek() {
        Some(b'"') => Ok(FieldValue::Str(r.str()?)),
        Some(b'0'..=b'9') => Ok(FieldValue::U64(r.u64()?)),
        _ => Err(r.err("event field value must be integer or string")),
    }
}

/// Reads an event array written by [`write_events`], appending each
/// event to `log`. Members come in any order and unknown ones are
/// skipped.
///
/// # Errors
///
/// Malformed input, or an event without its `kind` or `fields`.
pub fn read_events(r: &mut Reader, log: &mut EventLog) -> Result<(), JsonError> {
    r.array(|r| {
        let mut kind = None;
        let mut fields = false;
        r.object(|r, key| {
            match &*key {
                "kind" => kind = Some(log.intern(&r.str()?)),
                "fields" => {
                    if fields {
                        log.discard_pending();
                    }
                    read_fields(r, log)?;
                    fields = true;
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let kind = r.need(kind, "kind")?;
        r.need(fields.then_some(()), "fields")?;
        log.commit(kind);
        Ok(())
    })
}

/// Appends `,"key":n`.
fn write_member(out: &mut String, key: &str, n: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    write_u64(out, n);
}

/// Serializes a registry to JSONL: a header line, then one line per
/// span (in name order), counter (in name order), and event (in
/// emission order). Deterministic: equal registries encode to equal
/// bytes.
pub fn encode(reg: &Registry) -> String {
    let mut out = String::new();
    out.push_str("{\"t\":\"reg\"");
    write_member(&mut out, "codec", CODEC_VERSION);
    out.push_str("}\n");
    for (name, stats) in &reg.spans {
        out.push_str("{\"t\":\"span\",\"name\":");
        write_str(&mut out, name);
        write_member(&mut out, "calls", stats.calls);
        write_member(&mut out, "total_nanos", stats.total_nanos);
        write_member(&mut out, "count", stats.hist.count());
        write_member(&mut out, "sum", stats.hist.sum());
        write_member(&mut out, "min", stats.hist.min());
        write_member(&mut out, "max", stats.hist.max());
        out.push_str(",\"buckets\":[");
        for (i, (index, count)) in stats.hist.nonzero_buckets().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            write_u64(&mut out, index as u64);
            out.push(',');
            write_u64(&mut out, count);
            out.push(']');
        }
        out.push_str("]}\n");
    }
    for (name, n) in &reg.counters {
        out.push_str("{\"t\":\"counter\",\"name\":");
        write_str(&mut out, name);
        write_member(&mut out, "n", *n);
        out.push_str("}\n");
    }
    for ev in reg.events.iter() {
        out.push_str("{\"t\":\"event\",\"kind\":");
        write_name(&mut out, &reg.events, ev.kind);
        out.push_str(",\"fields\":");
        write_fields(&mut out, ev);
        out.push_str("}\n");
    }
    out
}

/// The integer members a record may carry, by name.
const INT_KEYS: [&str; 8] = [
    "codec",
    "calls",
    "total_nanos",
    "count",
    "sum",
    "min",
    "max",
    "n",
];

/// One decoded line: every member any record kind carries. Which ones
/// must be present depends on the record's tag.
#[derive(Default)]
struct Record<'a> {
    tag: Option<Cow<'a, str>>,
    name: Option<Cow<'a, str>>,
    /// The event kind's id in the log the record is read into.
    kind: Option<u32>,
    ints: [Option<u64>; INT_KEYS.len()],
    buckets: Option<Vec<(usize, u64)>>,
    /// Whether a `fields` member was read into the log.
    fields: bool,
}

impl<'a> Record<'a> {
    /// Reads one line's record; members come in any order and unknown
    /// ones are skipped. An event's kind and fields go straight into
    /// `log`, its fields as the event under construction.
    fn read(line: &'a str, log: &mut EventLog) -> Result<Record<'a>, JsonError> {
        let mut r = Reader::new(line);
        let mut rec = Record::default();
        r.object(|r, key| {
            match &*key {
                "t" => rec.tag = Some(r.str()?),
                "name" => rec.name = Some(r.str()?),
                "kind" => rec.kind = Some(log.intern(&r.str()?)),
                "buckets" => {
                    rec.buckets = Some(r.vec(|r| {
                        r.pair(
                            "bucket entry",
                            |r| {
                                usize::try_from(r.u64()?)
                                    .map_err(|_| r.err("bucket index too large"))
                            },
                            Reader::u64,
                        )
                    })?)
                }
                "fields" => {
                    if rec.fields {
                        log.discard_pending();
                    }
                    read_fields(r, log)?;
                    rec.fields = true;
                }
                key => match INT_KEYS.iter().position(|&k| k == key) {
                    Some(i) => rec.ints[i] = Some(r.u64()?),
                    None => r.skip()?,
                },
            }
            Ok(())
        })?;
        r.finish()?;
        Ok(rec)
    }

    fn int(&self, key: &str) -> Result<u64, String> {
        let i = INT_KEYS.iter().position(|&k| k == key);
        i.and_then(|i| self.ints[i])
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    fn name(&self) -> Result<&str, String> {
        self.name
            .as_deref()
            .ok_or_else(|| "missing field 'name'".into())
    }
}

fn decode_span(rec: &Record, reg: &mut Registry) -> Result<(), String> {
    let name = rec.name()?;
    let buckets = rec.buckets.as_deref().ok_or("missing field 'buckets'")?;
    let hist = Histogram::from_parts(
        rec.int("count")?,
        rec.int("sum")?,
        rec.int("min")?,
        rec.int("max")?,
        buckets,
    )
    .ok_or("inconsistent histogram parts")?;
    let stats = PhaseStats {
        calls: rec.int("calls")?,
        total_nanos: rec.int("total_nanos")?,
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
        let mut rec = Record::read(line, &mut reg.events).map_err(|e| at(e.to_string()))?;
        if rec.fields && rec.tag.as_deref() != Some("event") {
            reg.events.discard_pending();
        }
        let tag = rec
            .tag
            .take()
            .ok_or_else(|| at("missing field 't'".into()))?;
        if !saw_header {
            if tag != "reg" {
                return Err(at("first record must be the 'reg' header".into()));
            }
            let version = rec.int("codec").map_err(at)?;
            if version != CODEC_VERSION {
                return Err(at(format!(
                    "codec version {version} (this build reads {CODEC_VERSION})"
                )));
            }
            saw_header = true;
            continue;
        }
        match &*tag {
            "reg" => return Err(at("duplicate 'reg' header".into())),
            "span" => decode_span(&rec, &mut reg).map_err(at)?,
            "counter" => {
                let name = rec.name().map_err(at)?;
                let n = rec.int("n").map_err(at)?;
                if reg.counters.insert(name.to_string(), n).is_some() {
                    return Err(at(format!("duplicate counter '{name}'")));
                }
            }
            "event" => {
                let kind = rec.kind.ok_or_else(|| at("missing field 'kind'".into()))?;
                if !rec.fields {
                    return Err(at("missing field 'fields'".into()));
                }
                reg.events.commit(kind);
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
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

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

        /// An event kind or field name: half from the fixed
        /// vocabulary, half a free-form label.
        fn event_name(&mut self) -> String {
            const KNOWN: [&str; 4] = ["run_end", "checkpoint_commit", "cp", "gain_pj"];
            if self.below(2) == 0 {
                KNOWN[self.below(4) as usize].to_string()
            } else {
                self.label()
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
                let fields = fields.iter().map(|(k, v)| (k.as_str(), v.clone()));
                reg.events.push(&kind, fields);
            }
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
            // Decoding interns the same names the original log did.
            assert_eq!(
                back.events.interned_names(),
                reg.events.interned_names(),
                "round {round}"
            );
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
            "{\"t\":\"reg\",\"codec\":99}",
            "{\"t\":\"reg\",\"codec\":1}\n{\"t\":\"wat\"}",
            "{\"t\":\"reg\",\"codec\":1}\n\
             {\"t\":\"span\",\"name\":\"s\",\"calls\":1,\"total_nanos\":1,\"count\":2,\
             \"sum\":1,\"min\":1,\"max\":1,\"buckets\":[[0,1]]}",
            "{\"t\":\"reg\",\"codec\":1}\n\
             {\"t\":\"counter\",\"name\":\"x\",\"n\":1}\n{\"t\":\"counter\",\"name\":\"x\",\"n\":2}",
            "{\"t\":\"reg\",\"codec\":1}\n{\"t\":\"event\"}",
            "{\"t\":\"reg\"}",
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

    /// The registry pinned by `tests/goldens/registry.jsonl`: every
    /// record tag, a sparse histogram,
    /// vocabulary and free-form event names, and every escape class
    /// (`\u0001`, `"`, `\\`, `\n`, `\t` and a non-BMP character).
    fn golden_registry() -> Registry {
        let mut reg = Registry::default();
        let compile = reg.spans.entry("cell/compile".into()).or_default();
        for v in [0, 7, 900, 900, 1 << 20, u64::MAX >> 8] {
            compile.calls += 1;
            compile.total_nanos += v;
            compile.hist.record(v);
        }
        let escaped = reg
            .spans
            .entry("dæmon \"q\" \\ \u{1}\n\u{1F980}".into())
            .or_default();
        escaped.calls = 1;
        escaped.total_nanos = 42;
        escaped.hist.record(42);
        reg.counters.insert("cache/hit".into(), 34);
        reg.counters.insert(
            "quote\" back\\slash nl\n tab\t ctrl\u{1} \u{1D11E}".into(),
            7,
        );
        reg.events.push(
            "run_end",
            [("status", Value::from("completed")), ("cp", Value::U64(12))],
        );
        reg.events.push(
            "job/custom \u{1F980}",
            [
                ("free\tform", Value::from("\"q\" \\ \u{1}\n\u{1D11E}")),
                ("energy_pj", Value::U64(u64::MAX)),
            ],
        );
        reg.events.push("boot", []);
        reg
    }

    const GOLDEN: &str = include_str!("../../../tests/goldens/registry.jsonl");

    #[test]
    fn golden_decodes_and_reencodes_byte_for_byte() {
        let reg = parse(GOLDEN).unwrap();
        assert_eq!(reg, golden_registry());
        assert_eq!(encode(&reg), GOLDEN);
        for tag in ["reg", "span", "counter", "event"] {
            assert!(GOLDEN.contains(&format!("{{\"t\":\"{tag}\"")), "{tag}");
        }
    }

    /// A dump whose header still carries the `dropped_events` and
    /// `spilled_events` tallies of the former event ring loads: unknown
    /// members are skipped.
    #[test]
    fn a_header_with_the_former_ring_tallies_still_loads() {
        let old = GOLDEN.replacen(
            "\"codec\":1}",
            "\"codec\":1,\"dropped_events\":3,\"spilled_events\":17}",
            1,
        );
        assert_ne!(old, GOLDEN);
        assert_eq!(parse(&old).unwrap(), golden_registry());
    }

    /// Compact integer fields take the reader's fast path, every other
    /// spelling the generic pair; both decode into one field list.
    #[test]
    fn read_fields_mixes_compact_and_generic_spellings() {
        let text = r#"[["cp",3],[ "words" , 12 ],["epoch","cp1"],["q\"",4],["cycles",5]]"#;
        let mut r = Reader::new(text);
        let mut log = EventLog::new();
        read_fields(&mut r, &mut log).unwrap();
        r.finish().unwrap();
        let k = log.intern("k");
        log.commit(k);
        let mut want = EventLog::new();
        want.push(
            "k",
            [
                ("cp", Value::U64(3)),
                ("words", Value::U64(12)),
                ("epoch", Value::from("cp1")),
                ("q\"", Value::U64(4)),
                ("cycles", Value::U64(5)),
            ],
        );
        assert_eq!(log, want);
        let e = read_fields(&mut Reader::new(r#"[["cp",-3]]"#), &mut log).unwrap_err();
        assert!(e.message.contains("integer or string"), "{e}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
        // Under an unknown member, which the decoder skips unread.
        let header = "{\"t\":\"reg\",\"codec\":1}";
        let e = parse(&format!("{header}\n{{\"t\":\"counter\",\"extra\":{deep}")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("nesting"), "{e}");
    }
}

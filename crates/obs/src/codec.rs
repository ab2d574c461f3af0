//! The registry's one wire form — the cross-process leg of the
//! observability layer.
//!
//! A registry travels as three members of an enclosing JSON object:
//!
//! ```text
//! "spans":[{"name":"cell/compile","calls":2,"total_nanos":900,"min":400,"max":500,
//!           "buckets":[[89,1],[95,1]]}…],
//! "counters":[["cache/miss",34]…],
//! "events":[{"kind":"run_end","fields":[["status","completed"]]}…]
//! ```
//!
//! Spans come in name order, counters in name order and events in
//! emission order, so equal registries encode to equal bytes. A span's
//! histogram is written sparsely: its nonzero buckets, its `min` and
//! `max`, and `calls` and `total_nanos`, which are its sample count and
//! sum (see [`crate::Histogram::from_parts`]).
//!
//! Three places carry the members, all through [`write_members`] and
//! [`Members`]: a trace line (`{"job":{…},"wall_nanos":N,<members>}`),
//! a worker line (the cell line plus `"wall_nanos":N,<members>`), and
//! a registry on its own, `{<members>}`, which [`encode`] writes and
//! [`parse`] reads — the `gridd` `stats` frame's `registry` string and
//! the dump `tracereport --service` renders.
//!
//! The contract is **deterministic-merge round-trip**: decoding an
//! encoded registry reproduces it exactly (`parse(encode(r)) == r`), so
//! merging decoded copies is indistinguishable from merging the
//! originals — telemetry aggregated across process boundaries equals
//! telemetry aggregated in one process.
//!
//! Everything is written and read through [`crate::json`]'s writer and
//! pull [`Reader`], with no value tree in between. Events and their
//! fields are read straight into an [`EventLog`], and vocabulary names
//! are written from pre-quoted text.

use crate::json::{write_str, write_u64, JsonError, Reader, Sink};
use crate::log::{EVENT_OPEN, FIELD_OPEN};
use crate::{Event, EventLog, Events, Histogram, PhaseStats, Registry, ValueRef};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Appends an event's fields as `[[name, N|"str"]…]`. Vocabulary names
/// are written from pre-quoted text.
fn write_fields<S: Sink + ?Sized>(out: &mut S, ev: Event<'_>) {
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

/// Appends events as `[{"kind":K,"fields":[…]}…]`.
fn write_events<S: Sink + ?Sized>(out: &mut S, events: Events<'_>) {
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

/// Appends one span as `{"name","calls","total_nanos","min","max",
/// "buckets"}`.
fn write_span<S: Sink + ?Sized>(out: &mut S, name: &str, stats: &PhaseStats) {
    out.push_str("{\"name\":");
    write_str(out, name);
    for (key, n) in [
        (",\"calls\":", stats.calls),
        (",\"total_nanos\":", stats.total_nanos),
        (",\"min\":", stats.hist.min()),
        (",\"max\":", stats.hist.max()),
    ] {
        out.push_str(key);
        write_u64(out, n);
    }
    out.push_str(",\"buckets\":[");
    for (i, (index, count)) in stats.hist.nonzero_buckets().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        write_u64(out, index as u64);
        out.push_str(",");
        write_u64(out, count);
        out.push_str("]");
    }
    out.push_str("]}");
}

/// Appends a registry's members, `"spans":[…],"counters":[…],"events":[…]`,
/// with no braces around them: the caller's object holds them next to
/// its own members.
pub fn write_members<S: Sink + ?Sized>(
    out: &mut S,
    spans: &BTreeMap<String, PhaseStats>,
    counters: &BTreeMap<String, u64>,
    events: &EventLog,
) {
    out.push_str("\"spans\":[");
    for (i, (name, stats)) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",");
        }
        write_span(out, name, stats);
    }
    out.push_str("],\"counters\":[");
    for (i, (name, n)) in counters.iter().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        write_str(out, name);
        out.push_str(",");
        write_u64(out, *n);
        out.push_str("]");
    }
    out.push_str("],\"events\":");
    write_events(out, events.iter());
}

/// Serializes a registry on its own, as the one object `{<members>}`.
/// Deterministic: equal registries encode to equal bytes.
pub fn encode(reg: &Registry) -> String {
    let mut out = String::from("{");
    write_members(&mut out, &reg.spans, &reg.counters, &reg.events);
    out.push('}');
    out
}

/// Parses a registry serialized by [`encode`] (surrounding whitespace
/// allowed). Members come in any order and unknown ones are skipped.
///
/// # Errors
///
/// A positioned [`JsonError`]: malformed input, a missing or duplicate
/// member, a duplicate span or counter name, inconsistent histogram
/// parts, or a record of the former tagged line codec. Garbage input is
/// an error, never a panic — registries cross process boundaries.
pub fn parse(text: &str) -> Result<Registry, JsonError> {
    let mut r = Reader::new(text);
    let mut members = Members::default();
    r.object(|r, key| {
        if members.read(r, &key)? {
            return Ok(());
        }
        if key == "t" {
            return Err(r.err("tagged registry records are not read (dump the registry again)"));
        }
        r.skip()
    })?;
    r.finish()?;
    let reg = members.finish(&r)?;
    r.need(reg, MEMBERS[0])
}

/// The member names, in the order [`write_members`] writes them.
const MEMBERS: [&str; 3] = ["spans", "counters", "events"];

/// A registry read member by member out of an enclosing object: the
/// object's reader hands every key to [`Members::read`], then takes the
/// registry with [`Members::finish`].
#[derive(Default)]
pub struct Members {
    reg: Registry,
    /// Which of [`MEMBERS`] were read.
    seen: [bool; 3],
}

impl Members {
    /// Reads the value under `key` when `key` is a registry member;
    /// returns whether it was one, leaving any other value unread.
    ///
    /// # Errors
    ///
    /// Malformed input, a member given twice, a span or counter name
    /// given twice, or a span whose histogram parts disagree.
    pub fn read(&mut self, r: &mut Reader, key: &str) -> Result<bool, JsonError> {
        let Some(i) = MEMBERS.iter().position(|&m| m == key) else {
            return Ok(false);
        };
        if std::mem::replace(&mut self.seen[i], true) {
            return Err(r.err(format!("duplicate field '{key}'")));
        }
        let reg = &mut self.reg;
        match i {
            0 => r.array(|r| read_span(r, &mut reg.spans))?,
            1 => r.array(|r| {
                let (name, n) = match r.compact_str_u64_pair() {
                    Some((name, n)) => (Cow::Borrowed(name), n),
                    None => r.pair("counter", Reader::str, Reader::u64)?,
                };
                if reg.counters.contains_key(&*name) {
                    return Err(r.err(format!("duplicate counter '{name}'")));
                }
                reg.counters.insert(name.into_owned(), n);
                Ok(())
            })?,
            _ => read_events(r, &mut reg.events)?,
        }
        Ok(true)
    }

    /// The registry read: `None` when the object held none of its
    /// members.
    ///
    /// # Errors
    ///
    /// `missing field` when the object held some members but not all.
    pub fn finish(self, r: &Reader) -> Result<Option<Registry>, JsonError> {
        if !self.seen.contains(&true) {
            return Ok(None);
        }
        match self.seen.iter().position(|&seen| !seen) {
            Some(i) => Err(r.err(format!("missing field '{}'", MEMBERS[i]))),
            None => Ok(Some(self.reg)),
        }
    }
}

/// Reads one span written by [`write_span`] into `spans`.
fn read_span(r: &mut Reader, spans: &mut BTreeMap<String, PhaseStats>) -> Result<(), JsonError> {
    const INTS: [&str; 4] = ["calls", "total_nanos", "min", "max"];
    let mut name = None;
    let mut ints = [None; INTS.len()];
    let mut buckets = None;
    r.object(|r, key| {
        match &*key {
            "name" => name = Some(r.str()?),
            "buckets" => {
                buckets = Some(r.vec(|r| {
                    r.pair(
                        "bucket entry",
                        |r| usize::try_from(r.u64()?).map_err(|_| r.err("bucket index too large")),
                        Reader::u64,
                    )
                })?)
            }
            key => match INTS.iter().position(|&k| k == key) {
                Some(i) => ints[i] = Some(r.u64()?),
                None => r.skip()?,
            },
        }
        Ok(())
    })?;
    let name = r.need(name, "name")?;
    let mut n = [0; INTS.len()];
    for ((n, int), key) in n.iter_mut().zip(ints).zip(INTS) {
        *n = r.need(int, key)?;
    }
    let [calls, total_nanos, min, max] = n;
    let buckets = r.need(buckets, "buckets")?;
    let hist = Histogram::from_parts(calls, total_nanos, min, max, &buckets)
        .ok_or_else(|| r.err(format!("span '{name}': inconsistent histogram parts")))?;
    if spans.contains_key(&*name) {
        return Err(r.err(format!("duplicate span '{name}'")));
    }
    let stats = PhaseStats {
        calls,
        total_nanos,
        hist,
    };
    spans.insert(name.into_owned(), stats);
    Ok(())
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
fn read_fields(r: &mut Reader, log: &mut EventLog) -> Result<(), JsonError> {
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
fn read_events(r: &mut Reader, log: &mut EventLog) -> Result<(), JsonError> {
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
        assert_eq!(text, "{\"spans\":[],\"counters\":[],\"events\":[]}");
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
        let span = "\"name\":\"s\",\"calls\":1,\"total_nanos\":1,\"min\":1,\"max\":1";
        for bad in [
            "",
            "\n\n",
            "{}",
            "{\"spans\":[]}",
            "{\"spans\":[],\"counters\":[]}",
            "{\"spans\":[],\"counters\":[],\"events\":[],\"spans\":[]}",
            &format!(
                "{{\"spans\":[{{{span},\"buckets\":[[0,2]]}}],\"counters\":[],\"events\":[]}}"
            ),
            &format!(
                "{{\"spans\":[{{{span},\"buckets\":[[976,1]]}}],\"counters\":[],\"events\":[]}}"
            ),
            &format!(
                "{{\"spans\":[{{{span},\"buckets\":[[1,1]]}},{{{span},\"buckets\":[[1,1]]}}],\
                 \"counters\":[],\"events\":[]}}"
            ),
            "{\"spans\":[{\"name\":\"s\",\"calls\":1}],\"counters\":[],\"events\":[]}",
            "{\"spans\":[],\"counters\":[[\"x\",1],[\"x\",2]],\"events\":[]}",
            "{\"spans\":[],\"counters\":[[\"x\"]],\"events\":[]}",
            "{\"spans\":[],\"counters\":[],\"events\":[{}]}",
            "{\"spans\":[],\"counters\":[],\"events\":[]} {}",
            "[1,2,3]",
            "{\"spans\":[],\"counters\":[],\"events\":[],\"dropped_events\":-1}",
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
        // The encoded form is a single well-formed line.
        assert_eq!(text.lines().count(), 1);
    }

    /// The registry pinned by `tests/goldens/registry.jsonl`: every
    /// member, a sparse histogram,
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

    /// The golden: one object, newline-terminated as a dump file is.
    const GOLDEN: &str = include_str!("../../../tests/goldens/registry.jsonl");

    #[test]
    fn golden_decodes_and_reencodes_byte_for_byte() {
        let reg = parse(GOLDEN).unwrap();
        assert_eq!(reg, golden_registry());
        assert_eq!(encode(&reg) + "\n", GOLDEN);
        for member in MEMBERS {
            assert!(GOLDEN.contains(&format!("\"{member}\":[")), "{member}");
            assert!(!GOLDEN.contains(&format!("\"{member}\":[]")), "{member}");
        }
    }

    /// A dump that still carries the `dropped_events` and
    /// `spilled_events` tallies of the former event ring loads: unknown
    /// members are skipped.
    #[test]
    fn a_header_with_the_former_ring_tallies_still_loads() {
        let old = GOLDEN.replacen('{', "{\"dropped_events\":3,\"spilled_events\":17,", 1);
        assert_ne!(old, GOLDEN);
        assert_eq!(parse(&old).unwrap(), golden_registry());
    }

    /// A dump of the former tagged line codec — a `reg` header line,
    /// then one record per line — is refused at its first tag, not read
    /// as an empty registry.
    #[test]
    fn a_tagged_multi_line_dump_is_refused_with_a_positioned_error() {
        let tagged = "{\"t\":\"reg\",\"codec\":1}\n\
             {\"t\":\"counter\",\"name\":\"cache/hit\",\"n\":34}\n";
        let e = parse(tagged).unwrap_err();
        assert_eq!(e.at, 5, "{e}");
        assert!(e.message.contains("tagged registry records"), "{e}");
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
        let open = "{\"spans\":[],\"extra\":";
        let e = parse(&format!("{open}{deep}")).unwrap_err();
        assert!(e.at > open.len(), "{e}");
        assert!(e.message.contains("nesting"), "{e}");
    }
}

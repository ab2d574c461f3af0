//! [`EventLog`]: the one flat, append-only store that recorded, decoded
//! and merged events live in.
//!
//! A log is three growable arrays and a name table, so neither
//! recording an event nor decoding one allocates per event:
//!
//! * **heads**, 8 bytes per event: the kind's name id and the end of
//!   the event's fields (each event's fields start where the previous
//!   event's end);
//! * **fields**, 16 bytes per field: the name id, then either an
//!   integer or the span of a string in the shared text buffer;
//! * **text**: every string value, appended in event order;
//! * **names**: ids below the vocabulary's length are the fixed
//!   [`VOCABULARY`] names, and any other name is interned once per log.
//!
//! A seven-field lifecycle event with integer values takes 8 + 7 × 16 =
//! 120 bytes. Events are only ever appended, never retired: a log holds
//! the whole stream it was given.
//!
//! Logs compare by value: two logs are equal when they hold the same
//! kinds, names and values in the same order, however their names were
//! numbered or their text laid out.

use crate::Value;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Declares the fixed vocabulary: the names in id order, each name as
/// the JSON text the writers emit for it (no vocabulary name needs an
/// escape), and the `match` from a name to its id. rustc lowers a
/// string `match` to length tests plus a comparison or two: about 5 ns
/// a name on a 2-vCPU VM, half the cost of a probed hash table.
macro_rules! vocabulary {
    ($($known:literal,)*) => {
        /// Every event kind and field name with a fixed id, in id order.
        pub const VOCABULARY: &[&str] = &[$($known),*];

        /// The artifact text that opens a field named by each
        /// vocabulary name, up to its value.
        pub(crate) const FIELD_OPEN: &[&str] = &[$(concat!("[\"", $known, "\",")),*];

        /// The artifact text that opens an event of each vocabulary
        /// kind, up to its fields.
        pub(crate) const EVENT_OPEN: &[&str] =
            &[$(concat!("{\"kind\":\"", $known, "\",\"fields\":")),*];

        /// The fixed id of a vocabulary name.
        #[inline]
        fn vocabulary_id(s: &str) -> Option<u32> {
            match s {
                $($known => Some(const { position($known) }),)*
                _ => None,
            }
        }
    };
}

/// The index of `name` in [`VOCABULARY`], at compile time.
const fn position(name: &str) -> u32 {
    let mut i = 0;
    while i < VOCABULARY.len() {
        let (a, b) = (VOCABULARY[i].as_bytes(), name.as_bytes());
        if a.len() == b.len() {
            let mut j = 0;
            while j < a.len() && a[j] == b[j] {
                j += 1;
            }
            if j == a.len() {
                return i as u32;
            }
        }
        i += 1;
    }
    panic!("not a vocabulary name")
}

// Every event kind and field name the emulator and the compiler emit.
// The emulator's lifecycle names are listed in `schematic_emu::trace`
// (`EVENT_KINDS`, `SNAPSHOT_KEYS` and the kind-specific fields of its
// schema table); the compiler's are the `alloc_pick` (`gain.rs`) and
// `patch_round` (`pverify.rs`) decision records. The root test
// `tests/event_vocabulary.rs` fails when an emitted name is missing.
vocabulary! {
    "alloc_pick",
    "block",
    "boot",
    "bytes",
    "charge_permille",
    "checkpoint_commit",
    "checkpoint_skip",
    "checkpoint_torn",
    "comp_pj",
    "cp",
    "cycles",
    "detail",
    "energy_pj",
    "epoch",
    "func",
    "gain_pj",
    "lost_insts",
    "migrate",
    "patch_round",
    "power_failure",
    "reexec_pj",
    "restore",
    "restore_pj",
    "run_end",
    "run_start",
    "save_pj",
    "scenario",
    "sleep",
    "status",
    "stuck",
    "tbpf",
    "var",
    "violations",
    "wakeup",
    "window_cycles",
    "words",
}

/// [`Field::len`] of an integer-valued field; any other value is the
/// byte length of a string.
const INT: u32 = u32::MAX;

/// One event's entry: its kind and where its fields end.
#[derive(Debug, Clone, Copy)]
struct Head {
    kind: u32,
    end: u32,
}

/// One field: its name and an integer or a span of the log's text.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Field {
    pub(crate) name: u32,
    /// [`INT`] for an integer; otherwise the string's byte length.
    len: u32,
    /// The integer, or the string's offset in the text.
    value: u64,
}

/// A borrowed field value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRef<'a> {
    /// An unsigned integer.
    U64(u64),
    /// A label.
    Str(&'a str),
}

/// A flat, append-only event store. See the [module docs](self).
#[derive(Clone, Default)]
pub struct EventLog {
    heads: Vec<Head>,
    fields: Vec<Field>,
    text: String,
    /// Interned names other than the vocabulary's, by id minus the
    /// vocabulary's length.
    names: Vec<Box<str>>,
    ids: HashMap<Box<str>, u32>,
}

/// Converts a length to the `u32` a head or field stores it in.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&n| n != INT)
        .expect("an event log holds fewer than 2^32 - 1 fields and string bytes")
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Events in the log.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when the log holds no event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th event, oldest first.
    pub fn get(&self, i: usize) -> Option<Event<'_>> {
        (i < self.len()).then(|| self.at(i))
    }

    /// The oldest event.
    pub fn first(&self) -> Option<Event<'_>> {
        self.get(0)
    }

    /// The newest event.
    pub fn last(&self) -> Option<Event<'_>> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// Every event, oldest first.
    pub fn iter(&self) -> Events<'_> {
        self.range(0..self.len())
    }

    /// The events with indices in `range`, oldest first.
    ///
    /// # Panics
    ///
    /// When `range` reaches past the end of the log.
    pub fn range(&self, range: Range<usize>) -> Events<'_> {
        assert!(range.start <= range.end && range.end <= self.len());
        Events {
            log: self,
            front: range.start,
            back: range.end,
        }
    }

    /// The event at head index `h`.
    fn at(&self, h: usize) -> Event<'_> {
        let start = h.checked_sub(1).map_or(0, |p| self.heads[p].end as usize);
        let head = self.heads[h];
        Event {
            log: self,
            kind: head.kind,
            fields: &self.fields[start..head.end as usize],
        }
    }

    /// Appends one event.
    pub fn push<'n>(&mut self, kind: &str, fields: impl IntoIterator<Item = (&'n str, Value)>) {
        for (name, value) in fields {
            let name = self.intern(name);
            self.push_value(name, value);
        }
        let kind = self.intern(kind);
        self.commit(kind);
    }

    fn push_value(&mut self, name: u32, value: Value) {
        match value {
            Value::U64(n) => self.push_u64(name, n),
            Value::Str(s) => self.push_str(name, &s),
        }
    }

    /// Appends a copy of `ev`, which may belong to another log.
    fn push_event(&mut self, ev: Event<'_>) {
        for &f in ev.fields {
            let name = self.intern_from(ev.log, f.name);
            match ev.log.value(f) {
                ValueRef::U64(n) => self.push_u64(name, n),
                ValueRef::Str(s) => self.push_str(name, s),
            }
        }
        let kind = self.intern_from(ev.log, ev.kind);
        self.commit(kind);
    }

    /// Appends a copy of every event of `other`.
    pub fn append(&mut self, other: &EventLog) {
        self.heads.reserve(other.len());
        self.fields.reserve(other.fields.len());
        for ev in other.iter() {
            self.push_event(ev);
        }
    }

    /// How many names other than the vocabulary's the log has interned.
    pub fn interned_names(&self) -> usize {
        self.names.len()
    }

    /// Removes every event, keeping the storage.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.fields.clear();
        self.text.clear();
        self.names.clear();
        self.ids.clear();
    }

    /// Releases spare capacity, so the log holds exactly what it
    /// stores.
    pub fn shrink_to_fit(&mut self) {
        self.heads.shrink_to_fit();
        self.fields.shrink_to_fit();
        self.text.shrink_to_fit();
    }

    // -----------------------------------------------------------------
    // Building an event field by field (the decoders)
    // -----------------------------------------------------------------

    /// The id of `name`: its vocabulary id, or its id in this log,
    /// interning it on first use.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = vocabulary_id(name) {
            return id;
        }
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = to_u32(VOCABULARY.len() + self.names.len());
        self.names.push(name.into());
        self.ids.insert(name.into(), id);
        id
    }

    fn intern_from(&mut self, other: &EventLog, id: u32) -> u32 {
        if (id as usize) < VOCABULARY.len() {
            id
        } else {
            self.intern(other.name(id))
        }
    }

    /// The name with id `id`.
    pub(crate) fn name(&self, id: u32) -> &str {
        let id = id as usize;
        VOCABULARY
            .get(id)
            .copied()
            .unwrap_or_else(|| &self.names[id - VOCABULARY.len()])
    }

    /// Adds an integer field to the event under construction.
    #[inline]
    pub(crate) fn push_u64(&mut self, name: u32, n: u64) {
        self.fields.push(Field {
            name,
            len: INT,
            value: n,
        });
    }

    /// Adds a string field to the event under construction.
    pub(crate) fn push_str(&mut self, name: u32, s: &str) {
        let at = self.text.len() as u64;
        self.text.push_str(s);
        self.fields.push(Field {
            name,
            len: to_u32(s.len()),
            value: at,
        });
    }

    /// Closes the fields added since the last event into an event of
    /// kind `kind`.
    #[inline]
    pub(crate) fn commit(&mut self, kind: u32) {
        let end = to_u32(self.fields.len());
        self.heads.push(Head { kind, end });
    }

    /// Drops the fields added since the last event.
    pub(crate) fn discard_pending(&mut self) {
        let start = self.heads.last().map_or(0, |h| h.end as usize);
        if let Some(f) = self.fields[start..].iter().find(|f| f.len != INT) {
            self.text.truncate(f.value as usize);
        }
        self.fields.truncate(start);
    }

    /// The value of field `f`.
    pub(crate) fn value(&self, f: Field) -> ValueRef<'_> {
        if f.len == INT {
            ValueRef::U64(f.value)
        } else {
            let at = f.value as usize;
            ValueRef::Str(&self.text[at..at + f.len as usize])
        }
    }
}

impl PartialEq for EventLog {
    fn eq(&self, other: &EventLog) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One event of an [`EventLog`], borrowed.
#[derive(Clone, Copy)]
pub struct Event<'a> {
    log: &'a EventLog,
    pub(crate) kind: u32,
    pub(crate) fields: &'a [Field],
}

impl<'a> Event<'a> {
    /// The event's kind, e.g. `"checkpoint_commit"` or `"alloc_pick"`.
    pub fn kind(&self) -> &'a str {
        self.log.name(self.kind)
    }

    /// The event's fields in order; order is part of the serialized
    /// form.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = (&'a str, ValueRef<'a>)> + 'a {
        let log = self.log;
        self.fields
            .iter()
            .map(move |&f| (log.name(f.name), log.value(f)))
    }

    /// The value of field `name`, if present (the first, if repeated).
    pub fn field(&self, name: &str) -> Option<ValueRef<'a>> {
        self.fields().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// The value of integer field `name`, if present with that type.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        match self.field(name) {
            Some(ValueRef::U64(n)) => Some(n),
            _ => None,
        }
    }

    /// The value of string field `name`, if present with that type.
    pub fn str_field(&self, name: &str) -> Option<&'a str> {
        match self.field(name) {
            Some(ValueRef::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The log the event lives in.
    pub(crate) fn log(&self) -> &'a EventLog {
        self.log
    }
}

impl PartialEq for Event<'_> {
    fn eq(&self, other: &Event<'_>) -> bool {
        self.kind() == other.kind()
            && self.fields.len() == other.fields.len()
            && self.fields().eq(other.fields())
    }
}

impl fmt::Debug for Event<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("kind", &self.kind())
            .field("fields", &self.fields().collect::<Vec<_>>())
            .finish()
    }
}

/// The events of a log range, oldest first: [`EventLog::iter`] and
/// [`EventLog::range`].
#[derive(Clone)]
pub struct Events<'a> {
    log: &'a EventLog,
    front: usize,
    back: usize,
}

impl<'a> Iterator for Events<'a> {
    type Item = Event<'a>;

    fn next(&mut self) -> Option<Event<'a>> {
        (self.front < self.back).then(|| {
            self.front += 1;
            self.log.at(self.front - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Events<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        (self.front < self.back).then(|| {
            self.back -= 1;
            self.log.at(self.back)
        })
    }
}

impl ExactSizeIterator for Events<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_log() -> EventLog {
        let mut log = EventLog::new();
        log.push("run_start", [("scenario", Value::from("10000"))]);
        log.push(
            "tick",
            [("i", Value::U64(1)), ("epoch", Value::from("cp1"))],
        );
        log.push(
            "restore",
            [("epoch", Value::from("boot")), ("words", Value::U64(3))],
        );
        log
    }

    #[test]
    fn vocabulary_ids_follow_the_list() {
        for (i, &name) in VOCABULARY.iter().enumerate() {
            assert_eq!(vocabulary_id(name), Some(i as u32));
            assert_eq!(FIELD_OPEN[i], format!("[\"{name}\","));
            assert_eq!(EVENT_OPEN[i], format!("{{\"kind\":\"{name}\",\"fields\":"));
        }
        assert_eq!(vocabulary_id("run_star"), None);
    }

    #[test]
    fn discarding_pending_fields_truncates_their_text() {
        let mut log = text_log();
        let before = log.clone();
        let id = log.intern("detail");
        log.push_str(id, "half-read");
        log.push_u64(id, 5);
        log.discard_pending();
        assert_eq!(log.text, before.text);
        assert_eq!(log.fields.len(), before.fields.len());
        assert_eq!(log, before);
    }

    #[test]
    fn equality_ignores_name_numbering_and_layout() {
        let a = text_log();
        let mut b = EventLog::new();
        b.intern("unused");
        b.append(&a);
        assert_eq!(a, b);
        assert_ne!(b.names.len(), a.names.len());
        b.push("boot", []);
        assert_ne!(a, b);
    }
}

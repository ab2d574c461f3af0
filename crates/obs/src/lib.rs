//! In-tree structured tracing and metrics for the SCHEMATIC reproduction.
//!
//! Three primitives, all zero-dependency and cheap enough to leave
//! compiled into release binaries:
//!
//! * **Spans** — scoped wall-clock timers ([`span`]) that aggregate per
//!   name into call count, total nanoseconds and a log-linear
//!   [`Histogram`] for quantiles.
//! * **Counters** — monotonic named counters ([`count`]).
//! * **Events** — structured records ([`event`]) with ordered key/value
//!   fields, used for the emulator's intermittent-execution lifecycle
//!   stream and the compiler's decision log. They are stored flat in an
//!   [`EventLog`] ([`log`]): 8 bytes per event plus 16 per field, with
//!   no allocation per event. The log is append-only, so a capture
//!   keeps every event it was given.
//!
//! Everything lands in a thread-local [`Registry`]. The work-stealing
//! grid driver runs each cell with [`capture`], which swaps in a fresh
//! registry for the closure and hands it back, so per-cell results are
//! identical no matter which worker thread ran the cell or in what
//! order. Registries merge deterministically ([`Registry::merge_from`]):
//! spans and counters are keyed by `BTreeMap`, histograms add
//! bucketwise, events concatenate in emission order.
//!
//! Collection is gated on a single process-global flag
//! ([`set_enabled`]). When disabled — the default — every entry point
//! reduces to one relaxed atomic load, which keeps the instrumentation
//! out of the emulator's measured hot paths.
//!
//! Span totals are inclusive wall-clock sums: spans may nest (e.g. the
//! RCG span runs inside the placement span), so per-name totals are not
//! mutually exclusive shares of the parent.
//!
//! Two modules carry data across process boundaries. [`json`] is the
//! workspace's one integer-JSON writer and pull reader: grid cells,
//! cache records, `gridd` frames, trace artifacts and registries all go
//! through it. [`codec`] is the registry's one wire form, built on it:
//! the `spans`, `counters` and `events` members that trace lines,
//! worker lines and registry dumps all carry.

#![warn(missing_docs)]

pub mod codec;
pub mod hist;
pub mod json;
pub mod log;

pub use hist::Histogram;
pub use log::{Event, EventLog, Events, ValueRef, VOCABULARY};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether collection is currently enabled. A single relaxed load, so
/// instrumentation sites stay negligible when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A field value handed to [`event`]: the repo's JSON dialect is
/// u64-and-string only, and the event stream sticks to the same shape.
/// Recorded values are read back as [`ValueRef`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An unsigned integer (cycles, picojoules, ids, ...).
    U64(u64),
    /// A short label (status names, variable names, ...).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Aggregated timings for one span name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of completed spans.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub total_nanos: u64,
    /// Per-call nanosecond distribution.
    pub hist: Histogram,
}

impl PhaseStats {
    fn record(&mut self, nanos: u64) {
        self.calls += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.hist.record(nanos);
    }

    /// Folds `other` into `self`.
    pub fn merge_from(&mut self, other: &PhaseStats) {
        self.calls += other.calls;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.hist.merge_from(&other.hist);
    }

    /// Mean nanoseconds per call, rounded down (`0` when never called).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.calls).unwrap_or(0)
    }
}

/// Everything one thread (or one [`capture`] scope) collected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    /// Span aggregates keyed by span name.
    pub spans: BTreeMap<String, PhaseStats>,
    /// Monotonic counters keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// Structured events in emission order, every one kept.
    pub events: EventLog,
}

impl Registry {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.events.is_empty()
    }

    /// Folds `other` into `self`. Keyed aggregates add; events append
    /// in `other`'s order. Merging a fixed set of registries produces
    /// the same result regardless of how the work that filled them was
    /// scheduled.
    pub fn merge_from(&mut self, other: Registry) {
        for (name, stats) in other.spans {
            self.spans.entry(name).or_default().merge_from(&stats);
        }
        for (name, n) in other.counters {
            *self.counters.entry(name).or_default() += n;
        }
        self.events.append(&other.events);
    }

    /// Records one `nanos` sample into the named span aggregate — the
    /// dynamic-name sibling of [`span`] (whose guard requires a
    /// `&'static str`). Services use it to attribute wall time to
    /// runtime-constructed keys, e.g. one span per grid job.
    pub fn record_span(&mut self, name: &str, nanos: u64) {
        // Look up by `&str` first: the name allocates only on its
        // first record.
        match self.spans.get_mut(name) {
            Some(stats) => stats.record(nanos),
            None => self
                .spans
                .entry(name.to_string())
                .or_default()
                .record(nanos),
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Registry> = RefCell::new(Registry::default());
}

/// A live span; records into the thread-local registry on drop. Created
/// by [`span`].
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Starts a scoped timer. When collection is disabled this is a single
/// atomic load and the guard is inert.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: enabled().then(Instant::now),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            LOCAL.with(|l| l.borrow_mut().record_span(self.name, nanos));
        }
    }
}

/// Adds `n` to the named counter (no-op when collection is disabled).
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        LOCAL.with(|l| {
            let counters = &mut l.borrow_mut().counters;
            match counters.get_mut(name) {
                Some(c) => *c += n,
                None => {
                    counters.insert(name.to_string(), n);
                }
            }
        });
    }
}

/// Records a structured event (no-op when collection is disabled).
///
/// The event goes straight into the registry's [`EventLog`]: its
/// storage grows by doubling, so recording allocates nothing per event
/// (a [`Value::Str`] the caller built is copied into the log's text).
pub fn event(kind: &'static str, fields: impl IntoIterator<Item = (&'static str, Value)>) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().events.push(kind, fields));
    }
}

// ---------------------------------------------------------------------
// Process-global counters
// ---------------------------------------------------------------------

static GLOBAL_COUNTERS: std::sync::Mutex<BTreeMap<String, u64>> =
    std::sync::Mutex::new(BTreeMap::new());

/// The global-counter map, recovering from poison: a panic elsewhere
/// (e.g. a worker thread dying mid-count) must not turn every later
/// tally into an abort. The map is only ever mutated by whole-entry
/// additions, so a poisoned guard still holds consistent data.
fn global_counters() -> std::sync::MutexGuard<'static, BTreeMap<String, u64>> {
    GLOBAL_COUNTERS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Adds `n` to a *process-global* counter. Unlike [`count`], these are
/// shared across threads and independent of the [`set_enabled`] gate —
/// they serve long-lived services (the grid cell cache, the `gridd`
/// daemon) whose hit/miss and request tallies are part of observable
/// behaviour, not optional tracing.
pub fn gcount(name: &str, n: u64) {
    *global_counters().entry(name.to_string()).or_default() += n;
}

/// The current value of a process-global counter (0 when never
/// counted).
pub fn gcounter(name: &str) -> u64 {
    global_counters().get(name).copied().unwrap_or(0)
}

/// A snapshot of every process-global counter.
pub fn gcounters() -> BTreeMap<String, u64> {
    global_counters().clone()
}

/// Takes the calling thread's registry, leaving an empty one behind.
pub fn take_local() -> Registry {
    LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// Runs `f` with a fresh thread-local registry and returns whatever it
/// recorded alongside its result. Anything the thread had collected
/// before the call is restored afterwards, so captures nest safely.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Registry) {
    let saved = take_local();
    let result = f();
    let captured = take_local();
    LOCAL.with(|l| *l.borrow_mut() = saved);
    (result, captured)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-global enabled flag.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = GATE.lock().unwrap();
        set_enabled(false);
        let (_, reg) = capture(|| {
            let _s = span("phase");
            count("hits", 3);
            event("kind", [("k", Value::U64(1))]);
        });
        assert!(reg.is_empty());
    }

    #[test]
    fn capture_scopes_are_isolated_and_restore() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let prior = take_local();
        count("outer", 1);
        let (_, inner) = capture(|| {
            count("inner", 5);
            event("e", [("n", Value::U64(9))]);
        });
        assert_eq!(inner.counters.get("inner"), Some(&5));
        assert_eq!(inner.counters.get("outer"), None);
        assert_eq!(inner.events.len(), 1);
        // The outer context survived the capture.
        let outer = take_local();
        assert_eq!(outer.counters.get("outer"), Some(&1));
        assert_eq!(outer.counters.get("inner"), None);
        set_enabled(false);
        LOCAL.with(|l| *l.borrow_mut() = prior);
    }

    #[test]
    fn spans_aggregate_by_name() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let (_, reg) = capture(|| {
            for _ in 0..4 {
                let _s = span("work");
            }
        });
        set_enabled(false);
        let stats = reg.spans.get("work").expect("span recorded");
        assert_eq!(stats.calls, 4);
        assert_eq!(stats.hist.count(), 4);
        assert!(stats.total_nanos >= stats.hist.min());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = Registry::default();
        a.counters.insert("x".into(), 2);
        a.spans.entry("s".into()).or_default().record(100);
        a.events.push("e1", [("v", Value::U64(1))]);
        let mut b = Registry::default();
        b.counters.insert("x".into(), 3);
        b.counters.insert("y".into(), 1);
        b.spans.entry("s".into()).or_default().record(300);

        let mut ab = Registry::default();
        ab.merge_from(a.clone());
        ab.merge_from(b.clone());
        let mut ba = Registry::default();
        ba.merge_from(b);
        ba.merge_from(a);

        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.spans, ba.spans);
        assert_eq!(ab.counters.get("x"), Some(&5));
        let s = &ab.spans["s"];
        assert_eq!(s.calls, 2);
        assert_eq!(s.total_nanos, 400);
        assert_eq!(s.hist.max(), 300);
    }

    /// Every recorded event stays in the registry, in emission order:
    /// a stream far longer than any one run's lifecycle loses nothing.
    #[test]
    fn every_event_is_kept_in_emission_order() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let total = (1 << 17) + 10;
        let (_, reg) = capture(|| {
            for i in 0..total {
                event("e", [("i", Value::U64(i))]);
            }
        });
        set_enabled(false);
        assert_eq!(reg.events.len() as u64, total);
        let seq = |ev: Option<Event>| ev.and_then(|e| e.u64_field("i"));
        assert_eq!(seq(reg.events.first()), Some(0));
        assert_eq!(seq(reg.events.get(77_777)), Some(77_777));
        assert_eq!(seq(reg.events.last()), Some(total - 1));
    }

    #[test]
    fn global_counters_accumulate_across_threads() {
        gcount("test/g", 2);
        std::thread::scope(|s| {
            s.spawn(|| gcount("test/g", 3));
        });
        assert_eq!(gcounter("test/g"), 5);
        assert_eq!(gcounters().get("test/g"), Some(&5));
        assert_eq!(gcounter("test/never"), 0);
    }

    #[test]
    fn global_counters_survive_a_poisoned_lock() {
        // A thread that panics while holding the lock poisons it; every
        // later tally must recover instead of aborting.
        let _ = std::thread::spawn(|| {
            let _guard = GLOBAL_COUNTERS.lock().unwrap();
            panic!("poison the global counter lock");
        })
        .join();
        gcount("test/poison", 1);
        gcount("test/poison", 2);
        assert_eq!(gcounter("test/poison"), 3);
        assert_eq!(gcounters().get("test/poison"), Some(&3));
    }

    #[test]
    fn record_span_matches_guard_aggregation() {
        let mut reg = Registry::default();
        reg.record_span("job/run/Schematic/crc/10000", 100);
        reg.record_span("job/run/Schematic/crc/10000", 300);
        let stats = &reg.spans["job/run/Schematic/crc/10000"];
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.total_nanos, 400);
        assert_eq!(stats.hist.count(), 2);
        assert_eq!(stats.hist.max(), 300);
    }

    /// A log refers to vocabulary names by their fixed ids and owns
    /// only the other names, each once however often it is used.
    #[test]
    fn name_borrows_vocabulary_names_and_owns_the_rest() {
        let mut log = EventLog::new();
        for &known in VOCABULARY {
            log.push(known, [(known, Value::U64(1))]);
        }
        assert_eq!(log.interned_names(), 0);
        let unknown = ["", "tick", "run_star", "words2", "dæmon"];
        for _ in 0..3 {
            for name in unknown {
                log.push(name, [(name, Value::U64(2))]);
            }
        }
        assert_eq!(log.interned_names(), unknown.len());
        let names: Vec<&str> = log.iter().map(|e| e.kind()).collect();
        assert_eq!(&names[..VOCABULARY.len()], VOCABULARY);
        assert_eq!(&names[VOCABULARY.len()..][..unknown.len()], unknown);
    }

    #[test]
    fn event_field_lookup() {
        let mut log = EventLog::new();
        log.push("k", [("a", Value::U64(7)), ("b", Value::from("x"))]);
        let ev = log.first().unwrap();
        assert_eq!(ev.u64_field("a"), Some(7));
        assert_eq!(ev.u64_field("b"), None);
        assert_eq!(ev.field("b"), Some(ValueRef::Str("x")));
        assert_eq!(ev.str_field("b"), Some("x"));
        assert_eq!(ev.field("c"), None);
    }
}

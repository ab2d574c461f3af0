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
//!   no allocation per event.
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
//! through it. [`codec`] is the registry's JSONL form, built on it,
//! with the event-field codec the trace artifact shares.

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

/// Hard cap on buffered events per registry. Pathological cells (tiny
/// TBPF on a large benchmark) can otherwise emit millions of lifecycle
/// events; past the cap the buffer behaves as a ring — the *oldest*
/// event is discarded (counted in [`Registry::dropped_events`]) so the
/// most recent run's lifecycle, including its closing `run_end`
/// snapshot, always survives truncation.
pub const MAX_EVENTS: usize = 1 << 17;

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
    /// Structured events in emission order, capped at [`MAX_EVENTS`]
    /// with ring semantics (oldest dropped first).
    pub events: EventLog,
    /// Oldest events discarded after the cap was reached.
    pub dropped_events: u64,
    /// Oldest events handed to a [`set_spill`] sink instead of being
    /// dropped — still part of the stream, just resident on disk.
    pub spilled_events: u64,
}

impl Registry {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.events.is_empty()
            && self.dropped_events == 0
            && self.spilled_events == 0
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
        for ev in other.events.iter() {
            self.make_room();
            self.events.push_event(ev);
        }
        self.dropped_events += other.dropped_events;
        self.spilled_events += other.spilled_events;
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

    /// Ring semantics: at the cap, retires the oldest event to make
    /// room for one more.
    fn make_room(&mut self) {
        if self.events.len() == MAX_EVENTS {
            self.events.remove_front(1);
            self.dropped_events += 1;
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Registry> = RefCell::new(Registry::default());
    static SPILL: RefCell<Option<SpillFn>> = RefCell::new(None);
}

/// An event spill sink: receives batches of the *oldest* buffered
/// events when the thread's registry is full. See [`set_spill`].
pub type SpillFn = Box<dyn FnMut(Events<'_>)>;

/// Installs (or clears) the calling thread's event spill sink and
/// returns the previous one.
///
/// Without a sink, a full event buffer behaves as a ring: the oldest
/// record is dropped (counted in [`Registry::dropped_events`]). With a
/// sink installed, [`event`] instead drains the oldest half of the
/// buffer into the sink — typically a writer streaming them to disk —
/// so the full stream survives in order: spilled batches first, the
/// resident buffer after. Spilled records are counted in
/// [`Registry::spilled_events`].
///
/// The sink runs on the emitting thread while the spill bookkeeping is
/// live; it must not call [`event`] itself.
pub fn set_spill(f: Option<SpillFn>) -> Option<SpillFn> {
    SPILL.with(|s| std::mem::replace(&mut *s.borrow_mut(), f))
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
        // Spill before pushing. The sink reads the oldest half in place
        // while the log is out of the registry, so it never observes a
        // half-updated registry.
        let full = LOCAL.with(|l| {
            let mut reg = l.borrow_mut();
            if reg.events.len() >= MAX_EVENTS && SPILL.with(|s| s.borrow().is_some()) {
                reg.spilled_events += (MAX_EVENTS / 2) as u64;
                Some(std::mem::take(&mut reg.events))
            } else {
                None
            }
        });
        if let Some(mut log) = full {
            SPILL.with(|s| {
                if let Some(f) = s.borrow_mut().as_mut() {
                    f(log.range(0..MAX_EVENTS / 2));
                }
            });
            log.remove_front(MAX_EVENTS / 2);
            LOCAL.with(|l| l.borrow_mut().events = log);
        }
        LOCAL.with(|l| {
            let mut reg = l.borrow_mut();
            reg.make_room();
            reg.events.push(kind, fields);
        });
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
        push(&mut a, "e1", [("v", Value::U64(1))]);
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

    /// Records into `r` as [`event`] records into the thread's registry.
    fn push<'n>(r: &mut Registry, kind: &str, fields: impl IntoIterator<Item = (&'n str, Value)>) {
        r.make_room();
        r.events.push(kind, fields);
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut r = Registry::default();
        for i in 0..(MAX_EVENTS + 10) {
            push(&mut r, &format!("e{i}"), []);
        }
        assert_eq!(r.events.len(), MAX_EVENTS);
        assert_eq!(r.dropped_events, 10);
        // Ring semantics: the oldest events were dropped, the newest kept.
        assert_eq!(r.events.first().unwrap().kind(), "e10");
        assert_eq!(
            r.events.last().unwrap().kind(),
            format!("e{}", MAX_EVENTS + 9)
        );
    }

    /// The sequence number the spill tests stamp on each event.
    fn seq(ev: Event) -> u64 {
        ev.u64_field("i").expect("sequence field")
    }

    #[test]
    fn spill_streams_oldest_events_instead_of_dropping() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let spilled = std::rc::Rc::new(RefCell::new(EventLog::new()));
        let sink = spilled.clone();
        let prev = set_spill(Some(Box::new(move |batch: Events<'_>| {
            let mut spilled = sink.borrow_mut();
            for ev in batch {
                spilled.push_event(ev);
            }
        })));
        let total = (MAX_EVENTS + 10) as u64;
        let half = (MAX_EVENTS / 2) as u64;
        let (_, reg) = capture(|| {
            for i in 0..total {
                event("e", [("i", Value::U64(i))]);
            }
        });
        set_spill(prev);
        set_enabled(false);
        // Nothing dropped: the overflow went to the sink, oldest first.
        assert_eq!(reg.dropped_events, 0);
        assert_eq!(reg.spilled_events, half);
        let spilled = spilled.borrow();
        assert_eq!(spilled.len() as u64, half);
        assert_eq!(seq(spilled.first().unwrap()), 0);
        assert_eq!(seq(spilled.last().unwrap()), half - 1);
        // The resident buffer continues exactly where the spill ended.
        assert_eq!(seq(reg.events.first().unwrap()), half);
        assert_eq!(seq(reg.events.last().unwrap()), total - 1);
        assert_eq!((reg.events.len() + spilled.len()) as u64, total);
    }

    #[test]
    fn without_spill_sink_ring_semantics_hold() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let (_, reg) = capture(|| {
            for i in 0..(MAX_EVENTS + 3) as u64 {
                event("e", [("i", Value::U64(i))]);
            }
        });
        set_enabled(false);
        assert_eq!(reg.dropped_events, 3);
        assert_eq!(reg.spilled_events, 0);
        assert_eq!(seq(reg.events.first().unwrap()), 3);
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

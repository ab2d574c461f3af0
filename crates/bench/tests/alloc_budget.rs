//! Allocation and byte budgets for the event hot paths, measured with
//! a counting global allocator.
//!
//! Events live in one flat `EventLog` per registry and per trace: 8
//! bytes per event and 16 per field, names as fixed vocabulary ids,
//! storage grown by doubling. These tests pin that: recording 10,000
//! seven-field lifecycle events, or decoding them from a trace
//! artifact (counted on the calling thread and on the line decoder's
//! worker threads), makes only the log's amortised growth allocations,
//! and the log then holds at most 128 heap bytes per event. Span guards
//! and counters are cheaper still: once a name has been recorded, more
//! records under it allocate nothing, which is what keeps the
//! telemetry `gridd` workers always capture within its budget. An
//! emulator checkpoint commit reuses the previous image's buffers, so
//! a run's allocations do not grow with its commits.

use schematic_bench::grid::Job;
use schematic_bench::trace::{self, CellTrace};
use schematic_bench::{compile_technique, eb_for_tbpf, intermittent_run_config_model, SEED};
use schematic_emu::trace::SNAPSHOT_KEYS;
use schematic_emu::{Machine, PowerModel};
use schematic_energy::CostTable;
use schematic_obs as obs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counts allocations (including reallocations) and net heap bytes
/// made by threads that have switched counting on, per thread: the
/// test harness runs tests on several threads, and only the measuring
/// one should be charged. A measurement may also charge the threads
/// its code spawns.
struct Counting;

/// Set while a measurement charges the threads its code spawns.
static CHARGE_SPAWNED: AtomicBool = AtomicBool::new(false);

/// Allocations of the threads spawned while [`CHARGE_SPAWNED`] is set.
static SPAWNED_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Net heap bytes (allocated minus freed) of those threads.
static SPAWNED_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<i64> = const { Cell::new(0) };
    /// Fixed at the thread's first allocation: set for a thread that
    /// first allocates while spawned threads are charged, that is, one
    /// the measured code spawned.
    static SPAWNED: Cell<bool> = Cell::new(CHARGE_SPAWNED.load(Ordering::SeqCst));
}

/// Charges `allocs` allocations and `bytes` net heap bytes to the
/// counting thread, or to the spawned threads' tally.
fn note(allocs: u64, bytes: i64) {
    let spawned = SPAWNED.with(Cell::get);
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + allocs));
        BYTES.with(|n| n.set(n.get() + bytes));
    } else if spawned && CHARGE_SPAWNED.load(Ordering::SeqCst) {
        SPAWNED_ALLOCS.fetch_add(allocs, Ordering::SeqCst);
        SPAWNED_BYTES.fetch_add(bytes, Ordering::SeqCst);
    }
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("an allocation fits i64")
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, size(layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, size(layout.size()));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, size(new_size) - size(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -size(layout.size()));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serializes the tests that flip the process-global collection flag or
/// charge spawned threads.
static GATE: Mutex<()> = Mutex::new(());

/// Holds [`GATE`]; a test that failed while holding it does not fail
/// the others.
fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a measured closure cost: allocations (reallocations included)
/// and net heap bytes, that is, the bytes its result still holds.
#[derive(Debug, Clone, Copy)]
struct Cost {
    allocs: u64,
    bytes: i64,
}

/// Runs `f` and returns its result with what it cost on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    COUNTING.with(|c| c.set(true));
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let result = f();
    let cost = Cost {
        allocs: ALLOCS.with(Cell::get) - allocs,
        bytes: BYTES.with(Cell::get) - bytes,
    };
    COUNTING.with(|c| c.set(false));
    (result, cost)
}

/// [`allocations`], also charging the threads `f` spawns (the line
/// decoder's workers).
fn allocations_with_spawned<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    CHARGE_SPAWNED.store(true, Ordering::SeqCst);
    let allocs = SPAWNED_ALLOCS.load(Ordering::SeqCst);
    let bytes = SPAWNED_BYTES.load(Ordering::SeqCst);
    let (result, own) = allocations(f);
    let cost = Cost {
        allocs: own.allocs + SPAWNED_ALLOCS.load(Ordering::SeqCst) - allocs,
        bytes: own.bytes + SPAWNED_BYTES.load(Ordering::SeqCst) - bytes,
    };
    CHARGE_SPAWNED.store(false, Ordering::SeqCst);
    (result, cost)
}

/// Lifecycle events per measurement.
const EVENTS: u64 = 10_000;

/// The most allocations recording or decoding [`EVENTS`] events may
/// make: the doubling growth of the log's two arrays, plus a handful
/// for the registry or the trace line around them.
const GROWTH_ALLOCS: u64 = 64;

/// The most heap bytes a seven-field lifecycle event may take once its
/// log is held at exact size: an 8-byte head and seven 16-byte fields
/// are 120.
const EVENT_BYTES: i64 = 128;

/// Records an emulator-shaped event as the emulator does: vocabulary
/// kind, kind-specific fields and the five snapshot fields, all
/// integer-valued.
fn record_lifecycle_event(i: u64) {
    let kind = ["checkpoint_commit", "power_failure", "sleep", "migrate"][i as usize % 4];
    let keys = ["cp", "words"].into_iter().chain(SNAPSHOT_KEYS);
    let fields = keys
        .enumerate()
        .map(|(j, key)| (key, obs::Value::U64(i * 31 + j as u64)));
    obs::event(kind, fields);
}

/// Records [`EVENTS`] lifecycle events in a fresh capture.
fn recorded_events() -> obs::Registry {
    let ((), reg) = obs::capture(|| (0..EVENTS).for_each(record_lifecycle_event));
    reg
}

#[test]
fn recording_events_allocates_only_amortised_growth() {
    let _gate = gate();
    obs::set_enabled(true);
    let (reg, cost) = allocations(|| {
        let mut reg = recorded_events();
        reg.events.shrink_to_fit();
        reg
    });
    obs::set_enabled(false);
    assert_eq!(reg.events.len() as u64, EVENTS);
    let ev = reg.events.last().expect("event recorded");
    assert_eq!(ev.kind(), "migrate");
    assert_eq!(ev.fields().len(), 7);
    assert_eq!(reg.events.interned_names(), 0, "every name has a fixed id");
    assert!(
        cost.allocs <= GROWTH_ALLOCS,
        "recording {EVENTS} events made {} allocations (budget {GROWTH_ALLOCS})",
        cost.allocs
    );
    let budget = EVENT_BYTES * EVENTS as i64;
    assert!(
        cost.bytes <= budget,
        "{EVENTS} recorded events hold {} bytes (budget {budget})",
        cost.bytes
    );
}

#[test]
fn decoding_events_allocates_only_amortised_growth() {
    let _gate = gate();
    obs::set_enabled(true);
    let reg = recorded_events();
    obs::set_enabled(false);
    let trace = CellTrace {
        job: Job::run("Schematic", "crc", 1000),
        wall_nanos: 1_000,
        spans: Default::default(),
        counters: [("alloc/picks".to_string(), 3)].into(),
        events: reg.events,
    };
    let text = trace::to_jsonl(std::slice::from_ref(&trace));

    let (parsed, cost) =
        allocations_with_spawned(|| trace::from_jsonl(&text).expect("artifact decodes"));
    assert_eq!(parsed, vec![trace]);
    assert!(
        cost.allocs <= GROWTH_ALLOCS,
        "decoding {EVENTS} events made {} allocations (budget {GROWTH_ALLOCS})",
        cost.allocs
    );
    // The decoded trace is held at exact size; its job, counter and
    // vectors take a few hundred bytes besides the log.
    let budget = EVENT_BYTES * EVENTS as i64 + 1024;
    assert!(
        cost.bytes <= budget,
        "the decoded trace holds {} bytes (budget {budget})",
        cost.bytes
    );
}

/// A checkpoint commit overwrites the previous image in place (frames,
/// register files and restore list reuse their buffers), so a
/// Rockclimb/aes run — about 28k commits — allocates less than once
/// per ten commits, machine construction included.
#[test]
fn checkpoint_commits_reuse_the_image() {
    const TBPF: u64 = 10_000;
    let table = CostTable::msp430fr5969();
    let bench = schematic_benchsuite::by_name("aes").expect("aes exists");
    let module = (bench.build)(SEED);
    let im = compile_technique("Rockclimb", &module, &table, eb_for_tbpf(&table, TBPF))
        .expect("Rockclimb places aes");
    let cfg = intermittent_run_config_model(PowerModel::Periodic { tbpf: TBPF });
    // Hold the gate: a test that enables collection would charge its
    // records to this run.
    let _gate = gate();
    let (out, cost) = allocations(|| Machine::new(&im, &table, cfg).run().expect("no trap"));
    let commits = out.metrics.checkpoints_committed;
    assert!(commits > 10_000, "only {commits} commits");
    let n = cost.allocs;
    assert!(n * 10 < commits, "{commits} commits made {n} allocations");
}

#[test]
fn spans_and_counts_under_recorded_names_allocate_nothing() {
    const N: u64 = 10_000;
    let _gate = gate();
    obs::set_enabled(true);
    let ((), reg) = obs::capture(|| {
        // The first record of a name allocates its map entry.
        drop(obs::span("compile/place"));
        obs::count("alloc/picks", 1);
        let ((), cost) = allocations(|| {
            for _ in 0..N {
                let _guard = obs::span("compile/place");
                obs::count("alloc/picks", 1);
            }
        });
        assert_eq!(cost.allocs, 0, "{N} spans and counts: {cost:?}");
        assert_eq!(cost.bytes, 0, "{N} spans and counts: {cost:?}");
    });
    obs::set_enabled(false);
    assert_eq!(reg.spans["compile/place"].calls, N + 1);
    assert_eq!(reg.counters["alloc/picks"], N + 1);
}

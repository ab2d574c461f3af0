//! Allocation budgets for the event hot paths, measured with a
//! counting global allocator.
//!
//! Event kinds and field names from the fixed vocabulary are interned
//! (`schematic_obs::name`), so neither recording an event nor decoding
//! one from a trace artifact allocates a string per name. These tests
//! pin that: decoding an artifact of N integer-valued vocabulary
//! events allocates at most N + O(cells) times, counted on the calling
//! thread and on the line decoder's worker threads, and recording one
//! event with static names allocates at most once. Span guards and
//! counters are cheaper still: once a name has been recorded, more
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts allocations (including reallocations) made by threads that
/// have switched counting on, per thread: the test harness runs tests
/// on several threads, and only the measuring one should be charged.
/// A measurement may also charge the threads its code spawns.
struct Counting;

/// Set while a measurement charges the threads its code spawns.
static CHARGE_SPAWNED: AtomicBool = AtomicBool::new(false);

/// Allocations of the threads spawned while [`CHARGE_SPAWNED`] is set.
static SPAWNED_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Fixed at the thread's first allocation: set for a thread that
    /// first allocates while spawned threads are charged, that is, one
    /// the measured code spawned.
    static SPAWNED: Cell<bool> = Cell::new(CHARGE_SPAWNED.load(Ordering::SeqCst));
}

fn note() {
    let spawned = SPAWNED.with(Cell::get);
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    } else if spawned && CHARGE_SPAWNED.load(Ordering::SeqCst) {
        SPAWNED_ALLOCS.fetch_add(1, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serializes the tests that flip the process-global collection flag or
/// charge spawned threads.
static GATE: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its result with the allocations it made on
/// this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.with(Cell::get);
    let result = f();
    let n = ALLOCS.with(Cell::get) - before;
    COUNTING.with(|c| c.set(false));
    (result, n)
}

/// [`allocations`], also charging the threads `f` spawns (the line
/// decoder's workers).
fn allocations_with_spawned<R>(f: impl FnOnce() -> R) -> (R, u64) {
    CHARGE_SPAWNED.store(true, Ordering::SeqCst);
    let before = SPAWNED_ALLOCS.load(Ordering::SeqCst);
    let (result, own) = allocations(f);
    let spawned = SPAWNED_ALLOCS.load(Ordering::SeqCst) - before;
    CHARGE_SPAWNED.store(false, Ordering::SeqCst);
    (result, own + spawned)
}

/// An emulator-shaped event: vocabulary kind, kind-specific fields and
/// the five snapshot fields, all integer-valued.
fn lifecycle_event(i: u64) -> obs::Event {
    let kind = ["checkpoint_commit", "power_failure", "sleep", "migrate"][i as usize % 4];
    let keys = ["cp", "words"].into_iter().chain(SNAPSHOT_KEYS);
    let fields = keys
        .enumerate()
        .map(|(j, key)| (obs::name(key), obs::Value::U64(i * 31 + j as u64)))
        .collect();
    obs::Event {
        kind: obs::name(kind),
        fields,
    }
}

#[test]
fn decoding_vocabulary_events_allocates_once_per_event() {
    const CELLS: u64 = 6;
    const EVENTS_PER_CELL: u64 = 1500;
    let traces: Vec<CellTrace> = (0..CELLS)
        .map(|c| CellTrace {
            job: Job::run("Schematic", "crc", 1000 * (c + 1)),
            wall_nanos: 1_000 + c,
            phases: Vec::new(),
            counters: vec![("alloc/picks".to_string(), c)],
            events: (0..EVENTS_PER_CELL).map(lifecycle_event).collect(),
            dropped_events: 0,
            spilled_events: 0,
        })
        .collect();
    let text = trace::to_jsonl(&traces);

    // Held so that no other measurement runs while spawned threads are
    // charged.
    let _gate = GATE.lock().unwrap();
    let (parsed, n) =
        allocations_with_spawned(|| trace::from_jsonl(&text).expect("artifact decodes"));
    assert_eq!(parsed, traces);
    let events = CELLS * EVENTS_PER_CELL;
    // Per cell: the job's strings, the counter name, the line's vectors
    // and the doubling growth of its event vector.
    let budget = events + 48 * CELLS;
    assert!(
        n <= budget,
        "decoding {events} events in {CELLS} cells made {n} allocations (budget {budget})"
    );
}

#[test]
fn recording_an_event_with_static_names_allocates_once() {
    let _gate = GATE.lock().unwrap();
    obs::set_enabled(true);
    let ((), reg) = obs::capture(|| {
        // Warm up: the registry's event buffer allocates on first use.
        obs::event("boot", [("words", obs::Value::U64(1))]);
        let ((), n) = allocations(|| {
            let snapshot = [
                ("comp_pj", obs::Value::U64(10)),
                ("save_pj", obs::Value::U64(2)),
                ("restore_pj", obs::Value::U64(3)),
                ("reexec_pj", obs::Value::U64(0)),
                ("cycles", obs::Value::U64(99)),
            ];
            let fields = [("cp", obs::Value::U64(4)), ("words", obs::Value::U64(12))];
            obs::event("checkpoint_commit", fields.into_iter().chain(snapshot));
        });
        assert!(n <= 1, "one event made {n} allocations");
    });
    obs::set_enabled(false);
    let ev = reg.events.back().expect("event recorded");
    assert_eq!(ev.kind, "checkpoint_commit");
    assert_eq!(ev.fields.len(), 7);
    assert_eq!(ev.fields.capacity(), 7);
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
    let _gate = GATE.lock().unwrap();
    let (out, n) = allocations(|| Machine::new(&im, &table, cfg).run().expect("no trap"));
    let commits = out.metrics.checkpoints_committed;
    assert!(commits > 10_000, "only {commits} commits");
    assert!(n * 10 < commits, "{commits} commits made {n} allocations");
}

#[test]
fn spans_and_counts_under_recorded_names_allocate_nothing() {
    const N: u64 = 10_000;
    let _gate = GATE.lock().unwrap();
    obs::set_enabled(true);
    let ((), reg) = obs::capture(|| {
        // The first record of a name allocates its map entry.
        drop(obs::span("compile/place"));
        obs::count("alloc/picks", 1);
        let ((), n) = allocations(|| {
            for _ in 0..N {
                let _guard = obs::span("compile/place");
                obs::count("alloc/picks", 1);
            }
        });
        assert_eq!(n, 0, "{N} spans and counts made {n} allocations");
    });
    obs::set_enabled(false);
    assert_eq!(reg.spans["compile/place"].calls, N + 1);
    assert_eq!(reg.counters["alloc/picks"], N + 1);
}

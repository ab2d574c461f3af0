//! Telemetry neutrality over the real quick grid: capturing per-job
//! worker registries (the `gridrun --jobs` telemetry path the `gridd`
//! service merges) must not change a single byte of the computed cells
//! or the rendered reports, and the captured registries must merge
//! deterministically regardless of arrival order — the contract that
//! lets the daemon fold worker telemetry from any dispatch interleaving.
//! A worker line and a trace line carry a registry in the same members,
//! so both decode one capture to the same registry.

use schematic_bench::experiments::render_all;
use schematic_bench::grid::{evaluate_traced, CellLine, CellStore, GridMode, GridSpec, Job};
use schematic_bench::trace::{self, CellTrace};
use schematic_bench::ENERGY_TBPF;
use schematic_energy::CostTable;
use schematic_obs::Registry;
use std::sync::{Mutex, PoisonError};

/// Serializes the tests that flip the process-global obs and trace
/// flags.
static GATE: Mutex<()> = Mutex::new(());

#[test]
fn telemetry_capture_is_invisible_to_grid_output() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = GridSpec::full_grid(GridMode::Quick);
    let table = CostTable::msp430fr5969();

    // Telemetry off: cell lines with program digests only.
    schematic_obs::set_enabled(false);
    let mut off = CellStore::new();
    let mut off_lines = Vec::new();
    for job in spec.jobs() {
        let (value, ims) = evaluate_traced(job, &table);
        let mut line = String::new();
        CellLine {
            ims: Some(ims),
            ..CellLine::plain(job.clone(), value.clone())
        }
        .write(&mut line);
        off_lines.push(line);
        off.insert(job.clone(), value).unwrap();
    }
    let off_render = render_all(&off, GridMode::Quick);

    // Telemetry on: capture a registry per job as `gridrun --jobs`
    // does, events included (synthetic wall time keeps the artifact
    // lines deterministic for the blind-reader comparison below).
    schematic_obs::set_enabled(true);
    let mut on = CellStore::new();
    let mut on_lines = Vec::new();
    let mut telemetry = Vec::new();
    for job in spec.jobs() {
        let ((value, ims), registry) = schematic_obs::capture(|| evaluate_traced(job, &table));
        let t = (1, registry);
        let mut line = String::new();
        CellLine {
            ims: Some(ims),
            telemetry: Some(t.clone()),
            ..CellLine::plain(job.clone(), value.clone())
        }
        .write(&mut line);
        on_lines.push(line);
        telemetry.push(t);
        on.insert(job.clone(), value).unwrap();
    }
    schematic_obs::set_enabled(false);

    // Byte parity: same cells, same reports.
    assert_eq!(on.to_jsonl(), off.to_jsonl());
    assert_eq!(render_all(&on, GridMode::Quick), off_render);

    // A telemetry-carrying line folds to the same cell and digests as
    // one without, and round-trips the registry exactly.
    for ((plain, rich), t) in off_lines.iter().zip(&on_lines).zip(&telemetry) {
        let plain = CellLine::parse(plain).unwrap();
        let rich = CellLine::parse(rich).unwrap();
        assert_eq!(
            (&plain.job, &plain.value, &plain.ims),
            (&rich.job, &rich.value, &rich.ims)
        );
        assert!(plain.telemetry.is_none());
        let rt = rich.telemetry.expect("rich line carries telemetry");
        assert_eq!(rt.0, t.0);
        assert_eq!(rt.1, t.1);
    }

    // Every job captured real phase spans, and merging the fleet's
    // registries is order-independent: the aggregates (spans, counters,
    // histograms) are byte-identical however the lines arrive, and the
    // event log — inherently ordered — carries the same multiset. Each
    // fold records the job's wall time as its `job/<key>` span, as the
    // daemon does.
    let fold = |reg: &mut Registry, job: &Job, (wall, part): &(u64, Registry)| {
        reg.merge_from(part.clone());
        reg.record_span(&format!("job/{job}"), *wall);
    };
    let mut forward = Registry::default();
    for (job, t) in spec.jobs().iter().zip(&telemetry) {
        fold(&mut forward, job, t);
    }
    let mut reverse = Registry::default();
    for (job, t) in spec.jobs().iter().zip(&telemetry).rev() {
        fold(&mut reverse, job, t);
    }
    let mut fwd_events: Vec<String> = forward.events.iter().map(|e| format!("{e:?}")).collect();
    let mut rev_events: Vec<String> = reverse.events.iter().map(|e| format!("{e:?}")).collect();
    fwd_events.sort();
    rev_events.sort();
    assert_eq!(fwd_events, rev_events);
    forward.events.clear();
    reverse.events.clear();
    assert_eq!(
        schematic_obs::codec::encode(&forward),
        schematic_obs::codec::encode(&reverse)
    );
    assert_eq!(
        forward
            .spans
            .keys()
            .filter(|k| k.starts_with("job/"))
            .count(),
        spec.len()
    );
    assert!(forward.spans.keys().any(|k| k.starts_with("cell/")));
}

/// One capture, written as a worker line and as a trace line, decodes
/// to one registry: both lines carry it in the same members.
#[test]
fn a_worker_line_and_a_trace_line_decode_to_the_same_registry() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let table = CostTable::msp430fr5969();
    let (was_obs, was_forced) = (schematic_obs::enabled(), schematic_emu::trace::forced());
    schematic_obs::set_enabled(true);
    schematic_emu::trace::set_forced(true);
    for job in [
        Job::run("Schematic", "crc", ENERGY_TBPF),
        Job::run("Mementos", "randmath", 1_000),
    ] {
        let ((value, ims), reg) = schematic_obs::capture(|| evaluate_traced(&job, &table));
        assert!(!reg.spans.is_empty() && !reg.events.is_empty(), "{job}");

        let mut worker = String::new();
        CellLine {
            ims: Some(ims),
            telemetry: Some((77, reg.clone())),
            ..CellLine::plain(job.clone(), value)
        }
        .write(&mut worker);
        let (wall, from_worker) = CellLine::parse(&worker)
            .unwrap()
            .telemetry
            .expect("worker line carries a registry");

        let t = CellTrace {
            job: job.clone(),
            wall_nanos: 77,
            spans: reg.spans.clone(),
            counters: reg.counters.clone(),
            events: reg.events.clone(),
        };
        let back = trace::from_jsonl(&trace::to_jsonl(&[t])).unwrap();
        let [t] = <[CellTrace; 1]>::try_from(back).expect("one line");
        let from_trace = Registry {
            spans: t.spans,
            counters: t.counters,
            events: t.events,
        };

        assert_eq!((wall, t.wall_nanos), (77, 77));
        assert_eq!(from_worker, reg, "{job}");
        assert_eq!(from_trace, from_worker, "{job}");
    }
    schematic_emu::trace::set_forced(was_forced);
    schematic_obs::set_enabled(was_obs);
}

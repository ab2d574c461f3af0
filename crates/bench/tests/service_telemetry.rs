//! Telemetry neutrality over the real quick grid: capturing per-job
//! worker registries (the `gridrun --jobs` telemetry path the `gridd`
//! service merges) must not change a single byte of the computed cells
//! or the rendered reports, and the captured registries must merge
//! deterministically regardless of arrival order — the contract that
//! lets the daemon fold worker telemetry from any dispatch interleaving.

use schematic_bench::experiments::render_all;
use schematic_bench::grid::{
    evaluate_traced, CellLine, CellStore, GridMode, GridSpec, WorkerTelemetry,
};
use schematic_energy::CostTable;
use schematic_obs::Registry;

#[test]
fn telemetry_capture_is_invisible_to_grid_output() {
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

    // Telemetry on: capture a registry per job exactly as `gridrun
    // --jobs` does (synthetic wall time keeps the artifact lines
    // deterministic for the blind-reader comparison below).
    schematic_obs::set_enabled(true);
    let mut on = CellStore::new();
    let mut on_lines = Vec::new();
    let mut telemetry = Vec::new();
    for job in spec.jobs() {
        let ((value, ims), mut registry) = schematic_obs::capture(|| evaluate_traced(job, &table));
        registry.record_span(&format!("job/{job}"), 1);
        let t = WorkerTelemetry {
            wall_nanos: 1,
            registry,
        };
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
        assert_eq!(rt.wall_nanos, t.wall_nanos);
        assert_eq!(rt.registry, t.registry);
    }

    // Every job captured real phase spans, and merging the fleet's
    // registries is order-independent: the aggregates (spans, counters,
    // histograms) are byte-identical however the lines arrive, and the
    // event log — inherently ordered — carries the same multiset.
    let mut forward = Registry::default();
    for t in &telemetry {
        forward.merge_from(t.registry.clone());
    }
    let mut reverse = Registry::default();
    for t in telemetry.iter().rev() {
        reverse.merge_from(t.registry.clone());
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

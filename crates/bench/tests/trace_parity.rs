//! Tracing must be observation-only: computing the quick grid with
//! full capture enabled (spans + counters + emulator lifecycle events,
//! fused dispatch disabled) must produce cell values whose rendered
//! reports are byte-identical to an untraced run, and the trace
//! artifact must roundtrip losslessly.
//!
//! Kept as a single test function: the obs/emu trace flags are
//! process-global, so splitting this into parallel tests would race
//! on them.

use schematic_bench::experiments::render_all;
use schematic_bench::grid::{CellStore, GridMode, GridSpec, Job};
use schematic_bench::trace;
use schematic_bench::ENERGY_TBPF;
use schematic_benchsuite::inputs::SplitMix64;

/// Decodes `text`, which must either parse or return an error that
/// names its line.
fn parses_or_names_line(text: &str, what: &str) {
    if let Err(e) = trace::from_jsonl(text) {
        let e = e.to_string();
        let numbered = e
            .strip_prefix("line ")
            .and_then(|rest| rest.split_once(": "))
            .is_some_and(|(n, _)| n.parse::<usize>().is_ok());
        assert!(numbered, "{what}: error without a line number: {e}");
    }
}

/// Truncates a real trace line at sampled byte offsets and applies 200
/// random single-byte mutations.
fn damaged_lines_fail_cleanly(line: &str) {
    let bytes = line.as_bytes();
    let mut rng = SplitMix64::new(0x70A_11E5);
    for _ in 0..200 {
        let cut = (rng.next_u64() % bytes.len() as u64) as usize;
        let text = String::from_utf8_lossy(&bytes[..cut]);
        parses_or_names_line(&text, &format!("cut at {cut}"));
    }
    for round in 0..200 {
        let mut damaged = bytes.to_vec();
        let at = (rng.next_u64() % damaged.len() as u64) as usize;
        damaged[at] = rng.next_u64() as u8;
        let text = String::from_utf8_lossy(&damaged);
        parses_or_names_line(&text, &format!("mutation {round} at byte {at}"));
    }
}

#[test]
fn traced_quick_grid_is_byte_identical_and_roundtrips() {
    let spec = GridSpec::full_grid(GridMode::Quick);

    let reference = CellStore::compute(spec.jobs());
    let expected = render_all(&reference, GridMode::Quick);

    let (store, traces) = trace::capture_grid(spec.jobs());
    let actual = render_all(&store, GridMode::Quick);
    assert_eq!(
        actual, expected,
        "tracing changed a rendered report — it must be observation-only"
    );

    // One trace per job, in job order, with real observations.
    assert_eq!(traces.len(), spec.jobs().len());
    for (job, t) in spec.jobs().iter().zip(&traces) {
        assert_eq!(&t.job, job);
    }
    let total_events: usize = traces.iter().map(|t| t.events.len()).sum();
    assert!(total_events > 0, "capture collected no events");
    assert!(
        traces.iter().any(|t| !t.phases.is_empty()),
        "capture collected no spans"
    );

    // The flagship cell's emulator stream made it through, and its
    // timeline reproduces the Fig. 6 split from the events alone.
    let crc = Job::run("Schematic", "crc", ENERGY_TBPF);
    let t = traces
        .iter()
        .find(|t| t.job == crc)
        .expect("crc cell traced");
    assert!(t.events.iter().any(|e| e.kind == "run_end"));
    let timeline = trace::render_timeline(t);
    assert!(timeline.contains("Fig. 6 split"));

    // Artifact codec is lossless over the real capture.
    let text = trace::to_jsonl(&traces);
    let back = trace::from_jsonl(&text).expect("artifact parses");
    assert_eq!(back, traces, "trace artifact roundtrip drift");

    // A damaged copy of the flagship cell's real line never panics the
    // reader: it either still parses or fails with a line-numbered error.
    damaged_lines_fail_cleanly(&trace::to_jsonl(std::slice::from_ref(t)));

    // Flags were restored: a fresh compute sees no tracing.
    assert!(!schematic_obs::enabled());
    assert!(!schematic_emu::trace::forced());
}

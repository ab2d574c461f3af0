//! Every capture keeps every event. `shadow/Rockclimb/aes/0`, one of
//! the full grid's largest cells, records 252,864 events, more than
//! 2^17; `capture_grid` must hold all of them, the artifact codec must
//! carry them whole, and the stream must end with the run's `run_end`.
//!
//! Kept as a single test function in its own binary: the obs/emu trace
//! flags `capture_grid` sets are process-global.

use schematic_bench::grid::Job;
use schematic_bench::trace;

#[test]
fn a_shadow_cell_keeps_every_event_through_the_artifact() {
    let job = Job::shadow("Rockclimb", "aes");
    let (_, traces) = trace::capture_grid(std::slice::from_ref(&job));
    let [t] = &traces[..] else {
        panic!("one trace per job, got {}", traces.len())
    };
    assert_eq!(t.job, job);
    assert!(t.events.len() > 1 << 17);
    assert_eq!(t.events.len(), 252_864, "{job}: every event kept");
    assert_eq!(t.events.last().map(|e| e.kind()), Some("run_end"));

    let back = trace::from_jsonl(&trace::to_jsonl(&traces)).expect("artifact parses");
    assert_eq!(back, traces, "{job}: artifact round trip");
}

//! The `trace-report` workload: capture, encode, parse and render a
//! grid trace — the steps of `gridrun --trace F` followed by
//! `tracereport F`.
//!
//! A pass captures the 40 technique × kernel `run` cells of Fig. 6
//! under one seed-derived stochastic supply with `trace::capture_grid`
//! (emulator tracing forces the Interp tier), writes the JSONL
//! artifact, reads it back with `trace::from_jsonl`, and renders it
//! with `render_trace_report`.

use crate::layers::Spans;
use crate::measure::{self, derive, Passes};
use crate::{Args, Env, Tally, WorkloadRun, SETUPS};
use schematic_bench::experiments::ROBUST_JITTER;
use schematic_bench::grid::{CellStore, Job};
use schematic_bench::trace::{self, CellTrace};
use schematic_bench::{technique_names, uj, Cell, Scenario, ENERGY_TBPF};
use std::path::PathBuf;
use std::time::Instant;

/// The traced slice: every technique × kernel `run` cell under one
/// stochastic supply.
pub fn jobs(seed: u64) -> Vec<Job> {
    let scenario = Scenario::Stochastic {
        mean_tbpf: ENERGY_TBPF,
        jitter: ROBUST_JITTER,
        seed: derive(seed, 20),
    };
    let mut jobs = Vec::new();
    for b in schematic_benchsuite::all() {
        for technique in technique_names() {
            jobs.push(Job::run_scenario(technique, b.name, scenario.clone()));
        }
    }
    jobs
}

/// What one round trip produced, beyond its timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTrip {
    /// Seconds of capture + encode + write + read + parse + render.
    pub wall: f64,
    /// Cells traced.
    pub cells: f64,
    /// Instructions retired by the cells' measured runs.
    pub insts: f64,
    /// Schematic's total energy over the eight kernels, µJ.
    pub energy_uj: f64,
    /// Cells that completed with the oracle's result.
    pub completed: f64,
}

/// One traced slice and the artifact file it round-trips through.
pub struct Slice {
    jobs: Vec<Job>,
    artifact: PathBuf,
    /// The cells of the set-up capture; every pass must reproduce them.
    reference: CellStore,
}

impl Slice {
    /// The workload for `seed`, with one untimed reference capture
    /// whose timelines' closing Fig. 6 lines are checked against the
    /// cells' metrics. The artifact lives in the work dir.
    pub fn new(seed: u64, env: &Env, tally: &mut Tally) -> Slice {
        let jobs = jobs(seed);
        let (reference, traces) = trace::capture_grid(&jobs);
        for (job, t) in jobs.iter().zip(&traces) {
            if let Some(ok) = fig6_line_matches(t, &reference, job) {
                tally.check(ok);
            }
        }
        Slice {
            jobs,
            artifact: env.work.join("trace.jsonl"),
            reference,
        }
    }

    /// One capture → encode → write → read → parse → render round
    /// trip; checks run after the clock stops.
    pub fn round_trip(
        &mut self,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Result<RoundTrip, String> {
        let secs = |t: Instant| t.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (store, traces) = spans.time("trace.capture_ms", || trace::capture_grid(&self.jobs));
        let t = Instant::now();
        let text = trace::to_jsonl(&traces);
        let encode = secs(t);
        std::fs::write(&self.artifact, &text)
            .map_err(|e| format!("write {}: {e}", self.artifact.display()))?;
        let back = std::fs::read_to_string(&self.artifact)
            .map_err(|e| format!("read {}: {e}", self.artifact.display()))?;
        let t = Instant::now();
        let parsed = trace::from_jsonl(&back).map_err(|e| e.to_string())?;
        let parse = secs(t);
        let focus = &self.jobs[self.jobs.len() - 1];
        let report = spans.time("trace.render_ms", || {
            trace::render_trace_report(&parsed, Some(focus), 10)
        });
        let wall = secs(t0);

        let mb = text.len() as f64 / 1e6;
        spans.record("trace.encode_ms", encode * 1e3);
        spans.record("trace.parse_ms", parse * 1e3);
        spans.rate("json.encode_mb_per_s", mb, encode);
        spans.rate("json.parse_mb_per_s", mb, parse);
        spans.record("trace.mb", mb);
        let events: usize = parsed.iter().map(|t| t.events.len()).sum();
        spans.record("trace.events", events as f64);

        tally.check(
            parsed == traces && store == self.reference && report.contains("Observability report"),
        );
        let mut r = RoundTrip {
            wall,
            cells: self.jobs.len() as f64,
            ..RoundTrip::default()
        };
        for job in &self.jobs {
            let cell =
                store.run_cell_scenario(&job.technique, &job.benchmark, job.scenario.clone());
            let Some(o) = &cell.outcome else { continue };
            tally.check(o.status != schematic_emu::RunStatus::Completed || o.correct);
            r.insts += o.metrics.insts_retired as f64;
            if cell.ok() {
                r.completed += 1.0;
            }
            if job.technique == "Schematic" {
                r.energy_uj += o.metrics.total_energy().as_uj();
            }
        }
        Ok(r)
    }
}

/// A `run` cell with the transient `peak_vm_bytes` gauge cleared: the
/// one metric the fast tiers may report differently from Interp.
fn tier_neutral(store: &CellStore, job: &Job) -> Cell {
    let mut cell = store.run_cell_scenario(&job.technique, &job.benchmark, job.scenario.clone());
    if let Some(o) = &mut cell.outcome {
        o.metrics.peak_vm_bytes = 0;
    }
    cell
}

/// Whether the timeline's closing "Fig. 6 split" line, computed from
/// the event stream alone, equals the cell's metrics; `None` for a
/// cell that never ran.
fn fig6_line_matches(t: &CellTrace, store: &CellStore, job: &Job) -> Option<bool> {
    let cell = store.run_cell_scenario(&job.technique, &job.benchmark, job.scenario.clone());
    let m = &cell.outcome?.metrics;
    let want = format!(
        "Fig. 6 split: computation {} uJ | save {} uJ | restore {} uJ | re-execution {} uJ",
        uj(m.computation),
        uj(m.save),
        uj(m.restore),
        uj(m.reexecution)
    );
    let timeline = trace::render_timeline(t);
    let got = timeline
        .lines()
        .rev()
        .find(|l| l.starts_with("Fig. 6 split:"));
    Some(got == Some(want.as_str()))
}

/// Runs the workload.
///
/// # Errors
///
/// An artifact that could not be written, read or parsed.
pub fn run(
    args: &Args,
    env: &Env,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<WorkloadRun, String> {
    // Set-up is the slice plus its reference capture; repeated for a
    // stable median.
    let mut setups = Vec::new();
    let mut slice = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        slice = Some(Slice::new(args.seed, env, tally));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut slice = slice.expect("at least one set-up");
    // Tracing forces the Interp tier; the same cells evaluated untraced
    // at the default tier must agree.
    let fast = CellStore::compute(&slice.jobs);
    for job in &slice.jobs {
        tally.check(tier_neutral(&fast, job) == tier_neutral(&slice.reference, job));
    }
    let mut last = RoundTrip::default();
    let passes: Passes = measure::run_passes(args.seconds, args.trace, spans, |spans| {
        last = slice.round_trip(spans, tally)?;
        Ok(last.wall)
    })?;
    Ok(WorkloadRun {
        setups,
        passes,
        cells_per_pass: last.cells,
        insts_per_pass: last.insts,
        energy_uj: last.energy_uj,
        completed: last.completed,
        peak_rss_mb: measure::self_peak_rss_mb(),
    })
}

/// The trace, codec and render layers, measured over one round trip
/// for a traced run of another workload.
///
/// # Errors
///
/// As [`run`].
pub fn probe(seed: u64, env: &Env, spans: &mut Spans, tally: &mut Tally) -> Result<(), String> {
    Slice::new(seed, env, tally)
        .round_trip(spans, tally)
        .map(|_| ())
}

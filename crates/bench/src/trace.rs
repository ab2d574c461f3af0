//! Grid tracing: per-cell observation capture, the trace artifact
//! codec, and the `tracereport` renderers.
//!
//! [`capture_grid`] evaluates a job list like
//! [`CellStore::compute`](crate::grid::CellStore::compute) while
//! collecting, per cell, the compiler/driver phase timings
//! ([`schematic_obs`] spans), decision counters, and the emulator's
//! lifecycle event stream ([`schematic_emu::trace`]). Because every
//! job runs wholly on one worker thread and its observations are
//! scoped with [`schematic_obs::capture`], the per-cell traces are
//! identical regardless of worker count or scheduling — and the cell
//! *values* are bit-identical to an untraced run (tracing only turns
//! off the emulator's fused dispatch, which is metrics-neutral by
//! construction).
//!
//! Traces serialize through the same offline JSON dialect as the cell
//! artifacts ([`schematic_obs::json`]): one JSON object per cell per
//! line, written and read directly through the dialect's writer and
//! pull [`Reader`], with no `Json` tree in between.
//! `gridrun --trace F` writes the artifact; the `tracereport` binary
//! renders it — a phase-time table across the grid, the top-K hottest
//! cells, and a per-run epoch timeline whose final row reproduces the
//! cell's Fig. 6 energy split exactly from the event stream alone.
//!
//! Every event a cell records is kept: a trace holds the cell's whole
//! stream, however long the run, and its artifact line carries all of
//! it. The largest cells of the full grid (shadow runs of aes and
//! bitcount) record 170k–253k events each.

use crate::grid::{evaluate, read_job, write_job, CellStore, GridError, Job};
use crate::parallel::{self, par_map, par_map_largest_first};
use crate::{render_table, uj, write_uj, Table};
use schematic_emu::trace::{EVENT_KINDS, SNAPSHOT_KEYS};
use schematic_energy::{CostTable, Energy};
use schematic_obs as obs;
use schematic_obs::codec::{write_members, Members};
use schematic_obs::json::{write_u64, Count, JsonError, Reader, Sink, SliceSink};
use schematic_obs::PhaseStats;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Everything one traced cell recorded: its captured registry, with
/// the cell's key and wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrace {
    /// The cell's grid key.
    pub job: Job,
    /// Wall-clock nanoseconds of the whole cell evaluation.
    pub wall_nanos: u64,
    /// Phase timings by span name (inclusive; spans may nest).
    pub spans: BTreeMap<String, PhaseStats>,
    /// Decision counters (e.g. `alloc/picks`) by name.
    pub counters: BTreeMap<String, u64>,
    /// Structured events in emission order (compiler decision log +
    /// emulator lifecycle stream), every one kept.
    pub events: obs::EventLog,
}

impl CellTrace {
    /// The trace of `job` from the registry its evaluation recorded.
    fn from_registry(job: Job, wall_nanos: u64, reg: obs::Registry) -> CellTrace {
        CellTrace {
            job,
            wall_nanos,
            spans: reg.spans,
            counters: reg.counters,
            events: exact(reg.events),
        }
    }
}

/// `log` holding exactly its events: the growth slack goes, so a trace
/// held for encoding costs what it stores.
fn exact(mut log: obs::EventLog) -> obs::EventLog {
    log.shrink_to_fit();
    log
}

/// Captures one cell's evaluation.
fn capture_cell<T>(job: &Job, f: impl FnOnce() -> T) -> (T, CellTrace) {
    let start = Instant::now();
    let (value, reg) = obs::capture(f);
    let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (value, CellTrace::from_registry(job.clone(), wall, reg))
}

/// Evaluates `jobs` with observation capture enabled: the cell store
/// (bit-identical to [`CellStore::compute`]) plus one [`CellTrace`]
/// per job, in job order, each holding the cell's whole event stream.
///
/// Enables the [`schematic_obs`] collector and forces emulator
/// lifecycle tracing ([`schematic_emu::trace::set_forced`]) for the
/// duration of the call, restoring both flags afterwards.
pub fn capture_grid(jobs: &[Job]) -> (CellStore, Vec<CellTrace>) {
    let prev_obs = obs::enabled();
    let prev_forced = schematic_emu::trace::forced();
    obs::set_enabled(true);
    schematic_emu::trace::set_forced(true);
    let table = CostTable::msp430fr5969();
    let results = par_map(jobs, |job| capture_cell(job, || evaluate(job, &table)));
    schematic_emu::trace::set_forced(prev_forced);
    obs::set_enabled(prev_obs);
    let mut store = CellStore::new();
    let mut traces = Vec::with_capacity(jobs.len());
    for (job, (value, trace)) in jobs.iter().zip(results) {
        store
            .insert(job.clone(), value)
            .expect("computed cells are deterministic");
        traces.push(trace);
    }
    (store, traces)
}

// ---------------------------------------------------------------------
// Artifact codec
// ---------------------------------------------------------------------
//
// Lines are written and read directly, with no `Json` tree in between:
// `write_*` append to a `Sink` through the dialect's writer, and
// `read_*` pull from its `Reader` (both `schematic_obs::json`). A trace
// line is
//
//   {"job":{"kind","technique","benchmark","tbpf"|"scenario"} (the cell
//    line's job members, `grid::write_job`),
//    "wall_nanos":N,"spans":[…],"counters":[…],"events":[…]}
//
// where the last three are the registry members every registry on the
// wire carries (`schematic_obs::codec`); events are read straight into
// the trace's `EventLog`. Readers take keys in any order and skip
// unknown ones, so lines that still carry the drop and spill tallies of
// the former event ring load. A `{"spill":…}` chunk line of the former
// streaming capture is refused, since its cell's events would be
// incomplete without it, and so is a line of the former `phases` form,
// whose spans held no histograms.
//
// Every line is encoded and decoded on its own, with no state shared
// between lines, so `to_jsonl` and `from_jsonl` fan the lines out over
// `parallel` workers and put the results back in file order: the bytes
// and the decoded values do not depend on the worker count.

/// Appends one trace as an artifact line, newline included.
fn write_trace_line<S: Sink + ?Sized>(out: &mut S, t: &CellTrace) {
    // The job object holds the cell line's job members.
    out.push_str("{\"job\":{");
    write_job(out, &t.job);
    out.push_str("},\"wall_nanos\":");
    write_u64(out, t.wall_nanos);
    out.push_str(",");
    write_members(out, &t.spans, &t.counters, &t.events);
    out.push_str("}\n");
}

/// Decodes one trace line.
fn read_line(text: &str) -> Result<CellTrace, JsonError> {
    let mut r = Reader::new(text);
    let mut job = None;
    let mut wall_nanos = None;
    let mut members = Members::default();
    r.object(|r, key| {
        if members.read(r, &key)? {
            return Ok(());
        }
        match &*key {
            "spill" => return Err(r.err("spill chunk lines are not read (re-capture the grid)")),
            "phases" => return Err(r.err("phases lines are not read (re-capture the grid)")),
            "job" => job = Some(read_job(r)?),
            "wall_nanos" => wall_nanos = Some(r.u64()?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    r.finish()?;
    let job = r.need(job, "job")?;
    let wall_nanos = r.need(wall_nanos, "wall_nanos")?;
    let reg = r.need(members.finish(&r)?, "spans")?;
    Ok(CellTrace::from_registry(job, wall_nanos, reg))
}

/// Serializes traces, one JSON object per line, in the given order.
///
/// Every line is sized first, by running its writer into a [`Count`],
/// so the text is allocated once at its exact length. The parallel
/// workers then encode the lines straight into their own slices of it,
/// longest event stream first.
pub fn to_jsonl(traces: &[CellTrace]) -> String {
    let sizes = par_map(traces, |t| {
        let mut n = Count::default();
        write_trace_line(&mut n, t);
        n.0
    });
    let mut bytes = vec![0u8; sizes.iter().sum()];
    let mut rest = bytes.as_mut_slice();
    let mut lines = Vec::with_capacity(traces.len());
    for (t, &size) in traces.iter().zip(&sizes) {
        let (line, tail) = std::mem::take(&mut rest).split_at_mut(size);
        lines.push((t, Mutex::new(line)));
        rest = tail;
    }
    par_map_largest_first(
        &lines,
        parallel::jobs(),
        |(t, _)| t.events.len(),
        |(t, line)| {
            let mut line = line.lock().expect("one worker per line");
            let mut out = SliceSink::new(&mut line);
            write_trace_line(&mut out, t);
            out.finish();
        },
    );
    drop(lines);
    String::from_utf8(bytes).expect("the writers emit UTF-8")
}

/// Parses a trace artifact produced by [`to_jsonl`] (blank lines
/// tolerated).
///
/// # Errors
///
/// A [`GridError`] naming the first offending line.
pub fn from_jsonl(text: &str) -> Result<Vec<CellTrace>, GridError> {
    decode_artifact(text, parallel::jobs())
}

/// [`from_jsonl`] with an explicit worker count. Every non-blank line
/// is decoded on `workers` threads, longest first; the results are then
/// walked in file order, so the first failing line names the error
/// whatever the count.
fn decode_artifact(text: &str, workers: usize) -> Result<Vec<CellTrace>, GridError> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .collect();
    let decoded = par_map_largest_first(
        &lines,
        workers,
        |(_, line)| line.len(),
        |(_, line)| read_line(line),
    );
    lines
        .iter()
        .zip(decoded)
        .map(|((lineno, _), trace)| {
            trace.map_err(|e| GridError(format!("line {}: {e}", lineno + 1)))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

fn ms(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1e6)
}

fn us_per_call(total_nanos: u64, calls: u64) -> String {
    if calls == 0 {
        return "-".into();
    }
    format!("{:.2}", total_nanos as f64 / calls as f64 / 1e3)
}

/// Renders the phase-time table aggregated across all traces: calls,
/// total milliseconds, mean microseconds per call, and each phase's
/// share of the summed span time. Spans nest (the RCG span runs inside
/// the analyze span), so shares are of inclusive time and need not add
/// up to 100.
pub fn render_phase_table(traces: &[CellTrace]) -> String {
    let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for t in traces {
        for (name, s) in &t.spans {
            let e = agg.entry(name).or_default();
            e.0 += s.calls;
            e.1 += s.total_nanos;
        }
    }
    if agg.is_empty() {
        return "no spans recorded\n".to_string();
    }
    let grand: u64 = agg.values().map(|(_, total)| *total).sum();
    let mut order: Vec<(&str, u64, u64)> = agg
        .into_iter()
        .map(|(name, (calls, total))| (name, calls, total))
        .collect();
    order.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let headers = vec![
        "phase".to_string(),
        "calls".to_string(),
        "total ms".to_string(),
        "us/call".to_string(),
        "share %".to_string(),
    ];
    let rows: Vec<Vec<String>> = order
        .iter()
        .map(|&(name, calls, total)| {
            vec![
                name.to_string(),
                calls.to_string(),
                ms(total),
                us_per_call(total, calls),
                format!("{:.1}", total as f64 * 100.0 / grand as f64),
            ]
        })
        .collect();
    render_table(&headers, &rows)
}

/// Renders the `k` cells with the largest wall-clock time, with each
/// cell's dominant phase.
pub fn render_hot_cells(traces: &[CellTrace], k: usize) -> String {
    let mut order: Vec<&CellTrace> = traces.iter().collect();
    order.sort_by(|a, b| b.wall_nanos.cmp(&a.wall_nanos).then(a.job.cmp(&b.job)));
    let headers = vec![
        "cell".to_string(),
        "wall ms".to_string(),
        "dominant phase".to_string(),
    ];
    let rows: Vec<Vec<String>> = order
        .iter()
        .take(k)
        .map(|t| {
            let dominant = t
                .spans
                .iter()
                .max_by_key(|(_, s)| s.total_nanos)
                .map(|(name, s)| format!("{name} ({} ms)", ms(s.total_nanos)))
                .unwrap_or_else(|| "-".to_string());
            vec![t.job.to_string(), ms(t.wall_nanos), dominant]
        })
        .collect();
    render_table(&headers, &rows)
}

/// Writes the event's non-snapshot fields into `out` as space-separated
/// `key=value` words and returns its cumulative snapshot (the first
/// occurrence of each [`SNAPSHOT_KEYS`] field; 0 when absent or not an
/// integer), in one pass over the fields.
fn write_detail(out: &mut String, ev: obs::Event) -> [u64; 5] {
    let mut snap = [0u64; 5];
    let mut seen = [false; 5];
    let mut first = true;
    for (key, value) in ev.fields() {
        if let Some(i) = SNAPSHOT_KEYS.iter().position(|k| *k == key) {
            if !seen[i] {
                seen[i] = true;
                if let obs::ValueRef::U64(n) = value {
                    snap[i] = n;
                }
            }
            continue;
        }
        if !first {
            out.push(' ');
        }
        first = false;
        out.push_str(key);
        out.push('=');
        match value {
            obs::ValueRef::U64(n) => write_u64(out, n),
            obs::ValueRef::Str(s) => out.push_str(s),
        }
    }
    snap
}

/// Renders the epoch timeline of one traced cell: every lifecycle
/// event of the cell's *last* emulator run (the measured one, should
/// a cell run the emulator more than once; profiling runs inside
/// compilation are never traced), with the Fig. 6 energy delta each
/// inter-checkpoint segment consumed. The closing `run_end` row's
/// cumulative split equals the run's metrics exactly, so the final
/// "Fig. 6 split" line reproduces the cell's energy breakdown from
/// the event stream alone.
pub fn render_timeline(trace: &CellTrace) -> String {
    let log = &trace.events;
    let mut out = format!("Timeline for {}\n", trace.job);
    let is_start = |e: &obs::Event| e.kind() == "run_start";
    let last_start = log.iter().rposition(|e| is_start(&e)).unwrap_or(0);
    let segment = log
        .range(last_start..log.len())
        .filter(|e| EVENT_KINDS.contains(&e.kind()));
    let shown = segment.clone().count();
    if shown == 0 {
        out.push_str("no emulator events recorded\n");
        return out;
    }
    let runs = log.iter().filter(is_start).count();
    out.push_str(&format!(
        "{} emulator run(s) in this cell; showing the last ({shown} events)\n",
        runs.max(1),
    ));
    let mut table = Table::new(&[
        "event",
        "detail",
        "d-comp uJ",
        "d-save uJ",
        "d-restore uJ",
        "d-reexec uJ",
        "cycles",
    ]);
    let mut prev = [0u64; 5];
    let mut last_kind = "";
    for ev in segment {
        let mut snap = [0; 5];
        last_kind = ev.kind();
        table.cell(last_kind);
        table.cell_with(|t| snap = write_detail(t, ev));
        for (now, before) in snap.iter().zip(prev).take(4) {
            table.cell_with(|t| write_uj(t, Energy::from_pj(now.saturating_sub(before))));
        }
        table.cell_with(|t| write_u64(t, snap[4]));
        prev = snap;
    }
    table.render_into(&mut out);
    if last_kind == "run_end" {
        // `prev` is the closing event's snapshot.
        out.push_str(&format!(
            "Fig. 6 split: computation {} uJ | save {} uJ | restore {} uJ | re-execution {} uJ\n",
            uj(Energy::from_pj(prev[0])),
            uj(Energy::from_pj(prev[1])),
            uj(Energy::from_pj(prev[2])),
            uj(Energy::from_pj(prev[3])),
        ));
    } else {
        out.push_str("run did not reach run_end\n");
    }
    out
}

/// Renders the full observability report: the grid-wide phase table,
/// the `top_k` hottest cells, and — when `cell` names a traced job —
/// that cell's epoch timeline.
pub fn render_trace_report(traces: &[CellTrace], cell: Option<&Job>, top_k: usize) -> String {
    let total_events: usize = traces.iter().map(|t| t.events.len()).sum();
    let mut out = format!(
        "Observability report: {} cells, {} events\n",
        traces.len(),
        total_events
    );
    out.push_str("\n== Phase times across the grid ==\n");
    out.push_str(&render_phase_table(traces));
    out.push_str("\n== Hottest cells ==\n");
    out.push_str(&render_hot_cells(traces, top_k));
    if let Some(job) = cell {
        out.push('\n');
        match traces.iter().find(|t| t.job == *job) {
            Some(t) => out.push_str(&render_timeline(t)),
            None => out.push_str(&format!("no trace recorded for cell {job}\n")),
        }
    }
    out
}

/// The least wall-time growth, in nanoseconds, that can flag a cell in
/// [`render_trace_diff`]: sub-millisecond cells jitter by tens of
/// percent between runs of identical code.
pub const DIFF_FLOOR_NANOS: u64 = 100_000;

/// Compares two trace artifacts phase-by-phase and cell-by-cell:
/// `tracereport --diff BASELINE CANDIDATE`. Wall-clock times are
/// compared per cell (matched by grid key) and per aggregated phase;
/// a cell whose wall time grew by more than `threshold` (a fraction,
/// e.g. `0.25` for +25 %) *and* by at least [`DIFF_FLOOR_NANOS`] is
/// *flagged* as regressed. Returns the rendered report and whether any
/// cell was flagged, so the binary can exit nonzero for CI gating.
///
/// Timings are wall-clock and host-sensitive — the threshold and the
/// floor exist precisely so jitter does not flag; compare artifacts
/// captured on the same host, and treat single-cell flags as a prompt
/// to re-run, not a verdict.
pub fn render_trace_diff(
    baseline: &[CellTrace],
    candidate: &[CellTrace],
    threshold: f64,
) -> (String, bool) {
    let mut out = format!(
        "Trace diff: {} baseline cell(s) vs {} candidate cell(s), flagging > +{:.0} % and >= +{} ms\n",
        baseline.len(),
        candidate.len(),
        threshold * 100.0,
        ms(DIFF_FLOOR_NANOS)
    );

    // Phase-by-phase: aggregate each side like the phase table does.
    let agg = |traces: &[CellTrace]| {
        let mut m: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for t in traces {
            for (name, s) in &t.spans {
                let e = m.entry(name.clone()).or_default();
                e.0 += s.calls;
                e.1 += s.total_nanos;
            }
        }
        m
    };
    let (a, b) = (agg(baseline), agg(candidate));
    let names: Vec<&String> = a
        .keys()
        .chain(b.keys().filter(|k| !a.contains_key(*k)))
        .collect();
    let delta_pct = |old: u64, new: u64| -> String {
        if old == 0 {
            return if new == 0 { "-".into() } else { "new".into() };
        }
        format!("{:+.1}", (new as f64 - old as f64) * 100.0 / old as f64)
    };
    out.push_str("\n== Phase times (aggregated) ==\n");
    let headers = vec![
        "phase".to_string(),
        "base ms".to_string(),
        "cand ms".to_string(),
        "delta %".to_string(),
        "base calls".to_string(),
        "cand calls".to_string(),
    ];
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|name| {
            let (ac, at) = a.get(*name).copied().unwrap_or((0, 0));
            let (bc, bt) = b.get(*name).copied().unwrap_or((0, 0));
            vec![
                (*name).clone(),
                ms(at),
                ms(bt),
                delta_pct(at, bt),
                ac.to_string(),
                bc.to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(&headers, &rows));

    // Cell-by-cell wall clock, flagging regressions past the threshold.
    let index: BTreeMap<&Job, &CellTrace> = baseline.iter().map(|t| (&t.job, t)).collect();
    let mut regressed: Vec<(String, u64, u64, f64)> = Vec::new();
    let mut only_candidate = 0usize;
    for t in candidate {
        match index.get(&t.job) {
            Some(base) => {
                let grew = t.wall_nanos as f64 - base.wall_nanos as f64;
                let frac = if base.wall_nanos == 0 {
                    f64::INFINITY
                } else {
                    grew / base.wall_nanos as f64
                };
                if frac > threshold && grew >= DIFF_FLOOR_NANOS as f64 {
                    regressed.push((t.job.to_string(), base.wall_nanos, t.wall_nanos, frac));
                }
            }
            None => only_candidate += 1,
        }
    }
    let candidate_keys: std::collections::BTreeSet<&Job> =
        candidate.iter().map(|t| &t.job).collect();
    let only_baseline = baseline
        .iter()
        .filter(|t| !candidate_keys.contains(&t.job))
        .count();
    regressed.sort_by(|x, y| y.3.total_cmp(&x.3).then(x.0.cmp(&y.0)));
    out.push_str("\n== Regressed cells ==\n");
    if regressed.is_empty() {
        out.push_str(&format!(
            "none (no common cell grew by more than +{:.0} % and {} ms)\n",
            threshold * 100.0,
            ms(DIFF_FLOOR_NANOS)
        ));
    } else {
        let headers = vec![
            "cell".to_string(),
            "base ms".to_string(),
            "cand ms".to_string(),
            "delta %".to_string(),
        ];
        let rows: Vec<Vec<String>> = regressed
            .iter()
            .map(|(key, base, cand, frac)| {
                vec![
                    key.clone(),
                    ms(*base),
                    ms(*cand),
                    format!("{:+.1}", frac * 100.0),
                ]
            })
            .collect();
        out.push_str(&render_table(&headers, &rows));
    }
    if only_baseline > 0 || only_candidate > 0 {
        out.push_str(&format!(
            "(cells without a counterpart: {only_baseline} baseline-only, \
             {only_candidate} candidate-only)\n"
        ));
    }
    let flagged = !regressed.is_empty();
    out.push_str(&format!(
        "verdict: {}\n",
        if flagged {
            "REGRESSED — at least one cell exceeded the threshold"
        } else {
            "OK — no cell exceeded the threshold"
        }
    ));
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tracereport --cell` takes a key in the [`Job`] display form.
    #[test]
    fn job_key_roundtrips_display_form() {
        let job = Job::run("Schematic", "crc", 10_000);
        assert_eq!(Job::parse(&job.to_string()), Ok(job));
        assert!(Job::parse("run/Schematic/crc").is_err());
        assert!(Job::parse("nope/Schematic/crc/0").is_err());
        assert!(Job::parse("run/Schematic/crc/zero").is_err());
    }

    const GOLDEN_ARTIFACT: &str = include_str!("../../../tests/goldens/trace_artifact.jsonl");
    const GOLDEN_REPORT: &str = include_str!("../../../tests/goldens/trace_report.txt");

    /// The golden artifact pins the wire format: a periodic and a
    /// stochastic cell, fixed wall times and every escape class.
    /// Decoding it and writing it back through `to_jsonl` reproduces it
    /// byte for byte, and it renders the golden report.
    #[test]
    fn golden_artifact_roundtrips_byte_for_byte() {
        let traces = from_jsonl(GOLDEN_ARTIFACT).unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(to_jsonl(&traces), GOLDEN_ARTIFACT);

        let cell = Job::run("Schematic", "crc", 10_000);
        assert_eq!(render_trace_report(&traces, Some(&cell), 5), GOLDEN_REPORT);
    }

    /// A line that still carries the former event ring's tallies
    /// loads: unknown members are skipped.
    #[test]
    fn a_line_with_the_former_ring_tallies_still_loads() {
        let line = GOLDEN_ARTIFACT.lines().last().unwrap();
        let old = format!(
            "{},\"dropped_events\":1,\"spilled_events\":0}}",
            line.strip_suffix('}').unwrap()
        );
        assert_eq!(from_jsonl(&old).unwrap(), from_jsonl(line).unwrap());
    }

    /// A spill chunk line of the former streaming capture held the
    /// front of a cell's stream; the reader refuses it by line number
    /// rather than load a cell without it.
    #[test]
    fn a_spill_chunk_line_is_refused_with_its_line_number() {
        let spill = "{\"spill\":{\"job\":\"bare/-/crc/0\",\"seq\":0,\"events\":[]}}";
        let text = format!("{GOLDEN_ARTIFACT}\n{spill}\n");
        let e = from_jsonl(&text).unwrap_err().to_string();
        assert!(
            e.starts_with("line 4: spill chunk lines are not read"),
            "got: {e}"
        );
    }

    /// A line of the former form carried `phases` (call counts and two
    /// quantiles, no histograms) where spans now are; the reader refuses
    /// it by line number rather than load a cell without its spans.
    #[test]
    fn a_phases_line_is_refused_with_its_line_number() {
        let old = "{\"job\":{\"kind\":\"bare\",\"technique\":\"-\",\"benchmark\":\"crc\",\"tbpf\":0},\
                   \"wall_nanos\":5,\"phases\":[{\"name\":\"cell/emulate\",\"calls\":1,\
                   \"total_nanos\":4,\"p50_nanos\":4,\"p95_nanos\":4}],\"counters\":[],\"events\":[]}";
        let text = format!("{GOLDEN_ARTIFACT}{old}\n");
        let e = from_jsonl(&text).unwrap_err().to_string();
        assert!(
            e.starts_with("line 3: phases lines are not read"),
            "got: {e}"
        );
    }

    #[test]
    fn errors_name_the_line_and_the_missing_field() {
        let line = GOLDEN_ARTIFACT.lines().last().unwrap();
        let text = format!("\n{}\n", line.replace("\"wall_nanos\"", "\"wall\""));
        let e = from_jsonl(&text).unwrap_err().to_string();
        assert!(
            e.starts_with("line 2: missing field 'wall_nanos'"),
            "got: {e}"
        );
    }

    #[test]
    fn the_first_damaged_line_names_the_error_at_every_worker_count() {
        let names = [
            "aes", "crc", "fft", "rc4", "bitcount", "dijkstra", "randmath", "sha",
        ];
        let traces: Vec<CellTrace> = names.iter().map(|n| cell(n, 1_000, 900)).collect();
        let text = to_jsonl(&traces);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Line 3 loses a field; line 7, whose error differs, is cut.
        lines[2] = lines[2].replace("\"wall_nanos\"", "\"wall\"");
        let half = lines[6].len() / 2;
        lines[6].truncate(half);
        let damaged = lines.join("\n");
        let errors: Vec<String> = [1, 4]
            .into_iter()
            .map(|workers| decode_artifact(&damaged, workers).unwrap_err().to_string())
            .collect();
        assert!(
            errors[0].starts_with("line 3: missing field 'wall_nanos'"),
            "got: {}",
            errors[0]
        );
        assert_eq!(errors[0], errors[1]);
        // Undamaged, both counts decode the same traces.
        for workers in [1, 4] {
            assert_eq!(decode_artifact(&text, workers).unwrap(), traces);
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(from_jsonl(&deep).is_err());
        // Under an unknown key, which the decoder skips unread.
        let e = from_jsonl(&format!("{{\"extra\":{deep}"))
            .unwrap_err()
            .to_string();
        assert!(e.contains("nesting"), "got: {e}");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = CellTrace::from_registry(Job::bare("crc"), 42, obs::Registry::default());
        let text = to_jsonl(std::slice::from_ref(&t));
        assert_eq!(from_jsonl(&text).unwrap(), vec![t]);
    }

    #[test]
    fn renderers_tolerate_empty_input() {
        assert!(render_phase_table(&[]).contains("no spans"));
        let t = CellTrace::from_registry(Job::bare("crc"), 1, obs::Registry::default());
        assert!(render_timeline(&t).contains("no emulator events"));
        let report = render_trace_report(&[t], Some(&Job::bare("fft")), 3);
        assert!(report.contains("no trace recorded for cell bare/-/fft/0"));
    }

    fn cell(name: &str, wall: u64, phase_nanos: u64) -> CellTrace {
        let mut reg = obs::Registry::default();
        reg.record_span("cell/emulate", phase_nanos);
        CellTrace::from_registry(Job::bare(name), wall, reg)
    }

    #[test]
    fn diff_flags_only_cells_past_the_threshold() {
        let base = vec![
            cell("crc", 1_000_000, 900_000),
            cell("fft", 1_000_000, 900_000),
        ];
        // crc +50 % (flagged at a 25 % threshold), fft +10 % (not).
        let cand = vec![
            cell("crc", 1_500_000, 1_400_000),
            cell("fft", 1_100_000, 990_000),
        ];
        let (report, flagged) = render_trace_diff(&base, &cand, 0.25);
        assert!(flagged);
        assert!(report.contains("bare/-/crc/0"));
        assert!(!report.contains("bare/-/fft/0"));
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("cell/emulate"));

        let (report, flagged) = render_trace_diff(&base, &cand, 0.60);
        assert!(!flagged);
        assert!(report.contains("OK — no cell exceeded the threshold"));
    }

    #[test]
    fn diff_tolerates_one_sided_cells_and_empty_artifacts() {
        let base = vec![cell("crc", 100, 90), cell("dijkstra", 100, 90)];
        let cand = vec![cell("crc", 100, 90), cell("fft", 100, 90)];
        let (report, flagged) = render_trace_diff(&base, &cand, 0.25);
        assert!(!flagged);
        assert!(report.contains("1 baseline-only, 1 candidate-only"));

        // Wholly new cells (zero-wall baseline is impossible for a real
        // capture, but the renderer must not divide by zero).
        let (report, flagged) = render_trace_diff(&[], &cand, 0.25);
        assert!(!flagged);
        assert!(report.contains("0 baseline cell(s) vs 2 candidate cell(s)"));
        let (_, flagged) = render_trace_diff(
            &[cell("crc", 0, 0)],
            &[cell("crc", DIFF_FLOOR_NANOS, 1)],
            0.25,
        );
        assert!(
            flagged,
            "growth from a zero-wall baseline counts as regressed"
        );
    }

    #[test]
    fn diff_ignores_growth_below_the_floor() {
        // Jitter on a sub-millisecond cell: +24 %, but only 5 us.
        let base = vec![cell("aes", 21_000, 20_000)];
        let cand = vec![cell("aes", 26_000, 25_000)];
        let (report, flagged) = render_trace_diff(&base, &cand, 0.10);
        assert!(!flagged, "{report}");
        assert!(report.contains("OK — no cell exceeded the threshold"));
        assert!(report.contains("flagging > +10 % and >= +0.100 ms"));

        // The same growth ratio past the floor flags.
        let base = vec![cell("aes", 21_000_000, 20_000_000)];
        let cand = vec![cell("aes", 26_000_000, 25_000_000)];
        assert!(render_trace_diff(&base, &cand, 0.10).1);
        // Growth of exactly the floor counts.
        let (_, flagged) = render_trace_diff(
            &[cell("aes", DIFF_FLOOR_NANOS, 1)],
            &[cell("aes", 2 * DIFF_FLOOR_NANOS, 1)],
            0.25,
        );
        assert!(flagged);
    }
}

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
//! Event streams used to be hard-capped at [`obs::MAX_EVENTS`] per
//! cell (ring semantics: oldest dropped). [`capture_grid_streaming`]
//! lifts the cap by spilling: when a cell's resident buffer fills, the
//! oldest half is written to the artifact *immediately* as a
//! `{"spill":{job,seq,events}}` chunk line, and [`from_jsonl`]
//! reassembles chunks (by per-cell sequence number) back in front of
//! the cell's resident tail — so `tracereport` sees the complete,
//! ordered stream no matter how long the run was, while peak memory
//! stays bounded at the cap.

use crate::grid::{evaluate, read_job, write_job, CellStore, GridError, Job};
use crate::parallel::par_map;
use crate::{render_table, uj};
use schematic_emu::trace::SNAPSHOT_KEYS;
use schematic_energy::{CostTable, Energy};
use schematic_obs as obs;
use schematic_obs::codec::{read_fields, write_fields};
use schematic_obs::json::{write_str, write_u64, JsonError, Reader};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Aggregated timings of one span name within one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseLine {
    /// Span name (e.g. `"cell/emulate"` or `"analyze/rcg"`).
    pub name: String,
    /// Completed spans under this name.
    pub calls: u64,
    /// Total wall-clock nanoseconds (inclusive; spans may nest).
    pub total_nanos: u64,
    /// Median per-call nanoseconds.
    pub p50_nanos: u64,
    /// 95th-percentile per-call nanoseconds.
    pub p95_nanos: u64,
}

/// Everything one traced cell recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrace {
    /// The cell's grid key.
    pub job: Job,
    /// Wall-clock nanoseconds of the whole cell evaluation.
    pub wall_nanos: u64,
    /// Per-phase timings, sorted by span name.
    pub phases: Vec<PhaseLine>,
    /// Decision counters (e.g. `alloc/picks`), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Structured events in emission order (compiler decision log +
    /// emulator lifecycle stream), capped at [`obs::MAX_EVENTS`].
    pub events: Vec<obs::Event>,
    /// Events discarded past the cap.
    pub dropped_events: u64,
    /// Events streamed to the artifact as spill chunks instead of
    /// dropped (streaming captures only; [`from_jsonl`] reassembles
    /// them back into [`CellTrace::events`]).
    pub spilled_events: u64,
}

impl CellTrace {
    fn from_registry(job: Job, wall_nanos: u64, reg: obs::Registry) -> CellTrace {
        let phases = reg
            .spans
            .iter()
            .map(|(name, s)| PhaseLine {
                name: name.clone(),
                calls: s.calls,
                total_nanos: s.total_nanos,
                p50_nanos: s.hist.quantile(50, 100),
                p95_nanos: s.hist.quantile(95, 100),
            })
            .collect();
        CellTrace {
            job,
            wall_nanos,
            phases,
            counters: reg.counters.into_iter().collect(),
            events: reg.events.into(),
            dropped_events: reg.dropped_events,
            spilled_events: reg.spilled_events,
        }
    }
}

/// The shared artifact writer streaming captures spill into: worker
/// threads serialize chunk writes through the mutex.
type SharedSink = Arc<Mutex<Box<dyn Write + Send>>>;

/// Captures one cell's evaluation. With a `sink`, a spill hook is
/// installed for the duration: whenever the cell's event buffer hits
/// [`obs::MAX_EVENTS`], the oldest half is written to the sink as one
/// `{"spill":…}` chunk line instead of being ring-dropped.
fn capture_cell<T>(job: &Job, sink: Option<&SharedSink>, f: impl FnOnce() -> T) -> (T, CellTrace) {
    let start = Instant::now();
    let prev_spill = sink.map(|sink| {
        let sink = Arc::clone(sink);
        let job = job.clone();
        let mut seq = 0u64;
        obs::set_spill(Some(Box::new(move |events: Vec<obs::Event>| {
            let mut line = String::new();
            write_spill_line(&mut line, &job, seq, &events);
            seq += 1;
            if let Ok(mut w) = sink.lock() {
                let _ = w.write_all(line.as_bytes());
            }
        })))
    });
    let (value, reg) = obs::capture(f);
    if prev_spill.is_some() {
        obs::set_spill(prev_spill.flatten());
    }
    let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (value, CellTrace::from_registry(job.clone(), wall, reg))
}

fn capture_grid_with_sink(jobs: &[Job], sink: Option<&SharedSink>) -> (CellStore, Vec<CellTrace>) {
    let prev_obs = obs::enabled();
    let prev_forced = schematic_emu::trace::forced();
    obs::set_enabled(true);
    schematic_emu::trace::set_forced(true);
    let table = CostTable::msp430fr5969();
    let results = par_map(jobs, |job| {
        capture_cell(job, sink, || evaluate(job, &table))
    });
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

/// Evaluates `jobs` with observation capture enabled: the cell store
/// (bit-identical to [`CellStore::compute`]) plus one [`CellTrace`]
/// per job, in job order. Per-cell event streams keep the in-memory
/// ring cap (oldest dropped past [`obs::MAX_EVENTS`]); use
/// [`capture_grid_streaming`] to lift it.
///
/// Enables the [`schematic_obs`] collector and forces emulator
/// lifecycle tracing ([`schematic_emu::trace::set_forced`]) for the
/// duration of the call, restoring both flags afterwards.
pub fn capture_grid(jobs: &[Job]) -> (CellStore, Vec<CellTrace>) {
    capture_grid_with_sink(jobs, None)
}

/// Like [`capture_grid`], but writes the complete artifact to `writer`
/// incrementally: overflow event chunks stream out *during* capture
/// (so no event is ever dropped and peak memory stays at the cap), and
/// the per-cell trace lines follow once evaluation finishes. The
/// returned traces hold only each cell's resident tail —
/// [`from_jsonl`] on the written artifact reassembles the full
/// streams.
///
/// # Errors
///
/// The underlying writer error from the trailing trace lines; chunk
/// writes during capture are best-effort (a torn artifact still parses
/// up to the tear).
pub fn capture_grid_streaming(
    jobs: &[Job],
    writer: impl Write + Send + 'static,
) -> std::io::Result<(CellStore, Vec<CellTrace>)> {
    let sink: SharedSink = Arc::new(Mutex::new(Box::new(writer)));
    let (store, traces) = capture_grid_with_sink(jobs, Some(&sink));
    let mut w = sink.lock().expect("no worker holds the sink any more");
    let mut line = String::new();
    for t in &traces {
        line.clear();
        write_trace_line(&mut line, t);
        w.write_all(line.as_bytes())?;
    }
    w.flush()?;
    Ok((store, traces))
}

// ---------------------------------------------------------------------
// Artifact codec
// ---------------------------------------------------------------------
//
// Lines are written and read directly, with no `Json` tree in between:
// `write_*` append to a `String` through the dialect's writer, and
// `read_*` pull from its `Reader` (both `schematic_obs::json`). An
// event's fields go through `schematic_obs::codec`'s field codec, the
// one the telemetry registry uses. A trace line is
//
//   {"job":{"kind","technique","benchmark","tbpf"|"scenario"} (the cell
//    line's job members, `grid::write_job`),
//    "wall_nanos":N,"phases":[{"name","calls","total_nanos","p50_nanos",
//    "p95_nanos"}…],"counters":[[name,N]…],"events":[EVENT…],
//    "dropped_events":N,"spilled_events":N}
//
// and a spill chunk line `{"spill":{"job":KEY,"seq":N,"events":[EVENT…]}}`,
// where EVENT is `{"kind":K,"fields":[[name,N|"str"]…]}`. Readers take
// keys in any order and skip unknown ones.

fn write_events(out: &mut String, events: &[obs::Event]) {
    out.push('[');
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kind\":");
        write_str(out, &ev.kind);
        out.push_str(",\"fields\":");
        write_fields(out, &ev.fields);
        out.push('}');
    }
    out.push(']');
}

/// Appends one trace as an artifact line, newline included.
fn write_trace_line(out: &mut String, t: &CellTrace) {
    // The job object holds the cell line's job members.
    out.push_str("{\"job\":{");
    write_job(out, &t.job);
    out.push_str("},\"wall_nanos\":");
    write_u64(out, t.wall_nanos);
    out.push_str(",\"phases\":[");
    for (i, p) in t.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_str(out, &p.name);
        for (key, n) in [
            ("calls", p.calls),
            ("total_nanos", p.total_nanos),
            ("p50_nanos", p.p50_nanos),
            ("p95_nanos", p.p95_nanos),
        ] {
            out.push(',');
            write_str(out, key);
            out.push(':');
            write_u64(out, n);
        }
        out.push('}');
    }
    out.push_str("],\"counters\":[");
    for (i, (name, n)) in t.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        write_str(out, name);
        out.push(',');
        write_u64(out, *n);
        out.push(']');
    }
    out.push_str("],\"events\":");
    write_events(out, &t.events);
    out.push_str(",\"dropped_events\":");
    write_u64(out, t.dropped_events);
    out.push_str(",\"spilled_events\":");
    write_u64(out, t.spilled_events);
    out.push_str("}\n");
}

/// Appends one spill chunk (a streamed-out slice of a cell's event
/// buffer) as an artifact line, newline included.
fn write_spill_line(out: &mut String, job: &Job, seq: u64, events: &[obs::Event]) {
    out.push_str("{\"spill\":{\"job\":");
    write_str(out, &job.to_string());
    out.push_str(",\"seq\":");
    write_u64(out, seq);
    out.push_str(",\"events\":");
    write_events(out, events);
    out.push_str("}}\n");
}

/// One decoded artifact line.
enum Line {
    Trace(CellTrace),
    Spill {
        job: String,
        seq: u64,
        events: Vec<obs::Event>,
    },
}

/// Reads an event array, sharing one fields scratch vector across the
/// whole array ([`read_fields`]).
fn read_events(r: &mut Reader) -> Result<Vec<obs::Event>, JsonError> {
    let mut scratch = Vec::new();
    r.vec(|r| {
        let mut kind = None;
        let mut fields = None;
        r.object(|r, key| {
            match &*key {
                "kind" => kind = Some(obs::name(&r.str()?)),
                "fields" => fields = Some(read_fields(r, &mut scratch)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(obs::Event {
            kind: r.need(kind, "kind")?,
            fields: r.need(fields, "fields")?,
        })
    })
}

fn read_phase(r: &mut Reader) -> Result<PhaseLine, JsonError> {
    let mut name = None;
    let mut n = [None; 4];
    r.object(|r, key| {
        match &*key {
            "name" => name = Some(r.str()?.into_owned()),
            "calls" => n[0] = Some(r.u64()?),
            "total_nanos" => n[1] = Some(r.u64()?),
            "p50_nanos" => n[2] = Some(r.u64()?),
            "p95_nanos" => n[3] = Some(r.u64()?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(PhaseLine {
        name: r.need(name, "name")?,
        calls: r.need(n[0], "calls")?,
        total_nanos: r.need(n[1], "total_nanos")?,
        p50_nanos: r.need(n[2], "p50_nanos")?,
        p95_nanos: r.need(n[3], "p95_nanos")?,
    })
}

fn read_spill(r: &mut Reader) -> Result<Line, JsonError> {
    let mut job = None;
    let mut seq = None;
    let mut events = None;
    r.object(|r, key| {
        match &*key {
            "job" => job = Some(r.str()?.into_owned()),
            "seq" => seq = Some(r.u64()?),
            "events" => events = Some(read_events(r)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(Line::Spill {
        job: r.need(job, "job")?,
        seq: r.need(seq, "seq")?,
        events: r.need(events, "events")?,
    })
}

/// Decodes one artifact line: a spill chunk when it has a `spill` key,
/// a cell trace otherwise.
fn read_line(text: &str) -> Result<Line, JsonError> {
    let mut r = Reader::new(text);
    let mut spill = None;
    let mut job = None;
    let mut wall_nanos = None;
    let mut phases = None;
    let mut counters = None;
    let mut events = None;
    let mut dropped_events = None;
    let mut spilled_events = None;
    r.object(|r, key| {
        match &*key {
            "spill" => spill = Some(read_spill(r)?),
            "job" => job = Some(read_job(r)?),
            "wall_nanos" => wall_nanos = Some(r.u64()?),
            "phases" => phases = Some(r.vec(read_phase)?),
            "counters" => {
                counters =
                    Some(r.vec(|r| r.pair("counter", |r| Ok(r.str()?.into_owned()), Reader::u64))?)
            }
            "events" => events = Some(read_events(r)?),
            "dropped_events" => dropped_events = Some(r.u64()?),
            "spilled_events" => spilled_events = Some(r.u64()?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    r.finish()?;
    if let Some(spill) = spill {
        return Ok(spill);
    }
    Ok(Line::Trace(CellTrace {
        job: r.need(job, "job")?,
        wall_nanos: r.need(wall_nanos, "wall_nanos")?,
        phases: r.need(phases, "phases")?,
        counters: r.need(counters, "counters")?,
        events: r.need(events, "events")?,
        dropped_events: r.need(dropped_events, "dropped_events")?,
        // Absent in pre-streaming artifacts: default to 0.
        spilled_events: spilled_events.unwrap_or(0),
    }))
}

/// Serializes traces, one JSON object per line, in the given order.
pub fn to_jsonl(traces: &[CellTrace]) -> String {
    let mut out = String::new();
    for t in traces {
        write_trace_line(&mut out, t);
    }
    out
}

/// Parses a trace artifact produced by [`to_jsonl`] or
/// [`capture_grid_streaming`] (blank lines tolerated). Spill chunk
/// lines (`{"spill":…}`) are reassembled: each cell's chunks are
/// ordered by sequence number and spliced back in front of the cell's
/// resident event tail, so the returned traces carry the complete
/// streams.
///
/// # Errors
///
/// A [`GridError`] naming the offending line, a chunk whose cell has
/// no trace line, or a missing chunk in a cell's sequence.
pub fn from_jsonl(text: &str) -> Result<Vec<CellTrace>, GridError> {
    let mut traces: Vec<CellTrace> = Vec::new();
    let mut chunks: BTreeMap<String, Vec<(u64, Vec<obs::Event>)>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match read_line(line).map_err(|e| GridError(format!("line {}: {e}", lineno + 1)))? {
            Line::Trace(t) => traces.push(t),
            Line::Spill { job, seq, events } => chunks.entry(job).or_default().push((seq, events)),
        }
    }
    if chunks.is_empty() {
        return Ok(traces);
    }
    // Chunks attach to the first trace line of their cell.
    let mut index: HashMap<String, usize> = HashMap::with_capacity(traces.len());
    for (i, t) in traces.iter().enumerate() {
        index.entry(t.job.to_string()).or_insert(i);
    }
    for (job, mut cell_chunks) in chunks {
        let &i = index
            .get(&job)
            .ok_or_else(|| GridError(format!("spill chunks for '{job}' have no trace line")))?;
        let trace = &mut traces[i];
        cell_chunks.sort_by_key(|(seq, _)| *seq);
        let mut events = Vec::new();
        for (i, (seq, chunk)) in cell_chunks.into_iter().enumerate() {
            if seq != i as u64 {
                return Err(GridError(format!(
                    "spill chunk {i} for '{job}' missing (next has seq {seq})"
                )));
            }
            events.extend(chunk);
        }
        events.append(&mut trace.events);
        trace.events = events;
    }
    Ok(traces)
}

/// Parses a grid cell key in the artifact spelling
/// `kind/technique/benchmark/scenario` (the [`Job`] display form, e.g.
/// `run/Schematic/crc/10000` or `run/Schematic/crc/stoch:10000:2000:3`).
pub fn parse_job_key(key: &str) -> Option<Job> {
    Job::parse(key).ok()
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

/// The emulator lifecycle event kinds, in no particular order (see
/// [`schematic_emu::trace`] for the schema).
pub use schematic_emu::trace::EVENT_KINDS as EMU_EVENT_KINDS;

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
        for p in &t.phases {
            let e = agg.entry(&p.name).or_default();
            e.0 += p.calls;
            e.1 += p.total_nanos;
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
                .phases
                .iter()
                .max_by_key(|p| p.total_nanos)
                .map(|p| format!("{} ({} ms)", p.name, ms(p.total_nanos)))
                .unwrap_or_else(|| "-".to_string());
            vec![t.job.to_string(), ms(t.wall_nanos), dominant]
        })
        .collect();
    render_table(&headers, &rows)
}

fn snapshot_of(ev: &obs::Event) -> [u64; 5] {
    let mut s = [0u64; 5];
    for (i, key) in SNAPSHOT_KEYS.iter().enumerate() {
        s[i] = ev.u64_field(key).unwrap_or(0);
    }
    s
}

fn detail_of(ev: &obs::Event) -> String {
    let parts: Vec<String> = ev
        .fields
        .iter()
        .filter(|(k, _)| !SNAPSHOT_KEYS.contains(&&**k))
        .map(|(k, v)| match v {
            obs::Value::U64(n) => format!("{k}={n}"),
            obs::Value::Str(s) => format!("{k}={s}"),
        })
        .collect();
    parts.join(" ")
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
    let events: Vec<&obs::Event> = trace
        .events
        .iter()
        .filter(|e| EMU_EVENT_KINDS.contains(&&*e.kind))
        .collect();
    let mut out = format!("Timeline for {}\n", trace.job);
    if events.is_empty() {
        out.push_str("no emulator events recorded\n");
        return out;
    }
    let runs = events.iter().filter(|e| e.kind == "run_start").count();
    let last_start = events
        .iter()
        .rposition(|e| e.kind == "run_start")
        .unwrap_or(0);
    let segment = &events[last_start..];
    out.push_str(&format!(
        "{} emulator run(s) in this cell; showing the last ({} events)\n",
        runs.max(1),
        segment.len()
    ));
    if trace.dropped_events > 0 {
        out.push_str(&format!(
            "warning: event stream truncated ({} events dropped past the cap)\n",
            trace.dropped_events
        ));
    }
    let headers = vec![
        "event".to_string(),
        "detail".to_string(),
        "d-comp uJ".to_string(),
        "d-save uJ".to_string(),
        "d-restore uJ".to_string(),
        "d-reexec uJ".to_string(),
        "cycles".to_string(),
    ];
    let mut prev = [0u64; 5];
    let mut rows = Vec::with_capacity(segment.len());
    for ev in segment {
        let snap = snapshot_of(ev);
        rows.push(vec![
            ev.kind.to_string(),
            detail_of(ev),
            uj(Energy::from_pj(snap[0].saturating_sub(prev[0]))),
            uj(Energy::from_pj(snap[1].saturating_sub(prev[1]))),
            uj(Energy::from_pj(snap[2].saturating_sub(prev[2]))),
            uj(Energy::from_pj(snap[3].saturating_sub(prev[3]))),
            snap[4].to_string(),
        ]);
        prev = snap;
    }
    out.push_str(&render_table(&headers, &rows));
    match segment.last() {
        Some(end) if end.kind == "run_end" => {
            let s = snapshot_of(end);
            out.push_str(&format!(
                "Fig. 6 split: computation {} uJ | save {} uJ | restore {} uJ | re-execution {} uJ\n",
                uj(Energy::from_pj(s[0])),
                uj(Energy::from_pj(s[1])),
                uj(Energy::from_pj(s[2])),
                uj(Energy::from_pj(s[3])),
            ));
        }
        _ => out.push_str("run did not reach run_end (event stream truncated?)\n"),
    }
    out
}

/// Renders the full observability report: the grid-wide phase table,
/// the `top_k` hottest cells, and — when `cell` names a traced job —
/// that cell's epoch timeline.
pub fn render_trace_report(traces: &[CellTrace], cell: Option<&Job>, top_k: usize) -> String {
    let total_events: usize = traces.iter().map(|t| t.events.len()).sum();
    let dropped: u64 = traces.iter().map(|t| t.dropped_events).sum();
    let spilled: u64 = traces.iter().map(|t| t.spilled_events).sum();
    let mut out = format!(
        "Observability report: {} cells, {} events\n",
        traces.len(),
        total_events
    );
    if spilled > 0 {
        out.push_str(&format!(
            "({spilled} events streamed to the artifact as spill chunks)\n"
        ));
    }
    if dropped > 0 {
        out.push_str(&format!(
            "({dropped} events dropped past the per-cell cap)\n"
        ));
    }
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

/// Compares two trace artifacts phase-by-phase and cell-by-cell:
/// `tracereport --diff BASELINE CANDIDATE`. Wall-clock times are
/// compared per cell (matched by grid key) and per aggregated phase;
/// a cell whose wall time grew by more than `threshold` (a fraction,
/// e.g. `0.25` for +25 %) is *flagged* as regressed. Returns the
/// rendered report and whether any cell was flagged, so the binary
/// can exit nonzero for CI gating.
///
/// Timings are wall-clock and host-sensitive — the threshold exists
/// precisely so jitter does not flag; compare artifacts captured on
/// the same host, and treat single-cell flags as a prompt to re-run,
/// not a verdict.
pub fn render_trace_diff(
    baseline: &[CellTrace],
    candidate: &[CellTrace],
    threshold: f64,
) -> (String, bool) {
    let mut out = format!(
        "Trace diff: {} baseline cell(s) vs {} candidate cell(s), flagging > +{:.0} %\n",
        baseline.len(),
        candidate.len(),
        threshold * 100.0
    );

    // Phase-by-phase: aggregate each side like the phase table does.
    let agg = |traces: &[CellTrace]| {
        let mut m: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for t in traces {
            for p in &t.phases {
                let e = m.entry(p.name.clone()).or_default();
                e.0 += p.calls;
                e.1 += p.total_nanos;
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
                if frac > threshold {
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
            "none (no common cell grew by more than +{:.0} %)\n",
            threshold * 100.0
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

    #[test]
    fn job_key_roundtrips_display_form() {
        let job = Job::run("Schematic", "crc", 10_000);
        assert_eq!(parse_job_key(&job.to_string()), Some(job));
        assert_eq!(parse_job_key("run/Schematic/crc"), None);
        assert_eq!(parse_job_key("nope/Schematic/crc/0"), None);
        assert_eq!(parse_job_key("run/Schematic/crc/zero"), None);
    }

    /// A sink handing its bytes back through a shared buffer, so the
    /// test can read what streaming capture wrote.
    struct VecSink(Arc<Mutex<Vec<u8>>>);

    impl Write for VecSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_capture_spills_past_the_cap_and_reassembles() {
        let was = obs::enabled();
        obs::set_enabled(true);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink: SharedSink = Arc::new(Mutex::new(Box::new(VecSink(Arc::clone(&buf)))));
        // Past the cap by 1.5 buffers: two spill batches of half a
        // buffer each must stream out, the rest stays resident.
        let total = 2 * obs::MAX_EVENTS;
        let job = Job::bare("crc");
        let ((), trace) = capture_cell(&job, Some(&sink), || {
            for i in 0..total {
                obs::event("tick", vec![("i", obs::Value::U64(i as u64))]);
            }
        });
        obs::set_enabled(was);
        assert_eq!(trace.spilled_events as usize + trace.events.len(), total);
        assert!(trace.spilled_events > 0, "flood past the cap must spill");
        assert_eq!(trace.dropped_events, 0, "spilling replaces dropping");

        // The artifact = streamed chunks + the trace line; reassembly
        // restores the full ordered stream.
        let mut text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        write_trace_line(&mut text, &trace);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].events.len(), total);
        for (i, ev) in back[0].events.iter().enumerate() {
            assert_eq!(ev.u64_field("i"), Some(i as u64), "event {i} out of order");
        }
    }

    fn spill_line(job: &Job, seq: u64, events: &[obs::Event]) -> String {
        let mut line = String::new();
        write_spill_line(&mut line, job, seq, events);
        line
    }

    #[test]
    fn spill_chunks_reassemble_by_seq_regardless_of_line_order() {
        let ev = |i: u64| obs::Event {
            kind: "tick".into(),
            fields: vec![("i".into(), obs::Value::U64(i))],
        };
        let job = Job::bare("crc");
        let trace = CellTrace {
            job: job.clone(),
            wall_nanos: 1,
            phases: Vec::new(),
            counters: Vec::new(),
            events: vec![ev(4), ev(5)],
            dropped_events: 0,
            spilled_events: 4,
        };
        // Chunks written out of order (seq 1 before seq 0) still
        // splice back in sequence, ahead of the resident tail.
        let text = [
            spill_line(&job, 1, &[ev(2), ev(3)]),
            to_jsonl(std::slice::from_ref(&trace)),
            spill_line(&job, 0, &[ev(0), ev(1)]),
        ]
        .concat();
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 1);
        let got: Vec<u64> = back[0]
            .events
            .iter()
            .map(|e| e.u64_field("i").unwrap())
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);

        // An orphan chunk (no trace line for its cell) is an error…
        let orphan = spill_line(&Job::bare("fft"), 0, &[ev(0)]);
        let e = from_jsonl(&orphan).unwrap_err();
        assert!(e.to_string().contains("no trace line"), "got: {e}");

        // …and so is a gap in the sequence.
        let gap = [
            spill_line(&job, 1, &[ev(2)]),
            to_jsonl(std::slice::from_ref(&trace)),
        ]
        .concat();
        let e = from_jsonl(&gap).unwrap_err();
        assert!(e.to_string().contains("missing"), "got: {e}");
    }

    const GOLDEN_ARTIFACT: &str = include_str!("../../../tests/goldens/trace_artifact.jsonl");
    const GOLDEN_REPORT: &str = include_str!("../../../tests/goldens/trace_report.txt");

    /// The golden artifact pins the wire format: one spill chunk, a
    /// periodic and a stochastic cell, fixed wall times and every
    /// escape class. Decoding it and writing it back — spilled prefix
    /// as a chunk line, the rest through `to_jsonl` — reproduces it
    /// byte for byte, and it renders the golden report.
    #[test]
    fn golden_artifact_roundtrips_byte_for_byte() {
        let traces = from_jsonl(GOLDEN_ARTIFACT).unwrap();
        assert_eq!(traces.len(), 2);
        let mut text = String::new();
        let mut resident = traces.clone();
        for t in &mut resident {
            let spilled = t.spilled_events as usize;
            if spilled > 0 {
                write_spill_line(&mut text, &t.job, 0, &t.events[..spilled]);
                t.events.drain(..spilled);
            }
        }
        text.push_str(&to_jsonl(&resident));
        assert_eq!(text, GOLDEN_ARTIFACT);

        let cell = Job::run("Schematic", "crc", 10_000);
        assert_eq!(render_trace_report(&traces, Some(&cell), 5), GOLDEN_REPORT);
    }

    #[test]
    fn pre_streaming_line_reads_spilled_events_as_zero() {
        let line = GOLDEN_ARTIFACT.lines().last().unwrap();
        let old = line.replace(",\"spilled_events\":0", "");
        assert_ne!(old, line, "golden line carries the field");
        let back = from_jsonl(&old).unwrap();
        assert_eq!(back, from_jsonl(line).unwrap());
        assert_eq!(back[0].spilled_events, 0);
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
        for (field, spill) in [
            (
                "seq",
                "{\"spill\":{\"job\":\"bare/-/crc/0\",\"events\":[]}}",
            ),
            ("events", "{\"spill\":{\"job\":\"bare/-/crc/0\",\"seq\":0}}"),
        ] {
            let e = from_jsonl(spill).unwrap_err().to_string();
            assert!(
                e.starts_with(&format!("line 1: missing field '{field}'")),
                "got: {e}"
            );
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
        let t = CellTrace {
            job: Job::bare("crc"),
            wall_nanos: 42,
            phases: Vec::new(),
            counters: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
            spilled_events: 0,
        };
        let text = to_jsonl(std::slice::from_ref(&t));
        assert_eq!(from_jsonl(&text).unwrap(), vec![t]);
    }

    #[test]
    fn renderers_tolerate_empty_input() {
        assert!(render_phase_table(&[]).contains("no spans"));
        let t = CellTrace {
            job: Job::bare("crc"),
            wall_nanos: 1,
            phases: Vec::new(),
            counters: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
            spilled_events: 0,
        };
        assert!(render_timeline(&t).contains("no emulator events"));
        let report = render_trace_report(&[t], Some(&Job::bare("fft")), 3);
        assert!(report.contains("no trace recorded for cell bare/-/fft/0"));
    }

    fn cell(name: &str, wall: u64, phase_nanos: u64) -> CellTrace {
        CellTrace {
            job: Job::bare(name),
            wall_nanos: wall,
            phases: vec![PhaseLine {
                name: "cell/emulate".into(),
                calls: 1,
                total_nanos: phase_nanos,
                p50_nanos: phase_nanos,
                p95_nanos: phase_nanos,
            }],
            counters: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
            spilled_events: 0,
        }
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
        let (_, flagged) = render_trace_diff(&[cell("crc", 0, 0)], &[cell("crc", 1, 1)], 0.25);
        assert!(
            flagged,
            "growth from a zero-wall baseline counts as regressed"
        );
    }
}

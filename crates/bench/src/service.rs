//! The persistent evaluation service: framed protocol and daemon core.
//!
//! `gridd` keeps predecoded benchmark programs and the content-addressed
//! cell cache warm across grid invocations, so a client pays process
//! startup, decode, and cache load once instead of per run. This module
//! holds everything testable without sockets:
//!
//! * **Frames** — each protocol message is a 4-byte big-endian length
//!   prefix followed by that many bytes of JSON (via [`crate::json`]).
//!   [`read_frame`] returns `Ok(None)` on a clean EOF at a frame
//!   boundary; a torn prefix, a truncated body, an oversized length
//!   ([`MAX_FRAME`]) or non-JSON payload is an error — never a panic —
//!   because the listener must survive any bytes a client throws at it.
//! * **Requests** — JSON objects tagged by `"op"`:
//!   `{"op":"submit","jobs":["run/Schematic/crc/10000",…]}` evaluates a
//!   batch (cache-first, optionally fanned out to worker processes),
//!   `{"op":"status"}` reports store and cache tallies, `{"op":"fetch"}`
//!   returns every accumulated cell as artifact objects,
//!   `{"op":"stats"}` returns the daemon's live telemetry (see below),
//!   and `{"op":"shutdown"}` stops the daemon. Errors come back as
//!   `{"ok":false,"error":…}` — a bad request never kills the service.
//! * **[`Daemon`]** — the state machine behind the socket loop:
//!   [`Daemon::handle`] maps one request to one response plus a
//!   shutdown flag. The `gridd` binary owns the `TcpListener` and feeds
//!   frames through it.
//!
//! ## Service telemetry
//!
//! Worker children attach a serialized [`schematic_obs::Registry`] to
//! every artifact line (see [`cache::worker_line_telemetry`]); the
//! daemon folds them into one **service registry**, adds a
//! `service/job_wall` latency histogram per dispatched job, and folds
//! in the process-global counters (`cache/hit`, `cache/miss`,
//! `cache/verify`, `daemon/op/*`) when answering `stats`. The response
//! carries daemon gauges (uptime, queue depth, worker utilization)
//! plus the merged registry as a [`schematic_obs::codec`] string, which
//! [`render_stats`] renders human-readable, [`render_stats_expo`]
//! renders as Prometheus-style text exposition (stable sorted
//! `name{labels} value` lines, integers only), and
//! `tracereport --service` renders offline from a dumped file.

use crate::cache::{self, CellCache, SourceDigests};
use crate::grid::{CellStore, GridError, GridMode, Job};
use crate::json::Json;
use schematic_energy::CostTable;
use schematic_obs::Registry;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::time::Instant;

/// Upper bound on one frame's payload (16 MiB — a full-grid fetch is
/// well under 1 MiB; anything bigger is a corrupt or hostile prefix).
pub const MAX_FRAME: usize = 16 << 20;

/// Why a frame could not be read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(String),
    /// The stream ended inside a length prefix or frame body.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversize(usize),
    /// The payload is not UTF-8 JSON.
    Syntax(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "stream error: {e}"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversize(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Syntax(e) => write!(f, "frame payload is not valid JSON: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one length-prefixed JSON frame and flushes.
///
/// # Errors
///
/// [`FrameError::Oversize`] when the encoded payload exceeds
/// [`MAX_FRAME`]; [`FrameError::Io`] on stream failure.
pub fn write_frame(w: &mut impl Write, json: &Json) -> Result<(), FrameError> {
    let text = json.encode();
    let bytes = text.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(FrameError::Oversize(bytes.len()));
    }
    let io = |e: std::io::Error| FrameError::Io(e.to_string());
    w.write_all(&(bytes.len() as u32).to_be_bytes())
        .map_err(io)?;
    w.write_all(bytes).map_err(io)?;
    w.flush().map_err(io)
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream *between*
/// frames (the peer closed after a complete exchange); any mid-frame
/// end is [`FrameError::Truncated`].
///
/// # Errors
///
/// Never panics: torn, oversized, or garbage frames come back as the
/// matching [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversize(len));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e.to_string())
        }
    })?;
    let text =
        String::from_utf8(buf).map_err(|_| FrameError::Syntax("payload is not UTF-8".into()))?;
    match Json::parse(&text) {
        Ok(json) => Ok(Some(json)),
        Err(e) => Err(FrameError::Syntax(e.to_string())),
    }
}

/// One client round-trip: write `req`, read the response frame.
///
/// # Errors
///
/// Any [`FrameError`]; a stream the server closed without answering is
/// [`FrameError::Truncated`].
pub fn request(stream: &mut (impl Read + Write), req: &Json) -> Result<Json, FrameError> {
    write_frame(stream, req)?;
    read_frame(stream)?.ok_or(FrameError::Truncated)
}

fn ok_response(mut fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.append(&mut fields);
    crate::grid::obj(pairs)
}

fn error_response(message: String) -> Json {
    crate::grid::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message)),
    ])
}

/// The daemon's state: the accumulated cell store, the warm cache, and
/// batch tallies. One instance serves the whole process; requests are
/// handled synchronously in arrival order, which is also the
/// single-writer discipline the cache file needs.
pub struct Daemon {
    mode: GridMode,
    cache: Option<CellCache>,
    /// Worker processes per submit batch; `0` computes in-process.
    workers: usize,
    store: CellStore,
    sources: SourceDigests,
    batches: u64,
    hits: u64,
    computed: u64,
    started: Instant,
    /// Merged worker telemetry plus daemon-side spans; the `stats` op
    /// snapshots this with the process-global counters folded in.
    service_reg: Registry,
    /// Jobs whose artifact lines carried a worker registry.
    worker_jobs: u64,
    /// Sum of per-job wall nanoseconds reported by workers — honest
    /// utilization regardless of dispatch interleaving.
    worker_busy_nanos: u64,
    /// Miss count of the most recent submit batch.
    queue_last: u64,
    /// Largest miss count any batch has dispatched.
    queue_peak: u64,
}

impl Daemon {
    /// A fresh daemon. `cache` is the warm disk cache (`None` for
    /// `--no-cache`); `workers` > 0 dispatches each batch's misses to
    /// that many `gridrun --jobs` child processes.
    pub fn new(mode: GridMode, cache: Option<CellCache>, workers: usize) -> Daemon {
        Daemon {
            mode,
            cache,
            workers,
            store: CellStore::new(),
            sources: SourceDigests::new(),
            batches: 0,
            hits: 0,
            computed: 0,
            started: Instant::now(),
            service_reg: Registry::default(),
            worker_jobs: 0,
            worker_busy_nanos: 0,
            queue_last: 0,
            queue_peak: 0,
        }
    }

    /// The grid mode the daemon serves.
    pub fn mode(&self) -> GridMode {
        self.mode
    }

    /// Maps one request to `(response, shutdown)`. Never panics on a
    /// malformed request: the error goes back to the client and the
    /// daemon keeps serving.
    pub fn handle(&mut self, req: &Json) -> (Json, bool) {
        let _span = schematic_obs::span("daemon/request");
        let op = match req.get("op").and_then(Json::as_str) {
            Some(op) => op.to_string(),
            None => return (error_response("missing field 'op'".into()), false),
        };
        schematic_obs::gcount(&format!("daemon/op/{op}"), 1);
        match op.as_str() {
            "submit" => (self.submit(req), false),
            "status" => (self.status(), false),
            "fetch" => (self.fetch(), false),
            "stats" => (self.stats(), false),
            "shutdown" => (ok_response(vec![]), true),
            other => (error_response(format!("unknown op '{other}'")), false),
        }
    }

    fn submit(&mut self, req: &Json) -> Json {
        let Some(Json::Arr(items)) = req.get("jobs") else {
            return error_response("missing or non-array field 'jobs'".into());
        };
        let mut jobs = Vec::with_capacity(items.len());
        for item in items {
            let Some(key) = item.as_str() else {
                return error_response(format!("non-string job key {}", item.encode()));
            };
            match Job::parse(key) {
                Ok(job) => jobs.push(job),
                Err(e) => return error_response(e),
            }
        }
        jobs.sort();
        jobs.dedup();
        let requested = jobs.len();
        let needed: Vec<Job> = jobs
            .into_iter()
            .filter(|j| self.store.get(j).is_none())
            .collect();
        let result = if self.workers == 0 {
            self.compute_inline(&needed)
        } else {
            self.compute_dispatched(&needed)
        };
        match result {
            Ok((hits, computed)) => {
                self.batches += 1;
                self.hits += hits as u64;
                self.computed += computed as u64;
                ok_response(vec![
                    ("requested", Json::UInt(requested as u64)),
                    ("hits", Json::UInt(hits as u64)),
                    ("computed", Json::UInt(computed as u64)),
                    ("cells", Json::UInt(self.store.len() as u64)),
                ])
            }
            Err(e) => error_response(e.to_string()),
        }
    }

    fn compute_inline(&mut self, needed: &[Job]) -> Result<(usize, usize), GridError> {
        let t0 = Instant::now();
        let (batch, stats) = cache::compute_cached(needed, self.cache.as_mut(), false, &|_, _| {})?;
        self.store.merge_from(batch)?;
        self.service_reg
            .record_span("daemon/batch", t0.elapsed().as_nanos() as u64);
        self.queue_last = stats.computed as u64;
        self.queue_peak = self.queue_peak.max(self.queue_last);
        Ok((stats.hits, stats.computed))
    }

    /// Resolves hits from the warm cache, partitions the misses
    /// round-robin over `workers` child `gridrun --jobs` processes, and
    /// folds their extended artifacts (cell + instrumented-module
    /// digests) back into the store *and* the cache — the daemon stays
    /// the file's only writer because children never open it.
    fn compute_dispatched(&mut self, needed: &[Job]) -> Result<(usize, usize), GridError> {
        let t0 = Instant::now();
        let table = CostTable::msp430fr5969();
        let (hits, misses) = match &self.cache {
            Some(cache) => cache::resolve(needed, cache, &table, &mut self.sources),
            None => (Vec::new(), needed.to_vec()),
        };
        for (job, value) in &hits {
            self.store.insert(job.clone(), value.clone())?;
        }
        self.queue_last = misses.len() as u64;
        self.queue_peak = self.queue_peak.max(self.queue_last);
        if misses.is_empty() {
            return Ok((hits.len(), 0));
        }
        let outputs = self.run_workers(&misses)?;
        let mut folded = 0;
        for text in outputs {
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                let (job, value, ims, telemetry) = cache::parse_worker_line_telemetry(line)?;
                if let Some(cache) = &mut self.cache {
                    let source = self.sources.digest(&job.benchmark);
                    let ck = cache::cell_key(&job, &table, &ims);
                    cache.memo_put(cache::memo_key(&job, &table, source), ims);
                    cache.cell_put(ck, &job, value.clone());
                }
                if let Some(mut t) = telemetry {
                    // Keep the aggregates (spans, counters, histograms)
                    // but not the event logs: a long-lived daemon would
                    // otherwise hoard them until `stats` frames hit the
                    // protocol cap. Account them as spilled — the count
                    // stays visible, the bytes stay in the worker lines.
                    let spilled = t.registry.events.len() as u64;
                    t.registry.events.clear();
                    t.registry.spilled_events += spilled;
                    self.service_reg.merge_from(t.registry);
                    self.service_reg
                        .record_span("service/job_wall", t.wall_nanos);
                    self.worker_jobs += 1;
                    self.worker_busy_nanos = self.worker_busy_nanos.saturating_add(t.wall_nanos);
                }
                self.store.insert(job, value)?;
                folded += 1;
            }
        }
        self.service_reg
            .record_span("daemon/batch", t0.elapsed().as_nanos() as u64);
        if folded != misses.len() {
            return Err(GridError(format!(
                "workers returned {folded} cells for {} dispatched jobs",
                misses.len()
            )));
        }
        Ok((hits.len(), folded))
    }

    /// Spawns the worker processes and collects their artifact texts.
    fn run_workers(&mut self, misses: &[Job]) -> Result<Vec<String>, GridError> {
        let gridrun = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("gridrun")))
            .ok_or_else(|| GridError("cannot locate the gridrun binary".into()))?;
        let dir = std::env::temp_dir().join(format!(
            "gridd-{}-batch{}",
            std::process::id(),
            self.batches
        ));
        std::fs::create_dir_all(&dir).map_err(|e| GridError(format!("mkdir: {e}")))?;
        let n = self.workers.min(misses.len());
        let mut children = Vec::with_capacity(n);
        for i in 0..n {
            let jobs_path = dir.join(format!("jobs-{i}.txt"));
            let out_path = dir.join(format!("out-{i}.jsonl"));
            let keys: String = misses
                .iter()
                .skip(i)
                .step_by(n)
                .map(|j| format!("{j}\n"))
                .collect();
            std::fs::write(&jobs_path, keys).map_err(|e| GridError(format!("write jobs: {e}")))?;
            let mut cmd = std::process::Command::new(&gridrun);
            if self.mode == GridMode::Quick {
                cmd.arg("--quick");
            }
            cmd.arg("--jobs").arg(&jobs_path).arg("-o").arg(&out_path);
            // Children report through artifact telemetry, not heartbeats.
            cmd.env("SCHEMATIC_PROGRESS", "0");
            let child = cmd
                .spawn()
                .map_err(|e| GridError(format!("spawn {}: {e}", gridrun.display())))?;
            children.push((child, out_path));
        }
        let mut outputs = Vec::with_capacity(n);
        let mut failed = 0usize;
        for (mut child, out_path) in children {
            let status = child.wait().map_err(|e| GridError(format!("wait: {e}")))?;
            if !status.success() {
                failed += 1;
                continue;
            }
            outputs.push(
                std::fs::read_to_string(&out_path)
                    .map_err(|e| GridError(format!("read {}: {e}", out_path.display())))?,
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        if failed > 0 {
            return Err(GridError(format!("{failed} worker process(es) failed")));
        }
        Ok(outputs)
    }

    fn status(&self) -> Json {
        let (memos, cells) = self.cache.as_ref().map_or((0, 0), CellCache::len);
        ok_response(vec![
            ("cells", Json::UInt(self.store.len() as u64)),
            ("batches", Json::UInt(self.batches)),
            ("hits", Json::UInt(self.hits)),
            ("computed", Json::UInt(self.computed)),
            ("cache_memos", Json::UInt(memos as u64)),
            ("cache_cells", Json::UInt(cells as u64)),
        ])
    }

    fn fetch(&self) -> Json {
        let cells = self
            .store
            .iter()
            .map(|(job, value)| crate::grid::cell_to_json(job, value))
            .collect();
        ok_response(vec![("cells", Json::Arr(cells))])
    }

    /// Snapshot of the live service registry plus daemon gauges. The
    /// process-global counters (cache hit/miss/verify tallies, per-op
    /// request counts) are folded into the registry copy so one codec
    /// string carries the whole picture.
    fn stats(&self) -> Json {
        let mut reg = self.service_reg.clone();
        for (name, n) in schematic_obs::gcounters() {
            *reg.counters.entry(name).or_default() += n;
        }
        let (memos, cells) = self.cache.as_ref().map_or((0, 0), CellCache::len);
        ok_response(vec![
            (
                "uptime_nanos",
                Json::UInt(self.started.elapsed().as_nanos() as u64),
            ),
            ("batches", Json::UInt(self.batches)),
            ("hits", Json::UInt(self.hits)),
            ("computed", Json::UInt(self.computed)),
            ("cells", Json::UInt(self.store.len() as u64)),
            ("cache_memos", Json::UInt(memos as u64)),
            ("cache_cells", Json::UInt(cells as u64)),
            ("workers", Json::UInt(self.workers as u64)),
            ("worker_jobs", Json::UInt(self.worker_jobs)),
            ("worker_busy_nanos", Json::UInt(self.worker_busy_nanos)),
            ("queue_last", Json::UInt(self.queue_last)),
            ("queue_peak", Json::UInt(self.queue_peak)),
            ("registry", Json::Str(schematic_obs::codec::encode(&reg))),
        ])
    }
}

/// A `stats` response decoded for rendering. [`StatsSnapshot::parse`]
/// accepts both a live protocol response and a file the client dumped
/// with `--stats -o`.
pub struct StatsSnapshot {
    /// Nanoseconds since the daemon started.
    pub uptime_nanos: u64,
    /// Submit batches served.
    pub batches: u64,
    /// Cells answered from the store or cache across all batches.
    pub hits: u64,
    /// Cells computed (inline or by workers) across all batches.
    pub computed: u64,
    /// Cells accumulated in the store.
    pub cells: u64,
    /// Memo entries in the warm disk cache.
    pub cache_memos: u64,
    /// Cell entries in the warm disk cache.
    pub cache_cells: u64,
    /// Configured worker process count (`0` = inline).
    pub workers: u64,
    /// Jobs whose artifact lines carried worker telemetry.
    pub worker_jobs: u64,
    /// Sum of worker-reported per-job wall nanoseconds.
    pub worker_busy_nanos: u64,
    /// Miss count of the most recent batch.
    pub queue_last: u64,
    /// Largest miss count any batch dispatched.
    pub queue_peak: u64,
    /// The merged service registry (worker telemetry + daemon spans +
    /// process-global counters).
    pub registry: Registry,
}

impl StatsSnapshot {
    /// Decodes a `stats` response object.
    ///
    /// # Errors
    ///
    /// A message naming the missing field or the codec failure.
    pub fn parse(resp: &Json) -> Result<StatsSnapshot, String> {
        let field = |name: &str| {
            resp.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats response lacks numeric field '{name}'"))
        };
        let text = resp
            .get("registry")
            .and_then(Json::as_str)
            .ok_or("stats response lacks string field 'registry'")?;
        let registry =
            schematic_obs::codec::parse(text).map_err(|e| format!("bad registry payload: {e}"))?;
        Ok(StatsSnapshot {
            uptime_nanos: field("uptime_nanos")?,
            batches: field("batches")?,
            hits: field("hits")?,
            computed: field("computed")?,
            cells: field("cells")?,
            cache_memos: field("cache_memos")?,
            cache_cells: field("cache_cells")?,
            workers: field("workers")?,
            worker_jobs: field("worker_jobs")?,
            worker_busy_nanos: field("worker_busy_nanos")?,
            queue_last: field("queue_last")?,
            queue_peak: field("queue_peak")?,
            registry,
        })
    }
}

/// Human-readable `stats` rendering: daemon gauges, then the service
/// registry via [`render_service_report`].
pub fn render_stats(s: &StatsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "gridd stats: up {}.{:03}s · {} batches · {} hits · {} computed · {} store cells",
        s.uptime_nanos / 1_000_000_000,
        s.uptime_nanos / 1_000_000 % 1000,
        s.batches,
        s.hits,
        s.computed,
        s.cells,
    )
    .unwrap();
    writeln!(
        out,
        "workers: {} configured · {} jobs dispatched · busy {}.{:03}s · queue last {} peak {}",
        s.workers,
        s.worker_jobs,
        s.worker_busy_nanos / 1_000_000_000,
        s.worker_busy_nanos / 1_000_000 % 1000,
        s.queue_last,
        s.queue_peak,
    )
    .unwrap();
    writeln!(
        out,
        "cache: {} memos · {} cells",
        s.cache_memos, s.cache_cells
    )
    .unwrap();
    out.push('\n');
    out.push_str(&render_service_report(&s.registry, 10));
    out
}

/// Replaces every byte that could break a `name="value"` label pair —
/// quotes, backslashes, braces, newlines, control bytes — with `_`.
fn expo_label(value: &str) -> String {
    value
        .chars()
        .map(|c| match c {
            '"' | '\\' | '{' | '}' => '_',
            c if c.is_control() => '_',
            c => c,
        })
        .collect()
}

fn expo_push(out: &mut Vec<String>, name: &str, labels: &[(&str, &str)], value: u64) {
    debug_assert!(name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'));
    if labels.is_empty() {
        out.push(format!("{name} {value}"));
    } else {
        let body: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", expo_label(v)))
            .collect();
        out.push(format!("{name}{{{}}} {value}", body.join(",")));
    }
}

/// Prometheus-style text exposition of a `stats` snapshot: one
/// `name{labels} value` per line, metric names `[a-z_]+`, integer
/// values, lines sorted so the output is byte-stable for a given
/// snapshot.
pub fn render_stats_expo(s: &StatsSnapshot) -> String {
    let mut lines = Vec::new();
    expo_push(
        &mut lines,
        "gridd_uptime_seconds",
        &[],
        s.uptime_nanos / 1_000_000_000,
    );
    expo_push(&mut lines, "gridd_batches_total", &[], s.batches);
    expo_push(&mut lines, "gridd_submit_hits_total", &[], s.hits);
    expo_push(&mut lines, "gridd_submit_computed_total", &[], s.computed);
    expo_push(&mut lines, "gridd_store_cells", &[], s.cells);
    expo_push(&mut lines, "gridd_cache_memos", &[], s.cache_memos);
    expo_push(&mut lines, "gridd_cache_cells", &[], s.cache_cells);
    expo_push(&mut lines, "gridd_workers", &[], s.workers);
    expo_push(&mut lines, "gridd_worker_jobs_total", &[], s.worker_jobs);
    expo_push(
        &mut lines,
        "gridd_worker_busy_nanos_total",
        &[],
        s.worker_busy_nanos,
    );
    expo_push(&mut lines, "gridd_queue_depth_last", &[], s.queue_last);
    expo_push(&mut lines, "gridd_queue_depth_peak", &[], s.queue_peak);
    let reg = &s.registry;
    expo_push(
        &mut lines,
        "gridd_registry_events",
        &[],
        reg.events.len() as u64,
    );
    expo_push(
        &mut lines,
        "gridd_registry_dropped_events_total",
        &[],
        reg.dropped_events,
    );
    expo_push(
        &mut lines,
        "gridd_registry_spilled_events_total",
        &[],
        reg.spilled_events,
    );
    for (name, n) in &reg.counters {
        expo_push(&mut lines, "gridd_counter_total", &[("name", name)], *n);
    }
    for (name, stats) in &reg.spans {
        let labels = [("name", name.as_str())];
        expo_push(&mut lines, "gridd_span_calls_total", &labels, stats.calls);
        expo_push(
            &mut lines,
            "gridd_span_nanos_total",
            &labels,
            stats.total_nanos,
        );
        for (q, num) in [("p50", 50), ("p95", 95)] {
            expo_push(
                &mut lines,
                "gridd_span_nanos",
                &[("name", name.as_str()), ("quantile", q)],
                stats.hist.quantile(num, 100),
            );
        }
    }
    lines.sort();
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Whether `line` matches the exposition grammar the CI smoke greps
/// for: `^[a-z_]+(\{[^}]*\})? [0-9]+$`, hand-rolled because the repo
/// carries no regex engine.
pub fn expo_line_ok(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() && (bytes[i].is_ascii_lowercase() || bytes[i] == b'_') {
        i += 1;
    }
    if i == 0 {
        return false;
    }
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        while i < bytes.len() && bytes[i] != b'}' && bytes[i] != b'\n' {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'}' {
            return false;
        }
        i += 1;
    }
    if i >= bytes.len() || bytes[i] != b' ' {
        return false;
    }
    i += 1;
    let digits = &bytes[i..];
    !digits.is_empty() && digits.iter().all(u8::is_ascii_digit)
}

/// Offline rendering of a service registry: top-K slowest jobs, cache
/// hit rate per report kind, and latency quantiles per
/// technique × benchmark. Shared by `gridrun --stats` (via
/// [`render_stats`]) and `tracereport --service`.
pub fn render_service_report(reg: &Registry, top_k: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "service registry: {} spans · {} counters · {} events ({} dropped, {} spilled)",
        reg.spans.len(),
        reg.counters.len(),
        reg.events.len(),
        reg.dropped_events,
        reg.spilled_events,
    )
    .unwrap();

    // Top-K slowest jobs by mean wall time.
    let mut jobs: Vec<(&str, &schematic_obs::PhaseStats)> = reg
        .spans
        .iter()
        .filter_map(|(name, s)| name.strip_prefix("job/").map(|j| (j, s)))
        .collect();
    if !jobs.is_empty() {
        jobs.sort_by(|a, b| b.1.mean_nanos().cmp(&a.1.mean_nanos()).then(a.0.cmp(b.0)));
        jobs.truncate(top_k);
        let headers: Vec<String> = ["job", "calls", "mean_us", "p50_us", "p95_us", "max_us"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = jobs
            .iter()
            .map(|(job, s)| {
                vec![
                    job.to_string(),
                    s.calls.to_string(),
                    (s.mean_nanos() / 1000).to_string(),
                    (s.hist.quantile(50, 100) / 1000).to_string(),
                    (s.hist.quantile(95, 100) / 1000).to_string(),
                    (s.hist.max() / 1000).to_string(),
                ]
            })
            .collect();
        writeln!(out, "\ntop {} slowest jobs (by mean wall time)", jobs.len()).unwrap();
        out.push_str(&crate::render_table(&headers, &rows));
    }

    // Cache hit rate per report kind, from the per-kind counters the
    // cache layer tallies on every resolve.
    let mut kinds: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (name, n) in &reg.counters {
        if let Some(kind) = name.strip_prefix("cache/hit/") {
            kinds.entry(kind).or_default().0 += n;
        } else if let Some(kind) = name.strip_prefix("cache/miss/") {
            kinds.entry(kind).or_default().1 += n;
        }
    }
    if !kinds.is_empty() {
        let headers: Vec<String> = ["kind", "hits", "misses", "rate"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = kinds
            .iter()
            .map(|(kind, (h, m))| {
                let rate = (h * 100).checked_div(h + m).unwrap_or(0);
                vec![
                    kind.to_string(),
                    h.to_string(),
                    m.to_string(),
                    format!("{rate}%"),
                ]
            })
            .collect();
        writeln!(out, "\ncache hit rate by report kind").unwrap();
        out.push_str(&crate::render_table(&headers, &rows));
    }

    // Latency quantiles per technique × benchmark, aggregated over the
    // per-job wall histograms (`job/<kind>/<technique>/<benchmark>/…`).
    let mut cells: BTreeMap<(String, String), schematic_obs::Histogram> = BTreeMap::new();
    for (name, s) in &reg.spans {
        let Some(rest) = name.strip_prefix("job/") else {
            continue;
        };
        let mut parts = rest.splitn(4, '/');
        let (Some(_kind), Some(tech), Some(bench), Some(_scenario)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        cells
            .entry((tech.to_string(), bench.to_string()))
            .or_default()
            .merge_from(&s.hist);
    }
    if !cells.is_empty() {
        let headers: Vec<String> = ["technique", "benchmark", "jobs", "p50_us", "p95_us"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|((tech, bench), h)| {
                vec![
                    tech.clone(),
                    bench.clone(),
                    h.count().to_string(),
                    (h.quantile(50, 100) / 1000).to_string(),
                    (h.quantile(95, 100) / 1000).to_string(),
                ]
            })
            .collect();
        writeln!(out, "\njob wall latency by technique x benchmark").unwrap();
        out.push_str(&crate::render_table(&headers, &rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// SplitMix64 — the deterministic fuzz driver.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn frames_roundtrip() {
        let msgs = [
            Json::Null,
            Json::Str("hello \u{1F600} \"quoted\"".into()),
            crate::grid::obj(vec![
                ("op", Json::Str("submit".into())),
                (
                    "jobs",
                    Json::Arr(vec![Json::Str("run/Schematic/crc/10000".into())]),
                ),
            ]),
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut r = Cursor::new(buf);
        for m in &msgs {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(m));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_frames_error_at_every_cut() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &crate::grid::obj(vec![("op", Json::Str("status".into()))]),
        )
        .unwrap();
        for cut in 1..buf.len() {
            let mut r = Cursor::new(&buf[..cut]);
            assert_eq!(
                read_frame(&mut r),
                Err(FrameError::Truncated),
                "cut at {cut}"
            );
        }
        // Cut at zero is a clean EOF, not an error.
        assert_eq!(read_frame(&mut Cursor::new(&buf[..0])), Ok(None));
    }

    #[test]
    fn oversize_prefix_is_rejected_without_allocation() {
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.extend_from_slice(b"whatever");
        assert_eq!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::Oversize(u32::MAX as usize))
        );
    }

    #[test]
    fn garbage_frames_never_panic() {
        let mut rng = Rng(0xC0FFEE);
        for round in 0..500 {
            let len = (rng.next() % 64) as usize;
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                bytes.push((rng.next() & 0xFF) as u8);
            }
            // Whatever comes back, it must be a value, not a panic.
            let _ = read_frame(&mut Cursor::new(&bytes));
            // Same bytes framed as a payload: length is valid, body is
            // garbage — must parse-fail or succeed, never panic.
            let mut framed = (len as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(&bytes);
            let r = read_frame(&mut Cursor::new(&framed));
            assert!(
                !matches!(r, Err(FrameError::Truncated)),
                "round {round}: complete frame misread as truncated"
            );
        }
    }

    #[test]
    fn daemon_serves_a_batch_lifecycle() {
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        let submit = crate::grid::obj(vec![
            ("op", Json::Str("submit".into())),
            (
                "jobs",
                Json::Arr(vec![
                    Json::Str("support/Schematic/crc/0".into()),
                    Json::Str("support/Mementos/crc/0".into()),
                    // A duplicate collapses.
                    Json::Str("support/Schematic/crc/0".into()),
                ]),
            ),
        ]);
        let (resp, stop) = d.handle(&submit);
        assert!(!stop);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("requested").and_then(Json::as_u64), Some(2));
        assert_eq!(resp.get("computed").and_then(Json::as_u64), Some(2));
        // Resubmitting is free: the store already has both cells.
        let (resp, _) = d.handle(&submit);
        assert_eq!(resp.get("computed").and_then(Json::as_u64), Some(0));
        let (status, _) = d.handle(&crate::grid::obj(vec![("op", Json::Str("status".into()))]));
        assert_eq!(status.get("cells").and_then(Json::as_u64), Some(2));
        assert_eq!(status.get("batches").and_then(Json::as_u64), Some(2));
        let (fetch, _) = d.handle(&crate::grid::obj(vec![("op", Json::Str("fetch".into()))]));
        let Some(Json::Arr(cells)) = fetch.get("cells") else {
            panic!("fetch returns cells");
        };
        assert_eq!(cells.len(), 2);
        let (resp, stop) = d.handle(&crate::grid::obj(vec![(
            "op",
            Json::Str("shutdown".into()),
        )]));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert!(stop);
    }

    #[test]
    fn fetch_frame_matches_the_encode_then_parse_form() {
        use crate::grid::CellValue;
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        let (resp, _) = d.handle(&crate::grid::obj(vec![
            ("op", Json::Str("submit".into())),
            (
                "jobs",
                Json::Arr(vec![Json::Str("support/Schematic/crc/0".into())]),
            ),
        ]));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        for (key, value) in [
            (
                "bare/-/fft/0",
                CellValue::Bare {
                    cycles: u64::MAX,
                    data_bytes: 0,
                },
            ),
            (
                "run/Ratchet/aes/stoch:10000:2000:3",
                CellValue::Run {
                    outcome: None,
                    reason: Some("no \"sound\" placement \\ †\n\u{1} 🦀".into()),
                },
            ),
            (
                "fig7/Schematic/crc/10000",
                CellValue::Measured {
                    metrics: None,
                    note: Some("error: x".into()),
                },
            ),
        ] {
            d.store.insert(Job::parse(key).unwrap(), value).unwrap();
        }
        // The form fetch had when it re-parsed the encoded store.
        let cells = d
            .store
            .to_jsonl()
            .lines()
            .map(|line| Json::parse(line).unwrap())
            .collect();
        let old = ok_response(vec![("cells", Json::Arr(cells))]);
        let (new, _) = d.handle(&crate::grid::obj(vec![("op", Json::Str("fetch".into()))]));
        let (mut old_frame, mut new_frame) = (Vec::new(), Vec::new());
        write_frame(&mut old_frame, &old).unwrap();
        write_frame(&mut new_frame, &new).unwrap();
        assert_eq!(new_frame, old_frame);
    }

    #[test]
    fn daemon_rejects_bad_requests_without_dying() {
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        for bad in [
            Json::Null,
            crate::grid::obj(vec![("op", Json::Str("explode".into()))]),
            crate::grid::obj(vec![("op", Json::Str("submit".into()))]),
            crate::grid::obj(vec![
                ("op", Json::Str("submit".into())),
                ("jobs", Json::Arr(vec![Json::Str("not-a-job".into())])),
            ]),
        ] {
            let (resp, stop) = d.handle(&bad);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{}", bad.encode());
            assert!(!stop);
        }
        // Still alive and serving.
        let (status, _) = d.handle(&crate::grid::obj(vec![("op", Json::Str("status".into()))]));
        assert_eq!(status.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn stats_op_reports_a_parseable_snapshot() {
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        let submit = crate::grid::obj(vec![
            ("op", Json::Str("submit".into())),
            (
                "jobs",
                Json::Arr(vec![
                    Json::Str("support/Schematic/crc/0".into()),
                    Json::Str("support/Mementos/crc/0".into()),
                ]),
            ),
        ]);
        let (resp, _) = d.handle(&submit);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let (stats, stop) = d.handle(&crate::grid::obj(vec![("op", Json::Str("stats".into()))]));
        assert!(!stop);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        let snap = StatsSnapshot::parse(&stats).unwrap();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.cells, 2);
        assert_eq!(snap.workers, 0);
        // The inline path records a batch span into the service registry.
        assert!(snap.registry.spans.contains_key("daemon/batch"));
        // The global op counters were folded into the snapshot. The
        // counters are process-global, so other tests in this binary may
        // have bumped them too — assert presence and a lower bound, not
        // equality.
        assert!(snap.registry.counters.get("daemon/op/stats").copied() >= Some(1));
        assert!(snap.registry.counters.get("daemon/op/submit").copied() >= Some(1));
        // Both renderers accept the snapshot.
        let human = render_stats(&snap);
        assert!(human.contains("gridd stats:"));
        assert!(human.contains("service registry:"));
        let expo = render_stats_expo(&snap);
        for line in expo.lines() {
            assert!(expo_line_ok(line), "bad exposition line: {line:?}");
        }
        assert!(expo.contains("gridd_batches_total 1\n"));
        assert!(expo.contains("gridd_store_cells 2\n"));
        // Sorted and byte-stable.
        let lines: Vec<&str> = expo.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
        assert_eq!(expo, render_stats_expo(&snap));
    }

    #[test]
    fn service_report_renders_jobs_kinds_and_latency() {
        let mut reg = Registry::default();
        for (job, nanos) in [
            ("run/Schematic/crc/10000", 5_000_000u64),
            ("run/Schematic/fft/10000", 9_000_000),
            ("run/Mementos/crc/10000", 2_000_000),
            ("fig7/Schematic/sort/2000", 1_000_000),
        ] {
            reg.record_span(&format!("job/{job}"), nanos);
        }
        *reg.counters.entry("cache/hit/run".into()).or_default() = 3;
        *reg.counters.entry("cache/miss/run".into()).or_default() = 1;
        *reg.counters.entry("cache/miss/fig7".into()).or_default() = 1;
        let report = render_service_report(&reg, 2);
        // Top-K truncates to the two slowest by mean.
        assert!(report.contains("top 2 slowest jobs"));
        assert!(report.contains("run/Schematic/fft/10000"));
        assert!(report.contains("run/Schematic/crc/10000"));
        assert!(!report.contains("run/Mementos/crc/10000"));
        // Hit rates are integer percents per kind.
        assert!(report.contains("75%"), "{report}");
        assert!(report.contains("0%"), "{report}");
        // Technique x benchmark rollup covers each pair.
        assert!(report.contains("job wall latency by technique x benchmark"));
        assert!(report.contains("Mementos"));
        let empty = render_service_report(&Registry::default(), 5);
        assert!(empty.contains("0 spans"));
    }

    #[test]
    fn expo_line_grammar_is_enforced() {
        for good in [
            "gridd_batches_total 3",
            "gridd_counter_total{name=\"cache/hit\"} 12",
            "gridd_span_nanos{name=\"job/run\",quantile=\"p95\"} 9000000",
        ] {
            assert!(expo_line_ok(good), "{good}");
        }
        for bad in [
            "",
            "Gridd_total 1",
            "gridd_total  1",
            "gridd_total 1.5",
            "gridd_total -1",
            "gridd_total{unterminated 1",
            "gridd_total",
            "gridd_total{x=\"y\"}1",
        ] {
            assert!(!expo_line_ok(bad), "{bad}");
        }
        // The sanitizer keeps label values inside the grammar even when
        // the raw name carries quotes, braces, or newlines.
        let mut lines = Vec::new();
        expo_push(
            &mut lines,
            "gridd_counter_total",
            &[("name", "we\"ird}\n\\x")],
            7,
        );
        assert!(expo_line_ok(&lines[0]), "{:?}", lines[0]);
    }

    #[test]
    fn stats_frames_survive_truncation_oversize_and_garbage() {
        // A realistic stats response frame, then every prefix of it.
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        let (resp, _) = d.handle(&crate::grid::obj(vec![("op", Json::Str("stats".into()))]));
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        for cut in 1..buf.len() {
            let mut r = Cursor::new(&buf[..cut]);
            assert_eq!(read_frame(&mut r), Err(FrameError::Truncated), "cut {cut}");
        }
        // Oversize prefix on a stats-shaped body.
        let mut oversize = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        oversize.extend_from_slice(&buf[4..]);
        assert_eq!(
            read_frame(&mut Cursor::new(oversize)),
            Err(FrameError::Oversize(MAX_FRAME + 1))
        );
        // Garbage mutations of the payload must parse-fail or decode to
        // something StatsSnapshot::parse rejects — never panic.
        let mut rng = Rng(0x57A7_57A7);
        for _ in 0..200 {
            let mut mutated = buf.clone();
            let idx = 4 + (rng.next() as usize) % (mutated.len() - 4);
            mutated[idx] = (rng.next() & 0xFF) as u8;
            if let Ok(Some(json)) = read_frame(&mut Cursor::new(&mutated)) {
                let _ = StatsSnapshot::parse(&json);
            }
        }
        // A stats request with stray fields still answers.
        let (resp, stop) = d.handle(&crate::grid::obj(vec![
            ("op", Json::Str("stats".into())),
            ("extra", Json::UInt(7)),
        ]));
        assert!(!stop);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }
}

//! The persistent evaluation service: framed protocol and daemon core.
//!
//! `gridd` keeps predecoded benchmark programs and the content-addressed
//! cell cache warm across grid invocations, so a client pays process
//! startup, decode, and cache load once instead of per run. This module
//! holds everything testable without sockets:
//!
//! * **Frames** — each protocol message is a 4-byte big-endian length
//!   prefix followed by that many bytes of JSON (via [`crate::json`]),
//!   sent as one write (see [`write_frame`] for why).
//!   [`read_frame`] returns `Ok(None)` on a clean EOF at a frame
//!   boundary; a torn prefix, a truncated body, an oversized length
//!   ([`MAX_FRAME`]), a non-JSON payload or one nested past the
//!   reader's depth cap is an error — never a panic or a stack
//!   overflow — because the listener must survive any bytes a client
//!   throws at it.
//! * **Requests** — JSON objects tagged by `"op"`:
//!   `{"op":"submit","jobs":["run/Schematic/crc/10000",…]}` evaluates a
//!   batch (cache-first, optionally fanned out to worker processes),
//!   `{"op":"fetch"}` returns every accumulated cell as a plain cell
//!   line ([`crate::grid::write_cell`]), written with no value tree,
//!   `{"op":"stats"}` returns the store and cache tallies and the
//!   daemon's live telemetry (see below), and `{"op":"shutdown"}` stops
//!   the daemon. Errors come back as
//!   `{"ok":false,"error":…}` — a bad request never kills the service.
//! * **[`Daemon`]** — the state machine behind the socket loop:
//!   [`Daemon::handle`] maps one request to one encoded response plus a
//!   shutdown flag, and [`serve`] runs one connection through it. The
//!   `gridd` binary owns the `TcpListener` and hands each accepted
//!   stream to [`serve`].
//! * **Dispatch** — with workers, a batch's cache misses stream by pull
//!   to `gridrun --jobs` children over pipes: one job key per line in,
//!   one cell line per job out (the cell, its program digests and the
//!   job's telemetry), and each answer earns that worker the next key.
//!
//! ## Service telemetry
//!
//! Worker children attach a serialized [`schematic_obs::Registry`] to
//! every cell line they answer ([`crate::grid::WorkerTelemetry`]); the
//! daemon folds them into one **service registry**, adds a
//! `service/job_wall` latency histogram per dispatched job, and folds
//! in the process-global counters (`cache/hit`, `cache/miss`,
//! `cache/verify`, `daemon/op/*`) when answering `stats`. The response
//! carries daemon gauges (uptime, batch and cache tallies, queue depth)
//! plus the merged registry as a [`schematic_obs::codec`] string; the
//! registry is the one copy of every tally it holds (worker jobs and
//! busy time are its `service/job_wall` span). [`render_stats`]
//! renders a response human-readable, and `tracereport --service`
//! renders the registry offline from a dumped file.

use crate::cache::{self, CellCache, SourceDigests};
use crate::grid::{write_cell, CellLine, CellStore, GridError, GridMode, Job};
use crate::json::Json;
use schematic_energy::CostTable;
use schematic_obs::Registry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
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

/// Writes one length-prefixed JSON frame as a single write and flushes.
///
/// Prefix and payload go out in one buffer: written separately, the
/// small second segment of a frame waits on a reused TCP connection
/// for the peer's delayed ACK (Nagle's algorithm), about 40 ms per
/// frame.
///
/// # Errors
///
/// [`FrameError::Oversize`] when the encoded payload exceeds
/// [`MAX_FRAME`]; [`FrameError::Io`] on stream failure.
pub fn write_frame(w: &mut impl Write, json: &Json) -> Result<(), FrameError> {
    write_payload(w, &json.encode())
}

/// [`write_frame`] for a payload that is already encoded.
fn write_payload(w: &mut impl Write, text: &str) -> Result<(), FrameError> {
    let len = text.len();
    if len > MAX_FRAME {
        return Err(FrameError::Oversize(len));
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.extend_from_slice(text.as_bytes());
    let io = |e: std::io::Error| FrameError::Io(e.to_string());
    w.write_all(&frame).map_err(io)?;
    w.flush().map_err(io)
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream *between*
/// frames (the peer closed after a complete exchange); any mid-frame
/// end is [`FrameError::Truncated`].
///
/// # Errors
///
/// Never panics: torn, oversized, garbage or too deeply nested frames
/// come back as the matching [`FrameError`].
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

/// Serves one connection until the peer closes it. Returns `true` when
/// a `shutdown` request was handled.
pub fn serve(daemon: &mut Daemon, stream: &mut (impl Read + Write)) -> bool {
    loop {
        let req = match read_frame(stream) {
            Ok(Some(req)) => req,
            Ok(None) => return false, // clean disconnect
            Err(e) => {
                // A torn or garbage frame ends this connection, not the
                // daemon; try to tell the peer why.
                let _ = write_frame(stream, &error_response(e.to_string()));
                if !matches!(e, FrameError::Syntax(_) | FrameError::Oversize(_)) {
                    return false;
                }
                continue;
            }
        };
        let (resp, shutdown) = daemon.handle(&req);
        if write_payload(stream, &resp).is_err() {
            return shutdown;
        }
        if shutdown {
            return true;
        }
    }
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn ok_response(mut fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.append(&mut fields);
    obj(pairs)
}

fn error_response(message: String) -> Json {
    obj(vec![
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
            queue_last: 0,
            queue_peak: 0,
        }
    }

    /// The grid mode the daemon serves.
    pub fn mode(&self) -> GridMode {
        self.mode
    }

    /// Maps one request to `(encoded response, shutdown)`. Never panics
    /// on a malformed request: the error goes back to the client and the
    /// daemon keeps serving.
    pub fn handle(&mut self, req: &Json) -> (String, bool) {
        let _span = schematic_obs::span("daemon/request");
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return (error_response("missing field 'op'".into()).encode(), false);
        };
        // Only known ops get a counter of their own: a counter per
        // distinct bogus op would grow the process-global counters, and
        // every `stats` frame that carries them, without bound.
        let counter = match op {
            "submit" => "daemon/op/submit",
            "fetch" => "daemon/op/fetch",
            "stats" => "daemon/op/stats",
            "shutdown" => "daemon/op/shutdown",
            _ => "daemon/op/unknown",
        };
        schematic_obs::gcount(counter, 1);
        let resp = match op {
            "submit" => self.submit(req),
            "fetch" => return (self.fetch(), false),
            "stats" => self.stats(),
            "shutdown" => return (ok_response(vec![]).encode(), true),
            other => error_response(format!("unknown op '{other}'")),
        };
        (resp.encode(), false)
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
            // A key that names nothing would panic in the kernels or the
            // cache keys and take every accumulated cell down with it.
            match Job::parse(key).and_then(|job| job.check().map(|()| job)) {
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
        let (batch, stats) = cache::compute_cached(needed, self.cache.as_mut(), false)?;
        self.store.merge_from(batch)?;
        self.service_reg
            .record_span("daemon/batch", t0.elapsed().as_nanos() as u64);
        self.queue_last = stats.computed as u64;
        self.queue_peak = self.queue_peak.max(self.queue_last);
        Ok((stats.hits, stats.computed))
    }

    /// Resolves hits from the warm cache, streams the misses by pull to
    /// `workers` child `gridrun --jobs` processes, and folds their
    /// worker lines (cell + instrumented-module digests) back into the
    /// store *and* the cache once every job has answered — the daemon
    /// stays the file's only writer because children never open it.
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
        let lines = run_workers(self.mode, self.workers, &misses)?;
        let mut folded = 0;
        let mut records = Vec::new();
        for (worker, text) in lines {
            let line = CellLine::parse(&text)?;
            let ims = line
                .ims
                .ok_or_else(|| GridError("worker line lacks field 'ims'".into()))?;
            *self
                .service_reg
                .counters
                .entry(format!("worker/{worker}/jobs"))
                .or_default() += 1;
            if self.cache.is_some() {
                records.push(cache::keyed_line(
                    line.job.clone(),
                    line.value.clone(),
                    ims,
                    &table,
                    &mut self.sources,
                ));
            }
            if let Some(mut t) = line.telemetry {
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
            }
            self.store.insert(line.job, line.value)?;
            folded += 1;
        }
        if let Some(cache) = &mut self.cache {
            cache.put(records);
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

    /// The encoded `fetch` response: every stored cell as a plain cell
    /// line, in the grid's stable order.
    fn fetch(&self) -> String {
        let mut out = String::from("{\"ok\":true,\"cells\":[");
        for (i, (job, value)) in self.store.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_cell(&mut out, job, value);
        }
        out.push_str("]}");
        out
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
        let records = self.cache.as_ref().map_or(0, CellCache::len) as u64;
        ok_response(vec![
            (
                "uptime_nanos",
                Json::UInt(self.started.elapsed().as_nanos() as u64),
            ),
            ("batches", Json::UInt(self.batches)),
            ("hits", Json::UInt(self.hits)),
            ("computed", Json::UInt(self.computed)),
            ("cells", Json::UInt(self.store.len() as u64)),
            ("cache_memos", Json::UInt(records)),
            ("workers", Json::UInt(self.workers as u64)),
            ("queue_last", Json::UInt(self.queue_last)),
            ("queue_peak", Json::UInt(self.queue_peak)),
            ("registry", Json::Str(schematic_obs::codec::encode(&reg))),
        ])
    }
}

/// Job keys each worker holds at once: the one it is evaluating plus
/// one waiting in its stdin pipe, so it never idles while the daemon
/// answers its last line with the next key.
const IN_FLIGHT: usize = 2;

/// The workers of one dispatched batch. Dropping it kills and reaps
/// every child not yet waited for, so no return path — success, an
/// early error or a panic — leaks one.
struct Batch {
    children: Vec<Child>,
}

impl Drop for Batch {
    fn drop(&mut self) {
        // Both calls are no-ops for a child that was already reaped.
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The dispatch queue of one batch: the sorted misses, the next one to
/// hand out, each worker's stdin (`None` once closed) and the indices
/// of the keys each worker has been sent but not yet answered.
struct Queue<'a> {
    misses: &'a [Job],
    next: usize,
    stdins: Vec<Option<ChildStdin>>,
    sent: Vec<VecDeque<usize>>,
}

impl Queue<'_> {
    /// Hands worker `i` the next key, if any is left. Once the queue is
    /// empty every stdin closes, so each worker exits after its last
    /// answer.
    fn feed(&mut self, i: usize) {
        let Some(job) = self.misses.get(self.next) else {
            return;
        };
        if let Some(stdin) = &mut self.stdins[i] {
            // A worker that already exited fails the write; the key then
            // stays unanswered and its reader reports it at EOF.
            if stdin.write_all(format!("{job}\n").as_bytes()).is_err() {
                self.stdins[i] = None;
            }
        }
        self.sent[i].push_back(self.next);
        self.next += 1;
        if self.next == self.misses.len() {
            self.stdins.iter_mut().for_each(|s| *s = None);
        }
    }
}

/// Evaluates `jobs` on `workers` `gridrun --jobs` processes in `mode`,
/// using the `gridrun` binary beside this executable; see
/// [`run_batch`]. Each returned line decodes with [`CellLine::parse`].
///
/// # Errors
///
/// As [`run_batch`], or when this executable's directory is unknown.
pub fn run_workers(
    mode: GridMode,
    workers: usize,
    jobs: &[Job],
) -> Result<Vec<(usize, String)>, GridError> {
    let gridrun = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("gridrun")))
        .ok_or_else(|| GridError("cannot locate the gridrun binary".into()))?;
    let worker = || {
        let mut cmd = Command::new(&gridrun);
        if mode == GridMode::Quick {
            cmd.arg("--quick");
        }
        cmd.arg("--jobs");
        cmd
    };
    run_batch(worker, workers, jobs)
}

/// Evaluates `misses` on `workers` children made by `worker`, each a
/// line worker: one job key per line in on stdin, one worker line per
/// job out on stdout, exit 0 at EOF. Dispatch is by pull: every worker
/// starts with [`IN_FLIGHT`] keys, and each line it answers earns it the
/// next key in `misses` order, so a slow job stalls only the worker
/// running it. One reader thread per worker forwards complete lines
/// over a channel, so no pipe can fill and deadlock. Returns
/// `(worker index, line)` per answered job, in `misses` order.
///
/// # Errors
///
/// A worker that cannot be spawned, that ends its output with jobs
/// unanswered (naming them), that answers more lines than it was sent,
/// or that exits non-zero fails the whole batch.
fn run_batch(
    worker: impl Fn() -> Command,
    workers: usize,
    misses: &[Job],
) -> Result<Vec<(usize, String)>, GridError> {
    let n = workers.min(misses.len());
    std::thread::scope(|s| {
        // Dropped before the scope joins the readers: killing the
        // children closes their stdout, which ends every reader.
        let mut batch = Batch {
            children: Vec::with_capacity(n),
        };
        let mut queue = Queue {
            misses,
            next: 0,
            stdins: Vec::with_capacity(n),
            sent: vec![VecDeque::new(); n],
        };
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            let mut cmd = worker();
            cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
            let mut child = cmd.spawn().map_err(|e| {
                GridError(format!(
                    "spawn {}: {e}",
                    cmd.get_program().to_string_lossy()
                ))
            })?;
            let stdout = child.stdout.take().expect("stdout is piped");
            queue.stdins.push(child.stdin.take());
            batch.children.push(child);
            let tx = tx.clone();
            s.spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if tx.send((i, Some(line))).is_err() {
                        return;
                    }
                }
                let _ = tx.send((i, None));
            });
        }
        drop(tx);
        for _ in 0..IN_FLIGHT {
            for i in 0..n {
                queue.feed(i);
            }
        }
        let mut lines = vec![None; misses.len()];
        // Ends once every worker has closed its stdout.
        for (i, line) in rx {
            match line {
                Some(line) => {
                    let Some(k) = queue.sent[i].pop_front() else {
                        return Err(GridError(format!(
                            "worker {i} answered more lines than it was sent"
                        )));
                    };
                    lines[k] = Some((i, line));
                    queue.feed(i);
                }
                None if queue.sent[i].is_empty() => {}
                None => {
                    let keys: Vec<String> = queue.sent[i]
                        .iter()
                        .map(|&k| misses[k].to_string())
                        .collect();
                    return Err(GridError(format!(
                        "worker {i} ended its output with {} job(s) unanswered: {}",
                        keys.len(),
                        keys.join(", ")
                    )));
                }
            }
        }
        let mut failed = Vec::new();
        for (i, child) in batch.children.iter_mut().enumerate() {
            let status = child.wait().map_err(|e| GridError(format!("wait: {e}")))?;
            if !status.success() {
                failed.push(format!("worker {i} {status}"));
            }
        }
        if !failed.is_empty() {
            return Err(GridError(format!(
                "{} worker process(es) failed: {}",
                failed.len(),
                failed.join(", ")
            )));
        }
        Ok(lines.into_iter().flatten().collect())
    })
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
    /// Memo keys in the warm disk cache: one per keyed line.
    pub cache_memos: u64,
    /// Configured worker process count (`0` = inline).
    pub workers: u64,
    /// Sum of worker-reported per-job wall nanoseconds: the total of
    /// the registry's `service/job_wall` span.
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
            workers: field("workers")?,
            worker_busy_nanos: job_wall(&registry).1,
            queue_last: field("queue_last")?,
            queue_peak: field("queue_peak")?,
            registry,
        })
    }
}

/// `(calls, total_nanos)` of a service registry's `service/job_wall`
/// span: the jobs workers answered and their busy time (zeros when no
/// job was dispatched).
fn job_wall(reg: &Registry) -> (u64, u64) {
    reg.spans
        .get("service/job_wall")
        .map_or((0, 0), |s| (s.calls, s.total_nanos))
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
        job_wall(&s.registry).0,
        s.worker_busy_nanos / 1_000_000_000,
        s.worker_busy_nanos / 1_000_000 % 1000,
        s.queue_last,
        s.queue_peak,
    )
    .unwrap();
    writeln!(out, "cache: {} memos", s.cache_memos).unwrap();
    out.push('\n');
    out.push_str(&render_service_report(&s.registry, 10));
    out
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
    use crate::grid::GridSpec;
    use std::io::Cursor;

    /// [`Daemon::handle`] with the response decoded.
    fn handle(d: &mut Daemon, req: &Json) -> (Json, bool) {
        let (resp, stop) = d.handle(req);
        (Json::parse(&resp).expect("responses are JSON"), stop)
    }

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
            obj(vec![
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
        write_frame(&mut buf, &obj(vec![("op", Json::Str("stats".into()))])).unwrap();
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
        let submit = obj(vec![
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
        let (resp, stop) = handle(&mut d, &submit);
        assert!(!stop);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("requested").and_then(Json::as_u64), Some(2));
        assert_eq!(resp.get("computed").and_then(Json::as_u64), Some(2));
        // Resubmitting is free: the store already has both cells.
        let (resp, _) = handle(&mut d, &submit);
        assert_eq!(resp.get("computed").and_then(Json::as_u64), Some(0));
        let (stats, _) = handle(&mut d, &obj(vec![("op", Json::Str("stats".into()))]));
        assert_eq!(stats.get("cells").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("batches").and_then(Json::as_u64), Some(2));
        let (fetch, _) = handle(&mut d, &obj(vec![("op", Json::Str("fetch".into()))]));
        let Some(Json::Arr(cells)) = fetch.get("cells") else {
            panic!("fetch returns cells");
        };
        assert_eq!(cells.len(), 2);
        let (resp, stop) = handle(&mut d, &obj(vec![("op", Json::Str("shutdown".into()))]));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert!(stop);
    }

    #[test]
    fn fetch_frame_matches_the_encode_then_parse_form() {
        use crate::grid::CellValue;
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        let (resp, _) = handle(
            &mut d,
            &obj(vec![
                ("op", Json::Str("submit".into())),
                (
                    "jobs",
                    Json::Arr(vec![Json::Str("support/Schematic/crc/0".into())]),
                ),
            ]),
        );
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
        let (new, _) = d.handle(&obj(vec![("op", Json::Str("fetch".into()))]));
        let (mut old_frame, mut new_frame) = (Vec::new(), Vec::new());
        write_frame(&mut old_frame, &old).unwrap();
        write_payload(&mut new_frame, &new).unwrap();
        assert_eq!(new_frame, old_frame);
    }

    fn two_jobs() -> [Job; 2] {
        [
            Job::parse("support/Schematic/crc/0").unwrap(),
            Job::parse("support/Mementos/crc/0").unwrap(),
        ]
    }

    #[test]
    fn failed_spawn_fails_the_batch() {
        let missing =
            std::env::temp_dir().join(format!("gridd-test-{}-no-such-gridrun", std::process::id()));
        let err = run_batch(|| Command::new(&missing), 2, &two_jobs()).unwrap_err();
        assert!(err.to_string().starts_with("spawn "), "got: {err}");
    }

    /// Zombie children of this process whose command name is `comm`.
    #[cfg(target_os = "linux")]
    fn zombies(comm: &str) -> usize {
        let me = std::process::id().to_string();
        let Ok(dir) = std::fs::read_dir("/proc") else {
            return 0;
        };
        dir.filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("stat")).ok())
            .filter(|stat| {
                // `pid (comm) state ppid …`; comm may hold spaces.
                let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
                    return false;
                };
                let mut rest = stat[close + 1..].split_whitespace();
                &stat[open + 1..close] == comm
                    && rest.next() == Some("Z")
                    && rest.next() == Some(me.as_str())
            })
            .count()
    }

    #[cfg(unix)]
    #[test]
    fn silent_workers_fail_naming_the_unanswered_jobs() {
        // `true` exits 0 and `false` exits 1, both without answering.
        for program in ["true", "false"] {
            let t0 = Instant::now();
            let err = run_batch(|| Command::new(program), 2, &two_jobs()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("unanswered"), "{program}: {msg}");
            assert!(
                msg.contains("support/Schematic/crc/0") || msg.contains("support/Mementos/crc/0"),
                "{program}: {msg}"
            );
            assert!(t0.elapsed().as_secs() < 20, "{program}: the batch hung");
            #[cfg(target_os = "linux")]
            assert_eq!(zombies(program), 0, "{program}: a worker was left unreaped");
        }
    }

    #[cfg(unix)]
    #[test]
    fn pull_dispatch_answers_every_job_once_across_workers() {
        // `cat` echoes each key back as its answer line.
        let jobs: Vec<Job> = GridSpec::full_grid(GridMode::Quick).jobs()[..24].to_vec();
        let lines = run_batch(|| Command::new("cat"), 3, &jobs).unwrap();
        let answered: Vec<String> = lines.iter().map(|(_, l)| l.clone()).collect();
        let keys: Vec<String> = jobs.iter().map(Job::to_string).collect();
        assert_eq!(answered, keys, "one answer per job, in job order");
        for w in 0..3 {
            let n = lines.iter().filter(|(i, _)| *i == w).count();
            assert!(n >= IN_FLIGHT, "worker {w} answered {n} jobs");
        }
    }

    #[cfg(unix)]
    #[test]
    fn dropped_batch_kills_and_reaps_its_workers() {
        let child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        let batch = Batch {
            children: vec![child],
        };
        let t0 = Instant::now();
        drop(batch);
        assert!(t0.elapsed().as_secs() < 20, "drop waited for the worker");
        #[cfg(target_os = "linux")]
        assert_eq!(zombies("sleep"), 0, "the worker was left unreaped");
    }

    /// A `Write` that records the length of every `write` call.
    #[derive(Default)]
    struct WriteCalls(Vec<usize>);

    impl Write for WriteCalls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let req = obj(vec![("op", Json::Str("stats".into()))]);
        let mut w = WriteCalls::default();
        write_frame(&mut w, &req).unwrap();
        assert_eq!(w.0, vec![4 + req.encode().len()]);
    }

    #[test]
    fn round_trips_on_one_connection_do_not_stall() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut d = Daemon::new(GridMode::Quick, None, 0);
            serve(&mut d, &mut stream)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let stats = obj(vec![("op", Json::Str("stats".into()))]);
        let t0 = Instant::now();
        for _ in 0..50 {
            let resp = request(&mut client, &stats).unwrap();
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        }
        let elapsed = t0.elapsed();
        let shutdown = obj(vec![("op", Json::Str("shutdown".into()))]);
        request(&mut client, &shutdown).unwrap();
        assert!(server.join().unwrap(), "serve saw the shutdown");
        assert!(
            elapsed.as_secs_f64() < 1.0,
            "50 stats round trips took {elapsed:?}"
        );
    }

    /// A complete frame whose payload opens 100,000 arrays: far past the
    /// reader's nesting cap, and deep enough to overflow the stack of a
    /// reader that recursed once per level without a limit.
    fn deep_frame() -> Vec<u8> {
        let payload = "[".repeat(100_000);
        let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(payload.as_bytes());
        framed
    }

    #[test]
    fn deeply_nested_frames_are_syntax_errors() {
        match read_frame(&mut Cursor::new(deep_frame())) {
            Err(FrameError::Syntax(e)) => assert!(e.contains("nesting"), "{e}"),
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    #[test]
    fn serve_survives_a_deeply_nested_frame() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut d = Daemon::new(GridMode::Quick, None, 0);
            serve(&mut d, &mut stream)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&deep_frame()).unwrap();
        let resp = read_frame(&mut client).unwrap().unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let stats = obj(vec![("op", Json::Str("stats".into()))]);
        let resp = request(&mut client, &stats).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let shutdown = obj(vec![("op", Json::Str("shutdown".into()))]);
        request(&mut client, &shutdown).unwrap();
        assert!(server.join().unwrap(), "serve saw the shutdown");
    }

    #[test]
    fn unknown_ops_share_one_counter() {
        const KNOWN: [&str; 4] = [
            "daemon/op/submit",
            "daemon/op/fetch",
            "daemon/op/stats",
            "daemon/op/shutdown",
        ];
        let before = schematic_obs::gcounters();
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        for i in 0..1000 {
            let (resp, stop) = handle(&mut d, &obj(vec![("op", Json::Str(format!("bogus-{i}")))]));
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
            assert!(!stop);
        }
        // Other tests in this binary may add known op counters at the
        // same time, so only the unknown-op names are counted.
        let added: Vec<String> = schematic_obs::gcounters()
            .into_keys()
            .filter(|k| {
                k.starts_with("daemon/op/")
                    && !KNOWN.contains(&k.as_str())
                    && !before.contains_key(k)
            })
            .collect();
        assert!(added.len() <= 1, "added {} counter names", added.len());
        assert!(schematic_obs::gcounter("daemon/op/unknown") >= 1000);
        let (stats, _) = handle(&mut d, &obj(vec![("op", Json::Str("stats".into()))]));
        let snap = StatsSnapshot::parse(&stats).unwrap();
        assert!(!snap.registry.counters.keys().any(|k| k.contains("bogus")));
    }

    #[test]
    fn daemon_rejects_bad_requests_without_dying() {
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        for bad in [
            Json::Null,
            obj(vec![("op", Json::Str("explode".into()))]),
            obj(vec![("op", Json::Str("submit".into()))]),
        ] {
            let (resp, stop) = handle(&mut d, &bad);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{}", bad.encode());
            assert!(!stop);
        }
        // Keys of the right shape that name nothing: each is refused by
        // name, before anything is computed or keyed.
        let submit = |key: &str| {
            obj(vec![
                ("op", Json::Str("submit".into())),
                ("jobs", Json::Arr(vec![Json::Str(key.into())])),
            ])
        };
        for key in [
            "not-a-job",
            "support/Schematic/nosuchbench/0",
            "support/NoSuchTech/crc/0",
            "ablation/bogus/crc/0",
            "run/Schematic/crc/trace:nosuch",
            "fig7/Bogus/crc/0",
            "run/Ratchet/crc/0",
        ] {
            let (resp, stop) = handle(&mut d, &submit(key));
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{key}");
            let error = resp.get("error").and_then(Json::as_str).unwrap_or("");
            assert!(error.contains(key), "{key}: {error}");
            assert!(!stop);
        }
        // Still alive and serving, with nothing computed.
        let (stats, _) = handle(&mut d, &obj(vec![("op", Json::Str("stats".into()))]));
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        let (resp, _) = handle(&mut d, &submit("support/Schematic/crc/0"));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("cells"), Some(&Json::UInt(1)));
    }

    #[test]
    fn stats_op_reports_a_parseable_snapshot() {
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        let submit = obj(vec![
            ("op", Json::Str("submit".into())),
            (
                "jobs",
                Json::Arr(vec![
                    Json::Str("support/Schematic/crc/0".into()),
                    Json::Str("support/Mementos/crc/0".into()),
                ]),
            ),
        ]);
        let (resp, _) = handle(&mut d, &submit);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let (stats, stop) = handle(&mut d, &obj(vec![("op", Json::Str("stats".into()))]));
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
        // The renderer accepts the snapshot.
        let human = render_stats(&snap);
        assert!(human.contains("gridd stats:"));
        assert!(human.contains("service registry:"));
    }

    #[test]
    fn worker_busy_time_is_the_job_wall_span_total() {
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        let (empty, _) = handle(&mut d, &obj(vec![("op", Json::Str("stats".into()))]));
        assert_eq!(StatsSnapshot::parse(&empty).unwrap().worker_busy_nanos, 0);
        for nanos in [3_000_000, 5_000_000, 11] {
            d.service_reg.record_span("service/job_wall", nanos);
        }
        let (stats, _) = handle(&mut d, &obj(vec![("op", Json::Str("stats".into()))]));
        let snap = StatsSnapshot::parse(&stats).unwrap();
        let span = &snap.registry.spans["service/job_wall"];
        assert_eq!(span.calls, 3);
        assert_eq!(snap.worker_busy_nanos, span.total_nanos);
        assert_eq!(snap.worker_busy_nanos, 8_000_011);
        assert!(render_stats(&snap).contains(" 3 jobs dispatched · busy 0.008s "));
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
    fn stats_frames_survive_truncation_oversize_and_garbage() {
        // A realistic stats response frame, then every prefix of it.
        let mut d = Daemon::new(GridMode::Quick, None, 0);
        let (resp, _) = handle(&mut d, &obj(vec![("op", Json::Str("stats".into()))]));
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
        let (resp, stop) = handle(
            &mut d,
            &obj(vec![
                ("op", Json::Str("stats".into())),
                ("extra", Json::UInt(7)),
            ]),
        );
        assert!(!stop);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }
}

//! `gridrun` — the sharded experiment-grid pipeline from the command
//! line.
//!
//! ```text
//! gridrun                       # compute the full grid in-process, render every report
//! gridrun --quick               # CI-sized grid (soundcheck static-only, Schematic+Ratchet)
//! gridrun --list                # print the job list, one `kind/technique/benchmark/tbpf` per line
//! gridrun --shard i/N -o F      # compute shard i of N, write the cells as JSONL to F ('-' = stdout)
//! gridrun --merge F...          # load shard artifacts, merge, verify coverage, render every report
//! gridrun --spawn N             # evaluate the grid on N `--jobs` worker processes (gridd's
//!                               # pull dispatch), assert the render is byte-identical to the
//!                               # in-process run
//! gridrun --trace F             # compute in-process with tracing on; write the per-cell
//!                               # trace artifact (JSONL, see `tracereport`) to F
//! gridrun --report NAME         # compute one report's slice of the grid and render it
//!                               # (table1..3, fig6..8, ablations, soundcheck)
//! gridrun --report robust       # multi-seed robustness report: completion rate and energy
//!          [--seeds N]          # spread per technique x benchmark across N stochastic
//!                               # seeds (default 8) plus every recorded trace in traces/
//! gridrun --resume F [-o OUT]   # load a (possibly partial) artifact, compute only the
//!                               # missing cells, render; OUT gets the completed artifact
//! gridrun --jobs                # worker mode: read one job key per line on stdin, answer
//!                               # each with one extended cell line (cell + program digests
//!                               # + telemetry) on stdout, flushed at once; exit at EOF
//! gridrun --connect ADDR ...    # thin client for a running `gridd`:
//!                               #   --submit SPEC   evaluate 'all' or shard 'i/N' remotely
//!                               #   --status        print daemon tallies
//!                               #   --fetch -o F    download accumulated cells as JSONL
//!                               #   --stats [--format expo] [-o F]
//!                               #                   print merged service telemetry (human or
//!                               #                   Prometheus-style exposition); -o dumps the
//!                               #                   registry for `tracereport --service`
//!                               #   --shutdown      stop the daemon
//! ```
//!
//! Worker mode is how `gridd --workers N` evaluates a batch: the daemon
//! feeds each of its N workers keys by pull, and a worker evaluates one
//! job at a time. It captures a per-job [`schematic_obs`] registry (span
//! timings, per-job wall latency) and ships it on each worker line;
//! `SCHEMATIC_TELEMETRY=0` disables the capture. Only `--shard` prints
//! ~1 Hz heartbeats; they follow `SCHEMATIC_PROGRESS` (`0` off, `1` on,
//! unset = only when stderr is a terminal).
//!
//! In-process computes (the default run and `--resume`) go through the
//! content-addressed cell cache at `target/gridcache.jsonl`
//! (`SCHEMATIC_CACHE` or `--cache F` overrides, `--no-cache` disables,
//! `--cache-verify` recomputes every hit and fails on divergence).
//! Shard, worker and merge modes never touch the cache: shards may run
//! concurrently, and the cache file has a single writer by design.
//!
//! Shards partition the grid deterministically (every N-th job), so any
//! split computed anywhere — other processes, other hosts — merges back
//! into the same store and renders byte-identical reports. `--merge`
//! refuses stores with missing cells (it lists them) or conflicting
//! duplicates; overlapping shards are fine as long as they agree.
//!
//! Exit codes: 0 on success, 2 on usage/artifact/coverage errors,
//! 3 when `--spawn`'s parity assertion fails.

use schematic_bench::cache::{
    compute_cached, parse_worker_line, worker_line, worker_line_telemetry, CellCache,
    WorkerTelemetry,
};
use schematic_bench::experiments::{render, render_all, render_robust, robust_jobs};
use schematic_bench::grid::{
    evaluate_traced, CellStore, GridError, GridMode, GridSpec, Job, ReportId,
};
use schematic_bench::json::Json;
use schematic_bench::{service, trace};
use schematic_energy::CostTable;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

struct Options {
    mode: GridMode,
    command: Command,
    /// `--trace FILE`: capture per-cell traces (in-process runs only).
    trace: Option<String>,
    /// `--cache FILE` / `--no-cache`.
    cache: CacheOpt,
    /// `--cache-verify`: recompute hits and compare.
    verify: bool,
}

enum CacheOpt {
    /// `target/gridcache.jsonl`, or `SCHEMATIC_CACHE` when set.
    Default,
    Path(String),
    Off,
}

impl CacheOpt {
    fn open(&self) -> Option<CellCache> {
        let path = match self {
            CacheOpt::Off => return None,
            CacheOpt::Path(p) => p.clone(),
            CacheOpt::Default => {
                std::env::var("SCHEMATIC_CACHE").unwrap_or_else(|_| "target/gridcache.jsonl".into())
            }
        };
        Some(CellCache::open(path))
    }
}

enum Command {
    /// Compute everything in-process and render.
    Direct,
    /// Print the job list.
    List,
    /// Compute one shard into an artifact file.
    Shard {
        index: usize,
        count: usize,
        out: String,
    },
    /// Merge artifacts and render.
    Merge { files: Vec<String> },
    /// Drive child processes over all shards, merge, verify parity.
    Spawn { count: usize },
    /// Load a partial artifact, compute the rest, render.
    Resume {
        artifact: String,
        out: Option<String>,
    },
    /// Worker mode: answer job keys on stdin with extended cell lines.
    Jobs,
    /// `--report NAME`: one paper report.
    Report { id: ReportId },
    /// `--report robust`: the multi-seed robustness report.
    Robust { seeds: u64 },
    /// Thin client against a running daemon.
    Connect { addr: String, action: ClientAction },
}

enum ClientAction {
    Submit { spec: String },
    Status,
    Fetch { out: String },
    Stats { expo: bool, out: Option<String> },
    Shutdown,
}

fn usage() -> ! {
    eprintln!(
        "usage: gridrun [--quick] [--trace FILE] [--cache FILE | --no-cache] [--cache-verify] \
         [--list | --shard i/N -o FILE | --merge FILE... | --spawn N | \
         --resume FILE [-o FILE] | --jobs | \
         --report table1|table2|table3|fig6|fig7|fig8|ablations|soundcheck | \
         --report robust [--seeds N] | \
         --connect ADDR (--submit all|i/N | --status | --fetch -o FILE | \
         --stats [--format expo] [-o FILE] | --shutdown)]"
    );
    std::process::exit(2);
}

fn parse_shard_spec(spec: &str) -> Option<(usize, usize)> {
    let (i, n) = spec.split_once('/')?;
    let (i, n) = (i.parse().ok()?, n.parse().ok()?);
    if n == 0 || i >= n {
        return None;
    }
    Some((i, n))
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = GridMode::Full;
    let mut command = None;
    let mut trace = None;
    let mut cache = CacheOpt::Default;
    let mut verify = false;
    let mut seeds = None;
    let mut it = args.into_iter().peekable();
    let set = |c: Command, command: &mut Option<Command>| {
        if command.is_some() {
            usage();
        }
        *command = Some(c);
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => mode = GridMode::Quick,
            "--trace" => {
                if trace.is_some() {
                    usage();
                }
                trace = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--cache" => cache = CacheOpt::Path(it.next().unwrap_or_else(|| usage())),
            "--no-cache" => cache = CacheOpt::Off,
            "--cache-verify" => verify = true,
            "--list" => set(Command::List, &mut command),
            "--shard" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (index, count) = parse_shard_spec(&spec).unwrap_or_else(|| usage());
                let out = match (it.next().as_deref(), it.next()) {
                    (Some("-o"), Some(path)) => path,
                    _ => usage(),
                };
                set(Command::Shard { index, count, out }, &mut command);
            }
            "--merge" => {
                let files: Vec<String> = it.by_ref().collect();
                if files.is_empty() {
                    usage();
                }
                set(Command::Merge { files }, &mut command);
            }
            "--spawn" => {
                let count: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
                set(Command::Spawn { count }, &mut command);
            }
            "--resume" => {
                let artifact = it.next().unwrap_or_else(|| usage());
                let out = if it.peek().map(String::as_str) == Some("-o") {
                    it.next();
                    Some(it.next().unwrap_or_else(|| usage()))
                } else {
                    None
                };
                set(Command::Resume { artifact, out }, &mut command);
            }
            "--jobs" => set(Command::Jobs, &mut command),
            "--report" => match it.next().as_deref() {
                Some("robust") => set(Command::Robust { seeds: 8 }, &mut command),
                Some(name) => {
                    let id = ReportId::from_name(name).unwrap_or_else(|| usage());
                    set(Command::Report { id }, &mut command);
                }
                None => usage(),
            },
            "--seeds" => {
                seeds = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--connect" => {
                let addr = it.next().unwrap_or_else(|| usage());
                let action = match it.next().as_deref() {
                    Some("--submit") => ClientAction::Submit {
                        spec: it.next().unwrap_or_else(|| usage()),
                    },
                    Some("--status") => ClientAction::Status,
                    Some("--fetch") => match (it.next().as_deref(), it.next()) {
                        (Some("-o"), Some(path)) => ClientAction::Fetch { out: path },
                        _ => usage(),
                    },
                    Some("--stats") => {
                        let mut expo = false;
                        let mut out = None;
                        while let Some(next) = it.peek().map(String::as_str) {
                            match next {
                                "--format" => {
                                    it.next();
                                    match it.next().as_deref() {
                                        Some("expo") => expo = true,
                                        _ => usage(),
                                    }
                                }
                                "-o" => {
                                    it.next();
                                    out = Some(it.next().unwrap_or_else(|| usage()));
                                }
                                _ => usage(),
                            }
                        }
                        ClientAction::Stats { expo, out }
                    }
                    Some("--shutdown") => ClientAction::Shutdown,
                    _ => usage(),
                };
                set(Command::Connect { addr, action }, &mut command);
            }
            _ => usage(),
        }
    }
    let mut command = command.unwrap_or(Command::Direct);
    if trace.is_some() && !matches!(command, Command::Direct) {
        eprintln!("gridrun: --trace only applies to the in-process (default) run");
        usage();
    }
    match (&mut command, seeds) {
        (Command::Robust { seeds }, Some(n)) => *seeds = n,
        (_, Some(_)) => {
            eprintln!("gridrun: --seeds only applies to --report robust");
            usage();
        }
        _ => {}
    }
    Options {
        mode,
        command,
        trace,
        cache,
        verify,
    }
}

/// Loads and merges shard artifacts, then verifies they cover `spec`.
fn merge_files(spec: &GridSpec, files: &[PathBuf]) -> Result<CellStore, String> {
    let mut store = CellStore::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let shard = CellStore::from_jsonl(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        store
            .merge_from(shard)
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    let missing = store.missing(spec.jobs());
    if !missing.is_empty() {
        let mut msg = format!(
            "merged store covers {} of {} grid cells; missing:",
            spec.len() - missing.len(),
            spec.len()
        );
        for job in missing.iter().take(10) {
            msg.push_str(&format!("\n  {job}"));
        }
        if missing.len() > 10 {
            msg.push_str(&format!("\n  … and {} more", missing.len() - 10));
        }
        return Err(msg);
    }
    Ok(store)
}

fn write_artifact(path: &str, text: &str) -> Result<(), String> {
    if path == "-" {
        print!("{text}");
        Ok(())
    } else {
        std::fs::write(Path::new(path), text).map_err(|e| format!("{path}: {e}"))
    }
}

/// `--spawn N`: evaluate the grid on N `gridrun --jobs` workers (the
/// daemon's pull dispatch), fold their worker lines, and demand
/// byte-parity with the in-process pipeline.
fn spawn_workers(spec: &GridSpec, mode: GridMode, count: usize) -> Result<String, ExitCode> {
    let fail = |e: GridError| {
        eprintln!("gridrun: {e}");
        ExitCode::from(2)
    };
    let mut store = CellStore::new();
    for (_, line) in service::run_workers(mode, count, spec.jobs()).map_err(fail)? {
        let (job, value, _) = parse_worker_line(&line).map_err(fail)?;
        store.insert(job, value).map_err(fail)?;
    }
    let rendered = render_all(&store, mode);
    let direct = render_all(&CellStore::compute(spec.jobs()), mode);
    if rendered != direct {
        eprintln!(
            "gridrun: PARITY FAILURE — {count}-worker render differs from the \
             in-process render"
        );
        return Err(ExitCode::from(3));
    }
    eprintln!(
        "gridrun: {count} workers · {} cells · render byte-identical to in-process",
        store.len()
    );
    Ok(rendered)
}

/// Cache-aware compute of `jobs`, reporting hit/computed tallies on
/// stderr. `--no-cache` falls through to the plain compute path.
fn compute(jobs: &[Job], opts: &Options) -> Result<CellStore, String> {
    let mut cache = opts.cache.open();
    let (store, stats) =
        compute_cached(jobs, cache.as_mut(), opts.verify, &|_, _| {}).map_err(|e| e.to_string())?;
    match &cache {
        Some(c) => eprintln!(
            "gridrun: cache {}: {} hits, {} computed{}",
            c.path().display(),
            stats.hits,
            stats.computed,
            if opts.verify { " (hits verified)" } else { "" }
        ),
        None => eprintln!("gridrun: cache off: {} computed", stats.computed),
    }
    Ok(store)
}

/// Cache-aware compute of `jobs`, then prints `render` of the store.
fn compute_and_print(
    jobs: &[Job],
    opts: &Options,
    render: impl FnOnce(&CellStore) -> String,
) -> ExitCode {
    match compute(jobs, opts) {
        Ok(store) => {
            print!("{}", render(&store));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gridrun: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--resume F`: complete a partial artifact and render it.
fn resume(
    spec: &GridSpec,
    artifact: &str,
    out: Option<&str>,
    opts: &Options,
) -> Result<String, String> {
    let text = std::fs::read_to_string(artifact).map_err(|e| format!("{artifact}: {e}"))?;
    let mut store = CellStore::from_jsonl(&text).map_err(|e| format!("{artifact}: {e}"))?;
    let loaded = store.len();
    let missing: Vec<Job> = store.missing(spec.jobs()).into_iter().cloned().collect();
    let computed = compute(&missing, opts)?;
    store.merge_from(computed).map_err(|e| e.to_string())?;
    eprintln!(
        "gridrun: resume {artifact}: {loaded} cells loaded, {} missing computed, {} total",
        missing.len(),
        store.len()
    );
    if let Some(out) = out {
        write_artifact(out, &store.to_jsonl())?;
    }
    Ok(render_all(&store, opts.mode))
}

/// `--jobs`: the worker half of the daemon's pull dispatch — read one
/// job key per line from stdin, evaluate it (no cache: the parent owns
/// it), and answer with one extended artifact line on stdout, flushed at
/// once because the daemon hands out the next key only after an answer.
/// Each line carries the program digests plus, unless
/// `SCHEMATIC_TELEMETRY=0`, a captured per-job registry the daemon
/// merges into its service telemetry. Returns at stdin EOF.
fn run_jobs() -> Result<(), String> {
    use std::io::{BufRead, Write};
    let table = CostTable::msp430fr5969();
    let telemetry_on = std::env::var("SCHEMATIC_TELEMETRY").map_or(true, |v| v != "0");
    if telemetry_on {
        schematic_obs::set_enabled(true);
    }
    let mut out = std::io::stdout().lock();
    let mut done = 0usize;
    for (lineno, line) in std::io::stdin().lock().lines().enumerate() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let job = Job::parse(line.trim()).map_err(|e| format!("stdin:{}: {e}", lineno + 1))?;
        let mut answer = if telemetry_on {
            let t0 = Instant::now();
            let ((value, ims), mut registry) =
                schematic_obs::capture(|| evaluate_traced(&job, &table));
            let wall_nanos = t0.elapsed().as_nanos() as u64;
            registry.record_span(&format!("job/{job}"), wall_nanos);
            let telemetry = WorkerTelemetry {
                wall_nanos,
                registry,
            };
            worker_line_telemetry(&job, &value, &ims, &telemetry)
        } else {
            let (value, ims) = evaluate_traced(&job, &table);
            worker_line(&job, &value, &ims)
        };
        answer.push('\n');
        out.write_all(answer.as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("stdout: {e}"))?;
        done += 1;
    }
    eprintln!("gridrun: worker evaluated {done} cells");
    Ok(())
}

/// Whether progress heartbeats go to stderr: `SCHEMATIC_PROGRESS=0`
/// silences them, `=1` (or any other value) forces them, and unset
/// follows whether stderr is attached to a terminal.
fn progress_enabled() -> bool {
    use std::io::IsTerminal as _;
    match std::env::var("SCHEMATIC_PROGRESS") {
        Ok(v) => v != "0",
        Err(_) => std::io::stderr().is_terminal(),
    }
}

/// `--connect ADDR`: one request against a running daemon.
fn connect(spec: &GridSpec, addr: &str, action: &ClientAction) -> Result<(), String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let obj = |pairs: Vec<(&str, Json)>| {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let req = match action {
        ClientAction::Submit { spec: which } => {
            let jobs: Vec<Job> = match which.as_str() {
                "all" => spec.jobs().to_vec(),
                shard => {
                    let (i, n) = parse_shard_spec(shard)
                        .ok_or_else(|| format!("bad --submit spec '{shard}' (want all or i/N)"))?;
                    spec.shard(i, n)
                }
            };
            obj(vec![
                ("op", Json::Str("submit".into())),
                (
                    "jobs",
                    Json::Arr(jobs.iter().map(|j| Json::Str(j.to_string())).collect()),
                ),
            ])
        }
        ClientAction::Status => obj(vec![("op", Json::Str("status".into()))]),
        ClientAction::Fetch { .. } => obj(vec![("op", Json::Str("fetch".into()))]),
        ClientAction::Stats { .. } => obj(vec![("op", Json::Str("stats".into()))]),
        ClientAction::Shutdown => obj(vec![("op", Json::Str("shutdown".into()))]),
    };
    let resp = service::request(&mut stream, &req).map_err(|e| e.to_string())?;
    if resp.get("ok") != Some(&Json::Bool(true)) {
        let detail = resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("malformed response");
        return Err(format!("daemon error: {detail}"));
    }
    match action {
        ClientAction::Fetch { out } => {
            let Some(Json::Arr(cells)) = resp.get("cells") else {
                return Err("daemon error: fetch response carries no cells".into());
            };
            let mut artifact = String::new();
            for cell in cells {
                artifact.push_str(&cell.encode());
                artifact.push('\n');
            }
            write_artifact(out, &artifact)?;
            eprintln!("gridrun: fetched {} cells from {addr}", cells.len());
        }
        ClientAction::Stats { expo, out } => {
            let snap =
                service::StatsSnapshot::parse(&resp).map_err(|e| format!("daemon error: {e}"))?;
            if let Some(out) = out {
                let text = resp
                    .get("registry")
                    .and_then(Json::as_str)
                    .expect("StatsSnapshot::parse checked the registry field");
                write_artifact(out, text)?;
                eprintln!("gridrun: dumped service registry from {addr} to {out}");
            }
            if *expo {
                print!("{}", service::render_stats_expo(&snap));
            } else {
                print!("{}", service::render_stats(&snap));
            }
        }
        _ => {
            // Print the response fields (minus the ok flag) as a flat
            // summary line.
            let Json::Obj(pairs) = &resp else {
                return Err("daemon error: non-object response".into());
            };
            let summary: Vec<String> = pairs
                .iter()
                .filter(|(k, _)| k != "ok")
                .map(|(k, v)| format!("{k}={}", v.encode()))
                .collect();
            println!(
                "gridrun: {addr}: {}",
                if summary.is_empty() {
                    "ok".to_string()
                } else {
                    summary.join(" ")
                }
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut opts = parse_args();
    let spec = GridSpec::full_grid(opts.mode);
    match std::mem::replace(&mut opts.command, Command::List) {
        Command::Direct => {
            let store = match &opts.trace {
                None => match compute(spec.jobs(), &opts) {
                    Ok(store) => store,
                    Err(e) => {
                        eprintln!("gridrun: {e}");
                        return ExitCode::from(2);
                    }
                },
                // A real file streams: overflow event chunks spill to
                // disk during capture, so no event is ever dropped.
                // Stdout ("-") keeps the buffered ring-capped path.
                Some(path) if path != "-" => {
                    let file = match std::fs::File::create(Path::new(path)) {
                        Ok(f) => f,
                        Err(e) => {
                            eprintln!("gridrun: {path}: {e}");
                            return ExitCode::from(2);
                        }
                    };
                    let writer = std::io::BufWriter::new(file);
                    let (store, traces) = match trace::capture_grid_streaming(spec.jobs(), writer) {
                        Ok(out) => out,
                        Err(e) => {
                            eprintln!("gridrun: {path}: {e}");
                            return ExitCode::from(2);
                        }
                    };
                    eprintln!(
                        "gridrun: wrote {} cell traces ({} events resident, {} streamed) to {path}",
                        traces.len(),
                        traces.iter().map(|t| t.events.len()).sum::<usize>(),
                        traces.iter().map(|t| t.spilled_events).sum::<u64>()
                    );
                    store
                }
                Some(path) => {
                    let (store, traces) = trace::capture_grid(spec.jobs());
                    if let Err(e) = write_artifact(path, &trace::to_jsonl(&traces)) {
                        eprintln!("gridrun: {e}");
                        return ExitCode::from(2);
                    }
                    eprintln!(
                        "gridrun: wrote {} cell traces ({} events) to {path}",
                        traces.len(),
                        traces.iter().map(|t| t.events.len()).sum::<usize>()
                    );
                    store
                }
            };
            print!("{}", render_all(&store, opts.mode));
            ExitCode::SUCCESS
        }
        Command::List => {
            for job in spec.jobs() {
                println!("{job}");
            }
            ExitCode::SUCCESS
        }
        Command::Shard { index, count, out } => {
            let jobs = spec.shard(index, count);
            let start = Instant::now();
            let last_beat = AtomicU64::new(0);
            let progress = progress_enabled();
            if progress {
                eprintln!(
                    "gridrun: shard {index}/{count} starting: 0/{} cells",
                    jobs.len()
                );
            }
            let store = CellStore::compute_with_progress(&jobs, &|done, total| {
                if !progress {
                    return;
                }
                let elapsed = start.elapsed();
                let secs = elapsed.as_secs();
                let prev = last_beat.load(Ordering::Relaxed);
                let due = secs > prev
                    && last_beat
                        .compare_exchange(prev, secs, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok();
                if due || done == total {
                    eprintln!(
                        "gridrun: shard {index}/{count} heartbeat: {done}/{total} cells, \
                         {:.1}s elapsed",
                        elapsed.as_secs_f64()
                    );
                }
            });
            match write_artifact(&out, &store.to_jsonl()) {
                Ok(()) => {
                    eprintln!(
                        "gridrun: shard {index}/{count} computed {} of {} cells",
                        jobs.len(),
                        spec.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("gridrun: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Command::Merge { files } => {
            let paths: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
            match merge_files(&spec, &paths) {
                Ok(store) => {
                    print!("{}", render_all(&store, opts.mode));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("gridrun: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Command::Spawn { count } => match spawn_workers(&spec, opts.mode, count) {
            Ok(rendered) => {
                print!("{rendered}");
                ExitCode::SUCCESS
            }
            Err(code) => code,
        },
        Command::Resume { artifact, out } => {
            match resume(&spec, &artifact, out.as_deref(), &opts) {
                Ok(rendered) => {
                    print!("{rendered}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("gridrun: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Command::Jobs => match run_jobs() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gridrun: {e}");
                ExitCode::from(2)
            }
        },
        Command::Report { id } => {
            let slice = GridSpec::for_report(id, opts.mode);
            compute_and_print(slice.jobs(), &opts, |store| render(id, store, opts.mode))
        }
        // The robustness grid goes through the same cache-aware compute
        // as the paper grid, so `--cache-verify` covers scenario cells.
        Command::Robust { seeds } => compute_and_print(&robust_jobs(seeds), &opts, |store| {
            render_robust(store, seeds)
        }),
        Command::Connect { addr, action } => match connect(&spec, &addr, &action) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gridrun: {e}");
                ExitCode::from(2)
            }
        },
    }
}

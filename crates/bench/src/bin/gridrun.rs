//! `gridrun` — the sharded experiment-grid pipeline from the command
//! line.
//!
//! ```text
//! gridrun                       # compute the full grid in-process, render every report
//! gridrun --quick               # CI-sized grid (soundcheck static-only, Schematic+Ratchet)
//! gridrun --list                # print the job list, one `kind/technique/benchmark/tbpf` per line
//! gridrun --shard i/N -o F      # compute shard i of N, write keyed cell lines to F ('-' = stdout);
//!                               # the artifact is also a cache file (`--cache F`)
//! gridrun --merge F...          # load shard, fetch or cache files, merge, verify coverage,
//!                               # render every report
//! gridrun --trace F             # compute in-process with tracing on; write the per-cell
//!                               # trace artifact (JSONL, see `tracereport`) to F
//! gridrun --report NAME         # compute one report's slice of the grid and render it
//!                               # (table1..3, fig6..8, ablations, soundcheck)
//! gridrun --report soundcheck   # append per-region verdicts and the region-class
//!          --explain            # histogram (`^hist ` lines) to the soundness check
//! gridrun --report robust       # multi-seed robustness report: completion rate and energy
//!          [--seeds N]          # spread per technique x benchmark across N stochastic
//!                               # seeds (default 8) plus every recorded trace in traces/
//! gridrun --jobs                # worker mode: read one job key per line on stdin, answer
//!                               # each with one cell line (cell + program digests +
//!                               # telemetry) on stdout, flushed at once; exit at EOF
//! gridrun --connect ADDR ...    # thin client for a running `gridd`:
//!                               #   --submit SPEC   evaluate 'all' or shard 'i/N' remotely
//!                               #   --fetch -o F    download accumulated cells as JSONL
//!                               #   --stats [-o F]  print daemon tallies and merged service
//!                               #                   telemetry; -o dumps the registry (codec
//!                               #                   JSONL) for `tracereport --service`
//!                               #   --shutdown      stop the daemon
//! ```
//!
//! Worker mode is how `gridd --workers N` evaluates a batch: the daemon
//! feeds each of its N workers keys by pull, and a worker evaluates one
//! job at a time. It captures a per-job [`schematic_obs`] registry (span
//! timings, per-job wall latency) and ships it on each answer line.
//!
//! In-process computes (the default run and `--report`) go through the
//! content-addressed cell cache at `target/gridcache.jsonl` (`--cache F`
//! overrides, `--no-cache` disables, `--cache-verify` recomputes every
//! hit and fails on divergence). A shard artifact is a cache file, so
//! `--cache F` on a partial artifact computes only the missing cells
//! and appends them to F. Shard, worker and merge modes never open the
//! cache: shards may run concurrently, and the cache file has a single
//! writer by design.
//!
//! Shards partition the grid deterministically (every N-th job), so any
//! split computed anywhere — other processes, other hosts — merges back
//! into the same store and renders byte-identical reports. `--merge`
//! refuses stores with missing cells (it lists them) or conflicting
//! duplicates; overlapping shards are fine as long as they agree.
//!
//! Every mode that prints the soundness check (the default run, with or
//! without `--trace`, `--merge` and `--report soundcheck`) exits 1 when
//! its verdict is FAIL: a `hazardous` region under Schematic or Ratchet,
//! or a WAR the shadow recorder observed but the static analysis did not
//! predict.
//!
//! Exit codes: 0 on success, 1 on a soundcheck FAIL, 2 on
//! usage/artifact/coverage errors.

use schematic_bench::cache::{compute_cached, evaluate_keyed, CellCache, SourceDigests};
use schematic_bench::experiments::{
    render, render_all, render_robust, render_soundcheck, render_soundcheck_explain, robust_jobs,
};
use schematic_bench::grid::{
    evaluate_traced, CellLine, CellStore, GridMode, GridSpec, Job, ReportId, WorkerTelemetry,
};
use schematic_bench::json::Json;
use schematic_bench::{service, trace};
use schematic_energy::CostTable;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
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
    /// `target/gridcache.jsonl`.
    Default,
    Path(String),
    Off,
}

impl CacheOpt {
    fn open(&self) -> Option<CellCache> {
        match self {
            CacheOpt::Off => None,
            CacheOpt::Path(p) => Some(CellCache::open(p)),
            CacheOpt::Default => Some(CellCache::open("target/gridcache.jsonl")),
        }
    }
}

enum Command {
    /// Compute everything in-process and render.
    Direct,
    /// Print the job list.
    List,
    /// Compute one shard into a keyed artifact file.
    Shard {
        index: usize,
        count: usize,
        out: String,
    },
    /// Merge artifacts and render.
    Merge { files: Vec<String> },
    /// Worker mode: answer job keys on stdin with cell lines.
    Jobs,
    /// `--report NAME`: one paper report; `explain` (`--explain`, for
    /// the soundness check only) appends per-region verdicts.
    Report { id: ReportId, explain: bool },
    /// `--report robust`: the multi-seed robustness report.
    Robust { seeds: u64 },
    /// Thin client against a running daemon.
    Connect { addr: String, action: ClientAction },
}

enum ClientAction {
    Submit { spec: String },
    Fetch { out: String },
    Stats { out: Option<String> },
    Shutdown,
}

fn usage() -> ! {
    eprintln!(
        "usage: gridrun [--quick] [--trace FILE] [--cache FILE | --no-cache] [--cache-verify] \
         [--list | --shard i/N -o FILE | --merge FILE... | --jobs | \
         --report table1|table2|table3|fig6|fig7|fig8|ablations | \
         --report soundcheck [--explain] | \
         --report robust [--seeds N] | \
         --connect ADDR (--submit all|i/N | --fetch -o FILE | \
         --stats [-o FILE] | --shutdown)]"
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
    let mut explain = false;
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
            "--explain" => explain = true,
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
            "--jobs" => set(Command::Jobs, &mut command),
            "--report" => match it.next().as_deref() {
                Some("robust") => set(Command::Robust { seeds: 8 }, &mut command),
                Some(name) => {
                    let id = ReportId::from_name(name).unwrap_or_else(|| usage());
                    set(Command::Report { id, explain: false }, &mut command);
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
                    Some("--fetch") => match (it.next().as_deref(), it.next()) {
                        (Some("-o"), Some(path)) => ClientAction::Fetch { out: path },
                        _ => usage(),
                    },
                    Some("--stats") => match (it.next().as_deref(), it.next()) {
                        (None, _) => ClientAction::Stats { out: None },
                        (Some("-o"), Some(path)) => ClientAction::Stats { out: Some(path) },
                        _ => usage(),
                    },
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
    match (&mut command, explain) {
        (
            Command::Report {
                id: ReportId::Soundcheck,
                explain,
            },
            true,
        ) => *explain = true,
        (_, true) => {
            eprintln!("gridrun: --explain only applies to --report soundcheck");
            usage();
        }
        _ => {}
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

/// Loads and merges files of cell lines (shard, fetch or cache files),
/// then verifies they cover `spec`.
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

/// Cache-aware compute of `jobs`, reporting hit/computed tallies on
/// stderr. `--no-cache` falls through to the plain compute path.
fn compute(jobs: &[Job], opts: &Options) -> Result<CellStore, String> {
    let mut cache = opts.cache.open();
    let (store, stats) =
        compute_cached(jobs, cache.as_mut(), opts.verify).map_err(|e| e.to_string())?;
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

/// `--jobs`: the worker half of the daemon's pull dispatch — read one
/// job key per line from stdin, evaluate it (no cache: the parent owns
/// it), and answer with one cell line on stdout, flushed at once because
/// the daemon hands out the next key only after an answer. Each line
/// carries the program digests and a captured per-job registry the
/// daemon merges into its service telemetry. Returns at stdin EOF.
fn run_jobs() -> Result<(), String> {
    use std::io::{BufRead, Write};
    let table = CostTable::msp430fr5969();
    schematic_obs::set_enabled(true);
    let mut out = std::io::stdout().lock();
    let mut answer = String::new();
    let mut done = 0usize;
    for (lineno, line) in std::io::stdin().lock().lines().enumerate() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let job = Job::parse(line.trim()).map_err(|e| format!("stdin:{}: {e}", lineno + 1))?;
        let t0 = Instant::now();
        let ((value, ims), mut registry) = schematic_obs::capture(|| evaluate_traced(&job, &table));
        let wall_nanos = t0.elapsed().as_nanos() as u64;
        registry.record_span(&format!("job/{job}"), wall_nanos);
        let telemetry = WorkerTelemetry {
            wall_nanos,
            registry,
        };
        answer.clear();
        CellLine {
            ims: Some(ims),
            telemetry: Some(telemetry),
            ..CellLine::plain(job, value)
        }
        .write(&mut answer);
        answer.push('\n');
        out.write_all(answer.as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("stdout: {e}"))?;
        done += 1;
    }
    eprintln!("gridrun: worker evaluated {done} cells");
    Ok(())
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
        ClientAction::Stats { out } => {
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
            print!("{}", service::render_stats(&snap));
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

/// Prints `text`, rendered from `store` with its soundcheck section,
/// and exits 1 when that section's verdict is FAIL.
fn print_checked(text: &str, store: &CellStore, mode: GridMode) -> ExitCode {
    print!("{text}");
    if render_soundcheck(store, mode).1 {
        ExitCode::SUCCESS
    } else {
        eprintln!("gridrun: soundcheck verdict: FAIL");
        ExitCode::from(1)
    }
}

/// Runs the parsed command; `Err` is a usage, artifact or coverage
/// error (exit 2).
fn run(opts: &Options) -> Result<ExitCode, String> {
    let spec = GridSpec::full_grid(opts.mode);
    match &opts.command {
        Command::Direct => {
            let store = match &opts.trace {
                None => compute(spec.jobs(), opts)?,
                // The artifact streams: overflow event chunks go out
                // during capture, so no event is ever dropped.
                Some(path) => {
                    let sink: Box<dyn std::io::Write + Send> = if path == "-" {
                        Box::new(std::io::stdout())
                    } else {
                        Box::new(
                            std::fs::File::create(Path::new(path))
                                .map_err(|e| format!("{path}: {e}"))?,
                        )
                    };
                    let writer = std::io::BufWriter::new(sink);
                    let (store, traces) = trace::capture_grid_streaming(spec.jobs(), writer)
                        .map_err(|e| format!("{path}: {e}"))?;
                    eprintln!(
                        "gridrun: wrote {} cell traces ({} events resident, {} streamed) to {path}",
                        traces.len(),
                        traces.iter().map(|t| t.events.len()).sum::<usize>(),
                        traces.iter().map(|t| t.spilled_events).sum::<u64>()
                    );
                    store
                }
            };
            Ok(print_checked(
                &render_all(&store, opts.mode),
                &store,
                opts.mode,
            ))
        }
        Command::List => {
            for job in spec.jobs() {
                println!("{job}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Shard { index, count, out } => {
            let jobs = spec.shard(*index, *count);
            let table = CostTable::msp430fr5969();
            let lines = evaluate_keyed(&jobs, &table, &mut SourceDigests::new());
            let mut artifact = String::new();
            for line in &lines {
                line.write(&mut artifact);
                artifact.push('\n');
            }
            write_artifact(out, &artifact)?;
            eprintln!(
                "gridrun: shard {index}/{count} computed {} of {} cells",
                jobs.len(),
                spec.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        Command::Merge { files } => {
            let paths: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
            let store = merge_files(&spec, &paths)?;
            Ok(print_checked(
                &render_all(&store, opts.mode),
                &store,
                opts.mode,
            ))
        }
        Command::Jobs => {
            run_jobs()?;
            Ok(ExitCode::SUCCESS)
        }
        Command::Report { id, explain } => {
            let store = compute(GridSpec::for_report(*id, opts.mode).jobs(), opts)?;
            let mut text = render(*id, &store, opts.mode);
            if *id != ReportId::Soundcheck {
                print!("{text}");
                return Ok(ExitCode::SUCCESS);
            }
            if *explain {
                text.push_str(&render_soundcheck_explain(&store, opts.mode));
            }
            Ok(print_checked(&text, &store, opts.mode))
        }
        // The robustness grid goes through the same cache-aware compute
        // as the paper grid, so `--cache-verify` covers scenario cells.
        Command::Robust { seeds } => {
            let store = compute(&robust_jobs(*seeds), opts)?;
            print!("{}", render_robust(&store, *seeds));
            Ok(ExitCode::SUCCESS)
        }
        Command::Connect { addr, action } => {
            connect(&spec, addr, action)?;
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    run(&parse_args()).unwrap_or_else(|e| {
        eprintln!("gridrun: {e}");
        ExitCode::from(2)
    })
}

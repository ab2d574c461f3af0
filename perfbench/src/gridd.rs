//! The `gridd` workload: the submit→fetch flow of the grid service
//! with two worker processes.
//!
//! A pass (one cycle) starts `gridd --workers 2` with
//! `SCHEMATIC_JOBS=1` on an empty cache file, submits the full paper
//! grid plus a robust slice over one connection, fetches every cell
//! and renders every report with `render_all`. It then restarts the
//! daemon on the now-warm file and resubmits; every job must be a hit
//! and the fetched cells must equal the cold ones.

use crate::layers::Spans;
use crate::measure::{self, derive, Passes};
use crate::{Args, Env, Tally, WorkloadRun, SETUPS};
use schematic_bench::experiments::{render_all, ROBUST_JITTER};
use schematic_bench::grid::{cell_from_json, CellStore, CellValue, GridMode, GridSpec, Job};
use schematic_bench::json::Json;
use schematic_bench::{cache, service, technique_names, Scenario, ENERGY_TBPF};
use schematic_energy::CostTable;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// The submitted jobs: the full paper grid plus every technique ×
/// kernel under two stochastic supplies seeded from the workload seed.
pub fn jobs(seed: u64) -> Vec<Job> {
    let mut jobs = GridSpec::full_grid(GridMode::Full).jobs().to_vec();
    for stream in [10, 11] {
        let scenario = Scenario::Stochastic {
            mean_tbpf: ENERGY_TBPF,
            jitter: ROBUST_JITTER,
            seed: derive(seed, stream),
        };
        for technique in technique_names() {
            for b in schematic_benchsuite::all() {
                jobs.push(Job::run_scenario(technique, b.name, scenario.clone()));
            }
        }
    }
    jobs.sort();
    jobs.dedup();
    jobs
}

fn op(name: &str) -> Json {
    Json::Obj(vec![("op".into(), Json::Str(name.into()))])
}

fn field(resp: &Json, name: &str) -> u64 {
    resp.get(name).and_then(Json::as_u64).unwrap_or(0)
}

/// A running daemon and the benchmark's one connection to it. Dropping
/// it without [`Daemon::shutdown`] kills the daemon's process group
/// (its workers included) and waits for the daemon.
struct Daemon {
    child: Child,
    stream: TcpStream,
    stopped: bool,
}

impl Daemon {
    fn start(env: &Env, cache: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(env.bin_dir.join("gridd"))
            .arg("--workers")
            .arg("2")
            .arg("--cache")
            .arg(cache)
            .env("SCHEMATIC_JOBS", "1")
            .env("SCHEMATIC_PROGRESS", "0")
            .env("TMPDIR", &env.work)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawn gridd: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("gridd: listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                kill_group(&mut child);
                return Err(format!("gridd did not report its address (got {line:?})"));
            }
        };
        match TcpStream::connect(&addr) {
            Ok(stream) => Ok(Daemon {
                child,
                stream,
                stopped: false,
            }),
            Err(e) => {
                kill_group(&mut child);
                Err(format!("connect {addr}: {e}"))
            }
        }
    }

    fn call(&mut self, req: &Json) -> Result<Json, String> {
        let resp = service::request(&mut self.stream, req).map_err(|e| e.to_string())?;
        if resp.get("ok") != Some(&Json::Bool(true)) {
            let error = resp.get("error").and_then(Json::as_str).unwrap_or("?");
            return Err(format!("gridd: {error}"));
        }
        Ok(resp)
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.call(&op("shutdown"))?;
        let status = self.child.wait().map_err(|e| format!("wait gridd: {e}"))?;
        self.stopped = true;
        if status.success() {
            Ok(())
        } else {
            Err(format!("gridd exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            kill_group(&mut self.child);
        }
    }
}

/// Kills a daemon's process group and reaps the daemon.
fn kill_group(child: &mut Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    if let Ok(pid) = i32::try_from(child.id()) {
        // SAFETY: `kill` only sends a signal; the negative pid names the
        // process group the daemon leads (it was spawned with
        // `process_group(0)` and has not been reaped yet).
        unsafe {
            kill(-pid, SIGKILL);
        }
    }
    let _ = child.wait();
}

/// Decodes a fetch response into a cell store.
fn store_of(resp: &Json) -> Result<CellStore, String> {
    let Some(Json::Arr(cells)) = resp.get("cells") else {
        return Err("fetch response carries no cells".into());
    };
    let mut store = CellStore::new();
    for cell in cells {
        let (job, value) = cell_from_json(cell).map_err(|e| e.to_string())?;
        store.insert(job, value).map_err(|e| e.to_string())?;
    }
    Ok(store)
}

/// The exact simulated results of one fetched store.
#[derive(Debug, Clone, Copy, Default)]
pub struct Results {
    /// Cells fetched in one cycle (cold plus warm fetch).
    pub cells: f64,
    /// Instructions retired by the measured runs the cells report.
    pub insts: f64,
    /// Schematic's total energy over the eight kernels at TBPF 10k, µJ.
    pub energy_uj: f64,
    /// `run` cells that completed with the oracle's result.
    pub completed: f64,
}

fn results(store: &CellStore, jobs: &[Job]) -> Results {
    let mut r = Results::default();
    for job in jobs {
        match store.get(job) {
            Some(CellValue::Run {
                outcome: Some(o), ..
            }) => {
                r.insts += o.metrics.insts_retired as f64;
                let cell =
                    store.run_cell_scenario(&job.technique, &job.benchmark, job.scenario.clone());
                if cell.ok() {
                    r.completed += 1.0;
                }
                if job.technique == "Schematic" && job.tbpf() == Some(ENERGY_TBPF) {
                    r.energy_uj += o.metrics.total_energy().as_uj();
                }
            }
            Some(CellValue::Measured {
                metrics: Some(m), ..
            }) => r.insts += m.insts_retired as f64,
            _ => {}
        }
    }
    r
}

/// One grid workload instance: its jobs, request and reference output.
pub struct Grid {
    jobs: Vec<Job>,
    submit: Json,
    /// The first cycle's cells and render; later cycles must match.
    reference: Option<(CellStore, String)>,
}

impl Grid {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Grid {
        let jobs = jobs(seed);
        let keys = jobs.iter().map(|j| Json::Str(j.to_string())).collect();
        let submit = Json::Obj(vec![
            ("op".into(), Json::Str("submit".into())),
            ("jobs".into(), Json::Arr(keys)),
        ]);
        Grid {
            jobs,
            submit,
            reference: None,
        }
    }

    /// One cold+warm cycle. Returns the timed seconds and the cycle's
    /// results; checks run after the clock stops.
    pub fn cycle(
        &mut self,
        env: &Env,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Result<(f64, Results), String> {
        let cache = env.work.join("gridcache.jsonl");
        match std::fs::remove_file(&cache) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("remove {}: {e}", cache.display()))
            }
            _ => {}
        }
        let t0 = Instant::now();
        let mut cold = Daemon::start(env, &cache)?;
        let cold_resp = spans.time("service.submit_cold_ms", || cold.call(&self.submit))?;
        let cold_stats = if spans.enabled() {
            Some(cold.call(&op("stats"))?)
        } else {
            None
        };
        let fetched = spans.time("service.fetch_ms", || cold.call(&op("fetch")))?;
        let store = store_of(&fetched)?;
        let report = spans.time("experiments.render_ms", || {
            render_all(&store, GridMode::Full)
        });
        cold.shutdown()?;
        let mut warm = Daemon::start(env, &cache)?;
        let warm_resp = spans.time("service.submit_warm_ms", || warm.call(&self.submit))?;
        let warm_stats = if spans.enabled() {
            Some(warm.call(&op("stats"))?)
        } else {
            None
        };
        let warm_store = store_of(&warm.call(&op("fetch"))?)?;
        warm.shutdown()?;
        let wall = t0.elapsed().as_secs_f64();

        let n = self.jobs.len() as u64;
        // Cold: every job fetched, and no completed run disagrees with
        // the native oracle.
        for job in &self.jobs {
            let ok = match store.get(job) {
                Some(CellValue::Run {
                    outcome: Some(o), ..
                }) => o.status != schematic_emu::RunStatus::Completed || o.correct,
                Some(_) => true,
                None => false,
            };
            tally.check(ok);
        }
        tally.check(field(&cold_resp, "computed") == n);
        // Warm: all hits, and the replayed cells equal the cold ones.
        tally.add(n, n.saturating_sub(field(&warm_resp, "hits")));
        tally.check(warm_store == store);
        let r = Results {
            cells: (store.len() + warm_store.len()) as f64,
            ..results(&store, &self.jobs)
        };
        match &self.reference {
            Some((ref_store, ref_report)) => {
                tally.check(*ref_store == store && *ref_report == report);
            }
            None => self.reference = Some((store, report)),
        }
        if let (Some(cold_stats), Some(warm_stats)) = (cold_stats, warm_stats) {
            record_stats(&cold_stats, &warm_stats, spans)?;
            record_cache(&cache, &self.jobs, spans);
        }
        Ok((wall, r))
    }
}

/// Worker utilization and cache tallies from the daemons' `stats` op.
fn record_stats(cold: &Json, warm: &Json, spans: &mut Spans) -> Result<(), String> {
    let cold = service::StatsSnapshot::parse(cold)?;
    let warm = service::StatsSnapshot::parse(warm)?;
    let batch = cold
        .registry
        .spans
        .get("daemon/batch")
        .map_or(0, |s| s.total_nanos);
    if batch > 0 && cold.workers > 0 {
        let util = cold.worker_busy_nanos as f64 / (cold.workers as f64 * batch as f64);
        spans.record("service.worker_util", util);
    }
    let counter = |s: &service::StatsSnapshot, name: &str| {
        s.registry.counters.get(name).copied().unwrap_or(0) as f64
    };
    spans.record(
        "cache.hits",
        counter(&cold, "cache/hit") + counter(&warm, "cache/hit"),
    );
    spans.record(
        "cache.misses",
        counter(&cold, "cache/miss") + counter(&warm, "cache/miss"),
    );
    Ok(())
}

/// Opening the warm cache file and resolving every job against it,
/// in this process.
fn record_cache(path: &Path, jobs: &[Job], spans: &mut Spans) {
    let cache = spans.time("cache.open_ms", || cache::CellCache::open(path));
    let table = CostTable::msp430fr5969();
    let mut sources = cache::SourceDigests::new();
    let (hits, misses) = spans.time("cache.resolve_ms", || {
        cache::resolve(jobs, &cache, &table, &mut sources)
    });
    std::hint::black_box((hits, misses));
}

/// Runs the workload.
///
/// # Errors
///
/// A daemon that could not be started, reached or stopped, or a
/// malformed response.
pub fn run(
    args: &Args,
    env: &Env,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<WorkloadRun, String> {
    // Set-up is the job list plus one untimed cycle (binaries paged in,
    // reference cells recorded); it is repeated for a stable median.
    let mut setups = Vec::new();
    let mut grid = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut g = Grid::new(args.seed);
        g.cycle(env, spans, tally)?;
        setups.push(t.elapsed().as_secs_f64());
        grid = Some(g);
    }
    let mut grid = grid.expect("at least one set-up");
    let mut last = Results::default();
    let passes: Passes = measure::run_passes(args.seconds, args.trace, spans, |spans| {
        let (wall, r) = grid.cycle(env, spans, tally)?;
        last = r;
        Ok(wall)
    })?;
    Ok(WorkloadRun {
        setups,
        passes,
        cells_per_pass: last.cells,
        insts_per_pass: last.insts,
        energy_uj: last.energy_uj,
        completed: last.completed,
        peak_rss_mb: measure::self_peak_rss_mb() + measure::children_peak_rss_mb(),
    })
}

/// The service, cache and render layers, measured over one cycle for
/// a traced run of another workload.
///
/// # Errors
///
/// As [`run`].
pub fn probe(seed: u64, env: &Env, spans: &mut Spans, tally: &mut Tally) -> Result<(), String> {
    Grid::new(seed).cycle(env, spans, tally).map(|_| ())
}

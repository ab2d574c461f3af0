//! `perfbench` — end-to-end and per-layer benchmark of the SCHEMATIC
//! reproduction.
//!
//! ```text
//! perfbench --workload gridd|trace-report --seed N --seconds S --trace 0|1
//! ```
//!
//! The workload seed drives every generated input. After set-up the
//! run repeats its workload's pass for `S` seconds. With `--trace 0`
//! the last stdout line is a JSON object carrying every end-to-end
//! metric; with `--trace 1` it carries every per-layer metric instead,
//! timed from this benchmark's own calls into each layer. The
//! workloads, metrics and layer map are described in `README.md` next
//! to this crate.

mod emu;
mod gridd;
mod layers;
mod measure;
mod trace_report;

use layers::Spans;
use measure::{median, Passes};
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Compute threads the benchmark allows `schematic_bench::parallel`.
const THREADS: &str = "2";

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to repeat passes for.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("want a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

const WORKLOADS: [&str; 2] = ["gridd", "trace-report"];

/// Where the benchmark finds the repository's binaries and keeps its
/// scratch files (next to its own executable, inside the build dir).
pub struct Env {
    /// Directory holding `gridd` and `gridrun`.
    pub bin_dir: PathBuf,
    /// Scratch directory for cache files, worker batches and artifacts.
    pub work: PathBuf,
}

impl Env {
    fn new() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin_dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .to_path_buf();
        for bin in ["gridd", "gridrun"] {
            if !bin_dir.join(bin).is_file() {
                return Err(format!("{bin} is not built next to {}", exe.display()));
            }
        }
        let work = bin_dir.join(format!("perfbench-work-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
        Ok(Env { bin_dir, work })
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Failure accounting: operations checked against an independent
/// reference, and how many disagreed.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// What a workload's run measured.
pub struct WorkloadRun {
    /// Seconds of each set-up.
    pub setups: Vec<f64>,
    /// The timed passes.
    pub passes: Passes,
    /// Grid or traced cells completed per pass.
    pub cells_per_pass: f64,
    /// Simulated instructions retired per pass.
    pub insts_per_pass: f64,
    /// Schematic's total simulated energy over the eight kernels, µJ.
    pub energy_uj: f64,
    /// `run` cells completed with the native oracle's result, per pass.
    pub completed: f64,
    /// Peak resident set in MB.
    pub peak_rss_mb: f64,
}

type Metric = (String, f64, &'static str);

fn end_to_end(run: &WorkloadRun) -> Vec<Metric> {
    let walls = &run.passes.walls;
    let total: f64 = walls.iter().sum();
    let n = walls.len() as f64;
    let (tail, pct) = measure::tail(walls).expect("an untraced run makes enough passes for a tail");
    eprintln!(
        "perfbench: {} passes; wall_tail_s is p{pct:.1} ({} samples beyond); host probe {:.4} ms",
        walls.len(),
        measure::TAIL_BEYOND,
        median(&run.passes.probes)
    );
    vec![
        ("setup_s".into(), median(&run.setups), "s"),
        ("wall_p50_s".into(), median(walls), "s"),
        ("wall_tail_s".into(), tail, "s"),
        ("peak_rss_mb".into(), run.peak_rss_mb, "MB"),
        ("cells_per_s".into(), run.cells_per_pass * n / total, "1/s"),
        (
            "sim_minsts_per_s".into(),
            run.insts_per_pass * n / total / 1e6,
            "Minsts/s",
        ),
        ("sim_energy_uj".into(), run.energy_uj, "uJ"),
        ("sim_completed".into(), run.completed, "count"),
    ]
}

fn per_layer(
    args: &Args,
    env: &Env,
    run: &WorkloadRun,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let passes = &run.passes;
    let overhead = 100.0 * (median(&passes.traced_walls) / median(&passes.walls) - 1.0);
    eprintln!(
        "perfbench: tracing overhead {overhead:+.2} % ({} traced vs {} untraced passes)",
        passes.traced_walls.len(),
        passes.walls.len()
    );
    layers::complete(args.seed, env, spans, tally)?;
    let mut out = Vec::new();
    for (name, unit) in layers::per_layer() {
        let value = match name.as_str() {
            "host.probe_ms" => Some(median(&passes.probes)),
            "tracing.overhead_pct" => Some(overhead),
            "emu.run_p50_ms" => spans.quantile("emu.run_ms", 0.50),
            "emu.run_p99_ms" => spans.quantile("emu.run_ms", 0.99),
            _ => spans.value(&name),
        };
        let value = value.ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        out.push((name, value, unit));
    }
    Ok(out)
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let env = Env::new()?;
    let mut spans = Spans::new(args.trace);
    let mut tally = Tally::default();
    let run = match args.workload.as_str() {
        "gridd" => gridd::run(args, &env, &mut spans, &mut tally)?,
        _ => trace_report::run(args, &env, &mut spans, &mut tally)?,
    };
    let metrics = if args.trace {
        per_layer(args, &env, &run, &mut spans, &mut tally)?
    } else {
        end_to_end(&run)
    };
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // `schematic_bench::parallel` (trace capture) reads this; gridd
    // and its workers get their own setting.
    std::env::set_var("SCHEMATIC_JOBS", THREADS);
    let (tally, metrics) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut body = Vec::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not a finite number ({value})");
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: {:<24} {value:>16.6} {unit}", name);
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

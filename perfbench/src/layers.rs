//! Per-layer measurements of a traced run.
//!
//! [`Spans`] times calls into the repository's public functions from
//! this benchmark's own code; nothing inside the program is changed.
//! A traced run records spans while it runs its workload, then
//! [`complete`] calls every layer the workload did not reach once, so
//! each traced run reports the whole [`per_layer`] set.

use crate::measure::{median, quantile};
use crate::{emu, gridd, trace_report, Env, Tally};
use schematic_bench::grid::{self, GridMode, GridSpec, JobKind};
use schematic_energy::CostTable;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The emulator tiers the per-tier table covers, with their metric
/// spelling.
pub const TIERS: [(schematic_emu::ExecTier, &str); 4] = [
    (schematic_emu::ExecTier::Interp, "interp"),
    (schematic_emu::ExecTier::Fused, "fused"),
    (schematic_emu::ExecTier::Trace, "trace"),
    (schematic_emu::ExecTier::Aot, "aot"),
];

/// The grid's job kinds, in their stable order.
const KINDS: [JobKind; 8] = [
    JobKind::Support,
    JobKind::Bare,
    JobKind::Run,
    JobKind::Fig7,
    JobKind::Ablation,
    JobKind::Retentive,
    JobKind::Sound,
    JobKind::Shadow,
];

/// Every per-layer metric a traced run reports, with its unit, in
/// output order. `BENCHMARK.json` lists the same names.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("host.probe_ms".into(), "ms"),
        ("tracing.overhead_pct".into(), "%"),
        ("emu.decode_ms".into(), "ms"),
    ];
    for (_, tier) in TIERS {
        for b in schematic_benchsuite::all() {
            out.push((format!("emu.{tier}.{}.minsts_per_s", b.name), "Minsts/s"));
        }
    }
    let fixed: [(&str, &'static str); 27] = [
        ("emu.run_p50_ms", "ms"),
        ("emu.run_p99_ms", "ms"),
        ("emu.power_failures", "count"),
        ("emu.checkpoints", "count"),
        ("core.profile_ms", "ms"),
        ("core.place_ms", "ms"),
        ("core.check_ms", "ms"),
        ("baselines.compile_ms", "ms"),
        ("ir.build_ms", "ms"),
        ("ir.digest_ms", "ms"),
        ("service.submit_cold_ms", "ms"),
        ("service.submit_warm_ms", "ms"),
        ("service.fetch_ms", "ms"),
        ("service.worker_util", "ratio"),
        ("cache.open_ms", "ms"),
        ("cache.resolve_ms", "ms"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("json.encode_mb_per_s", "MB/s"),
        ("json.parse_mb_per_s", "MB/s"),
        ("trace.capture_ms", "ms"),
        ("trace.encode_ms", "ms"),
        ("trace.parse_ms", "ms"),
        ("trace.render_ms", "ms"),
        ("trace.events", "count"),
        ("trace.mb", "MB"),
        ("experiments.render_ms", "ms"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for kind in KINDS {
        out.push((format!("grid.{}_ms", kind.name()), "ms"));
    }
    out
}

/// Span and counter samples of one traced run. While disabled every
/// method is a no-op, so untraced passes run the same code.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    samples: BTreeMap<String, Vec<f64>>,
    /// `(work, seconds)` sums of throughput metrics.
    rates: BTreeMap<String, (f64, f64)>,
}

impl Spans {
    /// A recorder, initially enabled or not.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            ..Spans::default()
        }
    }

    /// Whether samples are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f`, recording its wall time in milliseconds under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.record(name, t.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Records one sample under `name`.
    pub fn record(&mut self, name: &str, value: f64) {
        if self.on {
            self.samples
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }

    /// Adds `work` done in `seconds` to the throughput `name`.
    pub fn rate(&mut self, name: &str, work: f64, seconds: f64) {
        if self.on {
            let e = self.rates.entry(name.to_string()).or_default();
            e.0 += work;
            e.1 += seconds;
        }
    }

    /// Whether anything was recorded under `name`.
    pub fn has(&self, name: &str) -> bool {
        self.samples.contains_key(name) || self.rates.contains_key(name)
    }

    /// The `q`-quantile of the samples under `name`.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.samples.get(name).map(|xs| quantile(xs, q))
    }

    /// The reported value of `name`: a throughput's total work over
    /// its total seconds, otherwise the median sample.
    pub fn value(&self, name: &str) -> Option<f64> {
        if let Some(&(work, secs)) = self.rates.get(name) {
            return (secs > 0.0).then(|| work / secs);
        }
        self.samples.get(name).map(|xs| median(xs))
    }
}

/// Measures the emulator and compile layers, which no workload calls
/// in-process, and calls every other layer the traced workload left
/// unmeasured once, so the run reports the whole [`per_layer`] set.
///
/// # Errors
///
/// The first layer call that failed outright.
pub fn complete(seed: u64, env: &Env, spans: &mut Spans, tally: &mut Tally) -> Result<(), String> {
    spans.set_enabled(true);
    emu::probe(seed, spans, tally)?;
    if !spans.has("grid.run_ms") {
        grid_kinds(spans);
    }
    if !spans.has("service.submit_cold_ms") {
        gridd::probe(seed, env, spans, tally)?;
    }
    if !spans.has("trace.capture_ms") {
        trace_report::probe(seed, env, spans, tally)?;
    }
    Ok(())
}

/// Serial `grid::evaluate` over the full grid, timed per job kind.
fn grid_kinds(spans: &mut Spans) {
    let table = CostTable::msp430fr5969();
    let mut per_kind: BTreeMap<JobKind, f64> = KINDS.iter().map(|&k| (k, 0.0)).collect();
    for job in GridSpec::full_grid(GridMode::Full).jobs() {
        let t = Instant::now();
        black_box(grid::evaluate(job, &table));
        *per_kind.entry(job.kind).or_default() += t.elapsed().as_secs_f64() * 1e3;
    }
    for (kind, ms) in per_kind {
        spans.record(&format!("grid.{}_ms", kind.name()), ms);
    }
}

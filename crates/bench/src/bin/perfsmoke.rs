//! Performance smoke test: measures the hot paths this repo optimizes
//! and records before/after numbers in `BENCH_perf.json` at the repo
//! root.
//!
//! The emulator/analysis "before" constants were measured on the tree
//! just before the predecoded superblock engine landed (the state after
//! the PR-1 hot-path overhaul: per-opcode cost cache, memoized plan
//! lookups, cached block pointer); the `exp_all` "before" is the
//! execution-tier-ladder HEAD just before the non-resident
//! block-dispatch fast path landed. "after" is measured live by
//! this binary. Criterion was dropped with the offline build, so this
//! is the lightweight replacement:
//!
//! ```text
//! cargo run --release -p schematic-bench --bin perfsmoke
//! ```
//!
//! Flags and environment:
//!
//! - `--quick`: short measurement windows and a single analysis
//!   iteration, and the results are *not* written to `BENCH_perf.json`
//!   (used by `scripts/ci.sh` to surface throughput in CI logs without
//!   committing jittery numbers).
//! - `--emu-only`: measure just the crc/fft emulator throughput (no
//!   per-tier breakdown, analysis or experiment sections) and print
//!   one line per benchmark; never writes `BENCH_perf.json`. For
//!   iterating on the emulator hot path.
//! - `SCHEMATIC_PERF_WINDOW_S` / `SCHEMATIC_PERF_REPS`: override the
//!   measurement window length (seconds) and window count — longer
//!   windows ride out scheduler noise on shared hosts.
//! - `SCHEMATIC_PERF_ASSERT=1`: assert the crc/fft emulator speedups
//!   reach the 2.0× floor over the recorded baselines (off by default —
//!   absolute throughput is host-specific).

use schematic_bench::experiments::ROBUST_JITTER;
use schematic_bench::grid::{GridMode, GridSpec};
use schematic_bench::{eb_for_tbpf, ENERGY_TBPF, SEED, SVM_BYTES};
use schematic_core::SchematicConfig;
use schematic_emu::{DecodedModule, ExecTier, InstrumentedModule, Machine, PowerModel, RunConfig};
use schematic_energy::CostTable;
use schematic_obs::Histogram;
use std::time::Instant;

/// Pre-superblock measurements (same host, release build).
const BEFORE_CRC_IPS: f64 = 94_972_875.0;
const BEFORE_FFT_IPS: f64 = 98_476_670.0;
const BEFORE_ANALYSIS_S: f64 = 0.033;
/// `exp_all` wall time on the execution-tier-ladder HEAD, just before
/// the non-resident block-dispatch fast path landed (re-baselined from
/// the pre-cell-store 0.913 s: the tier ladder's general trace
/// machinery had regressed profiling runs — `step_trace`'s per-head
/// setup and tally commit on every single-block dispatch — which the
/// lean `step_block_unit` path now bypasses).
const BEFORE_EXP_ALL_S: f64 = 1.170;

/// Required emulator speedup when `SCHEMATIC_PERF_ASSERT=1`.
/// Meant to catch wholesale regressions (losing a tier), not jitter;
/// CI shares cores, and shared hosts have measured the fused engine
/// below it.
const SPEEDUP_FLOOR: f64 = 2.0;

/// Required warm-over-cold speedup for the full-grid cell cache when
/// `SCHEMATIC_PERF_ASSERT=1`. A warm run answers every cell from the
/// cache — compile, profile and emulation all skipped — so anything
/// under this floor means the cache is recomputing cells it should
/// have hit.
const GRID_WARM_FLOOR: f64 = 5.0;

/// Ceiling on the `exp_all` slowdown with telemetry collection enabled
/// when `SCHEMATIC_PERF_ASSERT=1`. Span guards are one relaxed atomic
/// load when off and a clock read plus map update when on; the worker
/// telemetry design (`gridrun --jobs` → `gridd` stats) only holds if
/// switching collection on stays in the noise.
const TELEMETRY_OVERHEAD_CEILING: f64 = 0.05;

/// A repeated throughput measurement: the best window plus the p50/p95
/// of the per-window samples (log-linear histogram, ~4% bucket error).
struct Sample {
    best: f64,
    p50: u64,
    p95: u64,
}

/// Runs `measure` for `reps` windows and summarizes the distribution.
fn sample(reps: usize, measure: impl Fn() -> f64) -> Sample {
    let mut hist = Histogram::new();
    let mut best = 0.0f64;
    for _ in 0..reps {
        let v = measure();
        hist.record(v as u64);
        if v > best {
            best = v;
        }
    }
    Sample {
        best,
        p50: hist.quantile(50, 100),
        p95: hist.quantile(95, 100),
    }
}

fn bare_vm_config() -> RunConfig {
    RunConfig {
        svm_bytes: usize::MAX / 2,
        ..RunConfig::default()
    }
}

/// Emulated instructions per second for one benchmark under continuous
/// power, all data in VM (pure stepping, no checkpoint machinery), at
/// the given execution tier. The program is predecoded once and shared
/// across runs, as the experiment drivers do for repeated cells.
fn emulator_ips_tier(name: &str, table: &CostTable, window_s: f64, tier: ExecTier) -> f64 {
    let b = schematic_benchsuite::by_name(name).expect("benchmark exists");
    let im = InstrumentedModule::bare_all_vm((b.build)(SEED));
    let decoded = DecodedModule::new(&im, table);
    let cfg = RunConfig {
        tier,
        ..bare_vm_config()
    };
    let _ = Machine::with_decoded(&decoded, cfg.clone())
        .run()
        .expect("warmup");
    let mut insts = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < window_s {
        let out = Machine::with_decoded(&decoded, cfg.clone())
            .run()
            .expect("no traps");
        insts += out.metrics.insts_retired;
    }
    insts as f64 / start.elapsed().as_secs_f64()
}

/// The default-tier measurement (the "after" number).
fn emulator_ips(name: &str, table: &CostTable, window_s: f64) -> f64 {
    emulator_ips_tier(name, table, window_s, RunConfig::default().tier)
}

/// One measurement window per execution tier, for the
/// `tier_insts_per_sec` breakdown.
fn tier_breakdown(name: &str, table: &CostTable, window_s: f64) -> [f64; 2] {
    [ExecTier::Interp, ExecTier::Fused].map(|tier| emulator_ips_tier(name, table, window_s, tier))
}

/// Same measurement through [`Machine::new`], which predecodes on every
/// run — isolates the per-run lowering overhead from the stepping win.
fn emulator_ips_cold_decode(name: &str, table: &CostTable, window_s: f64) -> f64 {
    let b = schematic_benchsuite::by_name(name).expect("benchmark exists");
    let im = InstrumentedModule::bare_all_vm((b.build)(SEED));
    let cfg = bare_vm_config();
    let _ = Machine::new(&im, table, cfg.clone()).run().expect("warmup");
    let mut insts = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < window_s {
        let out = Machine::new(&im, table, cfg.clone())
            .run()
            .expect("no traps");
        insts += out.metrics.insts_retired;
    }
    insts as f64 / start.elapsed().as_secs_f64()
}

/// Emulated instructions per second for a Schematic-compiled benchmark
/// under the robustness report's stochastic supply — this is the
/// robust-grid hot path, where the window redraw (one SplitMix64 mix
/// per power failure) and the checkpoint/restore machinery ride the
/// emulator loop.
fn emulator_ips_stochastic(name: &str, table: &CostTable, window_s: f64) -> f64 {
    let b = schematic_benchsuite::by_name(name).expect("benchmark exists");
    let power = PowerModel::Stochastic {
        mean_tbpf: ENERGY_TBPF,
        jitter: ROBUST_JITTER,
        seed: 1,
    };
    let eb = eb_for_tbpf(table, power.min_window_cycles());
    let im = schematic_bench::compile_technique("Schematic", &(b.build)(SEED), table, eb)
        .expect("compiles");
    let decoded = DecodedModule::new(&im, table);
    let cfg = schematic_bench::intermittent_run_config_model(power);
    let _ = Machine::with_decoded(&decoded, cfg.clone())
        .run()
        .expect("warmup");
    let mut insts = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < window_s {
        let out = Machine::with_decoded(&decoded, cfg.clone())
            .run()
            .expect("no traps");
        insts += out.metrics.insts_retired;
    }
    insts as f64 / start.elapsed().as_secs_f64()
}

/// One SCHEMATIC compile (profile + RCG analysis + allocation +
/// instrumentation + verification) of all eight benchmarks.
fn analysis_seconds(table: &CostTable) -> f64 {
    let eb = eb_for_tbpf(table, ENERGY_TBPF);
    let start = Instant::now();
    for b in schematic_benchsuite::all() {
        let m = (b.build)(SEED);
        let mut config = SchematicConfig::new(eb);
        config.svm_bytes = SVM_BYTES;
        let compiled = schematic_core::compile(&m, table, &config).expect("compiles");
        std::hint::black_box(&compiled);
    }
    start.elapsed().as_secs_f64()
}

/// Cold-vs-warm wall time for the full experiment grid through the
/// content-addressed cell cache: the cold pass computes every cell into
/// a fresh cache file, the warm pass reopens that file and must answer
/// every cell from it (asserted — a single recomputed cell fails the
/// smoke). Uses a process-scoped temp file, removed afterwards.
fn grid_cache_wall() -> (f64, f64) {
    use schematic_bench::cache::{compute_cached, CellCache};
    let jobs = GridSpec::full_grid(GridMode::Full).jobs().to_vec();
    let path = std::env::temp_dir().join(format!("perfsmoke-cache-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let progress = |_: usize, _: usize| {};

    let mut cache = CellCache::open(&path);
    let start = Instant::now();
    let (_, stats) = compute_cached(&jobs, Some(&mut cache), false, &progress).expect("cold grid");
    let cold = start.elapsed().as_secs_f64();
    assert_eq!(
        stats.computed,
        jobs.len(),
        "fresh cache computes every cell"
    );
    drop(cache);

    let mut cache = CellCache::open(&path);
    let start = Instant::now();
    let (_, stats) = compute_cached(&jobs, Some(&mut cache), false, &progress).expect("warm grid");
    let warm = start.elapsed().as_secs_f64();
    assert_eq!(stats.computed, 0, "warm cache answers every cell");
    drop(cache);
    let _ = std::fs::remove_file(&path);
    (cold, warm)
}

/// Wall time of one full `exp_all_report` with telemetry collection
/// forced on or off. The report contents are identical either way (see
/// the `service_telemetry` integration test); this measures only the
/// instrumentation cost.
fn exp_all_wall(telemetry: bool) -> f64 {
    schematic_obs::set_enabled(telemetry);
    let start = Instant::now();
    let report = schematic_bench::experiments::exp_all_report();
    let wall = start.elapsed().as_secs_f64();
    schematic_obs::set_enabled(false);
    std::hint::black_box(report.len());
    wall
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let emu_only = std::env::args().any(|a| a == "--emu-only");
    let env_f64 = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<f64>().ok());
    let env_usize = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
    let window_s = env_f64("SCHEMATIC_PERF_WINDOW_S").unwrap_or(if quick { 0.25 } else { 0.5 });
    let reps = env_usize("SCHEMATIC_PERF_REPS").unwrap_or(if quick { 3 } else { 8 });
    let analysis_iters = if quick { 1 } else { 5 };
    let table = CostTable::msp430fr5969();

    if emu_only {
        for name in ["crc", "fft"] {
            let s = sample(reps, || emulator_ips(name, &table, window_s));
            println!("{name}: best {:.0} p50 {} p95 {}", s.best, s.p50, s.p95);
        }
        return;
    }

    let crc = sample(reps, || emulator_ips("crc", &table, window_s));
    let fft = sample(reps, || emulator_ips("fft", &table, window_s));
    let crc_cold_ips = emulator_ips_cold_decode("crc", &table, window_s);
    let fft_cold_ips = emulator_ips_cold_decode("fft", &table, window_s);
    let (crc_ips, fft_ips) = (crc.best, fft.best);
    let [crc_interp, crc_fused] = tier_breakdown("crc", &table, window_s);
    let [fft_interp, fft_fused] = tier_breakdown("fft", &table, window_s);
    let crc_stoch = sample(reps, || emulator_ips_stochastic("crc", &table, window_s));
    let fft_stoch = sample(reps, || emulator_ips_stochastic("fft", &table, window_s));

    // Best of N: compile times are short enough to jitter.
    let analysis_s = (0..analysis_iters)
        .map(|_| analysis_seconds(&table))
        .fold(f64::INFINITY, f64::min);

    let start = Instant::now();
    let report = schematic_bench::experiments::exp_all_report();
    let exp_all_s = start.elapsed().as_secs_f64();
    assert!(report.contains("Table I"), "exp_all produced a real report");

    let (grid_cold_s, grid_warm_s) = grid_cache_wall();

    // Telemetry overhead: best-of-N `exp_all` walls with collection off
    // vs on, interleaved so host drift hits both sides equally.
    let telemetry_reps = if quick { 2 } else { 3 };
    let (mut exp_off_s, mut exp_on_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..telemetry_reps {
        exp_off_s = exp_off_s.min(exp_all_wall(false));
        exp_on_s = exp_on_s.min(exp_all_wall(true));
    }
    let telemetry_overhead = exp_on_s / exp_off_s - 1.0;

    // Cell-store dedup: cells the reports would compute if each report
    // evaluated its own grid slice, vs the unique cells the shared
    // store actually computes.
    let per_report = GridSpec::naive_job_count(GridMode::Full);
    let unique = GridSpec::full_grid(GridMode::Full).len();

    let json = format!(
        r#"{{
  "description": "SCHEMATIC repro hot-path performance (release build, same host). Emulator/analysis 'before' is pre-superblock; exp_all 'before' is the tier-ladder HEAD just before the non-resident block-dispatch fast path landed. 'after' is the best of repeated measurement windows sharing one predecoded program; p50/p95 summarize the per-window distribution; 'cold_decode' re-lowers per run via Machine::new. grid_cache is the full experiment grid evaluated through a fresh (cold) then pre-populated (warm) content-addressed cell cache. stochastic_supply is a Schematic-compiled benchmark emulated under the robustness report's seeded stochastic supply (mean=ENERGY_TBPF, jitter=ROBUST_JITTER) — the robust-grid hot path, including the per-failure window redraw. Regenerate with `cargo run --release -p schematic-bench --bin perfsmoke`.",
  "emulator_insts_per_sec": {{
    "crc": {{"before": {BEFORE_CRC_IPS:.0}, "after": {crc_ips:.0}, "p50": {}, "p95": {}, "cold_decode": {crc_cold_ips:.0}, "speedup": {:.2}}},
    "fft": {{"before": {BEFORE_FFT_IPS:.0}, "after": {fft_ips:.0}, "p50": {}, "p95": {}, "cold_decode": {fft_cold_ips:.0}, "speedup": {:.2}}}
  }},
  "tier_insts_per_sec": {{
    "crc": {{"interp": {crc_interp:.0}, "fused": {crc_fused:.0}}},
    "fft": {{"interp": {fft_interp:.0}, "fused": {fft_fused:.0}}}
  }},
  "stochastic_supply_insts_per_sec": {{
    "crc": {{"best": {:.0}, "p50": {}, "p95": {}}},
    "fft": {{"best": {:.0}, "p50": {}, "p95": {}}}
  }},
  "analysis_seconds_8_benchmarks": {{"before": {BEFORE_ANALYSIS_S}, "after": {analysis_s:.3}, "speedup": {:.1}}},
  "exp_all_wall_seconds": {{"before": {BEFORE_EXP_ALL_S}, "after": {exp_all_s:.3}, "speedup": {:.1}}},
  "telemetry_exp_all_wall_seconds": {{"off": {exp_off_s:.3}, "on": {exp_on_s:.3}, "overhead_pct": {:.1}}},
  "grid_cache_wall_seconds": {{"cold": {grid_cold_s:.3}, "warm": {grid_warm_s:.3}, "speedup": {:.0}}},
  "grid_cells_full_mode": {{"per_report_total": {per_report}, "unique_in_store": {unique}, "dedup_saved": {}}}
}}
"#,
        crc.p50,
        crc.p95,
        crc_ips / BEFORE_CRC_IPS,
        fft.p50,
        fft.p95,
        fft_ips / BEFORE_FFT_IPS,
        crc_stoch.best,
        crc_stoch.p50,
        crc_stoch.p95,
        fft_stoch.best,
        fft_stoch.p50,
        fft_stoch.p95,
        BEFORE_ANALYSIS_S / analysis_s,
        BEFORE_EXP_ALL_S / exp_all_s,
        telemetry_overhead * 100.0,
        grid_cold_s / grid_warm_s,
        per_report - unique,
    );

    if quick {
        print!("{json}");
        eprintln!("--quick: not writing BENCH_perf.json");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
        std::fs::write(path, &json).expect("write BENCH_perf.json");
        print!("{json}");
        eprintln!("wrote {path}");
    }

    if std::env::var("SCHEMATIC_PERF_ASSERT").as_deref() == Ok("1") {
        let crc_speedup = crc_ips / BEFORE_CRC_IPS;
        let fft_speedup = fft_ips / BEFORE_FFT_IPS;
        assert!(
            crc_speedup >= SPEEDUP_FLOOR,
            "crc emulator speedup {crc_speedup:.2} below the {SPEEDUP_FLOOR}x floor"
        );
        assert!(
            fft_speedup >= SPEEDUP_FLOOR,
            "fft emulator speedup {fft_speedup:.2} below the {SPEEDUP_FLOOR}x floor"
        );
        let grid_speedup = grid_cold_s / grid_warm_s;
        assert!(
            grid_speedup >= GRID_WARM_FLOOR,
            "warm grid-cache speedup {grid_speedup:.1} below the {GRID_WARM_FLOOR}x floor"
        );
        assert!(
            telemetry_overhead < TELEMETRY_OVERHEAD_CEILING,
            "telemetry-on exp_all overhead {:.1}% at or above the {:.0}% ceiling \
             (off {exp_off_s:.3}s, on {exp_on_s:.3}s)",
            telemetry_overhead * 100.0,
            TELEMETRY_OVERHEAD_CEILING * 100.0
        );
        eprintln!(
            "perf floor passed: crc {crc_speedup:.2}x, fft {fft_speedup:.2}x, \
             warm grid cache {grid_speedup:.0}x, telemetry overhead {:.1}%",
            telemetry_overhead * 100.0
        );
    }
}

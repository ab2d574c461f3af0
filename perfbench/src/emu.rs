//! The emulator and compile layers, measured in a traced run.
//!
//! The probe builds the eight kernels with seed-derived inputs,
//! compiles every technique that supports each kernel at TBPF 10k, adds
//! a bare all-VM program per kernel (42 programs), and decodes every
//! program once. It then sweeps every program through
//! `Machine::with_decoded` at each tier, round-robin. Bare programs run
//! on continuous power; compiled programs run under periodic 10k power
//! and under a seeded stochastic supply whose shortest window (10k
//! cycles) still fits the placement. Compile, cache and service are
//! bypassed, so the sweeps time the emulator alone.

use crate::layers::{Spans, TIERS};
use crate::measure::derive;
use crate::Tally;
use schematic_bench::{eb_for_tbpf, intermittent_run_config_model, ENERGY_TBPF, SVM_BYTES};
use schematic_core::{Profile, SchematicConfig};
use schematic_emu::{DecodedModule, ExecTier, InstrumentedModule, Machine, PowerModel, RunConfig};
use schematic_energy::CostTable;
use std::time::Instant;

/// Technique label of the bare all-VM programs.
const BARE: &str = "bare";

/// Sweeps per tier behind the per-tier × per-kernel table.
const TIER_ROUNDS: usize = 8;

/// One program of the suite.
struct Program {
    kernel: &'static str,
    technique: &'static str,
    im: InstrumentedModule,
    oracle: i32,
}

/// The compiled suite and the supplies it runs under.
struct Suite {
    table: CostTable,
    programs: Vec<Program>,
    stoch_seed: u64,
}

/// Builds and compiles the suite for `seed`, timing each layer.
fn build(seed: u64, spans: &mut Spans) -> Result<Suite, String> {
    let table = CostTable::msp430fr5969();
    let eb = eb_for_tbpf(&table, ENERGY_TBPF);
    let input_seed = derive(seed, 1);
    let baselines = schematic_baselines::all();
    let mut config = SchematicConfig::new(eb);
    config.svm_bytes = SVM_BYTES;
    let (mut build_ms, mut profile_ms, mut place_ms, mut check_ms, mut baseline_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut programs = Vec::new();
    for b in schematic_benchsuite::all() {
        let t = Instant::now();
        let module = (b.build)(input_seed);
        build_ms += ms(t);
        let oracle = (b.oracle)(input_seed);
        let fail = |technique: &str, e: String| format!("{technique}/{}: {e}", b.name);

        let t = Instant::now();
        let profile = Profile::collect(&module, &table, config.profile_runs);
        profile_ms += ms(t);
        let t = Instant::now();
        let compiled =
            schematic_core::compile_with_profile(&module, &table, &config, Some(&profile))
                .map_err(|e| fail("Schematic", e.to_string()))?;
        place_ms += ms(t);
        let t = Instant::now();
        let report = schematic_core::check_all(&compiled.instrumented, &table, eb)
            .map_err(|e| fail("Schematic", e.to_string()))?;
        check_ms += ms(t);
        if !report.anomalies.is_sound() {
            return Err(fail("Schematic", "placement has WAR anomalies".into()));
        }
        programs.push(Program {
            kernel: b.name,
            technique: "Schematic",
            im: compiled.instrumented,
            oracle,
        });

        for technique in baselines.iter().filter(|t| t.supports(&module, SVM_BYTES)) {
            let t = Instant::now();
            let im = technique
                .compile(&module, &table, eb)
                .map_err(|e| fail(technique.name(), e.to_string()))?;
            baseline_ms += ms(t);
            programs.push(Program {
                kernel: b.name,
                technique: technique.name(),
                im,
                oracle,
            });
        }
        programs.push(Program {
            kernel: b.name,
            technique: BARE,
            im: InstrumentedModule::bare_all_vm(module),
            oracle,
        });
    }
    let t = Instant::now();
    for p in &programs {
        std::hint::black_box(schematic_ir::hash::hash_module(&p.im.module));
    }
    spans.record("ir.digest_ms", ms(t));
    spans.record("ir.build_ms", build_ms);
    spans.record("core.profile_ms", profile_ms);
    spans.record("core.place_ms", place_ms);
    spans.record("core.check_ms", check_ms);
    spans.record("baselines.compile_ms", baseline_ms);
    Ok(Suite {
        table,
        programs,
        stoch_seed: derive(seed, 2),
    })
}

/// The run configurations of one program at `tier`.
fn configs(suite: &Suite, p: &Program, tier: ExecTier) -> Vec<RunConfig> {
    if p.technique == BARE {
        return vec![RunConfig {
            svm_bytes: usize::MAX / 2,
            tier,
            ..RunConfig::default()
        }];
    }
    let models = [
        PowerModel::Periodic { tbpf: ENERGY_TBPF },
        PowerModel::Stochastic {
            mean_tbpf: ENERGY_TBPF + 2_000,
            jitter: 2_000,
            seed: suite.stoch_seed,
        },
    ];
    models
        .into_iter()
        .map(|power| RunConfig {
            tier,
            ..intermittent_run_config_model(power)
        })
        .collect()
}

/// Runs every program under every configuration at `tier`, adding to
/// that tier's per-kernel throughputs; a run counts as failed unless it
/// completes with the oracle's result.
fn sweep(
    suite: &Suite,
    decoded: &[DecodedModule],
    (tier, tier_name): (ExecTier, &str),
    spans: &mut Spans,
    tally: &mut Tally,
) {
    let default_tier = tier == RunConfig::default().tier;
    let (mut power_failures, mut checkpoints) = (0, 0);
    for (p, d) in suite.programs.iter().zip(decoded) {
        for cfg in configs(suite, p, tier) {
            let t = Instant::now();
            let out = Machine::with_decoded(d, cfg).run();
            let secs = t.elapsed().as_secs_f64();
            let Ok(o) = out else {
                tally.check(false);
                continue;
            };
            tally.check(o.completed() && o.result == Some(p.oracle));
            let name = format!("emu.{tier_name}.{}.minsts_per_s", p.kernel);
            spans.rate(&name, o.metrics.insts_retired as f64 / 1e6, secs);
            if default_tier {
                spans.record("emu.run_ms", secs * 1e3);
                power_failures += o.metrics.power_failures;
                checkpoints += o.metrics.checkpoints_committed;
            }
        }
    }
    if default_tier {
        spans.record("emu.power_failures", power_failures as f64);
        spans.record("emu.checkpoints", checkpoints as f64);
    }
}

/// The per-tier × per-kernel throughput table (simulated Minsts per
/// host second).
fn tier_table(spans: &Spans) -> String {
    let mut out = format!("{:<10}", "Minsts/s");
    for (_, tier) in TIERS {
        out.push_str(&format!("{tier:>9}"));
    }
    out.push('\n');
    for b in schematic_benchsuite::all() {
        out.push_str(&format!("{:<10}", b.name));
        for (_, tier) in TIERS {
            let v = spans.value(&format!("emu.{tier}.{}.minsts_per_s", b.name));
            out.push_str(&format!("{:>9.1}", v.unwrap_or(f64::NAN)));
        }
        out.push('\n');
    }
    out
}

/// Builds, decodes and sweeps the suite at every tier, round-robin so
/// host drift spreads evenly over the tiers, then prints the per-tier
/// table to stderr.
///
/// # Errors
///
/// A compile or soundness-check failure, naming the program.
pub fn probe(seed: u64, spans: &mut Spans, tally: &mut Tally) -> Result<(), String> {
    let suite = build(seed, spans)?;
    let decoded: Vec<DecodedModule> = spans.time("emu.decode_ms", || {
        suite
            .programs
            .iter()
            .map(|p| DecodedModule::new(&p.im, &suite.table))
            .collect()
    });
    for _ in 0..TIER_ROUNDS {
        for tier in TIERS {
            sweep(&suite, &decoded, tier, spans, tally);
        }
    }
    eprint!("{}", tier_table(spans));
    Ok(())
}

//! Scenario-layer parity: threading the periodic supply through the
//! pluggable [`Scenario`] axis must be observationally invisible — the
//! legacy TBPF entry points, artifact spellings and renders stay
//! byte-identical — and the new stochastic/trace scenarios must be
//! deterministic end to end.

use schematic_bench::experiments::{render_robust, robust_jobs};
use schematic_bench::grid::{write_cell, CellStore, CellValue, Job};
use schematic_bench::{run_cell_scenario_traced, Scenario};
use schematic_energy::CostTable;

/// A zero-jitter stochastic supply is the periodic supply: every cell
/// computed through the scenario layer matches the legacy TBPF path
/// bit-for-bit (metrics, status, program digest).
#[test]
fn zero_jitter_stochastic_matches_periodic_cells() {
    let table = CostTable::msp430fr5969();
    for (tech, bench_name, tbpf) in [
        ("Schematic", "crc", 10_000),
        ("Ratchet", "randmath", 1_000),
        ("Rockclimb", "crc", 100_000),
    ] {
        let bench = schematic_benchsuite::all()
            .into_iter()
            .find(|b| b.name == bench_name)
            .expect("benchmark exists");
        let (legacy, legacy_digest) =
            run_cell_scenario_traced(tech, &bench, &table, &Scenario::periodic(tbpf));
        let scenario = Scenario::Stochastic {
            mean_tbpf: tbpf,
            jitter: 0,
            seed: 0xDEAD_BEEF,
        };
        let (via_scenario, scenario_digest) =
            run_cell_scenario_traced(tech, &bench, &table, &scenario);
        assert_eq!(legacy.outcome, via_scenario.outcome, "{tech}/{bench_name}");
        assert_eq!(legacy.reason, via_scenario.reason, "{tech}/{bench_name}");
        assert_eq!(legacy_digest, scenario_digest, "{tech}/{bench_name}");
    }
}

/// Periodic cells keep the legacy artifact spelling — a numeric `tbpf`
/// field and a bare-number job key — so existing artifacts, goldens and
/// renders stay byte-identical. Non-periodic cells use the `scenario`
/// field instead.
#[test]
fn periodic_artifact_spelling_is_legacy_byte_compatible() {
    let job = Job::run("Schematic", "crc", 10_000);
    assert_eq!(job.to_string(), "run/Schematic/crc/10000");
    let encode = |job: &Job| {
        let mut line = String::new();
        write_cell(&mut line, job, &CellValue::Support(true));
        line
    };
    let line = encode(&job);
    assert!(line.contains("\"tbpf\":10000"), "{line}");
    assert!(!line.contains("scenario"), "{line}");

    let stoch = Job::run_scenario(
        "Schematic",
        "crc",
        Scenario::Stochastic {
            mean_tbpf: 10_000,
            jitter: 2_000,
            seed: 7,
        },
    );
    assert_eq!(stoch.to_string(), "run/Schematic/crc/stoch:10000:2000:7");
    let line = encode(&stoch);
    assert!(
        line.contains("\"scenario\":\"stoch:10000:2000:7\""),
        "{line}"
    );
    assert!(!line.contains("tbpf"), "{line}");
}

/// The robustness report is deterministic: two independently computed
/// stores (fresh worker fan-out each) render byte-identically, and the
/// stable header line CI greps for is present.
#[test]
fn robust_report_renders_deterministically() {
    // 2 seeds keeps this CI-sized; traces under `traces/` are included
    // automatically and exercise the interning path from two stores.
    let jobs = robust_jobs(2);
    assert!(jobs.len() >= 2, "robust grid is non-empty");
    let a = render_robust(&CellStore::compute(&jobs), 2);
    let b = render_robust(&CellStore::compute(&jobs), 2);
    assert_eq!(a, b);
    assert!(a.starts_with("Robustness report:"), "stable header:\n{a}");
    assert!(a.contains("stoch:10000:2000:1"), "scenario axis listed");
}

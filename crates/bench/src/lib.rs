//! # schematic-bench
//!
//! The experiment harness: `gridrun` regenerates every table and
//! figure of the paper's evaluation (§IV) from reports generated by
//! [`experiments`]; independent cells fan out over the [`parallel`]
//! work-stealing driver (`SCHEMATIC_JOBS` overrides the worker count)
//! with byte-identical output to a serial run. See `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for recorded paper-vs-measured
//! results.
//!
//! | `gridrun --report NAME` | regenerates |
//! |----------|-------------|
//! | `table1` | Table I — ability to support limited VM |
//! | `table2` | Table II — execution time and minimal power failures |
//! | `table3` | Table III — ability to enforce forward progress |
//! | `fig6`   | Figure 6 — energy breakdown per technique (TBPF 10k) |
//! | `fig7`   | Figure 7 — SCHEMATIC vs All-NVM computation split |
//! | `fig8`   | Figure 8 — impact of capacitor size on `crc` |
//! | `ablations` | extension: design-choice ablations (Eq. 2 liveness, gain/size ordering) |
//! | `soundcheck` | per-region WAR-hazard classification × technique × benchmark; exits 1 on a FAIL verdict, `--explain` adds per-region verdicts and the region-class histogram |
//! | `robust` | multi-seed robustness: completion rate and energy spread per technique × benchmark |
//!
//! Performance is measured by the separate `perfbench/` package, and
//! `scripts/perfgate.sh` gates its per-layer output against the
//! committed `perf_ledger.tsv`.
//!
//! | binary   | does |
//! |----------|------|
//! | `gridrun` | the grid pipeline: with no mode, computes the whole grid in-process and renders every report above; `--report NAME` renders one; `--shard i/N` computes a slice to a JSONL artifact, `--merge` folds shards back and renders every report, `--jobs` is the worker mode `gridd` spawns, `--trace F` captures per-cell traces; `--quick` shrinks the soundcheck to the CI static sweep |
//! | `gridd` | the persistent evaluation daemon (`gridrun --connect` drives it) |
//! | `tracereport` | renders a `--trace` artifact: phase-time table, hottest cells, per-run epoch timelines with the exact Fig. 6 energy split (see [`trace`]) |
//!
//! Since the data-first grid refactor the computation is layered
//! (see [`grid`]): a [`grid::GridSpec`] enumerates the experiment
//! space as data, a [`grid::CellStore`] evaluates each cell exactly
//! once (serializable to line-oriented JSON for sharded multi-process
//! runs), and the report functions in [`experiments`] are pure
//! renderers over the store.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod experiments;
pub mod grid;
pub mod json;
pub mod parallel;
pub mod scenario;
pub mod service;
pub mod trace;

pub use scenario::Scenario;

use schematic_baselines::Technique;
use schematic_core::SchematicConfig;
use schematic_emu::{InstrumentedModule, Machine, Metrics, PowerModel, RunConfig, RunStatus};
use schematic_energy::{CostTable, Energy};
use schematic_ir::Module;

/// The platform's VM size (MSP430FR5969: 2 KB).
pub const SVM_BYTES: usize = 2048;

/// The paper's three TBPF settings (cycles).
pub const TBPFS: [u64; 3] = [1_000, 10_000, 100_000];

/// The TBPF used for the energy studies (§IV-C picks 10k as the
/// trade-off point).
pub const ENERGY_TBPF: u64 = 10_000;

/// Benchmark seed used across all experiments (inputs are baked per
/// seed; the profile uses the same seed as the evaluation run, like the
/// paper's trace-then-measure methodology).
pub const SEED: u64 = 1;

/// Derives the energy budget `EB` from a TBPF: with the cheapest cycle
/// costing `cpu_pj_per_cycle`, an interval of `EB` energy can never
/// outlast `tbpf` cycles, so wait-mode placements are sound under the
/// periodic failure model (the paper sets `EB` to the energy consumed
/// per TBPF window, §IV-C).
pub fn eb_for_tbpf(table: &CostTable, tbpf: u64) -> Energy {
    Energy::from_pj(table.cpu_pj_per_cycle) * tbpf
}

/// Derives the energy budget from a [`Scenario`]: the budget is keyed
/// to the scenario's *guaranteed* shortest window, so a placement that
/// fits `EB` fits every window the supply can produce — the soundness
/// argument carries over from the periodic model unchanged. For
/// [`Scenario::Periodic`] this is exactly [`eb_for_tbpf`].
///
/// # Errors
///
/// Propagates trace-loading failures as a reason string.
pub fn eb_for_scenario(table: &CostTable, scenario: &Scenario) -> Result<Energy, String> {
    Ok(eb_for_tbpf(table, scenario.min_window_cycles()?))
}

/// The five techniques of the evaluation, in the paper's order.
pub fn technique_names() -> Vec<&'static str> {
    vec!["Ratchet", "Mementos", "Rockclimb", "Alfred", "Schematic"]
}

/// Whether `technique` can run `module` with `SVM_BYTES` of VM
/// (Table I's criterion).
pub fn technique_supports(technique: &str, module: &Module) -> bool {
    match technique {
        "Schematic" => true, // accounts for SVM by construction
        name => baseline_by_name(name).supports(module, SVM_BYTES),
    }
}

fn baseline_by_name(name: &str) -> Box<dyn Technique> {
    schematic_baselines::all()
        .into_iter()
        .find(|t| t.name() == name)
        .unwrap_or_else(|| panic!("unknown technique '{name}'"))
}

/// Compiles `module` with the named technique for budget `eb`.
///
/// # Errors
///
/// Propagates the technique's placement errors (e.g. a budget too small
/// for any sound placement).
pub fn compile_technique(
    technique: &str,
    module: &Module,
    table: &CostTable,
    eb: Energy,
) -> Result<InstrumentedModule, schematic_core::PlacementError> {
    match technique {
        "Schematic" => {
            let mut config = SchematicConfig::new(eb);
            config.svm_bytes = SVM_BYTES;
            Ok(schematic_core::compile(module, table, &config)?.instrumented)
        }
        name => baseline_by_name(name).compile(module, table, eb),
    }
}

/// How one experiment run ended: the payload of a completed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Why the run ended.
    pub status: RunStatus,
    /// Whether the result matched the native oracle.
    pub correct: bool,
    /// Everything the emulator measured.
    pub metrics: Metrics,
}

/// Outcome of one experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Technique name.
    pub technique: String,
    /// Benchmark name.
    pub benchmark: String,
    /// `None` when the technique cannot even start (VM too small or no
    /// sound placement exists).
    pub outcome: Option<CellOutcome>,
    /// Why `outcome` is `None` (human-readable; `None` when the cell
    /// produced a run).
    pub reason: Option<String>,
}

impl Cell {
    /// `true` when the run completed with the correct result — the ✓ of
    /// Table III.
    pub fn ok(&self) -> bool {
        matches!(
            self.outcome,
            Some(CellOutcome {
                status: RunStatus::Completed,
                correct: true,
                ..
            })
        )
    }
}

/// The `RunConfig` of one intermittent evaluation run under an
/// arbitrary power model: VM limit lifted (fit is checked statically)
/// and the grid's active-cycle cap. Shared by
/// [`run_cell_scenario_traced`] and the cache's key derivation so the
/// two can never disagree about what a `run` cell executes.
pub fn intermittent_run_config_model(power: PowerModel) -> RunConfig {
    RunConfig {
        power,
        svm_bytes: usize::MAX / 2,
        max_active_cycles: 4_000_000_000,
        ..RunConfig::default()
    }
}

/// Runs one `(technique, benchmark, scenario)` cell of the evaluation,
/// returning the cell and, when compilation succeeded, the stable
/// digest of the compiled `InstrumentedModule` — the content-addressed
/// identity the cell cache keys on. Placement uses the budget from
/// [`eb_for_scenario`]; the run executes under the scenario's resolved
/// [`PowerModel`].
pub fn run_cell_scenario_traced(
    technique: &str,
    bench: &schematic_benchsuite::Benchmark,
    table: &CostTable,
    scenario: &Scenario,
) -> (Cell, Option<schematic_ir::hash::Digest>) {
    let fail = |reason: String| Cell {
        technique: technique.into(),
        benchmark: bench.name.into(),
        outcome: None,
        reason: Some(reason),
    };
    let power = match scenario.power_model() {
        Ok(p) => p,
        Err(e) => return (fail(format!("bad scenario: {e}")), None),
    };
    let module = {
        let _span = schematic_obs::span("cell/build");
        (bench.build)(SEED)
    };
    if !technique_supports(technique, &module) {
        return (fail(format!("needs more than {SVM_BYTES} B of VM")), None);
    }
    let eb = eb_for_tbpf(table, power.min_window_cycles());
    let im = {
        let _span = schematic_obs::span("cell/compile");
        match compile_technique(technique, &module, table, eb) {
            Ok(im) => im,
            Err(e) => return (fail(format!("no sound placement: {e}")), None),
        }
    };
    let digest = Some(im.stable_digest());
    // A placement whose regions carry unshielded WAR hazards must not
    // pass silently: re-execution could corrupt results (§II-B).
    {
        let _span = schematic_obs::span("cell/check");
        match schematic_core::check_all(&im, table, eb) {
            Ok(report) if !report.anomalies.is_sound() => {
                return (
                    fail(format!("anomaly: {}", report.verdict_named(&module))),
                    digest,
                )
            }
            Ok(_) => {}
            Err(e) => return (fail(format!("anomaly: {e}")), digest),
        }
    }
    let cfg = intermittent_run_config_model(power);
    // A trap is a cell failure, not a harness panic: the grids must keep
    // rendering the remaining cells.
    let out = {
        let _span = schematic_obs::span("cell/emulate");
        match Machine::new(&im, table, cfg).run() {
            Ok(out) => out,
            Err(e) => return (fail(format!("trapped: {e:?}")), digest),
        }
    };
    let correct = out.result == Some((bench.oracle)(SEED));
    let cell = Cell {
        technique: technique.into(),
        benchmark: bench.name.into(),
        outcome: Some(CellOutcome {
            status: out.status,
            correct,
            metrics: out.metrics,
        }),
        reason: None,
    };
    (cell, digest)
}

/// Renders an ASCII table.
///
/// Cells carrying a failure message (prefix `error: ` or `anomaly: `)
/// are hoisted into footnotes — the cell shows a `†N` marker and the
/// messages are listed under the table — so one long placement error or
/// soundness verdict does not blow a column out to the width of its
/// prose. Identical messages share one marker. Column widths are
/// measured in characters (not bytes), so the marker's multi-byte `†`
/// aligns correctly.
pub fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut notes: Vec<String> = Vec::new();
    let mut hoist = |cell: &String| {
        let (marker, msg) = if let Some(m) = cell.strip_prefix("error: ") {
            ("error", m)
        } else if let Some(m) = cell.strip_prefix("anomaly: ") {
            ("anomaly", m)
        } else {
            return cell.clone();
        };
        let id = match notes.iter().position(|n| n == msg) {
            Some(i) => i,
            None => {
                notes.push(msg.to_string());
                notes.len() - 1
            }
        };
        format!("{marker} †{}", id + 1)
    };
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| row.iter().map(&mut hoist).collect())
        .collect();
    let width_of = |s: &String| s.chars().count();
    let mut widths: Vec<usize> = headers.iter().map(width_of).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(width_of(cell));
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, row: &[String]| {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let pad = widths[i].saturating_sub(width_of(cell));
            out.push_str(&" ".repeat(pad));
            out.push_str(cell);
        }
        out.push('\n');
    };
    line(&mut out, headers);
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in &rows {
        line(&mut out, row);
    }
    for (i, msg) in notes.iter().enumerate() {
        out.push_str(&format!("†{} {}\n", i + 1, msg));
    }
    out
}

/// Formats energy as µJ with three decimals.
pub fn uj(e: Energy) -> String {
    format!("{:.3}", e.as_uj())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eb_mapping_is_linear() {
        let t = CostTable::msp430fr5969();
        assert_eq!(eb_for_tbpf(&t, 10_000).as_pj(), 10_000 * t.cpu_pj_per_cycle);
    }

    #[test]
    fn technique_roster() {
        assert_eq!(technique_names().len(), 5);
        let m = schematic_benchsuite::crc::build(1);
        for t in technique_names() {
            // crc fits VM: everything supports it.
            assert!(technique_supports(t, &m), "{t}");
        }
        let big = schematic_benchsuite::dijkstra::build(1);
        assert!(!technique_supports("Mementos", &big));
        assert!(!technique_supports("Alfred", &big));
        assert!(technique_supports("Ratchet", &big));
        assert!(technique_supports("Rockclimb", &big));
        assert!(technique_supports("Schematic", &big));
    }

    #[test]
    fn run_cell_randmath_all_techniques() {
        let table = CostTable::msp430fr5969();
        let bench = schematic_benchsuite::by_name("randmath").unwrap();
        for t in technique_names() {
            let (cell, _) =
                run_cell_scenario_traced(t, &bench, &table, &Scenario::periodic(10_000));
            assert!(cell.ok(), "{t}: {:?}", cell.outcome.map(|o| o.status));
        }
    }

    #[test]
    fn render_table_aligns() {
        let s = render_table(&["a".into(), "bb".into()], &[vec!["1".into(), "2".into()]]);
        assert!(s.contains("a  bb"));
        assert!(s.contains("1   2"));
    }

    #[test]
    fn render_table_hoists_error_cells_to_footnotes() {
        let s = render_table(
            &["bench".into(), "result".into()],
            &[
                vec!["crc".into(), "error: placement rejected, long prose".into()],
                vec!["fft".into(), "12".into()],
                vec!["aes".into(), "error: placement rejected, long prose".into()],
                vec!["rc4".into(), "error: different failure".into()],
            ],
        );
        // The message leaves the column; a marker takes its place.
        assert!(s.contains("error †1"));
        assert!(s.contains("†1 placement rejected, long prose"));
        // Identical messages share one marker; distinct ones get fresh.
        assert_eq!(s.matches("†1 placement").count(), 1);
        assert!(s.contains("error †2"));
        assert!(s.contains("†2 different failure"));
        // No column is wider than its widest (post-hoist) cell.
        let header_line = s.lines().next().unwrap();
        assert!(header_line.chars().count() <= "bench  ".len() + "error †1".len());
        // Rows stay aligned on character boundaries despite the
        // multi-byte marker.
        let rows: Vec<&str> = s.lines().filter(|l| !l.starts_with('†')).collect();
        let w = rows[0].chars().count();
        assert!(rows
            .iter()
            .all(|r| r.chars().count() == w || r.starts_with('-')));
    }
}

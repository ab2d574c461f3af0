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
use std::fmt::Write as _;

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
/// and the grid's active-cycle cap: what [`run_cell_scenario_traced`]
/// executes.
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

/// An ASCII table under construction, rendered as [`render_table`]
/// describes. Every cell's text lives in one flat buffer with per-cell
/// end offsets, each cell's width is counted once, when the cell is
/// closed, and rendering pads in place — so a table allocates per
/// table, not per cell; only a failure cell allocates, for its
/// footnote.
pub(crate) struct Table {
    cols: usize,
    text: String,
    /// Per cell, row-major with the header row first: the end offset
    /// of its text in `text` and its width in characters.
    cells: Vec<(usize, usize)>,
    /// Hoisted failure messages; `†N` is `notes[N - 1]`.
    notes: Vec<String>,
}

impl Table {
    /// A table with one column per header; headers are never hoisted.
    pub(crate) fn new<S: AsRef<str>>(headers: &[S]) -> Table {
        let mut table = Table {
            cols: headers.len(),
            text: String::new(),
            cells: Vec::new(),
            notes: Vec::new(),
        };
        for h in headers {
            let start = table.text.len();
            table.text.push_str(h.as_ref());
            table.close(start);
        }
        table
    }

    /// Appends the next cell (row-major; a row is one cell per header).
    pub(crate) fn cell(&mut self, text: &str) {
        self.cell_with(|out| out.push_str(text));
    }

    /// Appends the next cell, its text written by `write`.
    pub(crate) fn cell_with(&mut self, write: impl FnOnce(&mut String)) {
        let start = self.text.len();
        write(&mut self.text);
        let text = &self.text[start..];
        let failure = [("error", "error: "), ("anomaly", "anomaly: ")]
            .into_iter()
            .find_map(|(marker, prefix)| Some((marker, text.strip_prefix(prefix)?)));
        if let Some((marker, msg)) = failure {
            let id = match self.notes.iter().position(|n| n == msg) {
                Some(i) => i + 1,
                None => {
                    self.notes.push(msg.to_string());
                    self.notes.len()
                }
            };
            self.text.truncate(start);
            write!(self.text, "{marker} †{id}").expect("writing to a String cannot fail");
        }
        self.close(start);
    }

    /// Records the cell whose text runs from `start` to the buffer's end.
    fn close(&mut self, start: usize) {
        let width = self.text[start..].chars().count();
        self.cells.push((self.text.len(), width));
    }

    /// Appends the rendered table: the header row, a rule, the rows,
    /// then one line per footnote.
    pub(crate) fn render_into(&self, out: &mut String) {
        let cols = self.cols;
        let mut widths = vec![0; cols];
        for (i, &(_, w)) in self.cells.iter().enumerate() {
            widths[i % cols] = widths[i % cols].max(w);
        }
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let rows = self.cells.len() / cols;
        out.reserve(self.text.len() + (rows + 1) * (total + 1));
        let mut start = 0;
        for (i, &(end, width)) in self.cells.iter().enumerate() {
            let col = i % cols;
            if col > 0 {
                out.push_str("  ");
            }
            pad(out, SPACES, widths[col] - width);
            out.push_str(&self.text[start..end]);
            start = end;
            if col + 1 == cols {
                out.push('\n');
                if i + 1 == cols {
                    pad(out, DASHES, total);
                    out.push('\n');
                }
            }
        }
        for (i, msg) in self.notes.iter().enumerate() {
            writeln!(out, "†{} {}", i + 1, msg).expect("writing to a String cannot fail");
        }
    }
}

/// Appends the first `n` characters of `run` repeated (`run` is one
/// ASCII character, repeated), a slice at a time.
fn pad(out: &mut String, run: &str, mut n: usize) {
    while n > 0 {
        let k = n.min(run.len());
        out.push_str(&run[..k]);
        n -= k;
    }
}

const SPACES: &str = "                                                                ";
const DASHES: &str = "----------------------------------------------------------------";

/// Renders an ASCII table; every row holds one cell per header.
///
/// Cells carrying a failure message (prefix `error: ` or `anomaly: `)
/// are hoisted into footnotes — the cell shows a `†N` marker and the
/// messages are listed under the table — so one long placement error or
/// soundness verdict does not blow a column out to the width of its
/// prose. Identical messages share one marker. Column widths are
/// measured in characters (not bytes), so the marker's multi-byte `†`
/// aligns correctly.
pub fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let mut table = Table::new(headers);
    for row in rows {
        assert_eq!(
            row.len(),
            headers.len(),
            "a table row needs one cell per header"
        );
        for cell in row {
            table.cell(cell);
        }
    }
    let mut out = String::new();
    table.render_into(&mut out);
    out
}

/// Appends energy as µJ with three decimals, byte-identical to
/// `format!("{:.3}", e.as_uj())` but from integer arithmetic.
///
/// Below 2^52 pJ the `f64` quotient `pj / 1e6` is within half an ulp
/// (under 5e-7 µJ) of the true value, while a true value that is not
/// an exact tie (`pj % 1000 == 500`) lies at least 1 pJ (1e-6 µJ) from
/// the nearest rounding boundary — so `{:.3}` rounds it the same way
/// integer half-up rounding does. Ties, whose `{:.3}` digit depends on
/// the direction of the `f64` error, and values past 2^52 go through
/// the float formatter.
pub(crate) fn write_uj(out: &mut String, e: Energy) {
    let pj = e.as_pj();
    if pj % 1000 == 500 || pj >= 1 << 52 {
        write!(out, "{:.3}", e.as_uj()).expect("writing to a String cannot fail");
        return;
    }
    let milli = (pj + 500) / 1000;
    schematic_obs::json::write_u64(out, milli / 1000);
    let frac = milli % 1000;
    out.push('.');
    for digit in [frac / 100, frac / 10 % 10, frac % 10] {
        out.push(char::from(b'0' + digit as u8));
    }
}

/// Formats energy as µJ with three decimals ([`write_uj`]).
pub fn uj(e: Energy) -> String {
    let mut out = String::with_capacity(16);
    write_uj(&mut out, e);
    out
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

    /// `write_uj`'s integer path against the float formatter it
    /// replaces: every value below 2 µJ, every exact tie below 1 J, and
    /// random values at every magnitude, across the 2^52 cut-over.
    #[test]
    fn write_uj_matches_float_formatting() {
        let (mut want, mut got) = (String::new(), String::new());
        let mut check = |pj: u64| {
            want.clear();
            got.clear();
            write!(want, "{:.3}", pj as f64 / 1e6).unwrap();
            write_uj(&mut got, Energy::from_pj(pj));
            assert_eq!(got, want, "{pj} pJ");
        };
        for pj in 0..2_000_000 {
            check(pj);
        }
        for k in 0..1_000_000 {
            check(k * 1000 + 500);
        }
        let mut rng = schematic_benchsuite::inputs::SplitMix64::new(0x5eed);
        for shift in 0..64 {
            for _ in 0..2_000 {
                check(rng.next_u64() >> shift);
            }
        }
        for edge in [1u64 << 52, 1 << 53, u64::MAX] {
            for d in 0..2_000 {
                check(edge - d);
                check(edge.saturating_add(d));
            }
        }
        assert_eq!(uj(Energy::from_pj(1_234_567)), "1.235");
        assert_eq!(uj(Energy::from_pj(999_999_499)), "999.999");
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

//! The parallel experiment driver must be observationally invisible:
//! every report is byte-identical no matter how many workers run.

use schematic_bench::experiments::render;
use schematic_bench::grid::{CellStore, GridMode, GridSpec, ReportId};

/// Computes report `id`'s slice of the full grid into a fresh store
/// and renders it.
fn report(id: ReportId) -> String {
    let store = CellStore::compute(GridSpec::for_report(id, GridMode::Full).jobs());
    render(id, &store, GridMode::Full)
}

/// One test function mutates `SCHEMATIC_JOBS` sequentially; splitting
/// the comparisons across `#[test]`s would race on the process-wide
/// environment.
#[test]
fn reports_are_identical_across_job_counts() {
    std::env::set_var("SCHEMATIC_JOBS", "1");
    let table1_serial = report(ReportId::Table1);
    let fig8_serial = report(ReportId::Fig8);
    std::env::set_var("SCHEMATIC_JOBS", "4");
    let table1_parallel = report(ReportId::Table1);
    let fig8_parallel = report(ReportId::Fig8);
    std::env::remove_var("SCHEMATIC_JOBS");
    assert_eq!(table1_serial, table1_parallel);
    assert_eq!(fig8_serial, fig8_parallel);
    // The grids really rendered (not two identical empty strings).
    assert!(fig8_serial.contains("Schematic"));
    assert!(fig8_serial.lines().count() > TBPFS_CELLS);
}

/// 5 techniques × 3 TBPFs plus headers — a lower bound on fig8's lines.
const TBPFS_CELLS: usize = 15;

//! Report generators behind `gridrun` — the **render layer** of the
//! grid pipeline.
//!
//! Each `render_*` function is a pure function from a computed
//! [`CellStore`] to the report string, and [`render`] picks one by
//! [`ReportId`]; `gridrun --report NAME` computes one report's
//! [`crate::grid::GridSpec`] through the cell cache and renders it.
//! [`render_all`] renders every section from one store of the
//! **union** grid, so cells shared between reports (fig6 and fig8 read
//! Table III's `run` cells, Table I reads Table II's `bare` cells) are
//! evaluated exactly once. Reports are byte-identical no matter how
//! many workers — or shards (`gridrun`) — computed the store.

use crate::grid::{
    sound_techniques, CellStore, CellValue, GridMode, Job, ReportId, SoundCounts, ALL_REPORTS,
};
use crate::{
    render_table, technique_names, uj, CellOutcome, Scenario, ENERGY_TBPF, SVM_BYTES, TBPFS,
};
use schematic_energy::Energy;
use std::fmt::Write;

/// Renders Table I — ability to support limited VM space (§IV-B) —
/// from `store` (needs its `support` and `bare` cells).
pub fn render_table1(store: &CellStore) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table I: ability to support limited VM space (SVM = {SVM_BYTES} B)\n"
    )
    .unwrap();
    let benches = schematic_benchsuite::all();
    let mut headers = vec!["technique".to_string()];
    headers.extend(benches.iter().map(|b| b.name.to_string()));

    let mut rows = Vec::new();
    for tech in technique_names() {
        let mut row = vec![tech.to_string()];
        for b in &benches {
            let supported = match store.value(&Job::support(tech, b.name)) {
                CellValue::Support(s) => *s,
                other => panic!("support cell has kind {other:?}"),
            };
            row.push(if supported { "ok" } else { "X" }.into());
        }
        rows.push(row);
    }
    writeln!(out, "{}", render_table(&headers, &rows)).unwrap();
    writeln!(out, "data footprints:").unwrap();
    for b in &benches {
        let (_, data_bytes) = bare(store, b.name);
        writeln!(out, "  {:>10}: {:>6} B", b.name, data_bytes).unwrap();
    }
    writeln!(
        out,
        "\npaper: Ratchet/Rockclimb/Schematic support all eight; Mementos and\n\
         Alfred fail dijkstra, fft and rc4 (data larger than the 2 KB VM)."
    )
    .unwrap();
    out
}

fn bare(store: &CellStore, benchmark: &str) -> (u64, u64) {
    match store.value(&Job::bare(benchmark)) {
        CellValue::Bare { cycles, data_bytes } => (*cycles, *data_bytes),
        other => panic!("bare cell has kind {other:?}"),
    }
}

/// Renders Table II — execution time and minimal number of power
/// failures (§IV-C) — from `store` (needs its `bare` cells).
pub fn render_table2(store: &CellStore) -> String {
    let mut out = String::new();
    writeln!(out, "Table II: execution time and minimal power failures\n").unwrap();
    let mut headers = vec!["benchmark".to_string(), "cycles".to_string()];
    headers.extend(TBPFS.iter().map(|t| format!("TBPF={t}")));

    let benches = schematic_benchsuite::all();
    let rows: Vec<Vec<String>> = benches
        .iter()
        .map(|b| {
            let (cycles, _) = bare(store, b.name);
            let mut row = vec![b.name.to_string(), cycles.to_string()];
            row.extend(TBPFS.iter().map(|t| (cycles / t).to_string()));
            row
        })
        .collect();
    writeln!(out, "{}", render_table(&headers, &rows)).unwrap();
    writeln!(
        out,
        "paper (cycles): aes 1079k, basicmath 170k, bitcount 819k, crc 41k,\n\
         dijkstra 1382k, fft 378k, randmath 15k, rc4 437k."
    )
    .unwrap();
    out
}

/// Renders Table III — ability to enforce forward progress (§IV-C) —
/// from `store` (needs the full `run` grid).
pub fn render_table3(store: &CellStore) -> String {
    let mut out = String::new();
    writeln!(out, "Table III: ability to enforce forward progress\n").unwrap();
    let benches = schematic_benchsuite::all();
    for &tbpf in &TBPFS {
        writeln!(out, "TBPF = {tbpf} cycles").unwrap();
        let mut headers = vec!["technique".to_string()];
        headers.extend(benches.iter().map(|b| b.name.to_string()));
        let mut rows = Vec::new();
        for tech in technique_names() {
            let mut row = vec![tech.to_string()];
            for b in &benches {
                let cell = store.run_cell(tech, b.name, tbpf);
                row.push(if cell.ok() { "ok" } else { "X" }.into());
            }
            rows.push(row);
        }
        writeln!(out, "{}", render_table(&headers, &rows)).unwrap();
    }
    writeln!(
        out,
        "paper: Rockclimb and Schematic complete everything at every TBPF;\n\
         Ratchet fails aes at 1k; Mementos fails most at 1k/10k and the\n\
         VM-oversized kernels everywhere; Alfred fails several at 1k/10k."
    )
    .unwrap();
    out
}

/// Renders Figure 6 — energy breakdown per technique at TBPF = 10k
/// (§IV-D) — from `store` (needs the `run` cells at [`ENERGY_TBPF`]).
pub fn render_fig6(store: &CellStore) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 6: energy breakdown at TBPF = {ENERGY_TBPF} cycles (uJ)\n"
    )
    .unwrap();
    let headers: Vec<String> = [
        "benchmark",
        "technique",
        "computation",
        "save",
        "restore",
        "re-execution",
        "total",
        "status",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let benches = schematic_benchsuite::all();

    let mut schematic_totals: Vec<f64> = Vec::new();
    let mut baseline_totals: Vec<f64> = Vec::new();
    let mut schematic_cycles: Vec<f64> = Vec::new();
    let mut baseline_cycles: Vec<f64> = Vec::new();

    let mut rows = Vec::new();
    for b in &benches {
        let mut schematic_total: Option<Energy> = None;
        let mut bench_baselines: Vec<Energy> = Vec::new();
        for tech in technique_names() {
            let cell = store.run_cell(tech, b.name, ENERGY_TBPF);
            let row = match &cell.outcome {
                None => vec![
                    b.name.to_string(),
                    tech.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "X (cannot run)".into(),
                ],
                Some(CellOutcome {
                    status,
                    correct,
                    metrics: m,
                }) => {
                    let total = m.total_energy();
                    if cell.ok() {
                        if tech == "Schematic" {
                            schematic_total = Some(total);
                            schematic_cycles.push(m.active_cycles as f64);
                        } else {
                            bench_baselines.push(total);
                            baseline_cycles.push(m.active_cycles as f64);
                        }
                    }
                    vec![
                        b.name.to_string(),
                        tech.to_string(),
                        uj(m.computation),
                        uj(m.save),
                        uj(m.restore),
                        uj(m.reexecution),
                        uj(total),
                        if cell.ok() {
                            "ok".into()
                        } else {
                            format!("X {status:?} correct={correct}")
                        },
                    ]
                }
            };
            rows.push(row);
        }
        if let Some(s) = schematic_total {
            for base in bench_baselines {
                schematic_totals.push(s.as_uj());
                baseline_totals.push(base.as_uj());
            }
        }
    }
    writeln!(out, "{}", render_table(&headers, &rows)).unwrap();

    // Headline: average reduction vs completed baselines (§IV-D: 51 %).
    if !schematic_totals.is_empty() {
        let ratios: Vec<f64> = schematic_totals
            .iter()
            .zip(&baseline_totals)
            .map(|(s, b)| 1.0 - s / b)
            .collect();
        let avg = 100.0 * ratios.iter().sum::<f64>() / ratios.len() as f64;
        writeln!(
            out,
            "\nSCHEMATIC vs completed baselines: average energy reduction = {avg:.1} % \
             (paper: 51 %)"
        )
        .unwrap();
        // §IV-D also reports a 54 % average *execution time* reduction
        // (active cycles; standby time excluded on both sides).
        let ours: f64 = schematic_cycles.iter().sum::<f64>() / schematic_cycles.len() as f64;
        let theirs: f64 = baseline_cycles.iter().sum::<f64>() / baseline_cycles.len() as f64;
        writeln!(
            out,
            "average active-cycle reduction = {:.1} % (paper: 54 % execution time)",
            100.0 * (1.0 - ours / theirs)
        )
        .unwrap();
    }
    out
}

fn measured<'a>(
    store: &'a CellStore,
    job: &Job,
) -> (&'a Option<schematic_emu::Metrics>, &'a Option<String>) {
    match store.value(job) {
        CellValue::Measured { metrics, note } => (metrics, note),
        other => panic!("cell {job} has kind {other:?}, expected measured"),
    }
}

/// Renders Figure 7 — SCHEMATIC vs All-NVM computation split (§IV-E) —
/// from `store` (needs its `fig7` cells).
///
/// A variant without a sound placement (e.g. a kernel whose mandatory
/// state cannot close any interval with zero VM) renders an error row
/// and is excluded, together with its partner variant, from the summary
/// averages — it no longer aborts the whole report.
pub fn render_fig7(store: &CellStore) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 7: Schematic vs All-NVM computation split at TBPF = {ENERGY_TBPF} (uJ)\n"
    )
    .unwrap();
    let headers: Vec<String> = [
        "benchmark",
        "variant",
        "no-mem CPU",
        "VM acc",
        "NVM acc",
        "save",
        "restore",
        "total",
        "VM acc share",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let benches = schematic_benchsuite::all();
    let mut rows = Vec::new();
    let mut hybrid_sum = 0.0;
    let mut nvm_sum = 0.0;
    let mut vm_fracs = Vec::new();
    let mut excluded = 0usize;
    for b in &benches {
        let mut stats: Vec<Option<(f64, f64)>> = Vec::new();
        for label in crate::grid::FIG7_VARIANTS {
            let (metrics, note) = measured(store, &Job::fig7(label, b.name));
            match metrics {
                None => {
                    let mut row = vec![
                        b.name.to_string(),
                        label.to_string(),
                        note.clone().expect("a failed fig7 cell carries a note"),
                    ];
                    row.resize(9, String::new());
                    rows.push(row);
                    stats.push(None);
                }
                Some(mt) => {
                    let exec_total = mt.computation + mt.save + mt.restore;
                    rows.push(vec![
                        b.name.to_string(),
                        label.to_string(),
                        uj(mt.cpu_energy),
                        uj(mt.vm_access_energy),
                        uj(mt.nvm_access_energy),
                        uj(mt.save),
                        uj(mt.restore),
                        uj(exec_total),
                        format!("{:.0} %", 100.0 * mt.vm_access_fraction()),
                    ]);
                    stats.push(Some((mt.computation.as_uj(), mt.vm_access_fraction())));
                }
            }
        }
        match (stats[0], stats[1]) {
            (Some((h, frac)), Some((n, _))) => {
                hybrid_sum += h;
                nvm_sum += n;
                vm_fracs.push(frac);
            }
            _ => excluded += 1,
        }
    }
    writeln!(out, "{}", render_table(&headers, &rows)).unwrap();
    if excluded > 0 {
        writeln!(
            out,
            "\n{excluded} benchmark(s) excluded from the averages (a variant has no \
             sound placement)."
        )
        .unwrap();
    }
    if !vm_fracs.is_empty() && nvm_sum > 0.0 {
        let reduction = 100.0 * (1.0 - hybrid_sum / nvm_sum);
        let avg_vm = 100.0 * vm_fracs.iter().sum::<f64>() / vm_fracs.len() as f64;
        writeln!(
            out,
            "\ncomputation-energy reduction vs All-NVM: {reduction:.1} % (paper: 25 %)\n\
             average share of accesses hitting VM:    {avg_vm:.0} % (paper: 69 %)"
        )
        .unwrap();
    }
    out
}

/// Renders Figure 8 — impact of the capacitor size on `crc` (§IV-F) —
/// from `store` (needs `crc`'s `run` cells at every TBPF).
pub fn render_fig8(store: &CellStore) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 8: impact of capacitor size, benchmark crc (uJ)\n"
    )
    .unwrap();
    let headers: Vec<String> = [
        "technique",
        "TBPF",
        "computation",
        "save",
        "restore",
        "re-execution",
        "total",
        "status",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let mut rows = Vec::new();
    for tech in technique_names() {
        for &tbpf in &TBPFS {
            let cell = store.run_cell(tech, "crc", tbpf);
            let row = match &cell.outcome {
                None => vec![
                    tech.to_string(),
                    tbpf.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "X".into(),
                ],
                Some(CellOutcome { metrics: m, .. }) => vec![
                    tech.to_string(),
                    tbpf.to_string(),
                    uj(m.computation),
                    uj(m.save),
                    uj(m.restore),
                    uj(m.reexecution),
                    uj(m.total_energy()),
                    if cell.ok() { "ok" } else { "X" }.into(),
                ],
            };
            rows.push(row);
        }
    }
    writeln!(out, "{}", render_table(&headers, &rows)).unwrap();
    writeln!(
        out,
        "paper's shape: management overhead decreases with EB for everyone,\n\
         but fastest for Schematic (fewer checkpoints are placed) while\n\
         Ratchet/Alfred placements are EB-oblivious and Rockclimb keeps\n\
         checkpointing every loop header."
    )
    .unwrap();
    out
}

/// Renders the ablations of SCHEMATIC's design choices (DESIGN.md §6)
/// from `store` (needs its `ablation` and `retentive` cells).
pub fn render_ablations(store: &CellStore) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Ablations of SCHEMATIC design choices (TBPF = {ENERGY_TBPF}, uJ)\n"
    )
    .unwrap();
    let headers: Vec<String> = [
        "benchmark",
        "variant",
        "computation",
        "save",
        "restore",
        "total",
        "peak VM",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let benches = schematic_benchsuite::all();
    let mut rows = Vec::new();
    for b in &benches {
        for label in crate::grid::ABLATION_VARIANTS {
            let (metrics, note) = measured(store, &Job::ablation(label, b.name));
            let row = match metrics {
                None => {
                    let mut row = vec![
                        b.name.to_string(),
                        label.to_string(),
                        note.clone().expect("a failed ablation cell carries a note"),
                    ];
                    row.resize(7, String::new());
                    row
                }
                Some(mt) => vec![
                    b.name.to_string(),
                    label.to_string(),
                    uj(mt.computation),
                    uj(mt.save),
                    uj(mt.restore),
                    uj(mt.total_energy()),
                    format!("{} B", mt.peak_vm_bytes),
                ],
            };
            rows.push(row);
        }
    }
    writeln!(out, "{}", render_table(&headers, &rows)).unwrap();
    writeln!(
        out,
        "expected shapes: no-liveness saves/restores more bytes per\n\
         checkpoint (higher save+restore); no-ratio wastes VM capacity on\n\
         fewer, larger variables when space is contested."
    )
    .unwrap();

    // §VII future work, implemented: a retentive sleep mode (SRAM kept
    // alive during the standby) removes the wake-up restores entirely.
    writeln!(
        out,
        "\nRetentive-sleep extension (paper §VII future work), total uJ:"
    )
    .unwrap();
    for b in &benches {
        let (deep_pj, retentive_pj) = match store.value(&Job::retentive(b.name)) {
            CellValue::Retentive {
                deep_pj,
                retentive_pj,
            } => (*deep_pj, *retentive_pj),
            other => panic!("retentive cell has kind {other:?}"),
        };
        let total = [
            Energy::from_pj(deep_pj).as_uj(),
            Energy::from_pj(retentive_pj).as_uj(),
        ];
        writeln!(
            out,
            "  {:>10}: deep-sleep {:>10.3}  retentive {:>10.3}  ({:.0} % saved)",
            b.name,
            total[0],
            total[1],
            100.0 * (1.0 - total[1] / total[0])
        )
        .unwrap();
    }
    out
}

/// Renders the soundness check — static WAR-hazard classification of
/// every inter-checkpoint region per technique × benchmark, in
/// [`GridMode::Full`] cross-validated against the emulator's shadow
/// recorder across all TBPFs — from `store` (needs the `sound` and, in
/// full mode, `shadow` cells of [`sound_techniques`]).
///
/// Returns the rendered report and whether the check passed: no
/// `hazardous` region under Schematic or Ratchet, and no observed WAR
/// the static analysis failed to predict (no false negatives).
pub fn render_soundcheck(store: &CellStore, mode: GridMode) -> (String, bool) {
    let quick = mode == GridMode::Quick;
    let mut out = String::new();
    let mode_line = if quick {
        "quick: Schematic + Ratchet, static only"
    } else {
        "full: all techniques + shadow cross-validation"
    };
    writeln!(
        out,
        "Soundness check: WAR hazards per inter-checkpoint region ({mode_line})\n"
    )
    .unwrap();
    let headers: Vec<String> = [
        "technique",
        "benchmark",
        "regions",
        "idempotent",
        "war-free",
        "shielded",
        "hazardous",
        "placement",
        "observed",
        "unpredicted",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let techniques = sound_techniques(mode);
    let benches = schematic_benchsuite::all();

    let mut pass = true;
    let mut rows = Vec::new();
    for tech in &techniques {
        let guarded = matches!(*tech, "Schematic" | "Ratchet");
        for b in &benches {
            let (counts, note) = match store.value(&Job::sound(tech, b.name)) {
                CellValue::Sound { counts, note } => (counts, note),
                other => panic!("sound cell has kind {other:?}"),
            };
            match counts {
                None => {
                    let mut row = vec![
                        tech.to_string(),
                        b.name.to_string(),
                        note.clone().expect("a skipped sound cell carries a note"),
                    ];
                    row.resize(10, "-".into());
                    rows.push(row);
                }
                Some(SoundCounts {
                    regions,
                    idempotent,
                    war_free,
                    shielded,
                    hazardous,
                    placement_sound,
                }) => {
                    let (observed_cell, unpredicted) = if quick {
                        ("-".to_string(), 0)
                    } else {
                        match store.value(&Job::shadow(tech, b.name)) {
                            CellValue::Shadow {
                                observed,
                                unpredicted,
                            } => (
                                observed.map_or_else(|| "-".to_string(), |n| n.to_string()),
                                *unpredicted,
                            ),
                            other => panic!("shadow cell has kind {other:?}"),
                        }
                    };
                    if (guarded && *hazardous > 0) || unpredicted > 0 {
                        pass = false;
                    }
                    rows.push(vec![
                        tech.to_string(),
                        b.name.to_string(),
                        regions.to_string(),
                        idempotent.to_string(),
                        war_free.to_string(),
                        shielded.to_string(),
                        hazardous.to_string(),
                        if *placement_sound {
                            "sound".into()
                        } else {
                            "UNSOUND".into()
                        },
                        observed_cell,
                        unpredicted.to_string(),
                    ]);
                }
            }
        }
    }
    writeln!(out, "{}", render_table(&headers, &rows)).unwrap();
    writeln!(
        out,
        "verdict: {}",
        if pass {
            "PASS — no hazardous region under Schematic/Ratchet, \
             no unpredicted observed WAR"
        } else {
            "FAIL — hazardous region under Schematic/Ratchet, \
             or the shadow recorder observed an unpredicted WAR"
        }
    )
    .unwrap();
    (out, pass)
}

/// `gridrun --report soundcheck --explain`: per-region verdicts — class,
/// WAR variables with their offending footprints and sites, the index
/// facts justifying each idempotence downgrade, and the worst-case
/// re-execution bound — then the region-class histogram
/// ([`render_region_classes`]). The verdicts recompile each technique ×
/// benchmark (the cells keep counts only); the histogram reads `store`'s
/// `sound` cells.
pub fn render_soundcheck_explain(store: &CellStore, mode: GridMode) -> String {
    use schematic_core::RegionClass;
    let table = schematic_energy::CostTable::msp430fr5969();
    let eb = crate::eb_for_tbpf(&table, ENERGY_TBPF);
    let mut out = String::new();
    writeln!(out, "\nPer-region verdicts (--explain)\n").unwrap();
    for tech in sound_techniques(mode) {
        for b in &schematic_benchsuite::all() {
            let module = (b.build)(crate::SEED);
            if !crate::technique_supports(tech, &module) {
                continue;
            }
            let Ok(im) = crate::compile_technique(tech, &module, &table, eb) else {
                continue;
            };
            let Ok(report) = schematic_core::check_all(&im, &table, eb) else {
                continue;
            };
            writeln!(out, "== {tech} x {} ==", b.name).unwrap();
            for region in &report.anomalies.regions {
                let mut line = format!("  {}: {}", region.start, region.class);
                if let Some(bound) = region.reexec_bound {
                    write!(line, ", reexec <= {bound}").unwrap();
                }
                if region.over_budget {
                    line.push_str(", OVER BUDGET");
                }
                writeln!(out, "{line}").unwrap();
                for a in report
                    .anomalies
                    .anomalies
                    .iter()
                    .filter(|a| a.region == region.start)
                {
                    writeln!(
                        out,
                        "      war {}{}: read at {}, clobbering write at {}",
                        im.module.var(a.var).name,
                        a.footprint,
                        a.read_site,
                        a.write_site
                    )
                    .unwrap();
                }
                if region.class == RegionClass::Idempotent && region.writes_disjoint {
                    for acc in &region.accesses {
                        if !acc.write.is_empty() {
                            writeln!(
                                out,
                                "      disjoint {}: read {} does not meet write {}",
                                im.module.var(acc.var).name,
                                acc.read,
                                acc.write
                            )
                            .unwrap();
                        }
                    }
                }
            }
        }
    }
    writeln!(out, "Region-class histogram (greppable: '^hist '):").unwrap();
    out.push_str(&render_region_classes(store, mode));
    out
}

/// The region-class histogram from `store`'s `sound` cells, one line
/// per technique × benchmark: `hist <technique> <benchmark> <regions>
/// <idempotent> <war-free> <shielded> <hazardous>`, or `unsupported` /
/// `error` in place of the counts for a skipped cell. Pinned by
/// `tests/goldens/region_classes.txt` for the quick grid.
pub fn render_region_classes(store: &CellStore, mode: GridMode) -> String {
    let mut out = String::new();
    for tech in sound_techniques(mode) {
        for b in &schematic_benchsuite::all() {
            write!(out, "hist {tech} {} ", b.name).unwrap();
            match store.value(&Job::sound(tech, b.name)) {
                CellValue::Sound {
                    counts: Some(c), ..
                } => writeln!(
                    out,
                    "{} {} {} {} {}",
                    c.regions, c.idempotent, c.war_free, c.shielded, c.hazardous
                ),
                CellValue::Sound { note: Some(n), .. } if n == "unsupported" => {
                    writeln!(out, "unsupported")
                }
                CellValue::Sound { .. } => writeln!(out, "error"),
                other => panic!("sound cell has kind {other:?}"),
            }
            .unwrap();
        }
    }
    out
}

/// Jitter half-width (cycles) of the robustness report's stochastic
/// scenarios, around the energy-study TBPF ([`ENERGY_TBPF`] ± this).
pub const ROBUST_JITTER: u64 = 2_000;

/// The robustness report's power axis: `seeds` stochastic scenarios
/// (mean [`ENERGY_TBPF`], jitter [`ROBUST_JITTER`], seeds `1..=seeds`)
/// plus every recorded trace in [`crate::scenario::traces_dir`].
pub fn robust_scenarios(seeds: u64) -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> = (1..=seeds)
        .map(|seed| Scenario::Stochastic {
            mean_tbpf: ENERGY_TBPF,
            jitter: ROBUST_JITTER,
            seed,
        })
        .collect();
    scenarios.extend(
        crate::scenario::available_traces()
            .into_iter()
            .map(|id| Scenario::Trace { id }),
    );
    scenarios
}

/// The robustness grid: every technique × benchmark × scenario `run`
/// job, in the grid's stable order. Deliberately **not** part of
/// [`crate::grid::GridSpec::full_grid`] — the paper reports stay
/// byte-identical.
pub fn robust_jobs(seeds: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for tech in technique_names() {
        for b in &schematic_benchsuite::all() {
            for scenario in robust_scenarios(seeds) {
                jobs.push(Job::run_scenario(tech, b.name, scenario));
            }
        }
    }
    jobs.sort();
    jobs
}

/// Renders the robustness report from `store` (needs the
/// [`robust_jobs`] cells): per technique × benchmark, the completion
/// rate and total-energy spread across every scenario on the axis.
///
/// The first line is a stable, greppable header (`Robustness report:`)
/// so CI can smoke-test the render without pinning the table bytes.
pub fn render_robust(store: &CellStore, seeds: u64) -> String {
    let scenarios = robust_scenarios(seeds);
    let n_traces = scenarios.len() as u64 - seeds;
    let mut out = String::new();
    writeln!(
        out,
        "Robustness report: {seeds} stochastic seed(s) (mean={ENERGY_TBPF}, \
         jitter={ROBUST_JITTER}) + {n_traces} recorded trace(s)\n"
    )
    .unwrap();
    writeln!(
        out,
        "scenarios: {}\n",
        scenarios
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    )
    .unwrap();

    let headers: Vec<String> = [
        "technique",
        "benchmark",
        "completed",
        "uJ min",
        "uJ median",
        "uJ max",
        "spread %",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let mut rows = Vec::new();
    for tech in technique_names() {
        for b in &schematic_benchsuite::all() {
            let mut energies: Vec<Energy> = Vec::new();
            for scenario in &scenarios {
                let cell = store.run_cell_scenario(tech, b.name, scenario.clone());
                if cell.ok() {
                    let outcome = cell.outcome.as_ref().expect("ok cell has an outcome");
                    energies.push(outcome.metrics.total_energy());
                }
            }
            energies.sort();
            let mut row = vec![
                tech.to_string(),
                b.name.to_string(),
                format!("{}/{}", energies.len(), scenarios.len()),
            ];
            if energies.is_empty() {
                row.extend(["-", "-", "-", "-"].map(String::from));
            } else {
                let (min, max) = (energies[0], energies[energies.len() - 1]);
                let median = energies[energies.len() / 2];
                row.push(uj(min));
                row.push(uj(median));
                row.push(uj(max));
                row.push(format!(
                    "{:.1}",
                    100.0 * (max.as_uj() - min.as_uj()) / median.as_uj()
                ));
            }
            rows.push(row);
        }
    }
    writeln!(out, "{}", render_table(&headers, &rows)).unwrap();
    writeln!(
        out,
        "completed = scenarios finishing correctly within the failure budget;\n\
         spread % = (max - min) / median total energy across completed runs."
    )
    .unwrap();
    out
}

/// Renders report `id` from `store`, which must hold the report's
/// cells ([`crate::grid::GridSpec::for_report`]). The soundness check
/// renders its text only; its pass/fail verdict is
/// [`render_soundcheck`]'s.
pub fn render(id: ReportId, store: &CellStore, mode: GridMode) -> String {
    match id {
        ReportId::Table1 => render_table1(store),
        ReportId::Table2 => render_table2(store),
        ReportId::Table3 => render_table3(store),
        ReportId::Fig6 => render_fig6(store),
        ReportId::Fig7 => render_fig7(store),
        ReportId::Fig8 => render_fig8(store),
        ReportId::Ablations => render_ablations(store),
        ReportId::Soundcheck => render_soundcheck(store, mode).0,
    }
}

/// Every report in [`ALL_REPORTS`] order from one shared store, each
/// under a `==== name ====` banner.
pub fn render_all(store: &CellStore, mode: GridMode) -> String {
    let mut out = String::new();
    for id in ALL_REPORTS {
        writeln!(out, "\n================ {} ================\n", id.name()).unwrap();
        out.push_str(&render(id, store, mode));
    }
    out
}

//! The experiment grid as data: jobs, shards, and the keyed cell store.
//!
//! The paper's evaluation is one grid — techniques × benchmarks × TBPF
//! settings — but it used to live implicitly inside nine report
//! functions that each re-enumerated and re-computed overlapping slices
//! of it. This module makes the grid first-class:
//!
//! 1. **Grid layer** — [`GridSpec`] enumerates the full experiment
//!    space as a sorted, deduplicated list of [`Job`]s with a stable
//!    total order, and [`GridSpec::shard`] slices it deterministically
//!    for multi-process (or multi-host) runs.
//! 2. **Compute layer** — [`CellStore::compute`] evaluates jobs into
//!    cell values exactly once, fanning out over
//!    [`crate::parallel::par_map`]. A cell crosses processes as one
//!    [`CellLine`] — the shape of artifact lines, cache records, worker
//!    answers and `fetch` cells alike — so shards move between processes
//!    and hosts as plain files, and [`CellStore::merge_from`] folds them
//!    back deterministically (duplicate cells must agree, conflicts are
//!    errors).
//! 3. **Render layer** — the report functions in
//!    [`crate::experiments`] are pure functions from a store to
//!    strings; because fig6 and fig8 read the same `run` cells as
//!    Table III, the union grid computes each shared cell once.
//!
//! The `gridrun` binary drives the pipeline from the command line
//! (`--shard i/N`, `--merge`).

use crate::json::Json;
use crate::parallel::par_map;
use crate::scenario::Scenario;
use crate::{
    eb_for_tbpf, technique_names, technique_supports, Cell, CellOutcome, ENERGY_TBPF, SEED,
    SVM_BYTES, TBPFS,
};
use schematic_core::{compile, SchematicConfig};
use schematic_emu::{InstrumentedModule, Machine, Metrics, PowerModel, RunConfig, RunStatus};
use schematic_energy::CostTable;
use schematic_ir::hash::Digest;
use schematic_obs::json::{write_str, write_u64, JsonError, Reader};
use std::collections::BTreeMap;
use std::fmt;

/// The kind of computation one grid cell performs.
///
/// The derived order (together with [`Job`]'s field order) fixes the
/// grid's stable total order — shard slicing and artifact merging rely
/// on it being identical on every host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobKind {
    /// Table I: can the technique run the benchmark in `SVM_BYTES` of
    /// VM at all?
    Support,
    /// Table II: continuous-power, all-VM run (cycle count + data
    /// footprint).
    Bare,
    /// Tables III / Figures 6 & 8: one `(technique, benchmark, tbpf)`
    /// intermittent run via [`crate::run_cell_scenario_traced`].
    Run,
    /// Figure 7: Schematic vs All-NVM computation split at the energy
    /// TBPF.
    Fig7,
    /// Ablations: one design-choice variant at the energy TBPF.
    Ablation,
    /// Ablations: deep-sleep vs retentive-sleep totals.
    Retentive,
    /// Soundcheck: static WAR-hazard classification per region.
    Sound,
    /// Soundcheck: emulator shadow-recorder cross-validation across all
    /// TBPFs.
    Shadow,
}

impl JobKind {
    /// The artifact spelling (`"run"`, `"fig7"`, …).
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Support => "support",
            JobKind::Bare => "bare",
            JobKind::Run => "run",
            JobKind::Fig7 => "fig7",
            JobKind::Ablation => "ablation",
            JobKind::Retentive => "retentive",
            JobKind::Sound => "sound",
            JobKind::Shadow => "shadow",
        }
    }

    /// Inverse of [`JobKind::name`].
    pub fn from_name(name: &str) -> Option<JobKind> {
        Some(match name {
            "support" => JobKind::Support,
            "bare" => JobKind::Bare,
            "run" => JobKind::Run,
            "fig7" => JobKind::Fig7,
            "ablation" => JobKind::Ablation,
            "retentive" => JobKind::Retentive,
            "sound" => JobKind::Sound,
            "shadow" => JobKind::Shadow,
            _ => return None,
        })
    }
}

/// One point of the experiment grid — the key of the cell store.
///
/// Fields that a kind does not vary hold a canonical placeholder
/// (`technique = "-"` for per-benchmark kinds, a periodic scenario at
/// `0` where the power model is fixed or absent); the constructors
/// enforce this so equal experiments always have equal keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Job {
    /// What to compute.
    pub kind: JobKind,
    /// Technique name — or the ablation/fig7 variant label for those
    /// kinds, `"-"` for per-benchmark kinds.
    pub technique: String,
    /// Benchmark name.
    pub benchmark: String,
    /// The power scenario; `Periodic { tbpf: 0 }` for kinds whose
    /// power model is fixed or absent. Periodic scenarios sort first,
    /// by TBPF, so legacy jobs keep their positions in the grid's
    /// stable total order.
    pub scenario: Scenario,
}

impl Job {
    /// A Table I support-check job.
    pub fn support(technique: &str, benchmark: &str) -> Job {
        Job {
            kind: JobKind::Support,
            technique: technique.into(),
            benchmark: benchmark.into(),
            scenario: Scenario::periodic(0),
        }
    }

    /// A Table II continuous-power job.
    pub fn bare(benchmark: &str) -> Job {
        Job {
            kind: JobKind::Bare,
            technique: "-".into(),
            benchmark: benchmark.into(),
            scenario: Scenario::periodic(0),
        }
    }

    /// An intermittent-run job (Table III and, at [`ENERGY_TBPF`],
    /// Figures 6 and 8).
    pub fn run(technique: &str, benchmark: &str, tbpf: u64) -> Job {
        Job::run_scenario(technique, benchmark, Scenario::periodic(tbpf))
    }

    /// An intermittent-run job under an arbitrary power scenario (the
    /// robustness report's axis).
    pub fn run_scenario(technique: &str, benchmark: &str, scenario: Scenario) -> Job {
        Job {
            kind: JobKind::Run,
            technique: technique.into(),
            benchmark: benchmark.into(),
            scenario,
        }
    }

    /// A Figure 7 job; `variant` is `"Schematic"` or `"All-NVM"`.
    pub fn fig7(variant: &str, benchmark: &str) -> Job {
        Job {
            kind: JobKind::Fig7,
            technique: variant.into(),
            benchmark: benchmark.into(),
            scenario: Scenario::periodic(ENERGY_TBPF),
        }
    }

    /// An ablation job; `variant` is `"full"`, `"no-liveness"` or
    /// `"no-ratio"`.
    pub fn ablation(variant: &str, benchmark: &str) -> Job {
        Job {
            kind: JobKind::Ablation,
            technique: variant.into(),
            benchmark: benchmark.into(),
            scenario: Scenario::periodic(ENERGY_TBPF),
        }
    }

    /// A retentive-sleep comparison job.
    pub fn retentive(benchmark: &str) -> Job {
        Job {
            kind: JobKind::Retentive,
            technique: "-".into(),
            benchmark: benchmark.into(),
            scenario: Scenario::periodic(ENERGY_TBPF),
        }
    }

    /// A static soundness-classification job.
    pub fn sound(technique: &str, benchmark: &str) -> Job {
        Job {
            kind: JobKind::Sound,
            technique: technique.into(),
            benchmark: benchmark.into(),
            scenario: Scenario::periodic(ENERGY_TBPF),
        }
    }

    /// A shadow cross-validation job (sweeps every TBPF internally).
    pub fn shadow(technique: &str, benchmark: &str) -> Job {
        Job {
            kind: JobKind::Shadow,
            technique: technique.into(),
            benchmark: benchmark.into(),
            scenario: Scenario::periodic(0),
        }
    }

    /// The raw TBPF when the job's scenario is periodic (every legacy
    /// job); the renderers for the paper's figures use this.
    pub fn tbpf(&self) -> Option<u64> {
        self.scenario.as_periodic()
    }

    /// Parses the artifact spelling `kind/technique/benchmark/scenario`
    /// (the [`Job`] display form, e.g. `run/Schematic/crc/10000` or
    /// `run/Schematic/crc/stoch:10000:2000:3`) — the inverse of
    /// [`Job`]'s `Display`. The legacy `…/tbpf` spelling *is* the
    /// periodic scenario spelling, so old keys parse unchanged.
    ///
    /// # Errors
    ///
    /// A reason string naming the malformed field.
    pub fn parse(key: &str) -> Result<Job, String> {
        let parts: Vec<&str> = key.split('/').collect();
        if parts.len() != 4 {
            return Err(format!(
                "job key {key:?}: want kind/technique/benchmark/scenario, got {} field(s)",
                parts.len()
            ));
        }
        let kind = JobKind::from_name(parts[0])
            .ok_or_else(|| format!("job key {key:?}: unknown kind {:?}", parts[0]))?;
        let scenario = Scenario::parse(parts[3]).map_err(|e| format!("job key {key:?}: {e}"))?;
        Ok(Job {
            kind,
            technique: parts[1].to_string(),
            benchmark: parts[2].to_string(),
            scenario,
        })
    }

    /// Checks that the job names what the kernels can compute: a known
    /// benchmark, a technique (or variant) of its kind, a positive TBPF
    /// for a periodic run and a trace file that loads. [`Job::parse`]
    /// checks only the key's shape; the kernels panic on the rest.
    ///
    /// # Errors
    ///
    /// A reason string naming the key and the field.
    pub(crate) fn check(&self) -> Result<(), String> {
        let techniques = match self.kind {
            JobKind::Support | JobKind::Run | JobKind::Sound | JobKind::Shadow => technique_names(),
            JobKind::Bare | JobKind::Retentive => vec!["-"],
            JobKind::Fig7 => FIG7_VARIANTS.to_vec(),
            JobKind::Ablation => ABLATION_VARIANTS.to_vec(),
        };
        let problem = if schematic_benchsuite::by_name(&self.benchmark).is_none() {
            format!("unknown benchmark {:?}", self.benchmark)
        } else if !techniques.contains(&self.technique.as_str()) {
            let kind = self.kind.name();
            format!(
                "{kind} takes one of {}, not {:?}",
                techniques.join(", "),
                self.technique
            )
        } else if self.kind == JobKind::Run && self.scenario == Scenario::periodic(0) {
            "a run needs a positive TBPF".into()
        } else if let Err(e) = self.scenario.power_model() {
            e
        } else {
            return Ok(());
        };
        Err(format!("job key \"{self}\": {problem}"))
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.kind.name(),
            self.technique,
            self.benchmark,
            self.scenario
        )
    }
}

/// Static soundness counts — the data behind one soundcheck row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoundCounts {
    /// Inter-checkpoint regions found.
    pub regions: u64,
    /// Regions classified `idempotent`.
    pub idempotent: u64,
    /// Regions classified `war-free`.
    pub war_free: u64,
    /// Regions classified `shielded`.
    pub shielded: u64,
    /// Regions classified `hazardous`.
    pub hazardous: u64,
    /// `pverify`'s forward-progress verdict on the placement.
    pub placement_sound: bool,
}

/// The value of one computed cell, tagged by the kind that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum CellValue {
    /// [`JobKind::Support`]: the technique can run the benchmark.
    Support(bool),
    /// [`JobKind::Bare`]: continuous-power cycle count and the
    /// module's data footprint in bytes.
    Bare {
        /// Active cycles of the all-VM continuous-power run.
        cycles: u64,
        /// `Module::data_bytes()` — Table I's footprint listing.
        data_bytes: u64,
    },
    /// [`JobKind::Run`]: a [`crate::run_cell_scenario_traced`] outcome
    /// (the payload of [`Cell`], without the redundant key fields).
    Run {
        /// `None` when the technique cannot even start.
        outcome: Option<CellOutcome>,
        /// Why `outcome` is `None`.
        reason: Option<String>,
    },
    /// [`JobKind::Fig7`] / [`JobKind::Ablation`]: full metrics, or a
    /// `note` row (an `error: …` / `anomaly: …` message).
    Measured {
        /// The run's metrics when the variant compiled and ran.
        metrics: Option<Metrics>,
        /// The rendered failure cell otherwise.
        note: Option<String>,
    },
    /// [`JobKind::Retentive`]: total energy in picojoules under both
    /// sleep modes.
    Retentive {
        /// Deep-sleep total (pJ).
        deep_pj: u64,
        /// Retentive-sleep total (pJ).
        retentive_pj: u64,
    },
    /// [`JobKind::Sound`]: classification counts, or a skip `note`
    /// (`unsupported`, `error: …`).
    Sound {
        /// Region classification counts when the analysis ran.
        counts: Option<SoundCounts>,
        /// The rendered skip cell otherwise.
        note: Option<String>,
    },
    /// [`JobKind::Shadow`]: distinct WAR variables the recorder
    /// observed across all TBPFs (`None` when the combination was
    /// skipped), and how many of those the static analysis missed.
    Shadow {
        /// Distinct observed WAR variables, when the cell ran.
        observed: Option<u64>,
        /// Observed WARs the static analysis did not predict.
        unpredicted: u64,
    },
}

/// Which report a [`GridSpec`] serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportId {
    /// Table I.
    Table1,
    /// Table II.
    Table2,
    /// Table III.
    Table3,
    /// Figure 6.
    Fig6,
    /// Figure 7.
    Fig7,
    /// Figure 8.
    Fig8,
    /// Design-choice ablations + retentive sleep.
    Ablations,
    /// WAR-hazard soundness check.
    Soundcheck,
}

impl ReportId {
    /// The report's command-line name (`gridrun --report NAME`) and
    /// section banner.
    pub fn name(self) -> &'static str {
        match self {
            ReportId::Table1 => "table1",
            ReportId::Table2 => "table2",
            ReportId::Table3 => "table3",
            ReportId::Fig6 => "fig6",
            ReportId::Fig7 => "fig7",
            ReportId::Fig8 => "fig8",
            ReportId::Ablations => "ablations",
            ReportId::Soundcheck => "soundcheck",
        }
    }

    /// Inverse of [`ReportId::name`].
    pub fn from_name(name: &str) -> Option<ReportId> {
        ALL_REPORTS.into_iter().find(|id| id.name() == name)
    }
}

/// All reports, in the section order of a full render.
pub const ALL_REPORTS: [ReportId; 8] = [
    ReportId::Table1,
    ReportId::Table2,
    ReportId::Table3,
    ReportId::Fig6,
    ReportId::Fig7,
    ReportId::Fig8,
    ReportId::Ablations,
    ReportId::Soundcheck,
];

/// Grid size selector.
///
/// The modes only differ in the soundcheck slice: `Quick` classifies
/// Schematic + Ratchet statically (the CI configuration), `Full` sweeps
/// all five techniques and adds the emulator shadow cross-validation
/// cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridMode {
    /// CI-sized grid: static soundcheck of Schematic + Ratchet only.
    Quick,
    /// The whole evaluation, shadow cross-validation included.
    Full,
}

/// The fig7 variant labels, in row order.
pub const FIG7_VARIANTS: [&str; 2] = ["Schematic", "All-NVM"];

/// The ablation variant labels, in row order.
pub const ABLATION_VARIANTS: [&str; 3] = ["full", "no-liveness", "no-ratio"];

/// The techniques the soundcheck sweeps: the guarded ones (Schematic
/// and Ratchet) in [`GridMode::Quick`], all five in [`GridMode::Full`].
pub fn sound_techniques(mode: GridMode) -> Vec<&'static str> {
    match mode {
        GridMode::Quick => vec!["Schematic", "Ratchet"],
        GridMode::Full => technique_names(),
    }
}

/// The jobs one report needs, before deduplication against other
/// reports.
pub fn report_jobs(report: ReportId, mode: GridMode) -> Vec<Job> {
    let benches = schematic_benchsuite::all();
    let mut jobs = Vec::new();
    match report {
        ReportId::Table1 => {
            for tech in technique_names() {
                for b in &benches {
                    jobs.push(Job::support(tech, b.name));
                }
            }
            // The footprint listing under the table reads the `bare`
            // cells' `data_bytes`.
            for b in &benches {
                jobs.push(Job::bare(b.name));
            }
        }
        ReportId::Table2 => {
            for b in &benches {
                jobs.push(Job::bare(b.name));
            }
        }
        ReportId::Table3 => {
            for tbpf in TBPFS {
                for tech in technique_names() {
                    for b in &benches {
                        jobs.push(Job::run(tech, b.name, tbpf));
                    }
                }
            }
        }
        ReportId::Fig6 => {
            for b in &benches {
                for tech in technique_names() {
                    jobs.push(Job::run(tech, b.name, ENERGY_TBPF));
                }
            }
        }
        ReportId::Fig7 => {
            for b in &benches {
                for variant in FIG7_VARIANTS {
                    jobs.push(Job::fig7(variant, b.name));
                }
            }
        }
        ReportId::Fig8 => {
            for tech in technique_names() {
                for tbpf in TBPFS {
                    jobs.push(Job::run(tech, "crc", tbpf));
                }
            }
        }
        ReportId::Ablations => {
            for b in &benches {
                for variant in ABLATION_VARIANTS {
                    jobs.push(Job::ablation(variant, b.name));
                }
                jobs.push(Job::retentive(b.name));
            }
        }
        ReportId::Soundcheck => {
            let techniques = sound_techniques(mode);
            for tech in &techniques {
                for b in &benches {
                    jobs.push(Job::sound(tech, b.name));
                }
            }
            if mode == GridMode::Full {
                for tech in &techniques {
                    for b in &benches {
                        jobs.push(Job::shadow(tech, b.name));
                    }
                }
            }
        }
    }
    jobs
}

/// A sorted, deduplicated slice of the experiment space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    mode: GridMode,
    jobs: Vec<Job>,
}

impl GridSpec {
    /// The union of every report's jobs — what `gridrun` computes when
    /// it renders every report. Shared cells (fig6 and fig8 read Table
    /// III's `run` cells; Table I reads Table II's `bare` cells) appear
    /// once.
    pub fn full_grid(mode: GridMode) -> GridSpec {
        let mut jobs: Vec<Job> = ALL_REPORTS
            .into_iter()
            .flat_map(|r| report_jobs(r, mode))
            .collect();
        jobs.sort();
        jobs.dedup();
        GridSpec { mode, jobs }
    }

    /// The jobs one report needs, as a spec (sorted and deduplicated).
    pub fn for_report(report: ReportId, mode: GridMode) -> GridSpec {
        let mut jobs = report_jobs(report, mode);
        jobs.sort();
        jobs.dedup();
        GridSpec { mode, jobs }
    }

    /// The mode this spec was built for.
    pub fn mode(&self) -> GridMode {
        self.mode
    }

    /// The jobs, in the grid's stable total order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the spec is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Deterministic shard `i` of `n`: every `n`-th job starting at
    /// `i`. Round-robin keeps the expensive kinds (which cluster in the
    /// sorted order) spread across shards. The `n` shards partition
    /// [`GridSpec::jobs`] exactly.
    ///
    /// # Panics
    ///
    /// When `n == 0` or `i >= n`.
    pub fn shard(&self, i: usize, n: usize) -> Vec<Job> {
        assert!(n >= 1, "shard count must be at least 1");
        assert!(i < n, "shard index {i} out of range for {n} shards");
        self.jobs.iter().skip(i).step_by(n).cloned().collect()
    }
}

/// A grid-layer error: artifact syntax, merge conflicts, coverage gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError(pub String);

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for GridError {}

/// The keyed cell store: each grid job's value, computed exactly once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellStore {
    cells: BTreeMap<Job, CellValue>,
}

impl CellStore {
    /// An empty store.
    pub fn new() -> CellStore {
        CellStore::default()
    }

    /// Evaluates `jobs` (fanning out over the parallel driver) into a
    /// store. Each job is computed once; results are independent of
    /// worker count and job order.
    pub fn compute(jobs: &[Job]) -> CellStore {
        let table = CostTable::msp430fr5969();
        let values = par_map(jobs, |job| evaluate(job, &table));
        let mut store = CellStore::new();
        for (job, value) in jobs.iter().zip(values) {
            store
                .insert(job.clone(), value)
                .expect("computed cells are deterministic");
        }
        store
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell for `job`, if present.
    pub fn get(&self, job: &Job) -> Option<&CellValue> {
        self.cells.get(job)
    }

    /// The cell for `job`; panics with the job key when absent — the
    /// render layer calls this only after coverage was verified.
    pub fn value(&self, job: &Job) -> &CellValue {
        self.get(job)
            .unwrap_or_else(|| panic!("cell store is missing {job}"))
    }

    /// Inserts one cell. Re-inserting an identical value is a no-op
    /// (merging overlapping shards is fine); a conflicting value is an
    /// error (two shards disagreeing would mean non-deterministic
    /// compute).
    ///
    /// # Errors
    ///
    /// A [`GridError`] naming the job on conflict.
    pub fn insert(&mut self, job: Job, value: CellValue) -> Result<(), GridError> {
        match self.cells.get(&job) {
            Some(existing) if *existing != value => Err(GridError(format!(
                "conflicting values for cell {job}: merge is not deterministic"
            ))),
            Some(_) => Ok(()),
            None => {
                self.cells.insert(job, value);
                Ok(())
            }
        }
    }

    /// Folds `other` into `self` with [`CellStore::insert`]'s
    /// duplicate rules.
    ///
    /// # Errors
    ///
    /// The first conflicting cell, as a [`GridError`].
    pub fn merge_from(&mut self, other: CellStore) -> Result<(), GridError> {
        for (job, value) in other.cells {
            self.insert(job, value)?;
        }
        Ok(())
    }

    /// The jobs of `spec` that have no cell yet (coverage check before
    /// rendering a merged store).
    pub fn missing<'a>(&self, jobs: &'a [Job]) -> Vec<&'a Job> {
        jobs.iter()
            .filter(|j| !self.cells.contains_key(j))
            .collect()
    }

    /// Reconstructs the [`Cell`] for a periodic `run` job (key fields
    /// restored from the job).
    pub fn run_cell(&self, technique: &str, benchmark: &str, tbpf: u64) -> Cell {
        self.run_cell_scenario(technique, benchmark, Scenario::periodic(tbpf))
    }

    /// Reconstructs the [`Cell`] for a `run` job under any scenario.
    pub fn run_cell_scenario(&self, technique: &str, benchmark: &str, scenario: Scenario) -> Cell {
        let job = Job::run_scenario(technique, benchmark, scenario);
        match self.value(&job) {
            CellValue::Run { outcome, reason } => Cell {
                technique: technique.into(),
                benchmark: benchmark.into(),
                outcome: outcome.clone(),
                reason: reason.clone(),
            },
            other => panic!("cell {job} has kind {other:?}, expected run"),
        }
    }

    /// Every cell in the grid's stable order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Job, &CellValue)> {
        self.cells.iter()
    }

    /// Serializes every cell, one JSON object per line, in the grid's
    /// stable order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (job, value) in self.iter() {
            write_cell(&mut out, job, value);
            out.push('\n');
        }
        out
    }

    /// Reads the cells of a file of cell lines — an artifact of
    /// [`CellStore::to_jsonl`], a shard artifact or a cache file (blank
    /// lines tolerated) — applying the merge duplicate rules. Whatever
    /// else a line carries is ignored.
    ///
    /// # Errors
    ///
    /// A [`GridError`] naming the offending line on syntax errors,
    /// unknown kinds, or conflicting duplicates.
    pub fn from_jsonl(text: &str) -> Result<CellStore, GridError> {
        let mut store = CellStore::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let line = CellLine::parse(line)
                .map_err(|e| GridError(format!("line {}: {e}", lineno + 1)))?;
            store.insert(line.job, line.value)?;
        }
        Ok(store)
    }
}

// ---------------------------------------------------------------------
// Compute kernels
// ---------------------------------------------------------------------

/// Evaluates one job. The kernels are verbatim moves of the old
/// per-report closures; the asserts (completion, oracle agreement) stay
/// in the compute layer so a bad placement fails the compute, not the
/// render.
pub fn evaluate(job: &Job, table: &CostTable) -> CellValue {
    evaluate_traced(job, table).0
}

/// Like [`evaluate`], additionally returning the stable digests of
/// every `InstrumentedModule` the kernel compiled (empty when nothing
/// compiled, e.g. unsupported or placement-rejected cells). The digest
/// list is the content-addressed part of the cell cache key: given the
/// code ([`crate::cache::CODE_IDENTITY`]), a cell's value is a pure
/// function of (job, cost table, compiled programs), all captured by
/// [`crate::cache::cell_key`].
pub fn evaluate_traced(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    match job.kind {
        JobKind::Support => {
            let b = bench(&job.benchmark);
            let value = CellValue::Support(technique_supports(&job.technique, &(b.build)(SEED)));
            (value, Vec::new())
        }
        JobKind::Bare => {
            let b = bench(&job.benchmark);
            let module = (b.build)(SEED);
            let data_bytes = module.data_bytes() as u64;
            let im = InstrumentedModule::bare_all_vm(module);
            let digest = im.stable_digest();
            // Table II ignores the VM limit.
            let config = RunConfig {
                svm_bytes: usize::MAX / 2,
                ..RunConfig::default()
            };
            let run = Machine::new(&im, table, config).run().expect("no traps");
            assert!(run.completed());
            assert_eq!(run.result, Some((b.oracle)(SEED)), "{}", b.name);
            let value = CellValue::Bare {
                cycles: run.metrics.active_cycles,
                data_bytes,
            };
            (value, vec![digest])
        }
        JobKind::Run => {
            let b = bench(&job.benchmark);
            let (cell, digest) =
                crate::run_cell_scenario_traced(&job.technique, &b, table, &job.scenario);
            let value = CellValue::Run {
                outcome: cell.outcome,
                reason: cell.reason,
            };
            (value, digest.into_iter().collect())
        }
        JobKind::Fig7 => evaluate_fig7(job, table),
        JobKind::Ablation => evaluate_ablation(job, table),
        JobKind::Retentive => evaluate_retentive(job, table),
        JobKind::Sound => evaluate_sound(job, table),
        JobKind::Shadow => evaluate_shadow(job, table),
    }
}

fn bench(name: &str) -> schematic_benchsuite::Benchmark {
    schematic_benchsuite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark '{name}'"))
}

/// The compile configuration of a fig7, ablation or retentive job: the
/// energy TBPF's budget, `SVM_BYTES` of VM, and the job's variant.
fn energy_compile_config(job: &Job, table: &CostTable) -> SchematicConfig {
    let mut config = SchematicConfig::new(eb_for_tbpf(table, ENERGY_TBPF));
    config.svm_bytes = SVM_BYTES;
    match (job.kind, job.technique.as_str()) {
        (JobKind::Fig7, "All-NVM") => config.svm_bytes = 0,
        (JobKind::Ablation, "no-liveness") => config.liveness_opt = false,
        (JobKind::Ablation, "no-ratio") => config.ratio_ordering = false,
        (JobKind::Ablation, other) if other != "full" => {
            panic!("unknown ablation variant '{other}'")
        }
        _ => {}
    }
    config
}

fn evaluate_fig7(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    let b = bench(&job.benchmark);
    let eb = eb_for_tbpf(table, ENERGY_TBPF);
    let m = (b.build)(SEED);
    let config = energy_compile_config(job, table);
    let compiled = match compile(&m, table, &config) {
        Ok(c) => c,
        Err(e) => {
            let value = CellValue::Measured {
                metrics: None,
                note: Some(format!("error: {e}")),
            };
            return (value, Vec::new());
        }
    };
    let digests = vec![compiled.instrumented.stable_digest()];
    // An anomalous placement is footnoted, not measured: its energy
    // numbers would come from runs that can corrupt results.
    match schematic_core::check_all(&compiled.instrumented, table, eb) {
        Ok(report) if !report.anomalies.is_sound() => {
            let value = CellValue::Measured {
                metrics: None,
                note: Some(format!("anomaly: {}", report.verdict_named(&m))),
            };
            return (value, digests);
        }
        _ => {}
    }
    let run = Machine::new(
        &compiled.instrumented,
        table,
        RunConfig::periodic(ENERGY_TBPF),
    )
    .run()
    .expect("no traps");
    assert!(run.completed(), "{} {}", b.name, job.technique);
    assert_eq!(run.result, Some((b.oracle)(SEED)));
    let value = CellValue::Measured {
        metrics: Some(run.metrics),
        note: None,
    };
    (value, digests)
}

fn evaluate_ablation(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    let b = bench(&job.benchmark);
    let m = (b.build)(SEED);
    let config = energy_compile_config(job, table);
    let compiled = match compile(&m, table, &config) {
        Ok(c) => c,
        Err(e) => {
            let value = CellValue::Measured {
                metrics: None,
                note: Some(format!("error: {e}")),
            };
            return (value, Vec::new());
        }
    };
    let digests = vec![compiled.instrumented.stable_digest()];
    let run = Machine::new(
        &compiled.instrumented,
        table,
        RunConfig::periodic(ENERGY_TBPF),
    )
    .run()
    .expect("no traps");
    assert!(run.completed(), "{} {}", b.name, job.technique);
    assert_eq!(
        run.result,
        Some((b.oracle)(SEED)),
        "{} {}",
        b.name,
        job.technique
    );
    let value = CellValue::Measured {
        metrics: Some(run.metrics),
        note: None,
    };
    (value, digests)
}

fn evaluate_retentive(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    let b = bench(&job.benchmark);
    let m = (b.build)(SEED);
    let config = energy_compile_config(job, table);
    let compiled = compile(&m, table, &config).expect("compiles");
    let digests = vec![compiled.instrumented.stable_digest()];
    let mut total = [0u64; 2];
    for (i, retentive) in [false, true].into_iter().enumerate() {
        let run = Machine::new(
            &compiled.instrumented,
            table,
            RunConfig {
                retentive_sleep: retentive,
                ..RunConfig::periodic(ENERGY_TBPF)
            },
        )
        .run()
        .expect("no traps");
        assert!(run.completed());
        assert_eq!(run.result, Some((b.oracle)(SEED)));
        total[i] = run.metrics.total_energy().as_pj();
    }
    let value = CellValue::Retentive {
        deep_pj: total[0],
        retentive_pj: total[1],
    };
    (value, digests)
}

fn evaluate_sound(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    let b = bench(&job.benchmark);
    let eb = eb_for_tbpf(table, ENERGY_TBPF);
    let module = (b.build)(SEED);
    let skip = |note: String| CellValue::Sound {
        counts: None,
        note: Some(note),
    };
    if !technique_supports(&job.technique, &module) {
        return (skip("unsupported".into()), Vec::new());
    }
    let im = match crate::compile_technique(&job.technique, &module, table, eb) {
        Ok(im) => im,
        Err(e) => return (skip(format!("error: {e}")), Vec::new()),
    };
    let digests = vec![im.stable_digest()];
    let report = match schematic_core::check_all(&im, table, eb) {
        Ok(r) => r,
        Err(e) => return (skip(format!("error: {e}")), digests),
    };
    let [idem, free, shielded, hazardous] = report.anomalies.class_counts();
    let value = CellValue::Sound {
        counts: Some(SoundCounts {
            regions: report.anomalies.regions.len() as u64,
            idempotent: idem as u64,
            war_free: free as u64,
            shielded: shielded as u64,
            hazardous: hazardous as u64,
            placement_sound: report.placement.is_sound(),
        }),
        note: None,
    };
    (value, digests)
}

fn evaluate_shadow(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    let b = bench(&job.benchmark);
    let eb = eb_for_tbpf(table, ENERGY_TBPF);
    let module = (b.build)(SEED);
    let skipped = CellValue::Shadow {
        observed: None,
        unpredicted: 0,
    };
    if !technique_supports(&job.technique, &module) {
        return (skipped, Vec::new());
    }
    let im = match crate::compile_technique(&job.technique, &module, table, eb) {
        Ok(im) => im,
        Err(_) => return (skipped, Vec::new()),
    };
    let digests = vec![im.stable_digest()];
    let report = match schematic_core::check_all(&im, table, eb) {
        Ok(r) => r,
        Err(_) => return (skipped, digests),
    };
    // Shadow cross-validation: run under every TBPF with the recorder
    // on; every per-element WAR the emulator actually observes must be
    // covered by a statically predicted anomaly footprint.
    let mut observed: Vec<(schematic_ir::VarId, u32)> = Vec::new();
    for tbpf in TBPFS {
        let config = RunConfig {
            shadow_war: true,
            ..crate::intermittent_run_config_model(PowerModel::Periodic { tbpf })
        };
        if let Ok(run) = Machine::new(&im, table, config).run() {
            observed.extend(run.shadow.expect("shadow requested").war_elems());
        }
    }
    observed.sort_unstable();
    observed.dedup();
    let unpredicted = observed
        .iter()
        .filter(|&&(v, e)| !report.anomalies.predicts_element(v, e))
        .count();
    // `observed` renders as distinct variables (stable across the
    // granularity change); the coverage check above is per element.
    let mut observed_vars: Vec<schematic_ir::VarId> = observed.iter().map(|&(v, _)| v).collect();
    observed_vars.dedup();
    let value = CellValue::Shadow {
        observed: Some(observed_vars.len() as u64),
        unpredicted: unpredicted as u64,
    };
    (value, digests)
}

// ---------------------------------------------------------------------
// Cell line codec
// ---------------------------------------------------------------------
//
// Every cell that leaves a process is one line: shard artifacts, cache
// records, worker answers and the cells of a `fetch` frame. A line is
// written straight into a `String` and read back by walking a `Reader`
// (both `schematic_obs::json`), with no value tree in between:
//
//   {"kind":K,"technique":T,"benchmark":B,"tbpf":N|"scenario":S,
//    "value":{…}[,"ims":[HEX…]][,"schema":V,"memo_key":HEX,"cell_key":HEX]
//    [,"wall_nanos":N,"telemetry":STR]}
//
// A plain line stops after `value`. Periodic jobs keep the legacy
// numeric `tbpf` member; other scenarios spell themselves in
// `scenario`. Readers take members in any order and skip unknown ones.

/// The cache keys a keyed line is filed under (see [`crate::cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellKeys {
    /// The [`crate::cache::CODE_IDENTITY`] of the code that computed the
    /// cell: a build-time digest of every source file that can change a
    /// cell value. A cache treats a record of another `schema` as dead,
    /// so any edit to that code recomputes the cell once; render-only
    /// edits keep it a hit. There is no version to bump by hand.
    pub schema: u64,
    /// [`crate::cache::memo_key`]: the compile inputs.
    pub memo: Digest,
    /// [`crate::cache::cell_key`]: the evaluation inputs.
    pub cell: Digest,
}

/// Per-job telemetry a worker attaches to its line: the job's
/// wall-clock nanoseconds plus everything the job's [`schematic_obs`]
/// capture recorded (phase spans, counters, events).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTelemetry {
    /// Wall-clock nanoseconds the worker spent evaluating the job.
    pub wall_nanos: u64,
    /// The job's captured observation registry.
    pub registry: schematic_obs::Registry,
}

/// One cell line: a job and its value, plus what travels with it. A
/// shard artifact or cache record is a *keyed* line (`ims` and `keys`
/// set); a worker answers with `ims` and `telemetry`; `fetch` and
/// [`CellStore::to_jsonl`] write plain lines.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLine {
    /// The grid key.
    pub job: Job,
    /// The computed value.
    pub value: CellValue,
    /// The stable digests of the programs the kernel compiled, in
    /// kernel order ([`evaluate_traced`]).
    pub ims: Option<Vec<Digest>>,
    /// The cache keys, when the line is a cache record.
    pub keys: Option<CellKeys>,
    /// A worker's per-job telemetry.
    pub telemetry: Option<WorkerTelemetry>,
}

impl CellLine {
    /// A line carrying only the cell.
    pub fn plain(job: Job, value: CellValue) -> CellLine {
        CellLine {
            job,
            value,
            ims: None,
            keys: None,
            telemetry: None,
        }
    }

    /// Appends the line, without a newline.
    pub fn write(&self, out: &mut String) {
        write_cell_members(out, &self.job, &self.value);
        if let Some(ims) = &self.ims {
            out.push_str(",\"ims\":[");
            for (i, d) in ims.iter().enumerate() {
                put_str(out, if i == 0 { "" } else { "," }, &d.to_hex());
            }
            out.push(']');
        }
        if let Some(keys) = &self.keys {
            put_u64(out, ",\"schema\":", keys.schema);
            put_str(out, ",\"memo_key\":", &keys.memo.to_hex());
            put_str(out, ",\"cell_key\":", &keys.cell.to_hex());
        }
        if let Some(t) = &self.telemetry {
            put_u64(out, ",\"wall_nanos\":", t.wall_nanos);
            let registry = schematic_obs::codec::encode(&t.registry);
            put_str(out, ",\"telemetry\":", &registry);
        }
        out.push('}');
    }

    /// Decodes one line (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A [`GridError`] naming the malformed or missing member and its
    /// byte offset — a present but corrupt telemetry payload included,
    /// so it never silently vanishes from service aggregates.
    pub fn parse(text: &str) -> Result<CellLine, GridError> {
        read_line(text).map_err(|e| GridError(e.to_string()))
    }
}

/// Appends the plain line of one cell, without a newline.
pub fn write_cell(out: &mut String, job: &Job, value: &CellValue) {
    write_cell_members(out, job, value);
    out.push('}');
}

/// Decodes a cell from a parsed [`Json`] tree by re-encoding it for
/// [`CellLine::parse`]. Only perfbench's `fetch` decode still holds a
/// tree; delete this once it moves to [`CellLine::parse`] (the ROADMAP
/// perf-gate item).
///
/// # Errors
///
/// As [`CellLine::parse`].
pub fn cell_from_json(json: &Json) -> Result<(Job, CellValue), GridError> {
    CellLine::parse(&json.encode()).map(|line| (line.job, line.value))
}

/// Appends a job's members — `"kind"`, `"technique"`, `"benchmark"` and
/// then `"tbpf"` (periodic) or `"scenario"` — with no braces around
/// them: a cell line holds them at its top level, a trace line in its
/// `job` object.
pub(crate) fn write_job(out: &mut String, job: &Job) {
    put_str(out, "\"kind\":", job.kind.name());
    put_str(out, ",\"technique\":", &job.technique);
    put_str(out, ",\"benchmark\":", &job.benchmark);
    match &job.scenario {
        Scenario::Periodic { tbpf } => put_u64(out, ",\"tbpf\":", *tbpf),
        other => put_str(out, ",\"scenario\":", &other.to_string()),
    }
}

/// Reads a job object written as `{` [`write_job`] `}`.
pub(crate) fn read_job(r: &mut Reader) -> Result<Job, JsonError> {
    let mut job = JobMembers::default();
    r.object(|r, key| {
        if !job.read(r, &key)? {
            r.skip()?;
        }
        Ok(())
    })?;
    job.finish(r)
}

/// A line up to and including its `value` member, object left open.
/// Each `put_*` call writes the literal text before a value (member
/// separator and key), then the value.
fn write_cell_members(out: &mut String, job: &Job, value: &CellValue) {
    out.push('{');
    write_job(out, job);
    out.push_str(",\"value\":");
    match value {
        CellValue::Support(supported) => put_bool(out, "{\"supported\":", *supported),
        CellValue::Bare { cycles, data_bytes } => {
            put_u64(out, "{\"cycles\":", *cycles);
            put_u64(out, ",\"data_bytes\":", *data_bytes);
        }
        CellValue::Run { outcome, reason } => {
            put_opt(out, "{\"outcome\":", outcome.as_ref(), |out, o| {
                let (_, status) = STATUSES
                    .iter()
                    .find(|(s, _)| *s == o.status)
                    .expect("listed");
                put_str(out, "{\"status\":", status);
                put_bool(out, ",\"correct\":", o.correct);
                out.push_str(",\"metrics\":");
                write_metrics(out, &o.metrics);
                out.push('}');
            });
            put_opt(out, ",\"reason\":", reason.as_deref(), write_str);
        }
        CellValue::Measured { metrics, note } => {
            put_opt(out, "{\"metrics\":", metrics.as_ref(), write_metrics);
            put_opt(out, ",\"note\":", note.as_deref(), write_str);
        }
        CellValue::Retentive {
            deep_pj,
            retentive_pj,
        } => {
            put_u64(out, "{\"deep_pj\":", *deep_pj);
            put_u64(out, ",\"retentive_pj\":", *retentive_pj);
        }
        CellValue::Sound { counts, note } => {
            put_opt(out, "{\"counts\":", counts.as_ref(), |out, c| {
                put_u64(out, "{\"regions\":", c.regions);
                put_u64(out, ",\"idempotent\":", c.idempotent);
                put_u64(out, ",\"war_free\":", c.war_free);
                put_u64(out, ",\"shielded\":", c.shielded);
                put_u64(out, ",\"hazardous\":", c.hazardous);
                put_bool(out, ",\"placement_sound\":", c.placement_sound);
                out.push('}');
            });
            put_opt(out, ",\"note\":", note.as_deref(), write_str);
        }
        CellValue::Shadow {
            observed,
            unpredicted,
        } => {
            put_opt(out, "{\"observed\":", *observed, write_u64);
            put_u64(out, ",\"unpredicted\":", *unpredicted);
        }
    }
    out.push('}');
}

fn put_u64(out: &mut String, prefix: &str, n: u64) {
    out.push_str(prefix);
    write_u64(out, n);
}

fn put_str(out: &mut String, prefix: &str, s: &str) {
    out.push_str(prefix);
    write_str(out, s);
}

fn put_bool(out: &mut String, prefix: &str, b: bool) {
    out.push_str(prefix);
    out.push_str(if b { "true" } else { "false" });
}

/// `prefix`, then `null` or the value `write` appends.
fn put_opt<T>(out: &mut String, prefix: &str, v: Option<T>, write: impl FnOnce(&mut String, T)) {
    out.push_str(prefix);
    match v {
        Some(v) => write(out, v),
        None => out.push_str("null"),
    }
}

fn write_metrics(out: &mut String, m: &Metrics) {
    for (i, (name, get, _)) in METRIC_FIELDS.iter().enumerate() {
        put_str(out, if i == 0 { "{" } else { "," }, name);
        put_u64(out, ":", get(m));
    }
    out.push('}');
}

/// The job members of an object, gathered in any order.
#[derive(Default)]
struct JobMembers {
    kind: Option<JobKind>,
    technique: Option<String>,
    benchmark: Option<String>,
    tbpf: Option<u64>,
    scenario: Option<Scenario>,
}

impl JobMembers {
    /// Reads member `key` when it is a job member; `false` (nothing
    /// consumed) otherwise.
    fn read(&mut self, r: &mut Reader, key: &str) -> Result<bool, JsonError> {
        match key {
            "kind" => {
                let name = r.str()?;
                let kind = JobKind::from_name(&name)
                    .ok_or_else(|| r.err(format!("unknown cell kind '{name}'")))?;
                self.kind = Some(kind);
            }
            "technique" => self.technique = Some(r.str()?.into_owned()),
            "benchmark" => self.benchmark = Some(r.str()?.into_owned()),
            "tbpf" => self.tbpf = Some(r.u64()?),
            "scenario" => {
                let spelling = r.str()?;
                self.scenario = Some(Scenario::parse(&spelling).map_err(|e| r.err(e))?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn finish(self, r: &Reader) -> Result<Job, JsonError> {
        let scenario = match self.scenario {
            Some(s) => s,
            None => Scenario::periodic(r.need(self.tbpf, "tbpf")?),
        };
        Ok(Job {
            kind: r.need(self.kind, "kind")?,
            technique: r.need(self.technique, "technique")?,
            benchmark: r.need(self.benchmark, "benchmark")?,
            scenario,
        })
    }
}

/// The members of a `value` object. Member names are unique across the
/// kinds, so one pass gathers them before the job's kind (which may come
/// later in the line) picks the variant; a `null` reads as absent.
#[derive(Default)]
struct ValueMembers {
    supported: Option<bool>,
    cycles: Option<u64>,
    data_bytes: Option<u64>,
    outcome: Option<CellOutcome>,
    reason: Option<String>,
    metrics: Option<Metrics>,
    note: Option<String>,
    deep_pj: Option<u64>,
    retentive_pj: Option<u64>,
    counts: Option<SoundCounts>,
    observed: Option<u64>,
    unpredicted: Option<u64>,
}

impl ValueMembers {
    fn read(r: &mut Reader) -> Result<ValueMembers, JsonError> {
        let mut v = ValueMembers::default();
        r.object(|r, key| {
            match &*key {
                "supported" => v.supported = Some(r.bool()?),
                "cycles" => v.cycles = Some(r.u64()?),
                "data_bytes" => v.data_bytes = Some(r.u64()?),
                "outcome" => v.outcome = nullable(r, read_outcome)?,
                "reason" => v.reason = nullable(r, |r| Ok(r.str()?.into_owned()))?,
                "metrics" => v.metrics = nullable(r, read_metrics)?,
                "note" => v.note = nullable(r, |r| Ok(r.str()?.into_owned()))?,
                "deep_pj" => v.deep_pj = Some(r.u64()?),
                "retentive_pj" => v.retentive_pj = Some(r.u64()?),
                "counts" => v.counts = nullable(r, read_counts)?,
                "observed" => v.observed = nullable(r, Reader::u64)?,
                "unpredicted" => v.unpredicted = Some(r.u64()?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(v)
    }

    fn into_value(self, kind: JobKind, r: &Reader) -> Result<CellValue, JsonError> {
        Ok(match kind {
            JobKind::Support => CellValue::Support(r.need(self.supported, "supported")?),
            JobKind::Bare => CellValue::Bare {
                cycles: r.need(self.cycles, "cycles")?,
                data_bytes: r.need(self.data_bytes, "data_bytes")?,
            },
            JobKind::Run => CellValue::Run {
                outcome: self.outcome,
                reason: self.reason,
            },
            JobKind::Fig7 | JobKind::Ablation => CellValue::Measured {
                metrics: self.metrics,
                note: self.note,
            },
            JobKind::Retentive => CellValue::Retentive {
                deep_pj: r.need(self.deep_pj, "deep_pj")?,
                retentive_pj: r.need(self.retentive_pj, "retentive_pj")?,
            },
            JobKind::Sound => CellValue::Sound {
                counts: self.counts,
                note: self.note,
            },
            JobKind::Shadow => CellValue::Shadow {
                observed: self.observed,
                unpredicted: r.need(self.unpredicted, "unpredicted")?,
            },
        })
    }
}

/// `None` for `null`, otherwise the value `read` decodes.
fn nullable<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<Option<T>, JsonError> {
    if r.peek() == Some(b'n') {
        r.null()?;
        Ok(None)
    } else {
        read(r).map(Some)
    }
}

fn read_outcome(r: &mut Reader) -> Result<CellOutcome, JsonError> {
    let (mut status, mut correct, mut metrics) = (None, None, None);
    r.object(|r, key| {
        match &*key {
            "status" => {
                let name = r.str()?;
                let found = STATUSES.iter().find(|(_, n)| *n == name);
                let found = found.ok_or_else(|| r.err(format!("unknown run status '{name}'")))?;
                status = Some(found.0);
            }
            "correct" => correct = Some(r.bool()?),
            "metrics" => metrics = Some(read_metrics(r)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(CellOutcome {
        status: r.need(status, "status")?,
        correct: r.need(correct, "correct")?,
        metrics: r.need(metrics, "metrics")?,
    })
}

fn read_counts(r: &mut Reader) -> Result<SoundCounts, JsonError> {
    let mut n = [None; 5];
    let mut placement_sound = None;
    r.object(|r, key| {
        match &*key {
            "regions" => n[0] = Some(r.u64()?),
            "idempotent" => n[1] = Some(r.u64()?),
            "war_free" => n[2] = Some(r.u64()?),
            "shielded" => n[3] = Some(r.u64()?),
            "hazardous" => n[4] = Some(r.u64()?),
            "placement_sound" => placement_sound = Some(r.bool()?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(SoundCounts {
        regions: r.need(n[0], "regions")?,
        idempotent: r.need(n[1], "idempotent")?,
        war_free: r.need(n[2], "war_free")?,
        shielded: r.need(n[3], "shielded")?,
        hazardous: r.need(n[4], "hazardous")?,
        placement_sound: r.need(placement_sound, "placement_sound")?,
    })
}

fn read_metrics(r: &mut Reader) -> Result<Metrics, JsonError> {
    let mut m = Metrics::default();
    let mut seen = [false; METRIC_FIELDS.len()];
    r.object(|r, key| {
        match METRIC_FIELDS.iter().position(|(name, ..)| key == *name) {
            Some(i) => {
                (METRIC_FIELDS[i].2)(&mut m, r.u64()?);
                seen[i] = true;
            }
            None => r.skip()?,
        }
        Ok(())
    })?;
    match seen.iter().position(|&seen| !seen) {
        Some(i) => Err(r.err(format!("missing field '{}'", METRIC_FIELDS[i].0))),
        None => Ok(m),
    }
}

fn read_digest(r: &mut Reader) -> Result<Digest, JsonError> {
    let hex = r.str()?;
    Digest::from_hex(&hex).ok_or_else(|| r.err(format!("'{hex}' is not a digest")))
}

fn read_line(text: &str) -> Result<CellLine, JsonError> {
    let mut r = Reader::new(text);
    let mut job = JobMembers::default();
    let mut value = None;
    let mut ims = None;
    let (mut schema, mut memo, mut cell) = (None, None, None);
    let (mut wall_nanos, mut telemetry) = (None, None);
    r.object(|r, key| {
        if job.read(r, &key)? {
            return Ok(());
        }
        match &*key {
            "value" => value = Some(ValueMembers::read(r)?),
            "ims" => ims = Some(r.vec(read_digest)?),
            "schema" => schema = Some(r.u64()?),
            "memo_key" => memo = Some(read_digest(r)?),
            "cell_key" => cell = Some(read_digest(r)?),
            "wall_nanos" => wall_nanos = Some(r.u64()?),
            "telemetry" => {
                let text = r.str()?;
                let registry = schematic_obs::codec::parse(&text)
                    .map_err(|e| r.err(format!("bad telemetry payload: {e}")))?;
                telemetry = Some(registry);
            }
            _ => r.skip()?,
        }
        Ok(())
    })?;
    r.finish()?;
    let job = job.finish(&r)?;
    let value = r.need(value, "value")?.into_value(job.kind, &r)?;
    let keys = match (schema, memo, cell, &ims) {
        (None, None, None, _) => None,
        (Some(schema), Some(memo), Some(cell), Some(_)) => Some(CellKeys { schema, memo, cell }),
        _ => return Err(r.err("keys need 'schema', 'memo_key', 'cell_key' and 'ims'")),
    };
    let telemetry = match (wall_nanos, telemetry) {
        (None, None) => None,
        (Some(wall_nanos), Some(registry)) => Some(WorkerTelemetry {
            wall_nanos,
            registry,
        }),
        _ => return Err(r.err("'wall_nanos' and 'telemetry' must appear together")),
    };
    Ok(CellLine {
        job,
        value,
        ims,
        keys,
        telemetry,
    })
}

/// Every run status with its artifact spelling.
const STATUSES: [(RunStatus, &str); 4] = [
    (RunStatus::Completed, "completed"),
    (RunStatus::Livelock, "livelock"),
    (RunStatus::CycleLimit, "cycle_limit"),
    (RunStatus::FailureLimit, "failure_limit"),
];

/// One serialized [`Metrics`] field: its label, and how to read it out
/// of and write it into the struct.
type MetricField = (&'static str, fn(&Metrics) -> u64, fn(&mut Metrics, u64));

/// Every [`Metrics`] field, in struct order: the metrics codec writes
/// them in this order and reads them in any. One field per line.
#[rustfmt::skip]
const METRIC_FIELDS: [MetricField; 23] = [
    ("computation_pj", |m| m.computation.as_pj(), |m, n| m.computation = pj(n)),
    ("save_pj", |m| m.save.as_pj(), |m, n| m.save = pj(n)),
    ("restore_pj", |m| m.restore.as_pj(), |m, n| m.restore = pj(n)),
    ("reexecution_pj", |m| m.reexecution.as_pj(), |m, n| m.reexecution = pj(n)),
    ("cpu_energy_pj", |m| m.cpu_energy.as_pj(), |m, n| m.cpu_energy = pj(n)),
    ("vm_access_energy_pj", |m| m.vm_access_energy.as_pj(), |m, n| m.vm_access_energy = pj(n)),
    ("nvm_access_energy_pj", |m| m.nvm_access_energy.as_pj(), |m, n| m.nvm_access_energy = pj(n)),
    ("active_cycles", |m| m.active_cycles, |m, n| m.active_cycles = n),
    ("power_failures", |m| m.power_failures, |m, n| m.power_failures = n),
    ("checkpoints_committed", |m| m.checkpoints_committed, |m, n| m.checkpoints_committed = n),
    ("checkpoints_skipped", |m| m.checkpoints_skipped, |m, n| m.checkpoints_skipped = n),
    ("sleep_events", |m| m.sleep_events, |m, n| m.sleep_events = n),
    ("restores", |m| m.restores, |m, n| m.restores = n),
    ("implicit_restores", |m| m.implicit_restores, |m, n| m.implicit_restores = n),
    ("implicit_saves", |m| m.implicit_saves, |m, n| m.implicit_saves = n),
    ("unexpected_failures", |m| m.unexpected_failures, |m, n| m.unexpected_failures = n),
    ("vm_reads", |m| m.vm_reads, |m, n| m.vm_reads = n),
    ("vm_writes", |m| m.vm_writes, |m, n| m.vm_writes = n),
    ("nvm_reads", |m| m.nvm_reads, |m, n| m.nvm_reads = n),
    ("nvm_writes", |m| m.nvm_writes, |m, n| m.nvm_writes = n),
    ("coherence_violations", |m| m.coherence_violations, |m, n| m.coherence_violations = n),
    ("peak_vm_bytes", |m| m.peak_vm_bytes as u64, |m, n| m.peak_vm_bytes = n as usize),
    ("insts_retired", |m| m.insts_retired, |m, n| m.insts_retired = n),
];

fn pj(n: u64) -> schematic_energy::Energy {
    schematic_energy::Energy::from_pj(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_stable_and_deduped() {
        let spec = GridSpec::full_grid(GridMode::Full);
        let jobs = spec.jobs();
        assert!(jobs.windows(2).all(|w| w[0] < w[1]), "sorted, no dupes");
        // The union is strictly smaller than the per-report sum: fig6
        // and fig8 share Table III's run cells, Table I shares Table
        // II's bare cells.
        let per_report: usize = ALL_REPORTS
            .into_iter()
            .map(|r| report_jobs(r, GridMode::Full).len())
            .sum();
        // 40 support + 8 bare + 120 run + 16 fig7 + 24 ablation +
        // 8 retentive + 40 sound + 40 shadow.
        assert_eq!(spec.len(), 296);
        assert_eq!(per_report, 359);
    }

    #[test]
    fn quick_grid_drops_shadow_cells() {
        let quick = GridSpec::full_grid(GridMode::Quick);
        assert!(quick.jobs().iter().all(|j| j.kind != JobKind::Shadow));
        assert_eq!(
            quick
                .jobs()
                .iter()
                .filter(|j| j.kind == JobKind::Sound)
                .count(),
            16
        );
    }

    #[test]
    fn shards_partition_the_grid() {
        let spec = GridSpec::full_grid(GridMode::Quick);
        for n in [1, 2, 3, 7, 13] {
            let mut union: Vec<Job> = (0..n).flat_map(|i| spec.shard(i, n)).collect();
            union.sort();
            assert_eq!(union, spec.jobs(), "n = {n}");
            // Round-robin balance: sizes differ by at most one.
            let sizes: Vec<usize> = (0..n).map(|i| spec.shard(i, n).len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "n = {n}: {sizes:?}");
        }
    }

    #[test]
    fn insert_rejects_conflicts_and_accepts_duplicates() {
        let mut store = CellStore::new();
        let job = Job::support("Schematic", "crc");
        store.insert(job.clone(), CellValue::Support(true)).unwrap();
        store.insert(job.clone(), CellValue::Support(true)).unwrap();
        assert_eq!(store.len(), 1);
        let err = store.insert(job, CellValue::Support(false)).unwrap_err();
        assert!(err.0.contains("conflicting"), "{err}");
    }

    #[test]
    fn missing_lists_uncovered_jobs() {
        let spec = GridSpec::for_report(ReportId::Table2, GridMode::Quick);
        let mut store = CellStore::new();
        assert_eq!(store.missing(spec.jobs()).len(), spec.len());
        store
            .insert(
                spec.jobs()[0].clone(),
                CellValue::Bare {
                    cycles: 1,
                    data_bytes: 2,
                },
            )
            .unwrap();
        assert_eq!(store.missing(spec.jobs()).len(), spec.len() - 1);
    }

    #[test]
    fn jsonl_roundtrips_a_computed_slice() {
        // Cheap real cells: the support row plus table2's bare runs for
        // one small benchmark.
        let jobs = vec![
            Job::support("Mementos", "randmath"),
            Job::bare("randmath"),
            Job::run("Schematic", "randmath", ENERGY_TBPF),
        ];
        let store = CellStore::compute(&jobs);
        let text = store.to_jsonl();
        assert_eq!(text.lines().count(), 3, "one cell per line");
        let decoded = CellStore::from_jsonl(&text).unwrap();
        assert_eq!(decoded, store);
    }

    #[test]
    fn from_jsonl_reports_bad_lines() {
        assert!(CellStore::from_jsonl("{\"kind\":\"nope\"}\n").is_err());
        assert!(CellStore::from_jsonl("not json\n").is_err());
        // Conflicting duplicate across lines.
        let mut text = String::new();
        for supported in [true, false] {
            write_cell(
                &mut text,
                &Job::support("Schematic", "crc"),
                &CellValue::Support(supported),
            );
            text.push('\n');
        }
        assert!(CellStore::from_jsonl(&text).is_err());
    }

    #[test]
    fn cell_lines_carry_digests_keys_and_telemetry() {
        let job = Job::run("Schematic", "crc", 10_000);
        let value = CellValue::Run {
            outcome: None,
            reason: Some("no sound placement: x".into()),
        };
        let plain = CellLine::plain(job.clone(), value.clone());
        let mut text = String::new();
        plain.write(&mut text);
        let mut artifact = String::new();
        write_cell(&mut artifact, &job, &value);
        assert_eq!(text, artifact, "a plain line is the artifact line");
        assert_eq!(CellLine::parse(&text).unwrap(), plain);
        assert!(CellLine::parse("garbage").is_err());
        assert!(CellLine::parse("{\"cell\":{}}").is_err());

        let mut registry = schematic_obs::Registry::default();
        registry.record_span("cell/compile", 1234);
        registry.record_span(&format!("job/{job}"), 5678);
        *registry.counters.entry("cells".into()).or_default() += 1;
        let digest = |n| Digest { hi: n, lo: n + 1 };
        let full = CellLine {
            ims: Some(vec![digest(5), digest(7)]),
            keys: Some(CellKeys {
                // Above 2^53: a code identity uses all 64 bits.
                schema: 0xFEDC_BA98_7654_3210,
                memo: digest(1),
                cell: digest(2),
            }),
            telemetry: Some(WorkerTelemetry {
                wall_nanos: 5678,
                registry,
            }),
            ..plain.clone()
        };
        text.clear();
        full.write(&mut text);
        let open = artifact.strip_suffix('}').unwrap();
        assert!(text.starts_with(open), "{text}");
        assert_eq!(CellLine::parse(&text).unwrap(), full);
        // A corrupt telemetry payload is an error, not a silent drop.
        let corrupt = text.replace("\\\"t\\\":\\\"reg\\\"", "\\\"t\\\":\\\"wat\\\"");
        assert_ne!(corrupt, text);
        assert!(CellLine::parse(&corrupt).is_err());
        // Keys need the digests they were derived from; wall time and
        // telemetry come together.
        text.clear();
        CellLine {
            ims: None,
            ..full.clone()
        }
        .write(&mut text);
        assert!(CellLine::parse(&text).is_err());
        let half = format!("{open},\"wall_nanos\":1}}");
        assert!(CellLine::parse(&half).is_err());
    }
}

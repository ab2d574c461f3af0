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
//!    [`crate::parallel::par_map`]; [`CellStore::to_jsonl`] /
//!    [`CellStore::from_jsonl`] serialize cells to a line-oriented JSON
//!    artifact (one cell per line, hand-rolled in [`crate::json`] — the
//!    build is offline) so shards can move between processes and hosts
//!    as plain files, and [`CellStore::merge_from`] folds them back
//!    deterministically (duplicate cells must agree, conflicts are
//!    errors).
//! 3. **Render layer** — the report functions in
//!    [`crate::experiments`] are pure functions from a store to
//!    strings; because fig6 and fig8 read the same `run` cells as
//!    Table III, the union grid computes each shared cell once.
//!
//! The `gridrun` binary drives the pipeline from the command line
//! (`--shard i/N`, `--merge`, `--spawn N`).

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
    /// intermittent run via [`crate::run_cell`].
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
    /// [`JobKind::Run`]: a [`crate::run_cell`] outcome (the payload of
    /// [`Cell`], without the redundant key fields).
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

/// All reports, in `exp_all`'s section order.
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

/// The techniques the quick soundcheck sweeps (the guarded ones).
pub const SOUND_QUICK_TECHNIQUES: [&str; 2] = ["Schematic", "Ratchet"];

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
            let techniques: Vec<&str> = match mode {
                GridMode::Quick => SOUND_QUICK_TECHNIQUES.to_vec(),
                GridMode::Full => technique_names(),
            };
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
    /// The union of every report's jobs — what `exp_all` and `gridrun`
    /// compute. Shared cells (fig6 and fig8 read Table III's `run`
    /// cells; Table I reads Table II's `bare` cells) appear once.
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

    /// Total job count when every report enumerates its slice
    /// independently (the pre-store behaviour) — the denominator of the
    /// dedup win recorded by `perfsmoke`.
    pub fn naive_job_count(mode: GridMode) -> usize {
        ALL_REPORTS
            .into_iter()
            .map(|r| report_jobs(r, mode).len())
            .sum()
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
        CellStore::compute_with_progress(jobs, &|_, _| {})
    }

    /// Like [`CellStore::compute`], additionally calling
    /// `progress(done, total)` after each completed cell. The callback
    /// runs on worker threads (hence `Sync`) and completion order is
    /// nondeterministic, but `done` is a monotone global count.
    pub fn compute_with_progress(
        jobs: &[Job],
        progress: &(impl Fn(usize, usize) + Sync),
    ) -> CellStore {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let table = CostTable::msp430fr5969();
        let total = jobs.len();
        let done = AtomicUsize::new(0);
        let values = par_map(jobs, |job| {
            let value = evaluate(job, &table);
            progress(done.fetch_add(1, Ordering::Relaxed) + 1, total);
            value
        });
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
            out.push_str(&cell_to_json(job, value).encode());
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL artifact produced by [`CellStore::to_jsonl`]
    /// (blank lines tolerated), applying the merge duplicate rules.
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
            let json =
                Json::parse(line).map_err(|e| GridError(format!("line {}: {e}", lineno + 1)))?;
            let (job, value) = cell_from_json(&json)
                .map_err(|e| GridError(format!("line {}: {e}", lineno + 1)))?;
            store.insert(job, value)?;
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
/// list is the content-addressed part of the cell cache key: a cell's
/// value is a pure function of (job, cost table, compiled programs,
/// run configs), and the last two are captured by
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
            let run = Machine::new(&im, table, bare_run_config())
                .run()
                .expect("no traps");
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

// The `RunConfig` constructors are shared between the kernels below
// and [`write_job_identity`], so the cache key can never drift from
// what the kernels actually execute.

/// Table II's continuous-power config (VM limit lifted).
fn bare_run_config() -> RunConfig {
    RunConfig {
        svm_bytes: usize::MAX / 2, // Table II ignores the VM limit
        ..RunConfig::default()
    }
}

/// The energy studies' periodic-power config (fig7 / ablations).
fn periodic_run_config(tbpf: u64) -> RunConfig {
    RunConfig {
        power: PowerModel::Periodic { tbpf },
        ..RunConfig::default()
    }
}

/// The retentive-sleep comparison config.
fn retentive_run_config(retentive: bool) -> RunConfig {
    RunConfig {
        retentive_sleep: retentive,
        ..periodic_run_config(ENERGY_TBPF)
    }
}

/// The shadow cross-validation config (WAR recorder on).
fn shadow_run_config(tbpf: u64) -> RunConfig {
    RunConfig {
        shadow_war: true,
        ..crate::intermittent_run_config(tbpf)
    }
}

/// The compile configuration a job uses, when its kind compiles with
/// an explicit [`SchematicConfig`] (fig7 variants and ablations); the
/// `compile_technique` kinds use the technique-default configuration
/// keyed separately by [`write_job_identity`].
fn job_compile_config(job: &Job, table: &CostTable) -> Option<SchematicConfig> {
    let eb = eb_for_tbpf(table, ENERGY_TBPF);
    match job.kind {
        JobKind::Fig7 => {
            let mut config = SchematicConfig::new(eb);
            config.svm_bytes = if job.technique == "All-NVM" {
                0
            } else {
                SVM_BYTES
            };
            Some(config)
        }
        JobKind::Ablation => {
            let (liveness, ratio) = match job.technique.as_str() {
                "full" => (true, true),
                "no-liveness" => (false, true),
                "no-ratio" => (true, false),
                other => panic!("unknown ablation variant '{other}'"),
            };
            let mut config = SchematicConfig::new(eb);
            config.svm_bytes = SVM_BYTES;
            config.liveness_opt = liveness;
            config.ratio_ordering = ratio;
            Some(config)
        }
        JobKind::Retentive => {
            let mut config = SchematicConfig::new(eb);
            config.svm_bytes = SVM_BYTES;
            Some(config)
        }
        _ => None,
    }
}

/// Feeds every configuration input that shapes a job's outcome — the
/// compile configuration and each `RunConfig` its kernel executes, in
/// kernel order — into a stable hasher. Together with the job key
/// fields, the cost-table identity and the compiled-program digests,
/// this pins down everything a cell's value is a function of.
pub(crate) fn write_job_identity(
    job: &Job,
    table: &CostTable,
    h: &mut schematic_ir::hash::StableHasher,
) {
    h.write_usize(SVM_BYTES);
    h.write_u64(SEED);
    if let Some(config) = job_compile_config(job, table) {
        config.identity_into(h);
    }
    match job.kind {
        JobKind::Support => {}
        JobKind::Bare => bare_run_config().identity_into(h),
        JobKind::Run => {
            // Resolving the scenario loads (and hashes the contents of)
            // a recorded trace, so editing a trace file invalidates its
            // cached cells; a missing trace file is a hard error here
            // because a key must never silently fall back.
            let power = job
                .scenario
                .power_model()
                .unwrap_or_else(|e| panic!("cell {job}: {e}"));
            h.write_u64(eb_for_tbpf(table, power.min_window_cycles()).as_pj());
            crate::intermittent_run_config_model(power).identity_into(h);
        }
        JobKind::Fig7 | JobKind::Ablation => periodic_run_config(ENERGY_TBPF).identity_into(h),
        JobKind::Retentive => {
            retentive_run_config(false).identity_into(h);
            retentive_run_config(true).identity_into(h);
        }
        JobKind::Sound => h.write_u64(eb_for_tbpf(table, ENERGY_TBPF).as_pj()),
        JobKind::Shadow => {
            h.write_u64(eb_for_tbpf(table, ENERGY_TBPF).as_pj());
            for tbpf in TBPFS {
                shadow_run_config(tbpf).identity_into(h);
            }
        }
    }
}

fn evaluate_fig7(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    let b = bench(&job.benchmark);
    let eb = eb_for_tbpf(table, ENERGY_TBPF);
    let m = (b.build)(SEED);
    let config = job_compile_config(job, table).expect("fig7 compiles explicitly");
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
        periodic_run_config(ENERGY_TBPF),
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
    let config = job_compile_config(job, table).expect("ablation compiles explicitly");
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
        periodic_run_config(ENERGY_TBPF),
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
    let config = job_compile_config(job, table).expect("retentive compiles explicitly");
    let compiled = compile(&m, table, &config).expect("compiles");
    let digests = vec![compiled.instrumented.stable_digest()];
    let mut total = [0u64; 2];
    for (i, retentive) in [false, true].into_iter().enumerate() {
        let run = Machine::new(
            &compiled.instrumented,
            table,
            retentive_run_config(retentive),
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
        if let Ok(run) = Machine::new(&im, table, shadow_run_config(tbpf)).run() {
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
// Artifact codec
// ---------------------------------------------------------------------

pub(crate) fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn opt_str(v: &Option<String>) -> Json {
    match v {
        Some(s) => Json::Str(s.clone()),
        None => Json::Null,
    }
}

/// Encodes one cell as a JSON object (one artifact line).
pub fn cell_to_json(job: &Job, value: &CellValue) -> Json {
    let value_json = match value {
        CellValue::Support(supported) => obj(vec![("supported", Json::Bool(*supported))]),
        CellValue::Bare { cycles, data_bytes } => obj(vec![
            ("cycles", Json::UInt(*cycles)),
            ("data_bytes", Json::UInt(*data_bytes)),
        ]),
        CellValue::Run { outcome, reason } => {
            let outcome_json = match outcome {
                Some(o) => obj(vec![
                    ("status", Json::Str(status_name(o.status).into())),
                    ("correct", Json::Bool(o.correct)),
                    ("metrics", metrics_to_json(&o.metrics)),
                ]),
                None => Json::Null,
            };
            obj(vec![("outcome", outcome_json), ("reason", opt_str(reason))])
        }
        CellValue::Measured { metrics, note } => {
            let metrics_json = match metrics {
                Some(m) => metrics_to_json(m),
                None => Json::Null,
            };
            obj(vec![("metrics", metrics_json), ("note", opt_str(note))])
        }
        CellValue::Retentive {
            deep_pj,
            retentive_pj,
        } => obj(vec![
            ("deep_pj", Json::UInt(*deep_pj)),
            ("retentive_pj", Json::UInt(*retentive_pj)),
        ]),
        CellValue::Sound { counts, note } => {
            let counts_json = match counts {
                Some(c) => obj(vec![
                    ("regions", Json::UInt(c.regions)),
                    ("idempotent", Json::UInt(c.idempotent)),
                    ("war_free", Json::UInt(c.war_free)),
                    ("shielded", Json::UInt(c.shielded)),
                    ("hazardous", Json::UInt(c.hazardous)),
                    ("placement_sound", Json::Bool(c.placement_sound)),
                ]),
                None => Json::Null,
            };
            obj(vec![("counts", counts_json), ("note", opt_str(note))])
        }
        CellValue::Shadow {
            observed,
            unpredicted,
        } => obj(vec![
            (
                "observed",
                match observed {
                    Some(n) => Json::UInt(*n),
                    None => Json::Null,
                },
            ),
            ("unpredicted", Json::UInt(*unpredicted)),
        ]),
    };
    let mut fields = vec![
        ("kind", Json::Str(job.kind.name().into())),
        ("technique", Json::Str(job.technique.clone())),
        ("benchmark", Json::Str(job.benchmark.clone())),
    ];
    // Periodic cells keep the legacy numeric `tbpf` field (artifact
    // lines stay byte-identical); other scenarios carry their key
    // spelling in a `scenario` string.
    match &job.scenario {
        Scenario::Periodic { tbpf } => fields.push(("tbpf", Json::UInt(*tbpf))),
        other => fields.push(("scenario", Json::Str(other.to_string()))),
    }
    fields.push(("value", value_json));
    obj(fields)
}

/// Decodes one artifact line back into a cell.
///
/// # Errors
///
/// A [`GridError`] describing the missing or mistyped field.
pub fn cell_from_json(json: &Json) -> Result<(Job, CellValue), GridError> {
    let kind_name = str_field(json, "kind")?;
    let kind = JobKind::from_name(&kind_name)
        .ok_or_else(|| GridError(format!("unknown cell kind '{kind_name}'")))?;
    let scenario = match json.get("scenario") {
        Some(Json::Str(s)) => Scenario::parse(s).map_err(GridError)?,
        Some(_) => return Err(GridError("field 'scenario' is not a string".into())),
        None => Scenario::periodic(u64_field(json, "tbpf")?),
    };
    let job = Job {
        kind,
        technique: str_field(json, "technique")?,
        benchmark: str_field(json, "benchmark")?,
        scenario,
    };
    let value_json = json
        .get("value")
        .ok_or_else(|| GridError("missing field 'value'".into()))?;
    let value = match kind {
        JobKind::Support => CellValue::Support(bool_field(value_json, "supported")?),
        JobKind::Bare => CellValue::Bare {
            cycles: u64_field(value_json, "cycles")?,
            data_bytes: u64_field(value_json, "data_bytes")?,
        },
        JobKind::Run => {
            let outcome = match value_json.get("outcome") {
                None | Some(Json::Null) => None,
                Some(o) => Some(CellOutcome {
                    status: status_from_name(&str_field(o, "status")?)?,
                    correct: bool_field(o, "correct")?,
                    metrics: metrics_from_json(
                        o.get("metrics")
                            .ok_or_else(|| GridError("missing field 'metrics'".into()))?,
                    )?,
                }),
            };
            CellValue::Run {
                outcome,
                reason: opt_str_field(value_json, "reason")?,
            }
        }
        JobKind::Fig7 | JobKind::Ablation => {
            let metrics = match value_json.get("metrics") {
                None | Some(Json::Null) => None,
                Some(m) => Some(metrics_from_json(m)?),
            };
            CellValue::Measured {
                metrics,
                note: opt_str_field(value_json, "note")?,
            }
        }
        JobKind::Retentive => CellValue::Retentive {
            deep_pj: u64_field(value_json, "deep_pj")?,
            retentive_pj: u64_field(value_json, "retentive_pj")?,
        },
        JobKind::Sound => {
            let counts = match value_json.get("counts") {
                None | Some(Json::Null) => None,
                Some(c) => Some(SoundCounts {
                    regions: u64_field(c, "regions")?,
                    idempotent: u64_field(c, "idempotent")?,
                    war_free: u64_field(c, "war_free")?,
                    shielded: u64_field(c, "shielded")?,
                    hazardous: u64_field(c, "hazardous")?,
                    placement_sound: bool_field(c, "placement_sound")?,
                }),
            };
            CellValue::Sound {
                counts,
                note: opt_str_field(value_json, "note")?,
            }
        }
        JobKind::Shadow => CellValue::Shadow {
            observed: match value_json.get("observed") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    GridError("field 'observed' is not an unsigned integer".into())
                })?),
            },
            unpredicted: u64_field(value_json, "unpredicted")?,
        },
    };
    Ok((job, value))
}

fn status_name(status: RunStatus) -> &'static str {
    match status {
        RunStatus::Completed => "completed",
        RunStatus::Livelock => "livelock",
        RunStatus::CycleLimit => "cycle_limit",
        RunStatus::FailureLimit => "failure_limit",
    }
}

fn status_from_name(name: &str) -> Result<RunStatus, GridError> {
    Ok(match name {
        "completed" => RunStatus::Completed,
        "livelock" => RunStatus::Livelock,
        "cycle_limit" => RunStatus::CycleLimit,
        "failure_limit" => RunStatus::FailureLimit,
        other => return Err(GridError(format!("unknown run status '{other}'"))),
    })
}

fn str_field(json: &Json, key: &str) -> Result<String, GridError> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| GridError(format!("missing or non-string field '{key}'")))
}

fn opt_str_field(json: &Json, key: &str) -> Result<Option<String>, GridError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(GridError(format!("field '{key}' is not a string or null"))),
    }
}

fn u64_field(json: &Json, key: &str) -> Result<u64, GridError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| GridError(format!("missing or non-integer field '{key}'")))
}

fn bool_field(json: &Json, key: &str) -> Result<bool, GridError> {
    json.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| GridError(format!("missing or non-bool field '{key}'")))
}

/// Projects one [`Metrics`] field to its serialized `u64`.
type MetricGetter = fn(&Metrics) -> u64;

/// `(label, getter)` pairs for every [`Metrics`] field, in struct
/// order; the single source of truth for the metrics codec.
const METRIC_FIELDS: [(&str, MetricGetter); 23] = [
    ("computation_pj", |m| m.computation.as_pj()),
    ("save_pj", |m| m.save.as_pj()),
    ("restore_pj", |m| m.restore.as_pj()),
    ("reexecution_pj", |m| m.reexecution.as_pj()),
    ("cpu_energy_pj", |m| m.cpu_energy.as_pj()),
    ("vm_access_energy_pj", |m| m.vm_access_energy.as_pj()),
    ("nvm_access_energy_pj", |m| m.nvm_access_energy.as_pj()),
    ("active_cycles", |m| m.active_cycles),
    ("power_failures", |m| m.power_failures),
    ("checkpoints_committed", |m| m.checkpoints_committed),
    ("checkpoints_skipped", |m| m.checkpoints_skipped),
    ("sleep_events", |m| m.sleep_events),
    ("restores", |m| m.restores),
    ("implicit_restores", |m| m.implicit_restores),
    ("implicit_saves", |m| m.implicit_saves),
    ("unexpected_failures", |m| m.unexpected_failures),
    ("vm_reads", |m| m.vm_reads),
    ("vm_writes", |m| m.vm_writes),
    ("nvm_reads", |m| m.nvm_reads),
    ("nvm_writes", |m| m.nvm_writes),
    ("coherence_violations", |m| m.coherence_violations),
    ("peak_vm_bytes", |m| m.peak_vm_bytes as u64),
    ("insts_retired", |m| m.insts_retired),
];

/// Encodes [`Metrics`] field-by-field (all integers — exact).
pub fn metrics_to_json(m: &Metrics) -> Json {
    Json::Obj(
        METRIC_FIELDS
            .iter()
            .map(|(name, get)| (name.to_string(), Json::UInt(get(m))))
            .collect(),
    )
}

/// Inverse of [`metrics_to_json`].
///
/// # Errors
///
/// A [`GridError`] naming the missing field.
pub fn metrics_from_json(json: &Json) -> Result<Metrics, GridError> {
    use schematic_energy::Energy;
    let f = |key: &str| u64_field(json, key);
    Ok(Metrics {
        computation: Energy::from_pj(f("computation_pj")?),
        save: Energy::from_pj(f("save_pj")?),
        restore: Energy::from_pj(f("restore_pj")?),
        reexecution: Energy::from_pj(f("reexecution_pj")?),
        cpu_energy: Energy::from_pj(f("cpu_energy_pj")?),
        vm_access_energy: Energy::from_pj(f("vm_access_energy_pj")?),
        nvm_access_energy: Energy::from_pj(f("nvm_access_energy_pj")?),
        active_cycles: f("active_cycles")?,
        power_failures: f("power_failures")?,
        checkpoints_committed: f("checkpoints_committed")?,
        checkpoints_skipped: f("checkpoints_skipped")?,
        sleep_events: f("sleep_events")?,
        restores: f("restores")?,
        implicit_restores: f("implicit_restores")?,
        implicit_saves: f("implicit_saves")?,
        unexpected_failures: f("unexpected_failures")?,
        vm_reads: f("vm_reads")?,
        vm_writes: f("vm_writes")?,
        nvm_reads: f("nvm_reads")?,
        nvm_writes: f("nvm_writes")?,
        coherence_violations: f("coherence_violations")?,
        peak_vm_bytes: f("peak_vm_bytes")? as usize,
        insts_retired: f("insts_retired")?,
    })
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
        assert!(spec.len() < GridSpec::naive_job_count(GridMode::Full));
        // 40 support + 8 bare + 120 run + 16 fig7 + 24 ablation +
        // 8 retentive + 40 sound + 40 shadow.
        assert_eq!(spec.len(), 296);
        assert_eq!(GridSpec::naive_job_count(GridMode::Full), 359);
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
        let a = cell_to_json(&Job::support("Schematic", "crc"), &CellValue::Support(true));
        let b = cell_to_json(
            &Job::support("Schematic", "crc"),
            &CellValue::Support(false),
        );
        let text = format!("{}\n{}\n", a.encode(), b.encode());
        assert!(CellStore::from_jsonl(&text).is_err());
    }
}

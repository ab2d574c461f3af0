//! The intermittent-computing interpreter.
//!
//! [`Machine`] executes an [`InstrumentedModule`] under a [`PowerModel`],
//! charging every instruction's cycle and energy cost from a
//! [`CostTable`], handling checkpoint intrinsics according to the
//! program's [`FailurePolicy`], and rolling power failures/restores into
//! the [`Metrics`] taxonomy of the paper's Figure 6.
//!
//! This is the reproduction's substitute for the SCEPTIC emulator the
//! paper uses (§IV-A.c): execution is at IR level, power failures are
//! periodic (TBPF), and metrics map to MSP430FR5969-like energy.

use crate::decoded::{DInst, DTerm, DecodedModule};
use crate::error::{EmuError, TrapKind};
use crate::instrumented::{CheckpointKind, CheckpointSpec, FailurePolicy, InstrumentedModule};
use crate::memory::Memory;
use crate::metrics::Metrics;
use crate::power::{PowerModel, PowerState};
use crate::shadow::{EpochStart, ShadowRecorder, ShadowReport};
use schematic_energy::{Cost, CostTable, MemClass};
use schematic_ir::{
    AccessKind, BinOp, BlockId, CheckpointId, FuncId, Operand, Reg, UnOp, VarId, VarSet,
};

/// The emulator's execution tier. Each tier is a pure dispatch
/// strategy: metrics, failure points and results are bit-identical at
/// both (the fall-back-near-failure guard proves a fused block is
/// equivalent to per-instruction stepping). `Fused` subsumes `Interp` —
/// it still interprets per instruction near power failures and in
/// blocks that cannot fuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// Per-instruction interpretation only: the reference semantics.
    /// Forced whenever WAR shadowing or lifecycle tracing is active,
    /// which must observe every access/step individually.
    Interp,
    /// Fusable blocks dispatch as one step each, back to back, with one
    /// guard check per block entry (the default).
    Fused,
}

#[allow(non_upper_case_globals)]
impl ExecTier {
    /// Alias of [`ExecTier::Fused`]. Exists only so the frozen
    /// `perfbench` harness, which names the removed trace-superblock
    /// tier, keeps compiling; a later benchmark change drops it.
    #[doc(hidden)]
    pub const Trace: ExecTier = ExecTier::Fused;
    /// Alias of [`ExecTier::Fused`]. Exists only so the frozen
    /// `perfbench` harness, which names the removed AOT tier, keeps
    /// compiling; a later benchmark change drops it.
    #[doc(hidden)]
    pub const Aot: ExecTier = ExecTier::Fused;
}

/// Abort a run after this many power failures.
pub const MAX_FAILURES: u64 = 1_000_000;
/// Declare livelock after this many consecutive power failures with no
/// new checkpoint committed — the forward-progress test of Table III.
pub const LIVELOCK_THRESHOLD: u32 = 8;
/// Maximum call-stack depth.
pub const MAX_STACK: usize = 64;
/// Cap on the block-sequence entries a profiling run records.
pub const MAX_TRACE: usize = 4_000_000;

/// Options for one run: the power model, the VM size, the active-cycle
/// cap and the observation knobs. The fixed limits are the `MAX_*` and
/// [`LIVELOCK_THRESHOLD`] constants.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Power supply model.
    pub power: PowerModel,
    /// Volatile memory capacity in bytes (`SVM`); the MSP430FR5969 has
    /// 2 KB.
    pub svm_bytes: usize,
    /// Abort after this many active cycles (guards non-termination).
    pub max_active_cycles: u64,
    /// Model a retentive low-power sleep mode (e.g. MSP430 LPM3 with
    /// SRAM retention): wait-mode checkpoints still *save* (a real
    /// outage may strike during standby) but volatile state survives
    /// the sleep, so nothing is restored on wake-up. This implements the
    /// paper's §VII future-work direction and quantifies its benefit.
    pub retentive_sleep: bool,
    /// Record the sequence of executed blocks (for path profiling), up
    /// to [`MAX_TRACE`] entries.
    /// Such a run is never lifecycle-traced: `trace` and
    /// [`crate::trace::set_forced`] are ignored for it.
    pub record_trace: bool,
    /// Record NVM first-access order per inter-checkpoint epoch and
    /// report observed WAR hazards ([`ShadowReport`]), cross-validating
    /// the static analysis in `schematic-core`. Disables the fused
    /// block dispatch for the run (metrics stay bit-identical,
    /// the run is just slower), so it is off by default.
    pub shadow_war: bool,
    /// Emit the intermittent-execution lifecycle as structured
    /// [`schematic_obs`] events (see [`crate::trace`]). Also enabled
    /// process-wide by [`crate::trace::set_forced`]. Like
    /// [`RunConfig::shadow_war`], disables fused dispatch for the run;
    /// metrics stay bit-identical. Ignored when `record_trace` is set.
    pub trace: bool,
    /// Execution tier of the run (see [`ExecTier`]); the effective tier
    /// drops to [`ExecTier::Interp`] when shadowing or tracing is
    /// active. Both tiers produce bit-identical metrics — except the
    /// transient `peak_vm_bytes` gauge, which the fused tier's up-front
    /// residency prep can raise past the per-instruction interleaving —
    /// so this knob exists for differential testing
    /// (`tests/tier_parity.rs`) and perfbench's per-tier throughput
    /// (the `emu.interp` and `emu.fused` rows of `perf_ledger.tsv`).
    pub tier: ExecTier,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            power: PowerModel::Continuous,
            svm_bytes: 2048,
            max_active_cycles: 2_000_000_000,
            retentive_sleep: false,
            record_trace: false,
            shadow_war: false,
            trace: false,
            tier: ExecTier::Fused,
        }
    }
}

impl RunConfig {
    /// Continuous power with block-sequence recording (profiling runs).
    pub fn profiling() -> Self {
        RunConfig {
            record_trace: true,
            ..RunConfig::default()
        }
    }

    /// Periodic power failures every `tbpf` cycles.
    pub fn periodic(tbpf: u64) -> Self {
        RunConfig {
            power: PowerModel::Periodic { tbpf },
            ..RunConfig::default()
        }
    }

    /// Feeds the *outcome identity* of this config into a stable hasher:
    /// every field that can change a run's [`Metrics`] or status. Used
    /// by content-addressed result caching.
    ///
    /// Deliberately excluded — observation knobs that are proven not to
    /// affect outcomes: `record_trace` (path recording),
    /// `trace` (event emission), `tier` (bit-identical at both
    /// tiers, pinned by `tests/tier_parity.rs`). `shadow_war`
    /// is *included*: it fills [`RunOutcome::shadow`], which shadow
    /// cells report on. The fixed limits ([`MAX_FAILURES`],
    /// [`LIVELOCK_THRESHOLD`], [`MAX_STACK`]) are hashed in the
    /// positions their former fields held, so that cache keys written
    /// before they became constants stay valid.
    pub fn identity_into(&self, h: &mut schematic_ir::hash::StableHasher) {
        match self.power {
            PowerModel::Continuous => h.write_tag(0xE0),
            PowerModel::Periodic { tbpf } => {
                h.write_tag(0xE1);
                h.write_u64(tbpf);
            }
            PowerModel::Stochastic {
                mean_tbpf,
                jitter,
                seed,
            } => {
                h.write_tag(0xE2);
                h.write_u64(mean_tbpf);
                h.write_u64(jitter);
                h.write_u64(seed);
            }
            // Hash the window *contents*, not the intern index: ids are
            // assigned in first-intern order, which parallel drivers do
            // not fix.
            PowerModel::Trace { id } => {
                h.write_tag(0xE3);
                let windows = crate::power::trace_windows(id);
                h.write_usize(windows.len());
                for &w in windows {
                    h.write_u64(w);
                }
            }
        }
        h.write_usize(self.svm_bytes);
        h.write_u64(self.max_active_cycles);
        h.write_u64(MAX_FAILURES);
        h.write_u64(u64::from(LIVELOCK_THRESHOLD));
        h.write_usize(MAX_STACK);
        h.write_bool(self.retentive_sleep);
        h.write_bool(self.shadow_war);
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The program ran to completion.
    Completed,
    /// Forward progress was lost: repeated failures with no new
    /// checkpoint (✗ in Table III).
    Livelock,
    /// The active-cycle budget was exhausted.
    CycleLimit,
    /// The failure budget was exhausted.
    FailureLimit,
}

/// Result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Why the run ended.
    pub status: RunStatus,
    /// The entry function's return value, when completed.
    pub result: Option<i32>,
    /// Measurements.
    pub metrics: Metrics,
    /// Executed-block trace (empty unless requested).
    pub trace: Vec<(FuncId, BlockId)>,
    /// Observed NVM access order per epoch (only under
    /// [`RunConfig::shadow_war`]).
    pub shadow: Option<ShadowReport>,
}

impl RunOutcome {
    /// Whether the program completed (✓ in Table III).
    pub fn completed(&self) -> bool {
        self.status == RunStatus::Completed
    }
}

#[derive(Debug)]
struct Frame {
    func: FuncId,
    block: BlockId,
    ip: usize,
    regs: Vec<i32>,
    ret_dst: Option<Reg>,
}

impl Clone for Frame {
    fn clone(&self) -> Frame {
        Frame {
            regs: self.regs.clone(),
            ..*self
        }
    }

    /// Reuses `regs`' buffer (`derive(Clone)` would reallocate it), so
    /// snapshotting the frame stack into a checkpoint image and back
    /// allocates nothing once the image is warm.
    fn clone_from(&mut self, source: &Frame) {
        self.func = source.func;
        self.block = source.block;
        self.ip = source.ip;
        self.regs.clone_from(&source.regs);
        self.ret_dst = source.ret_dst;
    }
}

impl Frame {
    #[inline]
    fn eval(&self, op: Operand) -> i32 {
        match op {
            Operand::Imm(v) => v,
            Operand::Reg(r) => self.regs[r.index()],
        }
    }
}

#[derive(Debug, Clone)]
struct Image {
    frames: Vec<Frame>,
    restore_vars: Vec<VarId>,
    restore_words: usize,
    /// Which checkpoint committed this image (`None` = the implicit
    /// pre-deployment/boot image) — labels the epoch a failure rolls
    /// back into for the shadow recorder.
    cp_id: Option<CheckpointId>,
}

enum Step {
    Continue,
    Finished(Option<i32>),
    Failure,
}

enum ChargeCat {
    Exec,
    Save,
    Restore,
}

/// Memory word-access costs precomputed once per [`Machine`] so the hot
/// interpreter loop never rebuilds a `Cost` from the table's raw
/// cycle/energy fields. (Per-opcode execution costs live in the decoded
/// program's flat `costs` array; see [`DecodedModule`].)
struct CostCache {
    vm_read: Cost,
    vm_write: Cost,
    nvm_read: Cost,
    nvm_write: Cost,
}

impl CostCache {
    fn new(table: &CostTable) -> Self {
        CostCache {
            vm_read: table.access_cost(MemClass::Vm, AccessKind::Read),
            vm_write: table.access_cost(MemClass::Vm, AccessKind::Write),
            nvm_read: table.access_cost(MemClass::Nvm, AccessKind::Read),
            nvm_write: table.access_cost(MemClass::Nvm, AccessKind::Write),
        }
    }
}

/// How the machine holds its decoded program: built internally for
/// one-shot runs ([`Machine::new`]) or borrowed from the caller so
/// repeated runs share one lowering ([`Machine::with_decoded`]).
enum DecodedSource<'a> {
    Owned(DecodedModule<'a>),
    Shared(&'a DecodedModule<'a>),
}

impl<'a> DecodedSource<'a> {
    #[inline]
    fn get(&self) -> &DecodedModule<'a> {
        match self {
            DecodedSource::Owned(d) => d,
            DecodedSource::Shared(d) => d,
        }
    }
}

/// The emulator.
pub struct Machine<'a> {
    im: &'a InstrumentedModule,
    table: &'a CostTable,
    costs: CostCache,
    /// The predecoded program ([`DecodedModule`]): per-instruction
    /// resolved costs, pre-resolved memory classes, flat branch targets
    /// and superblock fusion tables.
    decoded: DecodedSource<'a>,
    config: RunConfig,
    mem: Memory,
    frames: Vec<Frame>,
    power: PowerState,
    metrics: Metrics,
    cond_counters: Vec<u64>,
    image: Option<Image>,
    /// Flat index (into the decoded block array) of the block the top
    /// frame executes, kept in sync with the frame stack so `step`
    /// dispatches without re-resolving `func(..).block(..)`.
    cur_flat: u32,
    /// Retired register files recycled across calls.
    reg_pool: Vec<Vec<i32>>,
    /// Scratch list of variables to flush, reused by residency
    /// reconciliation.
    flush_scratch: Vec<VarId>,
    /// Instructions retired since the last checkpoint commit/restore.
    epoch_insts: u64,
    /// Furthest `epoch_insts` reached in the current epoch before a
    /// failure — instructions below this mark are re-executions.
    furthest: u64,
    committed_since_failure: bool,
    consecutive_no_progress: u32,
    pending_failure: bool,
    trace: Vec<(FuncId, BlockId)>,
    /// Cross-validation recorder (see [`crate::shadow`]); `None` on the
    /// default fast path.
    shadow: Option<ShadowRecorder>,
    /// Lifecycle event tracing (see [`crate::trace`]); `false` on the
    /// default fast path.
    tracing: bool,
    /// The resolved execution tier: [`RunConfig::tier`], dropped to
    /// [`ExecTier::Interp`] when shadowing or tracing is active.
    tier: ExecTier,
}

impl<'a> Machine<'a> {
    /// Prepares a machine for one run of `im`, predecoding it
    /// internally. To amortize the lowering across many runs of the same
    /// program, predecode once and use [`Machine::with_decoded`].
    pub fn new(im: &'a InstrumentedModule, table: &'a CostTable, config: RunConfig) -> Self {
        let decoded = DecodedModule::new(im, table);
        Self::build(im, table, DecodedSource::Owned(decoded), config)
    }

    /// Prepares a machine for one run of an already-decoded program,
    /// sharing the lowering with other runs.
    pub fn with_decoded(decoded: &'a DecodedModule<'a>, config: RunConfig) -> Self {
        Self::build(
            decoded.instrumented(),
            decoded.cost_table(),
            DecodedSource::Shared(decoded),
            config,
        )
    }

    fn build(
        im: &'a InstrumentedModule,
        table: &'a CostTable,
        decoded: DecodedSource<'a>,
        config: RunConfig,
    ) -> Self {
        let mem = Memory::new(&im.module, config.svm_bytes);
        let power = PowerState::new(config.power);
        let shadow = config
            .shadow_war
            .then(|| ShadowRecorder::new(im.module.vars.iter().map(|v| v.words)));
        // Path-recording runs are compile-time profiling, not
        // intermittent runs, so they never emit lifecycle events.
        let tracing = !config.record_trace && (config.trace || crate::trace::forced());
        // Shadowing and tracing must observe every access/step
        // individually, so they force the per-instruction tier (metrics
        // stay bit-identical either way).
        let tier = if config.shadow_war || tracing {
            ExecTier::Interp
        } else {
            config.tier
        };
        Machine {
            im,
            table,
            costs: CostCache::new(table),
            decoded,
            config,
            mem,
            frames: Vec::new(),
            power,
            metrics: Metrics::default(),
            cond_counters: vec![0; im.checkpoints.len()],
            image: None,
            cur_flat: 0,
            reg_pool: Vec::new(),
            flush_scratch: Vec::new(),
            epoch_insts: 0,
            furthest: 0,
            committed_since_failure: false,
            consecutive_no_progress: 0,
            pending_failure: false,
            trace: Vec::new(),
            shadow,
            tracing,
            tier,
        }
    }

    /// The execution tier this run actually uses: [`RunConfig::tier`],
    /// dropped to [`ExecTier::Interp`] when WAR shadowing or lifecycle
    /// tracing is active (those modes must observe every access/step
    /// individually; metrics are bit-identical at every tier).
    pub fn effective_tier(&self) -> ExecTier {
        self.tier
    }

    /// Emits one lifecycle trace event, appending the cumulative Fig. 6
    /// energy snapshot (see [`crate::trace`]). Call sites gate on
    /// `self.tracing`.
    fn emit<const N: usize>(
        &self,
        kind: &'static str,
        fields: [(&'static str, schematic_obs::Value); N],
    ) {
        let snapshot = crate::trace::snapshot_fields(&self.metrics);
        schematic_obs::event(kind, fields.into_iter().chain(snapshot));
    }

    /// Runs the program to an outcome.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] on a runtime trap (division by zero, index
    /// out of bounds, stack overflow) or if the VM capacity is exceeded —
    /// both indicate an invalid program or instrumentation, not an
    /// intermittency effect.
    pub fn run(mut self) -> Result<RunOutcome, EmuError> {
        if self.tracing {
            let tbpf = match self.config.power {
                PowerModel::Continuous => 0,
                model => model.min_window_cycles(),
            };
            self.emit(
                "run_start",
                [
                    ("tbpf", tbpf.into()),
                    ("scenario", self.config.power.label().into()),
                ],
            );
        }
        self.boot()?;
        loop {
            if self.metrics.active_cycles > self.config.max_active_cycles {
                return Ok(self.finish(RunStatus::CycleLimit, None));
            }
            if self.metrics.power_failures > MAX_FAILURES {
                return Ok(self.finish(RunStatus::FailureLimit, None));
            }
            match self.step()? {
                Step::Continue => {}
                Step::Finished(v) => return Ok(self.finish(RunStatus::Completed, v)),
                Step::Failure => {
                    if !self.handle_failure()? {
                        return Ok(self.finish(RunStatus::Livelock, None));
                    }
                }
            }
        }
    }

    fn finish(self, status: RunStatus, result: Option<i32>) -> RunOutcome {
        if self.tracing {
            self.emit(
                "run_end",
                [("status", crate::trace::status_label(status).into())],
            );
        }
        RunOutcome {
            status,
            result,
            metrics: self.metrics,
            trace: self.trace,
            shadow: self.shadow.map(ShadowRecorder::into_report),
        }
    }

    // ----- power & energy accounting ------------------------------------

    fn charge(&mut self, cost: Cost, cat: ChargeCat) {
        self.metrics.active_cycles += cost.cycles;
        match cat {
            ChargeCat::Exec => {
                if self.epoch_insts < self.furthest {
                    self.metrics.reexecution += cost.energy;
                } else {
                    self.metrics.computation += cost.energy;
                }
            }
            ChargeCat::Save => self.metrics.save += cost.energy,
            ChargeCat::Restore => self.metrics.restore += cost.energy,
        }
        if self.power.advance(cost.cycles) {
            self.pending_failure = true;
        }
    }

    fn charge_exec_cpu(&mut self, cost: Cost) {
        self.metrics.cpu_energy += cost.energy;
        self.charge(cost, ChargeCat::Exec);
    }

    /// Charges a memory instruction's CPU and access parts together:
    /// one power advance and one category branch instead of two. All
    /// accounting is additive and both parts land inside the same step
    /// (failure detection is a sticky flag checked at step end), so the
    /// totals and failure points are identical to two separate charges.
    fn charge_exec_mem(&mut self, cpu: Cost, access: Cost, class: MemClass) {
        self.metrics.cpu_energy += cpu.energy;
        match class {
            MemClass::Vm => self.metrics.vm_access_energy += access.energy,
            MemClass::Nvm => self.metrics.nvm_access_energy += access.energy,
        }
        self.charge(cpu + access, ChargeCat::Exec);
    }

    // ----- boot & failure handling ---------------------------------------

    fn boot(&mut self) -> Result<(), EmuError> {
        let entry = self.im.module.entry_func();
        let func = self.im.module.func(entry);
        self.frames = vec![Frame {
            func: entry,
            block: func.entry,
            ip: 0,
            regs: vec![0; func.n_regs.max(1)],
            ret_dst: None,
        }];
        self.sync_flat();
        self.record_block(entry, func.entry);
        // Load the boot set into VM (charged as restore: it is the data
        // staging the platform performs before the program runs).
        let mut words = 0;
        for &v in &self.im.boot_restore {
            words += self.load_with_evict(v)?;
        }
        if words > 0 {
            let cost = self.table.restore_words_cost(words);
            self.charge(cost, ChargeCat::Restore);
        }
        if self.tracing {
            self.emit("boot", [("words", (words as u64).into())]);
        }
        self.update_peak_vm();
        // Rollback techniques have an implicit pre-deployment checkpoint
        // at program start so a failure before the first checkpoint
        // restarts the program rather than wedging.
        if self.im.policy == FailurePolicy::Rollback {
            self.image = Some(Image {
                frames: self.frames.clone(),
                restore_vars: self.im.boot_restore.clone(),
                restore_words: self
                    .im
                    .boot_restore
                    .iter()
                    .map(|v| self.im.module.var(*v).words)
                    .sum(),
                cp_id: None,
            });
        }
        Ok(())
    }

    /// Handles a power failure; returns `false` on livelock.
    fn handle_failure(&mut self) -> Result<bool, EmuError> {
        self.pending_failure = false;
        self.metrics.power_failures += 1;
        if self.tracing {
            self.emit(
                "power_failure",
                [
                    ("lost_insts", self.epoch_insts.into()),
                    ("window_cycles", self.power.window_cycles().into()),
                ],
            );
        }
        if self.im.policy == FailurePolicy::WaitRecharge {
            // Wait-mode placement guarantees failures only strike during
            // standby; one here means EB/WCEC was violated.
            self.metrics.unexpected_failures += 1;
        }
        if self.committed_since_failure {
            self.consecutive_no_progress = 0;
        } else {
            self.consecutive_no_progress += 1;
        }
        self.committed_since_failure = false;
        if self.consecutive_no_progress >= LIVELOCK_THRESHOLD {
            return Ok(false);
        }

        self.mem.lose_volatile();
        self.power.reboot();
        self.furthest = self.furthest.max(self.epoch_insts);
        self.epoch_insts = 0;

        // Wait-mode programs have no implicit start image: a failure
        // before the first checkpoint restarts the program from scratch
        // (the NVM state is still pristine because wait-mode code never
        // writes NVM before its first checkpoint interval completes...
        // conservatively, we restart and count on placement soundness).
        // Take the image out instead of cloning it whole; only the
        // frames need a working copy.
        let image = match self.image.take() {
            Some(img) => img,
            None => {
                let entry = self.im.module.entry_func();
                let func = self.im.module.func(entry);
                Image {
                    frames: vec![Frame {
                        func: entry,
                        block: func.entry,
                        ip: 0,
                        regs: vec![0; func.n_regs.max(1)],
                        ret_dst: None,
                    }],
                    restore_vars: self.im.boot_restore.clone(),
                    restore_words: self
                        .im
                        .boot_restore
                        .iter()
                        .map(|v| self.im.module.var(*v).words)
                        .sum(),
                    cp_id: None,
                }
            }
        };
        // Rolling back restarts the epoch: the aborted attempt's reads
        // can no longer pair with the retry's writes.
        if let Some(sh) = self.shadow.as_mut() {
            sh.begin_epoch(match image.cp_id {
                Some(id) => EpochStart::Checkpoint(id),
                None => EpochStart::Boot,
            });
        }
        self.frames.clone_from(&image.frames);
        self.sync_flat();
        let cost = self.table.checkpoint_resume_cost(image.restore_words);
        self.charge(cost, ChargeCat::Restore);
        self.metrics.restores += 1;
        for &v in &image.restore_vars {
            self.load_with_evict(v)?;
        }
        if self.tracing {
            let epoch = match image.cp_id {
                Some(id) => format!("cp{}", id.0),
                None => "boot".to_string(),
            };
            self.emit(
                "restore",
                [
                    ("epoch", epoch.into()),
                    ("words", (image.restore_words as u64).into()),
                ],
            );
        }
        self.image = Some(image);
        self.update_peak_vm();
        if let Some(top) = self.frames.last() {
            let (f, b) = (top.func, top.block);
            self.record_block(f, b);
        }
        Ok(true)
    }

    fn update_peak_vm(&mut self) {
        self.metrics.peak_vm_bytes = self.metrics.peak_vm_bytes.max(self.mem.resident_bytes());
    }

    /// Reconciles VM residency with the current block's allocation plan:
    /// a *dirty* variable no longer planned for VM is written back, so
    /// later NVM accesses can never observe stale data. Clean copies
    /// stay resident (they agree with NVM) and are evicted lazily only
    /// under capacity pressure — dropping them eagerly would thrash on
    /// caller/callee plan differences. The write-back energy is charged
    /// to the *save* category and counted in `implicit_saves`.
    fn reconcile_residency(&mut self) {
        if self.frames.is_empty() || self.mem.dirty_vars().is_empty() {
            return;
        }
        let plan = self.cur_plan();
        // Common case on dynamic (return) edges: everything dirty is
        // still planned for VM — probe before touching the scratch list.
        if self
            .mem
            .dirty_vars()
            .iter()
            .all(|&v| plan.is_some_and(|p| p.contains(v)))
        {
            return;
        }
        let mut scratch = std::mem::take(&mut self.flush_scratch);
        scratch.clear();
        scratch.extend(
            self.mem
                .dirty_vars()
                .iter()
                .copied()
                .filter(|&v| !plan.is_some_and(|p| p.contains(v))),
        );
        for &v in &scratch {
            let words = self.mem.flush_to_nvm(v);
            let cost = self.table.save_words_cost(words);
            self.charge(cost, ChargeCat::Save);
            self.metrics.implicit_saves += 1;
            if let Some(sh) = self.shadow.as_mut() {
                sh.record_write(v);
            }
        }
        self.flush_scratch = scratch;
    }

    /// Loads `var` into VM, evicting clean copies of variables outside
    /// the current block's plan when the capacity would overflow.
    fn load_with_evict(&mut self, var: VarId) -> Result<usize, EmuError> {
        let words = match self.mem.load_to_vm(var) {
            Err(EmuError::VmOverflow { .. }) => {
                self.evict_clean_outside_plan(var);
                self.mem.load_to_vm(var)
            }
            other => other,
        }?;
        // `words > 0` means real NVM traffic: an already-valid copy is
        // served from VM and touches no NVM home.
        if words > 0 {
            if let Some(sh) = self.shadow.as_mut() {
                sh.record_read(var);
            }
        }
        Ok(words)
    }

    fn evict_clean_outside_plan(&mut self, keep: VarId) {
        let plan = if self.frames.is_empty() {
            None
        } else {
            self.cur_plan()
        };
        for vi in 0..self.im.module.vars.len() {
            let v = VarId::from_usize(vi);
            if v == keep || !self.mem.is_vm_valid(v) || plan.is_some_and(|p| p.contains(v)) {
                continue;
            }
            if !self.mem.is_dirty(v) {
                self.mem.drop_vm(v);
            }
        }
    }

    /// Re-derives the flat index of the top frame's block. Must be
    /// called whenever the top frame's `(func, block)` changes through a
    /// path without a precomputed flat target (return, boot, failure
    /// restore); jumps and calls assign `cur_flat` directly from the
    /// decoded target.
    fn sync_flat(&mut self) {
        if let Some(top) = self.frames.last() {
            self.cur_flat = self.decoded.get().flat_index(top.func, top.block);
        }
    }

    /// The VM allocation set of the block currently executing, as
    /// pre-resolved at decode time (`None` = empty fallback set).
    #[inline]
    fn cur_plan(&self) -> Option<&'a VarSet> {
        self.decoded.get().blocks[self.cur_flat as usize].plan
    }

    fn record_block(&mut self, func: FuncId, block: BlockId) {
        if self.config.record_trace && self.trace.len() < MAX_TRACE {
            self.trace.push((func, block));
        }
    }

    // ----- checkpoint runtime ---------------------------------------------

    fn do_checkpoint(&mut self, id: CheckpointId) -> Result<(), EmuError> {
        let im = self.im;
        let spec: &'a CheckpointSpec = match im.spec(id) {
            Some(s) => s,
            None => {
                return Err(self.trap(TrapKind::MissingCheckpointSpec { id: id.0 }));
            }
        };

        if let CheckpointKind::Guarded { threshold } = spec.kind {
            // Voltage measurement (MEMENTOS).
            self.charge(self.table.cond_check, ChargeCat::Exec);
            let frac = self.power.remaining_fraction();
            if frac >= threshold {
                self.metrics.checkpoints_skipped += 1;
                if self.tracing {
                    self.emit(
                        "checkpoint_skip",
                        [
                            ("cp", u64::from(id.0).into()),
                            ("charge_permille", ((frac * 1000.0) as u64).into()),
                        ],
                    );
                }
                return Ok(());
            }
        }

        // Commit: flush data, then snapshot volatile state. If the window
        // expires during the commit, the checkpoint is torn and does not
        // take effect (handled by the caller seeing `pending_failure`).
        let save_words = spec.save_words(&self.im.module);
        let cost = self.table.checkpoint_commit_cost(save_words);
        self.charge(cost, ChargeCat::Save);
        if self.pending_failure {
            if self.tracing {
                self.emit(
                    "checkpoint_torn",
                    [
                        ("cp", u64::from(id.0).into()),
                        ("words", (save_words as u64).into()),
                    ],
                );
            }
            return Ok(()); // torn commit: old image stays authoritative
        }
        for &v in &spec.save_vars {
            self.mem.flush_to_nvm(v);
        }
        // Overwrite the previous image in place: its buffers are reused.
        let restore_words = spec.restore_words(&self.im.module);
        match &mut self.image {
            Some(image) => {
                image.frames.clone_from(&self.frames);
                image.restore_vars.clone_from(&spec.restore_vars);
                image.restore_words = restore_words;
                image.cp_id = Some(id);
            }
            None => {
                self.image = Some(Image {
                    frames: self.frames.clone(),
                    restore_vars: spec.restore_vars.clone(),
                    restore_words,
                    cp_id: Some(id),
                });
            }
        }
        self.metrics.checkpoints_committed += 1;
        if self.tracing {
            self.emit(
                "checkpoint_commit",
                [
                    ("cp", u64::from(id.0).into()),
                    ("words", (save_words as u64).into()),
                ],
            );
        }
        self.committed_since_failure = true;
        self.furthest = 0;
        self.epoch_insts = 0;
        // The commit's own flushes land atomically with the image (a
        // torn commit took effect above as no-op), so they belong to no
        // epoch; the new epoch opens here.
        if let Some(sh) = self.shadow.as_mut() {
            sh.begin_epoch(EpochStart::Checkpoint(id));
        }

        match self.im.policy {
            FailurePolicy::WaitRecharge => {
                self.metrics.sleep_events += 1;
                if self.tracing {
                    self.emit("sleep", [("cp", u64::from(id.0).into())]);
                }
                self.power.replenish();
                self.pending_failure = false;
                if self.config.retentive_sleep {
                    // §VII future work: a retentive sleep mode (LPM with
                    // SRAM retention) keeps volatile state alive through
                    // the standby, so nothing is restored on wake-up.
                } else {
                    // Fig. 3: deep sleep loses VM, so everything needed
                    // is restored on wake-up.
                    self.mem.lose_volatile();
                    let cost = self.table.checkpoint_resume_cost(
                        self.image.as_ref().expect("just set").restore_words,
                    );
                    self.charge(cost, ChargeCat::Restore);
                    self.metrics.restores += 1;
                    for &v in &spec.restore_vars {
                        self.load_with_evict(v)?;
                    }
                    if self.tracing {
                        let words = spec.restore_words(&self.im.module) as u64;
                        self.emit(
                            "wakeup",
                            [("cp", u64::from(id.0).into()), ("words", words.into())],
                        );
                    }
                }
            }
            FailurePolicy::Rollback => {
                // Execution continues; the checkpoint is also where the
                // allocation may change: drop what leaves VM, load what
                // enters.
                for &v in &spec.save_vars {
                    if !spec.restore_vars.contains(&v) {
                        self.mem.drop_vm(v);
                    }
                }
                let mut migrate_words = 0;
                for &v in &spec.restore_vars {
                    migrate_words += self.load_with_evict(v)?;
                }
                if migrate_words > 0 {
                    let cost = self.table.restore_words_cost(migrate_words);
                    self.charge(cost, ChargeCat::Restore);
                    if self.tracing {
                        self.emit(
                            "migrate",
                            [
                                ("cp", u64::from(id.0).into()),
                                ("words", (migrate_words as u64).into()),
                            ],
                        );
                    }
                }
            }
        }
        self.update_peak_vm();
        Ok(())
    }

    // ----- instruction execution -------------------------------------------

    fn trap(&self, kind: TrapKind) -> EmuError {
        let top = self.frames.last().expect("active frame");
        EmuError::Trap {
            kind,
            func: top.func,
            block: top.block,
        }
    }

    fn eval(&self, op: Operand) -> i32 {
        match op {
            Operand::Imm(v) => v,
            Operand::Reg(r) => self.frames.last().expect("active frame").regs[r.index()],
        }
    }

    fn set_reg(&mut self, r: Reg, v: i32) {
        self.frames.last_mut().expect("active frame").regs[r.index()] = v;
    }

    fn ensure_vm_for_read(&mut self, var: VarId) -> Result<(), EmuError> {
        if !self.mem.is_vm_valid(var) {
            let words = self.load_with_evict(var)?;
            let cost = self.table.restore_words_cost(words);
            self.charge(cost, ChargeCat::Restore);
            self.metrics.implicit_restores += 1;
            self.update_peak_vm();
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_load(
        &mut self,
        dst: Reg,
        var: VarId,
        idx: Option<Operand>,
        class: MemClass,
        base: u32,
        words: u32,
        cpu: Cost,
    ) -> Result<(), EmuError> {
        let value = match class {
            MemClass::Vm => {
                self.ensure_vm_for_read(var)?;
                self.metrics.vm_reads += 1;
                self.charge_exec_mem(cpu, self.costs.vm_read, MemClass::Vm);
                let regs = &self.frames.last().expect("active frame").regs;
                let at = resolve_at(regs, idx, base, words, var).map_err(|k| self.trap(k))?;
                self.mem.vm_read_at(at)
            }
            MemClass::Nvm => {
                self.metrics.nvm_reads += 1;
                self.charge_exec_mem(cpu, self.costs.nvm_read, MemClass::Nvm);
                let regs = &self.frames.last().expect("active frame").regs;
                let at = resolve_at(regs, idx, base, words, var).map_err(|k| self.trap(k))?;
                if let Some(sh) = self.shadow.as_mut() {
                    // Resolved first: an out-of-bounds index traps before
                    // any NVM word is touched.
                    sh.record_read_at(var, at - base as usize);
                }
                self.mem.nvm_read_at(at)
            }
        };
        self.set_reg(dst, value);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_store(
        &mut self,
        var: VarId,
        idx: Option<Operand>,
        src: Operand,
        class: MemClass,
        base: u32,
        words: u32,
        cpu: Cost,
    ) -> Result<(), EmuError> {
        let top = self.frames.last().expect("active frame");
        let value = top.eval(src);
        match class {
            MemClass::Vm => {
                if !self.mem.is_vm_valid(var) {
                    if idx.is_none() {
                        // Full scalar overwrite: no restore needed.
                        if let Err(EmuError::VmOverflow { .. }) = self.mem.alloc_vm_uninit(var) {
                            self.evict_clean_outside_plan(var);
                            self.mem.alloc_vm_uninit(var)?;
                        }
                        self.update_peak_vm();
                    } else {
                        self.ensure_vm_for_read(var)?;
                    }
                }
                self.metrics.vm_writes += 1;
                self.charge_exec_mem(cpu, self.costs.vm_write, MemClass::Vm);
                let regs = &self.frames.last().expect("active frame").regs;
                let at = resolve_at(regs, idx, base, words, var).map_err(|k| self.trap(k))?;
                self.mem.vm_write_at(var, at, value);
            }
            MemClass::Nvm => {
                if self.mem.nvm_write_would_clobber(var) {
                    self.metrics.coherence_violations += 1;
                }
                self.metrics.nvm_writes += 1;
                self.charge_exec_mem(cpu, self.costs.nvm_write, MemClass::Nvm);
                let regs = &self.frames.last().expect("active frame").regs;
                let at = resolve_at(regs, idx, base, words, var).map_err(|k| self.trap(k))?;
                if let Some(sh) = self.shadow.as_mut() {
                    // Resolved first: an out-of-bounds index traps before
                    // any NVM word is touched.
                    sh.record_write_at(var, at - base as usize);
                }
                self.mem.nvm_write_at(var, at, value);
            }
        }
        Ok(())
    }
}

#[inline]
fn eval_bin(op: BinOp, lhs: i32, rhs: i32) -> Result<i32, TrapKind> {
    Ok(match op {
        BinOp::Add => lhs.wrapping_add(rhs),
        BinOp::Sub => lhs.wrapping_sub(rhs),
        BinOp::Mul => lhs.wrapping_mul(rhs),
        BinOp::DivS => {
            if rhs == 0 || (lhs == i32::MIN && rhs == -1) {
                return Err(TrapKind::DivisionByZero);
            }
            lhs / rhs
        }
        BinOp::DivU => {
            if rhs == 0 {
                return Err(TrapKind::DivisionByZero);
            }
            ((lhs as u32) / (rhs as u32)) as i32
        }
        BinOp::RemS => {
            if rhs == 0 || (lhs == i32::MIN && rhs == -1) {
                return Err(TrapKind::DivisionByZero);
            }
            lhs % rhs
        }
        BinOp::RemU => {
            if rhs == 0 {
                return Err(TrapKind::DivisionByZero);
            }
            ((lhs as u32) % (rhs as u32)) as i32
        }
        BinOp::And => lhs & rhs,
        BinOp::Or => lhs | rhs,
        BinOp::Xor => lhs ^ rhs,
        BinOp::Shl => lhs.wrapping_shl(rhs as u32),
        BinOp::LShr => ((lhs as u32).wrapping_shr(rhs as u32)) as i32,
        BinOp::AShr => lhs.wrapping_shr(rhs as u32),
    })
}

/// Evaluates an operand against a register file.
#[inline(always)]
fn ev(regs: &[i32], op: Operand) -> i32 {
    match op {
        Operand::Imm(v) => v,
        Operand::Reg(r) => regs[r.index()],
    }
}

/// Resolves a pre-decoded memory access to its flat arena word address:
/// one bounds check against the decode-time variable size, then
/// `base + idx` (see `DInst::Load`).
#[inline(always)]
fn resolve_at(
    regs: &[i32],
    idx: Option<Operand>,
    base: u32,
    words: u32,
    var: VarId,
) -> Result<usize, TrapKind> {
    let i = match idx {
        None => 0i64,
        Some(o) => i64::from(ev(regs, o)),
    };
    if i < 0 || i as u64 >= u64::from(words) {
        return Err(TrapKind::IndexOutOfBounds {
            var,
            index: i,
            words: words as usize,
        });
    }
    Ok(base as usize + i as usize)
}

/// Executes one fused (pure, trap-impossible) instruction directly on a
/// register file. Only the five register-op variants can appear inside a
/// superblock (see `DInst::is_fusable`). `inline(always)` keeps the
/// dispatch match inside the superblock run loops — as a standalone call
/// it showed up at ~25% of emulator CPU time in profiles.
#[inline(always)]
fn exec_pure(di: &DInst, regs: &mut [i32]) {
    match *di {
        DInst::Bin { dst, op, lhs, rhs } => {
            let (l, r) = (ev(regs, lhs), ev(regs, rhs));
            regs[dst.index()] = eval_bin(op, l, r).expect("fused ops cannot trap");
        }
        DInst::Cmp { dst, op, lhs, rhs } => {
            regs[dst.index()] = i32::from(op.eval(ev(regs, lhs), ev(regs, rhs)));
        }
        DInst::Un { dst, op, src } => {
            let s = ev(regs, src);
            regs[dst.index()] = match op {
                UnOp::Neg => s.wrapping_neg(),
                UnOp::Not => !s,
            };
        }
        DInst::Copy { dst, src } => regs[dst.index()] = ev(regs, src),
        DInst::Select {
            dst,
            cond,
            then_val,
            else_val,
        } => {
            regs[dst.index()] = if ev(regs, cond) != 0 {
                ev(regs, then_val)
            } else {
                ev(regs, else_val)
            };
        }
        _ => unreachable!("non-fusable instruction inside a superblock"),
    }
}

/// Executes the body of one fusable block whose VM residency has been
/// established by the prep pass: pure arena data movement with no
/// residency checks, no per-access frame re-acquisition and no charging
/// (all Exec accounting for the block is a decode-time constant
/// committed by the caller). `clobbers` receives NVM writes
/// that would discard dirty VM data (`Metrics::coherence_violations`).
fn run_body(
    db: &crate::decoded::DecodedBlock<'_>,
    regs: &mut [i32],
    mem: &mut Memory,
    clobbers: &mut u64,
) -> Result<(), TrapKind> {
    let insts = &db.insts;
    let n = insts.len();
    let mut ip = 0usize;
    while ip < n {
        let run = db.fuse_len[ip] as usize;
        if run > 0 {
            for di in &insts[ip..ip + run] {
                exec_pure(di, regs);
            }
            ip += run;
            continue;
        }
        match insts[ip] {
            DInst::Load {
                dst,
                var,
                idx,
                class,
                base,
                words,
            } => {
                let at = resolve_at(regs, idx, base, words, var)?;
                regs[dst.index()] = match class {
                    MemClass::Vm => mem.vm_read_at(at),
                    MemClass::Nvm => mem.nvm_read_at(at),
                };
            }
            DInst::Store {
                var,
                idx,
                src,
                class,
                base,
                words,
            } => {
                let at = resolve_at(regs, idx, base, words, var)?;
                let value = ev(regs, src);
                match class {
                    MemClass::Vm => mem.vm_write_at(var, at, value),
                    MemClass::Nvm => {
                        if mem.nvm_write_would_clobber(var) {
                            *clobbers += 1;
                        }
                        mem.nvm_write_at(var, at, value);
                    }
                }
            }
            _ => unreachable!("non-fusable instruction in a fusable block"),
        }
        ip += 1;
    }
    Ok(())
}

impl<'a> Machine<'a> {
    fn step(&mut self) -> Result<Step, EmuError> {
        // Fused dispatch: execute the current block — body plus
        // terminator — as one step, when every instruction is pure or a
        // plain load/store and the worst-case bound `ub_cost` proves
        // that no power failure, cycle-limit edge, or re-execution
        // category flip can land inside it. `ub_cost` covers the largest
        // implicit-restore charge every VM access could trigger, so the
        // proof holds for any dynamic memory state; the strict `<` on
        // the re-execution side keeps the terminator's charge in the
        // same category as the instructions'. Near a failure the block
        // guard fails and execution falls back to per-instruction
        // stepping — the fall-back-near-failure rule that keeps metrics
        // bit-identical across tiers. Shadow/trace modes run at
        // `ExecTier::Interp` so the recorder sees the true access order.
        //
        // The loop keeps execution *resident*: when a fused block lands
        // on another fusable block (the common case — a hot loop whose
        // back edge re-enters its own body), the next block dispatches
        // immediately, after one guard check, instead of bouncing
        // through `run`'s outer loop. Staying resident is invisible to
        // the outcome: the run-loop limit checks cannot fire between
        // fused steps (the guard already bounds `active_cycles`, and
        // failures exit the loop).
        if self.tier == ExecTier::Fused {
            while self.frames.last().expect("active frame").ip == 0 {
                let db = &self.decoded.get().blocks[self.cur_flat as usize];
                if !(db.fusable && self.fused_guard(db.fused.ub_cost.cycles, db.insts.len() as u64))
                {
                    break;
                }
                let s = self.step_block_unit()?;
                if matches!(s, Step::Finished(_)) {
                    return Ok(s);
                }
                // Edge reconciliation after the final jump may cross the
                // power window (it is not covered by `ub_cost`, and need
                // not be: it lands at the step boundary in both modes).
                if self.pending_failure {
                    self.pending_failure = false;
                    return Ok(Step::Failure);
                }
            }
        }

        let ip = self.frames.last().expect("active frame").ip;
        let db = &self.decoded.get().blocks[self.cur_flat as usize];
        if ip < db.insts.len() {
            // Superblock fast path: retire the whole fusable run with a
            // single charge when nothing observable can land inside it —
            // no power failure (headroom), no cycle-limit edge, and no
            // computation/re-execution category flip. Each guard is a
            // monotone-prefix argument: if the total fits, so does every
            // prefix, so per-instruction stepping would behave
            // identically (same failure points, same metrics, bit for
            // bit) — just with n times the bookkeeping.
            let n = db.fuse_len[ip] as usize;
            if n >= 2 {
                let total = db.fuse_cost[ip];
                if self.power.headroom(total.cycles)
                    && self.metrics.active_cycles + total.cycles <= self.config.max_active_cycles
                    && (self.epoch_insts >= self.furthest
                        || self.epoch_insts + n as u64 <= self.furthest)
                {
                    let frame = self.frames.last_mut().expect("active frame");
                    for di in &db.insts[ip..ip + n] {
                        exec_pure(di, &mut frame.regs);
                    }
                    frame.ip = ip + n;
                    // One aggregate charge (integer sums equal the
                    // per-instruction sums exactly).
                    self.metrics.active_cycles += total.cycles;
                    self.metrics.cpu_energy += total.energy;
                    if self.epoch_insts < self.furthest {
                        self.metrics.reexecution += total.energy;
                    } else {
                        self.metrics.computation += total.energy;
                    }
                    self.metrics.insts_retired += n as u64;
                    self.epoch_insts += n as u64;
                    let failed = self.power.advance(total.cycles);
                    debug_assert!(!failed, "fused superblock must fit the power window");
                    return Ok(Step::Continue);
                }
            }
            // Direct-threaded dispatch: the decode-time-selected handler
            // for this instruction, no opcode re-match.
            let di = db.insts[ip];
            let cost = db.costs[ip];
            let op = db.ops[ip];
            self.frames.last_mut().expect("active frame").ip += 1;
            op(self, di, cost)?;
            self.metrics.insts_retired += 1;
            self.epoch_insts += 1;
        } else {
            let term = db.term;
            let cost = db.term_cost;
            self.charge_exec_cpu(cost);
            if let Step::Finished(v) = self.apply_term(term) {
                return Ok(Step::Finished(v));
            }
        }

        if self.pending_failure {
            self.pending_failure = false;
            return Ok(Step::Failure);
        }
        Ok(Step::Continue)
    }

    /// The fall-back-near-failure guard for a fused block with
    /// worst-case cycle bound `ub_cycles` and `n` instructions: dispatch
    /// fused only when no power failure, no cycle-limit edge and no
    /// computation/re-execution category flip can land inside. Each
    /// condition is a monotone-prefix argument — if the total fits, so
    /// does every prefix — so per-instruction stepping would behave
    /// bit-identically.
    #[inline]
    fn fused_guard(&self, ub_cycles: u64, n: u64) -> bool {
        self.power.headroom(ub_cycles)
            && self.metrics.active_cycles + ub_cycles <= self.config.max_active_cycles
            && (self.epoch_insts >= self.furthest || self.epoch_insts + n < self.furthest)
    }

    /// Handles a VM-residency miss found by a fused block's prep pass,
    /// with full `&mut self` available (the body loop pins disjoint
    /// field borrows and cannot call back in). The charge order matches
    /// per-instruction execution: the restore lands before the access's
    /// exec charge either way, and all sums commute within the step.
    fn run_cold(&mut self, p: crate::decoded::PrepOp) -> Result<(), EmuError> {
        match p.kind {
            crate::decoded::PrepKind::Restore => self.ensure_vm_for_read(p.var),
            crate::decoded::PrepKind::AllocScalar => {
                if let Err(EmuError::VmOverflow { .. }) = self.mem.alloc_vm_uninit(p.var) {
                    self.evict_clean_outside_plan(p.var);
                    self.mem.alloc_vm_uninit(p.var)?;
                }
                self.update_peak_vm();
                Ok(())
            }
        }
    }

    /// Executes the terminator of the current block: transfers control
    /// (the cost has already been charged, standalone or as part of a
    /// fused bundle) and reports completion on a final `ret`.
    fn apply_term(&mut self, term: DTerm) -> Step {
        match term {
            DTerm::Br {
                target,
                flat,
                reconcile,
            } => self.jump(target, flat, reconcile),
            DTerm::CondBr {
                cond,
                then_bb,
                then_flat,
                then_reconcile,
                else_bb,
                else_flat,
                else_reconcile,
            } => {
                if self.eval(cond) != 0 {
                    self.jump(then_bb, then_flat, then_reconcile);
                } else {
                    self.jump(else_bb, else_flat, else_reconcile);
                }
            }
            DTerm::Ret(v) => {
                let value = v.map(|o| self.eval(o));
                if self.frames.len() == 1 {
                    self.frames.last_mut().expect("frame").ip = usize::MAX; // defensive
                    return Step::Finished(value);
                }
                let done = self.frames.pop().expect("frame");
                if let (Some(dst), Some(val)) = (done.ret_dst, value) {
                    self.set_reg(dst, val);
                }
                self.reg_pool.push(done.regs);
                self.sync_flat();
                self.reconcile_residency();
            }
        }
        Step::Continue
    }

    /// Executes one fusable block — prep pass, checkless body, final
    /// terminator — as a single step and commits its decode-time
    /// [`FusedCosts`](crate::decoded::FusedCosts) bundle directly.
    ///
    /// The caller has already proven (via the block's `ub_cost`) that
    /// nothing observable can land mid-block, so all Exec-category
    /// accounting is a decode-time constant committed once. A
    /// mid-block trap aborts the whole run, so per-instruction stepping
    /// would produce bit-identical results. The terminator goes through
    /// the ordinary `jump`, so path recording sees every edge.
    fn step_block_unit(&mut self) -> Result<Step, EmuError> {
        let flat = self.cur_flat as usize;
        let mut prep_pos = 0usize;
        loop {
            let mut cold: Option<crate::decoded::PrepOp> = None;
            let mut trapped: Option<TrapKind> = None;
            {
                let d = self.decoded.get();
                let db = &d.blocks[flat];
                let frame = self.frames.last_mut().expect("active frame");
                let mem = &mut self.mem;
                let clobbers = &mut self.metrics.coherence_violations;
                // Prep: establish VM residency for the block's accesses,
                // charging implicit restores exactly where
                // per-instruction execution would (at first access).
                while prep_pos < db.prep.len() {
                    let p = db.prep[prep_pos];
                    if mem.is_vm_valid(p.var) {
                        prep_pos += 1;
                        continue;
                    }
                    cold = Some(p);
                    break;
                }
                if cold.is_none() {
                    if let Err(k) = run_body(db, &mut frame.regs, mem, clobbers) {
                        trapped = Some(k);
                    }
                }
            }
            if let Some(k) = trapped {
                return Err(self.trap(k));
            }
            match cold {
                None => break,
                Some(p) => {
                    self.run_cold(p)?;
                    prep_pos += 1;
                }
            }
        }
        let d = self.decoded.get();
        let db = &d.blocks[flat];
        let f = db.fused;
        let n = db.insts.len() as u64;
        let term = db.term;
        self.metrics.active_cycles += f.exec_cost.cycles;
        if self.epoch_insts < self.furthest {
            self.metrics.reexecution += f.exec_cost.energy;
        } else {
            self.metrics.computation += f.exec_cost.energy;
        }
        self.metrics.cpu_energy += f.cpu_energy;
        self.metrics.vm_access_energy += f.vm_energy;
        self.metrics.nvm_access_energy += f.nvm_energy;
        self.metrics.vm_reads += u64::from(f.vm_reads);
        self.metrics.vm_writes += u64::from(f.vm_writes);
        self.metrics.nvm_reads += u64::from(f.nvm_reads);
        self.metrics.nvm_writes += u64::from(f.nvm_writes);
        self.metrics.insts_retired += n;
        self.epoch_insts += n;
        let failed = self.power.advance(f.exec_cost.cycles);
        debug_assert!(!failed, "fused block must fit the power window");
        Ok(self.apply_term(term))
    }

    /// Transfers control to `target` (flat index `flat`). `reconcile`
    /// is the edge's precomputed flag (see [`DTerm`]): `false` proves
    /// the residency flush set is empty, so the walk is skipped.
    fn jump(&mut self, target: BlockId, flat: u32, reconcile: bool) {
        let top = self.frames.last_mut().expect("active frame");
        top.block = target;
        top.ip = 0;
        let (f, b) = (top.func, top.block);
        self.cur_flat = flat;
        self.record_block(f, b);
        if reconcile {
            self.reconcile_residency();
        }
    }
}

// ----- direct-threaded instruction handlers -----------------------------
//
// One free function per `DInst` variant, selected once at decode time
// (`op_for`) and stored per instruction in `DecodedBlock::ops`. The
// per-instruction step path calls straight through the function pointer —
// the big opcode match runs once per program, not once per step.

/// A direct-threaded instruction handler (see [`op_for`]).
pub(crate) type OpFn = for<'m, 'a> fn(&'m mut Machine<'a>, DInst, Cost) -> Result<(), EmuError>;

/// Selects the handler for one decoded instruction.
pub(crate) fn op_for(di: &DInst) -> OpFn {
    match di {
        DInst::Bin { .. } => op_bin,
        DInst::Cmp { .. } => op_cmp,
        DInst::Un { .. } => op_un,
        DInst::Copy { .. } => op_copy,
        DInst::Select { .. } => op_select,
        DInst::Load { .. } => op_load,
        DInst::Store { .. } => op_store,
        DInst::Call { .. } => op_call,
        DInst::Checkpoint { .. } => op_checkpoint,
        DInst::CondCheckpoint { .. } => op_cond_checkpoint,
        DInst::SaveVar { .. } => op_savevar,
        DInst::RestoreVar { .. } => op_restorevar,
    }
}

fn op_bin(m: &mut Machine<'_>, di: DInst, cost: Cost) -> Result<(), EmuError> {
    let DInst::Bin { dst, op, lhs, rhs } = di else {
        unreachable!("op_bin dispatched on a non-Bin instruction")
    };
    m.charge_exec_cpu(cost);
    let top = m.frames.last().expect("active frame");
    let (l, r) = (top.eval(lhs), top.eval(rhs));
    let v = eval_bin(op, l, r).map_err(|k| m.trap(k))?;
    m.set_reg(dst, v);
    Ok(())
}

fn op_cmp(m: &mut Machine<'_>, di: DInst, cost: Cost) -> Result<(), EmuError> {
    let DInst::Cmp { dst, op, lhs, rhs } = di else {
        unreachable!("op_cmp dispatched on a non-Cmp instruction")
    };
    m.charge_exec_cpu(cost);
    let top = m.frames.last_mut().expect("active frame");
    let v = op.eval(top.eval(lhs), top.eval(rhs));
    top.regs[dst.index()] = i32::from(v);
    Ok(())
}

fn op_un(m: &mut Machine<'_>, di: DInst, cost: Cost) -> Result<(), EmuError> {
    let DInst::Un { dst, op, src } = di else {
        unreachable!("op_un dispatched on a non-Un instruction")
    };
    m.charge_exec_cpu(cost);
    let top = m.frames.last_mut().expect("active frame");
    let s = top.eval(src);
    let v = match op {
        UnOp::Neg => s.wrapping_neg(),
        UnOp::Not => !s,
    };
    top.regs[dst.index()] = v;
    Ok(())
}

fn op_copy(m: &mut Machine<'_>, di: DInst, cost: Cost) -> Result<(), EmuError> {
    let DInst::Copy { dst, src } = di else {
        unreachable!("op_copy dispatched on a non-Copy instruction")
    };
    m.charge_exec_cpu(cost);
    let top = m.frames.last_mut().expect("active frame");
    let v = top.eval(src);
    top.regs[dst.index()] = v;
    Ok(())
}

fn op_select(m: &mut Machine<'_>, di: DInst, cost: Cost) -> Result<(), EmuError> {
    let DInst::Select {
        dst,
        cond,
        then_val,
        else_val,
    } = di
    else {
        unreachable!("op_select dispatched on a non-Select instruction")
    };
    m.charge_exec_cpu(cost);
    let top = m.frames.last_mut().expect("active frame");
    let v = if top.eval(cond) != 0 {
        top.eval(then_val)
    } else {
        top.eval(else_val)
    };
    top.regs[dst.index()] = v;
    Ok(())
}

fn op_load(m: &mut Machine<'_>, di: DInst, cost: Cost) -> Result<(), EmuError> {
    let DInst::Load {
        dst,
        var,
        idx,
        class,
        base,
        words,
    } = di
    else {
        unreachable!("op_load dispatched on a non-Load instruction")
    };
    m.exec_load(dst, var, idx, class, base, words, cost)
}

fn op_store(m: &mut Machine<'_>, di: DInst, cost: Cost) -> Result<(), EmuError> {
    let DInst::Store {
        var,
        idx,
        src,
        class,
        base,
        words,
    } = di
    else {
        unreachable!("op_store dispatched on a non-Store instruction")
    };
    m.exec_store(var, idx, src, class, base, words, cost)
}

fn op_call(m: &mut Machine<'_>, di: DInst, cost: Cost) -> Result<(), EmuError> {
    let DInst::Call {
        dst,
        func,
        args_start,
        args_end,
        n_regs,
        entry,
        entry_flat,
        reconcile,
    } = di
    else {
        unreachable!("op_call dispatched on a non-Call instruction")
    };
    m.charge_exec_cpu(cost);
    if m.frames.len() >= MAX_STACK {
        return Err(m.trap(TrapKind::StackOverflow { limit: MAX_STACK }));
    }
    let mut regs = m.reg_pool.pop().unwrap_or_default();
    regs.clear();
    regs.resize(n_regs as usize, 0);
    {
        let d = m.decoded.get();
        let args = &d.call_args[args_start as usize..args_end as usize];
        for (i, a) in args.iter().enumerate() {
            regs[i] = m.eval(*a);
        }
    }
    m.frames.push(Frame {
        func,
        block: entry,
        ip: 0,
        regs,
        ret_dst: dst,
    });
    m.cur_flat = entry_flat;
    m.record_block(func, entry);
    if reconcile {
        m.reconcile_residency();
    }
    Ok(())
}

fn op_checkpoint(m: &mut Machine<'_>, di: DInst, _cost: Cost) -> Result<(), EmuError> {
    let DInst::Checkpoint { id } = di else {
        unreachable!("op_checkpoint dispatched on a non-Checkpoint instruction")
    };
    m.do_checkpoint(id)
}

fn op_cond_checkpoint(m: &mut Machine<'_>, di: DInst, cost: Cost) -> Result<(), EmuError> {
    let DInst::CondCheckpoint { id, period } = di else {
        unreachable!("op_cond_checkpoint dispatched on a non-CondCheckpoint instruction")
    };
    // NVM iteration counter: increments survive failures.
    let ctr = &mut m.cond_counters[id.index()];
    *ctr += 1;
    let fire = (*ctr).is_multiple_of(period as u64);
    m.charge(cost, ChargeCat::Exec);
    if fire {
        m.do_checkpoint(id)?;
    }
    Ok(())
}

fn op_savevar(m: &mut Machine<'_>, di: DInst, _cost: Cost) -> Result<(), EmuError> {
    let DInst::SaveVar { var } = di else {
        unreachable!("op_savevar dispatched on a non-SaveVar instruction")
    };
    if m.mem.is_vm_valid(var) && m.mem.is_dirty(var) {
        let words = m.mem.flush_to_nvm(var);
        let cost = m.table.save_words_cost(words);
        m.charge(cost, ChargeCat::Save);
        if let Some(sh) = m.shadow.as_mut() {
            sh.record_write(var);
        }
    }
    Ok(())
}

fn op_restorevar(m: &mut Machine<'_>, di: DInst, _cost: Cost) -> Result<(), EmuError> {
    let DInst::RestoreVar { var } = di else {
        unreachable!("op_restorevar dispatched on a non-RestoreVar instruction")
    };
    if m.mem.is_vm_valid(var) {
        // Validity guard only.
        m.charge(m.table.cond_check, ChargeCat::Exec);
    } else {
        let words = m.load_with_evict(var)?;
        let cost = m.table.restore_words_cost(words);
        m.charge(cost, ChargeCat::Restore);
        m.metrics.restores += 1;
        m.update_peak_vm();
    }
    Ok(())
}

/// Convenience: runs `im` once under `config` with the default cost
/// table.
///
/// # Errors
///
/// Propagates any [`EmuError`] from the run.
pub fn run(im: &InstrumentedModule, config: RunConfig) -> Result<RunOutcome, EmuError> {
    Machine::new(im, &CostTable::msp430fr5969(), config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrumented::AllocationPlan;
    use schematic_ir::{CmpOp, FunctionBuilder, Inst, ModuleBuilder, Terminator, Variable};

    fn sum_module() -> schematic_ir::Module {
        let mut mb = ModuleBuilder::new("sum");
        let arr = mb.var(Variable::array("array", 8).with_init((1..=8).collect()));
        let sum = mb.var(Variable::scalar("sum"));
        let mut f = FunctionBuilder::new("main", 0);
        let loop_bb = f.new_block("loop");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        let i = f.copy(0);
        f.store_scalar(sum, 0);
        f.br(loop_bb);
        f.switch_to(loop_bb);
        let done = f.cmp(CmpOp::SGe, i, 8);
        f.cond_br(done, exit, body);
        f.set_max_iters(loop_bb, 9);
        f.switch_to(body);
        let x = f.load_idx(arr, i);
        let acc = f.load_scalar(sum);
        let acc2 = f.bin(BinOp::Add, acc, x);
        f.store_scalar(sum, acc2);
        let i2 = f.bin(BinOp::Add, i, 1);
        f.copy_to(i, i2);
        f.br(loop_bb);
        f.switch_to(exit);
        let r = f.load_scalar(sum);
        f.ret(Some(r.into()));
        let main = mb.func(f.finish());
        mb.finish(main)
    }

    #[test]
    fn computes_sum_continuously() {
        let im = InstrumentedModule::bare(sum_module());
        let out = run(&im, RunConfig::default()).unwrap();
        assert!(out.completed());
        assert_eq!(out.result, Some(36));
        assert!(out.metrics.total_energy() > schematic_energy::Energy::ZERO);
        assert_eq!(out.metrics.power_failures, 0);
        assert!(out.metrics.nvm_reads > 0);
        assert_eq!(out.metrics.vm_reads, 0); // all-NVM plan
    }

    #[test]
    fn all_vm_plan_uses_vm() {
        let im = InstrumentedModule::bare_all_vm(sum_module());
        let out = run(&im, RunConfig::default()).unwrap();
        assert_eq!(out.result, Some(36));
        assert_eq!(out.metrics.nvm_reads, 0);
        assert!(out.metrics.vm_reads > 0);
        assert!(out.metrics.peak_vm_bytes >= 9 * 4);
    }

    #[test]
    fn vm_is_cheaper_than_nvm() {
        let nvm = run(
            &InstrumentedModule::bare(sum_module()),
            RunConfig::default(),
        )
        .unwrap();
        let vm = run(
            &InstrumentedModule::bare_all_vm(sum_module()),
            RunConfig::default(),
        )
        .unwrap();
        assert!(vm.metrics.computation < nvm.metrics.computation);
    }

    #[test]
    fn trace_records_blocks() {
        let im = InstrumentedModule::bare(sum_module());
        let out = run(&im, RunConfig::profiling()).unwrap();
        assert!(!out.trace.is_empty());
        // 1 entry + 9 loop headers + 8 bodies + 1 exit = 19 visits.
        assert_eq!(out.trace.len(), 19);
        assert_eq!(out.trace[0], (FuncId(0), BlockId(0)));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = FunctionBuilder::new("main", 0);
        let z = f.copy(0);
        let _ = f.bin(BinOp::DivS, 1, z);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let err = run(&im, RunConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            EmuError::Trap {
                kind: TrapKind::DivisionByZero,
                ..
            }
        ));
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut mb = ModuleBuilder::new("m");
        let a = mb.var(Variable::array("a", 2));
        let mut f = FunctionBuilder::new("main", 0);
        let i = f.copy(5);
        let _ = f.load_idx(a, i);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let err = run(&im, RunConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            EmuError::Trap {
                kind: TrapKind::IndexOutOfBounds { .. },
                ..
            }
        ));
    }

    #[test]
    fn calls_pass_arguments_and_return() {
        let mut mb = ModuleBuilder::new("m");
        let mut add = FunctionBuilder::new("add", 2);
        let s = add.bin(BinOp::Add, Reg(0), Reg(1));
        add.ret(Some(s.into()));
        let add = mb.func(add.finish());
        let mut f = FunctionBuilder::new("main", 0);
        let r = f.call(add, vec![Operand::Imm(30), Operand::Imm(12)]);
        f.ret(Some(r.into()));
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let out = run(&im, RunConfig::default()).unwrap();
        assert_eq!(out.result, Some(42));
    }

    #[test]
    fn stack_overflow_traps() {
        // main calls itself unconditionally: the call chain outgrows
        // MAX_STACK.
        let mut mb = ModuleBuilder::new("m");
        let main = FuncId(0);
        let mut f = FunctionBuilder::new("main", 0);
        f.call_void(main, vec![]);
        f.ret(None);
        assert_eq!(mb.func(f.finish()), main);
        let im = InstrumentedModule::bare(mb.finish(main));
        let err = run(&im, RunConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            EmuError::Trap {
                kind: TrapKind::StackOverflow { .. },
                ..
            }
        ));
    }

    #[test]
    fn periodic_failures_without_checkpoints_livelock() {
        // The sum program takes far more than 50 cycles; with rollback to
        // the implicit start checkpoint it can never finish.
        let im = InstrumentedModule::bare(sum_module());
        let out = run(&im, RunConfig::periodic(50)).unwrap();
        assert_eq!(out.status, RunStatus::Livelock);
        assert!(out.metrics.power_failures >= 8);
        assert!(out.metrics.reexecution > schematic_energy::Energy::ZERO);
    }

    #[test]
    fn periodic_failures_with_large_tbpf_complete() {
        let im = InstrumentedModule::bare(sum_module());
        let out = run(&im, RunConfig::periodic(10_000_000)).unwrap();
        assert!(out.completed());
        assert_eq!(out.result, Some(36));
        assert_eq!(out.metrics.power_failures, 0);
    }

    #[test]
    fn checkpoints_enable_progress_under_failures() {
        // Insert a plain checkpoint between the loads of `sum` and the
        // store back to it (breaking the WAR dependency, as RATCHET
        // would); every iteration commits, so even a tiny TBPF makes
        // progress and re-execution is idempotent.
        let mut m = sum_module();
        let body = BlockId(2);
        m.funcs[0].blocks[body.index()].insts.insert(
            3,
            Inst::Checkpoint {
                id: CheckpointId(0),
            },
        );
        let plan = AllocationPlan::all_nvm(&m);
        let im = InstrumentedModule {
            technique: "test".into(),
            module: m,
            checkpoints: vec![CheckpointSpec::registers_only()],
            plan,
            policy: FailurePolicy::Rollback,
            boot_restore: vec![],
        };
        let out = run(&im, RunConfig::periodic(400)).unwrap();
        assert!(out.completed(), "status = {:?}", out.status);
        assert_eq!(out.result, Some(36));
        assert!(out.metrics.power_failures > 0);
        assert!(out.metrics.checkpoints_committed >= 8);
    }

    #[test]
    fn war_unsafe_checkpoint_reproduces_memory_anomaly() {
        // The emulator faithfully reproduces the NVM memory-anomaly
        // problem (§V, "nonvolatile memory is a broken time machine"):
        // a checkpoint placed *before* the read of `sum` makes the
        // read-modify-write non-idempotent, so rollback re-execution
        // can double-add. This is exactly what RATCHET's WAR-breaking
        // placement exists to prevent.
        let mut m = sum_module();
        let body = BlockId(2);
        m.funcs[0].blocks[body.index()].insts.insert(
            0,
            Inst::Checkpoint {
                id: CheckpointId(0),
            },
        );
        let plan = AllocationPlan::all_nvm(&m);
        let im = InstrumentedModule {
            technique: "test".into(),
            module: m,
            checkpoints: vec![CheckpointSpec::registers_only()],
            plan,
            policy: FailurePolicy::Rollback,
            boot_restore: vec![],
        };
        // Scan TBPF values: at least one failure point must land between
        // the NVM read-modify-write and the next checkpoint commit,
        // re-applying an addition.
        let overcounted = (200..2_000).step_by(37).any(|tbpf| {
            let out = run(&im, RunConfig::periodic(tbpf)).unwrap();
            out.completed() && out.result.unwrap() > 36
        });
        assert!(overcounted, "no TBPF reproduced the WAR anomaly");

        // The shadow recorder observes the same hazard — `sum` is read
        // then written within one inter-checkpoint epoch — and its
        // presence leaves status, result and metrics bit-identical.
        let plain = run(&im, RunConfig::periodic(400)).unwrap();
        let shadowed = run(
            &im,
            RunConfig {
                shadow_war: true,
                ..RunConfig::periodic(400)
            },
        )
        .unwrap();
        assert_eq!(shadowed.status, plain.status);
        assert_eq!(shadowed.result, plain.result);
        assert_eq!(shadowed.metrics, plain.metrics);
        let report = shadowed.shadow.expect("shadow report requested");
        let sum = VarId(1);
        assert!(
            report.war_vars().contains(&sum),
            "shadow missed the WAR on sum: {report:?}"
        );
    }

    #[test]
    fn shadow_recorder_sees_no_war_when_checkpoint_breaks_it() {
        // With the checkpoint placed between `sum`'s read and write (as
        // in `checkpoints_enable_progress_under_failures`), every
        // read/write pair spans an epoch boundary: no WAR is observed.
        let mut m = sum_module();
        let body = BlockId(2);
        m.funcs[0].blocks[body.index()].insts.insert(
            3,
            Inst::Checkpoint {
                id: CheckpointId(0),
            },
        );
        let plan = AllocationPlan::all_nvm(&m);
        let im = InstrumentedModule {
            technique: "test".into(),
            module: m,
            checkpoints: vec![CheckpointSpec::registers_only()],
            plan,
            policy: FailurePolicy::Rollback,
            boot_restore: vec![],
        };
        for tbpf in [400, 700, 1_300] {
            let out = run(
                &im,
                RunConfig {
                    shadow_war: true,
                    ..RunConfig::periodic(tbpf)
                },
            )
            .unwrap();
            assert!(out.completed());
            let report = out.shadow.expect("shadow report requested");
            assert!(
                report.wars.is_empty(),
                "tbpf {tbpf}: unexpected observed WARs: {report:?}"
            );
            assert!(report.epochs > 1);
            assert!(report.nvm_reads > 0 && report.nvm_writes > 0);
        }
    }

    #[test]
    fn shadow_records_exact_element_and_stays_metric_invisible() {
        // Same-element read-modify-write on `a[4]` inside one epoch is a
        // per-element WAR; the disjoint read of `a[0]` / write of `a[1]`
        // is not. The recorder must report exactly offset 4, and its
        // presence must leave status, result and metrics bit-identical.
        let mut mb = ModuleBuilder::new("m");
        let a = mb.var(Variable::array("a", 6).with_init(vec![7; 6]));
        let mut f = FunctionBuilder::new("main", 0);
        let x = f.load_idx(a, 4);
        let y = f.bin(BinOp::Add, x, 1);
        f.store_idx(a, 4, y);
        let r0 = f.load_idx(a, 0);
        f.store_idx(a, 1, r0);
        f.ret(Some(y.into()));
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let plain = run(&im, RunConfig::default()).unwrap();
        let shadowed = run(
            &im,
            RunConfig {
                shadow_war: true,
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(shadowed.status, plain.status);
        assert_eq!(shadowed.result, plain.result);
        assert_eq!(shadowed.metrics, plain.metrics);
        let report = shadowed.shadow.expect("shadow report requested");
        assert_eq!(report.war_elems(), vec![(a, 4)]);
    }

    #[test]
    fn wait_recharge_sleeps_and_restores() {
        let mut m = sum_module();
        let body = BlockId(2);
        m.funcs[0].blocks[body.index()].insts.insert(
            0,
            Inst::Checkpoint {
                id: CheckpointId(0),
            },
        );
        let plan = AllocationPlan::all_nvm(&m);
        let im = InstrumentedModule {
            technique: "test".into(),
            module: m,
            checkpoints: vec![CheckpointSpec::registers_only()],
            plan,
            policy: FailurePolicy::WaitRecharge,
            boot_restore: vec![],
        };
        let out = run(&im, RunConfig::periodic(5_000)).unwrap();
        assert!(out.completed());
        assert_eq!(out.result, Some(36));
        // Wait-mode: every checkpoint sleeps; no failures should strike
        // mid-interval because each inter-checkpoint stretch is short.
        assert_eq!(out.metrics.power_failures, 0);
        assert_eq!(out.metrics.unexpected_failures, 0);
        assert_eq!(out.metrics.sleep_events, 8);
        assert_eq!(out.metrics.reexecution, schematic_energy::Energy::ZERO);
        assert!(out.metrics.restore > schematic_energy::Energy::ZERO);
    }

    #[test]
    fn retentive_sleep_skips_restores() {
        let mut m = sum_module();
        let body = BlockId(2);
        m.funcs[0].blocks[body.index()].insts.insert(
            0,
            Inst::Checkpoint {
                id: CheckpointId(0),
            },
        );
        let plan = AllocationPlan::all_nvm(&m);
        let im = InstrumentedModule {
            technique: "test".into(),
            module: m,
            checkpoints: vec![CheckpointSpec::registers_only()],
            plan,
            policy: FailurePolicy::WaitRecharge,
            boot_restore: vec![],
        };
        let deep = run(&im, RunConfig::periodic(5_000)).unwrap();
        let cfg = RunConfig {
            retentive_sleep: true,
            ..RunConfig::periodic(5_000)
        };
        let retentive = Machine::new(&im, &CostTable::msp430fr5969(), cfg)
            .run()
            .unwrap();
        assert_eq!(retentive.result, deep.result);
        assert_eq!(retentive.metrics.restores, 0);
        assert!(retentive.metrics.restore < deep.metrics.restore);
        assert_eq!(retentive.metrics.save, deep.metrics.save);
    }

    #[test]
    fn guarded_checkpoint_skips_when_charged() {
        let mut m = sum_module();
        let body = BlockId(2);
        m.funcs[0].blocks[body.index()].insts.insert(
            0,
            Inst::Checkpoint {
                id: CheckpointId(0),
            },
        );
        let plan = AllocationPlan::all_nvm(&m);
        let im = InstrumentedModule {
            technique: "test".into(),
            module: m,
            checkpoints: vec![CheckpointSpec {
                save_vars: vec![],
                restore_vars: vec![],
                kind: CheckpointKind::Guarded { threshold: 0.5 },
            }],
            plan,
            policy: FailurePolicy::Rollback,
            boot_restore: vec![],
        };
        // Continuous power: fraction is always 1.0 >= 0.5, so every
        // checkpoint is skipped.
        let out = run(&im, RunConfig::default()).unwrap();
        assert!(out.completed());
        assert_eq!(out.metrics.checkpoints_committed, 0);
        assert_eq!(out.metrics.checkpoints_skipped, 8);
    }

    #[test]
    fn cond_checkpoint_fires_periodically() {
        let mut m = sum_module();
        let body = BlockId(2);
        m.funcs[0].blocks[body.index()].insts.insert(
            0,
            Inst::CondCheckpoint {
                id: CheckpointId(0),
                period: 3,
            },
        );
        let plan = AllocationPlan::all_nvm(&m);
        let im = InstrumentedModule {
            technique: "test".into(),
            module: m,
            checkpoints: vec![CheckpointSpec::registers_only()],
            plan,
            policy: FailurePolicy::Rollback,
            boot_restore: vec![],
        };
        let out = run(&im, RunConfig::default()).unwrap();
        assert!(out.completed());
        // 8 executions, fires at 3 and 6.
        assert_eq!(out.metrics.checkpoints_committed, 2);
    }

    #[test]
    fn cycle_limit_halts_runaway() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = FunctionBuilder::new("main", 0);
        let l = f.new_block("l");
        f.br(l);
        f.switch_to(l);
        f.set_max_iters(l, u64::MAX);
        f.br(l); // infinite loop
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let cfg = RunConfig {
            max_active_cycles: 10_000,
            ..RunConfig::default()
        };
        let out = run(&im, cfg).unwrap();
        assert_eq!(out.status, RunStatus::CycleLimit);
    }

    #[test]
    fn savevar_restorevar_roundtrip() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x").with_init(vec![5]));
        let mut f = FunctionBuilder::new("main", 0);
        f.ret(None);
        let main = mb.func(f.finish());
        let mut m = mb.finish(main);
        m.funcs[0].blocks[0].insts = vec![
            Inst::RestoreVar { var: x },
            Inst::Load {
                dst: Reg(0),
                var: x,
                idx: None,
            },
            Inst::Store {
                var: x,
                idx: None,
                src: Operand::Imm(9),
            },
            Inst::SaveVar { var: x },
        ];
        m.funcs[0].blocks[0].term = Terminator::Ret(Some(Operand::Reg(Reg(0))));
        m.funcs[0].n_regs = 1;
        let mut plan = AllocationPlan::all_nvm(&m);
        let mut set = schematic_ir::VarSet::new(1);
        set.insert(x);
        plan.set(FuncId(0), BlockId(0), set);
        let im = InstrumentedModule {
            technique: "test".into(),
            module: m,
            checkpoints: vec![],
            plan,
            policy: FailurePolicy::Rollback,
            boot_restore: vec![],
        };
        let out = run(&im, RunConfig::default()).unwrap();
        assert_eq!(out.result, Some(5));
        assert!(out.metrics.save > schematic_energy::Energy::ZERO);
        assert!(out.metrics.restore > schematic_energy::Energy::ZERO);
        assert_eq!(out.metrics.restores, 1);
        assert_eq!(out.metrics.coherence_violations, 0);
    }
}

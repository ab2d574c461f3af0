//! Static WAR-hazard / idempotence analysis over inter-checkpoint regions.
//!
//! SCHEMATIC's soundness argument (§II-B) has two halves. Forward progress
//! — every inter-checkpoint stretch fits in `EB` — is re-checked by
//! [`crate::pverify`]. This module checks the other half: **no memory
//! anomalies**. Re-executing a region after a power failure must not
//! observe NVM state clobbered by the first attempt; following Surbatovich
//! et al., the dangerous pattern is a *WAR hazard* — an NVM-level read of a
//! location followed, in the same inter-checkpoint region, by an NVM-level
//! write to it. After a failure the region restarts and the read sees the
//! written (post-first-attempt) value instead of the at-checkpoint value.
//!
//! The analysis is **index-sensitive**: every NVM event carries a
//! [`Footprint`] — a strided set of word offsets within the variable,
//! derived from the strided-interval register analysis in
//! [`crate::range`] — so a read of `buf[2i+1]` and a write of `buf[2i]`
//! are provably disjoint instead of colliding on the whole-array cell.
//!
//! The analysis works directly on an [`InstrumentedModule`]: the
//! allocation plan decides which accesses touch NVM (mirroring the
//! emulator's `resolve_class`: pinned → NVM, in-plan → VM, otherwise NVM),
//! and checkpoint intrinsics delimit regions. Every NVM-level event the
//! emulator can generate is over-approximated, with its footprint:
//!
//! | instruction              | NVM events modeled                         |
//! |--------------------------|--------------------------------------------|
//! | `load` (NVM class)       | read of the indexed words                  |
//! | `load` (VM class)        | read of the *whole* variable — the VM copy |
//! |                          | may be invalid and fault-load from NVM     |
//! | `store` (NVM class)      | write of the indexed words                 |
//! | `store` (VM scalar)      | whole write*, only if the dirty copy can   |
//! |                          | later be flushed by residency reconcile    |
//! | `store` (VM array)       | whole read (fault load) then whole write*  |
//! | `savevar`                | whole write (explicit flush)               |
//! | `restorevar`             | whole read (reload if invalid)             |
//! | `call f`                 | callee summary: whole reads/writes of `f`  |
//! |                          | and everything it calls                    |
//! | `checkpoint` (plain)     | region boundary; `restore_vars` become the |
//! |                          | next region's entry reads (whole)          |
//! | `checkpoint` (guarded) / | boundary on the fire path *and*            |
//! | `condcheckpoint`         | transparent on the skip path               |
//!
//! \* A VM store's eventual NVM write (the reconcile-time flush) is
//! attributed to the store site: while a variable is dirty its VM copy
//! stays valid, so no NVM-level read of it can occur between the store and
//! its flush — every read-before-flush is also a read-before-store.
//! Checkpoint *commits* flush `save_vars` atomically with the resume image
//! and are never re-executed, so they are not write events.
//!
//! Each region is classified on a four-point lattice
//! ([`RegionClass`]): `Idempotent` ⊑ `WarFree` ⊑ `Shielded` ⊑ `Hazardous`.
//! A region with NVM writes is *downgraded* to `Idempotent` when, for
//! every variable, its accumulated write footprint is provably disjoint
//! from its accumulated read footprint (and no dirty VM data carries over
//! a commit): replayed reads then see exactly the at-checkpoint NVM
//! state, so re-execution recomputes identical values and the repeated
//! writes are idempotent. `Shielded` captures the SCHEMATIC/ROCKCLIMB
//! case: WARs exist on paper, but under
//! [`FailurePolicy::WaitRecharge`] with a verified placement the runtime
//! sleeps at every checkpoint until the capacitor is full, so regions
//! never re-execute and the hazards are latent. They are still reported
//! (the dynamic shadow recorder in `schematic-emu` checks its per-element
//! observations against the predicted footprints) but do not make the
//! program unsound.
//!
//! On top of the region facts, [`check_anomalies_bounded`] computes a
//! worst-case **re-execution bound** for every region under
//! [`FailurePolicy::Rollback`]: the checkpoint's resume cost plus the
//! energy of every block the region can reach, each taken at its full
//! loop trip product. A region whose bound exceeds the checkpoint
//! interval's energy budget `EB` (or that reaches a loop with no trip
//! annotation) is flagged `over_budget` — it may roll back again before
//! reaching its next checkpoint. The flag is informational (forward
//! progress is the province of [`crate::pverify`]); `gridrun --report
//! soundcheck --explain` surfaces it per region.
//!
//! Entry point: [`check_anomalies`] (or [`check_anomalies_bounded`] with
//! a cost table); [`crate::analyze::check_all`] folds this together with
//! the forward-progress verifier.

use crate::error::PlacementError;
use crate::range::{index_ranges, Footprint, IndexRanges, Range};
use schematic_emu::{CheckpointKind, FailurePolicy, InstrumentedModule};
use schematic_energy::{CostTable, Energy, MemClass};
use schematic_ir::{
    BlockId, CallGraph, CheckpointId, FuncId, Inst, LoopForest, Module, VarId, VarSet,
};
use std::collections::BTreeMap;
use std::fmt;

/// A program point: instruction `inst` of block `block` in `func`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Site {
    /// Function containing the event.
    pub func: FuncId,
    /// Block containing the event.
    pub block: BlockId,
    /// Instruction index within the block.
    pub inst: usize,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:i{}", self.func, self.block, self.inst)
    }
}

/// Where an inter-checkpoint region begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegionStart {
    /// First boot of the entry function (no checkpoint committed yet).
    Boot,
    /// The region fragment live at a non-entry function's entry — the
    /// continuation of whichever caller region was active at the call.
    FuncEntry(FuncId),
    /// The region opened when the checkpoint at `site` commits.
    Checkpoint {
        /// Checkpoint table index.
        id: CheckpointId,
        /// The checkpoint instruction's location.
        site: Site,
    },
}

impl fmt::Display for RegionStart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionStart::Boot => write!(f, "boot"),
            RegionStart::FuncEntry(func) => write!(f, "entry of {func}"),
            RegionStart::Checkpoint { id, site } => write!(f, "{id}@{site}"),
        }
    }
}

/// One statically detected WAR hazard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    /// The inter-checkpoint region the hazard lives in.
    pub region: RegionStart,
    /// The NVM-resident variable read then written.
    pub var: VarId,
    /// The (earliest known) NVM-level read of `var` in the region. For
    /// reads seeded by a checkpoint's restore set this is the checkpoint
    /// site itself; for reads contributed by a callee it is the call site.
    pub read_site: Site,
    /// The NVM-level write that clobbers `var` while the read is still in
    /// the region. For writes inside a callee this is the call site.
    pub write_site: Site,
    /// Union of the word offsets the offending writes may clobber. Every
    /// per-element WAR the shadow recorder can observe on `var` in this
    /// region is covered by this footprint.
    pub footprint: Footprint,
}

/// Classification of one inter-checkpoint region, ordered from harmless to
/// unsound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RegionClass {
    /// Re-execution is provably safe: either no NVM-level write can
    /// happen in the region, or every variable's write footprint is
    /// disjoint from its read footprint (index facts), so replayed reads
    /// see unclobbered NVM and the writes repeat identically.
    Idempotent,
    /// NVM writes happen, but never to a variable read earlier in the
    /// region — yet disjointness of the touched *words* could not be
    /// proven (e.g. a write-then-read of the same element).
    WarFree,
    /// WAR hazards exist, but the failure policy is wait-for-recharge with
    /// a verified placement, so the region never re-executes and the
    /// hazards stay latent.
    Shielded,
    /// WAR hazards exist and the region can re-execute (rollback policy,
    /// or an unverified placement): a power failure can corrupt results.
    Hazardous,
}

impl fmt::Display for RegionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegionClass::Idempotent => "idempotent",
            RegionClass::WarFree => "war-free",
            RegionClass::Shielded => "shielded",
            RegionClass::Hazardous => "hazardous",
        };
        f.write_str(s)
    }
}

/// The accumulated NVM read/write footprints of one variable while a
/// region is live — the index facts behind a disjointness downgrade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAccess {
    /// The variable.
    pub var: VarId,
    /// Union of all word offsets the region may NVM-read.
    pub read: Footprint,
    /// Union of all word offsets the region may NVM-write.
    pub write: Footprint,
}

/// Summary of one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// Where the region begins.
    pub start: RegionStart,
    /// Soundness class.
    pub class: RegionClass,
    /// Number of distinct variables with a WAR hazard in this region.
    pub wars: usize,
    /// Whether any NVM-level write can occur in the region.
    pub has_write: bool,
    /// Writes exist but every variable's write footprint is provably
    /// disjoint from its read footprint — the index-facts downgrade to
    /// `Idempotent`.
    pub writes_disjoint: bool,
    /// Per-variable accumulated NVM footprints (sorted by variable), for
    /// diagnostics and `gridrun --report soundcheck --explain`.
    pub accesses: Vec<RegionAccess>,
    /// Worst-case energy to re-execute the region once after a rollback:
    /// resume cost at the region's start plus every reachable block at
    /// its full loop trip product. `None` under
    /// [`FailurePolicy::WaitRecharge`] (regions never re-execute), when
    /// no cost table was supplied ([`check_anomalies`]), or when a
    /// reachable loop has no trip annotation.
    pub reexec_bound: Option<Energy>,
    /// `Rollback` region whose re-execution bound exceeds — or cannot be
    /// proven within — the checkpoint interval's energy budget.
    pub over_budget: bool,
}

/// The result of [`check_anomalies`]: every region's classification plus
/// the flat hazard list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyReport {
    /// One entry per static region (fragments at function entries count
    /// separately; a dynamic region spanning calls may appear as several
    /// fragments).
    pub regions: Vec<RegionInfo>,
    /// All detected hazards, deduplicated per `(region, var)`.
    pub anomalies: Vec<Anomaly>,
}

impl AnomalyReport {
    /// Number of regions in each class, indexed by [`RegionClass`] order.
    pub fn class_counts(&self) -> [usize; 4] {
        let mut counts = [0; 4];
        for r in &self.regions {
            counts[r.class as usize] += 1;
        }
        counts
    }

    /// Number of `Hazardous` regions — the unsoundness count.
    pub fn hazardous(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| r.class == RegionClass::Hazardous)
            .count()
    }

    /// `true` when no region is worse than `WarFree` — no WAR exists even
    /// on paper.
    pub fn war_free(&self) -> bool {
        self.regions.iter().all(|r| r.class <= RegionClass::WarFree)
    }

    /// `true` when no region is `Hazardous` (latent, shielded WARs are
    /// allowed).
    pub fn is_sound(&self) -> bool {
        self.hazardous() == 0
    }

    /// Per-element contract: is a runtime-observed WAR on word `elem` of
    /// `var` covered by some predicted anomaly footprint?
    pub fn predicts_element(&self, var: VarId, elem: u32) -> bool {
        self.anomalies
            .iter()
            .any(|a| a.var == var && a.footprint.contains(elem))
    }

    /// Sorted, deduplicated names of the variables involved in any
    /// predicted WAR — for human-readable verdicts.
    pub fn war_var_names<'m>(&self, module: &'m Module) -> Vec<&'m str> {
        let mut names: Vec<&str> = self
            .anomalies
            .iter()
            .map(|a| module.var(a.var).name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// One-line human-readable summary.
    pub fn verdict(&self) -> String {
        let [idem, free, shielded, hazardous] = self.class_counts();
        format!(
            "{} region(s): {idem} idempotent, {free} war-free, {shielded} shielded, \
             {hazardous} hazardous",
            self.regions.len()
        )
    }
}

/// The NVM-level events one instruction can generate, with the word
/// footprints they touch.
#[derive(Debug, Clone, Copy)]
enum Event {
    None,
    Read(VarId, Footprint),
    Write(VarId, Footprint),
    /// Whole-array fault load then deferred flush (VM array store).
    ReadWrite(VarId, Footprint, Footprint),
    Call(FuncId),
    /// Always commits: ends every live region, opens a new one.
    Boundary(CheckpointId),
    /// May commit (guarded / periodic): opens a new region on the fire
    /// path while live regions flow through on the skip path.
    MaybeBoundary(CheckpointId),
}

/// Per-function transitive NVM effect summary (through all callees,
/// ignoring internal checkpoints — a conservative superset for call
/// sites). Callee accesses are summarized at whole-variable granularity.
#[derive(Debug, Clone, Default)]
struct FuncEffects {
    reads: VarSet,
    writes: VarSet,
}

/// Everything the per-function dataflow needs from the module.
struct AnalysisCtx<'a> {
    im: &'a InstrumentedModule,
    module: &'a Module,
    /// Vars whose dirty VM copy can ever be flushed back to NVM by
    /// residency reconciliation: non-pinned and absent from at least one
    /// block's plan.
    flushable: VarSet,
    /// Vars stored while VM-resident anywhere in the module (candidates
    /// for carrying dirty data across a rollback-policy commit).
    vm_stored: VarSet,
    effects: Vec<FuncEffects>,
    /// Per-function strided-interval facts for every indexed access.
    ranges: Vec<IndexRanges>,
}

impl<'a> AnalysisCtx<'a> {
    /// Every word of `v`.
    fn whole(&self, v: VarId) -> Footprint {
        Footprint::whole(self.module.var(v).words)
    }

    /// The words an indexed access at instruction `i` of `(f, b)` may
    /// touch, per the strided-interval analysis. A missing index means
    /// word 0 (scalar addressing).
    fn indexed(&self, f: FuncId, b: BlockId, i: usize, v: VarId, has_idx: bool) -> Footprint {
        let words = self.module.var(v).words;
        let r = if has_idx {
            self.ranges[f.index()].idx_range(b, i)
        } else {
            Range::constant(0)
        };
        Footprint::of_range(r, words)
    }

    fn event(&self, f: FuncId, b: BlockId, i: usize, inst: &Inst) -> Event {
        let in_vm = |v: VarId| {
            !self.module.var(v).pinned_nvm
                && self
                    .im
                    .plan
                    .get_ref(f, b)
                    .is_some_and(|plan| plan.contains(v))
        };
        match inst {
            Inst::Load { var, idx, .. } => {
                if in_vm(*var) {
                    // A potential fault-load stages the whole variable.
                    Event::Read(*var, self.whole(*var))
                } else {
                    Event::Read(*var, self.indexed(f, b, i, *var, idx.is_some()))
                }
            }
            Inst::Store { var, idx, .. } => {
                if !in_vm(*var) {
                    Event::Write(*var, self.indexed(f, b, i, *var, idx.is_some()))
                } else if !self.flushable.contains(*var) {
                    // The dirty copy can never reach NVM (all-VM plans):
                    // an array store may still fault-load the array.
                    if idx.is_some() {
                        Event::Read(*var, self.whole(*var))
                    } else {
                        Event::None
                    }
                } else if idx.is_some() {
                    Event::ReadWrite(*var, self.whole(*var), self.whole(*var))
                } else {
                    Event::Write(*var, self.whole(*var))
                }
            }
            Inst::SaveVar { var } => Event::Write(*var, self.whole(*var)),
            Inst::RestoreVar { var } => Event::Read(*var, self.whole(*var)),
            Inst::Call { func, .. } => Event::Call(*func),
            Inst::Checkpoint { id } => match self.im.spec(*id).map(|s| s.kind) {
                Some(CheckpointKind::Guarded { .. }) => Event::MaybeBoundary(*id),
                _ => Event::Boundary(*id),
            },
            Inst::CondCheckpoint { id, .. } => Event::MaybeBoundary(*id),
            _ => Event::None,
        }
    }

    /// Variables whose dirty data can survive the commit of checkpoint
    /// `id` and flush to NVM later, inside the next region: flushable,
    /// VM-stored somewhere, and not persisted by the commit itself. Only
    /// rollback-policy commits preserve VM contents.
    fn carryover(&self, id: CheckpointId) -> bool {
        if self.im.policy != FailurePolicy::Rollback {
            return false;
        }
        let Some(spec) = self.im.spec(id) else {
            return false;
        };
        self.flushable
            .iter()
            .any(|v| self.vm_stored.contains(v) && !spec.save_vars.contains(&v))
    }
}

/// One region's knowledge of a variable at a program point: the earliest
/// known read site and the union of word offsets read since the region
/// started.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReadFact {
    site: Site,
    fp: Footprint,
}

/// Dataflow fact for one live region at one program point.
type RegionReads = BTreeMap<VarId, ReadFact>;

/// Per-block dataflow state: one optional fact per region slot of the
/// enclosing function (slot 0 = the entry-context region, then one slot
/// per checkpoint site). `None` = the region is not live here.
type BlockState = Vec<Option<RegionReads>>;

fn merge_into(dst: &mut BlockState, src: &BlockState) -> bool {
    let mut changed = false;
    for (d, s) in dst.iter_mut().zip(src) {
        match (d.as_mut(), s) {
            (_, None) => {}
            (None, Some(m)) => {
                *d = Some(m.clone());
                changed = true;
            }
            (Some(dm), Some(sm)) => {
                for (&v, rf) in sm {
                    match dm.get_mut(&v) {
                        None => {
                            dm.insert(v, rf.clone());
                            changed = true;
                        }
                        Some(existing) => {
                            if rf.site < existing.site {
                                existing.site = rf.site;
                                changed = true;
                            }
                            if existing.fp.union_with(&rf.fp) {
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
    }
    changed
}

/// Checks an instrumented program for WAR-hazard memory anomalies.
///
/// `placement_sound` is the forward-progress verdict from
/// [`crate::pverify::verify_placement`]; it decides whether latent WARs
/// under a wait-for-recharge policy are `Shielded` or `Hazardous`.
/// Re-execution bounds are not computed (every region reports
/// `reexec_bound: None`); use [`check_anomalies_bounded`] for those.
///
/// # Errors
///
/// Fails only on recursive call graphs ([`PlacementError::Recursive`]),
/// which no technique in this repository produces.
pub fn check_anomalies(
    im: &InstrumentedModule,
    placement_sound: bool,
) -> Result<AnomalyReport, PlacementError> {
    check_anomalies_inner(im, placement_sound, None)
}

/// Like [`check_anomalies`], additionally classifying every
/// [`FailurePolicy::Rollback`] region against its worst-case
/// re-execution cost: resume cost plus all reachable blocks at full trip
/// counts, priced by `table`, compared to the interval budget `eb`.
///
/// # Errors
///
/// Fails only on recursive call graphs ([`PlacementError::Recursive`]).
pub fn check_anomalies_bounded(
    im: &InstrumentedModule,
    placement_sound: bool,
    table: &CostTable,
    eb: Energy,
) -> Result<AnomalyReport, PlacementError> {
    check_anomalies_inner(im, placement_sound, Some((table, eb)))
}

fn check_anomalies_inner(
    im: &InstrumentedModule,
    placement_sound: bool,
    bounds: Option<(&CostTable, Energy)>,
) -> Result<AnomalyReport, PlacementError> {
    let module = &im.module;
    let n_vars = module.vars.len();

    // Flushable set: residency reconciliation flushes a dirty var on the
    // first edge into a block whose plan lacks it, so a var that is in
    // every block's plan (or pinned) never flushes.
    let mut flushable = VarSet::new(n_vars);
    for (v, var) in module.iter_vars() {
        if var.pinned_nvm {
            continue;
        }
        let lacking = module.iter_funcs().any(|(f, func)| {
            func.iter_blocks()
                .any(|(b, _)| im.plan.get_ref(f, b).is_none_or(|plan| !plan.contains(v)))
        });
        if lacking {
            flushable.insert(v);
        }
    }

    // Vars ever stored while VM-resident (dirty-data candidates).
    let mut vm_stored = VarSet::new(n_vars);
    for (f, func) in module.iter_funcs() {
        for (b, block) in func.iter_blocks() {
            let plan = im.plan.get_ref(f, b);
            for inst in &block.insts {
                if let Inst::Store { var, .. } = inst {
                    if !module.var(*var).pinned_nvm && plan.is_some_and(|p| p.contains(*var)) {
                        vm_stored.insert(*var);
                    }
                }
            }
        }
    }

    // Bottom-up transitive effect summaries.
    let cg = CallGraph::new(module);
    let order = cg
        .bottom_up_order(module)
        .map_err(|e| PlacementError::Recursive { func: e.func })?;
    let ranges: Vec<IndexRanges> = module.iter_funcs().map(|(_, f)| index_ranges(f)).collect();
    let mut ctx = AnalysisCtx {
        im,
        module,
        flushable,
        vm_stored,
        effects: vec![
            FuncEffects {
                reads: VarSet::new(n_vars),
                writes: VarSet::new(n_vars),
            };
            module.funcs.len()
        ],
        ranges,
    };
    for fid in order {
        let func = module.func(fid);
        let mut fx = FuncEffects {
            reads: VarSet::new(n_vars),
            writes: VarSet::new(n_vars),
        };
        for (b, block) in func.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                match ctx.event(fid, b, i, inst) {
                    Event::Read(v, fp) => {
                        if !fp.is_empty() {
                            fx.reads.insert(v);
                        }
                    }
                    Event::Write(v, fp) => {
                        if !fp.is_empty() {
                            fx.writes.insert(v);
                        }
                    }
                    Event::ReadWrite(v, ..) => {
                        fx.reads.insert(v);
                        fx.writes.insert(v);
                    }
                    Event::Call(g) => {
                        let callee = &ctx.effects[g.index()];
                        let (r, w) = (callee.reads.clone(), callee.writes.clone());
                        fx.reads.union_with(&r);
                        fx.writes.union_with(&w);
                    }
                    Event::None | Event::Boundary(_) | Event::MaybeBoundary(_) => {}
                }
            }
        }
        ctx.effects[fid.index()] = fx;
    }

    // Per-function region dataflow.
    let entry_func = module.entry_func();
    let mut regions: Vec<RegionInfo> = Vec::new();
    let mut anomalies: Vec<Anomaly> = Vec::new();
    for (fid, func) in module.iter_funcs() {
        analyze_function(
            &ctx,
            fid,
            func,
            entry_func,
            bounds,
            &mut regions,
            &mut anomalies,
        );
    }

    // Classify.
    let policy = im.policy;
    for r in &mut regions {
        r.class = if r.wars > 0 {
            if policy == FailurePolicy::WaitRecharge && placement_sound {
                RegionClass::Shielded
            } else {
                RegionClass::Hazardous
            }
        } else if !r.has_write || r.writes_disjoint {
            RegionClass::Idempotent
        } else {
            RegionClass::WarFree
        };
    }

    anomalies.sort_by_key(|a| (a.region, a.var));
    regions.sort_by_key(|r| r.start);
    Ok(AnomalyReport { regions, anomalies })
}

fn analyze_function(
    ctx: &AnalysisCtx<'_>,
    fid: FuncId,
    func: &schematic_ir::Function,
    entry_func: FuncId,
    bounds: Option<(&CostTable, Energy)>,
    regions: &mut Vec<RegionInfo>,
    anomalies: &mut Vec<Anomaly>,
) {
    // Region slots: 0 = entry context, then one per checkpoint site.
    let mut slot_starts: Vec<RegionStart> = vec![if fid == entry_func {
        RegionStart::Boot
    } else {
        RegionStart::FuncEntry(fid)
    }];
    // The block where each slot's region opens (for the re-execution
    // bound: the opening block itself is reachable by the region).
    let mut slot_blocks: Vec<BlockId> = vec![func.entry];
    let mut site_slot: BTreeMap<Site, usize> = BTreeMap::new();
    for (b, block) in func.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            if let Inst::Checkpoint { id } | Inst::CondCheckpoint { id, .. } = inst {
                let site = Site {
                    func: fid,
                    block: b,
                    inst: i,
                };
                site_slot.insert(site, slot_starts.len());
                slot_starts.push(RegionStart::Checkpoint { id: *id, site });
                slot_blocks.push(b);
            }
        }
    }
    let n_slots = slot_starts.len();

    // Per-slot accumulators across the fixpoint (facts only grow, so
    // re-visits can only re-discover the same events): total read/write
    // footprints per variable, WAR sites with offending write footprints,
    // and the dirty-carryover flag.
    let mut reads_total: Vec<BTreeMap<VarId, Footprint>> = vec![BTreeMap::new(); n_slots];
    let mut writes_total: Vec<BTreeMap<VarId, Footprint>> = vec![BTreeMap::new(); n_slots];
    let mut war: Vec<BTreeMap<VarId, (Site, Site, Footprint)>> = vec![BTreeMap::new(); n_slots];
    let mut carry = vec![false; n_slots];

    let cfg = schematic_ir::Cfg::new(func);
    let mut in_states: Vec<BlockState> = vec![vec![None; n_slots]; func.blocks.len()];
    // Entry context starts live at the function entry. For the program
    // entry its initial reads are the boot restore set (NVM loads before
    // the first instruction runs).
    let mut entry_reads = RegionReads::new();
    if fid == entry_func {
        let entry_site = Site {
            func: fid,
            block: func.entry,
            inst: 0,
        };
        for &v in &ctx.im.boot_restore {
            let fp = ctx.whole(v);
            reads_total[0]
                .entry(v)
                .or_insert_with(Footprint::empty)
                .union_with(&fp);
            entry_reads.insert(
                v,
                ReadFact {
                    site: entry_site,
                    fp,
                },
            );
        }
    }
    in_states[func.entry.index()][0] = Some(entry_reads);

    let mut worklist: Vec<BlockId> = cfg.reverse_postorder();
    let mut queued = vec![true; func.blocks.len()];
    while let Some(b) = worklist.pop() {
        queued[b.index()] = false;
        let mut state = in_states[b.index()].clone();
        let block = func.block(b);
        for (i, inst) in block.insts.iter().enumerate() {
            let site = Site {
                func: fid,
                block: b,
                inst: i,
            };
            let read = |state: &mut BlockState,
                        reads_total: &mut Vec<BTreeMap<VarId, Footprint>>,
                        v: VarId,
                        fp: Footprint| {
                if fp.is_empty() {
                    return;
                }
                for (slot, fact) in state.iter_mut().enumerate() {
                    let Some(fact) = fact else { continue };
                    reads_total[slot]
                        .entry(v)
                        .or_insert_with(Footprint::empty)
                        .union_with(&fp);
                    match fact.get_mut(&v) {
                        None => {
                            fact.insert(v, ReadFact { site, fp });
                        }
                        Some(rf) => {
                            rf.fp.union_with(&fp);
                        }
                    }
                }
            };
            let write = |state: &mut BlockState,
                         writes_total: &mut Vec<BTreeMap<VarId, Footprint>>,
                         war: &mut Vec<BTreeMap<VarId, (Site, Site, Footprint)>>,
                         v: VarId,
                         fp: Footprint| {
                if fp.is_empty() {
                    return;
                }
                for (slot, fact) in state.iter_mut().enumerate() {
                    let Some(fact) = fact else { continue };
                    writes_total[slot]
                        .entry(v)
                        .or_insert_with(Footprint::empty)
                        .union_with(&fp);
                    if let Some(rf) = fact.get(&v) {
                        if fp.intersects(&rf.fp) {
                            let acc =
                                war[slot]
                                    .entry(v)
                                    .or_insert((rf.site, site, Footprint::empty()));
                            acc.2.union_with(&fp);
                        }
                    }
                }
            };
            match ctx.event(fid, b, i, inst) {
                Event::None => {}
                Event::Read(v, fp) => read(&mut state, &mut reads_total, v, fp),
                Event::Write(v, fp) => write(&mut state, &mut writes_total, &mut war, v, fp),
                Event::ReadWrite(v, rfp, wfp) => {
                    // Fault-load first: the deferred flush can pair with it.
                    read(&mut state, &mut reads_total, v, rfp);
                    write(&mut state, &mut writes_total, &mut war, v, wfp);
                }
                Event::Call(g) => {
                    let fx = &ctx.effects[g.index()];
                    // Callee writes pair against pre-call reads first,
                    // then callee reads seed the facts at the call site.
                    for v in fx.writes.iter() {
                        let fp = ctx.whole(v);
                        write(&mut state, &mut writes_total, &mut war, v, fp);
                    }
                    for v in fx.reads.iter() {
                        let fp = ctx.whole(v);
                        read(&mut state, &mut reads_total, v, fp);
                    }
                }
                Event::Boundary(id) => {
                    let slot = site_slot[&site];
                    for fact in state.iter_mut() {
                        *fact = None;
                    }
                    let entry = region_entry_reads(ctx, id, site);
                    for (v, rf) in &entry {
                        reads_total[slot]
                            .entry(*v)
                            .or_insert_with(Footprint::empty)
                            .union_with(&rf.fp);
                    }
                    state[slot] = Some(entry);
                    if ctx.carryover(id) {
                        carry[slot] = true;
                    }
                }
                Event::MaybeBoundary(id) => {
                    let slot = site_slot[&site];
                    let entry = region_entry_reads(ctx, id, site);
                    for (v, rf) in &entry {
                        reads_total[slot]
                            .entry(*v)
                            .or_insert_with(Footprint::empty)
                            .union_with(&rf.fp);
                    }
                    let mut fired = vec![None; n_slots];
                    fired[slot] = Some(entry);
                    merge_into(&mut state, &fired);
                    if ctx.carryover(id) {
                        carry[slot] = true;
                    }
                }
            }
        }
        for succ in cfg.succs(b) {
            if merge_into(&mut in_states[succ.index()], &state) && !queued[succ.index()] {
                queued[succ.index()] = true;
                worklist.push(*succ);
            }
        }
    }

    let slot_bounds = bounds.map(|(table, eb)| {
        slot_reexec_bounds(
            ctx,
            fid,
            func,
            &in_states,
            &slot_blocks,
            table,
            eb,
            &slot_starts,
        )
    });

    for (slot, start) in slot_starts.into_iter().enumerate() {
        for (&v, &(read_site, write_site, footprint)) in &war[slot] {
            anomalies.push(Anomaly {
                region: start,
                var: v,
                read_site,
                write_site,
                footprint,
            });
        }
        let has_write = carry[slot] || !writes_total[slot].is_empty();
        let writes_disjoint = has_write
            && !carry[slot]
            && writes_total[slot]
                .iter()
                .all(|(v, w)| reads_total[slot].get(v).is_none_or(|r| !w.intersects(r)));
        let mut vars: Vec<VarId> = reads_total[slot]
            .keys()
            .chain(writes_total[slot].keys())
            .copied()
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let accesses = vars
            .into_iter()
            .map(|v| RegionAccess {
                var: v,
                read: reads_total[slot]
                    .get(&v)
                    .copied()
                    .unwrap_or_else(Footprint::empty),
                write: writes_total[slot]
                    .get(&v)
                    .copied()
                    .unwrap_or_else(Footprint::empty),
            })
            .collect();
        let (reexec_bound, over_budget) = slot_bounds.as_ref().map_or((None, false), |b| b[slot]);
        regions.push(RegionInfo {
            start,
            class: RegionClass::Idempotent, // overwritten by the caller
            wars: war[slot].len(),
            has_write,
            writes_disjoint,
            accesses,
            reexec_bound,
            over_budget,
        });
    }
}

/// Worst-case re-execution bound per region slot, under
/// [`FailurePolicy::Rollback`]: the resume cost of the region's
/// checkpoint plus the execution energy of every block where the region
/// is live, each multiplied by the trip product of its enclosing loops.
/// A reachable loop without a trip annotation makes the bound unknown —
/// conservatively over budget.
#[allow(clippy::too_many_arguments)]
fn slot_reexec_bounds(
    ctx: &AnalysisCtx<'_>,
    fid: FuncId,
    func: &schematic_ir::Function,
    in_states: &[BlockState],
    slot_blocks: &[BlockId],
    table: &CostTable,
    eb: Energy,
    slot_starts: &[RegionStart],
) -> Vec<(Option<Energy>, bool)> {
    if ctx.im.policy != FailurePolicy::Rollback {
        return vec![(None, false); slot_starts.len()];
    }
    let forest = LoopForest::of(func);
    let n_blocks = func.blocks.len();
    let mut block_energy = Vec::with_capacity(n_blocks);
    let mut block_trips: Vec<Option<u64>> = Vec::with_capacity(n_blocks);
    for (b, block) in func.iter_blocks() {
        let plan = ctx.im.plan.get_ref(fid, b);
        let mem_of = |v: VarId| {
            if !ctx.module.var(v).pinned_nvm && plan.is_some_and(|p| p.contains(v)) {
                MemClass::Vm
            } else {
                MemClass::Nvm
            }
        };
        let mut e = Energy::ZERO;
        for inst in &block.insts {
            e = e.saturating_add(table.inst_cost(inst, mem_of).energy);
        }
        block_energy.push(e.saturating_add(table.term_cost(&block.term).energy));
        let trips = {
            let mut t = Some(1u64);
            let mut cur = forest.innermost_of(b);
            while let Some(ix) = cur {
                t = t.and_then(|n| forest.loops[ix].max_iters.map(|m| n.saturating_mul(m)));
                cur = forest.loops[ix].parent;
            }
            t
        };
        block_trips.push(trips);
    }
    slot_starts
        .iter()
        .enumerate()
        .map(|(slot, start)| {
            let resume_words = match start {
                RegionStart::Boot => ctx
                    .im
                    .boot_restore
                    .iter()
                    .map(|v| ctx.module.var(*v).words)
                    .sum(),
                // A fragment continuing a caller's region: the resume
                // cost is attributed to the caller's slot.
                RegionStart::FuncEntry(_) => 0,
                RegionStart::Checkpoint { id, .. } => {
                    ctx.im.spec(*id).map_or(0, |s| s.restore_words(ctx.module))
                }
            };
            let mut bound = match start {
                RegionStart::FuncEntry(_) => Some(Energy::ZERO),
                _ => Some(table.checkpoint_resume_cost(resume_words).energy),
            };
            for bi in 0..n_blocks {
                let live = in_states[bi][slot].is_some() || slot_blocks[slot].index() == bi;
                if !live {
                    continue;
                }
                bound = match (bound, block_trips[bi]) {
                    (Some(e), Some(t)) => {
                        Some(e.saturating_add(block_energy[bi].saturating_mul(t)))
                    }
                    _ => None,
                };
            }
            let over_budget = bound.is_none_or(|e| e > eb);
            (bound, over_budget)
        })
        .collect()
}

/// The reads a region begins with: the checkpoint's restore set is loaded
/// from NVM when execution resumes at the checkpoint (after a sleep, a
/// commit-time migration fault, or a power failure).
fn region_entry_reads(ctx: &AnalysisCtx<'_>, id: CheckpointId, site: Site) -> RegionReads {
    let mut reads = RegionReads::new();
    if let Some(spec) = ctx.im.spec(id) {
        for &v in &spec.restore_vars {
            reads.insert(
                v,
                ReadFact {
                    site,
                    fp: ctx.whole(v),
                },
            );
        }
    }
    reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic_emu::{AllocationPlan, CheckpointSpec, InstrumentedModule};
    use schematic_ir::{FunctionBuilder, ModuleBuilder, Variable};

    /// x = load v; store v, x+1 — classic WAR when v is NVM-resident.
    fn war_module(with_checkpoint_between: bool) -> InstrumentedModule {
        let mut mb = ModuleBuilder::new("war");
        let v = mb.var(Variable::scalar("v"));
        let mut f = FunctionBuilder::new("main", 0);
        let x = f.load_scalar(v);
        let y = f.bin(schematic_ir::BinOp::Add, x, 1);
        f.store_scalar(v, y);
        f.ret(None);
        let main = mb.func(f.finish());
        let module = mb.finish(main);
        let mut im = InstrumentedModule::bare(module);
        if with_checkpoint_between {
            // Insert a plain checkpoint between the load and the store.
            let id = im.add_spec(CheckpointSpec::registers_only());
            let insts = &mut im.module.funcs[0].blocks[0].insts;
            insts.insert(1, Inst::Checkpoint { id });
        }
        im
    }

    #[test]
    fn detects_simple_war() {
        let im = war_module(false);
        let report = check_anomalies(&im, true).unwrap();
        assert_eq!(report.anomalies.len(), 1);
        let a = &report.anomalies[0];
        assert_eq!(a.region, RegionStart::Boot);
        assert_eq!(a.var, VarId(0));
        assert!(a.read_site < a.write_site);
        assert!(a.footprint.contains(0));
        // Rollback policy + hazard → hazardous.
        assert_eq!(report.hazardous(), 1);
        assert!(!report.is_sound());
    }

    #[test]
    fn checkpoint_between_read_and_write_clears_hazard() {
        let im = war_module(true);
        let report = check_anomalies(&im, true).unwrap();
        assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
        assert!(report.is_sound());
        // Two regions: boot (read only) and the checkpoint's (write only).
        assert_eq!(report.regions.len(), 2);
        assert!(report.war_free());
        // The write-only region is proven idempotent by disjointness
        // (nothing it writes is read in-region).
        assert_eq!(report.class_counts(), [2, 0, 0, 0]);
    }

    #[test]
    fn wait_recharge_shields_war() {
        let mut im = war_module(false);
        im.policy = FailurePolicy::WaitRecharge;
        let report = check_anomalies(&im, true).unwrap();
        assert_eq!(report.anomalies.len(), 1);
        assert_eq!(report.hazardous(), 0);
        assert_eq!(report.class_counts(), [0, 0, 1, 0]);
        assert!(report.is_sound());
        // An unsound placement removes the shield.
        let report = check_anomalies(&im, false).unwrap();
        assert_eq!(report.hazardous(), 1);
    }

    #[test]
    fn all_vm_plan_is_idempotent() {
        // Same WAR pattern, but v lives in VM everywhere: the dirty copy
        // never flushes, so no NVM write exists.
        let mut im = war_module(false);
        im.plan = AllocationPlan::all_vm(&im.module);
        let report = check_anomalies(&im, true).unwrap();
        assert!(report.anomalies.is_empty());
        assert_eq!(report.class_counts(), [1, 0, 0, 0]);
    }

    #[test]
    fn vm_store_with_flush_is_a_write() {
        // v in VM in block 0 only; block 1's plan lacks it, so the dirty
        // copy flushes on the edge — the store is an NVM write event.
        let mut mb = ModuleBuilder::new("flush");
        let v = mb.var(Variable::scalar("v"));
        let mut f = FunctionBuilder::new("main", 0);
        let x = f.load_scalar(v);
        f.store_scalar(v, x);
        let exit = f.new_block("exit");
        f.br(exit);
        f.switch_to(exit);
        f.ret(None);
        let main = mb.func(f.finish());
        let module = mb.finish(main);
        let mut im = InstrumentedModule::bare(module);
        let mut set = VarSet::new(1);
        set.insert(v);
        im.plan.set(FuncId(0), BlockId(0), set);
        let report = check_anomalies(&im, true).unwrap();
        // load (NVM read — wait, v is in VM in block 0; the load is a
        // potential fault-read) then store (deferred flush): WAR.
        assert_eq!(report.anomalies.len(), 1);
    }

    #[test]
    fn restore_set_seeds_region_reads() {
        // checkpoint restores v, then the region stores v: WAR.
        let mut mb = ModuleBuilder::new("seed");
        let v = mb.var(Variable::scalar("v"));
        let mut f = FunctionBuilder::new("main", 0);
        f.store_scalar(v, 7);
        f.ret(None);
        let main = mb.func(f.finish());
        let module = mb.finish(main);
        let mut im = InstrumentedModule::bare(module);
        let id = im.add_spec(CheckpointSpec {
            save_vars: vec![],
            restore_vars: vec![v],
            kind: CheckpointKind::Plain,
        });
        im.module.funcs[0].blocks[0]
            .insts
            .insert(0, Inst::Checkpoint { id });
        let report = check_anomalies(&im, true).unwrap();
        assert_eq!(report.anomalies.len(), 1);
        assert!(matches!(
            report.anomalies[0].region,
            RegionStart::Checkpoint { .. }
        ));
    }

    #[test]
    fn guarded_checkpoint_keeps_skip_path_live() {
        // load v; guarded checkpoint; store v — on the skip path the read
        // survives, so the boot region still has the WAR.
        let mut mb = ModuleBuilder::new("guard");
        let v = mb.var(Variable::scalar("v"));
        let mut f = FunctionBuilder::new("main", 0);
        let x = f.load_scalar(v);
        f.store_scalar(v, x);
        f.ret(None);
        let main = mb.func(f.finish());
        let module = mb.finish(main);
        let mut im = InstrumentedModule::bare(module);
        let id = im.add_spec(CheckpointSpec {
            save_vars: vec![],
            restore_vars: vec![],
            kind: CheckpointKind::Guarded { threshold: 0.5 },
        });
        im.module.funcs[0].blocks[0]
            .insts
            .insert(1, Inst::Checkpoint { id });
        let report = check_anomalies(&im, true).unwrap();
        let boot_wars: Vec<_> = report
            .anomalies
            .iter()
            .filter(|a| a.region == RegionStart::Boot)
            .collect();
        assert_eq!(boot_wars.len(), 1);
    }

    #[test]
    fn loop_carried_war_is_detected() {
        // loop body: x = load v; store v, x — read and write in the same
        // iteration is read-then-write; also carried around the back-edge.
        let mut mb = ModuleBuilder::new("loop");
        let v = mb.var(Variable::scalar("v"));
        let n = mb.var(Variable::scalar("n").with_init(vec![4]));
        let mut f = FunctionBuilder::new("main", 0);
        let header = f.new_block("header");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        f.br(header);
        f.switch_to(header);
        let i = f.load_scalar(n);
        let c = f.cmp(schematic_ir::CmpOp::SGt, i, 0);
        f.cond_br(c, body, exit);
        f.switch_to(body);
        let x = f.load_scalar(v);
        f.store_scalar(v, x);
        let i2 = f.bin(schematic_ir::BinOp::Sub, i, 1);
        f.store_scalar(n, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(None);
        let main = mb.func(f.finish());
        f_assert_loop(mb.finish(main));
    }

    fn f_assert_loop(module: Module) {
        let im = InstrumentedModule::bare(module);
        let report = check_anomalies(&im, true).unwrap();
        let vars: Vec<VarId> = report.anomalies.iter().map(|a| a.var).collect();
        assert!(vars.contains(&VarId(0)), "{:?}", report.anomalies);
        assert!(vars.contains(&VarId(1)), "{:?}", report.anomalies);
    }

    #[test]
    fn callee_write_pairs_with_caller_read() {
        // main: load v; call g  —  g: store v.
        let mut mb = ModuleBuilder::new("inter");
        let v = mb.var(Variable::scalar("v"));
        let mut g = FunctionBuilder::new("g", 0);
        g.store_scalar(v, 1);
        g.ret(None);
        let gid = mb.func(g.finish());
        let mut f = FunctionBuilder::new("main", 0);
        let _ = f.load_scalar(v);
        f.call_void(gid, vec![]);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let report = check_anomalies(&im, true).unwrap();
        let boot: Vec<_> = report
            .anomalies
            .iter()
            .filter(|a| a.region == RegionStart::Boot)
            .collect();
        assert_eq!(boot.len(), 1);
        assert_eq!(boot[0].var, v);
        // The write site is the call.
        assert_eq!(boot[0].write_site.inst, 1);
    }

    #[test]
    fn callee_read_pairs_with_caller_write() {
        // main: call g; store v  —  g: load v.
        let mut mb = ModuleBuilder::new("inter2");
        let v = mb.var(Variable::scalar("v"));
        let mut g = FunctionBuilder::new("g", 0);
        let _ = g.load_scalar(v);
        g.ret(None);
        let gid = mb.func(g.finish());
        let mut f = FunctionBuilder::new("main", 0);
        f.call_void(gid, vec![]);
        f.store_scalar(v, 2);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let report = check_anomalies(&im, true).unwrap();
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.region == RegionStart::Boot && a.var == v));
    }

    #[test]
    fn verdict_mentions_counts() {
        let im = war_module(false);
        let report = check_anomalies(&im, true).unwrap();
        let v = report.verdict();
        assert!(v.contains("hazardous"), "{v}");
        assert_eq!(report.war_var_names(&im.module), vec!["v"]);
    }

    #[test]
    fn disjoint_constant_indices_downgrade() {
        // r = load a[0]; store a[1], r — provably disjoint words: no
        // anomaly, and the region is idempotent despite the NVM write.
        let mut mb = ModuleBuilder::new("disjoint");
        let a = mb.var(Variable::array("a", 4));
        let mut f = FunctionBuilder::new("main", 0);
        let r = f.load_idx(a, 0);
        f.store_idx(a, 1, r);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let report = check_anomalies(&im, true).unwrap();
        assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
        assert_eq!(report.class_counts(), [1, 0, 0, 0]);
        let region = &report.regions[0];
        assert!(region.has_write);
        assert!(region.writes_disjoint);
        let acc = &region.accesses[0];
        assert_eq!(acc.read.to_string(), "[0]");
        assert_eq!(acc.write.to_string(), "[1]");
    }

    #[test]
    fn same_element_war_keeps_footprint() {
        // load a[2]; store a[2] — per-element WAR on word 2 only.
        let mut mb = ModuleBuilder::new("elem");
        let a = mb.var(Variable::array("a", 4));
        let mut f = FunctionBuilder::new("main", 0);
        let r = f.load_idx(a, 2);
        f.store_idx(a, 2, r);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let report = check_anomalies(&im, true).unwrap();
        assert_eq!(report.anomalies.len(), 1);
        let a0 = &report.anomalies[0];
        assert!(a0.footprint.contains(2));
        assert!(!a0.footprint.contains(1));
        assert!(report.predicts_element(a0.var, 2));
        assert!(!report.predicts_element(a0.var, 3));
    }

    #[test]
    fn strided_loop_proven_disjoint() {
        // for i in 0..: r = load a[2i+1]; store a[2i], r — reads the odd
        // words, writes the even words: index-proven idempotent.
        let mut mb = ModuleBuilder::new("stride");
        let a = mb.var(Variable::array("a", 8));
        let mut f = FunctionBuilder::new("main", 0);
        let i = f.copy(0);
        let header = f.new_block("header");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        f.br(header);
        f.switch_to(header);
        let c = f.cmp(schematic_ir::CmpOp::SLt, i, 4);
        f.cond_br(c, body, exit);
        f.switch_to(body);
        let even = f.bin(schematic_ir::BinOp::Mul, i, 2);
        let odd = f.bin(schematic_ir::BinOp::Add, even, 1);
        let r = f.load_idx(a, odd);
        f.store_idx(a, even, r);
        let i2 = f.bin(schematic_ir::BinOp::Add, i, 1);
        f.copy_to(i, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let report = check_anomalies(&im, true).unwrap();
        assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
        assert_eq!(report.class_counts(), [1, 0, 0, 0]);
        assert!(report.regions[0].writes_disjoint);
    }

    #[test]
    fn write_only_region_downgrades_to_idempotent() {
        // store v, 7 with nothing read: idempotent (was war-free under
        // the index-insensitive analysis).
        let mut mb = ModuleBuilder::new("wonly");
        let v = mb.var(Variable::scalar("v"));
        let mut f = FunctionBuilder::new("main", 0);
        f.store_scalar(v, 7);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let report = check_anomalies(&im, true).unwrap();
        assert_eq!(report.class_counts(), [1, 0, 0, 0]);
        assert!(report.regions[0].writes_disjoint);
    }

    #[test]
    fn write_then_read_same_element_stays_war_free() {
        // store a[1]; load a[1] — not a WAR (write first), but the words
        // overlap so the disjointness downgrade must not fire.
        let mut mb = ModuleBuilder::new("wr");
        let a = mb.var(Variable::array("a", 4));
        let mut f = FunctionBuilder::new("main", 0);
        f.store_idx(a, 1, 9);
        let _ = f.load_idx(a, 1);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let report = check_anomalies(&im, true).unwrap();
        assert!(report.anomalies.is_empty());
        assert_eq!(report.class_counts(), [0, 1, 0, 0]);
        assert!(!report.regions[0].writes_disjoint);
    }

    #[test]
    fn reexec_bound_classifies_against_budget() {
        let im = war_module(false); // Rollback policy
        let table = schematic_energy::CostTable::msp430fr5969();
        // A huge budget: bounded and within budget.
        let report = check_anomalies_bounded(&im, true, &table, Energy::from_uj(1000)).unwrap();
        let region = &report.regions[0];
        assert!(region.reexec_bound.is_some());
        assert!(!region.over_budget);
        // A tiny budget: the same bound now exceeds it.
        let report = check_anomalies_bounded(&im, true, &table, Energy::from_pj(1)).unwrap();
        assert!(report.regions[0].over_budget);
        // Without a cost table no bound is computed.
        let report = check_anomalies(&im, true).unwrap();
        assert!(report.regions[0].reexec_bound.is_none());
        assert!(!report.regions[0].over_budget);
    }

    #[test]
    fn unbounded_loop_is_conservatively_over_budget() {
        // A loop with no max_iters annotation: the re-execution bound is
        // unknown, so a Rollback region reaching it flags over_budget.
        let mut mb = ModuleBuilder::new("unbounded");
        let v = mb.var(Variable::scalar("v"));
        let mut f = FunctionBuilder::new("main", 0);
        let header = f.new_block("header");
        let exit = f.new_block("exit");
        f.br(header);
        f.switch_to(header);
        let x = f.load_scalar(v);
        let c = f.cmp(schematic_ir::CmpOp::SGt, x, 0);
        f.cond_br(c, header, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = InstrumentedModule::bare(mb.finish(main));
        let table = schematic_energy::CostTable::msp430fr5969();
        let report = check_anomalies_bounded(&im, true, &table, Energy::from_uj(1000)).unwrap();
        assert!(report.regions[0].reexec_bound.is_none());
        assert!(report.regions[0].over_budget);
    }

    #[test]
    fn wait_recharge_regions_have_no_bound() {
        let mut im = war_module(false);
        im.policy = FailurePolicy::WaitRecharge;
        let table = schematic_energy::CostTable::msp430fr5969();
        let report = check_anomalies_bounded(&im, true, &table, Energy::from_pj(1)).unwrap();
        assert!(report.regions[0].reexec_bound.is_none());
        assert!(!report.regions[0].over_budget);
    }
}

//! Per-function analysis context and the *item* abstraction.
//!
//! Region analysis works over **items**: plain blocks, or already-
//! analyzed loops collapsed into single nodes. Items carry everything
//! the RCG construction needs — execution cost under a candidate
//! allocation, access counts for the gain function, fixed allocations
//! inherited from earlier decisions, and barrier boundary energies for
//! entities containing checkpoints.

use crate::config::SchematicConfig;
use crate::error::{BackEdgeCheckpoint, EdgeDecision};
use crate::summary::{FuncSummary, LoopSummary};
use schematic_energy::{Cost, CostTable, Energy, MemClass};
use schematic_ir::{
    AccessCount, AccessMap, BlockId, Cfg, Edge, FuncId, Inst, LoopForest, Module, VarId,
    VarLiveness, VarSet, WORD_BYTES,
};
use std::collections::HashMap;

/// One node of an analyzed path: a block, or a collapsed (already
/// analyzed) loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Item {
    /// A basic block of the current region.
    Block(BlockId),
    /// An already-analyzed inner loop, by loop-forest index.
    Loop(usize),
}

/// A path of items, with the CFG edge linking each consecutive pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ItemPath {
    /// Path items in execution order.
    pub items: Vec<Item>,
    /// `links[i]` is the CFG edge from `items[i]` to `items[i + 1]`.
    pub links: Vec<Edge>,
}

/// Barrier boundary energies (checkpointed callees / loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BarrierBounds {
    /// Budget that must remain when the barrier is entered.
    pub entry: Energy,
    /// Budget already consumed when execution emerges from the barrier.
    pub exit: Energy,
    /// Approximate internal energy, for path-cost ranking.
    pub internal: Energy,
}

/// Mutable per-function analysis state.
pub(crate) struct FuncCtx<'a> {
    pub module: &'a Module,
    pub table: &'a CostTable,
    pub config: &'a SchematicConfig,
    pub fid: FuncId,
    pub cfg: Cfg,
    pub forest: LoopForest,
    pub access: AccessMap,
    pub live: VarLiveness,
    pub summaries: &'a [FuncSummary],
    /// Decided VM set per block (`None` = not yet analyzed).
    pub alloc: Vec<Option<VarSet>>,
    /// Checkpoint decision per CFG edge (absent = undecided).
    pub edges: HashMap<Edge, EdgeDecision>,
    /// Summaries of analyzed loops (forest order).
    pub loop_sums: Vec<Option<LoopSummary>>,
    /// Decided conditional back-edge checkpoints.
    pub backedge_cps: Vec<BackEdgeCheckpoint>,
    /// Min energy remaining after executing a block, over committed
    /// paths (paper §III-A.3, `Eleft`).
    pub e_left: Vec<Option<Energy>>,
    /// Max energy needed from a block's start to the next committed
    /// checkpoint (`Eto_leave`).
    pub e_to_leave: Vec<Option<Energy>>,
    /// Variables written anywhere in the module; read-only variables are
    /// never saved at checkpoints (their NVM home is always current).
    pub written: VarSet,
}

impl<'a> FuncCtx<'a> {
    /// Builds a fresh context for `fid`.
    pub fn new(
        module: &'a Module,
        table: &'a CostTable,
        config: &'a SchematicConfig,
        summaries: &'a [FuncSummary],
        effects: &[schematic_ir::CallEffect],
        fid: FuncId,
    ) -> Self {
        let func = module.func(fid);
        let cfg = Cfg::new(func);
        let dom = schematic_ir::Dominators::new(&cfg);
        let forest = LoopForest::new(func, &cfg, &dom);
        let access = AccessMap::new(func);
        let exit_live = if module.entry == Some(fid) {
            VarSet::empty()
        } else {
            VarSet::full(module.vars.len())
        };
        let live = VarLiveness::new(func, &cfg, effects, &exit_live);
        let n = func.blocks.len();
        let n_loops = forest.len();
        let written = schematic_ir::module_written_vars(module);
        FuncCtx {
            module,
            table,
            config,
            fid,
            cfg,
            forest,
            access,
            live,
            summaries,
            alloc: vec![None; n],
            edges: HashMap::new(),
            loop_sums: vec![None; n_loops],
            backedge_cps: Vec::new(),
            e_left: vec![None; n],
            e_to_leave: vec![None; n],
            written,
        }
    }

    /// The function under analysis.
    pub fn func(&self) -> &'a schematic_ir::Function {
        self.module.func(self.fid)
    }

    /// Decision recorded for an edge.
    pub fn edge_decision(&self, e: Edge) -> EdgeDecision {
        self.edges
            .get(&e)
            .copied()
            .unwrap_or(EdgeDecision::Undecided)
    }

    /// Whether `var` may be placed in VM at all.
    pub fn vm_eligible(&self, var: VarId) -> bool {
        !self.module.var(var).pinned_nvm
    }

    /// Bytes occupied by a variable set in VM.
    pub fn set_bytes(&self, set: &VarSet) -> usize {
        set.iter()
            .map(|v| self.module.var(v).words * WORD_BYTES)
            .sum()
    }

    // ----- item queries -----------------------------------------------------

    /// Whether the item's allocation is already fixed, and what it is.
    pub fn fixed_alloc(&self, item: Item) -> Option<VarSet> {
        match item {
            Item::Block(b) => self.alloc[b.index()].clone(),
            Item::Loop(l) => {
                let s = self.loop_sums[l].as_ref()?;
                if s.has_checkpoint {
                    None // barrier: per-block allocations, no single set
                } else {
                    Some(s.alloc.clone())
                }
            }
        }
    }

    /// Whether the item contains checkpoints (making it a mandatory RCG
    /// waypoint).
    pub fn is_barrier(&self, item: Item) -> bool {
        match item {
            Item::Loop(l) => self.loop_sums[l]
                .as_ref()
                .map(|s| s.has_checkpoint)
                .unwrap_or(false),
            Item::Block(b) => self.block_has_cp_call(b),
        }
    }

    fn block_has_cp_call(&self, b: BlockId) -> bool {
        self.func().block(b).insts.iter().any(|inst| {
            matches!(inst, Inst::Call { func, .. }
                if self.summaries[func.index()].has_checkpoint)
        })
    }

    /// Boundary energies of a barrier item.
    pub fn barrier_bounds(&self, item: Item) -> BarrierBounds {
        match item {
            Item::Loop(l) => {
                let s = self.loop_sums[l].as_ref().expect("analyzed loop");
                BarrierBounds {
                    entry: s.entry_energy,
                    exit: s.exit_energy,
                    internal: s.entry_energy + s.exit_energy,
                }
            }
            Item::Block(b) => self.call_barrier_bounds(b),
        }
    }

    /// Splits a block containing checkpointed calls into
    /// pre-call / post-call boundary energies. With several such calls,
    /// the entry bound uses the first and the exit bound the last; the
    /// gaps between consecutive checkpointed calls are charged to the
    /// exit side (conservative).
    fn call_barrier_bounds(&self, b: BlockId) -> BarrierBounds {
        let func = self.func();
        let block = func.block(b);
        let alloc = self.alloc[b.index()].clone().unwrap_or_else(VarSet::empty);
        let mem_of = |v: VarId| {
            if alloc.contains(v) {
                MemClass::Vm
            } else {
                MemClass::Nvm
            }
        };
        let mut entry = Energy::ZERO;
        let mut exit = Energy::ZERO;
        let mut internal = Energy::ZERO;
        let mut seen_cp_call = false;
        for inst in &block.insts {
            let own = self.table.inst_cost(inst, mem_of).energy;
            let callee_extra = match inst {
                Inst::Call { func: callee, .. } => {
                    let s = &self.summaries[callee.index()];
                    if s.has_checkpoint {
                        // Boundary: close the running segment at the
                        // callee's first checkpoint.
                        if !seen_cp_call {
                            entry += own + s.entry_energy;
                        } else {
                            exit += own + s.entry_energy;
                        }
                        internal += s.entry_energy + s.exit_energy;
                        seen_cp_call = true;
                        exit = s.exit_energy;
                        continue;
                    }
                    s.entry_energy // checkpoint-free: whole-body WCEC
                }
                _ => Energy::ZERO,
            };
            if seen_cp_call {
                exit += own + callee_extra;
            } else {
                entry += own + callee_extra;
            }
        }
        let term = self.table.term_cost(&block.term).energy;
        if seen_cp_call {
            exit += term;
        } else {
            entry += term;
        }
        BarrierBounds {
            entry,
            exit,
            internal,
        }
    }

    /// Execution cost of a non-barrier item under the candidate VM set.
    pub fn item_cost(&self, item: Item, vm: &VarSet) -> Energy {
        match item {
            Item::Loop(l) => self.loop_sums[l].as_ref().expect("analyzed loop").total,
            Item::Block(b) => self.block_cost(b, vm),
        }
    }

    /// Cost of one execution of block `b` under VM set `vm`, including
    /// the whole-body cost of checkpoint-free callees.
    pub fn block_cost(&self, b: BlockId, vm: &VarSet) -> Energy {
        let func = self.func();
        let mem_of = |v: VarId| {
            if vm.contains(v) && self.vm_eligible(v) {
                MemClass::Vm
            } else {
                MemClass::Nvm
            }
        };
        let mut total = Cost::ZERO;
        for inst in &func.block(b).insts {
            total += self.table.inst_cost(inst, mem_of);
            if let Inst::Call { func: callee, .. } = inst {
                let s = &self.summaries[callee.index()];
                debug_assert!(
                    !s.has_checkpoint,
                    "barrier blocks must not be costed as plain items"
                );
                total += Cost::new(0, s.entry_energy);
            }
        }
        total += self.table.term_cost(&func.block(b).term);
        total.energy
    }

    /// Access counts contributed by an item (own accesses plus folded
    /// checkpoint-free callees; collapsed loops are trip-scaled).
    pub fn item_access(&self, item: Item) -> HashMap<VarId, AccessCount> {
        match item {
            Item::Loop(l) => self.loop_sums[l]
                .as_ref()
                .expect("analyzed loop")
                .access
                .clone(),
            Item::Block(b) => {
                let mut counts = self.access.block(b).clone();
                for inst in &self.func().block(b).insts {
                    if let Inst::Call { func: callee, .. } = inst {
                        for (&v, &c) in &self.summaries[callee.index()].access {
                            *counts.entry(v).or_default() += c;
                        }
                    }
                }
                counts
            }
        }
    }

    /// Variables whose VM placement is imposed on any interval
    /// containing the item (checkpoint-free callee allocations).
    pub fn item_mandatory_vm(&self, item: Item) -> VarSet {
        match item {
            Item::Loop(_) => VarSet::empty(), // covered by fixed_alloc
            Item::Block(b) => {
                let mut set = VarSet::empty();
                for inst in &self.func().block(b).insts {
                    if let Inst::Call { func: callee, .. } = inst {
                        let s = &self.summaries[callee.index()];
                        if !s.has_checkpoint {
                            set.union_with(&s.vm_vars);
                        }
                    }
                }
                set
            }
        }
    }

    /// Extra VM bytes the item needs for frozen inner structures
    /// (checkpointed callees restoring their own state).
    pub fn item_reserved_bytes(&self, item: Item) -> usize {
        match item {
            Item::Loop(l) => self.loop_sums[l].as_ref().map(|s| s.vm_bytes).unwrap_or(0),
            Item::Block(b) => {
                let mut bytes = 0;
                for inst in &self.func().block(b).insts {
                    if let Inst::Call { func: callee, .. } = inst {
                        bytes = bytes.max(self.summaries[callee.index()].vm_bytes);
                    }
                }
                bytes
            }
        }
    }

    /// The restore set at a checkpoint resuming into `target` with VM
    /// set `vm`: arrays always reload (partial writes need the backing
    /// data); scalars reload only if live (their first access may be a
    /// read). Without the liveness optimization everything reloads.
    pub fn restore_set(&self, vm: &VarSet, target: BlockId) -> VarSet {
        let mut set = VarSet::empty();
        for v in vm.iter() {
            let is_array = self.module.var(v).words > 1;
            let keep = if !self.config.liveness_opt {
                true
            } else {
                is_array || self.live.live_in(target).contains(v)
            };
            if keep {
                set.insert(v);
            }
        }
        set
    }

    /// The save set at a checkpoint on `edge` leaving VM set `vm`: a
    /// variable is saved unless it is dead (never read again). Without
    /// the liveness optimization everything is saved.
    pub fn save_set(&self, vm: &VarSet, edge: Edge) -> VarSet {
        let mut set = VarSet::empty();
        for v in vm.iter() {
            if !self.written.contains(v) {
                continue; // read-only: the NVM home is always current
            }
            let keep = if !self.config.liveness_opt {
                true
            } else {
                self.live.live_on_edge(edge.from, edge.to).contains(v)
            };
            if keep {
                set.insert(v);
            }
        }
        set
    }

    /// Words of a variable set.
    pub fn set_words(&self, set: &VarSet) -> usize {
        set.iter().map(|v| self.module.var(v).words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic_ir::{call_effects, CmpOp, FunctionBuilder, ModuleBuilder, Variable};

    fn setup() -> (Module, CostTable, SchematicConfig) {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x"));
        let t = mb.var(Variable::array("t", 4).pinned());
        let mut f = FunctionBuilder::new("main", 0);
        let l = f.new_block("l");
        let exit = f.new_block("exit");
        let v = f.load_scalar(x);
        f.store_scalar(x, v);
        let _ = f.load_idx(t, 0);
        f.br(l);
        f.switch_to(l);
        f.set_max_iters(l, 3);
        let c = f.cmp(CmpOp::SGt, v, 0);
        f.cond_br(c, l, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = mb.func(f.finish());
        let m = mb.finish(main);
        (
            m,
            CostTable::msp430fr5969(),
            SchematicConfig::new(Energy::from_uj(4)),
        )
    }

    #[test]
    fn block_cost_reflects_allocation() {
        let (m, table, config) = setup();
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); m.funcs.len()];
        let ctx = FuncCtx::new(&m, &table, &config, &summaries, &effects, m.entry_func());
        let x = m.var_by_name("x").unwrap();
        let mut vm = VarSet::empty();
        vm.insert(x);
        let nvm_cost = ctx.block_cost(BlockId(0), &VarSet::empty());
        let vm_cost = ctx.block_cost(BlockId(0), &vm);
        assert!(vm_cost < nvm_cost);
        // Pinned variables never become VM even if requested.
        let t = m.var_by_name("t").unwrap();
        let mut with_pinned = vm.clone();
        with_pinned.insert(t);
        assert_eq!(ctx.block_cost(BlockId(0), &with_pinned), vm_cost);
        assert!(!ctx.vm_eligible(t));
        assert!(ctx.vm_eligible(x));
    }

    #[test]
    fn save_restore_sets_respect_liveness() {
        let (m, table, config) = setup();
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); m.funcs.len()];
        let ctx = FuncCtx::new(&m, &table, &config, &summaries, &effects, m.entry_func());
        let x = m.var_by_name("x").unwrap();
        let mut vm = VarSet::empty();
        vm.insert(x);
        // After `exit` (block 2) x is never read: dead at the edge l->exit.
        let save = ctx.save_set(&vm, Edge::new(BlockId(1), BlockId(2)));
        assert!(save.is_empty());
        // x is read at the start of entry: restoring into entry keeps it.
        let restore = ctx.restore_set(&vm, BlockId(0));
        assert!(restore.contains(x));
        // x is not read in exit.
        let restore_exit = ctx.restore_set(&vm, BlockId(2));
        assert!(restore_exit.is_empty());
    }

    #[test]
    fn liveness_opt_off_keeps_everything() {
        let (m, table, mut config) = setup();
        config.liveness_opt = false;
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); m.funcs.len()];
        let ctx = FuncCtx::new(&m, &table, &config, &summaries, &effects, m.entry_func());
        let x = m.var_by_name("x").unwrap();
        let mut vm = VarSet::empty();
        vm.insert(x);
        assert!(ctx
            .save_set(&vm, Edge::new(BlockId(1), BlockId(2)))
            .contains(x));
        assert!(ctx.restore_set(&vm, BlockId(2)).contains(x));
    }

    #[test]
    fn set_bytes_and_words() {
        let (m, table, config) = setup();
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); m.funcs.len()];
        let ctx = FuncCtx::new(&m, &table, &config, &summaries, &effects, m.entry_func());
        let t = m.var_by_name("t").unwrap();
        let mut s = VarSet::empty();
        s.insert(t);
        assert_eq!(ctx.set_bytes(&s), 16);
        assert_eq!(ctx.set_words(&s), 4);
    }
}

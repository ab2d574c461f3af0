//! Predecoded programs: the emulator's execution format.
//!
//! [`Machine`](crate::Machine) does not interpret [`schematic_ir::Inst`]
//! directly. An [`InstrumentedModule`] is lowered once, by
//! [`DecodedModule::new`], into flat per-block arrays in which every
//! per-instruction decision that is invariant for a whole run has already
//! been made:
//!
//! - every instruction's execution [`Cost`] is resolved from the
//!   [`CostTable`] (no per-step opcode match against raw cycle fields);
//! - every `load`/`store` carries its [`MemClass`], resolved from the
//!   active [`AllocationPlan`](crate::AllocationPlan) and the variable's
//!   `pinned_nvm` flag — the per-access plan lookup is gone entirely;
//! - every branch and call target carries the *flat* index of its
//!   destination block, so dispatch never walks `funcs[f].blocks[b]`,
//!   and every edge knows statically whether crossing it can require
//!   residency reconciliation (see [`DTerm`]);
//! - **superblocks**: for every instruction position, the length and
//!   aggregate worst-case cost of the maximal straight-line run of pure,
//!   trap-impossible register instructions starting there. When the power
//!   window has headroom for the whole run, the machine retires it with a
//!   single charge instead of per-instruction bookkeeping (see
//!   `Machine::step`), falling back to per-instruction stepping whenever
//!   a failure, a cycle-limit edge, or a re-execution boundary could land
//!   mid-run — so metrics, failure points and traces stay bit-identical.
//!
//! A decoded module borrows the instrumented module and cost table it was
//! built from; build one with [`DecodedModule::new`] and reuse it across
//! runs via `Machine::with_decoded` to amortize the lowering (the
//! convenience `Machine::new` decodes internally for one-shot runs).

use crate::instrumented::InstrumentedModule;
use schematic_energy::{Cost, CostTable, Energy, MemClass};
use schematic_ir::{
    AccessKind, BinOp, BlockId, CheckpointId, CmpOp, FuncId, Inst, Operand, Reg, Terminator, UnOp,
    VarId, VarSet,
};

/// A predecoded instruction. Mirrors [`Inst`] with run-invariant
/// decisions (memory class, callee entry points) baked in; all variants
/// are `Copy` so the interpreter can lift one out of the decoded arrays
/// without borrowing the machine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DInst {
    /// `dst = op lhs, rhs`
    Bin {
        dst: Reg,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cmp.pred lhs, rhs`
    Cmp {
        dst: Reg,
        op: CmpOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = op src`
    Un { dst: Reg, op: UnOp, src: Operand },
    /// `dst = src`
    Copy { dst: Reg, src: Operand },
    /// `dst = select cond, a, b`
    Select {
        dst: Reg,
        cond: Operand,
        then_val: Operand,
        else_val: Operand,
    },
    /// `dst = load var[idx]` with the memory class pre-resolved from the
    /// allocation plan of the enclosing block, and the variable's arena
    /// word offset (`base`) and size (`words`) resolved so the access is
    /// a single bounds check plus one arena index at run time.
    Load {
        dst: Reg,
        var: VarId,
        idx: Option<Operand>,
        class: MemClass,
        base: u32,
        words: u32,
    },
    /// `store var[idx], src` with the memory class and arena addressing
    /// pre-resolved (see [`DInst::Load`]).
    Store {
        var: VarId,
        idx: Option<Operand>,
        src: Operand,
        class: MemClass,
        base: u32,
        words: u32,
    },
    /// Direct call; arguments live in [`DecodedModule::call_args`]
    /// (`args` is a range into it) and the callee's register-file size
    /// and flat entry-block index are pre-resolved.
    Call {
        dst: Option<Reg>,
        func: FuncId,
        args_start: u32,
        args_end: u32,
        n_regs: u32,
        entry: BlockId,
        entry_flat: u32,
        /// Whether the caller→callee-entry edge needs residency
        /// reconciliation (see [`DTerm`]).
        reconcile: bool,
    },
    /// Checkpoint intrinsic (runtime semantics from the checkpoint spec).
    Checkpoint { id: CheckpointId },
    /// Conditional checkpoint on a loop back-edge.
    CondCheckpoint { id: CheckpointId, period: u32 },
    /// ALFRED-style anticipated save.
    SaveVar { var: VarId },
    /// ALFRED-style deferred restore.
    RestoreVar { var: VarId },
}

impl DInst {
    /// Whether this instruction may join a superblock: a pure register
    /// operation that cannot trap, touch memory, or transfer control.
    /// Division/remainder qualify only when the divisor is an immediate
    /// that provably cannot trap (non-zero, and not `-1` for the signed
    /// forms, which would trap on `i32::MIN`).
    fn is_fusable(&self) -> bool {
        match self {
            DInst::Cmp { .. } | DInst::Un { .. } | DInst::Copy { .. } | DInst::Select { .. } => {
                true
            }
            DInst::Bin { op, rhs, .. } => match op {
                BinOp::DivS | BinOp::RemS => {
                    matches!(rhs, Operand::Imm(v) if *v != 0 && *v != -1)
                }
                BinOp::DivU | BinOp::RemU => matches!(rhs, Operand::Imm(v) if *v != 0),
                _ => true,
            },
            _ => false,
        }
    }
}

/// A predecoded terminator with flat successor indices.
///
/// Each edge also carries a precomputed `reconcile` flag: whether
/// residency reconciliation can have any effect when crossing it. Dirty
/// VM copies only arise from VM-class stores, and a store's class is VM
/// only when the variable is in the *current* block's plan — so at any
/// point the dirty set is a subset of the current plan. When the source
/// plan is a subset of the target plan the flush set is provably empty
/// and the edge skips reconciliation entirely. Return edges cannot be
/// resolved statically (one `ret` serves every call site) and always
/// reconcile.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DTerm {
    /// Unconditional branch.
    Br {
        target: BlockId,
        flat: u32,
        reconcile: bool,
    },
    /// Two-way conditional branch.
    CondBr {
        cond: Operand,
        then_bb: BlockId,
        then_flat: u32,
        then_reconcile: bool,
        else_bb: BlockId,
        else_flat: u32,
        else_reconcile: bool,
    },
    /// Function return.
    Ret(Option<Operand>),
}

/// Whether the edge from a block with VM set `src` to one with VM set
/// `tgt` needs residency reconciliation (see [`DTerm`]): only when some
/// variable of `src` — the superset of everything that can be dirty —
/// leaves the plan.
fn needs_reconcile(src: Option<&VarSet>, tgt: Option<&VarSet>) -> bool {
    match (src, tgt) {
        (None, _) => false,
        (Some(s), None) => !s.is_empty(),
        (Some(s), Some(t)) => !s.is_subset(t),
    }
}

/// What a fusable block's prep pass must establish for one variable
/// before the checkless body loop runs (see [`DecodedBlock::prep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrepKind {
    /// The first access reads (a load, or an indexed store): fault-load
    /// the variable into VM, charged as an implicit restore.
    Restore,
    /// The first access is a full scalar overwrite: materialize an
    /// uninitialized VM copy for free.
    AllocScalar,
}

/// One entry of a fusable block's VM-residency prep list: the block's
/// first access to `var` (VM class only), in program order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrepOp {
    pub(crate) var: VarId,
    pub(crate) kind: PrepKind,
}

/// One basic block in decoded form. The instruction-indexed arrays
/// are parallel: `insts[ip]` executes with exec-CPU cost `costs[ip]`
/// via the direct-threaded handler `ops[ip]`, and
/// `fuse_len[ip]`/`fuse_cost[ip]` describe the superblock (maximal
/// fusable run) starting at `ip` — zero length when `insts[ip]` itself
/// is not fusable, so any resume point (checkpoint restores land at
/// arbitrary `ip`) sees a correct, possibly shorter, run.
pub(crate) struct DecodedBlock<'a> {
    pub(crate) insts: Box<[DInst]>,
    pub(crate) costs: Box<[Cost]>,
    /// Direct-threaded dispatch table: `ops[ip]` is the handler function
    /// for `insts[ip]`, selected once at decode time so the
    /// per-instruction path jumps straight to the variant's code instead
    /// of re-matching the opcode every step.
    pub(crate) ops: Box<[crate::machine::OpFn]>,
    pub(crate) fuse_len: Box<[u32]>,
    pub(crate) fuse_cost: Box<[Cost]>,
    /// VM-residency prep list (fusable blocks only): the block's first
    /// VM-class access per variable, in program order. Establishing
    /// these up front makes every access in the body provably valid —
    /// the class of a (variable, block) pair is unique, so nothing
    /// inside the block can invalidate a prepped copy — letting the
    /// fused body loop run without any residency checks.
    pub(crate) prep: Box<[PrepOp]>,
    /// The block's VM allocation set (`None` = empty fallback set), as
    /// [`AllocationPlan::get_ref`](crate::AllocationPlan::get_ref) would
    /// resolve it — residency reconciliation reads this instead of
    /// re-querying the plan.
    pub(crate) plan: Option<&'a VarSet>,
    pub(crate) term: DTerm,
    pub(crate) term_cost: Cost,
    /// Whether the whole block qualifies for block-level fused dispatch:
    /// every instruction is either superblock-fusable or a plain
    /// load/store. Checkpoints, calls, save/restore intrinsics and
    /// possibly-trapping divisions disqualify the block.
    pub(crate) fusable: bool,
    /// Aggregate accounting for block-level dispatch. Meaningful only
    /// when `fusable`.
    pub(crate) fused: FusedCosts,
}

/// Precomputed whole-block accounting for a fusable block.
///
/// Once the guard in `Machine::step` proves the entire block executes as
/// one fused step, everything the emulator charges for it — Exec-category
/// cost, the CPU/VM/NVM energy split, and the access counters — is a
/// compile-time constant of the block: every instruction runs exactly
/// once and every access class was resolved at decode time. The hot loop
/// therefore only moves data; the machine commits this bundle once at
/// the end. Only implicit restores remain dynamic (they depend on VM
/// residency) and are charged separately as they occur.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FusedCosts {
    /// Worst-case total cost of executing the entire block — every
    /// instruction's CPU and access cost, the largest implicit-restore
    /// charge each VM access could trigger, and the terminator — used to
    /// prove that no power failure or cycle-limit edge can land inside a
    /// block-level dispatch.
    pub(crate) ub_cost: Cost,
    /// Exact Exec-category total: CPU + access costs of every
    /// instruction plus the terminator (excludes implicit restores).
    pub(crate) exec_cost: Cost,
    /// CPU-only energy share of `exec_cost` (instructions + terminator).
    pub(crate) cpu_energy: Energy,
    /// VM access-energy share of `exec_cost`.
    pub(crate) vm_energy: Energy,
    /// NVM access-energy share of `exec_cost`.
    pub(crate) nvm_energy: Energy,
    pub(crate) vm_reads: u32,
    pub(crate) vm_writes: u32,
    pub(crate) nvm_reads: u32,
    pub(crate) nvm_writes: u32,
}

/// An [`InstrumentedModule`] lowered to the emulator's execution format.
///
/// Build once per `(module, cost table)` pair and share across runs:
///
/// ```
/// use schematic_emu::{DecodedModule, InstrumentedModule, Machine, RunConfig};
/// use schematic_energy::CostTable;
/// use schematic_ir::parse_module;
///
/// let m = parse_module("func @main(0) {\nentry:\n  r0 = mov 42\n  ret r0\n}").unwrap();
/// let im = InstrumentedModule::bare(m);
/// let table = CostTable::msp430fr5969();
/// let decoded = DecodedModule::new(&im, &table);
/// for _ in 0..3 {
///     let out = Machine::with_decoded(&decoded, RunConfig::default()).run()?;
///     assert_eq!(out.result, Some(42));
/// }
/// # Ok::<(), schematic_emu::EmuError>(())
/// ```
pub struct DecodedModule<'a> {
    pub(crate) im: &'a InstrumentedModule,
    pub(crate) table: &'a CostTable,
    pub(crate) blocks: Vec<DecodedBlock<'a>>,
    /// Flat index of each function's block 0.
    func_base: Vec<u32>,
    /// Flattened argument lists of every call instruction.
    pub(crate) call_args: Vec<Operand>,
}

impl<'a> DecodedModule<'a> {
    /// Lowers `im` into flat execution arrays under `table`'s costs.
    pub fn new(im: &'a InstrumentedModule, table: &'a CostTable) -> Self {
        let module = &im.module;
        let mut func_base = Vec::with_capacity(module.funcs.len());
        let mut total_blocks = 0usize;
        for f in &module.funcs {
            func_base.push(u32::try_from(total_blocks).expect("block count fits u32"));
            total_blocks += f.blocks.len();
        }
        let mut blocks = Vec::with_capacity(total_blocks);
        let mut call_args = Vec::new();
        let (arena_off, _) = crate::memory::word_offsets(module);
        for (fi, func) in module.funcs.iter().enumerate() {
            let fid = FuncId::from_usize(fi);
            for (bi, block) in func.blocks.iter().enumerate() {
                let bid = BlockId::from_usize(bi);
                let plan = im.plan.get_ref(fid, bid);
                let n = block.insts.len();
                let mut insts = Vec::with_capacity(n);
                let mut costs = Vec::with_capacity(n);
                for inst in &block.insts {
                    let di = decode_inst(inst, im, plan, &func_base, &arena_off, &mut call_args);
                    // The decoded cost is the exec-CPU part only; memory
                    // access energy is charged separately at run time from
                    // the pre-resolved class, exactly as the interpreter
                    // always has.
                    costs.push(exec_cpu_cost(inst, table));
                    insts.push(di);
                }
                // Superblocks: suffix-scan the fusable run length and
                // aggregate cost at each position.
                let mut fuse_len = vec![0u32; n];
                let mut fuse_cost = vec![Cost::ZERO; n];
                for ip in (0..n).rev() {
                    if insts[ip].is_fusable() {
                        let (len, cost) = if ip + 1 < n {
                            (fuse_len[ip + 1], fuse_cost[ip + 1])
                        } else {
                            (0, Cost::ZERO)
                        };
                        fuse_len[ip] = len + 1;
                        fuse_cost[ip] = costs[ip] + cost;
                    }
                }
                let term_cost = table.term_cost(&block.term);
                let (fusable, fused) = block_bound(&insts, &costs, term_cost, im, table);
                let prep = if fusable {
                    prep_ops(&insts)
                } else {
                    Box::default()
                };
                blocks.push(DecodedBlock {
                    ops: insts.iter().map(crate::machine::op_for).collect(),
                    insts: insts.into_boxed_slice(),
                    costs: costs.into_boxed_slice(),
                    fuse_len: fuse_len.into_boxed_slice(),
                    fuse_cost: fuse_cost.into_boxed_slice(),
                    prep,
                    plan,
                    term: decode_term(&block.term, im, plan, &func_base, fid),
                    term_cost,
                    fusable,
                    fused,
                });
            }
        }
        DecodedModule {
            im,
            table,
            blocks,
            func_base,
            call_args,
        }
    }

    /// The instrumented module this was decoded from.
    pub fn instrumented(&self) -> &'a InstrumentedModule {
        self.im
    }

    /// The cost table this was decoded under.
    pub fn cost_table(&self) -> &'a CostTable {
        self.table
    }

    /// Flat block index of `(f, b)`.
    #[inline]
    pub(crate) fn flat_index(&self, f: FuncId, b: BlockId) -> u32 {
        self.func_base[f.index()] + b.0
    }
}

/// The exec-CPU cost the interpreter charges for `inst` (excluding
/// memory-access energy, checkpoint runtime effects and callee bodies).
fn exec_cpu_cost(inst: &Inst, table: &CostTable) -> Cost {
    match inst {
        Inst::Bin { op, .. } => match op {
            BinOp::Mul => table.cycles_cost(table.mul_cycles),
            BinOp::DivS | BinOp::DivU | BinOp::RemS | BinOp::RemU => {
                table.cycles_cost(table.div_cycles)
            }
            _ => table.cycles_cost(table.alu_cycles),
        },
        Inst::Cmp { .. } => table.cycles_cost(table.cmp_cycles),
        Inst::Un { .. } => table.cycles_cost(table.alu_cycles),
        Inst::Copy { .. } => table.cycles_cost(table.copy_cycles),
        Inst::Select { .. } => table.cycles_cost(table.select_cycles),
        Inst::Load { .. } => table.cycles_cost(table.load_cycles),
        Inst::Store { .. } => table.cycles_cost(table.store_cycles),
        Inst::Call { args, .. } => {
            table.cycles_cost(table.call_cycles + table.copy_cycles * args.len() as u64)
        }
        Inst::Checkpoint { .. } | Inst::SaveVar { .. } | Inst::RestoreVar { .. } => Cost::ZERO,
        Inst::CondCheckpoint { .. } => table.cond_check,
    }
}

/// Computes the block-level fusion eligibility and the aggregate
/// accounting bundle (see [`FusedCosts`]). For the worst-case bound, a
/// VM access may find the copy invalid and trigger an implicit restore
/// of the whole variable, so each one contributes `restore_words_cost`
/// on top of its access cost; a full-scalar VM store materializes an
/// uninitialized copy for free and contributes none.
fn block_bound(
    insts: &[DInst],
    costs: &[Cost],
    term_cost: Cost,
    im: &InstrumentedModule,
    table: &CostTable,
) -> (bool, FusedCosts) {
    let mut f = FusedCosts {
        ub_cost: term_cost,
        exec_cost: term_cost,
        cpu_energy: term_cost.energy,
        ..FusedCosts::default()
    };
    for (di, &cost) in insts.iter().zip(costs) {
        match di {
            DInst::Load { var, class, .. } => {
                let access = table.access_cost(*class, AccessKind::Read);
                f.exec_cost = f.exec_cost + cost + access;
                f.cpu_energy += cost.energy;
                match class {
                    MemClass::Vm => {
                        f.vm_reads += 1;
                        f.vm_energy += access.energy;
                        f.ub_cost = f.ub_cost
                            + cost
                            + access
                            + table.restore_words_cost(im.module.var(*var).words);
                    }
                    MemClass::Nvm => {
                        f.nvm_reads += 1;
                        f.nvm_energy += access.energy;
                        f.ub_cost = f.ub_cost + cost + access;
                    }
                }
            }
            DInst::Store {
                var, idx, class, ..
            } => {
                let access = table.access_cost(*class, AccessKind::Write);
                f.exec_cost = f.exec_cost + cost + access;
                f.cpu_energy += cost.energy;
                match class {
                    MemClass::Vm => {
                        f.vm_writes += 1;
                        f.vm_energy += access.energy;
                        f.ub_cost = f.ub_cost + cost + access;
                        if idx.is_some() {
                            f.ub_cost += table.restore_words_cost(im.module.var(*var).words);
                        }
                    }
                    MemClass::Nvm => {
                        f.nvm_writes += 1;
                        f.nvm_energy += access.energy;
                        f.ub_cost = f.ub_cost + cost + access;
                    }
                }
            }
            _ if di.is_fusable() => {
                f.exec_cost += cost;
                f.cpu_energy += cost.energy;
                f.ub_cost += cost;
            }
            _ => return (false, FusedCosts::default()),
        }
    }
    (true, f)
}

/// Computes a fusable block's VM-residency prep list: its first VM-class
/// access per variable, in program order (see [`DecodedBlock::prep`]).
fn prep_ops(insts: &[DInst]) -> Box<[PrepOp]> {
    let mut seen: Vec<VarId> = Vec::new();
    let mut prep = Vec::new();
    for di in insts {
        let (var, kind) = match di {
            DInst::Load {
                var,
                class: MemClass::Vm,
                ..
            } => (*var, PrepKind::Restore),
            DInst::Store {
                var,
                idx,
                class: MemClass::Vm,
                ..
            } => (
                *var,
                if idx.is_none() {
                    PrepKind::AllocScalar
                } else {
                    PrepKind::Restore
                },
            ),
            _ => continue,
        };
        if !seen.contains(&var) {
            seen.push(var);
            prep.push(PrepOp { var, kind });
        }
    }
    prep.into_boxed_slice()
}

/// Resolves the memory class of an access to `var` inside a block whose
/// VM set is `plan` — the decision `Machine::var_class` used to make per
/// access.
fn resolve_class(im: &InstrumentedModule, plan: Option<&VarSet>, var: VarId) -> MemClass {
    if im.module.var(var).pinned_nvm {
        MemClass::Nvm
    } else if plan.is_some_and(|p| p.contains(var)) {
        MemClass::Vm
    } else {
        MemClass::Nvm
    }
}

fn decode_inst(
    inst: &Inst,
    im: &InstrumentedModule,
    plan: Option<&VarSet>,
    func_base: &[u32],
    arena_off: &[u32],
    call_args: &mut Vec<Operand>,
) -> DInst {
    match inst {
        Inst::Bin { dst, op, lhs, rhs } => DInst::Bin {
            dst: *dst,
            op: *op,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::Cmp { dst, op, lhs, rhs } => DInst::Cmp {
            dst: *dst,
            op: *op,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::Un { dst, op, src } => DInst::Un {
            dst: *dst,
            op: *op,
            src: *src,
        },
        Inst::Copy { dst, src } => DInst::Copy {
            dst: *dst,
            src: *src,
        },
        Inst::Select {
            dst,
            cond,
            then_val,
            else_val,
        } => DInst::Select {
            dst: *dst,
            cond: *cond,
            then_val: *then_val,
            else_val: *else_val,
        },
        Inst::Load { dst, var, idx } => DInst::Load {
            dst: *dst,
            var: *var,
            idx: *idx,
            class: resolve_class(im, plan, *var),
            base: arena_off[var.index()],
            words: u32::try_from(im.module.var(*var).words).expect("var size fits u32"),
        },
        Inst::Store { var, idx, src } => DInst::Store {
            var: *var,
            idx: *idx,
            src: *src,
            class: resolve_class(im, plan, *var),
            base: arena_off[var.index()],
            words: u32::try_from(im.module.var(*var).words).expect("var size fits u32"),
        },
        Inst::Call { dst, func, args } => {
            let start = u32::try_from(call_args.len()).expect("call args fit u32");
            call_args.extend(args.iter().copied());
            let end = u32::try_from(call_args.len()).expect("call args fit u32");
            let callee = im.module.func(*func);
            DInst::Call {
                dst: *dst,
                func: *func,
                args_start: start,
                args_end: end,
                n_regs: u32::try_from(callee.n_regs.max(1)).expect("register count fits u32"),
                entry: callee.entry,
                entry_flat: func_base[func.index()] + callee.entry.0,
                reconcile: needs_reconcile(plan, im.plan.get_ref(*func, callee.entry)),
            }
        }
        Inst::Checkpoint { id } => DInst::Checkpoint { id: *id },
        Inst::CondCheckpoint { id, period } => DInst::CondCheckpoint {
            id: *id,
            period: *period,
        },
        Inst::SaveVar { var } => DInst::SaveVar { var: *var },
        Inst::RestoreVar { var } => DInst::RestoreVar { var: *var },
    }
}

fn decode_term(
    term: &Terminator,
    im: &InstrumentedModule,
    plan: Option<&VarSet>,
    func_base: &[u32],
    func: FuncId,
) -> DTerm {
    let flat_of = |b: BlockId| func_base[func.index()] + b.0;
    let edge = |b: BlockId| needs_reconcile(plan, im.plan.get_ref(func, b));
    match term {
        Terminator::Br(t) => DTerm::Br {
            target: *t,
            flat: flat_of(*t),
            reconcile: edge(*t),
        },
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => DTerm::CondBr {
            cond: *cond,
            then_bb: *then_bb,
            then_flat: flat_of(*then_bb),
            then_reconcile: edge(*then_bb),
            else_bb: *else_bb,
            else_flat: flat_of(*else_bb),
            else_reconcile: edge(*else_bb),
        },
        Terminator::Ret(v) => DTerm::Ret(*v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrumented::AllocationPlan;
    use schematic_ir::{FunctionBuilder, ModuleBuilder, Variable};

    fn decoded_fixture(m: schematic_ir::Module) -> (InstrumentedModule, CostTable) {
        (InstrumentedModule::bare(m), CostTable::msp430fr5969())
    }

    #[test]
    fn pure_runs_fuse_with_summed_costs() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = FunctionBuilder::new("main", 0);
        let a = f.copy(1);
        let b = f.bin(BinOp::Add, a, 2);
        let c = f.bin(BinOp::Mul, b, 3);
        f.ret(Some(c.into()));
        let main = mb.func(f.finish());
        let (im, table) = decoded_fixture(mb.finish(main));
        let d = DecodedModule::new(&im, &table);
        let db = &d.blocks[0];
        assert_eq!(db.fuse_len.as_ref(), &[3, 2, 1]);
        let expected = table.cycles_cost(table.copy_cycles)
            + table.cycles_cost(table.alu_cycles)
            + table.cycles_cost(table.mul_cycles);
        assert_eq!(db.fuse_cost[0], expected);
        assert_eq!(
            db.fuse_cost[0].cycles,
            db.costs.iter().map(|c| c.cycles).sum()
        );
    }

    #[test]
    fn loads_and_unsafe_divisions_break_superblocks() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x").with_init(vec![4]));
        let mut f = FunctionBuilder::new("main", 0);
        let a = f.copy(8);
        let b = f.load_scalar(x); // memory: not fusable
        let c = f.bin(BinOp::DivS, a, b); // register divisor: may trap
        let d_ = f.bin(BinOp::DivS, c, 2); // safe immediate divisor
        let e = f.bin(BinOp::Add, d_, 1);
        f.ret(Some(e.into()));
        let main = mb.func(f.finish());
        let (im, table) = decoded_fixture(mb.finish(main));
        let d = DecodedModule::new(&im, &table);
        let db = &d.blocks[0];
        assert_eq!(db.fuse_len.as_ref(), &[1, 0, 0, 2, 1]);
        // The trailing safe-div + add run aggregates div + alu cycles.
        assert_eq!(db.fuse_cost[3].cycles, table.div_cycles + table.alu_cycles);
    }

    #[test]
    fn signed_division_by_minus_one_is_not_fused() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = FunctionBuilder::new("main", 0);
        let a = f.copy(8);
        let b = f.bin(BinOp::DivS, a, -1); // i32::MIN / -1 would trap
        let c = f.bin(BinOp::DivU, b, -1); // unsigned: -1 is u32::MAX, safe
        f.ret(Some(c.into()));
        let main = mb.func(f.finish());
        let (im, table) = decoded_fixture(mb.finish(main));
        let d = DecodedModule::new(&im, &table);
        assert_eq!(d.blocks[0].fuse_len.as_ref(), &[1, 0, 1]);
    }

    #[test]
    fn classes_resolve_from_plan_and_pinning() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x"));
        let p = mb.var(Variable::scalar("p").pinned());
        let mut f = FunctionBuilder::new("main", 0);
        let _ = f.load_scalar(x);
        let _ = f.load_scalar(p);
        f.ret(None);
        let main = mb.func(f.finish());
        let m = mb.finish(main);
        let mut plan = AllocationPlan::all_nvm(&m);
        let mut set = VarSet::new(2);
        set.insert(x);
        set.insert(p); // pinning must override plan membership
        plan.set(FuncId(0), BlockId(0), set);
        let im = InstrumentedModule {
            technique: "test".into(),
            module: m,
            checkpoints: vec![],
            plan,
            policy: crate::FailurePolicy::Rollback,
            boot_restore: vec![],
        };
        let table = CostTable::msp430fr5969();
        let d = DecodedModule::new(&im, &table);
        let classes: Vec<MemClass> = d.blocks[0]
            .insts
            .iter()
            .filter_map(|di| match di {
                DInst::Load { class, .. } => Some(*class),
                _ => None,
            })
            .collect();
        assert_eq!(classes, vec![MemClass::Vm, MemClass::Nvm]);
    }

    #[test]
    fn flat_indices_span_functions() {
        let mut mb = ModuleBuilder::new("m");
        let mut g = FunctionBuilder::new("g", 0);
        let extra = g.new_block("extra");
        g.br(extra);
        g.switch_to(extra);
        g.ret(None);
        let g = mb.func(g.finish());
        let mut f = FunctionBuilder::new("main", 0);
        f.call_void(g, vec![]);
        f.ret(None);
        let main = mb.func(f.finish());
        let (im, table) = decoded_fixture(mb.finish(main));
        let d = DecodedModule::new(&im, &table);
        assert_eq!(d.blocks.len(), 3);
        assert_eq!(d.flat_index(FuncId(0), BlockId(1)), 1);
        assert_eq!(d.flat_index(FuncId(1), BlockId(0)), 2);
        // The call's decoded entry points at g's flat entry block.
        let call = d.blocks[2]
            .insts
            .iter()
            .find_map(|di| match di {
                DInst::Call { entry_flat, .. } => Some(*entry_flat),
                _ => None,
            })
            .expect("main calls g");
        assert_eq!(call, 0);
    }
}

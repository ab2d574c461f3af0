//! Independent placement verifier.
//!
//! Re-checks a finished [`InstrumentedModule`] against the core
//! guarantee of the paper (§II-B): **the worst-case energy consumed
//! between any two consecutive checkpoints never exceeds `EB`**, over
//! every CFG path, call chain and loop iteration pattern. The verifier
//! shares no code with the placement analysis, so it catches analysis
//! bugs; it also powers ROCKCLIMB's pass 2 (adding checkpoints wherever
//! a stretch exceeds the budget) via [`patch_placement`].

use schematic_emu::{CheckpointSpec, InstrumentedModule};
use schematic_energy::{CostTable, Energy, MemClass};
use schematic_ir::{
    BlockId, Cfg, CheckpointId, Dominators, FuncId, Inst, LoopForest, Module, VarId,
};
use std::collections::HashMap;

/// One budget violation found by the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Function containing the violating stretch.
    pub func: FuncId,
    /// Block where the stretch's energy peaked.
    pub block: BlockId,
    /// Worst-case energy of the stretch.
    pub energy: Energy,
    /// Human-readable description.
    pub detail: String,
}

/// Per-function energy-flow facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuncFlow {
    /// Whether the function contains any checkpoint (transitively).
    pub resets: bool,
    /// Worst-case energy from entry to the first checkpoint (whole body
    /// if checkpoint-free).
    pub entry: Energy,
    /// Worst-case energy from the last checkpoint to any exit.
    pub exit: Energy,
}

/// Verifier output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementReport {
    /// The largest inter-checkpoint stretch found anywhere (closing
    /// checkpoint costs included).
    pub max_interval: Energy,
    /// All stretches exceeding the budget.
    pub violations: Vec<Violation>,
    /// Per-function flow facts (indexed by [`FuncId`]).
    pub flows: Vec<FuncFlow>,
}

impl PlacementReport {
    /// Whether the placement is sound.
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Block shapes
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Boundary {
    /// A checkpoint intrinsic.
    Checkpoint {
        commit: Energy,
        resume: Energy,
        period: Option<u32>,
    },
    /// A call to a function that contains checkpoints.
    CallBarrier { entry: Energy, exit: Energy },
}

#[derive(Debug, Clone, Default)]
struct BlockShape {
    /// Segment energies: `segs[0]`, boundary 0, `segs[1]`, boundary 1, …
    segs: Vec<Energy>,
    bounds: Vec<Boundary>,
}

fn spec_words(module: &Module, spec: &CheckpointSpec, vars: &[VarId]) -> usize {
    let _ = spec;
    vars.iter().map(|v| module.var(*v).words).sum()
}

fn block_shape(
    im: &InstrumentedModule,
    table: &CostTable,
    flows: &[FuncFlow],
    fid: FuncId,
    b: BlockId,
) -> BlockShape {
    let module = &im.module;
    let func = module.func(fid);
    let alloc = im.plan.get(fid, b);
    let mem_of = |v: VarId| {
        if alloc.contains(v) && !module.var(v).pinned_nvm {
            MemClass::Vm
        } else {
            MemClass::Nvm
        }
    };
    let mut shape = BlockShape {
        segs: vec![Energy::ZERO],
        bounds: Vec::new(),
    };
    let push_boundary = |shape: &mut BlockShape, bnd: Boundary| {
        shape.bounds.push(bnd);
        shape.segs.push(Energy::ZERO);
    };
    for inst in &func.block(b).insts {
        let base = table.inst_cost(inst, mem_of).energy;
        *shape.segs.last_mut().expect("non-empty") += base;
        match inst {
            Inst::Checkpoint { id } | Inst::CondCheckpoint { id, .. } => {
                let period = match inst {
                    Inst::CondCheckpoint { period, .. } => Some(*period),
                    _ => None,
                };
                let spec = im
                    .spec(*id)
                    .cloned()
                    .unwrap_or_else(CheckpointSpec::registers_only);
                let commit = table
                    .checkpoint_commit_cost(spec_words(module, &spec, &spec.save_vars))
                    .energy;
                let resume = table
                    .checkpoint_resume_cost(spec_words(module, &spec, &spec.restore_vars))
                    .energy;
                push_boundary(
                    &mut shape,
                    Boundary::Checkpoint {
                        commit,
                        resume,
                        period,
                    },
                );
            }
            Inst::Call { func: callee, .. } => {
                let f = flows[callee.index()];
                if f.resets {
                    push_boundary(
                        &mut shape,
                        Boundary::CallBarrier {
                            entry: f.entry,
                            exit: f.exit,
                        },
                    );
                } else {
                    *shape.segs.last_mut().expect("non-empty") += f.entry;
                }
            }
            _ => {}
        }
    }
    *shape.segs.last_mut().expect("non-empty") += table.term_cost(&func.block(b).term).energy;
    shape
}

// ---------------------------------------------------------------------------
// Scope analysis
// ---------------------------------------------------------------------------

/// Result of flowing energy through a block or collapsed loop.
#[derive(Debug, Clone, Copy)]
struct NodeFlow {
    /// Any reset inside?
    resets: bool,
    /// Energy from node entry to its first reset (full cost if none).
    head: Energy,
    /// Energy from the last reset to the node's exit (== head if none).
    tail: Energy,
    /// Whether a reset-free pass through the node exists.
    free_pass: bool,
}

struct ScopeAnalyzer<'a> {
    im: &'a InstrumentedModule,
    table: &'a CostTable,
    eb: Energy,
    fid: FuncId,
    cfg: Cfg,
    forest: LoopForest,
    shapes: Vec<BlockShape>,
    loop_nodes: Vec<Option<NodeFlow>>,
    violations: Vec<Violation>,
    max_interval: Energy,
    /// Top-scope exit block carrying the worst last-reset-to-return
    /// energy (`FuncFlow::exit`); the entry function's final stretch is
    /// charged against the budget there.
    tail_block: BlockId,
}

impl<'a> ScopeAnalyzer<'a> {
    fn new(
        im: &'a InstrumentedModule,
        table: &'a CostTable,
        eb: Energy,
        flows: &'a [FuncFlow],
        fid: FuncId,
    ) -> Self {
        let func = im.module.func(fid);
        let cfg = Cfg::new(func);
        let dom = Dominators::new(&cfg);
        let forest = LoopForest::new(func, &cfg, &dom);
        let shapes = (0..func.blocks.len())
            .map(|i| block_shape(im, table, flows, fid, BlockId::from_usize(i)))
            .collect();
        ScopeAnalyzer {
            im,
            table,
            eb,
            fid,
            cfg,
            forest,
            shapes,
            loop_nodes: Vec::new(),
            violations: Vec::new(),
            max_interval: Energy::ZERO,
            tail_block: func.entry,
        }
    }

    fn note_interval(&mut self, block: BlockId, energy: Energy, what: &str) {
        self.max_interval = self.max_interval.max(energy);
        if energy > self.eb {
            self.violations.push(Violation {
                func: self.fid,
                block,
                energy,
                detail: format!("{what} needs {energy} > EB"),
            });
        }
    }

    /// Flows `B` (energy since last reset) through one block.
    ///
    /// Returns the outgoing `B`, whether any reset occurred, and the
    /// closing energy at the *first* reset (relative to `b_in`).
    fn through_block(
        &mut self,
        b: BlockId,
        b_in: Energy,
        cond_fires: bool,
        record: bool,
    ) -> (Energy, bool, Option<Energy>) {
        let shape = self.shapes[b.index()].clone();
        let mut cur = b_in + shape.segs[0];
        let mut reset = false;
        let mut first_closing = None;
        for (i, bound) in shape.bounds.iter().enumerate() {
            match bound {
                Boundary::Checkpoint {
                    commit,
                    resume,
                    period,
                } => {
                    let fires = period.is_none() || cond_fires;
                    if fires {
                        if record {
                            self.note_interval(b, cur + *commit, "interval closing at checkpoint");
                        }
                        if first_closing.is_none() {
                            first_closing = Some(cur + *commit);
                        }
                        cur = *resume;
                        reset = true;
                    }
                }
                Boundary::CallBarrier { entry, exit } => {
                    if record {
                        self.note_interval(
                            b,
                            cur + *entry,
                            "interval entering checkpointed callee",
                        );
                    }
                    if first_closing.is_none() {
                        first_closing = Some(cur + *entry);
                    }
                    cur = *exit;
                    reset = true;
                }
            }
            cur += shape.segs[i + 1];
        }
        (cur, reset, first_closing)
    }

    /// The innermost loop of `b` strictly below `scope`.
    fn top_loop_of(&self, b: BlockId, scope: Option<usize>) -> Option<usize> {
        let mut li = self.forest.innermost_of(b);
        let mut chosen = None;
        while let Some(i) = li {
            if Some(i) == scope {
                break;
            }
            chosen = Some(i);
            li = self.forest.loops[i].parent;
        }
        chosen
    }

    /// Analyzes one scope (a loop body or the whole function),
    /// returning its NodeFlow. Child loops must be analyzed first.
    fn analyze_scope(&mut self, scope: Option<usize>) -> NodeFlow {
        let func = self.im.module.func(self.fid);
        let scope_body: Option<std::collections::BTreeSet<BlockId>> =
            scope.map(|l| self.forest.loops[l].body.clone());
        let in_scope = move |b: BlockId| match &scope_body {
            None => true,
            Some(body) => body.contains(&b),
        };
        let entry = match scope {
            None => func.entry,
            Some(l) => self.forest.loops[l].header,
        };
        let header = match scope {
            None => None,
            Some(l) => Some(self.forest.loops[l].header),
        };

        // Node list: scope blocks not inside child loops, plus child
        // loop representatives (their headers stand for the whole loop).
        // Topological order via DFS on the collapsed graph.
        let mut order: Vec<BlockId> = Vec::new();
        let mut state: HashMap<BlockId, u8> = HashMap::new();
        let mut stack = vec![(entry, 0usize)];
        state.insert(entry, 1);
        let rep = |s: &Self, b: BlockId| -> BlockId {
            match s.top_loop_of(b, scope) {
                Some(l) => s.forest.loops[l].header,
                None => b,
            }
        };
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succ_blocks: Vec<BlockId> = match self.top_loop_of(b, scope) {
                Some(l) => {
                    // Successors leaving the child loop.
                    let mut out = Vec::new();
                    for &x in self.forest.loops[l].body.clone().iter() {
                        for &s in self.cfg.succs(x) {
                            if !self.forest.loops[l].contains(s) {
                                out.push(s);
                            }
                        }
                    }
                    out
                }
                None => self.cfg.succs(b).to_vec(),
            };
            let filtered: Vec<BlockId> = succ_blocks
                .into_iter()
                .filter(|&s| in_scope(s) && Some(s) != header.filter(|_| true))
                .map(|s| rep(self, s))
                .collect();
            if *next < filtered.len() {
                let s = filtered[*next];
                *next += 1;
                if !state.contains_key(&s) && s != entry {
                    state.insert(s, 1);
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();

        // Forward pass: B = worst energy since last reset; A = worst
        // energy since scope entry on reset-free paths (None once every
        // path has reset).
        let mut b_val: HashMap<BlockId, Energy> = HashMap::new();
        let mut a_val: HashMap<BlockId, Option<Energy>> = HashMap::new();
        let mut head = Energy::ZERO; // scope entry → first reset
        let mut tail = Energy::ZERO; // last reset → scope exit
        let mut any_reset = false;
        let mut free_exit = false;

        // Incoming values per node (entry starts at zero).
        let mut out_b: HashMap<BlockId, Energy> = HashMap::new();
        let mut out_a: HashMap<BlockId, Option<Energy>> = HashMap::new();

        for &node in &order {
            let (in_b, in_a) = if node == rep(self, entry) {
                (Energy::ZERO, Some(Energy::ZERO))
            } else {
                (
                    b_val.get(&node).copied().unwrap_or(Energy::ZERO),
                    a_val.get(&node).copied().unwrap_or(None),
                )
            };

            // Pass through the node (block or child loop).
            let (nb, na, node_reset) = match self.top_loop_of(node, scope) {
                Some(l) => {
                    let nf = self.loop_nodes[l].expect("child loop analyzed");
                    if nf.resets {
                        self.note_interval(node, in_b + nf.head, "interval entering loop");
                        any_reset = true;
                        if let Some(a) = in_a {
                            head = head.max(a + nf.head);
                        }
                        let na = if nf.free_pass {
                            in_a.map(|a| a + nf.head + nf.tail)
                        } else {
                            None
                        };
                        (nf.tail, na, true)
                    } else {
                        (in_b + nf.head, in_a.map(|a| a + nf.head), false)
                    }
                }
                None => {
                    // Inside loop scopes conditional checkpoints are
                    // modelled as NOT firing (the k-iteration stretch is
                    // charged at the loop level); at top level they fire.
                    let cond_fires = scope.is_none();
                    let (nb, reset, first) = self.through_block(node, in_b, cond_fires, true);
                    if reset {
                        any_reset = true;
                        if let (Some(a), Some(first)) = (in_a, first) {
                            // Head segment: energy from scope entry to the
                            // block's first reset.
                            head = head.max(a + (first - in_b));
                        }
                    }
                    let na = if reset {
                        None
                    } else {
                        in_a.map(|a| nb - in_b + a)
                    };
                    (nb, na, reset)
                }
            };
            let _ = node_reset;
            out_b.insert(node, nb);
            out_a.insert(node, na);

            // Exits of the scope.
            let is_exit = match scope {
                None => {
                    self.im.module.func(self.fid).block(node).term.is_ret()
                        || self.top_loop_of(node, scope).is_some_and(|l| {
                            self.forest.loops[l]
                                .body
                                .iter()
                                .any(|&x| self.im.module.func(self.fid).block(x).term.is_ret())
                        })
                }
                Some(l) => {
                    let lp = &self.forest.loops[l];
                    lp.latches.contains(&node)
                        || self.cfg.succs(node).iter().any(|s| !lp.contains(*s))
                }
            };
            if is_exit {
                if scope.is_none() && nb >= tail {
                    self.tail_block = node;
                }
                tail = tail.max(nb);
                if let Some(a) = na {
                    head = head.max(a);
                    // Accumulation across iterations only matters on the
                    // *cycle*: a reset-free path to a latch. Reset-free
                    // paths that leave the loop do not recur.
                    let recurs = match scope {
                        None => true,
                        Some(l) => self.forest.loops[l].latches.contains(&node),
                    };
                    if recurs {
                        free_exit = true;
                    }
                }
            }

            // Propagate to successors inside the scope.
            let succ_reps: Vec<BlockId> = match self.top_loop_of(node, scope) {
                Some(l) => {
                    let mut out = Vec::new();
                    for &x in self.forest.loops[l].body.clone().iter() {
                        for &s in self.cfg.succs(x) {
                            if !self.forest.loops[l].contains(s) && in_scope(s) {
                                if Some(s) == header {
                                    continue;
                                }
                                out.push(rep(self, s));
                            }
                        }
                    }
                    out
                }
                None => self
                    .cfg
                    .succs(node)
                    .iter()
                    .copied()
                    .filter(|&s| in_scope(s) && Some(s) != header)
                    .map(|s| rep(self, s))
                    .collect(),
            };
            for s in succ_reps {
                let eb = b_val.entry(s).or_insert(Energy::ZERO);
                *eb = (*eb).max(nb);
                let ea = a_val.entry(s).or_insert(None);
                *ea = match (*ea, na) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (None, None) => None,
                    // A reset-free path may exist through either side.
                    (Some(x), None) => Some(x),
                    (None, Some(y)) => Some(y),
                };
            }
        }

        if !any_reset {
            // Whole scope is one segment.
            head = head.max(tail);
        }

        // Loop scopes: account iteration accumulation.
        if let Some(l) = scope {
            let lp = self.forest.loops[l].clone();
            // An unannotated loop has no trip bound: without a reset in
            // every iteration it can accumulate without limit, so assume
            // the worst (the pipeline rejects such modules upfront, but
            // `verify_placement` is public and must stay conservative).
            let max_iters = lp.max_iters.unwrap_or(u64::MAX).max(1);
            // Does the back edge carry a conditional checkpoint? After
            // instrumentation the conditional checkpoint lives in a
            // dedicated block on the latch→header edge, inside the loop;
            // it was already processed above (treated as firing).
            // Only conditional checkpoints sitting on THIS loop's back
            // edge bound its iteration accumulation (inner loops carry
            // their own, already accounted in their nodes).
            let cond_period = lp
                .body
                .iter()
                .filter(|&&x| x == lp.header || self.cfg.succs(x).contains(&lp.header))
                .flat_map(|&x| self.im.module.func(self.fid).block(x).insts.iter())
                .find_map(|i| match i {
                    Inst::CondCheckpoint { period, id } => Some((*period, *id)),
                    _ => None,
                });

            if free_exit {
                // A reset-free iteration exists: energy accumulates
                // across iterations, bounded by the conditional
                // checkpoint period (or the trip bound without one).
                let per_iter = tail; // worst B at latch from one pass
                let (iters, cond_commit) = match cond_period {
                    Some((k, id)) => {
                        let spec = self
                            .im
                            .spec(id)
                            .cloned()
                            .unwrap_or_else(CheckpointSpec::registers_only);
                        let commit = self
                            .table
                            .checkpoint_commit_cost(spec_words(
                                &self.im.module,
                                &spec,
                                &spec.save_vars,
                            ))
                            .energy;
                        (u64::from(k), commit)
                    }
                    None => (max_iters, Energy::ZERO),
                };
                // Cap astronomic bounds (unannotated loops assume
                // `u64::MAX` trips) so enclosing scopes can keep adding
                // without overflow; the cap still dwarfs any real budget.
                let accumulated = per_iter
                    .saturating_mul(iters)
                    .saturating_add(cond_commit)
                    .min(Energy::from_pj(u64::MAX / 4));
                self.note_interval(
                    lp.header,
                    accumulated,
                    &format!("loop accumulation over {iters} iteration(s)"),
                );
                return NodeFlow {
                    resets: any_reset || cond_period.is_some(),
                    head: if any_reset { head } else { accumulated },
                    tail: if any_reset { tail } else { accumulated },
                    free_pass: !any_reset && cond_period.is_none(),
                };
            }
            return NodeFlow {
                resets: any_reset || cond_period.is_some(),
                head,
                tail,
                free_pass: false,
            };
        }

        NodeFlow {
            resets: any_reset,
            head,
            tail,
            free_pass: free_exit && !any_reset,
        }
    }

    fn run(mut self) -> (FuncFlow, Vec<Violation>, Energy) {
        self.loop_nodes = vec![None; self.forest.len()];
        for l in self.forest.bottom_up() {
            let nf = self.analyze_scope(Some(l));
            self.loop_nodes[l] = Some(nf);
        }
        let top = self.analyze_scope(None);
        // Boot: the initial interval includes staging the boot set.
        if self.im.module.entry == Some(self.fid) {
            let words: usize = self
                .im
                .boot_restore
                .iter()
                .map(|v| self.im.module.var(*v).words)
                .sum();
            let boot = self.table.restore_words_cost(words).energy;
            self.note_interval(
                self.im.module.func(self.fid).entry,
                boot + top.head,
                "boot interval",
            );
            // Callee tails are charged at their callers (barrier exit),
            // but the entry function has no caller: its stretch from the
            // last checkpoint to program exit must fit the budget too.
            if top.resets {
                let tb = self.tail_block;
                self.note_interval(tb, top.tail, "final interval to program exit");
            }
        }
        (
            FuncFlow {
                resets: top.resets,
                entry: top.head,
                exit: top.tail,
            },
            self.violations,
            self.max_interval,
        )
    }
}

/// Verifies that every inter-checkpoint stretch of `im` fits `eb`.
pub fn verify_placement(im: &InstrumentedModule, table: &CostTable, eb: Energy) -> PlacementReport {
    let module = &im.module;
    let cg = schematic_ir::CallGraph::new(module);
    let order = cg
        .bottom_up_order(module)
        .expect("instrumented modules are non-recursive");
    let mut flows = vec![FuncFlow::default(); module.funcs.len()];
    let mut violations = Vec::new();
    let mut max_interval = Energy::ZERO;
    for fid in order {
        let analyzer = ScopeAnalyzer::new(im, table, eb, &flows, fid);
        let (flow, mut v, mi) = analyzer.run();
        flows[fid.index()] = flow;
        violations.append(&mut v);
        max_interval = max_interval.max(mi);
    }
    PlacementReport {
        max_interval,
        violations,
        flows,
    }
}

/// Greedy repair (the engine of ROCKCLIMB's pass 2, also used as the
/// pipeline's backstop): wherever the verifier finds a stretch above the
/// budget, insert a checkpoint at the start of the offending block and
/// re-verify, until sound or `max_rounds` is exhausted.
///
/// Inserted checkpoints save/restore the block's planned VM set (plus
/// registers). Returns the number of checkpoints added.
pub fn patch_placement(
    im: &mut InstrumentedModule,
    table: &CostTable,
    eb: Energy,
    max_rounds: usize,
) -> Result<usize, crate::error::PlacementError> {
    let mut added = 0;
    let mut last: Option<(FuncId, BlockId, Energy)> = None;
    for _ in 0..max_rounds {
        let report = verify_placement(im, table, eb);
        let Some(v) = report.violations.first() else {
            return Ok(added);
        };
        let stuck = last == Some((v.func, v.block, v.energy));
        last = Some((v.func, v.block, v.energy));
        if schematic_obs::enabled() {
            // Decision log: one event per repair round, carrying the
            // violation that drives the round's action.
            schematic_obs::count("patch/rounds", 1);
            schematic_obs::event(
                "patch_round",
                [
                    ("violations", (report.violations.len() as u64).into()),
                    ("func", u64::from(v.func.0).into()),
                    ("block", v.block.to_string().into()),
                    ("energy_pj", v.energy.as_pj().into()),
                    ("detail", v.detail.as_str().into()),
                    ("stuck", u64::from(stuck).into()),
                ],
            );
        }
        if stuck {
            // Inserting checkpoints did not move the needle: the stretch
            // is fed by a structure we cannot split (a barrier's exit or
            // an unsplittable commit). Escalate: halve every conditional
            // period in the function, then demote the largest VM
            // variable feeding the commit.
            let n_blocks = im.module.func(v.func).blocks.len();
            let mut acted = false;
            for bi in 0..n_blocks {
                for inst in im.module.func_mut(v.func).blocks[bi].insts.iter_mut() {
                    if let Inst::CondCheckpoint { period, .. } = inst {
                        if *period > 1 {
                            *period = (*period / 2).max(1);
                            acted = true;
                        }
                    }
                }
            }
            if !acted {
                let vars: Vec<VarId> = im.plan.get(v.func, v.block).iter().collect();
                if let Some(&biggest) = vars.iter().max_by_key(|&&v| im.module.var(v).words) {
                    demote_var(im, v.func, biggest);
                    acted = true;
                }
            }
            if !acted {
                // Splitting the violating block cannot help when the
                // oversized stretch is accumulated upstream by a
                // checkpoint-free loop that stays *just* under the budget
                // per se but leaves no headroom for the closing commit
                // (the loop's worst exit energy flows to wherever the
                // interval finally closes). Give the fattest such loop a
                // per-iteration reset.
                acted = split_feeding_loop(im, table, eb, v.func);
            }
            if !acted {
                break;
            }
            added += 1;
            continue;
        }
        // A stretch entering a checkpointed callee can only be shortened
        // inside the callee: tighten its conditional periods, else give
        // it an entry checkpoint.
        if v.detail.contains("entering checkpointed callee") {
            let callee = im
                .module
                .func(v.func)
                .block(v.block)
                .insts
                .iter()
                .find_map(|i| match i {
                    Inst::Call { func, .. } => Some(*func),
                    _ => None,
                });
            if let Some(callee) = callee {
                let mut acted = false;
                let n_blocks = im.module.func(callee).blocks.len();
                for bi in 0..n_blocks {
                    for inst in im.module.func_mut(callee).blocks[bi].insts.iter_mut() {
                        if let Inst::CondCheckpoint { period, .. } = inst {
                            if *period > 1 {
                                *period = (*period / 2).max(1);
                                acted = true;
                            }
                        }
                    }
                }
                if !acted {
                    // Entry checkpoint: the callee's head shrinks to the
                    // checkpoint overhead itself.
                    let entry = im.module.func(callee).entry;
                    let vars: Vec<VarId> = im.plan.get(callee, entry).iter().collect();
                    let id = CheckpointId::from_usize(im.checkpoints.len());
                    im.checkpoints.push(CheckpointSpec {
                        save_vars: vars.clone(),
                        restore_vars: vars,
                        kind: schematic_emu::CheckpointKind::Plain,
                    });
                    im.module
                        .func_mut(callee)
                        .block_mut(entry)
                        .insts
                        .insert(0, Inst::Checkpoint { id });
                }
                added += 1;
                continue;
            }
        }
        // A stretch entering a loop is shortened by a checkpoint on the
        // loop's entry edges (inserting at the header would fire every
        // iteration).
        if v.detail.contains("entering loop") {
            let func = im.module.func(v.func);
            let cfg = Cfg::new(func);
            let dom = Dominators::new(&cfg);
            let forest = LoopForest::new(func, &cfg, &dom);
            if let Some(lp) = forest.loops.iter().find(|l| l.header == v.block) {
                let preds: Vec<BlockId> = cfg
                    .preds(lp.header)
                    .iter()
                    .copied()
                    .filter(|p| !lp.contains(*p))
                    .collect();
                let body = lp.clone();
                let mut inserted = false;
                for p in preds {
                    let vars: Vec<VarId> = im.plan.get(v.func, v.block).iter().collect();
                    let id = CheckpointId::from_usize(im.checkpoints.len());
                    im.checkpoints.push(CheckpointSpec {
                        save_vars: vars.clone(),
                        restore_vars: vars,
                        kind: schematic_emu::CheckpointKind::Plain,
                    });
                    let target_plan = im.plan.get(v.func, body.header);
                    let nb = im.module.func_mut(v.func).split_edge(p, body.header);
                    im.module
                        .func_mut(v.func)
                        .block_mut(nb)
                        .insts
                        .push(Inst::Checkpoint { id });
                    im.plan.set(v.func, nb, target_plan);
                    inserted = true;
                }
                if inserted {
                    added += 1;
                    continue;
                }
            }
        }
        // A loop-accumulation violation is repaired by tightening the
        // periods of the conditional checkpoints inside the loop headed
        // at the violating block, proportionally to the overshoot.
        if v.detail.contains("loop accumulation") {
            let func = im.module.func(v.func);
            let cfg = Cfg::new(func);
            let dom = Dominators::new(&cfg);
            let forest = LoopForest::new(func, &cfg, &dom);
            let body: Vec<BlockId> = forest
                .loops
                .iter()
                .find(|l| l.header == v.block)
                .map(|l| l.body.iter().copied().collect())
                .unwrap_or_else(|| (0..func.blocks.len()).map(BlockId::from_usize).collect());
            let scale = |period: u32| -> u32 {
                let p = u128::from(period) * u128::from(eb.as_pj())
                    / u128::from(v.energy.as_pj().max(1));
                (p as u32).clamp(1, period.saturating_sub(1).max(1))
            };
            let mut tightened = false;
            for bi in body {
                let insts = &mut im.module.func_mut(v.func).blocks[bi.index()].insts;
                for inst in insts.iter_mut() {
                    if let Inst::CondCheckpoint { period, .. } = inst {
                        if *period > 1 {
                            *period = scale(*period);
                            tightened = true;
                        }
                    }
                }
            }
            if tightened {
                added += 1;
                continue;
            }
        }
        // If the block's planned VM set is too expensive to persist at a
        // checkpoint, demote its largest variable to NVM everywhere in
        // the function first (correctness requires every dirty VM
        // variable to be saved, so the set itself must shrink).
        let vars: Vec<VarId> = im.plan.get(v.func, v.block).iter().collect();
        let words: usize = vars.iter().map(|&v| im.module.var(v).words).sum();
        let commit = table.checkpoint_commit_cost(words).energy;
        if commit * 2 > eb && !vars.is_empty() {
            let biggest = *vars
                .iter()
                .max_by_key(|&&v| im.module.var(v).words)
                .expect("non-empty");
            demote_var(im, v.func, biggest);
            added += 1;
            continue;
        }
        // Otherwise insert a plain checkpoint into the block, at the
        // midpoint of its longest checkpoint-free instruction gap: that
        // shrinks head stretches, closing intervals and final intervals
        // alike, and repeated rounds converge like binary splitting on
        // fat, unsplit blocks (where start-of-block insertion would
        // loop forever once a checkpoint already sits at position 0).
        // A block with no gap at all (e.g. a dedicated conditional-
        // checkpoint block on a back edge) cannot absorb a split: the
        // oversized stretch lives in its predecessors, so split those.
        let mut acted = insert_midgap_checkpoint(im, v.func, v.block);
        if !acted {
            let cfg = Cfg::new(im.module.func(v.func));
            for p in cfg.preds(v.block).to_vec() {
                acted |= insert_midgap_checkpoint(im, v.func, p);
            }
        }
        if !acted {
            break;
        }
        added += 1;
    }
    let report = verify_placement(im, table, eb);
    if report.is_sound() {
        Ok(added)
    } else {
        Err(crate::error::PlacementError::Unsound {
            detail: report.violations[0].detail.clone(),
        })
    }
}

/// Inserts an every-`k`-iterations [`Inst::CondCheckpoint`] into the
/// body of the checkpoint-free loop with the largest worst-case
/// accumulation (per-iteration body energy × trip bound) anywhere in
/// `fid`. Returns `false` when every loop already resets (or the chosen
/// body block cannot be split).
///
/// This is the stuck-escalation of [`patch_placement`]: a stretch that
/// closes over budget can be fed by a loop whose own accumulation sits
/// *below* `EB` — never flagged as a loop violation, yet leaving no
/// headroom for the segments and commit that close the interval
/// downstream. The only placement that shrinks such a stretch is a
/// reset inside the feeding loop itself. An unconditional checkpoint
/// there is overkill, though: the loop accumulates only `per_iter` per
/// round, so resetting every `k = max(1, (EB/2) / per_iter)` iterations
/// caps the carried stretch at roughly half the budget (leaving the
/// other half for the downstream commit) while paying the save cost
/// `k`× less often. If half-budget spacing is still too coarse, the
/// stuck-escalation's period-halving pass tightens this same
/// checkpoint on later rounds.
fn split_feeding_loop(
    im: &mut InstrumentedModule,
    table: &CostTable,
    eb: Energy,
    fid: FuncId,
) -> bool {
    let func = im.module.func(fid);
    let cfg = Cfg::new(func);
    let dom = Dominators::new(&cfg);
    let forest = LoopForest::new(func, &cfg, &dom);
    let mut best: Option<(Energy, Energy, BlockId)> = None;
    for lp in &forest.loops {
        let resets = lp
            .body
            .iter()
            .any(|&b| func.block(b).insts.iter().any(Inst::is_checkpoint));
        if resets {
            continue;
        }
        let per_iter = lp
            .body
            .iter()
            .map(|&b| {
                let alloc = im.plan.get(fid, b);
                let mem_of = |v: VarId| {
                    if alloc.contains(v) && !im.module.var(v).pinned_nvm {
                        MemClass::Vm
                    } else {
                        MemClass::Nvm
                    }
                };
                func.block(b)
                    .insts
                    .iter()
                    .map(|i| table.inst_cost(i, mem_of).energy)
                    .fold(Energy::ZERO, |a, e| a + e)
                    + table.term_cost(&func.block(b).term).energy
            })
            .fold(Energy::ZERO, |a, e| a + e);
        let iters = lp.max_iters.unwrap_or(u64::MAX).max(1);
        let acc = per_iter.saturating_mul(iters);
        // Split the body block with the most instructions — the widest
        // gap, and never a bare latch or dedicated-checkpoint block.
        let target = lp
            .body
            .iter()
            .copied()
            .max_by_key(|&b| func.block(b).insts.len())
            .unwrap_or(lp.header);
        if best.is_none_or(|(e, _, _)| acc > e) {
            best = Some((acc, per_iter, target));
        }
    }
    match best {
        Some((_, per_iter, target)) => {
            let k = ((eb.0 / 2) / per_iter.0.max(1)).clamp(1, u64::from(u32::MAX)) as u32;
            insert_midgap(im, fid, target, Some(k))
        }
        None => false,
    }
}

/// Inserts a plain checkpoint at the midpoint of the longest
/// checkpoint-free instruction gap of `block`, saving/restoring the
/// block's planned VM set (plus registers). Returns `false` when the
/// block has no instruction to split around (nothing but checkpoints,
/// or empty), in which case nothing is inserted.
fn insert_midgap_checkpoint(im: &mut InstrumentedModule, fid: FuncId, block: BlockId) -> bool {
    insert_midgap(im, fid, block, None)
}

/// [`insert_midgap_checkpoint`] generalized over the checkpoint kind:
/// `period` of `Some(k)` inserts an every-`k`-firings
/// [`Inst::CondCheckpoint`] instead of an unconditional one.
fn insert_midgap(
    im: &mut InstrumentedModule,
    fid: FuncId,
    block: BlockId,
    period: Option<u32>,
) -> bool {
    let (gap, pos) = {
        let insts = &im.module.func(fid).block(block).insts;
        let mut best = (0usize, 0usize); // (gap length, midpoint)
        let mut prev = 0usize;
        for (p, inst) in insts.iter().enumerate() {
            if inst.is_checkpoint() {
                let gap = p - prev;
                if gap > best.0 {
                    best = (gap, prev + gap / 2);
                }
                prev = p + 1;
            }
        }
        let gap = insts.len() - prev;
        if gap > best.0 {
            best = (gap, prev + gap / 2);
        }
        best
    };
    if gap == 0 {
        return false;
    }
    let vars: Vec<VarId> = im.plan.get(fid, block).iter().collect();
    let id = CheckpointId::from_usize(im.checkpoints.len());
    im.checkpoints.push(CheckpointSpec {
        save_vars: vars.clone(),
        restore_vars: vars,
        kind: schematic_emu::CheckpointKind::Plain,
    });
    let inst = match period {
        Some(period) => Inst::CondCheckpoint { id, period },
        None => Inst::Checkpoint { id },
    };
    im.module
        .func_mut(fid)
        .block_mut(block)
        .insts
        .insert(pos, inst);
    true
}

/// Removes `var` from the function's allocation plan, all checkpoint
/// specs and the boot set — the variable lives in NVM from now on.
fn demote_var(im: &mut InstrumentedModule, func: FuncId, var: VarId) {
    let n_blocks = im.module.func(func).blocks.len();
    for bi in 0..n_blocks {
        let b = BlockId::from_usize(bi);
        let mut set = im.plan.get(func, b);
        if set.remove(var) {
            im.plan.set(func, b, set);
        }
    }
    for spec in &mut im.checkpoints {
        spec.save_vars.retain(|&x| x != var);
        spec.restore_vars.retain(|&x| x != var);
    }
    im.boot_restore.retain(|&x| x != var);
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic_emu::{AllocationPlan, FailurePolicy};
    use schematic_ir::{CmpOp, FunctionBuilder, ModuleBuilder, Variable};

    fn straight_module(pairs: usize) -> Module {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x"));
        let mut f = FunctionBuilder::new("main", 0);
        for _ in 0..pairs {
            let v = f.load_scalar(x);
            f.store_scalar(x, v);
        }
        f.ret(None);
        let main = mb.func(f.finish());
        mb.finish(main)
    }

    fn bare(m: Module) -> InstrumentedModule {
        InstrumentedModule {
            technique: "test".into(),
            plan: AllocationPlan::all_nvm(&m),
            module: m,
            checkpoints: vec![],
            policy: FailurePolicy::WaitRecharge,
            boot_restore: vec![],
        }
    }

    #[test]
    fn small_program_in_budget_is_sound() {
        let im = bare(straight_module(5));
        let r = verify_placement(&im, &CostTable::msp430fr5969(), Energy::from_uj(4));
        assert!(r.is_sound(), "{:?}", r.violations);
        assert!(r.max_interval > Energy::ZERO);
        assert!(!r.flows[0].resets);
        assert_eq!(r.flows[0].entry, r.flows[0].exit);
    }

    #[test]
    fn oversized_stretch_is_flagged() {
        let im = bare(straight_module(100)); // ≈ 290 kpJ all-NVM
        let r = verify_placement(&im, &CostTable::msp430fr5969(), Energy::from_pj(50_000));
        assert!(!r.is_sound());
        assert!(r.max_interval > Energy::from_pj(50_000));
    }

    #[test]
    fn checkpoint_resets_the_stretch() {
        let mut m = straight_module(300);
        // Insert a checkpoint halfway.
        let mid = m.funcs[0].blocks[0].insts.len() / 2;
        m.funcs[0].blocks[0].insts.insert(
            mid,
            Inst::Checkpoint {
                id: CheckpointId(0),
            },
        );
        let mut im = bare(m);
        im.checkpoints.push(CheckpointSpec::registers_only());
        let table = CostTable::msp430fr5969();
        let full =
            verify_placement(&bare(straight_module(300)), &table, Energy::from_uj(1)).max_interval;
        let halved = verify_placement(&im, &table, Energy::from_uj(1)).max_interval;
        assert!(halved < full);
        let r = verify_placement(&im, &table, Energy::from_uj(1));
        assert!(r.flows[0].resets);
    }

    #[test]
    fn unbounded_loop_accumulation_is_flagged() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x"));
        let mut f = FunctionBuilder::new("main", 0);
        let h = f.new_block("h");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        let i = f.copy(0);
        f.br(h);
        f.switch_to(h);
        f.set_max_iters(h, 1000);
        let c = f.cmp(CmpOp::UGe, i, 1000);
        f.cond_br(c, exit, body);
        f.switch_to(body);
        for _ in 0..5 {
            let v = f.load_scalar(x);
            f.store_scalar(x, v);
        }
        let i2 = f.bin(schematic_ir::BinOp::Add, i, 1);
        f.copy_to(i, i2);
        f.br(h);
        f.switch_to(exit);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = bare(mb.finish(main));
        // One iteration fits easily, 1000 do not.
        let r = verify_placement(&im, &CostTable::msp430fr5969(), Energy::from_pj(100_000));
        assert!(!r.is_sound());
        assert!(r
            .violations
            .iter()
            .any(|v| v.detail.contains("loop accumulation")));
    }

    #[test]
    fn entry_tail_after_last_checkpoint_is_checked() {
        // checkpoint, then a long stretch to `ret`: the final interval
        // must be flagged even though no later checkpoint closes it.
        let mut m = straight_module(300);
        m.funcs[0].blocks[0].insts.insert(
            1,
            Inst::Checkpoint {
                id: CheckpointId(0),
            },
        );
        let mut im = bare(m);
        im.checkpoints.push(CheckpointSpec::registers_only());
        let r = verify_placement(&im, &CostTable::msp430fr5969(), Energy::from_pj(200_000));
        assert!(!r.is_sound());
        assert!(
            r.violations
                .iter()
                .any(|v| v.detail.contains("final interval")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn unannotated_loop_is_conservatively_unbounded() {
        // A loop without `max_iters` and without a per-iteration reset
        // must be rejected: its accumulation has no static bound.
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x"));
        let mut f = FunctionBuilder::new("main", 0);
        let h = f.new_block("h");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        let i = f.copy(0);
        f.br(h);
        f.switch_to(h);
        // no set_max_iters on purpose
        let c = f.cmp(CmpOp::UGe, i, 10);
        f.cond_br(c, exit, body);
        f.switch_to(body);
        let v = f.load_scalar(x);
        f.store_scalar(x, v);
        let i2 = f.bin(schematic_ir::BinOp::Add, i, 1);
        f.copy_to(i, i2);
        f.br(h);
        f.switch_to(exit);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = bare(mb.finish(main));
        let r = verify_placement(&im, &CostTable::msp430fr5969(), Energy::from_uj(4));
        assert!(!r.is_sound());
        assert!(r
            .violations
            .iter()
            .any(|v| v.detail.contains("loop accumulation")));
    }

    #[test]
    fn patch_fixes_oversized_stretches() {
        let mut im = bare(straight_module(300));
        let table = CostTable::msp430fr5969();
        let eb = Energy::from_pj(600_000);
        let added = patch_placement(&mut im, &table, eb, 100).unwrap();
        assert!(added > 0);
        let r = verify_placement(&im, &table, eb);
        assert!(r.is_sound(), "{:?}", r.violations);
        // Program still computes.
        let out = schematic_emu::run(&im, schematic_emu::RunConfig::default()).unwrap();
        assert!(out.completed());
    }

    #[test]
    fn feeding_loop_split_emits_periodic_cond_checkpoint() {
        // A checkpoint-free loop that accumulates under EB per
        // iteration: split_feeding_loop must give it an every-k
        // conditional reset, with k sized so ~k iterations stay within
        // half the budget (not an unconditional checkpoint, which
        // would pay the save cost every round).
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x"));
        let mut f = FunctionBuilder::new("main", 0);
        let h = f.new_block("h");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        let i = f.copy(0);
        f.br(h);
        f.switch_to(h);
        f.set_max_iters(h, 200);
        let c = f.cmp(CmpOp::UGe, i, 200);
        f.cond_br(c, exit, body);
        f.switch_to(body);
        for _ in 0..4 {
            let v = f.load_scalar(x);
            f.store_scalar(x, v);
        }
        let i2 = f.bin(schematic_ir::BinOp::Add, i, 1);
        f.copy_to(i, i2);
        f.br(h);
        f.switch_to(exit);
        f.ret(None);
        let main = mb.func(f.finish());
        let mut im = bare(mb.finish(main));
        let table = CostTable::msp430fr5969();
        let eb = Energy::from_uj(1);
        assert!(split_feeding_loop(&mut im, &table, eb, FuncId(0)));
        let periods: Vec<u32> = im.module.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|inst| match inst {
                Inst::CondCheckpoint { period, .. } => Some(*period),
                _ => None,
            })
            .collect();
        assert_eq!(periods.len(), 1, "exactly one conditional reset");
        assert!(periods[0] > 1, "period {} should amortize", periods[0]);
        // The inserted spec exists and the program still runs.
        assert_eq!(im.checkpoints.len(), 1);
        let out = schematic_emu::run(&im, schematic_emu::RunConfig::default()).unwrap();
        assert!(out.completed());
    }

    #[test]
    fn callee_flows_feed_callers() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x"));
        let mut leaf = FunctionBuilder::new("leaf", 0);
        for _ in 0..10 {
            let v = leaf.load_scalar(x);
            leaf.store_scalar(x, v);
        }
        leaf.ret(None);
        let leaf = mb.func(leaf.finish());
        let mut f = FunctionBuilder::new("main", 0);
        f.call_void(leaf, vec![]);
        f.ret(None);
        let main = mb.func(f.finish());
        let im = bare(mb.finish(main));
        let r = verify_placement(&im, &CostTable::msp430fr5969(), Energy::from_uj(4));
        assert!(r.is_sound());
        // Main's entry flow includes the callee's body.
        assert!(r.flows[1].entry > r.flows[0].entry);
    }
}

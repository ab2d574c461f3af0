//! Function-level analysis: regions, path selection, commitment of
//! decisions, loop handling (Algorithm 1), and the energy-flow analysis
//! used for summaries and the repair pass.
//!
//! A **region** is either a function's top level or one loop's body;
//! within a region, already-analyzed inner loops are collapsed into
//! single items (`Item`). Regions are analyzed one path at
//! a time, most frequent first (§III-A.3), each path placing checkpoints
//! and allocations via the RCG; decisions are final and inherited by
//! later paths.

use crate::ctx::{FuncCtx, Item, ItemPath};
use crate::error::{BackEdgeCheckpoint, EdgeDecision, PlacementError};
use crate::profile::Profile;
use crate::rcg::{place_on_path, PathEnv};
use crate::summary::{FuncSummary, LoopSummary};
use schematic_energy::Energy;
use schematic_ir::{AccessCount, BlockId, Edge, VarId, VarSet};
use std::collections::{HashMap, VecDeque};

/// Cap on structurally enumerated coverage paths per region.
const MAX_STRUCTURAL_PATHS: usize = 256;

/// Which region of a function is being analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegionKind {
    /// The function's top level (loops collapsed).
    TopLevel,
    /// The body of one loop (inner loops collapsed, back-edges removed).
    LoopBody(usize),
}

// ---------------------------------------------------------------------------
// Region structure helpers
// ---------------------------------------------------------------------------

impl<'a> FuncCtx<'a> {
    fn region_contains(&self, kind: RegionKind, b: BlockId) -> bool {
        match kind {
            RegionKind::TopLevel => true,
            RegionKind::LoopBody(l) => self.forest.loops[l].contains(b),
        }
    }

    /// The item representing block `b` at the level of `kind`: either
    /// the block itself or the outermost sub-loop (strictly inside the
    /// region) containing it.
    pub(crate) fn item_of(&self, kind: RegionKind, b: BlockId) -> Item {
        let scope = match kind {
            RegionKind::TopLevel => None,
            RegionKind::LoopBody(l) => Some(l),
        };
        let mut li = self.forest.innermost_of(b);
        let mut chosen = None;
        while let Some(i) = li {
            if Some(i) == scope {
                break;
            }
            chosen = Some(i);
            li = self.forest.loops[i].parent;
        }
        match chosen {
            Some(i) => Item::Loop(i),
            None => Item::Block(b),
        }
    }

    /// Whether `from -> to` is a back-edge of the region's own loop.
    fn is_region_back_edge(&self, kind: RegionKind, from: BlockId, to: BlockId) -> bool {
        match kind {
            RegionKind::TopLevel => false,
            RegionKind::LoopBody(l) => {
                let lp = &self.forest.loops[l];
                to == lp.header && lp.latches.contains(&from)
            }
        }
    }

    /// Successor items of `item` in the region's item graph, with the
    /// underlying CFG edge.
    fn item_succs(&self, kind: RegionKind, item: Item) -> Vec<(Item, Edge)> {
        let blocks: Vec<BlockId> = match item {
            Item::Block(b) => vec![b],
            Item::Loop(l) => self.forest.loops[l].body.iter().copied().collect(),
        };
        let mut out = Vec::new();
        for b in blocks {
            for &s in self.cfg.succs(b) {
                if !self.region_contains(kind, s) {
                    continue;
                }
                if self.is_region_back_edge(kind, b, s) {
                    continue;
                }
                let target = self.item_of(kind, s);
                if target == item {
                    continue; // internal edge of a collapsed loop
                }
                let e = Edge::new(b, s);
                if !out.contains(&(target, e)) {
                    out.push((target, e));
                }
            }
        }
        out
    }

    fn region_entry_item(&self, kind: RegionKind) -> Item {
        match kind {
            RegionKind::TopLevel => self.item_of(kind, self.func().entry),
            RegionKind::LoopBody(l) => Item::Block(self.forest.loops[l].header),
        }
    }

    /// Whether a path may end at `item` in this region.
    fn is_region_exit(&self, kind: RegionKind, item: Item) -> bool {
        let blocks: Vec<BlockId> = match item {
            Item::Block(b) => vec![b],
            Item::Loop(l) => self.forest.loops[l].body.iter().copied().collect(),
        };
        match kind {
            RegionKind::TopLevel => blocks.iter().any(|&b| self.func().block(b).term.is_ret()),
            RegionKind::LoopBody(l) => {
                let lp = &self.forest.loops[l];
                blocks.iter().any(|&b| {
                    lp.latches.contains(&b) || self.cfg.succs(b).iter().any(|s| !lp.contains(*s))
                })
            }
        }
    }

    /// Collapses a block path into an item path, or `None` when the path
    /// does not start at the region entry.
    fn collapse_path(&self, kind: RegionKind, blocks: &[BlockId]) -> Option<ItemPath> {
        // Longest prefix inside the region.
        let prefix: Vec<BlockId> = blocks
            .iter()
            .copied()
            .take_while(|&b| self.region_contains(kind, b))
            .collect();
        if prefix.is_empty() {
            return None;
        }
        let mut items = Vec::new();
        let mut links = Vec::new();
        for (i, &b) in prefix.iter().enumerate() {
            let item = self.item_of(kind, b);
            if items.last() == Some(&item) {
                continue; // still inside the same collapsed loop
            }
            if !items.is_empty() {
                links.push(Edge::new(prefix[i - 1], b));
            }
            items.push(item);
        }
        if items[0] != self.region_entry_item(kind) {
            return None;
        }
        Some(ItemPath { items, links })
    }

    /// Finds a structural path entry → `through` → exit in the item
    /// graph (BFS both ways).
    fn cover_item(&self, kind: RegionKind, through: Item) -> Option<ItemPath> {
        let entry = self.region_entry_item(kind);
        let to_target = self.bfs_path(kind, entry, |i| i == through)?;
        let onward = self.bfs_path(kind, through, |i| self.is_region_exit(kind, i))?;
        // Join, dropping the duplicated `through`.
        let mut items = to_target.items;
        let mut links = to_target.links;
        links.extend(onward.links);
        items.extend(onward.items.into_iter().skip(1));
        Some(ItemPath { items, links })
    }

    fn bfs_path(
        &self,
        kind: RegionKind,
        from: Item,
        is_goal: impl Fn(Item) -> bool,
    ) -> Option<ItemPath> {
        let mut prev: HashMap<Item, (Item, Edge)> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        let mut goal = None;
        if is_goal(from) {
            goal = Some(from);
        }
        while goal.is_none() {
            let cur = queue.pop_front()?;
            for (next, edge) in self.item_succs(kind, cur) {
                if next != from && !prev.contains_key(&next) {
                    prev.insert(next, (cur, edge));
                    if is_goal(next) {
                        goal = Some(next);
                        break;
                    }
                    queue.push_back(next);
                }
            }
        }
        // Reconstruct.
        let mut items = vec![goal?];
        let mut links = Vec::new();
        let mut cur = goal?;
        while cur != from {
            let (p, e) = prev[&cur];
            links.push(e);
            items.push(p);
            cur = p;
        }
        items.reverse();
        links.reverse();
        Some(ItemPath { items, links })
    }
}

// ---------------------------------------------------------------------------
// Region analysis
// ---------------------------------------------------------------------------

fn commit(ctx: &mut FuncCtx<'_>, path: &ItemPath, placed: &crate::rcg::PlacedPath) {
    for &idx in &placed.enabled_links {
        ctx.edges.insert(path.links[idx], EdgeDecision::Enabled);
    }
    for &idx in &placed.disabled_links {
        ctx.edges
            .entry(path.links[idx])
            .or_insert(EdgeDecision::Disabled);
    }
    let eb = ctx.config.eb;
    for interval in &placed.intervals {
        for &i in &interval.items {
            if let Item::Block(b) = path.items[i] {
                if ctx.alloc[b.index()].is_none() {
                    ctx.alloc[b.index()] = Some(interval.alloc.clone());
                }
            }
        }
        for &(i, consumed) in &interval.consumed_after {
            if let Item::Block(b) = path.items[i] {
                let left = eb.saturating_sub(consumed);
                let slot = &mut ctx.e_left[b.index()];
                *slot = Some(slot.map_or(left, |old| old.min(left)));
            }
        }
        for &(i, needed) in &interval.needed_from {
            if let Item::Block(b) = path.items[i] {
                let slot = &mut ctx.e_to_leave[b.index()];
                *slot = Some(slot.map_or(needed, |old| old.max(needed)));
            }
        }
    }
}

fn path_is_novel(ctx: &FuncCtx<'_>, path: &ItemPath) -> bool {
    let new_block = path.items.iter().any(|&it| match it {
        Item::Block(b) => ctx.alloc[b.index()].is_none(),
        Item::Loop(_) => false,
    });
    let new_edge = path
        .links
        .iter()
        .any(|&e| ctx.edge_decision(e) == EdgeDecision::Undecided);
    new_block || new_edge
}

pub(crate) fn analyze_region(
    ctx: &mut FuncCtx<'_>,
    kind: RegionKind,
    profile: &Profile,
) -> Result<(), PlacementError> {
    let env = PathEnv {
        boot: kind == RegionKind::TopLevel && ctx.module.entry == Some(ctx.fid),
        end_demand: Energy::ZERO,
        access_scale: match kind {
            RegionKind::TopLevel => 1,
            // Cumulative trip count over the loop and its ancestors: the
            // gain of keeping a variable in VM accrues every dynamic
            // execution of the body, while the save/restore overhead is
            // paid once per conditional-checkpoint period (feasibility is
            // checked separately, so optimism here cannot break EB).
            RegionKind::LoopBody(l) => {
                let mut scale: u64 = 1;
                let mut cur = Some(l);
                while let Some(i) = cur {
                    scale = scale.saturating_mul(ctx.forest.loops[i].max_iters.unwrap_or(1).max(1));
                    cur = ctx.forest.loops[i].parent;
                }
                scale.clamp(1, 1 << 20)
            }
        },
        loop_boundary: match kind {
            RegionKind::TopLevel => None,
            RegionKind::LoopBody(l) => {
                let lp = &ctx.forest.loops[l];
                lp.latches
                    .first()
                    .map(|&latch| (lp.header, Edge::new(latch, lp.header)))
            }
        },
        callee_boundary: kind == RegionKind::TopLevel && ctx.module.entry != Some(ctx.fid),
    };

    // 1. Profiled paths, most frequent first.
    let profiled: Vec<ItemPath> = profile
        .paths(ctx.fid)
        .iter()
        .filter_map(|(p, _)| ctx.collapse_path(kind, p.blocks()))
        .collect();
    // 2. Structural coverage for never-executed blocks (§III-A.3).
    let mut all_paths = profiled;
    let blocks: Vec<BlockId> = (0..ctx.func().blocks.len())
        .map(BlockId::from_usize)
        .collect();
    let mut budget = MAX_STRUCTURAL_PATHS;
    for b in blocks {
        if !ctx.region_contains(kind, b) {
            continue;
        }
        if ctx.item_of(kind, b) != Item::Block(b) {
            continue; // inside an analyzed sub-loop
        }
        if ctx.alloc[b.index()].is_some() {
            continue;
        }
        let covered = all_paths.iter().any(|p| p.items.contains(&Item::Block(b)));
        if covered || budget == 0 {
            continue;
        }
        if let Some(p) = ctx.cover_item(kind, Item::Block(b)) {
            all_paths.push(p);
            budget -= 1;
        }
    }

    for path in &all_paths {
        if !path_is_novel(ctx, path) {
            continue;
        }
        match place_on_path(ctx, path, env) {
            Some(placed) => commit(ctx, path, &placed),
            None => {
                return Err(PlacementError::NoFeasiblePlacement {
                    func: ctx.fid,
                    at: match path.items[0] {
                        Item::Block(b) => b,
                        Item::Loop(l) => ctx.forest.loops[l].header,
                    },
                })
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Loop handling (Algorithm 1)
// ---------------------------------------------------------------------------

/// The effective allocation of a block, falling back to the enclosing
/// analyzed loop's allocation.
fn effective_alloc(ctx: &FuncCtx<'_>, b: BlockId) -> VarSet {
    if let Some(a) = &ctx.alloc[b.index()] {
        return a.clone();
    }
    if let Some(li) = ctx.forest.innermost_of(b) {
        if let Some(s) = &ctx.loop_sums[li] {
            return s.alloc.clone();
        }
    }
    VarSet::empty()
}

/// Does the loop body contain any checkpoint (enabled edge, barrier
/// item, or a child loop with checkpoints)?
fn loop_has_internal_cp(ctx: &FuncCtx<'_>, l: usize) -> bool {
    let lp = &ctx.forest.loops[l];
    for &b in &lp.body {
        for &s in ctx.cfg.succs(b) {
            if lp.contains(s)
                && !ctx.is_region_back_edge(RegionKind::LoopBody(l), b, s)
                && ctx.edge_decision(Edge::new(b, s)) == EdgeDecision::Enabled
            {
                return true;
            }
        }
        if ctx.is_barrier(ctx.item_of(RegionKind::LoopBody(l), b))
            && ctx.item_of(RegionKind::LoopBody(l), b) == Item::Block(b)
        {
            return true;
        }
    }
    // Child loops with checkpoints.
    ctx.forest.loops[l].children.iter().any(|&c| {
        ctx.loop_sums[c]
            .as_ref()
            .map(|s| s.has_checkpoint)
            .unwrap_or(false)
    })
}

/// Worst-case energy of one loop iteration (header to latch, inner
/// loops at their summarized totals), under the committed allocations.
fn worst_iteration(ctx: &FuncCtx<'_>, l: usize) -> Energy {
    // Longest path in the item DAG of the loop body.
    let kind = RegionKind::LoopBody(l);
    let entry = ctx.region_entry_item(kind);
    let mut memo: HashMap<Item, Energy> = HashMap::new();
    fn go(
        ctx: &FuncCtx<'_>,
        kind: RegionKind,
        item: Item,
        memo: &mut HashMap<Item, Energy>,
    ) -> Energy {
        if let Some(&e) = memo.get(&item) {
            return e;
        }
        let own = match item {
            Item::Block(b) => {
                let alloc = effective_alloc(ctx, b);
                if ctx.is_barrier(item) {
                    let bb = ctx.barrier_bounds(item);
                    bb.entry + bb.exit
                } else {
                    ctx.block_cost(b, &alloc)
                }
            }
            Item::Loop(li) => {
                let s = ctx.loop_sums[li].as_ref().expect("child analyzed first");
                if s.has_checkpoint {
                    s.entry_energy + s.exit_energy
                } else {
                    s.total
                }
            }
        };
        let best = ctx
            .item_succs(kind, item)
            .into_iter()
            .map(|(next, _)| go(ctx, kind, next, memo))
            .max()
            .unwrap_or(Energy::ZERO);
        let total = own + best;
        memo.insert(item, total);
        total
    }
    go(ctx, kind, entry, &mut memo)
}

pub(crate) fn analyze_loop(
    ctx: &mut FuncCtx<'_>,
    l: usize,
    profile: &Profile,
) -> Result<(), PlacementError> {
    // Step 1: analyze the body with the back-edge removed.
    analyze_region(ctx, RegionKind::LoopBody(l), profile)?;

    let lp = ctx.forest.loops[l].clone();
    let header_alloc = effective_alloc(ctx, lp.header);
    let internal_cp = loop_has_internal_cp(ctx, l);
    let max_iters = lp.max_iters.unwrap_or(1).max(1);

    // Step 2: decide the back-edge checkpoint. Algorithm 1 places a
    // per-iteration migration checkpoint when the latch and header
    // allocations differ; when the latch is a plain block we instead
    // unify its allocation with the header's (a strictly cheaper way to
    // satisfy "allocation changes only at checkpoints" — the runtime
    // reconciles any residual dirty state honestly).
    let mut backedge_period = None;
    let mut alloc_mismatch = false;
    for &latch in &lp.latches {
        if effective_alloc(ctx, latch) != header_alloc {
            if ctx.forest.innermost_of(latch) == Some(l) {
                ctx.alloc[latch.index()] = Some(header_alloc.clone());
            } else {
                alloc_mismatch = true;
            }
        }
    }
    // The unification above may have changed latch allocations, so the
    // per-iteration energy must be measured only now.
    let iter_energy = worst_iteration(ctx, l);
    if alloc_mismatch {
        backedge_period = Some(1);
    } else if !internal_cp {
        // numit = floor(EB / Eloop), with the checkpoint's own save and
        // resume costs carved out of the budget for soundness.
        let save_words = ctx.set_words(&header_alloc.intersection(&ctx.written));
        let restore_words = ctx.set_words(&header_alloc);
        let overhead = ctx.table.checkpoint_commit_cost(save_words).energy
            + ctx.table.checkpoint_resume_cost(restore_words).energy;
        let budget = ctx.config.eb.saturating_sub(overhead);
        // Each iteration additionally pays the conditional checkpoint's
        // counter check and the split block's branch.
        let iter_eff = iter_energy
            + ctx.table.cond_check.energy
            + Energy::from_pj(ctx.table.cpu_pj_per_cycle) * ctx.table.branch_cycles;
        let numit = budget.div_floor(iter_eff).unwrap_or(u64::MAX).max(1);
        if numit <= max_iters {
            backedge_period = Some(u32::try_from(numit.min(u32::MAX as u64)).expect("clamped"));
        }
    }
    if let Some(period) = backedge_period {
        for &latch in &lp.latches {
            ctx.backedge_cps.push(BackEdgeCheckpoint {
                edge: Edge::new(latch, lp.header),
                period,
            });
        }
    }

    // Step 3: summarize the loop for the enclosing region.
    let has_checkpoint = internal_cp || backedge_period.is_some();
    let trips = max_iters;
    let mut access: HashMap<VarId, AccessCount> = HashMap::new();
    for &b in &lp.body {
        let item = ctx.item_of(RegionKind::LoopBody(l), b);
        match item {
            Item::Block(bb) if bb == b => {
                for (v, c) in ctx.item_access(item) {
                    let e = access.entry(v).or_default();
                    e.reads += c.reads.saturating_mul(trips);
                    e.writes += c.writes.saturating_mul(trips);
                }
            }
            Item::Loop(child) if ctx.forest.loops[child].header == b => {
                // Child loop counted once (its access counts are already
                // trip-scaled); scale by this loop's trips.
                if let Some(s) = &ctx.loop_sums[child] {
                    for (&v, &c) in &s.access {
                        let e = access.entry(v).or_default();
                        e.reads += c.reads.saturating_mul(trips);
                        e.writes += c.writes.saturating_mul(trips);
                    }
                }
            }
            _ => {}
        }
    }

    let vm_bytes = lp
        .body
        .iter()
        .map(|&b| {
            let own = ctx.set_bytes(&effective_alloc(ctx, b));
            own + ctx.item_reserved_bytes(Item::Block(b))
        })
        .max()
        .unwrap_or(0);

    let (entry_energy, exit_energy, total) = if !has_checkpoint {
        let t = iter_energy.saturating_mul(trips.saturating_add(1));
        (t, t, t)
    } else if internal_cp {
        // Internal checkpoints: the stretch entering the loop runs until
        // the first reset inside an iteration; the stretch leaving runs
        // from the last reset to the latch/exit. (A back-edge migration
        // checkpoint may coexist; the internal resets dominate.)
        let (head, tail, _) = region_head_tail(ctx, RegionKind::LoopBody(l));
        (head, tail, iter_energy)
    } else {
        let period = backedge_period.expect("checkpointed loop without internal cps");
        let k_iter = iter_energy.saturating_mul(u64::from(period));
        // The stretch entering the loop ends when the conditional
        // checkpoint first fires — commit included; the stretch leaving
        // starts at its resume.
        let save_words = ctx.set_words(&header_alloc.intersection(&ctx.written));
        let restore_words = ctx.set_words(&header_alloc);
        let commit = ctx.table.checkpoint_commit_cost(save_words).energy;
        let resume = ctx.table.checkpoint_resume_cost(restore_words).energy;
        (k_iter + commit, k_iter + resume, k_iter)
    };

    ctx.loop_sums[l] = Some(LoopSummary {
        has_checkpoint,
        entry_energy,
        exit_energy,
        total,
        alloc: header_alloc,
        vm_bytes,
        access,
        max_iters: trips,
        backedge_period,
    });
    Ok(())
}

/// Forward flow over a region's item DAG: worst energy from region
/// entry to the first reset (`head`) and from the last reset to any
/// region exit (`tail`). Resets are enabled checkpoint edges and
/// barrier/checkpointed items. With no resets, `head == tail ==` the
/// region's single-segment worst cost.
pub(crate) fn region_head_tail(ctx: &FuncCtx<'_>, kind: RegionKind) -> (Energy, Energy, bool) {
    let entry = ctx.region_entry_item(kind);
    let order = topo_items(ctx, kind, entry);
    // (B = energy since last reset, A = Some(energy) while a reset-free
    // path from the region entry exists)
    let mut in_b: HashMap<Item, Energy> = HashMap::new();
    let mut in_a: HashMap<Item, Option<Energy>> = HashMap::new();
    in_b.insert(entry, Energy::ZERO);
    in_a.insert(entry, Some(Energy::ZERO));
    let mut head = Energy::ZERO;
    let mut tail = Energy::ZERO;
    let mut any_reset = false;

    for &item in &order {
        let b = in_b.get(&item).copied().unwrap_or(Energy::ZERO);
        let a = in_a.get(&item).copied().unwrap_or(None);
        let (out_b, out_a) = if item_resets(ctx, item) {
            any_reset = true;
            if let Some(a) = a {
                head = head.max(a + item_entry_cost(ctx, item));
            }
            let exit = match item {
                Item::Loop(l) => ctx.loop_sums[l].as_ref().expect("analyzed").exit_energy,
                Item::Block(_) => ctx.barrier_bounds(item).exit,
            };
            (exit, None)
        } else {
            let c = item_flow_cost(ctx, item);
            (b + c, a.map(|x| x + c))
        };

        if ctx.is_region_exit(kind, item) {
            tail = tail.max(out_b);
            if let Some(a) = out_a {
                head = head.max(a);
            }
        }

        for (succ, edge) in ctx.item_succs(kind, item) {
            let (nb, na) = if ctx.edge_decision(edge) == EdgeDecision::Enabled {
                any_reset = true;
                if let Some(a) = out_a {
                    let from_alloc = match item {
                        Item::Block(bb) => ctx.alloc[bb.index()].clone().unwrap_or_default(),
                        Item::Loop(l) => ctx.loop_sums[l]
                            .as_ref()
                            .map(|s| s.alloc.clone())
                            .unwrap_or_default(),
                    };
                    let words = ctx.set_words(&ctx.save_set(&from_alloc, edge));
                    head = head.max(a + ctx.table.checkpoint_commit_cost(words).energy);
                }
                (ctx.table.checkpoint_resume_cost(0).energy, None)
            } else {
                (out_b, out_a)
            };
            let eb = in_b.entry(succ).or_insert(Energy::ZERO);
            *eb = (*eb).max(nb);
            let ea = in_a.entry(succ).or_insert(None);
            *ea = match (*ea, na) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (Some(x), None) => Some(x),
                (None, Some(y)) => Some(y),
                (None, None) => None,
            };
        }
    }
    if !any_reset {
        head = head.max(tail);
        tail = head;
    }
    (head, tail, any_reset)
}

// ---------------------------------------------------------------------------
// Whole-function driver and summary
// ---------------------------------------------------------------------------

/// Analyzes one function: loops bottom-up (Algorithm 1), then the top
/// level, then defaults for anything unreachable.
pub(crate) fn analyze_function(
    ctx: &mut FuncCtx<'_>,
    profile: &Profile,
) -> Result<(), PlacementError> {
    for l in ctx.forest.bottom_up() {
        analyze_loop(ctx, l, profile)?;
    }
    analyze_region(ctx, RegionKind::TopLevel, profile)?;
    // Unreachable or uncovered blocks default to all-NVM.
    for slot in ctx.alloc.iter_mut() {
        if slot.is_none() {
            *slot = Some(VarSet::empty());
        }
    }
    Ok(())
}

/// Builds the function summary from the committed decisions.
pub(crate) fn summarize_function(ctx: &FuncCtx<'_>) -> FuncSummary {
    let has_own_cp =
        ctx.edges.values().any(|d| *d == EdgeDecision::Enabled) || !ctx.backedge_cps.is_empty();
    let has_callee_cp = ctx.func().blocks.iter().flat_map(|b| &b.insts).any(|i| {
        matches!(i, schematic_ir::Inst::Call { func, .. }
            if ctx.summaries[func.index()].has_checkpoint)
    });
    let has_checkpoint = has_own_cp || has_callee_cp;

    // Worst-case entry→first-reset and last-reset→exit energies via a
    // longest-path pass over the top-level item DAG, treating every
    // reset (enabled edge, barrier, checkpointed loop) as a boundary.
    let kind = RegionKind::TopLevel;
    let entry = ctx.region_entry_item(kind);
    let mut memo_fwd: HashMap<Item, (Energy, bool)> = HashMap::new();
    // forward: max energy from function entry to *reaching* item start
    // without crossing a reset; bool = a reset-free path exists.
    let order = topo_items(ctx, kind, entry);
    for &item in &order {
        let incoming: Vec<(Energy, bool)> = order
            .iter()
            .filter_map(|&p| {
                let succs = ctx.item_succs(kind, p);
                succs.iter().find(|(s, _)| *s == item).map(|(_, e)| {
                    let (acc, clean) = memo_fwd.get(&p).copied().unwrap_or((Energy::ZERO, true));
                    let after = acc + item_flow_cost(ctx, p);
                    if ctx.edge_decision(*e) == EdgeDecision::Enabled || item_resets(ctx, p) {
                        (Energy::ZERO, false)
                    } else {
                        (after, clean)
                    }
                })
            })
            .collect();
        let val = if item == entry || incoming.is_empty() {
            (Energy::ZERO, true)
        } else {
            (
                incoming
                    .iter()
                    .map(|(e, _)| *e)
                    .max()
                    .unwrap_or(Energy::ZERO),
                incoming.iter().any(|(_, c)| *c),
            )
        };
        memo_fwd.insert(item, val);
    }

    let mut entry_energy = Energy::ZERO;
    let mut exit_energy = Energy::ZERO;
    for &item in &order {
        let (acc, clean) = memo_fwd.get(&item).copied().unwrap_or((Energy::ZERO, true));
        let through = acc + item_flow_cost(ctx, item);
        if ctx.is_region_exit(kind, item) {
            exit_energy = exit_energy.max(through);
            if clean {
                entry_energy = entry_energy.max(through);
            }
        }
        if item_resets(ctx, item) && clean {
            // First reset reached: the head segment ends here.
            entry_energy = entry_energy.max(acc + item_entry_cost(ctx, item));
        }
        for (s, e) in ctx.item_succs(kind, item) {
            let _ = s;
            if ctx.edge_decision(e) == EdgeDecision::Enabled && clean {
                entry_energy = entry_energy.max(through);
            }
        }
    }
    if !has_checkpoint {
        // Whole body is one segment.
        entry_energy = entry_energy.max(exit_energy);
        exit_energy = entry_energy;
    }

    // Aggregate access counts (trip-scaled) and VM footprint.
    let mut access: HashMap<VarId, AccessCount> = HashMap::new();
    for &item in &order {
        for (v, c) in item_flow_access(ctx, item) {
            *access.entry(v).or_default() += c;
        }
    }
    let mut vm_vars = VarSet::empty();
    let mut vm_bytes = 0;
    for (i, a) in ctx.alloc.iter().enumerate() {
        if let Some(set) = a {
            vm_vars.union_with(set);
            let b = BlockId::from_usize(i);
            vm_bytes = vm_bytes.max(ctx.set_bytes(set) + ctx.item_reserved_bytes(Item::Block(b)));
        }
    }
    for s in ctx.loop_sums.iter().flatten() {
        vm_vars.union_with(&s.alloc);
        vm_bytes = vm_bytes.max(s.vm_bytes);
    }

    FuncSummary {
        has_checkpoint,
        entry_energy,
        exit_energy,
        vm_vars,
        vm_bytes,
        access,
    }
}

/// Topological order of the region's item DAG (region back-edges and
/// collapsed loops make it acyclic for reducible CFGs).
fn topo_items(ctx: &FuncCtx<'_>, kind: RegionKind, entry: Item) -> Vec<Item> {
    let mut order = Vec::new();
    let mut state: HashMap<Item, u8> = HashMap::new(); // 1 = visiting, 2 = done
    fn go(
        ctx: &FuncCtx<'_>,
        kind: RegionKind,
        item: Item,
        state: &mut HashMap<Item, u8>,
        order: &mut Vec<Item>,
    ) {
        if state.contains_key(&item) {
            return;
        }
        state.insert(item, 1);
        for (next, _) in ctx.item_succs(kind, item) {
            go(ctx, kind, next, state, order);
        }
        state.insert(item, 2);
        order.push(item);
    }
    go(ctx, kind, entry, &mut state, &mut order);
    order.reverse();
    order
}

/// Whether passing through the item resets the energy accumulation
/// (it contains a checkpoint).
fn item_resets(ctx: &FuncCtx<'_>, item: Item) -> bool {
    match item {
        Item::Loop(l) => ctx.loop_sums[l]
            .as_ref()
            .map(|s| s.has_checkpoint)
            .unwrap_or(false),
        Item::Block(_) => ctx.is_barrier(item),
    }
}

/// Energy contribution of an item in flow analyses: resetting items
/// contribute entry + exit (the head consumed before their first reset
/// plus the tail after their last).
fn item_flow_cost(ctx: &FuncCtx<'_>, item: Item) -> Energy {
    if item_resets(ctx, item) {
        let b = match item {
            Item::Loop(l) => {
                let s = ctx.loop_sums[l].as_ref().expect("analyzed");
                return s.exit_energy;
            }
            Item::Block(_) => ctx.barrier_bounds(item),
        };
        return b.exit;
    }
    match item {
        Item::Block(b) => ctx.block_cost(b, &effective_alloc(ctx, b)),
        Item::Loop(l) => ctx.loop_sums[l].as_ref().expect("analyzed").total,
    }
}

/// Energy from an item's start to its first internal reset.
fn item_entry_cost(ctx: &FuncCtx<'_>, item: Item) -> Energy {
    match item {
        Item::Loop(l) => ctx.loop_sums[l].as_ref().expect("analyzed").entry_energy,
        Item::Block(_) => ctx.barrier_bounds(item).entry,
    }
}

fn item_flow_access(ctx: &FuncCtx<'_>, item: Item) -> HashMap<VarId, AccessCount> {
    match item {
        Item::Loop(l) => ctx.loop_sums[l]
            .as_ref()
            .map(|s| s.access.clone())
            .unwrap_or_default(),
        Item::Block(_) => ctx.item_access(item),
    }
}

// ---------------------------------------------------------------------------
// Whole-program soundness: forward progress + memory anomalies
// ---------------------------------------------------------------------------

/// Both halves of the §II-B soundness argument for one instrumented
/// program: the forward-progress verdict from [`crate::pverify`] and the
/// WAR-hazard / idempotence report from [`crate::anomaly`].
#[derive(Debug, Clone)]
pub struct SoundnessReport {
    /// Forward progress: every inter-checkpoint stretch fits in `EB`.
    pub placement: crate::pverify::PlacementReport,
    /// Memory anomalies: per-region WAR-hazard classification.
    pub anomalies: crate::anomaly::AnomalyReport,
}

impl SoundnessReport {
    /// `true` when the placement is energy-sound *and* no region is
    /// `Hazardous` (shielded, latent WARs are allowed — they cannot
    /// manifest under a sound wait-for-recharge placement).
    pub fn is_sound(&self) -> bool {
        self.placement.is_sound() && self.anomalies.is_sound()
    }

    /// One-line summary for reports and cell footnotes.
    pub fn verdict(&self) -> String {
        let placement = if self.placement.is_sound() {
            "placement sound".to_string()
        } else {
            format!(
                "placement unsound ({} violation(s))",
                self.placement.violations.len()
            )
        };
        format!("{placement}; {}", self.anomalies.verdict())
    }

    /// Like [`SoundnessReport::verdict`], but names the variables behind
    /// any predicted WAR so footnotes are diagnosable without rerunning
    /// soundcheck.
    pub fn verdict_named(&self, module: &schematic_ir::Module) -> String {
        let mut s = self.verdict();
        let names = self.anomalies.war_var_names(module);
        if !names.is_empty() {
            s.push_str(&format!(" [WAR vars: {}]", names.join(", ")));
        }
        s
    }
}

/// Checks one instrumented program end to end: re-verifies forward
/// progress under budget `eb`, runs the index-sensitive inter-checkpoint
/// WAR-hazard analysis against the program's allocation plan, and
/// classifies `Rollback` regions against their worst-case re-execution
/// bound under the same budget.
///
/// # Errors
///
/// Fails only on recursive call graphs ([`PlacementError::Recursive`]).
pub fn check_all(
    im: &schematic_emu::InstrumentedModule,
    table: &schematic_energy::CostTable,
    eb: Energy,
) -> Result<SoundnessReport, PlacementError> {
    let placement = crate::pverify::verify_placement(im, table, eb);
    let anomalies = crate::anomaly::check_anomalies_bounded(im, placement.is_sound(), table, eb)?;
    Ok(SoundnessReport {
        placement,
        anomalies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchematicConfig;
    use schematic_energy::CostTable;
    use schematic_ir::{call_effects, CmpOp, FunctionBuilder, Module, ModuleBuilder, Variable};

    fn looped_module(loads: usize, trips: u64) -> Module {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x"));
        let mut f = FunctionBuilder::new("main", 0);
        let header = f.new_block("header");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        let i = f.copy(0);
        f.br(header);
        f.switch_to(header);
        f.set_max_iters(header, trips + 1);
        let c = f.cmp(CmpOp::UGe, i, trips as i32);
        f.cond_br(c, exit, body);
        f.switch_to(body);
        for _ in 0..loads {
            let v = f.load_scalar(x);
            f.store_scalar(x, v);
        }
        let i2 = f.bin(schematic_ir::BinOp::Add, i, 1);
        f.copy_to(i, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(None);
        let main = mb.func(f.finish());
        mb.finish(main)
    }

    fn analyzed<'a>(
        m: &'a Module,
        table: &'a CostTable,
        config: &'a SchematicConfig,
        summaries: &'a [FuncSummary],
        effects: &[schematic_ir::CallEffect],
    ) -> FuncCtx<'a> {
        let profile = Profile::collect(m, table, 2);
        let mut ctx = FuncCtx::new(m, table, config, summaries, effects, m.entry_func());
        analyze_function(&mut ctx, &profile).unwrap();
        ctx
    }

    #[test]
    fn ample_budget_no_backedge_checkpoint() {
        let m = looped_module(3, 10);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_uj(1000));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let ctx = analyzed(&m, &table, &config, &summaries, &effects);
        assert!(ctx.backedge_cps.is_empty());
        assert!(!ctx.edges.values().any(|d| *d == EdgeDecision::Enabled));
        // The hot scalar lands in VM in the loop body.
        let x = m.var_by_name("x").unwrap();
        let body = m.funcs[0].block_by_name("body").unwrap();
        assert!(ctx.alloc[body.index()].as_ref().unwrap().contains(x));
    }

    #[test]
    fn tight_budget_places_conditional_backedge_checkpoint() {
        // 30 load/store pairs per iteration, 200 iterations: one
        // iteration fits the budget but the whole loop does not.
        let m = looped_module(30, 200);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_pj(800_000));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let ctx = analyzed(&m, &table, &config, &summaries, &effects);
        assert_eq!(ctx.backedge_cps.len(), 1, "cps = {:?}", ctx.backedge_cps);
        let cp = &ctx.backedge_cps[0];
        assert!(cp.period >= 1);
        // The period covers as many iterations as fit the budget.
        let sum = summarize_function(&ctx);
        assert!(sum.has_checkpoint);
        assert!(sum.entry_energy <= config.eb);
    }

    #[test]
    fn summary_of_checkpoint_free_function() {
        let m = looped_module(2, 4);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_uj(1000));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let ctx = analyzed(&m, &table, &config, &summaries, &effects);
        let sum = summarize_function(&ctx);
        assert!(!sum.has_checkpoint);
        assert_eq!(sum.entry_energy, sum.exit_energy);
        assert!(sum.entry_energy > Energy::ZERO);
        let x = m.var_by_name("x").unwrap();
        assert!(sum.access.contains_key(&x));
        // Access counts are trip-scaled: at least 2 loads × 4 trips.
        assert!(sum.access[&x].reads >= 8);
        assert!(sum.vm_vars.contains(x));
        assert!(sum.vm_bytes >= 4);
    }

    #[test]
    fn all_blocks_get_allocations() {
        let m = looped_module(3, 10);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_uj(1000));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let ctx = analyzed(&m, &table, &config, &summaries, &effects);
        assert!(ctx.alloc.iter().all(Option::is_some));
    }

    #[test]
    fn impossible_budget_reports_error() {
        let m = looped_module(30, 10);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_pj(100));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let profile = Profile::collect(&m, &table, 1);
        let mut ctx = FuncCtx::new(&m, &table, &config, &summaries, &effects, m.entry_func());
        let err = analyze_function(&mut ctx, &profile).unwrap_err();
        assert!(matches!(err, PlacementError::NoFeasiblePlacement { .. }));
    }

    #[test]
    fn all_nvm_config_keeps_vm_empty() {
        let m = looped_module(5, 10);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_uj(1000)).all_nvm();
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let ctx = analyzed(&m, &table, &config, &summaries, &effects);
        for a in ctx.alloc.iter().flatten() {
            assert!(a.is_empty());
        }
    }
}

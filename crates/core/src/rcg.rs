//! The Reachable Checkpoint Graph (§III-A.1).
//!
//! For one analyzed path, the RCG's nodes are the path's *potential
//! checkpoint locations* (its CFG edges) plus virtual `Start`/`End`
//! nodes; already-enabled checkpoints and barrier items (checkpointed
//! callees/loops) are **mandatory waypoints**. An RCG edge `(c1, c2)`
//! exists when the interval between the two locations can execute within
//! the energy budget `EB` under its best memory allocation; its weight
//! is the full energy of the interval (restore at `c1` + execution +
//! save at `c2`). The cheapest `Start → End` path simultaneously fixes
//! where checkpoints go and which variables live in VM in each interval.

use crate::ctx::{FuncCtx, Item, ItemPath};
use crate::gain::{select_allocation, IntervalBounds};
use schematic_energy::Energy;
use schematic_ir::{AccessCount, VarId, VarSet};
use std::collections::HashMap;

/// Environment of one path analysis.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathEnv {
    /// `true` when the path starts at the program entry: the boot-time
    /// restore of the first interval's VM set is charged to the first
    /// interval.
    pub boot: bool,
    /// Energy that must remain when the path's end is reached
    /// (`EB − Eto_leave` criterion for edges into `End`, §III-A.3).
    pub end_demand: Energy,
    /// Multiplier applied to access counts when selecting allocations
    /// (loop-body regions scale by the trip count so per-iteration gains
    /// accumulate, cf. the motivating example of §II-A).
    pub access_scale: u64,
    /// For loop-body regions: the loop header and a back-edge. The
    /// region's `Start`/`End` then behave like a (potential) back-edge
    /// checkpoint — its restore/save costs are charged and bounded, so
    /// the body allocation never grows beyond what a conditional
    /// checkpoint could afford to persist (Algorithm 1).
    pub loop_boundary: Option<(schematic_ir::BlockId, schematic_ir::Edge)>,
    /// For the top level of a *callee* function: its VM set is staged by
    /// the caller's surrounding checkpoints (§III-B.1), so `Start`/`End`
    /// charge and bound the full save/restore of the chosen allocation.
    pub callee_boundary: bool,
}

impl Default for PathEnv {
    fn default() -> Self {
        PathEnv {
            boot: false,
            end_demand: Energy::ZERO,
            access_scale: 1,
            loop_boundary: None,
            callee_boundary: false,
        }
    }
}

/// One decided interval of a placed path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IntervalPlan {
    /// Path item indices covered by the interval (empty when two
    /// anchors are adjacent).
    pub items: Vec<usize>,
    /// VM set during the interval.
    pub alloc: VarSet,
    /// Running energy consumed after each item of the interval,
    /// starting from the interval's opening (restore included). Used to
    /// maintain `Eleft`.
    pub consumed_after: Vec<(usize, Energy)>,
    /// Energy still needed from the start of each item to close the
    /// interval (save included). Used to maintain `Eto_leave`.
    pub needed_from: Vec<(usize, Energy)>,
}

/// Result of placing checkpoints on one path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlacedPath {
    /// Link indices (into `ItemPath::links`) that become checkpoints.
    pub enabled_links: Vec<usize>,
    /// Candidate link indices that are definitively rejected.
    pub disabled_links: Vec<usize>,
    /// Interval allocations, in path order.
    pub intervals: Vec<IntervalPlan>,
    /// Total path energy (the shortest-path distance).
    pub total: Energy,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Anchor {
    Start,
    /// Potential (or forced) checkpoint at `links[idx]`.
    Link {
        idx: usize,
        forced: bool,
    },
    /// Mandatory waypoint: barrier item.
    Barrier {
        item: usize,
    },
    End,
}

impl Anchor {
    /// Total order along the path: items at even keys, links at odd.
    fn key(self, n_items: usize) -> i64 {
        match self {
            Anchor::Start => -1,
            Anchor::Barrier { item } => 2 * item as i64,
            Anchor::Link { idx, .. } => 2 * idx as i64 + 1,
            Anchor::End => 2 * n_items as i64 - 1,
        }
    }

    fn blocks_skipping(self) -> bool {
        matches!(
            self,
            Anchor::Barrier { .. } | Anchor::Link { forced: true, .. }
        )
    }
}

struct EdgeEval {
    cost: Energy,
    alloc: VarSet,
    items: Vec<usize>,
    consumed_after: Vec<(usize, Energy)>,
    needed_from: Vec<(usize, Energy)>,
}

/// Cost of one path item as a function of the interval allocation.
enum ItemCost {
    /// Allocation-independent: loops (whole-body summaries) and blocks
    /// whose allocation an earlier path already committed.
    Const(Energy),
    /// Undecided block: `inst_cost` is linear in which accessed
    /// variables sit in VM, so the cost under `alloc` is the all-NVM
    /// cost minus the per-variable savings of the VM-resident ones.
    Linear {
        all_nvm: Energy,
        /// Energy saved when the variable is VM-resident
        /// (`reads·ΔER + writes·ΔEW`; VM-eligible variables only).
        saved: Vec<(VarId, Energy)>,
    },
}

/// Per-path memoization shared by every RCG edge evaluation.
///
/// `eval_interval` runs for O(anchors²) pairs per path, but everything it
/// derives from *single* items — access counts, committed allocations,
/// mandatory VM sets, item costs — only depends on the path, so it is
/// computed once here. Because an interval's items form a contiguous
/// index range, aggregated access counts become a prefix-sum difference
/// instead of a fresh `HashMap` fold per pair.
struct PathMemo {
    /// Committed allocation per item (`ctx.fixed_alloc`).
    fixed: Vec<Option<VarSet>>,
    /// Mandatory-VM set per item (`ctx.item_mandatory_vm`).
    mandatory: Vec<VarSet>,
    /// Item cost per item (`ctx.item_cost` in closed form).
    cost: Vec<ItemCost>,
    /// Every variable accessed by some non-fixed item, ascending.
    vars: Vec<VarId>,
    /// `pfx[i+1][k] − pfx[i][k]` is item `i`'s access count of
    /// `vars[k]`; fixed and barrier items contribute zero (their
    /// accesses never feed gain selection).
    pfx: Vec<Vec<AccessCount>>,
}

impl PathMemo {
    fn new(ctx: &FuncCtx<'_>, path: &ItemPath) -> Self {
        let n = path.items.len();
        let read_gain = ctx.table.read_gain().as_pj();
        let write_gain = ctx.table.write_gain().as_pj();
        let mut fixed: Vec<Option<VarSet>> = Vec::with_capacity(n);
        let mut mandatory: Vec<VarSet> = Vec::with_capacity(n);
        let mut cost: Vec<ItemCost> = Vec::with_capacity(n);
        let mut accesses: Vec<Option<HashMap<VarId, AccessCount>>> = Vec::with_capacity(n);
        for &item in &path.items {
            // Barrier items are anchors, never interval members: their
            // per-item data is unused (and loop barriers may not even
            // have summaries to query).
            if ctx.is_barrier(item) {
                fixed.push(None);
                mandatory.push(VarSet::empty());
                cost.push(ItemCost::Const(Energy::ZERO));
                accesses.push(None);
                continue;
            }
            let f = ctx.fixed_alloc(item);
            cost.push(match (&item, &f) {
                (Item::Loop(_), _) => ItemCost::Const(ctx.item_cost(item, &VarSet::empty())),
                (Item::Block(_), Some(f)) => ItemCost::Const(ctx.item_cost(item, f)),
                (Item::Block(b), None) => {
                    // `block_cost` only classifies the block's *own*
                    // loads/stores (callees contribute their constant
                    // entry energy), so the linear form uses the raw
                    // per-block access map, not `item_access`.
                    let mut saved: Vec<(VarId, Energy)> = ctx
                        .access
                        .block(*b)
                        .iter()
                        .filter(|(v, _)| ctx.vm_eligible(**v))
                        .map(|(&v, &c)| {
                            let pj = c.reads * read_gain + c.writes * write_gain;
                            (v, Energy::from_pj(pj))
                        })
                        .collect();
                    saved.sort_unstable_by_key(|e| e.0);
                    ItemCost::Linear {
                        all_nvm: ctx.item_cost(item, &VarSet::empty()),
                        saved,
                    }
                }
            });
            accesses.push(if f.is_some() {
                None
            } else {
                Some(ctx.item_access(item))
            });
            fixed.push(f);
            mandatory.push(ctx.item_mandatory_vm(item));
        }
        let mut vars: Vec<VarId> = accesses
            .iter()
            .flatten()
            .flat_map(|m| m.keys().copied())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let mut pfx = Vec::with_capacity(n + 1);
        pfx.push(vec![AccessCount::default(); vars.len()]);
        for m in &accesses {
            let mut row = pfx.last().expect("seeded").clone();
            if let Some(m) = m {
                for (k, v) in vars.iter().enumerate() {
                    if let Some(&c) = m.get(v) {
                        row[k] += c;
                    }
                }
            }
            pfx.push(row);
        }
        PathMemo {
            fixed,
            mandatory,
            cost,
            vars,
            pfx,
        }
    }

    /// Cost of item `i` when the interval allocation is `alloc`
    /// (identical to `ctx.item_cost` with the item's committed set
    /// taking precedence).
    fn item_cost(&self, i: usize, alloc: &VarSet) -> Energy {
        match &self.cost[i] {
            ItemCost::Const(c) => *c,
            ItemCost::Linear { all_nvm, saved } => {
                let pj: u64 = saved
                    .iter()
                    .filter(|(v, _)| alloc.contains(*v))
                    .map(|(_, d)| d.as_pj())
                    .sum();
                Energy::from_pj(all_nvm.as_pj() - pj)
            }
        }
    }

    /// Aggregated access counts of items `first..end`, ascending by
    /// variable, written into `out`.
    fn range_counts(&self, first: usize, end: usize, out: &mut Vec<(VarId, AccessCount)>) {
        out.clear();
        let (a, b) = (&self.pfx[first], &self.pfx[end]);
        for (k, &v) in self.vars.iter().enumerate() {
            let c = AccessCount {
                reads: b[k].reads - a[k].reads,
                writes: b[k].writes - a[k].writes,
            };
            if c.reads != 0 || c.writes != 0 {
                out.push((v, c));
            }
        }
    }
}

/// Reusable buffers for `eval_interval`, allocated once per path.
#[derive(Default)]
struct EvalScratch {
    counts: Vec<(VarId, AccessCount)>,
    scaled: Vec<(VarId, AccessCount)>,
}

/// Returns `base` scaled by `scale`, reusing `buf` when a copy is needed.
fn scaled<'a>(
    base: &'a [(VarId, AccessCount)],
    scale: u64,
    buf: &'a mut Vec<(VarId, AccessCount)>,
) -> &'a [(VarId, AccessCount)] {
    if scale == 1 {
        return base;
    }
    buf.clear();
    buf.extend(base.iter().map(|&(v, c)| {
        (
            v,
            AccessCount {
                reads: c.reads.saturating_mul(scale),
                writes: c.writes.saturating_mul(scale),
            },
        )
    }));
    buf
}

/// Places checkpoints and allocations on `path`. Returns `None` when no
/// feasible placement exists under the inherited decisions.
pub(crate) fn place_on_path(
    ctx: &FuncCtx<'_>,
    path: &ItemPath,
    env: PathEnv,
) -> Option<PlacedPath> {
    let _span = schematic_obs::span("analyze/rcg");
    let n = path.items.len();
    debug_assert_eq!(path.links.len() + 1, n.max(1));

    // ---- build the anchor list ------------------------------------------
    let mut anchors = vec![Anchor::Start];
    for (i, &item) in path.items.iter().enumerate() {
        if ctx.is_barrier(item) {
            anchors.push(Anchor::Barrier { item: i });
        }
        if i < path.links.len() {
            match ctx.edge_decision(path.links[i]) {
                crate::error::EdgeDecision::Disabled => {}
                crate::error::EdgeDecision::Enabled => {
                    anchors.push(Anchor::Link {
                        idx: i,
                        forced: true,
                    });
                }
                crate::error::EdgeDecision::Undecided => {
                    anchors.push(Anchor::Link {
                        idx: i,
                        forced: false,
                    });
                }
            }
        }
    }
    anchors.push(Anchor::End);

    let memo = PathMemo::new(ctx, path);
    let mut scratch = EvalScratch::default();

    // ---- Dijkstra over anchors -------------------------------------------
    let m = anchors.len();
    let mut dist: Vec<Option<Energy>> = vec![None; m];
    let mut parent: Vec<Option<(usize, EdgeEval)>> = Vec::with_capacity(m);
    for _ in 0..m {
        parent.push(None);
    }
    dist[0] = Some(Energy::ZERO);
    let mut done = vec![false; m];
    loop {
        // Extract-min.
        let mut u = None;
        for i in 0..m {
            if !done[i] {
                if let Some(d) = dist[i] {
                    if u.map(|(_, best)| d < best).unwrap_or(true) {
                        u = Some((i, d));
                    }
                }
            }
        }
        let Some((u, du)) = u else { break };
        done[u] = true;
        if anchors[u] == Anchor::End {
            break;
        }
        for v in (u + 1)..m {
            // A mandatory waypoint strictly between forbids the edge.
            if anchors[u + 1..v].iter().any(|a| a.blocks_skipping()) {
                continue;
            }
            if let Some(eval) =
                eval_interval(ctx, path, env, &memo, &mut scratch, anchors[u], anchors[v])
            {
                let nd = du + eval.cost;
                if dist[v].map(|d| nd < d).unwrap_or(true) {
                    dist[v] = Some(nd);
                    parent[v] = Some((u, eval));
                }
            }
        }
    }

    let end = m - 1;
    dist[end]?;

    // ---- reconstruct ---------------------------------------------------------
    let mut enabled = Vec::new();
    let mut intervals = Vec::new();
    let mut on_path = vec![false; m];
    let mut cur = end;
    on_path[end] = true;
    while cur != 0 {
        let (prev, eval) = parent[cur].take().expect("reached node has parent");
        intervals.push(IntervalPlan {
            items: eval.items,
            alloc: eval.alloc,
            consumed_after: eval.consumed_after,
            needed_from: eval.needed_from,
        });
        if let Anchor::Link { idx, forced: false } = anchors[cur] {
            enabled.push(idx);
        }
        on_path[prev] = true;
        cur = prev;
    }
    intervals.reverse();
    enabled.reverse();

    // Every candidate that did not become a checkpoint is final-disabled.
    let disabled = anchors
        .iter()
        .filter_map(|a| match a {
            Anchor::Link { idx, forced: false } if !enabled.contains(idx) => Some(*idx),
            _ => None,
        })
        .collect();

    Some(PlacedPath {
        enabled_links: enabled,
        disabled_links: disabled,
        intervals,
        total: dist[end].expect("checked"),
    })
}

/// Recomputes restore/exec costs for a candidate allocation.
#[allow(clippy::too_many_arguments)]
fn recost(
    ctx: &FuncCtx<'_>,
    env: PathEnv,
    memo: &PathMemo,
    a: Anchor,
    _b: Anchor,
    items: &[usize],
    alloc: &VarSet,
    resume_into: Option<schematic_ir::BlockId>,
) -> (Energy, Energy, Vec<(usize, Energy)>) {
    let restore = match (a, resume_into) {
        (Anchor::Start, Some(target)) if env.loop_boundary.is_some() || env.callee_boundary => {
            let words = ctx.set_words(&ctx.restore_set(alloc, target));
            ctx.table.checkpoint_resume_cost(words).energy
        }
        (Anchor::Start, Some(target)) => {
            let words = ctx.set_words(&ctx.restore_set(alloc, target));
            ctx.table.restore_words_cost(words).energy
        }
        (Anchor::Link { .. }, Some(target)) => {
            let words = ctx.set_words(&ctx.restore_set(alloc, target));
            ctx.table.checkpoint_resume_cost(words).energy
        }
        (Anchor::Link { .. }, None) => ctx.table.checkpoint_resume_cost(0).energy,
        _ => Energy::ZERO,
    };
    let mut exec = Energy::ZERO;
    let mut per_item = Vec::with_capacity(items.len());
    for &i in items {
        let cost = memo.item_cost(i, alloc);
        exec += cost;
        per_item.push((i, cost));
    }
    (restore, exec, per_item)
}

/// Evaluates the RCG edge between two anchors: feasibility, allocation
/// and cost.
fn eval_interval(
    ctx: &FuncCtx<'_>,
    path: &ItemPath,
    env: PathEnv,
    memo: &PathMemo,
    scratch: &mut EvalScratch,
    a: Anchor,
    b: Anchor,
) -> Option<EdgeEval> {
    let n = path.items.len();
    let (lo, hi) = (a.key(n), b.key(n));
    debug_assert!(lo < hi);
    // Item keys are even, so `lo < 2i < hi` is the contiguous range below.
    let first = ((lo + 2) >> 1) as usize;
    let end = ((hi + 1) >> 1) as usize;
    debug_assert!(first <= end && end <= n);
    let items: Vec<usize> = (first..end).collect();
    debug_assert!(items
        .iter()
        .all(|&i| lo < 2 * i as i64 && 2 * (i as i64) < hi));

    // ---- allocation -----------------------------------------------------
    let mut fixed: Option<&VarSet> = None;
    let mut mandatory = VarSet::empty();
    for &i in &items {
        if let Some(f) = memo.fixed[i].as_ref() {
            match fixed {
                None => fixed = Some(f),
                Some(prev) if prev == f => {}
                Some(_) => return None, // conflicting committed allocations
            }
        }
        mandatory.union_with(&memo.mandatory[i]);
    }
    let EvalScratch {
        counts: counts_buf,
        scaled: scaled_buf,
    } = scratch;
    memo.range_counts(first, end, counts_buf);

    // Capacity shrinks by whatever an adjacent barrier needs resident.
    let mut capacity = ctx.config.svm_bytes;
    for anchor in [a, b] {
        if let Anchor::Barrier { item } = anchor {
            capacity = capacity.saturating_sub(ctx.item_reserved_bytes(path.items[item]));
        }
    }

    let first_block = items.iter().find_map(|&i| match path.items[i] {
        Item::Block(b) => Some(b),
        Item::Loop(_) => None,
    });
    let resume_into = match a {
        Anchor::Start => match env.loop_boundary {
            Some((header, _)) => Some(header),
            None if env.boot || env.callee_boundary => first_block,
            None => None,
        },
        Anchor::Barrier { .. } => None,
        _ => first_block,
    };
    let save_edge = match b {
        Anchor::Link { idx, .. } => Some(path.links[idx]),
        Anchor::End => env.loop_boundary.map(|(_, backedge)| backedge),
        _ => None,
    };
    let bounds = IntervalBounds {
        resume_into,
        save_edge,
    };

    // With no committed constraint, start from the gain-optimal set and
    // shrink the capacity until the interval fits the budget (a large
    // allocation may be profitable per access yet unaffordable to
    // save/restore at the interval's boundaries).
    let mut capacity_try = capacity;
    let mut alloc = match fixed {
        Some(f) => {
            let mut set = f.clone();
            set.union_with(&mandatory);
            if ctx.set_bytes(&set) > capacity {
                return None;
            }
            set
        }
        None => {
            let mut scale = env.access_scale;
            let mut vm = select_allocation(
                ctx,
                scaled(counts_buf, scale, scaled_buf),
                &mandatory,
                bounds,
                capacity_try,
            )
            .vm;
            if env.loop_boundary.is_some() {
                // The boundary save/restore is paid once per conditional-
                // checkpoint period, while accesses accrue every
                // iteration. Iterate so the access scale used by the gain
                // matches the period the chosen allocation can afford
                // (Algorithm 1's `numit`).
                for _ in 0..4 {
                    let save_words = ctx.set_words(&vm.intersection(&ctx.written));
                    let restore_words = ctx.set_words(&vm);
                    let overhead = ctx.table.checkpoint_commit_cost(save_words).energy
                        + ctx.table.checkpoint_resume_cost(restore_words).energy;
                    let exec: Energy = items.iter().map(|&i| memo.item_cost(i, &vm)).sum();
                    let budget = ctx.config.eb.saturating_sub(overhead);
                    let period = budget.div_floor(exec).unwrap_or(u64::MAX).max(1);
                    // Clean VM copies persist across checkpoint regions
                    // (and across calls), so the amortization horizon is
                    // the conditional-checkpoint period, not this loop's
                    // trip count.
                    let new_scale = period.min(1 << 20);
                    if new_scale == scale {
                        break;
                    }
                    scale = new_scale;
                    vm = select_allocation(
                        ctx,
                        scaled(counts_buf, scale, scaled_buf),
                        &mandatory,
                        bounds,
                        capacity_try,
                    )
                    .vm;
                }
            }
            vm
        }
    };

    // ---- costs ------------------------------------------------------------
    let eb = ctx.config.eb;
    let initial = match a {
        Anchor::Barrier { item } => ctx.barrier_bounds(path.items[item]).exit,
        _ => Energy::ZERO,
    };
    let mut restore = match (a, resume_into) {
        (Anchor::Start, Some(target)) if env.loop_boundary.is_some() || env.callee_boundary => {
            // The back-edge checkpoint's resume path.
            let words = ctx.set_words(&ctx.restore_set(&alloc, target));
            ctx.table.checkpoint_resume_cost(words).energy
        }
        (Anchor::Start, Some(target)) => {
            // Boot-time staging of the first interval's VM set.
            let words = ctx.set_words(&ctx.restore_set(&alloc, target));
            ctx.table.restore_words_cost(words).energy
        }
        (Anchor::Link { .. }, Some(target)) => {
            let words = ctx.set_words(&ctx.restore_set(&alloc, target));
            ctx.table.checkpoint_resume_cost(words).energy
        }
        (Anchor::Link { .. }, None) => ctx.table.checkpoint_resume_cost(0).energy,
        _ => Energy::ZERO,
    };

    // Execution, tracking running consumption for Eleft/Eto_leave.
    let (_, mut exec, mut per_item) = recost(ctx, env, memo, a, b, &items, &alloc, None);

    let (mut closing_feas, mut closing_cost) = match b {
        Anchor::Link { idx, .. } => {
            let words = ctx.set_words(&ctx.save_set(&alloc, path.links[idx]));
            let c = ctx.table.checkpoint_commit_cost(words).energy;
            (c, c)
        }
        Anchor::Barrier { item } => {
            let bb = ctx.barrier_bounds(path.items[item]);
            (bb.entry, bb.entry + bb.internal)
        }
        Anchor::End => match env.loop_boundary {
            Some((_, backedge)) => {
                // The back-edge checkpoint's commit path.
                let words = ctx.set_words(&ctx.save_set(&alloc, backedge));
                let c = ctx.table.checkpoint_commit_cost(words).energy;
                (c + env.end_demand, Energy::ZERO)
            }
            None if env.callee_boundary => {
                let words = ctx.set_words(&alloc.intersection(&ctx.written));
                let c = ctx.table.checkpoint_commit_cost(words).energy;
                (c + env.end_demand, Energy::ZERO)
            }
            None => (env.end_demand, Energy::ZERO),
        },
        Anchor::Start => unreachable!("edges never enter Start"),
    };

    let mut needed_total = initial + restore + exec + closing_feas;
    while needed_total > eb {
        if fixed.is_some() || alloc == mandatory || capacity_try == 0 {
            return None;
        }
        // Shrink and retry: halve the capacity offered to the gain
        // selection (mandatory variables always stay).
        capacity_try = ctx
            .set_bytes(&alloc)
            .saturating_sub(1)
            .min(capacity_try / 2);
        alloc = select_allocation(
            ctx,
            scaled(counts_buf, env.access_scale, scaled_buf),
            &mandatory,
            bounds,
            capacity_try,
        )
        .vm;
        let (r2, e2, c2) = recost(ctx, env, memo, a, b, &items, &alloc, resume_into);
        restore = r2;
        exec = e2;
        per_item = c2;
        let closing2 = match b {
            Anchor::Link { idx, .. } => {
                let words = ctx.set_words(&ctx.save_set(&alloc, path.links[idx]));
                ctx.table.checkpoint_commit_cost(words).energy
            }
            Anchor::End => match env.loop_boundary {
                Some((_, backedge)) => {
                    let words = ctx.set_words(&ctx.save_set(&alloc, backedge));
                    ctx.table.checkpoint_commit_cost(words).energy + env.end_demand
                }
                None if env.callee_boundary => {
                    let words = ctx.set_words(&alloc.intersection(&ctx.written));
                    ctx.table.checkpoint_commit_cost(words).energy + env.end_demand
                }
                None => closing_feas,
            },
            _ => closing_feas,
        };
        needed_total = initial + restore + exec + closing2;
        if needed_total <= eb {
            closing_feas = closing2;
            closing_cost = match b {
                Anchor::Link { .. } => closing2,
                _ => closing_cost,
            };
            break;
        }
    }

    // Interior committed-block constraints (§III-A.3): when the interval
    // crosses a block some earlier path already scheduled, respect that
    // block's Eleft / Eto_leave so *combinations* of paths stay sound.
    let mut running = initial + restore;
    let mut consumed_after = Vec::with_capacity(per_item.len());
    for &(i, cost) in &per_item {
        if let Item::Block(x) = path.items[i] {
            if let Some(need) = ctx.e_to_leave[x.index()] {
                if running + need > eb {
                    return None;
                }
            }
        }
        running += cost;
        if let Item::Block(x) = path.items[i] {
            if let Some(left) = ctx.e_left[x.index()] {
                // Energy still to spend after x in this new interval must
                // fit what committed paths leave behind at x.
                let after: Energy = per_item
                    .iter()
                    .skip_while(|&&(j, _)| j <= i)
                    .map(|&(_, c)| c)
                    .sum::<Energy>()
                    + closing_feas;
                if after > left {
                    return None;
                }
            }
        }
        consumed_after.push((i, running));
    }
    // Energy needed from each item's start to close the interval.
    let mut needed_from = Vec::with_capacity(per_item.len());
    let mut tail = closing_feas;
    for &(i, cost) in per_item.iter().rev() {
        tail += cost;
        needed_from.push((i, tail));
    }
    needed_from.reverse();

    // For loop-body regions the Start/End boundary models the back-edge
    // checkpoint, which fires once every `numit` iterations — amortize
    // its cost accordingly when ranking placements (feasibility above
    // used the full per-firing cost).
    let mut ranked_restore = restore;
    let mut ranked_closing = closing_cost;
    if env.loop_boundary.is_some() {
        let save_words = ctx.set_words(&alloc.intersection(&ctx.written));
        let restore_words = ctx.set_words(&alloc);
        let overhead = ctx.table.checkpoint_commit_cost(save_words).energy
            + ctx.table.checkpoint_resume_cost(restore_words).energy;
        let budget = ctx.config.eb.saturating_sub(overhead);
        let period = budget
            .div_floor(exec.max(Energy::from_pj(1)))
            .unwrap_or(1)
            .max(1);
        if a == Anchor::Start {
            ranked_restore = Energy::from_pj(restore.as_pj() / period);
        }
        if b == Anchor::End {
            ranked_closing = Energy::from_pj(closing_cost.as_pj() / period);
        }
    }
    Some(EdgeEval {
        cost: ranked_restore + exec + ranked_closing,
        alloc,
        items,
        consumed_after,
        needed_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchematicConfig;
    use crate::summary::FuncSummary;
    use schematic_energy::CostTable;
    use schematic_ir::{call_effects, Edge, FunctionBuilder, Module, ModuleBuilder, Variable};

    /// Three straight-line blocks A -> B -> C, each with heavy accesses
    /// to `sum`.
    fn chain_module(loads_per_block: usize) -> Module {
        let mut mb = ModuleBuilder::new("m");
        let sum = mb.var(Variable::scalar("sum"));
        let mut f = FunctionBuilder::new("main", 0);
        let b1 = f.new_block("b1");
        let b2 = f.new_block("b2");
        for block in [None, Some(b1), Some(b2)] {
            if let Some(b) = block {
                f.switch_to(b);
            }
            for _ in 0..loads_per_block {
                let v = f.load_scalar(sum);
                f.store_scalar(sum, v);
            }
            match block {
                None => f.br(b1),
                Some(b) if b == b1 => f.br(b2),
                _ => f.ret(None),
            }
        }
        let main = mb.func(f.finish());
        mb.finish(main)
    }

    fn chain_path() -> ItemPath {
        use schematic_ir::BlockId;
        ItemPath {
            items: vec![
                Item::Block(BlockId(0)),
                Item::Block(BlockId(1)),
                Item::Block(BlockId(2)),
            ],
            links: vec![
                Edge::new(BlockId(0), BlockId(1)),
                Edge::new(BlockId(1), BlockId(2)),
            ],
        }
    }

    fn ctx_for<'a>(
        m: &'a Module,
        table: &'a CostTable,
        config: &'a SchematicConfig,
        summaries: &'a [FuncSummary],
        effects: &[schematic_ir::CallEffect],
    ) -> FuncCtx<'a> {
        FuncCtx::new(m, table, config, summaries, effects, m.entry_func())
    }

    #[test]
    fn large_budget_places_no_checkpoints() {
        let m = chain_module(5);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_uj(1000));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let ctx = ctx_for(&m, &table, &config, &summaries, &effects);
        let placed = place_on_path(&ctx, &chain_path(), PathEnv::default()).unwrap();
        assert!(placed.enabled_links.is_empty());
        assert_eq!(placed.disabled_links.len(), 2);
        assert_eq!(placed.intervals.len(), 1);
        // The single interval allocates the hot scalar to VM.
        let sum = m.var_by_name("sum").unwrap();
        assert!(placed.intervals[0].alloc.contains(sum));
    }

    #[test]
    fn small_budget_forces_checkpoints() {
        let m = chain_module(120);
        let table = CostTable::msp430fr5969();
        // One block ≈ 242 kpJ in VM; the whole chain ≈ 727 kpJ exceeds
        // the 600 kpJ budget, but one block plus checkpoint overheads
        // (resume ≈ 80 kpJ, commit ≈ 165 kpJ) fits.
        let config = SchematicConfig::new(Energy::from_pj(600_000));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let ctx = ctx_for(&m, &table, &config, &summaries, &effects);
        let placed = place_on_path(&ctx, &chain_path(), PathEnv::default()).unwrap();
        assert!(
            !placed.enabled_links.is_empty(),
            "expected at least one checkpoint, got {placed:?}"
        );
        assert_eq!(placed.enabled_links.len() + 1, placed.intervals.len());
    }

    #[test]
    fn impossible_budget_is_infeasible() {
        let m = chain_module(120);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_pj(10)); // absurd
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let ctx = ctx_for(&m, &table, &config, &summaries, &effects);
        assert!(place_on_path(&ctx, &chain_path(), PathEnv::default()).is_none());
    }

    #[test]
    fn forced_checkpoint_is_respected() {
        let m = chain_module(5);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_uj(1000));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let mut ctx = ctx_for(&m, &table, &config, &summaries, &effects);
        let path = chain_path();
        ctx.edges
            .insert(path.links[0], crate::error::EdgeDecision::Enabled);
        let placed = place_on_path(&ctx, &path, PathEnv::default()).unwrap();
        // The forced link is a waypoint: two intervals even though the
        // budget is huge; it is not re-reported as newly enabled.
        assert_eq!(placed.intervals.len(), 2);
        assert!(placed.enabled_links.is_empty());
    }

    #[test]
    fn disabled_edge_is_not_a_candidate() {
        let m = chain_module(120);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_pj(600_000));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let mut ctx = ctx_for(&m, &table, &config, &summaries, &effects);
        let path = chain_path();
        // Disable both candidate edges: placement becomes infeasible.
        ctx.edges
            .insert(path.links[0], crate::error::EdgeDecision::Disabled);
        ctx.edges
            .insert(path.links[1], crate::error::EdgeDecision::Disabled);
        assert!(place_on_path(&ctx, &path, PathEnv::default()).is_none());
    }

    #[test]
    fn end_demand_tightens_feasibility() {
        let m = chain_module(120);
        let table = CostTable::msp430fr5969();
        // Budget that barely fits everything in one interval...
        let one_shot = {
            let config = SchematicConfig::new(Energy::from_uj(1000));
            let effects = call_effects(&m);
            let summaries = vec![FuncSummary::default(); 1];
            let ctx = ctx_for(&m, &table, &config, &summaries, &effects);
            place_on_path(&ctx, &chain_path(), PathEnv::default())
                .unwrap()
                .total
        };
        let config = SchematicConfig::new(one_shot + Energy::from_pj(1_000));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let ctx = ctx_for(&m, &table, &config, &summaries, &effects);
        // Without demand: no checkpoint needed.
        let free = place_on_path(&ctx, &chain_path(), PathEnv::default()).unwrap();
        assert!(free.enabled_links.is_empty());
        // With a large end demand the single interval no longer fits.
        let env = PathEnv {
            end_demand: Energy::from_pj(300_000),
            ..PathEnv::default()
        };
        let tight = place_on_path(&ctx, &chain_path(), env).unwrap();
        assert!(!tight.enabled_links.is_empty());
    }

    #[test]
    fn committed_allocation_is_reused() {
        let m = chain_module(5);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_uj(1000));
        let effects = call_effects(&m);
        let summaries = vec![FuncSummary::default(); 1];
        let mut ctx = ctx_for(&m, &table, &config, &summaries, &effects);
        // Pretend an earlier path committed b1 to all-NVM.
        ctx.alloc[1] = Some(VarSet::empty());
        let placed = place_on_path(&ctx, &chain_path(), PathEnv::default()).unwrap();
        // The single interval must adopt the committed (empty) set.
        assert!(placed.intervals[0].alloc.is_empty());
    }
}

//! The gain function and VM candidate selection (§III-A.2, Eqs. 1–2).
//!
//! For an interval between two potential checkpoint locations, placing a
//! variable `v` in VM gains `ΔEW·nW + ΔER·nR` over its accesses and
//! costs `Esave/restore` at the interval boundaries (scaled by liveness,
//! Eq. 2). Candidates are ranked by **gain / size** so that smaller
//! variables win ties and more of them fit the limited VM
//! (`ratio_ordering`); variables are accepted greedily while their gain
//! is positive and the VM capacity `SVM` holds.

use crate::ctx::FuncCtx;
use schematic_ir::{AccessCount, BlockId, Edge, VarId, VarSet, WORD_BYTES};

/// Outcome of selecting an interval's allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GainSelection {
    /// The selected VM set (mandatory variables included).
    pub vm: VarSet,
    /// Total positive gain of the selected optional variables, in
    /// picojoules (diagnostic).
    pub total_gain_pj: i128,
}

/// Context describing the interval's boundaries for Eq. 2.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntervalBounds {
    /// Block the interval resumes into (for restore liveness); `None`
    /// when the interval starts at the region entry without a restore.
    pub resume_into: Option<BlockId>,
    /// Edge on which the closing checkpoint sits (for save liveness);
    /// `None` when the interval runs to the region exit.
    pub save_edge: Option<Edge>,
}

/// Computes Eq. 1 for one variable, in signed picojoules.
pub(crate) fn gain_of(
    ctx: &FuncCtx<'_>,
    var: VarId,
    counts: AccessCount,
    bounds: IntervalBounds,
) -> i128 {
    let read_gain = ctx.table.read_gain().as_pj() as i128;
    let write_gain = ctx.table.write_gain().as_pj() as i128;
    let mut gain = read_gain * counts.reads as i128 + write_gain * counts.writes as i128;

    // Eq. 2: Esave/restore = Erestore × live(c1) + Esave × live(c2).
    let words = ctx.module.var(var).words;
    let is_array = words > 1;
    let restore_live = match bounds.resume_into {
        None => false, // no checkpoint opens the interval
        Some(target) => {
            if !ctx.config.liveness_opt {
                true
            } else {
                is_array || ctx.live.live_in(target).contains(var)
            }
        }
    };
    let save_live = ctx.written.contains(var)
        && match bounds.save_edge {
            None => false,
            Some(e) => {
                if !ctx.config.liveness_opt {
                    true
                } else {
                    ctx.live.live_on_edge(e.from, e.to).contains(var)
                }
            }
        };
    if restore_live {
        gain -= ctx.table.restore_words_cost(words).energy.as_pj() as i128;
    }
    if save_live {
        gain -= ctx.table.save_words_cost(words).energy.as_pj() as i128;
    }
    gain
}

/// Selects the VM set for an interval.
///
/// * `counts` — aggregated access counts of the interval's undecided
///   items (already trip-scaled where applicable), ascending by
///   `VarId` so candidate ranking is deterministic;
/// * `mandatory` — variables imposed by checkpoint-free callees inside
///   the interval (always included, not gain-ranked);
/// * `capacity_bytes` — VM bytes available to this interval after any
///   barrier reservations.
pub(crate) fn select_allocation(
    ctx: &FuncCtx<'_>,
    counts: &[(VarId, AccessCount)],
    mandatory: &VarSet,
    bounds: IntervalBounds,
    capacity_bytes: usize,
) -> GainSelection {
    let _span = schematic_obs::span("analyze/allocation");
    let mut vm = VarSet::empty();
    let mut used = 0usize;
    for v in mandatory.iter() {
        if ctx.vm_eligible(v) {
            vm.insert(v);
            used += ctx.module.var(v).words * WORD_BYTES;
        }
    }

    // Rank optional candidates.
    let mut candidates: Vec<(VarId, i128, usize)> = counts
        .iter()
        .filter(|(v, _)| ctx.vm_eligible(*v) && !vm.contains(*v))
        .map(|&(v, c)| {
            let g = gain_of(ctx, v, c, bounds);
            (v, g, ctx.module.var(v).bytes())
        })
        .filter(|(_, g, _)| *g > 0)
        .collect();
    if ctx.config.ratio_ordering {
        // gain/size descending: compare g_a * size_b vs g_b * size_a.
        candidates.sort_by(|a, b| {
            let lhs = b.1 * a.2 as i128;
            let rhs = a.1 * b.2 as i128;
            lhs.cmp(&rhs).then(a.0.cmp(&b.0))
        });
    } else {
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }

    let mut total_gain = 0i128;
    for (v, g, bytes) in candidates {
        if used + bytes <= capacity_bytes {
            vm.insert(v);
            used += bytes;
            total_gain += g;
            if schematic_obs::enabled() {
                // Decision log: every accepted gain-ranked VM candidate
                // (gains are positive here by the filter above).
                schematic_obs::count("alloc/picks", 1);
                schematic_obs::event(
                    "alloc_pick",
                    [
                        ("var", ctx.module.var(v).name.as_str().into()),
                        ("gain_pj", u64::try_from(g).unwrap_or(u64::MAX).into()),
                        ("bytes", (bytes as u64).into()),
                    ],
                );
            }
        }
    }
    GainSelection {
        vm,
        total_gain_pj: total_gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchematicConfig;
    use crate::summary::FuncSummary;
    use schematic_energy::{CostTable, Energy};
    use schematic_ir::{call_effects, FunctionBuilder, Module, ModuleBuilder, Variable};
    use std::collections::HashMap;

    /// Flattens an access map into the sorted-slice form the selector
    /// takes.
    fn sorted_counts(map: &HashMap<VarId, AccessCount>) -> Vec<(VarId, AccessCount)> {
        let mut v: Vec<_> = map.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by_key(|e| e.0);
        v
    }

    fn hot_cold_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let hot = mb.var(Variable::scalar("hot"));
        let cold = mb.var(Variable::array("cold", 64));
        let pinned = mb.var(Variable::scalar("pinned").pinned());
        let mut f = FunctionBuilder::new("main", 0);
        // Many accesses to hot, one to cold, one to pinned.
        let mut r = f.load_scalar(hot);
        for _ in 0..20 {
            f.store_scalar(hot, r);
            r = f.load_scalar(hot);
        }
        let _ = f.load_idx(cold, 0);
        let _ = f.load_scalar(pinned);
        f.ret(Some(r.into()));
        let main = mb.func(f.finish());
        mb.finish(main)
    }

    fn with_ctx<R>(module: &Module, run: impl FnOnce(&FuncCtx<'_>) -> R) -> R {
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_uj(4));
        let effects = call_effects(module);
        let summaries = vec![FuncSummary::default(); module.funcs.len()];
        let ctx = FuncCtx::new(
            module,
            &table,
            &config,
            &summaries,
            &effects,
            module.entry_func(),
        );
        run(&ctx)
    }

    #[test]
    fn frequently_accessed_scalar_wins() {
        let m = hot_cold_module();
        with_ctx(&m, |ctx| {
            let counts = sorted_counts(ctx.access.block(BlockId(0)));
            let bounds = IntervalBounds {
                resume_into: Some(BlockId(0)),
                save_edge: None,
            };
            let sel = select_allocation(ctx, &counts, &VarSet::empty(), bounds, 2048);
            let hot = m.var_by_name("hot").unwrap();
            let cold = m.var_by_name("cold").unwrap();
            let pinned = m.var_by_name("pinned").unwrap();
            assert!(sel.vm.contains(hot));
            assert!(
                !sel.vm.contains(cold),
                "one access cannot repay a 256 B copy"
            );
            assert!(!sel.vm.contains(pinned));
            assert!(sel.total_gain_pj > 0);
        });
    }

    #[test]
    fn capacity_limits_selection() {
        let m = hot_cold_module();
        with_ctx(&m, |ctx| {
            let counts = sorted_counts(ctx.access.block(BlockId(0)));
            let bounds = IntervalBounds {
                resume_into: None,
                save_edge: None,
            };
            let sel = select_allocation(ctx, &counts, &VarSet::empty(), bounds, 0);
            assert!(sel.vm.is_empty());
        });
    }

    #[test]
    fn mandatory_vars_always_included() {
        let m = hot_cold_module();
        with_ctx(&m, |ctx| {
            let cold = m.var_by_name("cold").unwrap();
            let mut mandatory = VarSet::empty();
            mandatory.insert(cold);
            let sel = select_allocation(
                ctx,
                &[],
                &mandatory,
                IntervalBounds {
                    resume_into: None,
                    save_edge: None,
                },
                2048,
            );
            assert!(sel.vm.contains(cold));
        });
    }

    #[test]
    fn boundary_liveness_reduces_gain() {
        let m = hot_cold_module();
        with_ctx(&m, |ctx| {
            let hot = m.var_by_name("hot").unwrap();
            let counts = AccessCount {
                reads: 2,
                writes: 0,
            };
            let open = IntervalBounds {
                resume_into: None,
                save_edge: None,
            };
            let closed = IntervalBounds {
                resume_into: Some(BlockId(0)),
                save_edge: None,
            };
            let g_open = gain_of(ctx, hot, counts, open);
            let g_closed = gain_of(ctx, hot, counts, closed);
            assert!(g_closed < g_open, "restore cost must reduce the gain");
        });
    }

    #[test]
    fn ratio_ordering_prefers_small_variables() {
        // Two variables with equal total gain; only one fits. The ratio
        // rule must pick the smaller one.
        let mut mb = ModuleBuilder::new("m");
        let small = mb.var(Variable::scalar("small"));
        let big = mb.var(Variable::array("big", 8));
        let mut f = FunctionBuilder::new("main", 0);
        let a = f.load_scalar(small);
        let _ = f.load_idx(big, 0);
        f.ret(Some(a.into()));
        let main = mb.func(f.finish());
        let m = mb.finish(main);
        with_ctx(&m, |ctx| {
            let counts = vec![
                (
                    small,
                    AccessCount {
                        reads: 10,
                        writes: 0,
                    },
                ),
                (
                    big,
                    AccessCount {
                        reads: 10,
                        writes: 0,
                    },
                ),
            ];
            let bounds = IntervalBounds {
                resume_into: None,
                save_edge: None,
            };
            // Capacity fits only the scalar.
            let sel = select_allocation(ctx, &counts, &VarSet::empty(), bounds, 4);
            assert!(sel.vm.contains(small));
            assert!(!sel.vm.contains(big));
        });
    }
}

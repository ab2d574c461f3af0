//! End-to-end SCHEMATIC compilation.
//!
//! Mirrors the pass structure of §IV-A.c: gather access information,
//! run the joint placement/allocation analysis per function (callees
//! first), then rewrite the program — set every load/store's memory
//! target via the allocation plan and insert save/restore operations at
//! the selected checkpoint locations. A final independent verification
//! pass re-checks the forward-progress guarantee and repairs any stretch
//! the greedy path analysis missed.

use crate::analyze::{analyze_function, summarize_function};
use crate::config::SchematicConfig;
use crate::ctx::FuncCtx;
use crate::error::{EdgeDecision, PlacementError};
use crate::profile::Profile;
use crate::pverify::{patch_placement, verify_placement, PlacementReport};
use crate::summary::FuncSummary;
use crate::transform::{instrument, split_large_blocks, FuncDecisions};
use schematic_emu::InstrumentedModule;
use schematic_energy::CostTable;
use schematic_ir::{call_effects, CallGraph, Module, VarSet};

/// Output of [`compile`].
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The instrumented program, ready for the intermittent emulator.
    pub instrumented: InstrumentedModule,
    /// Final verification report (always sound on success).
    pub report: PlacementReport,
    /// Per-function summaries (diagnostics).
    pub summaries: Vec<FuncSummary>,
    /// Blocks split by the pre-pass.
    pub splits: usize,
    /// Checkpoints added by the verifier-driven repair pass (0 when the
    /// path analysis alone was sound, which is the common case).
    pub repairs: usize,
}

/// Compiles `module` with SCHEMATIC, profiling it internally (once per
/// process per distinct program, see [`Profile::shared`]).
///
/// # Errors
///
/// See [`PlacementError`]; the most common failure is a budget too
/// small for even a single instruction plus checkpoint overheads.
pub fn compile(
    module: &Module,
    table: &CostTable,
    config: &SchematicConfig,
) -> Result<Compiled, PlacementError> {
    compile_with_profile(module, table, config, None)
}

/// Like [`compile`] but reusing pre-collected profile traces.
///
/// The profile must have been collected on `module` as-is; if the
/// block-splitting pre-pass changes the CFG, the split module is
/// profiled internally instead (through [`Profile::shared`]).
///
/// # Errors
///
/// See [`PlacementError`].
pub fn compile_with_profile(
    module: &Module,
    table: &CostTable,
    config: &SchematicConfig,
    profile: Option<&Profile>,
) -> Result<Compiled, PlacementError> {
    if let Some(err) = schematic_ir::verify_module(module).into_iter().next() {
        return Err(PlacementError::InvalidModule {
            message: err.to_string(),
        });
    }

    // Pre-pass: split blocks too large for the budget (footnote 2).
    let mut m = module.clone();
    let splits = {
        let _span = schematic_obs::span("compile/split");
        split_large_blocks(&mut m, table, config.eb)?
    };

    let shared;
    let profile = match (profile, splits) {
        (Some(p), 0) => p,
        _ => {
            let _span = schematic_obs::span("compile/profile");
            shared = Profile::shared(&m, table, config.profile_runs);
            &*shared
        }
    };

    let effects = call_effects(&m);
    let cg = CallGraph::new(&m);
    let order = cg
        .bottom_up_order(&m)
        .map_err(|e| PlacementError::Recursive { func: e.func })?;

    let mut summaries = vec![FuncSummary::default(); m.funcs.len()];
    let mut decisions: Vec<FuncDecisions> = vec![FuncDecisions::default(); m.funcs.len()];

    let analyze_span = schematic_obs::span("compile/analyze");
    for fid in order {
        let snapshot = summaries.clone();
        // Callees keep 1/8 of the budget in reserve so the caller can
        // afford its own restore and pre/post-call work around the
        // callee's boundary segments (§III-B.1).
        let fn_config = if m.entry == Some(fid) {
            config.clone()
        } else {
            let mut c = config.clone();
            let headroom =
                table.checkpoint_resume_cost(0).energy + table.checkpoint_commit_cost(0).energy;
            c.eb = schematic_energy::Energy::from_pj(
                config.eb.saturating_sub(headroom).as_pj() * 9 / 10,
            );
            c
        };
        let mut ctx = FuncCtx::new(&m, table, &fn_config, &snapshot, &effects, fid);
        match analyze_function(&mut ctx, profile) {
            Ok(()) => {
                summaries[fid.index()] = summarize_function(&ctx);
                decisions[fid.index()] = extract_decisions(&ctx);
            }
            Err(PlacementError::NoFeasiblePlacement { .. }) => {
                // Degraded mode for this function: all-NVM with no
                // checkpoints from the path analysis; the verifier-driven
                // repair pass inserts whatever checkpoints soundness
                // requires (ROCKCLIMB-style), so compilation still
                // succeeds — just without VM savings here.
                let n = m.func(fid).blocks.len();
                decisions[fid.index()] = FuncDecisions {
                    alloc: vec![VarSet::empty(); n],
                    enabled: Vec::new(),
                    backedge: Vec::new(),
                };
                let overhead =
                    table.checkpoint_commit_cost(0).energy + table.checkpoint_resume_cost(0).energy;
                summaries[fid.index()] = FuncSummary {
                    has_checkpoint: true,
                    entry_energy: overhead * 2,
                    exit_energy: overhead * 2,
                    ..FuncSummary::default()
                };
            }
            Err(e) => return Err(e),
        }
    }
    drop(analyze_span);

    let mut instrumented = {
        let _span = schematic_obs::span("compile/instrument");
        instrument(&m, &decisions, "Schematic")
    };
    let repairs = {
        let _span = schematic_obs::span("compile/patch");
        patch_placement(&mut instrumented, table, config.eb, 256)?
    };

    // SVM must hold the largest per-block footprint.
    let peak = instrumented.plan.peak_bytes(&instrumented.module);
    if peak > config.svm_bytes {
        return Err(PlacementError::Unsound {
            detail: format!(
                "allocation plan needs {peak} bytes of VM but SVM = {}",
                config.svm_bytes
            ),
        });
    }

    let report = {
        let _span = schematic_obs::span("compile/verify");
        verify_placement(&instrumented, table, config.eb)
    };
    debug_assert!(report.is_sound(), "{:?}", report.violations);
    Ok(Compiled {
        instrumented,
        report,
        summaries,
        splits,
        repairs,
    })
}

fn extract_decisions(ctx: &FuncCtx<'_>) -> FuncDecisions {
    let alloc: Vec<VarSet> = ctx
        .alloc
        .iter()
        .map(|a| a.clone().unwrap_or_default())
        .collect();
    let mut enabled = Vec::new();
    for (&edge, &d) in &ctx.edges {
        if d != EdgeDecision::Enabled {
            continue;
        }
        let before = &alloc[edge.from.index()];
        let after = &alloc[edge.to.index()];
        let save = ctx.save_set(before, edge).iter().collect();
        let restore = ctx.restore_set(after, edge.to).iter().collect();
        enabled.push((edge, save, restore, after.clone()));
    }
    enabled.sort_by_key(|(e, _, _, _)| (e.from, e.to));
    let mut backedge = Vec::new();
    for cp in &ctx.backedge_cps {
        let header_alloc = &alloc[cp.edge.to.index()];
        let save = ctx.save_set(header_alloc, cp.edge).iter().collect();
        let restore = ctx.restore_set(header_alloc, cp.edge.to).iter().collect();
        backedge.push((cp.edge, cp.period, save, restore, header_alloc.clone()));
    }
    FuncDecisions {
        alloc,
        enabled,
        backedge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic_emu::{run, Machine, RunConfig};
    use schematic_energy::Energy;

    /// Maps a TBPF (cycles) to the guaranteed-sound energy budget: the
    /// cheapest cycle costs `cpu_pj_per_cycle`, so an interval of energy
    /// `EB = tbpf × cpu_pj_per_cycle` never spans more than `tbpf`
    /// cycles.
    fn eb_for_tbpf(table: &CostTable, tbpf: u64) -> Energy {
        Energy::from_pj(table.cpu_pj_per_cycle) * tbpf
    }

    #[test]
    fn compiles_and_runs_crc_continuously() {
        let m = schematic_benchsuite::crc::build(1);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(eb_for_tbpf(&table, 10_000));
        let compiled = compile(&m, &table, &config).unwrap();
        assert!(compiled.report.is_sound());
        let out = run(&compiled.instrumented, RunConfig::default()).unwrap();
        assert!(out.completed());
        assert_eq!(out.result, Some(schematic_benchsuite::crc::oracle(1)));
        assert_eq!(out.metrics.coherence_violations, 0);
        assert!(out.metrics.peak_vm_bytes <= config.svm_bytes);
    }

    #[test]
    fn crc_survives_intermittent_power_with_no_reexecution() {
        let tbpf = 10_000;
        let m = schematic_benchsuite::crc::build(2);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(eb_for_tbpf(&table, tbpf));
        let compiled = compile(&m, &table, &config).unwrap();
        let out = Machine::new(&compiled.instrumented, &table, RunConfig::periodic(tbpf))
            .run()
            .unwrap();
        assert!(out.completed(), "status = {:?}", out.status);
        assert_eq!(out.result, Some(schematic_benchsuite::crc::oracle(2)));
        // The headline guarantees: no mid-interval failures, no rollback
        // re-execution energy (§IV-D).
        assert_eq!(out.metrics.unexpected_failures, 0);
        assert_eq!(out.metrics.reexecution, Energy::ZERO);
        assert!(out.metrics.checkpoints_committed > 0);
        assert!(out.metrics.sleep_events > 0);
    }

    #[test]
    fn uses_vm_when_profitable() {
        let tbpf = 10_000;
        let m = schematic_benchsuite::crc::build(3);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(eb_for_tbpf(&table, tbpf));
        let compiled = compile(&m, &table, &config).unwrap();
        let out = run(&compiled.instrumented, RunConfig::default()).unwrap();
        assert!(
            out.metrics.vm_reads + out.metrics.vm_writes > 0,
            "SCHEMATIC should place hot variables in VM"
        );
    }

    #[test]
    fn all_nvm_ablation_uses_no_vm() {
        let tbpf = 10_000;
        let m = schematic_benchsuite::crc::build(3);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(eb_for_tbpf(&table, tbpf)).all_nvm();
        let compiled = compile(&m, &table, &config).unwrap();
        let out = run(&compiled.instrumented, RunConfig::default()).unwrap();
        assert_eq!(out.metrics.vm_reads + out.metrics.vm_writes, 0);
        assert_eq!(out.metrics.peak_vm_bytes, 0);
    }

    #[test]
    fn schematic_beats_all_nvm_on_computation_energy() {
        // Fig. 7's shape: VM allocation reduces computation energy.
        let tbpf = 10_000;
        let m = schematic_benchsuite::crc::build(1);
        let table = CostTable::msp430fr5969();
        let hybrid = compile(&m, &table, &SchematicConfig::new(eb_for_tbpf(&table, tbpf))).unwrap();
        let nvm = compile(
            &m,
            &table,
            &SchematicConfig::new(eb_for_tbpf(&table, tbpf)).all_nvm(),
        )
        .unwrap();
        let h = run(&hybrid.instrumented, RunConfig::default()).unwrap();
        let n = run(&nvm.instrumented, RunConfig::default()).unwrap();
        assert!(
            h.metrics.computation < n.metrics.computation,
            "hybrid {} vs all-NVM {}",
            h.metrics.computation,
            n.metrics.computation
        );
    }

    #[test]
    fn invalid_module_is_rejected() {
        let m = Module::new("empty"); // no entry function
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(Energy::from_uj(4));
        // Module with no functions fails IR verification via entry check
        // only when entry set; an empty module compiles trivially? The
        // entry_func panic is avoided by the explicit check below.
        let mut m2 = m;
        m2.entry = Some(schematic_ir::FuncId(0));
        let err = compile(&m2, &table, &config).unwrap_err();
        assert!(matches!(err, PlacementError::InvalidModule { .. }));
    }

    #[test]
    fn functions_are_handled() {
        // bitcount calls three helpers per element — exercises callee
        // summaries and barriers.
        let tbpf = 10_000;
        let m = schematic_benchsuite::bitcount::build(4);
        let table = CostTable::msp430fr5969();
        let config = SchematicConfig::new(eb_for_tbpf(&table, tbpf));
        let compiled = compile(&m, &table, &config).unwrap();
        let out = Machine::new(&compiled.instrumented, &table, RunConfig::periodic(tbpf))
            .run()
            .unwrap();
        assert!(out.completed(), "status = {:?}", out.status);
        assert_eq!(out.result, Some(schematic_benchsuite::bitcount::oracle(4)));
        assert_eq!(out.metrics.unexpected_failures, 0);
        assert_eq!(out.metrics.reexecution, Energy::ZERO);
    }
}

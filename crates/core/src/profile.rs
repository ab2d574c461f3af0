//! Path profiling (§III-A.3).
//!
//! SCHEMATIC prioritizes paths by execution frequency, gathered from
//! emulator traces. A trace is the flat `(FuncId, BlockId)` sequence of
//! one continuous-power run; per-function paths are extracted by
//! filtering to one function's blocks and cutting at back-edges (so
//! every path is acyclic), then ranked by decreasing frequency.
//!
//! A profile is a pure function of the module, the cost table and the
//! run count, so [`Profile::shared`] memoises it process-wide under a
//! content digest of those three: a grid that compiles the same kernel
//! for many cells profiles it once.

use schematic_emu::{InstrumentedModule, Machine, RunConfig};
use schematic_energy::CostTable;
use schematic_ir::hash::{hash_module_into, Digest, StableHasher};
use schematic_ir::{paths_from_trace, BlockId, Cfg, Dominators, FuncId, LoopForest, Module, Path};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// One memo slot per content digest. The slot is created under the map
/// lock but filled outside it, so distinct programs profile in parallel
/// while concurrent requests for the same program wait for one
/// collection.
type Slot = Arc<OnceLock<Arc<Profile>>>;

static MEMO: Mutex<BTreeMap<Digest, Slot>> = Mutex::new(BTreeMap::new());

/// Entries kept before the memo starts over. A grid holds a few dozen
/// distinct programs; the cap only bounds a long-lived process that
/// compiles an unbounded stream of them.
const MEMO_CAP: usize = 4096;

/// Ranked execution paths per function.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    per_func: HashMap<FuncId, Vec<(Path, u64)>>,
}

impl Profile {
    /// Builds an empty profile (structural coverage only).
    pub fn empty() -> Self {
        Profile::default()
    }

    /// Extracts per-function paths from one flat trace.
    pub fn from_trace(module: &Module, trace: &[(FuncId, BlockId)]) -> Self {
        let mut p = Profile::default();
        p.add_trace(module, trace);
        p
    }

    /// Merges one more trace into the profile.
    pub fn add_trace(&mut self, module: &Module, trace: &[(FuncId, BlockId)]) {
        for (fid, _) in module.iter_funcs() {
            let blocks: Vec<BlockId> = trace
                .iter()
                .filter(|(f, _)| *f == fid)
                .map(|(_, b)| *b)
                .collect();
            if blocks.is_empty() {
                continue;
            }
            let func = module.func(fid);
            let cfg = Cfg::new(func);
            let dom = Dominators::new(&cfg);
            let forest = LoopForest::new(func, &cfg, &dom);
            let paths = paths_from_trace(&blocks, |from, to| {
                cfg.has_edge(from, to) && !forest.is_back_edge(from, to)
            });
            let entry = self.per_func.entry(fid).or_default();
            for path in paths {
                match entry.iter_mut().find(|(p, _)| *p == path) {
                    Some((_, n)) => *n += 1,
                    None => entry.push((path, 1)),
                }
            }
        }
        // Keep ranked by decreasing frequency; ties broken by longer
        // paths first (they constrain more).
        for paths in self.per_func.values_mut() {
            paths.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.len().cmp(&a.0.len())));
        }
    }

    /// Collects a profile by running `module` under continuous power
    /// `runs` times with tracing. Runs are deterministic, so additional
    /// runs of the *same* module reinforce the same paths; callers
    /// wanting input diversity pass sibling modules built from different
    /// seeds via repeated [`Profile::add_trace`].
    pub fn collect(module: &Module, table: &CostTable, runs: usize) -> Self {
        let im = InstrumentedModule::bare(module.clone());
        let mut profile = Profile::default();
        // Bound the profiling run: path frequencies stabilize long
        // before the default 2-billion-cycle emulator budget, and an
        // unbounded (or very long) program must not hang compilation.
        let cfg = RunConfig {
            max_active_cycles: 20_000_000,
            ..RunConfig::profiling()
        };
        let out = Machine::new(&im, table, cfg)
            .run()
            .expect("profiling run must not trap");
        profile.add_trace(module, &out.trace);
        // Continuous-power runs of a fixed module are deterministic, so
        // the remaining `runs − 1` traces would be identical — scale the
        // counts instead of re-emulating.
        let reps = runs.max(1) as u64;
        if reps > 1 {
            for paths in profile.per_func.values_mut() {
                for (_, n) in paths.iter_mut() {
                    *n *= reps;
                }
            }
        }
        profile
    }

    /// [`Profile::collect`], memoised for the life of the process under
    /// a digest of `module`, `table` and `runs`. Collection is
    /// deterministic, so a hit returns exactly the profile a fresh
    /// collection would. Counts `compile/profile_hit` or
    /// `compile/profile_miss` when observation is on.
    pub fn shared(module: &Module, table: &CostTable, runs: usize) -> Arc<Profile> {
        let mut h = StableHasher::new();
        hash_module_into(&mut h, module);
        table.identity_into(&mut h);
        h.write_usize(runs);
        let key = h.finish();
        let slot = {
            // A panic elsewhere cannot leave the map half-updated (every
            // mutation is one insert or clear), so a poisoned lock still
            // guards consistent data.
            let mut map = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
            if map.len() >= MEMO_CAP && !map.contains_key(&key) {
                map.clear();
            }
            Arc::clone(map.entry(key).or_default())
        };
        let mut missed = false;
        let profile = slot.get_or_init(|| {
            missed = true;
            Arc::new(Profile::collect(module, table, runs))
        });
        schematic_obs::count(
            if missed {
                "compile/profile_miss"
            } else {
                "compile/profile_hit"
            },
            1,
        );
        Arc::clone(profile)
    }

    /// Ranked `(path, count)` pairs for a function (empty slice if the
    /// function never executed).
    pub fn paths(&self, f: FuncId) -> &[(Path, u64)] {
        self.per_func.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of distinct paths across all functions.
    pub fn len(&self) -> usize {
        self.per_func.values().map(Vec::len).sum()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic_ir::{CmpOp, FunctionBuilder, ModuleBuilder, Variable};

    fn looped_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.var(Variable::scalar("x"));
        let mut f = FunctionBuilder::new("main", 0);
        let header = f.new_block("header");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        let i = f.copy(0);
        f.br(header);
        f.switch_to(header);
        f.set_max_iters(header, 4);
        let c = f.cmp(CmpOp::SGe, i, 3);
        f.cond_br(c, exit, body);
        f.switch_to(body);
        let v = f.load_scalar(x);
        f.store_scalar(x, v);
        let i2 = f.bin(schematic_ir::BinOp::Add, i, 1);
        f.copy_to(i, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(None);
        let main = mb.func(f.finish());
        mb.finish(main)
    }

    #[test]
    fn collect_ranks_loop_paths_by_frequency() {
        let m = looped_module();
        let profile = Profile::collect(&m, &CostTable::msp430fr5969(), 2);
        let main = m.entry_func();
        let paths = profile.paths(main);
        assert!(!paths.is_empty());
        // The (header, body) path repeats 3x per run, making it the most
        // frequent; the entry prefix and the exit path occur once each.
        assert!(paths[0].1 >= paths.last().unwrap().1);
        let hot = &paths[0].0;
        assert!(hot.blocks().contains(&BlockId(1)));
        assert!(!profile.is_empty());
        assert!(profile.len() >= 2);
    }

    #[test]
    fn from_trace_cuts_at_back_edges() {
        let m = looped_module();
        let main = m.entry_func();
        let h = BlockId(1);
        let b = BlockId(2);
        let trace = vec![
            (main, BlockId(0)),
            (main, h),
            (main, b),
            (main, h),
            (main, b),
            (main, h),
            (main, BlockId(3)),
        ];
        let p = Profile::from_trace(&m, &trace);
        let paths = p.paths(main);
        // Paths: [entry,h,b] once, [h,b] once, [h,exit] once.
        assert_eq!(paths.iter().map(|(_, n)| *n).sum::<u64>(), 3);
        for (path, _) in paths {
            // All acyclic.
            let mut seen = std::collections::HashSet::new();
            assert!(path.blocks().iter().all(|b| seen.insert(*b)));
        }
    }

    #[test]
    fn unexecuted_function_has_no_paths() {
        let m = looped_module();
        let p = Profile::empty();
        assert!(p.paths(m.entry_func()).is_empty());
    }
}

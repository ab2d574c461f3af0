//! Exactness of the process-wide profile memo ([`Profile::shared`]).
//!
//! A compile whose profile comes from the memo must be bit-identical to
//! one that collected the profile itself: for every kernel at three
//! energy budgets, a cold-memo compile, a warm-memo compile and a
//! compile handed a freshly collected profile give the same
//! instrumented-program digest and the same placement report; the
//! hit/miss counters show the memo state each compile met. Racing
//! compiles of one program collect its profile exactly once.

use schematic_core::transform::split_large_blocks;
use schematic_core::{compile, compile_with_profile, Profile, SchematicConfig};
use schematic_energy::{CostTable, Energy};
use schematic_ir::hash_module;
use schematic_obs as obs;
use std::collections::HashSet;

/// The three TBPF settings of the paper's grid, as energy budgets.
const TBPFS: [u64; 3] = [1_000, 10_000, 100_000];

fn eb(table: &CostTable, tbpf: u64) -> Energy {
    Energy::from_pj(table.cpu_pj_per_cycle) * tbpf
}

/// `(hits, misses)` the memo counted while `f` ran on this thread.
fn memo_counts<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (value, reg) = obs::capture(f);
    let get = |name: &str| reg.counters.get(name).copied().unwrap_or(0);
    (
        value,
        get("compile/profile_hit"),
        get("compile/profile_miss"),
    )
}

#[test]
fn memoised_profiles_compile_bit_identically() {
    obs::set_enabled(true);
    let table = CostTable::msp430fr5969();
    let mut seen = HashSet::new();
    let mut split_cases = 0;
    for b in schematic_benchsuite::all() {
        let module = (b.build)(1);
        for tbpf in TBPFS {
            let config = SchematicConfig::new(eb(&table, tbpf));
            let what = format!("{} at TBPF {tbpf}", b.name);

            // Budgets that split nothing profile the same program, so
            // only the first compile of each post-split module misses.
            let mut split = module.clone();
            split_large_blocks(&mut split, &table, config.eb).unwrap();
            let first = seen.insert(hash_module(&split));

            let (cold, hits, misses) = memo_counts(|| compile(&module, &table, &config));
            let cold = cold.unwrap_or_else(|e| panic!("{what}: {e}"));
            let expect = if first { (0, 1) } else { (1, 0) };
            assert_eq!(
                (hits, misses),
                expect,
                "{what}: memo state before compiling"
            );

            let (warm, hits, misses) = memo_counts(|| compile(&module, &table, &config));
            let warm = warm.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!((hits, misses), (1, 0), "{what}: second compile hits");

            // A profile collected by hand on the unsplit module. When the
            // pre-pass splits blocks it is ignored and the memo answers.
            let fresh = Profile::collect(&module, &table, config.profile_runs);
            let (given, hits, _) =
                memo_counts(|| compile_with_profile(&module, &table, &config, Some(&fresh)));
            let given = given.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(hits, u64::from(given.splits > 0), "{what}");

            let digest = cold.instrumented.stable_digest();
            assert_eq!(warm.instrumented.stable_digest(), digest, "{what}");
            assert_eq!(given.instrumented.stable_digest(), digest, "{what}");
            assert_eq!(warm.report, cold.report, "{what}");
            assert_eq!(given.report, cold.report, "{what}");
            assert_eq!(warm.splits, cold.splits, "{what}");
            assert_eq!(given.splits, cold.splits, "{what}");
            if cold.splits > 0 {
                split_cases += 1;
            }
        }
    }
    assert!(
        split_cases > 0,
        "some case exercises the block-splitting path"
    );
}

#[test]
fn concurrent_compiles_profile_once_and_agree() {
    obs::set_enabled(true);
    let table = CostTable::msp430fr5969();
    let b = schematic_benchsuite::by_name("crc").expect("crc exists");
    // A seed no other test in this process compiles: the memo is cold.
    let module = (b.build)(0xC0FFEE);
    let config = SchematicConfig::new(eb(&table, 10_000));
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(|| memo_counts(|| compile(&module, &table, &config))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let digests: Vec<_> = results
        .iter()
        .map(|(c, _, _)| c.as_ref().unwrap().instrumented.stable_digest())
        .collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
    let misses: u64 = results.iter().map(|r| r.2).sum();
    let hits: u64 = results.iter().map(|r| r.1).sum();
    assert_eq!((hits, misses), (3, 1));
}

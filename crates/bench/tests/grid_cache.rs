//! Cache parity over the quick grid: a warm, fully cache-served run
//! must render byte-identically to the cold run that populated it, and
//! invalidating one cell's record must recompute exactly that cell —
//! the incremental contract `gridrun --cache` on a partial shard
//! artifact and `gridd` build on. The cold run is also pinned against
//! the checked-in goldens: the quick render
//! (`tests/goldens/render_quick.txt`, what `gridrun --quick` prints) and
//! the region-class histogram of its `sound` cells
//! (`tests/goldens/region_classes.txt`, the `^hist ` lines of `gridrun
//! --quick --report soundcheck --explain`). After a deliberate change,
//! re-record them with
//!
//! ```text
//! target/release/gridrun --quick --no-cache > tests/goldens/render_quick.txt
//! target/release/gridrun --quick --no-cache --report soundcheck --explain \
//!     | grep '^hist ' > tests/goldens/region_classes.txt
//! ```

use schematic_bench::cache::{self, CellCache, SourceDigests};
use schematic_bench::experiments::{render_all, render_region_classes};
use schematic_bench::grid::{evaluate_traced, GridMode, GridSpec};
use schematic_energy::CostTable;
use schematic_ir::hash::Digest;

#[test]
fn warm_quick_grid_is_free_and_byte_identical() {
    let path = std::env::temp_dir().join(format!("gridcache-parity-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let spec = GridSpec::full_grid(GridMode::Quick);

    // Cold: everything computes, the cache fills.
    let mut cold_cache = CellCache::open(&path);
    let (cold_store, cold) =
        cache::compute_cached(spec.jobs(), Some(&mut cold_cache), false).unwrap();
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.computed, spec.len());
    let cold_render = render_all(&cold_store, GridMode::Quick);
    assert_eq!(
        cold_render,
        include_str!("../../../tests/goldens/render_quick.txt"),
        "quick render drifted from tests/goldens/render_quick.txt"
    );
    assert_eq!(
        render_region_classes(&cold_store, GridMode::Quick),
        include_str!("../../../tests/goldens/region_classes.txt"),
        "region-class histogram drifted from tests/goldens/region_classes.txt"
    );

    // Warm, from a fresh process's view of the file: zero computes,
    // byte-identical artifact and render.
    let mut warm_cache = CellCache::open(&path);
    assert_eq!(warm_cache.len(), spec.len());
    let (warm_store, warm) =
        cache::compute_cached(spec.jobs(), Some(&mut warm_cache), false).unwrap();
    assert_eq!((warm.hits, warm.computed), (spec.len(), 0));
    assert_eq!(warm_store.to_jsonl(), cold_store.to_jsonl());
    assert_eq!(render_all(&warm_store, GridMode::Quick), cold_render);

    // Invalidation: poison one job's record — as if its benchmark's
    // compiled program changed under the same memo key — and exactly
    // that cell recomputes.
    let table = CostTable::msp430fr5969();
    let victim = spec.jobs()[spec.len() / 2].clone();
    let (value, ims) = evaluate_traced(&victim, &table);
    let mut poisoned = cache::keyed_line(victim, value, ims, &table, &mut SourceDigests::new());
    poisoned.ims = Some(vec![Digest { hi: 1, lo: 1 }]);
    warm_cache.put([poisoned]);
    let (healed_store, healed) =
        cache::compute_cached(spec.jobs(), Some(&mut warm_cache), false).unwrap();
    assert_eq!((healed.hits, healed.computed), (spec.len() - 1, 1));
    assert_eq!(healed_store.to_jsonl(), cold_store.to_jsonl());

    let _ = std::fs::remove_file(&path);
}

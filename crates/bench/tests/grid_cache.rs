//! Cache parity over the quick grid: a warm, fully cache-served run
//! must render byte-identically to the cold run that populated it, and
//! invalidating one cell's record must recompute exactly that cell —
//! the incremental contract `gridrun --cache` on a partial shard
//! artifact and `gridd` build on. The cold run is also pinned against
//! the checked-in goldens: the quick render
//! (`tests/goldens/render_quick.txt`, what `gridrun --quick` prints) and
//! the region-class histogram of its `sound` cells
//! (`tests/goldens/region_classes.txt`, the `^hist ` lines of `gridrun
//! --quick --report soundcheck --explain`). Each report rendered from
//! only its own slice of the grid (`gridrun --quick --report NAME`)
//! must equal its section of the quick render. After a deliberate
//! change, re-record the goldens with
//!
//! ```text
//! target/release/gridrun --quick --no-cache > tests/goldens/render_quick.txt
//! target/release/gridrun --quick --no-cache --report soundcheck --explain \
//!     | grep '^hist ' > tests/goldens/region_classes.txt
//! ```

use schematic_bench::cache::{self, CellCache, SourceDigests};
use schematic_bench::experiments::{render, render_all, render_region_classes};
use schematic_bench::grid::{evaluate_traced, CellStore, GridMode, GridSpec, Job, ALL_REPORTS};
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
    // Each report alone, from a store of only its slice's cells (copied
    // from the cold store, nothing recomputed), renders its section of
    // the quick render: the text between its banner (plus the blank
    // line after it) and the blank line before the next banner.
    for id in ALL_REPORTS {
        let mut slice = CellStore::new();
        for job in GridSpec::for_report(id, GridMode::Quick).jobs() {
            let value = cold_store
                .get(job)
                .expect("the full grid covers every slice");
            slice.insert(job.clone(), value.clone()).unwrap();
        }
        let banner = format!("\n================ {} ================\n\n", id.name());
        let start = cold_render
            .find(&banner)
            .expect("every report has a banner")
            + banner.len();
        let rest = &cold_render[start..];
        let section = &rest[..rest.find("\n================ ").unwrap_or(rest.len())];
        assert_eq!(
            render(id, &slice, GridMode::Quick),
            section,
            "`--report {}` differs from its section of the quick render",
            id.name()
        );
    }

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

/// One job of each [`schematic_bench::grid::JobKind`] and its
/// `memo_key`/`cell_key` hex. The cell key is derived over fixed
/// program digests, so the pin covers the key derivation (job fields,
/// scenario, cost table, and the benchmark's source digest in the memo
/// key) and not the compiler's output.
const PINNED_KEYS: [(&str, &str, &str); 8] = [
    (
        "support/Schematic/crc/0",
        "3c8071cec33bbc9b05a7c19f658bcfae",
        "fbdfb5f0db317bbb9a12e3b2a25204ee",
    ),
    (
        "bare/-/crc/0",
        "3b4ebafaf5e3655bd2c5319861fef6d7",
        "bae2d9a74faaa5eb7f0af8013882c4df",
    ),
    (
        "run/Schematic/crc/10000",
        "989d36767d89a8f955c8dc97e7053222",
        "bc511228ba49a6037b29818d49f91bf8",
    ),
    (
        "fig7/Schematic/crc/10000",
        "43ea6ce5e89d0f2b8b63614901c84451",
        "10c749136a83113fe50b804f71222fc8",
    ),
    (
        "ablation/full/crc/10000",
        "8c70287e6e9362b7cee6da47cbd5d33c",
        "7c61b74333080f531598a7aa5f7308ca",
    ),
    (
        "retentive/-/crc/10000",
        "f2a1c4044368d3be44d8f6cc8e3b1ba7",
        "b6d83e59e47bdc40e5a170919fa6300a",
    ),
    (
        "sound/Schematic/crc/10000",
        "b7b5eacb13b9e0c9a8fabf99ec56d6e8",
        "83c3f4efb52d308ea6361bb91ea7e25b",
    ),
    (
        "shadow/Schematic/crc/0",
        "1ab3c3f18a64953e7c82c04d1f916896",
        "df08d98c31577a1e97a359f934083de0",
    ),
];

/// Cache keys are pinned. The keys hash only data (job, scenario, cost
/// table, program digests), never the build: the code is covered by
/// `cache::CODE_IDENTITY`, every record's `schema`, which changes with
/// any edit to the code that computes cells (render-only files aside)
/// and needs no manual bump. So these hex strings stay put across code
/// edits, and moving them is a deliberate change to the key derivation
/// that makes every record on disk miss. To re-record, run this test
/// and paste the `got` table it prints on a mismatch over
/// [`PINNED_KEYS`].
#[test]
fn cache_keys_are_pinned() {
    let table = CostTable::msp430fr5969();
    let mut sources = SourceDigests::new();
    let ims = [Digest { hi: 1, lo: 2 }, Digest { hi: 3, lo: 4 }];
    let got: Vec<(String, String, String)> = PINNED_KEYS
        .iter()
        .map(|&(key, _, _)| {
            let job = Job::parse(key).unwrap();
            let source = sources.digest(&job.benchmark);
            let memo = cache::memo_key(&job, &table, source).to_hex();
            let cell = cache::cell_key(&job, &table, &ims).to_hex();
            (key.to_string(), memo, cell)
        })
        .collect();
    let kinds: std::collections::BTreeSet<_> = PINNED_KEYS
        .iter()
        .map(|&(key, _, _)| Job::parse(key).unwrap().kind.name())
        .collect();
    assert_eq!(kinds.len(), PINNED_KEYS.len(), "one job per kind");
    let want: Vec<(String, String, String)> = PINNED_KEYS
        .iter()
        .map(|&(k, m, c)| (k.to_string(), m.to_string(), c.to_string()))
        .collect();
    if got != want {
        for (key, memo, cell) in &got {
            eprintln!("    (\"{key}\", \"{memo}\", \"{cell}\"),");
        }
        panic!("cache keys moved (got table above)");
    }
}

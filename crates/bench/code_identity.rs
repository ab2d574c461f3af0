// The code identity of grid cells: one 64-bit digest of every source
// file that can change a cell value. `build.rs` embeds it as
// `schematic_bench::cache::CODE_IDENTITY`, and `tests/code_identity.rs`
// recomputes it over the checkout. Files are left out by name, so a new
// file is hashed by default.

/// Directories under `crates/` whose files are hashed.
const CODE_DIRS: [&str; 7] = [
    "baselines/src",
    "bench/src",
    "benchsuite/src",
    "core/src",
    "emu/src",
    "energy/src",
    "ir/src",
];

/// Paths under `crates/` that only render, trace or serve cells: an
/// edit there keeps every cached cell a hit.
const RENDER_ONLY: [&str; 6] = [
    "bench/src/bin",
    "bench/src/experiments.rs",
    "bench/src/json.rs",
    "bench/src/parallel.rs",
    "bench/src/service.rs",
    "bench/src/trace.rs",
];

/// The hashed files as `/`-separated paths relative to `crates`, sorted.
fn code_files(crates: &std::path::Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut pending: Vec<String> = CODE_DIRS.iter().map(|d| d.to_string()).collect();
    while let Some(rel) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(crates.join(&rel)) else {
            files.push(rel);
            continue;
        };
        for entry in entries {
            let name = entry.expect("directory entry").file_name();
            let path = format!("{rel}/{}", name.to_str().expect("UTF-8 file name"));
            if !RENDER_ONLY.contains(&path.as_str()) {
                pending.push(path);
            }
        }
    }
    files.sort();
    files
}

/// A stable hash of each hashed file's path and bytes, in sorted order.
fn code_identity(crates: &std::path::Path) -> u64 {
    let mut h = schematic_ir::hash::StableHasher::new();
    for rel in code_files(crates) {
        h.write_str(&rel);
        h.write_bytes(&std::fs::read(crates.join(&rel)).expect("hashed file reads"));
    }
    h.finish().hi
}

//! The code identity embedded by the build script is the digest of the
//! checkout: a hashed file that changed without the build script
//! rerunning would let cache records of other code answer as hits.

include!("../code_identity.rs");

fn crates() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

#[test]
fn embedded_code_identity_matches_the_checkout() {
    assert_eq!(
        schematic_bench::cache::CODE_IDENTITY,
        code_identity(&crates()),
        "a hashed source changed but the embedded identity did not"
    );
}

#[test]
fn render_only_paths_exist_and_evaluation_files_are_hashed() {
    let files = code_files(&crates());
    for path in RENDER_ONLY {
        assert!(crates().join(path).exists(), "{path} is left out but gone");
        assert!(!files.iter().any(|f| f.starts_with(path)), "{path} hashed");
    }
    for path in [
        "bench/src/grid.rs",
        "bench/src/cache.rs",
        "emu/src/machine.rs",
    ] {
        assert!(files.iter().any(|f| f == path), "{path} not hashed");
    }
}

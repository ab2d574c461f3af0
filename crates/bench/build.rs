//! Embeds the code identity of grid cells (see `code_identity.rs`) for
//! `cache::CODE_IDENTITY`.

include!("code_identity.rs");

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let out = std::env::var("OUT_DIR").expect("cargo sets OUT_DIR");
    println!("cargo:rerun-if-changed=code_identity.rs");
    for dir in CODE_DIRS {
        println!("cargo:rerun-if-changed=../{dir}");
    }
    let identity = code_identity(&std::path::Path::new(&manifest).join(".."));
    let path = std::path::Path::new(&out).join("code_identity");
    std::fs::write(path, format!("{identity:#018x}\n")).expect("OUT_DIR is writable");
}

//! The soundness check gates `gridrun`'s exit status: a FAIL verdict
//! exits 1 even when every cell is served from the cache. The cache key
//! does not hash the value, so a record edited to report a hazardous
//! region is answered as a hit — the same path a stale or corrupt cache
//! would take.

use std::path::{Path, PathBuf};
use std::process::Output;

fn gridrun(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_gridrun"))
        .args(args)
        .output()
        .expect("gridrun starts")
}

/// Runs `gridrun --quick --cache F --report soundcheck` over `cache`.
fn soundcheck(cache: &Path) -> Output {
    let cache = cache.to_str().expect("UTF-8 temp path");
    gridrun(&["--quick", "--cache", cache, "--report", "soundcheck"])
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("soundcheck-gate-{}-{name}", std::process::id()))
}

#[test]
fn fail_verdict_exits_1_from_a_cached_store() {
    let (clean, edited) = (temp("clean.jsonl"), temp("edited.jsonl"));
    let _ = std::fs::remove_file(&clean);

    // Cold: computes the quick soundcheck cells into `clean`.
    let cold = soundcheck(&clean);
    assert_eq!(cold.status.code(), Some(0), "{cold:?}");

    // One Schematic `sound` record edited to report a hazardous region.
    let text = std::fs::read_to_string(&clean).unwrap();
    let victim = "\"kind\":\"sound\",\"technique\":\"Schematic\",\"benchmark\":\"crc\",";
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if line.contains(victim) {
                assert!(line.contains("\"hazardous\":0,"), "{line}");
                line.replace("\"hazardous\":0,", "\"hazardous\":1,")
            } else {
                line.to_string()
            }
        })
        .collect();
    assert_eq!(lines.iter().filter(|l| l.contains(victim)).count(), 1);
    std::fs::write(&edited, lines.join("\n") + "\n").unwrap();

    let failed = soundcheck(&edited);
    let stdout = String::from_utf8_lossy(&failed.stdout);
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(stderr.contains(" 0 computed"), "{stderr}");
    assert!(stdout.contains("\nverdict: FAIL"), "{stdout}");
    assert_eq!(failed.status.code(), Some(1), "{stderr}");

    // The unedited file, served warm, passes.
    let passed = soundcheck(&clean);
    let stdout = String::from_utf8_lossy(&passed.stdout);
    assert!(String::from_utf8_lossy(&passed.stderr).contains(" 0 computed"));
    assert!(stdout.contains("\nverdict: PASS"), "{stdout}");
    assert_eq!(passed.status.code(), Some(0));

    let _ = std::fs::remove_file(&clean);
    let _ = std::fs::remove_file(&edited);
}

#[test]
fn explain_outside_soundcheck_is_a_usage_error() {
    for args in [
        &["--quick", "--explain"][..],
        &["--quick", "--report", "fig6", "--explain"],
    ] {
        let out = gridrun(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

//! Exit statuses of the trace command lines: `gridrun --trace` needs a
//! file, because stdout carries the render, `tracereport --cell` on a
//! cell the artifact holds no trace for is an artifact error, and a
//! `--cell` key that is not a job key is a usage error naming why.

use std::process::{Command, Output};

const GOLDEN_ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/goldens/trace_artifact.jsonl"
);
const GOLDEN_REPORT: &str = include_str!("../../../tests/goldens/trace_report.txt");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts")
}

#[test]
fn trace_to_stdout_is_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_gridrun"), &["--quick", "--trace", "-"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace needs a file"), "{stderr}");
}

#[test]
fn a_cell_without_a_trace_exits_2_and_prints_nothing() {
    let tracereport = env!("CARGO_BIN_EXE_tracereport");
    let out = run(
        tracereport,
        &[GOLDEN_ARTIFACT, "--cell", "run/Nope/crc/10000"],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no trace recorded for cell run/Nope/crc/10000"),
        "{stderr}"
    );

    // A traced cell renders the golden report.
    let out = run(
        tracereport,
        &[
            GOLDEN_ARTIFACT,
            "--cell",
            "run/Schematic/crc/10000",
            "--top",
            "5",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), GOLDEN_REPORT);
}

#[test]
fn a_bad_cell_key_exits_2_with_the_reason() {
    let tracereport = env!("CARGO_BIN_EXE_tracereport");
    for (key, reason) in [
        ("run/Schematic/crc", "got 3 field(s)"),
        ("nope/Schematic/crc/0", "unknown kind \"nope\""),
    ] {
        let out = run(tracereport, &[GOLDEN_ARTIFACT, "--cell", key]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("job key \"{key}\"")), "{stderr}");
        assert!(stderr.contains(reason), "{stderr}");
    }
}

//! SplitMix64-fuzzed round-trip of the cell line codec and the job key
//! grammar, and the golden that pins the cell wire format.
//!
//! Random cells — every kind, every [`Scenario`] variant, metrics with
//! arbitrary `u64` fields, and reason/note strings stuffed with quotes,
//! backslashes, the footnote dagger `†`, newlines, control characters
//! and astral-plane emoji — must survive `encode → decode` bit-exactly,
//! both cell-by-cell and through a whole [`CellStore`] artifact. Job
//! keys (`kind/technique/benchmark/scenario`) round-trip through
//! `Display → Job::parse` the same way. The generator is seeded, so a
//! failing case index reproduces exactly.
//!
//! `tests/goldens/cells.jsonl` was recorded with the tree-building
//! codec the line codec replaced; it must decode and re-encode byte for
//! byte.

use schematic_bench::grid::{
    cell_from_json, write_cell, CellLine, CellStore, CellValue, Job, JobKind, SoundCounts,
};
use schematic_bench::json::Json;
use schematic_bench::{CellOutcome, Scenario};
use schematic_benchsuite::inputs::SplitMix64;
use schematic_emu::{Metrics, RunStatus};
use schematic_energy::Energy;

const CASES: u64 = 512;
const SEED: u64 = 0x6E1D_C0DE;

/// A string built from codec-hostile fragments.
fn tricky_string(rng: &mut SplitMix64) -> String {
    const POOL: [&str; 14] = [
        "a", "Z9", "†", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "🦀", " ", "/",
    ];
    let len = rng.next_u64() % 12;
    (0..len)
        .map(|_| POOL[(rng.next_u64() % POOL.len() as u64) as usize])
        .collect()
}

fn maybe_tricky(rng: &mut SplitMix64) -> Option<String> {
    if rng.next_u64().is_multiple_of(2) {
        Some(tricky_string(rng))
    } else {
        None
    }
}

fn random_metrics(rng: &mut SplitMix64) -> Metrics {
    Metrics {
        computation: Energy::from_pj(rng.next_u64()),
        save: Energy::from_pj(rng.next_u64()),
        restore: Energy::from_pj(rng.next_u64()),
        reexecution: Energy::from_pj(rng.next_u64()),
        cpu_energy: Energy::from_pj(rng.next_u64()),
        vm_access_energy: Energy::from_pj(rng.next_u64()),
        nvm_access_energy: Energy::from_pj(rng.next_u64()),
        active_cycles: rng.next_u64(),
        power_failures: rng.next_u64(),
        checkpoints_committed: rng.next_u64(),
        checkpoints_skipped: rng.next_u64(),
        sleep_events: rng.next_u64(),
        restores: rng.next_u64(),
        implicit_restores: rng.next_u64(),
        implicit_saves: rng.next_u64(),
        unexpected_failures: rng.next_u64(),
        vm_reads: rng.next_u64(),
        vm_writes: rng.next_u64(),
        nvm_reads: rng.next_u64(),
        nvm_writes: rng.next_u64(),
        coherence_violations: rng.next_u64(),
        peak_vm_bytes: rng.next_u64() as usize,
        insts_retired: rng.next_u64(),
    }
}

fn random_status(rng: &mut SplitMix64) -> RunStatus {
    match rng.next_u64() % 4 {
        0 => RunStatus::Completed,
        1 => RunStatus::Livelock,
        2 => RunStatus::CycleLimit,
        _ => RunStatus::FailureLimit,
    }
}

const KINDS: [JobKind; 8] = [
    JobKind::Support,
    JobKind::Bare,
    JobKind::Run,
    JobKind::Fig7,
    JobKind::Ablation,
    JobKind::Retentive,
    JobKind::Sound,
    JobKind::Shadow,
];

/// A random scenario from every variant, honoring the parse-time
/// invariants (stochastic jitter below the mean, trace ids in
/// `[A-Za-z0-9_-]+`) so the spelling is always re-parseable.
fn random_scenario(rng: &mut SplitMix64) -> Scenario {
    match rng.next_u64() % 3 {
        0 => Scenario::periodic(rng.next_u64()),
        1 => {
            let mean_tbpf = rng.next_u64() % 1_000_000 + 2;
            Scenario::Stochastic {
                mean_tbpf,
                jitter: rng.next_u64() % mean_tbpf,
                seed: rng.next_u64(),
            }
        }
        _ => {
            const ID_POOL: &[u8] = b"abcXYZ079_-";
            let len = rng.next_u64() % 12 + 1;
            let id = (0..len)
                .map(|_| ID_POOL[(rng.next_u64() % ID_POOL.len() as u64) as usize] as char)
                .collect();
            Scenario::Trace { id }
        }
    }
}

fn random_cell(rng: &mut SplitMix64) -> (Job, CellValue) {
    let kind = KINDS[(rng.next_u64() % KINDS.len() as u64) as usize];
    let job = Job {
        kind,
        technique: tricky_string(rng),
        benchmark: tricky_string(rng),
        scenario: random_scenario(rng),
    };
    let value = match kind {
        JobKind::Support => CellValue::Support(rng.next_u64().is_multiple_of(2)),
        JobKind::Bare => CellValue::Bare {
            cycles: rng.next_u64(),
            data_bytes: rng.next_u64(),
        },
        JobKind::Run => CellValue::Run {
            outcome: if rng.next_u64().is_multiple_of(2) {
                Some(CellOutcome {
                    status: random_status(rng),
                    correct: rng.next_u64().is_multiple_of(2),
                    metrics: random_metrics(rng),
                })
            } else {
                None
            },
            reason: maybe_tricky(rng),
        },
        JobKind::Fig7 | JobKind::Ablation => CellValue::Measured {
            metrics: if rng.next_u64().is_multiple_of(2) {
                Some(random_metrics(rng))
            } else {
                None
            },
            note: maybe_tricky(rng),
        },
        JobKind::Retentive => CellValue::Retentive {
            deep_pj: rng.next_u64(),
            retentive_pj: rng.next_u64(),
        },
        JobKind::Sound => CellValue::Sound {
            counts: if rng.next_u64().is_multiple_of(2) {
                Some(SoundCounts {
                    regions: rng.next_u64(),
                    idempotent: rng.next_u64(),
                    war_free: rng.next_u64(),
                    shielded: rng.next_u64(),
                    hazardous: rng.next_u64(),
                    placement_sound: rng.next_u64().is_multiple_of(2),
                })
            } else {
                None
            },
            note: maybe_tricky(rng),
        },
        JobKind::Shadow => CellValue::Shadow {
            observed: if rng.next_u64().is_multiple_of(2) {
                Some(rng.next_u64())
            } else {
                None
            },
            unpredicted: rng.next_u64(),
        },
    };
    (job, value)
}

/// Every random cell round-trips bit-exactly through one artifact line,
/// read directly and through the `Json`-tree adapter.
#[test]
fn fuzz_cell_lines_roundtrip() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let (job, value) = random_cell(&mut rng);
        let mut line = String::new();
        write_cell(&mut line, &job, &value);
        assert!(!line.contains('\n'), "case {case}: line-oriented format");
        let parsed = CellLine::parse(&line).unwrap_or_else(|e| panic!("case {case}: {e}\n{line}"));
        assert_eq!(job, parsed.job, "case {case}");
        assert_eq!(value, parsed.value, "case {case}");
        let tree = Json::parse(&line).unwrap_or_else(|e| panic!("case {case}: {e}\n{line}"));
        let (job2, value2) =
            cell_from_json(&tree).unwrap_or_else(|e| panic!("case {case}: {e}\n{line}"));
        assert_eq!(job, job2, "case {case}");
        assert_eq!(value, value2, "case {case}");
    }
}

const GOLDEN: &str = include_str!("../../../tests/goldens/cells.jsonl");

/// The golden covers every value variant and each `None` sub-case,
/// every run status, periodic, stochastic and recorded scenarios, and
/// every escape class in `reason`/`note`; each line decodes and
/// re-encodes byte for byte.
#[test]
fn golden_cells_decode_and_reencode_byte_for_byte() {
    let mut lines = Vec::new();
    for text in GOLDEN.lines() {
        let line = CellLine::parse(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(line, CellLine::plain(line.job.clone(), line.value.clone()));
        let mut again = String::new();
        line.write(&mut again);
        assert_eq!(again, text);
        lines.push(line);
    }
    let store = CellStore::from_jsonl(GOLDEN).unwrap();
    assert_eq!(store.to_jsonl(), GOLDEN);
    for kind in KINDS {
        assert!(lines.iter().any(|l| l.job.kind == kind), "{kind:?}");
    }
    let has = |pred: &dyn Fn(&CellValue) -> bool| lines.iter().any(|l| pred(&l.value));
    assert!(has(&|v| matches!(v, CellValue::Support(false))));
    assert!(has(&|v| matches!(
        v,
        CellValue::Run {
            outcome: None,
            reason: None
        }
    )));
    assert!(has(&|v| matches!(
        v,
        CellValue::Run {
            outcome: None,
            reason: Some(_)
        }
    )));
    assert!(has(&|v| matches!(
        v,
        CellValue::Run {
            outcome: Some(_),
            reason: Some(_)
        }
    )));
    assert!(has(&|v| matches!(
        v,
        CellValue::Measured {
            metrics: None,
            note: None
        }
    )));
    assert!(has(&|v| matches!(
        v,
        CellValue::Measured {
            metrics: None,
            note: Some(_)
        }
    )));
    assert!(has(&|v| matches!(
        v,
        CellValue::Measured {
            metrics: Some(_),
            ..
        }
    )));
    assert!(has(&|v| matches!(
        v,
        CellValue::Sound {
            counts: None,
            note: None
        }
    )));
    assert!(has(&|v| matches!(
        v,
        CellValue::Sound {
            counts: None,
            note: Some(_)
        }
    )));
    assert!(has(&|v| matches!(
        v,
        CellValue::Sound {
            counts: Some(_),
            ..
        }
    )));
    assert!(has(&|v| matches!(
        v,
        CellValue::Shadow { observed: None, .. }
    )));
    assert!(has(&|v| matches!(
        v,
        CellValue::Shadow {
            observed: Some(_),
            ..
        }
    )));
    for status in [
        RunStatus::Completed,
        RunStatus::Livelock,
        RunStatus::CycleLimit,
        RunStatus::FailureLimit,
    ] {
        assert!(
            has(&|v| matches!(v, CellValue::Run { outcome: Some(o), .. } if o.status == status)),
            "{status:?}"
        );
    }
    for scenario in [
        "\"tbpf\":",
        "\"scenario\":\"stoch:",
        "\"scenario\":\"trace:",
    ] {
        assert!(GOLDEN.contains(scenario), "{scenario}");
    }
    for escaped in ["\\\"", "\\\\", "\\n", "\\u0001", "†", "🦀"] {
        assert!(GOLDEN.contains(escaped), "{escaped}");
    }
}

/// Random job keys — every kind crossed with every scenario variant —
/// round-trip bit-exactly through `Display → Job::parse`. Technique and
/// benchmark names draw from the key-safe alphabet (no `/`, the field
/// separator, and no newline, the line separator).
#[test]
fn fuzz_job_keys_roundtrip() {
    const NAMES: [&str; 6] = ["kv", "dnn_0", "sense-9", "B", "ratchet", "x_y-z"];
    let mut rng = SplitMix64::new(SEED ^ 0x5EED);
    for case in 0..CASES {
        let job = Job {
            kind: KINDS[(rng.next_u64() % KINDS.len() as u64) as usize],
            technique: NAMES[(rng.next_u64() % NAMES.len() as u64) as usize].to_string(),
            benchmark: NAMES[(rng.next_u64() % NAMES.len() as u64) as usize].to_string(),
            scenario: random_scenario(&mut rng),
        };
        let key = job.to_string();
        let parsed = Job::parse(&key).unwrap_or_else(|e| panic!("case {case}: {e}\n{key}"));
        assert_eq!(job, parsed, "case {case}: {key}");
    }
}

/// Malformed job keys come back as reasons, not panics or silent
/// fallbacks.
#[test]
fn malformed_job_keys_name_the_field() {
    for (key, needle) in [
        ("run/schematic/kv", "got 3 field(s)"),
        ("warp/schematic/kv/10000", "unknown kind"),
        ("run/schematic/kv/stoch:5", "want stoch:MEAN:JITTER:SEED"),
        ("run/schematic/kv/trace:a.b", "[A-Za-z0-9_-]"),
        ("run/schematic/kv/fast", "want a TBPF"),
    ] {
        let err = Job::parse(key).unwrap_err();
        assert!(err.contains(needle), "{key}: {err}");
    }
}

/// A whole store of random cells round-trips through the JSONL
/// artifact, keys and all.
#[test]
fn fuzz_store_roundtrips() {
    let mut rng = SplitMix64::new(SEED ^ 0xA5A5);
    let mut store = CellStore::new();
    for _ in 0..CASES {
        let (job, value) = random_cell(&mut rng);
        if store.get(&job).is_none() {
            store.insert(job, value).unwrap();
        }
    }
    assert!(store.len() > 100, "collisions should be rare");
    let text = store.to_jsonl();
    assert_eq!(text.lines().count(), store.len(), "one cell per line");
    let decoded = CellStore::from_jsonl(&text).unwrap();
    assert_eq!(decoded, store);
    // Idempotent: re-encoding the decoded store is byte-identical.
    assert_eq!(decoded.to_jsonl(), text);
}

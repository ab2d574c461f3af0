//! Golden tests for the emulator lifecycle event stream plus fuzzing of
//! the trace artifact codec: a roundtrip, and a differential check of
//! the direct line writer/reader against the generic `Json` tree.
//!
//! The golden run (crc × Schematic at the Fig. 6 energy point) pins the
//! cross-checkable invariants of the stream: event counts equal the
//! run's metrics counters, the closing `run_end` snapshot equals the
//! metrics' Fig. 6 energy split exactly, and two identical runs emit
//! identical event vectors.

use schematic_bench::grid::Job;
use schematic_bench::json::Json;
use schematic_bench::trace;
use schematic_bench::{compile_technique, eb_for_tbpf, uj, Scenario, ENERGY_TBPF, SEED};
use schematic_benchsuite::inputs::SplitMix64;
use schematic_emu::{Machine, Metrics, PowerModel, RunConfig, RunStatus};
use schematic_energy::CostTable;
use schematic_obs as obs;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

fn traced_crc_run() -> (RunStatus, Metrics, obs::EventLog) {
    let table = CostTable::msp430fr5969();
    let b = schematic_benchsuite::by_name("crc").expect("crc exists");
    let module = (b.build)(SEED);
    let eb = eb_for_tbpf(&table, ENERGY_TBPF);
    let im = compile_technique("Schematic", &module, &table, eb).expect("compiles");
    let cfg = RunConfig {
        power: PowerModel::Periodic { tbpf: ENERGY_TBPF },
        svm_bytes: usize::MAX / 2,
        max_active_cycles: 4_000_000_000,
        trace: true,
        ..RunConfig::default()
    };
    let (out, reg) = obs::capture(|| Machine::new(&im, &table, cfg).run().expect("no traps"));
    (out.status, out.metrics, reg.events)
}

fn count_kind(events: &obs::EventLog, kind: &str) -> u64 {
    events.iter().filter(|e| e.kind() == kind).count() as u64
}

/// Serializes the tests that flip the process-global obs and trace
/// flags, so one never restores a flag while another is capturing.
static OBS_GATE: Mutex<()> = Mutex::new(());

#[test]
fn golden_crc_epoch_timeline() {
    // One global obs flag; keep enable/disable inside a single test so
    // parallel test threads cannot observe a half-enabled collector.
    let _gate = OBS_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let was = obs::enabled();
    obs::set_enabled(true);
    let (status, metrics, events) = traced_crc_run();
    let (status2, metrics2, events2) = traced_crc_run();
    obs::set_enabled(was);

    assert_eq!(status, RunStatus::Completed);
    assert!(!events.is_empty(), "traced run emitted events");

    // Deterministic: the identical run replays the identical stream.
    assert_eq!(status, status2);
    assert_eq!(metrics, metrics2);
    assert_eq!(events, events2);

    // The stream is bracketed by exactly one run_start / run_end.
    assert_eq!(count_kind(&events, "run_start"), 1);
    assert_eq!(count_kind(&events, "run_end"), 1);
    assert_eq!(events.first().unwrap().kind(), "run_start");
    assert_eq!(events.last().unwrap().kind(), "run_end");
    assert_eq!(events.first().unwrap().u64_field("tbpf"), Some(ENERGY_TBPF));
    // The scenario label tells a timeline reader which supply (and
    // seed/trace) produced it.
    assert_eq!(
        events.first().unwrap().str_field("scenario"),
        Some(ENERGY_TBPF.to_string().as_str())
    );

    // Lifecycle event counts cross-check the metrics counters.
    assert_eq!(
        count_kind(&events, "checkpoint_commit"),
        metrics.checkpoints_committed
    );
    assert_eq!(
        count_kind(&events, "checkpoint_skip"),
        metrics.checkpoints_skipped
    );
    assert_eq!(count_kind(&events, "power_failure"), metrics.power_failures);
    assert_eq!(count_kind(&events, "sleep"), metrics.sleep_events);

    // The run_end snapshot reproduces the Fig. 6 split exactly.
    let end = events.last().unwrap();
    assert_eq!(end.u64_field("comp_pj"), Some(metrics.computation.as_pj()));
    assert_eq!(end.u64_field("save_pj"), Some(metrics.save.as_pj()));
    assert_eq!(end.u64_field("restore_pj"), Some(metrics.restore.as_pj()));
    assert_eq!(
        end.u64_field("reexec_pj"),
        Some(metrics.reexecution.as_pj())
    );
    assert_eq!(end.u64_field("cycles"), Some(metrics.active_cycles));
    assert_eq!(end.field("status"), Some(obs::ValueRef::Str("completed")));

    // Snapshots are cumulative: every Fig. 6 component is monotone.
    let mut prev = [0u64; 4];
    for ev in events.iter() {
        let snap = [
            ev.u64_field("comp_pj").unwrap(),
            ev.u64_field("save_pj").unwrap(),
            ev.u64_field("restore_pj").unwrap(),
            ev.u64_field("reexec_pj").unwrap(),
        ];
        for (p, s) in prev.iter().zip(snap) {
            assert!(s >= *p, "snapshot went backwards in {}", ev.kind());
        }
        prev = snap;
    }

    // The rendered timeline's closing line carries the exact µJ figures
    // the grid reports print for this cell.
    let t = trace::CellTrace {
        job: Job::run("Schematic", "crc", ENERGY_TBPF),
        wall_nanos: 0,
        spans: Default::default(),
        counters: Default::default(),
        events,
    };
    let timeline = trace::render_timeline(&t);
    assert!(timeline.contains("Fig. 6 split"));
    assert!(timeline.contains(&format!("computation {} uJ", uj(metrics.computation))));
    assert!(timeline.contains(&format!("save {} uJ", uj(metrics.save))));
    assert!(timeline.contains(&format!("restore {} uJ", uj(metrics.restore))));
    assert!(timeline.contains(&format!("re-execution {} uJ", uj(metrics.reexecution))));
}

const TIMELINE_GOLDEN: &str =
    include_str!("../../../tests/goldens/timeline_run_Mementos_randmath_1000.txt");

/// The epoch timeline of one quick-grid cell, byte for byte: 256 rows
/// of skipped, torn and committed checkpoints, power failures and
/// restores, with string and integer details and the closing Fig. 6
/// split. The golden was rendered from a `gridrun --quick --trace`
/// artifact; a fresh capture of the one cell renders the same text.
#[test]
fn golden_quick_grid_timeline() {
    let _gate = OBS_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let job = Job::run("Mementos", "randmath", 1_000);
    let (_, traces) = trace::capture_grid(std::slice::from_ref(&job));
    let timeline = trace::render_timeline(&traces[0]);
    for kind in ["checkpoint_commit", "power_failure", "restore"] {
        assert!(timeline.contains(kind), "the golden shows {kind} rows");
    }
    assert_eq!(timeline, TIMELINE_GOLDEN);
}

fn counter(t: &trace::CellTrace, name: &str) -> u64 {
    t.counters.get(name).copied().unwrap_or(0)
}

/// Profiling runs are compile-time work and never traced, so a traced
/// Schematic cell holds exactly one emulator run, and its stream does
/// not depend on whether the profile memo was cold or warm.
#[test]
fn traced_cells_hold_one_run_whatever_the_profile_memo_state() {
    let _gate = OBS_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    // Programs no other test in this process compiles: the first
    // capture meets a cold memo, the second a warm one.
    let jobs = [
        Job::run("Schematic", "fft", ENERGY_TBPF),
        Job::run("Schematic", "bitcount", 1_000),
        Job::run("Rockclimb", "fft", ENERGY_TBPF),
    ];
    let (_, cold) = trace::capture_grid(&jobs);
    let (_, warm) = trace::capture_grid(&jobs);
    let total = |traces: &[trace::CellTrace], name| -> u64 {
        traces.iter().map(|t| counter(t, name)).sum()
    };
    assert!(
        total(&cold, "compile/profile_miss") > 0,
        "cold capture profiles"
    );
    assert_eq!(
        total(&warm, "compile/profile_miss"),
        0,
        "warm capture profiles nothing"
    );
    assert!(
        total(&warm, "compile/profile_hit") > 0,
        "warm capture hits the memo"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.job, w.job);
        assert_eq!(count_kind(&c.events, "run_start"), 1, "{}", c.job);
        assert_eq!(count_kind(&c.events, "run_end"), 1, "{}", c.job);
        assert_eq!(
            c.events, w.events,
            "{}: stream depends on memo state",
            c.job
        );
    }
}

/// Text that exercises every escape path of the codec: quotes,
/// backslashes, the control shorthands, other control characters, DEL,
/// multi-byte and astral (surrogate-pair) characters — or a plain label.
fn random_text(rng: &mut SplitMix64, plain: &str) -> String {
    const PIECES: [&str; 12] = [
        "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "\u{7f}", "µJ", "†", "🦀", "𝄞",
    ];
    if rng.next_u64().is_multiple_of(2) {
        return plain.to_string();
    }
    let mut s = plain.to_string();
    for _ in 0..=rng.next_u64() % 4 {
        s.push_str(PIECES[(rng.next_u64() % PIECES.len() as u64) as usize]);
        if rng.next_u64().is_multiple_of(2) {
            s.push('x');
        }
    }
    s
}

/// An event kind or field name: `plain` (a vocabulary name when the
/// caller passes one) or a noisy variant the log interns.
fn random_name(rng: &mut SplitMix64, plain: &str) -> String {
    if rng.next_u64().is_multiple_of(3) {
        plain.to_string()
    } else {
        random_text(rng, plain)
    }
}

fn random_value(rng: &mut SplitMix64) -> obs::Value {
    if rng.next_u64().is_multiple_of(2) {
        obs::Value::U64(rng.next_u64())
    } else {
        let label = match rng.next_u64() % 4 {
            0 => "completed".to_string(),
            1 => format!("cp{}", rng.next_u64() % 100),
            2 => "weird \"quotes\" \\ and \t tabs\n".to_string(),
            _ => {
                let plain = format!("µJ-label-{}", rng.next_u64() % 10);
                random_text(rng, &plain)
            }
        };
        obs::Value::Str(label)
    }
}

fn random_trace(rng: &mut SplitMix64) -> trace::CellTrace {
    let kinds = ["run_start", "checkpoint_commit", "alloc_pick", "custom"];
    let n_events = (rng.next_u64() % 20) as usize;
    let mut events = obs::EventLog::new();
    for _ in 0..n_events {
        let n_fields = (rng.next_u64() % 5) as usize;
        let kind = kinds[(rng.next_u64() % kinds.len() as u64) as usize];
        let kind = random_name(rng, kind);
        let fields: Vec<(String, obs::Value)> = (0..n_fields)
            .map(|i| {
                let key = ["cp", "words", "comp_pj", "f"][i % 4];
                (random_name(rng, key), random_value(rng))
            })
            .collect();
        events.push(&kind, fields.iter().map(|(k, v)| (k.as_str(), v.clone())));
    }
    let mut spans = BTreeMap::new();
    for i in 0..rng.next_u64() % 4 {
        let stats: &mut obs::PhaseStats = spans
            .entry(random_text(rng, &format!("phase/{i}")))
            .or_default();
        for _ in 0..rng.next_u64() % 1000 {
            // Samples spread over the whole bucket range.
            let v = rng.next_u64() >> (rng.next_u64() % 64);
            stats.calls += 1;
            stats.total_nanos = stats.total_nanos.saturating_add(v);
            stats.hist.record(v);
        }
    }
    let job = match rng.next_u64() % 4 {
        0 => Job::bare("crc"),
        1 => Job::run("Schematic", "fft", rng.next_u64() % 1_000_000),
        2 => Job::run_scenario(
            "Rockclimb",
            "aes",
            Scenario::parse(&format!("stoch:10000:2000:{}", rng.next_u64())).unwrap(),
        ),
        _ => Job::run("Ratchet", "dijkstra", 1000),
    };
    trace::CellTrace {
        job,
        wall_nanos: rng.next_u64(),
        spans,
        counters: [(random_text(rng, "alloc/picks"), rng.next_u64())].into(),
        events,
    }
}

#[test]
fn fuzz_trace_artifact_roundtrip() {
    let mut rng = SplitMix64::new(0x0B5E_ED42);
    for round in 0..200 {
        let n = (rng.next_u64() % 6) as usize;
        let traces: Vec<trace::CellTrace> = (0..n).map(|_| random_trace(&mut rng)).collect();
        let text = trace::to_jsonl(&traces);
        let back = trace::from_jsonl(&text)
            .unwrap_or_else(|e| panic!("round {round}: decode failed: {e}\nartifact:\n{text}"));
        assert_eq!(back, traces, "round {round} roundtrip mismatch");
        // Re-encoding the decoded traces is byte-stable.
        assert_eq!(
            trace::to_jsonl(&back),
            text,
            "round {round} re-encode drift"
        );
    }
}

/// Writes `v` as valid but unusual JSON: spaces and tabs around every
/// token, object keys in reverse order plus an unknown key of every
/// shape, and strings spelled with optional escapes (`\/`, `\u006b`
/// for `k`, `\b`, `\f`, upper-case `\u00XX`, surrogate pairs for
/// astral characters). No newlines, so the result is still one
/// artifact line.
fn write_unusual(v: &Json, out: &mut String) {
    fn string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '/' => out.push_str("\\/"),
                'k' => out.push_str("\\u006b"),
                '\n' => out.push_str("\\n"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04X}", c as u32)),
                c if (c as u32) > 0xFFFF => {
                    let mut units = [0u16; 2];
                    for u in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{u:04x}"));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
    match v {
        Json::Str(s) => string(s, out),
        Json::Arr(items) => {
            out.push_str("[ ");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(" ,\t");
                }
                write_unusual(item, out);
            }
            out.push_str(" ]");
        }
        Json::Obj(pairs) => {
            out.push_str("{\t");
            string("unknown_key", out);
            out.push_str(" : [ null , true,false, 7 ,\"x\\\"y\", { \"nested\" : [ ] } ]");
            for (k, v) in pairs.iter().rev() {
                out.push_str(" , ");
                string(k, out);
                out.push_str("\t:  ");
                write_unusual(v, out);
            }
            out.push_str(" }");
        }
        other => out.push_str(&other.encode()),
    }
}

/// Differential check against the generic tree codec: every line the
/// direct writer produces is what `Json` would produce for the same
/// value, and the direct reader decodes the same trace from any valid
/// spelling of the line.
#[test]
fn fuzz_direct_codec_matches_tree_codec() {
    let mut rng = SplitMix64::new(0x7EE_C0DE);
    for round in 0..256 {
        let t = random_trace(&mut rng);
        let line = trace::to_jsonl(std::slice::from_ref(&t));
        let line = line.strip_suffix('\n').expect("one terminated line");
        let tree = Json::parse(line)
            .unwrap_or_else(|e| panic!("round {round}: tree parse failed: {e}\n{line}"));
        assert_eq!(
            tree.encode(),
            line,
            "round {round}: writer drifted from Json::encode"
        );

        let mut unusual = String::new();
        write_unusual(&tree, &mut unusual);
        assert!(
            Json::parse(&unusual).is_ok(),
            "round {round}: rewritten line is not valid JSON"
        );
        let back = trace::from_jsonl(&unusual)
            .unwrap_or_else(|e| panic!("round {round}: decode failed: {e}\n{unusual}"));
        assert_eq!(
            back,
            vec![t],
            "round {round}: rewritten line decoded differently"
        );
    }
}

//! Model test for the flat event log.
//!
//! A seeded property test drives an `EventLog` through random pushes,
//! ring overflows, spill drains, merges and reassemblies, next to a
//! plain `Vec<(String, Vec<(String, Value)>)>` model of the same
//! stream. Names mix vocabulary names with names the log must intern,
//! and string values carry quotes, backslashes, control bytes and
//! non-ASCII text. After every round the log must equal the model by
//! value, and encode → decode → encode must give identical bytes
//! through both the trace artifact codec and the registry codec.

use schematic_bench::grid::Job;
use schematic_bench::trace::{self, CellTrace};
use schematic_benchsuite::inputs::SplitMix64;
use schematic_obs::codec;
use schematic_obs::json::{write_str, write_u64};
use schematic_obs::{EventLog, Registry, Value, ValueRef};

/// The model: each event as its kind and owned fields.
type Model = Vec<(String, Vec<(String, Value)>)>;

/// Events a round's log holds before the ring drops or the spill
/// drains; small, so every round crosses it.
const CAP: usize = 24;

fn pick<'a>(rng: &mut SplitMix64, from: &[&'a str]) -> &'a str {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

/// A kind or field name: a vocabulary name, or one the log interns.
fn name(rng: &mut SplitMix64) -> String {
    pick(
        rng,
        &[
            "checkpoint_commit",
            "run_end",
            "cp",
            "words",
            "comp_pj",
            "status",
            "tick",
            "i",
            "dæmon \"q\"",
            "back\\slash",
            "ctrl\u{1}\n\t",
            "🦀",
        ],
    )
    .to_string()
}

fn value(rng: &mut SplitMix64) -> Value {
    if rng.next_u64().is_multiple_of(2) {
        return Value::U64(rng.next_u64() >> (rng.next_u64() % 64));
    }
    let mut s = String::new();
    for _ in 0..rng.next_u64() % 4 {
        s.push_str(pick(
            rng,
            &[
                "cp3", "\"", "\\", "\n", "\u{0}", "\u{1f}", "\u{7f}", "µJ", "𝄞", " ",
            ],
        ));
    }
    Value::Str(s)
}

fn random_event(rng: &mut SplitMix64) -> (String, Vec<(String, Value)>) {
    let kind = name(rng);
    let fields = (0..rng.next_u64() % 8)
        .map(|_| (name(rng), value(rng)))
        .collect();
    (kind, fields)
}

fn push(log: &mut EventLog, (kind, fields): &(String, Vec<(String, Value)>)) {
    log.push(kind, fields.iter().map(|(k, v)| (k.as_str(), v.clone())));
}

/// Whether `log` holds exactly the model's events, by value.
fn matches(log: &EventLog, model: &Model) -> bool {
    log.len() == model.len()
        && log.iter().zip(model).all(|(ev, (kind, fields))| {
            ev.kind() == kind
                && ev.fields().len() == fields.len()
                && ev.fields().zip(fields).all(|((k, v), (mk, mv))| {
                    k == mk
                        && match (v, mv) {
                            (ValueRef::U64(a), Value::U64(b)) => a == *b,
                            (ValueRef::Str(a), Value::Str(b)) => a == b,
                            _ => false,
                        }
                })
        })
}

/// A spill chunk line, as streaming capture writes one.
fn spill_line(job: &Job, seq: u64, log: &EventLog, n: usize) -> String {
    let mut line = String::from("{\"spill\":{\"job\":");
    write_str(&mut line, &job.to_string());
    line.push_str(",\"seq\":");
    write_u64(&mut line, seq);
    line.push_str(",\"events\":");
    codec::write_events(&mut line, log.range(0..n));
    line.push_str("}}\n");
    line
}

#[test]
fn the_event_log_matches_a_plain_model() {
    let mut rng = SplitMix64::new(0x10C_0DE1);
    let job = Job::run("Schematic", "crc", 10_000);
    let mut merged = Registry::default();
    let mut merged_model = Model::new();
    for round in 0..120 {
        let spilling = rng.next_u64().is_multiple_of(2);
        let mut log = EventLog::new();
        let mut model = Model::new();
        let (mut dropped, mut spilled) = (0u64, Model::new());
        let mut chunks = Vec::new();
        for _ in 0..rng.next_u64() % 160 {
            if rng.next_u64().is_multiple_of(8) {
                // Merge: another log's events, appended in order.
                let other: Model = (0..rng.next_u64() % 6)
                    .map(|_| random_event(&mut rng))
                    .collect();
                if log.len() + other.len() <= CAP {
                    let mut other_log = EventLog::new();
                    other.iter().for_each(|ev| push(&mut other_log, ev));
                    log.append(&other_log);
                    model.extend(other);
                }
                continue;
            }
            if log.len() == CAP {
                if spilling {
                    // Spill drain: the oldest half streams out as a chunk.
                    chunks.push(spill_line(&job, chunks.len() as u64, &log, CAP / 2));
                    log.remove_front(CAP / 2);
                    spilled.extend(model.drain(..CAP / 2));
                } else {
                    // Ring overflow: the oldest event is dropped.
                    log.remove_front(1);
                    model.remove(0);
                    dropped += 1;
                }
            }
            let ev = random_event(&mut rng);
            push(&mut log, &ev);
            model.push(ev);
        }
        assert!(
            matches(&log, &model),
            "round {round}: log differs from model"
        );

        // The trace artifact: encode → decode → encode is byte-stable,
        // and spill chunks (in any line order) reassemble in front of
        // the resident tail.
        let t = CellTrace {
            job: job.clone(),
            wall_nanos: round,
            phases: Vec::new(),
            counters: Vec::new(),
            events: log.clone(),
            dropped_events: dropped,
            spilled_events: spilled.len() as u64,
        };
        let text = trace::to_jsonl(std::slice::from_ref(&t));
        let back = trace::from_jsonl(&text).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(back, vec![t.clone()], "round {round}");
        assert_eq!(trace::to_jsonl(&back), text, "round {round}");
        chunks.reverse();
        chunks.push(text);
        let whole = trace::from_jsonl(&chunks.concat()).unwrap();
        let mut full = spilled;
        full.extend(model.iter().cloned());
        assert!(
            matches(&whole[0].events, &full),
            "round {round}: reassembly"
        );

        // The registry codec: the same round trip.
        let reg = Registry {
            events: log,
            dropped_events: dropped,
            ..Registry::default()
        };
        let encoded = codec::encode(&reg);
        let decoded = codec::parse(&encoded).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(decoded, reg, "round {round}");
        assert_eq!(codec::encode(&decoded), encoded, "round {round}");

        // Merging registries concatenates their streams.
        merged.merge_from(decoded);
        merged_model.extend(model);
        assert!(
            matches(&merged.events, &merged_model),
            "round {round}: merge"
        );
    }
    assert!(
        merged.events.interned_names() > 0,
        "names beyond the vocabulary"
    );
    assert!(merged.dropped_events > 0, "some round overflowed the ring");
}

//! Model test for the flat event log.
//!
//! A seeded property test drives an `EventLog` through random pushes,
//! appends, clears and registry merges, next to a plain
//! `Vec<(String, Vec<(String, Value)>)>` model of the same stream. Names mix vocabulary names with names the log must intern,
//! and string values carry quotes, backslashes, control bytes and
//! non-ASCII text. After every round the log must equal the model by
//! value, and encode → decode → encode must give identical bytes
//! through both the trace artifact codec and the registry codec.

use schematic_bench::grid::Job;
use schematic_bench::trace::{self, CellTrace};
use schematic_benchsuite::inputs::SplitMix64;
use schematic_obs::codec;
use schematic_obs::{EventLog, Registry, Value, ValueRef};

/// The model: each event as its kind and owned fields.
type Model = Vec<(String, Vec<(String, Value)>)>;

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

#[test]
fn the_event_log_matches_a_plain_model() {
    let mut rng = SplitMix64::new(0x10C_0DE1);
    let job = Job::run("Schematic", "crc", 10_000);
    let mut merged = Registry::default();
    let mut merged_model = Model::new();
    for round in 0..120 {
        let mut log = EventLog::new();
        let mut model = Model::new();
        for _ in 0..rng.next_u64() % 160 {
            match rng.next_u64() % 32 {
                0 => {
                    // Clear: the log empties and is refilled from scratch.
                    log.clear();
                    model.clear();
                    continue;
                }
                1..=4 => {
                    // Append: another log's events, in order.
                    let other: Model = (0..rng.next_u64() % 6)
                        .map(|_| random_event(&mut rng))
                        .collect();
                    let mut other_log = EventLog::new();
                    other.iter().for_each(|ev| push(&mut other_log, ev));
                    log.append(&other_log);
                    model.extend(other);
                    continue;
                }
                _ => {}
            }
            let ev = random_event(&mut rng);
            push(&mut log, &ev);
            model.push(ev);
        }
        assert!(
            matches(&log, &model),
            "round {round}: log differs from model"
        );

        // The trace artifact: encode → decode → encode is byte-stable.
        let t = CellTrace {
            job: job.clone(),
            wall_nanos: round,
            spans: Default::default(),
            counters: Default::default(),
            events: log.clone(),
        };
        let text = trace::to_jsonl(std::slice::from_ref(&t));
        let back = trace::from_jsonl(&text).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(back, vec![t], "round {round}");
        assert!(matches(&back[0].events, &model), "round {round}: decode");
        assert_eq!(trace::to_jsonl(&back), text, "round {round}");

        // The registry codec: the same round trip.
        let reg = Registry {
            events: log,
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
}

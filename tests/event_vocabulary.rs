//! The event vocabulary is complete: every event kind and field name
//! the emulator and the compiler emit has a fixed id in
//! `schematic_obs::VOCABULARY`.
//!
//! An event log stores vocabulary names as fixed ids and interns every
//! other name once per log, both when recording and when decoding. A
//! name missing from the vocabulary still round-trips, but costs a
//! lookup table entry in every log, and the writers spell it out
//! through the escaping path instead of pre-quoted text. This test
//! makes that drift fail loudly instead: it captures traced emulator
//! runs under each power model plus compiles with the collector on,
//! and requires every captured name to be a vocabulary name, before
//! and after a codec round trip.

use schematic_obs::{self as obs, codec, Event, Registry};
use schematic_repro::baselines;
use schematic_repro::benchsuite;
use schematic_repro::emu::{trace, Machine, PowerModel, RunConfig};
use schematic_repro::energy::{CostTable, Energy};
use schematic_repro::schematic::{compile, SchematicConfig};
use std::collections::BTreeSet;

const TBPF: u64 = 10_000;

fn names<'a>(ev: Event<'a>) -> impl Iterator<Item = &'a str> {
    std::iter::once(ev.kind()).chain(ev.fields().map(|(k, _)| k))
}

/// Compiles rc4 with SCHEMATIC under a tight budget, and `crc` with
/// SCHEMATIC and every baseline that supports it, then runs the crc
/// SCHEMATIC binary traced under periodic, stochastic
/// and continuous power and each baseline under periodic power — all
/// inside one capture.
fn capture_everything() -> Registry {
    let table = CostTable::msp430fr5969();
    let eb = Energy::from_pj(table.cpu_pj_per_cycle) * TBPF;
    let module = (benchsuite::by_name("crc").expect("crc exists").build)(3);
    let traced = |power| RunConfig {
        power,
        svm_bytes: usize::MAX / 2,
        trace: true,
        ..RunConfig::default()
    };
    let was = obs::enabled();
    obs::set_enabled(true);
    let ((), reg) = obs::capture(|| {
        // A tight budget on rc4 makes placement repair log `patch_round`s.
        let rc4 = (benchsuite::by_name("rc4").expect("rc4 exists").build)(3);
        let tight = Energy::from_pj(table.cpu_pj_per_cycle) * 1_000;
        compile(&rc4, &table, &SchematicConfig::new(tight)).expect("rc4 compiles");
        let compiled = compile(&module, &table, &SchematicConfig::new(eb)).expect("compiles");
        for power in [
            PowerModel::Periodic { tbpf: TBPF },
            PowerModel::Stochastic {
                mean_tbpf: TBPF,
                jitter: TBPF / 5,
                seed: 3,
            },
            PowerModel::Continuous,
        ] {
            let out = Machine::new(&compiled.instrumented, &table, traced(power))
                .run()
                .expect("no traps");
            assert!(out.completed(), "{power:?}: {:?}", out.status);
        }
        for tech in baselines::all() {
            if !tech.supports(&module, usize::MAX / 2) {
                continue;
            }
            let im = tech.compile(&module, &table, eb).expect("compiles");
            let power = PowerModel::Periodic { tbpf: TBPF };
            Machine::new(&im, &table, traced(power))
                .run()
                .expect("no traps");
        }
    });
    obs::set_enabled(was);
    reg
}

#[test]
fn every_emitted_name_is_interned_and_round_trips() {
    let reg = capture_everything();

    let mut kinds = BTreeSet::new();
    for ev in reg.events.iter() {
        kinds.insert(ev.kind());
        for n in names(ev) {
            assert!(
                obs::VOCABULARY.contains(&n),
                "'{n}' in a '{}' event is missing from obs::VOCABULARY",
                ev.kind()
            );
        }
    }
    assert_eq!(reg.events.interned_names(), 0);
    // Non-vacuity: the capture holds the compiler's decision log, both
    // ends of every run, and each lifecycle class these runs reach.
    for kind in [
        "alloc_pick",
        "patch_round",
        "run_start",
        "boot",
        "checkpoint_commit",
        "power_failure",
        "restore",
        "run_end",
    ] {
        assert!(
            kinds.contains(kind),
            "no '{kind}' event captured: {kinds:?}"
        );
    }
    // Lifecycle kinds all come from the emulator's published list.
    for kind in &kinds {
        assert!(
            trace::EVENT_KINDS.contains(kind) || ["alloc_pick", "patch_round"].contains(kind),
            "unexpected event kind '{kind}'"
        );
    }

    // The registry crosses the wire unchanged, and decoding interns.
    let back = codec::parse(&codec::encode(&reg)).expect("registry decodes");
    assert_eq!(back, reg);
    assert_eq!(
        back.events.interned_names(),
        0,
        "a name decoded as interned"
    );
}

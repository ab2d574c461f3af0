//! Opt-in intermittent-execution lifecycle tracing.
//!
//! When tracing is on, the [`Machine`](crate::Machine) emits one
//! structured [`schematic_obs`] event per lifecycle transition —
//! power-on, checkpoint commit/skip/tear, sleep and wake-up, allocation
//! migration, power failure and rollback restore — into the calling
//! thread's observation registry. Tracing is enabled per run by
//! [`RunConfig::trace`](crate::RunConfig::trace), process-wide by the
//! `SCHEMATIC_TRACE=1` environment variable, or in-process by
//! [`set_forced`] (which the grid driver uses to avoid environment
//! races between threads). Events only land somewhere when the
//! `schematic_obs` collector is also enabled
//! ([`schematic_obs::set_enabled`]). Path-recording runs
//! ([`RunConfig::record_trace`](crate::RunConfig::record_trace), i.e.
//! compile-time profiling) are never traced, so a stream always holds
//! the events of intermittent runs only.
//!
//! Like the shadow recorder, tracing disables the fused block dispatch
//! for the run so every lifecycle site is observed individually;
//! metrics stay bit-identical, the run is just slower.
//!
//! ## Event kinds
//!
//! Every event carries the cumulative energy snapshot at emission time
//! (`comp_pj`, `save_pj`, `restore_pj`, `reexec_pj` — the paper's
//! Fig. 6 taxonomy — plus `cycles`), so any prefix of the stream
//! reproduces the Fig. 6 split at that point and the final `run_end`
//! snapshot equals the run's metrics exactly. Kind-specific fields:
//!
//! | kind | fields | meaning |
//! |------|--------|---------|
//! | `run_start` | `tbpf` (guaranteed window floor; 0 = continuous), `scenario` (power-model label, e.g. `10000`, `stoch:10000:2000:3`, `trace:rf-office`) | power scenario of the run |
//! | `boot` | `words` | initial VM staging of the boot set |
//! | `checkpoint_commit` | `cp`, `words` | checkpoint took effect |
//! | `checkpoint_torn` | `cp`, `words` | window expired mid-commit; old image stays |
//! | `checkpoint_skip` | `cp`, `charge_permille` | guarded check found enough charge |
//! | `sleep` | `cp` | wait-mode standby until recharge |
//! | `wakeup` | `cp`, `words` | non-retentive wake-up restore |
//! | `migrate` | `cp`, `words` | rollback allocation change loads |
//! | `power_failure` | `lost_insts`, `window_cycles` | outage; `lost_insts` is the re-execution extent |
//! | `restore` | `epoch`, `words` | rollback into epoch `"boot"` or `"cp<N>"` |
//! | `run_end` | `status` | final status; snapshot = run metrics |
//!
//! Under the periodic power model a failure strikes exactly when the
//! window's cycle budget is exhausted, so the residual energy at
//! failure is zero by construction; the stream instead records the
//! window size (`window_cycles`) and the work rolled back
//! (`lost_insts`). Residual charge *is* meaningful at guarded
//! checkpoints, where `charge_permille` records the measured fraction.

use crate::machine::RunStatus;
use crate::metrics::Metrics;
use schematic_obs::Value;
use std::sync::atomic::{AtomicBool, Ordering};

static FORCED: AtomicBool = AtomicBool::new(false);

/// Forces lifecycle tracing on (or off) for every subsequent run in
/// this process, regardless of [`RunConfig::trace`](crate::RunConfig::trace)
/// or the environment. In-process alternative to `SCHEMATIC_TRACE=1`
/// for multi-threaded drivers, where mutating the environment races.
pub fn set_forced(on: bool) {
    FORCED.store(on, Ordering::Relaxed);
}

/// Whether [`set_forced`] tracing is active.
pub fn forced() -> bool {
    FORCED.load(Ordering::Relaxed)
}

/// The stable label used for a [`RunStatus`] in trace events (matches
/// the grid artifact spelling).
pub fn status_label(status: RunStatus) -> &'static str {
    match status {
        RunStatus::Completed => "completed",
        RunStatus::Livelock => "livelock",
        RunStatus::CycleLimit => "cycle_limit",
        RunStatus::FailureLimit => "failure_limit",
    }
}

/// Every lifecycle event kind the emulator emits (the schema table
/// above), in no particular order.
pub const EVENT_KINDS: [&str; 11] = [
    "run_start",
    "boot",
    "checkpoint_commit",
    "checkpoint_torn",
    "checkpoint_skip",
    "sleep",
    "wakeup",
    "migrate",
    "power_failure",
    "restore",
    "run_end",
];

/// The cumulative snapshot fields every lifecycle event ends with, in
/// emission order: the four Fig. 6 energy categories in picojoules,
/// then active cycles.
pub const SNAPSHOT_KEYS: [&str; 5] = ["comp_pj", "save_pj", "restore_pj", "reexec_pj", "cycles"];

/// The cumulative Fig. 6 energy snapshot appended to every event.
pub(crate) fn snapshot_fields(metrics: &Metrics) -> [(&'static str, Value); 5] {
    let values = [
        metrics.computation.as_pj(),
        metrics.save.as_pj(),
        metrics.restore.as_pj(),
        metrics.reexecution.as_pj(),
        metrics.active_cycles,
    ];
    std::array::from_fn(|i| (SNAPSHOT_KEYS[i], Value::U64(values[i])))
}

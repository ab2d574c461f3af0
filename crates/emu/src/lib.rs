//! # schematic-emu
//!
//! An intermittent-computing emulator — the reproduction's substitute for
//! the SCEPTIC infrastructure the SCHEMATIC paper evaluates on (§IV-A.c).
//!
//! The emulator executes [`schematic_ir`] programs at IR level under a
//! configurable power supply. The paper's evaluation uses periodic
//! failures (*time between power failures*, TBPF, in active cycles);
//! the supply layer also offers seeded stochastic windows and recorded
//! harvest-trace replay (see [`power`]). Programs are
//! [`InstrumentedModule`]s: a module
//! whose blocks contain checkpoint intrinsics, plus a checkpoint table,
//! a per-block VM/NVM allocation plan and a failure policy
//! (wait-for-recharge or rollback).
//!
//! Measured output is a [`Metrics`] struct whose energy categories map
//! one-to-one onto the paper's Figure 6 (computation / save / restore /
//! re-execution) and Figure 7 (CPU vs VM vs NVM split).
//!
//! ```
//! use schematic_emu::{run, InstrumentedModule, RunConfig};
//! use schematic_ir::parse_module;
//!
//! let m = parse_module(r#"
//! var @x : 1
//! func @main(0) {
//! entry:
//!   r0 = mov 21
//!   r1 = add r0, r0
//!   store @x, r1
//!   ret r1
//! }
//! "#).unwrap();
//! let out = run(&InstrumentedModule::bare(m), RunConfig::default())?;
//! assert_eq!(out.result, Some(42));
//! # Ok::<(), schematic_emu::EmuError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod decoded;
pub mod error;
pub mod instrumented;
pub mod machine;
pub mod memory;
pub mod metrics;
pub mod power;
pub mod shadow;
pub mod trace;

pub use decoded::DecodedModule;
pub use error::{EmuError, TrapKind};
pub use instrumented::{
    AllocationPlan, CheckpointKind, CheckpointSpec, FailurePolicy, InstrumentedModule,
};
pub use machine::{run, ExecTier, Machine, RunConfig, RunOutcome, RunStatus};
pub use memory::Memory;
pub use metrics::Metrics;
pub use power::{
    intern_trace, parse_trace, trace_by_name, trace_min_window, trace_name, trace_windows,
    PowerModel, PowerState, TraceId,
};
pub use shadow::{EpochStart, ObservedWar, ShadowReport};

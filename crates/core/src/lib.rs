//! # schematic-core
//!
//! The paper's contribution: **SCHEMATIC** — joint compile-time
//! checkpoint placement and VM/NVM memory allocation for intermittent
//! systems (CGO 2024).
//!
//! Given an IR module, a platform cost table, a capacitor budget `EB`
//! and a VM capacity `SVM`, [`compile`] produces an
//! [`schematic_emu::InstrumentedModule`] that:
//!
//! * **guarantees forward progress**: the worst-case energy between any
//!   two consecutive checkpoints never exceeds `EB`, so with a
//!   wait-until-recharged runtime no code is ever re-executed;
//! * **minimizes energy on hot paths**: checkpoints and per-interval
//!   variable allocations are chosen by shortest path over the Reachable
//!   Checkpoint Graph (§III-A), with the gain function of Eqs. 1–2
//!   deciding which variables earn their place in VM;
//! * **respects `SVM`**: the VM footprint never exceeds the platform's
//!   volatile memory.
//!
//! The pipeline follows the paper: profile paths by frequency
//! ([`profile`]), analyze functions bottom-up over the call graph and
//! loops bottom-up over the nesting forest ([`analyze`]), place
//! checkpoints per path via the RCG with gain-based allocation, handle
//! loop back-edges with conditional checkpointing (Algorithm 1), and
//! finally rewrite the module ([`transform`]). An independent energy
//! verifier ([`pverify`]) re-checks the final placement and repairs any
//! interval the greedy path analysis missed.
//!
//! ```
//! use schematic_core::{compile, SchematicConfig};
//! use schematic_emu::{run, RunConfig};
//! use schematic_energy::{CostTable, Energy};
//!
//! let module = schematic_ir::parse_module(r#"
//! var @x : 1
//! func @main(0) {
//! entry:
//!   r0 = load @x
//!   r1 = add r0, 1
//!   store @x, r1
//!   ret r1
//! }
//! "#).unwrap();
//! let table = CostTable::msp430fr5969();
//! let config = SchematicConfig::new(Energy::from_uj(4));
//! let compiled = compile(&module, &table, &config)?;
//! let out = run(&compiled.instrumented, RunConfig::default()).unwrap();
//! assert_eq!(out.result, Some(1));
//! # Ok::<(), schematic_core::PlacementError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analyze;
pub mod anomaly;
pub mod config;
mod ctx;
pub mod error;
mod gain;
pub mod pipeline;
pub mod profile;
pub mod pverify;
pub mod range;
mod rcg;
pub mod summary;
pub mod transform;

pub use analyze::{check_all, SoundnessReport};
pub use anomaly::{
    check_anomalies, check_anomalies_bounded, Anomaly, AnomalyReport, RegionAccess, RegionClass,
    RegionInfo, RegionStart,
};
pub use config::SchematicConfig;
pub use error::{BackEdgeCheckpoint, EdgeDecision, PlacementError};
pub use pipeline::{compile, compile_with_profile, Compiled};
pub use profile::Profile;
pub use pverify::{verify_placement, PlacementReport};
pub use range::{index_ranges, Footprint, IndexRanges, Range};
pub use summary::{FuncSummary, LoopSummary};

//! `vmprobe` — real-system-style characterization of virtual-machine
//! energy and power behaviour, in simulation.
//!
//! This crate is the top of the reproduction stack for Contreras &
//! Martonosi, *"Techniques for Real-System Characterization of Java
//! Virtual Machine Energy and Power Behavior"* (IISWC 2006). It wires the
//! substrates together — bytecode workloads, the managed runtime, the five
//! collectors, the two platform models and the sampling measurement rig —
//! into the paper's experimental space, and regenerates every figure and
//! in-text table of the paper's evaluation.
//!
//! # Quick start
//!
//! ```
//! use vmprobe::{ExperimentConfig, Runner};
//! use vmprobe_heap::CollectorKind;
//! use vmprobe_power::ComponentId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut runner = Runner::new();
//! let mut cfg = ExperimentConfig::jikes("_209_db", CollectorKind::GenCopy, 32);
//! cfg.scale = vmprobe_workloads::InputScale::Reduced; // quick demo run
//! let run = runner.run(&cfg)?;
//! println!(
//!     "GC consumed {:.1}% of CPU energy over {:.1} ms",
//!     100.0 * run.fraction(ComponentId::Gc),
//!     1e3 * run.duration_s(),
//! );
//! # Ok(())
//! # }
//! ```
//!
//! # Figure index
//!
//! See [`figures`] for one regeneration entry point per paper artifact
//! (Figures 1 and 5–11, plus the in-text tables T1–T5 catalogued in
//! `DESIGN.md`).

#![warn(missing_docs)]
pub mod cache;
pub mod diff;
mod experiment;
pub mod figures;
pub mod observe;
pub mod request;
mod runner;
mod scale;
#[cfg(unix)]
pub mod serve;
pub mod sweep;
mod table;

pub use cache::{CacheLookup, ExperimentCache};
pub use diff::{
    bootstrap_ci, golden_cells, BootstrapCi, ComponentDelta, DiffEngine, DiffOptions, DiffSide,
    RegressionReport,
};
pub use experiment::{ExperimentConfig, ExperimentError, RunSummary, VmChoice};
pub use observe::{
    parse_period_grid, period_label, ObserveEngine, ObservePoint, ObserveReport, PeriodSummary,
    DEFAULT_PERIOD_GRID, MAX_OBSERVE_PERIODS,
};
pub use runner::{FailedCell, MemoHandle, QuarantinedConfig, RunReport, Runner};
pub use scale::{heap_bytes, P6_HEAPS_MB, PXA_HEAPS_MB, SIM_SCALE};
pub use sweep::{default_jobs, Memo, SweepError, SweepPool};
pub use table::Table;
pub use vmprobe_power::{FaultPlan, FaultSpecError, FaultStats, ProbeSpec, ProbeStats};
pub use vmprobe_telemetry::{
    json, CounterId, HistId, NoopSink, Sink, Snapshot, SpanTrace, StderrSink, Telemetry,
    SCHEMA_VERSION,
};

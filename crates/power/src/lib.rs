//! Measurement infrastructure: the paper's Section IV, in simulation.
//!
//! The physical rig the paper builds consists of (its Figure 4):
//!
//! 1. **component identification** — the JVM writes the ID of the currently
//!    executing component (GC, class loader, compiler, application) to a
//!    memory-mapped I/O register (parallel-port pins on the P6 board, GPIO
//!    pins on the DBPXA255) — here [`ComponentPort`];
//! 2. **power sampling** — precision sense resistors on the CPU and DRAM
//!    supply rails, sampled by a digital acquisition system every **40 µs**
//!    together with the component-ID register — here [`Daq`] over the
//!    activity-based [`PowerModel`];
//! 3. **performance sampling** — an OS-timer handler reads the hardware
//!    performance monitors every 1 ms (P6) / 10 ms (PXA255) along with the
//!    current component — here [`PerfMonitor`];
//! 4. **offline analysis** — power and performance traces are matched after
//!    the run to produce per-component energy, power, peak power and
//!    energy-delay product — here [`analyze`] producing a [`Report`].
//!
//! The same quantization artifacts the paper documents apply: transitions
//! inside a 40 µs window are invisible, and a sample's whole window is
//! attributed to the component on the port at the sample instant.
//!
//! A lumped-RC [`ThermalSim`] with emergency throttling reproduces the
//! paper's Figure 1 (fan-failure) experiment.
//!
//! # Example
//!
//! ```
//! use vmprobe_platform::{Exec, Machine, PlatformKind};
//! use vmprobe_power::{analyze, ComponentId, ComponentPort, Daq, PerfMonitor};
//!
//! let mut machine = Machine::new(PlatformKind::PentiumM);
//! let mut port = ComponentPort::new();
//! let mut daq = Daq::new(PlatformKind::PentiumM);
//! let mut perf = PerfMonitor::new(PlatformKind::PentiumM);
//!
//! port.push(ComponentId::Application);
//! for i in 0..200_000u64 {
//!     machine.int_ops(4);
//!     machine.load(0x1000_0000 + (i % 4096) * 8);
//!     daq.observe(&machine.snapshot(), port.current());
//!     perf.observe(&machine.snapshot(), port.current());
//! }
//! let report = analyze(&daq, &perf, &machine);
//! let app = &report.components[&ComponentId::Application];
//! assert!(app.energy.joules() > 0.0);
//! assert!(app.avg_power.watts() > 4.5); // above idle
//! ```

#![warn(missing_docs)]
mod analyzer;
mod calib;
mod component;
mod daq;
mod dvfs;
mod model;
mod perfmon;
mod perturb;
mod port;
mod probe;
mod sampler;
mod thermal;
mod units;

pub use analyzer::{analyze, ComponentProfile, Report};
pub use calib::PowerCoeffs;
pub use component::ComponentId;
pub use daq::{ComponentPower, Daq, DaqLedger, DaqReport, PowerSample, DAQ_PERIOD_S};
pub use dvfs::DvfsPoint;
pub use model::PowerModel;
pub use perfmon::{PerfMonitor, PerfRecord};
pub use perturb::{perturbed_component_energy, EnergyPerturbation, PerturbSpecError};
pub use port::ComponentPort;
pub use probe::{
    hpm_read_stall_cycles, ProbeSpec, ProbeStats, DAQ_ISR_LINES, DEFAULT_DAQ_PERIOD_NS,
};
pub use thermal::{ThermalConfig, ThermalSim, ThermalState};
pub use units::{Celsius, EnergyDelay, Joules, Seconds, Watts};

// Fault-injection machinery consumed by the measurement path; re-exported
// so measurement users need not depend on `vmprobe-faults` directly.
pub use vmprobe_faults::{DetRng, FaultPlan, FaultSpecError, FaultStats};

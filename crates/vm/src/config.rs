//! Virtual-machine configuration.

use serde::Serialize;
use vmprobe_faults::FaultPlan;
use vmprobe_heap::CollectorKind;
use vmprobe_platform::PlatformKind;
use vmprobe_power::{DvfsPoint, ProbeSpec};

/// Which of the paper's two virtual machines this runtime imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, serde::Deserialize)]
pub enum Personality {
    /// IBM Jikes RVM 2.4.1 style: baseline compilation on first invocation,
    /// adaptive recompilation of hot methods by an optimizing compiler on a
    /// separate thread driven by a controller thread, system classes merged
    /// into the boot image, and a choice of MMTk collectors.
    JikesRvm,
    /// Kaffe 1.1.4 style: one-shot JIT translation without extensive
    /// optimization, fully lazy class loading (system classes included),
    /// and an incremental conservative mark-sweep collector.
    Kaffe,
}

impl std::fmt::Display for Personality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Personality::JikesRvm => "Jikes RVM",
            Personality::Kaffe => "Kaffe",
        })
    }
}

/// Complete configuration of one VM instance.
///
/// Construct with [`VmConfig::jikes`] or [`VmConfig::kaffe`] and refine with
/// the builder methods.
///
/// # Example
///
/// ```
/// use vmprobe_heap::CollectorKind;
/// use vmprobe_platform::PlatformKind;
/// use vmprobe_vm::VmConfig;
///
/// let cfg = VmConfig::jikes(CollectorKind::GenCopy, 4 << 20)
///     .platform(PlatformKind::PentiumM)
///     .trace_power(true);
/// assert_eq!(cfg.heap_bytes, 4 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VmConfig {
    /// VM behaviour profile.
    pub personality: Personality,
    /// Garbage collection plan (forced to
    /// [`CollectorKind::KaffeIncremental`] by [`VmConfig::kaffe`]).
    pub collector: CollectorKind,
    /// Simulated heap size in bytes.
    pub heap_bytes: u64,
    /// Hardware platform to model.
    pub platform: PlatformKind,
    /// Adaptive-optimization hotness threshold (weighted invocation +
    /// back-edge count at which the controller queues a method for the
    /// optimizing compiler). Jikes-only.
    pub opt_threshold: u64,
    /// Scheduler quantum in cycles.
    pub quantum_cycles: u64,
    /// Record the full 40 µs power trace (needed for time-series figures;
    /// costs memory).
    pub trace_power: bool,
    /// Operating point for dynamic voltage and frequency scaling (the
    /// paper's Section VII future work; nominal by default).
    pub dvfs: DvfsPoint,
    /// Override the generational nursery size in bytes (ablation studies;
    /// `None` = the plans' default Appel-style sizing).
    pub nursery_bytes: Option<u64>,
    /// Fault-injection plan for the run (measurement-path faults plus
    /// forced VM faults). `FaultPlan::none()` by default.
    pub faults: FaultPlan,
    /// Record component enter/exit spans on the virtual cycle clock for
    /// the telemetry layer. Recording charges zero simulated cycles, so
    /// every report is bit-identical with this on or off.
    pub record_spans: bool,
    /// Verify a class's operand types (the verifier's type phase) when it
    /// is first loaded, rejecting the run with [`VmError::VerifyRejected`]
    /// on failure. On by default; `verify(false)` skips it. Structure
    /// needs no switch: every [`Program`](vmprobe_bytecode::Program) was
    /// checked when it was built.
    /// Verification happens host-side and charges zero simulated cycles,
    /// so results are bit-identical with this on or off.
    ///
    /// [`VmError::VerifyRejected`]: crate::VmError::VerifyRejected
    pub verify: bool,
    /// Measurement mode: DAQ sampling period and probe transparency. The
    /// default (40 µs, transparent) is the classic free-probes rig; any
    /// other value perturbs or re-times the measurement itself.
    pub probe: ProbeSpec,
}

impl VmConfig {
    /// Jikes-style configuration with the given collector and heap.
    pub fn jikes(collector: CollectorKind, heap_bytes: u64) -> Self {
        Self {
            personality: Personality::JikesRvm,
            collector,
            heap_bytes,
            platform: PlatformKind::PentiumM,
            opt_threshold: 6_000,
            quantum_cycles: 1_600_000, // 1 ms at 1.6 GHz
            trace_power: false,
            dvfs: DvfsPoint::NOMINAL,
            nursery_bytes: None,
            faults: FaultPlan::none(),
            record_spans: false,
            verify: true,
            probe: ProbeSpec::default(),
        }
    }

    /// Kaffe-style configuration with the given heap. The collector is
    /// Kaffe's own incremental conservative mark-sweep.
    pub fn kaffe(heap_bytes: u64) -> Self {
        Self {
            personality: Personality::Kaffe,
            collector: CollectorKind::KaffeIncremental,
            heap_bytes,
            platform: PlatformKind::PentiumM,
            opt_threshold: u64::MAX,
            quantum_cycles: 1_600_000,
            trace_power: false,
            dvfs: DvfsPoint::NOMINAL,
            nursery_bytes: None,
            faults: FaultPlan::none(),
            record_spans: false,
            verify: true,
            probe: ProbeSpec::default(),
        }
    }

    /// Select the hardware platform (adjusts the scheduler quantum to keep
    /// it at roughly 1 ms of wall-clock time).
    pub fn platform(mut self, platform: PlatformKind) -> Self {
        self.platform = platform;
        self.quantum_cycles = match platform {
            PlatformKind::PentiumM => 1_600_000,
            PlatformKind::Pxa255 => 400_000,
        };
        self
    }

    /// Override the adaptive-optimization threshold.
    pub fn opt_threshold(mut self, threshold: u64) -> Self {
        self.opt_threshold = threshold;
        self
    }

    /// Enable/disable full power-trace recording.
    pub fn trace_power(mut self, on: bool) -> Self {
        self.trace_power = on;
        self
    }

    /// Run at a DVFS operating point (see [`DvfsPoint::ladder`]).
    pub fn dvfs(mut self, point: DvfsPoint) -> Self {
        self.dvfs = point;
        self
    }

    /// Override the generational nursery size (ablation studies).
    pub fn nursery_bytes(mut self, bytes: u64) -> Self {
        self.nursery_bytes = Some(bytes);
        self
    }

    /// Run under a fault-injection plan (see [`FaultPlan`]).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enable/disable virtual-clock component span recording.
    pub fn record_spans(mut self, on: bool) -> Self {
        self.record_spans = on;
        self
    }

    /// Enable/disable the load-time verification tier.
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Select the measurement mode (observer-effect studies).
    pub fn probe(mut self, probe: ProbeSpec) -> Self {
        self.probe = probe;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaffe_forces_its_collector() {
        let cfg = VmConfig::kaffe(1 << 20);
        assert_eq!(cfg.collector, CollectorKind::KaffeIncremental);
        assert_eq!(cfg.personality, Personality::Kaffe);
    }

    #[test]
    fn platform_adjusts_quantum() {
        let cfg = VmConfig::jikes(CollectorKind::SemiSpace, 1 << 20).platform(PlatformKind::Pxa255);
        assert_eq!(cfg.quantum_cycles, 400_000);
        // ~1 ms on a 400 MHz part.
        assert!((cfg.quantum_cycles as f64 / 400e6 - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn personality_display() {
        assert_eq!(Personality::JikesRvm.to_string(), "Jikes RVM");
        assert_eq!(Personality::Kaffe.to_string(), "Kaffe");
    }
}

//! The digital acquisition system: 40 µs power sampling with component
//! attribution.

use serde::{Deserialize, Serialize};
use vmprobe_faults::{DetRng, FaultPlan, FaultStats};
use vmprobe_platform::{HpmSnapshot, PlatformKind};

use crate::sampler::Sampler;
use crate::{ComponentId, Joules, PowerModel, Seconds, Watts};

/// The paper's DAQ sampling period: 40 µs, "the fastest sampling rate of
/// our digital acquisition system based on the number of sampling channels
/// used" (Section IV-D).
pub const DAQ_PERIOD_S: f64 = 40e-6;

/// One recorded sample (kept only when tracing is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Simulated time of the sample in seconds.
    pub t: f64,
    /// CPU power over the preceding window, in watts.
    pub cpu_w: f64,
    /// DRAM power over the preceding window, in watts.
    pub mem_w: f64,
    /// Component ID visible on the port at the sample instant.
    pub component: ComponentId,
}

/// Accumulated measurements for one component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ComponentPower {
    /// CPU energy attributed to the component.
    pub energy: Joules,
    /// DRAM energy attributed to the component.
    pub mem_energy: Joules,
    /// Wall-clock time attributed to the component.
    pub time: Seconds,
    /// DAQ sampling periods attributed: the whole periods in each
    /// committed window, at least one per window.
    pub samples: u64,
    /// Highest single-window CPU power observed.
    pub peak: Watts,
    /// Highest single-window DRAM power observed.
    pub peak_mem: Watts,
}

impl ComponentPower {
    /// Average CPU power while this component ran (zero if it never ran).
    pub fn avg_power(&self) -> Watts {
        if self.time.seconds() <= 0.0 {
            Watts::ZERO
        } else {
            self.energy / self.time
        }
    }
}

/// Aggregated DAQ output for a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaqReport {
    /// Per-component accumulators, indexed by [`ComponentId::index`].
    pub per_component: Vec<ComponentPower>,
    /// Total CPU energy.
    pub cpu_energy: Joules,
    /// Total DRAM energy.
    pub mem_energy: Joules,
    /// Total sampled time.
    pub sampled_time: Seconds,
    /// CPU energy a fault-free DAQ would have measured (equals
    /// `cpu_energy` when no faults are injected).
    pub clean_cpu_energy: Joules,
    /// DRAM energy a fault-free DAQ would have measured.
    pub clean_mem_energy: Joules,
    /// Ledger of injected faults and the resulting error bound.
    pub faults: FaultStats,
    /// Sampling windows that contained at least one component-port write
    /// (the whole window is attributed to whoever holds the port at the
    /// sample instant, so these windows bound the quantization error).
    #[serde(default)]
    pub transition_windows: u64,
    /// Clean (CPU + DRAM) energy of those transition windows, in joules.
    #[serde(default)]
    pub transition_energy_j: f64,
}

impl DaqReport {
    /// Accumulator for one component.
    pub fn component(&self, c: ComponentId) -> &ComponentPower {
        &self.per_component[c.index()]
    }

    /// Absolute deviation of the measured total (cpu + mem) energy from the
    /// clean total. The degradation contract guarantees this never exceeds
    /// [`FaultStats::energy_error_bound_j`].
    pub fn energy_deviation_j(&self) -> f64 {
        let measured = self.cpu_energy.joules() + self.mem_energy.joules();
        let clean = self.clean_cpu_energy.joules() + self.clean_mem_energy.joules();
        (measured - clean).abs()
    }
}

/// The sampling DAQ.
///
/// The measurement driver calls [`Daq::observe`] after every charged unit of
/// work; the call is a no-op (one integer compare) until the machine's cycle
/// counter crosses the next 40 µs boundary, at which point the window's HPM
/// delta is converted to power and attributed to the component currently on
/// the port — reproducing the paper's quantization: a component switch
/// *inside* the window is invisible, and the whole window goes to whoever
/// holds the port at sampling time.
#[derive(Debug, Clone)]
pub struct Daq {
    model: PowerModel,
    sampler: Sampler,
    acc: Vec<ComponentPower>,
    trace: Option<Vec<PowerSample>>,
    faults: FaultInjector,
    /// Component-port writes since the last committed sample. Non-zero at a
    /// sample instant means the window contained a transition.
    pending_port_writes: u64,
    /// Windows that contained at least one port write.
    transition_windows: u64,
    /// Clean (CPU + DRAM) energy of those windows, in joules.
    transition_energy_j: f64,
}

/// Per-DAQ fault-injection state: the plan, the derived RNG streams, the
/// clean-energy ground truth, and the ledger that makes the degradation
/// contract checkable.
#[derive(Debug, Clone)]
struct FaultInjector {
    plan: FaultPlan,
    /// Drives drop/dup/noise decisions.
    rng: DetRng,
    /// Independent stream for port-read corruption, so enabling one fault
    /// class never shifts another class's sequence.
    port_rng: DetRng,
    stats: FaultStats,
    clean_cpu_energy: Joules,
    clean_mem_energy: Joules,
}

impl FaultInjector {
    fn new(plan: FaultPlan) -> Self {
        let root = DetRng::new(plan.seed);
        FaultInjector {
            plan,
            rng: root.derive("daq"),
            port_rng: root.derive("port"),
            stats: FaultStats::default(),
            clean_cpu_energy: Joules::ZERO,
            clean_mem_energy: Joules::ZERO,
        }
    }
}

impl Daq {
    /// DAQ for `kind` with aggregation only (no per-sample trace).
    pub fn new(kind: PlatformKind) -> Self {
        Self::build(kind, false)
    }

    /// DAQ that additionally records every sample (for time-series figures
    /// like the thermal experiment).
    pub fn with_trace(kind: PlatformKind) -> Self {
        Self::build(kind, true)
    }

    fn build(kind: PlatformKind, trace: bool) -> Self {
        let freq_hz = vmprobe_platform::CpuSpec::of(kind).freq_hz;
        Self::with_model(PowerModel::new(kind), freq_hz, DAQ_PERIOD_S, trace)
    }

    /// DAQ with an explicit power model, clock (DVFS-scaled operation) and
    /// sampling period in wall-clock seconds (an observer-effect sweep
    /// point; the classic rig passes [`DAQ_PERIOD_S`]).
    pub fn with_model(model: PowerModel, freq_hz: f64, period_s: f64, trace: bool) -> Self {
        Self {
            model,
            sampler: Sampler::new(period_s, freq_hz),
            acc: vec![ComponentPower::default(); ComponentId::ALL.len()],
            trace: trace.then(Vec::new),
            faults: FaultInjector::new(FaultPlan::none()),
            pending_port_writes: 0,
            transition_windows: 0,
            transition_energy_j: 0.0,
        }
    }

    /// Attach a fault plan. The injected sequence is fully determined by
    /// `plan.seed`, so faulted runs replay bit-identically.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.sampler.set_wrap32(plan.wrap32);
        self.faults = FaultInjector::new(plan);
        self
    }

    /// Cycle count at which the next sample is due (for cheap polling).
    pub fn next_due_cycles(&self) -> u64 {
        self.sampler.next_due()
    }

    /// Record that the component port was written. Called on *every* port
    /// write in every mode; it mutates only DAQ-side counters (never the
    /// machine), so transparent trajectories stay bit-identical while the
    /// sampler learns which windows contained a transition.
    pub fn note_port_write(&mut self) {
        self.pending_port_writes += 1;
    }

    /// Windows that contained at least one component transition so far.
    pub fn transition_windows(&self) -> u64 {
        self.transition_windows
    }

    /// Clean energy of those transition windows so far, in joules.
    pub fn transition_energy_j(&self) -> f64 {
        self.transition_energy_j
    }

    /// Take a sample if one is due, and say whether one was. `snap` must be
    /// monotonically non-decreasing across calls.
    ///
    /// With a [`FaultPlan`] attached, this is where the measurement-path
    /// faults land, in hardware order: the counter file is read (possibly
    /// through a wrapping 32-bit view and unwrapped), the component register
    /// is read (possibly glitching to a stale or invalid ID), the window's
    /// power is computed (possibly scaled by calibration drift and bounded
    /// sensor noise), and the sample is committed (possibly dropped or
    /// double-clocked). Every perturbation's absolute energy effect is
    /// logged in [`FaultStats`], so the report's measured totals deviate
    /// from its clean totals by at most `faults.energy_error_bound_j()`.
    pub fn observe(&mut self, snap: &HpmSnapshot, component: ComponentId) -> bool {
        let Some((delta, t_now)) = self.sampler.take(snap) else {
            return false;
        };
        let dt = self.sampler.seconds(delta.cycles);
        let cpu = self.model.cpu_power(&delta, dt);
        let mem = self.model.dram_power(&delta, dt);
        let dt_s = Seconds::new(dt);
        let f = &mut self.faults;

        // Fault-free ground truth for this due window.
        let clean_cpu_j = cpu.watts() * dt;
        let clean_mem_j = mem.watts() * dt;
        f.stats.samples_total += 1;
        f.clean_cpu_energy += Joules::new(clean_cpu_j);
        f.clean_mem_energy += Joules::new(clean_mem_j);

        // Transition exposure: a window with at least one port write is
        // attributed wholesale to whoever holds the port now, so its whole
        // clean energy bounds the quantization (mis)attribution error.
        if self.pending_port_writes > 0 {
            self.transition_windows += 1;
            self.transition_energy_j += clean_cpu_j + clean_mem_j;
            self.pending_port_writes = 0;
        }

        // Missed trigger: the window's energy is lost entirely.
        if f.rng.chance(f.plan.drop_sample) {
            f.stats.samples_dropped += 1;
            f.stats.dropped_energy_j += clean_cpu_j + clean_mem_j;
            return true;
        }

        // Component-register read: may glitch to a stale or invalid ID.
        let target = if f.port_rng.chance(f.plan.port_glitch) {
            f.stats.port_glitches += 1;
            let raw = (f.port_rng.next_u64() & 0xFF) as u8;
            ComponentId::from_raw(raw).unwrap_or(ComponentId::Spurious)
        } else {
            component
        };

        // Calibration drift (monotone in time) and bounded sensor noise
        // scale the measured power; the exact deviation each introduces is
        // logged so the error bound is an identity, not an estimate.
        let drift_m = 1.0 + f.plan.calib_drift * t_now;
        let noise = if f.plan.noise_sigma > 0.0 {
            (f.plan.noise_sigma * f.rng.gauss())
                .clamp(-3.0 * f.plan.noise_sigma, 3.0 * f.plan.noise_sigma)
        } else {
            0.0
        };
        let factor = (drift_m * (1.0 + noise)).max(0.0);
        let meas_cpu = Watts::new(cpu.watts() * factor);
        let meas_mem = Watts::new(mem.watts() * factor);
        let meas_cpu_j = meas_cpu.watts() * dt;
        let meas_mem_j = meas_mem.watts() * dt;
        let clean_j = clean_cpu_j + clean_mem_j;
        let drift_delta = (drift_m - 1.0) * clean_j;
        f.stats.drift_abs_j += drift_delta.abs();
        f.stats.noise_abs_j += ((meas_cpu_j + meas_mem_j) - clean_j - drift_delta).abs();
        if target != component {
            f.stats.misattributed_energy_j += meas_cpu_j + meas_mem_j;
        }

        // Double-clocked samples commit twice.
        let commits = if f.rng.chance(f.plan.dup_sample) {
            f.stats.samples_duplicated += 1;
            f.stats.duplicated_energy_j += meas_cpu_j + meas_mem_j;
            2
        } else {
            1
        };

        let a = &mut self.acc[target.index()];
        for _ in 0..commits {
            a.energy += meas_cpu * dt_s;
            a.mem_energy += meas_mem * dt_s;
            a.time += dt_s;
            a.samples += (delta.cycles / self.sampler.period_cycles()).max(1);
        }
        a.peak = a.peak.max(meas_cpu);
        a.peak_mem = a.peak_mem.max(meas_mem);

        if let Some(t) = &mut self.trace {
            t.push(PowerSample {
                t: t_now,
                cpu_w: meas_cpu.watts(),
                mem_w: meas_mem.watts(),
                component: target,
            });
        }
        true
    }

    /// The recorded trace, when enabled.
    pub fn trace(&self) -> Option<&[PowerSample]> {
        self.trace.as_deref()
    }

    /// The power model in force.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Aggregate the run.
    pub fn report(&self) -> DaqReport {
        let mut faults = self.faults.stats;
        faults.wraps_unwrapped = self.sampler.wraps_detected();
        DaqReport {
            per_component: self.acc.clone(),
            cpu_energy: self.acc.iter().map(|a| a.energy).sum(),
            mem_energy: self.acc.iter().map(|a| a.mem_energy).sum(),
            sampled_time: self.acc.iter().map(|a| a.time).sum(),
            clean_cpu_energy: self.faults.clean_cpu_energy,
            clean_mem_energy: self.faults.clean_mem_energy,
            faults,
            transition_windows: self.transition_windows,
            transition_energy_j: self.transition_energy_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_platform::{Machine, PlatformKind};

    fn run_windows(daq: &mut Daq, m: &mut Machine, component: ComponentId, windows: u32) {
        for _ in 0..windows {
            // Fill one 40 us window with integer work, then sample.
            let due = daq.next_due_cycles();
            while m.cycles() < due {
                m.int_ops(16);
            }
            daq.observe(&m.snapshot(), component);
        }
    }

    #[test]
    fn attribution_follows_the_port_value() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut daq = Daq::new(PlatformKind::PentiumM);
        run_windows(&mut daq, &mut m, ComponentId::Application, 5);
        run_windows(&mut daq, &mut m, ComponentId::Gc, 3);
        let r = daq.report();
        assert!(r.component(ComponentId::Application).samples >= 5);
        assert!(r.component(ComponentId::Gc).samples >= 3);
        assert_eq!(r.component(ComponentId::JitCompiler).samples, 0);
        assert!(r.component(ComponentId::Application).time > r.component(ComponentId::Gc).time);
    }

    #[test]
    fn no_sample_before_first_boundary() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut daq = Daq::new(PlatformKind::PentiumM);
        m.int_ops(10);
        daq.observe(&m.snapshot(), ComponentId::Application);
        assert_eq!(daq.report().component(ComponentId::Application).samples, 0);
    }

    #[test]
    fn energy_equals_power_times_time() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut daq = Daq::new(PlatformKind::PentiumM);
        run_windows(&mut daq, &mut m, ComponentId::Application, 10);
        let r = daq.report();
        let a = r.component(ComponentId::Application);
        let recomputed = a.avg_power() * a.time;
        assert!((recomputed.joules() - a.energy.joules()).abs() < 1e-12);
        assert!(a.peak >= a.avg_power());
    }

    #[test]
    fn trace_records_samples_in_time_order() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut daq = Daq::with_trace(PlatformKind::PentiumM);
        run_windows(&mut daq, &mut m, ComponentId::Application, 4);
        let t = daq.trace().unwrap();
        assert!(t.len() >= 4);
        assert!(t.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn custom_period_scales_sample_count() {
        let model = PowerModel::new(PlatformKind::PentiumM);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut daq = Daq::with_model(model, 1.6e9, 4e-6, true);
        // 1 ms of work → ~250 samples at a 4 µs period.
        while m.now() < 1e-3 {
            let due = daq.next_due_cycles();
            while m.cycles() < due {
                m.int_ops(16);
            }
            daq.observe(&m.snapshot(), ComponentId::Application);
        }
        let n = daq.trace().unwrap().len();
        assert!((200..=300).contains(&n), "got {n}");
    }

    #[test]
    fn port_writes_mark_transition_windows() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut daq = Daq::new(PlatformKind::PentiumM);
        run_windows(&mut daq, &mut m, ComponentId::Application, 3);
        assert_eq!(daq.transition_windows(), 0);
        daq.note_port_write();
        run_windows(&mut daq, &mut m, ComponentId::Gc, 1);
        assert_eq!(daq.transition_windows(), 1);
        assert!(daq.transition_energy_j() > 0.0);
        // The pending flag resets after the marked window.
        run_windows(&mut daq, &mut m, ComponentId::Gc, 2);
        assert_eq!(daq.transition_windows(), 1);
        assert_eq!(daq.report().transition_windows, 1);
    }

    #[test]
    fn idle_windows_accumulate_idle_energy() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut daq = Daq::new(PlatformKind::PentiumM);
        m.stall(1.6e9 * 0.001); // 1 ms of pure stall
        daq.observe(&m.snapshot(), ComponentId::Idle);
        let r = daq.report();
        let idle = r.component(ComponentId::Idle);
        assert!((idle.avg_power().watts() - 4.5).abs() < 0.01);
    }
}

//! The metering adapter: machine + measurement rig as one charging sink.
//!
//! All execution work — interpreter, compilers, class loader and garbage
//! collectors — flows through a [`Meter`], which forwards the charge to the
//! [`Machine`] and then lets the DAQ and performance monitor take any
//! samples that have come due. This is what keeps the 40 µs power sampling
//! running *during* GC pauses and compilations, exactly like the physical
//! rig.

use vmprobe_platform::{
    Addr, CpuSpec, Exec, Ledger, Machine, PlatformKind, HPM_COUNTER_COUNT, PROBE_BASE,
};
use vmprobe_power::{
    hpm_read_stall_cycles, ComponentId, ComponentPort, Daq, DvfsPoint, FaultPlan, PerfMonitor,
    PowerCoeffs, PowerModel, ProbeSpec, ProbeStats, DAQ_ISR_LINES,
};
use vmprobe_telemetry::SpanTrace;

/// Cycles charged per component-ID register write (parallel-port I/O on the
/// P6 board is slow; GPIO on the PXA255 is cheap). The paper's "efficient,
/// low-perturbation infrastructure" still pays this on every transition.
fn io_write_cycles(kind: PlatformKind) -> f64 {
    match kind {
        PlatformKind::PentiumM => 180.0,
        PlatformKind::Pxa255 => 6.0,
    }
}

/// Bytes of the DAQ ISR's sample ring buffer inside the probe region.
/// Twice the 32 KB L1D on both platforms, so a charged ISR steadily evicts
/// workload lines instead of settling into a resident hot set.
const PROBE_RING_BYTES: u64 = 1 << 16;
/// Offset of the kernel-side HPM counter file inside the probe region.
const PROBE_HPM_OFFSET: u64 = 1 << 20;
/// Offset of the memory-mapped component-ID register inside the probe
/// region.
const PROBE_PORT_OFFSET: u64 = 2 << 20;

/// The earlier of the two monitors' deadlines, as a value of the machine's
/// cycle accumulator.
fn next_deadline(daq: &Daq, perf: &PerfMonitor) -> f64 {
    let due = daq.next_due_cycles().min(perf.next_due_cycles());
    debug_assert!(
        due < 1 << 53,
        "sample deadline {due} is past the exact f64 range"
    );
    due as f64
}

/// Machine plus measurement rig.
#[derive(Debug)]
pub struct Meter {
    machine: Machine,
    port: ComponentPort,
    daq: Daq,
    perf: PerfMonitor,
    io_cycles: f64,
    /// The earlier of the DAQ and HPM deadlines, on the machine's cycle
    /// accumulator (an integer below 2⁵³, so the compare is exact).
    next_probe_at: f64,
    spans: Option<SpanTrace>,
    /// Measurement mode: sampling period and probe transparency.
    probe: ProbeSpec,
    /// Syscall-shaped stall per charged HPM read (platform-specific).
    hpm_stall: f64,
    /// Cursor into the ISR sample ring (advances one line per load).
    isr_cursor: u64,
    port_stores: u64,
    daq_samples_paid: u64,
    hpm_reads_paid: u64,
    cycles_paid: u64,
}

impl Meter {
    /// Build a cold machine with its measurement rig attached, at the
    /// nominal operating point, with no faults and the classic free probes.
    pub fn new(kind: PlatformKind, trace_power: bool) -> Self {
        Self::with_probe(
            kind,
            trace_power,
            DvfsPoint::NOMINAL,
            FaultPlan::none(),
            ProbeSpec::default(),
        )
    }

    /// Build a machine with every knob explicit:
    /// - `dvfs`: the operating point, fixed for the whole run. The clock,
    ///   the DRAM penalty (fixed in nanoseconds, so fewer cycles at lower
    ///   clocks) and the power-model coefficients scale together.
    /// - `faults`: the DAQ injects drops, dups, noise, glitches and drift,
    ///   and `wrap32` makes the performance monitor read 32-bit wrapped
    ///   counters and unwrap them.
    /// - `probe`: a retargeted DAQ period, charged probes, or both. The
    ///   default spec builds the rig exactly as [`Meter::new`] does, so
    ///   classic runs stay bit-identical.
    pub fn with_probe(
        kind: PlatformKind,
        trace_power: bool,
        dvfs: DvfsPoint,
        faults: FaultPlan,
        probe: ProbeSpec,
    ) -> Self {
        let spec = CpuSpec::of(kind).scaled(dvfs.freq_factor);
        let model = PowerModel::with_coeffs(dvfs.scale_coeffs(PowerCoeffs::of(kind)));
        let daq = Daq::with_model(model, spec.freq_hz, probe.daq_period_s(), trace_power)
            .with_faults(faults);
        let perf = PerfMonitor::with_clock(kind, spec.freq_hz);
        let perf = if faults.wrap32 {
            perf.with_wrap32()
        } else {
            perf
        };
        let next_probe_at = next_deadline(&daq, &perf);
        Self {
            machine: Machine::from_spec(spec),
            port: ComponentPort::new(),
            daq,
            perf,
            io_cycles: io_write_cycles(kind),
            next_probe_at,
            spans: None,
            probe,
            hpm_stall: hpm_read_stall_cycles(kind),
            isr_cursor: 0,
            port_stores: 0,
            daq_samples_paid: 0,
            hpm_reads_paid: 0,
            cycles_paid: 0,
        }
    }

    /// Start recording component enter/exit spans on the virtual cycle
    /// clock. Span capture happens *after* the charged register write, so
    /// it adds zero simulated cycles: the machine's trajectory — and with
    /// it every energy/power figure — is bit-identical with recording on
    /// or off.
    pub fn enable_spans(&mut self) {
        let clock_hz = self.machine.spec().freq_hz;
        self.spans = Some(SpanTrace::new(clock_hz));
    }

    /// Take the recorded span trace, closing any spans still open at the
    /// current cycle count. `None` when recording was never enabled.
    pub fn take_spans(&mut self) -> Option<SpanTrace> {
        let cycles = self.machine.cycles();
        self.spans.take().map(|mut t| {
            t.finish(cycles);
            t
        })
    }

    /// The underlying machine (read-only; charge work through `Exec`).
    #[inline]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The cycle at which the next DAQ or HPM sample comes due, on the
    /// machine's accumulator. A stream of charges that stays below it
    /// takes no sample, so it may be charged on a checked-out ledger.
    #[inline]
    pub fn next_probe_at(&self) -> f64 {
        self.next_probe_at
    }

    /// Check the machine's ledger out ([`Machine::check_out`]).
    #[inline]
    pub fn check_out(&self) -> Ledger {
        self.machine.check_out()
    }

    /// Check a ledger back in ([`Machine::check_in`]). A ledger that
    /// charged anything must lie below [`Meter::next_probe_at`]: a sample
    /// that came due on it would be taken late. (The machine itself can
    /// sit past the deadline at check-out, when a charged probe's own
    /// cost overran the next period; the next exact charge samples then.)
    #[inline]
    pub fn check_in(&mut self, ledger: Ledger) {
        debug_assert!(
            ledger.cycles() < self.next_probe_at || ledger.cycles() == self.machine.cycles_f64(),
            "a sample came due on the ledger"
        );
        self.machine.check_in(ledger);
    }

    /// The component register.
    pub fn port(&self) -> &ComponentPort {
        &self.port
    }

    /// The DAQ (for reports/traces after a run).
    pub fn daq(&self) -> &Daq {
        &self.daq
    }

    /// The performance monitor.
    pub fn perf(&self) -> &PerfMonitor {
        &self.perf
    }

    /// Decompose into measurement components for offline analysis.
    pub fn into_parts(self) -> (Machine, Daq, PerfMonitor) {
        (self.machine, self.daq, self.perf)
    }

    /// The probe-cost ledger: costs charged so far plus the DAQ's
    /// transition-window exposure.
    pub fn probe_stats(&self) -> ProbeStats {
        ProbeStats {
            port_stores: self.port_stores,
            daq_samples_paid: self.daq_samples_paid,
            hpm_reads_paid: self.hpm_reads_paid,
            cycles_paid: self.cycles_paid,
            transition_windows: self.daq.transition_windows(),
            transition_energy_j: self.daq.transition_energy_j(),
        }
    }

    /// Enter a nested component: write the register (charged I/O) and push.
    pub fn enter(&mut self, c: ComponentId) {
        self.port_write();
        self.port.push(c);
        if let Some(t) = &mut self.spans {
            t.enter(c.label(), self.machine.cycles());
        }
        self.maybe_sample();
    }

    /// Exit the current component.
    pub fn exit(&mut self) {
        self.port_write();
        self.port.pop();
        if let Some(t) = &mut self.spans {
            t.exit(self.machine.cycles());
        }
        self.maybe_sample();
    }

    /// Scheduler-style base-context write.
    pub fn set_base(&mut self, c: ComponentId) {
        self.port_write();
        self.port.set_base(c);
        self.maybe_sample();
    }

    /// The shared cost of any component-ID register write: the classic I/O
    /// stall, the DAQ's transition bookkeeping (counters only — free), and
    /// in non-transparent mode a real store through the cache hierarchy to
    /// the memory-mapped register.
    fn port_write(&mut self) {
        self.machine.stall(self.io_cycles);
        self.daq.note_port_write();
        if self.probe.nontransparent {
            let c0 = self.machine.cycles();
            self.machine.store(PROBE_BASE + PROBE_PORT_OFFSET);
            self.port_stores += 1;
            self.cycles_paid += self.machine.cycles() - c0;
        }
    }

    /// Charged DAQ interrupt handler: walk [`DAQ_ISR_LINES`] lines of the
    /// sample ring, advancing the cursor so the traffic keeps evicting
    /// workload lines instead of settling into a resident set.
    fn pay_daq_sample(&mut self) {
        let c0 = self.machine.cycles();
        let line = u64::from(self.machine.spec().l1d.line_bytes);
        for _ in 0..DAQ_ISR_LINES {
            self.machine
                .load(PROBE_BASE + (self.isr_cursor % PROBE_RING_BYTES));
            self.isr_cursor += line;
        }
        self.daq_samples_paid += 1;
        self.cycles_paid += self.machine.cycles() - c0;
    }

    /// Charged OS-timer HPM read: a syscall-shaped stall plus one load per
    /// counter in the file.
    fn pay_hpm_read(&mut self) {
        let c0 = self.machine.cycles();
        self.machine.stall(self.hpm_stall);
        let line = u64::from(self.machine.spec().l1d.line_bytes);
        for i in 0..HPM_COUNTER_COUNT as u64 {
            self.machine.load(PROBE_BASE + PROBE_HPM_OFFSET + i * line);
        }
        self.hpm_reads_paid += 1;
        self.cycles_paid += self.machine.cycles() - c0;
    }

    /// Take any DAQ or HPM sample that has come due. This runs after every
    /// charge, and almost always finds nothing due, so it is one inline
    /// compare; the sampling itself is out of line in [`Meter::sample`].
    #[inline(always)]
    fn maybe_sample(&mut self) {
        if self.machine.cycles_f64() >= self.next_probe_at {
            self.sample();
        }
    }

    #[cold]
    #[inline(never)]
    fn sample(&mut self) {
        let snap = self.machine.snapshot();
        let c = self.port.current();
        let daq_fired = self.daq.observe(&snap, c);
        let perf_fired = self.perf.observe(&snap, c);
        if self.probe.nontransparent {
            // Probe costs are charged *after* the sample commits — the
            // handler's own work lands in the next window, exactly like
            // an ISR running with further sampling masked.
            if daq_fired {
                self.pay_daq_sample();
            }
            if perf_fired {
                self.pay_hpm_read();
            }
        }
        self.next_probe_at = next_deadline(&self.daq, &self.perf);
    }

    /// Drain any sample that is due right now (call at run end so the final
    /// partial window is not lost).
    pub fn flush_samples(&mut self) {
        // Force one final observation by stalling to the next boundary.
        let due = (self.next_probe_at as u64).saturating_sub(self.machine.cycles());
        if due > 0 {
            self.machine.stall(due as f64);
        }
        self.maybe_sample();
    }
}

impl Exec for Meter {
    fn int_ops(&mut self, n: u32) {
        self.machine.int_ops(n);
        self.maybe_sample();
    }
    fn fp_ops(&mut self, n: u32) {
        self.machine.fp_ops(n);
        self.maybe_sample();
    }
    fn math_op(&mut self) {
        self.machine.math_op();
        self.maybe_sample();
    }
    fn branch(&mut self) {
        self.machine.branch();
        self.maybe_sample();
    }
    fn load(&mut self, addr: Addr) {
        self.machine.load(addr);
        self.maybe_sample();
    }
    fn store(&mut self, addr: Addr) {
        self.machine.store(addr);
        self.maybe_sample();
    }
    fn ifetch(&mut self, addr: Addr) {
        self.machine.ifetch(addr);
        self.maybe_sample();
    }
    fn stall(&mut self, cycles: f64) {
        self.machine.stall(cycles);
        self.maybe_sample();
    }
    fn stream_read(&mut self, addr: Addr, bytes: u32) {
        // Sample at line granularity: delegate per-line so long streams
        // cannot skip sampling windows.
        let line = u64::from(self.machine.spec().l1d.line_bytes);
        let mut a = addr & !(line - 1);
        let end = addr + u64::from(bytes);
        while a < end {
            self.machine.load(a);
            self.maybe_sample();
            a += line;
        }
    }
    fn stream_write(&mut self, addr: Addr, bytes: u32) {
        let line = u64::from(self.machine.spec().l1d.line_bytes);
        let mut a = addr & !(line - 1);
        let end = addr + u64::from(bytes);
        while a < end {
            self.machine.store(a);
            self.maybe_sample();
            a += line;
        }
    }
    fn memcpy(&mut self, src: Addr, dst: Addr, bytes: u32) {
        self.stream_read(src, bytes);
        self.stream_write(dst, bytes);
        self.machine.int_ops(bytes / 4);
        self.maybe_sample();
    }
    fn cycles(&self) -> u64 {
        self.machine.cycles()
    }
    fn now(&self) -> f64 {
        self.machine.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_power::DEFAULT_DAQ_PERIOD_NS;

    #[test]
    fn samples_fire_during_long_work() {
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        m.set_base(ComponentId::Application);
        // 2 ms of work = ~50 DAQ windows.
        while Exec::now(&m) < 2e-3 {
            m.int_ops(1000);
        }
        m.flush_samples();
        let r = m.daq().report();
        assert!(r.component(ComponentId::Application).samples >= 40);
    }

    #[test]
    fn attribution_respects_nesting() {
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        m.set_base(ComponentId::Application);
        while Exec::now(&m) < 1e-3 {
            m.int_ops(1000);
        }
        m.enter(ComponentId::Gc);
        while Exec::now(&m) < 2e-3 {
            m.load(0x1000_0000 + (m.cycles() % (1 << 22)));
        }
        m.exit();
        m.flush_samples();
        let r = m.daq().report();
        assert!(r.component(ComponentId::Gc).samples > 10);
        assert!(r.component(ComponentId::Application).samples > 10);
    }

    #[test]
    fn gc_pause_is_sampled_via_exec_interface() {
        // Drive the meter through the dyn Exec interface the collectors use.
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        m.set_base(ComponentId::Application);
        m.enter(ComponentId::Gc);
        let e: &mut dyn Exec = &mut m;
        for i in 0..100_000u64 {
            e.load(0x1000_0000 + i * 64);
        }
        m.exit();
        m.flush_samples();
        assert!(m.daq().report().component(ComponentId::Gc).samples > 0);
    }

    #[test]
    fn io_writes_cost_cycles() {
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        let c0 = Exec::cycles(&m);
        m.enter(ComponentId::ClassLoader);
        m.exit();
        assert!(Exec::cycles(&m) - c0 >= 2 * 180);
        assert_eq!(m.port().writes(), 2);
    }

    #[test]
    fn span_recording_charges_zero_cycles() {
        let drive = |record: bool| {
            let mut m = Meter::new(PlatformKind::PentiumM, false);
            if record {
                m.enable_spans();
            }
            m.set_base(ComponentId::Application);
            m.enter(ComponentId::Gc);
            m.int_ops(5000);
            m.enter(ComponentId::ClassLoader);
            m.int_ops(100);
            m.exit();
            m.exit();
            m.flush_samples();
            (Exec::cycles(&m), m.take_spans())
        };
        let (bare_cycles, none) = drive(false);
        let (rec_cycles, spans) = drive(true);
        assert!(none.is_none());
        assert_eq!(bare_cycles, rec_cycles);
        let trace = spans.expect("recording enabled");
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.spans()[0].name, "CL");
        assert_eq!(trace.spans()[1].name, "GC");
        assert_eq!(trace.max_depth(), 2);
        assert_eq!(trace.total_cycles(), rec_cycles);
    }

    #[test]
    fn nontransparent_probes_cost_cycles_and_fill_the_ledger() {
        let drive = |probe: ProbeSpec| {
            let mut m = Meter::with_probe(
                PlatformKind::PentiumM,
                false,
                DvfsPoint::NOMINAL,
                FaultPlan::none(),
                probe,
            );
            m.set_base(ComponentId::Application);
            // Fixed work, not fixed time: the observer effect shows up as
            // extra cycles for the same workload.
            for _ in 0..10_000 {
                m.int_ops(1000);
            }
            m.enter(ComponentId::Gc);
            m.int_ops(5000);
            m.exit();
            m.flush_samples();
            (Exec::cycles(&m), m.probe_stats())
        };
        let (t_cycles, t_stats) = drive(ProbeSpec::default());
        let (nt_cycles, nt_stats) = drive(ProbeSpec::nontransparent_at(DEFAULT_DAQ_PERIOD_NS));
        // Transparent mode pays nothing but still tracks transitions.
        assert_eq!(t_stats.port_stores, 0);
        assert_eq!(t_stats.cycles_paid, 0);
        assert!(t_stats.transition_windows >= 1);
        // Non-transparent mode pays for every probe class.
        assert!(nt_stats.port_stores >= 3);
        assert!(nt_stats.daq_samples_paid >= 40);
        assert!(nt_stats.hpm_reads_paid >= 1);
        assert!(nt_stats.cycles_paid > 0);
        // Direct probe cycles are a lower bound on the observer effect —
        // evicted workload lines add knock-on misses on top.
        assert!(nt_cycles > t_cycles);
        assert!(nt_cycles - t_cycles >= nt_stats.cycles_paid);
    }

    #[test]
    fn retargeted_period_changes_sample_density() {
        let samples_at = |period_ns: u64| {
            let mut m = Meter::with_probe(
                PlatformKind::PentiumM,
                false,
                DvfsPoint::NOMINAL,
                FaultPlan::none(),
                ProbeSpec::transparent_at(period_ns),
            );
            m.set_base(ComponentId::Application);
            while Exec::now(&m) < 2e-3 {
                m.int_ops(1000);
            }
            m.flush_samples();
            m.daq().report().component(ComponentId::Application).samples
        };
        let fine = samples_at(4_000);
        let classic = samples_at(40_000);
        assert!(
            fine > 5 * classic,
            "4 µs sampling ({fine}) should far outnumber 40 µs ({classic})"
        );
    }

    #[test]
    fn fractional_charge_stream_reproduces_the_integer_deadline_samples() {
        // Recorded with the sampler that compared truncated `u64` cycles
        // against an integer deadline: (platform, cycles, DAQ samples, CPU
        // energy in J, HPM records).
        let recorded = [
            (
                PlatformKind::PentiumM,
                7_360_772,
                115,
                0.07980624389999999,
                4,
            ),
            (
                PlatformKind::Pxa255,
                16_983_806,
                1060,
                0.01721788249999998,
                4,
            ),
        ];
        for (kind, cycles, samples, energy, hpm_records) in recorded {
            let mut m = Meter::new(kind, false);
            m.set_base(ComponentId::Application);
            // Sub-cycle costs (int_cost 0.45 or 1.15, half-cycle stalls)
            // keep the accumulator between integers at most deadlines.
            for i in 0..360_000u64 {
                m.int_ops(37);
                m.stall(0.5);
                if i % 7 == 0 {
                    m.load(0x1000_0000 + (i * 40) % (1 << 20));
                }
            }
            m.flush_samples();
            let r = m.daq().report();
            let got = (
                Exec::cycles(&m),
                r.component(ComponentId::Application).samples,
                r.cpu_energy.joules(),
                m.perf().records().len(),
            );
            assert_eq!(got, (cycles, samples, energy, hpm_records), "{kind:?}");
        }
    }

    #[test]
    fn flush_captures_trailing_partial_window() {
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        m.set_base(ComponentId::Application);
        m.int_ops(10); // far less than one window
        m.flush_samples();
        let r = m.daq().report();
        assert!(r.component(ComponentId::Application).samples >= 1);
    }
}

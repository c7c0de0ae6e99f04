//! Property tests on the measurement stack: energy conservation in the
//! DAQ, thermal-model bounds, and power-model monotonicity.

use proptest::prelude::*;
use vmprobe_platform::{HpmDelta, Machine, PlatformKind};
use vmprobe_power::{
    ComponentId, Daq, DvfsPoint, FaultPlan, PerfMonitor, PowerModel, Seconds, ThermalConfig,
    ThermalSim, Watts, DAQ_PERIOD_S,
};

fn component(i: u8) -> ComponentId {
    ComponentId::ALL[i as usize % ComponentId::ALL.len()]
}

proptest! {
    #[test]
    fn daq_conserves_energy_across_components(
        segments in prop::collection::vec((0u8..9, 1u32..2000), 1..40),
    ) {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut daq = Daq::new(PlatformKind::PentiumM);
        for &(c, work) in &segments {
            for _ in 0..work {
                m.int_ops(17);
            }
            daq.observe(&m.snapshot(), component(c));
        }
        let r = daq.report();
        let sum: f64 = r.per_component.iter().map(|p| p.energy.joules()).sum();
        prop_assert!((sum - r.cpu_energy.joules()).abs() < 1e-12);
        let sum_t: f64 = r.per_component.iter().map(|p| p.time.seconds()).sum();
        prop_assert!((sum_t - r.sampled_time.seconds()).abs() < 1e-12);
        // Per component: peak >= average, energy = avg*time.
        for p in &r.per_component {
            if p.samples > 0 {
                prop_assert!(p.peak.watts() + 1e-12 >= p.avg_power().watts());
            }
        }
    }

    #[test]
    fn faulty_daq_energy_stays_within_the_documented_bound(
        drop_p in 0.0f64..0.5,
        dup_p in 0.0f64..0.3,
        noise in 0.0f64..0.05,
        drift in 0.0f64..1e-3,
        seed in any::<u64>(),
    ) {
        // Degradation contract: whatever mix of sample drops, duplicates,
        // Gaussian noise and calibration drift the plan injects, the energy
        // reported by the faulty DAQ deviates from the fault-free ground
        // truth by no more than the bound it reports alongside the data.
        let mut plan = FaultPlan::none();
        plan.drop_sample = drop_p;
        plan.dup_sample = dup_p;
        plan.noise_sigma = noise;
        plan.calib_drift = drift;
        plan.seed = seed;

        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut faulty = Daq::new(PlatformKind::PentiumM).with_faults(plan);
        let mut clean = Daq::new(PlatformKind::PentiumM);
        for i in 0..30_000u64 {
            m.int_ops(500);
            if i % 64 < 32 {
                m.load(0x1000_0000 + (i % 4096) * 8);
            }
            let snap = m.snapshot();
            let c = component((i / 512) as u8);
            faulty.observe(&snap, c);
            clean.observe(&snap, c);
        }
        let fr = faulty.report();
        let cr = clean.report();

        prop_assert!(fr.faults.samples_total > 100, "workload too short to judge");
        prop_assert!(
            fr.energy_deviation_j() <= fr.faults.energy_error_bound_j() + 1e-9,
            "deviation {} exceeds bound {}",
            fr.energy_deviation_j(),
            fr.faults.energy_error_bound_j()
        );
        // The faulty DAQ's clean-side ledger is the real ground truth: it
        // must match an actual fault-free DAQ fed the same snapshots.
        let ledger = fr.clean_cpu_energy.joules() + fr.clean_mem_energy.joules();
        let truth = cr.cpu_energy.joules() + cr.mem_energy.joules();
        prop_assert!(
            (ledger - truth).abs() <= 1e-9 * truth.max(1.0),
            "clean ledger {ledger} != fault-free run {truth}"
        );
    }

    #[test]
    fn daq_takes_floor_t_over_40us_samples_at_any_clock(
        freq_mhz in 25.0f64..4000.0,
        t_ms in 1.0f64..80.0,
    ) {
        // Over T simulated seconds the DAQ takes floor(T / 40 us) samples
        // (within one boundary) for arbitrary clocks, including the
        // non-integral cycle periods where a truncating schedule drifts.
        // The HPM monitor shares the schedule, so its records stay on the
        // 1 ms grid at the same clock.
        let freq_hz = freq_mhz * 1e6;
        let mut daq = Daq::with_model(
            PowerModel::new(PlatformKind::PentiumM),
            freq_hz,
            DAQ_PERIOD_S,
            true,
        );
        let mut perf = PerfMonitor::with_clock(PlatformKind::PentiumM, freq_hz);
        let mut m = Machine::new(PlatformKind::PentiumM);
        let total_cycles = (t_ms * 1e-3 * freq_hz) as u64;
        while m.cycles() < total_cycles {
            let due = daq
                .next_due_cycles()
                .min(perf.next_due_cycles())
                .min(total_cycles);
            m.stall((due - m.cycles()) as f64);
            daq.observe(&m.snapshot(), ComponentId::Application);
            perf.observe(&m.snapshot(), ComponentId::Application);
        }
        // Judge against the wall time actually simulated (total_cycles
        // truncates the requested T by under one cycle).
        let t_sim = total_cycles as f64 / freq_hz;
        let expect = (t_sim / DAQ_PERIOD_S).floor() as i64;
        let got = daq.trace().unwrap().len() as i64;
        prop_assert!(
            (got - expect).abs() <= 1,
            "{got} samples over {t_sim} s at {freq_hz} Hz, want {expect}±1"
        );
        // Record k lands within one cycle of k periods: the first deadline
        // and the carried remainder are each off by at most half a cycle.
        let hpm_period_cycles = 1e-3 * freq_hz;
        for (i, r) in perf.records().iter().enumerate() {
            let k = (i + 1) as f64;
            let off = (r.t * freq_hz - k * hpm_period_cycles).abs();
            prop_assert!(
                off <= 1.0 + 1e-6,
                "record {k} is {off} cycles off the 1 ms grid at {freq_hz} Hz"
            );
        }
    }

    #[test]
    fn cpu_power_is_monotonic_in_ipc(
        cycles in 1_000u64..100_000,
        i1 in 0u64..50_000,
        extra in 1u64..20_000,
    ) {
        let model = PowerModel::new(PlatformKind::PentiumM);
        let window = |instr: u64| HpmDelta { cycles, instructions: instr, ..HpmDelta::default() };
        let lo = model.cpu_power(&window(i1), 40e-6);
        let hi = model.cpu_power(&window(i1 + extra), 40e-6);
        prop_assert!(hi.watts() + 1e-12 >= lo.watts());
        // And never below idle.
        prop_assert!(lo.watts() >= 4.5 - 1e-12);
    }

    #[test]
    fn thermal_temperature_stays_between_ambient_and_unthrottled_steady_state(
        power in 5.0f64..20.0,
        steps in 10usize..4000,
        fan in any::<bool>(),
    ) {
        let cfg = ThermalConfig::default();
        let mut sim = ThermalSim::new(cfg, fan);
        let steady = sim.steady_state(Watts::new(power)).celsius();
        let dt = Seconds::new(0.1);
        for _ in 0..steps {
            let s = sim.step(Watts::new(power), Watts::new(4.5), dt);
            prop_assert!(s.temp.celsius() >= cfg.ambient_c - 1e-9);
            prop_assert!(
                s.temp.celsius() <= steady.max(cfg.trip_c + 2.0) + 1e-9,
                "temperature {} above both steady state {} and trip band",
                s.temp,
                steady
            );
        }
    }

    #[test]
    fn dvfs_scaling_never_increases_power(idx in 0usize..6) {
        let ladder = DvfsPoint::ladder(PlatformKind::PentiumM);
        let point = ladder[idx % ladder.len()];
        let base = PowerModel::new(PlatformKind::PentiumM);
        let scaled = PowerModel::with_coeffs(
            point.scale_coeffs(*base.coeffs()),
        );
        let d = HpmDelta { cycles: 64_000, instructions: 48_000, ..HpmDelta::default() };
        prop_assert!(
            scaled.cpu_power(&d, 40e-6).watts() <= base.cpu_power(&d, 40e-6).watts() + 1e-12
        );
    }
}

//! End-to-end pipeline tests: configuration → simulated run → offline
//! report, checking the measurement invariants the analysis relies on.

use vmprobe::{ExperimentConfig, Runner, VmChoice};
use vmprobe_heap::CollectorKind;
use vmprobe_platform::PlatformKind;
use vmprobe_power::ComponentId;
use vmprobe_workloads::InputScale;

fn quick(benchmark: &str, vm: VmChoice, heap_mb: u32, platform: PlatformKind) -> ExperimentConfig {
    ExperimentConfig {
        benchmark: benchmark.into(),
        vm,
        heap_mb,
        platform,
        scale: InputScale::Reduced,
        trace_power: false,
        record_spans: false,
        probe: vmprobe::ProbeSpec::default(),
    }
}

#[test]
fn energy_fractions_sum_to_one() {
    let run = quick(
        "_202_jess",
        VmChoice::Jikes(CollectorKind::GenCopy),
        32,
        PlatformKind::PentiumM,
    )
    .run()
    .expect("runs");
    let total: f64 = ComponentId::ALL.iter().map(|&c| run.fraction(c)).sum();
    assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
}

#[test]
fn component_energy_is_consistent_with_power_and_time() {
    let run = quick(
        "_209_db",
        VmChoice::Jikes(CollectorKind::SemiSpace),
        32,
        PlatformKind::PentiumM,
    )
    .run()
    .expect("runs");
    for (c, p) in &run.report.components {
        let recomputed = p.avg_power.watts() * p.time.seconds();
        assert!(
            (recomputed - p.energy.joules()).abs() < 1e-9,
            "{c}: energy {} != avg_power*time {recomputed}",
            p.energy.joules()
        );
        assert!(p.peak_power >= p.avg_power, "{c}: peak below average");
    }
}

#[test]
fn sampled_time_accounts_for_the_whole_run() {
    let run = quick(
        "moldyn",
        VmChoice::Jikes(CollectorKind::MarkSweep),
        32,
        PlatformKind::PentiumM,
    )
    .run()
    .expect("runs");
    let sampled: f64 = run
        .report
        .components
        .values()
        .map(|p| p.time.seconds())
        .sum();
    let duration = run.duration_s();
    // The DAQ covers the run up to the final partial window.
    assert!(
        sampled > 0.95 * duration && sampled <= duration * 1.001,
        "sampled {sampled} vs duration {duration}"
    );
}

#[test]
fn edp_matches_definition_everywhere() {
    for vm in [VmChoice::Jikes(CollectorKind::GenMs), VmChoice::Kaffe] {
        let run = quick("_228_jack", vm, 32, PlatformKind::PentiumM)
            .run()
            .expect("runs");
        let expected = run.report.total_energy.joules() * run.duration_s();
        assert!((run.edp() - expected).abs() < 1e-12);
    }
}

#[test]
fn runs_are_bit_for_bit_deterministic() {
    let cfg = quick(
        "raytracer",
        VmChoice::Jikes(CollectorKind::GenCopy),
        48,
        PlatformKind::PentiumM,
    );
    let a = cfg.run().expect("first run");
    let b = cfg.run().expect("second run");
    assert_eq!(a.vm.bytecodes, b.vm.bytecodes);
    assert_eq!(a.gc, b.gc);
    assert_eq!(
        a.report.total_energy.joules().to_bits(),
        b.report.total_energy.joules().to_bits()
    );
    assert_eq!(a.edp().to_bits(), b.edp().to_bits());
}

#[test]
fn runner_caches_and_shares_runs() {
    let runner = Runner::new();
    let cfg = quick(
        "search",
        VmChoice::Jikes(CollectorKind::SemiSpace),
        32,
        PlatformKind::PentiumM,
    );
    let a = runner.run(&cfg).expect("runs");
    let b = runner.run(&cfg).expect("cached");
    assert!(std::sync::Arc::ptr_eq(&a, &b));
    assert_eq!(runner.runs_executed(), 1);
}

#[test]
fn power_trace_is_recorded_when_requested() {
    let mut cfg = quick(
        "_201_compress",
        VmChoice::Jikes(CollectorKind::MarkSweep),
        32,
        PlatformKind::PentiumM,
    );
    cfg.trace_power = true;
    let run = cfg.run().expect("runs");
    let trace = run.power_trace.as_ref().expect("trace recorded");
    assert!(
        trace.len() > 25,
        "expected many 40us samples, got {}",
        trace.len()
    );
    assert!(
        trace.windows(2).all(|w| w[0].t <= w[1].t),
        "trace must be time-ordered"
    );
    // Every sample's power is at least idle and below TDP.
    assert!(trace.iter().all(|s| s.cpu_w >= 4.5 && s.cpu_w < 24.5));
}

#[test]
fn pxa_runs_are_milliwatt_scale() {
    let run = quick("_209_db", VmChoice::Kaffe, 16, PlatformKind::Pxa255)
        .run()
        .expect("runs");
    let app = run
        .report
        .component(ComponentId::Application)
        .expect("app sampled");
    assert!(
        app.avg_power.watts() > 0.07 && app.avg_power.watts() < 0.6,
        "PXA255 app power {} outside the sub-watt envelope",
        app.avg_power
    );
    // DRAM on the board idles near 5 mW.
    assert!(run.report.mem_energy.joules() > 0.0);
}

#[test]
fn oom_reports_cleanly_through_the_experiment_layer() {
    // 12 MB label = 1.5 MiB simulated: too small for javac's full live set.
    let cfg = ExperimentConfig::jikes("_213_javac", CollectorKind::SemiSpace, 12);
    match cfg.run() {
        Err(vmprobe::ExperimentError::Vm { source, .. }) => {
            assert!(matches!(source, vmprobe_vm::VmError::OutOfMemory { .. }));
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

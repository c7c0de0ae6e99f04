//! Garbage collection must be semantically transparent: the same program
//! computes the same result under every collector, every heap size and
//! every platform — only time/energy may differ.

use vmprobe::{ExperimentConfig, VmChoice};
use vmprobe_heap::CollectorKind;
use vmprobe_platform::PlatformKind;
use vmprobe_workloads::InputScale;

/// The benchmark checksum (the entry method's return value).
fn checksum(benchmark: &str, vm: VmChoice, heap_mb: u32, platform: PlatformKind) -> i64 {
    let cfg = ExperimentConfig {
        benchmark: benchmark.into(),
        vm,
        heap_mb,
        platform,
        scale: InputScale::Reduced,
        trace_power: false,
        record_spans: false,
        probe: vmprobe::ProbeSpec::default(),
    };
    let run = cfg
        .run()
        .unwrap_or_else(|e| panic!("{benchmark} under {vm}: {e}"));
    run.result_checksum.expect("benchmark returns a checksum")
}

#[test]
fn identical_results_across_all_collectors() {
    let reference = checksum(
        "_202_jess",
        VmChoice::Jikes(CollectorKind::SemiSpace),
        32,
        PlatformKind::PentiumM,
    );
    for vm in [
        VmChoice::Jikes(CollectorKind::MarkSweep),
        VmChoice::Jikes(CollectorKind::GenCopy),
        VmChoice::Jikes(CollectorKind::GenMs),
        VmChoice::Kaffe,
    ] {
        assert_eq!(
            checksum("_202_jess", vm, 32, PlatformKind::PentiumM),
            reference,
            "collector {vm} changed the program's result"
        );
    }
}

#[test]
fn identical_results_across_heap_sizes() {
    let reference = checksum(
        "pmd",
        VmChoice::Jikes(CollectorKind::GenCopy),
        32,
        PlatformKind::PentiumM,
    );
    for heap in [48, 96, 128] {
        assert_eq!(
            checksum(
                "pmd",
                VmChoice::Jikes(CollectorKind::GenCopy),
                heap,
                PlatformKind::PentiumM
            ),
            reference,
            "heap size {heap} changed the program's result"
        );
    }
}

#[test]
fn identical_results_across_platforms() {
    let p6 = checksum("_228_jack", VmChoice::Kaffe, 32, PlatformKind::PentiumM);
    let pxa = checksum("_228_jack", VmChoice::Kaffe, 32, PlatformKind::Pxa255);
    assert_eq!(p6, pxa, "platform changed the program's result");
}

#[test]
fn every_benchmark_completes_under_its_tightest_paper_heap() {
    // Reduced inputs at the smallest P6 label: all 16 must fit and finish.
    for b in vmprobe_workloads::all_benchmarks() {
        let _ = checksum(
            b.name,
            VmChoice::Jikes(CollectorKind::GenMs),
            32,
            PlatformKind::PentiumM,
        );
    }
}

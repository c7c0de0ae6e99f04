//! Self-overhead of the telemetry layer: Figure 6 over the quick grid with no
//! hub attached vs a full recording hub (counters, histograms, and
//! virtual + host span streams).
//!
//! Each iteration uses a fresh runner (cold memo) so every cell actually
//! executes and records. The two variants must render byte-identical
//! figure text — span recording charges zero simulated cycles — and the
//! timing gap between them is the telemetry tax that
//! `vmprobe-run --telemetry-overhead` reports (CI asserts it stays
//! under 5% on fig6).

use criterion::{criterion_group, criterion_main, Criterion};
use vmprobe::figures::{self, Grid};
use vmprobe::{Runner, Telemetry};
use vmprobe_workloads::InputScale;

fn sweep(telemetry: Telemetry) -> String {
    let mut runner = Runner::new()
        .scale(InputScale::Reduced)
        .with_telemetry(telemetry);
    let grid = Grid::quick();
    figures::fig6(&mut runner, &grid.p6_benchmarks, &grid.p6_heaps)
        .expect("fig6 regenerates")
        .to_string()
}

fn bench(c: &mut Criterion) {
    assert_eq!(
        sweep(Telemetry::disabled()),
        sweep(Telemetry::recording()),
        "instrumentation must not change figure output"
    );

    c.bench_function("fig06_sweep_telemetry_off", |b| {
        b.iter(|| sweep(Telemetry::disabled()))
    });
    c.bench_function("fig06_sweep_telemetry_recording", |b| {
        b.iter(|| sweep(Telemetry::recording()))
    });
}

criterion_group! {
    name = benches;
    config = vmprobe_bench::criterion();
    targets = bench
}
criterion_main!(benches);

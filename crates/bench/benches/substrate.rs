//! Substrate micro-benchmarks: how fast the simulator itself is.
//!
//! Not a paper artifact — these guard the performance of the pieces the
//! figure sweeps depend on (cache simulation, interpreter, collectors).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmprobe_heap::{AllocRequest, CollectorKind, ObjectHeap, RootSet};
use vmprobe_platform::{
    Cache, CacheConfig, CpuSpec, Exec, Machine, PlatformKind, CODE_BASE, HEAP_BASE,
};
use vmprobe_power::ComponentId;
use vmprobe_vm::Meter;

fn bench(c: &mut Criterion) {
    c.bench_function("cache_access_hit", |b| {
        let mut cache = Cache::new(CacheConfig {
            name: "L1D",
            size_bytes: 32 << 10,
            ways: 8,
            line_bytes: 64,
        });
        cache.access(0x1000);
        b.iter(|| black_box(cache.access(black_box(0x1000))));
    });

    // Every line of one 32-way PXA255 set, touched round-robin: each
    // access hits, but never in the way touched last, so it pays the scan.
    c.bench_function("cache_access_set_scan_pxa", |b| {
        let cfg = CpuSpec::of(PlatformKind::Pxa255).l1d;
        let set_stride = u64::from(cfg.sets() * cfg.line_bytes);
        let ways = u64::from(cfg.ways);
        let mut cache = Cache::new(cfg);
        for k in 0..ways {
            cache.access(k * set_stride);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % ways;
            black_box(cache.access(black_box(k * set_stride)))
        });
    });

    // One simulated bytecode's charges through the meter, DAQ sampling on:
    // dispatch µops, a data load and an instruction fetch.
    c.bench_function("meter_charge_mix", |b| {
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        m.set_base(ComponentId::Application);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % (16 << 10);
            m.int_ops(3);
            m.load(HEAP_BASE + i);
            m.ifetch(CODE_BASE + i);
            black_box(m.cycles())
        });
    });

    c.bench_function("machine_load_l2_resident", |b| {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 64) % (256 << 10);
            m.load(0x1000_0000 + i);
            black_box(m.cycles())
        });
    });

    c.bench_function("semispace_collect_10k_objects", |b| {
        b.iter(|| {
            let mut heap = ObjectHeap::new();
            let mut plan = CollectorKind::SemiSpace.new_plan(8 << 20);
            let mut m = Machine::new(PlatformKind::PentiumM);
            let mut roots = Vec::new();
            for i in 0..10_000 {
                let id = plan
                    .alloc(&mut heap, AllocRequest::instance(0, 2, 2), &mut m)
                    .expect("fits");
                if i % 4 == 0 {
                    roots.push(id);
                }
            }
            let stats = plan.collect(&mut heap, &RootSet::from_refs(roots), &mut m);
            black_box(stats.live_objects)
        });
    });
}

criterion_group! {
    name = benches;
    config = vmprobe_bench::criterion();
    targets = bench
}
criterion_main!(benches);

//! Substrate micro-benchmarks: how fast the simulator itself is.
//!
//! Not a paper artifact — these guard the performance of the pieces the
//! figure sweeps depend on (cache simulation, interpreter, collectors) and
//! of the JSON codec the serve wire and the persistent cache run on.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmprobe::json::{JsonObj, JsonValue};
use vmprobe::{CacheLookup, ExperimentCache, ExperimentConfig};
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
    // access hits, but always on the set's least recent line, so it pays
    // the full scan and moves the whole set.
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

    // 33 lines of one 32-way PXA255 set, touched round-robin: every
    // access misses and evicts. One iteration is 33 000 accesses.
    c.bench_function("cache_access_miss_pxa", |b| {
        let cfg = CpuSpec::of(PlatformKind::Pxa255).l1d;
        let set_stride = u64::from(cfg.sets() * cfg.line_bytes);
        let lines = u64::from(cfg.ways) + 1;
        let mut cache = Cache::new(cfg);
        b.iter(|| {
            let mut hits = 0u32;
            for _ in 0..1000 {
                for k in 0..lines {
                    hits += u32::from(cache.access(black_box(k * set_stride)));
                }
            }
            black_box(hits)
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

    // Allocation churn on the object table: rounds of small instances
    // mixed with arrays of 256 words or more, each round collected with a
    // few survivors rooted, so payloads are freed, reused and compacted.
    c.bench_function("object_heap_alloc_free_churn", |b| {
        b.iter(|| {
            let mut heap = ObjectHeap::new();
            let mut plan = CollectorKind::SemiSpace.new_plan(32 << 20);
            let mut m = Machine::new(PlatformKind::PentiumM);
            for round in 0..20u32 {
                let mut roots = Vec::new();
                for i in 0..500u32 {
                    let req = match i % 50 {
                        0 => AllocRequest::int_array(256 + round + i / 50),
                        25 => AllocRequest::ref_array(300 + i / 50),
                        _ => AllocRequest::instance(0, i % 4, 1 + i % 5),
                    };
                    let id = plan.alloc(&mut heap, req, &mut m).expect("fits");
                    if i % 16 == 0 {
                        roots.push(id);
                    }
                }
                plan.collect(&mut heap, &RootSet::from_refs(roots), &mut m);
            }
            black_box(heap.live_objects())
        });
    });

    // 50 000 allocations through Kaffe's plan: small instances with an
    // int array every 16th, in a 1 MB heap collected with no roots each
    // time it fills (a few times per iteration). Allocation dominates, so
    // this shows the per-allocation host cost, which must not grow with
    // an index that only a collection reads.
    c.bench_function("kaffe_alloc_churn", |b| {
        b.iter(|| {
            let mut heap = ObjectHeap::new();
            let mut plan = CollectorKind::KaffeIncremental.new_plan(1 << 20);
            let mut m = Machine::new(PlatformKind::PentiumM);
            for i in 0..50_000u32 {
                let req = match i % 16 {
                    0 => AllocRequest::int_array(64),
                    _ => AllocRequest::instance(0, i % 3, 1 + i % 4),
                };
                if plan.alloc(&mut heap, req, &mut m).is_err() {
                    plan.collect(&mut heap, &RootSet::new(), &mut m);
                    plan.alloc(&mut heap, req, &mut m)
                        .expect("fits after a collection");
                }
            }
            black_box(plan.stats().collections)
        });
    });

    // A typical serve `run` request line.
    c.bench_function("json_parse_run_line", |b| {
        let line = r#"{"op":"run","id":"r-17","tenant":"t0","benchmark":"_209_db","collector":"gencopy","heap_mb":64,"platform":"p6","scale":"s10"}"#;
        b.iter(|| black_box(JsonValue::parse(black_box(line)).is_ok()));
    });

    // A `verify` line carrying a 60 KB program: the string scan must stay
    // linear in the line length.
    c.bench_function("json_parse_long_string", |b| {
        let unit = "  iconst 1\n  iadd\n";
        let program = unit.repeat(60 * 1024 / unit.len());
        let mut o = JsonObj::new();
        o.str("op", "verify")
            .str("id", "v")
            .str("program", &program);
        let line = o.finish();
        b.iter(|| black_box(JsonValue::parse(black_box(&line)).is_ok()));
    });

    // One persistent-cache lookup served from disk: read, checksum, parse
    // and decode a real cell's entry.
    c.bench_function("cache_entry_decode", |b| {
        let dir = std::env::temp_dir().join(format!("vmprobe-bench-cache-{}", std::process::id()));
        let mut cfg = ExperimentConfig::jikes("_209_db", CollectorKind::GenCopy, 32);
        cfg.scale = vmprobe_workloads::InputScale::Reduced;
        let summary = Arc::new(cfg.run().expect("cell runs"));
        let cache = ExperimentCache::open(&dir).expect("temp dir");
        cache.store(&cfg.key(), &summary);
        b.iter(|| black_box(matches!(cache.lookup(&cfg.key()), CacheLookup::Hit(_))));
        let _ = std::fs::remove_dir_all(&dir);
    });
}

criterion_group! {
    name = benches;
    config = vmprobe_bench::criterion();
    targets = bench
}
criterion_main!(benches);

//! Metamorphic relations over heap size, platform and clock.
//!
//! A simulated run has no oracle for its absolute numbers, but runs that
//! differ only in heap size must relate:
//!
//! * **Monotone collections.** Under SemiSpace and MarkSweep, growing the
//!   heap never adds a collection, and never fails a run that finished.
//! * **Heap prefix.** A run whose collector took no heap-size-dependent
//!   branch (`RunOutcome::heap_bound` is false) is, field for field, the
//!   run of every larger heap. The supervised runner simulates each heap
//!   ladder once on the strength of it (DESIGN.md §18), so the relation is
//!   checked on plans driven by random scripts, on raw VM runs over random
//!   blueprints, and through runner batches at jobs 1 and 2.
//!
//! The next tests pin where ladder sharing fires and where it must not.
//!
//! Runs that differ only in platform must relate too:
//!
//! * **Platform-free counts.** The platform sets cycles, caches and power,
//!   never what the VM executes, so the P6 and the PXA255 run the same
//!   bytecodes, calls, allocations, collections, copies, barriers, class
//!   loads and baseline/JIT compiles.
//! * **DVFS.** So does the operating point. A lower clock keeps those
//!   counts, never needs more simulated cycles (only DRAM latency is fixed
//!   in nanoseconds, so only its stalls shrink) and never finishes sooner.

use proptest::prelude::*;
use proptest::test_runner::{run_cases, ProptestConfig, TestCaseError, TestRng};
use vmprobe::figures::{self, Grid};
use vmprobe::{CounterId, ExperimentConfig, FaultPlan, Runner, Telemetry};
use vmprobe_heap::{
    AllocRequest, CollectorKind, CollectorPlan, GcStats, ObjId, ObjectHeap, RootSet,
};
use vmprobe_platform::{Machine, PlatformKind};
use vmprobe_power::DvfsPoint;
use vmprobe_vm::{CompilerStats, RunOutcome, Vm, VmConfig, VmError, VmStats};
use vmprobe_workloads::{benchmark, build_program, Blueprint, InputScale};

const COLLECTORS: [CollectorKind; 5] = [
    CollectorKind::SemiSpace,
    CollectorKind::MarkSweep,
    CollectorKind::GenCopy,
    CollectorKind::GenMs,
    CollectorKind::KaffeIncremental,
];

/// Simulated heaps from "out of memory" through "Kaffe increments" to
/// "no collection at all" for reduced-input blueprints, which allocate
/// tens of KiB. A generational nursery is clamped below 2 MiB unless a
/// smaller nursery is configured.
const HEAPS: [u64; 11] = [
    4 << 10,
    8 << 10,
    12 << 10,
    16 << 10,
    24 << 10,
    32 << 10,
    48 << 10,
    64 << 10,
    128 << 10,
    512 << 10,
    2 << 20,
];

/// Nursery sizes to configure: the default policy, or one small enough
/// to leave unclamped at most heaps above.
const NURSERIES: [Option<u64>; 3] = [None, Some(4 << 10), Some(8 << 10)];

fn arb_blueprint() -> impl Strategy<Value = Blueprint> {
    (
        1u32..4,                // phases
        0u32..10,               // lists_per_phase
        1u32..200,              // nodes_per_list
        0u32..3,                // trees_per_phase
        1u32..7,                // tree_depth
        16u32..400,             // live_records
        1u32..8,                // record_payload_words
        0u32..200,              // queries_per_phase
        (0u32..500, 0u32..500), // int, fp iterations
    )
        .prop_map(
            |(phases, lists, nodes, trees, depth, recs, payload, queries, (ii, fi))| Blueprint {
                phases,
                lists_per_phase: lists,
                nodes_per_list: nodes,
                trees_per_phase: trees,
                tree_depth: depth,
                live_records: recs,
                record_payload_words: payload,
                queries_per_phase: queries,
                query_walk: 2,
                int_iters: ii,
                fp_iters: fi,
                math_every: 7,
                hot_kernels: 2,
                app_classes: 3,
                class_padding: 128,
                work_array_words: 256,
            },
        )
}

/// `len` distinct entries of `from`, ascending; 2–4 of them when `len`
/// is `None`.
fn ladder<T: Copy + Ord>(rng: &mut TestRng, from: &[T], len: Option<usize>) -> Vec<T> {
    let len = len.unwrap_or_else(|| 2 + (rng.next_u64() % 3) as usize);
    let mut picked: Vec<T> = Vec::new();
    while picked.len() < len {
        let h = from[(rng.next_u64() % from.len() as u64) as usize];
        if !picked.contains(&h) {
            picked.push(h);
        }
    }
    picked.sort();
    picked
}

fn run_vm(
    bp: &Blueprint,
    collector: CollectorKind,
    heap: u64,
    nursery: Option<u64>,
) -> Result<RunOutcome, VmError> {
    let mut cfg = match collector {
        CollectorKind::KaffeIncremental => VmConfig::kaffe(heap),
        k => VmConfig::jikes(k, heap),
    };
    cfg.nursery_bytes = nursery;
    Vm::try_new(build_program(bp, InputScale::Reduced), cfg)?.run()
}

/// Every observable of a run except the power trace and spans (neither
/// is recorded here), in one comparable string.
fn observables(o: &RunOutcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}",
        o.report,
        o.gc,
        o.vm,
        o.compiler,
        o.duration,
        o.result,
        o.live_bytes_end,
        o.total_alloc_bytes,
        o.rir_bytecodes,
        o.heap_bound
    )
}

#[test]
fn collections_never_rise_as_the_heap_grows() {
    run_cases(
        ProptestConfig::with_cases(12),
        "collections_never_rise_as_the_heap_grows",
        |rng| {
            let bp = arb_blueprint().new_value(rng);
            let heaps = ladder(rng, &HEAPS, Some(3));
            for collector in [CollectorKind::SemiSpace, CollectorKind::MarkSweep] {
                let mut last: Option<(u64, u64)> = None;
                for &heap in &heaps {
                    let out = match run_vm(&bp, collector, heap, None) {
                        Ok(out) => out,
                        // A heap too small to finish has no count, and
                        // every smaller heap must fail too.
                        Err(e) => {
                            prop_assert!(
                                last.is_none(),
                                "{} fails at {} bytes: {}",
                                collector,
                                heap,
                                e
                            );
                            continue;
                        }
                    };
                    let n = out.gc.collections;
                    if let Some((smaller, m)) = last {
                        prop_assert!(
                            n <= m,
                            "{} collected {} times at {} bytes but {} times at {}",
                            collector,
                            n,
                            heap,
                            m,
                            smaller
                        );
                    }
                    last = Some((heap, n));
                }
            }
            Ok(())
        },
    );
}

/// One step of a plan-level script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate an instance with this many primitive words, or (`large`)
    /// a 4–36 KiB int array: past a small nursery, or past the
    /// large-object threshold. `keep` roots it.
    Alloc {
        words: u32,
        large: bool,
        keep: bool,
    },
    /// Forget the root at this index (modulo the root count).
    Drop(usize),
    Collect,
    /// An incremental step, when the plan wants one.
    Increment,
}

/// Mostly allocations, so that small heaps fill before the first
/// explicit collection.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u32..100, 0u32..64, any::<usize>()).prop_map(|(pick, words, i)| match pick {
        0..=84 => Op::Alloc {
            words,
            large: i % 20 == 0,
            keep: i % 3 == 0,
        },
        85..=92 => Op::Drop(i),
        93..=97 => Op::Increment,
        _ => Op::Collect,
    })
}

/// Run `ops` on `plan`, returning after each step what it did (its
/// result and the machine's cycle count) and whether the plan was then
/// heap-bound.
fn transcript(mut plan: Box<dyn CollectorPlan>, ops: &[Op]) -> Vec<(String, bool)> {
    let mut heap = ObjectHeap::new();
    let mut machine = Machine::new(PlatformKind::PentiumM);
    let mut roots: Vec<ObjId> = Vec::new();
    ops.iter()
        .map(|op| {
            let did = match *op {
                Op::Alloc { words, large, keep } => {
                    let req = if large {
                        AllocRequest::int_array(512 + words * 64)
                    } else {
                        AllocRequest::instance(0, 1, words)
                    };
                    let got = plan.alloc(&mut heap, req, &mut machine);
                    if let (Ok(id), true) = (got, keep) {
                        roots.push(id);
                    }
                    format!("{:?}", got.map(|id| (id, heap.get(id).addr())))
                }
                Op::Drop(i) if !roots.is_empty() => {
                    let id = roots.remove(i % roots.len());
                    format!("drop {id:?}")
                }
                Op::Drop(_) => String::new(),
                Op::Collect => {
                    let stats =
                        plan.collect(&mut heap, &RootSet::from_refs(roots.clone()), &mut machine);
                    format!("{stats:?}")
                }
                Op::Increment => {
                    let wants = plan.wants_increment();
                    let stats = wants.then(|| {
                        plan.increment(&mut heap, &RootSet::from_refs(roots.clone()), &mut machine)
                    });
                    format!("{wants} {stats:?}")
                }
            };
            (
                format!("{did} @{}", machine.cycles_f64()),
                plan.heap_bound(),
            )
        })
        .collect()
}

#[test]
fn plans_match_every_larger_heap_until_heap_bound() {
    run_cases(
        ProptestConfig::with_cases(64),
        "plans_match_every_larger_heap_until_heap_bound",
        |rng| {
            let collector = COLLECTORS[(rng.next_u64() % 5) as usize];
            let nursery = NURSERIES[(rng.next_u64() % 3) as usize];
            let usable: Vec<u64> = HEAPS
                .into_iter()
                .filter(|&h| h >= collector.min_heap_bytes())
                .collect();
            let heaps = ladder(rng, &usable, None);
            let ops = prop::collection::vec(arb_op(), 1..400).new_value(rng);
            let runs: Vec<Vec<(String, bool)>> = heaps
                .iter()
                .map(|&h| {
                    let plan = collector
                        .try_new_plan_configured(h, nursery)
                        .expect("usable heaps are large enough");
                    transcript(plan, &ops)
                })
                .collect();
            for (k, run) in runs.iter().enumerate() {
                // The longest prefix after which the plan was not bound.
                let free = run.iter().take_while(|(_, bound)| !bound).count();
                for (j, larger) in runs.iter().enumerate().skip(k + 1) {
                    prop_assert_eq!(
                        &larger[..free],
                        &run[..free],
                        "{} (nursery {:?}) at {} bytes was not heap-bound, yet {} bytes differs",
                        collector,
                        nursery,
                        heaps[k],
                        heaps[j]
                    );
                }
            }
            Ok(())
        },
    );
}

/// What the random cases reached, so the prefix property cannot pass
/// vacuously.
#[derive(Debug, Default)]
struct Reached {
    shared_pairs: u32,
    bound_runs: u32,
    out_of_memory: u32,
    kaffe_increments: u32,
    clamped_nurseries: u32,
}

#[test]
fn unbound_runs_answer_every_larger_heap() {
    let mut reached = Reached::default();
    run_cases(
        ProptestConfig::with_cases(10),
        "unbound_runs_answer_every_larger_heap",
        |rng| {
            let bp = arb_blueprint().new_value(rng);
            let nursery = NURSERIES[(rng.next_u64() % 3) as usize];
            let heaps = ladder(rng, &HEAPS, None);
            for collector in COLLECTORS {
                let runs: Vec<Result<RunOutcome, VmError>> = heaps
                    .iter()
                    .map(|&h| run_vm(&bp, collector, h, nursery))
                    .collect();
                for (k, run) in runs.iter().enumerate() {
                    let out = match run {
                        // Below the collector's minimum layout.
                        Err(VmError::HeapConfig { .. }) => continue,
                        Err(VmError::OutOfMemory { .. }) => {
                            reached.out_of_memory += 1;
                            continue;
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{collector}: {e}"))),
                        Ok(out) => out,
                    };
                    if out.gc.increments > 0 {
                        reached.kaffe_increments += 1;
                    }
                    if collector.is_generational() && nursery.is_none() && heaps[k] < 2 << 20 {
                        reached.clamped_nurseries += 1;
                    }
                    if out.heap_bound {
                        reached.bound_runs += 1;
                        continue;
                    }
                    let want = observables(out);
                    for (j, larger) in runs.iter().enumerate().skip(k + 1) {
                        let got = larger.as_ref().map(observables).map_err(|e| e.to_string());
                        prop_assert_eq!(
                            got.as_ref(),
                            Ok(&want),
                            "{} (nursery {:?}) at {} bytes took no heap-bound branch, yet {} bytes differs",
                            collector,
                            nursery,
                            heaps[k],
                            heaps[j]
                        );
                        reached.shared_pairs += 1;
                    }
                }
            }
            Ok(())
        },
    );
    assert!(reached.shared_pairs > 0, "{reached:?}");
    assert!(reached.bound_runs > 0, "{reached:?}");
    assert!(reached.out_of_memory > 0, "{reached:?}");
    assert!(reached.kaffe_increments > 0, "{reached:?}");
    assert!(reached.clamped_nurseries > 0, "{reached:?}");
}

/// Heap labels from out of memory to GC-free at reduced inputs.
const LABELS_MB: [u32; 9] = [2, 4, 6, 8, 12, 16, 24, 32, 64];
const BENCHMARKS: [&str; 6] = [
    "_213_javac",
    "_209_db",
    "_201_compress",
    "fop",
    "moldyn",
    "search",
];

fn rendered(
    result: Result<impl std::fmt::Debug, impl std::fmt::Display>,
) -> Result<String, String> {
    result.map(|s| format!("{s:?}")).map_err(|e| e.to_string())
}

/// Each cell run on its own.
fn fresh(cells: &[ExperimentConfig]) -> Vec<Result<String, String>> {
    cells.iter().map(|c| rendered(c.run())).collect()
}

/// `cells` resolved in one batch on a fresh runner at `jobs` workers, and
/// how many of them were shared.
fn batch(jobs: usize, cells: &[ExperimentConfig]) -> (Vec<Result<String, String>>, u64) {
    let telemetry = Telemetry::counters_only();
    let results = Runner::new()
        .jobs(jobs)
        .with_telemetry(telemetry.clone())
        .run_batch(cells)
        .into_iter()
        .map(rendered)
        .collect();
    (results, telemetry.counter(CounterId::CellsShared))
}

#[test]
fn ladder_batches_equal_fresh_runs() {
    let mut shared = 0;
    run_cases(
        ProptestConfig::with_cases(12),
        "ladder_batches_equal_fresh_runs",
        |rng| {
            let bench = BENCHMARKS[(rng.next_u64() % BENCHMARKS.len() as u64) as usize];
            let collector = COLLECTORS[(rng.next_u64() % 5) as usize];
            let pxa = rng.next_u64() % 4 == 0;
            let cells: Vec<ExperimentConfig> = ladder(rng, &LABELS_MB, None)
                .into_iter()
                .map(|mb| {
                    let mut c = match collector {
                        CollectorKind::KaffeIncremental if pxa => {
                            ExperimentConfig::kaffe_pxa(bench, mb)
                        }
                        CollectorKind::KaffeIncremental => ExperimentConfig::kaffe(bench, mb),
                        k => ExperimentConfig::jikes(bench, k, mb),
                    };
                    c.scale = InputScale::Reduced;
                    c
                })
                .collect();
            let want = fresh(&cells);
            for jobs in [1, 2] {
                let (got, n) = batch(jobs, &cells);
                prop_assert_eq!(&got, &want, "{} {:?} at jobs {}", bench, collector, jobs);
                shared += n;
            }
            Ok(())
        },
    );
    assert!(shared > 0, "no ladder shared a run");
}

/// `cells_shared` after rendering `artifacts` cold over the quick grid.
fn quick_shared(artifacts: &[&str], faults: FaultPlan) -> u64 {
    let telemetry = Telemetry::counters_only();
    let mut runner = Runner::new()
        .jobs(2)
        .scale(InputScale::Reduced)
        .with_faults(faults)
        .with_telemetry(telemetry.clone());
    let grid = Grid::quick();
    for name in artifacts {
        let artifact = figures::ARTIFACTS
            .iter()
            .find(|a| a.name == *name)
            .expect("registered artifact");
        (artifact.render)(&mut runner, &grid).expect("renders");
    }
    let shared = telemetry.counter(CounterId::CellsShared);
    assert!(shared < telemetry.counter(CounterId::CellsExecuted));
    shared
}

#[test]
fn quick_fig7_shares_most_ladders() {
    let shared = quick_shared(&["fig7"], FaultPlan::none());
    assert!(shared >= 10, "fig7 shared {shared} cells");
}

#[test]
fn quick_kaffe_sweeps_share_exactly_the_collection_free_ladders() {
    // Of the eight Kaffe ladders, only `_213_javac` on the PXA255 collects
    // at 16 MB.
    assert_eq!(quick_shared(&["fig9", "fig11"], FaultPlan::none()), 7);
}

#[test]
fn faulted_sweeps_share_nothing() {
    let noise = FaultPlan::parse("noise=0.01").expect("valid spec");
    assert_eq!(quick_shared(&["fig9", "fig11"], noise), 0);
}

#[test]
fn a_failing_trunk_never_fails_a_larger_heap() {
    // 1 MB runs out of memory; 64 MB must still run, and on its own.
    let cells: Vec<ExperimentConfig> = [1, 64]
        .into_iter()
        .map(|mb| {
            let mut c = ExperimentConfig::jikes("_213_javac", CollectorKind::SemiSpace, mb);
            c.scale = InputScale::Reduced;
            c
        })
        .collect();
    let want = fresh(&cells);
    assert!(want[0].is_err(), "1 MB must run out of memory");
    assert!(want[1].is_ok(), "64 MB must run");
    for jobs in [1, 2] {
        assert_eq!(batch(jobs, &cells), (want.clone(), 0));
    }
}

/// What a run executed, allocated, collected and compiled at the baseline
/// and JIT tiers. Opt compiles are left out: the adaptive controller
/// samples on simulated time, and a slower clock takes more samples per
/// bytecode, so it may promote methods a faster one never does.
fn vm_counts(vm: &VmStats, gc: &GcStats, compiler: &CompilerStats) -> [(&'static str, u64); 13] {
    [
        ("bytecodes", vm.bytecodes),
        ("calls", vm.calls),
        ("allocations", vm.allocations),
        ("classes_loaded", vm.classes_loaded),
        ("collections", gc.collections),
        ("minor_collections", gc.minor_collections),
        ("major_collections", gc.major_collections),
        ("increments", gc.increments),
        ("copied_bytes", gc.total_copied_bytes),
        ("barrier_stores", gc.barrier_stores),
        ("barrier_remembers", gc.barrier_remembers),
        ("baseline_compiles", compiler.baseline_compiles),
        ("jit_compiles", compiler.jit_compiles),
    ]
}

#[test]
fn vm_counts_do_not_depend_on_the_platform() {
    for bench in ["_209_db", "_213_javac", "_227_mtrt"] {
        for base in [
            ExperimentConfig::kaffe(bench, 16),
            ExperimentConfig::jikes(bench, CollectorKind::GenCopy, 32),
        ] {
            let counts = [PlatformKind::PentiumM, PlatformKind::Pxa255].map(|platform| {
                let mut cfg = base.clone();
                cfg.platform = platform;
                cfg.scale = InputScale::Reduced;
                let s = cfg.run().unwrap_or_else(|e| panic!("{cfg}: {e}"));
                vm_counts(&s.vm, &s.gc, &s.compiler)
            });
            assert_eq!(counts[0], counts[1], "{bench} on {}", base.vm);
        }
    }
}

#[test]
fn dvfs_keeps_vm_counts_and_never_speeds_a_run_up() {
    let p6 = DvfsPoint::ladder(PlatformKind::PentiumM);
    for bench in ["_209_db", "fop"] {
        let program = benchmark(bench)
            .expect("registered")
            .build(InputScale::Reduced);
        for (mut cell, points) in [
            // The PXA255's three run modes.
            (
                ExperimentConfig::kaffe_pxa(bench, 16),
                DvfsPoint::ladder(PlatformKind::Pxa255),
            ),
            // Both ends of the P6 ladder, where L2 hits stall too.
            (
                ExperimentConfig::jikes(bench, CollectorKind::SemiSpace, 32),
                vec![p6[0], p6[p6.len() - 1]],
            ),
        ] {
            cell.scale = InputScale::Reduced;
            // Spans charge no cycles; they carry the run's cycle count.
            cell.record_spans = true;
            let runs: Vec<_> = points
                .iter()
                .map(|&point| {
                    let out = Vm::try_new(program.clone(), cell.vm_config().dvfs(point))
                        .and_then(Vm::run)
                        .unwrap_or_else(|e| panic!("{cell} at {}: {e}", point.name));
                    let cycles = out.spans.as_ref().expect("spans recorded").total_cycles();
                    let counts = vm_counts(&out.vm, &out.gc, &out.compiler);
                    (point, counts, cycles, out.duration.seconds())
                })
                .collect();
            for pair in runs.windows(2) {
                let [(fast, fast_counts, fast_cycles, fast_s), (slow, slow_counts, slow_cycles, slow_s)] =
                    pair
                else {
                    unreachable!("windows of two");
                };
                let at = format!("{cell}: {} -> {}", fast.name, slow.name);
                assert!(slow.freq_factor < fast.freq_factor, "{at}: ladder order");
                assert_eq!(fast_counts, slow_counts, "{at}");
                // Only DRAM latency is fixed in nanoseconds (DESIGN.md §7),
                // so a slower clock waits fewer cycles on it and no more on
                // anything else.
                assert!(
                    slow_cycles <= fast_cycles,
                    "{at}: {fast_cycles} -> {slow_cycles} cycles"
                );
                assert!(slow_s >= fast_s, "{at}: {fast_s} -> {slow_s} s");
            }
        }
    }
}

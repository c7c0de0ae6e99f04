//! Concurrency properties of the sweep engine: no configuration is ever
//! executed twice, quarantined configurations are never re-run, and retry
//! accounting is exact — under real thread interleavings.
//!
//! The build is offline (no `loom`), so interleavings are explored the
//! pragmatic way: many worker threads, many repetitions, tiny tasks that
//! maximize contention on the memo's lock, and atomic execution counters
//! asserted exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use vmprobe::{ExperimentConfig, ExperimentError, FaultPlan, Memo, Runner, SweepPool};
use vmprobe_heap::CollectorKind;
use vmprobe_workloads::InputScale;

fn quick(benchmark: &str, heap: u32) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::jikes(benchmark, CollectorKind::SemiSpace, heap);
    cfg.scale = InputScale::Reduced;
    cfg
}

#[test]
fn memo_computes_each_key_exactly_once_under_contention() {
    // 8 threads race get_or_compute over 32 keys, every thread requesting
    // every key; repeated to vary the interleaving.
    for round in 0..20 {
        let memo: Memo<usize> = Memo::new();
        let computes = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let memo = &memo;
                let computes = &computes;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for k in 0..32 {
                        // Stagger request order per thread so first-toucher
                        // varies between rounds.
                        let k = (k + t * 5 + round) % 32;
                        let key = format!("cell-{k}");
                        let (v, _) = memo.get_or_compute(&key, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            k
                        });
                        assert_eq!(v, k, "a waiter observed another key's value");
                    }
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            32,
            "round {round}: some key was computed more than once (or not at all)"
        );
        assert_eq!(memo.len(), 32);
    }
}

#[test]
fn pool_runs_every_item_exactly_once_and_preserves_order() {
    for &jobs in &[1usize, 2, 3, 8, 17] {
        let pool = SweepPool::new(jobs);
        let executions = AtomicUsize::new(0);
        let items: Vec<usize> = (0..203).collect();
        let out = pool.run(items, |_, i| {
            executions.fetch_add(1, Ordering::SeqCst);
            i * 2
        });
        assert_eq!(executions.load(Ordering::SeqCst), 203, "jobs={jobs}");
        assert_eq!(
            out,
            (0..203).map(|i| i * 2).collect::<Vec<_>>(),
            "jobs={jobs}: results must come back in submission order"
        );
    }
}

#[test]
fn batch_with_duplicates_executes_each_distinct_config_once() {
    // A batch that names every cell three times, executed on 8 workers:
    // the memo must collapse them to one execution each, with the report
    // counting each distinct run once.
    let mut runner = Runner::new().jobs(8);
    let mut batch = Vec::new();
    for heap in [32u32, 48, 64, 96] {
        for bench in ["_209_db", "search", "fop"] {
            for _ in 0..3 {
                batch.push(quick(bench, heap));
            }
        }
    }
    let results = runner.run_batch(&batch);
    assert_eq!(results.len(), 36);
    assert!(results.iter().all(Result::is_ok));
    assert_eq!(runner.runs_executed(), 12, "12 distinct cells");
    assert_eq!(runner.report().runs_ok, 12);
    // Same-cell duplicates share one Arc (no clone-and-rerun).
    for chunk in results.chunks(3) {
        let first = chunk[0].as_ref().unwrap();
        for r in chunk {
            assert!(Arc::ptr_eq(r.as_ref().unwrap(), first));
        }
    }
    // Resubmitting the whole batch is pure cache traffic.
    let again = runner.run_batch(&batch);
    assert_eq!(runner.runs_executed(), 12, "resubmission re-executed cells");
    assert!(again.iter().all(Result::is_ok));
}

#[test]
fn quarantined_configs_are_never_rerun_even_under_parallel_resubmission() {
    let mut runner = Runner::new()
        .jobs(8)
        .fault_override("moldyn", FaultPlan::parse("oom@1").unwrap());
    let cfg = quick("moldyn", 32);

    // Eight parallel requests for the same doomed cell: exactly one
    // execution, seven quarantine hits.
    let results = runner.run_batch(&vec![cfg.clone(); 8]);
    assert!(matches!(results[0], Err(ExperimentError::Vm { .. })));
    for r in &results[1..] {
        assert!(matches!(r, Err(ExperimentError::Quarantined { .. })));
    }
    let report = runner.report();
    assert_eq!(report.faults.injected_oom, 1, "executed once");
    assert_eq!(report.quarantine_hits, 7);
    assert_eq!(report.quarantined.len(), 1);

    // Later batches (mixed with healthy cells) still refuse to execute it.
    let mixed = vec![quick("search", 32), cfg.clone(), quick("fop", 32), cfg];
    let results = runner.run_batch(&mixed);
    assert!(results[0].is_ok() && results[2].is_ok());
    assert!(matches!(
        results[1],
        Err(ExperimentError::Quarantined { .. })
    ));
    assert!(matches!(
        results[3],
        Err(ExperimentError::Quarantined { .. })
    ));
    let report = runner.report();
    assert_eq!(report.faults.injected_oom, 1, "quarantine was re-executed");
    assert_eq!(report.quarantine_hits, 9);
    assert_eq!(report.quarantined.len(), 1, "duplicate quarantine entry");
}

#[test]
fn quarantine_accounting_is_exact_for_concurrent_failing_cells() {
    // Three benchmarks fail persistently on concurrent workers; totals
    // must still be the exact sums.
    let oom = FaultPlan::parse("oom@1").unwrap();
    let mut runner = Runner::new()
        .jobs(8)
        .fault_override("moldyn", oom)
        .fault_override("search", oom)
        .fault_override("euler", oom);
    let batch: Vec<ExperimentConfig> = ["moldyn", "search", "euler"]
        .iter()
        .flat_map(|b| [32u32, 64].map(|h| quick(b, h)))
        .collect();
    let results = runner.run_batch(&batch);
    assert!(results.iter().all(Result::is_err));
    let report = runner.report();
    // 6 cells × one run each, no cross-talk.
    assert_eq!(report.quarantined.len(), 6);
    assert_eq!(report.quarantine_hits, 0);
    assert_eq!(report.faults.injected_oom, 6);
    assert_eq!(report.runs_ok, 0);
}

#[test]
fn report_json_is_stable_across_thread_counts_for_mixed_outcomes() {
    let render = |jobs: usize| {
        let mut runner = Runner::new()
            .jobs(jobs)
            .with_faults(FaultPlan::parse("drop=0.1,seed=9").unwrap())
            .fault_override("moldyn", FaultPlan::parse("oom@1").unwrap());
        let batch: Vec<ExperimentConfig> = ["_209_db", "moldyn", "search", "fop"]
            .iter()
            .flat_map(|b| [32u32, 64].map(|h| quick(b, h)))
            .collect();
        let _ = runner.run_batch(&batch);
        runner.report().to_json()
    };
    let serial = render(1);
    for jobs in [2, 4, 8] {
        assert_eq!(serial, render(jobs), "jobs={jobs} diverged");
    }
}

//! Integration tests for the persistent experiment cache: warm runs must
//! restore cells bit-identically without recomputing, interrupted sweeps
//! must resume paying only for the missing cells, and on-disk damage must
//! be recomputed transparently — never trusted, never fatal.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vmprobe::{figures, CounterId, ExperimentCache, ExperimentConfig, Runner, Telemetry};
use vmprobe_heap::CollectorKind;
use vmprobe_workloads::InputScale;

const QUICK_BENCHMARKS: [&str; 2] = ["_209_db", "moldyn"];
const QUICK_HEAPS: [u32; 2] = [32, 64];

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vmprobe-cachetest-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn cached_runner(dir: &PathBuf, jobs: usize) -> (Runner, Telemetry) {
    let telemetry = Telemetry::counters_only();
    let runner = Runner::new()
        .jobs(jobs)
        .scale(InputScale::Reduced)
        .with_telemetry(telemetry.clone())
        .with_cache(Arc::new(ExperimentCache::open(dir).expect("open cache")));
    (runner, telemetry)
}

fn grid() -> Vec<ExperimentConfig> {
    let mut configs = Vec::new();
    for bench in QUICK_BENCHMARKS {
        for heap in QUICK_HEAPS {
            for collector in [CollectorKind::GenCopy, CollectorKind::MarkSweep] {
                configs.push(ExperimentConfig::jikes(bench, collector, heap));
            }
        }
    }
    configs
}

#[test]
fn warm_figure_rendering_recomputes_nothing_and_is_byte_identical_across_jobs() {
    let dir = scratch_dir("warm");

    let (mut cold, cold_tel) = cached_runner(&dir, 4);
    let cold_text = figures::fig6(&mut cold, &QUICK_BENCHMARKS, &QUICK_HEAPS)
        .expect("cold sweep")
        .to_string();
    let executed = cold_tel.counter(CounterId::CellsExecuted);
    assert!(executed > 0, "cold sweep must compute its cells");
    assert_eq!(cold_tel.counter(CounterId::CacheStores), executed);
    assert_eq!(cold_tel.counter(CounterId::CacheHits), 0);

    for jobs in [1, 8] {
        let (mut warm, warm_tel) = cached_runner(&dir, jobs);
        let warm_text = figures::fig6(&mut warm, &QUICK_BENCHMARKS, &QUICK_HEAPS)
            .expect("warm sweep")
            .to_string();
        assert_eq!(
            warm_text, cold_text,
            "warm figure (jobs={jobs}) must be byte-identical to the cold one"
        );
        assert_eq!(
            warm_tel.counter(CounterId::CellsExecuted),
            0,
            "warm sweep (jobs={jobs}) recomputed cells"
        );
        assert_eq!(warm_tel.counter(CounterId::CacheHits), executed);
        assert_eq!(warm_tel.counter(CounterId::CacheCorrupt), 0);
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_sweep_resumes_paying_only_for_the_missing_cells() {
    let dir = scratch_dir("resume");
    let configs = grid();
    let half = configs.len() / 2;

    // Reference pass on an uncached runner: what an uninterrupted sweep
    // produces.
    let reference = Runner::new().jobs(2).scale(InputScale::Reduced);
    let expect: Vec<_> = reference
        .run_batch(&configs)
        .into_iter()
        .map(|r| r.expect("reference cell"))
        .collect();

    // "Killed" sweep: a first process completes only half the grid, then
    // disappears (dropping the runner loses its in-memory memo; only the
    // cache directory survives).
    {
        let (partial, tel) = cached_runner(&dir, 2);
        for r in partial.run_batch(&configs[..half]) {
            r.expect("partial cell");
        }
        assert_eq!(tel.counter(CounterId::CellsExecuted), half as u64);
    }

    // Resumed sweep over the full grid: only the missing half is computed,
    // and every cell — restored or fresh — matches the reference run
    // bit for bit.
    let (resumed, tel) = cached_runner(&dir, 2);
    let got: Vec<_> = resumed
        .run_batch(&configs)
        .into_iter()
        .map(|r| r.expect("resumed cell"))
        .collect();
    assert_eq!(tel.counter(CounterId::CacheHits), half as u64);
    assert_eq!(
        tel.counter(CounterId::CellsExecuted),
        (configs.len() - half) as u64,
        "resume must recompute only the missing cells"
    );
    for (cfg, (a, b)) in configs.iter().zip(expect.iter().zip(&got)) {
        assert_eq!(
            a.report.total_energy.joules().to_bits(),
            b.report.total_energy.joules().to_bits(),
            "{cfg}: resumed energy differs from the uninterrupted run"
        );
        assert_eq!(
            a.report.edp.joule_seconds().to_bits(),
            b.report.edp.joule_seconds().to_bits(),
            "{cfg}: resumed EDP differs from the uninterrupted run"
        );
        assert_eq!(a.gc, b.gc, "{cfg}: GC stats differ");
        assert_eq!(a.vm, b.vm, "{cfg}: VM stats differ");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_entry_on_disk_is_recomputed_and_healed() {
    let dir = scratch_dir("corrupt");
    let cfg = ExperimentConfig::jikes("_209_db", CollectorKind::GenCopy, 32);

    let (cold, _) = cached_runner(&dir, 1);
    let clean = cold.run(&cfg).expect("cold run");

    // Flip bytes in the middle of the stored entry.
    let entry = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "entry"))
        .expect("one cache entry on disk");
    let mut bytes = std::fs::read(&entry).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    bytes[mid + 1] ^= 0xff;
    std::fs::write(&entry, &bytes).expect("write damage");

    // A fresh runner sees the damage, recomputes, and matches the clean
    // result exactly; the rewritten entry then serves a third runner.
    let (hurt, tel) = cached_runner(&dir, 1);
    let recomputed = hurt.run(&cfg).expect("recomputed run");
    assert_eq!(tel.counter(CounterId::CacheCorrupt), 1);
    assert_eq!(tel.counter(CounterId::CellsExecuted), 1);
    assert_eq!(tel.counter(CounterId::CacheStores), 1);
    assert_eq!(
        clean.report.total_energy.joules().to_bits(),
        recomputed.report.total_energy.joules().to_bits(),
        "recomputed energy must match the pre-damage run"
    );

    let (healed, tel) = cached_runner(&dir, 1);
    let restored = healed.run(&cfg).expect("restored run");
    assert_eq!(tel.counter(CounterId::CacheHits), 1);
    assert_eq!(tel.counter(CounterId::CellsExecuted), 0);
    assert_eq!(
        clean.report.total_energy.joules().to_bits(),
        restored.report.total_energy.joules().to_bits()
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_write_that_fails_is_not_counted_as_stored() {
    let dir = scratch_dir("vanished");
    let cfg = ExperimentConfig::jikes("moldyn", CollectorKind::GenCopy, 32);
    let (runner, tel) = cached_runner(&dir, 1);
    // The directory disappears after the cache opened it: every write's
    // temp file fails, yet the cell itself must still succeed.
    std::fs::remove_dir_all(&dir).expect("remove cache dir");
    runner.run(&cfg).expect("the cell runs without its cache");
    assert_eq!(tel.counter(CounterId::CellsExecuted), 1);
    assert_eq!(tel.counter(CounterId::CacheMisses), 1);
    assert_eq!(tel.counter(CounterId::CacheStores), 0);
    assert!(
        !dir.exists(),
        "a failed store must not recreate the directory"
    );
}

#[test]
fn a_restore_counts_only_the_entries_it_restores() {
    let dir = scratch_dir("restore");
    let cfg = ExperimentConfig::jikes("moldyn", CollectorKind::GenCopy, 32);
    let cache_counts = |tel: &Telemetry| {
        [
            CounterId::CacheHits,
            CounterId::CacheMisses,
            CounterId::CacheCorrupt,
        ]
        .map(|id| tel.counter(id))
    };

    // An absent entry: the restore declines and counts nothing, so the
    // runner's own probe is the key's one counted miss.
    let (cold, tel) = cached_runner(&dir, 1);
    assert!(cold.restore(&cfg, None).is_none());
    assert_eq!(cache_counts(&tel), [0, 0, 0]);
    let computed = cold.run(&cfg).expect("cold run");
    assert_eq!(cache_counts(&tel), [0, 1, 0]);

    // A stored entry: restored once, counted once, nothing executed.
    let (warm, tel) = cached_runner(&dir, 1);
    let restored = warm.restore(&cfg, None).expect("restored");
    assert_eq!(cache_counts(&tel), [1, 0, 0]);
    assert_eq!(tel.counter(CounterId::CellsExecuted), 0);
    assert_eq!(
        computed.report.total_energy.joules().to_bits(),
        restored.report.total_energy.joules().to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

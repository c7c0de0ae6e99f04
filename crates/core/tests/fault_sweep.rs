//! Acceptance tests: figure sweeps degrade gracefully under injected
//! measurement faults and persistent per-benchmark failures.

use std::collections::HashSet;

use vmprobe::{figures, ExperimentConfig, FaultPlan, Runner};
use vmprobe_heap::CollectorKind;
use vmprobe_workloads::{all_benchmarks, InputScale};

const HEAPS: [u32; 2] = [32, 64];

#[test]
fn fig6_sweep_completes_under_five_percent_sample_drop() {
    let plan = FaultPlan::parse("drop=0.05,seed=11").unwrap();
    let mut runner = Runner::new().with_faults(plan);
    let fig = figures::fig6(&mut runner, &figures::all_benchmark_names(), &HEAPS)
        .expect("sweep completes");

    assert!(!fig.rows.is_empty());
    assert!(
        fig.failed.is_empty(),
        "a 5% sample-drop plan must not fail cells: {:?}",
        fig.failed
    );

    // Every cell's reported energy stayed within its own documented bound.
    // These are cache hits — the sweep above already executed each config.
    for b in all_benchmarks() {
        for &h in &HEAPS {
            let cfg = ExperimentConfig::jikes(b.name, CollectorKind::SemiSpace, h);
            let run = runner.run(&cfg).expect("cached cell");
            assert!(
                run.report.energy_deviation_j() <= run.report.faults.energy_error_bound_j() + 1e-9,
                "{} @ {h} MB: deviation {} exceeds bound {}",
                b.name,
                run.report.energy_deviation_j(),
                run.report.faults.energy_error_bound_j()
            );
        }
    }

    let report = runner.report();
    assert!(report.faults.samples_dropped > 0, "plan never fired");
    assert_eq!(
        report.runs_ok,
        (all_benchmarks().len() * HEAPS.len()) as u64
    );

    let json = report.to_json();
    assert!(json.contains("\"samples_dropped\":"), "json: {json}");
    assert!(json.contains("\"energy_error_bound_j\":"), "json: {json}");
    assert!(json.contains("\"quarantined\":[]"), "json: {json}");
}

#[test]
fn persistent_failure_is_quarantined_and_other_cells_still_fill() {
    let mut runner = Runner::new().fault_override("_213_javac", FaultPlan::parse("oom@1").unwrap());
    let fig = figures::fig6(&mut runner, &figures::all_benchmark_names(), &[32])
        .expect("sweep completes");

    // The poisoned benchmark produced no rows; everything else did.
    assert!(fig.rows.iter().all(|r| r.benchmark != "_213_javac"));
    let expected_ok = all_benchmarks().len() - 1;
    assert_eq!(fig.rows.len(), expected_ok);

    // Its cell is reported as failed and quarantined after its one run.
    assert_eq!(fig.failed.len(), 1);
    assert_eq!(fig.failed[0].benchmark, "_213_javac");

    let report = runner.report();
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].benchmark, "_213_javac");
    assert_eq!(report.runs_ok, expected_ok as u64);

    let json = report.to_json();
    assert!(json.contains("\"quarantined\":[{"), "json: {json}");
    assert!(json.contains("_213_javac"), "json: {json}");
    assert!(json.contains("\"injected_oom\":1"), "json: {json}");
}

#[test]
fn failed_cells_of_both_platforms_are_told_apart() {
    // The quick fig9 (P6) and fig11 (PXA255) grids share the 32 MB Kaffe
    // cells, which fail alike under `oom@1`; only the platform differs.
    let grid = figures::Grid::quick();
    let mut runner = Runner::new()
        .scale(InputScale::Reduced)
        .with_faults(FaultPlan::parse("oom@1").unwrap());
    let fig9 = figures::fig9(&mut runner, &grid.p6_benchmarks, &grid.p6_heaps).unwrap();
    let fig11 = figures::fig11(&mut runner, &grid.pxa_benchmarks, &grid.pxa_heaps).unwrap();

    // Each line names its cell before the error text, which a reader
    // should not have to parse to tell two cells apart.
    let names: Vec<String> = fig9
        .failed
        .iter()
        .chain(&fig11.failed)
        .map(|c| c.to_string().split(": ").next().unwrap().to_string())
        .collect();
    for platform in ["p6", "pxa255"] {
        let want = format!("[failed] fop on Kaffe @ 32 MB ({platform})");
        assert!(names.contains(&want), "no `{want}` in {names:#?}");
    }
    let distinct: HashSet<&String> = names.iter().collect();
    assert_eq!(distinct.len(), names.len(), "repeated cells: {names:#?}");

    let report = runner.report();
    let cells: HashSet<_> = report
        .failed_cells
        .iter()
        .map(|c| (&c.benchmark, c.heap_mb, &c.vm, &c.platform))
        .collect();
    assert_eq!(cells.len(), names.len());
    let json = report.to_json();
    assert!(json.contains("\"platform\":\"pxa255\""), "json: {json}");
}

#[test]
fn edp_tables_keep_every_heap_column_when_the_first_curve_has_gaps() {
    // Every `_213_javac` cell fails, so the first curve of both figures
    // has no points; `_209_db`'s EDPs must still print under their heaps.
    let mut runner = Runner::new()
        .scale(InputScale::Reduced)
        .fault_override("_213_javac", FaultPlan::parse("oom@1").unwrap());
    let benchmarks = ["_213_javac", "_209_db"];
    let fig7 = figures::fig7(&mut runner, &benchmarks, &HEAPS).unwrap();
    let fig10 = figures::fig10(&mut runner, &benchmarks, &HEAPS).unwrap();
    for text in [fig7.to_string(), fig10.to_string()] {
        let header: Vec<&str> = text.lines().nth(1).unwrap().split_whitespace().collect();
        assert!(header.ends_with(&["32MB", "64MB"]), "{text}");
        let row = |name: &str| text.lines().find(|l| l.starts_with(name)).unwrap();
        assert_eq!(
            row("_213_javac").matches("--").count(),
            HEAPS.len(),
            "{text}"
        );
        let db: Vec<&str> = row("_209_db").split_whitespace().collect();
        let edps = &db[db.len() - HEAPS.len()..];
        assert!(edps.iter().all(|e| e.parse::<f64>().is_ok()), "{text}");
    }
}

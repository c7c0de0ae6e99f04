//! Acceptance tests for the telemetry layer's determinism contract
//! (DESIGN.md §11): virtual-clock span streams are byte-identical across
//! worker counts, host-clock spans are recorded but excluded from that
//! comparison, figure text is unchanged by instrumentation, and every
//! machine-readable artifact stamps the same `schema_version`.

use vmprobe::json::JsonValue;
use vmprobe::{figures, ExperimentConfig, FaultPlan, Runner, Snapshot, Telemetry, SCHEMA_VERSION};
use vmprobe_heap::CollectorKind;
use vmprobe_workloads::InputScale;

/// A small-but-real slice of the Figure 6 grid: every collector, two
/// heaps, three benchmarks — enough cells for an 8-worker pool to
/// genuinely interleave.
const BENCHMARKS: [&str; 3] = ["_209_db", "fop", "moldyn"];
const HEAPS: [u32; 2] = [32, 64];

/// Regenerate fig6 with span recording on and return the rendered table
/// plus the telemetry snapshot.
fn fig6_instrumented(jobs: usize) -> (String, Snapshot) {
    let telemetry = Telemetry::recording();
    let mut runner = Runner::new()
        .jobs(jobs)
        .scale(InputScale::Reduced)
        .with_telemetry(telemetry.clone());
    let table = figures::fig6(&mut runner, &BENCHMARKS, &HEAPS)
        .expect("fig6 regenerates")
        .to_string();
    (table, telemetry.snapshot())
}

#[test]
fn virtual_span_streams_are_byte_identical_across_thread_counts() {
    let (table1, snap1) = fig6_instrumented(1);
    let (table8, snap8) = fig6_instrumented(8);
    assert!(
        table1 == table8,
        "figure text diverged across thread counts with telemetry on"
    );
    let virt1 = snap1.chrome_trace_virtual();
    let virt8 = snap8.chrome_trace_virtual();
    assert!(
        virt1 == virt8,
        "virtual span stream diverged: jobs=1 produced {} bytes, jobs=8 {} bytes",
        virt1.len(),
        virt8.len()
    );
    // The stream is substantive, not vacuously equal: it names VM
    // components whose enter/exit events the meter recorded. (GC spans
    // only appear when a collection fires, which the Reduced-scale grid
    // does not guarantee — class loading and baseline compilation do.)
    assert!(virt1.contains("\"CL\""), "no class-loader spans");
    assert!(virt1.contains("\"base_comp\""), "no compiler spans");
}

#[test]
fn host_spans_are_recorded_but_excluded_from_the_virtual_stream() {
    let (_, snap) = fig6_instrumented(8);
    let full = snap.chrome_trace();
    let virt = snap.chrome_trace_virtual();
    // The full trace carries the host process with per-worker tracks …
    assert!(
        full.contains("host"),
        "host process missing from full trace"
    );
    assert!(full.contains("worker-"), "worker tracks missing: {full}");
    // … and none of that wall-clock material leaks into the stream the
    // determinism comparison runs on.
    assert!(!virt.contains("worker-"), "host tracks leaked: {virt}");
    JsonValue::parse(&full).expect("full chrome trace is valid JSON");
    JsonValue::parse(&virt).expect("virtual chrome trace is valid JSON");
}

#[test]
fn figure_text_is_unchanged_by_instrumentation() {
    let mut bare = Runner::new().jobs(2).scale(InputScale::Reduced);
    let expected = figures::fig6(&mut bare, &BENCHMARKS, &HEAPS)
        .expect("fig6 regenerates")
        .to_string();
    let (instrumented, _) = fig6_instrumented(2);
    assert!(
        expected == instrumented,
        "span recording changed figure output — it must cost zero simulated cycles"
    );
}

#[test]
fn schema_version_is_stamped_in_lockstep_across_artifacts() {
    let telemetry = Telemetry::recording();
    let mut runner = Runner::new().with_telemetry(telemetry.clone());
    let mut cfg = ExperimentConfig::jikes("_209_db", CollectorKind::GenCopy, 32);
    cfg.scale = InputScale::Reduced;
    runner.run(&cfg).expect("runs");

    let json_needle = format!("\"schema_version\":{SCHEMA_VERSION}");
    let report = runner.report().to_json();
    assert!(
        report.starts_with(&format!("{{{json_needle}")),
        "RunReport JSON must lead with the schema version: {report}"
    );
    let snap = telemetry.snapshot();
    assert!(
        snap.chrome_trace().contains(&json_needle),
        "chrome trace missing schema_version"
    );
    assert!(
        snap.prometheus()
            .contains(&format!("vmprobe_schema_version {SCHEMA_VERSION}")),
        "prometheus dump missing schema gauge"
    );
    assert_eq!(
        snap.schema_version, SCHEMA_VERSION,
        "snapshot constant out of lockstep"
    );
}

#[test]
fn fault_injection_is_unchanged_by_span_recording() {
    // Fault streams derive from the span-agnostic fault_key(), so a
    // faulted sweep injects byte-identical faults whether a span-recording
    // hub is attached or not. Before this held, `--trace-out` or
    // `--telemetry-overhead` combined with `--faults` silently reseeded
    // every cell's fault stream (different drops and quarantines)
    // and the overhead mode compared two different workloads.
    let plan = FaultPlan::parse("drop=0.1,dup=0.02,seed=11").expect("plan parses");
    let sweep = |telemetry: Telemetry| {
        let mut runner = Runner::new()
            .scale(InputScale::Reduced)
            .with_faults(plan)
            .with_telemetry(telemetry);
        let table = figures::fig6(&mut runner, &BENCHMARKS, &HEAPS)
            .expect("faulted fig6 regenerates")
            .to_string();
        (table, runner.report().to_json())
    };
    let (bare_table, bare_report) = sweep(Telemetry::disabled());
    let (spanned_table, spanned_report) = sweep(Telemetry::recording());
    assert!(
        bare_table == spanned_table,
        "span recording changed faulted figure output"
    );
    assert!(
        bare_report == spanned_report,
        "span recording changed the injected-fault ledger:\nbare:    {bare_report}\nspanned: {spanned_report}"
    );
}

#[test]
fn disabled_telemetry_leaves_cache_keys_and_reports_untouched() {
    // Golden-figure safety: a runner with no telemetry attached must
    // produce byte-identical figure text to one with counters-only
    // telemetry (no spans), because only span recording marks the
    // experiment key.
    let mut bare = Runner::new().scale(InputScale::Reduced);
    let expected = figures::fig6(&mut bare, &BENCHMARKS, &HEAPS)
        .expect("fig6")
        .to_string();
    let mut counted = Runner::new()
        .scale(InputScale::Reduced)
        .with_telemetry(Telemetry::counters_only());
    let got = figures::fig6(&mut counted, &BENCHMARKS, &HEAPS)
        .expect("fig6")
        .to_string();
    assert!(
        expected == got,
        "counters-only telemetry changed figure text"
    );
}

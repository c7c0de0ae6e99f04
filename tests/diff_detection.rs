//! Regression-detection corpus for the diff gate.
//!
//! Each test perturbs the candidate side's power model by a known delta
//! (the stand-in for an actually changed build) and asserts the gate flags
//! exactly the perturbed component: true positives name the right
//! component on the right cell, a self-diff is a true negative, shifts
//! below the practical-significance floor stay quiet, and improvements
//! never gate. The report must also be byte-identical across worker
//! counts, and a golden `RegressionReport` fixture pins the JSON schema.
//!
//! Component presence drives cell choice: `_209_db` exercises the GC on
//! the Jikes/GenCopy cell and the JIT on the Kaffe cell, so one benchmark
//! covers both interesting components.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use vmprobe::{
    bootstrap_ci, golden_cells, BootstrapCi, CounterId, DiffEngine, DiffOptions, ExperimentConfig,
    RegressionReport, Runner, Telemetry, VmChoice,
};
use vmprobe_power::{DetRng, EnergyPerturbation};

/// Small-but-real statistical knobs: enough replicates for intervals,
/// cheap enough to run per test. Spelled out in full (no `..Default`) so
/// the golden fixture cannot drift when library defaults move.
fn quick_options() -> DiffOptions {
    DiffOptions {
        seed: 0xD1FF,
        replicates: 4,
        resamples: 120,
        confidence: 0.99,
        noise_sigma: 0.003,
        min_rel_shift: 0.005,
    }
}

/// Both personalities of `_209_db` from the golden grid.
fn db_cells() -> Vec<ExperimentConfig> {
    let cells: Vec<_> = golden_cells()
        .into_iter()
        .filter(|c| c.benchmark == "_209_db")
        .collect();
    assert_eq!(cells.len(), 2, "_209_db must have a Jikes and a Kaffe cell");
    cells
}

/// A self-diff engine (shared sweep) with a candidate-side perturbation
/// parsed from `spec`.
fn perturbed_engine(spec: &str) -> DiffEngine {
    DiffEngine::new(quick_options(), "build-under-test", "build-under-test")
        .perturb(EnergyPerturbation::parse(spec).expect("valid perturbation spec"))
}

/// `engine` over `cells`, both sides on `runner`.
fn run_on(runner: &Runner, engine: &DiffEngine, cells: &[ExperimentConfig]) -> RegressionReport {
    engine
        .run(runner, runner, cells)
        .expect("diff over golden cells must run")
}

/// `engine` over `cells` on a fresh cache-less runner.
fn run(engine: &DiffEngine, cells: &[ExperimentConfig]) -> RegressionReport {
    run_on(&Runner::new(), engine, cells)
}

#[test]
fn gc_perturbation_flags_exactly_the_gc_component() {
    let report = run(&perturbed_engine("gc=+3%"), &db_cells());
    assert!(!report.clean(), "a +3% GC shift must gate");
    assert_eq!(report.components_flagged(), ["GC"]);
    assert!(report.improvements.is_empty());
    for d in &report.regressions {
        assert!(
            matches!(d.cell.vm, VmChoice::Jikes(_)),
            "GC energy only moves on the collecting personality, got {}",
            d.cell
        );
        assert!(
            (d.rel_shift - 0.03).abs() < 1e-9,
            "scaling a component by 1.03 must report a 3% shift, got {}",
            d.rel_shift
        );
        assert!(d.candidate.lo > d.baseline.hi, "CIs must separate");
    }
}

#[test]
fn jit_perturbation_flags_exactly_the_jit_component() {
    let report = run(&perturbed_engine("jit=+1%"), &db_cells());
    assert!(!report.clean(), "a +1% JIT shift must gate");
    assert_eq!(report.components_flagged(), ["JIT"]);
    for d in &report.regressions {
        assert_eq!(
            d.cell.vm,
            VmChoice::Kaffe,
            "only the JIT-ing personality can regress its JIT"
        );
        assert!((d.rel_shift - 0.01).abs() < 1e-9);
    }
}

#[test]
fn self_diff_is_a_true_negative() {
    let report = run(&perturbed_engine(""), &db_cells());
    assert!(report.clean());
    assert!(report.regressions.is_empty());
    assert!(report.improvements.is_empty());
    assert_eq!(report.cells, 2);
    assert!(report.comparisons >= 2, "every component must be compared");
}

#[test]
fn near_threshold_shifts_respect_the_practical_floor() {
    // 0.4% < the 0.5% floor: the CIs separate (ensemble noise averages
    // down to almost nothing) but the gate must stay quiet.
    let below = run(&perturbed_engine("gc=+0.4%"), &db_cells());
    assert!(
        below.clean(),
        "a shift below min_rel_shift must not gate, flagged {:?}",
        below.components_flagged()
    );
    // 0.6% > the floor: same machinery, now it must fire.
    let above = run(&perturbed_engine("gc=+0.6%"), &db_cells());
    assert_eq!(above.components_flagged(), ["GC"]);
}

#[test]
fn improvements_are_reported_but_do_not_gate() {
    let report = run(&perturbed_engine("gc=-5%"), &db_cells());
    assert!(report.clean(), "an energy win must not fail the gate");
    assert!(report.regressions.is_empty());
    assert!(!report.improvements.is_empty());
    for d in &report.improvements {
        assert_eq!(d.component.label(), "GC");
        assert!((d.rel_shift + 0.05).abs() < 1e-9);
        assert!(d.candidate.hi < d.baseline.lo);
    }
}

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let cells: Vec<_> = golden_cells()
        .into_iter()
        .filter(|c| c.benchmark == "_209_db" || c.benchmark == "moldyn")
        .collect();
    let engine = perturbed_engine("gc=+3%,jit=+1%");
    let report_with_jobs =
        |jobs: usize| run_on(&Runner::new().jobs(jobs), &engine, &cells).to_json();
    let serial = report_with_jobs(1);
    let parallel = report_with_jobs(8);
    assert_eq!(
        serial, parallel,
        "RegressionReport must not depend on worker count"
    );
}

#[test]
fn diff_telemetry_counters_record_the_run() {
    let telemetry = Telemetry::counters_only();
    let runner = Runner::new().with_telemetry(telemetry.clone());
    let report = run_on(&runner, &perturbed_engine(""), &db_cells());
    assert!(report.clean());
    assert_eq!(
        telemetry.counter(CounterId::DiffSweeps),
        1,
        "a self-diff shares one sweep between the sides"
    );
    assert_eq!(telemetry.counter(CounterId::DiffCellsCompared), 2);
    assert_eq!(
        telemetry.counter(CounterId::DiffResamples),
        2 * report.comparisons * u64::from(quick_options().resamples),
        "each comparison bootstraps both sides"
    );
    assert_eq!(telemetry.counter(CounterId::DiffRegressions), 0);

    let flagged = Telemetry::counters_only();
    let flagged_runner = Runner::new().with_telemetry(flagged.clone());
    let gc_report = run_on(&flagged_runner, &perturbed_engine("gc=+3%"), &db_cells());
    assert_eq!(
        telemetry.counter(CounterId::DiffRegressions),
        0,
        "runners must not share counter state"
    );
    assert_eq!(
        flagged.counter(CounterId::DiffRegressions),
        gc_report.regressions.len() as u64
    );
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/diff")
        .join(name)
}

/// Same bless protocol as `tests/golden_figures.rs`: compare against the
/// committed fixture, or rewrite it when `VMPROBE_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("VMPROBE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        actual.trim_end() == golden.trim_end(),
        "golden mismatch for {} — rerun with VMPROBE_BLESS=1 to re-bless\n\
         --- golden ---\n{golden}\n--- actual ---\n{actual}",
        path.display()
    );
}

#[test]
fn regression_report_json_matches_the_golden_fixture() {
    // Fixed side labels (not this build's fingerprint) keep the fixture
    // stable across version bumps; distinct labels exercise the
    // two-sweep path a real cross-build diff takes.
    let engine = DiffEngine::new(quick_options(), "baseline", "candidate")
        .perturb(EnergyPerturbation::parse("gc=+5%").expect("valid spec"));
    let (baseline, candidate) = (Runner::new(), Runner::new());
    let report = engine
        .run(&baseline, &candidate, &db_cells())
        .expect("diff over golden cells must run");
    assert_eq!(report.components_flagged(), ["GC"]);
    check_golden("report.json", &report.to_json());
}

fn arb_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..1000.0, 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bootstrap_is_deterministic_and_contains_the_mean(
        samples in arb_samples(),
        seed in any::<u64>(),
    ) {
        let a = bootstrap_ci(&samples, 0.95, 150, &mut DetRng::new(seed));
        let b = bootstrap_ci(&samples, 0.95, 150, &mut DetRng::new(seed));
        prop_assert_eq!(a, b, "same seed must reproduce the interval");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!(
            a.lo <= mean && mean <= a.hi,
            "CI [{}, {}] excludes the sample mean {}", a.lo, a.hi, mean
        );
        prop_assert_eq!(a.mean, mean);
    }

    #[test]
    fn bootstrap_bounds_widen_with_confidence(
        samples in arb_samples(),
        seed in any::<u64>(),
    ) {
        let mut prev: Option<BootstrapCi> = None;
        for conf in [0.5, 0.8, 0.9, 0.95, 0.99] {
            let ci = bootstrap_ci(&samples, conf, 200, &mut DetRng::new(seed));
            if let Some(p) = prev {
                prop_assert!(
                    ci.lo <= p.lo && ci.hi >= p.hi,
                    "the {conf} interval must contain the narrower one"
                );
            }
            prev = Some(ci);
        }
    }
}

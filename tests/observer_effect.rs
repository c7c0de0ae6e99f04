//! Observer-effect conformance: the `--observe-cost` sweep against its
//! golden fixture, the determinism and monotonicity properties the
//! recommendation table relies on, and the bit-for-bit transparency
//! guarantee for everything that does *not* opt in.
//!
//! To re-bless the observe fixture after an *intentional* model change:
//!
//! ```text
//! VMPROBE_BLESS=1 cargo test --test observer_effect
//! ```

use std::path::PathBuf;

use vmprobe::{
    figures, parse_period_grid, ExperimentConfig, ObserveEngine, ProbeSpec, Runner, VmChoice,
};
use vmprobe_heap::CollectorKind;
use vmprobe_platform::PlatformKind;
use vmprobe_workloads::InputScale;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/observe")
        .join(format!("{name}.txt"))
}

fn check(name: &str, actual: &str) {
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
        "observe/{name} diverged from its golden ({}).\n\
         If the change is intentional, re-bless with VMPROBE_BLESS=1.\n\
         --- golden ---\n{golden}\n--- actual ---\n{actual}",
        path.display()
    );
}

fn cell(benchmark: &str, vm: VmChoice, heap_mb: u32, platform: PlatformKind) -> ExperimentConfig {
    ExperimentConfig {
        benchmark: benchmark.into(),
        vm,
        heap_mb,
        platform,
        scale: InputScale::Reduced,
        trace_power: false,
        record_spans: false,
        probe: ProbeSpec::default(),
    }
}

/// A small two-cell slice of the golden grid, one per platform flavour.
fn fixture_cells() -> Vec<ExperimentConfig> {
    vec![
        cell(
            "moldyn",
            VmChoice::Jikes(CollectorKind::GenCopy),
            64,
            PlatformKind::PentiumM,
        ),
        cell("_209_db", VmChoice::Kaffe, 32, PlatformKind::Pxa255),
    ]
}

/// Periods short enough that every reduced-scale run is actually sampled
/// (a grid point longer than the run measures 0 J in both modes).
fn fixture_grid() -> Vec<u64> {
    parse_period_grid("4us..400us").expect("fixture grid parses")
}

#[test]
fn observe_figure_matches_golden_and_is_jobs_invariant() {
    let cells = fixture_cells();
    let engine = ObserveEngine::new(fixture_grid());
    let r1 = engine
        .run(&Runner::new().jobs(1), &cells)
        .expect("sweep completes");
    let r8 = engine
        .run(&Runner::new().jobs(8), &cells)
        .expect("sweep completes");
    assert_eq!(
        r1.to_string(),
        r8.to_string(),
        "figure bytes must not depend on --jobs"
    );
    assert_eq!(
        r1.to_json(),
        r8.to_json(),
        "report JSON must not depend on --jobs"
    );
    check("sweep", &r1.to_string());

    // The observer effect is real at the shortest period: paying the
    // probes costs strictly more energy than watching transparently at
    // the *same* DAQ rate. (Cross-period totals are not comparable —
    // coarser sampling truncates differently in both modes.)
    let total = |period_ns: u64, f: fn(&vmprobe::ObservePoint) -> f64| -> f64 {
        r1.points
            .iter()
            .filter(|p| p.period_ns == period_ns)
            .map(f)
            .sum()
    };
    let shortest = *r1.periods.first().unwrap();
    let (t, nt) = (
        total(shortest, |p| p.energy_t_j),
        total(shortest, |p| p.energy_nt_j),
    );
    assert!(
        nt > t,
        "charged probes at {shortest} ns must cost energy ({nt} J vs {t} J transparent)"
    );
}

/// The attribution-error bound (transition-window energy over total) is
/// monotone non-increasing as the probe period shrinks toward the
/// transition scale: finer sampling can only narrow the blind spot.
#[test]
fn attribution_error_is_monotone_as_the_period_shrinks() {
    let cells = vec![
        cell(
            "moldyn",
            VmChoice::Jikes(CollectorKind::GenCopy),
            64,
            PlatformKind::PentiumM,
        ),
        cell(
            "_209_db",
            VmChoice::Jikes(CollectorKind::SemiSpace),
            32,
            PlatformKind::PentiumM,
        ),
        cell("search", VmChoice::Kaffe, 32, PlatformKind::Pxa255),
    ];
    let report = ObserveEngine::new(fixture_grid())
        .run(&Runner::new(), &cells)
        .expect("sweep completes");
    for c in &cells {
        // Points arrive cell-major in grid (ascending period) order.
        let misattr: Vec<f64> = report
            .points
            .iter()
            .filter(|p| &p.cell == c)
            .map(|p| p.misattr_ppm)
            .collect();
        assert_eq!(misattr.len(), report.periods.len());
        for w in misattr.windows(2) {
            assert!(
                w[0] <= w[1] + 1e-9,
                "{c}: attribution error grew as the period shrank: {misattr:?}"
            );
        }
    }
}

/// Transparent mode is byte-invisible: a runner that explicitly opts into
/// the transparent probe at the stock DAQ period regenerates the committed
/// golden figure bit for bit. This is compared against the *existing*
/// golden (never re-blessed here) so the opt-in plumbing can never drift
/// the default outputs.
#[test]
fn transparent_probe_reproduces_the_committed_golden() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick/fig6.txt");
    let golden = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden.display()));
    let mut r = Runner::new()
        .jobs(vmprobe::default_jobs())
        .scale(InputScale::Reduced)
        .with_probe_override(ProbeSpec::transparent_at(40_000));
    let grid = figures::Grid::quick();
    let fig = figures::fig6(&mut r, &grid.p6_benchmarks, &grid.p6_heaps)
        .expect("sweep completes")
        .to_string();
    assert_eq!(
        fig.trim_end(),
        golden.trim_end(),
        "a transparent probe at the stock period must not move a byte"
    );
}

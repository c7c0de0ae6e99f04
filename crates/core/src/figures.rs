//! Regeneration of every figure and in-text table of the paper's
//! evaluation (Section VI), one entry point per artifact.
//!
//! Each function returns a typed data structure that also implements
//! [`Display`](std::fmt::Display) so `vmprobe-run` (and the criterion
//! benches) can print the same rows/series the paper reports.
//! Absolute values differ from the paper's silicon — the substrate here is
//! a calibrated simulator — but the *shapes* (who wins, by what factor,
//! where crossovers fall) are the reproduction target; `EXPERIMENTS.md`
//! records paper-vs-measured for each.

use std::fmt;

use serde::Serialize;
use vmprobe_heap::CollectorKind;
use vmprobe_power::{ComponentId, ThermalConfig, ThermalSim, Watts};
use vmprobe_workloads::{all_benchmarks, pxa255_benchmarks, suite_benchmarks, Suite};

use crate::{
    ExperimentConfig, ExperimentError, FailedCell, RunSummary, Runner, Table, P6_HEAPS_MB,
    PXA_HEAPS_MB,
};

/// Names of every registered benchmark, in registry order — the default
/// benchmark list for the full paper-scope sweeps.
pub fn all_benchmark_names() -> Vec<&'static str> {
    all_benchmarks().iter().map(|b| b.name).collect()
}

/// Names of the PXA255 benchmark subset (SpecJVM98 `-s10`).
pub fn pxa_benchmark_names() -> Vec<&'static str> {
    pxa255_benchmarks().iter().map(|b| b.name).collect()
}

/// The benchmarks and heaps an artifact sweeps: the P6 grid feeds
/// Figures 6–10 and Tables T1–T3, the PXA255 grid Figure 11, and T5 takes
/// both heap lists.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Benchmarks swept on the P6.
    pub p6_benchmarks: Vec<&'static str>,
    /// Benchmarks swept on the PXA255.
    pub pxa_benchmarks: Vec<&'static str>,
    /// P6 heap labels, MB.
    pub p6_heaps: Vec<u32>,
    /// PXA255 heap labels, MB.
    pub pxa_heaps: Vec<u32>,
}

impl Grid {
    /// The paper's full scope: every benchmark at every paper heap.
    pub fn full() -> Self {
        Self {
            p6_benchmarks: all_benchmark_names(),
            pxa_benchmarks: pxa_benchmark_names(),
            p6_heaps: P6_HEAPS_MB.to_vec(),
            pxa_heaps: PXA_HEAPS_MB.to_vec(),
        }
    }

    /// The quick tier's grid (run it at `InputScale::Reduced`): one
    /// GC-heavy SpecJVM98 benchmark, one allocation-light one, and one per
    /// remaining suite, at two heaps per platform. Same sweep shape as
    /// [`Grid::full`], a fraction of the cells.
    pub fn quick() -> Self {
        const BENCHMARKS: [&str; 4] = ["_213_javac", "_209_db", "fop", "moldyn"];
        Self {
            p6_benchmarks: BENCHMARKS.to_vec(),
            pxa_benchmarks: BENCHMARKS.to_vec(),
            p6_heaps: vec![32, 64],
            pxa_heaps: vec![16, 32],
        }
    }
}

/// One paper artifact: its name on the command line and in
/// `tests/golden/`, and how to render it over a [`Grid`].
#[derive(Debug)]
pub struct Artifact {
    /// `fig1` … `fig11`, `t1` … `t5`.
    pub name: &'static str,
    /// Whether the artifact sweeps the grid's benchmark lists (the others
    /// fix their benchmarks or are static). These are the quick-tier
    /// goldens.
    pub sweeps_benchmarks: bool,
    /// Render the artifact's text.
    pub render: fn(&mut Runner, &Grid) -> Result<String, ExperimentError>,
}

/// Every paper artifact, in the order `vmprobe-run all` prints them.
pub const ARTIFACTS: [Artifact; 13] = [
    Artifact {
        name: "fig1",
        sweeps_benchmarks: false,
        render: |r, _| fig1(r).map(|f| f.to_string()),
    },
    Artifact {
        name: "fig5",
        sweeps_benchmarks: false,
        render: |_, _| Ok(fig5().to_string()),
    },
    Artifact {
        name: "fig6",
        sweeps_benchmarks: true,
        render: |r, g| fig6(r, &g.p6_benchmarks, &g.p6_heaps).map(|f| f.to_string()),
    },
    Artifact {
        name: "fig7",
        sweeps_benchmarks: true,
        render: |r, g| fig7(r, &g.p6_benchmarks, &g.p6_heaps).map(|f| f.to_string()),
    },
    Artifact {
        name: "fig8",
        sweeps_benchmarks: true,
        render: |r, g| fig8(r, &g.p6_benchmarks, &g.p6_heaps).map(|f| f.to_string()),
    },
    Artifact {
        name: "fig9",
        sweeps_benchmarks: true,
        render: |r, g| fig9(r, &g.p6_benchmarks, &g.p6_heaps).map(|f| f.to_string()),
    },
    Artifact {
        name: "fig10",
        sweeps_benchmarks: true,
        render: |r, g| fig10(r, &g.p6_benchmarks, &g.p6_heaps).map(|f| f.to_string()),
    },
    Artifact {
        name: "fig11",
        sweeps_benchmarks: true,
        render: |r, g| fig11(r, &g.pxa_benchmarks, &g.pxa_heaps).map(|f| f.to_string()),
    },
    Artifact {
        name: "t1",
        sweeps_benchmarks: false,
        render: |r, g| t1_collector_power(r, &g.p6_heaps).map(|t| t.to_string()),
    },
    Artifact {
        name: "t2",
        sweeps_benchmarks: false,
        render: |r, g| t2_l2_ipc(r, &g.p6_heaps).map(|t| t.to_string()),
    },
    Artifact {
        name: "t3",
        sweeps_benchmarks: false,
        render: |r, g| t3_memory_energy(r, &g.p6_heaps).map(|t| t.to_string()),
    },
    Artifact {
        name: "t4",
        sweeps_benchmarks: false,
        render: |r, _| t4_headlines(r).map(|t| t.to_string()),
    },
    Artifact {
        name: "t5",
        sweeps_benchmarks: false,
        render: |r, g| t5_kaffe(r, &g.p6_heaps, &g.pxa_heaps).map(|t| t.to_string()),
    },
];

/// The registry entry named `name`.
pub fn artifact(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.name == name)
}

/// A sweep's configurations, row-major: `cell(row, heap)` for every heap
/// of each row in turn.
fn cells<R: Copy>(
    rows: impl IntoIterator<Item = R>,
    heaps: &[u32],
    cell: impl Fn(R, u32) -> ExperimentConfig,
) -> Vec<ExperimentConfig> {
    let mut configs = Vec::new();
    for row in rows {
        configs.extend(heaps.iter().map(|&h| cell(row, h)));
    }
    configs
}

/// Energy and time summed over runs, for one component's average power.
#[derive(Debug, Clone, Copy, Default)]
struct PowerSum {
    energy_j: f64,
    time_s: f64,
}

impl PowerSum {
    /// Add `run`'s profile of `component`, if it has one.
    fn add(&mut self, run: &RunSummary, component: ComponentId) {
        if let Some(p) = run.report.component(component) {
            self.energy_j += p.energy.joules();
            self.time_s += p.time.seconds();
        }
    }

    /// Average power, or 0 W if no time was attributed.
    fn watts(self) -> f64 {
        if self.time_s > 0.0 {
            self.energy_j / self.time_s
        } else {
            0.0
        }
    }
}

fn write_failed(f: &mut fmt::Formatter<'_>, failed: &[FailedCell]) -> fmt::Result {
    for cell in failed {
        writeln!(f, "{cell}")?;
    }
    Ok(())
}

/// The components the paper monitors for Jikes RVM, in its legend order.
pub const JIKES_COMPONENTS: [ComponentId; 4] = [
    ComponentId::OptCompiler,
    ComponentId::BaseCompiler,
    ComponentId::ClassLoader,
    ComponentId::Gc,
];

/// The components the paper monitors for Kaffe.
pub const KAFFE_COMPONENTS: [ComponentId; 3] = [
    ComponentId::Gc,
    ComponentId::ClassLoader,
    ComponentId::JitCompiler,
];

fn pct(v: f64) -> String {
    format!("{:5.1}%", 100.0 * v)
}

// ---------------------------------------------------------------- Figure 1

/// One sample of the thermal trace.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ThermalPoint {
    /// Elapsed seconds.
    pub t_s: f64,
    /// Die temperature in °C.
    pub temp_c: f64,
    /// Effective clock duty cycle (0.5 while throttled).
    pub duty: f64,
}

/// Figure 1: processor temperature under repetitive `_222_mpegaudio` with
/// the fan enabled vs disabled, including the 99 °C emergency throttle.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1 {
    /// Average chip power of the underlying run, in watts.
    pub run_power_w: f64,
    /// Fan-enabled trace (settles near 60 °C).
    pub fan_on: Vec<ThermalPoint>,
    /// Fan-disabled trace (trips the throttle near 99 °C).
    pub fan_off: Vec<ThermalPoint>,
    /// Seconds until the throttle first engages in the fan-off trace.
    pub throttle_onset_s: Option<f64>,
}

/// Regenerate Figure 1.
///
/// # Errors
///
/// Propagates [`ExperimentError`] from the underlying mpegaudio run.
pub fn fig1(runner: &mut Runner) -> Result<Fig1, ExperimentError> {
    let _phase = runner.phase("fig1");
    let cfg = ExperimentConfig::jikes("_222_mpegaudio", CollectorKind::GenCopy, 64);
    let run = runner.run(&cfg)?;
    let power =
        Watts::new(run.report.cpu_energy.joules() / run.report.duration.seconds().max(1e-12));
    let idle = Watts::new(4.5);

    // Package calibration anchored to the paper's Figure 1: the fan-on
    // steady state sits near 60 °C and the fan-off steady state well above
    // the 99 °C trip point, for *this* workload's measured power.
    let thermal_cfg = ThermalConfig {
        r_fan_on: 35.0 / power.watts().max(1.0),
        r_fan_off: 82.0 / power.watts().max(1.0),
        capacitance: 2.4 * power.watts().max(1.0),
        ..ThermalConfig::default()
    };

    let simulate = |fan: bool, start_warm: bool| {
        let mut sim = ThermalSim::new(thermal_cfg, true);
        if start_warm {
            // Reach fan-on steady state first (the paper's scenario starts
            // from normal operation).
            for _ in 0..6_000 {
                sim.step(power, idle, vmprobe_power::Seconds::new(0.1));
            }
        }
        sim.set_fan(fan);
        let mut trace = Vec::new();
        let dt = vmprobe_power::Seconds::new(0.1);
        for i in 0..6_000 {
            let s = sim.step(power, idle, dt);
            if i % 20 == 0 {
                trace.push(ThermalPoint {
                    t_s: i as f64 * 0.1,
                    temp_c: s.temp.celsius(),
                    duty: if s.throttled { 0.5 } else { 1.0 },
                });
            }
        }
        trace
    };

    let fan_on = simulate(true, false);
    let fan_off = simulate(false, true);
    let throttle_onset_s = fan_off.iter().find(|p| p.duty < 1.0).map(|p| p.t_s);
    Ok(Fig1 {
        run_power_w: power.watts(),
        fan_on,
        fan_off,
        throttle_onset_s,
    })
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1: thermal behaviour, repetitive _222_mpegaudio (GenCopy), \
             chip power {:.1} W",
            self.run_power_w
        )?;
        let mut t = Table::new(vec![
            "t (s)".into(),
            "fan-on temp (C)".into(),
            "fan-off temp (C)".into(),
            "fan-off duty".into(),
        ]);
        for (a, b) in self.fan_on.iter().zip(&self.fan_off) {
            t.row(vec![
                format!("{:.0}", a.t_s),
                format!("{:.1}", a.temp_c),
                format!("{:.1}", b.temp_c),
                format!("{:.2}", b.duty),
            ]);
        }
        write!(f, "{t}")?;
        match self.throttle_onset_s {
            Some(s) => writeln!(
                f,
                "emergency throttle engaged after {s:.0} s (paper: ~240 s)"
            ),
            None => writeln!(f, "throttle never engaged"),
        }
    }
}

// ---------------------------------------------------------------- Figure 5

/// Figure 5: the benchmark inventory.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5 {
    /// (suite, name, description, modeled alloc bytes, modeled live bytes).
    pub rows: Vec<(String, String, String, u64, u64)>,
}

/// Regenerate Figure 5 (the workload table).
pub fn fig5() -> Fig5 {
    Fig5 {
        rows: all_benchmarks()
            .into_iter()
            .map(|b| {
                (
                    b.suite.to_string(),
                    b.name.to_string(),
                    b.description.to_string(),
                    b.blueprint.est_alloc_bytes(),
                    b.blueprint.est_live_bytes(),
                )
            })
            .collect(),
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 5: benchmark suites")?;
        let mut t = Table::new(vec![
            "Suite".into(),
            "Benchmark".into(),
            "Description".into(),
            "alloc (KiB)".into(),
            "live (KiB)".into(),
        ]);
        for (s, n, d, a, l) in &self.rows {
            t.row(vec![
                s.clone(),
                n.clone(),
                d.clone(),
                format!("{}", a >> 10),
                format!("{}", l >> 10),
            ]);
        }
        write!(f, "{t}")
    }
}

// ------------------------------------------------------ Figures 6, 9 and 11

/// One energy-decomposition bar.
#[derive(Debug, Clone, Serialize)]
pub struct BreakdownRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Heap label (MB).
    pub heap_mb: u32,
    /// Fractions per monitored component, in legend order, with the
    /// application holding the remainder.
    pub fractions: Vec<(ComponentId, f64)>,
    /// Application (mutator) fraction: the remainder after the monitored
    /// VM components.
    pub app_fraction: f64,
}

/// An energy-decomposition figure: Figure 6 (Jikes RVM + SemiSpace),
/// Figure 9 (Kaffe on the P6) and Figure 11 (Kaffe on the PXA255).
#[derive(Debug, Clone, Serialize)]
pub struct Breakdown {
    /// The figure's title line.
    pub title: &'static str,
    /// The monitored VM components, in the paper's legend order.
    pub components: Vec<ComponentId>,
    /// All bars, benchmark-major then heap order.
    pub rows: Vec<BreakdownRow>,
    /// Cells that could not be filled (failed or quarantined runs).
    pub failed: Vec<FailedCell>,
}

/// Regenerate Figure 6 (Jikes RVM + SemiSpace) for the given benchmarks
/// (paper scope: [`all_benchmark_names`]) across the given heap labels
/// (defaults: [`P6_HEAPS_MB`]). The whole grid executes as one parallel
/// batch on the runner's configured workers.
///
/// Degrades gracefully: a failing or quarantined cell is recorded in
/// [`Breakdown::failed`] (and the runner's [`crate::RunReport`]) and the
/// sweep continues.
///
/// # Errors
///
/// Reserved for sweep-level failures; per-cell failures no longer
/// propagate.
pub fn fig6(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<Breakdown, ExperimentError> {
    let _phase = runner.phase("fig6");
    Ok(breakdown(
        runner,
        "Figure 6: energy decomposition, Jikes RVM + SemiSpace",
        &JIKES_COMPONENTS,
        cells(benchmarks.iter().copied(), heaps, |b, h| {
            ExperimentConfig::jikes(b, CollectorKind::SemiSpace, h)
        }),
    ))
}

/// Regenerate Figure 9 (Kaffe on the P6) for the given benchmarks (paper
/// scope: [`all_benchmark_names`]), as [`fig6`] does, with its errors.
pub fn fig9(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<Breakdown, ExperimentError> {
    let _phase = runner.phase("fig9");
    Ok(breakdown(
        runner,
        "Figure 9: energy distribution, Kaffe on Pentium M",
        &KAFFE_COMPONENTS,
        cells(benchmarks.iter().copied(), heaps, ExperimentConfig::kaffe),
    ))
}

/// Regenerate Figure 11 (Kaffe on the PXA255, SpecJVM98 `-s10`) for the
/// given benchmarks (paper scope: [`pxa_benchmark_names`]) across the
/// PXA255 heap sweep (defaults: [`crate::PXA_HEAPS_MB`]), as [`fig6`]
/// does, with its errors.
pub fn fig11(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<Breakdown, ExperimentError> {
    let _phase = runner.phase("fig11");
    Ok(breakdown(
        runner,
        "Figure 11: energy decomposition, Kaffe on Intel PXA255 (s10)",
        &KAFFE_COMPONENTS,
        cells(
            benchmarks.iter().copied(),
            heaps,
            ExperimentConfig::kaffe_pxa,
        ),
    ))
}

/// Run `configs` as one tolerant batch and decompose each filled cell's
/// energy over `components`.
fn breakdown(
    runner: &mut Runner,
    title: &'static str,
    components: &[ComponentId],
    configs: Vec<ExperimentConfig>,
) -> Breakdown {
    let mut failed = Vec::new();
    let runs = runner.cells(&configs, &mut failed);
    let rows = configs
        .iter()
        .zip(&runs)
        .filter_map(|(cfg, run)| {
            let run = run.as_ref()?;
            let fractions: Vec<(ComponentId, f64)> =
                components.iter().map(|&c| (c, run.fraction(c))).collect();
            let monitored: f64 = fractions.iter().map(|(_, v)| v).sum();
            Some(BreakdownRow {
                benchmark: cfg.benchmark.clone(),
                heap_mb: cfg.heap_mb,
                fractions,
                app_fraction: (1.0 - monitored).max(0.0),
            })
        })
        .collect();
    Breakdown {
        title,
        components: components.to_vec(),
        rows,
        failed,
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let mut header = vec!["benchmark".to_owned(), "heap".to_owned()];
        header.extend(
            self.components
                .iter()
                .chain([&ComponentId::Application])
                .map(|c| c.label().to_owned()),
        );
        let mut t = Table::new(header);
        for r in &self.rows {
            let mut cells = vec![r.benchmark.clone(), format!("{}MB", r.heap_mb)];
            cells.extend(r.fractions.iter().map(|(_, v)| pct(*v)));
            cells.push(pct(r.app_fraction));
            t.row(cells);
        }
        write!(f, "{t}")?;
        write_failed(f, &self.failed)
    }
}

// ------------------------------------------------------ Figures 7 and 10

/// EDP of one benchmark under one collector across heaps.
#[derive(Debug, Clone, Serialize)]
pub struct EdpCurve {
    /// Benchmark name.
    pub benchmark: String,
    /// Collector.
    pub collector: CollectorKind,
    /// `(heap MB, EDP J·s)` points; a failed cell's point is absent.
    pub points: Vec<(u32, f64)>,
}

impl EdpCurve {
    /// EDP at a heap label, if that point exists.
    pub fn at(&self, heap_mb: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|(h, _)| *h == heap_mb)
            .map(|(_, e)| *e)
    }
}

/// An energy-delay-product-vs-heap figure: Figure 7 (the four Jikes RVM
/// collectors) and Figure 10 (Kaffe on the P6).
#[derive(Debug, Clone, Serialize)]
pub struct EdpFigure {
    /// The figure's title line.
    pub title: &'static str,
    /// The swept heap labels (MB), one table column each.
    pub heaps: Vec<u32>,
    /// One curve per (benchmark, collector).
    pub curves: Vec<EdpCurve>,
    /// Cells that could not be filled; their `(heap, EDP)` points are
    /// absent from the affected curves and print as `--`.
    pub failed: Vec<FailedCell>,
}

impl EdpFigure {
    /// The curve for (benchmark, collector), if present.
    pub fn curve(&self, benchmark: &str, collector: CollectorKind) -> Option<&EdpCurve> {
        self.curves
            .iter()
            .find(|c| c.benchmark == benchmark && c.collector == collector)
    }
}

/// Regenerate Figure 7 (Jikes RVM, all four collectors) for the given
/// benchmarks and heaps (defaults: all benchmarks, [`P6_HEAPS_MB`]). The
/// full benchmark × collector × heap grid executes as one parallel batch.
///
/// Degrades gracefully: failing cells leave gaps in the affected curves
/// and are listed in [`EdpFigure::failed`].
///
/// # Errors
///
/// Reserved for sweep-level failures; per-cell failures no longer
/// propagate.
pub fn fig7(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<EdpFigure, ExperimentError> {
    let _phase = runner.phase("fig7");
    let curves = benchmarks
        .iter()
        .flat_map(|&b| CollectorKind::jikes_collectors().map(|c| (b, c)));
    Ok(edp_figure(
        runner,
        "Figure 7: energy-delay product (J*s) vs heap size, Jikes RVM",
        curves.collect(),
        heaps,
        ExperimentConfig::jikes,
    ))
}

/// Regenerate Figure 10 (Kaffe on the P6) for the given benchmarks (paper
/// scope: [`all_benchmark_names`]), as [`fig7`] does, with its errors —
/// entirely from cache when Figure 9 already ran on the same runner.
pub fn fig10(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<EdpFigure, ExperimentError> {
    let _phase = runner.phase("fig10");
    let curves = benchmarks
        .iter()
        .map(|&b| (b, CollectorKind::KaffeIncremental));
    Ok(edp_figure(
        runner,
        "Figure 10: energy-delay product (J*s) vs heap, Kaffe on Pentium M",
        curves.collect(),
        heaps,
        |b, _, h| ExperimentConfig::kaffe(b, h),
    ))
}

/// Run every `(benchmark, collector)` curve at every heap as one tolerant
/// batch.
fn edp_figure(
    runner: &mut Runner,
    title: &'static str,
    curves: Vec<(&str, CollectorKind)>,
    heaps: &[u32],
    cell: fn(&str, CollectorKind, u32) -> ExperimentConfig,
) -> EdpFigure {
    let configs = cells(curves.iter().copied(), heaps, |(b, c), h| cell(b, c, h));
    let mut failed = Vec::new();
    let mut runs = runner.cells(&configs, &mut failed).into_iter();
    let curves = curves
        .into_iter()
        .map(|(benchmark, collector)| EdpCurve {
            benchmark: benchmark.to_owned(),
            collector,
            points: heaps
                .iter()
                .filter_map(|&h| {
                    let run = runs.next().expect("one result per cell")?;
                    Some((h, run.edp()))
                })
                .collect(),
        })
        .collect();
    EdpFigure {
        title,
        heaps: heaps.to_vec(),
        curves,
        failed,
    }
}

impl fmt::Display for EdpFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let several_collectors = self
            .curves
            .iter()
            .any(|c| c.collector != self.curves[0].collector);
        let mut header = vec!["benchmark".to_owned()];
        if several_collectors {
            header.push("collector".to_owned());
        }
        header.extend(self.heaps.iter().map(|h| format!("{h}MB")));
        let mut t = Table::new(header);
        for c in &self.curves {
            let mut cells = vec![c.benchmark.clone()];
            if several_collectors {
                cells.push(c.collector.to_string());
            }
            cells.extend(
                self.heaps
                    .iter()
                    .map(|&h| c.at(h).map_or_else(|| "--".into(), |e| format!("{e:.4}"))),
            );
            t.row(cells);
        }
        write!(f, "{t}")?;
        write_failed(f, &self.failed)
    }
}

// ---------------------------------------------------------------- Figure 8

/// Average and peak power of one component for one benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct PowerRow {
    /// Benchmark name.
    pub benchmark: String,
    /// `(component, avg W, peak W)` for App, GC, CL.
    pub components: Vec<(ComponentId, f64, f64)>,
}

/// Figure 8: average (top) and peak (bottom) power per component under
/// GenCopy, aggregated across the heap sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8 {
    /// One row per benchmark.
    pub rows: Vec<PowerRow>,
    /// Cells excluded from the aggregation because their runs failed.
    pub failed: Vec<FailedCell>,
}

/// Regenerate Figure 8 for the given benchmarks (paper scope:
/// [`all_benchmark_names`]), GenCopy, aggregated over `heaps`. The grid
/// executes as one parallel batch.
///
/// Degrades gracefully: failing cells are excluded from each benchmark's
/// aggregate and listed in [`Fig8::failed`].
///
/// # Errors
///
/// Reserved for sweep-level failures; per-cell failures no longer
/// propagate.
pub fn fig8(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<Fig8, ExperimentError> {
    let _phase = runner.phase("fig8");
    let comps = [
        ComponentId::Application,
        ComponentId::Gc,
        ComponentId::ClassLoader,
    ];
    let configs = cells(benchmarks.iter().copied(), heaps, |b, h| {
        ExperimentConfig::jikes(b, CollectorKind::GenCopy, h)
    });
    let mut failed = Vec::new();
    let mut runs = runner.cells(&configs, &mut failed).into_iter();
    let mut rows = Vec::new();
    for &name in benchmarks {
        let mut power = [PowerSum::default(); 3];
        let mut peak = [0.0f64; 3];
        for _ in heaps {
            let Some(run) = runs.next().expect("one result per cell") else {
                continue;
            };
            for (i, &c) in comps.iter().enumerate() {
                power[i].add(&run, c);
                if let Some(p) = run.report.component(c) {
                    peak[i] = peak[i].max(p.peak_power.watts());
                }
            }
        }
        rows.push(PowerRow {
            benchmark: name.to_owned(),
            components: (0..comps.len())
                .map(|i| (comps[i], power[i].watts(), peak[i]))
                .collect(),
        });
    }
    Ok(Fig8 { rows, failed })
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 8: average and peak power per component, Jikes RVM + GenCopy"
        )?;
        let mut t = Table::new(vec![
            "benchmark".into(),
            "App avg W".into(),
            "App peak W".into(),
            "GC avg W".into(),
            "GC peak W".into(),
            "CL avg W".into(),
            "CL peak W".into(),
        ]);
        for r in &self.rows {
            let mut cells = vec![r.benchmark.clone()];
            for &(_, avg, peak) in &r.components {
                cells.push(format!("{avg:.2}"));
                cells.push(format!("{peak:.2}"));
            }
            t.row(cells);
        }
        write!(f, "{t}")?;
        write_failed(f, &self.failed)
    }
}

// ------------------------------------------------------------ Tables T1-T5

/// T1 (§VI-C in-text): average GC power per collector over SpecJVM98.
#[derive(Debug, Clone, Serialize)]
pub struct T1CollectorPower {
    /// `(collector, average GC watts)`.
    pub rows: Vec<(CollectorKind, f64)>,
}

/// Regenerate T1 across `heaps`. The full collector × benchmark × heap
/// grid executes as one parallel batch before aggregation.
///
/// # Errors
///
/// Propagates the first failing run (in submission order, after the whole
/// grid has executed).
pub fn t1_collector_power(
    runner: &mut Runner,
    heaps: &[u32],
) -> Result<T1CollectorPower, ExperimentError> {
    let _phase = runner.phase("t1");
    let benches = suite_benchmarks(Suite::SpecJvm98);
    let collectors = CollectorKind::jikes_collectors();
    let configs = cells(
        collectors
            .into_iter()
            .flat_map(|c| benches.iter().map(move |b| (c, b.name))),
        heaps,
        |(c, b), h| ExperimentConfig::jikes(b, c, h),
    );
    // The whole grid has run by now; collecting surfaces the first error
    // in submission order, so the error does not depend on `--jobs`.
    let mut runs = runner
        .run_batch(&configs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let rows = collectors
        .into_iter()
        .map(|collector| {
            let mut gc = PowerSum::default();
            for run in runs.by_ref().take(benches.len() * heaps.len()) {
                gc.add(&run, ComponentId::Gc);
            }
            (collector, gc.watts())
        })
        .collect();
    Ok(T1CollectorPower { rows })
}

impl fmt::Display for T1CollectorPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "T1: average GC power per collector (SpecJVM98)")?;
        writeln!(
            f,
            "    paper: GenCopy 12.8 W, SemiSpace 12.3 W, GenMS 12.7 W, MarkSweep 11.7 W"
        )?;
        let mut t = Table::new(vec!["collector".into(), "avg GC power (W)".into()]);
        for (c, w) in &self.rows {
            t.row(vec![c.to_string(), format!("{w:.2}")]);
        }
        write!(f, "{t}")
    }
}

/// T2 (§VI-C in-text): per-component IPC and L2 miss rate (GenCopy).
#[derive(Debug, Clone, Serialize)]
pub struct T2L2Ipc {
    /// `(component, suite, ipc, l2 miss rate)`.
    pub rows: Vec<(ComponentId, Suite, f64, f64)>,
}

/// Regenerate T2 for SpecJVM98 and DaCapo under GenCopy at `heaps`. Each
/// suite's benchmark × heap grid executes as one parallel batch.
///
/// # Errors
///
/// Propagates the first failing run (in submission order, after the whole
/// grid has executed).
pub fn t2_l2_ipc(runner: &mut Runner, heaps: &[u32]) -> Result<T2L2Ipc, ExperimentError> {
    let _phase = runner.phase("t2");
    let mut rows = Vec::new();
    for suite in [Suite::SpecJvm98, Suite::DaCapo] {
        let configs = cells(
            suite_benchmarks(suite).iter().map(|b| b.name),
            heaps,
            |b, h| ExperimentConfig::jikes(b, CollectorKind::GenCopy, h),
        );
        // First error in submission order, whatever `--jobs` is (as in T1).
        let runs: Vec<_> = runner
            .run_batch(&configs)
            .into_iter()
            .collect::<Result<_, _>>()?;
        for comp in [
            ComponentId::Gc,
            ComponentId::ClassLoader,
            ComponentId::Application,
        ] {
            let mut ipc_num = 0.0;
            let mut cycles = 0.0;
            let mut l2m = 0.0;
            let mut l2a = 0.0;
            for p in runs.iter().filter_map(|run| run.report.component(comp)) {
                // Reconstruct sums from the profile's ratios and
                // instruction counts.
                if p.ipc > 0.0 {
                    let cyc = p.instructions as f64 / p.ipc;
                    ipc_num += p.instructions as f64;
                    cycles += cyc;
                }
                // Weight miss rate by instructions as a proxy for access
                // volume.
                l2m += p.l2_miss_rate * p.instructions as f64;
                l2a += p.instructions as f64;
            }
            rows.push((
                comp,
                suite,
                if cycles > 0.0 { ipc_num / cycles } else { 0.0 },
                if l2a > 0.0 { l2m / l2a } else { 0.0 },
            ));
        }
    }
    Ok(T2L2Ipc { rows })
}

impl fmt::Display for T2L2Ipc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "T2: per-component IPC and L2 miss rate (Jikes + GenCopy)"
        )?;
        writeln!(
            f,
            "    paper: GC misses 54%/56% (Spec/DaCapo), CL 12%/21%, App 11%; \
             IPC App ~0.8, GC ~0.55"
        )?;
        let mut t = Table::new(vec![
            "component".into(),
            "suite".into(),
            "IPC".into(),
            "L2 miss rate".into(),
        ]);
        for (c, s, ipc, miss) in &self.rows {
            t.row(vec![
                c.to_string(),
                s.to_string(),
                format!("{ipc:.2}"),
                pct(*miss),
            ]);
        }
        write!(f, "{t}")
    }
}

/// T3 (§VI-B in-text): memory energy as a share of total energy, per suite.
#[derive(Debug, Clone, Serialize)]
pub struct T3MemoryEnergy {
    /// `(suite, memory energy fraction)`.
    pub rows: Vec<(Suite, f64)>,
}

/// Regenerate T3 under Jikes + SemiSpace at `heaps`. Each suite's
/// benchmark × heap grid executes as one parallel batch.
///
/// # Errors
///
/// Propagates the first failing run (in submission order, after the whole
/// grid has executed).
pub fn t3_memory_energy(
    runner: &mut Runner,
    heaps: &[u32],
) -> Result<T3MemoryEnergy, ExperimentError> {
    let _phase = runner.phase("t3");
    let mut rows = Vec::new();
    for suite in [Suite::SpecJvm98, Suite::DaCapo, Suite::JavaGrande] {
        let configs = cells(
            suite_benchmarks(suite).iter().map(|b| b.name),
            heaps,
            |b, h| ExperimentConfig::jikes(b, CollectorKind::SemiSpace, h),
        );
        let mut mem = 0.0;
        let mut total = 0.0;
        // First error in submission order, whatever `--jobs` is (as in T1).
        for run in runner
            .run_batch(&configs)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
        {
            mem += run.report.mem_energy.joules();
            total += run.report.total_energy.joules();
        }
        rows.push((suite, if total > 0.0 { mem / total } else { 0.0 }));
    }
    Ok(T3MemoryEnergy { rows })
}

impl fmt::Display for T3MemoryEnergy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "T3: main-memory energy share of total (Jikes + SemiSpace)"
        )?;
        writeln!(f, "    paper: ~7% SpecJVM98, ~5% DaCapo, ~8% Java Grande")?;
        let mut t = Table::new(vec!["suite".into(), "memory energy share".into()]);
        for (s, v) in &self.rows {
            t.row(vec![s.to_string(), pct(*v)]);
        }
        write!(f, "{t}")
    }
}

/// T4 (§VI-A/B in-text): the paper's headline numbers.
#[derive(Debug, Clone, Serialize)]
pub struct T4Headlines {
    /// Maximum JVM energy fraction and where it occurs (paper: 60%,
    /// `_213_javac` @ 32 MB).
    pub max_jvm_fraction: (String, u32, f64),
    /// Average GC fraction for SpecJVM98 at 32 MB and 128 MB (paper: 37% →
    /// 10%).
    pub spec_gc_32_vs_128: (f64, f64),
    /// Average GC fraction for DaCapo at 48 MB and 128 MB (paper: 32% →
    /// 11%).
    pub dacapo_gc_48_vs_128: (f64, f64),
    /// EDP improvement of GenMS over SemiSpace for `_213_javac` at 32 MB
    /// (paper: up to 70%).
    pub javac_genms_vs_semispace_32: f64,
    /// EDP advantage of SemiSpace over GenCopy for `_209_db` at 128 MB
    /// (paper: 5%).
    pub db_semispace_vs_gencopy_128: f64,
    /// EDP reduction from 32→48 MB under SemiSpace for `_213_javac`,
    /// `_227_mtrt`, `euler` (paper: 56%, 50%, 27%).
    pub semispace_32_to_48: [(String, f64); 3],
    /// Same transition under GenCopy (paper: 20%, 2%, 3%).
    pub gencopy_32_to_48: [(String, f64); 3],
    /// Average/maximum fractions of the small components under SemiSpace:
    /// (base avg, opt avg, opt max, CL avg, CL max); paper: <1%, 3%, 7%
    /// (`_222_mpegaudio`), 3%, 24% (`fop`).
    pub small_components: (f64, f64, f64, f64, f64),
}

/// Regenerate T4 from Figure 6/7 data.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn t4_headlines(runner: &mut Runner) -> Result<T4Headlines, ExperimentError> {
    let _phase = runner.phase("t4");
    let fig6 = fig6(runner, &all_benchmark_names(), &P6_HEAPS_MB)?;
    let names: Vec<&str> = ["_213_javac", "_227_mtrt", "euler", "_209_db"].to_vec();
    let fig7 = fig7(runner, &names, &P6_HEAPS_MB)?;

    let frac = |r: &BreakdownRow, c: ComponentId| {
        r.fractions
            .iter()
            .find(|(x, _)| *x == c)
            .map_or(0.0, |(_, v)| *v)
    };

    // Max JVM fraction.
    let mut max_jvm = (String::new(), 0u32, 0.0f64);
    for r in &fig6.rows {
        let jvm: f64 = r.fractions.iter().map(|(_, v)| v).sum();
        if jvm > max_jvm.2 {
            max_jvm = (r.benchmark.clone(), r.heap_mb, jvm);
        }
    }

    let suite_avg_gc = |suite: Suite, heap: u32| -> f64 {
        let names: Vec<_> = suite_benchmarks(suite).iter().map(|b| b.name).collect();
        let vals: Vec<f64> = fig6
            .rows
            .iter()
            .filter(|r| r.heap_mb == heap && names.contains(&r.benchmark.as_str()))
            .map(|r| frac(r, ComponentId::Gc))
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };

    let edp = |bench: &str, col: CollectorKind, heap: u32| -> f64 {
        fig7.curve(bench, col)
            .and_then(|c| c.at(heap))
            .unwrap_or(f64::NAN)
    };
    let drop_pct = |a: f64, b: f64| (a - b) / a;

    let three = |col: CollectorKind| -> [(String, f64); 3] {
        ["_213_javac", "_227_mtrt", "euler"]
            .map(|n| (n.to_owned(), drop_pct(edp(n, col, 32), edp(n, col, 48))))
    };

    // Small components under SemiSpace across all bars.
    let avg = |c: ComponentId| -> f64 {
        fig6.rows.iter().map(|r| frac(r, c)).sum::<f64>() / fig6.rows.len() as f64
    };
    let max = |c: ComponentId| -> f64 { fig6.rows.iter().map(|r| frac(r, c)).fold(0.0, f64::max) };

    Ok(T4Headlines {
        max_jvm_fraction: max_jvm,
        spec_gc_32_vs_128: (
            suite_avg_gc(Suite::SpecJvm98, 32),
            suite_avg_gc(Suite::SpecJvm98, 128),
        ),
        dacapo_gc_48_vs_128: (
            suite_avg_gc(Suite::DaCapo, 48),
            suite_avg_gc(Suite::DaCapo, 128),
        ),
        javac_genms_vs_semispace_32: drop_pct(
            edp("_213_javac", CollectorKind::SemiSpace, 32),
            edp("_213_javac", CollectorKind::GenMs, 32),
        ),
        db_semispace_vs_gencopy_128: drop_pct(
            edp("_209_db", CollectorKind::GenCopy, 128),
            edp("_209_db", CollectorKind::SemiSpace, 128),
        ),
        semispace_32_to_48: three(CollectorKind::SemiSpace),
        gencopy_32_to_48: three(CollectorKind::GenCopy),
        small_components: (
            avg(ComponentId::BaseCompiler),
            avg(ComponentId::OptCompiler),
            max(ComponentId::OptCompiler),
            avg(ComponentId::ClassLoader),
            max(ComponentId::ClassLoader),
        ),
    })
}

impl fmt::Display for T4Headlines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "T4: headline claims (measured vs paper)")?;
        let (b, h, v) = &self.max_jvm_fraction;
        writeln!(
            f,
            "  max JVM energy:        {} @ {}MB = {} (paper: _213_javac @32MB, 60%)",
            b,
            h,
            pct(*v)
        )?;
        writeln!(
            f,
            "  Spec GC 32->128MB:     {} -> {} (paper: 37% -> 10%)",
            pct(self.spec_gc_32_vs_128.0),
            pct(self.spec_gc_32_vs_128.1)
        )?;
        writeln!(
            f,
            "  DaCapo GC 48->128MB:   {} -> {} (paper: 32% -> 11%)",
            pct(self.dacapo_gc_48_vs_128.0),
            pct(self.dacapo_gc_48_vs_128.1)
        )?;
        writeln!(
            f,
            "  javac GenMS vs SS @32: {} EDP improvement (paper: up to 70%)",
            pct(self.javac_genms_vs_semispace_32)
        )?;
        writeln!(
            f,
            "  db SS vs GenCopy @128: {} EDP improvement (paper: 5%)",
            pct(self.db_semispace_vs_gencopy_128)
        )?;
        for ((n, ss), (_, gc)) in self.semispace_32_to_48.iter().zip(&self.gencopy_32_to_48) {
            writeln!(
                f,
                "  {n} 32->48MB EDP drop: SemiSpace {} vs GenCopy {}",
                pct(*ss),
                pct(*gc)
            )?;
        }
        let (ba, oa, om, ca, cm) = self.small_components;
        writeln!(
            f,
            "  base avg {} | opt avg {} max {} | CL avg {} max {}",
            pct(ba),
            pct(oa),
            pct(om),
            pct(ca),
            pct(cm)
        )?;
        writeln!(
            f,
            "  (paper: base <1%; opt 3% avg, 7% max; CL 3% avg, 24% max)"
        )
    }
}

/// T5 (§VI-D/E in-text): Kaffe component shares and PXA255 power.
#[derive(Debug, Clone, Serialize)]
pub struct T5Kaffe {
    /// P6 average fractions `(GC, CL, JIT)` (paper: 7%, 1%, <1%).
    pub p6_fractions: (f64, f64, f64),
    /// P6 average GC power in watts (paper: 12.8 W).
    pub p6_gc_power_w: f64,
    /// PXA255 average fractions `(GC, CL, JIT)` (paper: 5%, 18%, 5%).
    pub pxa_fractions: (f64, f64, f64),
    /// PXA255 average powers in watts `(GC, App, CL)` (paper: GC 270 mW,
    /// ~7% above the app; CL lowest).
    pub pxa_powers_w: (f64, f64, f64),
}

/// Regenerate T5 (`p6_heaps` for the P6 sweep, `pxa_heaps` for the board).
/// Both grids execute as one parallel batch each.
///
/// # Errors
///
/// Propagates the first failing run (in submission order, after the whole
/// grid has executed).
pub fn t5_kaffe(
    runner: &mut Runner,
    p6_heaps: &[u32],
    pxa_heaps: &[u32],
) -> Result<T5Kaffe, ExperimentError> {
    let _phase = runner.phase("t5");
    let p6_configs = cells(
        all_benchmarks().iter().map(|b| b.name),
        p6_heaps,
        ExperimentConfig::kaffe,
    );
    let pxa_configs = cells(
        pxa255_benchmarks().iter().map(|b| b.name),
        pxa_heaps,
        ExperimentConfig::kaffe_pxa,
    );

    // First error in submission order, whatever `--jobs` is (as in T1).
    let p6_runs: Vec<_> = runner
        .run_batch(&p6_configs)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let mut p6 = [0.0f64; 3];
    let mut p6_gc = PowerSum::default();
    for run in &p6_runs {
        for (sum, c) in p6.iter_mut().zip(KAFFE_COMPONENTS) {
            *sum += run.fraction(c);
        }
        p6_gc.add(run, ComponentId::Gc);
    }
    let nf = p6_runs.len().max(1) as f64;

    let pxa_runs: Vec<_> = runner
        .run_batch(&pxa_configs)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let mut pxa = [0.0f64; 3];
    let power_components = [
        ComponentId::Gc,
        ComponentId::Application,
        ComponentId::ClassLoader,
    ];
    let mut powers = [PowerSum::default(); 3];
    for run in &pxa_runs {
        for (sum, c) in pxa.iter_mut().zip(KAFFE_COMPONENTS) {
            *sum += run.fraction(c);
        }
        for (sum, c) in powers.iter_mut().zip(power_components) {
            sum.add(run, c);
        }
    }
    let mf = pxa_runs.len().max(1) as f64;

    Ok(T5Kaffe {
        p6_fractions: (p6[0] / nf, p6[1] / nf, p6[2] / nf),
        p6_gc_power_w: p6_gc.watts(),
        pxa_fractions: (pxa[0] / mf, pxa[1] / mf, pxa[2] / mf),
        pxa_powers_w: (powers[0].watts(), powers[1].watts(), powers[2].watts()),
    })
}

impl fmt::Display for T5Kaffe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "T5: Kaffe component shares and PXA255 power")?;
        writeln!(
            f,
            "  P6 avg fractions: GC {} CL {} JIT {} (paper: 7%, 1%, <1%)",
            pct(self.p6_fractions.0),
            pct(self.p6_fractions.1),
            pct(self.p6_fractions.2)
        )?;
        writeln!(
            f,
            "  P6 GC power: {:.2} W (paper: 12.8 W)",
            self.p6_gc_power_w
        )?;
        writeln!(
            f,
            "  PXA avg fractions: GC {} CL {} JIT {} (paper: 5%, 18%, 5%)",
            pct(self.pxa_fractions.0),
            pct(self.pxa_fractions.1),
            pct(self.pxa_fractions.2)
        )?;
        writeln!(
            f,
            "  PXA power: GC {:.0} mW, App {:.0} mW, CL {:.0} mW (paper: GC 270 mW, +7% over App, CL lowest)",
            1e3 * self.pxa_powers_w.0,
            1e3 * self.pxa_powers_w.1,
            1e3 * self.pxa_powers_w.2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_lists_all_sixteen_benchmarks() {
        let f = fig5();
        assert_eq!(f.rows.len(), 16);
        let text = f.to_string();
        for name in ["_201_compress", "_213_javac", "fop", "euler", "search"] {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.contains("SpecJVM98"));
        // Every benchmark allocates more than it keeps live.
        for (_, name, _, alloc, live) in &f.rows {
            assert!(alloc >= live, "{name}: alloc {alloc} < live {live}");
        }
    }

    #[test]
    fn edp_curve_lookup() {
        let curve = EdpCurve {
            benchmark: "_209_db".into(),
            collector: CollectorKind::SemiSpace,
            points: vec![(32, 1.5), (48, 1.0)],
        };
        assert_eq!(curve.at(32), Some(1.5));
        assert_eq!(curve.at(64), None);
        let fig = EdpFigure {
            title: "EDP",
            heaps: vec![32, 48],
            curves: vec![curve],
            failed: Vec::new(),
        };
        assert!(fig.curve("_209_db", CollectorKind::SemiSpace).is_some());
        assert!(fig.curve("_209_db", CollectorKind::GenMs).is_none());
        assert!(fig.to_string().contains("32MB"));
    }

    #[test]
    fn component_legend_orders_match_paper() {
        assert_eq!(JIKES_COMPONENTS[0], ComponentId::OptCompiler);
        assert_eq!(JIKES_COMPONENTS[3], ComponentId::Gc);
        assert_eq!(
            KAFFE_COMPONENTS,
            [
                ComponentId::Gc,
                ComponentId::ClassLoader,
                ComponentId::JitCompiler
            ]
        );
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(pct(0.5), " 50.0%");
        assert_eq!(pct(0.0314), "  3.1%");
    }
}

//! The energy-regression gate: compare per-component energy between two
//! builds with bootstrap confidence intervals.
//!
//! Point-estimate energy diffs drown in run-to-run noise, so the diff
//! engine works on *distributions*: each scenario cell is executed under a
//! deterministic **seed ensemble** — `replicates` runs whose fault plans
//! inject only bounded Gaussian sensor noise, each seeded from an
//! independent stream of the diff seed — and every component's energy
//! samples are bootstrap-resampled into a confidence interval per side. A
//! regression is flagged only when the candidate CI sits strictly above the
//! baseline CI *and* the mean shift clears a practical-significance floor
//! ([`DiffOptions::min_rel_shift`]); the symmetric case is reported as an
//! improvement.
//!
//! Everything is deterministic: the ensemble seeds, the resampler (a
//! [`DetRng`] percentile bootstrap — no `rand`), and the submission-order
//! merge in the runner, so a [`RegressionReport`] is byte-identical for any
//! `--jobs N` and a fixed seed.
//!
//! The two sides are addressed by **label**, one runner per label: a
//! runner whose cache carries that label as its fingerprint
//! ([`crate::ExperimentCache::with_fingerprint`]) reads that build's
//! entries, so the baseline side of a diff against an older build is
//! usually served entirely from its cache. When both sides carry the same
//! label (a self-diff, or a perturbation experiment), the sweep runs once
//! and is shared.

use std::collections::BTreeSet;
use std::sync::Arc;

use vmprobe_heap::CollectorKind;
use vmprobe_power::{
    perturbed_component_energy, ComponentId, DetRng, EnergyPerturbation, FaultPlan,
};
use vmprobe_telemetry::{CounterId, HistId, Telemetry};
use vmprobe_workloads::{all_benchmarks, InputScale};

use crate::experiment::{ExperimentConfig, RunSummary};
use crate::json::{self, JsonObj};
use crate::runner::Runner;

/// The golden sweep grid shared by `vmprobe-analyze --check-golden` and the
/// diff gate: every benchmark in the registry on both VM personalities —
/// Jikes/GenCopy at 64 MB on the P6 board and Kaffe at 32 MB on the
/// DBPXA255 — at the reduced input scale.
///
/// Enumeration order is benchmark-major (Jikes cell first), matching the
/// historical `--check-golden` loop, so reports keyed off this list stay
/// stable.
pub fn golden_cells() -> Vec<ExperimentConfig> {
    let mut cells = Vec::new();
    for bench in all_benchmarks() {
        let mut jikes = ExperimentConfig::jikes(bench.name, CollectorKind::GenCopy, 64);
        jikes.scale = InputScale::Reduced;
        cells.push(jikes);
        cells.push(ExperimentConfig::kaffe_pxa(bench.name, 32));
    }
    cells
}

/// Statistical knobs of the diff engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Root seed: ensemble fault-plan seeds and every bootstrap stream
    /// derive from it.
    pub seed: u64,
    /// Runs per cell in the seed ensemble (the sample count fed to the
    /// bootstrap).
    pub replicates: usize,
    /// Bootstrap resample draws per confidence interval.
    pub resamples: u32,
    /// Two-sided confidence level of the intervals, in (0, 1).
    pub confidence: f64,
    /// Relative sigma of the per-sample sensor noise the ensemble injects
    /// (see [`FaultPlan::noise_sigma`]).
    pub noise_sigma: f64,
    /// Practical-significance floor: CI separation alone does not flag a
    /// comparison unless `|rel_shift|` also reaches this value. Per-sample
    /// noise averages down by √samples over a run, so intervals are tight
    /// enough to separate on microscopic drifts; the floor keeps the gate
    /// honest about effect size.
    pub min_rel_shift: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            seed: 0xD1FF,
            replicates: 5,
            resamples: 200,
            confidence: 0.99,
            noise_sigma: 0.003,
            min_rel_shift: 0.005,
        }
    }
}

/// A percentile-bootstrap confidence interval for a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// The sample mean (point estimate).
    pub mean: f64,
    /// Lower CI bound.
    pub lo: f64,
    /// Upper CI bound.
    pub hi: f64,
}

/// Deterministic percentile bootstrap of the mean of `samples`.
///
/// Draws `resamples` with-replacement resamples from `rng`, takes each
/// resample's mean, and reads the two-sided `confidence` quantiles off the
/// sorted draws. The interval is widened to contain the sample mean itself
/// (a conservative clamp that matters only for degenerate draw counts), so
/// `lo <= mean <= hi` always holds, and for a fixed `rng` seed the bounds
/// are monotone in `confidence`.
///
/// # Panics
///
/// When `samples` is empty, `resamples` is zero, or `confidence` is outside
/// (0, 1) — caller bugs, not data properties.
pub fn bootstrap_ci(
    samples: &[f64],
    confidence: f64,
    resamples: u32,
    rng: &mut DetRng,
) -> BootstrapCi {
    assert!(!samples.is_empty(), "bootstrap over an empty sample set");
    assert!(resamples > 0, "bootstrap with zero resamples");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1), got {confidence}"
    );
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let mut draws: Vec<f64> = (0..resamples)
        .map(|_| {
            let sum: f64 = (0..n)
                .map(|_| samples[(rng.next_u64() % n as u64) as usize])
                .sum();
            sum / n as f64
        })
        .collect();
    draws.sort_by(|a, b| a.partial_cmp(b).expect("finite energies"));
    let alpha = (1.0 - confidence) / 2.0;
    let last = (draws.len() - 1) as f64;
    let lo_idx = (alpha * last).floor() as usize;
    let hi_idx = ((1.0 - alpha) * last).ceil() as usize;
    BootstrapCi {
        mean,
        lo: draws[lo_idx].min(mean),
        hi: draws[hi_idx].max(mean),
    }
}

/// One flagged (cell, component) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentDelta {
    /// The scenario cell that moved.
    pub cell: ExperimentConfig,
    /// The component that moved.
    pub component: ComponentId,
    /// Baseline-side interval over the seed ensemble, in joules.
    pub baseline: BootstrapCi,
    /// Candidate-side interval over the seed ensemble, in joules.
    pub candidate: BootstrapCi,
    /// `(candidate mean − baseline mean) / baseline mean` (infinite when
    /// the component consumed nothing on the baseline side).
    pub rel_shift: f64,
}

impl ComponentDelta {
    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("benchmark", &self.cell.benchmark)
            .str("vm", &self.cell.vm.to_string())
            .u64("heap_mb", u64::from(self.cell.heap_mb))
            .str("platform", self.cell.platform.name())
            .str("scale", self.cell.scale.name())
            .str("component", self.component.label())
            .f64("baseline_mean_j", self.baseline.mean)
            .f64("baseline_lo_j", self.baseline.lo)
            .f64("baseline_hi_j", self.baseline.hi)
            .f64("candidate_mean_j", self.candidate.mean)
            .f64("candidate_lo_j", self.candidate.lo)
            .f64("candidate_hi_j", self.candidate.hi)
            .f64("rel_shift", self.rel_shift);
        o.finish()
    }
}

/// Machine-readable outcome of a diff run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Fingerprint label the baseline side was addressed by.
    pub baseline_label: String,
    /// Fingerprint label the candidate side was addressed by.
    pub candidate_label: String,
    /// Canonical candidate-side perturbation spec (empty when none).
    pub perturb: String,
    /// The statistical knobs the comparison ran under.
    pub options: DiffOptions,
    /// Scenario cells compared.
    pub cells: usize,
    /// (cell, component) comparisons performed.
    pub comparisons: u64,
    /// Comparisons whose candidate CI sits strictly above baseline with a
    /// shift past the floor.
    pub regressions: Vec<ComponentDelta>,
    /// The symmetric improvements.
    pub improvements: Vec<ComponentDelta>,
}

impl RegressionReport {
    /// True when no regression was flagged (improvements do not gate).
    pub fn clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Distinct components named by the regressions, in
    /// [`ComponentId::ALL`] order.
    pub fn components_flagged(&self) -> Vec<&'static str> {
        self.regressions
            .iter()
            .map(|d| d.component)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(ComponentId::label)
            .collect()
    }

    /// Render the report as schema-stamped JSON.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.schema_version()
            .str("kind", "regression_report")
            .str("baseline", &self.baseline_label)
            .str("candidate", &self.candidate_label)
            .str("perturb", &self.perturb)
            .u64("seed", self.options.seed)
            .u64("replicates", self.options.replicates as u64)
            .u64("resamples", u64::from(self.options.resamples))
            .f64("confidence", self.options.confidence)
            .f64("noise_sigma", self.options.noise_sigma)
            .f64("min_rel_shift", self.options.min_rel_shift)
            .u64("cells", self.cells as u64)
            .u64("comparisons", self.comparisons)
            .bool("clean", self.clean())
            .array(
                "components_flagged",
                self.components_flagged()
                    .into_iter()
                    .map(|l| format!("\"{}\"", json::escape(l))),
            )
            .array(
                "regressions",
                self.regressions.iter().map(ComponentDelta::to_json),
            )
            .array(
                "improvements",
                self.improvements.iter().map(ComponentDelta::to_json),
            );
        o.finish()
    }
}

/// The diff engine: two side labels, a perturbation, and the statistical
/// knobs. The runs come from the runners [`DiffEngine::run`] borrows.
#[derive(Debug)]
pub struct DiffEngine {
    options: DiffOptions,
    perturb: EnergyPerturbation,
    baseline_label: String,
    candidate_label: String,
}

impl DiffEngine {
    /// An engine comparing the side labelled `baseline_label` to the side
    /// labelled `candidate_label` under `options`, with no perturbation.
    /// The labels are recorded in the report, and equal labels mean one
    /// build: its sweep then serves both sides.
    pub fn new(options: DiffOptions, baseline_label: &str, candidate_label: &str) -> Self {
        Self {
            options,
            perturb: EnergyPerturbation::none(),
            baseline_label: baseline_label.to_owned(),
            candidate_label: candidate_label.to_owned(),
        }
    }

    /// Scale the candidate side's extracted per-component energies — the
    /// test corpus's stand-in for an actually changed build. Cached runs
    /// stay raw; the factors apply at extraction time only.
    #[must_use]
    pub fn perturb(mut self, p: EnergyPerturbation) -> Self {
        self.perturb = p;
        self
    }

    /// The ensemble master plan for replicate `r`: sensor noise only, on an
    /// independent deterministic seed stream. The runner further derives a
    /// per-cell seed from each master, so cells are decorrelated too.
    fn replicate_plan(&self, r: usize) -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.noise_sigma = self.options.noise_sigma;
        plan.seed = DetRng::new(self.options.seed)
            .derive(&format!("diff-ensemble|{r}"))
            .next_u64();
        plan
    }

    /// Run the seed ensemble for every cell on `runner`; returns
    /// `replicates` summaries per cell, in cell order.
    fn sweep(
        &self,
        runner: &Runner,
        cells: &[ExperimentConfig],
    ) -> Result<Vec<Vec<Arc<RunSummary>>>, String> {
        let batch: Vec<(ExperimentConfig, Option<FaultPlan>)> = cells
            .iter()
            .flat_map(|cell| {
                (0..self.options.replicates).map(|r| (cell.clone(), Some(self.replicate_plan(r))))
            })
            .collect();
        let results = runner.run_batch_with_plans(&batch);
        let mut per_cell = Vec::with_capacity(cells.len());
        let mut it = results.into_iter();
        for cell in cells {
            let mut replicates = Vec::with_capacity(self.options.replicates);
            for _ in 0..self.options.replicates {
                let summary = it
                    .next()
                    .expect("one result per submitted cell")
                    .map_err(|e| format!("{cell}: {e}"))?;
                replicates.push(summary);
            }
            per_cell.push(replicates);
        }
        Ok(per_cell)
    }

    /// Execute the diff over `cells`, the baseline side's runs from
    /// `baseline` and the candidate side's from `candidate`, and assemble
    /// the report. With equal labels the baseline sweep serves both sides
    /// (a self-diff passes one runner twice). Every `diff_*` count goes to
    /// the baseline runner's telemetry hub.
    ///
    /// Panics are contained only when the runners contain them
    /// ([`Runner::contain_panics`]); `vmprobe-diff` and the serving daemon
    /// build theirs that way.
    ///
    /// # Errors
    ///
    /// A rendered [`crate::ExperimentError`] with its cell identity when
    /// any ensemble run fails on either side — the gate never compares
    /// partial ensembles.
    pub fn run(
        &self,
        baseline: &Runner,
        candidate: &Runner,
        cells: &[ExperimentConfig],
    ) -> Result<RegressionReport, String> {
        assert!(
            self.options.replicates > 0,
            "diff needs at least one replicate"
        );
        let telemetry = baseline.telemetry();
        telemetry.count(CounterId::DiffSweeps, 1);
        let base_runs = self.sweep(baseline, cells)?;
        // A self-diff (same label on both sides) shares one sweep: the
        // sides differ only by the extraction-time perturbation.
        let cand_runs = if self.baseline_label == self.candidate_label {
            None
        } else {
            telemetry.count(CounterId::DiffSweeps, 1);
            Some(self.sweep(candidate, cells)?)
        };

        let mut report = RegressionReport {
            baseline_label: self.baseline_label.clone(),
            candidate_label: self.candidate_label.clone(),
            perturb: self.perturb.to_string(),
            options: self.options,
            cells: cells.len(),
            comparisons: 0,
            regressions: Vec::new(),
            improvements: Vec::new(),
        };

        for (i, cell) in cells.iter().enumerate() {
            telemetry.count(CounterId::DiffCellsCompared, 1);
            let base = &base_runs[i];
            let cand = cand_runs.as_ref().map_or(base, |runs| &runs[i]);
            // Every component either side's ensemble ever attributed a
            // sample to, in display order.
            let touched: BTreeSet<ComponentId> = base
                .iter()
                .chain(cand.iter())
                .flat_map(|run| run.report.components.keys().copied())
                .collect();
            for component in touched {
                let none = EnergyPerturbation::none();
                let extract = |runs: &[Arc<RunSummary>], p: &EnergyPerturbation| -> Vec<f64> {
                    runs.iter()
                        .map(|run| perturbed_component_energy(&run.report, component, p))
                        .collect()
                };
                let base_samples = extract(base, &none);
                let cand_samples = extract(cand, &self.perturb);
                let base_ci = self.ci(telemetry, &base_samples, cell, component, "base");
                let cand_ci = self.ci(telemetry, &cand_samples, cell, component, "cand");
                report.comparisons += 1;
                let rel_shift = if base_ci.mean == 0.0 {
                    if cand_ci.mean == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (cand_ci.mean - base_ci.mean) / base_ci.mean
                };
                if rel_shift.is_finite() {
                    telemetry.observe(HistId::DiffShiftPpm, (rel_shift.abs() * 1e6).round() as u64);
                }
                let delta = ComponentDelta {
                    cell: cell.clone(),
                    component,
                    baseline: base_ci,
                    candidate: cand_ci,
                    rel_shift,
                };
                if cand_ci.lo > base_ci.hi && rel_shift >= self.options.min_rel_shift {
                    telemetry.count(CounterId::DiffRegressions, 1);
                    report.regressions.push(delta);
                } else if cand_ci.hi < base_ci.lo && rel_shift <= -self.options.min_rel_shift {
                    report.improvements.push(delta);
                }
            }
        }
        Ok(report)
    }

    /// Bootstrap one side of one comparison on its own derived stream, so
    /// the interval depends only on (seed, cell, component, side).
    fn ci(
        &self,
        telemetry: &Telemetry,
        samples: &[f64],
        cell: &ExperimentConfig,
        component: ComponentId,
        side: &str,
    ) -> BootstrapCi {
        let mut rng = DetRng::new(self.options.seed).derive(&format!(
            "diff-boot|{}|{}|{side}",
            cell.key(),
            component.label()
        ));
        telemetry.count(CounterId::DiffResamples, u64::from(self.options.resamples));
        bootstrap_ci(
            samples,
            self.options.confidence,
            self.options.resamples,
            &mut rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_platform::PlatformKind;

    fn rng() -> DetRng {
        DetRng::new(0xB007)
    }

    const SAMPLES: [f64; 8] = [10.0, 10.2, 9.9, 10.1, 10.05, 9.95, 10.15, 9.85];

    #[test]
    fn bootstrap_is_deterministic_for_a_fixed_seed() {
        let a = bootstrap_ci(&SAMPLES, 0.95, 300, &mut rng());
        let b = bootstrap_ci(&SAMPLES, 0.95, 300, &mut rng());
        assert_eq!(a, b);
        let c = bootstrap_ci(&SAMPLES, 0.95, 300, &mut DetRng::new(0x5EED));
        assert_ne!(a, c, "different seeds must explore different resamples");
    }

    #[test]
    fn bootstrap_ci_contains_the_sample_mean() {
        let mean = SAMPLES.iter().sum::<f64>() / SAMPLES.len() as f64;
        for conf in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let ci = bootstrap_ci(&SAMPLES, conf, 200, &mut rng());
            assert!(
                ci.lo <= mean && mean <= ci.hi,
                "CI [{}, {}] at {conf} excludes mean {mean}",
                ci.lo,
                ci.hi
            );
            assert_eq!(ci.mean, mean);
        }
    }

    #[test]
    fn bootstrap_bounds_are_monotone_in_confidence() {
        let mut prev: Option<BootstrapCi> = None;
        for conf in [0.5, 0.8, 0.9, 0.95, 0.99, 0.999] {
            let ci = bootstrap_ci(&SAMPLES, conf, 400, &mut rng());
            if let Some(p) = prev {
                assert!(
                    ci.lo <= p.lo && ci.hi >= p.hi,
                    "interval at {conf} must contain the narrower one"
                );
            }
            prev = Some(ci);
        }
    }

    #[test]
    fn single_sample_degenerates_to_a_point() {
        let ci = bootstrap_ci(&[42.0], 0.99, 50, &mut rng());
        assert_eq!((ci.lo, ci.mean, ci.hi), (42.0, 42.0, 42.0));
    }

    #[test]
    fn golden_cells_cover_both_personalities_per_benchmark() {
        let cells = golden_cells();
        let benchmarks = all_benchmarks();
        assert_eq!(cells.len(), 2 * benchmarks.len());
        for (pair, bench) in cells.chunks(2).zip(benchmarks) {
            assert_eq!(pair[0].benchmark, bench.name);
            assert_eq!(pair[0].vm, crate::VmChoice::Jikes(CollectorKind::GenCopy));
            assert_eq!(pair[0].platform, PlatformKind::PentiumM);
            assert_eq!(pair[0].heap_mb, 64);
            assert_eq!(pair[0].scale, InputScale::Reduced);
            assert_eq!(pair[1].benchmark, bench.name);
            assert_eq!(pair[1].vm, crate::VmChoice::Kaffe);
            assert_eq!(pair[1].platform, PlatformKind::Pxa255);
            assert_eq!(pair[1].heap_mb, 32);
            assert_eq!(pair[1].scale, InputScale::Reduced);
        }
    }

    #[test]
    fn empty_report_is_clean_and_flags_nothing() {
        let report = RegressionReport {
            baseline_label: "a".into(),
            candidate_label: "b".into(),
            perturb: String::new(),
            options: DiffOptions::default(),
            cells: 0,
            comparisons: 0,
            regressions: Vec::new(),
            improvements: Vec::new(),
        };
        assert!(report.clean());
        assert!(report.components_flagged().is_empty());
        let json = report.to_json();
        assert!(json.contains("\"clean\":true"));
        assert!(json.contains("\"schema_version\":"));
        assert!(json.contains("\"regressions\":[]"));
    }
}

//! The observer-effect sweep: measure what measurement costs.
//!
//! The paper's rig is transparent — probes happen "outside" the machine —
//! which leaves two questions it cannot answer: how much would the probes
//! perturb the system if they were real ([`ProbeSpec::nontransparent_at`]),
//! and how much per-component attribution error does the sampling window
//! hide (§IV-D quantization)? Both move with the sampling period, in
//! opposite directions: a shorter period shrinks the attribution-error
//! bound (fewer Joules per transition window) but pays more probe work per
//! second, while a longer period is nearly free and nearly blind.
//!
//! The [`ObserveEngine`] maps that trade-off empirically. Each cell runs
//! **transparent** and **non-transparent** at every period of a grid; per
//! (cell, period) point it extracts
//!
//! * `perturbation_ppm` — the total-energy observer effect,
//!   `(E_nt − E_t) / E_t`, in parts per million;
//! * `misattr_ppm` — the transparent run's attribution-error bound,
//!   transition-window energy over total energy;
//! * `share_shift_ppm` — the largest per-component energy-share movement
//!   between the two modes, the attribution error the probes *cause*;
//!
//! and the report recommends the period minimizing the worst of the blind
//! spot and the perturbation. Everything rides the deterministic runner and
//! the persistent cache (the probe spec is part of the cache key, so
//! perturbed entries never alias clean ones), and the whole sweep is
//! byte-identical for any `--jobs N`.

use std::collections::BTreeSet;
use std::sync::Arc;

use vmprobe_power::{ComponentId, ProbeSpec};
use vmprobe_telemetry::{CounterId, HistId};

use crate::experiment::{ExperimentConfig, RunSummary};
use crate::json::JsonObj;
use crate::runner::Runner;
use crate::table::Table;

/// Hard cap on the probe-period grid: bounds every sweep (CLI and the
/// serving daemon's `op:"observe"`) at `cells × MAX_OBSERVE_PERIODS × 2`
/// runs.
pub const MAX_OBSERVE_PERIODS: usize = 8;

/// The probe-period grid an observe sweep uses when none is named: the
/// paper's 40 µs rig bracketed by a decade below and two above.
pub const DEFAULT_PERIOD_GRID: &str = "4us..4ms";

/// Smallest accepted probe period: below ~1 µs the ISR would outrun its
/// own sampling window on the PXA board.
pub const MIN_PERIOD_NS: u64 = 1_000;

/// Largest accepted probe period: 100 ms is already 100× blinder than the
/// paper's coarsest (10 ms PXA255) HPM timer.
pub const MAX_PERIOD_NS: u64 = 100_000_000;

/// Parse one period literal: an integer with a `ns`, `us` or `ms` suffix.
fn parse_period(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, scale) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else {
        return Err(format!("period '{s}' needs a ns/us/ms suffix"));
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("period '{s}' is not an integer"))?;
    let ns = n
        .checked_mul(scale)
        .ok_or_else(|| format!("period '{s}' overflows"))?;
    if !(MIN_PERIOD_NS..=MAX_PERIOD_NS).contains(&ns) {
        return Err(format!(
            "period '{s}' outside [{MIN_PERIOD_NS}ns, {MAX_PERIOD_NS}ns]"
        ));
    }
    Ok(ns)
}

/// Parse a probe-period grid spec: comma-separated terms, each a single
/// period (`40us`) or a decade range (`4us..4ms`, expanded ×10 from the
/// low end, end included). Duplicates collapse and the grid comes back
/// sorted ascending.
///
/// # Errors
///
/// A rendered message on bad syntax, an inverted range, out-of-bounds
/// periods, or a grid larger than [`MAX_OBSERVE_PERIODS`].
pub fn parse_period_grid(spec: &str) -> Result<Vec<u64>, String> {
    let mut grid = BTreeSet::new();
    for term in spec.split(',') {
        let term = term.trim();
        if term.is_empty() {
            return Err(format!("empty term in period grid '{spec}'"));
        }
        if let Some((lo, hi)) = term.split_once("..") {
            let (lo, hi) = (parse_period(lo)?, parse_period(hi)?);
            if lo > hi {
                return Err(format!("inverted range '{term}'"));
            }
            let mut p = lo;
            loop {
                grid.insert(p);
                match p.checked_mul(10) {
                    Some(next) if next <= hi => p = next,
                    _ => break,
                }
            }
            grid.insert(hi);
        } else {
            grid.insert(parse_period(term)?);
        }
    }
    if grid.len() > MAX_OBSERVE_PERIODS {
        return Err(format!(
            "period grid has {} points, cap is {MAX_OBSERVE_PERIODS}",
            grid.len()
        ));
    }
    Ok(grid.into_iter().collect())
}

/// Render a period for humans: `4us`, `400us`, `4ms`, falling back to
/// nanoseconds when it is not a whole number of the larger unit.
pub fn period_label(ns: u64) -> String {
    if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// One (cell, period) point of the sweep: the transparent and
/// non-transparent runs side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservePoint {
    /// The scenario cell.
    pub cell: ExperimentConfig,
    /// Probe period, in nanoseconds.
    pub period_ns: u64,
    /// Transparent-mode total energy, joules.
    pub energy_t_j: f64,
    /// Non-transparent-mode total energy, joules.
    pub energy_nt_j: f64,
    /// Cycles the non-transparent run charged directly to probes.
    pub probe_cycles: u64,
    /// Total-energy observer effect, `(E_nt − E_t)/E_t`, in ppm.
    pub perturbation_ppm: f64,
    /// Transparent-mode attribution-error bound (transition-window energy
    /// over total energy), in ppm.
    pub misattr_ppm: f64,
    /// Largest per-component energy-share shift between the modes, in ppm.
    pub share_shift_ppm: f64,
}

impl ObservePoint {
    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("benchmark", &self.cell.benchmark)
            .str("vm", &self.cell.vm.to_string())
            .u64("heap_mb", u64::from(self.cell.heap_mb))
            .u64("period_ns", self.period_ns)
            .f64("energy_t_j", self.energy_t_j)
            .f64("energy_nt_j", self.energy_nt_j)
            .u64("probe_cycles", self.probe_cycles)
            .f64("perturbation_ppm", self.perturbation_ppm)
            .f64("misattr_ppm", self.misattr_ppm)
            .f64("share_shift_ppm", self.share_shift_ppm);
        o.finish()
    }
}

/// Per-period aggregate across every cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodSummary {
    /// Probe period, in nanoseconds.
    pub period_ns: u64,
    /// Mean perturbation across cells, ppm.
    pub mean_perturbation_ppm: f64,
    /// Worst-cell perturbation, ppm.
    pub max_perturbation_ppm: f64,
    /// Mean attribution-error bound across cells, ppm.
    pub mean_misattr_ppm: f64,
    /// Worst-cell attribution-error bound, ppm.
    pub max_misattr_ppm: f64,
    /// Worst-cell per-component share shift, ppm.
    pub max_share_shift_ppm: f64,
}

impl PeriodSummary {
    /// The quantity the recommendation minimizes: the worse of the mean
    /// blind spot and the mean perturbation.
    pub fn score_ppm(&self) -> f64 {
        self.mean_misattr_ppm.max(self.mean_perturbation_ppm)
    }
}

/// The sweep's full outcome: every point, the per-period aggregates and
/// the recommended period.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveReport {
    /// Scenario cells swept.
    pub cells: usize,
    /// The period grid, ascending, in nanoseconds.
    pub periods: Vec<u64>,
    /// One point per (cell, period), cell-major in submission order.
    pub points: Vec<ObservePoint>,
    /// One aggregate per period, grid order.
    pub summaries: Vec<PeriodSummary>,
    /// The period with the lowest [`PeriodSummary::score_ppm`] (ties go to
    /// the shorter period), in nanoseconds.
    pub recommended_ns: u64,
}

impl ObserveReport {
    /// Render the report as schema-stamped JSON (raw energies included so
    /// the CI gate can compare totals without reparsing tables).
    pub fn to_json(&self) -> String {
        let summaries = self.summaries.iter().map(|s| {
            let mut o = JsonObj::new();
            o.u64("period_ns", s.period_ns)
                .f64("mean_perturbation_ppm", s.mean_perturbation_ppm)
                .f64("max_perturbation_ppm", s.max_perturbation_ppm)
                .f64("mean_misattr_ppm", s.mean_misattr_ppm)
                .f64("max_misattr_ppm", s.max_misattr_ppm)
                .f64("max_share_shift_ppm", s.max_share_shift_ppm)
                .f64("score_ppm", s.score_ppm());
            o.finish()
        });
        let mut o = JsonObj::new();
        o.schema_version()
            .str("kind", "observe_report")
            .u64("cells", self.cells as u64)
            .array("periods_ns", self.periods.iter().map(u64::to_string))
            .u64("recommended_ns", self.recommended_ns)
            .array("summaries", summaries)
            .array("points", self.points.iter().map(ObservePoint::to_json));
        o.finish()
    }
}

impl std::fmt::Display for ObserveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "observer-effect sweep: {} cells x {} periods x 2 modes",
            self.cells,
            self.periods.len()
        )?;
        writeln!(f)?;

        // Figure set: one per-cell panel, points in period order.
        let mut seen = Vec::new();
        for point in &self.points {
            if !seen.contains(&&point.cell) {
                seen.push(&point.cell);
            }
        }
        for cell in seen {
            writeln!(f, "[observe] {cell}")?;
            let mut t = Table::new(vec![
                "period".into(),
                "E_t (J)".into(),
                "E_nt (J)".into(),
                "perturb (ppm)".into(),
                "misattr (ppm)".into(),
                "share shift (ppm)".into(),
                "probe cycles".into(),
            ]);
            for p in self.points.iter().filter(|p| p.cell == *cell) {
                t.row(vec![
                    period_label(p.period_ns),
                    format!("{:.6}", p.energy_t_j),
                    format!("{:.6}", p.energy_nt_j),
                    format!("{:.1}", p.perturbation_ppm),
                    format!("{:.1}", p.misattr_ppm),
                    format!("{:.1}", p.share_shift_ppm),
                    p.probe_cycles.to_string(),
                ]);
            }
            writeln!(f, "{t}")?;
        }

        writeln!(f, "[observe] recommendation")?;
        let mut t = Table::new(vec![
            "period".into(),
            "mean perturb (ppm)".into(),
            "max perturb (ppm)".into(),
            "mean misattr (ppm)".into(),
            "max misattr (ppm)".into(),
            "score (ppm)".into(),
            "verdict".into(),
        ]);
        for s in &self.summaries {
            t.row(vec![
                period_label(s.period_ns),
                format!("{:.1}", s.mean_perturbation_ppm),
                format!("{:.1}", s.max_perturbation_ppm),
                format!("{:.1}", s.mean_misattr_ppm),
                format!("{:.1}", s.max_misattr_ppm),
                format!("{:.1}", s.score_ppm()),
                if s.period_ns == self.recommended_ns {
                    "<= recommended".into()
                } else {
                    String::new()
                },
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "recommended probe period: {} (minimizes max of attribution blind spot and observer perturbation)",
            period_label(self.recommended_ns)
        )
    }
}

/// The observer-effect sweep engine (see the module docs): a period grid,
/// swept on the runner [`ObserveEngine::run`] borrows.
#[derive(Debug)]
pub struct ObserveEngine {
    periods: Vec<u64>,
}

impl ObserveEngine {
    /// An engine sweeping `periods` (nanoseconds; deduplicated and
    /// sorted).
    ///
    /// # Panics
    ///
    /// When `periods` is empty or larger than [`MAX_OBSERVE_PERIODS`] —
    /// callers validate grids via [`parse_period_grid`] first.
    pub fn new(periods: Vec<u64>) -> Self {
        let periods: Vec<u64> = periods
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        assert!(
            !periods.is_empty(),
            "observe sweep needs at least one period"
        );
        assert!(
            periods.len() <= MAX_OBSERVE_PERIODS,
            "observe grid exceeds MAX_OBSERVE_PERIODS"
        );
        Self { periods }
    }

    /// Sweep `cells` across the period grid in both modes on `runner`, and
    /// assemble the report. The `observe_*` counts go to the runner's
    /// telemetry hub, and its persistent cache, if any, keeps the cells:
    /// probe specs are part of each entry's key, so transparent and
    /// charged runs never alias. Pass a runner with no fault plan and no
    /// probe override, either of which would rewrite the cells compared.
    ///
    /// # Errors
    ///
    /// A rendered [`crate::ExperimentError`] with its cell identity when
    /// any run fails — partial sweeps would bias the aggregates.
    pub fn run(
        &self,
        runner: &Runner,
        cells: &[ExperimentConfig],
    ) -> Result<ObserveReport, String> {
        let telemetry = runner.telemetry();
        telemetry.count(CounterId::ObserveSweeps, 1);

        // Cell-major, period-minor, transparent before charged: one batch,
        // so the whole grid shares the worker pool.
        let batch: Vec<ExperimentConfig> = cells
            .iter()
            .flat_map(|cell| {
                self.periods.iter().flat_map(|&p| {
                    [
                        cell.clone().with_probe(ProbeSpec::transparent_at(p)),
                        cell.clone().with_probe(ProbeSpec::nontransparent_at(p)),
                    ]
                })
            })
            .collect();
        let results = runner.run_batch(&batch);

        let mut it = results.into_iter();
        let mut next = |cfg: &ExperimentConfig| -> Result<Arc<RunSummary>, String> {
            it.next()
                .expect("one result per submitted config")
                .map_err(|e| format!("{cfg}: {e}"))
        };

        let mut points = Vec::with_capacity(cells.len() * self.periods.len());
        for cell in cells {
            for &period_ns in &self.periods {
                let t = next(cell)?;
                let nt = next(cell)?;
                telemetry.count(CounterId::ObservePoints, 2);
                let us = period_ns / 1_000;
                telemetry.observe(HistId::ProbePeriodUs, us);
                telemetry.observe(HistId::ProbePeriodUs, us);
                points.push(Self::point(cell, period_ns, &t, &nt));
            }
        }

        let summaries: Vec<PeriodSummary> = self
            .periods
            .iter()
            .map(|&period_ns| {
                let at: Vec<&ObservePoint> =
                    points.iter().filter(|p| p.period_ns == period_ns).collect();
                let n = at.len().max(1) as f64;
                let mean =
                    |f: &dyn Fn(&ObservePoint) -> f64| at.iter().map(|p| f(p)).sum::<f64>() / n;
                let max = |f: &dyn Fn(&ObservePoint) -> f64| {
                    at.iter().map(|p| f(p)).fold(0.0f64, f64::max)
                };
                PeriodSummary {
                    period_ns,
                    mean_perturbation_ppm: mean(&|p| p.perturbation_ppm),
                    max_perturbation_ppm: max(&|p| p.perturbation_ppm),
                    mean_misattr_ppm: mean(&|p| p.misattr_ppm),
                    max_misattr_ppm: max(&|p| p.misattr_ppm),
                    max_share_shift_ppm: max(&|p| p.share_shift_ppm),
                }
            })
            .collect();

        // Ascending grid + strict `<` keep ties on the shorter period.
        let recommended_ns = summaries
            .iter()
            .fold(None::<&PeriodSummary>, |best, s| match best {
                Some(b) if b.score_ppm() <= s.score_ppm() => Some(b),
                _ => Some(s),
            })
            .expect("at least one period")
            .period_ns;

        Ok(ObserveReport {
            cells: cells.len(),
            periods: self.periods.clone(),
            points,
            summaries,
            recommended_ns,
        })
    }

    /// Extract one point from a transparent/charged run pair.
    fn point(
        cell: &ExperimentConfig,
        period_ns: u64,
        t: &RunSummary,
        nt: &RunSummary,
    ) -> ObservePoint {
        let e_t = t.report.total_energy.joules();
        let e_nt = nt.report.total_energy.joules();
        let perturbation_ppm = if e_t > 0.0 {
            (e_nt - e_t) / e_t * 1e6
        } else {
            0.0
        };
        let misattr_ppm = t.report.probe.attribution_error_bound(e_t) * 1e6;

        let share = |run: &RunSummary, c: ComponentId| -> f64 {
            let total = run.report.total_energy.joules();
            if total <= 0.0 {
                return 0.0;
            }
            run.report
                .components
                .get(&c)
                .map_or(0.0, |p| (p.energy.joules() + p.mem_energy.joules()) / total)
        };
        let touched: BTreeSet<ComponentId> = t
            .report
            .components
            .keys()
            .chain(nt.report.components.keys())
            .copied()
            .collect();
        let share_shift_ppm = touched
            .iter()
            .map(|&c| (share(nt, c) - share(t, c)).abs() * 1e6)
            .fold(0.0f64, f64::max);

        ObservePoint {
            cell: cell.clone(),
            period_ns,
            energy_t_j: e_t,
            energy_nt_j: e_nt,
            probe_cycles: nt.report.probe.cycles_paid,
            perturbation_ppm,
            misattr_ppm,
            share_shift_ppm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_heap::CollectorKind;
    use vmprobe_telemetry::Telemetry;
    use vmprobe_workloads::InputScale;

    #[test]
    fn period_literals_parse_with_units() {
        assert_eq!(parse_period("4us").unwrap(), 4_000);
        assert_eq!(parse_period("4ms").unwrap(), 4_000_000);
        assert_eq!(parse_period("40000ns").unwrap(), 40_000);
        assert!(parse_period("4").is_err(), "suffix required");
        assert!(parse_period("4s").is_err());
        assert!(parse_period("999ns").is_err(), "below floor");
        assert!(parse_period("101ms").is_err(), "above ceiling");
        assert!(parse_period("4.5us").is_err(), "integers only");
    }

    #[test]
    fn decade_range_expands_times_ten() {
        assert_eq!(
            parse_period_grid("4us..4ms").unwrap(),
            vec![4_000, 40_000, 400_000, 4_000_000]
        );
        // A non-decade end is included as its own point.
        assert_eq!(
            parse_period_grid("4us..5ms").unwrap(),
            vec![4_000, 40_000, 400_000, 4_000_000, 5_000_000]
        );
        assert_eq!(parse_period_grid("40us").unwrap(), vec![40_000]);
        assert_eq!(
            parse_period_grid("40us,4us,40us").unwrap(),
            vec![4_000, 40_000],
            "duplicates collapse, sorted ascending"
        );
        assert!(parse_period_grid("4ms..4us").is_err(), "inverted");
        assert!(parse_period_grid("").is_err());
        assert_eq!(
            parse_period_grid("1us..100ms").unwrap().len(),
            6,
            "the full legal span is still under the cap"
        );
        assert!(
            parse_period_grid("1us,2us,3us,4us,5us,6us,7us,8us,9us").is_err(),
            "nine points blow the cap"
        );
    }

    #[test]
    fn period_labels_pick_the_largest_whole_unit() {
        assert_eq!(period_label(4_000), "4us");
        assert_eq!(period_label(4_000_000), "4ms");
        assert_eq!(period_label(1_500), "1500ns");
        assert_eq!(period_label(400_000), "400us");
    }

    fn quick_cell() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::jikes("search", CollectorKind::SemiSpace, 32);
        cfg.scale = InputScale::Reduced;
        cfg
    }

    #[test]
    fn sweep_reports_positive_perturbation_and_recommends_a_grid_period() {
        // Periods shorter than the (reduced-scale) run: a grid point
        // longer than the run samples nothing and reads 0 J in both modes.
        let engine = ObserveEngine::new(vec![4_000, 400_000]);
        let report = engine
            .run(&Runner::new(), &[quick_cell()])
            .expect("sweep runs");
        assert_eq!(report.cells, 1);
        assert_eq!(report.points.len(), 2);
        assert!(report.periods.contains(&report.recommended_ns));
        for p in &report.points {
            assert!(
                p.energy_nt_j > p.energy_t_j,
                "charged probes must raise total energy at {}",
                period_label(p.period_ns)
            );
            assert!(p.perturbation_ppm > 0.0);
            assert!(p.probe_cycles > 0);
        }
        // Faster sampling pays more probe work.
        assert!(report.points[0].perturbation_ppm > report.points[1].perturbation_ppm);
        let json = report.to_json();
        assert!(json.contains("\"kind\":\"observe_report\""));
        assert!(json.contains("\"recommended_ns\":"));
        let text = report.to_string();
        assert!(text.contains("recommended probe period:"));
        assert!(text.contains("<= recommended"));
    }

    #[test]
    fn sweep_is_jobs_independent_and_counts_points() {
        let t1 = Telemetry::recording();
        let engine = ObserveEngine::new(vec![40_000, 400_000]);
        let a = engine
            .run(&Runner::new().with_telemetry(t1.clone()), &[quick_cell()])
            .expect("jobs=1");
        let b = engine
            .run(&Runner::new().jobs(8), &[quick_cell()])
            .expect("jobs=8");
        assert_eq!(a.to_json(), b.to_json(), "byte-identical across jobs");
        assert_eq!(t1.counter(CounterId::ObserveSweeps), 1);
        assert_eq!(t1.counter(CounterId::ObservePoints), 4);
        assert!(t1.counter(CounterId::ProbeCyclesPaid) > 0);
    }
}

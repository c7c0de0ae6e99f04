//! The two cold sweeps at golden scope: their cells in submission
//! order, their figures, the golden check and the simulated-statistics
//! digest.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use vmprobe::{figures, ExperimentCache, ExperimentConfig, RunSummary, Runner, Sink, Telemetry};
use vmprobe_heap::CollectorKind;
use vmprobe_workloads::InputScale;

/// The quick scope of `tests/golden_figures.rs`: full grid shape,
/// reduced inputs.
pub const BENCHMARKS: [&str; 4] = ["_213_javac", "_209_db", "fop", "moldyn"];
pub const HEAPS: [u32; 2] = [32, 64];
pub const PXA_HEAPS: [u32; 2] = [16, 32];

/// One of the two cold batch sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Jikes RVM at jobs 2: the quick fig7 grid (fig6 and fig8 render
    /// from the same runner), then the full-scope fig1 cell, the one
    /// golden cell whose inputs are large enough to reach the Opt tier.
    Jikes,
    /// Kaffe at jobs 1: quick fig9 + fig10 on the P6, then fig11 on
    /// the PXA255.
    Kaffe,
}

/// One rendered figure.
#[derive(Debug, Clone)]
pub struct Rendered {
    pub name: &'static str,
    pub text: String,
}

/// The runners a sweep renders on, sharing one cache: `quick` forces
/// reduced inputs (the quick golden scope), `full` runs configurations
/// as given (the full golden scope).
pub struct Runners {
    pub quick: Runner,
    pub full: Runner,
}

impl Runners {
    /// Route a cell to the runner that owns its scale.
    fn for_cell(&mut self, cfg: &ExperimentConfig) -> &mut Runner {
        match cfg.scale {
            InputScale::Reduced => &mut self.quick,
            InputScale::Full => &mut self.full,
        }
    }

    /// Distinct cells the runners could not fill.
    pub fn failed_cells(&self) -> u64 {
        (self.quick.report().failed_cells.len() + self.full.report().failed_cells.len()) as u64
    }

    /// Resolve `cells` in order, one call per cell.
    pub fn resolve(&mut self, cells: &[ExperimentConfig]) -> Vec<Result<Arc<RunSummary>, String>> {
        cells
            .iter()
            .map(|c| self.for_cell(c).run(c).map_err(|e| e.to_string()))
            .collect()
    }
}

impl Sweep {
    pub fn jobs(self) -> usize {
        match self {
            Sweep::Jikes => 2,
            Sweep::Kaffe => 1,
        }
    }

    /// Every distinct cell, in the order the sweep submits it, at the
    /// scale it runs at (so `key()` matches the runner's keys).
    pub fn cells(self) -> Vec<ExperimentConfig> {
        let mut cells = Vec::new();
        match self {
            Sweep::Jikes => {
                for b in BENCHMARKS {
                    for c in CollectorKind::jikes_collectors() {
                        for h in HEAPS {
                            cells.push(quick(ExperimentConfig::jikes(b, c, h)));
                        }
                    }
                }
                cells.push(ExperimentConfig::jikes(
                    "_222_mpegaudio",
                    CollectorKind::GenCopy,
                    64,
                ));
            }
            Sweep::Kaffe => {
                for b in BENCHMARKS {
                    for h in HEAPS {
                        cells.push(quick(ExperimentConfig::kaffe(b, h)));
                    }
                }
                for b in BENCHMARKS {
                    for h in PXA_HEAPS {
                        cells.push(quick(ExperimentConfig::kaffe_pxa(b, h)));
                    }
                }
            }
        }
        cells
    }

    /// The sweep's runners over `cache`, each with `telemetry` attached.
    pub fn runners(self, cache: &Arc<ExperimentCache>, telemetry: Option<Telemetry>) -> Runners {
        let make = |scale: Option<InputScale>| {
            let mut r = Runner::new()
                .jobs(self.jobs())
                .with_cache(Arc::clone(cache));
            if let Some(s) = scale {
                r = r.scale(s);
            }
            if let Some(t) = &telemetry {
                r = r.with_telemetry(t.clone()).verbose(true);
            }
            r
        };
        Runners {
            quick: make(Some(InputScale::Reduced)),
            full: make(None),
        }
    }

    /// Render the sweep's figures in the sweep's order, calling
    /// `returned` as each figure function returns (before its text is
    /// rendered).
    pub fn render(
        self,
        r: &mut Runners,
        returned: &mut dyn FnMut(),
    ) -> Result<Vec<Rendered>, String> {
        let err = |e: vmprobe::ExperimentError| e.to_string();
        let mut out = Vec::new();
        match self {
            Sweep::Jikes => {
                let f7 = figures::fig7(&mut r.quick, &BENCHMARKS, &HEAPS).map_err(err)?;
                returned();
                out.push(rendered("fig7", &f7));
                let f6 = figures::fig6(&mut r.quick, &BENCHMARKS, &HEAPS).map_err(err)?;
                returned();
                out.push(rendered("fig6", &f6));
                let f8 = figures::fig8(&mut r.quick, &BENCHMARKS, &HEAPS).map_err(err)?;
                returned();
                out.push(rendered("fig8", &f8));
                let f1 = figures::fig1(&mut r.full).map_err(err)?;
                returned();
                out.push(rendered("fig1", &f1));
            }
            Sweep::Kaffe => {
                let f9 = figures::fig9(&mut r.quick, &BENCHMARKS, &HEAPS).map_err(err)?;
                returned();
                out.push(rendered("fig9", &f9));
                let f10 = figures::fig10(&mut r.quick, &BENCHMARKS, &HEAPS).map_err(err)?;
                returned();
                out.push(rendered("fig10", &f10));
                let f11 = figures::fig11(&mut r.quick, &BENCHMARKS, &PXA_HEAPS).map_err(err)?;
                returned();
                out.push(rendered("fig11", &f11));
            }
        }
        Ok(out)
    }
}

fn quick(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.scale = InputScale::Reduced;
    cfg
}

fn rendered(name: &'static str, fig: &dyn std::fmt::Display) -> Rendered {
    Rendered {
        name,
        text: fig.to_string(),
    }
}

/// The committed golden for a figure, and its path.
fn golden(name: &str) -> Option<(&'static str, &'static str)> {
    Some(match name {
        "fig1" => (
            include_str!("../../tests/golden/full/fig1.txt"),
            "tests/golden/full/fig1.txt",
        ),
        "fig6" => (
            include_str!("../../tests/golden/quick/fig6.txt"),
            "tests/golden/quick/fig6.txt",
        ),
        "fig7" => (
            include_str!("../../tests/golden/quick/fig7.txt"),
            "tests/golden/quick/fig7.txt",
        ),
        "fig8" => (
            include_str!("../../tests/golden/quick/fig8.txt"),
            "tests/golden/quick/fig8.txt",
        ),
        "fig9" => (
            include_str!("../../tests/golden/quick/fig9.txt"),
            "tests/golden/quick/fig9.txt",
        ),
        "fig10" => (
            include_str!("../../tests/golden/quick/fig10.txt"),
            "tests/golden/quick/fig10.txt",
        ),
        "fig11" => (
            include_str!("../../tests/golden/quick/fig11.txt"),
            "tests/golden/quick/fig11.txt",
        ),
        _ => return None,
    })
}

/// Compare every rendered figure with its golden, under the rule of the
/// repository's golden test (a trailing-newline trim). Returns one
/// message per mismatch.
pub fn check_goldens(figs: &[Rendered]) -> Vec<String> {
    figs.iter()
        .filter_map(|f| match golden(f.name) {
            Some((g, _)) if g.trim_end() == f.text.trim_end() => None,
            Some((_, path)) => Some(format!("{} differs from {path}", f.name)),
            None => Some(format!("{} has no golden", f.name)),
        })
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a digest of simulated statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Fold in one cell: its report, GC, VM and compiler statistics and
    /// its checksum. `Debug` prints every `f64` in shortest round-trip
    /// form and every map in key order, so equal statistics hash equal.
    pub fn add(&mut self, s: &RunSummary) {
        let text = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            s.report, s.gc, s.vm, s.compiler, s.result_checksum
        );
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn of<'a>(summaries: impl IntoIterator<Item = &'a RunSummary>) -> Self {
        let mut d = Digest::default();
        for s in summaries {
            d.add(s);
        }
        d
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Log sink that keeps the instant and worker thread of each cell start
/// (the runner's verbose `running …` line).
#[derive(Debug, Default)]
pub struct CellStarts(Mutex<Vec<(Instant, ThreadId)>>);

/// Boxable handle onto a shared [`CellStarts`].
#[derive(Debug)]
struct StartSink(Arc<CellStarts>);

impl Sink for StartSink {
    fn log(&self, line: &str) {
        if line.starts_with("running ") {
            let now = Instant::now();
            self.0
                 .0
                .lock()
                .expect("start log is never poisoned")
                .push((now, std::thread::current().id()));
        }
    }
}

impl CellStarts {
    /// A telemetry hub that feeds this log.
    pub fn telemetry(self: &Arc<Self>) -> Telemetry {
        Telemetry::with_sink(false, Box::new(StartSink(Arc::clone(self))))
    }

    /// Per-cell host latencies of one figure call that returned at
    /// `end`: a cell lasts until the next start on the same worker. When
    /// one thread ran the whole call, its last cell ends at `end`; with
    /// several workers the last cell of each has no visible end and is
    /// left out.
    pub fn take_latencies(&self, end: Instant) -> Vec<f64> {
        let starts = std::mem::take(&mut *self.0.lock().expect("start log is never poisoned"));
        let mut per_worker: Vec<(ThreadId, Vec<Instant>)> = Vec::new();
        for (at, id) in starts {
            match per_worker.iter_mut().find(|(w, _)| *w == id) {
                Some((_, list)) => list.push(at),
                None => per_worker.push((id, vec![at])),
            }
        }
        let sole = per_worker.len() == 1;
        let mut out = Vec::new();
        for (_, mut list) in per_worker {
            list.sort();
            out.extend(list.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()));
            if let (true, Some(&last)) = (sole, list.last()) {
                out.push((end - last).as_secs_f64());
            }
        }
        out
    }
}

/// Remove `dir` if present and open a fresh, empty cache there.
pub fn fresh_cache(dir: &Path) -> Result<Arc<ExperimentCache>, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    ExperimentCache::open(dir)
        .map(Arc::new)
        .map_err(|e| format!("cannot open cache {}: {e}", dir.display()))
}

/// Mean size of the cache entries under `dir`, in KiB.
pub fn mean_entry_kb(dir: &Path) -> f64 {
    let sizes: Vec<u64> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "entry"))
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .collect()
        })
        .unwrap_or_default();
    if sizes.is_empty() {
        0.0
    } else {
        sizes.iter().sum::<u64>() as f64 / sizes.len() as f64 / 1024.0
    }
}

/// Every cell of `sweep` from runners whose memos already hold them
/// (nothing executes), in submission order.
pub fn summaries(sweep: Sweep, r: &mut Runners) -> Result<Vec<Arc<RunSummary>>, String> {
    r.resolve(&sweep.cells()).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_at(jobs: usize, cells: &[ExperimentConfig]) -> Digest {
        let mut r = Runner::new().jobs(jobs);
        let sums: Vec<_> = r
            .run_batch(cells)
            .into_iter()
            .map(|s| s.expect("cell runs"))
            .collect();
        Digest::of(sums.iter().map(Arc::as_ref))
    }

    #[test]
    fn sim_digest_is_the_same_at_jobs_1_and_2() {
        let cells: Vec<ExperimentConfig> = Sweep::Kaffe.cells().into_iter().step_by(5).collect();
        assert!(cells.len() >= 3);
        let one = digest_at(1, &cells);
        assert_eq!(one, digest_at(2, &cells));
        // …and it sees the cells: reordering them moves it.
        let mut reversed = cells.clone();
        reversed.reverse();
        assert_ne!(one, digest_at(1, &reversed));
    }

    #[test]
    fn sweeps_submit_distinct_cells_with_goldens_for_every_figure() {
        for sweep in [Sweep::Jikes, Sweep::Kaffe] {
            let keys: std::collections::BTreeSet<String> =
                sweep.cells().iter().map(ExperimentConfig::key).collect();
            assert_eq!(keys.len(), sweep.cells().len(), "{sweep:?}");
        }
        for name in ["fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"] {
            assert!(golden(name).is_some(), "{name}");
        }
    }

    #[test]
    fn a_sole_worker_closes_its_last_cell_at_the_call_end() {
        let log = Arc::new(CellStarts::default());
        let sink = StartSink(Arc::clone(&log));
        sink.log("running a");
        sink.log("quarantined b");
        sink.log("running c");
        let lat = log.take_latencies(Instant::now());
        assert_eq!(lat.len(), 2, "two cells, one thread");
        assert!(log.take_latencies(Instant::now()).is_empty(), "log drained");
    }
}

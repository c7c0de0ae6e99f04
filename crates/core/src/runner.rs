//! Supervised, cached, parallel experiment execution.
//!
//! Several of the paper's figures draw on the same underlying runs (the
//! SemiSpace sweep feeds both the Figure 6 decomposition and the Figure 7
//! EDP curves), and real measurement campaigns lose cells to rig faults.
//! The [`Runner`] therefore does five jobs:
//!
//! * **memoize** — runs are fully deterministic, so each configuration is
//!   paid for exactly once per process, enforced by a concurrent memo
//!   ([`crate::sweep::Memo`]) even when many workers race for the same
//!   cell;
//! * **parallelize** — figure sweeps submit their whole grid as one batch
//!   and a one-queue pool ([`crate::sweep::SweepPool`]) hands the
//!   independent heap ladders to [`Runner::jobs`] workers;
//! * **share** — a fault-free run that never took a heap-size-dependent
//!   branch answers every larger heap of its ladder (DESIGN.md §18);
//! * **supervise** — a failing configuration runs once and is then
//!   **quarantined**: its cell is a pure function of the configuration and
//!   its derived fault plan, so a rerun would fail the same way; the
//!   failure is cached negatively and the config is never executed again;
//! * **account** — every run's injected-fault ledger and every quarantined
//!   or failed cell is aggregated into a machine-readable [`RunReport`].
//!
//! # Determinism contract
//!
//! Batch results and the `RunReport` are **bit-identical regardless of
//! thread count**: cells are pure functions of their configuration (fault
//! seeds are derived per cell from the master seed and the cell key, see
//! [`crate::ExperimentConfig::derive_plan`]), duplicate cells are resolved
//! to their first occurrence *before* dispatch, and all report mutation
//! happens on the calling thread in batch submission order after the pool
//! drains. Only `verbose` stderr diagnostics may interleave differently.
//! Batches submitted concurrently through one shared runner (the serving
//! daemon's executor and its readers) each merge in their own submission
//! order; the report then interleaves them in arrival order.
//!
//! Fault plans are attached at the runner level: a default plan applies to
//! every configuration, and per-benchmark overrides let one benchmark fail
//! persistently (the paper-sweep robustness scenario) while the rest of the
//! sweep completes.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vmprobe_power::{FaultPlan, FaultStats, ProbeSpec};
use vmprobe_telemetry::{CounterId, HistId, HostSpanGuard, StderrSink, Telemetry};
use vmprobe_vm::VmError;
use vmprobe_workloads::InputScale;

use crate::cache::{CacheLookup, ExperimentCache};
use crate::json::JsonObj;
use crate::sweep::{lock_unpoisoned, Memo, SweepPool};
use crate::{ExperimentConfig, ExperimentError, RunSummary};

/// What the memo publishes per cell: the shared summary, or the failure
/// that quarantined it, which every later request replays as
/// [`ExperimentError::Quarantined`] without executing anything.
type CellResult = Result<Arc<RunSummary>, ExperimentError>;

/// How the persistent cache participated in resolving one cell.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum CacheProbe {
    /// No cache attached.
    #[default]
    None,
    /// Restored from a valid entry; compute was skipped.
    Hit,
    /// Probe found nothing usable; the cell was computed.
    Miss,
    /// Probe found a damaged entry; the cell was recomputed.
    Corrupt,
}

/// Everything one *resolving* cell contributes to the campaign report
/// (computed on a worker, or restored there from the persistent cache).
/// Produced on a worker thread, merged on the calling thread in batch
/// submission order.
#[derive(Debug, Default)]
struct ExecutionRecord {
    /// Host wall-clock time the cell's run took (telemetry
    /// [`HistId::CellHostUs`]; excluded from golden comparisons).
    host_us: u64,
    injected_oom: u64,
    budget_exhausted: u64,
    /// Fault ledger of the successful run, when there was one.
    success_faults: Option<FaultStats>,
    quarantined: Option<QuarantinedConfig>,
    /// Persistent-cache involvement (probed once per unique key, inside
    /// the memo's in-flight window, so the derived counters are
    /// deterministic across worker counts).
    cache_probe: CacheProbe,
    /// A freshly computed summary was published to the cache (a write
    /// that failed leaves this false).
    cache_stored: bool,
    /// The summary is a smaller heap's run, relabelled (not simulated).
    shared: bool,
}

/// One cell a tolerant figure sweep could not fill.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct FailedCell {
    /// Benchmark name.
    pub benchmark: String,
    /// Heap label in MB.
    pub heap_mb: u32,
    /// VM / collector label.
    pub vm: String,
    /// Platform short name (`p6` or `pxa255`).
    pub platform: String,
    /// Rendered error.
    pub error: String,
}

impl FailedCell {
    fn new(config: &ExperimentConfig, error: &ExperimentError) -> Self {
        FailedCell {
            benchmark: config.benchmark.clone(),
            heap_mb: config.heap_mb,
            vm: config.vm.to_string(),
            platform: config.platform.name().to_string(),
            error: error.to_string(),
        }
    }
}

impl std::fmt::Display for FailedCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[failed] {} on {} @ {} MB ({}): {}",
            self.benchmark, self.vm, self.heap_mb, self.platform, self.error
        )
    }
}

/// A configuration the runner refuses to execute again.
#[derive(Debug, Clone, serde::Serialize)]
pub struct QuarantinedConfig {
    /// Rendered configuration.
    pub config: String,
    /// Benchmark name (for grouping).
    pub benchmark: String,
    /// Rendered form of the last error.
    pub last_error: String,
}

/// Machine-readable account of a measurement campaign: what ran, what was
/// quarantined, and every injected fault.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct RunReport {
    /// Distinct configurations that completed successfully.
    pub runs_ok: u64,
    /// Times a quarantined configuration was requested again (and refused).
    pub quarantine_hits: u64,
    /// Configurations under quarantine.
    pub quarantined: Vec<QuarantinedConfig>,
    /// Cells tolerant figure sweeps could not fill (deduplicated).
    pub failed_cells: Vec<FailedCell>,
    /// Injected-fault ledger merged across every successful run, plus
    /// forced-fault counts (`injected_oom`, `budget_exhausted`) from failed
    /// runs.
    pub faults: FaultStats,
}

impl RunReport {
    /// Serialize to a JSON object (hand-rolled; the build is offline).
    pub fn to_json(&self) -> String {
        let f = &self.faults;
        let mut faults = JsonObj::new();
        faults
            .u64("samples_total", f.samples_total)
            .u64("samples_dropped", f.samples_dropped)
            .u64("samples_duplicated", f.samples_duplicated)
            .u64("port_glitches", f.port_glitches)
            .u64("wraps_unwrapped", f.wraps_unwrapped)
            .u64("injected_oom", f.injected_oom)
            .u64("budget_exhausted", f.budget_exhausted)
            .f64("dropped_energy_j", f.dropped_energy_j)
            .f64("duplicated_energy_j", f.duplicated_energy_j)
            .f64("noise_abs_j", f.noise_abs_j)
            .f64("drift_abs_j", f.drift_abs_j)
            .f64("misattributed_energy_j", f.misattributed_energy_j)
            .f64("energy_error_bound_j", f.energy_error_bound_j());

        let quarantined = self.quarantined.iter().map(|q| {
            let mut o = JsonObj::new();
            o.str("config", &q.config)
                .str("benchmark", &q.benchmark)
                .str("last_error", &q.last_error);
            o.finish()
        });
        let failed = self.failed_cells.iter().map(|c| {
            let mut o = JsonObj::new();
            o.str("benchmark", &c.benchmark)
                .u64("heap_mb", u64::from(c.heap_mb))
                .str("vm", &c.vm)
                .str("platform", &c.platform)
                .str("error", &c.error);
            o.finish()
        });

        let mut o = JsonObj::new();
        o.schema_version()
            .u64("runs_ok", self.runs_ok)
            .u64("quarantine_hits", self.quarantine_hits)
            .array("quarantined", quarantined)
            .array("failed_cells", failed)
            .raw("faults", &faults.finish());
        o.finish()
    }
}

/// The campaign report and the cells already listed in its
/// `failed_cells`, under the runner's one lock.
#[derive(Debug, Default)]
struct Ledger {
    report: RunReport,
    /// [`ExperimentConfig::key`]s already listed in `failed_cells`.
    seen_failed_cells: HashSet<String>,
}

/// Supervised memoizing parallel experiment runner (see the module docs).
///
/// Running takes `&self`, so every thread of a process shares one runner
/// by reference: the serving daemon's executor and its connection readers
/// resolve cells through the same memo, cache and report. Figure entry
/// points take `&mut Runner`.
#[derive(Debug, Default)]
pub struct Runner {
    memo: Memo<CellResult>,
    jobs: usize,
    default_faults: FaultPlan,
    overrides: HashMap<String, FaultPlan>,
    scale_override: Option<InputScale>,
    probe_override: Option<ProbeSpec>,
    ledger: Mutex<Ledger>,
    verbose: bool,
    contain_panics: bool,
    telemetry: Telemetry,
    cache: Option<Arc<ExperimentCache>>,
}

impl Runner {
    /// A fresh runner: empty cache, no fault plan, one worker.
    pub fn new() -> Self {
        Self {
            jobs: 1,
            ..Self::default()
        }
    }

    /// Log each executed configuration (and each quarantine decision) as
    /// a telemetry log event. When no telemetry hub is attached yet, a
    /// counters-only hub with a stderr sink is installed so the lines
    /// still reach a human — whole lines under a lock, never interleaved,
    /// replacing the raw `eprintln!` diagnostics this runner used to emit.
    pub fn verbose(mut self, on: bool) -> Self {
        self.verbose = on;
        if on && !self.telemetry.is_enabled() {
            self = self.with_telemetry(Telemetry::with_sink(false, Box::new(StderrSink::new())));
        }
        self
    }

    /// Attach a telemetry hub: every batch, cell, quarantine and
    /// in-flight memo wait is counted, executed-cell span streams are
    /// collected (when the hub records spans), and verbose diagnostics
    /// route through the hub's sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.memo.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// The runner's telemetry handle (disabled unless
    /// [`Runner::with_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Layer a persistent [`ExperimentCache`] under the in-process memo:
    /// each unique cell probes the cache exactly once before computing
    /// (hits skip the run entirely) and writes its freshly computed
    /// summary through, so an interrupted sweep resumed with the same
    /// cache directory recomputes only the missing cells. Restored cells
    /// merge in submission order like every other cell, preserving the
    /// jobs=1 ≡ jobs=N byte-identity contract.
    pub fn with_cache(mut self, cache: Arc<ExperimentCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached persistent cache, if any.
    pub fn cache(&self) -> Option<&Arc<ExperimentCache>> {
        self.cache.as_ref()
    }

    /// Open a host-clock span for a figure phase on the `runner` track
    /// (records when the returned guard drops) and count it.
    pub fn phase(&self, name: &str) -> HostSpanGuard {
        self.telemetry.count(CounterId::PhasesStarted, 1);
        self.telemetry.host_span("runner", name)
    }

    /// Run batches on `jobs` worker threads (clamped to at least 1).
    /// Results are bit-identical for any value — see the module docs.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Apply `plan` to every configuration this runner executes. Each cell
    /// derives its own independent fault stream from the plan's seed and
    /// the cell key, so results do not depend on sweep composition or
    /// execution order.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.default_faults = plan;
        self
    }

    /// Override the fault plan for one benchmark (e.g. force `oom@N` on a
    /// single benchmark to model a persistently failing workload while the
    /// rest of the sweep stays on the default plan).
    pub fn fault_override(mut self, benchmark: &str, plan: FaultPlan) -> Self {
        self.overrides.insert(benchmark.to_owned(), plan);
        self
    }

    /// Catch panics from individual cell runs and convert them into
    /// [`ExperimentError::Panicked`], which then quarantines the cell like
    /// any other failure instead of aborting the whole batch.
    ///
    /// Off by default: batch sweeps *want* a panicking cell to abort the
    /// figure loudly. The serving daemon turns this on so one tenant's
    /// pathological request can never take down the worker pool or the
    /// other tenants' in-flight batches.
    pub fn contain_panics(mut self, on: bool) -> Self {
        self.contain_panics = on;
        self
    }

    /// Force every configuration to the given input scale. A test/CI knob:
    /// the determinism suite sweeps the full figure grids at `Reduced`
    /// scale to keep wall-clock sane without shrinking the grid shape.
    pub fn scale(mut self, scale: InputScale) -> Self {
        self.scale_override = Some(scale);
        self
    }

    /// Force every configuration onto the given measurement-probe spec
    /// (the observer-effect sweep and the `--telemetry-overhead` probe-tax
    /// pass set this instead of rewriting each submitted config). Probed
    /// and unprobed variants of the same cell keep distinct memo/cache
    /// keys, so an override never contaminates transparent results.
    pub fn with_probe_override(mut self, probe: ProbeSpec) -> Self {
        self.probe_override = Some(probe);
        self
    }

    /// One submitted cell as executed, with its master plan and its
    /// memo/cache key.
    ///
    /// The scale and probe overrides apply, and span recording is switched
    /// on when the attached hub keeps span streams. `plan`, when given,
    /// replaces the runner-level plan (the default, or the benchmark's
    /// override). The key is the config key alone when the plan injects
    /// nothing, else the config key suffixed with the canonical plan spec:
    /// per-request plans (the serving daemon) and runner-level plans share
    /// keys whenever the resulting master plan is identical, so tenants hit
    /// each other's cache entries exactly when their requests are
    /// equivalent.
    fn resolve(
        &self,
        config: &ExperimentConfig,
        plan: Option<FaultPlan>,
    ) -> (ExperimentConfig, FaultPlan, String) {
        let mut c = config.clone();
        if let Some(scale) = self.scale_override {
            c.scale = scale;
        }
        if let Some(probe) = self.probe_override {
            c.probe = probe;
        }
        c.record_spans |= self.telemetry.spans_enabled();
        let master = plan.unwrap_or_else(|| {
            self.overrides
                .get(&c.benchmark)
                .copied()
                .unwrap_or(self.default_faults)
        });
        let key = if master.is_none() {
            c.key()
        } else {
            format!("{}|faults:{}", c.key(), master)
        };
        (c, master, key)
    }

    /// The successful summary for `config` under `plan` (as in
    /// [`Runner::run_batch_with_plans`]) when it can be had without
    /// simulating: a memo hit, counted as `cells_from_cache`, or else a
    /// valid persistent-cache entry, published to the memo and accounted
    /// exactly as a batch accounts a cell it restores.
    ///
    /// Never waits: `None` at once when the cell is in flight elsewhere,
    /// memoized as a quarantined failure, or not restorable. Those cases
    /// count nothing, and a cache miss or damaged entry leaves the key to
    /// a batch's one counted probe.
    pub fn restore(
        &self,
        config: &ExperimentConfig,
        plan: Option<FaultPlan>,
    ) -> Option<Arc<RunSummary>> {
        let (_, _, key) = self.resolve(config, plan);
        let mut restored = None;
        let value = self.memo.try_get_or_compute(&key, || {
            let cache = self.cache.as_ref()?;
            let started = Instant::now();
            let CacheLookup::Hit(summary) = cache.lookup(&key) else {
                return None;
            };
            restored = Some(hit_record(&summary, started));
            Some(Ok(summary))
        })?;
        match restored {
            Some(rec) => self.account(&key, rec, &value),
            None if value.is_ok() => self.telemetry.count(CounterId::CellsFromCache, 1),
            None => {}
        }
        value.ok()
    }

    /// Run `config` (or return the cached result), quarantining it if it
    /// fails.
    ///
    /// # Errors
    ///
    /// The underlying [`ExperimentError`] when the run fails;
    /// [`ExperimentError::Quarantined`] (without executing anything) on
    /// every subsequent request for that configuration.
    pub fn run(&self, config: &ExperimentConfig) -> Result<Arc<RunSummary>, ExperimentError> {
        self.run_batch(std::slice::from_ref(config))
            .pop()
            .expect("one result per submitted config")
    }

    /// Execute a whole batch of cells, in parallel on the runner's
    /// configured worker count, and return one result per submitted
    /// configuration **in submission order**.
    ///
    /// Duplicate configurations are resolved to their first occurrence
    /// before dispatch, so no cell is ever executed twice; cells already
    /// in the memo (from earlier sweeps) are served from cache. Report
    /// accounting is merged in submission order after the pool drains,
    /// making the [`RunReport`] independent of thread count.
    pub fn run_batch(
        &self,
        configs: &[ExperimentConfig],
    ) -> Vec<Result<Arc<RunSummary>, ExperimentError>> {
        let batch: Vec<(ExperimentConfig, Option<FaultPlan>)> =
            configs.iter().map(|c| (c.clone(), None)).collect();
        self.run_batch_with_plans(&batch)
    }

    /// [`Runner::run_batch`] with an explicit master fault plan
    /// per cell: `Some(plan)` replaces the runner-level default/override
    /// resolution for that cell only (per-cell seed derivation still
    /// applies), `None` behaves exactly like `run_batch`.
    ///
    /// This is the serving daemon's entry point — each tenant request may
    /// carry its own fault plan, at a finer granularity than the runner's
    /// per-benchmark overrides can express.
    pub fn run_batch_with_plans(
        &self,
        batch: &[(ExperimentConfig, Option<FaultPlan>)],
    ) -> Vec<Result<Arc<RunSummary>, ExperimentError>> {
        let cells: Vec<(ExperimentConfig, FaultPlan, String)> = batch
            .iter()
            .map(|(c, plan)| self.resolve(c, *plan))
            .collect();

        // First occurrence of each key; only unresolved first occurrences
        // are dispatched to the pool, one task per heap ladder.
        let mut first: HashMap<&str, usize> = HashMap::new();
        let mut ladders: Vec<Vec<usize>> = Vec::new();
        let mut ladder_of: HashMap<String, usize> = HashMap::new();
        for (i, (config, master, key)) in cells.iter().enumerate() {
            if first.contains_key(key.as_str()) {
                continue;
            }
            first.insert(key, i);
            if self.memo.peek(key).is_some() {
                continue;
            }
            // Derived fault streams hash the heap (`fault_key`), so only
            // fault-free cells can share a run.
            if !master.is_none() {
                ladders.push(vec![i]);
                continue;
            }
            let rungless = ExperimentConfig {
                heap_mb: 0,
                ..config.clone()
            };
            match ladder_of.entry(rungless.key()) {
                Entry::Occupied(e) => ladders[*e.get()].push(i),
                Entry::Vacant(e) => {
                    e.insert(ladders.len());
                    ladders.push(vec![i]);
                }
            }
        }
        for ladder in &mut ladders {
            ladder.sort_by_key(|&i| cells[i].0.heap_mb);
        }

        self.telemetry.count(CounterId::BatchesSubmitted, 1);
        let _batch_span = self.telemetry.host_span("runner", "batch");
        let pool = SweepPool::new(self.jobs).with_telemetry(self.telemetry.clone());
        let (memo, telemetry, cache) = (&self.memo, &self.telemetry, &self.cache);
        let (verbose, contain) = (self.verbose, self.contain_panics);
        // A panicking cell aborts the batch with its ladder's keys in the
        // message rather than poisoning pool/memo locks (`SweepError`) —
        // unless `contain_panics` is on, in which case `execute_cell`
        // catches it first and the pool never sees a panic.
        let executed: Vec<Vec<(usize, ExecutionRecord)>> = pool
            .try_run(
                ladders,
                |_, ladder| {
                    let keys: Vec<&str> = ladder.iter().map(|&i| cells[i].2.as_str()).collect();
                    keys.join(", ")
                },
                |_, ladder| {
                    // The latest fault-free run that took no heap-size-
                    // dependent branch: every larger member is that run.
                    let mut trunk: Option<Arc<RunSummary>> = None;
                    let mut records = Vec::new();
                    for i in ladder {
                        let (config, master, key) = &cells[i];
                        let mut record = None;
                        let (_, _) = memo.get_or_compute(key, || {
                            // Probe the persistent layer first: exactly one
                            // probe per unique key (concurrent duplicates
                            // are held by the memo's in-flight window), so
                            // cache counters are thread-count-independent.
                            let mut probe = CacheProbe::None;
                            if let Some(cache) = cache {
                                let started = Instant::now();
                                match cache.lookup(key) {
                                    CacheLookup::Hit(summary) => {
                                        record = Some(hit_record(&summary, started));
                                        return Ok(summary);
                                    }
                                    CacheLookup::Miss => probe = CacheProbe::Miss,
                                    CacheLookup::Corrupt => probe = CacheProbe::Corrupt,
                                }
                            }
                            let (result, mut rec) = match &trunk {
                                Some(t) => share(t, config, verbose, telemetry),
                                None => {
                                    let plan = config.derive_plan(*master);
                                    let (result, rec, shareable) =
                                        execute_cell(config, plan, verbose, contain, telemetry);
                                    if let (Ok(summary), true) = (&result, shareable) {
                                        trunk = Some(Arc::clone(summary));
                                    }
                                    (result, rec)
                                }
                            };
                            rec.cache_probe = probe;
                            if let (Some(cache), Ok(summary)) = (cache, &result) {
                                rec.cache_stored = cache.store(key, summary);
                            }
                            record = Some(rec);
                            result
                        });
                        records.extend(record.map(|r| (i, r)));
                    }
                    records
                },
            )
            .unwrap_or_else(|e| panic!("{e}"));

        let mut records: HashMap<usize, ExecutionRecord> = executed.into_iter().flatten().collect();

        // Merge in submission order — the determinism contract.
        let mut out = Vec::with_capacity(cells.len());
        for (i, (config, _, key)) in cells.iter().enumerate() {
            let first_here = first.get(key.as_str()) == Some(&i);
            let value = self
                .memo
                .peek(key)
                .expect("every batch key resolves before merge");
            // This occurrence resolved the cell in this batch — by
            // computing it or by restoring it from the persistent cache.
            let rec = if first_here { records.remove(&i) } else { None };
            if let Some(rec) = rec {
                self.account(key, rec, &value);
                // The executing occurrence surfaces the underlying error.
                out.push(value);
                continue;
            }
            self.telemetry.count(
                if first_here {
                    CounterId::CellsFromCache
                } else {
                    CounterId::CellsDedupedInBatch
                },
                1,
            );
            out.push(value.map_err(|failure| {
                lock_unpoisoned(&self.ledger).report.quarantine_hits += 1;
                self.telemetry.count(CounterId::QuarantineHits, 1);
                ExperimentError::Quarantined {
                    config: Box::new(config.clone()),
                    last_error: failure.to_string(),
                }
            }));
        }
        out
    }

    /// Tolerant **batch** execution for figure sweeps: the whole grid runs
    /// in parallel, failures are recorded as [`FailedCell`]s (in `failed`
    /// and, deduplicated, in the [`RunReport`]) and the corresponding
    /// slots come back `None`.
    pub fn cells(
        &self,
        configs: &[ExperimentConfig],
        failed: &mut Vec<FailedCell>,
    ) -> Vec<Option<Arc<RunSummary>>> {
        let results = self.run_batch(configs);
        configs
            .iter()
            .zip(results)
            .map(|(config, result)| match result {
                Ok(summary) => Some(summary),
                Err(e) => {
                    self.telemetry.count(CounterId::CellsFailed, 1);
                    let cell = FailedCell::new(config, &e);
                    let mut ledger = lock_unpoisoned(&self.ledger);
                    if ledger.seen_failed_cells.insert(config.key()) {
                        ledger.report.failed_cells.push(cell.clone());
                    }
                    failed.push(cell);
                    None
                }
            })
            .collect()
    }

    /// Number of distinct runs executed successfully so far.
    pub fn runs_executed(&self) -> usize {
        self.memo.count_matching(|v| v.is_ok())
    }

    /// The campaign report accumulated so far, including the cells
    /// [`Runner::restore`] restored.
    pub fn report(&self) -> RunReport {
        lock_unpoisoned(&self.ledger).report.clone()
    }

    /// Account one cell a batch or [`Runner::restore`] resolved, by
    /// computing it or restoring it from the persistent cache: the cache
    /// and execution counters, the record's faults (`runs_ok` and the
    /// fault merge), any quarantine, and the histograms and counters of a
    /// successful cell. This is the one place that accounting lives.
    fn account(&self, key: &str, rec: ExecutionRecord, value: &CellResult) {
        let telemetry = &self.telemetry;
        if rec.cache_probe == CacheProbe::Hit {
            telemetry.count(CounterId::CacheHits, 1);
        } else {
            telemetry.count(CounterId::CellsExecuted, 1);
            if rec.shared {
                telemetry.count(CounterId::CellsShared, 1);
            }
            match rec.cache_probe {
                CacheProbe::Miss => telemetry.count(CounterId::CacheMisses, 1),
                CacheProbe::Corrupt => telemetry.count(CounterId::CacheCorrupt, 1),
                CacheProbe::None | CacheProbe::Hit => {}
            }
            if rec.cache_stored {
                telemetry.count(CounterId::CacheStores, 1);
            }
        }
        telemetry.observe(HistId::CellHostUs, rec.host_us);
        {
            let report = &mut lock_unpoisoned(&self.ledger).report;
            report.faults.injected_oom += rec.injected_oom;
            report.faults.budget_exhausted += rec.budget_exhausted;
            if let Some(faults) = rec.success_faults {
                report.runs_ok += 1;
                report.faults.merge(&faults);
            }
            if let Some(q) = rec.quarantined {
                telemetry.count(CounterId::CellsQuarantined, 1);
                if self.verbose {
                    telemetry.log(&format!("quarantined {}", q.config));
                }
                report.quarantined.push(q);
            }
        }
        let Ok(summary) = value else {
            return;
        };
        // Virtual cell duration comes off the report, so counters-only hubs
        // (`--metrics-out` without `--trace-out`) still fill this histogram.
        telemetry.observe(
            HistId::CellVirtualUs,
            (summary.report.duration.seconds() * 1e6) as u64,
        );
        telemetry.count(
            CounterId::CellEnergyUj,
            (summary.report.total_energy.joules() * 1e6) as u64,
        );
        let probe = &summary.report.probe;
        telemetry.count(CounterId::ProbePortStores, probe.port_stores);
        telemetry.count(CounterId::ProbeDaqSamples, probe.daq_samples_paid);
        telemetry.count(CounterId::ProbeHpmReads, probe.hpm_reads_paid);
        telemetry.count(CounterId::ProbeCyclesPaid, probe.cycles_paid);
        if let Some(trace) = &summary.spans {
            // Appended in the caller's order: a batch merges in submission
            // order, so its virtual span stream is byte-identical for any
            // worker count.
            telemetry.record_cell(key, trace);
            telemetry.observe(HistId::CellSpans, trace.len() as u64);
        }
    }
}

/// What a persistent-cache hit probed at `started` contributes to the
/// report: the restored run's fault ledger and the probe's host time.
fn hit_record(summary: &RunSummary, started: Instant) -> ExecutionRecord {
    ExecutionRecord {
        cache_probe: CacheProbe::Hit,
        success_faults: Some(summary.report.faults),
        host_us: micros_since(started),
        ..ExecutionRecord::default()
    }
}

/// Host microseconds since `started`, saturating.
pub(crate) fn micros_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Render a panic payload: the string it carried, or a placeholder.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// A ladder member answered by `trunk`, a smaller heap's run that took no
/// heap-size-dependent branch: that summary, relabelled to `config`.
fn share(
    trunk: &RunSummary,
    config: &ExperimentConfig,
    verbose: bool,
    telemetry: &Telemetry,
) -> (CellResult, ExecutionRecord) {
    let started = Instant::now();
    if verbose {
        telemetry.log(&format!(
            "running {config} (shared with {} MB)",
            trunk.config.heap_mb
        ));
    }
    let summary = RunSummary {
        config: config.clone(),
        ..trunk.clone()
    };
    let rec = ExecutionRecord {
        success_faults: Some(summary.report.faults),
        shared: true,
        host_us: micros_since(started),
        ..ExecutionRecord::default()
    };
    (Ok(Arc::new(summary)), rec)
}

/// Run one cell: runs on a pool worker, touches no shared state, and
/// reports everything it did through the returned record, and whether a
/// successful run took no heap-size-dependent branch (so it may answer the
/// larger heaps of its ladder). A failed run is quarantined at once: the
/// cell is a pure function of `config` and `plan`, so a rerun would fail
/// the same way. With `contain` set, a panicking run is caught and mapped
/// to [`ExperimentError::Panicked`], quarantined like any other failure.
fn execute_cell(
    config: &ExperimentConfig,
    plan: FaultPlan,
    verbose: bool,
    contain: bool,
    telemetry: &Telemetry,
) -> (CellResult, ExecutionRecord, bool) {
    let started = Instant::now();
    if verbose {
        telemetry.log(&format!("running {config}"));
    }
    let outcome = if contain {
        // AssertUnwindSafe: the closure only touches `config` and the Copy
        // `plan`; `run_bounded` builds all VM state afresh, so no shared
        // state can be observed half-mutated after a panic.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| config.run_bounded(plan)))
            .unwrap_or_else(|payload| {
                Err(ExperimentError::Panicked {
                    config: Box::new(config.clone()),
                    message: panic_message(payload.as_ref()),
                })
            })
    } else {
        config.run_bounded(plan)
    };
    let mut rec = ExecutionRecord::default();
    let (result, shareable) = match outcome {
        Ok((summary, heap_bound)) => {
            rec.success_faults = Some(summary.report.faults);
            (Ok(Arc::new(summary)), !heap_bound)
        }
        Err(e) => {
            if let ExperimentError::Vm { source, .. } = &e {
                match source {
                    VmError::InjectedOom { .. } => rec.injected_oom = 1,
                    VmError::StepBudgetExhausted { .. } => rec.budget_exhausted = 1,
                    _ => {}
                }
            }
            rec.quarantined = Some(QuarantinedConfig {
                config: config.to_string(),
                benchmark: config.benchmark.clone(),
                last_error: e.to_string(),
            });
            (Err(e), false)
        }
    };
    rec.host_us = micros_since(started);
    (result, rec, shareable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_heap::CollectorKind;
    use vmprobe_workloads::InputScale;

    fn quick(benchmark: &str) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::jikes(benchmark, CollectorKind::SemiSpace, 32);
        cfg.scale = InputScale::Reduced;
        cfg
    }

    #[test]
    fn cache_hits_do_not_rerun() {
        let r = Runner::new();
        let mut cfg = ExperimentConfig::jikes("moldyn", CollectorKind::SemiSpace, 32);
        cfg.scale = InputScale::Reduced;
        let a = r.run(&cfg).expect("runs");
        let b = r.run(&cfg).expect("cached");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(r.runs_executed(), 1);
    }

    #[test]
    fn persistent_failure_runs_once_then_is_quarantined() {
        let oom = FaultPlan::parse("oom@1").unwrap();
        let r = Runner::new().fault_override("moldyn", oom);
        let cfg = quick("moldyn");

        let err = r.run(&cfg).expect_err("oom@1 always fails");
        assert!(matches!(err, ExperimentError::Vm { .. }));
        assert_eq!(r.report().quarantined.len(), 1);
        assert_eq!(r.report().faults.injected_oom, 1, "one run");

        // Subsequent requests are refused without executing anything.
        let err = r.run(&cfg).expect_err("quarantined");
        assert!(matches!(err, ExperimentError::Quarantined { .. }));
        assert_eq!(r.report().faults.injected_oom, 1, "no new runs");
        assert_eq!(r.report().quarantine_hits, 1);
    }

    #[test]
    fn override_only_hits_its_benchmark() {
        let oom = FaultPlan::parse("oom@1").unwrap();
        let r = Runner::new().fault_override("moldyn", oom);
        assert!(r.run(&quick("moldyn")).is_err());
        assert!(r.run(&quick("search")).is_ok());
        assert!(r.report().faults.is_clean() || r.report().faults.injected_oom > 0);
    }

    #[test]
    fn tolerant_cell_records_failures_and_continues() {
        let oom = FaultPlan::parse("oom@1").unwrap();
        let r = Runner::new().fault_override("moldyn", oom);
        let mut failed = Vec::new();
        let moldyn = quick("moldyn");
        assert!(r.cells(std::slice::from_ref(&moldyn), &mut failed)[0].is_none());
        assert!(r.cells(&[quick("search")], &mut failed)[0].is_some());
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].benchmark, "moldyn");
        assert_eq!(r.report().failed_cells.len(), 1);
        // Re-requesting the same dead cell does not duplicate the report
        // entry.
        let mut more = Vec::new();
        assert!(r.cells(std::slice::from_ref(&moldyn), &mut more)[0].is_none());
        assert_eq!(r.report().failed_cells.len(), 1);
    }

    #[test]
    fn failed_cells_that_differ_only_in_platform_are_both_reported() {
        let oom = FaultPlan::parse("oom@1").unwrap();
        let r = Runner::new().with_faults(oom);
        let mut p6 = ExperimentConfig::kaffe("search", 32);
        p6.scale = InputScale::Reduced;
        let pxa = ExperimentConfig::kaffe_pxa("search", 32);
        let mut failed = Vec::new();
        assert!(r.cells(&[p6, pxa], &mut failed).iter().all(Option::is_none));
        assert_eq!(failed.len(), 2);
        assert_eq!(r.report().failed_cells, failed, "one entry per cell");
    }

    #[test]
    fn report_serializes_to_json() {
        let oom = FaultPlan::parse("oom@1").unwrap();
        let r = Runner::new().fault_override("moldyn", oom);
        let _ = r.run(&quick("moldyn"));
        let _ = r.run(&quick("search"));
        let json = r.report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"runs_ok\":1"));
        assert!(json.contains("\"injected_oom\":1"));
        assert!(json.contains("\"quarantined\":[{"));
        assert!(json.contains("moldyn"));
    }

    #[test]
    fn default_fault_plan_applies_to_every_run() {
        let plan = FaultPlan::parse("drop=0.5,seed=3").unwrap();
        let r = Runner::new().with_faults(plan);
        let run = r.run(&quick("search")).expect("faulted run completes");
        assert!(run.report.faults.samples_dropped > 0);
        assert!(r.report().faults.samples_dropped > 0);
        // Degradation contract at the campaign level.
        assert!(run.report.energy_deviation_j() <= run.report.faults.energy_error_bound_j() + 1e-9);
    }

    #[test]
    fn batch_resolves_duplicates_without_reexecution() {
        let r = Runner::new().jobs(4);
        let cfg = quick("search");
        let batch = vec![cfg.clone(), cfg.clone(), cfg.clone()];
        let results = r.run_batch(&batch);
        assert_eq!(results.len(), 3);
        let first = results[0].as_ref().expect("runs").clone();
        for res in &results {
            assert!(Arc::ptr_eq(res.as_ref().unwrap(), &first));
        }
        assert_eq!(r.runs_executed(), 1);
        assert_eq!(r.report().runs_ok, 1);
    }

    #[test]
    fn batch_duplicate_of_quarantined_cell_counts_a_hit() {
        let oom = FaultPlan::parse("oom@1").unwrap();
        let r = Runner::new().fault_override("moldyn", oom);
        let cfg = quick("moldyn");
        let results = r.run_batch(&[cfg.clone(), cfg.clone()]);
        // First occurrence surfaces the underlying error, the duplicate is
        // a quarantine hit — exactly as two sequential run() calls.
        assert!(matches!(results[0], Err(ExperimentError::Vm { .. })));
        assert!(matches!(
            results[1],
            Err(ExperimentError::Quarantined { .. })
        ));
        assert_eq!(r.report().faults.injected_oom, 1, "executed once");
        assert_eq!(r.report().quarantine_hits, 1);
        assert_eq!(r.report().quarantined.len(), 1);
    }

    #[test]
    fn per_request_plans_override_runner_policy() {
        let oom = FaultPlan::parse("oom@1").unwrap();
        let r = Runner::new().jobs(2);
        let cfg = quick("moldyn");
        let results = r.run_batch_with_plans(&[(cfg.clone(), Some(oom)), (cfg.clone(), None)]);
        // Same benchmark, different plans: distinct cells, the poisoned
        // one fails while the clean one succeeds.
        assert!(matches!(results[0], Err(ExperimentError::Vm { .. })));
        assert!(results[1].is_ok());
        assert_eq!(r.report().quarantined.len(), 1);
        assert_eq!(r.report().runs_ok, 1);

        // An explicit plan equal to the runner's resolution shares the
        // memoized cell (no re-execution).
        let executed = r.runs_executed();
        let again = r.run_batch_with_plans(&[(cfg.clone(), Some(FaultPlan::none()))]);
        assert!(Arc::ptr_eq(
            again[0].as_ref().unwrap(),
            results[1].as_ref().unwrap()
        ));
        assert_eq!(r.runs_executed(), executed);
    }

    #[test]
    fn contained_batch_preserves_normal_results() {
        // With containment on and nothing panicking, results are the same
        // object graph a plain batch produces (same memo, same report).
        let plain = Runner::new();
        let contained = Runner::new().contain_panics(true);
        let cfg = quick("search");
        let a = plain.run(&cfg).expect("runs");
        let b = contained.run(&cfg).expect("runs under containment");
        assert_eq!(a.report.cpu_energy.joules(), b.report.cpu_energy.joules());
        assert_eq!(plain.report().runs_ok, contained.report().runs_ok);
    }

    #[test]
    fn panic_payloads_render_to_strings() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "boom");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(owned.as_ref()), "kaboom");
        let opaque: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(opaque.as_ref()), "<non-string panic payload>");
    }

    #[test]
    fn contained_panic_is_typed_and_quarantines() {
        // Drive a real panic through execute_cell by catching one
        // ourselves: the public surface is exercised end-to-end in the
        // serve tests; here we pin the containment mapping itself.
        let err = std::panic::catch_unwind(|| panic!("worker died"))
            .map_err(|p| ExperimentError::Panicked {
                config: Box::new(quick("moldyn")),
                message: panic_message(p.as_ref()),
            })
            .expect_err("panicked");
        assert!(err.to_string().contains("panicked: worker died"));
        assert!(matches!(err, ExperimentError::Panicked { .. }));
    }

    #[test]
    fn probe_override_pays_costs_without_sharing_cells() {
        let cfg = quick("search");
        let bare = Runner::new();
        let clean = bare.run(&cfg).expect("runs");
        assert_eq!(clean.report.probe.cycles_paid, 0);

        let probed = Runner::new().with_probe_override(ProbeSpec::nontransparent_at(4_000));
        let paid = probed.run(&cfg).expect("runs probed");
        assert!(paid.report.probe.cycles_paid > 0, "probe charges cycles");
        assert!(
            paid.report.total_energy.joules() > clean.report.total_energy.joules(),
            "observer effect shows up in total energy"
        );
        // The override rewrites the effective config, so requesting the
        // probed config directly hits the same memo cell.
        let direct = cfg.clone().with_probe(ProbeSpec::nontransparent_at(4_000));
        let again = probed.run(&direct).expect("cached");
        assert!(Arc::ptr_eq(&paid, &again));
        assert_eq!(probed.runs_executed(), 1);
    }

    #[test]
    fn scale_override_rewrites_every_config() {
        let r = Runner::new().scale(InputScale::Reduced);
        let full = ExperimentConfig::jikes("search", CollectorKind::SemiSpace, 32);
        let run = r.run(&full).expect("runs");
        assert_eq!(run.config.scale, InputScale::Reduced);
        // The cache key is the effective (reduced) one: requesting the
        // reduced config directly hits the same entry.
        let mut reduced = full;
        reduced.scale = InputScale::Reduced;
        let again = r.run(&reduced).expect("cached");
        assert!(Arc::ptr_eq(&run, &again));
        assert_eq!(r.runs_executed(), 1);
    }
}

//! Experiment configuration and execution.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use vmprobe_heap::{CollectorKind, GcStats};
use vmprobe_platform::PlatformKind;
use vmprobe_power::{ComponentId, DetRng, FaultPlan, PowerSample, ProbeSpec, Report};
use vmprobe_vm::{CompilerStats, Vm, VmConfig, VmError, VmStats};
use vmprobe_workloads::{benchmark, InputScale};

use crate::scale::heap_bytes;

/// Which virtual machine an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VmChoice {
    /// Jikes RVM with the given MMTk collector.
    Jikes(CollectorKind),
    /// Kaffe (JIT + incremental conservative mark-sweep).
    Kaffe,
}

impl VmChoice {
    /// The VM a collector name on the command line or the serve wire
    /// selects: `semispace`, `marksweep`, `gencopy` or `genms` for Jikes
    /// RVM, or `kaffe`.
    pub fn from_collector_name(name: &str) -> Option<Self> {
        match name {
            "gencopy" => Some(VmChoice::Jikes(CollectorKind::GenCopy)),
            "semispace" => Some(VmChoice::Jikes(CollectorKind::SemiSpace)),
            "marksweep" => Some(VmChoice::Jikes(CollectorKind::MarkSweep)),
            "genms" => Some(VmChoice::Jikes(CollectorKind::GenMs)),
            "kaffe" => Some(VmChoice::Kaffe),
            _ => None,
        }
    }
}

impl fmt::Display for VmChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmChoice::Jikes(c) => write!(f, "Jikes/{c}"),
            VmChoice::Kaffe => write!(f, "Kaffe"),
        }
    }
}

/// One point in the paper's experimental space.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Benchmark name (see [`vmprobe_workloads::all_benchmarks`]).
    pub benchmark: String,
    /// VM and collector.
    pub vm: VmChoice,
    /// Heap size as a paper label in MB (scaled internally).
    pub heap_mb: u32,
    /// Hardware platform.
    pub platform: PlatformKind,
    /// Input data-set scale.
    pub scale: InputScale,
    /// Record the full power trace (needed for the thermal figure).
    pub trace_power: bool,
    /// Record component spans on the virtual cycle clock (telemetry
    /// `--trace-out`). Observation only: the report is bit-identical
    /// with this on or off, and derived fault streams ignore it
    /// ([`Self::fault_key`]).
    pub record_spans: bool,
    /// Run the load-time verification tier (`--no-verify` clears it).
    /// Verification is host-side and charges zero simulated cycles, so
    /// accepted runs are bit-identical either way; like
    /// [`Self::record_spans`] it is excluded from [`Self::key`] and
    /// [`Self::fault_key`], and it is not persisted in cache entries
    /// (restored configurations always read `true`).
    pub verify: bool,
    /// Measurement mode: DAQ sampling period and probe transparency
    /// (`--observe-cost`). The default is the classic free-probes rig;
    /// any other value re-times or perturbs the measurement, so non-default
    /// specs mark [`Self::key`] (but never [`Self::fault_key`]: observing
    /// differently must not reseed injected-fault streams).
    #[serde(default)]
    pub probe: ProbeSpec,
}

impl ExperimentConfig {
    /// A Jikes experiment on the P6 board with the full data set.
    pub fn jikes(benchmark: &str, collector: CollectorKind, heap_mb: u32) -> Self {
        Self {
            benchmark: benchmark.to_owned(),
            vm: VmChoice::Jikes(collector),
            heap_mb,
            platform: PlatformKind::PentiumM,
            scale: InputScale::Full,
            trace_power: false,
            record_spans: false,
            verify: true,
            probe: ProbeSpec::default(),
        }
    }

    /// A Kaffe experiment on the P6 board with the full data set.
    pub fn kaffe(benchmark: &str, heap_mb: u32) -> Self {
        Self {
            benchmark: benchmark.to_owned(),
            vm: VmChoice::Kaffe,
            heap_mb,
            platform: PlatformKind::PentiumM,
            scale: InputScale::Full,
            trace_power: false,
            record_spans: false,
            verify: true,
            probe: ProbeSpec::default(),
        }
    }

    /// A Kaffe experiment on the DBPXA255 board with the reduced (`-s10`)
    /// data set, as in the paper's Section VI-E.
    pub fn kaffe_pxa(benchmark: &str, heap_mb: u32) -> Self {
        Self {
            benchmark: benchmark.to_owned(),
            vm: VmChoice::Kaffe,
            heap_mb,
            platform: PlatformKind::Pxa255,
            scale: InputScale::Reduced,
            trace_power: false,
            record_spans: false,
            verify: true,
            probe: ProbeSpec::default(),
        }
    }

    /// Enable power-trace recording.
    pub fn with_trace(mut self) -> Self {
        self.trace_power = true;
        self
    }

    /// Enable virtual-clock component span recording.
    pub fn with_spans(mut self) -> Self {
        self.record_spans = true;
        self
    }

    /// Select the measurement mode (observer-effect studies). Non-default
    /// specs mark [`Self::key`], so perturbed runs never share cache
    /// entries with the classic rig.
    pub fn with_probe(mut self, probe: ProbeSpec) -> Self {
        self.probe = probe;
        self
    }

    /// Derive this cell's fault plan from a sweep-level master plan: the
    /// plan's parameters are kept, but the seed becomes an independent
    /// deterministic stream keyed by the master seed and [`Self::key`].
    ///
    /// This is what makes parallel sweeps replayable: a cell's injected
    /// faults depend only on (master seed, cell identity), never on how
    /// many other cells ran, in what order, or on which worker thread.
    /// The identity hashed here is [`Self::fault_key`], which excludes
    /// observation-only switches, so attaching `--trace-out` or
    /// `--telemetry-overhead` to a faulted sweep injects exactly the
    /// faults a bare run would. Plans that inject nothing pass through
    /// untouched.
    pub fn derive_plan(&self, master: FaultPlan) -> FaultPlan {
        if master.is_none() {
            return master;
        }
        let mut stream = DetRng::new(master.seed).derive(&self.fault_key());
        master.with_seed(stream.next_u64())
    }

    /// Span-agnostic cell identity: every axis that shapes the simulated
    /// run, excluding pure-observation switches like
    /// [`Self::record_spans`]. This is what [`Self::derive_plan`] hashes,
    /// so injected-fault streams are bit-identical with span recording on
    /// or off — and bit-identical to pre-telemetry builds.
    pub fn fault_key(&self) -> String {
        format!(
            "{}|{}|{}|{:?}|{:?}|{}",
            self.benchmark, self.vm, self.heap_mb, self.platform, self.scale, self.trace_power
        )
    }

    /// Unique cache key: [`Self::fault_key`] plus a `|spans` marker when
    /// span recording is on, so a memo never serves a span-free summary
    /// to a span-requesting caller, plus a `|probe:…` marker for
    /// non-default measurement modes, so perturbed summaries never shadow
    /// the classic rig's. Keys of span-free default-probe configurations
    /// are bit-identical to what they were before either layer existed.
    pub fn key(&self) -> String {
        let spans = if self.record_spans { "|spans" } else { "" };
        let probe = if self.probe == ProbeSpec::default() {
            String::new()
        } else {
            format!("|{}", self.probe.key_marker())
        };
        format!("{}{}{}", self.fault_key(), spans, probe)
    }

    fn vm_config(&self) -> VmConfig {
        let heap = heap_bytes(self.heap_mb);
        let base = match self.vm {
            VmChoice::Jikes(c) => VmConfig::jikes(c, heap),
            VmChoice::Kaffe => VmConfig::kaffe(heap),
        };
        base.platform(self.platform)
            .trace_power(self.trace_power)
            .record_spans(self.record_spans)
            .verify(self.verify)
            .probe(self.probe)
    }

    /// Execute the experiment without fault injection.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::UnknownBenchmark`] for names not in the registry;
    /// [`ExperimentError::Vm`] when the run faults (most commonly
    /// out-of-memory when the heap label is too small for the workload).
    pub fn run(&self) -> Result<RunSummary, ExperimentError> {
        self.run_with_faults(FaultPlan::none())
    }

    /// Execute the experiment under a fault plan: the DAQ, performance
    /// monitor and VM inject the plan's faults deterministically, and the
    /// summary's report carries the fault ledger plus clean ground truth.
    ///
    /// # Errors
    ///
    /// As [`ExperimentConfig::run`], plus [`ExperimentError::Vm`] wrapping
    /// the plan's own forced faults (`InjectedOom`, `StepBudgetExhausted`)
    /// and typed heap-configuration rejections.
    pub fn run_with_faults(&self, faults: FaultPlan) -> Result<RunSummary, ExperimentError> {
        let bench = benchmark(&self.benchmark)
            .ok_or_else(|| ExperimentError::UnknownBenchmark(self.benchmark.clone()))?;
        let program = bench.build(self.scale);
        let vm_err = |e: VmError| ExperimentError::Vm {
            config: Box::new(self.clone()),
            source: e,
        };
        let vm = Vm::try_new(program, self.vm_config().faults(faults)).map_err(vm_err)?;
        let out = vm.run().map_err(vm_err)?;
        Ok(RunSummary {
            config: self.clone(),
            result_checksum: out.result.map(|v| v.as_i()),
            report: out.report,
            gc: out.gc,
            vm: out.vm,
            compiler: out.compiler,
            power_trace: out.power_trace,
            total_alloc_bytes: out.total_alloc_bytes,
            live_bytes_end: out.live_bytes_end,
            spans: out.spans,
        })
    }
}

impl fmt::Display for ExperimentConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} @ {} MB ({:?}, {:?})",
            self.benchmark, self.vm, self.heap_mb, self.platform, self.scale
        )
    }
}

/// Why an experiment failed.
///
/// `Clone` so the supervised runner can cache negative results and replay
/// them without re-executing the failing configuration.
#[derive(Debug, Clone)]
pub enum ExperimentError {
    /// The benchmark name is not registered.
    UnknownBenchmark(String),
    /// The VM faulted.
    Vm {
        /// The failing configuration.
        config: Box<ExperimentConfig>,
        /// The underlying fault.
        source: VmError,
    },
    /// The configuration exceeded its retry budget and was quarantined; the
    /// runner refuses to execute it again.
    Quarantined {
        /// The quarantined configuration.
        config: Box<ExperimentConfig>,
        /// How many attempts were made before quarantine.
        attempts: u32,
        /// Rendered form of the last underlying error.
        last_error: String,
    },
    /// The run panicked and the runner contained it (serving mode): the
    /// panic was caught on the worker and converted to this typed error
    /// instead of aborting the batch or killing the worker thread.
    Panicked {
        /// The panicking configuration.
        config: Box<ExperimentConfig>,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownBenchmark(n) => write!(f, "unknown benchmark '{n}'"),
            ExperimentError::Vm { config, source } => {
                write!(f, "experiment {config} failed: {source}")
            }
            ExperimentError::Quarantined {
                config,
                attempts,
                last_error,
            } => write!(
                f,
                "experiment {config} quarantined after {attempts} attempts (last error: {last_error})"
            ),
            ExperimentError::Panicked { config, message } => {
                write!(f, "experiment {config} panicked: {message}")
            }
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Vm { source, .. } => Some(source),
            ExperimentError::UnknownBenchmark(_)
            | ExperimentError::Quarantined { .. }
            | ExperimentError::Panicked { .. } => None,
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// The configuration that ran.
    pub config: ExperimentConfig,
    /// Integer checksum returned by the benchmark's entry method (GC and
    /// platform transparency: identical across all configurations of the
    /// same benchmark and input scale).
    pub result_checksum: Option<i64>,
    /// Per-component measurement report.
    pub report: Report,
    /// Collector statistics.
    pub gc: GcStats,
    /// Runtime statistics.
    pub vm: VmStats,
    /// Compilation statistics.
    pub compiler: CompilerStats,
    /// Power trace if requested.
    pub power_trace: Option<Vec<PowerSample>>,
    /// Total allocation volume in simulated bytes.
    pub total_alloc_bytes: u64,
    /// Live bytes at exit.
    pub live_bytes_end: u64,
    /// Virtual-clock component span trace when
    /// [`ExperimentConfig::record_spans`] was set.
    pub spans: Option<vmprobe_telemetry::SpanTrace>,
}

impl RunSummary {
    /// CPU-energy fraction for a component (0 when it never ran).
    pub fn fraction(&self, c: ComponentId) -> f64 {
        self.report.energy_fraction(c)
    }

    /// The paper's energy-delay product in J·s (total energy × runtime).
    pub fn edp(&self) -> f64 {
        self.report.edp.joule_seconds()
    }

    /// Run duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.report.duration.seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_benchmark_is_an_error() {
        let cfg = ExperimentConfig::jikes("_999_nope", CollectorKind::SemiSpace, 32);
        assert!(matches!(
            cfg.run(),
            Err(ExperimentError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn derived_plans_are_stable_per_cell_and_distinct_across_cells() {
        let master = FaultPlan::parse("drop=0.1,seed=7").unwrap();
        let a = ExperimentConfig::jikes("_209_db", CollectorKind::SemiSpace, 32);
        let b = ExperimentConfig::jikes("_209_db", CollectorKind::SemiSpace, 48);
        assert_eq!(a.derive_plan(master), a.derive_plan(master));
        assert_ne!(a.derive_plan(master).seed, b.derive_plan(master).seed);
        assert_eq!(a.derive_plan(master).drop_sample, 0.1);
        // A different master seed moves every cell's stream.
        assert_ne!(
            a.derive_plan(master).seed,
            a.derive_plan(master.with_seed(8)).seed
        );
        // No-fault plans pass through untouched (cache keys stay bare).
        let clean = FaultPlan::none();
        assert_eq!(a.derive_plan(clean), clean);
    }

    #[test]
    fn span_recording_marks_key_but_never_fault_streams() {
        let bare = ExperimentConfig::jikes("_209_db", CollectorKind::SemiSpace, 32);
        let spanned = bare.clone().with_spans();
        assert!(!bare.key().contains("spans"), "disabled keys unchanged");
        // The memo must distinguish spanned from span-free summaries …
        assert_ne!(bare.key(), spanned.key());
        // … but fault identity is observation-agnostic: recording spans
        // must inject exactly the faults a bare run would.
        assert_eq!(bare.fault_key(), spanned.fault_key());
        let master = FaultPlan::parse("drop=0.1,seed=7").unwrap();
        assert_eq!(bare.derive_plan(master), spanned.derive_plan(master));
    }

    #[test]
    fn probe_mode_marks_key_but_never_fault_streams() {
        let bare = ExperimentConfig::jikes("_209_db", CollectorKind::SemiSpace, 32);
        let fine = bare.clone().with_probe(ProbeSpec::transparent_at(4_000));
        let paid = bare
            .clone()
            .with_probe(ProbeSpec::nontransparent_at(40_000));
        assert!(!bare.key().contains("probe"), "default keys unchanged");
        assert_ne!(bare.key(), fine.key());
        assert_ne!(bare.key(), paid.key());
        assert_ne!(fine.key(), paid.key());
        // Observing differently must not reseed injected-fault streams.
        assert_eq!(bare.fault_key(), paid.fault_key());
        let master = FaultPlan::parse("drop=0.1,seed=7").unwrap();
        assert_eq!(bare.derive_plan(master), paid.derive_plan(master));
    }

    #[test]
    fn config_keys_distinguish_every_axis() {
        let a = ExperimentConfig::jikes("_209_db", CollectorKind::SemiSpace, 32);
        let b = ExperimentConfig::jikes("_209_db", CollectorKind::SemiSpace, 48);
        let c = ExperimentConfig::jikes("_209_db", CollectorKind::GenCopy, 32);
        let d = ExperimentConfig::kaffe("_209_db", 32);
        let e = ExperimentConfig::kaffe_pxa("_209_db", 32);
        let keys = [a.key(), b.key(), c.key(), d.key(), e.key()];
        let mut uniq = keys.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), keys.len());
    }
}

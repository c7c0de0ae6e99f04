//! Command-line runner for a single characterization experiment or a
//! parallel figure sweep.
//!
//! ```text
//! vmprobe-run <benchmark> [collector] [heap_mb] [platform] [scale] [flags]
//!   collector: semispace | marksweep | gencopy | genms | kaffe  (default gencopy)
//!   heap_mb:   paper heap label in MB                           (default 64)
//!   platform:  p6 | pxa255                                      (default p6)
//!   scale:     full | s10                                       (default full)
//! vmprobe-run <artifact...> [flags]
//!   artifacts: fig1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 t1 t2 t3 t4 t5 | all
//! flags:
//!   --jobs <n>          worker threads for parallel sweeps (default: available
//!                       parallelism); output is bit-identical for every value
//!   --faults <spec>     inject faults, e.g. drop=0.05,dup=0.01,wrap32,oom@1000
//!   --retries <n>       attempts beyond the first before quarantine (default 2)
//!   --seed <n>          override the fault plan's seed
//!   --report-json <p>   write the supervised-run report JSON to a path ('-' = stdout)
//!   --trace-out <p>     write a Chrome trace-event JSON of the run ('-' = stdout)
//!   --metrics-out <p>   write Prometheus-style text metrics ('-' = stdout)
//!   --cache-dir <p>     persistent experiment cache: cells found there are
//!                       restored instead of recomputed, fresh cells are
//!                       written through, so an interrupted or repeated sweep
//!                       only pays for what is missing
//!   --no-cache          ignore --cache-dir (compute everything, write nothing)
//!   --no-verify         skip load-time dataflow verification (escape hatch;
//!                       the structural pass still runs at first compile;
//!                       verification is host-side and costs zero simulated
//!                       cycles, so results are identical either way)
//!   --resume            with --cache-dir: report on stderr how many cells the
//!                       cache restored vs. recomputed (stdout is unchanged)
//!   --telemetry-overhead  run uninstrumented first, then instrumented, and
//!                       report the telemetry tax as a percentage (timed
//!                       passes always run quiet so --verbose narration is
//!                       never billed as tax), split into a host_tax row
//!                       (wall-clock recording cost) and a probe_tax row
//!                       (simulated cycles a charged probe would cost)
//!   --observe-cost      observer-effect sweep: run every golden cell
//!                       transparent vs non-transparent across the probe
//!                       period grid and print the figure set plus a
//!                       recommendation table (--report-json then carries
//!                       the observe report instead of the runner report)
//!   --probe-period <g>  period grid for --observe-cost: comma-separated
//!                       periods (ns/us/ms suffix) or decade ranges like
//!                       4us..4ms (default)
//!   --verbose           progress logs while running and an end-of-run
//!                       telemetry summary, both on stderr
//! ```

use std::process::ExitCode;
use std::time::{Duration, Instant};

use std::sync::Arc;

use vmprobe::{
    default_jobs, figures, golden_cells, parse_period_grid, CounterId, ExperimentCache,
    ExperimentConfig, FaultPlan, HistId, NoopSink, ObserveEngine, ProbeSpec, Runner, Sink,
    StderrSink, Telemetry, VmChoice,
};
use vmprobe_heap::CollectorKind;
use vmprobe_platform::PlatformKind;
use vmprobe_power::ComponentId;
use vmprobe_workloads::InputScale;

const ARTIFACTS: [&str; 13] = [
    "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "t1", "t2", "t3", "t4", "t5",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: vmprobe-run <benchmark> [semispace|marksweep|gencopy|genms|kaffe] \
         [heap_mb] [p6|pxa255] [full|s10]\n\
         \x20      [--jobs <n>] [--faults <spec>] [--retries <n>] [--seed <n>] \
         [--report-json <path>]\n\
         \x20      [--trace-out <path>] [--metrics-out <path>] [--telemetry-overhead] \
         [--verbose]\n\
         \x20      [--cache-dir <path>] [--no-cache] [--no-verify] [--resume]\n\
         \x20  or: vmprobe-run <fig1|fig5|fig6|fig7|fig8|fig9|fig10|fig11|t1..t5|all> \
         [flags]\n\
         \x20  or: vmprobe-run --observe-cost [--probe-period <grid>] [flags]"
    );
    eprintln!("fault spec keys: drop dup noise wrap32 glitch drift oom@N budget seed");
    eprintln!("benchmarks:");
    for b in vmprobe_workloads::all_benchmarks() {
        eprintln!("  {:16} ({})", b.name, b.suite);
    }
    ExitCode::FAILURE
}

/// A specific, single-line complaint — unlike [`usage`], which is reserved
/// for the no-arguments / malformed-shape cases.
fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

#[derive(Default)]
struct Cli {
    positionals: Vec<String>,
    jobs: Option<usize>,
    faults: Option<String>,
    retries: Option<u32>,
    seed: Option<u64>,
    report_json: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    cache_dir: Option<String>,
    no_cache: bool,
    no_verify: bool,
    resume: bool,
    telemetry_overhead: bool,
    observe_cost: bool,
    probe_period: Option<String>,
    verbose: bool,
}

impl Cli {
    /// Any flag that needs a live telemetry hub attached to the runner.
    fn telemetry_requested(&self) -> bool {
        self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.telemetry_overhead
            || self.verbose
    }

    /// Span streams are kept whenever an output consumes them: the trace
    /// obviously, the metrics dump (its `cell_spans` histogram counts
    /// recorded spans), and the overhead mode (which must measure full
    /// recording, not a discounted subset). Verbose-only runs stay on the
    /// cheaper counters-only hub.
    fn spans_wanted(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.telemetry_overhead
    }

    /// Build the telemetry handle the flags ask for (disabled if none do).
    fn make_telemetry(&self) -> Telemetry {
        if !self.telemetry_requested() {
            return Telemetry::disabled();
        }
        let sink: Box<dyn Sink> = if self.verbose {
            Box::new(StderrSink::new())
        } else {
            Box::new(NoopSink)
        };
        Telemetry::with_sink(self.spans_wanted(), sink)
    }

    /// Open the persistent experiment cache the flags ask for, if any.
    /// `--no-cache` wins over `--cache-dir` so scripts can keep a standing
    /// cache argument and disable it per-invocation.
    fn open_cache(&self) -> Result<Option<Arc<ExperimentCache>>, String> {
        let Some(dir) = &self.cache_dir else {
            return Ok(None);
        };
        if self.no_cache {
            return Ok(None);
        }
        match ExperimentCache::open(dir) {
            Ok(cache) => Ok(Some(Arc::new(cache))),
            Err(e) => Err(format!("cannot open cache dir {dir}: {e}")),
        }
    }

    /// Telemetry for the *timed* instrumented passes of
    /// `--telemetry-overhead`: the same recording configuration, but
    /// always a quiet sink. `--verbose` narration is stderr I/O (mutex +
    /// write per attempt), not recording cost — letting it into the timed
    /// side would bill narration as telemetry tax. The end-of-run
    /// `--verbose` summary still prints from the final snapshot.
    fn make_overhead_telemetry(&self) -> Telemetry {
        Telemetry::with_sink(self.spans_wanted(), Box::new(NoopSink))
    }
}

enum ParseOutcome {
    Ok(Cli),
    Err(String),
    Help,
}

fn parse_args(args: Vec<String>) -> ParseOutcome {
    let mut cli = Cli::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return ParseOutcome::Help;
        }
        if let Some(flag) = arg.strip_prefix("--") {
            let (name, inline) = match flag.split_once('=') {
                Some((n, v)) => (n.to_owned(), Some(v.to_owned())),
                None => (flag.to_owned(), None),
            };
            // Boolean flags: never consume the next argument.
            match name.as_str() {
                "telemetry-overhead" | "observe-cost" | "verbose" | "no-cache" | "no-verify"
                | "resume" => {
                    if inline.is_some() {
                        return ParseOutcome::Err(format!("--{name} takes no value"));
                    }
                    match name.as_str() {
                        "verbose" => cli.verbose = true,
                        "no-cache" => cli.no_cache = true,
                        "no-verify" => cli.no_verify = true,
                        "resume" => cli.resume = true,
                        "observe-cost" => cli.observe_cost = true,
                        _ => cli.telemetry_overhead = true,
                    }
                    continue;
                }
                _ => {}
            }
            let Some(value) = inline.or_else(|| it.next()) else {
                return ParseOutcome::Err(format!("--{name} needs a value"));
            };
            match name.as_str() {
                "jobs" => match value.parse::<usize>() {
                    Ok(v) if v > 0 => cli.jobs = Some(v),
                    _ => {
                        return ParseOutcome::Err(format!(
                            "--jobs expects a positive integer, got '{value}'"
                        ))
                    }
                },
                "faults" => cli.faults = Some(value),
                "retries" => match value.parse() {
                    Ok(v) => cli.retries = Some(v),
                    Err(_) => {
                        return ParseOutcome::Err(format!(
                            "--retries expects a non-negative integer, got '{value}'"
                        ))
                    }
                },
                "seed" => match value.parse() {
                    Ok(v) => cli.seed = Some(v),
                    Err(_) => {
                        return ParseOutcome::Err(format!(
                            "--seed expects an unsigned integer, got '{value}'"
                        ))
                    }
                },
                "report-json" => cli.report_json = Some(value),
                "trace-out" => cli.trace_out = Some(value),
                "metrics-out" => cli.metrics_out = Some(value),
                "cache-dir" => cli.cache_dir = Some(value),
                "probe-period" => cli.probe_period = Some(value),
                other => return ParseOutcome::Err(format!("unknown flag --{other}")),
            }
        } else {
            cli.positionals.push(arg);
        }
    }
    ParseOutcome::Ok(cli)
}

/// A runner wired with everything the flags ask for. `telemetry` and
/// `verbose` are passed explicitly so the `--telemetry-overhead` timed
/// passes (bare *and* instrumented) can build runners with narration
/// switched off.
fn make_runner(
    cli: &Cli,
    plan: FaultPlan,
    telemetry: Telemetry,
    verbose: bool,
    cache: Option<Arc<ExperimentCache>>,
) -> Runner {
    let mut runner = Runner::new()
        .jobs(cli.jobs.unwrap_or_else(default_jobs))
        .with_faults(plan)
        .with_telemetry(telemetry)
        .verbose(verbose);
    if let Some(r) = cli.retries {
        runner = runner.retries(r);
    }
    if let Some(cache) = cache {
        runner = runner.with_cache(cache);
    }
    runner
}

/// The `--resume` accounting line. Stderr only: cached and cold runs must
/// produce byte-identical stdout.
fn print_resume_summary(runner: &Runner) {
    if let Some(cache) = runner.cache() {
        print_resume_cache(cache);
    }
}

fn print_resume_cache(cache: &ExperimentCache) {
    let s = cache.stats();
    eprintln!(
        "resume: {} cells restored from {}, {} recomputed ({} stored, {} corrupt entries replaced)",
        s.hits(),
        cache.dir().display(),
        s.misses() + s.corrupt(),
        s.stores(),
        s.corrupt(),
    );
}

fn write_report(runner: &Runner, dest: &str) -> Result<(), String> {
    let json = runner.report().to_json();
    if dest == "-" {
        println!("{json}");
        return Ok(());
    }
    std::fs::write(dest, json).map_err(|e| format!("cannot write report to {dest}: {e}"))
}

fn write_artifact(what: &str, dest: &str, text: &str) -> Result<(), String> {
    if dest == "-" {
        print!("{text}");
        if !text.ends_with('\n') {
            println!();
        }
        return Ok(());
    }
    std::fs::write(dest, text).map_err(|e| format!("cannot write {what} to {dest}: {e}"))
}

/// Export whatever telemetry outputs the flags requested from one snapshot.
fn write_telemetry(cli: &Cli, telemetry: &Telemetry) -> Result<(), String> {
    if cli.trace_out.is_none() && cli.metrics_out.is_none() && !cli.verbose {
        return Ok(());
    }
    let snap = telemetry.snapshot();
    if let Some(dest) = &cli.trace_out {
        write_artifact("trace", dest, &snap.chrome_trace())?;
    }
    if let Some(dest) = &cli.metrics_out {
        write_artifact("metrics", dest, &snap.prometheus())?;
    }
    if cli.verbose {
        eprint!("{}", snap.summary());
    }
    Ok(())
}

/// How many bare/instrumented pass pairs `--telemetry-overhead` runs.
/// The pairs are interleaved and the fastest of each side wins, so slow
/// ambient drift on the host (CI neighbours, thermal throttling) cancels
/// instead of masquerading as telemetry tax.
const OVERHEAD_PASSES: usize = 2;

fn print_overhead(bare: Duration, instrumented: Duration) {
    let b = bare.as_secs_f64();
    let i = instrumented.as_secs_f64();
    let tax = if b > 0.0 { 100.0 * (i - b) / b } else { 0.0 };
    println!(
        "telemetry overhead: bare {:.1} ms, instrumented {:.1} ms, tax {tax:.2}% \
         (best of {OVERHEAD_PASSES} interleaved passes)",
        1e3 * b,
        1e3 * i,
    );
}

/// The DAQ period the `--telemetry-overhead` probe-tax pass charges at:
/// the paper's stock 40 µs rig, made non-transparent.
const PROBE_TAX_SPEC: ProbeSpec = ProbeSpec {
    daq_period_ns: 40_000,
    nontransparent: true,
};

/// Host tax in parts per million of the bare wall time (0 when the bare
/// side measured nothing).
fn host_tax_ppm(bare: Duration, instrumented: Duration) -> u64 {
    let b = bare.as_secs_f64();
    if b <= 0.0 {
        return 0;
    }
    let ppm = (instrumented.as_secs_f64() - b) / b * 1e6;
    ppm.max(0.0).round() as u64
}

/// Probe tax in parts per million of the transparent simulated time
/// (deterministic: both sides are virtual durations).
fn probe_tax_ppm(transparent_us: u64, probed_us: u64) -> u64 {
    if transparent_us == 0 {
        return 0;
    }
    (probed_us.saturating_sub(transparent_us)) * 1_000_000 / transparent_us
}

/// Total simulated cell time a hub observed, in virtual microseconds.
fn virtual_us(telemetry: &Telemetry) -> u64 {
    telemetry
        .snapshot()
        .hists
        .iter()
        .find(|(id, _)| *id == HistId::CellVirtualUs)
        .map_or(0, |(_, h)| h.sum())
}

/// Stamp the two tax counters on the hub (must happen before the
/// Prometheus dump is written) so they land as `host_tax_ppm` /
/// `probe_tax_ppm`.
fn record_tax(telemetry: &Telemetry, host_ppm: u64, probe_ppm: u64) {
    telemetry.count(CounterId::HostTaxPpm, host_ppm);
    telemetry.count(CounterId::ProbeTaxPpm, probe_ppm);
}

/// The satellite split under the headline tax line: what the *host* pays
/// to record telemetry (wall clock, moves with the machine) vs what the
/// *simulated system* would pay if the probes were real (deterministic).
fn print_tax_split(host_ppm: u64, probe_ppm: u64) {
    println!(
        "  host_tax : {host_ppm} ppm of bare wall time (recording cost; host-timing dependent)"
    );
    println!(
        "  probe_tax: {probe_ppm} ppm extra simulated time under a charged {} probe (deterministic)",
        vmprobe::period_label(PROBE_TAX_SPEC.daq_period_ns)
    );
}

/// Render the requested paper artifacts to one string, stopping at the
/// first failure.
fn render_artifacts(artifacts: &[String], runner: &mut Runner) -> Result<String, String> {
    let all_names = figures::all_benchmark_names();
    let pxa_names = figures::pxa_benchmark_names();
    let (p6, pxa) = (&vmprobe::P6_HEAPS_MB, &vmprobe::PXA_HEAPS_MB);
    let mut out = String::new();
    for a in artifacts {
        let result: Result<String, vmprobe::ExperimentError> = match a.as_str() {
            "fig1" => figures::fig1(runner).map(|f| f.to_string()),
            "fig5" => Ok(figures::fig5().to_string()),
            "fig6" => figures::fig6(runner, &all_names, p6).map(|f| f.to_string()),
            "fig7" => figures::fig7(runner, &all_names, p6).map(|f| f.to_string()),
            "fig8" => figures::fig8(runner, &all_names, p6).map(|f| f.to_string()),
            "fig9" => figures::fig9(runner, &all_names, p6).map(|f| f.to_string()),
            "fig10" => figures::fig10(runner, &all_names, p6).map(|f| f.to_string()),
            "fig11" => figures::fig11(runner, &pxa_names, pxa).map(|f| f.to_string()),
            "t1" => figures::t1_collector_power(runner, p6).map(|f| f.to_string()),
            "t2" => figures::t2_l2_ipc(runner, p6).map(|f| f.to_string()),
            "t3" => figures::t3_memory_energy(runner, p6).map(|f| f.to_string()),
            "t4" => figures::t4_headlines(runner).map(|f| f.to_string()),
            "t5" => figures::t5_kaffe(runner, p6, pxa).map(|f| f.to_string()),
            other => return Err(format!("unknown artifact '{other}'")),
        };
        match result {
            Ok(text) => {
                out.push_str(&text);
                out.push('\n');
            }
            Err(e) => return Err(format!("{a} failed: {e}")),
        }
    }
    Ok(out)
}

/// Default probe-period grid for `--observe-cost`: the paper's 40 µs rig
/// bracketed by a decade below and two above.
const DEFAULT_OBSERVE_GRID: &str = "4us..4ms";

/// The observer-effect sweep: every golden cell, transparent vs
/// non-transparent, across the probe-period grid.
fn run_observe(cli: &Cli) -> ExitCode {
    if cli.telemetry_overhead {
        return fail(
            "--observe-cost cannot be combined with --telemetry-overhead: the sweep already \
             measures measurement cost, on the simulated axis",
        );
    }
    if cli.faults.is_some() || cli.seed.is_some() {
        return fail(
            "--observe-cost runs a clean sweep (probe cost must not be confounded with \
             injected faults); drop --faults/--seed",
        );
    }
    if !cli.positionals.is_empty() {
        return fail(
            "--observe-cost sweeps the golden cells; positional arguments are not accepted",
        );
    }
    let grid = match parse_period_grid(cli.probe_period.as_deref().unwrap_or(DEFAULT_OBSERVE_GRID))
    {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    let cache = match cli.open_cache() {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let telemetry = cli.make_telemetry();
    let mut engine = ObserveEngine::new(grid)
        .jobs(cli.jobs.unwrap_or_else(default_jobs))
        .with_telemetry(telemetry.clone());
    if let Some(cache) = &cache {
        engine = engine.with_cache(Arc::clone(cache));
    }
    let report = match engine.run(&golden_cells()) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    print!("{report}");
    if cli.resume {
        if let Some(cache) = &cache {
            print_resume_cache(cache);
        }
    }
    if let Some(dest) = &cli.report_json {
        if let Err(e) = write_artifact("observe report", dest, &report.to_json()) {
            return fail(&e);
        }
    }
    if let Err(e) = write_telemetry(cli, &telemetry) {
        return fail(&e);
    }
    ExitCode::SUCCESS
}

/// Regenerate the requested paper artifacts on the parallel sweep engine.
fn run_figures(cli: &Cli, plan: FaultPlan) -> ExitCode {
    let artifacts: Vec<String> = if cli.positionals.iter().any(|a| a == "all") {
        ARTIFACTS.map(String::from).to_vec()
    } else {
        cli.positionals.clone()
    };
    if cli.telemetry_overhead {
        // Interleaved bare/instrumented pass pairs on fresh runners and
        // fresh hubs; artifacts and the exported telemetry come from the
        // last instrumented pass, the tax from the fastest of each side.
        // Both timed sides run quiet (no verbose narration): the tax must
        // measure recording, not stderr I/O.
        let mut bare_best = Duration::MAX;
        let mut inst_best = Duration::MAX;
        let mut last: Option<(Runner, Telemetry, String)> = None;
        for _ in 0..OVERHEAD_PASSES {
            let mut bare = make_runner(cli, plan, Telemetry::disabled(), false, None);
            let t = Instant::now();
            if let Err(e) = render_artifacts(&artifacts, &mut bare) {
                return fail(&e);
            }
            bare_best = bare_best.min(t.elapsed());

            let telemetry = cli.make_overhead_telemetry();
            let mut runner = make_runner(cli, plan, telemetry.clone(), false, None);
            let t = Instant::now();
            let text = match render_artifacts(&artifacts, &mut runner) {
                Ok(text) => text,
                Err(e) => return fail(&e),
            };
            inst_best = inst_best.min(t.elapsed());
            last = Some((runner, telemetry, text));
        }
        let (runner, telemetry, text) = last.expect("at least one overhead pass");

        // Satellite split: a quiet pass with the stock probe made
        // non-transparent. Extra *simulated* time relative to the
        // instrumented pass is the deterministic probe tax.
        let probe_tel = Telemetry::with_sink(false, Box::new(NoopSink));
        let mut probed = make_runner(cli, plan, probe_tel.clone(), false, None)
            .with_probe_override(PROBE_TAX_SPEC);
        if let Err(e) = render_artifacts(&artifacts, &mut probed) {
            return fail(&e);
        }
        let host_ppm = host_tax_ppm(bare_best, inst_best);
        let probe_ppm = probe_tax_ppm(virtual_us(&telemetry), virtual_us(&probe_tel));
        record_tax(&telemetry, host_ppm, probe_ppm);

        print!("{text}");
        print_overhead(bare_best, inst_best);
        print_tax_split(host_ppm, probe_ppm);
        if let Some(dest) = &cli.report_json {
            if let Err(e) = write_report(&runner, dest) {
                return fail(&e);
            }
        }
        if let Err(e) = write_telemetry(cli, &telemetry) {
            return fail(&e);
        }
        return ExitCode::SUCCESS;
    }

    let cache = match cli.open_cache() {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let telemetry = cli.make_telemetry();
    let mut runner = make_runner(cli, plan, telemetry.clone(), cli.verbose, cache);
    let text = match render_artifacts(&artifacts, &mut runner) {
        Ok(text) => text,
        Err(e) => return fail(&e),
    };
    print!("{text}");
    if cli.resume {
        print_resume_summary(&runner);
    }
    if let Some(dest) = &cli.report_json {
        if let Err(e) = write_report(&runner, dest) {
            return fail(&e);
        }
    }
    if let Err(e) = write_telemetry(cli, &telemetry) {
        return fail(&e);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(args) {
        ParseOutcome::Ok(cli) => cli,
        ParseOutcome::Err(msg) => return fail(&msg),
        ParseOutcome::Help => return usage(),
    };
    if cli.resume && cli.no_cache {
        return fail(
            "--no-cache cannot be combined with --resume: resuming is exactly the act of \
             reading the cache --no-cache disables",
        );
    }
    if cli.resume && cli.cache_dir.is_none() {
        return fail("--resume needs --cache-dir (there is nothing to resume from)");
    }
    if cli.cache_dir.is_some() && !cli.no_cache && cli.telemetry_overhead {
        return fail(
            "--cache-dir cannot be combined with --telemetry-overhead: cache hits would \
             replace the very work the timed passes are supposed to measure",
        );
    }
    if cli.observe_cost {
        return run_observe(&cli);
    }
    if cli.probe_period.is_some() {
        return fail("--probe-period needs --observe-cost");
    }
    let Some(bench) = cli.positionals.first() else {
        return usage();
    };

    let mut plan = match cli.faults.as_deref().map(FaultPlan::parse) {
        None => FaultPlan::none(),
        Some(Ok(p)) => p,
        Some(Err(e)) => return fail(&e.to_string()),
    };
    if let Some(seed) = cli.seed {
        plan = plan.with_seed(seed);
    }

    if bench == "all" || ARTIFACTS.contains(&bench.as_str()) {
        return run_figures(&cli, plan);
    }
    if cli.positionals.len() > 5 {
        return fail(&format!(
            "unexpected extra argument '{}'",
            cli.positionals[5]
        ));
    }
    if vmprobe_workloads::benchmark(bench).is_none() {
        return fail(&format!(
            "unknown benchmark '{bench}' (run with no arguments to list benchmarks)"
        ));
    }

    let vm = match cli.positionals.get(1).map(String::as_str) {
        None | Some("gencopy") => VmChoice::Jikes(CollectorKind::GenCopy),
        Some("semispace") => VmChoice::Jikes(CollectorKind::SemiSpace),
        Some("marksweep") => VmChoice::Jikes(CollectorKind::MarkSweep),
        Some("genms") => VmChoice::Jikes(CollectorKind::GenMs),
        Some("kaffe") => VmChoice::Kaffe,
        Some(other) => {
            return fail(&format!(
            "unknown collector '{other}' (expected semispace, marksweep, gencopy, genms or kaffe)"
        ))
        }
    };
    let heap_mb: u32 = match cli.positionals.get(2).map(|s| s.parse()) {
        None => 64,
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            return fail(&format!(
                "heap size must be a number of MB, got '{}'",
                cli.positionals[2]
            ))
        }
    };
    let platform = match cli.positionals.get(3).map(String::as_str) {
        None | Some("p6") => PlatformKind::PentiumM,
        Some("pxa255") => PlatformKind::Pxa255,
        Some(other) => {
            return fail(&format!(
                "unknown platform '{other}' (expected p6 or pxa255)"
            ))
        }
    };
    let scale = match cli.positionals.get(4).map(String::as_str) {
        None | Some("full") => InputScale::Full,
        Some("s10") => InputScale::Reduced,
        Some(other) => return fail(&format!("unknown scale '{other}' (expected full or s10)")),
    };

    let cfg = ExperimentConfig {
        benchmark: bench.clone(),
        vm,
        heap_mb,
        platform,
        scale,
        trace_power: false,
        record_spans: false,
        verify: !cli.no_verify,
        probe: Default::default(),
    };

    let (telemetry, runner, result, wall, bare_best);
    if cli.telemetry_overhead {
        let mut bb = Duration::MAX;
        let mut ib = Duration::MAX;
        let mut last = None;
        for _ in 0..OVERHEAD_PASSES {
            let mut bare = make_runner(&cli, plan, Telemetry::disabled(), false, None);
            let t = Instant::now();
            // A failing config fails identically on the instrumented pass,
            // which owns error reporting.
            let _ = bare.run(&cfg);
            bb = bb.min(t.elapsed());

            let tel = cli.make_overhead_telemetry();
            let mut r = make_runner(&cli, plan, tel.clone(), false, None);
            let t = Instant::now();
            let res = r.run(&cfg);
            let elapsed = t.elapsed();
            ib = ib.min(elapsed);
            last = Some((tel, r, res, elapsed));
        }
        let (tel, r, res, w) = last.expect("at least one overhead pass");

        // Satellite split (see `print_tax_split`): one quiet pass with the
        // stock probe made non-transparent; simulated durations on both
        // sides, so the ratio is deterministic.
        let mut probed = make_runner(&cli, plan, Telemetry::disabled(), false, None)
            .with_probe_override(PROBE_TAX_SPEC);
        let probe_ppm = match (&res, probed.run(&cfg)) {
            (Ok(t), Ok(nt)) => probe_tax_ppm(
                (t.report.duration.seconds() * 1e6) as u64,
                (nt.report.duration.seconds() * 1e6) as u64,
            ),
            _ => 0,
        };
        let host_ppm = host_tax_ppm(bb, ib);
        record_tax(&tel, host_ppm, probe_ppm);

        (telemetry, runner, result, wall) = (tel, r, res, w);
        bare_best = Some((bb, ib, host_ppm, probe_ppm));
    } else {
        let cache = match cli.open_cache() {
            Ok(c) => c,
            Err(e) => return fail(&e),
        };
        telemetry = cli.make_telemetry();
        let mut r = make_runner(&cli, plan, telemetry.clone(), cli.verbose, cache);
        let t = std::time::Instant::now();
        result = r.run(&cfg);
        wall = t.elapsed();
        runner = r;
        bare_best = None;
    }
    if cli.resume {
        print_resume_summary(&runner);
    }
    if let Some(dest) = &cli.report_json {
        if let Err(e) = write_report(&runner, dest) {
            return fail(&e);
        }
    }
    if let Err(e) = write_telemetry(&cli, &telemetry) {
        return fail(&e);
    }
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            let report = runner.report();
            if report.retries > 0 {
                eprintln!(
                    "error: {e} ({} attempts, {} virtual backoff ms)",
                    report.attempts_failed, report.backoff_virtual_ms
                );
            } else {
                eprintln!("error: {e}");
            }
            return ExitCode::FAILURE;
        }
    };

    println!("experiment : {cfg}");
    println!(
        "simulated  : {:.3} s ({} bytecodes, {} calls, {} allocs, wall {:.2?})",
        run.duration_s(),
        run.vm.bytecodes,
        run.vm.calls,
        run.vm.allocations,
        wall
    );
    println!(
        "energy     : cpu {:.3} J + mem {:.3} J = {:.3} J; EDP {:.4} J*s; mem share {:.1}%",
        run.report.cpu_energy.joules(),
        run.report.mem_energy.joules(),
        run.report.total_energy.joules(),
        run.edp(),
        100.0 * run.report.mem_energy_fraction()
    );
    println!(
        "gc         : {} collections ({} minor / {} major / {} incr), copied {} KiB, barriers {}",
        run.gc.collections,
        run.gc.minor_collections,
        run.gc.major_collections,
        run.gc.increments,
        run.gc.total_copied_bytes >> 10,
        run.gc.barrier_stores,
    );
    println!(
        "compile    : {} base, {} jit, {} opt; classes loaded {}",
        run.compiler.baseline_compiles,
        run.compiler.jit_compiles,
        run.compiler.opt_compiles,
        run.vm.classes_loaded
    );
    println!("components :");
    for c in ComponentId::ALL {
        if let Some(p) = run.report.component(c) {
            if p.samples == 0 && p.instructions == 0 {
                continue;
            }
            println!(
                "  {:9} {:6.2}% energy | {:8.3} ms | avg {:6.2} W peak {:6.2} W | ipc {:4.2} | L2miss {:5.1}%",
                c.label(),
                100.0 * run.fraction(c),
                1e3 * p.time.seconds(),
                p.avg_power.watts(),
                p.peak_power.watts(),
                p.ipc,
                100.0 * p.l2_miss_rate,
            );
        }
    }
    println!(
        "jvm energy : {:.1}%",
        100.0 * run.report.jvm_energy_fraction()
    );
    let faults = run.report.faults;
    if !faults.is_clean() {
        println!(
            "faults     : {} samples ({} dropped, {} dup), {} glitches, {} wraps unwrapped",
            faults.samples_total,
            faults.samples_dropped,
            faults.samples_duplicated,
            faults.port_glitches,
            faults.wraps_unwrapped,
        );
        println!(
            "degradation: |measured - clean| = {:.6} J <= bound {:.6} J (clean {:.3} J)",
            run.report.energy_deviation_j(),
            faults.energy_error_bound_j(),
            run.report.clean_total_energy.joules(),
        );
    }
    if let Some((bare, instrumented, host_ppm, probe_ppm)) = bare_best {
        print_overhead(bare, instrumented);
        print_tax_split(host_ppm, probe_ppm);
    }
    ExitCode::SUCCESS
}

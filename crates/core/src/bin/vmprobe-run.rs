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
//!   --seed <n>          override the fault plan's seed
//!   --report-json <p>   write the supervised-run report JSON to a path ('-' = stdout)
//!   --trace-out <p>     write a Chrome trace-event JSON of the run ('-' = stdout)
//!   --metrics-out <p>   write Prometheus-style text metrics ('-' = stdout)
//!   --cache-dir <p>     persistent experiment cache: cells found there are
//!                       restored instead of recomputed, fresh cells are
//!                       written through, so an interrupted or repeated sweep
//!                       only pays for what is missing
//!   --no-cache          ignore --cache-dir (compute everything, write nothing)
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use vmprobe::figures::{self, Artifact, Grid, ARTIFACTS};
use vmprobe::request::{self, Args, Source};
use vmprobe::{
    default_jobs, golden_cells, CounterId, ExperimentCache, FaultPlan, HistId, NoopSink,
    ObserveEngine, ProbeSpec, Runner, StderrSink, Telemetry,
};
use vmprobe_power::ComponentId;

/// Flags that never take a value.
const SWITCHES: [&str; 5] = [
    "telemetry-overhead",
    "observe-cost",
    "verbose",
    "no-cache",
    "resume",
];

/// Flags that take one.
const VALUED: [&str; 8] = [
    "jobs",
    "faults",
    "seed",
    "report-json",
    "trace-out",
    "metrics-out",
    "cache-dir",
    "probe-period",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: vmprobe-run <benchmark> [semispace|marksweep|gencopy|genms|kaffe] \
         [heap_mb] [p6|pxa255] [full|s10]\n\
         \x20      [--jobs <n>] [--faults <spec>] [--seed <n>] [--report-json <path>]\n\
         \x20      [--trace-out <path>] [--metrics-out <path>] [--telemetry-overhead] \
         [--verbose]\n\
         \x20      [--cache-dir <path>] [--no-cache] [--resume]\n\
         \x20  or: vmprobe-run <{}|all> [flags]\n\
         \x20  or: vmprobe-run --observe-cost [--probe-period <grid>] [flags]",
        ARTIFACTS.map(|a| a.name).join("|")
    );
    eprintln!("fault spec keys: drop dup noise wrap32 glitch drift oom@N budget seed");
    eprintln!("benchmarks:");
    for b in vmprobe_workloads::all_benchmarks() {
        eprintln!("  {:16} ({})", b.name, b.suite);
    }
    ExitCode::FAILURE
}

/// A specific, single-line complaint — unlike [`usage`], which is reserved
/// for the no-arguments / `--help` cases.
fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

struct Cli {
    args: Args,
    jobs: usize,
}

impl Cli {
    /// Lex the command line; `None` asks for the usage text.
    fn parse(argv: Vec<String>) -> Result<Option<Self>, String> {
        let Some(args) = request::lex(argv, &SWITCHES, &VALUED)? else {
            return Ok(None);
        };
        Ok(Some(Self {
            jobs: args
                .u64_in("jobs", 1, usize::MAX as u64)?
                .map_or_else(default_jobs, |j| j as usize),
            args,
        }))
    }

    /// Span streams are kept whenever an output consumes them: the trace
    /// obviously, the metrics dump (its `cell_spans` histogram counts
    /// recorded spans), and the overhead mode (which must measure full
    /// recording, not a discounted subset). Verbose-only runs stay on the
    /// cheaper counters-only hub.
    fn spans_wanted(&self) -> bool {
        ["trace-out", "metrics-out", "telemetry-overhead"]
            .iter()
            .any(|flag| self.args.has(flag))
    }

    /// Build the telemetry handle the flags ask for (disabled if none do).
    /// `--resume` reads its line off the cache counters, so it needs a
    /// counters-only hub at least.
    fn make_telemetry(&self) -> Telemetry {
        if self.args.has("verbose") {
            Telemetry::with_sink(self.spans_wanted(), Box::new(StderrSink::new()))
        } else if self.spans_wanted() {
            Telemetry::with_sink(true, Box::new(NoopSink))
        } else if self.args.has("resume") {
            Telemetry::counters_only()
        } else {
            Telemetry::disabled()
        }
    }

    /// Open the persistent experiment cache the flags ask for, if any.
    /// `--no-cache` wins over `--cache-dir` so scripts can keep a standing
    /// cache argument and disable it per-invocation.
    fn open_cache(&self) -> Result<Option<Arc<ExperimentCache>>, String> {
        match self.args.string("cache-dir") {
            Some(dir) if !self.args.has("no-cache") => ExperimentCache::open(&dir)
                .map(|cache| Some(Arc::new(cache)))
                .map_err(|e| format!("cannot open cache dir {dir}: {e}")),
            _ => Ok(None),
        }
    }

    /// A runner wired with everything the flags ask for. `telemetry` and
    /// `verbose` are explicit so the `--telemetry-overhead` timed passes
    /// (bare *and* instrumented) can build runners with narration off.
    fn runner(
        &self,
        plan: FaultPlan,
        telemetry: Telemetry,
        verbose: bool,
        cache: Option<Arc<ExperimentCache>>,
    ) -> Runner {
        let mut runner = Runner::new()
            .jobs(self.jobs)
            .with_faults(plan)
            .with_telemetry(telemetry)
            .verbose(verbose);
        if let Some(cache) = cache {
            runner = runner.with_cache(cache);
        }
        runner
    }

    /// The outputs every mode ends with: the `--resume` accounting line
    /// (stderr only: cached and cold runs must produce byte-identical
    /// stdout) from the run's cache counters, the `--report-json`
    /// document, and the telemetry exports from one snapshot.
    fn finish(
        &self,
        cache: Option<&ExperimentCache>,
        report_json: impl FnOnce() -> String,
        telemetry: &Telemetry,
    ) -> Result<(), String> {
        if let Some(cache) = cache.filter(|_| self.args.has("resume")) {
            let corrupt = telemetry.counter(CounterId::CacheCorrupt);
            eprintln!(
                "resume: {} cells restored from {}, {} recomputed ({} stored, {} corrupt entries replaced)",
                telemetry.counter(CounterId::CacheHits),
                cache.dir().display(),
                telemetry.counter(CounterId::CacheMisses) + corrupt,
                telemetry.counter(CounterId::CacheStores),
                corrupt,
            );
        }
        if let Some(dest) = self.args.string("report-json") {
            write_artifact("report", &dest, &report_json())?;
        }
        let (trace, metrics) = (
            self.args.string("trace-out"),
            self.args.string("metrics-out"),
        );
        let verbose = self.args.has("verbose");
        if trace.is_none() && metrics.is_none() && !verbose {
            return Ok(());
        }
        let snap = telemetry.snapshot();
        if let Some(dest) = trace {
            write_artifact("trace", &dest, &snap.chrome_trace())?;
        }
        if let Some(dest) = metrics {
            write_artifact("metrics", &dest, &snap.prometheus())?;
        }
        if verbose {
            eprint!("{}", snap.summary());
        }
        Ok(())
    }
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

/// How many bare/instrumented pass pairs `--telemetry-overhead` runs.
/// The pairs are interleaved and the fastest of each side wins, so slow
/// ambient drift on the host (CI neighbours, thermal throttling) cancels
/// instead of masquerading as telemetry tax.
const OVERHEAD_PASSES: usize = 2;

/// The DAQ period the `--telemetry-overhead` probe-tax pass charges at:
/// the paper's stock 40 µs rig, made non-transparent.
const PROBE_TAX_SPEC: ProbeSpec = ProbeSpec {
    daq_period_ns: 40_000,
    nontransparent: true,
};

/// Total simulated cell time a hub observed, in virtual microseconds.
fn virtual_us(telemetry: &Telemetry) -> u64 {
    telemetry
        .snapshot()
        .hists
        .iter()
        .find(|(id, _)| *id == HistId::CellVirtualUs)
        .map_or(0, |(_, h)| h.sum())
}

/// What `--telemetry-overhead` measured: the fastest bare and
/// instrumented passes, and the two taxes in parts per million.
struct Tax {
    bare: Duration,
    instrumented: Duration,
    host_ppm: u64,
    probe_ppm: u64,
}

impl Tax {
    /// The headline tax line, then the split under it: what the *host*
    /// pays to record telemetry (wall clock, moves with the machine) vs
    /// what the *simulated system* would pay if the probes were real
    /// (deterministic).
    fn print(&self) {
        let b = self.bare.as_secs_f64();
        let i = self.instrumented.as_secs_f64();
        let tax = if b > 0.0 { 100.0 * (i - b) / b } else { 0.0 };
        println!(
            "telemetry overhead: bare {:.1} ms, instrumented {:.1} ms, tax {tax:.2}% \
             (best of {OVERHEAD_PASSES} interleaved passes)",
            1e3 * b,
            1e3 * i,
        );
        println!(
            "  host_tax : {} ppm of bare wall time (recording cost; host-timing dependent)",
            self.host_ppm
        );
        println!(
            "  probe_tax: {} ppm extra simulated time under a charged {} probe (deterministic)",
            self.probe_ppm,
            vmprobe::period_label(PROBE_TAX_SPEC.daq_period_ns)
        );
    }
}

/// One execution of a render: the runner (for its report), its telemetry
/// hub, the output, the host wall time, and the tax when
/// `--telemetry-overhead` asked for it.
struct Execution<T> {
    runner: Runner,
    telemetry: Telemetry,
    output: T,
    wall: Duration,
    tax: Option<Tax>,
}

/// Run `render` on a runner wired with everything the flags ask for. Under
/// `--telemetry-overhead` that is interleaved bare/instrumented pass pairs
/// on fresh runners and fresh hubs — the output and exported telemetry come
/// from the last instrumented pass, the host tax from the fastest of each
/// side — and then one quiet pass with the stock probe made
/// non-transparent, whose extra *simulated* time is the deterministic probe
/// tax. Every timed pass runs quiet: the tax must measure recording, not
/// stderr narration.
fn execute<T>(
    cli: &Cli,
    plan: FaultPlan,
    render: impl Fn(&mut Runner) -> T,
) -> Result<Execution<T>, String> {
    if !cli.args.has("telemetry-overhead") {
        let telemetry = cli.make_telemetry();
        let verbose = cli.args.has("verbose");
        let mut runner = cli.runner(plan, telemetry.clone(), verbose, cli.open_cache()?);
        let t = Instant::now();
        let output = render(&mut runner);
        return Ok(Execution {
            wall: t.elapsed(),
            runner,
            telemetry,
            output,
            tax: None,
        });
    }
    let mut bare = Duration::MAX;
    let mut instrumented = Duration::MAX;
    let mut last = None;
    for _ in 0..OVERHEAD_PASSES {
        let mut runner = cli.runner(plan, Telemetry::disabled(), false, None);
        let t = Instant::now();
        // A failing render fails identically on the instrumented pass,
        // which owns error reporting.
        let _ = render(&mut runner);
        bare = bare.min(t.elapsed());

        let telemetry = Telemetry::with_sink(cli.spans_wanted(), Box::new(NoopSink));
        let mut runner = cli.runner(plan, telemetry.clone(), false, None);
        let t = Instant::now();
        let output = render(&mut runner);
        let wall = t.elapsed();
        instrumented = instrumented.min(wall);
        last = Some(Execution {
            runner,
            telemetry,
            output,
            wall,
            tax: None,
        });
    }
    let mut last = last.expect("at least one overhead pass");

    let probe_tel = Telemetry::with_sink(false, Box::new(NoopSink));
    let mut probed = cli
        .runner(plan, probe_tel.clone(), false, None)
        .with_probe_override(PROBE_TAX_SPEC);
    let _ = render(&mut probed);
    // Host tax in ppm of the bare wall time; probe tax in ppm of the
    // transparent simulated time (0 when a side measured nothing).
    let (b, i) = (bare.as_secs_f64(), instrumented.as_secs_f64());
    let host_ppm = if b > 0.0 {
        ((i - b) / b * 1e6).max(0.0).round() as u64
    } else {
        0
    };
    let (t_us, p_us) = (virtual_us(&last.telemetry), virtual_us(&probe_tel));
    let probe_ppm = match t_us {
        0 => 0,
        _ => p_us.saturating_sub(t_us) * 1_000_000 / t_us,
    };
    // Stamped before any Prometheus dump is written, so the two taxes land
    // as `host_tax_ppm` / `probe_tax_ppm`.
    last.telemetry.count(CounterId::HostTaxPpm, host_ppm);
    last.telemetry.count(CounterId::ProbeTaxPpm, probe_ppm);
    last.tax = Some(Tax {
        bare,
        instrumented,
        host_ppm,
        probe_ppm,
    });
    Ok(last)
}

/// The observer-effect sweep: every golden cell, transparent vs
/// non-transparent, across the probe-period grid.
fn run_observe(cli: &Cli) -> Result<(), String> {
    if cli.args.has("telemetry-overhead") {
        return Err(
            "--observe-cost cannot be combined with --telemetry-overhead: the sweep \
                    already measures measurement cost, on the simulated axis"
                .into(),
        );
    }
    if cli.args.has("faults") || cli.args.has("seed") {
        return Err(
            "--observe-cost runs a clean sweep (probe cost must not be confounded \
                    with injected faults); drop --faults/--seed"
                .into(),
        );
    }
    if !cli.args.positionals.is_empty() {
        return Err(
            "--observe-cost sweeps the golden cells; positional arguments are not accepted".into(),
        );
    }
    let grid = request::period_grid(&cli.args, "probe_period")?;
    let cache = cli.open_cache()?;
    let telemetry = cli.make_telemetry();
    let mut engine = ObserveEngine::new(grid)
        .jobs(cli.jobs)
        .with_telemetry(telemetry.clone());
    if let Some(cache) = &cache {
        engine = engine.with_cache(Arc::clone(cache));
    }
    let report = engine.run(&golden_cells())?;
    print!("{report}");
    cli.finish(cache.as_deref(), || report.to_json(), &telemetry)
}

/// Regenerate the requested paper artifacts on the parallel sweep engine,
/// stopping at the first failure.
fn run_figures(cli: &Cli, plan: FaultPlan) -> Result<(), String> {
    let artifacts: Vec<&Artifact> = if cli.args.positionals.iter().any(|a| a == "all") {
        ARTIFACTS.iter().collect()
    } else {
        cli.args
            .positionals
            .iter()
            .map(|a| figures::artifact(a).ok_or_else(|| format!("unknown artifact '{a}'")))
            .collect::<Result<_, _>>()?
    };
    let grid = Grid::full();
    let render = |runner: &mut Runner| -> Result<String, String> {
        let mut out = String::new();
        for a in &artifacts {
            out += &(a.render)(runner, &grid).map_err(|e| format!("{} failed: {e}", a.name))?;
            out.push('\n');
        }
        Ok(out)
    };
    let run = execute(cli, plan, render)?;
    print!("{}", run.output?);
    if let Some(tax) = &run.tax {
        tax.print();
    }
    let report = || run.runner.report().to_json();
    cli.finish(run.runner.cache().map(Arc::as_ref), report, &run.telemetry)
}

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1).collect()) {
        Ok(Some(cli)) => cli,
        Ok(None) => return usage(),
        Err(msg) => return fail(&msg),
    };
    match run(cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => usage(),
        Err(msg) => fail(&msg),
    }
}

/// Dispatch on the mode the arguments name; `Ok(false)` asks for the
/// usage text.
fn run(mut cli: Cli) -> Result<bool, String> {
    let (resume, no_cache) = (cli.args.has("resume"), cli.args.has("no-cache"));
    if resume && no_cache {
        return Err(
            "--no-cache cannot be combined with --resume: resuming is exactly the act \
                    of reading the cache --no-cache disables"
                .into(),
        );
    }
    if resume && !cli.args.has("cache-dir") {
        return Err("--resume needs --cache-dir (there is nothing to resume from)".into());
    }
    if cli.args.has("cache-dir") && !no_cache && cli.args.has("telemetry-overhead") {
        return Err(
            "--cache-dir cannot be combined with --telemetry-overhead: cache hits \
                    would replace the very work the timed passes are supposed to measure"
                .into(),
        );
    }
    if cli.args.has("observe-cost") {
        return run_observe(&cli).map(|()| true);
    }
    if cli.args.has("probe-period") {
        return Err("--probe-period needs --observe-cost".into());
    }
    let Some(first) = cli.args.positionals.first() else {
        return Ok(false);
    };
    let plan = request::fault_plan(&cli.args)?.unwrap_or_else(FaultPlan::none);
    if first == "all" || figures::artifact(first).is_some() {
        return run_figures(&cli, plan).map(|()| true);
    }
    cli.args.name_positionals(&request::CELL_FIELDS)?;
    run_cell(&cli, plan).map(|()| true)
}

/// Run one experiment and print its report.
fn run_cell(cli: &Cli, plan: FaultPlan) -> Result<(), String> {
    let bench = &cli.args.positionals[0];
    if vmprobe_workloads::benchmark(bench).is_none() {
        return Err(format!(
            "unknown benchmark '{bench}' (run with no arguments to list benchmarks)"
        ));
    }
    let cfg = request::cell(&cli.args)?;

    let Execution {
        runner,
        telemetry,
        output,
        wall,
        tax,
    } = execute(cli, plan, |r| r.run(&cfg))?;
    let report = || runner.report().to_json();
    cli.finish(runner.cache().map(Arc::as_ref), report, &telemetry)?;
    let run = output.map_err(|e| e.to_string())?;

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
    if let Some(tax) = tax {
        tax.print();
    }
    Ok(())
}

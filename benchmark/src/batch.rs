//! The cold batch workloads: timed sweeps through the supervised runner,
//! and the traced replay of the same cells through each layer's public
//! calls.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vmprobe::{CacheLookup, ExperimentConfig, RunSummary, VmChoice};
use vmprobe_platform::CpuSpec;
use vmprobe_vm::{RunOutcome, Vm, VmConfig};

use crate::grid::{self, CellStarts, Digest, Sweep};
use crate::host::HostSpeed;
use crate::stats::{beyond, mean, median, percentile, samples_needed, Metrics};
use crate::sys;
use crate::trace::Recorder;
use crate::{Outcome, MEASURE_CAP_S};

/// One untimed-setup, timed-sweep pass over a fresh, empty cache.
struct ColdPass {
    end: Instant,
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    cells: u64,
    failed: u64,
    bytecodes: u64,
    latencies_s: Vec<f64>,
    digest: Digest,
    problems: Vec<String>,
}

fn cold_pass(sweep: Sweep, dir: &Path) -> Result<ColdPass, String> {
    sys::reset_own_peak_rss()?;
    let t0 = Instant::now();
    let cache = grid::fresh_cache(dir)?;
    let starts = Arc::new(CellStarts::default());
    let mut runners = sweep.runners(&cache, Some(starts.telemetry()));
    let setup_s = t0.elapsed().as_secs_f64();

    let mut latencies_s = Vec::new();
    let cpu0 = sys::own().cpu_s;
    let t1 = Instant::now();
    let figs = sweep.render(&mut runners, &mut || {
        latencies_s.extend(starts.take_latencies(Instant::now()));
    })?;
    let end = Instant::now();
    let wall_s = (end - t1).as_secs_f64();
    let cpu_s = sys::own().cpu_s - cpu0;
    let rss_mb = sys::peak_rss_mb_of(std::process::id())?;

    let mut problems = grid::check_goldens(&figs);
    let failed = runners.failed_cells();
    let cells = sweep.cells().len() as u64;
    let (digest, bytecodes) = match grid::summaries(sweep, &mut runners) {
        Ok(sums) => (
            Digest::of(sums.iter().map(Arc::as_ref)),
            sums.iter().map(|s| s.vm.bytecodes).sum(),
        ),
        Err(e) => {
            problems.push(format!("a cell failed: {e}"));
            (Digest::default(), 0)
        }
    };
    Ok(ColdPass {
        end,
        setup_s,
        wall_s,
        cpu_s,
        rss_mb,
        cells,
        failed,
        bytecodes,
        latencies_s,
        digest,
        problems,
    })
}

/// Fold pass digests into one, recording a problem if they disagree.
fn one_digest(digests: &[Digest], problems: &mut Vec<String>) -> Digest {
    let first = digests.first().copied().unwrap_or_default();
    if digests.iter().any(|d| d.hex() != first.hex()) {
        problems.push("sim_digest differs between passes".into());
    }
    first
}

/// The untraced run: timed cold passes, each after a host reference run,
/// until `seconds` have passed and the latency sample supports a p99.
pub fn measure(sweep: Sweep, work: &Path, seconds: f64) -> Result<Outcome, String> {
    let dir = work.join("cache");
    let mut host = HostSpeed::start(sweep.jobs(), 0)?;
    // One unrecorded pass lets the allocator and page cache settle.
    cold_pass(sweep, &dir)?;
    let need = samples_needed(0.99);
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        host.mark()?;
        passes.push(cold_pass(sweep, &dir)?);
        let samples: usize = passes.iter().map(|p| p.latencies_s.len()).sum();
        let t = start.elapsed().as_secs_f64();
        if (t >= seconds && samples >= need) || t >= MEASURE_CAP_S {
            break;
        }
    }
    host.mark()?;

    let mut problems: Vec<String> = passes.iter().flat_map(|p| p.problems.clone()).collect();
    problems.dedup();
    let digests: Vec<Digest> = passes.iter().map(|p| p.digest).collect();
    let digest = one_digest(&digests, &mut problems);
    // Host times are divided by the host's slowdown (see `host`): pass
    // times, means over the run, by the run's mean slowdown; latencies,
    // pooled into percentiles, by the slowdown around their pass. Rates
    // are totals over total time.
    let slow = host.mean_slowdown();
    let each =
        |f: &dyn Fn(&ColdPass) -> f64| passes.iter().map(|p| f(p) / slow).collect::<Vec<_>>();
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            let s = host.slowdown(p.end);
            p.latencies_s.iter().map(move |l| l / s)
        })
        .collect();
    let wall: f64 = each(&|p| p.wall_s).iter().sum();

    let mut m = Metrics::default();
    m.push("setup_s", median(&each(&|p| p.setup_s)), "s");
    m.push("wall_s", mean(&each(&|p| p.wall_s)), "s");
    m.push("cpu_s", mean(&each(&|p| p.cpu_s)), "s");
    // Each pass's own peak: at jobs 2 it varies with how the cells of
    // the two workers overlap, so the median over passes.
    m.push(
        "peak_rss_mb",
        median(&passes.iter().map(|p| p.rss_mb).collect::<Vec<_>>()),
        "MB",
    );
    let bytecodes: u64 = passes.iter().map(|p| p.bytecodes).sum();
    let cells: u64 = passes.iter().map(|p| p.cells).sum();
    m.push("sim_mbc_per_s", bytecodes as f64 / wall / 1e6, "Mbc/s");
    m.push("req_per_s", cells as f64 / wall, "1/s");
    let p50 = percentile(&lat, 0.5);
    let p99 = percentile(&lat, 0.99);
    if p99.is_none() {
        problems.push(format!(
            "only {} cell latencies, p99 needs {need}",
            lat.len()
        ));
    }
    m.push("req_p50_ms", p50.unwrap_or(0.0) * 1e3, "ms");
    m.push("req_p99_ms", p99.unwrap_or(0.0) * 1e3, "ms");

    let failed = passes.iter().map(|p| p.failed).sum();
    Ok(Outcome {
        attempted: cells,
        failed,
        metrics: m,
        digest,
        problems,
        notes: vec![
            format!("passes {} (one more unrecorded warm-up)", passes.len()),
            host.note(),
            format!(
                "undivided wall_s {:.6} s",
                mean(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>())
            ),
            format!(
                "request = one sweep cell; latency samples {} (p99 rests on {} beyond it)",
                lat.len(),
                beyond(lat.len(), 0.99)
            ),
        ],
        spans: None,
    })
}

// ---------------------------------------------------------------- traced

/// Exact simulated counts summed over a pass's cells.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counts {
    bytecodes: u64,
    rir_bytecodes: u64,
    calls: u64,
    allocations: u64,
    classes_loaded: u64,
    collections: u64,
    copied_bytes: u64,
    marked_objects: u64,
    pause_cycles: u64,
    sim_cycles: f64,
    opt_compiles: u64,
    bytes_compiled: u64,
    daq_samples: u64,
    sim_instructions: u64,
    sim_s: f64,
}

impl Counts {
    fn add(&mut self, cfg: &ExperimentConfig, out: &RunOutcome) {
        self.bytecodes += out.vm.bytecodes;
        self.rir_bytecodes += out.rir_bytecodes;
        self.calls += out.vm.calls;
        self.allocations += out.vm.allocations;
        self.classes_loaded += out.vm.classes_loaded;
        self.collections += out.gc.collections;
        self.copied_bytes += out.gc.total_copied_bytes;
        self.marked_objects += out.gc.total_marked_objects;
        self.pause_cycles += out.gc.total_pause_cycles;
        self.sim_cycles += out.report.duration.seconds() * CpuSpec::of(cfg.platform).freq_hz;
        self.opt_compiles += out.compiler.opt_compiles;
        self.bytes_compiled += out.compiler.bytes_compiled;
        for p in out.report.components.values() {
            self.daq_samples += p.samples;
            self.sim_instructions += p.instructions;
        }
        self.sim_s += out.report.duration.seconds();
    }
}

/// One traced replay pass and its spans.
struct Replay {
    rec: Recorder,
    wall_s: f64,
    counts: Counts,
    digest: Digest,
    hits: u64,
    probes: u64,
    entry_kb: f64,
    problems: Vec<String>,
}

/// The VM configuration the runner derives from `cfg`, with the
/// load-time verifier off: the replay times the verifier on its own.
fn vm_config(cfg: &ExperimentConfig) -> VmConfig {
    let heap = vmprobe::heap_bytes(cfg.heap_mb);
    let base = match cfg.vm {
        VmChoice::Jikes(c) => VmConfig::jikes(c, heap),
        VmChoice::Kaffe => VmConfig::kaffe(heap),
    };
    base.platform(cfg.platform)
        .trace_power(cfg.trace_power)
        .record_spans(cfg.record_spans)
        .probe(cfg.probe)
        .verify(false)
}

/// Replay the sweep's cells in submission order through the calls the
/// runner makes, each timed as a span, then warm a runner from the
/// cache and time the figure render on it.
fn replay_pass(sweep: Sweep, dir: &Path, epoch: Instant) -> Result<Replay, String> {
    let cache = grid::fresh_cache(dir)?;
    let mut rec = Recorder::new(epoch);
    let t0 = Instant::now();
    let root = rec.open("core.runner", "replay", None, None);
    let mut counts = Counts::default();
    let mut summaries = Vec::new();
    let (mut hits, mut probes) = (0, 0);
    for (i, cfg) in sweep.cells().into_iter().enumerate() {
        let id = Some(u32::try_from(i).expect("small grid"));
        let cell = rec.open("core.runner", "cell", id, Some(root));
        let key = cfg.key();
        probes += 1;
        let probe = rec.time("core.cache", "lookup", id, Some(cell), || {
            cache.lookup(&key)
        });
        if let CacheLookup::Hit(_) = probe {
            hits += 1;
        }
        let bench = vmprobe_workloads::benchmark(&cfg.benchmark)
            .ok_or_else(|| format!("unknown benchmark {}", cfg.benchmark))?;
        let program = rec.time("workloads", "build", id, Some(cell), || {
            bench.build(cfg.scale)
        });
        rec.time("analysis", "verify", id, Some(cell), || {
            vmprobe_analysis::verify_program(&program)
        })
        .map_err(|e| format!("{cfg} does not verify: {e}"))?;
        let vm = rec
            .time("vm", "new", id, Some(cell), || {
                Vm::try_new(program, vm_config(&cfg))
            })
            .map_err(|e| format!("{cfg}: {e}"))?;
        let out = rec
            .time("vm", "run", id, Some(cell), || vm.run())
            .map_err(|e| format!("{cfg}: {e}"))?;
        counts.add(&cfg, &out);
        let summary = Arc::new(RunSummary {
            result_checksum: out.result.map(|v| v.as_i()),
            config: cfg,
            report: out.report,
            gc: out.gc,
            vm: out.vm,
            compiler: out.compiler,
            power_trace: out.power_trace,
            total_alloc_bytes: out.total_alloc_bytes,
            live_bytes_end: out.live_bytes_end,
            spans: out.spans,
        });
        rec.time("core.cache", "store", id, Some(cell), || {
            cache.store(&key, &summary)
        });
        summaries.push(summary);
        rec.close(cell);
    }
    let mut runners = sweep.runners(&cache, None);
    let warmed = rec.time("core.runner", "warm", None, Some(root), || {
        runners.resolve(&sweep.cells())
    });
    let figs = rec.time("core.figures", "render", None, Some(root), || {
        sweep.render(&mut runners, &mut || {})
    })?;
    rec.close(root);
    let wall_s = t0.elapsed().as_secs_f64();

    let mut problems = grid::check_goldens(&figs);
    if warmed.iter().any(Result::is_err) {
        problems.push("a replayed cell did not restore from the cache".into());
    }
    Ok(Replay {
        rec,
        wall_s,
        counts,
        digest: Digest::of(summaries.iter().map(Arc::as_ref)),
        hits,
        probes,
        entry_kb: grid::mean_entry_kb(dir),
        problems,
    })
}

/// Leaf layer spans of a replay pass. With the residual they make up
/// the pass's wall time.
const LEAVES: [(&str, &str); 8] = [
    ("core.cache", "lookup"),
    ("workloads", "build"),
    ("analysis", "verify"),
    ("vm", "new"),
    ("vm", "run"),
    ("core.cache", "store"),
    ("core.runner", "warm"),
    ("core.figures", "render"),
];

/// A replay whose layer spans leave more than this share of its wall
/// uncovered fails the run.
const MAX_RESIDUAL_SHARE: f64 = 0.05;

/// The traced run: untraced reference passes (a third of the time),
/// then traced replays (the rest).
pub fn trace(sweep: Sweep, work: &Path, seconds: f64) -> Result<Outcome, String> {
    let dir = work.join("cache");
    cold_pass(sweep, &dir)?;
    let start = Instant::now();
    let mut cold = Vec::new();
    while cold.len() < 3 || start.elapsed().as_secs_f64() < seconds / 3.0 {
        cold.push(cold_pass(sweep, &dir)?);
    }
    let epoch = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 3 || epoch.elapsed().as_secs_f64() < seconds * 2.0 / 3.0 {
        reps.push(replay_pass(sweep, &dir, epoch)?);
    }

    let mut problems: Vec<String> = cold.iter().flat_map(|p| p.problems.clone()).collect();
    problems.extend(reps.iter().flat_map(|r| r.problems.clone()));
    problems.dedup();
    let mut digests: Vec<Digest> = cold.iter().map(|p| p.digest).collect();
    digests.extend(reps.iter().map(|r| r.digest));
    let digest = one_digest(&digests, &mut problems);
    let counts = reps[0].counts;
    if reps.iter().any(|r| r.counts != counts) {
        problems.push("simulated counts differ between replays".into());
    }

    let med = |f: &dyn Fn(&Replay) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let layer = |l: &'static str, c: &'static str| med(&|r| r.rec.total(l, c));
    // Means, as for `wall_s` itself.
    let untraced_wall = mean(&cold.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = mean(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let residual = med(&|r| r.wall_s - LEAVES.iter().map(|(l, c)| r.rec.total(l, c)).sum::<f64>());
    if residual > MAX_RESIDUAL_SHARE * traced_wall {
        problems.push(format!(
            "layer spans leave {residual:.4} s of a {traced_wall:.4} s replay uncovered"
        ));
    }
    let cell_runs: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.rec.durations("vm", "run"))
        .collect();
    let cell_s = med(&|r| r.rec.total("core.runner", "cell"));
    let run_s = layer("vm", "run");
    let c = counts;
    let pairs = vec![
        ("workloads.build_s", layer("workloads", "build")),
        ("analysis.verify_s", layer("analysis", "verify")),
        ("vm.new_s", layer("vm", "new")),
        ("vm.run_s", run_s),
        ("vm.cell_p50_ms", median(&cell_runs) * 1e3),
        (
            "vm.cell_max_ms",
            med(&|r| r.rec.durations("vm", "run").into_iter().fold(0.0, f64::max)) * 1e3,
        ),
        ("core.cache.lookup_s", layer("core.cache", "lookup")),
        ("core.cache.store_s", layer("core.cache", "store")),
        ("core.runner.warm_s", layer("core.runner", "warm")),
        ("core.figures.render_s", layer("core.figures", "render")),
        ("core.runner.residual_s", residual),
        (
            "core.sweep.efficiency",
            cell_s / (sweep.jobs() as f64 * untraced_wall),
        ),
        ("trace.wall_s", traced_wall),
        ("trace.overhead_s", traced_wall - untraced_wall),
        ("vm.bytecodes", c.bytecodes as f64),
        ("vm.rir_share", c.rir_bytecodes as f64 / c.bytecodes as f64),
        ("vm.calls", c.calls as f64),
        ("vm.allocations", c.allocations as f64),
        ("vm.classes_loaded", c.classes_loaded as f64),
        ("vm.ns_per_bytecode", run_s * 1e9 / c.bytecodes as f64),
        ("heap.collections", c.collections as f64),
        ("heap.copied_mb", c.copied_bytes as f64 / (1024.0 * 1024.0)),
        ("heap.marked_objects", c.marked_objects as f64),
        ("heap.pause_share", c.pause_cycles as f64 / c.sim_cycles),
        ("compiler.opt_compiles", c.opt_compiles as f64),
        ("compiler.kb_compiled", c.bytes_compiled as f64 / 1024.0),
        ("power.daq_samples", c.daq_samples as f64),
        ("platform.sim_instructions", c.sim_instructions as f64),
        ("platform.sim_s", c.sim_s),
        ("core.cache.entry_kb", med(&|r| r.entry_kb)),
        (
            "core.cache.hit_ratio",
            reps[0].hits as f64 / reps[0].probes as f64,
        ),
    ];

    let cells = sweep.cells().len() as u64;
    let attempted = cells * (cold.len() + reps.len()) as u64;
    let failed = cold.iter().map(|p| p.failed).sum();
    let mut all = Recorder::new(epoch);
    let passes = reps.len();
    for r in reps {
        all.absorb(r.rec);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: crate::per_layer(&pairs),
        digest,
        problems,
        notes: vec![
            format!(
                "{} untraced passes (wall {untraced_wall:.4} s), {passes} traced replays (wall {traced_wall:.4} s)",
                cold.len()
            ),
            format!(
                "tracing overhead {:.4} s per pass; replay is serial, wall_s runs at jobs {}",
                traced_wall - untraced_wall,
                sweep.jobs()
            ),
        ],
        spans: Some(all),
    })
}

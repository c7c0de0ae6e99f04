//! The vmprobe benchmark: cold Jikes and Kaffe sweeps, a warm serve
//! stream, and an outside-in layer trace. See `benchmark/README.md`.
//!
//! ```text
//! vmprobe-benchmark --workload <jikes-cold|kaffe-cold|serve-warm>
//!                   --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then one JSON result line. Exits 0
//! only when every output matched its reference.

mod batch;
mod grid;
mod host;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use grid::{Digest, Sweep};
use stats::Metrics;
use trace::Recorder;

/// No run measures longer than this, whatever the sample rule asks, so
/// a run ends well within its time limit.
pub const MEASURE_CAP_S: f64 = 120.0;

/// Every end-to-end metric, in print order, with its unit.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mbc_per_s", "Mbc/s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
];

/// Every per-layer metric, in print order, with its unit. A layer a
/// workload never calls reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("workloads.build_s", "s"),
    ("analysis.verify_s", "s"),
    ("vm.new_s", "s"),
    ("vm.run_s", "s"),
    ("vm.cell_p50_ms", "ms"),
    ("vm.cell_max_ms", "ms"),
    ("core.cache.lookup_s", "s"),
    ("core.cache.store_s", "s"),
    ("core.runner.warm_s", "s"),
    ("core.figures.render_s", "s"),
    ("core.runner.residual_s", "s"),
    ("core.sweep.efficiency", "ratio"),
    ("serve.accept_ms_p50", "ms"),
    ("serve.result_ms_p50", "ms"),
    ("serve.verify_ms_p50", "ms"),
    ("core.serve.parse_s", "s"),
    ("core.serve.encode_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("vm.bytecodes", "count"),
    ("vm.rir_share", "ratio"),
    ("vm.calls", "count"),
    ("vm.allocations", "count"),
    ("vm.classes_loaded", "count"),
    ("vm.ns_per_bytecode", "ns"),
    ("heap.collections", "count"),
    ("heap.copied_mb", "MB"),
    ("heap.marked_objects", "count"),
    ("heap.pause_share", "ratio"),
    ("compiler.opt_compiles", "count"),
    ("compiler.kb_compiled", "KB"),
    ("power.daq_samples", "count"),
    ("platform.sim_instructions", "count"),
    ("platform.sim_s", "s"),
    ("core.cache.entry_kb", "KB"),
    ("core.cache.hit_ratio", "ratio"),
];

/// Lay measured per-layer values out over the full [`PER_LAYER`] list.
pub fn per_layer(values: &[(&'static str, f64)]) -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        let v = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        m.push(name, v, unit);
    }
    assert!(
        values
            .iter()
            .all(|(n, _)| PER_LAYER.iter().any(|(p, _)| p == n)),
        "every measured per-layer value has a declared name"
    );
    m
}

/// Whether `metrics` is exactly `expected`, in order and with units.
fn same_set(metrics: &Metrics, expected: &[(&str, &str)]) -> bool {
    metrics.0.len() == expected.len()
        && metrics
            .0
            .iter()
            .zip(expected)
            .all(|(m, (name, unit))| m.name == *name && m.unit == *unit)
}

/// What one run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub digest: Digest,
    /// Correctness failures; any one fails the run.
    pub problems: Vec<String>,
    /// Context lines for the human-readable report.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<Recorder>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a non-negative integer, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let seconds = args.seconds as f64;
    match (args.workload.as_str(), args.trace) {
        ("jikes-cold", false) => batch::measure(Sweep::Jikes, work, seconds),
        ("jikes-cold", true) => batch::trace(Sweep::Jikes, work, seconds),
        ("kaffe-cold", false) => batch::measure(Sweep::Kaffe, work, seconds),
        ("kaffe-cold", true) => batch::trace(Sweep::Kaffe, work, seconds),
        ("serve-warm", false) => serve::measure(work, args.seed, seconds),
        ("serve-warm", true) => serve::trace(work, args.seed, seconds),
        (other, _) => Err(format!(
            "unknown workload '{other}' (jikes-cold, kaffe-cold, serve-warm)"
        )),
    }
}

/// `--daemon <socket> <cache-dir>`: the serve workload's daemon, as
/// `vmprobe-serve --socket <socket> --jobs 1 --cache-dir <cache-dir>`.
fn daemon(raw: &[String]) -> ExitCode {
    let [socket, cache] = raw else {
        eprintln!("error: --daemon takes <socket> <cache-dir>");
        return ExitCode::FAILURE;
    };
    let config = vmprobe::serve::ServeConfig {
        socket: PathBuf::from(socket),
        jobs: 1,
        cache_dir: Some(PathBuf::from(cache)),
        ..vmprobe::serve::ServeConfig::default()
    };
    match vmprobe::serve::serve(config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--daemon") => return daemon(&raw[1..]),
        Some("--reference") => return host::reference_process(&raw[1..]),
        _ => {}
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_run");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "vmprobe benchmark: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!("sim_digest {} {}", args.workload, out.digest.hex());
    let title = if args.trace {
        "per-layer (traced run)"
    } else {
        "end-to-end (untraced run, host time)"
    };
    print!("{}", out.metrics.table(title));
    let rate = if out.attempted == 0 {
        0.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    println!("  error_rate {rate} ({}/{})", out.failed, out.attempted);
    if let Some(spans) = &out.spans {
        let path = root.join(format!("{}.spans.tsv", args.workload));
        match spans.write_tsv(&path) {
            Ok(()) => println!(
                "  {} spans written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut problems = out.problems;
    if !same_set(&out.metrics, expected) {
        problems.push("the metric set differs from the one BENCHMARK.json declares".into());
    }
    for p in problems.iter().take(20) {
        println!("FAIL: {p}");
    }
    if problems.len() > 20 {
        println!("FAIL: … and {} more", problems.len() - 20);
    }
    let correct = problems.is_empty() && out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        stats::result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe::serve::protocol::JsonValue;

    fn declared(section: &str) -> Vec<(String, String)> {
        let json = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let Some(JsonValue::Arr(items)) = json.get(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn arguments_parse_the_documented_flags() {
        let raw: Vec<String> = [
            "--workload",
            "serve-warm",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let a = parse_args(&raw).expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-warm", 7, 3, true)
        );
        assert!(parse_args(&raw[..7]).is_err(), "a flag without a value");
        assert!(parse_args(&["--trace".to_owned(), "2".to_owned()]).is_err());
    }
}
